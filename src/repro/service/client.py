"""Synchronous HTTP client for the job service.

Stdlib-only (``urllib``), mirroring the server's stdlib-only stance.
HTTP error replies and failed jobs surface as
:class:`repro.errors.ServiceError`; transport-level failures (refused
connection, reset, DNS) surface as the
:class:`repro.errors.ServiceTransportError` subclass so callers can
retry those — and only those — safely.  :meth:`ServiceClient.submit`
already does: job submission is idempotent (the server's fingerprint
cache answers a duplicate of an already-finished job without re-running
it), so the client retries transport errors with capped exponential
backoff before giving up.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional

from repro import faults
from repro.errors import ServiceError, ServiceTransportError

__all__ = ["ServiceClient"]

#: Floor on a budget-bounded HTTP call's socket timeout: ``urlopen``
#: treats ``0`` as non-blocking, so an exhausted budget still gets one
#: short attempt.
MIN_CALL_S = 0.05


class ServiceClient:
    """Talk to a running :class:`repro.service.JobServer`.

    ``base_url`` is the server root, e.g. ``http://127.0.0.1:8080``.
    ``shutdown_token`` is only needed to :meth:`shutdown` a server
    over a non-loopback connection (the server logs its token at
    start); loopback clients never need it.  ``retries`` bounds the
    extra attempts :meth:`submit` makes after a transport-level
    failure (HTTP error replies are never retried).
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 shutdown_token: Optional[str] = None,
                 retries: int = 2, backoff: float = 0.05) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.shutdown_token = shutdown_token
        self.retries = int(retries)
        self.backoff = float(backoff)

    def _request(self, method: str, path: str,
                 payload: Optional[Any] = None,
                 extra_headers: Optional[Dict[str, str]] = None,
                 deadline: Optional[float] = None) -> Any:
        """One HTTP call, bounded by ``self.timeout`` and, when given,
        by the time left until the monotonic ``deadline``."""
        timeout = self.timeout
        if deadline is not None:
            timeout = min(timeout, max(deadline - time.monotonic(),
                                       MIN_CALL_S))
        url = f"{self.base_url}{path}"
        data = None
        headers = dict(extra_headers or {})
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data,
                                         headers=headers,
                                         method=method)
        faults.sleep_seam("service.latency")
        try:
            if faults.fire("service.transport"):
                raise urllib.error.URLError(
                    "injected transport fault (service.transport)")
            with urllib.request.urlopen(request,
                                        timeout=timeout) as reply:
                body = reply.read()
                content_type = reply.headers.get("Content-Type", "")
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode(errors="replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except (ValueError, AttributeError):
                pass
            raise ServiceError(
                f"{method} {path} -> HTTP {exc.code}: {detail}"
            ) from None
        except (urllib.error.URLError, OSError) as exc:
            raise ServiceTransportError(
                f"{method} {path} failed: {exc}") from None
        if content_type.startswith("application/json"):
            return json.loads(body)
        return body.decode()

    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """POST a job spec; returns the job document (with ``id``).

        Transport failures are retried up to ``self.retries`` times
        with capped exponential backoff — safe because submission is
        idempotent through the server's fingerprint cache (a duplicate
        of a finished job is answered from cache, never re-run).
        Error replies from the server (HTTP 4xx/5xx) are not retried
        here; a 503 carries the queue-full message and its
        ``Retry-After`` hint for the caller to honour.
        """
        return self._submit(spec, None)

    def _submit(self, spec: Dict[str, Any],
                deadline: Optional[float]) -> Dict[str, Any]:
        delay = self.backoff
        for attempt in range(self.retries + 1):
            try:
                return self._request("POST", "/jobs", spec,
                                     deadline=deadline)
            except ServiceTransportError:
                if attempt == self.retries:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, 1.0)
        raise AssertionError("unreachable")  # pragma: no cover

    def status(self, job_id: str) -> Dict[str, Any]:
        """GET one job's current document (result inline when done)."""
        return self._request("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """POST ``/jobs/<id>/cancel`` — cooperatively cancel a job.

        Returns the job document after the cancel request.  A queued
        job fails immediately; a running job unwinds at its next
        cancellation check; a finished job is left untouched (the
        request is an acknowledged no-op).
        """
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def wait(self, job_id: str, timeout: float = 60.0,
             poll: float = 0.02,
             poll_max: float = 0.5) -> Dict[str, Any]:
        """Poll until the job completes; returns the final document.

        The poll interval starts at ``poll`` and backs off
        exponentially to at most ``poll_max``, so short jobs return
        fast without long-running ones hammering the server.

        Raises :class:`repro.errors.ServiceError` when the job failed
        or ``timeout`` elapsed first.  A wait timeout is a *client*
        timeout only: the job keeps running server-side and can still
        be polled, waited on again, or stopped with :meth:`cancel`
        (:meth:`run` does that automatically).  To bound the work
        itself, submit with ``deadline_s`` so the server enforces the
        budget even if this client goes away.  Each status request is
        bounded by the time left, so the error surfaces on time even
        when the server is slow to answer.
        """
        deadline = time.monotonic() + timeout
        interval = poll
        while True:
            try:
                doc = self._request("GET", f"/jobs/{job_id}",
                                    deadline=deadline)
            except ServiceTransportError:
                if time.monotonic() < deadline:
                    raise
                raise ServiceError(
                    f"job {job_id} still unfinished after {timeout:g}s "
                    f"(status request timed out)") from None
            if doc["state"] == "done":
                return doc
            if doc["state"] == "failed":
                raise ServiceError(
                    f"job {job_id} failed: {doc.get('error')}")
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {doc['state']} after "
                    f"{timeout:g}s")
            time.sleep(min(interval, max(0.0,
                                         deadline - time.monotonic())))
            interval = min(interval * 1.5, poll_max)

    def run(self, spec: Dict[str, Any], timeout: float = 60.0,
            cancel_on_timeout: bool = True) -> Dict[str, Any]:
        """Submit a job and wait for its final document.

        When the wait times out and ``cancel_on_timeout`` is set (the
        default), the job is cancelled server-side before the timeout
        error propagates, so an abandoned ``run()`` does not leave
        work burning a scheduler slot.  Pass
        ``cancel_on_timeout=False`` to leave the job running (poll or
        :meth:`wait` for it again later).  ``timeout`` covers the
        submission too: every HTTP call is bounded by the time left.
        """
        deadline = time.monotonic() + timeout
        doc = self._submit(spec, deadline)
        if doc["state"] in ("done", "failed"):
            if doc["state"] == "failed":
                raise ServiceError(
                    f"job {doc['id']} failed: {doc.get('error')}")
            return doc
        try:
            return self.wait(doc["id"],
                             timeout=max(0.0, deadline - time.monotonic()))
        except ServiceError:
            if cancel_on_timeout:
                try:  # cancelling a finished job is a server-side no-op
                    self.cancel(doc["id"])
                except ServiceError:  # pragma: no cover - best effort
                    pass
            raise

    def health(self) -> Dict[str, Any]:
        """GET /healthz."""
        return self._request("GET", "/healthz")

    def metrics_text(self) -> str:
        """GET /metrics (Prometheus text format)."""
        return self._request("GET", "/metrics")

    def metric_value(self, name: str) -> float:
        """Read one un-labelled sample value out of ``/metrics``."""
        for line in self.metrics_text().splitlines():
            if line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) == 2 and parts[0] == name:
                return float(parts[1])
        raise ServiceError(f"no metric {name!r} at /metrics")

    def shutdown(self) -> Dict[str, Any]:
        """POST /shutdown — ask the server to stop cleanly.

        Sends ``X-Shutdown-Token`` when the client holds one; required
        for anything other than a loopback connection.
        """
        headers = ({"X-Shutdown-Token": self.shutdown_token}
                   if self.shutdown_token else None)
        return self._request("POST", "/shutdown",
                             extra_headers=headers)
