"""Deterministic, seedable fault injection for chaos testing.

Production delivers failures the test suite normally never sees:
OOM-killed pool workers, half-written JSON records, singular matrices,
flaky HTTP transports.  This module makes those failures *injectable
at documented seams* and *replayable*: a :class:`FaultPlan` is a
seeded schedule of which seam fails at which occurrence, so a chaos
run that exposed a recovery bug can be re-run byte-identically.

Seams (the strings call sites pass to :func:`fire`):

``parallel.worker_kill``
    A forked :func:`repro.parallel.fork_map` worker dies hard
    (``os._exit``) before evaluating an item — the moral equivalent of
    the OOM killer.  Keyed by *item index*, so the schedule is
    deterministic regardless of which worker picks the item up.
    Recovery: the parent catches ``BrokenProcessPool`` and re-runs the
    unfinished items serially.
``persist.truncate``
    A :mod:`repro.persist` atomic write — any file the program
    persists: campaign and experiment records, manifests, aggregates,
    run tables, reports, waveform-store chunks and metadata — is
    truncated mid-file, as a crash between ``write`` and ``rename``
    would leave it.  Recovery: resume quarantines the corrupt file and
    recomputes it (``docs/robustness.md`` lists it per file type).
``solver.singular``
    The linear solve inside a Newton iteration raises
    ``numpy.linalg.LinAlgError`` (an exactly singular system).
    Recovery: the Newton loop converts it into an
    :class:`~repro.errors.AnalysisError`, which gmin/source stepping
    (DC) or step rejection (transient) then absorb.
``kernel.backend``
    The compiled kernel tier fails to resolve; the numpy reference
    backend (equal within the kernel parity contract) is returned
    instead.
``service.transport``
    :class:`repro.service.ServiceClient` sees a transport-level
    failure (``URLError``) before the request reaches the server.
    Recovery: idempotent retry with backoff.
``service.latency``
    The scheduler (or client) sleeps ``latency_s`` before dispatching
    — a slow lane that must never change results, only timings.
``service.hold``
    A :meth:`repro.cancel.CancelToken.check` parks until the plan's
    latch is released (:meth:`FaultPlan.release`, or leaving the
    activation), so a test can hold a job *running* for as long as it
    needs instead of sizing a workload to be slow.

A plan is activated with :func:`activate` (a context manager); while
no plan is active every seam check is a single ``None`` comparison.
Forked workers inherit the active plan copy-on-write, which is what
makes the ``parallel.worker_kill`` seam reach child processes.
Listeners registered with :func:`add_listener` observe every firing
(the job server counts them into ``service_faults_injected_total``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Mapping, Optional, \
    Sequence, Tuple

from repro.errors import ParameterError

__all__ = ["SEAMS", "FaultPlan", "activate", "active_plan", "fire",
           "mangle_bytes", "sleep_seam", "hold_seam", "add_listener",
           "remove_listener"]

#: Documented fault seams: name -> one-line description.
SEAMS: Dict[str, str] = {
    "parallel.worker_kill": "fork_map child dies hard before an item "
                            "(keyed by item index)",
    "persist.truncate": "repro.persist atomic write (JSON, CSV or "
                        "store bytes) truncated mid-file",
    "solver.singular": "linear solve raises LinAlgError inside Newton",
    "kernel.backend": "compiled kernel tier fails to resolve "
                      "(numpy fallback)",
    "service.transport": "client HTTP transport error before the "
                         "request lands",
    "service.latency": "injected dispatch latency (never changes "
                       "results)",
    "service.hold": "cancellation check parks until the plan's latch "
                    "is released",
}

#: Listeners called as ``listener(seam, key)`` on every firing.
_LISTENERS: List[Callable[[str, Optional[int]], None]] = []

#: The active plan (``None`` = fault injection fully disabled).
_ACTIVE: Optional["FaultPlan"] = None


class FaultPlan:
    """A replayable schedule of fault firings.

    ``schedule`` maps a seam name to the occurrences that fail:
    for unkeyed seams the values are 1-based *call counts* at that
    seam; for keyed seams (``parallel.worker_kill``) they are the
    *keys* (item indices) that fail.  Everything not listed succeeds.

    ``FaultPlan(seed=7, schedule={"persist.truncate": [2]})`` fails
    exactly the second atomic record write of the run, every time.
    ``seed`` is carried for provenance and used by :meth:`random` to
    derive a schedule; two plans with equal ``describe()`` payloads
    inject identically.
    """

    def __init__(self, seed: int = 0,
                 schedule: Optional[Mapping[str, Sequence[int]]] = None,
                 latency_s: float = 0.0) -> None:
        schedule = dict(schedule or {})
        for seam in schedule:
            if seam not in SEAMS:
                raise ParameterError(
                    f"unknown fault seam {seam!r}; documented seams: "
                    f"{sorted(SEAMS)}")
        if latency_s < 0:
            raise ParameterError(
                f"latency_s must be >= 0: {latency_s!r}")
        self.seed = int(seed)
        self.schedule = {seam: frozenset(int(v) for v in values)
                         for seam, values in schedule.items()}
        self.latency_s = float(latency_s)
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        #: Chronological ``(seam, occurrence_or_key)`` firing log.
        self.fired: List[Tuple[str, int]] = []
        #: Set once a ``service.hold`` firing has parked its thread.
        self.parked = threading.Event()
        self._released = threading.Event()

    @classmethod
    def random(cls, seed: int, rates: Mapping[str, float],
               horizon: int = 64, latency_s: float = 0.0) -> "FaultPlan":
        """Derive a schedule from ``seed``: each of the first
        ``horizon`` occurrences of a seam fails with its rate.

        Deterministic — the same ``(seed, rates, horizon)`` always
        builds the same plan, so a failing chaos run is replayable
        from its parameters alone.
        """
        import random as _random

        rng = _random.Random(seed)
        schedule: Dict[str, List[int]] = {}
        for seam in sorted(rates):
            rate = rates[seam]
            if not 0.0 <= rate <= 1.0:
                raise ParameterError(
                    f"fault rate for {seam!r} must be in [0, 1]: "
                    f"{rate!r}")
            picks = [i for i in range(1, horizon + 1)
                     if rng.random() < rate]
            if picks:
                schedule[seam] = picks
        return cls(seed=seed, schedule=schedule, latency_s=latency_s)

    def describe(self) -> Dict:
        """JSON-able plan document (the FaultPlan schema): ``seed``,
        ``latency_s`` and the per-seam sorted occurrence lists."""
        return {
            "seed": self.seed,
            "latency_s": self.latency_s,
            "schedule": {seam: sorted(values)
                         for seam, values in self.schedule.items()},
        }

    def release(self) -> None:
        """Open the ``service.hold`` latch: parked checks continue and
        later firings no longer park."""
        self._released.set()

    def should_fire(self, seam: str, key: Optional[int] = None) -> bool:
        """Decide (and record) whether this occurrence of ``seam``
        fails.  Unkeyed seams count calls; keyed seams match ``key``
        against the schedule.  Thread-safe."""
        targets = self.schedule.get(seam)
        with self._lock:
            if key is None:
                count = self._counts.get(seam, 0) + 1
                self._counts[seam] = count
            else:
                count = key
            if targets is None or count not in targets:
                return False
            self.fired.append((seam, count))
            return True


def activate(plan: FaultPlan) -> "_Activation":
    """Context manager installing ``plan`` as the process-global
    active plan (nested activations restore the previous plan)."""
    return _Activation(plan)


@contextmanager
def _activation_impl(plan: FaultPlan) -> Iterator[FaultPlan]:
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous
        plan.release()  # never leave a thread parked on a dead plan


class _Activation:
    """Context manager returned by :func:`activate`."""

    def __init__(self, plan: FaultPlan) -> None:
        self._cm = _activation_impl(plan)

    def __enter__(self) -> FaultPlan:
        return self._cm.__enter__()

    def __exit__(self, *exc_info) -> None:
        self._cm.__exit__(*exc_info)


def active_plan() -> Optional[FaultPlan]:
    """The currently active plan, or ``None``."""
    return _ACTIVE


def add_listener(listener: Callable[[str, Optional[int]], None]) -> None:
    """Register a callback observing every firing (``seam, key``)."""
    _LISTENERS.append(listener)


def remove_listener(listener: Callable[[str, Optional[int]], None]
                    ) -> None:
    """Unregister a listener previously added (no-op when absent)."""
    try:
        _LISTENERS.remove(listener)
    except ValueError:
        pass


def fire(seam: str, key: Optional[int] = None) -> bool:
    """``True`` when the active plan says this occurrence of ``seam``
    fails.  The call site then raises (or performs) the seam's
    realistic failure.  A single ``None`` check when no plan is
    active, so production paths pay nothing."""
    plan = _ACTIVE
    if plan is None:
        return False
    if not plan.should_fire(seam, key):
        return False
    for listener in list(_LISTENERS):
        try:
            listener(seam, key)
        except Exception:  # pragma: no cover - accounting never breaks
            pass            # the injection itself
    return True


def mangle_bytes(seam: str, data: bytes) -> bytes:
    """Return ``data`` truncated to half length when ``seam`` fires —
    the shape a crash mid-write leaves behind — else unchanged."""
    if fire(seam):
        return data[:max(1, len(data) // 2)]
    return data


def sleep_seam(seam: str) -> None:
    """Sleep the plan's ``latency_s`` when ``seam`` fires (a slow lane
    that must never change results)."""
    plan = _ACTIVE
    if plan is not None and plan.latency_s > 0 and fire(seam):
        time.sleep(plan.latency_s)


def hold_seam(seam: str) -> None:
    """Park the calling thread when ``seam`` fires, until the plan's
    latch is released (a job held running for as long as a test
    needs; a single ``None`` check when no plan is active)."""
    plan = _ACTIVE
    if plan is not None and fire(seam):
        plan.parked.set()
        plan._released.wait()
