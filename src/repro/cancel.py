"""Cooperative cancellation: deadline/cancel tokens for long solves.

A :class:`CancelToken` is threaded through the engine's long loops
(``newton_solve`` iterations, transient steps, DC sweep points,
campaign chunks).  Each loop calls :meth:`CancelToken.check` at its
natural boundary; when the token was cancelled — explicitly, or
because its deadline passed — the check raises
:class:`repro.errors.CancelledError` and the loop unwinds cleanly,
freeing the worker thread that ran it.  This is how the job service
enforces per-job ``deadline_s`` budgets and serves
``POST /jobs/<id>/cancel`` without killing threads.

Checks are cheap (one flag read plus, with a deadline, one
``time.monotonic()`` call), so per-Newton-iteration granularity is
fine; cancellation latency is bounded by the longest interval between
checks, not by the job length.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro import faults
from repro.errors import CancelledError, ParameterError

__all__ = ["CancelToken"]


class CancelToken:
    """A cancellation flag with an optional monotonic deadline.

    ``deadline_s`` is a budget in seconds from token creation; pass
    ``None`` for a token that only cancels explicitly.  Thread-safe:
    one thread runs the solve and checks, another cancels.
    """

    def __init__(self, deadline_s: Optional[float] = None) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ParameterError(
                f"deadline_s must be > 0 or None: {deadline_s!r}")
        self.deadline_s = deadline_s
        self._deadline = (time.monotonic() + deadline_s
                          if deadline_s is not None else None)
        self._cancelled = threading.Event()
        self._reason = "cancelled"

    def cancel(self, reason: str = "cancelled") -> None:
        """Cancel explicitly; every later :meth:`check` raises."""
        self._reason = reason
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        """True after an explicit :meth:`cancel` call."""
        return self._cancelled.is_set()

    @property
    def expired(self) -> bool:
        """True once the deadline (if any) has passed."""
        return (self._deadline is not None
                and time.monotonic() > self._deadline)

    def remaining(self) -> Optional[float]:
        """Seconds left before the deadline (``None`` = no deadline;
        never negative)."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.monotonic())

    def check(self) -> None:
        """Raise :class:`repro.errors.CancelledError` when cancelled
        or past the deadline; otherwise return immediately.  The
        ``service.hold`` fault seam can park the caller here first."""
        faults.hold_seam("service.hold")
        if self._cancelled.is_set():
            raise CancelledError(self._reason, kind="cancelled")
        if self.expired:
            raise CancelledError(
                f"deadline of {self.deadline_s:g}s exceeded",
                kind="timeout")
