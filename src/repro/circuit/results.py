"""Analysis result containers and waveform measurements."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError, ParameterError


class Dataset:
    """Named traces over a common sweep axis.

    ``axis`` is time (transient) or the swept value (DC sweep); traces
    are keyed ``v(node)`` / ``i(element)`` by the analyses.

    A dataset is either *eager* (every trace a resident array, the
    historical mode) or *lazy*, built with :meth:`from_store` over a
    :class:`repro.circuit.store.WaveformStore`: the axis is read once,
    and each :meth:`trace` call materialises exactly one column from
    disk, chunk-wise, without caching — peak memory stays one column
    no matter how many traces the run produced.  Measurements
    (:meth:`crossings`, :meth:`first_crossing`, :meth:`summary`, ...)
    work identically in both modes because they operate on the same
    float64 values with the same numpy expressions.
    """

    def __init__(self, axis_name: str, axis: Sequence[float]) -> None:
        self.axis_name = axis_name
        self.axis = np.asarray(axis, dtype=float)
        self._traces: Dict[str, np.ndarray] = {}
        self._store = None
        self._lazy: Dict[str, str] = {}

    @classmethod
    def from_store(cls, store) -> "Dataset":
        """A lazy dataset over an (open or writable-closed) waveform
        store: traces materialise one column per access, uncached."""
        store.flush()
        axis = store.read_column(store.axis_name)
        ds = cls(store.axis_name, axis)
        ds._store = store
        ds._lazy = {name.lower(): name for name in store.exposed
                    if name != store.axis_name}
        return ds

    @property
    def is_lazy(self) -> bool:
        """``True`` when traces are backed by an on-disk store."""
        return self._store is not None

    def add_trace(self, name: str, values: Sequence[float]) -> None:
        """Attach a trace (same length as the axis)."""
        arr = np.asarray(values, dtype=float)
        if arr.shape != self.axis.shape:
            raise ParameterError(
                f"trace {name!r} length {arr.shape} != axis "
                f"{self.axis.shape}"
            )
        self._traces[name.lower()] = arr

    def trace(self, name: str) -> np.ndarray:
        """A trace by (case-insensitive) name.

        Lazy datasets read the column from the store on every call
        (deliberately uncached — callers that need a trace repeatedly
        should hold the returned array).
        """
        key = name.lower()
        try:
            return self._traces[key]
        except KeyError:
            pass
        if key in self._lazy:
            return self._store.read_column(self._lazy[key])
        raise AnalysisError(
            f"no trace {name!r}; available: {self.names}"
        ) from None

    def _trace_window(self, name: str, start: int, stop: int) -> np.ndarray:
        """Rows ``[start:stop]`` of one trace — a chunked store read in
        lazy mode, a plain slice otherwise."""
        key = name.lower()
        if key not in self._traces and key in self._lazy:
            return self._store.read_column(self._lazy[key], start, stop)
        return self.trace(name)[start:stop]

    def __contains__(self, name: str) -> bool:
        key = name.lower()
        return key in self._traces or key in self._lazy

    @property
    def names(self) -> List[str]:
        """Sorted trace names."""
        return sorted(set(self._traces) | set(self._lazy))

    def voltage(self, node: str) -> np.ndarray:
        """Voltage trace ``v(node)`` [V]."""
        return self.trace(f"v({node})")

    def current(self, element: str) -> np.ndarray:
        """Current trace ``i(element)`` [A]."""
        return self.trace(f"i({element})")

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------

    def at(self, name: str, axis_value: float) -> float:
        """Linear interpolation of a trace at an axis value."""
        return float(np.interp(axis_value, self.axis, self.trace(name)))

    def crossings(self, name: str, level: float,
                  rising: Optional[bool] = None) -> List[float]:
        """Axis values where a trace crosses ``level`` (interpolated).

        ``rising=True`` keeps only upward crossings, ``False`` only
        downward, ``None`` both.
        """
        return self._segment_crossings(self.trace(name), self.axis,
                                       level, rising)

    @staticmethod
    def _segment_crossings(values: np.ndarray, x: np.ndarray,
                           level: float,
                           rising: Optional[bool]) -> List[float]:
        """Crossings of one contiguous trace segment: the one-row case
        of :func:`lane_crossings`."""
        _rows, t = lane_crossings(np.asarray(values, dtype=float)[None],
                                  x, level, rising)
        return [float(v) for v in t]

    def first_crossing(self, name: str, level: float,
                       rising: Optional[bool] = None,
                       after: Optional[float] = None,
                       before: Optional[float] = None) -> float:
        """First axis value where the trace crosses ``level`` inside
        ``[after, before)``; ``nan`` when there is none.

        The scan is windowed: only the axis rows whose segments can
        produce a crossing in the window are read, so lazy datasets
        touch a bounded slice of the column instead of the full trace.
        """
        x = self.axis
        lo = 0 if after is None \
            else max(0, int(np.searchsorted(x, after, side="left")) - 1)
        hi = x.shape[0] if before is None \
            else min(x.shape[0],
                     int(np.searchsorted(x, before, side="right")) + 1)
        if hi - lo < 2:
            return float("nan")
        values = self._trace_window(name, lo, hi)
        for t in self._segment_crossings(values, x[lo:hi], level, rising):
            if (after is None or t >= after) and \
                    (before is None or t < before):
                return t
        return float("nan")

    def window(self, name: str, lo: float,
               hi: float) -> Tuple[np.ndarray, np.ndarray]:
        """``(axis, values)`` covering ``[lo, hi]`` padded by one
        sample on each side (enough for boundary interpolation);
        a chunked store read in lazy mode."""
        x = self.axis
        start = max(0, int(np.searchsorted(x, lo, side="right")) - 1)
        stop = min(x.shape[0],
                   int(np.searchsorted(x, hi, side="left")) + 1)
        return x[start:stop], self._trace_window(name, start, stop)

    def summary(self, name: str,
                buckets: int = 64) -> Dict[str, np.ndarray]:
        """Decimated trace summary: per-bucket ``min``/``max``/``mean``
        over ``buckets`` contiguous, nearly equal row runs.

        Returns ``{"axis_lo", "axis_hi", "min", "max", "mean"}``
        arrays (one entry per non-empty bucket).  Lazy and eager
        datasets produce bit-identical summaries — the same numpy
        reductions run over the same row runs — so out-of-core runs
        can be validated against in-memory ones.
        """
        if buckets < 1:
            raise ParameterError(f"buckets must be >= 1: {buckets!r}")
        n = self.axis.shape[0]
        if n == 0:
            raise AnalysisError("cannot summarise an empty dataset")
        bounds = np.linspace(0, n, min(buckets, n) + 1).round().astype(int)
        out = {key: [] for key in ("axis_lo", "axis_hi",
                                   "min", "max", "mean")}
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi <= lo:
                continue
            values = self._trace_window(name, int(lo), int(hi))
            out["axis_lo"].append(self.axis[lo])
            out["axis_hi"].append(self.axis[hi - 1])
            out["min"].append(np.min(values))
            out["max"].append(np.max(values))
            out["mean"].append(np.mean(values))
        return {key: np.asarray(vals) for key, vals in out.items()}

    def period_estimate(self, name: str, level: float,
                        method: str = "mean") -> float:
        """Spacing of same-direction crossings (for oscillators).

        ``method="mean"`` (default) averages every rising-crossing
        spacing — the historical estimator.  ``method="median"`` is
        robust to spurious crossing pairs: a waveform grazing the
        level contributes one near-zero and one near-period spacing,
        which shift the mean by ~1/n but leave the median untouched.
        (The Monte-Carlo ring evaluator needs even stronger
        protection — it validates each cycle's excursion before
        taking the median itself; see
        :func:`repro.variability.circuits.ring_periods`.)

        Raises :class:`AnalysisError` with a clear message when fewer
        than two rising crossings exist.
        """
        if method not in ("mean", "median"):
            raise ParameterError(
                f"method must be 'mean' or 'median': {method!r}"
            )
        rising = self.crossings(name, level, rising=True)
        if len(rising) < 2:
            raise AnalysisError(
                f"trace {name!r} has {len(rising)} rising crossings of "
                f"{level}; cannot estimate a period"
            )
        diffs = np.diff(rising)
        if method == "median":
            return float(np.median(diffs))
        return float(np.mean(diffs))

    def swing(self, name: str) -> float:
        """Peak-to-peak excursion of a trace."""
        y = self.trace(name)
        return float(np.max(y) - np.min(y))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset({self.axis_name}, {len(self.axis)} points, "
            f"traces={self.names})"
        )


def lane_crossings(values: np.ndarray, x: np.ndarray, level: float,
                   rising: Optional[bool],
                   lengths: Optional[np.ndarray] = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Every crossing of ``level`` by the rows of ``values`` ``(B, T)``
    over the shared axis ``x`` ``(T,)``: ``(rows, at)``, row-major and
    in axis order within a row.

    The historical per-segment arithmetic, element for element: an
    exact-zero sample reports ``x[i]``, a sign change interpolates
    linearly.  ``rising=True`` keeps only upward crossings, ``False``
    only downward, ``None`` both.  ``lengths`` (one per row) ends row
    ``r`` after its first ``lengths[r]`` samples (a ragged row padded
    to ``T``); the padding is never read.
    """
    y = np.asarray(values, dtype=float) - level
    x = np.asarray(x, dtype=float)
    y0, y1 = y[:, :-1], y[:, 1:]
    exact = y0 == 0.0
    change = ~exact & (y0 * y1 < 0.0)
    hits = exact | change
    if rising is not None:
        hits &= np.where(exact, y1 > 0, y1 > y0) == rising
    if lengths is not None:
        hits &= np.arange(y0.shape[1]) < np.asarray(lengths)[:, None] - 1
    rows, idx = np.nonzero(hits)
    xa, xb = x[idx], x[idx + 1]
    ya, yb = y0[rows, idx], y1[rows, idx]
    at = np.where(
        exact[rows, idx], xa,
        xa - np.divide(ya * (xb - xa), yb - ya,
                       out=np.zeros(idx.size), where=yb != ya))
    return rows, at
