"""Closed-form solution of the self-consistent-voltage equation (paper §V).

With the piecewise charge approximation, the residual

``g(VSC) = VSC + (Qt - QS(VSC) - QD(VSC)) / CSum``

is piecewise polynomial of degree <= 3 (``QD`` is the same curve shifted
by the drain bias).  The solver therefore:

1. merges the source breakpoints with the VDS-shifted drain breakpoints
   into at most ``2k`` axis points;
2. evaluates ``g`` at each breakpoint (cheap Horner evaluations) and
   locates the sign change — ``g`` is strictly increasing because each
   fitted charge is non-increasing, so there is exactly one;
3. solves that single interval's polynomial with the closed forms of
   :mod:`repro.pwl.polynomials` — **no Newton-Raphson iterations and no
   Fermi-Dirac integrals**, which is the entire point of the paper.

A Brent fallback guards pathological fitted curves (e.g. a user-supplied
fit that is locally increasing); it never triggers for the paper's
models but keeps the solver total.

The hot path is deliberately plain Python floats + tuples (no numpy):
one solve costs a handful of Horner evaluations and one cubic formula,
which is what produces the three-orders-of-magnitude speed-up measured
in the Table I benchmark.

:meth:`ClosedFormSolver.solve_many` batches bias points of one device
through the kernel tiers' stacked solve
(:class:`~repro.pwl.batch.StackedVscSolver`): the same interval scan,
per lane and compiled, with this scalar ``solve`` as its exact
fallback.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError, RootNotFoundError
from repro.physics.capacitance import TerminalCapacitances
from repro.pwl.batch import StackedVscSolver
from repro.pwl.kernels import EDGE_TOL, VDS_QUANTUM, VDS_SCALE
from repro.pwl.polynomials import polyval, real_roots, shift_polynomial
from repro.pwl.regions import PiecewiseCharge
from repro.reference.solver import brent

#: bias points per stacked pass of :meth:`ClosedFormSolver.solve_many`
#: (bounds the pass's temporaries to a few MB each)
_SOLVE_CHUNK = 1 << 18


def _quantize_vds(vds: float) -> float:
    """Snap a drain bias to the cache grid.  The kernel tiers shift the
    drain polynomial by the same quantized VDS, so the scalar fallback
    solves the equation the stacked lanes solve."""
    return math.floor(vds * VDS_SCALE + 0.5) * VDS_QUANTUM


class ClosedFormSolver:
    """Closed-form VSC solver for a fitted charge curve.

    Parameters
    ----------
    qs_curve:
        Fitted source-side charge ``QS(VSC)`` [C/m].
    capacitances:
        Terminal capacitance partition (provides ``CSum`` and ``Qt``).

    Notes
    -----
    Per distinct ``VDS`` the merged breakpoint table and summed
    polynomial coefficients are cached — a family sweep revisits each
    drain bias once per gate voltage, so caching removes ~half the
    arithmetic of a sweep.
    """

    def __init__(self, qs_curve: PiecewiseCharge,
                 capacitances: TerminalCapacitances) -> None:
        self.qs_curve = qs_curve
        self.capacitances = capacitances
        self._csum = capacitances.csum
        if self._csum <= 0.0:
            raise ParameterError("CSum must be positive")
        # Scaled source curve: QS / CSum, ascending tuples.
        self._qs_bps: Tuple[float, ...] = qs_curve.breakpoints
        self._qs_polys: Tuple[Tuple[float, ...], ...] = tuple(
            tuple(c / self._csum for c in coeffs)
            for coeffs in qs_curve.coefficients
        )
        self._vds_cache: Dict[float, Tuple[Tuple[float, ...],
                                           Tuple[Tuple[float, ...], ...]]] = {}
        #: one-lane stacked solver of :meth:`solve_many` (built on use)
        self._stacked = None

    # ------------------------------------------------------------------

    def _segments_for_vds(self, vds: float):
        """Merged breakpoints and per-interval polynomials of
        ``(QS(V) + QS(V + VDS)) / CSum`` (ascending coefficients).

        Keys are quantized to ``VDS_QUANTUM`` so float-noise variants of
        the same bias (transient Newton iterates, repeated sweep values)
        hit the same entry instead of growing the cache to its cap.
        """
        vds = _quantize_vds(vds)
        cached = self._vds_cache.get(vds)
        if cached is not None:
            return cached
        qs_bps = self._qs_bps
        qd_bps = tuple(b - vds for b in qs_bps)
        merged = sorted(set(qs_bps) | set(qd_bps))
        polys: List[Tuple[float, ...]] = []
        for i in range(len(merged) + 1):
            if i < len(merged):
                probe = merged[i] - 1e-12 if i == 0 else \
                    0.5 * (merged[i - 1] + merged[i])
                if i == 0:
                    probe = merged[0] - 1.0
            else:
                probe = merged[-1] + 1.0
            qs_poly = self._qs_polys[_region_of(qs_bps, probe)]
            qd_region = _region_of(qd_bps, probe)
            qd_poly_src = self._qs_polys[qd_region]
            # QD(V) = QS(V + vds): shift the source polynomial.
            qd_poly = tuple(shift_polynomial(qd_poly_src, vds))
            width = max(len(qs_poly), len(qd_poly))
            total = [0.0] * width
            for j, c in enumerate(qs_poly):
                total[j] += c
            for j, c in enumerate(qd_poly):
                total[j] += c
            polys.append(tuple(total))
        result = (tuple(merged), tuple(polys))
        if len(self._vds_cache) >= 4096:
            # FIFO eviction: long transients visit an unbounded stream of
            # biases; dropping the oldest entry keeps the cache useful
            # instead of freezing it at the first 4096 keys.
            self._vds_cache.pop(next(iter(self._vds_cache)))
        self._vds_cache[vds] = result
        return result

    # ------------------------------------------------------------------

    def residual(self, vsc: float, vg: float, vd: float,
                 vs: float = 0.0) -> float:
        """``g(VSC)`` in volts (residual scaled by 1/CSum)."""
        vds = vd - vs
        qt_scaled = self.capacitances.terminal_charge(vg, vd, vs) / self._csum
        merged, polys = self._segments_for_vds(vds)
        poly = polys[_region_of(merged, vsc)]
        return vsc + qt_scaled - polyval(poly, vsc)

    def solve(self, vg: float, vd: float, vs: float = 0.0) -> float:
        """Self-consistent voltage at a bias point — closed form.

        Raises
        ------
        RootNotFoundError
            Only if the fitted curve is so ill-behaved that no root is
            found even by the safeguarded fallback.
        """
        vds = vd - vs
        qt_scaled = self.capacitances.terminal_charge(vg, vd, vs) / self._csum
        merged, polys = self._segments_for_vds(vds)

        # Residual at each breakpoint; find the sign-change interval.
        # g(V) = V + qt_scaled - poly(V) per interval.
        n = len(merged)
        prev_g = None
        interval = None
        for i in range(n):
            b = merged[i]
            g_b = b + qt_scaled - polyval(polys[i], b)
            if g_b >= 0.0 and (prev_g is None or prev_g < 0.0):
                interval = i
                break
            prev_g = g_b
        if interval is None:
            # Root is right of the last breakpoint (zero-charge region),
            # where QS = QD = 0 and g is exactly linear.
            interval = n
        lo = merged[interval - 1] if interval > 0 else None
        hi = merged[interval] if interval < n else None

        poly = polys[interval]
        # Equation: V + qt_scaled - poly(V) = 0.
        eq = list(poly)
        while len(eq) < 2:
            eq.append(0.0)
        eq = [-c for c in eq]
        eq[0] += qt_scaled
        eq[1] += 1.0
        roots = real_roots(eq)
        best = None
        best_res = math.inf
        for r in roots:
            if lo is not None and r < lo - EDGE_TOL:
                continue
            if hi is not None and r > hi + EDGE_TOL:
                continue
            res = abs(self._residual_fast(r, qt_scaled, merged, polys))
            if res < best_res:
                best = r
                best_res = res
        if best is not None:
            return best
        return self._fallback(vg, vd, vs, merged)

    def solve_many(self, vg, vd, vs=0.0) -> np.ndarray:
        """Vectorized :meth:`solve` over arrays of bias points.

        Inputs broadcast against each other; the result carries the
        broadcast shape.  The points run as the lanes of a one-lane
        :class:`~repro.pwl.batch.StackedVscSolver`, in passes of at most
        ``_SOLVE_CHUNK``, hinted with the root without mobile charge
        (the Laplace solution ``-Qt/CSum``, within a few regions of the
        root); a lane the hinted region pair misses takes the located
        pair, and one neither validates is recomputed through
        :meth:`solve`, so batched and scalar solves cannot disagree
        beyond floating noise.
        """
        vg = np.asarray(vg, dtype=float)
        vd = np.asarray(vd, dtype=float)
        vs = np.asarray(vs, dtype=float)
        caps = self.capacitances
        shape = np.broadcast_shapes(vg.shape, vd.shape, vs.shape)
        # Qt = CG VGS' + CD VDS with the source term folded into the
        # gate bias (a no-op at VS = 0, the devices' only use)
        vgs = np.empty(shape)
        vgs[...] = vg + vs * ((caps.cd + caps.cs) / caps.cg)
        vds = np.empty(shape)
        vds[...] = vd - vs
        vgs, vds = vgs.ravel(), vds.ravel()
        if self._stacked is None:
            self._stacked = StackedVscSolver([self])
        out = np.empty(vgs.size)
        for lo in range(0, vgs.size, _SOLVE_CHUNK):
            g, d = vgs[lo:lo + _SOLVE_CHUNK], vds[lo:lo + _SOLVE_CHUNK]
            hint = -(caps.cg * g + caps.cd * d) / self._csum
            out[lo:lo + g.size] = self._stacked.solve(
                g, d, hint, table=np.zeros(g.size, dtype=np.int64))
        return out.reshape(shape)

    def _residual_fast(self, vsc: float, qt_scaled: float,
                       merged: Sequence[float], polys) -> float:
        poly = polys[_region_of(merged, vsc)]
        return vsc + qt_scaled - polyval(poly, vsc)

    def _fallback(self, vg: float, vd: float, vs: float,
                  merged: Sequence[float]) -> float:
        """Brent fallback on an expanded bracket (defensive path)."""
        span = 1.0 + (merged[-1] - merged[0] if merged else 0.0)
        lo = (merged[0] if merged else 0.0) - span
        hi = (merged[-1] if merged else 0.0) + span

        def g(v: float) -> float:
            return self.residual(v, vg, vd, vs)

        for _ in range(40):
            if g(lo) < 0.0 and g(hi) > 0.0:
                root, _iters = brent(g, lo, hi)
                return root
            lo -= span
            hi += span
            span *= 2.0
        raise RootNotFoundError(
            f"no self-consistent voltage found for VG={vg}, VD={vd}, "
            f"VS={vs} in [{lo}, {hi}]"
        )


def _region_of(breakpoints: Sequence[float], x: float) -> int:
    """First index whose breakpoint is >= x (right-closed regions),
    via branch-light linear scan — breakpoint lists are tiny (<= 6)."""
    i = 0
    for b in breakpoints:
        if x <= b:
            return i
        i += 1
    return i
