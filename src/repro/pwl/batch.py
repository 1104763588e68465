"""Vectorized closed-form root finding (the batch twin of
:mod:`repro.pwl.polynomials`).

Two layers:

* :func:`real_roots_batch` — the generic mirror of ``real_roots``: same
  degree-reduction tolerances, same Cardano / Viete branches, arbitrary
  per-lane coefficients.
* the **folded** pipeline (:func:`fold_row` + :func:`solve_folded`) —
  the measured hot path.  The self-consistent solver's per-lane equation
  ``V + qt - poly(V) = 0`` shares ``(c1, c2, c3)`` across every lane of
  one (VDS, interval) bucket; only ``c0`` carries the bias point.  All
  bias-independent algebra (monic normalization, depressed-cubic
  constants, Viete scale factors, degree classification) is folded into
  a per-bucket constant row at table-build time, so one batched solve
  costs a gather plus ~15 array operations instead of re-deriving the
  closed form per lane.

Neither layer runs the scalar path's Newton polish: closed-form roots
of the well-conditioned solver equations are accurate to a few ulp, and
the caller residual-validates every lane (with a scalar fallback), so a
polish would only re-round healthy lanes.

Callers wrap calls in ``np.errstate`` suppression — inactive lanes
intentionally evaluate to NaN/inf before masking.  Roots come back as
``[N, 3]`` NaN-padded and unsorted; selection by window membership and
residual is order-free.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.pwl.polynomials import _DEGREE_TOL

_EPS = 2.220446049250313e-16

#: Viete phase offsets ``2 pi k / 3`` computed exactly as the scalar path
_PHI1 = 2.0 * math.pi * 1 / 3.0
_PHI2 = 2.0 * math.pi * 2 / 3.0

# ----------------------------------------------------------------------
# Folded constant rows
# ----------------------------------------------------------------------

#: column layout of a folded row (see :func:`fold_row`)
CLS, M0, C1, C2, C3, LO, HI, INV_C3, A_THIRD, Q_CONST, TP3, M_VIETE, PM, \
    C1SQ, K4, TWO_C2, NCOLS = range(17)


class FoldedTables:
    """Column-major view of folded rows: one contiguous 1-D array per
    constant, so the hot path gathers only the columns a lane class
    needs (2-D row gathers plus strided column views measurably lose to
    1-D takes at sweep sizes)."""

    __slots__ = ("cls", "m0", "c1", "c2", "c3", "lo", "hi", "inv_c3",
                 "a_third", "q_const", "tp3", "m_viete", "pm", "c1sq",
                 "k4", "two_c2", "width")

    def __init__(self, rows: np.ndarray) -> None:
        cols = [np.ascontiguousarray(rows[:, k]) for k in range(NCOLS)]
        self.cls = cols[CLS].astype(np.int8)
        (self.m0, self.c1, self.c2, self.c3, self.lo, self.hi,
         self.inv_c3, self.a_third, self.q_const, self.tp3, self.m_viete,
         self.pm, self.c1sq, self.k4, self.two_c2) = cols[M0:TWO_C2 + 1]
        #: candidate-root columns any lane of these tables can produce
        self.width = 3 if (self.cls == 3).any() else 2


def fold_row(poly, lo: float, hi: float):
    """Constant row for one (VDS, interval) bucket.

    ``poly`` holds ascending coefficients of the bucket's charge
    polynomial ``p``; the solved equation is ``qt + V - p(V) = 0`` i.e.
    ``c0 = qt - p0``, ``c1 = 1 - p1``, ``c2 = -p2``, ``c3 = -p3``.  All
    scalar arithmetic below mirrors ``polynomials.solve_cubic`` exactly
    so folded results match the scalar solver bit-for-bit wherever libm
    agrees.

    The degree class stored in ``CLS`` is computed with ``scale =
    max(|c1|, |c2|, |c3|)`` — without the bias-dependent ``|c0|`` the
    scalar ``real_roots`` also folds in.  A lane whose ``|c0|`` is so
    large that it would flip the scalar classification produces a root
    that fails the caller's residual validation and is re-solved
    scalar-side, so the difference cannot leak into results.
    """
    p0 = float(poly[0]) if len(poly) > 0 else 0.0
    p1 = float(poly[1]) if len(poly) > 1 else 0.0
    p2 = float(poly[2]) if len(poly) > 2 else 0.0
    p3 = float(poly[3]) if len(poly) > 3 else 0.0
    c1 = 1.0 + (-p1)
    c2 = -p2
    c3 = -p3
    scale = max(abs(c1), abs(c2), abs(c3))
    row = [0.0] * NCOLS
    row[M0] = -p0
    row[C1], row[C2], row[C3] = c1, c2, c3
    row[LO], row[HI] = lo, hi
    if scale == 0.0:
        return row  # constant equation: lanes go to the scalar fallback
    tol = _DEGREE_TOL * scale
    if abs(c3) < tol:
        c3 = 0.0
    if c3 == 0.0 and abs(c2) < tol:
        c2 = 0.0
    if c3 == 0.0 and c2 == 0.0 and abs(c1) < tol:
        c1 = 0.0
    if c3 != 0.0:
        row[CLS] = 3.0
        a = c2 / c3
        b = c1 / c3
        a_third = a / 3.0
        p = b - a * a_third
        third_p = p / 3.0
        row[INV_C3] = 1.0 / c3
        row[A_THIRD] = a_third
        row[Q_CONST] = 2.0 * a * a * a / 27.0 - a * b / 3.0
        row[TP3] = third_p * third_p * third_p
        if third_p < 0.0:
            m = 2.0 * math.sqrt(-third_p)
            row[M_VIETE] = m
            row[PM] = p * m
        else:
            # p >= 0 forces disc > 0 (lone Cardano root); the Viete
            # constants are never read.
            row[M_VIETE] = math.nan
            row[PM] = math.nan
    elif c2 != 0.0:
        row[CLS] = 2.0
        row[C1SQ] = c1 * c1
        row[K4] = 4.0 * c2
        row[TWO_C2] = 2.0 * c2
    elif c1 != 0.0:
        row[CLS] = 1.0
    return row


def solve_folded(t: FoldedTables, rowidx: np.ndarray, eq0: np.ndarray,
                 cls: np.ndarray, roots: np.ndarray) -> None:
    """Roots of ``qt + V - p(V) = 0`` into ``roots`` (``[N, width]``,
    NaN-prefilled), for lanes addressing folded rows ``rowidx``.

    ``cls`` is the pre-gathered class column.  Lanes this pipeline
    cannot serve (true double roots, classification edge cases) keep
    their NaN padding and are re-solved scalar-side by the caller's
    residual validation.
    """
    n = eq0.shape[0]
    counts = np.bincount(cls, minlength=4)

    if counts[3]:
        if counts[3] == n:
            lane, sidx, e0 = None, rowidx, eq0
        else:
            lane = np.flatnonzero(cls == 3)
            sidx = rowidx[lane]
            e0 = eq0[lane]
        c = e0 * t.inv_c3[sidx]
        q = t.q_const[sidx] + c
        half_q = 0.5 * q
        disc = half_q * half_q + t.tp3[sidx]
        a_third = t.a_third[sidx]
        pos = disc > 0.0
        n_pos = np.count_nonzero(pos)
        # disc == 0.0 exactly (a true double root) is left NaN for the
        # scalar fallback; unlike the scalar path no noise floor is
        # applied — near-degenerate lanes either agree to a few ulp or
        # fail residual validation and fall back.
        out = roots if lane is None else np.full((lane.size, 3), np.nan)
        if n_pos == e0.shape[0]:
            _cardano(half_q, disc, a_third, out, None)
        else:
            neg = disc < 0.0
            if np.count_nonzero(neg) == e0.shape[0]:
                _viete(q, t.m_viete[sidx], t.pm[sidx], a_third, out, None)
            else:
                if n_pos:
                    _cardano(half_q, disc, a_third, out,
                             np.flatnonzero(pos))
                if neg.any():
                    _viete(q, t.m_viete[sidx], t.pm[sidx], a_third, out,
                           np.flatnonzero(neg))
        if lane is not None:
            roots[lane] = out

    if not (counts[2] or counts[1]):
        return
    if counts[3] == 0:
        # No cubic lanes: evaluate the quadratic closed form unmasked
        # and overlay the linear formula — one pass beats two
        # extractions when the classes interleave (model1 sweeps).
        c1 = t.c1[rowidx]
        quad = cls == 2
        disc = t.c1sq[rowidx] - t.k4[rowidx] * eq0
        sqrt_disc = np.sqrt(disc)       # NaN for disc < 0: no real roots
        q = -0.5 * (c1 + np.copysign(sqrt_disc, c1))
        r0 = np.where(quad, q / t.c2[rowidx], -eq0 / c1)
        nz = q != 0.0
        r1 = np.where(quad & nz, eq0 / np.where(nz, q, 1.0),
                      np.where(quad, 0.0, np.nan))
        double = disc == 0.0
        if double.any():
            r0 = np.where(double & quad, -c1 / t.two_c2[rowidx], r0)
            r1 = np.where(double & quad, np.nan, r1)
        roots[:, 0] = r0
        roots[:, 1] = r1
        return

    if counts[2]:
        lane = np.flatnonzero(cls == 2)
        sidx = rowidx[lane]
        e0 = eq0[lane]
        c1 = t.c1[sidx]
        disc = t.c1sq[sidx] - t.k4[sidx] * e0
        sqrt_disc = np.sqrt(disc)       # NaN for disc < 0: no real roots
        q = -0.5 * (c1 + np.copysign(sqrt_disc, c1))
        r0 = q / t.c2[sidx]
        nz = q != 0.0
        r1 = np.where(nz, e0 / np.where(nz, q, 1.0), 0.0)
        double = disc == 0.0
        if double.any():
            r0 = np.where(double, -c1 / t.two_c2[sidx], r0)
            r1 = np.where(double, np.nan, r1)
        roots[lane, 0] = r0
        roots[lane, 1] = r1

    if counts[1]:
        lane = np.flatnonzero(cls == 1)
        roots[lane, 0] = -eq0[lane] / t.c1[rowidx[lane]]


def _cardano(half_q, disc, a_third, roots, idx) -> None:
    """One real root: ``cbrt(-q/2 + sqrt(D)) + cbrt(-q/2 - sqrt(D))``."""
    if idx is not None:
        half_q, disc, a_third = half_q[idx], disc[idx], a_third[idx]
    sqrt_disc = np.sqrt(disc)
    value = np.cbrt(-half_q + sqrt_disc) + np.cbrt(-half_q - sqrt_disc) \
        - a_third
    if idx is None:
        roots[:, 0] = value
    else:
        roots[idx, 0] = value


def _viete(q, m, pm, a_third, roots, idx) -> None:
    """Three real roots (trigonometric method; ``p < 0`` here)."""
    if idx is not None:
        q, m, pm, a_third = q[idx], m[idx], pm[idx], a_third[idx]
    arg = (3.0 * q) / pm
    arg = np.minimum(1.0, np.maximum(-1.0, arg))
    theta = np.arccos(arg) / 3.0
    r0 = m * np.cos(theta) - a_third
    r1 = m * np.cos(theta - _PHI1) - a_third
    r2 = m * np.cos(theta - _PHI2) - a_third
    if idx is None:
        roots[:, 0] = r0
        roots[:, 1] = r1
        roots[:, 2] = r2
    else:
        roots[idx, 0] = r0
        roots[idx, 1] = r1
        roots[idx, 2] = r2


# ----------------------------------------------------------------------
# Generic per-lane mirror (fallback when coefficients vary per lane or
# the folded classification bound is exceeded)
# ----------------------------------------------------------------------

def polyval4(c0, c1, c2, c3, x):
    """Horner evaluation, identical association order to the scalar
    ``polyval`` run on zero-padded length-4 coefficients."""
    return ((c3 * x + c2) * x + c1) * x + c0


def real_roots_batch(c0: np.ndarray, c1: np.ndarray, c2: np.ndarray,
                     c3: np.ndarray) -> np.ndarray:
    """Real roots per lane; ``[N, 3]`` NaN-padded, unsorted.

    Degree reduction matches the scalar ``real_roots``: a leading
    coefficient below ``_DEGREE_TOL`` relative to the largest magnitude
    in its lane is treated as zero.
    """
    n = c0.shape[0]
    roots = np.full((n, 3), np.nan)
    if n == 0:
        return roots
    scale = np.maximum(np.maximum(np.abs(c0), np.abs(c1)),
                       np.maximum(np.abs(c2), np.abs(c3)))
    tol = _DEGREE_TOL * scale
    cubic = np.abs(c3) >= tol
    quad = ~cubic & (np.abs(c2) >= tol)
    lin = ~(cubic | quad) & (np.abs(c1) >= tol)

    if cubic.any():
        idx = np.flatnonzero(cubic)
        sub = np.full((idx.size, 3), np.nan)
        _cubic_generic(c0[idx], c1[idx], c2[idx], c3[idx], sub)
        roots[idx] = sub
    if quad.any():
        idx = np.flatnonzero(quad)
        q0, q1, q2 = c0[idx], c1[idx], c2[idx]
        disc = q1 * q1 - 4.0 * q2 * q0
        sqrt_disc = np.sqrt(disc)
        q = -0.5 * (q1 + np.copysign(sqrt_disc, q1))
        r0 = q / q2
        nz = q != 0.0
        r1 = np.where(nz, q0 / np.where(nz, q, 1.0), 0.0)
        double = disc == 0.0
        if double.any():
            r0 = np.where(double, -q1 / (2.0 * q2), r0)
            r1 = np.where(double, np.nan, r1)
        roots[idx, 0] = r0
        roots[idx, 1] = r1
    if lin.any():
        idx = np.flatnonzero(lin)
        roots[idx, 0] = -c0[idx] / c1[idx]
    return roots


# ----------------------------------------------------------------------
# Stacked per-lane device tables (the circuit-lane batching layer)
# ----------------------------------------------------------------------

#: residual [V] beyond which a stacked root falls back to the scalar
#: solver (same bound as ``ClosedFormSolver``: g' >= 1 bounds the root
#: error by the residual).
_STACK_RESIDUAL_TOL = 1e-12
#: acceptance slack (volts) for a root at a region edge (scalar twin).
_STACK_EDGE_TOL = 1e-9
#: VDS quantization grid shared with ``ClosedFormSolver``.
_STACK_VDS_QUANTUM = 1e-12
_STACK_VDS_SCALE = 1.0 / _STACK_VDS_QUANTUM


class StackedCurves:
    """Piecewise-cubic curve bank: one curve *per lane*, evaluated for
    all lanes in one numpy pass.

    The lane-batched circuit engine simulates many circuit instances at
    once; in a Monte-Carlo batch every lane carries its own fitted
    charge curve, so the single-device vectorization of
    :meth:`~repro.pwl.regions.PiecewiseCharge.value` (one curve, many
    points) does not apply.  This bank stacks the per-lane breakpoints
    (padded with ``+inf``) and ascending coefficients (zero-padded to
    cubic) into rectangular arrays so region lookup is one comparison
    matrix and evaluation one gathered Horner pass, whatever mix of
    devices the lanes hold.
    """

    __slots__ = ("bps", "coeffs", "dcoeffs", "n_lanes", "_lanes")

    def __init__(self, curves) -> None:
        n_lanes = len(curves)
        n_bps = max(len(c.breakpoints) for c in curves)
        self.n_lanes = n_lanes
        #: (L, K) breakpoints, padded with +inf (pad regions unused)
        self.bps = np.full((n_lanes, n_bps), np.inf)
        #: (L, K + 1, 4) ascending region coefficients, zero-padded
        self.coeffs = np.zeros((n_lanes, n_bps + 1, 4))
        #: (L, K + 1, 3) ascending derivative coefficients
        self.dcoeffs = np.zeros((n_lanes, n_bps + 1, 3))
        for lane, curve in enumerate(curves):
            k = len(curve.breakpoints)
            self.bps[lane, :k] = curve.breakpoints
            # Pad regions replicate the last real region so an +inf
            # padded breakpoint can never route a lane to zeros.
            for region in range(n_bps + 1):
                coeffs = curve.coefficients[min(region, k)]
                for j, c in enumerate(coeffs):
                    self.coeffs[lane, region, j] = c
                    if j:
                        self.dcoeffs[lane, region, j - 1] = j * c
        self._lanes = np.arange(n_lanes)

    def value(self, v: np.ndarray,
              idx: Optional[np.ndarray] = None) -> np.ndarray:
        """``Q(v)`` per lane; ``idx`` selects a lane subset (``v`` then
        carries one entry per selected lane)."""
        rows = self._lanes if idx is None else idx
        region = (self.bps[rows] < v[:, None]).sum(axis=1)
        c = self.coeffs[rows, region]
        return ((c[:, 3] * v + c[:, 2]) * v + c[:, 1]) * v + c[:, 0]

    def derivative(self, v: np.ndarray,
                   idx: Optional[np.ndarray] = None) -> np.ndarray:
        """``dQ/dv`` per lane; ``idx`` selects a lane subset."""
        rows = self._lanes if idx is None else idx
        region = (self.bps[rows] < v[:, None]).sum(axis=1)
        c = self.dcoeffs[rows, region]
        return (c[:, 2] * v + c[:, 1]) * v + c[:, 0]


class StackedVscSolver:
    """Hint-warmed vectorized self-consistent-voltage solve across
    lanes with *per-lane* devices.

    :meth:`ClosedFormSolver.solve_many` batches many bias points of one
    device; a lane-batched transient needs the transpose — one bias
    point each for many different devices, every Newton iteration.
    Rebuilding each device's merged (VDS, interval) tables per iterate
    is what makes the scalar path expensive (~2/3 of a scalar solve is
    table construction whenever VDS moves), so this solver skips the
    table entirely:

    1. each lane remembers the VSC it solved last time (the *hint*;
       Newton iterates and successive time steps move VSC by far less
       than a region width, so the hinted region pair is almost always
       still correct);
    2. the source region of the hint and the drain region of
       ``hint + VDS`` select one source polynomial and one (Taylor-
       shifted) drain polynomial per lane — a gather, not a scan;
    3. the combined cubic ``V + Qt/CSum - (QS(V) + QS(V+VDS))/CSum``
       is solved for all lanes by :func:`real_roots_batch`;
    4. a root inside the intersection of both regions' windows with a
       closed-form residual below ``1e-12`` V *proves* the region pair
       was right (the residual equals the true piecewise residual
       inside the window, and g is strictly increasing), so the root is
       the unique solution;
    5. lanes that fail get one refinement pass re-deriving the regions
       from the best candidate root, then fall back to the scalar
       solver (region drift across a breakpoint; rare and exact).

    The hint arrays are owned by the caller (one per CNFET element
    slot), so one solver instance serves any number of slots.
    """

    def __init__(self, solvers) -> None:
        self.solvers = list(solvers)
        n_lanes = len(self.solvers)
        n_bps = max(len(s._qs_bps) for s in self.solvers)
        self.n_lanes = n_lanes
        #: (L, K) source-curve breakpoints, padded with +inf
        self.bps = np.full((n_lanes, n_bps), np.inf)
        #: (L, K + 1) left edge of each region (-inf, b_0, ..., b_k)
        self.lo_edges = np.full((n_lanes, n_bps + 1), np.inf)
        self.lo_edges[:, 0] = -np.inf
        #: (L, K + 1, 4) scaled region coefficients (QS / CSum)
        self.polys = np.zeros((n_lanes, n_bps + 1, 4))
        self.csum = np.array([s._csum for s in self.solvers])
        caps = [s.capacitances for s in self.solvers]
        self.cg = np.array([c.cg for c in caps])
        self.cd = np.array([c.cd for c in caps])
        self.cs = np.array([c.cs for c in caps])
        for lane, s in enumerate(self.solvers):
            k = len(s._qs_bps)
            self.bps[lane, :k] = s._qs_bps
            self.lo_edges[lane, 1:k + 1] = s._qs_bps
            self.lo_edges[lane, k + 1:] = np.inf
            for region in range(n_bps + 1):
                poly = s._qs_polys[min(region, k)]
                for j, c in enumerate(poly):
                    self.polys[lane, region, j] = c
        #: right edge per region: b_i, or +inf past the last breakpoint
        self.hi_edges = np.concatenate(
            [self.bps, np.full((n_lanes, 1), np.inf)], axis=1)
        self._lanes = np.arange(n_lanes)

    def solve(self, vgs: np.ndarray, vds: np.ndarray, hint: np.ndarray,
              idx: Optional[np.ndarray] = None, stats=None,
              table: Optional[np.ndarray] = None) -> np.ndarray:
        """VSC per lane (source-referenced, n-frame biases).

        ``idx`` selects a lane subset (``vgs``/``vds`` then carry one
        entry per selected lane).  ``hint`` is the full per-lane hint
        array, updated in place at the solved entries.  ``table``
        (optional) maps many hint entries onto few solver lanes — a
        bank of devices sharing tables: ``hint`` and ``idx`` then count
        table entries, and entry ``i`` solves on lane ``table[i]``.
        ``stats`` (optional dict) accumulates ``"stacked_lanes"`` and
        ``"stacked_fallbacks"`` counters.
        """
        from repro.pwl.kernels import active_kernel_backend
        if table is None:
            pos = rows = self._lanes if idx is None else idx
        else:
            pos = np.arange(table.size) if idx is None else idx
            rows = table[pos]
        n = len(rows)
        out = np.empty(n)
        # The vectorized (or compiled) region solve lives in the kernel
        # tier; it fills ``out`` and reports the selection positions
        # that still need the exact scalar fallback.
        bad = active_kernel_backend().vsc_solve(
            self, rows, vgs, vds, hint[pos], out)
        for k in bad:
            out[k] = self.solvers[int(rows[k])].solve(
                float(vgs[k]), float(vds[k]), 0.0)
        if stats is not None:
            stats["stacked_lanes"] = stats.get("stacked_lanes", 0) + n
            stats["stacked_fallbacks"] = \
                stats.get("stacked_fallbacks", 0) + bad.size
        hint[pos] = out
        return out


def _cubic_generic(c0, c1, c2, c3, roots) -> None:
    """Twin of ``solve_cubic`` (minus the polish), per-lane coefficients,
    including the scalar path's discriminant noise floor."""
    a = c2 / c3
    b = c1 / c3
    c = c0 / c3
    a_third = a / 3.0
    p = b - a * a_third
    q = 2.0 * a * a * a / 27.0 - a * b / 3.0 + c
    half_q = 0.5 * q
    third_p = p / 3.0
    disc = half_q * half_q + third_p * third_p * third_p
    abs_a = np.abs(a)
    mag_q = abs_a * abs_a * abs_a / 27.0 + np.abs(a * b) / 3.0 + np.abs(c)
    mag_p = np.abs(b) + a * a / 3.0
    disc_noise = 8.0 * _EPS * (
        np.abs(half_q) * mag_q + third_p * third_p * 3.0 * mag_p
    )
    snap = np.abs(disc) < disc_noise
    if snap.any():
        disc = np.where(snap, 0.0, disc)
    m = 2.0 * np.sqrt(np.where(third_p < 0.0, -third_p, np.nan))
    pm = p * m
    pos = disc > 0.0
    neg = disc < 0.0
    if pos.any():
        _cardano(half_q, disc, a_third, roots, np.flatnonzero(pos))
    if neg.any():
        _viete(q, m, pm, a_third, roots, np.flatnonzero(neg))
    zero = ~(pos | neg)
    if zero.any():
        i = np.flatnonzero(zero)
        hq = half_q[i]
        u = np.cbrt(-hq)
        r1 = 2.0 * u - a_third[i]
        r2 = -u - a_third[i]
        triple = hq == 0.0
        roots[i, 0] = np.where(triple, -a_third[i], r1)
        roots[i, 1] = np.where(triple | (r1 == r2), np.nan, r2)
