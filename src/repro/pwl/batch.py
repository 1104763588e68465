"""Vectorized closed-form root finding and the stacked VSC solve.

* :func:`real_roots_batch` — the batch twin of
  :func:`repro.pwl.polynomials.real_roots`: same degree-reduction
  tolerance, same Cardano / Viete branches, per-lane coefficients.  It
  runs no Newton polish: closed-form roots of the well-conditioned
  solver equations are accurate to a few ulp, and the caller
  residual-validates every lane (with a scalar fallback), so a polish
  would only re-round healthy lanes.  Roots come back as ``[N, 3]``
  NaN-padded and unsorted; selection by window membership and residual
  is order-free.  Callers suppress floating-point warnings — inactive
  lanes evaluate to NaN/inf before masking.
* :class:`StackedCurves` / :class:`StackedVscSolver` — per-lane charge
  curves and the self-consistent-voltage solve over them, the one
  batched solve every caller shares (its loops live in the kernel
  tiers, :mod:`repro.pwl.kernels`).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.pwl.kernels import DEGREE_TOL

_EPS = 2.220446049250313e-16

#: Viete phase offsets ``2 pi k / 3`` computed exactly as the scalar path
_PHI1 = 2.0 * math.pi * 1 / 3.0
_PHI2 = 2.0 * math.pi * 2 / 3.0


def _cardano(half_q, disc, a_third, roots, idx) -> None:
    """One real root of the lanes ``idx``:
    ``cbrt(-q/2 + sqrt(D)) + cbrt(-q/2 - sqrt(D))``."""
    half_q, disc, a_third = half_q[idx], disc[idx], a_third[idx]
    sqrt_disc = np.sqrt(disc)
    roots[idx, 0] = np.cbrt(-half_q + sqrt_disc) \
        + np.cbrt(-half_q - sqrt_disc) - a_third


def _viete(q, m, pm, a_third, roots, idx) -> None:
    """Three real roots of the lanes ``idx`` (trigonometric method;
    ``p < 0`` here)."""
    q, m, pm, a_third = q[idx], m[idx], pm[idx], a_third[idx]
    arg = (3.0 * q) / pm
    arg = np.minimum(1.0, np.maximum(-1.0, arg))
    theta = np.arccos(arg) / 3.0
    roots[idx, 0] = m * np.cos(theta) - a_third
    roots[idx, 1] = m * np.cos(theta - _PHI1) - a_third
    roots[idx, 2] = m * np.cos(theta - _PHI2) - a_third


def polyval4(c0, c1, c2, c3, x):
    """Horner evaluation, identical association order to the scalar
    ``polyval`` run on zero-padded length-4 coefficients."""
    return ((c3 * x + c2) * x + c1) * x + c0


def real_roots_batch(c0: np.ndarray, c1: np.ndarray, c2: np.ndarray,
                     c3: np.ndarray) -> np.ndarray:
    """Real roots per lane; ``[N, 3]`` NaN-padded, unsorted.

    Degree reduction matches the scalar ``real_roots``: a leading
    coefficient below ``DEGREE_TOL`` relative to the largest magnitude
    in its lane is treated as zero.
    """
    n = c0.shape[0]
    roots = np.full((n, 3), np.nan)
    if n == 0:
        return roots
    scale = np.maximum(np.maximum(np.abs(c0), np.abs(c1)),
                       np.maximum(np.abs(c2), np.abs(c3)))
    tol = DEGREE_TOL * scale
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
    """Vectorized self-consistent-voltage solve across lanes with
    *per-lane* devices — the one batched closed-form solve.

    A lane-batched transient needs one bias point each for many
    different devices, every Newton iteration; a device sweep
    (:meth:`ClosedFormSolver.solve_many`) is the transpose, many bias
    points of one device on a one-lane solver.  Neither builds the
    scalar path's merged (VDS, interval) tables (~2/3 of a scalar solve
    whenever VDS moves).  Each lane instead solves the cubic
    ``V + Qt/CSum - (QS(V) + QS(V+VDS))/CSum = 0`` of one (source,
    drain) region pair, taken in this order until one validates:

    1. the *hinted* pair: the source region of the caller's hint and the
       drain region of ``hint + VDS`` — a gather, not a scan.  Newton
       iterates and successive time steps move VSC by far less than a
       region width, and a sweep's Laplace hint (the root without
       mobile charge) lands within a few regions of it;
    2. the *located* pair: the sign count of the residual ``g`` at the
       source breakpoints and the VDS-shifted drain breakpoints (``g``
       is strictly increasing, so the points where it is negative are
       those left of the root) brackets the root, and the bracket's
       midpoint picks the pair — the interval scan of the scalar
       :meth:`~repro.pwl.selfconsistent.ClosedFormSolver.solve`;
    3. the scalar ``solve`` itself, the exact reference (poisoned
       tables, or residuals below the rounding floor of biases far
       outside the circuit's rails).

    A root inside the intersection of both regions' windows with a
    closed-form residual below ``RESIDUAL_TOL`` *proves* the pair was
    right (the residual equals the true piecewise residual inside the
    window, and ``g`` is strictly increasing), so the root is the unique
    solution.  The loops live in the kernel tiers (``vsc_solve``).

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
