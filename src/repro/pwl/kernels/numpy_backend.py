"""Pure-numpy kernel tier — the parity reference.

The vectorized implementations of the ``StackedVscSolver.solve``
region solve, the fused ``CNFETBank`` stamp (companion / chord
evaluation scattered into the caller's buffers) and the sparse
assembler's value scatter.  The compiled tier
(:mod:`repro.pwl.kernels.cc_backend`) mirrors this arithmetic lane by
lane; see :doc:`/kernels` for the parity contract.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.pwl.batch import polyval4, real_roots_batch
from repro.pwl.kernels import (
    A_DQD,
    A_DQG,
    A_GDS,
    A_GM,
    A_IDS,
    A_Q,
    A_VDS,
    A_VGS,
    EDGE_TOL,
    N_ANCHOR,
    RESIDUAL_TOL,
    VDS_QUANTUM,
    VDS_SCALE,
)


class NumpyKernelBackend:
    """Reference kernel tier: vectorized numpy, no compilation."""

    name = "numpy"
    #: True for tiers whose kernels are compiled (cc)
    compiled = False

    # -- kernel 1: stacked VSC solve -----------------------------------

    def vsc_solve(self, solver, rows: np.ndarray, vgs: np.ndarray,
                  vds: np.ndarray, probe: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
        """The hinted region pair of every selected lane (solver lanes
        ``rows``, warm-start hints ``probe``), then the located pair of
        the lanes it leaves; fills ``out`` and returns the selection
        positions that still need the scalar fallback."""
        vds_q = np.floor(vds * VDS_SCALE + 0.5) * VDS_QUANTUM
        qt = (solver.cg[rows] * vgs + solver.cd[rows] * vds) \
            / solver.csum[rows]
        old_err = np.seterr(invalid="ignore", divide="ignore",
                            over="ignore")
        try:
            miss = np.flatnonzero(
                ~_pair_solve(solver, rows, qt, vds_q, probe, out))
            if miss.size:
                rows, qt, vds_q = rows[miss], qt[miss], vds_q[miss]
                located = np.empty(miss.size)
                ok = _pair_solve(solver, rows, qt, vds_q,
                                 _locate(solver, rows, qt, vds_q), located)
                out[miss[ok]] = located[ok]
                miss = miss[~ok]
        finally:
            np.seterr(**old_err)
        return miss

    # -- kernel 2: fused CNFET bank stamp ------------------------------

    def bank_stamp(self, bank, x: np.ndarray, idx: Optional[np.ndarray],
                   *, gmin: float = 0.0, tran: bool = False,
                   dt: Optional[float] = None, radius: float = 0.0,
                   bypass: float = 0.0, seed_qprev: bool = False,
                   target=None, charges_only: bool = False) -> None:
        """One per-iteration stamp of the bank devices ``idx`` (``None``:
        all of them) around iterate ``x``.

        Gathers the n-frame biases, takes the chord decision against the
        bank's per-device memo (``radius`` > 0), bypasses the devices
        whose bias lies within ``bypass`` (> 0, transient only) of their
        anchor — their current and charges move along the anchor's
        tangent, no solve — and solves VSC for the rest, refreshing
        their anchors while the bypass is on.  From those states it
        evaluates the companion (kind-row table of
        :class:`~repro.circuit.elements.cnfet.CNFETBank`) or, on a chord
        hit, the exact rhs around the memoised matrix values, seeds
        ``q_prev`` from the charges at ``x`` when ``seed_qprev``, and
        scatter-adds into ``target = (m_out, m_map, r_out, r_map)`` —
        flat buffers (possibly one buffer) and ``(17, P)`` / ``(5, P)``
        index maps whose entries at or past the buffer size are
        discarded.  With ``charges_only`` it only sets ``q_prev`` from
        the charges at ``x`` (the refresh from a previous step's
        solution) and takes no target.
        """
        sel = slice(None) if idx is None else idx
        vgs, vds = _biases(bank, x, idx)
        state, n_bypassed = _states(bank, idx, vgs, vds, bypass, tran,
                                    charges_only)
        stats = bank.stats
        if stats is not None:
            stats["stacked_lanes"] = \
                stats.get("stacked_lanes", 0) + n_bypassed
            stats["stacked_bypassed"] = \
                stats.get("stacked_bypassed", 0) + n_bypassed
        if charges_only:
            bank.q_prev[:, sel] = state[A_Q:A_DQG]
            return
        chord = (radius > 0.0 and bank.memo_valid[sel].all()
                 and float(np.max(np.abs(vgs - bank.memo_vgs[sel])))
                 <= radius
                 and float(np.max(np.abs(vds - bank.memo_vds[sel])))
                 <= radius)
        values, rhs_values = _stamp(bank, idx, state, vgs, vds, gmin,
                                    tran, dt, seed_qprev, chord)
        if not chord:
            # memoised at the states' linearisation biases (a bypassed
            # device's anchor)
            bank.memo_valid[sel] = radius > 0.0
            if radius > 0.0:
                bank.memo_values[:values.shape[0], sel] = values
                bank.memo_vgs[sel] = state[A_VGS]
                bank.memo_vds[sel] = state[A_VDS]
        m_out, m_map, r_out, r_map = target
        _scatter_add_pad(m_out, m_map[:values.shape[0], sel].ravel(),
                         values.ravel())
        _scatter_add_pad(r_out, r_map[:rhs_values.shape[0], sel].ravel(),
                         rhs_values.ravel())

    # -- kernel 3: sparse value scatter --------------------------------

    def scatter_accum(self, base: np.ndarray, map_idx: np.ndarray,
                      values: np.ndarray) -> np.ndarray:
        """``base + scatter(map_idx, values)`` — the dynamic-value
        scatter of the sparse assembler (``base`` is not mutated)."""
        return base + np.bincount(map_idx, weights=values,
                                  minlength=base.size)


# -- the stacked VSC solve (kernel 1) -----------------------------------

def _pair_solve(solver, rows: np.ndarray, qt: np.ndarray,
                vds_q: np.ndarray, probe: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """Closed-form root of each lane's cubic on the region pair of
    ``probe`` (source) and ``probe + vds_q`` (drain), validated against
    the pair's window and ``RESIDUAL_TOL``; writes the validated roots
    into ``out`` and returns their mask."""
    bps = solver.bps[rows]
    i_s = (bps < probe[:, None]).sum(axis=1)
    i_d = (bps < (probe + vds_q)[:, None]).sum(axis=1)
    qs = solver.polys[rows, i_s]
    qd = solver.polys[rows, i_d]
    # Taylor shift of the drain polynomial by the quantized VDS (the
    # scalar path shifts by the same quantized value inside
    # ``_segments_for_vds``).
    d = vds_q
    s0 = qd[:, 0] + d * (qd[:, 1] + d * (qd[:, 2] + d * qd[:, 3]))
    s1 = qd[:, 1] + d * (2.0 * qd[:, 2] + 3.0 * d * qd[:, 3])
    s2 = qd[:, 2] + 3.0 * d * qd[:, 3]
    s3 = qd[:, 3]
    e0 = qt - (qs[:, 0] + s0)
    e1 = 1.0 - (qs[:, 1] + s1)
    e2 = -(qs[:, 2] + s2)
    e3 = -(qs[:, 3] + s3)
    roots = real_roots_batch(e0, e1, e2, e3)
    lo = np.maximum(solver.lo_edges[rows, i_s],
                    solver.lo_edges[rows, i_d] - vds_q)
    hi = np.minimum(solver.hi_edges[rows, i_s],
                    solver.hi_edges[rows, i_d] - vds_q)
    inside = (roots >= (lo - EDGE_TOL)[:, None]) \
        & (roots <= (hi + EDGE_TOL)[:, None])
    res = np.abs(polyval4(e0[:, None], e1[:, None], e2[:, None],
                          e3[:, None], roots))
    res = np.where(inside & np.isfinite(res), res, np.inf)
    sub = np.arange(len(rows))
    pick = res.argmin(axis=1)
    ok = res[sub, pick] <= RESIDUAL_TOL
    out[ok] = roots[sub, pick][ok]
    return ok


def _locate(solver, rows: np.ndarray, qt: np.ndarray,
            vds_q: np.ndarray) -> np.ndarray:
    """A probe inside the interval of merged breakpoints (source, and
    drain shifted by ``-vds_q``) that brackets each lane's root: the
    residual ``g`` is strictly increasing, so the points where it is
    negative are those left of the root.  The probe is the midpoint
    between the last of them and the first of the rest, or one volt
    beyond the outermost point for a root outside them all."""
    bps = solver.bps[rows]
    points = np.concatenate((bps, bps - vds_q[:, None]), axis=1)
    g = points + qt[:, None]
    for v in (points, points + vds_q[:, None]):
        # scaled charge QS(v) / CSum; a breakpoint belongs to the region
        # on its left
        region = (bps[:, None, :] < v[:, :, None]).sum(axis=2)
        c = solver.polys[rows[:, None], region]
        g = g - (((c[..., 3] * v + c[..., 2]) * v + c[..., 1]) * v
                 + c[..., 0])
    # (a +inf padded breakpoint is never below)
    neg = (g < 0.0) & (points < np.inf)
    below = np.where(neg, points, -np.inf).max(axis=1)
    above = np.where(neg, np.inf, points).min(axis=1)
    return np.where(below == -np.inf, above - 1.0,
                    np.where(above == np.inf, below + 1.0,
                             0.5 * (below + above)))


# -- the bank-stamp arithmetic (vectorized scalar element stamps) -------

def _scatter_add_pad(out: np.ndarray, m_idx: np.ndarray,
                     m_val: np.ndarray) -> None:
    """``out[m_idx] += m_val`` with index ``out.size`` (and above) as
    a discard pad."""
    size = out.size
    out += np.bincount(m_idx, weights=m_val, minlength=size + 1)[:size]


def _logistic_many(x: np.ndarray) -> np.ndarray:
    """Vectorized ``1 / (1 + exp(-x))`` (same branch at 0 as the scalar
    element's ``_logistic``)."""
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _biases(bank, x: np.ndarray, idx: Optional[np.ndarray]
            ) -> Tuple[np.ndarray, np.ndarray]:
    """n-frame (mirrored) VGS/VDS of the selected devices; gather
    position -1 (ground) reads the appended zero."""
    xp = np.concatenate((x.ravel(), np.zeros(1)))
    if idx is None:
        i_g, i_d, i_s = bank.gather
        sign = bank.sign
    else:
        i_g, i_d, i_s = bank.gather[:, idx]
        sign = bank.sign[idx]
    vs = xp[i_s]
    return sign * (xp[i_g] - vs), sign * (xp[i_d] - vs)


def _charges(bank, vgs: np.ndarray, vds: np.ndarray,
             idx: Optional[np.ndarray], vsc: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terminal charges (G, D, S) at n-frame biases and their VSC [C] —
    vectorized ``_Backend.charges``."""
    sel = slice(None) if idx is None else idx
    tab = bank.table[sel]
    length = bank.length[sel]
    qg = length * bank.cg[tab] * (vgs + vsc)
    qd = length * (bank.cd[tab] * (vds + vsc)
                   - bank.curves.value(vsc + vds, idx=tab))
    return qg, qd, -(qg + qd)


def _states(bank, idx: Optional[np.ndarray], vgs: np.ndarray,
            vds: np.ndarray, bypass: float, tran: bool,
            charges_only: bool) -> Tuple[np.ndarray, int]:
    """``(N_ANCHOR, n)`` states of the selected devices at their biases
    and how many were bypassed: the anchor's tangent for a device
    within ``bypass`` (> 0) of its anchor, a VSC solve and full
    evaluation for the rest (refreshing their anchors while the bypass
    is on).  With ``charges_only`` the solved devices evaluate only
    their charges (the other state rows are left unset) and keep their
    anchors."""
    sel = slice(None) if idx is None else idx
    state = np.empty((N_ANCHOR, vgs.size))
    solved, solve_idx, n_bypassed = slice(None), idx, 0
    if bypass > 0.0:
        anchor = bank.anchor[sel]
        hit = (np.abs(vgs - anchor[:, A_VGS]) <= bypass) \
            & (np.abs(vds - anchor[:, A_VDS]) <= bypass)
        n_bypassed = int(np.count_nonzero(hit))
        if n_bypassed:
            state[:, hit] = _tangent(anchor[hit], vgs[hit], vds[hit])
            solved = np.flatnonzero(~hit)
            solve_idx = solved if idx is None else idx[solved]
    if solve_idx is None or solve_idx.size:
        vs, ds = vgs[solved], vds[solved]
        vsc = bank.solver.solve(vs, ds, bank.hint, idx=solve_idx,
                                stats=bank.stats, table=bank.table)
        if charges_only:
            state[A_Q:A_DQG, solved] = _charges(bank, vs, ds, solve_idx,
                                                vsc)
        else:
            state[:, solved] = _evaluate(bank, solve_idx, vsc, vs, ds,
                                         tran)
            if bypass > 0.0:
                bank.anchor[sel if solve_idx is None else solve_idx] = \
                    state[:, solved].T
    return state, n_bypassed


def _evaluate(bank, didx: Optional[np.ndarray], vsc: np.ndarray,
              vgs: np.ndarray, vds: np.ndarray, tran: bool) -> np.ndarray:
    """``(N_ANCHOR, n)`` states of devices ``didx`` at the given biases
    and their VSC: current and conductances, and in transient the
    charges and their analytic partials (the scalar
    ``CNFETElement.stamp`` arithmetic on ``(n,)`` arrays)."""
    from repro.pwl.device import _log1pexp_many

    sel = slice(None) if didx is None else didx
    tab = bank.table[sel]
    kt = bank.kt[tab]
    eta_s = (bank.ef[tab] - vsc) / kt
    eta_d = eta_s - vds / kt
    pref = bank.pref[tab]
    sig_s = _logistic_many(eta_s)
    sig_d = _logistic_many(eta_d)
    di_dvsc = (pref / kt) * (sig_d - sig_s)
    dq_s = bank.curves.derivative(vsc, idx=tab)
    dq_d = bank.curves.derivative(vsc + vds, idx=tab)
    cg, cd = bank.cg[tab], bank.cd[tab]
    denominator = bank.csum[tab] - dq_s - dq_d
    dvsc_g = -cg / denominator
    dvsc_d = -(cd - dq_d) / denominator
    state = np.empty((N_ANCHOR, vsc.size))
    state[A_VGS] = vgs
    state[A_VDS] = vds
    state[A_IDS] = pref * (_log1pexp_many(eta_s) - _log1pexp_many(eta_d))
    state[A_GM] = di_dvsc * dvsc_g
    state[A_GDS] = (pref / kt) * sig_d + di_dvsc * dvsc_d
    if tran:
        length = bank.length[sel]
        state[A_Q:A_DQG] = _charges(bank, vgs, vds, didx, vsc)
        dg_gs = length * cg * (1.0 + dvsc_g)
        dg_ds = length * cg * dvsc_d
        dd_gs = length * dvsc_g * (cd - dq_d)
        dd_ds = length * (1.0 + dvsc_d) * (cd - dq_d)
        state[A_DQG:A_DQD] = (dg_gs, dd_gs, -(dg_gs + dd_gs))
        state[A_DQD:] = (dg_ds, dd_ds, -(dg_ds + dd_ds))
    return state


def _tangent(anchor: np.ndarray, vgs: np.ndarray,
             vds: np.ndarray) -> np.ndarray:
    """``(N_ANCHOR, n)`` states of bypassed devices: their ``(n,
    N_ANCHOR)`` anchors, with the current and charges moved along the
    anchor's tangent to the given biases."""
    state = anchor.T.copy()
    dvg = vgs - state[A_VGS]
    dvd = vds - state[A_VDS]
    # (the compiled tier's left-to-right sums)
    state[A_IDS] = state[A_IDS] + state[A_GM] * dvg + state[A_GDS] * dvd
    state[A_Q:A_DQG] = state[A_Q:A_DQG] + state[A_DQG:A_DQD] * dvg \
        + state[A_DQD:] * dvd
    return state


def _stamp(bank, didx: Optional[np.ndarray], state: np.ndarray,
           vgs: np.ndarray, vds: np.ndarray, gmin: float, tran: bool,
           dt: Optional[float], seed_qprev: bool, chord: bool
           ) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked companion values and rhs of devices ``didx`` at the
    given biases from their states — or, on a chord hit, the memoised
    values with the exact rhs around them; seeds ``q_prev`` from the
    states' charges when asked."""
    sel = slice(None) if didx is None else didx
    sign = bank.sign[sel]
    n_kinds = 17 if tran else 8
    if chord:
        values = bank.memo_values[:n_kinds, sel]
        gm = values[0]
        gds = values[2] - gmin
    else:
        gm, gds = state[A_GM], state[A_GDS]
        values = np.empty((n_kinds, vgs.size))
        values[0] = gm
        values[1] = -(gm + gmin)
        values[2] = gds + gmin
        values[3] = gm + gds + 2.0 * gmin
        values[4] = -(gm + gds + gmin)
        values[5] = -(gds + gmin)
        values[6] = gmin
        values[7] = -gmin
    residual = sign * state[A_IDS] - gm * sign * vgs - gds * sign * vds
    rhs_values = np.empty((5 if tran else 2, vgs.size))
    rhs_values[0] = -residual
    rhs_values[1] = residual
    if tran:
        # Charge companions (vectorized ``_stamp_charges``).
        q0 = state[A_Q:A_DQG]
        if seed_qprev:
            bank.q_prev[:, sel] = q0
        for t_idx in range(3):
            row = 8 + 3 * t_idx
            if chord:
                geq_gs, geq_ds = values[row], values[row + 1]
            else:
                geq_gs = state[A_DQG + t_idx] / dt
                geq_ds = state[A_DQD + t_idx] / dt
                values[row] = geq_gs
                values[row + 1] = geq_ds
                values[row + 2] = -(geq_gs + geq_ds)
            i_now = (q0[t_idx] - bank.q_prev[t_idx, sel]) / dt
            rhs_values[2 + t_idx] = -(
                sign * i_now - geq_gs * sign * vgs
                - geq_ds * sign * vds
            )
    return values, rhs_values
