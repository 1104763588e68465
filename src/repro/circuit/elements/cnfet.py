"""CNFET circuit element (the paper's Fig. 1 device in MNA form).

DC: a nonlinear voltage-controlled current source ``IDS(VGS, VDS)``.
The inner self-consistent voltage is solved *inside* the evaluation —
closed-form for the fast piecewise backend, Newton for the reference
backend — and the small-signal stamps (gm, gds) are computed
analytically through the implicit-function theorem on the charge-balance
residual:

``dVSC/dVGS = -CG / (CSum - dDQ/dVSC)``
``dVSC/dVDS = -(CD - Q'(VSC+VDS)) / (CSum - dDQ/dVSC)``

with ``dDQ/dVSC = Q'(VSC) + Q'(VSC+VDS)`` — all quantities the piecewise
model evaluates in closed form, so a Newton iteration of the circuit
engine costs a handful of polynomial evaluations per device.

Transient: terminal charges (gate / drain, with the source taking the
balance so the three displacement currents sum to zero) are companion-
modelled with *analytic* charge partials derived from the same
implicit-function solve — one closed-form solve per Newton iteration
covers current, small-signal and charge stamps (the previous-step
charges are memoised per accepted step, since ``x_prev`` is frozen
while a step iterates).

The engines stamp every fast-backend device, whatever the circuit
size, through one :class:`CNFETBank` (one fused kernel call per Newton
iteration).  :meth:`CNFETElement.stamp` serves only the FETToy backend,
AC and the one-phase :func:`repro.circuit.mna.assemble`.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple, Union

import numpy as np

from repro.circuit.elements.base import (
    GROUND_NAMES,
    Element,
    GenericLaneGroup,
    LaneContext,
    LaneGroup,
    StampContext,
)
from repro.errors import ParameterError
from repro.pwl.batch import StackedCurves, StackedVscSolver
from repro.pwl.device import CNFET
from repro.pwl.kernels import N_ANCHOR, active_kernel_backend
from repro.reference.fettoy import FETToyModel

#: Chord radius [V] of the bank's exact-rhs modified-Newton reuse: the
#: frozen Jacobian is kept while no device's bias moved further than
#: this from the linearisation point.  The rhs is rebuilt at every
#: iteration (from the device's current and charges, exact or along
#: its bypass anchor's tangent), so this radius only trades Newton
#: iteration count against factorisation count, unlike the bypass
#: tolerance (``jacobian_reuse_tol``), whose tangent carries an
#: O(curvature * tol^2) error.  Tuned on the 32-bit carry-ripple
#: benchmark *with* the compiled frozen-pivot refactorisation lane
#: active (which makes factorisations cheap): the chord should only
#: take over in the convergence tail of a step and across quiescent
#: plateau steps, where it converges without extra iterations; wider
#: radii trade quadratic for linear convergence mid-transient and lose
#: outright.
_SLAB_CHORD_RADIUS_V = 1e-4

def _log1pexp(x: float) -> float:
    """Stable ``log(1 + exp(x))`` (order-0 Fermi-Dirac integral)."""
    if x > 35.0:
        return x
    if x < -35.0:
        return math.exp(x)
    return math.log1p(math.exp(x))


def _logistic(x: float) -> float:
    """``1 / (1 + exp(-x))`` — derivative of ``_log1pexp``."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


class _Backend:
    """Uniform view over the fast (CNFET) and reference (FETToyModel)
    devices: vsc solve, mobile-charge curve and derivative, current."""

    def __init__(self, device: Union[CNFET, FETToyModel]) -> None:
        self.device = device
        if isinstance(device, CNFET):
            self.caps = device.capacitances
            self.kt = device._kt
            self.ef = device._ef
            self.pref = device._i_prefactor
            self._solve = lambda vgs, vds: device.solver.solve(vgs, vds, 0.0)
            self._q = device.fitted.curve.value
            self._dq = device.fitted.curve.derivative
        elif isinstance(device, FETToyModel):
            self.caps = device.capacitances
            self.kt = device.kt_ev
            self.ef = device.params.fermi_level_ev
            self.pref = (
                device.params.transmission
                * device.params.temperature_k
                * 2.0 * 1.602176634e-19 * 1.380649e-23
                / (math.pi * 1.054571817e-34)
            )
            self._solve = lambda vgs, vds: device.solve_vsc(vgs, vds, 0.0)
            self._q = lambda u: float(device.charge.qs(u))
            self._dq = lambda u: float(device.charge.dqs_dvsc(u))
        else:
            raise ParameterError(
                f"unsupported CNFET backend {type(device).__name__}; "
                "expected repro.pwl.CNFET or repro.reference.FETToyModel"
            )

    def evaluate(self, vgs: float, vds: float
                 ) -> Tuple[float, float, float, float]:
        """``(ids, gm, gds, vsc)`` at a source-referenced bias point."""
        return self.evaluate_full(vgs, vds)[:4]

    def evaluate_full(self, vgs: float, vds: float,
                      with_charge: bool = False) -> Tuple[
            float, float, float, float, float, float, float, float]:
        """One solve, every stamp ingredient.

        Returns ``(ids, gm, gds, vsc, dvsc_dvgs, dvsc_dvds, q_d, dq_d)``
        where ``q_d = Q(VSC + VDS)`` is the mobile drain charge and
        ``dq_d`` its derivative.  ``q_d`` is only evaluated when
        ``with_charge`` (the transient companion stamps); DC iterations
        skip that extra charge-curve evaluation and receive 0.0 there.
        """
        vsc = self._solve(vgs, vds)
        kt = self.kt
        eta_s = (self.ef - vsc) / kt
        eta_d = eta_s - vds / kt
        ids = self.pref * (_log1pexp(eta_s) - _log1pexp(eta_d))
        sig_s = _logistic(eta_s)
        sig_d = _logistic(eta_d)
        di_dvsc = (self.pref / kt) * (sig_d - sig_s)
        di_dvds_direct = (self.pref / kt) * sig_d
        dq_s = self._dq(vsc)
        dq_d = self._dq(vsc + vds)
        denominator = self.caps.csum - dq_s - dq_d
        dvsc_dvgs = -self.caps.cg / denominator
        dvsc_dvds = -(self.caps.cd - dq_d) / denominator
        gm = di_dvsc * dvsc_dvgs
        gds = di_dvds_direct + di_dvsc * dvsc_dvds
        q_d = self._q(vsc + vds) if with_charge else 0.0
        return ids, gm, gds, vsc, dvsc_dvgs, dvsc_dvds, q_d, dq_d

    def charges(self, vgs: float, vds: float,
                length_m: float) -> Tuple[float, float, float]:
        """Terminal charges (gate, drain, source) [C]; they sum to zero
        by construction so transient displacement currents conserve
        charge."""
        vsc = self._solve(vgs, vds)
        caps = self.caps
        qg = length_m * caps.cg * (vgs + vsc)
        qd = length_m * (caps.cd * (vds + vsc) - self._q(vsc + vds))
        return qg, qd, -(qg + qd)

    def ids_many(self, vgs: np.ndarray, vds: np.ndarray) -> np.ndarray:
        """Vectorized drain currents (n-frame), for waveform post-
        processing: the fast device's batched n-frame current (the
        ``ids_batch`` path), a loop of :meth:`evaluate` for FETToy."""
        device = self.device
        if isinstance(device, CNFET):
            return device._ids_n_batch(vgs, vds, 0.0)
        return np.asarray([
            self.evaluate(float(g), float(d))[0]
            for g, d in zip(vgs, vds)
        ])


# Terminal rows of the bank's node table.
_G, _D, _S = 0, 1, 2
#: (row, col) terminals of the 17 matrix entry kinds (see
#: :class:`CNFETBank`) and the row terminals of the 5 rhs kinds
_KIND_ROWS = (_D, _S, _D, _S, _D, _S, _G, _G) + (_G,) * 3 + (_D,) * 3 \
    + (_S,) * 3
_KIND_COLS = (_G, _G, _D, _S, _S, _D, _G, _S) + (_G, _D, _S) * 3
_RHS_ROWS = (_D, _S, _G, _D, _S)


def _is_bankable(el: Element) -> bool:
    return isinstance(el, CNFETElement) \
        and isinstance(el.backend.device, CNFET)


def split_bank_devices(groups):
    """Split element lists into :class:`CNFETBank` devices (every
    fast-backend CNFET) and the rest: ``(banked, rest)``, one list per
    group, order kept."""
    banked, rest = [], []
    for group in groups:
        flags = [_is_bankable(el) for el in group]
        banked.append([el for el, flag in zip(group, flags) if flag])
        rest.append([el for el, flag in zip(group, flags) if not flag])
    return banked, rest


def drain_currents(elements, rows: np.ndarray,
                   node_index) -> np.ndarray:
    """Drain currents ``(len(elements), T)`` of CNFET ``elements`` over
    the solution rows ``(T, dim)`` (nodes missing from ``node_index``
    read as ground), in each element's terminal sign: one
    :meth:`_Backend.ids_many` call per device model over all its
    elements' (element, row) biases."""
    rows = np.asarray(rows, dtype=float)
    n_rows, dim = rows.shape
    out = np.empty((len(elements), n_rows))
    if not elements:
        return out
    padded = np.concatenate((rows, np.zeros((n_rows, 1))), axis=1)
    # (drain, gate, source) columns, ground on the zero pad
    cols = np.array([[node_index.get(node, dim) for node in el.nodes]
                     for el in elements]).T
    sign = np.array([1.0 if el.polarity == "n" else -1.0
                     for el in elements])
    vs = padded[:, cols[2]]
    vgs = (sign * (padded[:, cols[1]] - vs)).T
    vds = (sign * (padded[:, cols[0]] - vs)).T
    models: dict = {}
    for i, el in enumerate(elements):
        models.setdefault(id(el.backend.device), []).append(i)
    for members in models.values():
        out[members] = elements[members[0]].backend.ids_many(
            vgs[members].ravel(), vds[members].ravel()
        ).reshape(len(members), n_rows)
    return out * sign[:, None]


class CNFETBank:
    """Every stacked fast-backend CNFET of one engine, evaluated as one
    closed-form pass per Newton iteration.

    ``P`` devices (possibly all different) evaluate together: inner
    self-consistent voltages through
    :class:`~repro.pwl.batch.StackedVscSolver` tables (closed forms on
    the hinted, then the located region pair, with the scalar solve as
    the last resort), charge-curve values
    and derivatives through :class:`~repro.pwl.batch.StackedCurves`
    tables, and every downstream quantity — currents, analytic
    small-signal and charge partials, companion residuals — is the
    scalar :meth:`_Backend.evaluate_full` arithmetic.  One call of the
    active kernel tier's ``bank_stamp`` does all of it per iteration,
    from the bias gather out of the iterate to the scatter-add into the
    caller's buffers (see :doc:`/kernels`).

    The bank holds the per-device parameters, the warm-start hints,
    the previous-step terminal charges ``q_prev``, a per-device chord
    memo, a per-device bypass anchor, and the gather table of the
    devices' terminal positions in the iterate (``-1`` for ground).
    All of them are persistent arrays updated in place, so the
    compiled tier binds its pointers once per bank.  From the terminal
    rows it writes, once, the stamp-entry table: ``rows``/``cols`` of
    the 17 matrix entry kinds and ``rhs_rows`` of the 5 rhs kinds, one
    column per device (ground on the pad row ``dim``) — the exact
    per-entry sums of the scalar ``stamp``:

    ======== ======================  ========================
    kind     entry                   value
    ======== ======================  ========================
    0        (d, g)                  ``+gm``
    1        (s, g)                  ``-(gm + gmin)``
    2        (d, d)                  ``+(gds + gmin)``
    3        (s, s)                  ``+(gm + gds + 2 gmin)``
    4        (d, s)                  ``-(gm + gds + gmin)``
    5        (s, d)                  ``-(gds + gmin)``
    6        (g, g)                  ``+gmin``
    7        (g, s)                  ``-gmin``
    8..16    (t, g|d|s), t=g,d,s     charge companions
    ======== ======================  ========================

    DC uses the first 8 matrix and 2 rhs kinds.  Each consumer maps the
    table onto its own flat layout once and hands :meth:`companion` a
    ``target``: the monolithic assembler composes :meth:`flat_entries`
    with its CSC pattern, the lane-batched engine's group offsets it
    per lane, and the partitioned assembler composes it with its
    pooled block and interface buffer.

    ``lane_of`` (one lane per device) makes the bank read its biases
    from a lane-stacked ``(B, dim)`` iterate instead of a ``(dim,)``
    one.
    """

    def __init__(self, elements, node_index, dim: int,
                 lane_of: Optional[np.ndarray] = None,
                 stats: Optional[dict] = None) -> None:
        self.elements = list(elements)
        self.sign = np.array([
            1.0 if el.polarity == "n" else -1.0 for el in self.elements])
        self.length = np.array([el.length_m for el in self.elements])
        # One table row per distinct device model: a circuit of many
        # instances of few models streams a cache-sized parameter set.
        models: dict = {}
        #: table row of each device in the per-model arrays below
        self.table = np.array([
            models.setdefault(id(el.backend.device),
                              (len(models), el.backend))[0]
            for el in self.elements], dtype=np.int64)
        backends = [backend for _row, backend in models.values()]
        self.kt = np.array([b.kt for b in backends])
        self.ef = np.array([b.ef for b in backends])
        self.pref = np.array([b.pref for b in backends])
        self.cg = np.array([b.caps.cg for b in backends])
        self.cd = np.array([b.caps.cd for b in backends])
        self.csum = np.array([b.caps.csum for b in backends])
        self.solver = StackedVscSolver(
            [b.device.solver for b in backends])
        self.curves = StackedCurves(
            [b.device.fitted.curve for b in backends])
        p = self.p = len(self.elements)
        # rows _G, _D, _S of the (drain, gate, source) terminals
        row_of_node = dict(node_index)
        row_of_node.update(dict.fromkeys(GROUND_NAMES, dim))
        terminals = np.fromiter(
            (row_of_node[node] for el in self.elements for node in el.nodes),
            np.int64, 3 * p).reshape(p, 3).T[[1, 0, 2]]
        self.rows = terminals[list(_KIND_ROWS)]
        self.cols = terminals[list(_KIND_COLS)]
        self.rhs_rows = terminals[list(_RHS_ROWS)]
        #: flat position of each terminal in the (lane-stacked)
        #: iterate, -1 for ground
        offset = 0 if lane_of is None else lane_of * dim
        self.gather = np.where(terminals == dim, -1, terminals + offset)
        #: warm-start VSC hints: Newton iterates / accepted biases
        self.hint = np.zeros(p)
        #: previous-step terminal charges (gate, drain, source), [C]
        self.q_prev = np.zeros((3, p))
        #: run stats dict receiving the stacked-solver counters
        self.stats = stats
        # Per-device chord memo (see :meth:`companion`): the frozen
        # matrix values, the biases they were linearised at, and which
        # devices hold one for the current (tran, dt, gmin) key.
        self._memo_key: Optional[Tuple] = None
        self.memo_vgs = np.zeros(p)
        self.memo_vds = np.zeros(p)
        self.memo_values = np.zeros((17, p))
        self.memo_valid = np.zeros(p, dtype=bool)
        #: Per-device bypass anchor (see :meth:`companion`): the
        #: dt-independent linearisation at the bias of the device's
        #: last full transient evaluation, one row of ``N_ANCHOR``
        #: values laid out as :data:`repro.pwl.kernels.A_VGS` etc.; a
        #: NaN bias marks a device without one.
        self.anchor = np.full((p, N_ANCHOR), np.nan)
        #: per-tier kernel state (the compiled tier's pointer binding)
        self.kernel_state: dict = {}

    def reset(self) -> None:
        """Forget warm-start hints, previous-step charges, the chord
        memo and the bypass anchors."""
        self.hint[:] = 0.0
        self.q_prev[:] = 0.0
        self._memo_key = None
        self.memo_valid[:] = False
        self.anchor[:] = np.nan

    def flat_entries(self, dim: int) -> Tuple[np.ndarray, np.ndarray]:
        """The entry table in the global ``dim x dim`` layout: flat
        matrix positions with ``dim * dim`` as the grounded-entry pad,
        and rhs rows with ``dim`` as the pad."""
        grounded = (self.rows >= dim) | (self.cols >= dim)
        return (np.where(grounded, dim * dim, self.rows * dim + self.cols),
                self.rhs_rows)

    def refresh_charges(self, x_prev: np.ndarray,
                        idx: Optional[np.ndarray] = None,
                        reuse_tol: float = 0.0) -> None:
        """Set ``q_prev`` of the selected devices (default: all) from
        the previous step's solution; ``reuse_tol`` > 0 takes a
        device's charges along its bypass anchor's tangent when its
        bias lies within that tolerance of the anchor (see
        :meth:`companion`)."""
        active_kernel_backend().bank_stamp(self, x_prev, idx,
                                           bypass=reuse_tol,
                                           charges_only=True)

    def companion(self, x: np.ndarray,
                  idx: Optional[np.ndarray] = None, *, target,
                  gmin: float, tran: bool, dt: Optional[float],
                  reuse_tol: float = 0.0, seed_qprev: bool = False) -> None:
        """Companion stamp of the selected devices (default: all) around
        iterate ``x``: one value per entry kind, 8 / 2 in DC and 17 / 5
        in transient (charge companions around ``q_prev``),
        scatter-added straight into ``target = (m_out, m_map, r_out,
        r_map)``: the flat buffers ``m_out`` / ``r_out`` (they may be
        one buffer) through the ``(17, P)`` / ``(5, P)`` index maps,
        entries at or past a buffer's size discarded.

        ``reuse_tol`` > 0 (``NewtonOptions.jacobian_reuse_tol``) turns
        on two independent reuses; 0 turns both off and runs the exact
        Newton iteration.

        *Chord* (the matrix): while every selected device's bias stays
        within :data:`_SLAB_CHORD_RADIUS_V` (or ``reuse_tol``, if
        larger) of its memoised linearisation for the same ``(tran,
        dt, gmin)``, the matrix values are stamped frozen while the rhs
        is rebuilt at the current bias with the frozen gm/gds/geq
        coefficients.  That is the classic modified-Newton split: the
        fixed point satisfies KCL with the devices' current and
        charges (the frozen coefficients cancel between matrix and rhs
        at convergence), so the radius trades iteration count against
        factorisation count, never accuracy — which is why it can be
        far looser than the bypass tolerance.  The frozen values keep
        the assembled data bit-identical, so the assemblers reuse their
        LU factorisations across iterations and plateau steps.
        Devices outside ``idx`` keep their memo untouched.

        *Bypass* (the device evaluation, transient only): a device
        whose bias lies within ``reuse_tol`` of its *anchor* — the bias
        of its last full evaluation, never the last iterate, so slow
        drift cannot build up past the tolerance — skips the VSC solve
        and the transcendentals.  Its current and charges come from
        the anchor's tangent (current, conductances, charges and their
        partials, all dt-independent) and go through the same
        companion, chord rhs, ``q_prev`` seeding and scatter as a
        solved device's; outside the chord it memoises the anchor's
        values at the anchor's bias.  Every full evaluation refreshes
        the device's anchor.  Like the scalar element's reuse, the
        error is the tangent's: O(curvature * tol^2) in current and
        charge, about 1e-12 V of solution error at the default 1e-6 V.

        With ``seed_qprev=True`` (valid only when ``x`` *is* the
        previous step's solution, i.e. the first Newton iteration of a
        transient step) the charges evaluated at ``x`` double as the
        selected devices' ``q_prev`` refresh.
        """
        key = (tran, dt, gmin)
        if self._memo_key != key:
            self.memo_valid[:] = False
            self._memo_key = key
        radius = max(reuse_tol, _SLAB_CHORD_RADIUS_V) \
            if reuse_tol > 0.0 else 0.0
        active_kernel_backend().bank_stamp(
            self, x, idx, gmin=gmin, tran=tran, dt=dt, radius=radius,
            bypass=reuse_tol if tran else 0.0, seed_qprev=seed_qprev,
            target=target)


class CNFETSlab:
    """The monolithic assembler's view of a :class:`CNFETBank`: every
    device, each Newton iteration, landed in the global system by one
    fused ``bank_stamp`` call.  :attr:`m_idx` / :attr:`r_idx` give the
    entry table in the global ``dim x dim`` layout
    (:meth:`CNFETBank.flat_entries`); the assembler composes them with
    its CSC pattern and passes the resulting ``(m_out, m_map, r_out,
    r_map)`` target to every :meth:`stamp`.

    :meth:`begin_step` only arms a deferred refresh of the
    previous-step charges; the first :meth:`stamp` of the step seeds
    ``q_prev`` from its own evaluation when its iterate *is*
    ``x_prev`` (every fixed step), and refreshes from ``x_prev`` first
    otherwise (an adaptive predictor start).  In transient,
    :meth:`stamp` passes ``ctx.reuse_tol`` on to the bank's exact-rhs
    chord and per-device bypass (the refresh bypasses too); DC solves
    (operating points, sweeps) run without them, so a DC solve takes
    the lane-batched engine's exact Newton iterates.  The
    benchmark's traced mode (``perfbench/tracing.py``) times its
    ``elements.slab`` layer through these two methods."""

    def __init__(self, bank: CNFETBank, dim: int) -> None:
        self.bank = bank
        self.elements = bank.elements
        self.m_idx, self.r_idx = bank.flat_entries(dim)
        self._pending: Optional[np.ndarray] = None

    def begin_step(self, ctx: StampContext) -> None:
        """Arm the deferred ``q_prev`` refresh from ``ctx.x_prev``
        (transient steps)."""
        self._pending = None
        if ctx.analysis == "tran" and ctx.dt is not None \
                and ctx.x_prev is not None:
            self._pending = np.array(ctx.x_prev, dtype=float)

    def stamp(self, ctx: StampContext, target) -> None:
        """One fused companion stamp for all devices around ``ctx.x``,
        scatter-added into ``target``: ``(m_out, m_map, r_out,
        r_map)``, the caller's matrix values and rhs with the entry
        table mapped onto them (see :meth:`CNFETBank.companion`)."""
        seed = False
        pending = self._pending
        tran = ctx.analysis == "tran" and ctx.dt is not None
        reuse_tol = ctx.reuse_tol if tran else 0.0
        if pending is not None:
            self._pending = None
            if np.array_equal(ctx.x, pending):
                seed = True  # charges at x double as q_prev
            else:
                self.bank.refresh_charges(pending, reuse_tol=reuse_tol)
        self.bank.companion(
            ctx.x, gmin=ctx.gmin, tran=tran, dt=ctx.dt,
            reuse_tol=reuse_tol, seed_qprev=seed, target=target)


class _CNFETLaneGroup(LaneGroup):
    """The lane-batched engine's view of a :class:`CNFETBank`: *every*
    CNFET slot of the batch, all lanes, one stacked pass per Newton
    iteration.

    A *devlane* is one (element slot, lane) pair; the group flattens
    all ``S`` CNFET slots x ``B`` lanes into ``P = S * B`` bank devices
    (slot-major), which may all be different (a Monte-Carlo batch).
    The stamp lands through the bank's entry table offset per lane into
    the padded ``(B, n + 1, n + 1)`` stacks (the ground pad row/column
    absorbs grounded terminals).  Lanes run without the chord;
    previous-step charges are refreshed once per accepted step.  The
    bank is built on first use, when the system layout is known.
    """

    nonlinear = True

    def __init__(self, slots) -> None:
        super().__init__([el for slot in slots for el in slot])
        self.n_lanes = len(slots[0])
        #: lane of each devlane (slot-major flattening)
        self.lane_of = np.array([
            lane for slot in slots for lane in range(len(slot))])
        self._bank: Optional[CNFETBank] = None

    def _bank_for(self, ctx: LaneContext) -> CNFETBank:
        bank = self._bank
        if bank is None:
            bank = self._bank = CNFETBank(
                self.elements, ctx.node_index, ctx.dim,
                lane_of=self.lane_of)
            pad = ctx.dim + 1
            self._m_idx = self.lane_of * (pad * pad) \
                + bank.rows * pad + bank.cols
            self._r_idx = self.lane_of * pad + bank.rhs_rows
        bank.stats = self.stats
        return bank

    def _active(self, ctx: LaneContext) -> Optional[np.ndarray]:
        """Devlane indices whose lane is active in ``ctx`` (``None``
        when every lane is)."""
        if len(ctx.lanes) == self.n_lanes:
            return None
        mask = np.zeros(self.n_lanes, dtype=bool)
        mask[ctx.lanes] = True
        return np.flatnonzero(mask[self.lane_of])

    def reset(self) -> None:
        if self._bank is not None:
            self._bank.reset()

    def accept(self, ctx: LaneContext) -> None:
        """Refresh the active lanes' previous-step charges at
        ``ctx.x``."""
        self._bank_for(ctx).refresh_charges(ctx.x, self._active(ctx))

    # the run's initial solution primes the charges the same way (the
    # scalar element computes them lazily on its first transient stamp)
    begin_run = accept

    def stamp(self, ctx: LaneContext) -> None:
        bank = self._bank_for(ctx)
        bank.companion(
            ctx.x, self._active(ctx), gmin=ctx.gmin,
            tran=ctx.analysis == "tran" and ctx.dt is not None,
            dt=ctx.dt, target=(ctx.matrix.reshape(-1), self._m_idx,
                               ctx.rhs.reshape(-1), self._r_idx))


class CNFETElement(Element):
    """Three-terminal CNFET for the MNA engine.

    Parameters
    ----------
    name:
        Element name.
    drain, gate, source:
        Node names.
    device:
        A :class:`repro.pwl.CNFET` (fast, the normal case; the engines
        stamp it through a :class:`CNFETBank`) or a
        :class:`repro.reference.FETToyModel` (baseline; hundreds of
        times slower per Newton iteration — used by the speed-comparison
        benchmarks; stamped by :meth:`stamp`).
    length_nm:
        Effective channel length for charge scaling (transient only;
        the ballistic current is length-independent).
    polarity:
        ``"n"`` or ``"p"``; p-type mirrors all terminal voltages.  If
        ``device`` is a p-type :class:`CNFET` its polarity is adopted.
    """

    nonlinear = True

    def __init__(self, name: str, drain: str, gate: str, source: str,
                 device: Union[CNFET, FETToyModel],
                 length_nm: float = 30.0,
                 polarity: str | None = None) -> None:
        super().__init__(name, (drain, gate, source))
        if length_nm <= 0.0:
            raise ParameterError(f"{name}: length must be > 0")
        self.backend = _Backend(device)
        self.length_m = length_nm * 1e-9
        if polarity is None:
            polarity = getattr(device, "polarity", "n")
        if polarity not in ("n", "p"):
            raise ParameterError(f"{name}: polarity must be 'n' or 'p'")
        self.polarity = polarity
        #: memoised previous-step charges: (vgs_prev, vds_prev, charges)
        self._prev_charges: Optional[Tuple[float, float, Tuple[
            float, float, float]]] = None
        #: memoised last evaluation for the Jacobian-reuse fast path:
        #: (vgs, vds, full-tuple, was_transient)
        self._eval_memo: Optional[Tuple[float, float, Tuple, bool]] = None

    def reset_state(self) -> None:
        self._prev_charges = None
        self._eval_memo = None

    @classmethod
    def lane_groups(cls, slots):
        """One merged bank group across every fast-backend CNFET slot
        (all devices of the batch evaluate in a single pass);
        reference-backend slots fall back to per-lane scalar groups."""
        stacked = [slot for slot in slots if all(map(_is_bankable, slot))]
        return ([_CNFETLaneGroup(stacked)] if stacked else []) + [
            GenericLaneGroup(slot) for slot in slots
            if not all(map(_is_bankable, slot))]

    # -- bias helpers ----------------------------------------------------

    def _bias(self, ctx: StampContext) -> Tuple[float, float]:
        d, g, s = self.nodes
        vgs = ctx.voltage(g) - ctx.voltage(s)
        vds = ctx.voltage(d) - ctx.voltage(s)
        if self.polarity == "p":
            return -vgs, -vds
        return vgs, vds

    def ids(self, ctx: StampContext) -> float:
        """Drain-to-source current at the current iterate (reporting)."""
        vgs, vds = self._bias(ctx)
        ids, _, _, _ = self.backend.evaluate(vgs, vds)
        return ids if self.polarity == "n" else -ids

    # -- stamping ---------------------------------------------------------

    def stamp(self, ctx: StampContext) -> None:
        """Stamp the linearised current companion (gm, gds,
        residual) plus, in transient, the charge companions."""
        d, g, s = self.nodes
        vgs, vds = self._bias(ctx)
        tran = ctx.analysis == "tran" and ctx.dt is not None
        # Jacobian-reuse fast path: when the bias moved less than the
        # reuse tolerance since the last evaluation, restamp from that
        # frozen linearisation (companion values at the memoised bias,
        # so the stamp stays a self-consistent Newton-chord step whose
        # solution error is O(curvature * tol^2)).
        memo = self._eval_memo
        if ctx.reuse_tol > 0.0 and memo is not None \
                and memo[3] == tran \
                and abs(vgs - memo[0]) <= ctx.reuse_tol \
                and abs(vds - memo[1]) <= ctx.reuse_tol:
            vgs, vds, full = memo[0], memo[1], memo[2]
        else:
            full = self.backend.evaluate_full(vgs, vds, with_charge=tran)
            self._eval_memo = (vgs, vds, full, tran)
        ids, gm, gds = full[0], full[1], full[2]
        # Mirroring flips both the controlling voltages and the current
        # direction; the conductance signs are invariant (d(-I)/d(-V)).
        sign = 1.0 if self.polarity == "n" else -1.0
        # Linearised current (n-frame): I = ids + gm*dvgs + gds*dvds.
        ctx.add_transconductance(d, s, g, s, gm)
        ctx.add_conductance(d, s, gds)
        ctx.add_conductance(d, s, ctx.gmin)
        ctx.add_conductance(g, s, ctx.gmin)
        residual = sign * ids - gm * sign * vgs - gds * sign * vds
        ctx.add_current(d, s, residual)
        if tran:
            self._stamp_charges(ctx, vgs, vds, full)

    def _stamp_charges(self, ctx: StampContext, vgs: float, vds: float,
                       full: Tuple) -> None:
        """Charge companion stamps from the already-computed solve.

        The charges and their partials come analytically from the
        implicit-function derivatives ``dVSC/dVGS``, ``dVSC/dVDS`` (no
        perturbed re-solves); the previous-step charges are memoised
        because ``x_prev`` is constant across a step's Newton
        iterations.
        """
        d, g, s = self.nodes
        sign = 1.0 if self.polarity == "n" else -1.0
        _ids, _gm, _gds, vsc, dvsc_g, dvsc_d, q_d, dq_d = full
        length = self.length_m
        caps = self.backend.caps
        qg = length * caps.cg * (vgs + vsc)
        qd = length * (caps.cd * (vds + vsc) - q_d)
        q0 = (qg, qd, -(qg + qd))
        # Analytic partials (n-frame): the mobile drain charge moves
        # with Q'(VSC+VDS) times the inner-node sensitivity.
        dg_gs = length * caps.cg * (1.0 + dvsc_g)
        dg_ds = length * caps.cg * dvsc_d
        dd_gs = length * dvsc_g * (caps.cd - dq_d)
        dd_ds = length * (1.0 + dvsc_d) * (caps.cd - dq_d)
        dq_dvgs = (dg_gs, dd_gs, -(dg_gs + dd_gs))
        dq_dvds = (dg_ds, dd_ds, -(dg_ds + dd_ds))
        # Previous-step charges (memoised per accepted step).
        vgs_prev = ctx.previous_voltage(g) - ctx.previous_voltage(s)
        vds_prev = ctx.previous_voltage(d) - ctx.previous_voltage(s)
        if self.polarity == "p":
            vgs_prev, vds_prev = -vgs_prev, -vds_prev
        memo = self._prev_charges
        if memo is not None and memo[0] == vgs_prev \
                and memo[1] == vds_prev:
            q_prev = memo[2]
        else:
            q_prev = self.backend.charges(vgs_prev, vds_prev,
                                          self.length_m)
            self._prev_charges = (vgs_prev, vds_prev, q_prev)
        dt = ctx.dt
        terminals = (g, d, s)
        for t_idx, terminal in enumerate(terminals):
            # Backward-Euler companion for i_t = dq_t/dt, linearised in
            # (vgs, vds).  Mirroring multiplies both q and v by -1, so
            # the conductances are invariant and currents flip.
            geq_gs = dq_dvgs[t_idx] / dt
            geq_ds = dq_dvds[t_idx] / dt
            i_now = (q0[t_idx] - q_prev[t_idx]) / dt
            ctx.add_transconductance(terminal, "0", g, s, geq_gs)
            ctx.add_transconductance(terminal, "0", d, s, geq_ds)
            residual = sign * i_now - geq_gs * sign * vgs \
                - geq_ds * sign * vds
            ctx.add_current(terminal, "0", residual)
