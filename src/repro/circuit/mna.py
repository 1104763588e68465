"""MNA assembly (two-phase) and the damped Newton solver.

Assembly is split into two phases per Newton solve:

* **static phase** — every linear element (``nonlinear = False``:
  resistors, sources, capacitor/inductor companions) is stamped once
  per step context.  These stamps depend on ``(time, dt, x_prev,
  method, source_scale)`` but not on the Newton iterate, so
  re-stamping them every iteration — as the one-phase assembler did —
  is pure waste.  The built-in linear classes stamp as *static groups*
  (:meth:`~repro.circuit.elements.base.Element.static_group`): each
  group fixes its flat matrix positions and rhs rows per analysis mode
  (ground on a pad) and produces the whole class's values in a few
  array operations.  The matrix values depend only on the value key
  ``(analysis, dt, method)``, so the static CSC data is re-scattered
  only when that key changes and a fixed-step run updates only the
  rhs per step.  Linear elements without a group (user-defined
  classes) are the *fallback*: they stamp one by one through their
  ``stamp``, every step, and only their triplets are pattern-checked.
* **dynamic phase** — each Newton iteration copies the static data and
  rhs and adds only the nonlinear elements' stamps (CNFETs, diodes)
  around the current iterate.

:class:`TwoPhaseAssembler` builds one matrix representation for every
linear-solver backend (:mod:`repro.circuit.solvers`): the elements
outside the groups and the bank emit COO triplets through a
:class:`~repro.circuit.elements.base.TripletStampContext`, and the
symbolic sparsity pattern (CSC layout) with the static/dynamic
scatter index maps is built once per run (positions depend only on
topology and analysis mode — the pattern self-heals if a mode switch
changes them).  Each iteration is then value scatters into one CSC
``data`` vector; the backend decides how to factor it (dense LAPACK
below :data:`~repro.circuit.solvers.SPARSE_AUTO_MIN_DIM` unknowns by
default, SuperLU above).

The CNFET bank (:class:`~repro.circuit.elements.cnfet.CNFETBank`,
stamped by :class:`~repro.circuit.elements.cnfet.CNFETSlab`) evaluates
every fast-backend CNFET, in a circuit of any size, in one fused
``bank_stamp`` kernel call per iteration, scatter-adding straight into
the CSC ``data`` through the bank's entry table composed with the
pattern once per analysis mode (banked devices record no triplets).
``begin_step`` only arms the bank's previous-step charge refresh: the
first iteration of a fixed step starts at ``x_prev`` and seeds the
charges from its own evaluation.  Reference-backend (FETToy) CNFETs
stamp one by one with the other nonlinear elements.

Robustness aids, in escalation order:

1. per-iteration voltage step damping (clipped to ``max_step`` volts);
2. gmin stepping (decade sweep of the nonlinear shunt conductance);
3. source stepping (ramping all independent sources from 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import faults
from repro.cancel import CancelToken
from repro.circuit.elements.base import (
    StampContext,
    StaticPhase,
    TripletStampContext,
    transient_step,
)
from repro.circuit.elements.cnfet import (
    CNFETBank,
    CNFETSlab,
    split_bank_devices,
)
from repro.circuit.netlist import Circuit
from repro.circuit.solvers import BackendLike, csc_pattern, resolve_backend
from repro.errors import AnalysisError
from repro.pwl.kernels import active_kernel_backend


@dataclass(frozen=True)
class NewtonOptions:
    """Newton-loop tuning knobs (defaults follow SPICE conventions)."""

    max_iterations: int = 100
    #: absolute node-voltage convergence tolerance [V]
    vtol: float = 1e-9
    #: relative convergence tolerance
    reltol: float = 1e-6
    #: maximum voltage change per Newton iteration [V]
    max_step: float = 0.5
    #: shunt conductance for nonlinear elements
    gmin: float = 1e-12
    #: enable gmin stepping fallback
    gmin_stepping: bool = True
    #: enable source stepping fallback
    source_stepping: bool = True
    #: Jacobian-reuse fast path [V]; 0 recovers the exact Newton
    #: iteration.  When > 0 it turns on two reuses of the nonlinear
    #: stamps (the CNFET bank uses them in transient only, so its DC
    #: solves take exact Newton iterates):
    #:
    #: * *Bypass* (the device evaluation): an element whose controlling
    #:   voltages lie within this tolerance of the bias of its last
    #:   full evaluation is not re-evaluated; its current and charges
    #:   move along that evaluation's tangent and it restamps that
    #:   frozen linearisation.  Compared against the last full
    #:   evaluation, never the last iterate, so slow drift cannot build
    #:   up past the tolerance.  The error is the tangent's,
    #:   O(curvature * tol^2): ~1e-12 V of solution error at the tuned
    #:   default, well under every engine tolerance.  The scalar
    #:   elements (:meth:`CNFETElement.stamp`) and the CNFET bank
    #:   (per device, :meth:`CNFETBank.companion`) both do this.
    #: * *Chord* (the matrix, CNFET bank only): while every device's
    #:   bias stays within ``max(tol, 1e-4 V)`` of its memoised
    #:   linearisation, the bank stamps frozen matrix values and
    #:   rebuilds only the rhs, so the sparse assembler reuses its LU
    #:   factorisation.  The rhs keeps the fixed point exact, so the
    #:   chord trades iterations against factorisations, not accuracy.
    #:
    #: The static phase is still refreshed per step, and a stalling
    #: solve falls back to full, exact assemblies for its remaining
    #: iterations.
    jacobian_reuse_tol: float = 1e-6


def assemble(circuit: Circuit, x: np.ndarray, *, analysis: str = "dc",
             time: Optional[float] = None, dt: Optional[float] = None,
             x_prev: Optional[np.ndarray] = None, method: str = "be",
             gmin: float = 1e-12, source_scale: float = 1.0
             ) -> StampContext:
    """Stamp every element around iterate ``x``; returns the context
    whose ``matrix``/``rhs`` hold the companion system.

    One-phase convenience used by the AC linearisation and tests; the
    Newton loop goes through :class:`TwoPhaseAssembler` instead.
    """
    n = circuit.dimension()
    ctx = StampContext(
        matrix=np.zeros((n, n)),
        rhs=np.zeros(n),
        node_index=circuit.node_index,
        x=x,
        analysis=analysis,
        time=time,
        dt=dt,
        x_prev=x_prev,
        method=method,
        gmin=gmin,
        source_scale=source_scale,
    )
    for el in circuit.elements:
        el.stamp(ctx)
    return ctx


def _recorded(ctx: TripletStampContext, flat: np.ndarray) -> bool:
    """Whether ``ctx`` recorded its triplets at exactly the positions
    ``flat`` (sizes first: the lists are mostly empty)."""
    count = ctx.count
    return count == flat.size and (
        not count or np.array_equal(ctx.m_idx[:count], flat))


class TwoPhaseAssembler:
    """Two-phase assembly of one circuit's CSC system.

    Create once per analysis (or let :func:`newton_solve` make a
    throwaway one), call :meth:`begin_step` whenever the step context —
    ``(analysis, time, dt, x_prev, method, source_scale)`` — changes,
    then :meth:`iterate` per Newton iteration and :meth:`solve` for
    the linear solve through the backend.

    Every backend gets the same assembled system: the pattern's CSC
    structure (:attr:`_indices`/:attr:`_indptr`) and, per iteration,
    the CSC ``data`` vector and the rhs (:attr:`_system`).

    Elements whose stamp reads the Newton iterate must declare
    ``nonlinear = True`` (the documented contract of
    :attr:`Element.nonlinear`); everything else is stamped once per
    step.

    Parameters
    ----------
    circuit : Circuit
        The circuit to assemble.
    backend : None, str or LinearSolverBackend
        Linear-solver backend (see
        :func:`repro.circuit.solvers.resolve_backend`); ``None`` /
        ``"auto"`` picks dense below
        :data:`~repro.circuit.solvers.SPARSE_AUTO_MIN_DIM` unknowns.
    device_stats : dict, optional
        Receives the stacked CNFET counters (``stacked_lanes``,
        ``stacked_fallbacks``, ``stacked_bypassed``) of the circuit's
        fast-backend CNFET bank.
    """

    def __init__(self, circuit: Circuit,
                 backend: BackendLike = None,
                 device_stats: Optional[dict] = None) -> None:
        self.circuit = circuit
        n = circuit.dimension()
        self.n = n
        self.backend = resolve_backend(backend, n)
        #: the linear elements' array-stamped groups plus the fallback
        self._phase = StaticPhase(
            [[el for el in circuit.elements if not el.nonlinear]],
            circuit.node_index, n)
        #: value key ``(analysis, dt, method)`` of the scattered static
        #: data (``None``: scatter at the next iteration)
        self._static_key: Optional[tuple] = None
        (banked,), (self._dynamic,) = split_bank_devices(
            [[el for el in circuit.elements if el.nonlinear]])
        #: the CNFET bank, stamped after the other nonlinear elements
        self.slab: Optional[CNFETSlab] = None
        if banked:
            self.slab = CNFETSlab(CNFETBank(
                banked, circuit.node_index, n, stats=device_stats), n)
        #: the step context; records the fallback's static triplets
        self._static_ctx = TripletStampContext(n, circuit.node_index)
        self._dyn_ctx = TripletStampContext(n, circuit.node_index)
        #: sorted unique flat matrix positions (the pattern key;
        #: _indices/_indptr hold its CSC form)
        self._pattern_flat: Optional[np.ndarray] = None
        self._indices: Optional[np.ndarray] = None
        self._indptr: Optional[np.ndarray] = None
        #: analysis mode (transient step or not) of the pattern
        self._pattern_tran: Optional[bool] = None
        #: CSC slots of the static entries: the groups' non-ground
        #: ones, then the fallback triplets (flat positions in
        #: _static_flat)
        self._static_flat: Optional[np.ndarray] = None
        self._static_map: Optional[np.ndarray] = None
        #: CSC slot of every group entry of the mode (nnz: ground)
        self._group_map: Optional[np.ndarray] = None
        self._static_data: Optional[np.ndarray] = None
        self._static_dirty = True
        #: the static rhs of the step
        self._static_rhs: Optional[np.ndarray] = None
        #: flat positions of the non-bank dynamic triplets, and the
        #: CSC slots of those followed by the bank's kept entries
        self._dyn_flat: Optional[np.ndarray] = None
        self._dyn_map: Optional[np.ndarray] = None
        #: entry kinds of the bank in the pattern (8 DC, 17 tran)
        #: and the bank's (17, P) CSC data slots (nnz: discarded)
        self._bank_kinds = 0
        self._bank_map: Optional[np.ndarray] = None
        self._begun = False
        #: assembled CSC data + rhs of the last iterate
        self._system: Optional[tuple] = None
        #: LU-factorisation reuse across iterations with identical
        #: ``data`` (the Jacobian-reuse chord freezes the stamps, so
        #: comparing the scattered values is enough)
        self._lu_data: Optional[np.ndarray] = None
        self._lu = None

    def begin_step(self, *, analysis: str = "dc",
                   time: Optional[float] = None, dt: Optional[float] = None,
                   x_prev: Optional[np.ndarray] = None, method: str = "be",
                   gmin: float = 1e-12,
                   source_scale: float = 1.0) -> None:
        """Stamp the static (iterate-independent) part of the system:
        the groups' rhs for this step, the fallback elements one by
        one.  The static matrix values are scattered with the next
        iteration, once the pattern is known, and only when their
        value key ``(analysis, dt, method)`` changed (or the fallback
        stamps matrix entries)."""
        n = self.n
        phase = self._phase
        ctx = self._static_ctx
        if phase.fallback:  # the only stamps it records
            ctx.clear()
        ctx.analysis = analysis
        ctx.time = time
        ctx.dt = dt
        ctx.x_prev = x_prev
        ctx.method = method
        ctx.gmin = gmin
        ctx.source_scale = source_scale
        self._static_dirty = True
        self._begun = True
        _, rows = phase.positions(transient_step(ctx))
        rhs = np.bincount(rows, weights=phase.rhs(ctx), minlength=n + 1)[:n]
        for el in phase.fallback:
            el.stamp(ctx)
        self._static_rhs = rhs + ctx.rhs if phase.fallback else rhs
        if self.slab is not None:
            self.slab.begin_step(ctx)

    def iterate(self, x: np.ndarray, reuse_tol: float = 0.0) -> None:
        """Assemble the companion system around iterate ``x`` (kept for
        :meth:`solve`): the static phase plus the nonlinear stamps.

        ``reuse_tol`` > 0 enables the Jacobian-reuse fast path for
        elements that support it (see
        :attr:`NewtonOptions.jacobian_reuse_tol`): an element whose
        controlling voltages moved less than the tolerance since its
        last evaluation may restamp from that frozen linearisation.
        """
        if not self._begun:
            raise AnalysisError("begin_step must be called before iterate")
        src = self._static_ctx
        ctx = self._dyn_ctx
        ctx.x = x
        ctx.analysis = src.analysis
        ctx.time = src.time
        ctx.dt = src.dt
        ctx.x_prev = src.x_prev
        ctx.method = src.method
        ctx.gmin = src.gmin
        ctx.source_scale = src.source_scale
        ctx.reuse_tol = reuse_tol
        if self._dynamic:
            ctx.clear()
            for el in self._dynamic:
                el.stamp(ctx)
        self._assemble(ctx)

    # -- pattern bookkeeping --------------------------------------------

    def _rebuild_pattern(self, tran: bool, s_flat: np.ndarray,
                         d_flat: np.ndarray, kinds: int) -> None:
        """Symbolic CSC pattern + static/dynamic scatter maps.

        Positions depend only on the topology and the analysis mode
        (the static groups' positions are fixed per mode, each other
        element emits a fixed entry sequence per mode, and the bank
        ``kinds`` entries per device), so this runs once per run and
        mode in steady state; a mode switch (dc -> tran adds capacitor
        and charge-companion entries) or a fallback element changing
        its entries is detected by :meth:`_assemble` and rebuilds
        automatically.  The pattern is stored directly in the CSC
        layout and the scatter maps compose the row-major ->
        column-major permutation, so per-iteration work is value
        scatters — no matrix construction or format conversion.  The
        bank's entry table is composed through the same maps into
        :attr:`_bank_map`, which its fused stamp scatters through
        straight into the CSC data.
        """
        g_flat, _ = self._phase.positions(tran)
        kept = g_flat < self.n * self.n
        static_flat = np.concatenate((g_flat[kept], s_flat))
        bank_flat = np.zeros(0, dtype=np.intp)
        if kinds:
            m_idx = self.slab.m_idx[:kinds]
            keep = m_idx < self.n * self.n
            bank_flat = m_idx[keep]
        self._pattern_flat, self._indices, self._indptr, \
            (self._static_map, self._dyn_map) = csc_pattern(
                self.n, static_flat, np.concatenate((d_flat, bank_flat)))
        nnz = self._pattern_flat.size
        self._group_map = np.full(g_flat.size, nnz, dtype=np.intp)
        self._group_map[kept] = self._static_map[:static_flat.size
                                                 - s_flat.size]
        if kinds:
            self._bank_map = np.full(self.slab.m_idx.shape, nnz,
                                     dtype=np.int64)
            self._bank_map[:kinds][keep] = self._dyn_map[d_flat.size:]
        self._bank_kinds = kinds
        self._pattern_tran = tran
        self._static_flat = s_flat.copy()
        self._dyn_flat = d_flat.copy()
        self._static_dirty = True
        self._static_key = None
        self._lu_data = None
        self._lu = None

    def _assemble(self, ctx: TripletStampContext) -> None:
        """Scatter the static phase, the recorded dynamic triplets and
        the bank's fused stamp into CSC data + rhs (kept for
        :meth:`solve`)."""
        static = self._static_ctx
        tran = transient_step(ctx)
        kinds = 0
        if self.slab is not None:
            kinds = 17 if tran else 8
        if (self._pattern_flat is None or kinds != self._bank_kinds
                or tran != self._pattern_tran
                or (self._static_dirty
                    and not _recorded(static, self._static_flat))
                or not _recorded(ctx, self._dyn_flat)):
            self._rebuild_pattern(tran, static.triplets()[0],
                                  ctx.triplets()[0], kinds)
        if self._static_dirty:
            key = (ctx.analysis, ctx.dt, ctx.method)
            if key != self._static_key or static.count:
                nnz = self._pattern_flat.size
                self._static_data = np.bincount(
                    self._group_map,
                    weights=self._phase.matrix(static),
                    minlength=nnz + 1)[:nnz]
                if static.count:
                    self._static_data += np.bincount(
                        self._static_map[-static.count:],
                        weights=static.triplets()[1], minlength=nnz)
                self._static_key = key
            self._static_dirty = False
        if ctx.count:
            data = active_kernel_backend().scatter_accum(
                self._static_data, self._dyn_map[:ctx.count],
                ctx.triplets()[1])
        else:
            data = self._static_data.copy()
        rhs = self._static_rhs + ctx.rhs if self._dynamic \
            else self._static_rhs.copy()
        if kinds:
            self.slab.stamp(ctx, (data, self._bank_map, rhs,
                                  self.slab.r_idx))
        self._system = (data, rhs)

    def solve(self) -> np.ndarray:
        """Solve the assembled system through the backend (raises
        :class:`~repro.errors.AnalysisError` when singular)."""
        data, rhs = self._system
        # Factorisation reuse: when the Jacobian-reuse chord froze
        # every stamp, the scattered values are bit-identical to the
        # previous iteration's and a backend's reusable factorisation
        # (SuperLU's) can be skipped outright.
        if self._lu is not None \
                and data.size == self._lu_data.size \
                and np.array_equal(data, self._lu_data):
            return self._lu.solve(rhs)
        lu = self.backend.factorize_csc(
            self.n, data, self._indices, self._indptr)
        if lu is not None:
            self._lu = lu
            self._lu_data = data
            return lu.solve(rhs)
        return self.backend.solve_csc(
            self.n, data, self._indices, self._indptr, rhs)


def newton_solve(circuit: Circuit, x0: np.ndarray,
                 options: NewtonOptions = NewtonOptions(), *,
                 analysis: str = "dc", time: Optional[float] = None,
                 dt: Optional[float] = None,
                 x_prev: Optional[np.ndarray] = None, method: str = "be",
                 gmin: Optional[float] = None,
                 source_scale: float = 1.0,
                 assembler: Optional[TwoPhaseAssembler] = None,
                 stats: Optional[dict] = None,
                 backend: BackendLike = None,
                 cancel: Optional[CancelToken] = None) -> np.ndarray:
    """Damped Newton iteration; raises :class:`AnalysisError` on failure.

    Pass a reusable ``assembler`` (transient does, once per analysis) to
    amortise its pattern and buffers across steps; ``backend`` selects the
    linear-solver backend when no assembler is given.  When a ``stats``
    dict is supplied, ``"iterations"`` and ``"solves"`` counters are
    accumulated into it (the benchmark report reads them).  A ``cancel``
    token is checked once per iteration, so a deadline or an explicit
    cancellation unwinds within one iteration's latency.
    """
    x = x0.copy()
    n_nodes = len(circuit.node_index)
    use_gmin = options.gmin if gmin is None else gmin
    if assembler is None:
        assembler = TwoPhaseAssembler(circuit, backend=backend)
    assembler.begin_step(
        analysis=analysis, time=time, dt=dt, x_prev=x_prev, method=method,
        gmin=use_gmin, source_scale=source_scale,
    )
    reuse_tol = options.jacobian_reuse_tol
    # Convergence-stall fallback for the reuse fast path: past half the
    # iteration budget every assembly is forced fresh.
    stall_cap = options.max_iterations // 2
    # Local counters, flushed once per solve — the per-iteration
    # ``stats.get`` dict churn used to show up on long transients.
    iterations = 0
    max_dv = None
    worst = None
    try:
        for iterations in range(1, options.max_iterations + 1):
            if cancel is not None:
                cancel.check()
            assembler.iterate(
                x,
                reuse_tol if iterations <= stall_cap else 0.0,
            )
            try:
                if faults.fire("solver.singular"):
                    raise np.linalg.LinAlgError(
                        "injected singular system (fault seam "
                        "solver.singular)")
                x_new = assembler.solve()
            except np.linalg.LinAlgError as exc:
                # Backends normally diagnose singularity themselves; a
                # raw LinAlgError escaping here must not abort a whole
                # campaign when gmin/source stepping could recover.
                raise AnalysisError(
                    f"singular MNA matrix ({exc}); check for floating "
                    f"nodes"
                ) from exc
            delta = x_new - x
            # Damp voltage unknowns only; branch currents may move
            # freely.
            v_delta = delta[:n_nodes]
            if n_nodes:
                abs_dv = np.abs(v_delta)
                worst = int(abs_dv.argmax())
                max_dv = float(abs_dv[worst])
            else:
                max_dv = 0.0
            if max_dv > options.max_step:
                delta = delta * (options.max_step / max_dv)
            x = x + delta
            converged = (
                np.abs(delta[:n_nodes])
                <= options.vtol + options.reltol * np.abs(x[:n_nodes])
            ).all()
            if converged and max_dv <= options.max_step:
                return x
    finally:
        if stats is not None:
            stats["solves"] = stats.get("solves", 0) + 1
            stats["iterations"] = stats.get("iterations", 0) + iterations
    raise AnalysisError(
        f"Newton did not converge in {options.max_iterations} iterations "
        f"(analysis={analysis}, t={time})",
        residual=max_dv,
        node=_node_name(circuit, worst),
    )


def _node_name(circuit: Circuit, index: Optional[int]) -> Optional[str]:
    """Node name for a voltage-unknown index (``None`` when unknown)."""
    if index is None:
        return None
    for name, position in circuit.node_index.items():
        if position == index:
            return name
    return None


def robust_dc_solve(circuit: Circuit, x0: Optional[np.ndarray] = None,
                    options: NewtonOptions = NewtonOptions(),
                    assembler: Optional[TwoPhaseAssembler] = None,
                    backend: BackendLike = None,
                    cancel: Optional[CancelToken] = None) -> np.ndarray:
    """DC solve with gmin/source-stepping fallbacks.

    ``backend`` selects the linear-solver backend when no reusable
    ``assembler`` is supplied.  Source stepping first continues from
    the last gmin-stepping iterate (when that strategy ran) — the
    partially-converged point is usually a better ramp start — and
    re-ramps from the caller's start point if that fails (a diverged
    gmin iterate can be worse than no warm start at all).  On total
    failure the :class:`AnalysisError` reports
    every strategy tried and the best (smallest) final Newton update
    with its worst node, so the diagnosis names where convergence
    stalled instead of just "diverged".
    """
    n = circuit.dimension()
    x_start = np.zeros(n) if x0 is None else x0.copy()
    if assembler is None:
        assembler = TwoPhaseAssembler(circuit, backend=backend)
    tried: list = []

    def _best() -> "tuple[Optional[float], Optional[str]]":
        known = [(exc.residual, exc.node) for _, exc in tried
                 if exc.residual is not None]
        if not known:
            return None, None
        return min(known, key=lambda pair: pair[0])

    try:
        return newton_solve(circuit, x_start, options, analysis="dc",
                            assembler=assembler, cancel=cancel)
    except AnalysisError as exc:
        tried.append(("newton", exc))
    # Source stepping ramps from the most-converged point available:
    # the last gmin-stepping iterate when that strategy ran, else the
    # caller's start point.
    x_ramp = x_start.copy()
    if options.gmin_stepping:
        x = x_start.copy()
        try:
            for exponent in range(3, 13):
                x = newton_solve(
                    circuit, x, options, analysis="dc",
                    gmin=10.0 ** (-exponent), assembler=assembler,
                    cancel=cancel,
                )
                x_ramp = x
            return newton_solve(circuit, x, options, analysis="dc",
                                assembler=assembler, cancel=cancel)
        except AnalysisError as exc:
            tried.append(("gmin-stepping", exc))
    if options.source_stepping:
        starts = [x_ramp]
        if not np.array_equal(x_ramp, x_start):
            starts.append(x_start.copy())
        failure: Optional[AnalysisError] = None
        for x in starts:
            try:
                for scale in (0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0):
                    x = newton_solve(
                        circuit, x, options, analysis="dc",
                        source_scale=scale, assembler=assembler,
                        cancel=cancel,
                    )
                return x
            except AnalysisError as exc:
                if (failure is None or failure.residual is None
                        or (exc.residual is not None
                            and exc.residual < failure.residual)):
                    failure = exc
        tried.append(("source-stepping", failure))
    strategies = tuple(name for name, _ in tried)
    residual, node = _best()
    detail = ""
    if residual is not None:
        detail = (f"; best residual {residual:.3g} V"
                  + (f" at node {node!r}" if node else ""))
    raise AnalysisError(
        f"DC operating point failed after "
        f"{', '.join(strategies) or 'no strategies'}{detail}",
        residual=residual, node=node, strategies=strategies,
    )
