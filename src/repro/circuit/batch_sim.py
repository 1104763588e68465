"""Lane-batched MNA + transient engine: many circuit instances, one
stacked solve.

The scalar engine advances one circuit through one Python-level Newton/
transient loop.  Multi-scenario workloads — a gate-characterization
load x slew grid, a Monte-Carlo ring-oscillator campaign — run many
*instances of the same topology* that differ only in parameters (load
caps, source waveforms, per-lane CNFET geometry).  This module advances
``B`` such instances (*lanes*) in lock-step:

* :class:`LaneBatch` stacks assembly into ``(B, n+1, n+1)`` matrix /
  ``(B, n+1)`` rhs stacks (the extra row/column is a ground pad), with
  the same static/dynamic split as :class:`TwoPhaseAssembler`.  The
  built-in linear classes stamp through the scalar engines' static
  groups (:class:`~repro.circuit.elements.base.StaticGroup`), built
  over all lanes; the CNFETs evaluate as one bank (the stacked closed
  forms of :mod:`repro.pwl.batch`); anything else falls back to a
  per-lane scalar loop, so every circuit is batchable.
* the lock-step Newton iteration solves all active lanes through one
  batched ``np.linalg.solve`` on the stack, damps and checks
  convergence per lane, and *freezes* converged lanes while stragglers
  iterate; lanes whose Newton fails are retried (step shrink) and
  ultimately re-simulated through the scalar engine (exact per-lane
  fallback).
* :func:`batch_transient` steps through the same two loops as the
  scalar engine (:mod:`repro.circuit.transient`, whose runs are their
  one-lane case): fixed-step mode marches every lane on a shared grid
  (the union of all lanes' waveform breakpoints is landed on exactly);
  adaptive mode drives the LTE/PI controller from the **worst-lane**
  error and retires lanes that reach their per-lane ``tstop`` early.
  This module supplies the lane-batched run state (:class:`_RunState`).

Waveform parity with the scalar engine is a few closed-form residuals
(~1e-12 V) per step — see ``tests/test_batch_sim.py`` and the
``batch_transient`` section of ``BENCH_perf.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuit.elements.base import (
    LaneContext,
    StaticPhase,
    transient_step,
)
from repro.circuit.elements.sources import CurrentSource, VoltageSource
from repro.circuit.mna import NewtonOptions, robust_dc_solve
from repro.circuit.netlist import Circuit
from repro.circuit.results import Dataset
from repro.circuit.solvers import BackendLike, resolve_backend
from repro.circuit.transient import (
    _adaptive_lockstep,
    _collect_breakpoints,
    _fixed_lockstep,
    _step_options,
    _trace_dataset,
    transient,
)
from repro.circuit.waveforms import DC
from repro.errors import AnalysisError, NetlistError, ParameterError

__all__ = ["LaneBatch", "BatchTransientResult", "batch_transient",
           "batch_operating_points", "batch_dc_sweep"]


class LaneBatch:
    """Stacked two-phase assembler over ``B`` same-topology circuits.

    Validates that every circuit shares the template's topology (same
    element order, types, names, terminal nodes and system layout) and
    owns the preallocated matrix/rhs stacks.  The linear elements of
    every lane form one
    :class:`~repro.circuit.elements.base.StaticPhase` (the scalar
    engines' static groups, over all lanes); every other slot is
    grouped per class through
    :meth:`~repro.circuit.elements.base.Element.lane_groups`.
    """

    def __init__(self, circuits: Sequence[Circuit],
                 backend: BackendLike = None) -> None:
        if not circuits:
            raise ParameterError("need at least one lane circuit")
        self.circuits = list(circuits)
        self.n_lanes = len(self.circuits)
        template = self.circuits[0]
        dim = template.dimension()
        #: linear-solver backend for the stacked solves (``"auto"``
        #: keeps the batched dense solve below the sparse crossover
        #: dimension — see :func:`repro.circuit.solvers.resolve_backend`)
        self.backend = resolve_backend(backend, dim)
        for lane, circuit in enumerate(self.circuits[1:], start=1):
            if circuit.dimension() != dim \
                    or circuit.node_index != template.node_index:
                raise NetlistError(
                    f"lane {lane} does not match the template system "
                    f"layout (same-topology circuits required)"
                )
            if len(circuit.elements) != len(template.elements):
                raise NetlistError(
                    f"lane {lane} has {len(circuit.elements)} elements, "
                    f"template has {len(template.elements)}"
                )
            for el, ref in zip(circuit.elements, template.elements):
                if type(el) is not type(ref) or el.nodes != ref.nodes \
                        or el.name != ref.name \
                        or el.aux_index != ref.aux_index:
                    raise NetlistError(
                        f"lane {lane} element {el.name!r} does not "
                        f"match the template topology"
                    )
        # per-step state lives on the elements: one object per lane
        if len({id(el) for c in self.circuits for el in c.elements}) \
                != self.n_lanes * len(template.elements):
            raise NetlistError("lane circuits share element objects")
        self.dim = dim
        self.n_nodes = len(template.node_index)
        self.node_index = template.node_index
        self._phase = StaticPhase(
            [[el for el in c.elements if not el.nonlinear]
             for c in self.circuits], self.node_index, dim)
        fallback = {id(el) for el in self._phase.fallback}
        # The other slots grouped per element class: classes whose
        # vectorization spans slots (CNFET) stack them into one group.
        by_class: Dict[type, List[List]] = {}
        for slot, el in enumerate(template.elements):
            if el.nonlinear or id(el) in fallback:
                by_class.setdefault(type(el), []).append(
                    [c.elements[slot] for c in self.circuits])
        self.groups = [group for cls, slots in by_class.items()
                       for group in cls.lane_groups(slots)]
        self._static = [g for g in self.groups if not g.nonlinear]
        self._dynamic = [g for g in self.groups if g.nonlinear]
        pad = dim + 1
        b = self.n_lanes
        self._static_matrix = np.zeros((b, pad, pad))
        self._static_rhs = np.zeros((b, pad))
        self._matrix = np.zeros((b, pad, pad))
        self._rhs = np.zeros((b, pad))
        self._ctx: Optional[LaneContext] = None
        #: per analysis mode, the static groups' entries in the stacks
        self._positions: Dict[bool, Tuple[np.ndarray, np.ndarray]] = {}
        #: value key ``(analysis, dt, method)`` of the scattered static
        #: matrix (``None``: scatter at the next step)
        self._static_key: Optional[tuple] = None

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Forget every lane's transient state (run start): the
        elements' own, where the static groups keep it, and the lane
        groups'."""
        for circuit in self.circuits:
            circuit.reset_state()
        for group in self.groups:
            group.reset()

    def _static_positions(self, tran: bool
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat positions of the static groups' ``(kinds, B, E)``
        entries in the matrix and rhs stacks (grounded entries on each
        lane's pad row/column)."""
        cached = self._positions.get(tran)
        if cached is None:
            pad = self.dim + 1
            lane = np.arange(self.n_lanes)[:, None] * pad
            flat, rhs_rows = [np.zeros(0, dtype=np.intp)], \
                [np.zeros(0, dtype=np.intp)]
            for group in self._phase.groups:
                rows, cols, rhs = group.layout(tran)
                flat.append(((lane + rows[:, None]) * pad
                             + cols[:, None]).ravel())
                rhs_rows.append((lane + rhs[:, None]).ravel())
            cached = self._positions[tran] = (
                np.concatenate(flat), np.concatenate(rhs_rows))
        return cached

    def begin_step(self, x_sample: np.ndarray, lanes: np.ndarray, *,
                   analysis: str = "dc", time: Optional[float] = None,
                   dt: Optional[float] = None,
                   x_prev: Optional[np.ndarray] = None,
                   method: str = "be", gmin: float = 1e-12,
                   source_scale: float = 1.0) -> None:
        """Stamp the static phase: the groups' values for every lane,
        then the fallback groups for the active lanes.  The matrix is
        re-scattered only when its value key ``(analysis, dt,
        method)`` changes (or a fallback group stamps)."""
        ctx = LaneContext(
            matrix=self._static_matrix, rhs=self._static_rhs,
            node_index=self.node_index, x=x_sample, lanes=lanes,
            analysis=analysis, time=time, dt=dt, x_prev=x_prev,
            method=method, gmin=gmin, source_scale=source_scale,
        )
        phase = self._phase
        flat, rows = self._static_positions(transient_step(ctx))
        rhs = self._static_rhs.reshape(-1)
        rhs[:] = np.bincount(rows, weights=phase.rhs(ctx),
                             minlength=rhs.size)
        key = (analysis, dt, method)
        if key != self._static_key or self._static:
            matrix = self._static_matrix.reshape(-1)
            matrix[:] = np.bincount(flat, weights=phase.matrix(ctx),
                                    minlength=matrix.size)
            self._static_key = key
        for group in self._static:
            group.stamp(ctx)
        self._ctx = ctx

    def iterate(self, x: np.ndarray, lanes: np.ndarray) -> LaneContext:
        """Stacked companion system around iterate stack ``x`` for the
        active ``lanes``."""
        ctx = self._ctx
        if ctx is None:
            raise AnalysisError("begin_step must be called before iterate")
        self._matrix[lanes] = self._static_matrix[lanes]
        self._rhs[lanes] = self._static_rhs[lanes]
        ctx.matrix = self._matrix
        ctx.rhs = self._rhs
        ctx.x = x
        ctx.lanes = lanes
        for group in self._dynamic:
            group.stamp(ctx)
        return ctx

    def begin_run(self, x: np.ndarray, method: str) -> None:
        """Prime the groups' per-lane state at the initial solution."""
        ctx = LaneContext(self._matrix, self._rhs, self.node_index, x,
                          np.arange(self.n_lanes), analysis="tran",
                          time=0.0, dt=1.0, x_prev=x, method=method)
        for group in self.groups:
            group.begin_run(ctx)

    def accept(self, x: np.ndarray, x_prev: np.ndarray,
               lanes: np.ndarray, time: float, dt: float,
               method: str) -> None:
        """Commit a converged step for ``lanes``: the static groups'
        state on the elements, then every lane group's."""
        ctx = LaneContext(self._matrix, self._rhs, self.node_index, x,
                          lanes, analysis="tran", time=time, dt=dt,
                          x_prev=x_prev, method=method)
        for group in self._phase.groups + self.groups:
            group.accept(ctx)


# ----------------------------------------------------------------------
# Lock-step Newton
# ----------------------------------------------------------------------

def _lockstep_newton(batch: LaneBatch, x: np.ndarray,
                     lanes: np.ndarray,
                     options: NewtonOptions, *,
                     analysis: str = "dc",
                     time: Optional[float] = None,
                     dt: Optional[float] = None,
                     x_prev: Optional[np.ndarray] = None,
                     method: str = "be",
                     gmin: Optional[float] = None,
                     source_scale: float = 1.0,
                     x_start: Optional[np.ndarray] = None,
                     stats: Optional[dict] = None
                     ) -> Tuple[np.ndarray, List[int]]:
    """One lock-step damped-Newton solve across ``lanes``.

    Converged lanes freeze while stragglers iterate.  Returns
    ``(x_new, failed)`` where ``x_new`` is the full ``(B, dim)`` stack
    (failed lanes keep their incoming value) and ``failed`` lists lanes
    whose Newton did not converge (singular system, non-finite update,
    or iteration cap).
    """
    n_nodes = batch.n_nodes
    use_gmin = options.gmin if gmin is None else gmin
    x_new = x.copy()
    if x_start is not None:
        x_new[lanes] = x_start[lanes]
    batch.begin_step(
        x_new, lanes, analysis=analysis, time=time, dt=dt, x_prev=x_prev,
        method=method, gmin=use_gmin, source_scale=source_scale,
    )
    active = np.array(lanes, dtype=int, copy=True)
    failed: List[int] = []
    local_iter = local_lane_iter = local_solves = 0
    for _ in range(options.max_iterations):
        if active.size == 0:
            break
        local_iter += 1
        local_lane_iter += active.size
        ctx = batch.iterate(x_new, active)
        a = ctx.matrix[active][:, :batch.dim, :batch.dim]
        z = ctx.rhs[active][:, :batch.dim]
        local_solves += 1
        # Singular lanes come back as NaN rows from the backend and
        # fall into the non-finite failure path right below.
        solved = batch.backend.solve_stacked(a, z)
        delta = solved - x_new[active]
        bad = ~np.isfinite(delta).all(axis=1)
        if bad.any():
            failed.extend(int(l) for l in active[bad])
            active = active[~bad]
            delta = delta[~bad]
            if active.size == 0:
                break
        v_delta = delta[:, :n_nodes]
        max_dv = np.abs(v_delta).max(axis=1) if n_nodes \
            else np.zeros(active.size)
        over = max_dv > options.max_step
        if over.any():
            scale = np.where(over, options.max_step
                             / np.where(over, max_dv, 1.0), 1.0)
            delta = delta * scale[:, None]
        x_new[active] += delta
        tol = options.vtol + options.reltol \
            * np.abs(x_new[active][:, :n_nodes])
        converged = (np.abs(delta[:, :n_nodes]) <= tol).all(axis=1) \
            & ~over
        active = active[~converged]
    else:
        failed.extend(int(l) for l in active)
    if stats is not None:
        stats["solves"] = stats.get("solves", 0) + 1
        stats["iterations"] = stats.get("iterations", 0) + local_iter
        stats["lane_iterations"] = \
            stats.get("lane_iterations", 0) + local_lane_iter
        stats["stacked_solves"] = \
            stats.get("stacked_solves", 0) + local_solves
    for lane in failed:
        x_new[lane] = x[lane]
    return x_new, failed


# ----------------------------------------------------------------------
# DC
# ----------------------------------------------------------------------

def batch_operating_points(circuits: Sequence[Circuit],
                           options: NewtonOptions = NewtonOptions(),
                           batch: Optional[LaneBatch] = None,
                           stats: Optional[dict] = None,
                           backend: BackendLike = None) -> np.ndarray:
    """Stacked DC operating points; ``(B, dim)`` solution stack.

    Lock-step plain Newton first; lanes that fail re-run through the
    scalar :func:`robust_dc_solve` (gmin/source stepping), so the
    result matches the scalar path lane by lane.  Raises
    :class:`AnalysisError` only if a lane fails even scalar-side.
    """
    if batch is None:
        batch = LaneBatch(circuits, backend=backend)
    batch.reset()
    lanes = np.arange(batch.n_lanes)
    x = np.zeros((batch.n_lanes, batch.dim))
    x, failed = _lockstep_newton(batch, x, lanes, options,
                                 analysis="dc", stats=stats)
    for lane in failed:
        x[lane] = robust_dc_solve(batch.circuits[lane], None, options)
    if stats is not None and failed:
        stats["dc_scalar_fallbacks"] = \
            stats.get("dc_scalar_fallbacks", 0) + len(failed)
    return x


def batch_dc_sweep(circuits: Sequence[Circuit], source_name: str,
                   values: Sequence[float],
                   options: NewtonOptions = NewtonOptions(),
                   stats: Optional[dict] = None,
                   backend: BackendLike = None) -> List[Dataset]:
    """Lane-batched :func:`repro.circuit.dc.dc_sweep`.

    Sweeps the named independent source of *every* lane through the
    shared ``values`` grid, one lock-step DC solve per grid point with
    continuation from the previous point.  Per lane the returned
    :class:`Dataset` carries ``v(node)`` traces plus voltage-source
    branch currents (CNFET current traces, which the MC consumers do
    not read, are omitted).
    """
    batch = LaneBatch(circuits, backend=backend)
    sources = [c.element(source_name) for c in batch.circuits]
    for source in sources:
        if not isinstance(source, (VoltageSource, CurrentSource)):
            raise NetlistError(
                f"{source_name!r} is not an independent source"
            )
    originals = [s.waveform for s in sources]
    lanes = np.arange(batch.n_lanes)
    values = [float(v) for v in values]
    rows = np.empty((len(values), batch.n_lanes, batch.dim))
    try:
        batch.reset()
        x = np.zeros((batch.n_lanes, batch.dim))
        for i, value in enumerate(values):
            for source in sources:
                source.waveform = DC(value)
            x, failed = _lockstep_newton(batch, x, lanes, options,
                                         analysis="dc", stats=stats)
            for lane in failed:
                x[lane] = robust_dc_solve(
                    batch.circuits[lane],
                    rows[i - 1, lane].copy() if i else None, options)
            rows[i] = x
    finally:
        for source, original in zip(sources, originals):
            source.waveform = original
    datasets = []
    for lane in range(batch.n_lanes):
        dataset = Dataset(source_name, values)
        for node, idx in batch.node_index.items():
            dataset.add_trace(f"v({node})", rows[:, lane, idx])
        for el in batch.circuits[lane].iter_elements(VoltageSource):
            dataset.add_trace(f"i({el.name})", rows[:, lane, el.aux_index])
        datasets.append(dataset)
    return datasets


# ----------------------------------------------------------------------
# Transient
# ----------------------------------------------------------------------

@dataclass
class BatchTransientResult:
    """Per-lane outcome of a :func:`batch_transient` run.

    ``datasets[lane]`` is the lane's waveform set (``None`` when the
    lane failed even scalar-side; ``errors[lane]`` then holds the
    message).  ``fallback_lanes`` lists lanes that left the batch and
    were re-simulated through the scalar engine.
    """

    datasets: List[Optional[Dataset]]
    errors: Dict[int, str] = field(default_factory=dict)
    fallback_lanes: Tuple[int, ...] = ()
    stats: dict = field(default_factory=dict)

    def __getitem__(self, lane: int) -> Dataset:
        dataset = self.datasets[lane]
        if dataset is None:
            raise AnalysisError(
                f"lane {lane} failed: {self.errors.get(lane, 'unknown')}"
            )
        return dataset


class _BatchRecorder:
    """Shared-axis recorder: one time list, per-lane live spans."""

    def __init__(self, x0: np.ndarray) -> None:
        self.times: List[float] = [0.0]
        self.solutions: List[np.ndarray] = [x0.copy()]
        self.length = np.full(x0.shape[0], 1, dtype=int)
        #: lane-major ``(B, steps, dim)`` stack of ``solutions``, built
        #: by the first :meth:`dataset` call after a step
        self._lanes: Optional[np.ndarray] = None

    def accept(self, t: float, x: np.ndarray,
               alive: np.ndarray) -> None:
        self.times.append(t)
        self.solutions.append(x.copy())
        self.length[alive] = len(self.times)
        self._lanes = None

    def dataset(self, batch: LaneBatch, lane: int,
                record_currents) -> Dataset:
        if self._lanes is None:
            self._lanes = np.stack(self.solutions, axis=1)
        k = int(self.length[lane])
        return _trace_dataset(batch.circuits[lane], self.times[:k],
                              self._lanes[lane, :k], record_currents)


def batch_transient(
    circuits: Sequence[Circuit],
    tstop: Union[float, Sequence[float]],
    dt: Optional[float] = None,
    method: str = "trap",
    options: NewtonOptions = NewtonOptions(),
    record_currents: Union[bool, str] = True,
    x0: Optional[np.ndarray] = None,
    max_halvings: Optional[int] = None,
    stats: Optional[dict] = None,
    *,
    adaptive: Optional[bool] = None,
    rtol: Optional[float] = None,
    atol: Optional[float] = None,
    dt_min: Optional[float] = None,
    dt_max: Optional[float] = None,
    batch: Optional[LaneBatch] = None,
    backend: BackendLike = None,
) -> BatchTransientResult:
    """Integrate ``B`` same-topology circuit instances in lock-step.

    Parameters mirror :func:`repro.circuit.transient.transient`;
    differences:

    tstop : float or sequence of float
        Shared or per-lane stop times [s].  Lanes whose stop time is
        shorter than the longest *retire* once reached (their waveforms
        end there) while the remaining lanes keep integrating.
    x0 : numpy.ndarray, optional
        ``(B, dim)`` initial solution stack (default: stacked DC
        operating points via :func:`batch_operating_points`).
    record_currents : bool or "sources"
        ``True`` mirrors the scalar engine (source branch currents
        plus a CNFET drain-current post-pass); ``"sources"`` records
        only the branch currents, which are free columns of the
        solution stack — the CNFET post-pass re-solves every recorded
        row per device, which on a batch's dense shared axis can cost
        more than the integration itself.
    batch : LaneBatch, optional
        A prebuilt assembler over the same circuits — callers that
        already built one (e.g. for :func:`batch_operating_points`)
        skip the duplicate topology validation and stacked-table
        construction.
    backend : None, str or LinearSolverBackend, optional
        Linear-solver backend for the stacked solves when no prebuilt
        ``batch`` is passed; ``"auto"`` (default) keeps the batched
        dense solve below the sparse crossover dimension and switches
        to per-lane SuperLU above it.

    Stepping modes (shared grid; the loops of
    :mod:`repro.circuit.transient`, which also step the scalar engine):

    * **fixed** (``dt`` given) — every lane advances at ``dt``; the
      union of all lanes' waveform breakpoints is landed on exactly;
      Newton failures halve the shared step up to ``max_halvings``.
    * **adaptive** — the LTE/PI controller driven by the
      worst-lane scaled error; per-lane predictor history restarts at
      that lane's own waveform breakpoints; rejection (LTE or Newton)
      shrinks the shared step.

    Returns
    -------
    BatchTransientResult
        Per-lane datasets (shared, possibly non-uniform time axis),
        scalar-fallback lanes, per-lane errors, run stats.
    """
    if batch is None:
        batch = LaneBatch(circuits, backend=backend)
    n_lanes = batch.n_lanes
    if np.isscalar(tstop):
        tstops = np.full(n_lanes, float(tstop))
    else:
        tstops = np.asarray(tstop, dtype=float)
        if tstops.shape != (n_lanes,):
            raise ParameterError(
                f"tstop must be a scalar or one value per lane; got "
                f"shape {tstops.shape} for {n_lanes} lanes"
            )
    if (tstops <= 0.0).any():
        raise ParameterError(f"tstop must be > 0: {tstops!r}")
    t_end = float(tstops.max())
    adaptive, max_halvings, rtol, atol, dt_min, dt_max = _step_options(
        t_end, method, dt, adaptive, max_halvings, rtol, atol, dt_min,
        dt_max)

    run_stats: dict = stats if stats is not None else {}
    for group in batch.groups:
        group.stats = run_stats
    batch.reset()
    if x0 is None:
        x = batch_operating_points(batch.circuits, options, batch=batch,
                                   stats=run_stats)
    else:
        x = np.asarray(x0, dtype=float).copy()
        if x.shape != (n_lanes, batch.dim):
            raise ParameterError(
                f"x0 has shape {x.shape}, expected "
                f"({n_lanes}, {batch.dim})"
            )

    # Union breakpoint schedule: waveform corners per lane (history
    # restarts apply to the owning lanes only) plus every distinct
    # per-lane stop time (so retirement lands exactly).
    eps = 1e-15 * t_end
    bp_lanes: Dict[float, List[int]] = {}
    for lane, circuit in enumerate(batch.circuits):
        for t in _collect_breakpoints(circuit, float(tstops[lane])):
            bp_lanes.setdefault(t, []).append(lane)
    bp_times = sorted(set(bp_lanes) | {
        float(t) for t in tstops if t < t_end - eps
    })

    state = _RunState(batch, x, tstops, run_stats, record_currents,
                      options, method)
    batch.begin_run(x, method)
    if adaptive:
        _adaptive_lockstep(state, t_end, bp_times, bp_lanes, rtol, atol,
                           dt_min, dt_max, dt)
    else:
        _fixed_lockstep(state, t_end, bp_times, dt, max_halvings)
    return state.finish(dt=dt, adaptive=adaptive, rtol=rtol, atol=atol,
                        dt_min=dt_min, dt_max=dt_max,
                        max_halvings=max_halvings)


class _RunState:
    """Lane-batched run state of the shared stepping loops (the
    contract is described next to
    :func:`repro.circuit.transient._fixed_lockstep`)."""

    def __init__(self, batch: LaneBatch, x: np.ndarray,
                 tstops: np.ndarray, stats: dict, record_currents: bool,
                 options: NewtonOptions, method: str) -> None:
        self.batch = batch
        self.x = x
        self.x0 = x.copy()
        self.tstops = tstops
        self.stats = stats
        self.record_currents = record_currents
        self.options = options
        self.method = method
        self.n_nodes = batch.n_nodes
        self.alive = np.ones(batch.n_lanes, dtype=bool)
        self.recorder = _BatchRecorder(x)
        self.dropped: List[int] = []

    @property
    def alive_lanes(self) -> np.ndarray:
        return np.flatnonzero(self.alive)

    def newton(self, time: float, dt: float,
               x_start: Optional[np.ndarray] = None
               ) -> Tuple[np.ndarray, List[int]]:
        """One lock-step transient solve over the alive lanes."""
        return _lockstep_newton(
            self.batch, self.x, self.alive_lanes, self.options,
            analysis="tran", time=time, dt=dt, x_prev=self.x,
            method=self.method, x_start=x_start, stats=self.stats,
        )

    def drop(self, lanes: Sequence[int], why: str) -> None:
        """Remove lanes from the batch; :meth:`finish` re-simulates them
        through the scalar engine, whose own error (if any) is the one
        reported, so ``why`` is not kept."""
        for lane in lanes:
            self.alive[lane] = False
            self.dropped.append(int(lane))

    def retire(self, t: float, eps: float) -> None:
        done = self.alive & (self.tstops <= t + eps)
        if done.any():
            self.alive &= ~done
            self.stats["retired_lanes"] = \
                self.stats.get("retired_lanes", 0) + int(done.sum())

    def accept(self, t: float, x_new: np.ndarray, step: float) -> None:
        alive = self.alive_lanes
        self.batch.accept(x_new, self.x, alive, t, step, self.method)
        self.recorder.accept(t, x_new, alive)
        self.x = x_new
        self.stats["steps"] = self.stats.get("steps", 0) + 1

    def finish(self, **run_kwargs) -> BatchTransientResult:
        batch = self.batch
        datasets: List[Optional[Dataset]] = [None] * batch.n_lanes
        errors: Dict[int, str] = {}
        for lane in range(batch.n_lanes):
            if lane not in self.dropped:
                datasets[lane] = self.recorder.dataset(
                    batch, lane, self.record_currents)
        for lane in self.dropped:
            try:
                datasets[lane] = self._scalar_rerun(lane, run_kwargs)
            except AnalysisError as exc:
                errors[lane] = str(exc)
        self.stats["fallback_lanes"] = len(self.dropped)
        return BatchTransientResult(
            datasets=datasets, errors=errors,
            fallback_lanes=tuple(self.dropped), stats=self.stats,
        )

    def _scalar_rerun(self, lane: int, run_kwargs: dict) -> Dataset:
        """Exact per-lane fallback: the scalar engine, same settings."""
        kwargs = dict(
            tstop=float(self.tstops[lane]), method=self.method,
            options=self.options,
            record_currents=self.record_currents,
            x0=self.x0[lane].copy(),
        )
        if run_kwargs["adaptive"]:
            fb_dt_max = min(run_kwargs["dt_max"], kwargs["tstop"] / 2.0)
            kwargs.update(
                adaptive=True, rtol=run_kwargs["rtol"],
                atol=run_kwargs["atol"],
                dt_min=min(run_kwargs["dt_min"], fb_dt_max),
                dt_max=fb_dt_max,
            )
            if run_kwargs["dt"] is not None:
                kwargs["dt"] = run_kwargs["dt"]
        else:
            kwargs.update(dt=run_kwargs["dt"],
                          max_halvings=run_kwargs["max_halvings"])
        return transient(self.batch.circuits[lane], **kwargs)
