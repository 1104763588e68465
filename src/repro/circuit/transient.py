"""Transient analysis: adaptive LTE-controlled BE/trapezoidal engine.

Two stepping modes share one Newton back end (the two-phase assembler,
so static stamps are refreshed once per step attempt, never per
iteration):

* **fixed-step** (``dt`` given) — the legacy engine: march at ``dt``,
  halve locally (up to ``max_halvings`` times) when a step's Newton
  iteration fails to converge, then re-double.  Byte-for-byte the
  historical behaviour for circuits without source breakpoints.
* **adaptive** (``dt`` omitted or ``adaptive=True``) — variable-step
  integration with per-step local-truncation-error (LTE) control: a
  polynomial predictor extrapolates the solution history, the implicit
  corrector (BE or trapezoidal) solves the step, and the scaled
  predictor–corrector difference estimates the LTE.  A PI controller
  picks the next step; steps whose error exceeds ``rtol``/``atol`` are
  rejected and retried smaller, and Newton failures feed the same
  rejection path (shrink by 4x).  ``dt_min``/``dt_max`` bound the step.

Both modes are **event-aware**: waveform breakpoints (PULSE edges, PWL
corners — see :meth:`Waveform.breakpoints`) are landed on exactly, so a
source edge falling between two natural steps is never smeared.

The two stepping loops here are the only ones in the package: they
are written over a ``(B, n)`` lane stack and also drive the
lane-batched engine (:mod:`repro.circuit.batch_sim`).  A scalar run is
their one-lane case (:class:`_ScalarRun`).

See ``docs/transient.md`` for the integrator theory, the controller
constants, and tuning guidance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cancel import CancelToken
from repro.circuit.elements.base import Element, StampContext, StaticPhase
from repro.circuit.elements.cnfet import CNFETElement, drain_currents
from repro.circuit.elements.sources import VoltageSource
from repro.circuit.mna import (
    NewtonOptions,
    TwoPhaseAssembler,
    newton_solve,
    robust_dc_solve,
)
from repro.circuit.netlist import Circuit
from repro.circuit.partition import (
    Partition,
    PartitionedAssembler,
    partition_circuit,
)
from repro.circuit.solvers import BackendLike
from repro.circuit.results import Dataset
from repro.circuit.store import WaveformStore
from repro.errors import AnalysisError, ParameterError

__all__ = ["transient", "initial_conditions_from_op",
           "DEFAULT_RTOL", "DEFAULT_ATOL", "DEFAULT_BYPASS_TOL"]

#: Default relative LTE tolerance of the adaptive controller.
DEFAULT_RTOL = 1e-3
#: Default absolute LTE tolerance [V].
DEFAULT_ATOL = 1e-6
#: Default latency-bypass tolerance [V] for partitioned transients —
#: a block whose scope moved less than this since its last solve is
#: carried frozen (see ``docs/partitioning.md``).
DEFAULT_BYPASS_TOL = 1e-6

#: PI controller safety factor and per-step growth/shrink clamps.
_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
#: Growth cap when no LTE estimate exists (first step, post-breakpoint).
_FAC_BLIND = 2.0
#: Step shrink on a Newton convergence failure.
_NEWTON_SHRINK = 0.25
#: Step shrink when landing on a breakpoint (integration restarts).
_BREAKPOINT_SHRINK = 0.1
#: Hard cap on accepted steps (keeps a runaway dt_min from hanging).
_MAX_ACCEPTED_STEPS = 2_000_000


def _collect_breakpoints(circuit: Circuit, tstop: float) -> List[float]:
    """Sorted, deduplicated source-waveform corner times in (0, tstop)."""
    times = set()
    for el in circuit.elements:
        waveform = getattr(el, "waveform", None)
        if waveform is not None:
            times.update(waveform.breakpoints(0.0, tstop))
    return sorted(times)


def _step_commits(circuit: Circuit) -> List:
    """Callables committing the elements' per-step state from a
    context: the groups of a
    :class:`~repro.circuit.elements.base.StaticPhase` over the elements
    with state (one vector update per built-in class), then one
    ``accept_step`` per element of its fallback.

    Most elements inherit the base no-op ``accept_step`` and are
    skipped: a 32-bit adder is ~1200 elements of which ~30 (the trap
    capacitors) keep per-step state, committed in one vector update."""
    phase = StaticPhase(
        [[el for el in circuit.elements
          if type(el).accept_step is not Element.accept_step]],
        circuit.node_index, circuit.dimension())
    return [group.accept for group in phase.groups] \
        + [el.accept_step for el in phase.fallback]


def _trace_dataset(circuit: Circuit, times: Sequence[float],
                   data: np.ndarray, record_currents) -> Dataset:
    """Dataset over recorded solution rows ``data`` (one per time).

    Node voltages always; with ``record_currents`` the voltage-source
    branch currents (free columns of the solution); with
    ``record_currents is True`` also every CNFET's drain current.
    """
    dataset = Dataset("time", times)
    node_index = circuit.node_index
    for node, idx in node_index.items():
        dataset.add_trace(f"v({node})", data[:, idx])
    if record_currents:
        for el in circuit.iter_elements(VoltageSource):
            dataset.add_trace(f"i({el.name})", data[:, el.aux_index])
    if record_currents is True:
        # CNFET current traces: one vectorized pass per device model
        cnfets = list(circuit.iter_elements(CNFETElement))
        for el, series in zip(cnfets, drain_currents(cnfets, data,
                                                     node_index)):
            dataset.add_trace(f"i({el.name})", series)
    return dataset


class _StepRecorder:
    """Keeps accepted solution rows in memory for the final Dataset."""

    def __init__(self, circuit: Circuit, x0: np.ndarray) -> None:
        self.circuit = circuit
        self.times = [0.0]
        self.solutions = [x0.copy()]

    def record(self, t: float, x: np.ndarray) -> None:
        self.times.append(t)
        self.solutions.append(x.copy())

    def dataset(self, record_currents) -> Dataset:
        return _trace_dataset(self.circuit, self.times,
                              np.asarray(self.solutions), record_currents)


class _StoreRecorder:
    """Streams accepted solution rows into a :class:`WaveformStore`.

    Drop-in for :class:`_StepRecorder` except rows leave RAM every
    ``chunk_rows`` steps; ``dataset()`` returns a lazy Dataset over
    the finished store.
    """

    def __init__(self, circuit: Circuit, x0: np.ndarray,
                 directory, chunk_rows: int,
                 record_currents: Union[bool, str]) -> None:
        n = circuit.dimension()
        columns = [f"aux{i}" for i in range(n + 1)]
        columns[0] = "time"
        for node, idx in circuit.node_index.items():
            columns[1 + idx] = f"v({node})"
        current_names = []
        for el in circuit.iter_elements(VoltageSource):
            columns[1 + el.aux_index] = f"i({el.name})"
            current_names.append(f"i({el.name})")
        exposed = ["time"]
        exposed += [f"v({node})" for node in circuit.node_index]
        if record_currents:
            exposed += current_names
        self.store = WaveformStore.create(directory, columns,
                                          exposed=exposed,
                                          chunk_rows=chunk_rows)
        self._row = np.empty(n + 1)
        self.record(0.0, x0)

    def record(self, t: float, x: np.ndarray) -> None:
        self._row[0] = t
        self._row[1:] = x
        self.store.append(self._row)

    def dataset(self, record_currents) -> Dataset:
        self.store.close()
        return Dataset.from_store(self.store)


def _resolve_partition(circuit: Circuit, partition,
                       bypass_tol: Optional[float]
                       ) -> Tuple[Optional[Partition], float, bool]:
    """Validate/normalise the ``partition``/``bypass_tol`` pair.

    Returns ``(partition_or_None, bypass_tol, escalate)`` where
    ``escalate`` records that ``"auto"`` was requested (a failing
    partitioned run may fall back to the monolithic engine).
    """
    escalate = False
    if partition is None or partition == "off":
        if bypass_tol is not None:
            raise ParameterError(
                "bypass_tol only applies to a partitioned transient "
                "(pass partition='auto' or a Partition)")
        return None, 0.0, escalate
    if isinstance(partition, str):
        if partition != "auto":
            raise ParameterError(
                f"partition must be 'off', 'auto' or a Partition: "
                f"{partition!r}")
        escalate = True
        partition = partition_circuit(circuit)
        if len(partition.blocks) < 2:
            # Nothing to decouple: one block (or all-interface) would
            # just be the monolithic solve with extra indirection.
            return None, 0.0, escalate
    elif not isinstance(partition, Partition):
        raise ParameterError(
            f"partition must be 'off', 'auto' or a Partition: "
            f"{partition!r}")
    tol = DEFAULT_BYPASS_TOL if bypass_tol is None else float(bypass_tol)
    if tol < 0.0:
        raise ParameterError(f"bypass_tol must be >= 0: {bypass_tol!r}")
    return partition, tol, escalate


def _step_options(t_end: float, method: str, dt: Optional[float],
                  adaptive: Optional[bool], max_halvings: Optional[int],
                  rtol: Optional[float], atol: Optional[float],
                  dt_min: Optional[float], dt_max: Optional[float]
                  ) -> tuple:
    """Validate the stepping options of :func:`transient` and
    :func:`~repro.circuit.batch_sim.batch_transient` and fill in the
    defaults; returns ``(adaptive, max_halvings, rtol, atol, dt_min,
    dt_max)``."""
    if method not in ("be", "trap"):
        raise ParameterError(f"method must be 'be' or 'trap': {method!r}")
    if adaptive is None:
        adaptive = dt is None
    if not adaptive:
        if dt is None:
            raise ParameterError(
                "fixed-step mode needs dt (omit it or pass adaptive=True "
                "for the adaptive engine)"
            )
        if dt <= 0.0 or dt > t_end:
            raise ParameterError(f"dt must be in (0, tstop]: {dt!r}")
        for name, value in (("rtol", rtol), ("atol", atol),
                            ("dt_min", dt_min), ("dt_max", dt_max)):
            if value is not None:
                raise ParameterError(
                    f"{name} is an adaptive-mode option; fixed-step "
                    f"accuracy is set by dt alone"
                )
        max_halvings = 8 if max_halvings is None else max_halvings
        return adaptive, max_halvings, rtol, atol, dt_min, dt_max
    if max_halvings is not None:
        raise ParameterError(
            "max_halvings is a fixed-step option; adaptive step "
            "rejection is governed by rtol/atol/dt_min"
        )
    rtol = DEFAULT_RTOL if rtol is None else float(rtol)
    atol = DEFAULT_ATOL if atol is None else float(atol)
    if rtol < 0.0 or atol < 0.0 or rtol + atol <= 0.0:
        raise ParameterError(
            f"need rtol, atol >= 0 and rtol + atol > 0: "
            f"rtol={rtol!r}, atol={atol!r}"
        )
    dt_max = t_end / 50.0 if dt_max is None else float(dt_max)
    dt_min = t_end * 1e-9 if dt_min is None else float(dt_min)
    if not 0.0 < dt_min <= dt_max <= t_end:
        raise ParameterError(
            f"need 0 < dt_min <= dt_max <= tstop: dt_min={dt_min!r}, "
            f"dt_max={dt_max!r}"
        )
    if dt is not None and dt <= 0.0:
        raise ParameterError(f"initial dt must be > 0: {dt!r}")
    return adaptive, max_halvings, rtol, atol, dt_min, dt_max


class _ScalarRun:
    """One-lane run state for the shared stepping loops.

    Presents one circuit as a ``(1, n)`` lane stack: ``newton`` is
    :func:`newton_solve` on the run's assembler, ``accept`` commits
    the elements' step state and records the row, and ``drop`` raises
    the stall error (a one-lane run has no other lanes to carry on).
    """

    def __init__(self, circuit: Circuit, x: np.ndarray, recorder,
                 assembler, options: NewtonOptions, method: str,
                 stats: dict, cancel: Optional[CancelToken]) -> None:
        self.circuit = circuit
        self.x = x[None, :]
        self.alive = np.ones(1, dtype=bool)
        self.n_nodes = len(circuit.node_index)
        self.recorder = recorder
        self.assembler = assembler
        self.options = options
        self.method = method
        self.stats = stats
        self.cancel = cancel
        # One reusable context for the whole run's step commits (the
        # empty matrix/rhs are never stamped during acceptance).
        self._ctx = StampContext(
            matrix=np.zeros((0, 0)), rhs=np.zeros(0),
            node_index=circuit.node_index, x=x, analysis="tran",
            method=method,
        )
        self._commits = _step_commits(circuit)

    def newton(self, time: float, dt: float,
               x_start: Optional[np.ndarray] = None
               ) -> Tuple[np.ndarray, List[int]]:
        x = self.x[0]
        try:
            x_new = newton_solve(
                self.circuit, x if x_start is None else x_start[0],
                self.options, analysis="tran", time=time, dt=dt,
                x_prev=x, method=self.method, assembler=self.assembler,
                stats=self.stats, cancel=self.cancel,
            )
        except AnalysisError:
            return self.x, [0]
        return x_new[None, :], []

    def accept(self, t: float, x_new: np.ndarray, step: float) -> None:
        """Commit a converged step: element state update + recording."""
        ctx = self._ctx
        ctx.x = x_new[0]
        ctx.time = t
        ctx.dt = step
        ctx.x_prev = self.x[0]
        for commit in self._commits:
            commit(ctx)
        self.recorder.record(t, x_new[0])
        self.x = x_new
        self.stats["steps"] = self.stats.get("steps", 0) + 1

    def retire(self, t: float, eps: float) -> None:
        """Nothing to retire: the one lane stops at the run's end."""

    def drop(self, lanes: Sequence[int], why: str) -> None:
        raise AnalysisError(why)


def transient(
    circuit: Circuit,
    tstop: float,
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
    extra_breakpoints: Sequence[float] = (),
    backend: BackendLike = None,
    cancel: Optional[CancelToken] = None,
    partition: "Union[None, str, Partition]" = None,
    bypass_tol: Optional[float] = None,
    store: "Optional[str]" = None,
    store_chunk_rows: int = 256,
) -> Dataset:
    """Integrate the circuit from its DC operating point to ``tstop``.

    Parameters
    ----------
    circuit : Circuit
        The circuit; transient element state is reset first.
    tstop : float
        Stop time [s].
    dt : float, optional
        Fixed step [s].  Giving ``dt`` selects the legacy fixed-step
        mode (unless ``adaptive=True``, where it seeds the initial
        step); omitting it selects the adaptive engine.
    method : {"trap", "be"}
        ``"trap"`` (trapezoidal, 2nd order, SPICE default) or ``"be"``
        (backward Euler, L-stable, more damping).
    options : NewtonOptions
        Newton-loop tuning knobs.
    record_currents : bool or "sources"
        ``True`` also records voltage-source branch currents and CNFET
        drain currents; ``"sources"`` records only the branch currents
        (free columns of the solution, skipping the per-device CNFET
        current post-pass); ``False`` records voltages only.
    x0 : numpy.ndarray, optional
        Initial solution (defaults to the DC operating point at t = 0).
    max_halvings : int, optional
        **Fixed-step only** — how many times a non-convergent step may
        be halved before the run aborts (default 8).  In adaptive mode
        step rejection is owned by the LTE controller (``rtol``/
        ``atol``/``dt_min``), so passing ``max_halvings`` there raises
        :class:`~repro.errors.ParameterError` rather than being
        silently ignored.
    stats : dict, optional
        Accumulates step statistics: ``steps`` (accepted), ``solves``,
        ``iterations`` (Newton), ``rejected_newton``,
        ``breakpoints_hit``, and in adaptive mode additionally
        ``rejected_lte``, ``dt_smallest``, ``dt_largest``.  Circuits
        whose CNFETs run as one stacked bank also count
        ``stacked_lanes`` (device evaluations), ``stacked_fallbacks``
        (solves that needed the scalar fallback) and
        ``stacked_bypassed`` (evaluations that reused the device's last
        linearisation; see :attr:`NewtonOptions.jacobian_reuse_tol`).
    adaptive : bool, optional
        Force the stepping mode; default ``dt is None``.
    rtol, atol : float, optional
        **Adaptive only** — relative / absolute [V] LTE tolerances per
        step (defaults 1e-3 / 1e-6 V).  Tightening them buys waveform
        accuracy with smaller steps; see ``docs/transient.md``.
    dt_min, dt_max : float, optional
        **Adaptive only** — hard step bounds [s].  Defaults:
        ``tstop * 1e-9`` and ``tstop / 50``.
    extra_breakpoints : sequence of float, optional
        Additional time points in ``(0, tstop)`` to land on exactly,
        merged with the source-waveform breakpoints (user-forced
        events; also how the parity suite replays a lane-batched run's
        shared grid, which carries *every* lane's breakpoints).
    backend : None, str or LinearSolverBackend, optional
        Linear-solver backend for every solve of the run (the initial
        DC operating point included) — ``"auto"`` (default),
        ``"dense"`` or ``"sparse"``; see
        :func:`repro.circuit.solvers.resolve_backend`.
    cancel : repro.cancel.CancelToken, optional
        Cooperative cancellation token, checked once per Newton
        iteration — a deadline or an explicit cancel unwinds the run
        with :class:`~repro.errors.CancelledError` within one
        iteration's latency (how the job service enforces per-job
        ``deadline_s``).
    partition : None, "off", "auto" or Partition, optional
        ``"auto"`` partitions the circuit
        (:func:`repro.circuit.partition.partition_circuit`) and solves
        each step block-by-block through a Schur-complement interface
        system with latency bypass; a run that fails to converge
        escalates to the monolithic engine automatically.  Passing a
        prebuilt :class:`~repro.circuit.partition.Partition` uses it
        as-is (no escalation).  Default/``"off"``: monolithic.  See
        ``docs/partitioning.md``.
    bypass_tol : float, optional
        **Partitioned only** — latency-bypass tolerance [V]
        (default 1e-6): a block whose boundary voltages and internal
        state all moved less than this since its last solve is carried
        frozen for the step — no device evaluation, stamping or
        refactorisation.  ``0.0`` disables bypass.
    store : str, optional
        Directory for an out-of-core run: accepted steps stream into a
        chunked :class:`~repro.circuit.store.WaveformStore` there and
        the returned Dataset is lazy (one column resident at a time),
        so peak memory is bounded by ``store_chunk_rows`` rows instead
        of the trace length.  Requires ``record_currents`` ``False``
        or ``"sources"`` (the CNFET current post-pass of ``True``
        needs the full solution matrix in RAM).
    store_chunk_rows : int
        Rows buffered per store chunk (default 256).

    Returns
    -------
    Dataset
        Axis ``time`` plus traces ``v(node)`` / ``i(element)``.  In
        adaptive mode the time axis is non-uniform; use
        :meth:`Dataset.at` for interpolation.
    """
    if tstop <= 0.0:
        raise ParameterError(f"tstop must be > 0: {tstop!r}")
    adaptive, max_halvings, rtol, atol, dt_min, dt_max = _step_options(
        tstop, method, dt, adaptive, max_halvings, rtol, atol, dt_min,
        dt_max)
    if store is not None and record_currents is True:
        raise ParameterError(
            "store mode needs record_currents=False or 'sources': the "
            "CNFET current post-pass of record_currents=True would "
            "materialize the full trace the store exists to avoid")
    if store is not None and store_chunk_rows < 1:
        raise ParameterError(
            f"store_chunk_rows must be >= 1: {store_chunk_rows!r}")
    part, tol, escalate = _resolve_partition(circuit, partition,
                                             bypass_tol)

    circuit.reset_state()
    n = circuit.dimension()
    if x0 is None:
        x = robust_dc_solve(circuit, None, options, backend=backend,
                            cancel=cancel)
    else:
        x = np.asarray(x0, dtype=float).copy()
        if x.shape != (n,):
            raise ParameterError(
                f"x0 has shape {x.shape}, expected ({n},)"
            )

    if store is not None:
        recorder = _StoreRecorder(circuit, x, store, store_chunk_rows,
                                  record_currents)
    else:
        recorder = _StepRecorder(circuit, x)
    breakpoints = _collect_breakpoints(circuit, tstop)
    if extra_breakpoints:
        merged = set(breakpoints)
        merged.update(t for t in map(float, extra_breakpoints)
                      if 0.0 < t < tstop)
        breakpoints = sorted(merged)
    # One assembler for the whole run: matrix/rhs buffers (and, for
    # the sparse backend, the symbolic pattern) live across steps;
    # only the static stamps are refreshed per step.
    if part is not None:
        assembler = PartitionedAssembler(circuit, part, bypass_tol=tol,
                                         device_stats=stats)
    else:
        assembler = TwoPhaseAssembler(circuit, backend=backend,
                                      device_stats=stats)
    before = None if stats is None else dict(stats)
    run = _ScalarRun(circuit, x, recorder, assembler, options, method,
                     {} if stats is None else stats, cancel)
    try:
        if adaptive:
            # Every breakpoint is the one lane's own, so each landing
            # restarts the predictor history.
            _adaptive_lockstep(run, tstop, breakpoints,
                               {t: [0] for t in breakpoints}, rtol, atol,
                               dt_min, dt_max, dt)
        else:
            _fixed_lockstep(run, tstop, breakpoints, dt, max_halvings)
    except AnalysisError:
        if part is None or not escalate:
            raise
        # "auto" contract: a partitioned run that cannot converge is
        # re-run monolithically from scratch (element transient state
        # is reset by the recursive call).  The abandoned attempt's
        # counts are rolled back, so ``stats`` describes the run that
        # produced the returned waveform.
        if stats is not None:
            stats.clear()
            stats.update(before, partition_escalated=before.get(
                "partition_escalated", 0) + 1)
        return transient(
            circuit, tstop, dt, method, options, record_currents, x0,
            max_halvings, stats, adaptive=adaptive, rtol=rtol, atol=atol,
            dt_min=dt_min, dt_max=dt_max,
            extra_breakpoints=extra_breakpoints, backend=backend,
            cancel=cancel, partition="off", store=store,
            store_chunk_rows=store_chunk_rows,
        )
    if part is not None and stats is not None:
        for key, value in assembler.stats.items():
            stats[f"partition_{key}"] = value
    return recorder.dataset(record_currents)


# ----------------------------------------------------------------------
# The stepping loops of both engines, over a ``(B, n)`` lane stack on
# one time grid.  The run state supplies ``x``, ``alive`` (lane mask),
# ``n_nodes``, ``method``, ``stats``, ``newton(time, dt, x_start) ->
# (x_new, failed_lanes)``, ``accept(t, x_new, step)``, ``retire(t,
# eps)`` and ``drop(lanes, why)``: :class:`_ScalarRun` (one lane) or
# :class:`repro.circuit.batch_sim._RunState`.
# ----------------------------------------------------------------------

def _next_bp(bp_times: List[float], bp_idx: int, t: float,
             eps: float) -> int:
    """Index of the first breakpoint strictly after ``t`` (+ eps)."""
    n = len(bp_times)
    while bp_idx < n and bp_times[bp_idx] <= t + eps:
        bp_idx += 1
    return bp_idx


def _fixed_lockstep(state, t_end: float, bp_times: List[float],
                    dt: float, max_halvings: int) -> None:
    """Fixed-step march on a shared grid, halving on Newton failure.

    Steps are truncated to land exactly on each of ``bp_times`` before
    resuming the ``dt`` cadence.  A Newton failure in any lane halves
    the shared step, up to ``max_halvings`` times; past that the
    failing lanes are dropped and the rest retry.
    """
    t = 0.0
    current_dt = dt
    halvings = 0
    bp_idx = 0
    eps = 1e-15 * t_end
    while state.alive.any() and t < t_end - eps:
        bp_idx = _next_bp(bp_times, bp_idx, t, eps)
        step = min(current_dt, t_end - t)
        landing = (bp_idx < len(bp_times)
                   and bp_times[bp_idx] - t <= step * (1.0 + 1e-12))
        if landing:
            t_next = bp_times[bp_idx]
            step = t_next - t
        else:
            t_next = t + step
        x_new, failed = state.newton(t_next, step)
        if failed:
            state.stats["rejected_newton"] = \
                state.stats.get("rejected_newton", 0) + 1
            if halvings >= max_halvings:
                state.drop(failed, f"transient stalled at t={t:.3e} s "
                                   f"even at dt={step:.3e} s")
                continue
            current_dt = step / 2.0
            halvings += 1
            continue
        state.accept(t_next, x_new, step)
        t = t_next
        state.retire(t, eps)
        if landing:
            bp_idx += 1
            state.stats["breakpoints_hit"] = \
                state.stats.get("breakpoints_hit", 0) + 1
        # Re-double after reductions.  Gating on current_dt (not the
        # halvings counter) matters with breakpoints: one Newton
        # failure on a breakpoint-sliver step can cut current_dt far
        # below dt/2, and recovery must not be capped at 2^halvings.
        if current_dt < dt:
            current_dt = min(dt, current_dt * 2.0)
            halvings = max(0, halvings - 1)


def _adaptive_lockstep(state, t_end: float, bp_times: List[float],
                       bp_lanes: Dict[float, List[int]],
                       rtol: float, atol: float, dt_min: float,
                       dt_max: float, dt0: Optional[float]) -> None:
    """Variable-step LTE-controlled integration (see module docstring).

    Controller: predictor–corrector LTE estimate over the voltage
    unknowns, weighted by ``atol + rtol * |v|``; the step is accepted
    when the *largest* per-lane scaled error ``err <= 1``; PI step
    update ``h *= 0.9 err^(-0.7/k) err_prev^(0.4/k)`` with
    ``k = order + 1``.  Newton failures shrink the step 4x through the
    same rejection path.  Breakpoints are landed on exactly; the
    predictor history restarts across a breakpoint, because the
    derivative is discontinuous there, for the lanes ``bp_lanes``
    names as its owners.
    """
    method = state.method
    n_nodes = state.n_nodes
    k_order = 2 if method == "be" else 3
    t = 0.0
    h = min(dt_max, t_end / 1000.0) if dt0 is None else min(dt0, dt_max)
    err_prev = 1.0
    bp_idx = 0
    eps = 1e-15 * t_end
    accepted = 0
    hist: List[Tuple[float, np.ndarray]] = [(0.0, state.x.copy())]
    hist_count = np.ones(state.alive.size, dtype=int)
    while state.alive.any() and t < t_end - eps:
        bp_idx = _next_bp(bp_times, bp_idx, t, eps)
        h = min(max(h, dt_min), dt_max)
        step = min(h, t_end - t)
        landing = (bp_idx < len(bp_times)
                   and bp_times[bp_idx] - t <= step * (1.0 + 1e-12))
        if landing:
            t_next = bp_times[bp_idx]
            step = t_next - t
        else:
            t_next = t + step
        x_pred, divisor, has_pred = _predict_lanes(
            hist, hist_count, t_next, method, state.x)
        # The predictor doubles as the Newton starting point: an
        # extrapolated start typically converges in 1-2 iterations
        # where restarting from x_prev needs several.
        x_new, failed = state.newton(t_next, step, x_pred)
        if failed:
            state.stats["rejected_newton"] = \
                state.stats.get("rejected_newton", 0) + 1
            # A retry is only meaningful if the next attempt can be
            # genuinely smaller; dt_min floors the controller, and a
            # breakpoint sliver shorter than dt_min cannot shrink at
            # all (the landing time is fixed), so both stall here: the
            # failing lanes are dropped and the rest retry the step.
            shrunk = max(step * _NEWTON_SHRINK, dt_min)
            if shrunk >= step * (1.0 - 1e-12):
                state.drop(failed, f"transient stalled at t={t:.3e} s: "
                                   f"Newton failed at an irreducible step "
                                   f"({step:.3e} s, dt_min={dt_min:.3e} s)")
            else:
                h = shrunk
            continue

        # Worst-lane scaled LTE over alive lanes with a predictor.
        err = None
        scoring = state.alive & has_pred
        if scoring.any():
            lanes = slice(None) if scoring.all() \
                else np.flatnonzero(scoring)
            v_now = np.abs(state.x[lanes][:, :n_nodes])
            v_next = np.abs(x_new[lanes][:, :n_nodes])
            weight = atol + rtol * np.maximum(v_now, v_next)
            diff = np.abs(x_new[lanes][:, :n_nodes]
                          - x_pred[lanes][:, :n_nodes])
            lane_err = (diff / weight).max(axis=1) / divisor[lanes] \
                if n_nodes else np.zeros(lanes.size)
            err = float(lane_err.max())
        if err is not None and err > 1.0:
            shrunk = max(
                step * min(0.5, max(0.1,
                                    _SAFETY * err ** (-1.0 / k_order))),
                dt_min,
            )
            if shrunk < step * (1.0 - 1e-12):
                state.stats["rejected_lte"] = \
                    state.stats.get("rejected_lte", 0) + 1
                h = shrunk
                continue
            # The step cannot shrink (dt_min floor or an irreducible
            # breakpoint sliver): accept it as the best available.

        state.accept(t_next, x_new, step)
        t = t_next
        accepted += 1
        if accepted > _MAX_ACCEPTED_STEPS:
            raise AnalysisError(
                f"transient exceeded {_MAX_ACCEPTED_STEPS} accepted "
                f"steps; loosen rtol/atol or raise dt_min"
            )
        state.stats["dt_smallest"] = min(
            state.stats.get("dt_smallest", step), step)
        state.stats["dt_largest"] = max(
            state.stats.get("dt_largest", step), step)
        state.retire(t, eps)
        if err is None or err <= 0.0:
            fac = _FAC_BLIND
        else:
            fac = _SAFETY * err ** (-0.7 / k_order) \
                * err_prev ** (0.4 / k_order)
            fac = min(_FAC_MAX, max(_FAC_MIN, fac))
            err_prev = max(err, 1e-4)
        if (state.alive & (hist_count < 2)).any():
            # Some lane is predictor-blind (its history just restarted
            # at a breakpoint): its error is invisible to the worst-
            # lane controller, so growth is capped as for a step with
            # no estimate at all — otherwise the other lanes'
            # plateau-small errors would quintuple the shared step
            # right through the restarting lane's edge.
            fac = min(fac, _FAC_BLIND)
        h = step * fac
        hist.append((t, state.x.copy()))
        if len(hist) > 3:
            hist.pop(0)
        hist_count = np.minimum(hist_count + 1, 3)
        if landing:
            bp_idx += 1
            state.stats["breakpoints_hit"] = \
                state.stats.get("breakpoints_hit", 0) + 1
            restart = [lane for lane in bp_lanes.get(t_next, ())
                       if state.alive[lane]]
            if restart:
                # Source derivative discontinuity: restart the
                # predictor for the owning lanes and re-enter
                # cautiously (the first step after has no LTE
                # estimate for them).
                hist_count[restart] = 1
                h = max(dt_min, h * _BREAKPOINT_SHRINK)
                err_prev = 1.0


def _predict_lanes(hist: List[Tuple[float, np.ndarray]],
                   hist_count: np.ndarray, t_next: float, method: str,
                   x: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-lane predictor stack for the step ending at ``t_next``, LTE
    divisors, and a has-predictor mask.

    ``hist`` holds the last (up to three) accepted ``(t, x)`` stacks;
    ``hist_count[lane]`` how many of them lie after that lane's last
    history restart.  A lane's local truncation error is estimated as
    ``|x_corrector - x_pred| / divisor``; the divisors come from the
    uniform-step error constants (trapezoidal LTE ``-h^3 x'''/12`` vs
    quadratic-extrapolation error ``h^3 x'''``; BE LTE ``h^2 x''/2``
    vs linear-extrapolation error ``h^2 x''``).  Lanes without enough
    smooth history predict ``x`` itself (divisor 1).
    """
    trap = method == "trap"
    has_pred = hist_count >= 2
    quad_mask = hist_count >= 3 if trap else np.zeros_like(has_pred)
    # A linear predictor under a 2nd-order corrector overestimates the
    # LTE (conservative); trap uses it only while its history warms up.
    divisor = np.where(has_pred, 2.0 if trap else 3.0, 1.0)
    divisor[quad_mask] = 11.0
    if not has_pred.any():
        return x, divisor, has_pred
    # hist_count never exceeds len(hist), so the history each mask asks
    # for exists; whole-stack selects skip the per-lane masking in the
    # common case where every lane has the same history depth.
    x_pred = None
    if quad_mask.any():
        (t0, x0), (t1, x1), (t2, x2) = hist[-3], hist[-2], hist[-1]
        l0 = (t_next - t1) * (t_next - t2) / ((t0 - t1) * (t0 - t2))
        l1 = (t_next - t0) * (t_next - t2) / ((t1 - t0) * (t1 - t2))
        l2 = (t_next - t0) * (t_next - t1) / ((t2 - t0) * (t2 - t1))
        x_pred = l0 * x0 + l1 * x1 + l2 * x2
    if not quad_mask.all():
        (t1, x1), (t2, x2) = hist[-2], hist[-1]
        linear = x2 + (x2 - x1) * ((t_next - t2) / (t2 - t1))
        x_pred = linear if x_pred is None \
            else np.where(quad_mask[:, None], x_pred, linear)
        if not has_pred.all():
            x_pred = np.where(has_pred[:, None], x_pred, x)
    return x_pred, divisor, has_pred


def initial_conditions_from_op(circuit: Circuit,
                               overrides: Optional[dict] = None,
                               options: NewtonOptions = NewtonOptions()
                               ) -> np.ndarray:
    """DC operating point with optional per-node voltage overrides [V].

    Useful to kick oscillators out of their unstable symmetric point:
    ``initial_conditions_from_op(ckt, {"n1": 0.0})``.

    Parameters
    ----------
    circuit : Circuit
        The circuit (transient state is reset).
    overrides : dict, optional
        ``{node_name: voltage}`` values forced onto the DC solution.
    options : NewtonOptions
        Newton-loop tuning knobs for the DC solve.

    Returns
    -------
    numpy.ndarray
        A solution vector usable as ``x0`` for :func:`transient`.
    """
    circuit.reset_state()
    x = robust_dc_solve(circuit, None, options)
    if overrides:
        for node, value in overrides.items():
            idx = circuit.node_index.get(node)
            if idx is None:
                raise ParameterError(f"unknown node {node!r} in overrides")
            x[idx] = float(value)
    return x
