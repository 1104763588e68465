"""Experiment workloads: factor points -> engine runs.

A workload is the executable meaning of a config: it receives one
run's factor assignment (``point``), the config's fixed ``params`` and
the derived per-cell ``seed``, executes the corresponding engine entry
point, and returns a measurement dict:

``wall_s``
    Wall-clock seconds of the *timed region* — the engine call only;
    setup (circuit construction, DC warm-up, sampling) is excluded.
``newton_iterations``
    Engine Newton iterations, or NaN where the entry point reports
    none.
``metrics``
    Scalar result metrics (become ``run_table.csv`` columns).
``signature``
    ``name -> list of float`` parity payload; the executor compares it
    against the baseline cell's signature under the workload's
    ``parity`` mode (``abs``: max |delta|, ``rel``: max
    |delta|/max(|ref|, tiny)).

Registered workloads cover the BENCH sections the runner regenerates:

* ``char_grid`` — a gate-characterization load x slew grid, lane-batched
  vs sequential (factor ``engine``).
* ``mc_ring`` — a ring-oscillator MC campaign through
  :class:`~repro.variability.circuits.RingOscillatorEvaluator`,
  batch vs sequential (factor ``engine``).
* ``ring_lanes`` — heterogeneous MC ring instances on a shared fixed
  grid, lane-batched vs per-lane scalar (factor ``engine``); the
  signature carries the full waveforms, so the parity column *is* the
  1e-9 V lane-parity gate.
* ``circuit_transient`` — a single transient over the generic factor
  matrix: ``circuit`` (ring | rca), ``size``, ``backend``
  (dense | sparse | auto), ``kernels`` (numpy | compiled | cc |
  auto), ``chord`` (on | off).
* ``vsc_sweep`` — the stacked-VSC kernel swept over a dense bias grid
  per kernel tier (factor ``kernels``); the parity column is the
  kernel-parity gate.
* ``mc_device`` — the device-metric MC campaign vs the seed-style
  naive per-sample loop (factor ``engine`` in {campaign_cold,
  campaign_warm, naive, naive_cached}); the signature carries the
  per-sample Ion values of the shared sample prefix (the campaign
  quantises devices, so the parity column measures quantisation, not
  a bug — recorded, never gated tightly).
* ``ring_adaptive`` — the adaptive engine pinned to the legacy fixed
  grid vs the legacy engine (factor ``engine``); the parity column is
  the pinned-grid parity gate.
* ``ring_accuracy`` — a waveform-accuracy/Newton-work ladder (factor
  ``mode`` in {reference, adaptive, fixed_<dt>}); every signature is
  the waveform interpolated onto one shared grid, so each cell's
  parity column *is* its waveform error against the converged
  reference baseline.
* ``circuit_dc`` — one :func:`robust_dc_solve` per backend (factor
  ``backend``); the signature carries the node voltages.
* ``dc_sweep_chain`` — the 101-stage inverter-chain supply-ramp DC
  sweep per backend (factor ``backend``).
* ``partitioned_transient`` — the partitioned latency-exploiting
  transient vs the monolithic engine on a ripple-carry adder (factor
  ``solver`` in {monolithic, partitioned, partitioned_nobypass};
  ``activity`` in {hold, pulse}; ``chord`` in {on, off}, the tight
  Newton options with the chord and the per-device bypass on or off,
  default: the transient's own options).

New workloads register through :func:`register_workload`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping

import numpy as np

from repro.errors import ParameterError

__all__ = ["Workload", "WORKLOADS", "register_workload"]


@dataclass(frozen=True)
class Workload:
    """A named, registered experiment workload.

    Attributes
    ----------
    name : str
        Registry key (the config's ``workload`` field).
    run : callable
        ``run(point, params, seed) -> dict`` with the keys documented
        in the module docstring.
    parity : str
        Signature comparison mode vs the baseline cell: ``"abs"``
        (max absolute deviation) or ``"rel"`` (max relative
        deviation).
    description : str
        One-line summary shown by ``repro experiments --list``.
    """

    name: str
    run: Callable[[Mapping, Mapping, int], Dict[str, Any]]
    parity: str = "abs"
    description: str = ""


#: Registered workloads by name.
WORKLOADS: Dict[str, Workload] = {}


def register_workload(workload: Workload) -> Workload:
    """Register (or replace) a workload under its name."""
    if workload.parity not in ("abs", "rel"):
        raise ParameterError(
            f"workload parity mode must be 'abs' or 'rel': "
            f"{workload.parity!r}")
    WORKLOADS[workload.name] = workload
    return workload


def _get(point: Mapping, params: Mapping, name: str, default=None):
    """Look ``name`` up as a factor first, then as a fixed param."""
    if name in point:
        return point[name]
    if name in params:
        return params[name]
    if default is None:
        raise ParameterError(
            f"workload needs {name!r} as a factor or param "
            f"(factors: {sorted(point)}, params: {sorted(params)})")
    return default


def _newton_options(chord) -> "object":
    from repro.circuit.mna import NewtonOptions

    if str(chord) == "on":     # tuned chord-Newton default (PR 6)
        return NewtonOptions(vtol=1e-12, reltol=1e-10)
    if str(chord) == "off":    # legacy full-Newton iteration
        return NewtonOptions(vtol=1e-12, reltol=1e-10,
                             jacobian_reuse_tol=0.0)
    raise ParameterError(
        f"chord factor must be 'on' or 'off': {chord!r}")


def _decimate(values: np.ndarray, limit: int) -> List[float]:
    values = np.asarray(values, dtype=float).ravel()
    if values.size <= limit:
        return [float(v) for v in values]
    stride = int(np.ceil(values.size / limit))
    picked = list(values[::stride])
    if values.size and (values.size - 1) % stride:
        picked.append(values[-1])
    return [float(v) for v in picked]


# ----------------------------------------------------------------------
# char_grid
# ----------------------------------------------------------------------

def _run_char_grid(point: Mapping, params: Mapping,
                   seed: int) -> Dict[str, Any]:
    from repro.characterize import characterize_gate
    from repro.circuit.logic import LogicFamily

    engine = _get(point, params, "engine")
    if engine not in ("batch", "sequential"):
        raise ParameterError(
            f"char_grid engine must be 'batch' or 'sequential': "
            f"{engine!r}")
    gate = _get(point, params, "gate", "nand2")
    vdd = float(_get(point, params, "vdd", 0.6))
    loads = tuple(float(v) for v in params["loads_f"])
    slews = tuple(float(v) for v in params["slews_s"])
    family = LogicFamily.default(vdd=vdd)
    start = time.perf_counter()
    table = characterize_gate(family, gate, loads, slews,
                              use_batch=(engine == "batch"))
    wall = time.perf_counter() - start
    signature: Dict[str, List[float]] = {}
    delays = []
    for arc_name in sorted(table.arcs):
        arc = table.arcs[arc_name]
        for key in ("delay", "out_slew", "energy"):
            grid = np.asarray(getattr(arc, key), dtype=float)
            signature[f"{arc_name}.{key}"] = [float(v)
                                              for v in grid.ravel()]
            if key == "delay":
                delays.extend(grid.ravel())
    delays = np.asarray(delays, dtype=float)
    finite = delays[np.isfinite(delays)]
    return {
        "wall_s": wall,
        "newton_iterations": float("nan"),
        "metrics": {
            "lanes": float(len(loads) * len(slews)),
            "median_delay_s": (float(np.median(finite))
                               if finite.size else float("nan")),
        },
        "signature": signature,
    }


# ----------------------------------------------------------------------
# mc_ring
# ----------------------------------------------------------------------

def _run_mc_ring(point: Mapping, params: Mapping,
                 seed: int) -> Dict[str, Any]:
    from repro.variability.circuits import RingOscillatorEvaluator
    from repro.variability.params import default_device_space
    from repro.variability.sampling import monte_carlo

    engine = _get(point, params, "engine")
    if engine not in ("batch", "sequential"):
        raise ParameterError(
            f"mc_ring engine must be 'batch' or 'sequential': "
            f"{engine!r}")
    n = int(_get(point, params, "samples", 256))
    sample_seed = int(_get(point, params, "sample_seed", seed))
    space = default_device_space()
    samples = monte_carlo(space, n, seed=sample_seed)
    evaluator = RingOscillatorEvaluator(
        space, use_batch=(engine == "batch"))
    start = time.perf_counter()
    rows = evaluator.evaluate(samples)
    wall = time.perf_counter() - start
    periods = np.array([row["period"] for row in rows], dtype=float)
    valid = periods[np.isfinite(periods)]
    return {
        "wall_s": wall,
        "newton_iterations": float("nan"),
        "metrics": {
            "samples": float(n),
            "distinct_keys": float(len(evaluator._memo)),
            "valid_fraction": float(valid.size) / max(n, 1),
            "median_period_s": (float(np.median(valid))
                                if valid.size else float("nan")),
        },
        "signature": {"period_s": [float(p) for p in periods]},
    }


# ----------------------------------------------------------------------
# ring_lanes
# ----------------------------------------------------------------------

def _run_ring_lanes(point: Mapping, params: Mapping,
                    seed: int) -> Dict[str, Any]:
    from repro.circuit.batch_sim import (
        batch_operating_points,
        batch_transient,
    )
    from repro.circuit.logic import build_ring_oscillator
    from repro.circuit.mna import NewtonOptions
    from repro.circuit.transient import (
        initial_conditions_from_op,
        transient,
    )
    from repro.variability.campaign import quantize_sample
    from repro.variability.circuits import RingOscillatorEvaluator
    from repro.variability.params import default_device_space
    from repro.variability.sampling import monte_carlo

    engine = _get(point, params, "engine")
    if engine not in ("batch", "scalar"):
        raise ParameterError(
            f"ring_lanes engine must be 'batch' or 'scalar': "
            f"{engine!r}")
    lanes = int(_get(point, params, "lanes", 16))
    stages = int(_get(point, params, "stages", 3))
    tstop = float(_get(point, params, "tstop", 1.5e-10))
    dt = float(_get(point, params, "dt", 2e-12))
    sample_seed = int(_get(point, params, "sample_seed", seed))
    vdd = float(_get(point, params, "vdd", 0.6))

    tight = NewtonOptions(vtol=1e-12, reltol=1e-10)
    space = default_device_space()
    samples = monte_carlo(space, max(lanes * 4, lanes), seed=sample_seed)
    keys = list(dict.fromkeys(
        quantize_sample(s, None) for s in samples))[:lanes]
    evaluator = RingOscillatorEvaluator(space, stages=stages, vdd=vdd)
    circuits, nodes = [], ()
    for key in keys:
        ring, nodes = build_ring_oscillator(evaluator._family(key),
                                            stages=stages)
        circuits.append(ring)

    signature: Dict[str, List[float]] = {}
    if engine == "batch":
        x0 = batch_operating_points(circuits, tight)
        x0[:, circuits[0].node_index[nodes[0]]] = 0.0
        x0[:, circuits[0].node_index[nodes[1]]] = vdd
        start = time.perf_counter()
        result = batch_transient(circuits, tstop, dt=dt, method="be",
                                 options=tight, x0=x0,
                                 record_currents=False)
        wall = time.perf_counter() - start
        for lane in range(len(keys)):
            for node in nodes:
                signature[f"lane{lane}.v({node})"] = [
                    float(v) for v in result[lane].trace(f"v({node})")]
    else:
        start = time.perf_counter()
        for lane, key in enumerate(keys):
            ring, ring_nodes = build_ring_oscillator(
                evaluator._family(key), stages=stages)
            x_lane = initial_conditions_from_op(
                ring, {ring_nodes[0]: 0.0, ring_nodes[1]: vdd}, tight)
            ref = transient(ring, tstop=tstop, dt=dt, x0=x_lane,
                            method="be", options=tight,
                            record_currents=False)
            for node in ring_nodes:
                signature[f"lane{lane}.v({node})"] = [
                    float(v) for v in ref.trace(f"v({node})")]
        wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "newton_iterations": float("nan"),
        "metrics": {"lanes": float(len(keys))},
        "signature": signature,
    }


# ----------------------------------------------------------------------
# circuit_transient
# ----------------------------------------------------------------------

def _build_ring(params: Mapping, size: int, vdd: float):
    from repro.circuit.logic import LogicFamily, build_ring_oscillator
    from repro.circuit.transient import initial_conditions_from_op

    family = LogicFamily.default(vdd=vdd)
    ring, nodes = build_ring_oscillator(family, stages=size)
    x0 = initial_conditions_from_op(
        ring, {nodes[0]: 0.0, nodes[1]: vdd})
    tran = dict(tstop=float(params.get("tstop", 1.5e-10)),
                dt=float(params.get("dt", 2e-12)), method="be")
    return ring, x0, tran


def _build_rca(params: Mapping, size: int, vdd: float, options,
               backend: str):
    from repro.circuit.logic import LogicFamily, build_ripple_carry_adder
    from repro.circuit.mna import robust_dc_solve
    from repro.circuit.waveforms import Pulse

    family = LogicFamily.default(vdd=vdd)
    cin = Pulse(0.0, vdd, 5e-12, 1e-12, 1e-12, 4e-11, 1e-10)
    adder, _info = build_ripple_carry_adder(
        family, size, a_value=(1 << size) - 1, b_value=0, cin_wave=cin)
    x0 = robust_dc_solve(adder, None, options, backend=backend)
    dt = float(params.get("dt", 5e-13))
    tran = dict(tstop=float(params.get("tstop", 3e-11)), method="trap",
                adaptive=True, dt_min=dt, dt_max=dt)
    return adder, x0, tran


def _run_circuit_transient(point: Mapping, params: Mapping,
                           seed: int) -> Dict[str, Any]:
    from repro.circuit.transient import transient
    from repro.pwl.kernels import using_kernels

    circuit_kind = _get(point, params, "circuit", "ring")
    size = int(_get(point, params, "size", 3))
    backend = str(_get(point, params, "backend", "auto"))
    kernels = str(_get(point, params, "kernels", "auto"))
    chord = str(_get(point, params, "chord", "on"))
    vdd = float(_get(point, params, "vdd", 0.6))
    options = _newton_options(chord)
    params = dict(params)

    with using_kernels(kernels):
        if circuit_kind == "ring":
            circuit, x0, tran = _build_ring(params, size, vdd)
        elif circuit_kind == "rca":
            circuit, x0, tran = _build_rca(params, size, vdd, options,
                                           backend)
        else:
            raise ParameterError(
                f"circuit_transient circuit must be 'ring' or 'rca': "
                f"{circuit_kind!r}")
        stats: Dict = {}
        start = time.perf_counter()
        ds = transient(circuit, x0=x0.copy(), options=options,
                       backend=backend, stats=stats,
                       record_currents=False, **tran)
        wall = time.perf_counter() - start

    limit = int(params.get("signature_points", 128))
    node_limit = int(params.get("signature_nodes", 24))
    nodes = list(circuit.nodes)
    if len(nodes) > node_limit:
        stride = int(np.ceil(len(nodes) / node_limit))
        nodes = nodes[::stride]
    signature = {f"v({node})": _decimate(ds.trace(f"v({node})"), limit)
                 for node in nodes}
    metrics = {
        "steps": float(stats.get("steps", 0)),
        "dimension": float(circuit.dimension()),
    }
    probe = params.get("probe_node")
    if probe is not None:
        # e.g. the rca carry-launch sanity check reads v(s0) at tstop
        metrics["probe_final_v"] = float(ds.trace(f"v({probe})")[-1])
    return {
        "wall_s": wall,
        "newton_iterations": float(stats.get("iterations", 0)),
        "metrics": metrics,
        "signature": signature,
    }


# ----------------------------------------------------------------------
# vsc_sweep
# ----------------------------------------------------------------------

def _run_vsc_sweep(point: Mapping, params: Mapping,
                   seed: int) -> Dict[str, Any]:
    from repro.experiments.workloads import default_device_parameters
    from repro.pwl.batch import StackedVscSolver
    from repro.pwl.device import CNFET
    from repro.pwl.kernels import using_kernels

    kernels = str(_get(point, params, "kernels", "numpy"))
    points = int(_get(point, params, "grid_points", 25))
    vmax = float(_get(point, params, "vmax", 0.6))
    models = params.get("models", ("model1", "model2"))
    devices = [CNFET(default_device_parameters(), model=m)
               for m in models]
    vg_grid = np.linspace(0.0, vmax, points)
    vd_grid = np.linspace(0.0, vmax, points)
    stacked = StackedVscSolver([d.solver for d in devices])
    hint = np.zeros(stacked.n_lanes)
    out = np.empty((vg_grid.size, vd_grid.size, stacked.n_lanes))
    with using_kernels(kernels):
        start = time.perf_counter()
        for i, vg in enumerate(vg_grid):
            for j, vd in enumerate(vd_grid):
                out[i, j] = stacked.solve(
                    np.full(stacked.n_lanes, vg),
                    np.full(stacked.n_lanes, vd), hint)
        wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "newton_iterations": float("nan"),
        "metrics": {"solves": float(points * points)},
        "signature": {"vsc_v": [float(v) for v in out.ravel()]},
    }


# ----------------------------------------------------------------------
# mc_device
# ----------------------------------------------------------------------

def _run_mc_device(point: Mapping, params: Mapping,
                   seed: int) -> Dict[str, Any]:
    from repro.pwl.device import clear_fit_cache, fit_cache_info
    from repro.variability.campaign import DeviceMetricsEvaluator
    from repro.variability.params import default_device_space

    from repro.variability.sampling import monte_carlo

    engine = _get(point, params, "engine")
    n = int(_get(point, params, "samples", 2000))
    subset = int(_get(point, params, "naive_samples", 200))
    sample_seed = int(_get(point, params, "sample_seed", seed))
    space = default_device_space()
    samples = monte_carlo(space, n, seed=sample_seed)

    fits = float("nan")
    distinct = float("nan")
    if engine == "campaign_cold":
        # cold must mean cold regardless of what ran before in this
        # process (other cells, earlier repetitions): drop the
        # process-wide fit cache so the timed evaluate pays the full
        # fit cost.
        clear_fit_cache()
        evaluator = DeviceMetricsEvaluator(space)
        start = time.perf_counter()
        rows = evaluator.evaluate(samples)
        wall = time.perf_counter() - start
        fits = float(fit_cache_info()["misses"])
        distinct = float(len(evaluator._memo))
        evaluated = n
    elif engine == "campaign_warm":
        # warm the process-wide fit cache (untimed), then time a fresh
        # evaluator: the per-evaluator metric memo stays cold, the
        # shared fits are hits.
        DeviceMetricsEvaluator(space).evaluate(samples)
        evaluator = DeviceMetricsEvaluator(space)
        start = time.perf_counter()
        rows = evaluator.evaluate(samples)
        wall = time.perf_counter() - start
        distinct = float(len(evaluator._memo))
        evaluated = n
    elif engine in ("naive", "naive_cached"):
        # the seed-style per-sample loop costs strictly per sample, so
        # it is measured on a subset and extrapolated by the report
        evaluator = DeviceMetricsEvaluator(space)
        use_cache = engine == "naive_cached"
        if use_cache:
            evaluator.evaluate_naive(samples[:1], use_fit_cache=True)
        start = time.perf_counter()
        rows = evaluator.evaluate_naive(samples[:subset],
                                        use_fit_cache=use_cache)
        wall = time.perf_counter() - start
        evaluated = subset
    else:
        raise ParameterError(
            f"mc_device engine must be campaign_cold, campaign_warm, "
            f"naive or naive_cached: {engine!r}")

    return {
        "wall_s": wall,
        "newton_iterations": float("nan"),
        "metrics": {
            "samples_evaluated": float(evaluated),
            "per_sample_s": wall / max(evaluated, 1),
            "fits": fits,
            "distinct_devices": distinct,
        },
        # the shared prefix every engine evaluates; the campaign
        # quantises devices, so campaign-vs-naive deviation here is
        # the documented quantisation error, not an engine bug
        "signature": {"ion_a": [float(r["ion"])
                                for r in rows[:subset]]},
    }


# ----------------------------------------------------------------------
# ring_adaptive / ring_accuracy
# ----------------------------------------------------------------------

def _ring_setup(point: Mapping, params: Mapping):
    from repro.circuit.logic import LogicFamily, build_ring_oscillator
    from repro.circuit.transient import initial_conditions_from_op

    stages = int(_get(point, params, "stages", 3))
    vdd = float(_get(point, params, "vdd", 0.6))
    family = LogicFamily.default(vdd=vdd)
    ring, nodes = build_ring_oscillator(family, stages=stages)
    x0 = initial_conditions_from_op(
        ring, {nodes[0]: 0.0, nodes[1]: vdd})
    return ring, nodes, x0


def _run_ring_adaptive(point: Mapping, params: Mapping,
                       seed: int) -> Dict[str, Any]:
    from repro.circuit.mna import NewtonOptions
    from repro.circuit.transient import transient

    engine = _get(point, params, "engine")
    if engine not in ("legacy", "pinned"):
        raise ParameterError(
            f"ring_adaptive engine must be 'legacy' or 'pinned': "
            f"{engine!r}")
    ring, nodes, x0 = _ring_setup(point, params)
    tstop = float(_get(point, params, "tstop", 1.5e-10))
    dt = float(_get(point, params, "dt", 2e-12))
    # tight Newton tolerances so the comparison measures the engines,
    # not the Newton stop criterion
    tight = NewtonOptions(vtol=1e-12, reltol=1e-10)
    kwargs: Dict[str, Any] = dict(tstop=tstop, dt=dt, x0=x0,
                                  method="be", options=tight)
    if engine == "pinned":
        kwargs.update(adaptive=True, dt_min=dt, dt_max=dt)
    stats: Dict = {}
    start = time.perf_counter()
    ds = transient(ring, stats=stats, **kwargs)
    wall = time.perf_counter() - start
    signature = {f"v({n})": [float(v) for v in ds.trace(f"v({n})")]
                 for n in nodes}
    return {
        "wall_s": wall,
        "newton_iterations": float(stats.get("iterations", 0)),
        "metrics": {"steps": float(stats.get("steps", 0))},
        "signature": signature,
    }


def _run_ring_accuracy(point: Mapping, params: Mapping,
                       seed: int) -> Dict[str, Any]:
    from repro.circuit.transient import transient

    mode = str(_get(point, params, "mode"))
    ring, nodes, x0 = _ring_setup(point, params)
    tstop = float(_get(point, params, "tstop", 1e-11))
    grid_points = int(_get(point, params, "grid_points", 801))
    kwargs: Dict[str, Any] = {}
    if mode == "reference":
        kwargs = dict(dt=float(_get(point, params, "reference_dt",
                                    2.5e-15)), method="trap")
    elif mode == "adaptive":
        kwargs = dict(method="trap",
                      rtol=float(_get(point, params, "rtol", 3e-4)))
    elif mode.startswith("fixed_"):
        kwargs = dict(dt=float(mode[len("fixed_"):]), method="be")
    else:
        raise ParameterError(
            f"ring_accuracy mode must be 'reference', 'adaptive' or "
            f"'fixed_<dt>': {mode!r}")
    stats: Dict = {}
    start = time.perf_counter()
    ds = transient(ring, tstop=tstop, x0=x0, stats=stats, **kwargs)
    wall = time.perf_counter() - start
    # every mode reports its waveform on one shared grid, so each
    # cell's parity column vs the reference baseline IS its error
    tgrid = np.linspace(0.0, tstop, grid_points)
    signature = {
        f"v({n})": [float(v) for v in
                    np.interp(tgrid, ds.axis, ds.trace(f"v({n})"))]
        for n in nodes
    }
    return {
        "wall_s": wall,
        "newton_iterations": float(stats.get("iterations", 0)),
        "metrics": {
            "steps": float(stats.get("steps", 0)),
            "rejected_lte": float(stats.get("rejected_lte", 0)),
        },
        "signature": signature,
    }


# ----------------------------------------------------------------------
# circuit_dc / dc_sweep_chain
# ----------------------------------------------------------------------

def _run_circuit_dc(point: Mapping, params: Mapping,
                    seed: int) -> Dict[str, Any]:
    from repro.circuit.logic import LogicFamily, build_ripple_carry_adder
    from repro.circuit.mna import robust_dc_solve
    from repro.circuit.waveforms import Pulse

    backend = str(_get(point, params, "backend", "auto"))
    size = int(_get(point, params, "size", 32))
    vdd = float(_get(point, params, "vdd", 0.6))
    options = _newton_options(_get(point, params, "chord", "on"))
    family = LogicFamily.default(vdd=vdd)
    cin = Pulse(0.0, vdd, 5e-12, 1e-12, 1e-12, 4e-11, 1e-10)
    adder, _info = build_ripple_carry_adder(
        family, size, a_value=(1 << size) - 1, b_value=0, cin_wave=cin)
    start = time.perf_counter()
    x = robust_dc_solve(adder, None, options, backend=backend)
    wall = time.perf_counter() - start
    n_nodes = adder.n_nodes
    return {
        "wall_s": wall,
        "newton_iterations": float("nan"),
        "metrics": {"dimension": float(adder.dimension())},
        "signature": {"node_v": [float(v) for v in x[:n_nodes]]},
    }


def _run_dc_sweep_chain(point: Mapping, params: Mapping,
                        seed: int) -> Dict[str, Any]:
    from repro.circuit.dc import dc_sweep
    from repro.circuit.logic import LogicFamily, build_inverter_chain
    from repro.circuit.mna import NewtonOptions

    backend = str(_get(point, params, "backend", "auto"))
    stages = int(_get(point, params, "stages", 101))
    points = int(_get(point, params, "points", 21))
    vdd = float(_get(point, params, "vdd", 0.6))
    family = LogicFamily.default(vdd=vdd)
    chain, _out = build_inverter_chain(family, stages)
    # supply ramp: every sweep point keeps all stages saturated (an
    # input sweep would cross the chain's metastable threshold)
    opts = NewtonOptions(vtol=1e-11, reltol=1e-9)
    values = np.linspace(0.0, vdd, points)
    start = time.perf_counter()
    sweep = dc_sweep(chain, "vdd_src", values, opts, backend=backend)
    wall = time.perf_counter() - start
    signature = {f"v({node})": [float(v)
                                for v in sweep.trace(f"v({node})")]
                 for node in chain.nodes}
    return {
        "wall_s": wall,
        "newton_iterations": float("nan"),
        "metrics": {
            "dimension": float(chain.dimension()),
            "points": float(points),
        },
        "signature": signature,
    }


# ----------------------------------------------------------------------
# partitioned_transient
# ----------------------------------------------------------------------

def _run_partitioned_transient(point: Mapping, params: Mapping,
                               seed: int) -> Dict[str, Any]:
    from repro.circuit.logic import LogicFamily, build_ripple_carry_adder
    from repro.circuit.mna import robust_dc_solve
    from repro.circuit.transient import transient
    from repro.circuit.waveforms import Pulse

    solver = _get(point, params, "solver")
    if solver not in ("monolithic", "partitioned",
                      "partitioned_nobypass"):
        raise ParameterError(
            f"partitioned_transient solver must be 'monolithic', "
            f"'partitioned' or 'partitioned_nobypass': {solver!r}")
    activity = str(_get(point, params, "activity", "hold"))
    if activity not in ("hold", "pulse"):
        raise ParameterError(
            f"partitioned_transient activity must be 'hold' or "
            f"'pulse': {activity!r}")
    size = int(_get(point, params, "size", 32))
    vdd = float(_get(point, params, "vdd", 0.6))
    tstop = float(_get(point, params, "tstop", 2e-11))
    dt = float(_get(point, params, "dt", 5e-13))
    family = LogicFamily.default(vdd=vdd)
    adder, _info = build_ripple_carry_adder(family, size,
                                            a_value=3, b_value=5)
    if activity == "pulse":
        for el in adder.elements:
            if el.name == "va0":
                el.waveform = Pulse(v1=0.0, v2=vdd, delay=2e-12,
                                    rise=1e-12, fall=1e-12,
                                    width=6e-12, period=1.0)
    x0 = robust_dc_solve(adder)
    kwargs: Dict[str, Any] = {}
    if solver != "monolithic":
        kwargs["partition"] = "auto"
    if solver == "partitioned_nobypass":
        kwargs["bypass_tol"] = 0.0
    chord = _get(point, params, "chord", "default")
    if chord != "default":
        kwargs["options"] = _newton_options(chord)
    stats: Dict = {}
    start = time.perf_counter()
    ds = transient(adder, tstop=tstop, dt=dt, x0=x0,
                   record_currents=False, stats=stats, **kwargs)
    wall = time.perf_counter() - start
    limit = int(params.get("signature_points", 128))
    node_limit = int(params.get("signature_nodes", 24))
    nodes = list(adder.nodes)
    if len(nodes) > node_limit:
        stride = int(np.ceil(len(nodes) / node_limit))
        nodes = nodes[::stride]
    signature = {f"v({node})": _decimate(ds.trace(f"v({node})"), limit)
                 for node in nodes}
    return {
        "wall_s": wall,
        "newton_iterations": float(stats.get("iterations", 0)),
        "metrics": {
            "steps": float(stats.get("steps", 0)),
            "dimension": float(adder.dimension()),
            "block_steps_active": float(
                stats.get("partition_block_steps_active", 0)),
            "block_steps_bypassed": float(
                stats.get("partition_block_steps_bypassed", 0)),
            "interface_solve_reuses": float(
                stats.get("partition_interface_solve_reuses", 0)),
        },
        "signature": signature,
    }


register_workload(Workload(
    name="char_grid", run=_run_char_grid, parity="rel",
    description="gate characterization load x slew grid, "
                "engine in {batch, sequential}"))
register_workload(Workload(
    name="mc_ring", run=_run_mc_ring, parity="rel",
    description="ring-oscillator MC campaign, "
                "engine in {batch, sequential}"))
register_workload(Workload(
    name="ring_lanes", run=_run_ring_lanes, parity="abs",
    description="heterogeneous ring lanes on a shared fixed grid, "
                "engine in {batch, scalar}; parity is the lane gate"))
register_workload(Workload(
    name="circuit_transient", run=_run_circuit_transient, parity="abs",
    description="one transient over circuit/size/backend/kernels/"
                "chord factors"))
register_workload(Workload(
    name="vsc_sweep", run=_run_vsc_sweep, parity="abs",
    description="stacked-VSC kernel bias sweep per kernel tier; "
                "parity is the kernel-parity gate"))
register_workload(Workload(
    name="mc_device", run=_run_mc_device, parity="rel",
    description="device-metric MC campaign vs the naive per-sample "
                "loop, engine in {campaign_cold, campaign_warm, "
                "naive, naive_cached}"))
register_workload(Workload(
    name="ring_adaptive", run=_run_ring_adaptive, parity="abs",
    description="adaptive engine pinned to the legacy grid vs the "
                "legacy engine; parity is the pinned-grid gate"))
register_workload(Workload(
    name="ring_accuracy", run=_run_ring_accuracy, parity="abs",
    description="waveform-accuracy/Newton-work ladder, mode in "
                "{reference, adaptive, fixed_<dt>}; parity vs the "
                "reference is each cell's waveform error"))
register_workload(Workload(
    name="circuit_dc", run=_run_circuit_dc, parity="abs",
    description="one robust DC solve per linear-solver backend; the "
                "signature carries the node voltages"))
register_workload(Workload(
    name="dc_sweep_chain", run=_run_dc_sweep_chain, parity="abs",
    description="inverter-chain supply-ramp DC sweep per backend"))
register_workload(Workload(
    name="partitioned_transient", run=_run_partitioned_transient,
    parity="abs",
    description="partitioned latency-exploiting transient vs the "
                "monolithic engine, solver in {monolithic, "
                "partitioned, partitioned_nobypass}"))
