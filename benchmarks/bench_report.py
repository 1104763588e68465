#!/usr/bin/env python
"""Dump a ``BENCH_<name>.json`` perf snapshot so the trajectory is
tracked across PRs.

Measures the headline workloads of the perf overhaul (ISSUE 1), the
Monte-Carlo campaign throughput of the variability subsystem (ISSUE 2),
the adaptive-transient engine gate (ISSUE 3), the lane-batched
transient engine (ISSUE 4), the hierarchy + sparse-backend layer
(ISSUE 5) and the simulation service (ISSUE 7):

* **Fig. 6/7 IV families** — the batched ``iv_family`` path against the
  seed-style scalar loop (``model.ids`` point by point), same run, same
  machine: points/sec and the speed-up ratio per model and combined.
* **Ring-oscillator transient** — wall time, steps, Newton
  iterations/step, and the number of closed-form solves consumed
  (machine-independent work metric; the seed engine spent ~5 scalar
  solves per CNFET per iteration plus one per CNFET per recorded row).
* **MC device metrics** — a 2000-sample Ion/Ioff/Vth/gm campaign
  through the grouped ``ids_batch`` fast path (cold: includes the
  handful of shared fits; warm: fit cache populated) against the
  seed-style naive loop (one freshly fitted device per sample, scalar
  bias evaluation).  Declared in ``configs/mc_device.json``.
* **Adaptive transient** — two gates on the ring oscillator: (a)
  *parity*: the adaptive engine pinned to the legacy grid
  (``dt_min == dt_max == dt``) must reproduce the fixed-step
  regression waveform within 1e-9 V (the residual is Newton
  convergence noise); (b) *work*: at matched waveform accuracy against
  a converged reference, the adaptive trapezoidal engine must need
  >= 2x fewer Newton iterations than the legacy fixed-step BE engine.
  Declared in ``configs/transient_adaptive.json``; every cell of the
  accuracy ladder reports its waveform on one shared grid, so the
  runner's parity column against the converged-reference baseline
  *is* the waveform error.
* **Batch transient** — the lane-batched engine against sequential
  per-instance loops: a 7x7 gate-characterization grid and a
  256-sample MC ring campaign must each run >= 3x faster, and the
  per-lane waveforms of a heterogeneous fixed-grid ring batch must
  match the scalar engine within 1e-9 V.  Declared in
  ``configs/batch_transient.json`` and executed through the
  ``repro.exprunner`` experiment runner (as is the compiled-hot-path
  matrix via ``configs/compiled_hot_path.json``); this script renders
  the run tables into the section keys.  Every gated timing in the
  report is best-of-3 (``docs/experiments.md`` documents the
  robust-timing protocol).
* **Large circuit** — hierarchical blocks through both linear-solver
  backends: a 32-bit ripple-carry adder (DC + carry-ripple transient,
  sparse >= 3x dense on the transient, node-voltage parity <= 1e-9 V)
  and a 101-stage inverter-chain DC sweep (parity-gated; reports
  which backend was faster).  Declared in
  ``configs/large_circuit.json``.
* **Partitioned transient** — the ISSUE 10 latency-exploiting
  partitioned engine vs the monolithic solve on a 32-bit RCA
  (``configs/partitioned_transient.json``): a quiescent *hold* run
  where nearly every block sleeps (partitioned + bypass >= 2x
  monolithic, gated) and a 1-input *pulse* run (recorded; bypass
  wins little when the carry chain is active, documented not gated).
  Parity gates on both: <= 5e-6 V with bypass (the documented bypass
  tolerance envelope), <= 1e-9 V with bypass off.
* **Out-of-core store** — a transient whose raw trace exceeds the
  1 MiB peak cap runs once in-memory and once through the chunked
  ``WaveformStore``; ``tracemalloc`` peaks must show the store run
  bounded (< cap, and >= 4x under the in-memory peak) and the
  decimated ``Dataset.summary`` of the lazy run must be
  bit-identical to the in-memory one.
* **Compiled hot path** — the ISSUE 6 kernel tier and worker
  sharding: the rca32 carry-ripple transient with compiled kernels +
  the tuned chord default against the PR-5 configuration re-measured
  in-run (numpy tier, ``jacobian_reuse_tol=0``, >= 3x gated), the
  stacked-VSC kernel parity between the numpy and compiled tiers
  (<= 1e-12 V gated), and the parallel efficiency of a 4-worker
  2000-sample MC campaign (>= 0.6, gated on machines with >= 4
  cores, recorded otherwise).
* **Service load** — the ISSUE 7 ``repro.service`` job server under a
  burst of concurrent HTTP clients submitting same-topology transient
  jobs: the coalescing scheduler must fold the burst into fewer
  engine dispatches than jobs (coalesce ratio >= 2x gated), served
  waveforms must match a direct in-process ``transient`` call within
  1e-9 V, and jobs/s plus p50/p95 per-job latency are recorded for
  the trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_report.py [--name NAME]
        [--check]

``--check`` exits non-zero when any measured figure regresses below
its acceptance floor: the ISSUE 1 batch speed-up / transient work
reduction, the ISSUE 2 MC campaign throughput/speed-up, the ISSUE 3
adaptive-transient parity and iteration ratio, the ISSUE 4
lane-batched speed-ups and per-lane waveform parity, the ISSUE 5
sparse-backend speed-up and parity, the ISSUE 6 compiled-hot-path
speed-up, kernel parity and MC parallel efficiency, the ISSUE 7
service coalesce ratio and served-waveform parity, or the ISSUE 10
partitioned-transient speed-up/parity and out-of-core peak-memory
gates (the Table I speed-up assertions live in the pytest suite that
`make bench` runs first).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.circuit.logic import LogicFamily, build_ring_oscillator
from repro.circuit.transient import initial_conditions_from_op, transient
from repro.experiments.workloads import (
    FIG67_VG_VALUES,
    PAPER_VDS_SWEEP,
    default_device_parameters,
)
from repro.pwl.device import CNFET
from repro.reference.sweep import sweep_iv_family

#: acceptance floors from ISSUE 1.  The family floor was originally
#: 5.0 with the combined speedup measuring 5.0-5.1 — zero headroom, so
#: the gate flaked on loaded single-core machines and was widened to
#: 4.0.  With every timed section now on best-of-N interleaved
#: measurement (the ISSUE 8 robust-timing protocol) the flake source
#: is gone, so the floor re-tightens to 4.3: three back-to-back runs
#: of the section on an unchanged checkout measured 4.54 / 4.59 /
#: 4.72, putting the floor ~5% under the observed minimum while still
#: catching any real batch-path regression (those land at 1-2x).
FAMILY_SPEEDUP_FLOOR = 4.3
TRANSIENT_WORK_REDUCTION_FLOOR = 1.5

#: acceptance floors from ISSUE 2 (variability campaigns)
MC_SAMPLES = 2000
MC_SPEEDUP_FLOOR = 10.0          # campaign vs naive per-sample loop
MC_SAMPLES_PER_S_FLOOR = 300.0   # cold-campaign device-metric throughput

#: acceptance floors from ISSUE 3 (adaptive transient)
ADAPTIVE_PARITY_TOL_V = 1e-9     # pinned-grid waveform deviation
ADAPTIVE_ITER_RATIO_FLOOR = 2.0  # legacy iterations / adaptive iterations

#: acceptance floors from ISSUE 4 (lane-batched transient engine)
BATCH_CHAR_SPEEDUP_FLOOR = 3.0   # 7x7 characterization grid
BATCH_MC_SPEEDUP_FLOOR = 3.0     # 256-sample MC ring campaign
BATCH_PARITY_TOL_V = 1e-9        # per-lane waveform parity, shared grid

#: acceptance floors from ISSUE 5 (hierarchy + sparse backend)
LARGE_SPARSE_SPEEDUP_FLOOR = 3.0  # sparse vs dense, 32-bit RCA transient
LARGE_PARITY_TOL_V = 1e-9         # dense-vs-sparse node-voltage parity

#: acceptance floors from ISSUE 6 (compiled kernel tier + sharding)
HOT_SPEEDUP_FLOOR = 3.0        # compiled+chord vs PR-5 config, rca32 transient
HOT_PARITY_TOL_V = 1e-12       # stacked-VSC kernel parity, numpy vs compiled
HOT_MC_EFFICIENCY_FLOOR = 0.6  # 4-worker campaign (gated at >= 4 cores)
HOT_MC_WORKERS = 4

#: acceptance floors from ISSUE 7 (simulation-as-a-service layer)
SERVICE_JOBS = 16                   # concurrent same-topology jobs
SERVICE_COALESCE_RATIO_FLOOR = 2.0  # jobs per engine dispatch
SERVICE_PARITY_TOL_V = 1e-9         # served vs direct-engine waveforms

#: acceptance floors from ISSUE 10 (partitioned latency-exploiting
#: transient + out-of-core waveform store).  The hold-workload
#: speedup measured 3-4.2x across repeated runs; the floor sits at
#: the ISSUE's >= 2x acceptance line.  The bypass parity envelope is
#: the documented tolerance semantics (DEFAULT_BYPASS_TOL plateaus),
#: measured ~3e-7 V on this workload.
PARTITION_SPEEDUP_FLOOR = 2.0        # partitioned+bypass vs monolithic, hold
PARTITION_BYPASS_PARITY_TOL_V = 5e-6  # waveform envelope with bypass on
PARTITION_EXACT_PARITY_TOL_V = 1e-9   # bypass off: solver-tolerance parity
STORE_PEAK_CAP_BYTES = 1 << 20        # out-of-core run peak allocation cap
STORE_PEAK_RATIO_FLOOR = 4.0          # in-memory peak / store-backed peak


def _best_of(fn, repeats: int, inner: int) -> float:
    """Best per-call wall time over ``repeats`` blocks of ``inner``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


#: Declarative experiment configs the runner-backed sections execute.
CONFIG_DIR = Path(__file__).parent / "configs"
#: Run directories for the runner-backed sections — wiped per
#: invocation (timings must be re-measured every run; resume is for
#: the CLI and the CI smoke, not for benchmarks), kept on disk so a
#: failing gate can be diagnosed from the run tables.
EXP_ROOT = Path(__file__).parent.parent / ".benchmarks" / "exp"


def _run_suite(config_name: str, prune_compiled: bool = False) -> dict:
    """Execute ``configs/<config_name>.json`` into fresh run dirs.

    Returns ``{experiment_name: ExperimentResult}``.  The plan's
    repetition-major ordering is what interleaves the compared cells
    (the same protocol the hand-written timing loops used), and the
    rendered sections read best-of-repetitions from the cell
    aggregates.  ``prune_compiled`` drops the ``compiled`` kernel
    level when no compiled backend is available, mirroring the old
    sections' conditional measurement.
    """
    import shutil

    from repro.exprunner import ExperimentRunner, load_config
    from repro.pwl.kernels import compiled_backend_available

    suite = load_config(CONFIG_DIR / f"{config_name}.json")
    suite_root = EXP_ROOT / config_name
    if suite_root.exists():
        shutil.rmtree(suite_root)
    results = {}
    for config in suite:
        if (prune_compiled and not compiled_backend_available()
                and "kernels" in config.factor_names):
            kernel_levels = dict(config.factors)["kernels"]
            config = config.with_factor(
                "kernels",
                tuple(v for v in kernel_levels if v != "compiled"))
        runner = ExperimentRunner(config, suite_root / config.name)
        results[config.name] = runner.run(resume=False)
    return results


def bench_iv_family() -> dict:
    """Batched vs scalar-loop family on the Fig. 6/7 workload."""
    vg = list(FIG67_VG_VALUES)
    vd = list(PAPER_VDS_SWEEP)
    points = len(vg) * len(vd)
    out = {"workload": "fig6/7 output families",
           "points_per_family": points, "models": {}}
    total_batch = total_scalar = 0.0
    for model in ("model1", "model2"):
        device = CNFET(default_device_parameters(), model=model)
        sweep_iv_family(device, vg, vd, use_batch=True)    # warm caches
        # Interleave batch and scalar blocks so CPU-frequency noise and
        # noisy neighbours bias both paths alike; keep the best block.
        batch_s = scalar_s = float("inf")
        for _ in range(12):
            batch_s = min(batch_s, _best_of(
                lambda: sweep_iv_family(device, vg, vd, use_batch=True),
                repeats=1, inner=200))
            scalar_s = min(scalar_s, _best_of(
                lambda: sweep_iv_family(device, vg, vd, use_batch=False),
                repeats=1, inner=40))
        total_batch += batch_s
        total_scalar += scalar_s
        out["models"][model] = {
            "batch_s": batch_s,
            "scalar_loop_s": scalar_s,
            "speedup": scalar_s / batch_s,
            "points_per_s_batch": points / batch_s,
            "points_per_s_scalar": points / scalar_s,
        }
    out["combined_speedup"] = total_scalar / total_batch
    return out


def _count_closed_form_solves(device: CNFET) -> tuple:
    """Instrument a device's solver; returns ([count] cell, restore)."""
    cell = [0]
    solver = device.solver
    orig_solve, orig_many = solver.solve, solver.solve_many

    def solve(*args, **kwargs):
        cell[0] += 1
        return orig_solve(*args, **kwargs)

    def solve_many(vg, vd, vs=0.0):
        result = orig_many(vg, vd, vs)
        cell[0] += int(np.asarray(result).size)
        return result

    solver.solve, solver.solve_many = solve, solve_many

    def restore():
        solver.solve, solver.solve_many = orig_solve, orig_many

    return cell, restore


def bench_ring_transient() -> dict:
    """Ring-oscillator transient wall time and Newton work."""
    family = LogicFamily.default(vdd=0.6)
    ring, _ = build_ring_oscillator(family, stages=3)
    x0 = initial_conditions_from_op(ring, {"n0": 0.0, "n1": 0.6})

    def run(stats=None):
        return transient(ring, tstop=1.5e-10, dt=2e-12, x0=x0,
                         method="be", stats=stats)

    run()                                                  # warm caches
    wall = _best_of(run, repeats=7, inner=1)
    stats: dict = {}
    devices = {id(el.backend.device): el.backend.device
               for el in ring.elements if hasattr(el, "backend")}
    instrumented = [_count_closed_form_solves(dev)
                    for dev in devices.values()]
    try:
        run(stats)
    finally:
        for _cell, restore in instrumented:
            restore()
    # the instrumented scalar solver sees the current traces and the
    # bank's region-drift fallbacks; the bank's stacked solves are
    # counted by the run itself
    solves = sum(cell[0] for cell, _restore in instrumented) \
        + stats["stacked_lanes"]
    steps = stats["steps"]
    iterations = stats["iterations"]
    n_cnfets = sum(1 for el in ring.elements if hasattr(el, "backend"))
    # Seed engine work for the same iteration count: 5 scalar solves per
    # CNFET per Newton iteration (evaluate + 4 charge solves) plus one
    # per CNFET per recorded row for the current traces.
    seed_equiv = iterations * n_cnfets * 5 + (steps + 1) * n_cnfets
    return {
        "workload": "3-stage CNFET ring oscillator, BE, 75 steps",
        "wall_s": wall,
        "steps": steps,
        "newton_iterations": iterations,
        "iterations_per_step": iterations / steps,
        "closed_form_solves": solves,
        "seed_equivalent_solves": seed_equiv,
        "work_reduction": seed_equiv / solves,
    }


def bench_adaptive_transient() -> dict:
    """ISSUE 3 gates on the 3-stage ring oscillator.

    A thin driver over ``configs/transient_adaptive.json``:

    *Parity*: the ``pinned_parity`` experiment runs the adaptive
    engine pinned to the legacy fixed grid against the legacy engine;
    the runner's parity column (waveforms in the signature) must stay
    within ``ADAPTIVE_PARITY_TOL_V``.

    *Work*: the ``matched_accuracy`` experiment runs a converged
    trapezoidal reference (the baseline cell), the adaptive engine at
    default-ish tolerance, and a fixed-step BE dt ladder — all
    reporting their waveform on one shared grid, so each cell's
    parity column *is* its waveform error vs the reference.  The
    ladder is walked down until it matches the adaptive accuracy; the
    Newton-iteration ratio at the match point is the gated speed-up.
    """
    results = _run_suite("transient_adaptive")
    pinned = results["pinned_parity"].cell(engine="pinned")

    acc = results["matched_accuracy"]
    adaptive = acc.cell(mode="adaptive")
    err_adaptive = adaptive["parity_max"]

    ladder = [mode for mode in dict(acc.config.factors)["mode"]
              if mode.startswith("fixed_")]
    matched = False
    fixed_dt = fixed_iters = err_fixed = float("nan")
    for mode in ladder:             # config order: coarse -> fine
        cell = acc.cell(mode=mode)
        fixed_dt = float(mode[len("fixed_"):])
        fixed_iters = cell["newton_iterations"]
        err_fixed = cell["parity_max"]
        if err_fixed <= err_adaptive:
            matched = True
            break
    # If even the finest dt stays less accurate, the ratio at the
    # finest dt *understates* the true equal-accuracy ratio — still a
    # valid lower bound for the gate.
    ratio = fixed_iters / adaptive["newton_iterations"]
    reference = acc.cell(mode="reference")
    return {
        "workload": "3-stage CNFET ring oscillator (ISSUE 3 gates)",
        "run_dir": str(EXP_ROOT / "transient_adaptive"),
        "parity_pinned_grid_v": pinned["parity_max"],
        "parity_tol_v": ADAPTIVE_PARITY_TOL_V,
        "reference": {"method": "trap", "dt": 2.5e-15,
                      "iterations": reference["newton_iterations"]},
        "adaptive": {
            "method": "trap", "rtol": 3e-4,
            "steps": adaptive["metrics"]["steps"],
            "iterations": adaptive["newton_iterations"],
            "rejected_lte": adaptive["metrics"]["rejected_lte"],
            "waveform_error_v": err_adaptive,
        },
        "fixed_at_match": {
            "method": "be", "dt": fixed_dt,
            "iterations": fixed_iters,
            "waveform_error_v": err_fixed,
            "matched_accuracy": matched,
        },
        "iteration_ratio": ratio,
    }


def bench_mc_device() -> dict:
    """2000-sample device-metric MC campaign vs the naive loop.

    A thin driver over ``configs/mc_device.json`` — the cold/warm
    campaign and the seed-style naive loop run as an ``engine`` factor
    matrix through ``repro.exprunner`` (three interleaved repetitions,
    best-of-N).  The naive baseline is measured on a subset: its cost
    is strictly per-sample (every sample refits its own device — the
    pre-cache construction behaviour — then walks the bias grid with
    scalar ``ids`` calls), so the per-sample rate extrapolates without
    bias and the benchmark stays under a minute.  The campaign
    quantises devices, so its parity column vs the naive baseline
    records the documented quantisation envelope (informational, not
    a gate).
    """
    results = _run_suite("mc_device")
    result = results["mc_device"]
    cold = result.cell(engine="campaign_cold")
    warm = result.cell(engine="campaign_warm")
    naive = result.cell(engine="naive")
    cached = result.cell(engine="naive_cached")

    samples = int(cold["metrics"]["samples_evaluated"])
    naive_n = int(naive["metrics"]["samples_evaluated"])
    cold_s = cold["wall_s_min"]
    warm_s = warm["wall_s_min"]
    naive_per_sample_s = naive["wall_s_min"] / naive_n
    cached_scalar_per_sample_s = cached["wall_s_min"] / naive_n
    naive_total_s = naive_per_sample_s * samples
    return {
        "workload": f"{samples}-sample Ion/Ioff/Vth/gm campaign, "
                    f"default device space",
        "run_dir": str(EXP_ROOT / "mc_device"),
        "samples": samples,
        "fits": int(cold["metrics"]["fits"]),
        "distinct_devices": int(cold["metrics"]["distinct_devices"]),
        "campaign_cold_s": cold_s,
        "campaign_cold_s_all": cold["wall_s_all"],
        "campaign_warm_s": warm_s,
        "samples_per_s_cold": samples / cold_s,
        "samples_per_s_warm": samples / warm_s,
        "naive_per_sample_s": naive_per_sample_s,
        "naive_projected_s": naive_total_s,
        "naive_cached_scalar_per_sample_s": cached_scalar_per_sample_s,
        "speedup_vs_naive": naive_total_s / cold_s,
        "speedup_vs_cached_scalar":
            cached_scalar_per_sample_s * samples / warm_s,
        "quantization_rel_err": cold["parity_max"],
    }


def bench_batch_transient() -> dict:
    """ISSUE 4 gates: the lane-batched engine vs per-instance loops.

    A thin driver over ``configs/batch_transient.json`` — the
    characterization grid, MC ring campaign and lane-parity workloads
    are declared there and executed through ``repro.exprunner`` (three
    interleaved repetitions per timed cell, best-of-N aggregation);
    this function only renders the run tables into the section's
    historical keys.  The parity figures *are* the runner's parity
    columns: each cell's signature compared against its declared
    baseline cell (``BATCH_PARITY_TOL_V`` for the per-lane waveforms).
    """
    results = _run_suite("batch_transient")
    char, mc, lanes = (results["char_grid"], results["mc_ring"],
                       results["ring_lanes"])

    char_batch = char.cell(engine="batch")
    char_seq = char.cell(engine="sequential")
    mc_batch = mc.cell(engine="batch")
    mc_seq = mc.cell(engine="sequential")
    lanes_batch = lanes.cell(engine="batch")

    return {
        "run_dir": str(EXP_ROOT / "batch_transient"),
        "characterization_grid": {
            "workload": "nand2 7x7 load x slew grid, adaptive trap",
            "lanes": int(char_batch["metrics"]["lanes"]),
            "batch_s": char_batch["wall_s_min"],
            "sequential_s": char_seq["wall_s_min"],
            "batch_s_all": char_batch["wall_s_all"],
            "sequential_s_all": char_seq["wall_s_all"],
            "speedup": (char_seq["wall_s_min"]
                        / char_batch["wall_s_min"]),
        },
        "mc_ring": {
            "workload": "256-sample 3-stage ring MC "
                        "(RingOscillatorEvaluator)",
            "samples": int(mc_batch["metrics"]["samples"]),
            "distinct_keys": int(mc_batch["metrics"]["distinct_keys"]),
            "batch_s": mc_batch["wall_s_min"],
            "sequential_s": mc_seq["wall_s_min"],
            "batch_s_all": mc_batch["wall_s_all"],
            "sequential_s_all": mc_seq["wall_s_all"],
            "speedup": mc_seq["wall_s_min"] / mc_batch["wall_s_min"],
            "period_metric_max_rel_diff": mc_batch["parity_max"],
        },
        "parity": {
            "workload": "16 heterogeneous MC ring lanes, fixed grid, "
                        "tight Newton",
            "max_waveform_dv_v": lanes_batch["parity_max"],
            "tol_v": BATCH_PARITY_TOL_V,
        },
    }


def _faster(dense_s: float, sparse_s: float) -> str:
    """Which backend the measured times favour, and by how much."""
    if dense_s < sparse_s:
        return f"dense was faster ({sparse_s / dense_s:.2f}x)"
    return f"sparse was faster ({dense_s / sparse_s:.2f}x)"


def bench_large_circuit() -> dict:
    """ISSUE 5 gates: hierarchical blocks through both solver backends.

    A thin driver over ``configs/large_circuit.json``:

    * **32-bit ripple-carry adder** (1152 CNFETs, ~700 unknowns, built
      from NAND2 subcircuits three hierarchy levels deep): DC from
      zeros (``rca32_dc``) and a carry-ripple transient
      (``rca32_tran``: ``A = all ones, B = 0``, pulse on ``cin`` —
      the worst-case transition walks the carry through every stage)
      through the dense and sparse backends, three interleaved
      repetitions each.  The transient is the adaptive engine pinned
      to a shared grid (``dt_min == dt_max``) so both backends
      integrate the same time points and the parity column measures
      the backends, not interpolation.  Gates: sparse >=
      ``LARGE_SPARSE_SPEEDUP_FLOOR`` x dense on the transient (the
      largest bench circuit), DC and waveform parity <=
      ``LARGE_PARITY_TOL_V``.
    * **101-stage inverter chain DC sweep** (``chain101_sweep``, 202
      CNFETs, ~100 unknowns): 21-point supply-ramp sweep through both
      backends (a supply ramp keeps every stage saturated; an *input*
      sweep would cross the chain's metastable threshold).  The
      note reports which backend the measured times favour (only
      parity is gated).
    """
    results = _run_suite("large_circuit")
    dc_dense = results["rca32_dc"].cell(backend="dense")
    dc_sparse = results["rca32_dc"].cell(backend="sparse")
    tr_dense = results["rca32_tran"].cell(backend="dense")
    tr_sparse = results["rca32_tran"].cell(backend="sparse")
    ch_dense = results["chain101_sweep"].cell(backend="dense")
    ch_sparse = results["chain101_sweep"].cell(backend="sparse")

    bits = 32
    chain_points = int(ch_dense["metrics"]["points"])
    return {
        "run_dir": str(EXP_ROOT / "large_circuit"),
        "rca32": {
            "workload": "32-bit CNFET ripple-carry adder, carry "
                        "ripple transient (pinned adaptive grid)",
            "dimension": int(tr_dense["metrics"]["dimension"]),
            # 9 NAND2 per full adder x 4 transistors = 36 per bit
            "cnfets": 36 * bits,
            "dc": {
                "dense_s": dc_dense["wall_s_min"],
                "sparse_s": dc_sparse["wall_s_min"],
                "speedup": (dc_dense["wall_s_min"]
                            / dc_sparse["wall_s_min"]),
                "parity_v": dc_sparse["parity_max"],
            },
            "transient": {
                "steps": int(tr_dense["metrics"]["steps"]),
                "newton_iterations": int(
                    tr_dense["newton_iterations"]),
                "dense_s": tr_dense["wall_s_min"],
                "sparse_s": tr_sparse["wall_s_min"],
                "dense_s_all": tr_dense["wall_s_all"],
                "sparse_s_all": tr_sparse["wall_s_all"],
                "speedup": (tr_dense["wall_s_min"]
                            / tr_sparse["wall_s_min"]),
                "parity_v": tr_sparse["parity_max"],
            },
        },
        "inverter_chain101": {
            "workload": "101-stage CNFET inverter chain, 21-point DC "
                        "supply-ramp sweep",
            "dimension": int(ch_dense["metrics"]["dimension"]),
            "dense_s": ch_dense["wall_s_min"],
            "sparse_s": ch_sparse["wall_s_min"],
            "dense_points_per_s": (chain_points
                                   / ch_dense["wall_s_min"]),
            "sparse_points_per_s": (chain_points
                                    / ch_sparse["wall_s_min"]),
            "parity_v": ch_sparse["parity_max"],
            "note": _faster(ch_dense["wall_s_min"],
                            ch_sparse["wall_s_min"])
                    + " (documented, not gated)",
        },
        # Sanity: with A=ones, B=0 the rising cin flips s0 from VDD to
        # 0 within a few ps, so the carry ripple genuinely launched.
        "carry_launched_ok": bool(
            tr_dense["metrics"]["probe_final_v"] < 0.3),
    }


def bench_partitioned_transient() -> dict:
    """ISSUE 10 gates: the partitioned latency-exploiting engine.

    A thin driver over ``configs/partitioned_transient.json`` — two
    ``solver`` factor matrices (monolithic | partitioned |
    partitioned_nobypass, three interleaved repetitions each) on a
    32-bit ripple-carry adder holding ``A=3, B=5``:

    * ``rca32_hold`` — quiescent stimulus: after the DC point nothing
      switches, so the latency bypass freezes nearly every block and
      the interface solve is reused step over step.  Gates:
      partitioned+bypass >= ``PARTITION_SPEEDUP_FLOOR`` x monolithic,
      bypass parity <= ``PARTITION_BYPASS_PARITY_TOL_V``, nobypass
      parity <= ``PARTITION_EXACT_PARITY_TOL_V``, and the bypass
      actually engaged (bypassed block-steps dominate, interface
      solves reused).
    * ``rca32_pulse`` — one input pulses, the carry chain wakes block
      after block: bypass wins little here by design (measured around
      break-even, 0.5-2x run to run), so the speedup is recorded, not
      gated; both parity gates still apply.
    """
    results = _run_suite("partitioned_transient")
    out: dict = {"run_dir": str(EXP_ROOT / "partitioned_transient")}
    for exp_name, label, gated in (
            ("rca32_hold", "hold", True),
            ("rca32_pulse", "pulse", False)):
        result = results[exp_name]
        mono = result.cell(solver="monolithic")
        part = result.cell(solver="partitioned")
        exact = result.cell(solver="partitioned_nobypass")
        active = part["metrics"]["block_steps_active"]
        bypassed = part["metrics"]["block_steps_bypassed"]
        out[label] = {
            "workload": f"32-bit RCA (A=3, B=5), {label} stimulus, "
                        f"fixed-step trap",
            "gated": gated,
            "monolithic_s": mono["wall_s_min"],
            "partitioned_s": part["wall_s_min"],
            "nobypass_s": exact["wall_s_min"],
            "monolithic_s_all": mono["wall_s_all"],
            "partitioned_s_all": part["wall_s_all"],
            "speedup": mono["wall_s_min"] / part["wall_s_min"],
            "speedup_nobypass": (mono["wall_s_min"]
                                 / exact["wall_s_min"]),
            "parity_bypass_v": part["parity_max"],
            "parity_nobypass_v": exact["parity_max"],
            "block_steps_active": int(active),
            "block_steps_bypassed": int(bypassed),
            "bypass_fraction": (bypassed / max(active + bypassed, 1)),
            "interface_solve_reuses": int(
                part["metrics"]["interface_solve_reuses"]),
        }
    return out


def bench_out_of_core() -> dict:
    """ISSUE 10 gate: bounded peak memory for a store-backed transient.

    One transient whose raw trace matrix exceeds
    ``STORE_PEAK_CAP_BYTES`` runs twice — in-memory, then through the
    chunked on-disk :class:`~repro.circuit.store.WaveformStore` — each
    under ``tracemalloc``.  Hand-written (not a runner config): it
    measures allocation peaks, which a forked or instrumented runner
    would perturb.  Gates: the store-backed peak stays under the cap
    *and* at least ``STORE_PEAK_RATIO_FLOOR`` x below the in-memory
    peak, and the decimated ``Dataset.summary`` of the lazy run is
    bit-identical to the in-memory one (the lazy Dataset contract).
    The workload is a 16-branch RC star — wide enough rows that 10k
    fixed steps push the raw trace well past the cap while each step
    stays a cheap linear solve.
    """
    import shutil
    import tempfile
    import tracemalloc

    from repro.circuit import (
        Capacitor,
        Circuit,
        Resistor,
        VoltageSource,
    )
    from repro.circuit.waveforms import Pulse

    def star(n: int = 16) -> Circuit:
        c = Circuit("rc-star")
        c.add(VoltageSource("v1", "in", "0",
                            Pulse(0.0, 1.0, delay=0.0, rise=1e-15,
                                  width=1e-6, period=2e-6)))
        for i in range(n):
            c.add(Resistor(f"r{i}", "in", f"n{i}",
                           1000.0 * (1 + 0.1 * i)))
            c.add(Capacitor(f"c{i}", f"n{i}", "0", 1e-12))
        return c

    tstop, dt = 1e-7, 1e-11          # 10k fixed steps
    probe = "v(n0)"

    tracemalloc.start()
    ds_mem = transient(star(), tstop=tstop, dt=dt,
                       record_currents=False)
    summary_mem = ds_mem.summary(probe)
    peak_mem = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    store_dir = tempfile.mkdtemp(prefix="bench-store-")
    try:
        tracemalloc.start()
        ds_disk = transient(star(), tstop=tstop, dt=dt,
                            record_currents=False, store=store_dir,
                            store_chunk_rows=256)
        summary_disk = ds_disk.summary(probe)
        peak_disk = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        rows = int(ds_disk.axis.size)
        columns = star().dimension() + 1       # time + solution vector
        raw_bytes = rows * columns * 8
        summaries_identical = (
            summary_mem.keys() == summary_disk.keys()
            and all(np.array_equal(summary_mem[k], summary_disk[k])
                    for k in summary_mem))
        chunks = len(list(Path(store_dir).glob("chunk_*.npy")))
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    return {
        "workload": "16-branch RC star, 10k fixed steps, "
                    "in-memory vs chunked store (tracemalloc peaks)",
        "rows": rows,
        "columns": columns,
        "raw_trace_bytes": raw_bytes,
        "chunk_rows": 256,
        "chunks_written": chunks,
        "peak_in_memory_bytes": int(peak_mem),
        "peak_store_bytes": int(peak_disk),
        "peak_cap_bytes": STORE_PEAK_CAP_BYTES,
        "peak_ratio": peak_mem / max(peak_disk, 1),
        "summaries_identical": bool(summaries_identical),
    }


def bench_compiled_hot_path() -> dict:
    """ISSUE 6 gates: the compiled kernel tier and worker sharding.

    * **rca32 transient** and **kernel parity** — a thin driver over
      ``configs/compiled_hot_path.json``: the 32-bit RCA carry-ripple
      transient runs as a ``kernels x chord`` factor matrix (three
      interleaved repetitions; the PR-5 floor — numpy tier,
      ``jacobian_reuse_tol=0`` — is the in-run baseline cell, keeping
      the gate machine-load-independent), and the stacked-VSC bias
      sweep runs per kernel tier with its parity column as the
      ``HOT_PARITY_TOL_V`` gate (measured ~1e-16).  The rca32
      *waveform* deviation vs the floor cell is recorded for
      information only: Newton trajectories diverge chaotically from
      ulp-level differences, so waveform deltas measure trajectory
      divergence, not kernel accuracy.  When no compiled backend is
      available the ``compiled`` level is pruned from the matrix and
      only the floor cells are measured.
    * **MC scaling** — a 2000-sample device campaign through the
      fork-sharded chunk loop at 1 vs ``HOT_MC_WORKERS`` workers
      (fit cache pre-warmed so workers inherit it copy-on-write);
      parallel efficiency ``t1 / (w * tw)`` is gated on machines with
      at least that many cores and recorded otherwise.  Hand-written
      (not a runner config): it measures the sharding machinery
      itself, which the runner would perturb.
    """
    import os

    from repro.exprunner import robust_time
    from repro.pwl.kernels import compiled_backend_available
    from repro.variability.campaign import (
        Campaign,
        CampaignConfig,
        DeviceMetricsEvaluator,
    )
    from repro.variability.params import default_device_space

    compiled_ok = compiled_backend_available()

    # -- (a) + (b): runner-backed sections -----------------------------
    results = _run_suite("compiled_hot_path", prune_compiled=True)
    rca_result = results["rca32"]
    floor_cell = rca_result.cell(kernels="numpy", chord="off")

    rca32: dict = {
        "workload": "32-bit RCA carry-ripple transient, sparse "
                    "backend, pinned adaptive grid",
        "floor": "numpy kernel tier + jacobian_reuse_tol=0 "
                 "(the PR-5 configuration, re-measured in-run)",
        "run_dir": str(EXP_ROOT / "compiled_hot_path"),
        "numpy_reuse_off_s": floor_cell["wall_s_min"],
        "numpy_reuse_off_s_all": floor_cell["wall_s_all"],
        "floor_newton_iterations": int(
            floor_cell["newton_iterations"]),
    }
    if compiled_ok:
        tuned_cell = rca_result.cell(kernels="compiled", chord="on")
        rca32["compiled_tuned_s"] = tuned_cell["wall_s_min"]
        rca32["compiled_tuned_s_all"] = tuned_cell["wall_s_all"]
        rca32["tuned_newton_iterations"] = int(
            tuned_cell["newton_iterations"])
        rca32["speedup"] = (floor_cell["wall_s_min"]
                            / tuned_cell["wall_s_min"])
        rca32["waveform_dv_v_informational"] = \
            tuned_cell["parity_max"]

    parity: dict = {
        "workload": "stacked-VSC solve, model1+model2 lanes, "
                    "25x25 bias grid, fresh hints per tier",
        "tol_v": HOT_PARITY_TOL_V,
    }
    if compiled_ok:
        vsc_result = results["vsc_parity"]
        parity["max_dv_v"] = \
            vsc_result.cell(kernels="compiled")["parity_max"]

    # -- (c) MC scaling through the fork-sharded chunk loop ------------
    space = default_device_space()
    config = CampaignConfig(name="hot-path-mc", n_samples=MC_SAMPLES,
                            seed=11, sampler="mc", chunk_size=125)
    # Pre-warm the shared fit cache so forked workers inherit it
    # copy-on-write and the measurement times the chunk loop.  Both
    # arms best-of-3: the efficiency gate divides two wall times, so a
    # load spike in either single-shot measurement used to move it.
    Campaign(config, space, DeviceMetricsEvaluator(space)).run()
    serial_s = robust_time(
        lambda: Campaign(config, space,
                         DeviceMetricsEvaluator(space)).run(workers=1),
        repeats=3)["best_s"]
    sharded_s = robust_time(
        lambda: Campaign(config, space,
                         DeviceMetricsEvaluator(space)).run(
                             workers=HOT_MC_WORKERS),
        repeats=3)["best_s"]
    cores = os.cpu_count() or 1
    mc_scaling = {
        "workload": f"{MC_SAMPLES}-sample device campaign, "
                    f"{config.chunk_size}-sample chunks, fork-sharded",
        "workers": HOT_MC_WORKERS,
        "cores": cores,
        "serial_s": serial_s,
        "sharded_s": sharded_s,
        "parallel_efficiency": serial_s / (HOT_MC_WORKERS * sharded_s),
        "gated": cores >= HOT_MC_WORKERS,
    }

    return {
        "compiled_available": compiled_ok,
        "rca32_transient": rca32,
        "kernel_parity": parity,
        "mc_scaling": mc_scaling,
    }


def bench_service_load() -> dict:
    """ISSUE 7 gate: the ``repro.service`` job server under load.

    Starts an in-process :class:`~repro.service.JobServer` (two
    workers, 200 ms batching window) and fires ``SERVICE_JOBS``
    concurrent HTTP clients, each submitting a transient job over the
    same RC topology with a distinct resistor value.  Identical
    topology + identical analysis grid puts every job in one
    coalescing group, so the scheduler must fold the burst into fewer
    ``batch_transient`` dispatches than jobs (coalesce ratio
    ``jobs / engine dispatches`` >= 2x, gated).  Three served
    waveforms are replayed through a direct in-process ``transient``
    call on the same deck and must match within 1e-9 V (gated — a
    cache or demux bug that serves the wrong lane fails here, not in
    production).  Jobs/s and p50/p95 per-job latency are recorded for
    the trajectory; they are machine figures, not gates.
    """
    import threading

    from repro.circuit.parser import parse_netlist
    from repro.service import JobServer, ServiceClient

    tstop, dt = 2e-8, 2e-10

    def deck(r_ohm: float) -> str:
        return ("* service-load RC lowpass\n"
                "V1 in 0 pulse(0 1 1e-9 1e-9 1e-9 1e-8 4e-8)\n"
                f"R1 in out {r_ohm:.6g}\n"
                "C1 out 0 1e-12\n")

    specs = [{"kind": "transient", "deck": deck(1e3 + 37.0 * i),
              "tstop": tstop, "dt": dt}
             for i in range(SERVICE_JOBS)]

    results: list = [None] * len(specs)
    latencies = [float("nan")] * len(specs)

    with JobServer(workers=2, batch_window=0.2,
                   cache_size=0) as server:
        host, port = server.start()
        base_url = f"http://{host}:{port}"

        def drive(index: int) -> None:
            client = ServiceClient(base_url)
            start = time.perf_counter()
            results[index] = client.run(specs[index], timeout=120.0)
            latencies[index] = time.perf_counter() - start

        wall_start = time.perf_counter()
        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(len(specs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - wall_start

        probe = ServiceClient(base_url)
        dispatches = probe.metric_value(
            "service_engine_dispatches_total")
        coalesced = probe.metric_value(
            "service_jobs_coalesced_total")

    if any(r is None for r in results):
        raise RuntimeError("service benchmark: not all jobs completed")

    max_dv = 0.0
    for spec in (specs[0], specs[len(specs) // 2], specs[-1]):
        index = specs.index(spec)
        served = results[index]["result"]
        circuit = parse_netlist(spec["deck"]).circuit
        direct = transient(circuit, tstop, dt=dt, method="trap",
                           record_currents="sources")
        for name, values in served["traces"].items():
            dv = float(np.max(np.abs(
                np.asarray(values) - direct.trace(name))))
            max_dv = max(max_dv, dv)

    ordered = sorted(latencies)
    coalesce_ratio = len(specs) / max(dispatches, 1.0)
    return {
        "workload": f"{len(specs)} concurrent same-topology transient "
                    f"jobs over HTTP, 2 workers, 0.2 s batch window",
        "floor": f"coalesce ratio >= {SERVICE_COALESCE_RATIO_FLOOR}x, "
                 f"served-vs-direct parity <= "
                 f"{SERVICE_PARITY_TOL_V:.0e} V",
        "jobs": len(specs),
        "engine_dispatches": int(dispatches),
        "jobs_coalesced": int(coalesced),
        "coalesce_ratio": coalesce_ratio,
        "jobs_per_s": len(specs) / wall_s,
        "latency_p50_s": ordered[len(ordered) // 2],
        "latency_p95_s": ordered[int(len(ordered) * 0.95)],
        "parity_v": max_dv,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--name", default="perf",
                        help="suffix of the BENCH_<name>.json artifact")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on acceptance regressions")
    parser.add_argument("--out-dir", default=str(Path(__file__).parent.parent),
                        help="directory for the JSON artifact")
    args = parser.parse_args(argv)

    report = {
        "name": args.name,
        "created_unix": time.time(),
        "machine": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
            "processor": platform.processor() or "unknown",
        },
        "iv_family": bench_iv_family(),
        "transient_ring": bench_ring_transient(),
        "transient_adaptive": bench_adaptive_transient(),
        "mc_device": bench_mc_device(),
        "batch_transient": bench_batch_transient(),
        "large_circuit": bench_large_circuit(),
        "partitioned_transient": bench_partitioned_transient(),
        "out_of_core_store": bench_out_of_core(),
        "compiled_hot_path": bench_compiled_hot_path(),
        "service_load": bench_service_load(),
    }

    path = Path(args.out_dir) / f"BENCH_{args.name}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    fam = report["iv_family"]
    ring = report["transient_ring"]
    print(f"wrote {path}")
    for model, row in fam["models"].items():
        print(f"  {model}: {row['points_per_s_batch']:,.0f} pts/s batch "
              f"vs {row['points_per_s_scalar']:,.0f} scalar "
              f"({row['speedup']:.2f}x)")
    print(f"  combined family speedup: {fam['combined_speedup']:.2f}x")
    print(f"  ring transient: {ring['wall_s']*1e3:.1f} ms, "
          f"{ring['iterations_per_step']:.2f} Newton iters/step, "
          f"work reduction {ring['work_reduction']:.2f}x")
    ada = report["transient_adaptive"]
    print(f"  adaptive transient: pinned-grid parity "
          f"{ada['parity_pinned_grid_v']:.1e} V, "
          f"{ada['iteration_ratio']:.1f}x fewer Newton iterations than "
          f"legacy fixed-step at matched accuracy")
    mc = report["mc_device"]
    print(f"  MC device metrics: {mc['samples_per_s_cold']:,.0f} "
          f"samples/s cold ({mc['fits']} fits, "
          f"{mc['distinct_devices']} devices), "
          f"{mc['samples_per_s_warm']:,.0f} warm; "
          f"{mc['speedup_vs_naive']:.1f}x vs naive loop")
    bt = report["batch_transient"]
    print(f"  batch transient: characterization grid "
          f"{bt['characterization_grid']['speedup']:.1f}x, MC ring "
          f"{bt['mc_ring']['speedup']:.1f}x vs sequential; per-lane "
          f"parity {bt['parity']['max_waveform_dv_v']:.1e} V")
    lc = report["large_circuit"]
    rca = lc["rca32"]
    chain = lc["inverter_chain101"]
    print(f"  large circuit: rca32 (dim {rca['dimension']}) transient "
          f"sparse {rca['transient']['speedup']:.1f}x dense "
          f"(parity {rca['transient']['parity_v']:.1e} V), DC "
          f"{rca['dc']['speedup']:.1f}x; 101-chain sweep parity "
          f"{chain['parity_v']:.1e} V")
    pt = report["partitioned_transient"]
    print(f"  partitioned transient: hold {pt['hold']['speedup']:.1f}x "
          f"({pt['hold']['bypass_fraction']*100:.0f}% block-steps "
          f"bypassed, parity {pt['hold']['parity_bypass_v']:.1e} V "
          f"bypass / {pt['hold']['parity_nobypass_v']:.1e} V exact); "
          f"pulse {pt['pulse']['speedup']:.1f}x (recorded, not gated)")
    oc = report["out_of_core_store"]
    print(f"  out-of-core store: {oc['raw_trace_bytes']/2**20:.1f} MiB "
          f"raw trace, peak {oc['peak_store_bytes']/2**20:.2f} MiB "
          f"store-backed vs {oc['peak_in_memory_bytes']/2**20:.2f} MiB "
          f"in-memory ({oc['peak_ratio']:.1f}x), summaries "
          f"{'identical' if oc['summaries_identical'] else 'DIVERGED'}")
    hp = report["compiled_hot_path"]
    if hp["compiled_available"]:
        print(f"  compiled hot path: rca32 transient "
              f"{hp['rca32_transient']['speedup']:.2f}x vs PR-5 "
              f"floor, kernel parity "
              f"{hp['kernel_parity']['max_dv_v']:.1e} V; "
              f"{hp['mc_scaling']['workers']}-worker MC efficiency "
              f"{hp['mc_scaling']['parallel_efficiency']:.2f} "
              f"({hp['mc_scaling']['cores']} cores"
              f"{'' if hp['mc_scaling']['gated'] else ', not gated'})")
    else:
        print("  compiled hot path: no compiled tier available "
              "(no working C compiler)")
    sv = report["service_load"]
    print(f"  service load: {sv['jobs']} jobs in "
          f"{sv['engine_dispatches']} engine dispatches "
          f"({sv['coalesce_ratio']:.1f}x coalesce), "
          f"{sv['jobs_per_s']:.1f} jobs/s, p50 "
          f"{sv['latency_p50_s']*1e3:.0f} ms / p95 "
          f"{sv['latency_p95_s']*1e3:.0f} ms, served parity "
          f"{sv['parity_v']:.1e} V")

    if args.check:
        failures = []
        if fam["combined_speedup"] < FAMILY_SPEEDUP_FLOOR:
            failures.append(
                f"family speedup {fam['combined_speedup']:.2f}x < "
                f"{FAMILY_SPEEDUP_FLOOR}x")
        if ring["work_reduction"] < TRANSIENT_WORK_REDUCTION_FLOOR:
            failures.append(
                f"transient work reduction {ring['work_reduction']:.2f}x "
                f"< {TRANSIENT_WORK_REDUCTION_FLOOR}x")
        if mc["speedup_vs_naive"] < MC_SPEEDUP_FLOOR:
            failures.append(
                f"MC campaign speedup {mc['speedup_vs_naive']:.1f}x < "
                f"{MC_SPEEDUP_FLOOR}x")
        if mc["samples_per_s_cold"] < MC_SAMPLES_PER_S_FLOOR:
            failures.append(
                f"MC throughput {mc['samples_per_s_cold']:.0f} samples/s "
                f"< {MC_SAMPLES_PER_S_FLOOR}")
        if ada["parity_pinned_grid_v"] > ADAPTIVE_PARITY_TOL_V:
            failures.append(
                f"adaptive pinned-grid parity "
                f"{ada['parity_pinned_grid_v']:.2e} V > "
                f"{ADAPTIVE_PARITY_TOL_V:.0e} V")
        if ada["iteration_ratio"] < ADAPTIVE_ITER_RATIO_FLOOR:
            failures.append(
                f"adaptive iteration ratio {ada['iteration_ratio']:.2f}x "
                f"< {ADAPTIVE_ITER_RATIO_FLOOR}x")
        if bt["characterization_grid"]["speedup"] \
                < BATCH_CHAR_SPEEDUP_FLOOR:
            failures.append(
                f"batched characterization grid speedup "
                f"{bt['characterization_grid']['speedup']:.2f}x < "
                f"{BATCH_CHAR_SPEEDUP_FLOOR}x")
        if bt["mc_ring"]["speedup"] < BATCH_MC_SPEEDUP_FLOOR:
            failures.append(
                f"batched MC ring speedup "
                f"{bt['mc_ring']['speedup']:.2f}x < "
                f"{BATCH_MC_SPEEDUP_FLOOR}x")
        if bt["parity"]["max_waveform_dv_v"] > BATCH_PARITY_TOL_V:
            failures.append(
                f"batch per-lane waveform parity "
                f"{bt['parity']['max_waveform_dv_v']:.2e} V > "
                f"{BATCH_PARITY_TOL_V:.0e} V")
        if rca["transient"]["speedup"] < LARGE_SPARSE_SPEEDUP_FLOOR:
            failures.append(
                f"rca32 sparse transient speedup "
                f"{rca['transient']['speedup']:.2f}x < "
                f"{LARGE_SPARSE_SPEEDUP_FLOOR}x")
        for label, parity in (
                ("rca32 DC", rca["dc"]["parity_v"]),
                ("rca32 transient", rca["transient"]["parity_v"]),
                ("101-chain sweep", chain["parity_v"])):
            if parity > LARGE_PARITY_TOL_V:
                failures.append(
                    f"{label} dense-vs-sparse parity {parity:.2e} V > "
                    f"{LARGE_PARITY_TOL_V:.0e} V")
        if not lc["carry_launched_ok"]:
            failures.append("rca32 carry ripple did not launch "
                            "(s0 failed to fall)")
        if pt["hold"]["speedup"] < PARTITION_SPEEDUP_FLOOR:
            failures.append(
                f"partitioned hold speedup "
                f"{pt['hold']['speedup']:.2f}x < "
                f"{PARTITION_SPEEDUP_FLOOR}x")
        if pt["hold"]["block_steps_bypassed"] \
                <= pt["hold"]["block_steps_active"]:
            failures.append(
                "partitioned hold bypass inert: "
                f"{pt['hold']['block_steps_bypassed']} bypassed vs "
                f"{pt['hold']['block_steps_active']} active "
                f"block-steps on a quiescent run")
        if pt["hold"]["interface_solve_reuses"] < 1:
            failures.append(
                "partitioned hold never reused the interface solve")
        for label in ("hold", "pulse"):
            if pt[label]["parity_bypass_v"] \
                    > PARTITION_BYPASS_PARITY_TOL_V:
                failures.append(
                    f"partitioned {label} bypass parity "
                    f"{pt[label]['parity_bypass_v']:.2e} V > "
                    f"{PARTITION_BYPASS_PARITY_TOL_V:.0e} V")
            if pt[label]["parity_nobypass_v"] \
                    > PARTITION_EXACT_PARITY_TOL_V:
                failures.append(
                    f"partitioned {label} nobypass parity "
                    f"{pt[label]['parity_nobypass_v']:.2e} V > "
                    f"{PARTITION_EXACT_PARITY_TOL_V:.0e} V")
        if oc["raw_trace_bytes"] <= STORE_PEAK_CAP_BYTES:
            failures.append(
                f"out-of-core workload too small: raw trace "
                f"{oc['raw_trace_bytes']} B does not exceed the "
                f"{STORE_PEAK_CAP_BYTES} B cap")
        if oc["peak_store_bytes"] >= STORE_PEAK_CAP_BYTES:
            failures.append(
                f"store-backed peak {oc['peak_store_bytes']} B >= "
                f"{STORE_PEAK_CAP_BYTES} B cap")
        if oc["peak_ratio"] < STORE_PEAK_RATIO_FLOOR:
            failures.append(
                f"out-of-core peak ratio {oc['peak_ratio']:.1f}x < "
                f"{STORE_PEAK_RATIO_FLOOR}x")
        if not oc["summaries_identical"]:
            failures.append(
                "lazy-vs-eager decimated summaries diverged")
        if not hp["compiled_available"]:
            failures.append(
                "compiled kernel tier unavailable (no working C "
                "compiler) — the ISSUE 6 gates need it")
        else:
            if hp["rca32_transient"]["speedup"] < HOT_SPEEDUP_FLOOR:
                failures.append(
                    f"compiled hot-path rca32 speedup "
                    f"{hp['rca32_transient']['speedup']:.2f}x < "
                    f"{HOT_SPEEDUP_FLOOR}x")
            if hp["kernel_parity"]["max_dv_v"] > HOT_PARITY_TOL_V:
                failures.append(
                    f"stacked-VSC kernel parity "
                    f"{hp['kernel_parity']['max_dv_v']:.2e} V > "
                    f"{HOT_PARITY_TOL_V:.0e} V")
        if hp["mc_scaling"]["gated"] and \
                hp["mc_scaling"]["parallel_efficiency"] \
                < HOT_MC_EFFICIENCY_FLOOR:
            failures.append(
                f"MC parallel efficiency "
                f"{hp['mc_scaling']['parallel_efficiency']:.2f} < "
                f"{HOT_MC_EFFICIENCY_FLOOR} at "
                f"{hp['mc_scaling']['workers']} workers")
        if sv["engine_dispatches"] >= sv["jobs"]:
            failures.append(
                f"service coalescing inert: {sv['engine_dispatches']} "
                f"engine dispatches for {sv['jobs']} jobs")
        if sv["coalesce_ratio"] < SERVICE_COALESCE_RATIO_FLOOR:
            failures.append(
                f"service coalesce ratio {sv['coalesce_ratio']:.2f}x "
                f"< {SERVICE_COALESCE_RATIO_FLOOR}x")
        if sv["parity_v"] > SERVICE_PARITY_TOL_V:
            failures.append(
                f"served-vs-direct waveform parity "
                f"{sv['parity_v']:.2e} V > "
                f"{SERVICE_PARITY_TOL_V:.0e} V")
        if failures:
            print("BENCH CHECK FAILED: " + "; ".join(failures))
            return 1
        print("bench check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
