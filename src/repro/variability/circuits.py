"""Circuit-level Monte-Carlo evaluators.

Device samples become complementary logic cells (the sampled parameters
feed both the n- and the mirrored p-device) and are simulated through
the two-phase MNA engine:

* :class:`InverterVTCEvaluator` — DC transfer curve per sample:
  switching threshold, peak gain and the unity-gain noise margins.
* :class:`RingOscillatorEvaluator` — transient per sample: oscillation
  period, frequency and per-stage delay.

Both evaluators deduplicate samples by quantised device key (a circuit
simulation is ~10^4 times costlier than a device-metric batch lane, so
collapsing near-identical samples matters even more here).

Distinct keys are then evaluated through the **lane-batched circuit
engine** by default (:mod:`repro.circuit.batch_sim`): every distinct
sample becomes a lane of one stacked MNA solve — the ring-oscillator MC
runs chunks of transients in lock-step, the inverter MC runs its VTC
sweeps as stacked DC solves — instead of one Python-level simulation
loop per sample.  Lanes whose lock-step Newton fails are re-run through
the scalar engine automatically, so results match the per-sample path.

With ``workers > 1`` the work shards over forked processes through
:func:`repro.parallel.fork_map`: the batch path ships whole
``BATCH_LANES`` tiles to the workers (tile boundaries unchanged, so
per-lane numerics match the serial path exactly), the
``use_batch=False`` scalar loop ships individual keys.  Fork
inheritance shares the evaluator state copy-on-write — each worker
still builds its own devices behind its own per-process fit cache.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError, ParameterError, ReproError
from repro.variability.campaign import quantize_sample
from repro.variability.params import ParameterSpace

__all__ = ["InverterVTCEvaluator", "RingOscillatorEvaluator", "ring_periods"]


def ring_periods(t: np.ndarray, v: np.ndarray, level: float,
                 threshold: float,
                 lengths: Optional[np.ndarray] = None) -> np.ndarray:
    """Robust oscillation period of each row of ``v`` ``(B, T)`` over
    the shared, ascending axis ``t`` ``(T,)``, in one array pass; NaN
    for a row without a validated cycle.

    A cycle is the interval ``[a, b]`` between two consecutive rising
    crossings of ``level`` (:func:`repro.circuit.results.lane_crossings`)
    and counts only when the samples with ``a <= t <= b`` swing at least
    ``threshold`` above *and* below the level.  A row's period is the
    median of its validated spacings ``b - a``.  ``lengths`` ends row
    ``r`` after ``lengths[r]`` samples (ragged rows padded to ``T``).
    """
    from repro.circuit.results import lane_crossings

    v = np.asarray(v, dtype=float)
    n_rows, n_t = v.shape
    rows, at = lane_crossings(v, t, level, True, lengths)
    pair = np.flatnonzero(rows[1:] == rows[:-1])
    row, a, b = rows[pair], at[pair], at[pair + 1]
    lo = np.searchsorted(t, a, side="left")
    hi = np.searchsorted(t, b, side="right")
    # Interleaved [lo, hi) bounds into the flat rows: the even
    # reductions are the cycles' sample windows (one pad sample keeps
    # a window ending on the last sample in range).
    flat = np.append(v.ravel(), 0.0)
    bounds = (row * n_t)[:, None] + np.column_stack((lo, hi))
    valid = hi > lo
    if pair.size:
        top = np.maximum.reduceat(flat, bounds.ravel())[::2]
        bottom = np.minimum.reduceat(flat, bounds.ravel())[::2]
        valid &= (top - level >= threshold) & (level - bottom >= threshold)
    spacing, row = (b - a)[valid], row[valid]
    spacing = spacing[np.lexsort((spacing, row))]
    count = np.bincount(row, minlength=n_rows)
    start = np.cumsum(count) - count
    periods = np.full(n_rows, np.nan)
    has = count > 0
    first, count = start[has], count[has]
    # np.median's arithmetic: the middle value, or the mean of the
    # middle two ((x + x) / 2 == x for an odd count)
    periods[has] = (spacing[first + (count - 1) // 2]
                    + spacing[first + count // 2]) / 2
    return periods


class _CircuitEvaluatorBase:
    """Shared dedup + batch/pool plumbing; subclasses implement
    ``_evaluate_key``, ``_evaluate_keys_batch`` and ``_nan_metrics``."""

    #: lanes per lane-batched chunk (bounds the stacked-matrix memory)
    BATCH_LANES = 256

    def __init__(self, space: ParameterSpace, vdd: float, model: str,
                 workers: int,
                 quantize: Optional[Mapping[str, int]],
                 spec_limits: Optional[Mapping[str, Tuple]],
                 use_batch: bool = True,
                 backend: Optional[str] = None) -> None:
        if workers < 1:
            raise ParameterError(f"workers must be >= 1: {workers}")
        self.space = space
        self.vdd = float(vdd)
        self.model = model
        self.workers = int(workers)
        self.use_batch = bool(use_batch)
        #: linear-solver backend spec forwarded to every analysis
        #: (None/"auto"/"dense"/"sparse")
        self.backend = backend
        self.quantize = dict(quantize) if quantize is not None else None
        self.spec_limits = dict(spec_limits) if spec_limits else None
        #: metric memo per quantised key, shared across chunks
        self._memo: Dict[Tuple, Dict[str, float]] = {}

    def _family(self, key: Tuple):
        from repro.circuit.logic import LogicFamily

        return LogicFamily.default(self.vdd, self.model,
                                   self.space.to_parameters(dict(key)))

    def _evaluate_key(self, key: Tuple) -> Dict[str, float]:
        raise NotImplementedError

    def _evaluate_keys_batch(self, keys: Sequence[Tuple]
                             ) -> List[Dict[str, float]]:
        raise NotImplementedError

    def _nan_metrics(self) -> Dict[str, float]:
        raise NotImplementedError

    def _evaluate_key_safe(self, key: Tuple) -> Dict[str, float]:
        try:
            return self._evaluate_key(key)
        except ReproError:
            # A failed run (non-convergent bias point, no oscillation)
            # is a data point — NaN metrics count as yield losses.
            return self._nan_metrics()

    def evaluate(self, samples: Sequence[Mapping]
                 ) -> List[Dict[str, float]]:
        keys = [quantize_sample(s, self.quantize) for s in samples]
        pending = [k for k in dict.fromkeys(keys) if k not in self._memo]
        if self.use_batch and len(pending) > 1:
            tiles = [pending[start:start + self.BATCH_LANES]
                     for start in range(0, len(pending),
                                        self.BATCH_LANES)]
            if self.workers > 1 and len(tiles) > 1:
                # Lane-tile sharding: each forked worker runs whole
                # stacked solves (the tile boundaries are unchanged,
                # so per-lane numerics match the serial path exactly).
                from repro.parallel import fork_map

                tile_results = fork_map(self._evaluate_keys_batch,
                                        tiles, self.workers)
            else:
                tile_results = [self._evaluate_keys_batch(tile)
                                for tile in tiles]
            results = [m for tile in tile_results for m in tile]
        elif self.workers > 1 and len(pending) > 1:
            from repro.parallel import fork_map

            results = fork_map(self._evaluate_key_safe, pending,
                               self.workers)
        else:
            results = [self._evaluate_key_safe(key) for key in pending]
        self._memo.update(zip(pending, results))
        return [dict(self._memo[key]) for key in keys]


class InverterVTCEvaluator(_CircuitEvaluatorBase):
    """Complementary-inverter DC transfer metrics per device sample.

    Metrics: ``vm`` (switching threshold, VOUT = VDD/2 crossing),
    ``gain`` (peak |dVOUT/dVIN|), ``nml``/``nmh`` (noise margins from
    the unity-gain points).
    """

    METRICS = ("vm", "gain", "nml", "nmh")

    def __init__(self, space: ParameterSpace, vdd: float = 0.6,
                 model: str = "model2", points: int = 41,
                 workers: int = 1,
                 quantize: Optional[Mapping[str, int]] = None,
                 spec_limits: Optional[Mapping[str, Tuple]] = None,
                 use_batch: bool = True,
                 backend: Optional[str] = None) -> None:
        super().__init__(space, vdd, model, workers, quantize,
                         spec_limits, use_batch, backend)
        if points < 11:
            raise ParameterError(f"need >= 11 VTC points: {points}")
        self.points = int(points)

    def describe(self) -> Dict:
        """JSON-able evaluator fingerprint (campaign manifests)."""
        return {"kind": "inverter-vtc", "vdd": self.vdd,
                "model": self.model, "points": self.points,
                "quantize": self.quantize,
                "spec_limits": {k: list(v)
                                for k, v in self.spec_limits.items()}
                if self.spec_limits else None}

    def _nan_metrics(self) -> Dict[str, float]:
        return {m: math.nan for m in self.METRICS}

    def _vtc_metrics(self, dataset, vout: str,
                     sweep: np.ndarray) -> Dict[str, float]:
        v_out = dataset.voltage(vout)
        crossings = dataset.crossings(f"v({vout})", self.vdd / 2)
        vm = crossings[0] if crossings else math.nan
        slope = -np.gradient(v_out, sweep)
        gain = float(np.max(slope))
        above = np.where(slope > 1.0)[0]
        if above.size:
            vil, vih = float(sweep[above[0]]), float(sweep[above[-1]])
            voh, vol = float(v_out[above[0]]), float(v_out[above[-1]])
            nmh, nml = voh - vih, vil - vol
        else:
            nmh = nml = math.nan
        return {"vm": vm, "gain": gain, "nml": nml, "nmh": nmh}

    def _evaluate_key(self, key: Tuple) -> Dict[str, float]:
        from repro.circuit import dc_sweep
        from repro.circuit.logic import build_inverter

        family = self._family(key)
        circuit, _vin, vout = build_inverter(family)
        sweep = np.linspace(0.0, self.vdd, self.points)
        dataset = dc_sweep(circuit, "vin_src", sweep,
                           backend=self.backend)
        return self._vtc_metrics(dataset, vout, sweep)

    def _evaluate_keys_batch(self, keys: Sequence[Tuple]
                             ) -> List[Dict[str, float]]:
        """One stacked DC sweep: every distinct sample is a lane."""
        from repro.circuit.batch_sim import batch_dc_sweep
        from repro.circuit.logic import build_inverter

        circuits = []
        vout = "out"
        for key in keys:
            circuit, _vin, vout = build_inverter(self._family(key))
            circuits.append(circuit)
        sweep = np.linspace(0.0, self.vdd, self.points)
        try:
            datasets = batch_dc_sweep(circuits, "vin_src", sweep,
                                      backend=self.backend)
        except ReproError:
            return [self._evaluate_key_safe(key) for key in keys]
        out = []
        for dataset in datasets:
            try:
                out.append(self._vtc_metrics(dataset, vout, sweep))
            except ReproError:
                out.append(self._nan_metrics())
        return out


class RingOscillatorEvaluator(_CircuitEvaluatorBase):
    """Ring-oscillator transient metrics per device sample.

    Metrics: ``period`` [s], ``frequency`` [Hz], ``stage_delay`` [s].
    """

    METRICS = ("period", "frequency", "stage_delay")

    def __init__(self, space: ParameterSpace, vdd: float = 0.6,
                 model: str = "model2", stages: int = 3,
                 tstop: float = 2.5e-10, dt: float = 2e-12,
                 workers: int = 1,
                 quantize: Optional[Mapping[str, int]] = None,
                 spec_limits: Optional[Mapping[str, Tuple]] = None,
                 use_batch: bool = True,
                 backend: Optional[str] = None) -> None:
        super().__init__(space, vdd, model, workers, quantize,
                         spec_limits, use_batch, backend)
        if stages < 3 or stages % 2 == 0:
            raise ParameterError(
                f"a ring oscillator needs an odd stage count >= 3: {stages}"
            )
        if not 0.0 < dt < tstop:
            raise ParameterError(
                f"need 0 < dt < tstop: dt={dt}, tstop={tstop}"
            )
        self.stages = int(stages)
        self.tstop = float(tstop)
        self.dt = float(dt)

    def describe(self) -> Dict:
        """JSON-able evaluator fingerprint (campaign manifests)."""
        return {"kind": "ring-oscillator", "vdd": self.vdd,
                "model": self.model, "stages": self.stages,
                "tstop": self.tstop, "dt": self.dt,
                "quantize": self.quantize,
                "spec_limits": {k: list(v)
                                for k, v in self.spec_limits.items()}
                if self.spec_limits else None}

    def _nan_metrics(self) -> Dict[str, float]:
        return {m: math.nan for m in self.METRICS}

    #: minimum excursion (fraction of VDD) on both sides of VDD/2 for
    #: a crossing interval to count as a real oscillation cycle.  The
    #: BE-damped ring decays toward its metastable point, where the
    #: trace keeps "crossing" VDD/2 at float-noise amplitude (1e-15 V);
    #: this floor sits far above that noise and far below the physical
    #: ring-down amplitudes, so the filtered spacings are identical
    #: between the scalar and lane-batched engines.
    MIN_EXCURSION = 1e-3

    def _evaluate_key(self, key: Tuple) -> Dict[str, float]:
        from repro.circuit.logic import build_ring_oscillator
        from repro.circuit.transient import (
            initial_conditions_from_op,
            transient,
        )

        family = self._family(key)
        circuit, nodes = build_ring_oscillator(family, stages=self.stages)
        x0 = initial_conditions_from_op(
            circuit, {nodes[0]: 0.0, nodes[1]: family.vdd})
        dataset = transient(circuit, tstop=self.tstop, dt=self.dt, x0=x0,
                            method="be", backend=self.backend)
        metrics = self._period_metrics([dataset], nodes[0])[0]
        if math.isnan(metrics["period"]):
            raise AnalysisError(
                f"no oscillation cycles with >= "
                f"{self.MIN_EXCURSION:.0e} * VDD excursion around "
                f"VDD/2 on {nodes[0]!r}"
            )
        return metrics

    def _period_metrics(self, datasets: Sequence, node: str
                        ) -> List[Dict[str, float]]:
        """Excursion-validated robust period metrics of each waveform
        (``None`` gives NaN metrics), through :func:`ring_periods`.

        Only rising-crossing intervals whose trace genuinely swings
        through VDD/2 (excursion >= ``MIN_EXCURSION * VDD`` on *both*
        sides) count as oscillation cycles; the median of their
        spacings is the period.  The legacy estimator averaged *every*
        crossing spacing, which mixed real ring-down cycles with
        float-noise crossings around the metastable point — a metric
        so fragile that two runs differing by 1e-16 V could disagree
        by tens of percent.  The validated median reproduces the
        legacy values (the real cycles dominate) while agreeing
        between the scalar and lane-batched engines to ~1e-13
        relative.

        The lanes recorded on the longest axis (or a prefix of it) are
        measured in one pass over their stacked ``v(node)`` traces; a
        lane on another axis (a scalar re-run) gets a pass of its own.
        """
        live = [lane for lane, ds in enumerate(datasets) if ds is not None]
        periods = np.full(len(datasets), np.nan)
        if live:
            t = max((datasets[lane].axis for lane in live), key=len)
            shared = [lane for lane in live if np.array_equal(
                datasets[lane].axis, t[:len(datasets[lane].axis)])]
            groups = [(t, shared)] + [
                (datasets[lane].axis, [lane])
                for lane in sorted(set(live) - set(shared))]
            for axis, lanes in groups:
                lengths = np.array([len(datasets[lane].axis)
                                    for lane in lanes])
                v = np.zeros((len(lanes), len(axis)))
                for i, lane in enumerate(lanes):
                    v[i, :lengths[i]] = datasets[lane].voltage(node)
                periods[lanes] = ring_periods(
                    axis, v, self.vdd / 2, self.MIN_EXCURSION * self.vdd,
                    lengths)
        out = []
        for period in periods.tolist():
            if math.isnan(period):
                out.append(self._nan_metrics())
            else:
                out.append({"period": period, "frequency": 1.0 / period,
                            "stage_delay": period / (2 * self.stages)})
        return out

    def _evaluate_keys_batch(self, keys: Sequence[Tuple]
                             ) -> List[Dict[str, float]]:
        """One lock-step transient: every distinct sample is a lane.

        The stacked DC operating points are kicked off the symmetric
        point with the same per-node overrides as the scalar path, and
        the shared fixed grid equals the scalar grid (the ring has no
        source breakpoints), so per-lane waveforms match the scalar
        engine to Newton noise.
        """
        from repro.circuit.batch_sim import (
            LaneBatch,
            batch_operating_points,
            batch_transient,
        )
        from repro.circuit.logic import build_ring_oscillator

        circuits = []
        nodes = ()
        for key in keys:
            circuit, nodes = build_ring_oscillator(
                self._family(key), stages=self.stages)
            circuits.append(circuit)
        try:
            # One assembler serves both the stacked DC solve and the
            # transient (the stacked device tables are built once).
            batch = LaneBatch(circuits, backend=self.backend)
            x0 = batch_operating_points(circuits, batch=batch)
            template = circuits[0]
            x0[:, template.node_index[nodes[0]]] = 0.0
            x0[:, template.node_index[nodes[1]]] = self.vdd
            result = batch_transient(
                circuits, self.tstop, dt=self.dt, method="be", x0=x0,
                record_currents=False, batch=batch,
            )
        except ReproError:
            return [self._evaluate_key_safe(key) for key in keys]
        return self._period_metrics(result.datasets, nodes[0])
