"""Circuit-level Monte-Carlo evaluators (inverter VTC, ring osc)."""

import math

import numpy as np
import pytest

from repro.circuit.results import Dataset
from repro.errors import ParameterError
from repro.variability.circuits import (
    InverterVTCEvaluator,
    RingOscillatorEvaluator,
    ring_periods,
)
from repro.variability.params import (
    Fixed,
    Normal,
    ParameterSpace,
)
from repro.variability.sampling import monte_carlo


def tiny_space() -> ParameterSpace:
    return ParameterSpace.from_dict({
        "diameter_nm": Normal(1.0, 0.06, low=0.6, high=2.0),
        "tox_nm": Normal(1.5, 0.075, low=0.8, high=3.0),
        "kappa": Fixed(3.9),
        "fermi_level_ev": Normal(-0.32, 0.01, low=-0.5, high=-0.1),
    })


class TestInverter:
    def test_nominal_metrics(self):
        space = tiny_space()
        ev = InverterVTCEvaluator(space, points=31)
        out = ev.evaluate([space.nominal_sample()])[0]
        # n and p share the sampled parameters, so the pair is matched
        # and VM sits at VDD/2.
        assert out["vm"] == pytest.approx(0.3, abs=0.02)
        assert out["gain"] > 5.0
        assert out["nml"] > 0.05
        assert out["nmh"] > 0.05

    def test_dedup_memo(self):
        space = tiny_space()
        calls = []
        ev = InverterVTCEvaluator(space, points=21)
        original = ev._evaluate_key

        def counting(key):
            calls.append(key)
            return original(key)

        ev._evaluate_key = counting
        sample = space.nominal_sample()
        results = ev.evaluate([sample, dict(sample), dict(sample)])
        assert len(calls) == 1
        assert results[0] == results[1] == results[2]
        # second evaluate() round reuses the cross-chunk memo
        ev.evaluate([sample])
        assert len(calls) == 1

    def test_variation_moves_metrics(self):
        space = tiny_space()
        ev = InverterVTCEvaluator(space, points=21)
        samples = monte_carlo(space, 3, seed=5)
        rows = ev.evaluate(samples)
        gains = {round(r["gain"], 6) for r in rows}
        assert len(gains) >= 2

    def test_validation(self):
        with pytest.raises(ParameterError):
            InverterVTCEvaluator(tiny_space(), points=5)
        with pytest.raises(ParameterError):
            InverterVTCEvaluator(tiny_space(), workers=0)


class TestRingOscillator:
    def test_nominal_period(self):
        space = tiny_space()
        ev = RingOscillatorEvaluator(space, stages=3)
        out = ev.evaluate([space.nominal_sample()])[0]
        assert out["period"] > 0.0
        assert out["frequency"] == pytest.approx(1.0 / out["period"])
        assert out["stage_delay"] == pytest.approx(out["period"] / 6.0)

    def test_workers_pool_matches_serial(self):
        space = tiny_space()
        samples = monte_carlo(space, 3, seed=2)
        serial = RingOscillatorEvaluator(space, stages=3).evaluate(samples)
        pooled = RingOscillatorEvaluator(space, stages=3,
                                         workers=2).evaluate(samples)
        for s, p in zip(serial, pooled):
            for name in s:
                assert s[name] == pytest.approx(p[name], rel=1e-9)

    def test_failed_run_yields_nan(self):
        space = tiny_space()
        # Far too short a window to see two rising crossings.
        ev = RingOscillatorEvaluator(space, stages=3, tstop=8e-12,
                                     dt=2e-12)
        out = ev.evaluate([space.nominal_sample()])[0]
        assert all(math.isnan(v) for v in out.values())

    def test_validation(self):
        with pytest.raises(ParameterError):
            RingOscillatorEvaluator(tiny_space(), stages=4)
        with pytest.raises(ParameterError):
            RingOscillatorEvaluator(tiny_space(), tstop=1e-12, dt=2e-12)


def reference_period(t, v, level, threshold):
    """The per-lane period estimator written out sample by sample: the
    median spacing of consecutive rising crossings whose samples swing
    ``threshold`` beyond ``level`` on both sides; NaN without one."""
    crossings = []
    for i in range(len(t) - 1):
        y0, y1 = float(v[i]) - level, float(v[i + 1]) - level
        if y0 == 0.0:
            if y1 > 0:
                crossings.append(float(t[i]))
        elif y0 * y1 < 0.0 and y1 > y0:
            crossings.append(float(t[i]) - y0 * (float(t[i + 1])
                                                 - float(t[i])) / (y1 - y0))
    spacings = []
    for a, b in zip(crossings[:-1], crossings[1:]):
        seg = [float(x) for x, at in zip(v, t) if a <= at <= b]
        if seg and max(x - level for x in seg) >= threshold \
                and max(level - x for x in seg) >= threshold:
            spacings.append(b - a)
    return float(np.median(spacings)) if spacings else math.nan


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class TestRingPeriods:
    """``ring_periods`` (one array pass per tile) against the per-lane
    reference, exactly."""

    LEVEL, THRESHOLD = 0.3, 6e-4

    def traces(self):
        t = np.arange(240) * 2e-12
        phase = 2 * np.pi * np.arange(240) / 17.3
        v = np.empty((6, 240))
        v[0] = self.LEVEL + 0.25 * np.sin(phase)
        v[0, 52] = self.LEVEL  # an exact-zero sample on a rising edge
        assert v[0, 51] < self.LEVEL < v[0, 53]
        # a grazing cycle: one swing far below the excursion floor
        v[1] = self.LEVEL + 0.25 * np.sin(phase) * np.where(
            (np.arange(240) > 80) & (np.arange(240) < 100), 1e-4, 1.0)
        v[2] = self.LEVEL + 0.1  # flat: no crossing at all
        # a chirp, so the median of an even count averages two spacings
        v[3] = self.LEVEL + 0.2 * np.sin(
            2 * np.pi * np.cumsum(1.0 / np.linspace(12.0, 25.0, 240)))
        v[4] = self.LEVEL + 0.2 * np.sin(phase * 1.37 + 0.4)
        v[5] = self.LEVEL + 0.3 * np.cos(phase * 0.61)
        return t, v

    def test_synthetic_tile_matches_reference(self):
        t, v = self.traces()
        got = ring_periods(t, v, self.LEVEL, self.THRESHOLD)
        want = [reference_period(t, row, self.LEVEL, self.THRESHOLD)
                for row in v]
        assert all(same(g, w) for g, w in zip(got.tolist(), want))
        assert math.isnan(got[2]) and not np.isnan(got[[0, 1, 3]]).any()
        # the grazing cycle is filtered: its neighbours' spacing counts
        # once, not as two short cycles
        assert got[1] == pytest.approx(got[0], rel=0.1)

    def test_ragged_rows_never_read_their_padding(self):
        t, v = self.traces()
        lengths = np.array([240, 150, 240, 97, 1, 200])
        padded = v.copy()
        for row, k in enumerate(lengths):
            padded[row, k:] = self.LEVEL + 0.5 * np.sin(np.arange(240 - k))
        got = ring_periods(t, padded, self.LEVEL, self.THRESHOLD, lengths)
        want = [reference_period(t[:k], row[:k], self.LEVEL, self.THRESHOLD)
                for row, k in zip(v, lengths)]
        assert all(same(g, w) for g, w in zip(got.tolist(), want))
        assert math.isnan(got[4])

    def test_excursion_floor_is_inclusive(self):
        """A swing of exactly the threshold counts; one ulp less on
        either side does not."""
        t = np.arange(12.0)
        swing = np.tile([0.25, 0.75], 6)
        low = swing.copy()
        low[low == 0.25] = np.nextafter(0.25, 1.0)
        high = swing.copy()
        high[high == 0.75] = np.nextafter(0.75, 0.0)
        v = np.stack([swing, low, high])
        got = ring_periods(t, v, 0.5, 0.25)
        want = [reference_period(t, row, 0.5, 0.25) for row in v]
        assert got[0] == want[0] == 2.0
        assert np.isnan(got[1:]).all() and np.isnan(want[1:]).all()

    def test_one_row_is_the_scalar_case(self):
        t, v = self.traces()
        for row in v:
            got = ring_periods(t, row[None], self.LEVEL, self.THRESHOLD)
            assert same(got[0], reference_period(t, row, self.LEVEL,
                                                 self.THRESHOLD))

    def test_real_ring_batch_matches_reference(self):
        """An 8-lane heterogeneous ring batch through the evaluator's
        tile glue, plus a missing lane and a lane on its own axis."""
        from repro.circuit.batch_sim import (
            batch_operating_points,
            batch_transient,
        )
        from repro.circuit.logic import build_ring_oscillator
        from repro.variability.campaign import quantize_sample

        space = tiny_space()
        ev = RingOscillatorEvaluator(space, stages=3)
        keys = list(dict.fromkeys(
            quantize_sample(s, ev.quantize)
            for s in monte_carlo(space, 8, seed=11)))
        assert len(keys) == 8
        circuits, nodes = [], ()
        for key in keys:
            circuit, nodes = build_ring_oscillator(ev._family(key), 3)
            circuits.append(circuit)
        x0 = batch_operating_points(circuits)
        x0[:, circuits[0].node_index[nodes[0]]] = 0.0
        x0[:, circuits[0].node_index[nodes[1]]] = ev.vdd
        result = batch_transient(circuits, ev.tstop, dt=ev.dt,
                                 method="be", x0=x0, record_currents=False)
        datasets = list(result.datasets)
        # a lane on another axis (as a scalar re-run may record) and a
        # missing lane (a failed one)
        other = Dataset("time", datasets[0].axis[:90] * 1.01)
        other.add_trace(f"v({nodes[0]})",
                        datasets[0].voltage(nodes[0])[:90])
        datasets += [other, None]
        rows = ev._period_metrics(datasets, nodes[0])
        level, threshold = ev.vdd / 2, ev.MIN_EXCURSION * ev.vdd
        for ds, row in zip(datasets[:-1], rows):
            want = reference_period(ds.axis, ds.voltage(nodes[0]),
                                    level, threshold)
            assert same(row["period"], want)
            if not math.isnan(want):
                assert row["frequency"] == 1.0 / want
                assert row["stage_delay"] == want / 6
        assert all(math.isnan(x) for x in rows[-1].values())
        assert not any(math.isnan(row["period"]) for row in rows[:8])
