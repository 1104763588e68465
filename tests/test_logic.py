"""CNFET logic builders: inverter, NAND, ring oscillator."""

import numpy as np
import pytest

from repro.circuit import dc_sweep, operating_point
from repro.circuit.logic import (
    LogicFamily,
    build_inverter,
    build_nand2,
    build_ring_oscillator,
)
from repro.circuit.transient import initial_conditions_from_op, transient
from repro.errors import ParameterError
from repro.reference.fettoy import FETToyModel, FETToyParameters


@pytest.fixture(scope="module")
def family():
    return LogicFamily.default(vdd=0.6)


class TestInverter:
    def test_rails(self, family):
        circuit, _in, out = build_inverter(family)
        ds = dc_sweep(circuit, "vin_src", [0.0, 0.6])
        v = ds.voltage(out)
        assert v[0] == pytest.approx(0.6, abs=0.02)
        assert v[1] == pytest.approx(0.0, abs=0.02)

    def test_vtc_monotone_with_gain(self, family):
        circuit, _in, out = build_inverter(family)
        sweep = np.linspace(0.0, 0.6, 25)
        ds = dc_sweep(circuit, "vin_src", sweep)
        v = ds.voltage(out)
        assert np.all(np.diff(v) <= 1e-6)
        # Max small-signal gain well above 1 (regenerative logic).
        gain = np.max(-np.gradient(v, sweep))
        assert gain > 2.0

    def test_switching_threshold_near_mid_rail(self, family):
        circuit, _in, out = build_inverter(family)
        sweep = np.linspace(0.0, 0.6, 61)
        ds = dc_sweep(circuit, "vin_src", sweep)
        crossings = ds.crossings(f"v({out})", 0.3)
        assert len(crossings) == 1
        assert 0.15 < crossings[0] < 0.45


    def test_reference_device_family_rails(self):
        """A family of polarity-less FETToy reference devices still
        builds a complementary inverter: the builders mark the
        pull-up ``polarity="p"`` themselves."""
        device = FETToyModel(FETToyParameters())
        ref = LogicFamily(n_device=device, p_device=device, vdd=0.6)
        circuit, _in, out = build_inverter(ref)
        assert circuit.element("inv_p").polarity == "p"
        assert circuit.element("inv_n").polarity == "n"
        ds = dc_sweep(circuit, "vin_src", [0.0, 0.6])
        v = ds.voltage(out)
        assert v[0] > 0.8 * 0.6
        assert v[1] < 0.2 * 0.6


class TestNand:
    @pytest.mark.parametrize("a,b,expect_high", [
        (0.0, 0.0, True), (0.0, 0.6, True), (0.6, 0.0, True),
        (0.6, 0.6, False),
    ])
    def test_truth_table(self, family, a, b, expect_high):
        circuit, out = build_nand2(family, a, b)
        op = operating_point(circuit)
        v = op.voltage(out)
        if expect_high:
            assert v > 0.5
        else:
            assert v < 0.1


class TestRingOscillator:
    def test_stage_count_validation(self, family):
        with pytest.raises(ParameterError):
            build_ring_oscillator(family, stages=4)
        with pytest.raises(ParameterError):
            build_ring_oscillator(family, stages=1)

    def test_oscillation(self, family):
        ring, nodes = build_ring_oscillator(family, stages=3)
        x0 = initial_conditions_from_op(ring, {"n0": 0.0, "n1": 0.6})
        ds = transient(ring, tstop=1e-10, dt=2e-12, x0=x0, method="be")
        period = ds.period_estimate(f"v({nodes[0]})", 0.3)
        assert 1e-12 < period < 5e-11
        assert ds.swing(f"v({nodes[0]})") > 0.25

    def test_stage_outputs_phase_shifted(self, family):
        ring, nodes = build_ring_oscillator(family, stages=3)
        x0 = initial_conditions_from_op(ring, {"n0": 0.0, "n1": 0.6})
        ds = transient(ring, tstop=6e-11, dt=2e-12, x0=x0, method="be")
        v0 = ds.voltage(nodes[0])
        v1 = ds.voltage(nodes[1])
        # Distinct waveforms (not stuck at the metastable point).
        assert float(np.max(np.abs(v0 - v1))) > 0.2

    def test_overrides_validation(self, family):
        ring, _nodes = build_ring_oscillator(family, stages=3)
        with pytest.raises(ParameterError):
            initial_conditions_from_op(ring, {"ghost": 0.0})
