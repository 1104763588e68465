"""Jacobian-reuse fast path and Newton stats accounting."""

import numpy as np
import pytest

from repro.circuit.elements import cnfet
from repro.circuit.logic import (
    LogicFamily,
    build_inverter,
    build_ripple_carry_adder,
)
from repro.circuit.mna import NewtonOptions, newton_solve, robust_dc_solve
from repro.circuit.netlist import Circuit
from repro.circuit.elements import Capacitor, Resistor, VoltageSource
from repro.circuit.transient import transient
from repro.circuit.waveforms import Pulse
from repro.errors import AnalysisError
from repro.reference.fettoy import FETToyModel, FETToyParameters


@pytest.fixture(scope="module")
def family():
    return LogicFamily.default(vdd=0.6)


@pytest.fixture(scope="module")
def reference_family():
    """FETToy reference devices: the engines stamp these through the
    scalar element (and its Jacobian-reuse memo), not the bank."""
    device = FETToyModel(FETToyParameters())
    return LogicFamily(n_device=device, p_device=device, vdd=0.6)


def _inverter_pulse(family):
    wave = Pulse(0.0, 0.6, delay=2e-12, rise=1e-12, fall=1e-12,
                 width=1e-11, period=1e-9)
    circuit, _vin, _vout = build_inverter(family, wave)
    return circuit


def _count_evals(circuit):
    """Instrument every CNFET backend; returns the counter cell."""
    cell = [0]
    for el in circuit.elements:
        if not hasattr(el, "backend"):
            continue
        original = el.backend.evaluate_full

        def counting(vgs, vds, with_charge=False, _orig=original):
            cell[0] += 1
            return _orig(vgs, vds, with_charge)

        el.backend.evaluate_full = counting
    return cell


class TestJacobianReuse:
    def test_reuse_skips_evaluations_and_stays_accurate(
            self, reference_family):
        # Reuse is the tuned default now; the exact/baseline runs
        # request the legacy every-iteration assembly explicitly.  The
        # counter instruments the scalar ``evaluate_full``, which only
        # reference-backend devices take.
        legacy = NewtonOptions(jacobian_reuse_tol=0.0)
        exact_circuit = _inverter_pulse(reference_family)
        exact = transient(exact_circuit, tstop=3e-11, dt=2e-13,
                          method="trap", options=legacy)

        baseline_circuit = _inverter_pulse(reference_family)
        baseline_count = _count_evals(baseline_circuit)
        transient(baseline_circuit, tstop=3e-11, dt=2e-13,
                  method="trap", options=legacy)

        reuse_circuit = _inverter_pulse(reference_family)
        reuse_count = _count_evals(reuse_circuit)
        reused = transient(
            reuse_circuit, tstop=3e-11, dt=2e-13, method="trap",
            options=NewtonOptions(jacobian_reuse_tol=1e-6),
        )

        # The plateaus barely move the iterate, so a healthy fraction
        # of the per-iteration device evaluations is skipped...
        assert reuse_count[0] < 0.8 * baseline_count[0]
        # ... at a waveform cost far below the reuse tolerance's
        # frozen-linearisation error bound.
        dv = np.abs(reused.trace("v(out)") - exact.trace("v(out)"))
        assert float(np.max(dv)) < 1e-6

    def test_zero_tol_is_exact_legacy_path(self, family):
        # jacobian_reuse_tol=0.0 recovers the exact legacy iteration:
        # two runs are bit-identical (no chord, no frozen stamps).
        legacy = NewtonOptions(jacobian_reuse_tol=0.0)
        a = transient(_inverter_pulse(family), tstop=1e-11, dt=2e-13,
                      method="trap", options=legacy)
        b = transient(_inverter_pulse(family), tstop=1e-11, dt=2e-13,
                      method="trap", options=legacy)
        assert np.array_equal(a.trace("v(out)"), b.trace("v(out)"))

    def test_default_reuse_matches_legacy_waveforms(self, family):
        # The tuned default (reuse on) stays within the frozen-
        # linearisation error bound of the legacy iteration.
        a = transient(_inverter_pulse(family), tstop=1e-11, dt=2e-13,
                      method="trap")
        b = transient(_inverter_pulse(family), tstop=1e-11, dt=2e-13,
                      method="trap",
                      options=NewtonOptions(jacobian_reuse_tol=0.0))
        dv = np.abs(a.trace("v(out)") - b.trace("v(out)"))
        assert float(np.max(dv)) < 1e-6


def _rca8_run(family, activity, options=NewtonOptions()):
    """Fixed-step trap transient of the 8-bit ripple-carry adder, held
    (A=3, B=5) or with the worst-case carry ripple launched by a pulse
    on carry-in; returns (node voltages, stats)."""
    if activity == "hold":
        a, b, cin, tstop = 3, 5, 0.0, 5e-11
    else:
        a, b, tstop = 255, 0, 3e-11
        cin = Pulse(0.0, 0.6, 5e-12, 1e-12, 1e-12, 4e-11, 1e-10)
    circuit, _info = build_ripple_carry_adder(family, 8, a_value=a,
                                              b_value=b, cin_wave=cin)
    x0 = robust_dc_solve(circuit)
    stats = {}
    ds = transient(circuit, tstop, dt=5e-13, x0=x0, method="trap",
                   options=options, record_currents=False, stats=stats)
    return np.stack([ds.voltage(n) for n in sorted(circuit.node_index)]), \
        stats


class TestBankBypass:
    """The CNFET bank's per-device bypass under ``jacobian_reuse_tol``
    (``stacked_bypassed`` counts the device evaluations that reused
    their anchor's linearisation)."""

    def test_quiescent_hold_bypasses_nearly_every_device(self, family):
        _waves, stats = _rca8_run(family, "hold")
        assert stats["stacked_bypassed"] >= 0.99 * stats["stacked_lanes"]

    def test_zero_tol_never_bypasses(self, family, monkeypatch):
        """``jacobian_reuse_tol=0`` runs the exact iteration: no device
        bypassed, no anchor ever set."""
        banks = []
        init = cnfet.CNFETBank.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            banks.append(self)

        monkeypatch.setattr(cnfet.CNFETBank, "__init__", recording)
        _waves, stats = _rca8_run(family, "hold",
                                  NewtonOptions(jacobian_reuse_tol=0.0))
        assert stats["stacked_bypassed"] == 0
        assert stats["stacked_lanes"] > 0
        assert banks and all(np.isnan(bank.anchor).all()
                             for bank in banks)

    @pytest.mark.parametrize("activity", ["hold", "pulse"])
    def test_bypass_matches_exact_iteration(self, family, activity):
        """The tangent's O(curvature * tol^2) error stays far below
        1e-9 V on every node, on a held adder and a carry ripple."""
        waves, stats = _rca8_run(family, activity)
        exact, _ = _rca8_run(family, activity,
                             NewtonOptions(jacobian_reuse_tol=0.0))
        assert stats["stacked_bypassed"] > 0
        assert float(np.max(np.abs(waves - exact))) <= 1e-9


class TestNewtonStatsFlush:
    def _rc(self):
        c = Circuit("rc")
        c.add(VoltageSource("v1", "in", "0", 1.0))
        c.add(Resistor("r1", "in", "out", 1e3))
        c.add(Capacitor("c1", "out", "0", 1e-12))
        return c

    def test_counters_accumulate_once_per_solve(self):
        circuit = self._rc()
        circuit.dimension()
        stats = {}
        x = newton_solve(circuit, np.zeros(circuit.dimension()),
                         stats=stats)
        assert stats["solves"] == 1
        assert stats["iterations"] >= 1
        newton_solve(circuit, x, stats=stats)
        assert stats["solves"] == 2

    def test_counters_flushed_on_failure(self, family):
        # Force a failure by starving the iteration budget on a
        # nonlinear solve (a cold CNFET inverter needs more than two
        # damped iterations); the counters must still be flushed.
        circuit, _vin, _vout = build_inverter(family, 0.3)
        circuit.dimension()
        stats = {}
        options = NewtonOptions(max_iterations=2, vtol=1e-15,
                                reltol=1e-15)
        with pytest.raises(AnalysisError):
            newton_solve(circuit, np.zeros(circuit.dimension()),
                         options, stats=stats)
        assert stats["solves"] == 1
        assert stats["iterations"] == 2
