"""Adaptive transient engine: LTE control, breakpoints, mode rules."""

import math

import numpy as np
import pytest

from repro.circuit import (
    Capacitor,
    Circuit,
    NewtonOptions,
    Resistor,
    VoltageSource,
    transient,
)
from repro import faults
from repro.circuit.logic import LogicFamily, build_ring_oscillator
from repro.circuit.transient import initial_conditions_from_op
from repro.circuit.waveforms import DC, Pulse, PWLWaveform, Sine
from repro.errors import ParameterError


def rc_pulse(delay=1e-9, rise=1e-12, tau_r=1000.0, tau_c=1e-12) -> Circuit:
    c = Circuit("rc")
    c.add(VoltageSource("v1", "in", "0",
                        Pulse(0.0, 1.0, delay=delay, rise=rise,
                              width=1e-6, period=2e-6)))
    c.add(Resistor("r1", "in", "out", tau_r))
    c.add(Capacitor("c1", "out", "0", tau_c))
    return c


class TestModeSelection:
    def test_dt_selects_fixed_mode(self):
        ds = transient(rc_pulse(delay=0.0), tstop=1e-9, dt=1e-11)
        # Uniform grid (plus the exact landing on the 1 ps edge end).
        assert ds.axis[-1] == pytest.approx(1e-9)

    def test_omitting_dt_selects_adaptive(self):
        stats = {}
        transient(rc_pulse(), tstop=2e-9, stats=stats)
        assert "dt_smallest" in stats and "dt_largest" in stats
        assert stats["dt_largest"] > stats["dt_smallest"]

    def test_adaptive_flag_overrides_dt(self):
        stats = {}
        transient(rc_pulse(), tstop=2e-9, dt=1e-11, adaptive=True,
                  stats=stats)
        # dt seeds the initial step but the controller takes over.
        assert "rejected_lte" in stats or stats["dt_largest"] > 1e-11

    def test_fixed_mode_requires_dt(self):
        with pytest.raises(ParameterError):
            transient(rc_pulse(), tstop=1e-9, adaptive=False)


class TestMaxHalvingsContract:
    """max_halvings is fixed-step-only; the adaptive controller owns
    rejection (the ISSUE 3 'silently ignored' fix)."""

    def test_max_halvings_rejected_in_adaptive_mode(self):
        with pytest.raises(ParameterError, match="max_halvings"):
            transient(rc_pulse(), tstop=1e-9, max_halvings=4)

    def test_adaptive_options_rejected_in_fixed_mode(self):
        for kwargs in ({"rtol": 1e-3}, {"atol": 1e-6},
                       {"dt_min": 1e-15}, {"dt_max": 1e-10}):
            with pytest.raises(ParameterError):
                transient(rc_pulse(), tstop=1e-9, dt=1e-11, **kwargs)

    def test_fixed_mode_halving_still_works(self):
        # The legacy path with explicit max_halvings stays available.
        ds = transient(rc_pulse(delay=0.0), tstop=1e-9, dt=1e-11,
                       max_halvings=2)
        assert ds.at("v(out)", 1e-9) == pytest.approx(
            1.0 - math.exp(-1.0), abs=0.02)

    def test_fixed_mode_counts_newton_rejections(self):
        """A Newton failure mid-run halves the fixed step and is counted
        in ``rejected_newton``, as in adaptive mode."""
        ring, nodes = build_ring_oscillator(LogicFamily.default(vdd=0.6),
                                            stages=3)
        x0 = initial_conditions_from_op(ring, {nodes[0]: 0.0,
                                               nodes[1]: 0.6})
        plan = faults.FaultPlan(seed=3,
                                schedule={"solver.singular": [20]})
        stats = {}
        with faults.activate(plan):
            ds = transient(ring, tstop=3e-11, dt=2e-12, method="be",
                           x0=x0, stats=stats)
        assert plan.fired == [("solver.singular", 20)]
        assert stats["rejected_newton"] == 1
        assert ds.axis[-1] == pytest.approx(3e-11)
        assert stats["steps"] == len(ds.axis) - 1

    def test_adaptive_tolerance_validation(self):
        with pytest.raises(ParameterError):
            transient(rc_pulse(), tstop=1e-9, rtol=0.0, atol=0.0)
        with pytest.raises(ParameterError):
            transient(rc_pulse(), tstop=1e-9, dt_min=1e-10, dt_max=1e-12)


class TestBreakpointLanding:
    """A PULSE edge strictly between two natural steps must be hit
    exactly — no edge smearing — in both stepping modes."""

    DELAY = 3.3e-12   # deliberately NOT a multiple of any natural step
    RISE = 0.7e-12

    def _edges(self):
        return (self.DELAY, self.DELAY + self.RISE)

    def test_fixed_mode_lands_on_pulse_edges(self):
        c = rc_pulse(delay=self.DELAY, rise=self.RISE)
        ds = transient(c, tstop=2e-11, dt=1e-12)
        for edge in self._edges():
            assert np.any(ds.axis == edge), f"edge {edge} missed"

    def test_adaptive_mode_lands_on_pulse_edges(self):
        c = rc_pulse(delay=self.DELAY, rise=self.RISE)
        stats = {}
        ds = transient(c, tstop=2e-11, stats=stats)
        for edge in self._edges():
            assert np.any(ds.axis == edge), f"edge {edge} missed"
        assert stats["breakpoints_hit"] >= 2

    def test_fixed_mode_resumes_cadence_after_edge(self):
        c = rc_pulse(delay=self.DELAY, rise=self.RISE)
        ds = transient(c, tstop=2e-11, dt=1e-12)
        # After the last edge the engine marches at dt again.
        after = ds.axis[ds.axis > self.DELAY + self.RISE]
        assert len(after) >= 2
        assert np.diff(after)[1:-1] == pytest.approx(1e-12)

    def test_edge_sharpness_not_smeared(self):
        # The input trace must show the exact pre-edge value at the
        # edge start (fixed mode used to interpolate across it).
        c = rc_pulse(delay=self.DELAY, rise=self.RISE)
        ds = transient(c, tstop=2e-11, dt=1e-12)
        i = int(np.where(ds.axis == self.DELAY)[0][0])
        assert ds.trace("v(in)")[i] == pytest.approx(0.0, abs=1e-12)
        j = int(np.where(ds.axis == self.DELAY + self.RISE)[0][0])
        assert ds.trace("v(in)")[j] == pytest.approx(1.0, abs=1e-12)

    def test_pwl_corners_landed(self):
        c = Circuit("pwl")
        c.add(VoltageSource("v1", "in", "0", PWLWaveform((
            (0.0, 0.0), (1.1e-12, 0.0), (2.3e-12, 1.0), (9e-12, 1.0)))))
        c.add(Resistor("r1", "in", "0", 1000.0))
        ds = transient(c, tstop=5e-12, dt=1e-12)
        for corner in (1.1e-12, 2.3e-12):
            assert np.any(ds.axis == corner)

    def test_sine_delay_landed(self):
        c = Circuit("sine")
        c.add(VoltageSource("v1", "in", "0",
                            Sine(0.0, 0.5, 1e9, delay=0.35e-9)))
        c.add(Resistor("r1", "in", "0", 1000.0))
        ds = transient(c, tstop=2e-9, dt=1e-10)
        assert np.any(ds.axis == 0.35e-9)

    def test_breakpoint_sliver_below_dt_min_still_lands(self):
        # An edge closer to the last accepted step than dt_min forces
        # an irreducible sliver step; the engine must accept it and
        # land exactly rather than stalling at the "floor".
        c = rc_pulse(delay=2.5e-12, rise=0.4e-12)
        ds = transient(c, tstop=1e-11, adaptive=True,
                       dt_min=1e-12, dt_max=1e-12)
        edges = c.element("v1").waveform.breakpoints(0.0, 1e-11)[:2]
        assert len(edges) == 2
        for edge in edges:
            assert np.any(ds.axis == edge), f"edge {edge} missed"
        assert ds.axis[-1] == pytest.approx(1e-11)

    def test_dc_sources_have_no_breakpoints(self):
        c = Circuit("dc")
        c.add(VoltageSource("v1", "in", "0", DC(1.0)))
        c.add(Resistor("r1", "in", "out", 1000.0))
        c.add(Capacitor("c1", "out", "0", 1e-12))
        stats = {}
        transient(c, tstop=1e-9, dt=1e-11, stats=stats)
        assert "breakpoints_hit" not in stats


class TestAdaptiveAccuracy:
    def test_rc_charge_accurate(self):
        ds = transient(rc_pulse(delay=1e-10, rise=1e-14), tstop=4e-9)
        tau = 1e-9
        for t_probe in (1e-9, 2e-9, 3e-9):
            expected = 1.0 - math.exp(-(t_probe - 1e-10) / tau)
            assert ds.at("v(out)", t_probe) == pytest.approx(
                expected, abs=0.01)

    def test_tighter_rtol_more_accurate(self):
        tau = 1e-9
        errs = {}
        for rtol in (3e-2, 1e-4):
            ds = transient(rc_pulse(delay=0.0, rise=1e-14), tstop=3e-9,
                           rtol=rtol, atol=1e-9)
            t = 2e-9
            errs[rtol] = abs(ds.at("v(out)", t)
                             - (1.0 - math.exp(-t / tau)))
        assert errs[1e-4] < errs[3e-2]

    def test_adaptive_beats_fixed_step_count_on_pulse(self):
        # Resolving the 1 ps edge with fixed steps needs ~tstop/1ps
        # steps; the adaptive engine refines near the edge only.
        c = rc_pulse(delay=1e-9, rise=1e-12)
        stats = {}
        transient(c, tstop=8e-9, stats=stats)
        fixed_equivalent = 8e-9 / 1e-12
        assert stats["steps"] < fixed_equivalent / 10

    def test_pinned_grid_matches_legacy_engine(self):
        """Forced onto the legacy grid, the adaptive engine reproduces
        the fixed-step waveform to Newton tolerance."""
        c1 = rc_pulse(delay=0.0)
        c2 = rc_pulse(delay=0.0)
        opts = NewtonOptions(vtol=1e-12, reltol=1e-10)
        fixed = transient(c1, tstop=1e-9, dt=1e-11, options=opts)
        pinned = transient(c2, tstop=1e-9, dt=1e-11, adaptive=True,
                           dt_min=1e-11, dt_max=1e-11, options=opts)
        assert np.array_equal(fixed.axis, pinned.axis)
        dv = np.abs(fixed.trace("v(out)") - pinned.trace("v(out)"))
        assert float(np.max(dv)) < 1e-9

    def test_be_method_supported(self):
        stats = {}
        ds = transient(rc_pulse(delay=0.0, rise=1e-14), tstop=3e-9,
                       method="be", stats=stats)
        assert ds.at("v(out)", 2e-9) == pytest.approx(
            1.0 - math.exp(-2.0), abs=0.02)

    def test_stats_accounting(self):
        stats = {}
        transient(rc_pulse(), tstop=4e-9, stats=stats)
        assert stats["steps"] > 0
        assert stats["solves"] >= stats["steps"]
        assert stats["iterations"] >= stats["solves"]
        assert stats["dt_smallest"] <= stats["dt_largest"] <= 4e-9 / 50


class TestExtraBreakpoints:
    def test_forced_points_are_landed_on(self):
        forced = [3.7e-10, 1.21e-9, 2.9e-9]
        ds = transient(rc_pulse(delay=0.0, rise=1e-12), tstop=4e-9,
                       extra_breakpoints=forced)
        for t in forced:
            assert np.min(np.abs(np.asarray(ds.axis) - t)) < 1e-20

    def test_fixed_mode_grid_gains_only_forced_points(self):
        forced = [3.3e-10]
        base = transient(rc_pulse(delay=0.0, rise=1e-12), tstop=1e-9,
                         dt=1e-10)
        ds = transient(rc_pulse(delay=0.0, rise=1e-12), tstop=1e-9,
                       dt=1e-10, extra_breakpoints=forced)
        assert len(ds.axis) == len(base.axis) + 1
        assert np.min(np.abs(np.asarray(ds.axis) - 3.3e-10)) < 1e-20

    def test_outside_range_ignored(self):
        ds = transient(rc_pulse(delay=0.0, rise=1e-12), tstop=1e-9,
                       dt=1e-10, extra_breakpoints=[-1e-10, 0.0, 5e-9])
        base = transient(rc_pulse(delay=0.0, rise=1e-12), tstop=1e-9,
                         dt=1e-10)
        assert len(ds.axis) == len(base.axis)
