"""Lane-batched engine: batch-vs-sequential parity suite.

The contract under test: every lane of a lock-step batch reproduces
the scalar engine's waveforms on the same grid to well below 1e-9 V —
across fixed and adaptive stepping, heterogeneous lane parameters,
early lane retirement and the per-lane scalar fallback — and the
stacked device-evaluation layer matches the scalar closed forms.
"""

import dataclasses

import numpy as np
import pytest

import repro.circuit.batch_sim as batch_sim
from repro.circuit.batch_sim import (
    LaneBatch,
    batch_dc_sweep,
    batch_operating_points,
    batch_transient,
)
from repro.circuit.dc import dc_sweep
from repro.circuit.logic import (
    LogicFamily,
    build_inverter,
    build_ring_oscillator,
)
from repro.circuit.mna import NewtonOptions, robust_dc_solve
from repro.circuit.transient import (
    _collect_breakpoints,
    initial_conditions_from_op,
    transient,
)
from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.circuit.elements.base import (
    Element,
    GenericLaneGroup,
    LaneContext,
)
from repro.circuit.netlist import Circuit
from repro.circuit.waveforms import DC, Pulse
from repro.errors import AnalysisError, NetlistError, ParameterError
from repro.pwl.batch import StackedCurves, StackedVscSolver
from repro.pwl.device import CNFET
from repro.reference.fettoy import FETToyParameters

#: the suite's waveform-parity criterion [V]
PARITY_TOL_V = 1e-9

#: tight Newton options so parity measures the engines, not the
#: Newton stop criterion
TIGHT = NewtonOptions(vtol=1e-12, reltol=1e-10)


@pytest.fixture(scope="module")
def family():
    return LogicFamily.default(vdd=0.6)


@pytest.fixture(scope="module")
def families():
    """Four heterogeneous device families (distinct geometry)."""
    out = []
    for tox in (1.2, 1.5, 1.8, 2.1):
        params = FETToyParameters(tox_nm=tox)
        out.append(LogicFamily(
            n_device=CNFET(params, polarity="n"),
            p_device=CNFET(params, polarity="p"),
            vdd=0.6,
        ))
    return out


def _max_dv(ds_a, ds_b, nodes):
    return max(
        float(np.max(np.abs(ds_a.trace(f"v({n})")
                            - ds_b.trace(f"v({n})"))))
        for n in nodes
    )


class TestStackedDeviceLayer:
    def test_stacked_curves_match_piecewise(self, families):
        curves = [f.n_device.fitted.curve for f in families]
        bank = StackedCurves(curves)
        rng = np.random.default_rng(3)
        v = rng.uniform(-0.8, 0.8, len(curves))
        for lane, curve in enumerate(curves):
            assert bank.value(v)[lane] == pytest.approx(
                float(curve.value(float(v[lane]))), abs=1e-18)
            assert bank.derivative(v)[lane] == pytest.approx(
                float(curve.derivative(float(v[lane]))), abs=1e-12)

    def test_stacked_solver_matches_scalar(self, families):
        devices = [f.n_device for f in families] \
            + [f.p_device for f in families]
        solver = StackedVscSolver([d.solver for d in devices])
        rng = np.random.default_rng(5)
        hint = np.zeros(len(devices))
        for _round in range(4):
            vgs = rng.uniform(-0.1, 0.7, len(devices))
            vds = rng.uniform(0.0, 0.7, len(devices))
            out = solver.solve(vgs, vds, hint)
            for lane, dev in enumerate(devices):
                ref = dev.solver.solve(float(vgs[lane]),
                                       float(vds[lane]), 0.0)
                assert out[lane] == pytest.approx(ref, abs=1e-11)

    def test_stacked_solver_subset(self, families):
        devices = [f.n_device for f in families]
        solver = StackedVscSolver([d.solver for d in devices])
        hint = np.zeros(len(devices))
        idx = np.array([1, 3])
        vgs = np.array([0.3, 0.5])
        vds = np.array([0.2, 0.6])
        out = solver.solve(vgs, vds, hint, idx=idx)
        for k, lane in enumerate(idx):
            ref = devices[lane].solver.solve(float(vgs[k]),
                                             float(vds[k]), 0.0)
            assert out[k] == pytest.approx(ref, abs=1e-11)
        # Hints updated only at the solved lanes.
        assert hint[0] == 0.0 and hint[2] == 0.0
        assert hint[1] != 0.0 and hint[3] != 0.0


class TestLaneBatchValidation:
    def test_topology_mismatch_rejected(self, family):
        a, _, _ = build_inverter(family)
        b, _ = build_ring_oscillator(family)
        with pytest.raises(NetlistError):
            LaneBatch([a, b])

    def test_shared_element_objects_rejected(self, family):
        a, _, _ = build_inverter(family)
        with pytest.raises(NetlistError, match="share element objects"):
            LaneBatch([a, a])

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            LaneBatch([])

    def test_per_lane_tstop_shape_checked(self, family):
        a, _, _ = build_inverter(family)
        b, _, _ = build_inverter(family)
        with pytest.raises(ParameterError):
            batch_transient([a, b], [1e-12, 1e-12, 1e-12], dt=1e-13)


class TestDCParity:
    def test_operating_points_match_scalar(self, families):
        circuits = [build_inverter(f, 0.3)[0] for f in families]
        x = batch_operating_points(circuits, TIGHT)
        for lane, f in enumerate(families):
            circuit, _, _ = build_inverter(f, 0.3)
            ref = robust_dc_solve(circuit, None, TIGHT)
            assert np.max(np.abs(x[lane] - ref)) < PARITY_TOL_V

    def test_dc_sweep_matches_scalar(self, families):
        circuits = [build_inverter(f)[0] for f in families]
        sweep = np.linspace(0.0, 0.6, 13)
        datasets = batch_dc_sweep(circuits, "vin_src", sweep, TIGHT)
        for lane, f in enumerate(families):
            circuit, _, _ = build_inverter(f)
            ref = dc_sweep(circuit, "vin_src", sweep, TIGHT)
            assert float(np.max(np.abs(
                datasets[lane].voltage("out") - ref.voltage("out")
            ))) < PARITY_TOL_V
            # Source branch currents ride along for free.
            assert float(np.max(np.abs(
                datasets[lane].current("vdd_src")
                - ref.current("vdd_src")
            ))) < 1e-12


class TestFixedModeParity:
    def test_identical_ring_lanes(self, family):
        ring, nodes = build_ring_oscillator(family)
        x0 = initial_conditions_from_op(
            ring, {nodes[0]: 0.0, nodes[1]: 0.6}, TIGHT)
        ref = transient(ring, tstop=5e-11, dt=2e-12, x0=x0,
                        method="be", options=TIGHT)
        lanes = [build_ring_oscillator(family)[0] for _ in range(3)]
        result = batch_transient(lanes, 5e-11, dt=2e-12, method="be",
                                 options=TIGHT, x0=np.stack([x0] * 3))
        assert not result.errors and not result.fallback_lanes
        for lane in range(3):
            ds = result[lane]
            assert len(ds.axis) == len(ref.axis)
            assert _max_dv(ds, ref, nodes) < PARITY_TOL_V

    @pytest.mark.parametrize("method", ["be", "trap"])
    def test_heterogeneous_lanes_vs_scalar_replay(self, families,
                                                  method):
        """Different devices, loads AND pulse timings per lane: every
        lane must match the scalar engine replayed on the shared grid
        (the union of all lanes' waveform breakpoints)."""
        tstop = 4e-11
        specs = [(1e-12, 1e-17, 4e-12), (2e-12, 4e-17, 5e-12),
                 (1e-12, 8e-17, 6e-12), (4e-12, 2e-17, 7e-12)]
        circuits = []
        for fam, (slew, load, delay) in zip(families, specs):
            loaded = dataclasses.replace(fam, load_f=load)
            wave = Pulse(0.0, 0.6, delay=delay, rise=slew, fall=slew,
                         width=1.5e-11, period=1e-9)
            circuits.append(build_inverter(loaded, wave)[0])
        result = batch_transient(circuits, tstop, dt=1e-12,
                                 method=method, options=TIGHT)
        assert not result.errors and not result.fallback_lanes
        union = sorted(set().union(*(
            _collect_breakpoints(c, tstop) for c in circuits)))
        for lane, (fam, (slew, load, delay)) in enumerate(
                zip(families, specs)):
            loaded = dataclasses.replace(fam, load_f=load)
            wave = Pulse(0.0, 0.6, delay=delay, rise=slew, fall=slew,
                         width=1.5e-11, period=1e-9)
            circuit, _, _ = build_inverter(loaded, wave)
            ref = transient(circuit, tstop=tstop, dt=1e-12,
                            method=method, options=TIGHT,
                            extra_breakpoints=union)
            ds = result[lane]
            assert len(ds.axis) == len(ref.axis)
            assert _max_dv(ds, ref, ["in", "out"]) < PARITY_TOL_V
            assert float(np.max(np.abs(
                ds.current("vdd_src") - ref.current("vdd_src")
            ))) < 1e-9

    def test_early_retirement(self, family):
        """Per-lane stop times: short lanes end exactly at their
        tstop, long lanes keep integrating."""
        rings = [build_ring_oscillator(family)[0] for _ in range(3)]
        _ring, nodes = build_ring_oscillator(family)
        x0 = initial_conditions_from_op(
            rings[0], {nodes[0]: 0.0, nodes[1]: 0.6}, TIGHT)
        tstops = [2e-11, 4e-11, 1e-11]
        result = batch_transient(rings, tstops, dt=2e-12, method="be",
                                 options=TIGHT, x0=np.stack([x0] * 3))
        assert result.stats["retired_lanes"] == 3
        for lane, tstop in enumerate(tstops):
            ds = result[lane]
            assert ds.axis[-1] == pytest.approx(tstop, rel=1e-12)
            ref = transient(build_ring_oscillator(family)[0],
                            tstop=tstop, dt=2e-12, x0=x0.copy(),
                            method="be", options=TIGHT)
            assert len(ds.axis) == len(ref.axis)
            assert _max_dv(ds, ref, nodes) < PARITY_TOL_V


@pytest.mark.slow
class TestAdaptiveModeParity:
    def test_pinned_grid_matches_scalar(self, family):
        """dt_min == dt_max pins the controller, so the adaptive
        lock-step engine must reproduce the scalar adaptive engine's
        waveforms exactly (to Newton/closed-form noise)."""
        ring, nodes = build_ring_oscillator(family)
        x0 = initial_conditions_from_op(
            ring, {nodes[0]: 0.0, nodes[1]: 0.6}, TIGHT)
        ref = transient(ring, tstop=3e-11, x0=x0, method="trap",
                        options=TIGHT, adaptive=True, dt_min=1e-12,
                        dt_max=1e-12)
        lanes = [build_ring_oscillator(family)[0] for _ in range(2)]
        result = batch_transient(lanes, 3e-11, method="trap",
                                 options=TIGHT, x0=np.stack([x0] * 2),
                                 adaptive=True, dt_min=1e-12,
                                 dt_max=1e-12)
        for lane in range(2):
            ds = result[lane]
            assert len(ds.axis) == len(ref.axis)
            assert _max_dv(ds, ref, nodes) < PARITY_TOL_V

    def test_free_running_tracks_scalar_within_lte(self, family):
        """Unpinned, the shared controller takes its own step
        sequence; waveforms must still agree with the scalar adaptive
        run to LTE-tolerance order."""
        ring, nodes = build_ring_oscillator(family)
        x0 = initial_conditions_from_op(
            ring, {nodes[0]: 0.0, nodes[1]: 0.6})
        ref = transient(ring, tstop=3e-11, x0=x0, method="trap")
        lanes = [build_ring_oscillator(family)[0] for _ in range(2)]
        result = batch_transient(lanes, 3e-11, method="trap",
                                 x0=np.stack([x0] * 2))
        grid = np.linspace(0.0, 3e-11, 400)
        for lane in range(2):
            ds = result[lane]
            worst = max(
                float(np.max(np.abs(
                    np.interp(grid, ds.axis, ds.trace(f"v({n})"))
                    - np.interp(grid, ref.axis, ref.trace(f"v({n})"))
                )))
                for n in nodes
            )
            assert worst < 5e-3

    def test_heterogeneous_pulses_run_clean(self, families):
        """Adaptive mode with per-lane breakpoints: no lane drops out
        and every waveform settles to the right rails."""
        circuits = []
        for k, fam in enumerate(families):
            wave = Pulse(0.0, 0.6, delay=(k + 1) * 1e-12, rise=1e-12,
                         fall=1e-12, width=1e-11, period=1e-9)
            circuits.append(build_inverter(fam, wave)[0])
        result = batch_transient(circuits, 3e-11, method="trap")
        assert not result.errors and not result.fallback_lanes
        for lane in range(len(circuits)):
            ds = result[lane]
            # Input low at the end -> inverter output back at VDD.
            assert ds.trace("v(out)")[-1] == pytest.approx(0.6,
                                                           abs=0.05)


class TestScalarFallback:
    def test_failed_lane_reruns_scalar(self, family, monkeypatch):
        """A lane whose lock-step Newton fails irreducibly leaves the
        batch and is re-simulated by the scalar engine; its waveforms
        equal a direct scalar run."""
        original = batch_sim._lockstep_newton

        def sabotage(batch, x, lanes, options, **kwargs):
            x_new, failed = original(batch, x, lanes, options, **kwargs)
            if kwargs.get("analysis") == "tran" and 1 in lanes:
                failed = list(failed) + [1]
                x_new[1] = x[1]
            return x_new, failed

        monkeypatch.setattr(batch_sim, "_lockstep_newton", sabotage)
        lanes = [build_inverter(family, Pulse(
            0.0, 0.6, delay=2e-12, rise=1e-12, fall=1e-12,
            width=5e-12, period=1e-9))[0] for _ in range(3)]
        result = batch_transient(lanes, 1.5e-11, dt=1e-12,
                                 method="trap", options=TIGHT)
        assert result.fallback_lanes == (1,)
        assert not result.errors
        monkeypatch.setattr(batch_sim, "_lockstep_newton", original)
        ref = transient(lanes[1], tstop=1.5e-11, dt=1e-12,
                        method="trap", options=TIGHT)
        ds = result[1]
        assert len(ds.axis) == len(ref.axis)
        assert _max_dv(ds, ref, ["in", "out"]) < PARITY_TOL_V

    def test_failed_scalar_rerun_reports_error(self, family,
                                               monkeypatch):
        """A lane that fails in lock-step and again in its scalar
        re-run has no dataset; its error is the scalar engine's."""
        original = batch_sim._lockstep_newton

        def sabotage(batch, x, lanes, options, **kwargs):
            x_new, failed = original(batch, x, lanes, options, **kwargs)
            if kwargs.get("analysis") == "tran" and 0 in lanes:
                failed = list(failed) + [0]
            return x_new, failed

        def scalar_fails(circuit, **kwargs):
            raise AnalysisError("scalar re-run failed too")

        monkeypatch.setattr(batch_sim, "_lockstep_newton", sabotage)
        monkeypatch.setattr(batch_sim, "transient", scalar_fails)
        lanes = [build_inverter(family)[0] for _ in range(2)]
        result = batch_transient(lanes, 1e-11, dt=1e-12)
        assert result.fallback_lanes == (0,)
        assert "scalar re-run failed too" in result.errors[0]
        assert result.datasets[0] is None
        assert result.datasets[1] is not None
        with pytest.raises(AnalysisError, match="lane 0 failed"):
            result[0]


@pytest.mark.slow
class TestEvaluatorParity:
    def test_ring_evaluator_batch_matches_scalar(self):
        from repro.variability.circuits import RingOscillatorEvaluator
        from repro.variability.params import default_device_space
        from repro.variability.sampling import monte_carlo

        space = default_device_space()
        samples = monte_carlo(space, 12, seed=19)
        batch = RingOscillatorEvaluator(space, use_batch=True)
        scalar = RingOscillatorEvaluator(space, use_batch=False)
        rows_b = batch.evaluate(samples)
        rows_s = scalar.evaluate(samples)
        for rb, rs in zip(rows_b, rows_s):
            if np.isnan(rs["period"]):
                assert np.isnan(rb["period"])
                continue
            assert rb["period"] == pytest.approx(rs["period"],
                                                 rel=1e-9)

    def test_vtc_evaluator_batch_matches_scalar(self):
        from repro.variability.circuits import InverterVTCEvaluator
        from repro.variability.params import default_device_space
        from repro.variability.sampling import monte_carlo

        space = default_device_space()
        samples = monte_carlo(space, 10, seed=23)
        batch = InverterVTCEvaluator(space, use_batch=True)
        scalar = InverterVTCEvaluator(space, use_batch=False)
        rows_b = batch.evaluate(samples)
        rows_s = scalar.evaluate(samples)
        for rb, rs in zip(rows_b, rows_s):
            for metric in ("vm", "gain", "nml", "nmh"):
                if np.isnan(rs[metric]):
                    assert np.isnan(rb[metric])
                else:
                    assert rb[metric] == pytest.approx(rs[metric],
                                                       abs=1e-12)

    def test_characterize_batch_metrics_sane(self, family):
        from repro.characterize import characterize_gate

        table_b = characterize_gate(family, "inverter",
                                    loads=(1e-17, 4e-17),
                                    slews=(1e-12, 4e-12),
                                    use_batch=True)
        table_s = characterize_gate(family, "inverter",
                                    loads=(1e-17, 4e-17),
                                    slews=(1e-12, 4e-12),
                                    use_batch=False)
        assert table_b.meta["engine"] == "batch"
        assert table_s.meta["engine"] == "scalar"
        for arc in ("rise", "fall"):
            b = np.asarray(table_b.arcs[arc].delay)
            s = np.asarray(table_s.arcs[arc].delay)
            assert np.all(np.isfinite(b))
            # Delay *measurements* (50% crossings interpolated on an
            # adaptive grid) carry grid-realization noise in both
            # engines — especially for sub-slew delays — so the
            # engines are only required to agree to that noise; the
            # rigorous waveform-level parity lives in the fixed/pinned
            # grid tests above.
            assert np.max(np.abs(b - s) / np.abs(s)) < 0.6
            # Delay still grows with load in every row.
            assert np.all(b[:, 1] > b[:, 0])


class _Shunt(Element):
    """A user-defined linear element (a conductance): no static group,
    so the lane engine stamps it through the per-lane fallback."""

    def __init__(self, name, a, b, g):
        super().__init__(name, (a, b))
        self.g = g

    def stamp(self, ctx):
        ctx.add_conductance(*self.nodes, self.g)


#: per-lane (R, L, C, pulse delay) of the linear parity circuit
LINEAR_SPECS = [(1e3, 1e-9, 1e-14, 2e-12), (2e3, 3e-9, 2e-14, 5e-12),
                (5e2, 2e-9, 5e-15, 3e-12)]


def _linear_lane(r, l, c, delay):
    """Every linear element class in one circuit: a pulsed source
    drives an R-L-C ladder with a current source and a user-defined
    shunt on the far node."""
    circuit = Circuit()
    circuit.add(VoltageSource("vin", "in", "0", Pulse(
        0.0, 1.0, delay=delay, rise=2e-12, fall=2e-12, width=1e-11,
        period=1e-9)))
    circuit.add(Resistor("r1", "in", "a", r))
    circuit.add(Inductor("l1", "a", "b", l))
    circuit.add(Capacitor("c1", "b", "0", c))
    circuit.add(Capacitor("c2", "a", "b", c / 4))
    circuit.add(Resistor("r2", "b", "0", 4 * r))
    circuit.add(CurrentSource("i1", "0", "b", 1e-4))
    circuit.add(_Shunt("x1", "b", "0", 1e-4))
    return circuit


class TestLinearLaneParity:
    """Every linear class through the lane engine: the built-in ones
    stamp through their lane-axis static groups, the user-defined one
    through the per-lane fallback."""

    def test_groups_cover_every_class(self):
        batch = LaneBatch([_linear_lane(*spec) for spec in LINEAR_SPECS])
        assert [type(g) for g in batch.groups] == [GenericLaneGroup]

    @pytest.mark.parametrize("method", ["be", "trap"])
    def test_transient_vs_scalar_replay(self, method):
        tstop = 4e-11
        circuits = [_linear_lane(*spec) for spec in LINEAR_SPECS]
        result = batch_transient(circuits, tstop, dt=1e-12, method=method,
                                 options=TIGHT)
        assert not result.errors and not result.fallback_lanes
        union = sorted(set().union(*(
            _collect_breakpoints(c, tstop) for c in circuits)))
        for lane, spec in enumerate(LINEAR_SPECS):
            ref = transient(_linear_lane(*spec), tstop=tstop, dt=1e-12,
                            method=method, options=TIGHT,
                            extra_breakpoints=union)
            ds = result[lane]
            assert len(ds.axis) == len(ref.axis)
            assert _max_dv(ds, ref, ["in", "a", "b"]) < PARITY_TOL_V
            assert float(np.max(np.abs(
                ds.current("vin") - ref.current("vin")))) < PARITY_TOL_V

    def test_dc_sweep_vs_scalar(self):
        sweep = np.linspace(0.0, 1.0, 5)
        datasets = batch_dc_sweep(
            [_linear_lane(*spec) for spec in LINEAR_SPECS], "vin", sweep,
            TIGHT)
        for lane, spec in enumerate(LINEAR_SPECS):
            ref = dc_sweep(_linear_lane(*spec), "vin", sweep, TIGHT)
            for node in ("in", "a", "b"):
                assert float(np.max(np.abs(
                    datasets[lane].voltage(node) - ref.voltage(node)
                ))) < PARITY_TOL_V
            assert float(np.max(np.abs(
                datasets[lane].current("vin") - ref.current("vin")
            ))) < PARITY_TOL_V


class TestBatchStats:
    def test_lane_iterations_and_retirement_counters(self, family):
        rings = [build_ring_oscillator(family)[0] for _ in range(2)]
        _r, nodes = build_ring_oscillator(family)
        x0 = initial_conditions_from_op(
            rings[0], {nodes[0]: 0.0, nodes[1]: 0.6})
        stats = {}
        batch_transient(rings, 2e-11, dt=2e-12, method="be",
                        x0=np.stack([x0] * 2), stats=stats)
        assert stats["steps"] == 10
        assert stats["lane_iterations"] >= stats["iterations"]
        assert stats["retired_lanes"] == 2
        assert stats["stacked_solves"] == stats["iterations"]


class TestSourceLaneCache:
    def test_dc_cache_follows_a_waveform_at_a_recycled_id(self):
        """A source's waveform swapped for a new ``DC`` that lands at
        the freed object's id (``batch_dc_sweep`` swaps waveforms per
        point) is read, not the cached level of the old one."""
        circuits = []
        for _ in range(2):
            circuit = Circuit()
            circuit.add(VoltageSource("v1", "a", "0", 1.0))
            circuit.add(Resistor("r1", "a", "0", 1e3))
            circuits.append(circuit)
        n = circuits[0].dimension()
        sources = [c.element("v1") for c in circuits]
        # the lane-axis group: one source in each of two lanes
        group = VoltageSource.static_group(
            [[source] for source in sources], circuits[0].node_index, n)

        def stamp():
            ctx = LaneContext(np.zeros((2, n + 1, n + 1)),
                              np.zeros((2, n + 1)),
                              circuits[0].node_index, np.zeros((2, n)),
                              np.arange(2))
            return group.rhs(ctx).tolist()

        assert stamp() == [1.0, 1.0]
        old_id = id(sources[0].waveform)
        sources[0].waveform = DC(0.0)      # frees the old level
        # allocate until a new level takes the freed id (kept alive:
        # a cache that holds its waveforms never lets it be freed)
        fresh = [DC(2.0) for _ in range(1000)]
        sources[0].waveform = next(
            (w for w in fresh if id(w) == old_id), fresh[-1])
        assert stamp() == [2.0, 1.0]

    def test_one_lane_waveform_swap_reaches_the_next_rhs(self):
        """The group re-reads its waveforms only after a swap: swapping
        one lane's source (for a level, a plain number or a pulse)
        changes that lane's value in the next ``rhs`` and no other."""
        circuits = []
        for _ in range(3):
            circuit = Circuit()
            circuit.add(VoltageSource("v1", "a", "0", 1.0))
            circuit.add(Resistor("r1", "a", "0", 1e3))
            circuits.append(circuit)
        n = circuits[0].dimension()
        sources = [c.element("v1") for c in circuits]
        group = VoltageSource.static_group(
            [[source] for source in sources], circuits[0].node_index, n)
        ctx = LaneContext(np.zeros((3, n + 1, n + 1)),
                          np.zeros((3, n + 1)), circuits[0].node_index,
                          np.zeros((3, n)), np.arange(3),
                          analysis="tran", time=5e-12, dt=1e-12)

        def stamp():
            return group.rhs(ctx).tolist()

        assert stamp() == [1.0, 1.0, 1.0]
        sources[1].waveform = DC(0.25)
        assert stamp() == [1.0, 0.25, 1.0]
        sources[2].waveform = 0.5
        assert stamp() == [1.0, 0.25, 0.5]
        sources[0].waveform = Pulse(0.0, 0.6, 1e-12, 1e-12, 1e-12,
                                    1e-11, 2e-11)
        assert stamp() == [0.6, 0.25, 0.5]
        assert stamp() == [0.6, 0.25, 0.5]


class TestRecordCurrentsModes:
    def test_scalar_sources_mode_skips_cnfet_postpass(self, family):
        circuit, _vin, _vout = build_inverter(family, 0.3)
        full = transient(circuit, tstop=5e-12, dt=1e-12,
                         record_currents=True)
        circuit2, _vin, _vout = build_inverter(family, 0.3)
        sources = transient(circuit2, tstop=5e-12, dt=1e-12,
                            record_currents="sources")
        assert "i(vdd_src)" in sources and "i(vdd_src)" in full
        assert "i(inv_n)" in full and "i(inv_n)" not in sources
        assert np.array_equal(sources.current("vdd_src"),
                              full.current("vdd_src"))

    def test_batch_sources_mode(self, family):
        lanes = [build_inverter(family, 0.3)[0] for _ in range(2)]
        result = batch_transient(lanes, 5e-12, dt=1e-12,
                                 record_currents="sources")
        ds = result[0]
        assert "i(vdd_src)" in ds and "i(inv_n)" not in ds


class TestCharacterizeBatchFallback:
    def test_whole_batch_failure_falls_back_scalar(self, family,
                                                   monkeypatch):
        import repro.characterize.engine as engine
        from repro.characterize import characterize_gate
        from repro.errors import AnalysisError

        def explode(*args, **kwargs):
            raise AnalysisError("synthetic whole-batch failure")

        monkeypatch.setattr(engine, "batch_transient", explode)
        table = characterize_gate(family, "inverter",
                                  loads=(1e-17, 4e-17),
                                  slews=(1e-12, 4e-12), use_batch=True)
        # The per-point scalar loop served every cell.
        for arc in table.arcs.values():
            assert np.all(np.isfinite(np.asarray(arc.delay)))
