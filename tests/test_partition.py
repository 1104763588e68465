"""Partitioned transient vs. the monolithic engine.

The partitioned assembler must be a drop-in: with latency bypass off
it reproduces the monolithic Newton trajectory to solver tolerance
(the only differences are summation order and the Schur elimination's
rounding); with bypass on, errors stay bounded by the bypass tolerance
semantics documented in ``docs/partitioning.md``.
"""

import numpy as np
import pytest

from repro import faults
from repro.circuit import (
    Capacitor,
    Circuit,
    CNFETElement,
    NewtonOptions,
    Resistor,
    VoltageSource,
    transient,
)
from repro.circuit.logic import (
    LogicFamily,
    add_inverter,
    build_inverter_chain,
    build_ring_oscillator,
    build_ripple_carry_adder,
)
from repro.circuit.mna import TwoPhaseAssembler, newton_solve, robust_dc_solve
from repro.circuit.partition import PartitionedAssembler, partition_circuit
from repro.circuit.waveforms import Pulse
from repro.errors import AnalysisError, ParameterError
from repro.reference.fettoy import FETToyModel, FETToyParameters

FAM = LogicFamily.default()
_FETTOY = FETToyModel(FETToyParameters())
#: polarity-less FETToy reference devices: never banked
REF_FAM = LogicFamily(n_device=_FETTOY, p_device=_FETTOY, vdd=FAM.vdd)


def _rca8(pulse: bool = True) -> Circuit:
    c, _ = build_ripple_carry_adder(FAM, 8, a_value=3, b_value=5)
    if pulse:
        for el in c.elements:
            if el.name == "va0":
                el.waveform = Pulse(v1=0.0, v2=FAM.vdd, delay=2e-12,
                                    rise=1e-12, fall=1e-12,
                                    width=6e-12, period=1.0)
    return c


def _flat_chain(stages: int = 10, reference=()) -> Circuit:
    """Flat (hierarchy-free) inverter chain with a pulse at its input
    and a load capacitor per stage; the stages in ``reference`` use
    FETToy reference devices."""
    c = Circuit("flat chain")
    c.add(VoltageSource("vdd_src", "vdd", "0", FAM.vdd))
    c.add(VoltageSource("vin_src", "n0", "0",
                        Pulse(v1=0.0, v2=FAM.vdd, delay=2e-12, rise=1e-12,
                              fall=1e-12, width=6e-12, period=1.0)))
    for i in range(stages):
        add_inverter(c, REF_FAM if i in reference else FAM, f"inv{i}",
                     f"n{i}", f"n{i + 1}")
        c.add(Capacitor(f"cl{i}", f"n{i + 1}", "0", FAM.load_f))
    return c


def _max_trace_err(ds_a, ds_b) -> float:
    worst = 0.0
    for name in ds_a.names:
        if not name.startswith("v("):
            continue
        worst = max(worst, float(np.max(np.abs(
            ds_a.trace(name) - ds_b.trace(name)))))
    return worst


class TestPartitionStructure:
    def test_rca8_blocks_tile_the_unknowns(self):
        c = _rca8()
        part = partition_circuit(c)
        report = part.report()
        assert report.n_blocks >= 2
        assert report.total_unknowns == c.dimension()
        # Partition.__init__ already validates the tiling; double-check
        # the arithmetic from the report side.
        assert sum(report.block_unknowns) + report.interface_unknowns \
            == report.total_unknowns
        assert report.boundary_nodes > 0
        assert "|" in report.histogram()
        payload = report.as_dict()
        assert payload["n_blocks"] == report.n_blocks

    def test_absorption_keeps_interface_small(self):
        # Stimulus sources / load caps must be absorbed into the block
        # that owns their node, not inflate the boundary: the rca8
        # interface is the carry chain + supply, far below the naive
        # every-source-is-boundary cut.
        part = partition_circuit(_rca8())
        assert part.report().interface_unknowns < 20

    def test_connectivity_fallback_splits_flat_chain(self):
        c, _ = build_inverter_chain(FAM, 8)
        part = partition_circuit(c, max_block=6)
        assert len(part.blocks) >= 2

    def test_absorption_moves_are_decided_before_any_is_made(self):
        """Two elements of different groups across the same two nodes
        each qualify to move into the other's group; both moves hold
        (applying them in turn used to fail on a stale touch count)."""
        c = Circuit("swap")
        c.add(Resistor("A.r", "p", "q", 1e3))
        c.add(Resistor("A.rg", "q", "0", 1e3))
        c.add(Resistor("B.r", "p", "q", 2e3))
        part = partition_circuit(c)
        assert part.blocks == []
        assert [el.name for el in part.interface_elements] \
            == ["B.r", "A.r", "A.rg"]
        assert part.boundary_nodes == ["p", "q"]

    @pytest.mark.parametrize("kind", [Capacitor, CNFETElement])
    def test_element_rewired_into_another_block_is_rejected(self, kind):
        """A block element rewired after partitioning onto another
        block's private node: composing its stamps with the pooled
        layout (static groups and the CNFET bank alike) must fail
        loudly instead of stamping into the wrong slot."""
        c = _rca8(pulse=False)
        part = partition_circuit(c)
        own, other = part.blocks[0], part.blocks[1]
        el = next(e for e in own.elements if isinstance(e, kind))
        name_of = {i: name for name, i in c.node_index.items()}
        foreign = next(name_of[i] for i in other.internal.tolist()
                       if i in name_of)
        el.nodes = (foreign,) + el.nodes[1:]
        with pytest.raises(AnalysisError, match="outside its scope"):
            asm = PartitionedAssembler(c, part)
            asm.begin_step(analysis="tran", time=1e-12, dt=1e-12,
                           x_prev=np.zeros(c.dimension()))

    def test_bad_arguments(self):
        c = _rca8()
        with pytest.raises(ParameterError):
            partition_circuit(c, max_block=0)
        with pytest.raises(ParameterError):
            transient(c, tstop=1e-12, dt=1e-12, partition="maybe",
                      record_currents=False)
        with pytest.raises(ParameterError):
            # bypass_tol without a partitioned run is a user error
            transient(c, tstop=1e-12, dt=1e-12, bypass_tol=1e-6,
                      record_currents=False)


class TestTransientParity:
    def test_rca8_nobypass_matches_monolithic(self):
        c = _rca8()
        x0 = robust_dc_solve(c)
        mono_stats = {}
        ds_mono = transient(c, tstop=2e-11, dt=5e-13, x0=x0,
                            record_currents=False, stats=mono_stats)
        c2 = _rca8()
        stats = {}
        ds_part = transient(c2, tstop=2e-11, dt=5e-13, x0=x0,
                            record_currents=False, partition="auto",
                            bypass_tol=0.0, stats=stats)
        assert stats["partition_steps"] > 0
        assert stats["partition_block_steps_bypassed"] == 0
        # both engines hand the run's stats to their CNFET bank
        assert mono_stats["stacked_lanes"] > 0
        assert stats["stacked_lanes"] > 0
        assert _max_trace_err(ds_mono, ds_part) < 1e-9

    def test_rca8_bypass_matches_within_tolerance(self):
        c = _rca8()
        x0 = robust_dc_solve(c)
        ds_mono = transient(c, tstop=2e-11, dt=5e-13, x0=x0,
                            record_currents=False)
        c2 = _rca8()
        stats = {}
        ds_part = transient(c2, tstop=2e-11, dt=5e-13, x0=x0,
                            record_currents=False, partition="auto",
                            stats=stats)
        # most blocks sit out the run: the pulse only exercises bit 0
        assert stats["partition_block_steps_bypassed"] > 0
        assert _max_trace_err(ds_mono, ds_part) < 5e-6

    def test_rca32_parity_bypass_on_and_off(self):
        # the acceptance-criteria circuit: 32-bit ripple-carry adder,
        # one input pulsing, against the monolithic engine
        c, _ = build_ripple_carry_adder(FAM, 32, a_value=3, b_value=5)
        for el in c.elements:
            if el.name == "va0":
                el.waveform = Pulse(v1=0.0, v2=FAM.vdd, delay=2e-12,
                                    rise=1e-12, fall=1e-12,
                                    width=6e-12, period=1.0)
        x0 = robust_dc_solve(c)
        ds_mono = transient(c, tstop=1e-11, dt=5e-13, x0=x0,
                            record_currents=False)

        def rerun(**kwargs):
            c2, _ = build_ripple_carry_adder(FAM, 32, a_value=3,
                                             b_value=5)
            for el in c2.elements:
                if el.name == "va0":
                    el.waveform = Pulse(v1=0.0, v2=FAM.vdd,
                                        delay=2e-12, rise=1e-12,
                                        fall=1e-12, width=6e-12,
                                        period=1.0)
            return transient(c2, tstop=1e-11, dt=5e-13, x0=x0,
                             record_currents=False, partition="auto",
                             **kwargs)

        stats = {}
        ds_byp = rerun(stats=stats)
        assert stats["partition_block_steps_bypassed"] > 0
        assert _max_trace_err(ds_mono, ds_byp) < 5e-6
        ds_exact = rerun(bypass_tol=0.0)
        assert _max_trace_err(ds_mono, ds_exact) < 1e-9

    def test_ring3_auto_degenerates_to_monolithic(self):
        # The 3-stage ring is one connectivity cluster with no private
        # nodes: "auto" must detect the degenerate partition and run
        # the monolithic engine, bit-identically.
        c, nodes = build_ring_oscillator(FAM, 3)
        x0 = np.zeros(c.dimension())
        x0[c.node_index[nodes[0]]] = FAM.vdd
        ds_mono = transient(c, tstop=2e-11, dt=2e-13, x0=x0,
                            record_currents=False)
        c2, _ = build_ring_oscillator(FAM, 3)
        ds_part = transient(c2, tstop=2e-11, dt=2e-13, x0=x0,
                            record_currents=False, partition="auto")
        assert _max_trace_err(ds_mono, ds_part) == 0.0

    def test_ring9_all_interface_partition_matches(self):
        # Forcing tiny blocks on a ring makes every node a boundary
        # node and every element an interface element — the Schur
        # system then IS the global system, and the partitioned solve
        # must track the monolithic one through a genuinely switching
        # (oscillating) transient.
        c, nodes = build_ring_oscillator(FAM, 9)
        part = partition_circuit(c, max_block=4)
        assert len(part.blocks) == 0
        assert part.gamma.size == c.dimension()
        x0 = np.zeros(c.dimension())
        x0[c.node_index[nodes[0]]] = FAM.vdd
        ds_mono = transient(c, tstop=2e-11, dt=2e-13, x0=x0,
                            record_currents=False)
        c2, _ = build_ring_oscillator(FAM, 9)
        part2 = partition_circuit(c2, max_block=4)
        ds_part = transient(c2, tstop=2e-11, dt=2e-13, x0=x0,
                            record_currents=False, partition=part2)
        assert _max_trace_err(ds_mono, ds_part) < 1e-8

    def test_interface_cnfets_share_the_bank(self):
        # A flat chain cut into small connectivity blocks leaves some
        # inverters with every terminal on a boundary node: their
        # CNFETs sit on the interface and evaluate in the same pooled
        # bank as the blocks' devices.
        c = _flat_chain()
        part = partition_circuit(c, max_block=5)
        on_interface = [el for el in part.interface_elements
                        if isinstance(el, CNFETElement)]
        assert part.blocks and on_interface
        x0 = robust_dc_solve(c)
        ds_mono = transient(c, tstop=2e-11, dt=5e-13, x0=x0,
                            record_currents=False)
        for tol, bound in ((0.0, 1e-9), (None, 5e-6)):
            c2 = _flat_chain()
            stats = {}
            ds_part = transient(
                c2, tstop=2e-11, dt=5e-13, x0=x0, record_currents=False,
                partition=partition_circuit(c2, max_block=5),
                bypass_tol=tol, stats=stats)
            assert stats["stacked_lanes"] > 0
            assert _max_trace_err(ds_mono, ds_part) < bound

    def test_reference_devices_stamp_one_by_one(self):
        # FETToy devices stay out of the pooled bank and take each
        # part's one-by-one dynamic-triplet path: at max_block=5 the
        # chain puts reference stage 4 in a block and stages 1 and 7
        # on the interface.
        reference = (1, 4, 7)
        c = _flat_chain(reference=reference)
        part = partition_circuit(c, max_block=5)

        def stages(elements):
            return {int(el.name[3]) for el in elements
                    if isinstance(el, CNFETElement)
                    and el.backend.device is _FETTOY}

        in_blocks = stages(el for blk in part.blocks for el in blk.elements)
        assert in_blocks == {4}
        assert stages(part.interface_elements) == {1, 7}
        x0 = robust_dc_solve(c)
        ds_mono = transient(c, tstop=2e-11, dt=5e-13, x0=x0,
                            record_currents=False)
        c2 = _flat_chain(reference=reference)
        stats = {}
        ds_part = transient(
            c2, tstop=2e-11, dt=5e-13, x0=x0, record_currents=False,
            partition=partition_circuit(c2, max_block=5), bypass_tol=0.0,
            stats=stats)
        assert stats["partition_steps"] > 0
        assert _max_trace_err(ds_mono, ds_part) < 1e-9

    def test_partition_for_wrong_circuit_rejected(self):
        part = partition_circuit(_rca8())
        with pytest.raises(ParameterError):
            transient(_rca8(), tstop=1e-12, dt=1e-12, partition=part,
                      record_currents=False)


class TestAutoEscalation:
    def test_escalated_stats_describe_the_monolithic_run(self):
        """Nine consecutive singular solves exhaust the partitioned
        run's eight halvings; ``"auto"`` re-runs monolithically and
        ``stats`` counts only that run (plus the escalation)."""
        c = _rca8()
        x0 = robust_dc_solve(c)
        plan = faults.FaultPlan(seed=5,
                                schedule={"solver.singular": range(4, 13)})
        stats = {}
        with faults.activate(plan):
            ds = transient(c, tstop=5e-12, dt=5e-13, x0=x0,
                           record_currents=False, partition="auto",
                           stats=stats)
        assert len(plan.fired) == 9
        assert stats["partition_escalated"] == 1
        assert stats["steps"] == len(ds.axis) - 1
        assert "partition_steps" not in stats
        ref_stats = {}
        ref = transient(_rca8(), tstop=5e-12, dt=5e-13, x0=x0,
                        record_currents=False, partition="off",
                        stats=ref_stats)
        assert stats["stacked_lanes"] == ref_stats["stacked_lanes"]
        np.testing.assert_array_equal(ds.axis, ref.axis)
        for name in ref.names:
            np.testing.assert_array_equal(ds.trace(name),
                                          ref.trace(name))


class TestCouplingModes:
    def test_schur_dc_parity(self):
        c = _rca8(pulse=False)
        x_ref = robust_dc_solve(c)
        asm = PartitionedAssembler(c)
        # start a few mV off the operating point so Newton has real
        # work to do without needing the gmin-stepping scaffolding
        x = newton_solve(c, x_ref + 5e-3, NewtonOptions(),
                         assembler=asm)
        assert float(np.max(np.abs(x - x_ref))) < 1e-6


    def test_one_assembler_across_a_mode_switch(self):
        """One assembler serves a DC solve, then BE steps while va0
        pulses: the bank's entry kinds go from 8 to 17 and every part's
        phase maps are rebuilt."""
        x_op = robust_dc_solve(_rca8())

        def run(assembler_cls):
            c = _rca8()
            asm = assembler_cls(c)
            x = newton_solve(c, x_op + 5e-3, NewtonOptions(),
                             assembler=asm)
            trajectory = [x]
            for k in range(1, 5):
                x = newton_solve(c, x, NewtonOptions(), analysis="tran",
                                 time=k * 1e-12, dt=1e-12, x_prev=x,
                                 method="be", assembler=asm)
                trajectory.append(x)
            return np.stack(trajectory)

        ref = run(TwoPhaseAssembler)
        got = run(PartitionedAssembler)
        # the pulse moved the circuit, so the steps are real work
        assert np.max(np.abs(ref[-1] - ref[0])) > 0.1
        assert np.max(np.abs(got - ref)) < 1e-9


class TestBypassSemantics:
    def test_quiescent_run_bypasses_and_matches(self):
        c = _rca8(pulse=False)
        x0 = robust_dc_solve(c)
        ds_mono = transient(c, tstop=2e-11, dt=5e-13, x0=x0,
                            record_currents=False)
        c2 = _rca8(pulse=False)
        stats = {}
        ds_part = transient(c2, tstop=2e-11, dt=5e-13, x0=x0,
                            record_currents=False, partition="auto",
                            stats=stats)
        total = stats["partition_block_steps_bypassed"] \
            + stats["partition_block_steps_active"]
        assert stats["partition_block_steps_bypassed"] > 0.8 * total
        assert stats["partition_interface_solve_reuses"] > 0
        assert _max_trace_err(ds_mono, ds_part) < 5e-6

    def test_negative_bypass_tol_rejected(self):
        c = _rca8()
        with pytest.raises(ParameterError):
            transient(c, tstop=1e-12, dt=1e-12, partition="auto",
                      bypass_tol=-1.0, record_currents=False)
