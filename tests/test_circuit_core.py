"""Netlist container, MNA assembly and DC analyses on linear circuits."""

import numpy as np
import pytest

from repro.circuit import (
    Capacitor,
    Circuit,
    CurrentSource,
    Diode,
    Inductor,
    Resistor,
    VoltageSource,
    dc_sweep,
    operating_point,
)
from repro.circuit.elements.base import StampContext
from repro.circuit.mna import NewtonOptions, assemble
from repro.errors import AnalysisError, NetlistError, ParameterError


def divider() -> Circuit:
    c = Circuit("divider")
    c.add(VoltageSource("v1", "in", "0", 12.0))
    c.add(Resistor("r1", "in", "mid", 2000.0))
    c.add(Resistor("r2", "mid", "0", 1000.0))
    return c


class TestCircuit:
    def test_nodes_in_order(self):
        c = divider()
        assert c.nodes == ["in", "mid"]

    def test_duplicate_names_rejected(self):
        c = divider()
        with pytest.raises(NetlistError):
            c.add(Resistor("R1", "a", "0", 1.0))  # case-insensitive clash

    def test_element_lookup(self):
        c = divider()
        assert c.element("V1").name == "v1"
        with pytest.raises(NetlistError):
            c.element("nope")
        assert "r1" in c and "zz" not in c

    def test_requires_ground(self):
        c = Circuit()
        c.add(Resistor("r1", "a", "b", 1.0))
        with pytest.raises(NetlistError):
            c.dimension()

    def test_requires_nodes(self):
        with pytest.raises(NetlistError):
            Circuit().dimension()

    def test_dimension_counts_aux(self):
        c = divider()
        assert c.dimension() == 3  # 2 nodes + 1 source current


class TestElements:
    def test_resistor_validation(self):
        with pytest.raises(ParameterError):
            Resistor("r", "a", "b", 0.0)
        with pytest.raises(ParameterError):
            Resistor("r", "a", "b", float("inf"))

    def test_capacitor_validation(self):
        with pytest.raises(ParameterError):
            Capacitor("c", "a", "b", -1e-12)

    @pytest.mark.parametrize("method", ["trap", "be"])
    def test_capacitor_accept_group_matches_accept_step(self, method):
        # The scalar transient commits every capacitor in one vector
        # update (its static group's accept); each element must end
        # with the state its own accept_step leaves, grounded terminals
        # included.
        def caps():
            return [Capacitor("c0", "a", "0", 1e-12),
                    Capacitor("c1", "a", "b", 2e-15),
                    Capacitor("c2", "0", "b", 3e-13)]

        node_index = {"a": 0, "b": 1}
        rng = np.random.default_rng(3)
        # one auxiliary unknown past the node voltages
        x, x_prev = rng.normal(size=3), rng.normal(size=3)
        one, grouped = caps(), caps()
        for el, i_prev in zip(one + grouped, [1e-6, -2e-6, 3e-6] * 2):
            el._i_prev = i_prev
        ctx = StampContext(np.zeros((0, 0)), np.zeros(0), node_index, x,
                           analysis="tran", dt=1e-12, x_prev=x_prev,
                           method=method)
        for el in one:
            el.accept_step(ctx)
        Capacitor.static_group([grouped], node_index, 3).accept(ctx)
        assert [el._i_prev for el in grouped] == \
            [el._i_prev for el in one]

    def test_inductor_group_accept_matches_accept_step(self):
        def inductors():
            els = [Inductor("l0", "a", "0", 1e-9),
                   Inductor("l1", "0", "b", 2e-9)]
            for aux, el in enumerate(els, start=2):
                el.aux_index = aux
            return els

        node_index = {"a": 0, "b": 1}
        x = np.random.default_rng(4).normal(size=4)
        ctx = StampContext(np.zeros((0, 0)), np.zeros(0), node_index, x,
                           analysis="tran", dt=1e-12, method="trap")
        one, grouped = inductors(), inductors()
        for el in one:
            el.accept_step(ctx)
        Inductor.static_group([grouped], node_index, 4).accept(ctx)
        assert [el._v_prev for el in grouped] == \
            [el._v_prev for el in one]

    def test_inductor_validation(self):
        with pytest.raises(ParameterError):
            Inductor("l", "a", "b", 0.0)

    def test_diode_validation(self):
        with pytest.raises(ParameterError):
            Diode("d", "a", "b", saturation_current=0.0)

    def test_unknown_node_raises_at_stamp(self):
        c = divider()
        c.dimension()
        ctx = assemble(c, np.zeros(3))
        with pytest.raises(NetlistError):
            ctx.idx("ghost")


class TestOperatingPoint:
    def test_divider(self):
        op = operating_point(divider())
        assert op.voltage("mid") == pytest.approx(4.0)
        assert op.voltage("in") == pytest.approx(12.0)
        assert op.voltage("0") == 0.0

    def test_source_current_sign(self):
        op = operating_point(divider())
        # SPICE convention: current into the + terminal (negative for a
        # sourcing supply).
        assert op.source_current("v1") == pytest.approx(-4e-3)

    def test_element_current(self):
        op = operating_point(divider())
        assert op.element_current("r1") == pytest.approx(4e-3)

    def test_current_source(self):
        c = Circuit()
        c.add(CurrentSource("i1", "0", "out", 1e-3))
        c.add(Resistor("r1", "out", "0", 1000.0))
        op = operating_point(c)
        assert op.voltage("out") == pytest.approx(1.0)

    def test_capacitor_open_in_dc(self):
        c = divider()
        c.add(Capacitor("c1", "mid", "0", 1e-9))
        op = operating_point(c)
        assert op.voltage("mid") == pytest.approx(4.0)

    def test_inductor_short_in_dc(self):
        c = Circuit()
        c.add(VoltageSource("v1", "in", "0", 5.0))
        c.add(Resistor("r1", "in", "a", 1000.0))
        c.add(Inductor("l1", "a", "out", 1e-6))
        c.add(Resistor("r2", "out", "0", 1000.0))
        op = operating_point(c)
        assert op.voltage("a") == pytest.approx(op.voltage("out"))
        assert op.voltage("out") == pytest.approx(2.5)

    def test_diode_forward_drop(self):
        c = Circuit()
        c.add(VoltageSource("v1", "in", "0", 5.0))
        c.add(Resistor("r1", "in", "a", 1000.0))
        c.add(Diode("d1", "a", "0"))
        op = operating_point(c)
        assert 0.5 < op.voltage("a") < 0.8

    def test_diode_reverse_blocks(self):
        c = Circuit()
        c.add(VoltageSource("v1", "in", "0", -5.0))
        c.add(Resistor("r1", "in", "a", 1000.0))
        c.add(Diode("d1", "a", "0"))
        op = operating_point(c)
        # Almost the full negative supply appears across the diode.
        assert op.voltage("a") == pytest.approx(-5.0, abs=0.05)

    def test_floating_node_is_singular(self):
        c = Circuit()
        c.add(VoltageSource("v1", "in", "0", 1.0))
        c.add(Resistor("r1", "float_a", "float_b", 1.0))
        with pytest.raises(AnalysisError):
            operating_point(
                c, NewtonOptions(gmin_stepping=False,
                                 source_stepping=False),
            )

    def test_as_dict(self):
        op = operating_point(divider())
        d = op.as_dict()
        assert d["v(mid)"] == pytest.approx(4.0)


class TestDcSweep:
    def test_sweep_traces(self):
        c = divider()
        ds = dc_sweep(c, "v1", [0.0, 6.0, 12.0])
        np.testing.assert_allclose(ds.voltage("mid"), [0.0, 2.0, 4.0])

    def test_sweep_restores_source(self):
        c = divider()
        dc_sweep(c, "v1", [1.0, 2.0])
        op = operating_point(c)
        assert op.voltage("in") == pytest.approx(12.0)

    def test_sweep_rejects_non_source(self):
        c = divider()
        with pytest.raises(NetlistError):
            dc_sweep(c, "r1", [1.0])

    def test_sweep_current_source(self):
        c = Circuit()
        c.add(CurrentSource("i1", "0", "out", 0.0))
        c.add(Resistor("r1", "out", "0", 100.0))
        ds = dc_sweep(c, "i1", [0.0, 1e-2])
        np.testing.assert_allclose(ds.voltage("out"), [0.0, 1.0])
