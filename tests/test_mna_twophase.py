"""Two-phase assembly must reproduce the one-phase companion system.

The static/dynamic split is an implementation detail of the Newton
loop: for any circuit and any iterate, copying the static stamps and
re-stamping only the nonlinear elements must produce the same matrix
and right-hand side as stamping everything from scratch (up to
summation-order rounding).
"""

import numpy as np
import pytest

import repro.circuit.elements as elements_module
from repro.circuit import (
    Capacitor,
    Circuit,
    CNFETElement,
    CurrentSource,
    Diode,
    Inductor,
    Resistor,
    VoltageSource,
    dc_sweep,
    transient,
)
from repro.circuit.elements import Element
from repro.circuit.logic import LogicFamily, build_ring_oscillator
from repro.circuit.mna import TwoPhaseAssembler, assemble
from repro.circuit.partition import PartitionedAssembler
from repro.circuit.waveforms import DC, Pulse
from repro.circuit.transient import initial_conditions_from_op
from repro.errors import AnalysisError
from repro.experiments.workloads import default_device_parameters
from repro.pwl.device import CNFET

from assembled_system import dense_system


def _mixed_circuit() -> Circuit:
    c = Circuit("mixed linear/nonlinear")
    c.add(VoltageSource("vdd", "vdd", "0", 0.6))
    c.add(VoltageSource("vin", "in", "0", 0.25))
    c.add(Resistor("r1", "vdd", "out", 2e5))
    c.add(Capacitor("cl", "out", "0", 1e-15))
    c.add(Diode("d1", "out", "0"))
    c.add(CNFETElement("q1", "out", "in", "0",
                       device=CNFET(default_device_parameters())))
    return c


class _Leak(Element):
    """A user-defined linear element (a conductance in parallel with a
    current source): no static group, so it takes the per-element
    fallback of the static phase."""

    def __init__(self, name, a, b, g, i):
        super().__init__(name, (a, b))
        self.g, self.i = g, i

    def stamp(self, ctx):
        ctx.add_conductance(*self.nodes, self.g)
        ctx.add_current(*self.nodes, self.i)


def _linear_circuit() -> Circuit:
    """Every built-in linear element twice, once with a grounded
    terminal and once floating, plus a user-defined linear element;
    the trapezoidal state is primed non-zero."""
    c = Circuit("every linear element")
    pulse = Pulse(v1=0.1, v2=0.7, delay=0.5e-12, rise=1e-12, fall=1e-12,
                  width=5e-12, period=20e-12)
    c.add(VoltageSource("vp", "a", "0", pulse))
    c.add(VoltageSource("vf", "b", "a", 0.2))
    c.add(Resistor("rg", "b", "0", 3e3))
    c.add(Resistor("rf", "b", "c", 7e3))
    c.add(Capacitor("cg", "0", "c", 2e-15))
    c.add(Capacitor("cf", "c", "d", 5e-15))
    c.add(Inductor("lg", "d", "0", 3e-9))
    c.add(Inductor("lf", "c", "e", 7e-9))
    c.add(CurrentSource("ig", "0", "e", 1e-6))
    c.add(CurrentSource("if", "e", "d", Pulse(v1=0.0, v2=2e-6,
                                             delay=0.0, rise=4e-12)))
    c.add(_Leak("xg", "e", "0", 2e-4, 3e-7))
    c.add(_Leak("xf", "d", "b", 5e-4, -1e-7))
    c.dimension()
    for el, state in zip(c.iter_elements(Capacitor), (1e-6, -3e-6)):
        el._i_prev = state
    for el, state in zip(c.iter_elements(Inductor), (0.05, -0.02)):
        el._v_prev = state
    return c


def _assembled(asm: TwoPhaseAssembler, x: np.ndarray):
    """Dense matrix and rhs of either backend's system around ``x``."""
    asm.iterate(x)
    return dense_system(asm)


def _partitioned_rhs(asm: PartitionedAssembler, row: int) -> float:
    """Assembled rhs entry of a global row (in the part that owns it)."""
    for part in asm._blocks + [asm._iface]:
        if part.loc[row] >= 0:
            return float(part.rhs[part.loc[row]])
    raise AssertionError(f"row {row} in no part")


class TestAssemblyEquivalence:
    @pytest.mark.parametrize("analysis,kwargs", [
        ("dc", {}),
        ("tran", {"time": 1e-12, "dt": 1e-12, "method": "be"}),
        ("tran", {"time": 1e-12, "dt": 1e-12, "method": "trap"}),
    ])
    def test_matches_one_phase(self, analysis, kwargs):
        """Both backends, a nonlinear mix and every linear element
        (static groups and the per-element fallback), at full and half
        source scale."""
        for build in (_mixed_circuit, _linear_circuit):
            c = build()
            n = c.dimension()
            rng = np.random.default_rng(7)
            x = 0.3 * rng.standard_normal(n)
            x_prev = 0.3 * rng.standard_normal(n) \
                if analysis == "tran" else None
            for backend in ("dense", "sparse"):
                asm = TwoPhaseAssembler(c, backend=backend)
                for scale in (1.0, 0.5):
                    ref = assemble(c, x, analysis=analysis, x_prev=x_prev,
                                   source_scale=scale, **kwargs)
                    asm.begin_step(analysis=analysis, x_prev=x_prev,
                                   source_scale=scale, **kwargs)
                    matrix, rhs = _assembled(asm, x)
                    np.testing.assert_allclose(matrix, ref.matrix,
                                               rtol=1e-12, atol=1e-30)
                    np.testing.assert_allclose(rhs, ref.rhs, rtol=1e-12,
                                               atol=1e-30)

    def test_every_builtin_linear_class_has_a_static_group(self):
        """A built-in linear element without a group would silently
        stamp one by one through the fallback."""
        c = _linear_circuit()
        classes = [getattr(elements_module, name)
                   for name in elements_module.__all__]
        linear = [cls for cls in classes
                  if isinstance(cls, type) and issubclass(cls, Element)
                  and cls is not Element and not cls.nonlinear]
        assert {cls.__name__ for cls in linear} == {
            "Resistor", "Capacitor", "Inductor", "VoltageSource",
            "CurrentSource"}
        for cls in linear:
            members = list(c.iter_elements(cls))
            assert cls.static_group([members], c.node_index,
                                    c.dimension()) is not None, cls
        assert _Leak.static_group([[c.element("xg")]], c.node_index,
                                  c.dimension()) is None

    @pytest.mark.parametrize("kind", ["dense", "sparse", "partitioned"])
    def test_waveform_swap_reaches_rhs(self, kind):
        """Sweeps replace a source's waveform object between steps of
        one reused assembler: the next step's rhs must carry the new
        value, in DC and in a transient step."""
        c = _linear_circuit()
        vf = c.element("vf")
        x = np.zeros(c.dimension())
        asm = PartitionedAssembler(c) if kind == "partitioned" \
            else TwoPhaseAssembler(c, backend=kind)
        for step in ({"analysis": "dc"},
                     {"analysis": "tran", "time": 2e-12, "dt": 1e-12,
                      "x_prev": x, "method": "trap"}):
            for level in (0.2, -0.45, 0.3):
                vf.waveform = DC(level)
                asm.begin_step(**step)
                if kind == "partitioned":
                    asm.iterate(x)
                    got = _partitioned_rhs(asm, vf.aux_index)
                else:
                    got = _assembled(asm, x)[1][vf.aux_index]
                assert got == level

    def test_iterate_is_repeatable(self):
        """Re-iterating at the same x must not accumulate stamps."""
        c = _mixed_circuit()
        x = np.zeros(c.dimension())
        asm = TwoPhaseAssembler(c)
        asm.begin_step()
        asm.iterate(x)
        m1, z1 = (a.copy() for a in dense_system(asm))
        asm.iterate(x)
        m2, z2 = dense_system(asm)
        np.testing.assert_array_equal(m2, m1)
        np.testing.assert_array_equal(z2, z1)

    def test_iterate_before_begin_rejected(self):
        c = _mixed_circuit()
        with pytest.raises(AnalysisError):
            TwoPhaseAssembler(c).iterate(np.zeros(c.dimension()))

    def test_source_scale_applies_to_static_phase(self):
        c = _mixed_circuit()
        asm = TwoPhaseAssembler(c)
        asm.begin_step(source_scale=0.5)
        half = _assembled(asm, np.zeros(c.dimension()))[1].copy()
        asm.begin_step(source_scale=1.0)
        full = _assembled(asm, np.zeros(c.dimension()))[1].copy()
        vdd = c.element("vdd")
        assert half[vdd.aux_index] == pytest.approx(
            0.5 * full[vdd.aux_index])


class TestEndToEndConsistency:
    def test_dc_sweep_reuses_buffers(self):
        """A sweep with the shared assembler equals fresh solves."""
        c = _mixed_circuit()
        values = np.linspace(0.0, 0.6, 7)
        ds = dc_sweep(c, "vin", values)
        from repro.circuit import operating_point
        from repro.circuit.waveforms import DC as DCWave

        vin = c.element("vin")
        original = vin.waveform
        try:
            for k, v in enumerate(values):
                vin.waveform = DCWave(float(v))
                op = operating_point(c)
                assert ds.voltage("out")[k] == pytest.approx(
                    op.voltage("out"), abs=1e-9)
        finally:
            vin.waveform = original

    def test_ring_oscillator_waveforms_stable(self):
        """The two-phase engine + analytic charge partials keep the
        ring-oscillator waveform (regression guard for the perf PR)."""
        family = LogicFamily.default(vdd=0.6)
        ring, _ = build_ring_oscillator(family, stages=3)
        x0 = initial_conditions_from_op(ring, {"n0": 0.0, "n1": 0.6})
        ds = transient(ring, tstop=6e-11, dt=2e-12, x0=x0, method="be")
        swing = ds.swing("v(n0)")
        assert swing > 0.2
        # Current traces exist and are finite (vectorized post-pass).
        for name in ds.names:
            assert np.all(np.isfinite(ds.trace(name)))
