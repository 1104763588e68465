"""CNFET circuit element: DC stamps, backends, polarity, transient."""

import numpy as np
import pytest

from repro.circuit import Circuit, Resistor, VoltageSource, operating_point
from repro.circuit.elements import CNFETElement
from repro.circuit.transient import transient
from repro.circuit.waveforms import Pulse
from repro.errors import ParameterError
from repro.pwl.device import CNFET
from repro.reference.fettoy import FETToyModel, FETToyParameters


def bias_circuit(device, vg=0.5, vd=0.4) -> Circuit:
    c = Circuit("bias")
    c.add(VoltageSource("vg", "g", "0", vg))
    c.add(VoltageSource("vd", "d", "0", vd))
    c.add(CNFETElement("q1", "d", "g", "0", device=device))
    return c


class TestDCStamping:
    def test_element_current_matches_device(self, device_m2):
        op = operating_point(bias_circuit(device_m2))
        assert op.element_current("q1") == pytest.approx(
            device_m2.ids(0.5, 0.4), rel=1e-6
        )

    def test_drain_source_kcl(self, device_m2):
        """Drain supply sinks exactly what the source node returns."""
        op = operating_point(bias_circuit(device_m2))
        i_vd = op.source_current("vd")
        assert -i_vd == pytest.approx(device_m2.ids(0.5, 0.4), rel=1e-6)
        # Gate is purely capacitive: zero DC gate current.
        assert op.source_current("vg") == pytest.approx(0.0, abs=1e-12)

    def test_reference_backend_agrees(self, ref300, device_m2):
        op_ref = operating_point(bias_circuit(ref300))
        op_pwl = operating_point(bias_circuit(device_m2))
        assert op_ref.element_current("q1") == pytest.approx(
            op_pwl.element_current("q1"), rel=0.08
        )

    def test_unsupported_backend_rejected(self):
        with pytest.raises(ParameterError):
            CNFETElement("q1", "d", "g", "s", device=object())

    def test_length_validation(self, device_m2):
        with pytest.raises(ParameterError):
            CNFETElement("q1", "d", "g", "s", device=device_m2,
                         length_nm=0.0)

    def test_polarity_validation(self, device_m2):
        with pytest.raises(ParameterError):
            CNFETElement("q1", "d", "g", "s", device=device_m2,
                         polarity="z")


class TestSelfBiasedLoad:
    def test_resistor_load_operating_point(self, device_m2):
        """CNFET with resistive load: output settles between rails and
        KCL holds through the load."""
        c = Circuit("load")
        c.add(VoltageSource("vdd", "vdd", "0", 0.6))
        c.add(VoltageSource("vg", "g", "0", 0.5))
        c.add(Resistor("rl", "vdd", "out", 1e5))
        c.add(CNFETElement("q1", "out", "g", "0", device=device_m2))
        op = operating_point(c)
        v_out = op.voltage("out")
        assert 0.0 < v_out < 0.6
        i_load = (0.6 - v_out) / 1e5
        assert op.element_current("q1") == pytest.approx(i_load, rel=1e-4)


class TestPolarity:
    def test_p_device_pulls_up(self, device_p):
        c = Circuit("pullup")
        c.add(VoltageSource("vdd", "vdd", "0", 0.6))
        c.add(VoltageSource("vg", "g", "0", 0.0))  # gate low -> p on
        c.add(Resistor("rl", "out", "0", 1e5))
        c.add(CNFETElement("q1", "out", "g", "vdd", device=device_p))
        op = operating_point(c)
        assert op.voltage("out") > 0.4

    def test_p_device_off_when_gate_high(self, device_p):
        c = Circuit("pullup-off")
        c.add(VoltageSource("vdd", "vdd", "0", 0.6))
        c.add(VoltageSource("vg", "g", "0", 0.6))
        c.add(Resistor("rl", "out", "0", 1e5))
        c.add(CNFETElement("q1", "out", "g", "vdd", device=device_p))
        op = operating_point(c)
        assert op.voltage("out") < 0.25


class TestTransient:
    def test_gate_step_charges_output(self, device_m2):
        """Inverter-like stage: output falls after the input steps up."""
        from repro.circuit import Capacitor

        c = Circuit("step")
        c.add(VoltageSource("vdd", "vdd", "0", 0.6))
        c.add(VoltageSource("vin", "g", "0",
                            Pulse(0.0, 0.6, delay=5e-12, rise=1e-12,
                                  width=1e-9, period=2e-9)))
        c.add(Resistor("rl", "vdd", "out", 2e5))
        c.add(CNFETElement("q1", "out", "g", "0", device=device_m2))
        c.add(Capacitor("cl", "out", "0", 1e-17))
        ds = transient(c, tstop=1e-10, dt=5e-13)
        v0 = ds.voltage("out")[0]
        v_end = ds.voltage("out")[-1]
        assert v0 > 0.5          # input low, device off, output high
        assert v_end < 0.15      # input high, device on, output pulled low

    def test_charges_sum_to_zero(self, device_m2):
        element = CNFETElement("q1", "d", "g", "s", device=device_m2)
        qg, qd, qs = element.backend.charges(0.5, 0.4, element.length_m)
        assert qg + qd + qs == pytest.approx(0.0, abs=1e-25)

    def test_current_traces_match_per_element_evaluation(
            self, device_m2, device_p, ref300, monkeypatch):
        """``record_currents=True`` traces every CNFET in one vectorized
        pass per device model (split into passes of a few points here);
        each trace equals the element's scalar evaluation within 1e-12
        of the trace's scale: an n- and a p-type device on the rails, a
        series device with no grounded terminal, a second model and an
        n- and a p-type reference-backend device."""
        from repro.circuit import Capacitor
        from repro.pwl import selfconsistent

        monkeypatch.setattr(selfconsistent, "_SOLVE_CHUNK", 5)

        model1 = CNFET(FETToyParameters(), model="model1")
        c = Circuit("traces")
        c.add(VoltageSource("vdd", "vdd", "0", 0.6))
        c.add(VoltageSource("vin", "g", "0",
                            Pulse(0.0, 0.6, delay=2e-12, rise=2e-12,
                                  width=1e-9, period=2e-9)))
        c.add(CNFETElement("qp", "out", "g", "vdd", device=device_p))
        c.add(CNFETElement("qn", "out", "g", "mid", device=device_m2))
        c.add(CNFETElement("qs", "mid", "g", "0", device=model1))
        c.add(CNFETElement("qr", "out", "g", "0", device=ref300))
        c.add(CNFETElement("qrp", "out", "g", "vdd", device=ref300,
                           polarity="p"))
        c.add(Capacitor("cl", "out", "0", 1e-17))
        ds = transient(c, tstop=1e-11, dt=1e-12, record_currents=True)
        rows = np.stack([ds.voltage(n) for n in ("vdd", "g", "out",
                                                 "mid")])
        volts = dict(zip(("vdd", "g", "out", "mid"), rows))
        volts["0"] = np.zeros(rows.shape[1])
        for el in c.elements:
            if not isinstance(el, CNFETElement):
                continue
            d, g, s = (volts[n] for n in el.nodes)
            sign = 1.0 if el.polarity == "n" else -1.0
            ref = sign * np.array([
                el.backend.evaluate(vgs, vds)[0]
                for vgs, vds in zip(sign * (g - s), sign * (d - s))])
            got = ds.current(el.name)
            assert np.max(np.abs(got - ref)) \
                <= 1e-12 * np.max(np.abs(ref)), el.name

