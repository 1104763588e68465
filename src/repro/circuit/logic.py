"""CNFET logic-circuit builders: flat gates and hierarchical blocks.

The paper motivates the fast model with "simulations of circuits that
might involve very large numbers of CNT devices" and names logic
structures as future work.  This module is a composable library with
two layers:

* **Gate primitives** (``add_*``): stamp one gate's transistors into
  any container exposing the ``add(element)`` protocol — a flat
  :class:`~repro.circuit.netlist.Circuit` *or* a
  :class:`~repro.circuit.netlist.SubCircuit` definition.  Inverter,
  2/3-input NAND, 2-input NOR, transmission gate.
* **Hierarchical blocks** (``*_subcircuit``): reusable
  :class:`~repro.circuit.netlist.SubCircuit` definitions built from
  the primitives and from each other — a full adder as nine NAND2
  instances, an N-bit ripple-carry adder as chained full adders
  (three hierarchy levels), N-stage inverter/buffer chains, a
  6T-style cross-coupled SRAM cell, and a transmission-gate mux tree.
  ``build_*`` helpers flatten a block into a ready-to-simulate
  :class:`Circuit` with supplies and drive sources.

The p-type device is the voltage-mirrored n-type model (see
:class:`repro.pwl.device.CNFET`), the standard circuit-level idealisation
for complementary CNFET logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.circuit.elements import Capacitor, CNFETElement, VoltageSource
from repro.circuit.netlist import Circuit, Instance, SubCircuit
from repro.circuit.waveforms import Waveform
from repro.errors import ParameterError
from repro.pwl.device import CNFET
from repro.reference.fettoy import FETToyModel, FETToyParameters


@dataclass
class LogicFamily:
    """A matched pair of n/p devices plus shared sizing defaults.

    The devices may be fast :class:`~repro.pwl.device.CNFET` models or
    :class:`~repro.reference.fettoy.FETToyModel` reference devices; the
    builders mark every pull-up site ``polarity="p"`` explicitly, since
    a reference device carries no polarity of its own.
    """

    n_device: Union[CNFET, FETToyModel]
    p_device: Union[CNFET, FETToyModel]
    vdd: float = 0.6
    length_nm: float = 30.0
    load_f: float = 1e-17

    @classmethod
    def default(cls, vdd: float = 0.6, model: str = "model2",
                params: Optional[FETToyParameters] = None) -> "LogicFamily":
        """Build the standard family on ``params`` (FETToy defaults
        when omitted).

        The one complementary-pair builder: the n device comes from
        the fit cache, and the p device is its mirror on the same fit,
        capacitances and solver, so a pair costs one device.
        """
        base = params if params is not None else FETToyParameters()
        n_device = CNFET(base, model=model, polarity="n")
        return cls(n_device=n_device,
                   p_device=n_device.with_polarity("p"), vdd=vdd)


def add_inverter(circuit: Union[Circuit, SubCircuit], family: LogicFamily, name: str,
                 vin: str, vout: str, vdd_node: str = "vdd") -> None:
    """Complementary inverter ``name`` from ``vin`` to ``vout``."""
    circuit.add(CNFETElement(
        f"{name}_p", vout, vin, vdd_node, device=family.p_device,
        length_nm=family.length_nm, polarity="p",
    ))
    circuit.add(CNFETElement(
        f"{name}_n", vout, vin, "0", device=family.n_device,
        length_nm=family.length_nm,
    ))


def add_nand2(circuit: Union[Circuit, SubCircuit], family: LogicFamily, name: str,
              in_a: str, in_b: str, vout: str,
              vdd_node: str = "vdd") -> None:
    """2-input NAND: parallel p pull-ups, stacked n pull-downs."""
    mid = f"{name}_mid"
    circuit.add(CNFETElement(
        f"{name}_pa", vout, in_a, vdd_node, device=family.p_device,
        length_nm=family.length_nm, polarity="p",
    ))
    circuit.add(CNFETElement(
        f"{name}_pb", vout, in_b, vdd_node, device=family.p_device,
        length_nm=family.length_nm, polarity="p",
    ))
    circuit.add(CNFETElement(
        f"{name}_na", vout, in_a, mid, device=family.n_device,
        length_nm=family.length_nm,
    ))
    circuit.add(CNFETElement(
        f"{name}_nb", mid, in_b, "0", device=family.n_device,
        length_nm=family.length_nm,
    ))


def add_nor2(circuit: Union[Circuit, SubCircuit], family: LogicFamily, name: str,
             in_a: str, in_b: str, vout: str,
             vdd_node: str = "vdd") -> None:
    """2-input NOR: stacked p pull-ups, parallel n pull-downs."""
    mid = f"{name}_mid"
    circuit.add(CNFETElement(
        f"{name}_pa", mid, in_a, vdd_node, device=family.p_device,
        length_nm=family.length_nm, polarity="p",
    ))
    circuit.add(CNFETElement(
        f"{name}_pb", vout, in_b, mid, device=family.p_device,
        length_nm=family.length_nm, polarity="p",
    ))
    circuit.add(CNFETElement(
        f"{name}_na", vout, in_a, "0", device=family.n_device,
        length_nm=family.length_nm,
    ))
    circuit.add(CNFETElement(
        f"{name}_nb", vout, in_b, "0", device=family.n_device,
        length_nm=family.length_nm,
    ))


def add_nand3(circuit: Union[Circuit, SubCircuit], family: LogicFamily, name: str,
              in_a: str, in_b: str, in_c: str, vout: str,
              vdd_node: str = "vdd") -> None:
    """3-input NAND: three parallel p pull-ups, three stacked n
    pull-downs."""
    mid1, mid2 = f"{name}_mid1", f"{name}_mid2"
    for tag, node in (("pa", in_a), ("pb", in_b), ("pc", in_c)):
        circuit.add(CNFETElement(
            f"{name}_{tag}", vout, node, vdd_node,
            device=family.p_device, length_nm=family.length_nm,
            polarity="p",
        ))
    circuit.add(CNFETElement(
        f"{name}_na", vout, in_a, mid1, device=family.n_device,
        length_nm=family.length_nm,
    ))
    circuit.add(CNFETElement(
        f"{name}_nb", mid1, in_b, mid2, device=family.n_device,
        length_nm=family.length_nm,
    ))
    circuit.add(CNFETElement(
        f"{name}_nc", mid2, in_c, "0", device=family.n_device,
        length_nm=family.length_nm,
    ))


def add_tgate_buffer(circuit: Union[Circuit, SubCircuit], family: LogicFamily, name: str,
                     vin: str, vout: str, enable: str,
                     enable_bar: str) -> None:
    """Transmission gate passing ``vin`` to ``vout`` while enabled.

    The n-device conducts for ``enable`` high, the mirrored p-device
    for ``enable_bar`` low; together they pass both logic levels
    (each device alone degrades one rail by its threshold).
    """
    circuit.add(CNFETElement(
        f"{name}_n", vout, enable, vin, device=family.n_device,
        length_nm=family.length_nm,
    ))
    circuit.add(CNFETElement(
        f"{name}_p", vout, enable_bar, vin, device=family.p_device,
        length_nm=family.length_nm, polarity="p",
    ))


def build_inverter(family: LogicFamily,
                   vin_wave: Waveform | float = 0.0
                   ) -> Tuple[Circuit, str, str]:
    """Single inverter with supply and driven input.

    Returns ``(circuit, input_node, output_node)``.
    """
    circuit = Circuit("cnfet inverter")
    circuit.add(VoltageSource("vdd_src", "vdd", "0", family.vdd))
    circuit.add(VoltageSource("vin_src", "in", "0", vin_wave))
    add_inverter(circuit, family, "inv", "in", "out")
    circuit.add(Capacitor("cload", "out", "0", family.load_f))
    return circuit, "in", "out"


def build_nand2(family: LogicFamily,
                wave_a: Waveform | float = 0.0,
                wave_b: Waveform | float = 0.0) -> Tuple[Circuit, str]:
    """2-input NAND with driven inputs; returns ``(circuit, out_node)``."""
    circuit = Circuit("cnfet nand2")
    circuit.add(VoltageSource("vdd_src", "vdd", "0", family.vdd))
    circuit.add(VoltageSource("va_src", "a", "0", wave_a))
    circuit.add(VoltageSource("vb_src", "b", "0", wave_b))
    add_nand2(circuit, family, "nand", "a", "b", "out")
    circuit.add(Capacitor("cload", "out", "0", family.load_f))
    return circuit, "out"


def build_nor2(family: LogicFamily,
               wave_a: Waveform | float = 0.0,
               wave_b: Waveform | float = 0.0) -> Tuple[Circuit, str]:
    """2-input NOR with driven inputs; returns ``(circuit, out_node)``."""
    circuit = Circuit("cnfet nor2")
    circuit.add(VoltageSource("vdd_src", "vdd", "0", family.vdd))
    circuit.add(VoltageSource("va_src", "a", "0", wave_a))
    circuit.add(VoltageSource("vb_src", "b", "0", wave_b))
    add_nor2(circuit, family, "nor", "a", "b", "out")
    circuit.add(Capacitor("cload", "out", "0", family.load_f))
    return circuit, "out"


def build_nand3(family: LogicFamily,
                wave_a: Waveform | float = 0.0,
                wave_b: Waveform | float = 0.0,
                wave_c: Waveform | float = 0.0) -> Tuple[Circuit, str]:
    """3-input NAND with driven inputs; returns ``(circuit, out_node)``."""
    circuit = Circuit("cnfet nand3")
    circuit.add(VoltageSource("vdd_src", "vdd", "0", family.vdd))
    circuit.add(VoltageSource("va_src", "a", "0", wave_a))
    circuit.add(VoltageSource("vb_src", "b", "0", wave_b))
    circuit.add(VoltageSource("vc_src", "c", "0", wave_c))
    add_nand3(circuit, family, "nand", "a", "b", "c", "out")
    circuit.add(Capacitor("cload", "out", "0", family.load_f))
    return circuit, "out"


def build_tgate_buffer(family: LogicFamily,
                       vin_wave: Waveform | float = 0.0
                       ) -> Tuple[Circuit, str]:
    """Enabled transmission-gate buffer driven by ``vin_wave``.

    Returns ``(circuit, out_node)``; the enables are tied active
    (``en = VDD``, ``enb = 0``).
    """
    circuit = Circuit("cnfet tgate buffer")
    circuit.add(VoltageSource("vdd_src", "vdd", "0", family.vdd))
    circuit.add(VoltageSource("ven_src", "en", "0", family.vdd))
    circuit.add(VoltageSource("vin_src", "in", "0", vin_wave))
    add_tgate_buffer(circuit, family, "tg", "in", "out", "en", "0")
    circuit.add(Capacitor("cload", "out", "0", family.load_f))
    return circuit, "out"


# ----------------------------------------------------------------------
# Hierarchical blocks (SubCircuit definitions)
# ----------------------------------------------------------------------

def inverter_subcircuit(family: LogicFamily,
                        name: str = "inv") -> SubCircuit:
    """Complementary inverter block; ports ``(a, y, vdd)``."""
    sub = SubCircuit(name, ("a", "y", "vdd"))
    add_inverter(sub, family, "m", "a", "y", "vdd")
    return sub


def nand2_subcircuit(family: LogicFamily,
                     name: str = "nand2") -> SubCircuit:
    """2-input NAND block; ports ``(a, b, y, vdd)``."""
    sub = SubCircuit(name, ("a", "b", "y", "vdd"))
    add_nand2(sub, family, "m", "a", "b", "y", "vdd")
    return sub


def full_adder_subcircuit(family: LogicFamily, name: str = "fa",
                          nand2: Optional[SubCircuit] = None
                          ) -> SubCircuit:
    """One-bit full adder from nine NAND2 instances.

    Ports ``(a, b, cin, sum, cout, vdd)``.  The classic nine-gate
    realisation: ``n1 = NAND(a, b)`` feeds both the XOR half
    (``h = a ^ b`` from three more NANDs) and the carry
    (``cout = NAND(n1, n4)`` with ``n4 = NAND(h, cin)``); the sum is
    the second XOR stage.  Pass a shared ``nand2`` definition to keep
    one prototype across many adders.
    """
    gate = nand2 if nand2 is not None else nand2_subcircuit(family)
    sub = SubCircuit(name, ("a", "b", "cin", "sum", "cout", "vdd"))
    wires = [
        ("Xn1", "a", "b", "n1"),
        ("Xn2", "a", "n1", "n2"),
        ("Xn3", "b", "n1", "n3"),
        ("Xn4", "n2", "n3", "h"),      # h = a xor b
        ("Xn5", "h", "cin", "n4"),
        ("Xn6", "h", "n4", "n5"),
        ("Xn7", "cin", "n4", "n6"),
        ("Xn8", "n5", "n6", "sum"),    # sum = h xor cin
        ("Xn9", "n1", "n4", "cout"),   # cout = a·b + h·cin
    ]
    for inst, in_a, in_b, out in wires:
        sub.add_instance(Instance(inst, gate, (in_a, in_b, out, "vdd")))
    return sub


def ripple_carry_adder_subcircuit(family: LogicFamily, bits: int,
                                  name: Optional[str] = None,
                                  full_adder: Optional[SubCircuit] = None
                                  ) -> SubCircuit:
    """N-bit ripple-carry adder from chained full-adder instances.

    Ports ``(a0..a{N-1}, b0..b{N-1}, cin, s0..s{N-1}, cout, vdd)``;
    internal carries ``c1..c{N-1}``.  Three hierarchy levels deep
    (adder -> full adder -> NAND2), ~``36 * N`` transistors.
    """
    if bits < 1:
        raise ParameterError(f"adder needs bits >= 1: {bits}")
    fa = full_adder if full_adder is not None \
        else full_adder_subcircuit(family)
    ports = tuple(
        [f"a{i}" for i in range(bits)]
        + [f"b{i}" for i in range(bits)]
        + ["cin"]
        + [f"s{i}" for i in range(bits)]
        + ["cout", "vdd"]
    )
    sub = SubCircuit(name or f"rca{bits}", ports)
    carry = "cin"
    for i in range(bits):
        carry_out = "cout" if i == bits - 1 else f"c{i + 1}"
        sub.add_instance(Instance(
            f"Xfa{i}", fa,
            (f"a{i}", f"b{i}", carry, f"s{i}", carry_out, "vdd"),
        ))
        carry = carry_out
    return sub


def inverter_chain_subcircuit(family: LogicFamily, stages: int,
                              name: Optional[str] = None,
                              inverter: Optional[SubCircuit] = None
                              ) -> SubCircuit:
    """N-stage inverter chain; ports ``(a, y, vdd)``.

    Even ``stages`` makes a (non-inverting) buffer chain, odd an
    inverting one; internal nodes ``n1..n{stages-1}``.
    """
    if stages < 1:
        raise ParameterError(f"chain needs stages >= 1: {stages}")
    inv = inverter if inverter is not None \
        else inverter_subcircuit(family)
    sub = SubCircuit(name or f"chain{stages}", ("a", "y", "vdd"))
    src = "a"
    for i in range(stages):
        dst = "y" if i == stages - 1 else f"n{i + 1}"
        sub.add_instance(Instance(f"Xinv{i}", inv, (src, dst, "vdd")))
        src = dst
    return sub


def sram_cell_subcircuit(family: LogicFamily,
                         name: str = "sram6t") -> SubCircuit:
    """6T-style cross-coupled cell; ports ``(bl, blb, wl, q, qb, vdd)``.

    Two cross-coupled inverter instances hold the state on ``q``/
    ``qb``; two n-type access transistors gate the bitlines onto the
    cell while the wordline is high.  The storage nodes are ports so
    test benches can observe (or force) the state directly.
    """
    inv = inverter_subcircuit(family)
    sub = SubCircuit(name, ("bl", "blb", "wl", "q", "qb", "vdd"))
    sub.add_instance(Instance("Xi1", inv, ("q", "qb", "vdd")))
    sub.add_instance(Instance("Xi2", inv, ("qb", "q", "vdd")))
    sub.add(CNFETElement("macc1", "bl", "wl", "q",
                         device=family.n_device,
                         length_nm=family.length_nm))
    sub.add(CNFETElement("macc2", "blb", "wl", "qb",
                         device=family.n_device,
                         length_nm=family.length_nm))
    return sub


def mux2_subcircuit(family: LogicFamily,
                    name: str = "mux2") -> SubCircuit:
    """Transmission-gate 2:1 mux; ports ``(d0, d1, s, y, vdd)``.

    An internal inverter derives the select complement; the ``s=0``
    gate passes ``d0``, the ``s=1`` gate passes ``d1``.
    """
    sub = SubCircuit(name, ("d0", "d1", "s", "y", "vdd"))
    add_inverter(sub, family, "minv", "s", "sb", "vdd")
    add_tgate_buffer(sub, family, "t0", "d0", "y", "sb", "s")
    add_tgate_buffer(sub, family, "t1", "d1", "y", "s", "sb")
    return sub


def mux_tree_subcircuit(family: LogicFamily, select_bits: int,
                        name: Optional[str] = None) -> SubCircuit:
    """``2^k : 1`` transmission-gate mux tree from 2:1 mux instances.

    Ports ``(d0..d{2^k-1}, s0..s{k-1}, y, vdd)``; select bit ``s0``
    steers the leaf level.  ``2^k - 1`` mux instances, two hierarchy
    levels.
    """
    if select_bits < 1:
        raise ParameterError(
            f"mux tree needs select_bits >= 1: {select_bits}")
    n_inputs = 1 << select_bits
    mux = mux2_subcircuit(family)
    ports = tuple(
        [f"d{i}" for i in range(n_inputs)]
        + [f"s{i}" for i in range(select_bits)]
        + ["y", "vdd"]
    )
    sub = SubCircuit(name or f"mux{n_inputs}", ports)
    level_nets = [f"d{i}" for i in range(n_inputs)]
    for level in range(select_bits):
        next_nets = []
        for k in range(len(level_nets) // 2):
            if level == select_bits - 1:
                out = "y"
            else:
                out = f"l{level}_{k}"
            sub.add_instance(Instance(
                f"Xm{level}_{k}", mux,
                (level_nets[2 * k], level_nets[2 * k + 1],
                 f"s{level}", out, "vdd"),
            ))
            next_nets.append(out)
        level_nets = next_nets
    return sub


# ----------------------------------------------------------------------
# Flat test benches over the hierarchical blocks
# ----------------------------------------------------------------------

def build_ripple_carry_adder(
    family: LogicFamily, bits: int,
    a_value: int = 0, b_value: int = 0,
    cin_wave: Union[Waveform, float] = 0.0,
    load_f: Optional[float] = None,
) -> Tuple[Circuit, Dict[str, object]]:
    """N-bit ripple-carry adder bench, flattened and ready to run.

    ``a_value``/``b_value`` drive the input buses as DC rail patterns
    (bit ``i`` of the integer sets ``a{i}``/``b{i}``); ``cin_wave``
    drives the carry input (a :class:`~repro.circuit.waveforms.Pulse`
    on ``cin`` with ``a = all ones, b = 0`` ripples a carry through
    every stage — the classic worst-case transition).  ``load_f``
    (default: the family's ``load_f``) caps each sum output and
    ``cout``; pass 0 to omit the loads.

    Returns ``(circuit, info)`` where ``info`` holds ``"sum_nodes"``
    (tuple, LSB first), ``"cout"`` and ``"bits"``.
    """
    if bits < 1:
        raise ParameterError(f"adder needs bits >= 1: {bits}")
    vdd = family.vdd
    circuit = Circuit(f"{bits}-bit CNFET ripple-carry adder")
    circuit.add(VoltageSource("vdd_src", "vdd", "0", vdd))
    for i in range(bits):
        circuit.add(VoltageSource(
            f"va{i}", f"a{i}", "0",
            vdd if (a_value >> i) & 1 else 0.0))
        circuit.add(VoltageSource(
            f"vb{i}", f"b{i}", "0",
            vdd if (b_value >> i) & 1 else 0.0))
    circuit.add(VoltageSource("vcin", "cin", "0", cin_wave))
    # Bench nets intentionally share the port names (a0.., cin, s0..,
    # cout, vdd), so the port list doubles as the connection list.
    rca = ripple_carry_adder_subcircuit(family, bits)
    rca.instantiate(circuit, "Xrca", rca.ports)
    cap = family.load_f if load_f is None else load_f
    if cap:
        for i in range(bits):
            circuit.add(Capacitor(f"cs{i}", f"s{i}", "0", cap))
        circuit.add(Capacitor("ccout", "cout", "0", cap))
    info = {
        "bits": bits,
        "sum_nodes": tuple(f"s{i}" for i in range(bits)),
        "cout": "cout",
    }
    return circuit, info


def build_inverter_chain(
    family: LogicFamily, stages: int,
    vin_wave: Union[Waveform, float] = 0.0,
    load_f: Optional[float] = None,
) -> Tuple[Circuit, str]:
    """N-stage inverter-chain bench; returns ``(circuit, out_node)``.

    The chain block is flattened as instance ``Xchain`` with its
    output on node ``out``; ``load_f`` (default: the family default)
    caps the output, 0 omits it.
    """
    circuit = Circuit(f"{stages}-stage CNFET inverter chain")
    circuit.add(VoltageSource("vdd_src", "vdd", "0", family.vdd))
    circuit.add(VoltageSource("vin_src", "in", "0", vin_wave))
    chain = inverter_chain_subcircuit(family, stages)
    chain.instantiate(circuit, "Xchain", ("in", "out", "vdd"))
    cap = family.load_f if load_f is None else load_f
    if cap:
        circuit.add(Capacitor("cload", "out", "0", cap))
    return circuit, "out"


def build_ring_oscillator(family: LogicFamily,
                          stages: int = 3) -> Tuple[Circuit, Tuple[str, ...]]:
    """Ring of an odd number of inverters with per-stage load caps.

    Returns ``(circuit, stage_output_nodes)``.
    """
    if stages < 3 or stages % 2 == 0:
        raise ParameterError(
            f"a ring oscillator needs an odd stage count >= 3: {stages}"
        )
    circuit = Circuit(f"cnfet ring oscillator ({stages} stages)")
    circuit.add(VoltageSource("vdd_src", "vdd", "0", family.vdd))
    nodes = tuple(f"n{i}" for i in range(stages))
    for i in range(stages):
        vin = nodes[i - 1] if i > 0 else nodes[-1]
        add_inverter(circuit, family, f"inv{i}", vin, nodes[i])
        circuit.add(Capacitor(f"cl{i}", nodes[i], "0", family.load_f))
    return circuit, nodes
