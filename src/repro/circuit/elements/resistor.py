"""Linear resistor."""

from __future__ import annotations

import numpy as np

from repro.circuit.elements.base import (
    _EMPTY,
    Element,
    StampContext,
    StaticGroup,
    conductance_entries,
    no_entries,
)
from repro.errors import ParameterError


class _ResistorGroup(StaticGroup):
    """Conductance four-patterns of every resistor: fixed values, no
    rhs, the same in DC and transient."""

    def __init__(self, lanes, node_index, n) -> None:
        super().__init__(lanes, node_index, n)
        self.ia, self.ib = self.terminals(node_index)
        g = self.table("conductance")
        self._values = np.concatenate((g, g, -g, -g))

    def layout(self, tran):
        return conductance_entries(self.ia, self.ib) \
            + (no_entries(self.ia.size),)

    def matrix(self, ctx):
        return self._values

    def rhs(self, ctx):
        return _EMPTY


class Resistor(Element):
    """Two-terminal linear resistor.

    Parameters
    ----------
    name, a, b:
        Element name and terminal nodes.
    resistance:
        Ohms; must be positive (use a voltage source for a short).
    """

    static_group_type = _ResistorGroup

    def __init__(self, name: str, a: str, b: str, resistance: float) -> None:
        super().__init__(name, (a, b))
        if resistance <= 0.0 or not _finite(resistance):
            raise ParameterError(
                f"{name}: resistance must be finite and > 0, "
                f"got {resistance!r}"
            )
        self.resistance = float(resistance)

    @property
    def conductance(self) -> float:
        """Conductance ``1/R`` [S]."""
        return 1.0 / self.resistance

    def stamp(self, ctx: StampContext) -> None:
        """Stamp the conductance four-pattern."""
        a, b = self.nodes
        ctx.add_conductance(a, b, self.conductance)


    def current(self, va: float, vb: float) -> float:
        """Branch current a -> b for reporting."""
        return (va - vb) * self.conductance


def _finite(x: float) -> bool:
    return x == x and abs(x) != float("inf")
