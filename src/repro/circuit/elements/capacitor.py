"""Linear capacitor with BE/trapezoidal companion models."""

from __future__ import annotations

import numpy as np

from repro.circuit.elements.base import (
    GROUND_NAMES,
    Element,
    LaneContext,
    LaneGroup,
    StampContext,
)
from repro.errors import ParameterError


class _CapacitorLaneGroup(LaneGroup):
    """Vectorized BE/trap companion across lanes.

    The per-lane trapezoidal branch-current state lives in the group
    (one array), not in the element objects, so a scalar re-run of a
    fallback lane starts from its own clean element state.
    """

    def __init__(self, elements) -> None:
        super().__init__(elements)
        self.c = np.array([el.capacitance for el in elements])
        self.i_prev = np.zeros(len(elements))

    def reset(self) -> None:
        self.i_prev[:] = 0.0

    def _v(self, ctx: LaneContext, x) -> np.ndarray:
        a, b = self.elements[0].nodes
        return ctx.voltages(a, x) - ctx.voltages(b, x)

    def stamp(self, ctx: LaneContext) -> None:
        if ctx.analysis != "tran" or ctx.dt is None:
            return
        a, b = self.elements[0].nodes
        ia, ib = ctx.idx(a), ctx.idx(b)
        lanes = ctx.lanes
        c = self.c[lanes]
        v_prev = self._v(ctx, ctx.x_prev)
        if ctx.method == "trap":
            geq = 2.0 * c / ctx.dt
            ieq = -(geq * v_prev + self.i_prev[lanes])
        else:  # backward Euler
            geq = c / ctx.dt
            ieq = -geq * v_prev
        matrix = ctx.matrix
        matrix[lanes, ia, ia] += geq
        matrix[lanes, ib, ib] += geq
        matrix[lanes, ia, ib] -= geq
        matrix[lanes, ib, ia] -= geq
        ctx.rhs[lanes, ia] -= ieq
        ctx.rhs[lanes, ib] += ieq

    def accept(self, ctx: LaneContext) -> None:
        if ctx.dt is None:
            return
        lanes = ctx.lanes
        c = self.c[lanes]
        dv = self._v(ctx, ctx.x) - self._v(ctx, ctx.x_prev)
        if ctx.method == "trap":
            self.i_prev[lanes] = (2.0 * c / ctx.dt) * dv \
                - self.i_prev[lanes]
        else:
            self.i_prev[lanes] = c * dv / ctx.dt


class Capacitor(Element):
    """Two-terminal linear capacitor.

    DC: open circuit (no stamp).  Transient: companion conductance
    ``geq = C/dt`` (backward Euler) or ``2C/dt`` (trapezoidal, which
    also carries the previous branch current as state).
    """

    def __init__(self, name: str, a: str, b: str, capacitance: float,
                 ic: float | None = None) -> None:
        super().__init__(name, (a, b))
        if capacitance <= 0.0:
            raise ParameterError(
                f"{name}: capacitance must be > 0, got {capacitance!r}"
            )
        self.capacitance = float(capacitance)
        #: optional initial voltage for transient start
        self.initial_voltage = ic
        self._i_prev = 0.0

    def reset_state(self) -> None:
        self._i_prev = 0.0

    def stamp(self, ctx: StampContext) -> None:
        """Stamp the BE/trapezoidal companion conductance and
        history current (no DC stamp: a capacitor is open)."""
        if ctx.analysis != "tran" or ctx.dt is None:
            return
        a, b = self.nodes
        c = self.capacitance
        v_prev = ctx.previous_voltage(a) - ctx.previous_voltage(b)
        if ctx.method == "trap":
            geq = 2.0 * c / ctx.dt
            ieq = -(geq * v_prev + self._i_prev)
        else:  # backward Euler
            geq = c / ctx.dt
            ieq = -geq * v_prev
        ctx.add_conductance(a, b, geq)
        # Equivalent history current source from a to b.
        ctx.add_current(a, b, ieq)

    def accept_step(self, ctx: StampContext) -> None:
        if ctx.dt is None:
            return
        a, b = self.nodes
        v_now = ctx.voltage(a) - ctx.voltage(b)
        v_prev = ctx.previous_voltage(a) - ctx.previous_voltage(b)
        if ctx.method == "trap":
            geq = 2.0 * self.capacitance / ctx.dt
            self._i_prev = geq * (v_now - v_prev) - self._i_prev
        else:
            self._i_prev = self.capacitance * (v_now - v_prev) / ctx.dt

    @classmethod
    def lane_group(cls, elements):
        return _CapacitorLaneGroup(elements)

    @classmethod
    def accept_group(cls, elements, node_index):
        return _CapacitorAcceptGroup(elements, node_index)


class _CapacitorAcceptGroup:
    """:meth:`Capacitor.accept_step` of many capacitors as one vector
    update: the same arithmetic per element, the branch-current state
    read from and written back to the elements."""

    def __init__(self, elements, node_index) -> None:
        self.elements = list(elements)
        self.c = np.array([el.capacitance for el in self.elements])
        dim = len(node_index)
        # terminal positions in an iterate padded with one ground zero
        self.ia, self.ib = (np.array([
            dim if el.nodes[t] in GROUND_NAMES else node_index[el.nodes[t]]
            for el in self.elements], dtype=np.intp) for t in (0, 1))

    def __call__(self, ctx: StampContext) -> None:
        if ctx.dt is None:
            return
        dim = len(ctx.node_index)
        x = np.zeros(dim + 1)
        x[:dim] = ctx.x[:dim]
        v_now = x[self.ia] - x[self.ib]
        if ctx.x_prev is not None:
            x[:dim] = ctx.x_prev[:dim]
        else:
            x[:dim] = 0.0
        v_prev = x[self.ia] - x[self.ib]
        if ctx.method == "trap":
            i_prev = np.array([el._i_prev for el in self.elements])
            i_new = (2.0 * self.c / ctx.dt) * (v_now - v_prev) - i_prev
        else:
            i_new = self.c * (v_now - v_prev) / ctx.dt
        for el, value in zip(self.elements, i_new.tolist()):
            el._i_prev = value
