"""Linear capacitor with BE/trapezoidal companion models."""

from __future__ import annotations

import numpy as np

from repro.circuit.elements.base import (
    _EMPTY,
    Element,
    LaneContext,
    LaneGroup,
    StampContext,
    StaticGroup,
    conductance_entries,
    no_entries,
    transient_step,
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
    def static_group(cls, elements, node_index, n):
        return _CapacitorGroup(elements, node_index, n) \
            if cls is Capacitor else None


_CONDUCTANCE_SIGNS = np.array([[1.0], [1.0], [-1.0], [-1.0]])
_CURRENT_SIGNS = np.array([[1.0], [-1.0]])


class _CapacitorGroup(StaticGroup):
    """Every capacitor's BE/trapezoidal companion, and its step commit,
    from one table of ``c``, ``ia`` and ``ib`` (the same arithmetic per
    element as :meth:`Capacitor.stamp` / :meth:`Capacitor.accept_step`;
    the branch-current state is read from and written back to the
    elements).  Nothing stamps in DC."""

    def __init__(self, elements, node_index, n) -> None:
        super().__init__(elements, node_index, n)
        self.c = np.array([el.capacitance for el in self.elements])
        self._c2 = 2.0 * self.c
        self.ia, self.ib = self.terminals(node_index)
        #: every capacitor runs from a node to ground (load capacitors):
        #: its voltage is one gather, no padded copy
        self._to_ground = bool((self.ia < n).all() and (self.ib == n).all())

    def layout(self, tran):
        if not tran:
            none = no_entries(self.c.size)
            return none, none, none
        return conductance_entries(self.ia, self.ib) \
            + (np.array((self.ia, self.ib)),)

    def _v(self, x) -> np.ndarray:
        """Branch voltages in ``x`` (zeros for ``None``)."""
        if x is None:
            return np.zeros(self.c.size)
        if self._to_ground:
            return x[self.ia]
        x = self.padded(x)
        return x[self.ia] - x[self.ib]

    def _i_prev(self) -> np.ndarray:
        return np.array([el._i_prev for el in self.elements])

    def _geq(self, ctx) -> np.ndarray:
        """Companion conductances (``2C/dt`` trap, ``C/dt`` BE)."""
        if ctx.method == "trap":
            return self._c2 / ctx.dt
        return self.c / ctx.dt

    def matrix(self, ctx):
        if not transient_step(ctx):
            return _EMPTY
        return (_CONDUCTANCE_SIGNS * self._geq(ctx)).ravel()

    def rhs(self, ctx):
        # the history current ieq from a to b: -ieq into a, ieq into b,
        # with ieq = -(geq v_prev + i_prev) (trap), -geq v_prev (BE)
        if not transient_step(ctx):
            return _EMPTY
        history = self._geq(ctx) * self._v(ctx.x_prev)
        if ctx.method == "trap":
            history += self._i_prev()
        return (_CURRENT_SIGNS * history).ravel()

    def accept(self, ctx: StampContext) -> None:
        if ctx.dt is None:
            return
        dv = self._v(ctx.x) - self._v(ctx.x_prev)
        if ctx.method == "trap":
            i_new = (self._c2 / ctx.dt) * dv - self._i_prev()
        else:
            i_new = self.c * dv / ctx.dt
        for el, value in zip(self.elements, i_new.tolist()):
            el._i_prev = value
