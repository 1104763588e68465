"""Linear capacitor with BE/trapezoidal companion models."""

from __future__ import annotations

import numpy as np

from repro.circuit.elements.base import (
    _EMPTY,
    Element,
    StampContext,
    StepContext,
    StaticGroup,
    conductance_entries,
    no_entries,
    transient_step,
)
from repro.errors import ParameterError


_CONDUCTANCE_SIGNS = np.array([[1.0], [1.0], [-1.0], [-1.0]])
_CURRENT_SIGNS = np.array([[1.0], [-1.0]])


class _CapacitorGroup(StaticGroup):
    """Every capacitor's BE/trapezoidal companion, and its step commit,
    from one table of ``c``, ``ia`` and ``ib`` (the same arithmetic per
    element as :meth:`Capacitor.stamp` / :meth:`Capacitor.accept_step`;
    the branch-current state is read from and written back to the
    elements).  Nothing stamps in DC."""

    def __init__(self, lanes, node_index, n) -> None:
        super().__init__(lanes, node_index, n)
        self.c = self.table("capacitance")
        self._c2 = 2.0 * self.c
        self.ia, self.ib = self.terminals(node_index)
        self._ia, self._ib = self.index(self.ia), self.index(self.ib)
        #: every capacitor runs from a node to ground (load capacitors):
        #: its voltage is one gather, no extended copy
        self._to_ground = bool((self.ia < n).all() and (self.ib == n).all())

    def layout(self, tran):
        if not tran:
            none = no_entries(self.ia.size)
            return none, none, none
        return conductance_entries(self.ia, self.ib) \
            + (np.array((self.ia, self.ib)),)

    def _v(self, x) -> np.ndarray:
        """Branch voltages in ``x`` (zeros for ``None``)."""
        if self._to_ground and x is not None:
            return x.ravel()[self._ia]
        x = self.extended(x)
        return x[self._ia] - x[self._ib]

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

    def accept(self, ctx: StepContext) -> None:
        if ctx.dt is None:
            return
        dv = self._v(ctx.x) - self._v(ctx.x_prev)
        if ctx.method == "trap":
            i_new = (self._c2 / ctx.dt) * dv - self._i_prev()
        else:
            i_new = self.c * dv / ctx.dt
        for el, value in zip(*self.committed(ctx, i_new)):
            el._i_prev = value


class Capacitor(Element):
    """Two-terminal linear capacitor.

    DC: open circuit (no stamp).  Transient: companion conductance
    ``geq = C/dt`` (backward Euler) or ``2C/dt`` (trapezoidal, which
    also carries the previous branch current as state).
    """

    static_group_type = _CapacitorGroup

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
