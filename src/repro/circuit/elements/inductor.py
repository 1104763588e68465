"""Linear inductor (auxiliary branch-current formulation)."""

from __future__ import annotations

import numpy as np

from repro.circuit.elements.base import (
    _EMPTY,
    BRANCH_VALUES,
    Element,
    StampContext,
    StepContext,
    StaticGroup,
    branch_entries,
    no_entries,
    transient_step,
)
from repro.errors import ParameterError


class _InductorGroup(StaticGroup):
    """Every inductor's branch rows and BE/trapezoidal companion, and
    its step commit (the same arithmetic per element as
    :meth:`Inductor.stamp` / :meth:`Inductor.accept_step`; the previous
    voltage is read from and written back to the elements)."""

    def __init__(self, lanes, node_index, n) -> None:
        super().__init__(lanes, node_index, n)
        self.inductance = self.table("inductance")
        self.ia, self.ib = self.terminals(node_index)
        self.k = np.array([el.aux_index for el in self.grid[0]],
                          dtype=np.intp)
        self._ia, self._ib, self._k = map(self.index,
                                          (self.ia, self.ib, self.k))

    def layout(self, tran):
        rows, cols = branch_entries(self.ia, self.ib, self.k)
        if not tran:
            return rows, cols, no_entries(self.k.size)
        return (np.vstack((rows, self.k)), np.vstack((cols, self.k)),
                self.k[None])

    def matrix(self, ctx):
        branch = np.repeat(BRANCH_VALUES, len(self.elements))
        if not transient_step(ctx):
            # DC: v_a - v_b = 0 (ideal short)
            return branch
        scale = 2.0 if ctx.method == "trap" else 1.0
        return np.concatenate((branch, -scale * (self.inductance / ctx.dt)))

    def rhs(self, ctx):
        if not transient_step(ctx):
            return _EMPTY
        l_over_dt = self.inductance / ctx.dt
        i_prev = self.extended(ctx.x_prev)[self._k]
        if ctx.method == "trap":
            v_prev = self.table("_v_prev")
            return -2.0 * l_over_dt * i_prev + v_prev * -1.0
        return -l_over_dt * i_prev

    def accept(self, ctx: StepContext) -> None:
        x = self.extended(ctx.x)
        for el, value in zip(*self.committed(ctx, x[self._ia] - x[self._ib])):
            el._v_prev = value


class Inductor(Element):
    """Two-terminal linear inductor with one auxiliary current unknown.

    DC: behaves as a 0 V source (short).  Transient (BE):
    ``v = L di/dt  ->  v_n - (L/dt)(i_n - i_prev) = 0``; trapezoidal
    keeps the previous voltage as extra state.
    """

    static_group_type = _InductorGroup
    n_aux = 1

    def __init__(self, name: str, a: str, b: str, inductance: float) -> None:
        super().__init__(name, (a, b))
        if inductance <= 0.0:
            raise ParameterError(
                f"{name}: inductance must be > 0, got {inductance!r}"
            )
        self.inductance = float(inductance)
        self._v_prev = 0.0

    def reset_state(self) -> None:
        self._v_prev = 0.0

    def stamp(self, ctx: StampContext) -> None:
        """Stamp the branch equation (DC short; transient
        companion voltage source behind the branch current)."""
        a, b = self.nodes
        ia, ib = ctx.idx(a), ctx.idx(b)
        k = self.aux_index
        # KCL coupling: aux current leaves a, enters b.
        ctx.add_entry(ia, k, 1.0)
        ctx.add_entry(ib, k, -1.0)
        # Branch equation row.
        ctx.add_entry(k, ia, 1.0)
        ctx.add_entry(k, ib, -1.0)
        if ctx.analysis != "tran" or ctx.dt is None:
            # DC: v_a - v_b = 0 (ideal short).
            return
        l_over_dt = self.inductance / ctx.dt
        i_prev = float(ctx.x_prev[k]) if ctx.x_prev is not None else 0.0
        if ctx.method == "trap":
            # v_n + v_prev = (2L/dt)(i_n - i_prev)
            ctx.add_entry(k, k, -2.0 * l_over_dt)
            ctx.add_rhs(k, -2.0 * l_over_dt * i_prev + self._v_prev * -1.0)
        else:
            ctx.add_entry(k, k, -l_over_dt)
            ctx.add_rhs(k, -l_over_dt * i_prev)

    def accept_step(self, ctx: StampContext) -> None:
        a, b = self.nodes
        self._v_prev = ctx.voltage(a) - ctx.voltage(b)
