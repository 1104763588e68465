"""Independent voltage and current sources."""

from __future__ import annotations

import itertools
from typing import List, Optional, Union

import numpy as np

from repro.circuit.elements.base import (
    _EMPTY,
    Element,
    StampContext,
    StepContext,
    StaticGroup,
    BRANCH_VALUES,
    branch_entries,
    no_entries,
)
from repro.circuit.waveforms import DC, Waveform


#: a fresh value whenever any source's waveform is assigned (drawn
#: from ``_swaps``, so no value is ever written twice); a group
#: re-reads its sources' waveforms only when it has moved since its
#: last read
_swaps = itertools.count(1)
_swap_serial = 0


class _Source(Element):
    """An independent source: its waveform, coerced from a plain
    number to a :class:`DC` level, and the waveform's value at a step
    context."""

    def __init__(self, name: str, a: str, b: str,
                 value: Union[float, Waveform] = 0.0) -> None:
        super().__init__(name, (a, b))
        self.waveform = value

    @property
    def waveform(self) -> Waveform:
        """The source's waveform; sweeps replace it between steps."""
        return self._waveform

    @waveform.setter
    def waveform(self, value: Union[float, Waveform]) -> None:
        global _swap_serial
        self._waveform = value if isinstance(value, Waveform) \
            else DC(float(value))
        _swap_serial = next(_swaps)

    def source_value(self, ctx: StampContext) -> float:
        """Waveform value at the context time (DC value in DC)."""
        if ctx.analysis == "tran" and ctx.time is not None:
            return self._waveform.value(ctx.time)
        return self._waveform.dc_value()


class _SourceGroup(StaticGroup):
    """Shared plumbing: every source's terminals and its value at the
    step context.

    The waveform objects are re-read from the elements whenever a
    waveform was assigned anywhere since the last call (sweeps replace
    them mid-run).  Plain :class:`DC` levels are kept while the objects
    read are the last read's; only the other waveforms are evaluated
    per step.  While every source is a kept level and the scale is
    unchanged, the same (read-only) array is returned, which lets a
    caller skip re-scattering it."""

    def __init__(self, lanes, node_index, n) -> None:
        super().__init__(lanes, node_index, n)
        self.ia, self.ib = self.terminals(node_index)
        #: the swap serial of the last read (``None``: never read)
        self._serial: Optional[int] = None
        #: the waveform objects of the last read (held, so that their
        #: ids stay theirs) and their ids
        self._waves: list = []
        self._ids: Optional[list] = None
        self._levels = _EMPTY
        #: positions of the waveforms that are not plain DC levels
        self._varying: List[int] = []
        #: the scaled levels of the last call and their scale
        self._scaled: Optional[tuple] = None

    def values(self, ctx: StepContext) -> np.ndarray:
        """Source values scaled by ``ctx.source_scale``, lane-major
        (the ``(B, E)`` table raveled)."""
        serial = _swap_serial  # read before the waveforms it covers
        if serial != self._serial:
            self._serial = serial
            waves = [el.waveform for el in self.elements]
            ids = list(map(id, waves))
            if ids != self._ids:
                self._waves, self._ids = waves, ids
                self._varying = [i for i, w in enumerate(waves)
                                 if type(w) is not DC]
                self._levels = np.array(
                    [w.level if type(w) is DC else 0.0 for w in waves],
                    dtype=float)
                self._scaled = None
        waves = self._waves
        if self._varying:
            values = self._levels.copy()
            if ctx.analysis == "tran" and ctx.time is not None:
                time = ctx.time
                values[self._varying] = [waves[i].value(time)
                                         for i in self._varying]
            else:
                values[self._varying] = [waves[i].dc_value()
                                         for i in self._varying]
            return values * ctx.source_scale
        if self._scaled is None or self._scaled[0] != ctx.source_scale:
            self._scaled = (ctx.source_scale,
                            self._levels * ctx.source_scale)
        return self._scaled[1]


class _VoltageSourceGroup(_SourceGroup):
    """Every voltage source's branch rows (fixed values) and its value
    on the branch row of the rhs."""

    def __init__(self, lanes, node_index, n) -> None:
        super().__init__(lanes, node_index, n)
        self.k = np.array([el.aux_index for el in self.grid[0]],
                          dtype=np.intp)

    def layout(self, tran):
        return branch_entries(self.ia, self.ib, self.k) + (self.k[None],)

    def matrix(self, ctx):
        return np.repeat(BRANCH_VALUES, len(self.elements))

    def rhs(self, ctx):
        return self.values(ctx)


class _CurrentSourceGroup(_SourceGroup):
    """Every current source's injection: rhs only, out of ``a`` into
    ``b``."""

    def layout(self, tran):
        none = no_entries(self.ia.size)
        return none, none, np.array((self.ia, self.ib))

    def matrix(self, ctx):
        return _EMPTY

    def rhs(self, ctx):
        i = self.values(ctx)
        return np.concatenate((-i, i))


class VoltageSource(_Source):
    """Independent voltage source ``V(a) - V(b) = value(t)`` [V].

    One auxiliary unknown: the branch current flowing a -> b through the
    source (so a positive current means the source *sinks* current at
    its + terminal, the SPICE convention).
    """

    static_group_type = _VoltageSourceGroup
    n_aux = 1

    def stamp(self, ctx: StampContext) -> None:
        """Stamp the branch constraint rows and the source value."""
        a, b = self.nodes
        ia, ib = ctx.idx(a), ctx.idx(b)
        k = self.aux_index
        ctx.add_entry(ia, k, 1.0)
        ctx.add_entry(ib, k, -1.0)
        ctx.add_entry(k, ia, 1.0)
        ctx.add_entry(k, ib, -1.0)
        ctx.add_rhs(k, self.source_value(ctx) * ctx.source_scale)


class CurrentSource(_Source):
    """Independent current source pushing ``value(t)`` [A] from a to b
    through the element (i.e. out of node ``a`` into node ``b``)."""

    static_group_type = _CurrentSourceGroup

    def stamp(self, ctx: StampContext) -> None:
        """Inject the source current from node a to node b."""
        a, b = self.nodes
        ctx.add_current(a, b, self.source_value(ctx) * ctx.source_scale)

