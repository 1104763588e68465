"""Element interface and the stamping context.

The engine solves ``A x = z`` where ``x`` stacks node voltages (ground
eliminated) and auxiliary branch currents (voltage sources, inductors).
Elements contribute via :meth:`Element.stamp`, receiving a
:class:`StampContext` that hides index bookkeeping and ground handling.

Sign conventions
----------------
* ``add_conductance(a, b, g)`` stamps a conductance *between* nodes
  ``a`` and ``b`` (the four-entry pattern).
* ``add_current(a, b, i)`` injects a current of value ``i`` flowing
  *from node a to node b through the element* (it leaves ``a``, enters
  ``b``).
* Nonlinear elements stamp their own Newton companion:
  ``add_transconductance`` for cross-terms plus ``add_current`` with the
  linearisation residual.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NetlistError

GROUND_NAMES = ("0", "gnd", "GND")


class StampContext:
    """Assembly context handed to every element's ``stamp``.

    Attributes
    ----------
    analysis:
        ``"dc"`` or ``"tran"``.
    time, dt:
        Current time and step (transient only; ``None`` in DC).
    x:
        Current Newton iterate (full solution vector) — elements read
        their controlling voltages from it.
    x_prev:
        Converged solution of the previous time step (transient only).
    method:
        ``"be"`` (backward Euler) or ``"trap"`` (trapezoidal).
    gmin:
        Shunt conductance added by nonlinear elements for robustness
        (swept during gmin stepping).
    """

    def __init__(
        self,
        matrix: np.ndarray,
        rhs: np.ndarray,
        node_index: Dict[str, int],
        x: np.ndarray,
        analysis: str = "dc",
        time: Optional[float] = None,
        dt: Optional[float] = None,
        x_prev: Optional[np.ndarray] = None,
        method: str = "be",
        gmin: float = 1e-12,
        source_scale: float = 1.0,
    ) -> None:
        self.matrix = matrix
        self.rhs = rhs
        self.node_index = node_index
        self.x = x
        self.analysis = analysis
        self.time = time
        self.dt = dt
        self.x_prev = x_prev
        self.method = method
        self.gmin = gmin
        self.source_scale = source_scale
        #: Jacobian-reuse tolerance [V] of the current Newton iteration
        #: (see :attr:`NewtonOptions.jacobian_reuse_tol`); elements may
        #: restamp a frozen linearisation when their controlling
        #: voltages moved less than this.  0 disables reuse.
        self.reuse_tol = 0.0

    # -- index helpers --------------------------------------------------

    def idx(self, node: str) -> int:
        """Matrix row of a node; -1 for ground."""
        if node in GROUND_NAMES:
            return -1
        try:
            return self.node_index[node]
        except KeyError:
            raise NetlistError(f"unknown node {node!r}") from None

    def voltage(self, node: str) -> float:
        """Node voltage in the current Newton iterate."""
        i = self.idx(node)
        return 0.0 if i < 0 else float(self.x[i])

    def previous_voltage(self, node: str) -> float:
        """Node voltage at the previous accepted time point."""
        if self.x_prev is None:
            return 0.0
        i = self.idx(node)
        return 0.0 if i < 0 else float(self.x_prev[i])

    # -- stamping primitives --------------------------------------------

    def add_entry(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self.matrix[row, col] += value

    def add_rhs(self, row: int, value: float) -> None:
        if row >= 0:
            self.rhs[row] += value

    def add_conductance(self, a: str, b: str, g: float) -> None:
        ia, ib = self.idx(a), self.idx(b)
        self.add_entry(ia, ia, g)
        self.add_entry(ib, ib, g)
        self.add_entry(ia, ib, -g)
        self.add_entry(ib, ia, -g)

    def add_transconductance(self, out_a: str, out_b: str,
                             in_a: str, in_b: str, gm: float) -> None:
        """Current ``gm * (V(in_a) - V(in_b))`` flowing out_a -> out_b."""
        ia, ib = self.idx(out_a), self.idx(out_b)
        ja, jb = self.idx(in_a), self.idx(in_b)
        self.add_entry(ia, ja, gm)
        self.add_entry(ia, jb, -gm)
        self.add_entry(ib, ja, -gm)
        self.add_entry(ib, jb, gm)

    def add_current(self, a: str, b: str, i: float) -> None:
        """Current ``i`` flowing from ``a`` to ``b`` through the element."""
        ia, ib = self.idx(a), self.idx(b)
        self.add_rhs(ia, -i)
        self.add_rhs(ib, i)


class TripletStampContext(StampContext):
    """Stamping context that records COO triplets (sparse assembly).

    Elements stamp through the same ``add_entry`` / ``add_rhs``
    primitives; matrix entries are appended to growing flat-index /
    value arrays instead of written into a dense buffer (the rhs stays
    a dense vector — it is O(n)).  The sparse backend of
    :class:`repro.circuit.mna.TwoPhaseAssembler` turns the recorded
    triplets into a sparse system once per run and re-scatters only the
    values on subsequent steps/iterations.
    """

    def __init__(self, dim: int, node_index: Dict[str, int],
                 **kwargs) -> None:
        super().__init__(
            matrix=np.zeros((0, 0)), rhs=np.zeros(dim),
            node_index=node_index, x=np.zeros(dim), **kwargs,
        )
        self.dim = dim
        self._cap = 256
        #: flattened matrix positions ``row * dim + col``
        self.m_idx = np.empty(self._cap, dtype=np.intp)
        #: matrix entry values, parallel to :attr:`m_idx`
        self.m_val = np.empty(self._cap)
        #: number of recorded triplets
        self.count = 0

    def clear(self) -> None:
        """Forget the recorded triplets and zero the rhs (new stamp
        pass starting)."""
        self.count = 0
        self.rhs[:] = 0.0

    def _grow(self, need: int) -> None:
        while self._cap < need:
            self._cap *= 2
        self.m_idx = np.resize(self.m_idx, self._cap)
        self.m_val = np.resize(self.m_val, self._cap)

    def triplets(self) -> Tuple[np.ndarray, np.ndarray]:
        """Views of the recorded ``(flat_index, value)`` triplets."""
        return self.m_idx[:self.count], self.m_val[:self.count]

    def add_entry(self, row: int, col: int, value: float) -> None:
        """Record one matrix triplet (ground rows/columns skipped)."""
        if row >= 0 and col >= 0:
            count = self.count
            if count == self._cap:
                self._grow(count + 1)
            self.m_idx[count] = row * self.dim + col
            self.m_val[count] = value
            self.count = count + 1


class LaneContext:
    """Stacked assembly context of the lane-batched engine.

    ``B`` independent instances (*lanes*) of one circuit topology are
    assembled into a ``(B, n + 1, n + 1)`` matrix stack and a
    ``(B, n + 1)`` rhs stack, where ``n`` is the scalar system
    dimension; row/column ``n`` is a *ground pad* that absorbs stamps
    whose node is ground, so vectorized scatter-adds never need per-
    entry sign checks (the pad is sliced off before the stacked solve).

    ``x``/``x_prev`` are ``(B, n)`` per-lane iterate / previous-step
    stacks; ``lanes`` holds the indices of the *active* lanes (Newton
    freezes converged lanes, the stepper retires finished ones).  The
    remaining fields mirror :class:`StampContext`.
    """

    def __init__(self, matrix: np.ndarray, rhs: np.ndarray,
                 node_index: Dict[str, int], x: np.ndarray,
                 lanes: np.ndarray, analysis: str = "dc",
                 time: Optional[float] = None, dt: Optional[float] = None,
                 x_prev: Optional[np.ndarray] = None, method: str = "be",
                 gmin: float = 1e-12, source_scale: float = 1.0) -> None:
        self.matrix = matrix
        self.rhs = rhs
        self.node_index = node_index
        self.x = x
        self.lanes = lanes
        self.analysis = analysis
        self.time = time
        self.dt = dt
        self.x_prev = x_prev
        self.method = method
        self.gmin = gmin
        self.source_scale = source_scale

    @property
    def n_lanes(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        """Scalar system dimension (the stacks carry one pad row more)."""
        return self.matrix.shape[1] - 1

    def idx(self, node: str) -> int:
        """Matrix row of a node; the ground pad row for ground."""
        if node in GROUND_NAMES:
            return self.dim
        try:
            return self.node_index[node]
        except KeyError:
            raise NetlistError(f"unknown node {node!r}") from None

    def voltages(self, node: str, x: Optional[np.ndarray] = None
                 ) -> np.ndarray:
        """Per-active-lane node voltages from ``x`` (default: the
        current iterate stack); zeros for ground."""
        source = self.x if x is None else x
        i = self.idx(node)
        if i >= self.dim:
            return np.zeros(len(self.lanes))
        return source[self.lanes, i]

    def scalar_context(self, lane: int) -> "StampContext":
        """Scalar :class:`StampContext` viewing one lane's system
        (the generic per-lane fallback of :meth:`Element.lane_group`)."""
        dim = self.dim
        return StampContext(
            matrix=self.matrix[lane, :dim, :dim],
            rhs=self.rhs[lane, :dim],
            node_index=self.node_index,
            x=self.x[lane],
            analysis=self.analysis,
            time=self.time,
            dt=self.dt,
            x_prev=None if self.x_prev is None else self.x_prev[lane],
            method=self.method,
            gmin=self.gmin,
            source_scale=self.source_scale,
        )


class LaneGroup:
    """Batched stamping unit: one element *slot* across all lanes.

    The lane-batched assembler collects, for every element position of
    the shared topology, the ``B`` per-lane element objects ("slot")
    and asks the element class for a group via
    :meth:`Element.lane_group`.  The group owns whatever stacked
    parameter arrays and per-lane transient state the slot needs:

    * :meth:`stamp` adds the slot's contribution for the *active* lanes
      (``ctx.lanes``) into the stacks — vectorized implementations
      gather per-lane values and scatter-add; the generic fallback
      loops the scalar ``Element.stamp``.
    * :meth:`begin_run` primes per-lane state at a transient run's
      initial solution.
    * :meth:`accept` commits a converged step (per-lane state update).
    * :meth:`reset` forgets transient state at the start of a run.

    ``nonlinear`` mirrors :attr:`Element.nonlinear`: ``False`` groups
    are stamped once per step into the static stack, ``True`` groups
    per Newton iteration.  ``stats`` is the run's stats dict, set by
    :func:`~repro.circuit.batch_sim.batch_transient` before each run;
    groups may count into it.
    """

    nonlinear = False
    stats: Optional[dict] = None

    def __init__(self, elements: Sequence["Element"]) -> None:
        self.elements = list(elements)

    def stamp(self, ctx: LaneContext) -> None:
        raise NotImplementedError

    def begin_run(self, ctx: LaneContext) -> None:
        """Prime per-lane state at the initial solution ``ctx.x``."""

    def accept(self, ctx: LaneContext) -> None:
        """Commit a converged step for the active lanes."""

    def reset(self) -> None:
        """Forget per-lane transient state (new run starting)."""


class GenericLaneGroup(LaneGroup):
    """Per-lane scalar fallback group (correct for any element).

    Elements without a vectorized group implementation — and any
    user-defined element — are stamped lane by lane through their
    scalar :meth:`Element.stamp` on a one-lane view of the stacks.
    The per-lane scalar contexts are cached per underlying buffer
    stack and mutated in place, so the dynamic-stamp hot path does
    not allocate a context (and two matrix/rhs views) per lane per
    Newton iteration.
    """

    def __init__(self, elements: Sequence["Element"]) -> None:
        super().__init__(elements)
        self.nonlinear = elements[0].nonlinear
        #: (id(matrix stack), lane) -> reusable scalar context
        self._scalar_ctx: Dict[Tuple[int, int], StampContext] = {}

    def _lane_context(self, ctx: LaneContext,
                      lane: int) -> "StampContext":
        key = (id(ctx.matrix), lane)
        cached = self._scalar_ctx.get(key)
        if cached is None:
            cached = ctx.scalar_context(lane)
            if len(self._scalar_ctx) < 4 * len(self.elements):
                self._scalar_ctx[key] = cached
            return cached
        cached.x = ctx.x[lane]
        cached.x_prev = None if ctx.x_prev is None else ctx.x_prev[lane]
        cached.analysis = ctx.analysis
        cached.time = ctx.time
        cached.dt = ctx.dt
        cached.method = ctx.method
        cached.gmin = ctx.gmin
        cached.source_scale = ctx.source_scale
        return cached

    def stamp(self, ctx: LaneContext) -> None:
        for lane in ctx.lanes:
            self.elements[lane].stamp(self._lane_context(ctx, int(lane)))

    def accept(self, ctx: LaneContext) -> None:
        for lane in ctx.lanes:
            self.elements[lane].accept_step(
                self._lane_context(ctx, int(lane)))

    def reset(self) -> None:
        for el in self.elements:
            el.reset_state()


_EMPTY = np.zeros(0)
_NO_INDEX = np.zeros(0, dtype=np.intp)


def transient_step(ctx) -> bool:
    """Whether ``ctx`` is a transient step (companion models stamp)."""
    return ctx.analysis == "tran" and ctx.dt is not None


def conductance_entries(ia: np.ndarray, ib: np.ndarray):
    """``(rows, cols)`` of the conductance four-pattern between
    terminal rows ``ia`` and ``ib``; its values are ``g, g, -g, -g``."""
    return np.array((ia, ib, ia, ib)), np.array((ia, ib, ib, ia))


#: the values of :func:`branch_entries`, per kind
BRANCH_VALUES = np.array([1.0, -1.0, 1.0, -1.0])


def branch_entries(ia: np.ndarray, ib: np.ndarray, k: np.ndarray):
    """``(rows, cols)`` of a branch current ``k`` from ``a`` to ``b``:
    the KCL column and the branch-equation row, values
    :data:`BRANCH_VALUES`."""
    return np.array((ia, ib, k, k)), np.array((k, k, ia, ib))


def no_entries(count: int) -> np.ndarray:
    """An empty ``(0, count)`` index table (a mode without entries)."""
    return np.empty((0, count), dtype=np.intp)


class StaticGroup:
    """Array-stamped static phase of one linear element class.

    The scalar assemblers (the monolithic
    :class:`~repro.circuit.mna.TwoPhaseAssembler` and every part of
    :class:`~repro.circuit.partition.PartitionedAssembler`) ask each
    linear element class once for a group over its elements
    (:meth:`Element.static_group`).  Per analysis mode — ``tran`` (a
    transient step, see :func:`transient_step`) or DC — the group
    fixes where the class stamps: :meth:`layout` gives ``(kinds, E)``
    tables of matrix rows, matrix columns and rhs rows over the ``E``
    elements, with ground as row ``n``.  :meth:`matrix` and
    :meth:`rhs` return the entries'
    values for one step context in a few array operations (the matrix
    values depend on the value key ``(analysis, dt, method)`` alone),
    and :meth:`accept` is the vector form of
    :meth:`Element.accept_step`.

    Per-step state (a trapezoidal capacitor's branch current, an
    inductor's previous voltage) stays on the elements, so the
    one-phase :func:`~repro.circuit.mna.assemble` and the AC
    linearisation read the same state.  Source waveforms are read
    from the elements at every :meth:`rhs`: sweeps replace them
    mid-run.
    """

    def __init__(self, elements: Sequence["Element"],
                 node_index: Dict[str, int], n: int) -> None:
        self.elements = list(elements)
        self.n = n

    def terminals(self, node_index: Dict[str, int]) -> List[np.ndarray]:
        """System row of each terminal of every element (``n`` for
        ground), one array per terminal."""
        n = self.n
        return [np.array([n if el.nodes[t] in GROUND_NAMES
                          else node_index[el.nodes[t]]
                          for el in self.elements], dtype=np.intp)
                for t in range(len(self.elements[0].nodes))]

    def padded(self, x: Optional[np.ndarray]) -> np.ndarray:
        """``x`` followed by one ground zero (all zeros for ``None``)."""
        out = np.zeros(self.n + 1)
        if x is not None:
            out[:self.n] = x[:self.n]
        return out

    def layout(self, tran: bool
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, rhs_rows)``: ``(kinds, E)`` index tables of
        the mode's entries, kind-major like the values (the assemblers
        compose them with their own layout once per mode)."""
        raise NotImplementedError

    def matrix(self, ctx: StampContext) -> np.ndarray:
        """Values of the mode's matrix entries, parallel to
        :meth:`layout`.  They may depend only on the value key
        ``(analysis, dt, method)`` of ``ctx``: the assemblers scatter
        them again only when that key changes."""
        raise NotImplementedError

    def rhs(self, ctx: StampContext) -> np.ndarray:
        """Values of the mode's rhs entries for the step context."""
        raise NotImplementedError

    def accept(self, ctx: StampContext) -> None:
        """Commit a converged transient step for every element."""


class StaticPhase:
    """The static phase of one scalar system: a :class:`StaticGroup`
    per linear element class that has one, in first-appearance order,
    and the *fallback* elements (user-defined linear classes) whose
    ``stamp`` the assembler calls one by one."""

    def __init__(self, elements: Sequence["Element"],
                 node_index: Dict[str, int], n: int) -> None:
        by_class: Dict[type, List["Element"]] = {}
        for el in elements:
            by_class.setdefault(type(el), []).append(el)
        self.groups: List[StaticGroup] = []
        for cls, members in list(by_class.items()):
            group = cls.static_group(members, node_index, n)
            if group is not None:
                self.groups.append(group)
                del by_class[cls]
        self.fallback = [el for el in elements if type(el) in by_class]
        self._positions: Dict[bool, Tuple[np.ndarray, np.ndarray]] = {}

    def positions(self, tran: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Every group's entries of the mode, concatenated: flat matrix
        positions ``row * n + col`` (every grounded entry on the pad
        ``n * n``) and rhs rows (pad ``n``)."""
        cached = self._positions.get(tran)
        if cached is None:
            flat, rhs_rows = [_NO_INDEX], [_NO_INDEX]
            for group in self.groups:
                rows, cols, rhs = group.layout(tran)
                n = group.n
                flat.append(np.where((rows == n) | (cols == n), n * n,
                                     rows * n + cols).ravel())
                rhs_rows.append(rhs.ravel())
            cached = self._positions[tran] = (
                np.concatenate(flat).astype(np.intp),
                np.concatenate(rhs_rows).astype(np.intp))
        return cached

    def matrix(self, ctx: StampContext) -> np.ndarray:
        """Every group's :meth:`StaticGroup.matrix`, concatenated."""
        return np.concatenate([g.matrix(ctx) for g in self.groups]
                              + [_EMPTY])

    def rhs(self, ctx: StampContext) -> np.ndarray:
        """Every group's :meth:`StaticGroup.rhs`, concatenated."""
        return np.concatenate([g.rhs(ctx) for g in self.groups] + [_EMPTY])


class Element:
    """Base class of all circuit elements.

    Subclasses set ``nodes`` (terminal names in a fixed order), override
    :meth:`stamp`, and declare ``n_aux`` auxiliary unknowns (branch
    currents).  ``aux_index`` is assigned by the circuit when the system
    is dimensioned.

    The lane-batched engine additionally asks the class for a
    :class:`LaneGroup` per element slot via :meth:`lane_group`; the
    default returns the scalar-loop fallback, so every element is
    batchable out of the box and vectorized groups are a pure
    optimisation.
    """

    #: number of auxiliary (branch-current) unknowns
    n_aux: int = 0
    #: True when the stamp depends on the current iterate.  The
    #: two-phase assembler relies on this flag: elements left at False
    #: are stamped once per step (their ``stamp`` must not read
    #: ``ctx.x``), nonlinear ones are re-stamped per Newton iteration.
    nonlinear: bool = False

    def __init__(self, name: str, nodes: Sequence[str]) -> None:
        if not name:
            raise NetlistError("element name must be non-empty")
        self.name = name
        self.nodes: Tuple[str, ...] = tuple(nodes)
        self.aux_index: int = -1

    def stamp(self, ctx: StampContext) -> None:
        raise NotImplementedError

    def clone(self, name: str, nodes: Sequence[str]) -> "Element":
        """Shallow copy bound to a new name and terminal nodes.

        Used by subcircuit flattening: parameters and heavyweight
        shared objects (CNFET devices, fitted curves, waveforms) stay
        shared with the prototype, while identity (name, nodes, matrix
        indices) and transient state are per-clone.
        """
        if len(nodes) != len(self.nodes):
            raise NetlistError(
                f"{self.name}: clone needs {len(self.nodes)} nodes, "
                f"got {len(nodes)}"
            )
        dup = copy.copy(self)
        dup.name = name
        dup.nodes = tuple(nodes)
        dup.aux_index = -1
        dup.reset_state()
        return dup

    @classmethod
    def lane_group(cls, elements: Sequence["Element"]) -> LaneGroup:
        """Batched stamping group for one slot (``elements[b]`` is the
        slot's element in lane ``b``).  Override to vectorize."""
        return GenericLaneGroup(elements)

    @classmethod
    def lane_groups(cls, slots: Sequence[Sequence["Element"]]
                    ) -> Sequence[LaneGroup]:
        """Batched stamping groups for *all* of this class's slots.

        The default is one :meth:`lane_group` per slot; classes whose
        vectorization spans slots (CNFETs stack every device of the
        batch into one evaluation) override this to return fewer,
        wider groups.
        """
        return [cls.lane_group(slot) for slot in slots]

    def accept_step(self, ctx: StampContext) -> None:
        """Called once after a transient step converges; elements with
        memory (trapezoidal capacitors, inductors) update their state."""

    @classmethod
    def static_group(cls, elements: Sequence["Element"],
                     node_index: Dict[str, int], n: int
                     ) -> Optional[StaticGroup]:
        """Array-stamped static phase (and step commit) of this class's
        ``elements`` in one scalar system of dimension ``n``, or
        ``None`` to stamp (and commit) each element on its own.

        Every built-in linear class returns a group for exactly its own
        class; a subclass (which may override :meth:`stamp`) and every
        user-defined linear element take the per-element fallback."""
        return None

    def reset_state(self) -> None:
        """Forget any transient state (called when an analysis starts)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}, nodes={self.nodes})"
