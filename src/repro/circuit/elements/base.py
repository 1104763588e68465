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
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NetlistError

GROUND_NAMES = ("0", "gnd", "GND")


class StepContext:
    """The fields of one assembly step, shared by the scalar
    :class:`StampContext` and the stacked :class:`LaneContext` (what a
    :class:`StaticGroup` reads).

    Attributes
    ----------
    analysis:
        ``"dc"`` or ``"tran"``.
    time, dt:
        Current time and step (transient only; ``None`` in DC).
    x:
        Current Newton iterate (the full solution vector; a ``(B, n)``
        stack in a :class:`LaneContext`) — elements read their
        controlling voltages from it.
    x_prev:
        Converged solution of the previous time step (transient only).
    method:
        ``"be"`` (backward Euler) or ``"trap"`` (trapezoidal).
    gmin:
        Shunt conductance added by nonlinear elements for robustness
        (swept during gmin stepping).
    lanes:
        The lanes the context covers: a scalar system is lane 0 of a
        one-lane :class:`StaticGroup` grid (a :class:`LaneContext`
        covers its active lanes).
    """

    lanes = np.zeros(1, dtype=np.intp)

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


class StampContext(StepContext):
    """Assembly context handed to every element's ``stamp`` (one scalar
    system)."""

    #: Jacobian-reuse tolerance [V] of the current Newton iteration
    #: (see :attr:`NewtonOptions.jacobian_reuse_tol`); elements may
    #: restamp a frozen linearisation when their controlling
    #: voltages moved less than this.  0 disables reuse.
    reuse_tol = 0.0

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
    """Stamping context that records COO triplets.

    Elements stamp through the same ``add_entry`` / ``add_rhs``
    primitives; matrix entries are appended to growing flat-index /
    value arrays instead of written into a dense buffer (the rhs stays
    a dense vector — it is O(n)).  The assemblers
    (:class:`repro.circuit.mna.TwoPhaseAssembler`'s CSC pattern, the
    partitioned assembler's pooled buffer) map the recorded positions
    onto their layout once per run and re-scatter only the values on
    subsequent steps/iterations.
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


class LaneContext(StepContext):
    """Stacked assembly context of the lane-batched engine.

    ``B`` independent instances (*lanes*) of one circuit topology are
    assembled into a ``(B, n + 1, n + 1)`` matrix stack and a
    ``(B, n + 1)`` rhs stack, where ``n`` is the scalar system
    dimension; row/column ``n`` is a *ground pad* that absorbs stamps
    whose node is ground, so vectorized scatter-adds never need per-
    entry sign checks (the pad is sliced off before the stacked solve).

    ``x``/``x_prev`` are ``(B, n)`` per-lane iterate / previous-step
    stacks; ``lanes`` holds the indices of the *active* lanes (Newton
    freezes converged lanes, the stepper retires finished ones).
    """

    def __init__(self, matrix: np.ndarray, rhs: np.ndarray,
                 node_index: Dict[str, int], x: np.ndarray,
                 lanes: np.ndarray, **step) -> None:
        super().__init__(matrix, rhs, node_index, x, **step)
        self.lanes = lanes

    @property
    def dim(self) -> int:
        """Scalar system dimension (the stacks carry one pad row more)."""
        return self.matrix.shape[1] - 1

    def scalar_context(self, lane: int) -> "StampContext":
        """Scalar :class:`StampContext` viewing one lane's system
        (the per-lane fallback, :class:`GenericLaneGroup`)."""
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
    """Batched stamping unit of the lane-batched engine for the
    elements a :class:`StaticGroup` does not cover: nonlinear elements
    and user-defined linear classes.

    The lane-batched assembler collects, for every such element
    position of the shared topology, the ``B`` per-lane element objects
    (a "slot") and asks the element class for groups over all of its
    slots via :meth:`Element.lane_groups`.  A group owns whatever
    stacked state its slots need:

    * :meth:`stamp` adds the slots' contribution for the *active* lanes
      (``ctx.lanes``) into the stacks — the CNFET bank group in one
      stacked evaluation; the generic fallback loops the scalar
      ``Element.stamp``.
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
    """Per-lane scalar fallback group over one slot (correct for any
    element).

    Nonlinear elements other than fast-backend CNFETs, and every
    user-defined linear element, are stamped lane by lane through
    their scalar :meth:`Element.stamp` on a one-lane view of the
    stacks.
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


_EMPTY = np.zeros(0)
_ZERO = np.zeros(1)
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
    """Array-stamped static phase of one linear element class: its one
    stamp-and-commit implementation, shared by the three engines.

    The monolithic :class:`~repro.circuit.mna.TwoPhaseAssembler`, every
    part of the :class:`~repro.circuit.partition.PartitionedAssembler`
    and the lane-batched :class:`~repro.circuit.batch_sim.LaneBatch`
    ask each linear element class once for a group
    (:meth:`Element.static_group`) over a ``(B, E)`` grid of its
    elements: ``B`` lanes (``B = 1`` in the scalar engines) of ``E``
    elements, lane-major in :attr:`elements`.  The topology is shared
    across lanes, so per analysis mode — ``tran`` (a transient step,
    see :func:`transient_step`) or DC — :meth:`layout` gives ``(kinds,
    E)`` tables of matrix rows, matrix columns and rhs rows (ground as
    row ``n``), which each engine composes with its own layout once
    per mode.  Parameters are ``(B, E)`` tables, raveled lane-major;
    :meth:`matrix` and :meth:`rhs` return a step's values as raveled
    ``(kinds, B, E)`` arrays (at ``B = 1`` exactly the scalar order),
    the matrix values depending on the value key ``(analysis, dt,
    method)`` alone.  :meth:`accept` is the vector form of
    :meth:`Element.accept_step` over the context's lanes.

    A context's ``x`` / ``x_prev`` is an ``(n,)`` vector (lane 0) or a
    ``(B, n)`` lane stack.  Per-step state (a trapezoidal capacitor's
    branch current, an inductor's previous voltage) stays on the
    elements, so the one-phase :func:`~repro.circuit.mna.assemble`,
    the AC linearisation and a lane's scalar re-run read the same
    state.  Source waveforms are read from the elements at every
    :meth:`rhs`: sweeps replace them mid-run.
    """

    def __init__(self, lanes: Sequence[Sequence["Element"]],
                 node_index: Dict[str, int], n: int) -> None:
        #: ``grid[b][e]``: element ``e`` of lane ``b``
        self.grid = [list(lane) for lane in lanes]
        self.elements = [el for lane in self.grid for el in lane]
        self.shape = (len(self.grid), len(self.grid[0]))
        self.n = n

    def terminals(self, node_index: Dict[str, int]) -> List[np.ndarray]:
        """System row of each terminal of every element (``n`` for
        ground), one array per terminal."""
        n = self.n
        return [np.array([n if el.nodes[t] in GROUND_NAMES
                          else node_index[el.nodes[t]]
                          for el in self.grid[0]], dtype=np.intp)
                for t in range(len(self.grid[0][0].nodes))]

    def table(self, name: str) -> np.ndarray:
        """One attribute of every element: a ``(B, E)`` table, raveled
        lane-major like :attr:`elements`."""
        return np.fromiter(map(attrgetter(name), self.elements), float,
                           len(self.elements))

    def committed(self, ctx: StepContext, values: np.ndarray
                  ) -> Tuple[List["Element"], List[float]]:
        """The elements of the context's lanes and their entries of the
        raveled ``(B, E)`` table ``values``, lane-major (a commit writes
        them back one by one)."""
        lanes = ctx.lanes
        if len(lanes) == self.shape[0]:
            return self.elements, values.tolist()
        return ([el for lane in lanes.tolist() for el in self.grid[lane]],
                values.reshape(self.shape)[lanes].ravel().tolist())

    def index(self, rows: np.ndarray) -> np.ndarray:
        """Positions of the system rows ``rows`` (ground ``n``) in every
        lane of an :meth:`extended` vector, raveled ``(B, E)``."""
        b, n = self.shape[0], self.n
        return np.where(rows == n, b * n,
                        np.arange(b)[:, None] * n + rows).ravel()

    def extended(self, x: Optional[np.ndarray]) -> np.ndarray:
        """``x`` (an ``(n,)`` vector or a ``(B, n)`` stack) raveled, with
        one zero appended that every ground row reads (all zeros for
        ``None``)."""
        if x is None:
            return np.zeros(self.shape[0] * self.n + 1)
        return np.concatenate((x.ravel(), _ZERO))

    def layout(self, tran: bool
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, rhs_rows)``: ``(kinds, E)`` index tables of
        the mode's entries, kind-major like the values (the engines
        compose them with their own layout once per mode)."""
        raise NotImplementedError

    def matrix(self, ctx: StepContext) -> np.ndarray:
        """Values of the mode's matrix entries, ``(kinds, B, E)``
        raveled.  They may depend only on the value key ``(analysis,
        dt, method)`` of ``ctx``: the engines scatter them again only
        when that key changes."""
        raise NotImplementedError

    def rhs(self, ctx: StepContext) -> np.ndarray:
        """Values of the mode's rhs entries for the step context,
        ``(kinds, B, E)`` raveled."""
        raise NotImplementedError

    def accept(self, ctx: StepContext) -> None:
        """Commit a converged transient step for the elements of the
        context's lanes."""


class StaticPhase:
    """The static phase of a system of ``B`` same-topology lanes
    (``lanes[b]`` lists lane ``b``'s linear elements; ``B = 1`` for a
    scalar system): a :class:`StaticGroup` per linear element class
    that has one, in first-appearance order, and the *fallback*
    elements (user-defined linear classes), lane-major, whose
    ``stamp`` the engine calls one by one."""

    def __init__(self, lanes: Sequence[Sequence["Element"]],
                 node_index: Dict[str, int], n: int) -> None:
        by_class: Dict[type, List[int]] = {}
        for e, el in enumerate(lanes[0]):
            by_class.setdefault(type(el), []).append(e)
        self.groups: List[StaticGroup] = []
        fallback: List[int] = []
        for cls, slots in by_class.items():
            group = cls.static_group(
                [[lane[e] for e in slots] for lane in lanes], node_index, n)
            if group is None:
                fallback.extend(slots)
            else:
                self.groups.append(group)
        fallback.sort()
        self.fallback = [lane[e] for lane in lanes for e in fallback]
        self._positions: Dict[bool, Tuple[np.ndarray, np.ndarray]] = {}

    def positions(self, tran: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Every group's entries of the mode in a scalar system,
        concatenated: flat matrix positions ``row * n + col`` (every
        grounded entry on the pad ``n * n``) and rhs rows (pad ``n``)."""
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

    def matrix(self, ctx: StepContext) -> np.ndarray:
        """Every group's :meth:`StaticGroup.matrix`, concatenated."""
        return np.concatenate([g.matrix(ctx) for g in self.groups]
                              + [_EMPTY])

    def rhs(self, ctx: StepContext) -> np.ndarray:
        """Every group's :meth:`StaticGroup.rhs`, concatenated."""
        return np.concatenate([g.rhs(ctx) for g in self.groups] + [_EMPTY])


class Element:
    """Base class of all circuit elements.

    Subclasses set ``nodes`` (terminal names in a fixed order), override
    :meth:`stamp`, and declare ``n_aux`` auxiliary unknowns (branch
    currents).  ``aux_index`` is assigned by the circuit when the system
    is dimensioned.

    Every engine stamps the built-in linear classes through their
    :meth:`static_group`; for every other element the lane-batched
    engine asks the class for lane groups (:class:`LaneGroup`, see
    :meth:`lane_groups`), whose default is the per-lane scalar loop,
    so every element is batchable out of the box.
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
    def lane_groups(cls, slots: Sequence[Sequence["Element"]]
                    ) -> Sequence[LaneGroup]:
        """Lane-batched stamping groups for all of this class's slots
        that no :meth:`static_group` covers (``slots[s][b]`` is slot
        ``s``'s element in lane ``b``).

        The default is one :class:`GenericLaneGroup` per slot, the
        per-lane scalar loop; CNFETs override this to stack every
        fast-backend device of the batch into one bank evaluation.
        """
        return [GenericLaneGroup(slot) for slot in slots]

    def accept_step(self, ctx: StampContext) -> None:
        """Called once after a transient step converges; elements with
        memory (trapezoidal capacitors, inductors) update their state."""

    #: the :class:`StaticGroup` type of exactly this class (a subclass,
    #: which may override :meth:`stamp`, does not inherit it)
    static_group_type: Optional[type] = None

    @classmethod
    def static_group(cls, lanes: Sequence[Sequence["Element"]],
                     node_index: Dict[str, int], n: int
                     ) -> Optional[StaticGroup]:
        """Array-stamped static phase (and step commit) of this class's
        elements in a system of dimension ``n`` (``lanes[b]`` lists
        lane ``b``'s; one lane in the scalar engines), or ``None`` to
        stamp (and commit) each element on its own.

        Every built-in linear class returns its
        :attr:`static_group_type`; a subclass (which may override
        :meth:`stamp`) and every user-defined linear element take the
        per-element fallback."""
        group_type = cls.__dict__.get("static_group_type")
        return None if group_type is None \
            else group_type(lanes, node_index, n)

    def reset_state(self) -> None:
        """Forget any transient state (called when an analysis starts)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}, nodes={self.nodes})"
