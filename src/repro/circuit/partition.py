"""Circuit partitioning with Schur-coupled block solves and latency bypass.

The monolithic MNA engine factorises one global Jacobian per Newton
iteration.  For mostly-quiescent digital circuits that is almost all
waste: the paper's closed-form CNFET model makes *device evaluation*
cheap, so the global factorisation dominates — and most of the circuit
did not move since the last step.  This module implements the classic
fast-SPICE answer:

* :func:`partition_circuit` cuts the flattened circuit into **blocks**
  along subcircuit-instance boundaries (the dot-separated hierarchical
  names produced by :class:`~repro.circuit.netlist.Instance`
  flattening), falling back to connectivity clustering for flat
  netlists.  Elements whose every node is shared between blocks (the
  independent sources, the inter-stage load capacitors) form the
  **interface**; nodes touched by more than one block or by any
  interface element are **boundary nodes**.
* :class:`PartitionedAssembler` assembles each block into its own
  bordered system ``[[A_bb, E_b], [F_b, C_b]]`` over (internal
  unknowns, local boundary nodes) and couples the blocks through a
  **Schur complement** interface solve — algebraically the same global
  Newton step the monolithic engine takes, so results agree to
  round-off.
* **Latency bypass**: a block whose unknowns and boundary terminals
  moved less than ``bypass_tol`` volts since its last assembly skips
  device re-evaluation, stamping and refactorisation entirely — its
  frozen Schur contribution is reused.  The bypass is re-checked every
  Newton iteration (a block whose terminals get driven mid-step is
  promoted back to active) and refreshed after
  :data:`MAX_BYPASS_STEPS` steps so slow drift cannot accumulate
  unobserved.  See ``docs/partitioning.md`` for the tolerance
  semantics.
* **One pooled dense buffer** holds every block's bordered system and
  the interface's, back to back, and **one pooled CNFET bank** holds
  every fast-backend CNFET of the blocks and the interface, stamping
  them into that buffer in place.  The linear elements stamp through
  pooled static groups (:meth:`Element.static_group
  <repro.circuit.elements.base.Element.static_group>`) into a buffer of
  the same layout that holds every part's static phase.

The assembler duck-types the three-method contract of
:class:`repro.circuit.mna.TwoPhaseAssembler` (``begin_step`` /
``iterate`` / ``solve``), so :func:`repro.circuit.mna.newton_solve`
and both transient loops drive it unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.elements.base import (
    GROUND_NAMES,
    Element,
    StampContext,
    StaticPhase,
    TripletStampContext,
    transient_step,
)
from repro.circuit.elements.cnfet import CNFETBank, split_bank_devices
from repro.circuit.netlist import HIER_SEP, Circuit
from repro.circuit.solvers import HAVE_SCIPY
from repro.circuit.waveforms import DC
from repro.errors import AnalysisError, ParameterError

#: Default maximum number of elements per block; hierarchy groups and
#: connectivity clusters larger than this are split further.
DEFAULT_MAX_BLOCK = 64

#: Connectivity clustering of a flat netlist never joins elements
#: through a net touching more than ``max(CUT_DEGREE_MIN, 2 x the
#: average net degree)`` elements (supply rails and similar).
CUT_DEGREE_MIN = 8

#: Steps (``begin_step`` calls, retried attempts included) a block may
#: stay bypassed before it is force-refreshed.
#: Drift itself is bounded per step by the bypass-tolerance check (it
#: compares the live iterate against the *frozen* solution, so slow
#: drift accumulates towards the tolerance and triggers a refresh on
#: its own); the age cap is a belt-and-braces bound on how long a
#: frozen linearisation may be reused, not the drift guard.
MAX_BYPASS_STEPS = 1000

_NO_FLAT = np.zeros(0, dtype=np.intp)
_EMPTY = np.zeros(0)
_NO_MATRIX = np.zeros((0, 0))


def _non_ground_nodes(element: Element) -> List[str]:
    return [node for node in element.nodes if node not in GROUND_NAMES]


def _is_time_varying(element: Element) -> bool:
    waveform = getattr(element, "waveform", None)
    return waveform is not None and not isinstance(waveform, DC)


def _dt_matches(frozen_dt: np.ndarray, dt: Optional[float],
                rel: float = 1e-9) -> np.ndarray:
    """Which frozen step sizes (``nan`` = none) match ``dt``, to ``rel``.

    Exact equality would defeat bypass on any breakpoint-bearing run:
    the step that lands on a breakpoint computes ``dt`` as a time
    difference, off by an ulp from the nominal cadence, and the key
    mismatch would refresh *every* block twice per source edge.  A
    1e-9 relative slack changes the trap/BE companion conductances
    (``2C/dt``) by far less than any bypass tolerance resolves."""
    if dt is None:
        return np.isnan(frozen_dt)
    return np.abs(dt - frozen_dt) <= rel * np.abs(frozen_dt)


# ---------------------------------------------------------------------------
# partitioning


def _hier_groups(elements: Sequence[Element], max_block: int
                 ) -> Optional[Dict[Tuple[str, ...], List[Element]]]:
    """Group elements by hierarchical name prefix, recursively splitting
    groups larger than ``max_block`` by the next path segment.

    Returns ``None`` when the netlist carries no hierarchy (no element
    name contains :data:`~repro.circuit.netlist.HIER_SEP`).
    """
    if not any(HIER_SEP in el.name for el in elements):
        return None
    groups: Dict[Tuple[str, ...], List[Element]] = {}

    def place(key: Tuple[str, ...], els: List[Element], depth: int) -> None:
        if len(els) <= max_block:
            groups[key] = els
            return
        sub: Dict[Tuple[str, ...], List[Element]] = {}
        leaves: List[Element] = []
        for el in els:
            segments = el.name.split(HIER_SEP)
            # the last segment is the element's own name, never a level
            if len(segments) > depth + 1:
                child = key + (segments[depth],)
                sub.setdefault(child, []).append(el)
            else:
                leaves.append(el)
        if len(sub) <= 1 and not leaves:
            # no further hierarchy to exploit; keep as one block
            groups[key] = els
            return
        if leaves:
            groups[key + ("",)] = leaves
        for child_key, child_els in sub.items():
            place(child_key, child_els, depth + 1)

    top: Dict[Tuple[str, ...], List[Element]] = {}
    for el in elements:
        head, sep, _ = el.name.partition(HIER_SEP)
        top.setdefault((head,) if sep else ("",), []).append(el)
    for key, els in top.items():
        place(key, els, 1 if key != ("",) else 0)
    return groups


def _connectivity_groups(elements: Sequence[Element], max_block: int
                         ) -> Dict[Tuple[str, ...], List[Element]]:
    """Cluster a flat netlist by shared nets.

    High-degree nets (supply rails and similar, see
    :data:`CUT_DEGREE_MIN`) are excluded as *cut nets* so they do not
    glue the whole circuit into one cluster; clusters larger than
    ``max_block`` are split into contiguous chunks of a breadth-first
    element ordering.
    """
    degree: Dict[str, int] = {}
    for el in elements:
        for node in _non_ground_nodes(el):
            degree[node] = degree.get(node, 0) + 1
    avg = sum(degree.values()) / len(degree) if degree else 0.0
    max_degree = max(CUT_DEGREE_MIN, int(2 * avg))
    excluded = {node for node, deg in degree.items() if deg > max_degree}

    # union-find over elements joined by shared (non-cut) nets
    parent = list(range(len(elements)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    first_touch: Dict[str, int] = {}
    adjacency: Dict[str, List[int]] = {}
    for k, el in enumerate(elements):
        for node in _non_ground_nodes(el):
            adjacency.setdefault(node, []).append(k)
            if node in excluded:
                continue
            if node in first_touch:
                union(first_touch[node], k)
            else:
                first_touch[node] = k

    clusters: Dict[int, List[int]] = {}
    for k in range(len(elements)):
        clusters.setdefault(find(k), []).append(k)

    groups: Dict[Tuple[str, ...], List[Element]] = {}
    serial = 0
    for root in sorted(clusters):
        members = clusters[root]
        if len(members) <= max_block:
            groups[(f"blk{serial}",)] = [elements[k] for k in members]
            serial += 1
            continue
        # BFS element ordering inside the cluster, chunked
        member_set = set(members)
        order: List[int] = []
        seen = set()
        queue = [members[0]]
        while queue or len(seen) < len(members):
            if not queue:  # disconnected remainder (via cut nets only)
                queue.append(next(k for k in members if k not in seen))
            k = queue.pop(0)
            if k in seen:
                continue
            seen.add(k)
            order.append(k)
            for node in _non_ground_nodes(elements[k]):
                if node in excluded:
                    continue
                for peer in adjacency[node]:
                    if peer in member_set and peer not in seen:
                        queue.append(peer)
        for start in range(0, len(order), max_block):
            chunk = order[start:start + max_block]
            groups[(f"blk{serial}",)] = [elements[k] for k in chunk]
            serial += 1
    return groups


@dataclass
class PartitionBlock:
    """One partition block: its elements and its unknown-index scopes.

    ``internal`` holds the global indices owned exclusively by this
    block (its private nodes plus its elements' auxiliary unknowns);
    ``boundary`` holds the global indices of the boundary nodes its
    elements touch.  Together they are the block's *scope*: every
    matrix entry a block element stamps lands inside
    ``internal x internal``, ``internal x boundary``,
    ``boundary x internal`` or ``boundary x boundary``.
    """

    name: str
    elements: List[Element]
    internal: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    boundary: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    time_varying: bool = False

    @property
    def n_internal(self) -> int:
        """Number of unknowns owned by the block."""
        return int(self.internal.size)

    @property
    def n_boundary(self) -> int:
        """Number of boundary nodes the block couples through."""
        return int(self.boundary.size)


@dataclass
class PartitionReport:
    """Summary statistics of a :class:`Partition` (CLI/diagnostics)."""

    n_blocks: int
    block_unknowns: List[int]
    block_elements: List[int]
    boundary_nodes: int
    interface_elements: int
    interface_unknowns: int
    total_unknowns: int

    def histogram(self, bins: int = 8, width: int = 40) -> str:
        """ASCII histogram of block sizes (unknowns per block)."""
        if not self.block_unknowns:
            return "(no blocks)"
        values = np.asarray(self.block_unknowns)
        lo, hi = int(values.min()), int(values.max())
        if lo == hi:
            return f"{lo:>6d}..{hi:<6d} | " + "#" * min(width, len(values)) \
                + f" {len(values)}"
        edges = np.linspace(lo, hi + 1, bins + 1)
        counts, _ = np.histogram(values, bins=edges)
        peak = counts.max()
        lines = []
        for i, count in enumerate(counts):
            bar = "#" * int(round(width * count / peak)) if count else ""
            lines.append(
                f"{int(edges[i]):>6d}..{int(edges[i + 1]) - 1:<6d} | "
                f"{bar} {count}")
        return "\n".join(lines)

    def as_dict(self) -> Dict:
        """JSON-friendly payload (the CLI ``--json`` output)."""
        return {
            "n_blocks": self.n_blocks,
            "block_unknowns": list(self.block_unknowns),
            "block_elements": list(self.block_elements),
            "boundary_nodes": self.boundary_nodes,
            "interface_elements": self.interface_elements,
            "interface_unknowns": self.interface_unknowns,
            "total_unknowns": self.total_unknowns,
        }


class Partition:
    """A circuit cut into blocks, interface elements and boundary nodes.

    Build one with :func:`partition_circuit`; pass it to
    :class:`PartitionedAssembler` (or ``transient(partition=...)``).
    The constructor validates that the block scopes tile the global
    unknown vector exactly: every unknown index belongs to exactly one
    block or to the interface.
    """

    def __init__(self, circuit: Circuit, blocks: List[PartitionBlock],
                 interface_elements: List[Element],
                 boundary_nodes: List[str]) -> None:
        self.circuit = circuit
        self.blocks = blocks
        self.interface_elements = interface_elements
        self.boundary_nodes = boundary_nodes
        n = circuit.dimension()
        self.n = n
        node_index = circuit.node_index
        self.boundary_index = np.array(
            sorted(node_index[name] for name in boundary_nodes),
            dtype=np.intp)
        aux: List[int] = []
        for el in interface_elements:
            aux.extend(range(el.aux_index, el.aux_index + el.n_aux))
        self.interface_aux = np.array(sorted(aux), dtype=np.intp)
        #: global indices of the interface solve: boundary nodes first,
        #: then the interface elements' auxiliary unknowns
        self.gamma = np.concatenate([self.boundary_index,
                                     self.interface_aux])
        covered = [self.gamma] + [blk.internal for blk in self.blocks]
        flat = np.concatenate(covered) if covered else np.empty(0, np.intp)
        if flat.size != n or not np.array_equal(np.sort(flat),
                                                np.arange(n)):
            raise AnalysisError(
                "partition does not tile the unknown vector: "
                f"{flat.size} scoped indices for dimension {n}")

    def report(self) -> PartitionReport:
        """Block/boundary statistics for diagnostics and the CLI."""
        return PartitionReport(
            n_blocks=len(self.blocks),
            block_unknowns=[blk.n_internal for blk in self.blocks],
            block_elements=[len(blk.elements) for blk in self.blocks],
            boundary_nodes=len(self.boundary_nodes),
            interface_elements=len(self.interface_elements),
            interface_unknowns=int(self.gamma.size),
            total_unknowns=self.n,
        )


def partition_circuit(circuit: Circuit, *,
                      max_block: int = DEFAULT_MAX_BLOCK) -> Partition:
    """Partition a flattened circuit into coupled blocks.

    Elements are grouped along subcircuit-instance boundaries (the
    dot-separated hierarchical names), recursively splitting groups
    larger than ``max_block`` elements by the next path segment; flat
    netlists fall back to connectivity clustering with high-degree
    nets (supply rails) excluded as cut nets.  Nodes touched by more
    than one group become boundary nodes; elements whose every
    non-ground node is a boundary node (independent sources, shared
    load capacitors) move to the interface.

    Parameters
    ----------
    circuit : Circuit
        The circuit to partition (hierarchy must already be flattened,
        which :meth:`Circuit.add`-built and parsed circuits are).
    max_block : int
        Maximum elements per block before a group is split further.

    Returns
    -------
    Partition
        The validated block structure.
    """
    if max_block < 1:
        raise ParameterError(f"max_block must be >= 1, got {max_block!r}")
    dim = circuit.dimension()  # assign node/aux indices
    elements = list(circuit.elements)
    groups = _hier_groups(elements, max_block)
    if groups is None or len(groups) < 2:
        groups = _connectivity_groups(elements, max_block)
    keys = sorted(groups)
    node_index = circuit.node_index
    n_nodes = len(node_index)

    # Every pass below works on one table: the elements in group-key
    # order, each with its non-ground nodes as node indices (its
    # terminals, term_* arrays) and its aux unknowns (aux_* arrays).
    flat = [el for key in keys for el in groups[key]]
    terminals = [[node_index[node] for node in el.nodes
                  if node not in GROUND_NAMES] for el in flat]
    n_terms = np.fromiter(map(len, terminals), np.intp, len(flat))
    term_node = np.fromiter(itertools.chain.from_iterable(terminals),
                            np.intp, int(n_terms.sum()))
    term_el = np.repeat(np.arange(len(flat)), n_terms)
    begin = np.cumsum(n_terms) - n_terms
    wired = (n_terms > 0).nonzero()[0]
    n_aux = np.fromiter((el.n_aux for el in flat), np.intp, len(flat))
    aux_el = np.repeat(np.arange(len(flat)), n_aux)
    aux = np.repeat(np.fromiter((el.aux_index for el in flat), np.intp,
                                len(flat)), n_aux) \
        + np.arange(aux_el.size) - np.repeat(np.cumsum(n_aux) - n_aux, n_aux)
    group_of = np.repeat(np.arange(len(keys)),
                         [len(groups[key]) for key in keys])

    def node_groups(group_of: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Per node: how many groups touch it, and the lowest and the
        highest of them."""
        pairs = np.unique(term_node * len(keys) + group_of[term_el])
        node, group = np.divmod(pairs, len(keys))
        count = np.bincount(node, minlength=n_nodes)
        if not pairs.size:
            return count, count, count
        last = np.maximum(np.cumsum(count) - 1, 0)
        return count, group[np.maximum(last - count + 1, 0)], group[last]

    def every_terminal(flags: np.ndarray) -> np.ndarray:
        """Per element: whether ``flags`` holds at each of its terminals
        (vacuously true without terminals)."""
        out = np.ones(len(flat), dtype=bool)
        if wired.size:
            out[wired] = np.logical_and.reduceat(flags, begin[wired])
        return out

    def by_group(rows: np.ndarray, owner: np.ndarray,
                 values: np.ndarray) -> List[np.ndarray]:
        """Per group: the sorted distinct ``values`` of the selected
        ``rows``, each owned by element ``owner``."""
        keyed = np.unique(group_of[owner[rows]] * dim + values[rows])
        group, value = np.divmod(keyed, dim)
        bounds = np.searchsorted(group, np.arange(len(keys) + 1))
        return [value[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    # Absorb single-block-affine elements: an element every one of
    # whose non-ground nodes is also touched by exactly one *other*
    # group moves into that group.  Without this, top-level stimulus
    # sources and load capacitors form a degenerate group that turns
    # every circuit input and output into a boundary node — on rca32
    # that inflates the interface from ~35 unknowns (carry chain +
    # supply) to ~200 (every source aux and terminal).  Its own group
    # touches each of its nodes, so every node's groups must be the
    # same pair {own, target}; every move is decided on the groups
    # before any is made.
    count, low, high = node_groups(group_of)
    pair = (low * len(keys) + high)[term_node]
    moved = every_terminal(count[term_node] == 2) & (n_terms > 0)
    if wired.size:
        moved[wired] &= (np.maximum.reduceat(pair, begin[wired])
                         == np.minimum.reduceat(pair, begin[wired]))
    if moved.any():
        first = term_node[begin[moved]]
        group_of = group_of.copy()
        group_of[moved] = low[first] + high[first] - group_of[moved]
    # nodes touched by >= 2 groups are boundary; an element coupling
    # only boundary nodes (or only ground) is a pure interface element,
    # its aux unknowns follow it
    is_boundary = node_groups(group_of)[0] > 1
    to_interface = every_terminal(is_boundary[term_node])
    touched_of = by_group(~to_interface[term_el], term_el, term_node)
    aux_of = by_group(~to_interface[aux_el], aux_el, aux)

    # each group's members: the elements that stayed, then the ones
    # that moved in, each in table order
    order = np.lexsort((moved, group_of))
    bounds = np.searchsorted(group_of[order], np.arange(len(keys) + 1))
    in_interface = to_interface.copy()
    in_block = np.zeros(n_nodes, dtype=bool)
    blocks: List[PartitionBlock] = []
    interface: List[Element] = []
    for g, key in enumerate(keys):
        members = order[bounds[g]:bounds[g + 1]]
        interface.extend(flat[i] for i in
                         members[to_interface[members]].tolist())
        kept_idx = members[~to_interface[members]]
        if not kept_idx.size:
            continue
        kept = [flat[i] for i in kept_idx.tolist()]
        touched = touched_of[g]
        block = PartitionBlock(
            name=HIER_SEP.join(s for s in key if s) or "top",
            elements=kept,
            internal=np.sort(np.concatenate(
                (touched[~is_boundary[touched]], aux_of[g]))),
            boundary=touched[is_boundary[touched]],
            time_varying=any(_is_time_varying(el) for el in kept),
        )
        if block.n_internal == 0:
            # nothing private to solve for: fold into the interface
            interface.extend(kept)
            in_interface[kept_idx] = True
            continue
        blocks.append(block)
        in_block[touched] = True

    # an interface element may touch a node no remaining block touches
    # (a folded-away block's private node): promote it to boundary so
    # the interface solve owns it.
    nodes = term_node[in_interface[term_el]]
    is_boundary[nodes[~in_block[nodes]]] = True
    name_of = {index: node for node, index in node_index.items()}
    return Partition(circuit, blocks, interface,
                     sorted(name_of[i] for i in is_boundary.nonzero()[0]))


# ---------------------------------------------------------------------------
# per-part assembly plumbing


#: the step-context fields a part's recording contexts copy
_STEP_FIELDS = ("analysis", "time", "dt", "x_prev", "method", "gmin",
                "source_scale")


def _stamp(ctx: TripletStampContext, elements, step: StampContext,
           x: Optional[np.ndarray] = None, reuse_tol: float = 0.0) -> None:
    """Record one stamping pass of ``elements`` into ``ctx`` (the static
    phase without ``x``, the dynamic phase around iterate ``x``) in the
    step context ``step``."""
    ctx.clear()
    for name in _STEP_FIELDS:
        setattr(ctx, name, getattr(step, name))
    if x is not None:
        ctx.x = x
        ctx.reuse_tol = reuse_tol
    for el in elements:
        el.stamp(ctx)


class _Part:
    """One part of the pooled system: a block's bordered ``m x m``
    system over (internal unknowns, local boundary nodes), or the
    interface's over ``gamma``.

    The system and its rhs sit back to back in the assembler's pooled
    buffer (:attr:`slot`, viewed as :attr:`sys` / :attr:`rhs`).  Each
    Newton iteration resets the slot to the part's assembled static
    phase — its share of the assembler's pooled static groups
    (:attr:`static`, a view of :attr:`_PooledStatic.buf`) plus the
    triplets of its fallback linear elements, recorded once per step —
    and adds the one-by-one dynamic stamps; the pooled CNFET bank then
    adds its devices in place.  Each phase's triplets scatter through
    one local map, rebuilt whenever the recorded positions change
    (exactly like the sparse assembler's pattern)."""

    def __init__(self, name: str, scope: np.ndarray, n: int, node_index,
                 elements) -> None:
        self.name = name
        self.scope = scope
        self.n = n
        self.m = m = int(scope.size)
        #: local index of each global index (-1: outside the scope; the
        #: extra last entry is the bank's ground row ``n``)
        self.loc = np.full(n + 1, -1, dtype=np.intp)
        self.loc[scope] = np.arange(m)
        #: linear elements (the assembler pools their static groups)
        self.linear_els = [el for el in elements if not el.nonlinear]
        #: linear elements without a static group, stamped one by one
        #: (set by the assembler)
        self.fallback: List[Element] = []
        #: nonlinear elements stamped one by one (the assembler moves
        #: the part's share of its pooled CNFET bank out of this list)
        self.dynamic_els = [el for el in elements if el.nonlinear]
        #: this part's devices in the assembler's bank (set by it)
        self.bank_idx = np.empty(0, dtype=np.intp)
        self.static_ctx = TripletStampContext(n, node_index)
        self.dyn_ctx = TripletStampContext(n, node_index)
        self._maps: List[Optional[tuple]] = [None, None]
        # the fallback's static stamps, in the slot's layout
        self._fallback_static = np.zeros(m * m + m)
        self.offset = 0
        self.slot = self.sys = self.rhs = self.static = None

    def bind(self, buf: np.ndarray, static: np.ndarray, offset: int) -> None:
        """Place the part's slot at ``offset`` of the pooled buffer and
        of the pooled static phase ``static``."""
        m = self.m
        self.offset = offset
        self.slot = buf[offset:offset + m * m + m]
        self.static = static[offset:offset + m * m + m]
        self.sys = self.slot[:m * m].reshape(m, m)
        self.rhs = self.slot[m * m:]

    def _outside(self) -> AnalysisError:
        return AnalysisError(
            f"{self.name} stamped outside its scope; partition is "
            "inconsistent with the netlist")

    def _map(self, phase: int, flat: np.ndarray) -> np.ndarray:
        """Local ``row * m + col`` positions of one phase's recorded
        global flat positions."""
        cached = self._maps[phase]
        if cached is None or not np.array_equal(cached[0], flat):
            rows, cols = np.divmod(flat, self.n)
            rows, cols = self.loc[rows], self.loc[cols]
            if flat.size and min(rows.min(), cols.min()) < 0:
                raise self._outside()
            cached = self._maps[phase] = (flat.copy(), rows * self.m + cols)
        return cached[1]

    def stamp_static(self, step: StampContext) -> None:
        """Record the fallback linear elements' static stamps in the
        step context ``step`` (the static groups are pooled)."""
        if not self.fallback:
            return
        ctx = self.static_ctx
        _stamp(ctx, self.fallback, step)
        flat, val = ctx.triplets()
        m2 = self.m * self.m
        self._fallback_static[:m2] = np.bincount(
            self._map(0, flat), weights=val, minlength=m2)
        self._fallback_static[m2:] = ctx.rhs[self.scope]

    def assemble(self, step: StampContext, x: np.ndarray,
                 reuse_tol: float) -> None:
        """Reset the slot to the static phase and add the one-by-one
        dynamic stamps around iterate ``x``."""
        self.slot[:] = self.static
        if self.fallback:
            self.slot += self._fallback_static
        if self.dynamic_els:
            ctx = self.dyn_ctx
            _stamp(ctx, self.dynamic_els, step, x, reuse_tol)
            flat, val = ctx.triplets()
            np.add.at(self.slot, self._map(1, flat), val)
            self.rhs += ctx.rhs[self.scope]


def _compose(parts: Sequence[_Part], owner: np.ndarray, rows: np.ndarray,
             cols: np.ndarray, rhs_rows: np.ndarray, pad: int
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Positions in the pooled buffer of ``(kinds, E)`` entry tables
    (global rows and columns, ground as row ``n``) whose column ``e``
    is stamped by ``parts[owner[e]]``: matrix entries at ``offset + row
    * m + col`` and rhs rows at ``offset + m * m + row`` of the owner's
    slot, every grounded entry on ``pad``."""
    n = parts[0].n
    loc = np.stack([part.loc for part in parts])
    lr, lc, lh = loc[owner, rows], loc[owner, cols], loc[owner, rhs_rows]
    grounded = (rows == n) | (cols == n)
    bad = (((lr < 0) | (lc < 0)) & ~grounded).any(axis=0) \
        | ((lh < 0) & (rhs_rows != n)).any(axis=0)
    if bad.any():
        raise parts[owner[bad.argmax()]]._outside()
    offset = np.array([part.offset for part in parts])[owner]
    m = np.array([part.m for part in parts])[owner]
    return (np.where(grounded, pad, offset + lr * m + lc),
            np.where(rhs_rows == n, pad, offset + m * m + lh))


class _PooledStatic:
    """The static phase of every part, pooled like the CNFET bank.

    One :class:`~repro.circuit.elements.base.StaticPhase` spans the
    linear elements of every block, another the interface's: one static
    group per built-in class, its positions composed with the pooled
    buffer's layout once per analysis mode (grounded entries on a pad
    past the end).  :attr:`buf` holds every part's assembled static
    phase in that layout.  Its matrix is re-scattered only
    when the value key ``(analysis, dt, method)`` changes.  Per step a
    group is evaluated only once one of its parts is active, so a
    quiescent step with every block bypassed evaluates only the
    interface's classes; the rhs values of the other groups stay as
    they were (their parts read them only after re-evaluation)."""

    def __init__(self, parts: Sequence[_Part], node_index, n: int,
                 size: int) -> None:
        self.parts = parts
        self.size = size
        # the blocks' groups apart from the interface's (the last part,
        # active every step), so a step with every block bypassed
        # evaluates only the interface's few elements
        phases = [StaticPhase([[el for part in tier
                                for el in part.linear_els]], node_index, n)
                  for tier in (parts[:-1], parts[-1:])]
        self.groups = groups = [g for phase in phases for g in phase.groups]
        owner_of = {id(el): p for p, part in enumerate(parts)
                    for el in part.linear_els}
        in_fallback = {id(el) for phase in phases for el in phase.fallback}
        for part in parts:
            part.fallback = [el for el in part.linear_els
                             if id(el) in in_fallback]
        #: part index of every element of every group
        self._owners = [np.array([owner_of[id(el)] for el in g.elements],
                                 dtype=np.intp) for g in groups]
        #: the parts each group stamps into
        self._owner_sets = [set(owners.tolist())
                            for owners in self._owners]
        #: every part's static phase, laid out like the pooled buffer,
        #: and one last entry: the pad grounded entries land on
        self.buf = np.zeros(size + 1)
        self._layouts: Dict[bool, tuple] = {}
        self._key: Optional[tuple] = None
        #: every group's rhs values and the step they were taken at
        self._rhs: List[np.ndarray] = []
        self._serial = [-1] * len(groups)

    def _layout(self, tran: bool) -> tuple:
        """Pooled matrix positions of every group entry, and the rhs
        positions as ``(unique positions, inverse)`` of the mode."""
        cached = self._layouts.get(tran)
        if cached is None:
            m_pos, r_pos = [], []
            for group, owners in zip(self.groups, self._owners):
                rows, cols, rhs_rows = group.layout(tran)
                m, r = _compose(self.parts, owners, rows, cols, rhs_rows,
                                self.size)
                m_pos.append(m.ravel())
                r_pos.append(r.ravel())
            r_pos = np.concatenate(r_pos + [_NO_FLAT])
            cached = self._layouts[tran] = (
                np.concatenate(m_pos + [_NO_FLAT]),
                *np.unique(r_pos, return_inverse=True))
        return cached

    def stamp(self, step: StampContext, serial: int,
              active: Sequence[int]) -> None:
        """Bring the static phase of the ``active`` parts (indices into
        :attr:`parts`) up to the step context ``step``, whose id is
        ``serial``."""
        m_pos, r_uniq, r_inv = self._layout(transient_step(step))
        groups = self.groups
        key = (step.analysis, step.dt, step.method)
        if key != self._key:
            self._key = key
            matrix = np.concatenate([g.matrix(step) for g in groups]
                                    + [_EMPTY])
            self.buf[:] = np.bincount(m_pos, weights=matrix,
                                      minlength=self.size + 1)
            self._rhs = [g.rhs(step) for g in groups]
            self._serial = [serial] * len(groups)
        else:
            changed = False
            for i, owners in enumerate(self._owner_sets):
                if self._serial[i] != serial \
                        and not owners.isdisjoint(active):
                    rhs = groups[i].rhs(step)
                    # a group hands back the same array for unchanged
                    # values (the DC sources of a hold)
                    changed |= rhs is not self._rhs[i]
                    self._rhs[i] = rhs
                    self._serial[i] = serial
            if not changed:
                return
        self.buf[r_uniq] = np.bincount(r_inv, weights=np.concatenate(
            self._rhs + [_EMPTY]), minlength=r_uniq.size)


class _BlockState(_Part):
    """Runtime assembly/bypass state of one :class:`PartitionBlock`."""

    def __init__(self, block: PartitionBlock, n: int,
                 node_index) -> None:
        super().__init__(f"block {block.name!r}",
                         np.concatenate([block.internal, block.boundary]),
                         n, node_index, block.elements)
        self.block = block
        self.ni = block.n_internal
        self.nb = block.n_boundary
        # System reuse: a chord-frozen block restamps a bit-identical
        # system every iteration, so the Schur pieces built from its A
        # (X, s_add) carry over; only the right-hand side moves.
        # ``sys_serial`` ties a frozen dict to the matrix it was
        # computed from.
        self._a: Optional[np.ndarray] = None
        self._a_key: Optional[bytes] = None
        self.sys_serial = 0
        #: frozen Schur contribution (bypass state lives in the
        #: assembler's per-block arrays)
        self.frozen: Optional[dict] = None
        self.static_step = -1  # step id of the last static stamp
        self.wave_els = [el for el in block.elements
                         if _is_time_varying(el)] \
            if block.time_varying else []
        self.gpos: Optional[np.ndarray] = None  # set by the assembler
        self.seg: Optional[slice] = None        # slice into scope_all
        self.iseg: Optional[slice] = None       # slice into internal_all
        self.dseg: Optional[slice] = None       # slice into bsub data

    def take_system(self) -> bool:
        """Take ``A`` of the assembled system for this solve, unless
        the system is bit-identical to the last one taken; returns
        whether it was (Schur pieces tagged with :attr:`sys_serial`
        still hold)."""
        key = self.sys.tobytes()
        if self._a is not None and key == self._a_key:
            return True
        self._a = self.sys[:self.ni, :self.ni].copy()
        self._a_key = key
        self.sys_serial += 1
        return False

    def solve_a(self, b_stack: np.ndarray) -> np.ndarray:
        """Solve ``A X = B`` for a stacked ``(ni, k)`` right-hand side.

        Through numpy's LAPACK, like the interface solve and the Schur
        products: scipy ships a second OpenBLAS, and alternating
        between the two libraries' thread pools on a small core count
        left one pool's workers spinning against the other's (about
        2.5 ms per small block solve on a 2-core VM)."""
        return np.linalg.solve(self._a, b_stack)


class PartitionedAssembler:
    """Partition-aware two-phase assembler with latency bypass.

    Drop-in replacement for
    :class:`~repro.circuit.mna.TwoPhaseAssembler` (same
    ``begin_step`` / ``iterate`` / ``solve`` contract, consumed
    unchanged by :func:`~repro.circuit.mna.newton_solve`): each block
    assembles its bordered system independently and the blocks are
    coupled through a Schur-complement solve over the boundary nodes
    and interface unknowns.

    With ``bypass_tol > 0`` (transient analysis only) a block whose
    scope — internal unknowns plus boundary terminals — moved less
    than the tolerance (inf-norm, volts) since its last assembly is
    *bypassed*: no device evaluation, no stamping, no factorisation;
    its frozen Schur contribution is added directly.  Bypassed blocks
    are re-checked against the live iterate every Newton iteration and
    promoted back to active the moment their terminals move; a forced
    refresh after :data:`MAX_BYPASS_STEPS` bounds slow drift.  The
    approximation error is the chord-iteration error of
    ``NewtonOptions.jacobian_reuse_tol``, at block granularity.

    Parameters
    ----------
    circuit : Circuit
        The circuit to assemble (flattened).
    partition : Partition, optional
        A prebuilt partition; default builds
        ``partition_circuit(circuit)``.
    bypass_tol : float
        Latency-bypass tolerance in volts; ``0`` disables bypass.
    device_stats : dict, optional
        Receives the stacked CNFET solver counters, as in the
        monolithic assembler.

    Every block's system and the interface's live back to back in one
    pooled dense buffer.  The fast-backend CNFETs of every block and
    of the interface share one
    :class:`~repro.circuit.elements.cnfet.CNFETBank` whose entry table
    is composed with that layout once, so one stacked evaluation per
    Newton iteration stamps every active block's devices and the
    interface's in place, with the bank's exact-rhs chord on in
    transient steps only.
    """

    def __init__(self, circuit: Circuit,
                 partition: Optional[Partition] = None, *,
                 bypass_tol: float = 0.0,
                 device_stats: Optional[dict] = None) -> None:
        self.circuit = circuit
        self.partition = partition if partition is not None \
            else partition_circuit(circuit)
        if self.partition.circuit is not circuit:
            raise ParameterError(
                "partition was built for a different circuit")
        self.n = circuit.dimension()
        self.bypass_tol = float(bypass_tol)
        node_index = circuit.node_index
        self._blocks = [
            _BlockState(blk, self.n, node_index)
            for blk in self.partition.blocks]
        gamma = self.partition.gamma
        self.gamma = gamma
        self.ng = int(gamma.size)
        self._iface = _Part("interface element", gamma, self.n, node_index,
                            self.partition.interface_elements)
        parts = self._blocks + [self._iface]
        sizes = [part.m * part.m + part.m for part in parts]
        self._buf = np.zeros(sum(sizes))
        self._static = _PooledStatic(parts, node_index, self.n,
                                     self._buf.size)
        for part, offset in zip(parts, np.cumsum([0] + sizes[:-1])):
            part.bind(self._buf, self._static.buf, int(offset))
        # One CNFET bank pooled across every block and the interface:
        # per Newton iteration the assembler runs a single stacked
        # evaluation over the active blocks' and the interface's
        # devices, scattered straight into their slots (a bank per
        # block would pay the kernel's fixed call cost once per block
        # per iteration).
        banked, rest = split_bank_devices([part.dynamic_els
                                           for part in parts])
        pool = [el for els in banked for el in els]
        self._bank: Optional[CNFETBank] = None
        if pool:
            self._bank = CNFETBank(pool, node_index, self.n,
                                   stats=device_stats)
            ends = np.cumsum([len(els) for els in banked])
            for part, els, idx in zip(
                    parts, rest,
                    np.split(np.arange(len(pool)), ends[:-1])):
                part.dynamic_els = els
                part.bank_idx = idx
            owner = np.repeat(np.arange(len(parts)),
                              [len(els) for els in banked])
            bank = self._bank
            m_map, r_map = _compose(parts, owner, bank.rows, bank.cols,
                                    bank.rhs_rows, self._buf.size)
            self._bank_target = (self._buf, m_map.astype(np.int64),
                                 self._buf, r_map.astype(np.int64))
        for st in self._blocks:
            # boundary nodes' positions in the interface system
            st.gpos = self._iface.loc[st.block.boundary]
        self._step: Optional[StampContext] = None
        self._x: Optional[np.ndarray] = None
        self._first_reuse_tol: Optional[float] = None
        self._qprev_pending: Optional[np.ndarray] = None
        self._active_key: Optional[bytes] = None
        self._active: Optional[tuple] = None
        self._frozen_sig: Optional[tuple] = None
        self._frozen_S: Optional[np.ndarray] = None
        self._frozen_r: Optional[np.ndarray] = None
        # Fully-bypassed solve cache: when every block is bypassed the
        # global system is determined by the frozen contributions plus
        # the interface system alone, so if those are bit-identical to
        # the previous fully-bypassed solve the returned iterate is
        # too — a quiescent step skips the Schur solve and the
        # back-substitution entirely.  The signature holds the bytes
        # of the frozen versions and of the interface's slot.
        self._cache_sig: Optional[tuple] = None
        self._cache_x: Optional[np.ndarray] = None
        # Concatenated per-block scopes: drift checks for all blocks
        # collapse into one gather + one segmented max instead of a
        # Python loop of tiny numpy calls per block per iteration.
        blocks = self._blocks
        if blocks:
            scopes = [st.scope for st in blocks]
            self._scope_all = np.concatenate(scopes)
            lengths = [s.size for s in scopes]
            starts = np.zeros(len(blocks), dtype=np.intp)
            starts[1:] = np.cumsum(lengths[:-1])
            self._seg_starts = starts
            pos = 0
            for st, ln in zip(blocks, lengths):
                st.seg = slice(pos, pos + ln)
                pos += ln
        else:
            self._scope_all = np.empty(0, dtype=np.intp)
            self._seg_starts = np.empty(0, dtype=np.intp)
        self._frozen_x_all = np.zeros(self._scope_all.size)
        self._frozen_xp_all = np.zeros(self._scope_all.size)
        # Per-block bypass state as arrays, so a quiescent step decides
        # every block's bypass in a few array operations: the bypassed
        # mask, and the frozen state's step key (interned; -1 = never
        # frozen or frozen without x_prev), step size (nan = none), age
        # in steps, step id and version.
        nblk = len(blocks)
        self._bypassed = np.zeros(nblk, dtype=bool)
        self._fz_key = np.full(nblk, -1, dtype=np.intp)
        self._fz_dt = np.full(nblk, np.nan)
        self._fz_age = np.zeros(nblk, dtype=np.intp)
        self._fz_step = np.full(nblk, -1, dtype=np.intp)
        self._fz_version = np.zeros(nblk, dtype=np.intp)
        self._keys: Dict[tuple, int] = {}
        # blocks whose frozen (key, dt) match a step's, cached per
        # (key, dt, number of refreezes so far)
        self._refreezes = 0
        self._drift_memo: Dict[int, tuple] = {}
        self._match_sig: Optional[tuple] = None
        self._match = np.zeros(nblk, dtype=bool)
        self._wave_blocks = [i for i, st in enumerate(blocks)
                             if st.wave_els]
        # Fixed-pattern back-substitution operator: the per-block
        # ``x_b = y - X @ x_gamma`` matvecs stack into one CSR product
        # over every internal unknown (pattern = internal x gpos per
        # block, fixed for the life of the partition; only the data
        # changes, and only when a block is actively re-solved).
        self._internal_all = np.concatenate(
            [st.block.internal for st in blocks]) if blocks \
            else np.empty(0, dtype=np.intp)
        self._y_all = np.zeros(self._internal_all.size)
        self._bsub = None
        if HAVE_SCIPY and blocks:
            import scipy.sparse as _sp

            pos = ipos = 0
            indices_parts = []
            counts_parts = []
            for st in blocks:
                st.iseg = slice(ipos, ipos + st.ni)
                ipos += st.ni
                st.dseg = slice(pos, pos + st.ni * st.nb)
                pos += st.ni * st.nb
                if st.nb:
                    indices_parts.append(np.tile(st.gpos, st.ni))
                counts_parts.append(np.full(st.ni, st.nb, dtype=np.intp))
            indices = np.concatenate(indices_parts) if indices_parts \
                else np.empty(0, dtype=np.intp)
            counts = np.concatenate(counts_parts)
            indptr = np.zeros(self._internal_all.size + 1, dtype=np.intp)
            indptr[1:] = np.cumsum(counts)
            self._bsub = _sp.csr_matrix(
                (np.zeros(indices.size), indices, indptr),
                shape=(self._internal_all.size, max(self.ng, 1)))
        else:
            ipos = 0
            for st in blocks:
                st.iseg = slice(ipos, ipos + st.ni)
                ipos += st.ni
        #: counters read by the transient loop / benchmarks
        self.stats: Dict[str, int] = {
            "steps": 0,
            "block_steps_active": 0,
            "block_steps_bypassed": 0,
            "bypass_promotions": 0,
            "intra_step_refreezes": 0,
            "interface_solve_reuses": 0,
        }

    # -- assembler contract --------------------------------------------------

    def begin_step(self, *, analysis: str = "dc",
                   time: Optional[float] = None,
                   dt: Optional[float] = None,
                   x_prev: Optional[np.ndarray] = None,
                   method: str = "be", gmin: float = 1e-12,
                   source_scale: float = 1.0) -> None:
        """Assemble the static phase of the interface and of every
        block that cannot be bypassed this step."""
        step = StampContext(
            _NO_MATRIX, _EMPTY, self.circuit.node_index, None,
            analysis=analysis, time=time, dt=dt, x_prev=x_prev,
            method=method, gmin=gmin, source_scale=source_scale)
        self._step = step
        self._first_reuse_tol = None
        self.stats["steps"] += 1
        tol = self.bypass_tol
        bypassed = np.zeros(len(self._blocks), dtype=bool)
        key = self._keys.get((analysis, method, gmin, source_scale))
        if (tol > 0.0 and analysis == "tran" and x_prev is not None
                and key is not None):
            sig = (key, dt, self._refreezes)
            if sig != self._match_sig:
                self._match = ((self._fz_key == key)
                               & _dt_matches(self._fz_dt, dt))
                self._match_sig = sig
            bypassed = (self._match
                        & (self._fz_age < MAX_BYPASS_STEPS)
                        & self._within_tol(x_prev, self._frozen_xp_all))
            for i in self._wave_blocks:
                # A time-varying block stays bypassable while its
                # sources sit on a waveform plateau (values identical
                # to the frozen step); any ramp breaks the equality.
                st = self._blocks[i]
                if bypassed[i] and st.frozen["src_vals"] != tuple(
                        el.waveform.value(time) for el in st.wave_els):
                    bypassed[i] = False
        self._bypassed = bypassed
        self._fz_age += bypassed
        n_bypassed = int(np.count_nonzero(bypassed))
        self.stats["block_steps_bypassed"] += n_bypassed
        self.stats["block_steps_active"] += bypassed.size - n_bypassed
        active = (~bypassed).nonzero()[0].tolist()
        self._static.stamp(step, self.stats["steps"],
                           active + [len(self._blocks)])
        self._iface.stamp_static(step)
        for i in active:
            st = self._blocks[i]
            st.stamp_static(step)
            st.static_step = self.stats["steps"]
        self._qprev_pending = None
        if (self._bank is not None and analysis == "tran"
                and dt is not None and x_prev is not None):
            # per-step q_prev refresh for the active blocks' and the
            # interface's devices — deferred to the first Newton
            # iteration, whose iterate is x_prev itself: the companion
            # evaluation there computes the very charges q_prev needs,
            # saving a kernel call per step
            idx = self._active_parts()[1]
            self._qprev_pending = idx if idx.size else None

    def _within_tol(self, x: np.ndarray, frozen: np.ndarray) -> np.ndarray:
        """Per block: whether ``x`` stays within the bypass tolerance of
        ``frozen`` (the frozen iterates or previous solutions) over the
        block's scope — one gather and one segmented max for every
        block.  Memoised per ``frozen`` array on the bytes of ``x`` and
        the refreeze count: a quiescent run hands in the same vector
        step after step."""
        key = (x.tobytes(), self._refreezes)
        memo = self._drift_memo.get(id(frozen))
        if memo is not None and memo[0] == key:
            return memo[1]
        within = np.maximum.reduceat(
            np.abs(x[self._scope_all] - frozen),
            self._seg_starts) <= self.bypass_tol
        self._drift_memo[id(frozen)] = (key, within)
        return within

    def _active_parts(self) -> Tuple[List[_Part], np.ndarray]:
        """The parts assembled this iteration (the active blocks, then
        the interface) and their devices' bank positions, memoised on
        the bypassed mask."""
        key = self._bypassed.tobytes()
        if key != self._active_key:
            parts = [self._blocks[i]
                     for i in (~self._bypassed).nonzero()[0]] \
                + [self._iface]
            self._active = (parts, np.concatenate(
                [part.bank_idx for part in parts]))
            self._active_key = key
        return self._active

    def iterate(self, x: np.ndarray, reuse_tol: float = 0.0) -> None:
        """Stamp the dynamic phase around iterate ``x``; bypassed
        blocks are re-validated against the live iterate (and promoted
        to active when their scope moved or the Newton loop entered
        its stall fallback), and an active block that has stopped
        moving *within* the step is re-frozen mid-step: its Schur
        contribution from the last ``solve`` is reused for the
        remaining iterations (edge steps drag most blocks along for
        only their first iteration)."""
        if self._step is None:
            raise AnalysisError("begin_step must be called before iterate")
        if self._first_reuse_tol is None:
            self._first_reuse_tol = reuse_tol
        # a reuse_tol tightened mid-step is newton_solve's stall
        # fallback: drop every bypass for this step as well
        stalled = reuse_tol < self._first_reuse_tol
        tol = self.bypass_tol
        step_id = self.stats["steps"]
        bypassed = self._bypassed
        if (self._blocks and tol > 0.0 and not stalled
                and self._step.analysis == "tran"):
            still = self._within_tol(x, self._frozen_x_all)
        else:
            still = np.zeros(bypassed.size, dtype=bool)
        # the last solve froze these active blocks' contributions at a
        # linearisation point the iterate has not left: reuse them
        # instead of re-stamping and re-factorising
        refreeze = ~bypassed & still & (self._fz_step == step_id)
        promote = bypassed & ~still
        self.stats["intra_step_refreezes"] += int(np.count_nonzero(refreeze))
        for i in promote.nonzero()[0]:
            st = self._blocks[i]
            if st.static_step != step_id:
                # bypassed since begin_step: stamp the static phase it
                # skipped and move it to the active column (an
                # intra-step re-frozen block keeps its fresh static
                # phase and was already counted)
                self._static.stamp(self._step, step_id, [int(i)])
                st.stamp_static(self._step)
                st.static_step = step_id
                self.stats["bypass_promotions"] += 1
                self.stats["block_steps_bypassed"] -= 1
                self.stats["block_steps_active"] += 1
                step = self._step
                if (st.bank_idx.size and step.analysis == "tran"
                        and step.dt is not None
                        and step.x_prev is not None):
                    self._bank.refresh_charges(step.x_prev,
                                               st.bank_idx, reuse_tol)
        bypassed = (bypassed & still) | refreeze
        self._bypassed = bypassed
        step = self._step
        parts, idx = self._active_parts()
        for part in parts:
            part.assemble(step, x, reuse_tol)
        if idx.size:
            # one stacked companion evaluation for every active
            # block's and the interface's devices, stamped in place
            tran = transient_step(step)
            seed = False
            pending = self._qprev_pending
            if pending is not None:
                self._qprev_pending = None
                if np.array_equal(idx, pending) \
                        and np.array_equal(x, step.x_prev):
                    seed = True  # charges at x double as q_prev
                else:  # pragma: no cover - first iterate moved
                    self._bank.refresh_charges(step.x_prev, pending,
                                               reuse_tol)
            self._bank.companion(
                x, idx, target=self._bank_target, gmin=step.gmin,
                tran=tran, dt=step.dt,
                reuse_tol=reuse_tol if tran else 0.0, seed_qprev=seed)
        self._x = x

    # -- solve ----------------------------------------------------------------

    def solve(self) -> np.ndarray:
        """Couple the block solves through the interface and return the
        next global iterate (raises
        :class:`numpy.linalg.LinAlgError` on a singular block or
        interface system, which :func:`newton_solve` converts to an
        :class:`~repro.errors.AnalysisError`)."""
        if self._x is None:
            raise AnalysisError("iterate must be called before solve")
        blocks = self._blocks
        bypassed = self._bypassed
        all_byp = (bool(blocks) and self.ng > 0
                   and np.count_nonzero(bypassed) == bypassed.size)
        sig = None
        if all_byp:
            sig = (self._fz_version.tobytes(), self._iface.slot.tobytes())
            if self._cache_x is not None and sig == self._cache_sig:
                self.stats["interface_solve_reuses"] += 1
                return self._cache_x.copy()
        step = self._step
        x_prev = step.x_prev
        key = (-1 if x_prev is None else self._keys.setdefault(
            (step.analysis, step.method, step.gmin,
             step.source_scale), len(self._keys)))
        active = []
        for i in (~bypassed).nonzero()[0]:
            st = blocks[i]
            reusable = st.take_system()
            ni = st.ni
            E, F, C = st.sys[:ni, ni:], st.sys[ni:, :ni], st.sys[ni:, ni:]
            r_int, r_bd = st.rhs[:ni], st.rhs[ni:]
            fz0 = st.frozen
            if (reusable and fz0 is not None
                    and fz0["sys_serial"] == st.sys_serial):
                # matrix identical to the one the last frozen state was
                # built from: only the rhs moved, so the coupling
                # columns X and the Schur term survive — one single-rhs
                # solve replaces the stacked solve and the GEMM
                y = st.solve_a(r_int.reshape(-1, 1))[:, 0]
                X = fz0["X"]
                s_add = fz0["s_add"]
            else:
                stack = np.empty((ni, 1 + st.nb))
                stack[:, 0] = r_int
                stack[:, 1:] = E
                sol = st.solve_a(stack)
                y = sol[:, 0]
                X = sol[:, 1:]
                s_add = C - F @ X
            st.frozen = {
                "src_vals": tuple(el.waveform.value(step.time)
                                  for el in st.wave_els)
                if step.time is not None else (),
                "y": y, "X": X,
                "s_add": s_add,
                "r_contrib": r_bd - F @ y,
                "sys_serial": st.sys_serial,
            }
            self._fz_key[i] = key
            self._fz_dt[i] = np.nan if step.dt is None else step.dt
            self._fz_age[i] = 0
            self._fz_step[i] = self.stats["steps"]
            self._fz_version[i] += 1
            self._refreezes += 1
            self._frozen_x_all[st.seg] = self._x[st.scope]
            if x_prev is not None:
                self._frozen_xp_all[st.seg] = x_prev[st.scope]
            self._y_all[st.iseg] = y
            if self._bsub is not None and st.nb:
                self._bsub.data[st.dseg] = X.ravel()
            active.append(st)
        x_new = np.empty(self.n)
        if self.ng == 0:
            for st in blocks:
                x_new[st.block.internal] = st.frozen["y"]
            return x_new
        x_g = self._solve_interface(active)
        x_new[self.gamma] = x_g
        if self._bsub is not None:
            x_new[self._internal_all] = self._y_all - self._bsub @ x_g
        else:
            for st in blocks:
                fz = st.frozen
                if st.nb:
                    x_new[st.block.internal] = \
                        fz["y"] - fz["X"] @ x_g[st.gpos]
                else:
                    x_new[st.block.internal] = fz["y"]
        if all_byp:
            self._cache_sig = sig
            self._cache_x = x_new.copy()
        return x_new

    def _frozen_sums(self) -> Tuple[np.ndarray, np.ndarray]:
        """Summed Schur contributions of the bypassed blocks, cached
        across iterations and steps (a quiescent circuit re-scatters
        nothing): invalidated only when the bypassed set or one of its
        frozen factorizations changes."""
        bypassed = self._bypassed
        sig = (bypassed.tobytes(), self._fz_version[bypassed].tobytes())
        if sig != self._frozen_sig:
            S = np.zeros((self.ng, self.ng))
            r = np.zeros(self.ng)
            for i in bypassed.nonzero()[0]:
                st = self._blocks[i]
                if st.nb:
                    fz = st.frozen
                    S[np.ix_(st.gpos, st.gpos)] += fz["s_add"]
                    r[st.gpos] += fz["r_contrib"]
            self._frozen_sig = sig
            self._frozen_S = S
            self._frozen_r = r
        return self._frozen_S, self._frozen_r

    def _solve_interface(self, active: List[_BlockState]) -> np.ndarray:
        S_fz, r_fz = self._frozen_sums()
        S = self._iface.sys + S_fz
        r = self._iface.rhs + r_fz
        for st in active:
            if st.nb:
                fz = st.frozen
                S[np.ix_(st.gpos, st.gpos)] += fz["s_add"]
                r[st.gpos] += fz["r_contrib"]
        return np.linalg.solve(S, r)
