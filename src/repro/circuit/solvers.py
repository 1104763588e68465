"""Pluggable linear-solver backends for the MNA engine.

Every analysis solves ``A x = z`` systems produced by the two-phase
assembler, and the assembler builds one representation for every
backend: the symbolic sparsity pattern in the CSC layout SuperLU
consumes (``indices``/``indptr``, built once per run and analysis
mode) plus a freshly scattered ``data`` vector per Newton iteration.
Circuit matrices are sparse at every size, so one assembled pattern
serves any factorisation; a :class:`LinearSolverBackend` only decides
how to factor it:

* :class:`DenseBackend` — scatters ``data`` into a dense matrix
  through row-major positions cached per pattern and solves it with
  LAPACK (``np.linalg.solve``).  Fastest below a couple hundred
  unknowns, where LAPACK's constant factors win.
* :class:`SparseBackend` — factorises the CSC system with
  ``scipy.sparse.linalg.splu`` (on the compiled kernel tier, a
  frozen-pivot numeric refactorisation replays the first SuperLU
  factorisation).  Without scipy it solves through the dense backend,
  so it stays importable and correct everywhere.

Both also solve the lane-batched engine's ``(B, n, n)`` dense stacks
(:meth:`LinearSolverBackend.solve_stacked`).

:func:`resolve_backend` picks a backend: explicit ``"dense"`` /
``"sparse"`` strings (or instances) are honoured, ``"auto"`` /
``None`` selects sparse at or above :data:`SPARSE_AUTO_MIN_DIM`
unknowns when scipy is importable — the measured dense/sparse
crossover for MNA-shaped matrices on this codebase's workloads.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from repro.errors import AnalysisError, ParameterError
from repro.pwl.kernels import active_kernel_backend

try:  # pragma: no cover - exercised via the scipy-absent fallback test
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    csc_matrix = None
    splu = None
    HAVE_SCIPY = False

__all__ = [
    "LinearSolverBackend",
    "DenseBackend",
    "SparseBackend",
    "resolve_backend",
    "csc_pattern",
    "SPARSE_AUTO_MIN_DIM",
    "HAVE_SCIPY",
]

#: ``"auto"`` switches from dense to sparse at this system dimension.
#: Measured crossover for this engine's MNA matrices: a dense
#: ``np.linalg.solve`` beats SuperLU below ~250 unknowns (LAPACK
#: constant factors), loses by an order of magnitude at 800+.
SPARSE_AUTO_MIN_DIM = 256


class LinearSolverBackend:
    """Interface of a linear-solver backend.

    A backend factors the assembled MNA system; it does not change how
    the assembler (:class:`repro.circuit.mna.TwoPhaseAssembler`)
    represents it, which is always a CSC pattern plus a data vector.
    Backends keep only per-pattern caches across solves and may be
    shared between assemblers.
    """

    #: registry name (``"dense"`` / ``"sparse"``)
    name: str = "?"

    def solve_csc(self, n: int, data: np.ndarray, indices: np.ndarray,
                  indptr: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve one CSC-represented system (raises
        :class:`~repro.errors.AnalysisError` when singular).

        The assembler hands over its cached symbolic structure
        (``indices``/``indptr``, constant per run) with a freshly
        scattered ``data`` vector, real or complex.
        """
        raise NotImplementedError

    def solve_stacked(self, matrices: np.ndarray, rhs: np.ndarray
                      ) -> np.ndarray:
        """Solve a ``(B, n, n)`` stack of dense systems lane by lane.

        Singular lanes come back as NaN rows (the lane-batched engine
        routes non-finite lanes through its per-lane failure path)
        rather than poisoning the whole stack.
        """
        raise NotImplementedError

    def factorize_csc(self, n: int, data: np.ndarray,
                      indices: np.ndarray, indptr: np.ndarray):
        """Factorise one CSC system; the returned object exposes
        ``.solve(rhs)`` reusable across right-hand sides.

        ``None`` means the backend has no reusable factorisation (the
        caller must go through :meth:`solve_csc` instead) — the
        assembler uses this to reuse a factorisation across Newton
        iterations whose ``data`` vector is unchanged (the Jacobian-
        reuse chord path freezes the stamps, so the comparison is a
        cheap ``np.array_equal``).
        """
        return None


def _singular(exc: Exception) -> AnalysisError:
    """The singular-matrix diagnosis of a failed factorisation."""
    return AnalysisError(
        f"singular MNA matrix ({exc}); check for floating nodes")


#: patterns a backend keeps per-pattern objects for (about one per
#: live assembler pattern)
_PATTERN_CACHE_MAX = 8


class _PatternCache:
    """Per-pattern objects of a backend, most recently used first.

    A pattern is identified by its ``indices``/``indptr`` arrays, which
    are constant per assembler; the entries hold them, so the identity
    test is exact.  The entry tuple is replaced, never mutated, so a
    lookup needs no lock although backends are shared between threads
    (a lost concurrent insert only means one more ``build``).
    """

    def __init__(self) -> None:
        self._entries: tuple = ()

    def get(self, n: int, indices: np.ndarray, indptr: np.ndarray,
            build: Callable[[], object]):
        """The object cached for the pattern, ``build()`` on a miss."""
        entries = self._entries
        for entry in entries:
            if entry[0] is indices and entry[1] is indptr \
                    and entry[2] == n:
                if entry is not entries[0]:
                    self._entries = (entry,) + tuple(
                        e for e in entries if e is not entry)
                return entry[3]
        entry = (indices, indptr, n, build())
        self._entries = (entry,) + entries[:_PATTERN_CACHE_MAX - 1]
        return entry[3]


def csc_pattern(n: int, *flats: np.ndarray):
    """Symbolic CSC pattern of an ``n x n`` matrix plus scatter maps.

    ``flats`` are row-major flat positions (``row * n + col``, repeats
    allowed) of each stamping phase.  Returns ``(union, indices,
    indptr, maps)``: the sorted distinct positions, the CSC structure
    SuperLU consumes, and per phase the CSC data slot of every entry,
    so assembly is a value scatter with no format conversion.
    """
    union = np.unique(np.concatenate(flats))
    rows = union // n
    cols = union % n
    # union is sorted by (row, col); a stable argsort on the column
    # takes it to (col, row) — the CSC entry order.
    perm = np.argsort(cols, kind="stable")
    indices = rows[perm].astype(np.intp)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    csc_pos = np.empty(union.size, dtype=np.intp)
    csc_pos[perm] = np.arange(union.size)
    maps = [csc_pos[np.searchsorted(union, flat)] for flat in flats]
    return union, indices, indptr, maps


def _nan_fill_singular(matrices: np.ndarray, rhs: np.ndarray
                       ) -> np.ndarray:
    """Per-lane dense solves with NaN rows for singular lanes."""
    out = np.empty_like(rhs)
    for i in range(matrices.shape[0]):
        try:
            out[i] = np.linalg.solve(matrices[i], rhs[i])
        except np.linalg.LinAlgError:
            out[i] = np.nan
    return out


#: Relative residual ceiling of the frozen-pivot refactorization lane.
#: The guarded quantity is ``max|Ax-b| / (max|b| + max|A| * max|x|)``;
#: healthy solves sit at ~1e-16 (at or below SuperLU's own), a stale
#: pivot order shows up orders of magnitude above this line.
REFACTOR_GUARD_REL = 1e-11


class _LuSymbolic:
    """Frozen symbolic factorization for the compiled refactor lane.

    Holds the L/U sparsity patterns, permutations and numeric buffers
    that :meth:`CcKernelBackend.lu_refactor` replays against — all
    int64 / float64 contiguous so the C kernel consumes them directly.
    ``refresh`` re-derives everything from one scipy ``splu`` of the
    current values (``Equil=False`` so no hidden row/column scaling:
    ``Pr A Pc = L U`` exactly).
    """

    __slots__ = ("n", "indices", "indptr", "pr", "prinv", "pc", "pcinv",
                 "lp", "li", "lx", "up", "ui", "ux", "work", "refreshes")

    def __init__(self, n: int, indices: np.ndarray,
                 indptr: np.ndarray) -> None:
        self.n = n
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.work = np.zeros(n)
        self.refreshes = 0

    def refresh(self, matrix) -> None:
        """Rebuild patterns/permutations from a fresh ``splu`` of
        ``matrix`` (a csc_matrix holding the current values)."""
        lu = splu(matrix, options=dict(Equil=False))
        lower, upper = lu.L.tocsc(), lu.U.tocsc()
        lower.sort_indices()
        upper.sort_indices()
        n = self.n
        self.pr = lu.perm_r.astype(np.int64)
        self.pc = lu.perm_c.astype(np.int64)
        self.prinv = np.empty(n, dtype=np.int64)
        self.prinv[self.pr] = np.arange(n)
        self.pcinv = np.empty(n, dtype=np.int64)
        self.pcinv[self.pc] = np.arange(n)
        self.lp = lower.indptr.astype(np.int64)
        self.li = lower.indices.astype(np.int64)
        self.lx = np.ascontiguousarray(lower.data)
        self.up = upper.indptr.astype(np.int64)
        self.ui = upper.indices.astype(np.int64)
        self.ux = np.ascontiguousarray(upper.data)
        self.refreshes += 1


class _RefactorLU:
    """Factorization handle of the compiled refactor lane.

    Duck-types the SuperLU object the assembler expects
    (``.solve(rhs)``), but every solve is residual-guarded: the frozen
    pivot order can lose accuracy as the Jacobian values drift, in
    which case the handle transparently refreshes the symbolics from
    a fresh ``splu`` and re-solves.  Only the newest handle per
    pattern is valid — a later ``factorize_csc`` on the same pattern
    reuses (overwrites) the shared numeric buffers.
    """

    __slots__ = ("owner", "kern", "sym", "data", "scale")

    def __init__(self, owner: "SparseBackend", kern, sym: _LuSymbolic,
                 data: np.ndarray) -> None:
        self.owner = owner
        self.kern = kern
        self.sym = sym
        self.data = data
        self.scale = float(np.max(np.abs(data))) if data.size else 0.0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        sym = self.sym
        x = self.kern.lu_solve(sym, rhs)
        err = self.kern.csc_residual(sym, self.data, x, rhs)
        rhs_inf = float(np.max(np.abs(rhs))) if rhs.size else 0.0
        x_inf = float(np.max(np.abs(x))) if x.size else 0.0
        if err <= REFACTOR_GUARD_REL * (rhs_inf + self.scale * x_inf):
            return x
        # Stale pivot order: re-pivot on the current values and retry.
        try:
            matrix = self.owner._template(sym.n, self.data,
                                          sym.indices, sym.indptr)
            sym.refresh(matrix)
            if self.kern.lu_refactor(sym, self.data) == 0:
                x = self.kern.lu_solve(sym, rhs)
                err = self.kern.csc_residual(sym, self.data, x, rhs)
                if err <= REFACTOR_GUARD_REL * (
                        rhs_inf + self.scale * x_inf):
                    return x
            return splu(matrix).solve(rhs)  # pragma: no cover
        except RuntimeError as exc:  # pragma: no cover - singular
            raise _singular(exc) from exc


class DenseBackend(LinearSolverBackend):
    """Dense LAPACK solves of the assembled CSC system.

    :meth:`solve_csc` scatters ``data`` into an ``n x n`` matrix kept
    per pattern, through the pattern's row-major positions, and hands
    it to :meth:`solve_dense`, so every dense solve factorises afresh.
    Only the pattern's positions are ever written, so the rest of the
    matrix stays zero.  Keeping the matrix matters from a few hundred
    unknowns: a freshly allocated one made each LAPACK solve about a
    third slower at n = 708 (rca32, 2-core VM).
    """

    name = "dense"

    def __init__(self) -> None:
        #: pattern -> (row-major position of every CSC data slot, the
        #: pattern's dense matrix)
        self._scatter = _PatternCache()

    def solve_csc(self, n: int, data: np.ndarray, indices: np.ndarray,
                  indptr: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Scatter dense, then :meth:`solve_dense`."""
        flat, matrix = self._scatter.get(n, indices, indptr, lambda: (
            np.repeat(np.arange(n), np.diff(indptr)) + indices * n,
            np.zeros((n, n), dtype=data.dtype)))
        if matrix.dtype != data.dtype:
            matrix = np.zeros((n, n), dtype=data.dtype)
        matrix.put(flat, data)
        return self.solve_dense(matrix, rhs)

    def solve_dense(self, matrix: np.ndarray, rhs: np.ndarray
                    ) -> np.ndarray:
        """``np.linalg.solve`` with the singular-matrix diagnosis."""
        try:
            return np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise _singular(exc) from exc

    def solve_stacked(self, matrices: np.ndarray, rhs: np.ndarray
                      ) -> np.ndarray:
        """One batched LAPACK call; singular lanes re-solved one by
        one so a single bad lane cannot fail the stack."""
        try:
            return np.linalg.solve(matrices, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            return _nan_fill_singular(matrices, rhs)


class SparseBackend(LinearSolverBackend):
    """SuperLU factorisation of the assembled CSC system.

    The assembler hands over the (per-run constant) CSC pattern plus a
    freshly scattered data vector each Newton iteration;
    ``scipy.sparse.linalg.splu`` factorises and solves.  Without scipy
    every solve goes through the dense backend — same answers, none of
    the asymptotic win, zero hard dependency.
    """

    name = "sparse"

    def __init__(self) -> None:
        #: pattern -> reusable ``csc_matrix`` shell (see _template)
        self._templates = _PatternCache()
        #: pattern -> _LuSymbolic of the compiled refactorisation lane
        self._symbolics = _PatternCache()

    def _template(self, n: int, data: np.ndarray, indices: np.ndarray,
                  indptr: np.ndarray):
        """Cached ``csc_matrix`` shell for a (per-run constant)
        symbolic pattern, holding ``data``.

        Building a ``csc_matrix`` from raw arrays re-runs index-dtype
        selection, downcast copies and format validation on every
        call — ~20% of a factorisation for MNA-sized systems.  The
        pattern arrays are constant per assembler, so the shell is
        built once and only its ``data`` vector is swapped per solve.
        """
        matrix = self._templates.get(n, indices, indptr, lambda: (
            csc_matrix((data, indices.astype(np.int32),
                        indptr.astype(np.int32)), shape=(n, n))))
        matrix.data = data
        return matrix

    def solve_csc(self, n: int, data: np.ndarray, indices: np.ndarray,
                  indptr: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Factorise-and-solve one CSC system."""
        if not HAVE_SCIPY:
            return _DENSE.solve_csc(n, data, indices, indptr, rhs)
        try:
            return splu(self._template(n, data, indices,
                                       indptr)).solve(rhs)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise _singular(exc) from exc

    def factorize_csc(self, n: int, data: np.ndarray,
                      indices: np.ndarray, indptr: np.ndarray):
        """Factor object (``.solve(rhs)``), or ``None`` without scipy
        (the dense solve has nothing to reuse).

        With the compiled kernel tier active this is the frozen-pivot
        refactorization lane: the (per-run constant) L/U patterns and
        permutations come from one SuperLU factorization, every
        subsequent Newton iteration replays only the numeric phase in
        C (~10x cheaper than ``splu`` for MNA-sized systems) and each
        solve is residual-guarded against pivot staleness.  The numpy
        kernel tier — and any zero-pivot pathology — takes the plain
        SuperLU path, byte for byte the historical behaviour.
        """
        if not HAVE_SCIPY:
            return None
        kern = active_kernel_backend()
        try:
            if getattr(kern, "lu_refactor", None) is None:
                return splu(self._template(n, data, indices, indptr))
            sym = self._symbolics.get(
                n, indices, indptr,
                lambda: _LuSymbolic(n, indices, indptr))
            if sym.refreshes == 0:
                sym.refresh(self._template(n, data, indices, indptr))
            if kern.lu_refactor(sym, data) != 0:
                # zero pivot under the frozen order: re-pivot once on
                # the current values before giving up on the lane
                sym.refresh(self._template(n, data, indices, indptr))
                if kern.lu_refactor(sym, data) != 0:
                    return splu(self._template(n, data, indices, indptr))
            return _RefactorLU(self, kern, sym, data)
        except RuntimeError as exc:
            raise _singular(exc) from exc

    def solve_stacked(self, matrices: np.ndarray, rhs: np.ndarray
                      ) -> np.ndarray:
        """Per-lane SuperLU solves of a dense-stamped stack.

        The lane-batched engine stamps dense stacks (vectorized
        scatter-adds need rectangular buffers); converting one lane's
        ``(n, n)`` buffer to CSC is O(n^2) against the O(n^3) dense
        solve it replaces, so the conversion pays for itself from a
        few hundred unknowns — exactly where :func:`resolve_backend`
        starts picking this backend.
        """
        if not HAVE_SCIPY:
            return _DENSE.solve_stacked(matrices, rhs)
        out = np.empty_like(rhs)
        for i in range(matrices.shape[0]):
            try:
                out[i] = splu(csc_matrix(matrices[i])).solve(rhs[i])
            except RuntimeError:
                out[i] = np.nan
        return out


_DENSE = DenseBackend()
_SPARSE = SparseBackend()

BackendLike = Union[None, str, LinearSolverBackend]


def resolve_backend(backend: BackendLike,
                    dimension: Optional[int] = None
                    ) -> LinearSolverBackend:
    """Resolve a backend spec to an instance.

    Parameters
    ----------
    backend : None, str or LinearSolverBackend
        ``None`` / ``"auto"`` — dense below
        :data:`SPARSE_AUTO_MIN_DIM` unknowns or when scipy is missing,
        sparse otherwise.  ``"dense"`` / ``"sparse"`` force a backend
        (``"sparse"`` works without scipy through its numpy fallback).
        Instances pass through.
    dimension : int, optional
        System size used by the auto rule (``None`` means unknown and
        resolves dense).
    """
    if isinstance(backend, LinearSolverBackend):
        return backend
    if backend is None or backend == "auto":
        if HAVE_SCIPY and dimension is not None \
                and dimension >= SPARSE_AUTO_MIN_DIM:
            return _SPARSE
        return _DENSE
    if backend == "dense":
        return _DENSE
    if backend == "sparse":
        return _SPARSE
    raise ParameterError(
        f"unknown linear-solver backend {backend!r}; expected 'auto', "
        f"'dense', 'sparse' or a LinearSolverBackend instance"
    )
