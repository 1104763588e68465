"""Compiled kernel tier backed by a C shared library.

The C source (``_kernels.c``, pure C99 + libm) is compiled **on
demand** with the system C compiler into a cache directory and loaded
through :mod:`ctypes` — no build-time extension machinery, no runtime
dependency beyond a compiler being present once.  The build is keyed
by a hash of the source, so editing ``_kernels.c`` transparently
rebuilds; concurrent builds are safe (compile to a unique temp name,
``os.replace`` into place).

Float contraction is disabled (``-ffp-contract=off``): FMA fusion
would change the rounding sequence relative to the numpy reference
the parity suite compares against.  Remaining differences come from
libm-vs-SIMD transcendentals (a few ulp) and are bounded engine-side
by the residual validation and the <= 1e-12 V waveform parity gate.

``build_library`` raises :class:`KernelBuildError` when no compiler is
available; :func:`repro.pwl.kernels.resolve_kernel_backend` treats
that as "tier unavailable" and falls back to numpy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Tuple

import numpy as np


class KernelBuildError(RuntimeError):
    """The compiled kernel library could not be built or loaded."""


_SOURCE = Path(__file__).resolve().parent / "_kernels.c"
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]

_lib: Optional[ctypes.CDLL] = None
_build_error: Optional[str] = None


def _compiler() -> Optional[str]:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro-kernels"


def build_library(force: bool = False) -> ctypes.CDLL:
    """Compile (if needed) and load the kernel shared library."""
    global _lib, _build_error
    if _lib is not None and not force:
        return _lib
    if _build_error is not None and not force:
        raise KernelBuildError(_build_error)
    try:
        _lib = _build_library()
        _build_error = None
        return _lib
    except KernelBuildError as exc:
        _build_error = str(exc)
        raise


def _build_library() -> ctypes.CDLL:
    if not _SOURCE.exists():
        raise KernelBuildError(f"kernel source missing: {_SOURCE}")
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(
        source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = cache / f"repro_kernels_{key}.so"
    if not lib_path.exists():
        cc = _compiler()
        if cc is None:
            raise KernelBuildError(
                "no C compiler found (set $CC, or install gcc/clang)")
        try:
            cache.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise KernelBuildError(
                f"cannot create kernel cache {cache}: {exc}") from exc
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        cmd = [cc, *_CFLAGS, str(_SOURCE), "-o", tmp, "-lm"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120)
        except (OSError, subprocess.TimeoutExpired) as exc:
            os.unlink(tmp)
            raise KernelBuildError(f"kernel compile failed: {exc}") from exc
        if proc.returncode != 0:
            os.unlink(tmp)
            raise KernelBuildError(
                f"kernel compile failed ({' '.join(cmd)}):\n{proc.stderr}")
        os.replace(tmp, lib_path)
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError as exc:
        raise KernelBuildError(
            f"cannot load kernel library {lib_path}: {exc}") from exc
    _declare(lib)
    return lib


def _declare(lib: ctypes.CDLL) -> None:
    c_idx = ctypes.c_int64
    p_d = ctypes.POINTER(ctypes.c_double)
    p_i = ctypes.POINTER(ctypes.c_int64)
    lib.stacked_vsc_solve.restype = c_idx
    lib.stacked_vsc_solve.argtypes = [
        c_idx, p_i, p_d, p_d, p_d, p_d, p_d, p_d, p_d, p_d, p_d,
        c_idx, p_d, p_d, p_i,
    ]
    lib.cnfet_companion.restype = None
    lib.cnfet_companion.argtypes = [
        c_idx, p_i, p_d, p_d, p_d, p_d, p_d, p_d, p_d, p_d, p_d, p_d,
        p_d, p_d, p_d, p_d, c_idx, c_idx, p_d,
        ctypes.c_double, ctypes.c_int, ctypes.c_double, p_d, p_d,
    ]
    lib.scatter_add_pad.restype = None
    lib.scatter_add_pad.argtypes = [p_d, c_idx, p_i, p_d, c_idx]
    lib.triplet_append.restype = c_idx
    lib.triplet_append.argtypes = [p_i, p_d, c_idx, c_idx, p_i, p_d]
    lib.scatter_accum.restype = None
    lib.scatter_accum.argtypes = [p_d, p_i, p_d, c_idx]
    lib.lu_refactor.restype = c_idx
    lib.lu_refactor.argtypes = [
        c_idx, p_i, p_i, p_d, p_i, p_i,
        p_i, p_i, p_d, p_i, p_i, p_d, p_d,
    ]
    lib.lu_solve_factored.restype = None
    lib.lu_solve_factored.argtypes = [
        c_idx, p_i, p_i, p_d, p_i, p_i, p_d, p_i, p_i, p_d, p_d, p_d,
    ]
    lib.csc_residual_inf.restype = ctypes.c_double
    lib.csc_residual_inf.argtypes = [c_idx, p_i, p_i, p_d, p_d, p_d, p_d]


_P_D = ctypes.POINTER(ctypes.c_double)
_P_I = ctypes.POINTER(ctypes.c_int64)


def _pd(a: np.ndarray):
    return a.ctypes.data_as(_P_D)


def _pi(a: np.ndarray):
    return a.ctypes.data_as(_P_I)


def _as_f64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _as_i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


class _PtrCache:
    """Identity-keyed LRU of ctypes pointers.

    ``ndarray.ctypes.data_as`` costs ~8 us per call; a hot solve
    marshals ~20 *persistent* arrays (solver/bank parameter tables)
    per Newton iteration, so their pointers are cached by object
    identity.  The cache holds a strong reference to each keyed array,
    which both pins the buffer and keeps the id stable; per-call
    arrays simply churn through the LRU tail.
    """

    def __init__(self, cap: int = 128) -> None:
        self._cap = cap
        self._map: "OrderedDict" = OrderedDict()

    def _get(self, a: np.ndarray, typ):
        key = (id(a), typ is _P_I)
        hit = self._map.get(key)
        if hit is not None and hit[0] is a:
            self._map.move_to_end(key)
            return hit[1]
        p = a.ctypes.data_as(typ)
        self._map[key] = (a, p)
        if len(self._map) > self._cap:
            self._map.popitem(last=False)
        return p

    def pd(self, a: np.ndarray):
        return self._get(a, _P_D)

    def pi(self, a: np.ndarray):
        return self._get(a, _P_I)


class CcKernelBackend:
    """Compiled kernel tier: per-lane C loops through ctypes."""

    name = "cc"
    compiled = True

    def __init__(self) -> None:
        self._lib = build_library()
        self._ptrs = _PtrCache()
        self._aranges: dict = {}

    def _all_rows(self, n: int) -> np.ndarray:
        """Cached ``arange(n)`` row selection (an all-devices call)."""
        rows = self._aranges.get(n)
        if rows is None:
            rows = self._aranges[n] = np.arange(n, dtype=np.int64)
        return rows

    # -- kernel 1: stacked VSC solve -----------------------------------

    def vsc_solve(self, solver, rows: np.ndarray, idx, vgs: np.ndarray,
                  vds: np.ndarray, hint: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
        n = len(rows)
        rows64 = _as_i64(rows)
        vgs = _as_f64(vgs)
        vds = _as_f64(vds)
        bad = np.empty(n, dtype=np.int64)
        cp = self._ptrs
        n_bad = self._lib.stacked_vsc_solve(
            n, cp.pi(rows64), _pd(vgs), _pd(vds),
            cp.pd(solver.bps), cp.pd(solver.lo_edges),
            cp.pd(solver.hi_edges), cp.pd(solver.polys),
            cp.pd(solver.cg), cp.pd(solver.cd),
            cp.pd(solver.csum), solver.bps.shape[1],
            cp.pd(hint), _pd(out), _pi(bad),
        )
        return bad[:n_bad]

    # -- kernel 2: stacked companion bank evaluation -------------------

    def cnfet_companion(self, bank, didx: Optional[np.ndarray],
                        vsc: np.ndarray, vgs: np.ndarray,
                        vds: np.ndarray, gmin: float, tran: bool, dt
                        ) -> Tuple[np.ndarray, np.ndarray]:
        n = vsc.size
        didx64 = self._all_rows(n) if didx is None else _as_i64(didx)
        vsc = _as_f64(vsc)
        vgs = _as_f64(vgs)
        vds = _as_f64(vds)
        curves = bank.curves
        values = np.empty((17 if tran else 8, n))
        rhs_values = np.empty((5 if tran else 2, n))
        cp = self._ptrs
        self._lib.cnfet_companion(
            n, cp.pi(didx64), _pd(vsc), _pd(vgs), _pd(vds),
            cp.pd(bank.sign), cp.pd(bank.length), cp.pd(bank.kt),
            cp.pd(bank.ef), cp.pd(bank.pref), cp.pd(bank.cg),
            cp.pd(bank.cd), cp.pd(bank.csum),
            cp.pd(curves.bps), cp.pd(curves.coeffs),
            cp.pd(curves.dcoeffs),
            curves.bps.shape[0], curves.bps.shape[1],
            cp.pd(bank.q_prev),
            float(gmin), int(bool(tran)),
            float(dt) if dt is not None else 0.0,
            _pd(values), _pd(rhs_values),
        )
        return values, rhs_values

    # -- kernel 3: scatter-add stamping --------------------------------

    def scatter_add_pad(self, out: np.ndarray, m_idx: np.ndarray,
                        m_val: np.ndarray) -> None:
        m_idx = _as_i64(m_idx)
        m_val = _as_f64(m_val)
        self._lib.scatter_add_pad(_pd(out), out.size, _pi(m_idx),
                                  _pd(m_val), m_idx.size)

    def triplet_append(self, m_idx: np.ndarray, m_val: np.ndarray,
                       dim2: int, out_idx: np.ndarray,
                       out_val: np.ndarray, offset: int) -> int:
        m_idx = _as_i64(m_idx)
        m_val = _as_f64(m_val)
        kept = self._lib.triplet_append(
            _pi(m_idx), _pd(m_val), m_idx.size, dim2,
            _pi(out_idx[offset:]), _pd(out_val[offset:]),
        )
        return int(kept)

    def scatter_accum(self, base: np.ndarray, map_idx: np.ndarray,
                      values: np.ndarray) -> np.ndarray:
        data = base.copy()
        map_idx = _as_i64(map_idx)
        values = _as_f64(values)
        self._lib.scatter_accum(_pd(data), _pi(map_idx), _pd(values),
                                map_idx.size)
        return data

    # -- kernel 4: frozen-pivot LU refactorization ---------------------

    def lu_refactor(self, sym, data: np.ndarray) -> int:
        """Numeric refactorization into ``sym``'s L/U buffers.

        ``sym`` is the symbolic-factorization record built by
        :class:`repro.circuit.solvers.SparseBackend` (frozen patterns,
        permutations and value buffers, all int64 / float64
        contiguous).  Returns 0 on success, a 1-based column index on
        a zero pivot — the caller refreshes the symbolics.
        """
        cp = self._ptrs
        return int(self._lib.lu_refactor(
            sym.n, cp.pi(sym.indptr), cp.pi(sym.indices), _pd(data),
            cp.pi(sym.pr), cp.pi(sym.pcinv),
            cp.pi(sym.lp), cp.pi(sym.li), cp.pd(sym.lx),
            cp.pi(sym.up), cp.pi(sym.ui), cp.pd(sym.ux),
            cp.pd(sym.work)))

    def lu_solve(self, sym, rhs: np.ndarray) -> np.ndarray:
        """Permute-forward-backward solve from ``lu_refactor``."""
        rhs = _as_f64(rhs)
        out = np.empty(sym.n)
        cp = self._ptrs
        self._lib.lu_solve_factored(
            sym.n, cp.pi(sym.lp), cp.pi(sym.li), cp.pd(sym.lx),
            cp.pi(sym.up), cp.pi(sym.ui), cp.pd(sym.ux),
            cp.pi(sym.prinv), cp.pi(sym.pc),
            _pd(rhs), _pd(out), cp.pd(sym.work))
        return out

    def csc_residual(self, sym, data: np.ndarray, x: np.ndarray,
                     rhs: np.ndarray) -> float:
        """``max|A x - rhs|`` — the staleness guard of the lane."""
        x = _as_f64(x)
        rhs = _as_f64(rhs)
        cp = self._ptrs
        return float(self._lib.csc_residual_inf(
            sym.n, cp.pi(sym.indptr), cp.pi(sym.indices), _pd(data),
            _pd(x), _pd(rhs), cp.pd(sym.work)))
