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
from pathlib import Path
from typing import Optional

import numpy as np

from repro.pwl.kernels import N_ANCHOR


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
    # every pointer is a c_void_p taking a buffer address (_address)
    i, p = ctypes.c_int64, _VP
    lib.stacked_vsc_solve.restype = i
    lib.stacked_vsc_solve.argtypes = [i] + [p] * 10 + [i, p, p, p]
    lib.bank_stamp.restype = i
    lib.bank_stamp.argtypes = [ctypes.POINTER(_Bank),
                               ctypes.POINTER(_StampCall)]
    lib.scatter_accum.restype = None
    lib.scatter_accum.argtypes = [p, p, p, i]
    lib.lu_refactor.restype = i
    lib.lu_refactor.argtypes = [i] + [p] * 12
    lib.lu_solve_factored.restype = None
    lib.lu_solve_factored.argtypes = [i] + [p] * 11
    lib.csc_residual_inf.restype = ctypes.c_double
    lib.csc_residual_inf.argtypes = [i] + [p] * 6


def _address(a: np.ndarray) -> int:
    """Buffer address of a C-contiguous array (a quarter of the cost of
    ``a.ctypes.data`` for writable ones)."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        # read-only or empty buffers
        if not a.flags.c_contiguous:
            raise ValueError("kernel buffers must be C-contiguous")
        return a.ctypes.data


def _as_f64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _as_i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


_VP = ctypes.c_void_p


class _Bank(ctypes.Structure):
    """``bank_t`` of ``_kernels.c``: a bank's persistent arrays."""

    _fields_ = [("p", ctypes.c_int64), ("gather", _VP), ("table", _VP)] + [
        (name, _VP) for name in (
            "sign", "length", "kt", "ef", "pref", "cg", "cd", "csum")
    ] + [("s_kbps", ctypes.c_int64)] + [
        (name, _VP) for name in (
            "s_bps", "s_lo", "s_hi", "s_polys", "s_cg", "s_cd", "s_csum")
    ] + [("c_kbps", ctypes.c_int64)] + [
        (name, _VP) for name in (
            "c_bps", "c_coeffs", "c_dcoeffs", "hint", "q_prev",
            "memo_vgs", "memo_vds", "memo_values", "memo_valid",
            "anchor", "vgs", "vds", "vsc", "bad")
    ]


class _StampCall(ctypes.Structure):
    """``stamp_call_t`` of ``_kernels.c``: one call's arguments."""

    _fields_ = [
        ("n", ctypes.c_int64), ("idx", _VP), ("x", _VP),
        ("gmin", ctypes.c_double), ("dt", ctypes.c_double),
        ("radius", ctypes.c_double), ("bypass", ctypes.c_double),
        ("tran", ctypes.c_int32), ("seed", ctypes.c_int32),
        ("charges_only", ctypes.c_int32), ("pass_", ctypes.c_int32),
        ("chord", ctypes.c_int32), ("n_bypassed", ctypes.c_int64),
        ("n_sub", ctypes.c_int64), ("sub", _VP),
        ("m_out", _VP), ("m_map", _VP), ("m_size", ctypes.c_int64),
        ("r_out", _VP), ("r_map", _VP), ("r_size", ctypes.c_int64),
    ]


class _BankBinding:
    """A bank's :class:`_Bank` pointer table, built once per bank: the
    bank's arrays are persistent (updated in place), so only the
    per-call fields of :class:`_StampCall` change between calls."""

    def __init__(self, bank) -> None:
        p = bank.p
        self.vgs = np.empty(p)
        self.vds = np.empty(p)
        self.vsc = np.empty(p)
        self.bad = np.empty(p, dtype=np.int64)
        solver, curves = bank.solver, bank.curves
        arrays = {
            "gather": bank.gather, "table": bank.table,
            "sign": bank.sign,
            "length": bank.length, "kt": bank.kt, "ef": bank.ef,
            "pref": bank.pref, "cg": bank.cg, "cd": bank.cd,
            "csum": bank.csum, "s_bps": solver.bps,
            "s_lo": solver.lo_edges, "s_hi": solver.hi_edges,
            "s_polys": solver.polys, "s_cg": solver.cg,
            "s_cd": solver.cd, "s_csum": solver.csum,
            "c_bps": curves.bps, "c_coeffs": curves.coeffs,
            "c_dcoeffs": curves.dcoeffs, "hint": bank.hint,
            "q_prev": bank.q_prev, "memo_vgs": bank.memo_vgs,
            "memo_vds": bank.memo_vds, "memo_values": bank.memo_values,
            "memo_valid": bank.memo_valid, "anchor": bank.anchor,
            "vgs": self.vgs, "vds": self.vds, "vsc": self.vsc,
            "bad": self.bad,
        }
        for name, array in arrays.items():
            dtype = np.int64 if name in ("gather", "table", "bad") \
                else np.bool_ if name == "memo_valid" else np.float64
            if array.dtype != dtype or not array.flags.c_contiguous:
                raise ValueError(f"bank array {name} must be C-contiguous "
                                 f"{np.dtype(dtype).name}")
        if bank.anchor.shape != (p, N_ANCHOR):
            raise ValueError(f"bank anchors must be ({p}, {N_ANCHOR})")
        #: pins every bound buffer for the binding's lifetime
        self._arrays = arrays
        self.p = p
        #: iterate size the gather table reads up to
        self.x_size = int(bank.gather.max(initial=-1)) + 1
        self.bank = _Bank(p=p, s_kbps=solver.bps.shape[1],
                          c_kbps=curves.bps.shape[1],
                          **{name: array.ctypes.data
                             for name, array in arrays.items()})
        self.call = _StampCall()
        self.bank_ref = ctypes.byref(self.bank)
        self.call_ref = ctypes.byref(self.call)
        self._maps = None

    def bind_maps(self, m_map: np.ndarray, r_map: np.ndarray) -> None:
        """Point the call at a target's index maps (persistent per
        consumer and analysis mode, so rebinding is rare)."""
        if self._maps is None or self._maps[0] is not m_map \
                or self._maps[1] is not r_map:
            m_buf, r_buf = _as_i64(m_map), _as_i64(r_map)
            if m_buf.shape != (17, self.p) or r_buf.shape != (5, self.p) \
                    or m_buf.min(initial=0) < 0 or r_buf.min(initial=0) < 0:
                raise ValueError("bank stamp maps must be non-negative "
                                 "(17, P) / (5, P) index tables")
            # the converted buffers stay pinned with the keys
            self._maps = (m_map, r_map, m_buf, r_buf)
            self.call.m_map = _address(m_buf)
            self.call.r_map = _address(r_buf)


class CcKernelBackend:
    """Compiled kernel tier: per-lane C loops through ctypes."""

    name = "cc"
    compiled = True

    def __init__(self) -> None:
        self._lib = build_library()

    # -- kernel 1: stacked VSC solve -----------------------------------

    def vsc_solve(self, solver, rows: np.ndarray, vgs: np.ndarray,
                  vds: np.ndarray, probe: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
        n = len(rows)
        rows64 = _as_i64(rows)
        vgs = _as_f64(vgs)
        vds = _as_f64(vds)
        probe = _as_f64(probe)
        bad = np.empty(n, dtype=np.int64)
        a = _address
        n_bad = self._lib.stacked_vsc_solve(
            n, a(rows64), a(vgs), a(vds),
            a(solver.bps), a(solver.lo_edges), a(solver.hi_edges),
            a(solver.polys), a(solver.cg), a(solver.cd), a(solver.csum),
            solver.bps.shape[1], a(probe), a(out), a(bad),
        )
        return bad[:n_bad]

    # -- kernel 2: fused CNFET bank stamp ------------------------------

    def bank_stamp(self, bank, x: np.ndarray, idx: Optional[np.ndarray],
                   *, gmin: float = 0.0, tran: bool = False,
                   dt: Optional[float] = None, radius: float = 0.0,
                   bypass: float = 0.0, seed_qprev: bool = False,
                   target=None, charges_only: bool = False) -> None:
        """The numpy tier's :meth:`bank_stamp` as one C call (two when
        a lane needs the exact scalar VSC fallback)."""
        binding = bank.kernel_state.get(self.name)
        if binding is None:
            binding = bank.kernel_state[self.name] = _BankBinding(bank)
        call = binding.call
        n = bank.p if idx is None else len(idx)
        x = _as_f64(x)
        if x.size < binding.x_size:
            raise ValueError(f"iterate of size {x.size} is too short for "
                             f"the bank's gather table ({binding.x_size})")
        call.n = n
        call.x = _address(x)
        if idx is None:
            call.idx = None
        else:
            idx = _as_i64(idx)
            if n and (idx.min() < 0 or idx.max() >= bank.p):
                raise ValueError("bank device selection out of range")
            call.idx = _address(idx)
        call.gmin = gmin
        call.dt = dt if dt is not None else 0.0
        call.radius = radius
        call.bypass = bypass
        call.tran = tran
        call.seed = seed_qprev
        call.charges_only = charges_only
        call.pass_ = 0
        if charges_only:
            call.m_out = call.r_out = None
        else:
            m_out, m_map, r_out, r_map = target
            if m_out.dtype != np.float64 or r_out.dtype != np.float64:
                raise ValueError("bank stamp targets must be float64")
            binding.bind_maps(m_map, r_map)
            # written in place: _address rejects a non-contiguous view
            call.m_out = _address(m_out)
            call.m_size = m_out.size
            call.r_out = _address(r_out)
            call.r_size = r_out.size
        n_bad = self._lib.bank_stamp(binding.bank_ref, binding.call_ref)
        if n_bad:
            # exact scalar fallback for the lanes neither region pair
            # solved, then a second pass over just those lanes
            bad = binding.bad[:n_bad]
            rows = bank.table[bad if idx is None else idx[bad]]
            solvers = bank.solver.solvers
            for k, r in zip(bad.tolist(), rows.tolist()):
                binding.vsc[k] = solvers[r].solve(
                    float(binding.vgs[k]), float(binding.vds[k]), 0.0)
            call.pass_ = 1
            call.n_sub = n_bad
            call.sub = _address(bad)
            self._lib.bank_stamp(binding.bank_ref, binding.call_ref)
        stats = bank.stats
        if stats is not None:
            stats["stacked_lanes"] = stats.get("stacked_lanes", 0) + n
            stats["stacked_fallbacks"] = \
                stats.get("stacked_fallbacks", 0) + n_bad
            stats["stacked_bypassed"] = \
                stats.get("stacked_bypassed", 0) + call.n_bypassed

    # -- kernel 3: sparse value scatter --------------------------------

    def scatter_accum(self, base: np.ndarray, map_idx: np.ndarray,
                      values: np.ndarray) -> np.ndarray:
        data = base.copy()
        map_idx = _as_i64(map_idx)
        values = _as_f64(values)
        self._lib.scatter_accum(_address(data), _address(map_idx),
                                _address(values), map_idx.size)
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
        a = _address
        return int(self._lib.lu_refactor(
            sym.n, a(sym.indptr), a(sym.indices), a(data), a(sym.pr),
            a(sym.pcinv), a(sym.lp), a(sym.li), a(sym.lx), a(sym.up),
            a(sym.ui), a(sym.ux), a(sym.work)))

    def lu_solve(self, sym, rhs: np.ndarray) -> np.ndarray:
        """Permute-forward-backward solve from ``lu_refactor``."""
        rhs = _as_f64(rhs)
        out = np.empty(sym.n)
        a = _address
        self._lib.lu_solve_factored(
            sym.n, a(sym.lp), a(sym.li), a(sym.lx), a(sym.up), a(sym.ui),
            a(sym.ux), a(sym.prinv), a(sym.pc), a(rhs), a(out),
            a(sym.work))
        return out

    def csc_residual(self, sym, data: np.ndarray, x: np.ndarray,
                     rhs: np.ndarray) -> float:
        """``max|A x - rhs|`` — the staleness guard of the lane."""
        x = _as_f64(x)
        rhs = _as_f64(rhs)
        a = _address
        return float(self._lib.csc_residual_inf(
            sym.n, a(sym.indptr), a(sym.indices), a(data), a(x), a(rhs),
            a(sym.work)))
