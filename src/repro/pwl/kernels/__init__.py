"""Kernel tiers for the stacked hot path.

The engines funnel through three measured hot kernels — the
:class:`~repro.pwl.batch.StackedVscSolver` region solve, the fused
CNFET bank stamp (``bank_stamp``: bias gather, chord check,
per-device bypass, VSC solve, companion, ``q_prev`` seeding and
scatter in one call per Newton iteration), and the scatter-add
stamping in the assemblers.
Each has two interchangeable implementations:

``numpy``
    Vectorized numpy (:mod:`repro.pwl.kernels.numpy_backend`) — the
    parity reference, zero dependencies.

``compiled`` (alias ``cc``)
    Per-lane loops compiled by the system C compiler and loaded
    through ctypes (``cc_backend``).  The same quantities lane for
    lane, to rounding: <= 1e-12 V on the VSC solve and 1e-12 relative
    on the bank stamp (the parity tests).  It also carries the
    frozen-pivot sparse LU refactorization lane.

Selection mirrors the sparse linear-solver resolve pattern
(:func:`repro.circuit.solvers.resolve_backend`): ``auto`` prefers the
compiled tier and falls back to numpy, the ``REPRO_KERNELS``
environment variable overrides the default, and the ``--kernels`` CLI
flag overrides both.  The active tier is process-global (stamp paths
sit too deep to thread a handle through): set it with
:func:`set_kernel_backend` or temporarily with :func:`using_kernels`.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator, Optional, Union

from repro import faults
from repro.errors import ParameterError

__all__ = [
    "KernelBackendLike",
    "active_kernel_backend",
    "compiled_backend_available",
    "resolve_kernel_backend",
    "set_kernel_backend",
    "using_kernels",
]

KernelBackendLike = Union[None, str, object]

#: Layout of a bank device's bypass anchor (one ``CNFETBank.anchor``
#: row; the ``N_ANCHOR`` define of ``_kernels.c``): its dt-independent
#: linearisation at the bias of its last full evaluation — the bias,
#: the current and its two conductances, the three terminal charges
#: (G, D, S) and their VGS and VDS partials.  A device's evaluation
#: state inside ``bank_stamp`` has the same layout.
N_ANCHOR = 14
A_VGS, A_VDS, A_IDS, A_GM, A_GDS = range(5)
A_Q, A_DQG, A_DQD = 5, 8, 11

#: Constants of the closed-form VSC solve, shared by the scalar
#: reference (:class:`~repro.pwl.selfconsistent.ClosedFormSolver`), the
#: numpy tier and the ``#define``s of ``_kernels.c`` (a tier-1 test
#: reads those back and compares).
#:
#: Residual [V] a closed-form root must beat to be accepted by a
#: kernel tier: g' >= 1 for non-increasing charge fits, so it bounds
#: the root error; healthy lanes sit near 1e-16.
RESIDUAL_TOL = 1e-12
#: acceptance slack [V] for a root at a region edge
EDGE_TOL = 1e-9
#: VDS resolution [V] of the drain shift (and of the scalar solver's
#: table cache key): Newton iterates and waveform samples carry float
#: noise well below it, and the residual is 1-Lipschitz in the shift,
#: so snapping perturbs the root by less than the quantum itself.
VDS_QUANTUM = 1e-12
VDS_SCALE = 1e12
#: a leading polynomial coefficient below this, relative to the
#: largest one, counts as zero (degree reduction of the root finders)
DEGREE_TOL = 1e-14

_ENV_VAR = "REPRO_KERNELS"

_numpy_backend = None
_compiled_backend = None
_compiled_error: Optional[str] = None
_compiled_probed = False

_active = None
_active_spec: Optional[str] = None


def _get_numpy_backend():
    global _numpy_backend
    if _numpy_backend is None:
        from repro.pwl.kernels.numpy_backend import NumpyKernelBackend
        _numpy_backend = NumpyKernelBackend()
    return _numpy_backend


def _get_compiled_backend():
    """Compiled (cc) backend instance, or None (error recorded)."""
    global _compiled_backend, _compiled_error, _compiled_probed
    if not _compiled_probed:
        _compiled_probed = True
        try:
            from repro.pwl.kernels.cc_backend import CcKernelBackend
            _compiled_backend = CcKernelBackend()
        except Exception as exc:
            _compiled_error = f"cc: {exc}"
    return _compiled_backend


def compiled_backend_available() -> bool:
    """True when the compiled (cc) tier can be instantiated."""
    return _get_compiled_backend() is not None


def resolve_kernel_backend(spec: KernelBackendLike = None):
    """Kernel backend for ``spec``.

    ``None`` and ``"auto"`` consult ``REPRO_KERNELS`` and then prefer
    the compiled tier, falling back to numpy; ``"numpy"`` forces the
    reference tier; ``"compiled"`` (or its alias ``"cc"``) requires
    the compiled tier and raises :class:`ParameterError` when it is
    unavailable.  A backend instance passes through unchanged.
    """
    if spec is None or spec == "auto":
        env = os.environ.get(_ENV_VAR, "").strip()
        if env and env != "auto":
            return resolve_kernel_backend(env)
        if faults.fire("kernel.backend"):
            # Injected compiled-tier probe failure: auto resolution
            # degrades to the numpy reference tier, equal within the
            # kernel parity contract (docs/robustness.md).
            return _get_numpy_backend()
        backend = _get_compiled_backend()
        return backend if backend is not None else _get_numpy_backend()
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "numpy":
            return _get_numpy_backend()
        if name in ("compiled", "cc"):
            backend = _get_compiled_backend()
            if backend is None:
                raise ParameterError(
                    f"kernel backend '{name}' unavailable "
                    f"({_compiled_error}); use --kernels numpy or "
                    "install a C compiler")
            return backend
        raise ParameterError(
            f"unknown kernel backend '{spec}' "
            "(expected auto, numpy, compiled or cc)")
    if hasattr(spec, "vsc_solve"):
        return spec
    raise ParameterError(f"unknown kernel backend spec: {spec!r}")


def active_kernel_backend():
    """The process-global kernel backend the stamp paths use."""
    global _active
    if _active is None:
        _active = resolve_kernel_backend(_active_spec)
    return _active


def set_kernel_backend(spec: KernelBackendLike = None):
    """Set (and return) the process-global kernel backend."""
    global _active, _active_spec
    _active = resolve_kernel_backend(spec)
    _active_spec = getattr(spec, "name", spec)
    return _active


@contextlib.contextmanager
def using_kernels(spec: KernelBackendLike) -> Iterator[object]:
    """Temporarily switch the process-global kernel backend."""
    global _active, _active_spec
    prev, prev_spec = _active, _active_spec
    backend = set_kernel_backend(spec)
    try:
        yield backend
    finally:
        _active, _active_spec = prev, prev_spec
