"""AC small-signal analysis.

Linearises the circuit around its DC operating point and solves the
complex MNA system ``(G + j w C) x = b`` per frequency:

* resistive/conductance stamps are reused from the DC assembly at the
  operating point (nonlinear elements contribute their gm/gds there);
* energy-storage stamps are collected by a second assembly pass with a
  unit time step, from which the capacitance matrix is recovered as the
  difference between the transient and DC Jacobians (backward-Euler
  companion conductance is exactly ``C/dt``);
* one independent source is designated as the AC input with unit
  magnitude, SPICE-style.

The ``G`` and ``C`` buffers are stamped **once** for the whole sweep
and gathered onto their union sparsity pattern in CSC order; per
frequency only the scaled sum ``G + j w C`` of the two data vectors
changes, and every linear-solver backend factors that one CSC system.
A circuit with no energy-storage stamps (``C == 0``) is
frequency-independent, so it is factorised and solved exactly once.

This covers the classic compact-model use cases — gain/bandwidth of a
CNFET stage, input capacitance extraction — without any element needing
a dedicated AC stamp.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.circuit.elements.sources import CurrentSource, VoltageSource
from repro.circuit.mna import NewtonOptions, assemble, robust_dc_solve
from repro.circuit.netlist import Circuit
from repro.circuit.results import Dataset
from repro.circuit.solvers import BackendLike, resolve_backend
from repro.errors import AnalysisError, NetlistError, ParameterError


def ac_analysis(
    circuit: Circuit,
    source_name: str,
    frequencies_hz: Sequence[float],
    options: NewtonOptions = NewtonOptions(),
    backend: BackendLike = None,
) -> Dataset:
    """Frequency sweep with a unit AC excitation on ``source_name``.

    Returns a :class:`Dataset` with axis ``frequency`` and complex-
    magnitude/phase traces ``vm(node)`` [V], ``vp(node)`` [degrees].
    ``backend`` selects the linear-solver backend (``"auto"`` /
    ``"dense"`` / ``"sparse"``) for the operating point and the
    per-frequency complex solves.

    Raises
    ------
    NetlistError
        If ``source_name`` is not an independent source.
    ParameterError
        For empty or non-positive frequency lists.
    """
    freqs = [float(f) for f in frequencies_hz]
    if not freqs:
        raise ParameterError("frequency list is empty")
    if any(f <= 0.0 for f in freqs):
        raise ParameterError(f"frequencies must be > 0: {freqs}")
    source = circuit.element(source_name)
    if not isinstance(source, (VoltageSource, CurrentSource)):
        raise NetlistError(f"{source_name!r} is not an independent source")

    # 1. DC operating point.
    circuit.reset_state()
    x_op = robust_dc_solve(circuit, None, options, backend=backend)
    n = circuit.dimension()
    solver = resolve_backend(backend, n)

    # 2. Small-signal conductance matrix at the operating point.
    ctx_dc = assemble(circuit, x_op, analysis="dc")
    g_matrix = ctx_dc.matrix.copy()

    # 3. Capacitance matrix: the BE companion adds exactly C/dt to the
    #    Jacobian, so one transient assembly isolates C.  The probe dt
    #    is chosen so C/dt lands on the same order as the conductance
    #    stamps: extracting at dt = 1 (as this pass historically did)
    #    left the fF-scale charge companions ~12 orders below the gm
    #    stamps, and the subtraction returned C with only ~4
    #    significant digits — visible as 1e-4-relative noise in the
    #    capacitance-dominated end of the sweep.
    probe_dt = 1e-12
    ctx_tr = assemble(circuit, x_op, analysis="tran", time=0.0,
                      dt=probe_dt, x_prev=x_op, method="be")
    c_matrix = (ctx_tr.matrix - g_matrix) * probe_dt

    # 4. Unit excitation vector on the chosen source.
    b = np.zeros(n, dtype=complex)
    if isinstance(source, VoltageSource):
        b[source.aux_index] = 1.0
    else:
        a, bb = source.nodes
        ia = circuit.node_index.get(a, -1) if a not in ("0", "gnd") else -1
        ib = circuit.node_index.get(bb, -1) if bb not in ("0", "gnd") else -1
        if ia >= 0:
            b[ia] -= 1.0
        if ib >= 0:
            b[ib] += 1.0

    dataset = Dataset("frequency", freqs)
    solutions = _solve_frequency_sweep(solver, g_matrix, c_matrix, b,
                                       freqs)
    for node, idx in circuit.node_index.items():
        dataset.add_trace(f"vm({node})", np.abs(solutions[:, idx]))
        dataset.add_trace(
            f"vp({node})", np.degrees(np.angle(solutions[:, idx]))
        )
    return dataset


def _solve_frequency_sweep(solver, g_matrix: np.ndarray,
                           c_matrix: np.ndarray, b: np.ndarray,
                           freqs: Sequence[float]) -> np.ndarray:
    """Solve ``(G + j w C) x = b`` per frequency through ``solver``.

    One structural pass gathers the stamped ``G``/``C`` buffers onto
    their union sparsity pattern in CSC order; each frequency then
    only combines the two aligned data vectors and hands the shared
    structure to the backend — no per-point matrix addition or format
    conversion.  With ``C == 0`` the system is frequency-independent:
    one factorise-and-solve serves the whole sweep.
    """
    n = b.size
    mask = (g_matrix != 0.0) | (c_matrix != 0.0)
    cols, rows = np.nonzero(mask.T)  # column-major entry order
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    g_data = g_matrix[rows, cols].astype(complex)
    c_data = c_matrix[rows, cols].astype(complex)
    static = not c_data.any()
    solutions = np.empty((len(freqs), n), dtype=complex)
    for k, f in enumerate(freqs):
        omega = 2.0 * np.pi * f
        try:
            solutions[k] = solver.solve_csc(
                n, g_data + (1j * omega) * c_data, rows, indptr, b)
        except AnalysisError as exc:
            raise AnalysisError(
                f"singular AC system at f={f:g} Hz ({exc})"
            ) from exc
        if static:
            solutions[k + 1:] = solutions[k]
            break
    return solutions


def decade_frequencies(f_start: float, f_stop: float,
                       points_per_decade: int = 10) -> list:
    """Logarithmic frequency grid, SPICE ``.ac dec`` style."""
    if f_start <= 0.0 or f_stop <= f_start:
        raise ParameterError(
            f"need 0 < f_start < f_stop: {f_start}, {f_stop}"
        )
    if points_per_decade < 1:
        raise ParameterError(
            f"points_per_decade must be >= 1: {points_per_decade}"
        )
    decades = np.log10(f_stop / f_start)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    return list(np.logspace(np.log10(f_start), np.log10(f_stop), count))
