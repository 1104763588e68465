"""Shared test helper: the dense form of a monolithic assembler's
system."""

import numpy as np


def dense_system(asm):
    """Dense matrix and rhs of the system a
    :class:`~repro.circuit.mna.TwoPhaseAssembler` assembled at its last
    ``iterate``: the CSC ``data`` of ``asm._system`` densified through
    ``asm._indices`` / ``asm._indptr``."""
    data, rhs = asm._system
    matrix = np.zeros((asm.n, asm.n), dtype=data.dtype)
    cols = np.repeat(np.arange(asm.n), np.diff(asm._indptr))
    matrix[asm._indices, cols] = data
    return matrix, rhs
