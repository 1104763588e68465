"""Closed-form real-root finding for polynomials of degree <= 3.

This is the numerical engine that replaces Newton-Raphson in the fast
model: on every piecewise region the self-consistent-voltage residual is
a polynomial with degree at most 3, whose real roots have closed forms
(linear formula, stable quadratic formula, Cardano / trigonometric
cubic).  Coefficients are ascending: ``p(x) = c0 + c1 x + c2 x^2 + c3
x^3``.

Every root is polished with two Newton steps — the closed forms are
exact in real arithmetic but can lose a few digits near multiple roots;
polishing restores them at negligible cost.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.errors import ParameterError
from repro.pwl.kernels import DEGREE_TOL


def polyval(coeffs: Sequence[float], x: float) -> float:
    """Horner evaluation with ascending coefficients."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def polyder(coeffs: Sequence[float]) -> List[float]:
    """Derivative coefficients (ascending)."""
    return [i * c for i, c in enumerate(coeffs)][1:]


def _polish(coeffs: Sequence[float], root: float, steps: int = 2) -> float:
    """Guarded Newton polish: a step is only accepted when it reduces
    the residual.  Near multiple roots a raw Newton step can blow up
    (residual and derivative both ~0 with a garbage quotient), which
    would *degrade* an already-exact closed-form root."""
    # Hand-rolled derivative of the (always length-4) cubic caller:
    # value-identical to polyder but allocation-free on the hot path.
    dcoeffs = (coeffs[1], 2 * coeffs[2], 3 * coeffs[3]) \
        if len(coeffs) == 4 else polyder(coeffs)
    x = root
    fx = abs(polyval(coeffs, x))
    for _ in range(steps):
        if fx == 0.0:
            break
        df = polyval(dcoeffs, x)
        if df == 0.0:
            break
        x_next = x - polyval(coeffs, x) / df
        if not math.isfinite(x_next):
            break
        # A polish is a local refinement: a large step means Newton is
        # running off toward a *different* root (whose smaller residual
        # would fool the pure residual guard).
        if abs(x_next - x) > 0.1 * (1.0 + abs(x)):
            break
        f_next = abs(polyval(coeffs, x_next))
        if f_next >= fx:
            break
        x, fx = x_next, f_next
    return x


def solve_linear(c0: float, c1: float) -> List[float]:
    """Roots of ``c0 + c1 x = 0``."""
    if c1 == 0.0:
        return []  # constant: no root (or everything; callers treat as none)
    return [-c0 / c1]


def solve_quadratic(c0: float, c1: float, c2: float) -> List[float]:
    """Real roots of ``c0 + c1 x + c2 x^2 = 0`` (ascending), sorted.

    Uses the cancellation-free formulation
    ``q = -(c1 + sign(c1) sqrt(disc))/2``; ``x1 = q/c2``, ``x2 = c0/q``.
    """
    if c2 == 0.0:
        return solve_linear(c0, c1)
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    sqrt_disc = math.sqrt(disc)
    if disc == 0.0:
        return [-c1 / (2.0 * c2)]
    sign_c1 = 1.0 if c1 >= 0.0 else -1.0
    q = -0.5 * (c1 + sign_c1 * sqrt_disc)
    roots = []
    roots.append(q / c2)
    if q != 0.0:
        roots.append(c0 / q)
    else:
        roots.append(0.0)
    return sorted(roots)


def solve_cubic(c0: float, c1: float, c2: float, c3: float) -> List[float]:
    """Real roots of a cubic, ascending coefficients, sorted.

    Depressed-cubic reduction ``x = t - c2/(3 c3)``, then Cardano for one
    real root (positive discriminant) or the trigonometric method of
    Viete for three real roots.  All returned roots are Newton-polished.
    """
    if c3 == 0.0:
        return solve_quadratic(c0, c1, c2)
    # Normalise to monic: t^3 + a t^2 + b t + c
    a = c2 / c3
    b = c1 / c3
    c = c0 / c3
    # Depress: t = s - a/3  ->  s^3 + p s + q
    a_third = a / 3.0
    p = b - a * a_third
    q = 2.0 * a * a * a / 27.0 - a * b / 3.0 + c
    half_q = 0.5 * q
    third_p = p / 3.0
    disc = half_q * half_q + third_p * third_p * third_p
    # Near-zero discriminants are double roots that rounded off exact
    # zero; classifying them as single-root Cardano would silently drop
    # the multiple root.  The threshold propagates the rounding error of
    # the depression step: p and q are small differences of intermediates
    # as large as |a|^3/27, so the noise floor of ``disc`` scales with
    # those magnitudes, not with disc itself.  Misclassifying a
    # genuinely-simple near-double case merely returns extra nearby
    # candidates, which callers filter by residual.
    eps = 2.220446049250313e-16
    mag_q = abs(a) ** 3 / 27.0 + abs(a * b) / 3.0 + abs(c)
    mag_p = abs(b) + a * a / 3.0
    disc_noise = 8.0 * eps * (
        abs(half_q) * mag_q + third_p * third_p * 3.0 * mag_p
    )
    if abs(disc) < disc_noise:
        disc = 0.0
    roots: List[float]
    if disc > 0.0:
        # One real root (Cardano).
        sqrt_disc = math.sqrt(disc)
        u = _cbrt(-half_q + sqrt_disc)
        v = _cbrt(-half_q - sqrt_disc)
        roots = [u + v - a_third]
    elif disc == 0.0:
        if half_q == 0.0:
            roots = [-a_third]
        else:
            u = _cbrt(-half_q)
            roots = sorted({2.0 * u - a_third, -u - a_third})
    else:
        # Three real roots (Viete trigonometric form); p < 0 here.
        m = 2.0 * math.sqrt(-third_p)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg) / 3.0
        roots = sorted(
            m * math.cos(theta - 2.0 * math.pi * k / 3.0) - a_third
            for k in range(3)
        )
    coeffs = (c0, c1, c2, c3)
    return sorted(_polish(coeffs, r) for r in roots)


def _cbrt(x: float) -> float:
    """Real cube root preserving sign."""
    if x >= 0.0:
        return x ** (1.0 / 3.0)
    return -((-x) ** (1.0 / 3.0))


def real_roots(coeffs: Sequence[float]) -> List[float]:
    """Real roots of an ascending-coefficient polynomial, degree <= 3.

    Leading coefficients that are negligible relative to the largest
    coefficient magnitude are dropped (degree reduction), which is what
    the region solver needs when a cubic region degenerates numerically
    to a quadratic.
    """
    cs = [float(c) for c in coeffs]
    if len(cs) > 4:
        raise ParameterError(
            f"closed forms only exist up to degree 3; got degree {len(cs)-1}"
        )
    while len(cs) < 4:
        cs.append(0.0)
    c0, c1, c2, c3 = cs
    # max of four floats beats a generator expression on this hot path
    scale = max(abs(c0), abs(c1), abs(c2), abs(c3))
    if scale == 0.0:
        return []
    if abs(c3) < DEGREE_TOL * scale:
        c3 = 0.0
    if c3 == 0.0 and abs(c2) < DEGREE_TOL * scale:
        c2 = 0.0
    if c3 == 0.0 and c2 == 0.0 and abs(c1) < DEGREE_TOL * scale:
        c1 = 0.0
    if c3 != 0.0:
        return solve_cubic(c0, c1, c2, c3)
    if c2 != 0.0:
        return solve_quadratic(c0, c1, c2)
    return solve_linear(c0, c1)


def shift_polynomial(coeffs: Sequence[float], dx: float) -> List[float]:
    """Coefficients of ``p(x + dx)`` given those of ``p(x)`` (ascending).

    Synthetic-division (repeated Horner) Taylor shift — exact in exact
    arithmetic, numerically benign for the |dx| <= 1 V shifts used here.
    """
    cs = [float(c) for c in coeffs]
    n = len(cs)
    # Repeated synthetic division by (x - (-dx)).
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            cs[j] += dx * cs[j + 1]
    return cs
