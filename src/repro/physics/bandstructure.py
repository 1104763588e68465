"""Carbon-nanotube band structure.

A single-walled nanotube is indexed by its chiral vector ``(n, m)``.
Zone folding of the graphene tight-binding dispersion gives, for each
allowed transverse wavevector, a one-dimensional subband whose minimum
(the *van Hove edge*) controls the density of states used by the charge
integrals.

Two levels of fidelity are provided:

* **zigzag tubes** ``(n, 0)`` — the exact zone-folded band-edge formula
  ``E_q = V_pp_pi * |1 + 2 cos(pi q / n)|`` for subband ``q``;
* **general tubes** — the standard semiconducting/metallic pattern
  ``E_p = (p-th factor) * a_cc * V_pp_pi / d`` with factors
  ``{1, 2, 4, 5, 7, 8, ...}`` (semiconducting) or ``{3, 6, 9, ...}``
  (metallic), which is the approximation used by circuit-level CNFET
  models.

Energies are in eV and measured from the mid-gap; the conduction-band
edge of subband ``i`` sits at ``+delta_i`` and the valence edge at
``-delta_i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.constants import (
    CC_BOND_LENGTH,
    GRAPHENE_LATTICE_CONSTANT,
    HOPPING_ENERGY_EV,
)
from repro.errors import ParameterError


@dataclass(frozen=True)
class Chirality:
    """Chiral indices ``(n, m)`` of a single-walled carbon nanotube."""

    n: int
    m: int = 0

    def __post_init__(self) -> None:
        if self.n <= 0 or self.m < 0:
            raise ParameterError(
                f"invalid chirality ({self.n}, {self.m}): need n > 0, m >= 0"
            )
        if self.m > self.n:
            raise ParameterError(
                f"invalid chirality ({self.n}, {self.m}): convention m <= n"
            )

    @property
    def is_metallic(self) -> bool:
        """True when ``(n - m) mod 3 == 0`` (armchair and metallic zigzag)."""
        return (self.n - self.m) % 3 == 0

    @property
    def is_zigzag(self) -> bool:
        return self.m == 0

    @property
    def is_armchair(self) -> bool:
        return self.n == self.m

    @property
    def diameter_m(self) -> float:
        """Tube diameter ``d = a sqrt(n^2 + n m + m^2) / pi`` in metres."""
        n, m = self.n, self.m
        return (
            GRAPHENE_LATTICE_CONSTANT
            * math.sqrt(n * n + n * m + m * m)
            / math.pi
        )

    @property
    def diameter_nm(self) -> float:
        return self.diameter_m * 1e9

    @classmethod
    def from_diameter(cls, diameter_nm: float) -> "Chirality":
        """Closest semiconducting zigzag tube ``(n, 0)`` to a target diameter.

        Circuit-level models are usually specified by diameter; this picks
        the nearest ``n`` with ``n mod 3 != 0`` so the tube is
        semiconducting.
        """
        if diameter_nm <= 0.0:
            raise ParameterError(f"diameter must be positive: {diameter_nm!r}")
        n_real = diameter_nm * 1e-9 * math.pi / GRAPHENE_LATTICE_CONSTANT
        candidates = sorted(
            (
                n
                for n in range(max(1, int(n_real) - 2), int(n_real) + 4)
                if n % 3 != 0
            ),
            key=lambda n: abs(n - n_real),
        )
        if not candidates:
            raise ParameterError(
                f"no semiconducting zigzag tube near d={diameter_nm} nm"
            )
        return cls(candidates[0], 0)


#: Band-edge factors of the general semiconducting pattern:
#: ``E_p = factor_p * a_cc * V_pp_pi / d``.
_SEMICONDUCTING_FACTORS = (1, 2, 4, 5, 7, 8, 10, 11)
_METALLIC_FACTORS = (3, 6, 9, 12, 15, 18, 21, 24)

#: subband minima per ``(chirality, hopping_ev, max_subbands)``: a
#: Monte-Carlo campaign builds thousands of devices on a handful of
#: tubes
_MINIMA_CACHE: Dict[Tuple[Chirality, float, int], Tuple[float, ...]] = {}


class NanotubeBands:
    """Subband structure of a nanotube.

    Parameters
    ----------
    chirality:
        Tube indices.  ``Chirality.from_diameter`` helps when only a
        diameter is known.
    hopping_ev:
        Tight-binding hopping energy ``V_pp_pi`` (eV); 3.0 by default, as
        in FETToy.
    max_subbands:
        How many conduction subbands to tabulate.
    """

    def __init__(
        self,
        chirality: Chirality,
        hopping_ev: float = HOPPING_ENERGY_EV,
        max_subbands: int = 8,
    ) -> None:
        if hopping_ev <= 0.0:
            raise ParameterError(f"hopping energy must be > 0: {hopping_ev!r}")
        if max_subbands < 1:
            raise ParameterError(f"need at least one subband: {max_subbands!r}")
        self.chirality = chirality
        self.hopping_ev = hopping_ev
        self.max_subbands = max_subbands
        key = (chirality, hopping_ev, max_subbands)
        minima = _MINIMA_CACHE.get(key)
        if minima is None:
            minima = _MINIMA_CACHE[key] = tuple(self._compute_minima())
        self._minima = minima

    def _compute_minima(self) -> List[float]:
        if self.chirality.is_zigzag:
            return self._zigzag_minima()
        return self._pattern_minima()

    def _zigzag_minima(self) -> List[float]:
        """Exact zone-folded band edges of a zigzag tube ``(n, 0)``.

        The graphene dispersion evaluated at the subband's axial band
        minimum gives ``E_q = t |1 + 2 cos(pi q / n)|`` for
        ``q = 1 .. n``; each distinct positive value is a conduction-band
        edge (values are doubly degenerate, which the density-of-states
        prefactor accounts for).
        """
        n = self.chirality.n
        edges = sorted(
            {
                round(
                    self.hopping_ev * abs(1.0 + 2.0 * math.cos(math.pi * q / n)),
                    12,
                )
                for q in range(1, n + 1)
            }
        )
        positive = [e for e in edges if e > 1e-9]
        if self.chirality.is_metallic:
            # Metallic tubes have a gapless linear band in addition to the
            # van Hove subbands; represent it with a zero-minimum entry.
            positive = [0.0] + positive
        return positive[: self.max_subbands]

    def _pattern_minima(self) -> List[float]:
        scale = (
            CC_BOND_LENGTH * self.hopping_ev / self.chirality.diameter_m
        )
        factors = (
            _METALLIC_FACTORS
            if self.chirality.is_metallic
            else _SEMICONDUCTING_FACTORS
        )
        minima = [f * scale for f in factors[: self.max_subbands]]
        if self.chirality.is_metallic:
            minima = [0.0] + minima[: self.max_subbands - 1]
        return minima

    @property
    def subband_minima_ev(self) -> Sequence[float]:
        """Conduction-subband minima, eV from mid-gap, ascending."""
        return self._minima

    @property
    def band_gap_ev(self) -> float:
        """Band gap ``Eg = 2 * delta_1`` (0 for metallic tubes)."""
        if self.chirality.is_metallic:
            return 0.0
        return 2.0 * self._minima[0]

    @property
    def diameter_nm(self) -> float:
        return self.chirality.diameter_nm

    def half_gaps(self, count: int) -> List[float]:
        """First ``count`` subband minima (delta values used by the DOS)."""
        if count < 1:
            raise ParameterError(f"count must be >= 1: {count!r}")
        if count > len(self._minima):
            raise ParameterError(
                f"only {len(self._minima)} subbands tabulated, asked for {count}"
            )
        return list(self._minima[:count])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ch = self.chirality
        return (
            f"NanotubeBands(({ch.n},{ch.m}), d={self.diameter_nm:.3f} nm, "
            f"Eg={self.band_gap_ev:.3f} eV)"
        )


def band_gap_approx_ev(diameter_nm: float,
                       hopping_ev: float = HOPPING_ENERGY_EV) -> float:
    """Textbook estimate ``Eg = 2 a_cc V_pp_pi / d`` for a semiconducting tube."""
    if diameter_nm <= 0.0:
        raise ParameterError(f"diameter must be positive: {diameter_nm!r}")
    return 2.0 * CC_BOND_LENGTH * hopping_ev / (diameter_nm * 1e-9)
