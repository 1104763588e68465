"""Public CNFET device built on the piecewise charge approximation.

:class:`CNFET` is the user-facing object: construct it from device
parameters (same dataclass as the reference model, so the two are
interchangeable), pick ``model="model1"`` or ``"model2"`` (or pass a
custom :class:`~repro.pwl.fitting.FitSpec`), and evaluate currents —
each bias point costs a closed-form polynomial solve plus two
logarithms.

The device also exposes small-signal quantities (gm, gds) and terminal
charges (for the transient companion models of the circuit engine),
matching the equivalent circuit of the paper's Fig. 1: linear
capacitances CG/CD/CS from the terminals to the inner node Σ plus the
non-linear mobile charges QS, QD at Σ.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.constants import BALLISTIC_CURRENT_PREFACTOR, thermal_voltage_ev
from repro.errors import ParameterError
from repro.pwl.fitting import FitSpec, FittedCharge, fit_piecewise_charge
from repro.pwl.model1 import MODEL1_SPEC
from repro.pwl.model2 import MODEL2_SPEC
from repro.physics.bandstructure import NanotubeBands
from repro.pwl.selfconsistent import ClosedFormSolver
from repro.reference.fettoy import (
    FETToyModel,
    FETToyParameters,
    terminal_capacitances,
)

_NAMED_SPECS = {"model1": MODEL1_SPEC, "model2": MODEL2_SPEC}

# ----------------------------------------------------------------------
# Module-level fit cache
#
# Fitting a charge curve costs tens of milliseconds (it samples the
# theoretical model hundreds of times and optionally optimises the
# region boundaries); evaluating a fitted device costs microseconds.
# Monte-Carlo campaigns construct thousands of near-identical devices,
# so fitted charges are memoised on the parameters the fit actually
# depends on: the resolved chirality (diameter is snapped to a discrete
# tube anyway), temperature, and the subband/quadrature/spec settings.
# Gate geometry and oxide parameters only enter the capacitances, which
# are recomputed exactly per device.
#
# The Fermi level is deliberately NOT part of the key: the theoretical
# charge is ``QS(V; EF) = q (h(EF - V) - h(EF))`` with the half-density
# ``h`` independent of EF (see ``ChargeModel``), and the fit spec's
# window, boundaries and weighting are all EF-relative — so the fit at
# ``EF'`` equals the fit at ``EF`` shifted by ``EF' - EF`` along the
# VSC axis plus the constant ``q (h(EF) - h(EF'))`` from the
# equilibrium term.  Both pieces are applied exactly (the anchor's
# charge model is kept alive to price the constant, and the anchor's
# own half density ``h(EF)`` is kept with it, so a re-anchoring runs
# one quadrature, ``h(EF')``), which makes one fit serve every Fermi
# level of a tube/temperature combination to boundary-optimiser
# tolerance (~1e-6 of the charge peak).
# ----------------------------------------------------------------------

#: key -> (fitted at anchor EF, anchor charge model, h(anchor EF))
_FIT_CACHE: "OrderedDict[Tuple, Tuple[FittedCharge, object, float]]" = \
    OrderedDict()
_FIT_CACHE_MAX = 256
_FIT_CACHE_STATS: Dict[str, int] = {"hits": 0, "misses": 0}


def _fit_cache_key(params: FETToyParameters, chirality, spec: FitSpec,
                   optimize_boundaries: bool) -> Tuple:
    return (
        chirality.n, chirality.m,
        round(params.temperature_k, 9),
        params.n_subbands, params.nodes,
        spec, bool(optimize_boundaries),
    )


def _shift_fitted(fitted: FittedCharge, charge_model, anchor_density: float,
                  fermi_level_ev: float) -> FittedCharge:
    """The fit re-anchored at another Fermi level (exact EF covariance:
    a VSC shift plus the equilibrium-density constant).

    ``anchor_density`` is ``h(EF)`` at the fit's own Fermi level, so
    only the new level's half density is integrated.
    """
    delta = fermi_level_ev - fitted.fermi_level_ev
    if delta == 0.0:
        return fitted
    from repro.constants import ELEMENTARY_CHARGE

    dq = ELEMENTARY_CHARGE * (
        anchor_density - float(charge_model.half_density(fermi_level_ev))
    )
    return dataclasses.replace(
        fitted,
        curve=fitted.curve.shifted(-delta).with_offset(dq),
        fermi_level_ev=fermi_level_ev,
        boundaries_abs=tuple(b + delta for b in fitted.boundaries_abs),
    )


def fit_cache_info() -> Dict[str, int]:
    """``{"hits", "misses", "size"}`` counters of the shared fit cache."""
    return {**_FIT_CACHE_STATS, "size": len(_FIT_CACHE)}


def clear_fit_cache() -> None:
    """Drop all memoised fits and reset the hit/miss counters."""
    _FIT_CACHE.clear()
    _FIT_CACHE_STATS["hits"] = 0
    _FIT_CACHE_STATS["misses"] = 0


class CNFET:
    """Fast ballistic CNFET using the piecewise charge approximation.

    Parameters
    ----------
    params:
        Physical device parameters (shared with the reference model).
    model:
        ``"model1"``, ``"model2"`` or a custom :class:`FitSpec`.
    optimize_boundaries:
        Refine region boundaries numerically during fitting.
    fitted:
        Skip fitting and use a pre-computed :class:`FittedCharge`
        (e.g. from :mod:`repro.pwl.tables`).
    use_fit_cache:
        Reuse fitted charges from the module-level memo (default).
        Constructing the same device twice never refits; pass ``False``
        to force a fresh fit (benchmarking, cache-bypass tests).
    polarity:
        ``"n"`` (default) or ``"p"``.  A p-type device mirrors terminal
        voltages (``IDS_p(VG, VD) = -IDS_n(-VG, -VD)``) — a standard
        circuit-level convenience for complementary logic, documented as
        an extension beyond the paper's n-type measurements.

    Notes
    -----
    Construction runs the *theoretical* model once to sample the charge
    curve and fit it (~tens of ms); evaluations afterwards never touch
    the physics again, which is the paper's amortisation argument for
    SPICE-class simulators.
    """

    def __init__(
        self,
        params: FETToyParameters = FETToyParameters(),
        model: Union[str, FitSpec] = "model2",
        optimize_boundaries: bool = True,
        fitted: Optional[FittedCharge] = None,
        polarity: str = "n",
        use_fit_cache: bool = True,
    ) -> None:
        if polarity not in ("n", "p"):
            raise ParameterError(f"polarity must be 'n' or 'p': {polarity!r}")
        self.params = params
        self.polarity = polarity
        # The reference model (charge quadrature setup) is built lazily:
        # on a fit-cache hit only the band structure and the closed-form
        # capacitances are needed, which keeps cached construction ~10x
        # cheaper than the full theoretical-model setup.
        self._reference: Optional[FETToyModel] = None
        chirality = params.resolve_chirality()
        self.bands = NanotubeBands(chirality)
        self.capacitances = terminal_capacitances(
            params, self.bands.diameter_nm
        )
        if fitted is None:
            if isinstance(model, str):
                try:
                    spec = _NAMED_SPECS[model]
                except KeyError:
                    raise ParameterError(
                        f"unknown model {model!r}; expected one of "
                        f"{sorted(_NAMED_SPECS)} or a FitSpec"
                    ) from None
            else:
                spec = model
            key = _fit_cache_key(params, chirality, spec,
                                 optimize_boundaries)
            entry = _FIT_CACHE.get(key) if use_fit_cache else None
            if entry is None:
                _FIT_CACHE_STATS["misses"] += 1
                fitted = fit_piecewise_charge(
                    self.reference.charge, spec,
                    optimize_boundaries=optimize_boundaries,
                )
                if use_fit_cache:
                    charge = self.reference.charge
                    _FIT_CACHE[key] = (
                        fitted, charge,
                        float(charge.half_density(fitted.fermi_level_ev)))
                    if len(_FIT_CACHE) > _FIT_CACHE_MAX:
                        _FIT_CACHE.popitem(last=False)
            else:
                _FIT_CACHE_STATS["hits"] += 1
                _FIT_CACHE.move_to_end(key)
                fitted = _shift_fitted(*entry, params.fermi_level_ev)
        self.fitted = fitted
        self.solver = ClosedFormSolver(fitted.curve, self.capacitances)
        self._kt = thermal_voltage_ev(params.temperature_k)
        self._ef = params.fermi_level_ev
        self._i_prefactor = (
            BALLISTIC_CURRENT_PREFACTOR * params.temperature_k
            * params.transmission
        )

    # ------------------------------------------------------------------
    # Core evaluations
    # ------------------------------------------------------------------

    @property
    def reference(self) -> FETToyModel:
        """The full-numerics theoretical model (built on first access)."""
        if self._reference is None:
            self._reference = FETToyModel(self.params)
        return self._reference

    def with_polarity(self, polarity: str) -> "CNFET":
        """This device with polarity ``polarity``: the fit, the
        capacitances and the closed-form solver are shared, not rebuilt
        (a complementary pair costs one device construction)."""
        if polarity not in ("n", "p"):
            raise ParameterError(f"polarity must be 'n' or 'p': {polarity!r}")
        twin = copy.copy(self)
        twin.polarity = polarity
        return twin

    @property
    def model_name(self) -> str:
        """Name of the fitted piecewise spec (model1/model2/custom)."""
        return self.fitted.spec.name

    def vsc(self, vg: float, vd: float, vs: float = 0.0) -> float:
        """Self-consistent voltage [V], source-referenced — closed form,
        no iteration."""
        if self.polarity == "p":
            return -self.solver.solve(-(vg - vs), -(vd - vs), 0.0)
        return self.solver.solve(vg - vs, vd - vs, 0.0)

    def ids_at_vsc(self, vsc: float, vds: float) -> float:
        """Drain current given VSC (paper eq. (14)) [A]."""
        kt = self._kt
        eta_s = (self._ef - vsc) / kt
        eta_d = eta_s - vds / kt
        return self._i_prefactor * (_log1pexp(eta_s) - _log1pexp(eta_d))

    def ids(self, vg: float, vd: float, vs: float = 0.0) -> float:
        """Drain current at a terminal bias point [A].

        For p-type devices the mirrored current is returned so that the
        device conducts for negative gate drive, as expected in
        complementary logic.
        """
        if self.polarity == "p":
            return -self._ids_n(-vg, -vd, -vs)
        return self._ids_n(vg, vd, vs)

    def _ids_n(self, vg: float, vd: float, vs: float) -> float:
        vsc = self.solver.solve(vg - vs, vd - vs, 0.0)
        return self.ids_at_vsc(vsc, vd - vs)

    def operating_point(self, vg: float, vd: float,
                        vs: float = 0.0) -> Tuple[float, float]:
        """``(IDS, VSC)`` at a bias point (VSC source-referenced)."""
        vsc = self.vsc(vg, vd, vs)
        if self.polarity == "p":
            return self.ids(vg, vd, vs), vsc
        return self.ids_at_vsc(vsc, vd - vs), vsc

    def iv_family(self, vg_values: Sequence[float],
                  vd_values: Sequence[float]) -> np.ndarray:
        """Drain-current family ``IDS[i_vg, i_vd]`` [A] — batched."""
        vg_arr = np.asarray(vg_values, dtype=float)
        vd_arr = np.asarray(vd_values, dtype=float)
        return self.ids_batch(vg_arr[:, None], vd_arr[None, :])

    # ------------------------------------------------------------------
    # Batched evaluations (one stacked-solve pass over arrays of bias
    # points; per-lane arithmetic mirrors the scalar methods, so results
    # agree with a loop of scalar calls to floating noise)
    # ------------------------------------------------------------------

    def vsc_batch(self, vg, vd, vs=0.0) -> np.ndarray:
        """Batched :meth:`vsc`; inputs broadcast against each other."""
        vg = np.asarray(vg, dtype=float)
        vd = np.asarray(vd, dtype=float)
        vs = np.asarray(vs, dtype=float)
        if self.polarity == "p":
            return -self.solver.solve_many(-(vg - vs), -(vd - vs), 0.0)
        return self.solver.solve_many(vg - vs, vd - vs, 0.0)

    def ids_batch(self, vg, vd, vs=0.0) -> np.ndarray:
        """Batched :meth:`ids`; inputs broadcast against each other."""
        vg = np.asarray(vg, dtype=float)
        vd = np.asarray(vd, dtype=float)
        vs = np.asarray(vs, dtype=float)
        if self.polarity == "p":
            return -self._ids_n_batch(-vg, -vd, -vs)
        return self._ids_n_batch(vg, vd, vs)

    def _ids_n_batch(self, vg, vd, vs) -> np.ndarray:
        vds = vd - vs
        vsc = self.solver.solve_many(vg - vs, vds, 0.0)
        kt = self._kt
        eta_s = (self._ef - vsc) / kt
        eta_d = eta_s - vds / kt
        return self._i_prefactor * (
            _log1pexp_many(eta_s) - _log1pexp_many(eta_d)
        )

    # ------------------------------------------------------------------
    # Small-signal parameters (central differences on the fast model)
    # ------------------------------------------------------------------

    def gm(self, vg: float, vd: float, vs: float = 0.0,
           delta: float = 1e-4) -> float:
        """Transconductance ``dIDS/dVG`` [S]."""
        return (
            self.ids(vg + delta, vd, vs) - self.ids(vg - delta, vd, vs)
        ) / (2.0 * delta)

    def gds(self, vg: float, vd: float, vs: float = 0.0,
            delta: float = 1e-4) -> float:
        """Output conductance ``dIDS/dVD`` [S]."""
        return (
            self.ids(vg, vd + delta, vs) - self.ids(vg, vd - delta, vs)
        ) / (2.0 * delta)

    def gm_batch(self, vg, vd, vs=0.0, delta: float = 1e-4) -> np.ndarray:
        """Batched :meth:`gm` (same central difference)."""
        vg = np.asarray(vg, dtype=float)
        return (
            self.ids_batch(vg + delta, vd, vs)
            - self.ids_batch(vg - delta, vd, vs)
        ) / (2.0 * delta)

    def gds_batch(self, vg, vd, vs=0.0, delta: float = 1e-4) -> np.ndarray:
        """Batched :meth:`gds` (same central difference)."""
        vd = np.asarray(vd, dtype=float)
        return (
            self.ids_batch(vg, vd + delta, vs)
            - self.ids_batch(vg, vd - delta, vs)
        ) / (2.0 * delta)

    # ------------------------------------------------------------------
    # Charges (per metre; multiply by an effective length for a discrete
    # device — the circuit element handles that scaling)
    # ------------------------------------------------------------------

    def terminal_charges(self, vg: float, vd: float,
                         vs: float = 0.0) -> Tuple[float, float, float]:
        """Charges at (G, D, S) [C/m] per the Fig. 1 equivalent circuit.

        Gate: ``CG (VG - VSC)``.  Drain: ``CD (VD - VSC)`` plus the
        mobile drain charge ``-QD`` (electrons supplied by the drain
        contact); source analogously.  The inner node carries the
        balancing charge, which is how the self-consistent equation was
        derived in the first place.
        """
        sign = 1.0
        if self.polarity == "p":
            vg, vd, vs = -vg, -vd, -vs
            sign = -1.0
        vgs, vds = vg - vs, vd - vs
        vsc = self.solver.solve(vgs, vds, 0.0)
        caps = self.capacitances
        qs_mobile = float(self.fitted.curve.value(vsc))
        qd_mobile = float(self.fitted.curve.value(vsc + vds))
        # Inner-node potential is -VSC (see DESIGN.md §2), so the plate
        # charges are C * (terminal + VSC).
        qg = caps.cg * (vgs + vsc)
        qd = caps.cd * (vds + vsc) - qd_mobile
        qs = caps.cs * vsc - qs_mobile
        return sign * qg, sign * qd, sign * qs

    def terminal_charges_batch(self, vg, vd, vs=0.0
                               ) -> Tuple[np.ndarray, np.ndarray,
                                          np.ndarray]:
        """Batched :meth:`terminal_charges`; inputs broadcast."""
        vg = np.asarray(vg, dtype=float)
        vd = np.asarray(vd, dtype=float)
        vs = np.asarray(vs, dtype=float)
        sign = 1.0
        if self.polarity == "p":
            vg, vd, vs = -vg, -vd, -vs
            sign = -1.0
        vgs, vds = vg - vs, vd - vs
        vsc = self.solver.solve_many(vgs, vds, 0.0)
        caps = self.capacitances
        qs_mobile = self.fitted.curve.value(vsc)
        qd_mobile = self.fitted.curve.value(vsc + vds)
        qg = caps.cg * (vgs + vsc)
        qd = caps.cd * (vds + vsc) - qd_mobile
        qs = caps.cs * vsc - qs_mobile
        return sign * qg, sign * qd, sign * qs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        p = self.params
        return (
            f"CNFET({self.model_name}, {self.polarity}-type, "
            f"d={self.bands.diameter_nm:.2f} nm, "
            f"T={p.temperature_k} K, EF={p.fermi_level_ev} eV)"
        )


def _log1pexp(x: float) -> float:
    """Stable ``log(1 + exp(x))`` for scalar floats (hot path)."""
    if x > 35.0:
        return x
    if x < -35.0:
        return math.exp(x)
    return math.log1p(math.exp(x))


def _log1pexp_many(x: np.ndarray) -> np.ndarray:
    """Vectorized twin of :func:`_log1pexp` (same branch thresholds)."""
    e = np.exp(np.minimum(x, 35.0))
    return np.where(x > 35.0, x, np.where(x < -35.0, e, np.log1p(e)))
