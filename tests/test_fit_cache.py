"""CNFET module-level fit cache: reuse, EF re-anchoring, laziness."""

import numpy as np
import pytest

from repro.pwl.device import CNFET, clear_fit_cache, fit_cache_info
from repro.reference.fettoy import FETToyParameters


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_fit_cache()
    yield
    clear_fit_cache()


class TestReuse:
    def test_same_device_twice_never_refits(self):
        params = FETToyParameters()
        CNFET(params)
        misses = fit_cache_info()["misses"]
        second = CNFET(params)
        info = fit_cache_info()
        assert info["misses"] == misses
        assert info["hits"] >= 1
        assert second.fitted is not None

    def test_identical_fits_share_the_object(self):
        params = FETToyParameters()
        a, b = CNFET(params), CNFET(params)
        assert a.fitted is b.fitted

    def test_models_cached_separately(self):
        params = FETToyParameters()
        CNFET(params, model="model1")
        CNFET(params, model="model2")
        assert fit_cache_info()["misses"] == 2
        CNFET(params, model="model1")
        assert fit_cache_info()["misses"] == 2

    def test_bypass_flag(self):
        params = FETToyParameters()
        CNFET(params)
        CNFET(params, use_fit_cache=False)
        info = fit_cache_info()
        assert info["misses"] == 2
        assert info["size"] == 1

    def test_clear_resets(self):
        CNFET(FETToyParameters())
        clear_fit_cache()
        assert fit_cache_info() == {"hits": 0, "misses": 0, "size": 0}


class TestEFCovariance:
    """One fit serves every Fermi level of a tube/temperature combo —
    the cached fit is re-anchored by a VSC shift plus the equilibrium
    charge constant, which is exact."""

    @pytest.mark.parametrize("ef", [-0.5, -0.32, -0.1, -0.05, 0.0])
    def test_derived_fit_matches_direct_fit(self, ef):
        # Anchor the cache far from the probe point.
        CNFET(FETToyParameters(fermi_level_ev=-0.4))
        params = FETToyParameters(fermi_level_ev=ef)
        derived = CNFET(params)                       # via shared fit
        direct = CNFET(params, use_fit_cache=False)   # its own fit
        vg = np.linspace(0.1, 0.6, 6)
        vd = np.linspace(0.0, 0.6, 7)
        a = derived.iv_family(vg, vd)
        b = direct.iv_family(vg, vd)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-18)

    def test_fermi_levels_share_one_fit(self):
        for ef in (-0.5, -0.32, 0.0):
            CNFET(FETToyParameters(fermi_level_ev=ef))
        info = fit_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 2

    def test_temperatures_fitted_separately(self):
        for t in (150.0, 300.0, 450.0):
            CNFET(FETToyParameters(temperature_k=t))
        assert fit_cache_info()["misses"] == 3

    def test_chiralities_fitted_separately(self):
        CNFET(FETToyParameters(diameter_nm=1.0))    # (13, 0)
        CNFET(FETToyParameters(diameter_nm=1.3))    # (17, 0)
        assert fit_cache_info()["misses"] == 2

    def test_oxide_knobs_do_not_refit(self):
        """t_ox/kappa only enter the capacitances — same fit, different
        device."""
        a = CNFET(FETToyParameters(tox_nm=1.5))
        b = CNFET(FETToyParameters(tox_nm=2.0, kappa=6.0))
        assert fit_cache_info()["misses"] == 1
        # and the devices still differ where they should
        assert a.capacitances.cg != b.capacitances.cg
        assert a.ids(0.6, 0.6) != b.ids(0.6, 0.6)


class TestLazyReference:
    def test_cache_hit_skips_reference_model(self):
        params = FETToyParameters()
        CNFET(params)
        second = CNFET(params)
        assert second._reference is None
        # first access builds it on demand
        assert second.reference.capacitances.csum == pytest.approx(
            second.capacitances.csum)
        assert second._reference is not None

    def test_polarity_shares_fit(self):
        params = FETToyParameters()
        n = CNFET(params, polarity="n")
        p = CNFET(params, polarity="p")
        assert fit_cache_info()["misses"] == 1
        assert p.ids(-0.6, -0.6) == pytest.approx(-n.ids(0.6, 0.6))


class TestShiftCost:
    def test_cache_hit_integrates_one_half_density(self, monkeypatch):
        """A hit re-anchors with the entry's stored anchor density, so
        only the new Fermi level's half density is integrated."""
        from repro.physics.charge import ChargeModel

        CNFET(FETToyParameters(fermi_level_ev=-0.4))
        calls = []
        original = ChargeModel.half_density

        def counting(self, u_ev):
            calls.append(u_ev)
            return original(self, u_ev)

        monkeypatch.setattr(ChargeModel, "half_density", counting)
        CNFET(FETToyParameters(fermi_level_ev=-0.32))
        assert fit_cache_info()["hits"] == 1
        assert calls == [-0.32]


class TestDevicePair:
    """``LogicFamily.default`` builds a pair as one device: the p device
    is the n device's mirror on the same fit."""

    def test_p_device_shares_the_fit_and_matches_its_own_build(self):
        from repro.circuit.logic import LogicFamily

        CNFET(FETToyParameters(fermi_level_ev=-0.4))  # cache anchor
        params = FETToyParameters(fermi_level_ev=-0.32, tox_nm=1.7)
        family = LogicFamily.default(vdd=0.6, params=params)
        n, p = family.n_device, family.p_device
        assert (n.polarity, p.polarity) == ("n", "p")
        assert p.fitted is n.fitted
        assert p.capacitances is n.capacitances
        own = CNFET(params, polarity="p")
        vg = np.linspace(-0.6, 0.6, 9)[:, None]
        vd = np.linspace(-0.6, 0.6, 7)[None, :]
        assert np.array_equal(p.ids_batch(vg, vd), own.ids_batch(vg, vd))
        assert [p.ids(g, d) for g in vg.ravel() for d in vd.ravel()] == \
            [own.ids(g, d) for g in vg.ravel() for d in vd.ravel()]
        assert np.array_equal(
            np.array(p.terminal_charges_batch(vg, vd)),
            np.array(own.terminal_charges_batch(vg, vd)))

    def test_pair_costs_one_cache_lookup(self):
        from repro.circuit.logic import LogicFamily

        LogicFamily.default(params=FETToyParameters(fermi_level_ev=-0.4))
        LogicFamily.default(params=FETToyParameters(fermi_level_ev=-0.3))
        assert fit_cache_info() == {"hits": 1, "misses": 1, "size": 1}

    def test_with_polarity_validates(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            CNFET(FETToyParameters()).with_polarity("x")
