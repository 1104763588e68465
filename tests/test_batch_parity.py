"""Batch-vs-scalar parity: the vectorized evaluation path must be a
drop-in replacement for point-by-point scalar calls.

The contract (ISSUE 1): ``ids_batch`` matches scalar ``ids`` to within
1e-12 *relative* across the Fig. 6/7 bias grids, for model1, model2 and
the p-type polarity.  In practice the two paths agree to a few ulp
because the batched closed forms mirror the scalar arithmetic operation
for operation.
"""

import numpy as np
import pytest

from repro.experiments.workloads import (
    FIG67_VG_VALUES,
    PAPER_VDS_SWEEP,
    default_device_parameters,
)
from repro.pwl.batch import real_roots_batch
from repro.pwl.device import CNFET
from repro.pwl.polynomials import real_roots
from repro.reference.sweep import sweep_iv_family

from bias_grid import random_bias_grid

REL_TOL = 1e-12
#: absolute floor [A] for near-zero currents (VDS = 0 rows are exact
#: zeros in both paths; the floor only guards denormal-level noise)
ABS_TOL = 1e-25


def _grid():
    vg = np.asarray(FIG67_VG_VALUES, dtype=float)
    vd = np.asarray(PAPER_VDS_SWEEP, dtype=float)
    return np.repeat(vg, vd.size), np.tile(vd, vg.size)


def _scalar_reference(device, vg_grid, vd_grid):
    return np.asarray([
        device.ids(float(g), float(d)) for g, d in zip(vg_grid, vd_grid)
    ])


@pytest.mark.parametrize("model", ["model1", "model2"])
@pytest.mark.parametrize("polarity", ["n", "p"])
class TestIdsBatchParity:
    def _assert_ids_parity(self, model, polarity, vg_grid, vd_grid):
        device = CNFET(default_device_parameters(), model=model,
                       polarity=polarity)
        if polarity == "p":
            vg_grid, vd_grid = -vg_grid, -vd_grid
        batch = device.ids_batch(vg_grid, vd_grid)
        scalar = _scalar_reference(device, vg_grid, vd_grid)
        np.testing.assert_allclose(batch, scalar, rtol=REL_TOL,
                                   atol=ABS_TOL)

    def test_matches_scalar_on_fig67_grid(self, model, polarity):
        self._assert_ids_parity(model, polarity, *_grid())

    def test_matches_scalar_on_random_grid(self, model, polarity):
        """Points where the Laplace hint misses the root's region pair
        (a few percent) take the located pair."""
        self._assert_ids_parity(model, polarity, *random_bias_grid())

    def test_vsc_batch_matches_scalar(self, model, polarity):
        device = CNFET(default_device_parameters(), model=model,
                       polarity=polarity)
        vg_grid, vd_grid = _grid()
        if polarity == "p":
            vg_grid, vd_grid = -vg_grid, -vd_grid
        batch = device.vsc_batch(vg_grid, vd_grid)
        scalar = np.asarray([
            device.vsc(float(g), float(d))
            for g, d in zip(vg_grid, vd_grid)
        ])
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-13)


class TestDerivedBatchEvaluations:
    @pytest.fixture(scope="class")
    def device(self):
        return CNFET(default_device_parameters())

    # The central differences subtract nearly-equal currents, so a
    # 1-ulp ids difference is amplified by ~1/(2 delta); the conductance
    # contract is correspondingly looser than the ids one.
    DERIV_REL = 1e-9

    def test_gm_batch(self, device):
        vg = np.asarray([0.3, 0.45, 0.6])
        got = device.gm_batch(vg, 0.4)
        want = [device.gm(float(v), 0.4) for v in vg]
        np.testing.assert_allclose(got, want, rtol=self.DERIV_REL,
                                   atol=ABS_TOL)

    def test_gds_batch(self, device):
        vd = np.asarray([0.1, 0.3, 0.6])
        got = device.gds_batch(0.5, vd)
        want = [device.gds(0.5, float(v)) for v in vd]
        np.testing.assert_allclose(got, want, rtol=self.DERIV_REL,
                                   atol=ABS_TOL)

    def test_terminal_charges_batch(self, device):
        vg = np.asarray([0.2, 0.4, 0.6])
        qg, qd, qs = device.terminal_charges_batch(vg, 0.35)
        for i, v in enumerate(vg):
            sg, sd, ss = device.terminal_charges(float(v), 0.35)
            assert qg[i] == pytest.approx(sg, rel=REL_TOL)
            assert qd[i] == pytest.approx(sd, rel=REL_TOL)
            assert qs[i] == pytest.approx(ss, rel=REL_TOL)
        # Charge conservation survives vectorization.
        np.testing.assert_allclose(qg + qd + qs, 0.0, atol=1e-25)

    def test_broadcasting_grid(self, device):
        vg = np.asarray([0.3, 0.5])[:, None]
        vd = np.asarray([0.1, 0.3, 0.6])[None, :]
        out = device.ids_batch(vg, vd)
        assert out.shape == (2, 3)
        assert out[1, 2] == pytest.approx(device.ids(0.5, 0.6),
                                          rel=REL_TOL)

    def test_source_shift(self, device):
        got = device.ids_batch([0.7], [0.6], vs=0.2)
        assert got[0] == pytest.approx(device.ids(0.7, 0.6, 0.2),
                                       rel=REL_TOL)

    def test_empty_input(self, device):
        assert device.ids_batch([], []).shape == (0,)


class TestSweepDriversBatch:
    def test_sweep_uses_batch_and_matches_scalar_loop(self):
        device = CNFET(default_device_parameters())
        vg = [0.3, 0.45, 0.6]
        vd = [0.1, 0.3, 0.6]
        fam_batch = sweep_iv_family(device, vg, vd, use_batch=True)
        fam_scalar = sweep_iv_family(device, vg, vd, use_batch=False)
        np.testing.assert_allclose(fam_batch.ids, fam_scalar.ids,
                                   rtol=REL_TOL, atol=ABS_TOL)

    def test_force_batch_on_scalar_model_rejected(self):
        from repro.errors import ParameterError

        class Scalar:
            def ids(self, vg, vd, vs=0.0):
                return vg * vd

        with pytest.raises(ParameterError):
            sweep_iv_family(Scalar(), [0.1], [0.1], use_batch=True)


class TestRootsBatchMirror:
    """The generic vectorized root finder mirrors the scalar one."""

    @pytest.mark.parametrize("coeffs", [
        (1.0, -2.0, 0.0, 0.0),            # linear
        (-2.0, 0.0, 1.0, 0.0),            # quadratic, two roots
        (1.0, 2.0, 1.0, 0.0),             # quadratic, double root
        (5.0, 1.0, 0.0, 0.0),             # negative-root linear
        (-6.0, 11.0, -6.0, 1.0),          # cubic, roots 1, 2, 3
        (1.0, 3.0, 3.0, 1.0),             # cubic, triple root -1
        (-1.0, 0.0, 0.0, 1.0),            # cubic, single real root
        (0.0, -1e-20, 0.0, 1.0),          # near-degenerate cubic
    ])
    def test_matches_scalar_real_roots(self, coeffs):
        got = real_roots_batch(*[np.asarray([c]) for c in coeffs])[0]
        got = sorted(float(r) for r in got if np.isfinite(r))
        want = real_roots(list(coeffs))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9, abs=1e-12)
