"""Kernel-tier resolution, parity across tiers, and worker sharding.

The compiled tier (C loops through ctypes) must be a pure
performance change: the numpy tier is the reference, the compiled
loops must agree with it to float noise at the kernel level
(``<= 1e-12`` V on the stacked-VSC solve — the same gate ``make
bench`` enforces) and to Newton-convergence noise at the engine
level.  The sharding helpers must be pure orchestration: same
results, any worker count.
"""

import os
import re
from pathlib import Path

import numpy as np
import pytest

from repro.circuit.elements.cnfet import CNFETBank, CNFETElement
from repro.circuit.logic import (
    LogicFamily,
    build_ripple_carry_adder,
    build_ring_oscillator,
)
from repro.circuit.mna import NewtonOptions, robust_dc_solve
from repro.circuit.transient import initial_conditions_from_op, transient
from repro.errors import ParameterError
from repro.experiments.workloads import default_device_parameters
from repro.parallel import WORKERS_ENV, fork_map, resolve_workers
from repro.pwl.batch import StackedVscSolver
from repro.pwl import kernels
from repro.pwl.device import CNFET
from repro.pwl.kernels import (
    active_kernel_backend,
    compiled_backend_available,
    resolve_kernel_backend,
    set_kernel_backend,
    using_kernels,
)

from bias_grid import random_bias_grid

KERNEL_PARITY_TOL_V = 1e-12     # stacked-VSC solve, numpy vs compiled
BANK_PARITY_RTOL = 1e-12        # bank_stamp values / rhs / q_prev
WAVEFORM_PARITY_TOL_V = 1e-9    # engine level: Newton-convergence noise

TIGHT = NewtonOptions(vtol=1e-12, reltol=1e-10)

#: characterization metrics agree within the LTE tolerance of the
#: adaptive transients when the batch grouping changes (tiers flip
#: step-acceptance decisions, tiles change the shared pulse
#: envelope); the energy integral is the noisiest of the three.
_ARC_RTOL = {"delay": 5e-2, "out_slew": 5e-2, "energy": 0.35}


def _assert_arcs_close(got, ref):
    for key, arcs in ref["arcs"].items():
        for metric, rows in arcs.items():
            np.testing.assert_allclose(
                got["arcs"][key][metric], rows,
                rtol=_ARC_RTOL[metric], atol=1e-18,
                err_msg=f"{key}.{metric}")


def _require_compiled():
    if not compiled_backend_available():
        pytest.skip("no compiled kernel tier (no working C "
                    "compiler)")


@pytest.fixture(params=["numpy", "compiled"])
def tier(request):
    """Run the decorated test under each kernel tier in turn."""
    if request.param == "compiled":
        _require_compiled()
    with using_kernels(request.param):
        yield request.param


@pytest.fixture(scope="module")
def family():
    return LogicFamily.default(vdd=0.6)


@pytest.fixture(scope="module")
def adder4(family):
    """4-bit adder CNFETs with a DC solution and a perturbed iterate."""
    circuit, _info = build_ripple_carry_adder(family, 4, a_value=0b1011,
                                              b_value=0b0110)
    n = circuit.dimension()
    x_prev = robust_dc_solve(circuit, None, TIGHT)
    x = x_prev + np.random.default_rng(5).uniform(-0.05, 0.05, n)
    elements = [el for el in circuit.elements
                if isinstance(el, CNFETElement)]
    return elements, circuit.node_index, n, x_prev, x


def _bank_calls(spec, adder4, *, tran, chord, seed, select,
                bypass="off", fallback=False):
    """Three ``bank_stamp`` rounds under tier ``spec``: prime (memo,
    bypass anchors and, in transient, ``q_prev``), a call that hits or
    misses the chord, read back as ``(kinds, P)`` columns through an
    identity target, and the same call scattered into a padded flat
    system; in transient then a ``refresh_charges`` between the two
    iterates.

    ``bypass`` sets the anchors those calls meet: ``"off"`` clears
    them before every call (no device bypassed), ``"mixed"`` keeps them
    (the iterate moves by a uniform step, so only the devices with a
    grounded terminal leave their anchors), ``"anchored"`` moves the
    iterate by 2e-7 V, inside the tolerance for every device (a chord
    miss then comes from a new gmin)."""
    elements, node_index, n, x_prev, x = adder4
    if fallback:
        # device 1 on a model of its own, whose closed-form tables are
        # then poisoned: every call takes the exact scalar fallback for
        # that one lane
        el = elements[1]
        own = CNFET(el.backend.device.params, model="model2",
                    polarity=el.backend.device.polarity)
        elements = list(elements)
        elements[1] = CNFETElement(el.name, *el.nodes, device=own,
                                   length_nm=el.length_m * 1e9,
                                   polarity=el.polarity)
    lanes = 2 if select == "lanes" else 1
    p = len(elements) * lanes
    lane_of = np.repeat(np.arange(lanes), len(elements)) \
        if lanes > 1 else None
    xs, xs_prev = x, x_prev
    if lanes > 1:
        xs = np.stack([x, x[::-1] * 0.5])
        xs_prev = np.stack([x_prev, x_prev[::-1] * 0.5])
    idx = None if select == "all" else np.arange(1, p, 3)
    stats = {}
    with using_kernels(spec):
        bank = CNFETBank(elements * lanes, node_index, n,
                         lane_of=lane_of, stats=stats)
        if fallback:
            bank.solver.polys[bank.table[1]] = np.nan
        reuse_tol = 1e-6 if chord != "off" else 0.0
        kw = dict(gmin=1e-12, tran=tran, dt=1e-12 if tran else None,
                  reuse_tol=reuse_tol)
        sel = slice(None) if idx is None else idx
        nv, nr = (17, 5) if tran else (8, 2)

        def companion(x_at, target, **extra):
            if bypass == "off":
                bank.anchor[:] = np.nan
            return bank.companion(x_at, idx, target=target,
                                  **{**kw, **extra})

        def columns(x_at, **extra):
            # identity target: kind j of bank device r lands at j * p + r
            m_col, r_col = np.zeros(17 * p), np.zeros(5 * p)
            companion(x_at, (m_col, np.arange(17 * p).reshape(17, p),
                             r_col, np.arange(5 * p).reshape(5, p)),
                      **extra)
            return (m_col.reshape(17, p)[:nv, sel],
                    r_col.reshape(5, p)[:nr, sel])

        if tran:
            bank.refresh_charges(xs_prev, idx)
        first = columns(xs)
        if bypass == "anchored":
            step = 2e-7
            if chord == "miss":
                kw["gmin"] = 2e-12
        else:
            step = 2e-5 if chord == "hit" else 1e-2
        x1 = xs + step
        values, rhs = columns(x1, seed_qprev=seed)
        if chord == "hit":
            assert np.array_equal(values, first[0])
        elif chord == "miss":
            assert not np.array_equal(values, first[0])
        pad = n + 1
        m_map = (0 if lane_of is None else lane_of * pad * pad) \
            + bank.rows * pad + bank.cols
        r_map = (0 if lane_of is None else lane_of * pad) + bank.rhs_rows
        m_out = np.zeros(lanes * pad * pad)
        r_out = np.zeros(lanes * pad)
        assert companion(x1, (m_out, m_map, r_out, r_map)) is None
        q_stamp = bank.q_prev.copy()
        if tran:
            if bypass == "off":
                bank.anchor[:] = np.nan
            bank.refresh_charges(0.5 * (xs + x1), idx, reuse_tol)
    return dict(values=values, rhs=rhs, m_out=m_out, r_out=r_out,
                q_prev=q_stamp, q_refresh=bank.q_prev.copy(),
                hint=bank.hint.copy(), memo_valid=bank.memo_valid.copy(),
                memo_vgs=bank.memo_vgs.copy(), anchor=bank.anchor.copy(),
                stats=stats, n_selected=p if idx is None else idx.size)


#: (chord, bypass) cases of the bank-stamp parity test and their ids
#: (bypass "off" keeps the chord's own id)
_CHORD_BYPASS = [("off", "off"), ("miss", "off"), ("hit", "off"),
                 ("miss", "mixed"), ("hit", "mixed"),
                 ("miss", "anchored"), ("hit", "anchored")]
_CHORD_BYPASS_IDS = [chord if bypass == "off" else f"{chord}-{bypass}"
                     for chord, bypass in _CHORD_BYPASS]


def _assert_rows_close(got, ref, what):
    """Agreement within ``BANK_PARITY_RTOL`` of each row's scale (a
    residual that cancels to ~0 is compared against its row's scale,
    not its own)."""
    got, ref = np.atleast_2d(got), np.atleast_2d(ref)
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.all(np.abs(got - ref) <= BANK_PARITY_RTOL * scale), what


def _ring_waveforms(family, options=TIGHT):
    ring, nodes = build_ring_oscillator(family, stages=3)
    x0 = initial_conditions_from_op(ring, {"n0": 0.0, "n1": 0.6},
                                    options)
    ds = transient(ring, tstop=6e-11, dt=2e-12, x0=x0, method="be",
                   options=options, record_currents=False)
    return np.stack([ds.trace(f"v({n})") for n in nodes])


class TestSolveConstants:
    @pytest.mark.parametrize("name", ["RESIDUAL_TOL", "EDGE_TOL",
                                      "VDS_QUANTUM", "VDS_SCALE",
                                      "DEGREE_TOL"])
    def test_compiled_defines_match_python(self, name):
        """The ``#define``s of ``_kernels.c`` carry the values of
        :mod:`repro.pwl.kernels`, the one Python copy of the closed-form
        solve's constants."""
        source = (Path(kernels.__file__).parent / "_kernels.c").read_text()
        found = re.findall(rf"^#define {name} (\S+)$", source, re.M)
        assert len(found) == 1, name
        assert float(found[0]) == getattr(kernels, name)


class TestResolution:
    def test_numpy_tier_resolves(self):
        backend = resolve_kernel_backend("numpy")
        assert type(backend).__name__ == "NumpyKernelBackend"
        # The reference tier is a process-wide singleton.
        assert resolve_kernel_backend("numpy") is backend

    def test_unknown_spec_raises(self):
        with pytest.raises(ParameterError):
            resolve_kernel_backend("fortran")
        with pytest.raises(ParameterError):
            resolve_kernel_backend(42)
        # there is no numba flavour: ``compiled`` is the cc tier
        with pytest.raises(ParameterError,
                           match="expected auto, numpy, compiled or cc"):
            resolve_kernel_backend("numba")

    def test_instance_passes_through(self):
        backend = resolve_kernel_backend("numpy")
        assert resolve_kernel_backend(backend) is backend

    def test_env_forces_numpy_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert type(resolve_kernel_backend(None)).__name__ == \
            "NumpyKernelBackend"
        assert type(resolve_kernel_backend("auto")).__name__ == \
            "NumpyKernelBackend"

    def test_env_ignored_by_explicit_spec(self, monkeypatch):
        _require_compiled()
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        backend = resolve_kernel_backend("compiled")
        assert type(backend).__name__ != "NumpyKernelBackend"

    def test_using_kernels_restores_active(self):
        before = active_kernel_backend()
        with using_kernels("numpy") as backend:
            assert active_kernel_backend() is backend
        assert active_kernel_backend() is before

    def test_set_kernel_backend_returns_active(self):
        before = active_kernel_backend()
        try:
            assert set_kernel_backend("numpy") is \
                active_kernel_backend()
        finally:
            set_kernel_backend(before)


class TestKernelParity:
    """The compiled loops against the numpy reference, kernel level."""

    def test_stacked_vsc_dense_grid(self):
        _require_compiled()
        devices = [CNFET(default_device_parameters(), model=m)
                   for m in ("model1", "model2")]

        def sweep(spec):
            stacked = StackedVscSolver([d.solver for d in devices])
            hint = np.zeros(stacked.n_lanes)
            rows = []
            with using_kernels(spec):
                for vg in np.linspace(0.0, 0.6, 13):
                    for vd in np.linspace(0.0, 0.6, 13):
                        rows.append(stacked.solve(
                            np.full(stacked.n_lanes, vg),
                            np.full(stacked.n_lanes, vd),
                            hint).copy())
            return np.stack(rows)

        dv = np.max(np.abs(sweep("numpy") - sweep("compiled")))
        assert dv <= KERNEL_PARITY_TOL_V

    def test_stacked_vsc_wrong_hints_take_the_located_pair(self, tier):
        """Hints 5 V off the root select the outermost region pairs,
        which hold no root: the located pair must still solve every
        lane in the kernel (no scalar fallback), to the scalar root."""
        devices = [CNFET(default_device_parameters(), model=m)
                   for m in ("model1", "model2")]
        stacked = StackedVscSolver([d.solver for d in devices])
        vgs, vds = random_bias_grid()
        lane = np.arange(vgs.size)
        table = lane % 2
        hint = np.where(lane % 4 < 2, 5.0, -5.0)
        stats = {}
        got = stacked.solve(vgs, vds, hint, stats=stats, table=table)
        want = np.array([devices[t].solver.solve(g, d, 0.0)
                         for t, g, d in zip(table, vgs, vds)])
        assert stats["stacked_fallbacks"] == 0
        assert np.max(np.abs(got - want)) <= KERNEL_PARITY_TOL_V

    @pytest.mark.parametrize("select", ["all", "subset", "lanes"])
    # the bypass shares the chord's tolerance, so it rides the chord
    # axis: "hit-anchored" is a chord hit with every device on its
    # bypass anchor
    @pytest.mark.parametrize("chord,bypass", _CHORD_BYPASS,
                             ids=_CHORD_BYPASS_IDS)
    # q_prev seeding is a transient-only option
    @pytest.mark.parametrize("tran,seed", [(False, False), (True, False),
                                           (True, True)])
    def test_bank_stamp(self, adder4, tran, seed, chord, bypass, select):
        """The fused bank stamp, compiled against numpy: DC and
        transient, chord off / missed / hit, the per-device bypass off,
        for every device and for some, ``q_prev`` seeding on and off,
        every device, an ``idx`` subset and a lane-offset gather —
        then the charges-only refresh through the same anchors."""
        _require_compiled()
        ref = _bank_calls("numpy", adder4, tran=tran, chord=chord,
                          seed=seed, select=select, bypass=bypass)
        got = _bank_calls("compiled", adder4, tran=tran, chord=chord,
                          seed=seed, select=select, bypass=bypass)
        for key in ("values", "rhs", "q_prev", "q_refresh", "m_out",
                    "r_out"):
            _assert_rows_close(got[key], ref[key], key)
        assert np.max(np.abs(got["hint"] - ref["hint"])) \
            <= KERNEL_PARITY_TOL_V
        assert np.array_equal(got["memo_valid"], ref["memo_valid"])
        assert np.array_equal(got["memo_vgs"], ref["memo_vgs"])
        # the anchors: set by the same devices, to the same values
        anchored = ~np.isnan(ref["anchor"][:, 0])
        assert np.array_equal(~np.isnan(got["anchor"][:, 0]), anchored)
        if anchored.any():
            _assert_rows_close(got["anchor"][anchored].T,
                               ref["anchor"][anchored].T, "anchor")
        # one evaluation per selected lane per call in both tiers (the
        # compiled tier's extra refinement rounds only save fallbacks),
        # the same ones bypassed
        for key in ("stacked_lanes", "stacked_bypassed"):
            assert got["stats"][key] == ref["stats"][key], key
        bypassed = ref["stats"]["stacked_bypassed"]
        # the second and third companion calls, and the refresh
        selected = ref["n_selected"] * 3
        if not tran or bypass == "off":
            assert bypassed == 0
            assert not anchored.any()
        elif bypass == "anchored":
            assert bypassed == selected
        else:
            assert 0 < bypassed < selected

    @pytest.mark.parametrize("tran", [False, True])
    def test_bank_stamp_scalar_fallback(self, adder4, tran):
        """A lane whose closed form cannot validate goes through the
        exact scalar solve in both tiers (the compiled tier's second
        pass), with the same stamp."""
        _require_compiled()
        ref = _bank_calls("numpy", adder4, tran=tran, chord="miss",
                          seed=tran, select="subset", fallback=True)
        got = _bank_calls("compiled", adder4, tran=tran, chord="miss",
                          seed=tran, select="subset", fallback=True)
        calls = 4 if tran else 3
        assert got["stats"]["stacked_fallbacks"] >= calls
        assert ref["stats"]["stacked_fallbacks"] >= calls
        assert got["stats"]["stacked_lanes"] == \
            ref["stats"]["stacked_lanes"]
        for key in ("values", "rhs", "q_prev", "q_refresh", "m_out",
                    "r_out"):
            _assert_rows_close(got[key], ref[key], key)
        assert np.max(np.abs(got["hint"] - ref["hint"])) \
            <= KERNEL_PARITY_TOL_V

    def test_scatter_accum_close(self):
        _require_compiled()
        rng = np.random.default_rng(4)
        base = rng.standard_normal(64)
        map_idx = rng.integers(0, 64, size=400)
        values = rng.standard_normal(400)
        outs = [np.asarray(resolve_kernel_backend(spec).scatter_accum(
            base, map_idx, values)) for spec in ("numpy", "compiled")]
        # Accumulation order may differ between the tiers; float noise
        # only.
        np.testing.assert_allclose(outs[0], outs[1], rtol=0, atol=1e-12)


@pytest.mark.slow
class TestEngineParity:
    """DC / transient / batch / characterize under both tiers."""

    def test_dc_parity(self, family, tier):
        ring, _nodes = build_ring_oscillator(family, stages=3)
        x = robust_dc_solve(ring, None, TIGHT, backend="sparse")
        with using_kernels("numpy"):
            ref = robust_dc_solve(ring, None, TIGHT, backend="sparse")
        if tier == "numpy":
            assert np.array_equal(x, ref)
        else:
            np.testing.assert_allclose(x, ref, rtol=0,
                                       atol=WAVEFORM_PARITY_TOL_V)

    def test_transient_parity(self, family, tier):
        waves = _ring_waveforms(family)
        with using_kernels("numpy"):
            ref = _ring_waveforms(family)
        if tier == "numpy":
            # Both runs are on the numpy tier (the parity reference):
            # a determinism check, so the waveforms must be identical.
            assert np.array_equal(waves, ref)
        else:
            assert np.max(np.abs(waves - ref)) <= WAVEFORM_PARITY_TOL_V

    def test_batch_transient_parity(self, family, tier):
        from repro.circuit.batch_sim import batch_transient

        circuits, all_nodes = [], []
        for _ in range(3):
            ring, nodes = build_ring_oscillator(family, stages=3)
            circuits.append(ring)
            all_nodes.append(nodes)
        x0 = np.zeros((3, circuits[0].dimension()))
        for lane, ring in enumerate(circuits):
            ring.dimension()            # populates the node index
            x0[lane, ring.node_index[all_nodes[lane][1]]] = 0.6

        def run():
            result = batch_transient(circuits, 3e-11, dt=2e-12,
                                     method="be", options=TIGHT,
                                     x0=x0.copy(),
                                     record_currents=False)
            return np.stack([
                np.stack([result[lane].trace(f"v({n})")
                          for n in all_nodes[lane]])
                for lane in range(3)
            ])

        waves = run()
        with using_kernels("numpy"):
            ref = run()
        if tier == "numpy":
            assert np.array_equal(waves, ref)
        else:
            assert np.max(np.abs(waves - ref)) <= WAVEFORM_PARITY_TOL_V

    def test_characterize_parity(self, family, tier):
        from repro.characterize import characterize_gate

        def table():
            result = characterize_gate(
                family, "inverter", loads=(1e-17, 4e-17),
                slews=(1e-12, 4e-12))
            return result.to_json_dict()

        got = table()
        with using_kernels("numpy"):
            ref = table()
        if tier == "numpy":
            assert got == ref
        else:
            _assert_arcs_close(got, ref)


class TestRefactorLane:
    """The frozen-pivot LU refactorization behind ``factorize_csc``."""

    @staticmethod
    def _random_csc(n, rng):
        dense = np.eye(n) * (2.0 + rng.random(n))
        for _ in range(4 * n):
            i, j = rng.integers(0, n, size=2)
            dense[i, j] += rng.standard_normal() * 0.3
        from scipy.sparse import csc_matrix
        matrix = csc_matrix(dense)
        return (matrix.data.copy(), matrix.indices.astype(np.int64),
                matrix.indptr.astype(np.int64), dense)

    def test_replay_matches_direct_solve(self):
        _require_compiled()
        pytest.importorskip("scipy")
        from repro.circuit.solvers import SparseBackend

        rng = np.random.default_rng(11)
        n = 40
        data, indices, indptr, dense = self._random_csc(n, rng)
        rhs = rng.standard_normal(n)
        backend = SparseBackend()
        with using_kernels("compiled"):
            lu = backend.factorize_csc(n, data, indices, indptr)
            assert type(lu).__name__ == "_RefactorLU"
            x = lu.solve(rhs)
            np.testing.assert_allclose(dense @ x, rhs, rtol=0,
                                       atol=1e-9 * np.abs(rhs).max())
            # Same pattern, perturbed values: the numeric replay path
            # (no fresh symbolic factorization).
            refreshes = lu.sym.refreshes
            data2 = data * (1.0 + 1e-3 * rng.standard_normal(data.size))
            lu2 = backend.factorize_csc(n, data2, indices, indptr)
            assert lu2.sym.refreshes == refreshes
            x2 = lu2.solve(rhs)
            dense2 = np.zeros_like(dense)
            for col in range(n):
                dense2[indices[indptr[col]:indptr[col + 1]], col] = \
                    data2[indptr[col]:indptr[col + 1]]
            np.testing.assert_allclose(dense2 @ x2, rhs, rtol=0,
                                       atol=1e-9 * np.abs(rhs).max())

    def test_numpy_tier_takes_plain_superlu(self):
        pytest.importorskip("scipy")
        from repro.circuit.solvers import SparseBackend

        rng = np.random.default_rng(12)
        n = 20
        data, indices, indptr, dense = self._random_csc(n, rng)
        backend = SparseBackend()
        with using_kernels("numpy"):
            lu = backend.factorize_csc(n, data, indices, indptr)
        assert type(lu).__name__ != "_RefactorLU"
        rhs = rng.standard_normal(n)
        np.testing.assert_allclose(dense @ lu.solve(rhs), rhs, rtol=0,
                                   atol=1e-9 * np.abs(rhs).max())

    def test_singular_matrix_raises_analysis_error(self):
        _require_compiled()
        pytest.importorskip("scipy")
        from repro.circuit.solvers import SparseBackend
        from repro.errors import AnalysisError

        rng = np.random.default_rng(13)
        n = 10
        data, indices, indptr, _dense = self._random_csc(n, rng)
        backend = SparseBackend()
        with using_kernels("compiled"):
            with pytest.raises(AnalysisError):
                backend.factorize_csc(n, np.zeros_like(data), indices,
                                      indptr)


class TestWorkers:
    def test_resolve_workers_specs(self):
        assert resolve_workers(3) == 3
        assert resolve_workers("3") == 3
        auto = resolve_workers(None)
        assert auto == (os.cpu_count() or 1)
        assert resolve_workers(0) == auto
        assert resolve_workers("auto") == auto

    def test_resolve_workers_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5
        assert resolve_workers("auto") == 5
        assert resolve_workers(2) == 2        # explicit beats env
        monkeypatch.setenv(WORKERS_ENV, "zero")
        with pytest.raises(ParameterError):
            resolve_workers(None)
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(ParameterError):
            resolve_workers(None)

    def test_resolve_workers_rejects_bad_specs(self):
        for bad in (-1, "none", 1.5):
            with pytest.raises(ParameterError):
                resolve_workers(bad)

    def test_fork_map_matches_serial(self):
        items = list(range(23))
        assert fork_map(lambda x: x * x, items, workers=4) == \
            [x * x for x in items]

    def test_fork_map_serial_when_one_worker(self):
        calls = []

        def fn(x):
            calls.append(x)          # visible only when run in-process
            return -x

        assert fork_map(fn, [1, 2, 3], workers=1) == [-1, -2, -3]
        assert calls == [1, 2, 3]

    def test_fork_map_inherits_parent_state(self):
        if "fork" not in __import__("multiprocessing") \
                .get_all_start_methods():
            pytest.skip("no fork on this platform")
        big = np.arange(1000)

        def fn(i):
            return int(big[i])       # closure over parent memory

        assert fork_map(fn, [0, 500, 999], workers=2) == [0, 500, 999]

    def test_fork_map_propagates_exceptions(self):
        def fn(x):
            if x == 2:
                raise ValueError("boom")
            return x

        with pytest.raises(ValueError):
            fork_map(fn, [1, 2, 3], workers=2)

    def test_nested_fork_map_degrades_to_serial(self):
        def inner(x):
            return x + 1

        def outer(xs):
            return fork_map(inner, xs, workers=4)

        assert fork_map(outer, [[1, 2], [3]], workers=2) == \
            [[2, 3], [4]]


@pytest.mark.slow
class TestShardedCampaign:
    def test_campaign_workers_match_serial(self, tmp_path):
        from repro.variability.campaign import (
            Campaign,
            CampaignConfig,
            DeviceMetricsEvaluator,
        )
        from repro.variability.params import default_device_space

        space = default_device_space()
        config = CampaignConfig(name="t", n_samples=32, seed=5,
                                sampler="mc", chunk_size=8)

        serial = Campaign(config, space,
                          DeviceMetricsEvaluator(space)).run(workers=1)
        sharded_dir = tmp_path / "run"
        sharded = Campaign(config, space, DeviceMetricsEvaluator(space),
                           run_dir=sharded_dir).run(workers=2)
        assert len(serial.records) == len(sharded.records) == 32
        for a, b in zip(serial.records, sharded.records):
            for metric, value in a["metrics"].items():
                # Forked chunks build their own evaluator memo, so
                # identical devices may converge from different warm
                # starts — float noise, not a numerics change.
                assert value == pytest.approx(b["metrics"][metric],
                                              rel=1e-9)
        # The sharded run dir must stay resume-compatible.
        resumed = Campaign(config, space, DeviceMetricsEvaluator(space),
                           run_dir=sharded_dir).run(workers=2)
        assert resumed.resumed_chunks == 4
        assert resumed.computed_chunks == 0

    def test_characterize_tiles_match_single_batch(self, family):
        from repro.characterize import characterize_gate

        tables = [
            characterize_gate(family, "inverter", loads=(1e-17, 4e-17),
                              slews=(1e-12, 4e-12),
                              workers=workers).to_json_dict()
            for workers in (1, 2)
        ]
        # Each tile computes its own shared pulse envelope: agreement
        # is within the LTE tolerance of the transients, the
        # batch-vs-scalar contract.
        _assert_arcs_close(tables[1], tables[0])
