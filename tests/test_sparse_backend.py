"""Linear-solver backend layer: resolution, parity, fallbacks."""

import numpy as np
import pytest

from repro.circuit import (
    Capacitor,
    Circuit,
    CNFETElement,
    DenseBackend,
    NewtonOptions,
    Resistor,
    SparseBackend,
    VoltageSource,
    ac_analysis,
    dc_sweep,
    operating_point,
    resolve_backend,
    transient,
)
from repro.circuit.logic import (
    LogicFamily,
    build_inverter,
    build_inverter_chain,
    build_nand2,
    build_ring_oscillator,
    build_ripple_carry_adder,
)
from repro.circuit.mna import TwoPhaseAssembler, robust_dc_solve
from repro.circuit.solvers import SPARSE_AUTO_MIN_DIM
from repro.circuit.waveforms import Pulse
from repro.errors import AnalysisError, ParameterError
from repro.reference.fettoy import FETToyModel, FETToyParameters

from assembled_system import dense_system

TIGHT = NewtonOptions(vtol=1e-12, reltol=1e-10)


@pytest.fixture(scope="module")
def family():
    return LogicFamily.default(vdd=0.6)


@pytest.fixture(scope="module")
def adder(family):
    """4-bit RCA with a carry-ripple pulse: 144 CNFETs (slab active),
    ~90 unknowns."""
    circuit, info = build_ripple_carry_adder(
        family, 4, a_value=0b1111, b_value=0,
        cin_wave=Pulse(0.0, 0.6, 2e-12, 5e-13, 5e-13, 2e-11, 4e-11))
    return circuit, info


class TestResolution:
    def test_explicit_names(self):
        assert isinstance(resolve_backend("dense", 10), DenseBackend)
        assert isinstance(resolve_backend("sparse", 10), SparseBackend)
        backend = DenseBackend()
        assert resolve_backend(backend, 10) is backend

    def test_auto_by_dimension(self):
        assert isinstance(
            resolve_backend("auto", SPARSE_AUTO_MIN_DIM - 1),
            DenseBackend)
        assert isinstance(
            resolve_backend("auto", SPARSE_AUTO_MIN_DIM),
            SparseBackend)
        assert isinstance(resolve_backend(None, None), DenseBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError, match="backend"):
            resolve_backend("umfpack", 10)

    def test_auto_without_scipy_is_dense(self, monkeypatch):
        import repro.circuit.solvers as solvers

        monkeypatch.setattr(solvers, "HAVE_SCIPY", False)
        assert isinstance(
            solvers.resolve_backend("auto", 10_000), DenseBackend)


def _csc_system(rng, n=6, dtype=float):
    """A random diagonally dominant ``n x n`` system in CSC form, with
    its dense matrix."""
    dense = np.where(rng.random((n, n)) < 0.4, rng.standard_normal((n, n)),
                     0.0).astype(dtype)
    if np.issubdtype(dtype, np.complexfloating):
        dense = dense + 1j * np.where(dense != 0,
                                      rng.standard_normal((n, n)), 0.0)
    dense[np.diag_indices(n)] = 4.0 + np.abs(dense).sum(axis=1)
    cols, rows = np.nonzero(dense.T)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    return dense, dense[rows, cols], rows, indptr


class TestDenseSolveCsc:
    """``DenseBackend.solve_csc``: the CSC data scattered into a dense
    matrix kept per pattern, then LAPACK."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_dense_solve(self, dtype):
        rng = np.random.default_rng(3)
        dense, data, indices, indptr = _csc_system(rng, dtype=dtype)
        rhs = rng.standard_normal(dense.shape[0]).astype(dtype)
        got = DenseBackend().solve_csc(dense.shape[0], data, indices,
                                       indptr, rhs)
        np.testing.assert_allclose(got, np.linalg.solve(dense, rhs),
                                   rtol=1e-12, atol=0)

    def test_pattern_reused_with_new_values_and_dtype(self):
        """The kept matrix takes each call's values, real or complex,
        and nothing of the previous call's."""
        rng = np.random.default_rng(5)
        backend = DenseBackend()
        dense, data, indices, indptr = _csc_system(rng)
        n = dense.shape[0]
        rhs = rng.standard_normal(n)
        for scale in (1.0, 2.5, 1j):
            got = backend.solve_csc(n, data * scale, indices, indptr, rhs)
            np.testing.assert_allclose(
                got, np.linalg.solve(dense * scale, rhs), rtol=1e-12,
                atol=0)

    def test_singular_raises_analysis_error(self):
        data = np.array([1.0, 2.0, 2.0, 4.0])  # rank 1
        indices = np.array([0, 1, 0, 1])
        indptr = np.array([0, 2, 4])
        with pytest.raises(AnalysisError, match="singular"):
            DenseBackend().solve_csc(2, data, indices, indptr,
                                     np.ones(2))


class TestLinearParity:
    def test_divider_sparse(self):
        circuit = Circuit("div")
        circuit.add(VoltageSource("v1", "in", "0", 12.0))
        circuit.add(Resistor("r1", "in", "mid", 2e3))
        circuit.add(Resistor("r2", "mid", "0", 1e3))
        op = operating_point(circuit, backend="sparse")
        assert op.voltage("mid") == pytest.approx(4.0)

    def test_rlc_transient_parity(self):
        from repro.circuit import Inductor

        def build():
            circuit = Circuit("rlc")
            circuit.add(VoltageSource(
                "v1", "in", "0",
                Pulse(0.0, 1.0, 1e-9, 1e-10, 1e-10, 5e-8, 1e-7)))
            circuit.add(Resistor("r1", "in", "a", 50.0))
            circuit.add(Inductor("l1", "a", "b", 1e-7))
            circuit.add(Capacitor("c1", "b", "0", 1e-11))
            return circuit

        kwargs = dict(tstop=2e-8, dt=1e-10, method="trap",
                      options=TIGHT)
        dense = transient(build(), backend="dense", **kwargs)
        sparse = transient(build(), backend="sparse", **kwargs)
        assert np.max(np.abs(dense.voltage("b")
                             - sparse.voltage("b"))) <= 1e-9

    def test_diode_dc_parity(self):
        from repro.circuit import Diode

        def build():
            circuit = Circuit("d")
            circuit.add(VoltageSource("v1", "in", "0", 5.0))
            circuit.add(Resistor("r1", "in", "a", 1e3))
            circuit.add(Diode("d1", "a", "0"))
            return circuit

        vd = robust_dc_solve(build(), None, TIGHT, backend="dense")
        vs = robust_dc_solve(build(), None, TIGHT, backend="sparse")
        assert np.max(np.abs(vd - vs)) <= 1e-9


class TestCnfetCircuitParity:
    def test_dc_parity(self, adder):
        circuit, _info = adder
        xd = robust_dc_solve(circuit, None, TIGHT, backend="dense")
        xs = robust_dc_solve(circuit, None, TIGHT, backend="sparse")
        n = len(circuit.node_index)
        assert np.max(np.abs(xd[:n] - xs[:n])) <= 1e-9

    def test_adaptive_transient_parity(self, adder):
        """Adaptive engine pinned to a shared grid through both
        backends: identical time points, node voltages <= 1e-9 V."""
        circuit, info = adder
        kwargs = dict(tstop=1e-11, method="trap", options=TIGHT,
                      adaptive=True, dt_min=2.5e-13, dt_max=2.5e-13,
                      record_currents=False)
        dense = transient(circuit, backend="dense", **kwargs)
        sparse = transient(circuit, backend="sparse", **kwargs)
        assert np.array_equal(dense.axis, sparse.axis)
        deviation = max(
            float(np.max(np.abs(dense.trace(f"v({node})")
                                - sparse.trace(f"v({node})"))))
            for node in circuit.nodes
        )
        assert deviation <= 1e-9

    def test_free_adaptive_transient_runs_sparse(self, adder):
        """The genuinely adaptive controller (no pinning) must run to
        completion on the sparse backend and settle to the DC-correct
        final state."""
        circuit, info = adder
        ds = transient(circuit, tstop=4e-12, method="trap",
                       backend="sparse", record_currents=False)
        assert ds.axis[-1] == pytest.approx(4e-12)

    def test_ac_parity_cnfet(self, family):
        from repro.circuit.logic import build_inverter

        circuit, _vin, _vout = build_inverter(family, vin_wave=0.3)
        freqs = [1e6, 1e9, 1e12]
        dense = ac_analysis(circuit, "vin_src", freqs, TIGHT,
                            backend="dense")
        sparse = ac_analysis(circuit, "vin_src", freqs, TIGHT,
                             backend="sparse")
        vm_d = np.asarray(dense.trace("vm(out)"))
        vm_s = np.asarray(sparse.trace("vm(out)"))
        # vm is a gain (tens of V per unit excitation); gate the
        # deviation relative to the magnitude, 1e-9 V per volt.
        assert np.max(np.abs(vm_d - vm_s)
                      / np.maximum(vm_d, 1.0)) <= 1e-9

    def test_dc_sweep_parity_chain(self, family):
        # Supply ramp with the input at a rail: every point keeps the
        # chain in well-conditioned saturated states.  (An input sweep
        # would cross the metastable threshold, where the gain^N
        # product exceeds what float64 can represent and no backend
        # converges.)
        options = NewtonOptions(vtol=1e-11, reltol=1e-9)
        circuit, out = build_inverter_chain(family, 17)
        values = np.linspace(0.0, family.vdd, 7)
        dense = dc_sweep(circuit, "vdd_src", values, options,
                         backend="dense")
        sparse = dc_sweep(circuit, "vdd_src", values, options,
                          backend="sparse")
        deviation = max(
            float(np.max(np.abs(dense.trace(f"v({node})")
                                - sparse.trace(f"v({node})"))))
            for node in circuit.nodes
        )
        assert deviation <= 1e-9


#: circuits of every size, from one inverter to the 4-bit adder
SLAB_CIRCUITS = ("inverter", "nand2", "ring3", "adder")


@pytest.fixture
def slab_circuit(request, family, adder):
    """The circuit named by the test's ``SLAB_CIRCUITS`` parameter."""
    name = request.param
    if name == "inverter":
        return build_inverter(family)[0]
    if name == "nand2":
        return build_nand2(family, 0.6, 0.0)[0]
    if name == "ring3":
        return build_ring_oscillator(family, 3)[0]
    return adder[0]


class TestSlab:
    @pytest.mark.parametrize("slab_circuit", SLAB_CIRCUITS,
                             indirect=True)
    def test_every_fast_cnfet_is_banked(self, slab_circuit):
        assembler = TwoPhaseAssembler(slab_circuit, backend="dense")
        fets = [el for el in slab_circuit.elements
                if isinstance(el, CNFETElement)]
        assert assembler.slab is not None
        assert assembler.slab.elements == fets

    def test_reference_devices_are_not_banked(self):
        device = FETToyModel(FETToyParameters())
        circuit, _, _ = build_inverter(
            LogicFamily(n_device=device, p_device=device, vdd=0.6))
        assert TwoPhaseAssembler(circuit).slab is None

    @pytest.mark.parametrize("slab_circuit", SLAB_CIRCUITS,
                             indirect=True)
    def test_slab_vs_scalar_stamping_parity(self, slab_circuit):
        """The bank-assembled system equals the one-phase
        ``assemble()`` (every CNFET through its scalar ``stamp``) at
        the same iterate, in DC and in a transient step, to
        closed-form solver noise."""
        from repro.circuit.mna import assemble

        circuit = slab_circuit
        x_prev = robust_dc_solve(circuit, None, TIGHT, backend="dense")
        x = x_prev + np.random.default_rng(7).uniform(
            -0.05, 0.05, x_prev.size)
        tran = dict(analysis="tran", time=1e-12, dt=1e-12,
                    x_prev=x_prev, method="be")
        for step in (dict(analysis="dc"), tran):
            circuit.reset_state()
            assembler = TwoPhaseAssembler(circuit, backend="dense")
            assert assembler.slab is not None
            assembler.begin_step(**step)
            assembler.iterate(x)
            bank = dense_system(assembler)
            circuit.reset_state()
            scalar = assemble(circuit, x, **step)
            for got, ref in zip(bank, (scalar.matrix, scalar.rhs)):
                np.testing.assert_allclose(got, ref, rtol=1e-10,
                                           atol=1e-20,
                                           err_msg=step["analysis"])

    def test_fixed_step_seeds_qprev_in_first_stamp(self, adder):
        """On a fixed step the first Newton iterate *is* x_prev, so
        ``begin_step`` only arms the q_prev refresh and the first stamp
        seeds it from its own evaluation: exactly one VSC solve per
        device per Newton iteration, none in ``begin_step``."""
        circuit, _ = adder
        x0 = robust_dc_solve(circuit, None, TIGHT)
        n_fets = sum(isinstance(el, CNFETElement)
                     for el in circuit.elements)
        stats = {}
        transient(circuit, 1e-11, dt=5e-13, x0=x0, record_currents=False,
                  stats=stats)
        assert stats["steps"] == 20
        assert stats["stacked_lanes"] == stats["iterations"] * n_fets

    def test_predictor_start_refreshes_qprev(self, adder):
        """An adaptive step starts Newton from the predictor, not from
        x_prev: the slab refreshes q_prev at x_prev first (one extra
        solve per device and step) and the stacked-solver counters,
        fallbacks included, are still reported."""
        circuit, _ = adder
        n_fets = sum(isinstance(el, CNFETElement)
                     for el in circuit.elements)
        stats = {}
        transient(circuit, 1e-11, record_currents=False, stats=stats)
        assert stats["stacked_lanes"] > stats["iterations"] * n_fets
        assert stats["stacked_fallbacks"] >= 0

    @pytest.mark.slow
    def test_adder32_hold_solve_count(self):
        """The benchmark's 32-bit adder hold transient (1152 FETs,
        fixed-step trap, one Newton iteration per step): 1200
        iterations cost exactly 1200 x 1152 stacked VSC solves."""
        circuit, _ = build_ripple_carry_adder(
            LogicFamily.default(vdd=0.6), 32, a_value=3, b_value=5)
        stats = {}
        transient(circuit, 6e-10, dt=5e-13, x0=robust_dc_solve(circuit),
                  record_currents="sources", stats=stats)
        assert stats["iterations"] == 1200
        assert stats["stacked_lanes"] == 1_382_400


class TestSparseInternals:
    def test_pattern_reused_across_iterations(self, adder):
        circuit, _ = adder
        assembler = TwoPhaseAssembler(circuit, backend="sparse")
        assembler.begin_step(analysis="dc")
        x = np.zeros(assembler.n)
        assembler.iterate(x)
        assembler.solve()
        pattern = assembler._pattern_flat
        assembler.iterate(x + 1e-3)
        assembler.solve()
        assert assembler._pattern_flat is pattern  # no rebuild

    def test_pattern_rebuilds_on_mode_switch(self, adder):
        circuit, _ = adder
        assembler = TwoPhaseAssembler(circuit, backend="sparse")
        assembler.begin_step(analysis="dc")
        x = np.zeros(assembler.n)
        assembler.iterate(x)
        assembler.solve()
        dc_pattern = assembler._pattern_flat
        assembler.begin_step(analysis="tran", time=1e-12, dt=1e-12,
                             x_prev=x, method="be")
        assembler.iterate(x)
        assembler.solve()
        assert assembler._pattern_flat is not dc_pattern
        assert assembler._pattern_flat.size > dc_pattern.size

    def test_csc_pattern_bitwise_stable_on_rca8(self, family):
        """On rca8 the monolithic sparse assembler's CSC arrays must
        hash to the pinned digest (the layout SuperLU inputs were built
        with), and the structure is scipy's canonical CSC."""
        import hashlib

        import scipy.sparse as sp

        from repro.circuit.mna import newton_solve

        circuit = build_ripple_carry_adder(LogicFamily.default(), 8,
                                           a_value=3, b_value=5)[0]
        x = robust_dc_solve(circuit) + 1e-3
        mono = TwoPhaseAssembler(circuit, backend="sparse")
        newton_solve(circuit, x, NewtonOptions(), assembler=mono)
        digest = hashlib.sha256()
        arrays = [mono._pattern_flat, mono._indices, mono._indptr,
                  mono._static_map, mono._dyn_map]
        for array in arrays:
            digest.update(np.ascontiguousarray(array, np.int64).tobytes())
        assert digest.hexdigest() == ("411993abf39874aa8b9324e9876105c5"
                                      "9ea46aa02c885204dbb48ba538749847")

        n = mono.n
        rows, cols = np.divmod(mono._pattern_flat, n)
        ref = sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                            shape=(n, n)).tocsc()
        ref.sort_indices()
        assert np.array_equal(mono._indices, ref.indices)
        assert np.array_equal(mono._indptr, ref.indptr)

    def test_singular_matrix_diagnosed(self):
        circuit = Circuit("floating")
        circuit.add(VoltageSource("v1", "in", "0", 1.0))
        circuit.add(Resistor("r1", "in", "a", 1e3))
        circuit.add(Capacitor("c1", "b", "0", 1e-12))  # b floats in DC
        assembler = TwoPhaseAssembler(circuit, backend="sparse")
        assembler.begin_step(analysis="dc")
        assembler.iterate(np.zeros(assembler.n))
        with pytest.raises(AnalysisError, match="singular"):
            assembler.solve()

    def test_scipy_absent_fallback(self, adder, monkeypatch):
        """SparseBackend without scipy scatters dense and still
        solves correctly."""
        import repro.circuit.solvers as solvers

        circuit, _ = adder
        xs = robust_dc_solve(circuit, None, TIGHT, backend="sparse")
        monkeypatch.setattr(solvers, "HAVE_SCIPY", False)
        xf = robust_dc_solve(circuit, None, TIGHT, backend="sparse")
        n = len(circuit.node_index)
        assert np.max(np.abs(xs[:n] - xf[:n])) <= 1e-9


class TestBatchBackend:
    def test_batch_transient_sparse_parity(self, family):
        from repro.circuit.batch_sim import batch_transient
        from repro.circuit.logic import build_ring_oscillator
        from repro.circuit.transient import initial_conditions_from_op

        rings, nodes = [], ()
        for _ in range(3):
            ring, nodes = build_ring_oscillator(family, stages=3)
            rings.append(ring)
        x_lane = initial_conditions_from_op(
            rings[0], {nodes[0]: 0.0, nodes[1]: 0.6}, TIGHT)
        x0 = np.tile(x_lane, (3, 1))
        kwargs = dict(dt=2e-12, method="be", options=TIGHT, x0=x0,
                      record_currents=False)
        dense = batch_transient(rings, 3e-11, backend="dense",
                                **kwargs)
        sparse = batch_transient(rings, 3e-11, backend="sparse",
                                 **kwargs)
        deviation = max(
            float(np.max(np.abs(dense[lane].trace(f"v({n})")
                                - sparse[lane].trace(f"v({n})"))))
            for lane in range(3) for n in nodes
        )
        assert deviation <= 1e-9

    def test_stacked_singular_lane_nan(self):
        backend = SparseBackend()
        a = np.stack([np.eye(3), np.zeros((3, 3))])
        z = np.ones((2, 3))
        solved = backend.solve_stacked(a, z)
        assert np.allclose(solved[0], 1.0)
        assert np.isnan(solved[1]).all()
