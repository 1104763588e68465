"""Tests for ``repro.exprunner``: config, plan, executor, report.

Most tests drive a registered toy workload (cheap, deterministic,
controllable failure) so they exercise the orchestration machinery
without engine cost; two end-of-file tests run a real (tiny) engine
workload to pin the integration.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import CampaignError, ParameterError
from repro.exprunner import (
    ExperimentRunner,
    ExperimentSuite,
    RunnerConfig,
    Workload,
    expand_plan,
    load_config,
    read_run_table,
    register_workload,
    render_report,
    robust_time,
)
from repro.exprunner.plan import baseline_index


def _toy(point, params, seed):
    """Deterministic toy workload: the parity signature derives from
    the offset factor alone (per-cell seeds differ across cells, so a
    comparable signature must not depend on them — real workloads take
    sampling seeds from fixed ``params`` for the same reason), while
    the checksum metric folds the seed in to pin seed plumbing."""
    if point.get("mode") == "explode":
        raise ValueError("toy workload asked to fail")
    offset = float(point.get("offset", 0.0))
    return {
        "wall_s": 0.001,
        "newton_iterations": 7.0,
        "metrics": {"checksum": float(seed % 97) + 3.0 + offset},
        "signature": {"trace": [1.0 + offset, 2.0]},
    }


register_workload(Workload(name="toy_test", run=_toy,
                           description="unit-test workload"))


def toy_config(**overrides):
    spec = {
        "name": "toy",
        "workload": "toy_test",
        "factors": {"mode": ["a", "b"], "offset": [0.0, 0.5]},
        "repetitions": 2,
        "baseline": {"offset": 0.0},
    }
    spec.update(overrides)
    return RunnerConfig.from_dict(spec)


# ---------------------------------------------------------------------
# config
# ---------------------------------------------------------------------

class TestRunnerConfig:
    def test_from_dict_roundtrip(self):
        config = toy_config()
        assert config.factor_names == ["mode", "offset"]
        assert RunnerConfig.from_dict(config.describe()) == config

    def test_scalar_level_coerces_to_single_level_list(self):
        config = RunnerConfig.from_dict(
            {"name": "x", "workload": "toy_test",
             "factors": {"mode": "a"}})
        assert config.factors == (("mode", ("a",)),)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError, match="unknown"):
            RunnerConfig.from_dict(
                {"name": "x", "workload": "toy_test",
                 "factors": {"mode": ["a"]}, "bogus": 1})

    def test_baseline_must_name_declared_levels(self):
        with pytest.raises(ParameterError, match="baseline"):
            toy_config(baseline={"offset": 9.0})
        with pytest.raises(ParameterError, match="baseline"):
            toy_config(baseline={"nope": 0.0})

    def test_duplicate_factor_rejected(self):
        with pytest.raises(ParameterError, match="duplicate"):
            RunnerConfig(name="x", workload="toy_test",
                         factors=(("m", ("a",)), ("m", ("b",))))

    def test_fingerprint_tracks_content(self):
        assert toy_config().fingerprint() == toy_config().fingerprint()
        assert (toy_config(seed=5).fingerprint()
                != toy_config().fingerprint())

    def test_with_factor_prunes_levels_and_baseline(self):
        pruned = toy_config().with_factor("offset", (0.5,))
        assert dict(pruned.factors)["offset"] == (0.5,)
        assert pruned.baseline_dict is None  # baseline level dropped

    def test_suite_rejects_duplicate_names(self):
        with pytest.raises(ParameterError, match="duplicate"):
            ExperimentSuite(name="s",
                            experiments=(toy_config(), toy_config()))


# ---------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------

class TestPlan:
    def test_repetition_major_order(self):
        plan = expand_plan(toy_config())
        assert [s.repetition for s in plan] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert [s.cell for s in plan] == [0, 1, 2, 3, 0, 1, 2, 3]
        assert [s.run_id for s in plan[:2]] == ["r0000", "r0001"]

    def test_seeds_shared_across_repetitions_distinct_across_cells(self):
        plan = expand_plan(toy_config())
        by_cell = {}
        for spec in plan:
            by_cell.setdefault(spec.cell, set()).add(spec.seed)
        assert all(len(seeds) == 1 for seeds in by_cell.values())
        assert len({next(iter(s)) for s in by_cell.values()}) == 4

    def test_baseline_index_same_repetition(self):
        config = toy_config()
        plan = expand_plan(config)
        spec = next(s for s in plan
                    if s.point_dict["offset"] == 0.5
                    and s.repetition == 1)
        base = plan[baseline_index(plan, config, spec)]
        assert base.repetition == 1
        assert base.point_dict == {"mode": spec.point_dict["mode"],
                                   "offset": 0.0}

    def test_baseline_cell_is_its_own_baseline(self):
        config = toy_config()
        plan = expand_plan(config)
        spec = next(s for s in plan if s.point_dict["offset"] == 0.0)
        assert baseline_index(plan, config, spec) is None


# ---------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------

class TestExecutor:
    def test_run_and_parity(self, tmp_path):
        result = ExperimentRunner(toy_config(), tmp_path).run()
        assert result.complete and result.computed == 8
        for rec in result.records:
            if rec["point"]["offset"] == 0.0:
                assert rec["parity"] == 0.0
            else:  # |(1.0+0.5) - 1.0| from the toy signature
                assert rec["parity"] == pytest.approx(0.5)
            assert rec["status"] == "ok"
            assert rec["peak_rss_kib"] > 0

    def test_error_runs_recorded_not_raised(self, tmp_path):
        config = toy_config(factors={"mode": ["a", "explode"],
                                     "offset": [0.0]},
                            baseline=None, repetitions=1)
        result = ExperimentRunner(config, tmp_path).run()
        by_mode = {r["point"]["mode"]: r for r in result.records}
        assert by_mode["a"]["status"] == "ok"
        assert by_mode["explode"]["status"] == "error"
        assert "toy workload asked to fail" in by_mode["explode"]["error"]
        assert math.isnan(by_mode["explode"]["newton_iterations"])

    def test_resume_completes_only_missing_runs(self, tmp_path):
        config = toy_config()
        ExperimentRunner(config, tmp_path).run()
        for run_id in ("r0001", "r0005", "r0006"):
            shutil.rmtree(tmp_path / "runs" / run_id)
        result = ExperimentRunner(config, tmp_path).run()
        assert result.resumed == 5 and result.computed == 3
        assert result.complete

    def test_resume_refuses_mismatched_manifest(self, tmp_path):
        ExperimentRunner(toy_config(), tmp_path).run()
        with pytest.raises(CampaignError, match="different experiment"):
            ExperimentRunner(toy_config(seed=99), tmp_path).run()

    def test_no_resume_overwrites_mismatched_manifest(self, tmp_path):
        ExperimentRunner(toy_config(), tmp_path).run()
        changed = toy_config(seed=99)
        result = ExperimentRunner(changed, tmp_path).run(resume=False)
        assert result.computed == 8
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["fingerprint"] == changed.fingerprint()

    def test_corrupt_record_recomputed(self, tmp_path):
        config = toy_config()
        ExperimentRunner(config, tmp_path).run()
        (tmp_path / "runs" / "r0002" / "record.json").write_text("{oops")
        result = ExperimentRunner(config, tmp_path).run()
        assert result.computed == 1 and result.complete

    def test_max_runs_interrupt_then_finish(self, tmp_path):
        config = toy_config()
        partial = ExperimentRunner(config, tmp_path).run(max_runs=3)
        assert partial.computed == 3 and partial.pending == 5
        assert not partial.complete
        rest = ExperimentRunner(config, tmp_path).run()
        assert rest.resumed == 3 and rest.computed == 5
        assert rest.complete

    def test_run_table_columns_and_determinism(self, tmp_path):
        config = toy_config()
        ExperimentRunner(config, tmp_path).run()
        table_path = tmp_path / "run_table.csv"
        first = table_path.read_text()
        rows = read_run_table(table_path)
        assert len(rows) == 8
        assert set(rows[0]) >= {"run_id", "cell", "repetition", "seed",
                                "status", "wall_s", "newton_iterations",
                                "peak_rss_kib", "parity", "mode",
                                "offset", "checksum"}
        # regenerating from the persisted records is byte-identical
        ExperimentRunner(config, tmp_path).load()
        assert table_path.read_text() == first

    def test_unknown_workload_rejected(self):
        with pytest.raises(ParameterError, match="unknown workload"):
            ExperimentRunner(toy_config(workload="nope"))


# ---------------------------------------------------------------------
# report
# ---------------------------------------------------------------------

class TestReport:
    def test_cells_aggregate_min_and_median(self, tmp_path):
        result = ExperimentRunner(toy_config(), tmp_path).run()
        cells = result.cells()
        assert len(cells) == 4
        for cell in cells:
            assert cell["n"] == cell["n_ok"] == 2
            assert cell["wall_s_min"] == min(cell["wall_s_all"])
            assert cell["newton_iterations"] == 7.0
            assert cell["metrics"]["checksum"] == pytest.approx(
                cell["point"]["offset"] + 3.0
                + (next(r["seed"] for r in result.records
                        if r["cell"] == cell["cell"]) % 97))

    def test_report_deterministic_and_timestamp_free(self, tmp_path):
        config = toy_config()
        result = ExperimentRunner(config, tmp_path).run()
        one = render_report(config, result.records, pending=0)
        two = render_report(
            config, ExperimentRunner(config, tmp_path).load().records,
            pending=0)
        assert json.dumps(one, sort_keys=True) == \
            json.dumps(two, sort_keys=True)
        assert one["complete"] is True
        assert "created" not in json.dumps(one)

    def test_cell_lookup_requires_unique_match(self, tmp_path):
        result = ExperimentRunner(toy_config(), tmp_path).run()
        assert result.cell(mode="a",
                           offset=0.5)["point"]["offset"] == 0.5
        with pytest.raises(ParameterError, match="matched 2"):
            result.cell(mode="a")


# ---------------------------------------------------------------------
# timing helper
# ---------------------------------------------------------------------

class TestRobustTime:
    def test_returns_min_median_and_spread(self):
        calls = []
        out = robust_time(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5
        assert out["best_s"] == min(out["times_s"])
        assert len(out["times_s"]) == 3
        assert out["best_s"] <= out["median_s"]

    def test_validates_arguments(self):
        with pytest.raises(ParameterError):
            robust_time(lambda: None, repeats=0)
        with pytest.raises(ParameterError):
            robust_time(lambda: None, warmup=-1)


# ---------------------------------------------------------------------
# suite loading + CLI
# ---------------------------------------------------------------------

class TestSuiteAndCli:
    def test_load_config_single_becomes_suite(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(
            {"name": "solo", "workload": "toy_test",
             "factors": {"mode": ["a"]}}))
        suite = load_config(path)
        assert [c.name for c in suite] == ["solo"]

    def test_bench_configs_parse(self):
        configs = Path(__file__).parent.parent / "benchmarks" / "configs"
        names = {}
        for path in sorted(configs.glob("*.json")):
            suite = load_config(path)
            names[path.stem] = [c.name for c in suite]
        assert names["batch_transient"] == ["char_grid", "mc_ring",
                                            "ring_lanes"]
        assert names["compiled_hot_path"] == ["rca32", "vsc_parity"]
        assert names["smoke"] == ["ring_smoke"]
        assert names["bypass"] == ["hold", "pulse"]
        assert names["crossover"] == ["rca_tran", "ring3_tran",
                                      "chain_sweep"]

    def test_cli_run_resume_report(self, tmp_path):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(
            {"name": "cli_toy", "workload": "circuit_transient",
             "factors": {"chord": ["off", "on"]},
             "repetitions": 1,
             "baseline": {"chord": "off"},
             "params": {"circuit": "ring", "size": 3,
                        "kernels": "numpy", "backend": "dense",
                        "tstop": 1e-11}}))
        run_dir = tmp_path / "runs"
        env_cmd = [sys.executable, "-m", "repro", "experiments",
                   "--config", str(config_path),
                   "--run-dir", str(run_dir), "--report", "--json"]
        out = subprocess.run(env_cmd, capture_output=True, text=True,
                             check=True)
        payload = json.loads(out.stdout)
        report = payload["experiments"][0]
        assert report["complete"] is True
        assert report["parity_max"] < 1e-9
        table = (run_dir / "cli_toy" / "run_table.csv").read_text()
        # second invocation resumes everything and regenerates the
        # identical table + report
        report_path = run_dir / "cli_toy" / "report.json"
        first_report = report_path.read_text()
        out2 = subprocess.run(env_cmd, capture_output=True, text=True,
                              check=True)
        assert json.loads(out2.stdout) == payload
        assert (run_dir / "cli_toy" / "run_table.csv").read_text() \
            == table
        assert report_path.read_text() == first_report


# ---------------------------------------------------------------------
# real workloads (tiny)
# ---------------------------------------------------------------------

class TestEngineWorkloads:
    def test_circuit_transient_chord_parity(self, tmp_path):
        config = RunnerConfig.from_dict({
            "name": "ring_tiny", "workload": "circuit_transient",
            "factors": {"backend": ["dense", "sparse"]},
            "repetitions": 1,
            "baseline": {"backend": "dense"},
            "params": {"circuit": "ring", "size": 3,
                       "kernels": "numpy", "chord": "on",
                       "tstop": 1e-11},
        })
        result = ExperimentRunner(config, tmp_path).run()
        assert result.complete
        sparse = result.cell(backend="sparse")
        assert sparse["parity_max"] < 1e-9  # dense/sparse parity gate
        assert sparse["newton_iterations"] > 0

    @pytest.mark.slow
    def test_vsc_sweep_signature_deterministic(self, tmp_path):
        config = RunnerConfig.from_dict({
            "name": "vsc_tiny", "workload": "vsc_sweep",
            "factors": {"kernels": ["numpy"]},
            "repetitions": 2,
            "params": {"grid_points": 5},
        })
        result = ExperimentRunner(config, tmp_path).run()
        sigs = [r["signature"]["vsc_v"] for r in result.records]
        assert sigs[0] == sigs[1]  # repetitions share the cell seed
