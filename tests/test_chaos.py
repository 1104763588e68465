"""Chaos suite: seeded fault plans over real workloads.

Every test follows the same shape (docs/robustness.md): run a
workload fault-free, replay it under a seeded :class:`FaultPlan`
that kills workers, truncates records, fails transports or injects
latency, and assert the recovered results are *identical* — byte-for-
byte where the path is deterministic, within the documented ~1e-13
memo-noise bound where multi-worker evaluator memos are involved.
Faults must cost time, never results.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro import faults, persist
from repro.cancel import CancelToken
from repro.errors import CancelledError, ParameterError, ServiceError
from repro.service import JobServer, ServiceClient


def _require_fork():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork on this platform")


# ---------------------------------------------------------------------
# FaultPlan unit behaviour
# ---------------------------------------------------------------------

class TestFaultPlan:
    def test_unknown_seam_rejected(self):
        with pytest.raises(ParameterError, match="unknown fault seam"):
            faults.FaultPlan(schedule={"disk.on_fire": [1]})
        with pytest.raises(ParameterError, match="latency_s"):
            faults.FaultPlan(latency_s=-1.0)

    def test_unkeyed_seam_counts_calls(self):
        plan = faults.FaultPlan(schedule={"persist.truncate": [2, 4]})
        with faults.activate(plan):
            fires = [faults.fire("persist.truncate") for _ in range(5)]
        assert fires == [False, True, False, True, False]
        assert plan.fired == [("persist.truncate", 2),
                              ("persist.truncate", 4)]

    def test_keyed_seam_matches_keys_not_counts(self):
        plan = faults.FaultPlan(
            schedule={"parallel.worker_kill": [7]})
        with faults.activate(plan):
            assert not faults.fire("parallel.worker_kill", key=3)
            assert faults.fire("parallel.worker_kill", key=7)
            # Keyed firing is by key, not call order: key 7 fires
            # whenever it is presented, regardless of position.
            assert faults.fire("parallel.worker_kill", key=7)

    def test_inactive_seams_never_fire(self):
        assert faults.active_plan() is None
        assert not faults.fire("persist.truncate")
        plan = faults.FaultPlan(schedule={"persist.truncate": [1]})
        with faults.activate(plan):
            assert faults.fire("solver.singular") is False

    def test_activation_nests_and_restores(self):
        outer = faults.FaultPlan(seed=1)
        inner = faults.FaultPlan(seed=2)
        with faults.activate(outer):
            assert faults.active_plan() is outer
            with faults.activate(inner):
                assert faults.active_plan() is inner
            assert faults.active_plan() is outer
        assert faults.active_plan() is None

    def test_random_plans_are_replayable(self):
        rates = {"persist.truncate": 0.3, "service.transport": 0.5}
        a = faults.FaultPlan.random(42, rates, horizon=32)
        b = faults.FaultPlan.random(42, rates, horizon=32)
        assert a.describe() == b.describe()
        assert a.describe()["seed"] == 42
        other = faults.FaultPlan.random(43, rates, horizon=32)
        assert other.describe() != a.describe()
        with pytest.raises(ParameterError, match="rate"):
            faults.FaultPlan.random(1, {"persist.truncate": 1.5})

    def test_describe_is_the_documented_schema(self):
        plan = faults.FaultPlan(seed=7,
                                schedule={"persist.truncate": [3, 1]},
                                latency_s=0.25)
        assert plan.describe() == {
            "seed": 7,
            "latency_s": 0.25,
            "schedule": {"persist.truncate": [1, 3]},
        }
        # The schema round-trips into an identically-firing plan.
        clone = faults.FaultPlan(**plan.describe())
        assert clone.describe() == plan.describe()

    def test_mangle_bytes_truncates_to_half(self):
        plan = faults.FaultPlan(schedule={"persist.truncate": [1]})
        with faults.activate(plan):
            assert faults.mangle_bytes("persist.truncate",
                                       b"0123456789") == b"01234"
            assert faults.mangle_bytes("persist.truncate",
                                       b"0123456789") == b"0123456789"

    def test_hold_parks_until_released(self):
        plan = faults.FaultPlan(schedule={"service.hold": [1]})
        passed = threading.Event()

        def held_check():
            CancelToken().check()
            passed.set()

        with faults.activate(plan):
            worker = threading.Thread(target=held_check)
            worker.start()
            assert plan.parked.wait(10.0)
            assert not passed.is_set()
            plan.release()
            assert passed.wait(10.0)
            CancelToken().check()  # occurrence 2: not scheduled
        worker.join(10.0)
        assert not worker.is_alive()
        assert plan.fired == [("service.hold", 1)]

    def test_listeners_observe_firings(self):
        seen = []

        def listener(seam, key):
            seen.append((seam, key))

        faults.add_listener(listener)
        try:
            plan = faults.FaultPlan(
                schedule={"persist.truncate": [1],
                          "parallel.worker_kill": [4]})
            with faults.activate(plan):
                faults.fire("persist.truncate")
                faults.fire("parallel.worker_kill", key=4)
        finally:
            faults.remove_listener(listener)
        assert seen == [("persist.truncate", None),
                        ("parallel.worker_kill", 4)]
        faults.remove_listener(listener)  # idempotent


class TestCancelToken:
    def test_explicit_cancel(self):
        token = CancelToken()
        token.check()  # no deadline, not cancelled: passes
        assert token.remaining() is None
        token.cancel("stop now")
        assert token.cancelled
        with pytest.raises(CancelledError, match="stop now") as err:
            token.check()
        assert err.value.kind == "cancelled"

    def test_deadline_expiry(self):
        token = CancelToken(0.01)
        time.sleep(0.03)
        assert token.expired
        assert token.remaining() == 0.0
        with pytest.raises(CancelledError) as err:
            token.check()
        assert err.value.kind == "timeout"

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ParameterError):
            CancelToken(-1.0)


# ---------------------------------------------------------------------
# Kernel-backend seam
# ---------------------------------------------------------------------

class TestKernelBackendSeam:
    def test_auto_resolution_degrades_to_numpy(self, monkeypatch):
        from repro.pwl import kernels

        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        reference = kernels.resolve_kernel_backend("numpy")
        plan = faults.FaultPlan(schedule={"kernel.backend": [1]})
        with faults.activate(plan):
            degraded = kernels.resolve_kernel_backend("auto")
        assert type(degraded) is type(reference)
        assert plan.fired == [("kernel.backend", 1)]

    def test_explicit_compiled_request_still_errors(self, monkeypatch):
        """The seam only affects *auto* resolution — an explicit
        backend request keeps its normal semantics under chaos."""
        from repro.pwl import kernels

        plan = faults.FaultPlan(
            schedule={"kernel.backend": list(range(1, 10))})
        with faults.activate(plan):
            reference = kernels.resolve_kernel_backend("numpy")
        assert type(reference).__module__.endswith("numpy_backend") \
            or "umpy" in type(reference).__name__


# ---------------------------------------------------------------------
# Campaign chaos: worker kill + truncated record over 64-sample MC
# ---------------------------------------------------------------------

@pytest.mark.slow
class TestCampaignChaos:
    def _campaign(self, run_dir):
        from repro.variability.campaign import (
            Campaign,
            CampaignConfig,
            DeviceMetricsEvaluator,
        )
        from repro.variability.params import default_device_space

        space = default_device_space()
        config = CampaignConfig(name="chaos-mc", n_samples=64, seed=7,
                                sampler="mc", chunk_size=16)
        return Campaign(config, space, DeviceMetricsEvaluator(space),
                        run_dir=run_dir)

    @staticmethod
    def _assert_parity(chaos_records, baseline_records, bound=5e-13):
        assert len(chaos_records) == len(baseline_records) == 64
        worst = 0.0
        for a, b in zip(chaos_records, baseline_records):
            assert a["params"] == b["params"]
            for metric, value in b["metrics"].items():
                other = a["metrics"][metric]
                if value == other:
                    continue
                worst = max(worst, abs(value - other)
                            / max(abs(value), 1e-300))
        assert worst <= bound, (
            f"chaos run diverged by {worst:.2e} relative — faults "
            f"changed results, not just timing")

    def test_worker_kill_and_truncation_cost_time_not_results(
            self, tmp_path):
        _require_fork()
        baseline = self._campaign(tmp_path / "baseline").run(workers=1)

        # Chaos pass: chunk 1's worker is OOM-killed (keyed seam) and
        # the third atomic record write (manifest is #1, chunks follow)
        # is truncated as a crash mid-write would.
        plan = faults.FaultPlan(
            seed=11,
            schedule={"parallel.worker_kill": [1],
                      "persist.truncate": [3]})
        chaos_dir = tmp_path / "chaos"
        with faults.activate(plan):
            chaos = self._campaign(chaos_dir).run(workers=2)
        # Parity within the documented multi-worker memo-noise bound.
        self._assert_parity(chaos.records, baseline.records)
        assert ("persist.truncate", 3) in plan.fired

        # Recovery pass: resume finds the truncated chunk file,
        # quarantines it and recomputes — identical records again.
        resumed = self._campaign(chaos_dir).run(workers=1)
        assert resumed.quarantined == 1
        assert resumed.computed_chunks == 1
        assert resumed.resumed_chunks == 3
        quarantine = sorted(
            (chaos_dir / "chunks" / "quarantine").glob("*.json"))
        assert len(quarantine) == 1
        self._assert_parity(resumed.records, baseline.records)

    def test_truncated_aggregate_and_run_table_rewritten_on_resume(
            self, tmp_path):
        baseline_dir = tmp_path / "baseline"
        self._campaign(baseline_dir).run(workers=1)

        # Writes: manifest #1, chunks #2-#5, aggregate.json #6 and
        # run_table.csv #7; both derived files land truncated.
        plan = faults.FaultPlan(
            seed=13, schedule={"persist.truncate": [6, 7]})
        chaos_dir = tmp_path / "chaos"
        with faults.activate(plan):
            self._campaign(chaos_dir).run(workers=1)
        assert plan.fired == [("persist.truncate", 6),
                              ("persist.truncate", 7)]
        assert persist.read_json(chaos_dir / "aggregate.json") is None

        # Recovery: both are derived from the chunk records, so resume
        # reuses every chunk and rewrites them whole.
        resumed = self._campaign(chaos_dir).run(workers=1)
        assert resumed.resumed_chunks == 4
        assert resumed.quarantined == 0
        for name in ("aggregate.json", "run_table.csv"):
            assert (chaos_dir / name).read_bytes() \
                == (baseline_dir / name).read_bytes()

    def test_corrupt_manifest_quarantines_everything(self, tmp_path):
        run_dir = tmp_path / "run"
        first = self._campaign(run_dir).run(workers=1)
        (run_dir / "manifest.json").write_text("{truncated")
        resumed = self._campaign(run_dir).run(workers=1)
        # Manifest + all 4 chunk files were unverifiable.
        assert resumed.quarantined == 5
        assert resumed.computed_chunks == 4
        assert (run_dir / "quarantine" / "manifest.json").exists()
        self._assert_parity(resumed.records, first.records, bound=0.0)


# ---------------------------------------------------------------------
# Experiment-runner chaos: truncated record.json, quarantined + redone
# ---------------------------------------------------------------------

class TestExprunnerChaos:
    @staticmethod
    def _config():
        from repro.exprunner import (WORKLOADS, RunnerConfig, Workload,
                                     register_workload)

        if "chaos_toy" not in WORKLOADS:
            register_workload(Workload(
                name="chaos_toy",
                run=lambda point, params, seed: {
                    "wall_s": 0.0, "newton_iterations": 1.0,
                    "metrics": {"value": float(seed % 13)
                                + float(point["offset"])},
                    "signature": {"trace": [float(point["offset"])]},
                },
                description="chaos-suite toy workload"))
        return RunnerConfig.from_dict({
            "name": "chaos", "workload": "chaos_toy",
            "factors": {"offset": [0.0, 1.0]}, "repetitions": 2})

    @staticmethod
    def _comparable(records):
        """The deterministic slice of the records (timings excluded)."""
        return json.dumps(
            [{k: r[k] for k in ("run_id", "seed", "point", "status",
                                "metrics", "parity")}
             for r in records], sort_keys=True)

    def test_truncated_record_quarantined_and_recomputed(
            self, tmp_path):
        from repro.exprunner import ExperimentRunner

        config = self._config()
        baseline = ExperimentRunner(config,
                                    tmp_path / "baseline").run()

        # Chaos pass: one record.json lands truncated on disk.
        chaos_dir = tmp_path / "chaos"
        plan = faults.FaultPlan(seed=5,
                                schedule={"persist.truncate": [3]})
        with faults.activate(plan):
            chaos = ExperimentRunner(config, chaos_dir).run()
        assert self._comparable(chaos.records) \
            == self._comparable(baseline.records)
        assert ("persist.truncate", 3) in plan.fired

        resumed = ExperimentRunner(config, chaos_dir).run()
        assert resumed.quarantined == 1
        assert resumed.computed == 1 and resumed.complete
        quarantined = list(
            (chaos_dir / "runs" / "quarantine").glob("*.record.json"))
        assert len(quarantined) == 1
        assert self._comparable(resumed.records) \
            == self._comparable(baseline.records)

    def test_truncated_run_table_regenerated_from_records(
            self, tmp_path):
        from repro.exprunner import ExperimentRunner, read_run_table

        config = self._config()
        baseline = ExperimentRunner(config, tmp_path / "baseline").run()

        # Writes: manifest #1, records #2-#5, run_table.csv #6.
        chaos_dir = tmp_path / "chaos"
        plan = faults.FaultPlan(seed=6,
                                schedule={"persist.truncate": [6]})
        with faults.activate(plan):
            ExperimentRunner(config, chaos_dir).run()
        assert plan.fired == [("persist.truncate", 6)]
        table = chaos_dir / "run_table.csv"
        assert len(read_run_table(table)) < len(baseline.records)

        # Recovery: load() (``--report-only``) rewrites the table from
        # the raw records without executing anything.
        loaded = ExperimentRunner(config, chaos_dir).load()
        assert loaded.computed == 0 and loaded.complete
        columns = ("run_id", "seed", "status", "parity", "value")
        assert [{k: row[k] for k in columns}
                for row in read_run_table(table)] == \
            [{k: row[k] for k in columns}
             for row in read_run_table(
                 tmp_path / "baseline" / "run_table.csv")]

    def test_truncated_report_regenerated_by_report_only(self, tmp_path,
                                                        capsys):
        from repro.cli import main

        config = self._config()
        config_path = tmp_path / "chaos.json"
        config_path.write_text(json.dumps(config.describe()))
        run_root = tmp_path / "runs"
        argv = ["experiments", "--config", str(config_path), "--run-dir",
                str(run_root)]

        # Writes: manifest #1, records #2-#5, run_table.csv #6,
        # report.json #7.
        plan = faults.FaultPlan(seed=7,
                                schedule={"persist.truncate": [7]})
        with faults.activate(plan):
            assert main(argv + ["--report"]) == 0
        assert plan.fired == [("persist.truncate", 7)]
        report = run_root / config.name / "report.json"
        assert persist.read_json(report) is None

        # Recovery: --report-only re-renders it from the records.
        assert main(argv + ["--report-only"]) == 0
        recovered = persist.read_json(report)
        assert recovered["fingerprint"] == config.fingerprint()
        assert recovered["runs"] == 4 and recovered["complete"]

    def test_corrupt_manifest_recomputes_fresh(self, tmp_path):
        from repro.exprunner import ExperimentRunner

        config = self._config()
        run_dir = tmp_path / "run"
        first = ExperimentRunner(config, run_dir).run()
        (run_dir / "manifest.json").write_text('{"finger')
        resumed = ExperimentRunner(config, run_dir).run()
        # Manifest + every record were unverifiable -> quarantined.
        assert resumed.quarantined == 1 + len(first.records)
        assert resumed.computed == len(first.records)
        assert resumed.complete
        assert self._comparable(resumed.records) \
            == self._comparable(first.records)

    def test_mismatched_fingerprint_still_refuses(self, tmp_path):
        """Corruption recovery must not swallow the 'different
        experiment' guard — a readable manifest that disagrees is an
        operator error, not a crash artefact."""
        from repro.errors import CampaignError
        from repro.exprunner import ExperimentRunner, RunnerConfig

        config = self._config()
        ExperimentRunner(config, tmp_path).run()
        changed = RunnerConfig.from_dict(
            dict(config.describe(), seed=99))
        with pytest.raises(CampaignError, match="different experiment"):
            ExperimentRunner(changed, tmp_path).run()


# ---------------------------------------------------------------------
# Waveform-store chaos: truncated chunk quarantined, recompute rebuilds
# ---------------------------------------------------------------------

class TestStoreTruncateSeam:
    @staticmethod
    def _run(store_dir):
        from repro.circuit import (Capacitor, Circuit, Resistor,
                                   VoltageSource, transient)
        from repro.circuit.waveforms import Pulse

        c = Circuit("rc")
        c.add(VoltageSource("v1", "in", "0",
                            Pulse(0.0, 1.0, delay=0.0, rise=1e-15,
                                  width=1e-6, period=2e-6)))
        c.add(Resistor("r1", "in", "out", 1000.0))
        c.add(Capacitor("c1", "out", "0", 1e-12))
        return transient(c, tstop=5e-9, dt=1e-11,
                         record_currents=False,
                         store=str(store_dir), store_chunk_rows=64)

    def test_truncated_chunk_quarantined_then_recomputed(self, tmp_path):
        from repro.circuit import WaveformStore
        from repro.circuit.results import Dataset

        baseline = self._run(tmp_path / "baseline")

        # Chaos pass: the third chunk write lands truncated, as a crash
        # between write and rename would leave it.  The writer itself
        # does not notice; the run "crashes" when result assembly first
        # reads the store back (a StoreError, not a raw numpy error).
        # Writes alternate meta.json (#1 at create) and chunk + meta
        # per flush, so chunk_00002 is write #6.
        from repro.errors import StoreError

        plan = faults.FaultPlan(seed=3,
                                schedule={"persist.truncate": [6]})
        chaos_dir = tmp_path / "chaos"
        with faults.activate(plan):
            with pytest.raises(StoreError, match="chunk_00002"):
                self._run(chaos_dir)
        assert ("persist.truncate", 6) in plan.fired

        # Reopen: chunk 2 fails validation; it and every later chunk
        # (their rows would shift) are quarantined, the survivors stay
        # readable and equal to the baseline prefix.
        store = WaveformStore.open(chaos_dir)
        assert store.quarantined > 0
        assert (chaos_dir / "quarantine" / "chunk_00002.npy").exists()
        surviving = Dataset.from_store(store)
        n = surviving.axis.shape[0]
        assert n == 128  # two intact 64-row chunks
        for name in surviving.names:
            assert np.array_equal(surviving.trace(name),
                                  baseline.trace(name)[:n])

        # Recompute: rerunning into the same directory resets the store
        # and rebuilds the full run, identical to the fault-free one.
        recomputed = self._run(chaos_dir)
        for name in baseline.names:
            assert np.array_equal(recomputed.trace(name),
                                  baseline.trace(name))
        reopened = WaveformStore.open(chaos_dir)
        assert reopened.quarantined == 0
        assert reopened.n_rows == baseline.axis.shape[0]


    def test_truncated_meta_refused_then_rewritten(self, tmp_path):
        from repro.circuit import WaveformStore
        from repro.errors import StoreError

        baseline = self._run(tmp_path / "baseline")

        # 502 rows in 64-row chunks: meta.json at create (#1), then a
        # chunk + meta.json pair per flush; #17 is the final meta.json.
        plan = faults.FaultPlan(seed=17,
                                schedule={"persist.truncate": [17]})
        chaos_dir = tmp_path / "chaos"
        with faults.activate(plan):
            self._run(chaos_dir)
        assert plan.fired == [("persist.truncate", 17)]
        with pytest.raises(StoreError, match="unreadable store metadata"):
            WaveformStore.open(chaos_dir)

        # Recovery: rerunning into the directory rewrites the store.
        self._run(chaos_dir)
        reopened = WaveformStore.open(chaos_dir)
        assert reopened.quarantined == 0
        assert np.array_equal(reopened.read_column("v(out)"),
                              baseline.trace("v(out)"))


# ---------------------------------------------------------------------
# Service chaos: 8-job burst under transport faults + latency
# ---------------------------------------------------------------------

RC_DECK = """* rc lowpass
V1 in 0 pulse(0 1 1e-9 1e-9 1e-9 1e-8 4e-8)
R1 in out {r}
C1 out 0 1e-12
.end
"""

BURST_R = ["1e3", "2e3", "3e3", "4e3", "5e3", "6e3", "7e3", "8e3"]


def rc_job(r, **overrides):
    spec = {"kind": "transient", "deck": RC_DECK.format(r=r),
            "tstop": 2e-8, "dt": 2e-10}
    spec.update(overrides)
    return spec


def _run_burst(client):
    docs = [client.submit(rc_job(r)) for r in BURST_R]
    return [client.wait(doc["id"], timeout=60.0)["result"]
            for doc in docs]


@pytest.mark.slow
class TestServiceChaos:
    def test_burst_is_byte_identical_under_faults(self):
        with JobServer(workers=2, batch_window=0.05,
                       cache_size=64) as srv:
            host, port = srv.start()
            client = ServiceClient(f"http://{host}:{port}",
                                   timeout=60.0)
            baseline = _run_burst(client)

        plan = faults.FaultPlan(
            seed=3,
            # Requests 2 and 5 are job submissions (the burst submits
            # sequentially before polling) -> both retried; the first
            # request also eats 50 ms of injected latency.
            schedule={"service.transport": [2, 5],
                      "service.latency": [1]},
            latency_s=0.05)
        with JobServer(workers=2, batch_window=0.05,
                       cache_size=64) as srv:
            host, port = srv.start()
            client = ServiceClient(f"http://{host}:{port}",
                                   timeout=60.0)
            with faults.activate(plan):
                chaos = _run_burst(client)
            fired = client.metric_value(
                "service_faults_injected_total")
            assert fired >= 3
        assert [json.dumps(r, sort_keys=True) for r in chaos] == \
            [json.dumps(r, sort_keys=True) for r in baseline]
        assert ("service.transport", 2) in plan.fired
        assert ("service.transport", 5) in plan.fired

    def test_scheduler_latency_seam_changes_timing_only(self):
        plan = faults.FaultPlan(
            seed=4, schedule={"service.latency": [1, 2]},
            latency_s=0.05)
        with JobServer(workers=1, batch_window=0.0,
                       cache_size=8) as srv:
            job_direct = srv.submit(rc_job("9e3"))
            assert job_direct.wait(timeout=60.0)
            reference = job_direct.result
            with faults.activate(plan):
                job_slow = srv.submit(rc_job("9e3", nodes=["out"]))
                assert job_slow.wait(timeout=60.0)
        assert job_slow.state == "done"
        assert json.dumps(job_slow.result["traces"]["v(out)"]) == \
            json.dumps(reference["traces"]["v(out)"])


# ---------------------------------------------------------------------
# Deadlines: structured timeouts that keep the worker reusable
# ---------------------------------------------------------------------

@pytest.mark.slow
class TestDeadlines:
    def test_deadline_job_times_out_structured_and_fast(self):
        deadline_s = 0.5
        with JobServer(workers=1, batch_window=0.0,
                       cache_size=8) as srv:
            host, port = srv.start()
            client = ServiceClient(f"http://{host}:{port}",
                                   timeout=30.0)
            start = time.monotonic()
            doc = client.submit(rc_job("1e3", tstop=4e-8, dt=1e-12,
                                       deadline_s=deadline_s))
            assert doc["deadline_s"] == deadline_s
            final = client.status(doc["id"])
            while final["state"] not in ("done", "failed"):
                time.sleep(0.02)
                final = client.status(doc["id"])
            elapsed = time.monotonic() - start
            assert final["state"] == "failed"
            assert final["error_kind"] == "timeout"
            assert "deadline" in final["error"] \
                or "timed out" in final["error"]
            # The budget is enforced promptly: well within 2x.
            assert elapsed <= 2.0 * deadline_s, (
                f"timeout surfaced after {elapsed:.2f}s for a "
                f"{deadline_s:g}s deadline")
            assert client.metric_value(
                "service_jobs_timeout_total") >= 1
            # The worker thread survived the cancellation and is
            # immediately reusable.
            again = client.run(rc_job("2e3"), timeout=60.0)
            assert again["state"] == "done"

    def test_deadline_excluded_from_cache_fingerprint(self):
        from repro.service import parse_job_spec

        plain = parse_job_spec(rc_job("1e3"))
        bounded = parse_job_spec(rc_job("1e3", deadline_s=30.0))
        # deadline_s is execution policy, not physics: same result,
        # same cache entry — but deadline jobs never coalesce.
        assert bounded.fingerprint == plain.fingerprint
        assert bounded.group_key is None
        assert plain.group_key is not None

    def test_generous_deadline_job_completes(self):
        with JobServer(workers=1, batch_window=0.0,
                       cache_size=8) as srv:
            job = srv.submit(rc_job("3e3", deadline_s=60.0))
            assert job.wait(timeout=60.0)
            assert job.state == "done"

    def test_run_cancels_server_side_on_wait_timeout(self):
        # The service.hold latch parks the job at its first
        # cancellation check, so it is still unfinished when run()
        # gives up, however fast the machine is.
        plan = faults.FaultPlan(schedule={"service.hold": [1]})
        with JobServer(workers=1, batch_window=0.0,
                       cache_size=8) as srv:
            host, port = srv.start()
            client = ServiceClient(f"http://{host}:{port}",
                                   timeout=30.0)
            with faults.activate(plan):
                start = time.monotonic()
                with pytest.raises(ServiceError, match="still"):
                    client.run(rc_job("4e3"), timeout=0.3)
                # Every HTTP call is bounded by the remaining budget.
                assert time.monotonic() - start < 2.0
            # run() cancelled the abandoned job server-side; it must
            # settle as cancelled instead of burning the worker.
            deadline = time.monotonic() + 10.0
            counts = srv.registry.counts()
            while counts["running"] + counts["pending"] > 0 \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
                counts = srv.registry.counts()
            assert counts["failed"] == 1
