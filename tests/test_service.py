"""Job-service suite: fingerprints, cache, coalescing, HTTP lifecycle.

The contracts under test mirror ``docs/service.md``: semantically
equal submissions share one fingerprint (and therefore one cache
entry), concurrent same-topology jobs coalesce into a single engine
dispatch whose per-lane results match the scalar engine, a lane that
fails inside a batch falls back to scalar without failing the group,
and ``/metrics`` exposes the documented counter/histogram names.
"""

import dataclasses
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.circuit.batch_sim as batch_sim
from repro import faults
from repro.circuit.parser import parse_netlist
from repro.circuit.transient import transient
from repro.errors import (
    ParameterError,
    ReproError,
    ServiceError,
    ServiceTransportError,
)
from repro.parallel import WORKERS_ENV, resolve_workers
from repro.service import (
    SERVICE_COUNTERS,
    SERVICE_HISTOGRAMS,
    JobServer,
    ResultCache,
    ServiceClient,
    circuit_fingerprint,
    manifest_fingerprint,
    parse_job_spec,
    shutdown_authorized,
    topology_fingerprint,
)
from repro.service.jobs import build_newton_options
from repro.service.metrics import Counter, Histogram, MetricsRegistry

#: served waveforms must match direct engine calls to this [V]
PARITY_TOL_V = 1e-9

# A linear RC deck keeps the HTTP-level tests independent of the CNFET
# fit cache (milliseconds per job instead of a cold-start fit).
RC_DECK = """* rc lowpass
V1 in 0 pulse(0 1 1e-9 1e-9 1e-9 1e-8 4e-8)
R1 in out {r}
C1 out 0 1e-12
.end
"""

# Different topology (extra RC stage) for mixed-traffic tests.
RC2_DECK = """* rc two-stage
V1 in 0 pulse(0 1 1e-9 1e-9 1e-9 1e-8 4e-8)
R1 in mid {r}
C1 mid 0 1e-12
R2 mid out 1e3
C2 out 0 1e-12
.end
"""


def rc_job(r="1e3", **overrides):
    spec = {"kind": "transient", "deck": RC_DECK.format(r=r),
            "tstop": 2e-8, "dt": 2e-10}
    spec.update(overrides)
    return spec


@pytest.fixture
def server():
    srv = JobServer(workers=1, batch_window=0.0, cache_size=32)
    host, port = srv.start()
    client = ServiceClient(f"http://{host}:{port}", timeout=60.0)
    yield srv, client
    srv.shutdown()


@pytest.fixture
def coalescing_server():
    srv = JobServer(workers=1, batch_window=0.6, cache_size=32)
    host, port = srv.start()
    client = ServiceClient(f"http://{host}:{port}", timeout=60.0)
    yield srv, client
    srv.shutdown()


class TestFingerprint:
    def test_formatting_and_comments_do_not_matter(self):
        a = parse_netlist(RC_DECK.format(r="1e3")).circuit
        b = parse_netlist("* different title\n* extra comment\n"
                          "V1 in 0 pulse(0 1 1e-9 1e-9 1e-9 1e-8 "
                          "4e-8)\nR1   in  out  1k\nC1 out 0 1p\n"
                          ".end\n").circuit
        assert circuit_fingerprint(a) == circuit_fingerprint(b)
        assert topology_fingerprint(a) == topology_fingerprint(b)

    def test_value_change_keeps_topology_changes_fingerprint(self):
        a = parse_netlist(RC_DECK.format(r="1e3")).circuit
        b = parse_netlist(RC_DECK.format(r="2e3")).circuit
        assert topology_fingerprint(a) == topology_fingerprint(b)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_topology_sensitive_to_names_and_nodes(self):
        a = parse_netlist(RC_DECK.format(r="1e3")).circuit
        renamed = parse_netlist(
            RC_DECK.format(r="1e3").replace("R1", "Rload")).circuit
        assert topology_fingerprint(a) != topology_fingerprint(renamed)
        assert circuit_fingerprint(a) != circuit_fingerprint(renamed)

    def test_quantization_absorbs_float_noise(self):
        a = parse_netlist("* a\nV1 in 0 1\nR1 in out 1000\n"
                          "C1 out 0 1e-12\n.end").circuit
        b = parse_netlist("* b\nV1 in 0 1\nR1 in out "
                          "1000.0000000000001\nC1 out 0 1e-12\n"
                          ".end").circuit
        c = parse_netlist("* c\nV1 in 0 1\nR1 in out 1000.1\n"
                          "C1 out 0 1e-12\n.end").circuit
        assert circuit_fingerprint(a) == circuit_fingerprint(b)
        assert circuit_fingerprint(a) != circuit_fingerprint(c)

    def test_cnfet_device_params_fingerprinted(self):
        deck = ("* q\n.model m1 cnfet diameter_nm=1.2\n"
                ".model m2 cnfet diameter_nm=1.4\n"
                "Vd d 0 0.5\nVg g 0 0.5\nQ1 d g 0 {m}\n.end")
        a = parse_netlist(deck.format(m="m1")).circuit
        b = parse_netlist(deck.format(m="m2")).circuit
        assert topology_fingerprint(a) == topology_fingerprint(b)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_campaign_fingerprint_parity(self):
        """Campaign.fingerprint must stay byte-identical to the
        historical inline sha256(json.dumps(manifest, sort_keys=True))
        so existing run directories remain resumable."""
        import hashlib

        from repro.experiments.workloads import variability_workload
        from repro.variability.campaign import Campaign, CampaignConfig

        space, evaluator = variability_workload("device")
        campaign = Campaign(CampaignConfig(name="parity", n_samples=4),
                            space, evaluator)
        manifest = campaign.manifest()
        legacy = hashlib.sha256(
            json.dumps(manifest, sort_keys=True).encode()).hexdigest()
        assert campaign.fingerprint() == legacy
        assert campaign.fingerprint() == manifest_fingerprint(manifest)


class TestResolveWorkersEnv:
    """Satellite: bad REPRO_WORKERS values fail fast with the
    offending value in a ParameterError, not a naked ValueError."""

    @pytest.mark.parametrize("env", ["abc", "2.5", "", " "])
    def test_non_integer_env(self, monkeypatch, env):
        monkeypatch.setenv(WORKERS_ENV, env)
        with pytest.raises(ParameterError) as err:
            resolve_workers(None)
        assert repr(env) in str(err.value)
        assert WORKERS_ENV in str(err.value)

    @pytest.mark.parametrize("env", ["0", "-3"])
    def test_non_positive_env(self, monkeypatch, env):
        monkeypatch.setenv(WORKERS_ENV, env)
        with pytest.raises(ParameterError) as err:
            resolve_workers("auto")
        assert repr(env) in str(err.value)

    def test_bool_is_not_a_worker_count(self):
        with pytest.raises(ParameterError):
            resolve_workers(True)

    def test_explicit_count_ignores_bad_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "nonsense")
        assert resolve_workers(3) == 3


class TestJobSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ParameterError, match="kind"):
            parse_job_spec({"kind": "spice"})

    def test_missing_required_field(self):
        with pytest.raises(ParameterError, match="tstop"):
            parse_job_spec({"kind": "transient",
                            "deck": RC_DECK.format(r="1e3")})

    def test_unknown_field_rejected(self):
        with pytest.raises(ParameterError, match="bogus"):
            parse_job_spec(rc_job(bogus=1))

    def test_unknown_newton_option(self):
        with pytest.raises(ParameterError, match="vtolerance"):
            parse_job_spec(rc_job(newton={"vtolerance": 1e-9}))

    def test_unknown_node(self):
        with pytest.raises(ParameterError, match="nope"):
            parse_job_spec(rc_job(nodes=["nope"]))

    def test_fixed_step_rejects_adaptive_options(self):
        with pytest.raises(ParameterError, match="adaptive"):
            parse_job_spec(rc_job(rtol=1e-4))

    def test_group_key_ignores_tstop_but_not_grid(self):
        a = parse_job_spec(rc_job())
        b = parse_job_spec(rc_job(tstop=1e-8))
        c = parse_job_spec(rc_job(dt=1e-10))
        assert a.group_key == b.group_key
        assert a.fingerprint != b.fingerprint
        assert a.group_key != c.group_key

    def test_solo_kinds_have_no_group_key(self):
        spec = parse_job_spec({"kind": "op",
                               "deck": RC_DECK.format(r="1e3")})
        assert spec.group_key is None

    def test_newton_overrides_applied(self):
        opts = build_newton_options({"vtol": 1e-12, "reltol": 1e-9})
        assert opts.vtol == 1e-12 and opts.reltol == 1e-9
        assert opts.max_iterations == \
            build_newton_options({}).max_iterations


@pytest.mark.slow
class TestJobLifecycle:
    def test_submit_poll_result(self, server):
        _, client = server
        doc = client.submit(rc_job())
        assert doc["state"] in ("pending", "running", "done")
        final = client.wait(doc["id"], timeout=60.0)
        assert final["state"] == "done"
        result = final["result"]
        assert result["axis_name"] == "time"
        assert len(result["axis"]) == len(result["traces"]["v(out)"])
        assert final["timings"]["total_s"] >= 0.0

    def test_served_matches_direct_engine(self, server):
        _, client = server
        final = client.run(rc_job())
        circuit = parse_netlist(RC_DECK.format(r="1e3")).circuit
        ref = transient(circuit, 2e-8, dt=2e-10,
                        record_currents="sources")
        served = np.asarray(final["result"]["traces"]["v(out)"])
        assert np.max(np.abs(served - ref.trace("v(out)"))) \
            < PARITY_TOL_V

    def test_health_and_unknown_routes(self, server):
        srv, client = server
        health = client.health()
        assert health["status"] == "ok"
        with pytest.raises(ServiceError, match="404"):
            client.status("not-a-job")
        with pytest.raises(ServiceError, match="404"):
            client._request("GET", "/nothing")

    def test_invalid_spec_is_400(self, server):
        _, client = server
        with pytest.raises(ServiceError, match="400"):
            client.submit({"kind": "transient", "deck": "* empty\n.end",
                           "tstop": 1e-9})

    def test_invalid_json_body_is_400(self, server):
        srv, client = server
        request = urllib.request.Request(
            f"{client.base_url}/jobs", data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10.0)
        assert err.value.code == 400

    def test_failed_job_reports_error(self, server):
        _, client = server
        # A floating node makes the operating point singular.
        doc = client.submit({"kind": "op",
                             "deck": "* bad\nC1 a 0 1e-12\n"
                                     "R1 b 0 1e3\nV1 b 0 1\n.end"})
        with pytest.raises(ServiceError, match="failed"):
            client.wait(doc["id"], timeout=60.0)

    def test_dc_and_op_jobs(self, server):
        _, client = server
        dc = client.run({"kind": "dc", "deck": RC_DECK.format(r="1e3"),
                         "source": "V1", "start": 0.0, "stop": 1.0,
                         "points": 5})
        assert dc["result"]["axis"] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert "i(v1)" in dc["result"]["traces"]
        op = client.run({"kind": "op", "deck": RC_DECK.format(r="1e3"),
                         "nodes": ["out"]})
        assert op["result"]["voltages"] == {"v(out)": pytest.approx(0.0)}


@pytest.mark.slow
class TestResultCache:
    def test_cache_hit_returns_identical_payload(self, server):
        _, client = server
        first = client.run(rc_job())
        assert first["cached"] is False
        second = client.run(rc_job())
        assert second["cached"] is True
        assert second["result"] == first["result"]
        assert client.metric_value("service_cache_hits_total") >= 1

    def test_semantically_equal_decks_share_cache(self, server):
        _, client = server
        client.run(rc_job())
        other_text = rc_job(
            deck=RC_DECK.format(r="1e3") + "* trailing comment\n")
        assert client.run(other_text)["cached"] is True

    def test_lru_unit_behaviour(self):
        cache = ResultCache(capacity=2)
        cache.put("a", {"x": 1})
        cache.put("b", {"x": 2})
        assert cache.get("a") == {"x": 1}  # refreshes 'a'
        cache.put("c", {"x": 3})           # evicts 'b'
        assert cache.get("b") is None
        assert cache.get("a") == {"x": 1}
        got = cache.get("c")
        got["x"] = 99                      # copies are isolated
        assert cache.get("c") == {"x": 3}
        assert cache.hits == 4 and cache.misses == 1

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        with pytest.raises(ParameterError):
            ResultCache(capacity=-1)


@pytest.mark.slow
class TestCoalescing:
    def test_concurrent_same_topology_jobs_share_one_dispatch(
            self, coalescing_server):
        """Two concurrent clients with same-topology circuits must be
        served by a single lane-batched engine call."""
        _, client = coalescing_server
        docs = {}

        def run(tag, r):
            docs[tag] = client.run(rc_job(r=r), timeout=60.0)

        threads = [threading.Thread(target=run, args=(i, r))
                   for i, r in enumerate(("1e3", "2e3", "3e3"))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(d["state"] == "done" for d in docs.values())
        assert all(d["coalesced"] == 3 for d in docs.values())
        assert client.metric_value(
            "service_engine_dispatches_total") == 1
        assert client.metric_value(
            "service_jobs_coalesced_total") == 3

    def test_coalesced_lanes_match_direct_engine(
            self, coalescing_server):
        _, client = coalescing_server
        docs = {}

        def run(tag, r):
            docs[tag] = client.run(rc_job(r=r), timeout=60.0)

        threads = [threading.Thread(target=run, args=(r, r))
                   for r in ("1e3", "5e3")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert {d["coalesced"] for d in docs.values()} == {2}
        for r, doc in docs.items():
            circuit = parse_netlist(RC_DECK.format(r=r)).circuit
            ref = transient(circuit, 2e-8, dt=2e-10,
                            record_currents="sources")
            served = np.asarray(doc["result"]["traces"]["v(out)"])
            assert np.max(np.abs(served - ref.trace("v(out)"))) \
                < PARITY_TOL_V

    def test_mixed_topologies_do_not_coalesce(self, coalescing_server):
        _, client = coalescing_server
        docs = {}

        def run(tag, spec):
            docs[tag] = client.run(spec, timeout=60.0)

        specs = {"a": rc_job(),
                 "b": rc_job(deck=RC2_DECK.format(r="1e3"))}
        threads = [threading.Thread(target=run, args=(t, s))
                   for t, s in specs.items()]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert docs["a"]["coalesced"] == 1
        assert docs["b"]["coalesced"] == 1
        assert client.metric_value(
            "service_engine_dispatches_total") == 2


@pytest.mark.slow
class TestLaneFallback:
    def test_failed_lane_falls_back_to_scalar(self, monkeypatch):
        """A lane whose lock-step Newton fails is re-run scalar by the
        engine: its job still succeeds, matches the direct scalar
        result, and the fallback is counted at /metrics."""
        original = batch_sim._lockstep_newton

        def sabotage(batch, x, lanes, options, **kwargs):
            x_new, failed = original(batch, x, lanes, options,
                                     **kwargs)
            if kwargs.get("analysis") == "tran" and 1 in lanes:
                failed = sorted(set(list(failed) + [1]))
                x_new[1] = x[1]
            return x_new, failed

        monkeypatch.setattr(batch_sim, "_lockstep_newton", sabotage)
        srv = JobServer(workers=1, batch_window=0.6, cache_size=8)
        try:
            host, port = srv.start()
            client = ServiceClient(f"http://{host}:{port}",
                                   timeout=60.0)
            docs = {}

            def run(tag, r):
                docs[tag] = client.run(rc_job(r=r), timeout=60.0)

            threads = [threading.Thread(target=run, args=(i, r))
                       for i, r in enumerate(("1e3", "2e3", "3e3"))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(d["state"] == "done" for d in docs.values())
            assert client.metric_value(
                "service_engine_dispatches_total") == 1
            assert client.metric_value(
                "service_lane_fallbacks_total") >= 1
        finally:
            srv.shutdown()
        monkeypatch.setattr(batch_sim, "_lockstep_newton", original)
        # The job that rode lane 1 was replayed through the plain
        # scalar engine: its grid and waveform must match a direct
        # scalar run exactly.  (The surviving lanes picked up extra
        # halved steps from the injected Newton failures, so only the
        # fallback lane shares the reference grid.)
        fallback_docs = []
        for i, r in enumerate(("1e3", "2e3", "3e3")):
            circuit = parse_netlist(RC_DECK.format(r=r)).circuit
            ref = transient(circuit, 2e-8, dt=2e-10,
                            record_currents="sources")
            axis = np.asarray(docs[i]["result"]["axis"])
            if axis.shape != ref.axis.shape or \
                    not np.allclose(axis, ref.axis):
                continue
            served = np.asarray(docs[i]["result"]["traces"]["v(out)"])
            assert np.max(np.abs(served - ref.trace("v(out)"))) \
                < PARITY_TOL_V
            fallback_docs.append(i)
        assert fallback_docs, "no lane replayed the scalar grid"


@pytest.mark.slow
class TestMetrics:
    def test_documented_names_exposed(self, server):
        _, client = server
        client.run(rc_job())
        text = client.metrics_text()
        for name in SERVICE_COUNTERS:
            assert f"# TYPE {name} counter" in text
            assert f"\n{name} " in text
        for name in SERVICE_HISTOGRAMS:
            assert f"# TYPE {name} histogram" in text
            assert f"{name}_bucket{{le=\"+Inf\"}}" in text
            assert f"\n{name}_sum " in text
            assert f"\n{name}_count " in text

    def test_counter_and_histogram_units(self):
        counter = Counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ParameterError):
            counter.inc(-1)
        hist = Histogram("h_seconds", "help", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            hist.observe(v)
        assert hist.count == 3
        assert hist.total == pytest.approx(5.55)
        assert hist.quantile(0.5) == 1.0
        rendered = hist.render()
        assert 'h_seconds_bucket{le="0.1"} 1' in rendered
        assert 'h_seconds_bucket{le="+Inf"} 3' in rendered

    def test_registry_get_or_create_and_conflicts(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total")
        assert registry.counter("x_total") is a
        with pytest.raises(ParameterError):
            registry.histogram("x_total")
        with pytest.raises(ParameterError):
            registry.get("missing")


@pytest.mark.slow
class TestNodesFilterCaching:
    """The cache stores the node-filtered payload, so the ``nodes``
    response filter must be part of the result-cache fingerprint — a
    restricted submission must never answer an unrestricted one."""

    def test_nodes_changes_fingerprint_not_group_key(self):
        full = parse_job_spec(rc_job())
        filtered = parse_job_spec(rc_job(nodes=["out"]))
        assert full.fingerprint != filtered.fingerprint
        # Coalescing ignores the response filter: same stacked solve.
        assert full.group_key == filtered.group_key

    def test_dc_and_op_nodes_in_fingerprint(self):
        dc = {"kind": "dc", "deck": RC_DECK.format(r="1e3"),
              "source": "V1", "start": 0.0, "stop": 1.0, "points": 3}
        assert parse_job_spec(dc).fingerprint != \
            parse_job_spec(dict(dc, nodes=["out"])).fingerprint
        op = {"kind": "op", "deck": RC_DECK.format(r="1e3")}
        assert parse_job_spec(op).fingerprint != \
            parse_job_spec(dict(op, nodes=["out"])).fingerprint

    def test_filtered_result_does_not_poison_cache(self, server):
        _, client = server
        filtered = client.run(rc_job(nodes=["out"]))
        assert set(filtered["result"]["traces"]) == {"v(out)"}
        full = client.run(rc_job())
        assert full["cached"] is False
        assert "v(in)" in full["result"]["traces"]
        # Each variant hits its own entry on resubmission.
        assert client.run(rc_job(nodes=["out"]))["cached"] is True
        assert client.run(rc_job())["cached"] is True


@pytest.mark.slow
class TestShutdownAuth:
    def test_loopback_trusted_without_token(self):
        assert shutdown_authorized("127.0.0.1", "", "secret")
        assert shutdown_authorized("::1", "", "secret")

    def test_remote_requires_matching_token(self):
        assert not shutdown_authorized("10.0.0.7", "", "secret")
        assert not shutdown_authorized("10.0.0.7", "wrong", "secret")
        assert not shutdown_authorized("not-an-ip", "", "secret")
        assert shutdown_authorized("10.0.0.7", "secret", "secret")

    def test_token_header_accepted_over_http(self):
        srv = JobServer(workers=1, batch_window=0.0, cache_size=4)
        try:
            host, port = srv.start()
            client = ServiceClient(f"http://{host}:{port}",
                                   timeout=30.0,
                                   shutdown_token=srv.shutdown_token)
            assert client.shutdown() == {"ok": True}
            deadline = time.monotonic() + 10.0
            while srv._httpd is not None \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert srv._httpd is None
        finally:
            srv.shutdown()


def hold_plan():
    """A plan whose ``service.hold`` latch parks the first job at its
    first cancellation check: the job stays *running* until the test
    calls ``plan.release()`` (or leaves the activation), however fast
    the machine is."""
    return faults.FaultPlan(schedule={"service.hold": [1]})


def settle(client, job_id, timeout=10.0):
    """Poll a job until it is done or failed; returns its document."""
    deadline = time.monotonic() + timeout
    doc = client.status(job_id)
    while doc["state"] not in ("failed", "done") \
            and time.monotonic() < deadline:
        time.sleep(0.02)
        doc = client.status(job_id)
    return doc


class TestCancelRoute:
    def test_cancel_queued_job_fails_immediately(self, server):
        srv, client = server
        plan = hold_plan()
        with faults.activate(plan):
            # Occupy the single worker, then cancel a queued job.
            blocker = client.submit(rc_job(r="7e3"))
            assert plan.parked.wait(10.0)
            queued = client.submit(rc_job(r="8e3"))
            doc = client.cancel(queued["id"])
            assert doc["state"] == "failed"
            assert doc["error_kind"] == "cancelled"
            client.cancel(blocker["id"])
        assert settle(client, blocker["id"])["error_kind"] == "cancelled"

    def test_cancel_running_job_unwinds_engine(self, server):
        srv, client = server
        plan = hold_plan()
        with faults.activate(plan):
            doc = client.submit(rc_job(r="9e3"))
            assert plan.parked.wait(10.0)
            assert client.status(doc["id"])["state"] == "running"
            client.cancel(doc["id"])
            plan.release()
            final = settle(client, doc["id"])
        assert final["state"] == "failed"
        assert final["error_kind"] == "cancelled"

    def test_cancel_finished_job_is_noop(self, server):
        _, client = server
        done = client.run(rc_job())
        doc = client.cancel(done["id"])
        assert doc["state"] == "done"
        assert doc["result"] == done["result"]

    def test_cancel_unknown_job_is_404(self, server):
        _, client = server
        with pytest.raises(ServiceError, match="404"):
            client.cancel("not-a-job")


class TestBackpressure:
    def test_full_queue_returns_503_with_retry_after(self):
        srv = JobServer(workers=1, batch_window=0.0, cache_size=8,
                        max_queue=1)
        plan = hold_plan()
        try:
            host, port = srv.start()
            client = ServiceClient(f"http://{host}:{port}",
                                   timeout=30.0)
            with faults.activate(plan):
                blocker = client.submit(rc_job(r="1e3"))
                assert plan.parked.wait(10.0)
                queued = client.submit(rc_job(r="2e3"))
                # Queue is now at max_queue: the next submission must
                # be refused with 503 + Retry-After, not silently
                # enqueued.
                request = urllib.request.Request(
                    f"{client.base_url}/jobs",
                    data=json.dumps(rc_job(r="3e3")).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST")
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(request, timeout=10.0)
                assert err.value.code == 503
                assert int(err.value.headers["Retry-After"]) >= 1
                body = json.loads(err.value.read())
                assert "queue is full" in body["error"]
                with pytest.raises(ServiceError, match="503"):
                    client.submit(rc_job(r="4e3"))
                client.cancel(queued["id"])
                client.cancel(blocker["id"])
        finally:
            srv.shutdown()


class TestClientTransportRetry:
    def test_submit_retries_transport_faults(self, server):
        srv, client = server
        plan = faults.FaultPlan(
            seed=9, schedule={"service.transport": [1]})
        with faults.activate(plan):
            doc = client.submit(rc_job(r="11e3"))
        assert doc["state"] in ("pending", "running", "done")
        assert plan.fired == [("service.transport", 1)]
        # The injected firing is visible at /metrics via the server's
        # fault listener (chaos accounting).
        assert client.metric_value(
            "service_faults_injected_total") >= 1

    def test_exhausted_retries_surface_transport_error(self, server):
        _, client = server
        impatient = ServiceClient(client.base_url, timeout=10.0,
                                  retries=1, backoff=0.01)
        plan = faults.FaultPlan(
            seed=9, schedule={"service.transport": [1, 2]})
        with faults.activate(plan):
            with pytest.raises(ServiceTransportError):
                impatient.submit(rc_job(r="12e3"))

    def test_http_error_replies_are_not_retried(self, server):
        _, client = server
        calls = []
        original = client._request

        def counting(method, path, *args, **kwargs):
            calls.append((method, path))
            return original(method, path, *args, **kwargs)

        client._request = counting
        with pytest.raises(ServiceError, match="400"):
            client.submit({"kind": "nope"})
        assert calls == [("POST", "/jobs")]


class TestSchedulerShutdownWedged:
    """Satellite: shutdown(wait=True, timeout=...) with a wedged job
    reports the worker threads that failed to join instead of hanging
    or silently leaking them."""

    def test_wedged_worker_reported_by_name(self, monkeypatch):
        import repro.service.scheduler as scheduler_mod

        release = threading.Event()

        def wedge(specs, **kwargs):
            release.wait(30.0)
            return [None for _ in specs]

        monkeypatch.setattr(scheduler_mod, "execute_group", wedge)
        scheduler = scheduler_mod.CoalescingScheduler(
            workers=2, batch_window=0.0)
        try:
            job = scheduler_mod.Job(parse_job_spec(rc_job()))
            scheduler.submit(job)
            deadline = time.monotonic() + 5.0
            while job.state == "pending" \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            stuck = scheduler.shutdown(wait=True, timeout=0.2)
            # Exactly one worker holds the wedged job (either may
            # have claimed it); the idle one joins cleanly.
            assert len(stuck) == 1
            assert stuck[0].startswith("repro-service-worker-")
        finally:
            release.set()
        # The idle worker joined; only the wedged one was reported.
        assert scheduler.shutdown(wait=True, timeout=5.0) == []

    def test_clean_shutdown_reports_nothing(self):
        from repro.service.scheduler import CoalescingScheduler

        scheduler = CoalescingScheduler(workers=2, batch_window=0.0)
        assert scheduler.shutdown(wait=True, timeout=5.0) == []


class TestSchedulerDemuxGuard:
    def test_short_result_list_fails_unmatched_jobs(self, monkeypatch):
        """If a dispatch ever returns fewer results than jobs, the
        unmatched jobs must fail loudly instead of hanging clients in
        the running state forever."""
        import repro.service.scheduler as scheduler_mod

        monkeypatch.setattr(scheduler_mod, "execute_group",
                            lambda specs, **kwargs: [])
        srv = JobServer(workers=1, batch_window=0.0, cache_size=4)
        try:
            job = srv.submit(rc_job())
            assert job.wait(timeout=10.0)
            assert job.state == "failed"
            assert "0 results for 1 jobs" in job.error
        finally:
            srv.shutdown()
