"""Determinism audit: every seeded API is byte-stable.

Each probe below computes a JSON-serializable payload from a seeded
entry point (sampling, campaign execution, batch lane ordering,
scalar transient steps, fingerprints, experiment plans).  Three properties are asserted per
probe:

1. two same-process runs are byte-identical (no hidden global state);
2. a fresh subprocess reproduces the same digest (no dependence on
   import order, hash randomization, or accumulated caches);
3. for the probes with committed goldens
   (``tests/golden_fingerprints.json``), the digest matches the
   committed value — cross-platform or cross-version drift in
   ``manifest_fingerprint`` (which keys campaign resume and the
   service result cache) fails loudly here instead of silently
   rotating every cache key in the field.

Regenerating the goldens is an intentional compatibility break::

    PYTHONPATH=src python tests/test_determinism.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "golden_fingerprints.json"


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------
# probes: name -> nullary callable returning a JSON-able payload
# ---------------------------------------------------------------------

def probe_manifest_fingerprint_simple():
    from repro.service.fingerprint import manifest_fingerprint

    return manifest_fingerprint(
        {"b": [1, 2.5], "a": "x", "nested": {"k": True}})


def probe_manifest_fingerprint_campaign():
    from repro.service.fingerprint import manifest_fingerprint
    from repro.variability.campaign import CampaignConfig

    return manifest_fingerprint(
        CampaignConfig(name="golden", n_samples=16, seed=7,
                       sampler="mc", chunk_size=8).describe())


def probe_mc_samples():
    from repro.variability.params import default_device_space
    from repro.variability.sampling import monte_carlo

    return monte_carlo(default_device_space(), 8, seed=7)


def probe_lhs_samples():
    from repro.variability.params import default_device_space
    from repro.variability.sampling import latin_hypercube

    return latin_hypercube(default_device_space(), 8, seed=7)


def probe_quantized_keys():
    from repro.variability.campaign import quantize_sample
    from repro.variability.params import default_device_space
    from repro.variability.sampling import monte_carlo

    samples = monte_carlo(default_device_space(), 8, seed=7)
    return [list(quantize_sample(s, None)) for s in samples]


def probe_campaign_run():
    from repro.pwl.device import clear_fit_cache
    from repro.variability.campaign import (
        Campaign,
        CampaignConfig,
        DeviceMetricsEvaluator,
    )
    from repro.variability.params import default_device_space

    # Campaign.run is byte-deterministic *given* the process-wide fit
    # cache state: a warm cache serves fits produced under a different
    # construction sequence, shifting metrics at the ~1e-15 level.
    # Clearing it makes the probe hermetic, so the subprocess
    # comparison tests the seeded pipeline, not ambient cache history.
    clear_fit_cache()
    space = default_device_space()
    config = CampaignConfig(name="determinism", n_samples=8, seed=7,
                            sampler="mc", chunk_size=4)
    result = Campaign(config, space,
                      DeviceMetricsEvaluator(space)).run()
    return {"records": result.records, "aggregate": result.aggregate}


def probe_batch_lane_ordering():
    """Lane order of the batched engine: operating points per lane for
    three parametrically distinct rings must come back in submission
    order with identical bytes."""
    from repro.circuit.batch_sim import batch_operating_points
    from repro.circuit.logic import LogicFamily, build_ring_oscillator
    from repro.circuit.mna import NewtonOptions
    from repro.pwl.device import clear_fit_cache

    clear_fit_cache()  # hermetic: see probe_campaign_run
    circuits = []
    for vdd in (0.55, 0.6, 0.65):
        ring, _nodes = build_ring_oscillator(
            LogicFamily.default(vdd=vdd), stages=3)
        circuits.append(ring)
    x0 = batch_operating_points(
        circuits, NewtonOptions(vtol=1e-12, reltol=1e-10))
    return [[repr(float(v)) for v in lane] for lane in x0]


def probe_transient_steps():
    """The scalar transient engine's step sequence: a short adaptive
    trapezoidal ring-oscillator run's time axis, node voltages and
    step statistics (no golden — the floats are platform-dependent)."""
    from repro.circuit.logic import LogicFamily, build_ring_oscillator
    from repro.circuit.transient import (
        initial_conditions_from_op,
        transient,
    )
    from repro.pwl.device import clear_fit_cache

    clear_fit_cache()  # hermetic: see probe_campaign_run
    ring, nodes = build_ring_oscillator(LogicFamily.default(vdd=0.6),
                                        stages=3)
    x0 = initial_conditions_from_op(ring, {nodes[0]: 0.0, nodes[1]: 0.6})
    stats = {}
    ds = transient(ring, 1e-11, x0=x0, method="trap",
                   record_currents=False, stats=stats)
    payload = {"axis": [repr(float(t)) for t in ds.axis],
               "stats": {k: repr(v) for k, v in stats.items()}}
    for node in nodes:
        payload[f"v({node})"] = [repr(float(v)) for v in ds.voltage(node)]
    return payload


def probe_exprunner_config_fingerprint():
    from repro.exprunner import RunnerConfig

    return RunnerConfig.from_dict({
        "name": "golden", "workload": "circuit_transient",
        "factors": {"chord": ["off", "on"]}, "repetitions": 2,
        "seed": 3}).fingerprint()


def probe_exprunner_plan_seeds():
    from repro.exprunner import RunnerConfig, expand_plan

    config = RunnerConfig.from_dict({
        "name": "golden", "workload": "circuit_transient",
        "factors": {"chord": ["off", "on"]}, "repetitions": 2,
        "seed": 3})
    return [spec.seed for spec in expand_plan(config)]


PROBES = {
    "manifest_fingerprint_simple": probe_manifest_fingerprint_simple,
    "manifest_fingerprint_campaign": probe_manifest_fingerprint_campaign,
    "mc_samples": probe_mc_samples,
    "lhs_samples": probe_lhs_samples,
    "quantized_keys": probe_quantized_keys,
    "campaign_run": probe_campaign_run,
    "batch_lane_ordering": probe_batch_lane_ordering,
    "transient_steps": probe_transient_steps,
    "exprunner_config_fingerprint": probe_exprunner_config_fingerprint,
    "exprunner_plan_seeds": probe_exprunner_plan_seeds,
}

#: probe -> golden key; fingerprints are committed raw, bulky payloads
#: as sha256 digests.
GOLDEN_KEYS = {
    "manifest_fingerprint_simple": ("manifest_fingerprint_simple",
                                    "raw"),
    "manifest_fingerprint_campaign": ("manifest_fingerprint_campaign",
                                      "raw"),
    "mc_samples": ("mc_samples_sha256", "digest"),
    "lhs_samples": ("lhs_samples_sha256", "digest"),
    "quantized_keys": ("quantized_keys_sha256", "digest"),
    "exprunner_config_fingerprint": ("exprunner_config_fingerprint",
                                     "raw"),
    "exprunner_plan_seeds": ("exprunner_plan_seeds", "raw"),
}

_SUBPROCESS_SNIPPET = """\
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from test_determinism import PROBES, _digest
print(_digest(PROBES[{name!r}]()))
"""


@pytest.mark.parametrize("name", sorted(PROBES))
def test_same_process_runs_identical(name):
    probe = PROBES[name]
    first = json.dumps(probe(), sort_keys=True)
    second = json.dumps(probe(), sort_keys=True)
    assert first == second


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PROBES))
def test_subprocess_run_identical(name):
    here = Path(__file__).parent
    code = _SUBPROCESS_SNIPPET.format(
        src=str(here.parent / "src"), tests=str(here), name=name)
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == _digest(PROBES[name]())


@pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
def test_matches_committed_golden(name):
    goldens = json.loads(GOLDEN_PATH.read_text())
    key, form = GOLDEN_KEYS[name]
    value = PROBES[name]()
    observed = _digest(value) if form == "digest" else value
    assert observed == goldens[key], (
        f"{name} drifted from tests/golden_fingerprints.json — this "
        f"breaks campaign resume and service cache compatibility; "
        f"regenerate the goldens only for an intentional, documented "
        f"break")


def _regenerate() -> None:
    goldens = {"_comment": json.loads(
        GOLDEN_PATH.read_text())["_comment"]}
    for name in sorted(GOLDEN_KEYS):
        key, form = GOLDEN_KEYS[name]
        value = PROBES[name]()
        goldens[key] = _digest(value) if form == "digest" else value
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2) + "\n")
    print(f"regenerated {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
