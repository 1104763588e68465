"""Job specifications: validation, canonical payloads and execution.

A job arrives as a JSON object with a ``kind`` plus kind-specific
fields.  :func:`parse_job_spec` validates it, parses the netlist deck
(for deck-based kinds), and derives two fingerprints:

* ``fingerprint`` — the result-cache key: circuit values + analysis
  parameters + the ``nodes`` response filter
  (:mod:`repro.service.fingerprint`).  The deck *text* is never
  hashed — two decks that flatten to the same circuit share a cache
  entry.  ``nodes`` must be part of the key because the cache stores
  the filtered result payload: without it a ``nodes=["out"]``
  submission would poison the cache for a later unfiltered one.
* ``group_key`` — the coalescing key: circuit *topology* + the
  analysis parameters that must match for lanes to share one stacked
  solve.  ``None`` marks kinds that always run solo (``op``, ``mc``,
  ``characterize`` — the latter two are already batched internally).

Execution is split the same way: :func:`execute_spec` runs one job
through the scalar engine (also the scheduler's fallback path), and
:func:`execute_group` dispatches a same-``group_key`` group through
``batch_transient`` / ``batch_dc_sweep`` with per-lane demux.

Supported kinds and fields
--------------------------
``transient``
    ``deck`` (netlist text), ``tstop`` [s]; optional ``dt``,
    ``method`` (``trap``/``be``), ``rtol``, ``atol``, ``nodes``
    (restrict returned voltage traces), ``newton`` (mapping of
    :class:`repro.circuit.NewtonOptions` overrides).
``dc``
    ``deck``, ``source`` (swept element) and either ``values`` or
    ``start``/``stop``/``points``; optional ``nodes``, ``newton``.
``op``
    ``deck``; optional ``nodes``, ``newton``.
``mc``
    ``workload`` (see ``repro mc``), optional ``samples``, ``seed``,
    ``sampler``, ``vdd``, ``model``, ``gate``, ``stages``.
``characterize``
    ``gate``; optional ``loads`` [F], ``slews`` [s], ``vdd``,
    ``model``.

Every kind additionally accepts ``deadline_s`` (> 0): a wall-clock
budget measured from submission, enforced through a cooperative
:class:`repro.cancel.CancelToken` threaded into the engine's Newton
loops.  The deadline is *execution policy*, not simulation input, so
it is excluded from both fingerprints — a deadline job still hits (and
fills) the result cache — and it forces ``group_key = None`` so the
token threads through the scalar path rather than a lock-step batch
dispatch.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.circuit.mna import NewtonOptions
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError, ParameterError, ReproError
from repro.service.fingerprint import (
    circuit_fingerprint,
    describe_circuit,
    manifest_fingerprint,
    topology_fingerprint,
)

__all__ = ["JOB_KINDS", "JobSpec", "parse_job_spec", "execute_spec",
           "execute_group"]

#: Supported job kinds, in documentation order.
JOB_KINDS = ("transient", "dc", "op", "mc", "characterize")

#: Kinds the scheduler may coalesce into one lane-batched engine call.
COALESCABLE_KINDS = ("transient", "dc")

_NEWTON_FIELDS = tuple(f.name for f in dataclasses.fields(NewtonOptions))

_ALLOWED_KEYS = {
    "transient": {"kind", "deck", "tstop", "dt", "method", "rtol",
                  "atol", "nodes", "newton", "deadline_s"},
    "dc": {"kind", "deck", "source", "values", "start", "stop",
           "points", "nodes", "newton", "deadline_s"},
    "op": {"kind", "deck", "nodes", "newton", "deadline_s"},
    "mc": {"kind", "workload", "samples", "seed", "sampler", "vdd",
           "model", "gate", "stages", "deadline_s"},
    "characterize": {"kind", "gate", "loads", "slews", "vdd", "model",
                     "deadline_s"},
}


@dataclass(frozen=True)
class JobSpec:
    """A validated job: canonical payload, fingerprints and (for
    deck-based kinds) the parsed flattened circuit.

    ``payload`` is the canonical JSON-able form with defaults resolved,
    so semantically equal submissions (different whitespace, key
    order, deck comments) produce equal ``fingerprint`` values.
    """

    kind: str
    payload: Dict[str, Any]
    fingerprint: str
    group_key: Optional[str]
    circuit: Optional[Circuit] = None


def _fail(kind: str, message: str) -> ParameterError:
    return ParameterError(f"{kind} job: {message}")


def _get_number(payload: Mapping, key: str, kind: str, *,
                required: bool = False,
                default: Optional[float] = None,
                minimum: Optional[float] = None) -> Optional[float]:
    value = payload.get(key, default)
    if value is None:
        if required:
            raise _fail(kind, f"missing required field {key!r}")
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(kind, f"{key!r} must be a number: {value!r}")
    value = float(value)
    if minimum is not None and value <= minimum:
        raise _fail(kind, f"{key!r} must be > {minimum:g}: {value!r}")
    return value


def _get_int(payload: Mapping, key: str, kind: str, *,
             default: Optional[int] = None,
             minimum: int = 0) -> Optional[int]:
    value = payload.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(kind, f"{key!r} must be an integer: {value!r}")
    if value < minimum:
        raise _fail(kind, f"{key!r} must be >= {minimum}: {value!r}")
    return value


def _get_str(payload: Mapping, key: str, kind: str, *,
             required: bool = False, default: Optional[str] = None,
             choices: Optional[Sequence[str]] = None) -> Optional[str]:
    value = payload.get(key, default)
    if value is None:
        if required:
            raise _fail(kind, f"missing required field {key!r}")
        return None
    if not isinstance(value, str):
        raise _fail(kind, f"{key!r} must be a string: {value!r}")
    if choices is not None and value not in choices:
        raise _fail(kind, f"{key!r} must be one of {sorted(choices)}: "
                          f"{value!r}")
    return value


def _parse_newton(payload: Mapping, kind: str) -> Dict[str, Any]:
    newton = payload.get("newton", {})
    if not isinstance(newton, Mapping):
        raise _fail(kind, f"'newton' must be an object: {newton!r}")
    canonical: Dict[str, Any] = {}
    for key in sorted(newton):
        if key not in _NEWTON_FIELDS:
            raise _fail(kind, f"unknown newton option {key!r}; "
                              f"expected one of {sorted(_NEWTON_FIELDS)}")
        value = newton[key]
        if isinstance(value, bool):
            canonical[key] = value
        elif isinstance(value, (int, float)):
            canonical[key] = float(value)
        else:
            raise _fail(kind, f"newton option {key!r} must be a "
                              f"number or bool: {value!r}")
    return canonical


def build_newton_options(newton: Mapping[str, Any]) -> NewtonOptions:
    """Apply a job spec's ``newton`` overrides to the engine defaults."""
    if not newton:
        return NewtonOptions()
    kwargs = dict(newton)
    if "max_iterations" in kwargs:
        kwargs["max_iterations"] = int(kwargs["max_iterations"])
    return dataclasses.replace(NewtonOptions(), **kwargs)


def _parse_deck(payload: Mapping, kind: str) -> Circuit:
    from repro.circuit.parser import parse_netlist

    deck = payload.get("deck")
    if not isinstance(deck, str) or not deck.strip():
        raise _fail(kind, "'deck' must be a non-empty netlist string")
    parsed = parse_netlist(deck)
    circuit = parsed.circuit
    if not circuit.elements:
        raise _fail(kind, "deck contains no elements")
    return circuit


def _parse_nodes(payload: Mapping, kind: str,
                 circuit: Circuit) -> Optional[List[str]]:
    nodes = payload.get("nodes")
    if nodes is None:
        return None
    if (not isinstance(nodes, (list, tuple)) or
            not all(isinstance(n, str) for n in nodes)):
        raise _fail(kind, f"'nodes' must be a list of node names: "
                          f"{nodes!r}")
    known = set(circuit.nodes)
    for node in nodes:
        if node not in known:
            raise _fail(kind, f"unknown node {node!r}; circuit nodes: "
                              f"{sorted(known)}")
    return sorted(set(nodes))


def _check_keys(payload: Mapping, kind: str) -> None:
    unknown = sorted(set(payload) - _ALLOWED_KEYS[kind])
    if unknown:
        raise _fail(kind, f"unknown field(s) {unknown}; allowed: "
                          f"{sorted(_ALLOWED_KEYS[kind])}")


def parse_job_spec(payload: Any) -> JobSpec:
    """Validate a raw job payload into a :class:`JobSpec`.

    Raises :class:`repro.errors.ParameterError` (or another
    :class:`repro.errors.ReproError` subclass, e.g. a parse error from
    the deck) with a message naming the offending field — the HTTP
    layer maps these to 400 responses.
    """
    if not isinstance(payload, Mapping):
        raise ParameterError(f"job spec must be a JSON object: "
                             f"{type(payload).__name__}")
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise ParameterError(f"job kind must be one of {list(JOB_KINDS)}: "
                             f"{kind!r}")
    _check_keys(payload, kind)
    deadline_s = _get_number(payload, "deadline_s", kind, minimum=0.0)
    if kind == "transient":
        spec = _parse_transient(payload)
    elif kind == "dc":
        spec = _parse_dc(payload)
    elif kind == "op":
        spec = _parse_op(payload)
    elif kind == "mc":
        spec = _parse_mc(payload)
    else:
        spec = _parse_characterize(payload)
    if deadline_s is not None:
        # Execution policy, attached after the fingerprints are
        # derived: the cache key ignores it, and coalescing is
        # disabled so the cancellation token threads through the
        # scalar engine (see module docstring).
        spec = dataclasses.replace(
            spec, payload=dict(spec.payload, deadline_s=deadline_s),
            group_key=None)
    return spec


def _parse_transient(payload: Mapping) -> JobSpec:
    circuit = _parse_deck(payload, "transient")
    canonical = {
        "kind": "transient",
        "tstop": _get_number(payload, "tstop", "transient",
                             required=True, minimum=0.0),
        "dt": _get_number(payload, "dt", "transient", minimum=0.0),
        "method": _get_str(payload, "method", "transient",
                           default="trap", choices=("trap", "be")),
        "rtol": _get_number(payload, "rtol", "transient", minimum=0.0),
        "atol": _get_number(payload, "atol", "transient", minimum=0.0),
        "nodes": _parse_nodes(payload, "transient", circuit),
        "newton": _parse_newton(payload, "transient"),
    }
    if canonical["dt"] is not None and (canonical["rtol"] is not None
                                        or canonical["atol"] is not None):
        raise _fail("transient", "rtol/atol are adaptive-mode options; "
                                 "omit dt to use the adaptive engine")
    analysis = {k: canonical[k] for k in
                ("dt", "method", "rtol", "atol", "newton")}
    fingerprint = manifest_fingerprint({
        "kind": "transient",
        "circuit": describe_circuit(circuit),
        "analysis": dict(analysis, tstop=canonical["tstop"]),
        "nodes": canonical["nodes"],
    })
    group_key = manifest_fingerprint({
        "kind": "transient",
        "topology": topology_fingerprint(circuit),
        "analysis": analysis,
    })
    return JobSpec("transient", canonical, fingerprint, group_key,
                   circuit)


def _parse_dc(payload: Mapping) -> JobSpec:
    from repro.circuit.elements.sources import (CurrentSource,
                                                VoltageSource)

    circuit = _parse_deck(payload, "dc")
    source_name = _get_str(payload, "source", "dc", required=True)
    source = circuit.element(source_name)  # NetlistError if unknown
    if not isinstance(source, (VoltageSource, CurrentSource)):
        raise _fail("dc", f"{source_name!r} is not an independent "
                          f"source")
    raw_values = payload.get("values")
    if raw_values is not None:
        if (not isinstance(raw_values, (list, tuple)) or not raw_values
                or not all(isinstance(v, (int, float))
                           and not isinstance(v, bool)
                           for v in raw_values)):
            raise _fail("dc", f"'values' must be a non-empty list of "
                              f"numbers: {raw_values!r}")
        values = [float(v) for v in raw_values]
    else:
        start = _get_number(payload, "start", "dc", required=True)
        stop = _get_number(payload, "stop", "dc", required=True)
        points = _get_int(payload, "points", "dc", default=21,
                          minimum=2)
        values = [float(v) for v in np.linspace(start, stop, points)]
    canonical = {
        "kind": "dc",
        "source": source_name,
        "values": values,
        "nodes": _parse_nodes(payload, "dc", circuit),
        "newton": _parse_newton(payload, "dc"),
    }
    analysis = {"source": source_name, "values": values,
                "newton": canonical["newton"]}
    fingerprint = manifest_fingerprint({
        "kind": "dc",
        "circuit": describe_circuit(circuit),
        "analysis": analysis,
        "nodes": canonical["nodes"],
    })
    group_key = manifest_fingerprint({
        "kind": "dc",
        "topology": topology_fingerprint(circuit),
        "analysis": analysis,
    })
    return JobSpec("dc", canonical, fingerprint, group_key, circuit)


def _parse_op(payload: Mapping) -> JobSpec:
    circuit = _parse_deck(payload, "op")
    canonical = {
        "kind": "op",
        "nodes": _parse_nodes(payload, "op", circuit),
        "newton": _parse_newton(payload, "op"),
    }
    fingerprint = manifest_fingerprint({
        "kind": "op",
        "circuit": describe_circuit(circuit),
        "analysis": {"newton": canonical["newton"]},
        "nodes": canonical["nodes"],
    })
    return JobSpec("op", canonical, fingerprint, None, circuit)


def _parse_mc(payload: Mapping) -> JobSpec:
    from repro.experiments.workloads import VARIABILITY_WORKLOADS

    canonical = {
        "kind": "mc",
        "workload": _get_str(payload, "workload", "mc", required=True,
                             choices=tuple(VARIABILITY_WORKLOADS)),
        "samples": _get_int(payload, "samples", "mc", default=64,
                            minimum=1),
        "seed": _get_int(payload, "seed", "mc", default=0),
        "sampler": _get_str(payload, "sampler", "mc", default="mc"),
        "vdd": _get_number(payload, "vdd", "mc", default=None,
                           minimum=0.0),
        "model": _get_str(payload, "model", "mc", default="model2"),
        "gate": _get_str(payload, "gate", "mc", default="nand2"),
        "stages": _get_int(payload, "stages", "mc", default=3,
                           minimum=1),
    }
    fingerprint = manifest_fingerprint(canonical)
    return JobSpec("mc", canonical, fingerprint, None, None)


def _parse_characterize(payload: Mapping) -> JobSpec:
    def _float_list(key: str, default: List[float]) -> List[float]:
        raw = payload.get(key, default)
        if (not isinstance(raw, (list, tuple)) or not raw
                or not all(isinstance(v, (int, float))
                           and not isinstance(v, bool) and v > 0
                           for v in raw)):
            raise _fail("characterize",
                        f"{key!r} must be a non-empty list of positive "
                        f"numbers: {raw!r}")
        return [float(v) for v in raw]

    canonical = {
        "kind": "characterize",
        "gate": _get_str(payload, "gate", "characterize",
                         required=True),
        "loads": _float_list("loads", [1e-15]),
        "slews": _float_list("slews", [2e-11]),
        "vdd": _get_number(payload, "vdd", "characterize", default=0.9,
                           minimum=0.0),
        "model": _get_str(payload, "model", "characterize",
                          default="model2"),
    }
    fingerprint = manifest_fingerprint(canonical)
    return JobSpec("characterize", canonical, fingerprint, None, None)


# ----------------------------------------------------------------------
# Execution


def _dc_trace_names(circuit: Circuit) -> List[str]:
    """Traces a DC-sweep job returns: node voltages plus voltage-source
    branch currents — the set both the scalar and lane-batched sweep
    produce, so a job's payload does not depend on whether it
    coalesced."""
    from repro.circuit.elements.sources import VoltageSource

    names = [f"v({node})" for node in circuit.nodes]
    names += [f"i({el.name})" for el in
              circuit.iter_elements(VoltageSource)]
    return sorted(name.lower() for name in names)


def _dataset_payload(dataset, nodes: Optional[Sequence[str]],
                     allowed: Optional[Sequence[str]] = None) -> dict:
    if nodes is not None:
        names = [f"v({node})" for node in nodes]
    elif allowed is not None:
        names = [name for name in allowed if name in dataset]
    else:
        names = dataset.names
    return {
        "axis_name": dataset.axis_name,
        "axis": [float(v) for v in dataset.axis],
        "traces": {name: [float(v) for v in dataset.trace(name)]
                   for name in names},
    }


def _adaptive_kwargs(payload: Mapping) -> Dict[str, Any]:
    kwargs: Dict[str, Any] = {}
    if payload.get("rtol") is not None:
        kwargs["rtol"] = payload["rtol"]
    if payload.get("atol") is not None:
        kwargs["atol"] = payload["atol"]
    return kwargs


def execute_spec(spec: JobSpec, *, backend=None,
                 stats: Optional[dict] = None,
                 cancel=None) -> dict:
    """Run one job through the scalar in-process engine.

    This is both the solo path for non-coalescable kinds and the
    scheduler's per-job fallback when a batched dispatch fails as a
    whole.  Returns the JSON-able result payload; raises
    :class:`repro.errors.ReproError` on failure.  ``cancel`` (a
    :class:`repro.cancel.CancelToken`) threads into the engine's
    Newton/sweep/campaign loops for the ``transient``/``dc``/``op``/
    ``mc`` kinds — how the scheduler enforces per-job deadlines.
    """
    payload = spec.payload
    if spec.kind == "transient":
        from repro.circuit.transient import transient

        dataset = transient(
            spec.circuit, payload["tstop"], dt=payload["dt"],
            method=payload["method"],
            options=build_newton_options(payload["newton"]),
            record_currents="sources", stats=stats,
            backend=backend, cancel=cancel,
            **_adaptive_kwargs(payload))
        return _dataset_payload(dataset, payload["nodes"])
    if spec.kind == "dc":
        from repro.circuit.dc import dc_sweep

        dataset = dc_sweep(spec.circuit, payload["source"],
                           payload["values"],
                           options=build_newton_options(
                               payload["newton"]),
                           backend=backend, cancel=cancel)
        return _dataset_payload(dataset, payload["nodes"],
                                allowed=_dc_trace_names(spec.circuit))
    if spec.kind == "op":
        from repro.circuit.dc import operating_point

        op = operating_point(spec.circuit,
                             options=build_newton_options(
                                 payload["newton"]),
                             backend=backend, cancel=cancel)
        voltages = op.as_dict()
        if payload["nodes"] is not None:
            voltages = {f"v({node})": voltages[f"v({node})"]
                        for node in payload["nodes"]}
        return {"voltages": voltages}
    if spec.kind == "mc":
        return _execute_mc(payload, backend, cancel)
    return _execute_characterize(payload, backend)


def _execute_mc(payload: Mapping, backend, cancel=None) -> dict:
    from repro.experiments.workloads import variability_workload
    from repro.variability.campaign import Campaign, CampaignConfig

    workload_kwargs: Dict[str, Any] = {
        "model": payload["model"], "gate": payload["gate"],
        "stages": payload["stages"], "backend": backend,
    }
    if payload["vdd"] is not None:
        workload_kwargs["vdd"] = payload["vdd"]
    space, evaluator = variability_workload(payload["workload"],
                                            **workload_kwargs)
    config = CampaignConfig(name=payload["workload"],
                            n_samples=payload["samples"],
                            seed=payload["seed"],
                            sampler=payload["sampler"])
    campaign = Campaign(config, space, evaluator)
    return campaign.run(resume=False, cancel=cancel).to_json_dict()


def _execute_characterize(payload: Mapping, backend) -> dict:
    from repro.characterize import characterize_gate
    from repro.circuit.logic import LogicFamily

    family = LogicFamily.default(vdd=payload["vdd"],
                                 model=payload["model"])
    table = characterize_gate(family, payload["gate"],
                              loads=tuple(payload["loads"]),
                              slews=tuple(payload["slews"]),
                              backend=backend)
    return table.to_json_dict()


def execute_group(specs: Sequence[JobSpec], *, backend=None,
                  stats: Optional[dict] = None,
                  cancel=None) -> List[Union[dict, ReproError]]:
    """Dispatch a same-``group_key`` group as one lane-batched engine
    call and demux the per-lane results.

    Returns one entry per job, in order: the result payload, or the
    per-lane :class:`repro.errors.ReproError` for lanes that failed
    even after the engine's own scalar fallback.  Raises only when the
    *whole* dispatch fails (the scheduler then retries each job
    through :func:`execute_spec`).  ``cancel`` applies to the
    single-spec path only — deadline jobs never coalesce
    (``group_key`` is cleared at parse time), so the batch loops stay
    token-free.
    """
    if len(specs) == 1:
        return [execute_spec(specs[0], backend=backend, stats=stats,
                             cancel=cancel)]
    first = specs[0].payload
    circuits = [spec.circuit for spec in specs]
    options = build_newton_options(first["newton"])
    if specs[0].kind == "transient":
        from repro.circuit.batch_sim import batch_transient

        tstops = [spec.payload["tstop"] for spec in specs]
        result = batch_transient(
            circuits, tstops, dt=first["dt"], method=first["method"],
            options=options, record_currents="sources", stats=stats,
            backend=backend,
            **_adaptive_kwargs(first))
        out: List[Union[dict, ReproError]] = []
        for lane, spec in enumerate(specs):
            try:
                dataset = result[lane]
            except AnalysisError as exc:
                out.append(exc)
                continue
            out.append(_dataset_payload(dataset,
                                        spec.payload["nodes"]))
        return out
    # dc: one stacked sweep over the shared grid
    from repro.circuit.batch_sim import batch_dc_sweep

    datasets = batch_dc_sweep(circuits, first["source"],
                              first["values"], options=options,
                              stats=stats, backend=backend)
    return [_dataset_payload(dataset, spec.payload["nodes"],
                             allowed=_dc_trace_names(spec.circuit))
            for dataset, spec in zip(datasets, specs)]
