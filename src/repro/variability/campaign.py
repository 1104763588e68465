"""Run-table Monte-Carlo campaign engine.

A campaign is *samples x evaluator*: the sampler turns a seed into a
deterministic run table of device-parameter samples, the evaluator turns
samples into per-run metric records, and the engine handles chunked
execution, on-disk persistence, resume and aggregation:

``run_dir/``
    ``manifest.json``   config + space + evaluator fingerprint
    ``chunks/chunk_0000.json``  per-run records of one chunk
    ``run_table.csv``   one row per run (knobs + metrics)
    ``aggregate.json``  per-metric summary (moments, percentiles, yield)

Resume: re-running a campaign pointed at an existing run directory
verifies the manifest fingerprint (same seed, sampler, space and
evaluator — anything else is a different experiment and refuses to mix)
and recomputes only the chunks whose files are missing, so an
interrupted 10k-sample campaign continues where it stopped.  Corrupt
or truncated chunk files — the shape a crash mid-write leaves behind —
are moved to ``chunks/quarantine/`` and recomputed rather than
crashing the resume; a corrupt *manifest* quarantines the whole run
directory's records (nothing on disk is verifiable without the
fingerprint) and starts fresh.  See ``docs/robustness.md``.

The device-metric evaluator is the scale workload for the batch engine:
samples are grouped by their *quantised* device key, each distinct
device is fitted once (through the module-level fit cache of
:mod:`repro.pwl.device`) and all of its bias points are evaluated in a
single ``ids_batch``/``solve_many`` pass.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import persist
from repro.cancel import CancelToken
from repro.errors import ParameterError
from repro.experiments.report import ascii_table
from repro.variability.params import ParameterSpace
from repro.variability.sampling import SAMPLERS, sample_space
from repro.variability.stats import aggregate_metrics, histogram_ascii

__all__ = [
    "CampaignConfig", "Campaign", "CampaignResult",
    "DeviceMetricsEvaluator", "quantize_sample", "QUANTIZE_DECIMALS",
]

_log = logging.getLogger("repro.variability.campaign")

#: Default decimals when quantising sampled knobs into device keys.
#: Diameter is snapped to a discrete tube by the band structure anyway;
#: the analog knobs are binned at resolutions below which the metric
#: shift is buried in the model's own fitting error.
QUANTIZE_DECIMALS: Dict[str, int] = {
    "diameter_nm": 2,
    "tox_nm": 2,
    "kappa": 2,
    "fermi_level_ev": 3,
    "temperature_k": 1,
    "transmission": 3,
}


def quantize_sample(sample: Mapping,
                    decimals: Optional[Mapping[str, int]] = None
                    ) -> Tuple:
    """Hashable quantised device key of a sample (knob order preserved).

    A continuous ``diameter_nm`` is resolved to its discrete
    semiconducting tube — that mapping is *exact*, not an
    approximation: the physics (band structure and capacitances) only
    ever sees the chirality-derived diameter, so two samples snapping to
    the same tube are the same device.  The analog knobs are rounded to
    ``decimals`` places; at the defaults the induced metric shift stays
    below the compact model's own fitting error.
    """
    decimals = QUANTIZE_DECIMALS if decimals is None else decimals
    key = []
    for name, value in sample.items():
        if isinstance(value, tuple):
            key.append((name, tuple(int(x) for x in value)))
        elif name == "diameter_nm" and "chirality" not in sample:
            from repro.physics.bandstructure import Chirality

            ch = Chirality.from_diameter(float(value))
            key.append(("chirality", (ch.n, ch.m)))
        elif name == "diameter_nm":
            continue  # chirality overrides diameter entirely
        else:
            nd = decimals.get(name)
            v = float(value)
            key.append((name, round(v, nd) if nd is not None else v))
    return tuple(key)


# ----------------------------------------------------------------------
# Device-metric evaluator (the batch-path workload)
# ----------------------------------------------------------------------

#: Metric extractors available on the device workload.
DEVICE_METRICS = ("ion", "ioff", "vth", "gm", "ion_ioff_ratio")


class DeviceMetricsEvaluator:
    """Ion / Ioff / Vth / gm over sampled devices, batched per distinct
    quantised device.

    Per distinct device a single :meth:`CNFET.ids_batch` call covers the
    whole VG transfer grid (which yields Ion, Ioff and the
    constant-current Vth) plus the two central-difference points for gm
    — one ``solve_many`` pass instead of ~``grid+4`` scalar solves per
    sample.
    """

    def __init__(self, space: ParameterSpace,
                 metrics: Sequence[str] = ("ion", "ioff", "vth", "gm"),
                 vdd: float = 0.6,
                 model: str = "model2",
                 vth_points: int = 25,
                 icrit_a: float = 1e-6,
                 gm_delta: float = 1e-3,
                 quantize: Optional[Mapping[str, int]] = None,
                 spec_limits: Optional[Mapping[str, Tuple]] = None) -> None:
        unknown = [m for m in metrics if m not in DEVICE_METRICS]
        if unknown:
            raise ParameterError(
                f"unknown device metrics {unknown}; expected a subset of "
                f"{DEVICE_METRICS}"
            )
        if vth_points < 3:
            raise ParameterError(f"vth_points must be >= 3: {vth_points}")
        self.space = space
        self.metrics = tuple(metrics)
        self.vdd = float(vdd)
        self.model = model
        self.vth_points = int(vth_points)
        self.icrit_a = float(icrit_a)
        self.gm_delta = float(gm_delta)
        self.quantize = dict(quantize) if quantize is not None else None
        self.spec_limits = dict(spec_limits) if spec_limits else None
        #: metric memo per quantised key, shared across chunks
        self._memo: Dict[Tuple, Dict[str, float]] = {}

    # -- identity ------------------------------------------------------

    def describe(self) -> Dict:
        """JSON-able evaluator fingerprint (campaign manifests)."""
        return {
            "kind": "device-metrics",
            "metrics": list(self.metrics),
            "vdd": self.vdd,
            "model": self.model,
            "vth_points": self.vth_points,
            "icrit_a": self.icrit_a,
            "gm_delta": self.gm_delta,
            "quantize": self.quantize,
            "spec_limits": {k: list(v) for k, v in self.spec_limits.items()}
            if self.spec_limits else None,
        }

    # -- evaluation ----------------------------------------------------

    def _device_metrics(self, key: Tuple) -> Dict[str, float]:
        from repro.pwl.device import CNFET

        params = self.space.to_parameters(dict(key))
        device = CNFET(params, model=self.model)
        vdd = self.vdd
        vg_grid = np.linspace(0.0, vdd, self.vth_points)
        delta = self.gm_delta
        bias_vg = np.concatenate([vg_grid, [vdd - delta, vdd + delta]])
        ids = np.asarray(device.ids_batch(bias_vg, vdd))
        grid_ids = ids[:self.vth_points]
        out = {
            "ion": float(grid_ids[-1]),
            "ioff": float(grid_ids[0]),
            "gm": float((ids[-1] - ids[-2]) / (2.0 * delta)),
            "vth": _constant_current_vth(vg_grid, grid_ids, self.icrit_a),
        }
        out["ion_ioff_ratio"] = (
            out["ion"] / out["ioff"] if out["ioff"] > 0.0 else math.nan
        )
        return {m: out[m] for m in self.metrics}

    def evaluate(self, samples: Sequence[Mapping]) -> List[Dict[str, float]]:
        """Metrics per sample; distinct quantised devices computed once
        (the memo persists across chunks of the same campaign)."""
        keys = [quantize_sample(s, self.quantize) for s in samples]
        memo = self._memo
        for key in keys:
            if key not in memo:
                memo[key] = self._device_metrics(key)
        return [dict(memo[key]) for key in keys]

    def evaluate_naive(self, samples: Sequence[Mapping],
                       use_fit_cache: bool = False
                       ) -> List[Dict[str, float]]:
        """Reference implementation: per-sample scalar loop, no grouping.

        This is the seed-style baseline the acceptance benchmark
        compares against — each sample builds its own device object
        (which refits the charge curve, as construction always did
        before the fit cache existed) and walks the same bias points
        through scalar ``ids`` calls.  Pass ``use_fit_cache=True`` to
        isolate the batch-vs-scalar evaluation difference instead.
        """
        from repro.pwl.device import CNFET

        out = []
        vdd = self.vdd
        vg_grid = np.linspace(0.0, vdd, self.vth_points)
        for sample in samples:
            params = self.space.to_parameters(sample)
            device = CNFET(params, model=self.model,
                           use_fit_cache=use_fit_cache)
            grid_ids = np.array([device.ids(vg, vdd) for vg in vg_grid])
            row = {
                "ion": float(grid_ids[-1]),
                "ioff": float(grid_ids[0]),
                "gm": device.gm(vdd, vdd, delta=self.gm_delta),
                "vth": _constant_current_vth(vg_grid, grid_ids,
                                             self.icrit_a),
            }
            row["ion_ioff_ratio"] = (
                row["ion"] / row["ioff"] if row["ioff"] > 0.0 else math.nan
            )
            out.append({m: row[m] for m in self.metrics})
        return out


def _constant_current_vth(vg: np.ndarray, ids: np.ndarray,
                          icrit: float) -> float:
    """Gate voltage where IDS crosses ``icrit`` (log-interpolated).

    NaN when the sweep never crosses (device on at VG=0 or never on) —
    those runs show up as yield losses rather than fake numbers.
    """
    ids = np.maximum(np.asarray(ids, dtype=float), 1e-30)
    if ids[0] >= icrit or ids[-1] < icrit:
        return math.nan
    k = int(np.argmax(ids >= icrit))
    y0, y1 = math.log10(ids[k - 1]), math.log10(ids[k])
    x0, x1 = float(vg[k - 1]), float(vg[k])
    if y1 == y0:
        return x1
    return x0 + (math.log10(icrit) - y0) * (x1 - x0) / (y1 - y0)


# ----------------------------------------------------------------------
# Campaign engine
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignConfig:
    """Run-table shape: how many samples, which stream, which chunking."""

    name: str = "campaign"
    n_samples: int = 256
    seed: int = 0
    sampler: str = "mc"
    chunk_size: int = 256

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ParameterError(
                f"n_samples must be >= 1: {self.n_samples}"
            )
        if self.chunk_size < 1:
            raise ParameterError(
                f"chunk_size must be >= 1: {self.chunk_size}"
            )
        if self.sampler not in SAMPLERS:
            raise ParameterError(
                f"unknown sampler {self.sampler!r}; expected one of "
                f"{SAMPLERS}"
            )

    def describe(self) -> Dict:
        """JSON-able config fingerprint (campaign manifests)."""
        return {"name": self.name, "n_samples": self.n_samples,
                "seed": self.seed, "sampler": self.sampler,
                "chunk_size": self.chunk_size}


@dataclass
class CampaignResult:
    """All per-run records plus the aggregate table."""

    config: CampaignConfig
    records: List[Dict]
    aggregate: Dict[str, Dict[str, float]]
    resumed_chunks: int = 0
    computed_chunks: int = 0
    run_dir: Optional[str] = None
    #: corrupt/truncated record files moved to ``quarantine/`` and
    #: recomputed during this run
    quarantined: int = 0

    @property
    def metric_names(self) -> List[str]:
        """Aggregated metric names, in evaluator order."""
        return list(self.aggregate)

    def values(self, metric: str) -> np.ndarray:
        """Per-run values of one metric (NaN where a run failed)."""
        return np.array([rec["metrics"].get(metric, math.nan)
                         for rec in self.records], dtype=float)

    def render(self, histograms: bool = False) -> str:
        """ASCII summary table (plus optional per-metric histograms)."""
        headers = ["metric", "n", "mean", "std", "cv", "min", "p5",
                   "p50", "p95", "max"]
        has_yield = any("yield" in s for s in self.aggregate.values())
        if has_yield:
            headers.append("yield")
        rows = []
        for name, s in self.aggregate.items():
            row = [name, s["n"], s["mean"], s["std"], s["cv"], s["min"],
                   s["p5"], s["p50"], s["p95"], s["max"]]
            if has_yield:
                row.append(f"{100 * s['yield']:.1f}%"
                           if "yield" in s else "-")
            rows.append(row)
        title = (f"{self.config.name}: {self.config.n_samples} samples, "
                 f"sampler={self.config.sampler}, seed={self.config.seed}")
        text = ascii_table(headers, rows, title=title)
        if histograms:
            blocks = [text]
            for name in self.aggregate:
                blocks.append(histogram_ascii(
                    self.values(name), title=f"{name} distribution"))
            text = "\n\n".join(blocks)
        return text

    def to_json_dict(self) -> Dict:
        """JSON payload: config, aggregate, per-run records."""
        return {
            "config": self.config.describe(),
            "aggregate": self.aggregate,
            "records": self.records,
            "resumed_chunks": self.resumed_chunks,
            "computed_chunks": self.computed_chunks,
            "run_dir": self.run_dir,
            "quarantined": self.quarantined,
        }


class Campaign:
    """Chunked, resumable execution of *sampler x evaluator*."""

    def __init__(self, config: CampaignConfig, space: ParameterSpace,
                 evaluator, run_dir: Optional[os.PathLike] = None) -> None:
        self.config = config
        self.space = space
        self.evaluator = evaluator
        self.run_dir = Path(run_dir) if run_dir is not None else None

    # -- identity ------------------------------------------------------

    def manifest(self) -> Dict:
        """Config + space + evaluator description (what is run)."""
        return {
            "config": self.config.describe(),
            "space": self.space.describe(),
            "evaluator": self.evaluator.describe(),
        }

    def fingerprint(self) -> str:
        """SHA-256 of the canonical manifest (resume safety check).

        Delegates to :func:`repro.service.fingerprint
        .manifest_fingerprint` — the same canonicalisation the job
        service uses for cache keys, and byte-identical to the
        historical inline ``sha256(json.dumps(..., sort_keys=True))``,
        so existing run directories stay resumable.
        """
        from repro.service.fingerprint import manifest_fingerprint

        return manifest_fingerprint(self.manifest())

    # -- execution -----------------------------------------------------

    def _chunks(self, samples: List[Dict]) -> List[List[Dict]]:
        size = self.config.chunk_size
        return [samples[i:i + size] for i in range(0, len(samples), size)]

    def run(self, resume: bool = True, progress=None,
            workers: "int | str | None" = 1,
            cancel: Optional[CancelToken] = None) -> CampaignResult:
        """Execute (or finish) the campaign and aggregate the run table.

        ``progress`` is an optional callable ``(done_chunks,
        total_chunks)`` invoked after every chunk.

        ``workers`` shards the *pending* chunks over forked processes
        (``None`` / ``0`` / ``"auto"`` resolve through
        :func:`repro.parallel.resolve_workers`: the ``REPRO_WORKERS``
        environment variable, else every core).  Chunk files are
        written by the parent only, in chunk order, so resumable run
        directories behave identically to the serial path.  The one
        behavioural difference: evaluator memo entries do not flow
        between workers, so cross-chunk sample deduplication happens
        per worker instead of globally — same results, possibly some
        repeated work.

        On resume, corrupt or truncated chunk files are moved to
        ``chunks/quarantine/`` and recomputed (count on
        ``CampaignResult.quarantined``).  A ``cancel`` token is checked
        once per serially evaluated chunk.
        """
        from repro.parallel import fork_map, resolve_workers

        cfg = self.config
        samples = sample_space(self.space, cfg.n_samples, cfg.seed,
                               method=cfg.sampler)
        chunks = self._chunks(samples)
        chunk_dir = None
        resumed = computed = quarantined = 0
        if self.run_dir is not None:
            chunk_dir = self.run_dir / "chunks"
            chunk_dir.mkdir(parents=True, exist_ok=True)
            quarantined += self._check_manifest(resume)

        loaded: Dict[int, List[Dict]] = {}
        for index, chunk in enumerate(chunks):
            path = (chunk_dir / f"chunk_{index:04d}.json"
                    if chunk_dir is not None else None)
            if path is not None and resume and path.exists():
                records = self._load_chunk(path, index, chunk)
                if records is not None:
                    loaded[index] = records
                elif persist.quarantine(path):
                    quarantined += 1
                    _log.warning(
                        "campaign resume: quarantined corrupt chunk "
                        "file %s; recomputing", path)
        pending = [i for i in range(len(chunks)) if i not in loaded]
        if resolve_workers(workers) > 1 and len(pending) > 1:
            metric_lists = fork_map(
                self.evaluator.evaluate,
                [chunks[i] for i in pending], workers)
        else:
            metric_lists = []
            for i in pending:
                if cancel is not None:
                    cancel.check()
                metric_lists.append(self.evaluator.evaluate(chunks[i]))

        all_records: List[Dict] = []
        done = 0
        computed_metrics = dict(zip(pending, metric_lists))
        for index, chunk in enumerate(chunks):
            if index in loaded:
                records = loaded[index]
                resumed += 1
            else:
                metrics = computed_metrics[index]
                start = index * cfg.chunk_size
                records = [
                    {"index": start + i,
                     "params": _jsonable_sample(chunk[i]),
                     "metrics": metrics[i]}
                    for i in range(len(chunk))
                ]
                computed += 1
                if chunk_dir is not None:
                    persist.write_json(
                        chunk_dir / f"chunk_{index:04d}.json",
                        {"chunk": index, "records": records})
            all_records.extend(records)
            done += 1
            if progress is not None:
                progress(done, len(chunks))

        aggregate = aggregate_metrics(
            all_records, getattr(self.evaluator, "spec_limits", None))
        if self.run_dir is not None:
            persist.write_json(self.run_dir / "aggregate.json", {
                "fingerprint": self.fingerprint(),
                "aggregate": aggregate,
            })
            self._write_run_table(all_records)
        return CampaignResult(
            config=cfg, records=all_records, aggregate=aggregate,
            resumed_chunks=resumed, computed_chunks=computed,
            run_dir=str(self.run_dir) if self.run_dir else None,
            quarantined=quarantined,
        )

    # -- persistence ---------------------------------------------------

    def _check_manifest(self, resume: bool) -> int:
        """Verify (or write) the manifest; a corrupt one quarantines
        itself and every chunk file into sibling ``quarantine/``
        directories (:func:`repro.persist.check_manifest`)."""
        path = self.run_dir / "manifest.json"
        files = [path] + sorted(
            (self.run_dir / "chunks").glob("chunk_*.json"))
        return persist.check_manifest(
            path, {"fingerprint": self.fingerprint(), **self.manifest()},
            resume, [(f, f.parent / "quarantine" / f.name) for f in files])

    def _load_chunk(self, path: Path, index: int,
                    chunk: List[Dict]) -> Optional[List[Dict]]:
        """Records of a persisted chunk; ``None`` for a corrupt/partial
        file (it is then recomputed and rewritten)."""
        payload = persist.read_json(path) or {}
        records = payload.get("records", ())
        if payload.get("chunk") != index or len(records) != len(chunk):
            return None
        return records

    def _write_run_table(self, records: List[Dict]) -> None:
        knobs = list(records[0]["params"]) if records else []
        metrics = list(records[0]["metrics"]) if records else []
        lines = [",".join(["run"] + knobs + metrics)]
        for rec in records:
            cells = [str(rec["index"])]
            for name in knobs:
                value = rec["params"][name]
                if isinstance(value, list):
                    cells.append("(" + ";".join(str(v) for v in value) + ")")
                else:
                    cells.append(f"{value:.6g}")
            for name in metrics:
                cells.append(f"{rec['metrics'][name]:.8g}")
            lines.append(",".join(cells))
        persist.write_text(self.run_dir / "run_table.csv",
                           "\n".join(lines) + "\n")


def _jsonable_sample(sample: Mapping) -> Dict:
    return {name: (list(v) if isinstance(v, tuple) else v)
            for name, v in sample.items()}
