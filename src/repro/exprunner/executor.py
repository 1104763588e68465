"""Experiment execution: resumable run directories + sharding.

The executor walks the expanded plan, runs each pending
:class:`~repro.exprunner.plan.RunSpec` through its workload, and
persists one raw directory per run:

``run_dir/``
    ``manifest.json``          config + fingerprint (resume guard)
    ``runs/r0007/record.json`` one raw record per run (atomic write)
    ``run_table.csv``          flat documented view (rewritten whole)
    ``report.json``            rendered report (``--report``)

Resume semantics match :class:`repro.variability.campaign.Campaign`:
re-running against an existing directory verifies the manifest
fingerprint (an edited config refuses to mix), loads every valid
``record.json``, and computes only the missing runs — deleting half
the raw dirs and re-running completes exactly the other half.
``max_runs`` bounds how many pending runs one invocation executes,
which is also how the CI smoke simulates an interrupt.

Pending runs shard over forked worker processes through
:func:`repro.parallel.fork_map`; records come back to the parent,
which does all writing (atomic temp-file + rename), so an interrupted
run never leaves a partial ``record.json`` behind.  Should a partial
or corrupt record land on disk anyway (power loss mid-rename, a full
filesystem), resume moves it to ``runs/quarantine/`` and recomputes
that run instead of crashing — see ``docs/robustness.md``.
"""

from __future__ import annotations

import logging
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import persist
from repro.errors import ParameterError
from repro.exprunner.config import RunnerConfig
from repro.exprunner.plan import RunSpec, baseline_index, expand_plan
from repro.exprunner.runtable import write_run_table
from repro.exprunner.workloads import WORKLOADS

__all__ = ["ExperimentRunner", "ExperimentResult", "peak_rss_kib"]

_log = logging.getLogger("repro.exprunner.executor")


def peak_rss_kib() -> float:
    """Peak resident set size of this process so far [KiB].

    ``ru_maxrss`` is monotone within a process: per-run values are
    exact when runs execute in fresh forked workers and an upper bound
    when runs share one process (documented in the run-table column
    dictionary).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return float("nan")
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@dataclass
class ExperimentResult:
    """Executed (or partially executed) experiment: records + plan."""

    config: RunnerConfig
    records: List[Dict]
    resumed: int = 0
    computed: int = 0
    pending: int = 0
    run_dir: Optional[str] = None
    #: corrupt records moved to ``runs/quarantine/`` and recomputed
    quarantined: int = 0

    @property
    def complete(self) -> bool:
        """True when every planned run has a record."""
        return self.pending == 0

    def cells(self) -> List[Dict]:
        """Per-cell aggregates (see :func:`repro.exprunner.report
        .summarize_cells`)."""
        from repro.exprunner.report import summarize_cells

        return summarize_cells(self.config, self.records)

    def cell(self, **levels) -> Dict:
        """The aggregate of the single cell matching ``levels``.

        ``levels`` must name every factor (e.g. ``cell(engine="batch")``
        for a one-factor experiment); raises ``ParameterError`` when no
        cell or more than one cell matches.
        """
        matches = [c for c in self.cells()
                   if all(c["point"].get(k) == v
                          for k, v in levels.items())]
        if len(matches) != 1:
            raise ParameterError(
                f"cell({levels}) matched {len(matches)} cells of "
                f"{self.config.name!r}")
        return matches[0]


class ExperimentRunner:
    """Executes one :class:`RunnerConfig` against a run directory."""

    def __init__(self, config: RunnerConfig,
                 run_dir: Optional[os.PathLike] = None) -> None:
        if config.workload not in WORKLOADS:
            raise ParameterError(
                f"unknown workload {config.workload!r}; registered: "
                f"{sorted(WORKLOADS)}")
        self.config = config
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self._plan: Optional[List[RunSpec]] = None

    # -- plan ----------------------------------------------------------

    def plan(self) -> List[RunSpec]:
        """The expanded run plan (cached)."""
        if self._plan is None:
            self._plan = expand_plan(self.config)
        return self._plan

    # -- execution -----------------------------------------------------

    def run(self, resume: bool = True,
            workers: "int | str | None" = 1,
            max_runs: Optional[int] = None,
            progress=None) -> ExperimentResult:
        """Execute (or finish) the experiment.

        Parameters
        ----------
        resume : bool
            Load valid existing ``record.json`` files and compute only
            the missing runs (default).  ``False`` recomputes every
            run (existing records are overwritten).
        workers : int | str | None
            Shards pending runs over forked processes through
            :func:`repro.parallel.fork_map` (``"auto"`` honours
            ``REPRO_WORKERS``); parity and table writing stay in the
            parent.
        max_runs : int, optional
            Execute at most this many pending runs, then stop and
            persist what completed — an incremental (or interrupted)
            invocation; a later ``run(resume=True)`` picks up the
            rest.
        progress : callable, optional
            ``progress(done, total)`` after every executed run batch.
        """
        from repro.parallel import fork_map, resolve_workers

        plan = self.plan()
        runs_root = None
        quarantined = 0
        if self.run_dir is not None:
            runs_root = self.run_dir / "runs"
            runs_root.mkdir(parents=True, exist_ok=True)
            quarantined += self._check_manifest(resume)

        loaded: Dict[int, Dict] = {}
        if resume and runs_root is not None:
            for spec in plan:
                record = self._load_record(runs_root, spec)
                if record is not None:
                    loaded[spec.index] = record
                elif persist.quarantine(*_record_paths(runs_root,
                                                       spec.run_id)):
                    quarantined += 1
                    _log.warning(
                        "experiment resume: quarantined corrupt record "
                        "for %s; recomputing", spec.run_id)

        pending = [spec for spec in plan if spec.index not in loaded]
        limited = pending[:max_runs] if max_runs is not None else pending
        if resolve_workers(workers) > 1 and len(limited) > 1:
            computed = fork_map(self._execute, limited, workers)
        else:
            computed = []
            for done, spec in enumerate(limited):
                computed.append(self._execute(spec))
                if progress is not None:
                    progress(done + 1, len(limited))

        for spec, record in zip(limited, computed):
            loaded[spec.index] = record
            if runs_root is not None:
                run_path = runs_root / spec.run_id
                run_path.mkdir(parents=True, exist_ok=True)
                persist.write_json(run_path / "record.json",
                                   _jsonable(record))

        records = [loaded[spec.index] for spec in plan
                   if spec.index in loaded]
        self._attach_parity(plan, loaded)
        if self.run_dir is not None and records:
            write_run_table(self.run_dir / "run_table.csv", records,
                            self.config.factor_names)
        return ExperimentResult(
            config=self.config, records=records,
            resumed=len(records) - len(limited),
            computed=len(limited),
            pending=len(plan) - len(records),
            run_dir=str(self.run_dir) if self.run_dir else None,
            quarantined=quarantined,
        )

    def load(self) -> ExperimentResult:
        """Load existing records without executing anything.

        Backs ``repro experiments --report-only``: regenerate the run
        table and report from the raw records already on disk.
        """
        if self.run_dir is None:
            raise ParameterError(
                "load() needs a run directory")
        plan = self.plan()
        runs_root = self.run_dir / "runs"
        loaded: Dict[int, Dict] = {}
        for spec in plan:
            record = self._load_record(runs_root, spec)
            if record is not None:
                loaded[spec.index] = record
        records = [loaded[spec.index] for spec in plan
                   if spec.index in loaded]
        self._attach_parity(plan, loaded)
        if records:
            write_run_table(self.run_dir / "run_table.csv", records,
                            self.config.factor_names)
        return ExperimentResult(
            config=self.config, records=records,
            resumed=len(records), computed=0,
            pending=len(plan) - len(records),
            run_dir=str(self.run_dir),
        )

    # -- internals -----------------------------------------------------

    def _execute(self, spec: RunSpec) -> Dict:
        workload = WORKLOADS[self.config.workload]
        record = {
            "run_id": spec.run_id,
            "cell": spec.cell,
            "repetition": spec.repetition,
            "seed": spec.seed,
            "point": spec.point_dict,
            "workload": self.config.workload,
            "status": "ok",
            "wall_s": float("nan"),
            "newton_iterations": float("nan"),
            "peak_rss_kib": float("nan"),
            "metrics": {},
            "signature": {},
        }
        start = time.perf_counter()
        try:
            out = workload.run(spec.point_dict,
                               self.config.params_dict, spec.seed)
        except Exception as exc:  # failure-as-data, like Campaign runs
            record["status"] = "error"
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["traceback"] = traceback.format_exc()
            record["wall_s"] = time.perf_counter() - start
        else:
            record["wall_s"] = float(out["wall_s"])
            record["newton_iterations"] = float(
                out.get("newton_iterations", float("nan")))
            record["metrics"] = {k: float(v)
                                 for k, v in out.get("metrics",
                                                     {}).items()}
            record["signature"] = out.get("signature", {})
        record["peak_rss_kib"] = peak_rss_kib()
        return record

    def _attach_parity(self, plan: List[RunSpec],
                       loaded: Dict[int, Dict]) -> None:
        """Fill each loaded record's ``parity`` vs its baseline run.

        Parity is derived data (it needs the baseline cell's record),
        so it lives in the run table and report, not in the raw
        ``record.json`` written at execution time.
        """
        workload = WORKLOADS[self.config.workload]
        for spec in plan:
            record = loaded.get(spec.index)
            if record is None:
                continue
            base = baseline_index(plan, self.config, spec)
            if base is None:
                record["parity"] = (
                    0.0 if self.config.baseline is not None
                    and record["status"] == "ok" else None)
                continue
            base_record = loaded.get(base)
            if (base_record is None or record["status"] != "ok"
                    or base_record["status"] != "ok"):
                record["parity"] = float("nan")
                continue
            record["parity"] = _signature_deviation(
                record["signature"], base_record["signature"],
                workload.parity)

    def _check_manifest(self, resume: bool) -> int:
        """Verify (or write) the manifest; a corrupt one quarantines
        itself and every record to ``runs/quarantine/`` — see
        :func:`repro.persist.check_manifest`."""
        path = self.run_dir / "manifest.json"
        runs_root = self.run_dir / "runs"
        return persist.check_manifest(
            path, {"fingerprint": self.config.fingerprint(),
                   "config": self.config.describe()},
            resume, [(path, runs_root / "quarantine" / "manifest.json")]
            + [_record_paths(runs_root, spec.run_id)
               for spec in self.plan()])

    def _load_record(self, runs_root: Path,
                     spec: RunSpec) -> Optional[Dict]:
        """A persisted record, or ``None`` when missing/corrupt/stale
        (it is then recomputed and rewritten)."""
        record = persist.read_json(_record_paths(runs_root,
                                                 spec.run_id)[0])
        if (record is None or record.get("run_id") != spec.run_id
                or record.get("point") != spec.point_dict
                or record.get("repetition") != spec.repetition):
            return None
        for key in ("wall_s", "newton_iterations", "peak_rss_kib"):
            record[key] = _parse_float(record.get(key))
        record["metrics"] = {k: _parse_float(v) for k, v in
                             (record.get("metrics") or {}).items()}
        return record


def _signature_deviation(sig: Dict, ref: Dict, mode: str) -> float:
    """Max deviation between two signatures (abs or rel mode).

    Signatures with different trace names or lengths compare as
    ``inf`` — a structural mismatch is a real parity failure, not a
    number to smooth over.
    """
    import numpy as np

    if set(sig) != set(ref):
        return float("inf")
    worst = 0.0
    for name, values in sig.items():
        a = np.asarray(values, dtype=float)
        b = np.asarray(ref[name], dtype=float)
        if a.shape != b.shape:
            return float("inf")
        if a.size == 0:
            continue
        both = np.isfinite(a) & np.isfinite(b)
        if not both.all():
            # A NaN on one side only is a mismatch; shared NaNs agree.
            if not (np.isfinite(a) == np.isfinite(b)).all():
                return float("inf")
        if not both.any():
            continue
        delta = np.abs(a[both] - b[both])
        if mode == "rel":
            scale = np.maximum(np.abs(b[both]), 1e-300)
            delta = delta / scale
        worst = max(worst, float(delta.max()) if delta.size else 0.0)
    return worst


def _record_paths(runs_root: Path, run_id: str) -> Tuple[Path, Path]:
    """A run's ``record.json`` and its quarantine destination,
    ``runs/quarantine/<run_id>.record.json``."""
    return (runs_root / run_id / "record.json",
            runs_root / "quarantine" / f"{run_id}.record.json")


def _parse_float(value) -> float:
    """Inverse of :func:`_jsonable` for scalar measurements: loaded
    records carry ``"nan"``/``"inf"`` strings where the live ones had
    non-finite floats."""
    if value is None:
        return float("nan")
    try:
        return float(value)
    except (TypeError, ValueError):
        return float("nan")


def _jsonable(obj):
    """NaN/inf-safe copy: non-finite floats become strings so the raw
    records stay strict RFC 8259 JSON (and round-trip through
    ``_load_record`` via :func:`_parse_float`)."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj
