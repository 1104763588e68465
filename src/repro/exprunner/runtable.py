"""``run_table.csv`` IO: the documented flat view of an experiment.

One row per run, fixed columns first, then one column per factor, then
one per metric.  Values are written with ``repr`` (shortest
round-tripping form) so regenerating the table from the same records
is byte-identical — the CI smoke diff depends on this.

Column dictionary (:data:`RUN_TABLE_COLUMNS`; also reproduced in
``docs/experiments.md``):

``run_id``
    Stable plan id (``r0000``...), repetition-major plan order.
``cell``
    Cell index in the factor matrix (same for all repetitions).
``repetition``
    0-based timing repetition of the cell.
``seed``
    Per-cell derived seed the workload ran under.
``status``
    ``ok`` or ``error`` (error rows keep NaN measurements and record
    the message in their raw ``record.json``).
``wall_s``
    Wall-clock seconds of the run's timed region (the engine call,
    excluding setup such as circuit construction or DC warm-up).
``newton_iterations``
    Newton iterations reported by the engine; NaN where the workload
    has no iteration counter (e.g. characterization tables).
``peak_rss_kib``
    ``ru_maxrss`` of the executing process at run end [KiB].  Peak RSS
    is monotone within a process: exact per-run when runs execute in
    fresh forked workers, an upper bound when runs share one process.
``parity``
    Max deviation of this run's signature vs the designated baseline
    cell, same repetition (abs: max |delta|; rel: max |delta|/|ref|).
    0 for the baseline cell itself; empty when no baseline is declared.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence

from repro import persist

__all__ = ["RUN_TABLE_COLUMNS", "write_run_table", "read_run_table"]

#: Fixed columns, in order, with their documented meaning.
RUN_TABLE_COLUMNS: Dict[str, str] = {
    "run_id": "stable plan id, repetition-major order",
    "cell": "cell index in the factor matrix",
    "repetition": "0-based timing repetition of the cell",
    "seed": "per-cell derived seed",
    "status": "ok | error",
    "wall_s": "wall-clock seconds of the timed engine region",
    "newton_iterations": "engine Newton iterations (NaN if unreported)",
    "peak_rss_kib": "ru_maxrss of the executing process at run end",
    "parity": "signature deviation vs the baseline cell (same rep)",
}


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_run_table(path, records: Sequence[Dict],
                    factor_names: Sequence[str]) -> None:
    """Write ``run_table.csv`` for ``records`` (executor record dicts).

    Columns: :data:`RUN_TABLE_COLUMNS` order, then one per factor in
    declaration order, then one per metric (union over records, first
    appearance order).  Deterministic for identical records.
    """
    metric_names: List[str] = []
    for rec in records:
        for name in rec.get("metrics") or {}:
            if name not in metric_names:
                metric_names.append(name)
    header = (list(RUN_TABLE_COLUMNS) + list(factor_names)
              + metric_names)
    lines = [",".join(header)]
    for rec in records:
        row = [_format(rec.get(column)) for column in RUN_TABLE_COLUMNS]
        point = rec.get("point") or {}
        row += [_format(point.get(name)) for name in factor_names]
        metrics = rec.get("metrics") or {}
        row += [_format(metrics.get(name)) for name in metric_names]
        lines.append(",".join(row))
    persist.write_text(path, "\n".join(lines) + "\n")


def read_run_table(path) -> List[Dict[str, str]]:
    """Read ``run_table.csv`` back as a list of string-valued dicts.

    Values stay strings (the writer's ``repr`` forms); callers that
    need numbers convert the columns they use.  Analysis scripts and
    tests use this to regenerate tables without re-running anything.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(",")))
            for line in lines[1:] if line]
