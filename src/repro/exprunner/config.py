"""Experiment configuration: factors x levels, repetitions, baseline.

A :class:`RunnerConfig` is the declarative description of one
experiment; an :class:`ExperimentSuite` groups several that ship as one
config file (e.g. the three sub-experiments that together regenerate
the ``batch_transient`` BENCH section).  Both round-trip through JSON
— the committed files live under ``benchmarks/configs/`` — and both
fingerprint through the same canonicalisation the campaign engine and
the job service use, so a run directory refuses to resume under an
edited config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ParameterError

__all__ = ["RunnerConfig", "ExperimentSuite", "load_config", "Level"]

#: A factor level: any JSON scalar.
Level = Union[str, int, float, bool]

_SCALARS = (str, int, float, bool)


def _check_level(factor: str, level: Any) -> Level:
    if not isinstance(level, _SCALARS):
        raise ParameterError(
            f"factor {factor!r}: levels must be JSON scalars "
            f"(str/int/float/bool), got {level!r}")
    return level


@dataclass(frozen=True)
class RunnerConfig:
    """One experiment: workload, factors x levels, repetitions, baseline.

    Parameters
    ----------
    name : str
        Experiment name; names the run directory and report section.
    workload : str
        Key into :data:`repro.exprunner.workloads.WORKLOADS`; decides
        which engine entry point a run executes and which factor names
        it understands.
    factors : mapping
        Ordered ``factor -> sequence of levels``.  Declaration order is
        the cell-expansion order of the plan (first factor outermost).
    repetitions : int
        Timing repetitions per cell.  Reports aggregate wall times as
        min-of-repetitions (best-of-N) and metrics as medians.
    baseline : mapping, optional
        ``factor -> level`` overrides naming the baseline cell of each
        run's parity comparison (e.g. ``{"engine": "sequential"}``).
        Keys must be declared factors, values declared levels.  Without
        a baseline no parity column is computed.
    params : mapping, optional
        Fixed workload parameters (grid sizes, tolerances, sample
        seeds) forwarded to the workload for every run.
    seed : int
        Base seed; per-cell seeds derive deterministically from it and
        the cell's factor levels (repetitions of a cell share a seed,
        so repeated runs are byte-identical recomputations).
    """

    name: str
    workload: str
    factors: Tuple[Tuple[str, Tuple[Level, ...]], ...]
    repetitions: int = 3
    baseline: Optional[Tuple[Tuple[str, Level], ...]] = None
    params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ParameterError(
                f"experiment name must be a nonempty path-safe string: "
                f"{self.name!r}")
        if not self.factors:
            raise ParameterError(
                f"experiment {self.name!r} declares no factors")
        if self.repetitions < 1:
            raise ParameterError(
                f"repetitions must be >= 1: {self.repetitions}")
        seen = set()
        for factor, levels in self.factors:
            if factor in seen:
                raise ParameterError(
                    f"duplicate factor {factor!r} in {self.name!r}")
            seen.add(factor)
            if not levels:
                raise ParameterError(
                    f"factor {factor!r} has no levels")
            for level in levels:
                _check_level(factor, level)
        if self.baseline is not None:
            declared = dict(self.factors)
            for factor, level in self.baseline:
                if factor not in declared:
                    raise ParameterError(
                        f"baseline names unknown factor {factor!r}; "
                        f"declared factors: {sorted(declared)}")
                if level not in declared[factor]:
                    raise ParameterError(
                        f"baseline level {level!r} is not a declared "
                        f"level of factor {factor!r}: "
                        f"{list(declared[factor])}")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunnerConfig":
        """Build a config from a JSON-style dict (see docs/experiments.md).

        Factor order follows the dict's insertion order, which
        ``json.load`` preserves — the config file's textual order is
        the plan's cell order.
        """
        if not isinstance(payload, Mapping):
            raise ParameterError(
                f"experiment config must be an object: {payload!r}")
        known = {"name", "workload", "factors", "repetitions",
                 "baseline", "params", "seed"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ParameterError(
                f"unknown experiment config keys {unknown}; expected a "
                f"subset of {sorted(known)}")
        for key in ("name", "workload", "factors"):
            if key not in payload:
                raise ParameterError(
                    f"experiment config is missing required key "
                    f"{key!r}")
        factors = payload["factors"]
        if not isinstance(factors, Mapping):
            raise ParameterError(
                f"factors must be an object of factor -> level list: "
                f"{factors!r}")
        factor_items = []
        for factor, levels in factors.items():
            if isinstance(levels, _SCALARS):
                levels = [levels]
            factor_items.append((str(factor), tuple(levels)))
        baseline = payload.get("baseline")
        if baseline is not None:
            if not isinstance(baseline, Mapping):
                raise ParameterError(
                    f"baseline must be an object of factor -> level: "
                    f"{baseline!r}")
            baseline = tuple((str(k), v) for k, v in baseline.items())
        params = payload.get("params") or {}
        if not isinstance(params, Mapping):
            raise ParameterError(
                f"params must be an object: {params!r}")
        return cls(
            name=str(payload["name"]),
            workload=str(payload["workload"]),
            factors=tuple(factor_items),
            repetitions=int(payload.get("repetitions", 3)),
            baseline=baseline,
            params=tuple(sorted(params.items())),
            seed=int(payload.get("seed", 0)),
        )

    # -- identity ------------------------------------------------------

    @property
    def factor_names(self) -> List[str]:
        """Declared factor names, in declaration (expansion) order."""
        return [name for name, _levels in self.factors]

    @property
    def params_dict(self) -> Dict[str, Any]:
        """Fixed workload parameters as a plain dict."""
        return dict(self.params)

    @property
    def baseline_dict(self) -> Optional[Dict[str, Level]]:
        """Baseline overrides as a dict, or ``None``."""
        return dict(self.baseline) if self.baseline is not None else None

    def describe(self) -> Dict:
        """JSON-able manifest of the experiment (fingerprint input)."""
        return {
            "name": self.name,
            "workload": self.workload,
            "factors": {name: list(levels)
                        for name, levels in self.factors},
            "repetitions": self.repetitions,
            "baseline": self.baseline_dict,
            "params": self.params_dict,
            "seed": self.seed,
        }

    def fingerprint(self) -> str:
        """SHA-256 of the canonical manifest (resume safety check).

        Same canonicalisation as ``Campaign.fingerprint`` and the job
        service cache keys
        (:func:`repro.service.fingerprint.manifest_fingerprint`).
        """
        from repro.service.fingerprint import manifest_fingerprint

        return manifest_fingerprint(self.describe())

    def with_factor(self, name: str,
                    levels: Sequence[Level]) -> "RunnerConfig":
        """Copy of this config with one factor's levels replaced.

        Used by drivers that must prune unavailable levels (e.g. the
        ``compiled`` kernel tier on a machine without a C compiler)
        before executing a committed config.
        """
        if name not in self.factor_names:
            raise ParameterError(
                f"cannot restrict unknown factor {name!r}; declared "
                f"factors: {self.factor_names}")
        factors = tuple(
            (fname, tuple(levels) if fname == name else flevels)
            for fname, flevels in self.factors)
        baseline = self.baseline
        if baseline is not None:
            baseline = tuple((f, lv) for f, lv in baseline
                             if f != name or lv in levels) or None
        return RunnerConfig(
            name=self.name, workload=self.workload, factors=factors,
            repetitions=self.repetitions, baseline=baseline,
            params=self.params, seed=self.seed)


@dataclass(frozen=True)
class ExperimentSuite:
    """A named group of experiments shipped as one config file.

    Each experiment keeps its own run directory
    (``<run_dir>/<experiment name>/``) and its own run table; the
    suite exists so a BENCH section that needs several matrices (e.g.
    timing grids plus a parity experiment) is still one reviewable,
    committed config file.
    """

    name: str
    experiments: Tuple[RunnerConfig, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.experiments:
            raise ParameterError(
                f"suite {self.name!r} declares no experiments")
        names = [e.name for e in self.experiments]
        if len(set(names)) != len(names):
            raise ParameterError(
                f"suite {self.name!r} has duplicate experiment names: "
                f"{names}")

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExperimentSuite":
        """Build a suite from ``{"name": ..., "experiments": [...]}``."""
        if "experiments" not in payload:
            raise ParameterError(
                f"suite config needs an 'experiments' list: "
                f"{sorted(payload)}")
        experiments = tuple(RunnerConfig.from_dict(e)
                            for e in payload["experiments"])
        return cls(name=str(payload.get("name", "suite")),
                   experiments=experiments)

    def describe(self) -> Dict:
        """JSON-able manifest of the whole suite."""
        return {"name": self.name,
                "experiments": [e.describe() for e in self.experiments]}

    def __iter__(self):
        """Iterate over the member experiment configs."""
        return iter(self.experiments)


def load_config(path) -> ExperimentSuite:
    """Load a config file into a suite (single experiments wrap into a
    one-member suite, so callers handle one shape).

    The file holds either one experiment object or
    ``{"name": ..., "experiments": [...]}``.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(
            f"unreadable experiment config {path}: {exc}") from exc
    if isinstance(payload, Mapping) and "experiments" in payload:
        return ExperimentSuite.from_dict(payload)
    config = RunnerConfig.from_dict(payload)
    return ExperimentSuite(name=config.name, experiments=(config,))
