"""One runner per paper experiment (Tables I-V, Figures 2-11).

Each ``run_*`` function measures/evaluates everything an experiment
needs and returns a small result object with the raw arrays plus a
``render()`` method producing the paper-style ASCII table.  The
``benchmarks/`` tree wraps these with pytest-benchmark so `pytest
benchmarks/ --benchmark-only` regenerates the whole evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments import metrics
from repro.experiments.experimental_data import (
    ExperimentalDataset,
    generate_experimental_data,
)
from repro.experiments.report import ascii_table, series_block
from repro.experiments.workloads import (
    FIG1011_VDS_SWEEP,
    FIG1011_VG_VALUES,
    FIG2_VSC_AXIS,
    FIG3_VSC_AXIS,
    FIG45_VDS,
    FIG67_VG_VALUES,
    FIG8_CONDITIONS,
    FIG9_CONDITIONS,
    PAPER_TEMPERATURES,
    PAPER_VDS_SWEEP,
    PAPER_VG_VALUES,
    TABLE1_LOOPS,
    TABLE5_VG_VALUES,
    default_device_parameters,
    javey_device_parameters,
)
from repro.pwl.device import CNFET
from repro.reference.fettoy import FETToyModel, FETToyParameters

# ----------------------------------------------------------------------
# Shared device construction (fit once per configuration, cached)
# ----------------------------------------------------------------------

_DEVICE_CACHE: Dict[Tuple, Tuple[FETToyModel, CNFET, CNFET]] = {}


def build_models(params: FETToyParameters
                 ) -> Tuple[FETToyModel, CNFET, CNFET]:
    """``(reference, model1_device, model2_device)`` for a configuration.

    Boundary optimisation is on (the paper's numerically-optimised
    boundaries); results are cached because the error tables revisit the
    same nine (T, EF) combinations.
    """
    key = (
        params.diameter_nm, params.tox_nm, params.kappa,
        params.temperature_k, params.fermi_level_ev, params.alpha_g,
        params.alpha_d, params.gate_geometry, params.n_subbands,
        params.transmission, params.chirality,
    )
    cached = _DEVICE_CACHE.get(key)
    if cached is None:
        reference = FETToyModel(params)
        model1 = CNFET(params, model="model1")
        model2 = CNFET(params, model="model2")
        cached = (reference, model1, model2)
        _DEVICE_CACHE[key] = cached
    return cached


# ----------------------------------------------------------------------
# Table I — CPU time comparison
# ----------------------------------------------------------------------

@dataclass
class Table1Result:
    """Wall-clock seconds per loop count (paper's Table I layout)."""

    loops: Tuple[int, ...]
    fettoy_s: Tuple[float, ...]
    model1_s: Tuple[float, ...]
    model2_s: Tuple[float, ...]
    #: bias points evaluated per family invocation (throughput metric)
    points_per_family: int = 0

    @property
    def speedup_model1(self) -> float:
        return self.fettoy_s[-1] / self.model1_s[-1]

    @property
    def speedup_model2(self) -> float:
        return self.fettoy_s[-1] / self.model2_s[-1]

    def points_per_second(self, model: str = "model2") -> float:
        """Sustained bias-point throughput at the largest loop count."""
        seconds = {"fettoy": self.fettoy_s, "model1": self.model1_s,
                   "model2": self.model2_s}[model][-1]
        return self.points_per_family * self.loops[-1] / seconds

    def render(self) -> str:
        rows = [
            (n, self.fettoy_s[i], self.model1_s[i], self.model2_s[i])
            for i, n in enumerate(self.loops)
        ]
        table = ascii_table(
            ("Loops", "FETToy [s]", "Model 1 [s]", "Model 2 [s]"), rows,
            title="Table I — average CPU time (full IV family per loop)",
        )
        throughput = ""
        if self.points_per_family:
            throughput = (
                f"\nthroughput @ {self.loops[-1]} loops: "
                f"Model 1 = {self.points_per_second('model1'):,.0f} pts/s, "
                f"Model 2 = {self.points_per_second('model2'):,.0f} pts/s "
                f"(batched evaluation path)"
            )
        return (
            f"{table}\n"
            f"speed-up @ {self.loops[-1]} loops: "
            f"Model 1 = {self.speedup_model1:.0f}x, "
            f"Model 2 = {self.speedup_model2:.0f}x "
            f"(paper: ~3400x / ~1100x on a 2008 Pentium IV + MATLAB)"
            f"{throughput}"
        )


def run_table1(loops: Sequence[int] = TABLE1_LOOPS,
               vg_values: Sequence[float] = FIG67_VG_VALUES,
               vd_values: Sequence[float] = PAPER_VDS_SWEEP
               ) -> Table1Result:
    """Time full output-characteristic families, FETToy vs fast models.

    One "invocation" computes the 7 x 13 family of Figs. 6/7, mirroring
    the paper's description of invoking all models N times.
    """
    reference, model1, model2 = build_models(default_device_parameters())

    def time_model(model, n: int) -> float:
        # One untimed family first: the first call after another
        # model's block pays a cold-path penalty (~150 us, caches and
        # the ctypes entry) that would otherwise land on this block.
        model.iv_family(vg_values, vd_values)
        start = time.perf_counter()
        for _ in range(n):
            model.iv_family(vg_values, vd_values)
        return time.perf_counter() - start

    # Warm-up (JIT-free Python, but populates solver caches fairly).
    model1.iv_family(vg_values, vd_values)
    model2.iv_family(vg_values, vd_values)
    fettoy_s, model1_s, model2_s = [], [], []
    for n in loops:
        fettoy_s.append(time_model(reference, n))
        model1_s.append(time_model(model1, n))
        model2_s.append(time_model(model2, n))
    return Table1Result(tuple(loops), tuple(fettoy_s), tuple(model1_s),
                        tuple(model2_s),
                        points_per_family=len(vg_values) * len(vd_values))


# ----------------------------------------------------------------------
# Tables II-IV — RMS error grids
# ----------------------------------------------------------------------

@dataclass
class RmsTableResult:
    """Per-(T, VG) errors for both models at one Fermi level."""

    fermi_level_ev: float
    temperatures_k: Tuple[float, ...]
    vg_values: Tuple[float, ...]
    #: errors[(temperature, model_name)][i_vg] in percent
    errors: Dict[Tuple[float, str], Tuple[float, ...]] = field(
        default_factory=dict
    )

    def average(self, model_name: str) -> float:
        vals = [
            e for (t, name), errs in self.errors.items() if name == model_name
            for e in errs
        ]
        return float(np.mean(vals))

    def render(self) -> str:
        headers = ["VG [V]"]
        for t in self.temperatures_k:
            headers += [f"M1@{t:.0f}K [%]", f"M2@{t:.0f}K [%]"]
        rows = []
        for i, vg in enumerate(self.vg_values):
            row: List[object] = [vg]
            for t in self.temperatures_k:
                row.append(self.errors[(t, "model1")][i])
                row.append(self.errors[(t, "model2")][i])
            rows.append(row)
        return ascii_table(
            headers, rows,
            title=(
                f"Average RMS errors in IDS, EF = {self.fermi_level_ev} eV "
                f"(paper Tables II-IV layout)"
            ),
        )


def run_rms_table(fermi_level_ev: float,
                  temperatures_k: Sequence[float] = PAPER_TEMPERATURES,
                  vg_values: Sequence[float] = PAPER_VG_VALUES,
                  vd_values: Sequence[float] = PAPER_VDS_SWEEP
                  ) -> RmsTableResult:
    """Reproduce one of Tables II/III/IV (per the Fermi level)."""
    result = RmsTableResult(
        fermi_level_ev=fermi_level_ev,
        temperatures_k=tuple(temperatures_k),
        vg_values=tuple(vg_values),
    )
    for temperature in temperatures_k:
        params = default_device_parameters(
            temperature_k=temperature, fermi_level_ev=fermi_level_ev
        )
        reference, model1, model2 = build_models(params)
        ref_family = reference.iv_family(vg_values, vd_values)
        for name, device in (("model1", model1), ("model2", model2)):
            fam = device.iv_family(vg_values, vd_values)
            errs = tuple(
                metrics.rms_error_percent(fam[i], ref_family[i])
                for i in range(len(vg_values))
            )
            result.errors[(temperature, name)] = errs
    return result


# ----------------------------------------------------------------------
# Table V + Figs. 10/11 — comparison with (synthetic) experiment
# ----------------------------------------------------------------------

@dataclass
class Table5Result:
    vg_values: Tuple[float, ...]
    fettoy_err: Tuple[float, ...]
    model1_err: Tuple[float, ...]
    model2_err: Tuple[float, ...]
    experimental: ExperimentalDataset = None
    families: Dict[str, np.ndarray] = field(default_factory=dict)

    def render(self) -> str:
        rows = [
            (vg, self.fettoy_err[i], self.model1_err[i], self.model2_err[i])
            for i, vg in enumerate(self.vg_values)
        ]
        return ascii_table(
            ("VG [V]", "FETToy [%]", "Model 1 [%]", "Model 2 [%]"), rows,
            title=(
                "Table V — avg RMS error vs (synthetic) experimental data, "
                "d=1.6nm tox=50nm T=300K EF=-0.05eV"
            ),
        )


def run_table5(vg_values: Sequence[float] = TABLE5_VG_VALUES,
               vd_values: Sequence[float] = FIG1011_VDS_SWEEP,
               seed: Optional[int] = None) -> Table5Result:
    """Reproduce Table V: all three models vs the measurement substitute.

    ``seed`` re-rolls the synthetic measurement ripple (the default is
    the fixed seed of the committed reproduction).
    """
    params = javey_device_parameters()
    reference, model1, model2 = build_models(params)
    if seed is None:
        experiment = generate_experimental_data(vg_values, vd_values)
    else:
        experiment = generate_experimental_data(vg_values, vd_values,
                                                seed=seed)
    families = {
        "fettoy": reference.iv_family(vg_values, vd_values),
        "model1": model1.iv_family(vg_values, vd_values),
        "model2": model2.iv_family(vg_values, vd_values),
    }
    errs = {name: [] for name in families}
    for i in range(len(vg_values)):
        for name, fam in families.items():
            errs[name].append(
                metrics.rms_error_percent(fam[i], experiment.ids[i])
            )
    return Table5Result(
        vg_values=tuple(float(v) for v in vg_values),
        fettoy_err=tuple(errs["fettoy"]),
        model1_err=tuple(errs["model1"]),
        model2_err=tuple(errs["model2"]),
        experimental=experiment,
        families=families,
    )


@dataclass
class Fig1011Result:
    vg_values: Tuple[float, ...]
    vd_values: Tuple[float, ...]
    experimental: np.ndarray
    fettoy: np.ndarray
    model: np.ndarray
    model_name: str

    def render(self) -> str:
        blocks = []
        for i, vg in enumerate(self.vg_values):
            blocks.append(series_block(
                f"Fig. 10/11 — VG = {vg} V ({self.model_name})",
                "VDS [V]", list(self.vd_values),
                {
                    "experiment [A]": self.experimental[i],
                    "FETToy [A]": self.fettoy[i],
                    f"{self.model_name} [A]": self.model[i],
                },
                max_points=9,
            ))
        return "\n\n".join(blocks)


def run_fig10_11(model_name: str = "model2",
                 vg_values: Sequence[float] = FIG1011_VG_VALUES,
                 vd_values: Sequence[float] = FIG1011_VDS_SWEEP
                 ) -> Fig1011Result:
    """Figures 10 (Model 1) and 11 (Model 2): IV curves vs experiment."""
    params = javey_device_parameters()
    reference, model1, model2 = build_models(params)
    device = model1 if model_name == "model1" else model2
    experiment = generate_experimental_data(vg_values, vd_values)
    return Fig1011Result(
        vg_values=tuple(float(v) for v in vg_values),
        vd_values=tuple(float(v) for v in vd_values),
        experimental=experiment.ids,
        fettoy=reference.iv_family(vg_values, vd_values),
        model=device.iv_family(vg_values, vd_values),
        model_name=model_name,
    )


# ----------------------------------------------------------------------
# Figs. 2-5 — charge curves and their approximations
# ----------------------------------------------------------------------

@dataclass
class ChargeFigureResult:
    model_name: str
    vsc_axis: Tuple[float, ...]
    theory_qs: np.ndarray
    fitted_qs: np.ndarray
    theory_qd: np.ndarray = None
    fitted_qd: np.ndarray = None
    boundaries_abs: Tuple[float, ...] = ()
    rms_relative: float = 0.0

    def render(self) -> str:
        series = {
            "QS theory [C/m]": self.theory_qs,
            "QS fitted [C/m]": self.fitted_qs,
        }
        if self.theory_qd is not None:
            series["QD theory [C/m]"] = self.theory_qd
            series["QD fitted [C/m]"] = self.fitted_qd
        block = series_block(
            f"{self.model_name}: piecewise approximation "
            f"(boundaries at {', '.join(f'{b:+.3f} V' for b in self.boundaries_abs)})",
            "VSC [V]", list(self.vsc_axis), series, max_points=11,
        )
        return f"{block}\ncharge-fit RMS: {100*self.rms_relative:.2f}% of peak"


def run_fig2_3(model_name: str) -> ChargeFigureResult:
    """Figure 2 (Model 1) or Figure 3 (Model 2): QS and its fit."""
    axis = FIG2_VSC_AXIS if model_name == "model1" else FIG3_VSC_AXIS
    reference, model1, model2 = build_models(default_device_parameters())
    device = model1 if model_name == "model1" else model2
    vsc = np.asarray(axis)
    return ChargeFigureResult(
        model_name=model_name,
        vsc_axis=tuple(axis),
        theory_qs=np.asarray(reference.charge.qs(vsc)),
        fitted_qs=np.asarray(device.fitted.curve.value(vsc)),
        boundaries_abs=device.fitted.boundaries_abs,
        rms_relative=device.fitted.rms_error_relative,
    )


def run_fig4_5(model_name: str, vds: float = FIG45_VDS
               ) -> ChargeFigureResult:
    """Figure 4 (Model 1) or 5 (Model 2): QS and QD with their fits."""
    reference, model1, model2 = build_models(default_device_parameters())
    device = model1 if model_name == "model1" else model2
    vsc = np.linspace(-0.6, 0.0, 201)
    qd_curve = device.fitted.curve.shifted(vds)  # QD(V) = QS(V + VDS)
    return ChargeFigureResult(
        model_name=model_name,
        vsc_axis=tuple(vsc),
        theory_qs=np.asarray(reference.charge.qs(vsc)),
        fitted_qs=np.asarray(device.fitted.curve.value(vsc)),
        theory_qd=np.asarray(reference.charge.qd(vsc, vds)),
        fitted_qd=np.asarray(qd_curve.value(vsc)),
        boundaries_abs=device.fitted.boundaries_abs,
        rms_relative=device.fitted.rms_error_relative,
    )


# ----------------------------------------------------------------------
# Figs. 6-9 — IV families, fast model vs FETToy
# ----------------------------------------------------------------------

@dataclass
class IVFigureResult:
    title: str
    vg_values: Tuple[float, ...]
    vd_values: Tuple[float, ...]
    reference: np.ndarray
    model: np.ndarray
    model_name: str

    @property
    def average_error_percent(self) -> float:
        return metrics.average_rms_error_percent(self.model, self.reference)

    def render(self) -> str:
        blocks = []
        for i, vg in enumerate(self.vg_values):
            blocks.append(series_block(
                f"{self.title} — VG = {vg} V",
                "VDS [V]", list(self.vd_values),
                {
                    "FETToy [A]": self.reference[i],
                    f"{self.model_name} [A]": self.model[i],
                },
                max_points=7,
            ))
        blocks.append(
            f"average RMS error: {self.average_error_percent:.2f}%"
        )
        return "\n\n".join(blocks)


def run_iv_figure(model_name: str, temperature_k: float,
                  fermi_level_ev: float, vg_values: Sequence[float],
                  vd_values: Sequence[float] = PAPER_VDS_SWEEP,
                  title: str = "") -> IVFigureResult:
    params = default_device_parameters(
        temperature_k=temperature_k, fermi_level_ev=fermi_level_ev
    )
    reference, model1, model2 = build_models(params)
    device = model1 if model_name == "model1" else model2
    return IVFigureResult(
        title=title or f"{model_name} vs FETToy, T={temperature_k:.0f}K, "
                       f"EF={fermi_level_ev}eV",
        vg_values=tuple(float(v) for v in vg_values),
        vd_values=tuple(float(v) for v in vd_values),
        reference=reference.iv_family(vg_values, vd_values),
        model=device.iv_family(vg_values, vd_values),
        model_name=model_name,
    )


def run_fig6_7(model_name: str) -> IVFigureResult:
    """Figure 6 (Model 1) / Figure 7 (Model 2): T=300K, EF=-0.32 eV."""
    return run_iv_figure(
        model_name, 300.0, -0.32, FIG67_VG_VALUES,
        title=f"Fig. {'6' if model_name == 'model1' else '7'}: "
              f"{model_name} vs FETToy (T=300K, EF=-0.32eV)",
    )


def run_fig8() -> IVFigureResult:
    """Figure 8: Model 2 at T=150K, EF=0 eV."""
    cond = FIG8_CONDITIONS
    return run_iv_figure(
        "model2", cond["temperature_k"], cond["fermi_level_ev"],
        cond["vg_values"], title="Fig. 8: model2 vs FETToy (T=150K, EF=0eV)",
    )


def run_fig9() -> IVFigureResult:
    """Figure 9: Model 2 at T=450K, EF=-0.5 eV."""
    cond = FIG9_CONDITIONS
    return run_iv_figure(
        "model2", cond["temperature_k"], cond["fermi_level_ev"],
        cond["vg_values"],
        title="Fig. 9: model2 vs FETToy (T=450K, EF=-0.5eV)",
    )
