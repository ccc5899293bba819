"""Experiment orchestration: config ingestion, single runs and sweeps.

solve decides, in one place, how a run, a sweep cell or a stability
report reaches its samples: the working point, the periodic state or an
integration from t = 0.  The working point and the periodic state both
take their CM and their verdict from fluctuations.lyapunov_harmonics, a
constant drive as its N = 0 case.  A run writes one file per requested
output from what solve returns, plus a JSON manifest echoing the
resolved configuration.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .engineering import engineered_mean_source, modulation_components
from .errors import Diverged, NonPhysical, NotStable, SimulationError
from .fluctuations import _check_physical, build_diffusion, build_drift, \
    integrate_lyapunov, lyapunov_stack, periodic_state, stability_check
from .measures import log_negativity_stack, principal_axis_angle, \
    reduce_atom_mirror_stack, squeezing_parameter, wigner
from .model import DriveSpec, EngineeredCoupling, SystemParams, \
    ZERO_MOMENTS, validate_params
from .moments import DEFAULT_J_MAX, DEFAULT_N_MAX, MomentTrajectory, \
    floquet_mean_source, floquet_recurse, integrate_first_moments, \
    steady_state_constant
from .numerics import StepperConfig
from .tables import write_cm_csv, write_measures_csv, write_rows, \
    write_trajectory_csv, write_wigner_csv

KNOWN_OUTPUTS = ("first_moments", "cm", "EN", "variance", "neff",
                 "squeezing", "principal_axis", "wigner", "stability")
MEASURE_OUTPUTS = ("cm", "EN", "variance", "neff", "squeezing",
                   "principal_axis", "wigner")


@dataclass(frozen=True)
class SweepAxis:
    name: str
    min: float
    max: float
    points: int

    def values(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.points)


@dataclass
class ExperimentConfig:
    params: SystemParams
    drive: DriveSpec | None = None
    engineered: EngineeredCoupling | None = None
    delta_a_effective: float | None = None
    horizon_periods: float = 50.0
    outputs: tuple[str, ...] = ()
    sweep: tuple[SweepAxis, ...] = ()
    numerics: StepperConfig = field(default_factory=StepperConfig)
    j_max: int = DEFAULT_J_MAX
    n_max: int = DEFAULT_N_MAX
    first_moment_source: str = "ode"
    sample_periods: float = 2.0
    samples_per_period: int = 200
    wigner_times: tuple[float, ...] = ()
    raw: dict = field(default_factory=dict)

    def resolved_drive(self) -> DriveSpec:
        if self.drive is not None:
            return self.drive
        if self.engineered is not None:
            return modulation_components(self.params, self.engineered)
        raise ValueError("config needs either a drive or an engineered "
                         "coupling target")

    def validate(self) -> list[str]:
        report = [f"unknown key '{name}'" for name in _check_keys(self.raw)[0]]
        if (self.drive is None) == (self.engineered is None):
            report.append("exactly one of 'drive' and 'engineered' "
                          "must be given")
        bad = [o for o in self.outputs if o not in KNOWN_OUTPUTS]
        if bad:
            report.append(f"unknown outputs: {bad}")
        if len(self.sweep) > 2:
            report.append("at most two sweep axes are supported")
        for ax in self.sweep:
            try:
                _apply_axis(self, ax.name, ax.min)
            except KeyError:
                report.append(f"sweep axis '{ax.name}' does not name a "
                              "scalar parameter")
            if ax.points < 1:
                report.append(f"sweep axis '{ax.name}' needs points >= 1")
        report.extend(validate_params(self.params, self.drive))
        if self.first_moment_source not in ("ode", "floquet", "engineered"):
            report.append("unknown first_moment_source "
                          f"{self.first_moment_source!r}")
        elif self.first_moment_source == "engineered" \
                and self.engineered is None:
            report.append("'engineered' source needs a coupling target")
        drive = self.drive or self.engineered    # both carry big_omega
        if not (drive and drive.big_omega > 0.0):
            return report       # a constant drive samples t = 0 alone
        if self.delta_a_effective is not None:
            report.append("params.delta_a_effective applies to a constant "
                          "drive only")
        for name in ("horizon_periods", "sample_periods"):
            if not getattr(self, name) > 0.0:
                report.append(f"{name} must be positive")
        if self.samples_per_period < 1:
            report.append("samples_per_period must be at least 1")
        if self.j_max < 0:
            report.append("floquet j_max must be >= 0")
        if self.n_max < 1:
            report.append("floquet n_max must be >= 1")
        if self.wigner_times:
            t_end = self.horizon_periods * (2.0 * np.pi / drive.big_omega)
            bad = [t for t in self.wigner_times if not 0.0 <= t <= t_end]
            if bad:
                report.append(f"wigner_times {bad} lie outside the run's "
                              f"[0, {t_end:g}]")
        return report

    def check(self) -> None:
        """Raise ValueError naming every problem validate finds."""
        report = self.validate()
        if report:
            raise ValueError("invalid configuration: " + "; ".join(report))


def _parse_drive(d: dict) -> DriveSpec:
    comps = {int(c["n"]): complex(c.get("re", 0.0), c.get("im", 0.0))
             for c in d.get("components", [])}
    return DriveSpec(big_omega=float(d["Omega"]), components=comps)


# SystemParams field of each params key and sweep axis; G0 is g0_collective
_PARAM_KEYS = {"G0" if f.name == "g0_collective" else f.name: f.name
               for f in fields(SystemParams)}

# Every key config_from_dict reads, dotted; a list's items share one name.
_KEYS = {f"params.{k}" for k in _PARAM_KEYS} | set("""
    params params.delta_a_effective
    drive drive.Omega drive.components drive.components.n drive.components.re
    drive.components.im engineered engineered.G1 engineered.G2 engineered.Omega
    horizon_periods sample_periods samples_per_period outputs wigner_times
    first_moment_source numerics numerics.rel_tol numerics.abs_tol floquet
    floquet.j_max floquet.n_max sweep sweep.axes sweep.axes.name
    sweep.axes.min sweep.axes.max sweep.axes.points""".split())
# The keys each block needs, by the dotted name of the block.
_REQUIRED = {"": ("params",),
             "params.": tuple(f.name for f in fields(SystemParams)
                              if f.default is MISSING),
             "drive.": ("Omega",), "drive.components.": ("n",),
             "engineered.": ("G1", "G2", "Omega"),
             "sweep.axes.": ("name", "min", "max", "points")}


def _check_keys(doc: dict, at: str = "") -> tuple[list, list]:
    """(unknown, missing): the dotted name of every key in doc that
    config_from_dict does not read, so that a misspelt or retired setting
    is not silently ignored, and of every key it needs that a block of doc
    lacks."""
    unknown = []
    missing = [at + key for key in _REQUIRED.get(at, ()) if key not in doc]
    for key, value in doc.items():
        if at + key not in _KEYS:
            unknown.append(at + key)
            continue
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, dict):
                names = _check_keys(item, f"{at}{key}.")
                unknown += names[0]
                missing += names[1]
    return unknown, missing


def config_from_dict(doc: dict) -> ExperimentConfig:
    missing = _check_keys(doc)[1]
    if missing:
        raise ValueError("invalid configuration: " + "; ".join(
            f"missing key '{name}'" for name in missing))
    p = doc["params"]
    params = SystemParams(**{_PARAM_KEYS[k]: float(v) for k, v in p.items()
                             if k in _PARAM_KEYS})

    drive = _parse_drive(doc["drive"]) if "drive" in doc else None
    engineered = None
    if "engineered" in doc:
        e = doc["engineered"]
        engineered = EngineeredCoupling(g1=float(e["G1"]),
                                        g2=float(e["G2"]),
                                        big_omega=float(e["Omega"]))

    num = doc.get("numerics", {})
    numerics = StepperConfig(rel_tol=float(num.get("rel_tol", 1e-9)),
                             abs_tol=float(num.get("abs_tol", 1e-12)))

    flq = doc.get("floquet", {})

    sweep = tuple(SweepAxis(name=a["name"], min=float(a["min"]),
                            max=float(a["max"]), points=int(a["points"]))
                  for a in doc.get("sweep", {}).get("axes", []))

    return ExperimentConfig(
        params=params, drive=drive, engineered=engineered,
        delta_a_effective=(float(p["delta_a_effective"])
                           if "delta_a_effective" in p else None),
        horizon_periods=float(doc.get("horizon_periods", 50.0)),
        outputs=tuple(doc.get("outputs", [])),
        sweep=sweep, numerics=numerics,
        j_max=int(flq.get("j_max", DEFAULT_J_MAX)),
        n_max=int(flq.get("n_max", DEFAULT_N_MAX)),
        first_moment_source=doc.get("first_moment_source", "ode"),
        sample_periods=float(doc.get("sample_periods", 2.0)),
        samples_per_period=int(doc.get("samples_per_period", 200)),
        wigner_times=tuple(float(t) for t in doc.get("wigner_times", [])),
        raw=doc)


# ---------------------------------------------------------------------------
# Measures extraction
# ---------------------------------------------------------------------------

def measures_from_cm_series(t: np.ndarray, vs: np.ndarray) -> dict:
    en, physical = log_negativity_stack(reduce_atom_mirror_stack(vs))
    if not physical.all():
        raise NonPhysical("reduced CM is not a valid two-mode covariance "
                          f"matrix at t = {t[np.argmin(physical)]:g}")
    return {"t": t, "EN": en, "v11": vs[:, 0, 0], "v22": vs[:, 1, 1],
            "neff": (vs[:, 0, 0] + vs[:, 1, 1] - 1.0) / 2.0,
            "r_db": squeezing_parameter(vs[:, :2, :2])[2]}


def _principal_axis_columns(vs: np.ndarray) -> np.ndarray:
    """(theta, lam_minus, lam_plus, r_db) columns of the mechanical
    squeezing ellipse of each CM: its major-axis angle, the two CM
    eigenvalues and the squeezing in dB."""
    mech = vs[:, :2, :2]
    lam, _, r_db = squeezing_parameter(mech)
    return np.array([principal_axis_angle(mech), lam,
                     np.trace(mech, axis1=1, axis2=2) - lam, r_db])


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------

def sample_times(cfg: ExperimentConfig) -> np.ndarray:
    """Sample times of a run: t = 0 alone for a constant drive, else the
    last sample_periods of the horizon with the wigner_times added."""
    drive = cfg.resolved_drive()
    if drive.big_omega == 0.0:
        return np.array([0.0])
    tau = drive.period
    t_end = cfg.horizon_periods * tau
    t0 = max(0.0, t_end - cfg.sample_periods * tau)
    n_samples = max(2, int(cfg.sample_periods * cfg.samples_per_period))
    t_eval = np.linspace(t0, t_end, n_samples)
    if cfg.wigner_times:
        t_eval = np.unique(np.concatenate((t_eval, cfg.wigner_times)))
    return t_eval


def solve(cfg: ExperimentConfig, t_eval: np.ndarray,
          require_verdict: bool = False):
    """(t, means, vs, stability): the run's means, CMs and verdict at t_eval.

    Every run, sweep cell and stability report decides here how its
    samples are reached.  A constant drive is sampled at its working
    point (t_eval = [0]), one cell of _constant_cells: the N = 0 case of
    lyapunov_harmonics, whose exponent gives the Hurwitz verdict.
    A modulated drive is sampled at t_eval, which ends at t_end:

    * The periodic solve at t0 = t_eval[0] gives stability.  It runs
      whenever the verdict is asked for or required (require_verdict, as
      for a sweep cell), and a failure raises; otherwise only when a CM
      output is asked for with the "ode" source and t0 > 0, and a
      failure falls back to t = 0.
    * When the periodic state is usable and the source is "ode", its
      harmonics give the means and the CMs at t_eval, and nothing is
      integrated; otherwise the CM is integrated from t = 0.

    means (a MomentTrajectory) is asked for by first_moments.  With the
    "ode" source, a run that integrates its CM carries the means in the
    same stepping loop, since they fill the drift.  With "floquet" or
    "engineered", the source's callable fills the drift, so the CM is
    propagated by interval maps and nothing is stepped for it; the means
    asked for are then stepped alone, by integrate_first_moments, as in
    a run with no CM output.

    vs, the (T, 6, 6) CMs, is asked for by the measure outputs.  vs is
    None, with no integration made, when the verdict rules out a
    stationary window: a drift that is not Hurwitz, or an unstable cycle
    whose verdict was not asked for.  Either is None when not asked for.
    """
    drive = cfg.resolved_drive()
    measured = any(o in cfg.outputs for o in MEASURE_OUTPUTS)
    if drive.big_omega == 0.0:
        fm, v, (margin,), (error,) = _constant_cells(cfg, cfg.params,
                                                     drive.component(0))
        if measured and margin < 0.0 and error is not None:
            raise error         # a singular CM solve
        stability = stability_check(margin)
        vs = v if measured and stability["stable"] else None
        means = MomentTrajectory.from_states(t_eval, fm.to_vector()[:, None])
        return t_eval, means, vs, stability

    def recurse():
        return floquet_recurse(cfg.params, drive, cfg.j_max, cfg.n_max)

    asked = "stability" in cfg.outputs or require_verdict
    source = cfg.first_moment_source
    t0, t_end = float(t_eval[0]), float(t_eval[-1])
    series = recurse() if measured and source == "floquet" else None
    periodic = stability = means = vs = None
    if asked or (measured and source == "ode" and t0 > 0.0):
        try:
            periodic = periodic_state(cfg.params, drive, t0, cfg.numerics,
                                      recurse() if series is None
                                      else series)
        except SimulationError:
            if asked:
                raise
        else:
            stability = stability_check(periodic)
    if measured and source == "ode" and periodic is not None \
            and periodic.usable:
        y, vs = periodic.sample(t_eval)
        _check_physical(t_eval, vs)
        means = MomentTrajectory.from_states(t_eval, y.T)
    elif measured and ("stability" in cfg.outputs or periodic is None
                       or stability["stable"]):
        if source == "floquet":
            source = floquet_mean_source(series, cfg.params.g)
        elif source == "engineered":
            source = engineered_mean_source(cfg.params, cfg.engineered)
        lt = integrate_lyapunov(cfg.params, drive, source, None, t_end,
                                t_eval=t_eval, cfg=cfg.numerics)
        means, vs = lt.means, lt.v
    if means is None and "first_moments" in cfg.outputs:
        means = integrate_first_moments(cfg.params, drive, ZERO_MOMENTS,
                                        t_end, t_eval=t_eval,
                                        cfg=cfg.numerics)
    return t_eval, means, vs, stability


def _write_outputs(cfg: ExperimentConfig, out_dir: Path, written: dict,
                   t, means, vs, stability) -> None:
    """Each file cfg.outputs asks for, from what solve returned."""
    if "stability" in cfg.outputs:
        written["stability"] = out_dir / "stability.json"
        written["stability"].write_text(json.dumps(stability, indent=2))
    if "first_moments" in cfg.outputs:
        written["first_moments"] = out_dir / "first_moments.csv"
        write_trajectory_csv(written["first_moments"], means)
    if not any(o in cfg.outputs for o in MEASURE_OUTPUTS):
        return
    if vs is None:
        raise NotStable("no stationary window to sample: "
                        + json.dumps(stability))
    if "cm" in cfg.outputs:
        written["cm"] = out_dir / "cm.csv"
        write_cm_csv(written["cm"], t, vs)
    series = measures_from_cm_series(t, vs)
    written["measures"] = out_dir / "measures.csv"
    write_measures_csv(written["measures"], series["t"], series["EN"],
                       series["v11"], series["v22"], series["neff"],
                       series["r_db"])
    if "principal_axis" in cfg.outputs:
        written["principal_axis"] = out_dir / "principal_axis.csv"
        write_rows(written["principal_axis"],
                   ["t", "theta", "lam_minus", "lam_plus", "r_db"],
                   (t, *_principal_axis_columns(vs)))
    if "wigner" not in cfg.outputs:
        return
    for k, tw in enumerate(cfg.wigner_times or (t[-1],)):
        i = int(np.argmin(np.abs(t - tw)))
        written[f"wigner_{k}"] = out_dir / f"wigner_{k}.csv"
        write_wigner_csv(written[f"wigner_{k}"], wigner(vs[i][:2, :2]))


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path,
                   jobs: int = 1) -> dict:
    """Execute the configured pipeline in this process; returns {output
    name: path}.  jobs is ignored: the benchmark harness still passes it."""
    cfg.check()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict = {}

    manifest = {"version": __version__, "config": cfg.raw}
    if cfg.engineered is not None:
        drv = cfg.resolved_drive()
        manifest["resolved_drive"] = drive_to_dict(drv)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, default=str))
    written["manifest"] = path

    if cfg.sweep:
        written["sweep"] = run_sweep(cfg, out_dir / "sweep.csv")
        return written
    if cfg.outputs:
        _write_outputs(cfg, out_dir, written, *solve(cfg, sample_times(cfg)))
    return written


def drive_to_dict(drive: DriveSpec) -> dict:
    return {"Omega": drive.big_omega,
            "components": [{"n": n, "re": en.real, "im": en.imag}
                           for n, en in sorted(drive.components.items())]}


# ---------------------------------------------------------------------------
# Source comparison
# ---------------------------------------------------------------------------

def compare_sources(cfg: ExperimentConfig) -> dict[str, float]:
    """Max relative deviation ODE vs Floquet over the final two periods,
    400 samples clamped at t = 0 as sample_times clamps a run's window,
    and the transient_residue that the ODE means, integrated from t = 0,
    still carry at the window's start (1.0 when it starts at t = 0)."""
    drive = cfg.resolved_drive()
    if drive.big_omega <= 0:
        raise ValueError("source comparison needs a modulated drive")
    t_eval = sample_times(replace(cfg, sample_periods=2.0,
                                  samples_per_period=200, wigner_times=()))
    _, traj, _, stability = solve(
        replace(cfg, outputs=("first_moments", "stability")), t_eval)
    sol = floquet_recurse(cfg.params, drive, cfg.j_max, cfg.n_max)
    series = sol.evaluate(cfg.params.g, t_eval)
    out = {}
    for obs in ("q", "p", "a", "c"):
        ref = getattr(traj, obs)
        dev = np.abs(series[obs] - ref) / np.maximum(1.0, np.abs(ref))
        out[obs] = float(np.max(dev))
    out["transient_residue"] = stability["transient_residue"]
    return out


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

# Constant-drive sweep cells are solved this many at a time as arrays;
# one block's _constant_cells call peaks at 3.1 MB (tracemalloc).
SWEEP_BLOCK = 256


def _apply_axis(cfg: ExperimentConfig, name: str,
                value: float) -> ExperimentConfig:
    if name in ("E", "E0"):
        drive = cfg.resolved_drive()
        comps = dict(drive.components)
        comps[0] = complex(value)
        return replace(cfg, drive=DriveSpec(big_omega=drive.big_omega,
                                            components=comps),
                       engineered=None)
    return replace(cfg, params=replace(cfg.params,
                                       **{_PARAM_KEYS[name]: value}))


def _cell_status(error: SimulationError | None, physical: bool = True):
    if isinstance(error, (NotStable, Diverged)):
        return "unstable"
    if error is not None:
        return f"error:{type(error).__name__}"
    return "stable" if physical else "error:NonPhysical"


def _constant_cells(cfg: ExperimentConfig, params: SystemParams, e0):
    """(means, v, margin, errors) of the constant-drive cells over which
    params' fields or e0 hold one value per cell: the working points,
    drifts and diffusions as arrays, then one lyapunov_stack, in which a
    failing cell flags only itself (NaN v).  A working point that cannot
    be found raises, for the whole block."""
    fm, eff = steady_state_constant(params, e0, cfg.delta_a_effective)
    drift, diffusion = np.broadcast_arrays(build_drift(eff, fm.q, fm.a),
                                           build_diffusion(eff))
    return fm, *lyapunov_stack(drift.reshape(-1, 6, 6),
                               diffusion.reshape(-1, 6, 6))


def evaluate_cell(cfg: ExperimentConfig) -> tuple[str, float]:
    """(status, EN) for one sweep cell; failures flagged, not raised.

    A constant cell is its working point.  A modulated cell is solved
    over its last period (sample_times' window, clamped at t = 0) and
    needs a Floquet verdict: a failed periodic solve flags the cell, and
    a multiplier on or outside the unit circle makes it unstable; neither
    integrates the window.
    """
    try:
        t_eval = sample_times(replace(cfg, sample_periods=1.0,
                                      wigner_times=()))
        vs = solve(replace(cfg, first_moment_source="ode", outputs=("EN",)),
                   t_eval, require_verdict=True)[2]
    except SimulationError as exc:
        return _cell_status(exc), float("nan")
    if vs is None:
        return "unstable", float("nan")
    en, physical = log_negativity_stack(reduce_atom_mirror_stack(vs))
    return _cell_status(None, physical.all()), float(np.max(en))


def run_sweep(cfg: ExperimentConfig, out_path: Path) -> Path:
    """Grid sweep over 1 or 2 axes; one CSV row per cell, the last axis
    fastest.  Every cell is solved in this process.

    A constant drive's cells are solved SWEEP_BLOCK at a time: one
    SystemParams (and E0) whose swept fields hold the block's axis
    values, for _constant_cells.  Only a block with a working point that
    cannot be found is solved a cell at a time.  Modulated cells are
    solved one after another, one periodic solve each (evaluate_cell).
    """
    columns = [x.ravel() for x in np.meshgrid(
        *(ax.values() for ax in cfg.sweep), indexing="ij")]

    def cells(lo=0, hi=None):       # each cell's config, in row order
        for values in zip(*(col[lo:hi].tolist() for col in columns)):
            cell = cfg
            for ax, val in zip(cfg.sweep, values):
                cell = _apply_axis(cell, ax.name, val)
            yield cell

    drive = cfg.resolved_drive()
    if drive.big_omega != 0.0:
        results = list(map(evaluate_cell, cells()))
    else:
        results = []
        for lo in range(0, len(columns[0]), SWEEP_BLOCK):
            params, e0 = cfg.params, drive.component(0)
            for ax, col in zip(cfg.sweep, columns):
                block = col[lo:lo + SWEEP_BLOCK]
                if ax.name in ("E", "E0"):
                    e0 = block.astype(complex)
                else:
                    params = replace(params, **{_PARAM_KEYS[ax.name]: block})
            try:
                _, v, _, errors = _constant_cells(cfg, params, e0)
            except SimulationError:
                # a failing working point fails its block: one cell at a time
                results += map(evaluate_cell, cells(lo, lo + SWEEP_BLOCK))
                continue
            en, physical = log_negativity_stack(reduce_atom_mirror_stack(v))
            results += zip(map(_cell_status, errors, physical), en.tolist())
    write_rows(out_path, [ax.name for ax in cfg.sweep] + ["status", "EN"],
               (*columns, *zip(*results)))
    return out_path
