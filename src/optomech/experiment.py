"""Experiment orchestration: config ingestion, single runs and sweeps.

_SCHEMA is the one list of config keys: each key's JSON type, and
whether its block needs it.  One walk over it, _read, reads a document
and names what is wrong with it.  config_from_dict builds the
dataclasses from what the walk read, or names the keys that are missing
or of the wrong type; validate names the keys the walk did not read and
the settings that no run could use.

solve decides, in one place, how a run, a sweep cell or a stability
report reaches its samples: the working point, the periodic state or an
integration from t = 0.  The working point and the periodic state both
take their CM from fluctuations.lyapunov_harmonics and their verdict
from fluctuations.floquet_exponent, a constant drive as their N = 0
case.  A run writes one file per requested output from what solve
returns, plus a JSON manifest echoing the resolved configuration.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
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
from .model import DriveSpec, EngineeredCoupling, FirstMoments, \
    SystemParams, validate_params
from .moments import floquet_recurse, integrate_first_moments, \
    steady_state_constant
from .numerics import StepperConfig
from .tables import grid_columns, write_cm_csv, write_rows, \
    write_trajectory_csv, write_wigner_csv

KNOWN_OUTPUTS = ("first_moments", "cm", "EN", "variance", "neff",
                 "squeezing", "principal_axis", "wigner", "stability")
MEASURE_OUTPUTS = ("cm", "EN", "variance", "neff", "squeezing",
                   "principal_axis", "wigner")
# The most samples a window and the most cells a sweep may hold, which
# validate names: a window of COUNT_LIMIT samples holds 288 MB of CMs.
COUNT_LIMIT = 10 ** 6


@dataclass(frozen=True)
class SweepAxis:
    name: str
    min: float
    max: float
    points: int

    def values(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.points)


@dataclass(frozen=True)
class ExperimentConfig:
    params: SystemParams
    drive: DriveSpec | None = None
    engineered: EngineeredCoupling | None = None
    delta_a_effective: float | None = None
    horizon_periods: float = 50.0
    outputs: tuple[str, ...] = ()
    sweep: tuple[SweepAxis, ...] = ()
    numerics: StepperConfig = field(default_factory=StepperConfig)
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
        read, unknown, _, _ = _read(self.raw)
        report = [f"unknown key '{name}'" for name in unknown]
        if (self.drive is None) == (self.engineered is None):
            report.append("exactly one of 'drive' and 'engineered' "
                          "must be given")
        # the parsed drive keeps one entry per harmonic
        ns = [c["n"] for c in read.get("drive", {}).get("components", ())]
        report += [f"drive component n = {n} is given twice"
                   for n in dict.fromkeys(ns) if ns.count(n) > 1]
        bad = [o for o in self.outputs if o not in KNOWN_OUTPUTS]
        if bad:
            report.append(f"unknown outputs: {bad}")
        if len(self.sweep) > 2:
            report.append("at most two sweep axes are supported")
        names = [ax.name for ax in self.sweep]
        report += [f"sweep axis '{name}' is given twice"
                   for name in dict.fromkeys(names) if names.count(name) > 1]
        for ax in self.sweep:
            try:
                _apply_axis(self, ax.name, ax.min)
            except KeyError:
                report.append(f"sweep axis '{ax.name}' does not name a "
                              "scalar parameter")
            if ax.points < 1:
                report.append(f"sweep axis '{ax.name}' needs points >= 1")
        cells = math.prod(ax.points for ax in self.sweep)
        if cells > COUNT_LIMIT and all(ax.points >= 1 for ax in self.sweep):
            report.append(f"the sweep's {cells} cells exceed {COUNT_LIMIT}")
        report.extend(validate_params(self.params, self.drive))
        if self.engineered and not self.engineered.big_omega > 0.0:
            report.append("engineered.Omega must be positive")
        if self.first_moment_source not in ("ode", "engineered"):
            report.append("unknown first_moment_source "
                          f"{self.first_moment_source!r}")
        elif self.first_moment_source == "engineered" \
                and self.engineered is None:
            report.append("'engineered' source needs a coupling target")
        # a sweep cell steps "ode" means and writes no Wigner grid
        if self.sweep and self.first_moment_source == "engineered":
            report.append("first_moment_source 'engineered' does not apply "
                          "to a sweep")
        if self.sweep and self.wigner_times:
            report.append("wigner_times do not apply to a sweep")
        drive = self.drive or self.engineered    # both carry big_omega
        if not (drive and drive.big_omega > 0.0):
            # a constant drive samples t = 0 alone, at a working point
            # that delta_a_effective pins in place of delta_a
            if self.delta_a_effective is not None and "delta_a" in names:
                report.append("sweep axis 'delta_a' is never read: "
                              "params.delta_a_effective sets the working "
                              "point")
            if self.wigner_times and not self.sweep:
                report.append("wigner_times do not apply to a constant "
                              "drive, which samples t = 0 alone")
            return report
        if self.delta_a_effective is not None:
            report.append("params.delta_a_effective applies to a constant "
                          "drive only")
        for name in ("horizon_periods", "sample_periods"):
            if not getattr(self, name) > 0.0:
                report.append(f"{name} must be positive")
        if self.samples_per_period < 1:
            report.append("samples_per_period must be at least 1")
        # a sweep cell's window is its last period
        samples = (1.0 if self.sweep else self.sample_periods) \
            * self.samples_per_period
        if samples > COUNT_LIMIT:
            report.append(f"the window's {samples:.6g} samples exceed "
                          f"{COUNT_LIMIT}")
        # an integration steps at most tau/50 (default_stepper) to the horizon
        steps = self.horizon_periods * 50
        if steps > COUNT_LIMIT:
            report.append(f"the horizon's {steps:.6g} steps exceed "
                          f"{COUNT_LIMIT}")
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


# SystemParams field of each params key and sweep axis; G0 is g0_collective
_PARAM_KEYS = {"G0" if f.name == "g0_collective" else f.name: f.name
               for f in fields(SystemParams)}

# Every key config_from_dict reads, by the dotted name of its block: its
# JSON type, in brackets for a list of items of that type, and a "!" when
# the block needs it.  A block's own keys sit under its name plus ".".
_SCHEMA = {
    "": {"params": "block!", "drive": "block", "engineered": "block",
         "numerics": "block", "sweep": "block", "horizon_periods": "number",
         "sample_periods": "number", "samples_per_period": "whole number",
         "outputs": "[string]", "first_moment_source": "string",
         "wigner_times": "[number]"},
    "params.": {**{key: "number" + "!" * (f.default is MISSING)
                   for key, f in zip(_PARAM_KEYS, fields(SystemParams))},
                "delta_a_effective": "number"},
    "drive.": {"Omega": "number!", "components": "[block]"},
    "drive.components.": {"n": "whole number!", "re": "number",
                          "im": "number"},
    "engineered.": {"G1": "number!", "G2": "number!", "Omega": "number!"},
    "numerics.": {"rel_tol": "number", "abs_tol": "number"},
    "sweep.": {"axes": "[block]"},
    "sweep.axes.": {"name": "string!", "min": "number!", "max": "number!",
                    "points": "whole number!"},
}
_READ = {"number": float, "whole number": int, "string": str}


def _value_problem(kind: str, value) -> str | None:
    """Why value cannot be read as a kind of _SCHEMA, or None: a block
    and a string must be one, a number is neither a boolean nor a string
    and is finite, and a whole number is a number with no fraction (3.0
    reads as 3)."""
    if kind in ("block", "string"):
        ok = isinstance(value, dict if kind == "block" else str)
        return None if ok else f"must be a {kind}"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return f"must be a {kind}"
    # NaN fails, as does an int too large to read as a float
    if not abs(value) <= sys.float_info.max:
        return "must be finite"
    if kind == "whole number" and value % 1:
        return "must be a whole number"
    return None


def _read(doc: dict, at: str = "") -> tuple[dict, list, list, list]:
    """(read, unknown, missing, wrong) of the block doc at the dotted name
    at, in one walk over _SCHEMA: each key doc sets, read as its type (a
    list as a tuple, a block as its own read), the dotted name of each key
    the schema does not name and of each needed key doc lacks, and a
    message for each value, or list item, of the wrong type or not finite."""
    schema = _SCHEMA[at]
    read, unknown, wrong = {}, [], []
    missing = [at + key for key, kind in schema.items()
               if kind.endswith("!") and key not in doc]
    for key, value in doc.items():
        name, kind = at + key, schema.get(key, "").rstrip("!")
        if not kind:
            unknown.append(name)
            continue
        listed = kind.startswith("[")
        if listed and not isinstance(value, list):
            wrong.append(f"{name} must be a list")
            continue
        kind = kind.strip("[]")
        items = []
        for item in value if listed else [value]:
            problem = _value_problem(kind, item)
            if problem:
                wrong.append(f"{name} {problem}")
            elif kind == "block":
                block, *names = _read(item, name + ".")
                items.append(block)
                for found, more in zip((unknown, missing, wrong), names):
                    found += more
            else:
                items.append(_READ[kind](item))
        if listed or items:
            read[key] = tuple(items) if listed else items[0]
    return read, unknown, missing, wrong


def config_from_dict(doc: dict) -> ExperimentConfig:
    """The config doc sets, each block built from its keys' one _read and
    every key doc leaves out at its dataclass default.  ValueError naming
    every key it lacks and every value of the wrong type or not finite,
    which no run could use; validate names the keys it does not read."""
    read, _, missing, wrong = _read(doc)
    if missing or wrong:
        raise ValueError("invalid configuration: " + "; ".join(
            [f"missing key '{name}'" for name in missing]
            + list(dict.fromkeys(wrong))))
    p, d, e = (read.get(key) for key in ("params", "drive", "engineered"))
    return ExperimentConfig(**{
        **read, "raw": doc, "delta_a_effective": p.get("delta_a_effective"),
        "params": SystemParams(**{_PARAM_KEYS[key]: value for key, value
                                  in p.items() if key in _PARAM_KEYS}),
        "drive": d and DriveSpec(d["Omega"], {
            c["n"]: complex(c.get("re", 0.0), c.get("im", 0.0))
            for c in d.get("components", ())}),
        "engineered": e and EngineeredCoupling(e["G1"], e["G2"], e["Omega"]),
        "numerics": StepperConfig(**read.get("numerics", {})),
        "sweep": tuple(SweepAxis(**axis) for axis in
                       read.get("sweep", {}).get("axes", ()))})


# ---------------------------------------------------------------------------
# Measures extraction
# ---------------------------------------------------------------------------

def measures_from_cm_series(t: np.ndarray, vs: np.ndarray) -> dict:
    """The columns of measures.csv, keyed by its header in its order."""
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

def solve(cfg: ExperimentConfig, require_verdict: bool = False):
    """(t, means, vs, stability): the run's sample times t, and its
    means, CMs and verdict there.

    Every run, sweep cell and stability report decides here, from its
    config alone, which samples it takes and how they are reached.  A
    constant drive is sampled at its working point (t = [0]), one cell
    of _constant_cells: the N = 0 case of floquet_exponent, the Hurwitz
    verdict, and of lyapunov_harmonics, the CM of a Hurwitz drift.  A
    modulated drive is sampled over the last sample_periods of the
    horizon (clamped at t = 0), samples_per_period to a period, with the
    wigner_times added; an integration runs from rest at t = 0, zero
    means and the thermal-vacuum CM, to its last sample:

    * The periodic solve at t0 = t[0] gives stability.  It runs
      whenever the verdict is asked for or required (require_verdict, as
      for a sweep cell), and a failure raises; otherwise only when a CM
      output is asked for with the "ode" source and t0 > 0, and a
      failure falls back to t = 0.
    * When the periodic state is usable and the source is "ode", its
      harmonics give the means and the CMs at t, and nothing is
      integrated; otherwise the CM is integrated from t = 0.

    means (FirstMoments, one value per sample) is asked for by
    first_moments.  With the "ode" source, a run that integrates its CM
    carries the means in the same stepping loop, since they fill the
    drift, and integrate_lyapunov's (means, vs) pair gives both.  With
    "engineered", the closed form (engineered_mean_source) fills the
    drift, so the CM is propagated by interval maps and nothing is
    stepped for it; the means asked for are then stepped alone, by
    integrate_first_moments, as in a run with no CM output.

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
        means = FirstMoments.from_vector(fm.to_vector()[:, None])
        return np.array([0.0]), means, vs, stability

    tau = drive.period
    t_end = cfg.horizon_periods * tau
    t = np.linspace(max(0.0, t_end - cfg.sample_periods * tau), t_end,
                    max(2, int(cfg.sample_periods * cfg.samples_per_period)))
    if cfg.wigner_times:
        t = np.unique(np.concatenate((t, cfg.wigner_times)))
    asked = "stability" in cfg.outputs or require_verdict
    source = cfg.first_moment_source
    t0 = float(t[0])
    periodic = stability = means = vs = None
    if asked or (measured and source == "ode" and t0 > 0.0):
        try:
            periodic = periodic_state(cfg.params, drive, t0, cfg.numerics)
        except SimulationError:
            if asked:
                raise
        else:
            stability = stability_check(periodic)
    if measured and source == "ode" and periodic is not None \
            and periodic.usable:
        y, vs = periodic.sample(t)
        _check_physical(t, vs)
        means = FirstMoments.from_vector(y.T)
    elif measured and ("stability" in cfg.outputs or periodic is None
                       or stability["stable"]):
        if source == "engineered":
            source = engineered_mean_source(cfg.params, cfg.engineered)
        means, vs = integrate_lyapunov(cfg.params, drive, source, t,
                                       cfg=cfg.numerics)
    if means is None and "first_moments" in cfg.outputs:
        means = integrate_first_moments(cfg.params, drive, t,
                                        cfg=cfg.numerics)
    return t, means, vs, stability


def _write_outputs(cfg: ExperimentConfig, out_dir: Path, written: dict,
                   t, means, vs, stability) -> None:
    """Each file cfg.outputs asks for, from what solve returned."""
    if "stability" in cfg.outputs:
        written["stability"] = out_dir / "stability.json"
        written["stability"].write_text(json.dumps(stability, indent=2))
    if "first_moments" in cfg.outputs:
        written["first_moments"] = out_dir / "first_moments.csv"
        write_trajectory_csv(written["first_moments"], t, means)
    if not any(o in cfg.outputs for o in MEASURE_OUTPUTS):
        return
    if vs is None:
        raise NotStable("no stationary window to sample: "
                        + json.dumps(stability))
    if "cm" in cfg.outputs:
        written["cm"] = out_dir / "cm.csv"
        write_cm_csv(written["cm"], t, vs)
    columns = measures_from_cm_series(t, vs)
    written["measures"] = out_dir / "measures.csv"
    write_rows(written["measures"], list(columns), columns.values())
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
        _write_outputs(cfg, out_dir, written, *solve(cfg))
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
    400 samples clamped at t = 0 as solve clamps a run's window, and the
    transient_residue that the ODE means, integrated from t = 0,
    still carry at the window's start (1.0 when it starts at t = 0)."""
    drive = cfg.resolved_drive()
    if drive.big_omega <= 0:
        raise ValueError("source comparison needs a modulated drive")
    t, traj, _, stability = solve(replace(
        cfg, outputs=("first_moments", "stability"), sample_periods=2.0,
        samples_per_period=200, wigner_times=()))
    sol = floquet_recurse(cfg.params, drive)
    series = sol.evaluate(cfg.params.g, t)
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
# one block's _constant_cells call peaks at 2.2 MB (tracemalloc, a block
# of Hurwitz cells only).
SWEEP_BLOCK = 256


def _apply_axis(cfg: ExperimentConfig, name: str,
                value: float) -> ExperimentConfig:
    if name == "E0":
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
    over its last period (solve's window, clamped at t = 0) and
    needs a Floquet verdict: a failed periodic solve flags the cell, and
    a multiplier on or outside the unit circle makes it unstable; neither
    integrates the window.  A valid sweep config carries the "ode" source
    and no wigner_times.
    """
    try:
        vs = solve(replace(cfg, outputs=("EN",), sample_periods=1.0),
                   require_verdict=True)[2]
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
                if ax.name == "E0":
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
               (*grid_columns(ax.values() for ax in cfg.sweep),
                *zip(*results)))
    return out_path
