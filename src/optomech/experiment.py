"""Experiment orchestration: config ingestion, single runs and sweeps.

A run executes first moments -> covariance propagation -> measures and
emits one CSV per requested output plus a JSON manifest echoing the
resolved configuration.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .engineering import engineered_mean_source, modulation_components
from .errors import Diverged, NonPhysical, NotStable, SimulationError
from .fluctuations import LyapunovTrajectory, PeriodicState, \
    build_diffusion, build_drift, integrate_lyapunov, lyapunov_stack, \
    periodic_state, stability_check, steady_state_lyapunov
from .measures import log_negativity_stack, principal_axis_angle, \
    reduce_atom_mirror_stack, squeezing_parameter, wigner
from .model import DriveSpec, EngineeredCoupling, FirstMoments, SystemParams, \
    ZERO_MOMENTS, validate_params
from .moments import DEFAULT_J_MAX, DEFAULT_N_MAX, floquet_mean_source, \
    floquet_recurse, integrate_first_moments, steady_state_constant
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
    init_moments: FirstMoments = ZERO_MOMENTS
    init_cm: np.ndarray | None = None
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
        report = []
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
        if self.drive is not None:
            report.extend(validate_params(self.params, self.drive))
        else:
            report.extend(validate_params(self.params))
        return report


def _parse_drive(d: dict) -> DriveSpec:
    comps = {int(c["n"]): complex(c.get("re", 0.0), c.get("im", 0.0))
             for c in d.get("components", [])}
    return DriveSpec(big_omega=float(d["Omega"]), components=comps)


_PARAM_KEYS = {"delta_a", "kappa", "gamma_m", "g", "delta_c", "gamma_a",
               "n_th", "omega_m"}


def config_from_dict(doc: dict) -> ExperimentConfig:
    p = doc["params"]
    kwargs = {k: float(v) for k, v in p.items() if k in _PARAM_KEYS}
    kwargs["g0_collective"] = float(p.get("G0", p.get("g0_collective", 0.0)))
    params = SystemParams(**kwargs)

    drive = _parse_drive(doc["drive"]) if "drive" in doc else None
    engineered = None
    if "engineered" in doc:
        e = doc["engineered"]
        engineered = EngineeredCoupling(g1=float(e["G1"]),
                                        g2=float(e["G2"]),
                                        big_omega=float(e["Omega"]))

    num = doc.get("numerics", {})
    numerics = StepperConfig(
        rel_tol=float(num.get("rel_tol", 1e-9)),
        abs_tol=float(num.get("abs_tol", 1e-12)),
        max_step=float(num.get("max_step", np.inf)),
        overflow_guard=float(num.get("overflow_guard", 1e12)))

    flq = doc.get("floquet", {})
    init = doc.get("init", {})
    init_moments = FirstMoments(
        q=float(init.get("q", 0.0)), p=float(init.get("p", 0.0)),
        a=complex(init.get("re_a", 0.0), init.get("im_a", 0.0)),
        c=complex(init.get("re_c", 0.0), init.get("im_c", 0.0)))
    init_cm = None
    if "cm_diag" in init:
        init_cm = np.diag([float(x) for x in init["cm_diag"]])

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
        init_moments=init_moments, init_cm=init_cm,
        first_moment_source=doc.get("first_moment_source", "ode"),
        sample_periods=float(doc.get("sample_periods", 2.0)),
        samples_per_period=int(doc.get("samples_per_period", 200)),
        wigner_times=tuple(float(t) for t in doc.get("wigner_times", [])),
        raw=doc)


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Measures extraction
# ---------------------------------------------------------------------------

def measures_from_cm_series(t: np.ndarray, vs: np.ndarray) -> dict:
    en, physical = log_negativity_stack(reduce_atom_mirror_stack(vs))
    if not physical.all():
        raise NonPhysical("reduced CM is not a valid two-mode covariance "
                          f"matrix at t = {t[np.argmin(physical)]:g}")
    r_db = np.array([squeezing_parameter(v[:2, :2])[2] for v in vs])
    return {"t": t, "EN": en, "v11": vs[:, 0, 0], "v22": vs[:, 1, 1],
            "neff": (vs[:, 0, 0] + vs[:, 1, 1] - 1.0) / 2.0, "r_db": r_db}


def _principal_axis_columns(vs: np.ndarray) -> np.ndarray:
    """(theta, lam_minus, lam_plus, r_db) columns of the mechanical
    squeezing ellipse of each CM: its major-axis angle, the two CM
    eigenvalues and the squeezing in dB."""
    rows = []
    for v in vs:
        mech = v[:2, :2]
        lam, _, r_db = squeezing_parameter(mech)
        rows.append((principal_axis_angle(mech), lam,
                     float(np.trace(mech)) - lam, r_db))
    return np.array(rows).T


def _moment_source(cfg: ExperimentConfig, drive: DriveSpec):
    """Mean-value source for drift assembly when not co-integrating."""
    if cfg.first_moment_source == "floquet":
        sol = floquet_recurse(cfg.params, drive, cfg.j_max, cfg.n_max)
        return floquet_mean_source(sol, cfg.params.g)
    if cfg.first_moment_source == "engineered":
        if cfg.engineered is None:
            raise ValueError("'engineered' source needs a coupling target")
        return engineered_mean_source(cfg.params, cfg.engineered)
    return "ode"


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------

def _window(cfg: ExperimentConfig, drive: DriveSpec
            ) -> tuple[float, np.ndarray]:
    """(t_end, sample times) of a modulated run."""
    tau = drive.period
    t_end = cfg.horizon_periods * tau
    t0 = max(0.0, t_end - cfg.sample_periods * tau)
    n_samples = max(2, int(cfg.sample_periods * cfg.samples_per_period))
    t_eval = np.linspace(t0, t_end, n_samples)
    if cfg.wigner_times:
        t_eval = np.unique(np.concatenate((t_eval, cfg.wigner_times)))
    return t_end, t_eval


def stability_report(cfg: ExperimentConfig
                     ) -> tuple[dict, PeriodicState | None]:
    """(what stability.json holds, the periodic solve made or None).

    A constant drive is judged by the Hurwitz test of the drift at its
    working point, a modulated one by the Floquet multipliers of the
    periodic state at the window's first time, whatever the mean source
    (see stability_check).  Raises the periodic solve's SimulationError
    when the cycle cannot be found.
    """
    drive = cfg.resolved_drive()
    if drive.big_omega == 0.0:
        fm, params = steady_state_constant(cfg.params, drive.component(0),
                                           cfg.delta_a_effective)
        return stability_check(build_drift(params, fm.q, fm.a)), None
    periodic = periodic_state(cfg.params, drive,
                              float(_window(cfg, drive)[1][0]),
                              cfg.numerics, cfg.j_max, cfg.n_max)
    return stability_check(periodic), periodic


def _write_measures(cfg: ExperimentConfig, out_dir: Path, written: dict,
                    t: np.ndarray, vs: np.ndarray) -> None:
    """cm.csv (if asked for), measures.csv and the Wigner grids."""
    if "cm" in cfg.outputs:
        path = out_dir / "cm.csv"
        write_cm_csv(path, t, vs)
        written["cm"] = path
    series = measures_from_cm_series(t, vs)
    path = out_dir / "measures.csv"
    write_measures_csv(path, series["t"], series["EN"], series["v11"],
                       series["v22"], series["neff"], series["r_db"])
    written["measures"] = path
    if "principal_axis" in cfg.outputs:
        path = out_dir / "principal_axis.csv"
        write_rows(path, ["t", "theta", "lam_minus", "lam_plus", "r_db"],
                   (t, *_principal_axis_columns(vs)))
        written["principal_axis"] = path
    if "wigner" not in cfg.outputs:
        return
    for k, tw in enumerate(cfg.wigner_times or (t[-1],)):
        i = int(np.argmin(np.abs(t - tw)))
        path = out_dir / f"wigner_{k}.csv"
        write_wigner_csv(path, wigner(vs[i][:2, :2]))
        written[f"wigner_{k}"] = path


def _run_constant(cfg: ExperimentConfig, out_dir: Path,
                  written: dict) -> None:
    drive = cfg.resolved_drive()
    fm, params_eff = steady_state_constant(cfg.params, drive.component(0),
                                           cfg.delta_a_effective)
    drift = build_drift(params_eff, fm.q, fm.a)
    if "stability" in cfg.outputs:
        written["stability"] = out_dir / "stability.json"
        written["stability"].write_text(
            json.dumps(stability_check(drift), indent=2))
    if "first_moments" in cfg.outputs:
        path = out_dir / "first_moments.csv"
        write_trajectory_csv(path, [0.0], [fm.q], [fm.p], [fm.a], [fm.c])
        written["first_moments"] = path
    if not any(o in cfg.outputs for o in MEASURE_OUTPUTS):
        return
    v = steady_state_lyapunov(drift, build_diffusion(params_eff))
    _write_measures(cfg, out_dir, written, np.array([0.0]), v[np.newaxis])


def _periodic_start(cfg: ExperimentConfig, drive: DriveSpec, source,
                    t_eval: np.ndarray) -> PeriodicState | None:
    """Periodic solve at the window's first time, which can only shorten
    the run when the means are co-integrated and the window starts after
    t = 0.  None otherwise, or when the cycle cannot be found."""
    t0 = float(t_eval[0])
    if source != "ode" or t0 <= 0.0:
        return None
    try:
        return periodic_state(cfg.params, drive, t0, cfg.numerics,
                              cfg.j_max, cfg.n_max)
    except SimulationError:
        return None


def _cm_window(cfg: ExperimentConfig, drive: DriveSpec, source,
               t_end: float, t_eval: np.ndarray,
               periodic: PeriodicState | None) -> LyapunovTrajectory:
    """CM over t_eval, which ends at t_end.

    Only the window is integrated when the means are co-integrated and
    the periodic state passes its gate (see PeriodicState); otherwise the
    CM is integrated from t = 0.
    """
    if source == "ode" and periodic is not None and periodic.usable:
        return integrate_lyapunov(cfg.params, drive, "ode", periodic.v,
                                  t_end, t_eval=t_eval, cfg=cfg.numerics,
                                  moment_init=FirstMoments.from_vector(
                                      periodic.y),
                                  t_start=float(t_eval[0]))
    return integrate_lyapunov(cfg.params, drive, source, cfg.init_cm,
                              t_end, t_eval=t_eval, cfg=cfg.numerics,
                              moment_init=cfg.init_moments)


def _run_modulated(cfg: ExperimentConfig, out_dir: Path,
                   written: dict) -> None:
    drive = cfg.resolved_drive()
    t_end, t_eval = _window(cfg, drive)
    source = _moment_source(cfg, drive)

    if "first_moments" in cfg.outputs:
        traj = integrate_first_moments(cfg.params, drive,
                                       cfg.init_moments, t_end,
                                       t_eval=t_eval, cfg=cfg.numerics)
        path = out_dir / "first_moments.csv"
        write_trajectory_csv(path, traj.t, traj.q, traj.p, traj.a, traj.c)
        written["first_moments"] = path

    measured = any(o in cfg.outputs for o in MEASURE_OUTPUTS)
    if "stability" in cfg.outputs:
        stab, periodic = stability_report(cfg)
        written["stability"] = out_dir / "stability.json"
        written["stability"].write_text(json.dumps(stab, indent=2))
    elif measured:
        periodic = _periodic_start(cfg, drive, source, t_eval)
    if not measured:
        return
    lt = _cm_window(cfg, drive, source, t_end, t_eval, periodic)
    _write_measures(cfg, out_dir, written, lt.t, lt.v)


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path,
                   jobs: int = 1) -> dict:
    """Execute the configured pipeline; returns {output name: path}."""
    report = cfg.validate()
    if report:
        raise ValueError("invalid configuration: " + "; ".join(report))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict = {}

    manifest = {"version": __version__, "config": cfg.raw or _echo(cfg)}
    if cfg.engineered is not None:
        drv = cfg.resolved_drive()
        manifest["resolved_drive"] = drive_to_dict(drv)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, default=str))
    written["manifest"] = path

    if cfg.sweep:
        written["sweep"] = run_sweep(cfg, out_dir / "sweep.csv", jobs)
        return written
    if not cfg.outputs:
        return written
    drive = cfg.resolved_drive()
    if drive.big_omega == 0.0:
        _run_constant(cfg, out_dir, written)
    else:
        _run_modulated(cfg, out_dir, written)
    return written


def _echo(cfg: ExperimentConfig) -> dict:
    return {"params": dataclasses.asdict(cfg.params),
            "outputs": list(cfg.outputs)}


def drive_to_dict(drive: DriveSpec) -> dict:
    return {"Omega": drive.big_omega,
            "components": [{"n": n, "re": en.real, "im": en.imag}
                           for n, en in sorted(drive.components.items())]}


# ---------------------------------------------------------------------------
# Source comparison
# ---------------------------------------------------------------------------

def compare_sources(cfg: ExperimentConfig) -> dict[str, float]:
    """Max relative deviation ODE vs Floquet over the final two periods."""
    drive = cfg.resolved_drive()
    if drive.big_omega <= 0:
        raise ValueError("source comparison needs a modulated drive")
    tau = drive.period
    t_end = cfg.horizon_periods * tau
    t_eval = np.linspace(t_end - 2.0 * tau, t_end, 400)
    traj = integrate_first_moments(cfg.params, drive, cfg.init_moments,
                                   t_end, t_eval=t_eval, cfg=cfg.numerics)
    sol = floquet_recurse(cfg.params, drive, cfg.j_max, cfg.n_max)
    series = sol.evaluate(cfg.params.g, t_eval)
    numeric = {"q": traj.q, "p": traj.p, "a": traj.a, "c": traj.c}
    out = {}
    for obs in ("q", "p", "a", "c"):
        ref = numeric[obs]
        dev = np.abs(series[obs] - ref) / np.maximum(1.0, np.abs(ref))
        out[obs] = float(np.max(dev))
    return out


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

# Constant-drive sweep cells are solved this many at a time as stacked
# arrays; the block's (cells, 36, 36) Kronecker stack takes 2.7 MB.
SWEEP_BLOCK = 256


def _apply_param(params: SystemParams, name: str,
                 value: float) -> SystemParams:
    if name == "G0":
        return replace(params, g0_collective=value)
    if name in _PARAM_KEYS:
        return replace(params, **{name: value})
    raise KeyError(name)


def _apply_axis(cfg: ExperimentConfig, name: str,
                value: float) -> ExperimentConfig:
    if name in ("E", "E0"):
        drive = cfg.resolved_drive()
        comps = dict(drive.components)
        comps[0] = complex(value)
        return replace(cfg, drive=DriveSpec(big_omega=drive.big_omega,
                                            components=comps),
                       engineered=None)
    return replace(cfg, params=_apply_param(cfg.params, name, value))


def _cell_status(error: SimulationError | None, physical: bool = True):
    if isinstance(error, (NotStable, Diverged)):
        return "unstable"
    if error is not None:
        return f"error:{type(error).__name__}"
    return "stable" if physical else "error:NonPhysical"


def _constant_cells(cfg: ExperimentConfig, points) -> list[tuple[str, float]]:
    """(status, EN) of constant-drive cells, one (params, E0) point each.

    Each cell's working point is found on its own; the drift and
    diffusion matrices there are then solved as one stack, in which a
    failing cell flags only itself (its EN is NaN).
    """
    failed, drifts, diffusions = [], [], []
    for params, e0 in points:
        try:
            fm, eff = steady_state_constant(params, e0,
                                            cfg.delta_a_effective)
            drifts.append(build_drift(eff, fm.q, fm.a))
            diffusions.append(build_diffusion(eff))
            failed.append(None)
        except SimulationError as exc:
            # a NaN drift, which the stack flags; exc keeps the status
            drifts.append(np.full((6, 6), np.nan))
            diffusions.append(np.zeros((6, 6)))
            failed.append(exc)
    v, errors = lyapunov_stack(np.array(drifts), np.array(diffusions))
    en, physical = log_negativity_stack(reduce_atom_mirror_stack(v))
    return [(_cell_status(exc or error, ok), value) for exc, error, ok, value
            in zip(failed, errors, physical, en.tolist())]


def evaluate_cell(cfg: ExperimentConfig) -> tuple[str, float]:
    """(status, EN) for one sweep cell; failures flagged, not raised.

    A modulated cell whose periodic solve ran and found a Floquet
    multiplier on or outside the unit circle is unstable.
    """
    drive = cfg.resolved_drive()
    if drive.big_omega == 0.0:
        return _constant_cells(cfg, [(cfg.params, drive.component(0))])[0]
    tau = drive.period
    t_end = cfg.horizon_periods * tau
    t_eval = np.linspace(t_end - tau, t_end, cfg.samples_per_period)
    try:
        periodic = _periodic_start(cfg, drive, "ode", t_eval)
        if periodic is not None and periodic.max_multiplier >= 1.0:
            return "unstable", float("nan")
        lt = _cm_window(cfg, drive, "ode", t_end, t_eval, periodic)
    except SimulationError as exc:
        return _cell_status(exc), float("nan")
    en, physical = log_negativity_stack(reduce_atom_mirror_stack(lt.v))
    return _cell_status(None, physical.all()), float(np.max(en))


def _cell_worker(args):
    cfg, values = args
    for ax, val in values:
        cfg = _apply_axis(cfg, ax.name, val)
    return evaluate_cell(cfg)


def _constant_points(params: SystemParams, e0: complex, cells):
    """(params, E0) of each constant-drive cell.

    Each distinct combination of parameter-axis values builds its
    SystemParams once, and the cells that share it share the object.
    """
    built, points = {}, []
    for values in cells:
        e = e0
        key = []
        for ax, val in values:
            if ax.name in ("E", "E0"):
                e = complex(val)
            else:
                key.append((ax.name, val))
        key = tuple(key)
        if key not in built:
            cell_params = params
            for name, val in key:
                cell_params = _apply_param(cell_params, name, val)
            built[key] = cell_params
        points.append((built[key], e))
    return points


def run_sweep(cfg: ExperimentConfig, out_path: Path, jobs: int = 1) -> Path:
    """Grid sweep over 1 or 2 axes; one CSV row per cell, ordered.

    Constant-drive cells are solved in this process, SWEEP_BLOCK at a
    time as stacked arrays.  Modulated cells, one ODE run each, go to a
    pool of jobs processes when jobs > 1.
    """
    cells = list(product(*([(ax, float(v)) for v in ax.values()]
                           for ax in cfg.sweep)))
    drive = cfg.resolved_drive()
    if drive.big_omega == 0.0:
        points = _constant_points(cfg.params, drive.component(0), cells)
        results = [cell for lo in range(0, len(points), SWEEP_BLOCK)
                   for cell in _constant_cells(cfg,
                                               points[lo:lo + SWEEP_BLOCK])]
    elif jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_cell_worker, [(cfg, v) for v in cells],
                                    chunksize=4))
    else:
        results = [_cell_worker((cfg, values)) for values in cells]
    rows = [[v for _, v in values] + list(result)
            for values, result in zip(cells, results)]
    header = [ax.name for ax in cfg.sweep] + ["status", "EN"]
    write_rows(out_path, header, list(zip(*rows)))
    return out_path
