"""optomech benchmark: time recipe runs end to end, check their outputs.

Usage (from the repository root):

    python3 bench/run.py --workload asymptote|transient|sweep
                         --seed N --seconds S --trace 0|1

Every repetition is a fresh ``bench/rep.py`` process that imports
optomech from ``src/``, loads the workload's recipe and overlay, and calls
``experiment.run_experiment``.  Repetitions are started until about
``--seconds`` have been measured; every repetition's outputs are checked
(stored reference, or the independent oracle for the sweep).  Set-up-only
starts between them add samples of ``setup_s``.

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions, times at reference host speed (see CAL_REF_S).
``--trace 1`` alternates untraced and traced repetitions, both with one
process (plus, for the sweep, a pooled one timing only ``run_sweep``),
and reports the per-layer split; the spans and counters of every traced
repetition go to ``.bench_trace/<workload>-seed<N>.json``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds medians, quartiles, sample counts and the
environment.  Exits 2 without a result when optomech's sources are absent
and 1 when no repetition completed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_run"
TRACE_DIR = ROOT / ".bench_trace"
RUN_DEADLINE_S = 165.0     # a run must exit within 180 s
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}
# Detail-line companions of the end-to-end times: as measured, and the
# calibration kernel's time in the same process.
RAW = ("run_s_raw", "setup_s_raw", "cpu_s_raw", "cal_s")
SETUP_KEYS = ("setup_s", "setup_s_raw")
# Set-up-only starts after each cycle of repetitions: set-up is short, so
# a run needs more samples of it than of the run itself.
SETUPS_PER_CYCLE = 2
# Calibration kernel time (rep.kernel) on the baseline host when it is
# quiet.  End-to-end times are reported at this host speed: measured time
# * CAL_REF_S / the repetition's kernel time (see at_reference_speed).
CAL_REF_S = 0.0045
PER_LAYER = {
    "numerics.integrate_adaptive.s": "s",
    "numerics.nfev": "count",
    "numerics.rhs.s": "s",
    "numerics.stepper.s": "s",
    "model.drive_value.calls": "count",
    "model.drive_value.s": "s",
    "fluctuations.build_drift.calls": "count",
    "fluctuations.build_drift.s": "s",
    "fluctuations.integrate_lyapunov.s": "s",
    "fluctuations.stability_check.s": "s",
    "moments.floquet_recurse.s": "s",
    "moments.steady_state_constant.s": "s",
    "fluctuations.steady_state_lyapunov.s": "s",
    "measures.log_negativity.s": "s",
    "experiment.evaluate_cell.calls": "count",
    "experiment.evaluate_cell.s": "s",
    "experiment.sweep_parallel_eff": "ratio",
    "engineering.transient_first_moments.calls": "count",
    "engineering.transient_first_moments.s": "s",
    "engineering.modulation_components.s": "s",
    "moments.integrate_first_moments.s": "s",
    "experiment.measures_from_cm_series.s": "s",
    "measures.wigner.s": "s",
    "tables.write_rows.s": "s",
    "tables.rows": "count",
    "tables.bytes": "B",
    "setup.import.s": "s",
    "setup.config.s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}
# Span functions whose total duration is a per-layer metric.
SPAN_METRICS = ("numerics.integrate_adaptive", "fluctuations.integrate_lyapunov",
                "fluctuations.stability_check", "moments.floquet_recurse",
                "engineering.modulation_components",
                "moments.integrate_first_moments",
                "experiment.measures_from_cm_series", "measures.wigner",
                "tables.write_rows")
# Aggregate functions reported with their call count and total time.
COUNTED = ("model.drive_value", "fluctuations.build_drift",
           "experiment.evaluate_cell", "engineering.transient_first_moments")
TIMED = ("moments.steady_state_constant",
         "fluctuations.steady_state_lyapunov", "measures.log_negativity")


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_PINS}


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

class Runner:
    """Starts repetitions of one workload and checks their outputs."""

    def __init__(self, workload: str, spec: dict, run_dir: Path,
                 deadline: float):
        from check import load_reference, sweep_oracle
        from workloads import resolved_doc
        sys.path.insert(0, str(ROOT / "src"))
        from optomech.recipes import load_recipe

        self.workload = workload
        self.run_dir = run_dir
        self.deadline = deadline
        self.spec_path = run_dir / "spec.json"
        self.spec_path.write_text(json.dumps(spec))
        self.env = {**os.environ, **BLAS_PINS}
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        if workload == "sweep":
            doc = resolved_doc(spec, load_recipe)
            self.expected = sweep_oracle(doc)
            self.ops = len(self.expected)
        else:
            self.reference = load_reference(workload)
            self.ops = 1

    def _start(self, out: Path, result: Path, mode: str):
        cmd = [sys.executable, str(HERE / "rep.py"),
               "--spec", str(self.spec_path), "--out", str(out),
               "--result", str(result), "--mode", mode]
        t_spawn = clock()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT,
                                stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - clock()))
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return t_spawn, code

    @staticmethod
    def _setup_times(res: dict, mode: str, t_spawn: float) -> dict:
        res["mode"] = mode
        res["setup_import_s"] = res["t_import"] - t_spawn
        res["setup_config_s"] = res["t_config"] - res["t_import"]
        # ends before the calibration solves that precede the call
        res["setup_s"] = res["t_config"] - t_spawn
        return res

    def setup_only(self) -> dict | None:
        """A start that sets up and exits; None when it failed."""
        result_path = self.run_dir / "setup.json"
        t_spawn, code = self._start(self.run_dir / "setup", result_path,
                                    "setup")
        if code != 0 or not result_path.exists():
            self.problems.append(f"set-up start: exit {code}")
            return None
        res = json.loads(result_path.read_text())
        result_path.unlink()
        return self._setup_times(res, "setup", t_spawn)

    def rep(self, mode: str) -> dict | None:
        """One repetition; returns its measurements, None when it failed."""
        from check import compare_snapshot, compare_sweep
        self.count += 1
        out = self.run_dir / f"rep{self.count}"
        result_path = self.run_dir / f"rep{self.count}.json"
        t_spawn, code = self._start(out, result_path, mode)
        self.attempted += self.ops
        if code != 0 or not result_path.exists():
            self.failed += self.ops
            self.problems.append(f"rep {self.count} ({mode}): exit {code}")
            shutil.rmtree(out, ignore_errors=True)
            return None
        res = json.loads(result_path.read_text())
        if self.workload == "sweep":
            bad, problems = compare_sweep(self.expected, out / "sweep.csv")
        else:
            problems = compare_snapshot(self.reference, out)
            bad = 1 if problems else 0
        self.failed += bad
        self.problems.extend(f"rep {self.count} ({mode}): {p}"
                             for p in problems)
        shutil.rmtree(out, ignore_errors=True)
        return self._setup_times(res, mode, t_spawn)


def at_reference_speed(reps: list[dict]) -> None:
    """Scale each repetition's end-to-end times by the host's speed.

    A one-process repetition's speed is its kernel time during its run
    (``cal_s``, see rep.py).  A pooled repetition takes no samples during
    its run, and the few timings around it do not follow contention
    through it, so the repetitions without samples share the harmonic mean
    of all their timings.  Set-up is too short to sample, and it slows with
    more than the kernel does, so every ``setup_s`` of a run, set-up-only
    starts included, takes the run's mean speed.  The raw times are kept as
    ``*_raw``.
    """
    runs = [r for r in reps if r["mode"] != "setup"]
    pooled = [r["cal_s"] for r in runs if not r["cal_samples"]]
    shared = statistics.harmonic_mean(pooled) if pooled else None
    for r in runs:
        cal = r["cal_s"] if r["cal_samples"] else shared
        for name in ("run_s", "cpu_s"):
            r[name + "_raw"] = r[name]
            r[name] *= CAL_REF_S / cal
    speed = CAL_REF_S / statistics.harmonic_mean(r["cal_s"] for r in runs)
    for r in reps:
        r["setup_s_raw"] = r["setup_s"]
        r["setup_s"] *= speed


def measure(runner: Runner, cycle: tuple[str, ...],
            seconds: float) -> list[dict]:
    """Run whole cycles of repetitions for about ``seconds``.

    A cycle is one repetition of each mode, then SETUPS_PER_CYCLE set-up-
    only starts.  Another cycle starts while at least half of a typical
    cycle fits the budget, so runs end on average at ``seconds``.
    """
    reps = []
    cycle_walls = []
    start = clock()
    while True:
        t0 = clock()
        for mode in cycle:
            res = runner.rep(mode)
            if res is not None:
                reps.append(res)
        for _ in range(SETUPS_PER_CYCLE):
            res = runner.setup_only()
            if res is not None:
                reps.append(res)
        cycle_walls.append(clock() - t0)
        if clock() - start + statistics.median(cycle_walls) / 2 > seconds:
            return reps


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def summary(values: list[float]) -> dict:
    values = list(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def end_to_end(reps: list[dict]) -> dict[str, dict]:
    runs = [r for r in reps if r["mode"] != "setup"]
    return {name: summary([r[name] for r in
                           (reps if name in SETUP_KEYS else runs)])
            for name in (*END_TO_END, *RAW)}


def layer_values(res: dict) -> dict[str, float]:
    """Per-layer values of one traced repetition."""
    from layertrace import covered_seconds, span_seconds
    tr = res["trace"]

    def counter(qual, key):
        return tr["counters"].get(qual, {key: 0})[key]

    out = {f"{q}.s": span_seconds(tr, q) for q in SPAN_METRICS}
    for q in COUNTED:
        out[f"{q}.calls"] = counter(q, "calls")
        out[f"{q}.s"] = counter(q, "s")
    for q in TIMED:
        out[f"{q}.s"] = counter(q, "s")
    out["numerics.nfev"] = counter("numerics.rhs", "calls")
    out["numerics.rhs.s"] = counter("numerics.rhs", "s")
    out["numerics.stepper.s"] = (out["numerics.integrate_adaptive.s"]
                                 - out["numerics.rhs.s"])
    out["tables.rows"] = tr["rows"]
    out["tables.bytes"] = tr["bytes"]
    out["trace.unattributed_s"] = res["run_s_raw"] - covered_seconds(tr)
    return out


def per_layer(reps: list[dict]) -> dict[str, dict]:
    serial = [r for r in reps if r["mode"] == "serial"]
    traced = [r for r in reps if r["mode"] == "traced"]
    pooled = [r for r in reps if r["mode"] == "pooled"]
    per_rep = [layer_values(r) for r in traced]
    out = {name: summary([v[name] for v in per_rep])
           for name in per_rep[0]}
    out["setup.import.s"] = summary([r["setup_import_s"] for r in reps])
    out["setup.config.s"] = summary([r["setup_config_s"] for r in reps])
    out["trace.run_s"] = summary([r["run_s_raw"] for r in traced])
    # a difference between repetitions, so taken at reference host speed
    out["trace.overhead_s"] = summary(
        [statistics.median(r["run_s"] for r in traced)
         - statistics.median(r["run_s"] for r in serial)])
    if pooled:
        from layertrace import span_seconds
        sweep_s = statistics.median(
            span_seconds(r["trace"], "experiment.run_sweep") for r in pooled)
        effs = [v["experiment.evaluate_cell.s"] / (pooled[0]["jobs"] * sweep_s)
                for v in per_rep]
    else:
        effs = [0.0]     # no process pool in this workload
    out["experiment.sweep_parallel_eff"] = summary(effs)
    return out


def main() -> int:
    from workloads import SPECS, workload_spec

    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "optomech" / "__init__.py").is_file():
        print(f"optomech sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = clock() + RUN_DEADLINE_S
    spec = workload_spec(args.workload, args.seed)
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        runner = Runner(args.workload, spec, run_dir, deadline)
        runner.setup_only()     # untimed: compiles bytecode, fills caches
        if not args.trace:
            cycle = ("plain",)
        elif args.workload == "sweep":
            cycle = ("serial", "traced", "pooled")
        else:
            cycle = ("serial", "traced")
        reps = measure(runner, cycle, args.seconds)
        if reps:
            at_reference_speed(reps)
        modes = {r["mode"] for r in reps}
        if not set(cycle) <= modes:
            print("\n".join(runner.problems), file=sys.stderr)
            print(f"no completed repetition of kind {set(cycle) - modes}",
                  file=sys.stderr)
            return 1
        if args.trace:
            stats = per_layer(reps)
            units = PER_LAYER
            TRACE_DIR.mkdir(exist_ok=True)
            (TRACE_DIR / f"{args.workload}-seed{args.seed}.json").write_text(
                json.dumps({"workload": args.workload, "seed": args.seed,
                            "spec": spec, "reps": reps}))
        else:
            stats = end_to_end(reps)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    if runner.problems:
        print("\n".join(runner.problems[:20]), file=sys.stderr)
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed, "spec": spec,
        "environment": environment(),
        "repetitions": sum(r["mode"] != "setup" for r in reps),
        "stats": stats}}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
