"""One repetition of a benchmark workload, in a fresh process.

Usage (started by run.py, which sets the BLAS thread pins):

    python3 bench/rep.py --spec SPEC.json --out DIR
        --result RESULT.json --mode plain|serial|traced|pooled|setup

Modes: ``plain`` runs the workload as specified; ``serial`` forces one
process; ``traced`` is ``serial`` with every layer traced; ``pooled`` is
``plain`` with only ``run_sweep`` timed; ``setup`` imports and configures
as ``plain`` does and exits without a run.

Host speed is measured with a calibration kernel, timed on each CPU the
run may use before and after the run.  A one-process repetition is pinned
to one CPU and also times the kernel every SAMPLE_EVERY seconds during the
run (see Sampler); those samples, which follow host contention through
the run, then give its speed.

Clock stamps use CLOCK_MONOTONIC, which is shared by all processes of the
machine, so the parent can subtract the time at which it started us.
"""

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
CAL_SPAN = 1.0        # time span of the calibration solve (~4 ms)
CAL_SAMPLES = 10      # kernel timings per CPU, before and after the run each
SAMPLE_EVERY = 0.2    # seconds between kernel timings during the run


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def kernel() -> float:
    """Seconds for a fixed RK45 solve shaped like optomech's hot loop.

    SciPy's stepper over a 36-entry covariance ODE whose RHS makes small
    NumPy calls and a complex drive evaluation from Python, as every RHS
    evaluation of the workloads does.  The code is the benchmark's own, so
    a change to optomech cannot change it.
    """
    import numpy as np
    from scipy.integrate import solve_ivp
    a = np.array([[-0.1, 1.0, 0.0, 0.0, 0.0, 0.0],
                  [-1.0, -0.1, 0.2, 0.0, 0.0, 0.0],
                  [0.0, 0.0, -0.5, 1.0, 0.0, 0.3],
                  [0.0, 0.0, -1.0, -0.5, -0.3, 0.0],
                  [0.0, 0.0, 0.0, 0.3, -0.2, -1.0],
                  [0.0, 0.0, -0.3, 0.0, 1.0, -0.2]])
    d = np.diag([0.0, 0.1, 0.5, 0.5, 0.2, 0.2])

    def rhs(t, y):
        m = a.copy()
        m[1, 2] += 0.1 * np.exp(-2j * t).real
        v = y.reshape(6, 6)
        v = 0.5 * (v + v.T)
        return (m @ v + v @ m.T + d).ravel()

    t0 = clock()
    solve_ivp(rhs, (0.0, CAL_SPAN), np.eye(6).ravel(), method="RK45",
              rtol=1e-9, atol=1e-12, max_step=0.1)
    return clock() - t0


def calibrate(cpus: set[int]) -> list[float]:
    """Kernel timings on each CPU of the set, restoring the affinity."""
    times = []
    for c in sorted(cpus):
        os.sched_setaffinity(0, {c})
        times += [kernel() for _ in range(CAL_SAMPLES)]
    os.sched_setaffinity(0, cpus)
    return times


class Sampler:
    """Times the kernel every SAMPLE_EVERY seconds while the run goes on.

    A SIGALRM handler runs the kernel between the run's own bytecodes, on
    the CPU the run uses.  The wall and CPU time the samples take are kept
    so they can be subtracted from the run's.  The timer is re-armed by the
    handler, so samples never nest under heavy contention.
    """

    def __init__(self):
        self.times: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0
        self.on = False

    def clock(self) -> float:
        """Time that stops while a sample runs."""
        return clock() - self.wall

    def _sample(self, signum, frame):
        if not self.on:
            return
        w0, c0 = clock(), time.process_time()
        self.times.append(kernel())
        self.wall += clock() - w0
        self.cpu += time.process_time() - c0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY)

    def start(self) -> None:
        self.on = True
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY)

    def stop(self) -> None:
        self.on = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spec", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--mode", default="plain",
                    choices=("plain", "serial", "traced", "pooled", "setup"))
    args = ap.parse_args()

    spec = json.loads(Path(args.spec).read_text())
    jobs = 1 if args.mode in ("serial", "traced") else spec["jobs"]
    cpus = os.sched_getaffinity(0)
    if jobs == 1:
        cpus = {min(cpus)}
        os.sched_setaffinity(0, cpus)

    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from optomech import experiment, recipes
    from workloads import resolved_doc
    t_import = clock()

    cfg = experiment.config_from_dict(resolved_doc(spec, recipes.load_recipe))
    report = cfg.validate()
    if report:
        raise SystemExit("invalid workload config: " + "; ".join(report))
    t_config = clock()
    if args.mode == "setup":
        Path(args.result).write_text(json.dumps({
            "t_start": T_START, "t_import": t_import, "t_config": t_config}))
        return 0

    sampler = Sampler()
    tracer = None
    if args.mode in ("traced", "pooled"):
        from layertrace import Tracer
        tracer = (Tracer(clock=sampler.clock) if args.mode == "traced"
                  else Tracer(names=("experiment.run_sweep",)))
        tracer.install()

    before = calibrate(cpus)
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t_call = clock()
    try:
        # Samples in a pooled run would compete with its workers.
        if jobs == 1:
            sampler.start()
        experiment.run_experiment(cfg, args.out, jobs=jobs)
        t_done = clock()
    finally:
        sampler.stop()
        if tracer is not None:
            tracer.restore()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    after = calibrate(cpus)

    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest
    # worker, so the tree peak is bounded by self + jobs * worker.
    rss_kib = usage1.ru_maxrss + (jobs * workers.ru_maxrss
                                  if jobs > 1 else 0)
    result = {
        "t_start": T_START, "t_import": t_import, "t_config": t_config,
        "t_call": t_call, "t_done": t_done,
        "run_s": t_done - t_call - sampler.wall,
        "cpu_s": cpu(usage1) - cpu(usage0) + cpu(workers) - sampler.cpu,
        "peak_rss_mb": rss_kib / 1024.0,
        "jobs": jobs,
        # Harmonic means: samples come evenly in time, and the work done in
        # a stretch of time goes as one over the kernel time in it.  A run
        # that took no sample uses the timings around it, on all its CPUs.
        "cal_s": statistics.harmonic_mean(sampler.times or before + after),
        "cal_samples": len(sampler.times),
    }
    if tracer is not None:
        result["trace"] = tracer.to_dict()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
