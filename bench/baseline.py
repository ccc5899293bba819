"""Measure the benchmark's baseline and record it in bench/record.json.

Usage (from the repository root):

    python3 bench/baseline.py

Takes two sets of runs, one after the other: each set runs ``bench/run.py``
once per seed and workload with ``--trace 0``.  Stores, per set, every
value, the median, the quartiles and the spread (interquartile range over
median) of each end-to-end metric, and the change of each second-set
median against the first.  The first set also takes one ``--trace 1`` run
per workload, with seed TRACED_SEED, and records the environment and the
exact workload configs.  The hand-written parts of record.json are kept.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "record.json"
SEEDS = list(range(1, 11))
TRACED_SEED = 1


def bench(workload: str, seed: int, seconds: int, trace: int):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit "
                         f"{done.returncode}\n{done.stderr}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def spread_summary(values: dict[str, list[float]],
                   bounds: dict[str, float]) -> dict[str, dict]:
    out = {}
    for m, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        out[m] = {"median": med, "q1": q1, "q3": q3,
                  "spread": (q3 - q1) / med, "bound": bounds[m],
                  "values": vals}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    sys.path.insert(0, str(ROOT / "src"))
    from optomech.recipes import load_recipe
    from check import dump_json
    from workloads import resolved_doc, workload_spec

    record = json.loads(RECORD.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in names:
        record["baseline"][name] = {"seeds": SEEDS, "sets": []}
    for set_no in (1, 2):
        for name in names:
            t0 = time.time()
            values = {m: [] for m in bounds}
            runs = []
            for seed in SEEDS:
                detail, result = bench(name, seed, spec["run_seconds"], 0)
                runs.append({"seed": seed, "correct": result["correct"],
                             "attempted": result["attempted"],
                             "failed": result["failed"],
                             "repetitions": detail["repetitions"]})
                for m in bounds:
                    values[m].append(result["metrics"][m]["value"])
                print(f"set {set_no} {name} seed {seed}: " + ", ".join(
                    f"{m}={values[m][-1]:.4g}" for m in bounds), flush=True)
            summary = spread_summary(values, bounds)
            entry = record["baseline"][name]
            entry["sets"].append({"runs": runs, "end_to_end": summary,
                                  "wall_s": time.time() - t0})
            if set_no == 1:
                detail, traced = bench(name, TRACED_SEED,
                                       spec["run_seconds"], 1)
                first = workload_spec(name, SEEDS[0])
                record["environment"] = detail["environment"]
                record["workloads"][name]["config"] = {
                    "seed": SEEDS[0], "jobs": first["jobs"],
                    "doc": resolved_doc(first, load_recipe)}
                entry["traced"] = {
                    "seed": TRACED_SEED, "correct": traced["correct"],
                    "metrics": {k: v["value"] for k, v in
                                traced["metrics"].items()}}
            else:
                # second median against the first, as a share of the first
                before = entry["sets"][0]["end_to_end"]
                entry["agreement"] = {
                    m: {"change": s["median"] / before[m]["median"] - 1,
                        "bound": bounds[m],
                        "within": (abs(s["median"] / before[m]["median"] - 1)
                                   <= bounds[m])}
                    for m, s in summary.items()}
            RECORD.write_text(dump_json(record))
            for m, s in summary.items():
                change = entry.get("agreement", {}).get(m, {}).get("change")
                print(f"set {set_no} {name} {m}: median {s['median']:.4g} "
                      f"spread {s['spread']:.3f} (bound {s['bound']})"
                      + (f" change {change:+.3f}" if change is not None
                         else ""), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
