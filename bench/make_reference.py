"""Regenerate the stored references of the asymptote and transient workloads.

Usage:  python3 bench/make_reference.py

Each reference keeps strided rows of every output CSV plus the stability
verdict.  The asymptote reference is verified against a run of twice the
horizon: the last sampled periods of both runs must agree within the
stated tolerance, so a method that jumps straight to the periodic
asymptote passes the same check.  BLAS is pinned to one thread.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RTOL = {"asymptote": 1e-5, "transient": 1e-6}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def main() -> int:
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import numpy as np
    from optomech import experiment, recipes
    from check import REFERENCE_DIR, compare_snapshot, dump_json, snapshot
    from workloads import resolved_doc, workload_spec

    work = root / ".bench_run" / "reference"

    def run(doc: dict, name: str) -> Path:
        out = work / name
        shutil.rmtree(out, ignore_errors=True)
        experiment.run_experiment(experiment.config_from_dict(doc), out)
        return out

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in RTOL:
        doc = resolved_doc(workload_spec(name, 0), recipes.load_recipe)
        ref = {"workload": name, "rtol": RTOL[name],
               **snapshot(run(doc, name))}
        if name == "asymptote":
            long_doc = dict(doc, horizon_periods=2 * doc["horizon_periods"])
            long_out = run(long_doc, name + "-2x")
            # Same phase, later window: compare all but the time column.
            shift = doc["horizon_periods"] * 2 * np.pi / doc["drive"]["Omega"]
            shifted = json.loads(json.dumps(ref))
            worst = 0.0
            for f in shifted["files"].values():
                for row in f["values"]:
                    row[0] += shift
            problems = compare_snapshot(shifted, long_out)
            long_snap = snapshot(long_out)
            for fname, f in ref["files"].items():
                a = np.array(f["values"])[:, 1:]
                b = np.array(long_snap["files"][fname]["values"])[:, 1:]
                scale = np.maximum(np.max(np.abs(a), axis=0), 1e-300)
                worst = max(worst, float(np.max(np.abs(a - b) / scale)))
            ref["verified_2x_horizon"] = {
                "horizon_periods": long_doc["horizon_periods"],
                "max_column_scaled_error": worst,
                "passes": not problems}
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(dump_json(ref))
        print(f"{path}: {sum(len(f['rows']) for f in ref['files'].values())}"
              f" rows" + (f", 2x-horizon error "
                          f"{ref['verified_2x_horizon']['max_column_scaled_error']:.3g}"
                          if "verified_2x_horizon" in ref else ""))
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
