"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from layertrace import Tracer, covered_seconds  # noqa: E402
from workloads import workload_spec  # noqa: E402


def _optomech_attributes() -> dict:
    import optomech.cli  # noqa: F401  (import every caller module)
    return {(name, key): val for name, mod in sys.modules.items()
            if name == "optomech" or name.startswith("optomech.")
            for key, val in vars(mod).items() if callable(val)}


def _write_from_snapshot(ref: dict, out: Path, scale_file=None,
                         factor=1.0) -> None:
    """Output files that hold the reference values on the checked rows."""
    out.mkdir(parents=True, exist_ok=True)
    for name, f in ref["files"].items():
        rows = {}
        for i, vals in zip(f["rows"], f["values"]):
            vals = np.array(vals)
            if name == scale_file:
                vals[1:] *= factor      # every column but the time
            rows[i] = ",".join(repr(float(v)) for v in vals)
        filler = next(iter(rows.values()))
        lines = [",".join(f["header"])]
        lines += [rows.get(i, filler) for i in range(f["n_rows"])]
        (out / name).write_text("\n".join(lines) + "\n")
    if "stable" in ref:
        (out / "stability.json").write_text(
            json.dumps({"stable": ref["stable"], "margin": -0.1}))


@pytest.mark.parametrize("workload,csv_name", [("asymptote", "cm.csv"),
                                               ("transient", "cm.csv"),
                                               ("transient", "wigner_1.csv")])
def test_reference_check_rejects_perturbed_output(tmp_path, workload,
                                                  csv_name):
    ref = check.load_reference(workload)
    _write_from_snapshot(ref, tmp_path / "exact")
    assert check.compare_snapshot(ref, tmp_path / "exact") == []
    _write_from_snapshot(ref, tmp_path / "scaled", csv_name, 1.0 + 1e-3)
    problems = check.compare_snapshot(ref, tmp_path / "scaled")
    assert problems and all(p.startswith(csv_name) for p in problems)


def test_reference_check_rejects_flipped_verdict(tmp_path):
    ref = check.load_reference("asymptote")
    _write_from_snapshot(ref, tmp_path)
    (tmp_path / "stability.json").write_text('{"stable": false}')
    assert check.compare_snapshot(ref, tmp_path) == [
        "stability.json: stable=False, expected True"]


def test_sweep_oracle_agrees_and_catches_perturbations(tmp_path):
    from optomech import experiment, recipes
    from workloads import resolved_doc
    doc = resolved_doc(workload_spec("sweep", 7), recipes.load_recipe)
    for ax in doc["sweep"]["axes"]:
        ax["points"] = 6
    path = tmp_path / "sweep.csv"
    experiment.run_sweep(experiment.config_from_dict(doc), path)
    expected = check.sweep_oracle(doc)
    assert {e[2] for e in expected} == {"stable", "unstable"}
    assert check.compare_sweep(expected, path) == (0, [])

    lines = path.read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if ",stable," in line)
    cells = lines[i].split(",")
    cells[3] = repr(float(cells[3]) * (1.0 + 1e-3))
    bad_en = lines[:i] + [",".join(cells)] + lines[i + 1:]
    cells[2:] = ["error:Singular", "nan"]
    bad_status = lines[:i] + [",".join(cells)] + lines[i + 1:]
    for bad_lines in (bad_en, bad_status):
        path.write_text("\n".join(bad_lines) + "\n")
        bad, problems = check.compare_sweep(expected, path)
        assert bad == 1 and len(problems) == 1


def test_tracer_counts_and_restores(tmp_path):
    from optomech import experiment, moments, numerics
    from optomech.model import DriveSpec, SystemParams
    before = _optomech_attributes()
    params = SystemParams(delta_a=1.0, kappa=2.0, gamma_m=1e-3, g=1e-5,
                          delta_c=-1.0, gamma_a=0.1, g0_collective=1.0)
    drive = DriveSpec(big_omega=2.0, components={0: 1.5e5, 1: 3e4})
    with Tracer() as tracer:
        assert moments.drive_value is not before[("optomech.model",
                                                  "drive_value")]
        assert experiment.integrate_lyapunov is not before[
            ("optomech.fluctuations", "integrate_lyapunov")]
        traj = moments.integrate_first_moments(params, drive, t_end=3.0)
        sol = numerics.integrate_adaptive(lambda t, y: -y, (0.0, 1.0),
                                          [1.0], numerics.StepperConfig())
    assert _optomech_attributes() == before
    calls = tracer.to_dict()["counters"]
    assert calls["numerics.rhs"]["calls"] > sol.nfev
    assert calls["model.drive_value"]["calls"] == (
        calls["numerics.rhs"]["calls"] - sol.nfev)
    names = [s[2] for s in tracer.spans]
    assert names == ["moments.integrate_first_moments",
                     "numerics.integrate_adaptive",
                     "numerics.integrate_adaptive"]
    # the nested stepper call has the first-moments span as its parent
    assert [s[1] for s in tracer.spans] == [None, 0, None]
    assert covered_seconds(tracer.to_dict()) > 0.0
    assert len(traj.t) > 0


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _bench("--workload", "sweep", "--seed", "3", "--seconds", "1",
                  "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 10000
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want


def test_benchmark_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
