"""Start-up stays light: importing optomech loads NumPy and optomech only.

SciPy's DOP853 loads at the first integration, so runs that reach their
samples by algebra (constant drives, the periodic asymptote) never import
scipy.integrate, and no run starts a child process: every sweep is solved
in the calling process.  Each test runs in a fresh interpreter, since
this one has SciPy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(code: str, *args: str) -> dict:
    """The JSON object that code prints last, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


IMPORTS = """
import json, sys
import optomech, optomech.experiment, optomech.cli, optomech.recipes
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy"
                        or m.startswith("concurrent.futures"))))
"""


def test_import_loads_neither_scipy_nor_the_pool():
    assert fresh(IMPORTS) == []


RUNS = """
import json, sys
from pathlib import Path
from optomech import experiment, recipes

out = Path(sys.argv[1])
loaded = {}


def run(name, **overlay):
    doc = recipes.load_recipe(name)
    doc.update(overlay)
    written = experiment.run_experiment(experiment.config_from_dict(doc),
                                        out / name)
    loaded[name] = ["scipy.integrate" in sys.modules, sorted(written)]


run("fig5a", outputs=["EN", "variance", "neff", "squeezing", "cm",
                      "stability"])
run("fig4a", sweep={"axes": [
    {"name": "E0", "min": 10000, "max": 300000, "points": 5},
    {"name": "G0", "min": 0.1, "max": 3.0, "points": 5}]})
run("fig2", horizon_periods=2)
print(json.dumps(loaded))
"""


def test_runs_that_never_step_stay_scipy_free(tmp_path):
    got = fresh(RUNS, str(tmp_path))
    assert got["fig5a"] == [False, ["cm", "manifest", "measures",
                                    "stability"]]
    assert got["fig4a"] == [False, ["manifest", "sweep"]]
    # a stepped run loads the stepper at its first integration
    assert got["fig2"] == [True, ["first_moments", "manifest"]]


SWEEP = """
import json, sys
from pathlib import Path
from optomech.experiment import config_from_dict, run_experiment

doc, out = json.loads(sys.argv[1]), Path(sys.argv[2])
run_experiment(config_from_dict(doc), out / "jobs", jobs=2)
run_experiment(config_from_dict(doc), out / "plain")
print(json.dumps(sorted(m for m in sys.modules
                        if m == "concurrent.futures.process"
                        or m.split(".")[0] == "multiprocessing")))
"""

PARAMS = {"delta_a": 1.0, "kappa": 2.0, "gamma_m": 1e-3, "g": 1e-5,
          "delta_c": -1.0, "gamma_a": 0.1, "G0": 1.0}
CONSTANT_SWEEP = {
    "params": dict(PARAMS, delta_a_effective=1.0),
    "drive": {"Omega": 0.0, "components": [{"n": 0, "re": 1.2e5}]},
    "sweep": {"axes": [{"name": "G0", "min": 0.5, "max": 2.0, "points": 4}]}}
MODULATED_SWEEP = {
    "params": dict(PARAMS, n_th=0.0),
    "drive": {"Omega": 2.0, "components": [{"n": 0, "re": 50000.0},
                                           {"n": 1, "re": 80000.0},
                                           {"n": -1, "re": 80000.0}]},
    "horizon_periods": 3.0, "sample_periods": 1.0, "samples_per_period": 20,
    "sweep": {"axes": [{"name": "E0", "min": 5e4, "max": 1.5e5,
                        "points": 3}]}}


@pytest.mark.parametrize("doc", [CONSTANT_SWEEP, MODULATED_SWEEP],
                         ids=["constant", "modulated"])
def test_sweeps_run_in_one_process(tmp_path, doc):
    # jobs= is what the benchmark harness passes; it must change nothing.
    # SciPy loads concurrent.futures itself when a modulated cell
    # integrates, so the check is on the modules a process pool needs.
    assert fresh(SWEEP, json.dumps(doc), str(tmp_path)) == []
    text = (tmp_path / "jobs" / "sweep.csv").read_bytes()
    assert text == (tmp_path / "plain" / "sweep.csv").read_bytes()
    if doc is MODULATED_SWEEP:
        rows = [line.split(",") for line in text.decode().splitlines()[1:]]
        assert rows[0][1:] == ["unstable", "nan"]    # the |mu| = 1.047 drive
        assert rows[1][1] == "stable"
