"""Start-up stays light: importing optomech loads NumPy and optomech only.

SciPy's DOP853 loads at the first integration and the process pool only
for a pooled sweep, so runs that reach their samples by algebra (constant
drives, the periodic asymptote) never import scipy.integrate.  Each test
runs in a fresh interpreter, since this one has SciPy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
                        or m == "concurrent.futures.process")))
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
