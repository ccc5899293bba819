import dataclasses
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from optomech import experiment, fluctuations
from optomech import moments as moments_module
from optomech.cli import main as cli_main
from optomech.experiment import (compare_sources, config_from_dict,
                                 evaluate_cell, measures_from_cm_series,
                                 run_experiment)
from optomech.errors import NoConvergence, NotStable, SingularDenominator
from optomech.fluctuations import integrate_lyapunov
from optomech.measures import principal_axis_angle, squeezing_parameter
from optomech.recipes import load_recipe, recipe_names
from optomech.tables import write_cm_csv, write_rows

FIG2_DOC = {
    "params": {"delta_a": 1.0, "kappa": 2.0, "gamma_m": 1e-3, "g": 1e-5,
               "delta_c": -1.0, "gamma_a": 0.1, "G0": 1.0, "n_th": 0.0},
    "drive": {"Omega": 2.0,
              "components": [{"n": 0, "re": 150000.0},
                             {"n": 1, "re": 30000.0},
                             {"n": -1, "re": 30000.0}]},
    "horizon_periods": 10.0,
    "sample_periods": 1.0,
    "samples_per_period": 40,
    "outputs": ["first_moments", "cm", "EN"],
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def bench_module(name):
    """bench/<name>.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_config_parsing_round_trip():
    cfg = config_from_dict(FIG2_DOC)
    assert cfg.params.g0_collective == 1.0
    assert cfg.params.kappa == 2.0
    assert cfg.drive.component(1) == 30000.0
    assert cfg.horizon_periods == 10.0
    assert cfg.validate() == []


def test_config_rejects_double_drive():
    doc = dict(FIG2_DOC)
    doc["engineered"] = {"G1": 1.2, "G2": 0.1, "Omega": 2.0}
    cfg = config_from_dict(doc)
    assert any("exactly one" in r for r in cfg.validate())


@pytest.mark.parametrize("source, message", [
    ("odes", "unknown first_moment_source 'odes'"),
    ("engineered", "'engineered' source needs a coupling target")])
def test_config_rejects_unusable_source(source, message):
    cfg = config_from_dict(dict(FIG2_DOC, first_moment_source=source))
    assert cfg.validate() == [message]


def test_config_rejects_unknown_output():
    doc = dict(FIG2_DOC)
    doc["outputs"] = ["EN", "nonsense"]
    cfg = config_from_dict(doc)
    assert any("unknown outputs" in r for r in cfg.validate())


def test_run_writes_manifest_and_csvs(tmp_path):
    cfg = config_from_dict(FIG2_DOC)
    written = run_experiment(cfg, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["params"]["G0"] == 1.0
    assert "version" in manifest

    header = (tmp_path / "first_moments.csv").read_text().splitlines()[0]
    assert header == "t,q,p,re_a,im_a,re_c,im_c"

    cm_lines = (tmp_path / "cm.csv").read_text().splitlines()
    assert cm_lines[0].split(",")[:3] == ["t", "v11", "v12"]
    assert len(cm_lines[0].split(",")) == 22  # t + upper triangle

    meas = (tmp_path / "measures.csv").read_text().splitlines()
    assert meas[0] == "t,EN,v11,v22,neff,r_db"
    assert len(meas) == 41
    assert set(written) >= {"manifest", "first_moments", "cm", "measures"}


def test_run_is_byte_reproducible(tmp_path):
    cfg = config_from_dict(FIG2_DOC)
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    for name in ("first_moments.csv", "cm.csv", "measures.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_run_without_outputs_writes_manifest_only(tmp_path):
    doc = dict(FIG2_DOC)
    doc["outputs"] = []
    written = run_experiment(config_from_dict(doc), tmp_path)
    assert set(written) == {"manifest"}


def test_constant_drive_run_steady_state(tmp_path):
    doc = {
        "params": {"delta_a": 1.0, "kappa": 2.0, "gamma_m": 1e-3,
                   "g": 1e-5, "delta_c": -1.0, "gamma_a": 0.1, "G0": 1.0,
                   "delta_a_effective": 1.0},
        "drive": {"Omega": 0.0, "components": [{"n": 0, "re": 120000.0}]},
        "outputs": ["stability", "EN"],
    }
    run_experiment(config_from_dict(doc), tmp_path)
    stab = json.loads((tmp_path / "stability.json").read_text())
    assert stab["stable"] is True
    # a constant drive has no period to solve over
    assert "max_multiplier" not in stab
    assert "transient_residue" not in stab
    meas = (tmp_path / "measures.csv").read_text().splitlines()
    assert len(meas) == 2
    en = float(meas[1].split(",")[1])
    assert en > 0.0


def test_sweep_with_unstable_cells(tmp_path):
    doc = {
        "params": {"delta_a": 1.0, "kappa": 0.2, "gamma_m": 1e-3,
                   "g": 1e-5, "delta_c": -1.0, "gamma_a": 0.1, "G0": 1.0,
                   "delta_a_effective": 1.0},
        "drive": {"Omega": 0.0, "components": [{"n": 0, "re": 120000.0}]},
        "sweep": {"axes": [{"name": "E0", "min": 1e4, "max": 3e5,
                            "points": 3},
                           {"name": "G0", "min": 0.1, "max": 3.0,
                            "points": 3}]},
    }
    run_experiment(config_from_dict(doc), tmp_path)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "E0,G0,status,EN"
    assert len(lines) == 10
    statuses = {ln.split(",")[2] for ln in lines[1:]}
    assert "stable" in statuses and "unstable" in statuses


def test_compare_sources_fig2():
    doc = dict(FIG2_DOC)
    doc["horizon_periods"] = 50.0
    report = compare_sources(config_from_dict(doc))
    assert report["a"] <= 0.01
    assert report["c"] <= 0.01


def test_compare_sources_uncoupled_is_tiny():
    doc = dict(FIG2_DOC)
    doc["params"] = dict(doc["params"], g=0.0)
    doc["horizon_periods"] = 50.0
    report = compare_sources(config_from_dict(doc))
    assert report["a"] <= 1e-6
    assert report["c"] <= 1e-6


def test_recipes_ship_and_parse():
    names = recipe_names()
    for want in ("fig2", "fig6", "fig8a", "fig10"):
        assert want in names
    for name in names:
        cfg = config_from_dict(load_recipe(name))
        assert cfg.validate() == []


def test_bench_workloads_validate():
    workloads = bench_module("workloads")
    for name in workloads.SPECS:
        for seed in (1, 2):
            doc = workloads.resolved_doc(workloads.workload_spec(name, seed),
                                         load_recipe)
            assert config_from_dict(doc).validate() == [], name


def _rename_g0(doc):
    doc["params"]["g0"] = doc["params"].pop("G0")


@pytest.mark.parametrize("edit, name", [
    (_rename_g0, "params.g0"),      # silently G0 = 0, no atoms, before
    (lambda doc: doc.update(horizon_period=60), "horizon_period"),
    (lambda doc: doc.update(output=["EN"]), "output"),
    (lambda doc: doc.update(init={"q": 1.0, "cm_diag": [0.5] * 6}), "init"),
    (lambda doc: doc.update(numerics={"max_step": 0.1}), "numerics.max_step"),
    (lambda doc: doc.update(numerics={"overflow_guard": 1e6}),
     "numerics.overflow_guard"),
    (lambda doc: doc["sweep"]["axes"][1].update(pts=5), "sweep.axes.pts")])
def test_config_names_unknown_keys(tmp_path, edit, name):
    doc = load_recipe("fig4a")
    edit(doc)
    cfg = config_from_dict(doc)
    assert cfg.validate() == [f"unknown key '{name}'"]
    with pytest.raises(ValueError, match=re.escape(f"'{name}'")):
        run_experiment(cfg, tmp_path)


@pytest.mark.parametrize("command", ["engineer-drive", "simulate",
                                     "stability", "compare-sources"])
def test_cli_names_unknown_keys(tmp_path, capsys, command):
    doc = {"params": {"delta_a": 1.0, "kappa": 10.0, "gamma_m": 1e-3,
                      "g": 1e-3, "delta_c": -1.0, "gamma_a": 1e-3, "g0": 1.0},
           "engineered": {"G1": 1.2, "G2": 0.1, "Omega": 2.0}}
    path = write_config(tmp_path, doc)
    assert cli_main([command, "--config", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: invalid configuration: unknown key 'params.g0'\n")


def _set_param(key, value):
    def edit(doc):
        doc["params"][key] = value
    return edit


def _name_sweep_axis(name):
    def edit(doc):
        doc["sweep"]["axes"][1]["name"] = name
    return edit


# Each model parameter has one config key, and a key the run never reads
# is named: omega_m is the unit, G0 is the only spelling of the collective
# coupling, E0 the only spelling of the drive axis, and delta_a_effective
# sets a constant drive's working point.
@pytest.mark.parametrize("recipe, edit, message", [
    ("fig5a", _set_param("omega_m", 1.0), "unknown key 'params.omega_m'"),
    ("fig5a", _set_param("g0_collective", 7.0),
     "unknown key 'params.g0_collective'"),
    ("fig4a", _name_sweep_axis("omega_m"),
     "sweep axis 'omega_m' does not name a scalar parameter"),
    ("fig4a", _name_sweep_axis("E"),
     "sweep axis 'E' does not name a scalar parameter"),
    ("fig5a", _set_param("delta_a_effective", 0.3),
     "params.delta_a_effective applies to a constant drive only"),
    # every cell was solved at the second axis's value
    ("fig4a", _name_sweep_axis("E0"), "sweep axis 'E0' is given twice"),
    # the working point's delta_a is back-computed, so one row was left
    ("fig4a", _name_sweep_axis("delta_a"),
     "sweep axis 'delta_a' is never read: params.delta_a_effective sets "
     "the working point"),
], ids=["omega_m", "g0_collective", "omega_m-axis", "E-axis",
        "delta_a_effective", "axis-twice", "delta_a-axis"])
def test_each_parameter_has_one_key(tmp_path, capsys, recipe, edit, message):
    doc = load_recipe(recipe)
    edit(doc)
    assert config_from_dict(doc).validate() == [message]
    path = write_config(tmp_path, doc)
    assert cli_main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr() == (
        "", f"error: invalid configuration: {message}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("recipe, key", [
    ("fig5a", "params"),
    *(("fig5a", f"params.{k}") for k in ("delta_a", "kappa", "gamma_m", "g",
                                         "delta_c", "gamma_a")),
    ("fig5a", "drive.Omega"), ("fig5a", "drive.components.n"),
    *(("fig7", f"engineered.{k}") for k in ("G1", "G2", "Omega")),
    *(("fig4a", f"sweep.axes.{k}") for k in ("name", "min", "max",
                                             "points")),
])
def test_missing_key_is_named(tmp_path, capsys, recipe, key):
    doc = load_recipe(recipe)
    *blocks, last = key.split(".")
    block = doc
    for name in blocks:         # a list's first item stands for the list
        block = block[name]
        block = block[0] if isinstance(block, list) else block
    del block[last]
    message = f"invalid configuration: missing key '{key}'"
    with pytest.raises(ValueError) as got:
        config_from_dict(doc)
    assert str(got.value) == message
    assert cli_main(["simulate", "--config",
                     str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("value", [float("nan"), float("-inf")])
@pytest.mark.parametrize("recipe, key", [
    ("fig5a", "params.kappa"), ("fig5a", "params.delta_c"),
    ("fig4a", "params.delta_a_effective"),
    ("fig5a", "drive.Omega"), ("fig5a", "drive.components.re"),
    ("fig5a", "drive.components.im"),
    *(("fig7", f"engineered.{k}") for k in ("G1", "G2", "Omega")),
    ("fig5a", "horizon_periods"), ("fig5a", "sample_periods"),
    ("fig5a", "numerics.rel_tol"), ("fig5a", "numerics.abs_tol"),
    ("fig4a", "sweep.axes.min"), ("fig4a", "sweep.axes.max"),
    ("fig5a", "wigner_times")])
def test_non_finite_number_is_named(recipe, key, value):
    doc = load_recipe(recipe)
    *blocks, last = key.split(".")
    block = doc
    for name in blocks:         # a list's first item stands for the list
        block = block.setdefault(name, {})
        block = block[0] if isinstance(block, list) else block
    block[last] = [1.0, value] if last == "wigner_times" else value
    with pytest.raises(ValueError) as got:
        config_from_dict(doc)
    assert str(got.value) == f"invalid configuration: {key} must be finite"


def test_cli_names_a_nan_parameter(tmp_path, capsys):
    # a NaN kappa once validated clean and hung the stepper
    doc = load_recipe("fig5a")
    doc["params"]["kappa"] = float("nan")
    assert cli_main(["simulate", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr() == (
        "", "error: invalid configuration: params.kappa must be finite\n")
    assert not (tmp_path / "run").exists()


def _set(key, value):
    """An edit that sets the dotted key, a list's first item standing for
    the list, to value."""
    def edit(doc):
        *blocks, last = key.split(".")
        block = doc
        for name in blocks:
            block = block[name]
            block = block[0] if isinstance(block, list) else block
        block[last] = value
    return edit


def _add_component(component):
    def edit(doc):
        doc["drive"]["components"].append(component)
    return edit


# Every value is read as its key's JSON type: a count was truncated, a
# wrong type ended in a traceback or was coerced without a word
@pytest.mark.parametrize("recipe, edit, message", [
    ("fig4a", _set("sweep.axes.points", 2.7),
     "sweep.axes.points must be a whole number"),
    ("fig5a", _set("samples_per_period", 2.9),
     "samples_per_period must be a whole number"),
    ("fig5a", _add_component({"n": 1.5, "re": 1.0}),
     "drive.components.n must be a whole number"),
    ("fig5a", _set("wigner_times", 5.0), "wigner_times must be a list"),
    ("fig5a", _set("drive.components.re", "abc"),
     "drive.components.re must be a number"),
    ("fig5a", _set("params", [1, 2]), "params must be a block"),
    ("fig5a", _set("params.kappa", "2"), "params.kappa must be a number"),
    ("fig5a", _set("params.kappa", True), "params.kappa must be a number"),
], ids=["points", "samples_per_period", "component_n", "wigner_times",
        "component_re", "params", "kappa_string", "kappa_bool"])
def test_value_of_the_wrong_type_is_named(tmp_path, capsys, recipe, edit,
                                          message):
    doc = load_recipe(recipe)
    edit(doc)
    with pytest.raises(ValueError) as got:
        config_from_dict(doc)
    assert str(got.value) == f"invalid configuration: {message}"
    assert cli_main(["simulate", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr() == (
        "", f"error: invalid configuration: {message}\n")
    assert not (tmp_path / "run").exists()


def _typed(fields):
    """{name: (value, its Python type)} of fields."""
    return {name: (value, type(value)) for name, value in fields.items()}


def test_every_key_reads_into_its_field():
    # every key is given once: JSON ints where a float is read, floats
    # where an int is read
    params = {"delta_a": 1, "kappa": 2, "gamma_m": 3, "g": 4, "delta_c": 5,
              "gamma_a": 6, "G0": 7, "n_th": 8, "delta_a_effective": 9}
    doc = {"params": params,
           "drive": {"Omega": 2, "components": [
               {"n": 0.0, "re": 1, "im": 2}, {"n": 1, "im": 3}, {"n": -1}]},
           "numerics": {"rel_tol": 1, "abs_tol": 2},
           "sweep": {"axes": [{"name": "G0", "min": 1, "max": 2,
                               "points": 3.0}]},
           "horizon_periods": 10, "sample_periods": 2,
           "samples_per_period": 40.0, "outputs": ["EN", "cm"],
           "first_moment_source": "ode", "wigner_times": [1, 2]}
    cfg = config_from_dict(doc)
    assert _typed({f.name: getattr(cfg.params, f.name)
                   for f in dataclasses.fields(cfg.params)}) == _typed(dict(
        delta_a=1.0, kappa=2.0, gamma_m=3.0, g=4.0, delta_c=5.0,
        gamma_a=6.0, g0_collective=7.0, n_th=8.0))
    assert _typed({"delta_a_effective": cfg.delta_a_effective,
                   "big_omega": cfg.drive.big_omega,
                   "rel_tol": cfg.numerics.rel_tol,
                   "abs_tol": cfg.numerics.abs_tol,
                   "horizon_periods": cfg.horizon_periods,
                   "sample_periods": cfg.sample_periods,
                   "samples_per_period": cfg.samples_per_period,
                   "outputs": cfg.outputs,
                   "first_moment_source": cfg.first_moment_source,
                   "wigner_times": cfg.wigner_times}) == _typed({
        "delta_a_effective": 9.0, "big_omega": 2.0, "rel_tol": 1.0,
        "abs_tol": 2.0, "horizon_periods": 10.0, "sample_periods": 2.0,
        "samples_per_period": 40, "outputs": ("EN", "cm"),
        "first_moment_source": "ode", "wigner_times": (1.0, 2.0)})
    assert [type(x) for x in cfg.wigner_times + cfg.outputs] \
        == [float, float, str, str]
    # a component with im only, and one with neither re nor im
    assert {n: (en, type(n), type(en))
            for n, en in cfg.drive.components.items()} == {
        0: (1 + 2j, int, complex), 1: (3j, int, complex),
        -1: (0j, int, complex)}
    assert cfg.engineered is None
    (axis,) = cfg.sweep
    assert _typed(dataclasses.asdict(axis)) == _typed(
        {"name": "G0", "min": 1.0, "max": 2.0, "points": 3})

    cfg = config_from_dict({"params": params, "engineered": {
        "G1": 1, "G2": 2, "Omega": 3}})
    assert cfg.drive is None
    assert _typed(dataclasses.asdict(cfg.engineered)) == _typed(
        {"g1": 1.0, "g2": 2.0, "big_omega": 3.0})


def test_whole_number_may_be_written_as_a_float():
    doc = load_recipe("fig4a")
    _set("sweep.axes.points", 3.0)(doc)
    cfg = config_from_dict(doc)
    assert cfg.sweep[0].points == 3 and cfg.validate() == []


def _constant_wigner(doc):
    del doc["sweep"]
    doc.update(outputs=["EN", "wigner"], wigner_times=[5.0, 7.0])


# Two settings the run would drop without a word
@pytest.mark.parametrize("recipe, edit, message", [
    ("fig5a", _add_component({"n": 1, "re": 99999}),
     "drive component n = 1 is given twice"),
    ("fig4a", _constant_wigner, "wigner_times do not apply to a constant "
     "drive, which samples t = 0 alone")],
    ids=["component_twice", "constant_wigner_times"])
def test_dropped_setting_is_named(tmp_path, capsys, recipe, edit, message):
    doc = load_recipe(recipe)
    edit(doc)
    assert config_from_dict(doc).validate() == [message]
    assert cli_main(["simulate", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr() == (
        "", f"error: invalid configuration: {message}\n")
    assert not (tmp_path / "run").exists()


def test_cli_names_a_times_entry_that_is_no_number(tmp_path, capsys):
    assert cli_main(["wigner", "--recipe", "fig2", "--times", "90,abc",
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr() == (
        "", "error: invalid configuration: --times entry 'abc' is not a "
        "number\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text", ["[1, 2]", '"fig5a"', "null"])
def test_cli_names_a_config_file_that_is_no_block(tmp_path, capsys, text):
    path = tmp_path / "x.json"
    path.write_text(text)
    assert cli_main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr() == (
        "", f"error: invalid configuration: {path} must hold a block (a "
        "JSON object)\n")
    assert not (tmp_path / "run").exists()


def _square_sweep(points):
    def edit(doc):
        for axis in doc["sweep"]["axes"]:
            axis["points"] = points
    return edit


@pytest.mark.parametrize("recipe, edit, message", [
    ("fig5a", _set("samples_per_period", 1e9),
     "the window's 2e+09 samples exceed 1000000"),
    ("fig5a", _set("sample_periods", 5001.0),
     "the window's 1.0002e+06 samples exceed 1000000"),
    ("fig4a", _square_sweep(1001),
     "the sweep's 1002001 cells exceed 1000000"),
    # 50 steps a period at most: fig7's engineered CM would have built
    # 5e10 piece start times, about 400 GB
    ("fig7", _set("horizon_periods", 1e9),
     "the horizon's 5e+10 steps exceed 1000000"),
])
def test_counts_above_the_limit_are_named(tmp_path, capsys, recipe, edit,
                                          message):
    # 1e9 samples a period once validated clean: solve would have asked
    # np.linspace for 2e9 samples
    assert experiment.COUNT_LIMIT == 10 ** 6
    doc = load_recipe(recipe)
    edit(doc)
    assert config_from_dict(doc).validate() == [message]
    assert cli_main(["simulate", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr() == (
        "", f"error: invalid configuration: {message}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("recipe, edit", [
    ("fig5a", _set("sample_periods", 5000.0)),     # 200 a period
    ("fig4a", _square_sweep(1000)),
    # a sweep cell samples its last period alone
    ("fig4a", lambda doc: doc.update(sample_periods=1e9)),
    ("fig8a", _set("horizon_periods", 20000.0)),     # 50 steps a period
])
def test_counts_at_the_limit_validate(recipe, edit):
    doc = load_recipe(recipe)
    edit(doc)
    assert config_from_dict(doc).validate() == []


def test_cli_simulate_with_config(tmp_path, capsys):
    doc = dict(FIG2_DOC)
    doc["outputs"] = ["EN"]
    path = write_config(tmp_path, doc)
    rc = cli_main(["simulate", "--config", str(path),
                   "--out", str(tmp_path / "run")])
    assert rc == 0
    assert (tmp_path / "run" / "measures.csv").exists()


def test_cli_out_dir_env_var(tmp_path, monkeypatch):
    doc = dict(FIG2_DOC)
    doc["outputs"] = []
    path = write_config(tmp_path, doc)
    monkeypatch.setenv("OPTOMECH_OUT_DIR", str(tmp_path / "envout"))
    rc = cli_main(["simulate", "--config", str(path)])
    assert rc == 0
    assert (tmp_path / "envout" / "manifest.json").exists()


def test_cli_engineer_drive_schema(tmp_path, capsys):
    doc = {
        "params": {"delta_a": 1.0, "kappa": 10.0, "gamma_m": 1e-3,
                   "g": 1e-3, "delta_c": -1.0, "gamma_a": 1e-3, "G0": 1.0},
        "engineered": {"G1": 1.2, "G2": 0.1, "Omega": 2.0},
    }
    path = write_config(tmp_path, doc)
    rc = cli_main(["engineer-drive", "--config", str(path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["Omega"] == 2.0
    orders = [c["n"] for c in out["components"]]
    assert sorted(orders) == [-1, 0, 1, 2]


UNSTABLE_CYCLE_DRIVE = {"Omega": 2.0,
                        "components": [{"n": 0, "re": 50000.0},
                                       {"n": 1, "re": 80000.0},
                                       {"n": -1, "re": 80000.0}]}


def test_cli_stability(tmp_path, capsys):
    path = write_config(tmp_path, FIG2_DOC)
    rc = cli_main(["stability", "--config", str(path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stable"] is True
    assert out["max_multiplier"] == pytest.approx(0.7885, abs=1e-4)

    # |mu| = 1.047: the sampled drift looks stable, the cycle is not; the
    # CLI prints what a run writes to stability.json
    doc = dict(FIG2_DOC, horizon_periods=3.0, outputs=["stability"],
               drive=UNSTABLE_CYCLE_DRIVE)
    path = write_config(tmp_path, doc, "unstable.json")
    rc = cli_main(["stability", "--config", str(path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stable"] is False
    assert out["max_multiplier"] == pytest.approx(1.047, abs=1e-3)
    run_experiment(config_from_dict(doc), tmp_path / "run")
    assert json.loads((tmp_path / "run" / "stability.json").read_text()) \
        == out


def test_stability_report_leaves_config_alone(monkeypatch):
    doc = {"params": dict(FIG2_DOC["params"], delta_a_effective=1.0,
                          delta_a=0.3),
           "drive": {"Omega": 0.0, "components": [{"n": 0, "re": 1.2e5}]},
           "outputs": ["stability"]}
    cfg = config_from_dict(doc)
    params = cfg.params
    periodic = []
    monkeypatch.setattr(experiment, "periodic_state",
                        lambda *args: periodic.append(args))
    t, _, _, report = experiment.solve(cfg)
    assert cfg.params is params
    assert periodic == []           # no periodic solve for a constant drive
    assert list(t) == [0.0]
    assert report["stable"] is True
    assert "max_multiplier" not in report


def test_cli_wigner_times(tmp_path):
    doc = dict(FIG2_DOC)
    doc["outputs"] = ["EN"]
    path = write_config(tmp_path, doc)
    t1 = 9.25 * np.pi
    t2 = 9.5 * np.pi
    rc = cli_main(["wigner", "--config", str(path),
                   "--times", f"{t1},{t2}",
                   "--out", str(tmp_path / "wig")])
    assert rc == 0
    for k in (0, 1):
        lines = (tmp_path / "wig" / f"wigner_{k}.csv").read_text() \
            .splitlines()
        assert lines[0] == "x,y,w"
        assert len(lines) == 1 + 201 * 201


def test_wigner_manifest_is_the_configuration_that_ran(tmp_path):
    # --times and the wigner output are part of the config the run parses,
    # so the manifest names them; the parsed config cannot be edited
    assert cli_main(["wigner", "--recipe", "fig2", "--times", "90,95",
                     "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert config["wigner_times"] == [90.0, 95.0]
    assert config["outputs"] == load_recipe("fig2")["outputs"] + ["wigner"]
    assert (tmp_path / "wigner_1.csv").exists()
    cfg = config_from_dict(config)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.wigner_times = (90.0,)


def test_cli_recipe_overlay(tmp_path):
    overlay = write_config(tmp_path, {"horizon_periods": 3.0,
                                      "sample_periods": 1.0,
                                      "samples_per_period": 20,
                                      "outputs": ["EN"]})
    rc = cli_main(["simulate", "--recipe", "fig2",
                   "--config", str(overlay),
                   "--out", str(tmp_path / "run")])
    assert rc == 0
    meas = (tmp_path / "run" / "measures.csv").read_text().splitlines()
    assert len(meas) == 21


@pytest.mark.parametrize("command", ["stability", "compare-sources"])
def test_cli_checks_config_before_solving(tmp_path, capsys, command):
    overlay = write_config(tmp_path, {"horizon_periods": -1})
    line = "error: invalid configuration: horizon_periods must be positive\n"
    assert cli_main(["simulate", "--recipe", "fig2", "--config",
                     str(overlay), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr() == ("", line)
    assert not (tmp_path / "run").exists()
    assert cli_main([command, "--recipe", "fig2",
                     "--config", str(overlay)]) == 1
    assert capsys.readouterr() == ("", line)


FIG4A_BOX_DOC = {
    "params": {"delta_a": 1.0, "kappa": 0.2, "gamma_m": 1e-3, "g": 1e-5,
               "delta_c": -1.0, "gamma_a": 0.1, "G0": 1.0,
               "delta_a_effective": 1.0},
    "drive": {"Omega": 0.0, "components": [{"n": 0, "re": 1.2e5}]},
    # 23 x 13 = 299 cells: one full block and a partial one
    "sweep": {"axes": [{"name": "E0", "min": 1e4, "max": 3e5, "points": 23},
                       {"name": "G0", "min": 0.1, "max": 3.0,
                        "points": 13}]},
}


def read_sweep(path):
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def test_stacked_sweep_matches_one_cell_evaluation(tmp_path):
    cfg = config_from_dict(FIG4A_BOX_DOC)
    assert len(cfg.sweep[0].values()) * len(cfg.sweep[1].values()) \
        % experiment.SWEEP_BLOCK != 0
    run_experiment(cfg, tmp_path)
    rows = read_sweep(tmp_path / "sweep.csv")
    assert len(rows) == 299
    statuses = [row[2] for row in rows]
    assert "stable" in statuses and "unstable" in statuses
    for e0, g0, status, en in rows:
        cell = experiment._apply_axis(
            experiment._apply_axis(cfg, "E0", float(e0)), "G0", float(g0))
        want_status, want_en = evaluate_cell(cell)
        assert status == want_status
        if status == "stable":
            assert float(en) == pytest.approx(want_en, rel=1e-13, abs=0.0)
        else:
            assert en == "nan" and np.isnan(want_en)


# fig2 at delta_a = 0, G0 = 3 and no delta_a_effective: every working
# point is the stationary cubic's lowest real root
CUBIC_DOC = {
    "params": dict(FIG2_DOC["params"], delta_a=0.0, G0=3.0),
    "drive": {"Omega": 0.0, "components": [{"n": 0, "re": 1e6}]},
}


@pytest.mark.parametrize("e0_axis", [(8e5, 1.3e6, 101), (0.0, 0.0, 1)],
                         ids=["three_roots_and_fold", "no_drive"])
def test_cubic_sweep_matches_one_cell_evaluation(tmp_path, e0_axis):
    from test_moments import stationary_cubic_roots
    lo, hi, points = e0_axis
    doc = dict(CUBIC_DOC, sweep={"axes": [
        {"name": "g", "min": 0.0, "max": 1e-5, "points": 2},
        {"name": "E0", "min": lo, "max": hi, "points": points}]})
    cfg = config_from_dict(doc)
    assert cfg.delta_a_effective is None
    run_experiment(cfg, tmp_path)
    rows = read_sweep(tmp_path / "sweep.csv")
    assert len(rows) == 2 * points
    three_roots = 0
    for g, e0, status, en in rows:
        cell = experiment._apply_axis(
            experiment._apply_axis(cfg, "g", float(g)), "E0", float(e0))
        want_status, want_en = evaluate_cell(cell)
        assert status == want_status
        if status == "stable":
            assert float(en) == pytest.approx(want_en, rel=1e-13, abs=0.0)
        else:
            assert en == "nan" and np.isnan(want_en)
        roots = stationary_cubic_roots(cell.params, float(e0))
        three_roots += np.sum(roots.imag == 0.0) == 3
    assert "stable" in {row[2] for row in rows}
    assert 0 < three_roots < len(rows) or points == 1


def test_fig4a_sweep_matches_independent_oracle(tmp_path):
    # bench/check.py's oracle solves each cell by Bartels-Stewart from its
    # own drift transcription; the stacked sweep must agree on every cell
    check = bench_module("check")
    doc = load_recipe("fig4a")
    written = run_experiment(config_from_dict(doc), tmp_path)
    expected = check.sweep_oracle(doc)
    assert len(expected) == 625
    bad, problems = check.compare_sweep(expected, written["sweep"])
    assert bad == 0, problems


def test_fig4a_sweep_solves_the_hurwitz_cells_alone(tmp_path, monkeypatch):
    # the batched CM solve receives every Hurwitz cell and no other: 490
    # of fig4a's 625, the rest read "unstable"
    solved = []
    harmonics = fluctuations.lyapunov_harmonics

    def spy(m, d, big_omega):
        assert np.all(np.max(np.linalg.eigvals(m[:, 0]).real, axis=1) < 0)
        solved.append(len(m))
        return harmonics(m, d, big_omega)

    monkeypatch.setattr(fluctuations, "lyapunov_harmonics", spy)
    written = run_experiment(config_from_dict(load_recipe("fig4a")), tmp_path)
    statuses = [row[2] for row in read_sweep(written["sweep"])]
    assert len(solved) == -(-625 // experiment.SWEEP_BLOCK)
    assert sum(solved) == 625 - statuses.count("unstable") == 490


# |EN - EN_oracle| <= FIG4B_EN_RTOL * EN_oracle on every stable fig4b cell.
# Near the threshold (EN ~ 5.6e-5 at n_th ~ 38) EN cancels against CM
# entries of order n_th and is good to about 2e-9 relative only.
FIG4B_EN_RTOL = 1e-8


def _fig4b_oracle_cell(p, e0, g0, n_th):
    """(status, EN) of one fig4b cell, written from the linearized
    Langevin equations: the working point at the prescribed detuning, the
    Hurwitz test, scipy's Bartels-Stewart solve and the log negativity of
    the partially transposed atom-mirror CM in closed form."""
    kap, gm, ga, dc = p["kappa"], p["gamma_m"], p["gamma_a"], p["delta_c"]
    det = p["delta_a_effective"]
    a = e0 / (kap + 1j * det + g0 ** 2 / (ga + 1j * dc))
    gx, gy = np.sqrt(2.0) * p["g"] * a.real, np.sqrt(2.0) * p["g"] * a.imag
    drift = np.array([[0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                      [-1.0, -gm, gx, gy, 0.0, 0.0],
                      [-gy, 0.0, -kap, det, 0.0, g0],
                      [gx, 0.0, -det, -kap, -g0, 0.0],
                      [0.0, 0.0, 0.0, g0, -ga, dc],
                      [0.0, 0.0, -g0, 0.0, -dc, -ga]])
    if np.max(np.linalg.eigvals(drift).real) >= 0.0:
        return "unstable", float("nan")
    diffusion = np.diag([0.0, gm * (2.0 * n_th + 1.0), kap, kap, ga, ga])
    v = scipy.linalg.solve_continuous_lyapunov(drift, -diffusion)
    r = v[np.ix_([0, 1, 4, 5], [0, 1, 4, 5])]
    det2 = np.linalg.det
    # the partial transpose flips the sign of det C only
    sigma = det2(r[:2, :2]) + det2(r[2:, 2:]) - 2.0 * det2(r[:2, 2:])
    det4 = det2(r)
    # smaller symplectic eigenvalue squared, as the product of the roots
    # det4 over the larger one, which takes no cancellation
    nu2 = 2.0 * det4 / (sigma + np.sqrt(sigma * sigma - 4.0 * det4))
    return "stable", max(0.0, -0.5 * np.log(4.0 * nu2))


def test_fig4b_sweep_matches_independent_oracle(tmp_path):
    doc = load_recipe("fig4b")
    (e0,) = [c["re"] for c in doc["drive"]["components"]]
    g0_axis, nth_axis = config_from_dict(doc).sweep
    assert (g0_axis.name, nth_axis.name) == ("G0", "n_th")
    written = run_experiment(config_from_dict(doc), tmp_path)
    rows = [line.split(",")
            for line in written["sweep"].read_text().splitlines()[1:]]
    cells = [(g0, n_th) for g0 in g0_axis.values().tolist()
             for n_th in nth_axis.values().tolist()]
    assert len(rows) == len(cells) == 525
    worst = 0.0
    for (g0, n_th, status, en), cell in zip(rows, cells):
        assert (float(g0), float(n_th)) == cell
        want_status, want_en = _fig4b_oracle_cell(doc["params"], e0, *cell)
        assert status == want_status, cell
        if status == "stable":
            assert abs(float(en) - want_en) <= FIG4B_EN_RTOL * want_en, cell
            if want_en > 0.0:
                worst = max(worst, abs(float(en) / want_en - 1.0))
        else:
            assert en == "nan"
    assert worst > 0.0      # the tolerance is exercised, not idle


def test_sweep_flags_forced_bad_cells_only(tmp_path, monkeypatch):
    cfg = config_from_dict(FIG4A_BOX_DOC)
    run_experiment(cfg, tmp_path / "clean")
    clean = read_sweep(tmp_path / "clean" / "sweep.csv")
    unstable_cell, nonphysical_cell = 270, 5
    assert clean[unstable_cell][2] == clean[nonphysical_cell][2] == "stable"

    # build_drift returns one (cells, 6, 6) stack per block of SWEEP_BLOCK
    # cells in order, so cell 270 is row 14 of the second block's stack
    build_drift = experiment.build_drift
    reduce_stack = experiment.reduce_atom_mirror_stack
    block, row = divmod(unstable_cell, experiment.SWEEP_BLOCK)
    drifts, blocks = [], []

    def forced_drift(params, q_mean, a_mean):
        a = build_drift(params, q_mean, a_mean)
        if len(drifts) == block:
            a[row] = np.eye(6)
        drifts.append(None)
        return a

    def forced_reduction(vs):
        r = reduce_stack(vs)
        if not blocks:
            r[nonphysical_cell] = np.block([[0.5 * np.eye(2), 5 * np.eye(2)],
                                            [5 * np.eye(2), 0.5 * np.eye(2)]])
        blocks.append(None)
        return r

    monkeypatch.setattr(experiment, "build_drift", forced_drift)
    monkeypatch.setattr(experiment, "reduce_atom_mirror_stack",
                        forced_reduction)
    run_experiment(cfg, tmp_path / "forced")
    forced = read_sweep(tmp_path / "forced" / "sweep.csv")
    assert forced[unstable_cell][2:] == ["unstable", "nan"]
    assert forced[nonphysical_cell][2:] == ["error:NonPhysical", "nan"]
    for k, (got, want) in enumerate(zip(forced, clean)):
        if k not in (unstable_cell, nonphysical_cell):
            assert got == want


def brute_force_window(cfg):
    """(t, vs): the sampled window of a modulated run integrated from
    t = 0."""
    drive = cfg.resolved_drive()
    t_end = cfg.horizon_periods * drive.period
    t_eval = np.linspace(t_end - cfg.sample_periods * drive.period, t_end,
                         int(cfg.sample_periods * cfg.samples_per_period))
    return t_eval, integrate_lyapunov(cfg.params, drive, "ode", t_eval,
                                      cfg=cfg.numerics)[1]


def assert_brute_force_csvs(cfg, run_dir, ref_dir):
    t, vs = brute_force_window(cfg)
    ref_dir.mkdir()
    write_cm_csv(ref_dir / "cm.csv", t, vs)
    m = measures_from_cm_series(t, vs)
    write_rows(ref_dir / "measures.csv", list(m), m.values())
    for name in ("cm.csv", "measures.csv"):
        assert (run_dir / name).read_bytes() == \
            (ref_dir / name).read_bytes()


def test_window_inside_transient_takes_brute_force(tmp_path):
    doc = dict(FIG2_DOC, outputs=["first_moments", "cm", "EN",
                                  "stability"])
    cfg = config_from_dict(doc)
    run_experiment(cfg, tmp_path / "run")
    stab = json.loads((tmp_path / "run" / "stability.json").read_text())
    assert stab["max_multiplier"] == pytest.approx(0.7885, abs=1e-4)
    # 9 periods before the window: residue 0.7885**9 ~ 0.12 > rel_tol
    assert stab["transient_residue"] == pytest.approx(
        stab["max_multiplier"] ** 9)
    assert stab["transient_residue"] > cfg.numerics.rel_tol
    assert_brute_force_csvs(cfg, tmp_path / "run", tmp_path / "ref")


def test_unstable_cycle_takes_brute_force(tmp_path):
    # E0 = 5e4, E1 = 8e4: the instantaneous drift looks stable, but the
    # limit cycle's largest Floquet multiplier is 1.047.
    doc = dict(FIG2_DOC, horizon_periods=30.0,
               outputs=["cm", "EN", "stability"], drive=UNSTABLE_CYCLE_DRIVE)
    cfg = config_from_dict(doc)
    run_experiment(cfg, tmp_path / "run")
    stab = json.loads((tmp_path / "run" / "stability.json").read_text())
    assert stab["max_multiplier"] == pytest.approx(1.047, abs=1e-3)
    assert_brute_force_csvs(cfg, tmp_path / "run", tmp_path / "ref")

    # a sweep cell reads the same Floquet verdict
    status, en = evaluate_cell(cfg)
    assert status == "unstable"
    assert np.isnan(en)


@pytest.mark.parametrize("e0, e1, stable", [
    (150000.0, 30000.0, True),    # fig5a drive, |mu| = 0.79
    (50000.0, 80000.0, False),    # |mu| = 1.047, drift samples look fine
])
def test_stability_verdict_follows_floquet_multipliers(tmp_path, e0, e1,
                                                       stable):
    doc = dict(FIG2_DOC, horizon_periods=3.0, outputs=["EN", "stability"])
    doc["drive"] = {"Omega": 2.0,
                    "components": [{"n": 0, "re": e0}, {"n": 1, "re": e1},
                                   {"n": -1, "re": e1}]}
    run_experiment(config_from_dict(doc), tmp_path)
    stab = json.loads((tmp_path / "stability.json").read_text())
    assert stab["stable"] is stable
    assert stab["stable"] == (stab["max_multiplier"] < 1.0)


def counting(monkeypatch, fn, *modules):
    """(args, kwargs) of each call of fn made through any of modules,
    which it is patched in."""
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def test_floquet_series_computed_once_per_run(tmp_path, monkeypatch):
    calls = counting(monkeypatch, experiment.floquet_recurse, experiment,
                     fluctuations)
    doc = dict(FIG2_DOC, horizon_periods=3.0, outputs=["EN", "stability"])
    run_experiment(config_from_dict(doc), tmp_path)
    stab = json.loads((tmp_path / "stability.json").read_text())
    assert "max_multiplier" in stab     # the periodic solve ran
    assert len(calls) == 1


def test_failed_shooting_takes_brute_force(tmp_path, monkeypatch):
    # 70 periods at rel_tol 1e-6: residue 0.7885**69 ~ 8e-8 passes the
    # gate, so only the periodic solve decides which path runs; one
    # Newton step cannot converge from either start.
    doc = dict(FIG2_DOC, horizon_periods=70.0, outputs=["cm", "EN"],
               numerics={"rel_tol": 1e-6, "abs_tol": 1e-9})
    cfg = config_from_dict(doc)
    run_experiment(cfg, tmp_path / "periodic")
    monkeypatch.setattr("optomech.moments.HB_NEWTON_MAX", 1)
    run_experiment(cfg, tmp_path / "run")
    assert_brute_force_csvs(cfg, tmp_path / "run", tmp_path / "ref")

    # with the periodic solve allowed to converge, the window is its
    # harmonics and agrees with the brute force to the stepper's accuracy
    shortcut = np.loadtxt(tmp_path / "periodic" / "cm.csv", delimiter=",",
                          skiprows=1)
    brute = np.loadtxt(tmp_path / "ref" / "cm.csv", delimiter=",",
                       skiprows=1)
    assert not np.array_equal(shortcut, brute)
    scale = np.max(np.abs(brute), axis=0)
    assert np.max(np.abs(shortcut - brute) / scale) <= \
        10 * cfg.numerics.rel_tol


# delta_a = 3, E0 = 7.5e5: the working point, the one real root of the
# stationary cubic, has a drift with max Re eig = +0.205
CYCLING_POINT_DOC = {
    "params": dict(FIG2_DOC["params"], delta_a=3.0),
    "drive": {"Omega": 0.0, "components": [{"n": 0, "re": 7.5e5}]},
}


def test_constant_run_at_unstable_working_point(tmp_path):
    doc = dict(CYCLING_POINT_DOC, outputs=["stability", "EN"])
    with pytest.raises(NotStable):
        run_experiment(config_from_dict(doc), tmp_path)
    stab = json.loads((tmp_path / "stability.json").read_text())
    assert stab["stable"] is False
    assert stab["margin"] == pytest.approx(0.205, abs=1e-3)
    assert set(stab) == {"stable", "margin"}

    # a one-cell sweep there reads the same verdict
    doc = dict(CYCLING_POINT_DOC, sweep={"axes": [
        {"name": "E0", "min": 7.5e5, "max": 7.5e5, "points": 1}]})
    run_experiment(config_from_dict(doc), tmp_path / "sweep")
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert rows == ["E0,status,EN", "750000.0,unstable,nan"]


def _fig7_engineered():
    return dict(load_recipe("fig7"), horizon_periods=3.0,
                sample_periods=1.0, samples_per_period=20)


@pytest.mark.parametrize("make_doc", [_fig7_engineered])
def test_stability_is_floquet_for_every_source(tmp_path, make_doc):
    doc = dict(make_doc(), outputs=["EN", "stability"])
    run_experiment(config_from_dict(doc), tmp_path)
    stab = json.loads((tmp_path / "stability.json").read_text())
    assert set(stab) == {"stable", "max_multiplier", "transient_residue",
                         "truncation"}
    assert stab["stable"] is True
    assert 0.0 < stab["max_multiplier"] < 1.0
    # the window starts two periods in
    assert stab["transient_residue"] == pytest.approx(
        stab["max_multiplier"] ** 2)


def test_stability_at_window_from_t0_is_floquet(tmp_path):
    doc = dict(FIG2_DOC, horizon_periods=2.0, sample_periods=2.0,
               outputs=["cm", "stability"])
    run_experiment(config_from_dict(doc), tmp_path)
    stab = json.loads((tmp_path / "stability.json").read_text())
    assert stab["max_multiplier"] == pytest.approx(0.7885, abs=1e-4)
    assert stab["transient_residue"] == 1.0


def test_stability_raises_when_cycle_not_found(tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.setattr("optomech.moments.HB_NEWTON_MAX", 1)
    doc = dict(FIG2_DOC, horizon_periods=3.0, outputs=["EN", "stability"])
    with pytest.raises(NoConvergence):
        run_experiment(config_from_dict(doc), tmp_path)
    path = write_config(tmp_path, doc)
    capsys.readouterr()
    assert cli_main(["stability", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: NoConvergence: ")
    assert len(err.splitlines()) == 1


def test_principal_axis_output_follows_cm(tmp_path):
    doc = dict(FIG2_DOC, outputs=["cm", "principal_axis"])
    written = run_experiment(config_from_dict(doc), tmp_path)
    assert written["principal_axis"] == tmp_path / "principal_axis.csv"
    lines = (tmp_path / "principal_axis.csv").read_text().splitlines()
    assert lines[0] == "t,theta,lam_minus,lam_plus,r_db"
    assert (tmp_path / "measures.csv").read_text().splitlines()[0] == \
        "t,EN,v11,v22,neff,r_db"
    cm = np.loadtxt(tmp_path / "cm.csv", delimiter=",", skiprows=1)
    got = np.loadtxt(tmp_path / "principal_axis.csv", delimiter=",",
                     skiprows=1)
    assert got.shape == (40, 5)
    for row, want in zip(cm, got):
        # v11, v12, v22 are columns 1, 2 and 7 of cm.csv
        mech = np.array([[row[1], row[2]], [row[2], row[7]]])
        lam, _, r_db = squeezing_parameter(mech)
        assert list(want) == [row[0], principal_axis_angle(mech), lam,
                              float(np.trace(mech)) - lam, r_db]


@pytest.mark.parametrize("horizon", [10.0, 70.0])
def test_first_moments_come_from_the_cm_integration(tmp_path, monkeypatch,
                                                    horizon):
    # 10 periods: the window is inside the transient, integrated from
    # t = 0; 70 periods at rel_tol 1e-6: it is the periodic state's
    # harmonics, and nothing is integrated
    doc = dict(FIG2_DOC, horizon_periods=horizon,
               numerics={"rel_tol": 1e-6, "abs_tol": 1e-9})
    cfg = config_from_dict(doc)
    lyapunov = counting(monkeypatch, experiment.integrate_lyapunov,
                        experiment)
    moments = counting(monkeypatch, experiment.integrate_first_moments,
                       experiment)
    steps = counting(monkeypatch, fluctuations.integrate_adaptive,
                     fluctuations)
    run_experiment(cfg, tmp_path)
    assert moments == []
    if horizon == 70.0:
        assert lyapunov == []
    else:
        assert len(lyapunov) == 1 and steps[0][0][1][0] == 0.0
    fm = np.loadtxt(tmp_path / "first_moments.csv", delimiter=",",
                    skiprows=1)
    meas = np.loadtxt(tmp_path / "measures.csv", delimiter=",", skiprows=1)
    assert np.array_equal(fm[:, 0], meas[:, 0])

    # the means alone, integrated from t = 0, agree to the stepper's
    # accuracy
    alone = dict(doc, outputs=["first_moments"])
    run_experiment(config_from_dict(alone), tmp_path / "alone")
    assert len(moments) == 1
    ref = np.loadtxt(tmp_path / "alone" / "first_moments.csv",
                     delimiter=",", skiprows=1)
    assert np.array_equal(ref[:, 0], fm[:, 0])
    scale = np.max(np.abs(ref), axis=0)
    assert np.max(np.abs(fm - ref)[:, 1:] / scale[1:]) <= \
        10 * cfg.numerics.rel_tol


@pytest.mark.parametrize("make_doc", [_fig7_engineered])
def test_callable_source_steps_only_the_means(tmp_path, monkeypatch,
                                              make_doc):
    # the source fills the drift, so the CM is propagated by interval
    # maps and never stepped; the means asked for are stepped alone, as
    # in a run that asks for nothing else
    doc = dict(make_doc(), outputs=["first_moments", "cm", "EN"])
    cfg = config_from_dict(doc)
    lyapunov = counting(monkeypatch, experiment.integrate_lyapunov,
                        experiment)
    moments = counting(monkeypatch, experiment.integrate_first_moments,
                       experiment)
    steps = counting(monkeypatch, fluctuations.integrate_adaptive,
                     fluctuations, moments_module)
    run_experiment(cfg, tmp_path)
    assert len(lyapunov) == 1 and len(moments) == 1
    args, kwargs = lyapunov[0]
    assert callable(args[2])
    assert [np.size(a[2]) for a, _ in steps] == [6]
    assert steps[0][0][1][0] == 0.0
    fm = np.loadtxt(tmp_path / "first_moments.csv", delimiter=",",
                    skiprows=1)
    meas = np.loadtxt(tmp_path / "measures.csv", delimiter=",", skiprows=1)
    assert np.array_equal(fm[:, 0], meas[:, 0])

    # the same means, bit for bit, as the run that asks for them alone
    alone = dict(doc, outputs=["first_moments"])
    run_experiment(config_from_dict(alone), tmp_path / "alone")
    assert len(lyapunov) == 1 and len(moments) == 2
    assert (tmp_path / "alone" / "first_moments.csv").read_bytes() == \
        (tmp_path / "first_moments.csv").read_bytes()


def test_engineered_run_steps_means_only_when_asked(tmp_path, monkeypatch):
    sizes = []
    integrate = fluctuations.integrate_adaptive

    def counted(f, t_span, y0, cfg, t_eval=None):
        sizes.append(np.size(y0))
        return integrate(f, t_span, y0, cfg, t_eval=t_eval)

    monkeypatch.setattr(fluctuations, "integrate_adaptive", counted)
    monkeypatch.setattr(moments_module, "integrate_adaptive", counted)
    doc = _fig7_engineered()
    assert doc["outputs"] == ["EN"]
    run_experiment(config_from_dict(doc), tmp_path / "en")
    assert sizes == []                      # nothing stepped
    doc = dict(doc, outputs=["first_moments", "EN"])
    run_experiment(config_from_dict(doc), tmp_path / "means")
    assert sizes == [6]                     # the means alone


@pytest.mark.parametrize("t_wigner", [1e6, -1.0])
def test_wigner_times_outside_the_run_are_rejected(tmp_path, t_wigner):
    doc = dict(load_recipe("fig2"), outputs=["wigner"],
               wigner_times=[t_wigner])
    cfg = config_from_dict(doc)
    report = cfg.validate()
    assert len(report) == 1 and "wigner_times" in report[0]
    assert repr(t_wigner) in report[0]
    with pytest.raises(ValueError, match="wigner_times"):
        run_experiment(cfg, tmp_path)

    # a constant drive samples t = 0 alone, so no time applies to it
    doc = dict(CYCLING_POINT_DOC, wigner_times=[t_wigner])
    assert config_from_dict(doc).validate() == [
        "wigner_times do not apply to a constant drive, which samples "
        "t = 0 alone"]


@pytest.mark.parametrize("key, value", [
    ("horizon_periods", 0.0), ("horizon_periods", -5.0),
    ("sample_periods", 0.0), ("samples_per_period", 0),
    ("points", 0), ("points", -2)])
def test_run_window_and_grid_counts_are_checked(tmp_path, key, value):
    if key == "points":
        doc = load_recipe("fig4a")
        axes = [doc["sweep"]["axes"][0],
                dict(doc["sweep"]["axes"][1], points=value)]
        doc = dict(doc, sweep={"axes": axes})
    else:
        doc = dict(load_recipe("fig2"), **{key: value})
    cfg = config_from_dict(doc)
    report = cfg.validate()
    assert len(report) == 1 and key in report[0]
    with pytest.raises(ValueError, match=key):
        run_experiment(cfg, tmp_path)
    assert not (tmp_path / "sweep.csv").exists()

    if key != "points":
        # a constant drive samples t = 0 alone, whatever its window
        doc = dict(CYCLING_POINT_DOC, **{key: value})
        assert config_from_dict(doc).validate() == []


def test_unstable_cycle_integrates_no_window(tmp_path, monkeypatch):
    # |mu| = 1.047 and no verdict asked for: no stationary window exists
    doc = dict(FIG2_DOC, horizon_periods=3.0, samples_per_period=20,
               outputs=["EN"], drive=UNSTABLE_CYCLE_DRIVE)
    cfg = config_from_dict(doc)
    calls = counting(monkeypatch, experiment.integrate_lyapunov, experiment)
    assert evaluate_cell(cfg) == ("unstable", pytest.approx(np.nan,
                                                            nan_ok=True))
    with pytest.raises(NotStable, match="max_multiplier"):
        run_experiment(cfg, tmp_path)
    assert calls == []
    assert not (tmp_path / "measures.csv").exists()


def test_cell_without_floquet_verdict_is_not_stable(monkeypatch):
    # fig5a at kappa = 1: the cycle is unstable or is not found; either
    # way the cell integrates no window and never reads stable
    doc = load_recipe("fig5a")
    cfg = config_from_dict(dict(doc, params=dict(doc["params"], kappa=1.0)))
    calls = counting(monkeypatch, experiment.integrate_lyapunov, experiment)
    status, en = evaluate_cell(cfg)
    assert status in ("unstable", "error:NoConvergence")
    assert np.isnan(en)
    assert calls == []


# undamped atoms on resonance: gamma_a + i delta_c = 0 at delta_c = 0
RESONANT_ATOMS_DOC = {
    "params": dict(FIG4A_BOX_DOC["params"], gamma_a=0.0, delta_c=0.0),
    "drive": {"Omega": 0.0, "components": [{"n": 0, "re": 1.2e5}]},
}


# the same cell on the cubic route, with no delta_a_effective
RESONANT_CUBIC_DOC = dict(RESONANT_ATOMS_DOC, params={
    key: value for key, value in RESONANT_ATOMS_DOC["params"].items()
    if key != "delta_a_effective"})


@pytest.mark.parametrize("resonant_doc", [RESONANT_ATOMS_DOC,
                                          RESONANT_CUBIC_DOC],
                         ids=["prescribed", "cubic"])
def test_resonant_atoms_fail_one_point_run_with_typed_error(tmp_path,
                                                            resonant_doc):
    doc = dict(resonant_doc, outputs=["EN"])
    with pytest.raises(SingularDenominator, match=r"gamma_a \+ i delta_c"):
        run_experiment(config_from_dict(doc), tmp_path)
    assert not (tmp_path / "measures.csv").exists()


def _resonant_engineered():
    doc = load_recipe("fig7")
    del doc["first_moment_source"]      # a sweep's cells take "ode"
    return dict(doc, params=dict(doc["params"], gamma_a=0.0),
                horizon_periods=2.0, samples_per_period=10)


def _resonant_modulated():
    doc = load_recipe("fig5a")
    return dict(doc, params=dict(doc["params"], gamma_a=0.0))


@pytest.mark.parametrize("make_doc", [lambda: RESONANT_ATOMS_DOC,
                                      _resonant_engineered,
                                      _resonant_modulated,
                                      lambda: RESONANT_CUBIC_DOC],
                         ids=["constant", "engineered", "modulated",
                              "cubic"])
def test_resonant_atoms_flag_their_sweep_cell_only(tmp_path, make_doc):
    def sweep(points):
        doc = dict(make_doc(), sweep={"axes": [
            {"name": "delta_c", "min": -1.0, "max": 1.0, "points": points}]})
        run_experiment(config_from_dict(doc), tmp_path / str(points))
        return read_sweep(tmp_path / str(points) / "sweep.csv")

    rows = sweep(3)
    assert rows[1] == ["0.0", "error:SingularDenominator", "nan"]
    # the neighbours read what a sweep without the resonance reads
    assert [rows[0], rows[2]] == sweep(2)
    assert not any(row[1].startswith("error") for row in sweep(2))


@pytest.mark.parametrize("gamma_a", [0.0, 5e-11])
@pytest.mark.parametrize("resonant_doc", [RESONANT_ATOMS_DOC,
                                          RESONANT_CUBIC_DOC],
                         ids=["prescribed", "cubic"])
def test_constant_cells_read_what_they_read_alone(tmp_path, resonant_doc,
                                                  gamma_a):
    # E0 = 1e4, 5e199, 1e200 by delta_c = -1, 0, 1: stable, resonant-atom
    # (|gamma_a + i delta_c| below DEGENERACY_BOUND), non-Hurwitz and
    # overflowing cells in one block
    def sweep(name, e0_axis, delta_c_axis):
        keys = ("name", "min", "max", "points")
        doc = dict(resonant_doc, sweep={"axes": [
            dict(zip(keys, ("E0", *e0_axis))),
            dict(zip(keys, ("delta_c", *delta_c_axis)))]},
            params=dict(resonant_doc["params"], gamma_a=gamma_a))
        cfg = config_from_dict(doc)
        run_experiment(cfg, tmp_path / name)
        return cfg, read_sweep(tmp_path / name / "sweep.csv")

    cfg, rows = sweep("mixed", (1e4, 1e200, 3), (-1.0, 1.0, 3))
    assert [row[2] for row in rows] == [
        "stable", "error:SingularDenominator", "unstable",
        *["error:Singular", "error:SingularDenominator",
          "error:Singular"] * 2]
    for e0, delta_c, status, en in rows:
        cell = experiment._apply_axis(experiment._apply_axis(
            cfg, "E0", float(e0)), "delta_c", float(delta_c))
        want_status, want_en = evaluate_cell(cell)
        assert (status, en) == (want_status, repr(want_en))
    # the stable cell has the bits it has with no failing cell beside it
    _, alone = sweep("stable", (1e4, 1e4, 1), (-1.0, -1.0, 1))
    assert alone == [rows[0]]


@pytest.mark.parametrize("drop", [(), ("delta_a_effective",)],
                         ids=["prescribed", "cubic"])
def test_cli_sweep_flags_a_working_point_that_is_not_finite(tmp_path,
                                                            capsys, drop):
    # E0 = 5e199 and 1e200 overflow the working point; the cubic route
    # once raised LinAlgError for the whole sweep
    params = {key: value for key, value in
              load_recipe("fig4a")["params"].items() if key not in drop}
    path = write_config(tmp_path, {"params": params, "sweep": {"axes": [
        {"name": "E0", "min": 1e5, "max": 1e200, "points": 3}]}})
    assert cli_main(["sweep", "--recipe", "fig4a", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 0
    rows = read_sweep(tmp_path / "run" / "sweep.csv")
    assert [row[1:] for row in rows[1:]] == [["error:Singular", "nan"]] * 2
    assert rows[0][1] == "stable"


@pytest.mark.parametrize("recipe", ["fig4a", "fig5a"])
def test_cli_stability_names_a_working_point_that_is_not_finite(
        tmp_path, capsys, recipe):
    # E0 = 1e200 once printed {"stable": false, "margin": NaN} (fig4a) or
    # ended in a LinAlgError traceback (fig5a, the cubic route)
    path = write_config(tmp_path, {
        "drive": {"Omega": 0, "components": [{"n": 0, "re": 1e200}]},
        "sweep": {"axes": []}})
    assert cli_main(["stability", "--recipe", recipe,
                     "--config", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: Singular: drift matrix is not finite\n")


@pytest.mark.parametrize("axes, message", [
    ([("n_th", -5.0, 0.0)], "sweep axis 'n_th' reaches -5: n_th must be "
     "nonnegative"),
    ([("kappa", 0.2, 0.0)], "sweep axis 'kappa' reaches 0: kappa must be "
     "positive"),
    ([("n_th", -5.0, 0.0), ("kappa", -0.2, 0.2)],
     "sweep axis 'n_th' reaches -5: n_th must be nonnegative; sweep axis "
     "'kappa' reaches -0.2: kappa must be positive"),
], ids=["n_th", "kappa-max", "both"])
def test_sweep_axis_must_stay_in_the_parameter_domain(tmp_path, capsys,
                                                       axes, message):
    # a single run at n_th = -5 or kappa = 0 is refused; so is a sweep
    # whose axis reaches one
    doc = dict(load_recipe("fig4b"), sweep={"axes": [
        {"name": name, "min": lo, "max": hi, "points": 3}
        for name, lo, hi in axes]})
    assert config_from_dict(doc).validate() == message.split("; ")
    path = write_config(tmp_path, doc)
    assert cli_main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr() == (
        "", f"error: invalid configuration: {message}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("block, key, value", [
    ("engineered", "G1", 1e200), ("params", "g", 0.0)], ids=["G1", "g"])
def test_cli_engineered_drive_that_is_not_finite_fails_with_one_line(
        tmp_path, capsys, block, key, value):
    # G1 = 1e200 once overflowed g1 ** 2, and g = 0 divided a complex by
    # zero, each with a traceback
    doc = dict(load_recipe("fig7"), horizon_periods=5, sample_periods=1)
    doc[block] = dict(doc[block], **{key: value})
    path = write_config(tmp_path, doc)
    out = ["--out", str(tmp_path / "run")]
    for args in (["simulate", *out], ["stability", *out], ["engineer-drive"]):
        assert cli_main([*args, "--config", str(path)]) == 1
        assert capsys.readouterr() == (
            "", "error: Singular: the engineered drive is not finite\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("delta_c", [0.0, 2.0])
def test_cli_engineer_drive_rejects_resonant_atoms(tmp_path, capsys,
                                                   delta_c):
    # delta_c = 0 and delta_c = Omega zero the atomic denominators
    doc = {
        "params": {"delta_a": 1.0, "kappa": 10.0, "gamma_m": 1e-3,
                   "g": 1e-3, "delta_c": delta_c, "gamma_a": 0.0,
                   "G0": 1.0},
        "engineered": {"G1": 1.2, "G2": 0.1, "Omega": 2.0},
    }
    path = write_config(tmp_path, doc)
    assert cli_main(["engineer-drive", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: SingularDenominator: atomic denominator")
    assert len(err.splitlines()) == 1


# The Floquet series is no drift source and has no settable orders
@pytest.mark.parametrize("setting, message", [
    ({"floquet": {"j_max": 6, "n_max": 5}}, "unknown key 'floquet'"),
    ({"first_moment_source": "floquet"},
     "unknown first_moment_source 'floquet'")], ids=["block", "source"])
def test_retired_floquet_settings_fail_the_run(tmp_path, capsys, setting,
                                               message):
    path = write_config(tmp_path, dict(load_recipe("fig5a"), **setting))
    assert cli_main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr() == (
        "", f"error: invalid configuration: {message}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("omega", [-2.0, 0.0])
def test_engineered_omega_must_be_positive(tmp_path, capsys, omega):
    # Omega = -2 once validated clean and ended in a traceback in every
    # command; Omega = 0 stopped in the solve with SingularDenominator
    doc = dict(load_recipe("fig7"), horizon_periods=5, sample_periods=1)
    doc["engineered"]["Omega"] = omega
    message = "engineered.Omega must be positive"
    assert config_from_dict(doc).validate() == [message]
    path = write_config(tmp_path, doc)
    out = ["--out", str(tmp_path / "run")]
    for args in (["simulate", *out], ["stability", *out], ["engineer-drive"]):
        assert cli_main([*args, "--config", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"error: invalid configuration: {message}\n")
    assert not (tmp_path / "run").exists()


def test_cli_compare_sources_needs_a_modulated_drive(capsys):
    assert cli_main(["compare-sources", "--recipe", "fig4a"]) == 1
    assert capsys.readouterr() == (
        "", "error: invalid configuration: compare-sources needs a "
        "modulated drive\n")


def test_cli_sweep_needs_sweep_axes(tmp_path, capsys):
    # without axes the sweep command would run a plain simulation
    assert cli_main(["sweep", "--recipe", "fig5a",
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr() == (
        "", "error: invalid configuration: sweep needs sweep.axes\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("overlay, message", [
    ({}, "first_moment_source 'engineered' does not apply to a sweep"),
    ({"first_moment_source": "ode", "wigner_times": [np.pi]},
     "wigner_times do not apply to a sweep")],
    ids=["engineered_source", "wigner_times"])
def test_sweep_names_the_keys_its_cells_never_read(tmp_path, capsys,
                                                   overlay, message):
    # fig7 carries the engineered source; a sweep cell takes "ode" and
    # writes no Wigner grid
    doc = dict(load_recipe("fig7"), **overlay, sweep={"axes": [
        {"name": "kappa", "min": 9.0, "max": 11.0, "points": 2}]})
    assert config_from_dict(doc).validate() == [message]
    path = write_config(tmp_path, doc)
    assert cli_main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr() == (
        "", f"error: invalid configuration: {message}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("workload", ["asymptote", "transient"])
def test_bench_specs_match_their_stored_references(tmp_path, workload):
    # the periodic state's means and CM (asymptote), and the stepped
    # means and interval-map CM of fig7's transient
    workloads, check = bench_module("workloads"), bench_module("check")
    doc = workloads.resolved_doc(workloads.workload_spec(workload, 1),
                                 load_recipe)
    run_experiment(config_from_dict(doc), tmp_path)
    assert check.compare_snapshot(check.load_reference(workload),
                                  tmp_path) == []


def test_cli_names_a_missing_config_file(tmp_path, capsys):
    path = tmp_path / "nope.json"
    assert cli_main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot read {path}: No such file or directory\n")
    assert not (tmp_path / "run").exists()


def solved_times(monkeypatch):
    """The sample times t that each call of experiment.solve returns."""
    times, solve = [], experiment.solve

    def recorded(*args, **kwargs):
        out = solve(*args, **kwargs)
        times.append(out[0])
        return out

    monkeypatch.setattr(experiment, "solve", recorded)
    return times


def test_sweep_cell_window_is_the_last_period(tmp_path, monkeypatch):
    times = solved_times(monkeypatch)
    tau = np.pi
    for horizon in (10.0, 0.5):
        doc = dict(FIG2_DOC, horizon_periods=horizon, sweep={"axes": [
            {"name": "E0", "min": 1.5e5, "max": 1.5e5, "points": 1}]})
        run_experiment(config_from_dict(doc), tmp_path / str(horizon))
        rows = read_sweep(tmp_path / str(horizon) / "sweep.csv")
        assert rows[0][1] == "stable" and float(rows[0][2]) > 0.0
        t_end = horizon * tau
        # clamped at t = 0 when the horizon is shorter than a period
        want = np.linspace(t_end - tau if horizon >= 1.0 else 0.0, t_end, 40)
        assert np.array_equal(times[-1], want)


def test_compare_sources_window_is_the_last_two_periods(monkeypatch):
    times = solved_times(monkeypatch)
    tau = np.pi
    cfg = config_from_dict(FIG2_DOC)
    mu = fluctuations.periodic_state(cfg.params, cfg.drive, 0.0) \
        .max_multiplier
    assert mu ** 48 < 2e-5
    # the transient left at the window's start: mu^48 at 50 periods, and
    # all of it when the window starts at t = 0
    for horizon, residue in ((50.0, mu ** 48), (1.5, 1.0)):
        doc = dict(FIG2_DOC, horizon_periods=horizon)
        report = compare_sources(config_from_dict(doc))
        assert all(np.isfinite(v) for v in report.values())
        t_end = horizon * tau
        want = np.linspace(t_end - 2.0 * tau if horizon >= 2.0 else 0.0,
                           t_end, 400)
        assert np.array_equal(times[-1], want)
        assert report["transient_residue"] == pytest.approx(residue,
                                                            rel=1e-12)
