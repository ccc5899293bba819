"""The benchmark tracer (bench/layertrace.py) wraps optomech functions by
name; every name it lists must still resolve to a callable, or a traced
benchmark run fails."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


_SPEC = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
layertrace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layertrace)


@pytest.mark.parametrize("qual", layertrace.SPAN + layertrace.AGGREGATE)
def test_traced_name_resolves(qual):
    module, name = qual.split(".")
    home = importlib.import_module("optomech." + module)
    assert callable(getattr(home, name, None)), qual


def test_stepper_takes_the_rhs_first():
    # the tracer counts numerics.nfev by wrapping the first positional
    # argument of integrate_adaptive; it must stay the RHS f
    from optomech.numerics import integrate_adaptive
    params = list(inspect.signature(integrate_adaptive).parameters)
    assert params == ["f", "t_span", "y0", "cfg", "t_eval"]
