import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optomech.engineering import modulation_components
from optomech.model import (DriveSpec, EngineeredCoupling, FirstMoments,
                            SystemParams, drive_kernel, drive_value,
                            validate_params)

FIG2_PARAMS = SystemParams(delta_a=1.0, kappa=2.0, gamma_m=1e-3, g=1e-5,
                           delta_c=-1.0, gamma_a=0.1, g0_collective=1.0,
                           n_th=0.0)
FIG2_DRIVE = DriveSpec(big_omega=2.0,
                       components={0: 15e4, 1: 3e4, -1: 3e4})


def test_fig2_configuration_is_valid():
    assert validate_params(FIG2_PARAMS, FIG2_DRIVE) == []


def test_negative_kappa_reported():
    bad = SystemParams(delta_a=1.0, kappa=-1.0, gamma_m=1e-3, g=1e-5,
                       delta_c=-1.0, gamma_a=0.1, g0_collective=1.0)
    report = validate_params(bad, FIG2_DRIVE)
    assert any("kappa must be positive" in r for r in report)


def test_nan_fails_every_sign_check():
    nan = float("nan")
    bad = SystemParams(delta_a=1.0, kappa=nan, gamma_m=nan, g=nan,
                       delta_c=-1.0, gamma_a=nan, g0_collective=nan, n_th=nan)
    assert validate_params(bad, DriveSpec(big_omega=nan)) == [
        "kappa must be positive", "gamma_m must be positive",
        "gamma_a must be nonnegative", "n_th must be nonnegative",
        "g must be nonnegative", "G0 must be nonnegative",
        "modulation frequency must be nonnegative"]


def test_constant_drive_with_harmonic_reported():
    drive = DriveSpec(big_omega=0.0, components={0: 5.0, 1: 1.0})
    report = validate_params(FIG2_PARAMS, drive)
    assert any("Omega = 0" in r for r in report)


def test_drive_value_constant():
    drive = DriveSpec(big_omega=0.0, components={0: 5.0})
    assert drive_value(drive, 0.0) == 5.0
    assert drive_value(drive, 17.3) == 5.0


def test_drive_value_cosine_extremes():
    drive = DriveSpec(big_omega=2.0, components={1: 1.0, -1: 1.0})
    assert drive_value(drive, 0.0) == pytest.approx(2.0)
    assert drive_value(drive, np.pi / 2) == pytest.approx(-2.0)


def test_fig2_drive_quarter_period():
    # E_1 e^{-i pi/2} + E_{-1} e^{+i pi/2} cancels for E_1 = E_{-1}
    val = drive_value(FIG2_DRIVE, np.pi / 4)
    assert val == pytest.approx(15e4 + 0j)


@given(st.lists(st.tuples(st.integers(-8, 8),
                          st.complex_numbers(max_magnitude=1e6,
                                             allow_nan=False,
                                             allow_infinity=False)),
                min_size=1, max_size=6),
       st.floats(0.1, 10.0), st.floats(0.0, 100.0))
@settings(max_examples=60, deadline=None)
def test_drive_periodicity(pairs, big_omega, t):
    drive = DriveSpec(big_omega=big_omega, components=dict(pairs))
    tau = drive.period
    v1 = drive_value(drive, t)
    v2 = drive_value(drive, t + tau)
    scale = max(1.0, abs(v1))
    assert abs(v1 - v2) <= 1e-9 * scale


@given(st.lists(st.tuples(st.integers(1, 8),
                          st.complex_numbers(max_magnitude=1e6,
                                             allow_nan=False,
                                             allow_infinity=False)),
                min_size=1, max_size=5),
       st.floats(-1e6, 1e6),
       st.floats(0.1, 10.0), st.floats(0.0, 50.0))
@settings(max_examples=60, deadline=None)
def test_conjugate_symmetric_drive_is_real(pairs, e0, big_omega, t):
    comps = {0: complex(e0)}
    for n, en in pairs:
        comps[n] = en
        comps[-n] = np.conj(en)
    drive = DriveSpec(big_omega=big_omega, components=comps)
    val = drive_value(drive, t)
    assert abs(val.imag) <= 1e-12 * max(1.0, abs(val))


def bits(x) -> bytes:
    return np.asarray(x, dtype=complex).tobytes()


@pytest.mark.parametrize("drive", [
    FIG2_DRIVE,
    # fig7: the four-component engineered drive
    modulation_components(
        SystemParams(delta_a=1.0, kappa=10.0, gamma_m=1e-3, g=1e-3,
                     delta_c=-1.0, gamma_a=1e-3, g0_collective=1.0),
        EngineeredCoupling(g1=1.2, g2=0.1, big_omega=2.0)),
    DriveSpec(big_omega=0.0, components={0: 5.0 - 2.0j}),
], ids=["fig2", "fig7", "constant"])
def test_drive_kernel_bitwise_equals_drive_value(drive):
    kernel = drive_kernel(drive)
    ts = np.random.default_rng(7).uniform(0.0, 200.0 * np.pi, 500)
    for t in [0.0, np.pi / 4, *ts]:
        assert bits(kernel(t)) == bits(drive_value(drive, t))
        assert bits(kernel(np.float64(t))) == bits(drive_value(drive, t))


def test_moment_vector_round_trip():
    vec = np.arange(1.0, 7.0)
    fm = FirstMoments.from_vector(vec)
    assert (fm.q, fm.p, fm.a, fm.c) == (1.0, 2.0, 3.0 + 4.0j, 5.0 + 6.0j)
    assert np.array_equal(fm.to_vector(), vec)
    # one value per sample: rows of a (6, T) array
    fm = FirstMoments.from_vector(np.arange(12.0).reshape(6, 2))
    assert np.array_equal(fm.a, [4.0 + 6.0j, 5.0 + 7.0j])
