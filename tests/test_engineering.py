import json
from dataclasses import replace

import numpy as np
import pytest

from optomech.cli import main as cli_main
from optomech.engineering import (asymptotic_first_moments,
                                  engineered_mean_source,
                                  laplace_coefficients,
                                  modulation_components,
                                  transient_first_moments)
from optomech.errors import DegenerateExponents, SingularDenominator
from optomech.model import EngineeredCoupling, SystemParams
from optomech.recipes import load_recipe

FIG6 = SystemParams(delta_a=1.0, kappa=10.0, gamma_m=1e-3, g=1e-3,
                    delta_c=-1.0, gamma_a=1e-3, g0_collective=1.0)
TARGET = EngineeredCoupling(g1=1.2, g2=0.1, big_omega=2.0)
SQRT2 = np.sqrt(2.0)


def exact_drive(params, target, t):
    """Pre-asymptotic drive E(t) synthesized from the exact mean values,
    substituted back into the cavity's mean-value ODE."""
    lc = laplace_coefficients(params, target)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t_arr.shape, dtype=complex)
    big = target.big_omega
    for i, ti in enumerate(t_arr):
        fm = transient_first_moments(params, target, ti, lc)
        adot = (-1j * big * target.g2 * np.exp(-1j * big * ti)
                / (SQRT2 * params.g))
        out[i] = (adot + (params.kappa + 1j * params.delta_a) * fm.a
                  - 1j * params.g * fm.a * fm.q
                  + 1j * params.g0_collective * fm.c)
    return out


def test_undamped_mechanical_roots():
    params = SystemParams(delta_a=1.0, kappa=10.0, gamma_m=1e-12, g=1e-3,
                          delta_c=-1.0, gamma_a=1e-3, g0_collective=1.0)
    lc = laplace_coefficients(params, TARGET)
    assert lc.s[0] == pytest.approx(1j, abs=1e-9)
    assert lc.s[1] == pytest.approx(-1j, abs=1e-9)


def test_exponent_invariants_fig6():
    lc = laplace_coefficients(FIG6, TARGET)
    s1, s2, s3, s4, s5, s6, s7 = lc.s
    assert s1 + s2 == pytest.approx(-FIG6.gamma_m)
    assert s1 * s2 == pytest.approx(1.0)     # omega_m ** 2
    # quadratic-root oracle
    root = np.sqrt(complex(FIG6.gamma_m ** 2 - 4.0))
    assert s1 == pytest.approx((-1e-3 + root) / 2)
    assert s2 == pytest.approx((-1e-3 - root) / 2)
    assert (s3, s4, s5, s6) == (-2j, 2j, 0, -2j)
    assert s7 == pytest.approx(-(1e-3 - 1j))


def test_amplitudes_recomputation_equality_g2_zero():
    target = EngineeredCoupling(g1=1.2, g2=0.0, big_omega=2.0)
    lc = laplace_coefficients(FIG6, target)
    s = lc.s
    g1 = target.g1
    big = target.big_omega
    # independent re-evaluation of the partial-fraction numerators
    for i, others in ((4, (5, 6)), (5, (4, 6)), (6, (4, 5))):
        num = -1j * FIG6.g0_collective * g1 * s[i] \
            + FIG6.g0_collective * g1 * big
        den = SQRT2 * FIG6.g
        for o in others:
            den *= (s[i] - s[o])
        assert lc.k[i] == pytest.approx(num / den)
    for i, others in ((0, (1, 2, 3)), (1, (0, 2, 3)),
                      (2, (0, 1, 3)), (3, (0, 1, 2))):
        num = g1 ** 2 * s[i] ** 2 + g1 ** 2 * big ** 2
        den = 2.0 * FIG6.g
        for o in others:
            den *= (s[i] - s[o])
        assert lc.k[i] == pytest.approx(num / den)


def test_momentum_at_origin_is_amplitude_sum():
    lc = laplace_coefficients(FIG6, TARGET)
    fm = transient_first_moments(FIG6, TARGET, 0.0, lc)
    assert fm.p == pytest.approx(sum(lc.k[:4]).real)


def test_engineered_source_bitwise_equals_transient_moments():
    lc = laplace_coefficients(FIG6, TARGET)
    source = engineered_mean_source(FIG6, TARGET, lc)
    ts = np.random.default_rng(3).uniform(0.0, 40.0 * np.pi, 300)
    for t in [0.0, *ts, 5000.0]:
        q, a = source(t)
        fm = transient_first_moments(FIG6, TARGET, t, lc)
        assert np.float64(q).tobytes() == np.float64(fm.q).tobytes()
        assert np.complex128(a).tobytes() == np.complex128(fm.a).tobytes()
    # without coefficients, it derives the same ones
    q, a = engineered_mean_source(FIG6, TARGET)(1.5)
    assert (q, a) == (source(1.5)[0], source(1.5)[1])


def test_long_time_momentum_reduces_to_rotating_pair():
    lc = laplace_coefficients(FIG6, TARGET)
    t = 5000.0
    fm = transient_first_moments(FIG6, TARGET, t, lc)
    want = (lc.k[2] * np.exp(lc.s[2] * t)
            + lc.k[3] * np.exp(lc.s[3] * t)).real
    decayed = (abs(lc.k[0]) + abs(lc.k[1])) * np.exp(-FIG6.gamma_m * t / 2)
    assert abs(fm.p - want) <= decayed + 1e-12


def test_k3_long_time_approximation():
    lc = laplace_coefficients(FIG6, TARGET)
    big = TARGET.big_omega
    approx = (1j * TARGET.g1 * TARGET.g2 * big
              / (2.0 * FIG6.g * (big ** 2 - 1.0)))
    assert abs(lc.k[2] - approx) <= 1e-2 * abs(lc.k[2])


def test_transient_approaches_asymptote_on_decay_envelopes():
    lc = laplace_coefficients(FIG6, TARGET)
    tau = 2 * np.pi / TARGET.big_omega
    t1, t2 = 30 * tau, 60 * tau
    dq = []
    dc = []
    for t in (t1, t2):
        a = transient_first_moments(FIG6, TARGET, t, lc)
        b = asymptotic_first_moments(FIG6, TARGET, t)
        dq.append(abs(a.q - b.q))
        dc.append(abs(a.c - b.c))
    # mechanics decays like e^{-gamma_m t/2}, atoms like e^{-gamma_a t}
    assert dq[1] / dq[0] == pytest.approx(
        np.exp(-FIG6.gamma_m * (t2 - t1) / 2), rel=0.05)
    assert dc[1] / dc[0] == pytest.approx(
        np.exp(-FIG6.gamma_a * (t2 - t1)), rel=0.05)


def test_asymptotic_unmodulated_target_is_static():
    target = EngineeredCoupling(g1=1.2, g2=0.0, big_omega=2.0)
    f1 = asymptotic_first_moments(FIG6, target, 0.0)
    f2 = asymptotic_first_moments(FIG6, target, 1.234)
    assert f1.p == 0.0 and f2.p == 0.0
    assert f1.q == pytest.approx(1.2 ** 2 / (2 * FIG6.g))
    assert f1.q == pytest.approx(f2.q)


def test_asymptotic_periodicity_and_static_offset():
    tau = 2 * np.pi / TARGET.big_omega
    f1 = asymptotic_first_moments(FIG6, TARGET, 0.7)
    f2 = asymptotic_first_moments(FIG6, TARGET, 0.7 + tau)
    assert f1.q == pytest.approx(f2.q)
    assert f1.a == pytest.approx(f2.a)
    # static part of <q>: (G1^2 + G2^2) / (2 g omega_m) = 725.0
    t_grid = np.linspace(0.0, tau, 101)[:-1]
    qs = [asymptotic_first_moments(FIG6, TARGET, t).q for t in t_grid]
    assert np.mean(qs) == pytest.approx(725.0, rel=1e-9)


def test_modulation_components_g2_zero():
    target = EngineeredCoupling(g1=1.2, g2=0.0, big_omega=2.0)
    drive = modulation_components(FIG6, target)
    assert drive.component(2) == 0
    assert drive.component(1) == 0
    assert drive.component(-1) == 0
    g1 = 1.2
    want = (g1 / (SQRT2 * FIG6.g) * (FIG6.kappa + 1j * FIG6.delta_a)
            - 1j * g1 ** 3 / (2 * SQRT2 * FIG6.g)
            + FIG6.g0_collective ** 2 * g1
            / (SQRT2 * FIG6.g * (FIG6.gamma_a + 1j * FIG6.delta_c)))
    assert drive.component(0) == pytest.approx(want)


def test_component_ratio_identity():
    drive = modulation_components(FIG6, TARGET)
    ratio = drive.component(-1) / drive.component(2)
    assert ratio == pytest.approx(TARGET.g1 / TARGET.g2)


def test_exact_drive_converges_to_truncated_components():
    from optomech.model import drive_value
    drive = modulation_components(FIG6, TARGET)
    tau = 2 * np.pi / TARGET.big_omega

    def deviation(mult):
        t = np.linspace(mult * tau, (mult + 1) * tau, 64)
        exact = exact_drive(FIG6, TARGET, t)
        trunc = drive_value(drive, t)
        return np.max(np.abs(exact - trunc)) / np.max(np.abs(trunc))

    early, late = deviation(200), deviation(3000)
    assert late <= 2e-3
    assert late < 0.1 * early  # transient part of the drive dies off


def test_resonant_modulation_rejected():
    with pytest.raises(SingularDenominator):
        modulation_components(FIG6, EngineeredCoupling(g1=1.0, g2=0.1,
                                                       big_omega=1.0))
    with pytest.raises(SingularDenominator):
        asymptotic_first_moments(FIG6,
                                 EngineeredCoupling(g1=1.0, g2=0.1,
                                                    big_omega=1.0), 0.0)


@pytest.mark.parametrize("delta_c, name", [(0.0, "delta_c"),
                                           (2.0, "delta_c - Omega"),
                                           (5e-11, "delta_c")])
def test_undamped_resonant_atoms_rejected(delta_c, name):
    # gamma_a + i delta_c or gamma_a + i (delta_c - Omega) is zero, or
    # below DEGENERACY_BOUND (5e-11, where the atomic Laplace exponents
    # s5 = 0 and s7 = -i delta_c are degenerate too): every closed form
    # that divides by it refuses the target
    params = SystemParams(delta_a=1.0, kappa=10.0, gamma_m=1e-3, g=1e-3,
                          delta_c=delta_c, gamma_a=0.0, g0_collective=1.0)
    message = f"gamma_a \\+ i \\({name}\\) vanishes"
    for closed_form in (laplace_coefficients, modulation_components):
        with pytest.raises(SingularDenominator, match=message):
            closed_form(params, TARGET)
    with pytest.raises(SingularDenominator, match=message):
        asymptotic_first_moments(params, TARGET, 0.0)


@pytest.mark.parametrize("kind, changes", [
    ("mechanical", {"gamma_m": 2.0}),     # critical damping: s1 = s2 = -1
])
def test_degenerate_exponents_raise(tmp_path, capsys, kind, changes):
    message = f"{kind} exponents degenerate; partial fractions invalid"
    with pytest.raises(DegenerateExponents, match=message):
        laplace_coefficients(replace(FIG6, **changes), TARGET)
    doc = load_recipe("fig7")
    doc["params"].update(changes)
    path = tmp_path / "fig7.json"
    path.write_text(json.dumps(doc))
    rc = cli_main(["simulate", "--config", str(path),
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: DegenerateExponents: {message}\n"
