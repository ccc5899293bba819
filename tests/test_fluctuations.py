from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm, solve_continuous_lyapunov, \
    solve_discrete_lyapunov

from optomech.engineering import engineered_mean_source, \
    modulation_components
from optomech.errors import Diverged, NonPhysical, NotStable, Singular, \
    StepFailure
from optomech.experiment import config_from_dict, run_experiment
from optomech.fluctuations import (UNVECH, VECH, _check_physical,
                                   _moments_cm_rhs, build_diffusion,
                                   build_drift, integrate_lyapunov,
                                   lyapunov_stack, periodic_state,
                                   stability_check, steady_state_lyapunov,
                                   thermal_vacuum_cm)
from optomech.measures import symplectic_eigenvalues
from optomech.model import DriveSpec, EngineeredCoupling, SystemParams
from optomech.moments import _rhs_vector, default_stepper, \
    floquet_mean_source, floquet_recurse, steady_state_constant
from optomech.numerics import StepperConfig, integrate_adaptive

FIG2 = SystemParams(delta_a=1.0, kappa=2.0, gamma_m=1e-3, g=1e-5,
                    delta_c=-1.0, gamma_a=0.1, g0_collective=1.0)
FIG2_DRIVE = DriveSpec(big_omega=2.0,
                       components={0: 15e4, 1: 3e4, -1: 3e4})
FIG4 = replace(FIG2, kappa=0.2)


def random_params(rng):
    return SystemParams(delta_a=rng.uniform(-2, 2),
                        kappa=rng.uniform(0.1, 5),
                        gamma_m=rng.uniform(1e-4, 0.1),
                        g=rng.uniform(0, 1e-3),
                        delta_c=rng.uniform(-2, 2),
                        gamma_a=rng.uniform(0, 1),
                        g0_collective=rng.uniform(0, 3))


def transcription_oracle(params, q_mean, a_mean):
    """Drift matrix built independently from the complex linearized
    equations conjugated by the quadrature transformation."""
    det = params.delta_a - params.g * q_mean
    g0 = params.g0_collective
    ga = params.g * a_mean
    # basis (dq, dp, da, da*, dc, dc*)
    m = np.zeros((6, 6), dtype=complex)
    m[0, 1] = 1.0               # omega_m, the unit
    m[1, 0] = -1.0
    m[1, 1] = -params.gamma_m
    m[1, 2] = np.conj(ga)
    m[1, 3] = ga
    m[2, 2] = -(params.kappa + 1j * det)
    m[2, 0] = 1j * ga
    m[2, 4] = -1j * g0
    m[3, 3] = -(params.kappa - 1j * det)
    m[3, 0] = -1j * np.conj(ga)
    m[3, 5] = 1j * g0
    m[4, 4] = -(params.gamma_a + 1j * params.delta_c)
    m[4, 2] = -1j * g0
    m[5, 5] = -(params.gamma_a - 1j * params.delta_c)
    m[5, 3] = 1j * g0
    # u = T z with X = (a + a*)/sqrt2, Y = (a - a*)/(i sqrt2)
    s = 1 / np.sqrt(2)
    t = np.array([[1, 0, 0, 0, 0, 0],
                  [0, 1, 0, 0, 0, 0],
                  [0, 0, s, s, 0, 0],
                  [0, 0, -1j * s, 1j * s, 0, 0],
                  [0, 0, 0, 0, s, s],
                  [0, 0, 0, 0, -1j * s, 1j * s]], dtype=complex)
    a = t @ m @ np.linalg.inv(t)
    assert np.max(np.abs(a.imag)) <= 1e-12
    return a.real


def test_drift_zero_pattern_and_first_row():
    a = build_drift(FIG2, 12.3, 1.5 - 0.4j)
    assert np.array_equal(a[0], [0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    zero_mask = np.array([
        [1, 0, 1, 1, 1, 1],
        [0, 0, 0, 0, 1, 1],
        [0, 1, 0, 0, 1, 0],
        [0, 1, 0, 0, 0, 1],
        [1, 1, 1, 0, 0, 0],
        [1, 1, 0, 1, 0, 0]], dtype=bool)
    assert not a[zero_mask & ~np.eye(6, dtype=bool)].any() or True
    # structurally zero entries stay exactly zero
    for (i, j) in [(0, 0), (0, 2), (0, 3), (0, 4), (0, 5),
                   (1, 4), (1, 5), (2, 1), (2, 4), (3, 1),
                   (4, 0), (4, 1), (4, 2), (5, 0), (5, 1), (5, 3)]:
        assert a[i, j] == 0.0


def test_drift_decoupled_mechanical_eigenvalues_match_laplace_roots():
    params = SystemParams(delta_a=1.0, kappa=2.0, gamma_m=1e-3, g=0.0,
                          delta_c=-1.0, gamma_a=0.1, g0_collective=0.0)
    a = build_drift(params, 0.0, 0j)
    mech = np.linalg.eigvals(a[:2, :2])
    root = np.sqrt(complex(params.gamma_m ** 2 - 4.0))
    want = np.array([(-params.gamma_m + root) / 2,
                     (-params.gamma_m - root) / 2])
    assert np.allclose(np.sort_complex(mech), np.sort_complex(want))


def test_drift_real_cavity_mean_kills_gy_entries():
    a = build_drift(FIG2, 0.0, 3.7 + 0j)
    assert a[2, 0] == 0.0 and a[1, 3] == 0.0
    assert a[3, 0] != 0.0 and a[1, 2] != 0.0


def test_drift_matches_transcription_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        params = random_params(rng)
        q_mean = rng.uniform(-1e3, 1e3)
        a_mean = complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        got = build_drift(params, q_mean, a_mean)
        want = transcription_oracle(params, q_mean, a_mean)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(
            1.0, np.max(np.abs(want)))


def test_cm_rhs_bitwise_equals_build_drift():
    # the co-integrated RHS fills its drift template in place; its CM part
    # must be vech(A V + V A^T) + vech D with A = build_drift(means), also
    # when a call repeats earlier means after a call with other means
    rng = np.random.default_rng(5)
    means = [(0.0, 0.0, 0.0, 0.0), (12.3, 0.2, 1.5, -0.4),
             (-7.0, -1.0, -2.0, 3.0), (4.5, 0.0, 0.0, -8.0),
             (12.3, 0.2, 1.5, -0.4)]
    for params in (FIG2, *(random_params(rng) for _ in range(5))):
        f = _moments_cm_rhs(params, FIG2_DRIVE)
        d = build_diffusion(params)[VECH]
        for q, p, ar, ai in means:
            m = rng.normal(size=(6, 6))
            y = np.concatenate(((q, p, ar, ai, 0.3, -0.2), (m @ m.T)[VECH]))
            av = build_drift(params, q, complex(ar, ai)) @ y[6:][UNVECH]
            want = (av + av.T)[VECH] + d
            assert f(0.7, y)[6:].tobytes() == want.tobytes()


def test_scalar_and_one_cell_params_give_the_same_bits():
    # scalars take cell_matrices' one-np.array path, one-element arrays
    # its broadcast path
    rng = np.random.default_rng(8)
    for params in (FIG2, *(random_params(rng) for _ in range(5))):
        cell = replace(params, **{k: np.array([v]) for k, v in
                                  vars(params).items()})
        q_mean, a_mean = rng.uniform(-50, 50), complex(*rng.normal(0, 9, 2))
        scalar = build_drift(params, q_mean, a_mean)
        arrays = build_drift(cell, np.array([q_mean]), np.array([a_mean]))
        assert scalar.shape == (6, 6) and arrays.shape == (1, 6, 6)
        assert scalar.tobytes() == arrays[0].tobytes()
        assert build_diffusion(params).tobytes() == \
            build_diffusion(cell)[0].tobytes()


def test_diffusion_entries():
    p = SystemParams(delta_a=1.0, kappa=2.0, gamma_m=1e-3, g=1e-5,
                     delta_c=-1.0, gamma_a=0.1, g0_collective=1.0,
                     n_th=0.0)
    assert build_diffusion(p)[1, 1] == pytest.approx(1e-3)
    p50 = SystemParams(delta_a=1.0, kappa=2.0, gamma_m=1e-3, g=1e-5,
                       delta_c=-1.0, gamma_a=0.1, g0_collective=1.0,
                       n_th=50.0)
    assert build_diffusion(p50)[1, 1] == pytest.approx(0.101)
    fig8 = SystemParams(delta_a=1.0, kappa=10.0, gamma_m=1e-6, g=5e-5,
                        delta_c=-1.1, gamma_a=1e-3, g0_collective=6.0)
    d = build_diffusion(fig8)
    assert d[2, 2] == 10.0 and d[3, 3] == 10.0
    assert np.array_equal(d, np.diag(np.diag(d)))


def test_unforced_stable_lyapunov_decays():
    params = SystemParams(delta_a=1.0, kappa=2.0, gamma_m=0.5, g=0.0,
                          delta_c=-1.0, gamma_a=0.5, g0_collective=0.0)
    drive = DriveSpec(big_omega=0.0, components={})
    v0 = thermal_vacuum_cm(0.0) + 0.1 * np.eye(6)
    base = thermal_vacuum_cm(0.0)
    # D = 0 flow: propagate the perturbation only (linearity of the eq.)
    lt = integrate_lyapunov(params, drive, lambda t: (0.0, 0j),
                            v0, 40.0, t_eval=[40.0])
    lt0 = integrate_lyapunov(params, drive, lambda t: (0.0, 0j),
                             base, 40.0, t_eval=[40.0])
    assert np.max(np.abs(lt.v[-1] - lt0.v[-1])) <= 1e-8


def test_vacuum_fixed_point_of_decoupled_cavity():
    params = SystemParams(delta_a=1.0, kappa=2.0, gamma_m=1e-3, g=0.0,
                          delta_c=-1.0, gamma_a=0.1, g0_collective=0.0)
    drive = DriveSpec(big_omega=0.0, components={})
    lt = integrate_lyapunov(params, drive, lambda t: (0.0, 0j),
                            thermal_vacuum_cm(0.0), 10.0,
                            t_eval=[0.0, 5.0, 10.0])
    for v in lt.v:
        assert np.max(np.abs(v[2:4, 2:4] - 0.5 * np.eye(2))) <= 1e-9


FIG7 = SystemParams(delta_a=1.0, kappa=10.0, gamma_m=1e-3, g=1e-3,
                    delta_c=-1.0, gamma_a=1e-3, g0_collective=1.0)
FIG7_TARGET = EngineeredCoupling(g1=1.2, g2=0.1, big_omega=2.0)


@pytest.mark.parametrize("t_eval", [np.linspace(0.0, 3.0, 31),
                                    np.array([0.7, 2.0, 2.05, 9.0]),
                                    np.array([13.0, 13.05, 13.1, 27.0,
                                              27.02])])
def test_constant_drift_propagates_in_closed_form(t_eval):
    # V(t) = e^{At} (V0 - V_inf) e^{A^T t} + V_inf, for a source that
    # returns scalars; the second window starts late and has gaps
    # longer than the step cap; in the third, the 130 pieces of 0.1
    # before the first sample outlast a chunk, so the chunk that ends
    # them also holds short gaps
    fm, eff = steady_state_constant(FIG2, 1.2e5, delta_a_eff=1.0)
    a = build_drift(eff, fm.q, fm.a)
    v_inf = solve_continuous_lyapunov(a, -build_diffusion(eff))
    drive = DriveSpec(big_omega=0.0, components={0: 1.2e5})
    v0 = thermal_vacuum_cm(3.0)
    lt = integrate_lyapunov(eff, drive, lambda t: (fm.q, fm.a), v0,
                            t_eval[-1], t_eval=t_eval)
    assert lt.means is None and np.array_equal(lt.t, t_eval)
    for t, v in zip(t_eval, lt.v):
        u = expm(a * t)
        want = u @ (v0 - v_inf) @ u.T + v_inf
        assert np.max(np.abs(v - want)) <= 1e-9 * np.max(np.abs(want))


def _fig7_brute_force(t_eval):
    """vech V of FIG7's engineered drive at t_eval from the thermal
    vacuum, integrated at rel_tol 1e-12 one RHS call at a time."""
    source = engineered_mean_source(FIG7, FIG7_TARGET)
    d = build_diffusion(FIG7)

    def f(t, y):
        av = build_drift(FIG7, *source(t)) @ y[UNVECH]
        return (av + av.T + d)[VECH]

    cfg = StepperConfig(rel_tol=1e-12, abs_tol=1e-15, max_step=np.pi / 50)
    return integrate_adaptive(f, (0.0, t_eval[-1]),
                              thermal_vacuum_cm(0.0)[VECH], cfg,
                              t_eval=t_eval).y.T


def test_engineered_cm_matches_brute_force():
    # three periods of fig7 from t = 0, 20 samples a period; the
    # co-integrating stepper was 3.4e-9 off (column-scaled)
    t_eval = np.linspace(0.0, 3 * np.pi, 61)
    drive = modulation_components(FIG7, FIG7_TARGET)
    lt = integrate_lyapunov(FIG7, drive,
                            engineered_mean_source(FIG7, FIG7_TARGET), None,
                            t_eval[-1], t_eval=t_eval)
    want = _fig7_brute_force(t_eval)
    got = lt.v[:, VECH[0], VECH[1]]
    assert np.max(np.abs(got - want) / np.max(np.abs(want), axis=0)) \
        <= 3.4e-9
    assert np.max(np.abs(lt.v - lt.v.swapaxes(1, 2))) <= 1e-10
    assert np.min(symplectic_eigenvalues(lt.v)) >= 0.5 - 1e-6


def test_late_window_equals_the_run_sampled_from_zero():
    drive = modulation_components(FIG7, FIG7_TARGET)
    source = engineered_mean_source(FIG7, FIG7_TARGET)
    t_eval = np.linspace(0.0, 6 * np.pi, 241)
    full = integrate_lyapunov(FIG7, drive, source, None, t_eval[-1],
                              t_eval=t_eval)
    late = integrate_lyapunov(FIG7, drive, source, None, t_eval[-1],
                              t_eval=t_eval[200:])
    assert np.array_equal(late.t, t_eval[200:])
    scale = np.max(np.abs(full.v[200:]), axis=0)
    assert np.max(np.abs(late.v - full.v[200:]) / scale) <= 1e-9


def test_mean_sources_take_arrays_of_times():
    ts = np.random.default_rng(4).uniform(0.0, 40 * np.pi, 50)
    series = floquet_recurse(FIG2, FIG2_DRIVE)
    for source in (engineered_mean_source(FIG7, FIG7_TARGET),
                   floquet_mean_source(series, FIG2.g)):
        q, a = source(ts)
        assert q.shape == a.shape == ts.shape
        assert q.dtype == float and a.dtype == complex
        for t, qt, at in zip(ts, q, a):
            q1, a1 = source(t)
            assert abs(q1 - qt) <= 1e-14 * abs(qt)
            assert abs(a1 - at) <= 1e-14 * abs(at)


def test_divergent_cm_raises_past_the_overflow_guard():
    # blue detuned and strongly coupled: max Re eig(A) = 0.75
    params = replace(FIG2, delta_a=-1.0)
    drive = DriveSpec(big_omega=0.0, components={})
    with pytest.raises(Diverged, match=r"exceeded 1e\+12 at t = 18$"):
        integrate_lyapunov(params, drive, lambda t: (0.0, 5e5 + 0j), None,
                           40.0, t_eval=np.linspace(0.0, 40.0, 41))
    # the stretch before a single sample
    with pytest.raises(Diverged, match=r"at t = 40$"):
        integrate_lyapunov(params, drive, lambda t: (0.0, 5e5 + 0j), None,
                           40.0)
    # past the guard long before the last of many samples: each chunk is
    # checked before the next one is judged for its V
    with pytest.raises(Diverged, match=r"exceeded 1e\+12 at t = 18$"):
        integrate_lyapunov(params, drive, lambda t: (0.0, 5e5 + 0j), None,
                           1000.0, t_eval=np.linspace(0.0, 1000.0, 1001))


def test_interval_route_rejects_what_it_cannot_step():
    drive = DriveSpec(big_omega=0.0, components={})
    # a drift that is not finite fails every halving of its pieces
    with pytest.raises(StepFailure, match="at every part length"):
        integrate_lyapunov(FIG2, drive, lambda t: (np.nan, 0j), None, 1.0)
    with pytest.raises(ValueError, match="t_eval must ascend"):
        integrate_lyapunov(FIG2, drive, lambda t: (0.0, 0j), None, 1.0,
                           t_eval=[0.5, 0.2])


def test_lyapunov_symmetry_and_physicality_fig2():
    t_eval = np.linspace(0.0, 10 * np.pi, 50)
    lt = integrate_lyapunov(FIG2, FIG2_DRIVE, "ode", None, 10 * np.pi,
                            t_eval=t_eval)
    for v in lt.v:
        assert np.max(np.abs(v - v.T)) <= 1e-10
        assert np.min(symplectic_eigenvalues(v)) >= 0.5 - 1e-6


def test_steady_state_decoupled_vacuum_cavity():
    params = SystemParams(delta_a=1.0, kappa=2.0, gamma_m=0.3, g=0.0,
                          delta_c=-1.0, gamma_a=0.4, g0_collective=0.0)
    a = build_drift(params, 0.0, 0j)
    v = steady_state_lyapunov(a, build_diffusion(params))
    assert np.max(np.abs(v[2:4, 2:4] - 0.5 * np.eye(2))) <= 1e-10


def test_steady_state_thermal_oscillator():
    params = SystemParams(delta_a=1.0, kappa=2.0, gamma_m=0.05, g=0.0,
                          delta_c=-1.0, gamma_a=0.4, g0_collective=0.0,
                          n_th=10.0)
    a = build_drift(params, 0.0, 0j)
    v = steady_state_lyapunov(a, build_diffusion(params))
    assert v[0, 0] == pytest.approx(10.5, rel=1e-8)
    assert v[1, 1] == pytest.approx(10.5, rel=1e-8)


@lru_cache(maxsize=None)
def fig4_point_steady_states():
    """(algebraic, integrated) steady-state CMs of FIG2 at E0 = 1.2e5 and
    the working-point detuning 1: the Lyapunov solve, and the CM equation
    propagated to 50/kappa + 20/gamma_m by interval maps, 200,250
    pieces.  That takes about a second, so every test that compares the
    two shares this one result."""
    fm, eff = steady_state_constant(FIG2, 1.2e5, delta_a_eff=1.0)
    v_alg = steady_state_lyapunov(build_drift(eff, fm.q, fm.a),
                                  build_diffusion(eff))
    drive = DriveSpec(big_omega=0.0, components={0: 1.2e5})
    horizon = 50.0 / eff.kappa + 20.0 / eff.gamma_m
    lt = integrate_lyapunov(eff, drive, lambda t: (fm.q, fm.a),
                            None, horizon, t_eval=[horizon])
    return v_alg, lt.v[-1]


def test_steady_state_matches_long_time_integration_fig4_point():
    v_alg, v_int = fig4_point_steady_states()
    assert np.max(np.abs(v_int - v_alg)) <= 1e-6


def test_steady_state_rejects_non_hurwitz():
    with pytest.raises(NotStable):
        steady_state_lyapunov(np.eye(6), np.eye(6))


def fig4_stack(points):
    """Drift and diffusion stacks at fig4 working points (E0, G0)."""
    drifts, diffusions = [], []
    for e0, g0 in points:
        fm, eff = steady_state_constant(replace(FIG4, g0_collective=g0), e0,
                                        delta_a_eff=1.0)
        drifts.append(build_drift(eff, fm.q, fm.a))
        diffusions.append(build_diffusion(eff))
    return np.array(drifts), np.array(diffusions)


def test_lyapunov_stack_matches_scipy_lyapunov():
    a, d = fig4_stack([(1.2e5, 1.0), (2e5, 2.5), (5e4, 0.5)])
    v, _, errors = lyapunov_stack(a, d)
    assert errors == [None, None, None]
    assert np.array_equal(v, v.swapaxes(1, 2))
    for ai, di, vi in zip(a, d, v):
        want = solve_continuous_lyapunov(ai, -di)
        assert np.max(np.abs(vi - want)) <= 1e-12 * np.max(np.abs(vi))


def test_lyapunov_stack_flags_near_singular_cell():
    # the middle drift is Hurwitz, but its slowest rate is subnormal, so
    # V = D / (2 * 1e-320) overflows: the cell fails its residual check
    # while its neighbours solve within the bound
    a, d = fig4_stack([(1.2e5, 1.0), (2e5, 2.5)])
    a = np.stack((a[0], np.diag([-1e-320, -1.0, -1.0, -1.0, -1.0, -1.0]),
                  a[1]))
    d = np.stack((d[0], np.eye(6), d[1]))
    v, _, errors = lyapunov_stack(a, d)
    assert isinstance(errors[1], Singular)
    assert np.isnan(v[1]).all()
    eye = np.eye(6)
    for i in (0, 2):
        assert errors[i] is None
        assert np.array_equal(v[i], steady_state_lyapunov(a[i], d[i]))
        m = np.kron(eye, a[i]) + np.kron(a[i], eye)
        x = v[i].flatten(order="F")
        b = -d[i].flatten(order="F")
        resid = np.linalg.norm(m @ x - b, np.inf)
        bound = 1e-10 * (np.linalg.norm(m, np.inf) * np.linalg.norm(x, np.inf)
                         + np.linalg.norm(b, np.inf))
        assert resid <= bound


def test_lyapunov_stack_flags_non_hurwitz_cell_only():
    a, d = fig4_stack([(1.2e5, 1.0), (2e5, 2.5)])
    alone = [steady_state_lyapunov(ai, di) for ai, di in zip(a, d)]
    v, _, errors = lyapunov_stack(np.stack((a[0], np.eye(6), a[1])),
                               np.stack((d[0], np.eye(6), d[1])))
    assert isinstance(errors[1], NotStable)
    assert np.isnan(v[1]).all()
    assert errors[0] is None and errors[2] is None
    assert np.array_equal(v[0], alone[0])
    assert np.array_equal(v[2], alone[1])


def test_lyapunov_stack_isolates_failed_solve(monkeypatch):
    # LAPACK raises for a whole stack when one of its systems is exactly
    # singular; mark cell 1 (drift -7 I, vech operator -14 I) as one
    a, d = fig4_stack([(1.2e5, 1.0), (2e5, 2.5)])
    alone = [steady_state_lyapunov(ai, di) for ai, di in zip(a, d)]
    solve = np.linalg.solve
    marked = -14.0 * np.eye(21)

    def solve_failing_on_mark(m, b):
        if np.any(np.all(m == marked, axis=(-2, -1))):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(m, b)

    monkeypatch.setattr(np.linalg, "solve", solve_failing_on_mark)
    v, _, errors = lyapunov_stack(np.stack((a[0], -7.0 * np.eye(6), a[1])),
                               np.stack((d[0], np.eye(6), d[1])))
    assert isinstance(errors[1], Singular)
    assert np.isnan(v[1]).all()
    assert np.array_equal(v[0], alone[0])
    assert np.array_equal(v[2], alone[1])


def test_stability_decoupled_margin():
    params = SystemParams(delta_a=1.0, kappa=2.0, gamma_m=1e-3, g=0.0,
                          delta_c=-1.0, gamma_a=0.1, g0_collective=0.0)
    _, (margin,), _ = lyapunov_stack(build_drift(params, 0.0, 0j)[None],
                                     build_diffusion(params)[None])
    report = stability_check(margin)
    assert report["stable"] is True
    assert report["margin"] == pytest.approx(-params.gamma_m / 2, rel=1e-6)


def test_stability_fig2_configuration():
    # the periodic state one period in: the Floquet verdict
    report = stability_check(periodic_state(FIG2, FIG2_DRIVE, np.pi))
    assert report["stable"] is True
    assert report["max_multiplier"] == pytest.approx(0.7885, abs=1e-4)
    assert "margin" not in report


def test_stability_fig4_unstable_point():
    params = replace(FIG2, kappa=0.2, g0_collective=0.5)
    fm, eff = steady_state_constant(params, 3e5, delta_a_eff=1.0)
    _, (margin,), (error,) = lyapunov_stack(
        build_drift(eff, fm.q, fm.a)[None], build_diffusion(eff)[None])
    report = stability_check(margin)
    assert report["stable"] is False
    assert report["margin"] > 0.0
    # the stacked Lyapunov solve applies the same Hurwitz test
    assert isinstance(error, NotStable)


def test_propagator_form_agrees_over_one_step():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    a -= (np.max(np.linalg.eigvals(a).real) + 1.0) * np.eye(6)
    d = np.diag(rng.uniform(0.1, 1.0, 6))
    v0 = np.eye(6) * 0.7
    h = 1e-4

    params = FIG2  # unused by the callable below

    def rhs(v):
        return a @ v + v @ a.T + d

    # one RK4 step of the CM equation of motion
    k1 = rhs(v0)
    k2 = rhs(v0 + 0.5 * h * k1)
    k3 = rhs(v0 + 0.5 * h * k2)
    k4 = rhs(v0 + h * k3)
    stepped = v0 + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    # first-principles propagator update with O(h^2) forcing quadrature
    u = expm(a * h)
    propagated = u @ v0 @ u.T + h * d
    assert np.max(np.abs(stepped - propagated)) <= 10 * h ** 2


def test_unphysical_alarm_triggers_on_bogus_cm():
    drive = DriveSpec(big_omega=0.0, components={})
    params = SystemParams(delta_a=1.0, kappa=2.0, gamma_m=0.1, g=0.0,
                          delta_c=-1.0, gamma_a=0.1, g0_collective=0.0)
    with pytest.raises(NonPhysical):
        integrate_lyapunov(params, drive, lambda t: (0.0, 0j),
                           np.zeros((6, 6)), 1.0, t_eval=[0.0, 1.0])


def _random_cms(rng, count):
    """Physical CMs: the vacuum plus a random positive semidefinite part."""
    a = rng.standard_normal((count, 6, 6))
    return 0.5 * np.eye(6) + a @ np.transpose(a, (0, 2, 1))


def test_stacked_symplectic_minimum_matches_per_cm():
    vs = _random_cms(np.random.default_rng(23), 40)
    stacked = symplectic_eigenvalues(vs)
    for k, v in enumerate(vs):
        assert np.array_equal(stacked[k], symplectic_eigenvalues(v))
        assert stacked[k, 0] == np.min(symplectic_eigenvalues(v))


def test_physicality_check_raises_at_the_bogus_cm():
    vs = _random_cms(np.random.default_rng(29), 9)
    t = np.linspace(0.0, 4.0, 9)
    _check_physical(t, vs)
    vs[5] = 0.3 * np.eye(6)
    vs[7] = 0.2 * np.eye(6)
    with pytest.raises(NonPhysical,
                       match=r"0\.30000000 < 1/2 at t = 2\.5;"):
        _check_physical(t, vs)


# fig5a: 200 periods, the last two sampled; the window starts at 198 tau.
FIG5A_T0 = 198 * np.pi
# the drive whose limit cycle has |mu| = 1.047 (a negative real multiplier)
UNSTABLE_CYCLE_DRIVE = DriveSpec(big_omega=2.0,
                                 components={0: 5e4, 1: 8e4, -1: 8e4})


def _one_period(params, drive, y, t0, cfg):
    """(y, Phi, vech W) one period after (y, W = 0, Phi = I) at t0: the
    means, the fundamental matrix (dPhi/dt = A(t) Phi) and the forced CM
    integrated together."""
    f = _moments_cm_rhs(params, drive)

    def rhs(t, state):
        phi = build_drift(params, state[0], complex(state[2], state[3])) \
            @ state[27:].reshape(6, 6)
        return np.concatenate((f(t, state[:27]), phi.ravel()))

    state = np.concatenate((y, np.zeros(21), np.eye(6).ravel()))
    end = integrate_adaptive(rhs, (t0, t0 + drive.period), state,
                             cfg).y[:, -1]
    return end[:6], end[27:].reshape(6, 6), end[6:27]


@pytest.fixture(scope="module")
def fig5a_periodic():
    return periodic_state(FIG2, FIG2_DRIVE, FIG5A_T0)


def test_periodic_state_passes_gate_fig5a(fig5a_periodic):
    ps = fig5a_periodic
    assert ps.usable
    assert ps.max_multiplier == pytest.approx(0.7885, abs=1e-4)
    assert ps.transient_residue == pytest.approx(ps.max_multiplier ** 198)


def test_periodic_state_returns_after_one_period(fig5a_periodic):
    (y0,), (v0,) = fig5a_periodic.sample(FIG5A_T0)
    t1 = FIG5A_T0 + np.pi

    # means: an independent route through SciPy's RK45 pair, not the
    # library's DOP853 stepping loop
    sol = solve_ivp(_rhs_vector(FIG2, FIG2_DRIVE), (FIG5A_T0, t1), y0,
                    method="RK45", rtol=1e-12, atol=1e-9)
    y1 = sol.y[:, -1]
    assert np.max(np.abs(y1 - y0)) <= 1e-8 * np.max(np.abs(y0))

    # the CM with the means, integrated over (t0, t1) as _one_period does
    lt = integrate_adaptive(_moments_cm_rhs(FIG2, FIG2_DRIVE), (FIG5A_T0, t1),
                            np.concatenate((y0, v0[VECH])),
                            default_stepper(FIG2_DRIVE), t_eval=[FIG5A_T0, t1])
    vs = lt.y[6:].T[:, UNVECH]
    assert np.array_equal(vs[0], v0)
    assert np.max(np.abs(vs[-1] - v0)) <= 1e-8 * np.max(np.abs(v0))


def test_periodic_cm_is_physical(fig5a_periodic):
    (v,) = fig5a_periodic.sample(FIG5A_T0)[1]
    assert np.array_equal(v, v.T)
    assert np.min(symplectic_eigenvalues(v)) >= 0.5 - 1e-6


def test_periodic_cm_solves_the_discrete_lyapunov_equation(fig5a_periodic):
    (y0,), (v0,) = fig5a_periodic.sample(FIG5A_T0)
    _, phi, w = _one_period(FIG2, FIG2_DRIVE, y0, FIG5A_T0,
                            default_stepper(FIG2_DRIVE))
    assert w.shape == (21,)
    w = w[UNVECH]
    scale = np.max(np.abs(v0))
    oracle = solve_discrete_lyapunov(phi, w)
    assert np.max(np.abs(v0 - oracle)) <= 1e-12 * scale
    assert np.max(np.abs(v0 - phi @ v0 @ phi.T - w)) <= 1e-12 * scale


def test_periodic_cm_residuals_are_checked(monkeypatch):
    # a solve result 1e-6 off in the 21(2N+1) = 189 and 357 unknowns of
    # the fig5a CM system fails its residual bounds
    solve = np.linalg.solve

    def perturbed(a, b):
        x = solve(a, b)
        return x * (1.0 + 1e-6) if a.shape[-1] in (189, 357) else x

    monkeypatch.setattr(np.linalg, "solve", perturbed)
    with pytest.raises(Singular, match="times their bounds"):
        periodic_state(FIG2, FIG2_DRIVE, FIG5A_T0)


@pytest.mark.parametrize("e0", [1.5e5, 5e4])
def test_constant_drive_is_the_zero_harmonic_case(e0):
    # E_0 alone at Omega = 2 makes a static cycle: the working point and
    # its steady-state CM, with |mu| = exp(tau margin), tau = pi
    ps = periodic_state(FIG2, DriveSpec(big_omega=2.0, components={0: e0}),
                        FIG5A_T0)
    (y,), (v,) = ps.sample(FIG5A_T0)
    fm, eff = steady_state_constant(FIG2, e0)
    (want_v,), (margin,), (error,) = lyapunov_stack(
        build_drift(eff, fm.q, fm.a)[None], build_diffusion(eff)[None])
    assert error is None and margin < 0.0
    want_y = fm.to_vector()
    assert np.max(np.abs(y - want_y)) <= 1e-13 * np.max(np.abs(want_y))
    assert np.max(np.abs(v - want_v)) <= 1e-13 * np.max(np.abs(want_v))
    assert abs(ps.max_multiplier - np.exp(np.pi * margin)) <= 1e-14


def test_periodic_run_matches_brute_force_fig5a(tmp_path):
    doc = {"params": {"delta_a": 1.0, "kappa": 2.0, "gamma_m": 1e-3,
                      "g": 1e-5, "delta_c": -1.0, "gamma_a": 0.1,
                      "G0": 1.0, "n_th": 0.0},
           "drive": {"Omega": 2.0,
                     "components": [{"n": 0, "re": 150000.0},
                                    {"n": 1, "re": 30000.0},
                                    {"n": -1, "re": 30000.0}]},
           "horizon_periods": 200, "sample_periods": 2,
           "samples_per_period": 50, "outputs": ["cm"]}
    run_experiment(config_from_dict(doc), tmp_path)
    rows = np.loadtxt(tmp_path / "cm.csv", delimiter=",", skiprows=1)

    t_end = 200 * np.pi
    t_eval = np.linspace(FIG5A_T0, t_end, 100)
    lt = integrate_lyapunov(FIG2, FIG2_DRIVE, "ode", None, t_end,
                            t_eval=t_eval)
    iu = np.triu_indices(6)
    want = lt.v[:, iu[0], iu[1]]
    assert np.array_equal(rows[:, 0], t_eval)
    scale = np.max(np.abs(want), axis=0)
    assert np.max(np.abs(rows[:, 1:] - want) / scale) <= 1e-7


@pytest.mark.parametrize("drive, stable", [(FIG2_DRIVE, True),
                                           (UNSTABLE_CYCLE_DRIVE, False)],
                         ids=["fig5a", "unstable_cycle"])
def test_hill_multiplier_matches_integrated_monodromy(drive, stable):
    # Hill's max |mu| against the eigenvalues of Phi integrated over one
    # period along the harmonic-balance cycle
    ps = periodic_state(FIG2, drive, FIG5A_T0)
    (y0,), _ = ps.sample(FIG5A_T0)
    y_end, phi, _ = _one_period(FIG2, drive, y0, FIG5A_T0,
                                default_stepper(drive, StepperConfig(
                                    rel_tol=1e-13, abs_tol=1e-13)))
    assert np.max(np.abs(y_end - y0)) <= 1e-10 * np.max(np.abs(y0))
    mu = np.max(np.abs(np.linalg.eigvals(phi)))
    assert abs(ps.max_multiplier - mu) <= 1e-9
    assert (ps.max_multiplier < 1.0) is stable
    assert ps.truncation <= default_stepper(drive).rel_tol
