import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from optomech.errors import Diverged, StepFailure
from optomech.experiment import config_from_dict
from optomech.fluctuations import VECH, _moments_cm_rhs, thermal_vacuum_cm
from optomech.moments import _rhs_vector, default_stepper
from optomech.numerics import RTOL_FLOOR, StepperConfig, integrate_adaptive
from optomech.recipes import load_recipe


def test_scalar_exponential():
    cfg = StepperConfig()
    sol = integrate_adaptive(lambda t, y: -y, (0.0, 1.0), [1.0], cfg,
                             t_eval=[1.0])
    assert sol.y[0, -1] == pytest.approx(np.exp(-1.0), rel=1e-9)


def test_harmonic_oscillator_energy_drift():
    cfg = StepperConfig()
    t_end = 100 * 2 * np.pi
    sol = integrate_adaptive(lambda t, y: [y[1], -y[0]], (0.0, t_end),
                             [1.0, 0.0], cfg, t_eval=[t_end])
    energy = sol.y[0, -1] ** 2 + sol.y[1, -1] ** 2
    assert abs(energy - 1.0) <= 1e-6


def test_tolerance_halving_reduces_error():
    def run(rel):
        cfg = StepperConfig(rel_tol=rel, abs_tol=1e-14)
        sol = integrate_adaptive(lambda t, y: -y, (0.0, 10.0), [1.0], cfg,
                                 t_eval=[10.0])
        return abs(sol.y[0, -1] - np.exp(-10.0))

    assert run(1e-6) / max(run(5e-7), 1e-300) >= 1.2


def test_overflow_guard_raises_diverged():
    cfg = StepperConfig(overflow_guard=1e6)
    with pytest.raises(Diverged):
        integrate_adaptive(lambda t, y: y, (0.0, 30.0), [1.0], cfg,
                           t_eval=[30.0])


def test_lyapunov_flow_matches_matrix_exponential():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 2))
    a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(2)
    v0 = np.array([[2.0, 0.3], [0.3, 1.0]])
    d = np.diag([0.4, 0.7])

    def f(t, y):
        v = y.reshape(2, 2)
        return (a @ v + v @ a.T + d).ravel()

    cfg = StepperConfig()
    sol = integrate_adaptive(f, (0.0, 1.0), v0.ravel(), cfg, t_eval=[1.0])
    got = sol.y[:, -1].reshape(2, 2)

    # scaling-and-squaring closed form with quadrature for the forced term
    from scipy.integrate import simpson
    u = expm(a)
    s_grid = np.linspace(0.0, 1.0, 4001)
    integrand = np.array([expm(a * s) @ d @ expm(a.T * s) for s in s_grid])
    forced = simpson(integrand, x=s_grid, axis=0)
    want = u @ v0 @ u.T + forced
    assert np.max(np.abs(got - want)) <= 1e-8


def test_determinism():
    cfg = StepperConfig()

    def run():
        return integrate_adaptive(lambda t, y: [-y[0] + np.sin(t)],
                                  (0.0, 5.0), [0.2], cfg, t_eval=[5.0]).y

    assert np.array_equal(run(), run())


def _driven_lyapunov():
    """A 3x3 Lyapunov flow with a periodically modulated drift."""
    rng = np.random.default_rng(5)
    a0 = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
    a1 = rng.standard_normal((3, 3))
    d = np.diag([0.3, 1.0, 0.6])

    def f(t, y):
        a = a0 + np.cos(2.0 * t) * a1
        v = y.reshape(3, 3)
        return (a @ v + v @ a.T + d).ravel()

    return f, (0.5 * np.eye(3)).ravel()


def test_matches_solve_ivp_dop853_bitwise():
    f, y0 = _driven_lyapunov()
    cfg = StepperConfig(rel_tol=1e-8, abs_tol=1e-11, max_step=np.pi / 50)
    t_eval = np.linspace(1.0, 6.0, 37)
    got = integrate_adaptive(f, (0.0, 6.0), y0, cfg, t_eval=t_eval)
    want = solve_ivp(f, (0.0, 6.0), y0, method="DOP853", rtol=cfg.rel_tol,
                     atol=cfg.abs_tol, max_step=cfg.max_step, t_eval=t_eval)
    assert np.array_equal(got.t, want.t)
    assert np.array_equal(got.y, want.y)
    assert got.nfev == want.nfev


def test_end_sample_matches_solve_ivp_bitwise():
    # one sample, at the end of the span: read off the last step
    f, y0 = _driven_lyapunov()
    cfg = StepperConfig(max_step=0.2)
    got = integrate_adaptive(f, (0.0, 3.0), y0, cfg, t_eval=[3.0])
    want = solve_ivp(f, (0.0, 3.0), y0, method="DOP853", rtol=cfg.rel_tol,
                     atol=cfg.abs_tol, max_step=cfg.max_step, t_eval=[3.0])
    assert np.array_equal(got.t, [3.0])
    assert got.y.shape == (9, 1)
    assert np.array_equal(got.y, want.y)
    assert got.nfev == want.nfev


def assert_as_solve_ivp(f, t_span, y0, cfg, t_eval):
    """integrate_adaptive gives solve_ivp(method="DOP853")'s t, y and nfev
    bit for bit."""
    got = integrate_adaptive(f, t_span, y0, cfg, t_eval=t_eval)
    want = solve_ivp(f, t_span, y0, method="DOP853", rtol=cfg.rel_tol,
                     atol=cfg.abs_tol, max_step=cfg.max_step, t_eval=t_eval)
    assert np.array_equal(got.t, want.t)
    assert np.array_equal(got.y, want.y)
    assert got.nfev == want.nfev


@st.composite
def clustered_grids(draw, t_end=3.0, max_step=np.pi / 50):
    """Strictly ascending times in [0, t_end], both ends among them: up to
    four clusters, each of up to 40 samples narrower than a step, and
    long stretches between them that hold none."""
    times = [0.0, t_end]
    for centre in draw(st.lists(st.floats(0.0, t_end), min_size=1,
                                max_size=4)):
        width = draw(st.floats(1e-9, max_step))
        offsets = draw(st.lists(st.floats(0.0, 1.0), min_size=2,
                                max_size=40))
        times += [min(centre + width * x, t_end) for x in offsets]
    return np.unique(times)


@given(clustered_grids())
@settings(max_examples=25, deadline=None)
def test_clustered_samples_match_solve_ivp_bitwise(t_eval):
    # every sample is read off its step's interpolant in one pass after
    # the loop; many samples may share a step, and many steps hold none
    f, y0 = _driven_lyapunov()
    cfg = StepperConfig(rel_tol=1e-8, abs_tol=1e-11, max_step=np.pi / 50)
    assert_as_solve_ivp(f, (0.0, 3.0), y0, cfg, t_eval)


FIG2 = config_from_dict(load_recipe("fig2"))


def test_fig2_means_match_solve_ivp_bitwise():
    # 3 periods sampled every tau/100 under the tau/50 step cap: two
    # samples in most steps, and the first steps rejected
    drive = FIG2.drive
    t_end = 3 * drive.period
    assert_as_solve_ivp(_rhs_vector(FIG2.params, drive), (0.0, t_end),
                        np.zeros(6), default_stepper(drive),
                        np.linspace(0.0, t_end, 301))


@pytest.mark.parametrize("t_eval", ["end", "samples"])
def test_fig2_means_and_cm_match_solve_ivp_bitwise(t_eval):
    # the 27-entry state of the "ode" route over one period
    drive = FIG2.drive
    y0 = np.concatenate((np.zeros(6), thermal_vacuum_cm(0.0)[VECH]))
    t_eval = ([drive.period] if t_eval == "end"
              else np.linspace(0.1, drive.period, 40))
    assert_as_solve_ivp(_moments_cm_rhs(FIG2.params, drive),
                        (0.0, drive.period), y0, default_stepper(drive),
                        t_eval)


def test_rel_tol_below_the_floor_matches_solve_ivp_bitwise():
    f, y0 = _driven_lyapunov()
    cfg = StepperConfig(rel_tol=RTOL_FLOOR / 4, abs_tol=1e-14, max_step=0.5)
    with pytest.warns(UserWarning, match="rtol"):    # SciPy's, not ours
        assert_as_solve_ivp(f, (0.0, 2.0), y0, cfg,
                            np.linspace(0.25, 2.0, 8))


def test_uncapped_steps_match_solve_ivp_bitwise():
    # every step length set by the error control alone, over ~320 steps:
    # a last-bit change in the error norm shows in the end state
    f, y0 = _driven_lyapunov()
    assert_as_solve_ivp(f, (0.0, 40.0), y0,
                        StepperConfig(rel_tol=1e-6, abs_tol=1e-14), [40.0])


def test_blow_up_raises_step_failure():
    # y' = y^2 from y(0) = 1 reaches infinity at t = 1; with no overflow
    # guard the step shrinks there until it cannot move t
    cfg = StepperConfig(overflow_guard=math.inf)
    with pytest.raises(StepFailure, match="step size"):
        integrate_adaptive(lambda t, y: y * y, (0.0, 2.0), [1.0], cfg,
                           t_eval=[2.0])


@pytest.mark.parametrize("nan_from", [0.0, 0.5])
def test_nan_rhs_raises_step_failure(nan_from):
    # a NaN in the first RHS value makes SciPy's initial step NaN, and a
    # later one every error norm: no step can meet the tolerances
    def f(t, y):
        return [-y[0], math.nan if t >= nan_from else -y[1]]

    with pytest.raises(StepFailure, match="step size"):
        integrate_adaptive(f, (0.0, 1.0), [1.0, 1.0], StepperConfig(),
                           t_eval=[1.0])


@pytest.mark.parametrize("key", ["rel_tol", "abs_tol", "max_step"])
def test_nan_stepper_setting_rejected(key):
    with pytest.raises(ValueError, match="positive"):
        StepperConfig(**{key: math.nan})


@pytest.mark.parametrize("t_span", [(1.0, 1.0), (1.0, 0.0)])
def test_span_that_does_not_go_forward_rejected(t_span):
    with pytest.raises(ValueError, match="forward"):
        integrate_adaptive(lambda t, y: -y, t_span, [1.0], StepperConfig(),
                           t_eval=[1.0])


@pytest.mark.parametrize("t_eval", [[-0.1, 0.5], [0.5, 1.1], [0.6, 0.4],
                                    []])
def test_t_eval_outside_span_or_unsorted_rejected(t_eval):
    # the message names t_eval; an empty one holds no time to read
    with pytest.raises(ValueError, match="^t_eval must"):
        integrate_adaptive(lambda t, y: -y, (0.0, 1.0), [1.0],
                           StepperConfig(), t_eval=t_eval)
