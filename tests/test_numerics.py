import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from optomech.errors import Diverged
from optomech.numerics import StepperConfig, integrate_adaptive


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
        integrate_adaptive(lambda t, y: y, (0.0, 30.0), [1.0], cfg)


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
                                  (0.0, 5.0), [0.2], cfg).y

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


def test_end_state_only_without_t_eval():
    f, y0 = _driven_lyapunov()
    cfg = StepperConfig(max_step=0.2)
    got = integrate_adaptive(f, (0.0, 3.0), y0, cfg)
    want = solve_ivp(f, (0.0, 3.0), y0, method="DOP853", rtol=cfg.rel_tol,
                     atol=cfg.abs_tol, max_step=cfg.max_step)
    assert np.array_equal(got.t, [3.0])
    assert got.y.shape == (9, 1)
    assert np.array_equal(got.y[:, 0], want.y[:, -1])
    assert got.nfev == want.nfev


@pytest.mark.parametrize("t_eval", [[-0.1, 0.5], [0.5, 1.1], [0.6, 0.4]])
def test_t_eval_outside_span_or_unsorted_rejected(t_eval):
    with pytest.raises(ValueError):
        integrate_adaptive(lambda t, y: -y, (0.0, 1.0), [1.0],
                           StepperConfig(), t_eval=t_eval)
