import time
from dataclasses import replace

import numpy as np
import pytest

from optomech.errors import SingularDenominator
from optomech.experiment import config_from_dict
from optomech.fluctuations import build_drift
from optomech.model import DriveSpec, FirstMoments, SystemParams
from optomech.moments import (FloquetSolution, _rhs_vector,
                              floquet_recurse, integrate_first_moments,
                              steady_state_constant)
from optomech.recipes import load_recipe

FIG2 = SystemParams(delta_a=1.0, kappa=2.0, gamma_m=1e-3, g=1e-5,
                    delta_c=-1.0, gamma_a=0.1, g0_collective=1.0)
FIG2_DRIVE = DriveSpec(big_omega=2.0,
                       components={0: 15e4, 1: 3e4, -1: 3e4})
TAU = np.pi


def evaluate_floquet(sol: FloquetSolution, g: float, t: float
                     ) -> FirstMoments:
    """Evaluate the double expansion at a single time instant."""
    vals = sol.evaluate(g, t)
    return FirstMoments(q=float(vals["q"][0]), p=float(vals["p"][0]),
                        a=complex(vals["a"][0]), c=complex(vals["c"][0]))


def rhs_moments(params, drive, t, state):
    """Time derivative of the means at state, from the vector RHS."""
    d = _rhs_vector(params, drive)(t, state.to_vector())
    return FirstMoments(q=float(d[0]), p=float(d[1]), a=complex(d[2], d[3]),
                        c=complex(d[4], d[5]))


def test_rhs_zero_state_only_drive_survives():
    drive = DriveSpec(big_omega=0.0, components={0: 7.0})
    d = rhs_moments(FIG2, drive, 0.0, FirstMoments.from_vector(np.zeros(6)))
    assert (d.q, d.p, d.a, d.c) == (0.0, 0.0, 7.0 + 0j, 0j)


def test_rhs_decoupled_cavity_fixed_point():
    params = SystemParams(delta_a=1.0, kappa=2.0, gamma_m=1e-3, g=0.0,
                          delta_c=-1.0, gamma_a=0.1, g0_collective=0.0)
    drive = DriveSpec(big_omega=0.0, components={0: 5.0})
    a_star = 5.0 / (2.0 + 1.0j)
    d = rhs_moments(params, drive, 0.0,
                         FirstMoments(q=0.0, p=0.0, a=a_star, c=0j))
    assert abs(d.a) <= 1e-14


def test_rhs_fig2_direct_substitution():
    # frozen by substituting (q,p,a,c) = (0,0,1,1) at t = 0:
    #   dq = 0, dp = g, da = -(kappa + i delta_a) - i G0 + E(0),
    #   dc = -(gamma_a + i delta_c) - i G0
    d = rhs_moments(FIG2, FIG2_DRIVE, 0.0,
                         FirstMoments(q=0.0, p=0.0, a=1.0 + 0j, c=1.0 + 0j))
    assert d.q == 0.0
    assert d.p == pytest.approx(1e-5)
    assert d.a == pytest.approx(209998.0 - 2.0j)
    assert d.c == pytest.approx(-0.1 + 0j)


def test_decoupled_cavity_relaxation_closed_form():
    params = SystemParams(delta_a=1.0, kappa=2.0, gamma_m=1e-3, g=0.0,
                          delta_c=-1.0, gamma_a=0.1, g0_collective=0.0)
    drive = DriveSpec(big_omega=0.0, components={0: 5.0})
    t_end = 20.0 / params.kappa
    traj = integrate_first_moments(params, drive, [t_end])
    pole = params.kappa + 1j * params.delta_a
    want = (5.0 / pole) * (1.0 - np.exp(-pole * t_end))
    assert abs(traj.a[-1] - want) / abs(want) <= 1e-8


def test_fig2_limit_cycle_periodicity():
    t_eval = [49 * TAU, 50 * TAU]
    traj = integrate_first_moments(FIG2, FIG2_DRIVE, t_eval)
    rel = abs(traj.a[1] - traj.a[0]) / abs(traj.a[0])
    assert rel <= 1e-3


def test_floquet_zero_order_undriven():
    drive = DriveSpec(big_omega=2.0, components={})
    sol = floquet_recurse(FIG2, drive, j_max=0)
    assert not sol.a.any() and not sol.c.any()


def test_floquet_zero_order_fig2_closed_form():
    sol = floquet_recurse(FIG2, FIG2_DRIVE, j_max=0)
    want = (0.1 - 1.0j) * 15e4 / ((2.0 + 1.0j) * (0.1 - 1.0j) + 1.0)
    assert sol.a[0 + sol.n_max, 0] == pytest.approx(want)
    assert sol.a[2 + sol.n_max, 0] == 0  # no E_{-2} component
    assert not sol.q.any() and not sol.p.any()


def test_recursion_base_layer_matches_zero_order():
    # the j = 0 layer is bitwise the same whatever j_max
    base = floquet_recurse(FIG2, FIG2_DRIVE, j_max=0, n_max=5)
    assert not base.q.any() and not base.p.any()
    for j_max in (1, 2, 3, 6, 10):
        sol = floquet_recurse(FIG2, FIG2_DRIVE, j_max=j_max, n_max=5)
        for obs in ("q", "p", "a", "c"):
            assert np.array_equal(getattr(sol, obs)[:, 0],
                                  getattr(base, obs)[:, 0])


def test_constant_component_seeds_no_harmonics():
    drive = DriveSpec(big_omega=2.0, components={0: 1e4})
    sol = floquet_recurse(FIG2, drive, j_max=4, n_max=4)
    for obs in (sol.q, sol.p, sol.a, sol.c):
        off = obs.copy()
        off[sol.n_max, :] = 0.0
        assert not off.any()


def loop_recurse(params, drive, j_max, n_max):
    """Reference recursion: one coefficient at a time, the truncated
    convolutions as index loops that skip every |harmonic| > n_max."""
    big = drive.big_omega
    ns = range(-n_max, n_max + 1)

    def lin(n):
        return ((1j * (n * big + params.delta_a) + params.kappa)
                * (1j * (n * big + params.delta_c) + params.gamma_a)
                + params.g0_collective ** 2)

    shape = (2 * n_max + 1, j_max + 1)
    q, p, a, c = (np.zeros(shape, dtype=complex) for _ in range(4))
    for n in ns:
        e = drive.component(-n)
        a[n + n_max, 0] = ((1j * (n * big + params.delta_c)
                            + params.gamma_a) * e / lin(n))
        c[n + n_max, 0] = params.g0_collective * e / (1j * lin(n))
    om = 1.0                    # omega_m, the unit
    for j in range(1, j_max + 1):
        for n in ns:
            dq = om ** 2 - (n * big) ** 2 + 1j * params.gamma_m * n * big
            acc = 0j
            for k in range(j):
                for m in ns:
                    if abs(n + m) <= n_max:
                        acc += (np.conj(a[m + n_max, k])
                                * a[n + m + n_max, j - 1 - k])
            q[n + n_max, j] = om * acc / dq
            p[n + n_max, j] = (1j * n * big / om) * q[n + n_max, j]
        for n in ns:
            acc = 0j
            for k in range(j):
                for m in ns:
                    if abs(n - m) <= n_max:
                        acc += a[m + n_max, k] * q[n - m + n_max, j - 1 - k]
            num_a = 1j * (params.gamma_a + 1j * (params.delta_c + n * big))
            a[n + n_max, j] = num_a * acc / lin(n)
            c[n + n_max, j] = params.g0_collective * acc / lin(n)
    return {"q": q, "p": p, "a": a, "c": c}


def recipe_drive(name):
    cfg = config_from_dict(load_recipe(name))
    return cfg.params, cfg.resolved_drive()


ORACLE_CASES = [
    (FIG2, FIG2_DRIVE),
    (FIG2, DriveSpec(big_omega=2.0, components={0: 1e4})),
    (FIG2, DriveSpec(big_omega=1.3, components={0: 1 + 2j, 2: -3j,
                                                -1: 0.5})),
    # E_9 lies beyond every n_max of the grid, E_-4 beyond n_max <= 3:
    # the series drops them there
    (FIG2, DriveSpec(big_omega=2.0, components={0: 1.0, 9: 2.0, -4: 1j})),
    recipe_drive("fig2"), recipe_drive("fig8a"), recipe_drive("fig7"),
]


@pytest.mark.parametrize("params, drive", ORACLE_CASES)
def test_recursion_matches_loop_reference(params, drive):
    # convolutions sum in another order than the loops: agreement to a
    # few ulps of each order's largest coefficient
    for n_max in (1, 2, 3, 5, 8):
        for j_max in (0, 1, 2, 6, 10):
            sol = floquet_recurse(params, drive, j_max=j_max, n_max=n_max)
            ref = loop_recurse(params, drive, j_max, n_max)
            for obs, want in ref.items():
                got = getattr(sol, obs)
                assert got.shape == want.shape
                scale = np.max(np.abs(want), axis=0)
                err = np.max(np.abs(got - want), axis=0)
                assert np.all(err <= 1e-13 * scale), (obs, n_max, j_max)


def test_mechanical_denominator_names_its_harmonic():
    # Omega = omega_m at negligible damping: |omega_m^2 - Omega^2
    # + i gamma_m Omega| = 1e-13 at n = -1 and n = 1
    params = replace(FIG2, gamma_m=1e-13)
    drive = DriveSpec(big_omega=1.0, components={0: 1e4})
    with pytest.raises(SingularDenominator,
                       match=r"^mechanical denominator vanishes at "
                             r"harmonic n = -1 "):
        floquet_recurse(params, drive, j_max=1)
    # order 0 leaves the mirror at rest and never divides by it
    assert floquet_recurse(params, drive, j_max=0).a.any()


def test_cavity_atom_denominator_names_its_harmonic():
    # no atom coupling, gamma_a = 1e-13 at delta_c = -Omega: the atomic
    # factor gamma_a + i (n Omega + delta_c) is 1e-13 at n = 1, and the
    # denominator 3.6e-13, below the 1e-12 threshold
    params = replace(FIG2, g0_collective=0.0, gamma_a=1e-13, delta_c=-2.0)
    drive = DriveSpec(big_omega=2.0, components={0: 1e4})
    for j_max in (0, 3):
        with pytest.raises(SingularDenominator,
                           match=r"^cavity-atom denominator vanishes at "
                                 r"harmonic n = 1 "):
            floquet_recurse(params, drive, j_max=j_max)
    # checked before the mechanical ones, which vanish at n = -1 here
    params = replace(params, gamma_m=1e-13, delta_c=-1.0)
    with pytest.raises(SingularDenominator, match="cavity-atom .* n = 1 "):
        floquet_recurse(params, replace(drive, big_omega=1.0), j_max=2)


def test_floquet_matches_ode_on_final_periods():
    t_eval = np.linspace(48 * TAU, 50 * TAU, 200)
    traj = integrate_first_moments(FIG2, FIG2_DRIVE, t_eval)
    sol = floquet_recurse(FIG2, FIG2_DRIVE)
    series = sol.evaluate(FIG2.g, t_eval)
    for obs, num in (("a", traj.a), ("c", traj.c)):
        dev = np.abs(series[obs] - num) / np.maximum(1.0, np.abs(num))
        assert np.max(dev) <= 0.01
    # mechanics: amplitude-normalized (pointwise form fails only at the
    # zero crossings of the oscillation, see decisions ledger)
    for obs, num in (("q", traj.q), ("p", traj.p)):
        dev = np.max(np.abs(series[obs] - num)) / np.max(np.abs(num))
        assert dev <= 0.01


def test_evaluate_single_constant_coefficient():
    drive = DriveSpec(big_omega=2.0, components={})
    sol = floquet_recurse(FIG2, drive, j_max=0)
    sol.a[sol.n_max, 0] = 0.3 - 0.7j
    for t in (0.0, 1.3, 9.2):
        fm = evaluate_floquet(sol, FIG2.g, t)
        assert fm.a == pytest.approx(0.3 - 0.7j)


def test_evaluate_tau_periodic():
    sol = floquet_recurse(FIG2, FIG2_DRIVE, j_max=3, n_max=5)
    t = 1.7
    fm1 = evaluate_floquet(sol, FIG2.g, t)
    fm2 = evaluate_floquet(sol, FIG2.g, t + 2 * np.pi / sol.big_omega)
    assert fm1.a == pytest.approx(fm2.a, rel=1e-12)
    assert fm1.q == pytest.approx(fm2.q, rel=1e-12)


def test_series_residual_against_rhs():
    # finite-difference derivative of the evaluated series vs the ODE RHS
    sol = floquet_recurse(FIG2, FIG2_DRIVE)
    h = 1e-6
    worst = dict.fromkeys("qpac", 0.0)
    scale = dict.fromkeys("qpac", 1.0)
    for t in np.linspace(0.0, TAU, 7):
        fm = evaluate_floquet(sol, FIG2.g, t)
        plus = evaluate_floquet(sol, FIG2.g, t + h)
        minus = evaluate_floquet(sol, FIG2.g, t - h)
        rhs = rhs_moments(FIG2, FIG2_DRIVE, t, fm)
        for obs in "qpac":
            fd = (getattr(plus, obs) - getattr(minus, obs)) / (2 * h)
            worst[obs] = max(worst[obs], abs(fd - getattr(rhs, obs)))
            scale[obs] = max(scale[obs], abs(getattr(rhs, obs)))
    for obs in "qpac":
        assert worst[obs] <= 0.02 * scale[obs]


def test_gauge_limit_small_g():
    g_small = 1e-7
    params = SystemParams(delta_a=1.0, kappa=2.0, gamma_m=1e-3, g=g_small,
                          delta_c=-1.0, gamma_a=0.1, g0_collective=1.0)
    t_eval = np.linspace(48 * TAU, 50 * TAU, 50)
    traj = integrate_first_moments(params, FIG2_DRIVE, t_eval)
    base = floquet_recurse(params, FIG2_DRIVE, j_max=0)
    series = base.evaluate(g_small, t_eval)
    # the leading neglected correction is the optical spring shift of size
    # ~ g <q> ~ g^2 |a|^2, a few 1e-5 here (versus percent-level at g=1e-5)
    for obs, num in (("a", traj.a), ("c", traj.c)):
        dev = np.abs(series[obs] - num) / np.maximum(1.0, np.abs(num))
        assert np.max(dev) <= 1e-4


def test_determinism():
    t_eval = np.linspace(0.0, 5.0, 11)
    a = integrate_first_moments(FIG2, FIG2_DRIVE, t_eval)
    b = integrate_first_moments(FIG2, FIG2_DRIVE, t_eval)
    assert np.array_equal(a.a, b.a) and np.array_equal(a.q, b.q)


def effective_coupling(g, a_mean):
    """G = sqrt(2) g <a>, as the drift's entries A[1, 2] + i A[1, 3]."""
    a = build_drift(replace(FIG2, g=g), 0.0, a_mean)
    return complex(a[1, 2], a[1, 3])


def effective_detuning(params, q_mean):
    """Delta_a = delta_a - g <q>, as the drift's entry A[2, 3]."""
    return build_drift(params, q_mean, 0j)[2, 3]


def test_effective_coupling():
    assert effective_coupling(1.0, 0j) == 0j
    a_mean = (1.2 + 0j) / (np.sqrt(2) * 1e-3)
    assert effective_coupling(1e-3, a_mean) == pytest.approx(1.2 + 0j)


def test_effective_detuning():
    assert effective_detuning(FIG2, 0.0) == FIG2.delta_a
    params = SystemParams(delta_a=0.7, kappa=2.0, gamma_m=1e-3, g=0.0,
                          delta_c=-1.0, gamma_a=0.1, g0_collective=1.0)
    assert effective_detuning(params, 123.0) == 0.7


def test_steady_state_prescribed_detuning():
    fm, eff = steady_state_constant(FIG2, 1.2e5, delta_a_eff=1.0)
    # back-computed delta_a restores the prescribed working point
    assert effective_detuning(eff, fm.q) == pytest.approx(1.0)
    d = rhs_moments(eff, DriveSpec(big_omega=0.0,
                                        components={0: 1.2e5}), 0.0, fm)
    assert abs(d.a) <= 1e-9 * abs(fm.a)
    assert abs(d.c) <= 1e-9 * abs(fm.c)
    assert abs(d.p) <= 1e-9 * max(1.0, abs(fm.q))


def test_steady_state_self_consistent_iteration():
    fm, _ = steady_state_constant(FIG2, 1.2e5)
    d = rhs_moments(FIG2, DriveSpec(big_omega=0.0,
                                         components={0: 1.2e5}), 0.0, fm)
    assert abs(d.a) <= 1e-8 * abs(fm.a)
    assert abs(d.p) <= 1e-8 * max(1.0, abs(fm.q))


def steady_residual(params, e0, fm):
    """max |RHS| of the mean-value equations at fm, relative to max |y|."""
    y = fm.to_vector()
    d = _rhs_vector(params, DriveSpec(big_omega=0.0, components={0: e0}))
    return np.max(np.abs(d(0.0, y))) / np.max(np.abs(y))


def stationary_cubic_roots(params, e0):
    """n = |<a>|^2 roots of the stationary cubic, by an independent
    expansion: n [(Re K)^2 + (Im K + delta_a - g^2 n)^2] = |E0|^2."""
    k = params.kappa + params.g0_collective ** 2 / (
        params.gamma_a + 1j * params.delta_c)
    u, b = params.g ** 2, k.imag + params.delta_a
    return np.roots([u * u, -2 * b * u, abs(k) ** 2 + 2 * k.imag
                     * params.delta_a + params.delta_a ** 2, -e0 ** 2])


def test_steady_state_where_damped_iteration_cycled():
    # delta_a = 3, E0 = 7.5e5: a damped fixed-point iteration from q = 0
    # cycles here; the cubic has one real root, an unstable working point
    params = replace(FIG2, delta_a=3.0)
    start = time.perf_counter()
    fm, eff = steady_state_constant(params, 7.5e5)
    assert time.perf_counter() - start < 1.0
    assert eff is params
    assert fm.p == 0.0
    assert steady_residual(params, 7.5e5, fm) <= 1e-12
    roots = stationary_cubic_roots(params, 7.5e5)
    assert np.sum(roots.imag == 0.0) == 1
    n = roots[roots.imag == 0.0].real[0]
    assert fm.q == pytest.approx(params.g * n, rel=1e-12)


def test_steady_state_three_roots_takes_lowest():
    params = replace(FIG2, delta_a=0.0, g0_collective=3.0)
    fm, _ = steady_state_constant(params, 9e5)
    roots = stationary_cubic_roots(params, 9e5)
    assert np.all(roots.imag == 0.0)
    assert fm.q == pytest.approx(params.g * np.min(roots.real), rel=1e-12)
    # the value a damped fixed-point iteration from q = 0 converged to
    assert fm.q == pytest.approx(119232.11245942199, rel=1e-11)
    assert steady_residual(params, 9e5, fm) <= 1e-12


def test_steady_state_next_to_fold():
    # the lower two roots merge at this E0 (to the last bit); rounding
    # may return them as a pair just off the real axis
    params = replace(FIG2, delta_a=0.0, g0_collective=3.0)
    e0 = 1147730.1473779457
    fm, _ = steady_state_constant(params, e0)
    upper = params.g * np.max(stationary_cubic_roots(params, e0).real)
    assert fm.q < 0.5 * upper     # the lower branch, not the upper one
    assert fm.q == pytest.approx(348365.85, rel=1e-6)
    assert steady_residual(params, e0, fm) <= 1e-12


def test_steady_state_block_takes_each_cells_lowest_root():
    # fig2 at delta_a = 0, G0 = 3: E0 over the three-root region and the
    # fold, and cells where np.roots strips a zero coefficient, the
    # leading ones at g = 0 and the trailing one at E0 = 0
    params = replace(FIG2, delta_a=0.0, g0_collective=3.0)
    fold = 1147730.1473779457
    e0 = np.concatenate((np.linspace(8e5, 1.3e6, 201), [fold, 0.0, 0.0,
                                                        9e5]))
    g = np.full(e0.shape, params.g)
    g[-2:] = 0.0
    fm, eff = steady_state_constant(replace(params, g=g), e0 + 0j)
    assert fm.q.shape == fm.a.shape == e0.shape
    assert np.array_equal(eff.g, g)
    three_roots = 0
    for e, g_cell, q in zip(e0[:201], g, fm.q):
        roots = stationary_cubic_roots(params, e)
        real = roots.real[roots.imag == 0.0]
        three_roots += len(real) == 3
        assert q == pytest.approx(g_cell * np.min(real), rel=1e-12, abs=0.0)
    assert 0 < three_roots < 201
    upper = params.g * np.max(stationary_cubic_roots(params, fold).real)
    assert fm.q[201] < 0.5 * upper
    assert fm.q[202] == fm.a[202] == 0.0      # E0 = 0
    assert fm.q[203] == fm.q[204] == 0.0      # g = 0
    assert fm.a[204] != 0.0
    # every cell has the bits of a one-cell call
    for i, (e, g_cell) in enumerate(zip(e0, g)):
        one, _ = steady_state_constant(replace(params, g=g_cell), e + 0j)
        assert (one.q, one.a, one.c) == (fm.q[i], fm.a[i], fm.c[i])


@pytest.mark.parametrize("delta_a_eff", [None, 1.0])
def test_steady_state_undamped_resonant_atoms_raise(delta_a_eff):
    params = replace(FIG2, gamma_a=0.0, delta_c=0.0)
    with pytest.raises(SingularDenominator, match=r"gamma_a \+ i delta_c"):
        steady_state_constant(params, 1.2e5, delta_a_eff)
