"""End-to-end acceptance checks for the simulation pipeline.

Each test prints one PASS/FAIL line.  The long modulated-squeezing runs
are shared across tests through module-scoped fixtures.
"""

import numpy as np
import pytest
from dataclasses import replace
from scipy.spatial.distance import directed_hausdorff

from optomech.engineering import modulation_components
from optomech.errors import NotStable
from optomech.experiment import compare_sources, config_from_dict, \
    measures_from_cm_series
from optomech.fluctuations import (build_diffusion, build_drift,
                                   integrate_lyapunov,
                                   steady_state_lyapunov)
from optomech.measures import (log_negativity, principal_axis_angle,
                               reduce_atom_mirror_stack, squeezing_parameter,
                               symplectic_eigenvalues, wigner)
from optomech.model import DriveSpec, EngineeredCoupling, SystemParams
from optomech.moments import integrate_first_moments, steady_state_constant
from optomech.numerics import StepperConfig

TAU = np.pi   # modulation period for big_omega = 2

FIG2 = SystemParams(delta_a=1.0, kappa=2.0, gamma_m=1e-3, g=1e-5,
                    delta_c=-1.0, gamma_a=0.1, g0_collective=1.0)
FIG2_DRIVE = DriveSpec(big_omega=2.0,
                       components={0: 15e4, 1: 3e4, -1: 3e4})

FIG4 = SystemParams(delta_a=1.0, kappa=0.2, gamma_m=1e-3, g=1e-5,
                    delta_c=-1.0, gamma_a=0.1, g0_collective=1.0)

FIG6 = SystemParams(delta_a=1.0, kappa=10.0, gamma_m=1e-3, g=1e-3,
                    delta_c=-1.0, gamma_a=1e-3, g0_collective=1.0)

FIG8 = SystemParams(delta_a=1.0, kappa=10.0, gamma_m=1e-6, g=5e-5,
                    delta_c=-1.1, gamma_a=1e-3, g0_collective=6.0)
FIG8_DRIVE = DriveSpec(big_omega=2.0,
                       components={0: 12e4, 1: 2e4, -1: 2e4})
LONG_CFG = StepperConfig(rel_tol=1e-6, abs_tol=1e-9)


def report(label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok


def long_run(params, drive, periods=3000, sample_periods=3):
    """(t, vs): the CMs over the last sample_periods of the run."""
    t_end = periods * TAU
    t_eval = np.linspace(t_end - sample_periods * TAU, t_end,
                         sample_periods * 200 + 1)
    return t_eval, integrate_lyapunov(params, drive, "ode", t_eval,
                                      cfg=LONG_CFG)[1]


@pytest.fixture(scope="module")
def fig8_run():
    return long_run(FIG8, FIG8_DRIVE)


@pytest.fixture(scope="module")
def fig8_no_atoms_run():
    return long_run(replace(FIG8, g0_collective=0.0), FIG8_DRIVE)


@pytest.fixture(scope="module")
def fig8_hot_run():
    return long_run(replace(FIG8, n_th=100.0), FIG8_DRIVE)


@pytest.fixture(scope="module")
def fig8_unmodulated_v11():
    fm, eff = steady_state_constant(FIG8, FIG8_DRIVE.component(0))
    v = steady_state_lyapunov(build_drift(eff, fm.q, fm.a),
                              build_diffusion(eff))
    return v[0, 0]


def test_criterion_1_series_vs_ode_equivalence():
    doc = {"params": {"delta_a": 1.0, "kappa": 2.0, "gamma_m": 1e-3,
                      "g": 1e-5, "delta_c": -1.0, "gamma_a": 0.1,
                      "G0": 1.0},
           "drive": {"Omega": 2.0,
                     "components": [{"n": 0, "re": 150000.0},
                                    {"n": 1, "re": 30000.0},
                                    {"n": -1, "re": 30000.0}]},
           "horizon_periods": 50.0}
    dev = compare_sources(config_from_dict(doc))
    report("series/ODE first-moment equivalence (fields within 1%)",
           dev["a"] <= 0.01 and dev["c"] <= 0.01)


def test_criterion_2_limit_cycle_convergence():
    # phase-congruent grids: otherwise the Hausdorff distance is dominated
    # by the arc spacing of the discretized loops, not by their drift
    t1 = np.linspace(30 * TAU, 40 * TAU, 1000, endpoint=False)
    t2 = np.linspace(40 * TAU, 50 * TAU, 1000, endpoint=False)
    traj = integrate_first_moments(FIG2, FIG2_DRIVE,
                                   np.concatenate((t1, t2)))
    loop1 = np.column_stack((traj.q[:1000], traj.p[:1000]))
    loop2 = np.column_stack((traj.q[1000:], traj.p[1000:]))
    h = max(directed_hausdorff(loop1, loop2)[0],
            directed_hausdorff(loop2, loop1)[0])
    diameter = np.max(np.linalg.norm(
        loop2[:, None, :] - loop2[::25][None, :, :], axis=-1))
    report("mechanical limit cycle converged (Hausdorff within 1%)",
           h <= 0.01 * diameter)


def test_criterion_3_drive_engineering_closure():
    target = EngineeredCoupling(g1=1.2, g2=0.1, big_omega=2.0)
    drive = modulation_components(FIG6, target)
    t_eval = np.linspace(30 * TAU, 40 * TAU, 800)
    traj = integrate_first_moments(FIG6, drive, t_eval)
    g_num = np.sqrt(2.0) * FIG6.g * traj.a
    g_want = target.g1 + target.g2 * np.exp(-1j * 2.0 * t_eval)
    err = np.max(np.abs(g_num - g_want))
    report("engineered drive realizes the target coupling (within 2%)",
           err <= 0.02 * target.g1)


def test_criterion_4_entanglement_periodicity_and_robustness():
    t_eval = np.linspace(198 * TAU, 200 * TAU, 401)
    _, vs = integrate_lyapunov(FIG2, FIG2_DRIVE, "ode", t_eval,
                               cfg=StepperConfig(rel_tol=1e-7,
                                                 abs_tol=1e-10))
    en = np.array([log_negativity(r)
                   for r in reduce_atom_mirror_stack(vs)])
    mismatch = np.max(np.abs(en[:200] - en[200:400])) / np.max(en)
    hot = replace(FIG2, n_th=50.0)
    _, vs_hot = integrate_lyapunov(hot, FIG2_DRIVE, "ode", t_eval,
                                   cfg=StepperConfig(rel_tol=1e-7,
                                                     abs_tol=1e-10))
    en_hot = max(log_negativity(r)
                 for r in reduce_atom_mirror_stack(vs_hot))
    report("entanglement positive, periodic, and thermally robust",
           np.all(en > 0.0) and mismatch <= 1e-3 and en_hot > 0.0)


def test_criterion_5_unmodulated_baseline():
    en = []
    for n_th in (0.0, 10.0, 20.0, 40.0, 80.0):
        p = replace(FIG4, n_th=n_th)
        fm, eff = steady_state_constant(p, 1.2e5, delta_a_eff=1.0)
        v = steady_state_lyapunov(build_drift(eff, fm.q, fm.a),
                                  build_diffusion(eff))
        en.append(log_negativity(reduce_atom_mirror_stack(v[None])[0]))
    en = np.array(en)
    monotone = np.all(np.diff(en) <= 1e-12)
    report("static-drive entanglement exists and degrades with temperature",
           en[0] > 0.0 and monotone and en[-1] == 0.0)


def test_criterion_6_stability_map():
    e_grid = np.linspace(1e4, 3e5, 9)
    g0_grid = np.linspace(0.1, 3.0, 9)
    unstable = np.zeros((len(e_grid), len(g0_grid)), dtype=bool)
    physical = True
    for i, e0 in enumerate(e_grid):
        for j, g0 in enumerate(g0_grid):
            p = replace(FIG4, g0_collective=g0)
            try:
                fm, eff = steady_state_constant(p, e0, delta_a_eff=1.0)
                v = steady_state_lyapunov(build_drift(eff, fm.q, fm.a),
                                          build_diffusion(eff))
                if np.min(symplectic_eigenvalues(v)) < 0.5 - 1e-6:
                    physical = False
            except NotStable:
                unstable[i, j] = True

    # flood fill from one unstable cell; connectivity = 4-neighbour
    comp = np.zeros_like(unstable)
    seeds = np.argwhere(unstable)
    if len(seeds):
        stack = [tuple(seeds[0])]
        while stack:
            i, j = stack.pop()
            if not (0 <= i < unstable.shape[0]
                    and 0 <= j < unstable.shape[1]):
                continue
            if not unstable[i, j] or comp[i, j]:
                continue
            comp[i, j] = True
            stack.extend([(i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)])
    connected = len(seeds) > 0 and comp.sum() == unstable.sum()
    report("stability map has one unstable region; stable cells physical",
           connected and physical)


def test_criterion_7_mechanical_squeezing(fig8_run, fig8_no_atoms_run,
                                          fig8_unmodulated_v11):
    v11 = np.array([v[0, 0] for v in fig8_run[1]])
    v11_free = np.array([v[0, 0] for v in fig8_no_atoms_run[1]])
    squeezed = np.min(v11) < 0.5
    control_flat = abs(fig8_unmodulated_v11 - 0.5) <= 0.05 * 0.5
    no_atom_unsqueezed = np.min(v11_free) > 0.5
    report("position squeezing needs both modulation and the ensemble",
           squeezed and control_flat and no_atom_unsqueezed)


def test_criterion_8_cooling_interference(fig8_run, fig8_no_atoms_run,
                                          fig8_hot_run):
    neff, neff_free, neff_hot = (
        np.mean(measures_from_cm_series(*run)["neff"])
        for run in (fig8_run, fig8_no_atoms_run, fig8_hot_run))
    report("ensemble-assisted cooling reaches the ground-state regime",
           neff < 1.0 and 30.0 <= neff_free <= 50.0 and neff_hot < 1.0)


def test_criterion_9_squeezing_axis_rotation(fig8_run):
    t, vs = fig8_run
    mech = [v[:2, :2] for v in vs]
    eigs = np.array([np.linalg.eigvalsh(m) for m in mech])
    shape_ok = True
    for k in range(2):
        spread = (np.max(eigs[:, k]) - np.min(eigs[:, k])) \
            / np.mean(eigs[:, k])
        shape_ok = shape_ok and spread <= 0.01
    r_db = np.array([squeezing_parameter(m)[2] for m in mech])
    r_spread = (np.max(r_db) - np.min(r_db)) / np.mean(np.abs(r_db))

    # track the doubled angle to dodge the pi-ambiguity of the axis
    phi = np.unwrap([2.0 * principal_axis_angle(m) for m in mech])
    advance = abs(phi[-1] - phi[0]) / ((t[-1] - t[0]) / TAU)
    rotation_ok = abs(advance - 2.0 * np.pi) <= 0.02 * 2.0 * np.pi
    report("squeezing ellipse keeps its shape and rotates once per period",
           shape_ok and r_spread <= 0.01 and rotation_ok)


def test_criterion_10_oracle_equivalences():
    # algebraic vs integrated steady state, the integration shared with
    # test_fluctuations' copy of this oracle
    from test_fluctuations import fig4_point_steady_states
    v_alg, v_int = fig4_point_steady_states()
    lyap_ok = np.max(np.abs(v_int - v_alg)) <= 1e-6

    # two-mode squeezed-vacuum closed form
    from test_measures import two_mode_squeezed_cm, wigner_integral
    tmsv_ok = all(abs(log_negativity(two_mode_squeezed_cm(r).full) - 2 * r)
                  <= 1e-9 for r in (0.3, 0.8, 1.5))

    wig_ok = abs(wigner_integral(wigner(0.5 * np.eye(2))) - 1.0) <= 1e-3

    from test_fluctuations import random_params, transcription_oracle
    rng = np.random.default_rng(123)
    drift_ok = True
    for _ in range(10):
        p = random_params(rng)
        q = rng.uniform(-1e3, 1e3)
        am = complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        want = transcription_oracle(p, q, am)
        got = build_drift(p, q, am)
        if np.max(np.abs(got - want)) > 1e-9 * max(1.0,
                                                   np.max(np.abs(want))):
            drift_ok = False
    report("independent oracles agree (steady state, TMSV, Wigner, drift)",
           lyap_ok and tmsv_ok and wig_ok and drift_ok)
