from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optomech.errors import NonPhysical
from optomech.fluctuations import (build_diffusion, build_drift,
                                   steady_state_lyapunov)
from optomech.experiment import measures_from_cm_series
from optomech.measures import (log_negativity, log_negativity_stack,
                               principal_axis_angle,
                               reduce_atom_mirror_stack, squeezing_parameter,
                               symplectic_eigenvalues, wigner)
from optomech.model import SystemParams
from optomech.moments import steady_state_constant


@dataclass(frozen=True)
class ReducedCM:
    """4x4 atom-mirror covariance matrix in 2x2 block form."""

    a: np.ndarray   # mechanical block
    b: np.ndarray   # atomic block
    c: np.ndarray   # cross correlations

    @property
    def full(self) -> np.ndarray:
        top = np.hstack((self.a, self.c))
        bot = np.hstack((self.c.T, self.b))
        return np.vstack((top, bot))


def reduce_atom_mirror(v) -> ReducedCM:
    """The atom-mirror CM of one 6x6 CM, reduce_atom_mirror_stack's row,
    in block form."""
    sub = reduce_atom_mirror_stack(np.asarray(v)[np.newaxis])[0]
    return ReducedCM(a=sub[:2, :2], b=sub[2:, 2:], c=sub[:2, 2:])


def wigner_integral(grid) -> float:
    """Trapezoidal integral of a Wigner grid over all its axes."""
    out = grid.values
    for ax in reversed(grid.axes):
        out = np.trapezoid(out, ax, axis=-1)
    return float(out)


def two_mode_squeezed_cm(r):
    ch, sh = np.cosh(2 * r), np.sinh(2 * r)
    a = 0.5 * ch * np.eye(2)
    c = 0.5 * sh * np.diag([1.0, -1.0])
    return ReducedCM(a=a, b=a.copy(), c=c)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_symplectic_eigenvalues_vacuum():
    nu = symplectic_eigenvalues(0.5 * np.eye(6))
    assert np.allclose(nu, 0.5, atol=1e-12)


def test_symplectic_eigenvalues_thermal_and_squeezed():
    v = np.diag([3.5, 3.5, 0.5, 0.5])
    assert np.allclose(symplectic_eigenvalues(v), [0.5, 3.5], atol=1e-12)
    # squeezing is a symplectic transformation: spectrum stays at 1/2
    sq = np.diag([0.5 * np.exp(-2.0), 0.5 * np.exp(2.0)])
    assert symplectic_eigenvalues(sq)[0] == pytest.approx(0.5, abs=1e-12)


def test_reduce_picks_mirror_and_atom_rows():
    v = np.zeros((6, 6))
    v[np.diag_indices(6)] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    v[0, 4] = v[4, 0] = 0.3
    rcm = reduce_atom_mirror(v)
    assert np.array_equal(np.diag(rcm.a), [1.0, 2.0])
    assert np.array_equal(np.diag(rcm.b), [5.0, 6.0])
    assert rcm.c[0, 0] == 0.3
    assert rcm.full.shape == (4, 4)
    assert np.array_equal(rcm.full, rcm.full.T)


def test_vacuum_not_entangled():
    rcm = ReducedCM(a=0.5 * np.eye(2), b=0.5 * np.eye(2),
                    c=np.zeros((2, 2)))
    # Sigma = 1/4 + 1/4 - 0 = 1/2, det V = 1/16, eta^- = 1/2 exactly
    assert log_negativity(rcm.full) == 0.0


def test_two_mode_squeezed_log_negativity():
    for r in (0.25, 0.5, 1.3):
        assert log_negativity(two_mode_squeezed_cm(r).full) == pytest.approx(
            2 * r, abs=1e-9)


def test_thermal_product_state_not_entangled():
    rcm = ReducedCM(a=4.5 * np.eye(2), b=0.5 * np.eye(2),
                    c=np.zeros((2, 2)))
    assert log_negativity(rcm.full) == 0.0


def test_log_negativity_rotation_invariant():
    rcm = two_mode_squeezed_cm(0.7)
    base = log_negativity(rcm.full)
    for theta in (0.3, 1.1, 2.9):
        u = rotation(theta)
        rot = ReducedCM(a=u @ rcm.a @ u.T, b=rcm.b, c=u @ rcm.c)
        assert log_negativity(rot.full) == pytest.approx(base, abs=1e-10)


def test_log_negativity_rejects_bogus_matrix():
    rcm = ReducedCM(a=0.5 * np.eye(2), b=0.5 * np.eye(2),
                    c=5.0 * np.eye(2))
    with pytest.raises(NonPhysical):
        log_negativity(rcm.full)


def log_negativity_reference(rcm):
    """The one-CM formula on 0-d floats, as log negativity was computed
    before it was stacked; raises ValueError where it is not physical."""
    sigma = (np.linalg.det(rcm.a) + np.linalg.det(rcm.b)
             - 2.0 * np.linalg.det(rcm.c))
    disc = sigma ** 2 - 4.0 * np.linalg.det(rcm.full)
    if disc < -1e-12:
        raise ValueError("negative discriminant")
    inner = 0.5 * (sigma - np.sqrt(max(disc, 0.0)))
    if inner <= 0.0:
        raise ValueError("collapsed eigenvalue")
    return max(0.0, -np.log(2.0 * np.sqrt(inner)))


def random_two_mode_cm(rng):
    """A squeezed, locally transformed and noisy two-mode CM; its cross
    block scaled up at random so that some are not physical."""
    def local():
        squeeze = np.diag(np.exp(np.array([-1.0, 1.0]) * rng.uniform(0, 1)))
        return rotation(rng.uniform(0, np.pi)) @ squeeze \
            @ rotation(rng.uniform(0, np.pi))

    s = np.zeros((4, 4))
    s[:2, :2], s[2:, 2:] = local(), local()
    v = s @ two_mode_squeezed_cm(rng.uniform(0.0, 1.5)).full @ s.T \
        + rng.uniform(0.0, 0.5) * np.eye(4)
    v[:2, 2:] *= rng.choice([1.0, 1.0, 1.0, 3.0])
    v[2:, :2] = v[:2, 2:].T
    return ReducedCM(a=v[:2, :2], b=v[2:, 2:], c=v[:2, 2:])


def test_log_negativity_stack_equals_one_cm_formula():
    rng = np.random.default_rng(5)
    cms = [random_two_mode_cm(rng) for _ in range(4000)]
    en, physical = log_negativity_stack(np.array([r.full for r in cms]))
    for rcm, got, ok in zip(cms, en, physical):
        try:
            want = log_negativity_reference(rcm)
        except ValueError:
            assert not ok and np.isnan(got)
            continue
        assert ok and got == want     # the same bits
    assert 0 < np.sum(en > 0.0) and not physical.all()


def test_log_negativity_stack_equals_one_cm_formula_near_threshold():
    # fig4 working points whose EN, small against the CM entries, moves
    # in its last bits if sigma^2 is rounded as x*x instead of by pow()
    base = SystemParams(delta_a=1.0, kappa=0.2, gamma_m=1e-3, g=1e-5,
                        delta_c=-1.0, gamma_a=0.1, g0_collective=1.0)
    cms = []
    for e0, g0 in ((34507.16899113914, 2.6775912873481316),
                   (37143.53262750278, 0.7530458328026772)):
        fm, eff = steady_state_constant(replace(base, g0_collective=g0), e0,
                                        delta_a_eff=1.0)
        cms.append(reduce_atom_mirror(steady_state_lyapunov(
            build_drift(eff, fm.q, fm.a), build_diffusion(eff))))
    en, physical = log_negativity_stack(np.array([r.full for r in cms]))
    assert physical.all()
    assert en.tolist() == [log_negativity_reference(r) for r in cms]


def test_log_negativity_stack_flags_bogus_matrix_only():
    bogus = ReducedCM(a=0.5 * np.eye(2), b=0.5 * np.eye(2),
                      c=5.0 * np.eye(2))
    thermal = ReducedCM(a=4.5 * np.eye(2), b=0.5 * np.eye(2),
                        c=np.zeros((2, 2)))
    cms = [two_mode_squeezed_cm(0.5), bogus, thermal,
           two_mode_squeezed_cm(1.3)]
    en, physical = log_negativity_stack(np.array([r.full for r in cms]))
    assert physical.tolist() == [True, False, True, True]
    assert np.isnan(en[1])
    for i in (0, 2, 3):
        assert en[i] == log_negativity(cms[i].full)
    assert en[2] == 0.0


def test_position_variance_and_flags():
    squeezed = 0.5 * np.eye(6)
    squeezed[0, 0] = 0.3
    vs = np.array([0.5 * np.eye(6), squeezed,
                   np.diag([10.5, 10.5, 1, 1, 1, 1])])
    cols = measures_from_cm_series(np.arange(3.0), vs)
    assert cols["v11"][0] == 0.5
    assert not cols["v11"][0] < 0.5       # the vacuum is not squeezed
    assert cols["v11"][1] < 0.5
    assert cols["neff"][0] == 0.0
    assert cols["neff"][2] == 10.0
    assert cols["r_db"].tolist() == [squeezing_parameter(v[:2, :2])[2]
                                     for v in vs]
    # a stack gives each block's squeezing and angle bit for bit
    rng = np.random.default_rng(3)
    mech = np.array([rotation(th) @ np.diag(ls) @ rotation(th).T
                     for th, ls in zip(rng.uniform(-1.5, 1.5, 64),
                                       rng.uniform(0.05, 3.0, (64, 2)))])
    stack = (*squeezing_parameter(mech), principal_axis_angle(mech))
    loop = [(*squeezing_parameter(m), principal_axis_angle(m)) for m in mech]
    assert np.stack(stack, axis=1).tobytes() == np.array(loop).tobytes()
    for bad, match in ((np.diag([1.0, -1.0]), "determinant -1 <= 0"),
                       (-np.eye(2), "not positive definite")):
        with pytest.raises(NonPhysical, match=match):
            squeezing_parameter(np.concatenate((mech, bad[None], mech)))


def test_squeezing_parameter_vacuum():
    lam, r_raw, r_db = squeezing_parameter(0.5 * np.eye(2))
    assert lam == 0.5
    assert r_raw == pytest.approx(10 * np.log10(2.0))
    assert r_db == pytest.approx(0.0, abs=1e-12)


def test_squeezing_parameter_diagonal():
    lam, _, r_db = squeezing_parameter(np.diag([0.25, 1.0]))
    assert lam == pytest.approx(0.25)
    assert r_db == pytest.approx(-10 * np.log10(0.5))


def test_squeezing_parameter_rejects_indefinite():
    with pytest.raises(NonPhysical):
        squeezing_parameter(np.diag([1.0, -1.0]))


@given(st.floats(0.05, 3.0), st.floats(0.05, 3.0),
       st.floats(-np.pi / 2, np.pi / 2))
@settings(max_examples=80, deadline=None)
def test_squeezing_matches_eigensolver(l1, l2, theta):
    u = rotation(theta)
    cm = u @ np.diag([l1, l2]) @ u.T
    lam, _, _ = squeezing_parameter(cm)
    want = np.min(np.linalg.eigvalsh(cm))
    # near-degenerate blocks: sqrt(m^2 - det) turns rounding noise eps
    # into sqrt(eps), so allow an absolute 1e-7 floor
    assert lam == pytest.approx(want, abs=1e-7, rel=1e-10)


def test_principal_axis_angle_recovers_rotation():
    for theta in (-1.2, -0.4, 0.0, 0.6, 1.3):
        u = rotation(theta)
        cm = u @ np.diag([2.0, 0.5]) @ u.T
        got = principal_axis_angle(cm)
        diff = (got - theta + np.pi / 2) % np.pi - np.pi / 2
        assert abs(diff) <= 1e-12


def test_wigner_vacuum_peak_and_normalization():
    grid = wigner(0.5 * np.eye(2), span_sigmas=6.0, points=201)
    center = grid.values[100, 100]
    assert center == pytest.approx(1.0 / np.pi, rel=1e-12)
    assert wigner_integral(grid) == pytest.approx(1.0, abs=1e-3)


def test_wigner_ellipse_orientation():
    theta = 0.8
    u = rotation(theta)
    cm = u @ np.diag([2.0, 0.2]) @ u.T
    grid = wigner(cm, span_sigmas=5.0, points=301)
    # second moments of the density reproduce the CM orientation
    x, y = np.meshgrid(*grid.axes, indexing="ij")
    w = grid.values
    dx = grid.axes[0][1] - grid.axes[0][0]
    dy = grid.axes[1][1] - grid.axes[1][0]
    mxx = np.sum(w * x * x) * dx * dy
    myy = np.sum(w * y * y) * dx * dy
    mxy = np.sum(w * x * y) * dx * dy
    got = 0.5 * np.arctan2(2 * mxy, mxx - myy)
    assert abs(got - theta) <= 1e-6


def test_wigner_rejects_singular_cm():
    with pytest.raises(NonPhysical):
        wigner(np.zeros((2, 2)))
