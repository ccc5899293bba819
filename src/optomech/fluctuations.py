"""Quantum fluctuation dynamics around the classical means.

Assembles the time-dependent drift matrix and the diffusion matrix of the
linearized quadrature dynamics, propagates the 6x6 covariance matrix
through the Lyapunov equation of motion, solves for the periodic
asymptote of a modulated drive from one period's monodromy, and solves
the algebraic steady state of a constant drive for a whole stack of
sweep cells at once (lyapunov_stack).  The hot loop fills one drift
template per integration (drift_kernel); build_drift assembles a fresh
matrix for everything else.  stability_check gives the one stability
verdict per drive kind: the Hurwitz test of the constant drift, or the
largest Floquet multiplier of the periodic asymptote.

Quadrature ordering is (dq, dp, dX, dY, dx, dy); vacuum variance 1/2.
Every integration and both algebraic solves carry the symmetric CM as
vech V, its 21 entries V[VECH] on and above the diagonal in row-major
order, the column order of cm.csv; V = vech[UNVECH] rebuilds the matrix,
and _vech_kron gives the solves their Kronecker operators on vech V.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonPhysical, NotStable, \
    SimulationError, Singular
from .measures import symplectic_eigenvalues
from .model import DriveSpec, FirstMoments, SystemParams, ZERO_MOMENTS
from .moments import FloquetSolution, MomentTrajectory, _rhs_vector, \
    default_stepper, effective_coupling, effective_detuning, \
    evaluate_floquet, floquet_recurse
from .numerics import StepperConfig, integrate_adaptive

PHYSICALITY_SLACK = 1e-6
# vech V = V[VECH]; UNVECH[i, j] is the vech index of entry (i, j) and of
# (j, i), so vech[UNVECH] is V again.  vech(M + M^T) = M.take(_UPPER) +
# M.take(_LOWER), and _DUPLICATION maps vech V to the row-major vec V
# (Magnus & Neudecker's duplication matrix D).
VECH = np.triu_indices(6)
UNVECH = np.zeros((6, 6), dtype=int)
UNVECH[VECH] = UNVECH.T[VECH] = np.arange(21)
_UPPER = np.ravel_multi_index(VECH, (6, 6))
_LOWER = np.ravel_multi_index(VECH[::-1], (6, 6))
_DUPLICATION = np.eye(21)[UNVECH.ravel()]


def _vech_kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """L (x (x) y) D, which maps vech V to vech(x V y^T), for 6x6 x and y
    or stacks of them; L keeps the vech rows of the row-major vec V and
    D = _DUPLICATION.  Only the 21 kept rows of x (x) y are built."""
    rows = x[..., VECH[0], :, None] * y[..., VECH[1], None, :]
    return rows.reshape(*rows.shape[:-2], 36) @ _DUPLICATION


def build_drift(params: SystemParams, q_mean: float,
                a_mean: complex) -> np.ndarray:
    """Drift matrix A(t) of the linearized quadrature dynamics."""
    om = params.omega_m
    g0 = params.g0_collective
    det = effective_detuning(params, q_mean)
    gc = effective_coupling(params.g, a_mean)
    gx, gy = gc.real, gc.imag
    return np.array([
        [0.0,    om,            0.0,          0.0,          0.0,            0.0],
        [-om,   -params.gamma_m, gx,           gy,           0.0,            0.0],
        [-gy,    0.0,           -params.kappa, det,          0.0,            g0],
        [gx,     0.0,           -det,         -params.kappa, -g0,            0.0],
        [0.0,    0.0,           0.0,          g0,           -params.gamma_a, params.delta_c],
        [0.0,    0.0,           -g0,          0.0,          -params.delta_c, -params.gamma_a],
    ])


def drift_kernel(params: SystemParams):
    """(q_mean, a_mean) -> A(t), filling the six mean-dependent entries of
    one template built by build_drift.

    Every call returns the same array, so a caller must use it before the
    next call and never keep it; the values equal build_drift's.
    """
    a_mat = build_drift(params, 0.0, 0j)
    da0 = params.delta_a
    g = params.g
    g_root2 = np.sqrt(2.0) * g

    def fill(q_mean, a_mean):
        det = da0 - g * q_mean
        gc = g_root2 * a_mean
        gx, gy = gc.real, gc.imag
        a_mat[1, 2] = gx
        a_mat[1, 3] = gy
        a_mat[2, 0] = -gy
        a_mat[2, 3] = det
        a_mat[3, 0] = gx
        a_mat[3, 2] = -det
        return a_mat

    return fill


def build_diffusion(params: SystemParams) -> np.ndarray:
    """Diagonal diffusion matrix of the input noises."""
    return np.diag([0.0,
                    params.gamma_m * (2.0 * params.n_th + 1.0),
                    params.kappa, params.kappa,
                    params.gamma_a, params.gamma_a])


def thermal_vacuum_cm(n_th: float) -> np.ndarray:
    """Default initial CM: thermal mirror, vacuum cavity and atoms."""
    return np.diag([n_th + 0.5, n_th + 0.5, 0.5, 0.5, 0.5, 0.5])


@dataclass
class LyapunovTrajectory:
    t: np.ndarray
    v: np.ndarray                       # (T, 6, 6)
    means: MomentTrajectory | None      # the co-integrated means, if carried


def _check_physical(t: np.ndarray, vs: np.ndarray):
    """Raise NonPhysical at the first CM of the series whose smallest
    symplectic eigenvalue falls below 1/2 by more than the slack."""
    nu_min = symplectic_eigenvalues(vs)[:, 0]
    bad = np.flatnonzero(nu_min < 0.5 - PHYSICALITY_SLACK)
    if bad.size:
        k = bad[0]
        raise NonPhysical(
            f"symplectic eigenvalue {nu_min[k]:.8f} < 1/2 at "
            f"t = {t[k]:g}; integration accuracy insufficient")


def _moments_cm_rhs(params: SystemParams, drive: DriveSpec, source=None,
                    means: bool = True):
    """RHS of the CM, and of the mean values co-integrated with it.

    The state is (moments[6], vech V[21]), with Phi[36] appended when it
    has 63 entries; without means it is vech V alone.  The drift is
    filled in at every call from source(t) when a mean source is given,
    else from the co-integrated means; the fundamental matrix obeys
    dPhi/dt = A(t) Phi.
    """
    drift = drift_kernel(params)
    d = build_diffusion(params)[VECH]
    if not means:
        def f(t, y):
            av = drift(*source(t)) @ y[UNVECH]
            return av.take(_UPPER) + av.take(_LOWER) + d

        return f
    moment_rhs = _rhs_vector(params, drive)

    def f(t, y):
        dy_m = moment_rhs(t, y[:6])
        a_mat = (drift(y[0], complex(y[2], y[3])) if source is None
                 else drift(*source(t)))
        av = a_mat @ y[6:27][UNVECH]
        dv = av.take(_UPPER) + av.take(_LOWER) + d
        if y.size == 27:
            return np.concatenate((dy_m, dv))
        dphi = a_mat @ y[27:].reshape(6, 6)
        return np.concatenate((dy_m, dv, dphi.ravel()))

    return f


def integrate_lyapunov(params: SystemParams, drive: DriveSpec,
                       first_moment_source, v0: np.ndarray | None,
                       t_end: float, t_eval: np.ndarray | None = None,
                       cfg: StepperConfig | None = None,
                       moment_init: FirstMoments | None = None,
                       check_physical: bool = True,
                       t_start: float = 0.0) -> LyapunovTrajectory:
    """Propagate dV/dt = A(t) V + V A^T + D from t_start to t_end.

    v0 (read on and above its diagonal) and moment_init are the state at
    t_start.  first_moment_source selects where the means that fill A(t)
    at every step come from:

    * "ode"    - co-integrate the mean-value ODEs alongside V, starting
                 from moment_init (zero when None; the exact numerical
                 route);
    * callable - t -> (q_mean, a_mean), e.g. the Floquet series or the
                 engineered closed form.  When moment_init is given the
                 mean-value ODEs are co-integrated alongside V all the
                 same, in the same stepping loop, though they do not
                 fill A(t); when it is None V is integrated alone.

    The trajectory carries the co-integrated means as means, and None
    when V was integrated alone.
    """
    if v0 is None:
        v0 = thermal_vacuum_cm(params.n_th)
    v0 = np.asarray(v0, dtype=float)[VECH]
    cfg = default_stepper(drive, cfg)
    source = None if first_moment_source == "ode" else first_moment_source
    if source is None and moment_init is None:
        moment_init = ZERO_MOMENTS
    f = _moments_cm_rhs(params, drive, source, moment_init is not None)
    y0 = (v0 if moment_init is None
          else np.concatenate((moment_init.to_vector(), v0)))
    sol = integrate_adaptive(f, (t_start, t_end), y0, cfg, t_eval=t_eval)
    vs = sol.y[-21:].T[:, UNVECH]
    if check_physical:
        _check_physical(sol.t, vs)
    means = (MomentTrajectory.from_states(sol.t, sol.y[:6])
             if moment_init is not None else None)
    return LyapunovTrajectory(t=sol.t, v=vs, means=means)


# Quadrature scaling between the mean-value vector (q, p, Re a, Im a,
# Re c, Im c) and the fluctuation quadratures: u = S dy.
_QUADRATURE_SCALE = np.array([1.0, 1.0] + [np.sqrt(2.0)] * 4)
# Shooting converges quadratically; from the Floquet series it takes three
# periods at the fig5a working point.  Slower convergence means the series
# start is poor, and the periodic solve gives up.
SHOOTING_MAX_PERIODS = 5


@dataclass(frozen=True)
class PeriodicState:
    """Periodic asymptote of a modulated drive at the time t0.

    y and v are the limit-cycle means and the periodic CM at t0 (v is None
    unless usable).  max_multiplier is the largest Floquet multiplier
    modulus, from the one-period fundamental matrix; transient_residue =
    max_multiplier**floor(t0/tau) bounds the share of the initial
    transient that a run from t = 0 still carries at t0.  usable is the
    gate: the cycle attracts (max_multiplier < 1) and the residue is
    within the stepper's rel_tol.
    """

    y: np.ndarray
    v: np.ndarray | None
    max_multiplier: float
    transient_residue: float
    usable: bool


def _one_period(f, y, t0, tau, cfg):
    """(y, Phi, vech W) after one period from (y, W = 0, Phi = I) at t0."""
    state = np.concatenate((y, np.zeros(21), np.eye(6).ravel()))
    end = integrate_adaptive(f, (t0, t0 + tau), state, cfg).y[:, -1]
    return end[:6], end[27:].reshape(6, 6), end[6:27]


def periodic_state(params: SystemParams, drive: DriveSpec, t0: float,
                   cfg: StepperConfig | None = None,
                   series: FloquetSolution | None = None) -> PeriodicState:
    """Limit cycle and periodic CM at t0 by one-period monodromy.

    Newton shooting on y(t0 + tau) - y(t0), started from the Floquet
    series at t0 (series, or floquet_recurse's default orders); its
    Jacobian S^-1 Phi S - I comes from the fundamental matrix Phi
    integrated alongside, so it costs no extra integration.
    It has converged once the residual is within rel_tol of max |y|.
    The forced CM W (W(t0) = 0) of the converged period then gives the
    periodic CM as the solution of V = Phi V Phi^T + W.  Raises a
    SimulationError saying why when the cycle cannot be found: a singular
    series denominator, a diverging or failing step, a singular Jacobian
    (Singular) or no convergence within SHOOTING_MAX_PERIODS
    (NoConvergence).
    """
    cfg = default_stepper(drive, cfg)
    f = _moments_cm_rhs(params, drive)
    tau = drive.period
    if series is None:
        series = floquet_recurse(params, drive)
    y = evaluate_floquet(series, params.g, t0).to_vector()
    for _ in range(SHOOTING_MAX_PERIODS):
        y_end, phi, w = _one_period(f, y, t0, tau, cfg)
        resid = y_end - y
        if np.max(np.abs(resid)) <= cfg.rel_tol * np.max(np.abs(y)):
            break
        jac = (phi * _QUADRATURE_SCALE) / _QUADRATURE_SCALE[:, None] \
            - np.eye(6)
        try:
            y = y - np.linalg.solve(jac, resid)
        except np.linalg.LinAlgError:
            raise Singular(f"shooting Jacobian singular at t0 = {t0:g}") \
                from None
    else:
        raise NoConvergence(
            f"shooting for the limit cycle at t0 = {t0:g} did not converge "
            f"in {SHOOTING_MAX_PERIODS} periods")
    mu = float(np.max(np.abs(np.linalg.eigvals(phi))))
    with np.errstate(over="ignore"):
        residue = float(np.power(mu, np.floor(t0 / tau)))
    usable = mu < 1.0 and residue <= cfg.rel_tol
    v = None
    if usable:
        # V = Phi V Phi^T + W as (I - L (Phi (x) Phi) D) vech V = vech W
        v = np.linalg.solve(np.eye(21) - _vech_kron(phi, phi), w)[UNVECH]
    return PeriodicState(y=y, v=v, max_multiplier=mu,
                         transient_residue=residue, usable=usable)


def stability_check(subject: np.ndarray | PeriodicState) -> dict:
    """The stability verdict, as stability.json holds it.

    subject is the drift matrix at a constant drive's working point, or
    the periodic state of a modulated drive.  A constant drive is stable
    when the drift is Hurwitz, the test lyapunov_stack applies:
    {stable, margin} with margin = max Re eig(A) < 0.  A modulated drive
    is stable when every Floquet multiplier lies inside the unit circle:
    {stable, max_multiplier, transient_residue}.
    """
    if isinstance(subject, PeriodicState):
        return {"stable": subject.max_multiplier < 1.0,
                "max_multiplier": subject.max_multiplier,
                "transient_residue": subject.transient_residue}
    margin = float(np.max(np.linalg.eigvals(subject).real))
    return {"stable": margin < 0.0, "margin": margin}


def lyapunov_stack(a: np.ndarray, d: np.ndarray
                   ) -> tuple[np.ndarray, list[SimulationError | None]]:
    """Algebraic steady states A V + V A^T + D = 0 of stacked 6x6 cells.

    a and d are (cells, 6, 6).  Each cell solves L (A (x) I + I (x) A) D
    vech V = -vech D, 21x21, in one batched LAPACK call for all.  Returns
    (v, errors): errors[i] is None, or cell i's failure with v[i] NaN.
    NotStable: A is not Hurwitz.  Singular: A is not finite, or the solve
    or the equation keeps a residual above its bound.  A failing cell
    leaves its neighbours' results as they would be alone.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    v = np.full(a.shape, np.nan)
    errors: list[SimulationError | None] = [None] * len(a)
    finite = np.isfinite(a).all(axis=(1, 2))
    top = np.full(len(a), np.nan)
    top[finite] = np.linalg.eigvals(a[finite]).real.max(axis=1)
    for i in np.flatnonzero(~(top < 0.0)):
        errors[i] = (NotStable(f"drift matrix not Hurwitz (max Re eig = "
                               f"{top[i]:g})") if finite[i]
                     else Singular("drift matrix is not finite"))
    idx = np.flatnonzero(top < 0.0)
    a, d, eye = a[idx], d[idx], np.eye(6)
    m = _vech_kron(a, eye) + _vech_kron(eye, a)
    b = -d[:, VECH[0], VECH[1], None]
    try:
        x = np.linalg.solve(m, b)
    except np.linalg.LinAlgError:
        # one exactly singular system fails the whole call: solve each
        # alone, leaving NaN (flagged below) where LAPACK refuses
        x = np.full(b.shape, np.nan)
        for j in range(len(idx)):
            with contextlib.suppress(np.linalg.LinAlgError):
                x[j] = np.linalg.solve(m[j], b[j])
    vs = x[:, UNVECH, 0]
    cell_max = lambda z: np.max(np.abs(z), axis=(1, 2))
    with np.errstate(invalid="ignore", over="ignore"):
        # residuals over their bounds: partial-pivoting solve, equation
        solve = cell_max(m @ x - b) / np.maximum(1e-300, 1e-10 * (
            np.max(np.sum(np.abs(m), axis=2), axis=1) * cell_max(x)
            + cell_max(b)))
        equation = cell_max(a @ vs + vs @ a.swapaxes(1, 2) + d) / (
            1e-10 * np.maximum(np.maximum(1.0, cell_max(d)),
                               cell_max(a) * cell_max(vs)))
    good = np.isfinite(x).all(axis=(1, 2)) & (solve <= 1.0) \
        & (equation <= 1.0)
    v[idx[good]] = vs[good]
    for j in np.flatnonzero(~good):
        errors[idx[j]] = Singular(
            f"residuals {solve[j]:.3g} (solve) and {equation[j]:.3g} "
            "(equation) times their bounds; system numerically singular")
    return v, errors


def steady_state_lyapunov(a_const: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Algebraic steady state A V + V A^T + D = 0: one cell of
    lyapunov_stack, whose error it raises."""
    v, (error,) = lyapunov_stack(np.asarray(a_const, dtype=float)[None],
                                 np.asarray(d, dtype=float)[None])
    if error is not None:
        raise error
    return v[0]
