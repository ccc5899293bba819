"""Quantum fluctuation dynamics around the classical means.

Assembles the time-dependent drift matrix and the diffusion matrix of the
linearized quadrature dynamics, propagates the 6x6 covariance matrix
through the Lyapunov equation of motion, solves for the periodic
asymptote of a modulated drive as harmonics (periodic_state), and
solves the algebraic steady state of a constant drive for a whole stack
of sweep cells at once (lyapunov_stack).  The hot loop fills one drift
template per integration (drift_kernel); build_drift assembles a fresh
matrix for everything else.  stability_check gives the one stability
verdict per drive kind: the Hurwitz test of the constant drift, or the
largest Floquet multiplier of the periodic asymptote.

Quadrature ordering is (dq, dp, dX, dY, dx, dy); vacuum variance 1/2.
Every integration and the algebraic solves carry the symmetric CM as
vech V, its 21 entries V[VECH] on and above the diagonal in row-major
order, the column order of cm.csv; V = vech[UNVECH] rebuilds the matrix,
and _vech_kron gives the solves their Kronecker operators on vech V.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoConvergence, NonPhysical, NotStable, \
    SimulationError, Singular
from .measures import symplectic_eigenvalues
from .model import DriveSpec, FirstMoments, SystemParams, ZERO_MOMENTS
from .moments import FloquetSolution, MomentTrajectory, _rhs_vector, \
    default_stepper, effective_coupling, effective_detuning, \
    floquet_recurse, periodic_means
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

    The state is (moments[6], vech V[21]); without means it is vech V
    alone.  The drift is filled in at every call from source(t) when a
    mean source is given, else from the co-integrated means.
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
        av = a_mat @ y[6:][UNVECH]
        return np.concatenate((dy_m, av.take(_UPPER) + av.take(_LOWER) + d))

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


HB_ORDERS = (4, 8, 16, 32)      # truncations periodic_state tries


@dataclass(frozen=True)
class PeriodicState:
    """Periodic asymptote of a modulated drive: the harmonics, n = -N..N,
    of its means (q, p, Re a, Im a, Re c, Im c) and vech V, and both at t0
    (y, and v when usable, else None).  transient_residue =
    max_multiplier**floor(t0/tau) bounds the transient a run from t = 0
    still carries at t0; usable: the cycle attracts and the residue is
    within rel_tol.  truncation: max(|A_N| / max |A_n|, |V_N| / |V_0|)."""

    y: np.ndarray
    v: np.ndarray | None
    max_multiplier: float
    transient_residue: float
    usable: bool
    truncation: float
    means: np.ndarray
    cm: np.ndarray
    big_omega: float

    def sample(self, t) -> tuple[np.ndarray, np.ndarray]:
        """((T, 6) means, (T, 6, 6) CMs) of the cycle at the times t."""
        n = len(self.means) // 2
        phases = np.exp(1j * self.big_omega * np.multiply.outer(
            np.atleast_1d(t), np.arange(-n, n + 1)))
        return (phases @ self.means).real, (phases @ self.cm).real[:, UNVECH]


def _periodic_cm(m: np.ndarray, big_omega: float,
                 d: np.ndarray) -> np.ndarray:
    """Harmonics vech V_k, k = -N..N, of the periodic CM: the solution
    of sum_j B_{k-j} vech V_j - i k Omega vech V_k = -vech D delta_k0,
    B_n = L(M_n (x) I + I (x) M_n)D, as the real and imaginary parts of
    rows k = 0..N in the real and imaginary parts of V_k = conj V_-k.
    The real matrix is filled a row of blocks at a time, which keeps the
    complex blocks in memory to one row's worth."""
    n, eye = len(m) // 2, np.eye(6)
    b = np.pad(_vech_kron(m, eye) + _vech_kron(eye, m),
               ((n, n), (0, 0), (0, 0)))       # B_n over n = -2N..2N
    js, a = np.arange(n + 1), np.zeros((21 * (2 * n + 1),) * 2)
    for k in js:        # B_{k-j} and B_{k+j} on V_j and V_-j = conj V_j
        minus = b[k - js + 2 * n]
        plus = b[k + js + 2 * n] * (js > 0)[:, None, None]
        minus[k] -= 1j * big_omega * k * np.eye(21)
        row = np.concatenate((minus + plus, 1j * (minus - plus)[1:]))
        row = row.transpose(1, 0, 2).reshape(21, -1)
        a[21 * k:21 * k + 21] = row.real
        if k:           # the imaginary part of row 0 vanishes identically
            a[21 * (n + k):21 * (n + k) + 21] = row.imag
    rhs = np.zeros(len(a))
    rhs[:21] = -d[VECH]
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise Singular("periodic CM system singular") from None
    v = (x[21:21 * (n + 1)] + 1j * x[21 * (n + 1):]).reshape(n, 21)
    return np.concatenate((v[::-1].conj(), x[None, :21], v))


def _hill_multiplier(m: np.ndarray, big_omega: float) -> float:
    """Largest Floquet multiplier modulus exp(tau max Re lambda), over
    the 6 eigenvalues lambda of the Hill matrix (blocks M_{n-k} - i n
    Omega delta_nk I) whose eigenvectors weigh most on the centre
    harmonic.  In the basis (p_0, (p_k + p_-k)/sqrt2, i (p_k - p_-k)/sqrt2)
    the matrix is real, and the centre block is as it was."""
    n, k, r = len(m) // 2, np.arange(1, len(m) // 2 + 1), np.sqrt(0.5)
    u = np.eye(2 * n + 1, dtype=complex)
    u[n + k, n - k], u[n - k, n + k], u[n - k, n - k] = 1.0, 1j, -1j
    u = np.kron(np.where(np.arange(2 * n + 1) == n, 1.0, r)[:, None] * u,
                np.eye(6))
    ns = np.arange(-n, n + 1)
    hill = np.pad(m, ((n, n), (0, 0), (0, 0)))[ns[:, None] - ns + 2 * n]
    hill = hill.transpose(0, 2, 1, 3).reshape(len(u), -1) \
        - 1j * big_omega * np.diag(np.repeat(ns, 6))
    lam, vec = np.linalg.eig((u @ hill @ u.conj().T).real)
    top = np.argsort(np.sum(np.abs(vec[6 * n:6 * n + 6]) ** 2, axis=0))[-6:]
    return float(np.exp(2.0 * np.pi / big_omega * np.max(lam[top].real)))


def periodic_state(params: SystemParams, drive: DriveSpec, t0: float,
                   cfg: StepperConfig | None = None,
                   series: FloquetSolution | None = None) -> PeriodicState:
    """Limit cycle, periodic CM and Floquet verdict at t0, as harmonics:
    the means by harmonic balance (moments.periodic_means from series, or
    floquet_recurse's default orders), the CM by one linear system, the
    verdict by Hill's method; nothing is integrated.  N is the first of
    HB_ORDERS at which |A_N| / max |A_n| and |V_N| / |V_0| are within
    rel_tol.  Raises a SimulationError when the cycle cannot be found: a
    singular denominator or CM system, or NoConvergence (Newton, or N)."""
    cfg = default_stepper(drive, cfg)
    series = series or floquet_recurse(params, drive)
    g, gr = params.g, np.sqrt(2.0) * params.g
    for n in HB_ORDERS:
        y = periodic_means(params, drive, n, series)
        a = np.abs(y[:, 2] + 1j * y[:, 3])
        truncation = max(a[0], a[-1]) / (np.max(a) or 1.0)
        if truncation <= cfg.rel_tol:
            # the drift's harmonics: it is affine in (q, Re a, Im a)
            m = np.zeros((2 * n + 1, 6, 6), dtype=complex)
            m[n] = build_drift(params, 0.0, 0j)
            m[:, [2, 3, 1, 3, 1, 2], [3, 2, 2, 0, 3, 0]] += \
                np.array([-g, g, gr, gr, gr, -gr]) * y[:, [0, 0, 2, 2, 3, 3]]
            cm = _periodic_cm(m, drive.big_omega, build_diffusion(params))
            truncation = max(truncation, np.max(np.abs(cm[-1]))
                             / np.max(np.abs(cm[n])))
            if truncation <= cfg.rel_tol:
                break
    else:
        raise NoConvergence(
            f"harmonic balance truncation {truncation:.3g} above rel_tol "
            f"{cfg.rel_tol:g} at N = {HB_ORDERS[-1]}")
    mu = _hill_multiplier(m, drive.big_omega)
    with np.errstate(over="ignore"):
        residue = float(np.power(mu, np.floor(t0 / drive.period)))
    usable = mu < 1.0 and residue <= cfg.rel_tol
    ps = PeriodicState(y=None, v=None, max_multiplier=mu,
                       transient_residue=residue, usable=usable,
                       truncation=float(truncation), means=y, cm=cm,
                       big_omega=drive.big_omega)
    y0, v0 = ps.sample(t0)
    return replace(ps, y=y0[0], v=v0[0] if usable else None)


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
                "transient_residue": subject.transient_residue,
                "truncation": subject.truncation}
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
