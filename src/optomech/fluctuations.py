"""Quantum fluctuation dynamics around the classical means.

Assembles the time-dependent drift matrix and the diffusion matrix of the
linearized quadrature dynamics, propagates the 6x6 covariance matrix
through the Lyapunov equation of motion, and solves for the periodic
CM algebraically.  integrate_lyapunov propagates from rest at t = 0,
zero means and the thermal-vacuum CM, to the last sample, by one of two
routes.  With the "ode" source the means fill the drift, so they are
stepped from rest together with vech V, one right-hand side at a time,
and the RHS refills one drift template's mean-dependent entries.  With a
callable source A(t) is known in advance and the CM equation is linear:
each piece of the gaps between samples acts on V as V -> U V U^T + W,
and U and W are stepped a chunk of pieces at once as arrays, from one
build_drift call per chunk, whose maps then act on V (_propagate_cm); no
RHS is called one time at a time.
lyapunov_harmonics is the one algebraic CM solve of both drive kinds,
and floquet_exponent the one verdict: the periodic CM's harmonics and
the Floquet exponent from the drift's, for a modulated drive from
periodic_state's harmonic balance, and for a constant drive at N = 0,
where they are A V + V A^T + D = 0 and the Hurwitz test
(lyapunov_stack, which solves the CM of the cells that pass it alone).
stability_check turns the exponent into the verdict.

Quadrature ordering is (dq, dp, dX, dY, dx, dy); vacuum variance 1/2.
The stepper, the algebraic solves and every returned CM series carry the
symmetric CM as vech V, its 21 entries V[VECH] on and above the diagonal
in row-major order, the column order of cm.csv; V = vech[UNVECH]
rebuilds the matrix.
"""

from __future__ import annotations

import contextlib
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import Diverged, NoConvergence, NonPhysical, NotStable, \
    SimulationError, Singular, StepFailure
from .measures import symplectic_eigenvalues
from .model import DriveSpec, FirstMoments, SystemParams, cell_matrices
from .moments import _rhs_vector, default_stepper, floquet_recurse, \
    periodic_means
from .numerics import RTOL_FLOOR, StepperConfig, checked_t_eval, dop853, \
    integrate_adaptive

PHYSICALITY_SLACK = 1e-6
# vech V = V[VECH]; UNVECH[i, j] is the vech index of entry (i, j) and of
# (j, i), so vech[UNVECH] is V again, and vech(M + M^T) = M.take(_UPPER) +
# M.take(_LOWER).  vec M @ _LYAPUNOV is B = L(M (x) I + I (x) M)D, which
# maps vech V to vech(M V + V M^T): row (a, b) holds B for M = e_a e_b^T,
# vech(M V + V M^T)_(i,j) = [i = a] V_bj + [j = a] V_ib.
VECH = np.triu_indices(6)
UNVECH = np.zeros((6, 6), dtype=int)
UNVECH[VECH] = UNVECH.T[VECH] = np.arange(21)
_UPPER = np.ravel_multi_index(VECH, (6, 6))
_LOWER = np.ravel_multi_index(VECH[::-1], (6, 6))
_E = np.eye(6, dtype=np.int8)[:, None, :, None]
_V = np.eye(21, dtype=np.int8)[UNVECH]             # V[x, y, q]
_LYAPUNOV = (_E[..., VECH[0], :] * _V[:, VECH[1]] + _E[..., VECH[1], :]
             * _V[VECH[0]].swapaxes(0, 1)).reshape(36, 441).astype(float)


def build_drift(params: SystemParams, q_mean: float,
                a_mean: complex) -> np.ndarray:
    """Drift matrix A(t) of the linearized quadrature dynamics, one per
    cell where params' fields, q_mean or a_mean hold one value per cell:
    the means enter through the effective coupling G(t) = sqrt(2) g <a(t)>
    and the effective detuning Delta_a(t) = delta_a - g <q(t)>."""
    g0 = params.g0_collective
    det = params.delta_a - params.g * q_mean
    gc = np.sqrt(2.0) * params.g * a_mean
    gx, gy = gc.real, gc.imag
    return cell_matrices([
        0.0,    1.0,           0.0,          0.0,          0.0,            0.0,
        -1.0,  -params.gamma_m, gx,           gy,           0.0,            0.0,
        -gy,    0.0,           -params.kappa, det,          0.0,            g0,
        gx,     0.0,           -det,         -params.kappa, -g0,            0.0,
        0.0,    0.0,           0.0,          g0,           -params.gamma_a, params.delta_c,
        0.0,    0.0,           -g0,          0.0,          -params.delta_c, -params.gamma_a,
    ], 6)


def build_diffusion(params: SystemParams) -> np.ndarray:
    """Diagonal diffusion matrix of the input noises, one per cell where
    params' fields hold one value per cell."""
    diag = (0.0, params.gamma_m * (2.0 * params.n_th + 1.0),
            params.kappa, params.kappa, params.gamma_a, params.gamma_a)
    return cell_matrices([x if i == j else 0.0
                          for i, x in enumerate(diag) for j in range(6)], 6)


def thermal_vacuum_cm(n_th: float) -> np.ndarray:
    """Default initial CM: thermal mirror, vacuum cavity and atoms."""
    return np.diag([n_th + 0.5, n_th + 0.5, 0.5, 0.5, 0.5, 0.5])


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


def _moments_cm_rhs(params: SystemParams, drive: DriveSpec):
    """RHS of the means and of the CM co-integrated with them: the state
    is (moments[6], vech V[21]).  Each call writes the six entries that
    its means set, as build_drift does, into one drift template."""
    a_mat = build_drift(params, 0.0, 0j)
    d = build_diffusion(params)[VECH]
    moment_rhs = _rhs_vector(params, drive)
    da0 = params.delta_a
    g = params.g
    g_root2 = math.sqrt(2.0) * g

    def f(t, y):
        dy_m = moment_rhs(t, y[:6])
        q, _, ar, ai = y[:4].tolist()
        det = da0 - g * q
        gc = g_root2 * complex(ar, ai)
        gx, gy = gc.real, gc.imag
        a_mat[1, 2] = gx
        a_mat[1, 3] = gy
        a_mat[2, 0] = -gy
        a_mat[2, 3] = det
        a_mat[3, 0] = gx
        a_mat[3, 2] = -det
        av = a_mat @ y[6:][UNVECH]
        return np.concatenate((dy_m, av.take(_UPPER) + av.take(_LOWER) + d))

    return f


# Parts stepped together as arrays by _step_maps: the 13 DOP853 stages of
# U and W take 13 * 72 floats, 7.5 kB, a part, about 1 MB a chunk.  A
# piece is cut into at most PIECE_CHUNK parts.
PIECE_CHUNK = 128


def _reduce(u: np.ndarray, w: np.ndarray):
    """The one map of interval maps V -> U V U^T + W stacked in order
    along axis 0 (one per stack along the axes before the 6 x 6 ones),
    composed pairwise: maps 2i then 2i + 1 make
    (U_2 U_1, U_2 W_1 U_2^T + W_2)."""
    while len(u) > 1:
        u1, w1, u2, w2 = u[:-1:2], w[:-1:2], u[1::2], w[1::2]
        pu, pw = u2 @ u1, u2 @ w1 @ u2.swapaxes(-1, -2) + w2
        if len(u) % 2:              # the last map waits a round
            pu, pw = (np.concatenate((pu, u[-1:])),
                      np.concatenate((pw, w[-1:])))
        u, w = pu, pw
    return u[0], w[0]


def _step_maps(drift_at, d: np.ndarray, t: np.ndarray, h: np.ndarray,
               v: np.ndarray, cfg: StepperConfig):
    """(U, W, error norm) of one DOP853 step over each interval
    [t_i, t_i + h_i] at once: dU/dt = A U from U = I and
    dW/dt = A W + W A^T + D from W = 0.

    The norm is DOP853's estimate for the CM that the map makes of v,
    V = U v U^T + W: the estimates dU and dW of the errors in U and W
    give dU v U^T + U v dU^T + dW, over vech V.  The stepper scales each
    entry by its own size, atol + rtol max(|v_ij|, |V_ij|); here entry
    (i, j) is scaled by sqrt(s_ii s_jj), s = max(|v|, |V|), which bounds
    a covariance's |V_ij| and equals the stepper's scale on the
    diagonal, so that a correlation passing through zero is not held to
    atol alone.
    """
    rk = dop853()
    n = len(t)
    a = drift_at(t + h * np.append(rk.C, 1.0)[:, None])     # (13, n, 6, 6)
    ku, kw = np.empty((2, 13, n, 6, 6))
    ku[0], kw[0] = a[0], d
    hh = h[:, None, None]
    eye = np.eye(6)

    def combine(coef, k):       # sum_s coef_s k_s
        return (coef @ k[:len(coef)].reshape(len(coef), -1)).reshape(n, 6, 6)

    for s in range(1, 13):      # the last stage is at t + h, from the step
        coef = rk.A[s, :s] if s < 12 else rk.B
        u = eye + hh * combine(coef, ku)
        w = hh * combine(coef, kw)
        np.matmul(a[s], u, out=ku[s])
        aw = a[s] @ w
        np.add(aw, aw.swapaxes(1, 2), out=kw[s])
        kw[s] += d
    vut = (u @ v).swapaxes(1, 2)

    def vech(x):
        return x.reshape(n, 36)[:, _UPPER]

    def error(coef):            # the error estimate of vech(U v U^T + W)
        du = combine(coef, ku) @ vut
        return vech(du + du.swapaxes(1, 2) + combine(coef, kw))

    rtol = max(cfg.rel_tol, RTOL_FLOOR)
    size = np.sqrt(np.maximum(np.abs(np.diagonal(v)),
                              np.abs(np.diagonal(u @ vut + w, 0, 1, 2))))
    scale = cfg.abs_tol + rtol * vech(size[:, :, None] * size[:, None, :])
    err5 = np.sum((error(rk.E5) / scale) ** 2, axis=1)
    err3 = np.sum((error(rk.E3) / scale) ** 2, axis=1)
    denom = np.sqrt((err5 + 0.01 * err3) * 21)
    err = h * np.divide(err5, denom, out=np.zeros(n), where=err5 != 0)
    return u, w, err


@np.errstate(over="ignore", invalid="ignore")     # inf, NaN: Diverged
def _propagate_cm(params: SystemParams, source, v0: np.ndarray,
                  t_eval: np.ndarray, cfg: StepperConfig) -> np.ndarray:
    """(T, 6, 6) V at t_eval from V(0) = v0, when source(t) fills A(t);
    v0 is the state the maps step, the rest state's thermal-vacuum CM in
    integrate_lyapunov.

    Gap k, [t_{k-1}, t_k] with t_{-1} = 0, is cut into the fewest equal
    pieces no longer than max_step, each an interval map
    V -> U V U^T + W.  The pieces are stepped in order, PIECE_CHUNK
    parts at a time: a chunk's pieces are cut into the fewest parts, a
    power of two, no longer than the part length, stepped by _step_maps
    with their errors judged for the V at the chunk's start, and
    composed back.  A chunk whose largest error norm exceeds 1 is
    stepped again with its parts halved; the part length that passed
    (max_step at first) carries over, as an adaptive stepper keeps its
    step.  Each gap's pieces in the chunk are reduced to one map that
    acts on V.  Diverged after a chunk that leaves some |V| above
    cfg.overflow_guard, at the first sample past it, or else at the
    sample its unfinished gap leads to; StepFailure when a piece would
    need more than PIECE_CHUNK parts.
    """
    d = build_diffusion(params)

    def drift_at(t):        # one array call of the source per chunk
        q, a = source(t.ravel())
        m = build_drift(params, q, a)
        return np.broadcast_to(m, (t.size, 6, 6)).reshape(t.shape + (6, 6))

    starts = np.concatenate(([0.0], t_eval[:-1]))
    gaps = t_eval - starts
    counts = np.ceil(gaps / cfg.max_step).astype(int)
    ends = np.cumsum(counts)                # pieces up to sample k
    gap = np.repeat(np.arange(len(t_eval)), counts)
    # each piece's start, as np.linspace spaces the edges of its gap
    t = (np.arange(ends[-1]) - (ends - counts)[gap]) \
        * (gaps / np.maximum(counts, 1))[gap] + starts[gap]
    h = np.diff(np.append(t, t_eval[-1]))
    ends, vs = ends.tolist(), np.empty((len(t_eval), 6, 6))
    k = bisect_right(ends, 0)               # samples at t = 0 hold v0
    vs[:k] = v0
    v, part, i = v0, cfg.max_step, 0
    while i < len(t):
        longest, m = np.max(h[i:i + PIECE_CHUNK]), 1
        while longest / m > part * (1.0 + 1e-9):    # past rounding
            m *= 2
        if m > PIECE_CHUNK:
            raise StepFailure(f"interval maps after t = {t[i]:g} fail "
                              f"their tolerance at every part length")
        j = min(len(t), i + PIECE_CHUNK // m)
        u, w, err = _step_maps(
            drift_at, d, (t[i:j, None] + h[i:j, None] * np.arange(m) / m)
            .ravel(), np.repeat(h[i:j] / m, m), v, cfg)
        if not np.max(err) <= 1.0:
            part = longest / (2 * m)
            continue
        u, w = _reduce(u.reshape(-1, m, 6, 6).swapaxes(0, 1),
                       w.reshape(-1, m, 6, 6).swapaxes(0, 1))
        first, k, a = k, bisect_right(ends, j, k), i  # samples ending here
        for n, b in enumerate(ends[first:k] + [j], first):
            if b > a:
                ru, rw = _reduce(u[a - i:b - i], w[a - i:b - i])
                v, a = ru @ v @ ru.T + rw, b
            if n < k:
                vs[n] = v
        # V at the chunk's samples, then at its end, in gap k if unfinished
        big = ~(np.max(np.abs(np.concatenate((vs[first:k], [v]))),
                       axis=(1, 2)) <= cfg.overflow_guard)
        if big.any():
            raise Diverged(f"state magnitude exceeded {cfg.overflow_guard:g}"
                           f" at t = {t_eval[first + np.argmax(big)]:g}")
        i = j
    return vs


def integrate_lyapunov(params: SystemParams, drive: DriveSpec,
                       first_moment_source, t_eval,
                       cfg: StepperConfig | None = None
                       ) -> tuple[FirstMoments | None, np.ndarray]:
    """(means, vs): dV/dt = A(t) V + V A^T + D propagated from rest at
    t = 0, zero means and V(0) = thermal_vacuum_cm(params.n_th), to
    t_eval[-1], sampled at t_eval (ascending, none before t = 0);
    t_eval = [0] is the rest state.  vs holds the (T, 6, 6) CMs.

    first_moment_source selects where the means that fill A(t) come
    from, and with it what is stepped:

    * "ode"    - the mean-value ODEs, co-integrated with vech V in one
                 DOP853 loop (integrate_adaptive); the exact numerical
                 route.  means is a FirstMoments, one value per sample.
    * callable - t -> (q_mean, a_mean) over an array of times (a source
                 that returns scalars is broadcast), e.g. the engineered
                 closed form (engineered_mean_source).  A(t) is known
                 before any stepping, so the CM equation is linear and
                 nothing is stepped in a loop: each piece of the gaps
                 between samples acts on V as an interval map
                 V -> U V U^T + W, whose U and W are stepped as arrays
                 with DOP853's own tableau (_propagate_cm).
                 means is None.

    Raises ValueError when t_eval is empty or does not ascend from
    t = 0, Diverged when |V| exceeds cfg.overflow_guard (at a step of
    the "ode" route; on the callable one, after each chunk of interval
    maps, at the first sample past it), StepFailure when the tolerances
    cannot be met, and NonPhysical at the first unphysical CM.
    """
    t = checked_t_eval(t_eval)
    v0 = thermal_vacuum_cm(params.n_th)
    cfg = default_stepper(drive, cfg)
    if first_moment_source == "ode":
        y0 = np.concatenate((np.zeros(6), v0[VECH]))
        y = y0[:, None]             # the rest state, at t = [0]
        if t[-1] > 0.0:
            y = integrate_adaptive(_moments_cm_rhs(params, drive),
                                   (0.0, t[-1]), y0, cfg, t_eval=t).y
        means = FirstMoments.from_vector(y[:6])
        vs = y[6:].T[:, UNVECH]
    else:
        vs = _propagate_cm(params, first_moment_source, v0, t, cfg)
        vs = vs.reshape(-1, 36)[:, _UPPER][:, UNVECH]
        means = None
    _check_physical(t, vs)
    return means, vs


HB_ORDERS = (4, 8, 16, 32)      # truncations periodic_state tries


@dataclass(frozen=True)
class PeriodicState:
    """Periodic asymptote of a modulated drive: the harmonics, n = -N..N,
    of its means (q, p, Re a, Im a, Re c, Im c) and vech V.
    transient_residue = max_multiplier**floor(t0/tau) bounds the transient
    a run from t = 0 still carries at t0; usable: the cycle attracts and
    the residue is within rel_tol.  truncation: max(|A_M| / max |A_n|,
    |V_M| / |V_0|), M the outermost harmonic the drive can excite."""

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


def floquet_exponent(m: np.ndarray, big_omega: float) -> np.ndarray:
    """(cells,) Floquet exponents of stacked drifts: the verdict of both
    drive kinds, max |mu| = exp(tau exponent).

    m (cells, 2N+1, 6, 6) holds the harmonics M_n, n = -N..N, of each
    drift; a constant drive is N = 0, where the exponent is max Re eig
    M_0 and a negative one makes the drift Hurwitz.  At N > 0 it is max
    Re lambda over the 6 Hill eigenvalues that weigh most on the centre
    harmonic.  NaN where m is not finite.
    """
    cells, n = len(m), m.shape[1] // 2
    finite = np.isfinite(m).all(axis=(1, 2, 3))
    m = np.where(finite[:, None, None, None], m, -np.eye(6))
    if n:
        # Hill matrix, blocks M_{k-j} - i k Omega delta_kj, in the basis
        # (p_0, (p_k + p_-k)/sqrt2, i (p_k - p_-k)/sqrt2): real, with the
        # centre block as it was
        ks, r, k = np.arange(-n, n + 1), np.sqrt(0.5), np.arange(1, n + 1)
        m = np.pad(m, ((0, 0), (n, n), (0, 0), (0, 0)))
        u = np.eye(2 * n + 1, dtype=complex)
        u[n + k, n - k], u[n - k, n + k], u[n - k, n - k] = 1.0, 1j, -1j
        u = np.kron(np.where(ks == 0, 1.0, r)[:, None] * u, np.eye(6))
        hill = m[:, ks[:, None] - ks + 2 * n].transpose(0, 1, 3, 2, 4) \
            .reshape(cells, len(u), -1) \
            - 1j * big_omega * np.diag(np.repeat(ks, 6))
        lam, vec = np.linalg.eig((u @ hill @ u.conj().T).real)
        top = np.argsort(np.sum(np.abs(vec[:, 6 * n:6 * n + 6]) ** 2,
                                axis=1))[:, -6:]
        lam = np.take_along_axis(lam, top, axis=1)
    else:
        lam = np.linalg.eigvals(m[:, 0])
    return np.where(finite, lam.real.max(axis=1), np.nan)


def lyapunov_harmonics(m: np.ndarray, d: np.ndarray, big_omega: float
                       ) -> tuple[np.ndarray, list[SimulationError | None]]:
    """(v, errors) of stacked cells: the periodic CM of both drive kinds,
    whose verdict floquet_exponent gives.

    m (cells, 2N+1, 6, 6) holds the harmonics M_n, n = -N..N, of each
    drift, d (cells, 6, 6) the diffusions; a constant drive is N = 0.  v
    (cells, 2N+1, 21) holds the harmonics vech V_k, V_-k = conj V_k, of
    sum_j B_{k-j} vech V_j - i k Omega vech V_k = -vech D delta_k0: one
    real system per cell in Re V_0..V_N, Im V_1..V_N, solved in one
    LAPACK call.  At N > 0 it is filled a row of blocks at a time; at
    N = 0 it is B_0 itself and v is real.  errors[i] is None, or Singular
    with v[i] NaN: the solve or the equation keeps a residual above its
    bound, or a NaN one.  A failing cell leaves its neighbours' results
    as they would be alone.  m may hold no cell.
    """
    cells, n = len(m), m.shape[1] // 2
    if n:                       # M_n over n = -2N..2N
        m = np.pad(m, ((0, 0), (n, n), (0, 0), (0, 0)))
    ks = np.arange(-n, n + 1)
    toeplitz = m[:, ks[:, None] - ks + 2 * n]             # M_{k-j}
    b = (m.reshape(-1, 36) @ _LYAPUNOV).reshape(m.shape[:2] + (21, 21))
    if n:
        a = np.empty((cells, 21 * (2 * n + 1), 21 * (2 * n + 1)))
        blocks = a.reshape(cells, 2 * n + 1, 21, 2 * n + 1, 21)
        for k in range(n + 1):
            # B_{k-j} on V_j, B_{k+j} on V_-j = conj V_j
            c = b[:, n + k:2 * n + k + 1][:, ::-1]
            p = b[:, 2 * n + k + 1:3 * n + k + 1]
            x, y = c[:, 1:] + p, c[:, 1:] - p     # on Re V_j, on i Im V_j
            if k:
                ck = c[:, k] - 1j * big_omega * k * np.eye(21)
                x[:, k - 1], y[:, k - 1] = ck + p[:, k - 1], ck - p[:, k - 1]
            # Re of row k, and Im of row k > 0 (that of row 0 vanishes)
            for row, part in ((k, np.real), (n + k, np.imag))[:1 + (k > 0)]:
                blocks[:, row, :, 0] = part(c[:, 0])
                blocks[:, row, :, 1:n + 1] = part(x).swapaxes(1, 2)
                blocks[:, row, :, n + 1:] = part(1j * y).swapaxes(1, 2)
    else:
        a = b[:, 0]             # B_0 on V_0
    norm = np.max(np.abs(a) @ np.ones(a.shape[2]), axis=1)  # max row sum
    rhs = np.zeros(a.shape[:2] + (1,))
    rhs[:, :21, 0] = -d[:, VECH[0], VECH[1]]
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        # one exactly singular system fails the whole call: solve each
        # alone, leaving NaN (flagged below) where LAPACK refuses
        x = np.full(rhs.shape, np.nan)
        for j in range(cells):
            with contextlib.suppress(np.linalg.LinAlgError):
                x[j] = np.linalg.solve(a[j], rhs[j])
    vh = x[:, None, :21, 0]
    if n:
        pos = (x[:, 21:21 * (n + 1), 0] + 1j * x[:, 21 * (n + 1):, 0]) \
            .reshape(cells, n, 21)
        vh = np.concatenate((pos[:, ::-1].conj(), vh, pos), 1)
    vs = vh[..., UNVECH]
    cell_max = lambda z: np.max(np.abs(z), axis=tuple(range(1, z.ndim)))
    with np.errstate(invalid="ignore", over="ignore"):
        # residuals over their bounds: partial-pivoting solve, equation
        conv = np.sum(toeplitz @ vs[:, None], axis=2)      # (M * V)_k
        solve = cell_max(a @ x - rhs) / np.maximum(
            1e-300, 1e-10 * (norm * cell_max(x) + cell_max(rhs)))
        resid = conv + conv.swapaxes(2, 3)
        if n:
            resid = resid - 1j * big_omega * ks[:, None, None] * vs
        resid[:, n] += d
        equation = cell_max(resid) / (1e-10 * np.maximum(
            np.maximum(1.0, cell_max(d)), cell_max(m) * cell_max(vs)))
    good = np.isfinite(x).all(axis=(1, 2)) & (solve <= 1.0) \
        & (equation <= 1.0)
    errors: list[SimulationError | None] = [None] * cells
    for j in np.flatnonzero(~good):
        errors[j] = Singular(
            f"residuals {solve[j]:.3g} (solve) and {equation[j]:.3g} "
            "(equation) times their bounds; system numerically singular")
    return np.where(good[:, None, None], vh, np.nan), errors


def periodic_state(params: SystemParams, drive: DriveSpec, t0: float,
                   cfg: StepperConfig | None = None) -> PeriodicState:
    """Limit cycle, periodic CM and Floquet verdict at t0, as harmonics:
    the means by harmonic balance (moments.periodic_means, started from
    floquet_recurse's series), the CM by lyapunov_harmonics at each
    order tried, and the verdict by floquet_exponent at the order that
    passes; nothing is integrated.  N is the first of HB_ORDERS at which
    |A_M| / max |A_n| and |V_M| / |V_0| are within rel_tol, trying only
    orders of at least twice the drive's highest harmonic (the last order
    when none is): the products of the harmonics of <a> reach that far,
    and a lower order can pass its truncation test while it misses them.
    M = k floor(N / k), k the gcd of the drive's nonzero harmonic
    numbers: <a> and V have harmonics only at multiples of k, so |A_N|
    would read 0 whenever k does not divide N.  Raises a SimulationError
    when the cycle cannot be found: a singular denominator or CM system,
    or NoConvergence (Newton, or N)."""
    cfg = default_stepper(drive, cfg)
    series = floquet_recurse(params, drive)
    g, gr = params.g, np.sqrt(2.0) * params.g
    orders = [n for n in HB_ORDERS if n >= 2 * drive.max_harmonic]
    k = math.gcd(*(n for n, e in drive.components.items() if n and e)) or 1
    for n in orders or HB_ORDERS[-1:]:
        y = periodic_means(params, drive, n, series)
        a = np.abs(y[:, 2] + 1j * y[:, 3])
        top = n - n % k         # the outermost multiple of k within N
        truncation = max(a[n - top], a[n + top]) / (np.max(a) or 1.0)
        if truncation <= cfg.rel_tol:
            # the drift's harmonics: it is affine in (q, Re a, Im a)
            m = np.zeros((2 * n + 1, 6, 6), dtype=complex)
            m[n] = build_drift(params, 0.0, 0j)
            m[:, [2, 3, 1, 3, 1, 2], [3, 2, 2, 0, 3, 0]] += \
                np.array([-g, g, gr, gr, gr, -gr]) * y[:, [0, 0, 2, 2, 3, 3]]
            (cm,), (error,) = lyapunov_harmonics(
                m[None], build_diffusion(params)[None], drive.big_omega)
            if error is not None:
                raise error
            truncation = max(truncation, np.max(np.abs(cm[n + top]))
                             / np.max(np.abs(cm[n])))
            if truncation <= cfg.rel_tol:
                break
    else:
        raise NoConvergence(
            f"harmonic balance truncation {truncation:.3g} above rel_tol "
            f"{cfg.rel_tol:g} at N = {HB_ORDERS[-1]}")
    (exponent,) = floquet_exponent(m[None], drive.big_omega)
    mu = float(np.exp(drive.period * exponent))
    with np.errstate(over="ignore"):
        residue = float(np.power(mu, np.floor(t0 / drive.period)))
    return PeriodicState(max_multiplier=mu, transient_residue=residue,
                         usable=mu < 1.0 and residue <= cfg.rel_tol,
                         truncation=float(truncation), means=y, cm=cm,
                         big_omega=drive.big_omega)


def stability_check(subject: float | PeriodicState) -> dict:
    """The stability verdict, as stability.json holds it.

    subject is the periodic state of a modulated drive, stable when every
    Floquet multiplier lies inside the unit circle, or the margin of a
    constant drive: lyapunov_stack's max Re eig of its drift, stable when
    the drift is Hurwitz.
    """
    if isinstance(subject, PeriodicState):
        return {"stable": subject.max_multiplier < 1.0,
                "max_multiplier": subject.max_multiplier,
                "transient_residue": subject.transient_residue,
                "truncation": subject.truncation}
    margin = float(subject)
    return {"stable": margin < 0.0, "margin": margin}


def lyapunov_stack(a: np.ndarray, d: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray,
                              list[SimulationError | None]]:
    """Algebraic steady states A V + V A^T + D = 0 of stacked 6x6 cells:
    the Hurwitz test (floquet_exponent at N = 0) of every cell, then
    lyapunov_harmonics at N = 0 on the Hurwitz cells alone.

    a and d are (cells, 6, 6).  Returns (v, margin, errors): margin is
    max Re eig(A), and errors[i] is None or cell i's failure with v[i]
    NaN.  NotStable: A is not Hurwitz.  Singular: A is not finite (NaN
    margin), or as lyapunov_harmonics.
    """
    a = np.asarray(a, dtype=float)[:, None]
    margin = floquet_exponent(a, 0.0)
    hurwitz = np.flatnonzero(margin < 0.0)
    vh, found = lyapunov_harmonics(a[hurwitz],
                                   np.asarray(d, dtype=float)[hurwitz], 0.0)
    v = np.full((len(a), 6, 6), np.nan)
    v[hurwitz] = vh[:, 0, UNVECH]
    errors: list[SimulationError | None] = [None] * len(a)
    for i, error in zip(hurwitz.tolist(), found):
        errors[i] = error
    for i in np.flatnonzero(~(margin < 0.0)):
        errors[i] = (NotStable(f"drift matrix not Hurwitz (max Re eig = "
                               f"{margin[i]:g})") if margin[i] >= 0.0
                     else Singular("drift matrix is not finite"))
    return v, margin, errors


def steady_state_lyapunov(a_const: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Algebraic steady state A V + V A^T + D = 0: one cell of
    lyapunov_stack, whose error it raises."""
    v, _, (error,) = lyapunov_stack(np.asarray(a_const)[None],
                                    np.asarray(d)[None])
    if error is not None:
        raise error
    return v[0]
