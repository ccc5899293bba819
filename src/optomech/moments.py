"""Classical first-moment dynamics.

Three routes to the asymptotic mean values:

* direct adaptive integration of the nonlinear mean-value ODEs from
  rest at t = 0 (integrate_first_moments),
* the Floquet double expansion in powers of the radiation-pressure
  coupling and in drive harmonics, and
* harmonic balance (periodic_means), the limit cycle's harmonics solved
  for directly, of which the expansion is the series in powers of g;

the first two cross-validate each other on every canonical configuration.

floquet_recurse builds the coefficients O_{n,j} (harmonic n, power g^j)
order by order, order 0 (j_max = 0) being the drive's linear response,
with every product of harmonics truncated to |n| <= n_max.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NoConvergence, SingularDenominator
from .model import (DEGENERACY_BOUND, DriveSpec, FirstMoments, SystemParams,
                    cell_matrices, drive_kernel)
from .numerics import StepperConfig, checked_t_eval, integrate_adaptive

DEFAULT_J_MAX = 6
DEFAULT_N_MAX = 5
HB_NEWTON_MAX = 40      # Newton steps of periodic_means from one start
STEPS_PER_PERIOD = 50   # a modulated drive's max_step is tau / this


def _rhs_vector(params: SystemParams, drive: DriveSpec):
    """Real-vector RHS over (q, p, Re a, Im a, Re c, Im c)."""
    gm = params.gamma_m
    g = params.g
    kap = params.kappa
    da0 = params.delta_a
    ga = params.gamma_a
    dc0 = params.delta_c
    g0 = params.g0_collective
    drive_at = drive_kernel(drive)

    def f(t, y):
        q, p, ar, ai, cr, ci = y.tolist()      # Python floats: faster ops
        e = drive_at(t)
        det = da0 - g * q
        dar = -kap * ar + det * ai + g0 * ci + e.real
        dai = -kap * ai - det * ar - g0 * cr + e.imag
        dcr = -ga * cr + dc0 * ci + g0 * ai
        dci = -ga * ci - dc0 * cr - g0 * ar
        return (p,
                -q - gm * p + g * (ar * ar + ai * ai),
                dar, dai, dcr, dci)

    return f


def default_stepper(drive: DriveSpec | None = None,
                    base: StepperConfig | None = None) -> StepperConfig:
    """Resolve the max-step cap: tau / STEPS_PER_PERIOD when modulated,
    else 0.1."""
    base = base or StepperConfig()
    if np.isfinite(base.max_step):
        return base
    if drive is not None and drive.big_omega > 0:
        cap = drive.period / STEPS_PER_PERIOD
    else:
        cap = 0.1
    return StepperConfig(rel_tol=base.rel_tol, abs_tol=base.abs_tol,
                         max_step=cap, overflow_guard=base.overflow_guard)


def integrate_first_moments(params: SystemParams, drive: DriveSpec,
                            t_eval, cfg: StepperConfig | None = None
                            ) -> FirstMoments:
    """The mean-value ODEs stepped from rest at t = 0 to t_eval[-1]: the
    means at t_eval, one value per sample (the rest state at t_eval =
    [0])."""
    t_eval = checked_t_eval(t_eval)
    if t_eval[-1] == 0.0:
        return FirstMoments.from_vector(np.zeros((6, 1)))
    sol = integrate_adaptive(_rhs_vector(params, drive), (0.0, t_eval[-1]),
                             np.zeros(6), default_stepper(drive, cfg),
                             t_eval=t_eval)
    return FirstMoments.from_vector(sol.y)


# ---------------------------------------------------------------------------
# Floquet double expansion
# ---------------------------------------------------------------------------

@dataclass
class FloquetSolution:
    """Coefficients O_{n,j} of the double expansion, per observable.

    Each array has shape (2*n_max + 1, j_max + 1), harmonic index n stored
    at row n + n_max.  The evaluated series is tau-periodic by construction.
    """

    q: np.ndarray
    p: np.ndarray
    a: np.ndarray
    c: np.ndarray
    n_max: int
    j_max: int
    big_omega: float

    def evaluate(self, g: float, t) -> dict[str, np.ndarray]:
        """Series values at time(s) t; q and p are real by symmetry."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        n = np.arange(-self.n_max, self.n_max + 1)
        phases = np.exp(1j * np.outer(t, n) * self.big_omega)   # (T, N)
        powers = g ** np.arange(self.j_max + 1)                 # (J,)
        out = {}
        for obs in ("q", "p", "a", "c"):
            coeff = getattr(self, obs) @ powers                 # (N,)
            out[obs] = phases @ coeff                           # (T,)
        out["q"] = out["q"].real
        out["p"] = out["p"].real
        return out


def _denominators(params: SystemParams, big_omega: float, n_max: int,
                  mechanical: bool):
    """(cavity-atom, mechanical, n*Omega) arrays over n = -n_max..n_max.

    Raises SingularDenominator at the first harmonic where a cavity-atom
    denominator vanishes, then, when mechanical is true, at the first
    where a mechanical one does.
    """
    ns = np.arange(-n_max, n_max + 1)
    w = ns * big_omega
    lin = ((1j * (w + params.delta_a) + params.kappa)
           * (1j * (w + params.delta_c) + params.gamma_a)
           + params.g0_collective ** 2)
    mech = 1.0 - w ** 2 + 1j * params.gamma_m * w
    small = np.abs(lin) < 1e-12
    if small.any():
        raise SingularDenominator(
            "cavity-atom denominator vanishes at harmonic n = "
            f"{ns[small][0]} (parametric resonance of the linear system)")
    small = np.abs(mech) < 1e-12
    if mechanical and small.any():
        raise SingularDenominator(
            "mechanical denominator vanishes at harmonic n = "
            f"{ns[small][0]} (n*Omega resonant with omega_m at negligible "
            "damping)")
    return lin, mech, w


def floquet_recurse(params: SystemParams, drive: DriveSpec,
                    j_max: int = DEFAULT_J_MAX,
                    n_max: int | None = None) -> FloquetSolution:
    """All orders j <= j_max of the double expansion; j_max = 0 is the
    zeroth order, mechanics at rest with cavity and atoms driven.

    Order j >= 1 sums, over k < j, the convolution |<a>|^2 of orders
    j-1-k and k, which drives q, and <a>_k <q>_{j-1-k}, which drives a
    and c.  Each is truncated to harmonics |n| <= n_max: terms whose
    harmonic indices leave that range are dropped.  n_max defaults to
    the larger of DEFAULT_N_MAX and the drive's highest harmonic, so
    that no drive component is dropped.
    """
    if n_max is None:
        n_max = max(DEFAULT_N_MAX, drive.max_harmonic)
    if j_max < 0 or n_max < 1:
        raise ValueError("need j_max >= 0 and n_max >= 1")
    if drive.big_omega <= 0:
        raise ValueError("Floquet expansion needs a modulated drive")
    lin, mech, w = _denominators(params, drive.big_omega, n_max, j_max >= 1)
    keep = slice(n_max, 3 * n_max + 1)   # |n| <= n_max of a full convolution
    shape = (2 * n_max + 1, j_max + 1)
    q = np.zeros(shape, dtype=complex)
    a = np.zeros(shape, dtype=complex)
    c = np.zeros(shape, dtype=complex)
    num_a = 1j * (w + params.delta_c) + params.gamma_a
    # the source of a and c: the drive E_{-n} at order 0, then i<a><q>
    src = np.array([drive.component(-n) for n in range(-n_max, n_max + 1)])
    for j in range(j_max + 1):
        if j:
            q[:, j] = sum(np.correlate(a[:, j - 1 - k], a[:, k],
                                       "full")[keep] for k in range(j)) / mech
            src = 1j * sum(np.convolve(a[:, k], q[:, j - 1 - k], "full")[keep]
                           for k in range(j))
        a[:, j] = num_a * src / lin
        c[:, j] = params.g0_collective * src / (1j * lin)
    p = (1j * w)[:, np.newaxis] * q
    return FloquetSolution(q=q, p=p, a=a, c=c, n_max=n_max, j_max=j_max,
                           big_omega=drive.big_omega)


def periodic_means(params: SystemParams, drive: DriveSpec, n_max: int,
                   series: FloquetSolution) -> np.ndarray:
    """Harmonics Y_n, n = -n_max..n_max, of the limit cycle's means
    y(t) = sum_n Y_n exp(i n Omega t) = (q, p, Re a, Im a, Re c, Im c).

    Harmonic balance: Newton's method, with the exact real Jacobian and
    step halving, on L_n A_n - i g (Q * A)_n = E_{-n} for the harmonics
    A_n of <a>, Q_n = g (A ⋆ A)_n / mech_n, in floquet_recurse's
    denominators and truncated products.  It starts from the series,
    then from the linear response E_{-n} / L_n; NoConvergence when
    neither converges within HB_NEWTON_MAX steps.  SingularDenominator
    at the first harmonic where gamma_a + i (delta_c + n Omega) vanishes.
    """
    lin, mech, w = _denominators(params, drive.big_omega, n_max, True)
    num_a = 1j * (w + params.delta_c) + params.gamma_a
    small = np.abs(num_a) < DEGENERACY_BOUND
    if small.any():
        raise SingularDenominator(
            "atomic denominator gamma_a + i (delta_c + n Omega) vanishes at "
            f"harmonic n = {np.flatnonzero(small)[0] - n_max}")
    big_l, ig = lin / num_a, 1j * params.g
    cq = params.g / mech
    e = np.array([drive.component(-n) for n in range(-n_max, n_max + 1)])
    ns = np.arange(2 * n_max + 1)
    toeplitz, hankel = ns[:, None] - ns + 2 * n_max, ns[:, None] + ns

    def parts(a):       # T(A)_{nk} = A_{n-k}, A_{n+k}, T(Q), the residual
        toe_q = np.pad(cq * (np.pad(a, n_max)[hankel] @ a.conj()),
                       n_max)[toeplitz]
        return (np.pad(a, n_max)[toeplitz], np.pad(a, n_max)[hankel], toe_q,
                big_l * a - ig * toe_q @ a - e)

    real_parts = lambda x: ((x + x[::-1].conj()) / 2,
                            (x - x[::-1].conj()) / 2j)
    series_start = np.pad(series.a @ params.g ** np.arange(series.j_max + 1),
                          n_max)[series.n_max:series.n_max + 2 * n_max + 1]
    for a in (series_start, e / big_l):
        for _ in range(HB_NEWTON_MAX):
            toe_a, hank, toe_q, r = parts(a)
            j1 = np.diag(big_l) - ig * (toe_q + toe_a @ (cq[:, None]
                                                         * toe_a.conj().T))
            j2 = -ig * toe_a @ (cq[:, None] * hank)
            try:
                step = np.linalg.solve(
                    np.block([[(j1 + j2).real, (j2 - j1).imag],
                              [(j1 + j2).imag, (j1 - j2).real]]),
                    -np.concatenate((r.real, r.imag)))
            except np.linalg.LinAlgError:
                break
            step = step[:len(a)] + 1j * step[len(a):]
            if np.max(np.abs(step)) <= 1e-12 * np.max(np.abs(a)):
                a = a + step
                q = parts(a)[2][:, n_max]
                return np.column_stack((
                    q, 1j * w * q, *real_parts(a),
                    *real_parts(-1j * params.g0_collective * a / num_a)))
            for _ in range(30):         # halve until the residual drops
                if np.linalg.norm(parts(a + step)[3]) < np.linalg.norm(r):
                    break
                step = step / 2
            a = a + step
    raise NoConvergence(f"harmonic balance at N = {n_max} did not converge "
                        f"in {HB_NEWTON_MAX} Newton steps from either start")


# ---------------------------------------------------------------------------
# The constant-drive working point
# ---------------------------------------------------------------------------

@np.errstate(all="ignore")      # what is not finite reads NaN below
def steady_state_constant(params: SystemParams, e0: complex,
                          delta_a_eff: float | None = None
                          ) -> tuple[FirstMoments, SystemParams]:
    """Fixed point of the mean-value ODEs for a constant drive E_0, one
    per cell where params' fields or e0 hold one value per cell.

    When delta_a_eff is given, the working-point detuning is prescribed
    and delta_a is back-computed; the returned params carry that delta_a.
    Otherwise x = g <q> solves the stationary cubic, monic in x, so its
    companion matrix needs no division, not even at g = 0:
    x [(Re K)^2 + (b - x)^2] = g^2 |E_0|^2, b = Im K + delta_a,
    K = kappa + G0^2 / (gamma_a + i delta_c).  The lowest real root, the
    branch reached from q = 0, is the working point; NaN, with no raise
    or warning, where it or its companion is not finite, or none exists.
    """
    # NumPy's arithmetic in one cell too, for the bits of that cell in a
    # block: CPython's complex division and ** round differently
    atom = np.asarray(params.gamma_a + 1j * params.delta_c)
    k = params.kappa + np.square(params.g0_collective) / atom
    if delta_a_eff is None:
        b = k.imag + params.delta_a
        m = cell_matrices([
            2.0 * b, -np.square(k.real) - b * b,
            np.square(params.g * np.abs(e0)),
            1.0, 0.0, 0.0,
            0.0, 1.0, 0.0], 3)
        finite = np.isfinite(m).all(axis=(-2, -1))
        roots = np.linalg.eigvals(np.where(finite[..., None, None], m, 0.0))
        # next to a fold the two merging roots come back as a pair split
        # off the real axis by rounding, O(sqrt(eps)) of their size
        x = np.min(np.where(np.abs(roots.imag) <= 1e-6 * np.abs(roots),
                            roots.real, np.inf), axis=-1)
        a = e0 / (k + 1j * (params.delta_a - np.where(finite, x, np.nan)))
    else:
        a = e0 / (k + 1j * delta_a_eff)
    q = params.g * np.square(np.abs(a))
    c = -1j * params.g0_collective * a / atom
    finite = np.isfinite(q) & np.isfinite(c)    # a is where q is
    q, a, c = (np.where(finite, y, np.nan)[()] for y in (q, a, c))
    if delta_a_eff is not None:
        params = replace(params, delta_a=delta_a_eff + params.g * q)
    return FirstMoments(q=q, p=0.0, a=a, c=c), params
