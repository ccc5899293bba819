"""Classical first-moment dynamics.

Two independent routes to the asymptotic mean values:

* direct adaptive integration of the nonlinear mean-value ODEs, and
* the Floquet double expansion in powers of the radiation-pressure
  coupling and in drive harmonics,

which cross-validate each other on every canonical configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularDenominator
from .model import (DriveSpec, FirstMoments, SystemParams, ZERO_MOMENTS,
                    drive_kernel)
from .numerics import StepperConfig, integrate_adaptive

DEFAULT_J_MAX = 6
DEFAULT_N_MAX = 5


def _rhs_vector(params: SystemParams, drive: DriveSpec):
    """Real-vector RHS over (q, p, Re a, Im a, Re c, Im c)."""
    om = params.omega_m
    gm = params.gamma_m
    g = params.g
    kap = params.kappa
    da0 = params.delta_a
    ga = params.gamma_a
    dc0 = params.delta_c
    g0 = params.g0_collective
    drive_at = drive_kernel(drive)

    def f(t, y):
        q, p, ar, ai, cr, ci = y
        e = drive_at(t)
        det = da0 - g * q
        dar = -kap * ar + det * ai + g0 * ci + e.real
        dai = -kap * ai - det * ar - g0 * cr + e.imag
        dcr = -ga * cr + dc0 * ci + g0 * ai
        dci = -ga * ci - dc0 * cr - g0 * ar
        return (om * p,
                -om * q - gm * p + g * (ar * ar + ai * ai),
                dar, dai, dcr, dci)

    return f


@dataclass
class MomentTrajectory:
    """Sampled first-moment trajectory."""

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    a: np.ndarray
    c: np.ndarray

    @staticmethod
    def from_states(t: np.ndarray, y: np.ndarray) -> "MomentTrajectory":
        """Rows y = (q, p, Re a, Im a, Re c, Im c) sampled at t."""
        return MomentTrajectory(t=t, q=y[0], p=y[1], a=y[2] + 1j * y[3],
                                c=y[4] + 1j * y[5])


def default_stepper(drive: DriveSpec | None = None,
                    base: StepperConfig | None = None) -> StepperConfig:
    """Resolve the max-step cap: tau/50 when modulated, else 0.1/omega_m."""
    base = base or StepperConfig()
    if np.isfinite(base.max_step):
        return base
    if drive is not None and drive.big_omega > 0:
        cap = drive.period / 50.0
    else:
        cap = 0.1
    return StepperConfig(rel_tol=base.rel_tol, abs_tol=base.abs_tol,
                         max_step=cap, overflow_guard=base.overflow_guard)


def integrate_first_moments(params: SystemParams, drive: DriveSpec,
                            init: FirstMoments = ZERO_MOMENTS,
                            t_end: float = 0.0,
                            t_eval: np.ndarray | None = None,
                            cfg: StepperConfig | None = None
                            ) -> MomentTrajectory:
    """Adaptive solution of the mean-value ODEs on [0, t_end]."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    cfg = default_stepper(drive, cfg)
    sol = integrate_adaptive(_rhs_vector(params, drive), (0.0, t_end),
                             init.to_vector(), cfg, t_eval=t_eval)
    return MomentTrajectory.from_states(sol.t, sol.y)


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


def _linear_denominator(params: SystemParams, big_omega: float,
                        n: int) -> complex:
    d = ((1j * (n * big_omega + params.delta_a) + params.kappa)
         * (1j * (n * big_omega + params.delta_c) + params.gamma_a)
         + params.g0_collective ** 2)
    if abs(d) < 1e-12:
        raise SingularDenominator(
            f"cavity-atom denominator vanishes at harmonic n = {n} "
            "(parametric resonance of the linear system)")
    return d


def _mechanical_denominator(params: SystemParams, big_omega: float,
                            n: int) -> complex:
    d = (params.omega_m ** 2 - (n * big_omega) ** 2
         + 1j * params.gamma_m * n * big_omega)
    if abs(d) < 1e-12:
        raise SingularDenominator(
            f"mechanical denominator vanishes at harmonic n = {n} "
            "(n*Omega resonant with omega_m at negligible damping)")
    return d


def floquet_zero_order(params: SystemParams, drive: DriveSpec,
                       n_max: int = DEFAULT_N_MAX) -> FloquetSolution:
    """Zeroth order in g: mechanics at rest, cavity and atoms driven."""
    if drive.big_omega <= 0:
        raise ValueError("Floquet expansion needs a modulated drive")
    shape = (2 * n_max + 1, 1)
    q = np.zeros(shape, dtype=complex)
    p = np.zeros(shape, dtype=complex)
    a = np.zeros(shape, dtype=complex)
    c = np.zeros(shape, dtype=complex)
    for n in range(-n_max, n_max + 1):
        d = _linear_denominator(params, drive.big_omega, n)
        e = drive.component(-n)
        num_a = (1j * (n * drive.big_omega + params.delta_c)
                 + params.gamma_a)
        a[n + n_max, 0] = num_a * e / d
        c[n + n_max, 0] = params.g0_collective * e / (1j * d)
    return FloquetSolution(q=q, p=p, a=a, c=c, n_max=n_max, j_max=0,
                           big_omega=drive.big_omega)


def floquet_recurse(params: SystemParams, drive: DriveSpec,
                    j_max: int = DEFAULT_J_MAX,
                    n_max: int = DEFAULT_N_MAX) -> FloquetSolution:
    """Fill all orders j <= j_max of the double expansion by recursion.

    Inner convolution sums are truncated so every harmonic index stays
    within |.| <= n_max.
    """
    if j_max < 0 or n_max < 1:
        raise ValueError("need j_max >= 0 and n_max >= 1")
    base = floquet_zero_order(params, drive, n_max)
    shape = (2 * n_max + 1, j_max + 1)
    q = np.zeros(shape, dtype=complex)
    p = np.zeros(shape, dtype=complex)
    a = np.zeros(shape, dtype=complex)
    c = np.zeros(shape, dtype=complex)
    a[:, 0] = base.a[:, 0]
    c[:, 0] = base.c[:, 0]

    om = params.omega_m
    big = drive.big_omega
    ns = range(-n_max, n_max + 1)
    for j in range(1, j_max + 1):
        # q_{n,j} from the radiation-pressure convolution |<a>|^2
        for n in ns:
            dq = _mechanical_denominator(params, big, n)
            acc = 0j
            for k in range(j):
                for m in ns:
                    if abs(n + m) > n_max:
                        continue
                    acc += np.conj(a[m + n_max, k]) * a[n + m + n_max,
                                                        j - 1 - k]
            q[n + n_max, j] = om * acc / dq
            p[n + n_max, j] = (1j * n * big / om) * q[n + n_max, j]
        # a_{n,j}, c_{n,j} from the <a><q> convolution
        for n in ns:
            d = _linear_denominator(params, big, n)
            acc = 0j
            for k in range(j):
                for m in ns:
                    if abs(n - m) > n_max:
                        continue
                    acc += a[m + n_max, k] * q[n - m + n_max, j - 1 - k]
            num_a = 1j * (params.gamma_a
                          + 1j * (params.delta_c + n * big))
            a[n + n_max, j] = num_a * acc / d
            c[n + n_max, j] = params.g0_collective * acc / d
    return FloquetSolution(q=q, p=p, a=a, c=c, n_max=n_max, j_max=j_max,
                           big_omega=big)


def evaluate_floquet(sol: FloquetSolution, g: float, t: float
                     ) -> FirstMoments:
    """Evaluate the double expansion at a single time instant."""
    vals = sol.evaluate(g, t)
    return FirstMoments(q=float(vals["q"][0]), p=float(vals["p"][0]),
                        a=complex(vals["a"][0]), c=complex(vals["c"][0]))


def floquet_mean_source(sol: FloquetSolution, g: float):
    """Callable t -> (q_mean, a_mean) backed by the Floquet series."""

    def source(t):
        vals = sol.evaluate(g, t)
        return float(vals["q"][0]), complex(vals["a"][0])

    return source


# ---------------------------------------------------------------------------
# Derived couplings and the constant-drive working point
# ---------------------------------------------------------------------------

def effective_coupling(g: float, a_mean: complex) -> complex:
    """Linearized optomechanical coupling G(t) = sqrt(2) g <a(t)>."""
    return np.sqrt(2.0) * g * a_mean


def effective_detuning(params: SystemParams, q_mean: float) -> float:
    """Effective cavity detuning Delta_a(t) = delta_a - g <q(t)>."""
    return params.delta_a - params.g * q_mean


def _constant_cavity_amplitude(params: SystemParams, e0: complex,
                               delta_a_eff: float) -> complex:
    denom = (params.kappa + 1j * delta_a_eff
             + params.g0_collective ** 2
             / (params.gamma_a + 1j * params.delta_c))
    return e0 / denom


def steady_state_constant(params: SystemParams, e0: complex,
                          delta_a_eff: float | None = None
                          ) -> tuple[FirstMoments, SystemParams]:
    """Fixed point of the mean-value ODEs for a constant drive E_0.

    When delta_a_eff is given, the working-point detuning is prescribed
    and delta_a is back-computed; the returned params carry that delta_a.
    Otherwise n = |<a>|^2 solves the stationary cubic
    n [(Re K)^2 + (Im K + delta_a - g^2 n / omega_m)^2] = |E_0|^2, with
    K = kappa + G0^2 / (gamma_a + i delta_c), and the lowest real root,
    the branch reached from q = 0, is the working point.
    """
    if delta_a_eff is not None:
        a = _constant_cavity_amplitude(params, e0, delta_a_eff)
        q = params.g * abs(a) ** 2 / params.omega_m
        c = (-1j * params.g0_collective * a
             / (params.gamma_a + 1j * params.delta_c))
        eff = SystemParams(delta_a=delta_a_eff + params.g * q,
                           kappa=params.kappa, gamma_m=params.gamma_m,
                           g=params.g, delta_c=params.delta_c,
                           gamma_a=params.gamma_a,
                           g0_collective=params.g0_collective,
                           n_th=params.n_th, omega_m=params.omega_m)
        return FirstMoments(q=q, p=0.0, a=a, c=c), eff

    k = params.kappa + params.g0_collective ** 2 / (params.gamma_a
                                                    + 1j * params.delta_c)
    u = params.g ** 2 / params.omega_m
    b = k.imag + params.delta_a
    roots = np.roots([u * u, -2.0 * b * u, k.real ** 2 + b * b,
                      -abs(e0) ** 2])
    # next to a fold the two merging roots come back as a pair split off
    # the real axis by rounding, O(sqrt(eps)) of their size
    n = float(np.min(roots.real[np.abs(roots.imag)
                                <= 1e-6 * np.abs(roots)]))
    q = params.g * n / params.omega_m
    a = _constant_cavity_amplitude(params, e0,
                                   params.delta_a - params.g * q)
    c = (-1j * params.g0_collective * a
         / (params.gamma_a + 1j * params.delta_c))
    return FirstMoments(q=q, p=0.0, a=a, c=c), params
