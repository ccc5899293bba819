"""Drive engineering for a target effective coupling G(t) = G1 + G2 e^{-i Omega t}.

Given the target, the cavity mean follows directly; momentum and atomic
means come from a Laplace-transform solution as sums of exponentials.
Long-time asymptotes and the four-component truncated drive are provided
alongside the exact transient forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DegenerateExponents, SingularDenominator
from .model import DriveSpec, EngineeredCoupling, FirstMoments, SystemParams

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class LaplaceCoefficients:
    """Exponents s_i and amplitudes k_i of the transient solution.

    <p(t)> = sum_{i=1..4} k_i e^{s_i t};  <c(t)> = sum_{i=5..7} k_i e^{s_i t}.
    """

    s: tuple[complex, ...]   # s1..s7
    k: tuple[complex, ...]   # k1..k7


def _check_target(params: SystemParams, target: EngineeredCoupling):
    om = target.big_omega
    if om == 0.0:
        raise SingularDenominator("engineered drive requires Omega > 0")
    if abs(om ** 2 - params.omega_m ** 2) < 1e-9:
        raise SingularDenominator(
            "Omega coincides with omega_m; the long-time denominators "
            "Omega^2 - omega_m^2 vanish")
    for name, shift in (("delta_c", 0.0), ("delta_c - Omega", om)):
        if abs(params.gamma_a + 1j * (params.delta_c - shift)) < 1e-12:
            raise SingularDenominator(
                f"atomic denominator gamma_a + i ({name}) vanishes")


def _residues(kind: str, num, den, poles: tuple) -> list:
    """Partial-fraction amplitudes num(s_i) / (den prod_{j != i}
    (s_i - s_j)) of num(s) / (den prod_j (s - s_j)), one per pole s_i;
    poles closer than 1e-10 raise DegenerateExponents, named by kind."""
    for x, y in combinations(poles, 2):
        if abs(x - y) < 1e-10:
            raise DegenerateExponents(
                f"{kind} exponents degenerate; partial fractions invalid")
    amps = []
    for i, si in enumerate(poles):
        d = den
        for j, so in enumerate(poles):
            if j != i:
                d *= si - so
        amps.append(num(si) / d)
    return amps


def laplace_coefficients(params: SystemParams, target: EngineeredCoupling
                         ) -> LaplaceCoefficients:
    _check_target(params, target)
    gm = params.gamma_m
    om = params.omega_m
    big = target.big_omega
    g = params.g
    g0 = params.g0_collective
    g1, g2 = target.g1, target.g2

    root = np.sqrt(complex(gm ** 2 - 4.0 * om ** 2))
    s1 = (-gm + root) / 2.0
    s2 = (-gm - root) / 2.0
    s3 = -1j * big
    s4 = 1j * big
    s5 = 0.0 + 0j
    s6 = s3
    s7 = -(params.gamma_a + 1j * params.delta_c)

    k_mech = _residues(
        "mechanical",
        lambda s: (g1 + g2) ** 2 * s ** 2 + (g1 ** 2 + g2 ** 2) * big ** 2,
        2.0 * g, (s1, s2, s3, s4))
    k_atom = _residues(
        "atomic", lambda s: -1j * g0 * (g1 + g2) * s + g0 * g1 * big,
        SQRT2 * g, (s5, s6, s7))
    return LaplaceCoefficients(s=(s1, s2, s3, s4, s5, s6, s7),
                               k=(*k_mech, *k_atom))


def _transient_kernel(params: SystemParams, target: EngineeredCoupling,
                      lc: LaplaceCoefficients):
    """t -> (<q>, <p>, <a>) from the mechanical exponentials, elementwise
    over an array t.

    <q> is reconstructed from the momentum equation with <pdot> evaluated
    by term-by-term differentiation of the exponential sum (never by
    finite differences).  One exp gives the four exponentials and the
    cavity phase e^{-i Omega t}; the sums run term by term from 0.
    """
    rates = np.array([*lc.s[:4], -1j * target.big_omega])
    terms = [(complex(s), complex(k)) for s, k in zip(lc.s[:4], lc.k[:4])]
    g1, g2 = target.g1, target.g2
    gm, g, om = params.gamma_m, params.g, params.omega_m
    root2_g = float(SQRT2 * g)

    def kernel(t):
        *exps, phase = np.moveaxis(np.exp(np.multiply.outer(t, rates)), -1,
                                   0)
        p = pdot = 0j
        for (s, k), e in zip(terms, exps):
            term = k * e
            p += term
            pdot += s * term
        a = (g1 + g2 * phase) / root2_g
        q = (-pdot - gm * p + g * abs(a) ** 2) / om
        return q.real, p.real, a

    return kernel


def transient_first_moments(params: SystemParams,
                            target: EngineeredCoupling, t: float,
                            lc: LaplaceCoefficients | None = None
                            ) -> FirstMoments:
    """Exact pre-asymptotic mean values at time t."""
    lc = lc or laplace_coefficients(params, target)
    q, p, a = _transient_kernel(params, target, lc)(t)
    c = np.sum(np.asarray(lc.k[4:]) * np.exp(np.asarray(lc.s[4:]) * t))
    return FirstMoments(q=float(q), p=float(p), a=complex(a), c=complex(c))


def engineered_mean_source(params: SystemParams,
                           target: EngineeredCoupling,
                           lc: LaplaceCoefficients | None = None):
    """Callable t -> (<q>, <a>) of transient_first_moments, elementwise
    over an array t, for drift assembly; the kernel is built once and <c>
    is not evaluated."""
    kernel = _transient_kernel(params, target,
                               lc or laplace_coefficients(params, target))

    def source(t):
        q, _, a = kernel(t)
        return q, a

    return source


def asymptotic_first_moments(params: SystemParams,
                             target: EngineeredCoupling, t: float
                             ) -> FirstMoments:
    """Long-time closed forms after the damped exponentials die out."""
    _check_target(params, target)
    g = params.g
    om = params.omega_m
    big = target.big_omega
    g0 = params.g0_collective
    g1, g2 = target.g1, target.g2
    dd = big ** 2 - om ** 2

    ph = np.exp(-1j * big * t)
    a = (g1 + g2 * ph) / (SQRT2 * g)
    p = (1j * g1 * g2 * big / (2.0 * g * dd)) * (ph - np.conj(ph))
    q = ((g1 ** 2 + g2 ** 2) / (2.0 * g * om)
         - (g1 * g2 * om / (2.0 * g * dd)) * (ph + np.conj(ph)))
    c = (-1j * g0 * g1 / (SQRT2 * g * (params.gamma_a
                                       + 1j * params.delta_c))
         + g0 * g2 * ph / (SQRT2 * 1j * g
                           * (params.gamma_a
                              + 1j * (params.delta_c - big))))
    return FirstMoments(q=q.real, p=p.real, a=complex(a), c=complex(c))


def modulation_components(params: SystemParams,
                          target: EngineeredCoupling) -> DriveSpec:
    """Truncated four-component drive realizing the target coupling."""
    _check_target(params, target)
    g = params.g
    om = params.omega_m
    big = target.big_omega
    g0 = params.g0_collective
    g1, g2 = target.g1, target.g2
    dd = big ** 2 - om ** 2
    kap = params.kappa
    da = params.delta_a
    ga = params.gamma_a
    dc = params.delta_c

    e2 = 1j * g1 * g2 ** 2 * om / (2.0 * SQRT2 * g * dd)
    em1 = 1j * g1 ** 2 * g2 * om / (2.0 * SQRT2 * g * dd)
    e1 = (g2 / (SQRT2 * g) * (kap + 1j * (da - big))
          - 1j * g2 / (2.0 * SQRT2 * g * om)
          * (2.0 * g1 ** 2 + g2 ** 2 - g1 ** 2 * big ** 2 / dd)
          + g0 ** 2 * g2 / (SQRT2 * g * (ga + 1j * (dc - big))))
    e0 = (g1 / (SQRT2 * g) * (kap + 1j * da)
          - 1j * g1 / (2.0 * SQRT2 * g * om)
          * (g1 ** 2 + 2.0 * g2 ** 2 - g2 ** 2 * big ** 2 / dd)
          + g0 ** 2 * g1 / (SQRT2 * g * (ga + 1j * dc)))
    return DriveSpec(big_omega=big,
                     components={2: e2, 1: e1, 0: e0, -1: em1})

