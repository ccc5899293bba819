"""Physical parameter types, drive specifications and state containers.

The mechanical frequency omega_m is the unit: every rate and detuning is
in units of omega_m and time in units of 1/omega_m, so omega_m = 1 enters
no formula.  The modulation period is tau = 2*pi/Omega.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

N_MAX_DEFAULT = 8
# |gamma_a + i (delta_c + w)| below this vanishes; closer exponents coincide
DEGENERACY_BOUND = 1e-10


@dataclass(frozen=True)
class SystemParams:
    """Physical rates and detunings of the hybrid system (units of omega_m);
    a field may hold an array, one value per cell of a sweep block.  Each is
    config key params.<field> (params.G0 for g0_collective), required when
    it has no default."""

    delta_a: float          # cavity-laser detuning
    kappa: float            # cavity decay rate
    gamma_m: float          # mechanical decay rate
    g: float                # single-photon radiation-pressure coupling
    delta_c: float          # atom-laser detuning
    gamma_a: float          # atomic decay rate
    g0_collective: float = 0.0  # collective atom-cavity coupling sqrt(N)*g0
    n_th: float = 0.0       # mean thermal phonon occupation


def cell_matrices(entries, n: int) -> np.ndarray:
    """n x n matrices from n * n row-major entries that broadcast: one per
    cell where an entry holds one value per cell; one matrix, made by
    one np.array call, when every entry is a scalar."""
    if not any(isinstance(x, np.ndarray) and x.ndim for x in entries):
        return np.array(entries, dtype=float).reshape(n, n)
    shape = np.broadcast_shapes(*map(np.shape, entries))
    out = np.empty((n * n,) + shape)
    for i, x in enumerate(entries):
        out[i] = x
    return np.moveaxis(out, 0, -1).reshape(shape + (n, n))


@dataclass(frozen=True)
class DriveSpec:
    """Periodic drive E(t) = sum_n E_n exp(-i n Omega t).

    big_omega = 0 means a constant drive; only the n = 0 component may then
    be nonzero.  validate_params bounds the component map by N_MAX_DEFAULT.
    """

    big_omega: float
    components: dict[int, complex] = field(default_factory=dict)

    @property
    def period(self) -> float:
        if self.big_omega == 0.0:
            raise ValueError("constant drive has no period")
        return 2.0 * np.pi / self.big_omega

    def component(self, n: int) -> complex:
        return complex(self.components.get(n, 0.0))


@dataclass(frozen=True)
class FirstMoments:
    """Classical mean values <q>, <p>, <a>, <c> at one time instant."""

    q: float
    p: float
    a: complex
    c: complex

    def to_vector(self) -> np.ndarray:
        """Real 6-vector (q, p, Re a, Im a, Re c, Im c)."""
        return np.array([self.q, self.p, self.a.real, self.a.imag,
                         self.c.real, self.c.imag])


ZERO_MOMENTS = FirstMoments(q=0.0, p=0.0, a=0j, c=0j)


@dataclass(frozen=True)
class EngineeredCoupling:
    """Target effective coupling G(t) = G_1 + G_2 exp(-i Omega t)."""

    g1: float
    g2: float
    big_omega: float


def drive_terms(drive: DriveSpec) -> tuple[list, np.ndarray]:
    """Amplitudes E_n and exponent rates -i n Omega of the drive,
    in the order of drive.components."""
    amps = list(drive.components.values())
    rates = np.array([-1j * n * drive.big_omega for n in drive.components],
                     dtype=complex)
    return amps, rates


def drive_kernel(drive: DriveSpec):
    """Scalar-time E(t), with the harmonic terms worked out once.

    Sums E_n exp(-i n Omega t) term by term from 0 in the order of
    drive_value, each exponential by cmath.exp, so both give the same bits.
    """
    amps, rates = drive_terms(drive)
    terms = list(zip(amps, rates.tolist()))

    def kernel(t):
        acc = 0j
        for en, rate in terms:
            acc += en * cmath.exp(rate * t)
        return acc

    return kernel


def drive_value(drive: DriveSpec, t):
    """Evaluate E(t) = sum_n E_n exp(-i n Omega t); scalar or array t."""
    if drive.big_omega == 0.0:
        e0 = drive.component(0)
        if np.ndim(t) == 0:
            return e0
        return np.full(np.shape(t), e0, dtype=complex)
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for en, rate in zip(*drive_terms(drive)):
        out += en * np.exp(rate * t)
    if out.ndim == 0:
        return complex(out)
    return out


def validate_params(params: SystemParams,
                    drive: DriveSpec | None = None) -> list[str]:
    """Collect invariant violations; an empty list means a usable setup."""
    report = []
    if params.kappa <= 0:
        report.append("kappa must be positive")
    if params.gamma_m <= 0:
        report.append("gamma_m must be positive")
    if params.gamma_a < 0:
        report.append("gamma_a must be nonnegative")
    if params.n_th < 0:
        report.append("n_th must be nonnegative")
    if params.g < 0:
        report.append("g must be nonnegative")
    if params.g0_collective < 0:
        report.append("G0 must be nonnegative")
    if drive is not None:
        if drive.big_omega < 0:
            report.append("modulation frequency must be nonnegative")
        if drive.big_omega == 0.0:
            bad = [n for n, en in drive.components.items()
                   if n != 0 and en != 0]
            if bad:
                report.append(
                    "constant drive (Omega = 0) admits only the n = 0 "
                    f"component, got nonzero n = {sorted(bad)}")
        out_of_range = [n for n in drive.components if abs(n) > N_MAX_DEFAULT]
        if out_of_range:
            report.append(
                f"drive components outside |n| <= {N_MAX_DEFAULT}: "
                f"{sorted(out_of_range)}")
    return report
