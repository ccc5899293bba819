"""Gaussian-state diagnostics on 6x6 and reduced covariance matrices.

Conventions: quadrature ordering (dq, dp, dX, dY, dx, dy), vacuum
variance 1/2, entanglement threshold eta^- < 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPhysical


def symplectic_eigenvalues(v: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a 2N x 2N covariance matrix (ascending).

    A stack (..., 2N, 2N) gives one spectrum per matrix, from one
    eigenvalue call; each equals the spectrum of that matrix alone.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[-1] // 2
    omega = np.zeros(v.shape[-2:])
    for i in range(n):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    eig = np.linalg.eigvals(omega @ v)
    nu = np.sort(np.abs(eig.imag), axis=-1)
    return nu[..., ::2]     # eigenvalues come in +/- i nu pairs


# mechanical (q, p) and atomic (x, y) rows of the 6x6 CM
_ATOM_MIRROR = np.array([0, 1, 4, 5])


def reduce_atom_mirror_stack(vs: np.ndarray) -> np.ndarray:
    """The 4x4 atom-mirror CMs, over (q, p, x, y), of a (n, 6, 6) stack."""
    return np.asarray(vs, dtype=float)[:, _ATOM_MIRROR[:, None],
                                       _ATOM_MIRROR]


def log_negativity_stack(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logarithmic negativities of a (n, 4, 4) stack of two-mode CMs.

    Returns (en, physical).  A CM is not physical, and its en is NaN, when
    the discriminant of the partially transposed symplectic spectrum is
    below -1e-12, its smaller eigenvalue collapses to zero, or an entry
    is not finite.
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        sigma = (np.linalg.det(r[:, :2, :2]) + np.linalg.det(r[:, 2:, 2:])
                 - 2.0 * np.linalg.det(r[:, :2, 2:]))
        # C pow(), not the array square x*x: 1 ulp apart on ~0.1% of
        # inputs, and pow() keeps EN the bits a 0-d computation gives
        disc = np.float_power(sigma, 2) - 4.0 * np.linalg.det(r)
        inner = 0.5 * (sigma - np.sqrt(np.maximum(disc, 0.0)))
        en = -np.log(2.0 * np.sqrt(inner))
    physical = (disc >= -1e-12) & (inner > 0.0)
    return np.where(physical, np.where(en > 0.0, en, 0.0), np.nan), physical


def log_negativity(r: np.ndarray) -> float:
    """Logarithmic negativity of one two-mode Gaussian state, whose 4x4
    CM r is one row of reduce_atom_mirror_stack: one CM of
    log_negativity_stack; raises NonPhysical where that flags it."""
    en, physical = log_negativity_stack(np.asarray(r)[np.newaxis])
    if not physical[0]:
        raise NonPhysical("reduced CM is not a valid two-mode covariance "
                          "matrix")
    return float(en[0])


def squeezing_parameter(mech_cm: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda, r_raw, r_db) of the mechanical 2x2 block, one each per
    block of a (..., 2, 2) stack.

    lambda is the smaller CM eigenvalue by the closed form
    m - sqrt(m^2 - det).  r_raw = -10 log10(lambda) as printed in the
    source convention; r_db = -10 log10(2 lambda) is normalized so the
    vacuum reads 0 dB.  NonPhysical at the first block whose det or
    lambda is not positive.
    """
    mech_cm = np.asarray(mech_cm, dtype=float)
    det = np.linalg.det(mech_cm)
    m = 0.5 * np.trace(mech_cm, axis1=-2, axis2=-1)
    lam = m - np.sqrt(np.maximum(m * m - det, 0.0))
    bad = np.ravel((det <= 0.0) | (lam <= 0.0))
    if bad.any():
        d = np.ravel(det)[np.argmax(bad)]
        raise NonPhysical(f"mechanical block determinant {d:g} <= 0"
                          if d <= 0.0 else
                          "mechanical block not positive definite")
    return lam, -10.0 * np.log10(lam), -10.0 * np.log10(2.0 * lam)


def principal_axis_angle(mech_cm: np.ndarray) -> np.ndarray:
    """Orientation of the major variance axis, in [-pi/2, pi/2), one per
    block of a (..., 2, 2) stack."""
    mech_cm = np.asarray(mech_cm, dtype=float)
    # doubled-angle form avoids the eigenvector sign ambiguity
    return 0.5 * np.arctan2(2.0 * mech_cm[..., 0, 1],
                            mech_cm[..., 0, 0] - mech_cm[..., 1, 1])


@dataclass
class WignerGrid:
    axes: tuple[np.ndarray, ...]
    values: np.ndarray


def wigner(cm: np.ndarray, span_sigmas: float = 6.0,
           points: int = 201,
           axes: tuple[np.ndarray, ...] | None = None) -> WignerGrid:
    """Gaussian Wigner density on a phase-space grid (zero first moments).

    For a 2N x 2N covariance matrix the grid covers all 2N coordinates;
    practical use is the single-mode case (2x2 CM, 2-D grid).
    """
    cm = np.asarray(cm, dtype=float)
    dim = cm.shape[0]
    n_modes = dim // 2
    det = np.linalg.det(cm)
    if det < 1e-300:
        raise NonPhysical(f"covariance determinant {det:g} underflows")
    inv = np.linalg.inv(cm)
    if axes is None:
        sig = np.sqrt(np.diag(cm))
        axes = tuple(np.linspace(-span_sigmas * s, span_sigmas * s, points)
                     for s in sig)
    mesh = np.meshgrid(*axes, indexing="ij")
    r = np.stack([m.ravel() for m in mesh], axis=1)
    quad = np.einsum("ni,ij,nj->n", r, inv, r)
    norm = 1.0 / ((2.0 * np.pi) ** n_modes * np.sqrt(det))
    values = norm * np.exp(-0.5 * quad)
    return WignerGrid(axes=tuple(axes),
                      values=values.reshape(mesh[0].shape))
