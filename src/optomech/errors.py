"""Structured error types shared by all simulation modules."""


class SimulationError(Exception):
    """Base class for all structured simulation failures."""


class StepFailure(SimulationError):
    """Adaptive step size underflowed; the problem is stiff or diverging."""


class Diverged(SimulationError):
    """A state magnitude exceeded the overflow guard during integration."""


class SingularDenominator(SimulationError):
    """A resonant denominator vanished; the closed form is invalid there."""


class DegenerateExponents(SimulationError):
    """Two Laplace exponents coincide; partial fractions are not applicable."""


class NotStable(SimulationError):
    """The drift matrix is not Hurwitz; no steady state exists."""


class NonPhysical(SimulationError):
    """A covariance matrix is not a physical one: a symplectic eigenvalue
    below the vacuum bound 1/2, a block that is not positive definite, or
    a determinant that underflows."""


class NoConvergence(SimulationError):
    """An iterative solve did not converge within its budget."""


class Singular(SimulationError):
    """Linear system has no reliable solution (pivot underflow)."""
