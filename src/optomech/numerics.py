"""The adaptive stepper shared by every integration.

It is SciPy's embedded Runge-Kutta 4(5) pair, guarded against overflow;
it is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import Diverged, StepFailure


@dataclass(frozen=True)
class StepperConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = np.inf     # resolved by callers (tau/50 when modulated)
    overflow_guard: float = 1e12

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_step <= 0:
            raise ValueError("max_step must be positive")


def integrate_adaptive(f, t_span, y0, cfg: StepperConfig, t_eval=None):
    """Integrate dy/dt = f(t, y) with the RK45 embedded pair.

    Raises Diverged when any |y| crosses cfg.overflow_guard and StepFailure
    when the stepper cannot meet its tolerances.
    """
    y0 = np.asarray(y0, dtype=float)
    guard = cfg.overflow_guard

    def overflow(t, y):
        return guard - np.max(np.abs(y))

    overflow.terminal = True
    overflow.direction = -1

    sol = solve_ivp(f, t_span, y0, method="RK45",
                    rtol=cfg.rel_tol, atol=cfg.abs_tol,
                    max_step=cfg.max_step, t_eval=t_eval, events=overflow)
    if sol.status == 1:
        raise Diverged(
            f"state magnitude exceeded {guard:g} at t = {sol.t_events[0][0]:g}")
    if not sol.success:
        raise StepFailure(sol.message)
    return sol
