"""The adaptive stepper shared by every integration.

It is SciPy's Dormand-Prince 8(5,3) pair (DOP853), stepped in one loop
that checks each accepted step against an overflow guard; it is
deterministic.  DOP853 is imported at the first integration, not with
this module: importing scipy.integrate takes most of a fresh process's
start-up, and runs that reach their samples by algebra never step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class Solution:
    """States y[:, k] at times t[k], and the RHS calls that produced them."""

    t: np.ndarray
    y: np.ndarray
    nfev: int


def checked_t_eval(t_eval, t0: float, t_end: float) -> np.ndarray:
    """t_eval as a float array; ValueError unless it ascends within
    [t0, t_end]."""
    t_eval = np.asarray(t_eval, dtype=float)
    if (np.any(t_eval < t0) or np.any(t_eval > t_end)
            or np.any(np.diff(t_eval) <= 0)):
        raise ValueError("t_eval must ascend within t_span")
    return t_eval


def integrate_adaptive(f, t_span, y0, cfg: StepperConfig, t_eval=None):
    """Integrate dy/dt = f(t, y) forward with the DOP853 pair.

    t_eval (ascending, within t_span) is read off each step's dense output,
    as solve_ivp does; without it the solution holds the end state only.
    Raises Diverged when an accepted step leaves some |y| above
    cfg.overflow_guard and StepFailure when the stepper cannot meet its
    tolerances.
    """
    from scipy.integrate import DOP853

    t0, t_end = map(float, t_span)
    solver = DOP853(f, t0, np.asarray(y0, dtype=float), t_end,
                    rtol=cfg.rel_tol, atol=cfg.abs_tol,
                    max_step=cfg.max_step)
    if t_eval is not None:
        t_eval = checked_t_eval(t_eval, t0, t_end)
    i = 0
    ys = []
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise StepFailure(message)
        if np.max(np.abs(solver.y)) > cfg.overflow_guard:
            raise Diverged(f"state magnitude exceeded "
                           f"{cfg.overflow_guard:g} at t = {solver.t:g}")
        if t_eval is not None:
            i_new = np.searchsorted(t_eval, solver.t, side="right")
            if i_new > i:
                ys.append(solver.dense_output()(t_eval[i:i_new]))
                i = i_new
    if t_eval is None:
        return Solution(t=np.array([solver.t]), y=solver.y[:, None],
                        nfev=solver.nfev)
    return Solution(t=t_eval, y=np.hstack(ys), nfev=solver.nfev)
