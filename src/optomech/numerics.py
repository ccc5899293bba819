"""The adaptive stepper shared by every integration.

integrate_adaptive steps the Dormand-Prince 8(5,3) pair (DOP853) in one
lean loop of its own over SciPy's tableau.  It takes SciPy's initial step
and 100 eps floor on rel_tol.  Each stage, error estimate and dense-output
coefficient is the NumPy expression that scipy.integrate.DOP853 evaluates,
in the same order, and the step-size control is the same arithmetic on
Python floats.  The samples are read off their steps' interpolants in one
pass after the loop, with the same elementwise arithmetic as SciPy's
dense output.  So the loop returns solve_ivp(method="DOP853")'s bits and
RHS count at t_eval, which every integration names, without its
per-step solver and dense-output objects.  Every accepted step is
checked against an overflow guard; it is deterministic.

SciPy is imported at the first integration, not with this module:
importing scipy.integrate takes most of a fresh process's start-up, and
runs that reach their samples by algebra never step.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import Diverged, StepFailure

RTOL_FLOOR = 100 * np.finfo(float).eps      # DOP853's floor on rel_tol
# DOP853's step-size control, as scipy.integrate._ivp.rk has it: a step's
# next length is SAFETY * err**ERROR_EXPONENT times its own, within
# [MIN_FACTOR, MAX_FACTOR] (at most 1 after a rejection)
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
ERROR_EXPONENT = -1 / 8         # -1 / (error estimator order 7 + 1)


@dataclass(frozen=True)
class StepperConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = np.inf     # resolved by callers (tau/50 when modulated)
    overflow_guard: float = 1e12

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):     # NaN fails
            raise ValueError("tolerances must be positive")
        if not self.max_step > 0:
            raise ValueError("max_step must be positive")


@dataclass(frozen=True)
class Solution:
    """States y[:, k] at times t[k], and the RHS calls that produced them."""

    t: np.ndarray
    y: np.ndarray
    nfev: int


def checked_t_eval(t_eval, t0: float = 0.0,
                   t_end: float = math.inf) -> np.ndarray:
    """t_eval as a float array; ValueError unless it holds a time and
    ascends within [t0, t_end]."""
    t_eval = np.asarray(t_eval, dtype=float)
    if not t_eval.size:
        raise ValueError("t_eval must hold at least one time")
    if (np.any(t_eval < t0) or np.any(t_eval > t_end)
            or np.any(np.diff(t_eval) <= 0)):
        raise ValueError(f"t_eval must ascend within [{t0:g}, {t_end:g}]")
    return t_eval


def dop853():
    """SciPy's DOP853 class, whose A, B, C, E3 and E5 (and D, A_EXTRA and
    C_EXTRA for dense output) are the pair's tableau; scipy.integrate is
    imported at the first call."""
    from scipy.integrate import DOP853
    return DOP853


def integrate_adaptive(f, t_span, y0, cfg: StepperConfig, t_eval):
    """Integrate dy/dt = f(t, y) forward with the DOP853 pair, sampled at
    t_eval.

    t_eval (ascending, within t_span) is read off the dense output of
    each step that holds a sample, as solve_ivp does: such a step stores
    its interpolant's coefficients, and one pass after the loop evaluates
    them at every sample with SciPy's elementwise arithmetic, so with its
    bits.  Raises ValueError when t_span does not go forward or t_eval is
    empty or does not ascend within it, Diverged when an accepted step
    leaves some |y| above cfg.overflow_guard and StepFailure when the
    stepper cannot meet its tolerances.
    """
    rk = dop853()
    t, t_end = map(float, t_span)
    if not t < t_end:
        raise ValueError("t_span must go forward")
    t_eval = checked_t_eval(t_eval, t, t_end)
    samples, i, m = t_eval.tolist(), 0, 0
    rtol, atol = max(cfg.rel_tol, RTOL_FLOOR), cfg.abs_tol
    max_step, guard = cfg.max_step, cfg.overflow_guard
    # SciPy's solver checks y0 and takes the first RHS value and its
    # initial step (select_initial_step, one more RHS call); the loop
    # below does the stepping
    start = rk(f, t, np.asarray(y0, dtype=float), t_end, rtol=rtol,
               atol=atol, max_step=max_step)
    y, h_abs, nfev = start.y, float(start.h_abs), start.nfev
    # the stages' rows as SciPy stores them: 12 stages, the RHS at the
    # step's end, and the dense output's 3 extra stages
    k_ext = np.empty((16, len(y)))
    k = k_ext[:13]
    stages = [(s, c, k[:s].T, a[:s]) for s, (a, c) in
              enumerate(zip(rk.A[1:], rk.C[1:].tolist()), start=1)]
    extra = [(s, c, k_ext[:s].T, a[:s]) for s, (a, c) in
             enumerate(zip(rk.A_EXTRA, rk.C_EXTRA.tolist()), start=13)]
    k_b, k_e = k[:-1].T, k.T       # the stages that B and E3, E5 weigh
    # row m for the m-th step that holds samples: its (t_old, h), y_old
    # and its interpolant's 7 coefficient rows; owner[i] is m for each of
    # its samples
    size = len(samples)
    spans, y_olds = np.empty((size, 2)), np.empty((size, len(y)))
    coef, owner = np.empty((size, 7, len(y))), np.empty(size, int)
    k[0] = start.f
    abs_y = np.abs(y)
    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:       # NaN, from a NaN RHS, too
                raise StepFailure("Required step size is less than "
                                  "spacing between numbers.")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            for s, c, k_s, a in stages:
                k[s] = f(t + c * h, y + np.dot(k_s, a) * h)
            y_new = y + h * np.dot(k_b, rk.B)
            k[12] = f(t + h, y_new)
            nfev += 12
            abs_new = np.abs(y_new)
            scale = atol + np.maximum(abs_y, abs_new) * rtol
            err5 = np.dot(k_e, rk.E5) / scale
            err3 = np.dot(k_e, rk.E3) / scale
            # SciPy squares np.linalg.norm, sqrt(x . x): the same bits
            n5 = math.sqrt(err5.dot(err5)) ** 2
            n3 = math.sqrt(err3.dot(err3)) ** 2
            if n5 == 0 and n3 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * n5 / math.sqrt((n5 + 0.01 * n3)
                                                    * len(y))
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(
                    MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        t_old, y_old, t, y, abs_y = t, y, t_new, y_new, abs_new
        if abs_y.max() > guard:
            raise Diverged(f"state magnitude exceeded {guard:g} at "
                           f"t = {t:g}")
        j = bisect.bisect_right(samples, t, i)
        if j > i:
            # the extra stages, then the interpolant's coefficients
            for s, c, k_s, a in extra:
                k_ext[s] = f(t_old + c * h, y_old + np.dot(k_s, a) * h)
            nfev += len(extra)
            delta_y, rows = y - y_old, coef[m]
            rows[0] = delta_y
            rows[1] = h * k[0] - delta_y
            rows[2] = 2 * delta_y - h * (k[12] + k[0])
            rows[3:] = h * np.dot(rk.D, k_ext)
            spans[m], y_olds[m], owner[i:j] = (t_old, h), y_old, m
            i, m = j, m + 1
        k[0] = k[12]
    # DOP853's interpolant at every sample, as Dop853DenseOutput evaluates
    # it within one step: the same elementwise arithmetic, so the same bits
    t_old, h = spans[owner].T
    x = (t_eval - t_old) / h
    y = np.zeros((len(y), len(t_eval)))
    for n in range(7):
        y += coef[owner, 6 - n].T
        y *= x if n % 2 == 0 else 1 - x
    y += y_olds[owner].T
    return Solution(t=t_eval, y=y, nfev=nfev)
