"""Benchmark workloads: the recipe overlays each run feeds to optomech.

A workload spec is ``{"recipe": <shipped recipe name>, "overlay": {...},
"jobs": <pool size>}``.  The measured process loads the recipe, applies
the overlay key by key (as ``optomech simulate --recipe R --config X``
does) and calls ``run_experiment`` with ``jobs``.
"""

from __future__ import annotations

import math
import os

import numpy as np

# Pool size for the sweep: the machine's cores, capped at 2 so the run
# uses the same process count on any host with at least two cores.
POOL_JOBS = max(1, min(2, len(os.sched_getaffinity(0))))

# fig4a box (E0 x G0) and the sweep grid laid inside it.
SWEEP_BOX = {"E0": (10000.0, 300000.0), "G0": (0.1, 3.0)}
SWEEP_POINTS = 100
SWEEP_SPAN = 0.9      # grid covers this share of each box edge

TRANSIENT_PERIODS = 40
TRANSIENT_WIGNER_PERIODS = (10, 25, 40)


def _asymptote(seed: int) -> dict:
    # Fixed recipe: the stored reference holds for every seed.
    return {"recipe": "fig5a",
            "overlay": {"outputs": ["EN", "variance", "neff", "squeezing",
                                    "cm", "stability"]},
            "jobs": 1}


def _transient(seed: int) -> dict:
    tau = math.pi      # fig7: Omega = 2
    return {"recipe": "fig7",
            "overlay": {"horizon_periods": TRANSIENT_PERIODS,
                        "sample_periods": TRANSIENT_PERIODS,
                        "samples_per_period": 100,
                        "outputs": ["first_moments", "cm", "EN",
                                    "variance", "neff", "squeezing",
                                    "wigner"],
                        "wigner_times": [k * tau for k in
                                         TRANSIENT_WIGNER_PERIODS]},
            "jobs": 1}


def _sweep(seed: int) -> dict:
    # The seed shifts the grid inside the box; the oracle checks any grid.
    shift = np.random.default_rng(seed).uniform(0.0, 1.0 - SWEEP_SPAN, 2)
    axes = []
    for (name, (lo, hi)), u in zip(SWEEP_BOX.items(), shift):
        start = lo + u * (hi - lo)
        axes.append({"name": name, "min": start,
                     "max": start + SWEEP_SPAN * (hi - lo),
                     "points": SWEEP_POINTS})
    return {"recipe": "fig4a",
            "overlay": {"sweep": {"axes": axes}},
            "jobs": POOL_JOBS}


SPECS = {"asymptote": _asymptote, "transient": _transient,
         "sweep": _sweep}


def workload_spec(name: str, seed: int) -> dict:
    """The spec of workload ``name`` for ``seed``; equal seeds, equal specs."""
    return SPECS[name](seed)


def resolved_doc(spec: dict, load_recipe) -> dict:
    """Recipe document with the workload overlay applied."""
    doc = load_recipe(spec["recipe"])
    doc.update(spec["overlay"])
    return doc
