"""Output checks: stored references and the independent sweep oracle.

Each check returns a list of mismatch descriptions; an empty list means
the outputs are correct.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Rows kept per CSV in a stored reference (evenly spaced, first and last
# included).  Outputs are deterministic, so a strided comparison catches
# any change that is not confined to the skipped rows.
REFERENCE_ROWS = 100

# Sweep EN agreement with the oracle: |EN - EN_oracle| <= atol + rtol*EN.
SWEEP_EN_ATOL = 1e-9
SWEEP_EN_RTOL = 1e-6


def dump_json(doc) -> str:
    """Indented JSON with each list of numbers on one line."""
    # a raw newline cannot occur inside a JSON string
    return re.sub(r"\[\n[-+.,0-9eE\s]*\]", lambda m: re.sub(r"\s+", "", m[0]),
                  json.dumps(doc, indent=1)) + "\n"


# ---------------------------------------------------------------------------
# Stored references (asymptote, transient)
# ---------------------------------------------------------------------------

def _read_lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


def _row_indices(n_rows: int) -> list[int]:
    if n_rows <= REFERENCE_ROWS:
        return list(range(n_rows))
    return sorted(set(np.linspace(0, n_rows - 1, REFERENCE_ROWS)
                      .round().astype(int).tolist()))


def snapshot(out_dir: Path) -> dict:
    """Reference record of a run's CSVs (strided rows) and verdicts."""
    files = {}
    for path in sorted(out_dir.glob("*.csv")):
        lines = _read_lines(path)
        rows = lines[1:]
        idx = _row_indices(len(rows))
        files[path.name] = {
            "header": lines[0].split(","),
            "n_rows": len(rows),
            "rows": idx,
            "values": [[float(x) for x in rows[i].split(",")] for i in idx],
        }
    snap = {"files": files}
    stab = out_dir / "stability.json"
    if stab.exists():
        snap["stable"] = json.loads(stab.read_text())["stable"]
    return snap


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def compare_snapshot(ref: dict, out_dir: Path) -> list[str]:
    """Compare a run directory with a stored reference.

    Each value must lie within ``ref["rtol"]`` times the largest magnitude
    of its column in the reference (a column-scaled relative tolerance, so
    entries that cross zero are judged against the column's size).
    """
    rtol = ref["rtol"]
    problems = []
    for name, want in ref["files"].items():
        path = out_dir / name
        if not path.exists():
            problems.append(f"{name}: missing")
            continue
        lines = _read_lines(path)
        header = lines[0].split(",")
        if header != want["header"]:
            problems.append(f"{name}: header {header} != {want['header']}")
            continue
        rows = lines[1:]
        if len(rows) != want["n_rows"]:
            problems.append(f"{name}: {len(rows)} rows, "
                            f"expected {want['n_rows']}")
            continue
        got = np.array([[float(x) for x in rows[i].split(",")]
                        for i in want["rows"]])
        exp = np.array(want["values"])
        scale = np.maximum(np.max(np.abs(exp), axis=0), 1e-300)
        err = np.max(np.abs(got - exp), axis=0) / scale
        bad = np.flatnonzero(~(err <= rtol))
        for j in bad:
            problems.append(f"{name}:{header[j]} off by {err[j]:.3g} of "
                            f"column scale (rtol {rtol:g})")
    if "stable" in ref:
        stab = out_dir / "stability.json"
        got = (json.loads(stab.read_text())["stable"] if stab.exists()
               else None)
        if got != ref["stable"]:
            problems.append(f"stability.json: stable={got}, expected "
                            f"{ref['stable']}")
    return problems


# ---------------------------------------------------------------------------
# Sweep oracle
# ---------------------------------------------------------------------------

def oracle_cell(p: dict, e0: float, g0: float) -> tuple[str, float]:
    """(status, EN) of a constant-drive cell with a prescribed detuning.

    Written from the linearized Heisenberg-Langevin equations around the
    working point, independently of optomech: cavity amplitude from the
    stationary mean-value equations, Hurwitz test of the drift, Lyapunov
    steady state by Bartels-Stewart, and log negativity from the smallest
    symplectic eigenvalue of the partially transposed atom-mirror CM.
    """
    om, gm, g = p["omega_m"], p["gamma_m"], p["g"]
    kap, ga, dc = p["kappa"], p["gamma_a"], p["delta_c"]
    det = p["delta_a_effective"]
    a = e0 / (kap + 1j * det + g0 ** 2 / (ga + 1j * dc))
    gx, gy = (np.sqrt(2.0) * g * a).real, (np.sqrt(2.0) * g * a).imag
    drift = np.array([
        [0.0, om, 0.0, 0.0, 0.0, 0.0],
        [-om, -gm, gx, gy, 0.0, 0.0],
        [-gy, 0.0, -kap, det, 0.0, g0],
        [gx, 0.0, -det, -kap, -g0, 0.0],
        [0.0, 0.0, 0.0, g0, -ga, dc],
        [0.0, 0.0, -g0, 0.0, -dc, -ga],
    ])
    if np.max(np.linalg.eigvals(drift).real) >= 0.0:
        return "unstable", float("nan")
    diffusion = np.diag([0.0, gm * (2.0 * p["n_th"] + 1.0), kap, kap,
                         ga, ga])
    v = solve_continuous_lyapunov(drift, -diffusion)
    idx = [0, 1, 4, 5]
    flip = np.diag([1.0, 1.0, 1.0, -1.0])     # transpose the atomic mode
    v_pt = flip @ v[np.ix_(idx, idx)] @ flip
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    nu_min = np.min(np.abs(np.linalg.eigvals(1j * omega @ v_pt)))
    return "stable", max(0.0, -np.log(2.0 * nu_min))


def sweep_oracle(doc: dict) -> list[tuple[float, float, str, float]]:
    """Expected (E0, G0, status, EN) rows of a 2-axis (E0, G0) sweep."""
    p = {"omega_m": 1.0, "n_th": 0.0, **doc["params"]}
    ax_e, ax_g = doc["sweep"]["axes"]
    if (ax_e["name"], ax_g["name"]) != ("E0", "G0"):
        raise ValueError("oracle covers (E0, G0) sweeps only")
    rows = []
    for e0 in np.linspace(ax_e["min"], ax_e["max"], ax_e["points"]):
        for g0 in np.linspace(ax_g["min"], ax_g["max"], ax_g["points"]):
            rows.append((float(e0), float(g0),
                         *oracle_cell(p, float(e0), float(g0))))
    return rows


def compare_sweep(expected, sweep_csv: Path) -> tuple[int, list[str]]:
    """(number of bad cells, descriptions) of a sweep.csv vs the oracle.

    A cell is bad when its status is ``error:*``, differs from the
    oracle's, or its EN is outside the stated tolerance.
    """
    with open(sweep_csv, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != len(expected):
        return len(expected), [f"sweep.csv: {len(rows)} cells, expected "
                               f"{len(expected)}"]
    bad = 0
    problems = []
    for row, (e0, g0, status, en) in zip(rows, expected):
        got_e0, got_g0, got_status, got_en = (float(row[0]), float(row[1]),
                                              row[2], float(row[3]))
        why = None
        if (got_e0, got_g0) != (e0, g0):
            why = f"grid point ({got_e0}, {got_g0})"
        elif got_status != status:
            why = f"status {got_status}, oracle {status}"
        elif status == "stable" and not (
                abs(got_en - en) <= SWEEP_EN_ATOL + SWEEP_EN_RTOL * abs(en)):
            why = f"EN {got_en!r}, oracle {en!r}"
        if why:
            bad += 1
            if len(problems) < 5:
                problems.append(f"cell E0={e0!r} G0={g0!r}: {why}")
    return bad, problems
