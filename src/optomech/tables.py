"""CSV emission with deterministic, shortest round-trip number formatting.

Tables are handed over as columns and written CHUNK_ROWS rows at a time,
so no Python list of all the rows is built and memory stays flat however
long the table is.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .fluctuations import VECH

CHUNK_ROWS = 4096


def _cells(column):
    """Text cells of one column slice.

    Numbers become the shortest decimal that round-trips the float
    exactly (repr); a column of str, such as the sweep statuses, is kept
    as it is, so its cells must not need CSV quoting.
    """
    if isinstance(column[0], str):
        return column
    return map(repr, np.asarray(column, dtype=float).tolist())


def write_rows(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns as the rows of a CSV under header;
    ValueError, before the file is opened, when their lengths differ."""
    columns = list(columns)
    lengths = [len(col) for col in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of unequal length: {lengths}")
    n_rows = lengths[0] if columns else 0
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, CHUNK_ROWS):
            cells = [_cells(col[lo:lo + CHUNK_ROWS]) for col in columns]
            fh.writelines([",".join(row) + "\n" for row in zip(*cells)])


def write_trajectory_csv(path: Path, t, means) -> None:
    """One row (t, q, p, re_a, im_a, re_c, im_c) per sample time t of the
    means (a FirstMoments of one value per sample)."""
    header = ["t", "q", "p", "re_a", "im_a", "re_c", "im_c"]
    write_rows(path, header, (t, means.q, means.p, np.real(means.a),
                              np.imag(means.a), np.real(means.c),
                              np.imag(means.c)))


def write_cm_csv(path: Path, t, vs) -> None:
    """t and vech V of each CM (fluctuations.VECH): v11, v12, ..., v66."""
    header = ["t"] + [f"v{i + 1}{j + 1}" for i, j in zip(*VECH)]
    write_rows(path, header, (t, *np.asarray(vs)[:, VECH[0], VECH[1]].T))


def grid_columns(axes) -> list[list[str]]:
    """Text columns of the grid over axes, one row per point, the last
    axis fastest: each axis value is formatted once and its text
    repeated down its column."""
    texts = [list(_cells(ax)) for ax in axes]
    sizes = [len(text) for text in texts]
    return [[x for x in text for _ in range(math.prod(sizes[i + 1:]))]
            * math.prod(sizes[:i]) for i, text in enumerate(texts)]


def write_wigner_csv(path: Path, grid) -> None:
    """x-major rows (x, y, W(x, y)) over the grid's two axes."""
    write_rows(path, ["x", "y", "w"],
               (*grid_columns(grid.axes), grid.values.ravel()))
