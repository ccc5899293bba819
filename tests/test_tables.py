import csv

import numpy as np
import pytest

from optomech import tables
from optomech.fluctuations import UNVECH, VECH
from optomech.measures import WignerGrid, wigner
from optomech.tables import grid_columns, write_cm_csv, write_rows, \
    write_wigner_csv

SPECIALS = [float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 1e-5,
            5e-324, 0.1, -2.5, 1.0, 123456789.123]


def reference_csv(path, header, rows):
    """The row-by-row csv.writer output with repr(float(x)) numbers."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else repr(float(c))
                             for c in row])


def test_numeric_columns_match_csv_writer(tmp_path):
    a = np.array(SPECIALS)
    b = a[::-1].copy()
    c = [int(k) for k in range(len(a))]
    write_rows(tmp_path / "got.csv", ["a", "b", "c"], (a, b, c))
    reference_csv(tmp_path / "want.csv", ["a", "b", "c"], zip(a, b, c))
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.splitlines()[1] == b"nan,123456789.123,0.0"


def test_sweep_rows_with_status_match_csv_writer(tmp_path):
    rows = [[1e4, 0.1, "stable", 0.25],
            [2e4, -0.0, "error:Diverged", float("nan")],
            [5e-324, 1e16, "unstable", float("-inf")]]
    header = ["E0", "G0", "status", "EN"]
    write_rows(tmp_path / "got.csv", header, list(zip(*rows)))
    reference_csv(tmp_path / "want.csv", header, rows)
    assert (tmp_path / "got.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


def test_empty_sweep_writes_header_only(tmp_path):
    write_rows(tmp_path / "got.csv", ["E0", "status", "EN"], list(zip()))
    assert (tmp_path / "got.csv").read_bytes() == b"E0,status,EN\n"


def test_chunk_boundaries_keep_every_row(tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "CHUNK_ROWS", 3)
    t = np.linspace(0.0, 1.0, 10)
    write_rows(tmp_path / "got.csv", ["t", "sq"], (t, t ** 2))
    reference_csv(tmp_path / "want.csv", ["t", "sq"], zip(t, t ** 2))
    assert (tmp_path / "got.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("lengths", [(3, 6), (6, 3), (5, 6)],
                         ids=["first_short_at_chunk_end", "last_short",
                              "first_short"])
def test_columns_of_unequal_length_rejected(tmp_path, monkeypatch, lengths):
    # a short column once lost the rows past its end, without a word
    monkeypatch.setattr(tables, "CHUNK_ROWS", 3)
    columns = [np.arange(n, dtype=float) for n in lengths]
    with pytest.raises(ValueError, match="unequal length"):
        write_rows(tmp_path / "got.csv", ["a", "b"], columns)
    assert not (tmp_path / "got.csv").exists()


def test_wigner_grid_is_x_major(tmp_path):
    axes = (np.linspace(-1.0, 1.0, 3), np.linspace(-2.0, 2.0, 4))
    grid = wigner(np.array([[1.0, 0.2], [0.2, 0.7]]), axes=axes)
    write_wigner_csv(tmp_path / "got.csv", grid)
    x_ax, y_ax = grid.axes
    rows = [(x, y, grid.values[i, j]) for i, x in enumerate(x_ax)
            for j, y in enumerate(y_ax)]
    reference_csv(tmp_path / "want.csv", ["x", "y", "w"], rows)
    assert (tmp_path / "got.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("chunk_rows", [4, tables.CHUNK_ROWS])
def test_wigner_axes_formatted_once_match_each_cell(tmp_path, monkeypatch,
                                                    chunk_rows):
    monkeypatch.setattr(tables, "CHUNK_ROWS", chunk_rows)
    x_ax = np.array([-0.0, -1.2345678901234567, 0.1, 2.0000000000000004,
                     -3e-17])
    y_ax = np.array([0.30000000000000004, -0.0, -7.0, 1e-300,
                     123456789.12345679, -2.5, 0.0])
    values = np.random.default_rng(5).normal(size=(5, 7)) \
        * np.logspace(-300, 300, 7)
    values[0, 0] = values[3, 6] = -0.0
    grid = WignerGrid(axes=(x_ax, y_ax), values=values)
    write_wigner_csv(tmp_path / "got.csv", grid)
    columns = (np.repeat(x_ax, len(y_ax)), np.tile(y_ax, len(x_ax)),
               values.ravel())
    want = "x,y,w\n" + "".join(",".join(repr(float(c)) for c in row) + "\n"
                               for row in zip(*columns))
    assert (tmp_path / "got.csv").read_text() == want
    assert "-0.0,0.30000000000000004," in want


def test_cm_row_is_the_state_vech(tmp_path):
    rng = np.random.default_rng(11)
    m = rng.normal(size=(6, 6))
    v = m + m.T
    write_cm_csv(tmp_path / "cm.csv", [0.5], v[np.newaxis])
    header, row = (tmp_path / "cm.csv").read_text().splitlines()
    names = header.split(",")
    cells = [float(x) for x in row.split(",")]
    assert names[:3] == ["t", "v11", "v12"] and names[-1] == "v66"
    assert cells[0] == 0.5
    assert cells[1:] == v[VECH].tolist()
    assert np.array_equal(np.array(cells[1:])[UNVECH], v)
    for name, x in zip(names[1:], cells[1:]):
        assert x == v[int(name[1]) - 1, int(name[2]) - 1]


@pytest.mark.parametrize("shape", [(4,), (1,), (3, 5), (5, 1), (2, 3, 4)])
def test_grid_columns_are_the_meshgrid_in_text(shape):
    axes = [np.array(SPECIALS[:n]) * (k + 1) for k, n in enumerate(shape)]
    want = [[repr(x) for x in col.ravel().tolist()]
            for col in np.meshgrid(*axes, indexing="ij")]
    assert grid_columns(axes) == want
