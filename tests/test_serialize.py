"""Tests for the triplet, coefficient-grid, and CSV formats."""

import numpy as np
import scipy.sparse as sp

from homlab.elliptic import GridDomain
from homlab.homogenize import ExperimentReport
from homlab.serialize import load_coefficient_text, save_triplet, write_report_csv


def read_triplet(path):
    """The header fields of a triplet file and its (row, col, value) lines
    as integer index arrays and a complex value array."""
    header = path.read_text().splitlines()[0].split()
    body = np.loadtxt(path, dtype=complex, ndmin=2)
    return header, body[:, 0].real.astype(int), body[:, 1].real.astype(int), body[:, 2]


def assert_triplet_file(path, m):
    """The file at ``path`` holds the dims and nonzeros of the CSR matrix
    ``m`` in CSR order, to the last bit."""
    header, rows, cols, vals = read_triplet(path)
    assert header == ["#", "triplet", str(m.shape[0]), str(m.shape[1]), str(m.nnz)]
    coo = m.tocoo()
    np.testing.assert_array_equal(rows, coo.row)
    np.testing.assert_array_equal(cols, coo.col)
    np.testing.assert_array_equal(vals, coo.data)


class TestTriplet:
    def test_round_trip_real(self, tmp_path):
        m = sp.random(12, 9, density=0.3, random_state=1).tocsr()
        path = tmp_path / "m.trip"
        save_triplet(path, m)
        assert_triplet_file(path, m)

    def test_round_trip_complex(self, tmp_path):
        m = sp.csr_matrix(np.array([[1 + 2j, 0], [0, -3.5j]]))
        path = tmp_path / "c.trip"
        save_triplet(path, m)
        assert path.read_text().splitlines()[1:] == ["0 0 1+2j", "1 1 -0-3.5j"]
        assert_triplet_file(path, m)

    def test_dense_input(self, tmp_path):
        m = np.array([[0.0, 1.5], [2.25, 0.0]])
        path = tmp_path / "d.trip"
        save_triplet(path, m)
        assert_triplet_file(path, sp.csr_matrix(m))


class TestCoefficientText:
    def test_round_trip_1d(self, tmp_path):
        dom = GridDomain.interval(0, 2, 8)
        vals = 1.0 + dom.cell_midpoints()[:, 0]
        path = tmp_path / "a.coef"
        path.write_text("# coefficient d=1 cells 8 extents 0 2\n"
                        + "".join(f"{float(v)!r}\n" for v in vals))
        back = load_coefficient_text(path, bounds=(0.5, 4.0))
        assert back.domain == dom
        np.testing.assert_array_equal(back.values[:, 0, 0], vals)

    def test_round_trip_2d_matrix(self, tmp_path):
        dom = GridDomain.box((3, 4))
        rng = np.random.default_rng(2)
        vals = np.stack([np.eye(2) + 0.1 * rng.standard_normal((2, 2))
                         for _ in range(dom.n_cells)])
        path = tmp_path / "b.coef"
        path.write_text("# coefficient d=2 cells 3 4 extents 0 1 0 1\n"
                        + "".join(" ".join(repr(float(v)) for v in cell.ravel()) + "\n"
                                  for cell in vals))
        back = load_coefficient_text(path)
        assert back.domain == dom
        np.testing.assert_array_equal(back.values, vals)


class TestSchurGapCsv:
    def test_frozen_columns(self, tmp_path):
        from homlab.serialize import write_schur_gaps

        path = tmp_path / "gaps.csv"
        write_schur_gaps(path, {2: (0.1, 0.2, 0.2, 0.05), 1: (0.3, 0.4, 0.4, 0.1)},
                         digest="d")
        lines = path.read_text().splitlines()
        assert lines[1] == "n,gap_m00inv,gap_m01,gap_m10,gap_ms"
        assert lines[2].startswith("1,")  # rows sorted by n
        assert lines[3].startswith("2,")


class TestReportCsv:
    def test_deterministic_bytes(self, tmp_path):
        rep = ExperimentReport(kind="demo", columns=("n", "gap"),
                               rows=[{"n": 1, "gap": 1.0 / 3.0},
                                     {"n": 2, "gap": 2.0 / 7.0}])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(p1, rep, digest="abc")
        write_report_csv(p2, rep, digest="abc")
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0].startswith("# homlab-csv schema=1 kind=demo")
        assert lines[1] == "n,gap"
        # repr-exact floats survive parsing
        assert float(lines[2].split(",")[1]) == 1.0 / 3.0
