"""Text formats: sparse triplets for matrices, the cell-grid coefficient
format, and deterministic CSV report writers.

CSV files open with a comment header carrying the schema version, the report
kind, and a digest of the producing configuration; identical configuration
and seed must reproduce byte-identical files, so all floats are written with
repr-exact formatting and rows are emitted in a fixed order.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp

from .elliptic import CoefficientField, GridDomain
from .errors import ShapeError

__all__ = [
    "save_triplet",
    "load_coefficient_text",
    "write_report_csv",
    "write_schur_gaps",
    "dump_solution_csv",
    "config_digest",
]

SCHEMA_VERSION = 1


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = complex(value)
    if v.imag == 0:
        return format(v.real, ".17g")
    return f"{format(v.real, '.17g')}{'+' if v.imag >= 0 else '-'}{format(abs(v.imag), '.17g')}j"


def save_triplet(path, matrix):
    """Sparse triplet text: header with dims, then one (row, col, value) per
    line in CSR order."""
    m = matrix.tocoo() if sp.issparse(matrix) else sp.coo_matrix(matrix)
    m = m.tocsr().tocoo()  # canonical ordering and duplicate merging
    with open(path, "w") as fh:
        fh.write(f"# triplet {m.shape[0]} {m.shape[1]} {m.nnz}\n")
        for r, c, v in zip(m.row, m.col, m.data):
            fh.write(f"{r} {c} {_fmt(v)}\n")


def load_coefficient_text(path, bounds=None):
    """Read the cell-grid coefficient format: a header line
    ``# coefficient d=<d> cells <cells per axis> extents <a_1 b_1 ...>``,
    then one row-major line of d*d entries per cell. A file that breaks the
    format or holds a non-finite entry raises :class:`ShapeError`."""
    with open(path) as fh:
        header = fh.readline().split()
        lines = [line.split() for line in fh if line.strip()]
    try:
        d = int(header[2].split("=")[1])
        cells = tuple(int(x) for x in header[4:4 + d])
        ext = [float(complex(x).real) for x in header[5 + d:5 + 3 * d]]
    except (IndexError, ValueError) as exc:
        raise ShapeError(f"{path}: not a coefficient file header") from exc
    if "coefficient" not in header or not np.isfinite(ext).all():
        raise ShapeError(f"{path}: not a coefficient file header")
    dom = GridDomain(tuple(zip(ext[0::2], ext[1::2])), cells)
    if len(lines) != dom.n_cells:
        raise ShapeError(f"{path}: {len(lines)} cell lines for {dom.n_cells} cells")
    if any(len(parts) != d * d for parts in lines):
        raise ShapeError(f"{path}: a cell line does not hold {d * d} entries")
    try:
        arr = np.array(lines, dtype=complex).reshape(-1, d, d)
    except ValueError as exc:
        raise ShapeError(f"{path}: an entry is not a number") from exc
    if not np.isfinite(arr).all():
        raise ShapeError(f"{path}: an entry is not finite")
    if np.all(arr.imag == 0):
        arr = arr.real
    return CoefficientField(dom, arr, bounds=bounds)


def config_digest(text):
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()[:16]


def write_report_csv(path, report, digest=""):
    """One row per experiment index with the report's frozen column schema."""
    with open(path, "w") as fh:
        fh.write(f"# homlab-csv schema={SCHEMA_VERSION} kind={report.kind} "
                 f"digest={digest}\n")
        fh.write(",".join(report.columns) + "\n")
        for row in report.rows:
            fh.write(",".join(_fmt(row[c]) for c in report.columns) + "\n")


def write_schur_gaps(path, gaps_by_n, digest=""):
    """Block-map gap table with the frozen five-column schema
    (n, gap_m00inv, gap_m01, gap_m10, gap_ms)."""
    with open(path, "w") as fh:
        fh.write(f"# homlab-csv schema={SCHEMA_VERSION} kind=schur-gaps "
                 f"digest={digest}\n")
        fh.write("n,gap_m00inv,gap_m01,gap_m10,gap_ms\n")
        for n in sorted(gaps_by_n):
            g = gaps_by_n[n]
            fh.write(",".join([str(int(n))] + [_fmt(x) for x in g]) + "\n")


def dump_solution_csv(path, grad, u, q, digest=""):
    """Nodal solution and element flux with coordinates."""
    d = grad.d
    with open(path, "w") as fh:
        fh.write(f"# homlab-csv schema={SCHEMA_VERSION} kind=solution digest={digest}\n")
        coords = ",".join(f"x{a}" for a in range(d))
        fh.write(f"entity,{coords},value\n")
        for i in range(grad.scalar_space.dim):
            pos = ",".join(_fmt(x) for x in grad.node_coords[i])
            fh.write(f"node,{pos},{_fmt(u[i])}\n")
        qe = grad.field_as_elements(np.asarray(q))
        for e in range(grad.n_elem):
            pos = ",".join(_fmt(x) for x in grad.elem_mid[e])
            vals = ";".join(_fmt(v) for v in qe[e])
            fh.write(f"element,{pos},{vals}\n")
