"""Structured-grid discretisations of gradients and the distributional
divergence, Poincare constants, and the variational solvers.

The discretisation is the lowest-order conforming one: nodal scalars on a
structured box grid, each cell split into simplices (segments, two triangles,
six Kuhn tetrahedra), element-wise constant gradients, and diagonal mass
matrices from one-point quadrature. Coefficients are sampled cell-wise at
cell midpoints, which preserves their coercivity bounds exactly, and the
weighted adjoint calculus is exact: the discrete distributional divergence is
literally minus the adjoint of the Dirichlet gradient.

Three boundary flavors are supported: ``dirichlet`` (boundary nodes
eliminated, injective gradient), ``neumann`` (all nodes, kernel = constants),
and ``periodic`` (wrapped nodes, kernel = constants on the torus).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    BudgetExceeded,
    CoercivityError,
    CompatibilityError,
    ConfigError,
    NonMeanFree,
    NotInM,
    ShapeError,
    SolverDiverged,
    VanishingHarmonicMean,
)
from .hilbert import HilbertSpace, LinearOp, ProbeSet, _check_residual

__all__ = [
    "GridDomain",
    "DiscreteGradient",
    "CoefficientField",
    "RHSFunctional",
    "build_grad",
    "solve_elliptic",
    "projected_inverse_1d",
    "solve_affine",
    "affine_dual_residual",
    "hminus_norm",
    "divergence_defect",
    "divcurl_pairing",
    "scalar_probes",
    "scalar_probe_pairs",
    "vector_probes",
    "vector_probe_pairs",
    "smooth_bump",
    "galerkin_matrix",
    "stiffness_solver",
    "DivergenceDefect",
    "grid_unknowns",
    "check_budget",
]

FLAVORS = ("dirichlet", "neumann", "periodic")
_DEFAULT_BUDGET = 4_000_000
_DIVCURL_TOL, _DIVCURL_GAP_FLOOR = 0.02, 0.1    # the divcurl verdict's defaults
_DIVTEST_SMALL, _DIVTEST_LARGE = 1e-8, 1e-3    # both divtest gaps below or above


def unknown_budget():
    """Unknown-count guard, overridable through HOMLAB_BUDGET (a positive
    count); a malformed value raises :class:`ConfigError`."""
    env = os.environ.get("HOMLAB_BUDGET")
    if not env:
        return _DEFAULT_BUDGET
    try:
        budget = int(float(env))
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"HOMLAB_BUDGET: not a number ({env!r})") from exc
    if budget < 1:
        raise ConfigError(f"HOMLAB_BUDGET: must be a positive count ({env!r})")
    return budget


def grid_unknowns(cells, flavor):
    """Unknowns on a grid of ``cells`` per axis, in closed form and without
    allocating: nodes plus d gradient components per simplex for a gradient
    of ``flavor``, or edges plus faces of the staggered complex for
    ``"yee"``."""
    if flavor == "yee":
        total = 0
        for axis, c in enumerate(cells):
            others = [m for t, m in enumerate(cells) if t != axis]
            total += c * math.prod(m - 1 for m in others) + (c - 1) * math.prod(others)
        return total
    if flavor not in FLAVORS:
        raise ShapeError(f"unknown flavor {flavor!r}")
    shift = {"periodic": 0, "neumann": 1, "dirichlet": -1}[flavor]
    d = len(cells)
    return math.prod(c + shift for c in cells) + math.prod(cells) * math.factorial(d) * d


def check_budget(cells, flavor, error=BudgetExceeded):
    """Raise ``error`` when a grid of ``cells`` per axis carries more
    unknowns than :func:`unknown_budget` admits."""
    count, budget = grid_unknowns(cells, flavor), unknown_budget()
    if count > budget:
        raise error(f"{count} unknowns exceed budget {budget}")


@dataclass(frozen=True)
class GridDomain:
    """Axis-aligned box with a uniform cell grid per axis."""

    extents: tuple
    cells: tuple

    def __post_init__(self):
        ext = tuple((float(a), float(b)) for a, b in self.extents)
        cells = tuple(int(c) for c in self.cells)
        object.__setattr__(self, "extents", ext)
        object.__setattr__(self, "cells", cells)
        if not 1 <= len(ext) <= 3 or len(ext) != len(cells):
            raise ShapeError("domain needs matching extents and cells for d in {1,2,3}")
        for (a, b), c in zip(ext, cells):
            if c < 1:
                raise ShapeError("every axis needs at least one cell")
            if not b > a:
                raise ShapeError(f"degenerate extent ({a}, {b})")

    @classmethod
    def interval(cls, a=0.0, b=1.0, cells=64):
        return cls(((a, b),), (cells,))

    @classmethod
    def box(cls, cells, lo=None, hi=None):
        cells = tuple(cells)
        d = len(cells)
        lo = (0.0,) * d if lo is None else tuple(lo)
        hi = (1.0,) * d if hi is None else tuple(hi)
        return cls(tuple(zip(lo, hi)), cells)

    @property
    def dim(self):
        return len(self.cells)

    @property
    def spacing(self):
        return tuple((b - a) / c for (a, b), c in zip(self.extents, self.cells))

    @property
    def lo(self):
        return tuple(a for a, _ in self.extents)

    @property
    def volume(self):
        return math.prod(b - a for a, b in self.extents)

    @property
    def n_cells(self):
        return math.prod(self.cells)

    def cell_midpoints(self):
        return _grid_points([lo + (np.arange(c) + 0.5) * h
                             for lo, c, h in zip(self.lo, self.cells, self.spacing)])


def _kuhn_paths(d):
    """The axis orders of the Kuhn simplices of a cell, in simplex-type
    order. The simplex of the order sigma has the vertices v_0 = the cell's
    lower corner and v_k = v_(k-1) + h_sigma(k) e_sigma(k): the segment in
    1-d, two triangles in 2-d, and in 3-d the six tetrahedra sharing the main
    diagonal (conforming across cells)."""
    return list(itertools.permutations(range(d)))


def _corners(sigma):
    """The vertices of the Kuhn simplex of the axis order ``sigma``, as the
    bitmasks of the axes on which each sits at its cell's upper side."""
    return list(itertools.accumulate(sigma, lambda mask, a: mask | 1 << a, initial=0))


def _grid_points(axes):
    """The (n, d) points of the product of 1-d coordinate arrays, C order."""
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, len(axes))


def _rows_csr(cols, values, n):
    """Sparse matrix whose row r holds ``values[r, j]`` in column
    ``cols[r, j]`` for each ``cols[r, j] >= 0`` (an (.., w) stack of rows
    of w slots; values broadcast to it), columns sorted and duplicates
    summed. Only the kept slots are copied; the indices keep the dtype of
    ``cols``."""
    keep = cols >= 0
    width = cols.shape[-1]
    indptr = np.zeros(keep.size // width + 1, dtype=np.int32)
    np.cumsum(keep.reshape(-1, width) @ np.ones(width, dtype=np.int32), out=indptr[1:])
    mat = sp.csr_matrix((np.broadcast_to(values, cols.shape)[keep], cols[keep], indptr),
                        shape=(len(indptr) - 1, n))
    mat.sum_duplicates()
    return mat


_StiffnessLayout = collections.namedtuple("_StiffnessLayout", "lt adds rolls cols valid merge")


def _runs(node_map):
    """The (cells, nodes) slice pairs of the maximal runs of a 1-d node map
    over which both the cell and its retained node step by one."""
    cell = np.flatnonzero(node_map >= 0)
    node = node_map[cell]
    cut = np.flatnonzero((np.diff(cell) != 1) | (np.diff(node) != 1)) + 1
    return [(slice(c[0], c[-1] + 1), slice(n[0], n[-1] + 1))
            for c, n in zip(np.split(cell, cut), np.split(node, cut))]


class DiscreteGradient:
    """First-order gradient of one boundary flavor on a grid domain.

    Elements are numbered simplex type by simplex type, cells in C order
    within a type; vector unknowns are (element, component), component
    minor, and retained nodes are numbered in C order of ``node_shape``. On
    the Kuhn simplex of the axis order sigma the gradient along sigma(k) is
    (u(v_k) - u(v_(k-1))) / h_sigma(k), so each row of ``matrix`` is a
    two-point difference.

    Attributes of note: ``op`` (the sparse gradient as a weighted
    :class:`LinearOp`), ``scalar_space`` / ``vector_space`` (lumped nodal
    mass / element-measure mass), ``node_coords`` and ``node_axes`` (per
    axis), ``elem_mid`` and ``mid_axes`` (per simplex type and axis),
    ``elem_cell`` and ``vertex_mean``. ``matrix`` is real; ``elem_measure``
    and the vector-space weight are read-only views of one constant, and
    ``node_coords``, ``elem_mid``, ``elem_cell`` and ``vertex_mean`` are
    built on first use.
    """

    def __init__(self, domain, flavor):
        if flavor not in FLAVORS:
            raise ShapeError(f"unknown flavor {flavor!r}")
        self.domain = domain
        self.flavor = flavor
        d, cells, h, lo = domain.dim, domain.cells, domain.spacing, domain.lo

        check_budget(cells, flavor)
        shift = {"periodic": 0, "neumann": 1, "dirichlet": -1}[flavor]
        self.node_shape = tuple(c + shift for c in cells)
        if 0 in self.node_shape:
            raise ShapeError("a Dirichlet axis of one cell has no interior node")
        first = 1 if flavor == "dirichlet" else 0
        self.node_axes = [a + (np.arange(n) + first) * ha
                          for a, n, ha in zip(lo, self.node_shape, h)]
        paths = _kuhn_paths(d)
        # the simplex of sigma has its midpoint (d - p)/(d + 1) of a cell up
        # the axis at position p of sigma
        self.mid_axes = [[lo[b] + (np.arange(cells[b]) + (d - sigma.index(b)) / (d + 1))
                          * h[b] for b in range(d)] for sigma in paths]
        n_cell, n_nodes = domain.n_cells, math.prod(self.node_shape)
        n_elem = self.n_elem = n_cell * len(paths)
        measure = math.prod(h) / math.factorial(d)
        self.elem_measure = np.broadcast_to(measure, n_elem)

        # row (element, a = sigma(k)): -1/h_a at v_(k-1), +1/h_a at v_k
        ids = self._corner_ids()
        cols = np.empty((len(paths), n_cell, d, 2), dtype=np.int32)
        for t, sigma in enumerate(paths):
            corners = _corners(sigma)
            for k, a in enumerate(sigma):
                cols[t, :, a, 0], cols[t, :, a, 1] = ids[corners[k]], ids[corners[k + 1]]
        if flavor == "periodic":    # one node on a one-cell axis: no difference
            cols[:, :, np.array(cells) == 1] = -1
        g_mat = _rows_csr(cols, np.array([[-1.0 / ha, 1.0 / ha] for ha in h]), n_nodes)
        del cols    # before the mass sums, which would otherwise peak 2 MB higher at 256^2

        # lumped mass: measure/(d + 1) from each element at each retained
        # vertex (measure times the column sums of ``vertex_mean``); the
        # corner with j upper axes is a vertex of the j! (d - j)! simplices
        # whose axis order starts with those j axes
        counts = sum(math.factorial(j) * math.factorial(d - j)
                     * np.bincount(i + 1, minlength=n_nodes + 1)[1:]
                     for j, i in zip(map(int.bit_count, range(2**d)), ids))
        w_sc = measure / (d + 1) * counts

        self.scalar_space = HilbertSpace(n_nodes, weight=w_sc)
        self.vector_space = HilbertSpace(n_elem * d, weight=np.broadcast_to(measure, n_elem * d))
        self.op = LinearOp(self.scalar_space, self.vector_space, matrix=g_mat)
        self.matrix = g_mat

    def _node_maps(self):
        """Per axis, the (lower, upper) 1-d maps from a cell to the retained
        node on its lower and upper side (-1: eliminated)."""
        return [(i - 1, np.where(i < c - 1, i, -1)) if self.flavor == "dirichlet"
                else (i, (i + 1) % c if self.flavor == "periodic" else i + 1)
                for c in self.domain.cells for i in [np.arange(c)]]

    def _corner_ids(self):
        """Retained int32 index (-1: eliminated) of the corner of each cell,
        cells in C order, one array per corner bitmask (its upper axes), from
        one 1-d (lower, upper) node map per axis."""
        maps = self._node_maps()
        ids = []
        for mask in range(2 ** self.d):
            per_axis = np.meshgrid(*(m[mask >> b & 1] for b, m in enumerate(maps)),
                                   indexing="ij", sparse=True)
            flat = np.ravel_multi_index(per_axis, self.node_shape, mode="wrap")
            kept = functools.reduce(np.logical_and, [m >= 0 for m in per_axis])
            ids.append(np.where(kept, flat, -1).astype(np.int32).ravel())
        return ids

    node_coords = functools.cached_property(lambda self: _grid_points(self.node_axes))
    elem_mid = functools.cached_property(
        lambda self: np.concatenate([_grid_points(axes) for axes in self.mid_axes]))
    elem_cell = functools.cached_property(
        lambda self: np.tile(np.arange(self.domain.n_cells), math.factorial(self.d)))

    @functools.cached_property
    def vertex_mean(self):
        """The (n_elem, n_nodes) mean of nodal values over the d + 1 vertices
        of each element; an eliminated vertex contributes zero."""
        ids = self._corner_ids()
        cols = np.stack([np.stack([ids[c] for c in _corners(sigma)], axis=-1)
                         for sigma in _kuhn_paths(self.d)])
        return _rows_csr(cols, 1.0 / (self.d + 1), self.scalar_space.dim)

    @functools.cached_property
    def _stiffness_layout(self):
        """What :func:`galerkin_matrix` needs of the grid, built once:

        - ``lt``: L, the (2^d, 2^d, d^2) map from a cell's coefficient
          (p, q) to its transposed local stiffness block (row corner i,
          column corner j), corners as C-order tuples of their upper axes;
        - ``adds``: per row corner, the slice-adds (blocks, slots) of its
          blocks into the ``(3,) * d + node_shape`` slots (neighbour offset
          per axis, row node), one per run of its 1-d node maps;
        - ``rolls``: the rolls (axis, node, shift) of the offsets on the
          first and last node of a periodic axis that put each row's columns
          in ascending order;
        - ``cols``: the int32 (n_nodes, 3^d) column of each slot (-1: off
          the grid or eliminated);
        - ``valid``: the (3^d, n_nodes) mask of the slots with a column,
          offsets first like the slots;
        - ``merge``: whether two slots of a row share a column (a periodic
          axis of at most 2 cells)."""
        d, cells, shape = self.d, self.domain.cells, self.node_shape
        periodic = self.flavor == "periodic"
        # D[t, a, corner]: the gradient row along a on the simplex of type t;
        # a periodic one-cell axis has none
        diff = np.zeros((math.factorial(d), d) + (2,) * d)
        for t, sigma in enumerate(_kuhn_paths(d)):
            corners = [tuple(mask >> b & 1 for b in range(d)) for mask in _corners(sigma)]
            for k, a in enumerate(sigma):
                if not (periodic and cells[a] == 1):
                    diff[(t, a) + corners[k]] = -1.0 / self.domain.spacing[a]
                    diff[(t, a) + corners[k + 1]] = 1.0 / self.domain.spacing[a]
        diff = diff.reshape(len(diff), d, 2**d)
        # row i of the transposed block is column i of the local stiffness
        # K_loc[r, s] = measure sum_t sum_pq D_t[p, r] a_pq D_t[q, s]
        lt = self.elem_measure[0] * np.einsum("tqi,tpj->ijpq", diff, diff)

        runs = [[_runs(m) for m in maps] for maps in self._node_maps()]
        adds = [[] for _ in range(2**d)]
        for i, upper in enumerate(itertools.product((0, 1), repeat=d)):
            # corner j of the cell is j_b - upper_b nodes away along axis b
            offsets = tuple(slice(1 - u, 3 - u) for u in upper)
            for pairs in itertools.product(*(runs[b][u] for b, u in enumerate(upper))):
                adds[i].append(((slice(None),) * d + tuple(c for c, _ in pairs),
                                offsets + tuple(n for _, n in pairs)))

        # along axis b, the slot (node i, offset o) reaches node i + o - 1
        reach = [(np.arange(n)[:, None] + np.arange(-1, 2)).reshape(
            (1,) * b + (n,) + (1,) * (d - 1) + (3,) + (1,) * (d - 1 - b))
            for b, n in enumerate(shape)]
        cols = np.ravel_multi_index(reach, shape, mode="wrap").astype(np.int32)
        if not periodic:
            cols[functools.reduce(np.logical_or, [(x < 0) | (x >= n)
                                                  for x, n in zip(reach, shape)])] = -1
        # on a periodic axis of n >= 3 nodes, node 0 wraps its offset -1 to
        # n - 1 and node n - 1 its offset +1 to 0
        rolls = [(b, node, shift) for b, n in enumerate(shape) if periodic and n >= 3
                 for node, shift in ((0, -1), (n - 1, 1))]
        for b, node, shift in rolls:
            idx = (slice(None),) * b + (node,)
            cols[idx] = np.roll(cols[idx], shift, axis=d - 1 + b)
        cols = cols.reshape(-1, 3**d)
        return _StiffnessLayout(lt.reshape(2**d, 2**d, d * d), adds, rolls, cols,
                                np.ascontiguousarray((cols >= 0).T), periodic and min(cells) <= 2)

    # -- helpers -------------------------------------------------------------

    @property
    def d(self):
        return self.domain.dim

    def sample_vector(self, fn):
        """Flatten a callable (points -> (N, d)) sampled at element midpoints."""
        vals = np.asarray(fn(self.elem_mid))
        if vals.shape != (self.n_elem, self.d):
            raise ShapeError(f"vector sampler returned shape {vals.shape}")
        return vals.ravel()

    def field_as_elements(self, v):
        return np.asarray(v).reshape(self.n_elem, self.d)

    def mean_center(self, u):
        w = self.scalar_space.weight
        return u - (w @ u) / w.sum()


@lru_cache(maxsize=1)
def build_grad(domain, flavor="dirichlet"):
    """The discrete gradient of the given flavor. The cache keeps the last
    grid built, so the calls of one experiment step share it, and no grid
    outlives the next one built."""
    return DiscreteGradient(domain, flavor)


class CoefficientField:
    """Cell-wise d x d coefficient with declared coercivity bounds.

    Membership in the admissible class is checked cell-wise: the smallest
    eigenvalue of Re a(x) must reach alpha and of Re a(x)^{-1} must reach
    1/beta on every cell. Sampling at cell midpoints preserves these bounds
    exactly. The values are not to be changed after construction: the
    margins are computed once per field.
    """

    def __init__(self, domain, values, bounds=None, check=True):
        self.domain = domain
        self._margins = None
        d = domain.dim
        values = np.asarray(values)
        if values.ndim == 1:
            values = values[:, None, None] * np.eye(d)
        elif values.ndim == 2 and values.shape == (d, d):
            values = np.broadcast_to(values, (domain.n_cells, d, d)).copy()
        if values.shape != (domain.n_cells, d, d):
            raise ShapeError(f"coefficient values shape {values.shape}")
        self.values = values
        self.bounds = bounds
        if bounds is not None and check:
            alpha, beta = bounds
            re_min, re_inv_min = self.coercivity_margins()
            if re_min < alpha - 1e-12 or re_inv_min < 1.0 / beta - 1e-12:
                raise CoercivityError(
                    f"field violates declared bounds: Re min {re_min:.6g} vs {alpha}, "
                    f"Re inv min {re_inv_min:.6g} vs {1.0 / beta:.6g}"
                )

    @classmethod
    def from_function(cls, domain, fn, bounds=None, check=True):
        mids = domain.cell_midpoints()
        vals = np.asarray(fn(mids))
        return cls(domain, vals, bounds=bounds, check=check)

    @classmethod
    def constant(cls, domain, value, bounds=None, check=True):
        d = domain.dim
        mat = np.atleast_2d(value) * (np.eye(d) if np.ndim(value) == 0 else 1.0)
        return cls(domain, np.broadcast_to(mat, (domain.n_cells, d, d)).copy(),
                   bounds=bounds, check=check)

    def coercivity_margins(self):
        """(min over cells of the smallest eigenvalue of Re a, the same for
        Re a^{-1}); closed forms for d <= 2, ``eigvalsh`` for d = 3. A
        singular cell of a d <= 2 field gives -inf for the second."""
        if self._margins is None:
            a = self.values
            with np.errstate(divide="ignore", invalid="ignore"):
                if a.shape[1] == 1:
                    inv = 1.0 / a
                elif a.shape[1] == 2:     # adj(a) / det(a)
                    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
                    adj = np.stack([a[:, 1, 1], -a[:, 0, 1], -a[:, 1, 0], a[:, 0, 0]], -1)
                    inv = adj.reshape(a.shape) / det[:, None, None]
                else:
                    inv = np.linalg.inv(a)
            re_inv_min = _re_lambda_min(inv) if np.isfinite(inv).all() else -np.inf
            self._margins = (_re_lambda_min(a), re_inv_min)
        return self._margins

    def is_member(self, alpha, beta, tol=1e-12):
        re_min, re_inv_min = self.coercivity_margins()
        return re_min >= alpha - tol and re_inv_min >= 1.0 / beta - tol

    def adjoint_field(self):
        return CoefficientField(self.domain, self.values.conj().transpose(0, 2, 1),
                                bounds=self.bounds, check=False)

    def inverse_field(self):
        inv = np.linalg.inv(self.values)
        b = None if self.bounds is None else (1.0 / self.bounds[1], 1.0 / self.bounds[0])
        return CoefficientField(self.domain, inv, bounds=b, check=False)

    def operator(self, grad):
        """Multiplication operator on the element vector space (sparse)."""
        d, n_e = self.domain.dim, grad.n_elem
        # row (e, i) stores the d entries a_ij at the columns (e, j)
        cols = np.broadcast_to((np.arange(n_e) * d)[:, None, None] + np.arange(d), (n_e, d, d))
        mat = sp.csr_matrix((self.values[grad.elem_cell].ravel(), cols.ravel(),
                             np.arange(0, n_e * d * d + 1, d)), shape=(n_e * d, n_e * d))
        return LinearOp(grad.vector_space, grad.vector_space, matrix=mat)

    def apply(self, grad, v):
        """a v on the element vector space: elements run over the d! simplex
        types, cells in C order within a type (``elem_cell``), so the cell
        values broadcast over the types, one product per column of a."""
        d = self.domain.dim
        v = np.asarray(v).reshape(-1, self.domain.n_cells, 1, d)
        out = self.values[..., 0] * v[..., 0]
        for j in range(1, d):
            out += self.values[..., j] * v[..., j]
        return out.ravel()


def _re_lambda_min(m):
    """Smallest eigenvalue of Re m = (m + m^H)/2 over a stack of cell
    matrices. For 2 x 2, Re m = [[p, q], [q*, r]] has the eigenvalues
    (p + r)/2 -+ sqrt(((p - r)/2)^2 + |q|^2)."""
    if m.shape[1] == 1:
        return float(m[:, 0, 0].real.min())
    if m.shape[1] == 2:
        p, r = m[:, 0, 0].real, m[:, 1, 1].real
        q = 0.5 * (m[:, 0, 1] + m[:, 1, 0].conj())
        return float((0.5 * (p + r) - np.hypot(0.5 * (p - r), np.abs(q))).min())
    re = 0.5 * (m + m.conj().transpose(0, 2, 1))
    return float(np.linalg.eigvalsh(re)[:, 0].min())


class RHSFunctional:
    """Right-hand side: an L2 density g (phi -> <g, phi>) or a flux form
    div_{-1} r (phi -> -<r, grad phi>)."""

    def __init__(self, kind, data):
        if kind not in ("density", "flux"):
            raise ShapeError("kind must be 'density' or 'flux'")
        self.kind = kind
        self.data = data

    @classmethod
    def density(cls, g):
        return cls("density", g)

    @classmethod
    def flux(cls, r):
        return cls("flux", r)

    def assemble(self, grad):
        """Galerkin load vector F_i = f(nodal basis_i)."""
        if self.kind == "density":
            g = self.data(grad.node_coords) if callable(self.data) else np.asarray(self.data)
            g = np.broadcast_to(g, (grad.scalar_space.dim,))
            return grad.scalar_space.apply_weight(g)
        r = grad.sample_vector(self.data) if callable(self.data) else np.asarray(self.data)
        return -(grad.matrix.T @ grad.vector_space.apply_weight(r))


def _slot_sums(grad, a):
    """K^T in its (3,) * d + ``node_shape`` slots (neighbour offset per axis,
    then row node): the sums of the cells' transposed local stiffness blocks
    a_cell @ L, one row corner's blocks at a time. The offset axes come
    first, so that every slice-add runs along the grid's last axis."""
    layout, d = grad._stiffness_layout, grad.d
    slots = np.zeros((3,) * d + grad.node_shape, dtype=np.result_type(layout.lt, a.values))
    for lt, adds in zip(layout.lt, layout.adds):
        blocks = (lt @ a.values.reshape(-1, d * d).T).reshape((2,) * d + grad.domain.cells)
        for src, dst in adds:
            slots[dst] += blocks[src]
    for b, node, shift in layout.rolls:
        idx = (slice(None),) * (d + b) + (node,)
        slots[idx] = np.roll(slots[idx], shift, axis=b)
    return slots.reshape(3**d, -1)


# entries per chunk of the loops over a grid matrix's slots or stored
# entries: chunk copies of 256 KiB are reused by the allocator from chunk to
# chunk and call to call, where 2 MiB ones were mapped afresh each time
# (3455 page faults and twice the time of a 256^2 galerkin_matrix)
_CHUNK_ENTRIES = 2**15


def _entry_chunks(k):
    """The stored entries of a CSR or CSC matrix, about ``_CHUNK_ENTRIES``
    at a time in whole compressed lines: per chunk that holds any, the major
    and minor index of each entry (in K's index dtype) and the slice of
    ``k.data`` that holds them."""
    n_lines = len(k.indptr) - 1
    lines = max(1, _CHUNK_ENTRIES * n_lines // max(k.nnz, 1))
    for start in range(0, n_lines, lines):
        stop = min(start + lines, n_lines)
        entries = slice(k.indptr[start], k.indptr[stop])
        if entries.start == entries.stop:
            continue
        major = np.repeat(np.arange(start, stop, dtype=k.indices.dtype),
                          np.diff(k.indptr[start:stop + 1]))
        yield major, k.indices[entries], entries


def galerkin_matrix(grad, a):
    """Weighted Galerkin matrix G^H W_v M_a G (sparse CSC, canonical, no
    stored zeros), with no sparse product. All simplices of a cell share its
    coefficient, so the cell's local stiffness block is linear in a_cell
    through a fixed map L of the grid; the transposed blocks are summed into
    (node, neighbour offset) slots of K^T, whose compressed rows are the
    columns of K. They are compressed a chunk of ``_CHUNK_ENTRIES`` slots at
    a time, through a node-major copy of the chunk, so that no full-size
    copy of the slots is formed."""
    layout = grad._stiffness_layout
    n, width = layout.cols.shape
    slots = _slot_sums(grad, a)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum((layout.valid & (slots != 0)).sum(axis=0, dtype=np.int32), out=indptr[1:])
    data = np.empty(indptr[-1], dtype=slots.dtype)
    indices = np.empty(indptr[-1], dtype=np.int32)
    step = max(1, _CHUNK_ENTRIES // width)
    for start in range(0, n, step):
        stop = min(start + step, n)
        nodes, kept = slice(start, stop), slice(indptr[start], indptr[stop])
        values, cols = slots[:, nodes].T.ravel(), layout.cols[nodes].ravel()
        chosen = np.flatnonzero((cols >= 0) & (values != 0))
        np.take(values, chosen, out=data[kept], mode="clip")
        np.take(cols, chosen, out=indices[kept], mode="clip")
    k = sp.csc_matrix((data, indices, indptr), shape=(n, n))
    if layout.merge:
        k.sum_duplicates()
        k.eliminate_zeros()
    return k


# the rebuild of a separable K from its factors matches K to this fraction
# of its largest entry (roundoff of the sums that assemble K)
_SEPARATION_TOL = 1e-13


def _trapezoid(n):
    """The 1-d trapezoid weights (1/2, 1, ..., 1, 1/2) of n Neumann nodes."""
    return np.r_[0.5, np.ones(n - 2), 0.5]


def _stencil(grad, k):
    """The rows of K as ``(3,) * d + node_shape`` slots, S[o, i] = K[i, i + o]
    for the neighbour offset o (one entry in {-1, 0, 1} per axis), or None
    when K has an entry that no offset's flat index step reaches, or the
    grid is too thin for the steps to be distinct (an axis after the first
    with at most 2 nodes). Dirichlet and Neumann grids only. K's entries are
    placed a chunk at a time (:func:`_entry_chunks`), so no index array of
    K's length is formed.

    An entry is placed by its flat step j - i alone, so one that couples
    nodes which are not neighbours lands where i + o is off the grid;
    :func:`_mode_factors` rebuilds those slots as zeros and rejects it."""
    d, shape = grad.d, grad.node_shape
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    steps = np.array(list(itertools.product((-1, 0, 1), repeat=d))) @ strides
    reach = steps.max()
    if len(np.unique(steps)) < len(steps):
        return None
    if k.format not in ("csr", "csc"):
        k = k.tocsr()
    if not k.has_canonical_format:
        k = k.copy()
        k.sum_duplicates()
    # index arithmetic in the dtype of K's indices, which needs no casts; a
    # step beyond +-reach clips onto one of the -1 ends of the lookup
    lookup = np.full(2 * reach + 3, -1, dtype=k.indices.dtype)
    lookup[steps + reach + 1] = np.arange(len(steps))
    n = k.shape[0]
    out = np.zeros(len(steps) * n, dtype=k.dtype)
    for major, minor, entries in _entry_chunks(k):
        rows, cols = (major, minor) if k.format == "csr" else (minor, major)
        step = cols - rows
        step += reach + 1
        slot = lookup.take(step, mode="clip")
        if slot.min(initial=0) < 0:
            return None
        slot *= n
        slot += rows
        out[slot] = k.data[entries]
    return out.reshape((3,) * d + shape)


def _mode_factors(grad, stencil, axis):
    """The factors of a K that separates along every axis but ``axis``
    (None: along all of them), or None when K does not.

    K separates along the transformed axes T when, with the D of
    :class:`_TransformInverse` (ones for ``dirichlet``),

        K = sum over offsets o of  M[|o_T|, o_axis] (x) prod_(b in T) E_b(o_b),

    E_b(0) = D_b and E_b(+-1) the shifts along b: each coefficient M, a
    function of the node on ``axis`` alone, is the same for o_b = +1 and -1,
    so that the 1-d transform along b diagonalises it. M is read off the
    first node of every transformed axis, at the offsets 0 and +1 there, and
    K is rebuilt from it, offset by offset; the factors stand when the
    rebuild matches K to roundoff, entry by entry. They are returned as one
    (2,) * |T| + (3, n) array: the transformed axes in order, then the
    offset and the node along ``axis`` (for None, the (2,) * d array)."""
    d, shape = grad.d, grad.node_shape
    moved = [b for b in range(d) if b != axis]
    read = tuple(slice(1, 3) if b in moved else slice(None) for b in range(d)) \
        + tuple(0 if b in moved else slice(None) for b in range(d))
    factors = stencil[read].copy()
    weights = [_trapezoid(n) if grad.flavor == "neumann" and b != axis else np.ones(n)
               for b, n in enumerate(shape)]
    for b in moved:     # undo the D_b(0) of the offset-0 coefficients read on node 0
        factors[(slice(None),) * b + (0,)] /= weights[b][0]
    along = tuple(n if b == axis else 1 for b, n in enumerate(shape))
    # the largest |entry|, with no |stencil| copy for a real K
    top = np.abs(stencil).max(initial=0.0) if np.iscomplexobj(stencil) \
        else max(stencil.max(initial=0.0), -stencil.min(initial=0.0))
    bound = _SEPARATION_TOL * top
    for o in itertools.product(range(3), repeat=d):
        # o_b = -1, 0, +1 on a transformed axis share the coefficients of
        # |o_b| = 1, 0, 1
        model = np.reshape(factors[tuple(o_b if b == axis else int(o_b != 1)
                                         for b, o_b in enumerate(o))], along)
        # no coefficient where i + o is off the grid
        for b in range(d):
            i = np.arange(shape[b])
            e_b = (i >= 1, weights[b], i <= shape[b] - 2)[o[b]]
            model = model * e_b.reshape((1,) * b + (-1,) + (1,) * (d - 1 - b))
        if not np.abs(stencil[o] - model).max(initial=0.0) <= bound:
            return None
    return factors if axis is None else np.moveaxis(factors, axis, -2)


class _TransformInverse:
    """Exact inverse of a grid stiffness K that separates: a 1-d fast
    transform along every axis on which K's weights are constant
    diagonalises K there, and what is left is one tridiagonal system along
    the remaining axis per transverse mode. On a 1-d grid no axis is
    transformed and K is that one tridiagonal system.

    The transforms are the FFT for ``periodic`` (numpy's, real for a real
    load), DST-I for ``dirichlet`` and DCT-I of D^-1 K for ``neumann``
    (scipy's), where D is the tensor product of the 1-d trapezoid weights
    (1/2, 1, ..., 1, 1/2) of the transformed axes.

    - ``axis=None`` transforms every axis; this is the inverse of a constant
      K, such as the unit stiffness K_1 (``k=None``). The eigenvalues are
      the transform of K's first column (:func:`_unit_column` for K_1) over
      that of the first unit vector, so the grid spacing needs no special
      case. The zero mode of ``neumann``/``periodic`` is dropped. The inverse
      is exact except for ``neumann`` in 3-d, where the Kuhn tetrahedra make
      K_1 differ from a tensor product on the boundary edges; there it is a
      spectrally equivalent preconditioner only.
    - ``axis=b`` (``dirichlet`` or ``neumann``, with the ``factors`` of
      :func:`_mode_factors`) transforms every other axis. Mode k's system
      along b has the coefficients sum_c M[c] prod_(b' in T) (2 cos theta_k)^c,
      one tridiagonal matrix per mode; all of them are stacked into one
      tridiagonal matrix that LAPACK factorises once (``gttrf``, partial
      pivoting) and solves for every load (``gttrs``). A zero pivot raises
      :class:`NotInM`. On ``neumann`` grids the system of the zero mode is
      singular, with the constants as kernel; its first node is grounded.

    :meth:`exact` picks the axis from K alone and returns None for a K that
    does not separate. The inverse maps one vector or an (n, k) block,
    transforming over the grid axes only."""

    def __init__(self, grad, k=None, axis=None, factors=None):
        d = grad.d
        self._axis = axis
        self._axes = tuple(b for b in range(d) if b != axis)
        self._shape = grad.node_shape
        self._periodic = grad.flavor == "periodic"
        col = None if axis is not None else _unit_column(grad) if k is None \
            else k[:, [0]].toarray().reshape(self._shape)
        if self._periodic:
            # numpy's FFT; the transform of the first unit vector is all ones
            self._lam = np.fft.fftn(col).real
            self._lam[(0,) * d] = np.inf
            self._half = self._lam[..., :self._shape[-1] // 2 + 1]
            return
        self._scale = np.array(1.0)
        if grad.flavor == "neumann":
            trapezoids = [_trapezoid(n) if b != axis else np.ones(n)
                          for b, n in enumerate(self._shape)]
            self._scale = 1.0 / functools.reduce(np.multiply.outer, trapezoids)
        if self._axes:
            import scipy.fft    # loaded only when an axis is transformed

            fwd, inv = {"dirichlet": (scipy.fft.dstn, scipy.fft.idstn),
                        "neumann": (scipy.fft.dctn, scipy.fft.idctn)}[grad.flavor]
            self._fwd = functools.partial(fwd, type=1, axes=self._axes)
            self._inv = functools.partial(inv, type=1, axes=self._axes)
        else:
            self._fwd = self._inv = np.asarray    # a 1-d grid: no axis to transform
        if axis is not None:
            self._factor_modes(grad, factors)
            return
        unit = np.zeros(self._shape)
        unit[(0,) * d] = 1.0
        self._lam = self._fwd(self._scale * col) / self._fwd(unit)
        if not np.iscomplexobj(col):
            self._lam = self._lam.real
        if grad.flavor == "neumann":
            self._lam[(0,) * d] = np.inf

    @classmethod
    def exact(cls, grad, k):
        """The inverse of K when K separates (:func:`_mode_factors`), with
        every axis transformed when it can be and else the first axis that
        leaves the others transformable; on a 1-d grid, where every
        tridiagonal K separates, no axis is transformed. None when K does not
        separate, and on ``periodic`` grids and grids of fewer than 3 nodes
        (scipy's ``gttrf`` takes no fewer unknowns)."""
        if grad.flavor == "periodic" or k.shape[0] < 3:
            return None
        stencil = _stencil(grad, k)
        if stencil is None:
            return None
        for axis in ((None,) if grad.d > 1 else ()) + tuple(range(grad.d)):
            factors = _mode_factors(grad, stencil, axis)
            if factors is not None:
                return cls(grad, k, axis, factors)
        return None

    def _factor_modes(self, grad, factors):
        """Form and factorise the stacked tridiagonal mode systems."""
        # the symbol of the shift pair along a transformed axis of n nodes
        # is 2 cos theta_k on DST-I (theta_k = (k + 1) pi/(n + 1)) and on
        # the DCT-I of D^-1 (theta_k = k pi/(n - 1))
        coef = np.moveaxis(factors, -2, 0)
        for b in self._axes:
            n = self._shape[b]
            theta = (np.arange(1, n + 1) / (n + 1) if grad.flavor == "dirichlet"
                     else np.arange(n) / (n - 1)) * np.pi
            coef = np.tensordot(coef, np.stack([np.ones(n), 2.0 * np.cos(theta)]), ([1], [0]))
        # (offset, node along the axis, transverse modes) -> modes major
        lower, diag, upper = np.moveaxis(coef, 1, -1).reshape(3, -1).copy()
        self._ground = grad.flavor == "neumann"
        if self._ground:
            diag[0], upper[0] = 1.0, 0.0
        gttrf, self._gttrs = scipy.linalg.get_lapack_funcs(("gttrf", "gttrs"), (diag,))
        *self._lu, info = gttrf(lower[1:], diag, upper[:-1])
        if info > 0:
            raise NotInM(f"mode system {(info - 1) // self._shape[self._axis]} is singular")

    def _solve_modes(self, hat):
        """Solve the mode systems for the transformed load ``hat``."""
        lines = np.moveaxis(hat, self._axis, len(self._shape) - 1)
        b = lines.reshape((-1,) + hat.shape[len(self._shape):])
        if self._ground:
            b = b.copy()
            b[0] = 0.0
        if np.iscomplexobj(b) and not np.iscomplexobj(self._lu[1]):
            x = self._gttrs(*self._lu, b.real)[0] + 1j * self._gttrs(*self._lu, b.imag)[0]
        else:
            x = self._gttrs(*self._lu, b)[0]
        return np.moveaxis(x.reshape(lines.shape), len(self._shape) - 1, self._axis)

    def __call__(self, r):
        extra = (..., None) if r.ndim == 2 else ...
        grid = r.reshape(self._shape + r.shape[1:])
        if self._periodic and np.iscomplexobj(r):
            u = np.fft.ifftn(np.fft.fftn(grid, axes=self._axes) / self._lam[extra],
                             axes=self._axes)
        elif self._periodic:
            u = np.fft.irfftn(np.fft.rfftn(grid, axes=self._axes) / self._half[extra],
                              s=self._shape, axes=self._axes)
        elif self._axis is None:
            u = self._inv(self._fwd(self._scale[extra] * grid) / self._lam[extra])
        else:
            u = self._inv(self._solve_modes(self._fwd(self._scale[extra] * grid)))
        return u.reshape(r.shape)


def _unit_column(grad):
    """Column 0 of the unit stiffness K_1, bit for bit from K_1 of a grid of
    the same flavor and spacing with at most 4 cells per axis (4 h divides
    back to h exactly, 3 h need not): node 0 couples only to its neighbours,
    whose slot sums run in the same order on both grids."""
    dom = grad.domain
    sub = DiscreteGradient(GridDomain(
        [e if c <= 3 else (0.0, 4 * h) for e, c, h in zip(dom.extents, dom.cells, dom.spacing)],
        [min(c, 4) for c in dom.cells]), grad.flavor)
    k1 = galerkin_matrix(sub, CoefficientField.constant(sub.domain, 1.0))
    # along a longer axis, the nodes 0, 1 and the last (-1 on a periodic one)
    near = np.ix_(*[np.arange(n) if n == m else np.array([0, 1, -1])
                    for n, m in zip(grad.node_shape, sub.node_shape)])
    col = np.zeros(grad.node_shape)
    col[near] = k1[:, [0]].toarray().reshape(sub.node_shape)[near]
    return col


def _is_hermitian(k):
    """max |K - K^H| <= 1e-12 max |K| for a square sparse K, from its stored
    entries a chunk of whole lines at a time: K[i, i + s] adds itself and
    K[i + s, i] its negated conjugate at (s, i) of a table with a row per
    occupied distance s (in CSC the two swap, which keeps |K - K^H|). Entry
    (s, i) is final once line i + s is read, so a row is a ring of its open
    columns, at most s plus one chunk's lines. No transposed copy of K."""
    if k.format not in ("csr", "csc"):
        k = k.tocsr()
    n = k.shape[0]
    occupied, span, done = np.zeros(n, dtype=bool), 1, 0
    for major, minor, _ in _entry_chunks(k):
        far = minor - major
        occupied[np.abs(far, out=far)] = True
        span, done = max(span, major[-1] + 1 - done), major[-1] + 1
    dists = np.flatnonzero(occupied)
    width = 1 << int(np.minimum(dists + span, n - dists).max(initial=1) - 1).bit_length()
    ring = np.zeros((len(dists), width), dtype=k.dtype)
    row = np.zeros(n, dtype=k.indices.dtype)    # distance -> its row's start in the ring
    row[dists] = np.arange(len(dists)) * width
    gap, top, done = 0.0, 0.0, 0
    for major, minor, entries in _entry_chunks(k):
        vals, dist, before, done = k.data[entries], minor - major, done, major[-1] + 1
        slot = row.take(np.abs(dist))
        np.minimum(major, minor, out=major)
        slot += np.bitwise_and(major, width - 1, out=major)
        if np.iscomplexobj(vals):
            signed = np.where(dist >= 0, vals, 0) - np.where(dist <= 0, vals.conj(), 0)
        else:    # the real diagonal cancels
            signed = np.sign(dist, dtype=vals.dtype)
            signed *= vals
        del dist
        np.add.at(ring.reshape(-1), slot, signed)
        del signed, slot    # before the next chunk is cut
        top = max(top, np.abs(vals).max())
        for r, s in enumerate(dists):    # the columns i that line i + s has made final
            i = max(before - s, 0)
            while i < done - s:    # up to the ring's end, then from its start
                final = ring[r, i % width:][:done - s - i]
                gap = max(gap, np.abs(final).max())
                final[:] = 0
                i += len(final)
    # and the columns whose line i + s holds no entry and comes after the last that does
    return bool(max(gap, np.abs(ring).max(initial=0.0)) <= 1e-12 * top)


class _GridSolver:
    """Residual-checked solver of a grid system K u = F (one load or an
    (n, m) block) in any dimension. Flavors with constant kernels need
    compatible loads and return mean-centred solutions.

    The route is picked from K alone. A K that separates
    (:meth:`_TransformInverse.exact`: every tridiagonal K of a 1-d
    ``dirichlet`` or ``neumann`` grid, and every laminate and constant
    coefficient with a diagonal tensor on a 2-d or 3-d ``dirichlet`` grid
    and on a 2-d ``neumann`` one) is solved by one application of its exact
    inverse. Any other K runs CG (K Hermitian) or GMRES for at most 10 n
    steps, column by column, to ||r|| <= 1e-12 max(1, ||F||), preconditioned
    with the fast-transform inverse of the unit-coefficient stiffness K_1 of
    the same (domain, flavor), read off a grid of at most 4 cells per axis,
    which is spectrally equivalent to K with condition number at most
    beta/alpha; each column starts from the image of its load under that
    preconditioner, and a block goes through it in one batched transform.
    Either way the solution is checked once at 1e-10, column by column for
    a block. ``iterations`` holds the largest Krylov iteration count over
    the columns of the last solve."""

    _KRYLOV_TOL = 1e-12

    def __init__(self, grad, k):
        self.k = k
        self.iterations = 0
        self._grad = grad
        self._grounded = grad.flavor != "dirichlet"
        self._exact = _TransformInverse.exact(grad, k)
        self.prec = self._exact or _TransformInverse(grad)

    @functools.cached_property
    def _hermitian(self):
        """Whether K is Hermitian, which picks CG over GMRES."""
        return _is_hermitian(self.k)

    def for_matrix(self, k):
        """The solver of another matrix K on this grid's nodes."""
        return _GridSolver(self._grad, k)

    def solve(self, rhs):
        if self._grounded and np.any(np.abs(np.ones(len(rhs)) @ rhs)
                                     > 1e-8 * np.maximum(1.0, np.linalg.norm(rhs, axis=0))):
            raise CompatibilityError("load does not annihilate constants")
        u = self._exact(rhs) if self._exact else self._krylov(rhs)
        if self._grounded:
            u = self._grad.mean_center(u)
        _check_residual(self.k @ u, rhs)
        return u

    def _krylov(self, rhs):
        self.iterations = 0
        u = self.prec(rhs).astype(np.result_type(self.k.dtype, rhs.dtype), copy=False)
        if rhs.ndim == 1:
            return self._krylov_column(rhs, u)
        for j in range(rhs.shape[1]):
            u[:, j] = self._krylov_column(rhs[:, j], u[:, j])
        return u

    def _krylov_column(self, rhs, x0):
        n = self.k.shape[0]
        prec = spla.LinearOperator((n, n), matvec=self.prec,
                                   dtype=np.result_type(self.k.dtype, rhs.dtype))
        count = [0]

        def step(_):
            count[0] += 1

        # x0 = prec(rhs) is the exact solution when K is the unit stiffness,
        # which CG and GMRES then return with no step
        tols = dict(x0=x0, rtol=self._KRYLOV_TOL, atol=self._KRYLOV_TOL, M=prec,
                    callback=step)
        if self._hermitian:
            u, info = spla.cg(self.k, rhs, maxiter=10 * n, **tols)
        else:
            u, info = spla.gmres(self.k, rhs, restart=30, maxiter=max(1, n // 3),
                                 callback_type="pr_norm", **tols)
        self.iterations = max(self.iterations, count[0])
        if info != 0:
            raise SolverDiverged(f"Krylov solve stopped after {count[0]} iterations (info={info})")
        return u


def stiffness_solver(domain, flavor="dirichlet"):
    """Solver of the unit-coefficient stiffness matrix K_1, which the
    projections onto the gradient range solve with. Other grid solves do not
    use it: their preconditioner reads K_1 off a small grid."""
    grad = build_grad(domain, flavor)
    k1 = galerkin_matrix(grad, CoefficientField.constant(domain, 1.0))
    return _GridSolver(grad, k1)


def _solve_galerkin(grad, a, rhs):
    """Solve G^H W M_a G u = rhs (one load or an (n, m) block). A coefficient
    whose Galerkin matrix overflows raises :class:`CoercivityError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        k = galerkin_matrix(grad, a)
    if not np.isfinite(k.data).all():
        raise CoercivityError("the coefficient overflows its Galerkin matrix")
    return _GridSolver(grad, k).solve(rhs)


def _require_coercive(a):
    if a.bounds is not None and not a.is_member(*a.bounds):
        raise CoercivityError("coefficient violates its declared bounds")
    if a.bounds is None and a.coercivity_margins()[0] <= 0:
        raise CoercivityError("coefficient is not coercive")


def solve_elliptic(domain, a, f, flavor="dirichlet"):
    """Galerkin solution of the variational problem
    <a grad u, grad phi> = f(phi), plus the flux q = a grad u.

    Neumann and periodic flavors require compatible (mean-free) data and
    return the mean-free solution.
    """
    grad = build_grad(domain, flavor)
    _require_coercive(a)
    rhs = f.assemble(grad)
    u = _solve_galerkin(grad, a, rhs)
    q = a.apply(grad, grad.matrix @ u)
    return u, q


def solve_affine(domain, a, z, f):
    """Dirichlet affine-source problem: find u with
    <a (grad u + z), grad phi> = f(phi); returns (u, p) with
    p = a (grad u + z).

    The complementary characterisation of p is verified on a few probes of
    the orthogonal complement of the gradient range:
    <a^{-1} p, q> = <z, q> for q in that complement.
    """
    grad = build_grad(domain, "dirichlet")
    z_vec = grad.sample_vector(z) if callable(z) else np.asarray(z)
    rhs = f.assemble(grad) - grad.matrix.T @ grad.vector_space.apply_weight(a.apply(grad, z_vec))
    u = _solve_galerkin(grad, a, rhs)
    p = a.apply(grad, grad.matrix @ u + z_vec)
    err = affine_dual_residual(domain, a, z_vec, p, count=3)
    if err > 1e-8:
        raise SolverDiverged(f"dual residual {err:.3e} for the affine problem")
    return u, p


def _complement_project(grad, v):
    """(I - P) v with P the weighted projector onto ran(grad), for a vector
    or a block."""
    rhs = grad.matrix.T @ grad.vector_space.apply_weight(v)
    return v - grad.matrix @ stiffness_solver(grad.domain, grad.flavor).solve(rhs)


def affine_dual_residual(domain, a, z_vec, p, count=8):
    """max over complement probes q of |<a^{-1} p - z, q>| (normalized), for
    the Dirichlet gradient of ``domain``. The probes are fixed sine modes."""
    grad = build_grad(domain, "dirichlet")
    space = grad.vector_space
    q = _complement_project(grad, vector_probes(grad, count=count).matrix)
    nq = space.column_norms(q)
    keep = nq >= 1e-12
    mism = a.inverse_field().apply(grad, p) - z_vec
    pairs = space.gram(q[:, keep] / nq[keep], mism)
    return float(np.abs(pairs).max(initial=0.0)) / max(1.0, space.norm(z_vec))


def projected_inverse_1d(a, phi):
    """Closed-form inverse of the gradient-range compression of a 1-d
    multiplier: for mean-free phi,

        psi = a^{-1} phi - a^{-1} <1, a^{-1} phi> / <a^{-1}>,

    which is again mean-free. ``a`` holds cell values on a uniform grid of
    the unit interval, ``phi`` the same for one function or, as the columns
    of an (m, k) block, for k of them.
    """
    a = np.asarray(a)
    phi = np.asarray(phi)
    if a.ndim != 1 or phi.ndim not in (1, 2) or phi.shape[0] != a.size:
        raise ShapeError("need matching 1-d cell arrays")
    h = 1.0 / a.size
    pt = phi.T      # one function per row, so that a scales the last axis
    mean_phi = h * pt.sum(-1)
    if np.any(np.abs(mean_phi) > 1e-10 * np.maximum(1.0, np.sqrt(h) * np.linalg.norm(pt, axis=-1))):
        raise NonMeanFree(f"<1, phi> = {np.abs(mean_phi).max():.3e}")
    ainv_mean = h * (1.0 / a).sum()
    if abs(ainv_mean) < 1e-12:
        raise VanishingHarmonicMean("<a^{-1}> vanishes")
    ainv_phi = pt / a
    correction = (h * ainv_phi.sum(-1)) / ainv_mean
    psi = ainv_phi - correction[..., None] / a
    return (psi - (h * psi.sum(-1))[..., None]).T


def hminus_norm(domain, f):
    """Dual norm of a functional through the Riesz map of the unit-weight
    Dirichlet energy: sqrt(F^H K^{-1} F) for the load vector F.

    This is the energy dual, not the graph-norm dual; the two are equivalent
    with constants controlled by the Poincare constant.
    """
    grad = build_grad(domain, "dirichlet")
    rhs = f.assemble(grad)
    w = stiffness_solver(domain, "dirichlet").solve(rhs)
    val = np.vdot(rhs, w).real
    return float(np.sqrt(max(val, 0.0)))


@dataclass
class DivergenceDefect:
    """Strong gradient-range projection gap of a field difference and the
    dual-norm gap of its distributional divergence. In the energy dual the
    divergence composed with the range embedding is an exact isometry, so the
    two routes agree; both are computed independently."""

    projection_gap: float
    divergence_gap: float


def divergence_defect(domain, r_n, r):
    """Both defect measures for a pair of vector fields: the weighted norm of
    the projection of r_n - r onto the Dirichlet gradient range, and the dual
    norm of div_{-1}(r_n - r)."""
    grad = build_grad(domain, "dirichlet")
    rn = grad.sample_vector(r_n) if callable(r_n) else np.asarray(r_n)
    rr = grad.sample_vector(r) if callable(r) else np.asarray(r)
    diff = rn - rr
    proj = diff - _complement_project(grad, diff)
    s_gap = grad.vector_space.norm(proj)
    h_gap = hminus_norm(domain, RHSFunctional.flux(diff))
    return DivergenceDefect(projection_gap=s_gap, divergence_gap=h_gap)


def smooth_bump(domain):
    """Compactly supported smooth cutoff on the domain (product bump)."""
    lo = np.array(domain.lo)
    hi = np.array([b for _, b in domain.extents])
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    def phi(points):
        t = (np.atleast_2d(points) - center) / half
        inside = np.all(np.abs(t) < 1.0, axis=1)
        out = np.zeros(len(t))
        tt = np.clip(t[inside], -1 + 1e-300, 1 - 1e-300)
        out[inside] = np.exp((1.0 - 1.0 / (1.0 - tt**2)).sum(axis=1))
        return out

    return phi


def divcurl_pairing(domain, q_fields, r_fields, phi=None):
    """Cutoff pairings int <r_n, q_n> phi per index n.

    Fields are flattened element arrays or callables; the cutoff defaults to
    the smooth product bump. Convergence of the values toward the pairing of
    the weak limits is the business of the calling experiment; with a failing
    divergence test the pairing genuinely diverges from the product of the
    limits and this routine will faithfully report it.
    """
    if len(q_fields) != len(r_fields):
        raise ShapeError("need equally many q and r fields")
    grad = build_grad(domain, "dirichlet")
    phi = phi or smooth_bump(domain)
    phival = phi(grad.elem_mid)
    out = []
    for q, r in zip(q_fields, r_fields):
        qv = grad.sample_vector(q) if callable(q) else np.asarray(q)
        rv = grad.sample_vector(r) if callable(r) else np.asarray(r)
        qe = grad.field_as_elements(qv)
        re = grad.field_as_elements(rv)
        val = (grad.elem_measure * phival * np.einsum("ei,ei->e", re.conj(), qe)).sum()
        out.append(val)
    return np.array(out)


def divcurl_counterexample(cells, n_list):
    """Cutoff pairings of q_n = r_n = sin(2 pi n x) per n on ``cells`` cells
    of [0, 1]: their weak limits pair to 0, but they tend to half the
    cutoff's mass, the meta's ``half_mass``."""
    from .homogenize import _report

    dom = GridDomain.interval(0, 1, cells)
    phi, grad = smooth_bump(dom), build_grad(dom)
    fields = [(lambda pts, n=n: np.sin(2 * np.pi * n * pts)) for n in n_list]
    rows = [{"n": n, "pairing": v.real, "weak_limit_product": 0.0, "gap": abs(v.real)}
            for n, v in zip(n_list, divcurl_pairing(dom, fields, fields, phi=phi))]
    half = 0.5 * (grad.elem_measure * phi(grad.elem_mid)).sum()
    return _report("divcurl", rows, {"mode": "counterexample", "half_mass": half})


def divcurl_compliant(profile, bounds, cells_per_period, n_list):
    """Cutoff pairings of G u_n with r = cos(pi x), u_n the Dirichlet solve
    of load 1 with a_n = profile(n x mod 1) on ``cells_per_period`` n
    cells, against that of the harmonic-mean solve on the finest grid (the
    meta's ``limit``)."""
    from .homogenize import _oscillate, _per_n, laminate_limit

    check_budget((cells_per_period * max(n_list),), "dirichlet")    # before any field is sampled
    f = RHSFunctional.density(lambda pts: np.ones(len(pts)))
    r_fn = lambda pts: np.stack([np.cos(np.pi * pts[:, 0])], axis=-1)

    def pairing(cells, field):
        dom = GridDomain.interval(0, 1, cells)
        u, _ = solve_elliptic(dom, field(dom), f)
        g = build_grad(dom)
        return divcurl_pairing(dom, [g.matrix @ u], [g.sample_vector(r_fn)])[0]

    a_h, _ = laminate_limit(profile)
    lim = pairing(cells_per_period * max(n_list), lambda dom: CoefficientField.constant(
        dom, a_h, bounds=bounds, check=False))

    def row(n):
        v = pairing(cells_per_period * n, lambda dom: CoefficientField.from_function(
            dom, lambda pts: _oscillate(profile, n, pts[:, 0]), bounds=bounds))
        return {"n": n, "pairing": v.real, "weak_limit_product": lim.real, "gap": abs(v - lim)}

    return _per_n("divcurl", n_list, row, {"mode": "compliant", "limit": lim})


def divcurl_verdict(report, tol=_DIVCURL_TOL, gap_floor=_DIVCURL_GAP_FLOOR):
    """Compliant: the last gap is at most ``tol`` times the limit pairing and
    the first. Counterexample: every pairing stays above ``gap_floor`` times
    half the cutoff's mass, and the last is within 5 % of that half."""
    first, last, meta = report.rows[0], report.rows[-1], report.meta
    if meta["mode"] == "compliant":
        ok = last["gap"] <= tol * abs(meta["limit"]) and first["gap"] >= last["gap"]
        return [] if ok else ["compliant pairing did not converge to the limit pairing"]
    half = meta["half_mass"]
    return [msg for msg, bad in (
        ("counterexample pairing collapsed toward zero",
         not all(report.values("gap") > gap_floor * abs(half))),
        ("counterexample pairing missed half the cutoff mass",
         abs(last["pairing"] - half) > 0.05 * abs(half))) if bad]


def divtest_experiment(cells, n_list):
    """The two defects of :func:`divergence_defect` on ``cells`` cells of
    [0, 1]: case 0 (n = 0) of the zero field, then case 1 of cos(2 pi n x)."""
    from .homogenize import _per_n

    dom = GridDomain.interval(0, 1, cells)
    grad = build_grad(dom)
    zero = np.zeros(grad.vector_space.dim)

    def row(n):
        r_n = grad.sample_vector(lambda pts: np.cos(2 * np.pi * n * pts)) if n else zero
        d = divergence_defect(dom, r_n, zero)
        return {"case": int(n > 0), "n": n, "projection_gap": d.projection_gap,
                "divergence_gap": d.divergence_gap}

    return _per_n("divtest", [0, *n_list], row, {})


def divtest_verdict(report):
    """In every row both gaps are below 1e-8 or both above 1e-3."""
    def together(gaps):
        return all(g < _DIVTEST_SMALL for g in gaps) or all(g > _DIVTEST_LARGE for g in gaps)

    return [f"divtest row n={r['n']}: gaps did not vanish together" for r in report.rows
            if not together((r["projection_gap"], r["divergence_gap"]))]


# -- probe construction ------------------------------------------------------

# (per_axis, cap) of the two sine-mode probe families, read by the builders
# and the pairings alike, so both always see one family
_SCALAR_MODES = (5, 25)
_VECTOR_MODES = (3, 25)


def _sine_modes(domain, per_axis, cap):
    """Lowest tensor-product sine mode indices, ordered by |k|^2, as the
    rows of an (m, d) array."""
    ks = list(itertools.product(range(1, per_axis + 1), repeat=domain.dim))
    ks.sort(key=lambda k: (sum(x * x for x in k), k))
    return np.array(ks[:cap], dtype=int).reshape(-1, domain.dim)


def _sine_tables(domain, modes, axes):
    """Per axis b, the tables sin(k_b pi t) and (k_b pi / L_b) cos(k_b pi t)
    at t = (x - lo_b)/L_b for the coordinates ``axes[b]``, one column per
    mode. Each sine and cosine is evaluated once per coordinate and per
    distinct k_b."""
    tables = []
    for b, (x, (a, end)) in enumerate(zip(axes, domain.extents)):
        span = end - a
        k = np.arange(1, modes[:, b].max(initial=0) + 1)
        arg = (k * np.pi)[None, :] * ((x - a) / span)[:, None]
        column = modes[:, b] - 1
        tables.append((np.sin(arg)[:, column],
                       ((k * np.pi / span)[None, :] * np.cos(arg))[:, column]))
    return tables


def _outer_into(out, factors):
    """out[i_0, ..., i_(d-1), j] = the product of f[i_b, j] over the (b, f)
    pairs of ``factors``, multiplied in their order."""
    d = out.ndim - 1
    views = [f.reshape((1,) * b + (len(f),) + (1,) * (d - 1 - b) + (-1,)) for b, f in factors]
    if len(views) == 1:
        out[...] = views[0]
        return
    np.multiply(views[0], views[1], out=out)
    for v in views[2:]:
        out *= v


def _contract(field, factors):
    """The (j, m) sums over the grid of field[i_0, ..., i_(d-1), m] times
    the outer product that :func:`_outer_into` writes from ``factors``, one
    axis at a time and with no array of the grid's size per column j."""
    (_, first), *rest = sorted(factors, key=lambda bf: bf[0])
    x = np.tensordot(first, field, axes=(0, 0))
    for _, f in rest:
        x = np.einsum("jn...,nj->j...", x, f)
    return x


def _normalised_pairs(pairs, sq, block):
    """Pairings with the unit-norm probes from the pairings ``pairs`` with
    the raw ones and their squared weighted norms ``sq``, dropping the
    probes :meth:`ProbeSet.from_vectors` drops; shaped as
    ``space.gram(probes.matrix, block)``."""
    norms = np.sqrt(np.maximum(sq, 0.0))
    keep = norms > ProbeSet.DROP_TOL
    out = pairs[keep] / norms[keep, None]
    return out if np.ndim(block) == 2 else out[:, 0]


def _scalar_factors(grad):
    """The scalar probe family as one outer product of 1-d sine tables,
    one (b, table) per axis, one table column per probe."""
    modes = _sine_modes(grad.domain, *_SCALAR_MODES)
    tables = _sine_tables(grad.domain, modes, grad.node_axes)
    return [(b, sines) for b, (sines, _) in enumerate(tables)]


def scalar_probes(grad):
    """Smooth low-frequency scalar probes (tensor-product sine modes) at the
    nodes, weight-normalized; they mimic compactly supported test functions.
    Each column is an outer product of 1-d sine tables."""
    factors = _scalar_factors(grad)
    block = np.empty(grad.node_shape + (factors[0][1].shape[1],))
    _outer_into(block, factors)
    return ProbeSet.from_vectors(grad.scalar_space, block.reshape(-1, block.shape[-1]),
                                 copy=False)


def scalar_probe_pairs(grad, block):
    """``space.gram(scalar_probes(grad).matrix, block)`` for a vector or an
    (n, m) block on the nodes, with no probe formed: W times the block, on
    the node grid, is contracted with the 1-d sine tables one axis at a
    time, and W with their squares gives the probe norms."""
    space = grad.scalar_space
    b2 = space.check_block(block).reshape(space.dim, -1)
    factors = _scalar_factors(grad)
    wv = space.apply_weight(b2).reshape(grad.node_shape + b2.shape[1:])
    sq = _contract(space.weight.reshape(grad.node_shape + (1,)),
                   [(b, f * f) for b, f in factors])[:, 0]
    return _normalised_pairs(_contract(wv, factors), sq, block)


def _vector_terms(grad, cols, kinds):
    """The columns ``cols`` (a slice) of the vector probe family, in which
    column j holds kind j % per_mode of mode j // per_mode, as outer products
    of 1-d tables: their count and the terms (t, a, columns, factors), each
    the outer product of ``factors`` in component a of simplex type t."""
    d = grad.d
    modes = _sine_modes(grad.domain, *_VECTOR_MODES)
    per_mode = d * ("component" in kinds) + ("gradient" in kinds)
    r = range(len(modes) * per_mode)[cols]

    def place(kind):    # the columns of r holding ``kind``, from its start, and their modes
        first = (kind - r.start) % per_mode
        m = (r.start + first) // per_mode
        return slice(first, None, per_mode), slice(m, m + len(r[first::per_mode]))
    terms = []
    for t, axes in enumerate(grad.mid_axes):
        tables = _sine_tables(grad.domain, modes, axes)
        for c in range(d * ("component" in kinds)):
            local, m = place(c)
            terms.append((t, c, local, [(b, s[:, m]) for b, (s, _) in enumerate(tables)]))
        for a in range(d * ("gradient" in kinds)):
            local, m = place(per_mode - 1)
            terms.append((t, a, local, [(a, tables[a][1][:, m])]
                          + [(b, s[:, m]) for b, (s, _) in enumerate(tables) if b != a]))
    return len(r), terms


def vector_probes(grad, count=None, kinds=("component",), start=0):
    """Vector probes at element midpoints: per-component sine modes and,
    optionally, analytic gradient fields of the modes; per mode, the d
    component columns come before the gradient column, and the columns
    ``start`` to ``count`` are built. Each column is, per simplex type, an
    outer product of 1-d sine and cosine tables."""
    n_cols, terms = _vector_terms(grad, slice(start, count), kinds)
    block = np.zeros((len(grad.mid_axes),) + grad.domain.cells + (grad.d, n_cols))
    for t, a, cols, factors in terms:
        _outer_into(block[t, ..., a, cols], factors)
    return ProbeSet.from_vectors(grad.vector_space, block.reshape(grad.n_elem * grad.d, n_cols),
                                 copy=False)


def vector_probe_pairs(grad, block):
    """``space.gram(vector_probes(grad).matrix, block)`` for a vector or an
    (n, m) block at the element midpoints, with no probe formed: per simplex
    type and component, W times the block is contracted with the 1-d sine
    tables one axis at a time, and W with their squares gives the probe
    norms."""
    space = grad.vector_space
    b2 = space.check_block(block).reshape(space.dim, -1)
    n_cols, terms = _vector_terms(grad, slice(None), ("component",))
    shape = (len(grad.mid_axes),) + grad.domain.cells + (grad.d,)
    wv = space.apply_weight(b2).reshape(shape + b2.shape[1:])
    w = space.weight.reshape(shape)
    pairs = np.zeros((n_cols, b2.shape[1]), dtype=wv.dtype)
    sq = np.zeros(n_cols)
    for t, a, cols, factors in terms:
        pairs[cols] += _contract(wv[t, ..., a, :], factors)
        sq[cols] += _contract(w[t, ..., a, None], [(b, f * f) for b, f in factors])[:, 0]
    return _normalised_pairs(pairs, sq, block)
