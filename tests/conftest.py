"""Shared fixtures and the test-side Maxwell system."""

import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph

from homlab import hilbert
from homlab.hilbert import HilbertSpace, LinearOp, ProbeSet, _skew_pair
from homlab.maxwell import YeeComplex, _yee_blocks


def _band_widths(k, order=None):
    """(kl, ku) of a sparse K with its unknowns taken in ``order``, by default
    reverse Cuthill-McKee on the pattern of K + K^T; stored zeros do not
    count."""
    k = sp.coo_matrix(k)
    nz = k.data != 0
    row, col = k.row[nz], k.col[nz]
    if order is None:
        pattern = sp.csr_matrix((np.ones(len(row)), (row, col)), shape=k.shape)
        order = csgraph.reverse_cuthill_mckee(pattern + pattern.T, symmetric_mode=True)
    pos = np.empty(k.shape[0], dtype=int)
    pos[order] = np.arange(k.shape[0])
    offsets = pos[row] - pos[col]
    return int(offsets.max(initial=0)), int((-offsets).max(initial=0))


@pytest.fixture
def band_lu_calls(monkeypatch):
    """Record every ``hilbert._band_lu`` factorisation, under each name a
    loaded homlab module binds it to, as (shape, kl, ku)."""
    calls = []
    original = hilbert._band_lu

    def record(k, order=None):
        calls.append((k.shape, *_band_widths(k, order)))
        return original(k, order)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "homlab" and getattr(module, "_band_lu", None) is original:
            monkeypatch.setattr(module, "_band_lu", record)
    return calls


def yee_layout(domain):
    """Where the Yee unknowns of ``domain`` sit, from ``maxwell._yee_blocks``:
    for the edges and then for the faces, the (n, 3) point of each unknown
    and the axis (0, 1, 2) of its block."""
    blocks = list(_yee_blocks(domain))
    return [(np.concatenate([np.stack([g.ravel() for g in np.meshgrid(*coords, indexing="ij")],
                                      axis=-1) for _, _, coords, _ in part]),
             np.repeat(np.arange(3), [math.prod(shape) for _, shape, _, _ in part]))
            for part in (blocks[:3], blocks[3:])]


def yee_sample(fn, points, axis):
    """A callable of (n, 3) points, or an axis-wise triple of them, at the
    points of one half of :func:`yee_layout`."""
    if callable(fn):
        return np.asarray(fn(points))
    return np.concatenate([fn[a](points[axis == a]) for a in range(3)])


def maxwell_system(domain, eps, mu, sigma, lam, modes=False):
    """The Maxwell system (T + A) that the homogenisation experiment forms,
    on the staggered complex of ``domain``: T = diag(lam eps + sigma, lam mu)
    from samples of ``eps``, ``sigma`` and ``mu`` (each a callable of (n, 3)
    points or an axis-wise triple of them) at the edge and face points of
    :func:`yee_layout`, and A the skew pair of the complex's curl0, or of its
    transverse-mode curl0 with ``modes``. Returns (complex, T as a sparse
    diagonal, A as an operator on the edge (+) face space)."""
    cx = YeeComplex(domain)
    edges, faces = yee_layout(domain)
    t = sp.diags(np.concatenate([lam * yee_sample(eps, *edges) + yee_sample(sigma, *edges),
                                 lam * yee_sample(mu, *faces)]))
    curl0 = cx._mode_operators[1] if modes else cx.curl0
    return cx, t, _skew_pair(LinearOp(cx.edge_space, cx.face_space, matrix=curl0))


def physical_maxwell_probes(cx, count=6):
    """The Maxwell experiment's probes in physical coordinates, built by a
    loop over the points of :func:`yee_layout`: per sine mode, on the edges
    and then on the faces of each axis in turn, the product of one sine per
    axis, normalised; the first ``count`` modes give 2 ``count`` probes.
    Returns (probes, their edge (+) face space)."""
    weight = np.concatenate([cx.edge_space.weight, cx.face_space.weight])
    space = HilbertSpace(cx.n_edges + cx.n_faces, weight=weight)
    (edge_mid, edge_axis), (face_mid, face_axis) = yee_layout(cx.domain)
    vecs = []
    modes = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (1, 2, 2)]

    def mode_val(points, k):
        out = np.ones(len(points))
        for a in range(3):
            lo, hi = cx.domain.extents[a]
            out *= np.sin(k[a] * np.pi * (points[:, a] - lo) / (hi - lo))
        return out

    for k in modes[:count]:
        for axis in range(3):
            ve = np.zeros(cx.n_edges)
            m = edge_axis == axis
            ve[m] = mode_val(edge_mid[m], k)
            vf = np.zeros(cx.n_faces)
            mf = face_axis == axis
            vf[mf] = mode_val(face_mid[mf], k)
            vecs.append(np.concatenate([ve, np.zeros(cx.n_faces)]))
            vecs.append(np.concatenate([np.zeros(cx.n_edges), vf]))
    return ProbeSet.from_vectors(space, vecs[: 2 * count]), space


def _dst1(m):
    """Orthonormal DST-I on the m - 1 interior nodes of m cells, from its
    closed form; column k has frequency k + 1."""
    k = np.arange(1, m)
    return np.sqrt(2.0 / m) * np.sin(np.pi * np.outer(k, k) / m)


def _dct2(m):
    """Orthonormal DCT-II on m cells, from its closed form; column k has
    frequency k."""
    c = np.sqrt(2.0 / m) * np.cos(np.pi * np.outer(np.arange(m) + 0.5, np.arange(m)) / m)
    c[:, 0] /= np.sqrt(2.0)
    return c


# edges along a sit on cells on axis a, faces normal to a on interior nodes
EDGES = [[t == a for t in range(3)] for a in range(3)]
FACES = [[t != a for t in range(3)] for a in range(3)]
NODES, CELLS = [[False] * 3], [[True] * 3]


def _edge_transform(cells, parts=EDGES):
    """The orthogonal map Q from mode to physical coordinates of the blocks
    of Yee unknowns that ``parts`` lists, each saying per axis whether the
    block sits on cells (DCT-II along y or z) or on interior nodes (DST-I),
    with each unknown's transverse mode and x position."""
    blocks, modes, xs = [], [], []
    for on_cells in parts:
        tables = [_dct2(cells[t]) if on_cells[t] else _dst1(cells[t]) for t in (1, 2)]
        freqs = [np.arange(cells[t]) if on_cells[t] else np.arange(1, cells[t]) for t in (1, 2)]
        nx = cells[0] if on_cells[0] else cells[0] - 1
        x = 2 * np.arange(nx) + (1 if on_cells[0] else 2)
        blocks.append(sp.kron(sp.identity(nx), np.kron(*tables)))
        grid = np.meshgrid(x, freqs[0], freqs[1], indexing="ij")
        xs.append(grid[0].ravel())
        modes.append((grid[1] * cells[2] + grid[2]).ravel())
    return sp.block_diag(blocks).tocsr(), np.concatenate(modes), np.concatenate(xs)
