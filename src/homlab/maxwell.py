"""Staggered-grid Maxwell system on a 3-d box: discrete curl pair with exact
adjointness, Helmholtz decompositions, and the resolvent homogenisation
experiment.

The complex is the classic staggered one (scalars on nodes, electric
components on edges with tangential-zero boundary, magnetic components on
faces, charges on cells). The identities curl0 grad0 = 0 and div curl0 = 0
hold at machine precision by construction, and curl is literally the weighted
adjoint of curl0, so the block operator [[0, -curl], [curl0, 0]], the
:func:`hilbert._skew_pair` of curl0, is skew-adjoint by construction. On a
box the harmonic spaces of both Helmholtz flavors are trivial;
:func:`helmholtz_decompose` finds them with one rank decision, the SVD of
curl0, and checks that each gradient range lies in its curl kernel. The
kernel splitting used by the homogenisation experiment is generator-backed
(one Dirichlet-type nodal solve and one grounded Neumann-type cell solve --
the latter is exactly the natural-boundary variational problem of the
coefficient convergence theory under no boundary conditions).

Every coefficient of the homogenisation experiment depends on x alone, so
per oscillation index the experiment samples the diagonal
T = diag(lambda eps + sigma, lambda mu) once per block of Yee unknowns at
its x coordinates (:func:`_yee_blocks`, the one description of where each
unknown sits) and repeats it along y and z, and it works in
transverse-mode coordinates throughout, with the orthogonal change of basis
Q that transforms every block of unknowns along y and z by the orthonormal
DST-I on interior-node axes and DCT-II on cell axes, dense 1-d tables
(:func:`_transverse_table`, Hockney's method). There the 1-d differences
along y and z sit on one subdiagonal, the complex's operators come from the
same assembly (``YeeComplex._mode_operators``), the one skew pair is that
of the mode curl0, T is left as it is, and the resolvent probes, one
(dim, 12) block of two sine modes on the edges and faces of each axis, are
built as Q^T of those modes from their 1-d factors (:func:`_maxwell_probes`);
no vector of the experiment is held in physical coordinates. Each system of
the experiment -- the eliminated edge system of the resolvent
(:class:`_EdgeResolvent`) and the Gram and a00 systems of the kernel
splitting -- is one band along x per transverse mode, which the generic
band LU ``hilbert._band_lu`` factorises. This is the only route by which
homlab solves a Maxwell resolvent.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elliptic import GridDomain, check_budget
from .errors import CoercivityError, ShapeError
from .hilbert import HilbertSpace, LinearOp, ProbeSet, Subspace, _band_lu, _check_residual
from .hilbert import _complement_basis, _rows, _skew_pair
from .hilbert import adjoint, kernel_range, wot_gap
from .homogenize import _TAU_COLUMNS, _decay_verdict, _oscillate, _per_n, _probe_pair, _report
from .homogenize import laminate_limit
from .schur import Decomposition, tau_gap

__all__ = [
    "YeeComplex",
    "HelmholtzSplit",
    "build_curl",
    "helmholtz_decompose",
    "maxwell_homogenization_experiment",
]

_MAXWELL_TOL = 1e-1    # the verdict's default tolerance
_HELMHOLTZ_ORTHO_TOL = 1e-8    # the largest gradient/curl Gram entry
_DIMS = ("dim_gradients", "dim_curls", "dim_harmonic")    # of a helmholtz row


class YeeComplex:
    """Staggered node/edge/face/cell complex with weighted spaces.

    Perfect-conductor staggering: edge degrees of freedom at tangential
    boundary positions and face degrees of freedom at normal boundary
    positions are eliminated. With both eliminations the complex

        interior nodes -> edges -> faces -> cells

    is exact on a box up to the constants cokernel at the cell level, so the
    kernel of the curl block is generator-backed: ker(curl0) is the nodal
    gradient range and ker(curl0*) is the grounded cell-gradient range.

    Every operator is a block of Kronecker products of one 1-d factor per
    axis a: the difference D_a from the m_a - 1 interior nodes to the m_a
    cells (+1/h_a on the diagonal, -1/h_a below it), or an identity of size
    m_a - 1 or m_a. ``grad0`` stacks D_a on axis a over the three edge axes,
    ``div_faces`` sets D_a on axis a side by side, and the (a, c) block of
    ``curl0`` is D_b on axis b, (a, b, c) cyclic, with the (a, b) block minus
    the same product with D_c. Nodes, edges along a, faces normal to a and
    cells are each numbered in C order of their index grid, x slowest; edges
    and faces come axis block by axis block (:func:`_yee_blocks`). The
    physical operators are built on first use; the Maxwell experiment reads
    none of them.
    """

    def __init__(self, domain):
        if domain.dim != 3:
            raise ShapeError("the staggered complex is three-dimensional")
        self.domain = domain
        m = domain.cells
        if min(m) < 2:
            raise ShapeError("the staggered complex needs at least 2 cells per axis")
        check_budget(m, "yee")
        h = domain.spacing
        vol = math.prod(h)

        # one 1-d factor per axis: the difference from interior nodes to
        # cells, or the identity on interior nodes or on cells
        diff = [sp.diags([np.full(c - 1, 1.0 / s), np.full(c - 1, -1.0 / s)], [0, -1],
                         shape=(c, c - 1), format="coo") for c, s in zip(m, h)]
        inner = [sp.identity(c - 1, format="coo") for c in m]
        whole = [sp.identity(c, format="coo") for c in m]
        self._factors = diff, inner, whole
        self._blocks = tuple(_yee_blocks(domain))
        self.n_edges = self._blocks[2][0].stop
        self.n_faces = self._blocks[5][0].stop - self.n_edges
        self.n_nodes = math.prod(c - 1 for c in m)
        self.n_cells = domain.n_cells

        self.edge_space = HilbertSpace(self.n_edges, weight=np.full(self.n_edges, vol))
        self.face_space = HilbertSpace(self.n_faces, weight=np.full(self.n_faces, vol))
        self.cell_space = HilbertSpace(self.n_cells, weight=np.full(self.n_cells, vol))

    # -- derived on first use ---------------------------------------------------

    @functools.cached_property
    def _physical_operators(self):
        return _operators(*self._factors)

    grad0 = property(lambda self: self._physical_operators[0], doc="nodes -> edges")
    curl0 = property(lambda self: self._physical_operators[1], doc="edges -> faces")
    div_faces = property(lambda self: self._physical_operators[2], doc="faces -> cells")

    @functools.cached_property
    def _mode_operators(self):
        """(grad0, curl0, grounded dual gradient) in transverse-mode
        coordinates: Q^T op Q for the orthogonal Q that transforms each
        block of unknowns along y and z by the tables of
        :func:`_transverse_table`. They come from the assembly of the
        physical operators with D_y and D_z replaced by their mode forms,
        which hold sigma_k = (2/h) sin(k pi/2m) at (cell mode k, node mode k)
        on one subdiagonal. The dual gradient is grounded at mode (0, 0) of
        the first cell layer in x, where the constants have an entry."""
        diff, inner, whole = self._factors
        m, h = self.domain.cells, self.domain.spacing
        modal = [diff[0]] + [sp.diags(2.0 / h[t] * np.sin(np.arange(1, m[t]) * np.pi / (2 * m[t])),
                                      -1, shape=(m[t], m[t] - 1), format="coo") for t in (1, 2)]
        grad0, curl0, div = _operators(modal, inner, whole)
        return grad0, curl0, div.T.tocsr()[:, 1:]

    def curl_adjoint_matrix(self):
        """curl = curl0^* : faces -> edges as an explicit sparse matrix."""
        return adjoint(LinearOp(self.edge_space, self.face_space, matrix=self.curl0)).matrix

    def dual_gradient_matrix(self):
        """Cells -> faces generator of ker(curl): the weighted adjoint of the
        face divergence, grounded at cell 0 to make it injective. Faces and
        cells carry the same uniform weight, so the adjoint is the
        transpose."""
        return self.div_faces.T.tocsr()[:, 1:]


def _kron3(x, y, z):
    return sp.kron(sp.kron(x, y, format="coo"), z, format="coo")


def _operators(diff, inner, whole):
    """grad0, curl0 and div_faces (see :class:`YeeComplex`) from one 1-d
    difference per axis and the interior-node and cell identities."""
    grad0 = sp.vstack([_kron3(*[diff[t] if t == a else inner[t] for t in range(3)])
                       for a in range(3)], format="csr")
    # (curl E)_a = d_b E_c - d_c E_b with (a, b, c) cyclic: the block of
    # face axis a and edge axis e differences along the third axis d
    blocks = [[None] * 3 for _ in range(3)]
    for a in range(3):
        for e, sign in (((a + 2) % 3, 1.0), ((a + 1) % 3, -1.0)):
            d = 3 - a - e
            blocks[a][e] = sign * _kron3(*[diff[t] if t == d else inner[t] if t == a
                                           else whole[t] for t in range(3)])
    div = sp.hstack([_kron3(*[diff[t] if t == a else whole[t] for t in range(3)])
                     for a in range(3)], format="csr")
    return grad0, sp.bmat(blocks, format="csr"), div


def build_curl(domain):
    """The staggered curl pair (curl0, curl) as weighted operators with exact
    adjointness and the chain identities curl0 grad0 = 0, div curl0 = 0."""
    cx = YeeComplex(domain)
    curl0 = LinearOp(cx.edge_space, cx.face_space, matrix=cx.curl0)
    curl = LinearOp(cx.face_space, cx.edge_space, matrix=cx.curl_adjoint_matrix())
    return curl0, curl, cx


def _diag_bounds_check(vals, alpha, beta, what):
    re = vals.real
    # a zero entry fails on Re vals, so its 1/0 is not worth a warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        re_inv = (1.0 / vals).real
    if re.min() < alpha - 1e-12 or re_inv.min() < 1.0 / beta - 1e-12:
        raise CoercivityError(
            f"{what}: Re in [{re.min():.4g}, {re.max():.4g}] violates "
            f"({alpha}, {beta})"
        )


def _yee_blocks(domain):
    """The edge+face unknowns of the :class:`YeeComplex` of ``domain`` block
    by block: edges along x, y and z, then faces normal to x, y and z, each
    block as its slice of the unknowns, the index grid it fills, one 1-d
    coordinate array per axis, the m_a cell centres or the m_a - 1 interior
    nodes of axis a, and per axis whether it sits on cells. Its unknowns are
    the grid's points in C order."""
    m, h, lo = domain.cells, domain.spacing, domain.lo
    centres = [lo[t] + (np.arange(m[t]) + 0.5) * h[t] for t in range(3)]
    nodes = [lo[t] + np.arange(1, m[t]) * h[t] for t in range(3)]
    start = 0
    for faces, a in itertools.product((False, True), range(3)):
        # edges along a sit on cells on axis a, faces normal to a on interior nodes
        cells = tuple((t == a) != faces for t in range(3))
        coords = tuple(centres[t] if cells[t] else nodes[t] for t in range(3))
        shape = tuple(len(c) for c in coords)
        yield slice(start, start + math.prod(shape)), shape, coords, cells
        start += math.prod(shape)


def _spread(values, blocks):
    """The vector over ``blocks`` (of :func:`_yee_blocks`) that is values[b]
    across block b: a constant, or one value per position along x."""
    return np.concatenate([np.broadcast_to(np.reshape(v, (-1, 1, 1)), shape).ravel()
                           for v, (_, shape, _, _) in zip(values, blocks)])


def _transverse_table(m, cells):
    """The orthonormal 1-d transform along an axis of m cells, as columns:
    DCT-II on the m cells (column k has frequency k) or DST-I on the m - 1
    interior nodes (frequency k + 1)."""
    freq = np.arange(1 - cells, m)    # from 0 on cells, from 1 on nodes
    if cells:
        table = np.sqrt(2.0 / m) * np.cos(np.pi * np.outer(np.arange(m) + 0.5, freq) / m)
        table[:, 0] /= np.sqrt(2.0)
    else:
        table = np.sqrt(2.0 / m) * np.sin(np.pi * np.outer(freq, freq) / m)
    return table


class _EdgeResolvent:
    """Solves of (T + A)[e; h] = [f; g] for a vector or an (n, k) block, A
    the skew pair ``a_matrix`` of ``curl0``, with the magnetic field
    eliminated: with T = diag(te, tf), the rows te e - curl h = f and
    curl0 e + tf h = g give h = tf^-1 (g - curl0 e) and the edge system

        (W_e te + curl0^H W_f tf^-1 curl0) e = W_e f + curl0^H W_f tf^-1 g,

    which is real symmetric positive definite for real coefficients and has
    n_edges unknowns instead of n_edges + n_faces. It is solved from one band
    LU (:func:`hilbert._band_lu`) in reverse Cuthill-McKee order, and every
    column is checked once, on T + A as T x + A x, with no sum T + A stored.
    The experiment passes the transverse-mode curl0 of
    ``YeeComplex._mode_operators`` and a T constant along y and z, for which
    the edge system has band (3, 3)."""

    def __init__(self, cx, curl0, a_matrix, t):
        self._t = t.diagonal()
        self._a = a_matrix
        self._ne = cx.n_edges
        self._tf = self._t[self._ne:]
        self._we = cx.edge_space.weight
        self._wf_tf = cx.face_space.weight / self._tf
        self._curl0 = curl0
        self._curl0h = curl0.T.tocsr()    # curl0 is real
        self._edge = _band_lu(sp.diags(self._we * self._t[:self._ne])
                              + curl0.T @ sp.diags(self._wf_tf) @ curl0)

    def solve(self, rhs):
        rhs = np.asarray(rhs)
        f, g = rhs[:self._ne], rhs[self._ne:]
        load = _rows(self._we, f) * f + self._curl0h @ (_rows(self._wf_tf, g) * g)
        e = self._edge(load)
        h = (g - self._curl0 @ e) / _rows(self._tf, g)
        x = np.concatenate([e, h])
        _check_residual(_rows(self._t, x) * x + self._a @ x, rhs)
        return x


@dataclass
class HelmholtzSplit:
    """Orthogonal three-way splitting of one vector-field space into
    gradients, curls, and a harmonic remainder."""

    flavor: str
    gradients: Subspace
    curls: Subspace
    harmonic: Subspace

    @property
    def dims(self):
        return (self.gradients.dim, self.curls.dim, self.harmonic.dim)


def helmholtz_decompose(domain):
    """Both Helmholtz splittings of the staggered complex on a box:

    edge fields  = ran(grad0) (+) ran(curl) (+) harmonic (Dirichlet flavor),
    face fields  = ran(dual gradient) (+) ran(curl0) (+) harmonic (Neumann).

    One dense SVD of curl0 is the only rank decision: it gives ker curl0 and
    ran curl0, and their complements are ran curl and ker curl. The gradient
    ranges are QR bases of the injective generators grad0 and the grounded
    dual gradient. Each harmonic part is the curl kernel less its gradient
    range, and a gradient range that leaves its kernel (a broken chain
    identity) raises :class:`ShapeError`. This is meant for small boxes:
    ``kernel_range`` caps the face count. On any box both harmonic
    dimensions come out zero.
    """
    curl0, _, cx = build_curl(domain)
    ker_curl0, ran_curl0 = kernel_range(curl0)
    ker_curl = Subspace.complement(ran_curl0)
    ran_grad = Subspace.from_span(cx.edge_space, cx.grad0.toarray())
    ran_gdual = Subspace.from_span(cx.face_space, cx.dual_gradient_matrix().toarray())
    harmonic_e = _complement_basis(cx.edge_space, ran_grad.basis, ker_curl0.basis)
    harmonic_f = _complement_basis(cx.face_space, ran_gdual.basis, ker_curl.basis)
    return (HelmholtzSplit("dirichlet", ran_grad, Subspace.complement(ker_curl0),
                           Subspace(cx.edge_space, basis=harmonic_e)),
            HelmholtzSplit("neumann", ran_gdual, ran_curl0,
                           Subspace(cx.face_space, basis=harmonic_f)))


def helmholtz_experiment(cells):
    """Both :func:`helmholtz_decompose` splittings of the ``cells``^3 box by
    their dimensions (flavor 0 Dirichlet, 1 Neumann), with the largest entry
    of each gradient/curl Gram block in the meta's ``cross``."""
    rows, cross = [], []
    for flavor, split in enumerate(helmholtz_decompose(GridDomain.box((cells, cells, cells)))):
        rows.append({"flavor": flavor, **dict(zip(_DIMS, split.dims)),
                     "space_dim": split.gradients.ambient.dim})
        gram = split.gradients.ambient.gram(split.gradients.basis, split.curls.basis)
        cross.append(np.abs(gram).max(initial=0.0))
    return _report("helmholtz", rows, {"cells": cells, "cross": cross})


def helmholtz_verdict(report):
    """Per splitting: the three dimensions sum to that of the space, the
    harmonic one is zero, and gradients and curls are orthogonal to 1e-8."""
    failures = []
    for row, cross in zip(report.rows, report.meta["cross"]):
        failures += [f"{('dirichlet', 'neumann')[row['flavor']]}: {msg}" for msg, bad in (
            ("dimensions do not sum", sum(row[c] for c in _DIMS) != row["space_dim"]),
            ("nonzero harmonic dimension on a box", row["dim_harmonic"] != 0),
            ("gradient/curl blocks not orthogonal", cross > _HELMHOLTZ_ORTHO_TOL)) if bad]
    return failures


def _maxwell_probes(cx, space):
    """Tangential sine-mode probes on the edge (+) face space of the complex
    ``cx`` in transverse-mode coordinates: the modes (1, 1, 1) and (2, 1, 1),
    each on the edges and then on the faces of one axis in turn, as one
    (dim, 12) block. On each block of unknowns a mode is the outer product of
    one sine per axis, so its mode form Q^T (module docstring) is the outer
    product of the x sine with the y and z sines, each multiplied by the
    transpose of its table of :func:`_transverse_table`."""
    block = np.zeros((space.dim, 12))
    m = cx.domain.cells
    for b, (sl, _, coords, cells) in enumerate(cx._blocks):
        for i, k in enumerate(((1, 1, 1), (2, 1, 1))):
            x, y, z = (np.sin(k[a] * np.pi * (c - lo) / (hi - lo))
                       for a, ((lo, hi), c) in enumerate(zip(cx.domain.extents, coords)))
            y, z = (_transverse_table(m[t], cells[t]).T @ s for t, s in ((1, y), (2, z)))
            # column 6 i + 2 axis + (0 on an edge, 1 on a face) holds mode i
            block[sl, 6 * i + 2 * (b % 3) + b // 3] = np.multiply.outer(np.outer(x, y), z).ravel()
    return ProbeSet.from_vectors(space, block, copy=False)


def maxwell_homogenization_experiment(eps_profile, mu_profile, sigma_profile,
                                      lam, n_list, bounds, transverse_cells=8, probe_seed=0):
    """Resolvent convergence of oscillating laminate Maxwell systems toward
    the limit built from the lambda-dependent effective permittivity.

    Per n, the coefficients are eps_n(x) = eps_profile(n x_1 mod 1) etc.,
    and their samples lambda eps_n + sigma_n and lambda mu_n must lie in the
    class ``bounds``; the limit electric tensor is the laminate limit of the
    combined profile lambda eps + sigma at this lambda -- computed per
    lambda, never split into a lambda-independent pair -- harmonic across
    the layers and arithmetic along them. Emits the four block-map gaps on
    the kernel splitting of the curl block next to the resolvent gap.

    Laminate profiles must be exactly representable on the meshes of
    max(2 n, transverse_cells) cells along x, which pair at least 2 cells
    per period with piecewise-constant two-phase profiles.

    Each block of Yee unknowns samples the profiles once, at its x
    coordinates, and repeats them along y and z, so T_n and T_lim are
    constant along y and z by construction and each system runs in the
    transverse-mode coordinates of the module docstring, where the 12 probes
    are built.
    """
    eps_h, eps_m = laminate_limit(lambda y: lam * eps_profile(y) + sigma_profile(y))
    mu_h, mu_m = laminate_limit(mu_profile)

    def row(n):
        cx_cells = (max(2 * n, transverse_cells), transverse_cells, transverse_cells)
        cx = YeeComplex(GridDomain.box(cx_cells))
        xs = [coords[0] for _, _, coords, _ in cx._blocks]
        te = [lam * _oscillate(eps_profile, n, x) + _oscillate(sigma_profile, n, x) for x in xs[:3]]
        tf = [lam * _oscillate(mu_profile, n, x) for x in xs[3:]]
        try:
            _diag_bounds_check(np.concatenate(te), *bounds, "lambda eps + sigma")
            _diag_bounds_check(np.concatenate(tf), *bounds, "lambda mu")
        except CoercivityError as exc:
            raise CoercivityError(f"at oscillation index n={n}: {exc}") from exc
        # limit system: eps(lambda) tensor entries divided back by lambda so
        # that lambda * eps_limit reproduces the lambda-limit exactly
        t_n = sp.diags(_spread(te + tf, cx._blocks))
        t_lim = sp.diags(_spread([lam * (a / lam) for a in (eps_h, eps_m, eps_m)]
                                 + [lam * a for a in (mu_h, mu_m, mu_m)], cx._blocks))

        grad0, curl0, dual_gradient = cx._mode_operators
        pair = _skew_pair(LinearOp(cx.edge_space, cx.face_space, matrix=curl0))
        space = pair.source
        probes = _maxwell_probes(cx, space)
        resolvents = [_EdgeResolvent(cx, curl0, pair.matrix, t) for t in (t_n, t_lim)]
        gap_res = wot_gap(*(LinearOp(space, space, apply=r.solve) for r in resolvents),
                          probes, probes)

        # ker(A) = ker(curl0) (+) ker(curl): on a box the gradient ranges of
        # the nodal and the grounded cell potential (no harmonic parts)
        dec = Decomposition.from_generator(space, sp.block_diag((grad0, dual_gradient), "csr"))
        p0, p1 = _probe_pair(dec, lambda start, stop: probes.matrix[:, start:stop].copy(),
                             len(probes), 6)
        gaps = tau_gap(LinearOp(space, space, matrix=t_n.tocsr()),
                       LinearOp(space, space, matrix=t_lim.tocsr()), dec, p0, p1)
        return {"n": n, "cells_x": cx_cells[0], **dict(zip(_TAU_COLUMNS, gaps)),
                "gap_resolvent": gap_res}

    return _per_n("maxwell", n_list, row, {"lambda": lam, "mu_limit": (mu_h, mu_m),
                                           "probe_seed": probe_seed})


def maxwell_verdict(report, tol=_MAXWELL_TOL):
    """The resolvent gap decays to at most ``tol``."""
    return _decay_verdict(report, "maxwell decay", ("gap_resolvent",), tol)
