"""Weighted finite-dimensional Hilbert spaces, operators, and operator-gap
diagnostics.

Every space carries a quadrature weight: the strictly positive diagonal
entries of its lumped discrete L2 mass matrix W, never a full matrix. Inner
products are linear in the second slot and anti-linear in the first, and all
adjoints are taken with respect to the weighted inner products: for
``A : S -> T`` the adjoint is ``A* = W_S^{-1} A^H W_T``.

Vectors are 1-d arrays; a family of vectors is one (dim, k) array whose
columns are the members. Every operator applies to a single vector or to such
a block, and the weight, the projectors and the solvers act on a block in one
call.

Weak-operator-topology statements are operationalised against finite probe
families, each held as one (dim, k) matrix: :func:`wot_gap` measures
``max |<phi_i, (S-T) psi_j>|`` over a fixed probe set as weighted products
``max |Phi^H W (S Psi - T Psi)|`` over column chunks Psi, and :func:`strong_gap` the
corresponding maximal image-norm gap. These two functions are the package's
only operator probe-pairing code: every operator gap the experiment modules
report is one of them applied to two :class:`LinearOp` instances. Probe gaps
over a fixed family form a pseudo-metric, not the metric of the abstract
compactness theorems; that metric is never exhibited and is deliberately out
of scope.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import CoercivityError, NotInM, ShapeError, SolverDiverged

__all__ = [
    "HilbertSpace",
    "Subspace",
    "LinearOp",
    "ProbeSet",
    "CoercivityReport",
    "adjoint",
    "kernel_range",
    "coercivity_check",
    "wot_gap",
    "strong_gap",
]

# dense eigen- and singular-value solves run up to these sizes; above, the
# Re(T^-1) certificate of a sparse T and kernel_range raise ShapeError
_DENSE_EIG_CUTOFF = 1200
_DENSE_SVD_CUTOFF = 5000
# a connected block of Re T whose banded eigensolve would cost more than
# size^2 x bandwidth = this raises ShapeError; eig_banded takes about 3 ns
# per unit, so the bound is about 10 s (a bandwidth-2 chain of about 38 000
# unknowns, the thermo system on about 19 000 cells)
_BANDED_WORK_CUTOFF = 3e9
# a band LU whose band storage, n (2 kl + ku + 1) entries, would exceed this
# raises ShapeError before allocating it (2 GiB of real entries)
_BAND_LU_ENTRIES = 2 ** 28
# a dense matrix whose kappa_1 estimate exceeds this counts as singular
_COND_CUTOFF = 1e12
# kernel_range's rank cutoff, relative to the largest singular value
_RANK_TOL = 1e-10
# the most entries in one column chunk of a probe block (2 MiB of reals)
_BLOCK_ENTRIES = 2 ** 18


def _difference(x, y, *inputs):
    """x - y, written into x or else y if it can hold it and shares no memory with
    the other or with ``inputs`` (an operator may return its input), else fresh."""
    for into, other in ((x, y), (y, x)):
        if (isinstance(into, np.ndarray) and into.flags.writeable and into.shape == np.shape(other)
                and into.dtype == np.result_type(x, y)
                and not any(np.may_share_memory(into, z) for z in (other, *inputs))):
            return np.subtract(x, y, out=into)
    return x - y


def _rows(d, v):
    """The per-row factors ``d`` shaped to scale the rows of ``v``, a vector
    or a (dim, k) block."""
    return d if np.ndim(v) < 2 else d[:, None]


class HilbertSpace:
    """Finite-dimensional inner-product space with a quadrature weight.

    Parameters
    ----------
    dim : int
        Dimension, strictly positive.
    weight : array_like, optional
        The ``(dim,)`` strictly positive diagonal mass entries: lumped
        quadrature weights of grid nodes, elements, edges or faces, or ones
        for a coordinate space. Defaults to the identity weight. Kept as
        given when a read-only float array, such as a broadcast constant.
    field : {"real", "complex"}
        Scalar field flag. Real is the default; ``Re T`` always means
        ``(T + T*)/2`` with the weighted adjoint in either mode.
    """

    def __init__(self, dim, weight=None, field="real"):
        dim = int(dim)
        if dim <= 0:
            raise ShapeError(f"space dimension must be positive, got {dim}")
        if field not in ("real", "complex"):
            raise ShapeError(f"field must be 'real' or 'complex', got {field!r}")
        self.dim = dim
        self.field = field
        weight = np.ones(dim) if weight is None else np.asarray(weight)
        if weight.shape != (dim,):
            raise ShapeError(f"diagonal weight has shape {weight.shape}, expected ({dim},)")
        if not np.all(weight.real > 0) or np.any(weight.imag != 0):
            raise ShapeError("diagonal weight entries must be strictly positive reals")
        self.weight = weight.real.astype(float, copy=weight.flags.writeable)

    # -- basic algebra ------------------------------------------------------

    def check_member(self, v):
        v = np.asarray(v)
        if v.shape != (self.dim,):
            raise ShapeError(f"vector shape {v.shape} does not match space dim {self.dim}")
        return v

    def check_block(self, v):
        """A vector or a (dim, k) block of column vectors of this space."""
        v = np.asarray(v)
        if v.ndim not in (1, 2) or v.shape[0] != self.dim:
            raise ShapeError(f"block shape {v.shape} does not match space dim {self.dim}")
        return v

    def apply_weight(self, v):
        return _rows(self.weight, v) * v

    def inner(self, x, y):
        """<x, y> = conj(x)^T W y, anti-linear in x."""
        return np.vdot(self.check_member(x), self.apply_weight(self.check_member(y)))

    def gram(self, a, b):
        """Matrix of inner products <a_i, b_j> between the columns of two blocks
        (a vector for a 1-d ``b``), with W applied to the one with fewer columns."""
        if a.shape[1] <= (b.shape[1] if b.ndim == 2 else 1):
            return self.apply_weight(a).conj().T @ b
        return a.conj().T @ self.apply_weight(b)

    def norm(self, x):
        return float(np.sqrt(max(self.inner(x, x).real, 0.0)))

    def column_norms(self, block):
        """Weighted norms of the columns of a (dim, k) block, with no
        temporary of the block's size."""
        sq = np.einsum("ij,ij,i->j", block.conj(), block, self.weight).real
        return np.sqrt(np.maximum(sq, 0.0))

    def scale_to_ortho(self, v):
        """Coordinates of v in the W-orthonormal frame (W^{1/2} v)."""
        return _rows(np.sqrt(self.weight), v) * v

    def scale_from_ortho(self, v):
        """Inverse of :meth:`scale_to_ortho`."""
        return v / _rows(np.sqrt(self.weight), v)

    def weight_operator(self):
        return sp.diags(self.weight)

    def compatible(self, other):
        return self.dim == other.dim and (other.weight is self.weight or np.allclose(
            self.weight, other.weight, rtol=1e-12, atol=0))


class LinearOp:
    """Bounded operator between two weighted spaces.

    Backed either by a dense/sparse matrix or by a block applicator
    ``apply``. The operator maps a vector or a (dim, k) block of columns, and
    so must the applicator: a block goes to it in one call. The weighted
    adjoint of a matrix-free operator is that of its dense matrix.
    """

    def __init__(self, source, target, matrix=None, apply=None):
        self.source = source
        self.target = target
        if matrix is not None:
            if matrix.shape != (target.dim, source.dim):
                raise ShapeError(
                    f"matrix shape {matrix.shape} does not map dim {source.dim} -> {target.dim}"
                )
            self.matrix = matrix
            self._apply = None
        else:
            if apply is None:
                raise ShapeError("need a matrix or an apply callable")
            self.matrix = None
            self._apply = apply

    def __call__(self, x):
        x = self.source.check_block(x)
        if self.matrix is not None:
            return self.matrix @ x
        return self._apply(x)

    def to_dense(self):
        if self.matrix is None:
            return self(np.eye(self.source.dim))
        if sp.issparse(self.matrix):
            return self.matrix.toarray()
        return np.asarray(self.matrix)

    @property
    def square(self):
        return self.source.dim == self.target.dim


def _check_same_spaces(a, b):
    if not (a.source.compatible(b.source) and a.target.compatible(b.target)):
        raise ShapeError("operators do not share source/target spaces")


def adjoint(op):
    """Weighted adjoint A* = W_s^{-1} A^H W_t.

    For all x, y: <y, A x>_target == <A* y, x>_source. The result is backed
    by a matrix: sparse for a sparse operator, dense otherwise; a matrix-free
    operator is densified first, so its adjoint is that of its dense matrix.
    """
    src, tgt = op.source, op.target
    m = op.matrix if op.matrix is not None else op.to_dense()
    if sp.issparse(m):
        mat = (sp.diags(1.0 / src.weight) @ (m.conj().T @ sp.diags(tgt.weight))).tocsr()
    else:
        mat = (np.asarray(m).conj().T * tgt.weight[None, :]) / src.weight[:, None]
    return LinearOp(tgt, src, matrix=mat)


def _skew_pair(c):
    """A = [[0, -C*], [C, 0]] on S (+) V for a sparse C : S -> V, as a
    CSR-backed operator on the product space. C* is :func:`adjoint`, so A is
    skew-adjoint by construction; every evolutionary system's spatial block
    is built here."""
    src, tgt = c.source, c.target
    space = HilbertSpace(src.dim + tgt.dim, weight=np.concatenate([src.weight, tgt.weight]))
    mat = sp.bmat([[None, -adjoint(c).matrix], [c.matrix, None]]).tocsr()
    return LinearOp(space, space, matrix=mat)


class Subspace:
    """Closed subspace of a weighted space.

    Explicit mode stores a weighted-orthonormal basis matrix ``B`` with
    ``B^H W B = I`` (checked to 1e-10). Implicit mode stores an orthogonal
    projector applicator, typically ``P = G (G^H W G)^{-1} G^H W`` for an
    injective generator ``G``, whose subspace keeps G as ``generator``,
    the solver of G^H W G as ``gram`` and G^H W as ``gh_w``. Only
    :meth:`from_generator` checks a projector (idempotency and weighted
    self-adjointness on random probes, at 1e-8); a ``project`` passed in
    directly is a contract, as ``LinearOp(apply=f)`` is. A NaN fails a check.
    Either mode projects a vector or a (dim, k) block.
    """

    complement_of = None    # what an implicit :meth:`complement` complements
    _ORTHO_TOL = 1e-10
    _PROJ_TOL = 1e-8
    _SPAN_TOL = 1e-12

    def __init__(self, ambient, basis=None, project=None, dim=None, generator=None, gram=None,
                 gh_w=None):
        self.ambient = ambient
        self.generator = generator
        self.gram = gram
        self.gh_w = gh_w
        if basis is not None:
            basis = np.asarray(basis)
            if basis.ndim != 2 or basis.shape[0] != ambient.dim:
                raise ShapeError(f"basis shape {basis.shape} does not fit ambient dim {ambient.dim}")
            self.basis = basis
            self.dim = basis.shape[1]
            self._project = None
            err = np.abs(ambient.gram(basis, basis) - np.eye(self.dim)).max(initial=0.0)
            if not err <= self._ORTHO_TOL:
                raise ShapeError(f"basis not weighted-orthonormal: deviation {err:.3e}")
        else:
            if project is None:
                raise ShapeError("subspace needs a basis or a projector applicator")
            self.basis = None
            self.dim = dim
            self._project = project

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_span(cls, ambient, vectors):
        """Weighted-orthonormalize the span of the given vectors (a list or
        the columns of a (dim, k) array), dropping the QR columns at or below
        ``_SPAN_TOL``."""
        q, r = np.linalg.qr(ambient.scale_to_ortho(_as_columns(ambient, vectors)))
        keep = np.abs(np.diag(r)) > cls._SPAN_TOL * np.abs(np.diag(r)).max(initial=1.0)
        return cls(ambient, basis=ambient.scale_from_ortho(q[:, keep]))

    @classmethod
    def from_generator(cls, ambient, generator, solver=None):
        """Implicit subspace ran(G) for an injective sparse generator G.

        ``solver`` solves the Gram system G^H W G x = b for a vector or a
        block through its ``solve`` method, and its ``for_matrix`` gives the
        solver of another matrix on the same unknowns; by default G^H W G is
        factorised by a :class:`_SparseSolver` in the default order, as is the
        other matrix (the Maxwell kernel splitting, in transverse modes)."""
        g = generator.tocsr() if sp.issparse(generator) else sp.csr_matrix(generator)
        if g.shape[0] != ambient.dim:
            raise ShapeError(f"generator has {g.shape[0]} rows, ambient dim {ambient.dim}")
        w = ambient.weight_operator()
        gram = solver or _SparseSolver(g.conj().T @ (w @ g))
        gh_w = (g.conj().T @ w).tocsr()

        def project(v):
            return g @ gram.solve(gh_w @ v)

        sub = cls(ambient, project=project, dim=g.shape[1], generator=g, gram=gram, gh_w=gh_w)
        sub._verify_projector()
        return sub

    @classmethod
    def complement(cls, sub):
        """Orthogonal complement, explicit when the ambient is small. An
        implicit I - P, written into P v, is not checked: it passes or fails P's checks."""
        amb = sub.ambient
        if sub.basis is not None and amb.dim <= _DENSE_SVD_CUTOFF:
            return cls(amb, basis=_complement_basis(amb, sub.basis))
        dim = None if sub.dim is None else amb.dim - sub.dim
        comp = cls(amb, project=lambda v: _difference(v, sub.project(v), v), dim=dim)
        comp.complement_of = sub
        return comp

    # -- operations ---------------------------------------------------------

    def project(self, v):
        v = self.ambient.check_block(v)
        if self.basis is not None:
            return self.basis @ self.coords(v)
        return self._project(v)

    def coords(self, v):
        """Coefficients B^H W v (explicit mode only)."""
        if self.basis is None:
            raise ShapeError("coords requires an explicit basis")
        return self.basis.conj().T @ self.ambient.apply_weight(v)

    def _verify_projector(self):
        amb = self.ambient
        rng = np.random.default_rng(1234)
        v = rng.standard_normal((amb.dim, 3))
        if amb.field == "complex":
            v = v + 1j * rng.standard_normal((amb.dim, 3))
        u = rng.standard_normal((amb.dim, 3))
        pv, pu = np.split(self._project(np.hstack([v, u])), 2, axis=1)
        scale = np.maximum(1.0, amb.column_norms(v))
        if not np.all(amb.column_norms(self._project(pv) - pv) <= self._PROJ_TOL * scale):
            raise ShapeError("projector is not idempotent at tolerance")
        asym = np.abs(np.diag(amb.gram(u, pv)) - np.diag(amb.gram(pu, v)))
        if not np.all(asym <= self._PROJ_TOL * scale * np.maximum(1.0, amb.column_norms(u))):
            raise ShapeError("projector is not weighted-self-adjoint at tolerance")


def _complement_basis(space, basis, frame=None):
    """W-orthonormal basis of span(frame) (None: the whole space) less
    span(basis), both W-orthonormal: the rank is known, so a complete QR
    needs no rank decision. A basis that leaves span(frame) by more than
    1e-8 raises :class:`ShapeError`."""
    if frame is None:
        coords = space.scale_to_ortho(basis)
    else:
        coords = space.gram(frame, basis)
        outside = space.column_norms(basis - frame @ coords).max(initial=0.0)
        if outside > 1e-8:
            raise ShapeError(f"subspace leaves the frame it should lie in by {outside:.3e}")
    rest = np.linalg.qr(coords, mode="complete")[0][:, basis.shape[1]:]
    return space.scale_from_ortho(rest) if frame is None else frame @ rest


class ProbeSet:
    """Nonempty family of unit-norm probe vectors on one space, held as the
    columns of one (dim, k) array ``matrix``.

    Default constructors give seeded pseudo-random unit vectors on abstract
    spaces; grid-backed modules supply smooth low-frequency probe families
    that mimic compactly supported test functions. ``vectors`` is a list of
    vectors or a (dim, k) array.
    """

    DROP_TOL = 1e-10

    def __init__(self, space, vectors):
        m = _as_columns(space, vectors)
        if m.shape[1] == 0:
            raise ShapeError("probe set must be nonempty")
        dev = np.abs(space.column_norms(m) - 1.0)
        if not dev.max() <= 1e-12:
            raise ShapeError(f"probe norm {1.0 + dev.max()} deviates from 1 beyond 1e-12")
        self.space = space
        self.matrix = m

    @classmethod
    def random(cls, space, count=8, seed=0):
        rng = np.random.default_rng(seed)
        parts = rng.standard_normal((count, 2 if space.field == "complex" else 1, space.dim))
        v = parts[:, 0] + 1j * parts[:, 1] if space.field == "complex" else parts[:, 0]
        return cls.from_vectors(space, v.T)

    @classmethod
    def from_vectors(cls, space, vectors, copy=True):
        """Normalize raw vectors, silently dropping those of norm at most
        ``DROP_TOL``. The caller's array is left alone unless ``copy`` is
        False, which hands over a fresh (dim, k) block to be normalised in
        place."""
        m = _as_columns(space, vectors).astype(complex if space.field == "complex" else float,
                                               copy=copy and isinstance(vectors, np.ndarray))
        norms = space.column_norms(m)
        keep = norms > cls.DROP_TOL
        m = m if keep.all() else m[:, keep]
        m /= norms[keep]
        return cls(space, m)

    def __len__(self):
        return self.matrix.shape[1]


def _as_columns(space, vectors):
    """A (dim, k) array from a list of vectors or from such an array."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        return space.check_block(vectors)
    if not len(vectors):
        return np.zeros((space.dim, 0))
    return np.stack([space.check_member(v) for v in vectors], axis=1)


@dataclass
class CoercivityReport:
    """Outcome of a membership test against the class Re T >= alpha,
    Re T^{-1} >= 1/beta."""

    alpha: float
    beta: float
    re_min: float
    re_inv_min: float
    singular: bool
    tol: float = 0.0

    @property
    def alpha_ok(self):
        return self.re_min >= self.alpha - self.tol

    @property
    def beta_ok(self):
        return (not self.singular) and self.re_inv_min >= 1.0 / self.beta - self.tol

    @property
    def passed(self):
        return self.alpha_ok and self.beta_ok


def _sym_lambda_min(space, mat):
    """Smallest eigenvalue of Re(T) in the weighted inner product.

    Works in the orthonormal frame z = W^{1/2} x, where the pencil becomes the
    Hermitian part h = (Ahat + Ahat^H)/2 of Ahat = W^{1/2} T W^{-1/2}.

    A sparse T never goes dense: h is formed as a sparse matrix and split
    into its connected components, whose smallest eigenvalues are taken one
    by one. A single unknown is its own
    eigenvalue, read off the diagonal. A larger component is reordered by
    reverse Cuthill-McKee and handed to LAPACK's banded Hermitian solver
    (``eig_banded``), which costs about size^2 x bandwidth; a component
    above ``_BANDED_WORK_CUTOFF`` by that measure (a large 2-d or 3-d grid)
    raises :class:`ShapeError`. A dense T takes a dense ``eigvalsh`` of h.
    """
    if sp.issparse(mat):
        return _sparse_lambda_min(space, mat)
    d = np.sqrt(space.weight)
    with np.errstate(over="ignore", invalid="ignore"):
        mhat = (np.asarray(mat) * (1.0 / d)[None, :]) * d[:, None]
        h = 0.5 * (mhat + mhat.conj().T)
    _require_finite(h)
    return float(scipy.linalg.eigvalsh(h)[0])


def _require_finite(h):
    """Refuse a Hermitian part whose entries overflowed."""
    if not np.isfinite(h.data if sp.issparse(h) else h).all():
        raise CoercivityError("Re T overflows in the weighted frame: no bound can be certified")


def _sparse_lambda_min(space, mat):
    """The sparse branch of :func:`_sym_lambda_min`."""
    from scipy.sparse import csgraph

    d = np.sqrt(space.weight)
    ahat = sp.diags(d) @ sp.csr_matrix(mat) @ sp.diags(1.0 / d)
    h = (0.5 * (ahat + ahat.conj().T)).tocsr()
    _require_finite(h)
    h.eliminate_zeros()
    # only the pattern counts; abs() spares csgraph a complex-to-real cast
    n_comp, labels = csgraph.connected_components(abs(h), directed=False)
    sizes = np.bincount(labels, minlength=n_comp)
    lam_min = h.diagonal().real[sizes[labels] == 1].min(initial=np.inf)
    # renumber so that each component is one contiguous diagonal block
    order = np.argsort(labels, kind="stable")
    h = h[order][:, order]
    starts = np.cumsum(sizes) - sizes
    for k in np.flatnonzero(sizes > 1):
        block = h[starts[k]:starts[k] + sizes[k], starts[k]:starts[k] + sizes[k]]
        lam_min = min(lam_min, _component_lambda_min(block))
    return float(lam_min)


def _component_lambda_min(h):
    """Smallest eigenvalue of one connected Hermitian sparse block."""
    from scipy.sparse import csgraph

    n = h.shape[0]
    perm = csgraph.reverse_cuthill_mckee(h, symmetric_mode=True)
    lower = sp.tril(h[perm][:, perm]).tocoo()
    offsets = lower.row - lower.col
    bandwidth = int(offsets.max())
    if n * n * bandwidth > _BANDED_WORK_CUTOFF:
        raise ShapeError(f"a connected block of Re T with {n} unknowns and bandwidth "
                         f"{bandwidth} is too large for a banded eigensolve")
    band = np.zeros((bandwidth + 1, n), dtype=h.dtype)
    band[offsets, lower.col] = lower.data
    vals = scipy.linalg.eig_banded(band, lower=True, eigvals_only=True,
                                   select="i", select_range=(0, 0))
    return float(vals[0])


def coercivity_check(op, alpha, beta, tol=0.0):
    """Membership test for the operator class with Re T >= alpha and
    Re T^{-1} >= 1/beta.

    Computes the smallest eigenvalue of Re T = (T + T*)/2 and of Re(T^{-1})
    in the weighted inner product and reports pass/fail per bound.

    - Re T goes through :func:`_sym_lambda_min`. For a sparse T that is the
      minimum over the connected components of Re T, each by a banded
      eigensolve; a component above ``_BANDED_WORK_CUTOFF`` raises
      :class:`ShapeError`. A dense T takes a dense ``eigvalsh``.
    - Re(T^{-1}): T is factorised once by :func:`_dense_lu`; when the
      estimate of kappa_1(T) stays at or below 1e12 the inverse is read off
      that LU and goes through :func:`_sym_lambda_min`. A sparse T above
      ``_DENSE_EIG_CUTOFF`` unknowns raises :class:`ShapeError`.

    A singular T (kappa_1 estimate above 1e12) is reported with the inverse
    check failed and the singularity flagged.
    """
    if not op.square or not op.source.compatible(op.target):
        raise ShapeError("coercivity check needs a square operator on one space")
    if not (0 < alpha <= beta):
        raise ShapeError("need 0 < alpha <= beta")
    space = op.source
    mat = op.matrix if op.matrix is not None else op.to_dense()
    n = space.dim
    if sp.issparse(mat) and n > _DENSE_EIG_CUTOFF:
        raise ShapeError(f"the Re(T^-1) certificate of a sparse operator with {n} "
                         f"unknowns needs a dense inverse; at most {_DENSE_EIG_CUTOFF}")
    re_min = _sym_lambda_min(space, mat)
    singular = False
    re_inv_min = -np.inf
    solve, cond = _dense_lu(mat.toarray() if sp.issparse(mat) else mat)
    if cond > _COND_CUTOFF:
        singular = True
    else:
        re_inv_min = _sym_lambda_min(space, solve(np.eye(n)))
    return CoercivityReport(alpha=alpha, beta=beta, re_min=re_min,
                            re_inv_min=re_inv_min, singular=singular, tol=tol)


def kernel_range(op):
    """Weighted-orthonormal bases of ker(op) and ran(op) via dense SVD.

    The rank counts the singular values above ``_RANK_TOL`` times the
    largest. Large grid-backed operators should build their subspaces from
    known sparse generators instead (see :meth:`Subspace.from_generator`).
    """
    src, tgt = op.source, op.target
    if max(src.dim, tgt.dim) > _DENSE_SVD_CUTOFF:
        raise ShapeError(
            "kernel_range materializes a dense SVD; build implicit subspaces "
            "from a sparse generator for large operators"
        )
    u, s, vh = np.linalg.svd(_ortho_matrix(op), full_matrices=True)
    rank = int(np.sum(s > _RANK_TOL * s.max(initial=0.0)))
    ker_basis = src.scale_from_ortho(vh.conj().T[:, rank:])
    ran_basis = tgt.scale_from_ortho(u[:, :rank])
    return Subspace(src, basis=ker_basis), Subspace(tgt, basis=ran_basis)


def _ortho_matrix(op):
    """Dense matrix of ``op`` in the W-orthonormal frames, Wt^{1/2} A Ws^{-1/2},
    where W^{1/2} is the frame map of :meth:`HilbertSpace.scale_to_ortho`."""
    return op.target.scale_to_ortho(op.to_dense()) / np.sqrt(op.source.weight)


def _check_gap_args(s, t, probes_src, probes_tgt):
    _check_same_spaces(s, t)
    if probes_src is not None and not probes_src.space.compatible(s.source):
        raise ShapeError("right probes live on the wrong space")
    if probes_tgt is not None and not probes_tgt.space.compatible(s.target):
        raise ShapeError("left probes live on the wrong space")


def _chunk_gap(s, t, probes, measure):
    """max of ``measure(s Psi - t Psi)`` over chunks Psi of ``_BLOCK_ENTRIES`` entries."""
    width = max(1, _BLOCK_ENTRIES // max(s.source.dim, s.target.dim))
    return max(measure(_difference(s(psi), t(psi), psi))
               for psi in (probes.matrix[:, j:j + width] for j in range(0, len(probes), width)))


def wot_gap(s, t, left, right):
    """max over probe pairs of |<phi_i, (s - t) psi_j>|, taken as the
    weighted products max |Phi^H W (s Psi - t Psi)| over byte-bounded column
    chunks Psi of the right probes (one chunk while they fit).

    Zero iff s = t on the span of the probes; restricted to a fixed probe
    family this is a pseudo-metric on operators (symmetry and triangle
    inequality hold exactly).
    """
    _check_gap_args(s, t, right, left)
    return _chunk_gap(s, t, right, lambda d: float(np.abs(s.target.gram(left.matrix, d)).max()))


def strong_gap(s, t, right):
    """max over probes of the weighted norm of (s - t) psi_j, chunked as in :func:`wot_gap`."""
    _check_gap_args(s, t, right, None)
    return _chunk_gap(s, t, right, lambda d: float(s.target.column_norms(d).max()))


def _check_residual(k, x, b, tol):
    """Raise :class:`SolverDiverged` unless ||K x - b|| <= tol max(1, ||b||)
    for the solution and load, or for every column of a block of them; a
    NaN residual misses every tolerance. Its norms form no block-size temporary."""
    def norms(v):
        v = np.asarray(v)
        parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
        return np.sqrt(sum(np.einsum("i...,i...->...", u, u) for u in parts))

    res = np.atleast_1d(norms(k @ x - b))
    bad = ~(res <= tol * np.maximum(1.0, norms(b)))
    if np.any(bad):
        where = f" in column {np.flatnonzero(bad)[0]}" if np.ndim(b) == 2 else ""
        raise SolverDiverged(f"solve residual {np.max(res[bad]):.3e} misses {tol:.1e}{where}")


def _dense_lu(m):
    """Factorise a square dense matrix once (LAPACK ``getrf``) and estimate
    its condition number from that LU.

    Returns ``(solve, cond)``. ``solve(b)`` solves M x = b for a vector or
    a block on the LU, so ``solve(np.eye(n))`` is M^-1. ``cond`` is the
    ``?gecon`` (Hager-Higham) estimate of kappa_1 = ||M||_1 ||M^-1||_1,
    which lies within a factor n of kappa_2. An exactly singular pivot or a
    non-finite entry gives inf, and an empty matrix 1."""
    m = np.asarray(m)
    if not m.size:
        lu = (m, np.zeros(0, dtype=np.int32))
        return functools.partial(scipy.linalg.lu_solve, lu, check_finite=False), 1.0
    getrf, gecon = scipy.linalg.get_lapack_funcs(("getrf", "gecon"), (m,))
    lu, piv, info = getrf(m)
    solve = functools.partial(scipy.linalg.lu_solve, (lu, piv), check_finite=False)
    if info > 0:    # U[info - 1, info - 1] is exactly zero
        return solve, np.inf
    rcond, _ = gecon(lu, np.abs(m).sum(axis=0).max(), norm="1")
    # a NaN estimate (non-finite entries) fails the test and reads as singular
    return solve, 1.0 / rcond if rcond > 0 else np.inf


def _band_lu(k, order=None):
    """Factorise a sparse square K once with LAPACK's band LU (``gbtrf``,
    partial pivoting), its unknowns taken in the order ``order``: by default
    reverse Cuthill-McKee on the pattern of K + K^H. A caller passes an
    order only where it knows a better band, as thermo does with its chain
    in x1 order. A band of more than ``_BAND_LU_ENTRIES`` stored entries
    raises :class:`ShapeError` before it is allocated, and a zero pivot
    raises :class:`NotInM`.

    Returns ``solve``, which solves K x = b for one load or an (n, k) block
    (``gbtrs``) and returns x C-ordered; a real factor solves a complex load
    part by part."""
    from scipy.sparse import csgraph

    k = k.tocsr().tocoo()    # the CSR step sums duplicate entries
    if order is None:
        order = csgraph.reverse_cuthill_mckee(abs(k) + abs(k.T), symmetric_mode=True)
    pos = np.argsort(order)
    keep = k.data != 0
    rows, cols, vals = pos[k.row[keep]], pos[k.col[keep]], k.data[keep]
    kl, ku = (int(d.max(initial=0)) for d in (rows - cols, cols - rows))
    if k.shape[0] * (2 * kl + ku + 1) > _BAND_LU_ENTRIES:
        raise ShapeError(f"a band LU of {k.shape[0]} unknowns with band ({kl}, {ku}) would "
                         f"store more than {_BAND_LU_ENTRIES} entries")
    band = np.zeros((2 * kl + ku + 1, k.shape[0]), dtype=np.result_type(vals, float))
    band[kl + ku + rows - cols, cols] = vals
    gbtrf, gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (band,))
    lu, piv, info = gbtrf(band, kl, ku, overwrite_ab=True)
    if info > 0:
        raise NotInM(f"sparse factorisation is singular: zero pivot at unknown {order[info - 1]}")

    def solve(rhs):
        b = np.asarray(rhs)[order]
        if np.iscomplexobj(b) and not np.iscomplexobj(lu):
            x = gbtrs(lu, kl, ku, b.real, piv)[0] + 1j * gbtrs(lu, kl, ku, b.imag, piv)[0]
        else:
            x = gbtrs(lu, kl, ku, b.astype(lu.dtype, copy=False), piv)[0]
        return x[pos]

    return solve


class _SparseSolver:
    """Residual-checked solves of K x = b from one :func:`_band_lu` of a
    sparse K, its unknowns taken in the order ``order`` (by default reverse
    Cuthill-McKee); a zero pivot raises :class:`NotInM`. One right-hand side
    or an (n, m) block, solved in one call and checked column by column. At
    ``tol=inf`` a non-finite x fails, with no product by K: a residual that
    misses inf is NaN, from a non-finite load or K, which make x so too."""

    def __init__(self, k, tol=1e-10, order=None):
        self.k = k.tocsr()
        self.tol = tol
        self._solve = _band_lu(self.k, order)

    def for_matrix(self, k):
        """The solver of another matrix K: its own band LU."""
        return _SparseSolver(k, self.tol)

    def solve(self, rhs):
        rhs = np.asarray(rhs)
        x = self._solve(rhs)
        if self.tol < np.inf:
            _check_residual(self.k, x, rhs, self.tol)
        elif not np.isfinite(x).all():
            where = f" in column {np.isfinite(x).all(axis=0).argmin()}" if x.ndim == 2 else ""
            raise SolverDiverged(f"solve returned nan or inf{where}")
        return x
