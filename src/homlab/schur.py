"""Block decomposition of operators along an orthogonal splitting
H = H0 (+) H1, the four Schur-topology maps, and block-inverse algebra.

For an operator ``a`` with blocks ``a_jk = i_j* a i_k`` the four maps are

    a00^{-1},   a00^{-1} a01,   a10 a00^{-1},   a_S = a11 - a10 a00^{-1} a01,

each landing in a weak-operator-topologized operator space; convergence of all
four against probe families is measured by :func:`tau_gap`, each map applied
once per column chunk of a probe block. The four maps are the block elimination: solving
(T + A)u = f along H0 = ker A, H1 = ran A applies the maps of T, with T_S + A~
in place of a_S, so :func:`schur_maps` is the one place a Schur complement is
formed (the elimination (T + A)^{-1} of :mod:`homlab.evolution` reads it there).
Dense inverses run on the one LU of ``hilbert._dense_lu``. Explicit
decompositions carry orthonormal bases and produce dense coordinate matrices;
implicit ones are generator-backed and produce matrix-free maps that take
blocks. Two solvers serve an implicit
splitting H0 = ran(G): the projector G (G^H W G)^{-1} G^H W solves with the
Gram matrix through the solver the splitting was built with (on a grid
gradient range, the grid solver of the unit stiffness; otherwise,
as on the kernel splitting of the Maxwell curl block in transverse modes,
one band LU), while a00^{-1} solves the Galerkin system G^H W a G once per
operator with a solver of the same kind: on a grid, the exact inverse of a
system that separates (every 1-d system, and a laminate), else
preconditioned CG or GMRES; otherwise the band LU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NotInM, ShapeError, SolverDiverged
from .hilbert import (
    CoercivityReport,
    HilbertSpace,
    LinearOp,
    Subspace,
    _COND_CUTOFF,
    _complement_basis,
    _dense_lu,
    _difference,
    coercivity_check,
    wot_gap,
)

__all__ = [
    "Decomposition",
    "SchurMaps",
    "blocks",
    "schur_maps",
    "block_inverse",
    "schur_complement_coercivity",
    "tau_gap",
    "inversion_swap_check",
    "finite_shuffle",
    "class_membership",
    "ClassMembershipReport",
]

_ORTHO_TOL = 1e-8
_BLOCK_INVERSE_TOL = 1e-8
_BLOCK_INVERSE_SEED = 7
_SWAP_TOL = 1e-9


class Decomposition:
    """Orthogonal splitting of a space into a closed subspace and its
    complement. Explicit mode requires h0 perp h1 and dim h0 + dim h1 = dim;
    implicit mode verifies P0 + P1 = I on random probes (a NaN fails), with
    P1 v read as v - P0 v when h1 is the implicit complement of h0."""

    def __init__(self, space, h0, h1):
        self.space = space
        self.h0 = h0
        self.h1 = h1
        self.explicit = h0.basis is not None and h1.basis is not None
        if self.explicit:
            if h0.dim + h1.dim != space.dim:
                raise ShapeError(
                    f"subspace dims {h0.dim}+{h1.dim} do not sum to {space.dim}"
                )
            if np.abs(space.gram(h0.basis, h1.basis)).max(initial=0.0) > _ORTHO_TOL:
                raise ShapeError("h0 and h1 are not orthogonal")
        else:
            v = np.random.default_rng(99).standard_normal((space.dim, 3))
            p0 = h0.project(v)
            r = space.column_norms(p0 + (v - p0 if h1.complement_of is h0 else h1.project(v)) - v)
            if not np.all(r <= _ORTHO_TOL * np.maximum(1.0, space.column_norms(v))):
                raise ShapeError("projectors do not sum to the identity")

    @classmethod
    def from_subspace(cls, space, h0):
        return cls(space, h0, Subspace.complement(h0))

    @classmethod
    def from_generator(cls, space, generator, solver=None):
        """Splitting along ran(G); ``solver`` solves with G^H W G (see
        :meth:`Subspace.from_generator`)."""
        return cls.from_subspace(space, Subspace.from_generator(space, generator, solver))

    def swap(self):
        return Decomposition(self.space, self.h1, self.h0)


def _projected_solver(dec, a_matrix):
    """a00^{-1} on a generator-backed subspace: parametrizing H0 = ran(G)
    turns the projected equation P0 a G u = phi into the Galerkin system
    (G^H W a G) u = G^H W phi, solved by the kind of solver the splitting
    solves its Gram matrix with (``gram.for_matrix``): on a grid gradient
    range, the grid solver of the system, and otherwise one band LU
    (``hilbert._SparseSolver``). The returned solve maps
    phi (one load or a block) to G (G^H W a G)^{-1} G^H W phi."""
    g = dec.h0.generator
    if g is None:
        raise ShapeError("implicit Schur maps need a generator-backed h0")
    if not sp.issparse(a_matrix):
        a_matrix = sp.csr_matrix(a_matrix)
    ghw = dec.h0.gh_w
    try:
        solver = dec.h0.gram.for_matrix(ghw @ (a_matrix @ g))
    except NotInM as exc:
        raise NotInM(f"projected block is numerically singular: {exc}") from exc
    return lambda phi: g @ solver.solve(ghw @ phi)


class SchurMaps:
    """The four maps attached to one operator and one decomposition.

    ``m00inv``, ``m01``, ``m10``, ``ms`` act on ambient representations of
    subspace elements (so probe pairings can be taken directly in the ambient
    inner product). In explicit mode the dense coordinate matrices are kept in
    ``m00inv_mat`` etc., with blocks expressed in the h0/h1 bases.
    """

    def __init__(self, space, dec, apply_m00inv, apply_m01, apply_m10, apply_ms,
                 coord_mats=None):
        self.space = space
        self.dec = dec
        mk = lambda f: LinearOp(space, space, apply=f)
        self.m00inv = mk(apply_m00inv)
        self.m01 = mk(apply_m01)
        self.m10 = mk(apply_m10)
        self.ms = mk(apply_ms)
        if coord_mats is not None:
            self.m00inv_mat, self.m01_mat, self.m10_mat, self.ms_mat = coord_mats
        else:
            self.m00inv_mat = self.m01_mat = self.m10_mat = self.ms_mat = None


def blocks(a, dec):
    """Blocks a_jk = i_j* a i_k of a square operator.

    Explicit decompositions give dense coordinate matrices
    ``B_j^H W a B_k``; implicit ones give projector-sandwiched applicators.
    """
    if not a.square or not a.source.compatible(dec.space):
        raise ShapeError("operator must be square on the decomposition's space")
    if dec.explicit:
        amat = a.to_dense()
        b0, b1 = dec.h0.basis, dec.h1.basis
        wb0, wb1 = dec.space.apply_weight(b0), dec.space.apply_weight(b1)
        cols0, cols1 = amat @ b0, amat @ b1
        return (wb0.conj().T @ cols0, wb0.conj().T @ cols1,
                wb1.conj().T @ cols0, wb1.conj().T @ cols1)
    p0, p1 = dec.h0.project, dec.h1.project
    space = dec.space
    mk = lambda pj, pk: LinearOp(space, space, apply=lambda v: pj(a(pk(v))))
    return mk(p0, p0), mk(p0, p1), mk(p1, p0), mk(p1, p1)


def schur_maps(a, dec):
    """The four Schur-topology maps of ``a`` for the given decomposition.

    Requires ``a`` and its (0,0) block to be continuously invertible;
    otherwise raises :class:`NotInM`. An explicit decomposition factorises
    ``a`` and a00 once each with LAPACK's LU and checks the ``?gecon``
    estimate of each kappa_1 against 1e12 (kappa_1 lies within a factor n
    of kappa_2); a00^{-1} is read off the same LU. An implicit one checks
    only a00, through the factorisation of its Galerkin system (one band
    LU, or the mode systems of a grid system that separates), which raises
    :class:`NotInM` when that system is singular;
    a grid system that does not separate is checked only by the residuals
    of its solves.
    """
    if not a.square or not a.source.compatible(dec.space):
        raise ShapeError("operator must be square on the decomposition's space")
    if dec.explicit:
        a00, a01, a10, a11 = blocks(a, dec)
        if _dense_lu(a.to_dense())[1] > _COND_CUTOFF:
            raise NotInM("operator condition estimate above cutoff")
        solve00, cond00 = _dense_lu(a00)
        if cond00 > _COND_CUTOFF:
            raise NotInM("a00 condition estimate above cutoff")
        a00inv = solve00(np.eye(dec.h0.dim))
        m01 = a00inv @ a01
        m10 = a10 @ a00inv
        ms = a11 - a10 @ (a00inv @ a01)
        b0, b1, c0, c1 = dec.h0.basis, dec.h1.basis, dec.h0.coords, dec.h1.coords
        return SchurMaps(
            dec.space, dec,
            apply_m00inv=lambda v: b0 @ (a00inv @ c0(v)),
            apply_m01=lambda v: b0 @ (m01 @ c1(v)),
            apply_m10=lambda v: b1 @ (m10 @ c0(v)),
            apply_ms=lambda v: b1 @ (ms @ c1(v)),
            coord_mats=(a00inv, m01, m10, ms),
        )
    amat = a.matrix
    if amat is None:
        raise ShapeError("implicit Schur maps need a sparse operator matrix")
    solve = _projected_solver(dec, amat)
    p1 = dec.h1.project

    # solve reads its load through G^H W, and G^H W P0 = G^H W, so the P0 of
    # a00^{-1} P0 is implicit
    def apply_ms(v):
        av = a(v)
        return p1(_difference(av, a(solve(av)), v))

    return SchurMaps(
        dec.space, dec,
        apply_m00inv=solve,
        apply_m01=lambda v: solve(a(v)),
        apply_m10=lambda v: p1(a(solve(v))),
        apply_ms=apply_ms,
    )


def block_inverse(a, dec):
    """Assemble a^{-1} from the 2x2 block formula

        [[a00^{-1} + a00^{-1} a01 a_S^{-1} a10 a00^{-1}, -a00^{-1} a01 a_S^{-1}],
         [-a_S^{-1} a10 a00^{-1},                          a_S^{-1}]]

    (explicit decompositions only). The result is verified against the
    identity on random probes at ``_BLOCK_INVERSE_TOL`` before being returned.
    """
    if not dec.explicit:
        raise ShapeError("block_inverse needs an explicit decomposition")
    maps = schur_maps(a, dec)
    a00inv, m01, m10, ms = maps.m00inv_mat, maps.m01_mat, maps.m10_mat, maps.ms_mat
    msinv = _dense_lu(ms)[0](np.eye(dec.h1.dim))
    emb = np.hstack([dec.h0.basis, dec.h1.basis])
    coord = np.block([[a00inv + m01 @ msinv @ m10, -m01 @ msinv], [-msinv @ m10, msinv]])
    inv_mat = emb @ coord @ dec.space.apply_weight(emb).conj().T
    result = LinearOp(dec.space, dec.space, matrix=inv_mat)
    v = np.random.default_rng(_BLOCK_INVERSE_SEED).standard_normal((dec.space.dim, 3))
    err = np.abs(a(result(v)) - v).max(axis=0)
    if np.any(err > _BLOCK_INVERSE_TOL * np.maximum(1.0, np.abs(v).max(axis=0))):
        raise SolverDiverged(f"block inverse verification failed: {err.max():.3e}")
    return result


def schur_complement_coercivity(a, dec, alpha, beta, tol=0.0):
    """Coercivity report for a_S = a11 - a10 a00^{-1} a01 on H1.

    Whenever ``a`` itself passes the (alpha, beta) membership test, the
    complement must pass with the same constants.
    """
    maps = schur_maps(a, dec)
    if maps.ms_mat is None:
        raise ShapeError("coercivity of the complement needs an explicit decomposition")
    space1 = HilbertSpace(dec.h1.dim, field=dec.space.field)
    op = LinearOp(space1, space1, matrix=maps.ms_mat)
    return coercivity_check(op, alpha, beta, tol=tol)


def tau_gap(a, b, dec, probes0, probes1):
    """Probe gaps of the four Schur maps between two operators.

    Returns ``(gap_m00inv, gap_m01, gap_m10, gap_ms)``. Probes must be
    ambient representations of vectors lying in h0 and h1 respectively.
    With h0 the whole space the quadruple degenerates to the inverse gap;
    with h1 the whole space, to the plain operator gap.
    """
    ma = a if isinstance(a, SchurMaps) else schur_maps(a, dec)
    mb = b if isinstance(b, SchurMaps) else schur_maps(b, dec)
    return (wot_gap(ma.m00inv, mb.m00inv, probes0, probes0),
            wot_gap(ma.m01, mb.m01, probes0, probes1),
            wot_gap(ma.m10, mb.m10, probes1, probes0),
            wot_gap(ma.ms, mb.ms, probes1, probes1))


def inversion_swap_check(a, dec):
    """Check that the Schur maps of a^{-1} for the swapped decomposition are
    the algebraic images of the maps of ``a``:

        m00inv' = ms,  m01' = -m10,  m10' = -m01,  ms' = m00inv.

    In particular the (1,1) block of a^{-1} inverts back to a_S. Returns True
    when all four identities hold at ``_SWAP_TOL`` relative.
    """
    if not dec.explicit:
        raise ShapeError("inversion swap check needs an explicit decomposition")
    maps = schur_maps(a, dec)
    a_inv = LinearOp(dec.space, dec.space,
                     matrix=_dense_lu(a.to_dense())[0](np.eye(dec.space.dim)))
    maps_swapped = schur_maps(a_inv, dec.swap())
    pairs = [
        (maps_swapped.m00inv_mat, maps.ms_mat),
        (maps_swapped.m01_mat, -maps.m10_mat),
        (maps_swapped.m10_mat, -maps.m01_mat),
        (maps_swapped.ms_mat, maps.m00inv_mat),
    ]
    scale = max(1.0, max(np.abs(m).max() for m in (maps.m00inv_mat, maps.ms_mat) if m.size))
    return all(
        (x.size == 0 and y.size == 0) or np.abs(x - y).max() <= _SWAP_TOL * scale
        for x, y in pairs
    )


def finite_shuffle(dec, k):
    """Move a finite-dimensional subspace k of h1 across the splitting:
    returns the decomposition (h0 (+) k, h1 intersect k-perp) with
    re-orthonormalized bases."""
    if not dec.explicit:
        raise ShapeError("finite_shuffle needs an explicit decomposition")
    if k.basis is None:
        raise ShapeError("the shuffled subspace needs an explicit basis")
    if k.dim == 0:
        return dec
    space = dec.space
    new_h1 = Subspace(space, basis=_complement_basis(space, k.basis, dec.h1.basis))
    new_h0 = Subspace.from_span(space, np.hstack([dec.h0.basis, k.basis]))
    return Decomposition(space, new_h0, new_h1)


@dataclass
class ClassMembershipReport:
    """Membership in the four-parameter block-coercive class: (0,0) block and
    Schur complement both in F(alpha00, alpha11), cross maps norm-bounded by
    alpha10 / alpha01.

    The same pair (alpha00, alpha11) bounds both diagonal members; the
    apparent index asymmetry mirrors the class definition literally and is
    flagged rather than reinterpreted."""

    block00: CoercivityReport
    complement: CoercivityReport
    norm_m10: float
    norm_m01: float
    alpha: np.ndarray
    index_asymmetry_note: str = (
        "diagonal class bounds reuse (alpha00, alpha11) for both the (0,0) "
        "block and the Schur complement"
    )

    @property
    def passed(self):
        return (
            self.block00.passed
            and self.complement.passed
            and self.norm_m10 <= self.alpha[1, 0]
            and self.norm_m01 <= self.alpha[0, 1]
        )


def class_membership(a, dec, alpha):
    """Test membership in the block-coercive class with parameter matrix
    alpha = (alpha_jk)."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (2, 2) or np.any(alpha <= 0):
        raise ShapeError("alpha must be a positive 2x2 parameter matrix")
    maps = schur_maps(a, dec)
    if maps.m00inv_mat is None:
        raise ShapeError("class membership needs an explicit decomposition")
    k0, k1 = dec.h0.dim, dec.h1.dim
    s0 = HilbertSpace(max(k0, 1), field=dec.space.field)
    s1 = HilbertSpace(max(k1, 1), field=dec.space.field)
    a00 = blocks(a, dec)[0]
    rep00 = coercivity_check(LinearOp(s0, s0, matrix=a00), alpha[0, 0], alpha[1, 1]) \
        if k0 else CoercivityReport(alpha[0, 0], alpha[1, 1], np.inf, np.inf, False)
    reps = coercivity_check(LinearOp(s1, s1, matrix=maps.ms_mat), alpha[0, 0], alpha[1, 1]) \
        if k1 else CoercivityReport(alpha[0, 0], alpha[1, 1], np.inf, np.inf, False)
    norm10 = np.linalg.norm(maps.m10_mat, 2) if maps.m10_mat.size else 0.0
    norm01 = np.linalg.norm(maps.m01_mat, 2) if maps.m01_mat.size else 0.0
    return ClassMembershipReport(rep00, reps, norm10, norm01, alpha)
