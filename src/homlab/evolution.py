"""Operator equations (T + A)u = f with skew-adjoint A: kernel/range
splitting, resolvent bounds, coefficient recovery from resolvent limits, and
the finite-dimensional equivalence experiment between block-map convergence
and resolvent convergence. Resolvent bounds and the experiment take
(T + A)^{-1} as the elimination along (ker A, ran A) with the Schur maps of
T, on one LU of T_S + A~; only the round trip of coefficient recovery
factorises T + A.

In finite dimension the weak operator topology collapses to the norm
topology, so the equivalence is tested honestly as joint decay of gap
families along sequences; grid-backed two-scale sequences (where probe
pairings genuinely decay before norms do) are driven by
:func:`two_scale_evo_experiment`.
"""

from __future__ import annotations

import numpy as np

from .elliptic import GridDomain, build_grad
from .errors import CoercivityError, HomlabError, NotSkew, ShapeError, SingularResolvent
from .hilbert import (
    HilbertSpace,
    LinearOp,
    ProbeSet,
    _COND_CUTOFF,
    _dense_lu,
    _ortho_matrix,
    _skew_pair,
    _sym_lambda_min,
    adjoint,
    coercivity_check,
    kernel_range,
    wot_gap,
)
from .homogenize import _TAU_COLUMNS, _decay_verdict, _per_n, _report
from .schur import Decomposition, blocks, schur_maps, tau_gap

__all__ = [
    "SkewOp",
    "skew_split",
    "resolvent_bounds",
    "recover_coefficient",
    "abstract_schur_experiment",
    "two_scale_evo_experiment",
    "operator_norm",
    "grid_skew_block",
]

_SKEW_TOL = 1e-10
_ROUND_TRIP_TOL = 1e-9
_BOUND_TOL = 1e-9
# the evo verdict's defaults: the two-scale tolerance, the synthetic
# round-off floor and how far a synthetic log-log slope may miss -1
_TWO_SCALE_TOL, _SYNTHETIC_TOL, _SLOPE_TOL = 5e-2, 1e-6, 0.1
_RECOVER_TOL = 1e-10    # the largest round-trip error of recover


def operator_norm(op):
    """Weighted operator norm (largest singular value in the W-frames)."""
    return float(np.linalg.norm(_ortho_matrix(op), 2))


class SkewOp:
    """Skew-adjoint operator with its kernel/range splitting cached.

    The block form with respect to (ker, ran) is [[0, 0], [0, A~]] with A~
    skew-adjoint and invertible on the range; invertibility is the
    finite-dimensional surrogate of the compact-inverse property."""

    def __init__(self, op, ker, ran, a_tilde, dec):
        self.op = op
        self.space = op.source
        self.ker = ker
        self.ran = ran
        self.a_tilde = a_tilde
        self.dec = dec

    def __call__(self, x):
        return self.op(x)

    def matrix(self):
        return self.op.to_dense()


def _certify_imaginary_spectrum(a_tilde):
    """Raise :class:`NotSkew` unless every |Re lambda(A~)| is certified below
    1e-8 max(1, max |A~_ij|) by Bendixson's bound: the norm of the Hermitian
    part, bounded in turn by its largest absolute column sum."""
    herm = np.abs(a_tilde + a_tilde.conj().T).sum(axis=0).max() / 2
    if herm > 1e-8 * max(1.0, np.abs(a_tilde).max()):
        raise NotSkew(f"reduced block has eigenvalues off the imaginary axis: "
                      f"its Hermitian part has norm up to {herm:.3e}")


def skew_split(a, tol=_SKEW_TOL):
    """Verify skew-adjointness and split along (ker A, ran A).

    The kernel must be orthogonal to the range, and the reduced block A~ on
    the range must have a purely imaginary spectrum. The basis of the range
    is W-orthonormal, so A~^H is the adjoint of A~ and Bendixson's theorem
    bounds every |Re lambda(A~)| by the norm of the Hermitian part
    (A~ + A~^H)/2; its largest absolute column sum bounds that norm from
    above, which certifies the spectrum without an eigenvalue solve.
    """
    if not a.square or not a.source.compatible(a.target):
        raise ShapeError("skew split needs a square operator")
    mat = a.to_dense()
    astar = adjoint(a).to_dense()
    scale = max(1.0, np.abs(mat).max())
    if np.abs(astar + mat).max() > tol * scale:
        raise NotSkew(f"adjoint deviates from -A by {np.abs(astar + mat).max():.3e}")
    ker, ran = kernel_range(a)
    dec = Decomposition(a.source, ker, ran)
    # A~ = B1^H W A B1; the kernel rows and columns must vanish
    a00, a01, a10, a_tilde = blocks(a, dec)
    if max(np.abs(b).max(initial=0.0) for b in (a00, a01, a10)) > 1e-9 * scale:
        raise NotSkew("block form of the splitting is not [[0,0],[0,A~]]")
    if ran.dim:
        _certify_imaginary_spectrum(a_tilde)
    return SkewOp(a, ker, ran, a_tilde, dec)


def _eliminated_resolvent(maps, a):
    """(T + A)^{-1} as the elimination along (ker A, ran A), read from the
    Schur maps ``maps`` of T:

        u1 = (T_S + A~)^{-1} (f1 - T10 T00^{-1} f0)
        u0 = T00^{-1} f0 - T00^{-1} T01 u1.

    Returns it as an operator on a vector or a block, and the solve with
    T_S + A~ on its one LU, whose kappa_1 estimate must stay at or below
    1e12."""
    solve_s, cond = _dense_lu(maps.ms_mat + a.a_tilde)
    if cond > _COND_CUTOFF:
        raise HomlabError("internal inconsistency: T_S + A~ is singular despite the "
                          "coercivity and skew-adjointness guards")
    ker, ran = a.ker, a.ran

    # an empty kernel or range gives empty blocks, which numpy solves as such
    def apply(f):
        f0, f1 = ker.coords(f), ran.coords(f)
        u1 = solve_s(f1 - maps.m10_mat @ f0)
        return ker.basis @ (maps.m00inv_mat @ f0 - maps.m01_mat @ u1) + ran.basis @ u1

    return LinearOp(a.space, a.space, apply=apply), solve_s


def resolvent_bounds(t, a):
    """Norms of (T+A)^{-1} and A (T+A)^{-1} together with the coercivity
    constant c of Re T; both must obey the a priori bounds
    ||(T+A)^{-1}|| <= 1/c and ||A (T+A)^{-1}|| <= (c + ||T||)/c, up to 1e-9.
    The resolvent is the elimination of :func:`_eliminated_resolvent`."""
    space = t.source
    c = _sym_lambda_min(space, t.to_dense())
    if c <= 0:
        raise CoercivityError(f"Re T has nonpositive lower bound {c:.3e}")
    res = _eliminated_resolvent(schur_maps(t, a.dec), a)[0].to_dense()
    n_res = operator_norm(LinearOp(space, space, matrix=res))
    n_ares = operator_norm(LinearOp(space, space, matrix=a(res)))
    t_norm = operator_norm(t)
    if n_res > 1.0 / c + _BOUND_TOL:
        raise HomlabError(f"resolvent norm {n_res} exceeds 1/c = {1.0 / c}")
    if n_ares > (c + t_norm) / c + _BOUND_TOL:
        raise HomlabError(f"A-resolvent norm {n_ares} exceeds (c + |T|)/c = {(c + t_norm) / c}")
    return n_res, n_ares, c


def recover_coefficient(s, a, bounds=None):
    """Recover T from a resolvent limit S through K = 1 - A S:
    T = K S^{-1} = S^{-1} - A. S^{-1} is read off one LU of S, whose kappa_1
    estimate must stay at or below 1e12. The round trip (T + A)^{-1} = S is
    verified at ``_ROUND_TRIP_TOL``, and declared coercivity bounds are
    checked on the recovered operator."""
    space = s.source
    smat = s.to_dense()
    solve, cond = _dense_lu(smat)
    if cond > _COND_CUTOFF:
        raise SingularResolvent("resolvent limit is numerically singular")
    sinv = solve(np.eye(space.dim))
    tmat = sinv - a.matrix()
    rt = _dense_lu(tmat + a.matrix())[0](np.eye(space.dim))
    if not np.abs(rt - smat).max() <= _ROUND_TRIP_TOL * max(1.0, np.abs(smat).max()):
        raise SingularResolvent("round trip (T + A)^{-1} != S")
    t = LinearOp(space, space, matrix=tmat)
    if bounds is not None:
        rep = coercivity_check(t, bounds[0], bounds[1], tol=1e-8)
        if not rep.passed:
            raise CoercivityError(
                f"recovered coefficient misses the declared class: "
                f"Re min {rep.re_min:.6g}, Re inv min {rep.re_inv_min:.6g}"
            )
    return t


def _split_probes(a, probes):
    first = probes.matrix[:, :1]
    p0 = ProbeSet.from_vectors(a.space, a.ker.project(probes.matrix)) \
        if a.ker.dim else ProbeSet(a.space, first)
    p1 = ProbeSet.from_vectors(a.space, a.ran.project(probes.matrix)) \
        if a.ran.dim else ProbeSet(a.space, first)
    return p0, p1


def _reduced_strong_gap(a, solve_n, solve_lim, wobble_coords):
    """Strong gap of the eliminated problem on ran(A), solved with T_S + A~
    for T_n and for the limit: the compact-inverse mechanism turns weak
    wobbles of the data into vanishing solution gaps."""
    if not a.ran.dim:
        return 0.0
    g = np.ones(a.ran.dim) / np.sqrt(a.ran.dim)
    return float(a.space.norm(a.ran.basis @ (solve_n(g + wobble_coords) - solve_lim(g))))


def abstract_schur_experiment(a, t_seq, t_limit, probes=None, n_list=None,
                              wobble=None, seed=0):
    """Joint tracker for a fixed skew splitting: per n, the four block-map
    gaps of T_n against T, the resolvent gap of (T_n + A)^{-1} against
    (T + A)^{-1}, and the strong gap of the eliminated problem under a
    weakly-wobbling load. The Schur maps of T are built once and those of
    each T_n once. All three kinds of gap share them: (T_n + A)^{-1} is
    their elimination, and the strong gap solves on its LU of T_S + A~.

    ``t_seq`` is a list of operators or a callable n -> operator; the wobble
    defaults to a seeded unit vector scaled by 1/n.
    """
    if probes is None:
        probes = ProbeSet.random(a.space, count=8, seed=seed)
    if callable(t_seq):
        if n_list is None:
            raise ShapeError("callable sequences need an explicit n_list")
        t_of = t_seq
    else:
        n_list, t_of = range(1, len(t_seq) + 1), lambda n: t_seq[n - 1]
    p0, p1 = _split_probes(a, probes)
    maps_lim = schur_maps(t_limit, a.dec)
    res_lim, solve_lim = _eliminated_resolvent(maps_lim, a)
    rng = np.random.default_rng(seed)
    wobble_base = rng.standard_normal(max(a.ran.dim, 1))
    if a.ran.dim:
        wobble_base /= np.linalg.norm(wobble_base)

    def row(n):
        maps_n = schur_maps(t_of(n), a.dec)
        gaps = tau_gap(maps_n, maps_lim, a.dec, p0, p1)
        res_n, solve_n = _eliminated_resolvent(maps_n, a)
        wob = wobble(n) if wobble is not None else wobble_base[: a.ran.dim] / n
        return {"n": n, **dict(zip(_TAU_COLUMNS, gaps)),
                "gap_resolvent": wot_gap(res_n, res_lim, probes, probes),
                "gap_strong": _reduced_strong_gap(a, solve_n, solve_lim, wob)}

    return _per_n("evo", n_list, row, {"probe_seed": seed, "ker_dim": a.ker.dim,
                                       "ran_dim": a.ran.dim, "regime": "synthetic"})


def synthetic_evo_experiment(space_dim, n_list, seed):
    """:func:`abstract_schur_experiment` along T_n = T + P / n, all seeded:
    T symmetric with spectrum in [0.7, 2.8], |P| = 0.1, and |A| = 0.5 with a
    forced kernel (its first max(2, space_dim // 4) rows and columns)."""
    rng = np.random.default_rng(seed)
    space = HilbertSpace(space_dim)
    q, _ = np.linalg.qr(rng.standard_normal((space_dim, space_dim)))
    base = q @ np.diag(rng.uniform(0.7, 2.8, space_dim)) @ q.T
    skew = rng.standard_normal((space_dim, space_dim))
    skew = skew - skew.T
    deficit = max(2, space_dim // 4)
    skew[:deficit, :] = skew[:, :deficit] = 0.0
    skew *= 0.5 / np.linalg.norm(skew, 2)
    a = skew_split(LinearOp(space, space, matrix=skew))
    pert = rng.standard_normal((space_dim, space_dim))
    pert *= 0.1 / np.linalg.norm(pert, 2)
    return abstract_schur_experiment(a, lambda n: LinearOp(space, space, matrix=base + pert / n),
                                     LinearOp(space, space, matrix=base), n_list=n_list, seed=seed)


def _decays(report, col, tol, floor):
    """``col`` ends at most ``tol`` and grows only if all of it is at most ``floor``."""
    v = report.values(col)
    return bool(v[-1] <= tol and (v[0] >= v[-1] or v.max() <= floor))


def check_joint_decay(report, tau_tol, res_tol):
    """Equivalence surrogate: the four block-map gaps decay below tolerance
    precisely when the resolvent gaps do."""
    tau_ok = all(_decays(report, c, tau_tol, tau_tol) for c in _TAU_COLUMNS)
    res_ok = _decays(report, "gap_resolvent", res_tol, res_tol)
    return tau_ok == res_ok, tau_ok, res_ok


def evo_verdict(report, tol=None, slope_tol=_SLOPE_TOL):
    """Two-scale: the resolvent gap decays to at most ``tol`` (5e-2).
    Synthetic: the m00inv, ms and resolvent gaps have log-log slope -1
    within ``slope_tol``, and the block-map gaps decay exactly when the
    resolvent gap does, each column held to max(tol, 1.5 x its own final
    value) with the round-off floor ``tol`` (1e-6)."""
    if report.meta["regime"] == "two-scale":
        return _decay_verdict(report, "two-scale decay", ("gap_resolvent",), tol or _TWO_SCALE_TOL)
    tol = tol or _SYNTHETIC_TOL
    failures = []
    logn = np.log(report.values("n").astype(float))
    for col in ("gap_m00inv", "gap_ms", "gap_resolvent"):
        slope = np.polyfit(logn, np.log(np.maximum(report.values(col), 1e-300)), 1)[0]
        if abs(slope + 1.0) > slope_tol:
            failures.append(f"evo {col}: log-log slope {slope:.3f} not -1")
    decays = lambda col: _decays(report, col, max(tol, 1.5 * report.final(col)), tol)
    if all(map(decays, _TAU_COLUMNS)) != decays("gap_resolvent"):
        failures.append("evo: block-map and resolvent decay disagreed")
    return failures


def grid_skew_block(grad):
    """Skew block [[0, div], [grad, 0]] on scalar (+) vector from a discrete
    gradient, as ``(operator, space)``: :func:`hilbert._skew_pair` of grad,
    so div is minus the weighted adjoint of grad and skew-adjointness is
    structural."""
    op = _skew_pair(grad.op)
    return op, op.source


def two_scale_evo_experiment(instance_factory, n_list):
    """Two-scale variant: per n the factory returns
    (skew, t_n, t_limit, probes, wobble_coords) on an n-dependent mesh; the
    same columns as the synthetic experiment are emitted. Probe-pairing decay
    here genuinely precedes norm decay, which is the regime the label
    records."""
    def row(n):
        a, t_n, t_lim, probes, wob = instance_factory(n)
        rep = abstract_schur_experiment(a, [t_n], t_lim, probes=probes, wobble=lambda _n: wob)
        return {**rep.rows[0], "n": n}

    return _per_n("evo", n_list, row, {"regime": "two-scale"})


def grid_two_scale(cells_per_period):
    """The :func:`two_scale_evo_experiment` factory on ``cells_per_period`` n
    Dirichlet cells of [0, 1]: the dense :func:`grid_skew_block`, T_n =
    2 + sin(2 pi n x) against 2, probes sin(k pi x), k <= 3, and no wobble."""
    def factory(n):
        grad = build_grad(GridDomain.interval(0, 1, cells_per_period * n), "dirichlet")
        op, space = grid_skew_block(grad)
        a = skew_split(LinearOp(space, space, matrix=op.to_dense()))
        x = np.concatenate([grad.node_coords[:, 0], grad.elem_mid[:, 0]])
        t_n = LinearOp(space, space, matrix=np.diag(2.0 + np.sin(2 * np.pi * n * x)))
        t_lim = LinearOp(space, space, matrix=2.0 * np.eye(space.dim))
        probes = ProbeSet.from_vectors(space, [np.sin(k * np.pi * x) for k in (1, 2, 3)])
        return a, t_n, t_lim, probes, np.zeros(a.ran.dim)

    return factory


def recover_experiment(trials, dim_max, seed):
    """Seeded round trips T -> (T + A)^-1 -> T by :func:`recover_coefficient`
    in random dimensions in [2, dim_max): one row of the trials and the worst
    round-trip error, and each trial that raised in the meta's ``failed``."""
    rng = np.random.default_rng(seed)
    worst, failed = 0.0, []
    for trial in range(trials):
        n = int(rng.integers(2, dim_max))
        space = HilbertSpace(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        base = q @ np.diag(rng.uniform(0.7, 2.8, n)) @ q.T
        sk = rng.standard_normal((n, n))
        sk = sk - sk.T
        sk *= 0.05 / max(np.linalg.norm(sk, 2), 1e-12)
        t0 = LinearOp(space, space, matrix=base + sk)
        askew = rng.standard_normal((n, n))
        askew = askew - askew.T
        a = skew_split(LinearOp(space, space, matrix=askew))
        s = LinearOp(space, space, matrix=_dense_lu(t0.to_dense() + a.matrix())[0](np.eye(n)))
        try:
            t = recover_coefficient(s, a, bounds=(0.5, 4.0))
        except HomlabError as exc:
            failed.append(f"recover trial {trial}: {exc}")
            continue
        worst = max(worst, np.abs(t.to_dense() - t0.to_dense()).max())
    return _report("recover", [{"trials": trials, "worst_error": worst}], {"failed": failed})


def recover_verdict(report):
    """No trial raised, and the worst round-trip error is at most 1e-10."""
    worst = report.final("worst_error")
    if worst > _RECOVER_TOL:
        return report.meta["failed"] + [f"recover: worst round-trip error {worst:.3e} above 1e-10"]
    return report.meta["failed"]
