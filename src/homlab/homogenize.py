"""Coefficient oscillation families, predicted effective limits (means,
laminates, periodic cell problems), and the two-parameter convergence
experiments.

The convergence of oscillating problems toward their effective limit is a
statement about the oscillation index n alone; the discretisation enters as a
second parameter. Experiments therefore couple the mesh to the oscillation
through a cells-per-period rule, and weak convergence is measured exclusively
through pairings with fixed smooth probes, never through norms of differences
-- that distinction is exactly where weak and strong convergence part ways at
desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elliptic import (
    CoefficientField,
    GridDomain,
    RHSFunctional,
    _require_coercive,
    _solve_galerkin,
    _vector_terms,
    build_grad,
    check_budget,
    scalar_probe_pairs,
    solve_elliptic,
    stiffness_solver,
    vector_probe_pairs,
    vector_probes,
)
from .errors import (
    CoercivityError,
    MeshRuleViolation,
    QuadratureError,
    ShapeError,
    VanishingHarmonicMean,
)
from .hilbert import _BLOCK_ENTRIES, LinearOp, ProbeSet, _difference, coercivity_check, wot_gap
from .schur import Decomposition, tau_gap

__all__ = [
    "CoefficientSequence",
    "MeshRule",
    "ExperimentReport",
    "laminate_limit",
    "cell_problem",
    "homogenized_tensor",
    "hconvergence_experiment",
    "qdind_check",
    "log_gap_correlation",
    "schur_equiv_check",
    "adjoint_symmetry_check",
    "g0_decomposition",
    "g0_probe_pair",
]


class CoefficientSequence:
    """n-indexed oscillation family producing a coefficient field per mesh.

    Kinds: ``laminate_x1`` (profile of the first coordinate times the
    identity) and ``periodic_rescale`` (a unit-cell field evaluated at n
    times the position); the constructor takes any generator
    ``(n, domain) -> field``. Bounds are uniform in n and every generated
    field is checked against them.
    """

    def __init__(self, kind, generator, bounds, profile=None):
        self.kind = kind
        self._generator = generator
        self.bounds = bounds
        self.profile = profile

    @classmethod
    def laminate(cls, profile, bounds):
        """a_n(x) = profile(n x_1 mod 1) times the identity."""

        def gen(n, domain):
            def fn(points):
                return profile((n * points[:, 0]) % 1.0)

            return CoefficientField.from_function(domain, fn, bounds=bounds)

        return cls("laminate_x1", gen, bounds, profile=profile)

    @classmethod
    def periodic(cls, cell_fn, bounds):
        """a_n(x) = A(n x mod 1) for a unit-cell field A."""

        def gen(n, domain):
            def fn(points):
                return cell_fn((n * points) % 1.0)

            return CoefficientField.from_function(domain, fn, bounds=bounds)

        return cls("periodic_rescale", gen, bounds)

    def field(self, n, domain):
        f = self._generator(n, domain)
        if self.bounds is not None and not f.is_member(*self.bounds, tol=1e-10):
            raise CoercivityError(f"generated field at n={n} violates uniform bounds")
        return f

    def adjoint(self):
        base = self._generator

        def gen(n, domain):
            return base(n, domain).adjoint_field()

        return CoefficientSequence(f"{self.kind}*", gen, self.bounds)

    def predicted_laminate_limit(self, d):
        """diag(harmonic mean, arithmetic mean, ...) for laminate families."""
        if self.profile is None:
            return None
        a_h, a_m = laminate_limit(self.profile)
        return np.diag([a_h] + [a_m] * (d - 1))


_GAUSS = np.polynomial.legendre.leggauss(10)
# 11-point Gauss-Lobatto: the ends and the extrema of P_10, weighted by
# 2 / (110 P_10(x)^2)
_P10 = np.polynomial.legendre.Legendre.basis(10)
_LOBATTO_X = np.r_[-1.0, _P10.deriv().roots(), 1.0]
_LOBATTO = (_LOBATTO_X, 2.0 / (110.0 * _P10(_LOBATTO_X) ** 2))
# partition cap; 10-point intervals resolve about half what quad's 21-point
# Gauss-Kronrod ones do, so this matches quad's limit=400
_MAX_INTERVALS = 1000
_QUAD_TOL = 1e-10
_CELL_RESIDUAL_TOL = 1e-9
_HOM_COERCIVITY_TOL = 1e-8
# the verdicts' default tolerances, and the least qdind log-gap correlation
_CELL_TOL, _SCHUR_TOL, _HCONV_TOL_1D, _HCONV_TOL = 0.02, 0.05, 0.02, 0.05
_QDIND_TOL, _QDIND_MIN_CORRELATION = 1e-2, 0.9
_TAU_COLUMNS = ("gap_m00inv", "gap_m01", "gap_m10", "gap_ms")    # the four block-map gaps


def _unit_integral(fn, tol):
    """Integral of fn over [0, 1] by adaptive 10-point Gauss-Legendre.

    fn takes an array of points. All open intervals are treated at once.
    An interval's value is the Gauss rule summed over its two halves; its
    error estimate is the distance of that sum from the Gauss rule on the
    whole interval plus its distance from the 11-point Gauss-Lobatto rule
    there. Both Gauss sums place a jump next to the midpoint at the midpoint
    alike; the Lobatto rule samples the ends, so such a jump still shows.
    Ends are sampled one float inside, so a jump exactly at a split point
    is read from the correct side. The sum stops as quad(epsabs=tol,
    epsrel=tol) does, when the summed estimate is at most tol * max(1, |I|);
    until then each interval whose estimate is above tol * length is halved.
    Returns a float, or a complex when the imaginary part is above tol."""

    def rule(lo, hi, nodes_weights):
        nodes, weights = nodes_weights
        half = 0.5 * (hi - lo)[:, None]
        pts = np.clip(lo[:, None] + half * (nodes + 1.0),
                      np.nextafter(lo, hi)[:, None], np.nextafter(hi, lo)[:, None])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            sums = half[:, 0] * (np.asarray(fn(pts.ravel())).reshape(pts.shape) @ weights)
        if not np.isfinite(sums).all():
            raise QuadratureError("integrand or its integral is not finite")
        return sums

    lo, hi = np.array([0.0]), np.array([1.0])
    whole = rule(lo, hi, _GAUSS)
    done = err_done = 0.0
    parts = 1
    while parts <= _MAX_INTERVALS:
        mid = 0.5 * (lo + hi)
        halves = rule(np.r_[lo, mid], np.r_[mid, hi], _GAUSS).reshape(2, -1)
        fine = halves.sum(axis=0)
        err = np.abs(fine - whole) + np.abs(fine - rule(lo, hi, _LOBATTO))
        total = done + fine.sum()
        split = err > tol * (hi - lo)
        if err_done + err.sum() <= tol * max(1.0, abs(total)) or not split.any():
            return complex(total) if abs(total.imag) > tol else float(total.real)
        done += fine[~split].sum()
        err_done += err[~split].sum()
        parts += int(split.sum())
        lo, hi = np.r_[lo[split], mid[split]], np.r_[mid[split], hi[split]]
        whole = halves[:, split].ravel()
    raise QuadratureError(f"adaptive quadrature missed tolerance {tol:g} "
                          f"within {_MAX_INTERVALS} intervals")


def laminate_limit(profile):
    """Harmonic and arithmetic means of a periodic scalar profile by adaptive
    quadrature at ``_QUAD_TOL``: (1 / mean(1/a), mean(a)). A mean(1/a) that
    vanishes within that tolerance raises :class:`VanishingHarmonicMean`."""
    prof = np.vectorize(profile)
    inv_mean = _unit_integral(lambda x: 1.0 / prof(x), _QUAD_TOL)
    mean = _unit_integral(prof, _QUAD_TOL)
    if abs(inv_mean) <= _QUAD_TOL:
        raise VanishingHarmonicMean(f"mean of 1/a is {inv_mean:.3e}, zero within "
                                    f"the quadrature tolerance {_QUAD_TOL:g}")
    return 1.0 / inv_mean, mean


def _check_unit_cell(domain):
    for a, b in domain.extents:
        if abs(a) > 1e-14 or abs(b - 1.0) > 1e-14:
            raise ShapeError("cell problems live on the unit cell (0,1)^d")


def cell_problem(a_cell, xi):
    """Periodic corrector field for direction xi: the unique v with
    v - xi in the periodic gradient range and a v weakly divergence-free.

    Returns (v, w) with v = xi + grad_# w and w the mean-free corrector
    potential; both defining residuals are verified at ``_CELL_RESIDUAL_TOL``.
    """
    if np.shape(xi) != (a_cell.domain.dim,):
        raise ShapeError(f"xi must be a {a_cell.domain.dim}-vector")
    v, w, _ = next(_correctors(a_cell, [xi]))
    return v, w


def _correctors(a_cell, xis):
    """Yield (v, w, a v) for each direction in ``xis``: the (v, w) of
    :func:`cell_problem` and the flux its residual check formed, from one
    solver of the periodic cell matrix (one preconditioner for all
    directions), with no xi tiled over the elements."""
    domain = a_cell.domain
    _check_unit_cell(domain)
    _require_coercive(a_cell)
    xis = np.asarray(xis, dtype=complex if np.iscomplexobj(a_cell.values) else float)
    grad = build_grad(domain, "periodic")
    shape = (grad.n_elem, domain.dim)
    # G^H W a (G w + xi) = 0  <=>  K_a w = -G^H W a xi
    loads = np.stack([RHSFunctional.flux(a_cell.apply(grad, np.broadcast_to(xi, shape)))
                      .assemble(grad) for xi in xis], axis=1)
    ws = _solve_galerkin(grad, a_cell, loads)
    for xi, w in zip(xis, ws.T):
        v = grad.matrix @ w
        v.reshape(shape)[...] += xi
        flux = a_cell.apply(grad, v)
        res = np.linalg.norm(grad.matrix.T @ grad.vector_space.apply_weight(flux))
        scale = max(1.0, grad.vector_space.norm(flux))
        if res > _CELL_RESIDUAL_TOL * scale:
            raise CoercivityError(f"cell problem residual {res:.3e} misses tolerance")
        yield v, w, flux


def homogenized_tensor(a_cell):
    """Effective tensor of a periodic unit-cell coefficient: column j is the
    cell average of a v_{e_j} over the corrector fields.

    Inherits the coercivity bounds of the cell coefficient (checked, with
    slack ``_HOM_COERCIVITY_TOL``, when the cell field declares bounds)."""
    domain = a_cell.domain
    d = domain.dim
    grad = build_grad(domain, "periodic")
    cols = []
    for _, _, flux in _correctors(a_cell, np.eye(d)):
        flux = grad.field_as_elements(flux)
        cols.append((grad.elem_measure[:, None] * flux).sum(axis=0) / domain.volume)
    a_hom = np.stack(cols, axis=-1)
    if a_cell.bounds is not None:
        alpha, beta = a_cell.bounds
        from .hilbert import HilbertSpace

        space = HilbertSpace(d, field="complex" if np.iscomplexobj(a_hom) else "real")
        rep = coercivity_check(LinearOp(space, space, matrix=a_hom), alpha, beta,
                               tol=_HOM_COERCIVITY_TOL)
        if not rep.passed:
            raise CoercivityError(
                f"effective tensor lost the declared bounds: Re min {rep.re_min:.6g}, "
                f"Re inv min {rep.re_inv_min:.6g}"
            )
    return a_hom


def cell_experiment(a_cell, expected):
    """The effective tensor of a 2-d cell coefficient against ``expected``."""
    a_hom = homogenized_tensor(a_cell)
    rows = [{"i": i, "j": j, "value": a_hom[i, j].real, "expected": expected[i, j],
             "abs_err": abs(a_hom[i, j] - expected[i, j])} for i in range(2) for j in range(2)]
    return _report("cell", rows, {"cells": a_cell.domain.cells, "scale": np.abs(expected).max()})


def cell_verdict(report, tol=_CELL_TOL):
    """The largest entry error is at most ``tol`` of the largest expected entry."""
    err = report.values("abs_err").max() / report.meta["scale"]
    return [] if err <= tol else [f"cell tensor error {err:.3e} above {tol}"]


@dataclass(frozen=True)
class MeshRule:
    """Couples the mesh to the oscillation: at least ``cells_per_period``
    cells per oscillation period per axis."""

    cells_per_period: int

    def __post_init__(self):
        if self.cells_per_period < 2:
            raise MeshRuleViolation("need at least 2 cells per oscillation period")

    def cells(self, n):
        return max(self.cells_per_period * n, self.cells_per_period)


@dataclass
class ExperimentReport:
    """Per-n experiment table with a frozen column schema.

    Rows are dicts keyed by the column names; metadata records mesh rule,
    probe seed, and the candidate limit.
    """

    kind: str
    columns: tuple
    rows: list
    meta: dict = field(default_factory=dict)

    def values(self, col):
        return np.array([row[col] for row in self.rows])

    def final(self, col):
        return self.rows[-1][col]

    def decreasing(self, col):
        v = self.values(col)
        return bool(v[0] >= v[-1])

    def check_decay(self, cols, tol):
        """Final value below tol and first >= last, per column."""
        msgs = []
        for col in cols:
            v = self.values(col)
            if not v[-1] <= tol:
                msgs.append(f"{col}: final {v[-1]:.3e} above {tol:.1e}")
            if len(v) > 1 and not v[0] >= v[-1]:
                msgs.append(f"{col}: not decreasing ({v[0]:.3e} -> {v[-1]:.3e})")
        return not msgs, "; ".join(msgs) if msgs else "ok"


def _report(kind, rows, meta):
    """The report of ``rows``, its columns the first row's keys in order."""
    return ExperimentReport(kind=kind, columns=tuple(rows[0]) if rows else (), rows=rows,
                            meta=meta)


def _per_n(kind, n_list, row, meta):
    """The experiments' one per-n loop: the report of one row ``row(n)`` per n."""
    return _report(kind, [row(n) for n in n_list], meta)


def _decay_verdict(report, what, cols, tol):
    """:meth:`ExperimentReport.check_decay` as a list of its one failure."""
    ok, msg = report.check_decay(cols, tol)
    return [] if ok else [f"{what}: {msg}"]


def _as_candidate_field(candidate, domain, bounds):
    """The constant field of a candidate limit: a scalar (times the
    identity) or a d x d matrix."""
    cand = np.asarray(candidate, dtype=complex if np.iscomplexobj(candidate) else float)
    if cand.ndim == 0:
        cand = cand[()] * np.eye(domain.dim)
    return CoefficientField.constant(domain, cand, bounds=bounds, check=False)


def _guarded_domain(n, mesh_rule, d, flavor="dirichlet"):
    cells = (mesh_rule.cells(n),) * d
    check_budget(cells, flavor, MeshRuleViolation)
    return GridDomain.box(cells)


def hconvergence_experiment(seq, f, candidate, n_list, mesh_rule, dim=1,
                            probe_seed=0, flavor="dirichlet"):
    """Dirichlet (or mean-free Neumann) solves along the oscillation family,
    probe-paired against the candidate effective solve on the same mesh.

    For each n, records the maximal normalized probe pairing of the solution
    difference and of the flux difference.
    """
    def row(n):
        dom = _guarded_domain(n, mesh_rule, dim, flavor)
        grad = build_grad(dom, flavor)
        a_n = seq.field(n, dom)
        u_n, q_n = solve_elliptic(dom, a_n, f, flavor=flavor)
        cand_field = _as_candidate_field(candidate, dom, seq.bounds)
        u_h, q_h = solve_elliptic(dom, cand_field, f, flavor=flavor)
        return {"n": n, "cells_per_axis": dom.cells[0],
                "unknowns": grad.scalar_space.dim + grad.vector_space.dim,
                "err_solution": _probe_gap(scalar_probe_pairs, grad, u_n, u_h),
                "err_flux": _probe_gap(vector_probe_pairs, grad, q_n, q_h)}

    return _per_n("hconv", n_list, row, {
        "mesh_rule": mesh_rule.cells_per_period, "probe_seed": probe_seed, "flavor": flavor,
        "candidate": np.asarray(candidate, dtype=object), "dim": dim})


def hconv_verdict(report, tol=None):
    """Both probe gaps decay to at most ``tol`` (0.02 in 1-d, else 0.05)."""
    return _decay_verdict(report, "hconv decay", ("err_solution", "err_flux"),
                          tol or (_HCONV_TOL_1D if report.meta["dim"] == 1 else _HCONV_TOL))


def _probe_gap(probe_pairs, grad, u_n, u_h):
    """max_i |<g_i, u_n - u_h>| / max_i |<g_i, u_h>| over the probe family
    of ``probe_pairs`` (:func:`scalar_probe_pairs` or
    :func:`vector_probe_pairs`), both from one pairing call."""
    pairs = np.abs(probe_pairs(grad, np.stack([u_n - u_h, u_h], axis=1))).max(axis=0)
    return float(pairs[0] / max(pairs[1], 1e-300))


def g0_decomposition(grad):
    """Splitting of the vector space along the gradient range (implicit,
    generator-backed). The projector solves with the Gram matrix G^H W G,
    the unit stiffness, through the :func:`stiffness_solver` of the grid,
    whose ``for_matrix`` also serves the a00^-1 of the Schur maps. The
    decomposition holds the only reference to that solver."""
    return Decomposition.from_generator(grad.vector_space, grad.matrix,
                                        stiffness_solver(grad.domain, grad.flavor))


_KEEP_FRAC = 0.05
_G0_PROBES = 8


def _probe_pair(dec, block, size, count):
    """Probes of h0 and of h1, ``(p0, p1)``, from ``size`` unit probes that
    ``block(start, stop)`` builds afresh in chunks of at most ``count`` columns
    and ``_BLOCK_ENTRIES`` entries: P0 projects each chunk once, chunk - P0
    chunk is taken in place, and each side keeps in a column-major block the
    first ``count`` that retain ``_KEEP_FRAC`` of their norm (near-annihilated
    modes would normalize into mesh-scale noise with no continuum meaning)."""
    space = dec.space
    width = min(count, max(1, _BLOCK_ENTRIES // space.dim))
    dtype = complex if space.field == "complex" else float
    kept, have = [np.empty((space.dim, count), dtype, "F") for _ in range(2)], [0, 0]
    for start in range(0, size, width):
        chunk = block(start, start + width)
        part0 = dec.h0.project(chunk)
        for side, part in enumerate((part0, _difference(chunk, part0))):
            cols = np.flatnonzero(space.column_norms(part) >= _KEEP_FRAC)[:count - have[side]]
            kept[side][:, have[side]:have[side] + len(cols)] = part[:, cols]
            have[side] += len(cols)
        del chunk, part0, part    # before the next chunk is built
        if min(have) == count:
            break
    return tuple(ProbeSet.from_vectors(space, p[:, :n], copy=False) for p, n in zip(kept, have))


def g0_probe_pair(grad, dec):
    """Probes of the gradient range and of its complement, ``(p0, p1)``, from
    the component and gradient probes, built and projected in column chunks."""
    kinds = ("component", "gradient")
    return _probe_pair(dec, lambda start, stop: vector_probes(grad, stop, kinds, start).matrix,
                       _vector_terms(grad, slice(None), kinds)[0], _G0_PROBES)


def qdind_check(seq, n_list, mesh_rule, candidate=None, probe_seed=0):
    """One-dimensional equivalence tracker: the inverse-multiplier gaps and
    the two gradient-range compression gaps must vanish together.

    Gaps are measured on one fixed mesh resolving the finest oscillation.
    The compressed inverses go through the closed 1-d formula, so this route
    is independent of the generic projected solver.
    """
    from .elliptic import projected_inverse_1d

    n_max = max(n_list)
    dom = _guarded_domain(n_max, mesh_rule, 1)
    grad = build_grad(dom, "dirichlet")
    space = grad.vector_space
    mids = grad.elem_mid
    if candidate is None:
        lim = seq.predicted_laminate_limit(1)
        if lim is None:
            raise ShapeError("need a candidate limit for non-laminate sequences")
        candidate = float(np.real(lim[0, 0])) if not np.iscomplexobj(lim) else lim[0, 0]

    full = vector_probes(grad)
    mean_free = ProbeSet.from_vectors(
        space, full.matrix - grad.elem_measure @ full.matrix / dom.volume)

    # every operator here takes a vector or a block; a cell array a scales
    # the rows of a block x as (x.T / a).T
    def op(apply):
        return LinearOp(space, space, apply=apply)

    def limit_compressed(x):
        y = x / candidate
        return y - grad.elem_measure @ y / dom.volume

    inv_lim = op(lambda x: x / candidate)
    proj_lim = op(limit_compressed)
    flux_lim = op(lambda x: candidate * limit_compressed(x))

    def row(n):
        a_vals = seq.field(n, dom).values[:, 0, 0][grad.elem_cell]
        proj_n = op(lambda x: projected_inverse_1d(a_vals, x))
        flux_n = op(lambda x: (a_vals * projected_inverse_1d(a_vals, x).T).T)
        return {"n": n, "cells": dom.cells[0],
                "gap_inverse": wot_gap(op(lambda x: (x.T / a_vals).T), inv_lim, full, full),
                "gap_projected": wot_gap(proj_n, proj_lim, mean_free, mean_free),
                "gap_flux": wot_gap(flux_n, flux_lim, full, mean_free)}

    return _per_n("qdind", n_list, row, {"candidate": candidate, "probe_seed": probe_seed,
                                         "mesh_rule": mesh_rule.cells_per_period})


def qdind_verdict(report, tol=_QDIND_TOL, min_corr=_QDIND_MIN_CORRELATION):
    """The three gaps decay to at most ``tol``, and over more than two n the
    inverse and projected log-gaps correlate at least ``min_corr``."""
    failures = _decay_verdict(report, "qdind decay",
                              ("gap_inverse", "gap_projected", "gap_flux"), tol)
    if len(report.rows) > 2 and (corr := log_gap_correlation(
            report, "gap_inverse", "gap_projected")) < min_corr:
        failures.append(f"qdind correlation {corr:.3f} below {min_corr}")
    return failures


def log_gap_correlation(report, col_a, col_b):
    """Correlation coefficient of log-gaps across two report columns."""
    a = np.log(np.maximum(report.values(col_a), 1e-300))
    b = np.log(np.maximum(report.values(col_b), 1e-300))
    if a.std() == 0 or b.std() == 0:
        return 1.0
    return float(np.corrcoef(a, b)[0, 1])


def schur_equiv_check(seq, n_list, candidate, mesh_rule, dim=1, probe_seed=0):
    """Per-n table of the four block-map gaps on the gradient-range splitting
    against the candidate limit, next to the solution-operator pairing gap of
    the corresponding variational problems (load f = 1); the two families
    must decay jointly."""
    f = RHSFunctional.density(lambda p: np.ones(len(p)))

    def row(n):
        dom = _guarded_domain(n, mesh_rule, dim)
        grad = build_grad(dom, "dirichlet")
        dec = g0_decomposition(grad)
        p0, p1 = g0_probe_pair(grad, dec)
        a_n = seq.field(n, dom)
        cand_field = _as_candidate_field(candidate, dom, seq.bounds)
        gaps = tau_gap(a_n.operator(grad), cand_field.operator(grad), dec, p0, p1)
        u_n, _ = solve_elliptic(dom, a_n, f)
        u_h, _ = solve_elliptic(dom, cand_field, f)
        return {"n": n, "cells_per_axis": dom.cells[0], **dict(zip(_TAU_COLUMNS, gaps)),
                "gap_solution": _probe_gap(scalar_probe_pairs, grad, u_n, u_h)}

    return _per_n("schur", n_list, row, {"probe_seed": probe_seed,
                                         "mesh_rule": mesh_rule.cells_per_period})


def schur_verdict(report, tol=_SCHUR_TOL):
    """The four block-map gaps and the solution gap decay to at most ``tol``."""
    return _decay_verdict(report, "schur gaps", (*_TAU_COLUMNS, "gap_solution"), tol)


def adjoint_symmetry_check(seq, n_list, candidate, **kwargs):
    """Run the block-map tracker on the adjoint family against the adjoint
    candidate; decay of the primal run must be matched by the adjoint run."""
    primal = schur_equiv_check(seq, n_list, candidate, **kwargs)
    adj = schur_equiv_check(seq.adjoint(), n_list, np.conj(np.asarray(candidate)).T, **kwargs)
    return primal, adj
