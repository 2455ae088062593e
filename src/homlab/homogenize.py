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
    build_grad,
    check_budget,
    scalar_probes,
    solve_elliptic,
    stiffness_solver,
    vector_probes,
)
from .errors import (
    CoercivityError,
    MeshRuleViolation,
    QuadratureError,
    ShapeError,
    VanishingHarmonicMean,
)
from .hilbert import LinearOp, ProbeSet, coercivity_check, wot_gap
from .schur import Decomposition, tau_gap

__all__ = [
    "CoefficientSequence",
    "MeshRule",
    "ExperimentReport",
    "laminate_limit",
    "modulated_laminate_limit",
    "modulated_candidate",
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
    identity), ``periodic_rescale`` (a unit-cell field evaluated at n times
    the position), and ``explicit`` (arbitrary generator). Bounds are uniform
    in n and every generated field is checked against them.
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
    def laminate_modulated(cls, profile, bounds):
        """a_n(x) = profile(x_1, n x_1 mod 1) times the identity: slow
        modulation in the first coordinate on top of the fast oscillation.
        The effective limit is then a field of the slow variable (harmonic
        mean across the layers, arithmetic along), see
        :func:`modulated_laminate_limit`."""

        def gen(n, domain):
            def fn(points):
                x1 = points[:, 0]
                return profile(x1, (n * x1) % 1.0)

            return CoefficientField.from_function(domain, fn, bounds=bounds)

        return cls("laminate_x1_modulated", gen, bounds)

    @classmethod
    def periodic(cls, cell_fn, bounds):
        """a_n(x) = A(n x mod 1) for a unit-cell field A."""

        def gen(n, domain):
            def fn(points):
                return cell_fn((n * points) % 1.0)

            return CoefficientField.from_function(domain, fn, bounds=bounds)

        return cls("periodic_rescale", gen, bounds)

    @classmethod
    def explicit(cls, generator, bounds):
        """Arbitrary family: a callable (n, domain) -> field, or a dict
        mapping each index n to such a callable."""
        if isinstance(generator, dict):
            table = dict(generator)

            def gen(n, domain):
                if n not in table:
                    raise ShapeError(f"explicit sequence has no member n={n}")
                return table[n](domain)

            return cls("explicit_list", gen, bounds)
        return cls("explicit", generator, bounds)

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
        with np.errstate(over="ignore", invalid="ignore"):
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


def _harmonic_mean(inv_mean, tol):
    """1 / mean(1/a) from the quadrature value of mean(1/a), which must not
    vanish within the quadrature tolerance."""
    if abs(inv_mean) <= tol:
        raise VanishingHarmonicMean(f"mean of 1/a is {inv_mean:.3e}, zero within "
                                    f"the quadrature tolerance {tol:g}")
    return 1.0 / inv_mean


def laminate_limit(profile, tol=1e-10):
    """Harmonic and arithmetic means of a periodic scalar profile by adaptive
    quadrature: (1 / mean(1/a), mean(a))."""
    prof = np.vectorize(profile)
    inv_mean = _unit_integral(lambda x: 1.0 / prof(x), tol)
    mean = _unit_integral(prof, tol)
    return _harmonic_mean(inv_mean, tol), mean


def modulated_laminate_limit(profile, tol=1e-10):
    """Slow-variable mean functions of a modulated profile(x, y): returns
    callables (alpha_h, alpha_m) with the fast variable integrated out at
    each requested slow position."""

    prof = np.vectorize(profile)

    def a_h(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.array([
            _harmonic_mean(_unit_integral(lambda y, xx=xx: 1.0 / prof(xx, y), tol), tol)
            for xx in x
        ])

    def a_m(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.array([
            _unit_integral(lambda y, xx=xx: prof(xx, y), tol) for xx in x
        ])

    return a_h, a_m


def modulated_candidate(profile, d, bounds=None, tol=1e-8):
    """Candidate effective field for a modulated laminate: per-cell
    diag(alpha_h(x1), alpha_m(x1), ...) as a domain -> field factory."""
    a_h, a_m = modulated_laminate_limit(profile, tol)

    def factory(domain):
        mids = domain.cell_midpoints()
        x1 = mids[:, 0]
        uniq, inverse = np.unique(x1, return_inverse=True)
        h_vals = a_h(uniq)[inverse]
        m_vals = a_m(uniq)[inverse]
        vals = np.zeros((domain.n_cells, d, d), dtype=h_vals.dtype)
        vals[:, 0, 0] = h_vals
        for c in range(1, d):
            vals[:, c, c] = m_vals
        return CoefficientField(domain, vals, bounds=bounds, check=False)

    return factory


def _check_unit_cell(domain):
    for a, b in domain.extents:
        if abs(a) > 1e-14 or abs(b - 1.0) > 1e-14:
            raise ShapeError("cell problems live on the unit cell (0,1)^d")


def cell_problem(a_cell, xi, residual_tol=1e-9):
    """Periodic corrector field for direction xi: the unique v with
    v - xi in the periodic gradient range and a v weakly divergence-free.

    Returns (v, w) with v = xi + grad_# w and w the mean-free corrector
    potential; both defining residuals are verified at tolerance.
    """
    if np.shape(xi) != (a_cell.domain.dim,):
        raise ShapeError(f"xi must be a {a_cell.domain.dim}-vector")
    v, w, _ = next(_correctors(a_cell, [xi], residual_tol))
    return v, w


def _correctors(a_cell, xis, residual_tol=1e-9):
    """Yield (v, w, a v) for each direction in ``xis``: the (v, w) of
    :func:`cell_problem` and the flux its residual check formed, from one
    solver of the periodic cell matrix (one preconditioner for all
    directions)."""
    domain = a_cell.domain
    _check_unit_cell(domain)
    _require_coercive(a_cell)
    xis = np.asarray(xis, dtype=complex if np.iscomplexobj(a_cell.values) else float)
    grad = build_grad(domain, "periodic")
    xi_fields = [np.tile(xi, grad.n_elem) for xi in xis]
    # G^H W a (G w + xi) = 0  <=>  K_a w = -G^H W a xi
    loads = np.stack([RHSFunctional.flux(a_cell.apply(grad, f)).assemble(grad)
                      for f in xi_fields], axis=1)
    ws = _solve_galerkin(grad, a_cell, loads)
    for xi_field, w in zip(xi_fields, ws.T):
        v = xi_field + grad.matrix @ w
        flux = a_cell.apply(grad, v)
        res = np.linalg.norm(grad.matrix.conj().T @ grad.vector_space.apply_weight(flux))
        scale = max(1.0, grad.vector_space.norm(flux))
        if res > residual_tol * scale:
            raise CoercivityError(f"cell problem residual {res:.3e} misses tolerance")
        yield v, w, flux


def homogenized_tensor(a_cell, coercivity_tol=1e-8):
    """Effective tensor of a periodic unit-cell coefficient: column j is the
    cell average of a v_{e_j} over the corrector fields.

    Inherits the coercivity bounds of the cell coefficient (checked when the
    cell field declares bounds)."""
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
                               tol=coercivity_tol)
        if not rep.passed:
            raise CoercivityError(
                f"effective tensor lost the declared bounds: Re min {rep.re_min:.6g}, "
                f"Re inv min {rep.re_inv_min:.6g}"
            )
    return a_hom


@dataclass(frozen=True)
class MeshRule:
    """Couples the mesh to the oscillation: at least ``cells_per_period``
    cells per oscillation period per axis."""

    cells_per_period: int
    min_cells: int | None = None

    def __post_init__(self):
        if self.cells_per_period < 2:
            raise MeshRuleViolation("need at least 2 cells per oscillation period")

    def cells(self, n):
        base = self.min_cells if self.min_cells else self.cells_per_period
        return max(self.cells_per_period * n, base)


def default_mesh_rule(d):
    return MeshRule(32 if d == 1 else 16)


def default_n_list(d):
    return [1, 2, 4, 8, 16, 32] if d == 1 else [1, 2, 4, 8, 16]


@dataclass
class ExperimentReport:
    """Per-n experiment table with a frozen column schema.

    Rows are dicts keyed by the column names; metadata records mesh rule,
    probe seed, and the candidate limit. Fitted limits produced without a
    candidate are estimates, flagged as such, never asserted as truth.
    """

    kind: str
    columns: tuple
    rows: list
    meta: dict = field(default_factory=dict)
    estimates: dict | None = None

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
        ok = True
        for col in cols:
            v = self.values(col)
            if not v[-1] <= tol:
                ok = False
                msgs.append(f"{col}: final {v[-1]:.3e} above {tol:.1e}")
            if len(v) > 1 and not v[0] >= v[-1]:
                ok = False
                msgs.append(f"{col}: not decreasing ({v[0]:.3e} -> {v[-1]:.3e})")
        return ok, "; ".join(msgs) if msgs else "ok"


def _as_candidate_field(candidate, domain, bounds):
    if candidate is None:
        return None
    if isinstance(candidate, CoefficientField):
        return candidate
    if callable(candidate):
        return candidate(domain)
    cand = np.asarray(candidate, dtype=complex if np.iscomplexobj(candidate) else float)
    if cand.ndim == 0:
        cand = cand[()] * np.eye(domain.dim)
    return CoefficientField.constant(domain, cand, bounds=bounds, check=False)


def _guarded_domain(n, mesh_rule, d, extents=None, flavor="dirichlet"):
    cells = (mesh_rule.cells(n),) * d
    check_budget(cells, flavor, MeshRuleViolation)
    return GridDomain(extents, cells) if extents else GridDomain.box(cells)


def _aitken(values):
    """Richardson-style limit estimate from the last three values."""
    if len(values) < 3:
        return None
    p0, p1, p2 = values[-3:]
    denom = p2 - 2 * p1 + p0
    if abs(denom) < 1e-300:
        return p2
    return p2 - (p2 - p1) ** 2 / denom


def hconvergence_experiment(seq, f, candidate, n_list=None, dim=1, mesh_rule=None,
                            probe_seed=0, flavor="dirichlet", extents=None):
    """Dirichlet (or mean-free Neumann) solves along the oscillation family,
    probe-paired against the candidate effective solve on the same mesh.

    For each n, records the maximal normalized probe pairing of the solution
    difference and of the flux difference. Without a candidate, extrapolated
    pairing limits are attached as estimates.
    """
    probes_cache = {}
    rows = []
    first_u, first_q = [], []
    d = len(extents) if extents else dim
    n_list = n_list or default_n_list(d)
    mesh_rule = mesh_rule or default_mesh_rule(d)

    for n in n_list:
        dom = _guarded_domain(n, mesh_rule, d, extents, flavor)
        grad = build_grad(dom, flavor)
        a_n = seq.field(n, dom)
        u_n, q_n = solve_elliptic(dom, a_n, f, flavor=flavor)
        key = dom.cells
        if key not in probes_cache:
            probes_cache[key] = (
                scalar_probes(grad, seed=probe_seed),
                vector_probes(grad, seed=probe_seed),
            )
        sp_probes, vp_probes = probes_cache[key]
        cand_field = _as_candidate_field(candidate, dom, seq.bounds)
        if cand_field is not None:
            u_h, q_h = solve_elliptic(dom, cand_field, f, flavor=flavor)
            err_u = _relative_pairing(grad.scalar_space, sp_probes, u_n, u_h)
            err_q = _relative_pairing(grad.vector_space, vp_probes, q_n, q_h)
        else:
            err_u = err_q = float("nan")
            first_u.append(grad.scalar_space.inner(sp_probes.matrix[:, 0], u_n))
            first_q.append(grad.vector_space.inner(vp_probes.matrix[:, 0], q_n))
        rows.append({
            "n": n,
            "cells_per_axis": dom.cells[0],
            "unknowns": grad.scalar_space.dim + grad.vector_space.dim,
            "err_solution": err_u,
            "err_flux": err_q,
        })
    estimates = None
    if candidate is None and len(n_list) >= 3:
        estimates = {
            "pairing_limit_solution": _aitken(first_u),
            "pairing_limit_flux": _aitken(first_q),
            "estimate_only": True,
        }
    return ExperimentReport(
        kind="hconv",
        columns=("n", "cells_per_axis", "unknowns", "err_solution", "err_flux"),
        rows=rows,
        meta={
            "mesh_rule": mesh_rule.cells_per_period,
            "probe_seed": probe_seed,
            "flavor": flavor,
            "candidate": None if candidate is None else np.asarray(
                candidate if not callable(candidate) else "callable", dtype=object
            ),
        },
        estimates=estimates,
    )


def _relative_pairing(space, probes, u_n, u_h):
    """max_i |<g_i, u_n - u_h>| / max_i |<g_i, u_h>| over a probe family,
    both from one weighted product."""
    pairs = np.abs(space.gram(probes.matrix, np.stack([u_n - u_h, u_h], axis=1))).max(axis=0)
    return float(pairs[0] / max(pairs[1], 1e-300))


def g0_decomposition(grad):
    """Splitting of the vector space along the gradient range (implicit,
    generator-backed). The projector solves with the Gram matrix G^H W G,
    the unit stiffness, through the cached :func:`stiffness_solver` of the
    grid: the fast-transform inverse on d >= 2 grids, one tridiagonal
    factorisation in 1-d."""
    return Decomposition.from_generator(grad.vector_space, grad.matrix,
                                        stiffness_solver(grad.domain, grad.flavor))


_KEEP_FRAC = 0.05


def _projected_probes(base, project, count, seed):
    """Project the unit probes of ``base`` into a subspace, keeping the first
    ``count`` that retain at least ``_KEEP_FRAC`` of their norm;
    near-annihilated modes would normalize into mesh-scale noise with no
    continuum meaning. The probes are projected ``count`` at a time, one
    block per projector call."""
    kept = []
    for start in range(0, len(base), count):
        p = project(base.matrix[:, start:start + count])
        kept.append(p[:, base.space.column_norms(p) >= _KEEP_FRAC])
        if sum(k.shape[1] for k in kept) >= count:
            break
    return ProbeSet.from_vectors(base.space, np.hstack(kept)[:, :count], seed=seed)


def g0_probe_pair(grad, dec=None, count=8, seed=0):
    """Probes of the gradient range and of its complement, ``(p0, p1)``: one
    base family of component and gradient probes projected by
    ``dec.h0.project`` and ``dec.h1.project``."""
    dec = dec or g0_decomposition(grad)
    base = vector_probes(grad, kinds=("component", "gradient"), seed=seed)
    return (_projected_probes(base, dec.h0.project, count, seed),
            _projected_probes(base, dec.h1.project, count, seed))


def qdind_check(seq, n_list, candidate=None, mesh_rule=None, probe_seed=0):
    """One-dimensional equivalence tracker: the inverse-multiplier gaps and
    the two gradient-range compression gaps must vanish together.

    Gaps are measured on one fixed mesh resolving the finest oscillation.
    The compressed inverses go through the closed 1-d formula, so this route
    is independent of the generic projected solver.
    """
    from .elliptic import projected_inverse_1d

    mesh_rule = mesh_rule or default_mesh_rule(1)
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

    full = vector_probes(grad, seed=probe_seed)
    mean_free = ProbeSet.from_vectors(
        space, full.matrix - grad.elem_measure @ full.matrix / dom.volume, seed=probe_seed)

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
    rows = []
    for n in n_list:
        a_vals = seq.field(n, dom).values[:, 0, 0][grad.elem_cell]
        proj_n = op(lambda x: projected_inverse_1d(a_vals, x))
        flux_n = op(lambda x: (a_vals * projected_inverse_1d(a_vals, x).T).T)
        rows.append({
            "n": n,
            "cells": dom.cells[0],
            "gap_inverse": wot_gap(op(lambda x: (x.T / a_vals).T), inv_lim, full, full),
            "gap_projected": wot_gap(proj_n, proj_lim, mean_free, mean_free),
            "gap_flux": wot_gap(flux_n, flux_lim, full, mean_free),
        })
    return ExperimentReport(
        kind="qdind",
        columns=("n", "cells", "gap_inverse", "gap_projected", "gap_flux"),
        rows=rows,
        meta={"candidate": candidate, "probe_seed": probe_seed,
              "mesh_rule": mesh_rule.cells_per_period},
    )


def log_gap_correlation(report, col_a, col_b):
    """Correlation coefficient of log-gaps across two report columns."""
    a = np.log(np.maximum(report.values(col_a), 1e-300))
    b = np.log(np.maximum(report.values(col_b), 1e-300))
    if a.std() == 0 or b.std() == 0:
        return 1.0
    return float(np.corrcoef(a, b)[0, 1])


def schur_equiv_check(seq, n_list=None, candidate=None, dim=1, mesh_rule=None,
                      probe_seed=0, f=None, extents=None):
    """Per-n table of the four block-map gaps on the gradient-range splitting
    against the candidate limit, next to the solution-operator pairing gap of
    the corresponding variational problems; the two families must decay
    jointly."""
    d = len(extents) if extents else dim
    n_list = n_list or default_n_list(d)
    if candidate is None:
        lim = seq.predicted_laminate_limit(d)
        if lim is None:
            raise ShapeError("need a candidate limit for non-laminate sequences")
        candidate = lim
    mesh_rule = mesh_rule or default_mesh_rule(d)
    if f is None:
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
    rows = []
    for n in n_list:
        dom = _guarded_domain(n, mesh_rule, d, extents)
        grad = build_grad(dom, "dirichlet")
        dec = g0_decomposition(grad)
        p0, p1 = g0_probe_pair(grad, dec, seed=probe_seed)
        a_n = seq.field(n, dom)
        cand_field = _as_candidate_field(candidate, dom, seq.bounds)
        op_n = a_n.operator(grad)
        op_h = cand_field.operator(grad)
        g00, g01, g10, gs = tau_gap(op_n, op_h, dec, p0, p1)
        u_n, _ = solve_elliptic(dom, a_n, f)
        u_h, _ = solve_elliptic(dom, cand_field, f)
        gap_sol = _relative_pairing(grad.scalar_space, scalar_probes(grad, seed=probe_seed),
                                    u_n, u_h)
        rows.append({
            "n": n,
            "cells_per_axis": dom.cells[0],
            "gap_m00inv": g00,
            "gap_m01": g01,
            "gap_m10": g10,
            "gap_ms": gs,
            "gap_solution": gap_sol,
        })
    return ExperimentReport(
        kind="schur",
        columns=("n", "cells_per_axis", "gap_m00inv", "gap_m01", "gap_m10",
                 "gap_ms", "gap_solution"),
        rows=rows,
        meta={"probe_seed": probe_seed, "mesh_rule": mesh_rule.cells_per_period},
    )


def adjoint_symmetry_check(seq, n_list, candidate, **kwargs):
    """Run the block-map tracker on the adjoint family against the adjoint
    candidate; decay of the primal run must be matched by the adjoint run."""
    primal = schur_equiv_check(seq, n_list, candidate, **kwargs)
    cand_adj = np.conj(np.asarray(candidate)).T if not callable(candidate) else None
    if cand_adj is None:
        raise ShapeError("adjoint check needs an explicit candidate matrix")
    adj = schur_equiv_check(seq.adjoint(), n_list, cand_adj, **kwargs)
    return primal, adj
