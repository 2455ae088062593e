"""Tests for grids, discrete gradients, and the variational solvers."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab import thermo
from homlab.elliptic import (
    FLAVORS,
    CoefficientField,
    DiscreteGradient,
    GridDomain,
    RHSFunctional,
    affine_dual_residual,
    build_grad,
    divcurl_compliant,
    divcurl_counterexample,
    divcurl_pairing,
    divcurl_verdict,
    divergence_defect,
    divtest_experiment,
    divtest_verdict,
    galerkin_matrix,
    grid_unknowns,
    hminus_norm,
    projected_inverse_1d,
    scalar_probe_pairs,
    scalar_probes,
    smooth_bump,
    solve_affine,
    solve_elliptic,
    vector_probe_pairs,
    vector_probes,
)
from homlab.elliptic import _sine_modes
from homlab.homogenize import CoefficientSequence
from homlab.errors import (
    BudgetExceeded,
    CoercivityError,
    CompatibilityError,
    NonMeanFree,
    ShapeError,
    SolverDiverged,
)
from homlab.hilbert import adjoint, kernel_range


def two_phase(vals=(1.0, 4.0), cut=0.5):
    lo, hi = vals

    def fn(points):
        x = np.atleast_2d(points)[:, 0]
        return np.where((x % 1.0) < cut, lo, hi)

    return fn


class TestGridDomain:
    def test_degenerate_rejected(self):
        with pytest.raises(ShapeError):
            GridDomain(((0.0, 1.0),), (0,))
        with pytest.raises(ShapeError):
            GridDomain(((1.0, 1.0),), (4,))

    def test_spacing_and_volume(self):
        dom = GridDomain.box((4, 8), lo=(0, 0), hi=(2, 1))
        assert dom.spacing == (0.5, 0.125)
        assert np.isclose(dom.volume, 2.0)

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("HOMLAB_BUDGET", "1000")
        with pytest.raises(BudgetExceeded):
            build_grad.__wrapped__(GridDomain.box((64, 64)), "dirichlet")


    @pytest.mark.parametrize("cells", [(5,), (4, 3), (3, 2, 4)])
    @pytest.mark.parametrize("flavor", ["dirichlet", "neumann", "periodic"])
    def test_closed_form_unknown_count(self, cells, flavor):
        g = build_grad.__wrapped__(GridDomain.box(cells), flavor)
        assert grid_unknowns(cells, flavor) == g.scalar_space.dim + g.vector_space.dim

    @pytest.mark.parametrize("cells", [(2, 2, 2), (4, 3, 5)])
    def test_closed_form_yee_count(self, cells):
        from homlab.maxwell import YeeComplex

        cx = YeeComplex(GridDomain.box(cells))
        assert grid_unknowns(cells, "yee") == cx.n_edges + cx.n_faces


class TestBuildGrad:
    def test_1d_dirichlet_shape_and_kernel(self):
        g = build_grad(GridDomain.interval(0, 1, 4), "dirichlet")
        assert g.matrix.shape == (4, 3)
        ker, _ = kernel_range(g.op)
        assert ker.dim == 0

    def test_neumann_constants(self):
        g = build_grad(GridDomain.interval(0, 1, 16), "neumann")
        c = np.full(g.scalar_space.dim, 2.5)
        assert np.abs(g.matrix @ c).max() == 0.0
        ker, _ = kernel_range(g.op)
        assert ker.dim == 1

    def test_periodic_kernel_and_symbol(self):
        m = 64
        g = build_grad(GridDomain.interval(0, 1, m), "periodic")
        ker, _ = kernel_range(g.op)
        assert ker.dim == 1
        # discrete Fourier oracle: complex modes are exact eigenvectors with
        # symbol modulus 2 sin(pi k h) / h
        h = 1.0 / m
        x = g.node_coords[:, 0]
        for k in (1, 3, 7):
            u = np.exp(2j * np.pi * k * x)
            lam = (np.exp(2j * np.pi * k * h) - 1.0) / h
            np.testing.assert_allclose(g.matrix @ u, lam * u, atol=1e-11 / h)
            assert np.isclose(abs(lam), 2 * np.sin(np.pi * k * h) / h)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_constants_are_views_and_coordinates_lazy(self, flavor):
        g = DiscreteGradient(GridDomain.box((4, 3)), flavor)
        for constant in (g.elem_measure, g.vector_space.weight):
            assert constant.strides == (0,) and not constant.flags.writeable
        assert g.vector_space.weight[0] == g.elem_measure[0] == 1.0 / 24
        lazy = ("node_coords", "elem_mid", "elem_cell")
        assert not set(lazy) & set(vars(g))
        np.testing.assert_array_equal(g.elem_cell, np.tile(np.arange(12), 2))
        assert g.node_coords.shape == (g.scalar_space.dim, 2)
        assert g.elem_mid.shape == (g.n_elem, 2)

    def test_2d_dirichlet_injective(self):
        g = build_grad(GridDomain.box((6, 6)), "dirichlet")
        ker, _ = kernel_range(g.op)
        assert ker.dim == 0

    def test_duality_machine_exact(self):
        # <r, G u>_W = -(div_{-1} r)(u) for every u, r
        dom = GridDomain.box((8, 8))
        g = build_grad(dom, "dirichlet")
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = rng.standard_normal(g.scalar_space.dim)
            r = rng.standard_normal(g.vector_space.dim)
            lhs = g.vector_space.inner(r, g.matrix @ u)
            rhs = -RHSFunctional.flux(r).assemble(g) @ u
            assert abs(lhs - rhs) < 1e-14 * max(1.0, abs(lhs))

    def test_div_is_minus_adjoint_of_grad(self):
        dom = GridDomain.interval(0, 1, 32)
        g = build_grad(dom, "dirichlet")
        div = adjoint(g.op)
        rng = np.random.default_rng(1)
        r = rng.standard_normal(g.vector_space.dim)
        u = rng.standard_normal(g.scalar_space.dim)
        # (div_{-1} r)(u) as a functional equals -<adjoint(grad) r, u>_scalar
        f_val = RHSFunctional.flux(r).assemble(g) @ u
        pair = g.scalar_space.inner(div(r), u)
        assert abs(f_val + pair) < 1e-13


def pencil_poincare(domain):
    """Smallest singular value of the Dirichlet gradient in the weighted
    norms: the square root of the smallest eigenvalue of the pencil
    (G^H W_v G, W_s), by shift-invert ARPACK."""
    g = build_grad(domain, "dirichlet")
    k = (g.matrix.T @ sp.diags(g.vector_space.weight) @ g.matrix).tocsc()
    lam = scipy.sparse.linalg.eigsh(k, k=1, M=sp.diags(g.scalar_space.weight).tocsc(),
                                    sigma=0.0, return_eigenvectors=False)
    return math.sqrt(lam[0])


def closed_form_poincare(domain):
    """The same constant on a box: the unit Dirichlet stiffness and the lumped
    mass are tensor products (the Kuhn split gives the 2d + 1 point stencil),
    so the pencil's smallest eigenvalue is sum_a (4/h_a^2) sin^2(pi/(2 m_a))
    for m_a cells of width h_a on axis a."""
    return math.sqrt(sum(4.0 / h**2 * math.sin(math.pi / (2 * m)) ** 2
                         for h, m in zip(domain.spacing, domain.cells)))


class TestPoincare:
    def test_1d(self):
        gamma = pencil_poincare(GridDomain.interval(0, 1, 512))
        assert abs(gamma - np.pi) < 0.01
        assert gamma >= 0.5  # slab bound with R = 1

    def test_2d(self):
        gamma = pencil_poincare(GridDomain.box((128, 128)))
        assert abs(gamma - np.pi * np.sqrt(2)) < 0.02

    def test_translated_interval(self):
        gamma = pencil_poincare(GridDomain.interval(10, 11, 128))
        assert abs(gamma - np.pi) < 0.01
        assert gamma >= 1.0 / 22.0

    @pytest.mark.parametrize("domain, value", [
        (GridDomain.box((20,)), 3.1383638291137768),
        (GridDomain.box((12, 9)), 4.425286144582289),
        (GridDomain.box((40, 40)), 4.441741112219518),
        (GridDomain.box((6, 5, 7)), 5.37590663556728),
        (GridDomain.box((14, 14, 14)), 5.429988515105346),
        (GridDomain(((10.0, 11.0), (0.0, 2.0)), (12, 9)), 3.500830028281656),
    ])
    def test_closed_form_matches_the_pencil_eigenvalue(self, domain, value):
        # the values of the generalized eigensolve (dense eigvalsh up to 1500
        # unknowns, shift-invert ARPACK above) on the gradient of build_grad
        assert abs(closed_form_poincare(domain) - value) <= 1e-12 * value
        assert abs(pencil_poincare(domain) - value) <= 1e-12 * value


class TestSolveElliptic:
    def test_1d_constant_closed_form(self):
        dom = GridDomain.interval(0, 1, 256)
        a = CoefficientField.constant(dom, 1.0, bounds=(0.5, 2.0))
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
        u, q = solve_elliptic(dom, a, f)
        g = build_grad(dom)
        i = np.argmin(np.abs(g.node_coords[:, 0] - 0.5))
        assert abs(u[i] - 0.125) < 1e-4

    def test_linearity_in_coefficient(self):
        dom = GridDomain.box((16, 16))
        f = RHSFunctional.density(lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]))
        a1 = CoefficientField.constant(dom, 1.0, bounds=(0.5, 2.0))
        a2 = CoefficientField.constant(dom, 2.0, bounds=(1.0, 4.0))
        u1, _ = solve_elliptic(dom, a1, f)
        u2, _ = solve_elliptic(dom, a2, f)
        np.testing.assert_allclose(u2, u1 / 2, atol=1e-12)

    def test_1d_laminate_vs_antiderivative(self):
        # quadrature oracle: q = c - x, u = int (c - s)/a(s) ds with c fixed
        # by u(1) = 0; exact for mesh-aligned piecewise constant a
        m = 128
        dom = GridDomain.interval(0, 1, m)
        a = CoefficientField.from_function(dom, two_phase(), bounds=(0.5, 5.0))
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
        u, q = solve_elliptic(dom, a, f)
        g = build_grad(dom)
        acell = a.values[:, 0, 0]
        h = 1.0 / m
        edges = np.linspace(0, 1, m + 1)
        inv_int = (1.0 / acell * h).sum()
        s_int = ((edges[1:] ** 2 - edges[:-1] ** 2) / 2 / acell).sum()
        c = s_int / inv_int
        cell_int = (c * h - (edges[1:] ** 2 - edges[:-1] ** 2) / 2) / acell
        u_exact_nodes = np.concatenate([[0.0], np.cumsum(cell_int)])
        interior = u_exact_nodes[1:-1]
        np.testing.assert_allclose(u, interior, atol=1e-8)

    def test_galerkin_optimality(self):
        dom = GridDomain.box((24, 24))
        a = CoefficientField.from_function(
            dom, lambda p: 1.0 + 0.5 * np.sin(2 * np.pi * p[:, 0]), bounds=(0.4, 2.0)
        )
        f = RHSFunctional.density(lambda p: p[:, 0] * p[:, 1])
        u, q = solve_elliptic(dom, a, f)
        g = build_grad(dom)
        k = galerkin_matrix(g, a)
        rhs = f.assemble(g)
        res = np.linalg.norm(k @ u - rhs) / np.linalg.norm(rhs)
        assert res < 1e-10

    def test_mesh_convergence_second_order(self):
        # P1 interpolation error at element midpoints is O(h^2)
        errs = []
        for m in (64, 128, 256):
            dom = GridDomain.interval(0, 1, m)
            a = CoefficientField.constant(dom, 1.0, bounds=(0.5, 2.0))
            f = RHSFunctional.density(lambda p: np.ones(len(p)))
            u, _ = solve_elliptic(dom, a, f)
            g = build_grad(dom)
            full = np.concatenate([[0.0], u, [0.0]])
            mids = 0.5 * (full[:-1] + full[1:])
            x = g.elem_mid[:, 0]
            errs.append(np.abs(mids - x * (1 - x) / 2).max())
        orders = [np.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
        assert min(orders) >= 1.9

    def test_coercivity_error(self):
        dom = GridDomain.interval(0, 1, 8)
        with pytest.raises(CoercivityError):
            CoefficientField.from_function(dom, lambda p: p[:, 0] - 0.5, bounds=(0.1, 2.0))
        sign_changing = CoefficientField.from_function(
            dom, lambda p: p[:, 0] - 0.5, bounds=None, check=False
        )
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
        with pytest.raises(CoercivityError):
            solve_elliptic(dom, sign_changing, f)

    def test_neumann_needs_compatible_data(self):
        dom = GridDomain.interval(0, 1, 32)
        a = CoefficientField.constant(dom, 1.0, bounds=(0.5, 2.0))
        with pytest.raises(CompatibilityError):
            solve_elliptic(dom, a, RHSFunctional.density(lambda p: np.ones(len(p))),
                           flavor="neumann")

    def test_neumann_mean_free_solution(self):
        dom = GridDomain.interval(0, 1, 64)
        a = CoefficientField.constant(dom, 1.0, bounds=(0.5, 2.0))
        f = RHSFunctional.density(lambda p: np.cos(np.pi * p[:, 0]))
        u, q = solve_elliptic(dom, a, f, flavor="neumann")
        g = build_grad(dom, "neumann")
        w = g.scalar_space.weight
        assert abs(w @ u) < 1e-12
        # oracle: -u'' = cos(pi x), u'(0) = u'(1) = 0 -> u = cos(pi x)/pi^2
        exact = np.cos(np.pi * g.node_coords[:, 0]) / np.pi**2
        assert np.abs(u - exact).max() < 1e-3


class TestProjectedInverse1D:
    def test_constant_coefficient(self):
        m = 50
        x = (np.arange(m) + 0.5) / m
        phi = np.sin(2 * np.pi * x)
        phi -= phi.mean()
        psi = projected_inverse_1d(np.full(m, 2.0), phi)
        np.testing.assert_allclose(psi, phi / 2.0, atol=1e-12)

    def test_not_mean_free_raises(self):
        with pytest.raises(NonMeanFree):
            projected_inverse_1d(np.full(4, 1.0), np.ones(4))

    def test_vanishing_harmonic_mean_complex(self):
        # only reachable in complex mode: 1/a averages to zero
        from homlab.errors import VanishingHarmonicMean

        a = np.array([1j, -1j, 1j, -1j])
        phi = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(VanishingHarmonicMean):
            projected_inverse_1d(a, phi)

    def test_matches_generic_projected_solve(self):
        # generic oracle: parametrize the mean-free space by the discrete
        # Dirichlet gradient and solve the compressed system directly
        rng = np.random.default_rng(7)
        import scipy.sparse as sp

        from homlab.hilbert import HilbertSpace, LinearOp
        from homlab.schur import Decomposition, schur_maps

        for trial in range(50):
            m = int(rng.integers(16, 80))
            h = 1.0 / m
            a = rng.uniform(0.5, 3.0, size=m)
            phi = rng.standard_normal(m)
            phi -= phi.mean()
            space = HilbertSpace(m, weight=np.full(m, h))
            gmat = sp.diags([-np.ones(m - 1), np.ones(m - 1)], [0, -1],
                            shape=(m, m - 1)).tocsr() / h
            dec = Decomposition.from_generator(space, gmat)
            aop = LinearOp(space, space, matrix=sp.diags(a).tocsr())
            maps = schur_maps(aop, dec)
            generic = maps.m00inv(phi)
            closed = projected_inverse_1d(a, phi)
            assert np.abs(generic - closed).max() < 1e-10, f"trial {trial}"

    def test_mean_projection_formula(self):
        # the orthogonal projection onto the mean-free space subtracts the mean
        m = 40
        rng = np.random.default_rng(8)
        phi = rng.standard_normal(m)
        proj = phi - phi.mean()
        psi = projected_inverse_1d(np.ones(m), proj)
        np.testing.assert_allclose(psi, proj, atol=1e-12)


class TestSolveAffine:
    def test_zero_source_reduces_to_elliptic(self):
        dom = GridDomain.box((12, 12))
        a = CoefficientField.from_function(
            dom, lambda p: 1.0 + 0.3 * np.cos(2 * np.pi * p[:, 1]), bounds=(0.5, 2.0)
        )
        f = RHSFunctional.density(lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]))
        z0 = lambda pts: np.zeros((len(pts), 2))
        u1, p1 = solve_affine(dom, a, z0, f)
        u2, q2 = solve_elliptic(dom, a, f)
        np.testing.assert_allclose(u1, u2, atol=1e-12)
        np.testing.assert_allclose(p1, q2, atol=1e-12)

    def test_identity_coefficient_gives_projection(self):
        dom = GridDomain.box((16, 16))
        a = CoefficientField.constant(dom, 1.0, bounds=(0.5, 2.0))
        z = lambda pts: np.stack([np.sin(2 * np.pi * pts[:, 0]) + 0.2,
                                  pts[:, 1] * 0 + 0.7], axis=-1)
        f0 = RHSFunctional.density(lambda p: np.zeros(len(p)))
        u, p = solve_affine(dom, a, z, f0)
        g = build_grad(dom)
        from homlab.elliptic import _complement_project

        zv = g.sample_vector(z)
        np.testing.assert_allclose(p, _complement_project(g, zv), atol=1e-10)

    def test_dual_residual_seeded_instances(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            m = int(rng.integers(8, 20))
            dom = GridDomain.box((m, m))
            shift = rng.uniform(1.0, 2.0)
            amp = rng.uniform(0.1, 0.6)
            kx = int(rng.integers(1, 4))
            a = CoefficientField.from_function(
                dom, lambda p: shift + amp * np.sin(2 * np.pi * kx * p[:, 0]),
                bounds=(shift - amp - 1e-9, shift + amp + 1e-9),
            )
            cx, cy = rng.uniform(0.3, 2.0, size=2)
            z = lambda pts: np.stack([cx * np.cos(np.pi * pts[:, 0]),
                                      cy * np.sin(np.pi * pts[:, 1])], axis=-1)
            f = RHSFunctional.density(lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]))
            u, p = solve_affine(dom, a, z, f)
            g = build_grad(dom)
            err = affine_dual_residual(dom, a, g.sample_vector(z), p, count=8)
            assert err <= 1e-9, f"trial {trial}: {err}"


class TestHminusNorm:
    def test_zero(self):
        dom = GridDomain.interval(0, 1, 64)
        assert hminus_norm(dom, RHSFunctional.density(lambda p: np.zeros(len(p)))) == 0.0

    def test_first_sine_mode_spectral_oracle(self):
        # independent oracle: dual norm from the discrete generalized
        # eigendecomposition of (K, W)
        m = 128
        dom = GridDomain.interval(0, 1, m)
        g = build_grad(dom)
        a = CoefficientField.constant(dom, 1.0)
        k = galerkin_matrix(g, a).toarray()
        w = np.diag(g.scalar_space.weight)
        lam, vecs = scipy.linalg.eigh(k, w)
        gfun = np.sin(np.pi * g.node_coords[:, 0])
        rhs = g.scalar_space.apply_weight(gfun)
        coeffs = vecs.T @ rhs
        oracle = np.sqrt((np.abs(coeffs) ** 2 / lam).sum())
        val = hminus_norm(dom, RHSFunctional.density(lambda p: np.sin(np.pi * p[:, 0])))
        assert abs(val - oracle) < 1e-10
        # the continuum value with the energy dual is ||g|| / pi
        assert abs(val - 1.0 / (np.pi * np.sqrt(2))) < 1e-4

    def test_flux_in_complement_vanishes(self):
        dom = GridDomain.interval(0, 1, 64)
        g = build_grad(dom)
        from homlab.elliptic import _complement_project

        r = _complement_project(g, g.sample_vector(lambda pts: 1.0 + 0 * pts))
        assert hminus_norm(dom, RHSFunctional.flux(r)) < 1e-12


class TestDivergenceDefect:
    def test_equal_fields(self):
        dom = GridDomain.interval(0, 1, 64)
        r = lambda pts: np.sin(np.pi * pts)
        d = divergence_defect(dom, r, r)
        assert d.projection_gap == 0.0 and d.divergence_gap == 0.0

    def test_divergence_free_difference(self):
        # difference in the complement of the gradient range: projection
        # gap vanishes at 1e-10 and so does the dual route
        dom = GridDomain.box((16, 16))
        g = build_grad(dom)
        from homlab.elliptic import _complement_project

        rng = np.random.default_rng(10)
        base = rng.standard_normal(g.vector_space.dim)
        sol = _complement_project(g, base)
        r = np.zeros_like(sol)
        d = divergence_defect(dom, sol + r, r)
        assert d.projection_gap < 1e-10
        assert d.divergence_gap < 1e-10

    def test_oscillatory_gradients_keep_order_one_divergence(self):
        # r_n = grad(sin(2 pi n x) / (2 pi n)): fields shrink like 1/n but the
        # projection/dual gaps stay order one
        m = 2048
        dom = GridDomain.interval(0, 1, m)
        g = build_grad(dom)
        zero = np.zeros(g.vector_space.dim)
        rows = []
        for n in (4, 8, 16):
            r_n = g.sample_vector(lambda pts, n=n: np.cos(2 * np.pi * n * pts))
            d = divergence_defect(dom, r_n, zero)
            field_norm = g.vector_space.norm(r_n) / (2 * np.pi * n)
            rows.append((n, field_norm, d.projection_gap, d.divergence_gap))
        for n, fnorm, pg, hg in rows:
            assert pg > 0.5  # cos has unit-order projection onto the range
        assert rows[-1][1] < 0.01

    def test_isometry_between_routes(self):
        dom = GridDomain.box((12, 12))
        g = build_grad(dom)
        rng = np.random.default_rng(11)
        r_n = rng.standard_normal(g.vector_space.dim)
        r = rng.standard_normal(g.vector_space.dim)
        d = divergence_defect(dom, r_n, r)
        assert abs(d.divergence_gap / d.projection_gap - 1.0) < 1e-8


class TestDivCurlPairing:
    def test_constant_sequences(self):
        dom = GridDomain.interval(0, 1, 256)
        q = lambda pts: np.ones_like(pts) * 2.0
        r = lambda pts: np.ones_like(pts) * 3.0
        vals = divcurl_pairing(dom, [q] * 4, [r] * 4)
        assert np.allclose(vals, vals[0])

    def test_counterexample_product_of_weak_limits_fails(self):
        # r_n = q_n = sin(2 pi n x): both tend weakly to zero but the pairing
        # tends to (1/2) int phi, which stays order one
        m = 4096
        dom = GridDomain.interval(0, 1, m)
        phi = smooth_bump(dom)
        g = build_grad(dom)
        half_phi = 0.5 * (g.elem_measure * phi(g.elem_mid)).sum()
        fields = [
            (lambda pts, n=n: np.sin(2 * np.pi * n * pts)) for n in (8, 16, 32, 64)
        ]
        vals = divcurl_pairing(dom, fields, fields, phi=phi)
        assert abs(vals[-1].real - half_phi) < 0.01 * abs(half_phi)
        assert abs(vals[-1].real) > 0.1 * abs(half_phi)

    def test_natural_flavor_gradients_also_comply(self):
        # gradient structure without the zero trace: oscillating natural-BC
        # solves paired against a fixed smooth field still converge
        f = RHSFunctional.density(lambda p: np.cos(np.pi * p[:, 0]))
        r = lambda pts: np.stack([np.cos(np.pi * pts[:, 0])], axis=-1)
        vals = []
        for n in (2, 4, 8, 16):
            dom = GridDomain.interval(0, 1, 64 * n)
            a = CoefficientField.from_function(
                dom, lambda p, n=n: 2.0 + np.sin(2 * np.pi * n * p[:, 0]),
                bounds=(1.0, 3.0))
            u, _ = solve_elliptic(dom, a, f, flavor="neumann")
            g = build_grad(dom, "neumann")
            qn = g.matrix @ u
            phi = smooth_bump(dom)
            vals.append((g.elem_measure * phi(g.elem_mid)
                         * g.sample_vector(r) * qn).sum())
        dom = GridDomain.interval(0, 1, 1024)
        a_h = CoefficientField.constant(dom, np.sqrt(3.0), bounds=(1.0, 3.0))
        u, _ = solve_elliptic(dom, a_h, f, flavor="neumann")
        g = build_grad(dom, "neumann")
        phi = smooth_bump(dom)
        lim = (g.elem_measure * phi(g.elem_mid) * g.sample_vector(r)
               * (g.matrix @ u)).sum()
        errs = [abs(v - lim) for v in vals]
        assert errs[-1] < errs[0]
        assert errs[-1] < 0.05 * max(abs(lim), 1e-3)

    def test_compliant_sequence_converges(self):
        # q_n = grad u_n for oscillating-coefficient solutions, r fixed smooth:
        # pairing approaches the pairing of the limits (two-scale oracle)
        vals = []
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
        r = lambda pts: np.stack([np.cos(np.pi * pts[:, 0])], axis=-1)
        for n in (2, 4, 8, 16):
            m = 64 * n
            dom = GridDomain.interval(0, 1, m)
            a = CoefficientField.from_function(
                dom, lambda p, n=n: 2.0 + np.sin(2 * np.pi * n * p[:, 0]),
                bounds=(1.0, 3.0),
            )
            u, q = solve_elliptic(dom, a, f)
            g = build_grad(dom)
            grad_u = g.matrix @ u
            vals.append(divcurl_pairing(dom, [grad_u], [r(g.elem_mid).ravel()])[0])
        # limit: gradient of the sqrt(3)-coefficient solution
        m = 1024
        dom = GridDomain.interval(0, 1, m)
        a_h = CoefficientField.constant(dom, np.sqrt(3.0), bounds=(1.0, 3.0))
        u, _ = solve_elliptic(dom, a_h, f)
        g = build_grad(dom)
        lim = divcurl_pairing(dom, [g.matrix @ u], [r(g.elem_mid).ravel()])[0]
        errs = [abs(v - lim) for v in vals]
        assert errs[-1] < errs[0]
        assert errs[-1] < 0.02 * abs(lim)


def _with_rows(rep, **changes):
    """A copy of ``rep`` whose last row takes ``changes``."""
    rows = [dict(row) for row in rep.rows]
    rows[-1].update(changes)
    return type(rep)(kind=rep.kind, columns=rep.columns, rows=rows, meta=rep.meta)


class TestDivCurlExperiments:
    def test_counterexample_tends_to_half_the_cutoff_mass(self):
        rep = divcurl_counterexample(1024, [8, 16, 32])
        assert rep.columns == ("n", "pairing", "weak_limit_product", "gap")
        dom = GridDomain.interval(0, 1, 1024)
        g, phi = build_grad(dom), smooth_bump(dom)
        assert rep.meta["half_mass"] == 0.5 * (g.elem_measure * phi(g.elem_mid)).sum()
        assert rep.values("n").tolist() == [8, 16, 32]
        assert not rep.values("weak_limit_product").any()
        assert np.array_equal(rep.values("gap"), np.abs(rep.values("pairing")))
        assert divcurl_verdict(rep) == []
        assert divcurl_verdict(rep, gap_floor=2.0) == [
            "counterexample pairing collapsed toward zero"]
        assert divcurl_verdict(_with_rows(rep, pairing=0.9 * rep.meta["half_mass"])) \
            == ["counterexample pairing missed half the cutoff mass"]

    def test_compliant_tends_to_the_limit_pairing(self):
        profile = lambda y: 2.0 + np.sin(2 * np.pi * np.asarray(y))
        rep = divcurl_compliant(profile, (1.0, 3.0), 32, [2, 4, 8])
        lim = rep.meta["limit"]
        assert np.array_equal(rep.values("weak_limit_product"), np.full(3, lim.real))
        assert np.array_equal(rep.values("gap"), np.abs(rep.values("pairing") - lim))
        assert rep.final("gap") < 1e-4 * abs(lim)
        assert divcurl_verdict(rep) == []
        failed = ["compliant pairing did not converge to the limit pairing"]
        assert divcurl_verdict(rep, 1e-6) == failed
        assert divcurl_verdict(_with_rows(rep, gap=1.0)) == failed


class TestDivTestExperiment:
    def test_gaps_vanish_together(self):
        rep = divtest_experiment(256, [4, 8])
        assert rep.columns == ("case", "n", "projection_gap", "divergence_gap")
        assert rep.rows[0] == {"case": 0, "n": 0, "projection_gap": 0.0, "divergence_gap": 0.0}
        assert [row["n"] for row in rep.rows[1:]] == [4, 8]
        assert all(abs(row["projection_gap"] - 0.5 ** 0.5) < 1e-12 for row in rep.rows[1:])
        assert divtest_verdict(rep) == []

    @pytest.mark.parametrize("gaps", [(1e-5, 1e-5), (1e-9, 1.0), (float("nan"), 1e-10)])
    def test_gaps_that_part_fail(self, gaps):
        rep = _with_rows(divtest_experiment(64, [2]), projection_gap=gaps[0],
                         divergence_gap=gaps[1])
        assert divtest_verdict(rep) == ["divtest row n=2: gaps did not vanish together"]


class TestProbes:
    def test_scalar_probe_count_and_norms(self):
        g = build_grad(GridDomain.box((10, 10)))
        probes = scalar_probes(g)
        assert len(probes) == 25
        for v in probes.matrix.T:
            assert abs(g.scalar_space.norm(v) - 1.0) < 1e-12

    def test_vector_probes(self):
        g = build_grad(GridDomain.box((10, 10)))
        probes = vector_probes(g, kinds=("component", "gradient"))
        assert len(probes) > 0
        for v in probes.matrix.T:
            assert abs(g.vector_space.norm(v) - 1.0) < 1e-12

    @pytest.mark.parametrize("cells, hi", [((12,), (1.7,)), ((9, 7), (1.3, 0.7)),
                                           ((4, 3, 5), (1.1, 0.9, 1.3))])
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_separable_probes_match_pointwise_evaluation(self, cells, hi, flavor):
        dom = GridDomain.box(cells, lo=(-0.3,) * len(cells), hi=hi)
        g = build_grad(dom, flavor)
        lo, span = np.array(dom.lo), np.array(hi) - np.array(dom.lo)

        def pointwise(space, cols):
            cols = np.stack(cols, axis=1)
            norms = space.column_norms(cols)
            return cols[:, norms > 1e-10] / norms[norms > 1e-10]

        t_node = (g.node_coords - lo) / span
        expected = pointwise(g.scalar_space, [np.prod(np.sin(k * np.pi * t_node), axis=1)
                                              for k in _sine_modes(dom, 5, 25)])
        np.testing.assert_allclose(scalar_probes(g).matrix, expected, rtol=0, atol=1e-14)

        t = (g.elem_mid - lo) / span
        d = dom.dim
        for kinds, start, count in [(("component",), 0, None), (("gradient",), 0, 4),
                                    (("component", "gradient"), 0, None),
                                    (("component", "gradient"), 0, 7), (("gradient",), 2, None),
                                    (("component", "gradient"), 5, 13), (("component",), 1, 3)]:
            cols = []
            for k in _sine_modes(dom, 3, 25):
                sines, cosines = np.sin(k * np.pi * t), k * np.pi / span * np.cos(k * np.pi * t)
                if "component" in kinds:
                    for c in range(d):
                        field = np.zeros_like(t)
                        field[:, c] = np.prod(sines, axis=1)
                        cols.append(field.ravel())
                if "gradient" in kinds:
                    cols.append(np.stack([
                        cosines[:, a] * np.prod(np.delete(sines, a, axis=1), axis=1)
                        for a in range(d)], axis=1).ravel())
            got = vector_probes(g, count=count, kinds=kinds, start=start).matrix
            np.testing.assert_allclose(got, pointwise(g.vector_space, cols[start:count]),
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("cells, lo, hi", [((12,), (-0.3,), (1.7,)), ((2,), (0.0,), (1.0,)),
                                               ((9, 7), (-0.3, 0.2), (1.3, 0.7)),
                                               ((4, 3, 5), (0.0, -1.0, 0.5), (1.1, 0.9, 1.3))])
    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_pairings_match_the_dense_gram(self, cells, lo, hi, flavor, field):
        # (2,) Dirichlet has one node, where sin(k pi / 2) drops k = 2 and 4
        g = build_grad(GridDomain.box(cells, lo=lo, hi=hi), flavor)
        rng = np.random.default_rng(23)

        def load(space, shape):
            v = rng.standard_normal((space.dim,) + shape)
            return v + 1j * rng.standard_normal(v.shape) if field == "complex" else v

        def assert_close(got, ref):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

        for shape in [(), (3,)]:
            v = load(g.scalar_space, shape)
            assert_close(scalar_probe_pairs(g, v), g.scalar_space.gram(scalar_probes(g).matrix, v))
            q = load(g.vector_space, shape)
            assert_close(vector_probe_pairs(g, q), g.vector_space.gram(vector_probes(g).matrix, q))


def _table_build(domain, flavor, gamma=0.7, direction=None):
    """The simplex-table construction of a Kuhn gradient grid: vertex index
    tables, one inverted edge matrix per simplex type, d + 1 stored entries
    per row. The reference the separable build is pinned against."""
    d, cells, h, lo = domain.dim, domain.cells, np.array(domain.spacing), np.array(domain.lo)
    node_shape = cells if flavor == "periodic" else tuple(c + 1 for c in cells)
    keep = np.ones(node_shape, dtype=bool)
    if flavor == "dirichlet":
        for axis in range(d):
            keep[(slice(None),) * axis + (0,)] = False
            keep[(slice(None),) * axis + (-1,)] = False
    reduced = -np.ones(keep.size, dtype=np.int64)
    reduced[np.flatnonzero(keep)] = np.arange(keep.sum())
    reduced = reduced.reshape(node_shape)
    tables = [[(0,) * d] + [tuple(int(b in perm[:k + 1]) for b in range(d)) for k in range(d)]
              for perm in itertools.permutations(range(d))]
    cell_multi = np.stack([g.ravel() for g in np.meshgrid(
        *[np.arange(c) for c in cells], indexing="ij")], axis=-1)
    n_cell, n_nodes = len(cell_multi), int(keep.sum())
    verts, grads, mids = [], [], []
    for offs in tables:
        coords = [cell_multi + np.array(off) for off in offs]
        if flavor == "periodic":
            coords = [c % np.array(cells) for c in coords]
        verts.append(np.stack([reduced[tuple(c.T)] for c in coords], axis=1))
        m = ((np.array(offs[1:], dtype=float) - np.array(offs[0])) * h).T
        minv = np.linalg.inv(m)
        grads.append(np.vstack([-minv.sum(axis=0), minv]))
        mids.append((lo + cell_multi * h)[:, None, :] + np.array(offs, dtype=float) * h)
    ev = np.concatenate(verts)
    n_elem = len(ev)
    measure = abs(np.linalg.det(m)) / math.factorial(d)
    gtab = np.repeat(np.stack(grads), n_cell, axis=0)
    rows = np.broadcast_to((np.arange(n_elem) * d)[:, None, None] + np.arange(d),
                           (n_elem, d + 1, d))
    cols = np.broadcast_to(ev[:, :, None], (n_elem, d + 1, d))
    mask = cols >= 0
    g_mat = sp.csr_matrix((gtab[mask], (rows[mask], cols[mask])), shape=(n_elem * d, n_nodes))
    w_sc = np.zeros(n_nodes)
    np.add.at(w_sc, ev[ev >= 0], measure / (d + 1))
    direction = np.eye(d)[0] if direction is None \
        else np.asarray(direction) / np.linalg.norm(direction)
    vm = ev >= 0
    coupling = sp.csr_matrix((
        np.repeat(gamma * direction[None, :] / (d + 1), vm.sum(), axis=0).ravel(),
        (((np.nonzero(vm)[0] * d)[:, None] + np.arange(d)).ravel(), np.repeat(ev[vm], d))),
        shape=(n_elem * d, n_nodes))
    nodes = np.stack([g.ravel() for g in np.meshgrid(
        *[np.arange(s) for s in node_shape], indexing="ij")], axis=-1)
    return {"matrix": g_mat, "elem_mid": np.concatenate(mids).mean(axis=1),
            "elem_measure": np.full(n_elem, measure), "weight": w_sc,
            "node_coords": (lo + nodes * h)[keep.ravel()], "coupling": coupling}


@st.composite
def kuhn_grids(draw):
    d = draw(st.integers(1, 3))
    flavor = draw(st.sampled_from(FLAVORS))
    least = 2 if flavor == "dirichlet" else 1
    cells = tuple(draw(st.integers(least, 7 if d < 3 else 4)) for _ in range(d))
    lo = [draw(st.floats(-2.0, 2.0)) for _ in range(d)]
    length = [draw(st.floats(0.1, 3.0)) for _ in range(d)]
    return GridDomain(tuple(zip(lo, np.add(lo, length))), cells), flavor


class TestSeparableGrid:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(grid=kuhn_grids(), data=st.data())
    def test_matches_the_simplex_table_build(self, grid, data):
        dom, flavor = grid
        direction = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dom.dim,
                                       max_size=dom.dim).filter(lambda v: np.linalg.norm(v) > 0.1))
        g = DiscreteGradient(dom, flavor)
        ref = _table_build(dom, flavor, 0.7, direction)
        scale = max(1.0 / h for h in dom.spacing)
        assert abs(g.matrix - ref["matrix"]).max() <= 1e-15 * scale
        np.testing.assert_allclose(g.elem_mid, ref["elem_mid"], rtol=0, atol=1e-14)
        np.testing.assert_allclose(g.elem_measure, ref["elem_measure"], rtol=1e-14)
        np.testing.assert_allclose(g.scalar_space.weight, ref["weight"], rtol=1e-14)
        np.testing.assert_array_equal(g.node_coords, ref["node_coords"])
        coupling = thermo._coupling_map(g, 0.7, direction)
        assert np.abs((coupling - ref["coupling"]).toarray()).max() <= 1e-15

    @pytest.mark.parametrize("flavor, cells", [
        (flavor, cells) for flavor in FLAVORS
        for cells in [(5,), (4, 3), (3, 1), (2, 3, 4), (1, 3, 2)]
        # a one-cell axis leaves no interior node
        if flavor != "dirichlet" or 1 not in cells])
    def test_rows_are_two_point_differences(self, flavor, cells):
        g = DiscreteGradient(GridDomain.box(cells, hi=[0.7 * (a + 1) for a in range(len(cells))]),
                             flavor)
        assert np.diff(g.matrix.indptr).max() <= 2
        assert np.all(g.matrix.data != 0.0)
        assert g.matrix.has_canonical_format

    @pytest.mark.parametrize("cells", [(1,), (3, 1), (2, 1, 3)])
    def test_one_cell_dirichlet_axis_is_a_shape_error(self, cells):
        with pytest.raises(ShapeError, match="no interior node"):
            DiscreteGradient(GridDomain.box(cells), "dirichlet")

    def test_3d_dirichlet_unit_stiffness_is_seven_point(self):
        dom = GridDomain.box((15, 15, 15), hi=(1.0, 0.9, 1.3))
        k = galerkin_matrix(build_grad(dom), CoefficientField.constant(dom, 1.0)).tocsr()
        assert np.diff(k.indptr).max() <= 7
        assert k.nnz == 18032


class TestComplexLoads:
    def test_complex_field_on_real_factorisation(self):
        dom = GridDomain.box((8, 8))
        g = build_grad(dom)
        rng = np.random.default_rng(12)
        re = rng.standard_normal(g.vector_space.dim)
        im = rng.standard_normal(g.vector_space.dim)
        r = re + 1j * im
        h = hminus_norm(dom, RHSFunctional.flux(r))
        h_re = hminus_norm(dom, RHSFunctional.flux(re))
        h_im = hminus_norm(dom, RHSFunctional.flux(im))
        assert abs(h - np.hypot(h_re, h_im)) < 1e-12
        d = divergence_defect(dom, r, 0)
        assert abs(d.divergence_gap - h) < 1e-12
        assert abs(d.divergence_gap / d.projection_gap - 1.0) < 1e-8


def _grid_coefficient(dom, kind):
    """Cell-varying coefficient: real symmetric, real with a cell-varying
    skew part (a non-symmetric K), or complex."""
    rng = np.random.default_rng(3)
    d = dom.dim
    vals = rng.uniform(1.0, 4.0, dom.n_cells)[:, None, None] * np.eye(d)
    if kind == "nonsym":
        skew = np.zeros((d, d))
        skew[0, 1], skew[1, 0] = 1.0, -1.0
        vals = vals + rng.uniform(-0.8, 0.8, dom.n_cells)[:, None, None] * skew
    elif kind == "complex":
        vals = vals + 1j * rng.uniform(-1.0, 1.0, dom.n_cells)[:, None, None] * np.eye(d)
    return CoefficientField(dom, vals)


def _compatible_load(g, seed=5):
    """A flux load, which annihilates constants on every flavor."""
    rng = np.random.default_rng(seed)
    return RHSFunctional.flux(rng.standard_normal(g.vector_space.dim)).assemble(g)


class TestGridSolverPath:
    @pytest.mark.parametrize("cells", [(6, 7), (4, 3, 5)])
    def test_grids_with_d_at_least_2_call_no_sparse_lu(self, band_lu_calls, cells):
        from homlab.homogenize import homogenized_tensor

        dom = GridDomain.box(cells)
        a = _grid_coefficient(dom, "sym")
        rng = np.random.default_rng(2)
        for flavor in ("dirichlet", "neumann", "periodic"):
            g = build_grad(dom, flavor)
            solve_elliptic(dom, a, RHSFunctional.flux(rng.standard_normal(g.vector_space.dim)),
                           flavor)
        hminus_norm(dom, RHSFunctional.density(np.ones(build_grad(dom).scalar_space.dim)))
        homogenized_tensor(a)
        assert band_lu_calls == []

    @pytest.mark.parametrize("flavor", ["dirichlet", "neumann", "periodic"])
    def test_1d_solves_call_no_sparse_lu_and_match_it(self, band_lu_calls, flavor):
        # Dirichlet and Neumann K are tridiagonal and solved exactly; the
        # periodic K wraps and runs preconditioned CG
        from homlab.hilbert import _SparseSolver

        dom = GridDomain.interval(0.0, 1.3, 96)
        a = _grid_coefficient(dom, "sym")
        g = build_grad(dom, flavor)
        f = RHSFunctional.flux(np.random.default_rng(8).standard_normal(g.vector_space.dim))
        k, rhs = galerkin_matrix(g, a), f.assemble(g)
        if flavor == "dirichlet":
            ref = _SparseSolver(k).solve(rhs)
        else:
            ref = g.mean_center(np.concatenate([[0.0], _SparseSolver(k[1:, 1:]).solve(rhs[1:])]))
        band_lu_calls.clear()
        u, _ = solve_elliptic(dom, a, f, flavor)
        assert band_lu_calls == []
        assert np.linalg.norm(u - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("kind", ["sym", "nonsym", "complex"])
    @pytest.mark.parametrize("cells", [(9, 12), (5, 6, 7)])
    @pytest.mark.parametrize("flavor", ["dirichlet", "neumann", "periodic"])
    def test_krylov_matches_sparse_lu(self, flavor, cells, kind):
        from homlab import elliptic
        from homlab.hilbert import _SparseSolver

        dom = GridDomain.box(cells, hi=(1.0, 1.7, 0.8)[:len(cells)])
        g = build_grad(dom, flavor)
        k = galerkin_matrix(g, _grid_coefficient(dom, kind))
        rhs = _compatible_load(g)
        solver = elliptic._GridSolver(g, k)
        assert solver._hermitian is (kind == "sym")
        u = solver.solve(rhs)
        if flavor == "dirichlet":
            ref = _SparseSolver(k).solve(rhs)
        else:
            ref = g.mean_center(np.concatenate([[0.0], _SparseSolver(k[1:, 1:]).solve(rhs[1:])]))
        assert np.linalg.norm(u - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("cells", [(9, 12), (5, 6, 7)])
    @pytest.mark.parametrize("flavor", ["dirichlet", "neumann", "periodic"])
    def test_unit_stiffness_solve_is_one_transform(self, flavor, cells):
        """The transform inverse of K_1 is exact, so the solve needs no
        Krylov step, except for 3-d neumann grids, whose K_1 is not a tensor
        product on the boundary edges."""
        from homlab import elliptic

        dom = GridDomain.box(cells, hi=(1.0, 1.7, 0.8)[:len(cells)])
        solver = elliptic.stiffness_solver(dom, flavor)
        rhs = _compatible_load(solver._grad)
        u = solver.solve(rhs)
        assert np.linalg.norm(solver.k @ u - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))
        assert (solver.iterations == 0) is not (flavor == "neumann" and len(cells) == 3)

    @pytest.mark.parametrize("kind", ["sym", "complex"])
    @pytest.mark.parametrize("flavor", ["dirichlet", "neumann", "periodic"])
    def test_zero_load_returns_zero(self, flavor, kind):
        from homlab import elliptic

        dom = GridDomain.box((8, 8))
        g = build_grad(dom, flavor)
        solver = elliptic._GridSolver(g, galerkin_matrix(g, _grid_coefficient(dom, kind)))
        u = solver.solve(np.zeros(g.scalar_space.dim))
        assert not np.any(u)

    def test_cg_iterations_do_not_grow_with_the_mesh(self):
        from homlab import elliptic

        counts = []
        for m in (32, 128):
            dom = GridDomain.box((m, m))
            a = CoefficientField.from_function(
                dom, lambda p: np.where(((np.floor(2 * p[:, 0]) + np.floor(2 * p[:, 1])) % 2)
                                        == 0, 1.0, 4.0), bounds=(1.0, 4.0))
            g = build_grad(dom, "periodic")
            solver = elliptic._GridSolver(g, galerkin_matrix(g, a))
            solver.solve(RHSFunctional.flux(a.apply(g, np.tile([1.0, 0.0], g.n_elem))).assemble(g))
            assert solver._hermitian
            counts.append(solver.iterations)
        assert counts[0] > 0 and abs(counts[1] - counts[0]) <= 3


def _laminate(dom, kind, axis=0):
    """A field varying along ``axis`` only: a real two-phase laminate with a
    diagonal anisotropic tensor, a complex one, or the constant diagonal
    anisotropic candidate of a laminate."""
    d = dom.dim
    x = dom.cell_midpoints()[:, axis]
    stretch = np.diag(np.linspace(1.0, 1.6, d))
    if kind == "real":
        vals = np.where(x % 0.5 < 0.25, 1.0, 4.0)[:, None, None] * stretch
    elif kind == "complex":
        vals = (2.0 + np.sin(7 * x) + 0.5j * np.cos(5 * x))[:, None, None] * stretch
    else:
        vals = np.diag([1.6, 2.5, 1.9][:d])
    return CoefficientField(dom, vals)


def _two_phase_profile(y):
    return np.where(np.asarray(y) < 0.5, 1.0, 4.0)


def _checkerboard(dom):
    return CoefficientField.from_function(
        dom, lambda p: np.where((np.floor(2 * p[:, 0]) + np.floor(2 * p[:, 1])) % 2 == 0,
                                1.0, 4.0), bounds=(1.0, 4.0))


_BOXES = {2: ((9, 12), (1.0, 1.7)), 3: ((5, 6, 7), (1.0, 1.7, 0.8))}


class TestExactSeparableSolver:
    """A K that separates (a laminate, or a constant diagonal tensor) is
    solved by the transverse transforms and one tridiagonal solve per mode,
    with no Krylov step; any other K keeps the Krylov path."""

    @pytest.mark.parametrize("block", [False, True])
    @pytest.mark.parametrize("kind", ["real", "complex", "constant"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_dirichlet_laminates_are_solved_exactly(self, d, kind, block):
        from homlab import elliptic

        cells, hi = _BOXES[d]
        dom = GridDomain.box(cells, hi=hi)
        g = build_grad(dom)
        k = galerkin_matrix(g, _laminate(dom, kind))
        solver = elliptic._GridSolver(g, k)
        assert isinstance(solver.prec, elliptic._TransformInverse)
        assert solver.prec._axis == (None if kind == "constant" else 0)
        rng = np.random.default_rng(6)
        rhs = rng.standard_normal((k.shape[0], 4) if block else k.shape[0])
        u = solver.solve(rhs)
        assert solver.iterations == 0
        res = np.linalg.norm(k @ u - rhs, axis=0)
        assert np.all(res <= 1e-12 * np.maximum(1.0, np.linalg.norm(rhs, axis=0)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_the_varying_axis_is_read_off_k(self, d):
        from homlab import elliptic

        cells, hi = _BOXES[d]
        dom = GridDomain.box(cells, hi=hi)
        g = build_grad(dom)
        for axis in range(d):
            k = galerkin_matrix(g, _laminate(dom, "real", axis))
            inverse = elliptic._TransformInverse.exact(g, k)
            assert inverse._axis == axis
            rhs = _compatible_load(g)
            assert np.linalg.norm(k @ inverse(rhs) - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    @pytest.mark.parametrize("kind", ["real", "complex", "constant"])
    def test_2d_neumann_laminates_are_solved_exactly(self, kind):
        from homlab import elliptic
        from homlab.hilbert import _SparseSolver

        dom = GridDomain.box((9, 12), hi=(1.0, 1.7))
        g = build_grad(dom, "neumann")
        k = galerkin_matrix(g, _laminate(dom, kind))
        solver = elliptic._GridSolver(g, k)
        rhs = _compatible_load(g)
        u = solver.solve(rhs)
        assert solver.iterations == 0
        ref = g.mean_center(np.concatenate([[0.0], _SparseSolver(k[1:, 1:]).solve(rhs[1:])]))
        assert np.linalg.norm(u - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("case", ["checkerboard", "off-diagonal", "3-d neumann",
                                      "periodic laminate"])
    def test_k_that_does_not_separate_keeps_krylov(self, case):
        from homlab import elliptic

        flavor = {"3-d neumann": "neumann", "periodic laminate": "periodic"}.get(case, "dirichlet")
        cells, hi = _BOXES[3 if case == "3-d neumann" else 2]
        dom = GridDomain.box(cells, hi=hi)
        g = build_grad(dom, flavor)
        if case == "checkerboard":
            a = _checkerboard(dom)
        elif case == "off-diagonal":
            a = CoefficientField.constant(dom, np.array([[2.0, 0.5], [0.5, 1.0]]))
        else:
            a = _laminate(dom, "real")
        k = galerkin_matrix(g, a)
        assert elliptic._TransformInverse.exact(g, k) is None
        solver = elliptic._GridSolver(g, k)
        # the inverse of K_1 read off a small grid, the same as the cached one
        unit = elliptic.stiffness_solver(dom, flavor).prec
        assert solver.prec is not unit and solver.prec._axis is None
        assert np.array_equal(solver.prec._lam, unit._lam)
        solver.solve(_compatible_load(g))
        assert solver.iterations > 0

    def test_a_krylov_column_is_checked_against_its_own_residual(self, monkeypatch):
        # a CG that returns its start x0 = prec(F) with info = 0: the check
        # of the returned solution, not CG's own report, decides
        from homlab import elliptic

        monkeypatch.setattr(elliptic.spla, "cg", lambda k, rhs, x0=None, **kw: (x0, 0))
        cells, hi = _BOXES[2]
        dom = GridDomain.box(cells, hi=hi)
        g = build_grad(dom)
        solver = elliptic._GridSolver(g, galerkin_matrix(g, _checkerboard(dom)))
        rhs = _compatible_load(g)
        with pytest.raises(SolverDiverged, match=r"^solve residual .* misses 1\.0e-10$"):
            solver.solve(rhs)
        block = np.stack([rhs, 2.0 * rhs], axis=1)
        with pytest.raises(SolverDiverged, match=r"misses 1\.0e-10 in column 0$"):
            solver.solve(block)

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_coupling_across_the_grid_edge_does_not_separate(self, d):
        # a laminate along the last-but-one axis plus a coupling that wraps
        # that axis: its flat index step is a neighbour's, but the
        # neighbour is off the grid
        from homlab import elliptic

        cells, hi = _BOXES[d]
        dom = GridDomain.box(cells, hi=hi)
        g = build_grad(dom)
        axis = d - 2
        k = galerkin_matrix(g, _laminate(dom, "real", axis))
        nodes = np.arange(k.shape[0]).reshape(g.node_shape)
        first = np.take(nodes, 0, axis=axis).ravel()
        last = np.take(nodes, -1, axis=axis).ravel()
        wrap = sp.csc_matrix((np.full(len(first), -0.1), (first, last)), shape=k.shape)
        assert elliptic._TransformInverse.exact(g, k) is not None
        assert elliptic._TransformInverse.exact(g, (k + wrap + wrap.T).tocsc()) is None

    @pytest.mark.parametrize("flavor, d", [("dirichlet", 2), ("dirichlet", 3), ("neumann", 2)])
    def test_matches_the_sparse_lu_solve(self, flavor, d):
        from homlab import elliptic
        from homlab.hilbert import _SparseSolver

        cells, hi = _BOXES[d]
        dom = GridDomain.box(cells, hi=hi)
        g = build_grad(dom, flavor)
        a = CoefficientSequence.laminate(_two_phase_profile, bounds=(1.0, 4.0)).field(2, dom)
        k = galerkin_matrix(g, a)
        rhs = np.stack([_compatible_load(g, seed) for seed in range(3)], axis=1)
        u = elliptic._GridSolver(g, k).solve(rhs)
        if flavor == "dirichlet":
            ref = _SparseSolver(k).solve(rhs)
        else:
            ref = g.mean_center(np.concatenate([np.zeros((1, 3)),
                                                _SparseSolver(k[1:, 1:]).solve(rhs[1:])]))
        assert np.linalg.norm(u - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_a_singular_mode_system_is_not_in_m(self):
        # a vanishes on the first two cell columns, so the first interior
        # node column has zero rows and every mode's system a zero column
        from homlab.errors import NotInM
        from homlab.homogenize import g0_decomposition
        from homlab.schur import schur_maps

        dom = GridDomain.box((8, 6))
        grad = build_grad(dom)
        a = CoefficientField.from_function(dom, lambda p: np.where(p[:, 0] < 0.25, 0.0, 1.0),
                                           check=False)
        with pytest.raises(NotInM, match="mode system"):
            schur_maps(a.operator(grad), g0_decomposition(grad))

    def test_laminate_runs_need_no_sparse_lu_and_no_cg(self, monkeypatch, band_lu_calls):
        from homlab import elliptic
        from homlab.homogenize import (
            CoefficientSequence,
            MeshRule,
            hconvergence_experiment,
            schur_equiv_check,
        )

        def refuse(*args, **kwargs):
            raise AssertionError("CG on a 2-d Dirichlet laminate")

        monkeypatch.setattr(scipy.sparse.linalg, "cg", refuse)
        seq = CoefficientSequence.laminate(_two_phase_profile, bounds=(1.0, 4.0))
        candidate = np.diag([1.6, 2.5])
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
        dom = GridDomain.box((16, 24), hi=(1.0, 1.5))
        u, _ = solve_elliptic(dom, seq.field(2, dom), f)
        assert np.isfinite(u).all()
        rep = hconvergence_experiment(seq, f, candidate, [1, 2], MeshRule(8), dim=2)
        assert rep.values("err_flux")[-1] < rep.values("err_flux")[0]
        rep = schur_equiv_check(seq, [1, 2], candidate, MeshRule(8), dim=2)
        assert rep.values("gap_m00inv")[-1] < rep.values("gap_m00inv")[0]
        assert band_lu_calls == []


def _product_galerkin(grad, a):
    """G^H W M_a G through sparse products: the assembly that
    ``galerkin_matrix`` replaces, kept as its reference."""
    w = sp.diags(grad.vector_space.weight)
    return (grad.matrix.conj().T @ (w @ (a.operator(grad).matrix @ grad.matrix))).tocsc()


def _random_coefficient(dom, seed, field):
    """A cell-varying full d x d coefficient, non-symmetric, real or complex."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((dom.n_cells, dom.dim, dom.dim))
    if field == "complex":
        vals = vals + 1j * rng.standard_normal(vals.shape)
    return CoefficientField(dom, vals, check=False)


def _assert_same_assembly(k, ref):
    ref.sort_indices()
    assert k.format == "csc" and k.has_canonical_format
    assert np.all(k.data != 0)
    np.testing.assert_array_equal(k.indptr, ref.indptr)
    np.testing.assert_array_equal(k.indices, ref.indices)
    assert np.abs(k.data - ref.data).max(initial=0.0) <= 1e-13 * np.abs(ref.data).max(initial=0.0)


class TestAssembly:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(grid=kuhn_grids(), seed=st.integers(0, 2**32 - 1),
           field=st.sampled_from(["real", "complex"]))
    def test_matches_the_sparse_product(self, grid, seed, field):
        dom, flavor = grid
        g = DiscreteGradient(dom, flavor)
        a = _random_coefficient(dom, seed, field)
        _assert_same_assembly(galerkin_matrix(g, a), _product_galerkin(g, a))

    @pytest.mark.parametrize("cells", [(1,), (2,), (1, 5), (2, 3), (2, 2), (2, 1, 3), (1, 2, 4)])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_periodic_axes_of_one_and_two_cells(self, cells, field):
        dom = GridDomain.box(cells, hi=[0.3 + 0.45 * a for a in range(len(cells))])
        g = DiscreteGradient(dom, "periodic")
        for kind in ("full", "diagonal"):
            a = _random_coefficient(dom, 11, field)
            if kind == "diagonal":
                a = CoefficientField(dom, a.values * np.eye(dom.dim), check=False)
            _assert_same_assembly(galerkin_matrix(g, a), _product_galerkin(g, a))

    def test_dyadic_1d_grid_matches_bitwise(self):
        dom = GridDomain.interval(0.0, 1.0, 256)
        g = build_grad(dom)
        a = CoefficientField.from_function(dom, two_phase(), bounds=(1.0, 4.0))
        k, ref = galerkin_matrix(g, a), _product_galerkin(g, a)
        ref.sort_indices()
        np.testing.assert_array_equal(k.indices, ref.indices)
        np.testing.assert_array_equal(k.data, ref.data)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(grid=kuhn_grids(), seed=st.integers(0, 2**32 - 1),
           field=st.sampled_from(["real", "complex"]), complex_v=st.booleans())
    def test_apply_matches_the_gathered_blocks(self, grid, seed, field, complex_v):
        # a v with the cell values broadcast over the simplex types against
        # the (n_elem, d, d) gather through elem_cell
        dom, flavor = grid
        g = DiscreteGradient(dom, flavor)
        a = _random_coefficient(dom, seed, field)
        v = np.random.default_rng(seed).standard_normal(g.n_elem * dom.dim)
        v = v * (1 + 1j) if complex_v else v
        ref = np.einsum("eij,ej->ei", a.values[g.elem_cell], g.field_as_elements(v)).ravel()
        new = a.apply(g, v)
        assert new.shape == ref.shape and new.dtype == ref.dtype
        assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_24_cubed_peak_is_a_few_matrices(self, flavor):
        # all 4^d local blocks at once took the peak to 8.0 to 9.5 times
        # the bytes of K, and a transposed copy of the slots to 4.9 to 5.1
        import tracemalloc

        dom = GridDomain.box((24, 24, 24))
        g = DiscreteGradient(dom, flavor)
        g._stiffness_layout    # built once per grid, outside the pin
        a = CoefficientField(dom, np.random.default_rng(4).uniform(1.0, 4.0, dom.n_cells))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            k = galerkin_matrix(g, a)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        size = k.data.nbytes + k.indices.nbytes + k.indptr.nbytes
        assert peak <= 4.5 * size, f"peak {peak / size:.2f} times the bytes of K"

    def test_2d_unit_stiffness_is_five_point(self):
        dom = GridDomain.box((9, 7), hi=(1.0, 0.6))
        for flavor in FLAVORS:
            k = galerkin_matrix(build_grad(dom, flavor), CoefficientField.constant(dom, 1.0))
            assert np.diff(k.indptr).max() == 5


def _old_rows_csr(cols, values, n):
    """The COO-style build the gradient grid used: every slot stored, the
    eliminated ones as zeros that are then dropped. The reference the
    compressed build is pinned against."""
    width = cols.shape[-1]
    keep = cols >= 0
    mat = sp.csr_matrix((np.where(keep, values, 0.0).ravel(), np.maximum(cols, 0).ravel(),
                         np.arange(0, cols.size + 1, width)), shape=(cols.size // width, n))
    mat.eliminate_zeros()
    mat.sum_duplicates()
    return mat


def _old_grid_arrays(g):
    """(matrix, vertex_mean, scalar weight) of a gradient grid through
    :func:`_old_rows_csr`, from int64 corner ids built with full meshgrids."""
    from homlab.elliptic import _corners, _kuhn_paths

    d, cells, n_cell = g.d, g.domain.cells, g.domain.n_cells
    ids = []
    for mask in range(2**d):
        per_axis = np.meshgrid(*(m[mask >> b & 1] for b, m in enumerate(g._node_maps())),
                               indexing="ij")
        flat = np.ravel_multi_index(per_axis, g.node_shape, mode="wrap")
        ids.append(np.where(np.min(per_axis, axis=0) >= 0, flat, -1).ravel())
    paths = _kuhn_paths(d)
    cols = np.empty((len(paths), n_cell, d, 2), dtype=np.int64)
    for t, sigma in enumerate(paths):
        corners = _corners(sigma)
        for k, a in enumerate(sigma):
            cols[t, :, a, 0], cols[t, :, a, 1] = ids[corners[k]], ids[corners[k + 1]]
    if g.flavor == "periodic":
        cols[:, :, np.array(cells) == 1] = -1
    n = g.scalar_space.dim
    matrix = _old_rows_csr(cols, np.array([[-1.0 / h, 1.0 / h] for h in g.domain.spacing]), n)
    mean = _old_rows_csr(np.stack([np.stack([ids[c] for c in _corners(sigma)], axis=-1)
                                   for sigma in paths]), 1.0 / (d + 1), n)
    shares = [math.factorial(j) * math.factorial(d - j) for j in map(int.bit_count, range(2**d))]
    weight = g.elem_measure[0] / (d + 1) * np.bincount(
        np.concatenate(ids) + 1, np.repeat(shares, n_cell), minlength=n + 1)[1:]
    return matrix, mean, weight


_GRID_CASES = [(flavor, cells) for flavor in FLAVORS
               for cells in [(5,), (1,), (2,), (4, 3), (1, 3), (2, 2), (3, 1), (3, 2, 4),
                             (1, 2, 3), (2, 2, 2), (4, 3, 3)]
               if flavor != "dirichlet" or 1 not in cells]


class TestGridArrays:
    @pytest.mark.parametrize("flavor, cells", _GRID_CASES)
    def test_gradient_and_vertex_mean_match_the_coo_build(self, flavor, cells):
        g = DiscreteGradient(GridDomain.box(cells, hi=[0.7 + 0.4 * a for a in range(len(cells))]),
                             flavor)
        matrix, mean, weight = _old_grid_arrays(g)
        for new, ref in ((g.matrix, matrix), (g.vertex_mean, mean)):
            assert new.indices.dtype == np.int32
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(new, name), getattr(ref, name)), name
        assert g.scalar_space.weight.tobytes() == weight.tobytes()

    def test_256_squared_gradient_build_peak(self):
        # int64 columns, full-size corner grids and a COO-style input of
        # every slot took this to 20.5 MB
        import tracemalloc

        dom = GridDomain.box((256, 256))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            DiscreteGradient(dom, "periodic")
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 14e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("chunk", [1, 7, None])
    @pytest.mark.parametrize("flavor, cells", _GRID_CASES)
    def test_galerkin_compression_matches_the_transposed_copy(self, flavor, cells, chunk,
                                                              monkeypatch):
        from homlab import elliptic

        dom = GridDomain.box(cells, hi=[0.7 + 0.4 * a for a in range(len(cells))])
        g = DiscreteGradient(dom, flavor)
        a = _random_coefficient(dom, 2, "complex")
        # the compression the chunks replace: a C-contiguous transposed copy
        # of the slots and the flat index of every kept slot
        cols = g._stiffness_layout.cols
        slots = np.ascontiguousarray(elliptic._slot_sums(g, a).T)
        keep = (cols >= 0) & (slots != 0)
        flat = np.flatnonzero(keep)
        ref = sp.csc_matrix((slots.ravel()[flat], cols.ravel()[flat],
                             np.r_[0, np.cumsum(keep.sum(axis=1))]), shape=(len(cols),) * 2)
        if g._stiffness_layout.merge:
            ref.sum_duplicates()
            ref.eliminate_zeros()
        if chunk is not None:
            monkeypatch.setattr(elliptic, "_CHUNK_ENTRIES", chunk)
        k = galerkin_matrix(g, a)
        for name in ("indptr", "indices", "data"):
            assert getattr(k, name).tobytes() == getattr(ref, name).astype(
                getattr(k, name).dtype).tobytes(), name


def _old_stencil(grad, k):
    """The entry-by-entry placement of K's rows into the stencil slots, with
    three index arrays of K's length: the reference the chunked placement is
    pinned against."""
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
    lookup = np.full(2 * reach + 1, -1, dtype=k.indices.dtype)
    lookup[steps + reach] = np.arange(len(steps))
    n = k.shape[0]
    major = np.repeat(np.arange(n, dtype=k.indices.dtype), np.diff(k.indptr))
    rows, cols = (major, k.indices) if k.format == "csr" else (k.indices, major)
    step = cols - rows
    step += reach
    if step.min(initial=0) < 0 or step.max(initial=0) > 2 * reach:
        return None
    slot = lookup[step]
    if slot.min(initial=0) < 0:
        return None
    out = np.zeros(len(steps) * n, dtype=k.dtype)
    out[slot * n + rows] = k.data
    return out.reshape((3,) * d + shape)


def _same_stencil(new, ref):
    return (new is None) == (ref is None) and (
        ref is None or new.shape == ref.shape and new.dtype == ref.dtype
        and new.tobytes() == ref.tobytes())


class TestStencil:
    @pytest.mark.parametrize("chunk", [1, 7, None])
    @pytest.mark.parametrize("flavor, cells", _GRID_CASES + [
        (flavor, cells) for flavor in FLAVORS for cells in [(9, 12), (5, 6, 7)]])
    def test_matches_the_entry_placement(self, flavor, cells, chunk, monkeypatch):
        from homlab import elliptic

        if chunk is not None:
            monkeypatch.setattr(elliptic, "_CHUNK_ENTRIES", chunk)
        dom = GridDomain.box(cells, hi=[0.7 + 0.4 * a for a in range(len(cells))])
        g = DiscreteGradient(dom, flavor)
        for field in ("real", "complex"):
            k = galerkin_matrix(g, _random_coefficient(dom, 8, field))
            for m in (k, k.tocsr(), k.tocoo()):
                assert _same_stencil(elliptic._stencil(g, m), _old_stencil(g, m))

    @pytest.mark.parametrize("chunk", [1, None])
    def test_refuses_what_the_entry_placement_refuses(self, chunk, monkeypatch):
        from homlab import elliptic

        if chunk is not None:
            monkeypatch.setattr(elliptic, "_CHUNK_ENTRIES", chunk)
        dom = GridDomain.box((6, 7))
        g = build_grad(dom)
        k = galerkin_matrix(g, _laminate(dom, "real"))
        n = k.shape[0]

        def stored(value, row, col):    # K plus one stored entry, zero or not
            coo = k.tocoo()
            return sp.csc_matrix((np.r_[coo.data, value], (np.r_[coo.row, row],
                                                           np.r_[coo.col, col])), k.shape)

        off_the_steps = [stored(-0.1, 0, n - 1), stored(0.0, 0, n - 1), stored(0.0, n - 1, 0)]
        for m in off_the_steps:
            assert m.nnz == k.nnz + 1
            assert elliptic._stencil(g, m) is None and _old_stencil(g, m) is None
        # a stored zero on a step is placed like any other entry
        on_a_step = stored(0.0, 0, 7)    # the diagonal neighbour, absent from K
        assert _same_stencil(elliptic._stencil(g, on_a_step), _old_stencil(g, on_a_step))
        assert elliptic._stencil(g, on_a_step) is not None
        # a second axis of at most 2 nodes: the steps are not distinct
        thin = build_grad(GridDomain.box((6, 3)))
        k_thin = galerkin_matrix(thin, CoefficientField.constant(thin.domain, 1.0))
        assert elliptic._stencil(thin, k_thin) is None and _old_stencil(thin, k_thin) is None

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_mode_factors_reject_a_nan(self, kind):
        from homlab import elliptic

        cells, hi = _BOXES[2]
        dom = GridDomain.box(cells, hi=hi)
        g = build_grad(dom)
        stencil = elliptic._stencil(g, galerkin_matrix(g, _laminate(dom, kind)))
        assert elliptic._mode_factors(g, stencil, 0) is not None
        # in a slot the factors are read off, and in one only the rebuild checks
        for where in [(1, 1, 0, 0), (2, 0, 5, 7)]:
            bad = stencil.copy()
            bad[where] = np.nan
            for axis in (None, 0, 1):
                assert elliptic._mode_factors(g, bad, axis) is None


def _old_is_hermitian(k):
    return bool(abs(k - k.conj().T).max() <= 1e-12 * abs(k).max())


class TestHermitianDecision:
    @pytest.mark.parametrize("chunk", [3, None])
    def test_matches_the_difference_formula(self, chunk, monkeypatch):
        from homlab import elliptic

        if chunk is not None:    # the occupied diagonals found a few entries at a time
            monkeypatch.setattr(elliptic, "_CHUNK_ENTRIES", chunk)

        dom = GridDomain.box((5, 6), hi=(1.0, 1.3))
        cases = []
        for flavor in FLAVORS:
            g = build_grad(dom, flavor)
            cases += [galerkin_matrix(g, _grid_coefficient(dom, kind))
                      for kind in ("sym", "nonsym", "complex")]
        sym = cases[0]
        rng = np.random.default_rng(4)
        # skew parts just inside and just outside the tolerance, off and on
        # the pattern of K
        tiny, small = (sp.csc_matrix(([scale * abs(sym).max()], ([3], [7])), shape=sym.shape)
                       for scale in (0.5e-12, 2e-12))
        bumped = []
        for scale in (0.5e-12, 2e-12):
            k = sym.copy()
            k.data[k.indices != np.repeat(np.arange(k.shape[1]), np.diff(k.indptr))] \
                *= 1 + scale * rng.choice([-1.0, 1.0], k.nnz - k.shape[1])
            bumped.append(k)
        assert _old_is_hermitian(sym + tiny) and not _old_is_hermitian(sym + small)
        assert _old_is_hermitian(bumped[0]) and not _old_is_hermitian(bumped[1])
        dense = rng.standard_normal((6, 6))
        herm = dense + dense.T + 1j * (dense - dense.T)
        coo = sp.coo_matrix(herm)
        doubled = sp.coo_matrix((np.r_[coo.data, coo.data], (np.r_[coo.row, coo.row],
                                                             np.r_[coo.col, coo.col])), (6, 6))
        # lines 3 to 28 are empty, whole chunks of them at chunk 3
        far = sp.lil_matrix((30, 30))
        far[np.ix_(np.r_[0:3, 29], np.r_[0:3, 29])] = dense[:4, :4] + dense[:4, :4].T
        skewed = far.copy()
        skewed[0, 29] += 1.0
        far, skewed = far.tocsr(), skewed.tocsr()
        assert _old_is_hermitian(far) and not _old_is_hermitian(skewed)
        cases += [sym + tiny, sym + small, (sym + small).tocsr(), *bumped, sp.csc_matrix(herm),
                  sp.csc_matrix(np.triu(dense)), doubled.tocsc(), sp.csc_matrix((4, 4)),
                  sp.csr_matrix(([1.0], ([0], [3])), shape=(4, 4)),    # its partner line is empty
                  far, skewed]
        for k in cases:
            assert elliptic._is_hermitian(k) is _old_is_hermitian(k)

    @pytest.mark.parametrize("lower, hermitian", [(3.0, True), (2.5, False)])
    def test_duplicate_entries_add_up(self, lower, hermitian):
        from homlab import elliptic

        # K[0, 1] is stored as 1 + 2, against K[1, 0] = lower
        k = sp.csr_matrix((np.array([1.0, 1.0, 2.0, lower, 1.0]), np.array([0, 1, 1, 0, 1]),
                           np.array([0, 3, 5])), shape=(2, 2))
        assert not k.has_canonical_format
        assert elliptic._is_hermitian(k) is hermitian is _old_is_hermitian(k)

    @pytest.mark.parametrize("kind, method", [("sym", "cg"), ("nonsym", "gmres"),
                                              ("complex", "gmres")])
    def test_krylov_method_follows_the_decision(self, monkeypatch, kind, method):
        from homlab import elliptic

        called = []
        for name in ("cg", "gmres"):
            def record(*args, _name=name, _original=getattr(elliptic.spla, name), **kwargs):
                called.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(elliptic.spla, name, record)
        dom = GridDomain.box((7, 6))
        g = build_grad(dom, "periodic")
        elliptic._GridSolver(g, galerkin_matrix(g, _grid_coefficient(dom, kind))).solve(
            _compatible_load(g))
        assert called and set(called) == {method}

    def test_32_cubed_periodic_checkerboard_peak(self):
        # one table row per occupied distance at once took the peak to 3.58 MB
        import tracemalloc

        from homlab import elliptic

        dom = GridDomain.box((32, 32, 32))
        cb = lambda pts: np.where(np.floor(2 * pts).sum(axis=1) % 2 == 0, 1.0, 10.0)
        k = galerkin_matrix(build_grad(dom, "periodic"), CoefficientField.from_function(dom, cb))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            hermitian = elliptic._is_hermitian(k)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert hermitian is _old_is_hermitian(k) is True
        assert peak <= 1.5e6, f"peak {peak / 1e6:.2f} MB"


class TestUnitInverseFromASmallGrid:
    """The preconditioner of a grid solve reads K_1 off a grid of at most 4
    cells per axis, and its eigenvalues are those of the full-size K_1 bit
    for bit; 1.0 / c cells give a spacing h with 3 h / 3 != h at c = 5, 10,
    11 and 17, which 4 cells on 4 h keep."""

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("cells", [(1,), (2,), (3,), (17,), (1, 5), (2, 3), (3, 10),
                                       (11, 4), (1, 2, 3), (3, 1, 2), (5, 2, 10), (6, 5, 3)])
    def test_eigenvalues_equal_those_of_the_full_unit_stiffness(self, flavor, cells):
        from homlab import elliptic

        if flavor == "dirichlet":   # a Dirichlet axis of one cell has no interior node
            cells = tuple(max(c, 2) for c in cells)
        dom = GridDomain.box(cells, lo=(0.1,) * len(cells), hi=(1.1, 1.0, 1.7)[:len(cells)])
        g = DiscreteGradient(dom, flavor)
        k1 = galerkin_matrix(g, CoefficientField.constant(dom, 1.0))
        col = k1[:, [0]].toarray().reshape(g.node_shape)
        if flavor == "periodic":
            lam = np.fft.fftn(col).real
            lam[(0,) * dom.dim] = np.inf
        else:
            lam = elliptic._TransformInverse(g, k1)._lam
        np.testing.assert_array_equal(elliptic._unit_column(g), col)
        assert np.array_equal(elliptic._TransformInverse(g)._lam, lam)

    def test_grid_solve_builds_no_full_size_unit_stiffness(self, monkeypatch):
        from homlab import elliptic

        built = []
        real = elliptic.galerkin_matrix

        def recording(grad, a):
            built.append(grad.domain.cells)
            return real(grad, a)

        monkeypatch.setattr(elliptic, "galerkin_matrix", recording)
        for flavor in FLAVORS:
            dom = GridDomain.box((9, 12))
            solver = elliptic._GridSolver(build_grad(dom, flavor), real(build_grad(dom, flavor),
                                                                        _checkerboard(dom)))
            assert solver.prec._axis is None
        assert built == [(4, 4)] * 3


class TestPeriodicTransform:
    @pytest.mark.parametrize("cells", [(6, 7), (7, 6), (2, 5), (5, 4, 3), (4, 3, 6)])
    def test_matches_the_complex_fft_application(self, cells):
        import scipy.fft

        from homlab import elliptic

        dom = GridDomain.box(cells, hi=(1.0, 1.3, 0.7)[:len(cells)])
        g = build_grad(dom, "periodic")
        k1 = galerkin_matrix(g, CoefficientField.constant(dom, 1.0))
        inverse = elliptic._TransformInverse(g, k1)
        axes, shape = tuple(range(dom.dim)), g.node_shape
        lam = scipy.fft.fftn(k1[:, [0]].toarray().reshape(shape)).real
        lam[(0,) * dom.dim] = np.inf

        def c2c(r):
            extra = (..., None) if r.ndim == 2 else ...
            u = scipy.fft.ifftn(scipy.fft.fftn(r.reshape(shape + r.shape[1:]), axes=axes)
                                / lam[extra], axes=axes)
            return (u if np.iscomplexobj(r) else u.real).reshape(r.shape)

        rng = np.random.default_rng(8)
        n = k1.shape[0]
        for r in (rng.standard_normal(n), rng.standard_normal((n, 3)),
                  rng.standard_normal(n) + 1j * rng.standard_normal(n),
                  rng.standard_normal((n, 2)) * (1 - 2j)):
            u, ref = inverse(r), c2c(r)
            assert u.shape == r.shape and u.dtype == ref.dtype
            assert np.abs(u - ref).max() <= 1e-14 * np.abs(ref).max()
