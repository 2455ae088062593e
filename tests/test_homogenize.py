"""Tests for oscillation families, effective limits, and the convergence
experiments."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from homlab.elliptic import CoefficientField, GridDomain, RHSFunctional, build_grad, vector_probes
from homlab.errors import (
    CoercivityError,
    HomlabError,
    MeshRuleViolation,
    QuadratureError,
    ShapeError,
    VanishingHarmonicMean,
)
from homlab.homogenize import (
    CoefficientSequence,
    MeshRule,
    ExperimentReport,
    _per_n,
    adjoint_symmetry_check,
    cell_experiment,
    cell_problem,
    cell_verdict,
    g0_decomposition,
    g0_probe_pair,
    hconv_verdict,
    hconvergence_experiment,
    homogenized_tensor,
    laminate_limit,
    log_gap_correlation,
    qdind_check,
    qdind_verdict,
    schur_equiv_check,
    schur_verdict,
)

TWO_PHASE = lambda y: np.where(np.asarray(y) < 0.5, 1.0, 4.0)
SIN_PROFILE = lambda y: 2.0 + np.sin(2 * np.pi * np.asarray(y))


def constant_sequence(value, bounds):
    """The family a_n = value for every n."""
    return CoefficientSequence(
        "constant", lambda n, dom: CoefficientField.constant(dom, value, bounds=bounds), bounds)


def checkerboard(points):
    p = np.atleast_2d(points)
    return np.where(((np.floor(2 * p[:, 0]) + np.floor(2 * p[:, 1])) % 2) == 0, 1.0, 4.0)


class TestLaminateLimit:
    def test_two_phase_means(self):
        a_h, a_m = laminate_limit(TWO_PHASE)
        assert np.isclose(a_h, 1.6, atol=1e-9)
        assert np.isclose(a_m, 2.5, atol=1e-9)

    def test_constant(self):
        a_h, a_m = laminate_limit(lambda y: 3.3 + 0 * np.asarray(y))
        assert np.isclose(a_h, 3.3) and np.isclose(a_m, 3.3)

    def test_sin_profile_quadrature_oracle(self):
        # oracle: direct quadrature of 1/(2 + sin) equals 1/sqrt(3)
        val = scipy.integrate.quad(lambda x: 1.0 / (2.0 + np.sin(2 * np.pi * x)),
                                   0, 1, epsabs=1e-12)[0]
        assert np.isclose(val, 1.0 / np.sqrt(3.0), atol=1e-10)
        a_h, a_m = laminate_limit(SIN_PROFILE)
        assert np.isclose(a_h, np.sqrt(3.0), atol=1e-9)
        assert np.isclose(a_m, 2.0, atol=1e-9)

    def test_modulated_profile_closed_form(self):
        # a slowly modulated profile(x, y) has, at each slow position x, the
        # laminate limit of y -> profile(x, y); oracle: the fast average of
        # 1/(c + a sin) is 1/sqrt(c^2 - a^2)
        profile = lambda x, y: (2.0 + x) + 0.8 * np.sin(2 * np.pi * np.asarray(y))
        for x in (0.0, 0.3, 0.9):
            a_h, a_m = laminate_limit(lambda y: profile(x, y))
            assert abs(a_h - np.sqrt((2.0 + x) ** 2 - 0.64)) <= 1e-9
            assert abs(a_m - (2.0 + x)) <= 1e-9

    def test_mean_inequality(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c0, c1 = rng.uniform(0.5, 4.0, size=2)
            k = int(rng.integers(1, 4))
            prof = lambda y: c0 + c1 * 0.2 * np.sin(2 * np.pi * k * np.asarray(y)) ** 2
            a_h, a_m = laminate_limit(prof)
            assert a_h <= a_m + 1e-12
        a_h, a_m = laminate_limit(lambda y: 2.0 + 0 * np.asarray(y))
        assert abs(a_h - a_m) < 1e-12


def quad_means(profile, cut=None):
    """Oracle harmonic and arithmetic means by scipy's quad, split at a jump
    and run on the real and imaginary parts apart."""
    prof = np.vectorize(profile)

    def mean(fn):
        parts = [scipy.integrate.quad(lambda y: part(fn(y)), 0.0, 1.0, epsabs=1e-15,
                                      epsrel=1e-13, limit=200,
                                      points=None if cut is None else [cut])[0]
                 for part in (np.real, np.imag)]
        return complex(*parts)

    return 1.0 / mean(lambda y: 1.0 / prof(y)), mean(prof)


def two_phase_at(cut):
    return lambda y: np.where(np.asarray(y) < cut, 1.0, 4.0)


def shifted_sin(a, k):
    return lambda y: 2.0 + a * np.sin(2 * np.pi * k * np.asarray(y))


class TestLaminateQuadratureOracle:
    """laminate_limit against quad: 1e-10 relative, and 1e-14 where the
    Gauss rule is exact (a jump on a dyadic split point) or converges fast
    (smooth profiles)."""

    @pytest.mark.parametrize("profile, cut, rtol", [
        (two_phase_at(0.5), 0.5, 1e-14),
        (two_phase_at(0.3), 0.3, 1e-10),
        (two_phase_at(1 / 3), 1 / 3, 1e-10),
        *((shifted_sin(a, k), None, 1e-14) for k in (1, 2, 3) for a in (1.9, 1.99)),
        (lambda y: 2.0 + 0.5 * np.cos(2 * np.pi * np.asarray(y))
         + 1j * np.sin(2 * np.pi * np.asarray(y)), None, 1e-10),
        (lambda y: 1.0 + np.sqrt(y), None, 1e-10),
        (lambda y: 2.0 + math.sin(2 * math.pi * y), None, 1e-14),
    ])
    def test_matches_quad(self, profile, cut, rtol):
        got = laminate_limit(profile)
        for value, ref in zip(got, quad_means(profile, cut)):
            assert abs(value - ref) <= rtol * abs(ref), (value, ref)

    def test_return_types(self):
        assert all(type(v) is float for v in laminate_limit(shifted_sin(1.0, 1)))
        complex_profile = lambda y: 2.0 + 1j * (1.0 + np.sin(2 * np.pi * np.asarray(y)))
        assert all(type(v) is complex for v in laminate_limit(complex_profile))

    def test_profile_on_half_open_period(self):
        # laminates evaluate profiles at (n x) mod 1, so y = 1 is never needed
        a_h, a_m = laminate_limit(lambda y: (1.0, 2.0, 3.0, 4.0)[int(4 * y)])
        assert abs(a_h - 48 / 25) <= 1e-14 * 48 / 25 and abs(a_m - 2.5) <= 1e-14 * 2.5

    def test_jump_anywhere_meets_tolerance(self):
        # a jump next to a split point hides from Gauss rules alone; quad
        # missed about a fifth of random cuts by more than 1e-10 relative
        for cut in np.random.default_rng(3).uniform(0.0, 1.0, 40):
            a_h, a_m = laminate_limit(two_phase_at(cut))
            inv, mean = cut + (1 - cut) / 4, cut + 4 * (1 - cut)
            assert abs(1 / a_h - inv) <= 1e-10 * max(1.0, inv), cut
            assert abs(a_m - mean) <= 1e-10 * max(1.0, mean), cut

    @pytest.mark.parametrize("profile", [
        lambda y: np.nan * np.asarray(y),
        lambda y: 1.0 / np.asarray(y),
        lambda y: 2.0 + np.sin(2e5 * np.pi * np.asarray(y)),
    ], ids=["nan", "not-integrable", "unresolved"])
    def test_failure_raises(self, profile):
        with pytest.raises(HomlabError):
            laminate_limit(profile)

    def test_zero_phase_raises_without_a_warning(self):
        # 1/a is infinite on the zero phase: the finiteness check names it,
        # never a numpy warning on the way there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError):
                laminate_limit(lambda y: np.where(np.asarray(y) < 0.5, 0.0, 1.0))

    def test_vanishing_harmonic_mean_raises(self):
        # 1/a integrates to 0 over a -2/2 two-phase period
        sign_change = lambda y: np.where(np.asarray(y) < 0.5, -2.0, 2.0)
        with pytest.raises(VanishingHarmonicMean):
            laminate_limit(sign_change)


class TestCellProblem:
    def test_constant_coefficient_trivial_corrector(self):
        dom = GridDomain.box((8, 8))
        a = CoefficientField.constant(dom, np.array([[2.0, 0.3], [0.3, 1.5]]),
                                      bounds=(1.0, 3.0))
        v, w = cell_problem(a, np.array([1.0, 0.0]))
        assert np.abs(w).max() < 1e-12
        g = build_grad(dom, "periodic")
        np.testing.assert_allclose(g.field_as_elements(v)[:, 0], 1.0, atol=1e-12)

    def test_laminate_corrector_matches_1d_closed_form(self):
        # 1-d oracle: for a laminate the corrected field is a_h / a(x1) in the
        # first component and the corrector is independent of x2
        m = 64
        dom = GridDomain.box((m, m))
        a = CoefficientField.from_function(dom, lambda p: TWO_PHASE(p[:, 0] % 1.0),
                                           bounds=(0.5, 5.0))
        v, w = cell_problem(a, np.array([1.0, 0.0]))
        g = build_grad(dom, "periodic")
        ve = g.field_as_elements(v)
        a_h, _ = laminate_limit(TWO_PHASE)
        expected = a_h / TWO_PHASE(g.elem_mid[:, 0] % 1.0)
        np.testing.assert_allclose(ve[:, 0], expected, atol=1e-9)
        np.testing.assert_allclose(ve[:, 1], 0.0, atol=1e-9)
        # corrector potential constant along x2: nodal variance per x1-slice
        w_grid = w.reshape(m, m)
        assert np.abs(w_grid - w_grid[:, :1]).max() < 1e-9

    def test_checkerboard_flux_residual(self):
        dom = GridDomain.box((32, 32))
        a = CoefficientField.from_function(dom, checkerboard, bounds=(0.5, 5.0))
        v, _ = cell_problem(a, np.array([0.0, 1.0]))
        g = build_grad(dom, "periodic")
        flux = a.apply(g, v)
        res = np.linalg.norm(g.matrix.conj().T @ g.vector_space.apply_weight(flux))
        assert res < 1e-9

    def test_wrong_domain_rejected(self):
        dom = GridDomain.box((8,), lo=(0.0,), hi=(2.0,))
        a = CoefficientField.constant(dom, 1.0, bounds=(0.5, 2.0))
        with pytest.raises(ShapeError):
            cell_problem(a, np.array([1.0]))


class TestHomogenizedTensor:
    def test_constant(self):
        dom = GridDomain.box((8, 8))
        mat = np.array([[2.0, 0.4], [0.4, 3.0]])
        a = CoefficientField.constant(dom, mat, bounds=(1.0, 4.0))
        np.testing.assert_allclose(homogenized_tensor(a), mat, atol=1e-12)

    def test_2d_laminate(self):
        dom = GridDomain.box((64, 64))
        a = CoefficientField.from_function(dom, lambda p: TWO_PHASE(p[:, 0] % 1.0),
                                           bounds=(0.5, 5.0))
        a_hom = homogenized_tensor(a)
        np.testing.assert_allclose(a_hom, np.diag([1.6, 2.5]), atol=0.016)

    def test_checkerboard_vs_duality_closed_form(self):
        # closed-form oracle: the symmetric two-phase checkerboard homogenizes
        # to sqrt(alpha beta) times the identity
        dom = GridDomain.box((128, 128))
        a = CoefficientField.from_function(dom, checkerboard, bounds=(0.5, 5.0))
        a_hom = homogenized_tensor(a)
        np.testing.assert_allclose(a_hom, 2.0 * np.eye(2), atol=0.04 * 2.0)

    def test_symmetry_inheritance(self):
        dom = GridDomain.box((16, 16))
        a = CoefficientField.from_function(dom, checkerboard, bounds=(0.5, 5.0))
        a_hom = homogenized_tensor(a)
        assert np.abs(a_hom - a_hom.T).max() < 1e-8

    def test_coercivity_inheritance(self):
        from homlab.hilbert import HilbertSpace, LinearOp, coercivity_check

        dom = GridDomain.box((32, 32))
        a = CoefficientField.from_function(dom, checkerboard, bounds=(1.0, 4.0))
        a_hom = homogenized_tensor(a)
        space = HilbertSpace(2)
        rep = coercivity_check(LinearOp(space, space, matrix=a_hom), 1.0, 4.0, tol=1e-8)
        assert rep.passed

    def test_one_preconditioner_for_all_directions(self, monkeypatch):
        from homlab import elliptic

        built = []

        class Counting(elliptic._TransformInverse):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(elliptic, "_TransformInverse", Counting)
        dom = GridDomain.box((12, 12))
        a = CoefficientField.from_function(dom, checkerboard, bounds=(0.5, 5.0))
        homogenized_tensor(a)
        assert len(built) == 1

    def test_no_full_size_unit_stiffness(self, monkeypatch):
        from homlab import elliptic

        built = []
        real = elliptic.galerkin_matrix

        def recording(grad, a):
            built.append((grad.domain.cells, bool(np.all(a.values == np.eye(grad.d)))))
            return real(grad, a)

        monkeypatch.setattr(elliptic, "galerkin_matrix", recording)
        dom = GridDomain.box((12, 12))
        homogenized_tensor(CoefficientField.from_function(dom, checkerboard, bounds=(0.5, 5.0)))
        # the cell matrix, and K_1 of a 4 x 4 grid for the preconditioner
        assert built == [((12, 12), False), ((4, 4), True)]

    def test_256_squared_traced_memory(self):
        # d tiled copies of xi, a cached full-size unit stiffness, a copy of
        # G^H per product and full-size grid arrays took this to 45.4 MB,
        # and the transposed copy of K in the CG-or-GMRES test to 27.0 MB
        from homlab import elliptic

        dom = GridDomain.box((256, 256))
        a = CoefficientField.from_function(dom, checkerboard, bounds=(0.5, 5.0))
        elliptic.build_grad.cache_clear()
        added = _traced_peak(lambda: homogenized_tensor(a))
        assert added <= 25e6, f"homogenized_tensor adds {added / 1e6:.1f} MB"

    def test_flux_of_each_corrector_is_formed_once(self, monkeypatch):
        # one product for each load and one for each corrector's residual
        # check, whose flux is also the one averaged
        calls = []
        real = CoefficientField.apply

        def counting(self, grad, v):
            calls.append(1)
            return real(self, grad, v)

        monkeypatch.setattr(CoefficientField, "apply", counting)
        dom = GridDomain.box((12, 10))
        a = CoefficientField.from_function(dom, checkerboard, bounds=(0.5, 5.0))
        homogenized_tensor(a)
        assert len(calls) == 2 * 2

    def test_refinement_convergence_smooth_profile(self):
        errs = []
        for m in (16, 32, 64):
            dom = GridDomain.box((m, m))
            a = CoefficientField.from_function(dom, lambda p: SIN_PROFILE(p[:, 0] % 1.0),
                                               bounds=(0.9, 3.1))
            a_hom = homogenized_tensor(a)
            errs.append(abs(a_hom[0, 0] - np.sqrt(3.0)))
        assert errs[0] > errs[-1]
        assert errs[-1] < 1e-3


class TestCoefficientSequence:
    def test_bounds_enforced(self):
        seq = CoefficientSequence.laminate(SIN_PROFILE, bounds=(2.5, 3.0))
        with pytest.raises(CoercivityError):
            seq.field(2, GridDomain.interval(0, 1, 64))

    def test_predicted_limit(self):
        seq = CoefficientSequence.laminate(TWO_PHASE, bounds=(0.5, 5.0))
        np.testing.assert_allclose(seq.predicted_laminate_limit(2),
                                   np.diag([1.6, 2.5]), atol=1e-9)

    def test_periodic_kind(self):
        seq = CoefficientSequence.periodic(checkerboard, bounds=(0.5, 5.0))
        f = seq.field(2, GridDomain.box((16, 16)))
        assert f.values.shape == (256, 2, 2)

    def test_adjoint_sequence(self):
        prof = lambda y: 2.0 + 0.3j + np.sin(2 * np.pi * np.asarray(y))
        seq = CoefficientSequence.laminate(prof, bounds=(0.9, 4.0))
        f = seq.field(2, GridDomain.interval(0, 1, 32))
        fa = seq.adjoint().field(2, GridDomain.interval(0, 1, 32))
        np.testing.assert_allclose(fa.values, f.values.conj().transpose(0, 2, 1))

    def test_every_laminate_samples_one_oscillation(self, monkeypatch):
        # the sequence, divcurl_compliant and the thermo and Maxwell
        # experiments each sample profile(n x_1 mod 1) through _oscillate
        from homlab import elliptic, homogenize, maxwell, thermo
        from homlab.maxwell import maxwell_homogenization_experiment
        from homlab.thermo import thermo_homogenization_experiment

        seen = []
        oscillate = homogenize._oscillate

        def recording(profile, n, x):
            seen.append(profile)
            return oscillate(profile, n, x)

        for module in (homogenize, maxwell, thermo):
            monkeypatch.setattr(module, "_oscillate", recording)
        seq, divcurl, heat, light = ((lambda y, hi=hi: np.where(np.asarray(y) < 0.5, 1.0, hi))
                                     for hi in (2.0, 3.0, 4.0, 5.0))
        CoefficientSequence.laminate(seq, bounds=(0.5, 6.0)).field(2, GridDomain.interval(0, 1, 8))
        elliptic.divcurl_compliant(divcurl, (0.5, 6.0), 4, [1])
        thermo_homogenization_experiment(heat, heat, heat, heat, gamma=0.5, lam=1.0, n_list=[1],
                                         bounds=(0.5, 6.0), mesh_rule=MeshRule(8))
        maxwell_homogenization_experiment(light, light, light, lam=1.0, n_list=[1],
                                          bounds=(0.5, 12.0), transverse_cells=3)
        assert {id(p) for p in seen} == {id(seq), id(divcurl), id(heat), id(light)}
        x = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(oscillate(seq, 3, x), seq((3 * x) % 1.0))


class TestHConvergence:
    def test_constant_sequence_at_solver_tolerance(self):
        seq = constant_sequence(2.0, (1.0, 3.0))
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
        rep = hconvergence_experiment(seq, f, 2.0, [1, 2, 4], mesh_rule=MeshRule(16))
        assert rep.values("err_solution").max() < 1e-9
        assert rep.values("err_flux").max() < 1e-9

    def test_1d_sin_family(self):
        seq = CoefficientSequence.laminate(SIN_PROFILE, bounds=(1.0, 3.0))
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
        rep = hconvergence_experiment(seq, f, np.sqrt(3.0), [1, 2, 4, 8, 16],
                                      mesh_rule=MeshRule(32))
        ok, msg = rep.check_decay(("err_solution", "err_flux"), 0.05)
        assert ok, msg

    def test_wrong_candidate_detected(self):
        # arithmetic mean is NOT the 1-d limit; errors must stall high
        seq = CoefficientSequence.laminate(SIN_PROFILE, bounds=(1.0, 3.0))
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
        rep = hconvergence_experiment(seq, f, 2.0, [4, 8, 16], mesh_rule=MeshRule(32))
        assert rep.final("err_solution") > 0.05

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("HOMLAB_BUDGET", "10000")
        seq = CoefficientSequence.laminate(SIN_PROFILE, bounds=(1.0, 3.0))
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
        with pytest.raises(MeshRuleViolation):
            hconvergence_experiment(seq, f, np.sqrt(3.0), [512], mesh_rule=MeshRule(32))

    def test_neumann_flavor_boundary_condition_independence(self):
        # the same family converges to the same limit under the mean-free
        # natural-boundary problem
        seq = CoefficientSequence.laminate(SIN_PROFILE, bounds=(1.0, 3.0))
        f = RHSFunctional.density(lambda p: np.cos(np.pi * p[:, 0]))
        rep = hconvergence_experiment(seq, f, np.sqrt(3.0), [2, 4, 8, 16],
                                      mesh_rule=MeshRule(32), flavor="neumann")
        ok, msg = rep.check_decay(("err_solution",), 0.05)
        assert ok, msg

    @pytest.mark.parametrize("dim", [1, 2])
    def test_pairs_with_no_dense_probe_block(self, monkeypatch, dim):
        from homlab import elliptic, homogenize

        def refuse(*args, **kwargs):
            raise AssertionError("dense probe block on the H-convergence path")

        for module in (elliptic, homogenize):
            for name in ("scalar_probes", "vector_probes"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        seq = CoefficientSequence.laminate(TWO_PHASE, bounds=(0.5, 5.0))
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
        candidate = 1.6 if dim == 1 else np.diag([1.6, 2.5])
        rep = hconvergence_experiment(seq, f, candidate, [1, 4], MeshRule(8), dim=dim)
        for col in ("err_solution", "err_flux"):
            assert rep.values(col)[-1] < rep.values(col)[0]

    def test_2d_peak_memory(self):
        # the dense (dim, k) probe blocks took this peak to 89.8 MB, and
        # three index arrays of K's length in the candidate solve's stencil
        # to 32.7 MB
        import tracemalloc

        import scipy.fft  # noqa: F401  (the grid solver's first import)

        from homlab import elliptic

        elliptic.build_grad.cache_clear()
        seq = CoefficientSequence.laminate(TWO_PHASE, bounds=(0.5, 5.0))
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
        tracemalloc.start()
        try:
            hconvergence_experiment(seq, f, np.diag([1.6, 2.5]), [16], MeshRule(16), dim=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"

    def test_no_grid_outlives_the_next_one(self):
        # with 32 cached grids the 256^2 grid of the last n stayed live
        # through the Schur check, whose traced peak then reached 43.1 MB
        import gc
        import tracemalloc
        import weakref

        import scipy.fft  # noqa: F401  (the grid solver's first import)

        from homlab import elliptic

        elliptic.build_grad.cache_clear()
        seq = CoefficientSequence.laminate(TWO_PHASE, bounds=(0.5, 5.0))
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
        candidate = np.diag([1.6, 2.5])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            hconvergence_experiment(seq, f, candidate, [1, 2, 4, 8, 16], MeshRule(16), dim=2)
            assert elliptic.build_grad.cache_info().currsize <= 1
            last = weakref.ref(build_grad(GridDomain.box((256, 256)), "dirichlet"))
            schur_equiv_check(seq, [1, 2, 4, 8], candidate, MeshRule(16), dim=2)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        gc.collect()
        assert last() is None
        assert elliptic.build_grad.cache_info().currsize <= 1
        assert peak <= 34e6, f"peak {peak / 1e6:.1f} MB"


class TestQdind:
    def test_constant_all_zero(self):
        seq = constant_sequence(2.0, (1.0, 3.0))
        rep = qdind_check(seq, [1, 2, 4], candidate=2.0, mesh_rule=MeshRule(16))
        for col in ("gap_inverse", "gap_projected", "gap_flux"):
            assert rep.values(col).max() < 1e-12

    def test_sin_family_joint_decay(self):
        seq = CoefficientSequence.laminate(SIN_PROFILE, bounds=(1.0, 3.0))
        rep = qdind_check(seq, [2, 4, 8, 16, 32], mesh_rule=MeshRule(32))
        for col in ("gap_inverse", "gap_projected", "gap_flux"):
            v = rep.values(col)
            assert v[-1] < v[0]
        assert log_gap_correlation(rep, "gap_inverse", "gap_projected") > 0.9

    def test_alternating_blocks_harmonic_limit(self):
        prof = TWO_PHASE
        seq = CoefficientSequence.laminate(prof, bounds=(0.5, 5.0))
        rep = qdind_check(seq, [2, 4, 8, 16], candidate=1.6, mesh_rule=MeshRule(32))
        assert rep.final("gap_inverse") < 5e-3
        assert rep.decreasing("gap_inverse")


class TestSchurEquiv:
    def test_constant_trivial(self):
        seq = constant_sequence(2.0, (1.0, 3.0))
        rep = schur_equiv_check(seq, [1, 2], 2.0, mesh_rule=MeshRule(16))
        for col in ("gap_m00inv", "gap_m01", "gap_m10", "gap_ms", "gap_solution"):
            assert rep.values(col).max() < 1e-9

    def test_1d_sin_family_joint_decay(self):
        seq = CoefficientSequence.laminate(SIN_PROFILE, bounds=(1.0, 3.0))
        rep = schur_equiv_check(seq, [2, 4, 8, 16], np.sqrt(3.0), mesh_rule=MeshRule(32))
        for col in ("gap_m00inv", "gap_m01", "gap_m10", "gap_solution"):
            v = rep.values(col)
            assert v[-1] < v[0]
        assert rep.final("gap_solution") < 0.05

    def test_2d_laminate_all_four_decay(self):
        seq = CoefficientSequence.laminate(TWO_PHASE, bounds=(0.5, 5.0))
        rep = schur_equiv_check(seq, [1, 2, 4, 8], np.diag([1.6, 2.5]), dim=2,
                                mesh_rule=MeshRule(16))
        for col in ("gap_m00inv", "gap_m01", "gap_m10", "gap_ms", "gap_solution"):
            v = rep.values(col)
            assert v[-1] < v[0], col

    def test_2d_solution_gap_pairs_with_no_dense_probe_block(self, monkeypatch):
        from homlab import elliptic, homogenize

        def refuse(*args, **kwargs):
            raise AssertionError("dense scalar probe block on the Schur path")

        for module in (elliptic, homogenize):
            monkeypatch.setattr(module, "scalar_probes", refuse, raising=False)
        seq = CoefficientSequence.laminate(TWO_PHASE, bounds=(0.5, 5.0))
        rep = schur_equiv_check(seq, [1, 4], np.diag([1.6, 2.5]), dim=2, mesh_rule=MeshRule(8))
        assert rep.values("gap_solution")[-1] < rep.values("gap_solution")[0]


def _traced_peak(run):
    """Bytes that ``run()`` allocates at its peak under tracemalloc, above
    what is live when it starts."""
    import tracemalloc

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestProbePair:
    @pytest.mark.parametrize("cells, hi", [((40,), (1.3,)), ((12, 10), (1.0, 0.7)),
                                           ((5, 4, 6), (1.1, 0.9, 1.3))])
    @pytest.mark.parametrize("budget", [None, 1])
    def test_streamed_pair_matches_the_dense_reference(self, cells, hi, budget, monkeypatch):
        from homlab import homogenize

        grad = build_grad(GridDomain.box(cells, hi=hi), "dirichlet")
        space = grad.vector_space
        dec = g0_decomposition(grad)
        base = vector_probes(grad, kinds=("component", "gradient")).matrix
        refs = []
        for project in (dec.h0.project, dec.h1.project):
            q = project(base)
            q = q[:, space.column_norms(q) >= 0.05][:, :8]
            refs.append(q / space.column_norms(q))
        if budget is not None:    # one-column chunks
            monkeypatch.setattr(homogenize, "_BLOCK_ENTRIES", budget)
        widths, project0 = [], dec.h0.project
        monkeypatch.setattr(dec.h0, "project", lambda v: widths.append(v.shape[1]) or project0(v))
        monkeypatch.setattr(dec.h1, "project", lambda v: pytest.fail("chunk projected twice"))
        for probes, ref in zip(g0_probe_pair(grad, dec), refs):
            assert probes.matrix.shape == ref.shape
            assert np.abs(probes.matrix - ref).max() <= 1e-12
        width = 8 if budget is None else 1
        assert widths and all(w == width for w in widths[:-1]) and 0 < widths[-1] <= width

    def test_probe_pair_and_gaps_memory_at_128_squared(self):
        # with whole probe families and their projected copies these took
        # 34.1, 23.7 and 44.0 MB
        import scipy.fft  # noqa: F401  (the grid solver's first import)

        from homlab import elliptic
        from homlab.schur import tau_gap

        seq = CoefficientSequence.laminate(TWO_PHASE, bounds=(0.5, 5.0))
        candidate = np.diag([1.6, 2.5])
        dom = GridDomain.box((128, 128))
        grad = build_grad(dom, "dirichlet")
        dec = g0_decomposition(grad)
        pair = g0_probe_pair(grad, dec)
        ops = [field.operator(grad) for field in (
            seq.field(8, dom), CoefficientField.constant(dom, candidate, bounds=(0.5, 5.0)))]
        tau_gap(*ops, dec, *pair)
        added = _traced_peak(lambda: g0_probe_pair(grad, dec))
        assert added <= 20e6, f"g0_probe_pair adds {added / 1e6:.1f} MB"
        added = _traced_peak(lambda: tau_gap(*ops, dec, *pair))
        assert added <= 14e6, f"tau_gap adds {added / 1e6:.1f} MB"
        del grad, dec, pair, ops
        elliptic.build_grad.cache_clear()
        peak = _traced_peak(lambda: schur_equiv_check(seq, [8], candidate, MeshRule(16), dim=2))
        assert peak <= 34e6, f"schur_equiv_check peaks at {peak / 1e6:.1f} MB"


class TestAdjointSymmetry:
    def test_real_symmetric_identical_reports(self):
        seq = CoefficientSequence.laminate(TWO_PHASE, bounds=(0.5, 5.0))
        primal, adj = adjoint_symmetry_check(seq, [2, 4], np.array([[1.6]]),
                                             mesh_rule=MeshRule(16))
        for col in ("gap_m00inv", "gap_ms", "gap_solution"):
            np.testing.assert_allclose(primal.values(col), adj.values(col), rtol=1e-10)

    def test_complex_family(self):
        prof = lambda y: 2.0 + 0.3j + np.sin(2 * np.pi * np.asarray(y))
        seq = CoefficientSequence.laminate(prof, bounds=(0.9, 4.0))
        a_h, _ = laminate_limit(prof)
        primal, adj = adjoint_symmetry_check(seq, [2, 4, 8], np.array([[a_h]]),
                                             mesh_rule=MeshRule(32))
        assert primal.final("gap_solution") < primal.rows[0]["gap_solution"]
        assert adj.final("gap_solution") < adj.rows[0]["gap_solution"]

    def test_nonsymmetric_constant_field(self):
        mat = np.array([[2.0, 0.5], [-0.5, 2.0]])
        seq = constant_sequence(mat, (1.0, 4.0))
        primal, adj = adjoint_symmetry_check(seq, [1, 2], mat, dim=2,
                                             mesh_rule=MeshRule(8))
        assert primal.values("gap_solution").max() < 1e-9
        assert adj.values("gap_solution").max() < 1e-9


def _gaps(cols, values, **meta):
    """A report of one row per entry of ``values`` (a tuple per n)."""
    rows = [dict(zip(("n",) + cols, (n,) + v)) for n, v in enumerate(values, 1)]
    return ExperimentReport(kind="test", columns=("n",) + cols, rows=rows, meta=meta)


class TestPerNAndVerdicts:
    def test_per_n_takes_its_columns_from_the_first_row(self):
        rep = _per_n("k", [3, 1], lambda n: {"n": n, "b": 2 * n, "a": -n}, {"x": 1})
        assert rep.columns == ("n", "b", "a") and rep.meta == {"x": 1}
        assert rep.rows == [{"n": 3, "b": 6, "a": -3}, {"n": 1, "b": 2, "a": -1}]
        assert _per_n("k", [], lambda n: {"n": n}, {}).columns == ()

    def test_cell_tensor_against_its_expected_value(self):
        dom = GridDomain.box((8, 8))
        rep = cell_experiment(CoefficientField.constant(dom, 2.0, bounds=(2.0, 2.0)),
                              2.0 * np.eye(2))
        assert rep.columns == ("i", "j", "value", "expected", "abs_err")
        assert [(r["i"], r["j"]) for r in rep.rows] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert rep.values("abs_err").max() < 1e-12 and cell_verdict(rep) == []
        off = cell_experiment(CoefficientField.constant(dom, 2.0, bounds=(2.0, 2.0)),
                              2.2 * np.eye(2))
        assert cell_verdict(off) == ["cell tensor error 9.091e-02 above 0.02"]
        assert cell_verdict(off, 0.1) == []

    @pytest.mark.parametrize("dim, passes", [(1, False), (2, True), (3, True)])
    def test_hconv_default_tolerance_by_dimension(self, dim, passes):
        rep = _gaps(("err_solution", "err_flux"), [(0.1, 0.1), (0.03, 0.01)], dim=dim)
        assert (hconv_verdict(rep) == []) is passes
        assert hconv_verdict(rep, 0.04) == []

    def test_qdind_decay_and_correlation(self):
        cols = ("gap_inverse", "gap_projected", "gap_flux")
        together = _gaps(cols, [(0.4, 0.2, 0.1), (0.1, 0.05, 0.02), (0.01, 0.005, 0.001)])
        assert qdind_verdict(together) == []
        apart = _gaps(cols, [(0.4, 0.005, 0.1), (0.1, 0.0001, 0.02), (0.001, 0.004, 0.001)])
        assert qdind_verdict(apart) == ["qdind correlation -0.247 below 0.9"]
        assert qdind_verdict(apart, min_corr=-0.5) == []
        assert qdind_verdict(together, 1e-3)[0].startswith("qdind decay: gap_inverse: final")

    def test_schur_gaps_each_decay(self):
        cols = ("gap_m00inv", "gap_m01", "gap_m10", "gap_ms", "gap_solution")
        rep = _gaps(cols, [(0.1,) * 5, (0.01, 0.01, 0.2, 0.01, 0.01)])
        assert schur_verdict(rep) == ["schur gaps: gap_m10: final 2.000e-01 above 5.0e-02; "
                                      "gap_m10: not decreasing (1.000e-01 -> 2.000e-01)"]
