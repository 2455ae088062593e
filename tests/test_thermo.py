"""Tests for the coupled heat/elasticity block system."""

import numpy as np
import pytest
import scipy.sparse as sp

from homlab.elliptic import CoefficientField, GridDomain
from homlab.errors import CoercivityError
from homlab import evolution, schur
from homlab.evolution import resolvent_bounds, skew_split
from homlab.hilbert import LinearOp
from homlab.homogenize import MeshRule
from homlab.thermo import (
    assemble_thermo,
    congruence_diagonalize,
    thermo_homogenization_experiment,
)

TWO_PHASE = lambda lo, hi: (lambda y: np.where(np.asarray(y) < 0.5, lo, hi))


def small_system(domain=None, gamma=0.7, lam=1.0):
    domain = domain or GridDomain.interval(0, 1, 8)
    c = CoefficientField.constant(domain, 2.0, bounds=(0.5, 4.0))
    k = CoefficientField.constant(domain, 1.0, bounds=(0.5, 4.0))
    return assemble_thermo(domain, 1.0, c, gamma, 1.0, k, lam=lam,
                           bounds=(0.5, 4.0))


class TestAssembly:
    def test_dimension_bookkeeping_1d(self):
        sys = small_system()
        # 8 cells: 7 interior nodes and 8 elements per scalar/vector pair
        assert sys.dims == (7, 8, 7, 8)
        assert sys.space.dim == 30

    def test_gamma_zero_block_diagonal(self):
        dom = GridDomain.interval(0, 1, 8)
        sys = small_system(dom, gamma=0.0)
        ns, nv = sys.dims[0], sys.dims[1]
        coupling = sys.m0[ns:ns + nv, ns + nv:2 * ns + nv]
        assert coupling.nnz == 0 or np.abs(coupling.toarray()).max() == 0.0

    def test_heat_block_scalar_arithmetic(self):
        # constant C = 2 and gamma = 0.7: the coupling contribution to the
        # heat-heat block integrates to about gamma^2 / C = 0.245 over the
        # domain (vertex averaging perturbs it only near the boundary)
        m = 64
        dom = GridDomain.interval(0, 1, m)
        sys = assemble_thermo(
            dom, 1.0, CoefficientField.constant(dom, 2.0, bounds=(0.5, 4.0)),
            0.7, 1.0, CoefficientField.constant(dom, 1.0, bounds=(0.5, 4.0)),
            lam=1.0, bounds=(0.5, 4.0),
        )
        ns, nv = sys.dims[0], sys.dims[1]
        heat = sys.m0[ns + nv:2 * ns + nv, ns + nv:2 * ns + nv].toarray()
        w_s = sys.grad.scalar_space.weight
        ones = np.ones(ns)
        # <1, (heat block - w I) 1>_W with w = 1
        val = (w_s * (heat @ ones - ones)).sum()
        assert abs(val - 0.7**2 / 2.0) < 0.02

    def test_coefficient_bounds_enforced(self):
        dom = GridDomain.interval(0, 1, 8)
        c = CoefficientField.constant(dom, 2.0, bounds=(0.5, 4.0))
        k = CoefficientField.constant(dom, 1.0, bounds=(0.5, 4.0))
        with pytest.raises(CoercivityError):
            assemble_thermo(dom, 10.0, c, 0.5, 1.0, k, lam=1.0, bounds=(0.5, 4.0))

    def test_nonpositive_lambda_rejected(self):
        # lam = -0.4 used to report "lam >= -439804651110.4 works"
        dom = GridDomain.interval(0, 1, 8)
        c = CoefficientField.constant(dom, 2.0, bounds=(0.5, 4.0))
        k = CoefficientField.constant(dom, 1.0, bounds=(0.5, 4.0))
        for lam in (-0.4, 0.0, float("nan")):
            with pytest.raises(CoercivityError, match="lam must be positive"):
                assemble_thermo(dom, 1.0, c, 0.5, 1.0, k, lam=lam, bounds=(0.5, 4.0))

    def test_overflowing_gamma_is_a_coercivity_error(self):
        # it died with a raw ValueError from eig_banded
        dom = GridDomain.interval(0, 1, 8)
        c = CoefficientField.constant(dom, 2.0, bounds=(0.5, 4.0))
        k = CoefficientField.constant(dom, 1.0, bounds=(0.5, 4.0))
        with pytest.raises(CoercivityError, match=r"gamma=1e\+300 makes the material block m0"):
            assemble_thermo(dom, 1.0, c, 1e300, 1.0, k, lam=1.0, bounds=(0.5, 4.0))

    def test_fine_interval_certifies_without_arpack(self, monkeypatch):
        # 4096 cells: Re(lam m0 + m1) holds one chain of 8191 unknowns and
        # bandwidth 2 (size^2 x bandwidth 1.3e8), solved banded
        import scipy.sparse.linalg as spla

        def refuse(*args, **kwargs):
            raise AssertionError("eigsh in the thermo coercivity bound")

        monkeypatch.setattr(spla, "eigsh", refuse)
        sys = small_system(GridDomain.interval(0, 1, 4096))
        assert sys.space.dim == 2 * (4095 + 4096)
        assert sys.coercivity > 0

    def test_nonpositive_bound_is_refused_without_a_lam_search(self):
        # lam m0 + m1 = blockdiag(lam M, K^-1): a lam that fails, fails for
        # every lam > 0, so the error names only the bound that failed. At
        # gamma = 1e8 the bound of M is below roundoff, about -7e-15 here
        dom = GridDomain.interval(0, 1, 64)
        c = CoefficientField.constant(dom, 2.0, bounds=(0.5, 4.0))
        k = CoefficientField.constant(dom, 1.0, bounds=(0.5, 4.0))
        with pytest.raises(CoercivityError, match=r"^lam=1.0 gives nonpositive material bound "
                                                  r"-?[0-9.e+-]+$"):
            assemble_thermo(dom, 1.0, c, 1e8, 1.0, k, lam=1.0)

    def test_material_block_self_adjoint(self):
        sys = small_system()
        w = sp.diags(sys.space.weight)
        w_inv = sp.diags(1.0 / sys.space.weight)
        adj = (w_inv @ (sys.m0.conj().T @ w)).toarray()
        np.testing.assert_allclose(adj, sys.m0.toarray(), atol=1e-12)

    def test_spatial_block_skew(self):
        sys = small_system()
        a = skew_split(LinearOp(sys.space, sys.space, matrix=sys.a_matrix))
        # one constant per divergence slot
        assert a.ker.dim == 2

    def test_resolvent_bounds_hold(self):
        sys = small_system(lam=2.0)
        t = LinearOp(sys.space, sys.space,
                     matrix=(sys.lam * sys.m0 + sys.m1).toarray())
        a = skew_split(LinearOp(sys.space, sys.space, matrix=sys.a_matrix))
        n_res, n_ares, c = resolvent_bounds(t, a)
        assert n_res <= 1.0 / c + 1e-9


class TestCongruence:
    def test_gamma_zero_identity(self):
        sys = small_system(gamma=0.0)
        s, checks = congruence_diagonalize(sys)
        assert np.abs(s.to_dense() - np.eye(sys.space.dim)).max() == 0.0
        assert max(checks.values()) == 0.0

    def test_identities_random_fields_2d(self):
        rng = np.random.default_rng(0)
        dom = GridDomain.box((5, 4))
        cvals = []
        for _ in range(dom.n_cells):
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            cvals.append(q @ np.diag(rng.uniform(1.0, 3.0, 2)) @ q.T)
        c = CoefficientField(dom, np.array(cvals), bounds=(0.5, 4.0))
        k = CoefficientField.constant(dom, 1.5, bounds=(0.5, 4.0))
        sys = assemble_thermo(dom, lambda p: 1 + 0.5 * p[:, 0], c, 0.9,
                              lambda p: 1 + 0.4 * p[:, 1], k, lam=1.5,
                              bounds=(0.5, 4.0))
        _, checks = congruence_diagonalize(sys)
        assert max(checks.values()) <= 1e-9


class TestBlockSolveIntegration:
    def test_elimination_matches_monolithic_2d(self):
        dom = GridDomain.box((5, 5))
        c = CoefficientField.constant(dom, np.array([[2.0, 0.3], [0.3, 1.5]]),
                                      bounds=(0.5, 4.0))
        k = CoefficientField.constant(dom, 1.0, bounds=(0.5, 4.0))
        sys = assemble_thermo(dom, 1.2, c, 0.6, 0.9, k, lam=1.0, bounds=(0.5, 4.0))
        t = LinearOp(sys.space, sys.space,
                     matrix=(sys.lam * sys.m0 + sys.m1).toarray())
        a = skew_split(LinearOp(sys.space, sys.space, matrix=sys.a_matrix))
        rng = np.random.default_rng(1)
        f = rng.standard_normal(sys.space.dim)
        u = evolution._eliminated_resolvent(schur.schur_maps(t, a.dec), a)[0](f)
        mono = sys.resolvent_solver().solve(f)
        np.testing.assert_allclose(u, mono, atol=1e-8)


class TestHomogenizationExperiment:
    def test_constant_sequences_at_tolerance(self):
        const = lambda y: 2.0 + 0 * np.asarray(y)
        rep = thermo_homogenization_experiment(
            const, const, const, const, gamma=0.5, lam=1.0,
            n_list=[1, 2], bounds=(1.0, 3.0), mesh_rule=MeshRule(16))
        assert rep.values("gap_resolvent").max() < 1e-9

    def test_laminate_resolvent_decay(self):
        rep = thermo_homogenization_experiment(
            TWO_PHASE(1.0, 4.0), TWO_PHASE(1.0, 2.0), TWO_PHASE(0.8, 1.2),
            TWO_PHASE(1.0, 3.0), gamma=0.5, lam=1.0,
            n_list=[2, 4, 8], bounds=(0.5, 5.0), mesh_rule=MeshRule(32))
        v = rep.values("gap_resolvent")
        assert v[-1] < v[0]
        assert rep.decreasing("gap_w") and rep.decreasing("gap_rho")

    def test_shipped_size_certifies_without_arpack(self, monkeypatch):
        # the coercivity bound of lam m0 + m1 comes from the connected
        # components of its Hermitian part, not from ARPACK
        import scipy.sparse.linalg as spla

        def refuse(*args, **kwargs):
            raise AssertionError("eigsh in the thermo coercivity bound")

        monkeypatch.setattr(spla, "eigsh", refuse)
        rep = thermo_homogenization_experiment(
            TWO_PHASE(1.0, 4.0), TWO_PHASE(1.0, 2.0), TWO_PHASE(0.8, 1.2),
            TWO_PHASE(1.0, 3.0), gamma=0.5, lam=1.0,
            n_list=[16], bounds=(0.4, 5.0), mesh_rule=MeshRule(32))
        assert rep.values("gap_resolvent")[0] < 5e-2

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_gamma_sweep_decay_persists(self, gamma):
        rep = thermo_homogenization_experiment(
            TWO_PHASE(1.0, 4.0), TWO_PHASE(1.0, 2.0), TWO_PHASE(0.8, 1.2),
            TWO_PHASE(1.0, 3.0), gamma=gamma, lam=1.0,
            n_list=[2, 8], bounds=(0.5, 5.0), mesh_rule=MeshRule(32))
        v = rep.values("gap_resolvent")
        assert v[-1] < v[0]
