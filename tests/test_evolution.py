"""Tests for skew splittings, resolvent bounds, block elimination, and the
block-map/resolvent equivalence experiment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab import evolution, schur
from homlab.elliptic import GridDomain, build_grad
from homlab.errors import HomlabError, NotSkew, SingularResolvent
from homlab.evolution import (
    abstract_schur_experiment,
    check_joint_decay,
    evo_verdict,
    grid_skew_block,
    grid_two_scale,
    operator_norm,
    recover_coefficient,
    recover_experiment,
    recover_verdict,
    resolvent_bounds,
    skew_split,
    synthetic_evo_experiment,
    two_scale_evo_experiment,
)
from homlab.hilbert import HilbertSpace, LinearOp, ProbeSet


def random_skew(space, seed, rank_deficit=0):
    rng = np.random.default_rng(seed)
    n = space.dim
    r = rng.standard_normal((n, n))
    if space.field == "complex":
        r = r + 1j * rng.standard_normal((n, n))
    s = r - r.conj().T
    if rank_deficit:
        # conjugate a block with a zero corner into the weighted frame
        s[:rank_deficit, :] = 0.0
        s[:, :rank_deficit] = 0.0
    d = np.sqrt(space.weight)
    mat = (s * d[None, :]) / d[:, None]
    return LinearOp(space, space, matrix=mat)


def coercive(space, seed, alpha=0.5, beta=4.0):
    rng = np.random.default_rng(seed)
    n = space.dim
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = q @ np.diag(rng.uniform(alpha * 1.4, beta * 0.7, size=n)) @ q.T
    r = rng.standard_normal((n, n))
    sk = r - r.T
    sk *= 0.1 * alpha / max(np.linalg.norm(sk, 2), 1e-12)
    if space.field == "complex":    # a W-Hermitian imaginary part leaves Re T alone
        h = rng.standard_normal((n, n))
        m = m + 0.5j * (h + h.T)
    d = np.sqrt(space.weight)
    return LinearOp(space, space, matrix=((m + sk) * d[None, :]) / d[:, None])


class TestSkewSplit:
    def test_zero_operator(self):
        space = HilbertSpace(4)
        a = skew_split(LinearOp(space, space, matrix=np.zeros((4, 4))))
        assert a.ker.dim == 4 and a.ran.dim == 0
        assert a.a_tilde.shape == (0, 0)

    def test_hand_3x3(self):
        space = HilbertSpace(3)
        mat = np.array([[0.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])
        a = skew_split(LinearOp(space, space, matrix=mat))
        assert a.ker.dim == 1 and a.ran.dim == 2
        np.testing.assert_allclose(np.abs(a.ker.basis[:, 0]), [1, 0, 0], atol=1e-12)
        # reduced block is the rotation generator up to basis orientation
        assert np.isclose(abs(a.a_tilde[0, 1]), 1.0)

    def test_not_skew_rejected(self):
        space = HilbertSpace(3)
        with pytest.raises(NotSkew):
            skew_split(LinearOp(space, space, matrix=np.eye(3)))

    def test_weighted_skew_and_imaginary_spectrum(self):
        # real skew blocks have even rank, so an 8-dim space with a 2-dim
        # forced kernel splits as 2 + 6
        rng = np.random.default_rng(3)
        space = HilbertSpace(8, weight=rng.uniform(0.5, 2.0, size=8))
        a = skew_split(random_skew(space, 4, rank_deficit=2))
        assert a.ker.dim == 2 and a.ran.dim == 6
        eigs = np.linalg.eigvals(a.a_tilde)
        assert np.abs(eigs.real).max() < 1e-10

    def test_grid_block_kernel_dims(self):
        # grad/div block: kernel is {0} (+) (gradient range) ^ perp
        grad = build_grad(GridDomain.interval(0, 1, 24), "dirichlet")
        op, space = grid_skew_block(grad)
        a = skew_split(op)
        assert a.ker.dim == 1  # constants in the 1-d cell space
        assert a.ran.dim == space.dim - 1


def eigvals_rejects(a_tilde, slack=1.0):
    """The eigenvalue test skew_split ran before its Bendixson certificate,
    kept as the reference: some |Re lambda| above 1e-8 max(1, rho), with the
    threshold widened by ``slack``."""
    eigs = np.linalg.eigvals(a_tilde)
    return np.abs(eigs.real).max() > slack * 1e-8 * max(1.0, np.abs(eigs).max())


def weighted_skew(n, field, scale, seed):
    """A W-skew operator W^-1 S (S skew-Hermitian) on a space with a random
    diagonal weight, scaled to entries of about ``scale``."""
    rng = np.random.default_rng(seed)
    weight = rng.uniform(0.5, 2.0, n)
    r = rng.standard_normal((n, n))
    if field == "complex":
        r = r + 1j * rng.standard_normal((n, n))
    space = HilbertSpace(n, weight=weight, field=field)
    return LinearOp(space, space, matrix=scale * (r - r.conj().T) / weight[:, None]), rng


class TestBendixsonCertificate:
    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(2, 8), field=st.sampled_from(["real", "complex"]),
           log_scale=st.floats(-2.0, 3.0), log_eps=st.floats(-12.0, -5.0),
           seed=st.integers(0, 2**16))
    def test_rejects_whatever_the_eigenvalue_test_rejects(self, n, field, log_scale,
                                                          log_eps, seed):
        op, rng = weighted_skew(n, field, 10.0 ** log_scale, seed)
        a_tilde = skew_split(op).a_tilde
        evolution._certify_imaginary_spectrum(a_tilde)    # exactly skew: certified
        pert = rng.standard_normal(a_tilde.shape)
        if field == "complex":
            pert = pert + 1j * rng.standard_normal(a_tilde.shape)
        perturbed = a_tilde + 10.0 ** log_eps * max(1.0, np.abs(a_tilde).max()) * pert
        # the certificate is at least as strict up to a relative 1e-7 in the
        # threshold, where max |A~_ij| and the spectral radius may differ
        if eigvals_rejects(perturbed, slack=1.0 + 1e-7):
            with pytest.raises(NotSkew, match="imaginary axis"):
                evolution._certify_imaginary_spectrum(perturbed)

    def test_threshold_is_spanned(self):
        # the perturbations above reach both verdicts of the reference
        a_tilde = skew_split(weighted_skew(6, "real", 1.0, 5)[0]).a_tilde
        pert = np.random.default_rng(6).standard_normal(a_tilde.shape)
        verdicts = {eigvals_rejects(a_tilde + 10.0 ** e * pert) for e in (-12, -5)}
        assert verdicts == {False, True}

    def test_skew_split_rejects_a_non_skew_reduced_block(self):
        # a loose adjoint tolerance lets the reduced-block certificate decide
        space = HilbertSpace(2)
        mat = np.array([[1e-6, -1.0], [1.0, 0.0]])
        with pytest.raises(NotSkew, match="imaginary axis"):
            skew_split(LinearOp(space, space, matrix=mat), tol=1e-3)


class TestResolventBounds:
    def test_identity(self):
        space = HilbertSpace(3)
        t = LinearOp(space, space, matrix=np.eye(3))
        a = skew_split(LinearOp(space, space, matrix=np.zeros((3, 3))))
        n_res, n_ares, c = resolvent_bounds(t, a)
        assert np.isclose(n_res, 1.0) and np.isclose(c, 1.0)
        assert n_ares == 0.0

    def test_rotation_closed_form(self):
        # T = c I, A = [[0, -w], [w, 0]]: resolvent norm is 1/sqrt(c^2 + w^2)
        space = HilbertSpace(2)
        c, w = 1.0, 3.0
        t = LinearOp(space, space, matrix=c * np.eye(2))
        a = skew_split(LinearOp(space, space, matrix=np.array([[0, -w], [w, 0.0]])))
        n_res, n_ares, cc = resolvent_bounds(t, a)
        assert np.isclose(n_res, 1.0 / np.sqrt(c**2 + w**2))
        assert n_res <= 1.0 / cc

    def test_violated_bound_raises(self, monkeypatch):
        space = HilbertSpace(2)
        t = LinearOp(space, space, matrix=np.eye(2))
        a = skew_split(LinearOp(space, space, matrix=np.array([[0, -1.0], [1.0, 0]])))
        monkeypatch.setattr(evolution, "operator_norm", lambda op: 10.0)
        with pytest.raises(HomlabError, match="resolvent norm"):
            resolvent_bounds(t, a)

    def test_random_pairs_never_violate(self):
        rng = np.random.default_rng(5)
        for trial in range(200):
            n = int(rng.integers(2, 12))
            w = rng.uniform(0.5, 2.0, size=n)
            space = HilbertSpace(n, weight=w)
            t = coercive(space, 1000 + trial)
            a = skew_split(random_skew(space, 2000 + trial,
                                       rank_deficit=int(rng.integers(0, n // 2 + 1))))
            resolvent_bounds(t, a)


def block_solve(t, a, f):
    """(T + A)^{-1} f by the elimination along (ker A, ran A) that every
    resolvent of the package uses."""
    return evolution._eliminated_resolvent(schur.schur_maps(t, a.dec), a)[0](f)


class TestBlockSolve:
    def test_zero_skew_reduces_to_inverse(self):
        space = HilbertSpace(5)
        t = coercive(space, 7)
        a = skew_split(LinearOp(space, space, matrix=np.zeros((5, 5))))
        f = np.arange(1.0, 6.0)
        u = block_solve(t, a, f)
        np.testing.assert_allclose(u, np.linalg.solve(t.to_dense(), f), atol=1e-12)

    def test_hand_3x3_vs_dense(self):
        space = HilbertSpace(3)
        mat = np.array([[0.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])
        a = skew_split(LinearOp(space, space, matrix=mat))
        t = LinearOp(space, space, matrix=np.diag([1.0, 2.0, 3.0]))
        f = np.ones(3)
        u = block_solve(t, a, f)
        np.testing.assert_allclose(u, np.linalg.solve(np.diag([1.0, 2, 3]) + mat, f),
                                   atol=1e-12)

    def test_batch_vs_direct(self):
        rng = np.random.default_rng(8)
        for trial in range(50):
            n = int(rng.integers(3, 20))
            space = HilbertSpace(n, weight=rng.uniform(0.5, 2.0, size=n))
            t = coercive(space, 3000 + trial)
            a = skew_split(random_skew(space, 4000 + trial,
                                       rank_deficit=int(rng.integers(0, n - 1))))
            f = rng.standard_normal(n)
            u = block_solve(t, a, f)
            direct = np.linalg.solve(t.to_dense() + a.matrix(), f)
            np.testing.assert_allclose(u, direct, atol=1e-9)


class TestRecoverCoefficient:
    def test_diagonal_closed_form(self):
        space = HilbertSpace(2)
        a = skew_split(LinearOp(space, space, matrix=np.zeros((2, 2))))
        s = LinearOp(space, space, matrix=np.diag([0.5, 1.0 / 3.0]))
        t = recover_coefficient(s, a)
        np.testing.assert_allclose(t.to_dense(), np.diag([2.0, 3.0]), atol=1e-12)

    def test_round_trip_batch(self):
        rng = np.random.default_rng(9)
        for trial in range(200):
            n = int(rng.integers(2, 10))
            space = HilbertSpace(n, weight=rng.uniform(0.5, 2.0, size=n))
            t0 = coercive(space, 5000 + trial)
            a = skew_split(random_skew(space, 6000 + trial))
            s = LinearOp(space, space,
                         matrix=np.linalg.inv(t0.to_dense() + a.matrix()))
            t = recover_coefficient(s, a, bounds=(0.5, 4.0))
            np.testing.assert_allclose(t.to_dense(), t0.to_dense(), atol=1e-10)

    def test_uniqueness_under_perturbation(self):
        # any nonzero bounded perturbation of the recovered operator breaks
        # the resolvent identity
        space = HilbertSpace(5)
        rng = np.random.default_rng(10)
        t0 = coercive(space, 11)
        a = skew_split(random_skew(space, 12))
        s = LinearOp(space, space, matrix=np.linalg.inv(t0.to_dense() + a.matrix()))
        t = recover_coefficient(s, a)
        sinv = np.linalg.inv(s.to_dense())
        for _ in range(20):
            pert = rng.standard_normal((5, 5))
            pert *= rng.uniform(0.1, 2.0) / np.linalg.norm(pert, 2)
            tampered = t.to_dense() + pert
            assert np.abs(tampered + a.matrix() - sinv).max() > 1e-8

    def test_singular_limit_rejected(self):
        space = HilbertSpace(3)
        a = skew_split(LinearOp(space, space, matrix=np.zeros((3, 3))))
        s = LinearOp(space, space, matrix=np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(SingularResolvent):
            recover_coefficient(s, a)


def test_re_t_bounds_form_no_inverse_certificate(monkeypatch):
    # resolvent_bounds and the elimination need only Re T's bound
    def refuse(*args, **kwargs):
        raise AssertionError("Re(T^-1) certificate formed")

    monkeypatch.setattr(evolution, "coercivity_check", refuse)
    space = HilbertSpace(6, weight=np.linspace(0.5, 2.0, 6))
    t = coercive(space, 50)
    a = skew_split(random_skew(space, 51, rank_deficit=2))
    assert resolvent_bounds(t, a)[2] > 0
    f = np.ones(6)
    np.testing.assert_allclose(block_solve(t, a, f),
                               np.linalg.solve(t.to_dense() + a.matrix(), f), atol=1e-12)


class TestAbstractSchurExperiment:
    def setup_method(self):
        self.space = HilbertSpace(10)
        self.t = coercive(self.space, 20)
        self.a = skew_split(random_skew(self.space, 21, rank_deficit=3))

    def test_constant_sequence_all_tolerance(self):
        rep = abstract_schur_experiment(self.a, [self.t] * 4, self.t, seed=1)
        for col in ("gap_m00inv", "gap_m01", "gap_m10", "gap_ms", "gap_resolvent"):
            assert rep.values(col).max() < 1e-10

    def test_perturbation_slope_minus_one(self):
        rng = np.random.default_rng(22)
        pert = rng.standard_normal((10, 10))
        pert *= 0.1 / np.linalg.norm(pert, 2)
        n_list = [1, 2, 4, 8, 16, 32]
        t_seq = lambda n: LinearOp(self.space, self.space,
                                   matrix=self.t.to_dense() + pert / n)
        rep = abstract_schur_experiment(self.a, t_seq, self.t, n_list=n_list, seed=2)
        logn = np.log(np.array(n_list, dtype=float))
        for col in ("gap_m00inv", "gap_ms", "gap_resolvent"):
            slope = np.polyfit(logn, np.log(rep.values(col)), 1)[0]
            assert abs(slope + 1.0) < 0.1, f"{col}: slope {slope}"
        equiv, tau_ok, res_ok = check_joint_decay(rep, 1e-2, 1e-2)
        assert equiv and tau_ok and res_ok

    def test_nonconvergent_sequence_fails_both(self):
        rng = np.random.default_rng(23)
        pert = rng.standard_normal((10, 10))
        pert *= 0.5 / np.linalg.norm(pert, 2)
        t_seq = lambda n: LinearOp(self.space, self.space,
                                   matrix=self.t.to_dense() + (-1) ** n * pert)
        rep = abstract_schur_experiment(self.a, t_seq, self.t,
                                        n_list=[1, 2, 3, 4, 5, 6], seed=3)
        equiv, tau_ok, res_ok = check_joint_decay(rep, 1e-6, 1e-6)
        assert equiv and not tau_ok and not res_ok

    def test_strong_gap_decays(self):
        rng = np.random.default_rng(24)
        pert = rng.standard_normal((10, 10))
        pert *= 0.1 / np.linalg.norm(pert, 2)
        t_seq = lambda n: LinearOp(self.space, self.space,
                                   matrix=self.t.to_dense() + pert / n)
        rep = abstract_schur_experiment(self.a, t_seq, self.t,
                                        n_list=[1, 2, 4, 8], seed=4)
        v = rep.values("gap_strong")
        assert v[-1] < v[0]

    def test_probe_seed_moves_only_random_probes(self):
        # grid probes are deterministic sine modes, so the seed leaves the
        # schur-gap rows alone; the synthetic experiment's probes and wobble
        # are drawn from it
        from homlab.homogenize import CoefficientSequence, MeshRule, schur_equiv_check

        seq = CoefficientSequence.laminate(lambda y: 2.0 + np.sin(2 * np.pi * np.asarray(y)),
                                           bounds=(1.0, 3.0))
        grid = [schur_equiv_check(seq, [2, 4], np.sqrt(3.0), mesh_rule=MeshRule(8),
                                  probe_seed=seed).rows for seed in (0, 7)]
        assert grid[0] == grid[1]
        pert = np.random.default_rng(26).standard_normal((10, 10))
        pert *= 0.1 / np.linalg.norm(pert, 2)
        t_seq = lambda n: LinearOp(self.space, self.space, matrix=self.t.to_dense() + pert / n)
        synthetic = [abstract_schur_experiment(self.a, t_seq, self.t, n_list=[1, 2],
                                               seed=seed).rows for seed in (0, 7)]
        assert synthetic[0] != synthetic[1]

    def run_perturbed(self, k):
        pert = np.random.default_rng(25).standard_normal((10, 10))
        pert *= 0.1 / np.linalg.norm(pert, 2)
        t_seq = lambda n: LinearOp(self.space, self.space,
                                   matrix=self.t.to_dense() + pert / n)
        return abstract_schur_experiment(self.a, t_seq, self.t,
                                         n_list=list(range(1, k + 1)), seed=5)

    def test_schur_maps_built_once_per_operator(self, monkeypatch):
        # the block-map gaps and the strong gap share one SchurMaps per T_n
        # and one for the limit
        built = []
        real = schur.schur_maps

        def counting(*args, **kwargs):
            built.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(schur, "schur_maps", counting)
        monkeypatch.setattr(evolution, "schur_maps", counting, raising=False)
        k = 4
        self.run_perturbed(k)
        assert len(built) == k + 1

    def test_no_ambient_inverse(self, monkeypatch):
        shapes = []
        real = np.linalg.inv

        def recording(m):
            shapes.append(np.shape(m))
            return real(m)

        monkeypatch.setattr(np.linalg, "inv", recording)
        self.run_perturbed(3)
        assert (10, 10) not in shapes, shapes


class TestEliminatedResolvent:
    """``gap_resolvent`` and ``gap_strong`` come from the block elimination
    of (T + A)^{-1}; they match the dense-solve formulas, kept here as the
    reference, to 1e-12 relative, and no dense ``solve`` runs."""

    @staticmethod
    def reference(a, t_n, t_lim, probes, wob):
        space, amat = a.space, a.matrix()
        d = (np.linalg.solve(t_n.to_dense() + amat, probes.matrix)
             - np.linalg.solve(t_lim.to_dense() + amat, probes.matrix))
        g_res = float(np.abs(space.gram(probes.matrix, d)).max())
        if not a.ran.dim:
            return g_res, 0.0
        g = np.ones(a.ran.dim) / np.sqrt(a.ran.dim)
        ms_n, ms_lim = (schur.schur_maps(t, a.dec).ms_mat for t in (t_n, t_lim))
        u_n = np.linalg.solve(ms_n + a.a_tilde, g + wob)
        u_l = np.linalg.solve(ms_lim + a.a_tilde, g)
        return g_res, float(space.norm(a.ran.basis @ (u_n - u_l)))

    @staticmethod
    def no_dense_solve(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense solve")

        monkeypatch.setattr(np.linalg, "solve", refuse)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_synthetic_splitting_with_a_kernel(self, monkeypatch, field):
        rng = np.random.default_rng(40)
        space = HilbertSpace(12, weight=rng.uniform(0.5, 2.0, 12), field=field)
        a = skew_split(random_skew(space, 41, rank_deficit=4))
        assert a.ker.dim == 4 and a.ran.dim == 8
        t = coercive(space, 42)
        pert = rng.standard_normal((12, 12))
        pert *= 0.2 / np.linalg.norm(pert, 2)
        t_seq = lambda n: LinearOp(space, space, matrix=t.to_dense() + pert / n)
        probes = ProbeSet.random(space, count=6, seed=43)
        wob = rng.standard_normal(a.ran.dim)
        n_list = [1, 2, 4, 8]
        refs = [self.reference(a, t_seq(n), t, probes, wob / n) for n in n_list]
        self.no_dense_solve(monkeypatch)
        rep = abstract_schur_experiment(a, t_seq, t, probes=probes, n_list=n_list,
                                        wobble=lambda n: wob / n)
        for row, (g_res, g_strong) in zip(rep.rows, refs):
            assert row["gap_resolvent"] == pytest.approx(g_res, rel=1e-12, abs=0)
            assert row["gap_strong"] == pytest.approx(g_strong, rel=1e-12, abs=0)

    def test_two_scale_instance(self, monkeypatch):
        a, t_n, t_lim, probes, wob = _two_scale_instance(2)
        g_res, g_strong = self.reference(a, t_n, t_lim, probes, wob)
        self.no_dense_solve(monkeypatch)
        row = two_scale_evo_experiment(_two_scale_instance, [2]).rows[0]
        assert row["gap_resolvent"] == pytest.approx(g_res, rel=1e-12, abs=0)
        assert row["gap_strong"] == pytest.approx(g_strong, rel=1e-12, abs=0)


def _two_scale_instance(n):
    """Oscillating multipliers on coupled meshes with the grad/div block."""
    m = 32 * n
    dom = GridDomain.interval(0, 1, m)
    grad = build_grad(dom, "dirichlet")
    op, space = grid_skew_block(grad)
    a = skew_split(LinearOp(space, space, matrix=op.to_dense()))
    x_nodes = grad.node_coords[:, 0]
    x_cells = grad.elem_mid[:, 0]
    osc = lambda x: 2.0 + np.sin(2 * np.pi * n * x)
    t_n = LinearOp(space, space, matrix=np.diag(
        np.concatenate([osc(x_nodes), osc(x_cells)])))
    # multiplier limits: arithmetic mean on the kernel part is not
    # separated here; the full-block limit uses the weak-* limit 2
    # on nodes and cells alike
    t_lim = LinearOp(space, space, matrix=2.0 * np.eye(space.dim))
    mode = np.concatenate([np.sin(np.pi * x_nodes), np.sin(np.pi * x_cells)])
    probes = ProbeSet.from_vectors(space, [
        mode,
        np.concatenate([np.cos(np.pi * x_nodes), 0 * x_cells]),
        np.concatenate([0 * x_nodes, np.cos(np.pi * x_cells)]),
    ])
    wob = np.zeros(a.ran.dim)
    return a, t_n, t_lim, probes, wob


class TestTwoScale:
    def test_grid_backed_oscillatory_family(self):
        # probe gaps decay against the homogenised limit
        rep = two_scale_evo_experiment(_two_scale_instance, [2, 4, 8])
        assert rep.meta["regime"] == "two-scale"
        for col in ("gap_m01", "gap_m10", "gap_resolvent"):
            v = rep.values(col)
            assert v[-1] < v[0], col

    def test_svd_only_in_kernel_range(self, monkeypatch):
        # the condition checks of schur_maps read the LU; the one dense SVD
        # per index is the kernel/range split of skew_split
        import sys

        from numpy.linalg import _linalg

        callers = []
        real = _linalg.svd

        def recording(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args, **kwargs)

        # np.linalg.cond and np.linalg.norm reach the SVD through _linalg
        monkeypatch.setattr(np.linalg, "svd", recording)
        monkeypatch.setattr(_linalg, "svd", recording)
        two_scale_evo_experiment(_two_scale_instance, [2, 4, 8])
        assert callers == ["kernel_range"] * 3


class TestGridTwoScale:
    def test_instance_of_each_index(self):
        a, t_n, t_lim, probes, wob = grid_two_scale(4)(3)
        grad = build_grad(GridDomain.interval(0, 1, 12), "dirichlet")
        x = np.concatenate([grad.node_coords[:, 0], grad.elem_mid[:, 0]])
        assert a.space.dim == len(x) == 23
        assert np.array_equal(t_n.to_dense(), np.diag(2.0 + np.sin(6 * np.pi * x)))
        assert np.array_equal(t_lim.to_dense(), 2.0 * np.eye(23))
        assert len(probes) == 3 and not wob.any() and wob.shape == (a.ran.dim,)

    def test_verdict_at_the_default_tolerance(self):
        rep = two_scale_evo_experiment(grid_two_scale(32), [2, 4, 8])
        assert rep.meta["regime"] == "two-scale"
        assert rep.columns == ("n", "gap_m00inv", "gap_m01", "gap_m10", "gap_ms",
                               "gap_resolvent", "gap_strong")
        assert evo_verdict(rep) == []
        failures = evo_verdict(rep, 1e-6)
        assert len(failures) == 1 and failures[0].startswith("two-scale decay: gap_resolvent")


def _with_column(rep, col, values):
    rows = [{**row, col: v} for row, v in zip(rep.rows, values)]
    return type(rep)(kind=rep.kind, columns=rep.columns, rows=rows, meta=rep.meta)


class TestSyntheticEvo:
    N_LIST = [1, 2, 4, 8, 16, 32]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_default_tolerance_passes(self, seed):
        # every gap ends near 1e-3, far above the 1e-6 default; each column
        # is held to its own final value, so m01 and ms ending above 1.5
        # times the final m00inv no longer fail the joint decay
        rep = synthetic_evo_experiment(10, self.N_LIST, seed)
        assert rep.final("gap_m01") > 1.5 * rep.final("gap_m00inv")
        assert evo_verdict(rep) == []

    def test_rows_come_from_the_seed(self):
        a, b = (synthetic_evo_experiment(8, [1, 2], seed) for seed in (3, 3))
        assert a.rows == b.rows and a.meta["ker_dim"] == 2
        assert a.rows != synthetic_evo_experiment(8, [1, 2], 4).rows

    def test_block_map_gap_that_grows_fails(self):
        # m01 is not slope-checked; the joint decay catches it
        rep = synthetic_evo_experiment(10, self.N_LIST, 0)
        grown = _with_column(rep, "gap_m01", 1e-3 * np.arange(1.0, 7.0))
        assert evo_verdict(grown) == ["evo: block-map and resolvent decay disagreed"]
        assert evo_verdict(grown, 1e-2) == []    # all of it within the round-off floor

    def test_sequence_whose_block_maps_do_not_decay_fails(self):
        rng = np.random.default_rng(5)
        space = HilbertSpace(10)
        a = skew_split(random_skew(space, 6, rank_deficit=3))
        t = coercive(space, 7)
        pert = rng.standard_normal((10, 10))
        pert *= 0.1 / np.linalg.norm(pert, 2)
        rep = abstract_schur_experiment(
            a, lambda n: LinearOp(space, space, matrix=t.to_dense() + pert * n ** 0.5), t,
            n_list=self.N_LIST, seed=1)
        failures = evo_verdict(rep)
        assert "evo: block-map and resolvent decay disagreed" not in failures
        assert {f.split(":")[0] for f in failures} == {"evo gap_m00inv", "evo gap_ms",
                                                        "evo gap_resolvent"}
        assert evo_verdict(_with_column(rep, "gap_resolvent", 1.0 / np.array(self.N_LIST))) \
            == [f for f in failures if "gap_resolvent" not in f] \
            + ["evo: block-map and resolvent decay disagreed"]


class TestRecover:
    def test_round_trips_pass(self):
        rep = recover_experiment(30, 8, 3)
        assert rep.columns == ("trials", "worst_error") and rep.rows[0]["trials"] == 30
        assert 0 < rep.final("worst_error") <= 1e-10
        assert recover_verdict(rep) == []

    def test_failed_trials_and_large_errors_fail(self, monkeypatch):
        calls = []

        def flaky(s, a, bounds):
            calls.append(1)
            if len(calls) == 2:
                raise SingularResolvent("round trip (T + A)^{-1} != S")
            return recover_coefficient(s, a, bounds=bounds)

        monkeypatch.setattr(evolution, "recover_coefficient", flaky)
        rep = recover_experiment(4, 6, 0)
        assert recover_verdict(rep) == ["recover trial 1: round trip (T + A)^{-1} != S"]
        rep.rows[0]["worst_error"] = 2e-10
        assert recover_verdict(rep)[1] == "recover: worst round-trip error 2.000e-10 above 1e-10"


class TestOperatorNorm:
    def test_matches_svd_identity_weight(self):
        space = HilbertSpace(6)
        rng = np.random.default_rng(30)
        m = rng.standard_normal((6, 6))
        op = LinearOp(space, space, matrix=m)
        assert np.isclose(operator_norm(op), np.linalg.norm(m, 2))

    def test_weighted_invariance_under_unitaries(self):
        rng = np.random.default_rng(31)
        space = HilbertSpace(5, weight=rng.uniform(0.5, 2.0, size=5))
        m = rng.standard_normal((5, 5))
        op = LinearOp(space, space, matrix=m)
        # norm as sup of |<y, T x>| over unit vectors, sampled
        best = 0.0
        for _ in range(3000):
            x = rng.standard_normal(5)
            y = rng.standard_normal(5)
            best = max(best, abs(space.inner(y, m @ x))
                       / (space.norm(x) * space.norm(y)))
        assert best <= operator_norm(op) + 1e-9
        assert operator_norm(op) <= best * 1.3
