"""Tests for weighted spaces, adjoints, coercivity classes, and probe gaps."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.errors import NotInM, ShapeError, SolverDiverged
from homlab.hilbert import (
    HilbertSpace,
    LinearOp,
    ProbeSet,
    Subspace,
    _SparseSolver,
    _band_lu,
    adjoint,
    coercivity_check,
    kernel_range,
    strong_gap,
    wot_gap,
)


def random_space(dim, seed, field="real"):
    rng = np.random.default_rng(seed)
    return HilbertSpace(dim, weight=rng.uniform(0.5, 2.0, size=dim), field=field)


class TestHilbertSpace:
    def test_read_only_float_weight_is_kept_and_others_copied(self):
        constant = np.broadcast_to(0.25, 6)
        assert HilbertSpace(6, weight=constant).weight is constant
        writable = np.full(6, 0.25)
        space = HilbertSpace(6, weight=writable)
        writable[0] = 9.0
        assert space.weight[0] == 0.25
        ints = np.ones(6, dtype=int)
        ints.flags.writeable = False
        assert HilbertSpace(6, weight=ints).weight.dtype == float

    def test_compatible_without_a_comparison_for_a_shared_weight(self, monkeypatch):
        a = random_space(5, 1)
        b = HilbertSpace(5, weight=np.broadcast_to(0.5, 5))
        c = HilbertSpace(5, weight=b.weight)
        assert a.compatible(HilbertSpace(5, weight=a.weight.copy()))

        def no_comparison(*args, **kwargs):
            raise AssertionError("weights compared")

        monkeypatch.setattr(np, "allclose", no_comparison)
        assert a.compatible(a) and b.compatible(c) and c.compatible(b)
        assert not b.compatible(HilbertSpace(4, weight=np.broadcast_to(0.5, 4)))

    def test_inner_antilinear_first_slot(self):
        space = HilbertSpace(3, weight=np.array([1.0, 2.0, 3.0]), field="complex")
        x = np.array([1.0 + 1j, 0.0, 2.0])
        y = np.array([0.5, 1j, -1.0])
        lam = 0.7 - 0.3j
        assert np.isclose(space.inner(lam * x, y), np.conj(lam) * space.inner(x, y))
        assert np.isclose(space.inner(x, lam * y), lam * space.inner(x, y))

    def test_weight_must_be_positive(self):
        with pytest.raises(ShapeError):
            HilbertSpace(2, weight=np.array([1.0, -1.0]))
        with pytest.raises(ShapeError):
            HilbertSpace(2, weight=np.array([[1.0, 3.0], [3.0, 1.0]]))
        # a weight is its diagonal mass entries: a positive-definite matrix
        # is refused for its shape
        with pytest.raises(ShapeError, match=r"expected \(2,\)"):
            HilbertSpace(2, weight=np.array([[2.0, 0.5], [0.5, 1.0]]))


class TestAdjoint:
    def test_identity_weight_symmetric(self):
        # symmetric real matrix, W = I: adjoint is the matrix itself
        space = HilbertSpace(4)
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4))
        m = m + m.T
        op = LinearOp(space, space, matrix=m)
        np.testing.assert_allclose(adjoint(op).to_dense(), m, atol=1e-14)

    def test_pairing_identity_random(self):
        # oracle: direct inner-product comparison on random vectors
        src = random_space(10, 1)
        tgt = random_space(10, 2)
        rng = np.random.default_rng(3)
        a = LinearOp(src, tgt, matrix=rng.standard_normal((10, 10)))
        astar = adjoint(a)
        for _ in range(5):
            x = rng.standard_normal(10)
            y = rng.standard_normal(10)
            assert abs(tgt.inner(y, a(x)) - src.inner(astar(y), x)) < 1e-12

    def test_pairing_identity_complex(self):
        src = random_space(6, 4, field="complex")
        tgt = random_space(6, 5, field="complex")
        rng = np.random.default_rng(6)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = LinearOp(src, tgt, matrix=m)
        astar = adjoint(a)
        for _ in range(5):
            x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            assert abs(tgt.inner(y, a(x)) - src.inner(astar(y), x)) < 1e-11

    def test_block_offdiagonal_adjoint(self):
        # [[0, B], [C, 0]] has adjoint [[0, C*], [B*, 0]]
        h0 = random_space(3, 7)
        h1 = random_space(4, 8)
        rng = np.random.default_rng(9)
        b = rng.standard_normal((3, 4))   # B : H1 -> H0
        c = rng.standard_normal((4, 3))   # C : H0 -> H1
        w = np.concatenate([h0.weight, h1.weight])
        big = HilbertSpace(7, weight=w)
        block = np.zeros((7, 7))
        block[:3, 3:] = b
        block[3:, :3] = c
        op = LinearOp(big, big, matrix=block)
        bstar = adjoint(LinearOp(h1, h0, matrix=b)).to_dense()
        cstar = adjoint(LinearOp(h0, h1, matrix=c)).to_dense()
        expected = np.zeros((7, 7))
        expected[:3, 3:] = cstar
        expected[3:, :3] = bstar
        np.testing.assert_allclose(adjoint(op).to_dense(), expected, atol=1e-12)

    def test_involution(self):
        src = random_space(8, 11)
        tgt = random_space(8, 12)
        rng = np.random.default_rng(13)
        m = rng.standard_normal((8, 8))
        for a in (LinearOp(src, tgt, matrix=m), LinearOp(src, tgt, apply=lambda x: m @ x)):
            np.testing.assert_allclose(adjoint(adjoint(a)).to_dense(), m, atol=1e-12)

    def test_matrix_free_adjoint_is_that_of_its_matrix(self):
        src = random_space(4, 17)
        tgt = random_space(3, 18)
        m = np.random.default_rng(19).standard_normal((3, 4))
        free = adjoint(LinearOp(src, tgt, apply=lambda x: m @ x))
        np.testing.assert_allclose(free.to_dense(),
                                   adjoint(LinearOp(src, tgt, matrix=m)).to_dense(),
                                   rtol=0, atol=1e-12)

    def test_matrix_free_pairing(self):
        space = random_space(5, 14)
        rng = np.random.default_rng(15)
        m = rng.standard_normal((5, 5))
        op = LinearOp(space, space, apply=lambda x: m @ x)
        astar = adjoint(op)
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        assert abs(space.inner(y, op(x)) - space.inner(astar(y), x)) < 1e-12


class TestKernelRange:
    def test_zero_operator(self):
        space = HilbertSpace(5)
        op = LinearOp(space, space, matrix=np.zeros((5, 5)))
        ker, ran = kernel_range(op)
        assert ker.dim == 5
        assert ran.dim == 0

    def test_rank_nullity_with_adjoint(self):
        src = random_space(7, 20)
        tgt = random_space(5, 21)
        rng = np.random.default_rng(22)
        m = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 7))  # rank 3
        op = LinearOp(src, tgt, matrix=m)
        ker, ran = kernel_range(op)
        ker_adj, ran_adj = kernel_range(adjoint(op))
        assert ker.dim + ran_adj.dim == src.dim
        assert ran.dim == ran_adj.dim == 3

    def test_kernel_perp_range_of_adjoint(self):
        # cross Gram between ker(A) and ran(A*) vanishes
        src = random_space(6, 23)
        tgt = random_space(6, 24)
        rng = np.random.default_rng(25)
        m = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 6))
        op = LinearOp(src, tgt, matrix=m)
        ker, _ = kernel_range(op)
        _, ran_adj = kernel_range(adjoint(op))
        g = np.array([[src.inner(ker.basis[:, i], ran_adj.basis[:, j])
                       for j in range(ran_adj.dim)] for i in range(ker.dim)])
        assert np.abs(g).max() < 1e-8


class TestCoercivity:
    def test_scalar_multiple_of_identity(self):
        space = HilbertSpace(4)
        op = LinearOp(space, space, matrix=2.0 * np.eye(4))
        rep = coercivity_check(op, 2.0, 2.0)
        assert np.isclose(rep.re_min, 2.0)
        assert np.isclose(rep.re_inv_min, 0.5)
        assert rep.passed

    def test_rotation_like_2x2(self):
        # T = [[1,-1],[1,1]]: Re T = I, Re T^{-1} = I/2, so T is in F(1, 2)
        space = HilbertSpace(2)
        op = LinearOp(space, space, matrix=np.array([[1.0, -1.0], [1.0, 1.0]]))
        rep = coercivity_check(op, 1.0, 2.0)
        assert np.isclose(rep.re_min, 1.0)
        assert np.isclose(rep.re_inv_min, 0.5)
        assert rep.passed

    def test_failing_alpha(self):
        # eigenvalue oracle: symmetric matrix with lambda_min(Re T) = 0.3
        rng = np.random.default_rng(30)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        m = q @ np.diag([0.3, 1.0, 2.0, 3.0, 4.0]) @ q.T
        space = HilbertSpace(5)
        op = LinearOp(space, space, matrix=m)
        rep = coercivity_check(op, 1.0, 10.0)
        assert np.isclose(rep.re_min, 0.3)
        assert not rep.alpha_ok

    def test_singular_flagged(self):
        space = HilbertSpace(3)
        op = LinearOp(space, space, matrix=np.diag([1.0, 1.0, 0.0]))
        rep = coercivity_check(op, 0.5, 2.0)
        assert rep.singular
        assert not rep.beta_ok

    def test_inverse_symmetry(self):
        # T in F(alpha, beta)  =>  T^{-1} in F(1/beta, 1/alpha)
        rng = np.random.default_rng(31)
        for trial in range(20):
            n = 6
            m = rng.standard_normal((n, n))
            m = 0.5 * (m + m.T) + n * np.eye(n) + 0.3 * (m - m.T)
            space = random_space(n, 100 + trial)
            op = LinearOp(space, space, matrix=m)
            alpha = coercivity_check(op, 1e-6, 1e6).re_min
            beta = 1.0 / coercivity_check(op, 1e-6, 1e6).re_inv_min
            assert coercivity_check(op, alpha - 1e-9, beta + 1e-9).passed
            inv = LinearOp(space, space, matrix=np.linalg.inv(m))
            assert coercivity_check(inv, 1.0 / beta - 1e-9, 1.0 / alpha + 1e-9).passed

    def test_weighted_pencil_matches_rayleigh_sampling(self):
        # independent oracle: minimize the Rayleigh quotient by dense search
        space = random_space(5, 32)
        rng = np.random.default_rng(33)
        m = rng.standard_normal((5, 5)) + 3 * np.eye(5)
        op = LinearOp(space, space, matrix=m)
        rep = coercivity_check(op, 1e-9, 1e9)
        samples = []
        for _ in range(2000):
            x = rng.standard_normal(5)
            samples.append(space.inner(x, m @ x).real / space.inner(x, x).real)
        assert rep.re_min <= min(samples) + 1e-9


class TestSubspace:
    def test_explicit_orthonormality_enforced(self):
        space = random_space(5, 40)
        bad = np.eye(5)[:, :2]  # not W-orthonormal for non-unit weight
        with pytest.raises(ShapeError):
            Subspace(space, basis=bad)
        sub = Subspace.from_span(space, [bad[:, 0], bad[:, 1]])
        assert sub.dim == 2

    def test_projection_idempotent(self):
        space = random_space(8, 41)
        rng = np.random.default_rng(42)
        sub = Subspace.from_span(space, [rng.standard_normal(8) for _ in range(3)])
        v = rng.standard_normal(8)
        p = sub.project(v)
        np.testing.assert_allclose(sub.project(p), p, atol=1e-12)
        # residual orthogonal to the subspace
        assert abs(space.inner(p, v - p)) < 1e-12

    def test_implicit_generator_matches_explicit(self):
        import scipy.sparse as sp

        space = random_space(9, 43)
        rng = np.random.default_rng(44)
        g = rng.standard_normal((9, 4))
        sub_e = Subspace.from_span(space, [g[:, j] for j in range(4)])
        sub_i = Subspace.from_generator(space, sp.csr_matrix(g))
        v = rng.standard_normal(9)
        np.testing.assert_allclose(sub_i.project(v), sub_e.project(v), atol=1e-10)

    def test_complement(self):
        space = random_space(6, 45)
        rng = np.random.default_rng(46)
        sub = Subspace.from_span(space, [rng.standard_normal(6) for _ in range(2)])
        comp = Subspace.complement(sub)
        assert comp.dim == 4
        v = rng.standard_normal(6)
        np.testing.assert_allclose(sub.project(v) + comp.project(v), v, atol=1e-12)


class GramSolver:
    """A Gram solver for ``Subspace.from_generator`` that returns ``f`` of
    the exact solution of G^H W G x = b."""

    def __init__(self, g, weight, f):
        self.gram, self.f = (g.T * weight) @ g, f

    def solve(self, rhs):
        return self.f(np.linalg.solve(self.gram, rhs))


class TestProjectorChecks:
    """``Subspace.from_generator`` checks its projector, and every check
    fails on NaN."""

    def test_solver_that_doubles_its_load_is_not_idempotent(self):
        space = random_space(6, 47)
        g = np.random.default_rng(48).standard_normal((6, 2))
        with pytest.raises(ShapeError, match="not idempotent"):
            Subspace.from_generator(space, g, GramSolver(g, space.weight, lambda x: 2 * x))

    def test_idempotent_non_symmetric_projector_is_refused(self):
        space = HilbertSpace(4)
        g = np.eye(4)[:, :2]
        skew = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ShapeError, match="not weighted-self-adjoint"):
            Subspace.from_generator(space, g, GramSolver(g, space.weight, lambda x: skew @ x))

    def test_nan_projector_fails(self):
        space = random_space(6, 49)
        g = np.random.default_rng(50).standard_normal((6, 2))
        with pytest.raises(ShapeError, match="not idempotent"):
            Subspace.from_generator(space, g, GramSolver(g, space.weight, lambda x: x * np.nan))

    def test_nan_basis_is_not_orthonormal(self):
        with pytest.raises(ShapeError, match="not weighted-orthonormal"):
            Subspace(HilbertSpace(3), basis=np.full((3, 1), np.nan))

    @pytest.mark.parametrize("contract", [lambda v: v, lambda v: v[:], np.zeros_like])
    def test_implicit_complement_leaves_its_input_alone(self, contract):
        # a projector contract may return its input or a view of it
        space = random_space(6, 53, "complex")
        comp = Subspace.complement(Subspace(space, project=contract))
        v = np.random.default_rng(54).standard_normal((6, 3)) * (1 + 2j)
        before = v.copy()
        out = comp.project(v)
        np.testing.assert_array_equal(v, before)
        np.testing.assert_array_equal(out, before - contract(before))

    def test_implicit_complement_of_a_real_projector_keeps_a_complex_input(self):
        space = random_space(6, 55, "complex")
        comp = Subspace.complement(Subspace(space, project=lambda v: np.zeros(v.shape), dim=0))
        v = np.random.default_rng(56).standard_normal(6) * (1 - 1j)
        np.testing.assert_array_equal(comp.project(v), v)

    def test_implicit_complement_is_i_minus_p(self):
        space = random_space(6, 57)
        sub = Subspace.from_generator(space, np.random.default_rng(58).standard_normal((6, 2)))
        v = np.random.default_rng(59).standard_normal((6, 3))
        before = v.copy()
        np.testing.assert_array_equal(Subspace.complement(sub).project(v), v - sub.project(v))
        np.testing.assert_array_equal(v, before)

    def test_implicit_complement_runs_no_check(self, monkeypatch):
        space = random_space(6, 51)
        sub = Subspace.from_generator(space, np.random.default_rng(52).standard_normal((6, 2)))
        monkeypatch.setattr(Subspace, "_verify_projector", lambda self: pytest.fail("checked"))
        comp = Subspace.complement(sub)
        assert comp.basis is None and comp.dim == 4


class TestProbeSet:
    def test_unit_norm_enforced(self):
        space = HilbertSpace(4)
        with pytest.raises(ShapeError):
            ProbeSet(space, [np.array([2.0, 0, 0, 0])])
        with pytest.raises(ShapeError):
            ProbeSet(space, [])

    def test_nan_probes_are_not_unit_norm(self):
        with pytest.raises(ShapeError, match="deviates from 1"):
            ProbeSet(HilbertSpace(3), np.full((3, 2), np.nan))

    def test_random_reproducible(self):
        space = random_space(6, 50)
        a = ProbeSet.random(space, count=5, seed=7)
        b = ProbeSet.random(space, count=5, seed=7)
        np.testing.assert_array_equal(a.matrix, b.matrix)


class TestGaps:
    def setup_method(self):
        self.space = random_space(12, 60)
        self.probes = ProbeSet.random(self.space, count=6, seed=61)

    def _op(self, m):
        return LinearOp(self.space, self.space, matrix=m)

    def test_identical_operators(self):
        rng = np.random.default_rng(62)
        m = rng.standard_normal((12, 12))
        assert wot_gap(self._op(m), self._op(m.copy()), self.probes, self.probes) == 0.0
        assert strong_gap(self._op(m), self._op(m.copy()), self.probes) == 0.0

    def test_rank_one_difference(self):
        # s - t = phi1 <psi1, .> with unit probes: gap exactly 1
        phi = self.probes.matrix[:, 0]
        psi = self.probes.matrix[:, 1]
        w_psi = self.space.apply_weight(psi)
        d = np.outer(phi, np.conj(w_psi))
        s = self._op(np.eye(12) + d)
        t = self._op(np.eye(12))
        assert np.isclose(wot_gap(s, t, self.probes, self.probes), 1.0, atol=1e-12)
        assert np.isclose(strong_gap(s, t, self.probes), 1.0, atol=1e-12)

    def test_pseudo_metric(self):
        rng = np.random.default_rng(63)
        ops = [self._op(rng.standard_normal((12, 12))) for _ in range(3)]
        d01 = wot_gap(ops[0], ops[1], self.probes, self.probes)
        d10 = wot_gap(ops[1], ops[0], self.probes, self.probes)
        d02 = wot_gap(ops[0], ops[2], self.probes, self.probes)
        d12 = wot_gap(ops[1], ops[2], self.probes, self.probes)
        assert np.isclose(d01, d10, rtol=1e-12)
        assert d02 <= d01 + d12 + 1e-12

    def test_oscillatory_multiplier_weak_but_not_strong(self):
        # quadrature oracle: multiplication by sin(2 pi n x) pairs to zero
        # against smooth probes while its image norms stay order one
        m = 4096
        h = 1.0 / m
        x = (np.arange(m) + 0.5) * h
        space = HilbertSpace(m, weight=np.full(m, h))
        modes = [np.sqrt(2) * np.sin((k + 1) * np.pi * x) for k in range(5)]
        probes = ProbeSet.from_vectors(space, modes)
        zero = LinearOp(space, space, apply=lambda v: 0 * v)
        gaps_w, gaps_s = [], []
        for n in (4, 16, 64):
            mult = LinearOp(space, space, matrix=sp.diags(np.sin(2 * np.pi * n * x)))
            gaps_w.append(wot_gap(mult, zero, probes, probes))
            gaps_s.append(strong_gap(mult, zero, probes))
        assert gaps_w[0] > gaps_w[1] > gaps_w[2]
        assert gaps_w[2] < 5e-3
        assert all(g > 0.5 for g in gaps_s)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_operators_that_return_their_input_leave_the_probes_alone(self, field):
        space = random_space(12, 64, field)
        probes = ProbeSet.random(space, count=6, seed=65)
        before = probes.matrix.copy()
        other = LinearOp(space, space, matrix=np.random.default_rng(66).standard_normal((12, 12)))
        for same in (lambda v: v, lambda v: v[:]):
            ident = LinearOp(space, space, apply=same)
            for s, t in [(ident, other), (other, ident), (ident, ident)]:
                ref = s(before) - t(before)
                assert wot_gap(s, t, probes, probes) == np.abs(space.gram(before, ref)).max()
                assert strong_gap(s, t, probes) == space.column_norms(ref).max()
                np.testing.assert_array_equal(probes.matrix, before)

    def test_chunked_gaps_match_the_one_block_formula(self):
        from homlab import hilbert

        # 8 probes on this space exceed the block budget: two chunks
        dim = hilbert._BLOCK_ENTRIES // 8 + 4096
        space = random_space(dim, 67, "complex")
        right = ProbeSet.random(space, count=8, seed=68)
        left = ProbeSet.random(space, count=5, seed=69)
        rng = np.random.default_rng(70)
        mats = [sp.diags([rng.standard_normal(dim - 1), rng.standard_normal(dim)], [1, 0])
                for _ in range(2)]
        widths = []

        def traced(m):
            return LinearOp(space, space, apply=lambda v: widths.append(v.shape[1]) or m @ v)

        s, t = traced(mats[0]), traced(mats[1])
        d = mats[0] @ right.matrix - mats[1] @ right.matrix
        ref_wot = np.abs(space.gram(left.matrix, d)).max()
        ref_strong = space.column_norms(d).max()
        assert abs(wot_gap(s, t, left, right) - ref_wot) <= 1e-12 * ref_wot
        assert abs(strong_gap(s, t, right) - ref_strong) <= 1e-12 * ref_strong
        assert widths == [7, 7, 1, 1] * 2    # s and t on 7 columns, then on 1, per gap

    def test_dimension_mismatch(self):
        other = HilbertSpace(5)
        op5 = LinearOp(other, other, matrix=np.eye(5))
        op12 = self._op(np.eye(12))
        with pytest.raises(ShapeError):
            wot_gap(op5, op12, self.probes, self.probes)


class TestClosureSurrogate:
    def test_coercivity_closed_under_probe_limits(self):
        # if every T_n passes and wot gaps against T vanish with spanning
        # probes, T passes up to 1e-8
        space = random_space(6, 70)
        rng = np.random.default_rng(71)
        base = rng.standard_normal((6, 6))
        base = 0.5 * (base + base.T) + 6 * np.eye(6)
        t_lim = LinearOp(space, space, matrix=base)
        alpha = coercivity_check(t_lim, 1e-9, 1e9).re_min - 1e-12
        beta = 1.0 / coercivity_check(t_lim, 1e-9, 1e9).re_inv_min + 1e-12
        probes = ProbeSet.random(space, count=8, seed=72)  # spans the space w.p. 1
        pert = rng.standard_normal((6, 6))
        pert = 0.1 * (pert + pert.T)
        gaps = []
        for n in (1, 2, 4, 8, 16):
            tn = LinearOp(space, space, matrix=base + pert / n)
            gaps.append(wot_gap(tn, t_lim, probes, probes))
        assert gaps[-1] < gaps[0]
        assert coercivity_check(t_lim, alpha, beta, tol=1e-8).passed


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_adjoint_involution_property(dim, seed):
    rng = np.random.default_rng(seed)
    space = HilbertSpace(dim, weight=rng.uniform(0.5, 2.0, size=dim))
    m = rng.standard_normal((dim, dim))
    op = LinearOp(space, space, matrix=m)
    np.testing.assert_allclose(adjoint(adjoint(op)).to_dense(), m, atol=1e-11)


def random_sparse(n, seed, complex_=False):
    rng = np.random.default_rng(seed)
    m = sp.random(n, n, density=0.2, random_state=seed)
    if complex_:
        m = m + 1j * sp.random(n, n, density=0.2, random_state=seed + 1)
    return (m + n * sp.eye(n)).tocsc(), rng


class TestSparseSolver:
    @pytest.mark.parametrize("complex_factor, complex_rhs",
                             [(False, False), (True, True), (False, True)])
    def test_block_rhs_matches_single_solves_bitwise(self, complex_factor, complex_rhs):
        k, rng = random_sparse(30, 3, complex_factor)
        b = rng.standard_normal((30, 4))
        if complex_rhs:
            b = b + 1j * rng.standard_normal((30, 4))
        solver = _SparseSolver(k)
        block = solver.solve(b)
        for j in range(4):
            assert np.array_equal(block[:, j], solver.solve(b[:, j]))
        assert np.abs(k @ block - b).max() < 1e-12

    def test_real_factor_splits_complex_rhs(self):
        k, rng = random_sparse(20, 4)
        b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        solver = _SparseSolver(k)
        x = solver.solve(b)
        assert np.array_equal(x, solver.solve(b.real) + 1j * solver.solve(b.imag))

    def test_residual_miss_raises(self):
        k, rng = random_sparse(20, 6)
        with pytest.raises(SolverDiverged, match="residual"):
            _SparseSolver(k, tol=1e-30).solve(rng.standard_normal(20))

    def test_singular_matrix_raises_not_in_m(self):
        k = sp.diags([1.0, 0.0, 2.0]).tocsc()
        with pytest.raises(NotInM, match="singular"):
            _SparseSolver(k)

    def test_nan_residual_misses_every_tolerance(self):
        k, _ = random_sparse(10, 7)
        with pytest.raises(SolverDiverged, match="nan"):
            _SparseSolver(k, tol=np.inf).solve(np.full(10, np.nan))

    def test_infinite_tolerance_tests_x_with_no_product(self, monkeypatch):
        # a caller that checks a larger system: only a non-finite x fails
        from homlab import hilbert

        def no_residual(*args):
            raise AssertionError("a residual was formed")

        k, rng = random_sparse(10, 7)
        rhs = rng.standard_normal((10, 3))
        ref = _SparseSolver(k).solve(rhs)
        solver = _SparseSolver(k, tol=np.inf)
        monkeypatch.setattr(hilbert, "_check_residual", no_residual)
        np.testing.assert_array_equal(solver.solve(rhs), ref)
        with pytest.raises(SolverDiverged, match="nan"):
            solver.solve(np.full(10, np.nan))
        rhs[4, 1] = np.inf
        with pytest.raises(SolverDiverged, match="column 1"):
            solver.solve(rhs)


class TestBandLU:
    """``_band_lu`` against SuperLU as an independent oracle."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("ordered", [False, True])
    def test_non_hermitian_solve_matches_superlu(self, complex_, ordered):
        k, rng = random_sparse(40, 15, complex_)
        assert abs(k - k.conj().T).max() > 0.1
        order = rng.permutation(40) if ordered else None
        b = rng.standard_normal((40, 3))
        x, ref = _band_lu(k, order)(b), spla.splu(k).solve(b)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_real_factor_takes_a_complex_load(self):
        k, rng = random_sparse(30, 16)
        b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        x, ref = _band_lu(k)(b), spla.splu(k.astype(complex)).solve(b)
        assert np.iscomplexobj(x)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_zero_pivot_raises_not_in_m(self):
        k = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 3.0]]))
        with pytest.raises(NotInM, match="singular"):
            _band_lu(k, np.arange(3))

    def test_band_that_cannot_fit_raises_before_allocating(self, monkeypatch):
        # corner entries in natural order make the band n - 1 wide: 2^14
        # unknowns would store about 8e8 entries (6.4 GB)
        n = 2 ** 14
        k = sp.identity(n, format="csr") + sp.csr_matrix(([0.5, 0.5], ([0, n - 1], [n - 1, 0])),
                                                         shape=(n, n))
        monkeypatch.setattr(np, "zeros", None)    # no band is allocated
        with pytest.raises(ShapeError, match=r"band \(16383, 16383\)"):
            _SparseSolver(k, order=np.arange(n))

    @pytest.mark.parametrize("complex_rhs", [False, True])
    def test_block_comes_back_c_ordered(self, complex_rhs):
        k, rng = random_sparse(30, 17)
        b = rng.standard_normal((30, 4))
        if complex_rhs:
            b = b + 1j * rng.standard_normal((30, 4))
        assert _band_lu(k)(b).flags.c_contiguous
        assert _SparseSolver(k).solve(b).flags.c_contiguous


class TestSparseOrderingRule:
    """K is factorised by one band LU, its unknowns taken in the caller's
    order or by reverse Cuthill-McKee; grid matrices that a grid solver
    serves never reach it."""

    def test_schur_maps_of_a_laminate_factorise_no_grid_matrix(self, band_lu_calls):
        # the K_a = G^H W a G of schur_equiv_check at n = 8 (16129 unknowns)
        # separates, so the exact transform solver serves it
        from homlab.elliptic import GridDomain, build_grad
        from homlab.homogenize import CoefficientSequence, g0_decomposition
        from homlab.schur import schur_maps

        seq = CoefficientSequence.laminate(
            lambda y: np.where(np.asarray(y) < 0.5, 1.0, 4.0), bounds=(1.0, 4.0))
        dom = GridDomain.box((128, 128))
        grad = build_grad(dom, "dirichlet")
        dec = g0_decomposition(grad)
        maps = schur_maps(seq.field(8, dom).operator(grad), dec)
        maps.m00inv(np.random.default_rng(13).standard_normal((grad.vector_space.dim, 2)))
        n = grad.scalar_space.dim
        assert (n, n) not in [shape for shape, _, _ in band_lu_calls]

    def test_checkerboard_galerkin_matrix_is_solved_without_splu(self, band_lu_calls):
        # a checkerboard K_a does not separate and runs preconditioned CG,
        # which matches one band LU solve of the same Galerkin system
        from homlab.elliptic import CoefficientField, GridDomain, build_grad, galerkin_matrix
        from homlab.homogenize import g0_decomposition
        from homlab.schur import schur_maps

        dom = GridDomain.box((16, 16))
        grad = build_grad(dom, "dirichlet")
        a = CoefficientField.from_function(
            dom, lambda p: np.where((np.floor(2 * p[:, 0]) + np.floor(2 * p[:, 1])) % 2 == 0,
                                    1.0, 4.0), bounds=(1.0, 4.0))
        g = grad.matrix
        ghw = g.T @ sp.diags(grad.vector_space.weight)
        oracle = _SparseSolver(galerkin_matrix(grad, a))
        phi = np.random.default_rng(14).standard_normal((grad.vector_space.dim, 3))
        ref = g @ oracle.solve(ghw @ phi)
        band_lu_calls.clear()
        maps = schur_maps(a.operator(grad), g0_decomposition(grad))
        got = maps.m00inv(phi)
        assert band_lu_calls == []
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("case", ["saddle", "swap", "complex"])
    def test_indefinite_and_complex_hermitian_solve(self, case):
        rng = np.random.default_rng(11)
        if case == "saddle":
            # [[K, B^T], [B, 0]]: zero diagonal on the constraint block
            k, _ = random_sparse(20, 9)
            b = sp.random(5, 20, density=0.3, random_state=10) + sp.eye(5, 20)
            mat = sp.bmat([[k + k.T, b.T], [b, None]]).tocsc()
        elif case == "swap":
            mat = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        else:
            k, _ = random_sparse(25, 12, complex_=True)
            mat = (k + k.conj().T).tocsc()
        solver = _SparseSolver(mat)
        rhs = rng.standard_normal((mat.shape[0], 3))
        x = solver.solve(rhs)   # residual-checked at 1e-10
        assert np.abs(mat @ x - rhs).max() < 1e-10


def _block_structured(sizes, seed, complex_, zero_unknown):
    """A non-Hermitian sparse T whose Hermitian part falls apart into blocks
    of the given sizes (singletons included), scattered by a permutation,
    with a positive diagonal weight. With zero_unknown, one unknown has an
    empty row and column."""
    rng = np.random.default_rng(seed)
    blocks = []
    for k in sizes:
        b = rng.standard_normal((k, k)) * (rng.uniform(size=(k, k)) < 0.7)
        if complex_:
            b = b + 1j * rng.standard_normal((k, k))
        blocks.append(b + rng.uniform(-1.0, 3.0) * np.eye(k))
    n = sum(sizes)
    perm = rng.permutation(n)
    t = sp.block_diag(blocks, format="csr")[perm][:, perm].tolil()
    if zero_unknown:
        t[int(rng.integers(n)), :] = 0
        t[:, int(rng.integers(n))] = 0
    return HilbertSpace(n, weight=rng.uniform(0.2, 5.0, n)), t.tocsr()


def _dense_lambda_min(space, t):
    d = np.sqrt(space.weight)
    that = d[:, None] * t.toarray() / d[None, :]
    vals = np.linalg.eigvalsh(0.5 * (that + that.conj().T))
    return vals[0], np.abs(vals).max()


def _component_sizes(space, t):
    """Sizes of the connected components of Re T's pattern in the weighted
    frame, found without homlab."""
    from scipy.sparse import csgraph

    d = np.sqrt(space.weight)
    that = d[:, None] * t.toarray() / d[None, :]
    pattern = sp.csr_matrix(0.5 * (that + that.conj().T) != 0)
    n_comp, labels = csgraph.connected_components(pattern, directed=False)
    return np.bincount(labels, minlength=n_comp)


@pytest.fixture
def no_arpack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ARPACK in a coercivity certificate")

    monkeypatch.setattr(spla, "eigsh", refuse)


class TestSparseCoercivityBound:
    """``_sym_lambda_min`` on sparse T: per connected component of Re T,
    singletons off the diagonal and every larger block by ``eig_banded``;
    never through a dense eigvalsh or ARPACK. A block above the work bound
    and the Re(T^-1) bound of a large sparse T raise ``ShapeError``."""

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 8), min_size=1, max_size=9),
           seed=st.integers(0, 10**6), complex_=st.booleans(),
           zero_unknown=st.booleans(), small_bound=st.booleans())
    def test_matches_dense_eigvalsh(self, sizes, seed, complex_, zero_unknown,
                                    small_bound):
        from homlab import hilbert

        space, t = _block_structured(sizes, seed, complex_, zero_unknown)
        ref, scale = _dense_lambda_min(space, t)

        def refuse(*args, **kwargs):
            raise AssertionError("dense eigvalsh or ARPACK on a sparse operator")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hilbert.scipy.linalg, "eigvalsh", refuse)
            mp.setattr(spla, "eigsh", refuse)
            if small_bound:
                # size^2 x bandwidth: a pair is 4, any block of 3 or more
                # unknowns at least 9, so every such block is refused
                mp.setattr(hilbert, "_BANDED_WORK_CUTOFF", 8)
                if _component_sizes(space, t).max() >= 3:
                    with pytest.raises(ShapeError, match="bandwidth"):
                        hilbert._sym_lambda_min(space, t)
                    return
            got = hilbert._sym_lambda_min(space, t)
        assert abs(got - ref) <= 1e-12 * max(abs(ref), scale), (got, ref)

    def test_components_are_found(self, monkeypatch):
        # three multi-unknown blocks and two singletons: three banded solves
        from homlab import hilbert

        calls = []
        banded = hilbert.scipy.linalg.eig_banded
        monkeypatch.setattr(hilbert.scipy.linalg, "eig_banded",
                            lambda *a, **k: calls.append(a[0].shape) or banded(*a, **k))
        space, t = _block_structured([3, 1, 5, 2, 1], 7, False, False)
        ref, _ = _dense_lambda_min(space, t)
        assert hilbert._sym_lambda_min(space, t) == pytest.approx(ref, rel=1e-12)
        assert sorted(shape[1] for shape in calls) == [2, 3, 5]

    @pytest.mark.parametrize("sparse", [True, False])
    def test_overflowing_hermitian_part_is_a_coercivity_error(self, sparse):
        # Re T = (T + T^H)/2 overflows; eig_banded and eigvalsh would raise a
        # raw ValueError on its infinities
        from homlab import hilbert
        from homlab.errors import CoercivityError

        t = np.array([[1.5e308, 1.5e308], [1.5e308, 1.5e308]])
        with warnings.catch_warnings():
            # the overflow is the error, never a numpy warning before it
            warnings.simplefilter("error")
            with pytest.raises(CoercivityError, match="overflows"):
                hilbert._sym_lambda_min(HilbertSpace(2), sp.csr_matrix(t) if sparse else t)

    def test_large_component_is_banded(self, no_arpack):
        # a 2-d grid block of 3600 unknowns and bandwidth 60 after RCM:
        # size^2 x bandwidth is 7.8e8, below the work bound
        from homlab import hilbert

        m = 60
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
        t = (sp.kronsum(lap, lap) + 0.5 * sp.eye(m * m)).tocsr()
        got = hilbert._sym_lambda_min(HilbertSpace(m * m), t)
        exact = 0.5 + 2 * (4 * np.sin(np.pi / (2 * (m + 1))) ** 2)
        assert got == pytest.approx(exact, rel=1e-10)

    def test_long_chain_is_banded(self, no_arpack):
        # 12000^2 x 1 = 1.44e8 units of banded work: a 1-d chain longer
        # than any shipped config builds
        from homlab import hilbert

        n = 12000
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
        got = hilbert._sym_lambda_min(HilbertSpace(n), t)
        exact = 4 * np.sin(np.pi / (2 * (n + 1))) ** 2
        assert abs(got - exact) <= 1e-12 * 4.0

    def test_component_above_the_work_bound_is_refused(self, monkeypatch, no_arpack):
        from homlab import hilbert

        monkeypatch.setattr(hilbert, "_BANDED_WORK_CUTOFF", 1e4)
        n = 30   # 30^2 x 1 = 900 passes, a 2-d 30 x 30 block does not
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
        assert hilbert._sym_lambda_min(HilbertSpace(n), lap) > 0
        grid = sp.kronsum(lap, lap).tocsr()
        with pytest.raises(ShapeError, match=r"900 unknowns and bandwidth 30\b"):
            hilbert._sym_lambda_min(HilbertSpace(n * n), grid)

    def test_inverse_bound_of_a_large_sparse_operator_is_refused(self, no_arpack):
        from homlab import hilbert

        n = hilbert._DENSE_EIG_CUTOFF + 1
        space = HilbertSpace(n, weight=np.full(n, 0.5))
        t = sp.diags([-1.0, 3.0, 0.5], [-1, 0, 1], shape=(n, n), format="csr")
        with pytest.raises(ShapeError, match=f"{n} unknowns"):
            coercivity_check(LinearOp(space, space, matrix=t), 0.1, 10.0)
        # the same operator one unknown smaller is certified
        k = hilbert._DENSE_EIG_CUTOFF
        small = HilbertSpace(k, weight=np.full(k, 0.5))
        rep = coercivity_check(LinearOp(small, small, matrix=t[:k, :k]), 0.1, 10.0)
        assert rep.re_min > 0 and not rep.singular


def _old_check(k, x, b, tol):
    """The residual test as np.linalg.norm forms it: the columns that miss."""
    res = np.atleast_1d(np.linalg.norm(k @ x - b, axis=0))
    return ~(res <= tol * np.maximum(1.0, np.linalg.norm(b, axis=0)))


class TestCheckResidual:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("shape", [(40,), (40, 4)])
    def test_decides_as_the_2_norm(self, field, shape):
        from homlab.hilbert import _check_residual

        rng = np.random.default_rng(41)
        draw = lambda: rng.standard_normal(shape) + (1j * rng.standard_normal(shape)
                                                     if field == "complex" else 0)
        k = sp.identity(40, format="csr")
        b = 3.0 * draw()
        for scale in (0.5e-10, 0.99e-10, 1.01e-10, 2e-10):
            r = draw()
            r *= scale * np.maximum(1.0, np.linalg.norm(b, axis=0)) / np.linalg.norm(r, axis=0)
            misses = _old_check(k, b + r, b, 1e-10)
            if misses.any():
                with pytest.raises(SolverDiverged, match="misses 1.0e-10"):
                    _check_residual(k, b + r, b, 1e-10)
            else:
                _check_residual(k, b + r, b, 1e-10)
            assert misses.all() == (scale > 1e-10)

    def test_nan_misses_in_its_column(self):
        from homlab.hilbert import _check_residual

        k = sp.identity(5, format="csr")
        x = np.ones((5, 3))
        _check_residual(k, x, x.copy(), 1e-10)
        x[2, 1] = np.nan
        with pytest.raises(SolverDiverged, match="in column 1"):
            _check_residual(k, x, np.ones((5, 3)), 1e-10)
        with pytest.raises(SolverDiverged):
            _check_residual(k, np.full(5, np.nan), np.ones(5), 1e-10)
