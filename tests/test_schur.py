"""Tests for block decompositions, Schur maps, and block-inverse algebra."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.errors import NotInM, ShapeError
from homlab.hilbert import (
    HilbertSpace,
    LinearOp,
    ProbeSet,
    Subspace,
    _dense_lu,
    coercivity_check,
    wot_gap,
)
from homlab.schur import (
    Decomposition,
    block_inverse,
    blocks,
    class_membership,
    finite_shuffle,
    inversion_swap_check,
    schur_complement_coercivity,
    schur_maps,
    tau_gap,
)


def euclidean_dec(n, k, seed=0):
    space = HilbertSpace(n)
    rng = np.random.default_rng(seed)
    h0 = Subspace.from_span(space, [rng.standard_normal(n) for _ in range(k)])
    return space, Decomposition.from_subspace(space, h0)


def coercive_operator(space, alpha, beta, seed):
    """Seeded member of F(alpha, beta): SPD spectrum inside (alpha, beta)
    plus a small normalized skew part, conjugated into the weighted frame.
    Membership is verified by the defining check before returning."""
    rng = np.random.default_rng(seed)
    n = space.dim
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spec = rng.uniform(alpha * 1.4, beta * 0.7, size=n)
    m = q @ np.diag(spec) @ q.T
    r = rng.standard_normal((n, n))
    skew = r - r.T
    nrm = np.linalg.norm(skew, 2)
    if nrm > 0:
        skew *= 0.1 * alpha / nrm
    form = m + skew
    d = np.sqrt(space.weight)
    mat = (form * d[None, :]) / d[:, None]  # W^{-1/2} form W^{1/2}
    op = LinearOp(space, space, matrix=mat)
    assert coercivity_check(op, alpha, beta).passed
    return op


class TestImplicitSumCheck:
    def test_projectors_that_do_not_sum_to_the_identity(self):
        space = HilbertSpace(4)
        e = np.eye(4)
        with pytest.raises(ShapeError, match="do not sum to the identity"):
            Decomposition(space, Subspace.from_generator(space, e[:, :2]),
                          Subspace.from_generator(space, e[:, 1:3]))

    def test_nan_projectors_do_not_sum_to_the_identity(self):
        space = HilbertSpace(4)
        nan = Subspace(space, project=lambda v: v * np.nan, dim=2)
        with pytest.raises(ShapeError, match="do not sum to the identity"):
            Decomposition(space, nan, nan)

        class NanGram:
            def solve(self, rhs):
                return np.full(np.shape(rhs), np.nan)

        with pytest.raises(ShapeError):
            Decomposition.from_generator(space, np.eye(4)[:, :2], NanGram())


class TestBlocks:
    def test_identity(self):
        space, dec = euclidean_dec(5, 2, seed=1)
        a = LinearOp(space, space, matrix=np.eye(5))
        a00, a01, a10, a11 = blocks(a, dec)
        np.testing.assert_allclose(a00, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(a11, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(a01, 0, atol=1e-12)
        np.testing.assert_allclose(a10, 0, atol=1e-12)

    def test_2x2_hand_arithmetic(self):
        space = HilbertSpace(2)
        h0 = Subspace(space, basis=np.array([[1.0], [0.0]]))
        dec = Decomposition.from_subspace(space, h0)
        a = LinearOp(space, space, matrix=np.array([[2.0, 1.0], [1.0, 2.0]]))
        a00, a01, a10, a11 = blocks(a, dec)
        assert np.isclose(a00[0, 0], 2.0)
        assert np.isclose(abs(a01[0, 0]), 1.0)
        assert np.isclose(abs(a10[0, 0]), 1.0)
        assert np.isclose(a11[0, 0], 2.0)

    def test_block_diagonal_invariant_subspaces(self):
        space = HilbertSpace(4)
        h0 = Subspace(space, basis=np.eye(4)[:, :2])
        dec = Decomposition.from_subspace(space, h0)
        m = np.zeros((4, 4))
        m[:2, :2] = [[3.0, 1.0], [0.0, 2.0]]
        m[2:, 2:] = [[1.0, 0.5], [0.5, 4.0]]
        a = LinearOp(space, space, matrix=m)
        _, a01, a10, _ = blocks(a, dec)
        assert np.abs(a01).max() == 0.0
        assert np.abs(a10).max() == 0.0

    def test_reassembly(self):
        # [i0 i1] blocks [i0 i1]* = a on random probes
        space, dec = euclidean_dec(8, 3, seed=2)
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8))
        a = LinearOp(space, space, matrix=m)
        a00, a01, a10, a11 = blocks(a, dec)
        b0, b1 = dec.h0.basis, dec.h1.basis
        emb = np.hstack([b0, b1])
        coord = np.block([[a00, a01], [a10, a11]])
        reassembled = emb @ coord @ emb.conj().T  # W = I here
        for _ in range(4):
            v = rng.standard_normal(8)
            np.testing.assert_allclose(reassembled @ v, m @ v, atol=1e-9)


class TestSchurMaps:
    def test_2x2_hand_arithmetic(self):
        space = HilbertSpace(2)
        h0 = Subspace(space, basis=np.array([[1.0], [0.0]]))
        dec = Decomposition.from_subspace(space, h0)
        a = LinearOp(space, space, matrix=np.array([[2.0, 1.0], [1.0, 2.0]]))
        maps = schur_maps(a, dec)
        assert np.isclose(maps.m00inv_mat[0, 0], 0.5)
        assert np.isclose(abs(maps.m01_mat[0, 0]), 0.5)
        assert np.isclose(abs(maps.m10_mat[0, 0]), 0.5)
        assert np.isclose(maps.ms_mat[0, 0], 1.5)

    def test_identity(self):
        space, dec = euclidean_dec(6, 2, seed=4)
        a = LinearOp(space, space, matrix=np.eye(6))
        maps = schur_maps(a, dec)
        np.testing.assert_allclose(maps.m00inv_mat, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(maps.m01_mat, 0, atol=1e-12)
        np.testing.assert_allclose(maps.m10_mat, 0, atol=1e-12)
        np.testing.assert_allclose(maps.ms_mat, np.eye(4), atol=1e-12)

    def test_singular_a00_raises(self):
        space = HilbertSpace(2)
        h0 = Subspace(space, basis=np.array([[1.0], [0.0]]))
        dec = Decomposition.from_subspace(space, h0)
        a = LinearOp(space, space, matrix=np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(NotInM):
            schur_maps(a, dec)

    def test_constant_coefficient_implicit_splitting(self):
        # constant multiplier commutes with the projectors: maps are
        # (c^{-1} I, 0, 0, c I) on the gradient-range splitting
        m = 32
        h = 1.0 / m
        space = HilbertSpace(m, weight=np.full(m, h))
        grad = sp.diags([-np.ones(m - 1), np.ones(m - 1)], [0, -1], shape=(m, m - 1)) / h
        dec = Decomposition.from_generator(space, grad.tocsr())
        c = 3.0
        a = LinearOp(space, space, matrix=sp.diags(np.full(m, c)).tocsr())
        maps = schur_maps(a, dec)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(m)
        v0 = dec.h0.project(v)
        v1 = dec.h1.project(v)
        np.testing.assert_allclose(maps.m00inv(v0), v0 / c, atol=1e-10)
        np.testing.assert_allclose(maps.m01(v1), 0 * v1, atol=1e-10)
        np.testing.assert_allclose(maps.m10(v0), 0 * v0, atol=1e-10)
        np.testing.assert_allclose(maps.ms(v1), c * v1, atol=1e-10)

    def test_implicit_maps_match_the_projected_composition(self):
        # a00^{-1} reads its load through G^H W = G^H W P0, so m01 and ms
        # need no P0 of their own
        from homlab.elliptic import CoefficientField, GridDomain, build_grad
        from homlab.homogenize import g0_decomposition

        dom = GridDomain.box((6, 5), hi=(1.0, 0.8))
        grad = build_grad(dom)
        dec = g0_decomposition(grad)
        rng = np.random.default_rng(9)
        vals = rng.uniform(1.0, 3.0, dom.n_cells)[:, None, None] * np.eye(2)
        vals[:, 0, 1] += rng.uniform(-0.5, 0.5, dom.n_cells)
        a = CoefficientField(dom, vals).operator(grad)
        maps = schur_maps(a, dec)
        p0, p1, solve = dec.h0.project, dec.h1.project, maps.m00inv
        v = rng.standard_normal((dec.space.dim, 3))
        av = a(v)
        for new, old in ((maps.m01(v), solve(p0(av))),
                         (maps.ms(v), p1(av - a(solve(p0(av)))))):
            assert np.linalg.norm(new - old) <= 1e-12 * np.linalg.norm(old)


class TestBlockInverse:
    def test_identity(self):
        space, dec = euclidean_dec(5, 2, seed=6)
        a = LinearOp(space, space, matrix=np.eye(5))
        np.testing.assert_allclose(block_inverse(a, dec).to_dense(), np.eye(5), atol=1e-10)

    def test_2x2_closed_form(self):
        space = HilbertSpace(2)
        h0 = Subspace(space, basis=np.array([[1.0], [0.0]]))
        dec = Decomposition.from_subspace(space, h0)
        a = LinearOp(space, space, matrix=np.array([[2.0, 1.0], [1.0, 2.0]]))
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        np.testing.assert_allclose(block_inverse(a, dec).to_dense(), expected, atol=1e-12)

    def test_random_coercive_vs_dense_inverse(self):
        # dense inversion oracle
        space = HilbertSpace(12)
        op = coercive_operator(space, 0.5, 4.0, seed=7)
        _, dec = euclidean_dec(12, 5, seed=8)
        inv = block_inverse(op, dec).to_dense()
        np.testing.assert_allclose(inv, np.linalg.inv(op.to_dense()), atol=1e-10)

    def test_matches_dense_inverse_weighted_batch(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            n = int(rng.integers(3, 30))
            w = rng.uniform(0.5, 2.0, size=n)
            space = HilbertSpace(n, weight=w)
            op = coercive_operator(space, 0.5, 4.0, seed=1000 + trial)
            h0 = Subspace.from_span(space, [rng.standard_normal(n)
                                            for _ in range(int(rng.integers(1, n)))])
            dec = Decomposition.from_subspace(space, h0)
            inv = block_inverse(op, dec).to_dense()
            np.testing.assert_allclose(inv, np.linalg.inv(op.to_dense()), atol=1e-9)


class TestSchurComplementCoercivity:
    def test_constant(self):
        space, dec = euclidean_dec(6, 2, seed=10)
        a = LinearOp(space, space, matrix=2.0 * np.eye(6))
        rep = schur_complement_coercivity(a, dec, 2.0, 2.0, tol=1e-12)
        assert rep.passed

    def test_propagation_property(self):
        # coercivity of the operator forces coercivity of the complement
        # with the same constants (checked by the membership test itself)
        rng = np.random.default_rng(11)
        for trial in range(100):
            n = int(rng.integers(3, 16))
            w = rng.uniform(0.5, 2.0, size=n)
            space = HilbertSpace(n, weight=w)
            op = coercive_operator(space, 0.5, 4.0, seed=2000 + trial)
            k = int(rng.integers(1, n))
            h0 = Subspace.from_span(space, [rng.standard_normal(n) for _ in range(k)])
            dec = Decomposition.from_subspace(space, h0)
            rep = schur_complement_coercivity(op, dec, 0.5, 4.0, tol=1e-9)
            assert rep.passed, f"trial {trial}: re_min={rep.re_min}, inv={rep.re_inv_min}"

    def test_inverse_block_identity(self):
        # (a^{-1})_{11}^{-1} equals the Schur complement
        space = HilbertSpace(10)
        op = coercive_operator(space, 0.5, 4.0, seed=12)
        _, dec = euclidean_dec(10, 4, seed=13)
        maps = schur_maps(op, dec)
        inv = LinearOp(space, space, matrix=np.linalg.inv(op.to_dense()))
        _, _, _, inv11 = blocks(inv, dec)
        np.testing.assert_allclose(np.linalg.inv(inv11), maps.ms_mat, atol=1e-9)


class TestTauGap:
    def test_equal_operators(self):
        space, dec = euclidean_dec(8, 3, seed=14)
        op = coercive_operator(space, 0.5, 4.0, seed=15)
        p0 = ProbeSet.from_vectors(
            space, dec.h0.project(ProbeSet.random(space, 4, seed=16).matrix))
        p1 = ProbeSet.from_vectors(
            space, dec.h1.project(ProbeSet.random(space, 4, seed=17).matrix))
        assert tau_gap(op, op, dec, p0, p1) == (0.0, 0.0, 0.0, 0.0)

    def test_trivial_decompositions(self):
        # h0 = H reduces to the gap of inverses, h1 = H to the plain gap
        space = HilbertSpace(6)
        a = coercive_operator(space, 0.5, 4.0, seed=18)
        b = coercive_operator(space, 0.5, 4.0, seed=19)
        probes = ProbeSet.random(space, 5, seed=20)
        full = Subspace(space, basis=np.eye(6))
        trivial = Subspace(space, basis=np.zeros((6, 0)))
        dec_h0_full = Decomposition(space, full, trivial)
        dec_h1_full = Decomposition(space, trivial, full)
        g = tau_gap(a, b, dec_h0_full, probes, ProbeSet(space, [np.eye(6)[:, 0]]))
        inv_a = LinearOp(space, space, matrix=np.linalg.inv(a.to_dense()))
        inv_b = LinearOp(space, space, matrix=np.linalg.inv(b.to_dense()))
        assert np.isclose(g[0], wot_gap(inv_a, inv_b, probes, probes), atol=1e-10)
        g2 = tau_gap(a, b, dec_h1_full, ProbeSet(space, [np.eye(6)[:, 0]]), probes)
        assert np.isclose(g2[3], wot_gap(a, b, probes, probes), atol=1e-10)

    def test_norm_convergence_implies_gap_decay(self):
        # monotone gap tracking for a_n = a + E/n
        space, dec = euclidean_dec(9, 4, seed=21)
        a = coercive_operator(space, 0.5, 4.0, seed=22)
        rng = np.random.default_rng(23)
        pert = 0.05 * rng.standard_normal((9, 9))
        p0 = ProbeSet.from_vectors(
            space, dec.h0.project(ProbeSet.random(space, 4, seed=24).matrix))
        p1 = ProbeSet.from_vectors(
            space, dec.h1.project(ProbeSet.random(space, 4, seed=25).matrix))
        gaps = []
        for n in (1, 2, 4, 8, 16):
            an = LinearOp(space, space, matrix=a.to_dense() + pert / n)
            gaps.append(max(tau_gap(an, a, dec, p0, p1)))
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.12 * gaps[0]  # roughly O(1/n) over n = 1..16


class TestInversionSwap:
    def test_identity(self):
        space, dec = euclidean_dec(5, 2, seed=26)
        a = LinearOp(space, space, matrix=np.eye(5))
        assert inversion_swap_check(a, dec)

    def test_2x2(self):
        space = HilbertSpace(2)
        h0 = Subspace(space, basis=np.array([[1.0], [0.0]]))
        dec = Decomposition.from_subspace(space, h0)
        a = LinearOp(space, space, matrix=np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert inversion_swap_check(a, dec)

    def test_random_coercive_batch(self):
        rng = np.random.default_rng(27)
        for trial in range(100):
            n = int(rng.integers(3, 14))
            w = rng.uniform(0.5, 2.0, size=n)
            space = HilbertSpace(n, weight=w)
            op = coercive_operator(space, 0.5, 4.0, seed=3000 + trial)
            k = int(rng.integers(1, n))
            h0 = Subspace.from_span(space, [rng.standard_normal(n) for _ in range(k)])
            dec = Decomposition.from_subspace(space, h0)
            assert inversion_swap_check(op, dec), f"trial {trial}"


class TestFiniteShuffle:
    def test_zero_subspace_unchanged(self):
        space, dec = euclidean_dec(6, 2, seed=28)
        k = Subspace(space, basis=np.zeros((6, 0)))
        dec2 = finite_shuffle(dec, k)
        assert dec2.h0.dim == 2 and dec2.h1.dim == 4

    def test_subspace_outside_h1_refused(self):
        space = HilbertSpace(3)
        dec = Decomposition.from_subspace(space, Subspace(space, basis=np.eye(3)[:, :1]))
        k = Subspace.from_span(space, np.array([[1.0], [1.0], [0.0]]))
        with pytest.raises(ShapeError, match="leaves"):
            finite_shuffle(dec, k)

    def test_dim1_shuffle_in_r3(self):
        space = HilbertSpace(3)
        h0 = Subspace(space, basis=np.eye(3)[:, :1])
        dec = Decomposition.from_subspace(space, h0)
        k = Subspace(space, basis=dec.h1.basis[:, :1])
        dec2 = finite_shuffle(dec, k)
        assert (dec2.h0.dim, dec2.h1.dim) == (2, 1)
        cross = dec2.h0.ambient.gram(dec2.h0.basis, dec2.h1.basis)
        assert np.abs(cross).max() < 1e-10

    def test_shuffle_preserves_tau_convergence(self):
        # a finite-dimensional move across the splitting does not change
        # which sequences converge
        space, dec = euclidean_dec(8, 3, seed=29)
        k = Subspace(space, basis=dec.h1.basis[:, :1])
        dec2 = finite_shuffle(dec, k)
        a = coercive_operator(space, 0.5, 4.0, seed=30)
        rng = np.random.default_rng(31)
        pert = 0.05 * rng.standard_normal((8, 8))

        def probe_pair(d, seed):
            p0 = ProbeSet.from_vectors(
                space, d.h0.project(ProbeSet.random(space, 4, seed=seed).matrix))
            p1 = ProbeSet.from_vectors(
                space, d.h1.project(ProbeSet.random(space, 4, seed=seed + 1).matrix))
            return p0, p1

        for d, seed in ((dec, 32), (dec2, 34)):
            p0, p1 = probe_pair(d, seed)
            gaps = [max(tau_gap(LinearOp(space, space, matrix=a.to_dense() + pert / n),
                                a, d, p0, p1)) for n in (1, 4, 16)]
            assert gaps[0] > gaps[-1]
            assert gaps[-1] < 0.12 * gaps[0] + 1e-12


class TestCongruence:
    def test_congruence_identity(self):
        # [[1,0],[-m10,1]] [[a00,a01],[a10,a11]] [[1,-m01],[0,1]] = diag(a00, a_S)
        space = HilbertSpace(9)
        op = coercive_operator(space, 0.5, 4.0, seed=36)
        _, dec = euclidean_dec(9, 4, seed=37)
        a00, a01, a10, a11 = blocks(op, dec)
        maps = schur_maps(op, dec)
        k0, k1 = dec.h0.dim, dec.h1.dim
        left = np.block([[np.eye(k0), np.zeros((k0, k1))], [-maps.m10_mat, np.eye(k1)]])
        right = np.block([[np.eye(k0), -maps.m01_mat], [np.zeros((k1, k0)), np.eye(k1)]])
        mid = np.block([[a00, a01], [a10, a11]])
        product = left @ mid @ right
        expected = np.block([[a00, np.zeros((k0, k1))], [np.zeros((k1, k0)), maps.ms_mat]])
        np.testing.assert_allclose(product, expected, atol=1e-9)


class TestClassMembership:
    def test_coercive_operator_is_member(self):
        space = HilbertSpace(8)
        op = coercive_operator(space, 0.5, 4.0, seed=38)
        _, dec = euclidean_dec(8, 3, seed=39)
        rep = class_membership(op, dec, np.array([[0.5, 10.0], [10.0, 4.0]]))
        assert rep.passed
        assert "alpha00" in rep.index_asymmetry_note

    def test_tight_cross_bound_fails(self):
        space = HilbertSpace(4)
        m = np.array([[1.0, 0, 0.9, 0], [0, 1.0, 0, 0.9], [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
        m = m + m.T + 2 * np.eye(4)
        op = LinearOp(space, space, matrix=m)
        h0 = Subspace(space, basis=np.eye(4)[:, :2])
        dec = Decomposition.from_subspace(space, h0)
        rep = class_membership(op, dec, np.array([[0.1, 1e-6], [1e-6, 100.0]]))
        assert not rep.passed


class TestDenseConditionRule:
    """Dense condition checks read kappa_1 off one LAPACK LU (``?gecon``)
    instead of taking an SVD; the cutoff stays 1e12."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6),
           st.sampled_from(["real", "complex"]), st.floats(min_value=0.0, max_value=14.0))
    def test_estimate_within_factor_n_of_kappa_2(self, n, seed, field, decades):
        # a random matrix with singular values spread over up to 14 decades
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n))
        u, _ = np.linalg.qr(g + 1j * rng.standard_normal((n, n)) if field == "complex" else g)
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m = u @ np.diag(np.logspace(0.0, -decades, n)) @ v.T
        solve, cond = _dense_lu(m)
        kappa_2 = np.linalg.cond(m)
        assert kappa_2 / n <= cond * (1 + 1e-6) and cond <= n * kappa_2 * (1 + 1e-6)
        if kappa_2 < 1e10:
            b = rng.standard_normal(n)
            assert np.linalg.norm(m @ solve(b) - b) <= 1e-6 * np.linalg.norm(b)

    def test_singular_and_empty(self):
        assert _dense_lu(np.array([[1.0, 2.0], [2.0, 4.0]]))[1] == np.inf
        assert _dense_lu(np.array([[np.nan, 1.0], [1.0, 1.0]]))[1] == np.inf
        solve, cond = _dense_lu(np.zeros((0, 0)))
        assert cond == 1.0 and solve(np.eye(0)).shape == (0, 0)

    @pytest.mark.parametrize("small, raises", [(1e-13, True), (1e-11, False)])
    def test_cutoff_on_the_operator(self, small, raises):
        space = HilbertSpace(2)
        dec = Decomposition.from_subspace(space, Subspace(space, basis=np.array([[1.0], [0.0]])))
        a = LinearOp(space, space, matrix=np.diag([1.0, small]))
        if raises:
            with pytest.raises(NotInM, match="operator condition"):
                schur_maps(a, dec)
        else:
            maps = schur_maps(a, dec)
            np.testing.assert_allclose(maps.ms_mat, [[small]])
            np.testing.assert_allclose(maps.m00inv_mat, [[1.0]])

    def test_a00_inverse_is_read_off_its_lu(self, monkeypatch):
        # np.linalg.inv and np.linalg.cond are not called on an explicit splitting
        from homlab import schur

        def refuse(*args, **kwargs):
            raise AssertionError("dense inverse or SVD outside the LU")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        monkeypatch.setattr(np.linalg, "cond", refuse)
        space, dec = euclidean_dec(7, 3, seed=40)
        op = coercive_operator(space, 0.5, 4.0, seed=41)
        maps = schur.schur_maps(op, dec)
        a00 = blocks(op, dec)[0]
        np.testing.assert_allclose(maps.m00inv_mat @ a00, np.eye(3), atol=1e-12)
