"""Probe families as matrices: every operator, projector and solver maps an
(n, k) block to the column stack of its single-column results, the probe
gaps are one weighted product equal to the per-pair definition, the gradient
projector of a grid runs on the cached transform inverse, and the
coefficient margins come in closed form for d <= 2."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab import elliptic, homogenize
from homlab.elliptic import (
    CoefficientField,
    GridDomain,
    build_grad,
    galerkin_matrix,
    projected_inverse_1d,
)
from homlab.errors import SolverDiverged
from homlab.hilbert import (
    HilbertSpace,
    LinearOp,
    ProbeSet,
    Subspace,
    _SparseSolver,
    adjoint,
    strong_gap,
    wot_gap,
)
from homlab.homogenize import g0_decomposition
from homlab.schur import Decomposition, schur_maps


def pairwise_wot_gap(s, t, left, right):
    """The per-pair definition of the weak-operator probe gap."""
    gap = 0.0
    for psi in right.matrix.T:
        d = s(psi) - t(psi)
        for phi in left.matrix.T:
            gap = max(gap, abs(s.target.inner(phi, d)))
    return gap


def pairwise_strong_gap(s, t, right):
    return max(s.target.norm(s(psi) - t(psi)) for psi in right.matrix.T)


def columns(f, block):
    return np.stack([f(block[:, j]) for j in range(block.shape[1])], axis=1)


def assert_column_stack(f, block, rtol=1e-12):
    got, ref = f(block), columns(f, block)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rtol * max(1.0, np.abs(ref).max())


def make_space(rng, dim, field):
    return HilbertSpace(dim, weight=rng.uniform(0.5, 2.0, dim), field=field)


def random_matrix(rng, dim, field):
    m = rng.standard_normal((dim, dim))
    return m + 1j * rng.standard_normal((dim, dim)) if field == "complex" else m


def random_block(rng, dim, k, field):
    b = rng.standard_normal((dim, k))
    return b + 1j * rng.standard_normal((dim, k)) if field == "complex" else b


class TestGapsAsOneProduct:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 9),
           field=st.sampled_from(["real", "complex"]),
           backing=st.sampled_from(["matrix", "sparse", "matrix-free"]),
           k_left=st.integers(1, 6), k_right=st.integers(1, 6))
    def test_block_gap_equals_pairwise_gap(self, seed, dim, field, backing, k_left, k_right):
        rng = np.random.default_rng(seed)
        space = make_space(rng, dim, field)
        ms, mt = random_matrix(rng, dim, field), random_matrix(rng, dim, field)

        def op(m):
            if backing == "matrix":
                return LinearOp(space, space, matrix=m)
            if backing == "sparse":
                return LinearOp(space, space, matrix=sp.csr_matrix(m))
            return LinearOp(space, space, apply=lambda x: m @ x)

        s, t = op(ms), op(mt)
        left = ProbeSet.random(space, k_left, seed=seed + 1)
        right = ProbeSet.random(space, k_right, seed=seed + 2)
        ref = pairwise_wot_gap(s, t, left, right)
        assert abs(wot_gap(s, t, left, right) - ref) <= 1e-12 * max(1.0, ref)
        ref = pairwise_strong_gap(s, t, right)
        assert abs(strong_gap(s, t, right) - ref) <= 1e-12 * max(1.0, ref)

    def test_probe_set_holds_one_matrix(self):
        space = HilbertSpace(5, weight=np.arange(1.0, 6.0))
        probes = ProbeSet.random(space, 3, seed=4)
        assert probes.matrix.shape == (5, 3) and len(probes) == 3
        assert np.allclose(space.column_norms(probes.matrix), 1.0, rtol=0, atol=1e-14)
        # from_vectors never normalises the caller's array in place
        raw = np.arange(10.0).reshape(5, 2) + 1.0
        kept = raw.copy()
        ProbeSet.from_vectors(space, raw)
        assert np.array_equal(raw, kept)


class TestApplicatorsTakeBlocks:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_adjoint_sum_and_difference(self, field):
        rng = np.random.default_rng(11)
        space = make_space(rng, 7, field)
        m1, m2 = random_matrix(rng, 7, field), random_matrix(rng, 7, field)
        block = random_block(rng, 7, 4, field)
        free = LinearOp(space, space, apply=lambda x: m1 @ x)
        dense = LinearOp(space, space, matrix=m2)
        total = LinearOp(space, space, apply=lambda x: free(x) + dense(x))
        diff = LinearOp(space, space, apply=lambda x: free(x) - dense(x))
        for op in (free, dense, adjoint(free), adjoint(dense), total, diff, adjoint(diff)):
            assert_column_stack(op, block)

    def test_projectors_and_explicit_subspaces(self):
        rng = np.random.default_rng(12)
        space = make_space(rng, 12, "real")
        explicit = Subspace.from_span(space, rng.standard_normal((12, 4)))
        implicit = Subspace.from_generator(space, sp.random(12, 5, density=0.6, random_state=3)
                                           + sp.eye(12, 5))
        block = rng.standard_normal((12, 5))
        for sub in (explicit, implicit, Subspace.complement(implicit)):
            assert_column_stack(sub.project, block)

    @pytest.mark.parametrize("cells", [(6, 5), (3, 4, 3)])
    def test_implicit_schur_maps_on_a_grid(self, cells):
        dom = GridDomain.box(cells)
        grad = build_grad(dom)
        rng = np.random.default_rng(13)
        a = CoefficientField(dom, rng.uniform(1.0, 3.0, dom.n_cells), bounds=(1.0, 3.0))
        maps = schur_maps(a.operator(grad), g0_decomposition(grad))
        block = rng.standard_normal((grad.vector_space.dim, 4))
        for m in (maps.m00inv, maps.m01, maps.m10, maps.ms):
            assert_column_stack(m, block, rtol=1e-10)

    def test_explicit_schur_maps(self):
        rng = np.random.default_rng(14)
        space = make_space(rng, 8, "complex")
        dec = Decomposition.from_subspace(space, Subspace.from_span(space, rng.standard_normal((8, 3))))
        a = LinearOp(space, space, matrix=random_matrix(rng, 8, "complex") + 8 * np.eye(8))
        maps = schur_maps(a, dec)
        block = random_block(rng, 8, 3, "complex")
        for m in (maps.m00inv, maps.m01, maps.m10, maps.ms):
            assert_column_stack(m, block)

    def test_qdind_compressed_inverse(self):
        rng = np.random.default_rng(15)
        a = rng.uniform(1.0, 4.0, 40)
        phi = rng.standard_normal((40, 5))
        phi -= phi.mean(axis=0)
        assert_column_stack(lambda x: projected_inverse_1d(a, x), phi)

    def test_thermo_and_maxwell_resolvent_solves(self):
        from conftest import maxwell_system

        from homlab.maxwell import _EdgeResolvent
        from homlab.thermo import assemble_thermo

        dom = GridDomain.interval(0, 1, 12)
        c = CoefficientField.constant(dom, 2.0, bounds=(0.5, 4.0))
        k = CoefficientField.constant(dom, 1.0, bounds=(0.5, 4.0))
        thermo = assemble_thermo(dom, 1.0, c, 0.7, 1.0, k, lam=1.0, bounds=(0.5, 4.0))
        rng = np.random.default_rng(16)
        assert_column_stack(thermo.resolvent_solver().solve,
                            rng.standard_normal((thermo.space.dim, 4)), rtol=1e-10)
        const = lambda v: (lambda p: np.full(len(p), v))
        # the experiment's resolvent, on the complex's transverse-mode curl
        cx, t, a_mode = maxwell_system(GridDomain.box((3, 2, 2)), const(2.0), const(1.0),
                                       const(0.5), lam=1.0, modes=True)
        solver = _EdgeResolvent(cx, cx._mode_operators[1], a_mode.matrix, t)
        block = random_block(rng, a_mode.source.dim, 3, "complex")
        assert_column_stack(solver.solve, block, rtol=1e-10)
        ref = _SparseSolver(t + a_mode.matrix).solve(block)
        assert np.abs(solver.solve(block) - ref).max() <= 1e-12 * np.abs(ref).max()


class TestBlockSolves:
    @pytest.mark.parametrize("flavor", ["dirichlet", "neumann", "periodic"])
    @pytest.mark.parametrize("cells", [(7, 6), (4, 3, 5)])
    def test_transform_inverse_and_grid_solver(self, flavor, cells):
        dom = GridDomain.box(cells)
        g = build_grad(dom, flavor)
        rng = np.random.default_rng(17)
        a = CoefficientField(dom, rng.uniform(1.0, 4.0, dom.n_cells))
        loads = g.matrix.T @ (g.vector_space.weight[:, None]
                              * rng.standard_normal((g.vector_space.dim, 3)))
        assert_column_stack(elliptic.stiffness_solver(dom, flavor).prec, loads)
        assert_column_stack(elliptic._GridSolver(g, galerkin_matrix(g, a)).solve, loads,
                            rtol=1e-10)

    def test_sparse_solver_one_bad_column_raises(self):
        k = sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(20, 20)).tocsc()
        rhs = np.random.default_rng(18).standard_normal((20, 4))
        solver = _SparseSolver(k)
        assert_column_stack(solver.solve, rhs)
        rhs[3, 2] = np.nan
        with pytest.raises(SolverDiverged, match="column 2"):
            solver.solve(rhs)

    @pytest.mark.parametrize("cells", [(10,), (8, 9), (4, 3, 5)])
    def test_grid_solver_one_bad_column_raises(self, cells):
        dom = GridDomain.box(cells)
        g = build_grad(dom)
        solver = elliptic._GridSolver(g, galerkin_matrix(g, CoefficientField.constant(dom, 2.0)))
        rhs = np.random.default_rng(19).standard_normal((g.scalar_space.dim, 3))
        rhs[1, 1] = np.inf
        with pytest.raises(SolverDiverged):
            solver.solve(rhs)


class TestGradientProjectorOnTheTransformInverse:
    @pytest.mark.parametrize("cells", [(9, 7), (4, 5, 3)])
    def test_no_sparse_lu_and_the_superlu_projector(self, band_lu_calls, cells):
        dom = GridDomain.box(cells)
        grad = build_grad(dom)
        g, w = grad.matrix, sp.diags(grad.vector_space.weight)
        block = np.random.default_rng(20).standard_normal((grad.vector_space.dim, 5))
        gram = spla.splu((g.T @ w @ g).tocsc())
        ref = g @ gram.solve(g.T @ (w @ block))
        dec = g0_decomposition(grad)
        for got in (dec.h0.project(block), block - dec.h1.project(block)):
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()
        assert band_lu_calls == []

    def test_checks_take_twelve_gram_columns(self, monkeypatch):
        grad = build_grad(GridDomain.box((6, 5)))
        solver = elliptic.stiffness_solver(grad.domain, grad.flavor)
        columns = []

        class Counting:
            def solve(self, rhs):
                columns.append(rhs.shape[1] if np.ndim(rhs) == 2 else 1)
                return solver.solve(rhs)

        monkeypatch.setattr(homogenize, "stiffness_solver", lambda domain, flavor: Counting())
        g0_decomposition(grad)
        # the projector's own check, 6 + 3 columns, and the sum check, 3: its
        # complement reads v - P0 v off the same projection
        assert sum(columns) == 12


class TestClosedFormMargins:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_match_batched_eigvalsh(self, field):
        rng = np.random.default_rng(21)
        dom = GridDomain.box((20, 15))
        vals = rng.uniform(-1.0, 1.0, (dom.n_cells, 2, 2)) + 2.5 * np.eye(2)
        if field == "complex":
            vals = vals + 1j * rng.uniform(-1.0, 1.0, (dom.n_cells, 2, 2))
        re = lambda m: 0.5 * (m + m.conj().transpose(0, 2, 1))
        ref = (np.linalg.eigvalsh(re(vals))[:, 0].min(),
               np.linalg.eigvalsh(re(np.linalg.inv(vals)))[:, 0].min())
        got = CoefficientField(dom, vals).coercivity_margins()
        scale = np.abs(vals).max()
        assert np.allclose(got, ref, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("cells", [(30,), (6, 7)])
    def test_no_eigvalsh_and_computed_once(self, monkeypatch, cells):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh for a d <= 2 field")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        dom = GridDomain.box(cells)
        field = CoefficientField.from_function(dom, lambda p: 1.5 + p[:, 0], bounds=(1.0, 3.0))
        margins = field.coercivity_margins()
        assert field.coercivity_margins() is margins
        h = 1.0 / cells[0]
        assert np.allclose(margins, (1.5 + h / 2, 1.0 / (2.5 - h / 2)), rtol=1e-14, atol=0)

    def test_singular_cell_has_no_inverse_margin(self):
        dom = GridDomain.box((3, 2))
        vals = np.broadcast_to(np.eye(2), (dom.n_cells, 2, 2)).copy()
        vals[4] = [[1.0, 1.0], [1.0, 1.0]]
        assert CoefficientField(dom, vals).coercivity_margins()[1] == -np.inf
        # a 1-d zero cell: its inverse is +inf while every other cell is finite
        line = GridDomain.box((5,))
        vals = np.ones(line.n_cells)
        vals[2] = 0.0
        assert CoefficientField(line, vals).coercivity_margins()[1] == -np.inf
