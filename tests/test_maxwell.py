"""Tests for the staggered Maxwell system and Helmholtz decompositions."""

import math
import os
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from click.testing import CliRunner
from conftest import (
    CELLS,
    EDGES,
    FACES,
    NODES,
    _dct2,
    _dst1,
    _edge_transform,
    maxwell_system,
    physical_maxwell_probes,
    yee_layout,
    yee_sample,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab import maxwell
from homlab.cli import main
from homlab.elliptic import GridDomain, grid_unknowns
from homlab.errors import CoercivityError, SolverDiverged
from homlab.evolution import resolvent_bounds, skew_split
from homlab.hilbert import LinearOp, _SparseSolver, wot_gap
from homlab.homogenize import _probe_pair, laminate_limit
from homlab.maxwell import (
    YeeComplex,
    _EdgeResolvent,
    _diag_bounds_check,
    _maxwell_probes,
    _transverse_table,
    build_curl,
    helmholtz_decompose,
    helmholtz_experiment,
    helmholtz_verdict,
    maxwell_homogenization_experiment,
    maxwell_verdict,
)
from homlab.schur import Decomposition, schur_maps, tau_gap

TWO_PHASE = lambda lo, hi: (lambda y: np.where(np.asarray(y) < 0.5, lo, hi))


class TestComplexStructure:
    def test_dimension_bookkeeping_4cubed(self):
        cx = YeeComplex(GridDomain.box((4, 4, 4)))
        assert cx.n_nodes == 27
        assert cx.n_edges == 108
        assert cx.n_faces == 144
        assert cx.n_cells == 64

    def test_chain_identities_machine_exact(self):
        cx = YeeComplex(GridDomain.box((4, 5, 3)))
        cg = cx.curl0 @ cx.grad0
        assert cg.nnz == 0 or np.abs(cg.data).max() == 0.0
        dc = cx.div_faces @ cx.curl0
        assert dc.nnz == 0 or np.abs(dc.data).max() == 0.0
        # dual chain: grad0^* after curl0^* vanishes too
        g0t = cx.grad0.conj().T @ (np.diag(cx.edge_space.weight)
                                   @ cx.curl_adjoint_matrix().toarray())
        assert np.abs(g0t).max() == 0.0

    def test_curl_is_exact_adjoint(self):
        dom = GridDomain.box((3, 4, 3))
        curl0, curl, cx = build_curl(dom)
        rng = np.random.default_rng(0)
        for _ in range(5):
            e = rng.standard_normal(cx.n_edges)
            f = rng.standard_normal(cx.n_faces)
            lhs = cx.face_space.inner(f, curl0(e))
            rhs = cx.edge_space.inner(curl(f), e)
            assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(lhs))

    def test_constant_face_field_is_curl_free(self):
        dom = GridDomain.box((4, 4, 4))
        _, curl, cx = build_curl(dom)
        face_axis = yee_layout(dom)[1][1]
        for axis in range(3):
            field = np.where(face_axis == axis, 2.5, 0.0)
            assert np.abs(curl(field)).max() == 0.0

    def test_gradients_are_curl0_free(self):
        # the composed MATRIX is exactly zero; sequential application only
        # carries two rounding steps at the 1/h^2 scale
        dom = GridDomain.box((4, 4, 4))
        curl0, _, cx = build_curl(dom)
        composed = cx.curl0 @ cx.grad0
        assert composed.nnz == 0 or np.abs(composed.data).max() == 0.0
        rng = np.random.default_rng(1)
        h2 = dom.spacing[0] * dom.spacing[1]
        for _ in range(50):
            u = rng.standard_normal(cx.n_nodes)
            assert np.abs(curl0(cx.grad0 @ u)).max() < 1e-13 / h2

    def test_single_mode_symbol_vs_slicing_oracle(self):
        # independent oracle: apply the one-dimensional difference quotient
        # to closed-form samples on the structured index grid
        mx = my = mz = 5
        dom = GridDomain.box((mx, my, mz))
        cx = YeeComplex(dom)
        h = dom.spacing
        # E_z = sin(pi x) sin(pi y) on z-edges, other components zero
        ez_shape = (mx + 1, my + 1, mz)
        ii, jj, kk = np.meshgrid(*[np.arange(s) for s in ez_shape], indexing="ij")
        xz = ii * h[0]
        yz = jj * h[1]
        ez_full = np.sin(np.pi * xz) * np.sin(np.pi * yz)
        (_, edge_axis), (_, face_axis) = yee_layout(dom)
        e = np.zeros(cx.n_edges)
        e[edge_axis == 2] = ez_full[1:mx, 1:my, :].ravel()
        out = cx.curl0 @ e
        # (curl E)_x = d Ez / dy at x-normal faces (interior planes only)
        dz_dy = (ez_full[:, 1:, :] - ez_full[:, :-1, :]) / h[1]
        expected_x = dz_dy[1:mx, :, :]
        np.testing.assert_allclose(out[face_axis == 0], expected_x.ravel(), atol=1e-13)

    def test_operators_vs_slicing_oracle(self):
        # random fields on the full staggered index grids, zero at the
        # eliminated boundary positions, against np.diff on those grids; the
        # reduced vectors are the interior slices in C order
        m = (4, 5, 3)
        dom = GridDomain.box(m, lo=(-0.5, 0.2, 1.0), hi=(1.5, 1.2, 1.6))
        cx = YeeComplex(dom)
        h = dom.spacing
        rng = np.random.default_rng(4)
        interior = [slice(1, c) for c in m]
        full = [slice(None)] * 3

        def along(axis, inside, rest):
            return tuple(inside if t == axis else rest[t] for t in range(3))

        u_full = np.zeros([c + 1 for c in m])
        u_full[tuple(interior)] = rng.standard_normal([c - 1 for c in m])
        e_full, f_full = [], []
        for a in range(3):
            ef = np.zeros([c if t == a else c + 1 for t, c in enumerate(m)])
            ef[along(a, slice(None), interior)] = rng.standard_normal(
                [c if t == a else c - 1 for t, c in enumerate(m)])
            e_full.append(ef)
            ff = np.zeros([c + 1 if t == a else c for t, c in enumerate(m)])
            ff[along(a, interior[a], full)] = rng.standard_normal(
                [c - 1 if t == a else c for t, c in enumerate(m)])
            f_full.append(ff)
        u = u_full[tuple(interior)].ravel()
        e = np.concatenate([e_full[a][along(a, slice(None), interior)].ravel()
                            for a in range(3)])
        f = np.concatenate([f_full[a][along(a, interior[a], full)].ravel()
                            for a in range(3)])

        grad = cx.grad0 @ u
        curl = cx.curl0 @ e
        (edge_mid, edge_axis), (face_mid, face_axis) = yee_layout(dom)
        for a in range(3):
            expected = np.diff(u_full, axis=a) / h[a]
            np.testing.assert_allclose(grad[edge_axis == a],
                                       expected[along(a, slice(None), interior)].ravel(),
                                       rtol=1e-12, atol=1e-12)
            b, c = (a + 1) % 3, (a + 2) % 3
            expected = (np.diff(e_full[c], axis=b) / h[b]
                        - np.diff(e_full[b], axis=c) / h[c])
            np.testing.assert_allclose(curl[face_axis == a],
                                       expected[along(a, interior[a], full)].ravel(),
                                       rtol=1e-12, atol=1e-12)
        expected = sum(np.diff(f_full[a], axis=a) / h[a] for a in range(3))
        np.testing.assert_allclose(cx.div_faces @ f, expected.ravel(), rtol=1e-12, atol=1e-12)

        # the test-side positions that the oracles sample at
        centres = [lo + (np.arange(c) + 0.5) * s for lo, c, s in zip(dom.lo, m, h)]
        nodes = [lo + np.arange(1, c) * s for lo, c, s in zip(dom.lo, m, h)]
        for a in range(3):
            grids = np.meshgrid(*[centres[t] if t == a else nodes[t] for t in range(3)],
                                indexing="ij")
            np.testing.assert_allclose(edge_mid[edge_axis == a],
                                       np.stack([g.ravel() for g in grids], axis=-1),
                                       rtol=0, atol=1e-15)
            grids = np.meshgrid(*[nodes[t] if t == a else centres[t] for t in range(3)],
                                indexing="ij")
            np.testing.assert_allclose(face_mid[face_axis == a],
                                       np.stack([g.ravel() for g in grids], axis=-1),
                                       rtol=0, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(cells=st.tuples(*[st.integers(2, 6)] * 3),
           lo=st.tuples(*[st.floats(-5.0, 5.0)] * 3),
           width=st.tuples(*[st.floats(0.1, 5.0)] * 3))
    def test_complex_on_random_boxes(self, cells, lo, width):
        hi = tuple(a + w for a, w in zip(lo, width))
        dom = GridDomain.box(cells, lo=lo, hi=hi)
        cx = YeeComplex(dom)
        for chain in (cx.curl0 @ cx.grad0, cx.div_faces @ cx.curl0):
            assert chain.nnz == 0 or np.abs(chain.data).max() == 0.0
        assert cx.n_edges + cx.n_faces == grid_unknowns(cells, "yee")
        assert cx.n_nodes == math.prod(c - 1 for c in cells)
        assert cx.grad0.shape == (cx.n_edges, cx.n_nodes)
        assert cx.div_faces.shape == (cx.n_cells, cx.n_faces)
        for mid, _ in yee_layout(dom):
            assert np.all(mid > np.array(dom.lo)) and np.all(mid < np.array(hi))

    def test_block_operator_skew_with_kernel_dims(self):
        cx, _, a_op = maxwell_system(GridDomain.box((3, 3, 3)), const(2.0), const(1.0),
                                     const(0.5), lam=1.0)
        a = skew_split(a_op)
        assert a.ker.dim == cx.n_nodes + cx.n_cells - 1
        assert a.ran.dim == a_op.source.dim - a.ker.dim


class TestHelmholtz:
    @pytest.mark.parametrize("m", [4, 8])
    def test_box_dimensions_and_orthogonality(self, m):
        dom = GridDomain.box((m, m, m))
        cx = YeeComplex(dom)
        dirichlet, neumann = helmholtz_decompose(dom)
        assert sum(dirichlet.dims) == cx.n_edges
        assert sum(neumann.dims) == cx.n_faces
        assert dirichlet.dims[2] == 0 and neumann.dims[2] == 0
        assert dirichlet.dims[0] == cx.n_nodes
        assert neumann.dims[0] == cx.n_cells - 1
        cross = dirichlet.gradients.ambient.gram(dirichlet.gradients.basis,
                                                 dirichlet.curls.basis)
        assert np.abs(cross).max() < 1e-8

    def test_gradient_probe_lands_in_gradient_block(self):
        dom = GridDomain.box((4, 4, 4))
        cx = YeeComplex(dom)
        dirichlet, _ = helmholtz_decompose(dom)
        rng = np.random.default_rng(2)
        v = cx.grad0 @ rng.standard_normal(cx.n_nodes)
        proj = dirichlet.gradients.project(v)
        np.testing.assert_allclose(proj, v, atol=1e-9)

    def test_random_field_reassembles(self):
        dom = GridDomain.box((4, 4, 4))
        cx = YeeComplex(dom)
        dirichlet, _ = helmholtz_decompose(dom)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(cx.n_edges)
        total = (dirichlet.gradients.project(v) + dirichlet.curls.project(v)
                 + dirichlet.harmonic.project(v)) if dirichlet.harmonic.dim else \
            dirichlet.gradients.project(v) + dirichlet.curls.project(v)
        np.testing.assert_allclose(total, v, atol=1e-9)

    def test_one_svd_decides_every_rank(self, monkeypatch):
        # the SVD of curl0 is the only rank decision: complements and
        # gradient ranges are QRs
        import scipy.linalg
        from numpy.linalg import _linalg
        from scipy.linalg import _decomp_svd

        calls = []

        def counting(real):
            def svd(*args, **kwargs):
                calls.append(args[0].shape)
                return real(*args, **kwargs)
            return svd

        for module in (np.linalg, _linalg, scipy.linalg, _decomp_svd):
            monkeypatch.setattr(module, "svd", counting(module.svd))
        cx = YeeComplex(GridDomain.box((4, 4, 4)))
        helmholtz_decompose(cx.domain)
        assert calls == [cx.curl0.shape]


class TestHelmholtzExperiment:
    def test_rows_and_verdict(self):
        cx = YeeComplex(GridDomain.box((3, 3, 3)))
        rep = helmholtz_experiment(3)
        assert rep.columns == ("flavor", "dim_gradients", "dim_curls", "dim_harmonic",
                               "space_dim")
        assert [(r["flavor"], r["dim_gradients"], r["dim_harmonic"], r["space_dim"])
                for r in rep.rows] == [(0, cx.n_nodes, 0, cx.n_edges),
                                       (1, cx.n_cells - 1, 0, cx.n_faces)]
        assert max(rep.meta["cross"]) < 1e-8
        assert helmholtz_verdict(rep) == []

    def test_each_broken_identity_fails(self):
        rep = helmholtz_experiment(2)
        rep.rows[0]["dim_harmonic"] += 1
        rep.rows[1]["dim_curls"] += 1
        rep.meta["cross"][1] = 1e-6
        assert helmholtz_verdict(rep) == ["dirichlet: dimensions do not sum",
                                          "dirichlet: nonzero harmonic dimension on a box",
                                          "neumann: dimensions do not sum",
                                          "neumann: gradient/curl blocks not orthogonal"]


class TestMaxwellSystem:
    def test_membership_enforced(self):
        with pytest.raises(CoercivityError, match="n=1: lambda eps \\+ sigma"):
            maxwell_homogenization_experiment(
                TWO_PHASE(0.1, 0.1), TWO_PHASE(1.0, 1.0), TWO_PHASE(0.0, 0.0), lam=1.0,
                n_list=[1], bounds=(0.5, 5.0), transverse_cells=3)

    def test_negative_lambda_fails_the_h_block(self):
        # lambda eps + sigma = 1 is admitted, but the H block lambda mu = -1 is not
        with pytest.raises(CoercivityError, match="n=1: lambda mu"):
            maxwell_homogenization_experiment(
                TWO_PHASE(1.0, 1.0), TWO_PHASE(1.0, 1.0), TWO_PHASE(2.0, 2.0), lam=-1.0,
                n_list=[1], bounds=(0.4, 10.0), transverse_cells=2)

    @pytest.mark.parametrize("vals", [np.array([1.0, 0.0]), np.array([1.0, 0.0j])])
    def test_zero_entry_fails_without_a_warning(self, vals):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CoercivityError, match="lambda mu"):
                _diag_bounds_check(vals, 0.5, 5.0, "lambda mu")

    def test_resolvent_bounds_hold(self):
        _, t, a_op = maxwell_system(GridDomain.box((3, 3, 3)), const(2.0), const(1.0),
                                    const(0.5), lam=1.0)
        resolvent_bounds(LinearOp(a_op.source, a_op.source, matrix=t.toarray()), skew_split(a_op))


def const(v):
    return lambda p: np.full(len(p), v)


def axiswise(*values):
    return tuple(const(v) for v in values)


def yee_diagonal(domain, edge_fn, face_fn):
    """The samples of ``edge_fn`` at the edges of :func:`yee_layout` next to
    those of ``face_fn`` at its faces."""
    edges, faces = yee_layout(domain)
    return np.concatenate([yee_sample(edge_fn, *edges), yee_sample(face_fn, *faces)])


def mode_resolvent(cx, t, a_mode):
    """The experiment's resolvent of T + A, A the skew pair ``a_mode`` of
    the complex's transverse-mode curl0."""
    return _EdgeResolvent(cx, cx._mode_operators[1], a_mode.matrix, t)


class TestEliminatedResolvent:
    """The resolvent with H eliminated, in transverse-mode coordinates as
    the experiment builds it, against the monolithic factorisation of the
    full edge+face system T + A there, kept here as the reference."""

    def system(self, cells=(4, 3, 3)):
        dom = GridDomain.box(cells, hi=(1.0, 0.7, 1.3))
        osc = lambda lo, hi: (lambda p: np.where(p[:, 0] % 0.5 < 0.25, lo, hi))
        return maxwell_system(dom, axiswise(1.0, 2.0, 3.0), osc(1.0, 2.5), osc(0.5, 1.5),
                              lam=1.3, modes=True)

    def blocks(self, dim, seed):
        rng = np.random.default_rng(seed)
        real = rng.standard_normal((dim, 3))
        return real, real + 1j * rng.standard_normal((dim, 3))

    @pytest.mark.parametrize("limit", [False, True])
    def test_matches_the_monolithic_solve(self, limit):
        cx, t, a_mode = self.system()
        if limit:
            # an axis-wise limit diagonal, as the homogenisation experiment builds
            t = sp.diags(1.3 * yee_diagonal(cx.domain, axiswise(1.5, 2.0, 2.0),
                                            axiswise(1.2, 1.7, 1.7)))
        solver = mode_resolvent(cx, t, a_mode)
        ref = _SparseSolver(t + a_mode.matrix)
        for rhs in self.blocks(a_mode.source.dim, 40):
            x, x_ref = solver.solve(rhs), ref.solve(rhs)
            assert np.iscomplexobj(x) == np.iscomplexobj(rhs)
            assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
            np.testing.assert_allclose(solver.solve(rhs[:, 1]), x[:, 1], rtol=0,
                                       atol=1e-14 * np.abs(x).max())

    def test_complex_coefficients(self):
        cx, t, a_mode = self.system((3, 3, 2))
        # lambda (eps + 0.4 i) + sigma on the edges
        t = t + sp.diags(np.concatenate([np.full(cx.n_edges, 1.3 * 0.4j), np.zeros(cx.n_faces)]))
        rhs = self.blocks(a_mode.source.dim, 41)[1]
        solver = mode_resolvent(cx, t, a_mode)
        x, x_ref = solver.solve(rhs), _SparseSolver(t + a_mode.matrix).solve(rhs)
        assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()

    def test_nan_column_raises(self):
        cx, t, a_mode = self.system()
        rhs = self.blocks(a_mode.source.dim, 42)[0]
        rhs[cx.n_edges + 2, 1] = np.nan
        with pytest.raises(SolverDiverged, match="column 1"):
            mode_resolvent(cx, t, a_mode).solve(rhs)

    def test_holds_no_copy_of_the_full_system(self):
        # every column is checked as T x + A x on the caller's A, so the one
        # edge+face sparse matrix the resolvent holds is that A
        cx, t, a_mode = self.system()
        solver = mode_resolvent(cx, t, a_mode)
        n = cx.n_edges + cx.n_faces
        held = [v for v in vars(solver).values() if sp.issparse(v) and v.shape == (n, n)]
        assert len(held) == 1 and held[0] is a_mode.matrix

    def test_maxwell_runs_without_sparse_lu(self, tmp_path, band_lu_calls):
        # every system of the experiment separates in y and z, so each band
        # LU factorises transverse modes, at most 3 unknowns wide
        rep = maxwell_homogenization_experiment(
            TWO_PHASE(1.0, 4.0), TWO_PHASE(1.0, 2.0), TWO_PHASE(0.5, 1.0),
            lam=1.0, n_list=[1, 2], bounds=(0.5, 10.0), transverse_cells=3)
        assert rep.values("gap_resolvent").max() > 0
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "maxwell_laminate.cfg")
        res = CliRunner().invoke(main, ["maxwell", "--config", config, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert band_lu_calls and all(max(kl, ku) <= 3 for _, kl, ku in band_lu_calls)


def _kernel_decomposition(space, grad0, dual_gradient):
    """The experiment's splitting along ker(curl0) (+) ker(curl)."""
    return Decomposition.from_generator(space, sp.block_diag((grad0, dual_gradient), "csr"))


class TestTransverseModes:
    """The transverse-mode coordinates of the Maxwell systems, against
    transforms built here from their closed forms, against physical
    ``_SparseSolver`` oracles carried through them, and against the
    monolithic solve of T + A."""

    @staticmethod
    def laminate(cells, modes=False):
        dom = GridDomain.box(cells)
        osc = lambda lo, hi: (lambda p: np.where(p[:, 0] % 0.25 < 0.125, lo, hi))
        return maxwell_system(dom, osc(1.0, 4.0), osc(1.0, 2.0), osc(0.5, 1.0), lam=1.0,
                              modes=modes)

    def test_tables_carry_the_difference_to_one_subdiagonal(self):
        m, h = 8, 0.3
        d = sp.diags([np.full(m - 1, 1.0 / h), np.full(m - 1, -1.0 / h)], [0, -1],
                     shape=(m, m - 1)).toarray()
        s, c = _transverse_table(m, False), _transverse_table(m, True)
        np.testing.assert_allclose(s, _dst1(m), rtol=0, atol=1e-15)
        np.testing.assert_allclose(c, _dct2(m), rtol=0, atol=1e-15)
        sigma = 2.0 / h * np.sin(np.arange(1, m) * np.pi / (2 * m))
        hat = c.T @ d @ s
        np.testing.assert_allclose(hat, np.diag(sigma, -1)[:, :-1], rtol=0,
                                   atol=1e-14 * sigma.max())

    @pytest.mark.parametrize("cells", [(4, 3, 5), (2, 2, 2)])
    def test_yee_blocks_tile_the_unknowns_in_the_complex_layout(self, cells):
        dom = GridDomain.box(cells, lo=(-0.5, 0.2, 1.0), hi=(1.5, 1.2, 1.6))
        cx = YeeComplex(dom)
        h = dom.spacing
        start = 0
        for block, (sl, shape, coords, cells_on) in enumerate(maxwell._yee_blocks(dom)):
            kinds = (EDGES + FACES)[block]
            assert list(cells_on) == kinds
            assert sl.start == start and sl.stop - start == math.prod(shape)
            start = sl.stop
            assert shape == tuple(c if k else c - 1 for c, k in zip(cells, kinds))
            for t, (k, x) in enumerate(zip(kinds, coords)):
                index = np.arange(shape[t]) + (0.5 if k else 1.0)
                np.testing.assert_allclose(x, dom.lo[t] + index * h[t], rtol=0, atol=1e-15)
        assert start == cx.n_edges + cx.n_faces == grid_unknowns(cells, "yee")
        # the operators' blocks are the walk's: curl0 maps the three edge
        # blocks to the three face blocks
        sizes = [sl.stop - sl.start for sl, _, _, _ in maxwell._yee_blocks(dom)]
        assert cx.curl0.shape == (sum(sizes[3:]), sum(sizes[:3]))

    @pytest.mark.parametrize("cells", [(4, 3, 5), (2, 2, 2), (3, 6, 2)])
    def test_mode_operators_are_the_transformed_operators(self, cells):
        cx = YeeComplex(GridDomain.box(cells, hi=(1.0, 0.7, 1.3)))
        grad0, curl0, dual = cx._mode_operators
        qn, qe, qf, qc = (_edge_transform(cells, p)[0] for p in (NODES, EDGES, FACES, CELLS))
        # the weighted adjoint of div, ungrounded
        ungrounded = sp.diags(1.0 / cx.face_space.weight) @ cx.div_faces.T \
            @ sp.diags(cx.cell_space.weight)
        for mode, physical in ((grad0, qe.T @ cx.grad0 @ qn), (curl0, qf.T @ cx.curl0 @ qe),
                               (dual, (qf.T @ ungrounded @ qc)[:, 1:])):
            assert mode.shape == physical.shape
            assert abs(mode - physical).max() <= 1e-13 * abs(physical).max()
        # the chain identities hold exactly, as in physical coordinates
        for chain in (curl0 @ grad0, curl0.T @ dual):
            assert chain.nnz == 0 or np.abs(chain.data).max() == 0.0

    def test_laminate_edge_matrix_separates_with_bandwidth_3(self, band_lu_calls, monkeypatch):
        cx, t, a_mode = self.laminate((16, 8, 8), modes=True)
        ne = cx.n_edges
        diag = t.diagonal()
        mass = cx.edge_space.weight * diag[:ne]
        wf_tf = cx.face_space.weight / diag[ne:]
        k = sp.diags(mass) + cx.curl0.T @ sp.diags(wf_tf) @ cx.curl0
        q, mode, x = _edge_transform(cx.domain.cells)
        k_hat = (q.T @ k @ q).tocoo()
        big = np.abs(k_hat.data).max()
        across = mode[k_hat.row] != mode[k_hat.col]
        assert np.abs(k_hat.data[across]).max() <= 1e-14 * big
        order = np.lexsort((yee_layout(cx.domain)[0][1], x, mode))
        pos = np.empty_like(order)
        pos[order] = np.arange(ne)
        kept = np.abs(k_hat.data) > 1e-14 * big
        assert np.abs(pos[k_hat.row[kept]] - pos[k_hat.col[kept]]).max() == 3
        # the experiment's edge resolvent factorises the mode edge matrix,
        # which is the transformed one, with band (3, 3)
        band_lu_calls.clear()
        factored, band_lu = [], maxwell._band_lu
        monkeypatch.setattr(maxwell, "_band_lu", lambda k: factored.append(k) or band_lu(k))
        mode_resolvent(cx, t, a_mode)
        assert len(factored) == 1 and abs(factored[0] - k_hat).max() <= 1e-13 * big
        assert band_lu_calls == [((ne, ne), 3, 3)]

    @pytest.mark.parametrize("cells", [(3, 3, 2), (3, 2, 2), (2, 2, 2)])
    def test_thin_boxes(self, cells, band_lu_calls):
        cx, t, a_op = self.laminate(cells)
        space = a_op.source
        ref = _SparseSolver(t + a_op.matrix)
        phys = _kernel_decomposition(space, cx.grad0, cx.dual_gradient_matrix())
        g, ghw = phys.h0.generator, phys.h0.gh_w
        m00inv = _SparseSolver(ghw @ t @ g)
        q = _edge_transform(cells, EDGES + FACES)[0]
        grad0, curl0, dual = cx._mode_operators
        a_mode = sp.bmat([[None, -curl0.T], [curl0, None]])
        band_lu_calls.clear()
        rng = np.random.default_rng(6)
        rhs = rng.standard_normal((space.dim, 3))
        x_ref = ref.solve(rhs)
        x = _EdgeResolvent(cx, curl0, a_mode, t).solve(q.T @ rhs)
        assert np.abs(x - q.T @ x_ref).max() <= 1e-12 * np.abs(x_ref).max()
        dec = _kernel_decomposition(space, grad0, dual)
        p0, p0_ref = dec.h0.project(q.T @ rhs), q.T @ (g @ phys.h0.gram.solve(ghw @ rhs))
        assert np.abs(p0 - p0_ref).max() <= 1e-10 * np.abs(p0_ref).max()
        maps = schur_maps(LinearOp(space, space, matrix=t.tocsr()), dec)
        y, y_ref = maps.m00inv(p0), q.T @ (g @ m00inv.solve(ghw @ (q @ p0)))
        assert np.abs(y - y_ref).max() <= 1e-10 * np.abs(y_ref).max()
        # mode edge, mode Gram, mode a00
        assert len(band_lu_calls) == 3 and all(max(kl, ku) <= 3 for _, kl, ku in band_lu_calls)

    def test_kernel_projectors_and_a00_match_superlu(self):
        cx, t_n, a_op = self.laminate((8, 4, 5))
        space = a_op.source
        phys = _kernel_decomposition(space, cx.grad0, cx.dual_gradient_matrix())
        g, ghw = phys.h0.generator, phys.h0.gh_w
        gram = _SparseSolver(ghw @ g)
        q = _edge_transform(cx.domain.cells, EDGES + FACES)[0]
        dec = _kernel_decomposition(space, *cx._mode_operators[::2])
        v = np.random.default_rng(7).standard_normal((space.dim, 4))
        p0 = dec.h0.project(q.T @ v)
        p0_ref = q.T @ (g @ gram.solve(ghw @ v))
        assert np.abs(p0 - p0_ref).max() <= 1e-10 * np.abs(p0_ref).max()
        np.testing.assert_allclose(dec.h1.project(q.T @ v), q.T @ v - p0_ref, rtol=0,
                                   atol=1e-10 * np.abs(v).max())
        limit = sp.diags(yee_diagonal(cx.domain, axiswise(1.5, 2.0, 2.0), axiswise(1.2, 1.7, 1.7)))
        for t in (t_n, limit):
            maps = schur_maps(LinearOp(space, space, matrix=t.tocsr()), dec)
            ref = q.T @ (g @ _SparseSolver(ghw @ t @ g).solve(ghw @ (q @ p0)))
            assert np.abs(maps.m00inv(p0) - ref).max() <= 1e-10 * np.abs(ref).max()


class TestHomogenizationExperiment:
    def test_constant_coefficients_trivial(self):
        const = lambda y: 2.0 + 0 * np.asarray(y)
        rep = maxwell_homogenization_experiment(
            const, const, const, lam=1.0, n_list=[1, 2], bounds=(0.5, 6.0),
            transverse_cells=4)
        assert rep.values("gap_resolvent").max() < 1e-9

    def test_each_laminate_limit_is_computed_once(self, monkeypatch):
        # that of lambda eps + sigma and that of mu, which also fills the meta
        profiles = []

        def counting(profile):
            profiles.append(profile)
            return laminate_limit(profile)

        monkeypatch.setattr(maxwell, "laminate_limit", counting)
        mu = TWO_PHASE(1.0, 2.0)
        rep = maxwell_homogenization_experiment(
            TWO_PHASE(1.0, 4.0), mu, TWO_PHASE(0.5, 1.0), lam=1.0, n_list=[1, 2],
            bounds=(0.5, 10.0), transverse_cells=3)
        assert len(profiles) == 2 and profiles[1] is mu
        assert rep.meta["mu_limit"] == laminate_limit(mu)

    def test_laminate_resolvent_decay(self):
        rep = maxwell_homogenization_experiment(
            TWO_PHASE(1.0, 4.0), TWO_PHASE(1.0, 2.0), TWO_PHASE(0.5, 1.0),
            lam=1.0, n_list=[1, 2, 4], bounds=(0.5, 10.0), transverse_cells=4)
        v = rep.values("gap_resolvent")
        assert v[-1] < v[0]
        for col in ("gap_m00inv", "gap_ms"):
            assert rep.final(col) < rep.rows[0][col]
        assert maxwell_verdict(rep) == []
        failures = maxwell_verdict(rep, 1e-9)
        assert len(failures) == 1 and failures[0].startswith("maxwell decay: gap_resolvent: final")

    def test_sigma_oscillation_limit_is_not_split(self):
        # the lambda-dependent limit of lam*eps + sigma is a harmonic mean of
        # the combined profile, generically different from combining the
        # separate means
        eps, sig = TWO_PHASE(1.0, 4.0), TWO_PHASE(2.0, 0.5)
        lam = 1.3
        combined_h, _ = laminate_limit(lambda y: lam * eps(y) + sig(y))
        eps_h, _ = laminate_limit(eps)
        sig_h, _ = laminate_limit(sig)
        assert abs(combined_h - (lam * eps_h + sig_h)) > 1e-3
        rep = maxwell_homogenization_experiment(
            eps, TWO_PHASE(1.0, 2.0), sig, lam=lam, n_list=[2, 4],
            bounds=(0.5, 10.0), transverse_cells=4)
        v = rep.values("gap_resolvent")
        assert v[-1] < v[0]

    def test_rows_match_a_physical_coordinate_oracle(self):
        # the experiment runs in transverse modes; here every row is rebuilt
        # in physical coordinates: the monolithic solve of T + A, the
        # physical kernel splitting and the physical probes, whose mode form
        # Q^T the experiment's probes are
        eps, mu, sigma = TWO_PHASE(1.0, 4.0), TWO_PHASE(1.0, 2.0), TWO_PHASE(0.5, 1.0)
        lam, bounds, n_list = 1.0, (0.5, 10.0), [1, 2, 4]
        rep = maxwell_homogenization_experiment(eps, mu, sigma, lam=lam, n_list=n_list,
                                                bounds=bounds, transverse_cells=4)
        for n, row in zip(n_list, rep.rows):
            osc = lambda fn: (lambda p: fn((n * p[:, 0]) % 1.0))
            cells = (max(2 * n, 4), 4, 4)
            cx, t_n, a_op = maxwell_system(GridDomain.box(cells), osc(eps), osc(mu), osc(sigma),
                                           lam)
            space = a_op.source
            # harmonic across the layers, arithmetic along them
            eps_h, eps_m = laminate_limit(lambda y: lam * eps(y) + sigma(y))
            mu_h, mu_m = laminate_limit(mu)
            edges, faces = yee_layout(cx.domain)
            t_lim = sp.diags(np.concatenate([
                lam * (yee_sample(axiswise(eps_h, eps_m, eps_m), *edges) / lam),
                lam * yee_sample(axiswise(mu_h, mu_m, mu_m), *faces)]))
            probes = physical_maxwell_probes(cx)[0]
            q = _edge_transform(cells, EDGES + FACES)[0]
            np.testing.assert_allclose(_maxwell_probes(cx, space).matrix, q.T @ probes.matrix,
                                       rtol=0, atol=1e-13)
            gap_res = wot_gap(*(LinearOp(space, space, apply=_SparseSolver(t + a_op.matrix).solve)
                                for t in (t_n, t_lim)), probes, probes)
            dec = _kernel_decomposition(space, cx.grad0, cx.dual_gradient_matrix())
            p0, p1 = _probe_pair(dec, lambda start, stop: probes.matrix[:, start:stop].copy(),
                                 len(probes), 6)
            gaps = tau_gap(LinearOp(space, space, matrix=t_n.tocsr()),
                           LinearOp(space, space, matrix=t_lim.tocsr()), dec, p0, p1)
            assert row["cells_x"] == cells[0]
            for col, ref in zip(("gap_m00inv", "gap_m01", "gap_m10", "gap_ms", "gap_resolvent"),
                                (*gaps, gap_res)):
                assert abs(row[col] - ref) <= 1e-12 * abs(ref), (n, col)

    def test_one_skew_pair_per_n(self, monkeypatch):
        # the experiment forms the skew pair of the mode curl0 only
        curls = []

        def counting(c):
            curls.append(c.matrix)
            return pair(c)

        pair = maxwell._skew_pair
        monkeypatch.setattr(maxwell, "_skew_pair", counting)
        maxwell_homogenization_experiment(
            TWO_PHASE(1.0, 4.0), TWO_PHASE(1.0, 2.0), TWO_PHASE(0.5, 1.0),
            lam=1.0, n_list=[1, 2], bounds=(0.5, 10.0), transverse_cells=3)
        assert len(curls) == 2
        for n, curl0 in zip([1, 2], curls):
            cx = YeeComplex(GridDomain.box((max(2 * n, 3), 3, 3)))
            assert abs(curl0 - cx._mode_operators[1]).max() == 0.0

    def test_every_system_is_constant_along_y_and_z(self, monkeypatch):
        # T_n and T_lim as each n's resolvents receive them, cut into the Yee
        # blocks of the complex layout built here
        seen = []
        resolvent = maxwell._EdgeResolvent

        def recording(cx, curl0, a_matrix, t):
            seen.append((cx.domain.cells, t.diagonal()))
            return resolvent(cx, curl0, a_matrix, t)

        monkeypatch.setattr(maxwell, "_EdgeResolvent", recording)
        maxwell_homogenization_experiment(
            TWO_PHASE(1.0, 4.0), TWO_PHASE(1.0, 2.0), TWO_PHASE(0.5, 1.0),
            lam=1.3, n_list=[1, 2, 4], bounds=(0.5, 10.0), transverse_cells=3)
        assert [cells for cells, _ in seen] == [(3, 3, 3)] * 2 + [(4, 3, 3)] * 2 + [(8, 3, 3)] * 2
        for i, (cells, diag) in enumerate(seen):
            start = 0
            for kinds in EDGES + FACES:
                shape = tuple(c if k else c - 1 for c, k in zip(cells, kinds))
                block = diag[start:start + math.prod(shape)].reshape(shape)
                start += math.prod(shape)
                np.testing.assert_array_equal(block, np.broadcast_to(block[:, :1, :1], shape))
                # T_n varies along x in every block, the limit is one constant
                assert (np.ptp(block) == 0) == (i % 2 == 1)
            assert start == len(diag)

    def test_a_run_forms_no_physical_complex(self, monkeypatch):
        # the experiment samples and probes from 1-d coordinates and solves
        # in transverse modes, so no complex it builds assembles its physical
        # operators or holds the position of each unknown
        made = []

        class Recording(YeeComplex):
            def __init__(self, domain):
                super().__init__(domain)
                made.append(self)

        monkeypatch.setattr(maxwell, "YeeComplex", Recording)
        maxwell_homogenization_experiment(
            TWO_PHASE(1.0, 4.0), TWO_PHASE(1.0, 2.0), TWO_PHASE(0.5, 1.0),
            lam=1.0, n_list=[1, 2], bounds=(0.5, 10.0), transverse_cells=3)
        physical = {"grad0", "curl0", "div_faces", "_physical_operators"}
        assert len(made) == 2 and not any(physical & vars(cx).keys() for cx in made)
        # the check sees them once they are formed
        made[0].curl0
        assert "_physical_operators" in vars(made[0])
