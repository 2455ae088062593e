"""The one skew pair A = [[0, -C*], [C, 0]]: skew-adjoint on random weights,
and equal entry for entry to the hand-built blocks, product-space weights
and probe loops it replaced in the two-scale, thermo and Maxwell systems
(those constructions are kept as the reference: here, and the Maxwell probe
loop in conftest, whose transverse-mode form the Maxwell probes are)."""

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import EDGES, FACES, _edge_transform, maxwell_system, physical_maxwell_probes

from homlab.elliptic import CoefficientField, GridDomain, build_grad
from homlab.evolution import grid_skew_block
from homlab.hilbert import HilbertSpace, LinearOp, ProbeSet, _skew_pair, adjoint
from homlab.maxwell import _maxwell_probes
from homlab.thermo import _thermo_probes, assemble_thermo


def assert_same_csr(a, b):
    a, b = sp.csr_matrix(a), sp.csr_matrix(b)
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def star(src, tgt, m):
    return adjoint(LinearOp(src, tgt, matrix=m)).matrix


def thermo_system(dom, gamma=0.7):
    c = CoefficientField.from_function(
        dom, lambda p: 1.0 + 3.0 * (np.atleast_2d(p)[:, 0] % 0.5 < 0.25), bounds=(0.4, 5.0))
    kappa = CoefficientField.constant(dom, 2.0, bounds=(0.4, 5.0))
    return assemble_thermo(dom, 1.5, c, gamma, 0.9, kappa, lam=1.3, bounds=(0.4, 5.0))


def maxwell_laminate(cells=(4, 3, 3), hi=(1.0, 0.7, 1.3)):
    """The complex and skew pair of a Maxwell laminate system."""
    dom = GridDomain.box(cells, hi=hi)
    osc = lambda lo, hi: (lambda p: np.where(p[:, 0] % 0.5 < 0.25, lo, hi))
    cx, _, a = maxwell_system(dom, osc(1.0, 2.0), osc(1.0, 2.5), osc(0.5, 1.5), lam=1.3)
    return cx, a


@pytest.mark.parametrize("field", ["real", "complex"])
def test_skew_pair_is_skew_adjoint(field):
    rng = np.random.default_rng(5)
    src = HilbertSpace(7, weight=rng.uniform(0.2, 3.0, 7), field=field)
    tgt = HilbertSpace(11, weight=rng.uniform(0.2, 3.0, 11), field=field)
    c = sp.random(11, 7, density=0.4, random_state=6, format="csr")
    if field == "complex":
        c = c + 1j * sp.random(11, 7, density=0.4, random_state=7, format="csr")
    a = _skew_pair(LinearOp(src, tgt, matrix=c))
    assert a.source is a.target and a.source.dim == 18
    assert np.array_equal(a.source.weight, np.concatenate([src.weight, tgt.weight]))
    assert np.abs(adjoint(a).to_dense() + a.to_dense()).max() <= 1e-12 * abs(c).max()
    assert np.array_equal(a.to_dense()[7:, :7], c.toarray())


@pytest.mark.parametrize("cells", [(9,), (4, 3)])
def test_grid_skew_block_matches_the_hand_built_block(cells):
    grad = build_grad(GridDomain.box(cells), "dirichlet")
    ss, vs = grad.scalar_space, grad.vector_space
    op, space = grid_skew_block(grad)
    g = grad.matrix
    assert_same_csr(op.matrix, sp.bmat([[None, -star(ss, vs, g)], [g, None]]).tocsr())
    assert np.array_equal(space.weight, np.concatenate([ss.weight, vs.weight]))
    assert op.source is space


@pytest.mark.parametrize("cells", [(16,), (4, 3)])
def test_thermo_blocks_match_the_hand_built_ones(cells):
    sys = thermo_system(GridDomain.box(cells))
    grad = sys.grad
    ss, vs = grad.scalar_space, grad.vector_space
    ns, nv = ss.dim, vs.dim
    g = grad.matrix
    div = -star(ss, vs, g)
    a_ref = sp.bmat([
        [None, div, None, None],
        [g, None, None, None],
        [None, None, None, div],
        [None, None, g, None],
    ]).tocsr()
    kinv = sys.m1[-nv:, -nv:]
    m1_ref = sp.bmat([
        [sp.csr_matrix((ns, ns)), None, None, None],
        [None, sp.csr_matrix((nv, nv)), None, None],
        [None, None, sp.csr_matrix((ns, ns)), None],
        [None, None, None, kinv],
    ]).tocsr()
    assert_same_csr(sys.a_matrix, a_ref)
    assert_same_csr(sys.m1, m1_ref)
    assert np.array_equal(sys.space.weight, np.concatenate([ss.weight, vs.weight] * 2))


def test_maxwell_block_matches_the_hand_built_one():
    cx, a = maxwell_laminate()
    curl = cx.curl_adjoint_matrix()
    assert_same_csr(a.matrix, sp.bmat([[None, -curl], [cx.curl0, None]]).tocsr())
    assert np.array_equal(a.source.weight,
                          np.concatenate([cx.edge_space.weight, cx.face_space.weight]))


def old_thermo_probes(sys, count=8):
    grad = sys.grad
    ns, nv = sys.dims[0], sys.dims[1]
    x_n = grad.node_coords[:, 0]
    x_e = grad.elem_mid[:, 0]
    lo, hi = sys.domain.extents[0]
    span = hi - lo
    vecs = []
    for k in (1, 2, 3):
        s_mode = np.sin(k * np.pi * (x_n - lo) / span)
        v_mode = np.zeros(nv)
        v_mode[::grad.d] = np.sin(k * np.pi * (x_e - lo) / span)
        for slot in range(4):
            parts = [np.zeros(ns), np.zeros(nv), np.zeros(ns), np.zeros(nv)]
            parts[slot] = s_mode if slot % 2 == 0 else v_mode
            vecs.append(np.concatenate(parts))
    return ProbeSet.from_vectors(sys.space, vecs[:count * 2])


@pytest.mark.parametrize("dom", [GridDomain.interval(0, 1, 64), GridDomain.interval(-0.3, 2.1, 40),
                                 GridDomain.box((5, 4))])
def test_thermo_probe_block_matches_the_loop(dom):
    sys = thermo_system(dom)
    probes = _thermo_probes(sys)
    ref = old_thermo_probes(sys)
    assert probes.matrix.shape == (sys.space.dim, 12)
    assert np.array_equal(probes.matrix, ref.matrix)


@pytest.mark.parametrize("cells, hi", [((16, 8, 8), (1.0, 1.0, 1.0)), ((6, 5, 7), (1.0, 0.7, 1.3))])
def test_maxwell_probe_block_matches_the_loop(cells, hi):
    # the block is built in transverse modes: Q^T of the physical loop
    cx, a = maxwell_laminate(cells, hi)
    probes = _maxwell_probes(cx, a.source)
    ref, space = physical_maxwell_probes(cx)
    assert probes.space is a.source and space.compatible(a.source)
    assert probes.matrix.shape == (a.source.dim, 12)
    q = _edge_transform(cells, EDGES + FACES)[0]
    np.testing.assert_allclose(probes.matrix, q.T @ ref.matrix, rtol=0, atol=1e-13)
