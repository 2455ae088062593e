"""Shared fixtures and the test-side Maxwell system."""

import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph

from homlab import hilbert
from homlab.hilbert import LinearOp, _skew_pair
from homlab.maxwell import YeeComplex


def _band_widths(k, order=None):
    """(kl, ku) of a sparse K with its unknowns taken in ``order``, by default
    reverse Cuthill-McKee on the pattern of K + K^T; stored zeros do not
    count."""
    k = sp.coo_matrix(k)
    nz = k.data != 0
    row, col = k.row[nz], k.col[nz]
    if order is None:
        pattern = sp.csr_matrix((np.ones(len(row)), (row, col)), shape=k.shape)
        order = csgraph.reverse_cuthill_mckee(pattern + pattern.T, symmetric_mode=True)
    pos = np.empty(k.shape[0], dtype=int)
    pos[order] = np.arange(k.shape[0])
    offsets = pos[row] - pos[col]
    return int(offsets.max(initial=0)), int((-offsets).max(initial=0))


@pytest.fixture
def band_lu_calls(monkeypatch):
    """Record every ``hilbert._band_lu`` factorisation, under each name a
    loaded homlab module binds it to, as (shape, kl, ku)."""
    calls = []
    original = hilbert._band_lu

    def record(k, order=None):
        calls.append((k.shape, *_band_widths(k, order)))
        return original(k, order)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "homlab" and getattr(module, "_band_lu", None) is original:
            monkeypatch.setattr(module, "_band_lu", record)
    return calls


def maxwell_system(domain, eps, mu, sigma, lam, modes=False):
    """The Maxwell system (T + A) that the homogenisation experiment forms,
    on the staggered complex of ``domain``: T = diag(lam eps + sigma, lam mu)
    from the complex's edge and face samples of ``eps``, ``sigma`` and ``mu``
    (each a callable or an axis-wise triple), and A the skew pair of the
    complex's curl0, or of its transverse-mode curl0 with ``modes``.
    Returns (complex, T as a sparse diagonal, A as an operator on the edge
    (+) face space)."""
    cx = YeeComplex(domain)
    t = sp.diags(np.concatenate([lam * cx.sample_edges(eps) + cx.sample_edges(sigma),
                                 lam * cx.sample_faces(mu)]))
    curl0 = cx._mode_operators[1] if modes else cx.curl0
    return cx, t, _skew_pair(LinearOp(cx.edge_space, cx.face_space, matrix=curl0))
