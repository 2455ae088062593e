"""Coupled heat/elasticity block system on a grid: assembly of the two
material blocks, the congruence transform that decouples the thermal stress,
and the resolvent homogenisation experiment.

Fields are (velocity, stress, heat, heat flux) with clamped velocity and
zero-temperature boundary; the spatial block is two copies of the skew pair
[[0, div], [grad, 0]] of :func:`hilbert._skew_pair` side by side, so it is
skew-adjoint by construction. The zeroth-order material block carries the
thermo-elastic coupling through a constant coupling operator mapping the
scalar heat field into the stress slot; a unit-triangular congruence removes
the coupling exactly, block-diagonalising the material while preserving the
dissipative block and the skew-adjointness of the transformed spatial
operator. The resolvent probes are one (dim, 12) block of sine modes along
x1, each mode alone in one field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elliptic import CoefficientField, GridDomain, build_grad
from .errors import CoercivityError
from .hilbert import HilbertSpace, LinearOp, ProbeSet, adjoint, wot_gap
from .hilbert import _SparseSolver, _skew_pair, _sym_lambda_min
from .homogenize import _TAU_COLUMNS, _decay_verdict, _per_n, laminate_limit
from .homogenize import g0_decomposition, g0_probe_pair
from .schur import tau_gap

__all__ = [
    "ThermoSystem",
    "assemble_thermo",
    "congruence_diagonalize",
    "thermo_homogenization_experiment",
]

_THERMO_TOL = 5e-2    # the verdict's default tolerance


def _coupling_map(grad, gamma, direction=None):
    """gamma times (vertex-average interpolation tensor a fixed unit
    direction): the constant scalar-to-stress coupling operator."""
    d = grad.d
    if direction is None:
        direction = np.zeros(d)
        direction[0] = 1.0
    direction = np.asarray(direction, dtype=float)
    direction /= np.linalg.norm(direction)
    gam = sp.kron(grad.vertex_mean, (gamma * direction)[:, None], format="csr")
    gam.eliminate_zeros()
    return gam


def _star(grad, m):
    """Weighted adjoint of a scalar-to-vector matrix ``m``."""
    return adjoint(LinearOp(grad.scalar_space, grad.vector_space, matrix=m)).matrix


def _scalar_samples(grad, fn, bounds, what):
    vals = np.asarray(fn(grad.node_coords)) if callable(fn) \
        else np.broadcast_to(np.asarray(fn), (grad.scalar_space.dim,))
    if bounds is not None:
        alpha, beta = bounds
        if vals.real.min() < alpha - 1e-12 or vals.real.max() > beta + 1e-12:
            raise CoercivityError(
                f"{what} in [{vals.real.min():.4g}, {vals.real.max():.4g}] "
                f"violates [{alpha}, {beta}]"
            )
    return vals


@dataclass
class ThermoSystem:
    """Assembled 4-field block system with its material blocks."""

    domain: GridDomain
    grad: object
    space: HilbertSpace
    a_matrix: sp.spmatrix
    m0: sp.spmatrix
    m1: sp.spmatrix
    lam: float
    coercivity: float
    gamma_map: sp.spmatrix
    dims: tuple

    def evolution_matrix(self):
        return (self.lam * self.m0 + self.m1 + self.a_matrix).tocsc()

    def resolvent_solver(self):
        """Solver of the evolution matrix, its unknowns ordered by their x1
        position and the four fields in turn at a tie; on a 1-d grid that
        makes it banded with bandwidth (4, 4)."""
        x_nodes = self.grad.node_coords[:, 0]
        x_elems = np.repeat(self.grad.elem_mid[:, 0], self.grad.d)
        order = np.argsort(np.concatenate([x_nodes, x_elems, x_nodes, x_elems]), kind="stable")
        return _SparseSolver(self.evolution_matrix(), order=order)


def assemble_thermo(domain, rho0, c_field, gamma, w, kappa_field, lam, bounds=None):
    """Assemble the coupled system at frequency parameter lam.

    ``rho0`` and ``w`` are scalar fields (callable or constant) bounded by
    the declared interval; ``c_field`` and ``kappa_field`` are cell-wise
    coefficient fields; ``gamma`` is the constant coupling strength, along
    x1. The coercivity constant of lam m0 + m1 is computed, and a
    nonpositive one raises :class:`CoercivityError`. m1 lives only in the
    heat-flux block, where m0 is zero, so lam m0 + m1 = blockdiag(lam M,
    K^{-1}) and the sign of that constant does not depend on lam > 0. A
    lam <= 0, or a gamma that overflows m0, also raises
    :class:`CoercivityError`.
    """
    if not lam > 0:
        raise CoercivityError("lam must be positive")
    grad = build_grad(domain, "dirichlet")
    ns, nv = grad.scalar_space.dim, grad.vector_space.dim
    rho_vals = _scalar_samples(grad, rho0, bounds, "rho0")
    w_vals = _scalar_samples(grad, w, bounds, "w")
    if bounds is not None:
        for f, name in ((c_field, "C"), (kappa_field, "kappa")):
            if not f.is_member(*bounds):
                raise CoercivityError(f"{name} violates the declared bounds")

    pair = _skew_pair(grad.op)
    a_matrix = sp.block_diag([pair.matrix, pair.matrix], format="csr")
    cinv = c_field.inverse_field().operator(grad).matrix
    kinv = kappa_field.inverse_field().operator(grad).matrix
    gam = _coupling_map(grad, gamma)
    gam_star = _star(grad, gam)
    m0 = sp.bmat([
        [sp.diags(rho_vals), None, None, None],
        [None, cinv, cinv @ gam, None],
        [None, gam_star @ cinv, sp.diags(w_vals) + gam_star @ (cinv @ gam), None],
        [None, None, None, sp.csr_matrix((nv, nv))],
    ]).tocsr()
    m1 = sp.block_diag([sp.csr_matrix((2 * ns + nv, 2 * ns + nv)), kinv], format="csr")

    if not np.isfinite(m0.data).all():
        raise CoercivityError(f"gamma={gamma} makes the material block m0 overflow")
    space = HilbertSpace(2 * (ns + nv), weight=np.tile(pair.source.weight, 2))
    c = _sym_lambda_min(space, (lam * m0 + m1).tocsr())
    if c <= 0:
        raise CoercivityError(f"lam={lam} gives nonpositive material bound {c:.3e}")
    return ThermoSystem(domain, grad, space, a_matrix, m0, m1, float(lam),
                        float(c), gam, (ns, nv, ns, nv))


def congruence_diagonalize(sys):
    """Unit lower-triangular congruence removing the thermal-stress coupling.

    Verifies S m0 S* = diag(rho0, C^{-1}, w, 0), S m1 S = m1, and that
    S A S* has the coupled-divergence block pattern while staying
    skew-adjoint, to 1e-9. Returns (S as an operator, residual report).
    """
    ns, nv = sys.dims[0], sys.dims[1]
    n = sys.space.dim
    eye_s, eye_v = sp.eye(ns), sp.eye(nv)
    gam = sys.gamma_map
    grad = sys.grad
    gam_star = _star(grad, gam)
    s_mat = sp.bmat([
        [eye_s, None, None, None],
        [None, eye_v, None, None],
        [None, -gam_star, eye_s, None],
        [None, None, None, eye_v],
    ]).tocsr()
    s_star = sp.bmat([
        [eye_s, None, None, None],
        [None, eye_v, -gam, None],
        [None, None, eye_s, None],
        [None, None, None, eye_v],
    ]).tocsr()

    cinv = sys.m0[ns:ns + nv, ns:ns + nv]
    w_block = sys.m0[ns + nv:2 * ns + nv, ns + nv:2 * ns + nv] \
        - gam_star @ (cinv @ gam)
    expected_m0 = sp.bmat([
        [sys.m0[:ns, :ns], None, None, None],
        [None, cinv, None, None],
        [None, None, w_block, None],
        [None, None, None, sp.csr_matrix((nv, nv))],
    ]).tocsr()
    g = grad.matrix
    div = -_star(grad, g)
    expected_a = sp.bmat([
        [None, div, -(div @ gam), sp.csr_matrix((ns, nv))],
        [g, None, None, None],
        [-(gam_star @ g), None, None, div],
        [None, None, g, None],
    ]).tocsr()

    def resid(x, y):
        diff = (x - y).tocoo()
        return float(np.abs(diff.data).max()) if diff.nnz else 0.0

    sas = (s_mat @ sys.a_matrix @ s_star).tocsr()
    # weighted adjoint of S A S* must be its negative
    sas_adj = adjoint(LinearOp(sys.space, sys.space, matrix=sas)).matrix
    checks = {
        "m0_diagonalized": resid(s_mat @ sys.m0 @ s_star, expected_m0),
        "m1_invariant": resid(s_mat @ sys.m1 @ s_mat, sys.m1),
        "a_block_pattern": resid(sas, expected_a),
        "a_skewness": resid(sas_adj, -sas),
    }
    if max(checks.values()) > 1e-9:
        raise CoercivityError(f"congruence identities violated: {checks}")
    return LinearOp(sys.space, sys.space, matrix=s_mat), checks


def _thermo_probes(sys):
    """Sine modes k = 1, 2, 3 along x1, each alone in one of the four fields
    in turn (on the first component of a flux): one (dim, 12) block."""
    grad = sys.grad
    ns, nv = sys.dims[0], sys.dims[1]
    lo, hi = sys.domain.extents[0]
    span = hi - lo
    ks = np.arange(1, 4)
    s_modes = np.sin(ks * np.pi * (grad.node_coords[:, 0] - lo)[:, None] / span)
    v_modes = np.sin(ks * np.pi * (grad.elem_mid[:, 0] - lo)[:, None] / span)
    block = np.zeros((sys.space.dim, 12))
    # column 4 (k - 1) + slot holds mode k in field slot
    for slot, start in enumerate((0, ns, ns + nv, 2 * ns + nv)):
        if slot % 2 == 0:
            block[start:start + ns, slot::4] = s_modes
        else:
            block[start:start + nv:grad.d, slot::4] = v_modes
    return ProbeSet.from_vectors(sys.space, block, copy=False)


def thermo_homogenization_experiment(c_profile, kappa_profile, w_profile,
                                     rho_profile, gamma, lam, n_list,
                                     bounds, mesh_rule, probe_seed=0):
    """Resolvent convergence of the oscillating 1-d system toward the limit
    built from the effective coefficients: harmonic means for the two flux
    coefficients, weak-star (arithmetic) means for the two state multipliers.

    Emits the resolvent probe gap next to the four block-map gaps of the
    elastic coefficient on the gradient splitting and the plain multiplier
    gaps of the state coefficients.
    """
    c_h, _ = laminate_limit(c_profile)
    k_h, _ = laminate_limit(kappa_profile)
    _, w_m = laminate_limit(w_profile)
    _, rho_m = laminate_limit(rho_profile)

    def row(n):
        m = mesh_rule.cells(n)
        dom = GridDomain.interval(0, 1, m)
        osc = lambda prof: (lambda pts: prof((n * np.atleast_2d(pts)[:, 0]) % 1.0))
        c_n = CoefficientField.from_function(dom, osc(c_profile), bounds=bounds)
        k_n = CoefficientField.from_function(dom, osc(kappa_profile), bounds=bounds)
        sys_n = assemble_thermo(dom, osc(rho_profile), c_n, gamma,
                                osc(w_profile), k_n, lam, bounds=bounds)
        c_lim = CoefficientField.constant(dom, c_h, bounds=bounds, check=False)
        k_lim = CoefficientField.constant(dom, k_h, bounds=bounds, check=False)
        sys_lim = assemble_thermo(dom, rho_m, c_lim, gamma, w_m, k_lim, lam,
                                  bounds=None)
        probes = _thermo_probes(sys_n)
        space = sys_n.space
        gap_res = wot_gap(LinearOp(space, space, apply=sys_n.resolvent_solver().solve),
                          LinearOp(space, space, apply=sys_lim.resolvent_solver().solve),
                          probes, probes)

        grad = sys_n.grad
        dec = g0_decomposition(grad)
        p0, p1 = g0_probe_pair(grad, dec)
        gaps = tau_gap(c_n.operator(grad), c_lim.operator(grad), dec, p0, p1)

        sspace = grad.scalar_space
        smodes = probes.matrix[: sys_n.dims[0]]
        smodes = ProbeSet.from_vectors(sspace, smodes[:, np.abs(smodes).max(axis=0) > 0][:, :4])
        zero = LinearOp(sspace, sspace, matrix=sp.csr_matrix((sspace.dim, sspace.dim)))

        def multiplier_gap(profile, mean):
            dev = np.asarray(osc(profile)(grad.node_coords)) - mean
            return wot_gap(LinearOp(sspace, sspace, matrix=sp.diags(dev)), zero, smodes, smodes)

        return {"n": n, "cells": m, "gap_resolvent": gap_res,
                **{col.replace("gap_", "gap_c_"): g for col, g in zip(_TAU_COLUMNS, gaps)},
                "gap_w": multiplier_gap(w_profile, w_m),
                "gap_rho": multiplier_gap(rho_profile, rho_m)}

    return _per_n("thermo", n_list, row, {
        "lambda": lam, "gamma": gamma, "probe_seed": probe_seed,
        "limits": {"C": c_h, "kappa": k_h, "w": w_m, "rho0": rho_m}})


def thermo_verdict(report, tol=_THERMO_TOL):
    """The resolvent gap decays to at most ``tol``."""
    return _decay_verdict(report, "thermo decay", ("gap_resolvent",), tol)
