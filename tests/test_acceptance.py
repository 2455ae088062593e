"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to stream them). The
tolerances here are pinned; nothing is deferred to later calibration.
"""

import os
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

from homlab.elliptic import (
    CoefficientField,
    GridDomain,
    RHSFunctional,
    affine_dual_residual,
    build_grad,
    divcurl_pairing,
    divergence_defect,
    projected_inverse_1d,
    smooth_bump,
    solve_affine,
    solve_elliptic,
)
from homlab.evolution import (
    abstract_schur_experiment,
    check_joint_decay,
    recover_coefficient,
    resolvent_bounds,
    skew_split,
)
from homlab.hilbert import (
    HilbertSpace,
    LinearOp,
    Subspace,
    coercivity_check,
)
from homlab.homogenize import (
    CoefficientSequence,
    MeshRule,
    hconvergence_experiment,
    homogenized_tensor,
)
from homlab.maxwell import YeeComplex, helmholtz_decompose, maxwell_homogenization_experiment
from homlab.schur import Decomposition, block_inverse, blocks, schur_complement_coercivity, schur_maps
from homlab.thermo import assemble_thermo, congruence_diagonalize, thermo_homogenization_experiment

SIN_PROFILE = lambda y: 2.0 + np.sin(2 * np.pi * np.asarray(y))
TWO_PHASE = lambda y: np.where(np.asarray(y) < 0.5, 1.0, 4.0)


@contextmanager
def criterion(k, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {k:>2}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {k:>2}: PASS - {desc}")


def coercive_member(space, alpha, beta, seed):
    rng = np.random.default_rng(seed)
    n = space.dim
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = q @ np.diag(rng.uniform(alpha * 1.4, beta * 0.7, n)) @ q.T
    r = rng.standard_normal((n, n))
    sk = r - r.T
    sk *= 0.1 * alpha / max(np.linalg.norm(sk, 2), 1e-12)
    d = np.sqrt(space.weight)
    op = LinearOp(space, space, matrix=((m + sk) * d[None, :]) / d[:, None])
    assert coercivity_check(op, alpha, beta).passed
    return op


def test_criterion_01_1d_harmonic_mean_limit():
    with criterion(1, "1-d oscillating family converges to the sqrt(3) "
                      "harmonic-mean solve (< 2% at n=32, decreasing)"):
        seq = CoefficientSequence.laminate(SIN_PROFILE, bounds=(1.0, 3.0))
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
        rep = hconvergence_experiment(seq, f, np.sqrt(3.0), [1, 2, 4, 8, 16, 32],
                                      mesh_rule=MeshRule(64))
        assert rep.final("err_solution") < 0.02
        assert rep.final("err_flux") < 0.02
        assert rep.values("err_solution")[0] >= rep.final("err_solution")
        assert rep.values("err_flux")[0] >= rep.final("err_flux")


def test_criterion_02_projected_inverse_closed_form():
    with criterion(2, "closed 1-d compressed inverse matches the generic "
                      "projected solve to 1e-10 on 50 seeded profiles"):
        from homlab.schur import schur_maps as smaps

        rng = np.random.default_rng(42)
        for trial in range(50):
            m = int(rng.integers(16, 96))
            h = 1.0 / m
            a = rng.uniform(0.5, 3.0, size=m)
            phi = rng.standard_normal(m)
            phi -= phi.mean()
            space = HilbertSpace(m, weight=np.full(m, h))
            gmat = sp.diags([-np.ones(m - 1), np.ones(m - 1)], [0, -1],
                            shape=(m, m - 1)).tocsr() / h
            dec = Decomposition.from_generator(space, gmat)
            aop = LinearOp(space, space, matrix=sp.diags(a).tocsr())
            generic = smaps(aop, dec).m00inv(phi)
            closed = projected_inverse_1d(a, phi)
            assert np.abs(generic - closed).max() < 1e-10, f"trial {trial}"


def test_criterion_03_2d_laminate():
    with criterion(3, "2-d two-phase laminate vs diag(1.6, 2.5): probe error "
                      "< 5% at n=16 on 256^2"):
        seq = CoefficientSequence.laminate(TWO_PHASE, bounds=(0.5, 5.0))
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
        rep = hconvergence_experiment(seq, f, np.diag([1.6, 2.5]),
                                      [1, 2, 4, 8, 16], dim=2,
                                      mesh_rule=MeshRule(16))
        assert rep.rows[-1]["cells_per_axis"] == 256
        assert rep.final("err_solution") < 0.05
        assert rep.final("err_flux") < 0.05


def test_criterion_04_cell_problems():
    with criterion(4, "cell problems: laminate within 1% on 128^2, constant "
                      "exact, checkerboard within 2% of 2I on 256^2 with a "
                      "fine-scale cross-check"):
        lam_field = CoefficientField.from_function(
            GridDomain.box((128, 128)), lambda p: TWO_PHASE(p[:, 0] % 1.0),
            bounds=(0.5, 5.0))
        a_hom = homogenized_tensor(lam_field)
        assert np.abs(a_hom - np.diag([1.6, 2.5])).max() / 2.5 < 0.01

        const = CoefficientField.constant(GridDomain.box((16, 16)),
                                          np.array([[2.0, 0.4], [0.4, 3.0]]),
                                          bounds=(1.0, 4.0))
        assert np.abs(homogenized_tensor(const)
                      - np.array([[2.0, 0.4], [0.4, 3.0]])).max() < 1e-10

        def cb(p):
            return np.where(((np.floor(2 * p[:, 0]) + np.floor(2 * p[:, 1])) % 2) == 0,
                            1.0, 4.0)

        cb_field = CoefficientField.from_function(GridDomain.box((256, 256)), cb,
                                                  bounds=(0.5, 5.0))
        cb_hom = homogenized_tensor(cb_field)
        assert np.abs(cb_hom - 2.0 * np.eye(2)).max() / 2.0 < 0.02

        # fine-scale direct simulation cross-checks the duality value
        seq = CoefficientSequence.periodic(cb, bounds=(0.5, 5.0))
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
        rep = hconvergence_experiment(seq, f, 2.0 * np.eye(2), [4, 8, 16], dim=2,
                                      mesh_rule=MeshRule(16))
        assert rep.final("err_solution") < 0.05
        assert rep.decreasing("err_solution")


def test_criterion_05_schur_algebra():
    with criterion(5, "block inverse vs dense inverse (1e-10, 200 seeded "
                      "instances), complement coercivity 200/200, inverse "
                      "block identity at 1e-9"):
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(3, 40)) if trial % 10 else int(rng.integers(40, 201))
            space = HilbertSpace(n, weight=rng.uniform(0.5, 2.0, size=n))
            op = coercive_member(space, 0.5, 4.0, seed=10_000 + trial)
            k = int(rng.integers(1, n))
            h0 = Subspace.from_span(space, [rng.standard_normal(n) for _ in range(k)])
            dec = Decomposition.from_subspace(space, h0)
            inv = block_inverse(op, dec).to_dense()
            assert np.abs(inv - np.linalg.inv(op.to_dense())).max() < 1e-10

            rep = schur_complement_coercivity(op, dec, 0.5, 4.0, tol=1e-9)
            assert rep.passed, f"trial {trial}"

            maps = schur_maps(op, dec)
            inv_op = LinearOp(space, space, matrix=np.linalg.inv(op.to_dense()))
            _, _, _, inv11 = blocks(inv_op, dec)
            assert np.abs(np.linalg.inv(inv11) - maps.ms_mat).max() < 1e-9


def test_criterion_06_abstract_schur_equivalence():
    with criterion(6, "block-map and resolvent gaps both decay with log-log "
                      "slope -1 (+- 0.1); joint decay holds on the shipped "
                      "fixtures including the two-scale one at 5e-2"):
        from homlab.cli import RunConfig

        n_list = [1, 2, 4, 8, 16, 32]
        rng = np.random.default_rng(77)
        space = HilbertSpace(12)
        base = coercive_member(space, 0.5, 4.0, seed=78).to_dense()
        skew = rng.standard_normal((12, 12))
        skew = skew - skew.T
        skew[:4, :] = 0.0
        skew[:, :4] = 0.0
        skew *= 0.5 / np.linalg.norm(skew, 2)
        a = skew_split(LinearOp(space, space, matrix=skew))
        pert = rng.standard_normal((12, 12))
        pert *= 0.1 / np.linalg.norm(pert, 2)
        t_seq = lambda n: LinearOp(space, space, matrix=base + pert / n)
        rep = abstract_schur_experiment(a, t_seq, LinearOp(space, space, matrix=base),
                                        n_list=n_list, seed=5)
        logn = np.log(np.array(n_list, dtype=float))
        for col in ("gap_m00inv", "gap_m01", "gap_m10", "gap_ms", "gap_resolvent"):
            slope = np.polyfit(logn, np.log(rep.values(col)), 1)[0]
            assert abs(slope + 1.0) <= 0.1, f"{col}: slope {slope:.3f}"
        equiv, tau_ok, res_ok = check_joint_decay(rep, 1e-2, 1e-2)
        assert equiv and tau_ok and res_ok

        configs = os.path.join(os.path.dirname(__file__), "..", "configs")
        for name in ("evo_perturbation.cfg", "evo_two_scale.cfg"):
            cfg = RunConfig.parse(os.path.join(configs, name))
            _, failures = _run_evo_tmp(cfg)
            assert not failures, f"{name}: {failures}"


def _run_evo_tmp(cfg):
    import tempfile

    from homlab.cli import _run_evo, params

    with tempfile.TemporaryDirectory() as tmp:
        return _run_evo(params(cfg, "evo"), tmp, 7, "digest")


def test_criterion_07_resolvent_bounds_and_recovery():
    with criterion(7, "a priori resolvent bounds hold on 200 seeded pairs; "
                      "coefficient recovery round-trips to 1e-10 and keeps "
                      "its class"):
        rng = np.random.default_rng(13)
        for trial in range(200):
            n = int(rng.integers(2, 14))
            space = HilbertSpace(n, weight=rng.uniform(0.5, 2.0, size=n))
            t = coercive_member(space, 0.5, 4.0, seed=20_000 + trial)
            r = rng.standard_normal((n, n))
            skew = r - r.T
            d = np.sqrt(space.weight)
            a = skew_split(LinearOp(space, space,
                                    matrix=(skew * d[None, :]) / d[:, None]))
            resolvent_bounds(t, a, tol=1e-9)
            s = LinearOp(space, space,
                         matrix=np.linalg.inv(t.to_dense() + a.matrix()))
            rec = recover_coefficient(s, a, bounds=(0.5, 4.0))
            assert np.abs(rec.to_dense() - t.to_dense()).max() < 1e-10


def test_criterion_08_affine_dual_identity():
    with criterion(8, "dual residual of the affine flux stays below 1e-9 on "
                      "50 seeded coefficient/source instances"):
        rng = np.random.default_rng(14)
        f = RHSFunctional.density(lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]))
        for trial in range(50):
            m = int(rng.integers(8, 24))
            dom = GridDomain.box((m, m))
            shift = rng.uniform(1.0, 2.0)
            amp = rng.uniform(0.1, 0.7)
            kx = int(rng.integers(1, 4))
            ky = int(rng.integers(1, 4))
            a = CoefficientField.from_function(
                dom, lambda p: shift + amp * np.sin(2 * np.pi * kx * p[:, 0])
                * np.cos(np.pi * ky * p[:, 1]),
                bounds=(shift - amp - 1e-9, shift + amp + 1e-9))
            cx, cy = rng.uniform(0.3, 2.0, size=2)
            z = lambda pts: np.stack([cx * np.cos(np.pi * pts[:, 0]),
                                      cy * np.sin(np.pi * pts[:, 1])], axis=-1)
            u, p = solve_affine(dom, a, z, f)
            grad = build_grad(dom)
            err = affine_dual_residual(dom, a, grad.sample_vector(z), p, count=8)
            assert err <= 1e-9, f"trial {trial}: {err:.3e}"


def test_criterion_09_divcurl_lemma():
    with criterion(9, "pairings converge for compliant sequences; the "
                      "counterexample keeps a gap above 0.1 over n"):
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
        r_fn = lambda pts: np.stack([np.cos(np.pi * pts[:, 0])], axis=-1)
        vals = []
        for n in (2, 4, 8, 16):
            dom = GridDomain.interval(0, 1, 64 * n)
            a = CoefficientField.from_function(
                dom, lambda p, n=n: SIN_PROFILE((n * p[:, 0]) % 1.0), bounds=(1.0, 3.0))
            u, _ = solve_elliptic(dom, a, f)
            g = build_grad(dom)
            vals.append(divcurl_pairing(dom, [g.matrix @ u],
                                        [g.sample_vector(r_fn)])[0])
        dom = GridDomain.interval(0, 1, 1024)
        a_h = CoefficientField.constant(dom, np.sqrt(3.0), bounds=(1.0, 3.0))
        u, _ = solve_elliptic(dom, a_h, f)
        g = build_grad(dom)
        lim = divcurl_pairing(dom, [g.matrix @ u], [g.sample_vector(r_fn)])[0]
        errs = [abs(v - lim) for v in vals]
        assert errs[-1] < errs[0] and errs[-1] < 0.02 * abs(lim)

        m = 4096
        dom = GridDomain.interval(0, 1, m)
        phi = smooth_bump(dom)
        gb = build_grad(dom)
        half_phi = 0.5 * (gb.elem_measure * phi(gb.elem_mid)).sum()
        fields = [(lambda pts, n=n: np.sin(2 * np.pi * n * pts)) for n in (8, 16, 32, 64)]
        pair = divcurl_pairing(dom, fields, fields, phi=phi)
        # weak limits vanish, so the product of limits pairs to zero; the
        # actual pairings stay near half the cutoff mass
        normalized = np.abs(np.real(pair)) / abs(half_phi)
        assert normalized.min() > 0.1
        assert abs(pair[-1].real - half_phi) < 0.05 * abs(half_phi)


def test_criterion_10_divergence_test():
    with criterion(10, "projection gaps and dual-norm divergence gaps vanish "
                       "together (< 1e-8) or neither does (> 1e-3)"):
        dom = GridDomain.interval(0, 1, 2048)
        grad = build_grad(dom)
        zero = np.zeros(grad.vector_space.dim)
        d = divergence_defect(dom, zero, zero)
        assert d.projection_gap < 1e-8 and d.divergence_gap < 1e-8

        from homlab.elliptic import _complement_project

        rng = np.random.default_rng(15)
        compl = _complement_project(grad, rng.standard_normal(grad.vector_space.dim))
        d2 = divergence_defect(dom, compl, np.zeros_like(compl))
        assert d2.projection_gap < 1e-8 and d2.divergence_gap < 1e-8

        for n in (4, 8, 16):
            r_n = grad.sample_vector(lambda pts, n=n: np.cos(2 * np.pi * n * pts))
            d3 = divergence_defect(dom, r_n, zero)
            assert d3.projection_gap > 1e-3 and d3.divergence_gap > 1e-3


def test_criterion_11_helmholtz():
    with criterion(11, "Helmholtz splits on 4^3 and 8^3 boxes: exact "
                       "dimension sums, orthogonality below 1e-8, zero "
                       "harmonic dimensions"):
        for m in (4, 8):
            dom = GridDomain.box((m, m, m))
            cx = YeeComplex(dom)
            dirichlet, neumann = helmholtz_decompose(dom)
            assert sum(dirichlet.dims) == cx.n_edges
            assert sum(neumann.dims) == cx.n_faces
            assert dirichlet.dims[2] == 0 and neumann.dims[2] == 0
            for split in (dirichlet, neumann):
                cross = split.gradients.ambient.gram(split.gradients.basis,
                                                     split.curls.basis)
                assert np.abs(cross).max() < 1e-8


def test_criterion_12_thermoelasticity():
    with criterion(12, "congruence identities at 1e-9; laminate resolvent "
                       "homogenisation below 5e-2 at n=16"):
        dom = GridDomain.box((6, 6))
        rng = np.random.default_rng(16)
        cvals = []
        for _ in range(dom.n_cells):
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            cvals.append(q @ np.diag(rng.uniform(1.0, 3.0, 2)) @ q.T)
        c = CoefficientField(dom, np.array(cvals), bounds=(0.5, 4.0))
        k = CoefficientField.constant(dom, 1.5, bounds=(0.5, 4.0))
        sys = assemble_thermo(dom, lambda p: 1 + 0.5 * p[:, 0], c, 0.8,
                              lambda p: 1 + 0.4 * p[:, 1], k, lam=1.5,
                              bounds=(0.5, 4.0))
        _, checks = congruence_diagonalize(sys, tol=1e-9)
        assert max(checks.values()) <= 1e-9

        two = lambda lo, hi: (lambda y: np.where(np.asarray(y) < 0.5, lo, hi))
        rep = thermo_homogenization_experiment(
            two(1.0, 4.0), two(1.0, 2.0), two(0.8, 1.2), two(1.0, 3.0),
            gamma=0.5, lam=1.0, n_list=[2, 4, 8, 16], bounds=(0.5, 5.0),
            mesh_rule=MeshRule(32))
        assert rep.final("gap_resolvent") < 5e-2
        assert rep.decreasing("gap_resolvent")


def test_criterion_13_maxwell():
    with criterion(13, "staggered complex identities at machine precision; "
                       "laminate resolvent experiment below 1e-1 at n=8 on "
                       "a box within 16^3"):
        cx = YeeComplex(GridDomain.box((8, 8, 8)))
        cg = cx.curl0 @ cx.grad0
        assert cg.nnz == 0 or np.abs(cg.data).max() == 0.0
        dc = cx.div_faces @ cx.curl0
        assert dc.nnz == 0 or np.abs(dc.data).max() == 0.0

        two = lambda lo, hi: (lambda y: np.where(np.asarray(y) < 0.5, lo, hi))
        rep = maxwell_homogenization_experiment(
            two(1.0, 4.0), two(1.0, 2.0), two(0.5, 1.0), lam=1.0,
            n_list=[1, 2, 4, 8], bounds=(0.5, 10.0), transverse_cells=8)
        assert rep.rows[-1]["cells_x"] <= 16
        assert rep.final("gap_resolvent") < 1e-1
        assert rep.decreasing("gap_resolvent")


def test_criterion_14_infinite_dimensional_claims_not_reproduced():
    with criterion(14, "compactness/metrizability claims are out of scope; "
                       "their roles are carried by rank bookkeeping, the "
                       "probe-closure surrogate, and the property checks"):
        # closure surrogate: probe-limit of coercive operators stays coercive
        space = HilbertSpace(6)
        rng = np.random.default_rng(17)
        base = coercive_member(space, 0.5, 4.0, seed=18)
        from homlab.hilbert import ProbeSet, wot_gap

        probes = ProbeSet.random(space, count=8, seed=19)
        pert = rng.standard_normal((6, 6))
        pert *= 0.2 / np.linalg.norm(pert, 2)
        gaps = [wot_gap(LinearOp(space, space, matrix=base.to_dense() + pert / n),
                        base, probes, probes) for n in (1, 4, 16)]
        assert gaps[-1] < gaps[0]
        assert coercivity_check(base, 0.5, 4.0, tol=1e-8).passed
        # closed ranges enter only through explicit rank bookkeeping
        dirichlet, neumann = helmholtz_decompose(GridDomain.box((4, 4, 4)))
        assert dirichlet.dims[2] == 0 and neumann.dims[2] == 0
