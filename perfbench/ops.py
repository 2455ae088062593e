"""The in-process operations of the cell, sweep and resolvent workloads.

Each operation calls homlab's public functions through their modules at
call time (``homogenize.homogenized_tensor``, not a bound name), so that the
wrappers the tracer installs are the ones that run. Each returns
``(outputs, failures)``: named numeric outputs for the reference comparison,
and the failed checks as strings (the experiment's own verdict plus the
analytic bounds).
"""

import math

import numpy as np

from homlab import elliptic, evolution, hilbert, homogenize, maxwell, thermo


def _two_phase(low, high):
    return lambda y: np.where(np.asarray(y) < 0.5, low, high)


def _report_outputs(report):
    out = {}
    for i, row in enumerate(report.rows):
        for col in report.columns:
            value = complex(row[col])
            out[f"{i}.{col}"] = value.real
            if value.imag:
                out[f"{i}.{col}.imag"] = value.imag
    return out


def _tensor_outputs(a):
    out = {}
    for (i, j), value in np.ndenumerate(a):
        out[f"a{i}{j}"] = complex(value).real
        if complex(value).imag:
            out[f"a{i}{j}.imag"] = complex(value).imag
    return out


def _decay_failures(report, cols, tol, strict_first=False):
    """The CLI's verdict: final value at most ``tol`` (when given) and the
    first value above (or, unless strict, at least) the last."""
    failures = []
    for col in cols:
        v = report.values(col)
        if tol is not None and not v[-1] <= tol:
            failures.append(f"{col}: final {v[-1]:.3e} above {tol:.1e}")
        if not (v[0] > v[-1] if strict_first else v[0] >= v[-1]):
            failures.append(f"{col}: not decreasing ({v[0]:.3e} -> {v[-1]:.3e})")
    return failures


# -- cell --------------------------------------------------------------------


def cell_checkerboard(inp):
    """Symmetric checkerboard cell: the effective tensor is sqrt(lo hi) I by
    Keller-Dykhne duality; 2 % covers the discretisation error at 256^2."""
    low, high = inp["pairs"]["checkerboard"]
    cells = inp["sizes"]["checkerboard_cells"]
    dom = elliptic.GridDomain.box((cells, cells))

    def cb(p):
        return np.where(((np.floor(2 * p[:, 0]) + np.floor(2 * p[:, 1])) % 2) == 0,
                        low, high)

    field = elliptic.CoefficientField.from_function(dom, cb, bounds=(low, high))
    a = homogenize.homogenized_tensor(field)
    expected = math.sqrt(low * high)
    err = np.abs(a - expected * np.eye(2)).max() / expected
    tol = 0.02 if not inp["tiny"] else 0.2
    failures = [] if err <= tol else [f"checkerboard error {err:.3e} above {tol}"]
    return _tensor_outputs(a), failures


def cell_laminate3d(inp):
    """Laminate across x1: diag(harmonic, arithmetic, arithmetic) mean."""
    low, high = inp["pairs"]["laminate3d"]
    cells = inp["sizes"]["laminate_cells"]
    dom = elliptic.GridDomain.box((cells, cells, cells))
    prof = _two_phase(low, high)
    field = elliptic.CoefficientField.from_function(
        dom, lambda p: prof(p[:, 0] % 1.0), bounds=(low, high))
    a = homogenize.homogenized_tensor(field)
    harmonic = 2.0 / (1.0 / low + 1.0 / high)
    arithmetic = 0.5 * (low + high)
    expected = np.diag([harmonic, arithmetic, arithmetic])
    err = np.abs(a - expected).max() / arithmetic
    failures = [] if err <= 0.01 else [f"laminate error {err:.3e} above 0.01"]
    return _tensor_outputs(a), failures


# -- sweep -------------------------------------------------------------------


def _laminate_sequence(inp):
    low, high = inp["pairs"]["laminate"]
    seq = homogenize.CoefficientSequence.laminate(_two_phase(low, high),
                                                  bounds=(low, high))
    candidate = np.diag([2.0 / (1.0 / low + 1.0 / high), 0.5 * (low + high)])
    return seq, candidate


def sweep_hconv(inp):
    """2-d Dirichlet laminate H-convergence; the laminate2d config's verdict."""
    seq, candidate = _laminate_sequence(inp)
    f = elliptic.RHSFunctional.density(lambda p: np.ones(len(p)))
    rep = homogenize.hconvergence_experiment(
        seq, f, candidate, inp["sizes"]["hconv_n"], dim=2,
        mesh_rule=homogenize.MeshRule(inp["sizes"]["cells_per_period"]),
        probe_seed=inp["probe_seed"])
    tol = 0.05 if not inp["tiny"] else None
    return _report_outputs(rep), _decay_failures(rep, ("err_solution", "err_flux"), tol)


def sweep_schur(inp):
    """2-d Schur-map equivalence: every gap column ends below where it began
    (the acceptance suite's all-four-decay check)."""
    seq, candidate = _laminate_sequence(inp)
    rep = homogenize.schur_equiv_check(
        seq, inp["sizes"]["schur_n"], candidate, dim=2,
        mesh_rule=homogenize.MeshRule(inp["sizes"]["cells_per_period"]),
        probe_seed=inp["probe_seed"])
    cols = ("gap_m00inv", "gap_m01", "gap_m10", "gap_ms", "gap_solution")
    return _report_outputs(rep), _decay_failures(rep, cols, None, strict_first=True)


# -- resolvent ---------------------------------------------------------------


def resolvent_thermo(inp):
    p = inp["pairs"]
    rep = thermo.thermo_homogenization_experiment(
        _two_phase(*p["thermo_c"]), _two_phase(*p["thermo_kappa"]),
        _two_phase(*p["thermo_w"]), _two_phase(*p["thermo_rho"]),
        gamma=0.5, lam=1.0, n_list=inp["sizes"]["thermo_n"], bounds=(0.4, 5.0),
        mesh_rule=homogenize.MeshRule(inp["sizes"]["thermo_cells_per_period"]),
        probe_seed=inp["probe_seed"])
    tol = 5e-2 if not inp["tiny"] else None
    return _report_outputs(rep), _decay_failures(rep, ("gap_resolvent",), tol)


def resolvent_maxwell(inp):
    p = inp["pairs"]
    rep = maxwell.maxwell_homogenization_experiment(
        _two_phase(*p["maxwell_eps"]), _two_phase(*p["maxwell_mu"]),
        _two_phase(*p["maxwell_sigma"]), lam=1.0,
        n_list=inp["sizes"]["maxwell_n"], bounds=(0.4, 10.0),
        transverse_cells=inp["sizes"]["maxwell_transverse"],
        probe_seed=inp["probe_seed"])
    tol = 1e-1 if not inp["tiny"] else None
    return _report_outputs(rep), _decay_failures(rep, ("gap_resolvent",), tol)


def resolvent_two_scale(inp):
    """The evo_two_scale config's experiment, built from public functions."""
    ppd = inp["sizes"]["evo_cells_per_period"]

    def factory(n):
        dom = elliptic.GridDomain.interval(0, 1, ppd * n)
        grad = elliptic.build_grad(dom, "dirichlet")
        op, space = evolution.grid_skew_block(grad)
        a = evolution.skew_split(hilbert.LinearOp(space, space, matrix=op.to_dense()))
        x_n = grad.node_coords[:, 0]
        x_c = grad.elem_mid[:, 0]
        osc = lambda x: 2.0 + np.sin(2 * np.pi * n * x)
        t_n = hilbert.LinearOp(space, space, matrix=np.diag(
            np.concatenate([osc(x_n), osc(x_c)])))
        t_lim = hilbert.LinearOp(space, space, matrix=2.0 * np.eye(space.dim))
        probes = hilbert.ProbeSet.from_vectors(space, [
            np.concatenate([np.sin(k * np.pi * x_n), np.sin(k * np.pi * x_c)])
            for k in (1, 2, 3)
        ])
        return a, t_n, t_lim, probes, np.zeros(a.ran.dim)

    rep = evolution.two_scale_evo_experiment(factory, inp["sizes"]["evo_n"])
    tol = 5e-2 if not inp["tiny"] else None
    return _report_outputs(rep), _decay_failures(rep, ("gap_resolvent",), tol)


FUNCTIONS = {
    "checkerboard": cell_checkerboard,
    "laminate3d": cell_laminate3d,
    "hconv": sweep_hconv,
    "schur_equiv": sweep_schur,
    "thermo": resolvent_thermo,
    "maxwell": resolvent_maxwell,
    "two_scale_evo": resolvent_two_scale,
}
