"""Config-driven experiment runner.

Every experiment is a subcommand taking an INI-style flat config (sections of
key = value pairs, no nesting); runs are deterministic for a fixed seed and
emit CSV tables whose first line carries the schema version and the config
digest. Exit codes: 0 when every assertion of the selected experiment holds,
1 on assertion failure (with a machine-readable JSON summary on stdout), 2 on
usage or configuration errors.

Frozen CSV column schemas (schema version 1; bump on change):

    hconv/laminate2d  n, cells_per_axis, unknowns, err_solution, err_flux
    cell              i, j, value, expected, abs_err
    qdind             n, cells, gap_inverse, gap_projected, gap_flux
    schur-gap         n, cells_per_axis, gap_m00inv, gap_m01, gap_m10,
                      gap_ms, gap_solution
    divcurl           n, pairing, weak_limit_product, gap
    divtest           case, n, projection_gap, divergence_gap
    evo               n, gap_m00inv, gap_m01, gap_m10, gap_ms,
                      gap_resolvent, gap_strong
    recover           trials, worst_error
    thermo            n, cells, gap_resolvent, gap_c_m00inv, gap_c_m01,
                      gap_c_m10, gap_c_ms, gap_w, gap_rho
    maxwell           n, cells_x, gap_m00inv, gap_m01, gap_m10, gap_ms,
                      gap_resolvent
    helmholtz         flavor, dim_gradients, dim_curls, dim_harmonic,
                      space_dim
    solution dumps    entity, x0[, x1[, x2]], value
"""

from __future__ import annotations

import configparser
import json
import math
import os
import sys
import warnings

import click
import numpy as np

from . import elliptic, evolution, homogenize, maxwell as maxwell_mod, thermo as thermo_mod
from .elliptic import CoefficientField, GridDomain, RHSFunctional
from .errors import ConfigError, HomlabError
from .hilbert import HilbertSpace, LinearOp
from .homogenize import CoefficientSequence, MeshRule, laminate_limit
from .serialize import config_digest, dump_solution_csv, write_report_csv

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_ALLOWED_KEYS = {
    "experiment": {"kind"},
    "domain": {"dim", "cells", "extents"},
    "coefficients": {"profile", "low", "high", "cut", "shift", "amplitude",
                     "frequency", "value", "alpha", "beta", "cell_kind", "path",
                     "gamma", "lambda", "eps_low", "eps_high", "mu_low",
                     "mu_high", "sigma_low", "sigma_high",
                     "c_low", "c_high", "kappa_low", "kappa_high",
                     "w_low", "w_high", "rho_low", "rho_high"},
    "run": {"n_list", "cells_per_period", "candidate", "tolerance", "flavor",
            "rhs", "mode", "min_correlation", "expected", "trials", "dim_max",
            "space_dim", "slope_tolerance", "gap_floor", "transverse_cells",
            "res_tolerance"},
    "probes": {"seed", "count"},
    "output": {"prefix"},
}

CATALOGUE = {
    "solve1d": (
        "one-dimensional variational solve with flux output",
        "checks the Galerkin residual and, for mesh-aligned piecewise "
        "coefficients, nodal agreement with the antiderivative construction",
    ),
    "laminate2d": (
        "two-phase laminate in 2-d against its effective diagonal tensor",
        "realizes the laminate H-limit (harmonic mean across, arithmetic "
        "along) as a probe-pairing convergence experiment",
    ),
    "cell": (
        "periodic cell problem and effective tensor",
        "computes the corrector averages xi -> mean(a v_xi); laminates check "
        "against mean formulas, the symmetric checkerboard against the "
        "sqrt(alpha beta) duality value",
    ),
    "hconv": (
        "H-convergence experiment for an oscillating family",
        "weak solution and flux probe pairings against the candidate "
        "effective solve, per the H-convergence definition",
    ),
    "qdind": (
        "one-dimensional equivalence tracker",
        "inverse-multiplier weak gaps and the compressed gradient-range "
        "inverse gaps must vanish together in 1-d",
    ),
    "schur-gap": (
        "block-map convergence on the gradient splitting",
        "tracks the four Schur maps (compressed inverse, two cross maps, "
        "Schur complement) against the candidate limit, jointly with the "
        "solution-operator gap",
    ),
    "divcurl": (
        "div-curl lemma pairing table",
        "cutoff pairings of gradient-structure sequences converge; the "
        "shipped counterexample reproduces the product-of-weak-limits "
        "failure",
    ),
    "divtest": (
        "divergence test",
        "strong gradient-range projection gaps and dual-norm divergence gaps "
        "vanish together or not at all",
    ),
    "evo": (
        "abstract skew-plus-coercive equivalence experiment",
        "block-map gaps and resolvent gaps along a synthetic or two-scale "
        "sequence decay jointly (slope -1 for 1/n perturbations)",
    ),
    "recover": (
        "coefficient recovery from resolvent limits",
        "round-trips T -> (T+A)^{-1} -> T through K = 1 - A S and checks "
        "the recovered operator keeps its coercivity class",
    ),
    "thermo": (
        "thermoelastic block system homogenisation",
        "congruence identities plus resolvent convergence under laminate "
        "material oscillations",
    ),
    "maxwell": (
        "staggered Maxwell homogenisation",
        "exact complex identities plus laminate resolvent convergence toward "
        "the lambda-dependent effective permittivity",
    ),
    "helmholtz": (
        "discrete Helmholtz decomposition",
        "gradient/curl/harmonic splitting with exact dimension bookkeeping; "
        "harmonic dimensions vanish on boxes",
    ),
}


class RunConfig:
    """Validated flat INI configuration with lossless round trip."""

    def __init__(self, sections):
        self.sections = sections

    @classmethod
    def parse_text(cls, text):
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
            items = {name: parser.items(name) for name in parser.sections()}
        except configparser.Error as exc:
            # a bad '%' interpolation carries the section and key
            where = f"[{exc.section}] {exc.option}: " if hasattr(exc, "option") else ""
            raise ConfigError(f"{where}{exc}") from exc
        sections = {}
        for name in items:
            if name not in _ALLOWED_KEYS:
                raise ConfigError(f"unknown section [{name}]")
            body = {}
            for key, value in items[name]:
                if key not in _ALLOWED_KEYS[name]:
                    raise ConfigError(f"[{name}] unknown key '{key}'")
                body[key] = value.strip()
            sections[name] = body
        return cls(sections)

    @classmethod
    def parse(cls, path):
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        cfg = cls.parse_text(text)
        cfg.text = text
        return cfg

    def to_text(self):
        lines = []
        for name in sorted(self.sections):
            lines.append(f"[{name}]")
            for key in sorted(self.sections[name]):
                lines.append(f"{key} = {self.sections[name][key]}")
            lines.append("")
        return "\n".join(lines)

    # typed getters with location-carrying errors
    def get(self, section, key, default=None, required=False):
        body = self.sections.get(section, {})
        if key not in body:
            if required:
                raise ConfigError(f"[{section}] missing required key '{key}'")
            return default
        return body[key]

    def get_float(self, section, key, default=None, required=False):
        raw = self.get(section, key, None, required)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: not a number ({raw!r})") from exc
        if not math.isfinite(value):
            raise ConfigError(f"[{section}] {key}: not a finite number ({raw!r})")
        return value

    def get_int(self, section, key, default=None, required=False):
        raw = self.get(section, key, None, required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: not an integer ({raw!r})") from exc

    def get_int_list(self, section, key, default=None, required=False):
        raw = self.get(section, key, None, required)
        if raw is None:
            return default
        try:
            values = [int(x) for x in raw.replace(",", " ").split()]
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: not an integer list") from exc
        if not values:
            raise ConfigError(f"[{section}] {key}: empty list")
        return values


def _at_least(cfg, section, key, default, least):
    """An integer key that must be at least ``least``."""
    value = cfg.get_int(section, key, default)
    if value < least:
        raise ConfigError(f"[{section}] {key}: must be at least {least} (got {value})")
    return value


def _domain_cells(cfg, default, least=1):
    """[domain] cells, the cell count per axis."""
    return _at_least(cfg, "domain", "cells", default, least)


def _run_mode(cfg, modes):
    """[run] mode, one of ``modes``; the first is the default."""
    mode = cfg.get("run", "mode", modes[0])
    if mode not in modes:
        raise ConfigError(f"[run] mode: must be one of {', '.join(modes)} (got {mode!r})")
    return mode


def _n_list(cfg, default):
    """[run] n_list, every entry at least 1."""
    n_list = cfg.get_int_list("run", "n_list", default)
    if min(n_list) < 1:
        raise ConfigError(f"[run] n_list: every entry must be at least 1 "
                          f"(got {min(n_list)})")
    return n_list


def _positive(cfg, key, default, zero_ok=False):
    """A [coefficients] value that must be positive, or at least 0 when
    zero_ok."""
    value = cfg.get_float("coefficients", key, default)
    if value < 0 or (value == 0 and not zero_ok):
        rule = "at least 0" if zero_ok else "positive"
        raise ConfigError(f"[coefficients] {key}: must be {rule} (got {value})")
    return value


def _phases(cfg, prefix, high, zero_ok=False):
    """[coefficients] {prefix}low and {prefix}high of a two-phase profile."""
    return (_positive(cfg, prefix + "low", 1.0, zero_ok),
            _positive(cfg, prefix + "high", high, zero_ok))


def _admit(keys, value, bounds, what=None):
    """Reject a [coefficients] value, or the combination ``what`` of the
    values of ``keys``, outside the closed coefficient class ``bounds`` that
    the experiment checks."""
    lo, hi = bounds
    if not lo <= value <= hi:
        raise ConfigError(f"[coefficients] {keys}: {what or keys} = {value:g} lies "
                          f"outside the admitted range [{lo}, {hi}]")


def _two_phase(cfg, prefix="", high=4.0, cut=0.5, zero_ok=False, admitted=None):
    """Two-phase profile of the fast variable, [coefficients] {prefix}low
    below the cut and {prefix}high above it, with its bounds. Both values
    must lie in ``admitted`` when it is given."""
    lo, hi = _phases(cfg, prefix, high, zero_ok)
    if admitted is not None:
        _admit(prefix + "low", lo, admitted)
        _admit(prefix + "high", hi, admitted)
    return (lambda y: np.where(np.asarray(y) < cut, lo, hi)), (min(lo, hi), max(lo, hi))


def _profile_from(cfg):
    """Periodic scalar profile of the fast variable from config keys."""
    kind = cfg.get("coefficients", "profile", "two_phase")
    if kind == "two_phase":
        return _two_phase(cfg, cut=cfg.get_float("coefficients", "cut", 0.5))
    if kind == "sin_shift":
        shift = cfg.get_float("coefficients", "shift", 2.0)
        amp = cfg.get_float("coefficients", "amplitude", 1.0)
        freq = cfg.get_int("coefficients", "frequency", 1)
        if shift - abs(amp) <= 0:
            raise ConfigError("[coefficients] sin_shift profile is not coercive")
        prof = lambda y: shift + amp * np.sin(2 * np.pi * freq * np.asarray(y))
        return prof, (shift - abs(amp), shift + abs(amp))
    if kind == "constant":
        value = _positive(cfg, "value", 1.0)
        return (lambda y: value + 0 * np.asarray(y)), (value, value)
    raise ConfigError(f"[coefficients] unknown profile {kind!r}")


def _candidate_from(cfg, profile, dim):
    name = cfg.get("run", "candidate", "laminate")
    a_h, a_m = laminate_limit(profile)
    if name == "harmonic":
        return a_h if dim == 1 else np.diag([a_h] * dim)
    if name == "arithmetic":
        return a_m if dim == 1 else np.diag([a_m] * dim)
    if name == "laminate":
        return a_h if dim == 1 else np.diag([a_h] + [a_m] * (dim - 1))
    try:
        return float(name)
    except ValueError as exc:
        raise ConfigError(f"[run] candidate: unknown value {name!r}") from exc


def _emit(out, name, report, digest):
    path = os.path.join(out, f"{name}.csv")
    write_report_csv(path, report, digest=digest)
    return path


def _table(kind, columns, rows, meta=None):
    return homogenize.ExperimentReport(kind=kind, columns=tuple(columns),
                                       rows=rows, meta=meta or {})


# -- experiment runners: each returns (artifact paths, failure strings) -------


def _run_solve1d(cfg, out, seed, digest):
    coef_path = cfg.get("coefficients", "path")
    flavor = cfg.get("run", "flavor", "dirichlet")
    if coef_path:
        from .serialize import load_coefficient_text

        a = load_coefficient_text(coef_path)
        dom = a.domain
        if dom.dim != 1:
            raise ConfigError("[coefficients] path: solve1d needs a 1-d field")
    else:
        cells = _domain_cells(cfg, 256)
        elliptic.check_budget((cells,), flavor)    # before the field is sampled
        dom = GridDomain.interval(0, 1, cells)
        profile, bounds = _profile_from(cfg)
        a = CoefficientField.from_function(dom, lambda p: profile(p[:, 0] % 1.0),
                                           bounds=bounds)
    f = RHSFunctional.density(lambda p: np.ones(len(p)))
    u, q = elliptic.solve_elliptic(dom, a, f, flavor=flavor)
    grad = elliptic.build_grad(dom, flavor)
    path = os.path.join(out, "solution.csv")
    dump_solution_csv(path, grad, u, q, digest=digest)
    # matrix fixtures in the sparse triplet format
    from .serialize import save_triplet

    trip = os.path.join(out, "galerkin.triplet")
    save_triplet(trip, elliptic.galerkin_matrix(grad, a))
    return [path, trip], []


def _run_hconv(cfg, out, seed, digest, dim=None):
    dim = dim or cfg.get_int("domain", "dim", 1)
    profile, bounds = _profile_from(cfg)
    seq = CoefficientSequence.laminate(profile, bounds=bounds)
    n_list = cfg.get_int_list("run", "n_list", required=True)
    ppd = cfg.get_int("run", "cells_per_period", 32 if dim == 1 else 16)
    tol = cfg.get_float("run", "tolerance", 0.02 if dim == 1 else 0.05)
    cand = _candidate_from(cfg, profile, dim)
    f = RHSFunctional.density(lambda p: np.ones(len(p)))
    rep = homogenize.hconvergence_experiment(
        seq, f, cand, n_list, dim=dim, mesh_rule=MeshRule(ppd),
        probe_seed=seed, flavor=cfg.get("run", "flavor", "dirichlet"))
    paths = [_emit(out, "hconv", rep, digest)]
    ok, msg = rep.check_decay(("err_solution", "err_flux"), tol)
    return paths, [] if ok else [f"hconv decay: {msg}"]


def _run_laminate2d(cfg, out, seed, digest):
    return _run_hconv(cfg, out, seed, digest, dim=2)


def _run_cell(cfg, out, seed, digest):
    kind = cfg.get("coefficients", "cell_kind", "laminate")
    cells = _domain_cells(cfg, 64)
    elliptic.check_budget((cells, cells), "periodic")    # before the field is sampled
    tol = cfg.get_float("run", "tolerance", 0.02)
    profile, bounds = _profile_from(cfg)
    if kind == "laminate":
        dom = GridDomain.box((cells, cells))
        field = CoefficientField.from_function(
            dom, lambda p: profile(p[:, 0] % 1.0), bounds=bounds)
        a_h, a_m = laminate_limit(profile)
        expected = np.diag([a_h, a_m])
    elif kind == "checkerboard":
        low = _positive(cfg, "low", 1.0)
        high = _positive(cfg, "high", 4.0)
        dom = GridDomain.box((cells, cells))

        def cb(p):
            return np.where(((np.floor(2 * p[:, 0]) + np.floor(2 * p[:, 1])) % 2) == 0,
                            low, high)

        field = CoefficientField.from_function(dom, cb,
                                               bounds=(min(low, high), max(low, high)))
        expected = np.sqrt(low * high) * np.eye(2)
    elif kind == "constant":
        v = _positive(cfg, "value", 2.0)
        dom = GridDomain.box((cells, cells))
        field = CoefficientField.constant(dom, v, bounds=(v, v))
        expected = v * np.eye(2)
    else:
        raise ConfigError(f"[coefficients] unknown cell_kind {kind!r}")
    a_hom = homogenize.homogenized_tensor(field)
    scale = np.abs(expected).max()
    rows = [{"i": i, "j": j, "value": a_hom[i, j].real,
             "expected": expected[i, j], "abs_err": abs(a_hom[i, j] - expected[i, j])}
            for i in range(2) for j in range(2)]
    rep = _table("cell", ("i", "j", "value", "expected", "abs_err"), rows,
                 {"cells": cells, "kind": kind})
    paths = [_emit(out, "cell", rep, digest)]
    err = max(r["abs_err"] for r in rows) / scale
    return paths, [] if err <= tol else [f"cell tensor error {err:.3e} above {tol}"]


def _run_qdind(cfg, out, seed, digest):
    profile, bounds = _profile_from(cfg)
    seq = CoefficientSequence.laminate(profile, bounds=bounds)
    n_list = cfg.get_int_list("run", "n_list", required=True)
    ppd = cfg.get_int("run", "cells_per_period", 32)
    tol = cfg.get_float("run", "tolerance", 1e-2)
    min_corr = cfg.get_float("run", "min_correlation", 0.9)
    rep = homogenize.qdind_check(seq, n_list, mesh_rule=MeshRule(ppd),
                                 probe_seed=seed)
    paths = [_emit(out, "qdind", rep, digest)]
    failures = []
    ok, msg = rep.check_decay(("gap_inverse", "gap_projected", "gap_flux"), tol)
    if not ok:
        failures.append(f"qdind decay: {msg}")
    if len(n_list) > 2:
        corr = homogenize.log_gap_correlation(rep, "gap_inverse", "gap_projected")
        if corr < min_corr:
            failures.append(f"qdind correlation {corr:.3f} below {min_corr}")
    return paths, failures


def _run_schur_gap(cfg, out, seed, digest):
    dim = cfg.get_int("domain", "dim", 1)
    profile, bounds = _profile_from(cfg)
    seq = CoefficientSequence.laminate(profile, bounds=bounds)
    n_list = cfg.get_int_list("run", "n_list", required=True)
    ppd = cfg.get_int("run", "cells_per_period", 32 if dim == 1 else 16)
    tol = cfg.get_float("run", "tolerance", 0.05)
    cand = _candidate_from(cfg, profile, dim)
    rep = homogenize.schur_equiv_check(seq, n_list, cand, dim=dim,
                                       mesh_rule=MeshRule(ppd), probe_seed=seed)
    paths = [_emit(out, "schur_gap", rep, digest)]
    cols = ("gap_m00inv", "gap_m01", "gap_m10", "gap_ms", "gap_solution")
    ok, msg = rep.check_decay(cols, tol)
    return paths, [] if ok else [f"schur gaps: {msg}"]


def _run_divcurl(cfg, out, seed, digest):
    mode = _run_mode(cfg, ("compliant", "counterexample"))
    n_list = _n_list(cfg, [4, 8, 16, 32])
    rows = []
    failures = []
    if mode == "counterexample":
        m = _domain_cells(cfg, 4096)
        dom = GridDomain.interval(0, 1, m)
        phi = elliptic.smooth_bump(dom)
        grad = elliptic.build_grad(dom)
        half_phi = 0.5 * (grad.elem_measure * phi(grad.elem_mid)).sum()
        fields = [(lambda pts, n=n: np.sin(2 * np.pi * n * pts)) for n in n_list]
        vals = elliptic.divcurl_pairing(dom, fields, fields, phi=phi)
        for n, v in zip(n_list, vals):
            rows.append({"n": n, "pairing": v.real, "weak_limit_product": 0.0,
                         "gap": abs(v.real)})
        floor = cfg.get_float("run", "gap_floor", 0.1)
        if not all(r["gap"] > floor * abs(half_phi) / 0.5 * 0.5 for r in rows):
            failures.append("counterexample pairing collapsed toward zero")
        if abs(rows[-1]["pairing"] - half_phi) > 0.05 * abs(half_phi):
            failures.append("counterexample pairing missed half the cutoff mass")
    else:
        ppd = _at_least(cfg, "run", "cells_per_period", 64, 1)
        elliptic.check_budget((ppd * max(n_list),), "dirichlet")    # before any field is sampled
        f = RHSFunctional.density(lambda p: np.ones(len(p)))
        profile, bounds = _profile_from(cfg)
        r_fn = lambda pts: np.stack([np.cos(np.pi * pts[:, 0])], axis=-1)
        a_h, _ = laminate_limit(profile)
        vals = []
        for n in n_list:
            dom = GridDomain.interval(0, 1, ppd * n)
            a = CoefficientField.from_function(
                dom, lambda p, n=n: profile((n * p[:, 0]) % 1.0), bounds=bounds)
            u, _ = elliptic.solve_elliptic(dom, a, f)
            g = elliptic.build_grad(dom)
            vals.append(elliptic.divcurl_pairing(
                dom, [g.matrix @ u], [g.sample_vector(r_fn)])[0])
        dom = GridDomain.interval(0, 1, ppd * max(n_list))
        a_lim = CoefficientField.constant(dom, a_h, bounds=bounds, check=False)
        u, _ = elliptic.solve_elliptic(dom, a_lim, f)
        g = elliptic.build_grad(dom)
        lim = elliptic.divcurl_pairing(dom, [g.matrix @ u],
                                       [g.sample_vector(r_fn)])[0]
        for n, v in zip(n_list, vals):
            rows.append({"n": n, "pairing": v.real, "weak_limit_product": lim.real,
                         "gap": abs(v - lim)})
        tol = cfg.get_float("run", "tolerance", 0.02)
        if not (rows[-1]["gap"] <= tol * abs(lim) and rows[0]["gap"] >= rows[-1]["gap"]):
            failures.append("compliant pairing did not converge to the limit pairing")
    rep = _table("divcurl", ("n", "pairing", "weak_limit_product", "gap"), rows,
                 {"mode": mode})
    return [_emit(out, "divcurl", rep, digest)], failures


def _run_divtest(cfg, out, seed, digest):
    m = _domain_cells(cfg, 2048)
    dom = GridDomain.interval(0, 1, m)
    grad = elliptic.build_grad(dom)
    rows = []
    zero = np.zeros(grad.vector_space.dim)
    # vanishing case: the difference IS zero
    d0 = elliptic.divergence_defect(dom, zero, zero)
    rows.append({"case": 0, "n": 0, "projection_gap": d0.projection_gap,
                 "divergence_gap": d0.divergence_gap})
    for n in cfg.get_int_list("run", "n_list", [4, 8, 16]):
        r_n = grad.sample_vector(lambda pts, n=n: np.cos(2 * np.pi * n * pts))
        d = elliptic.divergence_defect(dom, r_n, zero)
        rows.append({"case": 1, "n": n, "projection_gap": d.projection_gap,
                     "divergence_gap": d.divergence_gap})
    failures = []
    for r in rows:
        small = r["projection_gap"] < 1e-8 and r["divergence_gap"] < 1e-8
        large = r["projection_gap"] > 1e-3 and r["divergence_gap"] > 1e-3
        if not (small or large):
            failures.append(f"divtest row n={r['n']}: gaps did not vanish together")
    rep = _table("divtest", ("case", "n", "projection_gap", "divergence_gap"), rows)
    return [_emit(out, "divtest", rep, digest)], failures


def _run_evo(cfg, out, seed, digest):
    mode = _run_mode(cfg, ("synthetic", "two_scale"))
    n_list = _n_list(cfg, [1, 2, 4, 8, 16, 32])
    failures = []
    if mode == "two_scale":
        tol = cfg.get_float("run", "tolerance", 5e-2)
        ppd = cfg.get_int("run", "cells_per_period", 32)

        def factory(n):
            dom = GridDomain.interval(0, 1, ppd * n)
            grad = elliptic.build_grad(dom, "dirichlet")
            op, space = evolution.grid_skew_block(grad)
            a = evolution.skew_split(LinearOp(space, space, matrix=op.to_dense()))
            x_n = grad.node_coords[:, 0]
            x_c = grad.elem_mid[:, 0]
            osc = lambda x: 2.0 + np.sin(2 * np.pi * n * x)
            t_n = LinearOp(space, space, matrix=np.diag(
                np.concatenate([osc(x_n), osc(x_c)])))
            t_lim = LinearOp(space, space, matrix=2.0 * np.eye(space.dim))
            from .hilbert import ProbeSet

            probes = ProbeSet.from_vectors(space, [
                np.concatenate([np.sin(k * np.pi * x_n), np.sin(k * np.pi * x_c)])
                for k in (1, 2, 3)
            ])
            return a, t_n, t_lim, probes, np.zeros(a.ran.dim)

        rep = evolution.two_scale_evo_experiment(factory, n_list)
        for col in ("gap_resolvent",):
            if not (rep.final(col) <= tol and rep.decreasing(col)):
                failures.append(f"two-scale {col} did not decay below {tol}")
    else:
        tol = cfg.get_float("run", "tolerance", 1e-6)
        dim = cfg.get_int("run", "space_dim", 10)
        rng = np.random.default_rng(seed)
        space = HilbertSpace(dim)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        base = q @ np.diag(rng.uniform(0.7, 2.8, dim)) @ q.T
        t = LinearOp(space, space, matrix=base)
        skew = rng.standard_normal((dim, dim))
        skew = skew - skew.T
        # force a kernel so all four block maps are in play
        deficit = max(2, dim // 4)
        skew[:deficit, :] = 0.0
        skew[:, :deficit] = 0.0
        skew *= 0.5 / np.linalg.norm(skew, 2)
        a = evolution.skew_split(LinearOp(space, space, matrix=skew))
        pert = rng.standard_normal((dim, dim))
        pert *= 0.1 / np.linalg.norm(pert, 2)
        t_seq = lambda n: LinearOp(space, space, matrix=base + pert / n)
        rep = evolution.abstract_schur_experiment(a, t_seq, t, n_list=n_list,
                                                  seed=seed)
        slope_tol = cfg.get_float("run", "slope_tolerance", 0.1)
        logn = np.log(np.array(n_list, dtype=float))
        for col in ("gap_m00inv", "gap_ms", "gap_resolvent"):
            slope = np.polyfit(logn, np.log(np.maximum(rep.values(col), 1e-300)), 1)[0]
            if abs(slope + 1.0) > slope_tol:
                failures.append(f"evo {col}: log-log slope {slope:.3f} not -1")
        equiv, tau_ok, res_ok = evolution.check_joint_decay(
            rep, max(tol, rep.final("gap_m00inv") * 1.5),
            max(tol, rep.final("gap_resolvent") * 1.5))
        if not equiv:
            failures.append("evo: block-map and resolvent decay disagreed")
    return [_emit(out, "evo", rep, digest)], failures


def _run_recover(cfg, out, seed, digest):
    trials = cfg.get_int("run", "trials", 200)
    dim_max = cfg.get_int("run", "dim_max", 10)
    rng = np.random.default_rng(seed)
    failures = []
    worst = 0.0
    for trial in range(trials):
        n = int(rng.integers(2, dim_max))
        space = HilbertSpace(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        base = q @ np.diag(rng.uniform(0.7, 2.8, n)) @ q.T
        sk = rng.standard_normal((n, n))
        sk = sk - sk.T
        sk *= 0.05 / max(np.linalg.norm(sk, 2), 1e-12)
        t0 = LinearOp(space, space, matrix=base + sk)
        askew = rng.standard_normal((n, n))
        askew = askew - askew.T
        a = evolution.skew_split(LinearOp(space, space, matrix=askew))
        s = LinearOp(space, space, matrix=np.linalg.inv(t0.to_dense() + a.matrix()))
        try:
            t = evolution.recover_coefficient(s, a, bounds=(0.5, 4.0))
        except HomlabError as exc:
            failures.append(f"recover trial {trial}: {exc}")
            continue
        worst = max(worst, np.abs(t.to_dense() - t0.to_dense()).max())
    if worst > 1e-10:
        failures.append(f"recover: worst round-trip error {worst:.3e} above 1e-10")
    rep = _table("recover", ("trials", "worst_error"),
                 [{"trials": trials, "worst_error": worst}])
    return [_emit(out, "recover", rep, digest)], failures


# the coefficient classes of the thermo and Maxwell experiments: every
# coefficient (Maxwell: lambda eps + sigma and mu) must lie in these bounds
_THERMO_BOUNDS = (0.4, 5.0)
_MAXWELL_BOUNDS = (0.4, 10.0)


def _run_thermo(cfg, out, seed, digest):
    gamma = cfg.get_float("coefficients", "gamma", 0.5)
    lam = cfg.get_float("coefficients", "lambda", 1.0)
    n_list = cfg.get_int_list("run", "n_list", [2, 4, 8, 16])
    ppd = cfg.get_int("run", "cells_per_period", 32)
    tol = cfg.get_float("run", "tolerance", 5e-2)
    c, kappa, w, rho = (_two_phase(cfg, f"{name}_", admitted=_THERMO_BOUNDS)[0]
                        for name in ("c", "kappa", "w", "rho"))
    rep = thermo_mod.thermo_homogenization_experiment(
        c, kappa, w, rho, gamma=gamma, lam=lam,
        n_list=n_list, bounds=_THERMO_BOUNDS, mesh_rule=MeshRule(ppd),
        probe_seed=seed)
    paths = [_emit(out, "thermo", rep, digest)]
    ok = rep.final("gap_resolvent") <= tol and rep.decreasing("gap_resolvent")
    return paths, [] if ok else [
        f"thermo resolvent gap {rep.final('gap_resolvent'):.3e} above {tol}"]


def _run_maxwell(cfg, out, seed, digest):
    lam = cfg.get_float("coefficients", "lambda", 1.0)
    n_list = cfg.get_int_list("run", "n_list", [1, 2, 4, 8])
    tol = cfg.get_float("run", "tolerance", 1e-1)
    tc = _at_least(cfg, "run", "transverse_cells", 8, 2)    # the Yee complex's minimum
    eps = _two_phase(cfg, "eps_", 4.0)[0]
    mu = _two_phase(cfg, "mu_", 2.0)[0]
    sigma = _two_phase(cfg, "sigma_", 1.0, zero_ok=True)[0]
    for phase, e, m, s in zip(("low", "high"), _phases(cfg, "eps_", 4.0), _phases(cfg, "mu_", 2.0),
                              _phases(cfg, "sigma_", 1.0, zero_ok=True)):
        _admit(f"lambda, eps_{phase}, sigma_{phase}", lam * e + s, _MAXWELL_BOUNDS,
               f"lambda * eps_{phase} + sigma_{phase}")
        _admit(f"mu_{phase}", lam * m, _MAXWELL_BOUNDS, f"lambda * mu_{phase}")
    rep = maxwell_mod.maxwell_homogenization_experiment(
        eps, mu, sigma, lam=lam,
        n_list=n_list, bounds=_MAXWELL_BOUNDS, transverse_cells=tc,
        probe_seed=seed)
    paths = [_emit(out, "maxwell", rep, digest)]
    ok = rep.final("gap_resolvent") <= tol and rep.decreasing("gap_resolvent")
    return paths, [] if ok else [
        f"maxwell resolvent gap {rep.final('gap_resolvent'):.3e} above {tol}"]


def _run_helmholtz(cfg, out, seed, digest):
    cells = _domain_cells(cfg, 4, least=2)    # the Yee complex's minimum
    dom = GridDomain.box((cells, cells, cells))
    cx = maxwell_mod.YeeComplex(dom)
    dirichlet, neumann = maxwell_mod.helmholtz_decompose(dom)
    rows = []
    failures = []
    for split, total in ((dirichlet, cx.n_edges), (neumann, cx.n_faces)):
        rows.append({
            "flavor": 0 if split.flavor == "dirichlet" else 1,
            "dim_gradients": split.dims[0],
            "dim_curls": split.dims[1],
            "dim_harmonic": split.dims[2],
            "space_dim": total,
        })
        if sum(split.dims) != total:
            failures.append(f"{split.flavor}: dimensions do not sum")
        if split.dims[2] != 0:
            failures.append(f"{split.flavor}: nonzero harmonic dimension on a box")
        cross = split.gradients.ambient.gram(split.gradients.basis, split.curls.basis)
        if cross.size and np.abs(cross).max() > 1e-8:
            failures.append(f"{split.flavor}: gradient/curl blocks not orthogonal")
    rep = _table("helmholtz", ("flavor", "dim_gradients", "dim_curls",
                               "dim_harmonic", "space_dim"), rows,
                 {"cells": cells})
    return [_emit(out, "helmholtz", rep, digest)], failures


_RUNNERS = {
    "solve1d": _run_solve1d,
    "laminate2d": _run_laminate2d,
    "cell": _run_cell,
    "hconv": _run_hconv,
    "qdind": _run_qdind,
    "schur-gap": _run_schur_gap,
    "divcurl": _run_divcurl,
    "divtest": _run_divtest,
    "evo": _run_evo,
    "recover": _run_recover,
    "thermo": _run_thermo,
    "maxwell": _run_maxwell,
    "helmholtz": _run_helmholtz,
}


def _execute(kind, config, out, seed, strict):
    try:
        cfg = RunConfig.parse(config)
    except ConfigError as exc:
        click.echo(json.dumps({"status": "config-error", "error": str(exc)}))
        sys.exit(EXIT_USAGE)
    declared = cfg.get("experiment", "kind")
    if declared and declared != kind:
        click.echo(json.dumps({
            "status": "config-error",
            "error": f"[experiment] kind={declared!r} does not match subcommand {kind!r}",
        }))
        sys.exit(EXIT_USAGE)
    prefix = cfg.get("output", "prefix")
    if prefix:
        out = os.path.join(out, prefix)
    os.makedirs(out, exist_ok=True)
    digest = config_digest(cfg.text + f"|seed={seed}")
    try:
        elliptic.unknown_budget()    # a malformed budget is a config error for every run
        with warnings.catch_warnings():
            if strict:
                warnings.simplefilter("error")
            paths, failures = _RUNNERS[kind](cfg, out, seed, digest)
    except ConfigError as exc:
        click.echo(json.dumps({"status": "config-error", "error": str(exc)}))
        sys.exit(EXIT_USAGE)
    except (HomlabError, Warning) as exc:    # under --strict a warning is an error
        click.echo(json.dumps({"status": "error",
                               "error": f"{type(exc).__name__}: {exc}"}))
        sys.exit(EXIT_FAIL)
    if failures:
        click.echo(json.dumps({"status": "fail", "failures": failures,
                               "artifacts": paths}))
        sys.exit(EXIT_FAIL)
    click.echo(json.dumps({"status": "ok", "artifacts": paths}))
    sys.exit(EXIT_OK)


@click.group()
def main():
    """Numerical laboratory for effective-coefficient convergence experiments."""


def _register(kind):
    @main.command(name=kind, help=CATALOGUE[kind][0])
    @click.option("--config", required=True, type=click.Path(), help="INI config path")
    @click.option("--out", default=".", type=click.Path(), help="output directory")
    @click.option("--seed", default=None, type=int, help="probe seed override")
    @click.option("--strict", is_flag=True, help="treat warnings as errors")
    def _cmd(config, out, seed, strict, _kind=kind):
        cfg_seed = seed
        if cfg_seed is None:
            try:
                cfg_seed = RunConfig.parse(config).get_int("probes", "seed", 0)
            except ConfigError:
                cfg_seed = 0
        _execute(_kind, config, out, cfg_seed, strict)


for _kind in _RUNNERS:
    _register(_kind)


@main.command(name="list")
def list_cmd():
    """Print the experiment catalogue."""
    for name in sorted(CATALOGUE):
        click.echo(f"{name}: {CATALOGUE[name][0]}")


@main.command()
@click.argument("name")
def describe(name):
    """Describe one experiment and what it verifies."""
    if name not in CATALOGUE:
        raise click.UsageError(f"unknown experiment {name!r}")
    summary, checks = CATALOGUE[name]
    click.echo(f"{name}: {summary}")
    click.echo(f"verifies: {checks}")


if __name__ == "__main__":
    main()
