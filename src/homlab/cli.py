"""Config-driven experiment runner.

Every experiment is a subcommand taking an INI-style flat config (sections of
key = value pairs, no nesting); runs are deterministic and emit CSV tables
whose first line carries the schema version and the config digest, seed
included. Only the synthetic ``evo`` mode and ``recover`` draw random numbers
from the probe seed; the grid experiments probe with fixed sine modes, so
their rows do not depend on it. Each runner reads its keys through one
table, ``_KEYS[kind]``, and ``params`` checks a config against it before any
experiment code runs: an unknown or unread key and a value that breaks its
rule are config errors; ``homlab describe <kind>`` prints the table. A
runner then calls one library experiment, writes its report, whose CSV
columns (schema version 1; bump on change) are its row keys, and returns
the failures of the experiment's library verdict; the README's CLI table
lists each kind's function, verdict and columns. Exit codes: 0 when every
assertion of the selected experiment holds, 1 on assertion failure (with a
machine-readable JSON summary on stdout), 2 on usage or configuration errors.
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
from .errors import ConfigError, HomlabError, ShapeError
from .hilbert import _DENSE_SVD_CUTOFF
from .homogenize import CoefficientSequence, MeshRule, laminate_limit
from .serialize import (config_digest, dump_solution_csv, load_coefficient_text, save_triplet,
                        write_report_csv)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

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
        "resolvent convergence under laminate material oscillations: the "
        "resolvent probe gap at the last n is at most [run] tolerance and "
        "no larger than at the first",
    ),
    "maxwell": (
        "staggered Maxwell homogenisation",
        "laminate resolvent convergence toward the lambda-dependent effective "
        "permittivity: the resolvent probe gap at the last n is at most "
        "[run] tolerance and no larger than at the first",
    ),
    "helmholtz": (
        "discrete Helmholtz decomposition",
        "gradient/curl/harmonic splittings of edge and face fields from one "
        "SVD of curl0: each gradient range lies in its curl kernel, the three "
        "dimensions sum to the space dimension, both harmonic dimensions "
        "vanish on the box, and gradients and curls are orthogonal to 1e-8",
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
        known = {name for table in _KEYS.values() for name in table}
        sections = {}
        for name in items:
            if not any(k.startswith(f"{name}.") for k in known):
                raise ConfigError(f"unknown section [{name}]")
            body = {}
            for key, value in items[name]:
                if f"{name}.{key}" not in known:
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


# the coefficient classes of the thermo and Maxwell experiments: every
# coefficient (Maxwell: lambda eps + sigma and mu) must lie in these bounds
_THERMO_BOUNDS, _MAXWELL_BOUNDS = (0.4, 5.0), (0.4, 10.0)
# the most thermo cells whose solves meet their 1e-10 residual check, set by
# the 1-d Galerkin solve of the elastic block in the Schur maps (one LAPACK
# gttrf tridiagonal solve). Its largest relative residual in a run, with
# c 0.4 | 5.0 (the ends of _THERMO_BOUNDS), 2 cells per period, gamma 0.5 and
# lambda 1: 4.66e-11 at 3072 cells, 6.87e-11 at 4096, 1.32e-10 at 6144. At
# 4096 cells gamma 0.5 or 30 and lambda 1e-3 or 1e3 do not move it, and 16 or
# 256 cells per period give at most 7.04e-11; c 1 | 4, as shipped, 2.8e-11 at
# 4096 and 1.36e-10 at 12 800
_THERMO_CELLS = 4096
# the largest |gamma| whose resolvent solve meets its 1e-10 residual check.
# The solve of lambda m0 + m1 + A loses accuracy as gamma^2 / c grows in m0.
# Its largest relative residual at 4096 cells, c at 0.4 (the lower end of
# _THERMO_BOUNDS), the other coefficients at either end: lambda 1, gamma
# 300 7.1e-12, 1000 4.7e-11 to 9.6e-11, 1500 SolverDiverged; lambda 1e3
# (all coefficients 0.4, the worst case), gamma 30 1.1e-11, 50 4.6e-11, 100
# SolverDiverged. At 30 it is at most 1.2e-11 for every lambda in [1e-6, 1e6]
_THERMO_GAMMA = 30.0
# the range of lambda whose resolvent solve meets its 1e-10 residual check.
# The solve of lambda m0 + m1 + A loses accuracy as lambda grows. Its largest
# relative residual at 4096 cells, over gamma 0, 10, +-30 and five choices of
# the coefficients from the ends of _THERMO_BOUNDS: at lambda 1e-6 at most
# 7.1e-12, at 1e6 at most 1.2e-11; with every coefficient 0.4 | 5.0 (the
# worst case), gamma 30, 1.0e-10 at 1e7 and SolverDiverged at 1e8 (8.7e-10),
# as at 1e8 with gamma 10 (1.0e-10)
_THERMO_LAMBDA = (1e-6, 1e6)
# the most cells per axis m whose box keeps its 3 m^2 (m - 1) faces within
# the one dense SVD (of curl0) that helmholtz_decompose takes
_HELMHOLTZ_CELLS = next(m for m in range(2, _DENSE_SVD_CUTOFF)
                        if 3 * (m + 1) ** 2 * m > _DENSE_SVD_CUTOFF)
POSITIVE = "positive"    # a rule: the value must be above 0
REQUIRED = "required"    # a default: the key must be set

_PROFILE = {    # the keys of _profile_from
    "coefficients.profile": (str, "two_phase", ("two_phase", "sin_shift", "constant")),
    "coefficients.low": (float, 1.0, POSITIVE), "coefficients.high": (float, 4.0, POSITIVE),
    "coefficients.cut": (float, 0.5, None), "coefficients.shift": (float, 2.0, None),
    "coefficients.amplitude": (float, 1.0, None), "coefficients.frequency": (int, 1, None),
    "coefficients.value": (float, None, POSITIVE),    # 1.0; cell's constant cell_kind 2.0
}
_LAMINATE = {    # the keys hconv and schur-gap share
    "domain.dim": (int, 1, (1, 3)), **_PROFILE, "run.n_list": (list, REQUIRED, 1),
    "run.cells_per_period": (int, None, 2),    # 32 in 1-d, else 16
    "run.candidate": (str, "laminate", None),    # checked by _candidate_from
}
_HCONV = {**_LAMINATE, "run.tolerance": (float, None, POSITIVE)}    # 0.02 in 1-d, else 0.05

# "section.key" -> (type, default, rule) of every key a runner reads. A rule
# is a tuple of admitted strings, a lower bound, a closed range (lo, hi) or
# POSITIVE; a list rule holds for every entry. A default of None means unset;
# where a comment names values, the runner picks one by another key.
_KEYS = {kind: {"experiment.kind": (str, None, (kind,)), "probes.seed": (int, 0, 0),
                "output.prefix": (str, None, None), **keys} for kind, keys in {
    "solve1d": {"domain.cells": (int, 256, 2), "coefficients.path": (str, None, None),
                **_PROFILE},
    "laminate2d": {**_HCONV, "domain.dim": (int, 2, (2, 2))},
    "cell": {"domain.cells": (int, 64, 1), **_PROFILE,
             "run.tolerance": (float, homogenize._CELL_TOL, POSITIVE),
             "coefficients.cell_kind": (str, "laminate", ("laminate", "checkerboard", "constant"))},
    "hconv": _HCONV,
    "qdind": {**_PROFILE, "run.n_list": (list, REQUIRED, 1), "run.cells_per_period": (int, 32, 2),
              "run.tolerance": (float, homogenize._QDIND_TOL, POSITIVE),
              "run.min_correlation": (float, homogenize._QDIND_MIN_CORRELATION, (-1.0, 1.0))},
    "schur-gap": {**_LAMINATE, "run.tolerance": (float, homogenize._SCHUR_TOL, POSITIVE)},
    "divcurl": {
        "run.mode": (str, "compliant", ("compliant", "counterexample")),
        "run.n_list": (list, [4, 8, 16, 32], 1),
        # counterexample: the grid and the floor of the pairings
        "domain.cells": (int, 4096, 2), "run.gap_floor": (float, elliptic._DIVCURL_GAP_FLOOR, 0),
        # compliant: the profile and the mesh
        **_PROFILE, "run.cells_per_period": (int, 64, 2),
        "run.tolerance": (float, elliptic._DIVCURL_TOL, POSITIVE),
    },
    "divtest": {"domain.cells": (int, 2048, 2), "run.n_list": (list, [4, 8, 16], 1)},
    "evo": {
        "run.mode": (str, "synthetic", ("synthetic", "two_scale")),
        "run.n_list": (list, [1, 2, 4, 8, 16, 32], 1),
        "run.tolerance": (float, None, POSITIVE),    # 1e-6 synthetic, 5e-2 two_scale
        "run.cells_per_period": (int, 32, 2),    # two_scale
        "run.space_dim": (int, 10, 4),    # synthetic; below 4 the forced kernel is all
        "run.slope_tolerance": (float, evolution._SLOPE_TOL, POSITIVE),    # synthetic
    },
    "recover": {"run.trials": (int, 200, 1),
                "run.dim_max": (int, 10, 3)},    # sizes are drawn from [2, dim_max)
    "thermo": {
        "coefficients.gamma": (float, 0.5, (-_THERMO_GAMMA, _THERMO_GAMMA)),
        "coefficients.lambda": (float, 1.0, _THERMO_LAMBDA),
        **{f"coefficients.{name}_{phase}": (float, default, _THERMO_BOUNDS)
           for name in ("c", "kappa", "w", "rho")
           for phase, default in (("low", 1.0), ("high", 4.0))},
        # cells_per_period x max(n_list) is checked by _run_thermo
        "run.n_list": (list, [2, 4, 8, 16], 1), "run.cells_per_period": (int, 32, 2),
        "run.tolerance": (float, thermo_mod._THERMO_TOL, POSITIVE),
    },
    "maxwell": {
        "coefficients.lambda": (float, 1.0, None),    # checked with the phases by _admit
        **{f"coefficients.{name}": (float, default, POSITIVE) for name, default in
           (("eps_low", 1.0), ("eps_high", 4.0), ("mu_low", 1.0), ("mu_high", 2.0))},
        "coefficients.sigma_low": (float, 1.0, 0), "coefficients.sigma_high": (float, 1.0, 0),
        "run.n_list": (list, [1, 2, 4, 8], 1),
        "run.tolerance": (float, maxwell_mod._MAXWELL_TOL, POSITIVE),
        "run.transverse_cells": (int, 8, 2),    # the Yee complex's minimum
    },
    # 2 is the Yee complex's minimum
    "helmholtz": {"domain.cells": (int, 4, (2, _HELMHOLTZ_CELLS))},
}.items()}


def _rule(rule):
    """The test and the text of a table rule."""
    if rule is POSITIVE:
        return (lambda v: v > 0), "positive"
    if isinstance(rule, tuple) and isinstance(rule[0], str):
        return (lambda v: v in rule), f"one of {', '.join(rule)}"
    if isinstance(rule, tuple):
        return (lambda v: rule[0] <= v <= rule[1]), f"in [{rule[0]}, {rule[1]}]"
    return (lambda v: v >= rule), f"at least {rule}"


def _value(where, typ, raw):
    """``raw`` as a finite float, an int, a non-empty int list or a string."""
    try:
        value = [int(x) for x in raw.replace(",", " ").split()] if typ is list else typ(raw)
    except ValueError as exc:
        what = {float: "a number", int: "an integer", list: "an integer list"}[typ]
        raise ConfigError(f"{where}: not {what} ({raw!r})") from exc
    if typ is list and not value:
        raise ConfigError(f"{where}: empty list")
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{where}: not a finite number ({raw!r})")
    return value


def _check_rule(where, rule, value):
    holds, text = _rule(rule)
    if not holds(value):
        raise ConfigError(f"{where}: must be {text} (got {value!r})")


def params(cfg, kind):
    """Every key the ``kind`` runner reads, by "section.key", coerced and
    checked against ``_KEYS[kind]``; a key the runner does not read is a
    config error."""
    table = _KEYS[kind]
    p = {}
    for name, (typ, default, rule) in table.items():
        section, key = name.split(".")
        where = f"[{section}] {key}"
        raw = cfg.sections.get(section, {}).get(key)
        if raw is not None:
            value = _value(where, typ, raw)
        elif default is REQUIRED:
            raise ConfigError(f"[{section}] missing required key '{key}'")
        else:
            value = default
        if value is not None and rule is not None:
            for entry in value if typ is list else [value]:
                _check_rule(where, rule, entry)
        p[name] = value
    for section, body in cfg.sections.items():
        for key in body:
            if f"{section}.{key}" not in table:
                raise ConfigError(f"[{section}] {key}: not read by {kind}")
    return p


def _admit(keys, value, bounds, what):
    """Reject the combination ``what`` of the [coefficients] values of
    ``keys`` when it lies outside the closed coefficient class ``bounds``
    that the experiment checks."""
    lo, hi = bounds
    if not lo <= value <= hi:
        raise ConfigError(f"[coefficients] {keys}: {what} = {value:g} lies "
                          f"outside the admitted range [{lo}, {hi}]")


def _two_phase(lo, hi, cut=0.5):
    """Two-phase profile of the fast variable, ``lo`` below the cut and
    ``hi`` above it, with its bounds."""
    return (lambda y: np.where(np.asarray(y) < cut, lo, hi)), (min(lo, hi), max(lo, hi))


def _profile_from(p):
    """Periodic scalar profile of the fast variable from config keys."""
    kind = p["coefficients.profile"]
    if kind == "two_phase":
        return _two_phase(p["coefficients.low"], p["coefficients.high"], p["coefficients.cut"])
    if kind == "sin_shift":
        shift, amp = p["coefficients.shift"], p["coefficients.amplitude"]
        freq = p["coefficients.frequency"]
        if shift - abs(amp) <= 0:
            raise ConfigError("[coefficients] sin_shift profile is not coercive")
        prof = lambda y: shift + amp * np.sin(2 * np.pi * freq * np.asarray(y))
        return prof, (shift - abs(amp), shift + abs(amp))
    value = p["coefficients.value"] or 1.0
    return (lambda y: value + 0 * np.asarray(y)), (value, value)


def _candidate_from(p, profile, dim):
    name = p["run.candidate"]
    a_h, a_m = laminate_limit(profile)
    if name == "harmonic":
        return a_h if dim == 1 else np.diag([a_h] * dim)
    if name == "arithmetic":
        return a_m if dim == 1 else np.diag([a_m] * dim)
    if name == "laminate":
        return a_h if dim == 1 else np.diag([a_h] + [a_m] * (dim - 1))
    try:
        value = float(name)
    except ValueError as exc:
        raise ConfigError(f"[run] candidate: unknown value {name!r}") from exc
    if not 0 < value < math.inf:
        raise ConfigError(f"[run] candidate: must be a finite positive number (got {name!r})")
    return value


def _emit(out, name, report, digest):
    path = os.path.join(out, f"{name}.csv")
    write_report_csv(path, report, digest=digest)
    return path


# -- experiment runners: each returns (artifact paths, failure strings) -------


def _run_solve1d(p, out, seed, digest):
    coef_path = p["coefficients.path"]
    if coef_path:
        try:
            a = load_coefficient_text(coef_path)
        except (OSError, UnicodeDecodeError, ShapeError) as exc:
            raise ConfigError(f"[coefficients] path: {exc}") from exc
        dom = a.domain
        if dom.dim != 1:
            raise ConfigError("[coefficients] path: solve1d needs a 1-d field")
    else:
        cells = p["domain.cells"]
        elliptic.check_budget((cells,), "dirichlet")    # before the field is sampled
        dom = GridDomain.interval(0, 1, cells)
        profile, bounds = _profile_from(p)
        a = CoefficientField.from_function(dom, lambda pts: profile(pts[:, 0] % 1.0),
                                           bounds=bounds)
    f = RHSFunctional.density(lambda pts: np.ones(len(pts)))
    u, q = elliptic.solve_elliptic(dom, a, f)
    grad = elliptic.build_grad(dom)
    path = os.path.join(out, "solution.csv")
    dump_solution_csv(path, grad, u, q, digest=digest)
    # matrix fixtures in the sparse triplet format
    trip = os.path.join(out, "galerkin.triplet")
    save_triplet(trip, elliptic.galerkin_matrix(grad, a))
    return [path, trip], []


def _laminate(p):
    """The laminate family, candidate and mesh rule of hconv and schur-gap."""
    dim = p["domain.dim"]
    profile, bounds = _profile_from(p)
    return (CoefficientSequence.laminate(profile, bounds=bounds), _candidate_from(p, profile, dim),
            MeshRule(p["run.cells_per_period"] or (32 if dim == 1 else 16)))


def _run_hconv(p, out, seed, digest):
    seq, cand, rule = _laminate(p)
    rep = homogenize.hconvergence_experiment(
        seq, RHSFunctional.density(lambda pts: np.ones(len(pts))), cand, p["run.n_list"],
        dim=p["domain.dim"], mesh_rule=rule, probe_seed=seed)
    return [_emit(out, "hconv", rep, digest)], homogenize.hconv_verdict(rep, p["run.tolerance"])


def _run_cell(p, out, seed, digest):
    kind, cells = p["coefficients.cell_kind"], p["domain.cells"]
    elliptic.check_budget((cells, cells), "periodic")    # before the field is sampled
    dom = GridDomain.box((cells, cells))
    profile, bounds = _profile_from(p)
    if kind == "laminate":
        field = CoefficientField.from_function(
            dom, lambda pts: profile(pts[:, 0] % 1.0), bounds=bounds)
        expected = np.diag(laminate_limit(profile))
    elif kind == "checkerboard":
        low, high = p["coefficients.low"], p["coefficients.high"]
        cb = lambda pts: np.where((np.floor(2 * pts[:, 0]) + np.floor(2 * pts[:, 1])) % 2 == 0,
                                  low, high)
        field = CoefficientField.from_function(dom, cb, bounds=(min(low, high), max(low, high)))
        expected = np.sqrt(low * high) * np.eye(2)
    else:
        v = p["coefficients.value"] or 2.0
        field = CoefficientField.constant(dom, v, bounds=(v, v))
        expected = v * np.eye(2)
    rep = homogenize.cell_experiment(field, expected)
    return [_emit(out, "cell", rep, digest)], homogenize.cell_verdict(rep, p["run.tolerance"])


def _run_qdind(p, out, seed, digest):
    rep = homogenize.qdind_check(CoefficientSequence.laminate(*_profile_from(p)), p["run.n_list"],
                                 mesh_rule=MeshRule(p["run.cells_per_period"]), probe_seed=seed)
    return [_emit(out, "qdind", rep, digest)], homogenize.qdind_verdict(
        rep, p["run.tolerance"], p["run.min_correlation"])


def _run_schur_gap(p, out, seed, digest):
    seq, cand, rule = _laminate(p)
    rep = homogenize.schur_equiv_check(seq, p["run.n_list"], cand, dim=p["domain.dim"],
                                       mesh_rule=rule, probe_seed=seed)
    return [_emit(out, "schur_gap", rep, digest)], homogenize.schur_verdict(
        rep, p["run.tolerance"])


def _run_divcurl(p, out, seed, digest):
    if p["run.mode"] == "counterexample":
        rep = elliptic.divcurl_counterexample(p["domain.cells"], p["run.n_list"])
    else:
        rep = elliptic.divcurl_compliant(*_profile_from(p), p["run.cells_per_period"],
                                         p["run.n_list"])
    return [_emit(out, "divcurl", rep, digest)], elliptic.divcurl_verdict(
        rep, p["run.tolerance"], p["run.gap_floor"])


def _run_divtest(p, out, seed, digest):
    rep = elliptic.divtest_experiment(p["domain.cells"], p["run.n_list"])
    return [_emit(out, "divtest", rep, digest)], elliptic.divtest_verdict(rep)


def _run_evo(p, out, seed, digest):
    if p["run.mode"] == "two_scale":
        rep = evolution.two_scale_evo_experiment(
            evolution.grid_two_scale(p["run.cells_per_period"]), p["run.n_list"])
    else:
        rep = evolution.synthetic_evo_experiment(p["run.space_dim"], p["run.n_list"], seed)
    return [_emit(out, "evo", rep, digest)], evolution.evo_verdict(
        rep, p["run.tolerance"], p["run.slope_tolerance"])


def _run_recover(p, out, seed, digest):
    rep = evolution.recover_experiment(p["run.trials"], p["run.dim_max"], seed)
    return [_emit(out, "recover", rep, digest)], evolution.recover_verdict(rep)


def _run_thermo(p, out, seed, digest):
    cells = p["run.cells_per_period"] * max(p["run.n_list"])
    if cells > _THERMO_CELLS:
        raise ConfigError(f"[run] n_list: cells_per_period x max(n_list) = {cells} cells; "
                          f"the solves meet their residual check up to {_THERMO_CELLS} cells")
    c, kappa, w, rho = (
        _two_phase(p[f"coefficients.{name}_low"], p[f"coefficients.{name}_high"])[0]
        for name in ("c", "kappa", "w", "rho"))
    rep = thermo_mod.thermo_homogenization_experiment(
        c, kappa, w, rho, gamma=p["coefficients.gamma"], lam=p["coefficients.lambda"],
        n_list=p["run.n_list"], bounds=_THERMO_BOUNDS,
        mesh_rule=MeshRule(p["run.cells_per_period"]), probe_seed=seed)
    return [_emit(out, "thermo", rep, digest)], thermo_mod.thermo_verdict(
        rep, p["run.tolerance"])


def _run_maxwell(p, out, seed, digest):
    lam = p["coefficients.lambda"]
    eps, mu, sigma = ((p[f"coefficients.{name}_low"], p[f"coefficients.{name}_high"])
                      for name in ("eps", "mu", "sigma"))
    for phase, e, m, s in zip(("low", "high"), eps, mu, sigma):
        _admit(f"lambda, eps_{phase}, sigma_{phase}", lam * e + s, _MAXWELL_BOUNDS,
               f"lambda * eps_{phase} + sigma_{phase}")
        _admit(f"mu_{phase}", lam * m, _MAXWELL_BOUNDS, f"lambda * mu_{phase}")
    rep = maxwell_mod.maxwell_homogenization_experiment(
        _two_phase(*eps)[0], _two_phase(*mu)[0], _two_phase(*sigma)[0], lam=lam,
        n_list=p["run.n_list"], bounds=_MAXWELL_BOUNDS,
        transverse_cells=p["run.transverse_cells"], probe_seed=seed)
    return [_emit(out, "maxwell", rep, digest)], maxwell_mod.maxwell_verdict(
        rep, p["run.tolerance"])


def _run_helmholtz(p, out, seed, digest):
    rep = maxwell_mod.helmholtz_experiment(p["domain.cells"])
    return [_emit(out, "helmholtz", rep, digest)], maxwell_mod.helmholtz_verdict(rep)


_RUNNERS = {
    "solve1d": _run_solve1d,
    "laminate2d": _run_hconv,
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
    """Run ``kind`` on the config at ``config``: every key is checked against
    the runner's table before any experiment code runs. ``seed`` overrides
    [probes] seed when it is not None."""
    try:
        cfg = RunConfig.parse(config)
        p = params(cfg, kind)
        elliptic.unknown_budget()    # a malformed budget is a config error for every run
        if seed is None:
            seed = p["probes.seed"]
        else:
            _check_rule("--seed", _KEYS[kind]["probes.seed"][2], seed)
        if p["output.prefix"]:
            out = os.path.join(out, p["output.prefix"])
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: cannot create {out!r}: {exc.strerror}") from exc
        digest = config_digest(cfg.text + f"|seed={seed}")
        with warnings.catch_warnings():
            if strict:
                warnings.simplefilter("error")
            paths, failures = _RUNNERS[kind](p, out, seed, digest)
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
        _execute(_kind, config, out, seed, strict)


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
    """Describe one experiment, what it verifies and the config keys it reads."""
    if name not in CATALOGUE:
        raise click.UsageError(f"unknown experiment {name!r}")
    summary, checks = CATALOGUE[name]
    click.echo(f"{name}: {summary}")
    click.echo(f"verifies: {checks}")
    click.echo("keys (type, default, rule):")
    for where, (typ, default, rule) in _KEYS[name].items():
        where = "[{}] {}".format(*where.split("."))
        typ = "int list" if typ is list else typ.__name__
        default = ", ".join(map(str, default)) if isinstance(default, list) else default
        rule = "-" if rule is None else _rule(rule)[1]
        click.echo(f"  {where:<30} {typ:<8} {'-' if default is None else default:<20} {rule}")


if __name__ == "__main__":
    main()
