"""CLI behavior: config validation, fixture runs, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import homlab
from homlab.cli import _KEYS, _RUNNERS, CATALOGUE, POSITIVE, REQUIRED, RunConfig, main, params
from homlab.errors import ConfigError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def fixture(name):
    return os.path.join(CONFIG_DIR, name)


def run_cli(args):
    return CliRunner().invoke(main, args)


def fresh_env():
    """The environment of a fresh interpreter that imports this homlab."""
    src = os.path.dirname(os.path.dirname(homlab.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def tiny_hconv_args(out, coefficients, strict=False):
    """CLI arguments of a 1-d hconv run at n = 1, 2 with 8 cells per period
    and the given [coefficients] keys; the config is written into ``out``."""
    body = "".join(f"{key} = {value}\n" for key, value in coefficients.items())
    cfg = os.path.join(out, "tiny.cfg")
    with open(cfg, "w") as fh:
        fh.write("[experiment]\nkind = hconv\n[coefficients]\n" + body
                 + "[run]\nn_list = 1, 2\ncells_per_period = 8\n"
                 "candidate = harmonic\ntolerance = 0.5\n")
    return ["hconv", "--config", cfg, "--out", out] + ["--strict"] * strict


def run_tiny_hconv(out, coefficients, strict=False):
    return run_cli(tiny_hconv_args(out, coefficients, strict))


class TestRunConfig:
    def test_unknown_key_located(self):
        with pytest.raises(ConfigError, match=r"\[run\] unknown key 'bogus'"):
            RunConfig.parse_text("[run]\nbogus = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[junk\]"):
            RunConfig.parse_text("[junk]\nx = 1\n")

    def test_missing_required_key_named(self):
        cfg = RunConfig.parse_text("[run]\ntolerance = 0.1\n")
        with pytest.raises(ConfigError, match="n_list"):
            params(cfg, "hconv")


class TestFixtures:
    def test_1d_harmonic_passes_with_small_final_error(self, tmp_path):
        res = run_cli(["hconv", "--config", fixture("1d_harmonic.cfg"),
                       "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        rows = (tmp_path / "hconv.csv").read_text().splitlines()
        last = rows[-1].split(",")
        assert float(last[3]) < 0.02 and float(last[4]) < 0.02

    def test_schur_identity_all_gaps_tiny(self, tmp_path):
        res = run_cli(["schur-gap", "--config", fixture("schur_identity.cfg"),
                       "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        rows = (tmp_path / "schur_gap.csv").read_text().splitlines()[2:]
        for row in rows:
            gaps = [float(x) for x in row.split(",")[2:]]
            assert max(gaps) <= 1e-9

    def test_missing_key_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[experiment]\nkind = hconv\n")
        res = run_cli(["hconv", "--config", str(bad), "--out", str(tmp_path)])
        assert res.exit_code == 2
        payload = json.loads(res.output.strip().splitlines()[-1])
        assert "n_list" in payload["error"]

    @pytest.mark.parametrize("prefix", [False, True])
    def test_out_that_cannot_be_created_exit_2(self, tmp_path, prefix):
        # os.makedirs raised NotADirectoryError: a traceback, exit 1 and no
        # JSON summary
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = tmp_path / "solve1d.cfg"
        cfg.write_text("[experiment]\nkind = solve1d\n" + "[output]\nprefix = sub\n" * prefix)
        out = blocker if prefix else blocker / "x"
        res = run_cli(["solve1d", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 2, res.output
        payload = json.loads(res.output.strip().splitlines()[-1])
        assert payload["status"] == "config-error"
        assert payload["error"].startswith("--out: "), payload

    def test_jobs_option_removed(self, tmp_path):
        res = run_cli(["hconv", "--config", fixture("1d_harmonic.cfg"),
                       "--out", str(tmp_path), "--jobs", "2"])
        assert res.exit_code == 2

    def test_malformed_budget_exit_2(self, tmp_path):
        res = CliRunner().invoke(main, ["hconv", "--config", fixture("1d_harmonic.cfg"),
                                        "--out", str(tmp_path)], env={"HOMLAB_BUDGET": "abc"})
        assert res.exit_code == 2
        assert "HOMLAB_BUDGET" in json.loads(res.output.strip().splitlines()[-1])["error"]

    def test_zero_cells_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[experiment]\nkind = cell\n[domain]\ncells = 0\n")
        res = run_cli(["cell", "--config", str(bad), "--out", str(tmp_path)])
        assert res.exit_code == 2
        error = json.loads(res.output.strip().splitlines()[-1])["error"]
        assert "[domain] cells" in error

    def test_empty_required_list_exit_2(self, tmp_path):
        text = open(fixture("1d_harmonic.cfg")).read()
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace("n_list = 1, 2, 4, 8, 16, 32", "n_list ="))
        res = run_cli(["hconv", "--config", str(bad), "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "[run] n_list" in json.loads(res.output.strip().splitlines()[-1])["error"]

    @pytest.mark.parametrize("profile, key, value, reason", [
        ("two_phase", "low", "0", "must be positive"),
        ("two_phase", "low", "-1", "must be positive"),
        ("two_phase", "low", "inf", "not a finite number"),
        ("two_phase", "low", "nan", "not a finite number"),
        ("sin_shift", "shift", "inf", "not a finite number"),
        ("sin_shift", "shift", "nan", "not a finite number"),
        ("two_phase", "low", "5%", "'%'"),
    ])
    def test_bad_coefficient_value_exit_2(self, tmp_path, profile, key, value, reason):
        res = run_tiny_hconv(str(tmp_path), {"profile": profile, key: value})
        assert res.exit_code == 2, res.output
        error = json.loads(res.output.strip().splitlines()[-1])["error"]
        assert f"[coefficients] {key}: " in error and reason in error

    def test_thermo_coefficient_not_positive_exit_2(self, tmp_path):
        cfg = tmp_path / "thermo.cfg"
        cfg.write_text("[experiment]\nkind = thermo\n[coefficients]\nc_low = 0\n")
        res = run_cli(["thermo", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "[coefficients] c_low: " in json.loads(res.output.strip().splitlines()[-1])["error"]

    @pytest.mark.parametrize("key, value, reason", [
        ("eps_low", "-1", "must be positive"),
        ("mu_high", "0", "must be positive"),
        ("mu_low", "-2", "must be positive"),
        ("sigma_low", "-0.5", "must be at least 0"),
    ])
    def test_maxwell_coefficient_out_of_range_exit_2(self, tmp_path, key, value, reason):
        cfg = tmp_path / "maxwell.cfg"
        cfg.write_text("[experiment]\nkind = maxwell\n[coefficients]\n"
                       f"{key} = {value}\n[run]\nn_list = 1\ntransverse_cells = 2\n")
        res = run_cli(["maxwell", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        error = json.loads(res.output.strip().splitlines()[-1])["error"]
        assert f"[coefficients] {key}: " in error and reason in error

    def test_maxwell_negative_lambda_exit_2(self, tmp_path):
        # the H block of the material law is lambda mu, negative here although
        # mu and lambda eps + sigma are both admitted
        cfg = tmp_path / "maxwell.cfg"
        cfg.write_text("[experiment]\nkind = maxwell\n[coefficients]\nlambda = -1\n"
                       "eps_low = 1\neps_high = 1\nsigma_low = 2\nsigma_high = 6\n"
                       "[run]\nn_list = 1, 2\ntransverse_cells = 2\n")
        res = run_cli(["maxwell", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        error = json.loads(res.output.strip().splitlines()[-1])["error"]
        assert error.startswith("[coefficients] mu_low: ") and "lambda * mu_low = -1" in error
        assert not (tmp_path / "maxwell.csv").exists()

    @pytest.mark.parametrize("kind, body, keys, admitted", [
        ("thermo", "c_low = 0.1\n", "c_low", "[0.4, 5.0]"),
        ("thermo", "rho_high = 5.5\n", "rho_high", "[0.4, 5.0]"),
        ("maxwell", "eps_low = 0.1\nsigma_low = 0\n", "lambda, eps_low, sigma_low",
         "[0.4, 10.0]"),
        ("maxwell", "mu_high = 12\n", "mu_high", "[0.4, 10.0]"),
    ], ids=["thermo-c_low", "thermo-rho_high", "maxwell-eps_sigma", "maxwell-mu_high"])
    def test_coefficient_outside_experiment_bounds_exit_2(self, tmp_path, kind, body,
                                                         keys, admitted):
        # the experiments check their coefficients against fixed bounds; a
        # value outside them is a config error, not a failed run (exit 1)
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(f"[experiment]\nkind = {kind}\n[coefficients]\n{body}[run]\nn_list = 1\n"
                       + "transverse_cells = 2\n" * (kind == "maxwell"))
        res = run_cli([kind, "--config", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 2, res.output
        error = json.loads(res.output.strip().splitlines()[-1])["error"]
        assert error.startswith(f"[coefficients] {keys}: ") and admitted in error

    def test_maxwell_zero_sigma_is_valid(self, tmp_path):
        cfg = tmp_path / "maxwell.cfg"
        cfg.write_text("[experiment]\nkind = maxwell\n[coefficients]\n"
                       "sigma_low = 0\n[run]\nn_list = 1\ntransverse_cells = 2\n")
        res = run_cli(["maxwell", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code != 2, res.output
        assert (tmp_path / "maxwell.csv").exists()

    def run_body(self, tmp_path, kind, body):
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(f"[experiment]\nkind = {kind}\n{body}")
        return run_cli([kind, "--config", str(cfg), "--out", str(tmp_path)])

    @pytest.mark.parametrize("kind, body", [
        # the first index array of this Yee grid would take about 240 PB
        ("maxwell", "[run]\nn_list = 1\ntransverse_cells = 100000000\n"),
        # sampling the field takes 1e16 cell midpoints, about 71 PiB
        ("cell", "[domain]\ncells = 100000000\n"),
        # sampling the field takes 1e17 cell midpoints, about 710 PiB
        ("solve1d", "[domain]\ncells = 100000000000000000\n"),
        # sampling the compliant field takes 1e15 cell midpoints, about 7 PiB
        ("divcurl", "[run]\nn_list = 1\ncells_per_period = 1000000000000000\n"),
    ], ids=["maxwell", "cell", "solve1d", "divcurl"])
    def test_over_budget_exits_1_before_allocating(self, tmp_path, kind, body):
        res = self.run_body(tmp_path, kind, body)
        assert res.exit_code == 1, res.output
        payload = json.loads(res.output.strip().splitlines()[-1])
        assert payload["error"].startswith("BudgetExceeded"), payload

    @pytest.mark.parametrize("kind, body, where", [
        # n_list entries below 1 ran, or failed a decay check, instead of exit 2
        ("hconv", "[run]\nn_list = 0, 2\n", "[run] n_list"),
        ("qdind", "[run]\nn_list = 0, 4\n", "[run] n_list"),
        ("maxwell", "[run]\nn_list = 0, 1\n", "[run] n_list"),
        ("divtest", "[run]\nn_list = 0, -3\n", "[run] n_list"),
        # keys the runner does not read were accepted and ignored
        ("hconv", "[run]\nn_list = 1\ntransverse_cells = 5\n", "[run] transverse_cells"),
        ("laminate2d", "[domain]\ndim = 3\n[run]\nn_list = 1\n", "[domain] dim"),
        ("cell", "[domain]\nextents = 7\n", "[domain] extents"),
        # a bad seed ran with seed 0
        ("divtest", "[probes]\nseed = abc\n", "[probes] seed"),
        ("divtest", "[probes]\nseed = 1.5\n", "[probes] seed"),
        # raw tracebacks, or nothing run
        ("recover", "[run]\ndim_max = 2\n", "[run] dim_max"),
        ("evo", "[run]\nmode = synthetic\nspace_dim = 1\n", "[run] space_dim"),
        ("evo", "[run]\nmode = synthetic\nspace_dim = 2\n", "[run] space_dim"),
        ("evo", "[run]\nmode = synthetic\nspace_dim = 3\n", "[run] space_dim"),
        ("recover", "[run]\ntrials = -5\n", "[run] trials"),
        # exit 1 on a numerical step instead of exit 2
        ("hconv", "[run]\nn_list = 1\ncells_per_period = 0\n", "[run] cells_per_period"),
        ("thermo", "[run]\ncells_per_period = -4\n", "[run] cells_per_period"),
        ("hconv", "[domain]\ndim = 0\n[run]\nn_list = 1\n", "[domain] dim"),
        ("hconv", "[domain]\ndim = 4\n[run]\nn_list = 1\n", "[domain] dim"),
        ("schur-gap", "[run]\nn_list = 1\ntolerance = -1\n", "[run] tolerance"),
        # a numeric candidate that is not a finite positive number
        ("hconv", "[run]\nn_list = 1\ncandidate = nan\n", "[run] candidate"),
        ("hconv", "[run]\nn_list = 1\ncandidate = -1\n", "[run] candidate"),
        ("hconv", "[run]\nn_list = 1\ncandidate = inf\n", "[run] candidate"),
        # thermo suggested "lam >= -1099511627776.0 works", or died with a
        # raw ValueError traceback on an overflowed coupling block
        ("thermo", "[coefficients]\nlambda = -1\n", "[coefficients] lambda"),
        ("thermo", "[coefficients]\nlambda = 0\n", "[coefficients] lambda"),
        # 1e8 exited 1 with SolverDiverged at 4096 cells (see cli._THERMO_LAMBDA)
        ("thermo", "[coefficients]\nlambda = 1e8\n", "[coefficients] lambda"),
        ("thermo", "[coefficients]\nlambda = 1.5e6\n", "[coefficients] lambda"),
        ("thermo", "[coefficients]\ngamma = 1e300\n", "[coefficients] gamma"),
        # runners that load with f = 1 exited 1 with CompatibilityError
        ("solve1d", "[run]\nflavor = neumann\n", "[run] flavor"),
        ("hconv", "[run]\nn_list = 1\nflavor = periodic\n", "[run] flavor"),
        ("laminate2d", "[run]\nn_list = 1\nflavor = neumann\n", "[run] flavor"),
        # sizes the solvers refuse exited 1 with ShapeError after assembling:
        # 32 768 thermo cells, and a 13^3 box above the SVD of curl0
        ("thermo", "[run]\nn_list = 1024\n", "[run] n_list"),
        ("helmholtz", "[domain]\ncells = 13\n", "[domain] cells"),
    ], ids=["hconv-n_list", "qdind-n_list", "maxwell-n_list", "divtest-n_list",
            "hconv-transverse_cells", "laminate2d-dim", "cell-extents", "seed-abc", "seed-1.5",
            "recover-dim_max", "evo-space_dim-1", "evo-space_dim-2", "evo-space_dim-3",
            "recover-trials", "hconv-cells_per_period", "thermo-cells_per_period",
            "hconv-dim-0", "hconv-dim-4", "schur-gap-tolerance", "candidate-nan",
            "candidate-negative", "candidate-inf", "thermo-lambda-negative",
            "thermo-lambda-zero", "thermo-lambda-1e8", "thermo-lambda-above-range",
            "thermo-gamma-overflow", "solve1d-flavor", "hconv-flavor",
            "laminate2d-flavor", "thermo-cells-above-certificate",
            "helmholtz-cells-above-svd"])
    def test_bad_value_or_unread_key_exit_2(self, tmp_path, kind, body, where):
        res = self.run_body(tmp_path, kind, body)
        assert res.exit_code == 2, res.output
        error = json.loads(res.output.strip().splitlines()[-1])["error"]
        section, key = where.split(" ")
        assert error.startswith(section) and key in error, error
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("kind, config, args, where", [
        # --seed=-1 exited 1 with a numpy ValueError (evo, recover) or ran (two-scale evo)
        ("evo", "evo_perturbation.cfg", ["--seed=-1"], "--seed"),
        ("recover", "recover.cfg", ["--seed=-1"], "--seed"),
        ("evo", "evo_two_scale.cfg", ["--seed=-1"], "--seed"),
        ("evo", None, [], "[probes] seed"),
    ], ids=["evo-perturbation", "recover", "evo-two-scale", "probes-seed"])
    def test_negative_seed_exit_2(self, tmp_path, kind, config, args, where):
        if config is None:
            cfg = tmp_path / "seed.cfg"
            cfg.write_text(open(fixture("evo_two_scale.cfg")).read()
                           + "\n[probes]\nseed = -1\n")
            config = str(cfg)
        else:
            config = fixture(config)
        res = run_cli([kind, "--config", config, "--out", str(tmp_path)] + args)
        assert res.exit_code == 2, res.output
        payload = json.loads(res.output.strip().splitlines()[-1])
        assert payload["status"] == "config-error", payload
        assert payload["error"].startswith(where + ": must be at least 0"), payload
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("kind, body, key", [
        ("maxwell", "[run]\nn_list = 1\ntransverse_cells = 1\n", "[run] transverse_cells"),
        ("helmholtz", "[domain]\ncells = 1\n", "[domain] cells"),
    ], ids=["maxwell", "helmholtz"])
    def test_yee_grid_below_two_cells_exit_2(self, tmp_path, kind, body, key):
        res = self.run_body(tmp_path, kind, body)
        assert res.exit_code == 2, res.output
        assert key in json.loads(res.output.strip().splitlines()[-1])["error"]

    @pytest.mark.parametrize("body", [
        # 12 800 cells exited 1: a Galerkin solve missed 1e-10 at 1.158e-10
        "[run]\nn_list = 400\n",
        "[run]\nn_list = 2, 241\ncells_per_period = 17\n",    # 4097 cells
    ], ids=["n_list-400", "one-cell-above"])
    def test_thermo_size_beyond_the_residual_check_exit_2(self, tmp_path, body):
        res = self.run_body(tmp_path, "thermo", body)
        assert res.exit_code == 2, res.output
        assert "[run] n_list" in json.loads(res.output.strip().splitlines()[-1])["error"]
        assert not list(tmp_path.rglob("*.csv"))

    def test_largest_thermo_size_meets_the_residual_check(self, tmp_path):
        # the worst case measured: c at both ends of the bounds, 2 cells per period
        res = self.run_body(tmp_path, "thermo", "[coefficients]\nc_low = 0.4\nc_high = 5.0\n"
                                                "[run]\nn_list = 2048\ncells_per_period = 2\n")
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("gamma", ["30.5", "-31", "3e3", "1e8"])
    def test_thermo_gamma_beyond_the_residual_check_exit_2(self, tmp_path, gamma):
        # 3e3 exited 1 with SolverDiverged, 1e8 with CoercivityError
        res = self.run_body(tmp_path, "thermo", f"[coefficients]\ngamma = {gamma}\n"
                                                "[run]\nn_list = 2, 4\n")
        assert res.exit_code == 2, res.output
        assert "[coefficients] gamma" in json.loads(res.output.strip().splitlines()[-1])["error"]
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("gamma", ["30", "-30"])
    def test_largest_thermo_gamma_meets_the_residual_check(self, tmp_path, gamma):
        # the worst case measured: every coefficient at 0.4, lambda 1e3, 4096 cells
        coefficients = "".join(f"{name}_{phase} = 0.4\n" for name in ("c", "kappa", "w", "rho")
                               for phase in ("low", "high"))
        res = self.run_body(tmp_path, "thermo", f"[coefficients]\n{coefficients}gamma = {gamma}\n"
                                                "lambda = 1e3\n[run]\nn_list = 2048\n"
                                                "cells_per_period = 2\n")
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("lam", ["1e-6", "1e6"])
    def test_thermo_lambda_range_ends_meet_the_residual_check(self, tmp_path, lam):
        # the worst case measured: every coefficient at 0.4 | 5.0, gamma 30, 4096 cells
        coefficients = "".join(f"{name}_low = 0.4\n{name}_high = 5.0\n"
                               for name in ("c", "kappa", "w", "rho"))
        res = self.run_body(tmp_path, "thermo", f"[coefficients]\n{coefficients}gamma = 30\n"
                                                f"lambda = {lam}\n[run]\nn_list = 2048\n"
                                                "cells_per_period = 2\n")
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("body, key", [
        ("[run]\nn_list = 1\ncells_per_period = 0\n", "[run] cells_per_period"),
        ("[run]\nn_list = 2, 0\ncells_per_period = 4\n", "[run] n_list"),
        ("[run]\nn_list = -1\ncells_per_period = 4\n", "[run] n_list"),
    ], ids=["cells_per_period", "n_list-zero", "n_list-negative"])
    def test_divcurl_grid_below_one_cell_exit_2(self, tmp_path, body, key):
        res = self.run_body(tmp_path, "divcurl", body)
        assert res.exit_code == 2, res.output
        assert key in json.loads(res.output.strip().splitlines()[-1])["error"]

    @pytest.mark.parametrize("kind, body, key", [
        ("divcurl", "[run]\nmode = bogus\nn_list = 1\ncells_per_period = 4\n", "[run] mode"),
        ("evo", "[run]\nmode = bogus\nn_list = 1, 2\n", "[run] mode"),
        ("divcurl", "[domain]\ncells = 64\n[run]\nmode = counterexample\nn_list = 0, -2\n",
         "[run] n_list"),
        ("evo", "[run]\nmode = synthetic\nn_list = 0, 2\n", "[run] n_list"),
        ("evo", "[run]\nmode = two_scale\nn_list = 0, 2\ncells_per_period = 4\n",
         "[run] n_list"),
    ], ids=["divcurl-mode", "evo-mode", "divcurl-counterexample-n_list",
            "evo-synthetic-n_list", "evo-two_scale-n_list"])
    def test_bad_mode_or_n_list_exit_2(self, tmp_path, kind, body, key):
        res = self.run_body(tmp_path, kind, body)
        assert res.exit_code == 2, res.output
        assert key in json.loads(res.output.strip().splitlines()[-1])["error"]

    def test_strict_warning_exit_1(self, tmp_path, monkeypatch):
        # 1 / 5e-324 overflows: the quadrature's finiteness check names it,
        # never the numpy warning on the way there
        res = run_tiny_hconv(str(tmp_path), {"low": "5e-324"}, strict=True)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert "QuadratureError" in json.loads(res.output.strip().splitlines()[-1])["error"]

        # --strict turns any warning a runner emits into an error
        def warns(p, out, seed, digest):
            warnings.warn("stand-in warning", RuntimeWarning)
            return [], []

        monkeypatch.setitem(_RUNNERS, "hconv", warns)
        res = run_tiny_hconv(str(tmp_path), {"low": "1"}, strict=True)
        assert res.exit_code == 1
        assert "RuntimeWarning" in json.loads(res.output.strip().splitlines()[-1])["error"]

    @pytest.mark.parametrize("strict", [False, True])
    def test_overflow_is_the_error_not_a_warning(self, tmp_path, strict):
        # a fresh process, so a numpy warning would reach its stderr
        args = tiny_hconv_args(str(tmp_path), {"low": "1e308", "high": "1e308"}, strict)
        res = subprocess.run([sys.executable, "-m", "homlab.cli"] + args, env=fresh_env(),
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 1, res.stdout + res.stderr
        assert "QuadratureError" in json.loads(res.stdout.strip().splitlines()[-1])["error"]
        assert res.stderr == ""

    def test_kind_mismatch_exit_2(self, tmp_path):
        res = run_cli(["qdind", "--config", fixture("1d_harmonic.cfg"),
                       "--out", str(tmp_path)])
        assert res.exit_code == 2

    def test_divcurl_counterexample_reproduces_failure(self, tmp_path):
        res = run_cli(["divcurl", "--config", fixture("divcurl_counterexample.cfg"),
                       "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        rows = (tmp_path / "divcurl.csv").read_text().splitlines()[2:]
        gaps = [float(r.split(",")[3]) for r in rows]
        assert min(gaps) > 0.01  # pairing stays away from the weak-limit product

    def test_divtest_fixture(self, tmp_path):
        res = run_cli(["divtest", "--config", fixture("divtest.cfg"),
                       "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output

    def test_helmholtz_fixture(self, tmp_path):
        res = run_cli(["helmholtz", "--config", fixture("helmholtz_box.cfg"),
                       "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        rows = (tmp_path / "helmholtz.csv").read_text().splitlines()[2:]
        for row in rows:
            vals = [int(x) for x in row.split(",")]
            assert vals[1] + vals[2] + vals[3] == vals[4]
            assert vals[3] == 0

    @pytest.mark.parametrize("name", ["1d_harmonic", "schur_identity", "solve1d", "divtest",
                                      "divcurl_compliant", "laminate2d"])
    def test_grid_configs_run_without_sparse_lu(self, tmp_path, band_lu_calls, name):
        # their grid systems go to the exact transform inverse or to PCG; the
        # band LU factorises only systems that are not grid stiffness matrices
        kind = RunConfig.parse(fixture(f"{name}.cfg")).sections["experiment"]["kind"]
        res = run_cli([kind, "--config", fixture(f"{name}.cfg"), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert band_lu_calls == []

    def test_solve1d_emits_solution(self, tmp_path):
        res = run_cli(["solve1d", "--config", fixture("solve1d.cfg"),
                       "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        text = (tmp_path / "solution.csv").read_text().splitlines()
        assert text[1] == "entity,x0,value"
        assert any(line.startswith("node,") for line in text)
        assert any(line.startswith("element,") for line in text)
        # the assembled system ships as a triplet fixture too
        header = (tmp_path / "galerkin.triplet").read_text().splitlines()[0].split()
        assert header[:4] == ["#", "triplet", "255", "255"]

    def run_coefficient_file(self, tmp_path, text):
        """solve1d on a [coefficients] path file holding ``text``; None
        leaves the file missing."""
        coef = tmp_path / "field.coef"
        if text is not None:
            coef.write_text(text)
        cfg = tmp_path / "file.cfg"
        cfg.write_text(f"[experiment]\nkind = solve1d\n"
                       f"[coefficients]\npath = {coef}\n")
        return run_cli(["solve1d", "--config", str(cfg), "--out", str(tmp_path)])

    def test_solve1d_accepts_coefficient_file(self, tmp_path):
        cells = "".join(f"{2.0 + (i + 0.5) / 32!r}\n" for i in range(32))
        res = self.run_coefficient_file(
            tmp_path, "# coefficient d=1 cells 32 extents 0 1\n" + cells)
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("text", [
        None,
        "# coefficient\n2\n2\n",
        "# coefficient d=1 cells 2 extents 0 1\n2\ntwo\n",
        "# coefficient d=1 cells 3 extents 0 1\n2\n2\n",
        "# coefficient d=1 cells 2 extents 0 1\n2\nnan\n",
    ], ids=["missing", "header-only", "non-numeric", "cell-count", "nan"])
    def test_bad_coefficient_file_exit_2(self, tmp_path, text):
        # each exited 1: FileNotFoundError, IndexError, ValueError,
        # ShapeError, and NotInM from a singular factor
        res = self.run_coefficient_file(tmp_path, text)
        assert res.exit_code == 2, res.output
        payload = json.loads(res.output.strip().splitlines()[-1])
        assert payload["status"] == "config-error", payload
        assert payload["error"].startswith("[coefficients] path: "), payload
        assert not list(tmp_path.rglob("*.csv"))

    def test_overflowing_coefficient_file_is_a_coercivity_error(self, tmp_path):
        # a finite entry whose Galerkin matrix overflows exited 1 with
        # SolverDiverged and leaked numpy warnings to stderr
        coef = tmp_path / "field.coef"
        coef.write_text("# coefficient d=1 cells 2 extents 0 1\n1\n1e308\n")
        cfg = tmp_path / "file.cfg"
        cfg.write_text(f"[experiment]\nkind = solve1d\n[coefficients]\npath = {coef}\n")
        res = subprocess.run([sys.executable, "-m", "homlab.cli", "solve1d", "--config", str(cfg),
                              "--out", str(tmp_path)], env=fresh_env(), capture_output=True,
                             text=True, timeout=120)
        assert res.returncode == 1, res.stdout + res.stderr
        assert "CoercivityError" in json.loads(res.stdout.strip().splitlines()[-1])["error"]
        assert res.stderr == ""

    def test_failing_tolerance_exit_1(self, tmp_path):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text(
            "[experiment]\nkind = hconv\n"
            "[coefficients]\nprofile = sin_shift\nshift = 2.0\namplitude = 1.0\n"
            "[run]\nn_list = 1, 2\ncells_per_period = 32\n"
            "candidate = harmonic\ntolerance = 1e-9\n"
        )
        res = run_cli(["hconv", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 1
        payload = json.loads(res.output.strip().splitlines()[-1])
        assert payload["status"] == "fail"
        assert payload["failures"]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_synthetic_evo_at_the_default_tolerance_exit_0(self, tmp_path, seed):
        # the shipped fixture without its tolerance line: the block-map
        # columns are each held to their own final value
        cfg = tmp_path / "evo.cfg"
        cfg.write_text("".join(line for line in open(fixture("evo_perturbation.cfg"))
                               if not line.startswith("tolerance")))
        res = run_cli(["evo", "--config", str(cfg), "--out", str(tmp_path),
                       "--seed", str(seed)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output.strip().splitlines()[-1])["status"] == "ok"


# keys each profile reads, and the keys whose values must be positive
PROFILE_KEYS = {"two_phase": ("low", "high", "cut"), "sin_shift": ("shift", "amplitude"),
                "constant": ("value",)}
POSITIVE_KEYS = {"low", "high", "value"}
COEFFICIENT_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["0", "-0", "-1", "5e-324", "1e-320", "1e308", "inf", "-inf", "nan", "1e999"]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6),
)


def _is_valid(profile, values):
    """Whether a [coefficients] body is a valid config: every value a finite
    number, low/high/value positive, and a sin_shift profile coercive."""
    nums = {}
    for key, text in values.items():
        try:
            nums[key] = float(text.strip())
        except ValueError:
            return False
        if not math.isfinite(nums[key]) or (key in POSITIVE_KEYS and nums[key] <= 0):
            return False
    if profile == "sin_shift":
        return nums.get("shift", 2.0) - abs(nums.get("amplitude", 1.0)) > 0
    return True


class TestExitCodeFuzz:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), profile=st.sampled_from(sorted(PROFILE_KEYS)), strict=st.booleans())
    def test_coefficient_values_exit_0_1_or_2(self, data, profile, strict):
        keys = data.draw(st.lists(st.sampled_from(PROFILE_KEYS[profile]), unique=True))
        values = {key: data.draw(COEFFICIENT_TEXT, label=key) for key in keys}
        with tempfile.TemporaryDirectory() as out:
            res = run_tiny_hconv(out, {"profile": profile, **values}, strict)
        assert isinstance(res.exception, (SystemExit, type(None))), res.exception
        assert res.exit_code in (0, 1, 2), res.output
        if not _is_valid(profile, values):
            assert res.exit_code == 2, res.output


def _breaking(rule):
    """A config value that breaks a table rule."""
    if rule is POSITIVE:
        return "0"
    if isinstance(rule, tuple):
        return "bogus" if isinstance(rule[0], str) else str(rule[1] + 1)
    return str(rule - 1)


class TestKeyTables:
    def run_key(self, out, kind, name, value):
        """Run ``kind`` with its required keys set to 1 and "section.key"
        ``name`` set to ``value``."""
        sections = {}
        for key, (_, default, _) in _KEYS[kind].items():
            if default is REQUIRED:
                sections.setdefault(key.split(".")[0], {})[key.split(".")[1]] = "1"
        sections.setdefault(name.split(".")[0], {})[name.split(".")[1]] = value
        cfg = os.path.join(out, "keys.cfg")
        with open(cfg, "w") as fh:
            for section, body in sections.items():
                fh.write(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()))
        res = run_cli([kind, "--config", cfg, "--out", out])
        where = "[{}] {}".format(*name.split("."))
        assert res.exit_code == 2, (where, value, res.output)
        error = json.loads(res.output.strip().splitlines()[-1])["error"]
        assert error.startswith(where + ": "), (where, value, error)
        assert not [f for _, _, files in os.walk(out) for f in files if f.endswith(".csv")]

    @pytest.mark.parametrize("kind", sorted(_RUNNERS))
    def test_broken_rule_or_non_number_exit_2(self, kind):
        for name, (typ, _, rule) in _KEYS[kind].items():
            bad = ([_breaking(rule)] if rule is not None else []) + ["abc"] * (typ is not str)
            for value in bad:
                with tempfile.TemporaryDirectory() as out:
                    self.run_key(out, kind, name, value)

    @pytest.mark.parametrize("kind", sorted(_RUNNERS))
    def test_key_of_another_runner_exit_2(self, kind):
        foreign = {name for table in _KEYS.values() for name in table} - set(_KEYS[kind])
        assert foreign
        for name in sorted(foreign):
            with tempfile.TemporaryDirectory() as out:
                self.run_key(out, kind, name, "1")

    @pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
    def test_shipped_config_passes_its_table(self, name):
        cfg = RunConfig.parse(fixture(name))
        kind = cfg.sections["experiment"]["kind"]
        assert set(params(cfg, kind)) == set(_KEYS[kind])


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            res = run_cli(["qdind", "--config", fixture("qdind_sin.cfg"),
                           "--out", str(out)])
            assert res.exit_code == 0, res.output
        assert (out1 / "qdind.csv").read_bytes() == (out2 / "qdind.csv").read_bytes()

    def test_seed_override_changes_digest(self, tmp_path):
        out1, out2 = tmp_path / "s0", tmp_path / "s9"
        run_cli(["divtest", "--config", fixture("divtest.cfg"), "--out", str(out1)])
        run_cli(["divtest", "--config", fixture("divtest.cfg"), "--out", str(out2),
                 "--seed", "9"])
        h1 = (out1 / "divtest.csv").read_text().splitlines()[0]
        h2 = (out2 / "divtest.csv").read_text().splitlines()[0]
        assert h1 != h2


class TestCatalogue:
    def test_list_count_matches(self):
        res = run_cli(["list"])
        assert res.exit_code == 0
        assert len(res.output.strip().splitlines()) == len(CATALOGUE)

    def test_describe_hconv_mentions_the_convergence_notion(self):
        res = run_cli(["describe", "hconv"])
        assert res.exit_code == 0
        assert "H-convergence" in res.output

    def test_describe_cell_mentions_effective_tensor(self):
        res = run_cli(["describe", "cell"])
        assert res.exit_code == 0
        assert "v_xi" in res.output

    def test_describe_prints_every_key_of_the_table(self):
        res = run_cli(["describe", "maxwell"])
        assert res.exit_code == 0
        for name in _KEYS["maxwell"]:
            assert "[{}] {} ".format(*name.split(".")) in res.output, name

    def test_describe_unknown_is_usage_error(self):
        res = run_cli(["describe", "nope"])
        assert res.exit_code == 2


class TestImportPath:
    @staticmethod
    def _run(code):
        """Run ``code`` in a fresh interpreter that imports this homlab."""
        res = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        return res

    def test_cli_import_leaves_out_heavy_scipy_modules(self):
        # every homlab process pays for what `import homlab.cli` loads
        heavy = ("scipy.integrate", "scipy.optimize", "scipy.spatial", "scipy.interpolate",
                 "scipy.sparse.csgraph", "scipy.fft")
        code = f"import sys, homlab.cli; print([m for m in {heavy!r} if m in sys.modules])"
        res = self._run(code)
        assert res.stdout.strip() == "[]"

    def test_1d_configs_leave_out_scipy_fft(self):
        # a 1-d grid system is one tridiagonal solve, with no axis transformed
        names = ("1d_harmonic", "schur_identity", "solve1d", "divtest", "divcurl_compliant",
                 "thermo_laminate")
        code = "\n".join([
            "import sys, tempfile",
            "from click.testing import CliRunner",
            "from homlab.cli import RunConfig, main",
            f"for name in {names!r}:",
            f"    path = {CONFIG_DIR!r} + '/' + name + '.cfg'",
            "    kind = RunConfig.parse(path).sections['experiment']['kind']",
            "    with tempfile.TemporaryDirectory() as out:",
            "        res = CliRunner().invoke(main, [kind, '--config', path, '--out', out])",
            "    print(name, res.exit_code, 'scipy.fft' in sys.modules)",
        ])
        res = self._run(code)
        assert res.stdout.splitlines() == [f"{name} 0 False" for name in names]

    def test_maxwell_experiment_leaves_out_scipy_fft(self):
        # the transverse-mode solves transform with dense 1-d tables
        code = "\n".join([
            "import sys, numpy as np",
            "from homlab.maxwell import maxwell_homogenization_experiment",
            "two = lambda lo, hi: (lambda y: np.where(np.asarray(y) < 0.5, lo, hi))",
            "maxwell_homogenization_experiment(two(1.0, 4.0), two(1.0, 2.0), two(0.5, 1.0),"
            " lam=1.0, n_list=[1, 2], bounds=(0.4, 10.0), transverse_cells=4)",
            "print('scipy.fft' in sys.modules)",
        ])
        res = self._run(code)
        assert res.stdout.strip() == "False"

    def test_only_dirichlet_or_neumann_grid_solves_load_scipy_fft(self):
        # periodic cell problems transform with numpy's FFT; scipy.fft, which
        # pulls in scipy.special, serves the DST-I and DCT-I alone
        code = "\n".join([
            "import sys, numpy as np",
            "from homlab.elliptic import CoefficientField, GridDomain, RHSFunctional,"
            " solve_elliptic",
            "from homlab.homogenize import homogenized_tensor",
            "heavy = ('scipy.fft', 'scipy.special')",
            "dom = GridDomain.box((8, 8))",
            "a = CoefficientField.from_function(dom, lambda p: 1.0 + (p[:, 0] < 0.5)"
            " + (p[:, 1] < 0.5), bounds=(1.0, 3.0))",
            "homogenized_tensor(a)",
            "print([m for m in heavy if m in sys.modules])",
            "solve_elliptic(dom, a, RHSFunctional.density(lambda x: np.ones(len(x))))",
            "print([m for m in heavy if m in sys.modules])",
        ])
        res = self._run(code)
        assert res.stdout.split("\n")[:2] == ["[]", "['scipy.fft', 'scipy.special']"]
