"""Tests of the benchmark's own code: span arithmetic, seeded inputs,
metric names, the reference comparison, and a tiny smoke run of each
workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


# -- self-time arithmetic ----------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["child", 1.0, 4.0, 0],
        ["grandchild", 2.0, 3.0, 1],
    ]
    assert tracer.self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 5.0, 0],
        ["b", 3.0, 7.0, 0],      # overlaps a: the union [1, 7] is covered
        ["c", 6.5, 6.8, 0],      # inside the union already
        ["d", 8.0, 12.0, 0],     # runs past the parent: clipped to [8, 10]
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_layer_metrics_sum_self_times_and_calls_per_layer():
    exported = {
        "spans": [
            ["homogenize.homogenized_tensor", 0.0, 10.0, -1, 1],
            ["homogenize.cell_problem", 1.0, 5.0, 0, 1],
            ["solver.splu", 2.0, 4.0, 1, 1],
            ["homogenize.cell_problem", 5.0, 9.0, 0, 1],
            ["solver.splu", 6.0, 8.5, 3, 1],
        ],
        "counters": {"solver.factor_nnz": 7.0, "elliptic.build_grad_hits": 0.0},
        "maxima": {"elliptic.residual_max": 1e-12},
    }
    m = tracer.layer_metrics(exported)
    assert m["homogenize.experiment_self_s"] == pytest.approx(2.0)
    assert m["homogenize.cell_problem_s"] == pytest.approx(2.0 + 1.5)
    assert m["solver.factorize_s"] == pytest.approx(4.5)
    assert m["solver.factorize_calls"] == 2
    assert m["homogenize.cell_problem_calls"] == 2
    assert m["solver.factor_nnz"] == 7.0
    assert m["elliptic.residual_max"] == 1e-12


def test_merge_shifts_parents_and_sums_counters():
    one = {"spans": [["a", 0, 2, -1, 1], ["b", 0.5, 1, 0, 1]],
           "counters": {"x": 1.0}, "maxima": {"m": 2.0}}
    two = {"spans": [["a", 3, 4, -1, 1], ["b", 3.2, 3.4, 0, 1]],
           "counters": {"x": 2.0}, "maxima": {"m": 1.0}}
    merged = tracer.merge([one, two])
    assert [s[3] for s in merged["spans"]] == [-1, 0, -1, 2]
    assert merged["counters"]["x"] == 3.0 and merged["maxima"]["m"] == 2.0


# -- seeded inputs -----------------------------------------------------------


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert inputs.make_inputs(workload, 5) == inputs.make_inputs(workload, 5)
    first, other = inputs.make_inputs(workload, 5), inputs.make_inputs(workload, 6)
    assert first["probe_seed"] != other["probe_seed"] or first["pairs"] != other["pairs"]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_contrast_pairs_stay_within_twenty_percent(workload):
    for seed in range(50):
        for name, (low, high) in inputs.make_inputs(workload, seed)["pairs"].items():
            base_low, base_high = inputs.PAIRS[workload][name]
            assert 0.8 * base_low <= low <= 1.2 * base_low
            assert 0.8 * base_high <= high <= 1.2 * base_high


def test_odd_passes_mirror_the_contrast_factors_of_even_passes():
    even, odd = inputs.make_inputs("resolvent", 9, 2), inputs.make_inputs("resolvent", 9, 3)
    for name, shipped in inputs.PAIRS["resolvent"].items():
        for base, a, b in zip(shipped, even["pairs"][name], odd["pairs"][name]):
            assert a / base - 1 == pytest.approx(1 - b / base)


def test_config_perturbation_moves_only_contrast_values():
    text = "[coefficients]\nprofile = two_phase\nlow = 1.0\nhigh = 4.0\n[run]\ncells = 8\n"
    out = inputs.perturb_config(text, [1.1, 0.9])
    assert out == "[coefficients]\nprofile = two_phase\nlow = 1.1\nhigh = 3.6\n[run]\ncells = 8\n"
    assert inputs.perturb_config(text, [1.1, 0.9]) == out


# -- metric names ------------------------------------------------------------


def test_every_metric_name_is_declared():
    end_to_end, per_layer, workloads = declared()
    assert run.END_TO_END == end_to_end
    assert {n: run.layer_unit(n) for n in run.per_layer_names()} == per_layer
    assert tuple(workloads) == inputs.WORKLOADS
    for name in list(end_to_end) + list(per_layer) + workloads:
        assert NAME.match(name), name


# -- correctness checks ------------------------------------------------------


def test_compare_uses_relative_tolerance_with_absolute_floor():
    ref = {"big": 2.0, "gap": 1e-16, "text": "abc"}
    assert check.compare({"big": 2.0 * (1 + 5e-11), "gap": 5e-13, "text": "abc"}, ref) == []
    bad = check.compare({"big": 2.0 * (1 + 1e-9), "gap": 1e-11, "text": "abd"}, ref)
    assert len(bad) == 3
    assert check.compare({"big": 2.0, "gap": 0.0}, ref) == ["text: missing"]


def test_artifact_outputs_split_numbers_from_text():
    csv = "# homlab-csv schema=1 kind=x digest=ab12\nn,gap\n1,0.5\n2,1e-3+2j\n"
    out = check.artifact_outputs("x.csv", csv)
    numbers = [v for k, v in out.items() if not k.endswith("#text")]
    assert numbers == [1.0, 0.5, 2.0, 1e-3, 2.0]
    changed = check.artifact_outputs("x.csv", csv.replace("digest=ab12", "digest=ab13"))
    assert changed["x.csv#text"] != out["x.csv#text"]


def test_workers_get_one_blas_thread_unless_the_caller_sets_one():
    for var in run.BLAS_VARS:
        assert run.WORKER_ENV[var] == os.environ.get(var, "1")


def test_a_worker_past_its_cap_is_killed_and_reported(tmp_path):
    code, seconds, _ = run.spawn(
        [sys.executable, "-c", "import time; time.sleep(60)"], 0.5, str(tmp_path / "log"))
    assert code is None and seconds < 30


# -- smoke runs --------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    end_to_end, per_layer, _ = declared()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    expected = per_layer if trace else end_to_end
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # fail_ratio is printed too; the JSON line carries it as failed/attempted
    # because a declared end-to-end metric must never read 0
    printed = {line.split()[2] for line in lines[:-1]
               if line.startswith(f"# {workload} ") and "per-layer:" not in line}
    assert printed <= set(end_to_end) | set(per_layer) | {"fail_ratio"}
