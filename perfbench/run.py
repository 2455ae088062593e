"""homlab benchmark runner.

    python3 perfbench/run.py --workload {cell,sweep,resolvent,cli,all}
                             --seed N --seconds S --trace {0,1}

Runs seeded passes of one workload (or of each in turn with ``all``) for
about S seconds, one closed-loop client, one worker process alive at a time,
one BLAS thread per worker. Each pass starts in a fresh worker, so
homlab's caches start cold, as in a CLI call. Prints the environment and
each metric with its unit and sample count as ``#`` lines, then, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import inputs as inputs_mod  # noqa: E402
import tracer as tracing  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_PASSES = 3          # untraced passes of a --trace 0 run
MIN_PAIRS = 2           # (untraced, traced) pairs of a --trace 1 run
WORKER_CAP_S = 120.0     # one worker (a pass of ops, or one CLI call)
RUN_DEADLINE_S = 170.0   # no spawn outlives this, so a run ends within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread unless the caller sets one. On 2 vCPUs a second OpenBLAS
# thread saved no time but kept the other vCPU busy for half of each pass
# (a sweep pass took 10.5 CPU-seconds instead of 7.0), so the worker's
# timing also depended on how the host scheduled that second vCPU.
WORKER_ENV = dict(os.environ, **{v: os.environ.get(v, "1") for v in BLAS_VARS})

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "_max": "ratio", "bytes_written": "bytes"}


def layer_unit(name):
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer_names():
    names = list(tracing.SELF_TIME_METRICS) + list(tracing.CALL_METRICS)
    names += list(tracing.SUM_COUNTERS) + list(tracing.MAX_COUNTERS)
    names += ["elliptic.grad_cache_hit_ratio", "trace.spans", "cli.import_s",
              "trace.overhead_s"]
    return names


class Deadline:
    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds

    def left(self):
        return self.end - time.perf_counter()


def spawn(argv, cap, stdout_path):
    """Run one process to completion or until ``cap`` seconds; returns
    (exit code or None when capped, seconds, peak RSS in MB).

    A thread blocks in wait4 (which also gives the child's resource usage),
    so the runner takes no CPU from the worker while it waits."""
    with open(stdout_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=WORKER_ENV)
        reaped = []
        waiter = threading.Thread(target=lambda: reaped.append(os.wait4(proc.pid, 0)))
        waiter.start()
        try:
            waiter.join(cap)
        finally:
            # on the cap, or if the runner itself is interrupted, the worker
            # is killed and reaped before the runner goes on
            capped = not reaped
            if capped:
                proc.kill()
                waiter.join()
        seconds = time.perf_counter() - t0
    _, status, usage = reaped[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if capped else proc.returncode
    return code, seconds, usage.ru_maxrss / 1024.0


def _tail(path, lines=3):
    with open(path) as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class Run:
    """Passes of one workload at one seed."""

    def __init__(self, workload, seed, tiny, workdir, deadline):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.deadline = deadline
        self.reference = None
        if seed == check.DEFAULT_SEED and not tiny:
            self.reference = check.load_reference().get(workload, {})
        self.env = None
        self.draws = {}
        self.count = 0

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _cap(self):
        return max(0.0, min(WORKER_CAP_S, self.deadline.left()))

    def _op(self, name, outputs, failures, draw):
        # the reference holds the default seed's first draw
        if not failures and self.reference is not None and draw == 0:
            failures = check.compare(outputs, self.reference.get(name, {}))
        return {"name": name, "outputs": outputs, "failures": failures}

    def run_pass(self, traced, draw):
        self.count += 1
        inputs = inputs_mod.make_inputs(self.workload, self.seed, draw, self.tiny)
        self.draws[draw] = {"probe_seed": inputs["probe_seed"], "pairs": inputs["pairs"]}
        if self.workload == "cli":
            return self._cli_pass(inputs, traced)
        return self._ops_pass(inputs, traced)

    def _ops_pass(self, inputs, traced):
        tag = f"p{self.count}"
        inputs_path = self._path(f"{tag}-inputs.json")
        with open(inputs_path, "w") as fh:
            json.dump(inputs, fh)
        result_path = self._path(f"{tag}.json")
        argv = [sys.executable, WORKER, "ops", inputs_path, result_path]
        if traced:
            argv += ["--trace", str(self.count)]
        code, seconds, rss = spawn(argv, self._cap(), self._path(f"{tag}.log"))
        result = _read_json(result_path) if code == 0 else None
        draw = inputs["draw"]
        if result is None:
            why = "missed its cap" if code is None else f"exit {code}: {_tail(self._path(tag + '.log'))}"
            ops = [self._op(n, {}, [f"worker {why}"], draw)
                   for n in inputs_mod.OPERATIONS[self.workload]]
            return {"wall_s": seconds, "rss_mb": rss, "imports": [], "ops": ops,
                    "traced": traced, "trace": None}
        self.env = self.env or result["env"]
        ops = [self._op(o["name"], o["outputs"], o["failures"], draw) for o in result["ops"]]
        return {"wall_s": result["wall_s"], "rss_mb": rss, "imports": [result["import_s"]],
                "ops": ops, "traced": traced, "trace": result.get("trace")}

    def _cli_pass(self, inputs, traced):
        ops, imports, traces = [], [], []
        rss = 0.0
        t0 = time.perf_counter()
        for name in inputs["configs"]:
            with open(os.path.join(ROOT, "configs", f"{name}.cfg")) as fh:
                text = inputs_mod.perturb_config(fh.read(), inputs["config_scale"][name])
            cfg = self._path(f"{name}-{self.count}.cfg")
            with open(cfg, "w") as fh:
                fh.write(text)
            kind = homlab_kind(text)
            out = self._path(f"out-{self.count}-{name}")
            result_path = self._path(f"cli-{self.count}-{name}.json")
            log = self._path(f"cli-{self.count}-{name}.log")
            argv = [sys.executable, WORKER, "cli", result_path]
            if traced:
                argv += ["--trace", str(self.count)]
            argv += ["--", kind, "--config", cfg, "--out", out,
                     "--seed", str(inputs["probe_seed"])]
            code, _, proc_rss = spawn(argv, self._cap(), log)
            rss = max(rss, proc_rss)
            result = _read_json(result_path)
            if result is not None:
                self.env = self.env or result["env"]
                imports.append(result["import_s"])
                if result.get("trace"):
                    traces.append(result["trace"])
            failures = []
            if code != 0:
                failures.append("missed its cap" if code is None
                                else f"exit {code}: {_tail(log)}")
            elif result is None:
                failures.append("worker wrote no result")
            else:
                with open(log) as fh:
                    lines = fh.read().strip().splitlines()
                summary = json.loads(lines[-1]) if lines else {}
                if summary.get("status") != "ok":
                    failures.append(f"status {summary.get('status')!r}")
            outputs = {}
            if not failures:
                for fname in sorted(os.listdir(out)):
                    with open(os.path.join(out, fname)) as fh:
                        outputs.update(check.artifact_outputs(fname, fh.read()))
            ops.append(self._op(name, outputs, failures, inputs["draw"]))
        wall = time.perf_counter() - t0
        trace = tracing.merge(traces) if traced and traces else None
        return {"wall_s": wall, "rss_mb": rss, "imports": imports, "ops": ops,
                "traced": traced, "trace": trace}


def homlab_kind(cfg_text):
    for line in cfg_text.splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "kind":
            return value.strip()
    raise ValueError("config has no [experiment] kind")


def environment(run, seed):
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    env = dict(run.env or {})
    env.update({
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: WORKER_ENV[v] for v in BLAS_VARS},
        "seed": seed,
        "workload": run.workload,
        "inputs_by_draw": run.draws,
    })
    return env


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, seed, seconds, traced, tiny, deadline):
    workdir = os.path.join(WORK, f"{workload}-s{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        run = Run(workload, seed, tiny, workdir, deadline)
        passes = []
        longest = 0.0
        t0 = time.perf_counter()
        while True:
            t_step = time.perf_counter()
            draw = len(passes) // 2 if traced else len(passes)
            passes.append(run.run_pass(traced=False, draw=draw))
            if traced:
                # each traced pass repeats the inputs of the untraced pass
                # before it, so that their difference is the tracing overhead
                passes.append(run.run_pass(traced=True, draw=draw))
            # start no step that would end past --seconds (once the minimum
            # is met) or run into the deadline, judged by the longest so far
            now = time.perf_counter()
            longest = max(longest, now - t_step)
            enough = len(passes) >= (2 * MIN_PAIRS if traced else MIN_PASSES)
            if deadline.left() <= longest or (enough and now + longest - t0 > seconds):
                break
        if traced:
            _write_spans(workload, seed, passes)
        return run, passes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _write_spans(workload, seed, passes):
    spans = []
    for p in passes:
        if p["trace"]:
            spans.extend(p["trace"]["spans"])
    with open(os.path.join(WORK, f"spans-{workload}-s{seed}.json"), "w") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "pass"], "spans": spans}, fh)


def summarize(run, passes, traced):
    """(metrics, report lines, attempted, failed, failure lines)."""
    ops = [op for p in passes for op in p["ops"]]
    failures = [f"{op['name']}: {f}" for op in ops for f in op["failures"]]
    failed = sum(1 for op in ops if op["failures"])
    w = run.workload
    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    imports = [s for p in plain for s in p["imports"]]
    rss = [p["rss_mb"] for p in plain]
    lines = [
        f"# {w} wall_s      median {_median(walls):.4f} s, max {max(walls):.4f} s, "
        f"{len(walls)} untraced passes: " + " ".join(f"{x:.3f}" for x in walls),
        f"# {w} setup_s     median {_median(imports):.4f} s ({len(imports)} worker imports)",
        f"# {w} peak_rss_mb median {_median(rss):.1f} MB ({len(rss)} passes)",
        f"# {w} fail_ratio  {failed}/{len(ops)} = {failed / len(ops):.4f} "
        f"({len(ops)} operations)",
    ]
    if not traced:
        values = {"wall_s": _median(walls), "setup_s": _median(imports),
                  "peak_rss_mb": _median(rss)}
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
        return metrics, lines, len(ops), failed, failures
    traced_passes = [p for p in passes if p["traced"]]
    per_pass = [tracing.layer_metrics(p["trace"]) for p in traced_passes if p["trace"]]
    values = {}
    for name in per_layer_names():
        samples = [m[name] for m in per_pass if name in m]
        values[name] = _median(samples)
    values["cli.import_s"] = _median([s for p in traced_passes for s in p["imports"]])
    values["trace.overhead_s"] = _median(
        [t["wall_s"] - u["wall_s"] for u, t in zip(passes[::2], passes[1::2])])
    lines.append(f"# {w} per-layer: median of {len(per_pass)} traced passes; "
                 f"trace.overhead_s = traced minus untraced wall_s on the same inputs")
    for name in per_layer_names():
        lines.append(f"# {w} {name} {values[name]:.6g} {layer_unit(name)}")
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    return metrics, lines, len(ops), failed, failures


def record_reference(workloads):
    ref = check.load_reference() if os.path.exists(check.REFERENCE) else {}
    deadline = Deadline(3600)
    for w in workloads:
        workdir = os.path.join(WORK, f"record-{w}")
        os.makedirs(workdir, exist_ok=True)
        run = Run(w, check.DEFAULT_SEED, False, workdir, deadline)
        run.reference = None
        p = run.run_pass(traced=False, draw=0)
        shutil.rmtree(workdir, ignore_errors=True)
        bad = [f"{op['name']}: {op['failures']}" for op in p["ops"] if op["failures"]]
        if bad:
            raise SystemExit(f"not recording a failing pass: {bad}")
        ref[w] = {op["name"]: op["outputs"] for op in p["ops"]}
    with open(check.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs_mod.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes, for the benchmark's smoke tests")
    parser.add_argument("--record-reference", action="store_true",
                        help="record the default-seed outputs in perfbench/reference.json")
    args = parser.parse_args(argv)

    missing = [p for p in (os.path.join("src", "homlab", "cli.py"), "configs")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}; "
              "run from a homlab checkout", file=sys.stderr)
        return 2
    workloads = inputs_mod.WORKLOADS if args.workload == "all" else (args.workload,)
    os.makedirs(WORK, exist_ok=True)
    if args.record_reference:
        record_reference(workloads)
        return 0
    for w in workloads:
        deadline = Deadline(RUN_DEADLINE_S)
        run, passes = measure(w, args.seed, args.seconds, bool(args.trace), args.tiny,
                              deadline)
        metrics, lines, attempted, failed, failures = summarize(run, passes, bool(args.trace))
        print("# env " + json.dumps(environment(run, args.seed), sort_keys=True))
        for line in lines:
            print(line)
        for f in failures[:20]:
            print(f"# FAILED {f}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
