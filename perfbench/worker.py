"""One benchmark worker process.

    worker.py ops  INPUTS RESULT [--trace PASS_ID]
        runs every in-process operation of INPUTS["workload"] once (a pass)
    worker.py cli  RESULT [--trace PASS_ID] -- KIND --config ... --out ...
        runs one homlab CLI call, as the ``homlab`` console script does

Either way it first times ``import homlab.cli`` from the checkout's ``src``
(the set-up a CLI user waits for), then writes a JSON result: the import
time, per-operation outcomes and, when traced, the spans and counters.
"""

import json
import os
import sys
import time

T_START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import homlab.cli  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

import inputs as workloads  # noqa: E402
import ops  # noqa: E402
import tracer as tracing  # noqa: E402


def _environment():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _start_tracer(pass_id):
    tracer = tracing.Tracer(pass_id)
    tracing.install(tracer)
    return tracer


def run_ops(spec):
    results = []
    for name in workloads.OPERATIONS[spec["workload"]]:
        t0 = time.perf_counter()
        try:
            outputs, failures = ops.FUNCTIONS[name](spec)
        except Exception as exc:  # an operation that raises counts as failed
            outputs, failures = {}, [f"{type(exc).__name__}: {exc}"]
        results.append({"name": name, "seconds": time.perf_counter() - t0,
                        "outputs": outputs, "failures": failures})
    return results


def main(argv):
    mode, rest = argv[0], argv[1:]
    own = rest[:rest.index("--")] if "--" in rest else rest
    pass_id = int(own[own.index("--trace") + 1]) if "--trace" in own else None
    result = {"import_s": IMPORT_S, "env": _environment()}
    if not os.path.abspath(homlab.cli.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"homlab imported from {homlab.cli.__file__}, not {ROOT}/src")
    if mode == "ops":
        with open(rest[0]) as fh:
            spec = json.load(fh)
        result_path = rest[1]
        tracer = _start_tracer(pass_id) if pass_id is not None else None
        t0 = time.perf_counter()
        result["ops"] = run_ops(spec)
        result["wall_s"] = time.perf_counter() - t0
        code = 0
    elif mode == "cli":
        result_path = rest[0]
        cli_args = rest[rest.index("--") + 1:]
        tracer = _start_tracer(pass_id) if pass_id is not None else None
        try:
            homlab.cli.main(args=cli_args, prog_name="homlab")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    if tracer is not None:
        result["trace"] = tracer.export()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
