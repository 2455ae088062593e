"""The names the benchmark in ``perfbench/`` resolves in homlab.

``perfbench/tracer.py`` wraps every ``TARGETS`` entry, found as
``owner.__dict__[attr]``, and ``perfbench/ops.py`` passes ``probe_seed=`` to
the experiments it runs. A rename or deletion of either breaks only the
benchmark, whose own tests are outside tier-1; these checks catch it here.
"""

import ast
import importlib
import importlib.util
import inspect
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  os.path.join(BENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def probe_seed_calls():
    """(module, function) of every ``module.function(..., probe_seed=...)``
    call in ``perfbench/ops.py``."""
    with open(os.path.join(BENCH, "ops.py")) as fh:
        tree = ast.parse(fh.read())
    return sorted({(node.func.value.id, node.func.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and isinstance(node.func.value, ast.Name)
                   and any(k.arg == "probe_seed" for k in node.keywords)})


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = []
    for module, path in tracer.TARGETS:
        try:
            owner, attr = tracer._resolve(module, path)
        except AttributeError:
            missing.append(f"{module}.{path}")
            continue
        if attr not in owner.__dict__:
            missing.append(f"{module}.{path}")
    assert tracer.TARGETS and not missing, missing


def test_every_probe_seed_call_is_accepted():
    calls = probe_seed_calls()
    assert len(calls) == 4, calls
    for module, name in calls:
        fn = getattr(importlib.import_module(f"homlab.{module}"), name)
        assert "probe_seed" in inspect.signature(fn).parameters, f"{module}.{name}"
