"""Spans and counters recorded from outside the library.

``install`` replaces homlab's public functions and methods, and the
``scipy.sparse.linalg`` entry points the modules call, with wrappers that
record one span per call: (name, start, end, parent, pass id). Spans stay in
memory until the worker writes them out. Per-layer numbers are self times: a
span's duration minus the part of it that its child spans cover.

Only traced workers call ``install``; untraced passes run the library as is.
"""

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# (module, attribute path) of every wrapped boundary. A span is named
# "<layer>.<attribute path>"; the layer is the module name without "homlab.".
TARGETS = (
    ("homlab.elliptic", "build_grad"),
    ("homlab.elliptic", "galerkin_matrix"),
    ("homlab.elliptic", "solve_elliptic"),
    ("homlab.elliptic", "solve_affine"),
    ("homlab.elliptic", "scalar_probes"),
    ("homlab.elliptic", "vector_probes"),
    ("homlab.elliptic", "CoefficientField.coercivity_margins"),
    ("homlab.hilbert", "HilbertSpace.inner"),
    ("homlab.hilbert", "HilbertSpace.norm"),
    ("homlab.hilbert", "wot_gap"),
    ("homlab.hilbert", "strong_gap"),
    ("homlab.hilbert", "coercivity_check"),
    ("homlab.hilbert", "Subspace.from_span"),
    ("homlab.hilbert", "Subspace.from_generator"),
    ("homlab.hilbert", "Subspace.complement"),
    ("homlab.hilbert", "Subspace.project"),
    ("homlab.schur", "schur_maps"),
    ("homlab.schur", "blocks"),
    ("homlab.schur", "block_inverse"),
    ("homlab.schur", "tau_gap"),
    ("homlab.homogenize", "laminate_limit"),
    ("homlab.homogenize", "cell_problem"),
    ("homlab.homogenize", "homogenized_tensor"),
    ("homlab.homogenize", "hconvergence_experiment"),
    ("homlab.homogenize", "schur_equiv_check"),
    ("homlab.homogenize", "qdind_check"),
    ("homlab.homogenize", "adjoint_symmetry_check"),
    ("homlab.evolution", "skew_split"),
    ("homlab.evolution", "abstract_schur_experiment"),
    ("homlab.evolution", "two_scale_evo_experiment"),
    ("homlab.thermo", "assemble_thermo"),
    ("homlab.thermo", "thermo_homogenization_experiment"),
    ("homlab.maxwell", "YeeComplex.__init__"),
    ("homlab.maxwell", "build_curl"),
    ("homlab.maxwell", "helmholtz_decompose"),
    ("homlab.maxwell", "maxwell_homogenization_experiment"),
    ("homlab.cli", "RunConfig.parse"),
    ("homlab.serialize", "write_report_csv"),
    ("homlab.serialize", "write_schur_gaps"),
    ("homlab.serialize", "dump_solution_csv"),
    ("homlab.serialize", "save_triplet"),
)

# per-layer metric -> span names whose self times it sums
SELF_TIME_METRICS = {
    "solver.factorize_s": ("solver.splu", "solver.spilu"),
    "solver.solve_s": ("solver.solve",),
    "solver.iterative_s": ("solver.gmres",),
    "solver.eigsh_s": ("solver.eigsh",),
    "elliptic.build_grad_s": ("elliptic.build_grad",),
    "elliptic.galerkin_s": ("elliptic.galerkin_matrix",),
    "elliptic.coef_check_s": ("elliptic.CoefficientField.coercivity_margins",),
    "elliptic.probes_s": ("elliptic.scalar_probes", "elliptic.vector_probes"),
    "elliptic.solve_self_s": ("elliptic.solve_elliptic", "elliptic.solve_affine"),
    "hilbert.pairing_s": ("hilbert.HilbertSpace.inner", "hilbert.HilbertSpace.norm",
                          "hilbert.wot_gap", "hilbert.strong_gap"),
    "hilbert.subspace_s": ("hilbert.Subspace.from_span", "hilbert.Subspace.from_generator",
                           "hilbert.Subspace.complement", "hilbert.Subspace.project"),
    "hilbert.coercivity_s": ("hilbert.coercivity_check",),
    "schur.maps_s": ("schur.schur_maps", "schur.blocks", "schur.block_inverse"),
    "schur.tau_gap_s": ("schur.tau_gap",),
    "homogenize.cell_problem_s": ("homogenize.cell_problem",),
    "homogenize.experiment_self_s": (
        "homogenize.homogenized_tensor", "homogenize.hconvergence_experiment",
        "homogenize.schur_equiv_check", "homogenize.qdind_check",
        "homogenize.adjoint_symmetry_check"),
    "homogenize.laminate_limit_s": ("homogenize.laminate_limit",),
    "evolution.skew_split_s": ("evolution.skew_split",),
    "evolution.experiment_self_s": ("evolution.abstract_schur_experiment",
                                    "evolution.two_scale_evo_experiment"),
    "thermo.assemble_self_s": ("thermo.assemble_thermo",),
    "thermo.experiment_self_s": ("thermo.thermo_homogenization_experiment",),
    "maxwell.complex_s": ("maxwell.YeeComplex.__init__", "maxwell.build_curl",
                          "maxwell.helmholtz_decompose"),
    "maxwell.experiment_self_s": ("maxwell.maxwell_homogenization_experiment",),
    "cli.parse_s": ("cli.RunConfig.parse",),
    "serialize.write_s": ("serialize.write_report_csv", "serialize.write_schur_gaps",
                          "serialize.dump_solution_csv", "serialize.save_triplet"),
}

# per-layer metric -> span names whose calls it counts
CALL_METRICS = {
    "solver.factorize_calls": ("solver.splu", "solver.spilu"),
    "solver.solve_calls": ("solver.solve",),
    "elliptic.build_grad_calls": ("elliptic.build_grad",),
    "elliptic.solve_calls": ("elliptic.solve_elliptic", "elliptic.solve_affine"),
    "hilbert.inner_calls": ("hilbert.HilbertSpace.inner",),
    "hilbert.project_calls": ("hilbert.Subspace.project",),
    "homogenize.cell_problem_calls": ("homogenize.cell_problem",),
}

# counters summed at the boundaries (work done that is not a call count)
SUM_COUNTERS = ("solver.factor_nnz", "solver.iterations", "solver.eigsh_matvecs",
                "elliptic.unknowns_solved", "serialize.bytes_written")
MAX_COUNTERS = ("elliptic.residual_max",)


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self, pass_id=0):
        self.pass_id = pass_id
        self.spans = []          # [name, start, end, parent index]
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []
        self.active = True

    def start(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def add(self, key, value):
        self.counters[key] += value

    def maximum(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def export(self):
        """Spans as (name, start, end, parent, pass id) rows plus counters."""
        return {
            "spans": [[n, s, e, p, self.pass_id] for n, s, e, p in self.spans],
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }


def self_times(spans):
    """Self time of each span: duration minus the union of its children's
    intervals clipped to the span. ``spans`` rows are (name, start, end,
    parent index, ...) with parent -1 for a root."""
    children = defaultdict(list)
    for row in spans:
        if row[3] >= 0:
            children[row[3]].append((row[1], row[2]))
    out = []
    for i, row in enumerate(spans):
        start, end = row[1], row[2]
        covered = 0.0
        reach = start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def layer_metrics(exported):
    """Per-layer numbers of one traced pass from its exported spans."""
    spans = exported["spans"]
    selfs = self_times(spans)
    by_name_time = defaultdict(float)
    by_name_calls = defaultdict(int)
    for row, t in zip(spans, selfs):
        by_name_time[row[0]] += t
        by_name_calls[row[0]] += 1
    out = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(by_name_time[n] for n in names)
    for metric, names in CALL_METRICS.items():
        out[metric] = sum(by_name_calls[n] for n in names)
    for key in SUM_COUNTERS:
        out[key] = exported["counters"].get(key, 0.0)
    for key in MAX_COUNTERS:
        out[key] = exported["maxima"].get(key, 0.0)
    calls = by_name_calls["elliptic.build_grad"]
    hits = exported["counters"].get("elliptic.build_grad_hits", 0.0)
    out["elliptic.grad_cache_hit_ratio"] = hits / calls if calls else 0.0
    out["trace.spans"] = len(spans)
    return out


# -- wrappers ----------------------------------------------------------------


def _wrap(tracer, name, fn, after=None):
    """Call ``fn`` inside a span; ``after(args, kwargs, result)`` runs once
    the span has ended, with recording switched off."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.start(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            tracer.active = False
            try:
                after(args, kwargs, result)
            finally:
                tracer.active = True
        return result

    return wrapper


class _CountingLU:
    """Proxy of a SuperLU factorization that records a span per solve."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = _wrap(tracer, "solver.solve", lu.solve)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _install_scipy(tracer):
    import scipy.sparse.linalg as spla

    def factorize(name, fn):
        timed = _wrap(tracer, name, fn)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            lu = timed(*args, **kwargs)
            if not tracer.active:
                return lu
            tracer.add("solver.factor_nnz", lu.L.nnz + lu.U.nnz)
            return _CountingLU(lu, tracer)

        return call

    gmres = _wrap(tracer, "solver.gmres", spla.gmres)

    @functools.wraps(spla.gmres)
    def counted_gmres(*args, **kwargs):
        if tracer.active and kwargs.get("callback") is None:
            kwargs["callback"] = lambda _res: tracer.add("solver.iterations", 1)
            kwargs["callback_type"] = "pr_norm"
        return gmres(*args, **kwargs)

    eigsh = _wrap(tracer, "solver.eigsh", spla.eigsh)

    @functools.wraps(spla.eigsh)
    def counted_eigsh(A, *args, **kwargs):
        # shift-invert and generalized problems need A itself, so only the
        # plain problem (and not the dense small-n path) gets a counting
        # operator
        k = kwargs.get("k", args[0] if args else 6)
        plain = len(args) < 2 and kwargs.get("M") is None and kwargs.get("sigma") is None
        if tracer.active and plain and A.shape[0] > k + 1:
            op = spla.aslinearoperator(A)

            def matvec(x):
                tracer.add("solver.eigsh_matvecs", 1)
                return op.matvec(x)

            A = spla.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
        return eigsh(A, *args, **kwargs)

    spla.splu = factorize("solver.splu", spla.splu)
    spla.spilu = factorize("solver.spilu", spla.spilu)
    spla.gmres = counted_gmres
    spla.eigsh = counted_eigsh


def _counting_cache_hits(tracer, cached):
    """build_grad with a counter of lru_cache hits."""

    @functools.wraps(cached)
    def call(*args, **kwargs):
        before = cached.cache_info().hits
        result = cached(*args, **kwargs)
        if cached.cache_info().hits > before:
            tracer.add("elliptic.build_grad_hits", 1)
        return result

    return call


def _after_hooks(tracer, originals):
    """Counters taken at the boundaries, computed with recording off."""
    import numpy as np

    def solve_elliptic_after(args, kwargs, result):
        # relative Galerkin residual of the returned solution, recomputed
        # from the coefficient and load with the library's own assembly
        domain, a, f = args[:3]
        flavor = args[3] if len(args) > 3 else kwargs.get("flavor", "dirichlet")
        u = result[0]
        grad = originals["elliptic.build_grad"](domain, flavor)
        k = originals["elliptic.galerkin_matrix"](grad, a)
        rhs = np.asarray(f.assemble(grad))
        res = np.linalg.norm(k @ u - rhs) / max(np.linalg.norm(rhs), 1e-300)
        tracer.add("elliptic.unknowns_solved", len(u))
        tracer.maximum("elliptic.residual_max", float(res))

    def solve_affine_after(args, kwargs, result):
        tracer.add("elliptic.unknowns_solved", len(result[0]))

    def written(args, kwargs, result):
        tracer.add("serialize.bytes_written", os.path.getsize(args[0]))

    return {
        "elliptic.solve_elliptic": solve_elliptic_after,
        "elliptic.solve_affine": solve_affine_after,
        "serialize.write_report_csv": written,
        "serialize.write_schur_gaps": written,
        "serialize.dump_solution_csv": written,
        "serialize.save_triplet": written,
    }


def _resolve(modname, path):
    owner = importlib.import_module(modname)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer):
    """Wrap every boundary in TARGETS and the scipy solver entry points.

    A module-level function may be bound under its name in several homlab
    modules (``from .elliptic import build_grad``); every such binding is
    replaced. Methods are replaced on their class.
    """
    originals = {}
    for modname, path in TARGETS:
        owner, attr = _resolve(modname, path)
        raw = owner.__dict__[attr]
        originals[f"{modname.split('.', 1)[1]}.{path}"] = (
            raw.__func__ if isinstance(raw, classmethod) else raw)
    hooks = _after_hooks(tracer, originals)
    modules = [m for key, m in list(sys.modules.items())
               if key == "homlab" or key.startswith("homlab.")]
    for modname, path in TARGETS:
        owner, attr = _resolve(modname, path)
        name = f"{modname.split('.', 1)[1]}.{path}"
        raw = owner.__dict__[attr]
        fn = originals[name]
        if name == "elliptic.build_grad":
            fn = _counting_cache_hits(tracer, fn)
        wrapped = _wrap(tracer, name, fn, hooks.get(name))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrapped))
        elif isinstance(owner, type):
            setattr(owner, attr, wrapped)
        else:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
    _install_scipy(tracer)
    return originals


def merge(exports):
    """One export from several (the CLI processes of one pass): spans are
    concatenated with their parent indices shifted, counters summed."""
    merged = {"spans": [], "counters": defaultdict(float), "maxima": defaultdict(float)}
    for exp in exports:
        offset = len(merged["spans"])
        merged["spans"].extend(
            [n, s, e, p + offset if p >= 0 else -1, pid] for n, s, e, p, pid in exp["spans"])
        for key, value in exp["counters"].items():
            merged["counters"][key] += value
        for key, value in exp["maxima"].items():
            merged["maxima"][key] = max(merged["maxima"][key], value)
    return merged
