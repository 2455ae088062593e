"""Source-level guards: one dense condition rule and one coercivity
certificate in homlab.

Dense condition checks read kappa_1 off one LU (``hilbert._dense_lu``).
A dense SVD or ``cond`` belongs only where the singular values are the
answer: the kernel/range split. Complements of bases whose rank is known
are complete QRs, so scipy's SVD-based ``null_space`` and ``orth`` appear
nowhere.
Eigenvalue bounds are banded or dense LAPACK solves: no ARPACK entry point
(``eigsh``, ``eigs``, ``svds``) appears anywhere.
Dense inverses and solves run on the one LU of ``hilbert._dense_lu``, which
also gives the kappa_1 estimate. Elsewhere only the per-cell d x d inverses
of a coefficient field call a ``linalg`` inverse.
Every weight is diagonal, so no Cholesky factorisation (``cho_factor``,
``cho_solve``, ``cholesky``) appears anywhere.
There is one solver layer: the Krylov solvers (``cg``, ``gmres``) are
called only in ``elliptic._GridSolver``, LAPACK's tridiagonal LU (``gttrf``)
only in ``elliptic._TransformInverse`` and its band LU (``gbtrf``) only in
``hilbert._band_lu``, the one sparse direct solver, which only
``hilbert._SparseSolver`` calls, so that every band factorisation is
residual-checked: SuperLU (``splu``, ``spilu``) appears nowhere. A name
counts where it is an attribute, a bare name, an import or a string
constant, such as the routine names passed to ``get_lapack_funcs``. Grid stiffness matrices never reach the band LU, so
``elliptic`` names neither ``_band_lu`` nor ``_SparseSolver``.
A parameter with a default is a setting, so some call in the repository sets
it to something else than a literal copy of the default; a numerical setting
that no caller changes is a module constant.
A check raises an error: no ``assert`` statement appears in homlab, because
``python -O`` removes them and the check with them.
A grid gradient is real, so G^H is ``matrix.T``: no ``.matrix.conj()``
copy appears in homlab.
A module-level cache keeps one entry (``lru_cache(maxsize=1)``), so no grid
or solver outlives the next one built.
The CLI builds no experiment: ``cli.py`` has no loop over an ``n_list`` and
names no operator, space or dense LU (``LinearOp``, ``HilbertSpace``,
``_dense_lu``); each runner calls one library experiment and its verdict.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import homlab
from homlab.elliptic import FLAVORS, DiscreteGradient, GridDomain

_ALLOWED = {"hilbert.kernel_range"}
_FORBIDDEN = {"cond", "svd", "null_space", "orth"}
_ARPACK = {"eigsh", "eigs", "svds"}
_SUPERLU = {"splu", "spilu"}
_DENSE_SOLVE_ALLOWED = {"hilbert._dense_lu", "elliptic.CoefficientField.coercivity_margins",
                        "elliptic.CoefficientField.inverse_field"}
_DENSE_SOLVES = {"inv", "solve", "lu_factor", "lu_solve"}
_CHOLESKY = {"cho_factor", "cho_solve", "cholesky"}
# solver entry point -> the one class that may call it
_SOLVER_OWNERS = {"cg": "elliptic._GridSolver", "gmres": "elliptic._GridSolver",
                  "gttrf": "elliptic._TransformInverse", "gbtrf": "hilbert._band_lu",
                  "_band_lu": "hilbert._SparseSolver"}
# LAPACK routines are also named with their type prefix (``dgbtrf``)
_LAPACK = {"gttrf", "gbtrf"}
# what the grid solver module may not name
_GRID_FREE = {"_SparseSolver", "_band_lu"}
# where the calls that set homlab's defaulted parameters may be
_CALLERS = ("src/homlab", "demos", "perfbench", "tools", "tests")
# the one defaulted parameter that no call needs to set: click's binding of a
# command's kind
_UNSET_ALLOWED = {"cli._register._cmd:_kind"}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _sites(path, matches):
    """Qualified names of the functions (or the module) holding a node for
    which ``matches`` is true."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            if matches(child):
                sites.append(".".join([path.stem] + scope))
            visit(child, inner)

    visit(ast.parse(path.read_text()), [])
    return sites


def _linalg_sites(path, names):
    """Where ``<x>.linalg.<name>`` appears for a name in ``names``, or such a
    name is imported from a ``linalg`` module."""
    def matches(node):
        if isinstance(node, ast.Attribute):
            return node.attr in names and _dotted(node.value).endswith("linalg")
        return isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg") \
            and any(alias.name in names for alias in node.names)

    return _sites(path, matches)


def _named_sites(path, names):
    """Where a name in ``names`` is named: as an attribute, a bare name, an
    import or a string constant."""
    def matches(node):
        if isinstance(node, ast.Attribute):
            return node.attr in names
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, ast.Constant):
            return isinstance(node.value, str) and node.value in names
        return isinstance(node, (ast.Import, ast.ImportFrom)) \
            and any(alias.name.rpartition(".")[2] in names for alias in node.names)

    return _sites(path, matches)


def test_dense_svd_and_cond_only_where_singular_values_are_the_answer():
    package = Path(homlab.__file__).parent
    sites = [s for path in sorted(package.glob("*.py")) for s in _linalg_sites(path, _FORBIDDEN)]
    assert set(sites) <= _ALLOWED, sorted(set(sites) - _ALLOWED)
    assert _ALLOWED <= set(sites)    # the scan still sees the allowed site


def test_scan_sees_a_forbidden_site(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import numpy as np\n\nclass A:\n    def f(self, m):\n"
                   "        return np.linalg.cond(m)\n\n"
                   "def g(m):\n    from scipy.linalg import svd\n    return svd(m)\n\n"
                   "def h(m):\n    return scipy.linalg.null_space(m)\n")
    assert _linalg_sites(src, _FORBIDDEN) == ["mod.A.f", "mod.g", "mod.h"]


def test_no_arpack_in_homlab():
    package = Path(homlab.__file__).parent
    sites = [s for path in sorted(package.glob("*.py")) for s in _named_sites(path, _ARPACK)]
    assert not sites, sorted(set(sites))


def test_scan_sees_an_arpack_site(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import scipy.sparse.linalg as spla\n"
                   "from scipy.sparse.linalg import svds\n\n"
                   "class A:\n    def f(self, m):\n"
                   "        return spla.eigsh(m, k=1)\n\n"
                   "def g(m):\n    return scipy.sparse.linalg.eigs(m)\n")
    assert _named_sites(src, _ARPACK) == ["mod", "mod.A.f", "mod.g"]


def test_no_superlu_in_homlab():
    package = Path(homlab.__file__).parent
    sites = [s for path in sorted(package.glob("*.py")) for s in _named_sites(path, _SUPERLU)]
    assert not sites, sorted(set(sites))


def test_scan_sees_a_superlu_site(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import scipy.sparse.linalg as spla\n\nclass A:\n    def f(self, k):\n"
                   "        return spla.splu(k)\n\n"
                   "def g(k):\n    from scipy.sparse.linalg import spilu\n    return spilu(k)\n\n"
                   "def h(k):\n    return getattr(spla, 'splu')(k)\n")
    assert _named_sites(src, _SUPERLU) == ["mod.A.f", "mod.g", "mod.g", "mod.h"]


def test_dense_inverses_and_solves_only_on_the_one_lu():
    package = Path(homlab.__file__).parent
    sites = [s for path in sorted(package.glob("*.py")) for s in _linalg_sites(path, _DENSE_SOLVES)]
    assert set(sites) <= _DENSE_SOLVE_ALLOWED, sorted(set(sites) - _DENSE_SOLVE_ALLOWED)
    assert _DENSE_SOLVE_ALLOWED <= set(sites)    # the scan still sees every allowed site


def test_scan_sees_a_dense_solve_site(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import numpy as np\nimport scipy.linalg\n\nclass A:\n    def f(self, m):\n"
                   "        return np.linalg.inv(m)\n\n"
                   "def g(m, b):\n    from numpy.linalg import solve\n    return solve(m, b)\n\n"
                   "def h(m, b):\n    return scipy.linalg.solve(m, b)\n\n"
                   "def k(m, b):\n    return m.solve(b) + scipy.linalg.solve_triangular(m, b)\n")
    assert _linalg_sites(src, _DENSE_SOLVES) == ["mod.A.f", "mod.g", "mod.h"]


def test_no_cholesky_in_homlab():
    package = Path(homlab.__file__).parent
    sites = [s for path in sorted(package.glob("*.py")) for s in _linalg_sites(path, _CHOLESKY)]
    assert not sites, sorted(set(sites))


def test_scan_sees_a_cholesky_site(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import numpy as np\nimport scipy.linalg\n\nclass A:\n    def f(self, m):\n"
                   "        return np.linalg.cholesky(m)\n\n"
                   "def g(m, b):\n    from scipy.linalg import cho_factor, cho_solve\n"
                   "    return cho_solve(cho_factor(m), b)\n\n"
                   "def h(m):\n    return scipy.linalg.cho_factor(m)\n\n"
                   "def k(w):\n    return w.cholesky\n")
    assert _linalg_sites(src, _CHOLESKY) == ["mod.A.f", "mod.g", "mod.h"]


def test_one_solver_layer():
    package = Path(homlab.__file__).parent
    for name, owner in _SOLVER_OWNERS.items():
        names = {name} | ({p + name for p in "sdcz"} if name in _LAPACK else set())
        sites = {s for path in sorted(package.glob("*.py")) for s in _named_sites(path, names)}
        assert all(s == owner or s.startswith(owner + ".") for s in sites), (name, sorted(sites))
        assert sites, name    # the scan still sees the allowed site


def test_scan_sees_a_solver_site(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import scipy.sparse.linalg as spla\n\nclass A:\n    def f(self, k):\n"
                   "        return spla.splu(k)\n\n"
                   "def g(k, b):\n    from scipy.sparse.linalg import cg\n    return cg(k, b)\n\n"
                   "def h(k, b):\n    return scipy.sparse.linalg.gmres(k, b)\n")
    assert _named_sites(src, {"splu"}) == ["mod.A.f"]
    assert _named_sites(src, {"cg", "gmres"}) == ["mod.g", "mod.g", "mod.h"]


def test_scan_sees_a_lapack_routine_named_by_string(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import scipy.linalg\n\nclass A:\n    def f(self, d):\n"
                   "        return scipy.linalg.get_lapack_funcs(('gttrf', 'gttrs'), (d,))\n\n"
                   "def g(ab):\n    return scipy.linalg.get_lapack_funcs('gbtrf', (ab,))\n\n"
                   "def h():\n    return scipy.linalg.lapack.dgbtrf\n")
    assert _named_sites(src, {"gttrf"}) == ["mod.A.f"]
    assert _named_sites(src, {"gbtrf", "dgbtrf"}) == ["mod.g", "mod.h"]


def test_scan_sees_a_band_lu_outside_its_solver(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from .hilbert import _band_lu\n\nclass _SparseSolver:\n"
                   "    def __init__(self, k):\n        self._solve = _band_lu(k)\n\n"
                   "class _Modes:\n    def __init__(self, k):\n"
                   "        self._solve = hilbert._band_lu(k)\n")
    assert _named_sites(src, {"_band_lu"}) == ["mod", "mod._SparseSolver.__init__",
                                               "mod._Modes.__init__"]


def test_grid_solves_name_no_sparse_lu():
    elliptic = Path(homlab.__file__).parent / "elliptic.py"
    assert _named_sites(elliptic, _GRID_FREE) == []


def test_scan_sees_a_sparse_lu_in_a_grid_module(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from .hilbert import _SparseSolver\n\nclass A:\n    def f(self, k):\n"
                   "        return _SparseSolver(k)\n\n"
                   "def g(k):\n    return hilbert._band_lu(k)\n")
    assert _named_sites(src, _GRID_FREE) == ["mod", "mod.A.f", "mod.g"]


def test_no_assert_in_homlab():
    package = Path(homlab.__file__).parent
    sites = [s for path in sorted(package.glob("*.py"))
             for s in _sites(path, lambda node: isinstance(node, ast.Assert))]
    assert not sites, sorted(set(sites))


def test_scan_sees_an_assert(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("assert True\n\nclass A:\n    def f(self, x):\n"
                   "        assert x > 0, 'x'\n        return x\n\n"
                   "def g(x):\n    return 'assert x'  # assert x\n\n"
                   "def h(x):\n    if x:\n        assert x, x\n")
    assert _sites(src, lambda node: isinstance(node, ast.Assert)) == ["mod", "mod.A.f", "mod.h"]


def _defaulted_parameters(path):
    """(qualified name, called name, parameter, position, default) of every
    parameter with a default on every function and method of a module. The
    position counts what a call passes (no self or cls), None for a
    keyword-only parameter; a call names an ``__init__`` by its class or as
    ``cls``; the default is its expression node."""
    found = []

    def visit(node, scope, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = ".".join([path.stem] + scope + [child.name])
                called = {cls, "cls"} if child.name == "__init__" else {child.name}
                static = any(_dotted(d) == "staticmethod" for d in child.decorator_list)
                bound = 1 if cls is not None and not static else 0
                args = child.args.posonlyargs + child.args.args
                first = len(args) - len(child.args.defaults)
                for i, (arg, default) in enumerate(zip(args[first:], child.args.defaults), first):
                    found.append((qual, called, arg.arg, i - bound, default))
                for arg, default in zip(child.args.kwonlyargs, child.args.kw_defaults):
                    if default is not None:
                        found.append((qual, called, arg.arg, None, default))
                visit(child, scope + [child.name], None)
            else:
                visit(child, scope, cls)

    visit(ast.parse(path.read_text()), [], None)
    return found


_CLI_FREE = {"LinearOp", "HilbertSpace", "_dense_lu"}


def _n_list_loop(node):
    """A ``for`` statement or a comprehension whose iterable reads an
    ``n_list``: a name, an attribute or a subscript by a "section.n_list"
    key."""
    if not isinstance(node, (ast.For, ast.comprehension)):
        return False
    return any(isinstance(n, ast.Name) and n.id == "n_list"
               or isinstance(n, ast.Attribute) and n.attr == "n_list"
               or isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Constant)
               and str(n.slice.value).endswith("n_list") for n in ast.walk(node.iter))


def test_cli_builds_no_experiment():
    cli = Path(homlab.__file__).parent / "cli.py"
    assert _sites(cli, _n_list_loop) == []
    assert _named_sites(cli, _CLI_FREE) == []


def test_scan_sees_an_experiment_in_the_cli(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from .hilbert import HilbertSpace, _DENSE_SVD_CUTOFF\n\n"
                   "def run(p):\n    for n in p['run.n_list']:\n        pass\n"
                   "    return [n for n, v in zip(p.n_list, p)]\n\n"
                   "def build(p, n_list):\n    rows = []\n    for n in n_list:\n"
                   "        rows.append(hilbert.LinearOp(n))\n    return max(p['run.n_list'])\n\n"
                   "def fine(p):\n    return [k for k in {'run.n_list': 1}], hilbert._dense_lu\n")
    assert _sites(src, _n_list_loop) == ["mod.run", "mod.run", "mod.build"]
    assert _named_sites(src, _CLI_FREE) == ["mod", "mod.build", "mod.fine"]


def _literal(node):
    """The value of a literal expression node, with its type, or None."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError):
        return None
    return type(value), value


def _unset_parameters(modules, callers):
    """``module.function:parameter`` for each defaulted parameter of the given
    modules that no call in the caller files passes, by keyword (or a
    ``**`` mapping) or by position (or a ``*`` sequence). A literal equal to
    the default, of the same type, does not set the parameter. Calls are
    matched by the called name alone."""
    calls = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                calls.setdefault(_dotted(node.func).rpartition(".")[2], []).append(node)

    def passes(call, param, position, default):
        ref = _literal(default)
        changes = lambda node: ref is None or _literal(node) != ref
        if any(k.arg is None or k.arg == param and changes(k.value) for k in call.keywords):
            return True
        for i, arg in enumerate(call.args if position is not None else ()):
            if isinstance(arg, ast.Starred):
                return True    # it may fill the parameter's slot
            if i == position:
                return changes(arg)
        return False

    return sorted(f"{qual}:{param}" for path in modules
                  for qual, called, param, position, default in _defaulted_parameters(path)
                  if not any(passes(c, param, position, default)
                             for n in called for c in calls.get(n, ())))


def test_every_defaulted_parameter_is_set_by_some_call():
    package = Path(homlab.__file__).parent
    root = package.parents[1]
    callers = [p for d in _CALLERS for p in sorted((root / d).rglob("*.py"))]
    unset = _unset_parameters(sorted(package.glob("*.py")), callers)
    assert set(unset) <= _UNSET_ALLOWED, sorted(set(unset) - _UNSET_ALLOWED)
    assert _UNSET_ALLOWED <= set(unset)    # each allowed setting is still unset


def test_scan_sees_an_unset_parameter(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("class A:\n    def __init__(self, x, y=1, *, z=2):\n        pass\n\n"
                   "    @classmethod\n    def make(cls, x, tol=1e-9):\n        return cls(x, 3)\n\n"
                   "    @staticmethod\n    def s(a, b=0):\n        return a\n\n"
                   "def f(a, b=None, c=3):\n    return A.make(a, **{})\n\n"
                   "def g(*args, seed=7):\n    return f(*args)\n")
    caller = tmp_path / "use.py"
    caller.write_text("import mod\n\nmod.A.s(1)\nmod.g(1, 2)\n")
    assert _unset_parameters([src], [src, caller]) == ["mod.A.__init__:z", "mod.A.s:b", "mod.g:seed"]


def test_scan_sees_a_default_passed_as_a_literal(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("def f(a, tol=1e-9, flavor='dirichlet', extent=(0.0, 1.0), n=1, *, g=None,"
                   " h=2):\n    return a\n")
    caller = tmp_path / "use.py"
    # a copy of the default sets nothing; another value, a value of another
    # type or an expression does
    caller.write_text("import mod\n\nmod.f(1, 1e-9, flavor='dirichlet', extent=(0.0, 1.0),"
                      " g=None)\nmod.f(1, tol=1e-9, n=1.0, h=len)\nmod.f(1, 1e-9, 'neumann')\n")
    assert _unset_parameters([src], [caller]) == ["mod.f:extent", "mod.f:g", "mod.f:tol"]
    # a * sequence may fill every slot from its own on, but no keyword-only one
    caller.write_text("import mod\n\nmod.f(1, 1e-9, *[2])\n")
    assert _unset_parameters([src], [caller]) == ["mod.f:g", "mod.f:h", "mod.f:tol"]


def _matrix_conj(node):
    return (isinstance(node, ast.Attribute) and node.attr == "conj"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "matrix")


def test_no_conjugate_copy_of_a_matrix_in_homlab():
    package = Path(homlab.__file__).parent
    sites = [s for path in sorted(package.glob("*.py")) for s in _sites(path, _matrix_conj)]
    assert not sites, sorted(set(sites))


def test_scan_sees_a_conjugate_copy_of_a_matrix(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("def f(grad, r):\n    return grad.matrix.conj().T @ r\n\n"
                   "def g(m, r):\n    return m.conj().T @ r + m.matrix.T @ r\n\n"
                   "class A:\n    def h(self):\n        return self.op.matrix.conj()\n")
    assert _sites(src, _matrix_conj) == ["mod.f", "mod.A.h"]


_CACHES = {"lru_cache", "cache"}


def _is_cache(node):
    return isinstance(node, (ast.Name, ast.Attribute)) \
        and _dotted(node).rpartition(".")[2] in _CACHES


def _cache_bounds(path):
    """(site, maxsize) of every ``lru_cache`` and ``cache`` of a module, as a
    decorator or a call: the literal bound, 128 for ``lru_cache`` with none
    given, None for an unbounded cache and "?" for a bound that is not a
    literal."""
    found = []

    def bound(node):
        if isinstance(node, ast.Call):
            given = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if given:
                return given[0].value if isinstance(given[0], ast.Constant) else "?"
            node = node.func
        return 128 if _dotted(node).endswith("lru_cache") else None

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
                found.extend((".".join([path.stem] + inner), bound(dec))
                             for dec in child.decorator_list if _is_cache(dec))
            if isinstance(child, ast.Call) and _is_cache(child.func):
                found.append((".".join([path.stem] + inner), bound(child)))
            visit(child, inner)

    visit(ast.parse(path.read_text()), [])
    return found


def test_every_lru_cache_keeps_one_entry():
    package = Path(homlab.__file__).parent
    bounds = [b for path in sorted(package.glob("*.py")) for b in _cache_bounds(path)]
    assert all(size == 1 for _, size in bounds), bounds
    # the scan still sees the grid cache
    assert "elliptic.build_grad" in {site for site, _ in bounds}


def test_scan_sees_every_cache_bound(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import functools\nfrom functools import cache, lru_cache\n\n"
                   "@lru_cache(maxsize=1)\ndef a(x):\n    return x\n\n"
                   "@functools.lru_cache(32)\ndef b(x):\n    return x\n\n"
                   "@lru_cache\ndef c(x):\n    return x\n\n"
                   "@functools.cache\ndef d(x):\n    return x\n\n"
                   "@lru_cache(maxsize=SIZE)\ndef e(x):\n    return x\n\n"
                   "class A:\n    def f(self):\n        return lru_cache(maxsize=None)(len)\n\n"
                   "    @functools.cached_property\n    def g(self):\n        return 1\n")
    assert _cache_bounds(src) == [("mod.a", 1), ("mod.b", 32), ("mod.c", 128), ("mod.d", None),
                                  ("mod.e", "?"), ("mod.A.f", None)]


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("cells", [(5,), (4, 3), (3, 2, 4)])
def test_gradient_matrix_is_real(flavor, cells):
    # what lets every G^H product take matrix.T
    assert DiscreteGradient(GridDomain.box(cells), flavor).matrix.dtype == np.float64
