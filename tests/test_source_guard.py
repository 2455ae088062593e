"""Source-level guards: one dense condition rule in homlab.

Dense condition checks read kappa_1 off one LU (``hilbert._dense_lu``).
A dense SVD or ``cond`` belongs only where the singular values are the
answer: the kernel/range split and the public kappa_2 of ``SkewOp``.
"""

import ast
from pathlib import Path

import homlab

_ALLOWED = {"hilbert.kernel_range", "evolution.SkewOp.a_tilde_cond"}
_FORBIDDEN = {"cond", "svd"}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _svd_and_cond_sites(path):
    """Qualified names of the functions in which ``<x>.linalg.svd`` or
    ``<x>.linalg.cond`` appears, or that import ``svd``/``cond`` from a
    ``linalg`` module."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            if isinstance(child, ast.Attribute) and child.attr in _FORBIDDEN \
                    and _dotted(child.value).endswith("linalg"):
                sites.append(".".join([path.stem] + scope))
            if isinstance(child, ast.ImportFrom) and (child.module or "").endswith("linalg") \
                    and any(alias.name in _FORBIDDEN for alias in child.names):
                sites.append(".".join([path.stem] + scope))
            visit(child, inner)

    visit(ast.parse(path.read_text()), [])
    return sites


def test_dense_svd_and_cond_only_where_singular_values_are_the_answer():
    package = Path(homlab.__file__).parent
    sites = [s for path in sorted(package.glob("*.py")) for s in _svd_and_cond_sites(path)]
    assert set(sites) <= _ALLOWED, sorted(set(sites) - _ALLOWED)
    assert _ALLOWED <= set(sites)    # the scan still sees the two allowed sites


def test_scan_sees_a_forbidden_site(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import numpy as np\n\nclass A:\n    def f(self, m):\n"
                   "        return np.linalg.cond(m)\n\n"
                   "def g(m):\n    from scipy.linalg import svd\n    return svd(m)\n")
    assert _svd_and_cond_sites(src) == ["mod.A.f", "mod.g"]
