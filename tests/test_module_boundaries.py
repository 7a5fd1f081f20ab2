"""No module of gridclear reads another gridclear module's private names:
neither ``from gridclear.x import _y`` nor ``<gridclear module>._y``, nor
``self._y`` where the module neither assigns ``self._y`` nor defines ``_y``
(a subclass reading its base class's private state).  Names of other
packages (numpy's own privates among them) are not checked."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gridclear"
MODULES = {p.stem for p in SRC.glob("*.py")} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_gridclear(path: str | None) -> bool:
    return path == "gridclear" or (path or "").removeprefix("gridclear.") in MODULES


def _dotted(node: ast.expr, bound: dict[str, str]) -> str | None:
    """The dotted module path ``node`` names through the import bindings, if any."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, bound)
        return base and f"{base}.{node.attr}"
    return None


def private_reads(source: str) -> list[str]:
    """Each private gridclear name the source imports or reads through a
    module binding, as ``line: name``."""
    tree = ast.parse(source)
    bound: dict[str, str] = {}  # local name -> gridclear module it binds
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_gridclear(alias.name.split(".")[0]):
                    bound[alias.asname or "gridclear"] = alias.name if alias.asname else "gridclear"
        elif isinstance(node, ast.ImportFrom) and _is_gridclear(node.module):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.lineno}: {node.module}.{alias.name}")
                elif node.module == "gridclear" and alias.name in MODULES:
                    bound[alias.asname or alias.name] = f"gridclear.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            module = _dotted(node.value, bound)
            if _is_gridclear(module):
                found.append(f"{node.lineno}: {module}.{node.attr}")
    return sorted(found)


def unowned_self_reads(source: str) -> list[str]:
    """Each read of a private ``self._x`` whose name the source neither
    assigns through ``self`` nor defines (a function, class or assigned
    name), as ``line: self._x``."""
    tree = ast.parse(source)
    owned, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "self" and _private(node.attr):
            if isinstance(node.ctx, ast.Load):
                reads.append(node)
            else:
                owned.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owned.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            owned.add(node.id)
    return sorted(f"{node.lineno}: self.{node.attr}" for node in reads if node.attr not in owned)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_read_across_modules(path):
    assert private_reads(path.read_text()) == []
    assert unowned_self_reads(path.read_text()) == []


@pytest.mark.parametrize("source,expected", [
    ("from gridclear.lp import _Simplex", ["1: gridclear.lp._Simplex"]),
    ("from gridclear.lp import solve, _lapack_solve as s", ["1: gridclear.lp._lapack_solve"]),
    ("from gridclear import lp as lpmod\nlpmod._Simplex", ["2: gridclear.lp._Simplex"]),
    ("from gridclear import commitment\ncommitment._BLOCK", ["2: gridclear.commitment._BLOCK"]),
    ("import gridclear.grid\ngridclear.grid._x(1)", ["2: gridclear.grid._x"]),
    ("import gridclear.grid as g\ng._x", ["2: gridclear.grid._x"]),
    ("import gridclear\ngridclear._private", ["2: gridclear._private"]),
], ids=["from-import", "from-import-alias", "module-alias", "module", "dotted", "import-as",
        "package"])
def test_private_reads_are_found(source, expected):
    assert private_reads(source) == expected


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.linalg._umath_linalg.solve",
    "from numpy.linalg import _umath_linalg",
    "from gridclear import lp\nlp.solve\nlp.__name__",
    "class A:\n    def f(self):\n        return self._cache",
    "from gridclear.lp import solve\nsolve._x",
])
def test_public_and_foreign_reads_pass(source):
    assert private_reads(source) == []


@pytest.mark.parametrize("source,expected", [
    ("from gridclear.lp import LpBuilder\nclass Raw(LpBuilder):\n"
     "    def arrays(self):\n        return self._vals", ["4: self._vals"]),
    ("class A:\n    def f(self):\n        return self._cache", ["3: self._cache"]),
    ("class A:\n    def f(self):\n        self._n += 1\n        return self._m", ["4: self._m"]),
], ids=["base-private-list", "never-assigned", "augmented-is-not-the-read"])
def test_unowned_self_reads_are_found(source, expected):
    assert unowned_self_reads(source) == expected


@pytest.mark.parametrize("source", [
    "class A:\n    def __init__(self):\n        self._n = []\n    def f(self):\n        return self._n",
    "class A:\n    def __init__(self):\n        self._a, (self._b, _) = 1, (2, 3)\n"
    "    def f(self):\n        return self._a + self._b",
    "class A:\n    def _g(self):\n        return 1\n    def f(self):\n        return self._g()",
    "class A:\n    _TABLE = {}\n    def f(self):\n        return self._TABLE",
    "class A:\n    def f(self):\n        return self.__class__, self.public",
], ids=["assigned", "assigned-in-tuple", "method", "class-attribute", "dunder-and-public"])
def test_owned_self_reads_pass(source):
    assert unowned_self_reads(source) == []
