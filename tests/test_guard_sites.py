"""Float-error guards (``np.errstate``, ``math.isfinite``, ``np.isfinite``)
stand only where numbers enter that no constructor's range has checked: the
LP module, which guards library LPs; ``analysis.price_stats``, whose input is
a price CSV; and the readers of numbers from text, ``scenario._finite_number``
and ``cli._finite_float``.  Every figure an engine object holds lies within
the range its constructor checks (``grid.MAGNITUDE``), so arithmetic on them
needs no guard downstream."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gridclear"
GUARDS = {"numpy.errstate", "math.isfinite", "numpy.isfinite"}
ALLOWED = {"analysis": {"price_stats"}, "scenario": {"_finite_number"}, "cli": {"_finite_float"}}


def _dotted(node: ast.expr, bound: dict[str, str]) -> str | None:
    """The dotted path ``node`` names through the import bindings, if any."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, bound)
        return base and f"{base}.{node.attr}"
    return None


def guard_sites(source: str) -> list[str]:
    """Each use of a guard in ``source``, as ``scope: guard``, where the scope
    is the dotted name of the enclosing classes and functions (``<module>``
    outside any); a decorator counts in the function it decorates."""
    tree = ast.parse(source)
    bound: dict[str, str] = {}  # local name -> the module or module attribute it binds
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, (ast.Name, ast.Attribute)) and _dotted(child, bound) in GUARDS:
                found.append(f"{'.'.join(scope) or '<module>'}: {_dotted(child, bound)}")
            visit(child, scope)

    visit(tree, ())
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.stem != "lp"],
                         ids=lambda p: p.name)
def test_float_error_guards_stand_only_where_unchecked_numbers_enter(path):
    allowed = ALLOWED.get(path.stem, set())
    assert [s for s in guard_sites(path.read_text()) if s.split(":")[0] not in allowed] == []


def test_the_allowed_guards_are_still_there():
    # a guard moved out of its allowed function would pass unseen
    for module, functions in ALLOWED.items():
        scopes = {s.split(":")[0] for s in guard_sites((SRC / f"{module}.py").read_text())}
        assert scopes == functions, module


@pytest.mark.parametrize("source,expected", [
    ("import numpy as np\nwith np.errstate(over='ignore'):\n    pass", ["<module>: numpy.errstate"]),
    ("import math\ndef f(x):\n    return math.isfinite(x)", ["f: math.isfinite"]),
    ("from numpy import isfinite as fin\nclass A:\n    def g(self, v):\n        return fin(v)",
     ["A.g: numpy.isfinite"]),
    ("import numpy\n@numpy.errstate(invalid='raise')\ndef h():\n    pass", ["h: numpy.errstate"]),
    ("import numpy.linalg\ndef k(a):\n    return numpy.isfinite(a)", ["k: numpy.isfinite"]),
], ids=["with-block", "function", "from-import-alias", "decorator", "submodule-import"])
def test_guard_sites_are_found(source, expected):
    assert guard_sites(source) == expected


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.isnan(1.0)",
    "import cmath\ncmath.isfinite(1.0)",
    "def f(x):\n    return x.isfinite()",
    "import math\nmath.inf",
])
def test_other_names_are_not_guards(source):
    assert guard_sites(source) == []
