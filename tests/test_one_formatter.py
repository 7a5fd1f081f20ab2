"""One formatter prints every report figure: the two-decimal format spec
(``.2f``) stands only in ``grid.format_number``, so a change of how figures
print is a change of that one function.  The package and the scripts
under ``scripts/`` are scanned; both f-string specs (``f"{x:.2f}"``) and
``format(x, ".2f")`` calls are found."""
import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "gridclear"
SCANNED = sorted(SRC.glob("*.py")) + sorted((REPO / "scripts").glob("*.py"))
TWO_DECIMALS = re.compile(r"\.2f")
ALLOWED = {"grid": {"format_number"}}


def _spec_text(spec: ast.expr) -> str:
    """The literal text of a format spec (its constant parts)."""
    if isinstance(spec, ast.Constant) and isinstance(spec.value, str):
        return spec.value
    if isinstance(spec, ast.JoinedStr):
        return "".join(_spec_text(v) for v in spec.values)
    return ""


def two_decimal_sites(source: str) -> list[str]:
    """Each use of a two-decimal format spec in ``source``, as ``scope:
    line``, where the scope is the dotted name of the enclosing classes and
    functions (``<module>`` outside any)."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            spec = None
            if isinstance(child, ast.FormattedValue) and child.format_spec is not None:
                spec = child.format_spec
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                    and child.func.id == "format" and len(child.args) == 2:
                spec = child.args[1]
            if spec is not None and TWO_DECIMALS.search(_spec_text(spec)):
                found.append(f"{'.'.join(scope) or '<module>'}: {child.lineno}")
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(found)


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: p.name)
def test_two_decimals_are_printed_only_by_format_number(path):
    allowed = ALLOWED.get(path.stem, set()) if path.parent == SRC else set()
    assert [s for s in two_decimal_sites(path.read_text()) if s.split(":")[0] not in allowed] == []


def test_format_number_still_holds_the_spec():
    scopes = {s.split(":")[0] for s in two_decimal_sites((SRC / "grid.py").read_text())}
    assert scopes == ALLOWED["grid"]


@pytest.mark.parametrize("source,expected", [
    ("x = 1.0\ns = f'{x:.2f}'", ["<module>: 2"]),
    ("def f(v):\n    return f'flow {abs(v):.2f} MW'", ["f: 2"]),
    ("class A:\n    def g(self, v):\n        return f'{v:>10.2f}'", ["A.g: 3"]),
    ("def h(v):\n    return format(v, '.2f')", ["h: 2"]),
], ids=["module", "function", "method-padded", "format-call"])
def test_two_decimal_sites_are_found(source, expected):
    assert two_decimal_sites(source) == expected


@pytest.mark.parametrize("source", [
    "x = 1.0\ns = f'{x:.3f}'",
    "x = 1.0\ns = f'{x:g}'",
    "x = 2\ns = f'{x}.2f'",
])
def test_other_specs_are_not_two_decimal_sites(source):
    assert two_decimal_sites(source) == []
