"""Every field and public method the engine declares is read by the program:
a dataclass field or a public method of a class under ``src/gridclear/``
whose name no module under ``src/gridclear/`` or ``scripts/`` reads as an
attribute is flagged, unless ``KEPT`` names it as an output kept for callers
of the library, with the reason.  Names are matched without types: a read of
``x.name`` counts for every class that declares ``name``."""
import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gridclear"
READERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

_PER_UNIT = "per-unit redispatch figures; the reports print only the zone totals"
KEPT = {
    "LpSolution.reduced_costs": "the solver's reduced costs, checked against the KKT conditions",
    "PriceReport.marginal_sets": "why each unit did or did not set the uniform price",
    "MarginalSet.members": "the units a uniform price was formed over (marginal_sets)",
    "MarginalSet.exclusions": "each screened unit's reason (marginal_sets)",
    "StackPrice.nlc_share": "the no-load part of a stack price",
    "StackPrice.suc_share": "the start-up part of a stack price",
    "RedispatchSettlement.con_mwh": _PER_UNIT,
    "RedispatchSettlement.coff_mwh": _PER_UNIT,
    "RedispatchSettlement.con_payment": _PER_UNIT,
    "RedispatchSettlement.coff_payment": _PER_UNIT,
    "PriceSeriesStats.normalized": "the mean-normalized series returned with the percentiles",
    "_Parser.error": "argparse calls it on a usage error",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for d in cls.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "dataclass":
            return True
    return False


def declared(source: str) -> list[str]:
    """``Class.name`` of each dataclass field and each public method (a
    property too) of every class in ``source``."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for st in cls.body:
            if _is_dataclass(cls) and isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name):
                found.append(f"{cls.name}.{st.target.id}")
            elif isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)) and not st.name.startswith("_"):
                found.append(f"{cls.name}.{st.name}")
    return found


def attributes_read(source: str) -> set[str]:
    """The name of each attribute ``source`` reads (``x.name`` in a load)."""
    return {n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


@functools.cache
def _read_anywhere() -> frozenset[str]:
    return frozenset().union(*(attributes_read(p.read_text()) for p in READERS))


def _unread(path: Path) -> list[str]:
    return [d for d in declared(path.read_text()) if d.split(".")[1] not in _read_anywhere()]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_declared_field_and_method_is_read(path):
    assert [d for d in _unread(path) if d not in KEPT] == []


def test_every_kept_name_is_declared_and_unread():
    unread = {d for p in sorted(SRC.glob("*.py")) for d in _unread(p)}
    assert sorted(set(KEPT) - unread) == []


def test_declared_finds_fields_and_public_methods():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: float = 0.0\n"
        "    def f(self): return self.x\n"
        "    def _g(self): pass\n"
        "    @property\n"
        "    def p(self): return 1\n"
        "class B:\n"
        "    z: int\n"
        "    def h(self): pass\n"
    )
    assert declared(source) == ["A.x", "A.y", "A.f", "A.p", "B.h"]


def test_attributes_read_are_loads_only():
    source = "a.b = 1\nc = d.e\nf.g(h.i)\ndel j.k\n"
    assert attributes_read(source) == {"e", "g", "i"}
