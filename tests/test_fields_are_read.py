"""Every field, public method and public function the engine declares is
read by the program: a dataclass field or a public method of a class under
``src/gridclear/`` whose name no module under ``src/gridclear/`` or
``scripts/`` reads as an attribute is flagged, and so is a public
module-level function whose name no such module reads, bare or as an
attribute, and that ``gridclear/__init__.py`` does not import.  ``KEPT``
exempts a name, or a ``fnmatch`` pattern of names, kept for callers of the
library, with the reason.  Names are matched without types: a read of
``x.name`` counts for every class that declares ``name``, and a read of
``name`` for every module that defines it.  So a field whose name another
dataclass declares too is checked again at run time, of its own class."""
import ast
import collections
import dataclasses
import fnmatch
import functools
import importlib
import inspect
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gridclear"
MODULES = sorted(SRC.glob("*.py"))
READERS = MODULES + sorted((ROOT / "scripts").glob("*.py"))
READER_DIRS = (f"{SRC}{os.sep}", f"{ROOT / 'scripts'}{os.sep}")
PERFBENCH = ROOT / "perfbench"

_PER_UNIT = "per-unit redispatch figures; the reports print only the zone totals"
KEPT = {
    "PriceReport.marginal_sets": "why each unit did or did not set the uniform price",
    "MarginalSet.members": "the units a uniform price was formed over (marginal_sets)",
    "MarginalSet.exclusions": "each screened unit's reason (marginal_sets)",
    "StackPrice.nlc_share": "the no-load part of a stack price",
    "StackPrice.suc_share": "the start-up part of a stack price",
    "RedispatchSettlement.con_mwh": _PER_UNIT,
    "RedispatchSettlement.coff_mwh": _PER_UNIT,
    "RedispatchSettlement.con_payment": _PER_UNIT,
    "RedispatchSettlement.coff_payment": _PER_UNIT,
    "_Parser.error": "argparse calls it on a usage error",
    "commitment.feasible_sequences": "perfbench/spantrace.py and its self-test call it; "
                                     "ROADMAP item 1 moves them to `_count_sequences`",
    "cli.cmd_*": "`main` looks them up by name",
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


def functions(source: str) -> list[str]:
    """The name of each public module-level function of ``source``."""
    return [st.name for st in ast.parse(source).body
            if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)) and not st.name.startswith("_")]


def attributes_read(source: str) -> set[str]:
    """The name of each attribute ``source`` reads (``x.name`` in a load)."""
    return {n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def names_read(source: str) -> set[str]:
    """Each name ``source`` reads, bare (``name``) or as an attribute."""
    return attributes_read(source) | {n.id for n in ast.walk(ast.parse(source))
                                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def imported(source: str) -> set[str]:
    """Each name ``source`` imports with ``from ... import``."""
    return {a.asname or a.name for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ImportFrom)
            for a in n.names}


@functools.cache
def _read_anywhere() -> frozenset[str]:
    return frozenset().union(*(attributes_read(p.read_text()) for p in READERS))


@functools.cache
def _called_or_exported() -> frozenset[str]:
    return frozenset().union(*(names_read(p.read_text()) for p in READERS),
                             imported((SRC / "__init__.py").read_text()))


def _unread(path: Path) -> list[str]:
    return [d for d in declared(path.read_text()) if d.split(".")[1] not in _read_anywhere()]


def _uncalled(path: Path) -> list[str]:
    return [f"{path.stem}.{f}" for f in functions(path.read_text()) if f not in _called_or_exported()]


def _kept(name: str) -> bool:
    return any(fnmatch.fnmatchcase(name, pattern) for pattern in KEPT)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_declared_field_and_method_is_read(path):
    assert [d for d in _unread(path) if not _kept(d)] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_function_is_called_or_exported(path):
    assert [f for f in _uncalled(path) if not _kept(f)] == []


def test_every_kept_name_is_declared_and_unread():
    unread = [d for p in MODULES for d in _unread(p) + _uncalled(p)]
    assert sorted(k for k in KEPT if not fnmatch.filter(unread, k)) == []


def shared_fields() -> dict[type, frozenset[str]]:
    """Each dataclass of ``gridclear`` that declares a field name another one
    declares too, mapped to those of its fields."""
    classes = []
    for path in MODULES:
        module = importlib.import_module(f"gridclear.{path.stem}".removesuffix(".__init__"))
        classes += [c for c in vars(module).values() if inspect.isclass(c)
                    and dataclasses.is_dataclass(c) and c.__module__ == module.__name__]
    declaring = collections.Counter(f.name for c in classes for f in dataclasses.fields(c))
    shared = {c: frozenset(f.name for f in dataclasses.fields(c) if declaring[f.name] > 1) for c in classes}
    return {c: names for c, names in shared.items() if names}


def _recording(cls: type, names: frozenset[str], reads: set[str]):
    """A ``__getattribute__`` for ``cls`` that adds ``Class.name`` to
    ``reads`` when code under src/gridclear/ or scripts/ reads one of
    ``names``."""
    get = cls.__getattribute__

    def getattribute(self, name):
        if name in names and os.path.abspath(sys._getframe(1).f_code.co_filename).startswith(READER_DIRS):
            reads.add(f"{cls.__name__}.{name}")
        return get(self, name)
    return getattribute


def test_every_shared_field_name_is_read_of_its_own_class(tmp_path, monkeypatch):
    """Every op of the benchmark's ``cli_bundled`` workload runs through
    ``cli.main`` while each field that ``shared_fields`` names records the
    reads of it that code under src/gridclear/ or scripts/ makes; a field
    not read of its own class is flagged."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    cli, expected = run.import_cli(), run.load_expected()
    shared, reads = shared_fields(), set()
    for cls, names in shared.items():
        monkeypatch.setattr(cls, "__getattribute__", _recording(cls, names, reads))
    monkeypatch.setenv("GRIDCLEAR_OUT", str(tmp_path / "out"))  # run.execute sets it; restored after
    failed = []
    for op in workloads.bundled_ops(run.DEFAULT_SEED, tmp_path, run.SCENARIOS):
        failed += run.failures(op, run.execute(cli, op, tmp_path / "out")[1], expected)
    assert failed == []
    unread = sorted(f"{c.__name__}.{n}" for c, names in shared.items() for n in names)
    assert [f for f in unread if f not in reads and not _kept(f)] == []


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


def test_functions_are_public_and_module_level():
    source = (
        "def f(): pass\n"
        "def _g(): pass\n"
        "async def h(): pass\n"
        "class A:\n"
        "    def m(self): pass\n"
        "if True:\n"
        "    def k(): pass\n"
    )
    assert functions(source) == ["f", "h"]


def test_attributes_read_are_loads_only():
    source = "a.b = 1\nc = d.e\nf.g(h.i)\ndel j.k\n"
    assert attributes_read(source) == {"e", "g", "i"}


def test_names_read_are_bare_and_attribute_loads():
    source = "a = b\nc.d(e)\nf.g = h\nfrom m import n\n"
    assert names_read(source) == {"b", "c", "d", "e", "f", "h"}
    assert imported(source) == {"n"}
