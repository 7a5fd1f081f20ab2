"""Span tracing of gridclear from outside the package.

``Tracer.install`` replaces every module-level binding of every public
function defined in the traced layers with one wrapper per function: the
binding in the defining module and each binding another ``gridclear`` module
made by ``from ... import``.  Module-global lookups therefore reach the
wrapper wherever the call is made.  Each call records a span ``[name,
start_ns, end_ns, parent, op, info]`` in memory; ``Tracer.restore`` puts
every original binding back.  ``summarize`` turns the spans into the
per-layer metrics.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time
import types
from pathlib import Path

PACKAGE = "gridclear"
LAYERS = ("cli", "scenario", "grid", "lp", "dispatch", "commitment", "pricing", "settlement", "analysis")

NAME, START, END, PARENT, OP, INFO = range(6)

# every per-layer metric: (unit, which direction is better)
PER_LAYER = {
    "op.count": ("count", "higher"),
    "op.busy_ms": ("ms", "lower"),
    "lp.solve.calls": ("count", "lower"),
    "lp.solve.busy_ms": ("ms", "lower"),
    "lp.solve.p50_ms": ("ms", "lower"),
    "lp.solve.busy_share": ("ratio", "lower"),
    "lp.rows_mean": ("count", "lower"),
    "lp.cols_mean": ("count", "lower"),
    "lp.nnz_mean": ("count", "lower"),
    "lp.non_optimal_ratio": ("ratio", "lower"),
    "dispatch.clear.calls": ("count", "lower"),
    "dispatch.clear.self_ms": ("ms", "lower"),
    "dispatch.lp_per_clear": ("ratio", "lower"),
    "grid.ptdf.calls": ("count", "lower"),
    "grid.ptdf.busy_ms": ("ms", "lower"),
    "grid.ptdf.calls_per_network": ("ratio", "lower"),
    "commitment.solve_uc.calls": ("count", "lower"),
    "commitment.solve_uc.self_ms": ("ms", "lower"),
    "commitment.candidates": ("count", "lower"),
    "commitment.dispatch_per_candidate": ("ratio", "lower"),
    "scenario.load.calls": ("count", "lower"),
    "scenario.load.busy_ms": ("ms", "lower"),
    "scenario.write.busy_ms": ("ms", "lower"),
    "scenario.write.bytes": ("bytes", "lower"),
    "pricing.busy_ms": ("ms", "lower"),
    "settlement.busy_ms": ("ms", "lower"),
    "analysis.busy_ms": ("ms", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "front.self_share": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

WRITE_FUNCS = ("scenario.write_report", "scenario.write_compare_markdown")


def _lp_info(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    nnz = sum(len(r.coeffs) for r in lp.rows)
    return (len(lp.rows), len(lp.objective), nnz, result.status == "optimal")


def _network_arg(args, kwargs, result):
    return args[0] if args else kwargs["net"]  # kept alive so ids stay distinct


def _call_args(args, kwargs, result):
    return (args, kwargs)


def _written_bytes(args, kwargs, result):
    paths = result if isinstance(result, list) else [result]
    return sum(os.stat(p).st_size for p in paths)


# cheap facts read after a span has ended, so they are not part of its time.
# A hook that cannot read its facts (the program changed shape) records
# nothing, and the metrics built on it read 0.
HOOK_ERRORS = (AttributeError, IndexError, KeyError, OSError, TypeError)
HOOKS = {
    "lp.solve": _lp_info,
    "grid.build_ptdf": _network_arg,
    "commitment.solve_uc": _call_args,
    "scenario.write_report": _written_bytes,
    "scenario.write_compare_markdown": _written_bytes,
}


def _package_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def public_functions() -> dict[types.FunctionType, str]:
    """Every public function defined in a traced layer, mapped to its span
    name ``<layer>.<function>``."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(mod).items():
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__ \
                    and not attr.startswith("_"):
                out[obj] = f"{layer}.{attr}"
    return out


def leftover_wrappers() -> list[str]:
    """Bindings in the package that still hold a tracing wrapper."""
    return [f"{mod.__name__}.{attr}" for mod in _package_modules()
            for attr, obj in vars(mod).items() if hasattr(obj, "__bench_original__")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    # -- bindings -----------------------------------------------------------
    def install(self) -> list[str]:
        """Wrap every binding; returns the wrapped binding names."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(fn, name) for fn, name in public_functions().items()}
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        return [f"{mod.__name__}.{attr}" for mod, attr, _ in self._saved]

    def restore(self) -> None:
        while self._saved:
            mod, attr, obj = self._saved.pop()
            setattr(mod, attr, obj)

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                try:
                    span[INFO] = hook(args, kwargs, result)
                except HOOK_ERRORS:
                    pass
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    # -- op spans -------------------------------------------------------------
    def run_op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` inside a root span named ``op``."""
        self.op = op_id
        idx = len(self.spans)
        span = ["op", 0, 0, -1, op_id, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[START] = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()
            self.op = None

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start/end (ns), parent, op."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start_ns": s[START],
                                     "end_ns": s[END], "parent": s[PARENT], "op": s[OP]}) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[list], commitment) -> dict[str, float]:
    """Per-layer metrics from a finished trace.

    ``busy`` is inclusive span time, counted once where spans of the same
    function (or layer) nest; ``self`` is a span's time minus the time its
    child spans cover.  ``commitment`` is the ``gridclear.commitment``
    module with its bindings restored, used to count the candidates each
    ``solve_uc`` call searched."""
    n = len(spans)
    dur = [(s[END] - s[START]) / 1e6 for s in spans]
    children: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    self_ms = [dur[i] - sum(dur[c] for c in children[i]) for i in range(n)]

    def has_ancestor(i, pred):
        p = spans[i][PARENT]
        while p >= 0:
            if pred(spans[p][NAME]):
                return True
            p = spans[p][PARENT]
        return False

    def busy(pred):
        return sum(dur[i] for i in range(n) if pred(spans[i][NAME]) and not has_ancestor(i, pred))

    def named(*names):
        return lambda name: name in names

    def layer(lay):
        return lambda name: _layer(name) == lay

    def self_within(roots):
        """Self time of ``roots`` plus their same-layer descendants."""
        total, todo = 0.0, list(roots)
        while todo:
            i = todo.pop()
            total += self_ms[i]
            todo += [c for c in children[i] if _layer(spans[c][NAME]) == _layer(spans[i][NAME])]
        return total

    def layer_self(lay):
        return sum(self_ms[i] for i in range(n) if _layer(spans[i][NAME]) == lay)

    def idx(*names):
        return [i for i in range(n) if spans[i][NAME] in names]

    def info(indices):
        return [spans[i][INFO] for i in indices if spans[i][INFO] is not None]

    ops = idx("op")
    op_ms = sum(dur[i] for i in ops)
    lp = idx("lp.solve")
    lp_info = info(lp)
    # every dispatch entry point: clear_nodal, clear_zonal, ... at the seed commit
    clears = [i for i in range(n) if spans[i][NAME].startswith("dispatch.clear")]
    ptdf = idx("grid.build_ptdf")
    ucs = idx("commitment.solve_uc")

    candidates = 0
    for args, kwargs in info(ucs):
        try:
            candidates += _candidates(commitment, args, kwargs)
        except HOOK_ERRORS:
            pass
    uc_set = set(ucs)
    clears_under_uc = sum(1 for i in clears if spans[i][PARENT] in uc_set)
    clear_set = set(clears)
    lp_under_clear = sum(1 for i in lp if spans[i][PARENT] in clear_set)

    def ratio(a, b):
        return a / b if b else 0.0

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0

    lp_busy = busy(named("lp.solve"))
    front = layer_self("cli") + layer_self("scenario") + layer_self("pricing") + layer_self("settlement")
    return {
        "op.count": len(ops),
        "op.busy_ms": op_ms,
        "lp.solve.calls": len(lp),
        "lp.solve.busy_ms": lp_busy,
        "lp.solve.p50_ms": statistics.median(dur[i] for i in lp) if lp else 0.0,
        "lp.solve.busy_share": ratio(lp_busy, op_ms),
        "lp.rows_mean": mean([x[0] for x in lp_info]),
        "lp.cols_mean": mean([x[1] for x in lp_info]),
        "lp.nnz_mean": mean([x[2] for x in lp_info]),
        "lp.non_optimal_ratio": ratio(sum(1 for x in lp_info if not x[3]), len(lp_info)),
        "dispatch.clear.calls": len(clears),
        "dispatch.clear.self_ms": self_within(clears),
        "dispatch.lp_per_clear": ratio(lp_under_clear, len(clears)),
        "grid.ptdf.calls": len(ptdf),
        "grid.ptdf.busy_ms": busy(named("grid.build_ptdf")),
        "grid.ptdf.calls_per_network": ratio(len(ptdf), len({id(net) for net in info(ptdf)})),
        "commitment.solve_uc.calls": len(ucs),
        "commitment.solve_uc.self_ms": self_within(ucs),
        "commitment.candidates": candidates,
        "commitment.dispatch_per_candidate": ratio(clears_under_uc, candidates),
        "scenario.load.calls": len(idx("scenario.load_scenario")),
        "scenario.load.busy_ms": busy(named("scenario.load_scenario")),
        "scenario.write.busy_ms": busy(named(*WRITE_FUNCS)),
        "scenario.write.bytes": sum(info(idx(*WRITE_FUNCS))),
        "pricing.busy_ms": busy(layer("pricing")),
        "settlement.busy_ms": busy(layer("settlement")),
        "analysis.busy_ms": busy(layer("analysis")),
        "cli.calls": len(idx("cli.main")),
        "cli.self_ms": layer_self("cli"),
        "front.self_share": ratio(front, op_ms),
    }


def _candidates(commitment, args, kwargs) -> int:
    """Size of the product ``solve_uc`` enumerates, after the lower-bound
    filter, computed from the public ``feasible_sequences``."""
    bound = inspect.signature(commitment.solve_uc).bind(*args, **kwargs)
    hours = bound.arguments["hours"]
    horizon = hours if isinstance(hours, int) else len(hours)
    floors = bound.arguments.get("lower_bounds") or {}
    total = 1
    for u in bound.arguments["ucgens"]:
        opts = commitment.feasible_sequences(u, horizon)
        if u.spec.id in floors:
            floor = tuple(floors[u.spec.id])
            opts = [s for s in opts if all(a >= b for a, b in zip(s, floor))]
        total *= len(opts)
    return total
