"""Scenario file schema, validation, loading, and report serialization.

A scenario is one JSON document (conventionally ``*.scn``).  The field tables
below (``_TOP``, ``_NETWORK``, ``_BUS``, ...) are its schema: one table per
fixed-schema object, mapping each key, in document order, to its types and
default.  The parser reads every object through its table and rejects a key
the table does not name (``E_KEY``); ``dump_scenario`` writes every object in
its table's key order.  Four maps are free-form: ``metadata``, the regime names
under ``regimes``, the bus-keyed ``loads`` and the generator-keyed
``run.forced_bounds``::

    {                                           # _TOP
      "network": {                              # _NETWORK
        "buses": [{...}], "lines": [{...}],     # _BUS, _LINE
        "interfaces": [{"members": [{...}]}]    # _INTERFACE, _MEMBER
      },
      "generators": [{...}],                    # _GENERATOR
      "loads": {"<bus>": <MW> | [<MW per hour>]},   # optional overrides
      "regimes": {"<name>": {...}},             # _REGIME
      "run": {                                  # _RUN
        "forced_bounds": {"<gen>": {...}},      # _BOUNDS
        "bid_deviation": {...}                  # _BID_DEVIATION
      }
    }

Validation is total: every problem in the file is collected (each with a
stable error code) and reported at once; a malformed file never yields a
partially constructed scenario.  Loading a dumped scenario reproduces the
object graph exactly.
"""
from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from gridclear.dispatch import ConstraintRegime, DispatchResult, GeneratorSpec, with_forced_bounds
from gridclear.grid import Bus, GridStructureError, Interface, Line, Network, format_number
from gridclear.pricing import BID_SCHEMES, SCHEMES, PriceReport
from gridclear.settlement import SettlementReport

# stable validation error codes
E_IO = "E_IO"  # file missing / unreadable
E_PARSE = "E_PARSE"  # not UTF-8, not valid JSON, or JSON too deep or long to read
E_SECTION = "E_SECTION"  # missing or empty required section
E_KEY = "E_KEY"  # a key its object's table does not name
E_TYPE = "E_TYPE"  # wrong type for a field
E_VALUE = "E_VALUE"  # value violates an invariant
E_DUP = "E_DUP"  # duplicate identifier
E_REF = "E_REF"  # unresolved id reference
E_TOPOLOGY = "E_TOPOLOGY"  # structural network problem
E_REGIME = "E_REGIME"  # bad constraint-regime block
E_RUN = "E_RUN"  # bad run section
E_LOADS = "E_LOADS"  # bad loads section

MAX_HORIZON_H = 8760  # one year of hours

# ---------------------------------------------------------------------------
# the schema: key -> (types, default), in document order
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a field the document must give
_NUMBER = (int, float)  # read as float

_TOP = {
    "name": (str, None),  # None: the file's stem
    "currency": (str, ""), "metadata": (dict, {}),
    # each section checks its own type
    "network": (object, None), "generators": (object, None), "loads": (object, None),
    "regimes": (object, None), "run": (object, None),
}
_NETWORK = {
    "slack_bus": (str, _REQUIRED), "zones": (list, _REQUIRED), "buses": (list, _REQUIRED),
    "lines": (list, _REQUIRED), "interfaces": (list, ()),
}
_BUS = {
    "id": (str, _REQUIRED), "zone": (str, _REQUIRED), "load_mw": (_NUMBER, 0.0), "wtp": (_NUMBER, 0.0),
}
_LINE = {
    "id": (str, _REQUIRED), "from": (str, _REQUIRED), "to": (str, _REQUIRED),
    "reactance": (_NUMBER, _REQUIRED), "limit_mw": (_NUMBER, _REQUIRED), "monitored_in": (list, ()),
}
_INTERFACE = {"id": (str, _REQUIRED), "members": (list, _REQUIRED), "ttc_mw": (_NUMBER, _REQUIRED)}
_MEMBER = {"line": (str, _REQUIRED), "direction": (int, 1)}
_GENERATOR = {
    "id": (str, _REQUIRED), "bus": (str, _REQUIRED),
    "p_min": (_NUMBER, 0.0), "p_max": (_NUMBER, _REQUIRED),
    "ic": (_NUMBER, _REQUIRED), "nlc": (_NUMBER, 0.0), "suc": (_NUMBER, 0.0),
    "forced_min": (_NUMBER, None), "forced_max": (_NUMBER, None),
    "min_up_h": (int, 1), "min_down_h": (int, 1),
    "initially_on": (bool, False), "initial_hours": (int, 24), "synchronous": (bool, True),
}
_REGIME = {
    "mode": (str, _REQUIRED), "monitored_profile": (str, None), "enforce_interfaces": (bool, True),
    "reserve_req_mw": (_NUMBER, 0.0), "min_sync_mw": (_NUMBER, 0.0),
}
_RUN = {
    "schemes": (list, ()), "horizon": (int, 1), "forced_bounds": (dict, {}),
    "bid_deviation": (dict, None), "dauc_regime": (str, None), "ruc_regime": (str, None),
}
_BOUNDS = {"min": (_NUMBER, None), "max": (_NUMBER, None)}
_BID_DEVIATION = {
    "generator": (str, _REQUIRED), "offered_ic": (_NUMBER, _REQUIRED), "scheme": (str, "uniform"),
}


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    where: str
    message: str

    def __str__(self):
        return f"{self.code} at {self.where}: {self.message}"


class ScenarioValidationError(ValueError):
    def __init__(self, issues: Sequence[ValidationIssue]):
        self.issues = tuple(issues)
        super().__init__(
            "scenario validation failed:\n" + "\n".join(f"  - {i}" for i in self.issues)
        )


@dataclass(frozen=True)
class RunSection:
    schemes: tuple[str, ...] = ()
    horizon: int = 1
    forced_bounds: dict[str, tuple[float | None, float | None]] = field(default_factory=dict)
    bid_deviation: tuple[str, float, str] | None = None  # (generator, offered_ic, scheme)
    dauc_regime: str | None = None
    ruc_regime: str | None = None


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario file.  Bus loads live once, in ``network``; ``loads``
    holds only the file's ``loads`` section, one series of ``run.horizon``
    MW per overridden bus, or None without that section."""

    name: str
    currency: str
    metadata: dict[str, str]
    network: Network
    generators: tuple[GeneratorSpec, ...]
    loads: dict[str, tuple[float, ...]] | None
    regimes: dict[str, ConstraintRegime]
    run: RunSection

    def loads_at(self, hour: int) -> dict[str, float] | None:
        """One hour's load overrides, as ``clear`` takes them: only the
        overridden buses, each mapped to its MW (every other bus keeps its
        ``load_mw``); None when the file overrides no load."""
        return None if self.loads is None else {bus: mw[hour] for bus, mw in self.loads.items()}

    def hourly_loads(self) -> list[dict[str, float] | None]:
        """``loads_at`` of each hour of the run horizon, as ``solve_uc`` takes them."""
        return [self.loads_at(t) for t in range(self.run.horizon)]


# ---------------------------------------------------------------------------
# loading / validation
# ---------------------------------------------------------------------------

class _Collector:
    def __init__(self):
        self.issues: list[ValidationIssue] = []

    def add(self, code: str, where: str, message: str):
        self.issues.append(ValidationIssue(code, where, message))

    def raise_if_any(self):
        if self.issues:
            raise ScenarioValidationError(self.issues)


def _fields(col, raw, where, table) -> dict[str, Any]:
    """Each of ``table``'s fields read from the object ``raw``, numbers as float.

    A key the table does not name is E_KEY.  An absent or null field reads as
    its default; a required one reads as None and is E_SECTION.  A value of
    another type, or a boolean, NaN or infinity where a number is expected, is
    E_TYPE and reads as the default (None if required)."""
    for key in raw:
        if key not in table:
            col.add(E_KEY, f"{where}.{key}", f"unknown field; allowed: {tuple(table)}")
    out = {}
    for key, (types, default) in table.items():
        val = raw.get(key)  # explicit null == absent
        if default is _REQUIRED:
            default = None
            if val is None:
                col.add(E_SECTION, where, f"missing required field {key!r}")
        if val is None:
            out[key] = default
        elif not isinstance(val, types):
            col.add(E_TYPE, f"{where}.{key}", f"expected {types}, got {type(val).__name__}")
            out[key] = default
        elif (types is int or types is _NUMBER) and not _finite_number(val):
            col.add(E_TYPE, f"{where}.{key}", f"expected a finite number, got {val!r}")
            out[key] = default
        else:
            out[key] = float(val) if types is _NUMBER else val
    return out


_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")  # C0, DEL and C1
_CELL_BREAKING = re.compile(r'[,|"]|' + _CONTROL.pattern)  # CSV and markdown separators, quotes, controls


def _check_name(col, where, kind, name):  # an id or zone name that would break a report cell
    if _CELL_BREAKING.search(name):
        col.add(E_VALUE, where, f"{kind} {name!r} may not hold ',', '|', '\"' or a control character")


def _entries(col, items, where, table, kind):
    """``(where, fields)`` of each entry of an id-keyed list that is an object
    with every required field read and an id not seen before; one whose id
    breaks a report cell is yielded too, so the fault is one issue."""
    required = [key for key, (_, default) in table.items() if default is _REQUIRED]
    seen = set()
    for i, raw in enumerate(items):
        at = f"{where}[{i}]"
        if not isinstance(raw, dict):
            col.add(E_TYPE, at, f"{kind} entry must be an object")
            continue
        f = _fields(col, raw, at, table)
        if any(f[key] is None for key in required):
            continue
        if f["id"] in seen:
            col.add(E_DUP, at, f"duplicate {kind} id {f['id']!r}")
            continue
        seen.add(f["id"])
        _check_name(col, f"{at}.id", f"{kind} id", f["id"])
        yield at, f


def _finite_number(v: Any) -> bool:
    """A JSON number that is neither a boolean nor NaN/Infinity."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


def load_scenario(path: str | Path) -> Scenario:
    """Load and fully validate a scenario file, reporting every problem found
    (not just the first) with stable error codes."""
    path = Path(path)
    col = _Collector()
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        col.add(E_IO, str(path), f"cannot read file: {exc}")
        col.raise_if_any()
    except UnicodeDecodeError as exc:
        col.add(E_PARSE, str(path), f"not UTF-8 text: {exc.reason} at byte {exc.start}")
        col.raise_if_any()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        col.add(E_PARSE, f"{path}:{exc.lineno}:{exc.colno}", exc.msg)
        col.raise_if_any()
    except RecursionError:
        col.add(E_PARSE, str(path), "arrays or objects nested too deeply")
        col.raise_if_any()
    except ValueError:  # int() refuses a literal past the interpreter's digit limit
        col.add(E_PARSE, str(path), f"integer literal longer than {sys.get_int_max_str_digits()} digits")
        col.raise_if_any()
    if not isinstance(raw, dict):
        col.add(E_PARSE, str(path), "top level must be an object")
        col.raise_if_any()
    scenario = parse_scenario(raw, col, default_name=path.stem)
    col.raise_if_any()
    return scenario


def parse_scenario(raw: Mapping[str, Any], col: _Collector | None = None,
                   default_name: str = "scenario") -> Scenario | None:
    own = col is None
    col = col or _Collector()
    top = _fields(col, raw, "scenario", _TOP)
    name = default_name if top["name"] is None else top["name"]
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):  # report files are named after it
        col.add(E_VALUE, "scenario.name", f"{name!r} is not a single path component")
    elif _CONTROL.search(name):  # ... and reports print it in headings
        col.add(E_VALUE, "scenario.name", f"{name!r} may not hold a control character")

    net = _parse_network(top["network"], col)
    gens = _parse_generators(top["generators"], net, col)
    regimes = _parse_regimes(top["regimes"], net, col)
    run = _parse_run(top["run"], gens, regimes, col)
    loads = _parse_loads(top["loads"], net, run, col)

    if own:
        col.raise_if_any()
    if col.issues or net is None:
        return None
    return Scenario(
        name=name, currency=top["currency"], metadata=dict(top["metadata"]), network=net,
        generators=tuple(gens or ()), loads=loads, regimes=regimes or {}, run=run,
    )


def _parse_network(raw, col) -> Network | None:
    """The network, or None when its section holds an issue; issues found
    elsewhere in the document do not stop it being built, so the references
    into it (generator buses, ``loads`` keys, monitoring profiles) are
    still checked.  Lines are checked against the declared bus ids and
    interface members against the declared line ids, so an entry rejected
    for its own figures is one issue, not one more per reference to it."""
    known = len(col.issues)
    if not isinstance(raw, dict) or not raw:
        col.add(E_SECTION, "network", "missing or empty network section")
        return None
    f = _fields(col, raw, "network", _NETWORK)
    zones = f["zones"]  # None when missing or not a list: one issue, not one more per bus
    for i, z in enumerate(zones or ()):
        if isinstance(z, str):
            _check_name(col, f"network.zones[{i}]", "zone", z)
        else:
            col.add(E_TYPE, f"network.zones[{i}]", f"expected a zone name, got {z!r}")
    names = {str(z) for z in zones or ()}  # a zone entry of another type is one issue, not one more per bus
    if not f["buses"]:
        col.add(E_SECTION, "network.buses", "at least one bus is required")

    buses: list[Bus] = []
    bus_ids = set()
    for where, b in _entries(col, f["buses"] or (), "network.buses", _BUS, "bus"):
        bus_ids.add(b["id"])
        if zones is not None and b["zone"] not in names:
            col.add(E_REF, where, f"bus {b['id']!r} references unknown zone {b['zone']!r}")
            continue
        try:
            buses.append(Bus(b["id"], b["zone"], b["load_mw"], b["wtp"]))
        except GridStructureError as exc:
            col.add(E_VALUE, where, str(exc))

    lines: list[Line] = []
    line_ids = set()
    for where, l in _entries(col, f["lines"] or (), "network.lines", _LINE, "line"):
        line_ids.add(l["id"])
        prof = l["monitored_in"]
        bad = [p for p in prof if not isinstance(p, str)]
        if bad:
            col.add(E_TYPE, f"{where}.monitored_in", f"expected profile names, got {bad[0]!r}")
            prof = ()
        missing = [b for b in (l["from"], l["to"]) if b not in bus_ids]
        if missing:
            col.add(E_REF, where, f"line {l['id']!r} references unknown bus(es) {missing}")
            continue
        try:
            lines.append(Line(l["id"], l["from"], l["to"], l["reactance"], l["limit_mw"],
                              frozenset(prof)))
        except GridStructureError as exc:
            col.add(E_VALUE, where, str(exc))

    interfaces: list[Interface] = []
    for where, iface in _entries(col, f["interfaces"], "network.interfaces", _INTERFACE, "interface"):
        members = {}  # line id -> direction
        for j, m in enumerate(iface["members"]):
            at = f"{where}.members[{j}]"
            if not isinstance(m, dict):
                col.add(E_TYPE, at, "member must be an object")
                continue
            m = _fields(col, m, at, _MEMBER)
            if m["line"] in members:
                col.add(E_DUP, at, f"duplicate member line {m['line']!r}")
            elif m["line"] in line_ids:
                members[m["line"]] = m["direction"]
            elif m["line"] is not None:
                col.add(E_REF, at, f"unknown line {m['line']!r}")
        if len(members) < len(iface["members"]):
            continue
        try:
            interfaces.append(Interface(iface["id"], tuple(members.items()), iface["ttc_mw"]))
        except GridStructureError as exc:
            col.add(E_VALUE, where, str(exc))

    if len(col.issues) > known:
        return None
    try:
        return Network(tuple(buses), tuple(lines), tuple(zones),
                       tuple(interfaces), f["slack_bus"])
    except GridStructureError as exc:
        col.add(E_TOPOLOGY, "network", str(exc))
        return None


def _parse_generators(raw, net: Network | None, col) -> list[GeneratorSpec] | None:
    if not isinstance(raw, list) or not raw:
        col.add(E_SECTION, "generators", "missing or empty generators section")
        return None
    bus_ids = {b.id for b in net.buses} if net else set()
    out: list[GeneratorSpec] = []
    for where, g in _entries(col, raw, "generators", _GENERATOR, "generator"):
        if net and g["bus"] not in bus_ids:
            col.add(E_REF, where, f"generator {g['id']!r} references unknown bus {g['bus']!r}")
            continue
        try:
            out.append(GeneratorSpec(*g.values()))  # _GENERATOR lists GeneratorSpec's fields in order
        except ValueError as exc:
            col.add(E_VALUE, where, str(exc))
    return out


def _parse_regimes(raw, net: Network | None, col) -> dict[str, ConstraintRegime]:
    out: dict[str, ConstraintRegime] = {}
    if raw is None:
        return out
    if not isinstance(raw, dict):
        col.add(E_TYPE, "regimes", "regimes must be an object")
        return out
    all_tags = set()
    if net:
        for l in net.lines:
            all_tags |= l.monitored_in
    for name, r in raw.items():
        where = f"regimes.{name}"
        if not isinstance(r, dict):
            col.add(E_TYPE, where, "regime must be an object")
            continue
        r = _fields(col, r, where, _REGIME)
        prof = r["monitored_profile"]
        if r["mode"] is None:
            continue
        if prof is not None and net is not None and prof not in all_tags:
            col.add(E_REGIME, where, f"monitored_profile {prof!r} matches no line")
            continue
        try:
            out[str(name)] = ConstraintRegime(**r)
        except ValueError as exc:
            col.add(E_REGIME, where, str(exc))
    return out


def _parse_run(raw, gens, regimes, col) -> RunSection:
    if raw is None:
        return RunSection()
    if not isinstance(raw, dict):
        col.add(E_TYPE, "run", "run must be an object")
        return RunSection()
    f = _fields(col, raw, "run", _RUN)
    for i, s in enumerate(f["schemes"]):
        if not isinstance(s, str) or s not in SCHEMES:
            col.add(E_RUN, "run.schemes", f"unknown scheme {s!r}; allowed: {tuple(SCHEMES)}")
        elif s in f["schemes"][:i]:
            col.add(E_RUN, "run.schemes", f"scheme {s!r} is repeated")
    horizon = f["horizon"]
    if not 1 <= horizon <= MAX_HORIZON_H:
        col.add(E_RUN, "run.horizon", f"horizon must be between 1 and {MAX_HORIZON_H} hours")
        horizon = 1
    specs = {g.id: g for g in gens or ()}
    forced: dict[str, tuple[float | None, float | None]] = {}
    for gid, bounds in f["forced_bounds"].items():
        where = f"run.forced_bounds.{gid}"
        if gens is not None and gid not in specs:
            col.add(E_REF, where, f"unknown generator {gid!r}")
            continue
        if not isinstance(bounds, dict):
            col.add(E_TYPE, where, "bounds must be an object with 'min'/'max'")
            continue
        bounds = _fields(col, bounds, where, _BOUNDS)
        pair = (bounds["min"], bounds["max"])
        if gid in specs:
            try:
                with_forced_bounds([specs[gid]], {gid: pair})
            except ValueError as exc:
                col.add(E_VALUE, where, str(exc))
                continue
        forced[gid] = pair
    deviation = None
    if f["bid_deviation"] is not None:
        d = _fields(col, f["bid_deviation"], "run.bid_deviation", _BID_DEVIATION)
        if d["scheme"] not in BID_SCHEMES:
            col.add(E_RUN, "run.bid_deviation.scheme",
                    f"unknown scheme {d['scheme']!r}; allowed: {BID_SCHEMES}")
        if d["generator"] is not None and gens is not None and d["generator"] not in specs:
            col.add(E_REF, "run.bid_deviation", f"unknown generator {d['generator']!r}")
        elif d["generator"] is not None and d["offered_ic"] is not None:
            try:  # the offer must make a valid unit, as its ``ic`` must
                if d["generator"] in specs:
                    replace(specs[d["generator"]], ic=d["offered_ic"])
                deviation = (d["generator"], d["offered_ic"], d["scheme"])
            except ValueError as exc:
                col.add(E_VALUE, "run.bid_deviation.offered_ic", str(exc))
    for label in ("dauc_regime", "ruc_regime"):
        if f[label] is not None and f[label] not in (regimes or {}):
            col.add(E_REF, f"run.{label}", f"unknown regime {f[label]!r}")
    return RunSection(
        schemes=tuple(f["schemes"]), horizon=horizon, forced_bounds=forced,
        bid_deviation=deviation, dauc_regime=f["dauc_regime"], ruc_regime=f["ruc_regime"],
    )


def _parse_loads(raw, net: Network | None, run: RunSection, col):
    if raw is None:
        return None
    if not isinstance(raw, dict):
        col.add(E_TYPE, "loads", "loads must be an object keyed by bus id")
        return None
    bus_ids = {b.id for b in net.buses} if net else set()
    horizon = run.horizon
    series: dict[str, tuple[float, ...]] = {}
    for bus, val in raw.items():
        where = f"loads.{bus}"
        if net and bus not in bus_ids:
            col.add(E_REF, where, f"unknown bus {bus!r}")
            continue
        if _finite_number(val):
            vals = (float(val),) * horizon
        elif isinstance(val, list) and all(_finite_number(v) for v in val):
            if len(val) != horizon:
                col.add(E_LOADS, where, f"expected {horizon} hourly values, got {len(val)}")
                continue
            vals = tuple(float(v) for v in val)
        else:
            col.add(E_TYPE, where, "load must be a finite number or list of finite numbers")
            continue
        if net:  # each hour's load must make a valid bus, as its load_mw must
            try:
                for v in dict.fromkeys(vals):
                    replace(net.bus(bus), load_mw=v)
            except GridStructureError as exc:
                col.add(E_VALUE, where, f"hour {vals.index(v)}: {exc}")
                continue
        series[bus] = vals
    return None if col.issues or net is None else series


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _doc(table, *values) -> dict[str, Any]:
    """An object with ``table``'s keys, in order, set to ``values``; a count
    that does not match the table raises."""
    return dict(zip(table, values, strict=True))


def dump_scenario(sc: Scenario) -> dict[str, Any]:
    """Scenario back to its JSON-compatible document form; loading the dump
    reproduces the object graph exactly."""
    net, run = sc.network, sc.run
    network = _doc(
        _NETWORK, net.slack_bus, list(net.zones),
        [_doc(_BUS, b.id, b.zone_id, b.load_mw, b.wtp) for b in net.buses],
        [_doc(_LINE, l.id, l.from_bus, l.to_bus, l.reactance, l.limit_mw, sorted(l.monitored_in))
         for l in net.lines],
        [_doc(_INTERFACE, i.id, [_doc(_MEMBER, *m) for m in i.member_lines], i.ttc_mw)
         for i in net.interfaces],
    )
    generators = [_doc(_GENERATOR, *astuple(g)) for g in sc.generators]
    loads = None if sc.loads is None else {bus: list(mw) for bus, mw in sc.loads.items()}
    regimes = {
        name: _doc(_REGIME, r.mode, r.monitored_profile, r.enforce_interfaces,
                   r.reserve_req_mw, r.min_sync_mw)
        for name, r in sc.regimes.items()
    }
    run_doc = _doc(
        _RUN, list(run.schemes), run.horizon,
        {gid: _doc(_BOUNDS, *pair) for gid, pair in run.forced_bounds.items()},
        _doc(_BID_DEVIATION, *run.bid_deviation) if run.bid_deviation else None,
        run.dauc_regime, run.ruc_regime,
    )
    return _doc(_TOP, sc.name, sc.currency, dict(sc.metadata), network, generators, loads, regimes,
                run_doc)


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeOutcome:
    scheme: str
    dispatch: DispatchResult
    prices: PriceReport
    settlement: SettlementReport | None
    deliverable_violated: bool  # physically undeliverable claim


def write_lines(path: str | Path, lines: Sequence[str], timestamp: str | None) -> Path:
    """Write one report file: its directory is created, and a ``timestamp``
    goes first as a generated-at comment in the file's own form (HTML for
    ``.md``, ``#`` otherwise)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if timestamp is not None:
        stamp = f"<!-- generated {timestamp} -->" if path.suffix == ".md" else f"# generated {timestamp}"
        lines = [stamp, *lines]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_report(
    name: str,
    net: Network,
    outcomes: Sequence[SchemeOutcome],
    out_dir: str | Path,
    fmt: str = "csv",
    timestamp: str | None = None,
) -> list[Path]:
    """Serialize completed scheme runs of ``net``.  ``fmt`` is ``csv`` (one
    file per scheme and report kind) or ``md`` (one markdown report file per
    scheme).  Output is deterministic: fixed column order, two-decimal
    numbers."""
    if not outcomes:
        raise ValueError("empty report set")
    if fmt not in ("csv", "md"):
        raise ValueError(f"unknown format {fmt!r}")
    out_dir = Path(out_dir)
    written: list[Path] = []
    for oc in outcomes:
        if fmt == "csv":
            written.extend(_write_scheme_csv(name, net, oc, out_dir, timestamp))
        else:
            written.append(_write_scheme_markdown(name, oc, out_dir, timestamp))
    return written


def _cell(v: str | float) -> str:
    return v if isinstance(v, str) else format_number(v)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str | float]],
              timestamp: str | None) -> Path:
    """Write one CSV report through ``write_lines``: the header, then one
    comma-joined line per row.  A ``str`` cell prints as it is and any other
    through ``format_number``, so a key such as the hour is passed as text."""
    lines = [",".join(header), *(",".join(map(_cell, row)) for row in rows)]
    return write_lines(path, lines, timestamp)


def md_table(header: Sequence[str], rows: Iterable[Sequence[str | float]]) -> list[str]:
    """The lines of one markdown table: the header, the ``|---|`` rule and one
    line per row, each cell printed as in ``write_csv``.  An empty header cell
    (a column of row labels) prints as ``| |``."""
    return [
        "|" + "".join(f" {h} |" if h else " |" for h in header),
        "|" + "---|" * len(header),
        *("| " + " | ".join(map(_cell, row)) + " |" for row in rows),
    ]


def _write_scheme_csv(name, net: Network, oc: SchemeOutcome, out_dir: Path, timestamp) -> list[Path]:
    r, prices = oc.dispatch, oc.prices
    stem = out_dir / f"{name}_{oc.scheme}"
    header = ("hour", "generator", "dispatch_mw", "flag")
    rows = [("0", gid, mw, r.gen_flags.get(gid, "")) for gid, mw in r.gen_mw.items()]
    paths = [write_csv(f"{stem}_dispatch.csv", header, rows, timestamp)]

    if prices.scheme == "nodal":
        header = ("hour", "key", "price", "energy", "congestion", "loss")
        rows = [(str(t), key, hour[key], c.energy, c.congestion, c.loss)
                for t, hour in enumerate(prices.prices)
                for key in hour for c in [prices.decomposition[t][key]]]
    else:
        header = ("hour", "key", "price")
        rows = [(str(t), key, hour[key]) for t, hour in enumerate(prices.prices) for key in sorted(hour)]
    paths.append(write_csv(f"{stem}_prices.csv", header, rows, timestamp))

    header = ("hour", "element", "kind", "flow_mw", "limit_mw", "violation")
    rows = [("0", line.id, "line", r.flows.flows_mw[line.id], line.limit_mw,
             "yes" if line.id in r.flows.violations else "no") for line in net.lines]
    rows += [("0", iid, "interface", flow, r.limits.get(f"iface+[{iid}]", math.nan), "no")
             for iid, flow in r.flows.interface_flows_mw.items()]
    paths.append(write_csv(f"{stem}_flows.csv", header, rows, timestamp))

    s = oc.settlement
    if s is not None:
        # a settlement holds no redispatch; its four columns (con_mwh to
        # coff_payment) stay, at 0.00, as dropping them moves every
        # recorded settlement report
        header = ("generator", "market_revenue", "as_cleared_cost", "uplift",
                  "con_mwh", "coff_mwh", "con_payment", "coff_payment")
        rows = [(gid, g.market_revenue, g.as_cleared_cost, g.uplift, 0.0, 0.0, 0.0, 0.0)
                for gid, g in s.per_generator.items()]
        paths.append(write_csv(f"{stem}_settlement.csv", header, rows, timestamp))

    rows = [] if s is None else [
        ("consumer_market_payment", s.consumer_market_payment),
        ("consumer_total_payment", s.consumer_total_payment),
        ("congestion_rent", s.congestion_rent),
        ("total_cost", s.total_cost),
        ("social_surplus", s.social_surplus),
    ]
    rows += [("violation", f'"{v}"') for v in r.violations]
    paths.append(write_csv(f"{stem}_summary.csv", ("metric", "value"), rows, timestamp))
    return paths


def _write_scheme_markdown(name, oc: SchemeOutcome, out_dir: Path, timestamp) -> Path:
    r, s = oc.dispatch, oc.settlement
    lines = [f"# {name} - {SCHEMES[oc.scheme].label}", ""]
    lines += md_table(("generator", "dispatch (MW)", "flag"),
                      [(gid, mw, r.gen_flags.get(gid, "")) for gid, mw in r.gen_mw.items()])
    rows = [(f"{key} (h{t})", hour[key]) for t, hour in enumerate(oc.prices.prices) for key in sorted(hour)]
    lines += ["", *md_table(("key", "price"), rows)]
    if s is not None:
        lines += ["", *md_table(("metric", "value"), [
            ("generator market revenue", s.total_market_revenue),
            ("uplift", s.total_uplift),
            ("consumer market payment", s.consumer_market_payment),
            ("consumer total payment", s.consumer_total_payment),
            ("congestion rent", s.congestion_rent),
            ("total cost", s.total_cost),
            ("social surplus", s.social_surplus),
        ])]
    if r.violations:
        lines += ["", "Violations:", ""]
        lines += [f"- {v}" for v in r.violations]
    return write_lines(out_dir / f"{name}_{oc.scheme}_report.md", lines, timestamp)


def _with_uplift(total: float, s: SettlementReport) -> str | float:
    """A money total, naming the uplift it includes when there is any."""
    if s.total_uplift > 0.005:
        return f"{format_number(total)} (incl. uplift {format_number(s.total_uplift)})"
    return total


def write_compare_markdown(
    name: str,
    outcomes: Sequence[SchemeOutcome],
    out_dir: str | Path,
    timestamp: str | None = None,
) -> Path:
    """One markdown comparison table: a column per scheme, rows for dispatch,
    price, revenue, payment, congestion rent and social surplus.  Schemes
    whose schedules violate physical limits show 'Not Available' money rows."""
    if not outcomes:
        raise ValueError("empty report set")

    def dispatch_cell(oc: SchemeOutcome) -> str:
        return "(" + ", ".join(map(format_number, oc.dispatch.gen_mw.values())) + ")"

    def price_cell(oc: SchemeOutcome) -> str | float:
        hour = oc.prices.prices[0]
        if not hour:
            return "-"
        if len(hour) == 1:
            return next(iter(hour.values()))
        return "(" + ", ".join(map(format_number, hour.values())) + ")"

    def money(cell: Callable[[SettlementReport], str | float]) -> Callable[[SchemeOutcome], str | float]:
        """A money row's cell function: ``cell`` of the scheme's settlement."""
        def money_cell(oc: SchemeOutcome) -> str | float:
            if oc.deliverable_violated:
                return "Not Available"
            return "-" if oc.settlement is None else cell(oc.settlement)
        return money_cell

    rows = [
        ("Generator dispatch (MW)", dispatch_cell),
        ("Market price", price_cell),
        ("Generator revenue", money(lambda s: _with_uplift(s.total_market_revenue + s.total_uplift, s))),
        ("Consumer payment", money(lambda s: _with_uplift(s.consumer_total_payment, s))),
        ("Congestion rent", money(lambda s: s.congestion_rent)),
        ("Social surplus", money(lambda s: s.social_surplus)),
    ]
    lines = [f"# {name}: market clearing comparison", ""]
    lines += md_table(["", *(SCHEMES[oc.scheme].label for oc in outcomes)],
                      [(label, *map(cell, outcomes)) for label, cell in rows])

    notes = []
    for oc in outcomes:
        for v in oc.dispatch.violations:
            notes.append(f"- {SCHEMES[oc.scheme].label}: {v}")
    if notes:
        lines += ["", "Notes:", ""] + notes
    return write_lines(Path(out_dir) / f"{name}_compare.md", lines, timestamp)
