"""Scenario file schema, validation, loading, and report serialization.

A scenario is one JSON document (conventionally ``*.scn``) with named
sections::

    {
      "name": "...", "currency": "$/MWh",
      "metadata": {"season": "...", "time_of_day": "..."},
      "network": {
        "slack_bus": "...", "zones": [...],
        "buses":  [{"id", "zone", "load_mw", "wtp"}],
        "lines":  [{"id", "from", "to", "reactance", "limit_mw", "monitored_in"}],
        "interfaces": [{"id", "members": [{"line", "direction"}], "ttc_mw"}]
      },
      "generators": [{"id", "bus", "p_min", "p_max", "ic", "nlc", "suc",
                      "forced_min", "forced_max", "min_up_h", "min_down_h",
                      "initially_on", "initial_hours", "synchronous"}],
      "loads":  {"<bus>": <MW> | [<MW per hour>]},        # optional overrides
      "regimes": {"<name>": {"mode", "monitored_profile", "enforce_interfaces",
                              "reserve_req_mw", "min_sync_mw"}},
      "run": {"schemes": [...], "horizon": 1,
              "forced_bounds": {"<gen>": {"min": ..., "max": ...}},
              "bid_deviation": {"generator", "offered_ic", "scheme"},
              "dauc_regime": "...", "ruc_regime": "..."}
    }

Validation is total: every problem in the file is collected (each with a
stable error code) and reported at once; a malformed file never yields a
partially constructed scenario.  Loading a dumped scenario reproduces the
object graph exactly.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from gridclear.analysis import BID_SCHEMES
from gridclear.commitment import UcGenerator
from gridclear.dispatch import ConstraintRegime, DispatchResult, GeneratorSpec, with_forced_bounds
from gridclear.grid import Bus, GridStructureError, Interface, Line, Network
from gridclear.pricing import SCHEMES, PriceReport
from gridclear.settlement import SettlementReport

# stable validation error codes
E_IO = "E_IO"  # file missing / unreadable
E_PARSE = "E_PARSE"  # not UTF-8, not valid JSON, or JSON too deep or long to read
E_SECTION = "E_SECTION"  # missing or empty required section
E_TYPE = "E_TYPE"  # wrong type for a field
E_VALUE = "E_VALUE"  # value violates an invariant
E_DUP = "E_DUP"  # duplicate identifier
E_REF = "E_REF"  # unresolved id reference
E_TOPOLOGY = "E_TOPOLOGY"  # structural network problem
E_REGIME = "E_REGIME"  # bad constraint-regime block
E_RUN = "E_RUN"  # bad run section
E_LOADS = "E_LOADS"  # bad loads section

MAX_HORIZON_H = 8760  # one year of hours; per-hour loads are built for the whole horizon


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
    name: str
    currency: str
    metadata: dict[str, str]
    network: Network
    generators: tuple[UcGenerator, ...]
    loads: tuple[dict[str, float], ...] | None  # per-hour overrides, or None
    regimes: dict[str, ConstraintRegime]
    run: RunSection

    def specs(self) -> list[GeneratorSpec]:
        return [u.spec for u in self.generators]

    def synchronous_ids(self) -> set[str]:
        return {u.spec.id for u in self.generators if u.is_synchronous}

    def hourly_loads(self) -> list[dict[str, float] | None]:
        """Per-hour load mappings for the run horizon (None = network loads)."""
        if self.loads is None:
            return [None] * self.run.horizon
        return [dict(h) for h in self.loads]

    def regime(self, name: str) -> ConstraintRegime:
        return self.regimes[name]


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


_NUMBER = (int, float)


def _expect(col, raw, where, key, types, default=None, required=False):
    """The field's value if it has one of ``types``, else ``default``; a
    number field (``int`` or ``_NUMBER``) also rejects booleans, NaN and
    infinities."""
    if key not in raw or raw[key] is None:  # explicit null == absent
        if required:
            col.add(E_SECTION, where, f"missing required field {key!r}")
        return default
    val = raw[key]
    if not isinstance(val, types):
        col.add(E_TYPE, f"{where}.{key}", f"expected {types}, got {type(val).__name__}")
        return default
    if (types is int or types == _NUMBER) and not _finite_number(val):
        col.add(E_TYPE, f"{where}.{key}", f"expected a finite number, got {val!r}")
        return default
    return val


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
    name = _expect(col, raw, "scenario", "name", str, default=default_name)
    currency = _expect(col, raw, "scenario", "currency", str, default="")
    metadata = dict(_expect(col, raw, "scenario", "metadata", dict, default={}) or {})

    net = _parse_network(raw.get("network"), col)
    gens = _parse_generators(raw.get("generators"), net, col)
    regimes = _parse_regimes(raw.get("regimes"), net, col)
    run = _parse_run(raw.get("run"), gens, regimes, col)
    loads = _parse_loads(raw.get("loads"), net, run, col)

    if own:
        col.raise_if_any()
    if col.issues or net is None:
        return None
    return Scenario(
        name=name, currency=currency, metadata=metadata, network=net,
        generators=tuple(gens or ()), loads=loads, regimes=regimes or {}, run=run,
    )


def _parse_network(raw, col) -> Network | None:
    if not isinstance(raw, dict) or not raw:
        col.add(E_SECTION, "network", "missing or empty network section")
        return None
    buses_raw = _expect(col, raw, "network", "buses", list, default=[], required=True) or []
    lines_raw = _expect(col, raw, "network", "lines", list, default=[], required=True) or []
    zones = _expect(col, raw, "network", "zones", list, default=[], required=True) or []
    ifaces_raw = _expect(col, raw, "network", "interfaces", list, default=[]) or []
    slack = _expect(col, raw, "network", "slack_bus", str, required=True)
    if not buses_raw:
        col.add(E_SECTION, "network.buses", "at least one bus is required")

    buses: list[Bus] = []
    seen = set()
    for i, b in enumerate(buses_raw):
        where = f"network.buses[{i}]"
        if not isinstance(b, dict):
            col.add(E_TYPE, where, "bus entry must be an object")
            continue
        bid = _expect(col, b, where, "id", str, required=True)
        zone = _expect(col, b, where, "zone", str, required=True)
        load = _expect(col, b, where, "load_mw", _NUMBER, default=0.0)
        wtp = _expect(col, b, where, "wtp", _NUMBER, default=0.0)
        if bid is None or zone is None:
            continue
        if bid in seen:
            col.add(E_DUP, where, f"duplicate bus id {bid!r}")
            continue
        seen.add(bid)
        if zones and zone not in zones:
            col.add(E_REF, where, f"bus {bid!r} references unknown zone {zone!r}")
            continue
        try:
            buses.append(Bus(bid, zone, float(load), float(wtp)))
        except GridStructureError as exc:
            col.add(E_VALUE, where, str(exc))

    lines: list[Line] = []
    seen_l = set()
    bus_ids = {b.id for b in buses}
    for i, l in enumerate(lines_raw):
        where = f"network.lines[{i}]"
        if not isinstance(l, dict):
            col.add(E_TYPE, where, "line entry must be an object")
            continue
        lid = _expect(col, l, where, "id", str, required=True)
        fb = _expect(col, l, where, "from", str, required=True)
        tb = _expect(col, l, where, "to", str, required=True)
        x = _expect(col, l, where, "reactance", _NUMBER, required=True)
        lim = _expect(col, l, where, "limit_mw", _NUMBER, required=True)
        prof = _expect(col, l, where, "monitored_in", list, default=[]) or []
        bad = [p for p in prof if not isinstance(p, str)]
        if bad:
            col.add(E_TYPE, f"{where}.monitored_in", f"expected profile names, got {bad[0]!r}")
            prof = []
        if None in (lid, fb, tb, x, lim):
            continue
        if lid in seen_l:
            col.add(E_DUP, where, f"duplicate line id {lid!r}")
            continue
        seen_l.add(lid)
        missing = [b for b in (fb, tb) if b not in bus_ids]
        if missing:
            col.add(E_REF, where, f"line {lid!r} references unknown bus(es) {missing}")
            continue
        try:
            lines.append(Line(lid, fb, tb, float(x), float(lim), frozenset(prof)))
        except GridStructureError as exc:
            col.add(E_VALUE, where, str(exc))

    interfaces: list[Interface] = []
    seen_i = set()
    line_ids = {l.id for l in lines}
    for i, f in enumerate(ifaces_raw):
        where = f"network.interfaces[{i}]"
        if not isinstance(f, dict):
            col.add(E_TYPE, where, "interface entry must be an object")
            continue
        iid = _expect(col, f, where, "id", str, required=True)
        ttc = _expect(col, f, where, "ttc_mw", _NUMBER, required=True)
        members_raw = _expect(col, f, where, "members", list, default=[], required=True) or []
        if iid is None or ttc is None:
            continue
        if iid in seen_i:
            col.add(E_DUP, where, f"duplicate interface id {iid!r}")
            continue
        seen_i.add(iid)
        members = []
        ok = True
        for j, m in enumerate(members_raw):
            if not isinstance(m, dict):
                col.add(E_TYPE, f"{where}.members[{j}]", "member must be an object")
                ok = False
                continue
            mlid = _expect(col, m, f"{where}.members[{j}]", "line", str, required=True)
            mdir = _expect(col, m, f"{where}.members[{j}]", "direction", int, default=1)
            if mlid is None:
                ok = False
                continue
            if mlid not in line_ids:
                col.add(E_REF, f"{where}.members[{j}]", f"unknown line {mlid!r}")
                ok = False
                continue
            members.append((mlid, int(mdir)))
        if not ok:
            continue
        try:
            interfaces.append(Interface(iid, tuple(members), float(ttc)))
        except GridStructureError as exc:
            col.add(E_VALUE, where, str(exc))

    if col.issues:
        return None
    try:
        return Network(tuple(buses), tuple(lines), tuple(str(z) for z in zones),
                       tuple(interfaces), slack)
    except GridStructureError as exc:
        col.add(E_TOPOLOGY, "network", str(exc))
        return None


def _parse_generators(raw, net: Network | None, col) -> list[UcGenerator] | None:
    if not isinstance(raw, list) or not raw:
        col.add(E_SECTION, "generators", "missing or empty generators section")
        return None
    bus_ids = {b.id for b in net.buses} if net else set()
    out: list[UcGenerator] = []
    seen = set()
    for i, g in enumerate(raw):
        where = f"generators[{i}]"
        if not isinstance(g, dict):
            col.add(E_TYPE, where, "generator entry must be an object")
            continue
        gid = _expect(col, g, where, "id", str, required=True)
        bus = _expect(col, g, where, "bus", str, required=True)
        p_min = _expect(col, g, where, "p_min", _NUMBER, default=0.0)
        p_max = _expect(col, g, where, "p_max", _NUMBER, required=True)
        ic = _expect(col, g, where, "ic", _NUMBER, required=True)
        nlc = _expect(col, g, where, "nlc", _NUMBER, default=0.0)
        suc = _expect(col, g, where, "suc", _NUMBER, default=0.0)
        fmin = _expect(col, g, where, "forced_min", _NUMBER)
        fmax = _expect(col, g, where, "forced_max", _NUMBER)
        min_up = _expect(col, g, where, "min_up_h", int, default=1)
        min_down = _expect(col, g, where, "min_down_h", int, default=1)
        init_on = _expect(col, g, where, "initially_on", bool, default=False)
        init_h = _expect(col, g, where, "initial_hours", int, default=24)
        sync = _expect(col, g, where, "synchronous", bool, default=True)
        if None in (gid, bus, p_max, ic):
            continue
        if gid in seen:
            col.add(E_DUP, where, f"duplicate generator id {gid!r}")
            continue
        seen.add(gid)
        if net and bus not in bus_ids:
            col.add(E_REF, where, f"generator {gid!r} references unknown bus {bus!r}")
            continue
        try:
            spec = GeneratorSpec(
                gid, bus, float(p_min), float(p_max), float(ic), float(nlc), float(suc),
                forced_min=float(fmin) if fmin is not None else None,
                forced_max=float(fmax) if fmax is not None else None,
            )
            out.append(UcGenerator(spec, int(min_up), int(min_down),
                                   bool(init_on), int(init_h), bool(sync)))
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
        mode = _expect(col, r, where, "mode", str, required=True)
        prof = _expect(col, r, where, "monitored_profile", str)
        enforce = _expect(col, r, where, "enforce_interfaces", bool, default=True)
        reserve = _expect(col, r, where, "reserve_req_mw", _NUMBER, default=0.0)
        min_sync = _expect(col, r, where, "min_sync_mw", _NUMBER, default=0.0)
        if mode is None:
            continue
        if prof is not None and net is not None and prof not in all_tags:
            col.add(E_REGIME, where, f"monitored_profile {prof!r} matches no line")
            continue
        try:
            out[str(name)] = ConstraintRegime(
                mode=mode, monitored_profile=prof, enforce_interfaces=bool(enforce),
                reserve_req_mw=float(reserve), min_sync_mw=float(min_sync),
            )
        except ValueError as exc:
            col.add(E_REGIME, where, str(exc))
    return out


def _parse_run(raw, gens, regimes, col) -> RunSection:
    if raw is None:
        return RunSection()
    if not isinstance(raw, dict):
        col.add(E_TYPE, "run", "run must be an object")
        return RunSection()
    schemes = _expect(col, raw, "run", "schemes", list, default=[]) or []
    for s in schemes:
        if not isinstance(s, str) or s not in SCHEMES:
            col.add(E_RUN, "run.schemes", f"unknown scheme {s!r}; allowed: {tuple(SCHEMES)}")
    horizon = _expect(col, raw, "run", "horizon", int, default=1)
    if horizon is not None and not 1 <= horizon <= MAX_HORIZON_H:
        col.add(E_RUN, "run.horizon", f"horizon must be between 1 and {MAX_HORIZON_H} hours")
        horizon = 1
    specs = {u.spec.id: u.spec for u in gens or ()}
    fb_raw = _expect(col, raw, "run", "forced_bounds", dict, default={}) or {}
    forced: dict[str, tuple[float | None, float | None]] = {}
    for gid, bounds in fb_raw.items():
        where = f"run.forced_bounds.{gid}"
        if gens is not None and gid not in specs:
            col.add(E_REF, where, f"unknown generator {gid!r}")
            continue
        if not isinstance(bounds, dict):
            col.add(E_TYPE, where, "bounds must be an object with 'min'/'max'")
            continue
        bad = [k for k in ("min", "max") if bounds.get(k) is not None and not _finite_number(bounds[k])]
        for k in bad:
            col.add(E_TYPE, f"{where}.{k}", f"expected a finite number, got {bounds[k]!r}")
        if bad:
            continue
        pair = tuple(None if bounds.get(k) is None else float(bounds[k]) for k in ("min", "max"))
        if gid in specs:
            try:
                with_forced_bounds([specs[gid]], {gid: pair})
            except ValueError as exc:
                col.add(E_VALUE, where, str(exc))
                continue
        forced[gid] = pair
    dev_raw = _expect(col, raw, "run", "bid_deviation", dict, default=None)
    deviation = None
    if dev_raw is not None:
        dgen = _expect(col, dev_raw, "run.bid_deviation", "generator", str, required=True)
        dic = _expect(col, dev_raw, "run.bid_deviation", "offered_ic", _NUMBER, required=True)
        dscheme = _expect(col, dev_raw, "run.bid_deviation", "scheme", str, default="uniform")
        if dscheme not in BID_SCHEMES:
            col.add(E_RUN, "run.bid_deviation.scheme", f"unknown scheme {dscheme!r}; allowed: {BID_SCHEMES}")
        if dgen is not None and gens is not None and dgen not in specs:
            col.add(E_REF, "run.bid_deviation", f"unknown generator {dgen!r}")
        elif dgen is not None and dic is not None:
            deviation = (dgen, float(dic), dscheme)
    dauc = _expect(col, raw, "run", "dauc_regime", str, default=None)
    ruc = _expect(col, raw, "run", "ruc_regime", str, default=None)
    for label, rname in (("dauc_regime", dauc), ("ruc_regime", ruc)):
        if rname is not None and rname not in (regimes or {}):
            col.add(E_REF, f"run.{label}", f"unknown regime {rname!r}")
    return RunSection(
        schemes=tuple(schemes), horizon=int(horizon or 1), forced_bounds=forced,
        bid_deviation=deviation, dauc_regime=dauc, ruc_regime=ruc,
    )


def _parse_loads(raw, net: Network | None, run: RunSection, col):
    if raw is None:
        return None
    if not isinstance(raw, dict):
        col.add(E_TYPE, "loads", "loads must be an object keyed by bus id")
        return None
    bus_ids = {b.id for b in net.buses} if net else set()
    horizon = run.horizon
    series: dict[str, list[float]] = {}
    for bus, val in raw.items():
        where = f"loads.{bus}"
        if net and bus not in bus_ids:
            col.add(E_REF, where, f"unknown bus {bus!r}")
            continue
        if _finite_number(val):
            series[bus] = [float(val)] * horizon
        elif isinstance(val, list) and all(_finite_number(v) for v in val):
            if len(val) != horizon:
                col.add(E_LOADS, where, f"expected {horizon} hourly values, got {len(val)}")
                continue
            series[bus] = [float(v) for v in val]
        else:
            col.add(E_TYPE, where, "load must be a finite number or list of finite numbers")
    if col.issues or net is None:
        return None
    hours = []
    for t in range(horizon):
        hour = {b.id: b.load_mw for b in net.buses}
        for bus, vals in series.items():
            hour[bus] = vals[t]
        hours.append(hour)
    return tuple(hours)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def dump_scenario(sc: Scenario) -> dict[str, Any]:
    """Scenario back to its JSON-compatible document form; loading the dump
    reproduces the object graph exactly."""
    net = sc.network
    doc: dict[str, Any] = {
        "name": sc.name,
        "currency": sc.currency,
        "metadata": dict(sc.metadata),
        "network": {
            "slack_bus": net.slack_bus,
            "zones": list(net.zones),
            "buses": [
                {"id": b.id, "zone": b.zone_id, "load_mw": b.load_mw, "wtp": b.wtp}
                for b in net.buses
            ],
            "lines": [
                {
                    "id": l.id, "from": l.from_bus, "to": l.to_bus,
                    "reactance": l.reactance, "limit_mw": l.limit_mw,
                    "monitored_in": sorted(l.monitored_in),
                }
                for l in net.lines
            ],
            "interfaces": [
                {
                    "id": i.id,
                    "members": [{"line": lid, "direction": d} for lid, d in i.member_lines],
                    "ttc_mw": i.ttc_mw,
                }
                for i in net.interfaces
            ],
        },
        "generators": [
            {
                "id": u.spec.id, "bus": u.spec.bus_id,
                "p_min": u.spec.p_min, "p_max": u.spec.p_max,
                "ic": u.spec.ic, "nlc": u.spec.nlc, "suc": u.spec.suc,
                "forced_min": u.spec.forced_min, "forced_max": u.spec.forced_max,
                "min_up_h": u.min_up_h, "min_down_h": u.min_down_h,
                "initially_on": u.initially_on, "initial_hours": u.initial_hours,
                "synchronous": u.is_synchronous,
            }
            for u in sc.generators
        ],
        "regimes": {
            name: {
                "mode": r.mode, "monitored_profile": r.monitored_profile,
                "enforce_interfaces": r.enforce_interfaces,
                "reserve_req_mw": r.reserve_req_mw, "min_sync_mw": r.min_sync_mw,
            }
            for name, r in sc.regimes.items()
        },
        "run": {
            "schemes": list(sc.run.schemes),
            "horizon": sc.run.horizon,
            "forced_bounds": {
                gid: {"min": lo, "max": hi} for gid, (lo, hi) in sc.run.forced_bounds.items()
            },
            "bid_deviation": (
                {
                    "generator": sc.run.bid_deviation[0],
                    "offered_ic": sc.run.bid_deviation[1],
                    "scheme": sc.run.bid_deviation[2],
                }
                if sc.run.bid_deviation
                else None
            ),
            "dauc_regime": sc.run.dauc_regime,
            "ruc_regime": sc.run.ruc_regime,
        },
    }
    if sc.loads is not None:
        doc["loads"] = {
            b.id: [h[b.id] for h in sc.loads] for b in net.buses
        }
    return doc


def save_scenario(sc: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(dump_scenario(sc), indent=2, sort_keys=False) + "\n")


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


def _fmt(v: float) -> str:
    return f"{v:.2f}"


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
    file per scheme and report kind) or ``markdown`` (one report file per
    scheme).  Output is deterministic: fixed column order, two-decimal
    numbers."""
    if not outcomes:
        raise ValueError("empty report set")
    if fmt not in ("csv", "markdown", "md"):
        raise ValueError(f"unknown format {fmt!r}")
    out_dir = Path(out_dir)
    written: list[Path] = []
    for oc in outcomes:
        if fmt == "csv":
            written.extend(_write_scheme_csv(name, net, oc, out_dir, timestamp))
        else:
            written.append(_write_scheme_markdown(name, oc, out_dir, timestamp))
    return written


def _write_scheme_csv(name, net: Network, oc: SchemeOutcome, out_dir: Path, timestamp) -> list[Path]:
    r = oc.dispatch
    paths = []

    lines = ["hour,generator,dispatch_mw,flag"]
    for gid in r.gen_mw:
        lines.append(f"0,{gid},{_fmt(r.gen_mw[gid])},{r.gen_flags.get(gid, '')}")
    paths.append(write_lines(out_dir / f"{name}_{oc.scheme}_dispatch.csv", lines, timestamp))

    if oc.prices.scheme == "nodal":
        lines = ["hour,key,price,energy,congestion,loss"]
        for t, hour in enumerate(oc.prices.prices):
            comps = oc.prices.decomposition[t] if t < len(oc.prices.decomposition) else {}
            for key in hour:
                c = comps[key]
                lines.append(
                    f"{t},{key},{_fmt(hour[key])},{_fmt(c.energy)},{_fmt(c.congestion)},{_fmt(c.loss)}"
                )
    else:
        lines = ["hour,key,price"]
        for t, hour in enumerate(oc.prices.prices):
            for key in sorted(hour):
                lines.append(f"{t},{key},{_fmt(hour[key])}")
    paths.append(write_lines(out_dir / f"{name}_{oc.scheme}_prices.csv", lines, timestamp))

    lines = ["hour,element,kind,flow_mw,limit_mw,violation"]
    for line in net.lines:
        flag = "yes" if line.id in r.physical_violations else "no"
        lines.append(f"0,{line.id},line,{_fmt(r.line_flow_mw[line.id])},{_fmt(line.limit_mw)},{flag}")
    for iid, flow in r.interface_flow_mw.items():
        lim = r.limits.get(f"iface+[{iid}]", float("nan"))
        lines.append(f"0,{iid},interface,{_fmt(flow)},{_fmt(lim)},no")
    paths.append(write_lines(out_dir / f"{name}_{oc.scheme}_flows.csv", lines, timestamp))

    if oc.settlement is not None:
        s = oc.settlement
        lines = [
            "generator,market_revenue,as_cleared_cost,uplift,con_mwh,coff_mwh,con_payment,coff_payment"
        ]
        for gid in s.per_generator:
            g = s.per_generator[gid]
            lines.append(
                f"{gid},{_fmt(g.market_revenue)},{_fmt(g.as_cleared_cost)},{_fmt(g.uplift)},"
                f"{_fmt(g.con_mwh)},{_fmt(g.coff_mwh)},{_fmt(g.con_payment)},{_fmt(g.coff_payment)}"
            )
        paths.append(write_lines(out_dir / f"{name}_{oc.scheme}_settlement.csv", lines, timestamp))

    lines = ["metric,value"]
    if oc.settlement is not None:
        s = oc.settlement
        for metric, val in (
            ("consumer_market_payment", s.consumer_market_payment),
            ("consumer_total_payment", s.consumer_total_payment),
            ("congestion_rent", s.congestion_rent),
            ("total_cost", s.total_cost),
            ("social_surplus", s.social_surplus),
        ):
            lines.append(f"{metric},{_fmt(val)}")
    for v in r.violations:
        lines.append(f"violation,\"{v}\"")
    paths.append(write_lines(out_dir / f"{name}_{oc.scheme}_summary.csv", lines, timestamp))
    return paths


def _write_scheme_markdown(name, oc: SchemeOutcome, out_dir: Path, timestamp) -> Path:
    r = oc.dispatch
    lines = [f"# {name} - {SCHEMES[oc.scheme].label}", ""]
    lines += ["| generator | dispatch (MW) | flag |", "|---|---|---|"]
    for gid in r.gen_mw:
        lines.append(f"| {gid} | {_fmt(r.gen_mw[gid])} | {r.gen_flags.get(gid, '')} |")
    lines += ["", "| key | price |", "|---|---|"]
    for t, hour in enumerate(oc.prices.prices):
        for key in sorted(hour):
            lines.append(f"| {key} (h{t}) | {_fmt(hour[key])} |")
    if oc.settlement is not None:
        s = oc.settlement
        lines += ["", "| metric | value |", "|---|---|"]
        for metric, val in (
            ("generator market revenue", s.total_market_revenue),
            ("uplift", s.total_uplift),
            ("consumer market payment", s.consumer_market_payment),
            ("consumer total payment", s.consumer_total_payment),
            ("congestion rent", s.congestion_rent),
            ("total cost", s.total_cost),
            ("social surplus", s.social_surplus),
        ):
            lines.append(f"| {metric} | {_fmt(val)} |")
    if r.violations:
        lines += ["", "Violations:", ""]
        lines += [f"- {v}" for v in r.violations]
    return write_lines(out_dir / f"{name}_{oc.scheme}_report.md", lines, timestamp)


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
    lines = [f"# {name}: market clearing comparison", ""]
    headers = [SCHEMES[oc.scheme].label for oc in outcomes]
    lines.append("| | " + " | ".join(headers) + " |")
    lines.append("|---|" + "|".join("---" for _ in outcomes) + "|")

    def dispatch_cell(oc: SchemeOutcome) -> str:
        vals = [f"{_fmt(v)}" for v in oc.dispatch.gen_mw.values()]
        return "(" + ", ".join(vals) + ")"

    def price_cell(oc: SchemeOutcome) -> str:
        hour = oc.prices.prices[0]
        if not hour:
            return "-"
        if len(hour) == 1:
            return _fmt(next(iter(hour.values())))
        return "(" + ", ".join(_fmt(hour[k]) for k in hour) + ")"

    def money_cell(oc: SchemeOutcome, metric: str) -> str:
        if oc.deliverable_violated:
            return "Not Available"
        s = oc.settlement
        if s is None:
            return "-"
        if metric == "revenue":
            total = s.total_market_revenue + s.total_uplift
            if s.total_uplift > 0.005:
                return f"{_fmt(total)} (incl. uplift {_fmt(s.total_uplift)})"
            return _fmt(total)
        if metric == "payment":
            if s.total_uplift > 0.005:
                return f"{_fmt(s.consumer_total_payment)} (incl. uplift {_fmt(s.total_uplift)})"
            return _fmt(s.consumer_total_payment)
        if metric == "rent":
            return _fmt(s.congestion_rent)
        return _fmt(s.social_surplus)

    rows = [
        ("Generator dispatch (MW)", dispatch_cell),
        ("Market price", price_cell),
        ("Generator revenue", lambda oc: money_cell(oc, "revenue")),
        ("Consumer payment", lambda oc: money_cell(oc, "payment")),
        ("Congestion rent", lambda oc: money_cell(oc, "rent")),
        ("Social surplus", lambda oc: money_cell(oc, "surplus")),
    ]
    for label, cell in rows:
        lines.append(f"| {label} | " + " | ".join(cell(oc) for oc in outcomes) + " |")

    notes = []
    for oc in outcomes:
        for v in oc.dispatch.violations:
            notes.append(f"- {SCHEMES[oc.scheme].label}: {v}")
    if notes:
        lines += ["", "Notes:", ""] + notes
    return write_lines(Path(out_dir) / f"{name}_compare.md", lines, timestamp)
