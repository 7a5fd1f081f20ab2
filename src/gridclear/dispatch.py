"""Economic dispatch under selectable constraint regimes.

``clear(net, gens, regime)`` is the one clearing entry point; the regime's
``mode`` selects one of three network representations:

* ``nodal``          -- DC optimal power flow over monitored line limits and
                        (optionally) interface limits; bus balance duals are
                        locational marginal prices.
* ``zonal``          -- transport model between zones; only interface transfer
                        limits are enforced, intra-zonal line limits are
                        ignored; zone balance duals are zonal prices.  Results
                        are additionally annotated with the physically implied
                        line flows and any limit violations.
* ``copper_plate``   -- single-node merit order; one system balance dual.

``location(net, mode, bus_id)`` is the one rule for where a bus clears and
settles: the key of its balance row, dual and price (bus, zone or ``system``).

Demand is fixed; curtailment is allowed only as a last-resort slack priced at
the bus willingness to pay.  Infeasibility is a result state (``feasible``
flag plus a violation report), not an exception.

Equal-cost dispatch ties are resolved deterministically: the tied group's
total output is redistributed pro rata to nameplate capacity, then minimally
adjusted (at equal cost) to respect physical line limits when such an
adjustment exists.  This mirrors an operator choosing the security-preferred
split among cost-equivalent schedules.

``clear`` runs three stages, which unit commitment runs separately:
``build_template`` builds the checked LP of every unit and a curtailment
column per bus, ``ClearingTemplate.cut`` takes the LP of one hour's loads
(``bus_loads``) and committed set from it, array for array the one a direct
build gives, and ``finish`` turns the solved LP into a ``DispatchResult``.
The template is built in one pass by ``location``: each unit and curtailment column enters
its location's balance row, then each line's angle terms enter the rows of
both its ends (nodal), or each inter-zonal flow the rows of both its zones
(zonal).  The balance rows come first; every row after them is a limit.
The template records its limit rows (``gates``, ``arcs``) for the
commitment bound, which reads that record rather than the regime.

All functions are pure; parallel evaluation over scenarios is safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Container, Iterable, Mapping, Sequence

import numpy as np

from gridclear.grid import (
    MW_TOL, FlowSet, Line, Network, evaluate_flows, format_number, injection_vector, out_of_range,
)
from gridclear import lp as lpmod

INF = math.inf

PRICE_TOL = 1e-6
_DUAL_EPS = 1e-9


@dataclass(frozen=True)
class GeneratorSpec:
    """Dispatchable unit with assessed cost components and commitment data.

    ``ic`` is the incremental cost (currency/MWh), ``nlc`` the no-load cost
    (currency/h), ``suc`` the start-up cost (currency/start).  ``forced_min``
    and ``forced_max`` are operator-imposed output bounds used for
    generator-side congestion management.  ``min_up_h`` and ``min_down_h``
    are the unit's minimum up and down times, ``initially_on`` and
    ``initial_hours`` its state before the first hour (commitment reads
    them), and ``synchronous`` counts its output towards a regime's
    ``min_sync_mw``.
    """

    id: str
    bus_id: str
    p_min: float
    p_max: float
    ic: float
    nlc: float = 0.0
    suc: float = 0.0
    forced_min: float | None = None
    forced_max: float | None = None
    min_up_h: int = 1
    min_down_h: int = 1
    initially_on: bool = False
    initial_hours: int = 24  # hours already spent in the initial on/off state
    synchronous: bool = True

    def __post_init__(self):
        if bad := out_of_range({"p_min": self.p_min, "p_max": self.p_max, "ic": self.ic, "nlc": self.nlc,
                                "suc": self.suc, "forced_min": self.forced_min,
                                "forced_max": self.forced_max}):
            raise ValueError(f"generator {self.id}: {bad}")
        if not (0 <= self.p_min <= self.p_max):
            raise ValueError(f"generator {self.id}: need 0 <= p_min <= p_max")
        if min(self.ic, self.nlc, self.suc) < 0:
            raise ValueError(f"generator {self.id}: costs must be >= 0")
        for name, v in (("forced_min", self.forced_min), ("forced_max", self.forced_max)):
            if v is not None and not (0 <= v <= self.p_max):
                raise ValueError(f"generator {self.id}: {name} outside [0, p_max]")
        lo, hi = self.effective_bounds()
        if lo > hi:
            raise ValueError(f"generator {self.id}: forced bounds leave no output range "
                             f"(lower {lo:g} > upper {hi:g})")
        if self.min_up_h < 1 or self.min_down_h < 1:
            raise ValueError(f"unit {self.id}: min up/down must be >= 1 hour")
        if self.initial_hours < 0:
            raise ValueError(f"unit {self.id}: initial_hours must be >= 0")

    def effective_bounds(self) -> tuple[float, float]:
        lo = self.p_min if self.forced_min is None else max(self.p_min, self.forced_min)
        hi = self.p_max if self.forced_max is None else min(self.p_max, self.forced_max)
        return lo, hi


def with_forced_bounds(
    gens: Sequence[GeneratorSpec],
    bounds: Mapping[str, tuple[float | None, float | None]],
) -> list[GeneratorSpec]:
    """The specs with operator-imposed (min, max) output bounds applied.

    ``bounds`` maps generator id to (min, max); ``None`` keeps the spec's own
    forced bound.  Generators binding at a forced bound are flagged and
    excluded from the marginal set downstream.
    """
    out = []
    for g in gens:
        fmin, fmax = bounds.get(g.id, (None, None))
        out.append(replace(g, forced_min=g.forced_min if fmin is None else fmin,
                           forced_max=g.forced_max if fmax is None else fmax))
    return out


@dataclass(frozen=True)
class ConstraintRegime:
    """Which constraints a clearing pass enforces.

    ``monitored_profile`` selects the lines whose limits are enforced in nodal
    mode (lines tagged with the profile in ``Line.monitored_in``); ``None``
    monitors every line.  ``reserve_req_mw`` demands that much headroom below
    committed capacity; ``min_sync_mw`` keeps that much synchronous output
    online as a stability proxy.
    """

    mode: str  # "nodal" | "zonal" | "copper_plate"
    monitored_profile: str | None = None
    enforce_interfaces: bool = True
    reserve_req_mw: float = 0.0
    min_sync_mw: float = 0.0

    def __post_init__(self):
        if self.mode not in ("nodal", "zonal", "copper_plate"):
            raise ValueError(f"unknown regime mode {self.mode!r}")
        if bad := out_of_range({"reserve_req_mw": self.reserve_req_mw, "min_sync_mw": self.min_sync_mw}):
            raise ValueError(bad)
        if self.reserve_req_mw < 0 or self.min_sync_mw < 0:
            raise ValueError("reserve_req_mw and min_sync_mw must be >= 0")

    def monitored_lines(self, net: Network) -> tuple[Line, ...]:
        """The lines whose limits this regime enforces: none outside nodal
        mode, every line without a monitoring profile, else the tagged ones."""
        if self.mode != "nodal":
            return ()
        if self.monitored_profile is None:
            return net.lines
        return tuple(l for l in net.lines if self.monitored_profile in l.monitored_in)


@dataclass(frozen=True)
class DispatchResult:
    mode: str
    gen_mw: dict[str, float]
    flows: FlowSet  # physically implied flows of the dispatch, with overloaded lines
    binding: tuple[tuple[str, float], ...]  # (constraint label, dual)
    balance_duals: dict[str, float]  # keyed by bus, zone, or "system"
    total_cost: float  # generation cost at incremental cost (no curtailment penalty)
    feasible: bool
    violations: tuple[str, ...]
    served_mw: dict[str, float]  # by bus
    gen_flags: dict[str, str]
    objective_value: float
    limits: dict[str, float]  # constraint row label -> right-hand side

    @property
    def has_optimum(self) -> bool:
        """Whether the clearing LP reached an optimum.  Without one there is
        no dispatch and no price, and the only violation is ``lp_<status>``."""
        return not any(v.startswith("lp_") for v in self.violations)

    def transmission_rent(self) -> float:
        """Congestion rent from duals: sum over transmission rows of
        |multiplier| * limit."""
        rent = 0.0
        for label, dual in self.binding:
            if label.startswith(("flow", "iface")):
                rent += -dual * self.limits[label]
        return rent


# ---------------------------------------------------------------------------
# clearing
# ---------------------------------------------------------------------------

def clear(
    net: Network,
    gens: Sequence[GeneratorSpec],
    regime: ConstraintRegime,
    *,
    loads: Mapping[str, float] | None = None,
    committed: Mapping[str, bool] | None = None,
) -> DispatchResult:
    """Cost-minimal dispatch of ``gens`` under ``regime``.

    ``loads`` overrides bus loads and ``committed`` takes units offline (every
    unit is on when omitted); a key of either that names no bus or unit, a
    load that is NaN, negative or beyond ``grid.MAGNITUDE``, and an on/off
    flag other than 0, 1, ``False`` or ``True`` raise ``ValueError``.  The
    units flagged ``synchronous`` count towards ``regime.min_sync_mw``.  An LP that has no optimum yields
    ``feasible=False`` with an ``lp_*`` violation.
    """
    load = bus_loads(net, loads)
    check_flags("committed", committed or {}, {g.id for g in gens})
    case = build_template(net, gens, regime).cut(load, committed)
    return finish(case, lpmod.solve(case.lp))


@dataclass(frozen=True, eq=False)
class ClearingTemplate:
    """The clearing LP ``lp`` of every unit of ``gens``, with no load entered,
    checked as every built program is.  Its columns are the units, one
    curtailment column per bus in ``net.buses`` order, then the network's
    own; its rows are one balance row per location (bus, zone or
    ``system``), then the limit rows, with the reserve and ``min_sync`` rows
    last.  ``gates`` holds the ``(line_id, sign)`` members of each nodal
    flowgate's ``+``/``-`` row pair, in row order: each monitored line, one
    member ``(line_id, 1)``, then each enforced interface.  ``arcs`` holds
    the ``(from_zone, to_zone, ttc_mw)`` of each zonal flow column, in
    column order, with ``ttc_mw`` None when the flow has no limit rows."""

    net: Network
    gens: tuple[GeneratorSpec, ...]
    regime: ConstraintRegime
    lp: lpmod.LinearProgram
    gates: tuple[tuple[tuple[str, int], ...], ...]
    arcs: tuple[tuple[str, str, float | None], ...]
    balance: dict[str, int]  # bus, zone or "system" -> its balance row
    reserve_row: int | None
    sync_row: int | None

    def cut(self, load: np.ndarray, committed: Mapping[str, bool] | None = None) -> ClearingCase:
        """The LP of one hour's ``bus_loads`` and committed set: the columns
        of online units and of buses with load above 0, the reserve row if a
        unit is on, the ``min_sync`` row if a synchronous one is, and
        curtailment bounds and right-hand sides set from the loads and units."""
        net, gens, regime, full = self.net, self.gens, self.regime, self.lp
        on = [k for k, g in enumerate(gens) if committed is None or committed.get(g.id, False)]
        loaded = np.flatnonzero(load > 0).tolist()
        cols = on + [len(gens) + k for k in loaded] + list(
            range(len(gens) + len(net.buses), len(full.cost)))
        gvar = {gens[k].id: j for j, k in enumerate(on)}
        cvar = {net.buses[k].id: j for j, k in enumerate(loaded, len(on))}

        rhs = full.rhs.copy()
        for b, mw in zip(net.buses, load.tolist()):
            rhs[self.balance[location(net, regime.mode, b.id)]] += mw
        keep = len(rhs)  # rows kept: the aggregate rows come last, reserve first
        if self.sync_row is not None and not any(gens[k].synchronous for k in on):
            keep = self.sync_row
        if self.reserve_row is not None:
            if on:
                cap = sum(gens[k].effective_bounds()[1] for k in on)
                rhs[self.reserve_row] = cap - regime.reserve_req_mw
            else:
                keep = self.reserve_row

        at = np.array(cols, dtype=np.intp)
        upper = full.upper.take(at)
        upper[len(on):len(on) + len(loaded)] = load[loaded]
        lp = lpmod.LinearProgram(
            full.cost.take(at), full.lower.take(at), upper, full.A[:keep].take(at, axis=1),
            full.sense[:keep], rhs[:keep], tuple([full.var_names[j] for j in cols]),
            full.row_labels[:keep])
        return ClearingCase(self, lp, load, gvar, cvar)


@dataclass(frozen=True, eq=False)
class ClearingCase:
    """One hour's (loads, committed set) cut from a template: its LP and the
    columns of its units and curtailments.  Its balance rows keep the
    template's positions, as only rows after them are dropped."""

    template: ClearingTemplate
    lp: lpmod.LinearProgram
    load: np.ndarray  # each bus's load, in ``net.buses`` order (``bus_loads``)
    gvar: dict[str, int]  # online unit -> its column
    cvar: dict[str, int]  # loaded bus -> its curtailment column


def build_template(net: Network, gens: Sequence[GeneratorSpec],
                   regime: ConstraintRegime) -> ClearingTemplate:
    """The clearing template of ``gens`` on ``net`` under ``regime``; raises
    ``ValueError`` for duplicate unit ids or a unit at an unknown bus."""
    gen_ids = [g.id for g in gens]
    if len(set(gen_ids)) != len(gen_ids):
        raise ValueError("duplicate generator ids")
    for g in gens:
        if g.bus_id not in net.bus_index:
            raise ValueError(f"generator {g.id}: unknown bus {g.bus_id!r}")

    mode = regime.mode
    builder = lpmod.LpBuilder()
    keys = {"nodal": [b.id for b in net.buses], "zonal": net.zones}.get(mode, ["system"])
    rows: dict[str, dict[int, float]] = {key: {} for key in keys}  # location -> balance terms
    gvar = {g.id: builder.var(f"g[{g.id}]", *g.effective_bounds(), cost=g.ic) for g in gens}
    for g in gens:
        rows[location(net, mode, g.bus_id)][gvar[g.id]] = 1.0
    for b in net.buses:
        rows[location(net, mode, b.id)][builder.var(f"curt[{b.id}]", 0.0, 0.0, cost=b.wtp)] = 1.0

    limits = []  # (terms, right-hand side, label) of each row after the balance rows
    gates, arcs = [], []
    if mode == "nodal":
        tvar = {b.id: builder.var(f"theta[{b.id}]", -INF, INF, 0.0)
                for b in net.buses if b.id != net.slack_bus}
        for line in net.lines:  # the from -> to flow leaves its from bus and enters its to bus
            for j, v in _flow_terms(line, tvar).items():
                rows[line.from_bus][j] = rows[line.from_bus].get(j, 0.0) - v
                rows[line.to_bus][j] = rows[line.to_bus].get(j, 0.0) + v
        flowgates = [("flow", l.id, ((l.id, 1),), l.limit_mw) for l in regime.monitored_lines(net)]
        if regime.enforce_interfaces:
            flowgates += [("iface", i.id, i.member_lines, i.ttc_mw) for i in net.interfaces]
        for kind, gid, members, limit in flowgates:
            terms: dict[int, float] = {}
            for lid, sign in members:
                for j, v in _flow_terms(net.line(lid), tvar, float(sign)).items():
                    terms[j] = terms.get(j, 0.0) + v
            limits.append((terms, limit, f"{kind}+[{gid}]"))
            limits.append(({j: -v for j, v in terms.items()}, limit, f"{kind}-[{gid}]"))
            gates.append(members)
    elif mode == "zonal":
        for itf in net.interfaces:
            fz, tz = interface_zones(net, itf)
            if fz == tz:
                continue  # intra-zonal flowgate: no meaning in the transport model
            fv = builder.var(f"f[{itf.id}]", -INF, INF, 0.0)
            rows[fz][fv] = -1.0
            rows[tz][fv] = 1.0
            arcs.append((fz, tz, itf.ttc_mw if regime.enforce_interfaces else None))
            if regime.enforce_interfaces:
                limits.append(({fv: 1.0}, itf.ttc_mw, f"iface+[{itf.id}]"))
                limits.append(({fv: -1.0}, itf.ttc_mw, f"iface-[{itf.id}]"))

    label = {"nodal": "balance[{}]", "zonal": "zone[{}]"}.get(mode, "{}")
    balance = {key: builder.row(terms, "=", 0.0, label.format(key)) for key, terms in rows.items()}
    for terms, rhs, row_label in limits:
        builder.row(terms, "<=", rhs, row_label)
    reserve_row, sync_row = _add_aggregates(builder, gens, gvar, regime)
    return ClearingTemplate(net, tuple(gens), regime, builder.build(), tuple(gates),
                            tuple(arcs), balance, reserve_row, sync_row)


def finish(case: ClearingCase, sol: lpmod.LpSolution) -> DispatchResult:
    """The ``DispatchResult`` of a case whose LP was solved as ``sol``: tie
    resolution, physical flows, prices, flags and binding rows."""
    net, gens, regime = case.template.net, case.template.gens, case.template.regime
    problem, balance = case.lp, case.template.balance
    gvar, cvar = case.gvar, case.cvar
    active = [g for g in gens if g.id in gvar]
    limit_rows = range(len(balance), len(problem.row_labels))  # the balance rows come first
    limits = {problem.row_labels[i]: float(problem.rhs[i]) for i in limit_rows}

    if sol.status != "optimal":
        return DispatchResult(
            mode=regime.mode, gen_mw={g.id: 0.0 for g in gens},
            flows=FlowSet({l.id: 0.0 for l in net.lines}, {i.id: 0.0 for i in net.interfaces}, ()),
            binding=(), balance_duals={}, total_cost=0.0, feasible=False,
            violations=(f"lp_{sol.status}: no dispatch satisfies the enforced constraints",),
            served_mw={},
            gen_flags={g.id: ("" if g.id in gvar else "offline") for g in gens},
            objective_value=0.0, limits=limits,
        )

    gen_mw = {g.id: (sol.primal[gvar[g.id]] if g.id in gvar else 0.0) for g in gens}
    curtail = {b: sol.primal[j] for b, j in cvar.items()}
    served = {b.id: mw - curtail.get(b.id, 0.0) for b, mw in zip(net.buses, case.load.tolist())}

    gen_mw = _resolve_ties(net, active, gen_mw, regime, served)
    flows = evaluate_flows(net, _injections(net, gens, gen_mw, served))

    balance_duals = {key: sol.duals[i] for key, i in balance.items()}
    total_served = sum(served.values())
    if total_served <= MW_TOL:
        balance_duals = {k: 0.0 for k in balance_duals}  # prices undefined at zero demand
    if regime.mode == "copper_plate":
        _apply_exhaustion_convention(balance_duals, gens, gen_mw, curtail)

    binding = tuple((problem.row_labels[i], sol.duals[i]) for i in limit_rows
                    if abs(sol.duals[i]) > _DUAL_EPS)

    local_dual = {g.id: balance_duals.get(location(net, regime.mode, g.bus_id), 0.0) for g in gens}
    flags = _gen_flags(gens, gen_mw, local_dual, gvar)
    total_cost = sum(g.ic * gen_mw[g.id] for g in gens)
    total_curtail = sum(curtail.values())
    violations = []
    for b, mw in sorted(curtail.items()):
        if mw > MW_TOL:
            violations.append(f"curtailment[{b}]: {format_number(mw)} MW unserved")
    for lid in flows.violations:
        violations.append(
            f"line_overload[{lid}]: flow {format_number(abs(flows.flows_mw[lid]))} MW "
            f"exceeds limit {format_number(net.line(lid).limit_mw)} MW"
        )
    feasible = total_curtail <= MW_TOL

    return DispatchResult(
        mode=regime.mode, gen_mw=gen_mw, flows=flows, binding=binding, balance_duals=balance_duals,
        total_cost=total_cost, feasible=feasible, violations=tuple(violations),
        served_mw=served, gen_flags=flags,
        objective_value=sol.objective_value, limits=limits,
    )


def location(net: Network, mode: str, bus_id: str) -> str:
    """Where a bus clears and settles: the key of its balance row and of its
    price.  The bus itself under ``nodal``, its zone under ``zonal``, and
    ``system`` under any other mode or price kind, as a uniform price is one
    system price whatever regime cleared it."""
    if mode == "nodal":
        return bus_id
    return net.zone_of(bus_id) if mode == "zonal" else "system"


def check_keys(name: str, keys: Iterable[str], known: Container[str], kind: str) -> None:
    """Raise ``ValueError`` naming each key of the id-keyed map ``name`` that
    names no known ``kind``: such a key would otherwise be ignored."""
    unknown = [k for k in keys if k not in known]
    if unknown:
        raise ValueError(f"{name}: unknown {kind} id(s) {unknown}")


def check_flags(name: str, flags: Mapping[str, object], units: Container[str],
                horizon: int | None = None) -> None:
    """``check_keys`` for units, then a ``ValueError`` naming the first unit
    whose on/off flags are not 0, 1, ``False`` or ``True``: one flag per
    unit, or with ``horizon`` a sequence of at most that many per unit."""
    check_keys(name, flags, units, "unit")
    for unit, value in flags.items():
        seq, most = ((value,), 1) if horizon is None else (value, horizon)
        if not (isinstance(seq, Sequence) and len(seq) <= most and all(s in (0, 1) for s in seq)):
            raise ValueError(f"{name}: unit {unit}: {value!r} is not "
                             + ("0 or 1" if horizon is None else f"at most {horizon} flags of 0 or 1"))


def bus_loads(net: Network, loads: Mapping[str, float] | None, name: str = "loads") -> np.ndarray:
    """Each bus's load for one hour, in ``net.buses`` order, as a read-only
    array: its override in ``loads``, else its ``load_mw``.  ``check_keys``
    for the overrides, then a ``ValueError`` naming the first bus whose load is
    NaN, negative or beyond ``MAGNITUDE``: the ``Bus`` rule without its ``wtp`` clause."""
    loads = loads or {}
    check_keys(name, loads, net.bus_index, "bus")
    if bad := out_of_range({f"bus {b} load": mw for b, mw in loads.items()}, 0.0):
        raise ValueError(f"{name}: {bad}")
    load = np.array([loads.get(b.id, b.load_mw) for b in net.buses], dtype=float)
    load.flags.writeable = False
    return load


def _injections(net: Network, gens, gen_mw, served) -> dict[str, float]:
    """Net injection per bus: output of ``gens`` minus served load."""
    inj = {b.id: -served[b.id] for b in net.buses}
    for g in gens:
        inj[g.bus_id] += gen_mw[g.id]
    return inj


def _flow_terms(line: Line, tvar: Mapping[str, int], sign: float = 1.0) -> dict[int, float]:
    """``sign`` times the line's from -> to flow, as terms in the angle
    columns ``tvar`` of its end buses (the slack bus has none)."""
    y = sign / line.reactance
    terms: dict[int, float] = {}
    if line.from_bus in tvar:
        terms[tvar[line.from_bus]] = y
    if line.to_bus in tvar:
        terms[tvar[line.to_bus]] = -y
    return terms


def interface_zones(net: Network, itf) -> tuple[str, str]:
    """The (from_zone, to_zone) pair an interface connects; positive interface
    flow moves energy from_zone -> to_zone.  All members must agree."""
    pairs = set()
    for lid, sign in itf.member_lines:
        line = net.line(lid)
        a, b = net.zone_of(line.from_bus), net.zone_of(line.to_bus)
        pairs.add((a, b) if sign > 0 else (b, a))
    if len(pairs) != 1:
        raise ValueError(f"interface {itf.id}: member lines span inconsistent zone pairs {sorted(pairs)}")
    return pairs.pop()


def _add_aggregates(builder, gens, gvar, regime):
    """The reserve and ``min_sync`` rows, returned as their positions (None
    when absent).  ``cut`` sets the reserve row's right-hand side."""
    reserve = sync = None
    if regime.reserve_req_mw > 0 and gens:
        reserve = builder.row({gvar[g.id]: 1.0 for g in gens}, "<=", 0.0, "reserve")
    if regime.min_sync_mw > 0:
        coeffs = {gvar[g.id]: 1.0 for g in gens if g.synchronous}
        if coeffs:
            sync = builder.row(coeffs, ">=", regime.min_sync_mw, "min_sync")
    return reserve, sync


def _apply_exhaustion_convention(balance_duals, gens, gen_mw, curtail):
    """At exact stack exhaustion (every dispatched unit at capacity, nothing
    curtailed) report the left marginal price -- the highest incremental cost
    among dispatched units -- instead of the scarcity-side dual."""
    if sum(curtail.values()) > MW_TOL:
        return
    dispatched = [g for g in gens if gen_mw[g.id] > MW_TOL]
    if not dispatched:
        return
    if all(gen_mw[g.id] >= g.effective_bounds()[1] - MW_TOL for g in dispatched):
        cap_price = max(g.ic for g in dispatched)
        for key, val in balance_duals.items():
            if val > cap_price + PRICE_TOL:
                balance_duals[key] = cap_price


def _gen_flags(gens, gen_mw, local_dual, gvar) -> dict[str, str]:
    flags: dict[str, str] = {}
    for g in gens:
        if g.id not in gvar:
            flags[g.id] = "offline"
            continue
        q = gen_mw[g.id]
        lo, hi = g.effective_bounds()
        lam = local_dual.get(g.id, 0.0)
        if q >= hi - MW_TOL:
            forced = g.forced_max is not None and g.forced_max < g.p_max - MW_TOL
            flags[g.id] = "at_forced_max" if forced else "at_capacity"
        elif lo > MW_TOL and q <= lo + MW_TOL:
            forced = g.forced_min is not None and g.forced_min > g.p_min + MW_TOL
            flags[g.id] = "at_forced_min" if forced else "at_pmin"
        elif q > MW_TOL and g.ic > lam + PRICE_TOL:
            flags[g.id] = "stability_bound"
        elif q > MW_TOL and g.ic < lam - PRICE_TOL:
            flags[g.id] = "reserve_bound"
        else:
            flags[g.id] = ""
    return flags


# ---------------------------------------------------------------------------
# deterministic tie resolution
# ---------------------------------------------------------------------------

def _resolve_ties(net, gens, gen_mw, regime, served) -> dict[str, float]:
    """Redistribute equal-cost groups pro rata to capacity; in zonal modes,
    project the redistribution back onto physical line-limit feasibility when
    an equal-cost feasible split exists."""
    groups: dict[tuple[str, float], list[GeneratorSpec]] = {}
    for g in gens:
        groups.setdefault((location(net, regime.mode, g.bus_id), g.ic), []).append(g)

    multi = {key: members for key, members in groups.items() if len(members) > 1}
    if not multi:
        return gen_mw

    out = dict(gen_mw)
    for members in multi.values():
        total = sum(gen_mw[g.id] for g in members)
        lows = [g.effective_bounds()[0] for g in members]
        highs = [g.effective_bounds()[1] for g in members]
        weights = [g.p_max for g in members]
        targets = _water_fill(total, lows, highs, weights)
        for g, t in zip(members, targets):
            out[g.id] = t

    if regime.mode == "zonal":
        out = _project_to_physical(net, gens, out, multi, served)
    return out


def _water_fill(total, lows, highs, weights):
    """Split ``total`` across members proportionally to ``weights``, starting
    from the lower bounds and clamping at the upper bounds."""
    n = len(lows)
    t = list(lows)
    rem = total - sum(lows)
    active = list(range(n))
    while rem > 1e-12 and active:
        wsum = sum(weights[i] for i in active)
        if wsum <= 0:
            shares = {i: rem / len(active) for i in active}
        else:
            shares = {i: rem * weights[i] / wsum for i in active}
        overflow = 0.0
        still = []
        for i in active:
            room = highs[i] - t[i]
            if shares[i] >= room - 1e-12:
                t[i] = highs[i]
                overflow += shares[i] - room
            else:
                t[i] += shares[i]
                still.append(i)
        if len(still) == len(active):
            break  # everything fit
        active = still
        rem = overflow
    return t


def _project_to_physical(net, gens, gen_mw, multi, served):
    """L1-minimal equal-cost adjustment of tied groups onto physical line
    limits.  Keeps the pro-rata split when it is already feasible or when no
    equal-cost split is feasible."""
    inj = _injections(net, gens, gen_mw, served)
    if not evaluate_flows(net, inj).violations:
        return gen_mw

    movers = [g for members in multi.values() for g in members]
    fixed_inj = dict(inj)
    for g in movers:
        fixed_inj[g.bus_id] -= gen_mw[g.id]

    builder = lpmod.LpBuilder()
    qv, dp, dm = {}, {}, {}
    for g in movers:
        lo, hi = g.effective_bounds()
        qv[g.id] = builder.var(f"q[{g.id}]", lo, hi, 0.0)
        dp[g.id] = builder.var(f"dp[{g.id}]", 0.0, INF, 1.0)
        dm[g.id] = builder.var(f"dm[{g.id}]", 0.0, INF, 1.0)
        builder.row({qv[g.id]: 1.0, dp[g.id]: -1.0, dm[g.id]: 1.0}, "=",
                    gen_mw[g.id], f"target[{g.id}]")
    for (loc, ic), members in multi.items():
        builder.row({qv[g.id]: 1.0 for g in members}, "=",
                    sum(gen_mw[g.id] for g in members), f"group[{loc}|{ic:g}]")
    base = net.ptdf @ injection_vector(net, fixed_inj)  # unbalanced: movers removed
    columns = net.ptdf[:, [net.bus_index[g.bus_id] for g in movers]]
    for line, sens, flow in zip(net.lines, columns.tolist(), base.tolist()):
        coeffs_pos = {qv[g.id]: v for g, v in zip(movers, sens) if v != 0.0}
        if not coeffs_pos:
            continue
        builder.row(coeffs_pos, "<=", line.limit_mw - flow, f"lim+[{line.id}]")
        builder.row({j: -v for j, v in coeffs_pos.items()}, "<=",
                    line.limit_mw + flow, f"lim-[{line.id}]")

    sol = lpmod.solve(builder.build())
    if sol.status != "optimal":
        return gen_mw  # no equal-cost physically feasible split exists
    out = dict(gen_mw)
    for g in movers:
        out[g.id] = sol.primal[qv[g.id]]
    return out
