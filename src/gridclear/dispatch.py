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

Demand is fixed; curtailment is allowed only as a last-resort slack priced at
the bus willingness to pay.  Infeasibility is a result state (``feasible``
flag plus a violation report), not an exception.

Equal-cost dispatch ties are resolved deterministically: the tied group's
total output is redistributed pro rata to nameplate capacity, then minimally
adjusted (at equal cost) to respect physical line limits when such an
adjustment exists.  This mirrors an operator choosing the security-preferred
split among cost-equivalent schedules.

All functions are pure; parallel evaluation over scenarios is safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Collection, Mapping, Sequence

import numpy as np

from gridclear.grid import Network, PtdfMatrix, build_ptdf
from gridclear import lp as lpmod

INF = math.inf

MW_TOL = 1e-6
PRICE_TOL = 1e-6
_DUAL_EPS = 1e-9


@dataclass(frozen=True)
class GeneratorSpec:
    """Dispatchable unit with assessed cost components.

    ``ic`` is the incremental cost (currency/MWh), ``nlc`` the no-load cost
    (currency/h), ``suc`` the start-up cost (currency/start).  ``forced_min``
    and ``forced_max`` are operator-imposed output bounds used for
    generator-side congestion management.
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

    def __post_init__(self):
        if not (0 <= self.p_min <= self.p_max):
            raise ValueError(f"generator {self.id}: need 0 <= p_min <= p_max")
        if min(self.ic, self.nlc, self.suc) < 0:
            raise ValueError(f"generator {self.id}: costs must be >= 0")
        for name, v in (("forced_min", self.forced_min), ("forced_max", self.forced_max)):
            if v is not None and not (0 <= v <= self.p_max):
                raise ValueError(f"generator {self.id}: {name} outside [0, p_max]")

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
        if self.reserve_req_mw < 0 or self.min_sync_mw < 0:
            raise ValueError("reserve_req_mw and min_sync_mw must be >= 0")


@dataclass(frozen=True)
class DispatchResult:
    mode: str
    gen_mw: dict[str, float]
    line_flow_mw: dict[str, float]
    line_limit_mw: dict[str, float]
    interface_flow_mw: dict[str, float]
    binding: tuple[tuple[str, float], ...]  # (constraint label, dual)
    balance_duals: dict[str, float]  # keyed by bus, zone, or "system"
    total_cost: float  # generation cost at incremental cost (no curtailment penalty)
    feasible: bool
    violations: tuple[str, ...]
    physical_violations: tuple[str, ...]  # line ids with |implied flow| > limit
    curtailment_mw: dict[str, float]  # by bus
    served_mw: dict[str, float]  # by bus
    gen_flags: dict[str, str]
    gen_local_dual: dict[str, float]
    gen_bus: dict[str, str]
    gen_zone: dict[str, str]
    bus_zone: dict[str, str]
    objective_value: float
    limits: dict[str, float]  # constraint row label -> right-hand side

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
    synchronous: Collection[str] | None = None,
) -> DispatchResult:
    """Cost-minimal dispatch of ``gens`` under ``regime``.

    ``loads`` overrides bus loads, ``committed`` takes units offline (every
    unit is on when omitted) and ``synchronous`` names the units counted
    towards ``regime.min_sync_mw`` (every unit when omitted).  An LP that has
    no optimum yields ``feasible=False`` with an ``lp_*`` violation.
    """
    gen_ids = [g.id for g in gens]
    if len(set(gen_ids)) != len(gen_ids):
        raise ValueError("duplicate generator ids")
    bus_ids = {b.id for b in net.buses}
    for g in gens:
        if g.bus_id not in bus_ids:
            raise ValueError(f"generator {g.id}: unknown bus {g.bus_id!r}")
    load_of = {b.id: (loads[b.id] if loads and b.id in loads else b.load_mw) for b in net.buses}
    is_on = {g.id: (committed.get(g.id, False) if committed is not None else True) for g in gens}
    sync = set(synchronous) if synchronous is not None else set(gen_ids)
    active = [g for g in gens if is_on[g.id]]

    builder = lpmod.LpBuilder()
    gvar = {g.id: builder.var(f"g[{g.id}]", *g.effective_bounds(), cost=g.ic) for g in active}
    cvar: dict[str, int] = {}
    for b in net.buses:
        if load_of[b.id] > 0:
            cvar[b.id] = builder.var(f"curt[{b.id}]", 0.0, load_of[b.id], cost=b.wtp)

    rhs_map: dict[str, float] = {}
    if regime.mode == "nodal":
        labels = _build_nodal(builder, net, active, gvar, cvar, load_of, regime, rhs_map)
    elif regime.mode == "zonal":
        labels = _build_zonal(builder, net, active, gvar, cvar, load_of, regime, rhs_map)
    else:
        labels = _build_copper(builder, net, active, gvar, cvar, load_of, rhs_map)
    _add_aggregates(builder, active, gvar, regime, sync, rhs_map)

    problem = builder.build()
    sol = lpmod.solve(problem)
    shared = dict(
        mode=regime.mode, line_limit_mw={l.id: l.limit_mw for l in net.lines},
        gen_bus={g.id: g.bus_id for g in gens}, gen_zone={g.id: net.zone_of(g.bus_id) for g in gens},
        bus_zone={b.id: b.zone_id for b in net.buses}, limits=rhs_map,
    )

    if sol.status != "optimal":
        return DispatchResult(
            gen_mw={g.id: 0.0 for g in gens},
            line_flow_mw={l.id: 0.0 for l in net.lines},
            interface_flow_mw={i.id: 0.0 for i in net.interfaces},
            binding=(), balance_duals={}, total_cost=0.0, feasible=False,
            violations=(f"lp_{sol.status}: no dispatch satisfies the enforced constraints",),
            physical_violations=(), curtailment_mw={}, served_mw={},
            gen_flags={g.id: ("offline" if not is_on[g.id] else "") for g in gens},
            gen_local_dual={}, objective_value=0.0, **shared,
        )

    gen_mw = {g.id: (sol.primal[f"g[{g.id}]"] if is_on[g.id] else 0.0) for g in gens}
    curtail = {b: sol.primal[f"curt[{b}]"] for b in cvar}

    ptdf = build_ptdf(net)
    gen_mw = _resolve_ties(net, ptdf, active, gen_mw, regime, load_of, curtail)

    served = {b.id: load_of[b.id] - curtail.get(b.id, 0.0) for b in net.buses}
    inj = {b.id: -served[b.id] for b in net.buses}
    for g in gens:
        inj[g.bus_id] = inj.get(g.bus_id, 0.0) + gen_mw[g.id]
    raw_flows = ptdf.matrix @ _vec(ptdf, inj)
    line_flows = {lid: float(raw_flows[i]) for i, lid in enumerate(ptdf.line_ids)}
    iface_flows = {
        itf.id: sum(sign * line_flows[lid] for lid, sign in itf.member_lines)
        for itf in net.interfaces
    }
    physical = tuple(
        l.id for l in net.lines if abs(line_flows[l.id]) > l.limit_mw + MW_TOL
    )

    balance_duals = {key: sol.duals[lab] for key, lab in labels.items()}
    total_served = sum(served.values())
    if total_served <= MW_TOL:
        balance_duals = {k: 0.0 for k in balance_duals}  # prices undefined at zero demand
    if regime.mode == "copper_plate":
        _apply_exhaustion_convention(balance_duals, gens, gen_mw, curtail)

    binding = tuple(
        (r.label, sol.duals[r.label])
        for r in problem.rows
        if not r.label.startswith(("balance", "zone", "system")) and abs(sol.duals[r.label]) > _DUAL_EPS
    )

    local_dual = {g.id: balance_duals.get(_location(net, regime, g.bus_id), 0.0) for g in gens}

    flags = _gen_flags(gens, gen_mw, local_dual, is_on)
    total_cost = sum(g.ic * gen_mw[g.id] for g in gens)
    total_curtail = sum(curtail.values())
    violations = []
    for b, mw in sorted(curtail.items()):
        if mw > MW_TOL:
            violations.append(f"curtailment[{b}]: {mw:.2f} MW unserved")
    for lid in physical:
        line = net.line(lid)
        violations.append(
            f"line_overload[{lid}]: flow {abs(line_flows[lid]):.2f} MW exceeds limit {line.limit_mw:.2f} MW"
        )
    feasible = total_curtail <= MW_TOL

    return DispatchResult(
        gen_mw=gen_mw, line_flow_mw=line_flows,
        interface_flow_mw=iface_flows, binding=binding, balance_duals=balance_duals,
        total_cost=total_cost, feasible=feasible, violations=tuple(violations),
        physical_violations=physical, curtailment_mw=curtail, served_mw=served,
        gen_flags=flags, gen_local_dual=local_dual,
        objective_value=sol.objective_value, **shared,
    )


def _location(net: Network, regime: ConstraintRegime, bus_id: str) -> str:
    """Key of the balance row that serves a bus: the bus, its zone or "system"."""
    if regime.mode == "nodal":
        return bus_id
    return net.zone_of(bus_id) if regime.mode == "zonal" else "system"


def _vec(ptdf: PtdfMatrix, injections: Mapping[str, float]) -> np.ndarray:
    vec = np.zeros(len(ptdf.bus_ids))
    for i, b in enumerate(ptdf.bus_ids):
        vec[i] = injections.get(b, 0.0)
    return vec


def _build_nodal(builder, net, gens, gvar, cvar, load_of, regime, rhs_map):
    tvar = {
        b.id: builder.var(f"theta[{b.id}]", -INF, INF, 0.0)
        for b in net.buses
        if b.id != net.slack_bus
    }

    def flow_terms(line, sign=1.0) -> dict[int, float]:
        y = sign / line.reactance
        terms: dict[int, float] = {}
        if line.from_bus in tvar:
            terms[tvar[line.from_bus]] = terms.get(tvar[line.from_bus], 0.0) + y
        if line.to_bus in tvar:
            terms[tvar[line.to_bus]] = terms.get(tvar[line.to_bus], 0.0) - y
        return terms

    labels: dict[str, str] = {}
    for b in net.buses:
        coeffs: dict[int, float] = {}
        for g in gens:
            if g.bus_id == b.id:
                coeffs[gvar[g.id]] = 1.0
        if b.id in cvar:
            coeffs[cvar[b.id]] = 1.0
        for line in net.lines:
            if line.from_bus == b.id:
                for j, v in flow_terms(line, -1.0).items():
                    coeffs[j] = coeffs.get(j, 0.0) + v
            elif line.to_bus == b.id:
                for j, v in flow_terms(line, +1.0).items():
                    coeffs[j] = coeffs.get(j, 0.0) + v
        label = f"balance[{b.id}]"
        builder.row(coeffs, "=", load_of[b.id], label)
        labels[b.id] = label

    monitored = net.lines if regime.monitored_profile is None else net.lines_monitored(regime.monitored_profile)
    for line in monitored:
        pos, neg = f"flow+[{line.id}]", f"flow-[{line.id}]"
        builder.row(flow_terms(line, +1.0), "<=", line.limit_mw, pos)
        builder.row(flow_terms(line, -1.0), "<=", line.limit_mw, neg)
        rhs_map[pos] = line.limit_mw
        rhs_map[neg] = line.limit_mw

    if regime.enforce_interfaces:
        for itf in net.interfaces:
            coeffs: dict[int, float] = {}
            for lid, sign in itf.member_lines:
                for j, v in flow_terms(net.line(lid), float(sign)).items():
                    coeffs[j] = coeffs.get(j, 0.0) + v
            pos, neg = f"iface+[{itf.id}]", f"iface-[{itf.id}]"
            builder.row(coeffs, "<=", itf.ttc_mw, pos)
            builder.row({j: -v for j, v in coeffs.items()}, "<=", itf.ttc_mw, neg)
            rhs_map[pos] = itf.ttc_mw
            rhs_map[neg] = itf.ttc_mw
    return labels


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


def _build_zonal(builder, net, gens, gvar, cvar, load_of, regime, rhs_map):
    arcs = []  # (interface, var index, from_zone, to_zone)
    for itf in net.interfaces:
        fz, tz = interface_zones(net, itf)
        if fz == tz:
            continue  # intra-zonal flowgate: no meaning in the transport model
        fv = builder.var(f"f[{itf.id}]", -INF, INF, 0.0)
        arcs.append((itf, fv, fz, tz))

    labels: dict[str, str] = {}
    for zone in net.zones:
        coeffs: dict[int, float] = {}
        for g in gens:
            if net.zone_of(g.bus_id) == zone:
                coeffs[gvar[g.id]] = 1.0
        zone_load = 0.0
        for b in net.buses_in_zone(zone):
            zone_load += load_of[b.id]
            if b.id in cvar:
                coeffs[cvar[b.id]] = 1.0
        for itf, fv, fz, tz in arcs:
            if fz == zone:
                coeffs[fv] = coeffs.get(fv, 0.0) - 1.0
            elif tz == zone:
                coeffs[fv] = coeffs.get(fv, 0.0) + 1.0
        label = f"zone[{zone}]"
        builder.row(coeffs, "=", zone_load, label)
        labels[zone] = label

    if regime.enforce_interfaces:
        for itf, fv, _, _ in arcs:
            pos, neg = f"iface+[{itf.id}]", f"iface-[{itf.id}]"
            builder.row({fv: 1.0}, "<=", itf.ttc_mw, pos)
            builder.row({fv: -1.0}, "<=", itf.ttc_mw, neg)
            rhs_map[pos] = itf.ttc_mw
            rhs_map[neg] = itf.ttc_mw
    return labels


def _build_copper(builder, net, gens, gvar, cvar, load_of, rhs_map):
    coeffs = {gvar[g.id]: 1.0 for g in gens}
    for b in cvar.values():
        coeffs[b] = 1.0
    total = sum(load_of.values())
    builder.row(coeffs, "=", total, "system")
    return {"system": "system"}


def _add_aggregates(builder, gens, gvar, regime, sync, rhs_map):
    if regime.reserve_req_mw > 0 and gens:
        cap = sum(g.effective_bounds()[1] for g in gens)
        builder.row({gvar[g.id]: 1.0 for g in gens}, "<=",
                    cap - regime.reserve_req_mw, "reserve")
        rhs_map["reserve"] = cap - regime.reserve_req_mw
    if regime.min_sync_mw > 0:
        coeffs = {gvar[g.id]: 1.0 for g in gens if g.id in sync}
        if coeffs:
            builder.row(coeffs, ">=", regime.min_sync_mw, "min_sync")
            rhs_map["min_sync"] = regime.min_sync_mw


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


def _gen_flags(gens, gen_mw, local_dual, is_on) -> dict[str, str]:
    flags: dict[str, str] = {}
    for g in gens:
        if not is_on[g.id]:
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

def _resolve_ties(net, ptdf, gens, gen_mw, regime, load_of, curtail) -> dict[str, float]:
    """Redistribute equal-cost groups pro rata to capacity; in zonal modes,
    project the redistribution back onto physical line-limit feasibility when
    an equal-cost feasible split exists."""
    groups: dict[tuple[str, float], list[GeneratorSpec]] = {}
    for g in gens:
        groups.setdefault((_location(net, regime, g.bus_id), g.ic), []).append(g)

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
        out = _project_to_physical(net, ptdf, gens, out, multi, load_of, curtail)
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


def _project_to_physical(net, ptdf, gens, gen_mw, multi, load_of, curtail):
    """L1-minimal equal-cost adjustment of tied groups onto physical line
    limits.  Keeps the pro-rata split when it is already feasible or when no
    equal-cost split is feasible."""
    inj = {b.id: -(load_of[b.id] - curtail.get(b.id, 0.0)) for b in net.buses}
    for g in gens:
        inj[g.bus_id] = inj.get(g.bus_id, 0.0) + gen_mw[g.id]
    flows = ptdf.matrix @ _vec(ptdf, inj)
    overloaded = any(
        abs(flows[i]) > net.line(lid).limit_mw + MW_TOL
        for i, lid in enumerate(ptdf.line_ids)
    )
    if not overloaded:
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
    base = ptdf.matrix @ _vec(ptdf, fixed_inj)
    for i, lid in enumerate(ptdf.line_ids):
        limit = net.line(lid).limit_mw
        coeffs_pos: dict[int, float] = {}
        for g in movers:
            sens = ptdf.sensitivity(lid, g.bus_id)
            if sens != 0.0:
                coeffs_pos[qv[g.id]] = sens
        if not coeffs_pos:
            continue
        builder.row(coeffs_pos, "<=", limit - float(base[i]), f"lim+[{lid}]")
        builder.row({j: -v for j, v in coeffs_pos.items()}, "<=",
                    limit + float(base[i]), f"lim-[{lid}]")

    sol = lpmod.solve(builder.build())
    if sol.status != "optimal":
        return gen_mw  # no equal-cost physically feasible split exists
    out = dict(gen_mw)
    for g in movers:
        out[g.id] = sol.primal[f"q[{g.id}]"]
    return out
