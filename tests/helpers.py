"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the package's own machinery: DC flows are
recomputed from a reduced susceptance solve, single-node dispatch by a direct
merit-order fill, and commitment by naive enumeration of full on/off matrices.
``reference_solve_uc`` is the commitment search as a one-candidate-at-a-time
scan, the rule ``solve_uc`` must reproduce choice for choice.
``reference_clearing_lp`` builds the clearing LP of one (loads, committed set)
directly with ``LpBuilder``; the LP ``clear`` cuts from its template must equal
it array for array and name for name.
``reference_solve`` is the simplex as a column-by-column, row-by-row loop that
re-solves the basis for every quantity it reads; ``lp.solve`` must reproduce
its pivots and its solution bit for bit.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import replace

import numpy as np

from gridclear.grid import Bus, Interface, Line, Network
from gridclear.dispatch import (
    ConstraintRegime, GeneratorSpec, build_template, bus_loads, clear, interface_zones,
)
from gridclear.commitment import UcInfeasibleError, _assemble_schedule, _price_terms
from gridclear.lp import (
    FEAS_TOL, INF, MAX_ITERATIONS, OPT_TOL, PIVOT_TOL, LinearProgram, LpBuilder,
    LpNumericalError, LpSolution, solve,
)


# ---------------------------------------------------------------------------
# canonical fixtures
# ---------------------------------------------------------------------------

def make_fourbus(ttc: float = 500.0, p4_max: float = 600.0):
    """Two-zone meshed system: equal-reactance triangle feeding a radial load
    bus; the 150 MW line binds under nodal clearing."""
    buses = (
        Bus("b1", "Z1"), Bus("b2", "Z1"), Bus("b3", "Z1"),
        Bus("b4", "Z2", load_mw=800.0, wtp=100.0),
    )
    lines = (
        Line("l12", "b1", "b2", 0.1, 500.0, frozenset({"nodal"})),
        Line("l13", "b1", "b3", 0.1, 150.0, frozenset({"nodal"})),
        Line("l23", "b2", "b3", 0.1, 500.0, frozenset({"nodal"})),
        Line("l34", "b3", "b4", 0.05, 500.0, frozenset({"nodal"})),
    )
    net = Network(buses, lines, ("Z1", "Z2"),
                  (Interface("tie", (("l34", 1),), ttc),), "b4")
    gens = [
        GeneratorSpec("P1", "b1", 0.0, 200.0, 10.0),
        GeneratorSpec("P2", "b2", 0.0, 100.0, 10.0),
        GeneratorSpec("P3", "b3", 0.0, 800.0, 40.0),
        GeneratorSpec("P4", "b4", 0.0, p4_max, 50.0),
    ]
    return net, gens


def make_twobus():
    """Export-constrained two-area system: cheap area A (880 MW, 500 MW load),
    expensive area B (420 MW, 500 MW load), 100 MW interface."""
    buses = (
        Bus("a", "ZA", load_mw=500.0, wtp=150.0),
        Bus("b", "ZB", load_mw=500.0, wtp=150.0),
    )
    lines = (Line("lab", "a", "b", 0.1, 100.0, frozenset({"nodal"})),)
    net = Network(buses, lines, ("ZA", "ZB"),
                  (Interface("tie", (("lab", 1),), 100.0),), "b")
    gens = [
        GeneratorSpec("A1", "a", 0.0, 450.0, 50.0),
        GeneratorSpec("A2", "a", 0.0, 200.0, 75.0),
        GeneratorSpec("A3", "a", 0.0, 180.0, 90.0),
        GeneratorSpec("A4", "a", 0.0, 50.0, 95.0),
        GeneratorSpec("B1", "b", 0.0, 300.0, 80.0),
        GeneratorSpec("B2", "b", 0.0, 120.0, 100.0),
    ]
    return net, gens


def make_triangle():
    buses = (Bus("n1", "Z"), Bus("n2", "Z"), Bus("n3", "Z", load_mw=0.0))
    lines = (
        Line("a12", "n1", "n2", 0.2, 100.0),
        Line("a13", "n1", "n3", 0.2, 100.0),
        Line("a23", "n2", "n3", 0.2, 100.0),
    )
    return Network(buses, lines, ("Z",), (), "n1")


# ---------------------------------------------------------------------------
# independent DC flow oracle (reduced susceptance solve)
# ---------------------------------------------------------------------------

def reference_ptdf(net: Network) -> np.ndarray:
    """The PTDF matrix as a per-line loop over the padded inverse of the
    reduced susceptance matrix; ``build_ptdf`` must reproduce it bit for bit."""
    bus_ids = tuple(b.id for b in net.buses)
    idx = {b: i for i, b in enumerate(bus_ids)}
    n = len(bus_ids)
    slack = idx[net.slack_bus]

    b_mat = np.zeros((n, n))
    for l in net.lines:
        y = 1.0 / l.reactance
        f, t = idx[l.from_bus], idx[l.to_bus]
        b_mat[f, f] += y
        b_mat[t, t] += y
        b_mat[f, t] -= y
        b_mat[t, f] -= y

    keep = [i for i in range(n) if i != slack]
    b_red = b_mat[np.ix_(keep, keep)]
    x_red = np.linalg.solve(b_red, np.eye(n - 1)) if n > 1 else np.zeros((0, 0))
    x_full = np.zeros((n, n))
    for a, ia in enumerate(keep):
        for b, ib in enumerate(keep):
            x_full[ia, ib] = x_red[a, b]

    mat = np.zeros((len(net.lines), n))
    for li, l in enumerate(net.lines):
        y = 1.0 / l.reactance
        f, t = idx[l.from_bus], idx[l.to_bus]
        mat[li, :] = y * (x_full[f, :] - x_full[t, :])
    mat[:, slack] = 0.0
    return mat


def btheta_flows(net: Network, injections: dict[str, float]) -> dict[str, float]:
    bus_ids = [b.id for b in net.buses]
    idx = {b: i for i, b in enumerate(bus_ids)}
    n = len(bus_ids)
    b_mat = np.zeros((n, n))
    for l in net.lines:
        y = 1.0 / l.reactance
        f, t = idx[l.from_bus], idx[l.to_bus]
        b_mat[f, f] += y
        b_mat[t, t] += y
        b_mat[f, t] -= y
        b_mat[t, f] -= y
    slack = idx[net.slack_bus]
    keep = [i for i in range(n) if i != slack]
    p = np.array([injections.get(b, 0.0) for b in bus_ids])
    theta = np.zeros(n)
    if keep:
        theta_red = np.linalg.solve(b_mat[np.ix_(keep, keep)], p[keep])
        for pos, i in enumerate(keep):
            theta[i] = theta_red[pos]
    return {
        l.id: (theta[idx[l.from_bus]] - theta[idx[l.to_bus]]) / l.reactance
        for l in net.lines
    }


# ---------------------------------------------------------------------------
# random connected networks / dispatch scenarios
# ---------------------------------------------------------------------------

def random_network(rng: random.Random, max_buses: int = 10, n_zones: int | None = None,
                   line_limit_range=(80.0, 400.0)) -> Network:
    n = rng.randint(2, max_buses)
    if n_zones is None:
        n_zones = rng.randint(1, min(3, n))
    zones = tuple(f"Z{i}" for i in range(n_zones))
    bus_zone = {}
    for i in range(n):
        # guarantee each zone is non-empty
        bus_zone[f"n{i}"] = zones[i] if i < n_zones else rng.choice(zones)
    buses = []
    for i in range(n):
        load = rng.choice([0.0, rng.uniform(20, 120)])
        buses.append(Bus(f"n{i}", bus_zone[f"n{i}"], load, 200.0 if load else 0.0))
    lines = []
    for i in range(1, n):  # random spanning tree
        j = rng.randrange(i)
        lines.append(
            Line(f"t{i}", f"n{j}", f"n{i}", rng.uniform(0.05, 0.3),
                 rng.uniform(*line_limit_range), frozenset({"all"}))
        )
    for k in range(rng.randint(0, 3)):  # extra meshing
        i, j = rng.sample(range(n), 2)
        lines.append(
            Line(f"m{k}", f"n{i}", f"n{j}", rng.uniform(0.05, 0.3),
                 rng.uniform(*line_limit_range), frozenset({"all"}))
        )
    interfaces = []
    for l in lines:
        za, zb = bus_zone[l.from_bus], bus_zone[l.to_bus]
        if za != zb:
            interfaces.append(
                Interface(f"itf_{l.id}", ((l.id, 1),), l.limit_mw)
            )
    return Network(tuple(buses), tuple(lines), zones, tuple(interfaces), "n0")


def random_gens(rng: random.Random, net: Network, margin: float = 1.4) -> list[GeneratorSpec]:
    """Each zone gets local capacity >= margin * local load, so zonal and
    copper-plate dispatch always serve the full load."""
    gens = []
    k = 0
    for zone in net.zones:
        zbuses = [b for b in net.buses if b.zone_id == zone]
        zload = sum(b.load_mw for b in zbuses)
        cap_needed = max(zload * margin, 50.0)
        built = 0.0
        while built < cap_needed:
            cap = rng.uniform(30, 150)
            bus = rng.choice(zbuses)
            gens.append(GeneratorSpec(f"g{k}", bus.id, 0.0, cap, rng.uniform(5, 95)))
            built += cap
            k += 1
    return gens


# ---------------------------------------------------------------------------
# naive commitment oracle: full matrix enumeration + merit-order dispatch
# ---------------------------------------------------------------------------

def _matrix_is_feasible(units: list[GeneratorSpec], matrix, horizon: int) -> bool:
    for u, row in zip(units, matrix):
        state_on = u.initially_on
        dur = u.initial_hours
        for s in row:
            on = bool(s)
            if on != state_on:
                if state_on and dur < u.min_up_h:
                    return False
                if not state_on and dur < u.min_down_h:
                    return False
                state_on = on
                dur = 1
            else:
                dur += 1
    return True


def merit_dispatch(units: list[GeneratorSpec], on_flags, load: float, wtp: float):
    """Single-node dispatch: floors first, then merit-order fill; unserved
    load is priced at wtp.  Returns (cost, feasible)."""
    on = [u for u, f in zip(units, on_flags) if f]
    floor = sum(u.p_min for u in on)
    cap = sum(u.p_max for u in on)
    if floor > load + 1e-9:
        return None, False
    served = min(load, cap)
    remaining = served - floor
    cost = sum(u.ic * u.p_min for u in on)
    for u in sorted(on, key=lambda u: (u.ic, u.id)):
        take = min(u.p_max - u.p_min, remaining)
        cost += u.ic * take
        remaining -= take
        if remaining <= 1e-12:
            break
    cost += (load - served) * wtp
    return cost, True


def uc_enumeration_oracle(units: list[GeneratorSpec], loads: list[float], wtp: float):
    """Best objective over all 2^(units*hours) commitment matrices."""
    horizon = len(loads)
    best = None
    for flat in itertools.product((0, 1), repeat=len(units) * horizon):
        matrix = [flat[i * horizon:(i + 1) * horizon] for i in range(len(units))]
        if not _matrix_is_feasible(units, matrix, horizon):
            continue
        total = 0.0
        ok = True
        for u, row in zip(units, matrix):
            total += u.nlc * sum(row)
            prev = 1 if u.initially_on else 0
            for s in row:
                if s and not prev:
                    total += u.suc
                prev = s
        for t in range(horizon):
            cost, feasible = merit_dispatch(units, [m[t] for m in matrix], loads[t], wtp)
            if not feasible:
                ok = False
                break
            total += cost
        if not ok:
            continue
        if best is None or total < best - 1e-9:
            best = total
    return best


def random_uc_instance(rng: random.Random):
    """Small single-bus commitment instance with distinct incremental costs
    and grid-friendly numbers (multiples of 0.25)."""
    n_units = rng.randint(1, 4)
    horizon = rng.randint(1, 4)
    units = []
    ics = rng.sample([round(x * 0.25, 2) for x in range(20, 220, 7)], n_units)
    for i in range(n_units):
        p_max = rng.choice([40.0, 60.0, 80.0, 120.0, 160.0])
        p_min = rng.choice([0.0, 0.0, 10.0, 20.0])
        units.append(
            GeneratorSpec(
                f"u{i}", "n0", p_min, p_max, ics[i],
                nlc=rng.choice([0.0, 25.0, 50.0]),
                suc=rng.choice([0.0, 100.0, 250.0]),
                min_up_h=rng.randint(1, 2),
                min_down_h=rng.randint(1, 2),
                initially_on=rng.random() < 0.5,
                initial_hours=rng.randint(1, 4),
            )
        )
    total_cap = sum(u.p_max for u in units)
    loads = [round(rng.uniform(0.15, 0.8) * total_cap * 4) / 4 for _ in range(horizon)]
    return units, loads


def uc_net(units: list[GeneratorSpec], wtp: float = 500.0) -> Network:
    total = sum(u.p_max for u in units)
    buses = (Bus("n0", "Z", load_mw=total, wtp=wtp),)  # load overridden per hour
    # single-bus network: no lines needed; a self-contained node
    return Network(buses, (), ("Z",), (), "n0")


# ---------------------------------------------------------------------------
# clearing LP oracle: the direct build of only the online units and loaded buses
# ---------------------------------------------------------------------------

def reference_clearing_lp(net, gens, regime, *, loads=None, committed=None) -> LinearProgram:
    """The LP ``clear`` solves for one (loads, committed set), built variable
    by variable and row by row with ``LpBuilder``: a column per online unit
    and per bus with load above 0, the reserve row only with a unit on and
    the ``min_sync`` row only with a synchronous unit on."""
    load_of = {b.id: (loads[b.id] if loads and b.id in loads else b.load_mw) for b in net.buses}
    is_on = {g.id: (committed.get(g.id, False) if committed is not None else True) for g in gens}
    active = [g for g in gens if is_on[g.id]]

    builder = LpBuilder()
    gvar = {g.id: builder.var(f"g[{g.id}]", *g.effective_bounds(), cost=g.ic) for g in active}
    cvar = {}
    for b in net.buses:
        if load_of[b.id] > 0:
            cvar[b.id] = builder.var(f"curt[{b.id}]", 0.0, load_of[b.id], cost=b.wtp)

    if regime.mode == "nodal":
        _reference_nodal_rows(builder, net, active, gvar, cvar, load_of, regime)
    elif regime.mode == "zonal":
        _reference_zonal_rows(builder, net, active, gvar, cvar, load_of, regime)
    else:
        coeffs = {gvar[g.id]: 1.0 for g in active}
        coeffs.update(dict.fromkeys(cvar.values(), 1.0))
        builder.row(coeffs, "=", sum(load_of.values()), "system")
    if regime.reserve_req_mw > 0 and active:
        cap = sum(g.effective_bounds()[1] for g in active)
        builder.row({gvar[g.id]: 1.0 for g in active}, "<=",
                    cap - regime.reserve_req_mw, "reserve")
    if regime.min_sync_mw > 0:
        coeffs = {gvar[g.id]: 1.0 for g in active if g.synchronous}
        if coeffs:
            builder.row(coeffs, ">=", regime.min_sync_mw, "min_sync")
    return builder.build()


def _reference_nodal_rows(builder, net, gens, gvar, cvar, load_of, regime):
    tvar = {b.id: builder.var(f"theta[{b.id}]", -INF, INF, 0.0)
            for b in net.buses if b.id != net.slack_bus}

    def flow_terms(line, sign=1.0):
        y = sign / line.reactance
        terms = {}
        if line.from_bus in tvar:
            terms[tvar[line.from_bus]] = terms.get(tvar[line.from_bus], 0.0) + y
        if line.to_bus in tvar:
            terms[tvar[line.to_bus]] = terms.get(tvar[line.to_bus], 0.0) - y
        return terms

    for b in net.buses:
        coeffs = {}
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
        builder.row(coeffs, "=", load_of[b.id], f"balance[{b.id}]")

    for line in regime.monitored_lines(net):
        builder.row(flow_terms(line, +1.0), "<=", line.limit_mw, f"flow+[{line.id}]")
        builder.row(flow_terms(line, -1.0), "<=", line.limit_mw, f"flow-[{line.id}]")

    if regime.enforce_interfaces:
        for itf in net.interfaces:
            coeffs = {}
            for lid, sign in itf.member_lines:
                for j, v in flow_terms(net.line(lid), float(sign)).items():
                    coeffs[j] = coeffs.get(j, 0.0) + v
            builder.row(coeffs, "<=", itf.ttc_mw, f"iface+[{itf.id}]")
            builder.row({j: -v for j, v in coeffs.items()}, "<=", itf.ttc_mw, f"iface-[{itf.id}]")


def _reference_zonal_rows(builder, net, gens, gvar, cvar, load_of, regime):
    arcs = []
    for itf in net.interfaces:
        fz, tz = interface_zones(net, itf)
        if fz == tz:
            continue
        arcs.append((itf, builder.var(f"f[{itf.id}]", -INF, INF, 0.0), fz, tz))

    for zone in net.zones:
        coeffs = {}
        for g in gens:
            if net.zone_of(g.bus_id) == zone:
                coeffs[gvar[g.id]] = 1.0
        zone_load = 0.0
        for b in [b for b in net.buses if b.zone_id == zone]:
            zone_load += load_of[b.id]
            if b.id in cvar:
                coeffs[cvar[b.id]] = 1.0
        for itf, fv, fz, tz in arcs:
            if fz == zone:
                coeffs[fv] = coeffs.get(fv, 0.0) - 1.0
            elif tz == zone:
                coeffs[fv] = coeffs.get(fv, 0.0) + 1.0
        builder.row(coeffs, "=", zone_load, f"zone[{zone}]")

    if regime.enforce_interfaces:
        for itf, fv, _, _ in arcs:
            builder.row({fv: 1.0}, "<=", itf.ttc_mw, f"iface+[{itf.id}]")
            builder.row({fv: -1.0}, "<=", itf.ttc_mw, f"iface-[{itf.id}]")


def lp_differences(got: LinearProgram, want: LinearProgram) -> list[str]:
    """The fields in which two LPs differ: arrays by dtype, shape and bytes,
    names and labels by value.  Empty when they are the same LP."""
    out = []
    for name in ("cost", "lower", "upper", "A", "sense", "rhs"):
        a, b = getattr(got, name), getattr(want, name)
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            out.append(name)
    for name in ("var_names", "row_labels"):
        if getattr(got, name) != getattr(want, name):
            out.append(name)
    return out


# ---------------------------------------------------------------------------
# reference commitment scan: itertools.product, one candidate at a time
# ---------------------------------------------------------------------------

def _start_count(unit: GeneratorSpec, seq) -> int:
    prev = 1 if unit.initially_on else 0
    starts = 0
    for s in seq:
        if s and not prev:
            starts += 1
        prev = s
    return starts


def reference_solve_uc(net, gens, hours, regime, *, lower_bounds=None):
    """``solve_uc`` as a scan over ``itertools.product`` of the per-unit
    sequences: the first feasible candidate, then each later one whose
    objective is below the current best minus 1e-9.  Dispatches through this
    module's ``clear`` binding, once per distinct (hour, on-set), and builds
    the schedule with the package's assembler, so the two differ only in the
    search."""
    hourly_loads = [dict(h) for h in hours]
    horizon = len(hourly_loads)

    seq_options = []
    for u in gens:
        opts = [s for s in itertools.product((0, 1), repeat=horizon)
                if _matrix_is_feasible([u], [s], horizon)]
        if lower_bounds and u.id in lower_bounds:
            floor = tuple(lower_bounds[u.id])
            opts = [s for s in opts if all(a >= b for a, b in zip(s, floor))]
        if not opts:
            raise UcInfeasibleError(0)
        seq_options.append(opts)

    cache = {}

    def hour_result(t, on_ids):
        key = (t, on_ids)
        if key not in cache:
            committed = {g.id: (g.id in on_ids) for g in gens}
            cache[key] = clear(net, gens, regime, loads=hourly_loads[t], committed=committed)
        return cache[key]

    best_obj = None
    best_combo = None
    first_bad_hour = horizon
    for combo in itertools.product(*seq_options):
        commit_cost = 0.0
        for u, seq in zip(gens, combo):
            commit_cost += u.nlc * sum(seq) + u.suc * _start_count(u, seq)
        obj = commit_cost
        ok = True
        for t in range(horizon):
            on_ids = frozenset(u.id for u, seq in zip(gens, combo) if seq[t])
            res = hour_result(t, on_ids)
            if any(v.startswith("lp_") for v in res.violations):
                ok = False
                first_bad_hour = min(first_bad_hour, t)
                break
            obj += res.objective_value
        if not ok:
            continue
        if best_obj is None or obj < best_obj - 1e-9:
            best_obj = obj
            best_combo = combo

    if best_combo is None:
        raise UcInfeasibleError(first_bad_hour if first_bad_hour < horizon else 0)
    return _assemble_schedule(gens, horizon, best_combo, hour_result)


def random_tie_uc_instance(rng: random.Random):
    """Single-bus commitment instance built for ties and infeasible hours:
    shared incremental costs, twin units, units with no no-load or start-up
    cost, floors that overshoot some hours' load, and sometimes a reserve
    requirement or lower bounds.  Returns (units, loads, regime, lower_bounds)."""
    horizon = rng.randint(1, 4)
    n_units = rng.randint(1, min(4, 12 // horizon))
    units = []
    while len(units) < n_units:
        if units and rng.random() < 0.3:  # twin of an earlier unit
            twin = rng.choice(units)
            units.append(GeneratorSpec(
                f"u{len(units)}", "n0", twin.p_min, twin.p_max, twin.ic, twin.nlc, twin.suc,
                min_up_h=twin.min_up_h, min_down_h=twin.min_down_h,
                initially_on=twin.initially_on, initial_hours=twin.initial_hours))
            continue
        free = rng.random() < 0.4
        units.append(GeneratorSpec(
            f"u{len(units)}", "n0", rng.choice([0.0, 20.0, 50.0]),
            rng.choice([60.0, 100.0, 140.0]), rng.choice([10.0, 20.0, 30.0]),
            nlc=0.0 if free else rng.choice([0.0, 25.0]),
            suc=0.0 if free else rng.choice([0.0, 100.0]),
            min_up_h=rng.randint(1, 3), min_down_h=rng.randint(1, 3),
            initially_on=rng.random() < 0.5, initial_hours=rng.randint(0, 3)))
    total_cap = sum(u.p_max for u in units)
    loads = [rng.choice([0.0, 15.0, 0.3 * total_cap, 0.6 * total_cap, total_cap + 20.0])
             for _ in range(horizon)]
    regime = ConstraintRegime(mode="copper_plate",
                              reserve_req_mw=rng.choice([0.0, 0.0, 30.0]))
    lower_bounds = None
    if rng.random() < 0.3:
        lower_bounds = {u.id: tuple(rng.choice([0, 0, 1]) for _ in range(horizon))
                        for u in rng.sample(units, rng.randint(1, n_units))}
    return units, loads, regime, lower_bounds


def random_networked_uc_instance(rng: random.Random):
    """Commitment instance on the five-bus, two-zone network of
    ``perfbench/gen.py``'s ``uc_doc`` (e1 and e2 feed e3 in zone ZE, the tie
    e3-i1 crosses to zone ZI, li joins i1 and i2; an interface on the tie),
    built where the uniform-price bound lies below the LP: line and interface
    limits low enough to bind, floors that overshoot some hours' load,
    curtailment cheaper than some units, reserve and ``min_sync`` rows, and
    twins and shared costs for ties.  Returns (net, units, hours, regime,
    lower_bounds)."""
    horizon = rng.randint(1, 3)
    n_units = rng.randint(2, min(4, 9 // horizon))
    buses = ("e1", "e2", "e3", "i1", "i2")
    units = []
    while len(units) < n_units:
        if units and rng.random() < 0.3:  # twin of an earlier unit, at its bus
            units.append(replace(rng.choice(units), id=f"u{len(units)}"))
            continue
        units.append(GeneratorSpec(
            f"u{len(units)}", rng.choice(buses), rng.choice([0.0, 0.0, 30.0, 60.0]),
            rng.choice([60.0, 100.0, 150.0]), rng.choice([10.0, 20.0, 40.0, 80.0]),
            nlc=rng.choice([0.0, 20.0]), suc=rng.choice([0.0, 50.0]),
            min_up_h=rng.randint(1, 2), min_down_h=rng.randint(1, 2),
            initially_on=rng.random() < 0.5, initial_hours=rng.randint(0, 3),
            synchronous=rng.random() < 0.7))
    cap = sum(u.p_max for u in units)
    loaded = ["i1", "i2"] + (["e2"] if rng.random() < 0.3 else [])
    hours = [{b: rng.choice([0.0, 10.0, 0.2 * cap, 0.4 * cap, 0.7 * cap]) for b in loaded}
             for _ in range(horizon)]
    zone = {"e1": "ZE", "e2": "ZE", "e3": "ZE", "i1": "ZI", "i2": "ZI"}
    net = Network(
        tuple(Bus(b, zone[b], hours[0].get(b, 0.0), rng.choice([60.0, 500.0])) for b in buses),
        (Line("le1", "e1", "e3", 0.1, rng.choice([30.0, 60.0, 120.0]), frozenset({"DAUC", "RUC"})),
         Line("le2", "e2", "e3", 0.1, rng.choice([30.0, 60.0, 120.0]), frozenset({"RUC"})),
         Line("tie", "e3", "i1", 0.05, rng.choice([40.0, 80.0, 150.0]), frozenset({"DAUC", "RUC"})),
         Line("li", "i1", "i2", 0.1, rng.choice([50.0, 100.0, 300.0]), frozenset({"DAUC", "RUC"}))),
        ("ZE", "ZI"), (Interface("export", (("tie", 1),), rng.choice([30.0, 60.0, 150.0])),), "i1")
    regime = ConstraintRegime(
        mode=rng.choice(["nodal", "nodal", "zonal", "copper_plate"]),
        monitored_profile=rng.choice([None, "DAUC", "RUC"]), enforce_interfaces=rng.random() < 0.8,
        reserve_req_mw=rng.choice([0.0, 0.0, 40.0]), min_sync_mw=rng.choice([0.0, 0.0, 50.0]))
    lower_bounds = None
    if rng.random() < 0.3:
        lower_bounds = {u.id: tuple(rng.choice([0, 0, 1]) for _ in range(horizon))
                        for u in rng.sample(units, rng.randint(1, n_units))}
    return net, units, hours, regime, lower_bounds


def price_bound_failures(net, gens, hours, regime) -> tuple[int, list[str]]:
    """Solve every on-set of every hour of a commitment instance and check
    the hour's rows (``commitment._price_terms``), its uniform-price rows
    and the row of each optimal LP: each at most the objective of every
    optimal LP of the same hour, plus 1e-9 * (1 + |objective|), and in nodal
    and copper-plate hours with no reserve or ``min_sync`` row, an LP's own
    row its objective to 1e-6 * (1 + |objective|).  Returns (the (row, LP)
    pairs compared, a line per failure)."""
    template = build_template(net, gens, regime)
    uniform_rows, lp_rows = _price_terms(template)
    pairs, failures = 0, []
    for t, loads in enumerate(hours):
        load = bus_loads(net, loads)
        solved = []
        for flags in itertools.product((0, 1), repeat=len(gens)):
            case = template.cut(load, {g.id: bool(on) for g, on in zip(gens, flags)})
            solved.append((np.array(flags), case, solve(case.lp)))
        optima = [(flags, sol.objective_value) for flags, _, sol in solved if sol.status == "optimal"]
        bounds = [(f"uniform-price row {i}", row) for i, row in enumerate(uniform_rows(load))]
        for own, case, sol in solved:
            rows = lp_rows(case, sol)
            bounds += [(f"on-set {own}", row) for row in rows]
            obj = sol.objective_value
            if (len(rows) and regime.mode != "zonal"
                    and not {"reserve", "min_sync"} & set(case.lp.row_labels)
                    and abs(rows[0, 0] + rows[0, 1:] @ own - obj) > 1e-6 * (1 + abs(obj))):
                failures.append(f"{regime.mode} hour {t}: the bound of on-set {own} "
                                f"is not its objective {obj!r}")
        for name, row in bounds:
            for flags, obj in optima:
                pairs += 1
                if row[0] + row[1:] @ flags > obj + 1e-9 * (1 + abs(obj)):
                    failures.append(f"{regime.mode} hour {t}: the bound of {name} "
                                    f"exceeds the objective {obj!r} of on-set {flags}")
    return pairs, failures


# ---------------------------------------------------------------------------
# reference simplex: one variable and one row at a time
# ---------------------------------------------------------------------------

_BASIC, _AT_LOWER, _AT_UPPER, _FREE_NB = 0, 1, 2, 3


def reference_solve(lp: LinearProgram) -> LpSolution:
    """``lp.solve`` as a scalar loop: Bland's scan and the ratio test visit
    every column and row in Python, the basis is gathered for every solve,
    and the report solves the final basis again."""
    return _ReferenceSimplex(lp).run()


def solve_outcome(solver, lp: LinearProgram) -> str:
    """The ``repr`` of ``solver(lp)``, or of the ``LpNumericalError`` it raises."""
    try:
        return repr(solver(lp))
    except LpNumericalError as exc:
        return f"LpNumericalError({exc})"


class _ReferenceSimplex:
    def __init__(self, lp: LinearProgram):
        m, n = lp.A.shape
        self.n_struct = n
        self.m = m

        # columns: structural | row slacks (coefficient lp.sense[i]) | artificials
        self.slack_of_row = [-1] * m
        ncols = n
        for i in range(m):
            if lp.sense[i] != 0.0:
                self.slack_of_row[i] = ncols
                ncols += 1
        self.art0 = ncols
        ncols += m
        self.ncols = ncols

        self.A = np.zeros((m, ncols))
        self.b = np.array(lp.rhs)
        for i in range(m):
            for j in range(n):
                self.A[i, j] = lp.A[i, j]
            if self.slack_of_row[i] >= 0:
                self.A[i, self.slack_of_row[i]] = lp.sense[i]

        self.lower = np.full(ncols, 0.0)
        self.upper = np.full(ncols, INF)
        self.lower[:n] = lp.lower
        self.upper[:n] = lp.upper

        self.cost_real = np.zeros(ncols)
        self.cost_real[:n] = lp.cost

    # -- driver ------------------------------------------------------------
    def run(self) -> LpSolution:
        self._init_basis()
        phase1_cost = np.zeros(self.ncols)
        phase1_cost[self.art0:] = 1.0
        status = self._iterate(phase1_cost, phase=1)
        if status != "optimal":
            raise LpNumericalError("phase 1 did not terminate at an optimum")
        if any(self.x[self.art0 + i] > FEAS_TOL * (1.0 + abs(self.b[i])) for i in range(self.m)):
            return self._report("infeasible")
        self._expel_artificials()
        # artificials are pinned at zero for phase 2
        self.lower[self.art0:] = 0.0
        self.upper[self.art0:] = 0.0
        status = self._iterate(self.cost_real, phase=2)
        return self._report(status)

    def _init_basis(self):
        self.status = np.full(self.ncols, _AT_LOWER, dtype=int)
        self.x = np.zeros(self.ncols)
        for j in range(self.ncols):
            lo, up = self.lower[j], self.upper[j]
            if lo == -INF and up == INF:
                self.status[j] = _FREE_NB
                self.x[j] = 0.0
            elif lo > -INF:
                self.status[j] = _AT_LOWER
                self.x[j] = lo
            else:
                self.status[j] = _AT_UPPER
                self.x[j] = up
        resid = self.b - self.A[:, : self.art0] @ self.x[: self.art0]
        self.basis = []
        for i in range(self.m):
            j = self.art0 + i
            self.A[i, j] = 1.0 if resid[i] >= 0 else -1.0
            self.x[j] = abs(resid[i])
            self.status[j] = _BASIC
            self.basis.append(j)

    # -- simplex core --------------------------------------------------------
    def _basis_matrix(self) -> np.ndarray:
        return self.A[:, self.basis]

    def _recompute_basics(self):
        nb_mask = np.ones(self.ncols, dtype=bool)
        nb_mask[self.basis] = False
        rhs = self.b - self.A[:, nb_mask] @ self.x[nb_mask]
        try:
            xb = np.linalg.solve(self._basis_matrix(), rhs)
        except np.linalg.LinAlgError as exc:
            raise LpNumericalError(f"singular basis: {exc}") from exc
        for pos, j in enumerate(self.basis):
            self.x[j] = xb[pos]

    def _duals(self, cost: np.ndarray) -> np.ndarray:
        cb = cost[self.basis]
        try:
            return np.linalg.solve(self._basis_matrix().T, cb)
        except np.linalg.LinAlgError as exc:
            raise LpNumericalError(f"singular basis (dual solve): {exc}") from exc

    def _iterate(self, cost: np.ndarray, phase: int) -> str:
        tol = OPT_TOL
        for _ in range(MAX_ITERATIONS):
            self._recompute_basics()
            y = self._duals(cost)
            rc = cost - y @ self.A
            entering, direction = -1, 0
            for j in range(self.ncols):
                st = self.status[j]
                if st == _BASIC:
                    continue
                if self.upper[j] - self.lower[j] <= 0:
                    continue  # fixed variable
                if (st in (_AT_LOWER, _FREE_NB)) and rc[j] < -tol:
                    entering, direction = j, 1
                    break
                if (st in (_AT_UPPER, _FREE_NB)) and rc[j] > tol:
                    entering, direction = j, -1
                    break
            if entering < 0:
                return "optimal"

            try:
                d = np.linalg.solve(self._basis_matrix(), self.A[:, entering])
            except np.linalg.LinAlgError as exc:
                raise LpNumericalError(f"singular basis: {exc}") from exc
            # step limit from the entering variable's own opposite bound
            span = self.upper[entering] - self.lower[entering]
            best_t = span if span < INF else INF
            best_idx = entering if best_t < INF else -1
            for pos, k in enumerate(self.basis):
                delta = -direction * d[pos]
                if delta > PIVOT_TOL:
                    room = self.upper[k] - self.x[k]
                    t = room / delta if room < INF else INF
                elif delta < -PIVOT_TOL:
                    room = self.x[k] - self.lower[k]
                    t = room / (-delta) if room < INF else INF
                else:
                    continue
                if t < best_t - 1e-12 or (abs(t - best_t) <= 1e-12 and (best_idx < 0 or k < best_idx)):
                    best_t, best_idx = t, k
            if best_t == INF:
                if phase == 1:
                    raise LpNumericalError("unbounded phase-1 subproblem")
                return "unbounded"

            t = max(best_t, 0.0)
            self.x[entering] += direction * t
            for pos in range(self.m):
                self.x[self.basis[pos]] -= direction * t * d[pos]
            if best_idx == entering:
                # bound flip, basis unchanged
                self.status[entering] = _AT_UPPER if direction > 0 else _AT_LOWER
                self.x[entering] = self.upper[entering] if direction > 0 else self.lower[entering]
            else:
                pos = self.basis.index(best_idx)
                leaving = self.basis[pos]
                delta = -direction * d[pos]
                if delta > 0:
                    self.status[leaving] = _AT_UPPER
                    self.x[leaving] = self.upper[leaving]
                else:
                    self.status[leaving] = _AT_LOWER
                    self.x[leaving] = self.lower[leaving]
                self.basis[pos] = entering
                self.status[entering] = _BASIC
        raise LpNumericalError("iteration limit exceeded")

    def _expel_artificials(self):
        """Pivot basic artificials out where possible; rows that cannot be
        re-based are redundant and keep a zero-valued artificial (dual 0)."""
        for pos in range(self.m):
            j = self.basis[pos]
            if j < self.art0:
                continue
            binv = np.linalg.inv(self._basis_matrix())
            row = binv[pos] @ self.A[:, : self.art0]
            pivot = -1
            for cand in range(self.art0):
                if self.status[cand] == _BASIC:
                    continue
                if abs(row[cand]) > PIVOT_TOL:
                    pivot = cand
                    break
            if pivot >= 0:
                self.status[j] = _AT_LOWER
                self.x[j] = 0.0
                self.basis[pos] = pivot
                self.status[pivot] = _BASIC
                self._recompute_basics()

    # -- reporting -----------------------------------------------------------
    def _report(self, status: str) -> LpSolution:
        n, m = self.n_struct, self.m
        if status != "optimal":
            return LpSolution(status, (0.0,) * n, (0.0,) * m, 0.0)
        self._recompute_basics()
        y = self._duals(self.cost_real)
        primal = tuple(float(self.x[j]) for j in range(n))
        duals = tuple(float(y[i]) for i in range(m))
        with np.errstate(over="ignore"):  # huge finite costs overflow to inf without a stderr warning
            obj = float(self.cost_real[: self.n_struct] @ self.x[: self.n_struct])
        return LpSolution(status, primal, duals, obj)
