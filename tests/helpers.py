"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the package's own machinery: DC flows are
recomputed from a reduced susceptance solve, single-node dispatch by a direct
merit-order fill, and commitment by naive enumeration of full on/off matrices.
``reference_solve_uc`` is the commitment search as a one-candidate-at-a-time
scan, the rule ``solve_uc`` must reproduce choice for choice.
"""
from __future__ import annotations

import itertools
import random

import numpy as np

from gridclear.grid import Bus, Interface, Line, Network
from gridclear.dispatch import ConstraintRegime, GeneratorSpec, clear
from gridclear.commitment import UcGenerator, UcInfeasibleError, _assemble_schedule


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
        zbuses = net.buses_in_zone(zone)
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

def _matrix_is_feasible(units: list[UcGenerator], matrix, horizon: int) -> bool:
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


def merit_dispatch(units: list[UcGenerator], on_flags, load: float, wtp: float):
    """Single-node dispatch: floors first, then merit-order fill; unserved
    load is priced at wtp.  Returns (cost, feasible)."""
    on = [u for u, f in zip(units, on_flags) if f]
    floor = sum(u.spec.p_min for u in on)
    cap = sum(u.spec.p_max for u in on)
    if floor > load + 1e-9:
        return None, False
    served = min(load, cap)
    remaining = served - floor
    cost = sum(u.spec.ic * u.spec.p_min for u in on)
    for u in sorted(on, key=lambda u: (u.spec.ic, u.spec.id)):
        take = min(u.spec.p_max - u.spec.p_min, remaining)
        cost += u.spec.ic * take
        remaining -= take
        if remaining <= 1e-12:
            break
    cost += (load - served) * wtp
    return cost, True


def uc_enumeration_oracle(units: list[UcGenerator], loads: list[float], wtp: float):
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
            total += u.spec.nlc * sum(row)
            prev = 1 if u.initially_on else 0
            for s in row:
                if s and not prev:
                    total += u.spec.suc
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
            UcGenerator(
                GeneratorSpec(f"u{i}", "n0", p_min, p_max, ics[i],
                              nlc=rng.choice([0.0, 25.0, 50.0]),
                              suc=rng.choice([0.0, 100.0, 250.0])),
                min_up_h=rng.randint(1, 2),
                min_down_h=rng.randint(1, 2),
                initially_on=rng.random() < 0.5,
                initial_hours=rng.randint(1, 4),
            )
        )
    total_cap = sum(u.spec.p_max for u in units)
    loads = [round(rng.uniform(0.15, 0.8) * total_cap * 4) / 4 for _ in range(horizon)]
    return units, loads


def uc_net(units: list[UcGenerator], wtp: float = 500.0) -> Network:
    total = sum(u.spec.p_max for u in units)
    buses = (Bus("n0", "Z", load_mw=total, wtp=wtp),)  # load overridden per hour
    # single-bus network: no lines needed; a self-contained node
    return Network(buses, (), ("Z",), (), "n0")


# ---------------------------------------------------------------------------
# reference commitment scan: itertools.product, one candidate at a time
# ---------------------------------------------------------------------------

def _start_count(unit: UcGenerator, seq) -> int:
    prev = 1 if unit.initially_on else 0
    starts = 0
    for s in seq:
        if s and not prev:
            starts += 1
        prev = s
    return starts


def reference_solve_uc(net, ucgens, hours, regime, *, lower_bounds=None):
    """``solve_uc`` as a scan over ``itertools.product`` of the per-unit
    sequences: the first feasible candidate, then each later one whose
    objective is below the current best minus 1e-9.  Dispatches through this
    module's ``clear`` binding, once per distinct (hour, on-set), and builds
    the schedule with the package's assembler, so the two differ only in the
    search."""
    hourly_loads = [dict(h) for h in hours]
    horizon = len(hourly_loads)
    specs = [u.spec for u in ucgens]
    sync = {u.spec.id for u in ucgens if u.is_synchronous}

    seq_options = []
    for u in ucgens:
        opts = [s for s in itertools.product((0, 1), repeat=horizon)
                if _matrix_is_feasible([u], [s], horizon)]
        if lower_bounds and u.spec.id in lower_bounds:
            floor = tuple(lower_bounds[u.spec.id])
            opts = [s for s in opts if all(a >= b for a, b in zip(s, floor))]
        if not opts:
            raise UcInfeasibleError(0)
        seq_options.append(opts)

    cache = {}

    def hour_result(t, on_ids):
        key = (t, on_ids)
        if key not in cache:
            committed = {s.id: (s.id in on_ids) for s in specs}
            cache[key] = clear(net, specs, regime, loads=hourly_loads[t],
                               committed=committed, synchronous=sync)
        return cache[key]

    best_obj = None
    best_combo = None
    first_bad_hour = horizon
    for combo in itertools.product(*seq_options):
        commit_cost = 0.0
        for u, seq in zip(ucgens, combo):
            commit_cost += u.spec.nlc * sum(seq) + u.spec.suc * _start_count(u, seq)
        obj = commit_cost
        ok = True
        for t in range(horizon):
            on_ids = frozenset(u.spec.id for u, seq in zip(ucgens, combo) if seq[t])
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
    return _assemble_schedule(net, ucgens, hourly_loads, regime, sync, best_combo, hour_result)


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
            units.append(UcGenerator(
                GeneratorSpec(f"u{len(units)}", "n0", twin.spec.p_min, twin.spec.p_max,
                              twin.spec.ic, twin.spec.nlc, twin.spec.suc),
                twin.min_up_h, twin.min_down_h, twin.initially_on, twin.initial_hours))
            continue
        free = rng.random() < 0.4
        units.append(UcGenerator(
            GeneratorSpec(f"u{len(units)}", "n0", rng.choice([0.0, 20.0, 50.0]),
                          rng.choice([60.0, 100.0, 140.0]), rng.choice([10.0, 20.0, 30.0]),
                          nlc=0.0 if free else rng.choice([0.0, 25.0]),
                          suc=0.0 if free else rng.choice([0.0, 100.0])),
            min_up_h=rng.randint(1, 3), min_down_h=rng.randint(1, 3),
            initially_on=rng.random() < 0.5, initial_hours=rng.randint(0, 3)))
    total_cap = sum(u.spec.p_max for u in units)
    loads = [rng.choice([0.0, 15.0, 0.3 * total_cap, 0.6 * total_cap, total_cap + 20.0])
             for _ in range(horizon)]
    regime = ConstraintRegime(mode="copper_plate",
                              reserve_req_mw=rng.choice([0.0, 0.0, 30.0]))
    lower_bounds = None
    if rng.random() < 0.3:
        lower_bounds = {u.spec.id: tuple(rng.choice([0, 0, 1]) for _ in range(horizon))
                        for u in rng.sample(units, rng.randint(1, n_units))}
    return units, loads, regime, lower_bounds
