import math
import random
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gridclear.dispatch import (
    ConstraintRegime,
    GeneratorSpec,
    build_template,
    bus_loads,
    clear,
    location,
    with_forced_bounds,
)
from gridclear import lp as lpmod
from gridclear.grid import MAGNITUDE, Bus, Interface, Line, Network, build_ptdf
from gridclear.scenario import load_scenario
from helpers import (
    lp_differences, make_fourbus, make_twobus, random_gens, random_network, reference_clearing_lp,
    reference_ptdf,
)

NODAL = ConstraintRegime(mode="nodal", monitored_profile="nodal", enforce_interfaces=False)
ZONAL = ConstraintRegime(mode="zonal")
COPPER = ConstraintRegime(mode="copper_plate")


# ---------------------------------------------------------------------------
# meshed two-zone system (nodal / zonal / forced-bound congestion management)
# ---------------------------------------------------------------------------

def test_fourbus_nodal(fourbus):
    net, gens = fourbus
    r = clear(net, gens, NODAL)
    assert r.feasible
    assert [r.gen_mw[g] for g in ("P1", "P2", "P3", "P4")] == pytest.approx(
        [175.0, 100.0, 225.0, 300.0], abs=1e-6
    )
    assert [r.balance_duals[b] for b in ("b1", "b2", "b3", "b4")] == pytest.approx(
        [10.0, 25.0, 40.0, 50.0], abs=1e-6
    )
    assert r.total_cost == pytest.approx(26750.0, rel=1e-9)
    assert r.flows.flows_mw["l13"] == pytest.approx(150.0, abs=1e-6)
    assert r.flows.flows_mw["l34"] == pytest.approx(500.0, abs=1e-6)
    assert r.flows.violations == ()


def test_fourbus_nodal_binding_duals(fourbus):
    net, gens = fourbus
    r = clear(net, gens, NODAL)
    duals = dict(r.binding)
    assert duals["flow+[l13]"] == pytest.approx(-45.0, abs=1e-6)
    assert duals["flow+[l34]"] == pytest.approx(-10.0, abs=1e-6)
    assert r.transmission_rent() == pytest.approx(11750.0, rel=1e-9)


def test_fourbus_zonal_physically_infeasible(fourbus):
    net, gens = fourbus
    r = clear(net, gens, ZONAL)
    assert [r.gen_mw[g] for g in ("P1", "P2", "P3", "P4")] == pytest.approx(
        [200.0, 100.0, 200.0, 300.0], abs=1e-6
    )
    assert [r.balance_duals[z] for z in ("Z1", "Z2")] == pytest.approx([40.0, 50.0], abs=1e-6)
    assert r.total_cost == pytest.approx(26000.0, rel=1e-9)
    assert r.flows.flows_mw["l13"] == pytest.approx(500.0 / 3.0, abs=1e-6)
    assert r.flows.violations == ("l13",)
    assert any("166.67" in v for v in r.violations)


def test_fourbus_tie270_pro_rata(fourbus):
    net, gens = make_fourbus(ttc=270.0)
    r = clear(net, gens, ZONAL)
    assert [r.gen_mw[g] for g in ("P1", "P2", "P3", "P4")] == pytest.approx(
        [180.0, 90.0, 0.0, 530.0], abs=1e-6
    )
    assert [r.balance_duals[z] for z in ("Z1", "Z2")] == pytest.approx([10.0, 50.0], abs=1e-6)
    assert r.total_cost == pytest.approx(29200.0, rel=1e-9)
    assert r.flows.violations == ()


def test_fourbus_forced_min_matches_nodal_dispatch(fourbus):
    net, gens = fourbus
    r = clear(net, with_forced_bounds(gens, {"P3": (225.0, None)}), ZONAL)
    assert [r.gen_mw[g] for g in ("P1", "P2", "P3", "P4")] == pytest.approx(
        [175.0, 100.0, 225.0, 300.0], abs=1e-6
    )
    assert [r.balance_duals[z] for z in ("Z1", "Z2")] == pytest.approx([10.0, 50.0], abs=1e-6)
    assert r.total_cost == pytest.approx(26750.0, rel=1e-9)
    assert r.gen_flags["P3"] == "at_forced_min"
    assert r.flows.violations == ()


def test_forced_bounds_noop_when_zero(fourbus):
    net, gens = fourbus
    plain = clear(net, gens, ZONAL)
    forced = clear(net, with_forced_bounds(gens, {g.id: (0.0, None) for g in gens}), ZONAL)
    assert forced.gen_mw == pytest.approx(plain.gen_mw)
    assert forced.total_cost == pytest.approx(plain.total_cost)


def test_forced_min_above_optimum_costs_more(fourbus):
    net, gens = fourbus
    r = clear(net, with_forced_bounds(gens, {"P3": (226.0, None)}), ZONAL)
    nodal = clear(net, gens, NODAL)
    assert r.total_cost > 26750.0 + 1.0
    assert r.gen_mw != pytest.approx(nodal.gen_mw)
    # the security-preferred equal-cost split keeps the bottleneck line loaded
    # to its limit: g1 <= 176 forced by the 150 MW line, g2 at capacity
    assert r.gen_mw["P1"] == pytest.approx(176.0, abs=1e-6)
    assert r.gen_mw["P2"] == pytest.approx(98.0, abs=1e-6)
    assert r.total_cost == pytest.approx(26780.0, rel=1e-9)


# ---------------------------------------------------------------------------
# two-area system
# ---------------------------------------------------------------------------

def test_twobus_copper_plate(twobus):
    net, gens = twobus
    r = clear(net, gens, COPPER)
    area_a = sum(r.gen_mw[g] for g in ("A1", "A2", "A3", "A4"))
    area_b = sum(r.gen_mw[g] for g in ("B1", "B2"))
    assert area_a == pytest.approx(700.0, abs=1e-6)
    assert area_b == pytest.approx(300.0, abs=1e-6)
    assert r.balance_duals["system"] == pytest.approx(90.0, abs=1e-6)


def test_twobus_nodal_prices(twobus):
    net, gens = twobus
    r = clear(net, gens, ConstraintRegime(mode="nodal", monitored_profile="nodal",
                                          enforce_interfaces=False))
    assert r.flows.interface_flows_mw["tie"] == pytest.approx(100.0, abs=1e-6)
    assert r.balance_duals["a"] == pytest.approx(75.0, abs=1e-6)
    assert r.balance_duals["b"] == pytest.approx(100.0, abs=1e-6)
    assert r.gen_mw["A2"] == pytest.approx(150.0, abs=1e-6)
    assert r.gen_mw["B2"] == pytest.approx(100.0, abs=1e-6)


def test_twobus_zonal_matches_nodal(twobus):
    net, gens = twobus
    rn = clear(net, gens, ConstraintRegime(mode="nodal", monitored_profile="nodal",
                                           enforce_interfaces=False))
    rz = clear(net, gens, ZONAL)
    assert rz.gen_mw == pytest.approx(rn.gen_mw, abs=1e-6)
    assert rz.balance_duals["ZA"] == pytest.approx(75.0, abs=1e-6)
    assert rz.balance_duals["ZB"] == pytest.approx(100.0, abs=1e-6)


# ---------------------------------------------------------------------------
# degenerate corners and conventions
# ---------------------------------------------------------------------------

def test_single_bus_zero_load_prices_zero():
    net = Network((Bus("n", "Z", 0.0, 0.0),), (), ("Z",), (), "n")
    gens = [GeneratorSpec("g", "n", 0.0, 100.0, 25.0)]
    r = clear(net, gens, COPPER)
    assert r.gen_mw["g"] == 0.0
    assert r.balance_duals["system"] == 0.0
    assert r.feasible


def test_copper_exhaustion_prices_at_marginal_ic():
    net = Network((Bus("n", "Z", 150.0, 400.0),), (), ("Z",), (), "n")
    gens = [
        GeneratorSpec("cheap", "n", 0.0, 100.0, 20.0),
        GeneratorSpec("dear", "n", 0.0, 50.0, 60.0),
    ]
    r = clear(net, gens, COPPER)
    assert r.gen_mw["cheap"] == pytest.approx(100.0)
    assert r.gen_mw["dear"] == pytest.approx(50.0)
    assert r.feasible
    assert r.balance_duals["system"] == pytest.approx(60.0)


def test_equal_cost_split_is_capacity_proportional():
    net = Network((Bus("n", "Z", 90.0, 400.0),), (), ("Z",), (), "n")
    gens = [
        GeneratorSpec("big", "n", 0.0, 200.0, 30.0),
        GeneratorSpec("small", "n", 0.0, 100.0, 30.0),
    ]
    r = clear(net, gens, COPPER)
    assert r.gen_mw["big"] == pytest.approx(60.0, abs=1e-9)
    assert r.gen_mw["small"] == pytest.approx(30.0, abs=1e-9)


def test_single_zone_no_interfaces_collapses_to_copper():
    net = Network(
        (Bus("x", "Z", 50.0, 200.0), Bus("y", "Z", 30.0, 200.0)),
        (Line("l", "x", "y", 0.1, 999.0),),
        ("Z",), (), "x",
    )
    gens = [GeneratorSpec("g1", "x", 0.0, 60.0, 10.0), GeneratorSpec("g2", "y", 0.0, 60.0, 20.0)]
    rz = clear(net, gens, ZONAL)
    rc = clear(net, gens, COPPER)
    assert rz.gen_mw == pytest.approx(rc.gen_mw)
    assert rz.balance_duals["Z"] == pytest.approx(rc.balance_duals["system"])


def test_capacity_shortfall_is_infeasible_result_not_exception():
    net = Network((Bus("n", "Z", 100.0, 400.0),), (), ("Z",), (), "n")
    gens = [GeneratorSpec("g", "n", 0.0, 60.0, 20.0)]
    r = clear(net, gens, COPPER)
    assert not r.feasible
    assert 100.0 - r.served_mw["n"] == pytest.approx(40.0)
    assert any(v.startswith("curtailment") for v in r.violations)
    assert r.balance_duals["system"] == pytest.approx(400.0)  # scarcity at wtp


def test_committed_subset_excludes_offline_units():
    net = Network((Bus("n", "Z", 50.0, 400.0),), (), ("Z",), (), "n")
    gens = [GeneratorSpec("on", "n", 0.0, 60.0, 20.0), GeneratorSpec("off", "n", 0.0, 60.0, 5.0)]
    r = clear(net, gens, COPPER, committed={"on": True, "off": False})
    assert r.gen_mw["off"] == 0.0
    assert r.gen_flags["off"] == "offline"
    assert r.gen_mw["on"] == pytest.approx(50.0)


@pytest.mark.parametrize("kw, named", [
    ({"loads": {"b4": 700.0, "B4": 100.0}}, "loads: unknown bus id(s) ['B4']"),
    ({"committed": {"P1": True, "p9": False}}, "committed: unknown unit id(s) ['p9']"),
], ids=["loads", "committed"])
def test_unknown_keys_are_rejected(kw, named):
    """A key that names no bus or unit raises; ignored, a mistyped bus id
    would clear at the network's own load."""
    net, gens = make_fourbus()
    with pytest.raises(ValueError, match=re.escape(named)):
        clear(net, gens, NODAL, **kw)


@pytest.mark.parametrize("flag", ["no", 0.5, 2, None], ids=["string", "half", "two", "none"])
def test_on_off_flags_other_than_0_or_1_are_rejected(flag):
    """A ``committed`` flag that is not 0, 1, ``False`` or ``True`` raises,
    naming its unit; unchecked, the string ``"no"`` put A1 on at 450 MW."""
    net, gens = make_twobus()
    with pytest.raises(ValueError, match=re.escape(f"committed: unit A1: {flag!r} is not 0 or 1")):
        clear(net, gens, COPPER, committed={"A1": flag})


def test_on_off_flags_as_integers_are_the_booleans():
    net, gens = make_twobus()
    flags = {"A1": 0, "A2": 1, "B1": True, "B2": False}
    got = clear(net, gens, COPPER, committed=flags)
    assert repr(got) == repr(clear(net, gens, COPPER, committed={k: bool(v) for k, v in flags.items()}))
    assert got.gen_flags["A1"] == "offline" and got.gen_mw["A2"] > 0.0


@pytest.mark.parametrize("load, shown", [
    (float("nan"), "nan"), (-5.0, "-5.0"), (2e9, "2000000000.0"), (float("inf"), "inf"),
], ids=["nan", "negative", "beyond-magnitude", "inf"])
def test_out_of_range_loads_are_rejected(load, shown):
    """A load the ``Bus`` rule would reject raises, naming its bus; a NaN
    would otherwise pass every ``<=`` comparison unseen."""
    net, gens = make_fourbus()
    with pytest.raises(ValueError, match=re.escape(f"loads: bus b4 load {shown} outside [0, 1e+09]")):
        clear(net, gens, NODAL, loads={"b1": 40.0, "b4": load})


def test_bus_loads_is_each_override_else_the_bus_load():
    """One hour's load vector: each bus's override, else its own
    ``load_mw``, in ``net.buses`` order, read-only."""
    net, _ = make_fourbus()
    assert [b.load_mw for b in net.buses] == [0.0, 0.0, 0.0, 800.0]
    assert bus_loads(net, None).tolist() == [0.0, 0.0, 0.0, 800.0]
    load = bus_loads(net, {"b4": 700.0, "b1": 40})
    assert load.tolist() == [40.0, 0.0, 0.0, 700.0] and load.dtype == float
    with pytest.raises(ValueError, match="read-only"):
        load[0] = 1.0
    with pytest.raises(ValueError, match=re.escape("hours[3]: unknown bus id(s) ['B4']")):
        bus_loads(net, {"B4": 1.0}, "hours[3]")


def test_reserve_constraint_binds_and_flags():
    net = Network((Bus("n", "Z", 90.0, 400.0),), (), ("Z",), (), "n")
    gens = [GeneratorSpec("a", "n", 0.0, 100.0, 10.0), GeneratorSpec("b", "n", 0.0, 100.0, 50.0)]
    regime = ConstraintRegime(mode="copper_plate", reserve_req_mw=120.0)
    r = clear(net, gens, regime)
    # headroom 200 - 90 = 110 < 120 would be short; total output capped at 80
    assert sum(r.gen_mw.values()) == pytest.approx(80.0)
    assert not r.feasible  # 10 MW curtailed to hold reserve
    assert ("reserve", pytest.approx(-390.0)) in [
        (l, d) for l, d in r.binding
    ] or any(l == "reserve" for l, _ in r.binding)


def test_min_sync_constraint_flags_units():
    net = Network((Bus("n", "Z", 50.0, 400.0),), (), ("Z",), (), "n")
    gens = [
        GeneratorSpec("wind", "n", 0.0, 100.0, 1.0, synchronous=False),
        GeneratorSpec("steam", "n", 0.0, 100.0, 40.0),
    ]
    regime = ConstraintRegime(mode="copper_plate", min_sync_mw=30.0)
    r = clear(net, gens, regime)
    assert r.gen_mw["steam"] == pytest.approx(30.0)
    assert r.gen_mw["wind"] == pytest.approx(20.0)
    assert r.gen_flags["steam"] == "stability_bound"
    assert any(l == "min_sync" for l, _ in r.binding)


def test_multi_line_flowgate_binds_in_nodal_mode():
    # two parallel corridors covered by one flowgate; the gate, not the
    # individual thermal limits, separates the prices
    net = Network(
        (Bus("g", "ZA", 0.0, 0.0), Bus("d", "ZB", 200.0, 100.0)),
        (
            Line("c1", "g", "d", 0.1, 500.0, frozenset({"all"})),
            Line("c2", "g", "d", 0.2, 500.0, frozenset({"all"})),
        ),
        ("ZA", "ZB"),
        (Interface("gate", (("c1", 1), ("c2", 1)), 120.0),),
        "d",
    )
    gens = [GeneratorSpec("cheap", "g", 0.0, 300.0, 10.0),
            GeneratorSpec("dear", "d", 0.0, 300.0, 50.0)]
    r = clear(net, gens, ConstraintRegime(mode="nodal", monitored_profile="all",
                                          enforce_interfaces=True))
    assert r.gen_mw["cheap"] == pytest.approx(120.0, abs=1e-6)
    assert r.gen_mw["dear"] == pytest.approx(80.0, abs=1e-6)
    assert r.flows.interface_flows_mw["gate"] == pytest.approx(120.0, abs=1e-6)
    assert r.balance_duals["g"] == pytest.approx(10.0, abs=1e-6)
    assert r.balance_duals["d"] == pytest.approx(50.0, abs=1e-6)
    assert any(l == "iface+[gate]" for l, _ in r.binding)
    assert r.transmission_rent() == pytest.approx(40.0 * 120.0, rel=1e-9)


def test_intra_zonal_interface_ignored_by_zonal_model():
    # a flowgate wholly inside one zone has no meaning in the transport model
    net = Network(
        (Bus("x", "Z", 50.0, 200.0), Bus("y", "Z", 0.0, 0.0)),
        (Line("l", "x", "y", 0.1, 999.0, frozenset({"all"})),),
        ("Z",),
        (Interface("inner", (("l", 1),), 5.0),),
        "x",
    )
    gens = [GeneratorSpec("gx", "x", 0.0, 30.0, 10.0), GeneratorSpec("gy", "y", 0.0, 60.0, 20.0)]
    r = clear(net, gens, ZONAL)
    assert r.feasible
    assert sum(r.gen_mw.values()) == pytest.approx(50.0)


def test_interface_spanning_inconsistent_zones_rejected():
    from gridclear.dispatch import interface_zones

    net = Network(
        (Bus("x", "ZA", 0.0, 0.0), Bus("y", "ZB", 10.0, 50.0), Bus("z", "ZC", 10.0, 50.0)),
        (
            Line("l1", "x", "y", 0.1, 99.0),
            Line("l2", "x", "z", 0.1, 99.0),
        ),
        ("ZA", "ZB", "ZC"),
        (),
        "x",
    )
    itf = Interface("mixed", (("l1", 1), ("l2", 1)), 50.0)
    with pytest.raises(ValueError, match="inconsistent"):
        interface_zones(net, itf)


_PAST = math.nextafter(MAGNITUDE, math.inf)


@pytest.mark.parametrize("make", [
    lambda v: GeneratorSpec("g", "x", 0.0, v, 10.0),
    lambda v: GeneratorSpec("g", "x", 0.0, 100.0, v),
    lambda v: GeneratorSpec("g", "x", 0.0, 100.0, 10.0, nlc=v),
    lambda v: GeneratorSpec("g", "x", 0.0, 100.0, 10.0, suc=v),
    lambda v: GeneratorSpec("g", "x", 0.0, MAGNITUDE, 10.0, forced_max=v),
    lambda v: ConstraintRegime(mode="nodal", reserve_req_mw=v),
    lambda v: ConstraintRegime(mode="zonal", min_sync_mw=v),
], ids=["p_max", "ic", "nlc", "suc", "forced_max", "reserve_req_mw", "min_sync_mw"])
def test_units_and_regimes_hold_their_figures_to_the_range(make):
    # library callers meet the rule a scenario file does: the bound itself
    # builds, one float past it, NaN and infinity do not
    make(MAGNITUDE)
    for v in (_PAST, math.nan, math.inf):
        with pytest.raises(ValueError, match="outside"):
            make(v)


@pytest.mark.parametrize("bounds, shown", [
    ({"p_min": 100.0, "forced_max": 50.0}, "lower 100 > upper 50"),
    ({"forced_min": 80.0, "forced_max": 60.0}, "lower 80 > upper 60"),
], ids=["forced_max_below_p_min", "forced_min_above_forced_max"])
def test_forced_bounds_that_leave_no_output_range_are_rejected(bounds, shown):
    # an empty range would otherwise build and fail only inside the LP
    with pytest.raises(ValueError, match=re.escape(f"generator g: forced bounds leave no output range ({shown})")):
        GeneratorSpec(**{"id": "g", "bus_id": "x", "p_min": 0.0, "p_max": 100.0, "ic": 10.0, **bounds})
    assert GeneratorSpec("g", "x", 50.0, 100.0, 10.0, forced_max=50.0).effective_bounds() == (50.0, 50.0)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_nodal_duals_satisfy_ptdf_identity(fourbus):
    net, gens = fourbus
    r = clear(net, gens, NODAL)
    ptdf = build_ptdf(net)
    lam_ref = r.balance_duals[net.slack_bus]
    mu = {}
    for label, dual in r.binding:
        if label.startswith("flow+["):
            mu[label[6:-1]] = mu.get(label[6:-1], 0.0) - dual
        elif label.startswith("flow-["):
            mu[label[6:-1]] = mu.get(label[6:-1], 0.0) + dual
    line_pos = {l.id: i for i, l in enumerate(net.lines)}
    for bus in net.bus_index:
        expect = lam_ref - sum(
            ptdf[line_pos[lid], net.bus_index[bus]] * m for lid, m in mu.items()
        )
        assert r.balance_duals[bus] == pytest.approx(expect, abs=1e-6)


def test_removing_nonbinding_constraint_is_invariant(fourbus):
    net, gens = fourbus
    base = clear(net, gens, NODAL)
    # unmonitor the slack lines l12 and l23 (they do not bind)
    lines = tuple(
        Line(l.id, l.from_bus, l.to_bus, l.reactance, l.limit_mw,
             frozenset() if l.id in ("l12", "l23") else l.monitored_in)
        for l in net.lines
    )
    net2 = Network(net.buses, lines, net.zones, net.interfaces, net.slack_bus)
    trimmed = clear(net2, gens, NODAL)
    for gid in base.gen_mw:
        assert trimmed.gen_mw[gid] == pytest.approx(base.gen_mw[gid], abs=1e-8)
    assert trimmed.total_cost == pytest.approx(base.total_cost, abs=1e-8)


def test_cost_ordering_on_fixture(fourbus):
    net, gens = fourbus
    cc = clear(net, gens, COPPER).total_cost
    cz = clear(net, gens, ZONAL).total_cost
    cn = clear(net, gens, NODAL).total_cost
    assert cc <= cz + 1e-6 <= cn + 2e-6


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 50_000))
def test_cost_ordering_random(seed):
    rng = random.Random(seed)
    net = random_network(rng)
    gens = random_gens(rng, net)
    nodal_regime = ConstraintRegime(mode="nodal", monitored_profile="all")
    cc = clear(net, gens, COPPER)
    cz = clear(net, gens, ZONAL)
    cn = clear(net, gens, nodal_regime)
    if not (cc.feasible and cz.feasible and cn.feasible):
        return  # ordering is asserted on fully served scenarios
    assert cc.total_cost <= cz.total_cost + 1e-6
    assert cz.total_cost <= cn.total_cost + 1e-6


def test_determinism_bit_for_bit(fourbus):
    net, gens = fourbus
    a = clear(net, gens, NODAL)
    b = clear(net, gens, NODAL)
    assert repr(a) == repr(b)


_BUNDLED = sorted(p.name for p in (Path(__file__).parent.parent / "scenarios").glob("*.scn"))


@pytest.mark.parametrize("aggregates", [False, True], ids=["plain", "reserve_and_min_sync"])
@pytest.mark.parametrize("mode", ["nodal", "zonal", "copper_plate"])
@pytest.mark.parametrize("name", _BUNDLED)
def test_limits_are_the_rhs_of_every_non_balance_row(scenario_dir, monkeypatch, name, mode, aggregates):
    sc = load_scenario(scenario_dir / name)
    regime = next((r for r in sc.regimes.values() if r.mode == mode), ConstraintRegime(mode=mode))
    if aggregates:
        regime = replace(regime, reserve_req_mw=10.0, min_sync_mw=10.0)
    lps = []
    real_solve = lpmod.solve
    monkeypatch.setattr(lpmod, "solve", lambda lp: lps.append(lp) or real_solve(lp))
    r = clear(sc.network, sc.generators, regime)
    lp = lps[0]  # the clearing LP; a zonal tie projection may solve another
    limits = {label: rhs for label, rhs in zip(lp.row_labels, lp.rhs.tolist())
              if not label.startswith(("balance[", "zone[")) and label != "system"}
    assert r.limits == limits
    assert {label for label, _ in r.binding} <= r.limits.keys()
    assert not aggregates or {"reserve", "min_sync"} <= r.limits.keys()


# ---------------------------------------------------------------------------
# the LP clear solves is the LP a direct build gives
# ---------------------------------------------------------------------------

def _cleared_lp(monkeypatch, net, gens, regime, **kw):
    """The LP ``clear`` solves (a zonal tie projection may solve another after it)."""
    lps = []
    real_solve = lpmod.solve
    monkeypatch.setattr(lpmod, "solve", lambda lp: lps.append(lp) or real_solve(lp))
    clear(net, gens, regime, **kw)
    monkeypatch.setattr(lpmod, "solve", real_solve)
    return lps[0]


def _assert_cut_is_direct_build(template, loads=None, committed=None):
    want = reference_clearing_lp(template.net, template.gens, template.regime,
                                 loads=loads, committed=committed)
    assert lp_differences(template.cut(bus_loads(template.net, loads), committed).lp, want) == []


@pytest.mark.parametrize("name", _BUNDLED)
def test_cleared_lp_is_direct_build_on_bundled_scenarios(scenario_dir, monkeypatch, name):
    """Every regime the scenario names and every mode, aggregates on and off,
    every hour of the horizon."""
    sc = load_scenario(scenario_dir / name)
    regimes = list(sc.regimes.values()) + [ConstraintRegime(mode=m) for m in
                                           ("nodal", "zonal", "copper_plate")]
    regimes += [replace(r, reserve_req_mw=10.0, min_sync_mw=10.0) for r in regimes]
    for regime in regimes:
        for loads in sc.hourly_loads():
            got = _cleared_lp(monkeypatch, sc.network, sc.generators, regime, loads=loads)
            want = reference_clearing_lp(sc.network, sc.generators, regime, loads=loads)
            assert lp_differences(got, want) == [], (regime, loads)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 50_000))
def test_random_meshed_networks_clear_the_direct_build(seed):
    """Random meshed networks, with parallel lines from the extra meshing and
    interfaces between zones: the PTDF matrix is the reference loop's bit for
    bit, and the LP clear solves is the direct build in every mode."""
    rng = random.Random(seed)
    net = random_network(rng, max_buses=20)
    gens = random_gens(rng, net)
    want = reference_ptdf(net)
    assert (net.ptdf.shape, net.ptdf.tobytes()) == (want.shape, want.tobytes())
    for regime in (ConstraintRegime(mode="nodal", monitored_profile="all"), ZONAL, COPPER):
        with pytest.MonkeyPatch.context() as mp:
            got = _cleared_lp(mp, net, gens, regime)
        assert lp_differences(got, reference_clearing_lp(net, gens, regime)) == [], regime.mode


@pytest.mark.parametrize("n_units", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["nodal", "zonal", "copper_plate"])
def test_every_on_set_cut_from_one_template_is_direct_build(mode, n_units):
    """One template, every on-set of its units (the third not synchronous),
    with reserve and min_sync rows that drop out as units go."""
    net, gens = make_fourbus()
    gens[2] = replace(gens[2], synchronous=False)
    gens = gens[:n_units]
    regime = ConstraintRegime(mode=mode, reserve_req_mw=50.0, min_sync_mw=40.0)
    template = build_template(net, gens, regime)
    for bits in range(1 << len(gens)):
        committed = {g.id: bool(bits >> k & 1) for k, g in enumerate(gens)}
        _assert_cut_is_direct_build(template, committed=committed)


@pytest.mark.parametrize("mode", ["nodal", "zonal", "copper_plate"])
def test_zones_declared_out_of_bus_order(mode):
    """Balance right-hand sides sum each zone's loads in bus order, whatever
    order the zones are declared in; zone ZB holds three buses, the first of
    them the network's first bus."""
    buses = (
        Bus("b1", "ZB", 10.1, 300.0), Bus("b2", "ZA", 20.2, 300.0), Bus("b3", "ZB", 30.3, 300.0),
        Bus("b4", "ZB", 0.7, 300.0), Bus("b5", "ZA", 0.0),
    )
    lines = (
        Line("l12", "b1", "b2", 0.1, 50.0), Line("l23", "b2", "b3", 0.1, 50.0),
        Line("l34", "b3", "b4", 0.2, 50.0), Line("l45", "b4", "b5", 0.1, 50.0),
        Line("l15", "b1", "b5", 0.2, 50.0),
    )
    net = Network(buses, lines, ("ZA", "ZB"), (Interface("tie", (("l12", 1),), 40.0),), "b3")
    gens = [GeneratorSpec("G2", "b2", 0.0, 80.0, 20.0), GeneratorSpec("G4", "b4", 0.0, 80.0, 30.0),
            GeneratorSpec("G5", "b5", 0.0, 80.0, 25.0)]
    template = build_template(net, gens, ConstraintRegime(mode=mode, reserve_req_mw=5.0))
    for loads in (None, {"b1": 0.3, "b3": 0.1, "b4": 0.2}, {"b2": 0.0, "b4": 12.345}):
        _assert_cut_is_direct_build(template, loads=loads)


def test_location_is_bus_zone_or_system():
    """A bus clears and settles at itself under nodal, at its zone under
    zonal, and at the system under copper plate and a uniform price."""
    net, _ = make_fourbus()
    modes = ("nodal", "zonal", "copper_plate", "uniform_smp")
    assert [location(net, m, "b3") for m in modes] == ["b3", "Z1", "system", "system"]
    assert [location(net, m, "b4") for m in modes] == ["b4", "Z2", "system", "system"]


@pytest.mark.parametrize("mode", ["nodal", "zonal", "copper_plate"])
def test_bus_at_zero_load_in_one_hour_only(monkeypatch, mode):
    """The curtailment column of a bus is cut in the hour its load is 0 and
    kept in the hours around it, from the same template."""
    net, gens = make_fourbus()
    regime = ConstraintRegime(mode=mode)
    template = build_template(net, gens, regime)
    hours = [{"b1": 40.0, "b4": 500.0}, {"b1": 0.0, "b4": 520.0}, {"b1": 25.0, "b4": 480.0}]
    for loads in hours:
        _assert_cut_is_direct_build(template, loads=loads)
        got = _cleared_lp(monkeypatch, net, gens, regime, loads=loads)
        assert ("curt[b1]" in got.var_names) == (loads["b1"] > 0)
        assert lp_differences(got, reference_clearing_lp(net, gens, regime, loads=loads)) == []


@pytest.mark.parametrize("mode", ["nodal", "zonal", "copper_plate"])
def test_reserve_row_with_no_unit_on(monkeypatch, mode):
    net, gens = make_fourbus()
    regime = ConstraintRegime(mode=mode, reserve_req_mw=30.0)
    committed = {g.id: False for g in gens}
    got = _cleared_lp(monkeypatch, net, gens, regime, committed=committed)
    assert "reserve" not in got.row_labels
    assert lp_differences(got, reference_clearing_lp(net, gens, regime, committed=committed)) == []


@pytest.mark.parametrize("mode", ["nodal", "zonal", "copper_plate"])
def test_min_sync_row_with_no_synchronous_unit_on(monkeypatch, mode):
    net, gens = make_fourbus()
    gens = [replace(g, synchronous=g.id != "P1") for g in gens]
    regime = ConstraintRegime(mode=mode, min_sync_mw=20.0)
    for committed in ({"P1": True}, {"P1": True, "P3": True}):
        got = _cleared_lp(monkeypatch, net, gens, regime, committed=committed)
        assert ("min_sync" in got.row_labels) == ("P3" in committed)
        want = reference_clearing_lp(net, gens, regime, committed=committed)
        assert lp_differences(got, want) == []


def test_zonal_arcs_skip_same_zone_interfaces(monkeypatch):
    net = Network(
        (Bus("x", "ZA", 50.0, 200.0), Bus("y", "ZA", 0.0, 0.0), Bus("z", "ZB", 30.0, 200.0)),
        (Line("l", "x", "y", 0.1, 999.0), Line("m", "y", "z", 0.1, 999.0)),
        ("ZA", "ZB"),
        (Interface("inner", (("l", 1),), 5.0), Interface("tie", (("m", 1),), 40.0)),
        "x",
    )
    gens = [GeneratorSpec("gx", "x", 0.0, 30.0, 10.0), GeneratorSpec("gy", "y", 0.0, 60.0, 20.0),
            GeneratorSpec("gz", "z", 0.0, 60.0, 30.0)]
    got = _cleared_lp(monkeypatch, net, gens, ZONAL)
    assert "f[inner]" not in got.var_names and "f[tie]" in got.var_names
    assert lp_differences(got, reference_clearing_lp(net, gens, ZONAL)) == []


# ---------------------------------------------------------------------------
# the template's record of its limit rows
# ---------------------------------------------------------------------------

def _assert_record_is_the_limit_rows(template):
    """Every ``flow+-``/``iface+-`` row is listed by ``gates`` (nodal) or
    ``arcs`` (zonal), in row order, and nothing else is.  Under nodal each
    gate is a ``+`` row then its ``-`` row, the lines' before the
    interfaces', and each ``+`` row's activity at a solved case is its
    gate's PTDF row times the case's bus injections."""
    net, lp, first = template.net, template.lp, len(template.balance)
    labels = [label for label in lp.row_labels if label.startswith(("flow", "iface"))]
    assert list(lp.row_labels[first:first + len(labels)]) == labels
    if template.regime.mode != "nodal":
        assert template.gates == ()
        flows = [j for j, name in enumerate(lp.var_names) if name.startswith("f[")]
        assert len(template.arcs) == len(flows)
        want = []
        for j, (fz, tz, ttc) in zip(flows, template.arcs):
            column = lp.A[:, j]
            assert (column[template.balance[fz]], column[template.balance[tz]]) == (-1.0, 1.0)
            assert np.count_nonzero(column) == (2 if ttc is None else 4)
            if ttc is not None:
                rows = [first + len(want), first + len(want) + 1]
                assert (column[rows].tolist(), lp.rhs[rows].tolist()) == ([1.0, -1.0], [ttc, ttc])
                want += [f"iface+{lp.var_names[j][1:]}", f"iface-{lp.var_names[j][1:]}"]
        assert labels == want
        return
    assert template.arcs == ()
    members = {f"flow+[{l.id}]": ((l.id, 1),) for l in net.lines}
    members.update({f"iface+[{i.id}]": i.member_lines for i in net.interfaces})
    assert labels[1::2] == [label.replace("+", "-", 1) for label in labels[0::2]]
    assert list(template.gates) == [members[label] for label in labels[0::2]]
    is_line = [label.startswith("flow") for label in labels]
    assert is_line == sorted(is_line, reverse=True)

    case = template.cut(bus_loads(net, None))
    sol = lpmod.solve(case.lp)
    assert sol.status == "optimal"
    x = np.array(sol.primal)
    injection = np.array([-mw + (x[case.cvar[b.id]] if b.id in case.cvar else 0.0)
                          for b, mw in zip(net.buses, case.load)])
    for g in template.gens:
        injection[net.bus_index[g.bus_id]] += x[case.gvar[g.id]]
    line_row = dict(zip((l.id for l in net.lines), net.ptdf))
    for k, gate in enumerate(template.gates):
        ptdf_row = sum(sign * line_row[lid] for lid, sign in gate)
        assert case.lp.A[first + 2 * k] @ x == pytest.approx(ptdf_row @ injection, abs=1e-6)


@pytest.mark.parametrize("mode", ["nodal", "zonal"])
@pytest.mark.parametrize("name", _BUNDLED)
def test_template_record_is_its_limit_rows_on_bundled_scenarios(scenario_dir, name, mode):
    sc = load_scenario(scenario_dir / name)
    regimes = [r for r in sc.regimes.values() if r.mode == mode] + [ConstraintRegime(mode=mode)]
    regimes += [replace(r, enforce_interfaces=not r.enforce_interfaces) for r in regimes]
    for regime in regimes:
        _assert_record_is_the_limit_rows(build_template(sc.network, sc.generators, regime))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 50_000))
def test_template_record_is_its_limit_rows_on_random_networks(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_buses=12)
    gens = random_gens(rng, net)
    for regime in (ConstraintRegime(mode="nodal", monitored_profile="all"),
                   ConstraintRegime(mode="nodal", monitored_profile="all", enforce_interfaces=False),
                   ZONAL, ConstraintRegime(mode="zonal", enforce_interfaces=False)):
        _assert_record_is_the_limit_rows(build_template(net, gens, regime))
