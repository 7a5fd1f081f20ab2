import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gridclear.dispatch import (
    ConstraintRegime,
    GeneratorSpec,
    clear,
    with_forced_bounds,
)
from gridclear.grid import Bus, Interface, Line, Network, build_ptdf
from helpers import make_fourbus, random_gens, random_network

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
    assert r.line_flow_mw["l13"] == pytest.approx(150.0, abs=1e-6)
    assert r.line_flow_mw["l34"] == pytest.approx(500.0, abs=1e-6)
    assert r.physical_violations == ()


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
    assert r.line_flow_mw["l13"] == pytest.approx(500.0 / 3.0, abs=1e-6)
    assert r.physical_violations == ("l13",)
    assert any("166.67" in v for v in r.violations)


def test_fourbus_tie270_pro_rata(fourbus):
    net, gens = make_fourbus(ttc=270.0)
    r = clear(net, gens, ZONAL)
    assert [r.gen_mw[g] for g in ("P1", "P2", "P3", "P4")] == pytest.approx(
        [180.0, 90.0, 0.0, 530.0], abs=1e-6
    )
    assert [r.balance_duals[z] for z in ("Z1", "Z2")] == pytest.approx([10.0, 50.0], abs=1e-6)
    assert r.total_cost == pytest.approx(29200.0, rel=1e-9)
    assert r.physical_violations == ()


def test_fourbus_forced_min_matches_nodal_dispatch(fourbus):
    net, gens = fourbus
    r = clear(net, with_forced_bounds(gens, {"P3": (225.0, None)}), ZONAL)
    assert [r.gen_mw[g] for g in ("P1", "P2", "P3", "P4")] == pytest.approx(
        [175.0, 100.0, 225.0, 300.0], abs=1e-6
    )
    assert [r.balance_duals[z] for z in ("Z1", "Z2")] == pytest.approx([10.0, 50.0], abs=1e-6)
    assert r.total_cost == pytest.approx(26750.0, rel=1e-9)
    assert r.gen_flags["P3"] == "at_forced_min"
    assert r.physical_violations == ()


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
    assert r.interface_flow_mw["tie"] == pytest.approx(100.0, abs=1e-6)
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
    assert r.curtailment_mw["n"] == pytest.approx(40.0)
    assert any(v.startswith("curtailment") for v in r.violations)
    assert r.balance_duals["system"] == pytest.approx(400.0)  # scarcity at wtp


def test_committed_subset_excludes_offline_units():
    net = Network((Bus("n", "Z", 50.0, 400.0),), (), ("Z",), (), "n")
    gens = [GeneratorSpec("on", "n", 0.0, 60.0, 20.0), GeneratorSpec("off", "n", 0.0, 60.0, 5.0)]
    r = clear(net, gens, COPPER, committed={"on": True, "off": False})
    assert r.gen_mw["off"] == 0.0
    assert r.gen_flags["off"] == "offline"
    assert r.gen_mw["on"] == pytest.approx(50.0)


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
        GeneratorSpec("wind", "n", 0.0, 100.0, 1.0),
        GeneratorSpec("steam", "n", 0.0, 100.0, 40.0),
    ]
    regime = ConstraintRegime(mode="copper_plate", min_sync_mw=30.0)
    r = clear(net, gens, regime, synchronous={"steam"})
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
    assert r.interface_flow_mw["gate"] == pytest.approx(120.0, abs=1e-6)
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
    for bus in ptdf.bus_ids:
        expect = lam_ref - sum(
            ptdf.sensitivity(lid, bus) * m for lid, m in mu.items()
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
