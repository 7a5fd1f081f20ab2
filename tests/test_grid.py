import math
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gridclear.grid import (
    MAGNITUDE,
    REACTANCE,
    Bus,
    GridStructureError,
    Interface,
    Line,
    Network,
    UnbalancedInjectionError,
    build_ptdf,
    evaluate_flows,
)
from helpers import btheta_flows, random_network


def test_triangle_ptdf_is_two_thirds(triangle):
    # inject 1 MW at n1, withdraw at n3 (slack n1, so read the sensitivity of
    # the n3 column and negate: withdrawal at n3 equals -1 injection there)
    flows = evaluate_flows(triangle, {"n1": 1.0, "n3": -1.0})
    assert flows.flows_mw["a13"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert flows.flows_mw["a12"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert flows.flows_mw["a23"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_slack_column_is_zero(triangle):
    ptdf = build_ptdf(triangle)
    col = ptdf[:, triangle.bus_index["n1"]].tolist()  # lines a12, a13, a23
    assert col == [0.0, 0.0, 0.0]


def test_slack_self_injection_gives_zero_flows(triangle):
    flows = evaluate_flows(triangle, {"n1": 0.0})
    assert all(v == 0.0 for v in flows.flows_mw.values())


def test_two_bus_ptdf_is_unity():
    net = Network(
        (Bus("x", "Z"), Bus("y", "Z")),
        (Line("l", "x", "y", 0.1, 50.0),),
        ("Z",), (), "y",
    )
    ptdf = build_ptdf(net)
    assert ptdf[0, net.bus_index["x"]] == pytest.approx(1.0, abs=1e-12)
    assert ptdf[0, net.bus_index["y"]] == 0.0


def test_fourbus_zonal_dispatch_overloads_line_13(fourbus):
    net, _ = fourbus
    inj = {"b1": 200.0, "b2": 100.0, "b3": 200.0, "b4": 300.0 - 800.0}
    flows = evaluate_flows(net, inj)
    assert flows.flows_mw["l13"] == pytest.approx(500.0 / 3.0, abs=1e-6)
    assert "l13" in flows.violations


def test_fourbus_nodal_dispatch_is_exactly_at_limit(fourbus):
    net, _ = fourbus
    inj = {"b1": 175.0, "b2": 100.0, "b3": 225.0, "b4": 300.0 - 800.0}
    flows = evaluate_flows(net, inj)
    assert flows.flows_mw["l13"] == pytest.approx(150.0, abs=1e-9)
    assert flows.violations == ()


def test_zero_injections_zero_flows(fourbus):
    net, _ = fourbus
    flows = evaluate_flows(net, {})
    assert set(flows.flows_mw.values()) == {0.0}


def test_interface_flow_at_ttc(fourbus):
    net, _ = fourbus
    inj = {"b1": 175.0, "b2": 100.0, "b3": 225.0, "b4": -500.0}
    assert evaluate_flows(net, inj).interface_flows_mw["tie"] == pytest.approx(500.0, abs=1e-9)


def test_interface_flow_tie270_case(fourbus):
    net, _ = fourbus
    inj = {"b1": 180.0, "b2": 90.0, "b3": 0.0, "b4": 530.0 - 800.0}
    assert evaluate_flows(net, inj).interface_flows_mw["tie"] == pytest.approx(270.0, abs=1e-9)


def test_unbalanced_injection_rejected(triangle):
    with pytest.raises(UnbalancedInjectionError):
        evaluate_flows(triangle, {"n1": 5.0})


def test_disconnected_network_rejected():
    with pytest.raises(GridStructureError, match="not connected"):
        Network(
            (Bus("p", "Z"), Bus("q", "Z"), Bus("r", "Z")),
            (Line("l", "p", "q", 0.1, 10.0),),
            ("Z",), (), "p",
        )


def test_structural_validation():
    with pytest.raises(GridStructureError):
        Line("bad", "x", "x", 0.1, 10.0)
    with pytest.raises(GridStructureError):
        Line("bad", "x", "y", -0.1, 10.0)
    with pytest.raises(GridStructureError):
        Bus("x", "Z", load_mw=-1.0)
    with pytest.raises(GridStructureError):
        Bus("x", "Z", load_mw=10.0, wtp=0.0)
    with pytest.raises(GridStructureError):
        Interface("i", (), 10.0)
    with pytest.raises(GridStructureError, match="listed twice"):
        Interface("i", (("l", 1), ("l", -1)), 10.0)


def test_unknown_interface_member_rejected():
    with pytest.raises(GridStructureError, match="unknown line"):
        Network(
            (Bus("x", "Z"), Bus("y", "Z")),
            (Line("l", "x", "y", 0.1, 50.0),),
            ("Z",), (Interface("i", (("nope", 1),), 10.0),), "x",
        )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_ptdf_matches_btheta_oracle(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_buses=20)
    buses = [b.id for b in net.buses]
    inj = {b: rng.uniform(-50, 50) for b in buses}
    total = sum(inj.values())
    inj[net.slack_bus] -= total  # balance at the slack
    got = evaluate_flows(net, inj).flows_mw
    want = btheta_flows(net, inj)
    for lid in want:
        assert got[lid] == pytest.approx(want[lid], abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_flow_antisymmetry(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_buses=12)
    buses = [b.id for b in net.buses]
    src, dst = rng.sample(buses, 2)
    fwd = evaluate_flows(net, {src: 10.0, dst: -10.0}).flows_mw
    rev = evaluate_flows(net, {src: -10.0, dst: 10.0}).flows_mw
    for lid in fwd:
        assert fwd[lid] == pytest.approx(-rev[lid], abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_interface_flow_is_signed_member_sum(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_buses=10, n_zones=2)
    if not net.interfaces:
        return
    buses = [b.id for b in net.buses]
    inj = {b: rng.uniform(-30, 30) for b in buses}
    inj[net.slack_bus] -= sum(inj.values())
    flows = evaluate_flows(net, inj).flows_mw
    iflows = evaluate_flows(net, inj).interface_flows_mw
    for itf in net.interfaces:
        expected = sum(sign * flows[lid] for lid, sign in itf.member_lines)
        assert iflows[itf.id] == expected  # exact: same summation


@pytest.mark.parametrize("reactances, named", [
    ((5e-324, 0.1, 0.1), "line lab: reactance 5e-324 outside"),
    ((1e-310, 0.1, 0.1), "line lab: reactance 1e-310 outside"),
    ((0.1, 1e-308, 1e-308), "line lbc: reactance 1e-308 outside"),
], ids=["subnormal", "1e-310", "overflowing sum"])
def test_reactances_near_the_smallest_floats_are_rejected_at_construction(reactances, named):
    # a susceptance of inf would give a nan PTDF, or a finite but wrong one;
    # such a line is never built
    x_ab, x_bc, x_ac = reactances
    with pytest.raises(GridStructureError, match=named):
        Line("lab", "a", "b", x_ab, 100.0), Line("lbc", "b", "c", x_bc, 100.0), Line("lac", "a", "c", x_ac, 100.0)


_PAST = math.nextafter(MAGNITUDE, math.inf)


@pytest.mark.parametrize("make, bound, past", [
    (lambda v: Bus("x", "Z", load_mw=v, wtp=1.0), MAGNITUDE, _PAST),
    (lambda v: Bus("x", "Z", wtp=v), MAGNITUDE, _PAST),
    (lambda v: Bus("x", "Z", wtp=v), -MAGNITUDE, -_PAST),
    (lambda v: Line("l", "x", "y", 0.1, v), MAGNITUDE, _PAST),
    (lambda v: Line("l", "x", "y", v, 100.0), REACTANCE[1], math.nextafter(REACTANCE[1], math.inf)),
    (lambda v: Line("l", "x", "y", v, 100.0), REACTANCE[0], math.nextafter(REACTANCE[0], 0.0)),
    (lambda v: Interface("i", (("l", 1),), v), MAGNITUDE, _PAST),
], ids=["load_mw", "wtp", "negative wtp", "limit_mw", "reactance high", "reactance low", "ttc_mw"])
def test_network_objects_hold_their_figures_to_the_range(make, bound, past):
    # library callers meet the rule a scenario file does: a bound itself
    # builds, one float past it, NaN and infinity do not
    make(bound)
    for v in (past, math.nan, math.inf):
        with pytest.raises(GridStructureError, match="outside"):
            make(v)
