"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with the checked quantities.

Criterion 11 (documentation): national-scale simulation magnitudes from
thousands-of-bus production models are explicitly not reproducible at desk
scale; criteria 6-9 are their property-based substitutes.  This module
therefore asserts orderings, conservation laws and sign patterns for those,
and exact worked-example values for the small systems.
"""
import random
import time
from dataclasses import replace

import pytest

from gridclear.analysis import evaluate_bid_deviation
from gridclear.cli import main, run_scheme
from gridclear.commitment import UcInfeasibleError, run_dauc_ruc, solve_uc
from gridclear.dispatch import (
    ConstraintRegime,
    clear,
    with_forced_bounds,
)
from gridclear.lp import solve
from gridclear.scenario import load_scenario
from gridclear.settlement import settle_redispatch
from helpers import random_gens, random_network, random_uc_instance, uc_enumeration_oracle, uc_net
from test_lp import build_random_lp, check_kkt

REL = 1e-4


def _surplus(net, gens, result):
    utility = sum(b.wtp * result.served_mw[b.id] for b in net.buses)
    return utility - result.total_cost


def _fully_served(result):
    return result.feasible


# ---------------------------------------------------------------------------

def test_criterion_01_fourbus_nodal_reproduction(scenario_dir, tmp_path):
    t0 = time.perf_counter()
    sc = load_scenario(scenario_dir / "fourbus.scn")
    outcome = run_scheme(sc, "nodal")
    elapsed = time.perf_counter() - t0

    r = outcome.dispatch
    assert [r.gen_mw[g] for g in ("P1", "P2", "P3", "P4")] == pytest.approx(
        [175.0, 100.0, 225.0, 300.0], rel=REL
    )
    prices = outcome.prices.prices[0]
    assert [prices[b] for b in ("b1", "b2", "b3", "b4")] == pytest.approx(
        [10.0, 25.0, 40.0, 50.0], rel=REL
    )
    s = outcome.settlement
    assert r.total_cost == pytest.approx(26750.0, rel=REL)
    assert s.total_market_revenue == pytest.approx(28250.0, rel=REL)
    assert s.consumer_market_payment == pytest.approx(40000.0, rel=REL)
    assert s.congestion_rent == pytest.approx(11750.0, rel=REL)
    assert s.social_surplus == pytest.approx(53250.0, rel=REL)
    assert elapsed < 1.0

    code = main(["clear", str(scenario_dir / "fourbus.scn"), "--scheme", "nodal",
                 "--out", str(tmp_path), "--no-timestamp"])
    assert code == 0
    print(f"\nACCEPTANCE 1 PASS: nodal (175,100,225,300) @ (10,25,40,50), "
          f"cost 26750, revenue 28250, payment 40000, rent 11750, surplus 53250, "
          f"{elapsed:.3f}s")


def test_criterion_02_fourbus_zonal_infeasibility(scenario_dir, tmp_path, capsys):
    sc = load_scenario(scenario_dir / "fourbus.scn")
    outcome = run_scheme(sc, "zonal")
    r = outcome.dispatch
    assert [r.gen_mw[g] for g in ("P1", "P2", "P3", "P4")] == pytest.approx(
        [200.0, 100.0, 200.0, 300.0], rel=REL
    )
    prices = outcome.prices.prices[0]
    assert [prices[z] for z in ("Z1", "Z2")] == pytest.approx([40.0, 50.0], rel=REL)
    assert r.flows.flows_mw["l13"] == pytest.approx(500.0 / 3.0, rel=REL)
    assert r.flows.flows_mw["l13"] > 150.0
    assert "l13" in r.flows.violations

    code = main(["clear", str(scenario_dir / "fourbus.scn"), "--scheme", "zonal",
                 "--out", str(tmp_path), "--no-timestamp"])
    assert code == 2
    flows = (tmp_path / "fourbus_zonal_flows.csv").read_text()
    assert "0,l13,line,166.67,150.00,yes" in flows
    print("\nACCEPTANCE 2 PASS: zonal (200,100,200,300) @ (40,50), "
          "line l13 at 166.67 MW > 150 MW, exit code 2")


def test_criterion_03_tie270_pro_rata(scenario_dir):
    sc = load_scenario(scenario_dir / "fourbus_tie270.scn")
    outcome = run_scheme(sc, "zonal")
    r = outcome.dispatch
    s = outcome.settlement
    assert [r.gen_mw[g] for g in ("P1", "P2", "P3", "P4")] == pytest.approx(
        [180.0, 90.0, 0.0, 530.0], rel=REL
    )
    prices = outcome.prices.prices[0]
    assert [prices[z] for z in ("Z1", "Z2")] == pytest.approx([10.0, 50.0], rel=REL)
    assert r.total_cost == pytest.approx(29200.0, rel=REL)
    assert s.congestion_rent == pytest.approx(10800.0, rel=REL)
    assert s.social_surplus == pytest.approx(50800.0, rel=REL)
    print("\nACCEPTANCE 3 PASS: tightened-interface zonal (180,90,0,530) @ (10,50), "
          "cost 29200, rent 10800, surplus 50800")


def test_criterion_04_forced_bound_case(scenario_dir):
    sc = load_scenario(scenario_dir / "fourbus.scn")
    outcome = run_scheme(sc, "zonal_cm")
    nodal = run_scheme(sc, "nodal")
    r = outcome.dispatch
    s = outcome.settlement
    for gid in r.gen_mw:
        assert r.gen_mw[gid] == pytest.approx(nodal.dispatch.gen_mw[gid], rel=REL, abs=1e-6)
    prices = outcome.prices.prices[0]
    assert [prices[z] for z in ("Z1", "Z2")] == pytest.approx([10.0, 50.0], rel=REL)
    assert s.total_uplift == pytest.approx(6750.0, rel=REL)
    assert s.consumer_total_payment == pytest.approx(46750.0, rel=REL)
    assert s.congestion_rent == pytest.approx(20000.0, rel=REL)
    assert s.social_surplus == pytest.approx(53250.0, rel=REL)
    print("\nACCEPTANCE 4 PASS: forced-bound dispatch equals nodal, prices (10,50), "
          "uplift 6750, consumer total 46750, rent 20000, surplus 53250")


def test_criterion_05_twobus_prices(scenario_dir):
    sc = load_scenario(scenario_dir / "twobus.scn")
    copper = run_scheme(sc, "copper")
    area_a = sum(copper.dispatch.gen_mw[g] for g in ("A1", "A2", "A3", "A4"))
    area_b = sum(copper.dispatch.gen_mw[g] for g in ("B1", "B2"))
    assert area_a == pytest.approx(700.0, rel=REL)
    assert area_b == pytest.approx(300.0, rel=REL)
    assert copper.prices.prices[0]["system"] == pytest.approx(90.0, rel=REL)

    uniform = run_scheme(sc, "uniform")
    assert uniform.prices.prices[0]["system"] == pytest.approx(100.0, rel=REL)

    nodal = run_scheme(sc, "nodal")
    assert nodal.prices.prices[0]["a"] == pytest.approx(75.0, rel=REL)
    assert nodal.prices.prices[0]["b"] == pytest.approx(100.0, rel=REL)
    print("\nACCEPTANCE 5 PASS: copper price 90 with (700,300) split; "
          "constrained uniform price 100; nodal price_A 75")


def test_criterion_06_surplus_and_cost_ordering():
    copper_regime = ConstraintRegime(mode="copper_plate")
    zonal_regime = ConstraintRegime(mode="zonal")
    nodal_regime = ConstraintRegime(mode="nodal", monitored_profile="all")
    compared = 0
    ordered = 0
    seed = 0
    rng_master = random.Random(2024)
    while compared < 50:
        seed += 1
        rng = random.Random(rng_master.randint(0, 10**9) + seed)
        net = random_network(rng)
        gens = random_gens(rng, net)
        rn = clear(net, gens, nodal_regime)
        if not _fully_served(rn):
            continue
        rc = clear(net, gens, copper_regime)
        rz = clear(net, gens, zonal_regime)
        if _fully_served(rc) and _fully_served(rz):
            assert rc.total_cost <= rz.total_cost + 1e-6
            assert rz.total_cost <= rn.total_cost + 1e-6
            ordered += 1
        # random forced bounds; compare only physically deliverable outcomes
        bounds = {}
        for g in rng.sample(gens, min(2, len(gens))):
            bounds[g.id] = (round(rng.uniform(0.0, g.p_max * 0.4), 2), None)
        rf = clear(net, with_forced_bounds(gens, bounds), zonal_regime)
        if not _fully_served(rf) or rf.flows.violations:
            continue
        assert _surplus(net, gens, rf) <= _surplus(net, gens, rn) + 1e-6
        compared += 1
    assert compared >= 50 and ordered >= 50
    print(f"\nACCEPTANCE 6 PASS: surplus(nodal) >= surplus(zonal+forced bounds) on "
          f"{compared} scenarios; cost(copper) <= cost(zonal) <= cost(nodal) on "
          f"{ordered}; zero violations")


def test_criterion_07_uc_oracle_equivalence():
    rng_master = random.Random(777)
    copper = ConstraintRegime(mode="copper_plate")
    checked = 0
    exact = 0
    while checked < 100:
        rng = random.Random(rng_master.randint(0, 10**9))
        units, loads = random_uc_instance(rng)
        net = uc_net(units)
        oracle = uc_enumeration_oracle(units, loads, wtp=500.0)
        try:
            sched = solve_uc(net, units, [{"n0": l} for l in loads], copper)
        except UcInfeasibleError:
            assert oracle is None
            checked += 1
            continue
        assert oracle is not None
        assert sched.objective == pytest.approx(oracle, abs=1e-9)
        if sched.objective == oracle:
            exact += 1
        checked += 1
    print(f"\nACCEPTANCE 7 PASS: commitment objective equals exhaustive enumeration "
          f"on {checked} instances ({exact} bit-exact)")


def test_criterion_08_dauc_ruc_asymmetry(scenario_dir):
    sc = load_scenario(scenario_dir / "fivebus_ruc.scn")
    dauc, ruc, delta = run_dauc_ruc(
        sc.network, sc.generators, sc.hourly_loads(),
        sc.regimes["DAUC"], sc.regimes["RUC"],
    )
    hours = len(dauc.hourly_results)
    assert ruc.total_cost >= dauc.total_cost - 1e-9
    for t in range(hours):
        total = sum(delta[g][t] for g in delta)
        assert total == pytest.approx(0.0, abs=1e-6)
    redis = settle_redispatch(delta, sc.network, sc.generators, [0.0] * hours)  # energy only
    assert redis.zone_coff_mwh["ZE"] > redis.zone_con_mwh["ZE"]
    assert redis.zone_con_mwh["ZI"] > redis.zone_coff_mwh["ZI"]
    print(f"\nACCEPTANCE 8 PASS: reliability cost {ruc.total_cost:.0f} >= day-ahead "
          f"{dauc.total_cost:.0f}; per-hour redispatch sums to zero; export zone "
          f"constrained-off dominant, import zone constrained-on dominant")


def test_criterion_09_strategic_bidding(scenario_dir):
    sc = load_scenario(scenario_dir / "twobus.scn")
    net, gens = sc.network, sc.generators
    zonal_regime = sc.regimes["zonal"]
    uniform = evaluate_bid_deviation(net, gens, "A3", 70.0, scheme="uniform",
                                     regime=zonal_regime)
    nodal = evaluate_bid_deviation(net, gens, "A3", 70.0, scheme="nodal")
    assert uniform.profit_deviated > 0.0
    assert nodal.profit_deviated <= 1e-9
    assert uniform.welfare_delta <= 1e-9
    assert nodal.welfare_delta <= 1e-9
    # verify the welfare figure against an explicit truthful re-solve
    truthful = clear(net, gens, zonal_regime)
    deviated = clear(net, [replace(g, ic=70.0) if g.id == "A3" else g for g in gens], zonal_regime)
    truthful_cost = sum(g.ic * truthful.gen_mw[g.id] for g in gens)
    deviated_cost = sum(g.ic * deviated.gen_mw[g.id] for g in gens)
    assert uniform.welfare_delta == pytest.approx(truthful_cost - deviated_cost, abs=1e-6)
    print(f"\nACCEPTANCE 9 PASS: under-bidding profit {uniform.profit_deviated:.0f} > 0 "
          f"under uniform pricing, {nodal.profit_deviated:.0f} <= 0 under nodal; "
          f"welfare delta {uniform.welfare_delta:.0f} <= 0")


def test_criterion_10_lp_duality_suite():
    rng_master = random.Random(31337)
    optimal = 0
    total = 0
    while optimal < 200:
        rng = random.Random(rng_master.randint(0, 10**9))
        lp = build_random_lp(rng, max_vars=30)
        sol = solve(lp)
        total += 1
        if sol.status != "optimal":
            continue
        check_kkt(lp, sol, tol=1e-6)
        again = solve(lp)
        assert repr(sol) == repr(again)
        optimal += 1
    print(f"\nACCEPTANCE 10 PASS: {optimal} random LPs solved with duality gap and "
          f"complementary slackness within 1e-6; byte-identical re-solves "
          f"({total} attempted)")
