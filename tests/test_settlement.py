from dataclasses import replace

import pytest

from gridclear.commitment import run_dauc_ruc, single_interval_schedule
from gridclear.dispatch import (
    ConstraintRegime,
    GeneratorSpec,
    clear,
    with_forced_bounds,
)
from gridclear.grid import Bus, Network
from gridclear.pricing import form_prices, form_smp
from gridclear.scenario import load_scenario
from gridclear.settlement import (
    AccountingIdentityError,
    SettlementKeyError,
    as_cleared_costs,
    compute_uplift,
    settle_energy,
    settle_redispatch,
    summarize,
)
from helpers import make_fourbus

NODAL = ConstraintRegime(mode="nodal", monitored_profile="nodal", enforce_interfaces=False)
ZONAL = ConstraintRegime(mode="zonal")


def _nodal_bundle(fourbus):
    net, gens = fourbus
    result = clear(net, gens, NODAL)
    prices = form_prices("nodal", result, net, gens)
    return net, gens, result, prices


# ---------------------------------------------------------------------------
# energy settlement
# ---------------------------------------------------------------------------

def test_fourbus_nodal_revenue(fourbus):
    net, gens, result, prices = _nodal_bundle(fourbus)
    revenue = settle_energy(prices, result, net, gens)
    assert sum(revenue.values()) == pytest.approx(28250.0, rel=1e-9)
    assert revenue["P1"] == pytest.approx(1750.0)
    assert revenue["P2"] == pytest.approx(2500.0)


def test_forced_bound_market_revenue(fourbus):
    net, gens = fourbus
    result = clear(net, with_forced_bounds(gens, {"P3": (225.0, None)}), ZONAL)
    prices = form_prices("zonal", result, net, gens)
    revenue = settle_energy(prices, result, net, gens)
    assert sum(revenue.values()) == pytest.approx(20000.0, rel=1e-9)
    assert revenue["P3"] == pytest.approx(2250.0)


def test_missing_price_key_raises(fourbus):
    net, gens, result, _ = _nodal_bundle(fourbus)
    zonal_prices = form_prices("zonal", clear(net, gens, ZONAL), net, gens)
    broken = zonal_prices.__class__(
        scheme="zonal", prices=({"Z1": 40.0},), decomposition=(), marginal_sets=(),
    )
    zres = clear(net, gens, ZONAL)
    with pytest.raises(SettlementKeyError):
        settle_energy(broken, zres, net, gens)


# ---------------------------------------------------------------------------
# uplift
# ---------------------------------------------------------------------------

def test_forced_bound_uplift_is_make_whole(fourbus):
    net, gens = fourbus
    result = clear(net, with_forced_bounds(gens, {"P3": (225.0, None)}), ZONAL)
    prices = form_prices("zonal", result, net, gens)
    revenue = settle_energy(prices, result, net, gens)
    cleared = as_cleared_costs(result, gens)
    uplift = compute_uplift(revenue, cleared)
    assert cleared["P3"] == pytest.approx(9000.0)
    assert uplift["P3"] == pytest.approx(6750.0)
    assert uplift["P1"] == 0.0 and uplift["P4"] == 0.0


def test_profitable_generator_gets_no_uplift():
    assert compute_uplift({"g": 500.0}, {"g": 300.0})["g"] == 0.0


def test_nodal_dispatch_has_zero_uplift(fourbus):
    net, gens, result, prices = _nodal_bundle(fourbus)
    uplift = compute_uplift(settle_energy(prices, result, net, gens), as_cleared_costs(result, gens))
    assert all(v == 0.0 for v in uplift.values())


# ---------------------------------------------------------------------------
# redispatch compensation
# ---------------------------------------------------------------------------

ONE_BUS = Network((Bus("n", "Z"),), (), ("Z",), (), "n")  # where the units below sit


def test_constrained_on_paid_at_cost():
    g = GeneratorSpec("g", "n", 0.0, 100.0, 80.0)
    out = settle_redispatch({"g": (10.0,)}, ONE_BUS, [g], [100.0])
    assert out.con_mwh["g"] == pytest.approx(10.0)
    assert out.con_payment["g"] == pytest.approx(800.0)
    assert out.coff_payment["g"] == 0.0


def test_constrained_off_paid_lost_margin():
    g = GeneratorSpec("g", "n", 0.0, 100.0, 75.0)
    out = settle_redispatch({"g": (-10.0,)}, ONE_BUS, [g], [100.0])
    assert out.coff_mwh["g"] == pytest.approx(10.0)
    assert out.coff_payment["g"] == pytest.approx(250.0)
    assert out.con_payment["g"] == 0.0


def test_out_of_margin_constrained_off_pays_zero():
    g = GeneratorSpec("g", "n", 0.0, 100.0, 120.0)  # ic above price
    out = settle_redispatch({"g": (-10.0,)}, ONE_BUS, [g], [100.0])
    assert out.coff_payment["g"] == 0.0


@pytest.mark.parametrize("hours", [0, 2])
def test_redispatch_series_not_as_long_as_the_prices_raises(hours):
    g = GeneratorSpec("g", "n", 0.0, 100.0, 75.0)
    with pytest.raises(ValueError, match=f"price series covers 1 hours, unit 'g' has {hours}"):
        settle_redispatch({"g": (5.0,) * hours}, ONE_BUS, [g], [100.0])


def test_zero_redispatch_zero_payments():
    g = GeneratorSpec("g", "n", 0.0, 100.0, 75.0)
    out = settle_redispatch({"g": (0.0,)}, ONE_BUS, [g], [100.0])
    assert out.con_payment["g"] == 0.0 and out.coff_payment["g"] == 0.0


def test_zone_sums_match_record(scenario_dir):
    sc = load_scenario(scenario_dir / "fivebus_ruc.scn")
    dauc, _, delta = run_dauc_ruc(
        sc.network, sc.generators, sc.hourly_loads(),
        sc.regimes["DAUC"], sc.regimes["RUC"],
    )
    out = settle_redispatch(delta, sc.network, sc.generators, [0.0] * len(dauc.hourly_results))
    assert out.zone_con_mwh == pytest.approx({"ZE": 200.0, "ZI": 100.0})
    assert out.zone_coff_mwh == pytest.approx({"ZE": 300.0, "ZI": 0.0})
    assert list(out.zone_con_mwh) == list(sc.network.zones)
    total_con = sum(out.zone_con_mwh.values())
    total_coff = sum(out.zone_coff_mwh.values())
    assert total_con - total_coff == pytest.approx(0.0, abs=1e-6)


def test_zero_record_gives_zero_zone_sums():
    g = GeneratorSpec("g", "n", 0.0, 100.0, 75.0)
    out = settle_redispatch({"g": (0.0, 0.0)}, ONE_BUS, [g], [100.0, 100.0])
    assert (out.zone_con_mwh, out.zone_coff_mwh) == ({"Z": 0.0}, {"Z": 0.0})


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def test_fourbus_nodal_summary(fourbus):
    net, gens, result, prices = _nodal_bundle(fourbus)
    report = summarize(prices, result, net, gens)
    assert report.total_market_revenue == pytest.approx(28250.0, rel=1e-9)
    assert report.consumer_market_payment == pytest.approx(40000.0, rel=1e-9)
    assert report.congestion_rent == pytest.approx(11750.0, rel=1e-9)
    assert report.total_cost == pytest.approx(26750.0, rel=1e-9)
    assert report.social_surplus == pytest.approx(53250.0, rel=1e-9)
    assert report.total_uplift == 0.0


def test_fourbus_tie270_summary():
    net, gens = make_fourbus(ttc=270.0)
    result = clear(net, gens, ZONAL)
    report = summarize(form_prices("zonal", result, net, gens), result, net, gens)
    assert report.total_market_revenue == pytest.approx(29200.0, rel=1e-9)
    assert report.consumer_market_payment == pytest.approx(40000.0, rel=1e-9)
    assert report.congestion_rent == pytest.approx(10800.0, rel=1e-9)
    assert report.social_surplus == pytest.approx(50800.0, rel=1e-9)


def test_fourbus_forced_bound_summary(fourbus):
    net, gens = fourbus
    result = clear(net, with_forced_bounds(gens, {"P3": (225.0, None)}), ZONAL)
    report = summarize(form_prices("zonal", result, net, gens), result, net, gens)
    assert report.total_market_revenue + report.total_uplift == pytest.approx(26750.0, rel=1e-9)
    assert report.total_uplift == pytest.approx(6750.0, rel=1e-9)
    assert report.consumer_total_payment == pytest.approx(46750.0, rel=1e-9)
    assert report.congestion_rent == pytest.approx(20000.0, rel=1e-9)
    assert report.social_surplus == pytest.approx(53250.0, rel=1e-9)


def test_money_conservation_identity(fourbus):
    net, gens, result, prices = _nodal_bundle(fourbus)
    report = summarize(prices, result, net, gens)
    assert report.consumer_total_payment == pytest.approx(
        report.total_market_revenue + report.total_uplift + report.congestion_rent,
        abs=1e-6,
    )


def test_surplus_identity_matches_component_sum(fourbus):
    # surplus == producer surplus + consumer surplus + congestion rent
    net, gens, result, prices = _nodal_bundle(fourbus)
    report = summarize(prices, result, net, gens)
    producer = report.total_market_revenue + report.total_uplift - report.total_cost
    utility = sum(b.wtp * result.served_mw[b.id] for b in net.buses)
    consumer = utility - report.consumer_total_payment
    assert report.social_surplus == pytest.approx(
        producer + consumer + report.congestion_rent, abs=1e-6
    )


def test_uniform_scheme_has_zero_rent(twobus):
    net, gens = twobus
    result = clear(net, gens, ZONAL)
    prices = form_smp(single_interval_schedule(result, gens), net, gens)
    report = summarize(prices, result, net, gens)
    assert report.congestion_rent == pytest.approx(0.0, abs=1e-6)
    assert report.consumer_market_payment == pytest.approx(100.0 * 1000.0, rel=1e-9)


def test_inconsistent_inputs_raise_identity_error(fourbus):
    net, gens, result, prices = _nodal_bundle(fourbus)
    # a bus price that is not the clearing's dual (b1 injects 175 MW and
    # serves no load) breaks the payment-minus-revenue cross-check
    perturbed = replace(prices, prices=({**prices.prices[0], "b1": prices.prices[0]["b1"] + 1.0},))
    with pytest.raises(AccountingIdentityError, match="congestion_rent"):
        summarize(perturbed, result, net, gens)


def test_multi_hour_schedule_settlement(scenario_dir):
    sc = load_scenario(scenario_dir / "fivebus_ruc.scn")
    dauc, _, _ = run_dauc_ruc(
        sc.network, sc.generators, sc.hourly_loads(),
        sc.regimes["DAUC"], sc.regimes["RUC"],
    )
    prices = form_smp(dauc, sc.network, sc.generators)
    report = summarize(prices, dauc, sc.network, sc.generators)
    # as-cleared cost covers energy, no-load hours, and starts
    ge1 = report.per_generator["Ge1"]
    assert ge1.as_cleared_cost == pytest.approx(2 * (10.0 * 300.0 + 100.0) + 500.0)
    assert report.total_cost == pytest.approx(dauc.total_cost, rel=1e-9)
    assert report.consumer_total_payment == pytest.approx(
        report.total_market_revenue + report.total_uplift + report.congestion_rent,
        abs=1e-6,
    )


def test_daucruc_settlement_is_consistent(scenario_dir):
    sc = load_scenario(scenario_dir / "fivebus_ruc.scn")
    dauc, ruc, delta = run_dauc_ruc(
        sc.network, sc.generators, sc.hourly_loads(),
        sc.regimes["DAUC"], sc.regimes["RUC"],
    )
    smp = form_smp(dauc, sc.network, sc.generators)
    series = [smp.prices[t]["system"] for t in range(len(dauc.hourly_results))]
    out = settle_redispatch(delta, sc.network, sc.generators, series)
    assert out.zone_con_mwh["ZI"] == pytest.approx(100.0)
    assert out.zone_coff_mwh["ZE"] == pytest.approx(300.0)
    # constrained-on compensation at incremental cost
    assert out.con_payment["Gi1"] == pytest.approx(100.0 * 60.0)
    # constrained-off: lost margin against the hourly uniform price
    expected = sum(150.0 * max(0.0, p - 10.0) for p in series)
    assert out.coff_payment["Ge1"] == pytest.approx(expected)
