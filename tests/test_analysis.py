import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gridclear.analysis import BID_SCHEMES, evaluate_bid_deviation, price_stats
from gridclear.cli import run_scheme
from gridclear.dispatch import ConstraintRegime, clear
from gridclear.pricing import SCHEMES
from gridclear.scenario import load_scenario
from gridclear.settlement import price_at

ZONAL = ConstraintRegime(mode="zonal")


# ---------------------------------------------------------------------------
# strategic bid deviation
# ---------------------------------------------------------------------------

def test_underbidding_profits_under_uniform_pricing(twobus):
    net, gens = twobus
    dev = evaluate_bid_deviation(net, gens, "A3", 70.0, scheme="uniform", regime=ZONAL)
    # truthfully not cleared; the deviation clears 150 MW settled at 100
    assert dev.q_truthful == pytest.approx(0.0, abs=1e-6)
    assert dev.q_deviated == pytest.approx(150.0, abs=1e-6)
    assert dev.price_deviated == pytest.approx(100.0, abs=1e-6)
    assert dev.profit_deviated == pytest.approx(1500.0, rel=1e-9)
    assert dev.profit_delta > 0.0
    assert dev.welfare_delta == pytest.approx(-2250.0, rel=1e-9)


def test_same_deviation_unprofitable_under_nodal_pricing(twobus):
    net, gens = twobus
    dev = evaluate_bid_deviation(net, gens, "A3", 70.0, scheme="nodal")
    assert dev.q_deviated == pytest.approx(150.0, abs=1e-6)
    assert dev.price_deviated == pytest.approx(70.0, abs=1e-6)
    assert dev.profit_deviated <= 1e-9
    assert dev.welfare_delta <= 1e-9


def test_truthful_offer_is_identity(twobus):
    net, gens = twobus
    dev = evaluate_bid_deviation(net, gens, "A3", 90.0, scheme="uniform", regime=ZONAL)
    assert dev.q_deviated == pytest.approx(dev.q_truthful, abs=1e-9)
    assert dev.profit_delta == pytest.approx(0.0, abs=1e-9)
    assert dev.welfare_delta == pytest.approx(0.0, abs=1e-9)


def test_welfare_never_improves_on_truthful(twobus):
    net, gens = twobus
    for offer in (95.0, 85.0, 70.0, 55.0, 40.0):
        dev = evaluate_bid_deviation(net, gens, "A3", offer, scheme="uniform", regime=ZONAL)
        assert dev.welfare_delta <= 1e-9


def test_displacing_cheaper_unit_destroys_welfare(twobus):
    net, gens = twobus
    dev = evaluate_bid_deviation(net, gens, "A3", 70.0, scheme="uniform", regime=ZONAL)
    # A3's 150 MW (true cost 90) displaces A2's 150 MW (true cost 75)
    offered = [replace(g, ic=70.0) if g.id == "A3" else g for g in gens]
    deviated = clear(net, offered, ZONAL)
    assert clear(net, gens, ZONAL).gen_mw["A2"] == pytest.approx(150.0, abs=1e-6)
    assert deviated.gen_mw["A2"] == pytest.approx(0.0, abs=1e-6)
    assert deviated.gen_mw["A3"] == pytest.approx(dev.q_deviated, abs=1e-9)
    assert dev.welfare_delta == pytest.approx(-150.0 * 15.0, rel=1e-9)


@pytest.mark.parametrize("scheme", BID_SCHEMES)
@pytest.mark.parametrize("name", ["twobus", "fourbus"])
def test_truthful_price_is_the_cleared_price(scenario_dir, name, scheme):
    sc = load_scenario(scenario_dir / f"{name}.scn")
    prices = run_scheme(sc, scheme).prices
    spec = SCHEMES[scheme]
    regime = sc.regimes.get(spec.regime, ConstraintRegime(mode=spec.mode))
    for g in sc.generators:
        dev = evaluate_bid_deviation(sc.network, sc.generators, g.id, g.ic, scheme=scheme,
                                     regime=regime, loads=sc.hourly_loads()[0])
        assert dev.price_truthful == price_at(prices, sc.network, g.bus_id, 0)


def test_unknown_generator_rejected(twobus):
    net, gens = twobus
    with pytest.raises(KeyError):
        evaluate_bid_deviation(net, gens, "nope", 50.0)


# ---------------------------------------------------------------------------
# price series statistics
# ---------------------------------------------------------------------------

def test_constant_series():
    stats = price_stats([42.0] * 10)
    assert stats.median == stats.p10 == stats.p90 == 42.0


def test_linear_interpolation_order_statistics():
    stats = price_stats(list(range(1, 101)))
    assert stats.median == pytest.approx(50.5)
    assert stats.p10 == pytest.approx(10.9)
    assert stats.p90 == pytest.approx(90.1)


def test_ordering_invariant():
    stats = price_stats([5.0, 1.0, 3.0, 9.0, 7.0])
    assert stats.p10 <= stats.median <= stats.p90


def test_empty_and_nonfinite_series_rejected():
    with pytest.raises(ValueError):
        price_stats([])
    with pytest.raises(ValueError):
        price_stats([1.0, float("nan")])
    with pytest.raises(ValueError, match="price 1 2000000000.0 outside"):
        price_stats([1.0, 2e9])  # beyond grid.MAGNITUDE, as no price the engine forms is
    assert price_stats([1.0, -1.0]).median == 0.0  # a zero-mean series is valid


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.floats(1.0, 500.0), min_size=2, max_size=40),
    scale=st.floats(0.5, 4.0),
    seed=st.integers(0, 999),
)
def test_permutation_invariance_and_scale_equivariance(values, scale, seed):
    rng = random.Random(seed)
    shuffled = list(values)
    rng.shuffle(shuffled)
    a = price_stats(values)
    b = price_stats(shuffled)
    assert a.median == pytest.approx(b.median)
    assert a.p10 == pytest.approx(b.p10)
    assert a.p90 == pytest.approx(b.p90)
    scaled = price_stats([v * scale for v in values])
    assert scaled.median == pytest.approx(a.median * scale, rel=1e-9)
    assert scaled.p10 == pytest.approx(a.p10 * scale, rel=1e-9)
    assert scaled.p90 == pytest.approx(a.p90 * scale, rel=1e-9)
