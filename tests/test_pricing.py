import json
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gridclear.commitment import single_interval_schedule
from gridclear.dispatch import (
    PRICE_TOL,
    ConstraintRegime,
    GeneratorSpec,
    clear,
    location,
    with_forced_bounds,
)
from gridclear.grid import Bus, Interface, Line, Network, format_number
from gridclear.pricing import (
    SCHEMES,
    PriceFormationError,
    PricingContractError,
    UnitNotRunningError,
    form_prices,
    form_smp,
    stack_price,
)
from gridclear.scenario import parse_scenario

NODAL = ConstraintRegime(mode="nodal", monitored_profile="nodal", enforce_interfaces=False)
ZONAL = ConstraintRegime(mode="zonal")
COPPER = ConstraintRegime(mode="copper_plate")


# ---------------------------------------------------------------------------
# stack price arithmetic
# ---------------------------------------------------------------------------

def test_stack_price_pure_incremental():
    g = GeneratorSpec("g", "n", 0.0, 200.0, 50.0)
    assert stack_price(g, 100.0).sp == 50.0


def test_stack_price_amortizes_quasi_fixed_costs():
    g = GeneratorSpec("g", "n", 0.0, 200.0, 40.0, nlc=1000.0, suc=12000.0)
    sp = stack_price(g, 100.0, hours_on=4)
    assert sp.sp == g.ic + sp.nlc_share + sp.suc_share
    assert sp.nlc_share == pytest.approx(10.0)
    assert sp.suc_share == pytest.approx(30.0)
    assert sp.sp == pytest.approx(80.0)


def test_stack_price_decreases_with_output():
    g = GeneratorSpec("g", "n", 0.0, 200.0, 40.0, nlc=500.0, suc=800.0)
    values = [stack_price(g, q, hours_on=2).sp for q in (50.0, 100.0, 200.0)]
    assert values == sorted(values, reverse=True)


def test_stack_price_rejects_idle_unit():
    g = GeneratorSpec("g", "n", 0.0, 200.0, 40.0)
    with pytest.raises(UnitNotRunningError):
        stack_price(g, 0.0)
    with pytest.raises(ValueError):
        stack_price(g, 10.0, hours_on=0)


# ---------------------------------------------------------------------------
# uniform price with screening
# ---------------------------------------------------------------------------

def test_twobus_constrained_smp_set_by_import_side(twobus):
    net, gens = twobus
    result = clear(net, gens, ZONAL)
    report = form_smp(single_interval_schedule(result, gens), net, gens)
    assert report.prices[0]["system"] == pytest.approx(100.0)
    mset = report.marginal_sets[0]
    assert mset.members == ("B2",)
    assert mset.exclusions["A2"] == "constrained_off"
    assert mset.exclusions["A1"] == "at_capacity"
    assert mset.exclusions["B1"] == "at_capacity"


def test_twobus_copper_smp_is_90(twobus):
    net, gens = twobus
    result = clear(net, gens, COPPER)
    report = form_smp(single_interval_schedule(result, gens), net, gens)
    assert report.prices[0]["system"] == pytest.approx(90.0)
    assert "A3" in report.marginal_sets[0].members


def test_fourbus_forced_bound_system_view(fourbus):
    net, gens = fourbus
    result = clear(net, with_forced_bounds(gens, {"P3": (225.0, None)}), ZONAL)
    report = form_smp(single_interval_schedule(result, gens), net, gens)
    assert report.prices[0]["system"] == pytest.approx(50.0)
    mset = report.marginal_sets[0]
    assert mset.members == ("P4",)
    assert mset.exclusions["P3"] == "forced_bound"
    assert mset.exclusions["P2"] == "at_capacity"


def test_single_marginal_unit_sets_its_ic():
    net = Network((Bus("n", "Z", 60.0, 300.0),), (), ("Z",), (), "n")
    gens = [GeneratorSpec("g", "n", 0.0, 100.0, 42.0)]
    result = clear(net, gens, COPPER)
    report = form_smp(single_interval_schedule(result, gens), net, gens)
    assert report.prices[0]["system"] == pytest.approx(42.0)


def test_empty_marginal_set_is_hard_error():
    net = Network((Bus("n", "Z", 100.0, 300.0),), (), ("Z",), (), "n")
    gens = [GeneratorSpec("g", "n", 0.0, 100.0, 42.0)]  # exactly at capacity
    result = clear(net, gens, COPPER)
    with pytest.raises(PriceFormationError, match="at_capacity"):
        form_smp(single_interval_schedule(result, gens), net, gens)


def test_schedule_unit_missing_from_the_generators_is_a_contract_error(twobus):
    net, gens = twobus
    schedule = single_interval_schedule(clear(net, gens, ZONAL), gens)
    with pytest.raises(PricingContractError, match="'B2'"):
        form_smp(schedule, net, [g for g in gens if g.id != "B2"])


def test_smp_is_max_over_marginal_set():
    net = Network(
        (Bus("x", "Z", 120.0, 300.0), Bus("y", "Z", 0.0, 0.0)),
        (Line("l", "x", "y", 0.1, 999.0),),
        ("Z",), (), "x",
    )
    gens = [
        GeneratorSpec("lo", "x", 0.0, 100.0, 20.0, nlc=100.0),
        GeneratorSpec("hi", "y", 0.0, 100.0, 30.0),
    ]
    # both dispatched strictly inside bounds via equal-cost... instead use
    # a tie-free case: lo at cap (excluded), hi marginal
    result = clear(net, gens, COPPER)
    report = form_smp(single_interval_schedule(result, gens), net, gens)
    mset = report.marginal_sets[0]
    sps = [stack_price(g, result.gen_mw[g.id], 1).sp for g in gens if g.id in mset.members]
    assert report.prices[0]["system"] == pytest.approx(max(sps))


# ---------------------------------------------------------------------------
# zonal prices
# ---------------------------------------------------------------------------

def test_fourbus_zonal_prices(fourbus):
    net, gens = fourbus
    report = form_prices("zonal", clear(net, gens, ZONAL), net, gens)
    assert report.prices[0]["Z1"] == pytest.approx(40.0)
    assert report.prices[0]["Z2"] == pytest.approx(50.0)


def test_uncongested_two_zone_prices_equal():
    net = Network(
        (Bus("x", "ZA", 40.0, 300.0), Bus("y", "ZB", 40.0, 300.0)),
        (Line("l", "x", "y", 0.1, 999.0),),
        ("ZA", "ZB"),
        (Interface("i", (("l", 1),), 999.0),),
        "x",
    )
    gens = [GeneratorSpec("g1", "x", 0.0, 200.0, 25.0), GeneratorSpec("g2", "y", 0.0, 200.0, 60.0)]
    report = form_prices("zonal", clear(net, gens, ZONAL), net, gens)
    assert report.prices[0]["ZA"] == pytest.approx(report.prices[0]["ZB"])


# ---------------------------------------------------------------------------
# nodal prices and decomposition
# ---------------------------------------------------------------------------

def test_fourbus_nodal_lmps_and_decomposition(fourbus):
    net, gens = fourbus
    result = clear(net, gens, NODAL)
    report = form_prices("nodal", result, net, gens)
    prices = report.prices[0]
    assert [prices[b] for b in ("b1", "b2", "b3", "b4")] == pytest.approx(
        [10.0, 25.0, 40.0, 50.0], abs=1e-6
    )
    for bus, c in report.decomposition[0].items():
        assert c.energy + c.congestion + c.loss == pytest.approx(prices[bus], abs=1e-9)
        assert c.loss == 0.0
        assert c.energy == pytest.approx(50.0, abs=1e-6)


def test_fourbus_congestion_rent_from_duals(fourbus):
    net, gens = fourbus
    result = clear(net, gens, NODAL)
    assert result.transmission_rent() == pytest.approx(11750.0, rel=1e-9)


def test_no_congestion_all_lmps_equal_reference():
    net = Network(
        (Bus("x", "Z", 40.0, 300.0), Bus("y", "Z", 0.0, 0.0)),
        (Line("l", "x", "y", 0.1, 999.0),),
        ("Z",), (), "x",
    )
    gens = [GeneratorSpec("g1", "x", 0.0, 200.0, 25.0), GeneratorSpec("g2", "y", 0.0, 200.0, 60.0)]
    result = clear(net, gens, ConstraintRegime(mode="nodal"))
    report = form_prices("nodal", result, net, gens)
    assert report.prices[0]["x"] == pytest.approx(report.prices[0]["y"], abs=1e-9)
    assert all(c.congestion == pytest.approx(0.0, abs=1e-9)
               for c in report.decomposition[0].values())


@pytest.mark.parametrize("scheme", SCHEMES)
def test_prices_of_a_clearing_of_another_mode_are_a_contract_error(fourbus, scheme):
    """``form_prices`` prices only a clearing in its scheme's mode: under
    each scheme, a clearing in either other mode raises."""
    net, gens = fourbus
    mode = SCHEMES[scheme].mode
    for other in sorted({"nodal", "zonal", "copper_plate"} - {mode}):
        result = clear(net, gens, ConstraintRegime(mode=other))
        with pytest.raises(PricingContractError,
                           match=f"scheme '{scheme}' prices a {mode} clearing, not a {other} one"):
            form_prices(scheme, result, net, gens)


# ---------------------------------------------------------------------------
# scheme collapse and screening soundness
# ---------------------------------------------------------------------------

def test_scheme_collapse_single_zone():
    net = Network(
        (Bus("x", "Z", 70.0, 300.0), Bus("y", "Z", 0.0, 0.0)),
        (Line("l", "x", "y", 0.1, 999.0),),
        ("Z",), (), "x",
    )
    gens = [GeneratorSpec("g1", "x", 0.0, 50.0, 25.0), GeneratorSpec("g2", "y", 0.0, 200.0, 60.0)]
    nodal = clear(net, gens, ConstraintRegime(mode="nodal"))
    zonal = clear(net, gens, ZONAL)
    copper = clear(net, gens, COPPER)
    lmp = form_prices("nodal", nodal, net, gens).prices[0]
    zp = form_prices("zonal", zonal, net, gens).prices[0]["Z"]
    smp = form_smp(single_interval_schedule(copper, gens), net, gens).prices[0]["system"]
    assert lmp["x"] == pytest.approx(zp, abs=1e-6)
    assert lmp["y"] == pytest.approx(zp, abs=1e-6)
    assert smp == pytest.approx(zp, abs=1e-6)


def test_screening_soundness(fourbus):
    """Across zones, a dispatched unit is a member exactly when it is interior,
    unflagged and at the reference dual (the highest dual of a zone serving
    load); every other dispatched unit is excluded with a reason."""
    net, gens = fourbus
    result = clear(net, gens, ZONAL)
    mset = form_smp(single_interval_schedule(result, gens), net, gens).marginal_sets[0]
    served = {z: sum(mw for b, mw in result.served_mw.items() if net.zone_of(b) == z) for z in net.zones}
    ref = max(result.balance_duals[z] for z, mw in served.items() if mw > 1e-6)
    assert len({net.zone_of(g.bus_id) for g in gens if result.gen_mw[g.id] > 1e-6}) == 2
    for g in gens:
        q = result.gen_mw[g.id]
        if q <= 1e-6:
            assert g.id not in mset.members and g.id not in mset.exclusions
            continue
        lo, hi = g.effective_bounds()
        interior = lo + 1e-6 < q < hi - 1e-6
        at_ref = abs(result.balance_duals[location(net, result.mode, g.bus_id)] - ref) <= PRICE_TOL
        member = interior and not result.gen_flags[g.id] and at_ref
        assert (g.id in mset.members) == member
        assert (g.id in mset.exclusions) != member


@settings(max_examples=30, deadline=None)
@given(q=st.floats(1.0, 200.0), hours=st.integers(1, 24))
def test_stack_price_exact_formula(q, hours):
    g = GeneratorSpec("g", "n", 0.0, 200.0, 33.0, nlc=120.0, suc=900.0)
    sp = stack_price(g, q, hours)
    assert sp.sp == pytest.approx(33.0 + 120.0 / q + 900.0 / (q * hours), rel=1e-12)


# ---------------------------------------------------------------------------
# power-of-two scaling
# ---------------------------------------------------------------------------

PERFBENCH = Path(__file__).parent.parent / "perfbench"
_COSTS = ("ic", "nlc", "suc", "wtp")
_MW = ("load_mw", "limit_mw", "ttc_mw", "p_min", "p_max", "forced_min", "forced_max",
       "reserve_req_mw", "min_sync_mw", "loads", "forced_bounds")


def _doubled(node, keys, under=False):
    """The scenario document ``node`` with every number under a key of
    ``keys``, at any depth, doubled."""
    if isinstance(node, dict):
        return {k: _doubled(v, keys, under or k in keys) for k, v in node.items()}
    if isinstance(node, list):
        return [_doubled(v, keys, under) for v in node]
    if under and isinstance(node, (int, float)) and not isinstance(node, bool):
        return 2 * node
    return node


def _cleared(doc, scheme):
    """The dispatch and prices of ``doc`` cleared under its regime named
    ``scheme``, or a default regime of that mode."""
    sc = parse_scenario(doc)
    result = clear(sc.network, sc.generators, sc.regimes.get(scheme, ConstraintRegime(mode=scheme)),
                   loads=sc.loads_at(0))
    return result.gen_mw, form_prices(scheme, result, sc.network, sc.generators).prices[0]


@pytest.mark.parametrize("source", ["fivebus_ruc", "fourbus", "fourbus_tie270", "twobus", *range(60)],
                         ids=lambda s: s if isinstance(s, str) else f"mesh_k{s}")
def test_doubling_costs_or_megawatts_scales_prices_and_dispatch_exactly(scenario_dir, monkeypatch, source):
    """Doubling is exact in binary floating point.  Doubling every cost
    doubles every price and leaves the dispatch as it is, bit for bit, under
    nodal and zonal clearing; doubling every MW figure leaves every price as
    it is.  The dispatch then doubles up to its last bits (2 x 32.2 reads
    64.39999999999996 in mesh k=17 under nodal), so it is compared as printed."""
    if isinstance(source, str):
        doc = json.loads((scenario_dir / f"{source}.scn").read_text())
    else:
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import gen
        doc = gen.mesh_doc(0, source, 12 + source % 9)
    for scheme in ("nodal", "zonal"):
        q, p = _cleared(doc, scheme)
        assert _cleared(_doubled(doc, _COSTS), scheme) == (q, {k: 2 * v for k, v in p.items()})
        q2, p2 = _cleared(_doubled(doc, _MW), scheme)
        assert p2 == p
        assert {u: format_number(v) for u, v in q2.items()} == {u: format_number(2 * v) for u, v in q.items()}
