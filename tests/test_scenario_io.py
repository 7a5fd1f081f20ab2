import json

import pytest

from gridclear.dispatch import ConstraintRegime, clear
from gridclear.grid import build_ptdf
from gridclear.pricing import form_nodal_prices, form_zonal_prices
from gridclear.scenario import (
    E_DUP,
    E_IO,
    E_PARSE,
    E_REF,
    E_REGIME,
    E_RUN,
    E_SECTION,
    E_TOPOLOGY,
    Scenario,
    ScenarioValidationError,
    SchemeOutcome,
    dump_scenario,
    load_scenario,
    parse_scenario,
    save_scenario,
    write_compare_markdown,
    write_report,
)
from gridclear.settlement import summarize


def _codes(err: ScenarioValidationError) -> set[str]:
    return {i.code for i in err.issues}


# ---------------------------------------------------------------------------
# loading the bundled fixtures
# ---------------------------------------------------------------------------

def test_fourbus_fixture_loads_verbatim(scenario_dir):
    sc = load_scenario(scenario_dir / "fourbus.scn")
    assert sc.name == "fourbus"
    assert sc.currency == "$/MWh"
    net = sc.network
    assert [b.id for b in net.buses] == ["b1", "b2", "b3", "b4"]
    assert net.bus("b4").load_mw == 800.0
    assert net.bus("b4").wtp == 100.0
    assert net.line("l13").limit_mw == 150.0
    assert net.interface("tie").ttc_mw == 500.0
    specs = {g.id: g for g in sc.specs()}
    assert [specs[p].p_max for p in ("P1", "P2", "P3")] == [200.0, 100.0, 800.0]
    assert [specs[p].ic for p in ("P1", "P2", "P3", "P4")] == [10.0, 10.0, 40.0, 50.0]
    assert sc.run.forced_bounds == {"P3": (225.0, None)}
    assert set(sc.regimes) == {"nodal", "zonal"}


def test_all_bundled_fixtures_load(scenario_dir):
    for name in ("twobus.scn", "fourbus.scn", "fourbus_tie270.scn", "fivebus_ruc.scn"):
        sc = load_scenario(scenario_dir / name)
        assert sc.network.buses


def test_twobus_fixture_capacities(scenario_dir):
    sc = load_scenario(scenario_dir / "twobus.scn")
    area_a = sum(g.p_max for g in sc.specs() if g.bus_id == "a")
    area_b = sum(g.p_max for g in sc.specs() if g.bus_id == "b")
    assert area_a == 880.0
    assert area_b == 420.0
    assert sc.network.interface("tie").ttc_mw == 100.0
    assert sc.run.bid_deviation == ("A3", 70.0, "uniform")


# ---------------------------------------------------------------------------
# validation behaviour
# ---------------------------------------------------------------------------

def _minimal_doc():
    return {
        "name": "t",
        "currency": "$/MWh",
        "network": {
            "slack_bus": "x",
            "zones": ["Z"],
            "buses": [
                {"id": "x", "zone": "Z", "load_mw": 10.0, "wtp": 100.0},
                {"id": "y", "zone": "Z"},
            ],
            "lines": [
                {"id": "l", "from": "x", "to": "y", "reactance": 0.1, "limit_mw": 50.0,
                 "monitored_in": ["all"]}
            ],
            "interfaces": [],
        },
        "generators": [
            {"id": "g", "bus": "y", "p_max": 50.0, "ic": 20.0}
        ],
        "regimes": {"nodal": {"mode": "nodal", "monitored_profile": "all"}},
        "run": {"schemes": ["nodal"], "horizon": 1},
    }


def test_minimal_document_parses(tmp_path):
    p = tmp_path / "t.scn"
    p.write_text(json.dumps(_minimal_doc()))
    sc = load_scenario(p)
    assert sc.network.slack_bus == "x"
    assert sc.generators[0].spec.p_max == 50.0


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(tmp_path / "absent.scn")
    assert _codes(err.value) == {E_IO}


def test_bad_json_reports_position(tmp_path):
    p = tmp_path / "t.scn"
    p.write_text("{ not json")
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(p)
    assert _codes(err.value) == {E_PARSE}
    assert ":" in err.value.issues[0].where  # line:col carried


def test_unknown_bus_reference_lists_offender(tmp_path):
    doc = _minimal_doc()
    doc["generators"][0]["bus"] = "ghost"
    p = tmp_path / "t.scn"
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(p)
    assert E_REF in _codes(err.value)
    assert any("ghost" in i.message for i in err.value.issues)


def test_empty_network_section_no_partial_load(tmp_path):
    doc = _minimal_doc()
    doc["network"] = {}
    p = tmp_path / "t.scn"
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(p)
    assert E_SECTION in _codes(err.value)


def test_all_errors_collected_not_just_first(tmp_path):
    doc = _minimal_doc()
    doc["generators"][0]["bus"] = "ghost"
    doc["run"]["schemes"] = ["weird"]
    doc["regimes"]["nodal"]["monitored_profile"] = "nonexistent"
    p = tmp_path / "t.scn"
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(p)
    assert {E_REF, E_RUN, E_REGIME} <= _codes(err.value)


def test_duplicate_ids_flagged(tmp_path):
    doc = _minimal_doc()
    doc["network"]["buses"].append({"id": "x", "zone": "Z"})
    p = tmp_path / "t.scn"
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(p)
    assert E_DUP in _codes(err.value)


def test_disconnected_topology_flagged(tmp_path):
    doc = _minimal_doc()
    doc["network"]["buses"].append({"id": "island", "zone": "Z"})
    p = tmp_path / "t.scn"
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(p)
    assert E_TOPOLOGY in _codes(err.value)


def test_loads_must_match_horizon(tmp_path):
    doc = _minimal_doc()
    doc["run"]["horizon"] = 3
    doc["loads"] = {"x": [10.0, 12.0]}
    p = tmp_path / "t.scn"
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(p)
    assert any(i.code == "E_LOADS" for i in err.value.issues)


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

def test_dump_load_round_trip(scenario_dir, tmp_path):
    for name in ("twobus.scn", "fourbus.scn", "fivebus_ruc.scn"):
        sc = load_scenario(scenario_dir / name)
        out = tmp_path / name
        save_scenario(sc, out)
        again = load_scenario(out)
        assert again == sc


def test_round_trip_with_hourly_loads(tmp_path):
    doc = _minimal_doc()
    doc["run"]["horizon"] = 2
    doc["loads"] = {"x": [10.0, 14.0]}
    p = tmp_path / "t.scn"
    p.write_text(json.dumps(doc))
    sc = load_scenario(p)
    save_scenario(sc, tmp_path / "t2.scn")
    assert load_scenario(tmp_path / "t2.scn") == sc


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------

def _outcome(fourbus, scheme="nodal"):
    net, gens = fourbus
    if scheme == "nodal":
        r = clear(net, gens, ConstraintRegime(mode="nodal", monitored_profile="nodal",
                                              enforce_interfaces=False))
        prices = form_nodal_prices(r, build_ptdf(net), currency="$/MWh")
    else:
        r = clear(net, gens, ConstraintRegime(mode="zonal"))
        prices = form_zonal_prices(r, currency="$/MWh")
    settlement = summarize(prices, r, net, gens)
    violated = scheme != "nodal" and bool(r.physical_violations)
    return SchemeOutcome(scheme, r, prices, settlement, violated)


def test_write_report_csv_round_trips(fourbus, tmp_path):
    oc = _outcome(fourbus)
    paths = write_report("fourbus", [oc], tmp_path, "csv", timestamp=None)
    assert len(paths) == 5
    prices = (tmp_path / "fourbus_nodal_prices.csv").read_text().splitlines()
    assert prices[0] == "hour,key,price,energy,congestion,loss"
    row = dict(zip(("hour", "key", "price"), prices[1].split(",")))
    assert abs(float(row["price"]) - 10.0) < 0.005  # formatting precision
    dispatch = (tmp_path / "fourbus_nodal_dispatch.csv").read_text().splitlines()
    assert dispatch[1].startswith("0,P1,175.00")


def test_write_report_markdown(fourbus, tmp_path):
    oc = _outcome(fourbus)
    paths = write_report("fourbus", [oc], tmp_path, "markdown", timestamp=None)
    text = paths[0].read_text()
    assert "| P1 | 175.00 |" in text
    assert "social surplus | 53250.00" in text


def test_write_report_rejects_empty_set(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        write_report("x", [], tmp_path, "csv")


def test_compare_table_mirrors_scheme_columns(fourbus, tmp_path):
    nodal = _outcome(fourbus, "nodal")
    zonal = _outcome(fourbus, "zonal")
    path = write_compare_markdown("fourbus", [nodal, zonal], tmp_path, None)
    text = path.read_text()
    assert "| | Nodal | Zonal |" in text
    assert "Not Available" in text  # zonal money rows suppressed
    assert "(175.00, 100.00, 225.00, 300.00)" in text
    assert "(200.00, 100.00, 200.00, 300.00)" in text
    assert "| Market price | (10.00, 25.00, 40.00, 50.00) | (40.00, 50.00) |" in text


def test_deterministic_output_bytes(fourbus, tmp_path):
    oc = _outcome(fourbus)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        write_report("fourbus", [oc], d, "csv", timestamp=None)
    for f in sorted(a_dir.iterdir()):
        assert f.read_bytes() == (b_dir / f.name).read_bytes()
