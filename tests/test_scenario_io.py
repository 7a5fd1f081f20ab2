import functools
import json
import math
import tracemalloc
from pathlib import Path

import pytest

from gridclear.dispatch import ConstraintRegime, clear
from gridclear.grid import MAGNITUDE, REACTANCE
from gridclear.pricing import form_prices
from gridclear.scenario import (
    E_DUP,
    E_IO,
    E_PARSE,
    E_REF,
    E_REGIME,
    E_RUN,
    E_SECTION,
    E_TOPOLOGY,
    E_TYPE,
    E_VALUE,
    Scenario,
    ScenarioValidationError,
    SchemeOutcome,
    dump_scenario,
    load_scenario,
    parse_scenario,
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
    assert [(i.id, i.ttc_mw) for i in net.interfaces] == [("tie", 500.0)]
    specs = {g.id: g for g in sc.generators}
    assert [specs[p].p_max for p in ("P1", "P2", "P3")] == [200.0, 100.0, 800.0]
    assert [specs[p].ic for p in ("P1", "P2", "P3", "P4")] == [10.0, 10.0, 40.0, 50.0]
    assert sc.run.forced_bounds == {"P3": (225.0, None)}
    assert set(sc.regimes) == {"nodal", "zonal"}


def test_all_bundled_fixtures_load(scenario_dir):
    for name in ("twobus.scn", "fourbus.scn", "fourbus_tie270.scn", "fivebus_ruc.scn"):
        sc = load_scenario(scenario_dir / name)
        assert sc.network.buses


def test_benchmark_generators_write_scenarios_that_load(monkeypatch):
    """Every mesh size and commitment shape the benchmark generates loads
    without an issue: a schema check must never fail a benchmark op."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import gen
    import workloads

    for seed in range(3):
        docs = [gen.mesh_doc(seed, k, n) for k, n in enumerate(sorted(set(workloads.MESH_SIZES)))]
        docs += [gen.uc_doc(seed, k, *shape) for k, shape in enumerate(sorted(set(workloads.UC_SHAPES)))]
        for doc in docs:
            assert parse_scenario(doc) is not None, doc["name"]


def test_twobus_fixture_capacities(scenario_dir):
    sc = load_scenario(scenario_dir / "twobus.scn")
    area_a = sum(g.p_max for g in sc.generators if g.bus_id == "a")
    area_b = sum(g.p_max for g in sc.generators if g.bus_id == "b")
    assert area_a == 880.0
    assert area_b == 420.0
    assert [(i.id, i.ttc_mw) for i in sc.network.interfaces] == [("tie", 100.0)]
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
    assert sc.generators[0].p_max == 50.0


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


@pytest.mark.parametrize("loads,expected", [
    ({"x": -5.0}, "loads.x: hour 0: bus x: load_mw must be >= 0"),
    ({"x": [10.0, -5.0]}, "loads.x: hour 1: bus x: load_mw must be >= 0"),
    ({"y": 5.0}, "loads.y: hour 0: bus y: wtp must be > 0 when load_mw > 0"),
    ({"y": [0.0, 5.0]}, "loads.y: hour 1: bus y: wtp must be > 0 when load_mw > 0"),
], ids=["negative-scalar", "negative-list", "no-wtp-scalar", "no-wtp-list"])
def test_loads_obey_the_bus_rules(tmp_path, loads, expected):
    """An hourly load is held to the rule a bus's own ``load_mw`` is: never
    negative, and above 0 only at a bus with a willingness to pay."""
    doc = _minimal_doc()
    doc["run"]["horizon"] = 2
    doc["loads"] = loads
    p = tmp_path / "t.scn"
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(p)
    assert [str(i) for i in err.value.issues] == [f"E_VALUE at {expected}"]


@pytest.mark.parametrize("section, index, field, value, expected", [
    ("buses", 1, "wtp", 1e308, (E_VALUE, "network.buses[1]")),
    ("buses", 1, "zone", "nowhere", (E_REF, "network.buses[1]")),
    ("lines", 0, "reactance", 0.0, (E_VALUE, "network.lines[0]")),
], ids=["bus out of range", "bus in unknown zone", "line out of range"])
def test_one_issue_per_fault_in_the_network_section(scenario_dir, section, index, field, value,
                                                     expected):
    """A bus or line rejected for its own fields is one issue: the lines at
    that bus and the interface members on that line refer to declared ids."""
    doc = json.loads((scenario_dir / "twobus.scn").read_text())
    doc["network"][section][index][field] = value
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    assert [(i.code, i.where) for i in err.value.issues] == [expected]


@pytest.mark.parametrize("zones, za_is, where", [
    ([1, "ZB"], "1", "network.zones[0]"),
    (["ZA", "ZB", None], "ZA", "network.zones[2]"),
], ids=["number", "null"])
def test_a_zone_that_is_not_a_string_is_one_type_issue(scenario_dir, zones, za_is, where):
    """A zone entry of another type is E_TYPE at its path, and the only
    issue: not a reference from the buses that name it as text, and not a
    zone with no buses."""
    doc = json.loads((scenario_dir / "twobus.scn").read_text())
    doc["network"]["zones"] = zones
    doc["network"]["buses"][0]["zone"] = za_is
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    assert [(i.code, i.where) for i in err.value.issues] == [(E_TYPE, where)]


def test_an_empty_zone_list_is_one_reference_issue_per_bus(scenario_dir):
    """``zones: []`` declares no zone, so each bus names an unknown one:
    E_REF at each bus, and no topology issue after them."""
    doc = json.loads((scenario_dir / "twobus.scn").read_text())
    doc["network"]["zones"] = []
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    assert [(i.code, i.where) for i in err.value.issues] == [
        (E_REF, "network.buses[0]"), (E_REF, "network.buses[1]")]


def test_an_interface_member_listed_twice_is_one_dup_issue(scenario_dir):
    """A line an interface already counts is E_DUP at its second entry, so
    the interface's flow never counts a line twice."""
    doc = json.loads((scenario_dir / "twobus.scn").read_text())
    members = doc["network"]["interfaces"][0]["members"]
    members.append(dict(members[0]))
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    assert [str(i) for i in err.value.issues] == [
        "E_DUP at network.interfaces[0].members[1]: duplicate member line 'lab'"]


def _at(*path):
    """An edit that sets the field at ``path`` of a document."""
    def edit(doc, v):
        functools.reduce(lambda node, key: node[key], path[:-1], doc)[path[-1]] = v
    return edit


def _rename_bus(doc, name):
    doc["network"]["buses"][1]["id"] = doc["network"]["lines"][0]["to"] = name
    doc["generators"][0]["bus"] = name


def _rename_zone(doc, name):
    doc["network"]["zones"][0] = name
    for bus in doc["network"]["buses"]:
        bus["zone"] = name


_CELL_BREAKING = {
    "bus id comma": (_rename_bus, "y,z", "network.buses[1].id"),
    "line id bar": (_at("network", "lines", 0, "id"), "l|m", "network.lines[0].id"),
    "unit id quote": (_at("generators", 0, "id"), 'g"h', "generators[0].id"),
    "unit id newline": (_at("generators", 0, "id"), "g\nh", "generators[0].id"),
    "unit id delete": (_at("generators", 0, "id"), "g\x7f", "generators[0].id"),
    "zone tab": (_rename_zone, "Z\t", "network.zones[0]"),
}


@pytest.mark.parametrize("edit, name, where", _CELL_BREAKING.values(), ids=_CELL_BREAKING.keys())
def test_a_name_that_breaks_a_report_cell_is_one_issue_at_its_path(edit, name, where):
    """An id or zone name holding a CSV or markdown separator, a quote or a
    control character is E_VALUE at its path, printed with ``repr`` so no
    raw control character reaches the message; the references to it still
    resolve, so it is the only issue."""
    doc = _minimal_doc()
    edit(doc, name)
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    [issue] = err.value.issues
    assert (issue.code, issue.where) == (E_VALUE, where)
    assert repr(name) in issue.message and "\n" not in issue.message and "\t" not in issue.message


def test_a_name_with_spaces_and_letters_of_any_script_loads():
    doc = _minimal_doc()
    _at("generators", 0, "id")(doc, "Yeongheung #1 (영흥)")
    _rename_zone(doc, "수도권 zone")
    sc = parse_scenario(doc)
    assert (sc.generators[0].id, sc.network.zones) == ("Yeongheung #1 (영흥)", ("수도권 zone",))


def _with_hourly_load(doc, v):
    doc["run"]["horizon"] = 2
    doc["loads"] = {"x": [10.0, v]}


def _with_interface(doc, v):
    doc["network"]["interfaces"] = [{"id": "i", "members": [{"line": "l"}], "ttc_mw": v}]


def _with_forced_max(doc, v):
    doc["generators"][0]["p_max"] = MAGNITUDE
    doc["run"]["forced_bounds"] = {"g": {"max": v}}


def _with_offer(doc, v):
    doc["run"]["bid_deviation"] = {"generator": "g", "offered_ic": v}


_RANGE_FIELDS = {
    "bus load_mw": (_at("network", "buses", 0, "load_mw"), MAGNITUDE, E_VALUE, "network.buses[0]"),
    "bus wtp": (_at("network", "buses", 0, "wtp"), MAGNITUDE, E_VALUE, "network.buses[0]"),
    "unit p_max": (_at("generators", 0, "p_max"), MAGNITUDE, E_VALUE, "generators[0]"),
    "unit ic": (_at("generators", 0, "ic"), MAGNITUDE, E_VALUE, "generators[0]"),
    "unit nlc": (_at("generators", 0, "nlc"), MAGNITUDE, E_VALUE, "generators[0]"),
    "unit suc": (_at("generators", 0, "suc"), MAGNITUDE, E_VALUE, "generators[0]"),
    "line limit_mw": (_at("network", "lines", 0, "limit_mw"), MAGNITUDE, E_VALUE, "network.lines[0]"),
    "line reactance high": (_at("network", "lines", 0, "reactance"), REACTANCE[1], E_VALUE, "network.lines[0]"),
    "line reactance low": (_at("network", "lines", 0, "reactance"), REACTANCE[0], E_VALUE, "network.lines[0]"),
    "ttc_mw": (_with_interface, MAGNITUDE, E_VALUE, "network.interfaces[0]"),
    "loads hour": (_with_hourly_load, MAGNITUDE, E_VALUE, "loads.x"),
    "forced bound": (_with_forced_max, MAGNITUDE, E_VALUE, "run.forced_bounds.g"),
    "offered_ic": (_with_offer, MAGNITUDE, E_VALUE, "run.bid_deviation.offered_ic"),
    "regime reserve_req_mw": (_at("regimes", "nodal", "reserve_req_mw"), MAGNITUDE, E_REGIME, "regimes.nodal"),
}


@pytest.mark.parametrize("edit, bound, code, where", _RANGE_FIELDS.values(), ids=_RANGE_FIELDS.keys())
def test_a_figure_one_float_past_its_bound_is_rejected_at_its_path(edit, bound, code, where):
    """Each kind of figure loads at its bound and is rejected one float past
    it, with its code at its path; the reactance on both sides of its range."""
    doc = _minimal_doc()
    edit(doc, bound)
    assert parse_scenario(doc) is not None
    past = math.nextafter(bound, 0.0 if bound == REACTANCE[0] else math.inf)
    doc = _minimal_doc()
    edit(doc, past)
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(doc)
    first = err.value.issues[0]
    assert (first.code, first.where) == (code, where)
    assert f"{past!r} outside [" in first.message


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

def test_dump_load_round_trip(scenario_dir, tmp_path):
    for name in ("twobus.scn", "fourbus.scn", "fivebus_ruc.scn"):
        sc = load_scenario(scenario_dir / name)
        out = tmp_path / name
        out.write_text(json.dumps(dump_scenario(sc), indent=2))
        again = load_scenario(out)
        assert again == sc


def test_round_trip_with_hourly_loads(tmp_path):
    doc = _minimal_doc()
    doc["run"]["horizon"] = 2
    doc["loads"] = {"x": [10.0, 14.0]}
    p = tmp_path / "t.scn"
    p.write_text(json.dumps(doc))
    sc = load_scenario(p)
    (tmp_path / "t2.scn").write_text(json.dumps(dump_scenario(sc), indent=2))
    assert load_scenario(tmp_path / "t2.scn") == sc


def _traced_mb(fn):
    """``fn()`` and the most memory it held at once (tracemalloc), in MB,
    over what was held before it ran."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture
def year(monkeypatch, tmp_path):
    """A 300-bus network with one bus given 8,760 hourly loads: the file's
    path, its document and the bus."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import gen

    doc = gen.mesh_doc(0, 0, 300)
    bus = next(b["id"] for b in doc["network"]["buses"] if b.get("load_mw", 0.0) > 0)
    doc["run"]["horizon"] = 8760
    doc["loads"] = {bus: [round(50.0 + t % 24, 1) for t in range(8760)]}
    p = tmp_path / "year.scn"
    p.write_text(json.dumps(doc))
    return p, doc, bus


def test_a_year_of_one_bus_loads_holds_only_that_series(year):
    """A scenario keeps the file's load overrides, not every bus's load in
    every hour: the year-long scenario loads, and yields its hourly loads,
    in a few MB.  A copy per bus and hour would take about 58 MB for each."""
    p, doc, bus = year
    sc, held = _traced_mb(lambda: load_scenario(p))
    hours, made = _traced_mb(sc.hourly_loads)
    assert held < 5.0 and made < 5.0, (held, made)
    assert len(hours) == 8760 and hours[25] == {bus: 51.0}
    assert sc.loads == {bus: tuple(doc["loads"][bus])}


def test_reading_one_hour_of_a_year_allocates_little(year):
    """``loads_at(0)``, which ``clear`` and ``bidding`` read, builds that
    hour's overrides only: under 0.1 MB, where every hour's overrides
    (``hourly_loads()``) take about 1.7 MB."""
    p, doc, bus = year
    sc = load_scenario(p)
    hour, made = _traced_mb(lambda: sc.loads_at(0))
    assert made < 0.1, made
    assert hour == {bus: 50.0} == sc.hourly_loads()[0]


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------

def _outcome(fourbus, scheme="nodal"):
    net, gens = fourbus
    if scheme == "nodal":
        r = clear(net, gens, ConstraintRegime(mode="nodal", monitored_profile="nodal",
                                              enforce_interfaces=False))
    else:
        r = clear(net, gens, ConstraintRegime(mode="zonal"))
    prices = form_prices(scheme, r, net, gens)
    settlement = summarize(prices, r, net, gens)
    violated = scheme != "nodal" and bool(r.flows.violations)
    return SchemeOutcome(scheme, r, prices, settlement, violated)


def test_write_report_csv_round_trips(fourbus, tmp_path):
    oc = _outcome(fourbus)
    paths = write_report("fourbus", fourbus[0], [oc], tmp_path, "csv", timestamp=None)
    assert len(paths) == 5
    prices = (tmp_path / "fourbus_nodal_prices.csv").read_text().splitlines()
    assert prices[0] == "hour,key,price,energy,congestion,loss"
    row = dict(zip(("hour", "key", "price"), prices[1].split(",")))
    assert abs(float(row["price"]) - 10.0) < 0.005  # formatting precision
    dispatch = (tmp_path / "fourbus_nodal_dispatch.csv").read_text().splitlines()
    assert dispatch[1].startswith("0,P1,175.00")


def test_write_report_markdown(fourbus, tmp_path):
    oc = _outcome(fourbus)
    paths = write_report("fourbus", fourbus[0], [oc], tmp_path, "md", timestamp=None)
    text = paths[0].read_text()
    assert "| P1 | 175.00 |" in text
    assert "social surplus | 53250.00" in text


def test_write_report_rejects_empty_set(fourbus, tmp_path):
    with pytest.raises(ValueError, match="empty"):
        write_report("x", fourbus[0], [], tmp_path, "csv")


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
        write_report("fourbus", fourbus[0], [oc], d, "csv", timestamp=None)
    for f in sorted(a_dir.iterdir()):
        assert f.read_bytes() == (b_dir / f.name).read_bytes()
