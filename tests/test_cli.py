import contextlib
import functools
import hashlib
import io
import json
import re
import tempfile
import time
import warnings
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from gridclear import cli
from gridclear.cli import main
from gridclear.grid import GridNumericalError
from gridclear.lp import LpNumericalError
from gridclear.pricing import SCHEMES
from gridclear.scenario import dump_scenario, load_scenario
from gridclear.settlement import AccountingIdentityError, SettlementKeyError


def run(argv, capsys=None):
    code = main([str(a) for a in argv])
    return code


def test_validate_ok(scenario_dir, capsys):
    assert run(["validate", scenario_dir / "fourbus.scn"]) == 0
    out = capsys.readouterr().out
    assert "OK fourbus" in out


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text('{"name": "x"}')
    assert run(["validate", bad]) == 1
    assert "E_SECTION" in capsys.readouterr().err


def test_validate_non_utf8_file_is_one_parse_issue(tmp_path, capsys):
    bad = tmp_path / "utf16.scn"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    assert run(["validate", bad]) == 1
    err = capsys.readouterr().err
    assert err == f"scenario validation failed:\n  - E_PARSE at {bad}: not UTF-8 text: invalid start byte at byte 0\n"


_UNREADABLE_JSON = {
    "nested arrays": ("[" * 100_000, "arrays or objects nested too deeply"),
    "nested objects": ('{"a": ' * 3000 + "1" + "}" * 3000, "arrays or objects nested too deeply"),
    "long integer": ('{"name": ' + "9" * 5000 + "}", "integer literal longer than 4300 digits"),
}


@pytest.mark.parametrize("command", ["validate", "clear"])
@pytest.mark.parametrize("text,message", _UNREADABLE_JSON.values(), ids=_UNREADABLE_JSON.keys())
def test_unreadable_json_is_one_parse_issue(tmp_path, capsys, text, message, command):
    bad = tmp_path / "bad.scn"
    bad.write_text(text)
    argv = [command, bad] + (["--out", tmp_path / "o"] if command == "clear" else [])
    assert run(argv) == 1
    assert capsys.readouterr().err == f"scenario validation failed:\n  - E_PARSE at {bad}: {message}\n"
    assert not (tmp_path / "o").exists()


def test_many_calls_in_one_process(scenario_dir, tmp_path, capsys, monkeypatch):
    golden = json.loads((Path(__file__).parent / "golden_reports.json").read_text())
    fourbus = scenario_dir / "fourbus.scn"

    def written(out_dir):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}

    assert run(["clear", fourbus, "--bogus"]) == 1
    assert capsys.readouterr().err == "error: gridclear: unrecognized arguments: --bogus\n"
    assert run(["--help"]) == 0
    assert capsys.readouterr().out == cli.build_parser().format_help()
    assert run(["validate", fourbus]) == 0
    assert capsys.readouterr().out.startswith("OK fourbus: 4 buses")

    first, second = tmp_path / "first", tmp_path / "second"
    monkeypatch.setenv("GRIDCLEAR_OUT", str(first))
    md = golden["clear fourbus nodal md"]
    assert run(["clear", fourbus, "--format", "md", "--no-timestamp"]) == md["exit_code"]
    assert written(first) == md["files"]
    monkeypatch.setenv("GRIDCLEAR_OUT", str(second))
    csv = golden["clear fourbus nodal csv"]
    assert run(["clear", fourbus, "--no-timestamp"]) == csv["exit_code"]
    assert written(second) == csv["files"]
    assert written(first) == md["files"]

    # the parser is built by now; a binding replaced after that is what runs
    seen = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args.scenario) or 7)
    assert run(["validate", fourbus]) == 7
    assert seen == [str(fourbus)]


def test_clear_nodal_succeeds(scenario_dir, tmp_path, capsys):
    code = run(["clear", scenario_dir / "fourbus.scn", "--scheme", "nodal",
                "--out", tmp_path, "--no-timestamp"])
    assert code == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert "fourbus_nodal_prices.csv" in files
    assert "fourbus_nodal_summary.csv" in files
    summary = (tmp_path / "fourbus_nodal_summary.csv").read_text()
    assert "congestion_rent,11750.00" in summary
    assert "social_surplus,53250.00" in summary


def test_clear_zonal_exits_two_with_violation_recorded(scenario_dir, tmp_path, capsys):
    code = run(["clear", scenario_dir / "fourbus.scn", "--scheme", "zonal",
                "--out", tmp_path, "--no-timestamp"])
    assert code == 2
    err = capsys.readouterr().err
    assert "l13" in err and "166.67" in err
    flows = (tmp_path / "fourbus_zonal_flows.csv").read_text()
    assert "0,l13,line,166.67,150.00,yes" in flows


def test_clear_missing_file_exits_one_without_outputs(tmp_path, capsys):
    code = run(["clear", tmp_path / "nope.scn", "--scheme", "nodal", "--out", tmp_path / "o"])
    assert code == 1
    assert not (tmp_path / "o").exists()


def test_usage_error_is_exit_one(scenario_dir, tmp_path, capsys):
    code = run(["clear", scenario_dir / "fourbus.scn", "--scheme", "banana",
                "--out", tmp_path])
    assert code == 1


def test_compare_fourbus_reproduces_table(scenario_dir, tmp_path):
    code = run(["compare", scenario_dir / "fourbus.scn", "--out", tmp_path, "--no-timestamp"])
    assert code == 0
    text = (tmp_path / "fourbus_compare.md").read_text()
    assert "| Generator dispatch (MW) | (175.00, 100.00, 225.00, 300.00) | "
    assert "(200.00, 100.00, 200.00, 300.00)" in text
    assert "| Market price | (10.00, 25.00, 40.00, 50.00) | (40.00, 50.00) | (10.00, 50.00) |" in text
    assert "Not Available" in text
    assert "46750.00 (incl. uplift 6750.00)" in text
    assert "| Congestion rent | 11750.00 | Not Available | 20000.00 |" in text
    assert "| Social surplus | 53250.00 | Not Available | 53250.00 |" in text


def test_compare_twobus_unconstrained_vs_constrained_uniform(scenario_dir, tmp_path):
    code = run(["compare", scenario_dir / "twobus.scn", "--out", tmp_path, "--no-timestamp"])
    assert code == 0
    text = (tmp_path / "twobus_compare.md").read_text()
    assert "| Market price | 90.00 | 100.00 | (75.00, 100.00) |" in text


def test_compare_uncongested_scenario_columns_agree(tmp_path):
    import json

    doc = {
        "name": "calm",
        "currency": "$/MWh",
        "network": {
            "slack_bus": "x", "zones": ["Z"],
            "buses": [{"id": "x", "zone": "Z", "load_mw": 50.0, "wtp": 200.0}],
            "lines": [], "interfaces": [],
        },
        "generators": [{"id": "g", "bus": "x", "p_max": 100.0, "ic": 30.0}],
        "regimes": {},
        "run": {"schemes": ["nodal", "zonal", "copper"], "horizon": 1},
    }
    p = tmp_path / "calm.scn"
    p.write_text(json.dumps(doc))
    assert run(["compare", p, "--out", tmp_path, "--no-timestamp"]) == 0
    text = (tmp_path / "calm_compare.md").read_text()
    assert "| Market price | 30.00 | 30.00 | 30.00 |" in text
    assert "| Social surplus | 8500.00 | 8500.00 | 8500.00 |" in text


def test_daucruc_fivebus_asymmetric_table(scenario_dir, tmp_path):
    code = run(["daucruc", scenario_dir / "fivebus_ruc.scn", "--out", tmp_path,
                "--no-timestamp"])
    assert code == 0
    text = (tmp_path / "fivebus_ruc_daucruc.md").read_text()
    assert "| ZE | 200.00 | 300.00 |" in text  # export zone: constrained-off dominant
    assert "| ZI | 100.00 | 0.00 |" in text  # import zone: constrained-on only
    redis = (tmp_path / "fivebus_ruc_redispatch.csv").read_text()
    assert "0,Ge1,300.00,150.00,-150.00" in redis


def test_daucruc_without_ruc_regime_is_schema_error(scenario_dir, tmp_path, capsys):
    code = run(["daucruc", scenario_dir / "fourbus.scn", "--out", tmp_path])
    assert code == 1
    assert "ruc_regime" in capsys.readouterr().err


def test_bidding_uses_scenario_defaults(scenario_dir, tmp_path, capsys):
    code = run(["bidding", scenario_dir / "twobus.scn", "--out", tmp_path,
                "--no-timestamp"])
    assert code == 0
    out = capsys.readouterr().out
    assert "profit 1500.00" in out
    csv_text = (tmp_path / "twobus_bidding_A3.csv").read_text()
    assert "welfare_delta,-2250.00" in csv_text


def test_bidding_truthful_offer_zero_deltas(scenario_dir, tmp_path):
    code = run(["bidding", scenario_dir / "twobus.scn", "--generator", "A3",
                "--offered-ic", "90", "--out", tmp_path, "--no-timestamp"])
    assert code == 0
    text = (tmp_path / "twobus_bidding_A3.csv").read_text()
    assert "profit_delta,0.00" in text
    assert "welfare_delta,-0.00" in text or "welfare_delta,0.00" in text


def test_bidding_takes_the_scenario_offer_only_for_its_own_unit(scenario_dir, tmp_path, capsys):
    # twobus's run.bid_deviation offers 70 for A3; B1's true cost is 80
    code = run(["bidding", scenario_dir / "twobus.scn", "--generator", "B1", "--out", tmp_path])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: run.bid_deviation offers for 'A3', not 'B1': pass --offered-ic"
    ]
    assert captured.out == ""
    assert not tmp_path.exists() or list(tmp_path.iterdir()) == []


def test_bidding_unknown_generator(scenario_dir, tmp_path, capsys):
    code = run(["bidding", scenario_dir / "twobus.scn", "--generator", "zzz",
                "--offered-ic", "10", "--out", tmp_path])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error: unknown generator 'zzz'"]


def test_clear_lp_infeasible_still_writes_diagnostics(tmp_path, capsys):
    import json

    doc = {
        "name": "floors",
        "currency": "$/MWh",
        "network": {
            "slack_bus": "x", "zones": ["Z"],
            "buses": [{"id": "x", "zone": "Z", "load_mw": 50.0, "wtp": 200.0}],
            "lines": [], "interfaces": [],
        },
        "generators": [{"id": "g", "bus": "x", "p_min": 80.0, "p_max": 100.0, "ic": 20.0}],
        "regimes": {},
        "run": {"schemes": ["nodal"], "horizon": 1},
    }
    p = tmp_path / "floors.scn"
    p.write_text(json.dumps(doc))
    code = run(["clear", p, "--scheme", "nodal", "--out", tmp_path, "--no-timestamp"])
    assert code == 2
    summary = (tmp_path / "floors_nodal_summary.csv").read_text()
    assert "lp_infeasible" in summary


def _edited_scenario(scenario_dir, tmp_path, name, edit):
    import json

    doc = json.loads((scenario_dir / f"{name}.scn").read_text())
    edit(doc)
    p = tmp_path / f"{name}.scn"
    p.write_text(json.dumps(doc))
    return p


def _start_cost_and_initial_state(doc):
    for g in doc["generators"]:
        g.update(suc=300.0, initially_on=True, initial_hours=9)


def _non_synchronous_export(doc):
    for g in doc["generators"][:2]:
        g["synchronous"] = False
    doc["regimes"]["zonal"]["min_sync_mw"] = 400.0


# twobus.scn edits under which a bid deviation once priced another market
_BIDDING_EDITS = {
    "start_cost_and_initial_state": _start_cost_and_initial_state,
    "non_synchronous_units": _non_synchronous_export,
    "loads_section": lambda doc: doc.update(loads={"a": 200.0, "b": 200.0}),
}


@pytest.mark.parametrize("edit", _BIDDING_EDITS.values(), ids=_BIDDING_EDITS)
def test_bidding_clears_the_market_clear_clears(scenario_dir, tmp_path, capsys, edit):
    p = _edited_scenario(scenario_dir, tmp_path, "twobus", edit)
    cleared = run(["clear", p, "--scheme", "uniform", "--out", tmp_path / "c", "--no-timestamp"])
    clear_err = capsys.readouterr().err
    bid = run(["bidding", p, "--generator", "A3", "--offered-ic", "70", "--scheme", "uniform",
               "--out", tmp_path / "b", "--no-timestamp"])
    assert (bid, capsys.readouterr().err) == (cleared, clear_err)
    if cleared == 0:
        price = (tmp_path / "c" / "twobus_uniform_prices.csv").read_text().splitlines()[1]
        assert price.startswith("0,system,")
        bidding = (tmp_path / "b" / "twobus_bidding_A3.csv").read_text()
        assert f"price_truthful,{price.split(',')[2]}\n" in bidding


def test_validate_checks_references_despite_issues_outside_the_network(scenario_dir, tmp_path,
                                                                       capsys):
    def edit(doc):
        doc["currency"] = 5
        doc["generators"][0]["bus"] = "ghost"
        doc["loads"] = {"nowhere": 10.0}

    p = _edited_scenario(scenario_dir, tmp_path, "twobus", edit)
    assert run(["validate", p]) == 1
    err = capsys.readouterr().err
    for issue in ("E_TYPE at scenario.currency", "E_REF at generators[0]", "E_REF at loads.nowhere"):
        assert f"  - {issue}: " in err


def test_validate_rejects_ids_and_zones_that_break_report_cells(scenario_dir, tmp_path, capsys):
    # such a file would write "0,A1,x|y,450.00,at_capacity" under a four-column header
    def edit(doc):
        doc["generators"][0]["id"] = "A1,x|y"
        doc["network"]["zones"][0] = "Z,A"
        for bus in doc["network"]["buses"]:
            bus["zone"] = "Z,A" if bus["zone"] == "ZA" else bus["zone"]

    p = _edited_scenario(scenario_dir, tmp_path, "twobus", edit)
    assert run(["validate", p]) == 1
    rule = "may not hold ',', '|', '\"' or a control character"
    assert capsys.readouterr().err == (
        "scenario validation failed:\n"
        f"  - E_VALUE at network.zones[0]: zone 'Z,A' {rule}\n"
        f"  - E_VALUE at generators[0].id: generator id 'A1,x|y' {rule}\n")
    assert run(["clear", p, "--out", tmp_path / "o"]) == 1
    assert not (tmp_path / "o").exists()


def test_clear_honours_loads_section(scenario_dir, tmp_path):
    p = _edited_scenario(scenario_dir, tmp_path, "twobus",
                         lambda doc: doc.update(loads={"a": 100, "b": 100}))
    code = run(["clear", p, "--scheme", "copper", "--out", tmp_path / "o", "--no-timestamp"])
    assert code == 0
    dispatch = (tmp_path / "o" / "twobus_copper_dispatch.csv").read_text()
    assert "0,A1,200.00,\n" in dispatch
    assert "0,A2,0.00,\n" in dispatch


@pytest.mark.parametrize("key,value,code", [
    ("forced_bounds", {"P3": {"min": "abc"}}, "E_TYPE"),
    ("forced_bounds", {"P3": {"min": 9999}}, "E_VALUE"),
    ("bid_deviation", {"generator": "P3", "offered_ic": 30.0, "scheme": "banana"}, "E_RUN"),
    ("schemes", [["nodal"]], "E_RUN"),
    ("schemes", ["nodal", "nodal"], "E_RUN at run.schemes: scheme 'nodal' is repeated"),
])
def test_validate_rejects_bad_run_section(scenario_dir, tmp_path, capsys, key, value, code):
    p = _edited_scenario(scenario_dir, tmp_path, "fourbus", lambda doc: doc["run"].update({key: value}))
    assert run(["validate", p]) == 1
    assert code in capsys.readouterr().err


def test_validate_rejects_forced_bounds_that_leave_no_output_range(scenario_dir, tmp_path, capsys):
    p = _edited_scenario(scenario_dir, tmp_path, "twobus",
                         lambda doc: doc["generators"][0].update(p_min=100.0, forced_max=50.0))
    assert run(["validate", p]) == 1
    assert ("E_VALUE at generators[0]: generator A1: forced bounds leave no output range "
            "(lower 100 > upper 50)") in capsys.readouterr().err
    assert run(["clear", p, "--scheme", "nodal", "--out", tmp_path / "o", "--no-timestamp"]) == 1
    assert not (tmp_path / "o").exists()


_NUMERIC_FIELDS = [
    ("network", "buses", 0, "load_mw"),
    ("network", "buses", 0, "wtp"),
    ("network", "lines", 0, "reactance"),
    ("network", "lines", 0, "limit_mw"),
    ("network", "interfaces", 0, "ttc_mw"),
    ("network", "interfaces", 0, "members", 0, "direction"),
    ("generators", 0, "p_min"),
    ("generators", 0, "p_max"),
    ("generators", 0, "ic"),
    ("generators", 0, "nlc"),
    ("generators", 0, "suc"),
    ("generators", 0, "forced_min"),
    ("generators", 0, "forced_max"),
    ("generators", 0, "min_up_h"),
    ("generators", 0, "min_down_h"),
    ("generators", 0, "initial_hours"),
    ("regimes", "nodal", "reserve_req_mw"),
    ("regimes", "nodal", "min_sync_mw"),
    ("run", "horizon"),
    ("run", "bid_deviation", "offered_ic"),
    ("loads", "a"),
]


def _set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc.setdefault(key, {}) if isinstance(key, str) else doc[key]
    doc[path[-1]] = value


def _where(path):
    """The ``where`` of a validation issue about the field at ``path``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _key_where(path):
    """The ``where`` of an ``E_KEY`` issue about the key at ``path``."""
    return f"{_where(path[:-1]) or 'scenario'}.{path[-1]}"


@pytest.mark.parametrize("value", [True, float("nan"), float("inf")], ids=["true", "NaN", "Infinity"])
@pytest.mark.parametrize("path", _NUMERIC_FIELDS, ids=lambda path: ".".join(map(str, path)))
def test_validate_rejects_non_numbers_where_a_number_is_expected(scenario_dir, tmp_path, capsys,
                                                                path, value):
    p = _edited_scenario(scenario_dir, tmp_path, "twobus", lambda doc: _set_path(doc, path, value))
    assert run(["validate", p]) == 1
    assert f"E_TYPE at {_where(path)}" in capsys.readouterr().err


# a misspelt or unknown key in each fixed-schema object of twobus.scn
_UNKNOWN_KEYS = [
    (("reserves",), {"up_mw": 50.0}),
    (("network", "slack"), "a"),
    (("network", "buses", 0, "load_MW"), 999.0),
    (("network", "lines", 0, "limit"), 50.0),
    (("network", "interfaces", 0, "ttc"), 50.0),
    (("network", "interfaces", 0, "members", 0, "dir"), -1),
    (("generators", 0, "min_upp_h"), 4),
    (("regimes", "nodal", "reserve_mw"), 100.0),
    (("run", "horizn"), 2),
    (("run", "forced_bounds", "A1", "mx"), 3.0),
    (("run", "bid_deviation", "ofered_ic"), 60.0),
]


@pytest.mark.parametrize("path,value", _UNKNOWN_KEYS, ids=[_key_where(p) for p, _ in _UNKNOWN_KEYS])
def test_validate_rejects_an_unknown_key(scenario_dir, tmp_path, capsys, path, value):
    p = _edited_scenario(scenario_dir, tmp_path, "twobus", lambda doc: _set_path(doc, path, value))
    assert run(["validate", p]) == 1
    assert f"  - E_KEY at {_key_where(path)}: unknown field; allowed: (" in capsys.readouterr().err


def test_validate_accepts_any_key_under_metadata(scenario_dir, tmp_path, capsys):
    p = _edited_scenario(scenario_dir, tmp_path, "twobus", lambda doc: doc["metadata"].update(reserves="n/a"))
    assert run(["validate", p]) == 0


@pytest.mark.parametrize("name", ["../escaped", "sub/dir/x", "", ".", "..", "a\\b", "a\0b"])
def test_name_that_is_not_one_path_component_is_rejected(scenario_dir, tmp_path, capsys, name):
    p = _edited_scenario(scenario_dir, tmp_path, "twobus", lambda doc: doc.update(name=name))
    assert run(["clear", p, "--out", tmp_path / "nm" / "out"]) == 1
    assert f"E_VALUE at scenario.name: {name!r} is not a single path component" in capsys.readouterr().err
    assert [f.name for f in tmp_path.rglob("*")] == ["twobus.scn"]


@pytest.mark.parametrize("name", ["two\nbus\x07", "two\x07bus", "two\x85bus"], ids=["newline", "bel", "nel"])
def test_name_holding_a_control_character_is_rejected(scenario_dir, tmp_path, capsys, name):
    """Reports are named and headed after the scenario, so a C0 or C1
    control character in its name is E_VALUE, printed with its escapes, and
    no report is written."""
    p = _edited_scenario(scenario_dir, tmp_path, "twobus", lambda doc: doc.update(name=name))
    assert run(["validate", p]) == 1
    assert (f"  - E_VALUE at scenario.name: {name!r} may not hold a control character\n"
            in capsys.readouterr().err)
    assert run(["clear", p, "--format", "md", "--out", tmp_path / "nm" / "out"]) == 1
    assert [f.name for f in tmp_path.rglob("*")] == ["twobus.scn"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [["clear", "fourbus.scn", "--scheme", "zonal", "--tolerance"],
                                  ["bidding", "twobus.scn", "--offered-ic"]], ids=["tolerance", "offered-ic"])
def test_non_finite_float_flag_is_one_error_line(scenario_dir, tmp_path, capsys, argv, value):
    command, scenario, *flags = argv
    flags[-1] += f"={value}"
    assert run([command, scenario_dir / scenario, *flags, "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err == (f"error: gridclear {command}: argument {argv[-1]}: "
                                       f"expected a finite number, got {value!r}\n")
    assert not (tmp_path / "o").exists()


def test_validate_rejects_non_string_monitored_profile(scenario_dir, tmp_path, capsys):
    p = _edited_scenario(scenario_dir, tmp_path, "twobus",
                         lambda doc: doc["regimes"]["nodal"].update(monitored_profile=["nodal"]))
    assert run(["validate", p]) == 1
    assert "E_TYPE at regimes.nodal.monitored_profile" in capsys.readouterr().err


@pytest.mark.parametrize("tags", [[1, None, {}], [True]], ids=str)
def test_validate_rejects_non_string_monitored_in(scenario_dir, tmp_path, capsys, tags):
    p = _edited_scenario(scenario_dir, tmp_path, "fourbus",
                         lambda doc: doc["network"]["lines"][0].update(monitored_in=tags))
    assert run(["validate", p]) == 1
    assert "E_TYPE at network.lines[0].monitored_in" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", [8761, 10**30])
def test_horizon_beyond_a_year_is_rejected(scenario_dir, tmp_path, capsys, horizon):
    p = _edited_scenario(scenario_dir, tmp_path, "twobus", lambda doc: doc["run"].update(horizon=horizon))
    assert run(["clear", p, "--out", tmp_path / "o"]) == 1
    assert "E_RUN at run.horizon" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_year_long_commitment_search_is_refused_within_a_second(scenario_dir, tmp_path, capsys):
    # a year of hours: counting the sequences must stay linear in the horizon
    p = _edited_scenario(scenario_dir, tmp_path, "fivebus_ruc", lambda doc: doc["run"].update(horizon=8760))
    t0 = time.perf_counter()
    assert run(["daucruc", p, "--out", tmp_path / "o", "--no-timestamp"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "commitment search space exceeds" in capsys.readouterr().err


def _set(section, key, **fields):
    """An edit that updates the entry ``key`` of a scenario's ``section``."""
    def edit(doc):
        entries = doc["network"][section] if section in ("buses", "lines") else doc[section]
        next(e for e in entries if e["id"] == key).update(fields)
    return edit


_OUT_OF_RANGE = {
    "bus a load and wtp 1e300": ("twobus", _set("buses", "a", load_mw=1e300, wtp=1e300), "nodal",
                                 "network.buses[0]: bus a: load_mw 1e+300"),
    "bus b wtp 1e308": ("twobus", _set("buses", "b", wtp=1e308), "nodal", "network.buses[1]: bus b: wtp 1e+308"),
    "A1 ic 1e308": ("twobus", _set("generators", "A1", ic=1e308), "nodal", "generators[0]: generator A1: ic 1e+308"),
    "lab reactance 5e-324": ("twobus", _set("lines", "lab", reactance=5e-324), "zonal",
                             "network.lines[0]: line lab: reactance 5e-324"),
    "l12 limit 1e308": ("fourbus", _set("lines", "l12", limit_mw=1e308), "nodal",
                        "network.lines[0]: line l12: limit_mw 1e+308"),
    **{f"bus b wtp 1e308 {scheme}": ("twobus", _set("buses", "b", wtp=1e308), scheme,
                                     "network.buses[1]: bus b: wtp 1e+308")
       for scheme in ("zonal", "uniform", "copper")},
}


@pytest.mark.parametrize("name, edit, scheme, issue", _OUT_OF_RANGE.values(), ids=_OUT_OF_RANGE.keys())
def test_clear_out_of_range_scenario_is_a_validation_error(scenario_dir, tmp_path, capsys, name, edit, scheme,
                                                           issue):
    # a figure beyond the engine's range is rejected where the scenario is
    # read, so no arithmetic downstream meets it: no warning, no report
    p = _edited_scenario(scenario_dir, tmp_path, name, edit)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["clear", p, "--scheme", scheme, "--out", tmp_path / "o", "--no-timestamp"]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "scenario validation failed:"
    assert err[1].startswith(f"  - E_VALUE at {issue} outside [")
    assert not (tmp_path / "o").exists()


def test_bidding_on_an_out_of_range_scenario_is_a_validation_error(scenario_dir, tmp_path, capsys):
    # a wtp of 1e308 would overflow both clearings' true welfare; it is
    # rejected before either clearing
    p = _edited_scenario(scenario_dir, tmp_path, "twobus", _set("buses", "b", wtp=1e308))
    assert run(["bidding", p, "--out", tmp_path / "o", "--no-timestamp"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == ["scenario validation failed:",
                       "  - E_VALUE at network.buses[1]: bus b: wtp 1e+308 outside [-1e+09, 1e+09]"]
    assert not (tmp_path / "o").exists()


def test_bidding_offer_beyond_the_range_is_one_error_line(scenario_dir, tmp_path, capsys):
    # the offer makes a unit the engine refuses to build
    assert run(["bidding", scenario_dir / "twobus.scn", "--offered-ic", "1e10",
                "--out", tmp_path / "o", "--no-timestamp"]) == 1
    assert capsys.readouterr().err == "error: generator A3: ic 10000000000.0 outside [-1e+09, 1e+09]\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scheme", ["uniform", "zonal", "nodal"])
def test_bidding_without_an_optimum_is_one_error_line(scenario_dir, tmp_path, capsys, scheme):
    # no dispatch meets 5000 MW of synchronous output, so no price exists
    def edit(doc):
        for regime in doc["regimes"].values():
            regime["min_sync_mw"] = 5000.0

    p = _edited_scenario(scenario_dir, tmp_path, "twobus", edit)
    assert run(["bidding", p, "--scheme", scheme, "--out", tmp_path / "o", "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: empty marginal set in hour 0 "
                   "(A3: lp_infeasible: no dispatch satisfies the enforced constraints)\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("exc", [
    LpNumericalError("simplex stalled"),
    GridNumericalError("singular reduced susceptance matrix"),
    AccountingIdentityError("consumer_total_payment == generator receipts + congestion_rent", "1 vs 2"),
    SettlementKeyError("no nodal price for key 'x'"),
], ids=lambda exc: type(exc).__name__)
def test_engine_errors_exit_one_with_one_error_line(scenario_dir, tmp_path, capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "run_scheme", fail)
    assert run(["clear", scenario_dir / "twobus.scn", "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", [["--format", "md"], ["--tolerance", "0.5"]], ids=lambda f: f[0])
@pytest.mark.parametrize("argv", [
    ["daucruc", "fivebus_ruc.scn"],
    ["bidding", "twobus.scn"],
    ["stats", "prices.csv"],
], ids=lambda argv: argv[0])
def test_report_flags_only_on_clear_and_compare(scenario_dir, tmp_path, capsys, argv, flag):
    target = tmp_path / argv[1] if argv[0] == "stats" else scenario_dir / argv[1]
    (tmp_path / "prices.csv").write_text("timestamp,price\n1,77\n")
    assert run([argv[0], target, "--out", tmp_path / "o", *flag]) == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bidding_rejects_regime_of_wrong_mode(scenario_dir, tmp_path, capsys):
    p = _edited_scenario(scenario_dir, tmp_path, "twobus",
                         lambda doc: doc["regimes"]["nodal"].update(mode="zonal"))
    assert run(["bidding", p, "--scheme", "nodal", "--out", tmp_path / "o"]) == 1
    assert "needs 'nodal'" in capsys.readouterr().err


def test_stats_constant_series(tmp_path, capsys):
    src = tmp_path / "prices.csv"
    src.write_text("timestamp,price\n1,77\n2,77\n3,77\n")
    code = run(["stats", src, "--out", tmp_path, "--no-timestamp"])
    assert code == 0
    out = capsys.readouterr().out
    assert "median=77.00" in out and "p90=77.00" in out


def test_stats_zero_mean_series(tmp_path, capsys):
    # a price at or below zero is valid; nothing divides by the mean
    src = tmp_path / "zero.csv"
    src.write_text("timestamp,price\n1,0\n2,0\n")
    assert run(["stats", src, "--out", tmp_path, "--no-timestamp"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "median=0.00 p10=0.00 p90=0.00"


def test_stats_requires_rows(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("timestamp,price\n")
    assert run(["stats", src, "--out", tmp_path]) == 1


_BAD_STATS_INPUTS = [
    ("missing.csv", None, "No such file or directory"),
    ("header.csv", "timestamp,price\n", "need a header row plus timestamp,price rows"),
    ("one_column.csv", "price\n5\n6\n", "need a header row plus timestamp,price rows"),
    ("short_row.csv", "timestamp,price\n1,5\n2\n", "need a header row plus timestamp,price rows"),
    ("long_row.csv", "timestamp,price\n1,5,6\n", "need a header row plus timestamp,price rows"),
    ("text.csv", "timestamp,price\n1,abc\n", "bad price value: could not convert string to float: 'abc'"),
    ("nan.csv", "timestamp,price\n1,nan\n2,5\n", "price series contains non-finite values"),
    ("a_directory", "", "Is a directory"),
    ("huge_field.csv", "timestamp,price\n1," + "9" * 200_000 + "\n",
     "bad CSV: field larger than field limit (131072)"),
]


@pytest.mark.parametrize("name,text,message", _BAD_STATS_INPUTS, ids=[c[0] for c in _BAD_STATS_INPUTS])
def test_stats_rejects_bad_input_with_one_error_line(tmp_path, capsys, name, text, message):
    src = tmp_path / name
    if name == "a_directory":
        src.mkdir()
    elif text is not None:
        src.write_text(text)
    assert run(["stats", src, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("prices, message", [
    ((1e308, 1e308), "price series: price 0 1e+308 outside [-1e+09, 1e+09]"),
    ((1e308, -1e308, 1e308), "price series: price 0 1e+308 outside [-1e+09, 1e+09]"),
    ((1e308, -1e308, 1e-300), "price series: price 0 1e+308 outside [-1e+09, 1e+09]"),
    ((5.0, 2e9), "price series: price 1 2000000000.0 outside [-1e+09, 1e+09]"),
], ids=["mean", "percentile", "normalized", "2e9"])
def test_stats_overflowing_series_is_one_error_line(tmp_path, capsys, prices, message):
    # finite prices beyond grid.MAGNITUDE, some whose sum or interpolation
    # span would overflow: one error line naming the first such price, never
    # a numpy warning
    src = tmp_path / "huge.csv"
    src.write_text("timestamp,price\n" + "".join(f"{i},{p!r}\n" for i, p in enumerate(prices)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["stats", src, "--out", tmp_path / "o"]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "o").exists()


def test_gridclear_out_env_var(scenario_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("GRIDCLEAR_OUT", str(tmp_path / "envdir"))
    code = run(["clear", scenario_dir / "fourbus.scn", "--scheme", "nodal",
                "--no-timestamp"])
    assert code == 0
    assert (tmp_path / "envdir" / "fourbus_nodal_summary.csv").exists()


def test_byte_identical_reports_without_timestamp(scenario_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run(["clear", scenario_dir / "fourbus.scn", "--scheme", "nodal",
                    "--out", d, "--no-timestamp"]) == 0
    for f in sorted(a.iterdir()):
        assert f.read_bytes() == (b / f.name).read_bytes()


def test_timestamp_header_present_by_default(scenario_dir, tmp_path):
    assert run(["clear", scenario_dir / "fourbus.scn", "--scheme", "nodal",
                "--out", tmp_path]) == 0
    first = (tmp_path / "fourbus_nodal_summary.csv").read_text().splitlines()[0]
    assert first.startswith("# generated ")


def test_markdown_format(scenario_dir, tmp_path):
    assert run(["clear", scenario_dir / "fourbus.scn", "--scheme", "nodal",
                "--out", tmp_path, "--format", "md", "--no-timestamp"]) == 0
    assert (tmp_path / "fourbus_nodal_report.md").exists()


_STAMPED_RUNS = {
    "clear csv": ["clear", "fourbus.scn", "--scheme", "zonal"],
    "clear md": ["clear", "fourbus.scn", "--scheme", "zonal", "--format", "md"],
    "compare csv": ["compare", "fourbus.scn", "--format", "csv"],
    "compare md": ["compare", "fourbus.scn", "--format", "md"],
    "daucruc": ["daucruc", "fivebus_ruc.scn"],
    "bidding": ["bidding", "twobus.scn"],
    "stats": ["stats", "prices.csv"],
}


@pytest.mark.parametrize("argv", _STAMPED_RUNS.values(), ids=_STAMPED_RUNS.keys())
def test_every_report_is_its_unstamped_bytes_behind_a_stamp(scenario_dir, tmp_path, argv):
    (tmp_path / "prices.csv").write_text("timestamp,price\n1,77\n2,80\n")
    target = tmp_path / argv[1] if argv[0] == "stats" else scenario_dir / argv[1]
    full = [argv[0], target, *argv[2:]]
    stamped, plain = tmp_path / "stamped", tmp_path / "plain"
    run([*full, "--out", stamped])
    run([*full, "--out", plain, "--no-timestamp"])
    names = sorted(p.name for p in plain.iterdir())
    assert names and names == sorted(p.name for p in stamped.iterdir())
    for name in names:
        first, rest = (stamped / name).read_bytes().split(b"\n", 1)
        form = rb"<!-- generated \S+ -->" if name.endswith(".md") else rb"# generated \S+"
        assert re.fullmatch(form, first), (name, first)
        assert rest == (plain / name).read_bytes(), name


def _paths(node, prefix=()):
    """Every key path into a JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _strings(node):
    if isinstance(node, str):
        yield node
    for child in (node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()):
        yield from _strings(child)


_SCENARIOS = ("fivebus_ruc", "fourbus", "fourbus_tie270", "twobus")
_HUGE = st.sampled_from([1e300, -1e300, 1.7976931348623157e308, 10**30, -(10**30), 2**63])
_LEAVES = (st.none() | st.booleans() | st.integers() | _HUGE
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4))
_SUBCOMMANDS = [["clear", "--scheme", s] for s in SCHEMES] + [["compare"], ["daucruc"], ["bidding"]]


_FREE_FORM = ("metadata", "loads", "regimes", "forced_bounds")  # maps whose keys are names or ids
# no field table names a key that starts with "x_"
_UNKNOWN_KEY = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=4).map("x_{}".format)


def _objects(doc):
    """The key path of every fixed-schema object in a scenario document."""
    def at(path):
        return functools.reduce(lambda node, key: node[key], path, doc)
    return [()] + [p for p in _paths(doc) if isinstance(at(p), dict) and p[-1] not in _FREE_FORM]


@settings(max_examples=90, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), name=st.sampled_from(_SCENARIOS), command=st.sampled_from(_SUBCOMMANDS))
def test_mutated_scenarios_exit_cleanly_with_coded_rejections(scenario_dir, tmp_path, data, name, command):
    """Set or delete one field of a bundled scenario, or add a key no field
    table names to one of its fixed-schema objects: no exception escapes
    ``main``, exit codes stay 0/1/2, every validation issue carries an
    ``E_*`` code, an unknown key is ``E_KEY`` at its path, and a scenario that
    loads survives a dump and reload."""
    doc = json.loads((scenario_dir / f"{name}.scn").read_text())
    kind = data.draw(st.sampled_from(["delete", "set", "unknown key"]), label="kind")
    unknown = None
    if kind == "unknown key":
        obj = data.draw(st.sampled_from(_objects(doc)), label="object")
        path = obj + (data.draw(_UNKNOWN_KEY, label="key"),)
        _set_path(doc, path, data.draw(_LEAVES, label="value"))
        unknown = _key_where(path)
    else:
        path = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)), label="path")
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        else:
            known = st.sampled_from(sorted(set(_strings(doc))))
            values = st.recursive(_LEAVES | known, lambda inner: st.lists(inner, max_size=3)
                                  | st.dictionaries(st.text(max_size=4) | known, inner, max_size=3),
                                  max_leaves=6)
            parent[path[-1]] = data.draw(values, label="value")

    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        scn = f"{work}/{name}.scn"
        with open(scn, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            validated = main(["validate", scn])
            code = main([command[0], scn, *command[1:], "--out", f"{work}/out", "--no-timestamp"])
        assert validated in (0, 1) and code in (0, 1, 2)
        assert validated or unknown is None
        if validated:
            lines = err.getvalue().splitlines()
            assert lines[0] == "scenario validation failed:"
            issues = [l for l in lines if l.startswith("  - ")]
            assert issues and all(re.match(r"  - E_[A-Z]+ at ", l) for l in issues), lines
            assert unknown is None or any(l.startswith(f"  - E_KEY at {unknown}: ") for l in issues), lines
        else:
            sc = load_scenario(scn)
            Path(f"{work}/again.scn").write_text(json.dumps(dump_scenario(sc), indent=2))
            assert load_scenario(f"{work}/again.scn") == sc
