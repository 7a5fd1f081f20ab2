import pytest

from gridclear.cli import main


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


def test_bidding_unknown_generator(scenario_dir, tmp_path, capsys):
    code = run(["bidding", scenario_dir / "twobus.scn", "--generator", "zzz",
                "--offered-ic", "10", "--out", tmp_path])
    assert code == 1


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
])
def test_validate_rejects_bad_run_section(scenario_dir, tmp_path, capsys, key, value, code):
    p = _edited_scenario(scenario_dir, tmp_path, "fourbus", lambda doc: doc["run"].update({key: value}))
    assert run(["validate", p]) == 1
    assert code in capsys.readouterr().err


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


def test_stats_requires_rows(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("timestamp,price\n")
    assert run(["stats", src, "--out", tmp_path]) == 1


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
