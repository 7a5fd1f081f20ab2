"""Tests of the benchmark itself: generators, tracing and the result line.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402

cli = run.import_cli()
from gridclear import commitment, dispatch, lp  # noqa: E402

# the layers each workload was chosen to exercise
LAYERS_BY_WORKLOAD = {
    "nodal_mesh": {"cli", "scenario", "grid", "lp", "dispatch", "pricing", "settlement"},
    "uc_horizon": {"cli", "scenario", "grid", "lp", "dispatch", "commitment", "pricing",
                   "settlement", "analysis"},
    "cli_bundled": set(spantrace.LAYERS),
}


@pytest.fixture
def client(tmp_path, monkeypatch):
    monkeypatch.setenv("GRIDCLEAR_OUT", str(tmp_path / "out"))
    (tmp_path / "in").mkdir()
    return run.Client(cli, run.load_expected(), tmp_path / "out")


def first_ops(workload, seed, tmp_path, n):
    return list(itertools.islice(workloads.WORKLOADS[workload](seed, tmp_path / "in", run.SCENARIOS), n))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda seed: gen.mesh_doc(seed, 3, 17),
    lambda seed: gen.uc_doc(seed, 3, 4, 5),
])
def test_generators_are_deterministic(make, tmp_path):
    a = gen.write_doc(make(5), tmp_path / "a.scn").read_bytes()
    b = gen.write_doc(make(5), tmp_path / "b.scn").read_bytes()
    c = gen.write_doc(make(6), tmp_path / "c.scn").read_bytes()
    assert a == b
    assert a != c
    assert gen.price_csv(5) == gen.price_csv(5) != gen.price_csv(6)


@pytest.mark.parametrize("seed", range(4))
def test_mesh_instances_have_local_cover(seed):
    for k, n in enumerate(workloads.MESH_SIZES):
        doc = gen.mesh_doc(seed, k, n)
        net = doc["network"]
        assert len(net["buses"]) == n
        assert len(net["lines"]) == n - 1 + round(0.5 * n)
        zone = {b["id"]: b["zone"] for b in net["buses"]}
        cross = {l["id"] for l in net["lines"] if zone[l["from"]] != zone[l["to"]]}
        assert {i["members"][0]["line"] for i in net["interfaces"]} == cross
        for b in net["buses"]:
            local = sum(g["p_max"] for g in doc["generators"] if g["bus"] == b["id"])
            assert local >= b["load_mw"]


@pytest.mark.parametrize("seed", range(4))
def test_uc_instances_hold_their_properties(seed, tmp_path):
    for k, (units, hours) in enumerate(workloads.UC_SHAPES):
        doc = gen.uc_doc(seed, k, units, hours)
        gens = doc["generators"]
        assert len(gens) == units and doc["run"]["horizon"] == hours and units * hours <= 20
        lines = doc["network"]["lines"]
        da = {l["id"] for l in lines if "DAUC" in l["monitored_in"]}
        ruc = {l["id"] for l in lines if "RUC" in l["monitored_in"]}
        assert da and da < ruc
        peaker = gens[-1]
        totals = [a + b for a, b in zip(doc["loads"]["i1"], doc["loads"]["i2"])]
        assert sum(g["p_max"] for g in gens[:-1]) < min(totals)  # the peaker is needed every hour
        assert peaker["bus"] == "i1" and peaker["p_max"] > max(totals)
        sc = cli.load_scenario(gen.write_doc(doc, tmp_path / "uc.scn"))
        size = 1
        for u in sc.generators:
            size *= len(commitment.feasible_sequences(u, hours))
        assert size <= commitment.ENUMERATION_CAP


# ---------------------------------------------------------------------------
# tracing from outside
# ---------------------------------------------------------------------------

def test_install_wraps_every_binding_and_restore_puts_them_back():
    originals = {(m.__name__, a): o for m in spantrace._package_modules()
                 for a, o in vars(m).items()}
    tracer = spantrace.Tracer()
    wrapped = set(tracer.install())
    try:
        for name in ("gridclear.cli.clear_nodal", "gridclear.commitment.clear_nodal",
                     "gridclear.analysis.clear_nodal", "gridclear.dispatch.build_ptdf",
                     "gridclear.cli.build_ptdf", "gridclear.commitment.solve_uc",
                     "gridclear.lp.solve", "gridclear.solve"):
            assert name in wrapped
        assert dispatch.clear_nodal is commitment.clear_nodal  # one wrapper per function
        assert hasattr(lp.solve, "__bench_original__")
    finally:
        tracer.restore()
    assert spantrace.leftover_wrappers() == []
    for m in spantrace._package_modules():
        for a, o in vars(m).items():
            assert originals[(m.__name__, a)] is o


def test_wrapped_solve_returns_what_the_unwrapped_one_does():
    sc = cli.load_scenario(run.SCENARIOS / "fourbus.scn")
    captured = []
    tracer = spantrace.Tracer()
    tracer.install()
    try:
        result = dispatch.clear_nodal(sc.network, sc.specs(), sc.regime("nodal"))
        captured = [s for s in tracer.spans if s[spantrace.NAME] == "lp.solve"]
    finally:
        tracer.restore()
    assert result == dispatch.clear_nodal(sc.network, sc.specs(), sc.regime("nodal"))
    assert len(captured) == 1 and captured[0][spantrace.INFO][3]  # one optimal solve


@pytest.mark.parametrize("workload", sorted(LAYERS_BY_WORKLOAD))
def test_traced_ops_match_untraced_ones_and_cover_their_layers(workload, client, tmp_path):
    n = 31 if workload == "cli_bundled" else 2  # one round of every bundled op
    ops = first_ops(workload, run.DEFAULT_SEED, tmp_path, n)
    plain = [client.run(op)[1] for op in ops]
    tracer = spantrace.Tracer()
    tracer.install()
    try:
        traced = [client.run(op, tracer, i)[1] for i, op in enumerate(ops)]
    finally:
        tracer.restore()
    assert client.failed == {}
    assert traced == plain
    seen = {s[spantrace.NAME].split(".")[0] for s in tracer.spans}
    assert LAYERS_BY_WORKLOAD[workload] <= seen
    metrics = spantrace.summarize(tracer.spans, commitment)
    assert metrics["op.count"] == n and metrics["cli.calls"] == n
    assert set(metrics) | {"trace.overhead_ratio"} == set(spantrace.PER_LAYER)


# ---------------------------------------------------------------------------
# the result line and the contract with BENCHMARK.json
# ---------------------------------------------------------------------------

def test_checks_catch_a_wrong_report(client, tmp_path):
    op = first_ops("nodal_mesh", run.DEFAULT_SEED, tmp_path, 1)[0]
    _, out = run.execute(cli, op, client.out_dir)
    assert run.failures(op, out, client.expected) == []
    name = next(n for n in out.files if n.endswith("_dispatch.csv"))
    lines = out.files[name].decode().splitlines()
    lines[1] = lines[1].rsplit(",", 2)[0] + ",9999.00,"  # one unit's output changed
    bad = workloads.Output(out.rc, out.text, dict(out.files, **{name: "\n".join(lines).encode()}), None)
    errors = run.failures(op, bad, client.expected)
    assert any("digest" in e for e in errors)
    assert any("balance" in e for e in errors)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_metric_of_benchmark_json(trace, capsys, monkeypatch):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "cli_bundled", "--seconds", "0.2", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:  # end-to-end metrics are never 0
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_bundled",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
