"""The benchmark's workloads: seeded streams of CLI invocations and the
checks each invocation's output must pass.

A workload is a function ``(seed, work_dir, scenarios_dir) -> iterator of
Op``.  The stream is endless; the harness stops taking ops when its time is
up.  Generated inputs are written under ``work_dir`` before the op is handed
out, so the program only ever sees files.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import random
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import gen

BUNDLED = ("fivebus_ruc", "fourbus", "fourbus_tie270", "twobus")
SCHEMES = ("nodal", "zonal", "zonal_cm", "copper", "uniform")
# Op k takes entry k mod len of these cycles, so every run has the same mix.
# Each cycle repeats its heaviest entry: the top two slots of the sorted mix
# then belong to one size or shape, and p90 falls inside that cluster of op
# times instead of on the edge between two.  The mesh ladder stops at 20
# buses until the LP work lands (40 buses takes seconds per op at the seed
# commit).
MESH_SIZES = tuple(range(12, 21)) + (20,)
# (units, hours) with units * hours <= 20; with 9 slots the median falls in
# the middle of the fifth, (4, 4)
UC_SHAPES = ((3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (4, 5), (5, 3), (5, 4), (5, 4))
ROUND_MW = 0.005  # reports print two decimals


@dataclass(frozen=True)
class Output:
    """What one CLI invocation left behind."""
    rc: int | None
    text: str  # stdout and stderr, output directory replaced by "<out>"
    files: dict[str, bytes]
    error: str | None  # exception that escaped cli.main, if any


@dataclass
class Op:
    key: str  # identifies the op in the recorded exit codes and digests
    argv: list[str]
    expected_rc: int | None  # None: the code recorded at the seed commit
    check: Callable[[Output], list[str]]
    inputs: list[Path] = field(default_factory=list)  # generated files to delete afterwards


# ---------------------------------------------------------------------------
# output parsing and invariants
# ---------------------------------------------------------------------------

def _rows(files: dict[str, bytes], name: str) -> list[dict[str, str]]:
    text = files[name].decode()
    return list(csv.DictReader(line for line in io.StringIO(text) if not line.startswith("#")))


def _loads_at(doc: dict, hour: int) -> dict[str, float]:
    """Bus loads of one hour: the ``loads`` section over the bus loads."""
    loads = doc.get("loads") or {}
    return {b["id"]: loads[b["id"]][hour] if b["id"] in loads else b["load_mw"]
            for b in doc["network"]["buses"]}


def _line_errors(doc: dict, gen_mw: dict[str, float], load: dict[str, float], lines) -> list[str]:
    """Flows recomputed by the benchmark's own B-theta solve must respect
    each line's limit, up to the rounding of the reported dispatch."""
    net = doc["network"]
    inj = {b["id"]: -load.get(b["id"], 0.0) for b in net["buses"]}
    gen_bus = {g["id"]: g["bus"] for g in doc["generators"]}
    for gid, mw in gen_mw.items():
        inj[gen_bus[gid]] += mw
    flows = gen.btheta_flows([b["id"] for b in net["buses"]], net["slack_bus"],
                             [(l["from"], l["to"], l["reactance"]) for l in net["lines"]], inj)
    tol = ROUND_MW * len(gen_mw) + 1e-6
    return [f"line {l['id']}: flow {f:.3f} MW exceeds limit {l['limit_mw']}"
            for l, f in zip(net["lines"], flows) if l["id"] in lines and abs(f) > l["limit_mw"] + tol]


def _balance_error(what: str, supplied: float, served: float, n_units: int) -> list[str]:
    if abs(supplied - served) > ROUND_MW * (n_units + 1) + 1e-6:
        return [f"{what}: dispatch {supplied:.3f} MW does not balance served load {served:.3f} MW"]
    return []


CURTAIL = re.compile(r"curtailment\[[^\]]+\]: ([0-9.]+) MW unserved")


def check_scheme_reports(doc: dict, files: dict[str, bytes]) -> list[str]:
    """Every scheme's dispatch report balances the served load: the bus
    loads minus what the summary says was curtailed."""
    errors = []
    total = sum(b["load_mw"] for b in doc["network"]["buses"])
    for name in sorted(files):
        if not name.endswith("_dispatch.csv"):
            continue
        summary = files[name.replace("_dispatch.csv", "_summary.csv")].decode()
        if "lp_" in summary:  # no dispatch exists
            continue
        curtailed = sum(float(m) for m in CURTAIL.findall(summary))
        rows = _rows(files, name)
        errors += _balance_error(name, sum(float(r["dispatch_mw"]) for r in rows),
                                 total - curtailed, len(rows))
    return errors


def check_nodal(doc: dict, out: Output) -> list[str]:
    """Nodal clearing balances load, reports no violation and keeps every
    line within its limit."""
    name = doc["name"]
    rows = _rows(out.files, f"{name}_nodal_dispatch.csv")
    gen_mw = {r["generator"]: float(r["dispatch_mw"]) for r in rows}
    errors = check_scheme_reports(doc, out.files)
    if b"violation" in out.files[f"{name}_nodal_summary.csv"]:
        errors.append("nodal clearing reported a violation")
    return errors + _line_errors(doc, gen_mw, _loads_at(doc, 0), {l["id"] for l in doc["network"]["lines"]})


def check_daucruc(doc: dict, out: Output) -> list[str]:
    """Both passes serve every hour's load and respect the lines their
    regime monitors."""
    rows = _rows(out.files, f"{doc['name']}_redispatch.csv")
    errors = []
    for col, regime in (("dauc_mw", "dauc_regime"), ("ruc_mw", "ruc_regime")):
        profile = doc["regimes"][doc["run"][regime]]["monitored_profile"]
        lines = {l["id"] for l in doc["network"]["lines"] if profile in l["monitored_in"]}
        for t in range(doc["run"]["horizon"]):
            load = _loads_at(doc, t)
            mw = {r["generator"]: float(r[col]) for r in rows if int(r["hour"]) == t}
            errors += _balance_error(f"{col} hour {t}", sum(mw.values()), sum(load.values()), len(mw))
            errors += [f"{col} hour {t}: {e}" for e in _line_errors(doc, mw, load, lines)]
    return errors


def check_stats(prices: list[float], out: Output, stem: str) -> list[str]:
    """The reported order statistics match the benchmark's own."""
    got = {r["metric"]: float(r["value"]) for r in _rows(out.files, f"{stem}_stats.csv")}
    deciles = statistics.quantiles(prices, n=10, method="inclusive")
    want = {"count": len(prices), "median": statistics.median(prices), "p10": deciles[0], "p90": deciles[8]}
    return [f"stats {k}: reported {got.get(k)}, expected {v:.4f}"
            for k, v in want.items() if abs(got.get(k, float("nan")) - v) > ROUND_MW + 1e-9]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _ok_then(check):
    """Run ``check`` only on an op that produced its outputs."""
    return lambda out: check(out) if out.error is None and out.rc == 0 else []


def nodal_mesh(seed: int, work: Path, scenarios: Path) -> Iterator[Op]:
    for k in itertools.count():
        doc = gen.mesh_doc(seed, k, MESH_SIZES[k % len(MESH_SIZES)])
        path = gen.write_doc(doc, work / f"{doc['name']}.scn")
        yield Op(f"nodal_mesh/seed{seed}/{k}", ["clear", str(path), "--scheme", "nodal", "--no-timestamp"],
                 0, _ok_then(lambda out, doc=doc: check_nodal(doc, out)), [path])


def uc_horizon(seed: int, work: Path, scenarios: Path) -> Iterator[Op]:
    for k in itertools.count():
        units, hours = UC_SHAPES[k % len(UC_SHAPES)]
        doc = gen.uc_doc(seed, k, units, hours)
        path = gen.write_doc(doc, work / f"{doc['name']}.scn")
        yield Op(f"uc_horizon/seed{seed}/{k}", ["daucruc", str(path), "--no-timestamp"],
                 0, _ok_then(lambda out, doc=doc: check_daucruc(doc, out)), [path])


def bundled_ops(seed: int, work: Path, scenarios: Path) -> list[Op]:
    """Every subcommand on the bundled scenarios, plus ``stats`` on a seeded
    price series.  Exit codes are the ones recorded at the seed commit (some
    schemes exit 2 by design).  The stats output depends on the seed, so its
    digest exists for the default seed only."""
    docs = {s: json.loads((scenarios / f"{s}.scn").read_text()) for s in BUNDLED}
    path = {s: str(scenarios / f"{s}.scn") for s in BUNDLED}
    flags = ["--no-timestamp"]

    def reports_balance(doc):
        return lambda out: check_scheme_reports(doc, out.files) if out.error is None else []

    ops = [Op(f"validate {s}", ["validate", path[s]], None, lambda out: []) for s in BUNDLED]
    for s in BUNDLED:
        for scheme in SCHEMES:
            ops.append(Op(f"clear {s} {scheme}", ["clear", path[s], "--scheme", scheme] + flags,
                          None, reports_balance(docs[s])))
        ops.append(Op(f"compare {s}", ["compare", path[s], "--format", "csv"] + flags,
                      None, reports_balance(docs[s])))
    ops.append(Op("daucruc fivebus_ruc", ["daucruc", path["fivebus_ruc"]] + flags, None,
                  _ok_then(lambda out: check_daucruc(docs["fivebus_ruc"], out))))
    ops.append(Op("bidding twobus", ["bidding", path["twobus"]] + flags, None, lambda out: []))

    text = gen.price_csv(seed)
    prices_csv = work / "prices.csv"
    prices_csv.write_text(text)
    prices = [float(line.split(",")[1]) for line in text.splitlines()[1:]]
    ops.append(Op(f"stats/seed{seed}", ["stats", str(prices_csv)] + flags, 0,
                  _ok_then(lambda out: check_stats(prices, out, prices_csv.stem))))
    return ops


def cli_bundled(seed: int, work: Path, scenarios: Path) -> Iterator[Op]:
    ops = bundled_ops(seed, work, scenarios)
    rng = random.Random(f"cli_bundled:{seed}")
    while True:
        yield from rng.sample(ops, len(ops))


WORKLOADS = {"nodal_mesh": nodal_mesh, "uc_horizon": uc_horizon, "cli_bundled": cli_bundled}
