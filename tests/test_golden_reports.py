"""Golden reports: every bundled scenario through the CLI, byte for byte.

Each case runs ``gridclear.cli.main`` with ``--no-timestamp`` into a fresh
directory and compares the exit code and the sha256 of every file written
against ``golden_reports.json``.  Re-record only when reports are meant to
change, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_reports.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from gridclear.cli import main

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"
GOLDEN = Path(__file__).parent / "golden_reports.json"
SCHEMES = ("nodal", "zonal", "zonal_cm", "copper", "uniform")
SCENARIOS = ("fourbus", "fourbus_tie270", "twobus", "fivebus_ruc")


def cases() -> dict[str, list[str]]:
    """Case key -> argv without the scenario directory and output flags."""
    out = {}
    for sc in SCENARIOS:
        for scheme in SCHEMES:
            for fmt in ("csv", "md"):
                out[f"clear {sc} {scheme} {fmt}"] = ["clear", f"{sc}.scn", "--scheme", scheme, "--format", fmt]
        out[f"compare {sc}"] = ["compare", f"{sc}.scn"]
        out[f"compare {sc} csv"] = ["compare", f"{sc}.scn", "--format", "csv"]
    out["daucruc fivebus_ruc"] = ["daucruc", "fivebus_ruc.scn"]
    out["bidding twobus"] = ["bidding", "twobus.scn"]
    return out


def run_case(argv: list[str], out_dir: Path) -> dict:
    full = [argv[0], str(SCENARIO_DIR / argv[1]), *argv[2:], "--out", str(out_dir), "--no-timestamp"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(full)
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out_dir.iterdir())} if out_dir.exists() else {}
    return {"exit_code": code, "files": files}


@pytest.mark.parametrize("key", sorted(cases()))
def test_report_matches_golden(key, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run_case(cases()[key], tmp_path / "out") == golden[key]


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(cases())


if __name__ == "__main__":
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (key, argv) in enumerate(sorted(cases().items())):
            record[key] = run_case(argv, Path(tmp) / str(i))
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} cases to {GOLDEN}")
    sys.exit(0)
