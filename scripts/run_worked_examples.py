#!/usr/bin/env python3
"""Run the bundled scenarios end to end and print the reports they write.

Covers the meshed two-zone system under the three pricing schemes, the
tightened-interface variant, the two-area system with its copper-plate /
uniform / nodal price triple, the day-ahead vs reliability commitment case
with its redispatch settlement, and the two-area system's bid deviation
under the uniform and nodal schemes.  Each case is one ``gridclear``
subcommand, run through ``gridclear.cli.main``.

Usage: python scripts/run_worked_examples.py [--out OUTDIR]
"""
import argparse
import contextlib
import io
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from gridclear.cli import main as gridclear


def run(*argv: str) -> int:
    """Run one ``gridclear`` subcommand, then print each report it wrote (the
    paths it prints) and any other line it prints."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = gridclear([*argv, "--no-timestamp"])
    for line in printed.getvalue().splitlines():
        path = Path(line)
        print(f"\n=== {path.name} ===\n{path.read_text()}" if path.is_file() else line)
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="directory for report files")
    args = ap.parse_args()
    scenarios = REPO / "scenarios"
    runs = [("compare", scenarios / name, "--format", "md")
            for name in ("fourbus.scn", "fourbus_tie270.scn", "twobus.scn")]
    runs.append(("daucruc", scenarios / "fivebus_ruc.scn"))
    runs += [("bidding", scenarios / "twobus.scn", "--scheme", scheme) for scheme in ("uniform", "nodal")]
    for command, *rest in runs:
        code = run(command, *map(str, rest), "--out", args.out)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
