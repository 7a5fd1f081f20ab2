#!/usr/bin/env python3
"""Run the bundled scenarios end to end and print the headline tables.

Covers the meshed two-zone system under the three pricing schemes, the
tightened-interface variant, the two-area system with its copper-plate /
uniform / nodal price triple, and the day-ahead vs reliability commitment
case with its redispatch settlement.

Usage: python scripts/run_worked_examples.py [--out OUTDIR]
"""
import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from gridclear.cli import run_scheme
from gridclear.commitment import run_dauc_ruc
from gridclear.pricing import form_smp
from gridclear.scenario import load_scenario, write_compare_markdown
from gridclear.settlement import settle_redispatch
from gridclear.analysis import evaluate_bid_deviation


def show_compare(path: Path, out: Path):
    sc = load_scenario(path)
    outcomes = [run_scheme(sc, s) for s in sc.run.schemes]
    md = write_compare_markdown(sc.name, outcomes, out, None)
    print(f"\n=== {sc.name} ({sc.currency}) ===")
    print(md.read_text())


def show_daucruc(path: Path):
    sc = load_scenario(path)
    dauc, ruc, record = run_dauc_ruc(
        sc.network, sc.generators, sc.hourly_loads(),
        sc.regime(sc.run.dauc_regime), sc.regime(sc.run.ruc_regime),
    )
    smp = form_smp(dauc, sc.network, sc.generators)
    series = [smp.prices[t]["system"] for t in range(dauc.hours)]
    redis = settle_redispatch(record, sc.network, sc.generators, series)
    print(f"\n=== {sc.name}: day-ahead vs reliability commitment ===")
    print(f"day-ahead cost {dauc.total_cost:.2f}, reliability cost {ruc.total_cost:.2f}")
    print(f"uniform price by hour: {[round(p, 2) for p in series]}")
    print(f"{'zone':>6} {'con MWh':>10} {'coff MWh':>10} {'con pay':>10} {'coff pay':>10}")
    for zone in sc.network.zones:
        print(f"{zone:>6} {redis.zone_con_mwh[zone]:>10.2f} {redis.zone_coff_mwh[zone]:>10.2f} "
              f"{redis.zone_con_payment[zone]:>10.2f} {redis.zone_coff_payment[zone]:>10.2f}")


def show_bidding(path: Path):
    sc = load_scenario(path)
    gen, offered, _ = sc.run.bid_deviation
    print(f"\n=== {sc.name}: bid deviation {gen} offering {offered:.0f} ===")
    for scheme in ("uniform", "nodal"):
        regime = sc.regime("zonal") if scheme == "uniform" else None
        dev = evaluate_bid_deviation(sc.network, sc.generators, gen, offered,
                                     scheme=scheme, regime=regime,
                                     loads=sc.hourly_loads()[0])
        print(f"{scheme:>8}: q {dev.q_truthful:.0f} -> {dev.q_deviated:.0f} MW, "
              f"price {dev.price_deviated:.2f}, profit {dev.profit_deviated:.2f}, "
              f"welfare delta {dev.welfare_delta:.2f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="directory for report files")
    args = ap.parse_args()
    out = Path(args.out)
    scenarios = REPO / "scenarios"
    show_compare(scenarios / "fourbus.scn", out)
    show_compare(scenarios / "fourbus_tie270.scn", out)
    show_compare(scenarios / "twobus.scn", out)
    show_daucruc(scenarios / "fivebus_ruc.scn")
    show_bidding(scenarios / "twobus.scn")


if __name__ == "__main__":
    main()
