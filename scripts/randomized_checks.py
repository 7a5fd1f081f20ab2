#!/usr/bin/env python3
"""Randomized stress sweep: ordering properties and LP duality at scale.

Larger, slower cousin of the acceptance suite for manual exploration:
  * cost(copper) <= cost(zonal) <= cost(nodal) on random connected networks
  * surplus(nodal) >= surplus(zonal + feasible forced bounds)
  * duality gap and complementary slackness on random LPs
  * every random LP solved bit for bit as the reference simplex solves it
    (exit status 1 on any mismatch)

Usage: python scripts/randomized_checks.py [--scenarios N] [--lps N] [--seed S]
"""
import argparse
import random
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from gridclear.dispatch import (
    ConstraintRegime,
    clear,
    with_forced_bounds,
)
from gridclear.lp import solve
from helpers import random_gens, random_network, reference_solve, solve_outcome
from test_lp import build_random_lp, check_kkt


def surplus(net, result):
    utility = sum(b.wtp * result.served_mw[b.id] for b in net.buses)
    return utility - result.total_cost


def sweep_scenarios(n, rng):
    copper = ConstraintRegime(mode="copper_plate")
    zonal = ConstraintRegime(mode="zonal")
    nodal = ConstraintRegime(mode="nodal", monitored_profile="all")
    ordered = welfare = skipped = 0
    for _ in range(n):
        net = random_network(rng)
        gens = random_gens(rng, net)
        rn = clear(net, gens, nodal)
        if not rn.feasible:
            skipped += 1
            continue
        rc = clear(net, gens, copper)
        rz = clear(net, gens, zonal)
        assert rc.total_cost <= rz.total_cost + 1e-6, "copper > zonal"
        assert rz.total_cost <= rn.total_cost + 1e-6, "zonal > nodal"
        ordered += 1
        bounds = {g.id: (round(rng.uniform(0, g.p_max * 0.4), 2), None)
                  for g in rng.sample(gens, min(2, len(gens)))}
        rf = clear(net, with_forced_bounds(gens, bounds), zonal)
        if rf.feasible and not rf.physical_violations:
            assert surplus(net, rf) <= surplus(net, rn) + 1e-6, "forced beats nodal"
            welfare += 1
    return ordered, welfare, skipped


def sweep_lps(n, rng):
    optimal = mismatched = 0
    for _ in range(n):
        lp = build_random_lp(rng, max_vars=30)
        sol = solve(lp)
        if sol.status == "optimal":
            check_kkt(lp, sol, tol=1e-6)
            optimal += 1
        if repr(sol) != solve_outcome(reference_solve, lp):
            mismatched += 1
    return optimal, mismatched


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenarios", type=int, default=200)
    ap.add_argument("--lps", type=int, default=500)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    t0 = time.perf_counter()
    ordered, welfare, skipped = sweep_scenarios(args.scenarios, rng)
    t1 = time.perf_counter()
    print(f"scenario sweep: {ordered} cost orderings held, {welfare} welfare "
          f"comparisons held, {skipped} skipped (curtailing) [{t1 - t0:.1f}s]")

    optimal, mismatched = sweep_lps(args.lps, rng)
    t2 = time.perf_counter()
    print(f"lp sweep: {optimal}/{args.lps} optimal, all within 1e-6 duality gap "
          f"and complementary slackness, {mismatched} differ from the reference "
          f"simplex [{t2 - t1:.1f}s]")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
