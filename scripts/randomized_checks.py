#!/usr/bin/env python3
"""Randomized stress sweep: ordering properties and LP duality at scale.

Larger, slower cousin of the acceptance suite for manual exploration:
  * cost(copper) <= cost(zonal) <= cost(nodal) on random connected networks
  * surplus(nodal) >= surplus(zonal + feasible forced bounds)
  * duality gap and complementary slackness on random LPs
  * every random LP, every wild LP (free, fixed and one-sided variables,
    repeated rows, infeasible and unbounded cases) and every LP the scenario
    sweep's clearings solved, solved bit for bit as the reference simplex
    solves it

Exits 1 if any LP differs from the reference simplex, 0 otherwise; a failed
ordering, welfare or duality check raises ``AssertionError``.

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
from gridclear import lp as lpmod
from gridclear.lp import solve
from helpers import random_gens, random_network, reference_solve, solve_outcome
from test_lp import build_random_lp, build_wild_lp, check_kkt


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


def sweep_lps(n, rng, cleared):
    """KKT on ``n`` random LPs; then those, ``n`` wild LPs and the
    ``cleared`` LPs against the reference simplex."""
    optimal = 0
    lps = list(cleared)
    for _ in range(n):
        lp = build_random_lp(rng, max_vars=30)
        sol = solve(lp)
        if sol.status == "optimal":
            check_kkt(lp, sol, tol=1e-6)
            optimal += 1
        lps += [lp, build_wild_lp(rng)]
    mismatched = sum(solve_outcome(solve, lp) != solve_outcome(reference_solve, lp) for lp in lps)
    return optimal, len(lps), mismatched


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenarios", type=int, default=200)
    ap.add_argument("--lps", type=int, default=500)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    t0 = time.perf_counter()
    cleared = []  # every LP the scenario sweep's clearings solve
    real_solve = lpmod.solve
    lpmod.solve = lambda lp: cleared.append(lp) or real_solve(lp)
    try:
        ordered, welfare, skipped = sweep_scenarios(args.scenarios, rng)
    finally:
        lpmod.solve = real_solve
    t1 = time.perf_counter()
    print(f"scenario sweep: {ordered} cost orderings held, {welfare} welfare "
          f"comparisons held, {skipped} skipped (curtailing) [{t1 - t0:.1f}s]")

    optimal, compared, mismatched = sweep_lps(args.lps, rng, cleared)
    t2 = time.perf_counter()
    print(f"lp sweep: {optimal}/{args.lps} random LPs optimal, all within 1e-6 "
          f"duality gap and complementary slackness; {mismatched} of {compared} "
          f"LPs (random, wild and {len(cleared)} from the scenario sweep) differ "
          f"from the reference simplex [{t2 - t1:.1f}s]")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
