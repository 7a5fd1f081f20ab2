#!/usr/bin/env python3
"""Randomized stress sweep: ordering properties and LP duality at scale.

Larger, slower cousin of the acceptance suite for manual exploration:
  * cost(copper) <= cost(zonal) <= cost(nodal) on random connected networks,
    whose PTDF matrices equal the reference per-line loop's bit for bit
  * surplus(nodal) >= surplus(zonal + feasible forced bounds)
  * duality gap and complementary slackness on random LPs
  * every random LP, every wild LP (free, fixed and one-sided variables,
    repeated rows, infeasible and unbounded cases) and every LP the scenario
    sweep's clearings solved, solved bit for bit as the reference simplex
    solves it
  * on random commitment instances (single-bus ones, ones built for ties and
    networked ones where the search's uniform-price rows lie below the LP),
    under each regime mode: every LP cut from a clearing template equal to
    the LP built directly, and ``solve_uc``'s schedule equal to the reference
    scan's, with the LPs each solved and the candidates its lower bound
    pruned
  * on the networked instances, under each mode: every on-set of every hour
    solved, and each of the hour's uniform-price rows and optimal LPs' rows
    at most every such LP's objective (and an LP's own where it is exact)

Exits 1 if any PTDF matrix differs from the reference loop, any LP from the
reference simplex, any cut LP from the direct build, any commitment outcome
from the reference scan or any price bound from its check, 0 otherwise;
a failed ordering, welfare or duality check raises ``AssertionError``.

Usage: python scripts/randomized_checks.py [--scenarios N] [--lps N] [--uc N] [--seed S]
"""
import argparse
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from gridclear.commitment import UcInfeasibleError, solve_uc
from gridclear.dispatch import (
    ClearingTemplate,
    ConstraintRegime,
    clear,
    with_forced_bounds,
)
from gridclear import lp as lpmod
from gridclear.lp import solve
from helpers import (
    lp_differences, price_bound_failures, random_gens, random_network, random_networked_uc_instance,
    random_tie_uc_instance, random_uc_instance,
    reference_clearing_lp, reference_ptdf, reference_solve, reference_solve_uc, solve_outcome,
    uc_net,
)
from test_lp import build_random_lp, build_wild_lp, check_kkt


def surplus(net, result):
    utility = sum(b.wtp * result.served_mw[b.id] for b in net.buses)
    return utility - result.total_cost


def sweep_scenarios(n, rng):
    copper = ConstraintRegime(mode="copper_plate")
    zonal = ConstraintRegime(mode="zonal")
    nodal = ConstraintRegime(mode="nodal", monitored_profile="all")
    ordered = welfare = skipped = bad_ptdfs = 0
    for _ in range(n):
        net = random_network(rng)
        gens = random_gens(rng, net)
        want = reference_ptdf(net)
        bad_ptdfs += (net.ptdf.shape, net.ptdf.tobytes()) != (want.shape, want.tobytes())
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
        if rf.feasible and not rf.flows.violations:
            assert surplus(net, rf) <= surplus(net, rn) + 1e-6, "forced beats nodal"
            welfare += 1
    return ordered, welfare, skipped, bad_ptdfs


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


def uc_outcome(solve_fn, *args, **kwargs):
    """The outcome of a commitment search, and the candidates its lower
    bound pruned."""
    try:
        sched = solve_fn(*args, **kwargs)
    except UcInfeasibleError as err:
        return ("infeasible", err.hour), 0
    dispatch = [r.gen_mw for r in sched.hourly_results]
    return (repr(sched.committed), repr(dispatch), repr(sched.objective)), sched.pruned


def sweep_commitment(n, rng):
    """``n`` random commitment instances, ``n`` built for ties and ``n`` on a
    network, each under its own regime and that regime in the other two
    modes: every LP cut from a template against the direct build,
    ``solve_uc`` against the reference scan; then each networked instance's
    price bounds in each mode (``price_bound_failures``).  Returns (runs, cut
    LPs, differing LPs, differing outcomes, LPs solve_uc solved, LPs the
    reference scan solved, candidates pruned, (row, LP) pairs checked, price
    bound failures)."""
    cuts = []
    real_cut = ClearingTemplate.cut

    def recording_cut(template, load, committed=None):
        case = real_cut(template, load, committed)
        cuts.append((template, load, committed, case.lp))
        return case

    cases = []
    for _ in range(n):
        for units, loads, regime, lower_bounds in [
                (*random_uc_instance(rng), ConstraintRegime(mode="copper_plate"), None),
                random_tie_uc_instance(rng)]:
            cases.append((uc_net(units), units, [{"n0": l} for l in loads], regime, lower_bounds))
        cases.append(random_networked_uc_instance(rng))
    runs = lps = bad_lps = bad_runs = ours = theirs = pruned = 0
    ClearingTemplate.cut = recording_cut
    try:
        for net, units, hours, regime, lower_bounds in cases:
            for mode in ("copper_plate", "nodal", "zonal"):
                args = (net, units, hours, replace(regime, mode=mode))
                start = len(cuts)
                got, dropped = uc_outcome(solve_uc, *args, lower_bounds=lower_bounds)
                middle = len(cuts)  # a cut per LP solved: solve_uc's, then the scan's
                want, _ = uc_outcome(reference_solve_uc, *args, lower_bounds=lower_bounds)
                ours, theirs = ours + middle - start, theirs + len(cuts) - middle
                pruned += dropped
                bad_runs += got != want
                runs += 1
            for template, load, committed, lp in cuts:
                loads = dict(zip((b.id for b in template.net.buses), load.tolist()))
                want_lp = reference_clearing_lp(template.net, template.gens, template.regime,
                                                loads=loads, committed=committed)
                bad_lps += bool(lp_differences(lp, want_lp))
            lps += len(cuts)
            cuts.clear()
    finally:
        ClearingTemplate.cut = real_cut
    pairs, failures = 0, []
    for net, units, hours, regime, _ in cases[2::3]:  # the networked instances
        for mode in ("copper_plate", "nodal", "zonal"):
            checked, failed = price_bound_failures(net, units, hours, replace(regime, mode=mode))
            pairs, failures = pairs + checked, failures + failed
    for line in failures[:10]:
        print(f"price bound: {line}")
    return runs, lps, bad_lps, bad_runs, ours, theirs, pruned, pairs, len(failures)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenarios", type=int, default=200)
    ap.add_argument("--lps", type=int, default=500)
    ap.add_argument("--uc", type=int, default=50)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    t0 = time.perf_counter()
    cleared = []  # every LP the scenario sweep's clearings solve
    real_solve = lpmod.solve
    lpmod.solve = lambda lp: cleared.append(lp) or real_solve(lp)
    try:
        ordered, welfare, skipped, bad_ptdfs = sweep_scenarios(args.scenarios, rng)
    finally:
        lpmod.solve = real_solve
    t1 = time.perf_counter()
    print(f"scenario sweep: {ordered} cost orderings held, {welfare} welfare "
          f"comparisons held, {skipped} skipped (curtailing); {bad_ptdfs} of "
          f"{args.scenarios} PTDF matrices differ from the reference loop [{t1 - t0:.1f}s]")

    optimal, compared, mismatched = sweep_lps(args.lps, rng, cleared)
    t2 = time.perf_counter()
    print(f"lp sweep: {optimal}/{args.lps} random LPs optimal, all within 1e-6 "
          f"duality gap and complementary slackness; {mismatched} of {compared} "
          f"LPs (random, wild and {len(cleared)} from the scenario sweep) differ "
          f"from the reference simplex [{t2 - t1:.1f}s]")

    runs, cut, bad_lps, bad_runs, ours, theirs, pruned, pairs, bad_bounds = \
        sweep_commitment(args.uc, rng)
    t3 = time.perf_counter()
    print(f"commitment sweep: {bad_lps} of {cut} cut LPs differ from the direct build; "
          f"{bad_runs} of {runs} solve_uc runs differ from the reference scan; solve_uc "
          f"solved {ours} LPs, the reference scan {theirs}; solve_uc's lower bound "
          f"pruned {pruned} candidates; {bad_bounds} price bound failures in {pairs} "
          f"(row, LP) pairs over every on-set [{t3 - t2:.1f}s]")
    return 1 if bad_ptdfs or mismatched or bad_lps or bad_runs or bad_bounds else 0


if __name__ == "__main__":
    sys.exit(main())
