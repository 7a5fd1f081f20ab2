"""Command-line front end.

Subcommands: ``validate``, ``clear``, ``compare``, ``daucruc``, ``bidding``,
``stats``.  Exit codes follow a strict contract: 0 success, 1 usage / IO /
validation error or an input the engine cannot handle numerically, 2
infeasible-but-reported clearing (diagnostics are still written).  Reports
are deterministic; the optional timestamp header is disabled with
``--no-timestamp``.  The default output directory comes from
``$GRIDCLEAR_OUT`` (falling back to ``./out``).
"""
from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from gridclear.analysis import evaluate_bid_deviation, price_stats
from gridclear.commitment import UcEnumerationLimitError, UcInfeasibleError, run_dauc_ruc
from gridclear.dispatch import ConstraintRegime, clear, with_forced_bounds
from gridclear.grid import MW_TOL, GridNumericalError, format_number, overloaded_lines
from gridclear.lp import LpNumericalError
from gridclear.pricing import BID_SCHEMES, SCHEMES, PriceFormationError, form_prices, form_smp
from gridclear.scenario import (
    Scenario,
    ScenarioValidationError,
    SchemeOutcome,
    load_scenario,
    md_table,
    write_compare_markdown,
    write_csv,
    write_lines,
    write_report,
)
from gridclear.settlement import (
    AccountingIdentityError,
    SettlementKeyError,
    settle_redispatch,
    summarize,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise CliUsageError(f"{self.prog}: {message}")


def _timestamp(args) -> str | None:
    if args.no_timestamp:
        return None
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("GRIDCLEAR_OUT")
    return Path(env) if env else Path("out")


def _regime_for(scenario: Scenario, scheme: str) -> ConstraintRegime:
    if scheme not in SCHEMES:
        raise CliUsageError(f"unknown scheme {scheme!r}")
    name, mode = SCHEMES[scheme].regime, SCHEMES[scheme].mode
    regime = scenario.regimes.get(name, ConstraintRegime(mode=mode))
    if regime.mode != mode:
        raise ValueError(f"regime {name!r} has mode {regime.mode!r}; scheme {scheme!r} needs {mode!r}")
    return regime


def run_scheme(scenario: Scenario, scheme: str, tol: float = MW_TOL) -> SchemeOutcome:
    """Clear, price and settle one scheme of a scenario at its first hour's loads."""
    net = scenario.network
    regime = _regime_for(scenario, scheme)
    gens = scenario.generators
    cleared = with_forced_bounds(gens, scenario.run.forced_bounds) if scheme == "zonal_cm" else gens
    result = clear(net, cleared, regime, loads=scenario.loads_at(0))

    prices = form_prices(scheme, result, net, gens)
    settlement = summarize(prices, result, net, gens) if result.has_optimum else None

    violated = SCHEMES[scheme].deliverable and (
        bool(overloaded_lines(net, result.flows.flows_mw, tol)) or not result.feasible
    )
    return SchemeOutcome(
        scheme=scheme, dispatch=result, prices=prices,
        settlement=settlement, deliverable_violated=violated,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    sc = load_scenario(args.scenario)
    net = sc.network
    print(
        f"OK {sc.name}: {len(net.buses)} buses, {len(net.lines)} lines, "
        f"{len(net.interfaces)} interfaces, {len(sc.generators)} generators, "
        f"{len(sc.regimes)} regimes"
    )
    return EXIT_OK


def cmd_clear(args) -> int:
    sc = load_scenario(args.scenario)
    outcome = run_scheme(sc, args.scheme, args.tolerance)
    out = _out_dir(args)
    written = write_report(sc.name, sc.network, [outcome], out, args.format, _timestamp(args))
    for p in written:
        print(p)
    if outcome.deliverable_violated or not outcome.dispatch.feasible:
        for v in outcome.dispatch.violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_compare(args) -> int:
    sc = load_scenario(args.scenario)
    schemes = list(sc.run.schemes) or ["nodal", "zonal", "zonal_cm"]
    outcomes = [run_scheme(sc, s, args.tolerance) for s in schemes]
    out = _out_dir(args)
    path = write_compare_markdown(sc.name, outcomes, out, _timestamp(args))
    print(path)
    if args.format == "csv":
        for p in write_report(sc.name, sc.network, outcomes, out, "csv", _timestamp(args)):
            print(p)
    return EXIT_OK


def cmd_daucruc(args) -> int:
    sc = load_scenario(args.scenario)
    if not sc.run.dauc_regime or not sc.run.ruc_regime:
        raise CliUsageError("scenario run section must name both dauc_regime and ruc_regime")
    net = sc.network
    dauc, ruc, delta = run_dauc_ruc(
        net, sc.generators, sc.hourly_loads(),
        sc.regimes[sc.run.dauc_regime], sc.regimes[sc.run.ruc_regime],
    )
    smp = form_smp(dauc, net, sc.generators)
    smp_series = [hour["system"] for hour in smp.prices]
    redis = settle_redispatch(delta, net, sc.generators, smp_series)

    out, stamp = _out_dir(args), _timestamp(args)
    rows = [(str(t), gid, d.gen_mw[gid], r.gen_mw[gid], mw)
            for gid, series in delta.items()
            for t, (d, r, mw) in enumerate(zip(dauc.hourly_results, ruc.hourly_results, series))]
    redis_path = write_csv(out / f"{sc.name}_redispatch.csv",
                           ("hour", "generator", "dauc_mw", "ruc_mw", "delta_mw"), rows, stamp)

    md = [
        f"# {sc.name}: day-ahead vs reliability commitment",
        "",
        f"* day-ahead total cost: {format_number(dauc.total_cost)}",
        f"* reliability total cost: {format_number(ruc.total_cost)}",
        f"* uniform price by hour: "
        + ", ".join(f"h{t}={format_number(p)}" for t, p in enumerate(smp_series)),
        "",
        *md_table(("zone", "constrained-on (MWh)", "constrained-off (MWh)", "CON payment", "COFF payment"),
                  [(zone, redis.zone_con_mwh[zone], redis.zone_coff_mwh[zone],
                    redis.zone_con_payment[zone], redis.zone_coff_payment[zone]) for zone in net.zones]),
    ]
    md_path = write_lines(out / f"{sc.name}_daucruc.md", md, stamp)
    print(redis_path)
    print(md_path)
    return EXIT_OK


def cmd_bidding(args) -> int:
    sc = load_scenario(args.scenario)
    gen = args.generator
    offered = args.offered_ic
    scheme = args.scheme
    if gen is None or offered is None:
        if sc.run.bid_deviation is None:
            raise CliUsageError("pass --generator/--offered-ic or add run.bid_deviation to the scenario")
        d_gen, d_ic, d_scheme = sc.run.bid_deviation
        gen = gen or d_gen
        if offered is None:
            if gen != d_gen:  # the scenario's offer is made for its own unit only
                raise CliUsageError(f"run.bid_deviation offers for {d_gen!r}, not {gen!r}: "
                                    "pass --offered-ic")
            offered = d_ic
        scheme = scheme or d_scheme
    scheme = scheme or "uniform"
    true_ic = next((g.ic for g in sc.generators if g.id == gen), None)
    if true_ic is None:
        raise CliUsageError(f"unknown generator {gen!r}")
    regime = _regime_for(sc, scheme)
    dev = evaluate_bid_deviation(
        sc.network, sc.generators, gen, offered,
        scheme=scheme, regime=regime, loads=sc.loads_at(0),
    )

    rows = [
        ("generator", gen),
        ("scheme", scheme),
        ("true_ic", true_ic),
        ("offered_ic", offered),
        ("q_truthful_mw", dev.q_truthful),
        ("q_deviated_mw", dev.q_deviated),
        ("price_truthful", dev.price_truthful),
        ("price_deviated", dev.price_deviated),
        ("profit_truthful", dev.profit_truthful),
        ("profit_deviated", dev.profit_deviated),
        ("profit_delta", dev.profit_delta),
        ("welfare_delta", dev.welfare_delta),
    ]
    path = write_csv(_out_dir(args) / f"{sc.name}_bidding_{gen}.csv", ("metric", "value"), rows,
                     _timestamp(args))
    print(path)
    print(f"{gen}: offered {format_number(offered)} vs true {format_number(true_ic)} under {scheme}: "
          f"profit {format_number(dev.profit_deviated)} (truthful {format_number(dev.profit_truthful)}), "
          f"welfare delta {format_number(dev.welfare_delta)}")
    return EXIT_OK


def cmd_stats(args) -> int:
    path = Path(args.csv)
    with open(path, newline="") as fh:
        try:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        except csv.Error as exc:
            raise CliUsageError(f"bad CSV: {exc}") from exc
    if len(rows) < 2 or any(len(r) < 2 for r in rows):
        raise CliUsageError("need a header row plus timestamp,price rows")
    try:
        series = [float(r[1]) for r in rows[1:]]
    except ValueError as exc:
        raise CliUsageError(f"bad price value: {exc}") from exc
    stats = price_stats(series)
    figures = (("median", stats.median), ("p10", stats.p10), ("p90", stats.p90))
    out_path = write_csv(_out_dir(args) / f"{path.stem}_stats.csv", ("metric", "value"),
                         [("count", str(len(series))), *figures], _timestamp(args))
    print(out_path)
    print(" ".join(f"{m}={format_number(v)}" for m, v in figures))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """An argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # not a number at all: the same one error line
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_common(p):
    p.add_argument("--out", help="output directory (default: $GRIDCLEAR_OUT or ./out)")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp header for byte-identical output")


def _add_report_options(p):
    _add_common(p)
    p.add_argument("--format", choices=("csv", "md"), default="csv", help="report format")
    p.add_argument("--tolerance", type=_finite_float, default=MW_TOL,
                   help="violation tolerance in MW")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridclear",
                     description="electricity market clearing and settlement engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a scenario file")
    p.add_argument("scenario")

    p = sub.add_parser("clear", help="clear one scheme and write price/settlement reports")
    p.add_argument("scenario")
    p.add_argument("--scheme", choices=tuple(SCHEMES), default="nodal")
    _add_report_options(p)

    p = sub.add_parser("compare", help="run the scenario's schemes and write a comparison table")
    p.add_argument("scenario")
    _add_report_options(p)

    p = sub.add_parser("daucruc", help="run day-ahead and reliability passes and the redispatch settlement")
    p.add_argument("scenario")
    _add_common(p)

    p = sub.add_parser("bidding", help="evaluate a strategic bid deviation")
    p.add_argument("scenario")
    p.add_argument("--generator")
    p.add_argument("--offered-ic", type=_finite_float, dest="offered_ic")
    p.add_argument("--scheme", choices=BID_SCHEMES)
    _add_common(p)

    p = sub.add_parser("stats", help="order statistics of an hourly price series CSV")
    p.add_argument("csv")
    _add_common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.  May be called any number
    of times in one process: the parser is built on the first call, and the
    ``cmd_<command>`` function is looked up by name on every call, so a binding
    replaced after the first call is the one that runs."""
    try:
        args = _parser().parse_args(argv)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ScenarioValidationError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (UcInfeasibleError, UcEnumerationLimitError, PriceFormationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (CliUsageError, OSError, ValueError, LpNumericalError, GridNumericalError,
            AccountingIdentityError, SettlementKeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
