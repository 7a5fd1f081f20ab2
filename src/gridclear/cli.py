"""Command-line front end.

Subcommands: ``validate``, ``clear``, ``compare``, ``daucruc``, ``bidding``,
``stats``.  Exit codes follow a strict contract: 0 success, 1 usage / IO /
validation error, 2 infeasible-but-reported clearing (diagnostics are still
written).  Reports are deterministic; the optional timestamp header is
disabled with ``--no-timestamp``.  The default output directory comes from
``$GRIDCLEAR_OUT`` (falling back to ``./out``).
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from gridclear.analysis import BID_SCHEMES, evaluate_bid_deviation, price_stats, redispatch_summary
from gridclear.commitment import (
    UcEnumerationLimitError,
    UcInfeasibleError,
    run_dauc_ruc,
    single_interval_schedule,
)
from gridclear.dispatch import (
    MW_TOL,
    ConstraintRegime,
    DispatchResult,
    clear,
    with_forced_bounds,
)
from gridclear.grid import Network, build_ptdf
from gridclear.pricing import (
    PriceFormationError,
    PriceReport,
    form_nodal_prices,
    form_smp,
    form_zonal_prices,
)
from gridclear.scenario import (
    DELIVERABLE_SCHEMES,
    SCHEME_LABELS,
    Scenario,
    ScenarioValidationError,
    SchemeOutcome,
    load_scenario,
    write_compare_markdown,
    write_report,
)
from gridclear.settlement import settle_redispatch, summarize

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


def _violations_at(net: Network, result: DispatchResult, tol: float) -> tuple[str, ...]:
    return tuple(
        l.id for l in net.lines if abs(result.line_flow_mw.get(l.id, 0.0)) > l.limit_mw + tol
    )


def _regime_for(scenario: Scenario, scheme: str) -> ConstraintRegime:
    if scheme not in SCHEME_LABELS:
        raise CliUsageError(f"unknown scheme {scheme!r}")
    name, mode = {"nodal": ("nodal", "nodal"),
                  "copper": ("copper", "copper_plate")}.get(scheme, ("zonal", "zonal"))
    regime = scenario.regimes.get(name, ConstraintRegime(mode=mode))
    if regime.mode != mode:
        raise ValueError(f"regime {name!r} has mode {regime.mode!r}; scheme {scheme!r} needs {mode!r}")
    return regime


def run_scheme(scenario: Scenario, scheme: str, tol: float = MW_TOL) -> SchemeOutcome:
    """Clear, price and settle one scheme of a scenario at its first hour's loads."""
    net = scenario.network
    regime = _regime_for(scenario, scheme)
    specs = scenario.specs()
    gens = with_forced_bounds(specs, scenario.run.forced_bounds) if scheme == "zonal_cm" else specs
    result = clear(net, gens, regime, loads=scenario.hourly_loads()[0],
                   synchronous=scenario.synchronous_ids())

    lp_failed = any(v.startswith("lp_") for v in result.violations)
    if lp_failed:
        # no prices exist; emit an empty report so diagnostics still get written
        scheme_kind = {"nodal": "nodal", "zonal": "zonal", "zonal_cm": "zonal"}.get(
            scheme, "uniform_smp"
        )
        prices = PriceReport(scheme_kind, ({},), currency=scenario.currency)
        settlement = None
    elif scheme == "nodal":
        prices = form_nodal_prices(result, build_ptdf(net), currency=scenario.currency)
        settlement = summarize(prices, result, net, specs)
    elif scheme in ("zonal", "zonal_cm"):
        prices = form_zonal_prices(result, currency=scenario.currency)
        settlement = summarize(prices, result, net, specs)
    else:  # copper, uniform: screened stack price
        schedule = single_interval_schedule(result, scenario.generators)
        prices = form_smp(schedule, specs, currency=scenario.currency)
        settlement = summarize(prices, result, net, specs)

    violated = scheme in DELIVERABLE_SCHEMES and (
        bool(_violations_at(net, result, tol)) or not result.feasible
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
    written = write_report(sc.name, [outcome], out, args.format, _timestamp(args))
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
        for p in write_report(sc.name, outcomes, out, "csv", _timestamp(args)):
            print(p)
    return EXIT_OK


def cmd_daucruc(args) -> int:
    sc = load_scenario(args.scenario)
    if not sc.run.dauc_regime or not sc.run.ruc_regime:
        print(
            "error: scenario run section must name both dauc_regime and ruc_regime",
            file=sys.stderr,
        )
        return EXIT_USAGE
    net = sc.network
    dauc, ruc, record = run_dauc_ruc(
        net, sc.generators, sc.hourly_loads(),
        sc.regime(sc.run.dauc_regime), sc.regime(sc.run.ruc_regime),
    )
    smp = form_smp(dauc, sc.specs(), currency=sc.currency)
    smp_series = [smp.prices[t]["system"] for t in range(dauc.hours)]
    redis = settle_redispatch(record, sc.specs(), smp_series)

    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    stamp = _timestamp(args)
    lines = [] if stamp is None else [f"# generated {stamp}"]
    lines.append("hour,generator,dauc_mw,ruc_mw,delta_mw")
    for gid in record.gen_ids:
        for t in range(record.hours):
            lines.append(
                f"{t},{gid},{dauc.dispatch_mw[gid][t]:.2f},"
                f"{ruc.dispatch_mw[gid][t]:.2f},{record.delta_mwh[gid][t]:.2f}"
            )
    redis_path = out / f"{sc.name}_redispatch.csv"
    redis_path.write_text("\n".join(lines) + "\n")

    md = [] if stamp is None else [f"<!-- generated {stamp} -->"]
    md += [
        f"# {sc.name}: day-ahead vs reliability commitment",
        "",
        f"* day-ahead total cost: {dauc.total_cost:.2f}",
        f"* reliability total cost: {ruc.total_cost:.2f}",
        f"* uniform price by hour: "
        + ", ".join(f"h{t}={p:.2f}" for t, p in enumerate(smp_series)),
        "",
        "| zone | constrained-on (MWh) | constrained-off (MWh) | CON payment | COFF payment |",
        "|---|---|---|---|---|",
    ]
    for zone, con, coff in redispatch_summary(record, net.zones):
        md.append(
            f"| {zone} | {con:.2f} | {coff:.2f} | "
            f"{redis.zone_con_payment.get(zone, 0.0):.2f} | "
            f"{redis.zone_coff_payment.get(zone, 0.0):.2f} |"
        )
    md_path = out / f"{sc.name}_daucruc.md"
    md_path.write_text("\n".join(md) + "\n")
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
            print(
                "error: pass --generator/--offered-ic or add run.bid_deviation to the scenario",
                file=sys.stderr,
            )
            return EXIT_USAGE
        d_gen, d_ic, d_scheme = sc.run.bid_deviation
        gen = gen or d_gen
        offered = offered if offered is not None else d_ic
        scheme = scheme or d_scheme
    scheme = scheme or "uniform"
    regime = _regime_for(sc, "nodal" if scheme == "nodal" else "zonal")
    try:
        dev = evaluate_bid_deviation(
            sc.network, sc.specs(), gen, offered,
            scheme=scheme, regime=regime, currency=sc.currency,
        )
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    stamp = _timestamp(args)
    lines = [] if stamp is None else [f"# generated {stamp}"]
    lines.append("metric,value")
    for metric, val in (
        ("generator", dev.generator_id),
        ("scheme", dev.scheme),
        ("true_ic", f"{dev.true_ic:.2f}"),
        ("offered_ic", f"{dev.offered_ic:.2f}"),
        ("q_truthful_mw", f"{dev.q_truthful:.2f}"),
        ("q_deviated_mw", f"{dev.q_deviated:.2f}"),
        ("price_truthful", f"{dev.price_truthful:.2f}"),
        ("price_deviated", f"{dev.price_deviated:.2f}"),
        ("profit_truthful", f"{dev.profit_truthful:.2f}"),
        ("profit_deviated", f"{dev.profit_deviated:.2f}"),
        ("profit_delta", f"{dev.profit_delta:.2f}"),
        ("welfare_delta", f"{dev.welfare_delta:.2f}"),
    ):
        lines.append(f"{metric},{val}")
    path = out / f"{sc.name}_bidding_{gen}.csv"
    path.write_text("\n".join(lines) + "\n")
    print(path)
    print(
        f"{gen}: offered {offered:.2f} vs true {dev.true_ic:.2f} under {scheme}: "
        f"profit {dev.profit_deviated:.2f} (truthful {dev.profit_truthful:.2f}), "
        f"welfare delta {dev.welfare_delta:.2f}"
    )
    return EXIT_OK


def cmd_stats(args) -> int:
    path = Path(args.csv)
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if len(rows) < 2 or len(rows[0]) < 2:
        print("error: need a header row plus timestamp,price rows", file=sys.stderr)
        return EXIT_USAGE
    try:
        series = [float(r[1]) for r in rows[1:]]
    except ValueError as exc:
        print(f"error: bad price value: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        stats = price_stats(series)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    stamp = _timestamp(args)
    lines = [] if stamp is None else [f"# generated {stamp}"]
    lines += [
        "metric,value",
        f"count,{len(series)}",
        f"median,{stats.median:.2f}",
        f"p10,{stats.p10:.2f}",
        f"p90,{stats.p90:.2f}",
    ]
    out_path = out / f"{path.stem}_stats.csv"
    out_path.write_text("\n".join(lines) + "\n")
    print(out_path)
    print(f"median={stats.median:.2f} p10={stats.p10:.2f} p90={stats.p90:.2f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--out", help="output directory (default: $GRIDCLEAR_OUT or ./out)")
    p.add_argument("--format", choices=("csv", "md"), default="csv", help="report format")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the generated-at header for byte-identical output")
    p.add_argument("--tolerance", type=float, default=MW_TOL,
                   help="violation tolerance in MW")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridclear",
                     description="electricity market clearing and settlement engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("clear", help="clear one scheme and write price/settlement reports")
    p.add_argument("scenario")
    p.add_argument("--scheme", choices=("nodal", "zonal", "zonal_cm", "copper", "uniform"),
                   default="nodal")
    _add_common(p)
    p.set_defaults(func=cmd_clear)

    p = sub.add_parser("compare", help="run the scenario's schemes and write a comparison table")
    p.add_argument("scenario")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("daucruc", help="run day-ahead and reliability passes and the redispatch settlement")
    p.add_argument("scenario")
    _add_common(p)
    p.set_defaults(func=cmd_daucruc)

    p = sub.add_parser("bidding", help="evaluate a strategic bid deviation")
    p.add_argument("scenario")
    p.add_argument("--generator")
    p.add_argument("--offered-ic", type=float, dest="offered_ic")
    p.add_argument("--scheme", choices=BID_SCHEMES)
    _add_common(p)
    p.set_defaults(func=cmd_bidding)

    p = sub.add_parser("stats", help="order statistics of an hourly price series CSV")
    p.add_argument("csv")
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioValidationError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UcInfeasibleError, UcEnumerationLimitError, PriceFormationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
