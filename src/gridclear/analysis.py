"""Diagnostics on top of the clearing engine: strategic bid deviations and
price-series statistics.

Bid deviations change the clearing inputs only; every welfare figure is
evaluated at true costs.  Truthful clearing is cost-minimal over the feasible
set, so a deviation that changes dispatch can never raise true welfare.

Price-series statistics are the median and the 10th and 90th percentiles of
an hourly series.  Each price must lie within ``grid.MAGNITUDE``, the domain
every price the engine forms lies in; a price at or below zero is valid.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from gridclear.dispatch import (
    ConstraintRegime,
    DispatchResult,
    GeneratorSpec,
    clear,
)
from gridclear.grid import Network, out_of_range
from gridclear.pricing import BID_SCHEMES, SCHEMES, PriceFormationError, form_prices
from gridclear.settlement import price_at


@dataclass(frozen=True)
class BidDeviation:
    q_truthful: float
    q_deviated: float
    price_truthful: float
    price_deviated: float
    profit_truthful: float
    profit_deviated: float
    profit_delta: float
    welfare_delta: float  # deviated true welfare minus truthful; <= 0


@dataclass(frozen=True)
class PriceSeriesStats:
    median: float
    p10: float
    p90: float


def _unit_price(net, gens, result: DispatchResult, scheme: str, gen_id: str) -> float:
    """The price ``scheme`` settles the unit at: the one ``clear`` reports."""
    if not result.has_optimum:
        raise PriceFormationError(0, {gen_id: result.violations[0]})
    bus = next(g.bus_id for g in gens if g.id == gen_id)
    return price_at(form_prices(scheme, result, net, gens), net, bus, 0)


def _true_welfare(net: Network, gens: Sequence[GeneratorSpec], result: DispatchResult) -> float:
    wtp = {b.id: b.wtp for b in net.buses}
    utility = sum(wtp[b] * served for b, served in result.served_mw.items())
    cost = sum(g.ic * result.gen_mw[g.id] for g in gens)
    return utility - cost


def evaluate_bid_deviation(
    net: Network,
    gens: Sequence[GeneratorSpec],
    gen_id: str,
    offered_ic: float,
    *,
    scheme: str = "uniform",
    regime: ConstraintRegime | None = None,
    loads: Mapping[str, float] | None = None,
) -> BidDeviation:
    """Re-clear with ``offered_ic`` replacing the unit's true incremental cost
    (clearing only; settlement uses the cleared price, profit and welfare use
    true costs) and compare against the truthful clearing.

    ``scheme`` selects how the unit is settled: ``uniform`` (screened system
    marginal price over the network-constrained schedule), ``zonal`` (zone
    dual) or ``nodal`` (bus dual).  ``regime`` is the clearing regime: nodal
    for the ``nodal`` scheme, zonal otherwise; a default regime of that mode
    when omitted.  ``loads`` overrides bus loads in both clearings, as in
    ``clear``.
    """
    by_id = {g.id: g for g in gens}
    if gen_id not in by_id:
        raise KeyError(f"unknown generator {gen_id!r}")
    if scheme not in BID_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    mode = SCHEMES[scheme].mode
    regime = regime or ConstraintRegime(mode=mode)
    if regime.mode != mode:
        raise ValueError(f"scheme {scheme!r} clears under a {mode} regime, not {regime.mode!r}")
    true_ic = by_id[gen_id].ic

    truthful = clear(net, gens, regime, loads=loads)
    offered_gens = [replace(g, ic=offered_ic) if g.id == gen_id else g for g in gens]
    deviated = clear(net, offered_gens, regime, loads=loads)

    price_t = _unit_price(net, gens, truthful, scheme, gen_id)
    price_d = _unit_price(net, offered_gens, deviated, scheme, gen_id)
    q_t = truthful.gen_mw[gen_id]
    q_d = deviated.gen_mw[gen_id]
    profit_t = (price_t - true_ic) * q_t
    profit_d = (price_d - true_ic) * q_d

    welfare_delta = _true_welfare(net, gens, deviated) - _true_welfare(net, gens, truthful)

    return BidDeviation(
        q_truthful=q_t,
        q_deviated=q_d,
        price_truthful=price_t,
        price_deviated=price_d,
        profit_truthful=profit_t,
        profit_deviated=profit_d,
        profit_delta=profit_d - profit_t,
        welfare_delta=welfare_delta,
    )


def price_stats(series: Sequence[float]) -> PriceSeriesStats:
    """Median, 10th and 90th percentiles (linear interpolation between closest
    ranks) of prices that each lie within ``grid.MAGNITUDE``, as every other
    price does, so no percentile can overflow."""
    if len(series) == 0:
        raise ValueError("empty price series")
    arr = np.asarray(series, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("price series contains non-finite values")
    if bad := out_of_range({f"price {i}": p for i, p in enumerate(arr.tolist())}):
        raise ValueError(f"price series: {bad}")
    p10, median, p90 = (float(np.percentile(arr, p)) for p in (10, 50, 90))
    return PriceSeriesStats(median=median, p10=p10, p90=p90)
