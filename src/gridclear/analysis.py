"""Diagnostics on top of the clearing engine: strategic bid deviations and
price-series statistics.

Bid deviations change the clearing inputs only; every welfare figure is
evaluated at true costs.  Truthful clearing is cost-minimal over the feasible
set, so a deviation that changes dispatch can never raise true welfare.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from gridclear.commitment import single_interval_schedule
from gridclear.dispatch import (
    ConstraintRegime,
    DispatchResult,
    GeneratorSpec,
    clear,
)
from gridclear.grid import Network
from gridclear.pricing import SCHEMES, PriceFormationError, form_smp
from gridclear.settlement import require_finite


BID_SCHEMES = ("uniform", "zonal", "nodal")


@dataclass(frozen=True)
class BidDeviation:
    generator_id: str
    scheme: str
    true_ic: float
    offered_ic: float
    q_truthful: float
    q_deviated: float
    price_truthful: float
    price_deviated: float
    profit_truthful: float
    profit_deviated: float
    profit_delta: float
    welfare_delta: float  # deviated true welfare minus truthful; <= 0
    dispatch_truthful: dict[str, float]
    dispatch_deviated: dict[str, float]


@dataclass(frozen=True)
class PriceSeriesStats:
    median: float
    p10: float
    p90: float
    normalized: tuple[float, ...]  # series divided by its arithmetic mean


def _unit_price(net, gens, result: DispatchResult, scheme: str, gen_id: str, currency: str) -> float:
    if not result.gen_local_dual:  # the clearing has no optimum, so no price under any scheme
        raise PriceFormationError(0, {gen_id: result.violations[0]})
    if scheme == "uniform":
        report = form_smp(single_interval_schedule(result, gens), net, gens, currency=currency)
        return report.prices[0]["system"]
    return result.gen_local_dual[gen_id]


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
    currency: str = "",
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

    price_t = _unit_price(net, gens, truthful, scheme, gen_id, currency)
    price_d = _unit_price(net, offered_gens, deviated, scheme, gen_id, currency)
    q_t = truthful.gen_mw[gen_id]
    q_d = deviated.gen_mw[gen_id]
    profit_t = (price_t - true_ic) * q_t
    profit_d = (price_d - true_ic) * q_d

    welfare_delta = _true_welfare(net, gens, deviated) - _true_welfare(net, gens, truthful)
    require_finite("bid deviation", price_truthful=price_t, price_deviated=price_d, profit_truthful=profit_t,
                   profit_deviated=profit_d, profit_delta=profit_d - profit_t, welfare_delta=welfare_delta)

    return BidDeviation(
        generator_id=gen_id,
        scheme=scheme,
        true_ic=true_ic,
        offered_ic=offered_ic,
        q_truthful=q_t,
        q_deviated=q_d,
        price_truthful=price_t,
        price_deviated=price_d,
        profit_truthful=profit_t,
        profit_deviated=profit_d,
        profit_delta=profit_d - profit_t,
        welfare_delta=welfare_delta,
        dispatch_truthful=dict(truthful.gen_mw),
        dispatch_deviated=dict(deviated.gen_mw),
    )


def price_stats(series: Sequence[float]) -> PriceSeriesStats:
    """Median, 10th and 90th percentiles (linear interpolation between closest
    ranks) and the mean-normalized series."""
    if len(series) == 0:
        raise ValueError("empty price series")
    arr = np.asarray(series, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("price series contains non-finite values")
    # huge finite prices overflow the sum, an interpolation span or a ratio to a tiny mean
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mean = float(arr.mean())
        p10, median, p90 = (float(np.percentile(arr, p)) for p in (10, 50, 90))
        ratios = arr / mean
    for name, value in (("mean", mean), ("p10", p10), ("median", median), ("p90", p90)):
        if not math.isfinite(value):
            raise ValueError(f"price series {name} is {value}: the prices overflow it")
    if mean == 0.0:
        raise ValueError("cannot normalize a zero-mean series")
    if not np.isfinite(ratios).all():
        raise ValueError("price series normalized by its mean overflows: the prices are too large for it")
    normalized = tuple(ratios.tolist())
    return PriceSeriesStats(median=median, p10=p10, p90=p90, normalized=normalized)
