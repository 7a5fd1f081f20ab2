"""Monetary accounting: energy revenue, uplift, redispatch compensation,
consumer payments, congestion rent and social surplus.

Settlement is pure bookkeeping over immutable inputs.  ``price_at`` is the
one reader of a price report: the price at a bus's ``dispatch.location``
under the report's price kind.  Revenue applies it to each generator's
scheduled output.  Uplift is the classic make-whole payment: the shortfall of
market revenue below as-cleared cost, floored at zero.  Constrained-on energy
is compensated at incremental cost; constrained-off energy at the lost margin
(price minus incremental cost, floored at zero).

Congestion rent is computed from the binding transmission duals (multiplier
times limit) and cross-checked against the single-period lossless identity
``rent = consumer market payment - generator market revenue``; a mismatch
raises an accounting error naming the violated identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from gridclear.commitment import UcSchedule, runs
from gridclear.dispatch import DispatchResult, GeneratorSpec, location
from gridclear.grid import MW_TOL, Network
from gridclear.pricing import PriceReport

RENT_TOL = 1e-6


class AccountingIdentityError(ArithmeticError):
    """An internal settlement identity failed; names the identity."""

    def __init__(self, identity: str, detail: str):
        self.identity = identity
        super().__init__(f"violated identity {identity!r}: {detail}")


class SettlementKeyError(KeyError):
    """No price exists for a generator's settlement key."""


@dataclass(frozen=True)
class GeneratorSettlement:
    market_revenue: float
    as_cleared_cost: float
    uplift: float


@dataclass(frozen=True)
class SettlementReport:
    per_generator: dict[str, GeneratorSettlement]
    consumer_market_payment: float
    consumer_total_payment: float
    congestion_rent: float
    total_cost: float
    social_surplus: float

    @property
    def total_market_revenue(self) -> float:
        return sum(g.market_revenue for g in self.per_generator.values())

    @property
    def total_uplift(self) -> float:
        return sum(g.uplift for g in self.per_generator.values())


def _hourly_results(source: DispatchResult | UcSchedule) -> tuple[DispatchResult, ...]:
    if isinstance(source, UcSchedule):
        return source.hourly_results
    return (source,)


def _dispatch_series(results: Sequence[DispatchResult], gid: str) -> tuple[float, ...]:
    return tuple(r.gen_mw.get(gid, 0.0) for r in results)


def price_at(prices: PriceReport, net: Network, bus: str, hour: int) -> float:
    """The price a generator or load at ``bus`` settles at in ``hour``: the
    price at its ``location`` under the report's price kind, so the hour's
    uniform price, its zone's price or its own bus price."""
    key = location(net, prices.scheme, bus)
    if key not in prices.prices[hour]:
        raise SettlementKeyError(f"no {prices.scheme} price for key {key!r} in hour {hour}")
    return prices.prices[hour][key]


def settle_energy(
    prices: PriceReport,
    source: DispatchResult | UcSchedule,
    net: Network,
    gens: Sequence[GeneratorSpec],
) -> dict[str, float]:
    """Per-generator market revenue, for each unit of ``gens`` in order:
    ``price_at`` its bus times its output in each hour's ``gen_mw``, summed
    over hours."""
    results = _hourly_results(source)
    revenue: dict[str, float] = {}
    for g in gens:
        total = 0.0
        for t, q in enumerate(_dispatch_series(results, g.id)):
            total += price_at(prices, net, g.bus_id, t) * q
        revenue[g.id] = total
    return revenue


def as_cleared_costs(
    source: DispatchResult | UcSchedule,
    gens: Sequence[GeneratorSpec],
) -> dict[str, float]:
    """Assessed production cost of the schedule: incremental cost times
    energy, plus no-load cost per committed hour, plus start-up cost per
    start."""
    results = _hourly_results(source)
    out: dict[str, float] = {}
    for g in gens:
        qs = _dispatch_series(results, g.id)
        cost = sum(g.ic * q for q in qs)
        if isinstance(source, UcSchedule):
            flags = source.committed.get(g.id, ())
            cost += g.nlc * sum(1 for on in flags if on)
            cost += g.suc * runs(g, flags)[1]
        else:
            cost += g.nlc * sum(1 for q in qs if q > MW_TOL)
        out[g.id] = cost
    return out


def compute_uplift(
    market_revenue: Mapping[str, float], as_cleared_cost: Mapping[str, float]
) -> dict[str, float]:
    """Make-whole payment: shortfall of market revenue below as-cleared cost,
    never negative.  Shortfalls within solver noise of zero settle to zero."""
    out = {}
    for gid in as_cleared_cost:
        shortfall = as_cleared_cost[gid] - market_revenue.get(gid, 0.0)
        noise = RENT_TOL * (1.0 + abs(as_cleared_cost[gid]))
        out[gid] = shortfall if shortfall > noise else 0.0
    return out


@dataclass(frozen=True)
class RedispatchSettlement:
    con_mwh: dict[str, float]
    coff_mwh: dict[str, float]
    con_payment: dict[str, float]
    coff_payment: dict[str, float]
    zone_con_mwh: dict[str, float]
    zone_coff_mwh: dict[str, float]
    zone_con_payment: dict[str, float]
    zone_coff_payment: dict[str, float]


def settle_redispatch(
    delta: Mapping[str, Sequence[float]],
    net: Network,
    gens: Sequence[GeneratorSpec],
    smp_per_hour: Sequence[float],
) -> RedispatchSettlement:
    """Out-of-market compensation for deviations from the price-setting
    schedule, ``delta`` (each unit's reliability minus day-ahead MW per hour,
    as ``run_dauc_ruc`` returns it): constrained-on energy paid at
    incremental cost, constrained-off energy paid the lost margin against the
    hourly uniform price.  Energy and payments are summed per unit, in
    ``delta``'s order, then per zone of the unit's bus, in ``net.zones``
    order.  A unit whose series is not as long as the price series raises
    ``ValueError``."""
    specs = {g.id: g for g in gens}
    units: dict[str, tuple[float, ...]] = {}  # (on MWh, off MWh, on payment, off payment)
    zones = {z: (0.0,) * 4 for z in net.zones}
    for gid, series in delta.items():
        if len(series) != len(smp_per_hour):
            raise ValueError(f"price series covers {len(smp_per_hour)} hours, "
                             f"unit {gid!r} has {len(series)}")
        g = specs[gid]
        up = dn = pay_up = pay_dn = 0.0
        for t, d in enumerate(series):
            if d > 0:
                up += d
                pay_up += d * g.ic
            elif d < 0:
                dn += -d
                pay_dn += -d * max(0.0, smp_per_hour[t] - g.ic)
        units[gid] = (up, dn, pay_up, pay_dn)
        z = net.zone_of(g.bus_id)
        zones[z] = tuple(a + b for a, b in zip(zones[z], units[gid]))
    return RedispatchSettlement(*({gid: v[k] for gid, v in units.items()} for k in range(4)),
                                *({z: v[k] for z, v in zones.items()} for k in range(4)))


def summarize(
    prices: PriceReport,
    source: DispatchResult | UcSchedule,
    net: Network,
    gens: Sequence[GeneratorSpec],
) -> SettlementReport:
    """Full settlement report with every accounting identity enforced."""
    results = _hourly_results(source)
    revenue = settle_energy(prices, source, net, gens)
    cleared = as_cleared_costs(source, gens)
    uplift = compute_uplift(revenue, cleared)

    consumer_market = 0.0
    utility = 0.0
    wtp = {b.id: b.wtp for b in net.buses}
    for t, result in enumerate(results):
        for bus, served in result.served_mw.items():
            if served <= 0:
                continue
            consumer_market += price_at(prices, net, bus, t) * served
            utility += wtp[bus] * served

    per_gen = {g.id: GeneratorSettlement(revenue[g.id], cleared[g.id], uplift[g.id]) for g in gens}

    total_uplift = sum(uplift.values())
    consumer_total = consumer_market + total_uplift
    total_revenue = sum(revenue.values())
    total_cost = sum(cleared.values())
    surplus = utility - total_cost

    if prices.scheme in ("zonal", "nodal"):
        rent = sum(r.transmission_rent() for r in results)
        gap = abs(rent - (consumer_market - total_revenue))
        if gap > RENT_TOL * (1.0 + abs(consumer_market)):
            raise AccountingIdentityError(
                "congestion_rent == consumer_market_payment - market_revenue",
                f"dual-based rent {rent:.6f} vs payment difference "
                f"{consumer_market - total_revenue:.6f}",
            )
    else:
        rent = consumer_market - total_revenue

    report = SettlementReport(
        per_generator=per_gen,
        consumer_market_payment=consumer_market,
        consumer_total_payment=consumer_total,
        congestion_rent=rent,
        total_cost=total_cost,
        social_surplus=surplus,
    )
    _check_conservation(report)
    return report


def _check_conservation(report: SettlementReport) -> None:
    lhs = report.consumer_total_payment
    rhs = report.total_market_revenue + report.total_uplift + report.congestion_rent
    if abs(lhs - rhs) > RENT_TOL * (1.0 + abs(lhs)):
        raise AccountingIdentityError(
            "consumer_total_payment == generator receipts + congestion_rent",
            f"{lhs:.6f} vs {rhs:.6f}",
        )
