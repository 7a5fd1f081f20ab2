"""Monetary accounting: energy revenue, uplift, redispatch compensation,
consumer payments, congestion rent and social surplus.

Settlement is pure bookkeeping over immutable inputs.  Revenue applies the
scheme price at each generator's settlement key (system, zone, or bus) to its
real-time output.  Uplift is the classic make-whole payment: the shortfall of
market revenue below as-cleared cost, floored at zero.  Constrained-on energy
is compensated at incremental cost; constrained-off energy at the lost margin
(price minus incremental cost, floored at zero).

Congestion rent is computed from the binding transmission duals (multiplier
times limit) and cross-checked against the single-period lossless identity
``rent = consumer market payment - generator market revenue``; a mismatch
raises an accounting error naming the violated identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from gridclear.commitment import RedispatchRecord, UcSchedule
from gridclear.dispatch import DispatchResult, GeneratorSpec
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


def require_finite(what: str, **values: float) -> None:
    """Raise ``ValueError`` naming the first of ``values`` that is not
    finite: inputs near the largest float overflow the sums and differences
    of a report, which must never print an inf or a nan."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{what} {name} is {value}: the scenario's magnitudes overflow it")


@dataclass(frozen=True)
class GeneratorSettlement:
    generator_id: str
    market_revenue: float
    as_cleared_cost: float
    uplift: float
    con_mwh: float = 0.0
    coff_mwh: float = 0.0
    con_payment: float = 0.0
    coff_payment: float = 0.0


@dataclass(frozen=True)
class SettlementReport:
    scheme: str
    currency: str
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


def _dispatch_series(source: DispatchResult | UcSchedule, gid: str, hours: int) -> tuple[float, ...]:
    if isinstance(source, UcSchedule):
        return source.dispatch_mw.get(gid, (0.0,) * hours)
    return (source.gen_mw.get(gid, 0.0),)


def _price_key(prices: PriceReport, net: Network, bus: str, hour: int) -> str:
    """The price a generator or load at ``bus`` settles at: the hour's one
    uniform price, its zone's price or its own bus price."""
    if prices.scheme == "uniform_smp":
        keys = list(prices.prices[hour])
        if len(keys) != 1:
            raise SettlementKeyError(f"uniform price for hour {hour} is not unique: {keys}")
        return keys[0]
    if prices.scheme == "zonal":
        return net.zone_of(bus)
    return bus


def settle_energy(
    prices: PriceReport,
    source: DispatchResult | UcSchedule,
    net: Network,
    gens: Sequence[GeneratorSpec],
    q_rt: Mapping[str, Sequence[float]] | Mapping[str, float] | None = None,
) -> dict[str, float]:
    """Per-generator market revenue: scheme price at the generator's
    settlement key (its bus in ``gens``, or that bus's zone in ``net``) times
    real-time output, summed over hours.  Real-time quantities default to
    the scheduled dispatch."""
    bus_of = {g.id: g.bus_id for g in gens}
    results = _hourly_results(source)
    hours = len(results)
    gen_ids = tuple(source.gen_ids) if isinstance(source, UcSchedule) else tuple(source.gen_mw)
    series: dict[str, Sequence[float]] = {}
    for gid in gen_ids:
        if q_rt is not None and gid in q_rt:
            val = q_rt[gid]
            series[gid] = tuple(val) if isinstance(val, (tuple, list)) else (float(val),) * hours
        else:
            series[gid] = _dispatch_series(source, gid, hours)
    revenue: dict[str, float] = {}
    for gid in gen_ids:
        total = 0.0
        for t in range(hours):
            key = _price_key(prices, net, bus_of[gid], t)
            if key not in prices.prices[t]:
                raise SettlementKeyError(
                    f"no {prices.scheme} price for key {key!r} in hour {t}"
                )
            total += prices.prices[t][key] * series[gid][t]
        revenue[gid] = total
    return revenue


def as_cleared_costs(
    source: DispatchResult | UcSchedule,
    gens: Sequence[GeneratorSpec],
) -> dict[str, float]:
    """Assessed production cost of the schedule: incremental cost times
    energy, plus no-load cost per committed hour, plus start-up cost per
    start."""
    results = _hourly_results(source)
    hours = len(results)
    out: dict[str, float] = {}
    for g in gens:
        qs = _dispatch_series(source, g.id, hours)
        cost = sum(g.ic * q for q in qs)
        if isinstance(source, UcSchedule):
            cost += g.nlc * sum(1 for on in source.committed.get(g.id, ()) if on)
            cost += g.suc * source.starts.get(g.id, 0)
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
    record: RedispatchRecord,
    gens: Sequence[GeneratorSpec],
    smp_per_hour: Sequence[float],
) -> RedispatchSettlement:
    """Out-of-market compensation for deviations from the price-setting
    schedule: constrained-on energy paid at incremental cost, constrained-off
    energy paid the lost margin against the hourly uniform price."""
    if len(smp_per_hour) != record.hours:
        raise ValueError(
            f"price series covers {len(smp_per_hour)} hours, record has {record.hours}"
        )
    specs = {g.id: g for g in gens}
    con_mwh: dict[str, float] = {}
    coff_mwh: dict[str, float] = {}
    con_pay: dict[str, float] = {}
    coff_pay: dict[str, float] = {}
    for gid in record.gen_ids:
        g = specs[gid]
        up = dn = pay_up = pay_dn = 0.0
        for t, d in enumerate(record.delta_mwh[gid]):
            if d > 0:
                up += d
                pay_up += d * g.ic
            elif d < 0:
                dn += -d
                pay_dn += -d * max(0.0, smp_per_hour[t] - g.ic)
        con_mwh[gid], coff_mwh[gid] = up, dn
        con_pay[gid], coff_pay[gid] = pay_up, pay_dn
    zc = {z: 0.0 for z in record.zone_constrained_on}
    zf = {z: 0.0 for z in record.zone_constrained_off}
    zcp = dict(zc)
    zfp = dict(zf)
    for gid in record.gen_ids:
        z = record.gen_zone[gid]
        zc[z] += con_mwh[gid]
        zf[z] += coff_mwh[gid]
        zcp[z] += con_pay[gid]
        zfp[z] += coff_pay[gid]
    return RedispatchSettlement(con_mwh, coff_mwh, con_pay, coff_pay, zc, zf, zcp, zfp)


def summarize(
    prices: PriceReport,
    source: DispatchResult | UcSchedule,
    net: Network,
    gens: Sequence[GeneratorSpec],
    q_rt: Mapping[str, Sequence[float]] | None = None,
    *,
    redispatch: RedispatchSettlement | None = None,
) -> SettlementReport:
    """Full settlement report with every accounting identity enforced."""
    results = _hourly_results(source)
    revenue = settle_energy(prices, source, net, gens, q_rt)
    cleared = as_cleared_costs(source, gens)
    uplift = compute_uplift(revenue, cleared)

    consumer_market = 0.0
    utility = 0.0
    wtp = {b.id: b.wtp for b in net.buses}
    for t, result in enumerate(results):
        for bus, served in result.served_mw.items():
            if served <= 0:
                continue
            key = _price_key(prices, net, bus, t)
            if key not in prices.prices[t]:
                raise SettlementKeyError(f"no {prices.scheme} price for load key {key!r}")
            consumer_market += prices.prices[t][key] * served
            utility += wtp[bus] * served

    per_gen: dict[str, GeneratorSettlement] = {}
    for g in gens:
        extra = {}
        if redispatch is not None and g.id in redispatch.con_mwh:
            extra = dict(
                con_mwh=redispatch.con_mwh[g.id],
                coff_mwh=redispatch.coff_mwh[g.id],
                con_payment=redispatch.con_payment[g.id],
                coff_payment=redispatch.coff_payment[g.id],
            )
        per_gen[g.id] = GeneratorSettlement(
            g.id, revenue[g.id], cleared[g.id], uplift[g.id], **extra
        )

    total_uplift = sum(uplift.values())
    consumer_total = consumer_market + total_uplift
    total_revenue = sum(revenue.values())
    total_cost = sum(cleared.values())
    surplus = utility - total_cost
    require_finite("settlement", consumer_market_payment=consumer_market, consumer_total_payment=consumer_total,
                   market_revenue=total_revenue, total_cost=total_cost, social_surplus=surplus)

    lossless = all(
        all(c.loss == 0.0 for c in hour.values()) for hour in prices.decomposition
    )
    if prices.scheme in ("zonal", "nodal"):
        rent = sum(r.transmission_rent() for r in results)
        if lossless:
            gap = abs(rent - (consumer_market - total_revenue))
            if gap > RENT_TOL * (1.0 + abs(consumer_market)):
                raise AccountingIdentityError(
                    "congestion_rent == consumer_market_payment - market_revenue",
                    f"dual-based rent {rent:.6f} vs payment difference "
                    f"{consumer_market - total_revenue:.6f}",
                )
    else:
        rent = consumer_market - total_revenue
    require_finite("settlement", congestion_rent=rent)

    report = SettlementReport(
        scheme=prices.scheme,
        currency=prices.currency,
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
