"""Price formation: uniform stack-price screening, zonal duals, nodal LMPs.

Three schemes are supported:

* ``uniform_smp`` -- the system marginal price is the highest stack price
  (incremental cost plus amortized no-load and start-up cost) among the
  screened marginal generators of the hour.  Units pinned at bounds, at
  forced bounds, held by stability or reserve constraints, or separated from
  the pricing region by a binding transmission constraint are excluded and
  their exclusion reasons recorded.  An empty marginal set is a hard pricing
  failure, never a silent zero.
* ``zonal``       -- zone prices are the zone balance duals of the clearing.
* ``nodal``       -- bus prices are the bus balance duals, decomposed into an
  energy component (reference-bus dual), a congestion component, and a loss
  component (zero under the lossless model unless marginal loss factors are
  supplied).

All functions here are pure; hours may be evaluated in parallel.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from gridclear.commitment import UcGenerator, UcSchedule, as_specs
from gridclear.dispatch import MW_TOL, PRICE_TOL, DispatchResult, GeneratorSpec
from gridclear.grid import PtdfMatrix


class UnitNotRunningError(ValueError):
    """Stack price requested for a unit with no output."""


class PriceFormationError(RuntimeError):
    """Raised when an hour has no eligible marginal generator."""

    def __init__(self, hour: int, exclusions: Mapping[str, str]):
        self.hour = hour
        self.exclusions = dict(exclusions)
        detail = ", ".join(f"{g}: {r}" for g, r in sorted(exclusions.items())) or "no units dispatched"
        super().__init__(f"empty marginal set in hour {hour} ({detail})")


class PricingContractError(ValueError):
    """Raised when a pricing operation is fed a result of the wrong kind."""


@dataclass(frozen=True)
class StackPrice:
    generator_id: str
    hour: int
    sp: float
    ic: float
    nlc_share: float
    suc_share: float


@dataclass(frozen=True)
class MarginalSet:
    hour: int
    members: tuple[str, ...]
    exclusions: dict[str, str]  # screened-out dispatched units -> reason


@dataclass(frozen=True)
class PriceComponents:
    energy: float
    congestion: float
    loss: float

    @property
    def total(self) -> float:
        return self.energy + self.congestion + self.loss


@dataclass(frozen=True)
class PriceReport:
    scheme: str  # "uniform_smp" | "zonal" | "nodal"
    prices: tuple[dict[str, float], ...]  # one mapping per hour
    decomposition: tuple[dict[str, PriceComponents], ...] = ()
    marginal_sets: tuple[MarginalSet, ...] = ()
    currency: str = ""

    def price(self, hour: int, key: str) -> float:
        return self.prices[hour][key]


def stack_price(gen: GeneratorSpec, q: float, hours_on: int = 1, hour: int = 0) -> StackPrice:
    """Avoided-cost stack price: incremental cost plus no-load cost spread
    over output plus start-up cost spread over output and online hours."""
    if q <= 0:
        raise UnitNotRunningError(f"unit {gen.id}: stack price undefined at q={q:g}")
    if hours_on < 1:
        raise ValueError(f"unit {gen.id}: hours_on must be >= 1")
    nlc_share = gen.nlc / q
    suc_share = gen.suc / (q * hours_on)
    return StackPrice(gen.id, hour, gen.ic + nlc_share + suc_share, gen.ic, nlc_share, suc_share)


def _served_by_location(result: DispatchResult) -> dict[str, float]:
    """Served load keyed the same way as the result's balance duals."""
    if result.mode == "nodal":
        return dict(result.served_mw)
    if result.mode == "copper_plate":
        return {"system": sum(result.served_mw.values())}
    by_zone = {key: 0.0 for key in result.balance_duals}
    for bus, served in result.served_mw.items():
        by_zone[result.bus_zone[bus]] = by_zone.get(result.bus_zone[bus], 0.0) + served
    return by_zone


def _reference_dual(result: DispatchResult, region: str | None) -> float:
    """Dual of the pricing region: the zone's own dual when restricted, else
    the highest balance dual among locations actually serving load."""
    duals = result.balance_duals
    if result.mode == "copper_plate":
        return duals.get("system", 0.0)
    if region is not None:
        if result.mode == "zonal":
            if region not in duals:
                raise PricingContractError(f"no balance dual for zone {region!r}")
            return duals[region]
        in_region = [b for b in duals if result.bus_zone.get(b) == region]
        if not in_region:
            raise PricingContractError(f"no buses in region {region!r}")
        serving = [b for b in in_region if result.served_mw.get(b, 0.0) > MW_TOL]
        return max(duals[b] for b in (serving or in_region))
    served = _served_by_location(result)
    keys_serving = [k for k, v in served.items() if v > MW_TOL]
    if keys_serving:
        return max(duals[k] for k in keys_serving)
    return max(duals.values(), default=0.0)


def form_smp(
    schedule: UcSchedule,
    gens: Sequence[GeneratorSpec] | Sequence[UcGenerator],
    *,
    region: str | None = None,
    currency: str = "",
) -> PriceReport:
    """Uniform price per hour: the maximum stack price over the screened
    marginal set, with recorded exclusion reasons for every screened-out
    dispatched unit."""
    specs = {g.id: g for g in as_specs(gens)}
    prices: list[dict[str, float]] = []
    msets: list[MarginalSet] = []
    for t, result in enumerate(schedule.hourly_results):
        ref = _reference_dual(result, region)
        members: list[str] = []
        exclusions: dict[str, str] = {}
        for gid in schedule.gen_ids:
            if gid not in specs:
                continue
            q = schedule.dispatch_mw[gid][t]
            if q <= MW_TOL:
                continue
            if region is not None and result.gen_zone.get(gid) != region:
                continue
            flag = result.gen_flags.get(gid, "")
            if flag in ("at_capacity",):
                exclusions[gid] = "at_capacity"
                continue
            if flag in ("at_forced_min", "at_forced_max"):
                exclusions[gid] = "forced_bound"
                continue
            if flag == "at_pmin":
                exclusions[gid] = "constrained_on"
                continue
            if flag == "stability_bound":
                exclusions[gid] = "stability_bound"
                continue
            if flag == "reserve_bound":
                exclusions[gid] = "reserve_bound"
                continue
            lam = result.gen_local_dual.get(gid, ref)
            if lam < ref - PRICE_TOL:
                exclusions[gid] = "constrained_off"
                continue
            if lam > ref + PRICE_TOL:
                exclusions[gid] = "constrained_on"
                continue
            members.append(gid)
        if not members:
            raise PriceFormationError(t, exclusions)
        smp = max(
            stack_price(specs[gid], schedule.dispatch_mw[gid][t],
                        max(schedule.hours_on[gid][t], 1), hour=t).sp
            for gid in members
        )
        key = region if region is not None else "system"
        prices.append({key: smp})
        msets.append(MarginalSet(t, tuple(members), exclusions))
    return PriceReport("uniform_smp", tuple(prices), (), tuple(msets), currency)


def form_zonal_prices(result: DispatchResult, *, currency: str = "") -> PriceReport:
    """Zone prices are the zone balance duals of a zonal clearing."""
    if result.mode != "zonal":
        raise PricingContractError("form_zonal_prices requires a zonal dispatch result")
    if not result.balance_duals:
        raise PricingContractError("zonal result carries no zone balance duals")
    return PriceReport("zonal", (dict(result.balance_duals),), (), (), currency)


def form_nodal_prices(
    result: DispatchResult,
    ptdf: PtdfMatrix,
    loss_factors: Mapping[str, float] | None = None,
    *,
    currency: str = "",
) -> PriceReport:
    """Locational prices with an energy / congestion / loss decomposition.

    The energy component is the reference (slack) bus dual; the congestion
    component is the dual spread against the reference; the loss component is
    reference price times the supplied marginal loss factor (zero by default,
    matching the lossless network model)."""
    if result.mode != "nodal":
        raise PricingContractError("form_nodal_prices requires a nodal dispatch result")
    if ptdf.slack_bus not in result.balance_duals:
        raise PricingContractError(f"reference bus {ptdf.slack_bus!r} dual missing")
    lam_ref = result.balance_duals[ptdf.slack_bus]
    lf = dict(loss_factors or {})
    prices: dict[str, float] = {}
    comps: dict[str, PriceComponents] = {}
    for bus in ptdf.bus_ids:
        if bus not in result.balance_duals:
            raise PricingContractError(f"balance dual missing for bus {bus!r}")
        lam = result.balance_duals[bus]
        loss = lam_ref * lf.get(bus, 0.0)
        congestion = lam - lam_ref
        prices[bus] = lam + loss
        comps[bus] = PriceComponents(energy=lam_ref, congestion=congestion, loss=loss)
    return PriceReport("nodal", (prices,), (comps,), (), currency)
