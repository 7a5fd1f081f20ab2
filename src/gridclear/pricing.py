"""Price formation: uniform stack-price screening, zonal duals, nodal LMPs.

``form_prices`` is the one mapping from a scheme of ``SCHEMES`` and its
clearing, in the scheme's mode, to the prices the scheme reports and settles
at: it forms zone and bus prices itself, and the uniform price through
``form_smp``.  Each scheme forms one of three kinds of price:

* ``uniform_smp`` -- the system marginal price, keyed ``system``, is the
  highest stack price (incremental cost plus amortized no-load and start-up
  cost) among the screened marginal generators of the hour.  Units pinned at
  bounds, at forced bounds, held by stability or reserve constraints, or
  priced apart from the reference dual by a binding transmission constraint
  are excluded and their exclusion reasons recorded.  An empty marginal set
  is a hard pricing failure, never a silent zero.
* ``zonal``       -- zone prices are the zone balance duals of the clearing.
* ``nodal``       -- bus prices are the bus balance duals, decomposed into an
  energy component (reference-bus dual), a congestion component, and a loss
  component, zero under the lossless model.

``SCHEMES`` names each market scheme a scenario can run, with the regime it
clears under and the kind of price above that it forms.  A unit's or a
load's balance dual is the one at its ``dispatch.location``.

All functions here are pure; hours may be evaluated in parallel.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from gridclear.commitment import UcSchedule, runs, single_interval_schedule
from gridclear.dispatch import PRICE_TOL, DispatchResult, GeneratorSpec, location
from gridclear.grid import MW_TOL, Network


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
    sp: float
    nlc_share: float
    suc_share: float


@dataclass(frozen=True)
class MarginalSet:
    members: tuple[str, ...]
    exclusions: dict[str, str]  # screened-out dispatched units -> reason


@dataclass(frozen=True)
class PriceComponents:
    energy: float
    congestion: float
    loss: float


@dataclass(frozen=True)
class PriceReport:
    scheme: str  # "uniform_smp" | "zonal" | "nodal"
    prices: tuple[dict[str, float], ...]  # one mapping per hour
    decomposition: tuple[dict[str, PriceComponents], ...] = ()
    marginal_sets: tuple[MarginalSet, ...] = ()  # one per hour, uniform prices only


@dataclass(frozen=True)
class Scheme:
    """A pricing scheme: the regime it clears under (looked up by name in the
    scenario, a default regime of ``mode`` when absent) and the kind of price
    it forms."""
    label: str
    regime: str
    mode: str
    price_kind: str  # a PriceReport.scheme

    @property
    def deliverable(self) -> bool:
        """Dual-priced schedules claim physical deliverability; a limit
        violation makes their monetary outcome "Not Available"."""
        return self.price_kind != "uniform_smp"


SCHEMES = {
    "nodal": Scheme("Nodal", "nodal", "nodal", "nodal"),
    "zonal": Scheme("Zonal", "zonal", "zonal", "zonal"),
    "zonal_cm": Scheme("Zonal (congestion management)", "zonal", "zonal", "zonal"),
    "copper": Scheme("Copper plate", "copper", "copper_plate", "uniform_smp"),
    "uniform": Scheme("Uniform (constrained schedule)", "zonal", "zonal", "uniform_smp"),
}
BID_SCHEMES = ("uniform", "zonal", "nodal")  # the schemes a bid deviation is evaluated under


def stack_price(gen: GeneratorSpec, q: float, hours_on: int = 1) -> StackPrice:
    """Avoided-cost stack price: incremental cost plus no-load cost spread
    over output plus start-up cost spread over output and online hours."""
    if q <= 0:
        raise UnitNotRunningError(f"unit {gen.id}: stack price undefined at q={q:g}")
    if hours_on < 1:
        raise ValueError(f"unit {gen.id}: hours_on must be >= 1")
    nlc_share = gen.nlc / q
    suc_share = gen.suc / (q * hours_on)
    return StackPrice(gen.ic + nlc_share + suc_share, nlc_share, suc_share)


def _reference_dual(result: DispatchResult, net: Network) -> float:
    """The highest balance dual among locations actually serving load."""
    duals = result.balance_duals
    served = dict.fromkeys(duals, 0.0)
    for bus, mw in result.served_mw.items():
        served[location(net, result.mode, bus)] += mw
    keys_serving = [k for k, v in served.items() if v > MW_TOL]
    if keys_serving:
        return max(duals[k] for k in keys_serving)
    return max(duals.values(), default=0.0)


# the exclusion reason of each clearing flag that screens a dispatched unit out
_SCREENED_FLAGS = {
    "at_capacity": "at_capacity",
    "at_forced_min": "forced_bound",
    "at_forced_max": "forced_bound",
    "at_pmin": "constrained_on",
    "stability_bound": "stability_bound",
    "reserve_bound": "reserve_bound",
}


def form_smp(schedule: UcSchedule, net: Network, gens: Sequence[GeneratorSpec]) -> PriceReport:
    """Uniform price per hour, keyed ``system``: the maximum stack price over
    the screened marginal set, with recorded exclusion reasons for every
    screened-out dispatched unit.  ``net`` locates buses and units in zones."""
    specs = {g.id: g for g in gens}
    for gid in schedule.committed:
        if gid not in specs:
            raise PricingContractError(f"schedule unit {gid!r} is not among the priced generators")
    hours_on = {gid: runs(specs[gid], flags)[0] for gid, flags in schedule.committed.items()}
    prices: list[dict[str, float]] = []
    msets: list[MarginalSet] = []
    for t, result in enumerate(schedule.hourly_results):
        ref = _reference_dual(result, net)
        members: list[str] = []
        exclusions: dict[str, str] = {}
        for gid in schedule.committed:
            q = result.gen_mw[gid]
            if q <= MW_TOL:
                continue
            if reason := _SCREENED_FLAGS.get(result.gen_flags.get(gid, "")):
                exclusions[gid] = reason
                continue
            lam = result.balance_duals[location(net, result.mode, specs[gid].bus_id)]
            if lam < ref - PRICE_TOL:
                exclusions[gid] = "constrained_off"
                continue
            if lam > ref + PRICE_TOL:
                exclusions[gid] = "constrained_on"
                continue
            members.append(gid)
        if not members:
            raise PriceFormationError(t, exclusions)
        smp = max(stack_price(specs[gid], result.gen_mw[gid], max(hours_on[gid][t], 1)).sp
                  for gid in members)
        prices.append({"system": smp})
        msets.append(MarginalSet(tuple(members), exclusions))
    return PriceReport("uniform_smp", tuple(prices), (), tuple(msets))


def form_prices(
    scheme: str,
    result: DispatchResult,
    net: Network,
    gens: Sequence[GeneratorSpec],
) -> PriceReport:
    """The prices ``scheme`` (a key of ``SCHEMES``) forms from one clearing
    of ``gens`` in the scheme's mode (else ``PricingContractError``): its
    zone duals, its bus duals with their energy (reference bus dual),
    congestion and loss components, or the screened uniform price of the
    single-interval schedule.  A clearing with no optimum forms no price:
    the report's one hour is empty."""
    mode, kind = SCHEMES[scheme].mode, SCHEMES[scheme].price_kind
    if result.mode != mode:
        raise PricingContractError(f"scheme {scheme!r} prices a {mode} clearing, not a {result.mode} one")
    if not result.has_optimum:
        return PriceReport(kind, ({},))
    duals = result.balance_duals
    if kind == "zonal":
        return PriceReport("zonal", (dict(duals),))
    if kind == "uniform_smp":
        return form_smp(single_interval_schedule(result, gens), net, gens)
    lam_ref = duals[net.slack_bus]
    loss = lam_ref * 0.0  # lossless: zero, signed as the reference price
    prices = {b.id: duals[b.id] + loss for b in net.buses}
    comps = {b.id: PriceComponents(lam_ref, duals[b.id] - lam_ref, loss) for b in net.buses}
    return PriceReport("nodal", (prices,), (comps,))
