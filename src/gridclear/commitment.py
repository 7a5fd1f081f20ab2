"""Multi-hour unit commitment with start-up and no-load costs.

Commitment is solved by exhaustive enumeration of per-unit on/off sequences
pruned by minimum up/down feasibility, with an LP dispatch per candidate hour
(memoized across candidates).  The search is capped at ~2^20 candidates and
reports an explicit error beyond that.  Identical inputs yield identical
schedules across runs.

Two sequential passes with divergent constraint sets model the split between
market scheduling (day-ahead commitment, narrower line set) and system
operation (reliability commitment, broader line set, higher reserve): the
reliability pass inherits the day-ahead commitments as lower bounds and may
only add units.  The per-unit, per-hour dispatch difference between the two
passes is the redispatch record, aggregated per zone into constrained-on and
constrained-off energy.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from gridclear.dispatch import (
    MW_TOL,
    ConstraintRegime,
    DispatchResult,
    GeneratorSpec,
    clear,
)
from gridclear.grid import Network

ENUMERATION_CAP = 1 << 20


class UcEnumerationLimitError(RuntimeError):
    """Raised when the commitment search space exceeds the enumeration cap."""


class UcInfeasibleError(RuntimeError):
    """Raised when no commitment serves the horizon; carries the first hour at
    which every candidate fails."""

    def __init__(self, hour: int):
        self.hour = hour
        super().__init__(f"no feasible commitment; first violating hour: {hour}")


@dataclass(frozen=True)
class UcGenerator:
    spec: GeneratorSpec
    min_up_h: int = 1
    min_down_h: int = 1
    initially_on: bool = False
    initial_hours: int = 24  # hours already spent in the initial on/off state
    is_synchronous: bool = True

    def __post_init__(self):
        if self.min_up_h < 1 or self.min_down_h < 1:
            raise ValueError(f"unit {self.spec.id}: min up/down must be >= 1 hour")
        if self.initial_hours < 0:
            raise ValueError(f"unit {self.spec.id}: initial_hours must be >= 0")


def as_specs(gens: Sequence[GeneratorSpec] | Sequence[UcGenerator]) -> list[GeneratorSpec]:
    """The dispatch specs of plain specs or commitment units alike."""
    return [g.spec if isinstance(g, UcGenerator) else g for g in gens]


@dataclass(frozen=True)
class UcSchedule:
    gen_ids: tuple[str, ...]
    hours: int
    committed: dict[str, tuple[bool, ...]]
    dispatch_mw: dict[str, tuple[float, ...]]
    hours_on: dict[str, tuple[int, ...]]  # consecutive online hours, 0 when off
    starts: dict[str, int]
    hourly_results: tuple[DispatchResult, ...]
    hourly_cost: tuple[float, ...]  # incremental + no-load cost per hour
    total_cost: float  # sum of hourly cost plus start-up costs
    objective: float  # total_cost plus curtailment penalties
    feasible: bool


@dataclass(frozen=True)
class RedispatchRecord:
    gen_ids: tuple[str, ...]
    hours: int
    delta_mwh: dict[str, tuple[float, ...]]  # reliability minus day-ahead
    gen_zone: dict[str, str]
    gen_constrained_on: dict[str, float]
    gen_constrained_off: dict[str, float]
    zone_constrained_on: dict[str, float]
    zone_constrained_off: dict[str, float]


# ---------------------------------------------------------------------------
# feasibility of per-unit on/off sequences
# ---------------------------------------------------------------------------

def feasible_sequences(unit: UcGenerator, horizon: int) -> tuple[tuple[int, ...], ...]:
    """All on/off sequences respecting the unit's initial state and minimum
    up/down times.  Runs truncated by the end of the horizon are allowed."""
    out = []
    for seq in itertools.product((0, 1), repeat=horizon):
        if sequence_is_feasible(unit, seq):
            out.append(seq)
    return tuple(out)


def sequence_is_feasible(unit: UcGenerator, seq: Sequence[int]) -> bool:
    state_on = unit.initially_on
    dur = unit.initial_hours
    for s in seq:
        on = bool(s)
        if on != state_on:
            if state_on and dur < unit.min_up_h:
                return False
            if not state_on and dur < unit.min_down_h:
                return False
            state_on = on
            dur = 1
        else:
            dur += 1
    return True


def _hours_on_counts(unit: UcGenerator, seq: Sequence[int]) -> tuple[int, ...]:
    run = unit.initial_hours if unit.initially_on else 0
    counts = []
    prev_on = unit.initially_on
    for s in seq:
        if s:
            run = run + 1 if prev_on else 1
            counts.append(run)
        else:
            run = 0
            counts.append(0)
        prev_on = bool(s)
    return tuple(counts)


def _start_count(unit: UcGenerator, seq: Sequence[int]) -> int:
    prev = 1 if unit.initially_on else 0
    starts = 0
    for s in seq:
        if s and not prev:
            starts += 1
        prev = s
    return starts


# ---------------------------------------------------------------------------
# commitment search
# ---------------------------------------------------------------------------

def _normalize_hours(
    net: Network, hours: int | Sequence[Mapping[str, float] | None]
) -> list[dict[str, float] | None]:
    if isinstance(hours, int):
        if hours < 1:
            raise ValueError("horizon must be >= 1 hour")
        return [None] * hours
    out: list[dict[str, float] | None] = []
    for h in hours:
        out.append(None if h is None else dict(h))
    if not out:
        raise ValueError("horizon must be >= 1 hour")
    return out


def solve_uc(
    net: Network,
    ucgens: Sequence[UcGenerator],
    hours: int | Sequence[Mapping[str, float]],
    regime: ConstraintRegime,
    *,
    lower_bounds: Mapping[str, Sequence[int]] | None = None,
) -> UcSchedule:
    """Minimum-cost commitment and dispatch over the horizon.

    ``lower_bounds`` restricts the search to sequences that keep each listed
    unit on wherever the bound sequence is on (used by the reliability pass).
    """
    hourly_loads = _normalize_hours(net, hours)
    horizon = len(hourly_loads)
    specs = [u.spec for u in ucgens]
    sync = {u.spec.id for u in ucgens if u.is_synchronous}

    seq_options: list[tuple[tuple[int, ...], ...]] = []
    for u in ucgens:
        opts = feasible_sequences(u, horizon)
        if lower_bounds and u.spec.id in lower_bounds:
            floor = tuple(lower_bounds[u.spec.id])
            opts = tuple(s for s in opts if all(a >= b for a, b in zip(s, floor)))
        if not opts:
            raise UcInfeasibleError(0)
        seq_options.append(opts)

    n_candidates = 1
    for opts in seq_options:
        n_candidates *= len(opts)
        if n_candidates > ENUMERATION_CAP:
            raise UcEnumerationLimitError(
                f"commitment search space exceeds {ENUMERATION_CAP} candidates"
            )

    # per-hour dispatch cache keyed by the committed unit set
    cache: dict[tuple[int, frozenset[str]], DispatchResult] = {}

    def hour_result(t: int, on_ids: frozenset[str]) -> DispatchResult:
        key = (t, on_ids)
        if key not in cache:
            committed = {s.id: (s.id in on_ids) for s in specs}
            cache[key] = clear(net, specs, regime, loads=hourly_loads[t],
                               committed=committed, synchronous=sync)
        return cache[key]

    best_obj = None
    best_combo = None
    first_bad_hour = horizon
    for combo in itertools.product(*seq_options):
        commit_cost = 0.0
        for u, seq in zip(ucgens, combo):
            commit_cost += u.spec.nlc * sum(seq) + u.spec.suc * _start_count(u, seq)
        obj = commit_cost
        ok = True
        for t in range(horizon):
            on_ids = frozenset(u.spec.id for u, seq in zip(ucgens, combo) if seq[t])
            res = hour_result(t, on_ids)
            if any(v.startswith("lp_") for v in res.violations):
                ok = False
                first_bad_hour = min(first_bad_hour, t)
                break
            obj += res.objective_value
        if not ok:
            continue
        if best_obj is None or obj < best_obj - 1e-9:
            best_obj = obj
            best_combo = combo

    if best_combo is None:
        raise UcInfeasibleError(first_bad_hour if first_bad_hour < horizon else 0)

    return _assemble_schedule(net, ucgens, hourly_loads, regime, sync, best_combo, hour_result)


def _assemble_schedule(net, ucgens, hourly_loads, regime, sync, combo, hour_result) -> UcSchedule:
    horizon = len(hourly_loads)
    results = []
    for t in range(horizon):
        on_ids = frozenset(u.spec.id for u, seq in zip(ucgens, combo) if seq[t])
        results.append(hour_result(t, on_ids))

    committed = {}
    dispatch = {}
    hours_on = {}
    starts = {}
    for u, seq in zip(ucgens, combo):
        gid = u.spec.id
        committed[gid] = tuple(bool(s) for s in seq)
        dispatch[gid] = tuple(results[t].gen_mw[gid] for t in range(horizon))
        hours_on[gid] = _hours_on_counts(u, seq)
        starts[gid] = _start_count(u, seq)

    hourly_cost = []
    for t in range(horizon):
        c = sum(u.spec.ic * dispatch[u.spec.id][t] for u in ucgens)
        c += sum(u.spec.nlc for u in ucgens if committed[u.spec.id][t])
        hourly_cost.append(c)
    start_cost = sum(u.spec.suc * starts[u.spec.id] for u in ucgens)
    total_cost = sum(hourly_cost) + start_cost
    curtail_penalty = sum(r.objective_value - r.total_cost for r in results)
    feasible = all(r.feasible for r in results)

    return UcSchedule(
        gen_ids=tuple(u.spec.id for u in ucgens),
        hours=horizon,
        committed=committed,
        dispatch_mw=dispatch,
        hours_on=hours_on,
        starts=starts,
        hourly_results=tuple(results),
        hourly_cost=tuple(hourly_cost),
        total_cost=total_cost,
        objective=total_cost + curtail_penalty,
        feasible=feasible,
    )


def single_interval_schedule(result: DispatchResult, ucgens: Sequence[UcGenerator]) -> UcSchedule:
    """Wrap a one-shot dispatch result as a single-hour schedule so the
    pricing operations can consume it uniformly."""
    committed = {}
    dispatch = {}
    hours_on = {}
    starts = {}
    for u in ucgens:
        gid = u.spec.id
        q = result.gen_mw.get(gid, 0.0)
        on = q > MW_TOL
        committed[gid] = (on,)
        dispatch[gid] = (q,)
        hours_on[gid] = ((u.initial_hours + 1 if u.initially_on else 1) if on else 0,)
        starts[gid] = 0 if (u.initially_on or not on) else 1
    cost = sum(u.spec.ic * dispatch[u.spec.id][0] for u in ucgens)
    cost += sum(u.spec.nlc for u in ucgens if committed[u.spec.id][0])
    start_cost = sum(u.spec.suc * starts[u.spec.id] for u in ucgens)
    return UcSchedule(
        gen_ids=tuple(u.spec.id for u in ucgens),
        hours=1,
        committed=committed,
        dispatch_mw=dispatch,
        hours_on=hours_on,
        starts=starts,
        hourly_results=(result,),
        hourly_cost=(cost,),
        total_cost=cost + start_cost,
        objective=cost + start_cost,
        feasible=result.feasible,
    )


# ---------------------------------------------------------------------------
# sequential day-ahead / reliability passes
# ---------------------------------------------------------------------------

def _enforced_lines(net: Network, regime: ConstraintRegime) -> frozenset[str]:
    if regime.mode != "nodal":
        return frozenset()
    if regime.monitored_profile is None:
        return frozenset(l.id for l in net.lines)
    return frozenset(l.id for l in net.lines_monitored(regime.monitored_profile))


def run_dauc_ruc(
    net: Network,
    ucgens: Sequence[UcGenerator],
    hours: int | Sequence[Mapping[str, float]],
    regime_dauc: ConstraintRegime,
    regime_ruc: ConstraintRegime,
) -> tuple[UcSchedule, UcSchedule, RedispatchRecord]:
    """Run the day-ahead pass, then the reliability pass under its broader
    constraint set with the day-ahead commitments as lower bounds, and record
    the per-unit redispatch between the two."""
    dauc_lines = _enforced_lines(net, regime_dauc)
    ruc_lines = _enforced_lines(net, regime_ruc)
    if not dauc_lines.issubset(ruc_lines):
        raise ValueError(
            "reliability pass must monitor a superset of the day-ahead line set; "
            f"extra day-ahead lines: {sorted(dauc_lines - ruc_lines)}"
        )
    if regime_ruc.reserve_req_mw < regime_dauc.reserve_req_mw:
        raise ValueError("reliability reserve requirement must be >= day-ahead requirement")

    dauc = solve_uc(net, ucgens, hours, regime_dauc)
    floors = {gid: tuple(1 if on else 0 for on in dauc.committed[gid]) for gid in dauc.gen_ids}
    ruc = solve_uc(net, ucgens, hours, regime_ruc, lower_bounds=floors)

    gen_zone = {u.spec.id: net.zone_of(u.spec.bus_id) for u in ucgens}
    delta = {
        gid: tuple(
            ruc.dispatch_mw[gid][t] - dauc.dispatch_mw[gid][t] for t in range(dauc.hours)
        )
        for gid in dauc.gen_ids
    }
    gen_con = {gid: sum(d for d in delta[gid] if d > 0) for gid in dauc.gen_ids}
    gen_coff = {gid: sum(-d for d in delta[gid] if d < 0) for gid in dauc.gen_ids}
    zone_con = {z: 0.0 for z in net.zones}
    zone_coff = {z: 0.0 for z in net.zones}
    for gid in dauc.gen_ids:
        zone_con[gen_zone[gid]] += gen_con[gid]
        zone_coff[gen_zone[gid]] += gen_coff[gid]

    record = RedispatchRecord(
        gen_ids=dauc.gen_ids,
        hours=dauc.hours,
        delta_mwh=delta,
        gen_zone=gen_zone,
        gen_constrained_on=gen_con,
        gen_constrained_off=gen_coff,
        zone_constrained_on=zone_con,
        zone_constrained_off=zone_coff,
    )
    return dauc, ruc, record
