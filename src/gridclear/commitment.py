"""Multi-hour unit commitment with start-up and no-load costs.

Commitment is solved by exhaustive search over the product of per-unit on/off
sequences pruned by minimum up/down feasibility, with one LP dispatch per
distinct (hour, committed set) (memoized across candidates).  The sequences
are counted before any is listed, and a search over more than ~2^20
candidates reports an explicit error.

Candidates are evaluated as arrays, in fixed-size blocks of
``itertools.product`` order: commitment costs are summed per candidate in unit
order, then hour costs in hour order, so every objective is the float the
one-at-a-time scan computes; a candidate is dropped at its first infeasible
hour, and only on-sets of candidates still alive are dispatched.  The choice
is the scan's: the first feasible candidate, replaced by each later one whose
objective is below the current best minus 1e-9.  Identical inputs yield
identical schedules across runs.

Two sequential passes with divergent constraint sets model the split between
market scheduling (day-ahead commitment, narrower line set) and system
operation (reliability commitment, broader line set, higher reserve): the
reliability pass inherits the day-ahead commitments as lower bounds and may
only add units.  The per-unit, per-hour dispatch difference between the two
passes is the redispatch record, aggregated per zone into constrained-on and
constrained-off energy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from gridclear.dispatch import ConstraintRegime, DispatchResult, GeneratorSpec, clear
from gridclear.grid import MW_TOL, Network

ENUMERATION_CAP = 1 << 20
_BLOCK = 1 << 12  # candidates evaluated together; bounds the search's working memory


class UcEnumerationLimitError(RuntimeError):
    """Raised when the commitment search space exceeds the enumeration cap."""


class UcInfeasibleError(RuntimeError):
    """Raised when no commitment serves the horizon; carries the earliest hour
    at which any candidate fails."""

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
    total_cost: float  # incremental, no-load and start-up costs
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

def _next_state(unit: UcGenerator, state: tuple[bool, int], s: int) -> tuple[bool, int] | None:
    """The (on, hours in that state) after one more hour at ``s``, or None if
    the unit's minimum up/down time forbids the change."""
    on, dur = state
    if bool(s) == on:
        return on, dur + 1
    if dur < (unit.min_up_h if on else unit.min_down_h):
        return None
    return bool(s), 1


def _count_sequences(unit: UcGenerator, floor: Sequence[int]) -> int:
    """Number of feasible sequences at or above ``floor`` (one entry per
    hour), counted per (state, duration) without listing any."""
    counts = {(unit.initially_on, unit.initial_hours): 1}
    for f in floor:
        nxt: dict[tuple[bool, int], int] = {}
        for state, n in counts.items():
            for s in (0, 1):
                st = _next_state(unit, state, s)
                if s >= f and st is not None:
                    nxt[st] = nxt.get(st, 0) + n
        counts = nxt
    return sum(counts.values())


def _sequences(unit: UcGenerator, floor: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The feasible sequences at or above ``floor``, in ``itertools.product``
    order: extending every prefix by 0, then 1, keeps that order."""
    level = [((), (unit.initially_on, unit.initial_hours))]
    for f in floor:
        level = [(seq + (s,), st) for seq, state in level for s in (0, 1)
                 if s >= f and (st := _next_state(unit, state, s)) is not None]
    return tuple(seq for seq, _ in level)


def feasible_sequences(unit: UcGenerator, horizon: int) -> tuple[tuple[int, ...], ...]:
    """All on/off sequences respecting the unit's initial state and minimum
    up/down times, in ``itertools.product`` order.  Runs truncated by the end
    of the horizon are allowed."""
    return _sequences(unit, (0,) * horizon)


def sequence_is_feasible(unit: UcGenerator, seq: Sequence[int]) -> bool:
    state = (unit.initially_on, unit.initial_hours)
    for s in seq:
        state = _next_state(unit, state, s)
        if state is None:
            return False
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

def _normalize_hours(hours: int | Sequence[Mapping[str, float] | None]) -> list[dict[str, float] | None]:
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


def _floor(lower_bounds: Mapping[str, Sequence[int]] | None, unit: UcGenerator,
           horizon: int) -> tuple[int, ...]:
    """The unit's lower-bound sequence over the horizon; hours it leaves out
    are unbounded."""
    floor = tuple(lower_bounds.get(unit.spec.id, ())) if lower_bounds else ()
    return floor[:horizon] + (0,) * (horizon - len(floor))


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
    hourly_loads = _normalize_hours(hours)
    horizon = len(hourly_loads)
    specs = [u.spec for u in ucgens]
    sync = {u.spec.id for u in ucgens if u.is_synchronous}

    floors = [_floor(lower_bounds, u, horizon) for u in ucgens]
    counts = [_count_sequences(u, f) for u, f in zip(ucgens, floors)]
    if 0 in counts:
        raise UcInfeasibleError(0)
    if math.prod(counts) > ENUMERATION_CAP:
        raise UcEnumerationLimitError(
            f"commitment search space exceeds {ENUMERATION_CAP} candidates"
        )
    seq_options = [_sequences(u, f) for u, f in zip(ucgens, floors)]

    # per-hour dispatch cache keyed by the committed unit set
    cache: dict[tuple[int, frozenset[str]], DispatchResult] = {}

    def hour_result(t: int, on_ids: frozenset[str]) -> DispatchResult:
        key = (t, on_ids)
        if key not in cache:
            committed = {s.id: (s.id in on_ids) for s in specs}
            cache[key] = clear(net, specs, regime, loads=hourly_loads[t],
                               committed=committed, synchronous=sync)
        return cache[key]

    best_combo = _search(ucgens, seq_options, horizon, hour_result)
    return _assemble_schedule(net, ucgens, hourly_loads, regime, sync, best_combo, hour_result)


def _search(ucgens, seq_options, horizon, hour_result) -> tuple[tuple[int, ...], ...]:
    """The first cheapest candidate of ``itertools.product(*seq_options)``:
    the first feasible one, then each later one that beats the current best
    by more than 1e-9.  Candidates are evaluated as arrays, ``_BLOCK`` at a
    time in product order; each hour's distinct on-sets are dispatched once
    per block, in key order, and a candidate infeasible at an hour is dropped
    there."""
    ids = [u.spec.id for u in ucgens]
    sizes = [len(opts) for opts in seq_options]
    strides = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]
    on = [np.array(opts, dtype=bool).reshape(len(opts), horizon) for opts in seq_options]
    terms = [np.array([u.spec.nlc * sum(seq) + u.spec.suc * _start_count(u, seq) for seq in opts],
                      dtype=float)
             for u, opts in zip(ucgens, seq_options)]
    # per hour: units on in every option, and a key bit for each unit whose
    # options differ there (at most log2(ENUMERATION_CAP) of them)
    always_on, varying = [], []
    for t in range(horizon):
        always_on.append([ids[k] for k in range(len(ids)) if on[k][:, t].all()])
        mixed = [k for k in range(len(ids)) if on[k][:, t].any() and not on[k][:, t].all()]
        varying.append([(k, 1 << b, on[k][:, t].astype(np.int64) << b) for b, k in enumerate(mixed)])

    best_obj = best_pos = None
    first_bad_hour = horizon
    total = math.prod(sizes)
    for start in range(0, total, _BLOCK):
        pos = np.arange(start, min(start + _BLOCK, total))
        idx = np.array([pos // st % n for st, n in zip(strides, sizes)],
                       dtype=np.int64).reshape(len(sizes), len(pos))
        obj = np.zeros(len(pos))
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan silently, as Python floats
            for k, term in enumerate(terms):
                obj += term[idx[k]]
        for t in range(horizon):
            key = np.zeros(len(pos), dtype=np.int64)
            for k, _, col in varying[t]:
                key |= col[idx[k]]
            # distinct keys from a presence table (at most ENUMERATION_CAP
            # bytes), not a sort: np.unique's sort code alone added ~0.7 MB
            # to peak RSS (numpy 2.4, x86-64)
            present = np.zeros(1 << len(varying[t]), dtype=bool)
            present[key] = True
            uniq = np.flatnonzero(present)
            inverse = np.searchsorted(uniq, key)
            ok = np.empty(len(uniq), dtype=bool)
            val = np.empty(len(uniq))
            for j, bits in enumerate(uniq.tolist()):
                res = hour_result(t, frozenset(always_on[t] + [
                    ids[k] for k, mask, _ in varying[t] if mask & bits]))
                ok[j] = not any(v.startswith("lp_") for v in res.violations)
                val[j] = res.objective_value
            keep = ok[inverse]
            if not keep.all():
                first_bad_hour = min(first_bad_hour, t)
            pos, idx = pos[keep], idx[:, keep]
            with np.errstate(over="ignore", invalid="ignore"):
                obj = obj[keep] + val[inverse[keep]]
            if not len(pos):
                break
        i = 0
        if best_obj is None and len(pos):
            best_obj, best_pos, i = float(obj[0]), int(pos[0]), 1
        while i < len(pos):
            beats = obj[i:] < best_obj - 1e-9
            j = i + int(beats.argmax())
            if not beats[j - i]:
                break
            best_obj, best_pos, i = float(obj[j]), int(pos[j]), j + 1

    if best_pos is None:
        raise UcInfeasibleError(first_bad_hour)
    return tuple(opts[best_pos // st % n] for opts, st, n in zip(seq_options, strides, sizes))


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
        total_cost=cost + start_cost,
        objective=cost + start_cost,
        feasible=result.feasible,
    )


# ---------------------------------------------------------------------------
# sequential day-ahead / reliability passes
# ---------------------------------------------------------------------------

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
    dauc_lines = {l.id for l in regime_dauc.monitored_lines(net)}
    ruc_lines = {l.id for l in regime_ruc.monitored_lines(net)}
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
