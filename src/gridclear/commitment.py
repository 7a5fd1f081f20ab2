"""Multi-hour unit commitment with start-up and no-load costs.

Commitment is solved by exhaustive search over the product of per-unit on/off
sequences pruned by minimum up/down feasibility.  The sequences are counted
before any is listed, and a search over more than ~2^20 candidates reports an
explicit error.  Each pass then builds one clearing template
(``dispatch.build_template``) and each hour's ``dispatch.bus_loads`` once,
and solves one LP per distinct (hour, committed set), cut from that template
and memoized across candidates; the search reads only each LP's status and
objective.  Only the hours of the chosen schedule
are finished into ``DispatchResult``s, so an error that finishing raises (a
flow evaluation at huge loads, a tie projection's LP) surfaces only for those
hours.

Candidates are evaluated as arrays, in fixed-size blocks of
``itertools.product`` order: commitment costs are summed per candidate in unit
order, then hour costs in hour order, so every objective is the float the
one-at-a-time scan computes.  The choice is the scan's: the first feasible
candidate, replaced by each later one whose objective is below the current
best minus 1e-9.  Identical inputs yield identical schedules across runs.

A block's candidates are bounded below by one Lagrangian bound: commitment
costs plus, per hour, the on-set's greatest value over the hour's price rows
(``_price_terms``).  Each hour starts with a row per uniform system price at
its cost breakpoints, whose greatest is the merit-order fill of the LP
without network, reserve and ``min_sync`` rows; each LP solved adds the row
at its own multipliers, which sees the network.  Once a feasible objective
is known (the best so far, else that of the block's least-bound candidate
whose floors fit the load), the block is searched best first
(``_best_first``): each pass drops the candidates with an hour whose LP has
no optimum and those whose bound exceeds the least known objective by more
than ``_PRUNE_MARGIN``, which could never be chosen (``_search``), then
solves the unsolved hours of the live candidate of least bound.  Each LP
solved tightens the bounds, and each candidate solved in full at a lower
objective lowers the cutoff; the scan then runs over the candidates left.  A
block with no known feasible objective solves every candidate hour by hour,
dropping it at its first hour without an optimum.  Candidates the bound
drops are not solved, so an ``LpNumericalError`` only their LPs would raise
no longer surfaces.

Two sequential passes with divergent constraint sets model the split between
market scheduling (day-ahead commitment, narrower line set) and system
operation (reliability commitment, broader line set, higher reserve): the
reliability pass inherits the day-ahead commitments as lower bounds and may
only add units.  ``run_dauc_ruc`` returns both schedules and the redispatch:
a plain dict of each unit's per-hour dispatch difference between the two
passes, in unit order, which ``settlement.settle_redispatch`` sums into
constrained-on and constrained-off energy and payments, per unit and per zone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from gridclear.dispatch import (
    ClearingCase, ClearingTemplate, ConstraintRegime, DispatchResult, GeneratorSpec,
    build_template, bus_loads, check_flags, finish, location,
)
from gridclear import lp as lpmod
from gridclear.grid import MW_TOL, Network

ENUMERATION_CAP = 1 << 20
_BLOCK = 1 << 12  # candidates evaluated together; bounds the search's working memory
_PRUNE_MARGIN = 1e-5  # relative and absolute; exceeds (_BLOCK + 2) * 1e-9, see _search


class UcEnumerationLimitError(RuntimeError):
    """Raised when the commitment search space exceeds the enumeration cap."""


class UcInfeasibleError(RuntimeError):
    """Raised when no commitment serves the horizon; carries the earliest hour
    at which any candidate fails."""

    def __init__(self, hour: int):
        self.hour = hour
        super().__init__(f"no feasible commitment; first violating hour: {hour}")


@dataclass(frozen=True)
class UcSchedule:
    """What the commitment search decided: each unit's on/off flag per hour
    in ``committed`` (in unit order), and each hour's ``DispatchResult`` in
    ``hourly_results`` (hour t's output of unit u is
    ``hourly_results[t].gen_mw[u]``).  A unit's run lengths and starts are
    ``runs(unit, committed[unit.id])``."""

    committed: dict[str, tuple[bool, ...]]
    hourly_results: tuple[DispatchResult, ...]
    total_cost: float  # incremental, no-load and start-up costs
    objective: float  # total_cost plus curtailment penalties
    pruned: int = 0  # candidates the search's lower bound dropped


# ---------------------------------------------------------------------------
# feasibility of per-unit on/off sequences
# ---------------------------------------------------------------------------

def _next_state(unit: GeneratorSpec, state: tuple[bool, int], s: int) -> tuple[bool, int] | None:
    """The (on, hours in that state) after one more hour at ``s``, or None if
    the unit's minimum up/down time forbids the change.  Hours beyond the
    minimum change nothing, so the count stops there and the states stay few."""
    on, dur = state
    least = unit.min_up_h if on else unit.min_down_h
    if bool(s) == on:
        return on, min(dur + 1, least)
    if dur < least:
        return None
    return bool(s), 1


def _count_sequences(unit: GeneratorSpec, floor: Sequence[int]) -> int:
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


def _sequences(unit: GeneratorSpec, floor: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The feasible sequences at or above ``floor``, in ``itertools.product``
    order: extending every prefix by 0, then 1, keeps that order."""
    level = [((), (unit.initially_on, unit.initial_hours))]
    for f in floor:
        level = [(seq + (s,), st) for seq, state in level for s in (0, 1)
                 if s >= f and (st := _next_state(unit, state, s)) is not None]
    return tuple(seq for seq, _ in level)


def feasible_sequences(unit: GeneratorSpec, horizon: int) -> tuple[tuple[int, ...], ...]:
    """All on/off sequences respecting the unit's initial state and minimum
    up/down times, in ``itertools.product`` order.  Runs truncated by the end
    of the horizon are allowed."""
    return _sequences(unit, (0,) * horizon)


def runs(unit: GeneratorSpec, flags: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The unit's consecutive online hours at each hour of its on/off
    ``flags`` (0 when off) and its number of starts, walked from its initial
    state: the one walk of a unit's flags."""
    on, run = unit.initially_on, unit.initial_hours if unit.initially_on else 0
    hours_on, starts = [], 0
    for s in flags:
        starts += bool(s) and not on
        on = bool(s)
        run = run + 1 if on else 0
        hours_on.append(run)
    return tuple(hours_on), starts


# ---------------------------------------------------------------------------
# commitment search
# ---------------------------------------------------------------------------

def _floor(lower_bounds: Mapping[str, Sequence[int]] | None, unit: GeneratorSpec,
           horizon: int) -> tuple[int, ...]:
    """The unit's lower-bound sequence over the horizon; hours it leaves out
    are unbounded."""
    floor = tuple(lower_bounds.get(unit.id, ())) if lower_bounds else ()
    return floor + (0,) * (horizon - len(floor))


def solve_uc(
    net: Network,
    gens: Sequence[GeneratorSpec],
    hours: Sequence[Mapping[str, float] | None],
    regime: ConstraintRegime,
    *,
    lower_bounds: Mapping[str, Sequence[int]] | None = None,
) -> UcSchedule:
    """Minimum-cost commitment and dispatch of ``gens`` over the horizon:
    one hour per entry of ``hours``, each its bus loads (``None`` keeps the
    network's own), as ``clear`` takes them.

    Each unit's ``min_up_h``, ``min_down_h``, ``initially_on`` and
    ``initial_hours`` bound its on/off sequences; its costs and
    ``synchronous`` flag enter each hour's LP as they enter ``clear``'s.

    ``lower_bounds`` restricts the search to sequences that keep each listed
    unit on wherever the bound sequence is on (used by the reliability pass);
    a sequence shorter than the horizon leaves the hours after it unbounded.
    A key of an hour's loads or of ``lower_bounds`` that names no bus or unit,
    a load that is NaN, negative or beyond ``grid.MAGNITUDE``, and a bound
    sequence longer than the horizon or with a flag other than 0, 1,
    ``False`` or ``True`` raise ``ValueError`` before any LP is solved.
    """
    load = [bus_loads(net, loads, f"hours[{t}]") for t, loads in enumerate(hours)]
    horizon = len(load)
    if not horizon:
        raise ValueError("horizon must be >= 1 hour")
    check_flags("lower_bounds", lower_bounds or {}, {u.id for u in gens}, horizon)

    floors = [_floor(lower_bounds, u, horizon) for u in gens]
    counts = [_count_sequences(u, f) for u, f in zip(gens, floors)]
    if 0 in counts:
        raise UcInfeasibleError(0)
    if math.prod(counts) > ENUMERATION_CAP:
        raise UcEnumerationLimitError(
            f"commitment search space exceeds {ENUMERATION_CAP} candidates"
        )
    seq_options = [_sequences(u, f) for u, f in zip(gens, floors)]
    template = build_template(net, gens, regime)

    # each (hour, committed set) solved once; finished only if chosen
    cache: dict[tuple[int, frozenset[str]], tuple[ClearingCase, lpmod.LpSolution]] = {}
    uniform_rows, lp_rows = _price_terms(template)
    rows = [uniform_rows(bus_load) for bus_load in load]  # per hour: the rows bounding its LPs

    def hour_lp(t: int, on_ids: frozenset[str]) -> lpmod.LpSolution:
        key = (t, on_ids)
        if key not in cache:
            case, sol = cache[key] = _solve_hour(template, load[t], on_ids)
            rows[t] = np.vstack((rows[t], lp_rows(case, sol)))
        return cache[key][1]

    best_combo, pruned = _search(gens, seq_options, horizon, hour_lp, rows,
                                 [bus_load.sum() for bus_load in load])
    return _assemble_schedule(gens, horizon, best_combo,
                              lambda t, on_ids: finish(*cache[t, on_ids]), pruned)


def _solve_hour(template: ClearingTemplate, load: np.ndarray,
                on_ids: frozenset[str]) -> tuple[ClearingCase, lpmod.LpSolution]:
    """One candidate hour: the LP cut at its loads for the units in ``on_ids``, solved."""
    case = template.cut(load, {g.id: g.id in on_ids for g in template.gens})
    return case, lpmod.solve(case.lp)


def _price_terms(template: ClearingTemplate):
    """The pricers ``uniform_rows(load)`` (an hour's ``bus_loads``) and
    ``lp_rows(case, sol)`` of LPs cut from ``template``: rows (K, h_1,
    ..., h_n) over ``template.gens`` such that K + sum(h_u, u in S) is at
    most the objective of the LP of the same loads with the units S on.

    Each row is the Lagrangian bound with the angles eliminated through
    ``net.ptdf``: the injections meeting every balance are those summing to
    zero, and each flowgate row (``flow+-``, ``iface+-``) is its PTDF row
    times them: the signed sum of its members' rows, as ``template.gates``
    lists them in row order.  The multipliers are lambda, the slack bus's
    balance dual, mu = min(dual, 0) for each flowgate row, and 0 for the
    reserve and ``min_sync`` rows.  Each column is then alone in its box at
    its bus's price pi_b = lambda + sum_l PTDF[l, b] (mu+_l - mu-_l):
    K = sum_b pi_b load_b + sum_l (mu+_l + mu-_l) limit_l
    + sum_b min(0, (wtp_b - pi_b) load_b) and h_u = min((ic_u - pi) lo_u,
    (ic_u - pi) hi_u).  By weak duality that holds for any lambda and mu <= 0, so for every on-set;
    at the solved LP's optimum, with no reserve or ``min_sync`` row, it is
    that LP's objective.  ``zonal`` prices by zone, each inter-zonal flow of
    ``template.arcs`` boxed by +-``ttc_mw`` (unboxed if its limit is
    ``None``, so the bound is -inf unless the two zones' prices agree), and
    ``copper_plate`` at the system price; the rows are read from the
    template's record, never from the regime.  ``lp_rows`` gives the row at
    a solved LP's multipliers, none if it has no optimum or K is -inf;
    ``uniform_rows`` a row at each system price lambda in the sorted
    distinct set of the units' ``ic`` and the loaded buses' ``wtp``, with
    mu = 0, where the flow columns cancel in every mode.  These are the
    breakpoints of a concave function of lambda, so the greatest is the
    merit-order fill of the LP with one balance, if the units' floors fit
    the load.  Every figure is within ``grid.MAGNITUDE`` and every dual
    finite, so each row is."""
    net, mode, balance, n = template.net, template.regime.mode, template.balance, len(template.gens)
    ic, lo, hi = template.lp.cost[:n], template.lp.lower[:n], template.lp.upper[:n]
    wtp = template.lp.cost[n:n + len(net.buses)]  # each bus's curtailment cost
    at = [net.bus_index[g.bus_id] for g in template.gens]
    line_row = dict(zip((l.id for l in net.lines), net.ptdf)) if template.gates else {}
    gates = np.array([sum(sign * line_row[lid] for lid, sign in members)  # in row order
                      for members in template.gates]).reshape(len(template.gates), len(net.buses))
    limits = slice(len(balance), len(balance) + 2 * len(gates))

    def rows(pi: np.ndarray, load: np.ndarray, k: float = 0.0) -> np.ndarray:
        """The row at each row of bus prices ``pi``, K raised by ``k``."""
        margin = ic - pi[:, at]
        k = k + (pi @ load + np.minimum((wtp - pi) * load, 0.0).sum(axis=1))
        return np.column_stack((k, np.minimum(margin * lo, margin * hi)))

    def uniform_rows(load: np.ndarray) -> np.ndarray:
        lam = np.array(sorted({*ic.tolist(), *wtp[load > 0].tolist()}))
        return rows(np.repeat(lam[:, None], len(load), axis=1), load)

    def lp_rows(case: ClearingCase, sol: lpmod.LpSolution) -> np.ndarray:
        none = np.empty((0, n + 1))
        if sol.status != "optimal":
            return none
        y = np.asarray(sol.duals)
        if mode == "nodal":
            mu = np.minimum(y[limits], 0.0)  # (mu+, mu-) of each pair in turn
            pi = y[balance[net.slack_bus]] + (mu[0::2] - mu[1::2]) @ gates
            k = mu @ case.lp.rhs[limits]
        else:
            pi = np.array([y[balance[location(net, mode, b.id)]] for b in net.buses])
            k = 0.0
            for fz, tz, ttc in template.arcs:
                if gap := abs(y[balance[fz]] - y[balance[tz]]):
                    if ttc is None:
                        return none  # a free flow between two prices: K would be -inf
                    k -= gap * ttc
        return rows(pi[None], case.load, k)

    return uniform_rows, lp_rows


def _search(gens, seq_options, horizon, hour_lp, rows,
            demand) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The first cheapest candidate of ``itertools.product(*seq_options)``: the
    first feasible one, then each later one that beats the current best by
    more than 1e-9.  Candidates are evaluated as arrays, ``_BLOCK`` at a
    time in product order; each hour's distinct on-sets are keyed once per
    block and each is solved at most once, and a candidate whose LP at an
    hour has no optimum is dropped there.

    Each candidate is bounded below by its commitment terms plus, per hour,
    the on-set's greatest value over the hour's rows ``rows[t]`` (K, h): the
    uniform-price rows, then a row per optimal LP solved that hour, which
    ``hour_lp`` appends (``_price_terms``).  A feasible objective ``least``
    is the best so far, else that of the block's least-bound candidate whose
    units' floors fit each hour's total load ``demand[t]``, solved hour by
    hour.  ``_best_first`` then lowers ``least`` to each lesser objective it
    solves in full, and drops unsolved each candidate whose bound exceeds
    the current ``least`` by more than ``_PRUNE_MARGIN * (1 + |least|)``;
    how many it dropped is returned with the choice.  A row holds for any
    balance dual and flowgate multipliers <= 0, so whichever LPs were
    solved: the angles are eliminated through ``net.ptdf`` and the reserve
    and ``min_sync`` multipliers set to 0.  ``least`` is always a feasible
    candidate's objective, so it never falls below the least objective of
    the candidates so far.  It only falls, bounds only rise, and the cutoff
    ``l + _PRUNE_MARGIN * (1 + |l|)`` rises with ``l``: a candidate dropped
    against any of the block's cutoffs has its bound above the last one, and
    every feasible candidate within the last is solved in full and scanned.
    So the block is pruned as if once, against its final ``least``.  The
    relative part of the margin covers float error between bound and LP.
    Once the scan has seen a near-minimal candidate a dropped one can never
    beat the best by 1e-9; taken as best before that, it could change which
    later ones do only along a chain of candidates each within 1e-9 of the
    last, and the absolute part, over ``(_BLOCK + 2) * 1e-9``, outlasts any
    chain in a block.  So the choice is the scan's, from a subset of its
    LPs."""
    ids = [u.id for u in gens]
    floors = np.array([u.effective_bounds()[0] for u in gens])
    sizes = [len(opts) for opts in seq_options]
    strides = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]
    on = [np.array(opts, dtype=bool).reshape(len(opts), horizon) for opts in seq_options]
    terms = [np.array([u.nlc * sum(seq) + u.suc * runs(u, seq)[1] for seq in opts], dtype=float)
             for u, opts in zip(gens, seq_options)]
    # per hour: units on in every option, and a key bit for each unit whose
    # options differ there (at most log2(ENUMERATION_CAP) of them)
    always_on, varying = [], []
    for t in range(horizon):
        always_on.append([ids[k] for k in range(len(ids)) if on[k][:, t].all()])
        mixed = [k for k in range(len(ids)) if on[k][:, t].any() and not on[k][:, t].all()]
        varying.append([(k, 1 << b, on[k][:, t].astype(np.int64) << b) for b, k in enumerate(mixed)])

    best_obj = best_pos = None
    first_bad_hour = horizon
    pruned = 0
    total = math.prod(sizes)
    for start in range(0, total, _BLOCK):
        pos = np.arange(start, min(start + _BLOCK, total))
        idx = np.array([pos // st % n for st, n in zip(strides, sizes)],
                       dtype=np.int64).reshape(len(sizes), len(pos))
        obj = np.zeros(len(pos))
        for k, term in enumerate(terms):
            obj += term[idx[k]]
        # per hour: its distinct on-sets, each candidate's, and each on-set's units
        on_sets, inverses, members = [], [], []
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
            inverses.append(np.searchsorted(uniq, key))
            on_sets.append([frozenset(always_on[t] + [ids[k] for k, mask, _ in varying[t] if mask & bits])
                            for bits in uniq.tolist()])
            members.append(np.array([[u in s for u in ids] for s in on_sets[t]], dtype=float))

        least = best_obj
        if least is None:  # the block's fitting candidate of least bound, solved hour by hour
            fits = np.ones(len(pos), dtype=bool)
            for m, inverse, d in zip(members, inverses, demand):
                fits &= (m @ floors <= d)[inverse]
            z = int(np.where(fits, _bound(obj, rows, members, inverses), math.inf).argmin())
            least = float(min(_survivors(hour_lp, on_sets, inverses, np.array([z]), obj[[z]])[1],
                              default=math.inf))
        if least < math.inf:
            alive, obj, dropped = _best_first(hour_lp, rows, on_sets, members, inverses, obj, least)
            pruned += dropped
        else:  # nothing to prune against: solve every candidate, finding its first bad hour
            alive, obj, bad = _survivors(hour_lp, on_sets, inverses, np.arange(len(pos)), obj)
            first_bad_hour = min(first_bad_hour, bad)
        pos = pos[alive]
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
    return tuple(opts[best_pos // st % n] for opts, st, n in zip(seq_options, strides, sizes)), pruned


def _bound(obj, rows, members, inverses):
    """Each candidate's commitment terms ``obj`` plus, per hour, its
    on-set's greatest value over that hour's rows (K, h)."""
    bound = obj.copy()
    for r, m, inverse in zip(rows, members, inverses):
        bound += (r[:, :1] + r[:, 1:] @ m.T).max(axis=0, initial=-math.inf)[inverse]
    return bound


def _best_first(hour_lp, rows, on_sets, members, inverses, obj, least):
    """The candidates that may be chosen against the feasible objective
    ``least``, their objectives ``obj`` plus each hour's, and how many the
    bound dropped.  Each pass drops every live candidate whose on-set has no
    optimum at some hour, then every one whose bound exceeds the cutoff, and
    solves in hour order the unsolved hours of the live candidate of least
    bound, up to its first hour without an optimum; a candidate solved in
    full lowers ``least`` to its objective if that is less.  Passes end when
    every live candidate is solved in full."""
    known = [np.zeros(len(sets), dtype=bool) for sets in on_sets]
    ok = [np.ones(len(sets), dtype=bool) for sets in on_sets]
    val = [np.zeros(len(sets)) for sets in on_sets]
    alive, pruned = np.arange(len(obj)), 0
    while True:
        at = [inverse[alive] for inverse in inverses]
        feasible = np.logical_and.reduce([o[i] for o, i in zip(ok, at)])
        bound = _bound(obj[alive], rows, members, at)
        keep = bound <= least + _PRUNE_MARGIN * (1 + abs(least))
        pruned += int((feasible & ~keep).sum())
        keep &= feasible
        alive, bound = alive[keep], bound[keep]
        open_ = ~np.logical_and.reduce([k[i[keep]] for k, i in zip(known, at)])
        if not open_.any():
            break
        c = int(alive[open_][bound[open_].argmin()])
        total = obj[c]
        for t, inverse in enumerate(inverses):
            j = inverse[c]
            if not known[t][j]:
                sol = hour_lp(t, on_sets[t][j])
                known[t][j], ok[t][j], val[t][j] = True, sol.status == "optimal", sol.objective_value
            if not ok[t][j]:
                break
            total += val[t][j]
        else:
            least = min(least, float(total))
    obj = obj[alive]
    for v, inverse in zip(val, inverses):
        obj = obj + v[inverse[alive]]
    return alive, obj, pruned


def _survivors(hour_lp, on_sets, inverses, alive, obj):
    """The candidates ``alive`` whose LP has an optimum every hour, their
    objectives ``obj`` plus each hour's, and the first hour one is dropped
    at; hour ``t``'s on-sets ``on_sets[t]`` are solved once, in key order."""
    bad = len(on_sets)
    for t, (sets, inverse) in enumerate(zip(on_sets, inverses)):
        inverse = inverse[alive]
        need = np.zeros(len(sets), dtype=bool)
        need[inverse] = True
        ok, val = np.zeros(len(sets), dtype=bool), np.zeros(len(sets))
        for j in np.flatnonzero(need).tolist():
            sol = hour_lp(t, sets[j])
            ok[j], val[j] = sol.status == "optimal", sol.objective_value
        keep = ok[inverse]
        if not keep.all():
            bad = min(bad, t)
        alive, obj = alive[keep], obj[keep] + val[inverse[keep]]
        if not len(alive):
            break
    return alive, obj, bad


def _assemble_schedule(gens, horizon, combo, hour_result, pruned=0) -> UcSchedule:
    results = []
    for t in range(horizon):
        on_ids = frozenset(u.id for u, seq in zip(gens, combo) if seq[t])
        results.append(hour_result(t, on_ids))

    committed = {u.id: tuple(bool(s) for s in seq) for u, seq in zip(gens, combo)}
    hourly_cost = []
    for t, result in enumerate(results):
        c = sum(u.ic * result.gen_mw[u.id] for u in gens)
        c += sum(u.nlc for u in gens if committed[u.id][t])
        hourly_cost.append(c)
    start_cost = sum(u.suc * runs(u, seq)[1] for u, seq in zip(gens, combo))
    total_cost = sum(hourly_cost) + start_cost
    curtail_penalty = sum(r.objective_value - r.total_cost for r in results)
    return UcSchedule(committed, tuple(results), total_cost, total_cost + curtail_penalty, pruned)


def single_interval_schedule(result: DispatchResult, gens: Sequence[GeneratorSpec]) -> UcSchedule:
    """Wrap a one-shot dispatch result as a single-hour schedule, committing
    each unit that produces, so the pricing operations can consume it
    uniformly."""
    combo = tuple((int(result.gen_mw[u.id] > MW_TOL),) for u in gens)
    return _assemble_schedule(gens, 1, combo, lambda t, on_ids: result)


# ---------------------------------------------------------------------------
# sequential day-ahead / reliability passes
# ---------------------------------------------------------------------------

def run_dauc_ruc(
    net: Network,
    gens: Sequence[GeneratorSpec],
    hours: Sequence[Mapping[str, float] | None],
    regime_dauc: ConstraintRegime,
    regime_ruc: ConstraintRegime,
) -> tuple[UcSchedule, UcSchedule, dict[str, tuple[float, ...]]]:
    """Run the day-ahead pass, then the reliability pass under its broader
    constraint set with the day-ahead commitments as lower bounds.  Returns
    both schedules and the redispatch: each unit's reliability minus
    day-ahead output (MW) per hour, in unit order."""
    dauc_lines = {l.id for l in regime_dauc.monitored_lines(net)}
    ruc_lines = {l.id for l in regime_ruc.monitored_lines(net)}
    if not dauc_lines.issubset(ruc_lines):
        raise ValueError(
            "reliability pass must monitor a superset of the day-ahead line set; "
            f"extra day-ahead lines: {sorted(dauc_lines - ruc_lines)}"
        )
    if regime_ruc.reserve_req_mw < regime_dauc.reserve_req_mw:
        raise ValueError("reliability reserve requirement must be >= day-ahead requirement")

    dauc = solve_uc(net, gens, hours, regime_dauc)
    ruc = solve_uc(net, gens, hours, regime_ruc, lower_bounds=dauc.committed)
    delta = {
        gid: tuple(r.gen_mw[gid] - d.gen_mw[gid] for r, d in zip(ruc.hourly_results, dauc.hourly_results))
        for gid in dauc.committed
    }
    return dauc, ruc, delta
