import itertools
import math
import random
import re
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gridclear import commitment, dispatch
from gridclear import lp as lpmod
from gridclear.commitment import (
    UcEnumerationLimitError,
    UcInfeasibleError,
    feasible_sequences,
    run_dauc_ruc,
    single_interval_schedule,
    solve_uc,
)
from gridclear.dispatch import ConstraintRegime, GeneratorSpec, clear
from gridclear.grid import Bus, Interface, Line, Network
from gridclear.scenario import load_scenario
from gridclear.settlement import settle_redispatch
import helpers
from helpers import (
    price_bound_failures,
    random_networked_uc_instance,
    random_tie_uc_instance,
    random_uc_instance,
    reference_solve_uc,
    uc_enumeration_oracle,
    uc_net,
)

COPPER = ConstraintRegime(mode="copper_plate")


def _unit(gid, p_max, ic, nlc=0.0, suc=0.0, p_min=0.0, on=False, min_up=1, min_down=1,
          initial_hours=24):
    return GeneratorSpec(
        gid, "n0", p_min, p_max, ic, nlc, suc,
        min_up_h=min_up, min_down_h=min_down,
        initially_on=on, initial_hours=initial_hours,
    )


# ---------------------------------------------------------------------------
# sequence feasibility
# ---------------------------------------------------------------------------

def _is_feasible(unit, seq):
    """Whether ``seq`` is among the unit's sequences at no floor."""
    return seq in commitment._sequences(unit, (0,) * len(seq))


def test_min_up_blocks_early_shutdown():
    u = _unit("u", 100, 10, min_up=3, on=True, initial_hours=1)
    assert not _is_feasible(u, (1, 0, 0))  # off after 2 total on-hours
    assert _is_feasible(u, (1, 1, 0))  # 3 on-hours completed
    assert _is_feasible(u, (1, 1, 1))


def test_min_down_blocks_early_restart():
    u = _unit("u", 100, 10, min_down=2, on=False, initial_hours=1)
    assert not _is_feasible(u, (1, 0, 1))  # initial off-run incomplete
    assert _is_feasible(u, (0, 1, 1))  # down time completed first
    rested = _unit("u", 100, 10, min_down=2, on=False, initial_hours=2)
    assert not _is_feasible(rested, (1, 0, 1))  # mid-run off too short
    assert _is_feasible(rested, (1, 1, 0))  # truncated trailing off-run allowed


def test_feasible_sequences_counts():
    free = _unit("u", 100, 10)
    assert len(feasible_sequences(free, 3)) == 8
    sticky = _unit("u", 100, 10, min_up=2, min_down=2)
    assert commitment._count_sequences(sticky, (0, 0, 0)) == len(feasible_sequences(sticky, 3))
    assert (1, 0, 1) not in feasible_sequences(sticky, 3)


@settings(max_examples=100, deadline=None)
@given(min_up=st.integers(1, 4), min_down=st.integers(1, 4), on=st.booleans(),
       initial_hours=st.integers(0, 5), horizon=st.integers(1, 8),
       floor_bits=st.integers(0, 255))
def test_sequences_and_counts_match_the_filtered_product(min_up, min_down, on, initial_hours,
                                                         horizon, floor_bits):
    u = _unit("u", 100, 10, on=on, min_up=min_up, min_down=min_down,
              initial_hours=initial_hours)
    product = [s for s in itertools.product((0, 1), repeat=horizon)
               if helpers._matrix_is_feasible([u], [s], horizon)]
    assert feasible_sequences(u, horizon) == tuple(product)
    floor = tuple(floor_bits >> t & 1 for t in range(horizon))
    above = tuple(s for s in product if all(a >= b for a, b in zip(s, floor)))
    assert commitment._sequences(u, floor) == above
    assert commitment._count_sequences(u, floor) == len(above)


def _unclipped_count(unit, floor):
    """The sequence count with each state's duration kept in full."""
    counts = {(unit.initially_on, unit.initial_hours): 1}
    for f in floor:
        nxt = Counter()
        for (on, dur), n in counts.items():
            for s in (0, 1):
                if s < f:
                    continue
                if bool(s) == on:
                    nxt[on, dur + 1] += n
                elif dur >= (unit.min_up_h if on else unit.min_down_h):
                    nxt[bool(s), 1] += n
        counts = nxt
    return sum(counts.values())


@settings(max_examples=100, deadline=None)
@given(min_up=st.integers(1, 6), min_down=st.integers(1, 6), on=st.booleans(),
       initial_hours=st.integers(0, 8), horizon=st.integers(1, 24),
       floor_bits=st.integers(0, 2**24 - 1))
def test_clipped_counts_equal_the_unclipped_ones(min_up, min_down, on, initial_hours,
                                                horizon, floor_bits):
    u = _unit("u", 100, 10, on=on, min_up=min_up, min_down=min_down,
              initial_hours=initial_hours)
    floor = tuple(floor_bits >> t & 1 for t in range(horizon))
    assert commitment._count_sequences(u, floor) == _unclipped_count(u, floor)


@pytest.mark.parametrize("on, initial_hours", [(False, 24), (True, 0), (True, 3)])
def test_one_walk_gives_hours_on_and_starts(on, initial_hours):
    """Each hour's run counts on from the initial run when the unit was on
    (from 0 if it was on for 0 hours, which is still no start), and a start
    is each off-to-on change, the first hour's against the initial state."""
    u = _unit("u", 50, 10.0, on=on, initial_hours=initial_hours)
    for seq in itertools.product((0, 1), repeat=4):
        run, want = (initial_hours if on else 0), []
        for s in seq:
            run = run + 1 if s else 0
            want.append(run)
        starts = sum(b and not a for a, b in zip((on,) + seq, seq))
        assert commitment.runs(u, seq) == (tuple(want), starts), seq


# ---------------------------------------------------------------------------
# solve_uc basics
# ---------------------------------------------------------------------------

def test_always_on_unit_flat_load():
    units = [_unit("u", 100, 12.0, nlc=30.0, on=True)]
    net = uc_net(units)
    sched = solve_uc(net, units, [{"n0": 80.0}] * 4, COPPER)
    assert sched.committed["u"] == (True,) * 4
    assert [r.gen_mw["u"] for r in sched.hourly_results] == pytest.approx([80.0] * 4)
    assert sched.total_cost == pytest.approx(4 * (12.0 * 80.0 + 30.0))
    hours_on, starts = commitment.runs(units[0], sched.committed["u"])
    assert starts == 0
    assert hours_on == (25, 26, 27, 28)  # continues the initial run


def test_single_interval_schedule_commits_units_that_produce():
    units = [
        _unit("base", 100, 10.0, on=True, initial_hours=5),
        _unit("peaker", 50, 30.0, nlc=20.0, suc=50.0),
        _unit("idle", 50, 90.0, nlc=5.0, suc=40.0),
    ]
    net = uc_net(units)
    result = clear(net, units, COPPER, loads={"n0": 120.0})
    sched = single_interval_schedule(result, units)
    assert tuple(sched.committed) == ("base", "peaker", "idle")
    assert len(sched.hourly_results) == 1
    assert sched.hourly_results == (result,)
    assert sched.committed == {"base": (True,), "peaker": (True,), "idle": (False,)}
    assert result.gen_mw == {"base": 100.0, "peaker": 20.0, "idle": 0.0}
    # (hours on, starts) of each unit
    walks = {u.id: commitment.runs(u, sched.committed[u.id]) for u in units}
    assert walks == {"base": ((6,), 0), "peaker": ((1,), 1), "idle": ((0,), 0)}
    # incremental 100*10 + 20*30, the peaker's no-load and its one start
    assert sched.total_cost == pytest.approx(1000.0 + 600.0 + 20.0 + 50.0)
    assert sched.objective == sched.total_cost  # nothing curtailed
    assert all(r.feasible for r in sched.hourly_results)


def test_spike_commitment_matches_oracle():
    units = [
        _unit("base", 80, 10.0, nlc=20.0, suc=50.0, on=True),
        _unit("peaker", 120, 45.0, nlc=40.0, suc=600.0),
    ]
    net = uc_net(units)
    loads = [{"n0": 60.0}, {"n0": 150.0}, {"n0": 60.0}]
    sched = solve_uc(net, units, loads, COPPER)
    oracle = uc_enumeration_oracle(units, [60.0, 150.0, 60.0], wtp=500.0)
    assert sched.objective == pytest.approx(oracle, abs=1e-9)
    assert sched.committed["peaker"] == (False, True, False)


def test_dispatch_positive_implies_committed_and_within_bounds():
    units = [
        _unit("a", 100, 10.0, p_min=20.0, suc=10.0),
        _unit("b", 100, 30.0, p_min=10.0),
    ]
    net = uc_net(units)
    sched = solve_uc(net, units, [{"n0": 50.0}, {"n0": 130.0}], COPPER)
    for gid in sched.committed:
        for t in range(len(sched.hourly_results)):
            q = sched.hourly_results[t].gen_mw[gid]
            if q > 1e-9:
                assert sched.committed[gid][t]
            if sched.committed[gid][t]:
                spec = next(u for u in units if u.id == gid)
                assert spec.p_min - 1e-9 <= q <= spec.p_max + 1e-9


def test_infeasible_horizon_reports_first_bad_hour():
    units = [_unit("u", 100, 10.0, p_min=90.0, on=True, min_up=3, initial_hours=1)]
    net = uc_net(units)
    # hour 1 load below p_min while the unit cannot shut down yet
    with pytest.raises(UcInfeasibleError) as err:
        solve_uc(net, units, [{"n0": 95.0}, {"n0": 10.0}], COPPER)
    assert err.value.hour == 1


def test_infeasible_hour_is_the_earliest_any_candidate_fails():
    # every candidate fails at hour 1 (unit a cannot stop and exceeds the
    # load); those with b on already fail at hour 0
    units = [_unit("a", 100, 10.0, p_min=50.0, on=True, min_up=3, initial_hours=1),
             _unit("b", 100, 20.0, p_min=20.0)]
    net = uc_net(units)
    hours = [{"n0": 60.0}, {"n0": 10.0}]
    for solve in (solve_uc, reference_solve_uc):
        with pytest.raises(UcInfeasibleError) as err:
            solve(net, units, hours, COPPER)
        assert err.value.hour == 0


def test_commitment_costs_at_the_range_bound_choose_like_the_scan():
    # no-load costs at the bound of the range keep every sum finite, so the
    # search chooses as the scan does; a cost past the bound is no unit
    units = [_unit("a", 100, 10.0, nlc=1e9), _unit("b", 100, 10.0, nlc=1e9)]
    net = uc_net(units)
    hours = [{"n0": 150.0}] * 2
    got, want = solve_uc(net, units, hours, COPPER), reference_solve_uc(net, units, hours, COPPER)
    assert repr(got.committed) == repr(want.committed)
    with pytest.raises(ValueError, match=r"generator a: nlc 1e\+308 outside"):
        _unit("a", 100, 10.0, nlc=1e308)


def test_enumeration_cap():
    units = [_unit(f"u{i}", 50, 10.0 + i) for i in range(8)]
    net = uc_net(units)
    with pytest.raises(UcEnumerationLimitError):
        solve_uc(net, units, [{"n0": 100.0}] * 3, COPPER)


def test_enumeration_cap_is_checked_before_listing_sequences():
    # one free unit over 24 hours has 2^24 sequences; the cap must trip on
    # their count, not after listing them
    units = [_unit("u", 50, 10.0)]
    net = uc_net(units)
    t0 = time.perf_counter()
    with pytest.raises(UcEnumerationLimitError):
        solve_uc(net, units, [{"n0": 10.0}] * 24, COPPER)
    assert time.perf_counter() - t0 < 1.0


def test_duplicate_ids_raise_after_the_count_and_cap_checks():
    """The search's own errors come first: past the cap, or with a unit that
    has no feasible sequence, duplicate ids still report those; otherwise
    they are the clearing's ValueError."""
    past_cap = [_unit("u", 50, 10.0 + i) for i in range(8)]
    with pytest.raises(UcEnumerationLimitError):
        solve_uc(uc_net(past_cap), past_cap, [{"n0": 100.0}] * 3, COPPER)
    stuck = [_unit("u", 50, 10.0), _unit("u", 50, 20.0, min_down=3, initial_hours=0)]
    with pytest.raises(UcInfeasibleError) as err:
        solve_uc(uc_net(stuck), stuck, [{"n0": 40.0}] * 2, COPPER,
                 lower_bounds={"u": (1, 1)})
    assert err.value.hour == 0
    twins = [_unit("u", 50, 10.0), _unit("u", 50, 20.0)]
    with pytest.raises(ValueError, match="duplicate generator ids"):
        solve_uc(uc_net(twins), twins, [{"n0": 40.0}] * 2, COPPER)


@pytest.mark.parametrize("hours, lower_bounds, named", [
    ([{"n0": 40.0}, {"N0": 40.0}], None, "hours[1]: unknown bus id(s) ['N0']"),
    ([{"n0": 40.0}] * 2, {"u9": (1, 1)}, "lower_bounds: unknown unit id(s) ['u9']"),
], ids=["hour loads", "lower_bounds"])
def test_unknown_keys_are_rejected_before_any_lp(monkeypatch, hours, lower_bounds, named):
    """A key that names no bus or unit raises once, before the search solves
    an LP; ignored, a mistyped bus id would clear at the network's own load."""
    units = [_unit("u", 50, 10.0)]
    solved = []
    real_solve = lpmod.solve
    monkeypatch.setattr(lpmod, "solve", lambda lp: solved.append(lp) or real_solve(lp))
    with pytest.raises(ValueError, match=re.escape(named)):
        solve_uc(uc_net(units), units, hours, COPPER, lower_bounds=lower_bounds)
    assert solved == []


@pytest.mark.parametrize("bound", [(1, 1, 1, 1, 1), (0.5,), (2,), "x", 1, (None, 1)],
                         ids=["longer-than-horizon", "half", "two", "string", "not-a-sequence", "none"])
def test_bad_lower_bounds_are_rejected_before_any_lp(monkeypatch, bound):
    """A bound sequence longer than the horizon, or with a flag other than 0,
    1, ``False`` or ``True``, raises naming its unit, before the search
    solves an LP: unchecked, the first was cut to the horizon, ``0.5``
    forced the unit on, ``2`` left no sequence and ``"x"`` raised a
    ``TypeError``."""
    units = [_unit("A1", 50, 10.0)]
    solved = []
    real_solve = lpmod.solve
    monkeypatch.setattr(lpmod, "solve", lambda lp: solved.append(lp) or real_solve(lp))
    named = f"lower_bounds: unit A1: {bound!r} is not at most 2 flags of 0 or 1"
    with pytest.raises(ValueError, match=re.escape(named)):
        solve_uc(uc_net(units), units, [{"n0": 40.0}] * 2, COPPER, lower_bounds={"A1": bound})
    assert solved == []


def test_short_and_boolean_lower_bounds_are_accepted():
    """A bound sequence shorter than the horizon leaves the hours after it
    unbounded, and ``False``/``True`` bound as 0 and 1 do."""
    units = [_unit("u", 50, 30.0, nlc=100.0), _unit("v", 50, 20.0)]
    hours = [{"n0": 40.0}] * 3
    free = solve_uc(uc_net(units), units, hours, COPPER)
    assert free.committed["u"] == (False,) * 3
    short = solve_uc(uc_net(units), units, hours, COPPER, lower_bounds={"u": (1,)})
    assert short.committed["u"] == (True, False, False)
    flags = solve_uc(uc_net(units), units, hours, COPPER, lower_bounds={"u": (True, False, True)})
    ints = solve_uc(uc_net(units), units, hours, COPPER, lower_bounds={"u": (1, 0, 1)})
    assert flags.committed == ints.committed and flags.committed["u"] == (True, False, True)
    assert flags.objective == ints.objective


@pytest.mark.parametrize("load, shown", [
    (float("nan"), "nan"), (-5.0, "-5.0"), (2e9, "2000000000.0"),
], ids=["nan", "negative", "beyond-magnitude"])
def test_out_of_range_loads_are_rejected_before_any_lp(monkeypatch, load, shown):
    """A load the ``Bus`` rule would reject raises, naming its hour and bus,
    before the search solves an LP or bounds a candidate: a NaN bound would
    compare false with every objective."""
    units = [_unit("u", 50, 10.0)]
    solved = []
    real_solve = lpmod.solve
    monkeypatch.setattr(lpmod, "solve", lambda lp: solved.append(lp) or real_solve(lp))
    with pytest.raises(ValueError, match=re.escape(f"hours[1]: bus n0 load {shown} outside")):
        solve_uc(uc_net(units), units, [{"n0": 40.0}, {"n0": load}], COPPER)
    assert solved == []


def test_load_at_a_zero_wtp_bus_is_accepted():
    """The load rule leaves out the ``Bus`` rule's wtp clause: a positive
    load at a bus with ``wtp`` 0 clears, curtailed at no cost."""
    units = [_unit("u", 50, 10.0)]
    net = Network((Bus("n0", "Z"),), (), ("Z",), (), "n0")
    sched = solve_uc(net, units, [{"n0": 30.0}], COPPER)
    assert (sched.hourly_results[0].gen_mw["u"], sched.objective) == (0.0, 0.0)


def test_determinism():
    units = [
        _unit("a", 100, 10.0, nlc=5.0, suc=100.0),
        _unit("b", 100, 10.0, nlc=5.0, suc=100.0),  # symmetric twin
    ]
    net = uc_net(units)
    s1 = solve_uc(net, units, [{"n0": 120.0}] * 2, COPPER)
    s2 = solve_uc(net, units, [{"n0": 120.0}] * 2, COPPER)
    assert repr(s1.committed) == repr(s2.committed)
    assert repr([r.gen_mw for r in s1.hourly_results]) == repr([r.gen_mw for r in s2.hourly_results])


# ---------------------------------------------------------------------------
# sequential day-ahead / reliability passes
# ---------------------------------------------------------------------------

def _fivebus():
    return load_scenario("scenarios/fivebus_ruc.scn")


def _redispatch_energy(net, gens, delta, hours):
    """Constrained-on/off energy per unit and per zone; energy does not depend
    on the price series, so the series is zero."""
    return settle_redispatch(delta, net, gens, [0.0] * hours)


def test_dauc_ruc_line_superset_enforced(scenario_dir):
    sc = load_scenario(scenario_dir / "fivebus_ruc.scn")
    with pytest.raises(ValueError, match="superset"):
        run_dauc_ruc(
            sc.network, sc.generators, sc.hourly_loads(),
            sc.regimes["RUC"], sc.regimes["DAUC"],  # reversed on purpose
        )


def test_dauc_ruc_reserve_ordering_enforced(scenario_dir):
    sc = load_scenario(scenario_dir / "fivebus_ruc.scn")
    tighter_dauc = ConstraintRegime(mode="nodal", monitored_profile="DAUC",
                                    enforce_interfaces=True, reserve_req_mw=50.0)
    with pytest.raises(ValueError, match="reserve"):
        run_dauc_ruc(sc.network, sc.generators, sc.hourly_loads(),
                     tighter_dauc, sc.regimes["RUC"])


def test_dauc_ruc_asymmetry_pattern(scenario_dir):
    sc = load_scenario(scenario_dir / "fivebus_ruc.scn")
    dauc, ruc, delta = run_dauc_ruc(
        sc.network, sc.generators, sc.hourly_loads(),
        sc.regimes["DAUC"], sc.regimes["RUC"],
    )
    hours = len(dauc.hourly_results)
    assert list(delta) == list(dauc.committed) == [g.id for g in sc.generators]
    assert ruc.total_cost >= dauc.total_cost - 1e-9
    for t in range(hours):
        assert sum(delta[g][t] for g in delta) == pytest.approx(0.0, abs=1e-6)
    # export zone sheds cheap output, import zone is constrained on
    redis = _redispatch_energy(sc.network, sc.generators, delta, hours)
    assert redis.zone_coff_mwh["ZE"] > redis.zone_con_mwh["ZE"]
    assert redis.zone_con_mwh["ZI"] > 0.0
    assert redis.zone_coff_mwh["ZI"] == 0.0
    # RUC may add commitments but never drop day-ahead ones
    for gid in dauc.committed:
        for t in range(hours):
            assert ruc.committed[gid][t] >= dauc.committed[gid][t]


def test_identical_regimes_zero_redispatch(scenario_dir):
    sc = load_scenario(scenario_dir / "fivebus_ruc.scn")
    dauc, _, delta = run_dauc_ruc(
        sc.network, sc.generators, sc.hourly_loads(),
        sc.regimes["RUC"], sc.regimes["RUC"],
    )
    hours = len(dauc.hourly_results)
    for gid in dauc.committed:
        assert delta[gid] == pytest.approx((0.0,) * hours, abs=1e-9)
    redis = _redispatch_energy(sc.network, sc.generators, delta, hours)
    assert sum(redis.zone_con_mwh.values()) == pytest.approx(0.0, abs=1e-9)


def test_higher_ruc_reserve_commits_extra_unit_at_pmin():
    units = [
        _unit("base", 100, 10.0, on=True),
        _unit("standby", 50, 50.0, nlc=10.0, p_min=10.0),
    ]
    net = uc_net(units)
    dauc_regime = ConstraintRegime(mode="copper_plate", reserve_req_mw=0.0)
    ruc_regime = ConstraintRegime(mode="copper_plate", reserve_req_mw=50.0)
    dauc, ruc, delta = run_dauc_ruc(net, units, [{"n0": 80.0}], dauc_regime, ruc_regime)
    assert dauc.committed["standby"] == (False,)
    assert ruc.committed["standby"] == (True,)
    assert delta["standby"][0] == pytest.approx(10.0)  # its p_min
    assert _redispatch_energy(net, units, delta, 1).con_mwh["standby"] == pytest.approx(10.0)


def test_zone_aggregates_sum_exactly(scenario_dir):
    sc = load_scenario(scenario_dir / "fivebus_ruc.scn")
    dauc, _, delta = run_dauc_ruc(
        sc.network, sc.generators, sc.hourly_loads(),
        sc.regimes["DAUC"], sc.regimes["RUC"],
    )
    redis = _redispatch_energy(sc.network, sc.generators, delta, len(dauc.hourly_results))
    for zone in sc.network.zones:
        gens_in_zone = [g.id for g in sc.generators if sc.network.zone_of(g.bus_id) == zone]
        assert redis.zone_con_mwh[zone] == sum(redis.con_mwh[g] for g in gens_in_zone)
        assert redis.zone_coff_mwh[zone] == sum(redis.coff_mwh[g] for g in gens_in_zone)


# ---------------------------------------------------------------------------
# oracle equivalence (randomized)
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_uc_matches_enumeration_oracle(seed):
    rng = random.Random(seed)
    units, loads = random_uc_instance(rng)
    net = uc_net(units)
    oracle = uc_enumeration_oracle(units, loads, wtp=500.0)
    try:
        sched = solve_uc(net, units, [{"n0": l} for l in loads], COPPER)
    except UcInfeasibleError:
        assert oracle is None
        return
    assert oracle is not None
    assert sched.objective == pytest.approx(oracle, abs=1e-6)


def _recording_clear(calls):
    def recording(net, gens, regime, **kw):
        on_set = frozenset(gid for gid, on in kw["committed"].items() if on)
        calls[(tuple(dispatch.bus_loads(net, kw["loads"])), on_set)] += 1
        return clear(net, gens, regime, **kw)
    return recording


_SOLVE_HOUR = commitment._solve_hour  # unpatched, so a recorder never calls another


def _recording_solve_hour(calls):
    def recording(template, load, on_ids):
        calls[(tuple(load), on_ids)] += 1
        return _SOLVE_HOUR(template, load, on_ids)
    return recording


def _counting_finish(finished):
    def counting(case, sol):
        finished.append(case)
        return dispatch.finish(case, sol)
    return counting


def _outcome(solve, *args, **kwargs):
    try:
        sched = solve(*args, **kwargs)
    except UcInfeasibleError as err:
        return ("infeasible", err.hour)
    return (repr(sched.committed), repr([r.gen_mw for r in sched.hourly_results]), repr(sched.objective))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), block=st.sampled_from([1, 2, 5, 64, 1 << 12]))
def test_uc_choice_matches_reference_scan(seed, block):
    """The array search picks exactly the candidate the one-at-a-time scan
    picks (ties, twins and infeasible hours included, across block edges),
    solves only (hour, on-set) pairs the scan solves, each at most as often
    (a key holds the hour's loads, not the hour, so two hours of equal load
    count twice on both sides), and finishes a dispatch result only for each
    hour of the chosen schedule."""
    units, loads, regime, lower_bounds = random_tie_uc_instance(random.Random(seed))
    net = uc_net(units)
    hours = [{"n0": l} for l in loads]
    ours, theirs, finished = Counter(), Counter(), []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(commitment, "_BLOCK", block)
        mp.setattr(commitment, "_solve_hour", _recording_solve_hour(ours))
        mp.setattr(commitment, "finish", _counting_finish(finished))
        got = _outcome(solve_uc, net, units, hours, regime, lower_bounds=lower_bounds)
        mp.setattr(helpers, "clear", _recording_clear(theirs))
        want = _outcome(reference_solve_uc, net, units, hours, regime, lower_bounds=lower_bounds)
    assert got == want
    assert all(ours[k] <= theirs[k] for k in ours), ours - theirs
    assert len(finished) == (0 if got[0] == "infeasible" else len(hours))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_networked_uc_choice_matches_reference_scan(seed):
    """Where the uniform-price bound lies below the LP (binding line and
    interface limits, floors above the load, reserve and ``min_sync`` rows),
    the pruned search still makes the scan's choice, or fails at the scan's
    hour, and solves only (hour, on-set) pairs the scan solves."""
    net, units, hours, regime, lower_bounds = random_networked_uc_instance(random.Random(seed))
    ours, theirs = Counter(), Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(commitment, "_solve_hour", _recording_solve_hour(ours))
        got = _outcome(solve_uc, net, units, hours, regime, lower_bounds=lower_bounds)
        mp.setattr(helpers, "clear", _recording_clear(theirs))
        want = _outcome(reference_solve_uc, net, units, hours, regime, lower_bounds=lower_bounds)
    assert got == want
    assert all(ours[k] <= theirs[k] for k in ours), ours - theirs


def test_bound_prunes_the_fivebus_commitment(scenario_dir):
    """``daucruc`` on ``fivebus_ruc.scn`` solves 6 hour LPs over both
    passes, against the 40 the search solves with an infinite prune margin
    (no candidate pruned), and commits the same units."""
    sc = load_scenario(scenario_dir / "fivebus_ruc.scn")
    args = (sc.network, sc.generators, sc.hourly_loads(), sc.regimes["DAUC"], sc.regimes["RUC"])
    pruned, unpruned = Counter(), Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(commitment, "_solve_hour", _recording_solve_hour(pruned))
        got = run_dauc_ruc(*args)
        mp.setattr(commitment, "_solve_hour", _recording_solve_hour(unpruned))
        mp.setattr(commitment, "_PRUNE_MARGIN", math.inf)
        want = run_dauc_ruc(*args)
    assert (sum(pruned.values()), sum(unpruned.values())) == (6, 40)
    assert all(pruned[k] <= unpruned[k] for k in pruned)
    assert [(s.committed, s.objective) for s in got[:2]] == [(s.committed, s.objective) for s in want[:2]]


def test_a_cheaper_schedule_tightens_the_cutoff_inside_a_block():
    """Two units feed a load behind a 100 MW line: u1 at its near end, u0
    further out with a 30 MW floor.  The least bound (the merit-order fill,
    which ignores the line) is both units on, so that schedule is the first
    incumbent, at 56320.  The row of its LP puts u0 alone at 56320 too,
    inside the first cutoff; u1 alone, of lesser bound, is solved next at
    56000, and the cutoff it sets drops u0 alone unsolved.  So the search
    solves 2 hour LPs, its bound drops 3 of the 4 candidates (the first
    incumbent among them), and it commits the scan's choice."""
    net = Network(
        (Bus("e", "Z", 0.0, 60.0), Bus("i1", "Z", 0.0, 60.0), Bus("i2", "Z", 210.0, 500.0)),
        (Line("le", "e", "i1", 0.1, 150.0, frozenset({"DA"})),
         Line("li", "i1", "i2", 0.1, 100.0, frozenset({"DA"}))),
        ("Z",), (), "i1")
    units = [GeneratorSpec("u0", "e", 30.0, 150.0, 20.0, 20.0, 0.0),
             GeneratorSpec("u1", "i1", 30.0, 150.0, 10.0, 0.0, 0.0)]
    regime = ConstraintRegime(mode="nodal", monitored_profile="DA")
    hours = [{"i2": 210.0}]
    solved = Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(commitment, "_solve_hour", _recording_solve_hour(solved))
        got = solve_uc(net, units, hours, regime)
    want = reference_solve_uc(net, units, hours, regime)
    assert (got.committed, got.objective) == (want.committed, want.objective) == (
        {"u0": (False,), "u1": (True,)}, 56000.0)
    assert [on_ids for _, on_ids in solved] == [frozenset({"u0", "u1"}), frozenset({"u1"})]
    assert (sum(solved.values()), got.pruned) == (2, 3)

    template = dispatch.build_template(net, units, regime)
    uniform_rows, lp_rows = commitment._price_terms(template)
    load = dispatch.bus_loads(net, hours[0])
    first = commitment._solve_hour(template, load, frozenset({"u0", "u1"}))
    rows = np.vstack((uniform_rows(load), lp_rows(*first)))
    u0_alone = units[0].nlc + (rows[:, 0] + rows[:, 1]).max()
    assert u0_alone == first[1].objective_value + units[0].nlc == 56320.0  # kept by the first cutoff


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_price_bound_holds_for_every_on_set(seed):
    """The price bound of each optimal hour LP is at most the objective of
    every LP of the same hour, whatever units it commits, in every mode and
    with floors, reserve and ``min_sync`` rows (every on-set is solved, so a
    lower bound's floors change nothing here); in nodal and copper-plate
    hours without reserve or ``min_sync`` rows it is the LP's own objective,
    which a wrong sign anywhere would break."""
    net, units, hours, regime, _ = random_networked_uc_instance(random.Random(seed))
    for mode in ("nodal", "zonal", "copper_plate"):
        assert price_bound_failures(net, units, hours, replace(regime, mode=mode))[1] == []


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_uniform_price_rows_are_the_merit_order_fill(seed):
    """On one bus, each on-set's greatest uniform-price row is the cost of
    the merit-order fill (``helpers.merit_dispatch``) wherever the on units'
    floors fit the load."""
    units, loads = random_uc_instance(random.Random(seed))
    uniform_rows, _ = commitment._price_terms(dispatch.build_template(uc_net(units), units, COPPER))
    for load in loads:
        rows = uniform_rows(np.array([load]))
        for flags in itertools.product((0, 1), repeat=len(units)):
            want, fits = helpers.merit_dispatch(units, flags, load, 500.0)
            if fits:
                got = (rows[:, 0] + rows[:, 1:] @ flags).max()
                assert abs(got - want) <= 1e-9 * (1 + abs(want)), (flags, load)


def test_price_bound_prunes_where_the_tie_binds():
    """Behind a day-ahead tie that binds every hour, the uniform-price rows
    let cheap export units look able to serve the load; the row of each LP
    of the first solved schedule sees the tie, so the search solves 3 hour
    LPs instead of the 12 it solves with the uniform-price rows alone, and
    commits the same units at the same objective."""
    zone = {"e1": "ZE", "e2": "ZE", "e3": "ZE", "i1": "ZI", "i2": "ZI"}
    net = Network(
        tuple(Bus(b, z, {"i1": 255.2, "i2": 119.7}.get(b, 0.0), 1000.0 if z == "ZI" else 0.0)
              for b, z in zone.items()),
        (Line("le1", "e1", "e3", 0.1, 62.8, frozenset({"RUC"})),
         Line("le2", "e2", "e3", 0.1, 99.9, frozenset({"RUC"})),
         Line("tie", "e3", "i1", 0.05, 145.9, frozenset({"DAUC", "RUC"})),
         Line("li", "i1", "i2", 0.1, 562.3, frozenset({"DAUC", "RUC"}))),
        ("ZE", "ZI"), (Interface("export", (("tie", 1),), 145.9),), "i1")
    units = [GeneratorSpec("G0", "e2", 0.0, 123.0, 35.9, 121.8, 233.5),
             GeneratorSpec("G1", "e1", 0.0, 137.6, 12.25, 109.4, 594.9),
             GeneratorSpec("P", "i1", 0.0, 413.4, 94.88, 20.3, 293.5, initially_on=True)]
    hours = [{"i1": 255.2, "i2": 119.7}, {"i1": 238.1, "i2": 132.4}, {"i1": 208.1, "i2": 90.2}]
    regime = ConstraintRegime(mode="nodal", monitored_profile="DAUC")
    priced, uniform_only = Counter(), Counter()
    price_terms = commitment._price_terms
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(commitment, "_solve_hour", _recording_solve_hour(priced))
        got = solve_uc(net, units, hours, regime)
        mp.setattr(commitment, "_solve_hour", _recording_solve_hour(uniform_only))
        mp.setattr(commitment, "_price_terms", lambda template: (
            price_terms(template)[0], lambda case, sol: np.empty((0, len(units) + 1))))
        want = solve_uc(net, units, hours, regime)
    assert (sum(priced.values()), sum(uniform_only.values())) == (3, 12)
    assert all(priced[k] <= uniform_only[k] for k in priced)
    assert (got.committed, got.objective) == (want.committed, want.objective)
    assert all(("flow+[tie]" in dict(r.binding)) for r in got.hourly_results)
    assert got.pruned > want.pruned
