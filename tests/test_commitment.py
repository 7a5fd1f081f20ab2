import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gridclear import commitment
from gridclear.commitment import (
    UcEnumerationLimitError,
    UcGenerator,
    UcInfeasibleError,
    feasible_sequences,
    run_dauc_ruc,
    sequence_is_feasible,
    solve_uc,
)
from gridclear.dispatch import ConstraintRegime, GeneratorSpec, clear
from gridclear.scenario import load_scenario
import helpers
from helpers import (
    random_tie_uc_instance,
    random_uc_instance,
    reference_solve_uc,
    uc_enumeration_oracle,
    uc_net,
)

COPPER = ConstraintRegime(mode="copper_plate")


def _unit(gid, p_max, ic, nlc=0.0, suc=0.0, p_min=0.0, on=False, min_up=1, min_down=1,
          initial_hours=24):
    return UcGenerator(
        GeneratorSpec(gid, "n0", p_min, p_max, ic, nlc, suc),
        min_up_h=min_up, min_down_h=min_down,
        initially_on=on, initial_hours=initial_hours,
    )


# ---------------------------------------------------------------------------
# sequence feasibility
# ---------------------------------------------------------------------------

def test_min_up_blocks_early_shutdown():
    u = _unit("u", 100, 10, min_up=3, on=True, initial_hours=1)
    assert not sequence_is_feasible(u, (1, 0, 0))  # off after 2 total on-hours
    assert sequence_is_feasible(u, (1, 1, 0))  # 3 on-hours completed
    assert sequence_is_feasible(u, (1, 1, 1))


def test_min_down_blocks_early_restart():
    u = _unit("u", 100, 10, min_down=2, on=False, initial_hours=1)
    assert not sequence_is_feasible(u, (1, 0, 1))  # initial off-run incomplete
    assert sequence_is_feasible(u, (0, 1, 1))  # down time completed first
    rested = _unit("u", 100, 10, min_down=2, on=False, initial_hours=2)
    assert not sequence_is_feasible(rested, (1, 0, 1))  # mid-run off too short
    assert sequence_is_feasible(rested, (1, 1, 0))  # truncated trailing off-run allowed


def test_feasible_sequences_counts():
    free = _unit("u", 100, 10)
    assert len(feasible_sequences(free, 3)) == 8
    sticky = _unit("u", 100, 10, min_up=2, min_down=2)
    assert all(sequence_is_feasible(sticky, s) for s in feasible_sequences(sticky, 3))
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


# ---------------------------------------------------------------------------
# solve_uc basics
# ---------------------------------------------------------------------------

def test_always_on_unit_flat_load():
    units = [_unit("u", 100, 12.0, nlc=30.0, on=True)]
    net = uc_net(units)
    sched = solve_uc(net, units, [{"n0": 80.0}] * 4, COPPER)
    assert sched.committed["u"] == (True,) * 4
    assert sched.dispatch_mw["u"] == pytest.approx((80.0,) * 4)
    assert sched.total_cost == pytest.approx(4 * (12.0 * 80.0 + 30.0))
    assert sched.starts["u"] == 0
    assert sched.hours_on["u"] == (25, 26, 27, 28)  # continues the initial run


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
    for gid in sched.gen_ids:
        for t in range(sched.hours):
            q = sched.dispatch_mw[gid][t]
            if q > 1e-9:
                assert sched.committed[gid][t]
            if sched.committed[gid][t]:
                spec = next(u.spec for u in units if u.spec.id == gid)
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


def test_overflowing_commitment_costs_choose_like_the_scan():
    # no-load costs whose sum overflows to inf: every objective is inf, so
    # the first feasible candidate stands, with no numpy warning on the way
    units = [_unit("a", 100, 10.0, nlc=1e308), _unit("b", 100, 10.0, nlc=1e308)]
    net = uc_net(units)
    hours = [{"n0": 150.0}] * 2
    got, want = solve_uc(net, units, hours, COPPER), reference_solve_uc(net, units, hours, COPPER)
    assert repr(got.committed) == repr(want.committed)


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


def test_determinism():
    units = [
        _unit("a", 100, 10.0, nlc=5.0, suc=100.0),
        _unit("b", 100, 10.0, nlc=5.0, suc=100.0),  # symmetric twin
    ]
    net = uc_net(units)
    s1 = solve_uc(net, units, [{"n0": 120.0}] * 2, COPPER)
    s2 = solve_uc(net, units, [{"n0": 120.0}] * 2, COPPER)
    assert repr(s1.committed) == repr(s2.committed)
    assert repr(s1.dispatch_mw) == repr(s2.dispatch_mw)


# ---------------------------------------------------------------------------
# sequential day-ahead / reliability passes
# ---------------------------------------------------------------------------

def _fivebus():
    return load_scenario("scenarios/fivebus_ruc.scn")


def test_dauc_ruc_line_superset_enforced(scenario_dir):
    sc = load_scenario(scenario_dir / "fivebus_ruc.scn")
    with pytest.raises(ValueError, match="superset"):
        run_dauc_ruc(
            sc.network, sc.generators, sc.hourly_loads(),
            sc.regime("RUC"), sc.regime("DAUC"),  # reversed on purpose
        )


def test_dauc_ruc_reserve_ordering_enforced(scenario_dir):
    sc = load_scenario(scenario_dir / "fivebus_ruc.scn")
    tighter_dauc = ConstraintRegime(mode="nodal", monitored_profile="DAUC",
                                    enforce_interfaces=True, reserve_req_mw=50.0)
    with pytest.raises(ValueError, match="reserve"):
        run_dauc_ruc(sc.network, sc.generators, sc.hourly_loads(),
                     tighter_dauc, sc.regime("RUC"))


def test_dauc_ruc_asymmetry_pattern(scenario_dir):
    sc = load_scenario(scenario_dir / "fivebus_ruc.scn")
    dauc, ruc, record = run_dauc_ruc(
        sc.network, sc.generators, sc.hourly_loads(),
        sc.regime("DAUC"), sc.regime("RUC"),
    )
    assert ruc.total_cost >= dauc.total_cost - 1e-9
    for t in range(record.hours):
        assert sum(record.delta_mwh[g][t] for g in record.gen_ids) == pytest.approx(0.0, abs=1e-6)
    # export zone sheds cheap output, import zone is constrained on
    assert record.zone_constrained_off["ZE"] > record.zone_constrained_on["ZE"]
    assert record.zone_constrained_on["ZI"] > 0.0
    assert record.zone_constrained_off["ZI"] == 0.0
    # RUC may add commitments but never drop day-ahead ones
    for gid in dauc.gen_ids:
        for t in range(dauc.hours):
            assert ruc.committed[gid][t] >= dauc.committed[gid][t]


def test_identical_regimes_zero_redispatch(scenario_dir):
    sc = load_scenario(scenario_dir / "fivebus_ruc.scn")
    _, _, record = run_dauc_ruc(
        sc.network, sc.generators, sc.hourly_loads(),
        sc.regime("RUC"), sc.regime("RUC"),
    )
    for gid in record.gen_ids:
        assert record.delta_mwh[gid] == pytest.approx((0.0,) * record.hours, abs=1e-9)
    assert sum(record.zone_constrained_on.values()) == pytest.approx(0.0, abs=1e-9)


def test_higher_ruc_reserve_commits_extra_unit_at_pmin():
    units = [
        _unit("base", 100, 10.0, on=True),
        _unit("standby", 50, 50.0, nlc=10.0, p_min=10.0),
    ]
    net = uc_net(units)
    dauc_regime = ConstraintRegime(mode="copper_plate", reserve_req_mw=0.0)
    ruc_regime = ConstraintRegime(mode="copper_plate", reserve_req_mw=50.0)
    dauc, ruc, record = run_dauc_ruc(net, units, [{"n0": 80.0}], dauc_regime, ruc_regime)
    assert dauc.committed["standby"] == (False,)
    assert ruc.committed["standby"] == (True,)
    assert record.delta_mwh["standby"][0] == pytest.approx(10.0)  # its p_min
    assert record.gen_constrained_on["standby"] == pytest.approx(10.0)


def test_zone_aggregates_sum_exactly(scenario_dir):
    sc = load_scenario(scenario_dir / "fivebus_ruc.scn")
    _, _, record = run_dauc_ruc(
        sc.network, sc.generators, sc.hourly_loads(),
        sc.regime("DAUC"), sc.regime("RUC"),
    )
    for zone in sc.network.zones:
        gens_in_zone = [g for g in record.gen_ids if record.gen_zone[g] == zone]
        assert record.zone_constrained_on[zone] == sum(
            record.gen_constrained_on[g] for g in gens_in_zone
        )
        assert record.zone_constrained_off[zone] == sum(
            record.gen_constrained_off[g] for g in gens_in_zone
        )


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
        calls[(tuple(sorted(kw["loads"].items())), on_set)] += 1
        return clear(net, gens, regime, **kw)
    return recording


def _outcome(solve, *args, **kwargs):
    try:
        sched = solve(*args, **kwargs)
    except UcInfeasibleError as err:
        return ("infeasible", err.hour)
    return (repr(sched.committed), repr(sched.dispatch_mw), repr(sched.objective))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), block=st.sampled_from([1, 2, 5, 64, 1 << 12]))
def test_uc_choice_matches_reference_scan(seed, block):
    """The array search picks exactly the candidate the one-at-a-time scan
    picks (ties, twins and infeasible hours included, across block edges)
    and dispatches exactly the same (hour, on-set) pairs."""
    units, loads, regime, lower_bounds = random_tie_uc_instance(random.Random(seed))
    net = uc_net(units)
    hours = [{"n0": l} for l in loads]
    ours, theirs = Counter(), Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(commitment, "_BLOCK", block)
        mp.setattr(commitment, "clear", _recording_clear(ours))
        got = _outcome(solve_uc, net, units, hours, regime, lower_bounds=lower_bounds)
        mp.setattr(helpers, "clear", _recording_clear(theirs))
        want = _outcome(reference_solve_uc, net, units, hours, regime, lower_bounds=lower_bounds)
    assert got == want
    assert ours == theirs
