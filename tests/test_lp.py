import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gridclear import lp as lpmod
from gridclear.cli import main
from gridclear.lp import LinearProgram, LpBuilder, LpNumericalError, solve
from helpers import _ReferenceSimplex, reference_solve, solve_outcome

INF = math.inf


def build_random_lp(rng: random.Random, max_vars: int = 30):
    """Feasible bounded LP: constraints are anchored on a known interior point
    and every variable has a finite upper bound."""
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max(2, n))
    b = LpBuilder()
    x0 = []
    for j in range(n):
        hi = rng.uniform(1.0, 25.0)
        b.var(f"x{j}", 0.0, hi, rng.uniform(0.0, 10.0))
        x0.append(rng.uniform(0.0, hi / 2))
    for k in range(m):
        support = rng.sample(range(n), rng.randint(1, n))
        coeffs = {j: rng.uniform(-4.0, 4.0) for j in support}
        lhs = sum(v * x0[j] for j, v in coeffs.items())
        rel = rng.choice(["<=", ">=", "="])
        margin = rng.uniform(0.0, 3.0)
        rhs = lhs + margin if rel == "<=" else lhs - margin if rel == ">=" else lhs
        b.row(coeffs, rel, rhs, f"r{k}")
    return b.build()


def build_wild_lp(rng: random.Random, max_vars: int = 8, max_rows: int = 8):
    """Small LP with every kind of variable (free, fixed, lower- or
    upper-bounded only, boxed), rows of every relation, zero right-hand sides
    and repeated or rescaled rows, or no rows at all; many are infeasible or
    unbounded."""
    n = rng.randint(1, max_vars)
    b = LpBuilder()
    for j in range(n):
        at = rng.choice([0.0, 1.0, -2.0, rng.uniform(-10.0, 10.0)])
        lower, upper = rng.choice([
            (-INF, INF), (at, at), (at, INF), (-INF, at), (at, at + rng.choice([1.0, 4.0, 7.5]))])
        b.var(f"x{j}", lower, upper, rng.choice([0.0, 1.0, -1.0, 3.0, rng.uniform(-5.0, 5.0)]))
    rows = []
    for k in range(rng.randint(0, max_rows)):
        if rows and rng.random() < 0.3:
            coeffs, rel, rhs = rng.choice(rows)
            scale = rng.choice([1.0, 2.0, -1.0])
            coeffs = {j: scale * v for j, v in coeffs.items()}
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel] if scale < 0 else rel
            rhs *= scale
        else:
            support = rng.sample(range(n), rng.randint(1, n))
            coeffs = {j: rng.choice([1.0, -1.0, 2.0, 0.5, rng.uniform(-4.0, 4.0)]) for j in support}
            rel = rng.choice(["<=", ">=", "="])
            rhs = rng.choice([0.0, 0.0, 1.0, rng.uniform(-10.0, 10.0)])
        rows.append((coeffs, rel, rhs))
        b.row(coeffs, rel, rhs, f"r{k}")
    return b.build()


def dual_objective(lp: LinearProgram, sol) -> float:
    """Dual objective under the rhs-derivative convention, with variable bound
    multipliers recovered from the reduced costs."""
    val = sum(y * b for y, b in zip(sol.duals, lp.rhs))
    for j, rc in enumerate(sol.reduced_costs):
        if rc > 0 and lp.lower[j] > -INF:
            val += rc * lp.lower[j]
        elif rc < 0 and lp.upper[j] < INF:
            val += rc * lp.upper[j]
    return val


def check_kkt(lp: LinearProgram, sol, tol=1e-6):
    assert sol.status == "optimal"
    x = sol.primal
    for j in range(len(x)):
        assert lp.lower[j] - tol <= x[j] <= lp.upper[j] + tol
    for row, sense, rhs, y in zip(lp.A, lp.sense, lp.rhs, sol.duals):
        slack = rhs - row @ x
        if sense > 0:  # <=
            assert slack >= -tol
            assert abs(y) * max(slack, 0.0) <= tol * (1 + abs(rhs))
            assert y <= tol  # relaxing a <= row cannot raise a minimum
        elif sense < 0:  # >=
            assert slack <= tol
            assert abs(y) * max(-slack, 0.0) <= tol * (1 + abs(rhs))
            assert y >= -tol
        else:
            assert abs(slack) <= tol
    gap = abs(sol.objective_value - dual_objective(lp, sol))
    assert gap <= 1e-6 * (1.0 + abs(sol.objective_value))


def test_lower_bound_row_dual_is_one():
    b = LpBuilder()
    x = b.var("x", -INF, INF, 1.0)
    lb = b.row({x: 1.0}, ">=", 3.0, "lb")
    sol = solve(b.build())
    assert sol.status == "optimal"
    assert sol.primal[x] == pytest.approx(3.0)
    assert sol.duals[lb] == pytest.approx(1.0)


def test_two_variable_balance_and_cap():
    # min 10a + 40b s.t. a + b = 100, a <= 60
    b = LpBuilder()
    a = b.var("a", 0.0, INF, 10.0)
    c = b.var("b", 0.0, INF, 40.0)
    balance = b.row({a: 1.0, c: 1.0}, "=", 100.0, "balance")
    cap = b.row({a: 1.0}, "<=", 60.0, "cap")
    sol = solve(b.build())
    assert sol.primal[a] == pytest.approx(60.0)
    assert sol.primal[c] == pytest.approx(40.0)
    assert sol.duals[balance] == pytest.approx(40.0)
    assert sol.duals[cap] == pytest.approx(-30.0)
    assert sol.objective_value == pytest.approx(2200.0)


def test_infeasible_is_reported_not_raised():
    b = LpBuilder()
    a = b.var("a", 0.0, 5.0, 1.0)
    b.row({a: 1.0}, ">=", 10.0, "r")
    assert solve(b.build()).status == "infeasible"


def test_unbounded_is_reported():
    b = LpBuilder()
    a = b.var("a", -INF, INF, -1.0)
    b.row({a: 1.0}, ">=", 0.0, "r")
    assert solve(b.build()).status == "unbounded"


def test_redundant_row_gets_zero_dual():
    b = LpBuilder()
    a = b.var("a", 0.0, 10.0, 2.0)
    r1 = b.row({a: 1.0}, "=", 4.0, "r1")
    r2 = b.row({a: 2.0}, "=", 8.0, "r2")
    sol = solve(b.build())
    assert sol.status == "optimal"
    assert sol.primal[a] == pytest.approx(4.0)
    assert sol.duals[r1] * 1 + sol.duals[r2] * 2 == pytest.approx(2.0)


def test_duplicate_labels_rejected():
    b = LpBuilder()
    x = b.var("x", 0.0, 1.0, 1.0)
    b.row({x: 1.0}, "<=", 1.0, "r")
    b.row({x: 1.0}, "<=", 2.0, "r")
    with pytest.raises(ValueError, match="unique"):
        b.build()


_NAN = float("nan")


@pytest.mark.parametrize("cost, lower, upper, coeff, rhs, named", [
    (_NAN, 0.0, 5.0, 1.0, 10.0, "variable 'x'"),
    (INF, 0.0, 5.0, 1.0, 10.0, "variable 'x'"),
    (-INF, 0.0, 5.0, 1.0, 10.0, "variable 'x'"),
    (1.0, _NAN, 5.0, 1.0, 10.0, "variable 'x'"),
    (1.0, 0.0, _NAN, 1.0, 10.0, "variable 'x'"),
    (1.0, INF, INF, 1.0, 10.0, "variable 'x'"),
    (1.0, -INF, -INF, 1.0, 10.0, "variable 'x'"),
    (1.0, 0.0, 5.0, _NAN, 10.0, "row 'cap'"),
    (1.0, 0.0, 5.0, INF, 10.0, "row 'cap'"),
    (1.0, 0.0, 5.0, -INF, 10.0, "row 'cap'"),
    (1.0, 0.0, 5.0, 1.0, _NAN, "row 'cap'"),
    (1.0, 0.0, 5.0, 1.0, INF, "row 'cap'"),
    (1.0, 0.0, 5.0, 1.0, -INF, "row 'cap'"),
], ids=["nan-cost", "inf-cost", "-inf-cost", "nan-lower", "nan-upper", "inf-lower",
        "-inf-upper", "nan-coeff", "inf-coeff", "-inf-coeff", "nan-rhs", "inf-rhs", "-inf-rhs"])
def test_non_finite_inputs_are_rejected_by_name(cost, lower, upper, coeff, rhs, named):
    b = LpBuilder()
    x = b.var("x", lower, upper, cost)
    b.row({x: coeff}, "<=", rhs, "cap")
    with pytest.raises(ValueError, match=named):
        b.build()


@pytest.mark.parametrize("index, rel", [(-1, "<="), (1, "<="), (0, "=<")],
                         ids=["index -1", "index n", "bad relation"])
def test_bad_rows_are_rejected_by_name(index, rel):
    # numpy would read index -1 as the last column; the builder must not
    b = LpBuilder()
    x = b.var("x", 0.0, 1.0, 1.0)
    b.row({x: 1.0}, "<=", 1.0, "ok")
    with pytest.raises(ValueError, match="row 'cap'"):
        b.row({index: 1.0}, rel, 1.0, "cap")
        b.build()


def test_solve_leaves_the_program_unchanged_and_its_arrays_read_only():
    # re-solving a captured LP is bit for bit only if no solve wrote to it
    lp = build_random_lp(random.Random(42))
    arrays = ("cost", "lower", "upper", "A", "sense", "rhs")
    before = {f: getattr(lp, f).tobytes() for f in arrays}
    assert solve(lp).status == "optimal"
    for f in arrays:
        assert getattr(lp, f).tobytes() == before[f]
        with pytest.raises(ValueError, match="read-only"):
            getattr(lp, f)[0] = 1.0


def test_degenerate_cycling_guard():
    # Beale's classical cycling example; Bland's rule must terminate
    b = LpBuilder()
    x1 = b.var("x1", 0.0, INF, -0.75)
    x2 = b.var("x2", 0.0, INF, 150.0)
    x3 = b.var("x3", 0.0, INF, -0.02)
    x4 = b.var("x4", 0.0, INF, 6.0)
    b.row({x1: 0.25, x2: -60.0, x3: -0.04, x4: 9.0}, "<=", 0.0, "r1")
    b.row({x1: 0.5, x2: -90.0, x3: -0.02, x4: 3.0}, "<=", 0.0, "r2")
    b.row({x3: 1.0}, "<=", 1.0, "r3")
    sol = solve(b.build())
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-0.05)


def test_fixed_variable_handled():
    b = LpBuilder()
    a = b.var("a", 5.0, 5.0, 3.0)
    c = b.var("c", 0.0, 10.0, 1.0)
    b.row({a: 1.0, c: 1.0}, ">=", 8.0, "need")
    sol = solve(b.build())
    assert sol.primal[a] == 5.0
    assert sol.primal[c] == pytest.approx(3.0)


def test_determinism_identical_runs():
    rng = random.Random(42)
    lp = build_random_lp(rng)
    a = solve(lp)
    b = solve(lp)
    assert repr(a) == repr(b)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_random_lp_kkt(seed):
    rng = random.Random(seed)
    lp = build_random_lp(rng, max_vars=12)
    sol = solve(lp)
    if sol.status == "optimal":
        check_kkt(lp, sol)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_solve_matches_the_reference_bit_for_bit(seed):
    lp = build_wild_lp(random.Random(seed))
    assert solve_outcome(solve, lp) == solve_outcome(reference_solve, lp)


def test_report_and_bound_flips_solve_nothing_more(monkeypatch):
    # min -x, x in [0, 5], x <= 10.  Phase 1 solves the basic values at its
    # start, phase 2 starts from phase 1's, and each phase solves them again
    # at its optimum if a step moved them.  A pivot or bound flip takes its
    # direction from the basis inverse, which phase 1 starts as its
    # all-artificial basis without a solve and phase 2 inherits, so it
    # solves nothing; phase 2 prices its first basis with one dual solve.
    # Phase 1: x enters and flips to its upper bound, then the slack
    # replaces the artificial; phase 2 prices once and stops.
    b = LpBuilder()
    x = b.var("x", 0.0, 5.0, -1.0)
    b.row({x: 1.0}, "<=", 10.0, "cap")
    events = []
    real_solve, real_inv = lpmod._lapack_solve, lpmod._lapack_inv
    real_report = lpmod._Simplex._report

    def named_solve(a, rhs, singular):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_solve_basics":
            events.append("basics")
        elif np.shares_memory(rhs, caller.f_locals["self"].A):
            events.append("direction")  # the entering column of A
        else:
            events.append("duals")
        return real_solve(a, rhs, singular)

    def watched_inv(*args):
        events.append("inverse")
        return real_inv(*args)

    def watched_report(self, status):
        events.append("report")
        return real_report(self, status)

    monkeypatch.setattr(lpmod, "_lapack_solve", named_solve)
    monkeypatch.setattr(lpmod, "_lapack_inv", watched_inv)
    monkeypatch.setattr(lpmod._Simplex, "_report", watched_report)
    sol = solve(b.build())
    assert sol.primal[x] == 5.0 and sol.objective_value == -5.0
    assert events == [
        "basics",   # phase 1: x flips to its upper bound, then the slack replaces the artificial
        "basics",   # the new basis is optimal; x_B moved
        "duals",    # phase 2 is optimal at once
        "report",
    ]

    # min -x - 2y, x and y in [0, 10], x + y <= 4: phase 2 pivots once, on
    # duals from the inverse, and solves them once more at its optimum
    b = LpBuilder()
    x, y = b.var("x", 0.0, 10.0, -1.0), b.var("y", 0.0, 10.0, -2.0)
    b.row({x: 1.0, y: 1.0}, "<=", 4.0, "cap")
    events.clear()
    sol = solve(b.build())
    assert sol.primal == (0.0, 4.0) and sol.duals == (-2.0,)
    assert events == [
        "basics",           # phase 1: x replaces the artificial
        "basics",           # the new basis is optimal; x_B moved
        "duals",            # phase 2 prices its first basis; y replaces x
        "duals", "basics",  # no column improves on the updated inverse's duals, nor on solved ones
        "report",
    ]

    # min -x, x in [0, 10], x <= 4 and 2x <= 8: both rows block x at 4, a
    # tie inside any drift, so that pivot is decided again from a fresh
    # solve of the basic values and of the direction; the slack of the
    # second row then replaces its artificial at a step of 0
    b = LpBuilder()
    x = b.var("x", 0.0, 10.0, -1.0)
    b.row({x: 1.0}, "<=", 4.0, "r0")
    b.row({x: 2.0}, "<=", 8.0, "r1")
    events.clear()
    sol = solve(b.build())
    assert sol.primal == (4.0,) and sol.objective_value == -4.0
    assert events == [
        "basics",
        "basics", "direction",  # phase 1: x enters, and the tie is decided again
        "basics",               # the slack replaces the last artificial; x_B moved
        "duals",                # phase 2 is optimal at once
        "report",
    ]


def test_lapack_solve_is_np_linalg_solve_bit_for_bit():
    # lp._lapack_solve and lp._lapack_inv call the private gufuncs that
    # np.linalg.solve and np.linalg.inv dispatch to; a numpy that changes
    # their results or the way they flag a singular matrix fails here (one
    # that renames them fails on import)
    rng = np.random.default_rng(12)
    for n in range(1, 121):
        a, rhs = rng.standard_normal((n, n)), rng.standard_normal(n)
        for m in (a, a.T):
            assert lpmod._lapack_solve(m, rhs, "unused").tobytes() == np.linalg.solve(m, rhs).tobytes()
            assert lpmod._lapack_inv(m).tobytes() == np.linalg.inv(m).tobytes()

    # a singular basis raises the reference's text in every solve
    b = LpBuilder()
    x = [b.var("x0", 0.0, 10.0, 1.0), b.var("x1", 0.0, 10.0, -1.0)]
    b.row({x[0]: 1.0, x[1]: 1.0}, "<=", 4.0, "r0")
    b.row({x[0]: 1.0, x[1]: -1.0}, ">=", -2.0, "r1")
    lp = b.build()
    new, ref = lpmod._Simplex(lp), _ReferenceSimplex(lp)
    for simplex in (new, ref):
        simplex._init_basis()
        simplex.basis[:] = [0, 0]  # two copies of one column
    singular = np.linalg.LinAlgError

    def message(call, *args):
        with np.errstate(invalid="raise"), pytest.raises((LpNumericalError, singular)) as exc:
            call(*args)
        return f"{type(exc.value).__name__}({exc.value})"

    basics = message(ref._recompute_basics)
    assert basics == "LpNumericalError(singular basis: Singular matrix)"
    assert message(new._iterate, new.cost_real, 1) == basics  # phase 1 solves x_B first
    # phase 2 inverts the basis for its duals
    duals = message(ref._duals, ref.cost_real)
    assert duals == "LpNumericalError(singular basis (dual solve): Singular matrix)"
    assert message(new._iterate, new.cost_real, 2) == duals
    B = lp.A[:, [0, 0]]
    assert message(lpmod._lapack_solve, B, lp.A[:, 1], "singular basis") == basics  # direction
    assert message(lpmod._lapack_inv, B) == duals  # a re-inversion between pivots


def test_expelling_an_artificial_from_a_singular_basis_says_so():
    # _expel_artificials inverts the basis through _lapack_inv under the
    # run's float-error policy, and names its own step when that fails
    b = LpBuilder()
    x = b.var("x", 0.0, 10.0, 1.0)
    b.row({x: 1.0}, "<=", 4.0, "r0")
    b.row({x: 2.0}, "<=", 8.0, "r1")
    simplex = lpmod._Simplex(b.build())
    simplex._init_basis()
    simplex.basis[:] = simplex.art0  # two copies of one artificial column
    with np.errstate(invalid="raise"), pytest.raises(LpNumericalError) as exc:
        simplex._expel_artificials()
    assert str(exc.value) == "singular basis (expelling an artificial): Singular matrix"


@pytest.mark.parametrize("big", [1e7, 1e8, 1e308])
def test_a_large_right_hand_side_does_not_hide_an_infeasible_row(big):
    # phase 1 tests each artificial against its own row's right-hand side
    b = LpBuilder()
    x = b.var("x", 0.0, 1.0, 1.0)
    y = b.var("y", 0.0, 10.0, 1.0)
    b.row({x: 1.0}, ">=", 5.0, "need")
    b.row({y: 1.0}, "<=", big, "roomy")
    lp = b.build()
    assert solve(lp).status == "infeasible"
    assert solve_outcome(solve, lp) == solve_outcome(reference_solve, lp)


def test_fixed_column_that_leaves_the_basis_stays_out():
    # The start point satisfies every row, so phase 1 ends at once and
    # expelling the artificials pivots the fixed x1, x2 and x3 into the
    # basis; phase 2 pivots them out at a degenerate vertex.  A fixed column
    # that priced back in would reach the same optimum with other duals.
    b = LpBuilder()
    x = [b.var("x0", 2.0, 3.0, 2.0), b.var("x1", 1.0, 1.0, -2.0), b.var("x2", 0.0, 0.0, 0.0),
         b.var("x3", 1.0, 1.0, 5.0), b.var("x4", -INF, 1.0, 1.0)]
    b.row({x[0]: -1.0, x[1]: 1.0, x[2]: 2.0, x[3]: 1.0}, ">=", 0.0, "r0")
    b.row({x[0]: 1.0, x[1]: 1.0, x[2]: -1.0, x[3]: 2.0, x[4]: 1.0}, "=", 6.0, "r1")
    b.row({x[1]: 1.0, x[3]: 2.0, x[4]: 1.0}, "=", 4.0, "r2")
    b.row({x[0]: -1.0, x[1]: 2.0, x[4]: 2.0}, ">=", 2.0, "r3")
    b.row({x[2]: -1.0, x[3]: -1.0}, ">=", -1.0, "r4")
    lp = b.build()
    sol = solve(lp)
    assert sol.objective_value == 8.0
    assert sol.duals[1:3] == (2.0, -1.0)  # rows r1 and r2
    assert solve_outcome(solve, lp) == solve_outcome(reference_solve, lp)


def _lps_solved_by(monkeypatch, argv):
    """Run the CLI on ``argv`` and return every LP it solved."""
    lps = []
    real_solve = lpmod.solve

    def captured(lp):
        lps.append(lp)
        return real_solve(lp)

    with monkeypatch.context() as patched:
        patched.setattr(lpmod, "solve", captured)
        assert main(argv) == 0
    assert lps
    return lps


_CLI_RUNS = {"daucruc fivebus_ruc": ["daucruc", "fivebus_ruc.scn"], "bidding twobus": ["bidding", "twobus.scn"]}
_CLI_RUNS.update({f"compare {s}": ["compare", f"{s}.scn"]
                  for s in ("fourbus", "fourbus_tie270", "twobus", "fivebus_ruc")})


def _cli_argv(scenario_dir, tmp_path, argv):
    return [argv[0], str(scenario_dir / argv[1]), "--out", str(tmp_path), "--no-timestamp"]


@pytest.mark.parametrize("argv", _CLI_RUNS.values(), ids=_CLI_RUNS.keys())
def test_cli_lps_match_the_reference_bit_for_bit(scenario_dir, tmp_path, capsys, monkeypatch, argv):
    # the LPs of real clearings carry bound flips, ties and degenerate
    # phase-1 pivots that random LPs rarely reach
    for lp in _lps_solved_by(monkeypatch, _cli_argv(scenario_dir, tmp_path, argv)):
        assert solve_outcome(solve, lp) == solve_outcome(reference_solve, lp)


_GENERATED_RUNS = {f"clear nodal {n} buses": ("mesh_doc", (0, k, n), ["clear", "--scheme", "nodal"])
                   for k, n in ((0, 12), (4, 16), (8, 20), (0, 32))}
_GENERATED_RUNS.update({f"daucruc {u} units x {h} hours": ("uc_doc", (0, k, u, h), ["daucruc"])
                        for k, u, h in ((0, 3, 3), (4, 4, 4), (5, 4, 5), (7, 5, 4))})


def _generated_argv(tmp_path, monkeypatch, make, args, argv):
    """The CLI arguments that run ``argv`` on the benchmark's generated scenario."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import gen

    doc = getattr(gen, make)(*args)
    path = gen.write_doc(doc, tmp_path / f"{doc['name']}.scn")
    return [argv[0], str(path), *argv[1:], "--out", str(tmp_path), "--no-timestamp"]


@pytest.mark.parametrize("make, args, argv", _GENERATED_RUNS.values(), ids=_GENERATED_RUNS.keys())
def test_benchmark_generated_lps_match_the_reference_bit_for_bit(tmp_path, capsys, monkeypatch, make, args, argv):
    # the benchmark's 12-20 bus meshes give LPs of 56-96 rows and hundreds
    # of pivots, where basic values carried from pivot to pivot drift most;
    # the 32-bus mesh's longer pivot paths let the basis inverse drift more
    for lp in _lps_solved_by(monkeypatch, _generated_argv(tmp_path, monkeypatch, make, args, argv)):
        assert solve_outcome(solve, lp) == solve_outcome(reference_solve, lp)


def test_a_drifting_inverse_direction_keeps_the_reference_path(scenario_dir, tmp_path, capsys, monkeypatch):
    # Scale each entry of every direction taken from the basis inverse by
    # 1 + 1e-13 N(0, 1), the largest drift measured against LAPACK's.  The
    # ratio test's margins cover it: every LP of the CLI and generated runs
    # still takes the reference's pivot path, bit for bit.  With the
    # margins at 0 the same drift moves some LPs off it, so the margins,
    # not luck, keep the path.
    lps = []
    for argv in _CLI_RUNS.values():
        lps += _lps_solved_by(monkeypatch, _cli_argv(scenario_dir, tmp_path, argv))
    for make, args, argv in _GENERATED_RUNS.values():
        lps += _lps_solved_by(monkeypatch, _generated_argv(tmp_path, monkeypatch, make, args, argv))
    expected = [solve_outcome(reference_solve, lp) for lp in lps]
    rng = np.random.default_rng(0)
    exact = lpmod._inverse_direction
    monkeypatch.setattr(lpmod, "_inverse_direction",
                        lambda Binv, column: exact(Binv, column) * (1.0 + 1e-13 * rng.standard_normal(column.size)))

    def differ():
        return sum(solve_outcome(solve, lp) != outcome for lp, outcome in zip(lps, expected))

    assert differ() == 0
    for margin in ("DIRECTION_DRIFT", "DIRECTION_FLOOR", "BASICS_DRIFT"):
        monkeypatch.setattr(lpmod, margin, 0.0)
    assert differ() > 0
