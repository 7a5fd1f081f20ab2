"""Dense linear-program solver with dual multipliers.

Minimizes c'x subject to general rows (<=, =, >=) and variable bounds, using a
bounded-variable two-phase primal simplex with Bland's rule for anti-cycling.
Every run is deterministic: identical inputs produce bit-identical solutions.

A ``LinearProgram`` is read-only arrays: ``cost``, ``lower`` and ``upper``
per variable, a dense ``A`` (rows x variables), and per row its ``rhs`` and
``sense``, the coefficient of its slack (+1 for ``<=``, -1 for ``>=``, 0 for
``=``): row ``i`` is ``A[i] x + sense[i] s_i = rhs[i]`` with ``s_i >= 0``.
Its names only label rejection messages and reports.  ``LpBuilder.var`` and
``LpBuilder.row`` return positions, which index the program's arrays and the
tuples of floats an ``LpSolution`` holds.

The simplex holds one explicit basis inverse from its first basis to its
last.  Phase 1's all-artificial basis, ``diag(+-1)``, is its own inverse, and
its basic values are ``b - A_N x_N`` divided by those signs, so phase 1
solves nothing at its start.  Phase 2 inherits phase 1's inverse and basic
values on the same basis, or, if an artificial was expelled, the inverse and
basic values of the basis expelling ended on.  Each new basis updates the
inverse by one rank-1 (eta) step with the pivot's direction, inverting the
basis afresh, and solving the basic values afresh with it, after
``REINVERT_EVERY`` updates.  A pivot or bound flip takes its entering
direction from the inverse, ``Binv @ A[:, q]``, and makes no LAPACK solve;
the basis matrix gets the entering column in place, and the basic values
move by the step just taken.

A direction from the inverse and basic values carried from step to step
drift from a fresh solve's by rounding, so the ratio test allows for drift:
``DIRECTION_DRIFT * |d_r| + DIRECTION_FLOOR`` in each direction entry and
``BASICS_DRIFT * (1 + ||x_B||)`` in each basic value.  When a decision of its
scan lies within that drift of its threshold (an entry's ``|d_r|`` of
``PIVOT_TOL``, or the gap between two step lengths of the 1e-12 tie window),
the pivot is decided again exactly as the plain method decides it: the basic
values are solved afresh, the direction is solved, and the same scan runs
without the allowance.  The margins are at least 100 times the largest drift
measured against fresh solves on the benchmark's meshes (56-96 rows), on the
LPs of its commitment runs and on 32- and 40-bus meshes: direction entries
within ``1e-12 * |d_r| + 4.3e-13``, basic values within ``1.7e-13 * (1 +
max|x_B|)``.  On the meshes about 0.3% of pivots are decided again, on the
commitment LPs about 9%, where step lengths tie exactly (both rows block at
the same 100 MW) and any relative margin covers the tie.

Every basis is priced from the inverse, ``cb @ Binv``.  When no column
improves on those duals in phase 2, one dual solve on that basis prices
again; the run stops if still no column improves, and pivots on otherwise.
At a phase's optimum the basic values are solved once more on the final
basis (unless no step moved them since they were set up or solved), so the
phase-1 feasibility test, the start of phase 2 and the report read what a
fresh solve of that basis gives.  Pricing makes Bland's choice with one
comparison of each column's signed reduced cost (the sign says which way the
column may move), plus a test of the nonbasic free columns while there are
any; the ratio test visits in Python only the rows the step may move,
reading the basis, its bounds and the basic values as Python lists.  The signs and lists are kept
across pivots, and a pivot or bound flip updates only the positions it
touches.  Against the plain method, which solves the basic values, duals and
direction at every pivot, the contract is the same pivot path, and reported
numbers that come from the same solves on the final basis.  Reduced costs
priced from the inverse differ from solved ones by rounding, at most about
1e-9 on the benchmark's meshes against ``OPT_TOL`` = 1e-7; only a column
priced within that distance of the tolerance could enter on one and not on
the other.

Every solve calls ``_lapack_solve``, which calls the gufunc that
``np.linalg.solve`` dispatches to (``numpy.linalg._umath_linalg.solve1``)
on the same float64 operands, so it returns the same bits without the
wrapper's per-call checks and ``errstate``, which cost more than the LAPACK
work on the small bases of unit commitment.  A whole solve runs under one
float-error policy instead: an invalid operation raises, overflow, division
and underflow pass silently.  LAPACK flags a singular basis as an invalid
operation, which becomes ``LpNumericalError`` with ``np.linalg.solve``'s
text; any other invalid operation (``inf - inf``, ``0 * inf`` on huge
inputs) becomes ``LpNumericalError`` too, never a nan in a report.
The basis inverse comes from ``_lapack_inv``, the gufunc ``np.linalg.inv``
calls, under the same policy; a singular basis fails there as the dual solve
does, and in ``_expel_artificials``, which inverts the basis once if phase 1's
inverse has taken updates and again after each pivot, with a message of its
own.
``tests/test_lp.py::test_lapack_solve_is_np_linalg_solve_bit_for_bit`` pins
both gufuncs and texts, so a numpy that changes what they return or how they
flag a singular matrix fails there; one that renames them fails on import.

Phase 1 ends infeasible when an artificial exceeds ``FEAS_TOL`` scaled by
its own row's right-hand side, so a large unrelated row hides nothing.

Duals follow the right-hand-side derivative convention: the multiplier of a
row is d(objective)/d(rhs).  For a minimum-cost dispatch problem the dual of
the power-balance equality is therefore the marginal cost of demand.

Solver instances share no mutable state; concurrent solves are safe.  Intended
for desk-scale problems (tens to a few hundred variables and rows).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

INF = math.inf

_BASIC, _AT_LOWER, _AT_UPPER, _FREE_NB = 0, 1, 2, 3

# tolerance policy
FEAS_TOL = 1e-7
OPT_TOL = 1e-7
PIVOT_TOL = 1e-10
MAX_ITERATIONS = 20000
# the drift the ratio test allows for (see the module docstring): each entry
# d_r of a direction from the basis inverse by DIRECTION_DRIFT * |d_r| +
# DIRECTION_FLOOR, each carried basic value by BASICS_DRIFT * (1 + ||x_B||_2)
DIRECTION_DRIFT = 1e-10
DIRECTION_FLOOR = 5e-11
BASICS_DRIFT = 1e-10
# updates between fresh inversions of the basis inverse: on the benchmark's
# 56-96 row meshes the eta updates move max|Binv B - I| from about 2e-14 (a
# fresh inverse, median) to 1.4e-13 after 50-100 updates and 7e-13 after 400
REINVERT_EVERY = 100


_SENSE = {"<=": 1.0, ">=": -1.0, "=": 0.0}  # relation -> slack coefficient


@dataclass(frozen=True, eq=False)
class LinearProgram:
    cost: np.ndarray  # (n,) minimized
    lower: np.ndarray  # (n,)
    upper: np.ndarray  # (n,)
    A: np.ndarray  # (m, n)
    sense: np.ndarray  # (m,) slack coefficient: +1 for <=, -1 for >=, 0 for =
    rhs: np.ndarray  # (m,)
    var_names: tuple[str, ...]
    row_labels: tuple[str, ...]

    def __post_init__(self):
        m, n = self.A.shape
        if not (self.cost.shape == self.lower.shape == self.upper.shape == (n,) == (len(self.var_names),)):
            raise ValueError("inconsistent variable array lengths")
        if not (self.sense.shape == self.rhs.shape == (m,) == (len(self.row_labels),)):
            raise ValueError("inconsistent row array lengths")
        if len(set(self.row_labels)) != m:
            raise ValueError("row labels must be unique")
        lo, up = self.lower, self.upper
        bad = ~np.isfinite(self.cost) | ~(lo <= up) | (lo == INF) | (up == -INF)
        if bad.any():
            j = int(bad.argmax())
            name, c, lo, up = self.var_names[j], float(self.cost[j]), float(lo[j]), float(up[j])
            if not math.isfinite(c):
                raise ValueError(f"variable {name!r}: cost {c} is not finite")
            if math.isnan(lo) or math.isnan(up) or lo == INF or up == -INF:
                raise ValueError(f"variable {name!r}: bad bounds [{lo}, {up}]")
            raise ValueError(f"variable {name!r}: lower bound exceeds upper bound")
        bad = (self.sense != 0.0) & (np.abs(self.sense) != 1.0)
        bad |= ~(np.isfinite(self.rhs) & np.isfinite(self.A).all(axis=1))
        if bad.any():
            raise ValueError(f"row {self.row_labels[int(bad.argmax())]!r}: "
                             "coefficients and right-hand side must be finite, sense -1, 0 or 1")
        for a in (self.cost, self.lower, self.upper, self.A, self.sense, self.rhs):
            a.setflags(write=False)


class LpBuilder:
    """Incremental construction of a LinearProgram.  ``var`` and ``row``
    return the position of what they add, which indexes the program's arrays
    and its solution; ``build`` is the one way to make the program, checked,
    a clearing template's as any other's."""

    def __init__(self):
        self._names: list[str] = []
        self._cost: list[float] = []
        self._lo: list[float] = []
        self._up: list[float] = []
        self._labels: list[str] = []
        self._sense: list[float] = []
        self._rhs: list[float] = []
        self._nnz: list[int] = []  # terms per row
        self._cols: list[int] = []  # the variable of each term, row by row
        self._vals: list[float] = []

    def var(self, name: str, lower: float, upper: float, cost: float = 0.0) -> int:
        self._names.append(name)
        self._cost.append(float(cost))
        self._lo.append(float(lower))
        self._up.append(float(upper))
        return len(self._names) - 1

    def row(self, coeffs: Mapping[int, float], rel: str, rhs: float, label: str) -> int:
        if rel not in _SENSE:
            raise ValueError(f"row {label!r}: bad relation {rel!r}")
        self._labels.append(label)
        self._sense.append(_SENSE[rel])
        self._rhs.append(float(rhs))
        self._nnz.append(len(coeffs))
        self._cols.extend(coeffs)
        self._vals.extend(coeffs.values())
        return len(self._labels) - 1

    def build(self) -> LinearProgram:
        """The checked program: ``A`` written once from the rows' terms, and
        a variable index outside the program rejected by its row's label."""
        cols = np.array(self._cols, dtype=np.intp)
        bad = (cols < 0) | (cols >= len(self._names))
        rows = np.repeat(np.arange(len(self._labels)), self._nnz)
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(f"row {self._labels[rows[k]]!r}: bad variable index {self._cols[k]}")
        vals = np.array(self._vals, dtype=float)
        nonzero = vals != 0.0
        A = np.zeros((len(self._labels), len(self._names)))
        A[rows[nonzero], cols[nonzero]] = vals[nonzero]
        return LinearProgram(np.array(self._cost), np.array(self._lo), np.array(self._up), A,
                             np.array(self._sense), np.array(self._rhs),
                             tuple(self._names), tuple(self._labels))


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    primal: tuple[float, ...]  # by variable position
    duals: tuple[float, ...]  # by row position: d(objective)/d(rhs)
    objective_value: float


class LpNumericalError(ArithmeticError):
    """Raised when the simplex fails to make progress (iteration cap, singular
    basis) or its arithmetic leaves the finite numbers; indicates a
    pathological input rather than infeasibility."""


# the gufuncs np.linalg.solve (for a 1-D right-hand side) and np.linalg.inv call
_solve1, _inv = np.linalg._umath_linalg.solve1, np.linalg._umath_linalg.inv


def _lapack_solve(a: np.ndarray, b: np.ndarray, singular: str) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for a square float64 ``a`` and a float64
    vector ``b``, bit for bit, without its per-call checks.  Run it under
    ``_Simplex.run``'s float-error policy: LAPACK flags a singular ``a`` as an
    invalid operation, which becomes ``LpNumericalError(f"{singular}:
    Singular matrix")``, numpy's ``LinAlgError`` text."""
    try:
        return _solve1(a, b, signature="dd->d")
    except FloatingPointError:
        raise LpNumericalError(f"{singular}: Singular matrix") from None


def _lapack_inv(a: np.ndarray, singular: str = "singular basis (dual solve)") -> np.ndarray:
    """``np.linalg.inv(a)`` of a basis matrix the same way.  The inverse
    prices, so by default a singular ``a`` fails as the dual solve does."""
    try:
        return _inv(a, signature="d->d")
    except FloatingPointError:
        raise LpNumericalError(f"{singular}: Singular matrix") from None


def _inverse_direction(Binv: np.ndarray, column: np.ndarray) -> np.ndarray:
    """The entering direction ``B^-1 a_q`` from the kept basis inverse."""
    return Binv.dot(column)


def _ratio_test(d, xb, basis, lo_b, up_b, entering, direction, span, drift=None):
    """The blocking variable of a step along ``-direction * d`` from ``xb``,
    as ``(t, index, row)``; ``row`` is -1 when the entering column's own
    ``span`` blocks, and ``t`` is inf when nothing does.  The first blocking
    row wins, ties within 1e-12 going to the lowest variable index; only rows
    with ``|d| > PIVOT_TOL`` are visited, and a row with infinite room never
    blocks.

    ``drift = (rel, floor, x_err)`` says how far ``d`` and ``xb`` may be from
    a fresh solve's: each ``d_r`` by ``rel * |d_r| + floor``, each basic
    value by ``x_err``, so a step length ``t = room / |d_r|`` by ``rel * |t|
    + (floor * |t| + x_err) / |d_r|``.  Then it returns None when a decision
    lies within that distance of its threshold: some ``|d_r|`` of
    ``PIVOT_TOL``, or the gap between two compared step lengths of the 1e-12
    tie window.  Every comparison the scan makes is tested, so a scan that
    returns took each branch a fresh solve's scan takes."""
    best_t = span if span < INF else INF
    best_idx = entering if best_t < INF else -1
    best_row, best_err = -1, 0.0
    rel, floor, x_err = drift or (0.0, 0.0, 0.0)
    # |d_r| in (lo, hi] may lie on either side of PIVOT_TOL; with no drift lo = hi
    lo, hi = (PIVOT_TOL - floor) / (1.0 + rel), (PIVOT_TOL + floor) / (1.0 - rel)
    d_list, x_list = d.tolist(), xb.tolist()
    for row in (np.abs(d) > lo).nonzero()[0].tolist():
        d_r = d_list[row]
        size = abs(d_r)
        if size <= hi:
            return None
        room = up_b[row] - x_list[row] if direction * d_r < 0 else x_list[row] - lo_b[row]
        t = room / size
        if t == INF:  # infinite room never blocks; finite room only if its t does not overflow
            if room < INF and drift is not None:
                return None
            continue
        gap = abs(t - best_t)
        err = rel * abs(t) + (floor * abs(t) + x_err) / size
        margin = err + best_err
        if margin and abs(gap - 1e-12) <= margin:
            return None
        k = basis[row]
        if t < best_t - 1e-12 or (gap <= 1e-12 and (best_idx < 0 or k < best_idx)):
            best_t, best_idx, best_row, best_err = t, k, row, err
    return best_t, best_idx, best_row


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the LP.  Infeasibility and unboundedness are reported through the
    solution status, never silently."""
    try:
        return _Simplex(lp).run()
    except FloatingPointError as exc:  # an invalid operation under the run's float-error policy
        raise LpNumericalError(f"non-finite arithmetic: {exc}") from None


class _Simplex:
    def __init__(self, lp: LinearProgram):
        m, n = lp.A.shape
        self.n_struct = n
        self.m = m

        # columns: structural | row slacks (coefficient ``sense``) | artificials
        slack_rows = np.flatnonzero(lp.sense)
        self.art0 = n + slack_rows.size
        self.ncols = ncols = self.art0 + m
        self.A = np.zeros((m, ncols))
        self.A[:, :n] = lp.A
        self.A[slack_rows, n + np.arange(slack_rows.size)] = lp.sense[slack_rows]
        self.b = lp.rhs

        self.lower = np.full(ncols, 0.0)
        self.upper = np.full(ncols, INF)
        self.lower[:n] = lp.lower
        self.upper[:n] = lp.upper

        self.cost_real = np.zeros(ncols)
        self.cost_real[:n] = lp.cost

    # -- driver ------------------------------------------------------------
    # one float-error policy for the whole run, the one np.linalg.solve sets
    # around its gufunc: LAPACK flags a singular basis as an invalid
    # operation, and so does non-finite arithmetic (inf - inf, 0 * inf);
    # overflow to inf, division and underflow pass silently
    @np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")
    def run(self) -> LpSolution:
        self._init_basis()
        phase1_cost = np.zeros(self.ncols)
        phase1_cost[self.art0:] = 1.0
        # the sum of artificials is bounded below, so phase 1 ends optimal or raises
        self._iterate(phase1_cost, phase=1)
        if (self.x[self.art0:] > FEAS_TOL * (1.0 + np.abs(self.b))).any():
            return self._report("infeasible")
        self._expel_artificials()
        self.upper[self.art0:] = 0.0  # artificials are pinned at zero, their lower bound, for phase 2
        return self._report(self._iterate(self.cost_real, phase=2))

    def _init_basis(self):
        lo, up = self.lower, self.upper
        free = (lo == -INF) & (up == INF)
        has_lower = lo > -INF
        self.status = np.where(free, _FREE_NB, np.where(has_lower, _AT_LOWER, _AT_UPPER))
        self.x = np.where(free, 0.0, np.where(has_lower, lo, up))
        rows = np.arange(self.m)
        self.basis = self.art0 + rows
        self.status[self.basis] = _BASIC
        nonbasic = self.status != _BASIC  # gathered as _solve_basics does: x_B is a solve's bits
        resid = self.b - self.A[:, nonbasic] @ self.x[nonbasic]
        signs = np.where(resid >= 0, 1.0, -1.0)
        self.A[rows, self.basis] = signs
        self.x[self.basis] = resid / signs  # B x_B = resid with B = diag(signs)
        self.Binv, self.age = np.diag(signs), 0  # the basis inverse and its updates; diag(+-1) is its own

    # -- simplex core --------------------------------------------------------
    def _solve_basics(self, B: np.ndarray) -> np.ndarray:
        """Solve ``B x_B = b - A_N x_N``, store ``x_B`` and return it."""
        nonbasic = self.status != _BASIC
        xb = _lapack_solve(B, self.b - self.A[:, nonbasic] @ self.x[nonbasic], "singular basis")
        self.x[self.basis] = xb
        return xb

    def _iterate(self, cost: np.ndarray, phase: int) -> str:
        """Pivot to an optimum of ``cost``.  The basis ``B`` is gathered once,
        at the start; ``x_B`` and the basis inverse ``Binv`` are the ones the
        run holds (``_init_basis``' for phase 1, phase 1's or
        ``_expel_artificials``' for phase 2), so neither phase solves at its
        start.  A pivot or bound flip takes its direction ``Binv @ A[:, q]``
        from the inverse, and ``_ratio_test`` picks the blocking variable
        allowing for the drift of that direction and of ``x_B``; a pick it
        cannot make within that drift is made again on a fresh solve of
        ``x_B`` and of the direction, without the allowance.  A pivot then
        writes the entering column into ``B`` and a step of length ``t``
        moves ``x_B`` by ``t`` times the direction the ratio test read, the
        entering variable's new value taking the leaving row's slot.  A new
        basis updates ``Binv`` by that direction, or inverts ``B`` afresh,
        and solves ``x_B`` afresh, when ``Binv`` has had ``REINVERT_EVERY``
        updates.  Every basis is priced from ``Binv``.  When no column
        improves in phase 2 on those duals, one dual solve on the final basis
        prices again, and pivoting goes on if a column improves on those
        duals.  Each column's improving sign (+1 may increase, -1 may
        decrease, 0 neither or either way), the nonbasic free columns, and
        the basis with its bounds as Python lists are kept across pivots.  At
        the optimum ``x_B`` is solved again on the final basis if a step has
        moved it since it was last set, so ``self.x`` and, in phase 2,
        ``self.y`` hold what a fresh solve of that basis gives."""
        A, st = self.A, self.status
        movable = ~(self.upper - self.lower <= 0)  # fixed variables never enter
        lower, upper, can_move = self.lower.tolist(), self.upper.tolist(), movable.tolist()
        sign = (movable & (st == _AT_LOWER)).astype(float) - (movable & (st == _AT_UPPER))
        free = np.flatnonzero(st == _FREE_NB)  # may move either way; once basic, never leaves
        basis = self.basis.tolist()
        lo_b, up_b = [lower[k] for k in basis], [upper[k] for k in basis]
        B, cb = A[:, self.basis], cost[self.basis]
        xb, Binv, age = self.x[self.basis], self.Binv, self.age
        moved = False  # has a step changed x since xb was solved?
        solved = False  # priced by a dual solve, not from Binv
        rc = None
        for _ in range(MAX_ITERATIONS):
            if rc is None:
                y = _lapack_solve(B.T, cb, "singular basis (dual solve)") if solved else cb @ Binv
                rc = cost - y @ A
            # Bland's rule: the lowest-indexed improving nonbasic column
            improving = sign * rc < -OPT_TOL
            if free.size:
                improving[free[np.abs(rc[free]) > OPT_TOL]] = True
            entering = int(improving.argmax())
            if not improving[entering]:
                if phase == 2 and not solved:
                    rc, solved = None, True
                    continue
                if moved:
                    self._solve_basics(B)
                self.y, self.Binv, self.age = y, Binv, age
                return "optimal"
            direction = int(sign[entering]) or (1 if rc[entering] < 0 else -1)
            span = upper[entering] - lower[entering]
            column = A[:, entering]
            d = _inverse_direction(Binv, column)
            drift = DIRECTION_DRIFT, DIRECTION_FLOOR, BASICS_DRIFT * (1.0 + math.sqrt(xb.dot(xb)))
            pick = _ratio_test(d, xb, basis, lo_b, up_b, entering, direction, span, drift)
            if pick is None:  # within the drift of a threshold: decide as a fresh solve does
                xb = self._solve_basics(B)
                d = _lapack_solve(B, column, "singular basis")
                pick = _ratio_test(d, xb, basis, lo_b, up_b, entering, direction, span)
            best_t, best_idx, best_row = pick
            if best_t == INF:
                if phase == 1:
                    raise LpNumericalError("unbounded phase-1 subproblem")
                return "unbounded"

            xb -= (direction * best_t) * d  # x_B + t * delta, delta = -direction * d
            moved = True
            if best_idx == entering:  # bound flip, basis unchanged
                leaving, to_upper = entering, direction > 0
            else:
                d_r = float(d[best_row])
                leaving, to_upper = best_idx, direction * d_r < 0
                xb[best_row] = self.x[entering] + direction * best_t
                self.basis[best_row] = basis[best_row] = entering
                B[:, best_row] = column
                cb[best_row] = cost[entering]
                st[entering] = _BASIC
                sign[entering] = 0.0
                if free.size:
                    free = free[free != entering]
                lo_b[best_row], up_b[best_row] = lower[entering], upper[entering]
                rc, solved = None, False
            st[leaving] = _AT_UPPER if to_upper else _AT_LOWER
            self.x[leaving] = upper[leaving] if to_upper else lower[leaving]
            sign[leaving] = (-1.0 if to_upper else 1.0) if can_move[leaving] else 0.0
            if best_idx == entering:
                continue
            if age == REINVERT_EVERY:  # invert afresh, and solve x_B afresh with it
                Binv, age = _lapack_inv(B), 0
                xb, moved = self._solve_basics(B), False
            else:  # eta update: row r /= d_r, then row i -= d_i * row r for i != r
                pivot_row = Binv[best_row]
                pivot_row /= d_r
                d[best_row] = 0.0  # d is spent: keeps row r out of the subtraction
                Binv -= np.dot(d[:, None], pivot_row[None, :])  # np.multiply.outer's values, through BLAS
                age += 1
        raise LpNumericalError("iteration limit exceeded")

    def _expel_artificials(self):
        """Pivot basic artificials out where possible; rows that cannot be
        re-based are redundant and keep a zero-valued artificial (dual 0).
        Rows are read from a fresh inverse of the basis: phase 1's if it has
        taken no updates, else one inverted here; each pivot inverts its new
        basis, so phase 2 starts from the inverse of the basis this ends on."""
        singular = "singular basis (expelling an artificial)"
        for pos in np.flatnonzero(self.basis >= self.art0):
            if self.age:  # rows are read from a fresh inverse
                self.Binv, self.age = _lapack_inv(self.A[:, self.basis], singular), 0
            row = self.Binv[pos] @ self.A[:, : self.art0]
            pivots = np.flatnonzero((self.status[: self.art0] != _BASIC) & (np.abs(row) > PIVOT_TOL))
            if pivots.size:
                j = self.basis[pos]
                self.status[j] = _AT_LOWER
                self.x[j] = 0.0
                self.basis[pos] = pivots[0]
                self.status[pivots[0]] = _BASIC
                self._solve_basics(self.A[:, self.basis])
                self.Binv = _lapack_inv(self.A[:, self.basis], singular)

    # -- reporting -----------------------------------------------------------
    def _report(self, status: str) -> LpSolution:
        """The solution at the last iterate; an optimum reuses the basic
        values and duals ``_iterate`` solved on the final basis, so nothing is
        solved here."""
        n, m = self.n_struct, self.m
        if status != "optimal":
            return LpSolution(status, (0.0,) * n, (0.0,) * m, 0.0)
        obj = float(self.cost_real[:n] @ self.x[:n])  # huge finite costs overflow to inf silently
        return LpSolution(status, tuple(self.x[:n].tolist()), tuple(self.y.tolist()), obj)
