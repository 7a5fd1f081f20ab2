"""Dense linear-program solver with dual multipliers.

Minimizes c'x subject to general rows (<=, =, >=) and variable bounds, using a
bounded-variable two-phase primal simplex with Bland's rule for anti-cycling.
Every run is deterministic: identical inputs produce bit-identical solutions.

Each phase gathers the basis matrix and solves the basic values once, at its
start.  A pivot then costs one dense LAPACK solve for the entering direction
and, when the basis changes, one for the duals: the basis matrix gets the
entering column in place, and the basic values move by the step just taken
instead of being solved afresh.  At a phase's optimum the basic values are
solved once more on the final basis (unless no step moved them), so the
phase-1 feasibility test, the start of phase 2 and the report read exactly
what a fresh solve of that basis gives.  Pricing and the ratio test are array
scans that make Bland's choice.  The masks they read (which nonbasic columns
may increase or decrease, which columns are nonbasic) and the bounds of the
basic variables are kept across pivots, and a pivot or bound flip updates
only the positions it touches.  Against the plain method, which solves the
basic values, duals and direction at every pivot, the contract is the same
pivot path, and reported numbers that come from the same solves on the
final basis.

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


@dataclass(frozen=True)
class LpRow:
    coeffs: tuple[tuple[int, float], ...]  # (variable index, coefficient)
    rel: str  # "<=", "=", ">="
    rhs: float
    label: str

    def __post_init__(self):
        if self.rel not in ("<=", "=", ">="):
            raise ValueError(f"row {self.label!r}: bad relation {self.rel!r}")


@dataclass(frozen=True)
class LinearProgram:
    objective: tuple[float, ...]  # minimize
    var_lower: tuple[float, ...]
    var_upper: tuple[float, ...]
    rows: tuple[LpRow, ...]
    var_names: tuple[str, ...]

    def __post_init__(self):
        n = len(self.objective)
        if not (len(self.var_lower) == len(self.var_upper) == len(self.var_names) == n):
            raise ValueError("inconsistent variable array lengths")
        labels = [r.label for r in self.rows]
        if len(set(labels)) != len(labels):
            raise ValueError("row labels must be unique")
        for c, lo, up, name in zip(self.objective, self.var_lower, self.var_upper, self.var_names):
            if not math.isfinite(c):
                raise ValueError(f"variable {name!r}: cost {c} is not finite")
            if math.isnan(lo) or math.isnan(up) or lo == INF or up == -INF:
                raise ValueError(f"variable {name!r}: bad bounds [{lo}, {up}]")
            if lo > up:
                raise ValueError(f"variable {name!r}: lower bound exceeds upper bound")
        for r in self.rows:
            if not (math.isfinite(r.rhs) and all(math.isfinite(v) for _, v in r.coeffs)):
                raise ValueError(f"row {r.label!r}: coefficients and right-hand side must be finite")


class LpBuilder:
    """Incremental construction of a LinearProgram with named variables."""

    def __init__(self):
        self._names: list[str] = []
        self._cost: list[float] = []
        self._lo: list[float] = []
        self._up: list[float] = []
        self._rows: list[LpRow] = []

    def var(self, name: str, lower: float, upper: float, cost: float = 0.0) -> int:
        self._names.append(name)
        self._cost.append(float(cost))
        self._lo.append(float(lower))
        self._up.append(float(upper))
        return len(self._names) - 1

    def row(self, coeffs: Mapping[int, float], rel: str, rhs: float, label: str) -> None:
        packed = tuple(sorted((int(i), float(v)) for i, v in coeffs.items() if v != 0.0))
        self._rows.append(LpRow(packed, rel, float(rhs), label))

    def build(self) -> LinearProgram:
        return LinearProgram(
            tuple(self._cost), tuple(self._lo), tuple(self._up),
            tuple(self._rows), tuple(self._names),
        )


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    primal: dict[str, float]
    duals: dict[str, float]  # row label -> d(objective)/d(rhs)
    reduced_costs: dict[str, float]
    objective_value: float


class LpNumericalError(ArithmeticError):
    """Raised when the simplex fails to make progress (iteration cap, singular
    basis); indicates a pathological input rather than infeasibility."""


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the LP.  Infeasibility and unboundedness are reported through the
    solution status, never silently."""
    return _Simplex(lp).run()


class _Simplex:
    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = len(lp.objective)
        m = len(lp.rows)
        self.n_struct = n
        self.m = m

        # columns: structural | row slacks (<=: +1, >=: -1) | artificials
        self.slack_of_row = [-1] * m
        ncols = n
        for i, r in enumerate(lp.rows):
            if r.rel in ("<=", ">="):
                self.slack_of_row[i] = ncols
                ncols += 1
        self.art0 = ncols
        ncols += m
        self.ncols = ncols

        self.A = np.zeros((m, ncols))
        self.b = np.array([r.rhs for r in lp.rows], dtype=float)
        for i, r in enumerate(lp.rows):
            for j, v in r.coeffs:
                if not 0 <= j < n:
                    raise ValueError(f"row {r.label!r}: bad variable index {j}")
                self.A[i, j] += v
            if r.rel == "<=":
                self.A[i, self.slack_of_row[i]] = 1.0
            elif r.rel == ">=":
                self.A[i, self.slack_of_row[i]] = -1.0

        self.lower = np.full(ncols, 0.0)
        self.upper = np.full(ncols, INF)
        self.lower[:n] = lp.var_lower
        self.upper[:n] = lp.var_upper

        self.cost_real = np.zeros(ncols)
        self.cost_real[:n] = lp.objective

    # -- driver ------------------------------------------------------------
    def run(self) -> LpSolution:
        self._init_basis()
        phase1_cost = np.zeros(self.ncols)
        phase1_cost[self.art0:] = 1.0
        # the sum of artificials is bounded below, so phase 1 ends optimal or raises
        self._iterate(phase1_cost, phase=1)
        art_sum = float(self.x[self.art0:].sum())
        if art_sum > FEAS_TOL * (1.0 + float(np.abs(self.b).sum())):
            return self._report("infeasible")
        self._expel_artificials()
        # artificials are pinned at zero for phase 2
        self.lower[self.art0:] = 0.0
        self.upper[self.art0:] = 0.0
        return self._report(self._iterate(self.cost_real, phase=2))

    def _init_basis(self):
        lo, up = self.lower, self.upper
        free = (lo == -INF) & (up == INF)
        has_lower = lo > -INF
        self.status = np.where(free, _FREE_NB, np.where(has_lower, _AT_LOWER, _AT_UPPER))
        self.x = np.where(free, 0.0, np.where(has_lower, lo, up))
        resid = self.b - self.A[:, : self.art0] @ self.x[: self.art0]
        rows = np.arange(self.m)
        self.basis = self.art0 + rows
        self.A[rows, self.basis] = np.where(resid >= 0, 1.0, -1.0)
        self.x[self.basis] = np.abs(resid)
        self.status[self.basis] = _BASIC

    # -- simplex core --------------------------------------------------------
    def _solve_basics(self, B: np.ndarray, nonbasic: np.ndarray) -> np.ndarray:
        """Solve ``B x_B = b - A_N x_N``, store ``x_B`` and return it."""
        rhs = self.b - self.A[:, nonbasic] @ self.x[nonbasic]
        try:
            xb = np.linalg.solve(B, rhs)
        except np.linalg.LinAlgError as exc:
            raise LpNumericalError(f"singular basis: {exc}") from exc
        self.x[self.basis] = xb
        return xb

    def _iterate(self, cost: np.ndarray, phase: int) -> str:
        """Pivot to an optimum of ``cost``.  The basis ``B`` is gathered and
        the basic values ``x_B`` solved once, at the start; a pivot then
        writes the entering column into ``B`` and a step of length ``t``
        moves ``x_B`` by ``t`` times the direction the ratio test read, the
        entering variable's new value taking the leaving row's slot.  Each
        pivot or bound flip makes one direction solve, and each new basis one
        dual solve.  The nonbasic mask, the pricing masks (columns that may
        increase or decrease) and the bounds of the basic variables are kept
        the same way.  At the optimum ``x_B`` is solved again on the final
        basis if a step has moved it, so ``self.x``, ``self.y`` and
        ``self.rc`` hold exactly what a fresh solve of that basis gives."""
        movable = ~(self.upper - self.lower <= 0)  # fixed variables never enter
        st = self.status
        nonbasic = st != _BASIC
        can_up = movable & ((st == _AT_LOWER) | (st == _FREE_NB))
        can_down = movable & ((st == _AT_UPPER) | (st == _FREE_NB))
        lo_b, up_b = self.lower[self.basis], self.upper[self.basis]
        B = self.A[:, self.basis]
        xb = self._solve_basics(B, nonbasic)
        moved = False  # has a step changed x since xb was solved?
        rc = None
        for _ in range(MAX_ITERATIONS):
            if rc is None:
                try:
                    y = np.linalg.solve(B.T, cost[self.basis])
                except np.linalg.LinAlgError as exc:
                    raise LpNumericalError(f"singular basis (dual solve): {exc}") from exc
                rc = cost - y @ self.A
            # Bland's rule: the lowest-indexed improving nonbasic column
            up = can_up & (rc < -OPT_TOL)
            improving = up | (can_down & (rc > OPT_TOL))
            entering = int(improving.argmax())
            if not improving[entering]:
                if moved:
                    self._solve_basics(B, nonbasic)
                self.y, self.rc = y, rc
                return "optimal"
            direction = 1 if up[entering] else -1

            # ratio test: the first blocking row, ties within 1e-12 to the
            # lowest variable index; the entering column's own span blocks too
            delta = -direction * np.linalg.solve(B, self.A[:, entering])
            room = np.where(delta > 0, up_b - xb, xb - lo_b)
            size = np.abs(delta)
            rows = ((size > PIVOT_TOL) & (room < INF)).nonzero()[0]
            span = self.upper[entering] - self.lower[entering]
            best_t = span if span < INF else INF
            best_idx = entering if best_t < INF else -1
            best_row = -1
            for row, t, k in zip(rows.tolist(), (room[rows] / size[rows]).tolist(),
                                 self.basis[rows].tolist()):
                if t < best_t - 1e-12 or (abs(t - best_t) <= 1e-12 and (best_idx < 0 or k < best_idx)):
                    best_t, best_idx, best_row = t, k, row
            if best_t == INF:
                if phase == 1:
                    raise LpNumericalError("unbounded phase-1 subproblem")
                return "unbounded"

            xb += best_t * delta
            moved = True
            if best_idx == entering:  # bound flip, basis unchanged
                leaving, to_upper = entering, direction > 0
            else:
                leaving, to_upper = best_idx, delta[best_row] > 0
                xb[best_row] = self.x[entering] + direction * best_t
                self.basis[best_row] = entering
                B[:, best_row] = self.A[:, entering]
                self.status[entering] = _BASIC
                nonbasic[entering], nonbasic[leaving] = False, True
                can_up[entering] = can_down[entering] = False
                lo_b[best_row], up_b[best_row] = self.lower[entering], self.upper[entering]
                rc = None
            self.status[leaving] = _AT_UPPER if to_upper else _AT_LOWER
            self.x[leaving] = self.upper[leaving] if to_upper else self.lower[leaving]
            can_up[leaving] = movable[leaving] and not to_upper
            can_down[leaving] = movable[leaving] and to_upper
        raise LpNumericalError("iteration limit exceeded")

    def _expel_artificials(self):
        """Pivot basic artificials out where possible; rows that cannot be
        re-based are redundant and keep a zero-valued artificial (dual 0)."""
        for pos in np.flatnonzero(self.basis >= self.art0):
            row = np.linalg.inv(self.A[:, self.basis])[pos] @ self.A[:, : self.art0]
            pivots = np.flatnonzero((self.status[: self.art0] != _BASIC) & (np.abs(row) > PIVOT_TOL))
            if pivots.size:
                j = self.basis[pos]
                self.status[j] = _AT_LOWER
                self.x[j] = 0.0
                self.basis[pos] = pivots[0]
                self.status[pivots[0]] = _BASIC
                self._solve_basics(self.A[:, self.basis], self.status != _BASIC)

    # -- reporting -----------------------------------------------------------
    def _report(self, status: str) -> LpSolution:
        """The solution at the last iterate; an optimum reuses the basic
        values, duals and reduced costs ``_iterate`` solved on the final
        basis, so nothing is solved here."""
        lp = self.lp
        if status != "optimal":
            zeros = {name: 0.0 for name in lp.var_names}
            return LpSolution(status, zeros, {r.label: 0.0 for r in lp.rows},
                              dict(zeros), 0.0)
        n = self.n_struct
        primal = dict(zip(lp.var_names, self.x[:n].tolist()))
        duals = dict(zip((r.label for r in lp.rows), self.y.tolist()))
        reduced = dict(zip(lp.var_names, self.rc[:n].tolist()))
        with np.errstate(over="ignore"):  # huge finite costs overflow to inf without a stderr warning
            obj = float(self.cost_real[:n] @ self.x[:n])
        return LpSolution(status, primal, duals, reduced, obj)
