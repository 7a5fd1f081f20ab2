"""Dense linear-program solver with dual multipliers.

Minimizes c'x subject to general rows (<=, =, >=) and variable bounds, using a
bounded-variable two-phase primal simplex with Bland's rule for anti-cycling.
Every run is deterministic: identical inputs produce bit-identical solutions.

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
        for lo, up, name in zip(self.var_lower, self.var_upper, self.var_names):
            if lo > up:
                raise ValueError(f"variable {name!r}: lower bound exceeds upper bound")


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
        status = self._iterate(phase1_cost, phase=1)
        if status != "optimal":
            raise LpNumericalError("phase 1 did not terminate at an optimum")
        art_sum = float(self.x[self.art0:].sum())
        if art_sum > FEAS_TOL * (1.0 + float(np.abs(self.b).sum())):
            return self._report("infeasible")
        self._expel_artificials()
        # artificials are pinned at zero for phase 2
        self.lower[self.art0:] = 0.0
        self.upper[self.art0:] = 0.0
        status = self._iterate(self.cost_real, phase=2)
        return self._report(status)

    def _init_basis(self):
        self.status = np.full(self.ncols, _AT_LOWER, dtype=int)
        self.x = np.zeros(self.ncols)
        for j in range(self.ncols):
            lo, up = self.lower[j], self.upper[j]
            if lo == -INF and up == INF:
                self.status[j] = _FREE_NB
                self.x[j] = 0.0
            elif lo > -INF:
                self.status[j] = _AT_LOWER
                self.x[j] = lo
            else:
                self.status[j] = _AT_UPPER
                self.x[j] = up
        resid = self.b - self.A[:, : self.art0] @ self.x[: self.art0]
        self.basis = []
        for i in range(self.m):
            j = self.art0 + i
            self.A[i, j] = 1.0 if resid[i] >= 0 else -1.0
            self.x[j] = abs(resid[i])
            self.status[j] = _BASIC
            self.basis.append(j)

    # -- simplex core --------------------------------------------------------
    def _basis_matrix(self) -> np.ndarray:
        return self.A[:, self.basis]

    def _recompute_basics(self):
        nb_mask = np.ones(self.ncols, dtype=bool)
        nb_mask[self.basis] = False
        rhs = self.b - self.A[:, nb_mask] @ self.x[nb_mask]
        try:
            xb = np.linalg.solve(self._basis_matrix(), rhs)
        except np.linalg.LinAlgError as exc:
            raise LpNumericalError(f"singular basis: {exc}") from exc
        for pos, j in enumerate(self.basis):
            self.x[j] = xb[pos]

    def _duals(self, cost: np.ndarray) -> np.ndarray:
        cb = cost[self.basis]
        try:
            return np.linalg.solve(self._basis_matrix().T, cb)
        except np.linalg.LinAlgError as exc:
            raise LpNumericalError(f"singular basis (dual solve): {exc}") from exc

    def _iterate(self, cost: np.ndarray, phase: int) -> str:
        tol = OPT_TOL
        for _ in range(MAX_ITERATIONS):
            self._recompute_basics()
            y = self._duals(cost)
            rc = cost - y @ self.A
            entering, direction = -1, 0
            for j in range(self.ncols):
                st = self.status[j]
                if st == _BASIC:
                    continue
                if self.upper[j] - self.lower[j] <= 0:
                    continue  # fixed variable
                if (st in (_AT_LOWER, _FREE_NB)) and rc[j] < -tol:
                    entering, direction = j, 1
                    break
                if (st in (_AT_UPPER, _FREE_NB)) and rc[j] > tol:
                    entering, direction = j, -1
                    break
            if entering < 0:
                return "optimal"

            d = np.linalg.solve(self._basis_matrix(), self.A[:, entering])
            # step limit from the entering variable's own opposite bound
            span = self.upper[entering] - self.lower[entering]
            best_t = span if span < INF else INF
            best_idx = entering if best_t < INF else -1
            for pos, k in enumerate(self.basis):
                delta = -direction * d[pos]
                if delta > PIVOT_TOL:
                    room = self.upper[k] - self.x[k]
                    t = room / delta if room < INF else INF
                elif delta < -PIVOT_TOL:
                    room = self.x[k] - self.lower[k]
                    t = room / (-delta) if room < INF else INF
                else:
                    continue
                if t < best_t - 1e-12 or (abs(t - best_t) <= 1e-12 and (best_idx < 0 or k < best_idx)):
                    best_t, best_idx = t, k
            if best_t == INF:
                if phase == 1:
                    raise LpNumericalError("unbounded phase-1 subproblem")
                return "unbounded"

            t = max(best_t, 0.0)
            self.x[entering] += direction * t
            for pos in range(self.m):
                self.x[self.basis[pos]] -= direction * t * d[pos]
            if best_idx == entering:
                # bound flip, basis unchanged
                self.status[entering] = _AT_UPPER if direction > 0 else _AT_LOWER
                self.x[entering] = self.upper[entering] if direction > 0 else self.lower[entering]
            else:
                pos = self.basis.index(best_idx)
                leaving = self.basis[pos]
                delta = -direction * d[pos]
                if delta > 0:
                    self.status[leaving] = _AT_UPPER
                    self.x[leaving] = self.upper[leaving]
                else:
                    self.status[leaving] = _AT_LOWER
                    self.x[leaving] = self.lower[leaving]
                self.basis[pos] = entering
                self.status[entering] = _BASIC
        raise LpNumericalError("iteration limit exceeded")

    def _expel_artificials(self):
        """Pivot basic artificials out where possible; rows that cannot be
        re-based are redundant and keep a zero-valued artificial (dual 0)."""
        for pos in range(self.m):
            j = self.basis[pos]
            if j < self.art0:
                continue
            binv = np.linalg.inv(self._basis_matrix())
            row = binv[pos] @ self.A[:, : self.art0]
            pivot = -1
            for cand in range(self.art0):
                if self.status[cand] == _BASIC:
                    continue
                if abs(row[cand]) > PIVOT_TOL:
                    pivot = cand
                    break
            if pivot >= 0:
                self.status[j] = _AT_LOWER
                self.x[j] = 0.0
                self.basis[pos] = pivot
                self.status[pivot] = _BASIC
                self._recompute_basics()

    # -- reporting -----------------------------------------------------------
    def _report(self, status: str) -> LpSolution:
        lp = self.lp
        if status != "optimal":
            zeros = {name: 0.0 for name in lp.var_names}
            return LpSolution(status, zeros, {r.label: 0.0 for r in lp.rows},
                              dict(zeros), 0.0)
        self._recompute_basics()
        y = self._duals(self.cost_real)
        rc_all = self.cost_real - y @ self.A
        primal = {name: float(self.x[j]) for j, name in enumerate(lp.var_names)}
        duals = {r.label: float(y[i]) for i, r in enumerate(lp.rows)}
        reduced = {name: float(rc_all[j]) for j, name in enumerate(lp.var_names)}
        with np.errstate(over="ignore"):  # huge finite costs overflow to inf without a stderr warning
            obj = float(self.cost_real[: self.n_struct] @ self.x[: self.n_struct])
        return LpSolution(status, primal, duals, reduced, obj)
