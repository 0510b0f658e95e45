"""Self-contained mixed-integer linear programming layer.

Model building, and best-first branch-and-bound over binary variables on
a bounded-variable simplex.  The root LP is solved cold by a two-phase
primal simplex; every child, which differs from its parent only by one
fixed binary, is re-solved warm from the parent's optimal basis by a
bounded dual simplex, usually in a few pivots.  A basis that fails to
invert is reported as NumericalFailure, never as infeasibility; a child
that hits one is re-solved cold once.  Deterministic throughout: dense
linear algebra, lowest-index tie-breaks, no cutting planes, no presolve
beyond dropping empty constraints.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

INF = float("inf")

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
ITERATION_LIMIT = "IterationLimit"
NUMERICAL_FAILURE = "NumericalFailure"


class ModelError(ValueError):
    """Invalid model construction (unknown variable, inverted bounds, ...)."""


class UnboundedModelError(RuntimeError):
    """The MILP relaxation is unbounded; no finite optimum exists."""


@dataclass(frozen=True)
class SolverConfig:
    integrality_tol: float = 1e-6
    relative_gap: float = 1e-6
    max_nodes: int = 10**6
    max_simplex_iters: int = 10**5

    def __post_init__(self):
        if min(self.integrality_tol, self.relative_gap) <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class _Constraint:
    idx: np.ndarray      # variable ids, unique and sorted
    coef: np.ndarray
    rel: str
    rhs: float
    name: str = ""


class ModelBuilder:
    """Incremental model construction; build() freezes it."""

    def __init__(self):
        self._lb = []
        self._ub = []
        self._binary = []
        self._names = []
        self._constraints = []
        self._obj = {}

    @property
    def num_vars(self) -> int:
        return len(self._lb)

    def add_continuous(self, lb=-INF, ub=INF, name: str = "") -> int:
        if lb > ub:
            raise ModelError(f"inverted bounds [{lb}, {ub}] on {name or 'var'}")
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._binary.append(False)
        self._names.append(name or f"x{len(self._lb) - 1}")
        return len(self._lb) - 1

    def add_binary(self, name: str = "") -> int:
        self._lb.append(0.0)
        self._ub.append(1.0)
        self._binary.append(True)
        self._names.append(name or f"d{len(self._lb) - 1}")
        return len(self._lb) - 1

    def _canonical(self, coeffs) -> tuple:
        acc = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for var, coef in items:
            var = int(var)
            if var < 0 or var >= self.num_vars:
                raise ModelError(f"unknown variable id {var}")
            acc[var] = acc.get(var, 0.0) + float(coef)
        idx = np.array(sorted(acc), dtype=int)
        coef = np.array([acc[i] for i in idx], dtype=float)
        return idx, coef

    def add_constraint(self, coeffs, rel: str, rhs: float, name: str = ""):
        """coeffs: dict {var: coef} or iterable of (var, coef) pairs.

        Duplicate coefficients on the same variable are summed.
        """
        if rel not in _RELATIONS:
            raise ModelError(f"unknown relation {rel!r}")
        idx, coef = self._canonical(coeffs)
        self._constraints.append(_Constraint(idx, coef, rel, float(rhs), name))

    def set_objective(self, coeffs):
        idx, coef = self._canonical(coeffs)
        self._obj = dict(zip(idx.tolist(), coef.tolist()))

    def build(self) -> "MilpModel":
        n = self.num_vars
        obj = np.zeros(n)
        for var, coef in self._obj.items():
            obj[var] = coef
        return MilpModel(
            lb=np.array(self._lb),
            ub=np.array(self._ub),
            is_binary=np.array(self._binary, dtype=bool),
            names=tuple(self._names),
            constraints=tuple(self._constraints),
            objective=obj,
        )


@dataclass(frozen=True)
class MilpModel:
    lb: np.ndarray
    ub: np.ndarray
    is_binary: np.ndarray
    names: tuple
    constraints: tuple
    objective: np.ndarray

    @property
    def num_vars(self) -> int:
        return self.lb.shape[0]

    def constraint_violation(self, x: np.ndarray) -> float:
        """Max violation of all constraints and bounds at x."""
        worst = max(float(np.max(self.lb - x, initial=0.0)),
                    float(np.max(x - self.ub, initial=0.0)))
        for c in self.constraints:
            lhs = float(c.coef @ x[c.idx])
            if c.rel == LE:
                worst = max(worst, lhs - c.rhs)
            elif c.rel == GE:
                worst = max(worst, c.rhs - lhs)
            else:
                worst = max(worst, abs(lhs - c.rhs))
        return worst

    def dump_lp(self) -> str:
        """LP-format-like plain text for debugging; not bit-critical."""
        lines = ["Minimize"]
        terms = [f"{c:+g} {self.names[i]}"
                 for i, c in enumerate(self.objective) if c != 0.0]
        lines.append("  " + (" ".join(terms) if terms else "0"))
        lines.append("Subject To")
        for k, c in enumerate(self.constraints):
            lhs = " ".join(f"{v:+g} {self.names[i]}" for i, v in zip(c.idx, c.coef))
            lines.append(f"  {c.name or f'c{k}'}: {lhs or '0'} {c.rel} {c.rhs:g}")
        lines.append("Bounds")
        for i in range(self.num_vars):
            lines.append(f"  {self.lb[i]:g} <= {self.names[i]} <= {self.ub[i]:g}")
        binaries = [self.names[i] for i in range(self.num_vars) if self.is_binary[i]]
        if binaries:
            lines.append("Binaries")
            lines.append("  " + " ".join(binaries))
        lines.append("End")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LpResult:
    status: str                       # Optimal | Infeasible | Unbounded | IterationLimit | NumericalFailure
    x: np.ndarray | None
    objective_value: float
    iterations: int


@dataclass(frozen=True)
class MilpSolution:
    status: str                       # Optimal | Infeasible | IterationLimit | NumericalFailure
    values: np.ndarray | None
    objective_value: float
    stats: dict = field(default_factory=dict)

    def value(self, var: int) -> float:
        return float(self.values[var])


# ---------------------------------------------------------------------------
# Standard form: A x = rhs with bounded variables (structurals then slacks).
# ---------------------------------------------------------------------------

class _Standardized:
    def __init__(self, model: MilpModel):
        # Trivially satisfied empty constraints are dropped; a violated
        # empty constraint makes the whole model infeasible.
        rows = []
        self.trivially_infeasible = False
        for c in model.constraints:
            if c.idx.size == 0:
                ok = ((c.rel == LE and 0.0 <= c.rhs + 1e-12)
                      or (c.rel == GE and 0.0 >= c.rhs - 1e-12)
                      or (c.rel == EQ and abs(c.rhs) <= 1e-12))
                if not ok:
                    self.trivially_infeasible = True
                continue
            rows.append(c)
        n = model.num_vars
        m = len(rows)
        n_slack = sum(1 for c in rows if c.rel != EQ)
        A = np.zeros((m, n + n_slack))
        rhs = np.zeros(m)
        slack_of_row = np.full(m, -1, dtype=int)
        lb = np.concatenate([model.lb, np.zeros(n_slack)])
        ub = np.concatenate([model.ub, np.zeros(n_slack)])
        s = n
        for r, c in enumerate(rows):
            A[r, c.idx] = c.coef
            rhs[r] = c.rhs
            if c.rel == LE:
                A[r, s] = 1.0
                lb[s], ub[s] = 0.0, INF
                slack_of_row[r] = s
                s += 1
            elif c.rel == GE:
                A[r, s] = 1.0
                lb[s], ub[s] = -INF, 0.0
                slack_of_row[r] = s
                s += 1
        self.A = A
        self.slack_of_row = slack_of_row
        self.rhs = rhs
        self.lb = lb
        self.ub = ub
        self.n_structural = n
        c_full = np.zeros(n + n_slack)
        c_full[:n] = model.objective
        self.c = c_full


class _Basis(NamedTuple):
    """An LP's final state, from which a child LP starts warm.

    A_full is the constraint matrix with the artificial columns of the
    cold solve it descends from; x holds every variable's value, and only
    the nonbasic ones are read back (the basic ones are recomputed).
    """
    A_full: np.ndarray
    basis: np.ndarray
    x: np.ndarray


def _simplex(A, rhs, c, lb, ub, max_iters, tol=1e-9, refactor_every=60,
             slack_of_row=None, warm=None):
    """Bounded-variable simplex: cold two-phase primal, or warm dual.

    Cold (warm=None): rows whose slack can absorb the start residual enter
    the basis on the slack; only the remaining rows get artificials, and
    phase 1 is skipped entirely when none are needed.  Entering rule: most
    violated reduced cost with lowest-index tie-break, switching to
    Bland's rule after a stall to guarantee termination.

    Warm (warm=a parent's _Basis): the parent's basis is inverted afresh
    and, being dual feasible for any change of bounds, re-optimized by a
    bounded dual simplex.  Leaving row: largest bound violation; entering
    column: dual ratio test over movable nonbasic columns (a free one
    counts as ratio 0), ties to the largest pivot and then the lowest
    index; lowest-index rules after a stall.  Artificials stay at [0, 0].

    Returns (status, x, objective, iterations, basis); basis is the final
    _Basis when Optimal, else None.  A basis that fails to invert gives
    NumericalFailure.
    """
    m, n = A.shape
    if np.any(lb > ub):
        return INFEASIBLE, None, INF, 0, None
    if m == 0:
        # Bound-only problem: each variable sits at its cheaper bound.
        x = np.where(c > 0, lb, np.where(c < 0, ub, 0.0))
        x = np.where(np.isfinite(x), x, np.where(np.isfinite(lb), lb,
                     np.where(np.isfinite(ub), ub, 0.0)))
        if np.any((c > 0) & ~np.isfinite(lb)) or np.any((c < 0) & ~np.isfinite(ub)):
            return UNBOUNDED, None, -INF, 0, None
        return OPTIMAL, x, float(c @ x), 0, None

    n_tot = n + m
    c_phase2 = np.concatenate([c, np.zeros(m)])
    lb_full = np.concatenate([lb, np.zeros(m)])
    if warm is None:
        # Nonbasic start values: finite lower bound, else upper, free vars at 0.
        x = np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))
        resid = rhs - A @ x

        # Crash: a row whose slack bounds admit the start residual is based
        # on the slack; every other row gets a signed artificial.
        crash = np.full(m, -1, dtype=int)
        if slack_of_row is not None:
            for r in range(m):
                s = slack_of_row[r]
                if s >= 0 and lb[s] - tol <= resid[r] <= ub[s] + tol:
                    crash[r] = s

        art_sign = np.where(resid >= 0, 1.0, -1.0)
        A_full = np.hstack([A, np.zeros((m, m))])
        A_full[np.arange(m), n + np.arange(m)] = art_sign
        ub_full = np.concatenate([ub, np.where(crash >= 0, 0.0, INF)])
        x_full = np.concatenate([x, np.where(crash >= 0, 0.0, np.abs(resid))])
        c_phase1 = np.concatenate([np.zeros(n), np.where(crash >= 0, 0.0, 1.0)])

        basis = np.where(crash >= 0, crash, n + np.arange(m))
        x_full[basis[crash >= 0]] = np.clip(resid[crash >= 0],
                                            lb_full[basis[crash >= 0]],
                                            ub_full[basis[crash >= 0]])
        # Both slack and artificial columns are unit vectors in their own
        # row, so the crash basis inverse stays diagonal.
        Binv = np.diag(np.where(crash >= 0, 1.0, art_sign))
    else:
        A_full = warm.A_full
        ub_full = np.concatenate([ub, np.zeros(m)])
        basis = warm.basis.copy()
        x_full = np.clip(warm.x, lb_full, ub_full)
        Binv = None
    in_basis = np.zeros(n_tot, dtype=bool)
    in_basis[basis] = True

    total_iters = 0

    def invert():
        nonlocal Binv
        try:
            Binv = np.linalg.inv(A_full[:, basis])
        except np.linalg.LinAlgError:
            return False  # numerically singular basis
        return True

    def basic_values():
        nb = ~in_basis
        x_full[basis] = Binv @ (rhs - A_full[:, nb] @ x_full[nb])

    def refactor():
        """Invert the basis afresh and recompute the basic values."""
        if not invert():
            return False
        basic_values()
        return True

    def pivot(leave_pos, enter, w):
        """Basis change: column `enter` replaces row leave_pos's variable."""
        out = basis[leave_pos]
        basis[leave_pos] = enter
        in_basis[out] = False
        in_basis[enter] = True
        piv_row = Binv[leave_pos] / w[leave_pos]
        Binv[...] -= w[:, None] * piv_row[None, :]
        Binv[leave_pos] = piv_row

    def nonbasic_position():
        at_lb = np.isfinite(lb_full) & (x_full <= lb_full + 1e-9)
        at_ub = np.isfinite(ub_full) & (x_full >= ub_full - 1e-9)
        return at_lb, at_ub, ~at_lb & ~at_ub

    def run_phase(cost, iter_budget, n_price):
        """Primal simplex.  n_price: only columns < n_price may enter
        (excludes artificials in phase 2)."""
        nonlocal total_iters
        stall = 0
        iters_here = 0
        while True:
            if iters_here >= iter_budget:
                return ITERATION_LIMIT
            iters_here += 1
            total_iters += 1
            if total_iters % refactor_every == 0 and not refactor():
                return NUMERICAL_FAILURE

            y = cost[basis] @ Binv
            d = cost - y @ A_full  # reduced costs (basic entries ~ 0)

            at_lb, at_ub, free = nonbasic_position()
            eligible = ~in_basis
            eligible[n_price:] = False
            eligible &= (ub_full - lb_full) > 1e-12  # fixed vars cannot move
            can_inc = eligible & (d < -tol) & (at_lb | free)
            can_dec = eligible & (d > tol) & (at_ub | free)
            score = np.where(can_inc, -d, np.where(can_dec, d, -INF))
            if stall > 2 * m + 20:
                candidates = np.flatnonzero(score > tol)
                if candidates.size == 0:
                    return OPTIMAL
                enter = int(candidates[0])      # Bland's rule
            else:
                enter = int(np.argmax(score))   # first max = lowest index
                if score[enter] <= tol:
                    return OPTIMAL
            direction = 1.0 if can_inc[enter] else -1.0

            w = Binv @ A_full[:, enter]
            # Max step before a basic variable hits a bound, or the
            # entering variable flips to its opposite bound.
            delta = direction * w
            xB = x_full[basis]
            limit = np.full(m, INF)
            bound_hit = np.zeros(m)
            dec = delta > tol   # basic value decreases toward its lb
            inc = delta < -tol  # basic value increases toward its ub
            limit[dec] = xB[dec] - lb_full[basis[dec]]
            bound_hit[dec] = lb_full[basis[dec]]
            limit[inc] = ub_full[basis[inc]] - xB[inc]
            bound_hit[inc] = ub_full[basis[inc]]
            ratio = np.where(np.isfinite(limit),
                             np.maximum(limit, 0.0) / np.abs(delta), INF)
            flip = (ub_full[enter] - lb_full[enter]
                    if np.isfinite(ub_full[enter]) and np.isfinite(lb_full[enter])
                    else INF)
            t_min = min(float(np.min(ratio)), flip)
            if not np.isfinite(t_min):
                return UNBOUNDED

            leave_pos = -1
            if t_min < flip - tol or np.any(ratio <= t_min + tol):
                ties = np.flatnonzero(ratio <= t_min + tol)
                if ties.size:
                    leave_pos = int(ties[np.argmin(basis[ties])])
                    t_min = float(ratio[leave_pos])

            improved = t_min * abs(d[enter]) > tol
            x_full[enter] += direction * t_min
            x_full[basis] -= t_min * delta
            if leave_pos >= 0:
                x_full[basis[leave_pos]] = bound_hit[leave_pos]  # snap roundoff
                pivot(leave_pos, enter, w)
            # else: bound flip, basis unchanged

            stall = 0 if improved else stall + 1

    def run_dual(iter_budget):
        """Bounded dual simplex from a dual-feasible basis; phase-2 costs,
        artificials never enter."""
        nonlocal total_iters
        stall = 0
        iters_here = 0
        movable = (ub_full[:n] - lb_full[:n]) > 1e-12
        while True:
            if iters_here >= iter_budget:
                return ITERATION_LIMIT
            iters_here += 1
            total_iters += 1
            if total_iters % refactor_every == 0 and not refactor():
                return NUMERICAL_FAILURE

            xB = x_full[basis]
            below = lb_full[basis] - xB
            viol = np.maximum(below, xB - ub_full[basis])
            bland = stall > 2 * m + 20
            if bland:
                rows = np.flatnonzero(viol > tol)
                if rows.size == 0:
                    return OPTIMAL
                r = int(rows[np.argmin(basis[rows])])
            else:
                r = int(np.argmax(viol))
                if viol[r] <= tol:
                    return OPTIMAL
            up = below[r] > 0   # the leaving variable rises to its lb
            target = lb_full[basis[r]] if up else ub_full[basis[r]]

            y = c_phase2[basis] @ Binv
            d = c - y @ A
            alpha = Binv[r] @ A
            # g_j > 0: raising x_j moves the leaving variable toward target.
            g = alpha if not up else -alpha
            at_lb, at_ub, free = nonbasic_position()
            eligible = movable & ~in_basis[:n]
            can_inc = eligible & (g > tol) & (at_lb[:n] | free[:n])
            can_dec = eligible & (g < -tol) & (at_ub[:n] | free[:n])
            cand = can_inc | can_dec
            if not cand.any():
                return INFEASIBLE  # the row proves the bounds inconsistent
            # Dual room: how far each reduced cost may move before it
            # changes sign; a free column has none.
            room = np.maximum(np.where(can_inc, d, -d), 0.0)
            room[free[:n]] = 0.0
            ratio = np.full(n, INF)
            ratio[cand] = room[cand] / np.abs(g[cand])
            r_min = float(np.min(ratio))
            ties = np.flatnonzero(ratio <= r_min + 1e-12)
            enter = int(ties[0] if bland else ties[np.argmax(np.abs(g[ties]))])

            w = Binv @ A_full[:, enter]
            step = (xB[r] - target) / w[r]
            improved = r_min * viol[r] > tol
            x_full[enter] += step
            x_full[basis] -= step * w
            x_full[basis[r]] = target  # snap roundoff
            pivot(r, enter, w)
            stall = 0 if improved else stall + 1

    if warm is None:
        if np.any(crash < 0):
            status = run_phase(c_phase1, max_iters, n_tot)
            if status != OPTIMAL:
                if status == UNBOUNDED:  # impossible in exact arithmetic
                    status = NUMERICAL_FAILURE
                return status, None, INF, total_iters, None
            phase1_obj = float(c_phase1 @ x_full)
            if phase1_obj > 1e-7:
                return INFEASIBLE, None, INF, total_iters, None

        # Pin artificials to zero for phase 2 (they may linger in the basis
        # at value 0; the bounds keep them there).
        ub_full[n:] = 0.0
        x_full[n:] = np.minimum(x_full[n:], 0.0)
        x_full[n:] = np.maximum(x_full[n:], 0.0)
        status = run_phase(c_phase2, max_iters - total_iters, n)
    elif not invert():
        status = NUMERICAL_FAILURE
    else:
        # As in the cold start, a nonbasic variable sits at its lower bound
        # unless its reduced cost keeps it at the upper one; this also
        # keeps the basis dual feasible.
        d = c - (c_phase2[basis] @ Binv) @ A
        to_lb = ~in_basis[:n] & np.isfinite(lb) & (x_full[:n] > lb) & (d > -tol)
        x_full[:n][to_lb] = lb[to_lb]
        basic_values()
        status = run_dual(max_iters)
    if status != OPTIMAL:
        return status, None, -INF if status == UNBOUNDED else INF, total_iters, None
    xs = x_full[:n].copy()
    return OPTIMAL, xs, float(c @ xs), total_iters, _Basis(A_full, basis, x_full)


def solve_lp(model: MilpModel, config: SolverConfig | None = None,
             lb_override: np.ndarray | None = None,
             ub_override: np.ndarray | None = None) -> LpResult:
    """Solve the LP relaxation (binaries relaxed to [0, 1])."""
    config = config or SolverConfig()
    std = _Standardized(model)
    if std.trivially_infeasible:
        return LpResult(INFEASIBLE, None, INF, 0)
    lb = std.lb.copy()
    ub = std.ub.copy()
    n = std.n_structural
    if lb_override is not None:
        lb[:n] = lb_override
    if ub_override is not None:
        ub[:n] = ub_override
    status, x, obj, iters, _ = _simplex(std.A, std.rhs, std.c, lb, ub,
                                        config.max_simplex_iters,
                                        slack_of_row=std.slack_of_row)
    if status != OPTIMAL:
        return LpResult(status, None, obj, iters)
    return LpResult(OPTIMAL, x[:n], obj, iters)


def _most_fractional(values: np.ndarray, binaries: np.ndarray, tol: float) -> int:
    """Index of the most fractional binary (ties: lowest id); -1 if integral."""
    best = -1
    best_frac = tol
    for j in np.flatnonzero(binaries):
        frac = abs(values[j] - round(values[j]))
        if frac > best_frac + 1e-15:
            best_frac = frac
            best = int(j)
    return best


def solve(model: MilpModel, config: SolverConfig | None = None) -> MilpSolution:
    """Best-first branch-and-bound over the binary variables.

    The root LP is solved cold; every child re-solves warm from its
    parent's optimal basis, and once more cold if that basis fails
    numerically.  Branches on the most-fractional binary; prunes nodes
    whose LP bound cannot improve the incumbent beyond the relative gap.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    std = _Standardized(model)
    binaries = np.concatenate(
        [model.is_binary, np.zeros(std.A.shape[1] - model.num_vars, dtype=bool)]
    )
    n = model.num_vars
    stats = {"nodes": 0, "lp_calls": 0, "simplex_iters": 0, "cold_resolves": 0}

    def result(status, values=None, obj=INF):
        stats["wall_time"] = time.perf_counter() - t0
        return MilpSolution(status, values, obj, stats)

    if std.trivially_infeasible:
        return result(INFEASIBLE)

    def node_lp(lb, ub, warm):
        # A loop, not a recursive call: a closure that names itself is a
        # reference cycle, which would keep each solve's arrays alive
        # until the garbage collector next runs.
        while True:
            status, x, obj, iters, basis = _simplex(
                std.A, std.rhs, std.c, lb, ub, config.max_simplex_iters,
                slack_of_row=std.slack_of_row, warm=warm)
            stats["lp_calls"] += 1
            stats["simplex_iters"] += iters
            if status != NUMERICAL_FAILURE or warm is None:
                return status, x, obj, basis
            stats["cold_resolves"] += 1
            warm = None

    # Heap ordered by LP bound; the counter makes ordering deterministic.
    counter = 0
    heap = []
    status, x, obj, basis = node_lp(std.lb.copy(), std.ub.copy(), None)
    if status == UNBOUNDED:
        raise UnboundedModelError("LP relaxation is unbounded")
    if status in (ITERATION_LIMIT, NUMERICAL_FAILURE):
        return result(status)
    if status == OPTIMAL:
        heapq.heappush(heap, (obj, counter, std.lb.copy(), std.ub.copy(), x, basis))
        counter += 1

    incumbent = None
    incumbent_obj = INF
    stop = None   # ITERATION_LIMIT or NUMERICAL_FAILURE ends the search
    while heap and stop is None:
        if stats["nodes"] >= config.max_nodes:
            stop = ITERATION_LIMIT
            break
        bound, _, lb, ub, x, basis = heapq.heappop(heap)
        stats["nodes"] += 1
        gap_abs = config.relative_gap * max(1.0, abs(incumbent_obj))
        if incumbent is not None and bound >= incumbent_obj - gap_abs:
            continue
        j = _most_fractional(x, binaries, config.integrality_tol)
        if j < 0:
            xv = np.clip(np.round(x[binaries]), 0.0, 1.0)
            x = x.copy()
            x[binaries] = xv
            if bound < incumbent_obj:
                incumbent = x[:n].copy()
                incumbent_obj = bound
            continue
        for fixed in (0.0, 1.0):
            clb, cub = lb.copy(), ub.copy()
            clb[j] = fixed
            cub[j] = fixed
            status, cx, cobj, cbasis = node_lp(clb, cub, basis)
            if status in (ITERATION_LIMIT, NUMERICAL_FAILURE):
                stop = status
                break
            if status != OPTIMAL:
                continue
            gap_abs = config.relative_gap * max(1.0, abs(incumbent_obj))
            if incumbent is not None and cobj >= incumbent_obj - gap_abs:
                continue
            heapq.heappush(heap, (cobj, counter, clb, cub, cx, cbasis))
            counter += 1

    if incumbent is None:
        return result(stop or INFEASIBLE)
    return result(stop or OPTIMAL, incumbent, incumbent_obj)
