"""Self-contained mixed-integer linear programming layer.

Model building, and best-first branch-and-bound over binary variables on
one LP algorithm, a bounded dual simplex.  The root LP starts warm from a
previous solve's root basis when the caller hands one over and the
standardized constraint matrix is the same, value for value (a control
loop's consecutive tracking models differ only in bounds and right-hand
sides); otherwise it starts cold from the slack basis, with an
auxiliary-problem phase 1 when that basis is not dual feasible.  Every
child, which differs from its parent only by one fixed binary, starts
from a copy of its parent's final basis inverse, usually a few pivots
from its optimum; the inverse is refreshed after a fixed number of basis
updates counted down the chain since its last fresh inversion.  Reduced
costs are formed once per LP and then updated by each pivot row.  A basis
that fails to invert is reported as NumericalFailure, never as
infeasibility; a warm LP that hits one is re-solved cold once.
Deterministic throughout: no state outlives a call, dense linear algebra,
lowest-index tie-breaks, no cutting planes, no presolve beyond dropping
empty constraints.
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

_TOL = 1e-9            # primal and dual feasibility tolerance of the simplex
_REFACTOR_EVERY = 60   # basis updates between fresh basis inversions


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
    # The root LP's optimal basis, for the next solve(..., warm=) on a
    # model with the same constraint matrix; None if the root was not
    # Optimal.
    root_basis: "_Basis | None" = field(default=None, repr=False, compare=False)

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
    """An LP's final basis, from which another LP on the same rows starts.

    A_full is the constraint matrix with its artificial columns.  Binv,
    when kept, is the basis inverse as the LP left it, and `updates` the
    basis changes applied to it since its last fresh inversion; a start
    from it works on a copy instead of inverting.  No values are kept:
    every start puts each nonbasic variable at the bound its reduced cost
    favours and recomputes the basic ones.
    """
    A_full: np.ndarray
    basis: np.ndarray
    Binv: np.ndarray | None = None
    updates: int = 0


def _simplex(A, rhs, c, lb, ub, max_iters, slack_of_row=None, warm=None,
             stats=None):
    """Bounded dual simplex, from the slack basis or from a given one.

    Every row has an artificial column, fixed at [0, 0].  Cold
    (warm=None), each row starts on its slack, or on its artificial when
    it has none (equality rows, or every row when slack_of_row is None),
    so the basis matrix is the identity.  Warm (warm=a _Basis), the LP
    starts from a copy of the basis's inverse if it keeps one (a
    branch-and-bound child inheriting its parent's), and inverts the basis
    afresh if not (a root starting from the previous solve's root).  Each
    nonbasic variable sits at the bound its reduced cost favours.

    If that leaves a reduced cost of the wrong sign for a variable with no
    such bound, phase 1 solves the auxiliary problem min c x, A x = 0,
    with free columns in [-1, 1], lower-bounded ones in [0, 1],
    upper-bounded ones in [-1, 0] and boxed ones in [0, 0] (Koberstein &
    Suhl, Comput. Optim. Appl. 37, 2007).  At its optimum, no wrong sign
    left means a dual-feasible basis for phase 2; otherwise the LP is dual
    infeasible, and a run at zero cost tells Unbounded (the rows are
    feasible) from Infeasible.

    Each pivot: leaving row the largest bound violation; entering column
    by the dual ratio test over movable nonbasic columns (a free one counts
    as ratio 0), ties to the largest pivot and then the lowest index;
    lowest-index rules after a stall.  Artificials never enter.  The
    inverse takes a rank-one update per pivot and is refreshed once
    _REFACTOR_EVERY updates have accumulated since its last fresh
    inversion, counting those inherited with a warm basis.  The reduced
    costs are formed once per run and updated by the pivot row the ratio
    test already uses (Koberstein, The Dual Simplex Method, 2005), and
    formed again after each refresh.

    Returns (status, x, objective, iterations, basis); basis is the final
    _Basis, with its inverse, when Optimal, else None.  A basis that fails
    to invert gives NumericalFailure.  stats, if given, counts the
    attempted inversions under "inversions".
    """
    m, n = A.shape
    if np.any(lb > ub):
        return INFEASIBLE, None, INF, 0, None
    cost = np.concatenate([c, np.zeros(m)])
    lo = np.concatenate([lb, np.zeros(m)])
    hi = np.concatenate([ub, np.zeros(m)])
    b = rhs
    x_full = np.zeros(n + m)
    if warm is None:
        A_full = np.hstack([A, np.eye(m)])
        basis = n + np.arange(m)
        if slack_of_row is not None:
            basis = np.where(slack_of_row >= 0, slack_of_row, basis)
        Binv = np.eye(m)
        updates = 0
    else:
        A_full = warm.A_full
        basis = warm.basis.copy()
        Binv = None if warm.Binv is None else warm.Binv.copy()
        updates = warm.updates
    in_basis = np.zeros(n + m, dtype=bool)
    in_basis[basis] = True
    total_iters = 0

    def invert():
        nonlocal Binv, updates
        if stats is not None:
            stats["inversions"] += 1
        try:
            Binv = np.linalg.inv(A_full[:, basis])
        except np.linalg.LinAlgError:
            return False  # numerically singular basis
        updates = 0
        return True

    def basic_values():
        nb = ~in_basis
        x_full[basis] = Binv @ (b - A_full[:, nb] @ x_full[nb])

    def pivot(leave_pos, enter, w):
        """Basis change: column `enter` replaces row leave_pos's variable."""
        nonlocal updates
        out = basis[leave_pos]
        basis[leave_pos] = enter
        in_basis[out] = False
        in_basis[enter] = True
        piv_row = Binv[leave_pos] / w[leave_pos]
        Binv[...] -= w[:, None] * piv_row[None, :]
        Binv[leave_pos] = piv_row
        updates += 1

    def reduced_costs(cost):
        return cost[:n] - (cost[basis] @ Binv) @ A

    def dual_infeasible(d):
        """Some nonbasic reduced cost asks for a bound the variable lacks."""
        wrong = (((d < -_TOL) & ~np.isfinite(hi[:n]))
                 | ((d > _TOL) & ~np.isfinite(lo[:n])))
        return bool(np.any(wrong & ~in_basis[:n]))

    def start(d):
        """Nonbasics at the bounds d favours (free ones at 0), then the
        basic values."""
        at_lo = np.isfinite(lo[:n]) & ((d >= -_TOL) | ~np.isfinite(hi[:n]))
        nb = ~in_basis[:n]
        x_full[:n][nb] = np.where(at_lo, lo[:n],
                                  np.where(np.isfinite(hi[:n]), hi[:n], 0.0))[nb]
        basic_values()

    def run_dual(cost, d, iter_budget):
        """Dual simplex iterations from a dual-feasible basis whose reduced
        costs are d (updated in place)."""
        nonlocal total_iters
        stall = 0
        iters_here = 0
        movable = (hi[:n] - lo[:n]) > 1e-12
        while True:
            if iters_here >= iter_budget:
                return ITERATION_LIMIT
            iters_here += 1
            total_iters += 1
            if updates >= _REFACTOR_EVERY:
                if not invert():
                    return NUMERICAL_FAILURE
                basic_values()
                d[:] = reduced_costs(cost)

            xB = x_full[basis]
            below = lo[basis] - xB
            viol = np.maximum(below, xB - hi[basis])
            rows = np.flatnonzero(viol > _TOL)
            if rows.size == 0:
                return OPTIMAL
            bland = stall > 2 * m + 20
            r = int(rows[np.argmin(basis[rows])] if bland
                    else rows[np.argmax(viol[rows])])
            up = below[r] > 0   # the leaving variable rises to its lb
            target = lo[basis[r]] if up else hi[basis[r]]

            alpha = Binv[r] @ A
            # g_j > 0: raising x_j moves the leaving variable toward target.
            g = alpha if not up else -alpha
            x = x_full[:n]
            at_lb = np.isfinite(lo[:n]) & (x <= lo[:n] + 1e-9)
            at_ub = np.isfinite(hi[:n]) & (x >= hi[:n] - 1e-9)
            free = ~at_lb & ~at_ub
            eligible = movable & ~in_basis[:n]
            can_inc = eligible & (g > _TOL) & (at_lb | free)
            can_dec = eligible & (g < -_TOL) & (at_ub | free)
            cand = can_inc | can_dec
            if not cand.any():
                return INFEASIBLE  # the row proves the bounds inconsistent
            # Dual room: how far each reduced cost may move before it
            # changes sign; a free column has none.
            room = np.maximum(np.where(can_inc, d, -d), 0.0)
            room[free] = 0.0
            ratio = np.full(n, INF)
            ratio[cand] = room[cand] / np.abs(g[cand])
            r_min = float(np.min(ratio))
            ties = np.flatnonzero(ratio <= r_min + 1e-12)
            enter = int(ties[0] if bland else ties[np.argmax(np.abs(g[ties]))])

            w = Binv @ A_full[:, enter]
            step = (xB[r] - target) / w[r]
            improved = r_min * viol[r] > _TOL
            x_full[enter] += step
            x_full[basis] -= step * w
            x_full[basis[r]] = target  # snap roundoff
            # The pivot row zeroes the entering reduced cost and gives the
            # leaving variable (alpha = 1 on it) minus the dual step; basic
            # columns are snapped back to zero.
            d -= (d[enter] / alpha[enter]) * alpha
            pivot(r, enter, w)
            d[in_basis[:n]] = 0.0
            stall = 0 if improved else stall + 1

    def failed(status):
        return status, None, -INF if status == UNBOUNDED else INF, total_iters, None

    if Binv is None and not invert():
        return failed(NUMERICAL_FAILURE)
    d = reduced_costs(cost)
    if dual_infeasible(d):
        # Phase 1 on the auxiliary problem: every variable boxed, so the
        # start is dual feasible; its optimum is minus the sum of the dual
        # infeasibilities left.
        lo[:n] = np.where(np.isfinite(lb), 0.0, -1.0)
        hi[:n] = np.where(np.isfinite(ub), 0.0, 1.0)
        b = np.zeros(m)
        start(d)
        status = run_dual(cost, d, max_iters)
        lo[:n], hi[:n], b = lb, ub, rhs
        if status == INFEASIBLE:   # x = 0 is feasible: only roundoff says not
            status = NUMERICAL_FAILURE
        if status != OPTIMAL:
            return failed(status)
        d = reduced_costs(cost)
        if dual_infeasible(d):
            # Some ray lowers the cost without end: the LP is unbounded
            # if it is feasible at all.
            start(np.zeros(n))
            status = run_dual(np.zeros(n + m), np.zeros(n),
                              max_iters - total_iters)
            return failed(UNBOUNDED if status == OPTIMAL else status)
    start(d)
    status = run_dual(cost, d, max_iters - total_iters)
    if status != OPTIMAL:
        return failed(status)
    xs = x_full[:n].copy()
    return (OPTIMAL, xs, float(c @ xs), total_iters,
            _Basis(A_full, basis, Binv, updates))


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


def solve(model: MilpModel, config: SolverConfig | None = None,
          warm: _Basis | None = None) -> MilpSolution:
    """Best-first branch-and-bound over the binary variables.

    The root LP starts from `warm`, a previous solution's root_basis, when
    this model's standardized constraint matrix equals the one that basis
    came from (same shape, same values), and cold otherwise.  Every child
    re-solves from a copy of its parent's final basis and inverse.  A warm
    LP whose basis fails numerically is solved once more cold.  Branches
    on the most-fractional binary; prunes nodes whose LP bound cannot
    improve the incumbent beyond the relative gap.  The returned solution
    carries this root's basis for the next call.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    std = _Standardized(model)
    binaries = np.concatenate(
        [model.is_binary, np.zeros(std.A.shape[1] - model.num_vars, dtype=bool)]
    )
    n = model.num_vars
    stats = {"nodes": 0, "lp_calls": 0, "simplex_iters": 0, "cold_resolves": 0,
             "inversions": 0, "warm_root": False}
    root_basis = None

    def result(status, values=None, obj=INF):
        stats["wall_time"] = time.perf_counter() - t0
        return MilpSolution(status, values, obj, stats, root_basis)

    if std.trivially_infeasible:
        return result(INFEASIBLE)

    def node_lp(lb, ub, warm):
        # A loop, not a recursive call: a closure that names itself is a
        # reference cycle, which would keep each solve's arrays alive
        # until the garbage collector next runs.
        while True:
            status, x, obj, iters, basis = _simplex(
                std.A, std.rhs, std.c, lb, ub, config.max_simplex_iters,
                slack_of_row=std.slack_of_row, warm=warm, stats=stats)
            stats["lp_calls"] += 1
            stats["simplex_iters"] += iters
            if status != NUMERICAL_FAILURE or warm is None:
                return status, x, obj, basis
            stats["cold_resolves"] += 1
            warm = None

    if warm is not None:
        m_rows, n_cols = std.A.shape
        same = (warm.A_full.shape == (m_rows, n_cols + m_rows)
                and np.array_equal(warm.A_full[:, :n_cols], std.A))
        # The root inverts afresh, so no inverse's roundoff outlives its
        # solve.
        warm = _Basis(warm.A_full, warm.basis) if same else None
    status, x, obj, basis = node_lp(std.lb.copy(), std.ub.copy(), warm)
    stats["warm_root"] = warm is not None and stats["cold_resolves"] == 0
    if status == UNBOUNDED:
        raise UnboundedModelError("LP relaxation is unbounded")
    if status in (ITERATION_LIMIT, NUMERICAL_FAILURE):
        return result(status)

    # Heap ordered by LP bound; the counter makes ordering deterministic.
    counter = 0
    heap = []
    if status == OPTIMAL:
        root_basis = _Basis(basis.A_full, basis.basis)
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
            if status == UNBOUNDED:   # below a bounded root: only roundoff
                status = NUMERICAL_FAILURE
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
