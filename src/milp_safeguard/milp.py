"""Self-contained mixed-integer linear programming layer.

Model building, and best-first branch-and-bound over binary variables on
one LP algorithm, a bounded dual simplex on a dense tableau.  A model keeps
its rows as one dense matrix.  The LP is one matrix: the structural columns
and one slack per row, bounded by the row's relation (an equality row's
slack is fixed at 0), so no artificial columns are needed.  A solve hands
its root LP's final basis and tableau (B^-1 A over the reduced costs) to
the caller, with the count of basis updates since the tableau was last
formed afresh.  The next solve's root starts from a copy of that tableau
if its standard-form matrix and costs equal, value for value, the ones the
tableau came from (a control loop's consecutive tracking models differ
only in bounds and right-hand sides), and otherwise cold from the slack
basis, which a model's bounded objective makes dual feasible, so no phase
1 is needed.  Every child, which differs from its parent only in the bound
of one basic binary, starts from a copy of its parent's final tableau,
values and column directions.  So a basis is inverted only to form its
tableau afresh, once _REFACTOR_EVERY updates have accumulated, counted
along every solve and node the tableau was handed through.  A basis that
fails to invert, a row that only a bound flip its reduced cost forbids
could close, or a handed tableau that is not dual feasible under the new
bounds, is reported as NumericalFailure, never as infeasibility; a warm
LP that hits one is re-solved cold once.  A solve that is not Optimal
(Infeasible, SolverLimit or NumericalFailure) says why in its reason,
which names the budget and its value at a SolverLimit.  Deterministic
throughout: the only state carried between solves is the basis the caller
hands over, lowest-index tie-breaks, no cutting planes, no presolve.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

INF = float("inf")

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
SOLVER_LIMIT = "SolverLimit"
NUMERICAL_FAILURE = "NumericalFailure"

_REASONS = {   # why a solve ended Infeasible or NumericalFailure
    INFEASIBLE: "no point meets the model's rows, bounds and binaries",
    NUMERICAL_FAILURE: "a simplex basis failed to invert, or a reduced cost "
                       "forbade the bound flip that would close a row"}

_TOL = 1e-9            # primal and dual feasibility tolerance of the simplex
_REFACTOR_EVERY = 60   # basis updates between fresh basis inversions
_INTEGRALITY_TOL = 1e-12  # a binary this close to 0 or 1 counts as integral
_RELATIVE_GAP = 1e-6      # share of the incumbent a node must beat to stay open


class ModelError(ValueError):
    """Invalid model construction (unknown variable, inverted bounds,
    a cost with no bound in its direction, ...)."""


@dataclass(frozen=True)
class SolverConfig:
    max_nodes: int = 10**6
    max_simplex_iters: int = 10**5


@dataclass
class _Constraint:
    idx: np.ndarray      # variable ids, unique and sorted
    coef: np.ndarray
    rel: str
    rhs: float


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

    def add_binary(self, name: str = "", fixed: float | None = None) -> int:
        """A 0/1 variable, or one fixed at `fixed` (0 or 1) by its bounds."""
        self._lb.append(0.0 if fixed is None else float(fixed))
        self._ub.append(1.0 if fixed is None else float(fixed))
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

    def add_constraint(self, coeffs, rel: str, rhs: float):
        """coeffs: dict {var: coef} or iterable of (var, coef) pairs.

        Duplicate coefficients on the same variable are summed.
        """
        if rel not in _RELATIONS:
            raise ModelError(f"unknown relation {rel!r}")
        idx, coef = self._canonical(coeffs)
        self._constraints.append(_Constraint(idx, coef, rel, float(rhs)))

    def set_objective(self, coeffs):
        idx, coef = self._canonical(coeffs)
        self._obj = dict(zip(idx.tolist(), coef.tolist()))

    def build(self) -> "MilpModel":
        rows, n = self._constraints, self.num_vars
        obj, A = np.zeros(n), np.zeros((len(rows), n))
        for var, coef in self._obj.items():
            obj[var] = coef
        for r, c in enumerate(rows):
            A[r, c.idx] = c.coef
        return MilpModel(
            lb=np.array(self._lb),
            ub=np.array(self._ub),
            is_binary=np.array(self._binary, dtype=bool),
            names=tuple(self._names),
            objective=obj,
            A=A,
            rel=np.array([c.rel for c in rows], dtype="<U2"),
            rhs=np.array([c.rhs for c in rows], dtype=float),
        )


@dataclass(frozen=True)
class MilpModel:
    """min objective . x over lb <= x <= ub, x_j in {0, 1} where is_binary,
    and the rows A x rel rhs, A dense (rows x variables), rel each row's
    relation."""
    lb: np.ndarray
    ub: np.ndarray
    is_binary: np.ndarray
    names: tuple
    objective: np.ndarray
    A: np.ndarray
    rel: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        # Every cost must point at a finite bound, so the objective is
        # bounded over the variable box and the slack basis, whose reduced
        # costs are the costs, is dual feasible.
        unbounded = (((self.objective > 0) & ~np.isfinite(self.lb))
                     | ((self.objective < 0) & ~np.isfinite(self.ub)))
        if unbounded.any():
            j = int(np.argmax(unbounded))
            raise ModelError(f"cost {self.objective[j]:g} on {self.names[j]} "
                             f"has no bound in its direction")

    @property
    def num_vars(self) -> int:
        return self.lb.shape[0]

    @property
    def constraints(self) -> tuple:
        """The rows, each with its nonzero coefficients; built on access."""
        rows = []
        for row, rel, rhs in zip(self.A, self.rel, self.rhs):
            idx = np.flatnonzero(row)
            rows.append(_Constraint(idx, row[idx], str(rel), float(rhs)))
        return tuple(rows)

    def constraint_violation(self, x: np.ndarray) -> float:
        """Max violation of all constraints and bounds at x."""
        lhs = self.A @ x
        rows = np.where(self.rel == LE, lhs - self.rhs,
                        np.where(self.rel == GE, self.rhs - lhs,
                                 np.abs(lhs - self.rhs)))
        return max(float(np.max(self.lb - x, initial=0.0)),
                   float(np.max(x - self.ub, initial=0.0)),
                   float(np.max(rows, initial=0.0)))

    def dump_lp(self) -> str:
        """LP-format-like plain text for debugging; not bit-critical."""
        lines = ["Minimize"]
        terms = [f"{c:+g} {self.names[i]}"
                 for i, c in enumerate(self.objective) if c != 0.0]
        lines.append("  " + (" ".join(terms) if terms else "0"))
        lines.append("Subject To")
        for k, c in enumerate(self.constraints):
            lhs = " ".join(f"{v:+g} {self.names[i]}" for i, v in zip(c.idx, c.coef))
            lines.append(f"  c{k}: {lhs or '0'} {c.rel} {c.rhs:g}")
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
class MilpSolution:
    status: str          # Optimal | Infeasible | SolverLimit | NumericalFailure
    reason: str | None   # why the status, in one sentence; None if Optimal
    values: np.ndarray | None
    objective_value: float
    stats: dict = field(default_factory=dict)
    # The root LP's optimal basis and tableau, for the next solve(...,
    # warm=); None if the root was not Optimal.
    root_basis: "_Basis | None" = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# Standard form: A x = rhs over bounded columns, the structurals and then
# one slack per row.
# ---------------------------------------------------------------------------

def _standard_form(model: MilpModel):
    """(A, rhs, c, lb, ub) with the model's rows as equalities.

    Column n + r is row r's slack: coefficient 1, bounds [0, inf) for <=,
    (-inf, 0] for >= and [0, 0] for =.  The slacks form an identity
    block, and an equality row's slack is fixed.
    """
    m, rel = model.rhs.size, model.rel
    A = np.hstack((model.A, np.eye(m)))
    lb = np.concatenate((model.lb, np.where(rel == GE, -INF, 0.0)))
    ub = np.concatenate((model.ub, np.where(rel == LE, INF, 0.0)))
    c = np.concatenate((model.objective, np.zeros(m)))
    return A, model.rhs, c, lb, ub


class _Basis(NamedTuple):
    """An LP's final basis, from which another LP on the same rows starts.

    A and c are the standard-form matrix and costs the basis belongs to,
    and T its final tableau, B^-1 A over the reduced costs c - c_B B^-1 A,
    with `updates` basis changes since its last fresh inversion.  x,
    direction (+1 at a lower bound the column may rise from, -1 at an
    upper bound it may fall from, 0 if basic or fixed) and free (the free
    columns, None if none), when kept, are the final state: a start from
    it keeps every nonbasic value.
    """
    A: np.ndarray
    c: np.ndarray
    basis: np.ndarray
    T: np.ndarray
    updates: int
    x: np.ndarray | None = None
    direction: np.ndarray | None = None
    free: np.ndarray | None = None


def _simplex(A, rhs, c, lb, ub, max_iters, warm=None, stats=None):
    """Bounded dual simplex on a standard form, cold or from a given basis.

    Cold (warm=None), the basis is the m slack columns, the last m of A,
    so the tableau is A over c.  Warm (warm=a _Basis of A and c), the LP
    starts from a copy of the basis's tableau, and of its state if it
    keeps one (a branch-and-bound child, whose only new bound is on a
    basic binary); otherwise each nonbasic variable goes to the bound its
    reduced cost favours.  That start must be dual feasible, which
    MilpModel's bounded objective makes a cold start; a warm one that is
    not gives NumericalFailure, so that the caller re-solves cold.

    Each pivot: leaving row the largest bound violation; entering column
    by the dual ratio test, one masked quotient d / g over the nonbasic
    columns whose direction moves the leaving variable toward its bound
    (a free one counts as ratio 0), ties to the largest pivot and then
    the lowest index; lowest-index rules after a stall.  A row with no
    pivot element above _TOL proves infeasibility only if its bounded
    columns cannot close it at their other bounds, with the basic values
    formed afresh from the tableau; otherwise one of them moves to its
    other bound, or the LP is a NumericalFailure if its reduced cost
    forbids that bound.  The tableau, reduced costs included, takes one
    rank-one update per pivot (Koberstein, The Dual Simplex Method, 2005),
    and is formed afresh once _REFACTOR_EVERY updates have accumulated
    since its last fresh inversion, counting those inherited with a warm
    basis; a basis that fails that inversion gives NumericalFailure too.

    Returns (status, x, objective, iterations, basis); basis is the final
    _Basis, with its tableau and state, when Optimal, else None.  stats,
    if given, counts the attempted inversions under "inversions".
    """
    m, n = A.shape
    if (lb > ub).any():
        return INFEASIBLE, None, INF, 0, None
    if warm is None:
        basis, T, updates = np.arange(n - m, n), np.vstack([A, c]), 0
    else:
        basis, T, updates = warm.basis.copy(), warm.T.copy(), warm.updates
    d = T[m]   # the reduced costs, a view
    if warm is not None and warm.x is not None:
        x, direction, free = warm.x.copy(), warm.direction.copy(), warm.free
    else:
        nb = np.ones(n, dtype=bool)
        nb[basis] = False
        no_lo, no_hi = lb == -INF, ub == INF
        # A reduced cost that asks for a bound its nonbasic variable lacks.
        if (nb & (((d < -_TOL) & no_hi) | ((d > _TOL) & no_lo))).any():
            return NUMERICAL_FAILURE, None, INF, 0, None
        # Nonbasics at the bounds d favours (free ones at 0).
        at_lo = ~no_lo & ((d >= -_TOL) | no_hi)
        x = np.where(at_lo, lb, np.where(no_hi, 0.0, ub))
        x[basis] = 0.0
        x[basis] = T[:m, n - m:] @ (rhs - A @ x)
        free = nb & no_lo & no_hi
        direction = np.where(at_lo, 1.0, -1.0)
        direction[free | ~nb | ((ub - lb) <= 1e-12)] = 0.0
        d[free] = 0.0
        free = free if free.any() else None
    xB, lbB, ubB = x[basis], lb[basis], ub[basis]
    ratio = np.empty(n)
    iters = stall = 0
    bland_after = 2 * m + 20 if m else -1   # no rows: nothing to argmax
    while True:
        if iters >= max_iters:
            return SOLVER_LIMIT, None, INF, iters, None
        iters += 1
        if updates >= _REFACTOR_EVERY:
            # The tableau afresh, its basic columns the unit vectors they are.
            if stats is not None:
                stats["inversions"] += 1
            try:
                Binv = np.linalg.inv(A[:, basis])
            except np.linalg.LinAlgError:
                return NUMERICAL_FAILURE, None, INF, iters, None
            np.matmul(Binv, A, out=T[:m])
            T[:m, basis] = np.eye(m)
            T[m] = c - c[basis] @ T[:m]
            T[m, basis], updates = 0.0, 0
            x[basis] = 0.0
            xB = T[:m, n - m:] @ (rhs - A @ x)

        below = lbB - xB
        viol = np.maximum(below, xB - ubB)
        bland = stall > bland_after
        if bland:
            rows = (viol > _TOL).nonzero()[0]
            if rows.size == 0:
                break
            r = int(rows[np.argmin(basis[rows])])
        else:
            r = int(viol.argmax())
            if not viol[r] > _TOL:
                break
        up = below[r] > 0   # the leaving variable rises to its lb
        target = lbB[r] if up else ubB[r]

        alpha = T[r]
        # g_j > 0: raising x_j moves the leaving variable toward target.
        g = -alpha if up else alpha
        cand = direction * g > _TOL
        if free is not None:
            cand |= free & (np.abs(g) > _TOL)
        # A candidate's dual room over its pivot element: at a lower bound
        # d >= 0 and g > 0, at an upper bound both signs flip, and a free
        # column's d is 0 (a basic one's g is 0).
        ratio.fill(INF)
        np.divide(d, g, out=ratio, where=cand)
        r_min = ratio[ratio.argmin()]
        if r_min == INF:
            # No pivot element clears _TOL.  The row proves the bounds
            # inconsistent unless the bounded columns that move it close it
            # to within _TOL at their other bounds, as a binary whose big-M
            # is 1e-9 can.  The basic values, updated pivot by pivot, may
            # carry the violation in their roundoff, so the proof is read
            # again on values formed afresh from the tableau.  A row that can
            # be closed moves the column that closes most to its other bound,
            # the basis kept, if its reduced cost allows that bound; if not,
            # the row is a numerical failure.
            span = np.where(np.isfinite(ub - lb), ub - lb, 0.0)
            reach = np.where(direction * g > 0.0, np.abs(g) * span, 0.0)
            if reach.sum() < viol[r] - _TOL:
                x[basis] = 0.0
                fresh = T[:m, n - m:] @ (rhs - A @ x)
                if not np.array_equal(fresh, xB):
                    xB = fresh
                    continue
                return INFEASIBLE, None, INF, iters, None
            j = int(reach.argmax())
            if abs(d[j]) > _TOL:
                return NUMERICAL_FAILURE, None, INF, iters, None
            bound = ub[j] if direction[j] > 0 else lb[j]
            xB -= (bound - x[j]) * T[:m, j]
            x[j], direction[j] = bound, -direction[j]
            continue
        r_min = r_min if r_min > 0.0 else 0.0
        ties = (ratio <= r_min + 1e-12).nonzero()[0]
        enter = int(ties[0] if bland or ties.size == 1
                    else ties[np.argmax(np.abs(g[ties]))])

        w = T[:, enter]
        step = (xB[r] - target) / w[r]
        stall = 0 if r_min * viol[r] > _TOL else stall + 1
        xB -= step * w[:m]
        xB[r] = x[enter] + step
        out = basis[r]
        x[out] = target  # snap roundoff
        basis[r] = enter
        # The pivot row over the pivot element is 1 on the entering column
        # and 0 on the other basic ones, which keep their unit columns and
        # zero reduced costs.
        piv_row = alpha / w[r]
        T -= w[:, None] * piv_row
        T[r] = piv_row
        updates += 1
        lbB[r], ubB[r] = lb[enter], ub[enter]
        direction[enter] = 0.0
        if ub[out] - lb[out] > 1e-12:
            direction[out] = 1.0 if up else -1.0

    x[basis] = xB
    return OPTIMAL, x, float(c @ x), iters, _Basis(A, c, basis, T, updates,
                                                   x, direction, free)


def _most_fractional(values: np.ndarray, binaries: np.ndarray, tol: float) -> int:
    """The most fractional of the binary ids (ties: lowest id); -1 if all
    are integral."""
    best = -1
    best_frac = tol
    for j in binaries:
        frac = abs(values[j] - round(values[j]))
        if frac > best_frac + 1e-15:
            best_frac = frac
            best = int(j)
    return best


def solve(model: MilpModel, config: SolverConfig | None = None,
          warm: _Basis | None = None) -> MilpSolution:
    """Best-first branch-and-bound over the binary variables.

    The root LP starts from `warm`, a previous solution's root_basis: from
    a copy of its tableau, with its update count, when this model's
    standard-form matrix and costs equal the ones it came from (same shape,
    same values), and cold otherwise.  Every child re-solves from a copy
    of its parent's final tableau and state.  A warm LP whose tableau is
    not dual feasible under this model's bounds, or whose basis fails to
    invert when it is due to be formed afresh, is solved once more cold.
    Branches on the most-fractional binary; prunes nodes whose LP bound
    cannot improve the incumbent beyond the relative gap.  A model whose
    binaries are all fixed is an LP, and its root optimum is the answer.
    The returned solution carries this root's basis and tableau for the
    next call.
    """
    config = config or SolverConfig()
    A, rhs, c, lb, ub = _standard_form(model)
    binaries = np.flatnonzero(model.is_binary)
    n = model.num_vars
    stats = {"nodes": 0, "lp_calls": 0, "simplex_iters": 0, "cold_resolves": 0,
             "inversions": 0, "warm_root": False}

    def node_lp(lb, ub, warm):
        # A loop, not a recursive call: a closure that names itself is a
        # reference cycle, which would keep each solve's arrays alive
        # until the garbage collector next runs.
        while True:
            status, x, obj, iters, basis = _simplex(
                A, rhs, c, lb, ub, config.max_simplex_iters, warm=warm,
                stats=stats)
            stats["lp_calls"] += 1
            stats["simplex_iters"] += iters
            if status != NUMERICAL_FAILURE or warm is None:
                return status, x, obj, basis
            stats["cold_resolves"] += 1
            warm = None

    # A tableau depends on A, c and the basis only.
    if warm is not None and np.array_equal(warm.A, A) \
            and np.array_equal(warm.c, c):
        warm = warm._replace(x=None, direction=None, free=None)
    else:
        warm = None
    status, x, obj, basis = node_lp(lb, ub, warm)
    stats["warm_root"] = warm is not None and stats["cold_resolves"] == 0

    # Heap ordered by LP bound; the counter makes ordering deterministic.
    # A root that is not Optimal has no basis and leaves the heap empty.
    heap = [(obj, 0, lb, ub, x, basis)] if status == OPTIMAL else []
    counter, root_basis = 1, basis
    incumbent, incumbent_obj = None, INF
    # An LP's SolverLimit or NumericalFailure, or the node budget, ends it.
    stop = None if status in (OPTIMAL, INFEASIBLE) else status
    budget = "max_simplex_iters"
    while heap and stop is None:
        if stats["nodes"] >= config.max_nodes:
            stop, budget = SOLVER_LIMIT, "max_nodes"
            break
        bound, _, lb, ub, x, basis = heapq.heappop(heap)
        stats["nodes"] += 1
        gap_abs = _RELATIVE_GAP * max(1.0, abs(incumbent_obj))
        if incumbent is not None and bound >= incumbent_obj - gap_abs:
            continue
        # A fixed binary may sit basic within the primal tolerance of its
        # value; branching on it again would change nothing, endlessly.
        j = _most_fractional(x, binaries[lb[binaries] < ub[binaries]],
                             _INTEGRALITY_TOL)
        if j < 0:
            if bound < incumbent_obj:
                incumbent = x[:n].copy()
                incumbent[binaries] = np.clip(np.round(x[binaries]), 0.0, 1.0)
                incumbent_obj = bound
            continue
        # A nonbasic binary sits at 0 or 1, so j is basic: a child starts
        # from its parent's state, of which only a basic bound moves.
        for fixed in (0.0, 1.0):
            clb, cub = lb.copy(), ub.copy()
            clb[j] = fixed
            cub[j] = fixed
            status, cx, cobj, cbasis = node_lp(clb, cub, basis)
            if status in (SOLVER_LIMIT, NUMERICAL_FAILURE):
                stop = status
                break
            if status != OPTIMAL:
                continue
            gap_abs = _RELATIVE_GAP * max(1.0, abs(incumbent_obj))
            if incumbent is not None and cobj >= incumbent_obj - gap_abs:
                continue
            heapq.heappush(heap, (cobj, counter, clb, cub, cx, cbasis))
            counter += 1

    status = stop or (OPTIMAL if incumbent is not None else INFEASIBLE)
    reason = (f"the solver's budget {budget}={getattr(config, budget)} "
              "ran out" if status == SOLVER_LIMIT else _REASONS.get(status))
    return MilpSolution(status, reason, incumbent, incumbent_obj, stats,
                        root_basis)
