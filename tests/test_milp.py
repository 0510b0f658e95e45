import itertools

import numpy as np
from milp_safeguard import milp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milp_safeguard.milp import (
    EQ,
    GE,
    INF,
    INFEASIBLE,
    ITERATION_LIMIT,
    LE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    UNBOUNDED,
    ModelBuilder,
    ModelError,
    SolverConfig,
    UnboundedModelError,
    solve,
    solve_lp,
)


def test_builder_rejects_unknown_variable():
    b = ModelBuilder()
    b.add_continuous(0, 1, "x")
    with pytest.raises(ModelError):
        b.add_constraint({99: 1.0}, LE, 1.0)


def test_builder_sums_duplicate_coefficients():
    b = ModelBuilder()
    x = b.add_continuous(0, 10, "x")
    b.add_constraint([(x, 1.0), (x, 2.0)], LE, 6.0)
    b.set_objective({x: -1.0})
    m = b.build()
    r = solve_lp(m)
    assert r.status == OPTIMAL
    assert abs(r.x[0] - 2.0) < 1e-9


def test_lp_simple_optimum():
    # max x + y s.t. x + y <= 1.5, box [0,1]^2.
    b = ModelBuilder()
    x = b.add_continuous(0, 1, "x")
    y = b.add_continuous(0, 1, "y")
    b.add_constraint({x: 1, y: 1}, LE, 1.5)
    b.set_objective({x: -1, y: -1})
    r = solve_lp(b.build())
    assert r.status == OPTIMAL
    assert abs(r.objective_value - (-1.5)) < 1e-9


def test_lp_infeasible():
    b = ModelBuilder()
    x = b.add_continuous(0, 1, "x")
    b.add_constraint({x: 1}, GE, 2.0)
    b.set_objective({x: 1})
    assert solve_lp(b.build()).status == INFEASIBLE


def test_lp_unbounded():
    b = ModelBuilder()
    x = b.add_continuous(0, np.inf, "x")
    b.add_constraint({x: -1}, LE, 0.0)
    b.set_objective({x: -1})
    assert solve_lp(b.build()).status == UNBOUNDED


def test_lp_free_variable_equality():
    b = ModelBuilder()
    x = b.add_continuous(-np.inf, np.inf, "x")
    b.add_constraint({x: 3.0}, EQ, 7.5)
    b.set_objective({x: 1.0})
    r = solve_lp(b.build())
    assert r.status == OPTIMAL
    assert abs(r.x[0] - 2.5) < 1e-9


def test_milp_knapsack():
    # max 5a + 4b + 3c s.t. 2a + 3b + c <= 3.
    b = ModelBuilder()
    ids = [b.add_binary(n) for n in "abc"]
    b.add_constraint(dict(zip(ids, [2.0, 3.0, 1.0])), LE, 3.0)
    b.set_objective(dict(zip(ids, [-5.0, -4.0, -3.0])))
    sol = solve(b.build())
    assert sol.status == OPTIMAL
    assert abs(sol.objective_value - (-8.0)) < 1e-9
    assert np.allclose(sol.values[:3], [1, 0, 1])


def test_milp_infeasible():
    b = ModelBuilder()
    d = b.add_binary("d")
    b.add_constraint({d: 2.0}, EQ, 1.0)  # needs d = 0.5
    b.set_objective({d: 1.0})
    assert solve(b.build()).status == INFEASIBLE


def test_milp_unbounded_raises():
    b = ModelBuilder()
    x = b.add_continuous(-np.inf, np.inf, "x")
    d = b.add_binary("d")
    b.add_constraint({d: 1.0}, LE, 1.0)
    b.set_objective({x: 1.0})
    with pytest.raises(UnboundedModelError):
        solve(b.build())


def test_trivially_infeasible_empty_constraint():
    b = ModelBuilder()
    x = b.add_continuous(0, 1, "x")
    b.add_constraint({x: 0.0}, GE, 1.0)  # reduces to 0 >= 1
    b.set_objective({x: 1.0})
    assert solve_lp(b.build()).status == INFEASIBLE


def test_milp_with_violated_empty_constraint_is_infeasible():
    b = ModelBuilder()
    d = b.add_binary("d")
    b.add_constraint({}, GE, 1.0)  # 0 >= 1
    b.set_objective({d: 1.0})
    assert solve(b.build()).status == INFEASIBLE


def test_dump_lp_mentions_all_parts():
    b = ModelBuilder()
    x = b.add_continuous(0, 1, "x")
    d = b.add_binary("d")
    b.add_constraint({x: 1, d: -2}, LE, 0.5)
    b.set_objective({x: 1})
    text = b.build().dump_lp()
    assert "x" in text and "d" in text and "<=" in text


def _random_model(rng, n_bin, n_cont, n_rows):
    b = ModelBuilder()
    binv = [b.add_binary(f"d{i}") for i in range(n_bin)]
    cont = [b.add_continuous(-2.0, 2.0, f"x{i}") for i in range(n_cont)]
    allv = binv + cont
    for _ in range(n_rows):
        coeffs = {v: float(rng.integers(-3, 4)) for v in allv
                  if rng.random() < 0.7}
        if not coeffs:
            continue
        rel = (LE, GE, EQ)[rng.integers(0, 3)]
        b.add_constraint(coeffs, rel, float(rng.integers(-4, 5)))
    b.set_objective({v: float(np.round(rng.normal(), 2)) for v in allv})
    return b.build(), n_bin


def _enumeration_optimum(m, n_bin):
    best = np.inf
    for assign in itertools.product((0.0, 1.0), repeat=n_bin):
        lb, ub = m.lb.copy(), m.ub.copy()
        lb[:n_bin] = ub[:n_bin] = assign
        r = solve_lp(m, lb_override=lb, ub_override=ub)
        if r.status == OPTIMAL:
            best = min(best, r.objective_value)
    return best


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_bnb_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    m, n_bin = _random_model(rng, rng.integers(1, 7), rng.integers(0, 4),
                             rng.integers(1, 8))
    sol = solve(m)
    best = _enumeration_optimum(m, n_bin)
    if sol.status == OPTIMAL:
        assert np.isfinite(best)
        assert abs(sol.objective_value - best) < 1e-6
        assert np.all(np.abs(sol.values[:n_bin]
                             - np.round(sol.values[:n_bin])) < 1e-6)
    else:
        assert sol.status == INFEASIBLE
        assert not np.isfinite(best)


@given(st.integers(0, 10**9))
@settings(max_examples=20, deadline=None)
def test_solver_is_deterministic(seed):
    rng = np.random.default_rng(seed)
    m, _ = _random_model(rng, 4, 2, 5)
    a = solve(m)
    b = solve(m)
    assert a.status == b.status
    if a.status == OPTIMAL:
        assert a.objective_value == b.objective_value
        assert np.array_equal(a.values, b.values)
        assert a.stats["nodes"] == b.stats["nodes"]


def test_iteration_limit_reported():
    rng = np.random.default_rng(5)
    m, _ = _random_model(rng, 5, 3, 6)
    sol = solve(m, SolverConfig(max_simplex_iters=1))
    assert sol.status == ITERATION_LIMIT


def test_beale_cycling_lp_terminates():
    # Beale's LP cycles under the primal most-negative reduced cost rule.
    # Its slack basis is dual infeasible (x0 and x2 have negative costs and
    # no upper bound), so the dual simplex reaches it through phase 1.
    b = ModelBuilder()
    x = [b.add_continuous(0.0, INF, f"x{i}") for i in range(4)]
    b.add_constraint({x[0]: 0.25, x[1]: -8.0, x[2]: -1.0, x[3]: 9.0}, LE, 0.0)
    b.add_constraint({x[0]: 0.5, x[1]: -12.0, x[2]: -0.5, x[3]: 3.0}, LE, 0.0)
    b.add_constraint({x[2]: 1.0}, LE, 1.0)
    b.set_objective({x[0]: -0.75, x[1]: 20.0, x[2]: -0.5, x[3]: 6.0})
    r = solve_lp(b.build())
    assert r.status == OPTIMAL
    assert abs(r.objective_value + 1.25) < 1e-9
    assert np.allclose(r.x, [1.0, 0.0, 1.0, 0.0])


def test_dual_infeasible_lp_with_infeasible_rows_is_infeasible():
    # min -x, x >= 0, x <= -1: the cost ray x -> inf makes the slack basis
    # dual infeasible, but no point satisfies the row, so the LP is
    # infeasible rather than unbounded.
    b = ModelBuilder()
    x = b.add_continuous(0.0, INF, "x")
    b.add_constraint({x: 1.0}, LE, -1.0)
    b.set_objective({x: -1.0})
    assert solve_lp(b.build()).status == INFEASIBLE


def _odd_cycle_partitioning():
    """Set partitioning of two 5-cycles by their edges and a few
    singletons, all at cost 1: the LP relaxation sits at 5 (every edge at
    one half), the integer optimum is 6, reached by 10 of 22 partitions."""
    subsets = [{base + i, base + (i + 1) % 5} for base in (0, 5) for i in range(5)]
    subsets += [{e} for e in (0, 1, 2, 3, 4, 5, 8)]
    b = ModelBuilder()
    d = [b.add_binary(f"s{i}") for i in range(len(subsets))]
    for e in range(10):
        b.add_constraint({d[i]: 1.0 for i, s in enumerate(subsets) if e in s},
                         EQ, 1.0)
    b.set_objective({v: 1.0 for v in d})
    cover = np.array([[e in s for s in subsets] for e in range(10)], dtype=float)
    return b.build(), cover


def test_degenerate_partitioning_matches_enumeration():
    m, cover = _odd_cycle_partitioning()
    k = cover.shape[1]
    bits = ((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1).astype(float)
    feasible = np.all(bits @ cover.T == 1.0, axis=1)
    best = bits[feasible].sum(axis=1).min()
    assert solve_lp(m).objective_value < best - 0.5   # the root must branch
    a, b = solve(m), solve(m)
    assert a.status == OPTIMAL
    assert a.objective_value == best
    assert np.all(cover @ a.values == 1.0)
    assert a.stats["nodes"] > 1
    assert np.array_equal(a.values, b.values)
    assert a.objective_value == b.objective_value
    assert {k: v for k, v in a.stats.items() if k != "wall_time"} == \
        {k: v for k, v in b.stats.items() if k != "wall_time"}


def _singular(monkeypatch):
    def inv(a):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(milp.np.linalg, "inv", inv)


def _without_wall_time(stats):
    return {k: v for k, v in stats.items() if k != "wall_time"}


def test_children_inherit_their_parents_inverse(monkeypatch):
    # A cold root starts on the identity and every child starts from a
    # copy of its parent's inverse; these LPs are too short to
    # refactorize, so no basis is ever inverted.
    m, _ = _odd_cycle_partitioning()
    ref = solve(m)
    assert ref.stats["nodes"] > 1 and ref.stats["inversions"] == 0
    _singular(monkeypatch)
    sol = solve(m)
    assert np.array_equal(sol.values, ref.values)
    assert _without_wall_time(sol.stats) == _without_wall_time(ref.stats)


def test_singular_warm_root_resolves_cold(monkeypatch):
    # A warm root inverts its basis afresh; when that fails, the root is
    # solved once more cold and the search goes on as a cold solve.
    m, _ = _odd_cycle_partitioning()
    ref = solve(m)
    assert solve(m, warm=ref.root_basis).stats["warm_root"]
    _singular(monkeypatch)
    sol = solve(m, warm=ref.root_basis)
    assert sol.status == OPTIMAL
    assert sol.objective_value == ref.objective_value
    assert np.array_equal(sol.values, ref.values)
    assert not sol.stats["warm_root"]
    assert sol.stats["cold_resolves"] == 1
    assert sol.stats["inversions"] == 1
    assert sol.stats["lp_calls"] == ref.stats["lp_calls"] + 1


def test_refactorization_counts_inherited_updates(monkeypatch):
    # A start from a basis that keeps its inverse inherits that inverse's
    # update count: it refactorizes as soon as the count reaches
    # _REFACTOR_EVERY, however few pivots the LP itself makes.
    m, _ = _odd_cycle_partitioning()
    std = milp._Standardized(m)
    lp = (std.A, std.rhs, std.c, std.lb, std.ub, 1000)
    status, _, obj, iters, basis = milp._simplex(
        *lp, slack_of_row=std.slack_of_row)
    assert status == OPTIMAL and basis.updates == iters - 1 > 0
    for every, inversions in ((basis.updates, 1), (basis.updates + 1, 0)):
        monkeypatch.setattr(milp, "_REFACTOR_EVERY", every)
        stats = {"inversions": 0}
        again = milp._simplex(*lp, warm=basis, stats=stats)
        assert again[0] == OPTIMAL and again[2] == obj
        assert stats["inversions"] == inversions


@pytest.mark.parametrize("every", [1, 2, 3])
def test_frequent_refactorization_matches_enumeration(monkeypatch, every):
    # Refactorizing after every one, two or three basis updates, counted
    # down the branch-and-bound chain, re-forms the inherited inverses and
    # the pivot-row reduced costs over and over.
    monkeypatch.setattr(milp, "_REFACTOR_EVERY", every)
    rng = np.random.default_rng(every)
    for _ in range(25):
        m, n_bin = _random_model(rng, int(rng.integers(2, 7)),
                                 int(rng.integers(0, 4)), int(rng.integers(2, 8)))
        best = _enumeration_optimum(m, n_bin)
        cold = solve(m)
        for sol in (cold, solve(m, warm=cold.root_basis)):
            if np.isfinite(best):
                assert sol.status == OPTIMAL
                assert abs(sol.objective_value - best) < 1e-6
            else:
                assert sol.status == INFEASIBLE


def test_warm_solve_is_deterministic():
    rng = np.random.default_rng(7)
    warm_roots = 0
    for _ in range(20):
        m, _ = _random_model(rng, 4, 2, 5)
        basis = solve(m).root_basis
        if basis is None:
            continue
        a, b = solve(m, warm=basis), solve(m, warm=basis)
        assert a.status == b.status
        assert a.objective_value == b.objective_value
        assert (a.values is None and b.values is None) or \
            np.array_equal(a.values, b.values)
        assert _without_wall_time(a.stats) == _without_wall_time(b.stats)
        warm_roots += a.stats["warm_root"]
    assert warm_roots > 10


def test_basis_of_another_matrix_is_ignored():
    # Same shape, one coefficient changed: the root starts cold, exactly
    # as without a basis.
    m, _ = _odd_cycle_partitioning()
    b = ModelBuilder()
    d = [b.add_binary() for _ in range(m.num_vars)]
    for k, c in enumerate(m.constraints):
        coef = c.coef * (2.0 if k == 0 else 1.0)
        b.add_constraint(dict(zip(c.idx.tolist(), coef.tolist())), c.rel, c.rhs)
    b.set_objective({v: 1.0 for v in d})
    other = solve(b.build())
    assert other.root_basis is not None
    cold, warm = solve(m), solve(m, warm=other.root_basis)
    assert not warm.stats["warm_root"]
    assert warm.status == cold.status
    assert warm.objective_value == cold.objective_value
    assert np.array_equal(warm.values, cold.values)
    assert _without_wall_time(warm.stats) == _without_wall_time(cold.stats)


def test_singular_basis_is_numerical_failure(monkeypatch):
    # A chain of 80 equality rows starts on 80 artificials, each of which
    # leaves the basis in its own pivot, past the first refactorization
    # (every 60 iterations), where the inverse fails.
    b = ModelBuilder()
    x = [b.add_continuous(-INF, INF, f"x{i}") for i in range(81)]
    b.add_constraint({x[0]: 1.0}, EQ, 0.0)
    for i in range(80):
        b.add_constraint({x[i + 1]: 1.0, x[i]: -1.0}, EQ, 1.0)
    d = b.add_binary("d")
    b.add_constraint({x[80]: 1.0, d: 1.0}, GE, 80.5)
    b.set_objective({x[80]: 1.0, d: 1.0})
    m = b.build()
    assert solve(m).status == OPTIMAL
    _singular(monkeypatch)
    assert solve_lp(m).status == NUMERICAL_FAILURE
    sol = solve(m)
    assert sol.status == NUMERICAL_FAILURE
    assert sol.values is None


def test_unbounded_child_is_numerical_failure(monkeypatch):
    # A child's region lies inside its bounded root's, so an unbounded
    # child can only come from roundoff; it must not be pruned silently.
    m, _ = _odd_cycle_partitioning()
    inner = milp._simplex

    def unbounded_children(*args, warm=None, **kwargs):
        r = inner(*args, warm=warm, **kwargs)
        return r if warm is None else (UNBOUNDED, None, -INF, r[3], None)

    monkeypatch.setattr(milp, "_simplex", unbounded_children)
    sol = solve(m)
    assert sol.status == NUMERICAL_FAILURE
    assert sol.values is None
