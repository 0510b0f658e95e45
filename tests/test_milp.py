import itertools
from dataclasses import replace

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
    LE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    SOLVER_LIMIT,
    ModelBuilder,
    ModelError,
    SolverConfig,
    solve,
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
    r = solve(m)
    assert r.status == OPTIMAL
    assert abs(r.values[0] - 2.0) < 1e-9


def test_lp_simple_optimum():
    # max x + y s.t. x + y <= 1.5, box [0,1]^2.
    b = ModelBuilder()
    x = b.add_continuous(0, 1, "x")
    y = b.add_continuous(0, 1, "y")
    b.add_constraint({x: 1, y: 1}, LE, 1.5)
    b.set_objective({x: -1, y: -1})
    r = solve(b.build())
    assert r.status == OPTIMAL
    assert abs(r.objective_value - (-1.5)) < 1e-9


def test_lp_infeasible():
    b = ModelBuilder()
    x = b.add_continuous(0, 1, "x")
    b.add_constraint({x: 1}, GE, 2.0)
    b.set_objective({x: 1})
    assert solve(b.build()).status == INFEASIBLE


@pytest.mark.parametrize("rhs,cost,status", [
    (1.5e-9, 0.0, OPTIMAL), (1.5e-9, 1.0, NUMERICAL_FAILURE),
    (3e-9, 0.0, INFEASIBLE)], ids=["moved", "costed", "out-of-reach"])
def test_row_whose_pivot_element_is_at_the_tolerance(rhs, cost, status):
    # x's coefficient is the simplex's tolerance, 1e-9, so no pivot clears
    # it.  The row needs 1.5e-9 and holds within 1e-9 at x = 1, where x
    # moves; with a cost on x that move would break the duals, a numerical
    # failure, not a proof of infeasibility.  No x in [0, 1] comes within
    # 1e-9 of 3e-9.
    b = ModelBuilder()
    x = b.add_continuous(0, 1, "x")
    b.add_constraint({x: 1e-9}, GE, rhs)
    b.set_objective({x: cost})
    r = solve(b.build())
    assert r.status == status
    assert (r.reason is None) == (status == OPTIMAL)
    if status == OPTIMAL:
        assert r.values[x] == 1.0


def test_lp_free_variable_equality():
    # The free column enters the equality row's basis at dual ratio 0.
    b = ModelBuilder()
    x = b.add_continuous(-np.inf, np.inf, "x")
    b.add_constraint({x: 3.0}, EQ, 7.5)
    b.set_objective({x: 0.0})
    r = solve(b.build())
    assert r.status == OPTIMAL
    assert abs(r.values[0] - 2.5) < 1e-9


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


def test_near_integral_binary_is_branched_on_before_its_node_is_accepted():
    # The LP trades d for x: d = 1 - 1e-7 and x = 1e-6, which d = 1 does not
    # allow.  Rounding d alone would keep that x; branched on, d = 1 gives
    # x = 0, no row violated, and prunes d = 0.
    b = ModelBuilder()
    x = b.add_continuous(0.0, 1e-6, "x")
    d = b.add_binary("d")
    b.add_constraint({x: 1.0, d: 10.0}, LE, 10.0)
    b.set_objective({x: -1.0, d: -1.0})
    model = b.build()
    sol = solve(model)
    assert sol.status == OPTIMAL
    assert sol.values[d] == 1.0 and abs(sol.values[x]) <= 1e-12
    assert model.constraint_violation(sol.values) <= 1e-12
    assert sol.objective_value == pytest.approx(-1.0, abs=1e-12)


def test_near_integral_binary_that_cannot_be_rounded_is_branched_on():
    # d <= 1 - 1e-8: the LP's d is 1e-8 off 1, but d = 1 is infeasible, so
    # the node branches on d and keeps d = 0.
    b = ModelBuilder()
    d = b.add_binary("d")
    b.add_constraint({d: 1.0}, LE, 1.0 - 1e-8)
    b.set_objective({d: -1.0})
    sol = solve(b.build())
    assert sol.status == OPTIMAL
    assert sol.values[d] == 0.0 and sol.objective_value == 0.0


def test_milp_infeasible():
    b = ModelBuilder()
    d = b.add_binary("d")
    b.add_constraint({d: 2.0}, EQ, 1.0)  # needs d = 0.5
    b.set_objective({d: 1.0})
    assert solve(b.build()).status == INFEASIBLE


def _positive_cost_without_lb(b):
    x = b.add_continuous(-INF, 1.0, "x")
    b.set_objective({x: 1.0})


def _negative_cost_without_ub(b):
    x = b.add_continuous(0.0, INF, "x")
    b.set_objective({x: -1.0})


def _cost_on_free_column(b):
    x = b.add_continuous(-INF, INF, "x")
    b.add_constraint({x: 1.0}, LE, 1.0)
    b.set_objective({x: 0.5})


def _unbounded_lp(b):
    x = b.add_continuous(0, np.inf, "x")
    b.add_constraint({x: -1}, LE, 0.0)
    b.set_objective({x: -1})


def _unbounded_milp(b):
    x = b.add_continuous(-np.inf, np.inf, "x")
    d = b.add_binary("d")
    b.add_constraint({d: 1.0}, LE, 1.0)
    b.set_objective({x: 1.0})


def _dual_infeasible_rows_infeasible(b):
    # min -x, x >= 0, x <= -1: a cost ray, but no feasible point.
    x = b.add_continuous(0.0, INF, "x")
    b.add_constraint({x: 1.0}, LE, -1.0)
    b.set_objective({x: -1.0})


def _beale(b):
    # Beale's LP, which cycles under the primal most-negative reduced cost
    # rule: x0 and x2 have negative costs and no upper bound.
    x = [b.add_continuous(0.0, INF, f"x{i}") for i in range(4)]
    b.add_constraint({x[0]: 0.25, x[1]: -8.0, x[2]: -1.0, x[3]: 9.0}, LE, 0.0)
    b.add_constraint({x[0]: 0.5, x[1]: -12.0, x[2]: -0.5, x[3]: 3.0}, LE, 0.0)
    b.add_constraint({x[2]: 1.0}, LE, 1.0)
    b.set_objective({x[0]: -0.75, x[1]: 20.0, x[2]: -0.5, x[3]: 6.0})


@pytest.mark.parametrize("add", [
    _positive_cost_without_lb, _negative_cost_without_ub, _cost_on_free_column,
    _unbounded_lp, _unbounded_milp, _dual_infeasible_rows_infeasible, _beale,
], ids=["positive_cost_without_lb", "negative_cost_without_ub",
        "cost_on_free_column", "lp_unbounded", "milp_unbounded",
        "dual_infeasible_rows", "beale"])
def test_objective_without_a_bound_is_rejected(add):
    # A cost must point at a finite bound of its variable, so that the
    # objective is bounded over the variable box.
    b = ModelBuilder()
    add(b)
    with pytest.raises(ModelError):
        b.build()


def test_replace_checks_the_objective_bound():
    b = ModelBuilder()
    x = b.add_continuous(0.0, INF, "x")
    b.add_constraint({x: 1.0}, GE, 1.0)
    b.set_objective({x: 1.0})
    m = b.build()
    assert solve(replace(m, ub=np.array([2.0]))).objective_value == 1.0
    with pytest.raises(ModelError):
        replace(m, lb=np.array([-INF]))


def test_model_without_rows_solves_at_its_bounds():
    b = ModelBuilder()
    d = b.add_binary("d")
    x = b.add_continuous(-1.0, 2.0, "x")
    b.set_objective({d: -1.0, x: 1.0})
    sol = solve(b.build())
    assert sol.status == OPTIMAL and sol.objective_value == -2.0
    assert np.array_equal(sol.values, [1.0, -1.0])
    assert sol.stats["lp_calls"] == sol.stats["simplex_iters"] == 1


def test_trivially_infeasible_empty_constraint():
    b = ModelBuilder()
    x = b.add_continuous(0, 1, "x")
    b.add_constraint({x: 0.0}, GE, 1.0)  # reduces to 0 >= 1
    b.set_objective({x: 1.0})
    assert solve(b.build()).status == INFEASIBLE


def test_milp_with_violated_empty_constraint_is_infeasible():
    # An empty row is an ordinary row: its slack starts basic at the
    # violated value, and the pivot row has no entering candidate.
    b = ModelBuilder()
    d = b.add_binary("d")
    b.add_constraint({}, GE, 1.0)  # 0 >= 1
    b.set_objective({d: 1.0})
    sol = solve(b.build())
    assert sol.status == INFEASIBLE
    assert sol.stats["lp_calls"] == 1


@pytest.mark.parametrize("rel,rhs", [(LE, 0.0), (GE, 0.0), (EQ, 0.0),
                                     (LE, 1.0), (GE, -1.0)])
def test_satisfied_empty_constraint_is_ignored(rel, rhs):
    b = ModelBuilder()
    x = b.add_continuous(0.0, 4.0, "x")
    d = b.add_binary("d")
    b.add_constraint({}, rel, rhs)
    b.add_constraint({x: 1.0, d: 2.0}, GE, 2.5)
    b.set_objective({x: 1.0, d: 1.0})
    sol = solve(b.build())
    assert sol.status == OPTIMAL
    assert abs(sol.objective_value - 1.5) < 1e-9


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
        r = solve(replace(m, lb=lb, ub=ub))
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
    assert sol.status == SOLVER_LIMIT
    assert "max_simplex_iters=1" in sol.reason


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
    relaxed = solve(replace(m, is_binary=np.zeros_like(m.is_binary)))
    assert relaxed.objective_value < best - 0.5   # the root must branch
    a, b = solve(m), solve(m)
    assert a.status == OPTIMAL
    assert a.objective_value == best
    assert np.all(cover @ a.values == 1.0)
    assert a.stats["nodes"] > 1
    assert np.array_equal(a.values, b.values)
    assert a.objective_value == b.objective_value
    assert a.stats == b.stats


def test_each_budget_is_named_by_the_solve_it_stops():
    # The partitioning's best-first search takes 5 nodes and 21 simplex
    # iterations; its fourth node finds the optimum, and its fifth proves it.
    m, cover = _odd_cycle_partitioning()
    done = solve(m)
    assert done.status == OPTIMAL and done.reason is None
    lp = solve(m, SolverConfig(max_simplex_iters=5))
    assert lp.status == SOLVER_LIMIT and lp.values is None
    assert "max_simplex_iters=5" in lp.reason and "max_nodes" not in lp.reason
    nodes = solve(m, SolverConfig(max_nodes=4))
    assert nodes.status == SOLVER_LIMIT
    assert "max_nodes=4" in nodes.reason and "simplex" not in nodes.reason
    # The budget ran out with an incumbent in hand, and the solve keeps it.
    assert nodes.objective_value == done.objective_value == 6.0
    assert np.all(cover @ nodes.values == 1.0)


def _singular(monkeypatch):
    def inv(a):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(milp.np.linalg, "inv", inv)


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
    assert sol.stats == ref.stats


def test_singular_warm_root_resolves_cold(monkeypatch):
    # The handed tableau carries its count of basis updates, two here, so
    # with _REFACTOR_EVERY at 2 the warm root forms its tableau afresh
    # before its first pivot.  When that inversion fails, the root is
    # solved once more cold, which here needs no pivot, and the solve ends
    # at the cold optimum.
    def two_rows(rhs):
        b = ModelBuilder()
        x = b.add_continuous(0.0, 5.0, "x")
        y = b.add_continuous(0.0, 5.0, "y")
        b.add_constraint({x: 1.0, y: 2.0}, GE, rhs)
        b.add_constraint({x: 2.0, y: 1.0}, GE, rhs)
        b.set_objective({x: 1.0, y: 1.0})
        return b.build()

    basis = solve(two_rows(2.0)).root_basis
    assert basis.updates == 2
    m = two_rows(-1.0)
    ref = solve(m)
    monkeypatch.setattr(milp, "_REFACTOR_EVERY", 2)
    warm = solve(m, warm=basis)
    assert warm.stats["warm_root"] and warm.stats["inversions"] > 0
    _singular(monkeypatch)
    sol = solve(m, warm=basis)
    assert sol.status == OPTIMAL
    assert sol.objective_value == ref.objective_value
    assert np.array_equal(sol.values, ref.values)
    assert sol.stats == dict(ref.stats, cold_resolves=1, inversions=1,
                             lp_calls=ref.stats["lp_calls"] + 1,
                             simplex_iters=ref.stats["simplex_iters"] + 1)


def test_root_tableau_is_handed_over_only_with_its_costs(monkeypatch):
    # The root basis carries its final tableau.  A model with the same
    # matrix and costs starts from a copy of it; one with the same matrix
    # and other costs never reuses it (its reduced costs belong to the old
    # costs) and starts cold, exactly as without a basis.  Neither inverts
    # a basis, and both end at the cold solve's optimum.
    def two_columns(c_y):
        b = ModelBuilder()
        x = b.add_continuous(0.0, 5.0, "x")
        y = b.add_continuous(0.0, 4.0, "y")
        b.add_constraint({x: 1.0, y: 1.0}, LE, 3.0)
        b.set_objective({x: 0.0, y: c_y})
        return b.build()

    basis = solve(two_columns(-1.0)).root_basis
    _singular(monkeypatch)
    m = two_columns(-1.0)
    cold, warm = solve(m), solve(m, warm=basis)
    assert warm.stats["warm_root"] and warm.stats["cold_resolves"] == 0
    assert warm.stats["inversions"] == 0
    assert warm.objective_value == cold.objective_value
    assert np.array_equal(warm.values, cold.values)
    m = two_columns(-2.0)
    cold, other = solve(m), solve(m, warm=basis)
    assert not other.stats["warm_root"] and other.stats["inversions"] == 0
    assert other.stats == cold.stats
    assert np.array_equal(other.values, cold.values)


def test_refactorization_counts_inherited_updates(monkeypatch):
    # A start from a basis that keeps its inverse inherits that inverse's
    # update count: it refactorizes as soon as the count reaches
    # _REFACTOR_EVERY, however few pivots the LP itself makes.
    m, _ = _odd_cycle_partitioning()
    lp = (*milp._standard_form(m), 1000)
    status, _, obj, iters, basis = milp._simplex(*lp)
    assert status == OPTIMAL and basis.updates == iters - 1 > 0
    for every, inversions in ((basis.updates, 1), (basis.updates + 1, 0)):
        monkeypatch.setattr(milp, "_REFACTOR_EVERY", every)
        stats = {"inversions": 0}
        again = milp._simplex(*lp, warm=basis, stats=stats)
        assert again[0] == OPTIMAL and again[2] == obj
        assert stats["inversions"] == inversions


def test_standard_form_has_one_slack_per_row():
    # Row r's slack is column n + r, bounded by the row's relation.  Cold,
    # the slacks are the basis: an all-equality LP and a >=-only LP both
    # solve from it, the first by pivoting every fixed slack out.
    b = ModelBuilder()
    x = b.add_continuous(-5.0, 5.0, "x")
    y = b.add_continuous(-5.0, 5.0, "y")
    b.add_constraint({x: 1.0, y: 2.0}, LE, 4.0)
    b.add_constraint({x: 1.0}, GE, -1.0)
    b.add_constraint({x: 1.0, y: -1.0}, EQ, 0.5)
    b.set_objective({x: 1.0, y: 1.0})
    A, rhs, c, lb, ub = milp._standard_form(b.build())
    assert A.shape == (3, 5)
    assert np.array_equal(A, [[1, 2, 1, 0, 0], [1, 0, 0, 1, 0],
                              [1, -1, 0, 0, 1]])
    assert np.array_equal(rhs, [4.0, -1.0, 0.5])
    assert np.array_equal(c, [1, 1, 0, 0, 0])
    assert np.array_equal(lb[2:], [0.0, -INF, 0.0])
    assert np.array_equal(ub[2:], [INF, 0.0, 0.0])

    # x + 2y = 2 and 2x + y = 2 meet at the unique optimum (2/3, 2/3).
    for rel in (EQ, GE):
        b = ModelBuilder()
        x = b.add_continuous(0.0, 5.0, "x")
        y = b.add_continuous(0.0, 5.0, "y")
        b.add_constraint({x: 1.0, y: 2.0}, rel, 2.0)
        b.add_constraint({x: 2.0, y: 1.0}, rel, 2.0)
        b.set_objective({x: 1.0, y: 1.0})
        lp = milp._standard_form(b.build())
        status, xs, obj, iters, basis = milp._simplex(*lp, 100)
        assert status == OPTIMAL and basis.updates == 2   # a pivot per slack
        assert np.allclose(xs, [2 / 3, 2 / 3, 0.0, 0.0])
        assert abs(obj - 4 / 3) < 1e-12
        assert set(basis.basis.tolist()) == {0, 1}


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
        assert a.stats == b.stats
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
    assert warm.stats == cold.stats


def _two_column_model(x_lb, rel):
    # x + y (rel) 3, x in [x_lb, 5] and y in [0, 4], minimizing -y.
    b = ModelBuilder()
    x = b.add_continuous(x_lb, 5.0, "x")
    y = b.add_continuous(0.0, 4.0, "y")
    b.add_constraint({x: 1.0, y: 1.0}, rel, 3.0)
    b.set_objective({x: 0.0, y: -1.0})
    return b.build()


@pytest.mark.parametrize("x_lb,rel", [(-INF, LE), (0.0, GE)],
                         ids=["bound_pattern", "relation"])
def test_dual_infeasible_warm_root_resolves_cold(x_lb, rel):
    # The root tableau of another model with the same matrix and costs (y
    # basic, the reduced costs of x and of the slack 1) is not dual
    # feasible under these bounds: a reduced cost asks x, or the slack of
    # the row that turned >=, for a lower bound it lacks.  The root is
    # solved once more cold, and the result is the cold solve's.
    basis = solve(_two_column_model(0.0, LE)).root_basis
    m = _two_column_model(x_lb, rel)
    cold, warm = solve(m), solve(m, warm=basis)
    assert warm.stats["cold_resolves"] == 1 and not warm.stats["warm_root"]
    assert warm.status == cold.status == OPTIMAL
    assert warm.objective_value == cold.objective_value
    assert np.array_equal(warm.values, cold.values)
    assert warm.stats == dict(cold.stats, cold_resolves=1,
                              lp_calls=cold.stats["lp_calls"] + 1)


def test_singular_basis_is_numerical_failure(monkeypatch):
    # A chain of 80 equality rows starts on their 80 fixed slacks, each of
    # which leaves the basis in its own pivot, past the first refactorization
    # (every 60 iterations), where the inverse fails.
    b = ModelBuilder()
    x = [b.add_continuous(-INF, INF, f"x{i}") for i in range(80)]
    x.append(b.add_continuous(0.0, INF, "x80"))
    b.add_constraint({x[0]: 1.0}, EQ, 0.0)
    for i in range(80):
        b.add_constraint({x[i + 1]: 1.0, x[i]: -1.0}, EQ, 1.0)
    d = b.add_binary("d")
    b.add_constraint({x[80]: 1.0, d: 1.0}, GE, 80.5)
    b.set_objective({x[80]: 1.0, d: 1.0})
    m = b.build()
    ref = solve(m)
    assert ref.status == OPTIMAL
    assert abs(ref.objective_value - 81.0) < 1e-9
    _singular(monkeypatch)
    sol = solve(m)
    assert sol.status == NUMERICAL_FAILURE
    assert sol.values is None
    assert "basis failed to invert" in sol.reason
