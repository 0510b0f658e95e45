import numpy as np
import pytest

from milp_safeguard.encoder import TrackingProblem, solve_tracking
from milp_safeguard.milp import EQ, GE, LE, ModelBuilder
from milp_safeguard.nn_model import LayerParams, ReluNetwork, \
    build_identity_sum_network
from milp_safeguard.oracle import (
    NoFeasibleGridPoint,
    box_tracking_cost,
    enumerate_binary_feasibility,
    grid_control_search,
)
from milp_safeguard.sets import Hypercube, UnsafeRegion

X = Hypercube(np.array([-1.0, -1.0]), np.array([10.0, 10.0]))
U = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
EPS = np.array([0.05, 0.05])
NET = build_identity_sum_network(X, U)


def problem(y, x_ref, unsafe=()):
    return TrackingProblem(net=NET, X=X, U=U,
                           unsafe=UnsafeRegion(tuple(unsafe)),
                           eps_x=EPS, eps_y=EPS, eps_u=EPS,
                           y_k=np.asarray(y, dtype=float),
                           x_ref=np.asarray(x_ref, dtype=float))


@pytest.mark.parametrize("step", [0.0, -0.05])
def test_grid_step_must_be_positive(step):
    with pytest.raises(ValueError, match="step"):
        grid_control_search(problem([5, 5], [5.2, 5.2]), step)


def test_grid_includes_both_ends_of_U():
    # A step of 0.1 from -0.25 falls short of 0.25, which the grid adds;
    # references far off on either side pick the two ends.
    for x_ref, end in (([9, 9], U.hi), ([1, 1], U.lo)):
        g = grid_control_search(problem([5, 5], x_ref), 0.1)
        assert np.array_equal(g["best_u"], end)


def test_grid_ties_go_to_the_lexicographically_smallest_control():
    # The output is x on x >= 0 and ignores u, so every grid control has
    # the same cost.
    hidden = LayerParams(np.hstack([np.eye(2), np.zeros((2, 2))]),
                         np.zeros(2))
    out = LayerParams(np.eye(2), np.zeros(2))
    p = TrackingProblem(net=ReluNetwork((hidden, out)), X=X, U=U,
                        unsafe=UnsafeRegion(()), eps_x=EPS, eps_y=EPS,
                        eps_u=EPS, y_k=np.array([5.0, 5.0]),
                        x_ref=np.array([5.2, 5.2]))
    g = grid_control_search(p, 0.05)
    assert np.array_equal(g["best_u"], U.lo)
    assert g["best_cost"] == box_tracking_cost(p.x_box.lo - EPS,
                                               p.x_box.hi + EPS, p.x_ref)


def test_box_tracking_cost():
    cost = box_tracking_cost(np.array([0.0, 0.0]), np.array([1.0, 2.0]),
                             np.array([0.25, 0.5]))
    assert np.isclose(cost, 0.75 + 1.5)
    # Boxes stacked by rows: one cost per row, each that of its box.
    lo = np.array([[0.0, 0.0], [0.5, -1.0], [0.25, 0.5]])
    hi = np.array([[1.0, 2.0], [0.75, 3.0], [0.25, 0.5]])
    costs = box_tracking_cost(lo, hi, np.array([0.25, 0.5]))
    assert costs.shape == (3,)
    assert np.array_equal(costs, [box_tracking_cost(a, b, [0.25, 0.5])
                                  for a, b in zip(lo, hi)])
    assert np.allclose(costs, [2.25, 0.5 + 2.5, 0.0])


def test_grid_search_matches_milp_no_obstacles():
    p = problem([5, 5], [5.2, 5.2])
    d = solve_tracking(p)
    g = grid_control_search(p, 0.005)
    assert np.allclose(g["best_u"], d.u_cmd, atol=0.005 + 1e-9)
    assert abs(g["best_cost"] - d.cost) < 1e-4


def test_grid_search_refinement_does_not_worsen():
    p = problem([5, 5], [5.17, 4.83])
    coarse = grid_control_search(p, 0.05)
    fine = grid_control_search(p, 0.005)
    assert fine["best_cost"] <= coarse["best_cost"] + 1e-12


def test_grid_search_all_blocked():
    # Obstacle swallows the whole reachable neighborhood.
    block = Hypercube(np.array([4.0, 4.0]), np.array([6.0, 6.0]))
    p = TrackingProblem(net=NET, X=X, U=U, unsafe=UnsafeRegion((block,)),
                        eps_x=EPS, eps_y=EPS, eps_u=EPS,
                        y_k=np.array([5.0, 5.0]), x_ref=np.array([9.0, 9.0]))
    with pytest.raises(NoFeasibleGridPoint):
        grid_control_search(p, 0.05)


def test_enumeration_guards():
    b = ModelBuilder()
    x = b.add_continuous(0, 1, "x")
    b.add_binary("d")
    b.set_objective({x: 1.0})
    m = b.build()
    with pytest.raises(ValueError):
        enumerate_binary_feasibility(m, {})  # continuous var not fixed


def _relu_neuron_model(zlo, zhi):
    """The per-neuron ReLU rows with the three case binaries.

    Variables: ahat, bhat (pre-activation ends), a, b (post-activation
    ends), and the binaries for the fully-inactive / straddling /
    fully-active interval cases.
    """
    b = ModelBuilder()
    ahat = b.add_continuous(zlo, zhi, "ahat")
    bhat = b.add_continuous(zlo, zhi, "bhat")
    a = b.add_continuous(0.0, max(0.0, zhi), "a")
    bb = b.add_continuous(0.0, max(0.0, zhi), "b")
    dmm = b.add_binary("dmm")
    dmp = b.add_binary("dmp")
    dpp = b.add_binary("dpp")
    b.add_constraint({ahat: 1.0, bhat: -1.0}, LE, 0.0)
    b.add_constraint({a: 1.0, ahat: -1.0}, GE, 0.0)
    b.add_constraint({a: 1.0, ahat: -1.0, dmm: zlo, dmp: zlo}, LE, 0.0)
    b.add_constraint({a: 1.0, dpp: -zhi}, LE, 0.0)
    b.add_constraint({bb: 1.0, bhat: -1.0}, GE, 0.0)
    b.add_constraint({bb: 1.0, bhat: -1.0, dmm: zlo}, LE, 0.0)
    b.add_constraint({bb: 1.0, dmp: -zhi, dpp: -zhi}, LE, 0.0)
    b.add_constraint({a: 1.0, bb: -1.0}, LE, 0.0)
    b.add_constraint({dmm: 1.0, dmp: 1.0, dpp: 1.0}, EQ, 1.0)
    b.set_objective({a: 0.0})
    return b.build(), {"ahat": ahat, "bhat": bhat, "a": a, "b": bb}


def test_relu_cases_straddling_neuron():
    """Pre-activation interval crossing zero admits only the mixed case."""
    m, v = _relu_neuron_model(-2.0, 3.0)
    fixed = {v["ahat"]: -1.0, v["bhat"]: 2.0, v["a"]: 0.0, v["b"]: 2.0}
    assert enumerate_binary_feasibility(m, fixed) == {(0, 1, 0)}


def test_relu_cases_fully_active_neuron():
    m, v = _relu_neuron_model(-2.0, 3.0)
    fixed = {v["ahat"]: 1.0, v["bhat"]: 2.0, v["a"]: 1.0, v["b"]: 2.0}
    assert enumerate_binary_feasibility(m, fixed) == {(0, 0, 1)}


def test_relu_cases_fully_inactive_neuron():
    m, v = _relu_neuron_model(-2.0, 3.0)
    fixed = {v["ahat"]: -2.0, v["bhat"]: -1.0, v["a"]: 0.0, v["b"]: 0.0}
    assert enumerate_binary_feasibility(m, fixed) == {(1, 0, 0)}


def _control_bound_model(ul, uh, e):
    """The four big-M rows selecting a0 = max(ul, u - e) via one binary."""
    m_big = max(e, (uh - ul) - e)
    b = ModelBuilder()
    u = b.add_continuous(ul, uh, "u")
    a0 = b.add_continuous(ul, uh, "a0")
    da = b.add_binary("da")
    b.add_constraint({a0: 1.0}, GE, ul)
    b.add_constraint({a0: 1.0, u: -1.0}, GE, -e)
    b.add_constraint({a0: 1.0, da: m_big}, LE, ul + m_big)
    b.add_constraint({a0: 1.0, u: -1.0, da: -m_big}, LE, -e)
    b.set_objective({u: 0.0})
    return b.build(), u, a0


def test_control_case_interior():
    """u - e above the lower bound: only the noise-side branch works."""
    m, u, a0 = _control_bound_model(-0.25, 0.25, 0.05)
    assert enumerate_binary_feasibility(m, {u: 0.1, a0: 0.05}) == {(0,)}


def test_control_case_saturated():
    """u - e below the lower bound: only the set-bound branch works."""
    m, u, a0 = _control_bound_model(-0.25, 0.25, 0.05)
    assert enumerate_binary_feasibility(m, {u: -0.22, a0: -0.25}) == {(1,)}


def _obstacle_model(Xl, Xh, ol, oh, dim):
    """Per-dimension separation indicators plus the disjunction row."""
    b = ModelBuilder()
    x_lo = [b.add_continuous(Xl[q], Xh[q], f"xlo{q}") for q in range(dim)]
    x_hi = [b.add_continuous(Xl[q], Xh[q], f"xhi{q}") for q in range(dim)]
    d1 = [b.add_binary(f"d1_{q}") for q in range(dim)]
    d2 = [b.add_binary(f"d2_{q}") for q in range(dim)]
    total = {}
    for q in range(dim):
        b.add_constraint({x_hi[q]: 1.0, d1[q]: -(ol[q] - Xh[q])}, LE, Xh[q])
        b.add_constraint({x_hi[q]: 1.0, d1[q]: (ol[q] - Xl[q])}, GE, ol[q])
        b.add_constraint({x_lo[q]: 1.0, d2[q]: -(oh[q] - Xl[q])}, GE, Xl[q])
        b.add_constraint({x_lo[q]: 1.0, d2[q]: (oh[q] - Xh[q])}, LE, oh[q])
        b.add_constraint({d1[q]: 1.0, d2[q]: 1.0}, LE, 1.0)
        total[d1[q]] = 1.0
        total[d2[q]] = 1.0
    b.add_constraint(total, GE, 1.0)
    b.set_objective({x_lo[0]: 0.0})
    return b.build(), x_lo, x_hi


def test_obstacle_box_inside_is_contradiction():
    """A safe box strictly inside the obstacle admits no assignment."""
    m, x_lo, x_hi = _obstacle_model([0, 0], [10, 10], [2, 2], [3, 3], 2)
    fixed = {x_lo[0]: 2.2, x_lo[1]: 2.2, x_hi[0]: 2.8, x_hi[1]: 2.8}
    assert enumerate_binary_feasibility(m, fixed) == set()


def test_obstacle_box_clear_has_unique_witness():
    """A box below-left of the obstacle pins every indicator."""
    m, x_lo, x_hi = _obstacle_model([0, 0], [10, 10], [2, 2], [3, 3], 2)
    fixed = {x_lo[0]: 0.5, x_lo[1]: 0.5, x_hi[0]: 1.0, x_hi[1]: 1.0}
    # Binary id order: d1_0, d1_1, d2_0, d2_1.
    assert enumerate_binary_feasibility(m, fixed) == {(1, 1, 0, 0)}
