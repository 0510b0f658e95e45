import numpy as np
import pytest

from milp_safeguard.nn_model import build_identity_sum_network, forward
from milp_safeguard.planner import (
    NoPath,
    PlanFailure,
    PlanTree,
    edge_feasible,
    reachable_box,
    rrt_build,
    shortest_path,
)
from milp_safeguard.sets import Hypercube, UnsafeRegion

X = Hypercube(np.array([-1.0, -1.0]), np.array([10.0, 10.0]))
U = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
NET = build_identity_sum_network(X, U)
FREE = UnsafeRegion(())


def test_reachable_box_identity_net():
    box = reachable_box(NET, np.array([2.0, 3.0]), U)
    assert np.allclose(box.lo, [1.75, 2.75])
    assert np.allclose(box.hi, [2.25, 3.25])


def test_edge_feasible_within_reach():
    ok, u = edge_feasible(NET, [2.0, 3.0], [2.2, 2.9], X, U, FREE)
    assert ok
    assert np.allclose(u, [0.2, -0.1], atol=1e-6)
    nxt = forward(NET, np.concatenate([np.array([2.0, 3.0]), u]))
    assert np.sum(np.abs(nxt - [2.2, 2.9])) <= 1e-6


def test_edge_feasible_rejects_out_of_reach():
    ok, u = edge_feasible(NET, [2.0, 3.0], [2.5, 3.0], X, U, FREE)
    assert not ok and u is None


def test_edge_feasible_rejects_obstacle_interior():
    block = UnsafeRegion((Hypercube(np.array([2.1, 2.9]),
                                    np.array([2.3, 3.1])),))
    ok, _ = edge_feasible(NET, [2.0, 3.0], [2.2, 3.0], X, U, block)
    assert not ok
    # Landing exactly on the boundary is allowed (closed complement).
    ok, _ = edge_feasible(NET, [2.0, 3.0], [2.1, 3.0], X, U, block)
    assert ok


def test_edge_feasible_rejects_outside_state_set():
    ok, _ = edge_feasible(NET, [9.9, 9.9], [10.1, 9.9], X, U, FREE)
    assert not ok


def test_rrt_trivial_when_goal_in_first_reach():
    tree = rrt_build(NET, X, U, FREE, [2.0, 2.0], [2.2, 2.1], seed=0)
    assert len(tree.nodes) == 1
    assert tree.goal_parent == 0
    path = shortest_path(tree)
    assert np.allclose(path[-1], [2.2, 2.1])


def test_rrt_budget_exhaustion_raises():
    with pytest.raises(PlanFailure):
        rrt_build(NET, X, U, FREE, [0.0, 0.0], [9.0, 9.0], max_iters=3)


def test_rrt_rejects_goal_in_obstacle():
    block = UnsafeRegion((Hypercube(np.array([4.0, 4.0]),
                                    np.array([6.0, 6.0])),))
    with pytest.raises(ValueError):
        rrt_build(NET, X, U, block, [0.0, 0.0], [5.0, 5.0])


def test_rrt_goal_tol_inflates_goal_test():
    # Goal 0.05 beyond exact reach: connects only with the tolerance.
    with pytest.raises(PlanFailure):
        rrt_build(NET, X, U, FREE, [2.0, 2.0], [2.3, 2.0], max_iters=0)
    tree = rrt_build(NET, X, U, FREE, [2.0, 2.0], [2.3, 2.0], max_iters=0,
                     goal_tol=[0.05, 0.05])
    assert tree.goal_parent == 0


def test_rrt_finds_path_around_wall():
    wall = UnsafeRegion((Hypercube(np.array([4.0, -1.0]),
                                   np.array([5.0, 8.0])),))
    tree = rrt_build(NET, X, U, wall, [1.0, 1.0], [8.0, 1.0], seed=0,
                     max_iters=20000, clearance=0.25)
    path = shortest_path(tree)
    assert np.allclose(path[0], [1.0, 1.0])
    assert np.allclose(path[-1], [8.0, 1.0])
    # Every consecutive pair re-validates as a feasible edge.
    for a, b in zip(path[:-1], path[1:]):
        ok, _ = edge_feasible(NET, a, b, X, U, wall)
        assert ok
    for w in path:
        assert X.contains(w)
        assert not wall.contains_interior(w)


def test_rrt_deterministic_given_seed():
    wall = UnsafeRegion((Hypercube(np.array([4.0, -1.0]),
                                   np.array([5.0, 8.0])),))
    t1 = rrt_build(NET, X, U, wall, [1.0, 1.0], [8.0, 1.0], seed=7)
    t2 = rrt_build(NET, X, U, wall, [1.0, 1.0], [8.0, 1.0], seed=7)
    assert len(t1.nodes) == len(t2.nodes)
    assert all(np.array_equal(a, b) for a, b in zip(t1.nodes, t2.nodes))


def test_shortest_path_requires_goal_connection():
    tree = PlanTree()
    tree.add_node([0.0, 0.0])
    with pytest.raises(NoPath):
        shortest_path(tree)


def _chain_tree(points, goal):
    tree = PlanTree()
    for p in points:
        tree.add_node(p)
    for i in range(len(points) - 1):
        tree.add_edge(i, i + 1, np.zeros(2))
    tree.goal = np.asarray(goal, dtype=float)
    tree.goal_parent = len(points) - 1
    return tree


def test_shortest_path_follows_chain():
    pts = [[0.0, 0.0], [0.2, 0.0], [0.4, 0.0]]
    path = shortest_path(_chain_tree(pts, [0.6, 0.0]))
    assert len(path) == 4
    assert np.allclose(np.array(path),
                       [[0, 0], [0.2, 0], [0.4, 0], [0.6, 0]])


def test_shortest_path_prefers_cheaper_branch():
    # Diamond: root -> 1 -> 3 is shorter than root -> 2 -> 3.
    tree = PlanTree()
    tree.add_node([0.0, 0.0])
    tree.add_node([0.1, 0.0])
    tree.add_node([0.0, 0.9])
    tree.add_node([0.2, 0.0])
    tree.add_edge(0, 1, np.zeros(2))
    tree.add_edge(0, 2, np.zeros(2))
    tree.add_edge(1, 3, np.zeros(2))
    tree.add_edge(2, 3, np.zeros(2))
    tree.goal = np.array([0.3, 0.0])
    tree.goal_parent = 3
    path = shortest_path(tree)
    assert np.allclose(np.array(path),
                       [[0, 0], [0.1, 0], [0.2, 0], [0.3, 0]])


def _dfs_shortest(adj, n, target):
    """Brute-force shortest root-to-target distance over all simple paths."""
    best = [np.inf]

    def go(i, d, seen):
        if d >= best[0]:
            return
        if i == target:
            best[0] = d
            return
        for j, w in adj[i]:
            if j not in seen:
                go(j, d + w, seen | {j})

    go(0, 0.0, {0})
    return best[0]


def test_shortest_path_matches_enumeration_on_random_dags():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        tree = PlanTree()
        pts = rng.uniform(0, 1, size=(n, 2))
        for p in pts:
            tree.add_node(p)
        adj = [[] for _ in range(n)]
        for j in range(1, n):
            parents = rng.choice(j, size=min(j, 2), replace=False)
            for i in parents:
                tree.add_edge(int(i), j, np.zeros(2))
                w = float(np.sum(np.abs(pts[i] - pts[j])))
                adj[int(i)].append((j, w))
        target = n - 1
        tree.goal = pts[target] + 0.01
        tree.goal_parent = target
        path = shortest_path(tree)
        got = sum(float(np.sum(np.abs(a - b)))
                  for a, b in zip(path[:-2], path[1:-1]))
        assert abs(got - _dfs_shortest(adj, n, target)) < 1e-12

