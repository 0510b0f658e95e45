import os
import subprocess
import sys

import numpy as np
import pytest

from milp_safeguard import planner
from milp_safeguard.nn_model import build_identity_sum_network, forward, \
    load_network
from milp_safeguard.planner import (
    NoPath,
    PlanFailure,
    PlanTree,
    _witness_search,
    reachable_box,
    rrt_build,
    shortest_path,
)
from milp_safeguard.sets import Hypercube, UnsafeRegion, inflate, intersect

X = Hypercube(np.array([-1.0, -1.0]), np.array([10.0, 10.0]))
U = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
NET = build_identity_sum_network(X, U)
FREE = UnsafeRegion(())

# The benchmark's bicycle net, with the corridor's state set and its
# planning control set (the control set shrunk by the planner's u_margin).
VEHICLE_NET = load_network(os.path.join(
    os.path.dirname(__file__), os.pardir, "bench", "scenarios",
    "vehicle_net.json"))
VEHICLE_X = Hypercube(np.array([0.0, -1.5, -0.35]), np.array([8.0, 1.5, 0.35]))
VEHICLE_U = Hypercube(np.array([2.4, -0.3]), np.array([3.4, 0.3]))


def test_reachable_box_identity_net():
    box = reachable_box(NET, np.array([2.0, 3.0]), U)
    assert np.allclose(box.lo, [1.75, 2.75])
    assert np.allclose(box.hi, [2.25, 3.25])


def test_edge_feasible_within_reach():
    """A target inside the one-step reach has a control witness whose model
    image is the target, the edge rrt_build stores."""
    us, rs = _witness_search(NET, [[2.0, 3.0]], [[2.2, 2.9]], U)
    assert us.shape == (1, 2) and rs.shape == (1,)
    u, r = us[0], rs[0]
    assert r <= 1e-6
    assert np.allclose(u, [0.2, -0.1], atol=1e-6)
    nxt = forward(NET, np.concatenate([np.array([2.0, 3.0]), u]))
    assert np.sum(np.abs(nxt - [2.2, 2.9])) <= 1e-6


def _sequential_search(net, x_from, x_to, U, coarse=9, refine_rounds=150):
    """The one-round-per-forward-pass pattern search that _witness_search
    must reproduce bit for bit: evaluate the 2*dim coordinate steps, move
    to the best if it improves, else halve the step."""
    x_from = np.asarray(x_from, dtype=float)
    x_to = np.asarray(x_to, dtype=float)

    def residuals(us):
        Z = np.concatenate(
            [np.broadcast_to(x_from, (len(us), x_from.shape[0])), us], axis=1)
        return np.sum(np.abs(planner.forward_batch(net, Z) - x_to), axis=1)

    axes = [np.linspace(U.lo[j], U.hi[j], coarse) for j in range(U.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    candidates = np.stack([g.ravel() for g in grids], axis=1)
    rs = residuals(candidates)
    best = int(np.argmin(rs))
    best_u, best_r = candidates[best].copy(), float(rs[best])
    span = (U.hi - U.lo) / (coarse - 1)
    steps = np.concatenate([-np.diag(span), np.diag(span)])
    for _ in range(refine_rounds):
        trial = np.clip(best_u + steps, U.lo, U.hi)
        rs = residuals(trial)
        best = int(np.argmin(rs))
        if rs[best] < best_r - 1e-15:
            best_r, best_u = float(rs[best]), trial[best].copy()
        else:
            span *= 0.5
            steps *= 0.5
            if np.max(span) < 1e-12:
                break
    return best_u, best_r


def _row_by_row_search(net, X_from, X_to, U):
    """_witness_search's stacked signature over _sequential_search, one row
    at a time."""
    results = [_sequential_search(net, x_from, x_to, U)
               for x_from, x_to in zip(X_from, X_to)]
    return (np.array([u for u, _ in results]),
            np.array([r for _, r in results]))


def _sequential_rrt(net, Xs, Us, unsafe, x0, xg, seed=0, max_iters=10000,
                    goal_bias=0.1, clearance=0.0, goal_tol=None):
    """The one-iteration-at-a-time RRT that rrt_build must reproduce bit for
    bit: draw a sample, extend the nearest node (ties to the older) toward
    its clip into that node's reachable box with a sequential search, and
    stop once the goal lies in a new node's reachable box inflated by
    goal_tol."""
    x0 = np.asarray(x0, dtype=float)
    xg = np.asarray(xg, dtype=float)
    inflated = UnsafeRegion(tuple(
        intersect(inflate(b, np.full(Xs.dim, clearance)), Xs)
        for b in unsafe))
    goal_tol = (np.zeros(Xs.dim) if goal_tol is None
                else np.asarray(goal_tol, dtype=float))
    rng = np.random.default_rng(seed)
    tree = PlanTree()
    tree.add_node(x0)

    def goal_connected(idx, x):
        if not inflate(reachable_box(net, x, Us), goal_tol).contains(
                xg, tol=1e-9):
            return False
        tree.goal, tree.goal_parent = xg, idx
        return True

    if goal_connected(0, x0):
        return tree
    for _ in range(max_iters):
        x_rand = xg if rng.random() < goal_bias else Xs.sample(rng)
        dists = np.sum(np.abs(np.array(tree.nodes) - x_rand), axis=1)
        near_idx = int(np.argmin(dists))
        near = tree.nodes[near_idx]
        rbox = intersect(reachable_box(net, near, Us), Xs)
        if rbox is None:
            continue
        candidate = np.clip(x_rand, rbox.lo, rbox.hi)
        if clearance > 0 and inflated.contains_interior(candidate):
            continue
        u, _ = _sequential_search(net, near, candidate, Us)
        new = forward(net, np.concatenate([near, u]))
        if (not Xs.contains(new) or unsafe.contains_interior(new)
                or clearance > 0 and inflated.contains_interior(new)):
            continue
        new_idx = tree.add_node(new)
        tree.add_edge(near_idx, new_idx, u)
        if goal_connected(new_idx, new):
            return tree
    raise PlanFailure(f"no goal connection after {max_iters} iterations")


def _assert_same_tree(tree, ref):
    assert len(tree.nodes) == len(ref.nodes)
    assert all(np.array_equal(a, b) for a, b in zip(tree.nodes, ref.nodes))
    assert len(tree.edges) == len(ref.edges)
    for (i, j, u), (i_ref, j_ref, u_ref) in zip(tree.edges, ref.edges):
        assert (i, j) == (i_ref, j_ref) and np.array_equal(u, u_ref)
    assert tree.goal_parent == ref.goal_parent
    assert np.array_equal(tree.goal, ref.goal)


def _search_pairs(net, Xs, Us, n, seed):
    """Seeded (x_from, x_to) pairs of three kinds: near the image of a
    random control, drawn from the reachable box (which over-approximates
    the image), and clipped into that box as the RRT does (on the vehicle
    net mostly out of the image, where the residual stalls)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        x_from = Xs.sample(rng)
        box = reachable_box(net, x_from, Us)
        if i % 3 == 0:
            x_to = forward(net, np.concatenate([x_from, Us.sample(rng)]))
            x_to = x_to + rng.normal(scale=1e-3, size=x_to.shape)
        elif i % 3 == 1:
            x_to = box.sample(rng)
        else:
            x_to = np.clip(Xs.sample(rng), box.lo, box.hi)
        pairs.append((x_from, x_to))
    return pairs


@pytest.mark.parametrize("net,Xs,Us", [(NET, X, U),
                                       (VEHICLE_NET, VEHICLE_X, VEHICLE_U)],
                         ids=["robot", "vehicle"])
def test_witness_search_matches_sequential_search(net, Xs, Us):
    # Lockstep batches of 1, 3, 8 and 9 searches, each row a search of its
    # own.  Budgets of 7, 8 and 9 rounds end inside, at and just past the
    # first batch of levels.
    pairs = _search_pairs(net, Xs, Us, 21, seed=3)
    batches = [pairs[:1], pairs[1:4], pairs[4:12], pairs[12:]]
    for rounds in (0, 1, 7, 8, 9, 150):
        for batch in batches:
            X_from = np.array([p[0] for p in batch])
            X_to = np.array([p[1] for p in batch])
            us, rs = _witness_search(net, X_from, X_to, Us,
                                     refine_rounds=rounds)
            assert us.shape == (len(batch), Us.dim)
            assert rs.shape == (len(batch),)
            for (x_from, x_to), u, r in zip(batch, us, rs):
                u_ref, r_ref = _sequential_search(net, x_from, x_to, Us,
                                                  refine_rounds=rounds)
                assert np.array_equal(u, u_ref) and r == r_ref, (
                    x_from, x_to, rounds, len(batch))


def test_witness_search_batches_the_halvings(monkeypatch):
    # A target on the image of a grid control: the grid point is already
    # the minimum, so every round after the grid is a halving.
    x_from = np.array([4.0, 0.2, -0.1])
    u_grid = np.array([np.linspace(lo, hi, 9)[k] for lo, hi, k in
                       zip(VEHICLE_U.lo, VEHICLE_U.hi, (3, 6))])
    x_to = forward(VEHICLE_NET, np.concatenate([x_from, u_grid]))
    passes = []
    inner = planner.forward_batch

    def counted(net, Z):
        passes.append(len(Z))
        return inner(net, Z)
    monkeypatch.setattr(planner, "forward_batch", counted)
    u_ref, r_ref = _sequential_search(VEHICLE_NET, x_from, x_to, VEHICLE_U)
    n_ref = len(passes)
    passes.clear()
    us, rs = _witness_search(VEHICLE_NET, x_from[None], x_to[None],
                             VEHICLE_U)
    assert np.array_equal(us[0], u_grid) and np.array_equal(us[0], u_ref)
    assert rs[0] == r_ref
    assert n_ref >= 35
    assert len(passes) <= 7


def test_rrt_build_matches_sequential_search(monkeypatch):
    wall = UnsafeRegion((Hypercube(np.array([4.0, -1.0]),
                                   np.array([5.0, 8.0])),))

    def build():
        return rrt_build(NET, X, U, wall, [1.0, 1.0], [8.0, 1.0], seed=7,
                         clearance=0.25)
    tree = build()
    monkeypatch.setattr(planner, "_witness_search", _row_by_row_search)
    ref = build()
    assert len(tree.nodes) > 1
    _assert_same_tree(tree, ref)


WALL = UnsafeRegion((Hypercube(np.array([4.0, -1.0]),
                               np.array([5.0, 8.0])),))
VEHICLE_WALL = UnsafeRegion((Hypercube(np.array([3.0, -1.5, -0.35]),
                                       np.array([4.3, -0.05, 0.35])),))
VEHICLE_TASK = dict(x0=[0.5, -0.3, 0.2], xg=[7.0, 0.45, 0.0],
                    goal_tol=[0.05, 0.05, 0.03])


# The robot cases: a goal bias that draws the goal nine times in ten, so
# that many guesses of the nearest node go stale, past a wall whose
# clearance skips most samples; a start whose reach holds the goal; and a
# budget that runs out.  The vehicle cases plan the benchmark corridor with
# two of its RRT seeds.
@pytest.mark.parametrize("net,Xs,Us,unsafe,task", [
    (NET, X, U, WALL, dict(x0=[1.0, 1.0], xg=[8.0, 1.0], seed=3,
                           goal_bias=0.9, clearance=0.25)),
    (NET, X, U, FREE, dict(x0=[2.0, 2.0], xg=[2.2, 2.1])),
    (NET, X, U, WALL, dict(x0=[1.0, 1.0], xg=[8.0, 1.0], max_iters=60,
                           clearance=0.25)),
    (VEHICLE_NET, VEHICLE_X, VEHICLE_U, VEHICLE_WALL,
     dict(VEHICLE_TASK, seed=14, goal_bias=0.2, clearance=0.1)),
    (VEHICLE_NET, VEHICLE_X, VEHICLE_U, VEHICLE_WALL,
     dict(VEHICLE_TASK, seed=4, goal_bias=0.2, clearance=0.1)),
], ids=["robot-goal-bias", "robot-trivial", "robot-budget", "vehicle-14",
        "vehicle-4"])
def test_rrt_build_matches_sequential_rrt(net, Xs, Us, unsafe, task):
    def plan(build):
        try:
            return build(net, Xs, Us, unsafe, **task)
        except PlanFailure:
            return None
    tree, ref = plan(rrt_build), plan(_sequential_rrt)
    if ref is None:
        assert tree is None
    else:
        _assert_same_tree(tree, ref)


# Prints the bytes of the robot maze's seed-0 plan, in hex.
_PLAN_BYTES = """
import sys
import numpy as np
from milp_safeguard.cli import load_scenario
from milp_safeguard.runtime import plan_waypoints
scenario, _ = load_scenario(sys.argv[1])
waypoints = plan_waypoints(scenario)
print(b"".join(np.asarray(w).tobytes() for w in waypoints).hex())
"""


def test_plan_does_not_depend_on_the_blas_thread_count():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    plans = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.path.join(root, "src"))
        done = subprocess.run(
            [sys.executable, "-c", _PLAN_BYTES,
             os.path.join(root, "scenarios", "robot_maze.yaml")],
            env=env, capture_output=True, text=True, check=True,
            timeout=300)
        plans.append(done.stdout.strip())
    assert plans[0] and plans[0] == plans[1]


@pytest.mark.parametrize("block_lo,kept", [(2.25, True), (2.2, False)],
                         ids=["boundary", "interior"])
def test_rrt_keeps_a_node_on_an_obstacle_boundary(block_lo, kept):
    # Goal-biased, the one step from [2, 3] lands on [2.25, 3], from which
    # the goal is reachable.  A node exactly on the block's face is kept
    # (obstacles are open); one inside the block is not.
    block = UnsafeRegion((Hypercube(np.array([block_lo, 2.9]),
                                    np.array([2.5, 3.5])),))

    def build():
        return rrt_build(NET, X, U, block, [2.0, 3.0], [2.5, 3.0],
                         goal_bias=1.0, max_iters=1)
    if kept:
        tree = build()
        assert len(tree.nodes) == 2 and tree.goal_parent == 1
        assert np.array_equal(tree.nodes[1], [2.25, 3.0])
    else:
        with pytest.raises(PlanFailure):
            build()


def test_rrt_drops_a_node_outside_the_state_set(monkeypatch):
    # A witness whose image leaves X (here one that always pushes
    # north-east, to [10.15, 5.25]) gives no node, even though the goal is
    # reachable from that image.
    def witness(net, X_from, X_to, U):
        k = len(X_from)
        return np.tile([0.25, 0.25], (k, 1)), np.zeros(k)
    monkeypatch.setattr(planner, "_witness_search", witness)
    with pytest.raises(PlanFailure):
        rrt_build(NET, X, U, FREE, [9.9, 5.0], [10.0, 5.4], goal_bias=1.0,
                  max_iters=1)


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


def test_rrt_ignores_an_obstacle_outside_the_state_set():
    # The obstacle's clearance-inflated box misses X, so it guards nothing:
    # the tree is the one planned with no obstacle.
    far = UnsafeRegion((Hypercube(np.array([20.0, 20.0]),
                                  np.array([21.0, 21.0])),))
    trees = [rrt_build(NET, X, U, unsafe, [0.0, 0.0], [3.0, 3.0], seed=0,
                       clearance=0.25) for unsafe in (far, FREE)]
    assert trees[0].goal_parent == trees[1].goal_parent >= 0
    assert len(trees[0].nodes) == len(trees[1].nodes) > 1
    for a, b in zip(trees[0].nodes, trees[1].nodes):
        assert np.array_equal(a, b)
    for (i, j, u), (k, m, w) in zip(trees[0].edges, trees[1].edges):
        assert (i, j) == (k, m) and np.array_equal(u, w)


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
    # Every edge is its stored witness's exact model image, and the goal
    # lies in the goal parent's reachable box (goal_tol is zero here).
    for i, j, u in tree.edges:
        assert np.array_equal(
            forward(NET, np.concatenate([tree.nodes[i], u])), tree.nodes[j])
    goal_box = reachable_box(NET, tree.nodes[tree.goal_parent], U)
    assert goal_box.contains(tree.goal, tol=1e-9)
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


def test_shortest_path_takes_the_goal_branch():
    # Root -> 1 -> 3 and root -> 2: the goal hangs off node 3, so node 2's
    # branch, nearer the goal as it is, stays off the path.
    tree = PlanTree()
    for p in ([0.0, 0.0], [0.0, 0.9], [0.25, 0.0], [0.2, 0.5]):
        tree.add_node(p)
    tree.add_edge(0, 1, np.zeros(2))
    tree.add_edge(0, 2, np.zeros(2))
    tree.add_edge(1, 3, np.zeros(2))
    tree.goal = np.array([0.3, 0.0])
    tree.goal_parent = 3
    path = shortest_path(tree)
    assert np.array_equal(np.array(path),
                          [[0, 0], [0, 0.9], [0.2, 0.5], [0.3, 0]])


def test_shortest_path_is_the_ancestor_chain_on_random_trees():
    # Random trees grown as rrt_build grows them: each new node hangs off
    # one earlier node.  The path to any node is its chain of ancestors.
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        tree = PlanTree()
        tree.add_node(rng.uniform(0, 1, 2))
        parents = [-1]
        for j in range(1, n):
            parents.append(int(rng.integers(0, j)))
            tree.add_node(rng.uniform(0, 1, 2))
            tree.add_edge(parents[j], j, np.zeros(2))
        target = int(rng.integers(0, n))
        chain = [target]
        while parents[chain[-1]] >= 0:
            chain.append(parents[chain[-1]])
        tree.goal = tree.nodes[target] + 0.01
        tree.goal_parent = target
        path = shortest_path(tree)
        assert len(path) == len(chain) + 1
        assert all(a is tree.nodes[i] for a, i in zip(path, chain[::-1]))
        assert path[-1] is tree.goal


def test_shortest_path_requires_a_chain_to_the_root():
    tree = _chain_tree([[0.0, 0.0], [0.2, 0.0], [0.4, 0.0]], [0.6, 0.0])
    tree.edges.pop(0)   # node 1 loses its parent
    with pytest.raises(NoPath):
        shortest_path(tree)
