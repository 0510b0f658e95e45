import os
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milp_safeguard import planner
from milp_safeguard.cli import load_scenario
from milp_safeguard.nn_model import LayerParams, ReluNetwork, \
    build_identity_sum_network, forward, forward_batch, load_network
from milp_safeguard.planner import (
    NoPath,
    PlanFailure,
    PlanTree,
    _witness_search,
    reachable_box,
    rrt_build,
    shortest_path,
)
from milp_safeguard.runtime import plan_waypoints
from milp_safeguard.sets import Hypercube, UnsafeRegion

from helpers import center, inflate, intersect

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
    lo, hi, stable = reachable_box(NET, np.array([2.0, 3.0]), U)
    assert np.allclose(lo, [1.75, 2.75])
    assert np.allclose(hi, [2.25, 3.25])
    # Its hidden neurons are all active over X x U.
    assert stable


def test_edge_feasible_within_reach():
    """A target inside the one-step reach has a control witness whose model
    image is the target, the edge rrt_build stores."""
    us, rs = _witness_search(NET, [[2.0, 3.0]], [[2.2, 2.9]], U, [True])
    assert us.shape == (1, 2) and rs.shape == (1,)
    u, r = us[0], rs[0]
    assert r <= 1e-6
    assert np.allclose(u, [0.2, -0.1], atol=1e-6)
    nxt = forward(NET, np.concatenate([np.array([2.0, 3.0]), u]))
    assert np.sum(np.abs(nxt - [2.2, 2.9])) <= 1e-6


def _sequential_search(net, x_from, x_to, U):
    """A reference oracle that shares no code with _witness_search: a coarse
    grid, then a pattern search that evaluates the 2*dim coordinate steps,
    moves to the best if it improves, else halves the step."""
    x_from = np.asarray(x_from, dtype=float)
    x_to = np.asarray(x_to, dtype=float)

    def residuals(us):
        Z = np.concatenate(
            [np.broadcast_to(x_from, (len(us), x_from.shape[0])), us], axis=1)
        return np.sum(np.abs(planner.forward_batch(net, Z) - x_to), axis=1)

    axes = [np.linspace(U.lo[j], U.hi[j], 9) for j in range(U.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    candidates = np.stack([g.ravel() for g in grids], axis=1)
    rs = residuals(candidates)
    best = int(np.argmin(rs))
    best_u, best_r = candidates[best].copy(), float(rs[best])
    span = (U.hi - U.lo) / 8
    steps = np.concatenate([-np.diag(span), np.diag(span)])
    for _ in range(150):
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


def _one_search(net, x_from, x_to, U, stable):
    """_witness_search run on the one pair (x_from, x_to) alone, with
    x_from's stability flag."""
    us, rs = _witness_search(net, np.asarray(x_from, dtype=float)[None],
                             np.asarray(x_to, dtype=float)[None], U, [stable])
    return us[0], rs[0]


def _row_by_row_search(net, X_from, X_to, U, stable):
    """_witness_search's stacked signature over _one_search, one row at a
    time."""
    results = [_one_search(net, x_from, x_to, U, s)
               for x_from, x_to, s in zip(X_from, X_to, stable)]
    return (np.array([u for u, _ in results]),
            np.array([r for _, r in results]))


def _sequential_rrt(net, Xs, Us, unsafe, x0, xg, seed=0, max_iters=10000,
                    goal_bias=0.1, clearance=0.0, goal_tol=None):
    """The one-iteration-at-a-time RRT that rrt_build must reproduce bit for
    bit: draw a sample, extend the nearest node (ties to the older) toward
    its clip into that node's reachable box with a search of its own, and
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
    tree = planner.PlanTree()
    tree.add_node(x0)

    def goal_connected(idx, x):
        box = inflate(Hypercube(*reachable_box(net, x, Us)[:2]), goal_tol)
        if not box.contains(xg, tol=1e-9):
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
        lo, hi, stable = reachable_box(net, near, Us)
        rbox = intersect(Hypercube(lo, hi), Xs)
        if rbox is None:
            continue
        candidate = np.clip(x_rand, rbox.lo, rbox.hi)
        if clearance > 0 and inflated.contains_interior(candidate):
            continue
        u, _ = _one_search(net, near, candidate, Us, stable)
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
        box = Hypercube(*reachable_box(net, x_from, Us)[:2])
        if i % 3 == 0:
            x_to = forward(net, np.concatenate([x_from, Us.sample(rng)]))
            x_to = x_to + rng.normal(scale=1e-3, size=x_to.shape)
        elif i % 3 == 1:
            x_to = box.sample(rng)
        else:
            x_to = np.clip(Xs.sample(rng), box.lo, box.hi)
        pairs.append((x_from, x_to))
    return pairs


BOTH_NETS = pytest.mark.parametrize(
    "net,Xs,Us", [(NET, X, U), (VEHICLE_NET, VEHICLE_X, VEHICLE_U)],
    ids=["robot", "vehicle"])


def _stability(net, X_from, Us):
    return reachable_box(net, np.asarray(X_from), Us)[2]


@BOTH_NETS
def test_witness_search_matches_sequential_search(net, Xs, Us):
    # Lockstep batches of 1, 3, 8 and 9 searches equal the same searches
    # run one at a time, bit for bit.  The grid-and-rounds path is right
    # for any node, so every third row takes it even where its node is
    # stable (on the identity-sum net, every node is): the batches of more
    # than one row mix both paths.
    pairs = _search_pairs(net, Xs, Us, 21, seed=3)
    stable = (_stability(net, [p[0] for p in pairs], Us)
              & (np.arange(len(pairs)) % 3 != 1))
    for rows in (slice(0, 1), slice(1, 4), slice(4, 12), slice(12, None)):
        batch, flags = pairs[rows], stable[rows]
        assert len(batch) == 1 or 0 < flags.sum() < len(batch)
        X_from = np.array([p[0] for p in batch])
        X_to = np.array([p[1] for p in batch])
        us, rs = _witness_search(net, X_from, X_to, Us, flags)
        assert us.shape == (len(batch), Us.dim)
        assert rs.shape == (len(batch),)
        for (x_from, x_to), flag, u, r in zip(batch, flags, us, rs):
            u_ref, r_ref = _one_search(net, x_from, x_to, Us, flag)
            assert np.array_equal(u, u_ref) and r == r_ref, (
                x_from, x_to, len(batch))


@BOTH_NETS
def test_witness_search_is_no_worse_than_a_pattern_search(net, Xs, Us):
    pairs = _search_pairs(net, Xs, Us, 21, seed=3)
    X_from = np.array([p[0] for p in pairs])
    us, rs = _witness_search(net, X_from, np.array([p[1] for p in pairs]),
                             Us, _stability(net, X_from, Us))
    for (x_from, x_to), u, r in zip(pairs, us, rs):
        assert Us.contains(u)
        image = forward(net, np.concatenate([x_from, u]))
        assert abs(r - np.sum(np.abs(image - x_to))) <= 1e-12
        assert r <= _sequential_search(net, x_from, x_to, Us)[1] + 1e-12


def _counted_passes(monkeypatch):
    passes = []
    inner = planner.forward_batch

    def counted(net, Z):
        passes.append(len(Z))
        return inner(net, Z)
    monkeypatch.setattr(planner, "forward_batch", counted)
    return passes


def test_witness_search_keeps_a_grid_control_on_target(monkeypatch):
    # From a node with an undetermined neuron, a target on the image of a
    # grid control: the grid pass finds it, and one round of vertices
    # finds nothing better.
    x_from = np.array([4.0, -1.0, 0.1])
    stable = _stability(VEHICLE_NET, x_from, VEHICLE_U)
    assert not stable
    u_grid = np.array([np.linspace(lo, hi, 9)[k] for lo, hi, k in
                       zip(VEHICLE_U.lo, VEHICLE_U.hi, (3, 6))])
    x_to = forward(VEHICLE_NET, np.concatenate([x_from, u_grid]))
    passes = _counted_passes(monkeypatch)
    us, rs = _witness_search(VEHICLE_NET, x_from[None], x_to[None],
                             VEHICLE_U, [stable])
    assert np.array_equal(us[0], u_grid)
    assert rs[0] <= 1e-12
    assert passes[0] == 81 and len(passes) <= 3


def test_witness_search_steers_a_stable_node_in_one_round(monkeypatch):
    # From a stable node of the learned net, targets on the images of
    # random controls: the vertices of the node's one affine map, ranked
    # on that map with no forward pass, hold a control that reaches each
    # target.
    rng = np.random.default_rng(8)
    X_from = VEHICLE_X.sample(rng, 40)
    stable = _stability(VEHICLE_NET, X_from, VEHICLE_U)
    X_from = X_from[stable][:8]
    assert len(X_from) == 8
    X_to = forward(VEHICLE_NET, np.hstack([X_from,
                                           VEHICLE_U.sample(rng, 8)]))
    passes = _counted_passes(monkeypatch)
    us, rs = _witness_search(VEHICLE_NET, X_from, X_to, VEHICLE_U,
                             np.ones(8, dtype=bool))
    assert len(passes) == 0
    assert np.all(rs <= 1e-12)


@pytest.mark.parametrize("x_to", [[2.15625, 2.90625], [2.5, 2.96875],
                                  [1.0, 3.5]],
                         ids=["in-reach", "one-axis-clipped", "corner"])
def test_witness_search_steers_the_identity_net_in_one_round(
        monkeypatch, x_to):
    # The identity-sum net is one affine piece, x + u: its nodes are
    # stable, and the best vertex of that map, found with no forward pass,
    # is clip(x_to - x_from, U).  The values are dyadic, so the net
    # computes them exactly.
    x_from, x_to = np.array([2.0, 3.0]), np.array(x_to)
    passes = _counted_passes(monkeypatch)
    us, rs = _witness_search(NET, x_from[None], x_to[None], U,
                             _stability(NET, x_from[None], U))
    u = np.clip(x_to - x_from, U.lo, U.hi)
    assert np.array_equal(us[0], u)
    assert rs[0] == np.sum(np.abs(x_from + u - x_to))
    assert len(passes) == 0


def _affine_net(rng, n_x, m):
    """A one-hidden-layer net whose hidden neurons are all active on
    [-1, 1]^(n_x + m), so that it is one affine piece there."""
    n = n_x + m
    W1 = rng.normal(size=(6, n))
    hidden = LayerParams(W1, np.abs(W1).sum(axis=1) + 0.5)
    return ReluNetwork((hidden, LayerParams(rng.normal(size=(n_x, 6)),
                                            rng.normal(size=n_x))))


@pytest.mark.parametrize("m,points", [(1, 20001), (3, 61)],
                         ids=["one-control", "three-controls"])
def test_witness_search_other_control_dimensions(m, points):
    # The vertices are the m-subsets of the n_x residual hyperplanes and
    # U's 2m faces.  On a net that is affine over U, their best is the
    # least residual, no worse than any point of a fine grid over U and
    # near the best of them.
    rng = np.random.default_rng(m)
    n_x = 2 if m == 1 else 4
    net = _affine_net(rng, n_x, m)
    Us = Hypercube(-np.ones(m), np.ones(m))
    axes = np.meshgrid(*[np.linspace(-1.0, 1.0, points)] * m, indexing="ij")
    grid = np.stack([a.ravel() for a in axes], axis=1)
    X_from = rng.uniform(-1.0, 1.0, size=(4, n_x))
    X_to = rng.uniform(-3.0, 3.0, size=(4, n_x))
    stable = _stability(net, X_from, Us)
    assert stable.all()
    us, rs = _witness_search(net, X_from, X_to, Us, stable)
    for x_from, x_to, u, r in zip(X_from, X_to, us, rs):
        Z = np.hstack([np.broadcast_to(x_from, (len(grid), n_x)), grid])
        on_grid = np.abs(forward_batch(net, Z) - x_to).sum(axis=1)
        assert Us.contains(u)
        assert r <= on_grid.min() + 1e-12
        assert r >= on_grid.min() - 0.05


@given(seed=st.integers(0, 2**32 - 1),
       case=st.sampled_from(["robot", "vehicle", "affine"]))
@settings(max_examples=30, deadline=None)
def test_witness_search_is_no_worse_than_the_grid_and_rounds(seed, case):
    # The grid-and-rounds path, which every row takes when no flag is set,
    # is right for any node.  A stable row's closed form is no worse than
    # it, and ranks by the residual that the net gives at its control; an
    # unstable row's result is its result.  The affine net's X reaches past
    # the box on which it is one piece, so its nodes are of both kinds, as
    # are the vehicle net's.
    rng = np.random.default_rng(seed)
    if case == "affine":
        net = _affine_net(rng, 3, 2)
        Xs, Us = Hypercube(-2 * np.ones(3), 2 * np.ones(3)), \
            Hypercube(-np.ones(2), np.ones(2))
    else:
        net, Xs, Us = {"robot": (NET, X, U),
                       "vehicle": (VEHICLE_NET, VEHICLE_X, VEHICLE_U)}[case]
    pairs = _search_pairs(net, Xs, Us, 9, seed)
    X_from = np.array([p[0] for p in pairs])
    X_to = np.array([p[1] for p in pairs])
    stable = _stability(net, X_from, Us)
    us, rs = _witness_search(net, X_from, X_to, Us, stable)
    _, rs_grid = _witness_search(net, X_from, X_to, Us,
                                 np.zeros(len(pairs), dtype=bool))
    assert np.all(rs <= rs_grid + 1e-12)
    assert np.array_equal(rs[~stable], rs_grid[~stable])
    images = forward(net, np.hstack([X_from, us]))
    assert np.all(np.abs(rs - np.abs(images - X_to).sum(axis=1))[stable]
                  <= 1e-12)


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
# that many pending draws move to a new nearest node or tie with one, past
# a wall whose clearance skips most samples; a start whose reach holds the
# goal; budgets of 60 and 61 iterations that run out; a tree of 602 nodes,
# whose arrays grow past 256 and 512 nodes inside a window; and a goal bias
# of 1, where every pending draw has the same sample.  The
# vehicle cases plan the benchmark corridor with two of its RRT seeds, and
# with no clearance.
@pytest.mark.parametrize("net,Xs,Us,unsafe,task", [
    (NET, X, U, WALL, dict(x0=[1.0, 1.0], xg=[8.0, 1.0], seed=3,
                           goal_bias=0.9, clearance=0.25)),
    (NET, X, U, FREE, dict(x0=[2.0, 2.0], xg=[2.2, 2.1])),
    (NET, X, U, WALL, dict(x0=[1.0, 1.0], xg=[8.0, 1.0], max_iters=60,
                           clearance=0.25)),
    (NET, X, U, WALL, dict(x0=[1.0, 1.0], xg=[8.0, 1.0], max_iters=61,
                           clearance=0.25)),
    (NET, X, U, WALL, dict(x0=[1.0, 1.0], xg=[8.0, 1.0], seed=1,
                           clearance=0.25)),
    (NET, X, U, WALL, dict(x0=[1.0, 1.0], xg=[3.0, 6.0], goal_bias=1.0)),
    (VEHICLE_NET, VEHICLE_X, VEHICLE_U, VEHICLE_WALL,
     dict(VEHICLE_TASK, seed=14, goal_bias=0.2, clearance=0.1)),
    (VEHICLE_NET, VEHICLE_X, VEHICLE_U, VEHICLE_WALL,
     dict(VEHICLE_TASK, seed=4, goal_bias=0.2, clearance=0.1)),
    (VEHICLE_NET, VEHICLE_X, VEHICLE_U, VEHICLE_WALL,
     dict(VEHICLE_TASK, seed=3, goal_bias=0.2, clearance=0.0)),
], ids=["robot-goal-bias", "robot-trivial", "robot-budget",
        "robot-budget-mid-chunk", "robot-past-256", "robot-goal-bias-1",
        "vehicle-14", "vehicle-4", "vehicle-no-clearance"])
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


def _grown_tree(build, *args, **kwargs):
    """The tree that build grows, whether or not it connects the goal
    before its iterations run out, and whether it does."""
    trees = []

    def recorded():
        trees.append(PlanTree())
        return trees[-1]
    with mock.patch.object(planner, "PlanTree", recorded):
        try:
            build(*args, **kwargs)
        except PlanFailure:
            return trees[-1], False
    return trees[-1], True


@given(seed=st.integers(0, 2**32 - 1),
       goal_bias=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
       clearance=st.booleans(), max_iters=st.integers(1, 150),
       case=st.sampled_from(["robot", "vehicle"]))
@settings(max_examples=25, deadline=None)
def test_rrt_build_matches_sequential_rrt_on_any_budget(
        seed, goal_bias, clearance, max_iters, case):
    # Goal-biased draws repeat the goal, so that a new node ties with an
    # older one as a pending draw's nearest; budgets end inside a chunk of
    # draws.  The trees must be equal whether or not the plan connects the
    # goal, as far as it grew.
    if case == "robot":
        net, Xs, Us, unsafe = NET, X, U, WALL
        task = dict(x0=[1.0, 1.0], xg=[3.0, 6.0], clearance=0.25 * clearance)
    else:
        net, Xs, Us, unsafe = VEHICLE_NET, VEHICLE_X, VEHICLE_U, VEHICLE_WALL
        task = dict(VEHICLE_TASK, clearance=0.1 * clearance)
    task.update(seed=seed, goal_bias=goal_bias, max_iters=max_iters)
    tree, done = _grown_tree(rrt_build, net, Xs, Us, unsafe, **task)
    ref, ref_done = _grown_tree(_sequential_rrt, net, Xs, Us, unsafe, **task)
    assert done == ref_done
    _assert_same_tree(tree, ref)


@given(seed=st.integers(0, 2**32 - 1),
       goal_bias=st.sampled_from([0.0, 0.2, 1.0]), dim=st.integers(2, 3),
       chunks=st.lists(st.integers(1, planner._CHUNK), max_size=12))
@settings(max_examples=60, deadline=None)
def test_window_draws_are_the_per_iteration_draws(seed, goal_bias, dim,
                                                  chunks):
    # rrt_build reads its draws a chunk of iterations at a time and scales
    # the doubles into X itself.  The samples must be, bit for bit, those of
    # one rng.random() and, unless it picks the goal, one X.sample(rng) per
    # iteration, for every chunk size up to the top-up chunk: otherwise
    # every plan, the benchmark's seeds among them, would silently change.
    box = np.random.default_rng([seed, dim])
    lo = box.uniform(-10.0, 5.0, dim)
    Xs = Hypercube(lo, lo + box.uniform(0.1, 10.0, dim))
    xg = center(Xs)
    draws = planner._Draws(np.random.default_rng(seed), Xs, xg, goal_bias)
    got = np.concatenate([draws.take(c) for c in
                          list(range(1, planner._CHUNK + 1)) + chunks])
    rng = np.random.default_rng(seed)
    ref = np.array([xg if rng.random() < goal_bias else Xs.sample(rng)
                    for _ in got])
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", [2, 4, 5, 6, 7, 9, 10, 14])
def test_bench_corridor_seed_plans_in_the_fast_mode(monkeypatch, seed):
    # The corridor RRT's cost is bimodal in its seed: the benchmark's seeds
    # need 86 to 727 witness searches, the slow mode thousands.  A changed
    # witness must not push one of them into the slow mode; the plan stops
    # at the first search past the budget.
    scenario, _ = load_scenario(os.path.join(
        os.path.dirname(__file__), os.pardir, "bench", "scenarios",
        "vehicle_corridor.yaml"))
    inner, rows = planner._witness_search, []

    def counted(net, X_from, X_to, U, stable):
        rows.append(len(X_from))
        assert sum(rows) <= 1000, f"seed {seed} past 1,000 witness rows"
        return inner(net, X_from, X_to, U, stable)
    monkeypatch.setattr(planner, "_witness_search", counted)
    plan_waypoints(replace(scenario, seed=seed))
    assert rows


# Prints the bytes of a scenario's plan with the given RRT seed, in hex.
_PLAN_BYTES = """
import sys
from dataclasses import replace
import numpy as np
from milp_safeguard.cli import load_scenario
from milp_safeguard.runtime import plan_waypoints
scenario, _ = load_scenario(sys.argv[1])
waypoints = plan_waypoints(replace(scenario, seed=int(sys.argv[2])))
print(b"".join(np.asarray(w).tobytes() for w in waypoints).hex())
"""


def test_plan_does_not_depend_on_the_blas_thread_count():
    # The robot maze's seed-0 plan, and the 61-node corridor plan of bench
    # seed 14, whose reachable boxes come from (k, n) stacks of nodes.
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    for scenario, seed in ((("scenarios", "robot_maze.yaml"), 0),
                           (("bench", "scenarios", "vehicle_corridor.yaml"),
                            14)):
        plans = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.path.join(root, "src"))
            done = subprocess.run(
                [sys.executable, "-c", _PLAN_BYTES,
                 os.path.join(root, *scenario), str(seed)],
                env=env, capture_output=True, text=True, check=True,
                timeout=300)
            plans.append(done.stdout.strip())
        assert plans[0] and plans[0] == plans[1], scenario


# Prints, for each given RRT seed, a scenario's plan: its witness-search
# windows, the forward passes they make, its node count and the SHA-256 of
# its edges, one plan a line.
_PLAN_COUNTS = """
import hashlib
import sys
from dataclasses import replace
from milp_safeguard import planner, runtime
from milp_safeguard.cli import load_scenario
inner_search, inner_pass, inner_build = (
    planner._witness_search, planner.forward_batch, runtime.rrt_build)
windows, passes, trees = [], [], []
def search(*args):
    windows.append(1)
    return inner_search(*args)
def forward_pass(*args):
    passes.append(1)
    return inner_pass(*args)
def build(*args, **kwargs):
    trees.append(inner_build(*args, **kwargs))
    return trees[-1]
planner._witness_search, planner.forward_batch = search, forward_pass
runtime.rrt_build = build
scenario, _ = load_scenario(sys.argv[1])
for seed in sys.argv[2:]:
    for log in (windows, passes, trees):
        log.clear()
    runtime.plan_waypoints(replace(scenario, seed=int(seed)))
    edges = repr([(i, j) for i, j, _ in trees[0].edges]).encode()
    print(len(windows), len(passes), len(trees[0].nodes),
          hashlib.sha256(edges).hexdigest())
"""


def _plan_counts(scenario, seeds):
    """_PLAN_COUNTS's lines for the scenario at the given path under the
    repository root, split into fields, at one BLAS thread, as the
    benchmark runs."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        [sys.executable, "-c", _PLAN_COUNTS, os.path.join(root, *scenario)]
        + [str(s) for s in seeds],
        env=env, capture_output=True, text=True, check=True, timeout=300)
    return [line.split() for line in done.stdout.splitlines()]


def test_robot_plan_stays_within_its_forward_pass_budget():
    # Every node of the seed-0 plan is stable, so each window of searches
    # is steered on its nodes' affine maps, with no forward pass.  The tree
    # is the one the grid-and-rounds search planned: 790 nodes and the same
    # edges.  Pending draws keep their nearest nodes exact, so no search is
    # redone for a stale guess, and the plan takes 154 windows.  A search
    # that falls back to the grid and rounds, a witness that moves an edge,
    # or searches undone more often, show here first.
    [(windows, passes, nodes, edges)] = _plan_counts(
        ("scenarios", "robot_maze.yaml"), [0])
    assert int(passes) == 0
    assert (int(windows), int(nodes)) == (154, 790)
    assert edges == ("329de9fafa04fdbe64ffc9bd9c3d6004"
                     "7836485bdec5e401c69af4feb815fc03")


# The node count and edge-list SHA-256 of each corridor bench seed's tree,
# as the grid-and-rounds search planned them.
_CORRIDOR_TREES = {
    2: (99, "2ef592dd783c4d8f433ec73e223c73e91972fd0876cee04d261a2e0180d16e59"),
    4: (108, "7fdddd3b3fa9777d0afd19da97dc2cf18ff43b4a950daece37951293d2d2f7e5"),
    5: (494, "6689653ca5a8722b70160b5c88b813e436475e164abfce491653a9b3f8a4dc89"),
    6: (103, "7bf134ed84dba12ea32dac9a295bdb1175ee11cdd4cf2aa7b6bf8b89067f269a"),
    7: (327, "df9447c04d0604b7596c866f45694b757257141d3f7172f1fbd9077605f0d5be"),
    9: (532, "e7a582caeb4b9d4392dd705845e3414a560e20b6f10d07c56bc8384baf165553"),
    10: (694, "3ea317f73b0b332751cc4bb85a80d35f5f0004cc254ffc49e984616dd45b7807"),
    14: (61, "cddb9f1d64af20520395e3097b74b4347447f9044edaf18b93e1e8e6645a0e0d"),
}


def test_corridor_bench_trees_keep_their_edges():
    # The learned net's stable nodes are steered on their affine maps, which
    # may move a node in its last bits; the benchmark's corridor seeds must
    # keep their trees' nodes and edges, or every corridor planner metric
    # (and the episode that tracks a plan) changes.
    seeds = sorted(_CORRIDOR_TREES)
    counts = _plan_counts(("bench", "scenarios", "vehicle_corridor.yaml"),
                          seeds)
    assert {seed: (int(nodes), edges) for seed, (_, _, nodes, edges)
            in zip(seeds, counts)} == _CORRIDOR_TREES


# Prints the bytes of every step of the corridor episode that tracks the
# committed plan, in hex, one step a line.
_EPISODE_BYTES = """
import sys
import numpy as np
from milp_safeguard.cli import load_scenario
from milp_safeguard.runtime import run_episode
scenario, _ = load_scenario(sys.argv[1])
plan = np.loadtxt(sys.argv[2], delimiter=",", skiprows=1, ndmin=2)[:, 1:]
log = run_episode(scenario, waypoints=list(plan))
for s in log.steps:
    print(b"".join(np.asarray(v).tobytes() for v in
                   (s.x, s.u_cmd, s.box_lo, s.box_hi) if v is not None).hex())
print(log.status)
"""


def test_episode_does_not_depend_on_the_blas_thread_count():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    scenarios = os.path.join(root, "bench", "scenarios")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.path.join(root, "src"))
        done = subprocess.run(
            [sys.executable, "-c", _EPISODE_BYTES,
             os.path.join(scenarios, "vehicle_corridor.yaml"),
             os.path.join(scenarios, "vehicle_plan.csv")],
            env=env, capture_output=True, text=True, check=True,
            timeout=300)
        runs.append(done.stdout.split())
    assert len(runs[0]) > 10 and runs[0] == runs[1]


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
    def witness(net, X_from, X_to, U, stable):
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


@pytest.mark.parametrize("clearance", [-0.1, np.nan, np.inf])
def test_rrt_rejects_a_clearance_that_is_not_a_finite_non_negative_number(
        clearance):
    with pytest.raises(ValueError, match="clearance"):
        rrt_build(NET, X, U, FREE, [0.0, 0.0], [3.0, 3.0],
                  clearance=clearance)


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
    goal_box = Hypercube(
        *reachable_box(NET, tree.nodes[tree.goal_parent], U)[:2])
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
