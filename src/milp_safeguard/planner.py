"""Reachability-guided RRT plus waypoint extraction along the tree.

Samples are steered by clipping into the parent's one-step reachable box
(interval propagation of a point state over the whole control set); the
stored child node is the exact model image of the best control witness,
so every tree edge is a dynamically exact one-step transition.  The
witness is found by a coarse grid and a Hooke-Jeeves pattern search whose
halvings are evaluated speculatively, several step sizes per batched
forward pass, and replayed in order, so the search returns what the
one-round-per-pass search would, bit for bit.  Every node but the root
has exactly one parent, so path extraction walks the goal-connecting
node's parent chain back to the root.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from milp_safeguard.nn_model import ReluNetwork, forward, forward_batch, \
    output_bounds
from milp_safeguard.sets import Hypercube, UnsafeRegion, inflate, intersect


# Step sizes (span, span/2, ...) that one forward pass of the witness
# search evaluates.
_LEVELS = 8


class PlanFailure(RuntimeError):
    """RRT exhausted its iteration budget without connecting the goal."""


class NoPath(RuntimeError):
    """The requested target is not connected in the tree."""


@dataclass
class PlanTree:
    """Nodes, directed edges with control witnesses, and goal hookup."""

    nodes: list = field(default_factory=list)
    edges: list = field(default_factory=list)   # (i, j, u_witness)
    goal: np.ndarray | None = None
    goal_parent: int = -1                        # node from which goal is reachable

    def add_node(self, x) -> int:
        self.nodes.append(np.asarray(x, dtype=float))
        return len(self.nodes) - 1

    def add_edge(self, i: int, j: int, u):
        self.edges.append((i, j, np.asarray(u, dtype=float)))


def reachable_box(net: ReluNetwork, x, U: Hypercube) -> Hypercube:
    """One-step reachable box from the point state x over all of U."""
    x = np.asarray(x, dtype=float)
    lo, hi = output_bounds(net, np.concatenate([x, U.lo]),
                           np.concatenate([x, U.hi]))
    return Hypercube(lo, hi)


def _witness_search(net, x_from, x_to, U: Hypercube, coarse: int = 9,
                    refine_rounds: int = 150):
    """Control minimizing the l1 residual |f(x_from, u) - x_to|.

    Coarse grid over U followed by a shrinking pattern search: each round
    evaluates all single-coordinate steps and either moves to the best or
    halves the step, until the step falls below 1e-12 or refine_rounds
    rounds have run.  One batched forward pass evaluates the steps of the
    next _LEVELS rounds at once, all from the current point at the step
    sizes that successive halvings would reach; the first of them that
    improves is the round's move, the ones before it are its halvings, and
    the next pass starts at the move's step size.  Halving by 0.5 is exact
    and each row of a batch is evaluated as it would be alone, so the
    result equals that of one forward pass per round.
    """
    x_from = np.asarray(x_from, dtype=float)
    x_to = np.asarray(x_to, dtype=float)

    def residuals(us):
        Z = np.empty((len(us), len(x_from) + U.dim))
        Z[:, :len(x_from)] = x_from
        Z[:, len(x_from):] = us
        return np.sum(np.abs(forward_batch(net, Z) - x_to), axis=1)

    axes = [np.linspace(U.lo[j], U.hi[j], coarse) for j in range(U.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    candidates = np.stack([g.ravel() for g in grids], axis=1)
    rs = residuals(candidates)
    best = int(np.argmin(rs))
    best_u, best_r = candidates[best].copy(), float(rs[best])
    span = (U.hi - U.lo) / (coarse - 1)
    steps = np.concatenate([-np.diag(span), np.diag(span)])
    # Halvings after which the step falls below 1e-12, ending the search.
    top, stop = float(np.max(span)), 1
    while top * 0.5 ** stop >= 1e-12:
        stop += 1
    level = rounds = 0   # level: halvings so far
    while rounds < refine_rounds and level < stop:
        n = min(_LEVELS, refine_rounds - rounds, stop - level)
        # ldexp scales by exact powers of two, so the level-l steps equal
        # the ones that l sequential halvings would give.
        scales = np.ldexp(1.0, -np.arange(level, level + n))
        trial = np.clip(best_u + (scales[:, None, None] * steps).reshape(
            -1, U.dim), U.lo, U.hi)
        rs = residuals(trial).reshape(n, len(steps))
        better = rs.min(axis=1) < best_r - 1e-15
        # The rounds before the first level that improves are halvings.
        k = int(better.argmax()) if better.any() else n
        level += k
        rounds += k
        if k < n:
            best = int(rs[k].argmin())
            best_r = float(rs[k, best])
            best_u = trial[k * len(steps) + best].copy()
            rounds += 1
    return best_u, best_r


def rrt_build(net: ReluNetwork, X: Hypercube, U: Hypercube,
              unsafe: UnsafeRegion, x0, xg, seed: int = 0,
              max_iters: int = 10000, goal_bias: float = 0.1,
              clearance: float = 0.0, goal_tol=None) -> PlanTree:
    """Grow a reachability-guided RRT from x0 until xg becomes reachable.

    clearance > 0 additionally rejects candidate nodes closer than that
    distance to any obstacle, keeping waypoints trackable under the
    controller's uncertainty inflation.  goal_tol (componentwise, e.g. the
    model's prediction-error bound) inflates the reachable box in the goal
    test: for learned dynamics the model's exact one-step image almost
    never hits the goal point, but the true system is only guaranteed to
    land within that bound anyway.
    """
    x0 = np.asarray(x0, dtype=float)
    xg = np.asarray(xg, dtype=float)
    for name, x in (("x0", x0), ("xg", xg)):
        if not X.contains(x):
            raise ValueError(f"{name} outside the state feasible set")
        if unsafe.contains_interior(x):
            raise ValueError(f"{name} inside an obstacle")
    clear_vec = np.full(X.dim, clearance)
    inflated = UnsafeRegion(tuple(
        intersect(inflate(b, clear_vec), X) for b in unsafe))
    goal_tol = (np.zeros(X.dim) if goal_tol is None
                else np.atleast_1d(np.asarray(goal_tol, dtype=float)))

    rng = np.random.default_rng(seed)
    tree = PlanTree()
    tree.add_node(x0)

    def goal_connected(idx, x) -> bool:
        # Termination: the goal lies in the node's one-step reachable box
        # (inflated by the prediction-error allowance).
        if not inflate(reachable_box(net, x, U), goal_tol).contains(xg,
                                                                    tol=1e-9):
            return False
        tree.goal, tree.goal_parent = xg, idx
        return True

    # Check the trivial plan first: goal directly reachable from the start.
    if goal_connected(0, x0):
        return tree

    # Nearest-node scans dominate at scale; keep the nodes in a
    # preallocated array grown geometrically.
    node_arr = np.empty((256, X.dim))
    node_arr[0] = x0

    for _ in range(max_iters):
        x_rand = xg if rng.random() < goal_bias else X.sample(rng)
        dists = np.sum(np.abs(node_arr[:len(tree.nodes)] - x_rand), axis=1)
        near_idx = int(np.argmin(dists))
        near = tree.nodes[near_idx]
        rbox = intersect(reachable_box(net, near, U), X)
        if rbox is None:
            continue
        candidate = np.clip(x_rand, rbox.lo, rbox.hi)
        if clearance > 0 and inflated.contains_interior(candidate):
            continue
        u, _ = _witness_search(net, near, candidate, U)
        # Snap the node onto the model image so that every edge is an exact
        # one-step transition; clipping alone would leave residual slack
        # that downstream tracking cannot realize.
        new = forward(net, np.concatenate([near, u]))
        if not X.contains(new):
            continue
        if unsafe.contains_interior(new):
            continue
        if clearance > 0 and inflated.contains_interior(new):
            continue
        new_idx = tree.add_node(new)
        tree.add_edge(near_idx, new_idx, u)
        if new_idx == node_arr.shape[0]:
            node_arr = np.vstack([node_arr, np.empty_like(node_arr)])
        node_arr[new_idx] = new
        if goal_connected(new_idx, new):
            return tree
    raise PlanFailure(f"no goal connection after {max_iters} iterations")


def shortest_path(tree: PlanTree) -> list:
    """The root -> ... -> goal-connecting node waypoint list, with the goal
    appended.

    rrt_build gives every node but the root one incoming edge, so the path
    is the goal-connecting node's chain of ancestors, the tree's only path
    to it.
    """
    if tree.goal is None or tree.goal_parent < 0:
        raise NoPath("tree is not goal-connected")
    parent = {j: i for i, j, _ in tree.edges}
    order = [tree.goal_parent]
    while order[-1] in parent and len(order) <= len(tree.nodes):
        order.append(parent[order[-1]])
    if order[-1] != 0:
        raise NoPath("goal-connecting node unreachable from the root")
    return [tree.nodes[i] for i in reversed(order)] + [tree.goal]
