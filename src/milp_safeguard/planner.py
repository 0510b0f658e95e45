"""Reachability-guided RRT plus waypoint extraction along the tree.

Samples are steered by clipping into the parent's one-step reachable box
(interval propagation of a point state over the whole control set, computed
once per node); the stored child node is the exact model image of the best
control witness, so every tree edge is a dynamically exact one-step
transition.  The witness is found by a coarse grid and a Hooke-Jeeves
pattern search.  The RRT draws its samples ahead and guesses each
iteration's nearest node against the tree as it stands; the searches of
_WINDOW guessed iterations then run in lockstep, each batched forward pass
evaluating several halvings of every unfinished search, and the iterations
commit in order, an iteration whose nearest node has changed since its
guess being redone.  The rounds of every search are replayed in order, so
the tree equals that of one iteration and one round per forward pass at a
time, bit for bit.  Every node but the root has exactly one parent, so path
extraction walks the goal-connecting node's parent chain back to the root.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from milp_safeguard.nn_model import ReluNetwork, forward, forward_batch, \
    output_bounds
from milp_safeguard.sets import Hypercube, UnsafeRegion, inflate, intersect


# Step sizes (span, span/2, ...) that one forward pass of the witness
# search evaluates for each of its unfinished searches.
_LEVELS = 8

# Guessed RRT iterations whose witness searches run in one lockstep search.
_WINDOW = 8


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


def _witness_search(net, X_from, X_to, U: Hypercube, coarse: int = 9,
                    refine_rounds: int = 150):
    """Controls minimizing the l1 residuals |f(x_from, u) - x_to|, row by row.

    X_from and X_to stack k pairs as rows (k x n_x); returns the k controls
    (k x U.dim) and their k residuals.  Each row's search is a coarse grid
    over U followed by a shrinking pattern search: each round evaluates all
    single-coordinate steps and either moves to the best or halves the
    step, until the step falls below 1e-12 or refine_rounds rounds have run.
    The k searches run in lockstep.  One batched forward pass evaluates, for
    every unfinished search, the steps of its next _LEVELS rounds at once,
    all from its current point at the step sizes that successive halvings
    would reach; the first of them that improves is the round's move, the
    ones before it are its halvings, and the search's next pass starts at
    the move's step size.  A search that has finished drops out of later
    passes.  Halving by 0.5 is exact and each row of a batch is evaluated
    as it would be alone, so every row's result equals that of its search
    run alone with one forward pass per round.
    """
    X_from = np.atleast_2d(np.asarray(X_from, dtype=float))
    X_to = np.atleast_2d(np.asarray(X_to, dtype=float))
    k, n_x = X_from.shape
    m = U.dim

    axes = [np.linspace(U.lo[j], U.hi[j], coarse) for j in range(U.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    candidates = np.stack([g.ravel() for g in grids], axis=1)
    Z = np.empty((k, len(candidates), n_x + m))
    Z[:, :, :n_x] = X_from[:, None]
    Z[:, :, n_x:] = candidates
    out = forward_batch(net, Z.reshape(-1, n_x + m)).reshape(
        k, len(candidates), n_x)
    rs = np.sum(np.abs(out - X_to[:, None]), axis=2)
    best = np.argmin(rs, axis=1)
    best_u = candidates[best]
    best_r = rs[np.arange(k), best]

    span = (U.hi - U.lo) / (coarse - 1)
    steps = np.concatenate([-np.diag(span), np.diag(span)])
    # Halvings after which the step falls below 1e-12, ending the search.
    top, stop = float(np.max(span)), 1
    while top * 0.5 ** stop >= 1e-12:
        stop += 1
    # The steps of every level a pass can reach.  ldexp scales by exact
    # powers of two, so the level-l steps equal the ones that l sequential
    # halvings would give.
    table = np.ldexp(1.0, -np.arange(stop + _LEVELS - 1))[:, None, None] \
        * steps
    n_s = len(steps)
    levels = np.arange(_LEVELS)
    # The unfinished searches: their rows, point, residual, halvings so far
    # and rounds, and their forward pass's inputs, search by search.
    ids = np.arange(k)
    u, r = best_u.copy(), best_r.copy()
    level = np.zeros(k, dtype=int)
    rounds = np.zeros(k, dtype=int)
    Z = np.empty((k, _LEVELS * n_s, n_x + m))
    Z[:, :, :n_x] = X_from[:, None]
    target = X_to[:, None, None]
    rows = np.arange(k)
    while True:
        # The levels within each search's round budget and its stop; a
        # search with none left has finished.
        budget = np.minimum(np.minimum(refine_rounds - rounds, stop - level),
                            _LEVELS)
        live = budget > 0
        if not live.all():
            best_u[ids], best_r[ids] = u, r
            ids, u, r, level, rounds, budget, Z, target = (
                v[live] for v in (ids, u, r, level, rounds, budget, Z, target))
            rows = np.arange(len(ids))
        if not len(ids):
            return best_u, best_r
        trial = u[:, None] + table[level[:, None] + levels].reshape(
            len(ids), -1, m)
        np.minimum(np.maximum(trial, U.lo, out=trial), U.hi, out=trial)
        Z[:, :, n_x:] = trial
        d = forward_batch(net, Z.reshape(-1, n_x + m)).reshape(
            len(ids), _LEVELS, n_s, n_x) - target
        rs = np.abs(d, out=d).sum(axis=3)
        better = ((rs < (r - 1e-15)[:, None, None]).any(axis=2)
                  & (levels < budget[:, None]))
        moved = better.any(axis=1)
        first = better.argmax(axis=1)
        # The rounds before the first level that improves are halvings.
        halvings = np.where(moved, first, budget)
        level += halvings
        rounds += halvings + moved
        if moved.any():
            at = rs[rows, first]
            j = at.argmin(axis=1)
            r = np.where(moved, at[rows, j], r)
            u = np.where(moved[:, None], trial[rows, first * n_s + j], u)


@dataclass
class _Guess:
    """One RRT iteration as guessed against the tree of its first `seen`
    nodes: its sample, the nearest of those nodes and its distance, the
    candidate to search for (None when the iteration adds nothing) and,
    once searched, the candidate's witness u."""

    x_rand: np.ndarray
    seen: int = 0
    near: int = 0
    dist: float = 0.0
    candidate: np.ndarray | None = None
    u: np.ndarray | None = None


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

    Each iteration draws one number and, unless it picks the goal, one
    sample, so the samples are drawn ahead of the tree.  Each is guessed
    against the tree as it stands: its nearest node, the candidate in that
    node's reachable box and the clearance test.  Once the uncommitted
    guesses hold _WINDOW searches, those not yet run go to one lockstep
    search, and the iterations commit in order.  Ties of the nearest-node
    search go to the older node, so a guess holds unless a node added since
    is strictly nearer; otherwise it is redone, and a redone search waits
    for the next lockstep search.  The tree equals that of one iteration at
    a time.
    """
    x0 = np.asarray(x0, dtype=float)
    xg = np.asarray(xg, dtype=float)
    for name, x in (("x0", x0), ("xg", xg)):
        if not X.contains(x):
            raise ValueError(f"{name} outside the state feasible set")
        if unsafe.contains_interior(x):
            raise ValueError(f"{name} inside an obstacle")
    clear_vec = np.full(X.dim, clearance)
    # An obstacle whose inflated box misses X guards nothing.
    inflated = UnsafeRegion(tuple(
        box for box in (intersect(inflate(b, clear_vec), X) for b in unsafe)
        if box is not None))
    goal_tol = (np.zeros(X.dim) if goal_tol is None
                else np.atleast_1d(np.asarray(goal_tol, dtype=float)))
    if goal_tol.shape != (X.dim,) or not np.all(goal_tol >= 0):
        raise ValueError(f"goal_tol must be {X.dim} non-negative numbers")

    rng = np.random.default_rng(seed)
    tree = PlanTree()
    # Nearest-node scans dominate at scale; keep the nodes in a
    # preallocated array grown geometrically.
    node_arr = np.empty((256, X.dim))
    reach = []   # per node: its reachable box within X as (lo, hi), or None

    def add_node(x, parent=None, u=None) -> bool:
        """Add a node, its edge and its reachable box; True when the goal
        lies in that box inflated by goal_tol, which ends the plan."""
        nonlocal node_arr
        idx = tree.add_node(x)
        if parent is not None:
            tree.add_edge(parent, idx, u)
        if idx == node_arr.shape[0]:
            node_arr = np.vstack([node_arr, np.empty_like(node_arr)])
        node_arr[idx] = x
        box = reachable_box(net, x, U)
        lo, hi = np.maximum(box.lo, X.lo), np.minimum(box.hi, X.hi)
        reach.append(None if np.any(lo > hi) else (lo, hi))
        if (np.all(xg >= box.lo - goal_tol - 1e-9)
                and np.all(xg <= box.hi + goal_tol + 1e-9)):
            tree.goal, tree.goal_parent = xg, idx
            return True
        return False

    def aim(g: _Guess, near: int, dist) -> bool:
        """Guess g from node near; True when it waits for a witness."""
        g.seen, g.near, g.dist = len(tree.nodes), near, dist
        g.candidate = g.u = None
        box = reach[near]
        if box is None:
            return False
        candidate = np.minimum(np.maximum(g.x_rand, box[0]), box[1])
        if clearance > 0 and inflated.contains_interior(candidate):
            return False
        g.candidate = candidate
        return True

    # The trivial plan first: the goal directly reachable from the start.
    if add_node(x0):
        return tree
    # pending: the guessed iterations not yet committed, in order; searches:
    # how many of them have a candidate, searched or not.
    pending, drawn, searches = deque(), 0, 0
    while True:
        while drawn < max_iters and searches < _WINDOW:
            g = _Guess(xg if rng.random() < goal_bias else X.sample(rng))
            drawn += 1
            dists = np.sum(np.abs(node_arr[:len(tree.nodes)] - g.x_rand),
                           axis=1)
            near = int(np.argmin(dists))
            searches += aim(g, near, dists[near])
            pending.append(g)
        if not pending:
            raise PlanFailure(
                f"no goal connection after {max_iters} iterations")
        batch = [g for g in pending if g.candidate is not None and g.u is None]
        if batch:
            us, _ = _witness_search(net, node_arr[[g.near for g in batch]],
                                    np.array([g.candidate for g in batch]),
                                    U)
            for g, u in zip(batch, us):
                g.u = u
        while pending:
            g = pending[0]
            n = len(tree.nodes)
            if g.seen < n:
                dists = np.sum(np.abs(node_arr[g.seen:n] - g.x_rand), axis=1)
                j = int(np.argmin(dists))
                if dists[j] < g.dist:
                    searches -= g.candidate is not None
                    if aim(g, g.seen + j, dists[j]):
                        searches += 1
                        break
            pending.popleft()
            if g.candidate is None:
                continue
            searches -= 1
            # Snap the node onto the model image so that every edge is an
            # exact one-step transition; clipping alone would leave
            # residual slack that downstream tracking cannot realize.
            new = forward(net, np.concatenate([tree.nodes[g.near], g.u]))
            if not X.contains(new):
                continue
            if unsafe.contains_interior(new):
                continue
            if clearance > 0 and inflated.contains_interior(new):
                continue
            if add_node(new, g.near, g.u):
                return tree


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
