"""Reachability-guided RRT plus waypoint extraction along the tree.

Samples are steered by clipping into the parent's one-step reachable box
(interval propagation of a point state over the whole control set, computed
once per node); the stored child node is the exact model image of the best
control witness, so every tree edge is a dynamically exact one-step
transition.  The witness search steers exactly on the net's affine pieces:
on the piece of its point, the least l1 residual over the control set lies
at a vertex of a few hyperplanes.  A node is stable when the interval pass
of its reachable box gives every hidden neuron one sign over the control
set; the net is then one affine map of the control there, read once, and
the vertices are ranked on that map in closed form, with no forward pass.
From any other node the search starts at the best point of a coarse grid
and runs rounds, one batched forward pass evaluating each round's vertices,
until one does not move it.  The RRT draws its samples ahead into pending
rows, each of which keeps its nearest node exact against the whole tree:
every added node updates all later rows in one array pass, and a row whose
nearest node moves is clipped again and its search undone.  The searches of
_WINDOW pending rows run in lockstep, and the rows commit in order, so no
guess is ever redone.  The work is done in array passes: the draws, the
nearest nodes, the searches, and the new nodes' tests and reachable boxes.
No search, node or box depends on the rows beside it, so the tree equals
that of one iteration and one search at a time, bit for bit.  Every node
but the root has exactly one parent, so path extraction walks the
goal-connecting node's parent chain back to the root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from milp_safeguard.nn_model import ReluNetwork, affine_piece, forward, \
    forward_batch, interval_bounds
from milp_safeguard.sets import Hypercube, UnsafeRegion


# Pending RRT iterations whose witness searches run in one lockstep search,
# and the iterations drawn at a time to top the pending ones up.
_WINDOW = 8
_CHUNK = 2 * _WINDOW
# Points per axis of the grid over U where an unstable row's search starts.
_COARSE = 9


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


def reachable_box(net: ReluNetwork, xs, U: Hypercube):
    """One-step reachable box over all of U from the point state xs, as
    (lo, hi) arrays, and whether the state is stable: every hidden neuron's
    interval bounds over {xs} x U have one sign, so that the net is one
    affine map of the control there.  From each row of a (k, n) stack of
    states: (k, n) arrays and k flags, each row equal to the call on its
    state alone.  All of it comes from one interval pass."""
    xs = np.asarray(xs, dtype=float)
    shape = xs.shape[:-1] + U.lo.shape
    *hidden, (lo, hi) = interval_bounds(
        net, np.concatenate([xs, np.broadcast_to(U.lo, shape)], axis=-1),
        np.concatenate([xs, np.broadcast_to(U.hi, shape)], axis=-1))
    stable = np.ones(xs.shape[:-1], dtype=bool)
    for pre_lo, pre_hi in hidden:
        stable &= ((pre_lo > 0.0) | (pre_hi <= 0.0)).all(axis=-1)
    return lo, hi, stable


@lru_cache(maxsize=16)
def _search_tables(lo: bytes, hi: bytes, n_x: int):
    """What a witness search over U = [lo, hi] shares with every other,
    built once and read-only: the coarse grid over U; the hyperplanes'
    m-subsets to solve, rows n_x on being U's lower and then upper faces,
    less those that hold both faces of an axis; U's faces and their bounds;
    and the subsets of faces only, U's corners, which need no solve: the
    mask of the others among all subsets, and the corners themselves."""
    lo, hi = np.frombuffer(lo), np.frombuffer(hi)
    m = len(lo)
    axes = [np.linspace(lo[j], hi[j], _COARSE) for j in range(m)]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                    axis=1)
    subsets = np.array([s for s in combinations(range(n_x + 2 * m), m)
                        if len({(i - n_x) % m for i in s if i >= n_x})
                        == sum(i >= n_x for i in s)])
    faces = np.vstack([np.eye(m), np.eye(m)])
    bounds = np.concatenate([lo, hi])
    free = (subsets < n_x).any(axis=1)
    corners = np.empty((len(subsets) - free.sum(), m))
    for corner, s in zip(corners, subsets[~free] - n_x):
        corner[s % m] = bounds[s]
    tables = (grid, subsets[free], faces, bounds, free, corners)
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _witness_search(net, X_from, X_to, U: Hypercube, stable):
    """Controls minimizing the l1 residuals |f(x_from, u) - x_to|, row by row.

    X_from and X_to stack k pairs as rows (k x n_x), and stable holds the k
    flags of reachable_box for the rows' x_from; returns the k controls
    (k x U.dim) and their k residuals.  On the activation region of a point
    u the net is affine, f = J u + c, and the least of sum |J u + c - x_to|
    over U lies at a vertex of the arrangement of the n_x hyperplanes
    J_i u + c_i = x_to_i and the 2 U.dim faces of U, where U.dim of them
    meet.  A round solves every nonsingular U.dim-subset of them but U's
    corners, which are constant, and clips the vertices into U.  A stable
    row's region holds all of U, so it takes J and c once, at U.lo, ranks
    its vertices by |J v + c - x_to| and returns the best, with no forward
    pass.  Any other row starts at the best point of a coarse grid over U
    and runs rounds, each evaluating the vertices in one batched forward
    pass and moving to the best if its residual is lower by more than
    1e-15, until one does not move it; c comes from the pass that chose u.
    J, c and the residuals are sums of each row's own, so no row's result
    depends on the rows beside it.
    """
    X_from = np.atleast_2d(np.asarray(X_from, dtype=float))
    X_to = np.atleast_2d(np.asarray(X_to, dtype=float))
    k, n_x = X_from.shape
    m = U.dim
    stable = np.asarray(stable, dtype=bool)
    grid, subsets, faces, bounds, free, corners = _search_tables(
        U.lo.tobytes(), U.hi.tobytes(), n_x)
    cols = np.arange(n_x, n_x + m)
    # Per search: the hyperplanes' rows and right-hand sides, U's faces
    # after the n_x of the net's piece, and the vertices of a round.
    planes, rhs = np.empty((k, n_x + 2 * m, m)), np.empty((k, n_x + 2 * m))
    planes[:, n_x:], rhs[:, n_x:] = faces, bounds
    us = np.empty((k, len(free), m))
    us[:, ~free] = corners

    def vertices(ids, J, c):
        """The vertices of the searches ids on their pieces J u + c,
        clipped into U, U's corners among them (len(ids) x s x m)."""
        planes[:len(ids), :n_x], rhs[:len(ids), :n_x] = J, X_to[ids] - c
        A, b = planes[:len(ids), subsets], rhs[:len(ids), subsets]
        # A singular subset gets U.lo, which the lower faces give anyway.
        singular = (np.abs(np.linalg.det(A))
                    <= 1e-12 * np.prod(np.sqrt((A * A).sum(axis=3)), axis=2))
        A[singular], b[singular] = np.eye(m), U.lo
        v = np.linalg.solve(A, b[..., None])[..., 0]
        us[:len(ids), free] = np.minimum(np.maximum(v, U.lo), U.hi)
        return us[:len(ids)]

    def best_of(ids, us):
        """The input, output and residual of the best control of each search
        ids, among the rows of us (s x m, or one such per search)."""
        Z = np.empty((len(ids), us.shape[-2], n_x + m))
        Z[:, :, :n_x] = X_from[ids, None]
        Z[:, :, n_x:] = us
        out = forward_batch(net, Z.reshape(-1, n_x + m)).reshape(
            len(ids), -1, n_x)
        rs = np.abs(out - X_to[ids, None]).sum(axis=2)
        j, rows = rs.argmin(axis=1), np.arange(len(ids))
        return Z[rows, j], out[rows, j], rs[rows, j]

    best_u, best_r = np.empty((k, m)), np.empty(k)
    # The stable searches: their maps read at U.lo, their vertices ranked
    # on them.
    ids = np.flatnonzero(stable)
    if len(ids):
        z = np.concatenate([X_from[ids], np.broadcast_to(U.lo, (len(ids), m))],
                           axis=1)
        J, y = affine_piece(net, z, cols)
        c = y - (J * U.lo).sum(axis=2)
        vs = vertices(ids, J, c)
        rs = np.abs((J[:, None] * vs[:, :, None]).sum(axis=3) + c[:, None]
                    - X_to[ids, None]).sum(axis=2)
        j, rows = rs.argmin(axis=1), np.arange(len(ids))
        best_u[ids], best_r[ids] = vs[rows, j], rs[rows, j]
    # The others: the best point of the grid, then rounds.
    ids = np.flatnonzero(~stable)
    if len(ids):
        z, y, r = best_of(ids, grid)
        best_u[ids], best_r[ids] = z[:, n_x:], r
    while len(ids):
        J, _ = affine_piece(net, z, cols)
        c = y - (J * z[:, None, n_x:]).sum(axis=2)
        z, y, r_new = best_of(ids, vertices(ids, J, c))
        moved = r_new < r - 1e-15
        best_u[ids[moved]], best_r[ids[moved]] = z[moved, n_x:], r_new[moved]
        ids, z, y, r = ids[moved], z[moved], y[moved], r_new[moved]
    return best_u, best_r


class _Draws:
    """The RRT's samples, drawn from rng a chunk of iterations at a time.

    An iteration reads one double, which picks the goal xg when below
    goal_bias, and otherwise X.dim more, scaled into X as Generator.uniform
    scales them.  So the chunks give the same samples, bit for bit, as one
    rng.random() and, unless it picks the goal, one X.sample(rng) per
    iteration.  Doubles read past a chunk wait for the next one.
    """

    def __init__(self, rng, X: Hypercube, xg, goal_bias: float):
        self.rng, self.lo, self.span = rng, X.lo, X.hi - X.lo
        self.xg, self.goal_bias = xg, goal_bias
        self.buf = np.empty(0)

    def take(self, c: int) -> np.ndarray:
        """The samples of the next c iterations, as a (c, X.dim) array."""
        n = len(self.lo)
        if len(self.buf) < c * (n + 1):
            self.buf = np.concatenate([self.buf, self.rng.random(c * (n + 1))])
        buf, xs, at = self.buf, [], 0
        for _ in range(c):
            if buf[at] < self.goal_bias:
                xs.append(self.xg)
                at += 1
            else:
                xs.append(self.lo + self.span * buf[at + 1:at + n + 1])
                at += n + 1
        self.buf = buf[at:]
        return np.array(xs)


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
    sample, so the samples are drawn ahead of the tree, _CHUNK at a time,
    into the pending rows.  Each row keeps its nearest node exact against
    the whole tree: a new row takes it in one array pass, and each added
    node updates every later row at once, a tie staying with the older
    node.  A row whose nearest node moves is clipped into that node's
    reachable box and given the clearance test again, and its search is
    undone.  Once the rows hold _WINDOW candidates not yet searched, those
    go to one lockstep search; their nodes are the model images of the
    witnesses, tested against X and the obstacles and given their reachable
    boxes as one stack.  The rows then commit in order, up to the first
    candidate not yet searched.  No guess is redone, and the tree equals
    that of one iteration at a time.
    """
    x0 = np.asarray(x0, dtype=float)
    xg = np.asarray(xg, dtype=float)
    for name, x in (("x0", x0), ("xg", xg)):
        if not X.contains(x):
            raise ValueError(f"{name} outside the state feasible set")
        if unsafe.contains_interior(x):
            raise ValueError(f"{name} inside an obstacle")
    if not (np.isfinite(clearance) and clearance >= 0):
        raise ValueError(f"clearance must be finite and >= 0, got {clearance}")
    # The obstacles inflated by the clearance, within X; one whose inflated
    # box misses X guards nothing.
    lo = np.maximum(unsafe.lo - clearance, X.lo)
    hi = np.minimum(unsafe.hi + clearance, X.hi)
    hit = (lo <= hi).all(axis=1)
    inflated = UnsafeRegion(tuple(map(Hypercube, lo[hit], hi[hit])))
    goal_tol = (np.zeros(X.dim) if goal_tol is None
                else np.atleast_1d(np.asarray(goal_tol, dtype=float)))
    if goal_tol.shape != (X.dim,) or not np.all(goal_tol >= 0):
        raise ValueError(f"goal_tol must be {X.dim} non-negative numbers")

    draws = _Draws(np.random.default_rng(seed), X, xg, goal_bias)
    tree = PlanTree()
    # Per node, in arrays grown geometrically: its coordinates as columns,
    # for the nearest-node scans, and its reachable box within X as rows,
    # with a mask of the boxes that are not empty and one of the stable
    # nodes, which the witness search steers on their affine maps.
    cols = np.empty((X.dim, 256))
    reach_lo, reach_hi = np.empty((256, X.dim)), np.empty((256, X.dim))
    reach_ok = np.empty(256, dtype=bool)
    reach_stable = np.empty(256, dtype=bool)

    def distances(xs, start=0):
        """The l1 distances from each row of xs to each node from start on,
        the coordinates summed in order, as np.sum sums a row of fewer
        than 8."""
        d = cols[:, start:len(tree.nodes)] - xs[:, :, None]
        return np.abs(d, out=d).sum(axis=1)

    def nodes(xs):
        """The nodes of the stack xs: per row its state, reachable box
        within X (lo, hi and whether it is not empty), stability and goal
        test, the goal lying in the box inflated by goal_tol."""
        lo, hi, stable = reachable_box(net, xs, U)
        goal = ((xg >= lo - goal_tol - 1e-9)
                & (xg <= hi + goal_tol + 1e-9)).all(axis=1)
        lo, hi = np.maximum(lo, X.lo), np.minimum(hi, X.hi)
        return zip(xs, lo, hi, (lo <= hi).all(axis=1).tolist(),
                   stable.tolist(), goal.tolist())

    def add_node(node, parent=None, u=None) -> bool:
        """Add a node, its edge and its reachable box; True when it passes
        the goal test, which ends the plan."""
        nonlocal cols, reach_lo, reach_hi, reach_ok, reach_stable
        x, lo, hi, ok, stable, goal = node
        idx = tree.add_node(x)
        if parent is not None:
            tree.add_edge(parent, idx, u)
        if idx == len(reach_ok):
            cols = np.concatenate([cols, np.empty_like(cols)], axis=1)
            reach_lo, reach_hi, reach_ok, reach_stable = (
                np.concatenate([a, np.empty_like(a)])
                for a in (reach_lo, reach_hi, reach_ok, reach_stable))
        cols[:, idx], reach_lo[idx], reach_hi[idx] = x, lo, hi
        reach_ok[idx], reach_stable[idx] = ok, stable
        if goal:
            tree.goal, tree.goal_parent = xg, idx
        return goal

    # The trivial plan first: the goal directly reachable from the start.
    if add_node(next(nodes(x0[None]))):
        return tree
    # The pending iterations from row head on: each one's sample xs,
    # nearest node and distance, candidate (the sample clipped into that
    # node's reachable box), whether it has one (a box not empty, the
    # clearance kept) and whether it is searched; then its witness and node
    # in found, None for a node that leaves X or meets an obstacle.
    xs, cand = np.empty((0, X.dim)), np.empty((0, X.dim))
    near, dist = np.empty(0, dtype=int), np.empty(0)
    has, searched = np.empty(0, dtype=bool), np.empty(0, dtype=bool)
    found, head, drawn = [], 0, 0

    def clip(rows):
        """Clip and test the rows' samples anew on their nearest nodes."""
        j = near[rows]
        c = np.minimum(np.maximum(xs[rows], reach_lo[j]), reach_hi[j])
        ok = reach_ok[j]
        if clearance > 0:
            ok &= inflated.separated(c, c).all(axis=1)
        cand[rows], has[rows], searched[rows] = c, ok, False

    while True:
        while (drawn < max_iters and np.count_nonzero(
                has[head:] & ~searched[head:]) < _WINDOW):
            c = min(_CHUNK, max_iters - drawn)
            drawn += c
            new = draws.take(c)
            d = distances(new)
            xs, near, dist, cand, has, searched = (
                np.concatenate([a[head:], b]) for a, b in zip(
                    (xs, near, dist, cand, has, searched),
                    (new, d.argmin(axis=1), d.min(axis=1), new,
                     np.empty(c, dtype=bool), np.empty(c, dtype=bool))))
            found, head = found[head:] + [None] * c, 0
            clip(np.arange(len(xs) - c, len(xs)))
        if head == len(xs):
            raise PlanFailure(
                f"no goal connection after {max_iters} iterations")
        batch = head + np.flatnonzero(
            has[head:] & ~searched[head:])[:_WINDOW]
        if len(batch):
            j = near[batch]
            X_from = np.array([tree.nodes[i] for i in j.tolist()])
            us, _ = _witness_search(net, X_from, cand[batch], U,
                                    reach_stable[j])
            # Snap each node onto the model image so that every edge is an
            # exact one-step transition; clipping alone would leave
            # residual slack that downstream tracking cannot realize.
            new = forward(net, np.concatenate([X_from, us], axis=1))
            keep = (((new >= X.lo) & (new <= X.hi)).all(axis=1)
                    & unsafe.separated(new, new).all(axis=1))
            if clearance > 0:
                keep &= inflated.separated(new, new).all(axis=1)
            kept = nodes(new[keep]) if keep.any() else iter(())
            for i, u, k in zip(batch.tolist(), us, keep.tolist()):
                found[i] = (u, next(kept)) if k else None
            searched[batch] = True
        # Commit in order, up to the first candidate not yet searched; a new
        # node takes the later rows strictly nearer to it.
        while head < len(xs) and (searched[head] or not has[head]):
            i, head = head, head + 1
            if not has[i] or found[i] is None:
                continue
            u, node = found[i]
            if add_node(node, int(near[i]), u):
                return tree
            d = distances(xs[head:], len(tree.nodes) - 1)[:, 0]
            moved = head + np.flatnonzero(d < dist[head:])
            if len(moved):
                near[moved], dist[moved] = len(tree.nodes) - 1, d[moved - head]
                clip(moved)


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
