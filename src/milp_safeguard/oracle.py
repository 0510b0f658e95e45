"""Independent brute-force validators used by tests and `verify`.

Everything here re-derives results by gridding or exhaustive
enumeration; nothing is shared with the encoder's constraint-generation
path beyond nn_model.output_bounds, the interval propagator the MILP's
network boxes are checked against, and UnsafeRegion.separated, the
obstacle test that the MILP's separating rows state.  The encoder's
per-step audit checks each decision's network box against input_boxes
and output_bounds.
"""

from __future__ import annotations

import itertools

import numpy as np

from milp_safeguard.milp import MilpModel
from milp_safeguard.nn_model import output_bounds

_TOL = 1e-6


class NoFeasibleGridPoint(RuntimeError):
    """Every grid control violates the safety or state constraints."""


def box_tracking_cost(lo: np.ndarray, hi: np.ndarray, x_ref: np.ndarray):
    """Worst-case l1 distance from x_ref to a point of the box; for boxes
    stacked by rows, one distance per row."""
    return np.sum(np.maximum(np.abs(lo - x_ref), np.abs(hi - x_ref)), axis=-1)


def input_boxes(p, step, u):
    """The network's input boxes for the controls u at a step (p.step): the
    measurement box beside [u - eps_u, u + eps_u] clipped to U.

    u is one control, shape (n_u,), or a stack of them by rows, shape
    (k, n_u); the (lo, hi) arrays returned have the same leading shape.
    """
    u = np.asarray(u, dtype=float)
    shape = u.shape[:-1] + (p.n_x,)
    lo = np.concatenate([np.broadcast_to(step.x_lo, shape),
                         np.maximum(u - p.eps_u, p.U.lo)], axis=-1)
    hi = np.concatenate([np.broadcast_to(step.x_hi, shape),
                         np.minimum(u + p.eps_u, p.U.hi)], axis=-1)
    return lo, hi


def grid_control_search(p, step, spacing: float) -> dict:
    """Minimize the box tracking cost over a grid of controls at a step.

    The grid takes every spacing along each axis of U from its lower end,
    plus the upper end.  For each grid control the reachable box is the
    interval image of its input box, inflated by the prediction-error
    bound.  It must lie in X and be separated from every obstacle
    (UnsafeRegion.separated, within 1e-9), so a box flat in some
    coordinate still meets an obstacle whose open range it crosses there.
    All controls go through one stacked interval pass and one separation
    test.  Ties go to the lexicographically smallest control within 1e-12
    of the least cost.
    """
    if not spacing > 0:
        raise ValueError(f"grid step must be positive, got {spacing}")
    axes = []
    for lo, hi in zip(p.U.lo, p.U.hi):
        pts = np.arange(lo, hi, spacing)
        if pts.size == 0 or pts[-1] < hi - 1e-12:
            pts = np.append(pts, hi)
        axes.append(pts)
    u = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                 axis=1)
    lo, hi = output_bounds(p.net, *input_boxes(p, step, u))
    lo, hi = lo - p.eps_x, hi + p.eps_x
    ok = (np.all(lo >= p.X.lo - 1e-9, axis=1)
          & np.all(hi <= p.X.hi + 1e-9, axis=1)
          & np.all(p.unsafe.separated(lo, hi, 1e-9), axis=1))
    if not ok.any():
        raise NoFeasibleGridPoint("no grid control satisfies the constraints")
    cost = np.where(ok, box_tracking_cost(lo, hi, step.x_ref), np.inf)
    best = int(np.argmax(cost <= cost.min() + 1e-12))
    return {"best_u": u[best], "best_cost": float(cost[best])}


def enumerate_binary_feasibility(model: MilpModel, fixed: dict,
                                 tol: float = _TOL) -> set:
    """All binary assignments consistent with the constraints.

    fixed maps every continuous variable id to its value; each of the 2^k
    binary assignments is substituted into every constraint and bound.
    Returns a set of 0/1 tuples ordered by binary variable id.
    """
    binary_ids = [int(j) for j in np.flatnonzero(model.is_binary)]
    if len(binary_ids) > 20:
        raise ValueError(f"too many binaries to enumerate: {len(binary_ids)}")
    for j in range(model.num_vars):
        if not model.is_binary[j] and j not in fixed:
            raise ValueError(f"continuous variable {j} has no fixed value")
    x = np.zeros(model.num_vars)
    for j, val in fixed.items():
        x[j] = val
    feasible = set()
    for assign in itertools.product((0.0, 1.0), repeat=len(binary_ids)):
        x[binary_ids] = assign
        if model.constraint_violation(x) <= tol:
            feasible.add(tuple(int(a) for a in assign))
    return feasible
