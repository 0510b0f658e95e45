"""Independent brute-force validators used by tests.

Everything here re-derives results by gridding or exhaustive
enumeration; nothing is shared with the encoder's constraint-generation
path beyond nn_model.output_bounds, the interval propagator the MILP's
network boxes are checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from milp_safeguard.milp import EQ, GE, LE, MilpModel
from milp_safeguard.nn_model import output_bounds
from milp_safeguard.sets import (
    Hypercube,
    disjoint_from_region,
    inflate,
    intersect,
    measurement_box,
)

_TOL = 1e-6


class NoFeasibleGridPoint(RuntimeError):
    """Every grid control violates the safety or state constraints."""


@dataclass(frozen=True)
class GridSpec:
    """Per-dimension grid resolution; grids include both box endpoints."""

    resolution: np.ndarray

    def __post_init__(self):
        res = np.atleast_1d(np.asarray(self.resolution, dtype=float))
        if np.any(res <= 0):
            raise ValueError("grid resolution must be positive")
        object.__setattr__(self, "resolution", res)

    def points(self, box: Hypercube) -> list:
        """Per-dimension grid values over the box."""
        res = self.resolution
        if res.shape[0] == 1 and box.dim > 1:
            res = np.repeat(res, box.dim)
        axes = []
        for j in range(box.dim):
            pts = np.arange(box.lo[j], box.hi[j], res[j])
            if pts.size == 0 or pts[-1] < box.hi[j] - 1e-12:
                pts = np.append(pts, box.hi[j])
            axes.append(pts)
        return axes


def box_tracking_cost(lo: np.ndarray, hi: np.ndarray, x_ref: np.ndarray) -> float:
    """Worst-case l1 distance from x_ref to a point of the box."""
    return float(np.sum(np.maximum(np.abs(lo - x_ref), np.abs(hi - x_ref))))


def grid_control_search(p, grid: GridSpec) -> dict:
    """Minimize the box tracking cost over a finite control grid.

    For each grid control the reachable box is computed by interval
    propagation over the measurement box and the control uncertainty box,
    then inflated by the prediction-error bound and checked against the
    state set and obstacles.  Ties break toward the lexicographically
    smallest control.
    """
    x_box = measurement_box(p.y_k, p.eps_y, p.X)
    if x_box is None:
        raise NoFeasibleGridPoint("measurement box is empty")
    best_u = None
    best_cost = np.inf
    for u in itertools.product(*grid.points(p.U)):
        u = np.array(u)
        u_box = intersect(Hypercube(u - p.eps_u, u + p.eps_u), p.U)
        if u_box is None:
            continue
        z_box = x_box.concat(u_box)
        safe = inflate(Hypercube(*output_bounds(p.net, z_box.lo, z_box.hi)),
                       p.eps_x)
        if not p.X.contains_box(safe, tol=1e-9):
            continue
        if not disjoint_from_region(safe, p.unsafe, tol=1e-9):
            continue
        cost = box_tracking_cost(safe.lo, safe.hi, p.x_ref)
        if cost < best_cost - 1e-12 or (
            abs(cost - best_cost) <= 1e-12
            and best_u is not None
            and tuple(u) < tuple(best_u)
        ):
            best_cost = cost
            best_u = u
    if best_u is None:
        raise NoFeasibleGridPoint("no grid control satisfies the constraints")
    return {"best_u": best_u, "best_cost": best_cost}


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
