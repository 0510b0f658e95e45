"""Independent checks of the safeguard's outputs, in plain numpy.

Nothing here imports the package: networks are plain lists of (W, b)
array pairs, boxes are (lo, hi) array pairs, and every computation the
program's certificate rests on (interval propagation, plant steps, box
tests, the worst-case l1 cost) is written out again from its definition.
Functions that test something return a list of failure strings; an empty
list means the check passed.
"""

from __future__ import annotations

import json

import numpy as np

MEMBER_TOL = 1e-9     # containment slack, as the runtime audits use
MATCH_TOL = 1e-6      # agreement of the MILP's boxes and cost with ours


# ---------------------------------------------------------------------------
# Networks as lists of (W, b).
# ---------------------------------------------------------------------------

def read_net(path):
    """Layers of a network file (JSON {"layers": [{"weights", "bias"}]})."""
    with open(path) as f:
        doc = json.load(f)
    return [(np.array(layer["weights"], dtype=float),
             np.array(layer["bias"], dtype=float)) for layer in doc["layers"]]


def forward(layers, z):
    """Network value at z; z may be one input or a batch of rows."""
    h = np.asarray(z, dtype=float)
    for i, (W, b) in enumerate(layers):
        h = h @ W.T + b
        if i < len(layers) - 1:
            h = np.maximum(h, 0.0)
    return h


def interval_image(layers, lo, hi):
    """Sign-split interval propagation of the box [lo, hi] (rows batched).

    A positive weight maps lower end to lower end, a negative weight maps
    the upper end to the lower end; ReLU clamps both ends at zero.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    for i, (W, b) in enumerate(layers):
        Wp = np.maximum(W, 0.0)
        Wn = np.minimum(W, 0.0)
        lo, hi = lo @ Wp.T + hi @ Wn.T + b, hi @ Wp.T + lo @ Wn.T + b
        if i < len(layers) - 1:
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
    return lo, hi


# ---------------------------------------------------------------------------
# Plants.
# ---------------------------------------------------------------------------

def point_mass_step(x, u, w=0.0):
    """Omnidirectional point mass: x + u + w."""
    return np.asarray(x, dtype=float) + np.asarray(u, dtype=float) + w


def bicycle_step(x, u, wheelbase, dt):
    """Kinematic bicycle, state [p_x, p_y, theta], control [speed, steer];
    rows batched."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    theta, v, steer = x[..., 2], u[..., 0], u[..., 1]
    ds = v * dt
    return np.stack([x[..., 0] + ds * np.cos(theta) * np.cos(steer),
                     x[..., 1] + ds * np.sin(theta) * np.cos(steer),
                     theta + ds / wheelbase * np.sin(steer)], axis=-1)


# ---------------------------------------------------------------------------
# Boxes.
# ---------------------------------------------------------------------------

def in_box(x, lo, hi, tol=MEMBER_TOL):
    """x lies in [lo, hi] (per row for batches)."""
    x = np.asarray(x, dtype=float)
    return np.all((x >= lo - tol) & (x <= hi + tol), axis=-1)


def box_in_box(lo, hi, outer_lo, outer_hi, tol=MEMBER_TOL):
    """[lo, hi] is a subset of [outer_lo, outer_hi] (per row)."""
    return np.all((lo >= outer_lo - tol) & (hi <= outer_hi + tol), axis=-1)


def misses_interior(lo, hi, obs_lo, obs_hi, tol=MEMBER_TOL):
    """[lo, hi] shares no point with the open box (obs_lo, obs_hi).

    Touching the obstacle's boundary is allowed: some coordinate must
    separate the two boxes, with at most tol of overlap.
    """
    return np.any((hi <= obs_lo + tol) | (lo >= obs_hi - tol), axis=-1)


def worst_l1(lo, hi, ref):
    """Largest l1 distance from ref to a point of the box (per row)."""
    return np.sum(np.maximum(np.abs(lo - ref), np.abs(hi - ref)), axis=-1)


# ---------------------------------------------------------------------------
# The certificate of one step, and the checks built on it.
# ---------------------------------------------------------------------------

class Setting:
    """What a tracking step's certificate depends on besides the step:
    network layers, state and control sets, noise bounds, obstacles."""

    def __init__(self, layers, x_lo, x_hi, u_lo, u_hi, eps_x, eps_y, eps_u,
                 obstacles):
        self.layers = layers
        self.x_lo, self.x_hi = np.asarray(x_lo, float), np.asarray(x_hi, float)
        self.u_lo, self.u_hi = np.asarray(u_lo, float), np.asarray(u_hi, float)
        self.eps_x = np.asarray(eps_x, float)
        self.eps_y = np.asarray(eps_y, float)
        self.eps_u = np.asarray(eps_u, float)
        self.obstacles = [(np.asarray(lo, float), np.asarray(hi, float))
                          for lo, hi in obstacles]

    def safe_box(self, y, u):
        """eps_x-inflated interval image of (y +- eps_y, cut to X) x
        (u +- eps_u, cut to U); u may be a batch of controls."""
        u = np.asarray(u, dtype=float)
        rows = u.shape[:-1] + self.x_lo.shape
        s_lo = np.broadcast_to(np.maximum(y - self.eps_y, self.x_lo), rows)
        s_hi = np.broadcast_to(np.minimum(y + self.eps_y, self.x_hi), rows)
        u_lo = np.maximum(u - self.eps_u, self.u_lo)
        u_hi = np.minimum(u + self.eps_u, self.u_hi)
        lo, hi = interval_image(self.layers,
                                np.concatenate([s_lo, u_lo], axis=-1),
                                np.concatenate([s_hi, u_hi], axis=-1))
        return lo - self.eps_x, hi + self.eps_x

    def certified(self, lo, hi):
        """Boxes inside X and clear of every obstacle interior (per row)."""
        ok = box_in_box(lo, hi, self.x_lo, self.x_hi)
        for o_lo, o_hi in self.obstacles:
            ok = ok & misses_interior(lo, hi, o_lo, o_hi)
        return ok


def check_step(st: Setting, rec) -> list:
    """Failures of one Optimal step record.

    rec needs y, x_ref, u_cmd, box_lo, box_hi, cost and x_next.
    """
    bad = []
    lo, hi = np.asarray(rec.box_lo, float), np.asarray(rec.box_hi, float)
    if not in_box(rec.x_next, lo, hi):
        bad.append("x_next outside the safe box")
    if not st.certified(lo, hi):
        bad.append("safe box leaves X or meets an obstacle interior")
    ref_lo, ref_hi = st.safe_box(np.asarray(rec.y, float), rec.u_cmd)
    dev = max(np.max(np.abs(ref_lo - lo)), np.max(np.abs(ref_hi - hi)))
    if not dev <= MATCH_TOL:
        bad.append(f"safe box differs from the interval image by {dev:.3g}")
    cost = float(worst_l1(lo, hi, np.asarray(rec.x_ref, float)))
    if not abs(cost - rec.cost) <= MATCH_TOL:
        bad.append(f"cost {rec.cost!r} is not the box's worst l1 {cost!r}")
    return bad


def control_grid(st: Setting, n: int) -> np.ndarray:
    """n points per control axis over U, as rows."""
    axes = [np.linspace(a, b, n) for a, b in zip(st.u_lo, st.u_hi)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                    axis=1)


def check_optimal(st: Setting, rec, grid) -> list:
    """No certified grid control beats the MILP's cost by more than 1e-6."""
    lo, hi = st.safe_box(np.asarray(rec.y, float), grid)
    ok = st.certified(lo, hi)
    if not np.any(ok):
        return []
    best = float(np.min(worst_l1(lo[ok], hi[ok], np.asarray(rec.x_ref, float))))
    if best < rec.cost - MATCH_TOL:
        return [f"grid control certifies cost {best!r} < MILP cost {rec.cost!r}"]
    return []


def check_plan(st: Setting, x0, waypoints, u_lo, u_hi, goal_tol) -> list:
    """Failures of a waypoint plan x0 -> w_0 -> ... -> w_{n-2} -> goal.

    Each plan node must lie in its predecessor's reachable box over the
    planning control set [u_lo, u_hi], inside X and clear of obstacle
    interiors; the goal must lie in the last node's reachable box
    inflated by goal_tol.
    """
    bad = []
    nodes = [np.asarray(x0, float)] + [np.asarray(w, float) for w in waypoints]
    for k in range(1, len(nodes)):
        prev, node = nodes[k - 1], nodes[k]
        lo, hi = interval_image(st.layers, np.concatenate([prev, u_lo]),
                                np.concatenate([prev, u_hi]))
        if k == len(nodes) - 1:
            if not in_box(node, lo - goal_tol, hi + goal_tol):
                bad.append("goal outside the last node's inflated reachable box")
            continue
        if not in_box(node, lo, hi):
            bad.append(f"waypoint {k - 1} outside its predecessor's reachable box")
        if not in_box(node, st.x_lo, st.x_hi, tol=0.0):
            bad.append(f"waypoint {k - 1} outside X")
        for o_lo, o_hi in st.obstacles:
            if np.all((node > o_lo) & (node < o_hi)):
                bad.append(f"waypoint {k - 1} inside an obstacle")
    return bad


def model_error(layers, inputs, targets):
    """(componentwise max |error|, mean squared error) of a net."""
    err = forward(layers, inputs) - targets
    return np.max(np.abs(err), axis=0), float(np.mean(np.sum(err ** 2, axis=1)))
