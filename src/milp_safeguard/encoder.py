"""Transcribe one robust tracking step into a MILP and solve it.

Four constraint families are emitted: input feasibility (measurement box
and the control clip's big-M min/max rows, each branch with its tight
big-M), the ReLU-network structure (sign-switch affine propagation, and
three activation-case binaries for each neuron whose sign the interval
bounds leave undetermined), safety (the output layer's image widened by
eps_x is the safe box, X bounds its variables, and each obstacle within
the step's reach hull gets separating-coordinate disjunctions, a face out
of reach fixed), and the l1 tracking objective via slack variables.  The
post-solve audit checks the safe box against every obstacle, kept or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from milp_safeguard import milp
from milp_safeguard.milp import GE, LE, EQ, ModelBuilder, SolverConfig
from milp_safeguard.nn_model import ReluNetwork, output_bounds, \
    preactivation_bounds
from milp_safeguard.oracle import input_boxes
from milp_safeguard.sets import Hypercube, UnsafeRegion, inflate, \
    measurement_box

_TOL = 1e-6


class InfeasibleMeasurement(ValueError):
    """Measurement inconsistent with the state feasible set."""


class SolverInfeasible(RuntimeError):
    """No safe control exists under the box over-approximation."""


class SolveIterationLimit(RuntimeError):
    """The MILP solver hit its node or iteration budget."""


class SolverNumericalFailure(RuntimeError):
    """A simplex basis could not be inverted, even after a cold re-solve;
    says nothing about whether a safe control exists."""


class AuditFailure(AssertionError):
    """A solved decision failed its post-solve audit."""


def _vec(v, n, name):
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class TrackingProblem:
    """One robust tracking step: model, sets, uncertainty bounds, inputs."""

    net: ReluNetwork
    X: Hypercube
    U: Hypercube
    unsafe: UnsafeRegion
    eps_x: np.ndarray
    eps_y: np.ndarray
    eps_u: np.ndarray
    y_k: np.ndarray
    x_ref: np.ndarray
    # The states in X consistent with y_k.
    x_box: Hypercube = field(init=False)
    layer_bounds: list = field(init=False)

    def __post_init__(self):
        n_x, n_u = self.X.dim, self.U.dim
        if self.net.input_dim != n_x + n_u or self.net.output_dim != n_x:
            raise ValueError("network dimensions do not match state/control sets")
        if len(self.unsafe) and self.unsafe.lo.shape[1] != n_x:
            raise ValueError(f"the obstacles are {self.unsafe.lo.shape[1]}-D, "
                             f"but X is {n_x}-D")
        for name in ("eps_x", "eps_y", "eps_u", "y_k", "x_ref"):
            n = n_u if name == "eps_u" else n_x
            object.__setattr__(self, name, _vec(getattr(self, name), n, name))
        for name in ("eps_x", "eps_y", "eps_u"):
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"{name} must be nonnegative")
        if not self.X.contains(self.x_ref, tol=1e-12):
            raise ValueError("x_ref outside the state feasible set")
        if self.unsafe.contains_interior(self.x_ref):
            raise ValueError("x_ref inside an obstacle")
        x_box = measurement_box(self.y_k, self.eps_y, self.X)
        if x_box is None:
            raise InfeasibleMeasurement(f"measurement {self.y_k} inconsistent "
                                        f"with X under eps_y={self.eps_y}")
        object.__setattr__(self, "x_box", x_box)
        # Any box containing every feasible state yields valid neuron
        # bounds; the measurement box is far tighter than X and lets the
        # encoder pin most activation cases without branching.
        object.__setattr__(self, "layer_bounds",
                           preactivation_bounds(self.net, x_box, self.U))

    @property
    def n_x(self) -> int:
        return self.X.dim

    @property
    def n_u(self) -> int:
        return self.U.dim


@dataclass(frozen=True)
class ControlDecision:
    u_cmd: np.ndarray
    input_box: Hypercube
    nn_out_box: Hypercube
    safe_box: Hypercube
    cost: float
    # The MILP's root basis, for solve_tracking(..., warm=) at the next
    # control step.
    root_basis: object = field(default=None, repr=False, compare=False)


def encode_input_feasibility(p: TrackingProblem, b: ModelBuilder) -> dict:
    """Measurement box fixing plus the big-M min/max rows of each
    control's input interval; U bounds its ends as variable bounds.  A row
    relaxed on the unclipped branch takes M = max(width - eps_u, 0), one
    relaxed on the clipped branch eps_u: tight on each side, so each end's
    LP relaxation is its convex hull (Anderson, Huchette, Ma,
    Tjandraatmadja & Vielma, Math. Programming 2020)."""
    n_x, n_u = p.n_x, p.n_u
    lo, hi = p.x_box.lo, p.x_box.hi
    a0_x = [b.add_continuous(lo[j], lo[j], f"a0_x{j}") for j in range(n_x)]
    b0_x = [b.add_continuous(hi[j], hi[j], f"b0_x{j}") for j in range(n_x)]
    u_cmd = [b.add_continuous(p.U.lo[j], p.U.hi[j], f"u{j}") for j in range(n_u)]
    a0_u = [b.add_continuous(p.U.lo[j], p.U.hi[j], f"a0_u{j}") for j in range(n_u)]
    b0_u = [b.add_continuous(p.U.lo[j], p.U.hi[j], f"b0_u{j}") for j in range(n_u)]
    da = [b.add_binary(f"da{j}") for j in range(n_u)]
    db = [b.add_binary(f"db{j}") for j in range(n_u)]
    M = np.maximum(p.U.hi - p.U.lo - p.eps_u, 0.0)
    for j in range(n_u):
        ul, uh, e, m = p.U.lo[j], p.U.hi[j], p.eps_u[j], M[j]
        # lower end: a0_u = max(u_lo, u_cmd - eps_u), selected by da
        b.add_constraint({a0_u[j]: 1.0, u_cmd[j]: -1.0}, GE, -e)
        b.add_constraint({a0_u[j]: 1.0, da[j]: m}, LE, ul + m)
        b.add_constraint({a0_u[j]: 1.0, u_cmd[j]: -1.0, da[j]: -e}, LE, -e)
        # upper end: b0_u = min(u_hi, u_cmd + eps_u), selected by db
        b.add_constraint({b0_u[j]: 1.0, u_cmd[j]: -1.0}, LE, e)
        b.add_constraint({b0_u[j]: 1.0, db[j]: -m}, GE, uh - m)
        b.add_constraint({b0_u[j]: 1.0, u_cmd[j]: -1.0, db[j]: e}, GE, e)
        b.add_constraint({a0_u[j]: 1.0, b0_u[j]: -1.0}, LE, 0.0)
    return {
        "u_cmd": u_cmd,
        "a0": a0_x + a0_u,
        "b0": b0_x + b0_u,
        "delta_a": da,
        "delta_b": db,
    }


def _affine_image(b, layer, bounds, a_prev, b_prev, name, pad=0.0):
    """The layer's image [lo, hi] of the box [a_prev, b_prev], widened by
    pad, lo within the (low, high) arrays bounds[0] and hi within bounds[1]:
    per neuron, lo = W+ a_prev + W- b_prev + bias - pad and hi = W+ b_prev +
    W- a_prev + bias + pad, W+ and W- holding W's positive and negative
    weights.  lo <= hi needs no row: hi - lo = |W| (b_prev - a_prev) + 2 pad."""
    pad = np.broadcast_to(pad, (layer.out_dim,))
    lo, hi = ([b.add_continuous(low[j], high[j], f"{end}{name}{j}")
               for j in range(layer.out_dim)]
              for end, (low, high) in zip("ab", bounds))
    for j, w_row in enumerate(layer.weights):
        for out, like, unlike, c in ((lo[j], a_prev, b_prev, -pad[j]),
                                     (hi[j], b_prev, a_prev, pad[j])):
            coeffs = {out: 1.0}
            for q in np.flatnonzero(w_row):
                src = like[q] if w_row[q] > 0 else unlike[q]
                coeffs[src] = coeffs.get(src, 0.0) - w_row[q]
            b.add_constraint(coeffs, EQ, layer.bias[j] + c)
    return lo, hi


def encode_nn_structure(p: TrackingProblem, b: ModelBuilder, h: dict) -> dict:
    """Layer-by-layer propagation of [a_0, b_0] through the network.

    A provably active neuron's post-activation ends are its pre-activation
    variables, and a provably inactive neuron's are pinned at zero; only a
    neuron of undetermined sign gets case binaries and rows of its own.
    The output layer's image widened by eps_x is the safe box [x_lo, x_hi],
    bounded by X too; a step where no such box fits raises SolverInfeasible.
    """
    lb = p.layer_bounds
    (zlo, zhi), X = lb[-1], p.X
    ends = [(np.maximum(zlo + e, X.lo), np.minimum(zhi + e, X.hi))
            for e in (-p.eps_x, p.eps_x)]
    if any(np.any(low > high) for low, high in ends):
        raise SolverInfeasible("no safe box of this step fits in X")
    a_prev, b_prev = h["a0"], h["b0"]
    hidden = {"a": [], "b": [], "ahat": [], "bhat": [],
              "d_mm": [], "d_mp": [], "d_pp": []}
    for i, layer in enumerate(p.net.layers[:-1]):
        zlo, zhi = lb[i]
        ahat, bhat = _affine_image(b, layer, (lb[i], lb[i]), a_prev, b_prev,
                                   f"hat{i}_")
        a_i, b_i = list(ahat), list(bhat)
        dmm, dmp, dpp = [], [], []
        for j in range(layer.out_dim):
            if zlo[j] >= 0.0:
                continue   # provably active: the ReLU is the identity
            post_hi = max(0.0, zhi[j])
            a_i[j] = b.add_continuous(0.0, post_hi, f"a{i}_{j}")
            b_i[j] = b.add_continuous(0.0, post_hi, f"b{i}_{j}")
            if zhi[j] <= 0.0:
                continue   # provably inactive: both ends are bounded to 0
            # Undetermined sign: the three activation-status binaries.
            dmm.append(b.add_binary(f"dmm{i}_{j}"))
            dmp.append(b.add_binary(f"dmp{i}_{j}"))
            dpp.append(b.add_binary(f"dpp{i}_{j}"))
            b.add_constraint({a_i[j]: 1.0, ahat[j]: -1.0}, GE, 0.0)
            b.add_constraint(
                {a_i[j]: 1.0, ahat[j]: -1.0, dmm[-1]: zlo[j], dmp[-1]: zlo[j]},
                LE, 0.0)
            b.add_constraint({a_i[j]: 1.0, dpp[-1]: -zhi[j]}, LE, 0.0)
            b.add_constraint({b_i[j]: 1.0, bhat[j]: -1.0}, GE, 0.0)
            b.add_constraint({b_i[j]: 1.0, bhat[j]: -1.0, dmm[-1]: zlo[j]}, LE, 0.0)
            b.add_constraint({b_i[j]: 1.0, dmp[-1]: -zhi[j], dpp[-1]: -zhi[j]},
                             LE, 0.0)
            b.add_constraint({a_i[j]: 1.0, b_i[j]: -1.0}, LE, 0.0)
            b.add_constraint({dmm[-1]: 1.0, dmp[-1]: 1.0, dpp[-1]: 1.0}, EQ, 1.0)
        for key, val in zip(hidden, (a_i, b_i, ahat, bhat, dmm, dmp, dpp)):
            hidden[key].append(val)
        a_prev, b_prev = a_i, b_i

    x_lo, x_hi = _affine_image(b, p.net.layers[-1], ends, a_prev, b_prev,
                               "_safe", pad=p.eps_x)
    return {**hidden, "x_lo": x_lo, "x_hi": x_hi}


def encode_safety(p: TrackingProblem, b: ModelBuilder, h: dict) -> dict:
    """Per-obstacle disjointness binaries for the safe box.

    Only an obstacle that no coordinate separates from the step's reach
    hull, the output bounds inflated by eps_x, gets binaries and rows: every
    feasible safe box lies in that hull, so a coordinate that separates the
    hull separates the box too.  One separation test picks them from all
    obstacles.  h["obstacles"] lists the indices of those kept.  A face out
    of every safe box's reach has its binary fixed at 0 by bounds, which
    keep the matrix; a kept obstacle with no face left is SolverInfeasible.
    """
    n_x = p.n_x
    x_lo, x_hi = h["x_lo"], h["x_hi"]
    zlo, zhi = p.layer_bounds[-1]
    kept = np.flatnonzero(
        ~p.unsafe.separated(zlo - p.eps_x, zhi + p.eps_x)).tolist()
    deltas = []
    for k in kept:
        dead1 = np.maximum(zlo + p.eps_x, p.X.lo) > p.unsafe.lo[k]
        dead2 = np.minimum(zhi - p.eps_x, p.X.hi) < p.unsafe.hi[k]
        if (dead1 & dead2).all():
            raise SolverInfeasible("every safe box of this step meets an obstacle")
        d1, d2 = ([b.add_binary(f"du{s}_{k}_{j}", 0.0 if dead[j] else None)
                   for j in range(n_x)] for s, dead in ((1, dead1), (2, dead2)))
        card = {}
        for j in range(n_x):
            Xl, Xh = p.X.lo[j], p.X.hi[j]
            ol, oh = p.unsafe.lo[k, j], p.unsafe.hi[k, j]
            b.add_constraint({x_hi[j]: 1.0, d1[j]: -(ol - Xh)}, LE, Xh)
            b.add_constraint({x_hi[j]: 1.0, d1[j]: (ol - Xl)}, GE, ol)
            b.add_constraint({x_lo[j]: 1.0, d2[j]: -(oh - Xl)}, GE, Xl)
            b.add_constraint({x_lo[j]: 1.0, d2[j]: (oh - Xh)}, LE, oh)
            b.add_constraint({d1[j]: 1.0, d2[j]: 1.0}, LE, 1.0)
            card[d1[j]] = 1.0
            card[d2[j]] = 1.0
        b.add_constraint(card, GE, 1.0)
        deltas.append((d1, d2))
    return {"delta_u": deltas, "obstacles": kept}


def encode_objective(p: TrackingProblem, b: ModelBuilder, h: dict) -> dict:
    """l1 worst-case tracking cost via per-dimension slack variables,
    lam >= x_hi - r and lam >= r - x_lo (x_lo <= x_hi in every node LP)."""
    n_x = p.n_x
    lam = [b.add_continuous(0.0, milp.INF, f"lam{j}") for j in range(n_x)]
    for j in range(n_x):
        r = p.x_ref[j]
        b.add_constraint({h["x_hi"][j]: 1.0, lam[j]: -1.0}, LE, r)
        b.add_constraint({h["x_lo"][j]: 1.0, lam[j]: 1.0}, GE, r)
    b.set_objective({v: 1.0 for v in lam})
    return {"lam": lam}


def build_tracking_model(p: TrackingProblem, fix_u=None):
    """Compose the four constraint families into one model.

    fix_u optionally pins the commanded control with equality constraints
    (used by oracles to cross-check the propagated boxes).
    """
    b = ModelBuilder()
    h = encode_input_feasibility(p, b)
    h.update(encode_nn_structure(p, b, h))
    h.update(encode_safety(p, b, h))
    h.update(encode_objective(p, b, h))
    if fix_u is not None:
        fix_u = _vec(fix_u, p.n_u, "fix_u")
        for j, var in enumerate(h["u_cmd"]):
            b.add_constraint({var: 1.0}, EQ, fix_u[j])
    return b.build(), h


def _extract_box(values, lo_vars, hi_vars, pad=0.0) -> Hypercube:
    lo = np.array([values[v] for v in lo_vars]) + pad
    hi = np.array([values[v] for v in hi_vars]) - pad
    # Solver feasibility tolerance can leave lo marginally above hi.
    return Hypercube(np.minimum(lo, hi), hi)


def solve_tracking(p: TrackingProblem, cfg: SolverConfig | None = None,
                   fix_u=None, warm=None) -> ControlDecision:
    """Solve the robust tracking MILP and extract the control decision.

    warm is a previous decision's root_basis: the MILP's root LP starts
    from it when the two models share their constraint matrix.
    """
    cfg = cfg or SolverConfig()
    model, h = build_tracking_model(p, fix_u=fix_u)
    sol = milp.solve(model, cfg, warm=warm)
    if sol.status == milp.INFEASIBLE:
        raise SolverInfeasible("no robustly safe control exists for this step")
    if sol.status == milp.NUMERICAL_FAILURE:
        raise SolverNumericalFailure("singular simplex basis in the tracking MILP")
    if sol.status != milp.OPTIMAL:
        raise SolveIterationLimit(f"solver stopped with status {sol.status}")
    v = sol.values
    u_cmd = np.array([v[j] for j in h["u_cmd"]])
    input_box = _extract_box(v, h["a0"], h["b0"])
    nn_out_box = _extract_box(v, h["x_lo"], h["x_hi"], pad=p.eps_x)
    safe_box = _extract_box(v, h["x_lo"], h["x_hi"])
    decision = ControlDecision(
        u_cmd=u_cmd,
        input_box=input_box,
        nn_out_box=nn_out_box,
        safe_box=safe_box,
        cost=float(sol.objective_value),
        root_basis=sol.root_basis,
    )
    _check_decision(p, decision)
    return decision


def _off(box: Hypercube, lo, hi) -> bool:
    """Whether an end of box is more than _TOL away from lo or hi."""
    return max(np.max(np.abs(box.lo - lo)), np.max(np.abs(box.hi - hi))) > _TOL


def _check_decision(p: TrackingProblem, d: ControlDecision):
    """Post-extraction audit of the ControlDecision invariants (AuditFailure).

    The NN box is re-derived by direct interval propagation of the
    commanded control's input box, apart from the MILP's rows, and the safe
    box must be that image inflated by eps_x.
    """
    n_x = p.n_x
    image = Hypercube(*output_bounds(p.net, *input_boxes(p, d.u_cmd)))
    if _off(d.nn_out_box, image.lo, image.hi):
        raise AuditFailure("NN box is not the interval image of the input box")
    state_part = Hypercube(d.input_box.lo[:n_x], d.input_box.hi[:n_x])
    if not p.X.contains_box(state_part, tol=_TOL):
        raise AuditFailure("input box state part escapes X")
    if not p.U.contains(d.u_cmd, tol=_TOL):
        raise AuditFailure("commanded control escapes U")
    inflated = inflate(image, p.eps_x)
    if _off(d.safe_box, inflated.lo, inflated.hi):
        raise AuditFailure(
            "safe box is not the eps_x inflation of the interval image")
    if not p.X.contains_box(d.safe_box, tol=_TOL):
        raise AuditFailure("safe box escapes X")
    if not p.unsafe.separated(d.safe_box.lo, d.safe_box.hi, 1e-9).all():
        raise AuditFailure("safe box overlaps an obstacle")
