"""Transcribe one robust tracking step into a MILP and solve it.

Four constraint families are emitted: input feasibility (measurement box
and the big-M min/max linearization of the control uncertainty set), the
ReLU-network structure (sign-switch affine propagation and per-neuron
activation-case binaries), safety (prediction-error inflation plus
per-obstacle separating-coordinate disjunctions), and the l1 tracking
objective via slack variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from milp_safeguard import milp
from milp_safeguard.milp import GE, LE, EQ, ModelBuilder, SolverConfig
from milp_safeguard.nn_model import ReluNetwork, preactivation_bounds
from milp_safeguard.sets import (
    Hypercube,
    UnsafeRegion,
    disjoint_from_region,
    inflate,
    measurement_box,
)

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
    # The states in X consistent with y_k; None when there are none.
    x_box: Hypercube | None = field(init=False)
    layer_bounds: list = field(init=False)

    def __post_init__(self):
        n_x, n_u = self.X.dim, self.U.dim
        if self.net.input_dim != n_x + n_u or self.net.output_dim != n_x:
            raise ValueError("network dimensions do not match state/control sets")
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
        object.__setattr__(self, "x_box", x_box)
        # Any box containing every feasible state yields valid neuron
        # bounds; the measurement box is far tighter than X and lets the
        # encoder pin most activation cases without branching.
        object.__setattr__(
            self, "layer_bounds",
            preactivation_bounds(self.net, x_box if x_box is not None
                                 else self.X, self.U)
        )

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


def control_big_m(p: TrackingProblem) -> np.ndarray:
    """Per-dimension big-M for the control min/max linearization."""
    width = p.U.hi - p.U.lo
    return np.maximum(p.eps_u, width - p.eps_u)


def encode_input_feasibility(p: TrackingProblem, b: ModelBuilder) -> dict:
    """Measurement box fixing plus the eight big-M control inequalities."""
    if p.x_box is None:
        raise InfeasibleMeasurement(
            f"measurement {p.y_k} inconsistent with X under eps_y={p.eps_y}"
        )
    n_x, n_u = p.n_x, p.n_u
    lo, hi = p.x_box.lo, p.x_box.hi
    a0_x = [b.add_continuous(lo[j], lo[j], f"a0_x{j}") for j in range(n_x)]
    b0_x = [b.add_continuous(hi[j], hi[j], f"b0_x{j}") for j in range(n_x)]
    u_cmd = [b.add_continuous(p.U.lo[j], p.U.hi[j], f"u{j}") for j in range(n_u)]
    a0_u = [b.add_continuous(p.U.lo[j], p.U.hi[j], f"a0_u{j}") for j in range(n_u)]
    b0_u = [b.add_continuous(p.U.lo[j], p.U.hi[j], f"b0_u{j}") for j in range(n_u)]
    da = [b.add_binary(f"da{j}") for j in range(n_u)]
    db = [b.add_binary(f"db{j}") for j in range(n_u)]
    M = control_big_m(p)
    for j in range(n_u):
        ul, uh, e, m = p.U.lo[j], p.U.hi[j], p.eps_u[j], M[j]
        # lower end: a0_u = max(u_lo, u_cmd - eps_u), selected by da
        b.add_constraint({a0_u[j]: 1.0}, GE, ul)
        b.add_constraint({a0_u[j]: 1.0, u_cmd[j]: -1.0}, GE, -e)
        b.add_constraint({a0_u[j]: 1.0, da[j]: m}, LE, ul + m)
        b.add_constraint({a0_u[j]: 1.0, u_cmd[j]: -1.0, da[j]: -m}, LE, -e)
        # upper end: b0_u = min(u_hi, u_cmd + eps_u), selected by db
        b.add_constraint({b0_u[j]: 1.0}, LE, uh)
        b.add_constraint({b0_u[j]: 1.0, u_cmd[j]: -1.0}, LE, e)
        b.add_constraint({b0_u[j]: 1.0, db[j]: -m}, GE, uh - m)
        b.add_constraint({b0_u[j]: 1.0, u_cmd[j]: -1.0, db[j]: m}, GE, e)
        b.add_constraint({a0_u[j]: 1.0, b0_u[j]: -1.0}, LE, 0.0)
    return {
        "u_cmd": u_cmd,
        "a0": a0_x + a0_u,
        "b0": b0_x + b0_u,
        "delta_a": da,
        "delta_b": db,
    }


def _sign_switch_row(b, out_var, w_row, bias, a_prev, b_prev, swap):
    """out = sum_q (w_q >= 0 ? w_q * lo_q : w_q * hi_q) + bias (swap flips)."""
    coeffs = {out_var: 1.0}
    lo_vars, hi_vars = (b_prev, a_prev) if swap else (a_prev, b_prev)
    for q, w in enumerate(w_row):
        if w == 0.0:
            continue
        src = lo_vars[q] if w >= 0 else hi_vars[q]
        coeffs[src] = coeffs.get(src, 0.0) - w
    b.add_constraint(coeffs, EQ, bias)


def encode_nn_structure(p: TrackingProblem, b: ModelBuilder, h: dict) -> dict:
    """Layer-by-layer propagation of [a_0, b_0] through the network."""
    lb = p.layer_bounds
    a_prev, b_prev = h["a0"], h["b0"]
    hidden = {"a": [], "b": [], "ahat": [], "bhat": [],
              "d_mm": [], "d_mp": [], "d_pp": []}
    for i, layer in enumerate(p.net.layers[:-1]):
        zlo, zhi = lb[i]
        n_i = layer.out_dim
        ahat = [b.add_continuous(zlo[j], zhi[j], f"ahat{i}_{j}") for j in range(n_i)]
        bhat = [b.add_continuous(zlo[j], zhi[j], f"bhat{i}_{j}") for j in range(n_i)]
        post_hi = np.maximum(0.0, zhi)
        a_i = [b.add_continuous(0.0, post_hi[j], f"a{i}_{j}") for j in range(n_i)]
        b_i = [b.add_continuous(0.0, post_hi[j], f"b{i}_{j}") for j in range(n_i)]
        dmm, dmp, dpp = [], [], []
        for j in range(n_i):
            w_row = layer.weights[j]
            bias = layer.bias[j]
            _sign_switch_row(b, ahat[j], w_row, bias, a_prev, b_prev, swap=False)
            _sign_switch_row(b, bhat[j], w_row, bias, a_prev, b_prev, swap=True)
            b.add_constraint({ahat[j]: 1.0, bhat[j]: -1.0}, LE, 0.0)
            if zlo[j] >= 0.0:
                # Provably active neuron: the ReLU is the identity here,
                # so no case binaries are needed.
                b.add_constraint({a_i[j]: 1.0, ahat[j]: -1.0}, EQ, 0.0)
                b.add_constraint({b_i[j]: 1.0, bhat[j]: -1.0}, EQ, 0.0)
                continue
            if zhi[j] <= 0.0:
                # Provably inactive: both interval ends are pinned at zero
                # (their variable bounds are already [0, 0]).
                continue
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
        hidden["ahat"].append(ahat)
        hidden["bhat"].append(bhat)
        hidden["a"].append(a_i)
        hidden["b"].append(b_i)
        hidden["d_mm"].append(dmm)
        hidden["d_mp"].append(dmp)
        hidden["d_pp"].append(dpp)
        a_prev, b_prev = a_i, b_i

    last = p.net.layers[-1]
    zlo, zhi = lb[-1]
    a_next = [b.add_continuous(zlo[j], zhi[j], f"a_next{j}")
              for j in range(last.out_dim)]
    b_next = [b.add_continuous(zlo[j], zhi[j], f"b_next{j}")
              for j in range(last.out_dim)]
    for j in range(last.out_dim):
        _sign_switch_row(b, a_next[j], last.weights[j], last.bias[j],
                         a_prev, b_prev, swap=False)
        _sign_switch_row(b, b_next[j], last.weights[j], last.bias[j],
                         a_prev, b_prev, swap=True)
        b.add_constraint({a_next[j]: 1.0, b_next[j]: -1.0}, LE, 0.0)
    out = dict(hidden)
    out["a_next"] = a_next
    out["b_next"] = b_next
    return out


def encode_safety(p: TrackingProblem, b: ModelBuilder, h: dict) -> dict:
    """Prediction-error inflation and per-obstacle disjointness binaries."""
    n_x = p.n_x
    a_next, b_next = h["a_next"], h["b_next"]
    x_lo = [b.add_continuous(p.X.lo[j], p.X.hi[j], f"xlo{j}") for j in range(n_x)]
    x_hi = [b.add_continuous(p.X.lo[j], p.X.hi[j], f"xhi{j}") for j in range(n_x)]
    for j in range(n_x):
        b.add_constraint({x_lo[j]: 1.0, a_next[j]: -1.0}, EQ, -p.eps_x[j])
        b.add_constraint({x_hi[j]: 1.0, b_next[j]: -1.0}, EQ, p.eps_x[j])
    deltas = []
    for k, obs in enumerate(p.unsafe):
        d1 = [b.add_binary(f"du1_{k}_{j}") for j in range(n_x)]
        d2 = [b.add_binary(f"du2_{k}_{j}") for j in range(n_x)]
        card = {}
        for j in range(n_x):
            Xl, Xh = p.X.lo[j], p.X.hi[j]
            ol, oh = obs.lo[j], obs.hi[j]
            b.add_constraint({x_hi[j]: 1.0, d1[j]: -(ol - Xh)}, LE, Xh)
            b.add_constraint({x_hi[j]: 1.0, d1[j]: (ol - Xl)}, GE, ol)
            b.add_constraint({x_lo[j]: 1.0, d2[j]: -(oh - Xl)}, GE, Xl)
            b.add_constraint({x_lo[j]: 1.0, d2[j]: (oh - Xh)}, LE, oh)
            b.add_constraint({d1[j]: 1.0, d2[j]: 1.0}, LE, 1.0)
            card[d1[j]] = 1.0
            card[d2[j]] = 1.0
        b.add_constraint(card, GE, 1.0)
        deltas.append((d1, d2))
    return {"x_lo": x_lo, "x_hi": x_hi, "delta_u": deltas}


def encode_objective(p: TrackingProblem, b: ModelBuilder, h: dict) -> dict:
    """l1 worst-case tracking cost via per-dimension slack variables."""
    n_x = p.n_x
    lam = [b.add_continuous(0.0, milp.INF, f"lam{j}") for j in range(n_x)]
    for j in range(n_x):
        r = p.x_ref[j]
        b.add_constraint({h["x_lo"][j]: 1.0, lam[j]: -1.0}, LE, r)
        b.add_constraint({h["x_lo"][j]: 1.0, lam[j]: 1.0}, GE, r)
        b.add_constraint({h["x_hi"][j]: 1.0, lam[j]: -1.0}, LE, r)
        b.add_constraint({h["x_hi"][j]: 1.0, lam[j]: 1.0}, GE, r)
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


def _extract_box(values, lo_vars, hi_vars) -> Hypercube:
    lo = np.array([values[v] for v in lo_vars])
    hi = np.array([values[v] for v in hi_vars])
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
    nn_out_box = _extract_box(v, h["a_next"], h["b_next"])
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


def _check_decision(p: TrackingProblem, d: ControlDecision):
    """Post-extraction audit of the ControlDecision invariants."""
    n_x = p.n_x
    state_part = Hypercube(d.input_box.lo[:n_x], d.input_box.hi[:n_x])
    if not p.X.contains_box(state_part, tol=_TOL):
        raise AssertionError("input box state part escapes X")
    if not p.U.contains(d.u_cmd, tol=_TOL):
        raise AssertionError("commanded control escapes U")
    expected_safe = inflate(d.nn_out_box, p.eps_x)
    if (np.max(np.abs(expected_safe.lo - d.safe_box.lo)) > _TOL
            or np.max(np.abs(expected_safe.hi - d.safe_box.hi)) > _TOL):
        raise AssertionError("safe box is not the eps_x inflation of the NN box")
    if not p.X.contains_box(d.safe_box, tol=_TOL):
        raise AssertionError("safe box escapes X")
    if not disjoint_from_region(d.safe_box, p.unsafe, tol=1e-9):
        raise AssertionError("safe box overlaps an obstacle")
