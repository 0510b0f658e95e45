"""Transcribe one robust tracking step into a MILP and solve it.

A TrackingProblem holds what an episode fixes, checked once; its step
method derives a step's data from its measurement and reference, once, for
the model, the audit and the oracles, and presolves it: a step whose
measurement box is empty, or whose every safe box leaves X or meets an
obstacle, gets no model.  Four constraint families are emitted, as array
blocks: input feasibility (measurement box and the control clip's big-M
min/max rows, each branch with its tight big-M), the ReLU-network
structure (each layer's interval image as [I, -W+, -W-] rows, and three
activation-case binaries for each neuron whose sign the interval bounds
leave undetermined), safety (the output layer's image widened by eps_x is
the safe box, X bounds its variables, and each obstacle within the step's
reach hull gets separating-coordinate disjunctions, a face out of reach
fixed), and the l1 tracking objective via slack variables.  The model's
structure (matrix, relations, names, variable ids) depends only on the
problem, the activation cases, the kept obstacles and whether u_cmd is
fixed: it is handed from one control step to the next, and a step with the
same key only fills in its bounds, right-hand sides and undetermined
neurons' coefficients.  The post-solve audit, one pass over the decision's
(lo, hi) arrays, checks the safe box against every obstacle, kept or not.
solve_tracking returns a step's outcome as one value, a StepOutcome: the
certified decision, or the status and reason of a step that has none, the
solver's own but for an Infeasible MILP, which is worded for the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from milp_safeguard import milp
from milp_safeguard.milp import EQ, GE, INF, INFEASIBLE, LE, \
    NUMERICAL_FAILURE, OPTIMAL, SOLVER_LIMIT, MilpModel, SolverConfig
from milp_safeguard.nn_model import ReluNetwork, output_bounds, \
    preactivation_bounds
from milp_safeguard.oracle import input_boxes
from milp_safeguard.sets import Hypercube, UnsafeRegion

_TOL = 1e-6

# A step's statuses: milp's four and this.  Only an Optimal step has a
# decision; SolverLimit and NumericalFailure do not say no safe control exists.
AUDIT_FAILURE = "AuditFailure"


def _vec(v, n, name):
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    return arr


class Step(NamedTuple):
    """A control step's reference, measurement box (the states in X
    consistent with y) and the net's bounds over it x U, per layer, and
    its presolve: the ranges (lo, hi) of its safe box's ends x_lo and x_hi,
    the obstacles that no coordinate separates from its reach hull (kept)
    and the upper bounds of their separation binaries (faces, 0 for a face
    out of every safe box's reach).  If no safe box exists, reason says
    why, and the parts not derived are None."""
    x_ref: np.ndarray
    x_lo: np.ndarray
    x_hi: np.ndarray
    bounds: list | None = None
    lo_end: tuple | None = None
    hi_end: tuple | None = None
    kept: np.ndarray | None = None
    faces: np.ndarray | None = None
    reason: str | None = None


@dataclass(frozen=True)
class TrackingProblem:
    """What an episode of tracking steps fixes: the model, the sets and the
    uncertainty bounds, each checked once, here; step adds a step's data."""

    net: ReluNetwork
    X: Hypercube
    U: Hypercube
    unsafe: UnsafeRegion
    eps_x: np.ndarray
    eps_y: np.ndarray
    eps_u: np.ndarray

    def __post_init__(self):
        n_x, n_u = self.X.dim, self.U.dim
        if (self.net.input_dim, self.net.output_dim) != (n_x + n_u, n_x):
            raise ValueError(
                f"the network maps {self.net.input_dim} inputs to "
                f"{self.net.output_dim} outputs, but X and U need "
                f"{n_x + n_u} to {n_x}")
        if len(self.unsafe) and self.unsafe.lo.shape[1] != n_x:
            raise ValueError(f"the obstacles are {self.unsafe.lo.shape[1]}-D, "
                             f"but X is {n_x}-D")
        for name, n in (("eps_x", n_x), ("eps_y", n_x), ("eps_u", n_u)):
            v = _vec(getattr(self, name), n, name).copy()
            if np.any(v < 0):
                raise ValueError(f"{name} must be nonnegative")
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @property
    def n_x(self) -> int:
        return self.X.dim

    @property
    def n_u(self) -> int:
        return self.U.dim

    def point(self, v, name="x_ref", tol=1e-12) -> np.ndarray:
        """v as an array, checked to lie in X (within tol) and outside every
        obstacle's interior; its errors call it name."""
        v = _vec(v, self.n_x, name)
        if not self.X.contains(v, tol=tol):
            raise ValueError(f"{name} outside the state feasible set")
        if self.unsafe.contains_interior(v):
            raise ValueError(f"{name} inside an obstacle")
        return v

    def step(self, y, x_ref) -> Step:
        """The data of the step that measures y and tracks x_ref, and its
        presolve.  Only their shapes are checked: a reference is checked
        (point) where it enters, once."""
        y, x_ref = _vec(y, self.n_x, "y"), _vec(x_ref, self.n_x, "x_ref")
        X, e_x = self.X, self.eps_x
        x_lo = np.maximum(X.lo, y - self.eps_y)
        x_hi = np.minimum(X.hi, y + self.eps_y)
        if np.any(x_lo > x_hi):
            return Step(x_ref, x_lo, x_hi, reason=f"measurement {y} "
                        f"inconsistent with X under eps_y={self.eps_y}")
        # Any box containing every feasible state yields valid neuron
        # bounds; the measurement box is far tighter than X and lets the
        # encoder pin most activation cases without branching.
        bounds = preactivation_bounds(self.net, x_lo, x_hi, self.U)
        zlo, zhi = bounds[-1]
        # The reach hull holds every feasible safe box.
        hull = (zlo - e_x, zhi + e_x)
        lo_end = (np.maximum(hull[0], X.lo), np.minimum(zhi - e_x, X.hi))
        hi_end = (np.maximum(zlo + e_x, X.lo), np.minimum(hull[1], X.hi))
        step = Step(x_ref, x_lo, x_hi, bounds, lo_end, hi_end)
        if (lo_end[0] > lo_end[1]).any() or (hi_end[0] > hi_end[1]).any():
            return step._replace(reason="no safe box of this step fits in X")
        kept = np.flatnonzero(~self.unsafe.separated(*hull))
        faces = np.empty(0)
        if kept.size:
            # The faces out of reach: x_hi cannot fall to ol, or x_lo rise
            # to oh.
            dead = np.stack((hi_end[0] > self.unsafe.lo[kept],
                             lo_end[1] < self.unsafe.hi[kept]), axis=1)
            if dead.all(axis=(1, 2)).any():
                return step._replace(reason="every safe box of this step "
                                     "meets an obstacle")
            faces = np.where(dead, 0.0, 1.0).ravel()
        return step._replace(kept=kept, faces=faces)


@dataclass(frozen=True)
class ControlDecision:
    """A step's certificate, as the solver's arrays: the commanded control,
    the network's input box [z_lo, z_hi] and the safe box [box_lo,
    box_hi], each lo clamped to its hi."""
    u_cmd: np.ndarray
    z_lo: np.ndarray
    z_hi: np.ndarray
    box_lo: np.ndarray
    box_hi: np.ndarray
    cost: float
    # For solve_tracking(..., warm=) at the next control step: the MILP's
    # root basis and tableau, and the model's structure.
    root_basis: object = field(default=None, repr=False, compare=False)
    structure: object = field(default=None, repr=False, compare=False)


class StepOutcome(NamedTuple):
    """How a control step ended: its status, its certified decision (None
    unless Optimal), the solver's MilpSolution.stats (None when the
    presolve decided the step) and, unless Optimal, the reason."""
    status: str
    decision: ControlDecision | None
    stats: dict | None
    reason: str | None


def _stamp(A, starts, cols, block):
    """Write each item's rows into A: block[r, c, i] goes to row starts[i] +
    r, column cols[c, i]."""
    A[starts + np.arange(len(block))[:, None, None], cols] = block


def _case_rows(zl, zh):
    """The rows of each undetermined neuron, pre-activation bounds [zl, zh],
    over its columns (a, b, ahat, bhat, dmm, dmp, dpp): the binary of its
    case (dmm: both ends <= 0, dmp: they straddle 0, dpp: both >= 0) puts
    each post-activation end at 0 or at its pre-activation end."""
    z, o = np.zeros_like(zl), np.ones_like(zl)
    return np.array([[o, z, -o, z, z, z, z],       # a >= ahat
                     [o, z, -o, z, zl, zl, z],     # a <= ahat - zl (dmm + dmp)
                     [o, z, z, z, z, z, -zh],      # a <= zh dpp
                     [z, o, z, -o, z, z, z],       # b >= bhat
                     [z, o, z, -o, zl, z, z],      # b <= bhat - zl dmm
                     [z, o, z, z, z, -zh, -zh],    # b <= zh (dmp + dpp)
                     [o, -o, z, z, z, z, z],       # a <= b
                     [z, z, z, z, o, o, o]])       # dmm + dmp + dpp = 1


def _image(layer, n, out, prev, pad=0.0):
    """A layer's image [lo, hi] of the box [a_prev, b_prev], widened by
    pad, as two equality rows per neuron: [I, -W+, -W-] over (lo, a_prev,
    b_prev) and over (hi, b_prev, a_prev), W+ and W- holding W's positive
    and negative weights.  hi - lo = |W| (b_prev - a_prev) + 2 pad needs
    no row."""
    (lo, hi), (a_prev, b_prev) = out, prev
    A = np.zeros((2 * layer.out_dim, n))
    block = np.hstack((np.eye(layer.out_dim), -layer.pos_t.T, -layer.neg_t.T))
    A[0::2][:, np.concatenate((lo, a_prev, b_prev))] = block
    A[1::2][:, np.concatenate((hi, b_prev, a_prev))] = block
    rhs = np.column_stack((layer.bias - pad, layer.bias + pad))
    return A, [EQ] * A.shape[0], rhs.ravel()


class _Structure(NamedTuple):
    """A tracking model but for a step's data, which goes where model holds
    0: the lower bounds of the columns lb_at, the upper bounds of ub_at,
    the right-hand sides of the rows rhs_at and the undetermined neurons'
    rows at cases_at.  It serves the steps with its key of the problem it
    was built for."""
    problem: TrackingProblem
    key: tuple
    model: MilpModel
    h: dict
    lb_at: np.ndarray
    ub_at: np.ndarray
    rhs_at: np.ndarray
    off: list          # per hidden layer, the neurons not provably active
    und: np.ndarray    # the undetermined ones among all hidden neurons
    cases_at: tuple


def _structure(p: TrackingProblem, key, cases, kept) -> _Structure:
    """Lay out the tracking model of a step whose hidden neurons have the
    activation cases `cases` (per layer: 0 provably active, 1 provably
    inactive, 2 undetermined) and which keeps the obstacles `kept`.

    Columns, in order: the input box's ends a0 = (a0_x, a0_u) and b0 (the
    state's fixed at the measurement box), u_cmd, the clip binaries da and
    db; per hidden layer its pre-activation ends ahat and bhat, then for
    each neuron not provably active its post-activation ends a and b
    (bounded to 0 if provably inactive) and, if undetermined, its case
    binaries; the safe box x_lo, x_hi; per kept obstacle its separation
    binaries d1 and d2; the slacks lam.  Rows, in order: the clip rows;
    per layer its image rows and its case rows; per kept obstacle its
    separation rows and one that some coordinate separates; the tracking
    rows; with fix_u, u_cmd = fix_u.
    """
    n_x, n_u, X, U, layers = p.n_x, p.n_u, p.X, p.U, p.net.layers
    names, flags = [], []

    def columns(labels, binary=False):
        names.extend(labels)
        flags.append(np.full(len(labels), binary))
        return np.arange(len(names) - len(labels), len(names))

    inputs = columns([f"{v}{j}" for v, k in (
        ("a0_x", n_x), ("b0_x", n_x), ("u", n_u), ("a0_u", n_u),
        ("b0_u", n_u)) for j in range(k)])
    u, a0_u, b0_u = U_cols = inputs[2 * n_x:].reshape(3, n_u)
    clips = columns([f"d{v}{j}" for v in "ab" for j in range(n_u)], True)
    h = {"u_cmd": u, "a0": np.concatenate((inputs[:n_x], a0_u)),
         "b0": np.concatenate((inputs[n_x:2 * n_x], b0_u)),
         "delta_a": clips[:n_u], "delta_b": clips[n_u:]}
    hidden = {k: [] for k in ("a", "b", "ahat", "bhat", "d_mm", "d_mp", "d_pp")}
    lb_at, ub_at, off, images, case_cols = \
        [inputs[:2 * n_x]], [inputs[:2 * n_x]], [], [], []
    prev = (h["a0"], h["b0"])
    for i, (layer, case) in enumerate(zip(layers, cases)):
        d = layer.out_dim
        hat = columns([f"{v}hat{i}_{j}" for v in "ab" for j in range(d)])
        # Each neuron not provably active: its ends, then any case binaries.
        off.append(np.flatnonzero(case))
        und = case[off[-1]] == 2
        width = 2 + 3 * und
        first = np.cumsum(width) - width
        binary = np.ones(width.sum(), dtype=bool)
        binary[first] = binary[first + 1] = False
        first = columns([f"{v}{i}_{j}" for j, is_und in zip(off[-1], und)
                         for v in ("a", "b", "dmm", "dmp", "dpp")[
                             :5 if is_und else 2]], binary)[first]
        a, b = hat[:d].copy(), hat[d:].copy()
        a[off[-1]], b[off[-1]] = first, first + 1
        lb_at.append(hat)
        ub_at += [hat, first, first + 1]
        first, j = first[und], off[-1][und]
        bins = first + np.arange(2, 5)[:, None]
        case_cols.append(np.vstack((first, first + 1, hat[j], hat[d + j], bins)))
        for k, v in zip(hidden, (a, b, hat[:d], hat[d:], *bins)):
            hidden[k].append(v)
        images.append((layer, (hat[:d], hat[d:]), prev))
        prev = (a, b)
    x_lo, x_hi = safe = columns(
        [f"{v}_safe{j}" for v in "ab" for j in range(n_x)]).reshape(2, n_x)
    seps = columns([f"du{s}_{k}_{j}" for k in kept for s in (1, 2)
                    for j in range(n_x)], True).reshape(-1, 2, n_x)
    lam = columns([f"lam{j}" for j in range(n_x)])
    h.update({k: tuple(v) for k, v in hidden.items()}, x_lo=x_lo, x_hi=x_hi,
             delta_u=[tuple(pair) for pair in seps], obstacles=kept.tolist(),
             lam=lam)
    lb_at.append(safe.ravel())
    ub_at += [safe.ravel(), seps.ravel()]
    n, is_binary = len(names), np.concatenate(flags)
    lb, ub = np.zeros(n), is_binary.astype(float)
    lb[U_cols], ub[U_cols], ub[lam] = U.lo, U.hi, INF

    # Rows, block by block: (A, relations, right-hand sides).
    M, e = np.maximum(U.hi - U.lo - p.eps_u, 0.0), p.eps_u
    z, o = np.zeros(n_u), np.ones(n_u)
    # Seven rows per control axis over (u_cmd, a0_u, b0_u, da, db): each end
    # of its input interval is U's bound or u_cmd -/+ eps_u, the bound where
    # da (db) is 1.  A row relaxed on the unclipped branch takes M = max(
    # width - eps_u, 0), one relaxed on the clipped branch eps_u: tight on
    # each side, so each end's LP relaxation is its convex hull (Anderson,
    # Huchette, Ma, Tjandraatmadja & Vielma, Math. Programming 2020).
    A = np.zeros((7 * n_u, n))
    _stamp(A, 7 * np.arange(n_u), np.vstack((U_cols, clips.reshape(2, n_u))),
           np.array([[-o, o, z, z, z],      # a0_u >= u_cmd - eps_u
                     [z, o, z, M, z],       # a0_u <= u_lo + M (1 - da)
                     [-o, o, z, -e, z],     # a0_u <= u_cmd - eps_u (1 - da)
                     [-o, z, o, z, z],      # b0_u <= u_cmd + eps_u
                     [z, z, o, z, -M],      # b0_u >= u_hi - M (1 - db)
                     [-o, z, o, z, e],      # b0_u >= u_cmd + eps_u (1 - db)
                     [z, o, -o, z, z]]))    # a0_u <= b0_u
    blocks = [(A, [GE, LE, LE, LE, GE, GE, LE] * n_u, np.column_stack(
        (-e, U.lo + M, -e, e, U.hi - M, e, z)).ravel())]
    case_starts = []
    for (layer, out, src), cols in zip(images, case_cols):
        blocks.append(_image(layer, n, out, src))
        k = cols.shape[1]
        case_starts.append(sum(len(b[1]) for b in blocks) + 8 * np.arange(k))
        blocks.append((np.zeros((8 * k, n)), [GE, LE, LE, GE, LE, LE, LE, EQ]
                       * k, np.tile([0.0] * 7 + [1.0], k)))
    blocks.append(_image(layers[-1], n, (x_lo, x_hi), prev, p.eps_x))
    if kept.size:
        # Per obstacle [ol, oh], five rows per coordinate of X = [Xl, Xh]
        # over (x_lo, x_hi, d1, d2), d1 = 1 putting the safe box below it
        # and d2 = 1 above it, then one that some coordinate separates.
        K, per = kept.size, 5 * n_x + 1
        ol, oh, Xl, Xh = (np.broadcast_to(v, (K, n_x)).ravel() for v in (
            p.unsafe.lo[kept], p.unsafe.hi[kept], X.lo, X.hi))
        z, o = np.zeros(K * n_x), np.ones(K * n_x)
        A = np.zeros((K * per, n))
        _stamp(A, (per * np.arange(K)[:, None] + 5 * np.arange(n_x)).ravel(),
               np.vstack((np.tile(x_lo, K), np.tile(x_hi, K),
                          seps[:, 0].ravel(), seps[:, 1].ravel())),
               np.array([[z, o, -(ol - Xh), z],     # x_hi <= Xh + (ol - Xh) d1
                         [z, o, ol - Xl, z],        # x_hi >= ol - (ol - Xl) d1
                         [o, z, z, -(oh - Xl)],     # x_lo >= Xl + (oh - Xl) d2
                         [o, z, z, oh - Xh],        # x_lo <= oh - (oh - Xh) d2
                         [z, z, o, o]]))            # d1 + d2 <= 1
        A[per * np.arange(K)[:, None] + per - 1, seps.reshape(K, -1)] = 1.0
        rhs = np.column_stack((Xh, ol, Xl, oh, o)).reshape(K, -1)
        blocks.append((A, ([LE, GE, GE, LE, LE] * n_x + [GE]) * K,
                       np.hstack((rhs, np.ones((K, 1)))).ravel()))
    m = sum(len(b[1]) for b in blocks)
    # The l1 objective's slacks, lam >= x_hi - x_ref and lam >= x_ref - x_lo.
    A = np.zeros((2 * n_x, n))
    z, o = np.zeros(n_x), np.ones(n_x)
    _stamp(A, 2 * np.arange(n_x), np.vstack((x_lo, x_hi, lam)),
           np.array([[z, o, -o], [o, z, o]]))
    blocks.append((A, [LE, GE] * n_x, np.zeros(2 * n_x)))
    if not key[2]:
        A = np.zeros((n_u, n))
        A[np.arange(n_u), u] = 1.0
        blocks.append((A, [EQ] * n_u, np.zeros(n_u)))

    A, rel, rhs = zip(*blocks)
    objective = np.zeros(n)
    objective[lam] = 1.0
    model = MilpModel(lb=lb, ub=ub, is_binary=is_binary, names=tuple(names),
                      objective=objective, A=np.vstack(A),
                      rel=np.array(sum(rel, [])), rhs=np.concatenate(rhs))
    for arr in (is_binary, objective, model.A, model.rel,
                *(v for v in h.values() if isinstance(v, np.ndarray))):
        arr.setflags(write=False)
    rows = np.concatenate([np.empty(0, int)] + case_starts)
    cols = np.hstack([np.empty((7, 0), int)] + case_cols)
    return _Structure(p, key, model, h, np.concatenate(lb_at),
                      np.concatenate(ub_at), np.arange(m, model.rhs.size),
                      off, np.flatnonzero(np.concatenate([[]] + cases) == 2),
                      np.broadcast_arrays(rows + np.arange(8)[:, None, None],
                                          cols))


def build_tracking_model(p: TrackingProblem, step: Step, fix_u=None,
                         structure=None):
    """The tracking MILP of a step (p.step), and h, its parts' variable ids.

    The safe box is the output layer's image widened by eps_x, within X.
    Only an obstacle that no coordinate separates from the step's reach
    hull (the output bounds inflated by eps_x, which holds every feasible
    safe box) is kept, and listed in h["obstacles"]; a face of it out of
    every safe box's reach has its binary fixed at 0 by bounds, which keep
    the matrix.  A step that its presolve found to have no safe box has no
    model: ValueError.  fix_u pins u_cmd.

    structure is an earlier step's h["structure"].  If it has this step's
    key and was built for the same problem, it gets this step's bounds,
    right-hand sides and undetermined neurons' coefficients; otherwise the
    model is laid out afresh.
    """
    if step.reason is not None:
        raise ValueError(f"no tracking model: {step.reason}")
    hidden = step.bounds[:-1]
    cases = [(zl < 0.0) * (1 + (zh > 0.0)) for zl, zh in hidden]
    key = (b"".join(c.tobytes() for c in cases), step.kept.tobytes(),
           fix_u is None)
    s = structure
    if s is None or s.key != key or s.problem is not p:
        s = _structure(p, key, cases, step.kept)

    lb, ub, rhs, A = s.model.lb.copy(), s.model.ub.copy(), \
        s.model.rhs.copy(), s.model.A
    lb[s.lb_at] = np.concatenate((step.x_lo, step.x_hi, *(
        z for zl, _ in hidden for z in (zl, zl)), step.lo_end[0],
        step.hi_end[0]))
    post = [np.maximum(zh[off], 0.0) for (_, zh), off in zip(hidden, s.off)]
    ub[s.ub_at] = np.concatenate((step.x_lo, step.x_hi, *(
        z for (_, zh), q in zip(hidden, post) for z in (zh, zh, q, q)),
        step.lo_end[1], step.hi_end[1], step.faces))
    rhs[s.rhs_at] = np.repeat(step.x_ref, 2) if fix_u is None else \
        np.concatenate((np.repeat(step.x_ref, 2), _vec(fix_u, p.n_u, "fix_u")))
    if s.und.size:
        A = A.copy()
        A[s.cases_at] = _case_rows(
            np.concatenate([zl for zl, _ in hidden])[s.und],
            np.concatenate([zh for _, zh in hidden])[s.und])
    model = MilpModel(lb=lb, ub=ub, is_binary=s.model.is_binary,
                      names=s.model.names, objective=s.model.objective, A=A,
                      rel=s.model.rel, rhs=rhs)
    return model, {**s.h, "structure": s}


def solve_tracking(p: TrackingProblem, y, x_ref,
                   cfg: SolverConfig | None = None, fix_u=None,
                   warm=None) -> StepOutcome:
    """Solve the robust tracking MILP for y and x_ref; extract and audit
    the decision.  A step with no decision is an outcome, not an error.

    warm is the previous control step's decision: the model reuses its
    structure when that fits this step, and the MILP's root LP starts from
    its root basis (see milp.solve).
    """
    step = p.step(y, x_ref)
    if step.reason is not None:
        return StepOutcome(INFEASIBLE, None, None, step.reason)
    model, h = build_tracking_model(
        p, step, fix_u=fix_u,
        structure=None if warm is None else warm.structure)
    sol = milp.solve(model, cfg,
                     warm=None if warm is None else warm.root_basis)
    if sol.status != OPTIMAL:
        reason = ("no robustly safe control exists for this step"
                  if sol.status == INFEASIBLE else sol.reason)
        return StepOutcome(sol.status, None, sol.stats, reason)
    v = sol.values
    # Solver feasibility tolerance can leave a lo marginally above its hi.
    z_hi, box_hi = v[h["b0"]], v[h["x_hi"]]
    decision = ControlDecision(
        u_cmd=v[h["u_cmd"]], z_lo=np.minimum(v[h["a0"]], z_hi), z_hi=z_hi,
        box_lo=np.minimum(v[h["x_lo"]], box_hi), box_hi=box_hi,
        cost=float(sol.objective_value), root_basis=sol.root_basis,
        structure=h["structure"])
    reason = _check_decision(p, step, decision)
    if reason is not None:
        return StepOutcome(AUDIT_FAILURE, None, sol.stats, reason)
    return StepOutcome(OPTIMAL, decision, sol.stats, None)


_AUDIT = ("input box state part escapes X", "commanded control escapes U",
          "safe box is not the eps_x inflation of the interval image",
          "safe box escapes X")


def _check_decision(p: TrackingProblem, step: Step, d: ControlDecision):
    """Post-extraction audit of the ControlDecision invariants: the reason
    of the first that fails, or None.

    The network's output box is re-derived by direct interval propagation
    of the commanded control's input box, apart from the MILP's rows, and
    the safe box must be that image inflated by eps_x.  One pass checks
    each end against its range [a, b] within _TOL (an equality's is [t, t])
    and names the first failed check of _AUDIT; then the obstacles.
    """
    n_x, X, U, e = p.n_x, p.X, p.U, p.eps_x
    lo, hi = output_bounds(p.net, *input_boxes(p, step, d.u_cmd))
    v = np.concatenate((d.z_lo[:n_x], d.z_hi[:n_x], d.u_cmd, d.box_lo,
                        d.box_hi, d.box_lo, d.box_hi))
    a = np.concatenate((X.lo, X.lo, U.lo, lo - e, hi + e, X.lo, X.lo))
    b = np.concatenate((X.hi, X.hi, U.hi, lo - e, hi + e, X.hi, X.hi))
    off = np.maximum(a - v, v - b) > _TOL
    if off.any():
        check = np.repeat(np.arange(4), (2 * n_x, p.n_u, 2 * n_x, 2 * n_x))
        return _AUDIT[check[off.argmax()]]
    if not p.unsafe.separated(d.box_lo, d.box_hi, 1e-9).all():
        return "safe box overlaps an obstacle"
    return None
