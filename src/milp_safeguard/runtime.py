"""Closed-loop episode execution.

The scenario checks its tracking problem once, and run_episode every
waypoint before the first step, so a step checks only its reference's
shape.  Per step: measure, pick the first remaining waypoint as
reference, solve the robust tracking MILP (starting from the previous
step's decision, which carries the model's structure and the root LP's
final tableau; each episode starts cold), actuate with disturbance,
advance the plant, log.  The decision's safe box is the solver's (box_lo,
box_hi) arrays, which the log keeps and the waypoint and goal tests read
as they are: a step builds no Hypercube.  Waypoints are dropped once the
safe box contains them; the episode ends when the box contains the goal,
at a step that commits no decision (halt, no fallback: the step and the
episode are logged with the step's status, reason and solver counters),
when the state leaves the plant's admissible domain, or at the step
limit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from milp_safeguard.encoder import OPTIMAL, TrackingProblem, solve_tracking
from milp_safeguard.milp import SolverConfig
from milp_safeguard.nn_model import ReluNetwork
from milp_safeguard.planner import rrt_build, shortest_path
from milp_safeguard.plants import measure, sample_noise
from milp_safeguard.sets import Hypercube, UnsafeRegion, in_box

GOAL_REACHED = "GoalReached"
INADMISSIBLE = "InadmissibleState"
STEP_LIMIT = "StepLimit"

_MEMBER_TOL = 1e-9


@dataclass(frozen=True)
class PlannerParams:
    max_iters: int = 20000
    goal_bias: float = 0.1
    clearance: float = 0.0
    u_margin: object = None   # per-dim shrink of U for planning


@dataclass(frozen=True)
class Scenario:
    plant: object                       # a plants.py plant
    net: ReluNetwork
    X: Hypercube
    U: Hypercube
    unsafe: UnsafeRegion
    eps_x: np.ndarray
    eps_y: np.ndarray
    eps_u: np.ndarray
    x0: np.ndarray
    xg: np.ndarray | None = None        # goal for planning
    x_ref: np.ndarray | None = None     # single reference (no planning)
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)
    max_steps: int = 500
    planner: PlannerParams = field(default_factory=PlannerParams)
    # The episode's tracking problem, checked once, here.
    problem: TrackingProblem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nx, nu = self.X.dim, self.U.dim
        if (self.plant.state_dim, self.plant.control_dim) != (nx, nu):
            raise ValueError(
                f"{type(self.plant).__name__} has a {self.plant.state_dim}-D "
                f"state and a {self.plant.control_dim}-D control, but X is "
                f"{nx}-D and U {nu}-D")
        p = TrackingProblem(net=self.net, X=self.X, U=self.U,
                            unsafe=self.unsafe, eps_x=self.eps_x,
                            eps_y=self.eps_y, eps_u=self.eps_u)
        object.__setattr__(self, "problem", p)
        for name in ("eps_x", "eps_y", "eps_u"):
            object.__setattr__(self, name, getattr(p, name))
        if self.xg is None and self.x_ref is None:
            raise ValueError("scenario needs a goal or a fixed reference")
        for name in ("x0", "xg", "x_ref"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, p.point(v, name, tol=0.0))
        if not self.plant.admissible(self.x0):
            raise ValueError("x0 outside the plant's admissible domain")
        m = self.planner.u_margin
        if m is not None:
            m = np.asarray(m, dtype=float)
            if (m.shape != (self.U.dim,) or not np.all(m >= 0)
                    or np.any(self.U.lo + m > self.U.hi - m)):
                raise ValueError(
                    f"planner.u_margin must be {self.U.dim} non-negative "
                    f"numbers that leave U non-empty, got {m.tolist()}")


@dataclass(frozen=True)
class StepRecord:
    """A control step; the decision's parts, the actuation and the next
    state are None at a step that commits no decision."""
    k: int
    x: np.ndarray
    y: np.ndarray
    x_ref: np.ndarray
    status: str
    solve_ms: float
    u_cmd: np.ndarray | None = None
    u_act: np.ndarray | None = None
    box_lo: np.ndarray | None = None
    box_hi: np.ndarray | None = None
    cost: float = float("inf")
    x_next: np.ndarray | None = None
    reason: str | None = None   # StepOutcome.reason
    stats: dict | None = None   # StepOutcome.stats


@dataclass
class TrajectoryLog:
    steps: list = field(default_factory=list)
    status: str = STEP_LIMIT
    n_u: int = 0   # the scenario's control width, which to_csv writes

    def safety_violations(self, unsafe: UnsafeRegion,
                          tol: float = _MEMBER_TOL) -> list:
        """Steps whose Optimal decision failed its containment or
        disjointness guarantee."""
        bad = []
        for s in self.steps:
            if s.status != OPTIMAL:
                continue
            if not in_box(s.x_next, s.box_lo, s.box_hi, tol):
                bad.append((s.k, "containment"))
            if not unsafe.separated(s.box_lo, s.box_hi, tol).all():
                bad.append((s.k, "obstacle"))
        return bad

    def to_csv(self, path):
        """One row per step, zeros for the parts a step with no decision
        lacks, so the columns are the scenario's, whatever its fate."""
        if not self.steps:
            raise ValueError("empty log")
        n_x, n_u = self.steps[0].x.shape[0], self.n_u
        # Each group of array columns: its field, its prefix and its width.
        groups = (("x", "x", n_x), ("y", "y", n_x), ("x_ref", "xr", n_x),
                  ("u_cmd", "u_cmd", n_u), ("u_act", "u_act", n_u),
                  ("box_lo", "box_lo", n_x), ("box_hi", "box_hi", n_x))
        cols = (["k"] + [f"{pre}{j}" for _, pre, n in groups
                         for j in range(n)] + ["cost", "status", "solve_ms"])
        with open(path, "w") as f:
            f.write(",".join(cols) + "\n")
            for s in self.steps:
                arrays = [np.zeros(n) if getattr(s, name) is None
                          else getattr(s, name) for name, _, n in groups]
                row = ([str(s.k)] + [f"{float(v):.17g}" for v in (
                    *np.concatenate(arrays), s.cost)]
                    + [s.status, f"{s.solve_ms:.3f}"])
                f.write(",".join(row) + "\n")


def plan_waypoints(s: Scenario) -> list:
    """Reference path for the scenario: RRT+Dijkstra, or the fixed x_ref."""
    if s.xg is None:
        return [s.x_ref]
    U_plan = s.U
    if s.planner.u_margin is not None:
        # Plan over a shrunken control set so the tracking controller keeps
        # spare authority to correct model error; a plan that saturates the
        # controls leaves nothing to push back with when the plant lags.
        m = np.asarray(s.planner.u_margin, dtype=float)
        U_plan = Hypercube(s.U.lo + m, s.U.hi - m)
    tree = rrt_build(s.net, s.X, U_plan, s.unsafe, s.x0, s.xg, seed=s.seed,
                     max_iters=s.planner.max_iters,
                     goal_bias=s.planner.goal_bias,
                     clearance=s.planner.clearance,
                     goal_tol=s.eps_x)
    path = shortest_path(tree)
    # The path root duplicates x0.  Tracking the current state is vacuous,
    # and for plants with a minimum speed the root can never re-enter the
    # safe box once passed, which would freeze the reference.
    if len(path) > 1:
        path = path[1:]
    return path


def run_episode(s: Scenario, waypoints: list | None = None) -> TrajectoryLog:
    """Run one closed-loop episode; a step that commits no decision and an
    inadmissible state halt it, and the halt is logged.  Every waypoint is
    checked (TrackingProblem.point) before the first step."""
    p = s.problem
    if waypoints is None:
        waypoints = plan_waypoints(s)
    waypoints = [p.point(w) for w in waypoints]
    goal = waypoints[-1]
    rng = np.random.default_rng(s.seed)
    log = TrajectoryLog(n_u=s.U.dim)
    x = np.asarray(s.x0, dtype=float)
    prev = None   # each step starts from the previous step's decision

    for k in range(s.max_steps):
        if not s.plant.admissible(x):
            log.status = INADMISSIBLE
            return log
        y = measure(x, s.eps_y, rng)
        # Advance past waypoints the plant has effectively overtaken: once
        # the successor is at least as close to the measurement, tracking
        # the stale waypoint would pull backwards, which a plant with a
        # minimum speed can never satisfy.
        while len(waypoints) > 1 and (
                np.sum(np.abs(y - waypoints[1]))
                <= np.sum(np.abs(y - waypoints[0]))):
            waypoints.pop(0)
        x_ref = waypoints[0]
        t0 = time.perf_counter()
        out = solve_tracking(p, y, x_ref, s.solver, warm=prev)
        solve_ms = 1e3 * (time.perf_counter() - t0)
        decision = prev = out.decision
        if decision is None:
            log.steps.append(StepRecord(
                k=k, x=x, y=y, x_ref=x_ref, status=out.status,
                solve_ms=solve_ms, reason=out.reason, stats=out.stats))
            log.status = out.status
            return log

        w_u = sample_noise(s.eps_u, rng)
        u_act = np.clip(decision.u_cmd + w_u, s.U.lo, s.U.hi)
        x_next = s.plant.step(x, u_act, rng)

        log.steps.append(StepRecord(
            k=k, x=x, y=y, x_ref=x_ref, status=out.status, solve_ms=solve_ms,
            u_cmd=decision.u_cmd, u_act=u_act, box_lo=decision.box_lo,
            box_hi=decision.box_hi, cost=decision.cost, x_next=x_next,
            stats=out.stats))

        lo, hi = decision.box_lo, decision.box_hi
        while waypoints and in_box(waypoints[0], lo, hi, _MEMBER_TOL):
            waypoints.pop(0)
        if in_box(goal, lo, hi, _MEMBER_TOL):
            log.status = GOAL_REACHED
            return log
        if not waypoints:
            waypoints = [goal]
        x = x_next

    log.status = STEP_LIMIT
    return log
