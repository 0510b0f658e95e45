"""Closed-loop episode execution.

Per step: measure, pick the first remaining waypoint as reference, solve
the robust tracking MILP (its root LP starting from the previous step's
root basis; each episode starts cold), actuate with disturbance, advance
the plant, log.  Waypoints are dropped once the predicted safe box
contains them; the episode ends when the box contains the goal, on
infeasibility (halt, no fallback), on a numerical failure of the solver
or a solve that hits its node or simplex-iteration budget (halt, each
logged apart from infeasibility), when the state leaves the plant's
admissible domain, or at the step limit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from milp_safeguard.encoder import (
    InfeasibleMeasurement,
    SolveIterationLimit,
    SolverInfeasible,
    SolverNumericalFailure,
    TrackingProblem,
    solve_tracking,
)
from milp_safeguard.milp import SolverConfig
from milp_safeguard.nn_model import ReluNetwork
from milp_safeguard.planner import rrt_build, shortest_path
from milp_safeguard.plants import measure, sample_noise
from milp_safeguard.sets import Hypercube, UnsafeRegion, disjoint_from_region

GOAL_REACHED = "GoalReached"
INFEASIBLE = "Infeasible"
INADMISSIBLE = "InadmissibleState"
NUMERICAL_FAILURE = "NumericalFailure"
SOLVER_LIMIT = "SolverLimit"
STEP_LIMIT = "StepLimit"

_MEMBER_TOL = 1e-9

# Solver failures that say nothing about whether a safe control exists;
# every other halt of the solve is infeasibility.
_HALT_STATUS = {SolverNumericalFailure: NUMERICAL_FAILURE,
                SolveIterationLimit: SOLVER_LIMIT}


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

    def __post_init__(self):
        for name in ("eps_x", "eps_y", "eps_u", "x0", "xg", "x_ref"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name,
                                   np.atleast_1d(np.asarray(v, dtype=float)))
        if self.xg is None and self.x_ref is None:
            raise ValueError("scenario needs a goal or a fixed reference")
        for name in ("x0", "xg", "x_ref"):
            v = getattr(self, name)
            if v is None:
                continue
            if not self.X.contains(v):
                raise ValueError(f"{name} outside the state feasible set")
            if self.unsafe.contains_interior(v):
                raise ValueError(f"{name} inside an obstacle")
        for name in ("eps_x", "eps_y", "eps_u"):
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"{name} must be nonnegative")
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

    def tracking_problem(self, y, x_ref) -> TrackingProblem:
        """The tracking MILP for measurement y and reference x_ref."""
        return TrackingProblem(
            net=self.net, X=self.X, U=self.U, unsafe=self.unsafe,
            eps_x=self.eps_x, eps_y=self.eps_y, eps_u=self.eps_u,
            y_k=y, x_ref=x_ref)


@dataclass(frozen=True)
class StepRecord:
    k: int
    x: np.ndarray
    y: np.ndarray
    x_ref: np.ndarray
    u_cmd: np.ndarray | None
    u_act: np.ndarray | None
    box_lo: np.ndarray | None
    box_hi: np.ndarray | None
    cost: float
    status: str
    solve_ms: float
    x_next: np.ndarray | None = None


@dataclass
class TrajectoryLog:
    steps: list = field(default_factory=list)
    status: str = STEP_LIMIT

    def safety_violations(self, unsafe: UnsafeRegion,
                          tol: float = _MEMBER_TOL) -> list:
        """Steps whose Optimal decision failed its containment or
        disjointness guarantee."""
        bad = []
        for s in self.steps:
            if s.status != "Optimal":
                continue
            box = Hypercube(np.minimum(s.box_lo, s.box_hi), s.box_hi)
            if not box.contains(s.x_next, tol=tol):
                bad.append((s.k, "containment"))
            if not disjoint_from_region(box, unsafe, tol=tol):
                bad.append((s.k, "obstacle"))
        return bad

    def to_csv(self, path):
        if not self.steps:
            raise ValueError("empty log")
        first = self.steps[0]
        n_x = first.x.shape[0]
        n_u = len(first.u_cmd) if first.u_cmd is not None else 0
        cols = (["k"]
                + [f"x{j}" for j in range(n_x)]
                + [f"y{j}" for j in range(n_x)]
                + [f"xr{j}" for j in range(n_x)]
                + [f"u_cmd{j}" for j in range(n_u)]
                + [f"u_act{j}" for j in range(n_u)]
                + [f"box_lo{j}" for j in range(n_x)]
                + [f"box_hi{j}" for j in range(n_x)]
                + ["cost", "status", "solve_ms"])

        def fmt(v):
            return f"{float(v):.17g}"

        with open(path, "w") as f:
            f.write(",".join(cols) + "\n")
            for s in self.steps:
                zero_u = np.zeros(n_u)
                zero_x = np.zeros(n_x)
                row = ([str(s.k)]
                       + [fmt(v) for v in s.x]
                       + [fmt(v) for v in s.y]
                       + [fmt(v) for v in s.x_ref]
                       + [fmt(v) for v in (s.u_cmd if s.u_cmd is not None
                                           else zero_u)]
                       + [fmt(v) for v in (s.u_act if s.u_act is not None
                                           else zero_u)]
                       + [fmt(v) for v in (s.box_lo if s.box_lo is not None
                                           else zero_x)]
                       + [fmt(v) for v in (s.box_hi if s.box_hi is not None
                                           else zero_x)]
                       + [fmt(s.cost), s.status, f"{s.solve_ms:.3f}"])
                f.write(",".join(row) + "\n")


def plan_waypoints(s: Scenario) -> list:
    """Reference path for the scenario: RRT+Dijkstra, or the fixed x_ref."""
    if s.xg is None:
        return [np.asarray(s.x_ref, dtype=float)]
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
    """Run one closed-loop episode; infeasibility, a numerical failure of
    the solver, a solver budget hit and an inadmissible state halt it, and
    the halt is logged."""
    if waypoints is None:
        waypoints = plan_waypoints(s)
    waypoints = [np.asarray(w, dtype=float) for w in waypoints]
    goal = waypoints[-1]
    rng = np.random.default_rng(s.seed)
    log = TrajectoryLog()
    x = np.asarray(s.x0, dtype=float)
    root = None   # each step's root LP starts from the previous step's

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
        try:
            decision = solve_tracking(s.tracking_problem(y, x_ref), s.solver,
                                      warm=root)
        except (InfeasibleMeasurement, SolverInfeasible, SolveIterationLimit,
                SolverNumericalFailure) as exc:
            log.steps.append(StepRecord(
                k=k, x=x, y=y, x_ref=x_ref, u_cmd=None, u_act=None,
                box_lo=None, box_hi=None, cost=float("inf"),
                status=type(exc).__name__,
                solve_ms=1e3 * (time.perf_counter() - t0)))
            log.status = _HALT_STATUS.get(type(exc), INFEASIBLE)
            return log
        solve_ms = 1e3 * (time.perf_counter() - t0)
        root = decision.root_basis

        w_u = sample_noise(s.eps_u, rng)
        u_act = np.clip(decision.u_cmd + w_u, s.U.lo, s.U.hi)
        x_next = s.plant.step(x, u_act, rng)

        log.steps.append(StepRecord(
            k=k, x=x, y=y, x_ref=x_ref, u_cmd=decision.u_cmd, u_act=u_act,
            box_lo=decision.safe_box.lo, box_hi=decision.safe_box.hi,
            cost=decision.cost, status="Optimal", solve_ms=solve_ms,
            x_next=x_next))

        while waypoints and decision.safe_box.contains(waypoints[0],
                                                       tol=_MEMBER_TOL):
            waypoints.pop(0)
        if decision.safe_box.contains(goal, tol=_MEMBER_TOL):
            log.status = GOAL_REACHED
            return log
        if not waypoints:
            waypoints = [goal]
        x = x_next

    log.status = STEP_LIMIT
    return log
