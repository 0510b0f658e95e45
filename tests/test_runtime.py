import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from milp_safeguard import encoder, milp, runtime
from milp_safeguard.cli import load_scenario
from milp_safeguard.encoder import (
    AUDIT_FAILURE,
    INFEASIBLE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    SOLVER_LIMIT,
    solve_tracking,
)
from milp_safeguard.learner import identity_warm_start
from milp_safeguard.nn_model import LayerParams, ReluNetwork, \
    build_identity_sum_network, output_bounds
from milp_safeguard.plants import RobotPlant, VehiclePlant
from milp_safeguard.runtime import (
    GOAL_REACHED,
    INADMISSIBLE,
    STEP_LIMIT,
    PlannerParams,
    Scenario,
    StepRecord,
    TrajectoryLog,
    plan_waypoints,
    run_episode,
)
from milp_safeguard.sets import Hypercube, UnsafeRegion

X = Hypercube(np.array([-1.0, -1.0]), np.array([10.0, 10.0]))
U = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
EPS = np.array([0.05, 0.05])
NET = build_identity_sum_network(X, U)


def scenario(**kw):
    base = dict(plant=RobotPlant(eps_x=EPS), net=NET, X=X, U=U,
                unsafe=UnsafeRegion(()), eps_x=EPS, eps_y=EPS, eps_u=EPS,
                x0=np.array([0.0, 0.0]), xg=np.array([1.5, 1.5]), seed=0)
    base.update(kw)
    return Scenario(**base)


def test_scenario_requires_goal_or_reference():
    with pytest.raises(ValueError):
        scenario(xg=None)


def test_scenario_rejects_endpoints_in_obstacle():
    block = UnsafeRegion((Hypercube(np.array([1.2, 1.2]),
                                    np.array([2.0, 2.0])),))
    with pytest.raises(ValueError):
        scenario(unsafe=block)
    with pytest.raises(ValueError):
        scenario(x0=np.array([20.0, 0.0]))


def test_scenario_rejects_negative_noise_bound():
    with pytest.raises(ValueError):
        scenario(eps_u=np.array([-0.01, 0.01]))


@pytest.mark.parametrize("name, value, shape", [
    ("eps_u", np.full(3, 0.01), "(3,)"), ("eps_x", [0.01], "(1,)"),
    ("eps_y", np.full((2, 1), 0.01), "(2, 1)")], ids=str)
def test_scenario_checks_each_uncertainty_vector_s_length(name, value,
                                                          shape):
    # A wrong length fails the scenario's construction, not the first step.
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must have shape (2,), got {shape}")):
        replace(scenario(), **{name: value})


def test_an_episode_checks_its_tracking_problem_once(monkeypatch):
    # The scenario checks the parts an episode fixes; its steps add arrays.
    inner, built = encoder.TrackingProblem.__post_init__, []

    def counted(self):
        built.append(self)
        inner(self)
    monkeypatch.setattr(encoder.TrackingProblem, "__post_init__", counted)
    s = scenario(max_steps=60)
    log = run_episode(s)
    assert log.status == GOAL_REACHED and len(log.steps) > 1
    assert len(built) == 1 and built[0] is s.problem


@pytest.mark.parametrize("bad, message", [
    ([20.0, 0.0], "x_ref outside the state feasible set"),
    ([1.0, 1.0], "x_ref inside an obstacle"),
    ([1.0], "x_ref must have shape")], ids=["outside-X", "in-obstacle",
                                            "shape"])
def test_every_waypoint_is_checked_before_the_first_step(monkeypatch, bad,
                                                         message):
    # A bad last waypoint raises before any solve, not when it becomes the
    # reference and the earlier steps' log is lost.
    from milp_safeguard import runtime
    block = UnsafeRegion((Hypercube(np.array([0.9, 0.9]),
                                    np.array([1.1, 1.1])),))
    calls = []
    monkeypatch.setattr(runtime, "solve_tracking",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=message):
        run_episode(scenario(unsafe=block),
                    [np.array([0.5, 0.5]), np.array(bad)])
    assert calls == []


def test_fixed_reference_skips_planning():
    s = scenario(xg=None, x_ref=np.array([0.4, 0.4]))
    wps = plan_waypoints(s)
    assert len(wps) == 1
    assert np.allclose(wps[0], [0.4, 0.4])


def test_free_space_episode_reaches_goal():
    s = scenario(max_steps=60)
    log = run_episode(s)
    assert log.status == GOAL_REACHED
    assert log.safety_violations(s.unsafe) == []
    # Every commanded control respects the control set.
    for rec in log.steps:
        assert s.U.contains(rec.u_cmd, tol=1e-9)
        assert s.U.contains(rec.u_act, tol=1e-9)


def test_episode_on_a_net_with_no_hidden_layer_logs_its_status():
    # One affine layer, x + u, is a valid net: the encoder lays out its
    # model with no hidden layer, and the planned episode past a wall runs
    # to a logged status.
    net = ReluNetwork((LayerParams(np.hstack([np.eye(2), np.eye(2)]),
                                   np.zeros(2)),))
    wall = UnsafeRegion((Hypercube(np.array([0.6, -1.0]),
                                   np.array([0.9, 1.2])),))
    s = scenario(net=net, unsafe=wall, max_steps=120,
                 planner=PlannerParams(clearance=0.25))
    log = run_episode(s)
    assert log.status == GOAL_REACHED and len(log.steps) > 1
    assert log.safety_violations(wall) == []


def test_episode_replay_is_deterministic():
    # Each step's root LP starts from the previous step's basis; the
    # episode starts cold, so a replay repeats every record bit for bit
    # (all but the timing).
    s = scenario(max_steps=60)
    l1 = run_episode(s)
    l2 = run_episode(s)
    assert l1.status == l2.status
    assert len(l1.steps) == len(l2.steps) > 1
    for a, b in zip(l1.steps, l2.steps):
        for f in fields(StepRecord):
            if f.name == "solve_ms":
                continue
            u, v = getattr(a, f.name), getattr(b, f.name)
            if isinstance(u, np.ndarray):
                assert u.tobytes() == v.tobytes(), f.name
            else:
                assert u == v, f.name


def test_episode_hands_each_root_basis_to_the_next_step(monkeypatch):
    inner, calls = milp.solve, []

    def traced(model, config=None, warm=None):
        sol = inner(model, config, warm=warm)
        calls.append((warm, sol))
        return sol
    monkeypatch.setattr(milp, "solve", traced)
    log = run_episode(scenario(max_steps=60))
    assert log.status == GOAL_REACHED and len(calls) == len(log.steps) > 1
    assert calls[0][0] is None
    for (_, prev), (warm, sol) in zip(calls, calls[1:]):
        assert warm is prev.root_basis
    # The free-space model's matrix never changes, so every later root
    # starts warm.
    assert all(sol.stats["warm_root"] for _, sol in calls[1:])


def test_obstacle_episode_stays_clear():
    wall = UnsafeRegion((Hypercube(np.array([0.6, -1.0]),
                                   np.array([0.9, 1.2])),))
    s = scenario(unsafe=wall, max_steps=120,
                 planner=PlannerParams(clearance=0.25))
    log = run_episode(s)
    assert log.status == GOAL_REACHED
    assert log.safety_violations(wall) == []
    for rec in log.steps:
        assert not wall.contains_interior(rec.x)


def test_sealed_reference_halts_infeasible():
    """Obstacle sealing the reachable set: halt, log intact, no control."""
    seal = Hypercube(np.array([-0.9, -0.9]), np.array([0.9, 0.9]))
    s = scenario(xg=None, x_ref=np.array([0.95, 0.95]),
                 unsafe=UnsafeRegion((seal,)), x0=np.array([-0.95, -0.95]),
                 max_steps=20)
    log = run_episode(s)
    assert log.status == INFEASIBLE
    assert len(log.steps) == 1
    rec = log.steps[0]
    assert rec.u_cmd is None and rec.box_lo is None
    assert rec.status == INFEASIBLE


def test_numerical_failure_halts_episode_logged(monkeypatch):
    """A singular basis is not infeasibility: the step and the episode
    say so."""
    s, _ = load_scenario(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "bench", "scenarios",
                                      "vehicle_corridor.yaml"))

    def inv(a):
        raise np.linalg.LinAlgError("Singular matrix")
    # A refresh after every basis update makes the corridor's cold root LP
    # invert after its first pivot, so it fails too.
    monkeypatch.setattr(milp.np.linalg, "inv", inv)
    monkeypatch.setattr(milp, "_REFACTOR_EVERY", 1)
    log = run_episode(s, waypoints=[s.xg])
    assert log.status == NUMERICAL_FAILURE
    assert len(log.steps) == 1
    rec = log.steps[0]
    assert rec.status == NUMERICAL_FAILURE
    assert rec.u_cmd is None and rec.box_lo is None


def test_audit_failure_halts_episode_logged(monkeypatch):
    """A decision whose safe box is not the interval image of its input
    box widened by eps_x is not certified: the step and the episode say
    so."""
    monkeypatch.setattr(encoder, "output_bounds", lambda net, lo, hi: tuple(
        v + 1e-3 for v in output_bounds(net, lo, hi)))
    log = run_episode(scenario(max_steps=60))
    assert log.status == AUDIT_FAILURE
    assert len(log.steps) == 1
    rec = log.steps[0]
    assert rec.status == AUDIT_FAILURE
    assert rec.u_cmd is None and rec.box_lo is None


def test_solver_budget_halts_episode_logged():
    """A solve that runs out of simplex iterations is not infeasibility:
    the step and the episode say so, and the log keeps the step."""
    s = scenario(max_steps=60, solver=milp.SolverConfig(max_simplex_iters=5))
    log = run_episode(s)
    assert log.status == SOLVER_LIMIT
    assert len(log.steps) == 1
    rec = log.steps[0]
    assert rec.status == SOLVER_LIMIT
    assert rec.u_cmd is None and rec.box_lo is None


def _walls(*ends):
    return UnsafeRegion(tuple(Hypercube(np.array(lo), np.array(hi))
                              for lo, hi in ends))


def _singular_basis(monkeypatch):
    # A refresh after every basis update makes a cold root LP invert after
    # its first pivot.
    def inv(a):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(milp.np.linalg, "inv", inv)
    monkeypatch.setattr(milp, "_REFACTOR_EVERY", 1)


def _audit_off_by_1e3(monkeypatch):
    monkeypatch.setattr(encoder, "output_bounds", lambda net, lo, hi: tuple(
        v + 1e-3 for v in output_bounds(net, lo, hi)))


# Each way a free-space robot step from y tracking [5.2, 4.9] halts: the
# problem's changed parts, y, the solver's budget, a patch of the solve's
# layers, and the step's status and reason.  From y = [5, 5] the reach hull
# is [4.65, 5.35]^2, and every safe box is 0.3 wide.
_HALTS = {
    "no-safe-box-in-X": (
        {"eps_x": np.full(2, 6.0)}, [5.0, 5.0], None, None, INFEASIBLE,
        "no safe box of this step fits in X"),
    "every-safe-box-meets-an-obstacle": (
        {"unsafe": _walls(([4.5, 4.5], [5.5, 5.5]))}, [5.0, 5.0], None, None,
        INFEASIBLE, "every safe box of this step meets an obstacle"),
    # Each wall leaves a face in reach, but the gap between them is 0.2.
    "milp-infeasible": (
        {"unsafe": _walls(([4.0, -1.0], [4.9, 10.0]),
                          ([5.1, -1.0], [6.0, 10.0]))}, [5.0, 5.0], None,
        None, INFEASIBLE, "no robustly safe control exists for this step"),
    "simplex-budget": (
        {}, [5.0, 5.0], milp.SolverConfig(max_simplex_iters=5), None,
        SOLVER_LIMIT, "the solver's budget max_simplex_iters=5 ran out"),
    # The root node branches, and the budget allows no second node.
    "node-budget": (
        {}, [5.0, 5.0], milp.SolverConfig(max_nodes=1), None, SOLVER_LIMIT,
        "the solver's budget max_nodes=1 ran out"),
    "singular-basis": (
        {}, [5.0, 5.0], None, _singular_basis, NUMERICAL_FAILURE,
        "a simplex basis failed to invert, or a reduced cost forbade the "
        "bound flip that would close a row"),
    "audit": (
        {}, [5.0, 5.0], None, _audit_off_by_1e3, AUDIT_FAILURE,
        "safe box is not the eps_x inflation of the interval image"),
    "empty-measurement-box": (
        {}, [-2.0, 5.0], None, None, INFEASIBLE,
        "measurement [-2.  5.] inconsistent with X under eps_y=[0.05 0.05]"),
}


@pytest.mark.parametrize("name", list(_HALTS))
def test_a_step_that_halts_is_an_outcome_the_episode_logs(monkeypatch, name):
    changes, y, cfg, patch, status, reason = _HALTS[name]
    p = replace(scenario().problem, **changes)

    def halt():
        if patch is not None:
            patch(monkeypatch)
        return solve_tracking(p, y, [5.2, 4.9], cfg)
    out = halt()
    assert (out.status, out.decision, out.reason) == (status, None, reason)
    # Only a step that reaches the solver has its counters.
    solved = name not in ("no-safe-box-in-X", "every-safe-box-meets-an-"
                          "obstacle", "empty-measurement-box")
    assert (out.stats is not None) == solved
    monkeypatch.undo()

    # The third step of a free-space episode halts so: it is logged with
    # the outcome, the episode ends with its status, and the log keeps the
    # steps before it.
    calls = []

    def third_step_halts(*args, **kwargs):
        calls.append(args)
        return solve_tracking(*args, **kwargs) if len(calls) < 3 else halt()
    monkeypatch.setattr(runtime, "solve_tracking", third_step_halts)
    log = run_episode(scenario(max_steps=60))
    assert log.status == status
    assert [rec.status for rec in log.steps] == [OPTIMAL, OPTIMAL, status]
    first, second, last = log.steps
    assert first.stats is not None and first.reason is None
    assert np.array_equal(second.x_next, last.x)
    assert (last.reason, last.u_cmd, last.box_lo, last.x_next) == (
        reason, None, None, None)
    assert (last.stats is not None) == solved


def test_step_limit_status():
    s = scenario(xg=None, x_ref=np.array([9.0, 9.0]), max_steps=3)
    log = run_episode(s)
    assert log.status == STEP_LIMIT
    assert len(log.steps) == 3


def test_waypoints_are_consumed_in_order():
    s = scenario(max_steps=60)
    wps = [np.array([0.4, 0.0]), np.array([0.8, 0.4]), np.array([1.0, 0.6])]
    log = run_episode(s, waypoints=wps)
    assert log.status == GOAL_REACHED
    refs = np.array([r.x_ref for r in log.steps])
    # References never move backwards through the waypoint list.
    order = {tuple(w): i for i, w in enumerate(map(tuple, wps))}
    idx = [order[tuple(r)] for r in refs]
    assert idx == sorted(idx)


def test_episode_through_a_generated_forest():
    # 320 unit blocks in rows on both sides of a corridor |y| < 0.35 along
    # x in [0, 20]; the robot follows fixed waypoints down its middle.  Each
    # step's reach hull, about 0.7 wide, meets only the blocks beside it,
    # so each model keeps a few of the 320 and the rest get no binaries.
    Xf = Hypercube(np.array([-1.0, -10.0]), np.array([21.0, 10.0]))
    ends = [0.35 + 1.1 * r for r in range(8)]   # lower ends of the rows above
    blocks = [Hypercube(np.array([i, y]), np.array([i + 0.9, y + 1.0]))
              for i in range(20) for y in ends + [-1.0 - y for y in ends]]
    s = Scenario(plant=RobotPlant(eps_x=EPS),
                 net=build_identity_sum_network(Xf, U), X=Xf, U=U,
                 unsafe=UnsafeRegion(blocks), eps_x=EPS, eps_y=EPS,
                 eps_u=EPS, x0=np.array([0.0, 0.0]),
                 xg=np.array([20.5, 0.0]), max_steps=150)
    assert len(s.unsafe) == 320
    waypoints = [np.array([x, 0.0]) for x in (2.0, 6.0, 10.0, 14.0, 18.0,
                                               20.5)]
    log = run_episode(s, waypoints=waypoints)
    assert log.status == GOAL_REACHED
    assert log.safety_violations(s.unsafe) == []
    kept = [encoder.build_tracking_model(
        s.problem, s.problem.step(rec.y, rec.x_ref))[1]["obstacles"]
        for rec in log.steps]
    # At most two columns on either side, and some steps keep blocks.
    assert max(map(len, kept)) <= 4
    assert sum(map(len, kept)) > 0


def test_vehicle_heading_seam_guard():
    """A heading that turns onto the +/-pi seam ends the episode, logged."""
    X3 = Hypercube(np.array([-5.0, -5.0, -3.5]), np.array([5.0, 5.0, 3.5]))
    # Speed and steer both positive: the heading grows every step.
    U3 = Hypercube(np.array([1.0, 0.5]), np.array([2.0, 1.0]))
    plant = VehiclePlant(wheelbase=1.0, dt=0.1)
    s = Scenario(plant=plant,
                 net=identity_warm_start(X3, U3, (3,), scale=0.0),
                 X=X3, U=U3, unsafe=UnsafeRegion(()),
                 eps_x=np.array([0.25, 0.25, 0.2]),
                 eps_y=np.full(3, 0.01), eps_u=np.full(2, 0.01),
                 x0=np.array([0.0, 0.0, 2.9]), xg=None,
                 x_ref=np.array([4.0, 4.0, 0.0]), max_steps=20)
    log = run_episode(s)
    assert log.status == INADMISSIBLE
    assert 1 <= len(log.steps) < s.max_steps
    assert all(rec.status == "Optimal" for rec in log.steps)
    for a, b in zip(log.steps, log.steps[1:]):
        assert np.array_equal(a.x_next, b.x)
    assert all(plant.admissible(rec.x) for rec in log.steps)
    assert log.steps[-1].x_next[2] > np.pi - 0.1
    # An episode cannot start on the seam.
    with pytest.raises(ValueError):
        replace(s, x0=np.array([0.0, 0.0, 3.1]))


def test_safety_violation_audit_flags_bad_record():
    log = TrajectoryLog()
    log.steps.append(StepRecord(
        k=0, x=np.zeros(2), y=np.zeros(2), x_ref=np.zeros(2),
        u_cmd=np.zeros(2), u_act=np.zeros(2),
        box_lo=np.array([0.0, 0.0]), box_hi=np.array([0.1, 0.1]),
        cost=0.0, status="Optimal", solve_ms=1.0,
        x_next=np.array([0.5, 0.5])))
    bad = log.safety_violations(UnsafeRegion(()))
    assert bad == [(0, "containment")]
    inside = UnsafeRegion((Hypercube(np.array([-1.0, -1.0]),
                                     np.array([1.0, 1.0])),))
    kinds = {kind for _, kind in log.safety_violations(inside)}
    assert kinds == {"containment", "obstacle"}


def test_trajectory_csv_round_trip(tmp_path):
    s = scenario(max_steps=60)
    log = run_episode(s)
    path = tmp_path / "traj.csv"
    log.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(log.steps) + 1
    header = lines[0].split(",")
    assert header[0] == "k" and header[-1] == "solve_ms"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == log.steps[0].x[0]


def test_empty_log_csv_raises(tmp_path):
    with pytest.raises(ValueError):
        TrajectoryLog().to_csv(tmp_path / "empty.csv")


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_every_lp_of_an_episode_hands_over_a_consistent_state(monkeypatch):
    # Each LP of the robot maze's episode and of the corridor episode on the
    # committed plan keeps its reduced costs and values for its children,
    # updated pivot by pivot.  After every one, they must equal the ones a
    # fresh inversion of its final basis gives: c - c_B B^-1 A and
    # B^-1 (rhs - N x_N).
    inner, checked = milp._simplex, []

    def check(A, rhs, c, lb, ub, *args, **kwargs):
        result = inner(A, rhs, c, lb, ub, *args, **kwargs)
        if result[0] == milp.OPTIMAL:
            x, basis = result[1], result[4].basis
            Binv = np.linalg.inv(A[:, basis])
            nonbasic = np.ones(A.shape[1], dtype=bool)
            nonbasic[basis] = False
            d = c - (c[basis] @ Binv) @ A
            xB = Binv @ (rhs - A[:, nonbasic] @ x[nonbasic])
            assert np.max(np.abs(result[4].T[-1] - d)) <= 1e-9
            assert np.max(np.abs(x[basis] - xB)) <= 1e-9
            checked.append(result[3])
        return result
    monkeypatch.setattr(milp, "_simplex", check)
    robot, _ = load_scenario(os.path.join(ROOT, "scenarios", "robot_maze.yaml"))
    assert run_episode(robot).status == GOAL_REACHED
    scenarios = os.path.join(ROOT, "bench", "scenarios")
    corridor, _ = load_scenario(os.path.join(scenarios, "vehicle_corridor.yaml"))
    plan = np.loadtxt(os.path.join(scenarios, "vehicle_plan.csv"),
                      delimiter=",", skiprows=1, ndmin=2)[:, 1:]
    assert run_episode(corridor, waypoints=list(plan)).status == GOAL_REACHED
    assert len(checked) > 500 and sum(checked) > 1500


# Prints the robot maze episode's status and step count, its tracking
# solves' stats summed over the episode, as a wrapper of milp.solve counts
# them (as the benchmark's tracer does), and the step records' stats
# summed, as JSON.
_SOLVE_COUNTS = """
import json, sys
from milp_safeguard import milp
from milp_safeguard.cli import load_scenario
from milp_safeguard.runtime import run_episode
inner, stats = milp.solve, []
def counted(*args, **kwargs):
    sol = inner(*args, **kwargs)
    stats.append(sol.stats)
    return sol
milp.solve = counted
scenario, _ = load_scenario(sys.argv[1])
log = run_episode(scenario)
counts = {key: sum(s[key] for s in stats) for key in
          ("nodes", "lp_calls", "simplex_iters", "inversions", "warm_root")}
logged = {key: sum(rec.stats[key] for rec in log.steps)
          for key in ("nodes", "simplex_iters")}
print(json.dumps(dict(counts, status=log.status, steps=len(log.steps),
                      solves=len(stats), logged=logged)))
"""


@pytest.fixture(scope="module")
def robot_episode_counts():
    # The counts depend on the BLAS thread count, so the episode runs at
    # one thread.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", _SOLVE_COUNTS,
         os.path.join(ROOT, "scenarios", "robot_maze.yaml")],
        env=env, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(done.stdout)


def test_robot_episode_stays_within_its_solve_count_budget(
        robot_episode_counts):
    # The seed-0 plan's episode solves at about 4.4 LP calls and 13
    # simplex iterations per step; a looser formulation or a worse pivot
    # rule shows here first.
    c = robot_episode_counts
    assert c["status"] == GOAL_REACHED and c["solves"] > 100
    assert c["lp_calls"] / c["solves"] <= 5.0
    assert c["simplex_iters"] / c["solves"] <= 16.0


def test_step_records_carry_the_solver_s_counts(robot_episode_counts):
    # Each step record keeps its solve's stats: summed over the episode,
    # they are the counts the benchmark reads from milp.solve.
    c = robot_episode_counts
    assert c["nodes"] >= c["solves"] > 100
    assert c["logged"] == {"nodes": c["nodes"],
                           "simplex_iters": c["simplex_iters"]}


def test_robot_episode_hands_its_root_tableau_over(robot_episode_counts):
    # The episode takes 106 steps to the goal.  Its model changes structure
    # on few steps, so at least 90% of the roots start warm, from the
    # previous root's tableau, and the others cold: a basis is inverted
    # only once per 60 basis updates, inherited ones included.
    c = robot_episode_counts
    assert (c["status"], c["steps"], c["solves"]) == (GOAL_REACHED, 106, 106)
    assert c["warm_root"] >= 0.9 * c["solves"]
    assert c["inversions"] <= c["simplex_iters"] // milp._REFACTOR_EVERY


def test_root_tableau_chain_refactorizes_on_inherited_counts():
    # Two robot episodes in a row, 215 steps: each root starts from the
    # previous one's tableau, which carries its count of basis updates
    # since its last inversion, so the chain refactorizes although no
    # solve makes 60 pivots.  Every optimum equals a cold solve's.
    s, _ = load_scenario(os.path.join(ROOT, "scenarios", "robot_maze.yaml"))
    waypoints = plan_waypoints(s)
    steps = [s.problem.step(rec.y, rec.x_ref) for seed in (0, 1)
             for rec in run_episode(replace(s, seed=seed),
                                    [w.copy() for w in waypoints]).steps]
    assert len(steps) >= 130
    basis = structure = None
    inversions = warm_roots = 0
    for step in steps:
        model, h = encoder.build_tracking_model(s.problem, step,
                                                structure=structure)
        warm, cold = milp.solve(model, warm=basis), milp.solve(model)
        assert warm.status == cold.status == milp.OPTIMAL
        assert abs(warm.objective_value - cold.objective_value) <= 1e-9
        assert warm.stats["simplex_iters"] < milp._REFACTOR_EVERY
        inversions += warm.stats["inversions"]
        warm_roots += warm.stats["warm_root"]
        basis, structure = warm.root_basis, h["structure"]
    assert inversions >= 2 and warm_roots >= 0.85 * len(steps)


# Prints, for each given disturbance seed, the SHA-256 over an episode's
# step records (states, measurements, references, controls, safe boxes,
# costs and statuses) and its status, one episode a line.  The scenario's
# own plan is tracked, or the plan in the CSV file given after the seeds'
# count.
_EPISODE_PRINTS = """
import hashlib
import sys
from dataclasses import replace
import numpy as np
from milp_safeguard.cli import load_scenario
from milp_safeguard.runtime import plan_waypoints, run_episode
scenario, _ = load_scenario(sys.argv[1])
waypoints = (plan_waypoints(scenario) if len(sys.argv) < 4 else
             list(np.loadtxt(sys.argv[3], delimiter=",", skiprows=1,
                             ndmin=2)[:, 1:]))
for seed in range(int(sys.argv[2])):
    log = run_episode(replace(scenario, seed=seed),
                      [w.copy() for w in waypoints])
    h = hashlib.sha256()
    for rec in log.steps:
        for name in ("x", "y", "x_ref", "u_cmd", "u_act", "box_lo",
                     "box_hi", "x_next"):
            v = getattr(rec, name)
            h.update(b"None" if v is None else v.tobytes())
        h.update(repr((float(rec.cost), rec.status)).encode())
    h.update(log.status.encode())
    print(h.hexdigest())
"""

# Each episode's print under disturbance seeds 0-5: the robot maze on its
# plan for RRT seed 0, and the corridor on the committed bench plan.
_EPISODES = {
    ("scenarios", "robot_maze.yaml"): [
        "54bb51b22d949b1f869a7c51dd2beb5c0e43b4878e7b06fdc087df6cdee1d7ff",
        "9f36b8f8bc92b62efe4ee180078c077ad2ffb6c43d1d557d9987f644f957ebb5",
        "44169a921513aa69e7b8a9def6d8dcc71498b8305e4cc8a923d1cd9a849de273",
        "174164207d3ede9a1bbe437b8e4b5b01505dd0b1d13615ec6c680318e11fbec4",
        "80712818480574206dd99942f9d4a4c194b41b2c81e0c6606f4dae3bf3181443",
        "df9a3f6632fc10577332fb69b43d5ef6ba4f3696c9a5a83f1032c042c86def92"],
    ("bench", "scenarios", "vehicle_corridor.yaml"): [
        "8254c80ba888bded5247e0f8049938bf813568641585472b71d25ba0de6ce941",
        "4067524a1dfd9ce76d982bfaac9f4314dc8b990c44814cd09eb6cc17b4815adb",
        "68220d61d08b10587cadedc7eb52a57b403897bbc926d9a5a44d92b45143a9b8",
        "a9b9d6162fbe28fbe7d004349d1a082e092f6e8b8cc76462383ba2fd745d2a9b",
        "5cc43ae33e7fca0e9c9f29041397b4d109ce4fa32d1a379f6614f2daee501ba8",
        "1e44420ac4bf6ad81e97cd43638214b43ad5f7176e6dad58fa4d33cbfbbf751b"],
}


@pytest.mark.parametrize("scenario_path", list(_EPISODES),
                         ids=["robot", "corridor"])
def test_episodes_keep_every_step_record(scenario_path):
    # A change to the encoder, the solver or the episode loop that is meant
    # to keep every certificate must keep these prints, at one BLAS thread
    # as the benchmark runs.  Each episode reaches the goal.
    plan = ([os.path.join(ROOT, "bench", "scenarios", "vehicle_plan.csv")]
            if scenario_path[0] == "bench" else [])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", _EPISODE_PRINTS,
         os.path.join(ROOT, *scenario_path), "6"] + plan,
        env=env, capture_output=True, text=True, check=True, timeout=300)
    assert done.stdout.split() == _EPISODES[scenario_path]
