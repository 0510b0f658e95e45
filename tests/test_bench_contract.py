"""The package API that the benchmark reads must stay as it is.

bench/workload.py wraps the package functions listed in its TRACED table
by name, and reads step records, scenarios, solver statistics and model
handles; a renamed or deleted one would crash only the benchmark run.
"""

import dataclasses
import importlib
import importlib.util
import os

import numpy as np

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH = os.path.join(ROOT, "bench")


def _workload(monkeypatch):
    # workload.py imports its sibling modules (checker, spans) by bare name.
    monkeypatch.syspath_prepend(BENCH)
    spec = importlib.util.spec_from_file_location(
        "bench_workload", os.path.join(BENCH, "workload.py"))
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    return workload


def test_every_traced_function_resolves(monkeypatch):
    workload = _workload(monkeypatch)
    assert workload.TRACED
    for module, func, _span, _note in workload.TRACED:
        mod = importlib.import_module("milp_safeguard." + module)
        assert callable(getattr(mod, func, None)), f"{module}.{func}"


# The rest of the runtime API that bench/workload.py reads.

def test_step_record_fields():
    from milp_safeguard.runtime import StepRecord
    names = {f.name for f in dataclasses.fields(StepRecord)}
    assert {"x", "y", "u_cmd", "u_act", "x_next", "box_lo", "box_hi",
            "status", "solve_ms"} <= names


def test_load_scenario_returns_scenario_and_document():
    from milp_safeguard.cli import load_scenario
    from milp_safeguard.runtime import Scenario
    result = load_scenario(os.path.join(ROOT, "scenarios", "robot_maze.yaml"))
    assert isinstance(result, tuple) and len(result) == 2
    scenario, doc = result
    assert isinstance(scenario, Scenario) and isinstance(doc, dict)


def test_milp_solve_stats_keys():
    from milp_safeguard.milp import LE, ModelBuilder, solve
    b = ModelBuilder()
    x = b.add_binary("x")
    b.add_constraint({x: 1.0}, LE, 1.0)
    b.set_objective({x: -1.0})
    sol = solve(b.build())
    assert {"nodes", "lp_calls", "simplex_iters", "cold_resolves",
            "inversions", "warm_root"} <= set(sol.stats)
    assert sol.stats["warm_root"] is False
    assert isinstance(sol.stats["inversions"], int)
    assert solve(b.build(), warm=sol.root_basis).stats["warm_root"] is True


def test_simplex_calls_are_the_solve_lp_calls(monkeypatch):
    # workload.py counts milp.lp_calls_per_solve, simplex_iters_per_lp and
    # us_per_simplex_iter from the traced milp._simplex calls inside
    # milp.solve and from the 4th element of their results.
    from milp_safeguard import milp
    from milp_safeguard.cli import load_scenario
    from milp_safeguard.encoder import build_tracking_model
    # A robot step next to the wall [2, 3] x [-1, 6.5], which the model
    # keeps: the solve branches.
    s, _ = load_scenario(os.path.join(ROOT, "scenarios", "robot_maze.yaml"))
    model, h = build_tracking_model(
        s.problem, s.problem.step([1.7, 1.0], [1.9, 1.5]))
    assert h["obstacles"] == [0]
    results = []
    inner = milp._simplex

    def traced(*args, **kwargs):
        results.append(inner(*args, **kwargs))
        return results[-1]
    monkeypatch.setattr(milp, "_simplex", traced)
    sol = milp.solve(model)
    assert sol.stats["lp_calls"] == len(results) > 1
    assert sol.stats["simplex_iters"] == sum(r[3] for r in results)


def test_tracking_model_reports_undetermined_neurons():
    from milp_safeguard.encoder import build_tracking_model
    from milp_safeguard.nn_model import build_identity_sum_network
    from milp_safeguard.runtime import Scenario
    from milp_safeguard.plants import RobotPlant
    from milp_safeguard.sets import Hypercube, UnsafeRegion
    X = Hypercube(np.array([-1.0, -1.0]), np.array([10.0, 10.0]))
    U = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
    eps = np.array([0.05, 0.05])
    s = Scenario(plant=RobotPlant(eps_x=eps),
                 net=build_identity_sum_network(X, U), X=X, U=U,
                 unsafe=UnsafeRegion(()), eps_x=eps, eps_y=eps, eps_u=eps,
                 x0=np.zeros(2), x_ref=np.ones(2))
    model, h = build_tracking_model(s.problem,
                                    s.problem.step(np.zeros(2), np.ones(2)))
    # One list of undetermined-neuron binaries per hidden layer; the
    # identity-sum net's neurons are all provably active.
    assert [list(d) for d in h["d_mm"]] == [[]] * (len(s.net.layers) - 1)
    assert all(c.rel in ("<=", ">=", "=") for c in model.constraints)
    assert int(model.is_binary.sum()) > 0


def test_a_tracking_step_calls_each_traced_layer_once(monkeypatch):
    # workload.py reads encoder.preactivation_bounds_ms_p50,
    # build_model_ms_p50 and check_decision_ms_p50 from spans of
    # nn_model.preactivation_bounds, encoder.build_tracking_model and
    # encoder._check_decision.  A step must reach each of them once, from
    # inside solve_tracking, through the bindings the tracer patches.
    from milp_safeguard import encoder
    from milp_safeguard.cli import load_scenario
    tracer = _workload(monkeypatch).install_tracer()
    try:
        s, _ = load_scenario(os.path.join(ROOT, "scenarios",
                                          "robot_maze.yaml"))
        encoder.solve_tracking(s.problem, [1.7, 1.0], [1.9, 1.5])
    finally:
        tracer.uninstall()
    spans = importlib.import_module("spans").Spans(tracer)
    assert spans.count("encoder.solve_tracking") == 1
    for span in ("encoder.preactivation_bounds", "encoder.build_model",
                 "encoder.check_decision"):
        assert spans.count(span) == 1, span
        assert spans.count_under(span, "encoder.solve_tracking") == 1, span


def test_a_robot_episode_builds_no_hypercube(monkeypatch):
    # The fixed parts are checked once, by the scenario; a step, its
    # decision included, is arrays.
    from milp_safeguard import sets
    from milp_safeguard.cli import load_scenario
    from milp_safeguard.runtime import plan_waypoints, run_episode
    s, _ = load_scenario(os.path.join(ROOT, "scenarios", "robot_maze.yaml"))
    waypoints = plan_waypoints(s)
    inner, built = sets.Hypercube.__post_init__, []

    def counted(self):
        built.append(self)
        inner(self)
    monkeypatch.setattr(sets.Hypercube, "__post_init__", counted)
    log = run_episode(s, waypoints)
    assert len(log.steps) > 1
    assert built == []


def test_witness_search_reaches_the_net_only_through_forward_batch(
        monkeypatch):
    # workload.py counts planner.forward_batch_per_witness from the traced
    # forward_batch calls that run inside planner._witness_search, and the
    # tracer wraps the names that planner binds.  Hand the search an opaque
    # net that only the wrapped planner.forward_batch and
    # planner.affine_piece can evaluate: any other way to the network would
    # fail, and only forward_batch calls count as passes.  A stable node's
    # search reads its affine map alone; any other makes passes.
    from milp_safeguard import planner
    from milp_safeguard.nn_model import build_identity_sum_network
    from milp_safeguard.sets import Hypercube
    X = Hypercube(np.array([-1.0, -1.0]), np.array([10.0, 10.0]))
    U = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
    net, opaque = build_identity_sum_network(X, U), object()
    x_from, x_to = np.array([2.0, 3.0]), np.array([2.13, 2.91])
    calls = []

    def through(name):
        inner = getattr(planner, name)

        def traced(n, Z, *args):
            assert n is opaque
            calls.append(name)
            return inner(net, Z, *args)
        monkeypatch.setattr(planner, name, traced)
    expected = {stable: planner._witness_search(net, x_from, x_to, U,
                                                [stable])
                for stable in (True, False)}
    through("forward_batch")
    through("affine_piece")
    for stable in (True, False):
        calls.clear()
        u, r = planner._witness_search(opaque, x_from, x_to, U, [stable])
        assert (np.array_equal(u, expected[stable][0])
                and r == expected[stable][1])
        assert "affine_piece" in calls
        assert (calls.count("forward_batch") == 0) == stable


def test_rrt_build_reaches_interval_bounds_only_through_reachable_box(
        monkeypatch):
    # workload.py reads planner.reachable_box_calls and _s from the traced
    # planner.reachable_box, which rrt_build now calls once per window on a
    # stack of nodes.  Plan with an opaque net that only the wrapped
    # planner functions can evaluate: a way to the interval bounds that
    # bypassed reachable_box would fail, where the metrics would read 0.
    from milp_safeguard import planner
    from milp_safeguard.nn_model import build_identity_sum_network
    from milp_safeguard.sets import Hypercube, UnsafeRegion
    X = Hypercube(np.array([-1.0, -1.0]), np.array([10.0, 10.0]))
    U = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
    wall = UnsafeRegion((Hypercube(np.array([4.0, -1.0]),
                                   np.array([5.0, 8.0])),))
    net, opaque = build_identity_sum_network(X, U), object()

    def plan(n):
        return planner.rrt_build(n, X, U, wall, [1.0, 1.0], [8.0, 1.0],
                                 seed=7, clearance=0.25)
    expected = plan(net)
    boxes = []

    def through(name):
        inner = getattr(planner, name)

        def traced(n, *args):
            assert n is opaque
            if name == "reachable_box":
                boxes.append(len(np.atleast_2d(args[0])))
            return inner(net, *args)
        monkeypatch.setattr(planner, name, traced)
    for name in ("reachable_box", "forward", "forward_batch",
                 "affine_piece"):
        through(name)
    tree = plan(opaque)
    assert len(tree.nodes) == len(expected.nodes) > 1
    assert all(np.array_equal(a, b)
               for a, b in zip(tree.nodes, expected.nodes))
    # Every node's box: the root's alone, then one stack per window.
    assert sum(boxes) >= len(tree.nodes) and max(boxes) > 1


def test_stacked_reachable_boxes_equal_one_row_calls():
    # The boxes of a window's nodes, and their stability flags, come from
    # one stacked call; each row must be what its node alone gives, bit for
    # bit, on the identity-sum net and on the benchmark's vehicle net, or
    # the plans (and with them every planner metric) would change.
    from milp_safeguard.nn_model import build_identity_sum_network, \
        load_network
    from milp_safeguard.planner import reachable_box
    from milp_safeguard.sets import Hypercube
    robot_X = Hypercube(np.array([-1.0, -1.0]), np.array([10.0, 10.0]))
    robot_U = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
    vehicle_X = Hypercube(np.array([0.0, -1.5, -0.35]),
                          np.array([8.0, 1.5, 0.35]))
    vehicle_U = Hypercube(np.array([2.4, -0.3]), np.array([3.4, 0.3]))
    rng = np.random.default_rng(5)
    for net, X, U in (
            (build_identity_sum_network(robot_X, robot_U), robot_X, robot_U),
            (load_network(os.path.join(BENCH, "scenarios",
                                       "vehicle_net.json")),
             vehicle_X, vehicle_U)):
        for k in (1, 2, 8, 33):
            xs = X.sample(rng, k)
            lo, hi, stable = reachable_box(net, xs, U)
            assert lo.shape == hi.shape == (k, X.dim)
            assert stable.shape == (k,)
            for x, row_lo, row_hi, row_stable in zip(xs, lo, hi, stable):
                one_lo, one_hi, one_stable = reachable_box(net, x, U)
                assert row_lo.tobytes() == one_lo.tobytes()
                assert row_hi.tobytes() == one_hi.tobytes()
                assert row_stable == one_stable


def test_a_train_command_samples_twice_and_quantifies_once(monkeypatch,
                                                           tmp_path):
    # workload.py reads learner.samples as the rows of every traced
    # learner.sample_dataset call, 90,000 a bench train: the training set
    # and the evaluation set, each sampled in one call, and the error bound
    # taken in one learner.quantify_error call.  Run a small copy of the
    # bench's train scenario under the bench's own tracer.
    import yaml
    from milp_safeguard.cli import main
    with open(os.path.join(BENCH, "scenarios", "vehicle_train.yaml")) as f:
        doc = yaml.safe_load(f)
    doc["network"].update(samples=300, eval_samples=700, epochs=2)
    path = tmp_path / "train.yaml"
    path.write_text(yaml.safe_dump(doc))
    tracer = _workload(monkeypatch).install_tracer()
    try:
        assert main(["train", str(path), "--out",
                     str(tmp_path / "net.json")]) == 0
    finally:
        tracer.uninstall()
    spans = importlib.import_module("spans").Spans(tracer)
    assert spans.count("learner.sample_dataset") == 2
    assert tracer.notes["samples"] == [300, 700]
    assert spans.count("learner.quantify_error") == 1
