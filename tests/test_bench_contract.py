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


def test_every_traced_function_resolves(monkeypatch):
    # workload.py imports its sibling modules (checker, spans) by bare name.
    monkeypatch.syspath_prepend(BENCH)
    spec = importlib.util.spec_from_file_location(
        "bench_workload", os.path.join(BENCH, "workload.py"))
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
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
            "inversions", "warm_root", "wall_time"} <= set(sol.stats)
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
    s, _ = load_scenario(os.path.join(ROOT, "scenarios", "robot_maze.yaml"))
    model, _ = build_tracking_model(
        s.tracking_problem(np.zeros(2), np.array([1.0, 0.5])))
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
    model, h = build_tracking_model(s.tracking_problem(np.zeros(2), np.ones(2)))
    # One list of undetermined-neuron binaries per hidden layer; the
    # identity-sum net's neurons are all provably active.
    assert [list(d) for d in h["d_mm"]] == [[]] * (len(s.net.layers) - 1)
    assert all(c.rel in ("<=", ">=", "=") for c in model.constraints)
    assert int(model.is_binary.sum()) > 0


def test_witness_search_reaches_the_net_only_through_forward_batch(
        monkeypatch):
    # workload.py counts planner.forward_batch_per_witness from the traced
    # forward_batch calls that run inside planner._witness_search, and the
    # tracer wraps the name that planner binds. Hand the search an opaque
    # net that only the wrapped planner.forward_batch can evaluate: any
    # other way to the network would fail.
    from milp_safeguard import planner
    from milp_safeguard.nn_model import build_identity_sum_network
    from milp_safeguard.sets import Hypercube
    X = Hypercube(np.array([-1.0, -1.0]), np.array([10.0, 10.0]))
    U = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
    net, opaque = build_identity_sum_network(X, U), object()
    x_from, x_to = np.array([2.0, 3.0]), np.array([2.13, 2.91])
    expected = planner._witness_search(net, x_from, x_to, U)
    inner, calls = planner.forward_batch, []

    def traced(n, Z):
        assert n is opaque
        calls.append(len(Z))
        return inner(net, Z)
    monkeypatch.setattr(planner, "forward_batch", traced)
    u, r = planner._witness_search(opaque, x_from, x_to, U)
    assert np.array_equal(u, expected[0]) and r == expected[1]
    assert len(calls) > 1
