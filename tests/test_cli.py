import glob
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from milp_safeguard.cli import (
    ScenarioError,
    _read_document,
    _read_settings,
    load_scenario,
    main,
)
from milp_safeguard.learner import quantify_error, sample_dataset
from milp_safeguard.milp import SolverConfig
from milp_safeguard.nn_model import forward, load_network
from milp_safeguard.plants import RobotPlant, VehiclePlant
from milp_safeguard.runtime import PlannerParams, plan_waypoints, run_episode

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

SMALL = """\
plant: {kind: robot}
network: {kind: identity_sum}
bounds:
  x_lo: [-1.0, -1.0]
  x_hi: [10.0, 10.0]
  u_lo: [-0.25, -0.25]
  u_hi: [0.25, 0.25]
noise:
  eps_x: [0.05, 0.05]
  eps_y: [0.05, 0.05]
  eps_u: [0.05, 0.05]
obstacles: []
task:
  x0: [0.0, 0.0]
  xg: [1.2, 1.2]
run: {seed: 0, max_steps: 60}
planner: {max_iters: 5000}
"""

TRAIN = """\
plant: {kind: robot}
network:
  kind: train
  hidden: [8, 4]
  samples: 400
  eval_samples: 400
  epochs: 25
  learning_rate: 0.005
  batch_size: 32
  seed: 0
bounds:
  x_lo: [-1.0, -1.0]
  x_hi: [1.0, 1.0]
  u_lo: [-0.25, -0.25]
  u_hi: [0.25, 0.25]
noise:
  eps_x: [0.3, 0.3]
  eps_y: [0.01, 0.01]
  eps_u: [0.01, 0.01]
task:
  x0: [0.0, 0.0]
  x_ref: [0.2, 0.2]
"""


def write(tmp_path, text, name="scenario.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_scenario_bundled_robot_maze():
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "scenarios", "robot_maze.yaml")
    s, doc = load_scenario(path)
    assert isinstance(s.plant, RobotPlant)
    assert s.X.dim == 2 and s.U.dim == 2
    assert len(s.unsafe) == 2
    assert np.allclose(s.xg, [9.0, 9.0])
    assert doc["plant"]["kind"] == "robot"


def test_load_scenario_bundled_vehicle_corridor():
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "scenarios", "vehicle_corridor.yaml")
    with open(path) as f:
        import yaml
        doc = yaml.safe_load(f)
    # Parse everything except the expensive training block.
    assert doc["network"]["kind"] == "train"
    assert isinstance(VehiclePlant(wheelbase=doc["plant"]["l"],
                                   dt=doc["plant"]["dt"]), VehiclePlant)


def test_load_scenario_seed_override(tmp_path):
    path = write(tmp_path, SMALL)
    s, _ = load_scenario(path, seed_override=42)
    assert s.seed == 42


def test_load_scenario_missing_section(tmp_path):
    path = write(tmp_path, "plant: {kind: robot}\n")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_load_scenario_bad_yaml(tmp_path):
    path = write(tmp_path, "plant: [unclosed\n")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_load_scenario_unknown_plant(tmp_path):
    path = write(tmp_path, SMALL.replace("kind: robot", "kind: hovercraft"))
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_load_scenario_bad_vector(tmp_path):
    path = write(tmp_path, SMALL.replace("[0.05, 0.05]", "oops", 1))
    with pytest.raises(ScenarioError):
        load_scenario(path)


@pytest.mark.parametrize("path", sorted(
    glob.glob(os.path.join(ROOT, "scenarios", "*.yaml"))
    + glob.glob(os.path.join(ROOT, "bench", "scenarios", "*.yaml"))),
    ids=lambda p: os.path.relpath(p, ROOT))
def test_committed_scenarios_pass_the_strict_reader(path):
    # Reads every section, the training block included, and trains nothing.
    settings = _read_settings(_read_document(path))
    assert isinstance(settings["solver"], SolverConfig)
    assert isinstance(settings["planner"], PlannerParams)


def test_misspelled_key_is_an_error(tmp_path, capsys):
    path = write(tmp_path, SMALL.replace("{max_iters: 5000}",
                                         "{max_iter: 3}"))
    with pytest.raises(ScenarioError, match="'max_iter' in section 'planner'"):
        load_scenario(path)
    assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 1
    assert "max_iter" in capsys.readouterr().err


def test_removed_solver_key_is_an_error(tmp_path):
    path = write(tmp_path, SMALL + "solver: {relative_gap: 1.0e-6}\n")
    with pytest.raises(ScenarioError, match="'relative_gap' in section "
                                            "'solver'"):
        load_scenario(path)


@pytest.mark.parametrize("value", ["identiy", "random"])
def test_unknown_network_init_is_an_error(tmp_path, capsys, value):
    # identity is the one start that network.init names; absent, training
    # starts from a random net.  A misspelt value is not taken as absent.
    path = write(tmp_path, TRAIN.replace("  seed: 0\n",
                                         f"  seed: 0\n  init: {value}\n"))
    with pytest.raises(ScenarioError,
                       match=f"'network.init' is not valid: '{value}'"):
        _read_settings(_read_document(path))
    assert main(["train", path, "--out", str(tmp_path / "net.json")]) == 1
    assert f"network.init' is not valid: '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "net.json").exists()


def test_unknown_section_is_an_error(tmp_path):
    path = write(tmp_path, SMALL + "solvr: {max_nodes: 10}\n")
    with pytest.raises(ScenarioError, match="unknown section 'solvr'"):
        load_scenario(path)


@pytest.mark.parametrize("margin", ["[-0.1, -0.1]", "[0.4]", "[0.3, 0.3]",
                                    "[0.1, 0.1, 0.1]"],
                         ids=["negative", "one-entry", "empties-U",
                              "three-entries"])
def test_bad_u_margin_is_an_error(tmp_path, capsys, margin):
    # U is [-0.25, 0.25]^2: a margin needs two entries in [0, 0.25].
    path = write(tmp_path, SMALL.replace(
        "{max_iters: 5000}", f"{{max_iters: 5000, u_margin: {margin}}}"))
    with pytest.raises(ScenarioError, match="u_margin"):
        load_scenario(path)
    assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 1
    assert "u_margin" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_empty_sections_take_the_dataclass_defaults(tmp_path):
    text = SMALL.replace("run: {seed: 0, max_steps: 60}\n", "run: {}\n")
    path = write(tmp_path, text.replace("{max_iters: 5000}", "{}")
                 + "solver:\n")
    s, _ = load_scenario(path)
    assert s.solver == SolverConfig() and s.planner == PlannerParams()
    assert (s.seed, s.max_steps) == (0, 500)
    # Only the budgets are solver settings; the tolerances are fixed.
    assert [f.name for f in fields(SolverConfig)] == ["max_nodes",
                                                     "max_simplex_iters"]


def test_missing_file_exits_1(tmp_path, capsys):
    rc = main(["simulate", str(tmp_path / "nope.yaml")])
    assert rc == 1
    assert "scenario error" in capsys.readouterr().err


def test_simulate_small_scenario(tmp_path, capsys):
    path = write(tmp_path, SMALL)
    out = tmp_path / "out"
    rc = main(["simulate", path, "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "status: GoalReached" in stdout
    assert "safety violations: 0" in stdout
    n_steps = int([ln for ln in stdout.splitlines()
                   if ln.startswith("steps:")][0].split()[1])
    traj = (out / "trajectory.csv").read_text().strip().split("\n")
    assert len(traj) == n_steps + 1
    assert (out / "plan.csv").exists()
    svg = (out / "plot.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_simulate_solver_budget_exits_2(tmp_path, capsys):
    path = write(tmp_path, SMALL + "solver: {max_simplex_iters: 5}\n")
    out = tmp_path / "out"
    rc = main(["simulate", path, "--out", str(out)])
    assert rc == 2
    assert "status: SolverLimit" in capsys.readouterr().out
    traj = (out / "trajectory.csv").read_text().strip().split("\n")
    assert len(traj) == 2 and traj[1].split(",")[-2] == "SolveIterationLimit"


def test_plan_failure_exits_2(tmp_path, capsys):
    path = write(tmp_path, SMALL.replace("{max_iters: 5000}",
                                         "{max_iters: 3}"))
    rc = main(["simulate", path, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err == "PlanFailure: no goal connection after 3 iterations"


def test_simulate_seed_override_changes_noise(tmp_path, capsys):
    path = write(tmp_path, SMALL)
    main(["simulate", path, "--out", str(tmp_path / "a"), "--seed", "1"])
    main(["simulate", path, "--out", str(tmp_path / "b"), "--seed", "1"])
    main(["simulate", path, "--out", str(tmp_path / "c"), "--seed", "2"])
    def rows(d):
        # Strip the wall-time column; everything else must be bit-identical.
        lines = (tmp_path / d / "trajectory.csv").read_text().splitlines()
        return [ln.rsplit(",", 1)[0] for ln in lines]

    assert rows("a") == rows("b")
    assert rows("a") != rows("c")
    capsys.readouterr()


def test_simulate_seeds_replays_one_plan(tmp_path, capsys):
    path = write(tmp_path, SMALL)
    out = tmp_path / "out"
    rc = main(["simulate", path, "--out", str(out), "--seeds", "3",
               "--seed", "4"])
    assert rc == 0
    stdout = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in stdout] == ["seed 4", "seed 5",
                                                   "seed 6"]
    assert all("GoalReached" in ln and "violations=0" in ln for ln in stdout)
    assert sorted(p.name for p in out.glob("trajectory*.csv")) == [
        "trajectory_seed4.csv", "trajectory_seed5.csv", "trajectory_seed6.csv"]

    def rows(p):
        # Strip the wall-time column; everything else must be bit-identical.
        return [ln.rsplit(",", 1)[0] for ln in p.read_text().splitlines()]

    s, _ = load_scenario(path, seed_override=4)
    plan = plan_waypoints(s)
    for k in (4, 5, 6):
        ref = tmp_path / f"ref{k}.csv"
        run_episode(replace(s, seed=k), waypoints=plan).to_csv(ref)
        assert rows(out / f"trajectory_seed{k}.csv") == rows(ref)


def test_simulate_seeds_rejects_nonpositive(tmp_path, capsys):
    rc = main(["simulate", write(tmp_path, SMALL), "--seeds", "0",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "--seeds" in capsys.readouterr().err


def test_train_round_trip(tmp_path, capsys):
    path = write(tmp_path, TRAIN)
    out = str(tmp_path / "net.json")
    rc = main(["train", path, "--out", out])
    assert rc == 0
    stdout = capsys.readouterr().out
    printed = [float(v) for v in
               [ln for ln in stdout.splitlines()
                if ln.startswith("eps_x:")][0].split()[1:]]
    net = load_network(out)
    s, _ = load_scenario(path)
    data = sample_dataset(s.plant.step, s.X, s.U, 400, seed=1)
    assert np.allclose(quantify_error(net, data), printed, atol=1e-6)


def test_train_divergence_is_reported(tmp_path, capsys):
    path = write(tmp_path, TRAIN.replace("learning_rate: 0.005",
                                         "learning_rate: 1.0e+6"))
    rc = main(["train", path, "--out", str(tmp_path / "net.json")])
    assert rc == 1
    assert "training diverged" in capsys.readouterr().err
    assert not (tmp_path / "net.json").exists()


def test_train_rejects_non_training_scenario(tmp_path, capsys):
    path = write(tmp_path, SMALL)
    rc = main(["train", path, "--out", str(tmp_path / "net.json")])
    assert rc == 1
    assert "does not request training" in capsys.readouterr().err


def test_network_from_file(tmp_path, capsys):
    path = write(tmp_path, TRAIN)
    main(["train", path, "--out", str(tmp_path / "net.json")])
    capsys.readouterr()
    reuse = TRAIN.replace(
        """network:
  kind: train
  hidden: [8, 4]
  samples: 400
  eval_samples: 400
  epochs: 25
  learning_rate: 0.005
  batch_size: 32
  seed: 0""",
        "network: {kind: file, path: net.json}")
    path2 = write(tmp_path, reuse, name="reuse.yaml")
    s, _ = load_scenario(path2)
    saved = load_network(str(tmp_path / "net.json"))
    z = np.array([0.1, -0.2, 0.05, 0.0])
    assert np.allclose(forward(s.net, z), forward(saved, z))


def test_verify_passes_on_small_scenario(tmp_path, capsys):
    path = write(tmp_path, SMALL)
    rc = main(["verify", path, "--samples", "200"])
    stdout = capsys.readouterr().out
    assert rc == 0
    for name in ("box-equality", "containment", "grid-vs-milp"):
        assert any(name in ln and "PASS" in ln
                   for ln in stdout.splitlines())


def test_verify_rejects_nonpositive_samples(tmp_path, capsys):
    path = write(tmp_path, SMALL)
    rc = main(["verify", path, "--samples", "0"])
    assert rc == 1
    assert "--samples" in capsys.readouterr().err


def test_solve_once_prints_solution(tmp_path, capsys):
    path = write(tmp_path, SMALL)
    rc = main(["solve-once", path, "--y", "5,5", "--x-ref", "5.1,4.9"])
    stdout = capsys.readouterr().out
    assert rc == 0
    u_line = [ln for ln in stdout.splitlines() if ln.startswith("u:")][0]
    u = [float(v) for v in u_line.split()[1:]]
    assert np.allclose(u, [0.1, -0.1], atol=1e-6)
    assert any(ln.startswith("cost:") for ln in stdout.splitlines())


def test_infeasible_solve_once_exits_2(capsys):
    # The measurement lies inside the first wall: no control moves the
    # whole next-state box out of it.
    rc = main(["solve-once", os.path.join(ROOT, "scenarios", "robot_maze.yaml"),
               "--y", "2.5,3.0", "--x-ref", "1.0,1.0"])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("SolverInfeasible: ")
    assert len(out.err.splitlines()) == 1
