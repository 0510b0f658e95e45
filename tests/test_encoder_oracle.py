"""The array-built tracking model against a row-by-row oracle.

The oracle writes the same MILP one row at a time through ModelBuilder, as
the encoder once did.  It shares only TrackingProblem and its steps
with the encoder.
Each case asserts that both give the same standard form, value for value,
and the same variable ids.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from milp_safeguard import milp
from milp_safeguard.cli import load_scenario
from milp_safeguard.encoder import TrackingProblem, build_tracking_model
from milp_safeguard.milp import EQ, GE, LE, ModelBuilder
from milp_safeguard.nn_model import LayerParams, ReluNetwork, \
    build_identity_sum_network
from milp_safeguard.plants import RobotPlant
from milp_safeguard.runtime import Scenario, run_episode
from milp_safeguard.sets import Hypercube, UnsafeRegion

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


# ---------------------------------------------------------------------------
# The oracle: the tracking model written row by row.
# ---------------------------------------------------------------------------

class NoSafeBox(Exception):
    """The oracle finds no safe box for the step: it has no model."""


def _oracle_input_feasibility(p, step, b):
    n_x, n_u = p.n_x, p.n_u
    lo, hi = step.x_lo, step.x_hi
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
        b.add_constraint({a0_u[j]: 1.0, u_cmd[j]: -1.0}, GE, -e)
        b.add_constraint({a0_u[j]: 1.0, da[j]: m}, LE, ul + m)
        b.add_constraint({a0_u[j]: 1.0, u_cmd[j]: -1.0, da[j]: -e}, LE, -e)
        b.add_constraint({b0_u[j]: 1.0, u_cmd[j]: -1.0}, LE, e)
        b.add_constraint({b0_u[j]: 1.0, db[j]: -m}, GE, uh - m)
        b.add_constraint({b0_u[j]: 1.0, u_cmd[j]: -1.0, db[j]: e}, GE, e)
        b.add_constraint({a0_u[j]: 1.0, b0_u[j]: -1.0}, LE, 0.0)
    return {"u_cmd": u_cmd, "a0": a0_x + a0_u, "b0": b0_x + b0_u,
            "delta_a": da, "delta_b": db}


def _oracle_affine_image(b, layer, bounds, a_prev, b_prev, name, pad=0.0):
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


def _oracle_nn_structure(p, step, b, h):
    lb = step.bounds
    (zlo, zhi), X = lb[-1], p.X
    ends = [(np.maximum(zlo + e, X.lo), np.minimum(zhi + e, X.hi))
            for e in (-p.eps_x, p.eps_x)]
    if any(np.any(low > high) for low, high in ends):
        raise NoSafeBox("no safe box of this step fits in X")
    a_prev, b_prev = h["a0"], h["b0"]
    hidden = {"a": [], "b": [], "ahat": [], "bhat": [],
              "d_mm": [], "d_mp": [], "d_pp": []}
    for i, layer in enumerate(p.net.layers[:-1]):
        zlo, zhi = lb[i]
        ahat, bhat = _oracle_affine_image(b, layer, (lb[i], lb[i]), a_prev,
                                          b_prev, f"hat{i}_")
        a_i, b_i = list(ahat), list(bhat)
        dmm, dmp, dpp = [], [], []
        for j in range(layer.out_dim):
            if zlo[j] >= 0.0:
                continue
            post_hi = max(0.0, zhi[j])
            a_i[j] = b.add_continuous(0.0, post_hi, f"a{i}_{j}")
            b_i[j] = b.add_continuous(0.0, post_hi, f"b{i}_{j}")
            if zhi[j] <= 0.0:
                continue
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
    x_lo, x_hi = _oracle_affine_image(b, p.net.layers[-1], ends, a_prev,
                                      b_prev, "_safe", pad=p.eps_x)
    return {**hidden, "x_lo": x_lo, "x_hi": x_hi}


def _oracle_safety(p, step, b, h):
    n_x = p.n_x
    x_lo, x_hi = h["x_lo"], h["x_hi"]
    zlo, zhi = step.bounds[-1]
    kept = np.flatnonzero(
        ~p.unsafe.separated(zlo - p.eps_x, zhi + p.eps_x)).tolist()
    deltas = []
    for k in kept:
        dead1 = np.maximum(zlo + p.eps_x, p.X.lo) > p.unsafe.lo[k]
        dead2 = np.minimum(zhi - p.eps_x, p.X.hi) < p.unsafe.hi[k]
        if (dead1 & dead2).all():
            raise NoSafeBox("every safe box of this step meets an obstacle")
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


def _oracle_objective(p, step, b, h):
    lam = [b.add_continuous(0.0, milp.INF, f"lam{j}") for j in range(p.n_x)]
    for j in range(p.n_x):
        r = step.x_ref[j]
        b.add_constraint({h["x_hi"][j]: 1.0, lam[j]: -1.0}, LE, r)
        b.add_constraint({h["x_lo"][j]: 1.0, lam[j]: 1.0}, GE, r)
    b.set_objective({v: 1.0 for v in lam})
    return {"lam": lam}


def oracle_tracking_model(p: TrackingProblem, step, fix_u=None):
    b = ModelBuilder()
    h = _oracle_input_feasibility(p, step, b)
    h.update(_oracle_nn_structure(p, step, b, h))
    h.update(_oracle_safety(p, step, b, h))
    h.update(_oracle_objective(p, step, b, h))
    if fix_u is not None:
        for j, var in enumerate(h["u_cmd"]):
            b.add_constraint({var: 1.0}, EQ, float(fix_u[j]))
    return b.build(), h


# ---------------------------------------------------------------------------
# The comparison.
# ---------------------------------------------------------------------------

def _same_ids(a, b):
    """Whether two h entries name the same variables: id lists, lists of
    them per layer, or (d1, d2) pairs per kept obstacle."""
    if len(a) and isinstance(a[0], (list, tuple, np.ndarray)):
        return len(a) == len(b) and all(map(_same_ids, a, b))
    return np.array_equal(np.asarray(a, dtype=int), np.asarray(b, dtype=int))


def assert_matches_oracle(p, step, fix_u=None, structure=None):
    """The model and h of one step, built on an earlier step's structure if
    given, equal the oracle's; returns h."""
    model, h = build_tracking_model(p, step, fix_u=fix_u,
                                    structure=structure)
    ref, ref_h = oracle_tracking_model(p, step, fix_u=fix_u)
    for part, got, want in zip(("A", "rhs", "c", "lb", "ub"),
                               milp._standard_form(model),
                               milp._standard_form(ref)):
        assert np.array_equal(got, want), part
    assert np.array_equal(model.is_binary, ref.is_binary)
    assert model.names == ref.names
    assert set(h) == set(ref_h) | {"structure"}
    for key in ref_h:
        if key == "obstacles":
            assert list(h[key]) == ref_h[key]
        else:
            assert _same_ids(h[key], ref_h[key]), key
    return h


def _robot():
    return load_scenario(os.path.join(ROOT, "scenarios", "robot_maze.yaml"))[0]


def _steps(s, log):
    return [s.problem.step(rec.y, rec.x_ref) for rec in log.steps]


def _chain(p, steps):
    """Each step's h, each built on the previous step's structure, as an
    episode builds them; checks that a structure with the step's key is
    kept and any other laid out afresh."""
    hs, structure = [], None
    for step in steps:
        h = assert_matches_oracle(p, step, structure=structure)
        assert (h["structure"] is structure) == (
            structure is not None and h["structure"].key == structure.key)
        structure = h["structure"]
        hs.append(h)
    return hs


def test_robot_maze_steps_match_the_oracle():
    s = _robot()
    steps = _steps(s, run_episode(s))
    assert len(steps) > 100
    hs = _chain(s.problem, steps)
    assert any(h["obstacles"] for h in hs)
    kept = sum(a["structure"] is b["structure"] for a, b in zip(hs, hs[1:]))
    assert kept >= 0.85 * len(hs)


def test_corridor_steps_match_the_oracle():
    s, _ = load_scenario(os.path.join(ROOT, "bench", "scenarios",
                                      "vehicle_corridor.yaml"))
    plan = np.loadtxt(os.path.join(ROOT, "bench", "scenarios",
                                   "vehicle_plan.csv"),
                      delimiter=",", skiprows=1, ndmin=2)[:, 1:]
    steps = _steps(s, run_episode(s, waypoints=list(plan)))
    assert len(steps) == 25
    assert any(sum(map(len, h["d_mm"])) for h in _chain(s.problem, steps))


def test_forest_steps_match_the_oracle():
    # The 320-block forest of test_runtime.py: each step keeps a few
    # blocks, and consecutive steps keep different ones.
    X = Hypercube(np.array([-1.0, -10.0]), np.array([21.0, 10.0]))
    U = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
    eps = np.array([0.05, 0.05])
    ends = [0.35 + 1.1 * r for r in range(8)]
    blocks = [Hypercube(np.array([i, y]), np.array([i + 0.9, y + 1.0]))
              for i in range(20) for y in ends + [-1.0 - y for y in ends]]
    s = Scenario(plant=RobotPlant(eps_x=eps),
                 net=build_identity_sum_network(X, U), X=X, U=U,
                 unsafe=UnsafeRegion(blocks), eps_x=eps, eps_y=eps,
                 eps_u=eps, x0=np.array([0.0, 0.0]),
                 xg=np.array([20.5, 0.0]), max_steps=150)
    waypoints = [np.array([x, 0.0]) for x in (2.0, 6.0, 10.0, 14.0, 18.0,
                                               20.5)]
    steps = _steps(s, run_episode(s, waypoints=waypoints))
    kept = [h["obstacles"] for h in _chain(s.problem, steps)]
    changes = sum(a != b for a, b in zip(kept, kept[1:]))
    assert max(map(len, kept)) >= 2 and changes >= 10


def test_kept_obstacles_differ_between_consecutive_steps():
    # Robot maze, next to the wall [2, 3] x [-1, 6.5] and then next to
    # the wall [5.5, 6.5] x [2.5, 10].
    s = _robot()
    hs = _chain(s.problem, [s.problem.step(y, r) for y, r in (
        ((1.7, 1.0), (1.9, 1.5)), ((5.2, 5.0), (5.3, 5.0)))])
    assert [h["obstacles"] for h in hs] == [[0], [1]]


def test_structure_of_other_sets_is_not_kept():
    # The same step with another eps_u, and with a U of the same values
    # but another object: the structure is laid out afresh.
    s = _robot()
    p = s.problem
    step = p.step([1.7, 1.0], [1.9, 1.5])
    structure = build_tracking_model(p, step)[1]["structure"]
    for other in (replace(p, eps_u=p.eps_u * 2.0),
                  replace(p, U=Hypercube(p.U.lo.copy(), p.U.hi.copy()))):
        h = assert_matches_oracle(other, other.step([1.7, 1.0], [1.9, 1.5]),
                                  structure=structure)
        assert h["structure"] is not structure
    assert assert_matches_oracle(p, step, structure=structure)["structure"] \
        is structure


def _random_net(rng, widths):
    return ReluNetwork(tuple(
        LayerParams(rng.normal(size=(n_out, n_in)), rng.normal(size=n_out))
        for n_in, n_out in zip(widths, widths[1:])))


@pytest.mark.parametrize("fixed", [False, True], ids=["free", "fix_u"])
def test_undetermined_neurons_match_the_oracle(fixed):
    # Random nets of one to three hidden layers, most with neurons of
    # every kind: provably active, provably inactive and undetermined.
    # Each net takes two steps, measurements 1e-3 apart, the second built
    # on the first's structure, which it keeps when no neuron changes its
    # case: then only the undetermined neurons' coefficients move.
    X1 = Hypercube(np.array([-20.0]), np.array([20.0]))
    U1 = Hypercube(np.array([-1.0]), np.array([1.0]))
    eps, free = np.array([0.05]), UnsafeRegion(())
    rng = np.random.default_rng(0)
    seen = kept = 0
    for widths in [(2, 3, 1), (2, 2, 2, 1), (2, 4, 1), (2, 5, 4, 3, 1)] * 4:
        net = _random_net(rng, widths)
        y, u = rng.uniform(-1, 1, 1), rng.uniform(-0.9, 0.9, 1)
        structure = None
        p = TrackingProblem(net=net, X=X1, U=U1, unsafe=free, eps_x=eps,
                            eps_y=eps, eps_u=eps)
        for step in (p.step(y, [0.0]), p.step(y + 1e-3, [0.0])):
            if step.reason is not None:
                with pytest.raises(NoSafeBox, match=step.reason):
                    oracle_tracking_model(p, step)
                break
            h = assert_matches_oracle(p, step, fix_u=u if fixed else None,
                                      structure=structure)
            undetermined = any(map(len, h["d_mm"]))
            seen += undetermined and structure is None
            kept += undetermined and h["structure"] is structure
            structure = h["structure"]
    assert seen >= 8 and kept >= 6


def test_fixed_control_matches_the_oracle():
    s = _robot()
    p = s.problem
    step = p.step([1.7, 1.0], [1.9, 1.5])
    model, _ = build_tracking_model(p, step, fix_u=np.array([0.1, -0.2]))
    assert model.rel[-2:].tolist() == [EQ, EQ]
    assert_matches_oracle(p, step, fix_u=np.array([0.1, -0.2]))
