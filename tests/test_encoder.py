import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milp_safeguard import encoder, milp
from milp_safeguard.cli import load_scenario
from milp_safeguard.encoder import (
    INFEASIBLE,
    TrackingProblem,
    _check_decision,
    build_tracking_model,
    solve_tracking,
)
from milp_safeguard.milp import EQ, GE, LE
from milp_safeguard.nn_model import (
    LayerParams,
    ReluNetwork,
    build_identity_sum_network,
    forward,
    output_bounds,
)
from milp_safeguard.oracle import enumerate_binary_feasibility
from milp_safeguard.plants import measure
from milp_safeguard.runtime import plan_waypoints
from milp_safeguard.sets import Hypercube, UnsafeRegion

from helpers import concat, decide, inflate, intersect

X = Hypercube(np.array([-1.0, -1.0]), np.array([10.0, 10.0]))
U = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
EPS = np.array([0.05, 0.05])
NET = build_identity_sum_network(X, U)
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def problem(unsafe=(), eps_x=EPS, eps_y=EPS, eps_u=EPS):
    return TrackingProblem(net=NET, X=X, U=U,
                           unsafe=UnsafeRegion(tuple(unsafe)),
                           eps_x=eps_x, eps_y=eps_y, eps_u=eps_u)


def model_of(p, y, x_ref, **kwargs):
    """build_tracking_model of the step that measures y and tracks x_ref."""
    return build_tracking_model(p, p.step(y, x_ref), **kwargs)


@pytest.mark.parametrize("eps_u", [0.0, 0.05, 0.25, 0.4, 0.5, 0.7])
def test_clip_rows_take_each_branch_s_tight_big_m(eps_u):
    # U is 0.5 wide.  Of the two rows a clip binary relaxes (those that
    # bound its end from the clipped side, a0_u from above and b0_u from
    # below, without the other end), the one relaxed on the unclipped
    # branch ({end, binary}) takes max(width - eps_u, 0), the one relaxed
    # on the clipped branch ({end, u_cmd, binary}) takes eps_u.  A big-M
    # of 0 leaves the binary out of its row.
    model, h = model_of(problem(eps_u=np.full(2, eps_u)), [5, 5], [5, 5])
    A = model.A
    for j, u in enumerate(h["u_cmd"]):
        a0, b0 = h["a0"][2 + j], h["b0"][2 + j]
        for end, other, d, rel in ((a0, b0, h["delta_a"][j], LE),
                                   (b0, a0, h["delta_b"][j], GE)):
            rows = np.flatnonzero((A[:, end] == 1.0) & (A[:, other] == 0.0)
                                  & (model.rel == rel))
            big_m = {bool(A[r, u]): abs(A[r, d]) for r in rows}
            assert len(rows) == 2
            assert big_m == {False: max(0.5 - eps_u, 0.0), True: eps_u}


@settings(max_examples=60, deadline=None)
@given(width=st.tuples(st.floats(0.01, 2.0), st.floats(0.01, 2.0)),
       share=st.tuples(*[st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0, 1.7])
                         | st.floats(0.0, 2.0)] * 2),
       at=st.tuples(*[st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)] * 2))
@example(width=(1.0, 1.0), share=(0.0, 1e-09), at=(0.0, 0.0))
@example(width=(0.5, 0.5), share=(1e-08, 0.0), at=(0.0, 0.5))
@example(width=(1.1454417987454426, 1.0), share=(1e-09, 0.0), at=(1.0, 0.0))
@example(width=(1.5, 1.0), share=(0.0625, 0.0), at=(1e-09, 0.0))
@example(width=(1.4775133688529496, 0.13045462300809435),
         share=(4.821322776924e-08, 2.4486723330943135e-08),
         at=(0.7429309261481368, 0.0))
@example(width=(1.359416536093702, 1.9560506440124805),
         share=(2.513517126059407e-09, 4.704862214734662e-10),
         at=(0.9999999992238088, 0.0))
def test_fixed_control_gets_the_clipped_interval(width, share, at):
    # eps_u from 0 past width/2 to beyond the width of U: with u_cmd fixed,
    # the MILP's actuated interval is U's clip of [u - eps_u, u + eps_u].
    # A clip binary that the LP leaves near 0 or 1 but more than 1e-12
    # off it is branched on, so the ends are the clip's.  Each pinned
    # example fails a solver that lacks one of its safeguards:
    # - in the first a row's only pivot element is the clip's big-M
    #   eps_u = 1e-9, the simplex's tolerance;
    # - in the second and third, pivots on a big-M of 5e-9 (1.1e-9) leave
    #   the basic values 5e-9 (6e-8) off those the basis gives, and a child
    #   (the root's children) read as infeasible;
    # - in the fourth the child that fixes a clip binary leaves it basic
    #   1e-9 off its value, within a primal tolerance of 1e-9, and the
    #   incumbent's rounding moves the clip end 1.4e-9;
    # - in the fifth a pivot on a big-M of 3.2e-9 carries its binary
    #   across its range and leaves a basis whose proof of infeasibility
    #   is roundoff, unless the binary flips to its other bound instead;
    # - in the sixth a row 9.2e-10 off, which only a binary with a big-M
    #   of 9.2e-10 moves, is left open unless the binary flips.
    _check_clipped_interval(width, share, at)


def test_a_tiny_eps_u_share_meets_its_clip_end():
    # After 3 branch-and-bound nodes the first control's lower end sat
    # 1.22e-9 above U's clip of u - eps_u: pivots on a big-M of 1.6e-7 had
    # left the basic values that far off those the basis gives.
    _check_clipped_interval((1.3125, 1.0), (1.192092896e-07, 0.0),
                            (1.192092896e-07, 0.0))


def test_seeded_draws_of_fixed_controls_get_the_clipped_interval():
    # 400 seeded draws weighted to tiny eps_u shares (big-Ms near the
    # simplex's tolerance) and to u_cmd near an end of U, where the random
    # draws above find failures only now and then: the solver of an
    # earlier version failed 20 of them.
    rng = np.random.default_rng(0)

    def share():
        return (rng.choice([0.0, 0.3, 0.5, 0.8, 1.0, 1.7]),
                rng.uniform(0.0, 2.0), 10 ** rng.uniform(-10, -5),
                10 ** rng.uniform(-10, -5))[rng.integers(4)]

    def at():
        tiny = 10 ** rng.uniform(-10, -5)
        return (rng.choice([0.0, 1.0]), rng.uniform(0.0, 1.0), tiny,
                1.0 - tiny)[rng.integers(4)]

    for _ in range(400):
        width = tuple(rng.uniform(0.01, 2.0, 2))
        _check_clipped_interval(width, (share(), share()), (at(), at()))


def _check_clipped_interval(width, share, at):
    """With u_cmd fixed on a U of the given widths, the MILP's input box
    ends are U's clip of [u - eps_u, u + eps_u], within 1e-9."""
    w, eps_u = np.array(width), np.array(share) * np.array(width)
    Uw = Hypercube(-w / 2, w / 2)
    u = Uw.lo + np.array(at) * w
    p = TrackingProblem(net=build_identity_sum_network(X, Uw), X=X, U=Uw,
                        unsafe=UnsafeRegion(()), eps_x=EPS, eps_y=EPS,
                        eps_u=eps_u)
    model, h = model_of(p, [5.0, 5.0], [5.2, 4.9], fix_u=u)
    sol = milp.solve(model)
    assert sol.status == milp.OPTIMAL
    for ends, clip in ((h["a0"], np.maximum(Uw.lo, u - eps_u)),
                       (h["b0"], np.minimum(Uw.hi, u + eps_u))):
        assert np.all(np.abs(sol.values[ends[2:]] - clip) <= 1e-9)


def test_fixed_control_near_the_lower_end_of_u_passes_the_audit():
    # 320 probes on the identity-sum robot: U 1.5 to 2 wide, u_cmd fixed
    # less than 3e-6 times that width above U.lo, and eps_u a random share
    # of the width.  The LP leaves a clip binary 1e-10 to 1e-6 off 0 or 1
    # in most of them, which moves the clip ends by up to big-M times
    # that; unless such a binary is branched on, 53 of the probes fail
    # the audit.
    rng = np.random.default_rng(0)
    for _ in range(320):
        w = rng.uniform(1.5, 2.0, 2)
        Uw = Hypercube(-w / 2, w / 2)
        p = TrackingProblem(net=build_identity_sum_network(X, Uw), X=X,
                            U=Uw, unsafe=UnsafeRegion(()), eps_x=EPS,
                            eps_y=EPS, eps_u=rng.uniform(0.05, 0.95, 2) * w)
        decide(p, [5.0, 5.0], [5.2, 4.9],
               fix_u=Uw.lo + rng.uniform(0.0, 3e-6, 2) * w)


def test_reference_validation():
    # A reference is checked where it enters (point); step checks shapes.
    with pytest.raises(ValueError, match="x_ref outside the state"):
        problem().point([20, 20])
    block = Hypercube(np.array([4.0, 4.0]), np.array([6.0, 6.0]))
    with pytest.raises(ValueError, match="x_ref inside an obstacle"):
        problem(unsafe=[block]).point([5, 5])


def problem_on_x10():
    """The problem on X = [0, 10]^2, whose lower end y - eps_y can pass."""
    X10 = Hypercube(np.zeros(2), np.full(2, 10.0))
    return TrackingProblem(net=build_identity_sum_network(X10, U), X=X10,
                           U=U, unsafe=UnsafeRegion(()), eps_x=EPS,
                           eps_y=EPS, eps_u=EPS)


def test_measurement_box_clamps_to_state_set():
    step = problem_on_x10().step([0.02, 5.0], [5.0, 5.0])
    assert np.allclose(step.x_lo, [0.0, 4.95])
    assert np.allclose(step.x_hi, [0.07, 5.05])


def inconsistent(step):
    """Whether a step's presolve found no state in X consistent with y."""
    return step.bounds is None and step.reason.startswith("measurement")


def test_measurement_box_outside_state_set_has_no_safe_box():
    # [y - eps_y, y + eps_y] = [-1.05, -0.95] misses X = [0, 10] in x1.
    assert inconsistent(problem_on_x10().step([-1.0, 5.0], [5.0, 5.0]))


def test_inconsistent_measurement_has_no_safe_box():
    # y - eps_y beyond X's end, by 1.95 and by 1e-9.
    for y in ([-2.0, 5.0], [5.0, 10.05 + 1e-9]):
        assert inconsistent(problem().step(y, [5.0, 5.0]))
    assert problem().step([5.0, 10.05 - 1e-9], [5.0, 5.0]).reason is None


def test_obstacles_of_another_dimension_rejected():
    # A 1-D obstacle would broadcast silently against the 2-D safe box.
    line = Hypercube(np.array([4.0]), np.array([6.0]))
    with pytest.raises(ValueError, match="obstacles are 1-D, but X is 2-D"):
        problem(unsafe=[line])
    # No obstacles at all fit any X.
    assert len(problem(unsafe=[]).unsafe) == 0


def test_step_checks_the_shapes_of_its_arrays():
    with pytest.raises(ValueError, match="y must have shape"):
        problem().step([5.0, 5.0, 5.0], [5.0, 5.0])
    with pytest.raises(ValueError, match="x_ref must have shape"):
        problem().step([5.0, 5.0], [5.0])


def test_unconstrained_step_tracks_reference():
    """With x_ref well inside reach, the commanded u is the displacement."""
    d = decide(problem(), [5, 5], [5.1, 4.9])
    assert np.allclose(d.u_cmd, [0.1, -0.1], atol=1e-6)
    # Safe box center sits on the reference.
    assert np.allclose((d.box_lo + d.box_hi) / 2, [5.1, 4.9], atol=1e-6)


def test_far_reference_saturates_control():
    d = decide(problem(), [5, 5], [9.0, 9.0])
    assert np.allclose(d.u_cmd, [0.25, 0.25], atol=1e-6)


def test_box_geometry_identity_net():
    """For the exact-sum net the boxes follow in closed form."""
    p, y = problem(), np.array([5.0, 5.0])
    d = decide(p, y, [5.2, 5.2])
    mbox = intersect(Hypercube(y - p.eps_y, y + p.eps_y), p.X)
    u_box = intersect(Hypercube(d.u_cmd - p.eps_u, d.u_cmd + p.eps_u), p.U)
    z_box = concat(mbox, u_box)
    assert np.allclose(d.z_lo, z_box.lo, atol=1e-6)
    assert np.allclose(d.z_hi, z_box.hi, atol=1e-6)
    assert np.allclose(d.box_lo, mbox.lo + u_box.lo - p.eps_x, atol=1e-6)
    assert np.allclose(d.box_hi, mbox.hi + u_box.hi + p.eps_x, atol=1e-6)


def test_fixed_control_box_matches_output_bounds():
    p, y = problem(), np.array([3.0, 7.0])
    u_fix = np.array([0.1, -0.05])
    d = decide(p, y, [3.1, 7.1], fix_u=u_fix)
    x_box = intersect(Hypercube(y - p.eps_y, y + p.eps_y), p.X)
    u_box = intersect(Hypercube(u_fix - p.eps_u, u_fix + p.eps_u), p.U)
    z_box = concat(x_box, u_box)
    out = Hypercube(*output_bounds(p.net, z_box.lo, z_box.hi))
    assert np.allclose(d.box_lo + p.eps_x, out.lo, atol=1e-6)
    assert np.allclose(d.box_hi - p.eps_x, out.hi, atol=1e-6)


def test_obstacle_forces_detour():
    """A wall between the state and the reference shifts the optimum."""
    block = Hypercube(np.array([5.1, 4.0]), np.array([5.6, 6.0]))
    d = decide(problem(unsafe=[block]), [5, 5], [5.4, 6.5])
    # Safe box must not overlap the obstacle interior.
    assert (d.box_hi[0] <= 5.1 + 1e-6 or d.box_lo[0] >= 5.6 - 1e-6
            or d.box_hi[1] <= 4.0 + 1e-6 or d.box_lo[1] >= 6.0 - 1e-6)


def test_surrounded_state_is_infeasible():
    """Obstacles sealing the whole reachable set leave no feasible box."""
    sealed = Hypercube(np.array([4.2, 4.2]), np.array([5.8, 5.8]))
    p = TrackingProblem(net=NET, X=X, U=U,
                        unsafe=UnsafeRegion((sealed,)),
                        eps_x=EPS, eps_y=EPS, eps_u=EPS)
    assert solve_tracking(p, [5.0, 5.0], [9.0, 9.0]).status == INFEASIBLE


def test_cost_is_worst_case_l1_distance():
    x_ref = np.array([5.2, 5.2])
    d = decide(problem(), [5, 5], x_ref)
    expected = np.sum(np.maximum(np.abs(d.box_lo - x_ref),
                                 np.abs(d.box_hi - x_ref)))
    assert abs(d.cost - expected) < 1e-6


def test_safe_box_contains_all_model_outcomes():
    """Monte-Carlo audit of the robustness guarantee for one step."""
    p = problem()
    d = decide(p, [5, 5], [5.2, 4.8])
    safe = Hypercube(d.box_lo, d.box_hi)
    rng = np.random.default_rng(0)
    step = p.step([5, 5], [5.2, 4.8])
    for _ in range(500):
        x = rng.uniform(step.x_lo, step.x_hi)
        w_u = rng.uniform(-p.eps_u, p.eps_u)
        u_act = np.clip(d.u_cmd + w_u, p.U.lo, p.U.hi)
        w_x = rng.uniform(-p.eps_x, p.eps_x)
        nxt = forward(p.net, np.concatenate([x, u_act])) + w_x
        assert safe.contains(nxt, tol=1e-9)


def test_model_shape_row_and_binary_counts_deterministic():
    p = problem()
    m1, h1 = model_of(p, [5, 5], [5.2, 5.2])
    m2, h2 = model_of(p, [5, 5], [5.2, 5.2])
    assert m1.num_vars == m2.num_vars
    assert len(m1.constraints) == len(m2.constraints)
    assert [v for v in h1["u_cmd"]] == [v for v in h2["u_cmd"]]


def test_audit_rederives_the_nn_box():
    # A commanded control moved by 1e-5 stays in U, and the decision's
    # boxes still agree with X and the obstacles; only the interval image
    # of the input box, re-derived from the control, tells it from the
    # MILP's.
    p = problem()
    step = p.step([5, 5], [5.2, 4.8])
    d = decide(p, [5, 5], [5.2, 4.8])
    assert _check_decision(p, step, d) is None
    assert "interval image" in _check_decision(
        p, step, replace(d, u_cmd=d.u_cmd + 1e-5))


@pytest.mark.parametrize("lo_shift,hi_shift", [(1e-5, 1e-5), (-1e-5, 1e-5)],
                         ids=["moved", "widened"])
def test_audit_checks_the_safe_box_against_the_interval_image(lo_shift,
                                                              hi_shift):
    # A safe box moved by 1e-5 is not the interval image inflated by
    # eps_x.  Nor is one widened by 1e-5 on each side, although it holds
    # the image: the audit checks the MILP's box, not a containment.
    p = problem()
    d = decide(p, [5, 5], [5.2, 4.8])
    moved = replace(d, box_lo=d.box_lo + lo_shift, box_hi=d.box_hi + hi_shift)
    assert _check_decision(p, p.step([5, 5], [5.2, 4.8]), moved) == (
        "safe box is not the eps_x inflation of the interval image")


def random_net(rng, widths):
    layers = [LayerParams(rng.normal(size=(n_out, n_in)), rng.normal(size=n_out))
              for n_in, n_out in zip(widths, widths[1:])]
    return ReluNetwork(tuple(layers))


def test_encoder_case_rows_admit_only_the_sign_case():
    """With every continuous variable at the optimum of a fixed control,
    the rows that encode_nn_structure writes leave one binary assignment:
    each undetermined neuron takes the case of its (ahat, bhat) signs."""
    X1 = Hypercube(np.array([-20.0]), np.array([20.0]))
    U1 = Hypercube(np.array([-1.0]), np.array([1.0]))
    eps = np.array([0.05])
    rng = np.random.default_rng(0)
    seen, nets = set(), 0
    for widths in [(2, 3, 1), (2, 2, 2, 1), (2, 4, 1)] * 4:
        net = random_net(rng, widths)
        y, u = rng.uniform(-1, 1, 1), rng.uniform(-0.9, 0.9, 1)
        p = TrackingProblem(net=net, X=X1, U=U1, unsafe=UnsafeRegion(()),
                            eps_x=eps, eps_y=eps, eps_u=eps)
        step = p.step(y, [0.0])
        model, h = build_tracking_model(p, step, fix_u=u)
        if not any(map(len, h["d_mm"])):
            continue
        nets += 1
        sol = milp.solve(model)
        assert sol.status == milp.OPTIMAL
        fixed = {j: sol.values[j] for j in range(model.num_vars)
                 if not model.is_binary[j]}
        (assign,) = enumerate_binary_feasibility(model, fixed)
        value = dict(zip(np.flatnonzero(model.is_binary).tolist(), assign))
        for i, (zlo, zhi) in enumerate(step.bounds[:-1]):
            undetermined = np.flatnonzero((zlo < 0) & (zhi > 0))
            for k, j in enumerate(undetermined):
                lo = sol.values[h["ahat"][i][j]]
                hi = sol.values[h["bhat"][i][j]]
                case = (0, 0, 1) if lo >= 0 else (1, 0, 0) if hi <= 0 \
                    else (0, 1, 0)
                assert tuple(value[h[key][i][k]] for key in
                             ("d_mm", "d_mp", "d_pp")) == case
                seen.add(case)
    assert nets >= 8 and seen == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def assert_states_each_fact_once(model, net, h):
    # No row restates a variable's bound, and the only equality rows are
    # each neuron's two image rows and each undetermined neuron's case row:
    # no row copies one variable into another, as the safe box's copy of
    # the output box once did.
    assert all(len(c.idx) > 1 for c in model.constraints)
    undetermined = sum(len(d) for d in h["d_mm"])
    assert sum(c.rel == EQ for c in model.constraints) == (
        2 * sum(layer.out_dim for layer in net.layers) + undetermined)


def test_robot_model_is_compact():
    # Every hidden neuron of the identity-sum net is active, so its
    # post-activation ends are its pre-activation variables: no copies, no
    # a = ahat rows, and no lo <= hi row for any layer image.  The safe box
    # is the output layer's image widened by eps_x.  Neither wall is within
    # the first step's reach, so the only binaries are the four control
    # clips.
    s, _ = load_scenario(os.path.join(ROOT, "scenarios", "robot_maze.yaml"))
    y = measure(s.x0, s.eps_y, np.random.default_rng(s.seed))
    model, h = model_of(s.problem, y, plan_waypoints(s)[0])
    assert model_size(model) == (28, 30, 4)
    assert h["obstacles"] == [] and h["delta_u"] == []
    assert np.array_equal(h["a"][0], h["ahat"][0])
    assert np.array_equal(h["b"][0], h["bhat"][0])
    assert_states_each_fact_once(model, s.net, h)


def test_corridor_model_is_compact():
    # The committed corridor net's first step on the committed plan: one
    # neuron of undetermined sign (three case binaries besides the four
    # control clips), and the wall is out of reach.
    s, _ = load_scenario(os.path.join(ROOT, "bench", "scenarios",
                                      "vehicle_corridor.yaml"))
    with open(os.path.join(ROOT, "bench", "scenarios", "vehicle_plan.csv")) as f:
        first = np.array([float(v) for v in f.readlines()[1].split(",")[1:]])
    y = measure(s.x0, s.eps_y, np.random.default_rng(s.seed))
    model, h = model_of(s.problem, y, first)
    assert model_size(model) == (58, 58, 7)
    assert h["obstacles"] == [] and sum(len(d) for d in h["d_mm"]) == 1
    assert_states_each_fact_once(model, s.net, h)


def model_size(model):
    return (model.num_vars, len(model.constraints),
            int(model.is_binary.sum()))


def test_obstacle_out_of_reach_leaves_the_model_as_without_it():
    # From y = [5, 5] the reach hull is [4.65, 5.35]^2; the block lies past
    # it.
    far = Hypercube(np.array([6.0, 4.0]), np.array([7.0, 6.0]))
    bare, walled = problem(), problem(unsafe=[far])
    step = ([5, 5], [5.6, 5.1])
    model, h = model_of(walled, *step)
    assert model_size(model) == model_size(model_of(bare, *step)[0])
    assert h["obstacles"] == [] and h["delta_u"] == []
    assert abs(decide(walled, *step).cost - decide(bare, *step).cost) <= 1e-9


@pytest.mark.parametrize("overlap,kept", [(0.0, False), (1e-6, True)],
                         ids=["touching", "overlapping"])
def test_obstacle_kept_only_when_it_overlaps_the_reach_hull(overlap, kept):
    # The hull is the output bounds [4.7, 5.3]^2 inflated by eps_x; a block
    # from its upper x face on meets it only at that face.
    hull = inflate(Hypercube(*problem().step([5, 5], [5.1, 5.0]).bounds[-1]),
                   EPS)
    assert np.allclose(hull.hi, 5.35)
    block = Hypercube(np.array([hull.hi[0] - overlap, 4.0]),
                      np.array([6.0, 6.0]))
    model, h = model_of(problem(unsafe=[block]), [5, 5], [5.1, 5.0])
    bare, _ = model_of(problem(), [5, 5], [5.1, 5.0])
    assert h["obstacles"] == ([0] if kept else [])
    assert model_size(model)[2] - model_size(bare)[2] == (4 if kept else 0)


# No noise, no error and no control in the second coordinate: the robot
# moves along y = const, and every box of a step is flat there.
U_FLAT = Hypercube(np.array([-0.25, 0.0]), np.array([0.25, 0.0]))
EPS_FLAT = np.array([0.05, 0.0])
NET_FLAT = build_identity_sum_network(X, U_FLAT)


def flat_problem(unsafe=()):
    return TrackingProblem(net=NET_FLAT, X=X, U=U_FLAT,
                           unsafe=UnsafeRegion(tuple(unsafe)),
                           eps_x=EPS_FLAT, eps_y=EPS_FLAT, eps_u=EPS_FLAT)


def test_flat_hull_keeps_the_obstacle_it_crosses():
    # The hull [4.65, 5.35] x {5} lies inside the block's open y range, so
    # only x can separate a box from the block: the block keeps its
    # binaries, and the box stays left of it instead of crossing it.
    block = Hypercube(np.array([5.1, 4.0]), np.array([5.6, 6.0]))
    p = flat_problem(unsafe=[block])
    assert model_of(p, [5, 5], [5.8, 5.0])[1]["obstacles"] == [0]
    d = decide(p, [5, 5], [5.8, 5.0])
    assert d.box_lo[1] == d.box_hi[1] == 5.0
    assert d.box_hi[0] <= 5.1 + 1e-6


@pytest.mark.parametrize("make", [problem, flat_problem], ids=["box", "flat"])
def test_audit_checks_obstacles_the_presolve_dropped(monkeypatch, make):
    # The safe box shifted into a block beyond the reach hull agrees with
    # X.  Were the interval image fooled into agreeing too, the audit of
    # every obstacle, dropped ones included, would still reject it, also a
    # safe box that is flat in y.
    far = Hypercube(np.array([6.0, 4.0]), np.array([7.0, 6.0]))
    p = make(unsafe=[far])
    step = p.step([5, 5], [5.2, 4.8])
    d = decide(p, [5, 5], [5.2, 4.8])
    assert build_tracking_model(p, step)[1]["obstacles"] == []

    moved = replace(d, box_lo=d.box_lo + [1.2, 0.0],
                    box_hi=d.box_hi + [1.2, 0.0])
    assert "interval image" in _check_decision(p, step, moved)
    monkeypatch.setattr(encoder, "output_bounds", lambda net, lo, hi: (
        moved.box_lo + p.eps_x, moved.box_hi - p.eps_x))
    assert _check_decision(make(), step, moved) is None
    assert _check_decision(p, step, moved) == "safe box overlaps an obstacle"


@pytest.mark.parametrize("out", [50.0, 9.99], ids=["beyond-X", "widened-out"])
def test_reach_hull_outside_X_is_infeasible(out):
    # The net's output is the constant (out, 5).  At 50 its reach hull lies
    # beyond X; at 9.99 it lies in X, but widened by eps_x its upper end
    # passes X.hi = 10.  Either way no safe box fits X: the step is
    # infeasible, not a malformed model.
    net = ReluNetwork((LayerParams(np.zeros((2, 4)), np.zeros(2)),
                       LayerParams(np.zeros((2, 2)), np.array([out, 5.0]))))
    p = TrackingProblem(net=net, X=X, U=U, unsafe=UnsafeRegion(()),
                        eps_x=EPS, eps_y=EPS, eps_u=EPS)
    out = solve_tracking(p, [5.0, 5.0], [5.0, 5.0])
    assert out == (INFEASIBLE, None, None,
                   "no safe box of this step fits in X")



def fixed_faces(model):
    return {model.names[i] for i in np.flatnonzero(
        model.is_binary & (model.lb == model.ub))}


def test_kept_obstacle_without_a_reachable_face_halts_before_the_solve(
        monkeypatch):
    # The reach hull [4.7, 5.3]^2 widened by eps_x overlaps the block, and
    # every safe box covers [4.75, 5.25]^2, which pokes into the block on
    # every side: no face of the block is left to separate a box from it.
    block = Hypercube(np.array([4.72, 4.72]), np.array([5.28, 5.28]))
    p = problem(unsafe=[block])

    def solve(*args, **kwargs):
        raise AssertionError("milp.solve called")
    monkeypatch.setattr(milp, "solve", solve)
    assert solve_tracking(p, [5, 5], [9, 9]) == (
        INFEASIBLE, None, None, "every safe box of this step meets an obstacle")
    with pytest.raises(ValueError, match="no tracking model: every safe box"):
        build_tracking_model(p, p.step([5, 5], [9, 9]))


def test_unreachable_faces_are_fixed_by_bounds_and_keep_the_root_warm():
    # Robot maze, next to the wall [2, 3] x [-1, 6.5].  At y = (1.7, 1.0)
    # only its left face (x_hi <= 2) is within reach; near its top end the
    # top face (x_lo >= 6.5) is too.  The fixes are bounds, so the two
    # models share their matrix and the second root starts warm.
    s, _ = load_scenario(os.path.join(ROOT, "scenarios", "robot_maze.yaml"))
    (m1, h1), (m2, h2) = (model_of(s.problem, y, r) for y, r in (
        ((1.7, 1.0), (1.9, 1.5)), ((1.8, 6.6), (2.2, 6.8))))
    assert h1["obstacles"] == h2["obstacles"] == [0]
    assert fixed_faces(m1) == {"du1_0_1", "du2_0_0", "du2_0_1"}
    assert fixed_faces(m2) == {"du1_0_1", "du2_0_0"}
    assert np.array_equal(milp._standard_form(m1)[0],
                          milp._standard_form(m2)[0])
    first = milp.solve(m1)
    assert first.status == milp.OPTIMAL and first.stats["lp_calls"] > 1
    assert first.values[m1.names.index("du1_0_0")] == 1.0
    second = milp.solve(m2, warm=first.root_basis)
    assert second.status == milp.OPTIMAL and second.stats["warm_root"]
