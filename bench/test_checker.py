"""Hand-computed cases for the benchmark's independent checker.

Run with: python3 -m pytest bench/test_checker.py
"""

from types import SimpleNamespace

import numpy as np
import pytest

import checker

# out = relu(z0 - z1 + 1) - 2, one hidden neuron, on z in [0,1] x [0,2].
TINY = [(np.array([[1.0, -1.0]]), np.array([1.0])),
        (np.array([[1.0]]), np.array([-2.0]))]


def test_interval_image_splits_weights_by_sign():
    lo, hi = checker.interval_image(TINY, np.array([0.0, 0.0]),
                                    np.array([1.0, 2.0]))
    # Pre-activation: lo = 0 - 2 + 1 = -1, hi = 1 - 0 + 1 = 2; ReLU -> [0, 2].
    assert lo.tolist() == [-2.0] and hi.tolist() == [0.0]


def test_interval_image_of_a_point_is_the_forward_value():
    z = np.array([0.25, 0.5])
    lo, hi = checker.interval_image(TINY, z, z)
    assert lo == hi == checker.forward(TINY, z)
    assert checker.forward(TINY, z).tolist() == [-1.25]


def test_interval_image_batches_rows():
    lo, hi = checker.interval_image(TINY, np.array([[0.0, 0.0], [3.0, 0.0]]),
                                    np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert lo[:, 0].tolist() == [-2.0, 1.0] and hi[:, 0].tolist() == [0.0, 2.0]


def test_point_mass_step():
    x = checker.point_mass_step([1.0, 2.0], [0.25, -0.5], np.array([0.0, 0.05]))
    assert x.tolist() == [1.25, 1.55]


def test_bicycle_step_straight_and_turning():
    straight = checker.bicycle_step([1.0, 2.0, 0.0], [3.0, 0.0], 5.0, 0.1)
    np.testing.assert_allclose(straight, [1.3, 2.0, 0.0], atol=1e-15)
    x, u = np.array([0.0, 0.0, np.pi / 2]), np.array([2.0, np.pi / 6])
    turn = checker.bicycle_step(x, u, 4.0, 0.5)
    # ds = 1; heading pi/2 moves y by cos(pi/6); theta grows by sin(pi/6)/4.
    np.testing.assert_allclose(turn, [0.0, np.sqrt(3) / 2, np.pi / 2 + 0.125],
                               atol=1e-15)


def test_box_containment():
    assert checker.in_box([1.0, 1.0], np.zeros(2), np.ones(2))
    assert not checker.in_box([1.0, 1.01], np.zeros(2), np.ones(2))
    assert checker.box_in_box(np.array([0.2, 0.0]), np.array([1.0, 0.5]),
                              np.zeros(2), np.ones(2))
    assert not checker.box_in_box(np.array([-0.1, 0.0]), np.array([1.0, 0.5]),
                                  np.zeros(2), np.ones(2))


def test_open_interior_disjointness():
    o_lo, o_hi = np.array([1.0, 1.0]), np.array([2.0, 2.0])
    # Touching the obstacle's face is allowed; any overlap is not.
    assert checker.misses_interior(np.array([0.0, 0.0]), np.array([1.0, 3.0]),
                                   o_lo, o_hi)
    assert checker.misses_interior(np.array([2.0, 0.0]), np.array([3.0, 3.0]),
                                   o_lo, o_hi)
    assert not checker.misses_interior(np.array([0.0, 0.0]),
                                       np.array([1.001, 3.0]), o_lo, o_hi)
    # Overlapping in one coordinate only is still disjoint.
    assert checker.misses_interior(np.array([1.5, 3.0]), np.array([1.6, 4.0]),
                                   o_lo, o_hi)


def test_worst_l1_cost():
    cost = checker.worst_l1(np.array([0.0, 1.0]), np.array([2.0, 1.5]),
                            np.array([0.5, 2.0]))
    # max(0.5, 1.5) + max(1.0, 0.5)
    assert cost == 2.5


# Point mass with the exact x + u net: hidden = relu(z + 10), out = h_x + h_u - 20.
EXACT = [(np.eye(4), np.full(4, 10.0)),
         (np.hstack([np.eye(2), np.eye(2)]), np.full(2, -20.0))]
SETTING = checker.Setting(EXACT, x_lo=[0.0, 0.0], x_hi=[10.0, 10.0],
                          u_lo=[-1.0, -1.0], u_hi=[1.0, 1.0],
                          eps_x=[0.1, 0.1], eps_y=[0.1, 0.1], eps_u=[0.1, 0.1],
                          obstacles=[([4.0, 0.0], [5.0, 3.0])])


def _record():
    y, u = np.array([2.0, 2.0]), np.array([0.5, 0.0])
    # State box [1.9, 2.1]^2, control box [0.4, 0.6] x [-0.1, 0.1]:
    # image [2.3, 2.7] x [1.8, 2.2], inflated by 0.1.
    lo, hi = np.array([2.2, 1.7]), np.array([2.8, 2.3])
    ref = np.array([3.0, 2.0])
    return SimpleNamespace(y=y, x_ref=ref, u_cmd=u, box_lo=lo, box_hi=hi,
                           cost=0.8 + 0.3, x_next=np.array([2.5, 2.05]))


def test_true_step_passes():
    assert checker.check_step(SETTING, _record()) == []


def test_rejects_safe_box_shifted_by_1e_3():
    rec = _record()
    rec.box_lo = rec.box_lo + 1e-3
    rec.box_hi = rec.box_hi + 1e-3
    assert any("interval image" in m for m in checker.check_step(SETTING, rec))


def test_rejects_x_next_outside_the_box():
    rec = _record()
    rec.x_next = np.array([2.81, 2.0])
    assert checker.check_step(SETTING, rec) == ["x_next outside the safe box"]


def test_rejects_wrong_cost():
    rec = _record()
    rec.cost += 1e-4
    assert any("worst l1" in m for m in checker.check_step(SETTING, rec))


def test_grid_finds_a_cheaper_control():
    rec = _record()
    grid = checker.control_grid(SETTING, 21)
    # u = (1, 0) moves the box centre to the reference: cost 0.3 + 0.3.
    assert checker.check_optimal(SETTING, rec, grid)
    rec.cost = 0.6
    assert checker.check_optimal(SETTING, rec, grid) == []


def test_grid_ignores_controls_that_meet_an_obstacle():
    rec = _record()
    rec.y, rec.x_ref = np.array([3.0, 1.0]), np.array([4.5, 1.0])
    # Every control box moving right of x = 3.9 would enter the obstacle.
    lo, hi = SETTING.safe_box(rec.y, checker.control_grid(SETTING, 21))
    ok = SETTING.certified(lo, hi)
    assert ok.any() and not ok.all()
    assert np.all(hi[ok, 0] <= 4.0 + checker.MEMBER_TOL)


def test_plan_checks():
    x0 = np.array([2.0, 5.0])
    good = [np.array([3.0, 5.5]), np.array([3.5, 5.0]), np.array([4.6, 5.1])]
    u_lo, u_hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    eps = np.array([0.1, 0.1])
    assert checker.check_plan(SETTING, x0, good, u_lo, u_hi, eps) == []
    far = [np.array([3.2, 5.0]), np.array([4.2, 5.0])]
    assert checker.check_plan(SETTING, x0, far, u_lo, u_hi, eps) == [
        "waypoint 0 outside its predecessor's reachable box"]
    missed_goal = good[:2] + [np.array([4.7, 5.0])]
    assert checker.check_plan(SETTING, x0, missed_goal, u_lo, u_hi, eps) == [
        "goal outside the last node's inflated reachable box"]
    blocked = [np.array([4.5, 2.5]), np.array([4.6, 3.3])]
    assert checker.check_plan(SETTING, np.array([4.0, 3.2]), blocked, u_lo,
                              u_hi, eps) == ["waypoint 0 inside an obstacle"]


def test_model_error():
    inputs = np.array([[1.0, 1.0, 0.5, 0.0], [2.0, 3.0, 0.0, -1.0]])
    targets = np.array([[1.5, 1.0], [2.0, 2.5]])
    worst, mse = checker.model_error(EXACT, inputs, targets)
    assert worst.tolist() == [0.0, 0.5]
    assert mse == pytest.approx(0.125)
