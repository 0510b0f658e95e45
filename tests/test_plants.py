import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from milp_safeguard.plants import (
    RobotPlant,
    VehiclePlant,
    measure,
    robot_step,
    sample_noise,
    vehicle_step,
)

finite = st.floats(-10, 10, allow_nan=False)


def test_robot_step():
    x = np.array([1.0, 2.0])
    u = np.array([0.1, -0.2])
    assert np.allclose(robot_step(x, u), [1.1, 1.8])
    assert np.allclose(robot_step(x, u, np.array([0.05, 0.05])), [1.15, 1.85])


def test_robot_plant_wraps_step():
    assert np.allclose(RobotPlant().step(np.zeros(2), np.ones(2)), [1, 1])


def test_robot_step_shape_check():
    with pytest.raises(ValueError):
        robot_step(np.zeros(3), np.zeros(2))


def test_vehicle_step_straight_line():
    plant = VehiclePlant(wheelbase=5.0, dt=0.1)
    x = np.array([0.0, 0.0, 0.0])
    u = np.array([3.0, 0.0])
    nxt = vehicle_step(x, u, plant)
    assert np.allclose(nxt, [0.3, 0.0, 0.0])


def test_vehicle_step_turning():
    plant = VehiclePlant(wheelbase=5.0, dt=0.1)
    x = np.array([1.0, -0.5, 0.2])
    v, steer = 2.5, 0.3
    nxt = vehicle_step(x, np.array([v, steer]), plant)
    ds = v * plant.dt
    assert np.isclose(nxt[0], 1.0 + ds * np.cos(0.2) * np.cos(0.3))
    assert np.isclose(nxt[1], -0.5 + ds * np.sin(0.2) * np.cos(0.3))
    assert np.isclose(nxt[2], 0.2 + ds / 5.0 * np.sin(0.3))


def test_vehicle_theta_not_wrapped():
    plant = VehiclePlant(wheelbase=1.0, dt=1.0)
    x = np.array([0.0, 0.0, 3.0])
    nxt = vehicle_step(x, np.array([5.0, 1.0]), plant)
    assert nxt[2] > 3.0  # keeps accumulating, no modular reduction


def test_vehicle_plant_validation():
    with pytest.raises(ValueError):
        VehiclePlant(wheelbase=0.0)
    with pytest.raises(ValueError):
        VehiclePlant(dt=-0.1)


@given(arrays(float, 3, elements=st.floats(0, 2)), st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_sample_noise_within_bounds(eps, seed):
    rng = np.random.default_rng(seed)
    w = sample_noise(eps, rng)
    assert np.all(np.abs(w) <= eps)


@given(arrays(float, 2, elements=finite), st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_measure_within_eps_of_state(x, seed):
    eps = np.array([0.05, 0.1])
    y = measure(x, eps, np.random.default_rng(seed))
    assert np.all(np.abs(y - x) <= eps)


def test_noise_is_seeded_deterministic():
    a = sample_noise(np.array([0.5, 0.5]), np.random.default_rng(7))
    b = sample_noise(np.array([0.5, 0.5]), np.random.default_rng(7))
    assert np.array_equal(a, b)
