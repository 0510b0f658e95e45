import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from milp_safeguard.plants import (
    RobotPlant,
    VehiclePlant,
    measure,
    sample_noise,
)

finite = st.floats(-10, 10, allow_nan=False)


class _UpperRng:
    """Draws the upper end of every uniform range."""

    def uniform(self, lo, hi):
        return hi


def test_robot_step():
    plant = RobotPlant(eps_x=np.array([0.05, 0.05]))
    x = np.array([1.0, 2.0])
    u = np.array([0.1, -0.2])
    assert np.allclose(plant.step(x, u), [1.1, 1.8])
    # With an rng, the plant adds its own disturbance w, |w| <= eps_x.
    assert np.allclose(plant.step(x, u, _UpperRng()), [1.15, 1.85])


@pytest.mark.parametrize("eps, message", [
    (np.array([0.05]), "must have shape (2,), got (1,)"),
    (0.05, "must have shape (2,), got (1,)"),
    (np.full((2, 1), 0.05), "must have shape (2,), got (2, 1)"),
    (np.array([0.05, np.inf]), "must be finite"),
    (np.array([0.05, np.nan]), "must be finite"),
    (np.array([0.05, -0.01]), "must be nonnegative")],
    ids=["one-element", "scalar", "column", "inf", "nan", "negative"])
def test_robot_plant_checks_its_eps_x_at_construction(eps, message):
    # A one-element or scalar bound would draw one disturbance for both
    # axes, and a negative one would fail only at the first noisy step.
    with pytest.raises(ValueError, match=re.escape("eps_x " + message)):
        RobotPlant(eps_x=eps)


def test_robot_step_shape_check():
    with pytest.raises(ValueError):
        RobotPlant(eps_x=np.zeros(2)).step(np.zeros(3), np.zeros(2))


PLANTS = pytest.mark.parametrize(
    "plant", [RobotPlant(eps_x=np.array([0.05, 0.05])), VehiclePlant()],
    ids=["robot", "vehicle"])


@PLANTS
def test_stacked_step_equals_the_rows_stepped_one_at_a_time(plant):
    rng = np.random.default_rng(0)
    xs = rng.uniform(-3.0, 3.0, size=(2000, plant.state_dim))
    us = rng.uniform(-4.0, 4.0, size=(2000, plant.control_dim))
    rows = np.array([plant.step(x, u) for x, u in zip(xs, us)])
    assert np.array_equal(plant.step(xs, us), rows)


@PLANTS
def test_stacked_step_checks_its_shapes_and_takes_no_noise(plant):
    xs = np.zeros((4, plant.state_dim))
    us = np.zeros((4, plant.control_dim))
    for x, u in ((xs, us[:3]), (xs, us[0]), (xs[0], us),
                 (xs[None], us)):
        with pytest.raises(ValueError):
            plant.step(x, u)
    with pytest.raises(ValueError, match="without noise"):
        plant.step(xs, us, np.random.default_rng(0))


def test_vehicle_step_straight_line():
    plant = VehiclePlant(wheelbase=5.0, dt=0.1)
    x = np.array([0.0, 0.0, 0.0])
    u = np.array([3.0, 0.0])
    nxt = plant.step(x, u)
    assert np.allclose(nxt, [0.3, 0.0, 0.0])


def test_vehicle_step_turning():
    plant = VehiclePlant(wheelbase=5.0, dt=0.1)
    x = np.array([1.0, -0.5, 0.2])
    v, steer = 2.5, 0.3
    nxt = plant.step(x, np.array([v, steer]))
    ds = v * plant.dt
    assert np.isclose(nxt[0], 1.0 + ds * np.cos(0.2) * np.cos(0.3))
    assert np.isclose(nxt[1], -0.5 + ds * np.sin(0.2) * np.cos(0.3))
    assert np.isclose(nxt[2], 0.2 + ds / 5.0 * np.sin(0.3))
    # The vehicle is undisturbed: with an rng it draws nothing from it.
    rng = np.random.default_rng(5)
    assert np.array_equal(plant.step(x, np.array([v, steer]), rng), nxt)
    assert rng.random() == np.random.default_rng(5).random()


def test_vehicle_theta_not_wrapped():
    plant = VehiclePlant(wheelbase=1.0, dt=1.0)
    x = np.array([0.0, 0.0, 3.0])
    nxt = plant.step(x, np.array([5.0, 1.0]))
    assert nxt[2] > 3.0  # keeps accumulating, no modular reduction


def test_admissible_state_guards():
    assert RobotPlant(eps_x=np.zeros(2)).admissible(np.array([1e6, -1e6]))
    plant = VehiclePlant()
    assert plant.admissible(np.array([0.0, 0.0, np.pi - 0.1]))
    assert plant.admissible(np.array([0.0, 0.0, -np.pi + 0.1]))
    assert not plant.admissible(np.array([0.0, 0.0, np.pi - 0.09]))
    assert not plant.admissible(np.array([0.0, 0.0, -np.pi + 0.09]))


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
