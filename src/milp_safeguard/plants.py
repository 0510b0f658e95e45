"""Ground-truth dynamics, noise injection, and measurement generation.

The plants are the "actual" systems the controller never sees directly:
the omnidirectional point-mass robot and the kinematic bicycle vehicle.
All noise channels are componentwise uniform on [-eps, eps]; the bounds,
not the distribution, carry the guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RobotPlant:
    """Omnidirectional point mass: next = x + u (+ disturbance)."""

    def step(self, x, u, w=None) -> np.ndarray:
        return robot_step(x, u, w)


@dataclass(frozen=True)
class VehiclePlant:
    """Kinematic bicycle; state [p_x, p_y, theta], control [speed, steer]."""

    wheelbase: float = 5.0
    dt: float = 0.1

    def __post_init__(self):
        if self.wheelbase <= 0 or self.dt <= 0:
            raise ValueError("wheelbase and dt must be positive")

    def step(self, x, u) -> np.ndarray:
        return vehicle_step(x, u, self)


def robot_step(x, u, w=None) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (2,) or u.shape != (2,):
        raise ValueError("robot state and control are 2-D")
    if w is None:
        return x + u
    return x + u + np.asarray(w, dtype=float)


def vehicle_step(x, u, plant: VehiclePlant) -> np.ndarray:
    """One bicycle-kinematics step; theta is not wrapped afterwards."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (3,) or u.shape != (2,):
        raise ValueError("vehicle state is 3-D, control 2-D")
    px, py, theta = x
    v, steer = u
    ds = v * plant.dt
    return np.array([
        px + ds * np.cos(theta) * np.cos(steer),
        py + ds * np.sin(theta) * np.cos(steer),
        theta + ds / plant.wheelbase * np.sin(steer),
    ])


def sample_noise(eps, rng: np.random.Generator) -> np.ndarray:
    """Componentwise uniform draw in [-eps, eps]."""
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    if np.any(eps < 0):
        raise ValueError("noise bound must be nonnegative")
    return rng.uniform(-eps, eps)


def measure(x, eps_y, rng: np.random.Generator) -> np.ndarray:
    """Noisy state measurement y = x + w, |w| <= eps_y."""
    return np.asarray(x, dtype=float) + sample_noise(eps_y, rng)
