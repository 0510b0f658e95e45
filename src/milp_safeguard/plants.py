"""Ground-truth dynamics, noise injection, and measurement generation.

The plants are the "actual" systems the controller never sees directly:
the omnidirectional point-mass robot and the kinematic bicycle vehicle.
All noise channels are componentwise uniform on [-eps, eps]; the bounds,
not the distribution, carry the guarantees.

Every plant has the same sizes and calls: state_dim and control_dim are
the lengths of its state and control; step(x, u, rng=None) is the
noise-free map when rng is None and the true next state, with the plant's
own disturbance drawn from rng, otherwise; admissible(x) tells whether a
state lies in the domain the plant's model covers.  step also takes a
(k, state_dim) stack of states with a (k, control_dim) stack of controls
and steps every row at once, noise-free only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The learned vehicle model uses raw theta, so the heading must stay this
# far off the +/-pi wrap-around seam.
_THETA_MARGIN = 0.1


@dataclass(frozen=True)
class RobotPlant:
    """Omnidirectional point mass: next = x + u + w, |w| <= eps_x."""

    eps_x: np.ndarray
    state_dim = 2
    control_dim = 2

    def __post_init__(self):
        # One bound per axis, checked once, here, in TrackingProblem's words.
        eps = np.array(self.eps_x, dtype=float, ndmin=1)
        if eps.shape != (self.state_dim,):
            raise ValueError(f"eps_x must have shape ({self.state_dim},), "
                             f"got {eps.shape}")
        if not np.all(np.isfinite(eps)):
            raise ValueError("eps_x must be finite")
        if np.any(eps < 0):
            raise ValueError("eps_x must be nonnegative")
        eps.setflags(write=False)
        object.__setattr__(self, "eps_x", eps)

    def step(self, x, u, rng: np.random.Generator | None = None) -> np.ndarray:
        x, u = _state_and_control(self, x, u, rng)
        if rng is None:
            return x + u
        return x + u + sample_noise(self.eps_x, rng)

    def admissible(self, x) -> bool:
        return True


@dataclass(frozen=True)
class VehiclePlant:
    """Kinematic bicycle; state [p_x, p_y, theta], control [speed, steer].

    Undisturbed: step draws nothing from rng.  theta is not wrapped.
    """

    wheelbase: float = 5.0
    dt: float = 0.1
    state_dim = 3
    control_dim = 2

    def __post_init__(self):
        if self.wheelbase <= 0 or self.dt <= 0:
            raise ValueError("wheelbase and dt must be positive")

    def step(self, x, u, rng: np.random.Generator | None = None) -> np.ndarray:
        x, u = _state_and_control(self, x, u, rng)
        px, py, theta = x[..., 0], x[..., 1], x[..., 2]
        v, steer = u[..., 0], u[..., 1]
        ds = v * self.dt
        return np.stack([
            px + ds * np.cos(theta) * np.cos(steer),
            py + ds * np.sin(theta) * np.cos(steer),
            theta + ds / self.wheelbase * np.sin(steer),
        ], axis=-1)

    def admissible(self, x) -> bool:
        return bool(-math.pi + _THETA_MARGIN <= x[2] <= math.pi - _THETA_MARGIN)


def _state_and_control(plant, x, u, rng):
    """x and u as float arrays, one row each or stacks of as many rows,
    checked against the plant's sizes; a stack steps without noise."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if (x.shape[-1:] != (plant.state_dim,)
            or u.shape[-1:] != (plant.control_dim,)
            or x.shape[:-1] != u.shape[:-1]):
        raise ValueError(f"{type(plant).__name__} state is "
                         f"{plant.state_dim}-D, control {plant.control_dim}-D, "
                         f"as many of each; got {x.shape} and {u.shape}")
    if x.ndim > 1 and rng is not None:
        raise ValueError("a stack of states steps without noise only")
    return x, u


def sample_noise(eps: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Componentwise uniform draw in [-eps, eps].  eps is a bound checked
    where it was set (RobotPlant.eps_x, TrackingProblem's eps_y and eps_u),
    so a draw checks nothing."""
    return rng.uniform(-eps, eps)


def measure(x, eps_y, rng: np.random.Generator) -> np.ndarray:
    """Noisy state measurement y = x + w, |w| <= eps_y."""
    return np.asarray(x, dtype=float) + sample_noise(eps_y, rng)
