"""Robust tracking control of ReLU-network dynamics via MILP.

The package tracks reference states for unknown dynamics through a learned
fully connected ReLU network, synthesizing controls by solving a
mixed-integer linear program that is robust to bounded measurement noise,
actuator disturbance and model prediction error, and that keeps the next
state outside box obstacles.
"""

from milp_safeguard.sets import Hypercube, UnsafeRegion
from milp_safeguard.nn_model import LayerParams, ReluNetwork

__all__ = [
    "Hypercube",
    "UnsafeRegion",
    "LayerParams",
    "ReluNetwork",
]
