"""Fully connected ReLU networks: evaluation, serialization, interval bounds.

A network is a chain of affine layers; every hidden layer is followed by a
ReLU, the final layer is affine.  interval_bounds is the one interval
propagator: it pushes a box, as (lo, hi) arrays, or a stack of boxes, one
per row, through the same chain with sign-dependent bound switching in the
affine layers and max(0, .) on both endpoints at the ReLUs, yielding a sound
over-approximation of the image of each box at every layer.  A stacked row
is the same, bit for bit, as the call on its box alone, so a caller may
gather its boxes into one call without changing a result.  output_bounds
(the output box, for the planner and the oracles) and preactivation_bounds
(every layer over a state box x U, for the MILP encoder, which passes each
step's measurement box) read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from milp_safeguard.sets import Hypercube


@dataclass(frozen=True)
class LayerParams:
    """One affine layer: weights (n_out x n_in), bias (n_out), and the
    transposed positive and negative parts of the weights, which the
    interval bounds read."""

    weights: np.ndarray
    bias: np.ndarray
    pos_t: np.ndarray = field(init=False, repr=False, compare=False)
    neg_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        W = np.atleast_2d(np.asarray(self.weights, dtype=float))
        b = np.atleast_1d(np.asarray(self.bias, dtype=float))
        if W.ndim != 2 or b.ndim != 1:
            raise ValueError("weights must be a matrix and bias a vector")
        if W.shape[0] != b.shape[0]:
            raise ValueError(
                f"weight rows ({W.shape[0]}) != bias length ({b.shape[0]})"
            )
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite layer parameters")
        parts = {"weights": W, "bias": b, "pos_t": np.maximum(W, 0.0).T,
                 "neg_t": np.minimum(W, 0.0).T}
        for name, arr in parts.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class ReluNetwork:
    """Chain of LayerParams; hidden activations ReLU, last layer affine."""

    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, cur in zip(layers, layers[1:]):
            if cur.in_dim != prev.out_dim:
                raise ValueError(
                    f"layer dimension chain broken: {prev.out_dim} -> {cur.in_dim}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim


def forward(net: ReluNetwork, z0) -> np.ndarray:
    """Evaluate the network at z0, or at each row of a (k, input_dim) stack
    z0.  Each row is multiplied as a column of its own, so that it rounds
    as the call on it alone does; forward_batch, one product per layer,
    may round a row otherwise."""
    z = np.asarray(z0, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != net.input_dim:
        raise ValueError(f"input shape {z.shape} != ([k,] {net.input_dim})")
    z = z[..., None]
    for layer in net.layers[:-1]:
        z = np.maximum(0.0, layer.weights @ z + layer.bias[:, None])
    last = net.layers[-1]
    return (last.weights @ z + last.bias[:, None])[..., 0]


def forward_batch(net: ReluNetwork, Z) -> np.ndarray:
    """Evaluate the network at a batch of inputs, shape (n, input_dim)."""
    H = np.asarray(Z, dtype=float)
    if H.ndim != 2 or H.shape[1] != net.input_dim:
        raise ValueError(f"batch shape {H.shape} != (n, {net.input_dim})")
    for layer in net.layers[:-1]:
        H = np.maximum(0.0, H @ layer.weights.T + layer.bias)
    last = net.layers[-1]
    return H @ last.weights.T + last.bias


def affine_piece(net: ReluNetwork, Z, cols):
    """The net's affine map on each row's activation region: the Jacobians
    of the output with respect to the input columns cols, shape
    (n, output_dim, len(cols)), and the output at each row of Z, shape
    (n, output_dim), which fixes the map's offset.

    The net is affine on each region of fixed activation pattern, and its
    Jacobian there is the product of the weights with the rows of the
    inactive neurons zeroed.  Each row's pattern and output are read from
    sums of its own, in an order that does not depend on the other rows of
    Z.
    """
    H = np.asarray(Z, dtype=float)
    if H.ndim != 2 or H.shape[1] != net.input_dim:
        raise ValueError(f"batch shape {H.shape} != (n, {net.input_dim})")
    G = np.eye(net.input_dim)[:, cols]
    G = np.broadcast_to(G, (len(H),) + G.shape)
    for layer in net.layers[:-1]:
        pre = (H[:, None, :] * layer.weights).sum(axis=2) + layer.bias
        G = (layer.weights @ G) * (pre > 0.0)[:, :, None]
        H = np.maximum(0.0, pre)
    last = net.layers[-1]
    return (last.weights @ G,
            (H[:, None, :] * last.weights).sum(axis=2) + last.bias)


def linear_bounds(layer: LayerParams, ends: np.ndarray) -> np.ndarray:
    """Array form of the sign-switch bounds for an affine layer.

    Positive weights take the like endpoint, negative weights the opposite
    one; exact for boxes.  ends stacks a box's lower and upper ends, shape
    (2, n), or those of a stack of boxes, one per row, shape (2, k, n);
    the layer's ends come back in the same form.  Each row is multiplied
    as a (1, n) matrix of its own, which rounds as the one-box call does;
    one (k, n) product may sum in another order.
    """
    rows = ends[..., None, :]
    return (rows @ layer.pos_t + rows[::-1] @ layer.neg_t
            + layer.bias)[..., 0, :]


def interval_bounds(net: ReluNetwork, lo: np.ndarray, hi: np.ndarray) -> list:
    """Bounds of every layer's affine output over the input box [lo, hi].

    Returns one (lo, hi) pair of arrays per layer, in network order: the
    pre-activation bounds of the hidden layers, then the output box.  They
    are sound: every input in the box maps inside every pair.  lo and hi
    of shape (k, n) stack k boxes by rows, and each pair is then (k, n_i),
    row by row, each row equal to the call on its box alone.  Raises
    ValueError on a non-finite bound (a net whose values overflow), which
    the MILP encoder could not take as a coefficient.
    """
    ends = np.array([lo, hi], dtype=float)
    bounds = []
    for layer in net.layers:
        if bounds:  # the ReLU after the previous, hidden, layer
            ends = np.maximum(0.0, ends)
        ends = linear_bounds(layer, ends)
        if not np.isfinite(ends).all():
            raise ValueError(f"non-finite interval bounds in layer {len(bounds)}")
        bounds.append((ends[0], ends[1]))
    return bounds


def output_bounds(net: ReluNetwork, lo: np.ndarray, hi: np.ndarray):
    """Output box of the network over an input box, or over a stack of
    them, arrays in and out (see interval_bounds)."""
    return interval_bounds(net, lo, hi)[-1]


def preactivation_bounds(net: ReluNetwork, x_lo, x_hi, U: Hypercube) -> list:
    """Neuron bounds over the input box [x_lo, x_hi] x U, as interval_bounds
    returns them; [x_lo, x_hi] is any box that contains the state (the
    MILP encoder passes each control step's measurement box)."""
    return interval_bounds(net, np.concatenate((x_lo, U.lo)),
                           np.concatenate((x_hi, U.hi)))


def save_network(net: ReluNetwork, path=None) -> bytes:
    """Serialize to the network file format (JSON, full-precision reals).

    Returns the encoded bytes; also writes them to path when given.
    """
    doc = {
        "layers": [
            {"weights": layer.weights.tolist(), "bias": layer.bias.tolist()}
            for layer in net.layers
        ]
    }
    data = json.dumps(doc, indent=1).encode("utf-8")
    if path is not None:
        with open(path, "wb") as f:
            f.write(data)
    return data


def load_network(source) -> ReluNetwork:
    """Parse the network file format (bytes or a file path).

    Rejects malformed or non-finite nets.
    """
    if isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    else:
        with open(source, "rb") as f:
            data = f.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed network file: {exc}") from exc
    if not isinstance(doc, dict) or "layers" not in doc:
        raise ValueError("network file missing top-level 'layers' key")
    raw_layers = doc["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ValueError("network file needs a non-empty 'layers' array")
    layers = []
    for k, entry in enumerate(raw_layers):
        if not isinstance(entry, dict) or "weights" not in entry or "bias" not in entry:
            raise ValueError(f"layer {k} missing 'weights' or 'bias'")
        layers.append(LayerParams(np.array(entry["weights"], dtype=float),
                                  np.array(entry["bias"], dtype=float)))
    return ReluNetwork(tuple(layers))


def build_identity_sum_network(X: Hypercube, U: Hypercube) -> ReluNetwork:
    """One-hidden-layer net computing x + u exactly on X x U.

    Construction: shift every input up by c so all hidden pre-activations
    are strictly positive over the domain (the ReLUs are then identities),
    and undo the shift in the output bias:

        out = [I I] . ReLU([[I,0],[0,I]] z0 + c 1) - 2c 1.
    """
    if X.dim != 2 or U.dim != 2:
        raise ValueError("identity-sum network is defined for 2-D state/control")
    min_lo = float(min(X.lo.min(), U.lo.min()))
    c = max(50.0, 1.0 - min_lo)
    n = X.dim + U.dim
    hidden = LayerParams(np.eye(n), c * np.ones(n))
    out = LayerParams(np.hstack([np.eye(X.dim), np.eye(X.dim)]),
                      -2.0 * c * np.ones(X.dim))
    return ReluNetwork((hidden, out))
