"""Dataset generation, SGD training of small ReLU nets, error quantification.

Training is plain minibatch SGD on mean-squared error with backpropagation
in numpy; inputs are fed raw (no normalization) so the resulting network
can be consumed directly by the MILP encoder in state/control coordinates.
The prediction-error bound is the componentwise maximum absolute residual
over the dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from milp_safeguard.nn_model import LayerParams, ReluNetwork, forward_batch
from milp_safeguard.sets import Hypercube


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class Dataset:
    """(x_k, u_k, x_{k+1}) triples with exact (noise-free) supervision."""

    x: np.ndarray
    u: np.ndarray
    x_next: np.ndarray

    def __post_init__(self):
        if not (len(self.x) == len(self.u) == len(self.x_next)):
            raise ValueError("ragged dataset")

    def __len__(self) -> int:
        return len(self.x)

    @property
    def inputs(self) -> np.ndarray:
        return np.hstack([self.x, self.u])


def layer_widths(sizes) -> tuple:
    """sizes as a tuple of hidden-layer widths, each a positive int."""
    sizes = tuple(sizes)
    if not all(type(k) is int and k > 0 for k in sizes):
        raise ValueError(f"hidden layer sizes must be positive integers, "
                         f"got {sizes}")
    return sizes


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 1e-2
    batch_size: int = 64
    seed: int = 0
    hidden_sizes: tuple = (8, 4)
    lr_decay: float = 0.5
    decay_every: int = 50

    def __post_init__(self):
        layer_widths(self.hidden_sizes)
        if min(self.epochs, self.batch_size, self.decay_every) <= 0:
            raise ValueError("hyperparameters must be positive")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")


@dataclass(frozen=True)
class TrainResult:
    net: ReluNetwork
    final_mse: float
    epoch_losses: tuple = field(default_factory=tuple)


def sample_dataset(step, X: Hypercube, U: Hypercube, n: int,
                   seed: int = 0) -> Dataset:
    """n uniform samples of X x U with exact plant outputs.

    step: callable (x, u) -> x_next.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    xs = X.sample(rng, n)
    us = U.sample(rng, n)
    x_next = np.array([step(x, u) for x, u in zip(xs, us)])
    return Dataset(x=xs, u=us, x_next=x_next)


def init_params(in_dim: int, hidden_sizes, out_dim: int, seed: int):
    """Glorot-uniform weights, zero biases, seeded."""
    rng = np.random.default_rng(seed)
    dims = [in_dim, *hidden_sizes, out_dim]
    Ws, bs = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        Ws.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        bs.append(np.zeros(fan_out))
    return Ws, bs


def _forward_batch(Ws, bs, Z):
    """Returns (prediction, per-layer post-activations incl. input)."""
    acts = [Z]
    h = Z
    for W, b in zip(Ws[:-1], bs[:-1]):
        h = np.maximum(0.0, h @ W.T + b)
        acts.append(h)
    return h @ Ws[-1].T + bs[-1], acts


def _mse(pred, target) -> float:
    return float(np.mean(np.sum((pred - target) ** 2, axis=1)))


def gradients(Ws, bs, Z, Y):
    """Analytic MSE gradients; ReLU subgradient at 0 taken as 0."""
    pred, acts = _forward_batch(Ws, bs, Z)
    n = Z.shape[0]
    delta = 2.0 * (pred - Y) / n
    gWs = [None] * len(Ws)
    gbs = [None] * len(bs)
    for layer in range(len(Ws) - 1, -1, -1):
        gWs[layer] = delta.T @ acts[layer]
        gbs[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ Ws[layer]) * (acts[layer] > 0)
    return gWs, gbs


def identity_warm_start(X: Hypercube, U: Hypercube, hidden_sizes,
                        seed: int = 0, scale: float = 0.1) -> ReluNetwork:
    """Initial network close to the identity on the state part of the input.

    For near-identity dynamics (small per-step displacement), starting SGD
    near the identity map leaves mostly the displacement residual to
    learn, which a small network fits far more reliably than when it must
    also discover the pass-through.  The identity rides on ReLU units kept
    active by a positive shift; remaining units (and cross-connections
    into the identity path) get small random weights, scale=0 makes the
    state map exact.  Requires every hidden layer to be at least as wide
    as the state.
    """
    nx, nu = X.dim, U.dim
    if len(hidden_sizes) < 1 or min(hidden_sizes) < nx:
        raise ValueError("hidden layers must be at least state-dimension wide")
    rng = np.random.default_rng(seed)
    shift = 1.0 + np.maximum(np.abs(X.lo), np.abs(X.hi))
    dims = [nx + nu, *hidden_sizes, nx]
    Ws, bs = [], []
    for layer, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        W = rng.normal(size=(fan_out, fan_in)) * scale
        b = rng.normal(size=fan_out) * scale
        last = layer == len(dims) - 2
        if layer == 0:
            W[:nx] = 0.0
            W[np.arange(nx), np.arange(nx)] = 1.0
            b[:nx] = shift
        elif last:
            W[:, :nx] = 0.0
            W[np.arange(nx), np.arange(nx)] = 1.0
            b = -shift.astype(float)
        else:
            W[:nx, :nx] = 0.0
            W[np.arange(nx), np.arange(nx)] = 1.0
            b[:nx] = 0.0
        Ws.append(W)
        bs.append(b)
    return net_from_params(Ws, bs)


def net_from_params(Ws, bs) -> ReluNetwork:
    return ReluNetwork(tuple(LayerParams(W, b) for W, b in zip(Ws, bs)))


def params_from_net(net: ReluNetwork):
    return ([l.weights.copy() for l in net.layers],
            [l.bias.copy() for l in net.layers])


def train(cfg: TrainConfig, data: Dataset,
          init: ReluNetwork | None = None) -> TrainResult:
    """Minibatch SGD on MSE; deterministic given the config seed."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    Z = data.inputs
    Y = data.x_next
    if init is not None:
        Ws, bs = params_from_net(init)
    else:
        Ws, bs = init_params(Z.shape[1], cfg.hidden_sizes, Y.shape[1], cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    losses = []
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * cfg.lr_decay ** (epoch // cfg.decay_every)
        order = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            gWs, gbs = gradients(Ws, bs, Z[idx], Y[idx])
            for W, b, gW, gb in zip(Ws, bs, gWs, gbs):
                W -= lr * gW
                b -= lr * gb
        pred, _ = _forward_batch(Ws, bs, Z)
        loss = _mse(pred, Y)
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"non-finite MSE at epoch {epoch} (lr={lr:g}); "
                f"reduce the learning rate"
            )
        losses.append(loss)
    return TrainResult(net=net_from_params(Ws, bs), final_mse=losses[-1],
                       epoch_losses=tuple(losses))


def quantify_error(net: ReluNetwork, data: Dataset) -> np.ndarray:
    """Componentwise maximum absolute residual over the dataset."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    pred = forward_batch(net, data.inputs)
    return np.max(np.abs(data.x_next - pred), axis=0)
