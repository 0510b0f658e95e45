"""Dataset generation, SGD training of small ReLU nets, error quantification.

Training is plain minibatch SGD on mean-squared error with backpropagation
in numpy; inputs are fed raw (no normalization) so the resulting network
can be consumed directly by the MILP encoder in state/control coordinates.
The prediction-error bound is the componentwise maximum absolute residual
over the dataset.

Layout of the SGD kernel (_Kernel): all parameters sit in one flat vector,
each layer's block [W | b] a (fan_out, fan_in + 1) view into it, and the
gradient in one flat buffer of the same layout.  Activations are held
transposed, as (width + 1, batch) arrays whose last row is ones, so one
product gives a layer's pre-activation with its bias and one d @ actsᵀ
gives [gW | gb], each into a C-contiguous out by np.dot, cheaper per call
than np.matmul at these sizes.  A step runs its batch width's prebuilt
program: 15 numpy calls, and 2 for the update.  Its products are bound
ndarray.dot methods, which skip np.dot's dispatch, its ReLU mask is
np.sign, and where m / 2 is a power of two it leaves the divide by m / 2 to
train's step size; no bit of the trained net changes (tests pin it).  The
input rows [z, 1] and the targets are permuted once per epoch into one
array each; a batch is a row slice of both, read transposed (F-contiguous:
np.dot copies nothing).

A run makes one full-data forward pass, for final_mse.  After each epoch
a bound on the net's outputs over the data, from the largest parameter
magnitude alone, shows the MSE finite; only when it does not is the
full-data MSE computed, which raises TrainingDiverged if non-finite.

Every pass over all samples runs in chunks of _CHUNK rows (sample_dataset
stepping the plant, the full-data MSE, quantify_error, and sampled_error's
draws), so its temporaries are of a fixed size; only the samples, and
train's inputs and targets with their permuted copies, grow with the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from milp_safeguard.nn_model import LayerParams, ReluNetwork, forward_batch
from milp_safeguard.sets import Hypercube

# Rows per chunk in every pass over all samples.
_CHUNK = 4096


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
        for name, least in (("epochs", 1), ("batch_size", 1),
                            ("decay_every", 1), ("seed", 0)):
            v = getattr(self, name)
            if type(v) is not int or v < least:
                raise ValueError(f"{name} must be an integer >= {least}, "
                                 f"got {v!r}")
        if not self.learning_rate >= 0:
            raise ValueError(f"learning rate must be nonnegative, "
                             f"got {self.learning_rate}")
        if not 0 <= self.lr_decay <= 1:
            raise ValueError(f"lr_decay must be in [0, 1], got {self.lr_decay}")


@dataclass(frozen=True)
class TrainResult:
    net: ReluNetwork
    final_mse: float


def sample_dataset(step, X: Hypercube, U: Hypercube, n: int, seed: int = 0,
                   start: int = 0, stop: int | None = None) -> Dataset:
    """Rows start:stop of n uniform samples of X x U with exact plant outputs.

    step: callable (xs, us) -> x_next on (k, ·) stacks, as a plant's step;
    it steps the samples _CHUNK rows at a time.  One generator draws the n
    x's, then the n u's, a 64-bit word a coordinate, skipping other rows'.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    stop = n if stop is None else min(stop, n)
    gx, gu = np.random.PCG64(seed), np.random.PCG64(seed)
    xs = X.sample(np.random.Generator(gx.advance(X.dim * start)), stop - start)
    us = U.sample(np.random.Generator(gu.advance(X.dim * n + U.dim * start)),
                  stop - start)
    x_next = np.empty_like(xs)
    for s in range(0, len(xs), _CHUNK):
        x_next[s:s + _CHUNK] = step(xs[s:s + _CHUNK], us[s:s + _CHUNK])
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


class _Kernel:
    """A net's parameters and gradient as flat vectors, and its SGD steps.

    theta holds every layer's [W | b] block, row-major, one after the
    other; blocks[l] is layer l's block as a view into theta, and grad and
    gblocks are the same for the gradient.
    """

    def __init__(self, Ws, bs):
        shapes = [(len(W), W.shape[1] + 1) for W in Ws]
        ends = np.cumsum([rows * cols for rows, cols in shapes])

        def views(flat):
            return [flat[end - rows * cols:end].reshape(rows, cols)
                    for (rows, cols), end in zip(shapes, ends)]
        self.theta, self.grad = np.empty(ends[-1]), np.empty(ends[-1])
        self.blocks, self.gblocks = views(self.theta), views(self.grad)
        for Wb, W, b in zip(self.blocks, Ws, bs):
            Wb[:, :-1] = W
            Wb[:, -1] = b

    def params(self):
        """Copies of the weight matrices and bias vectors."""
        return ([Wb[:, :-1].copy() for Wb in self.blocks],
                [Wb[:, -1].copy() for Wb in self.blocks])

    def output_bound(self, r):
        """A bound on every |output| of the net on inputs whose entries are
        at most r >= 1 in magnitude, up to the rounding of the products: a
        block's row, cols entries of at most w = max|theta| on an input
        bounded by b and a ones row, sums to at most cols * w * max(b, 1).
        NaN or inf if a parameter is."""
        w = float(np.max(np.abs(self.theta)))
        for Wb in self.blocks:
            r = Wb.shape[1] * w * max(r, 1.0)
        return r

    def forward(self, A):
        """The net's output on the columns of A = [Zᵀ; 1], transposed."""
        for Wb in self.blocks[:-1]:
            a = np.ones((len(Wb) + 1, A.shape[1]))
            np.maximum(np.dot(Wb, A, out=a[:-1]), 0.0, out=a[:-1])
            A = a
        return np.dot(self.blocks[-1], A)

    def program(self, m):
        """(step, c) for batches of m columns: step(A, Yt) puts c times the
        MSE gradient on the columns of A = [Zᵀ; 1] and Yt = Yᵀ into grad
        (ReLU subgradient 0 at 0) in 15 numpy calls, c = m / 2 where that is
        a power of two (an exact scale); otherwise in 16, c = 1."""
        maximum, sign, multiply = np.maximum, np.sign, np.multiply
        subtract, divide, fold = np.subtract, np.divide, m & (m - 1) == 0
        # acts[l], layer l + 1's input with its ones row; hs[l], its first
        # width rows, which the backward pass overwrites with a delta.
        acts = [np.ones((len(Wb) + 1, m)) for Wb in self.blocks[:-1]]
        hs, out = [a[:-1] for a in acts], np.empty((len(self.blocks[-1]), m))
        # ds: the arrays of the layers' output deltas, last layer first.
        ds, wds = [out, *hs[::-1]], [np.empty(a.shape) for a in acts[::-1]]
        fwd = tuple(zip([Wb.dot for Wb in self.blocks], hs, acts))
        last, first, g0 = self.blocks[-1].dot, ds[-1].dot, self.gblocks[0]
        # Layer l, last to second: d.dot, input transposed, gradient block,
        # [W_l | b_l]ᵀ.dot (F-contiguous: no copy), [W_l | b_l]ᵀ d's array,
        # its top width rows, and hs[l - 1].
        back = tuple(zip([d.dot for d in ds], [a.T for a in acts[::-1]],
                         self.gblocks[:0:-1],
                         [Wb.T.dot for Wb in self.blocks[:0:-1]],
                         wds, [wd[:-1] for wd in wds], hs[::-1]))
        zero, half = np.zeros(()), np.array(m / 2)  # 0-d: faster than floats

        def step(A, Yt):
            x = A
            for dot, h, a in fwd:
                dot(x, out=h)
                maximum(h, zero, out=h)
                x = a
            d = subtract(last(x, out=out), Yt, out=out)
            if not fold:
                divide(d, half, out=d)      # rounds as 2 (pred - Y) / m does
            for gdot, xT, g, wdot, wd, top, h in back:
                gdot(xT, out=g)
                sign(h, out=h)      # h >= 0: the float mask, 1.0 where h > 0
                wdot(d, out=wd)
                d = multiply(top, h, out=h)
            first(A.T, out=g0)
        return step, m / 2 if fold else 1.0


def _mse(kernel, A, Yt) -> float:
    """The kernel's MSE on the columns of A = [Zᵀ; 1] against Yt = Yᵀ: the
    mean over the columns of the squared error summed down each one,
    forwarded _CHUNK columns at a time."""
    sse = 0.0
    for s in range(0, A.shape[1], _CHUNK):
        pred = kernel.forward(A[:, s:s + _CHUNK])
        np.subtract(pred, Yt[:, s:s + _CHUNK], out=pred)
        sse += float(np.vdot(pred, pred))
    return sse / A.shape[1]


def gradients(Ws, bs, Z, Y):
    """Analytic MSE gradients (gWs, gbs); ReLU subgradient at 0 taken as 0."""
    kernel = _Kernel(Ws, bs)
    step, c = kernel.program(len(Z))
    step(np.hstack([Z, np.ones((len(Z), 1))]).T, Y.T)
    kernel.grad /= c
    return ([g[:, :-1] for g in kernel.gblocks],
            [g[:, -1] for g in kernel.gblocks])


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
    """Minibatch SGD on MSE; deterministic given the config seed.

    Raises TrainingDiverged at the first epoch whose full-data MSE is not
    finite.  That MSE is computed only after an epoch whose output bound
    (_Kernel.output_bound) does not show it finite; final_mse is the one
    full-data pass made at the end of a run.  Both forward the data in
    chunks of _CHUNK columns.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    # The inputs with a ones column, and the targets, one row per sample.
    Z1 = np.hstack([data.x, data.u, np.ones((len(data), 1))])
    Y = np.asarray(data.x_next, dtype=float)
    (n, k), b = Z1.shape, cfg.batch_size
    if init is not None:
        Ws, bs = params_from_net(init)
    else:
        Ws, bs = init_params(k - 1, cfg.hidden_sizes, Y.shape[1], cfg.seed)
    kernel = _Kernel(Ws, bs)
    theta, grad = kernel.theta, kernel.grad
    # Each epoch refills the permuted copies in place, so every batch is a
    # fixed view of them, run by its width's step program: b, or a tail's.
    Zs, Ys = np.empty_like(Z1), np.empty_like(Y)
    programs = {m: kernel.program(m) for m in (b, n % b) if 0 < m <= n}
    batches = [(*programs[min(b, n - s)], Zs[s:s + b].T, Ys[s:s + b].T)
               for s in range(0, n, b)]
    A, Yt = Z1.T, Y.T
    # r = max(1, max|z_i|), as A holds the ones row, and y = max|y_i|.
    r = float(max(A.max(), -A.min()))
    y = float(max(Yt.max(), -Yt.min()))
    rng = np.random.default_rng(cfg.seed + 1)
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * cfg.lr_decay ** (epoch // cfg.decay_every)
        # A permutation's indices are all in range, so "clip" changes none;
        # it lets take write into Zs and Ys without a buffer.
        order = rng.permutation(n)
        np.take(Z1, order, axis=0, out=Zs, mode="clip")
        np.take(Y, order, axis=0, out=Ys, mode="clip")
        for step, c, Ab, Yb in batches:
            step(Ab, Yb)
            grad *= lr / c
            theta -= grad
        # No residual exceeds e in magnitude, so the sum of the n * n_out
        # squares in the MSE is finite; a NaN or inf parameter fails this.
        e = kernel.output_bound(r) + y
        if not n * len(Yt) * e * e < 1e300 \
                and not np.isfinite(_mse(kernel, A, Yt)):
            raise TrainingDiverged(
                f"non-finite MSE at epoch {epoch} (lr={lr:g}); "
                f"reduce the learning rate"
            )
    return TrainResult(net=net_from_params(*kernel.params()),
                       final_mse=_mse(kernel, A, Yt))


def quantify_error(net: ReluNetwork, data: Dataset) -> np.ndarray:
    """Componentwise maximum absolute residual over the dataset, taken
    _CHUNK samples at a time."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    worst = np.zeros(data.x_next.shape[1])
    for s in range(0, len(data), _CHUNK):
        rows = slice(s, s + _CHUNK)
        res = forward_batch(net, np.hstack([data.x[rows], data.u[rows]]))
        np.subtract(data.x_next[rows], res, out=res)
        np.maximum(worst, np.abs(res, out=res).max(axis=0), out=worst)
    return worst


def sampled_error(step, net, X, U, n: int, seed: int = 0) -> np.ndarray:
    """quantify_error(net, sample_dataset(step, X, U, n, seed)), bit for
    bit, with the samples drawn and evaluated _CHUNK rows at a time."""
    return np.max([quantify_error(net, sample_dataset(step, X, U, n, seed,
                                                      s, s + _CHUNK))
                   for s in range(0, n, _CHUNK)], axis=0)
