import numpy as np
import pytest

from milp_safeguard.learner import (
    Dataset,
    TrainConfig,
    TrainingDiverged,
    gradients,
    identity_warm_start,
    init_params,
    net_from_params,
    params_from_net,
    quantify_error,
    sample_dataset,
    train,
)
from milp_safeguard.nn_model import forward
from milp_safeguard.plants import RobotPlant, VehiclePlant
from milp_safeguard.sets import Hypercube

X2 = Hypercube(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
U2 = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
ROBOT = RobotPlant(eps_x=np.zeros(2))
X3 = Hypercube(np.array([0.0, -1.5, -0.35]), np.array([8.0, 1.5, 0.35]))
U3 = Hypercube(np.array([2.0, -0.45]), np.array([3.8, 0.45]))
VEHICLE = VehiclePlant()


def test_dataset_rejects_ragged():
    with pytest.raises(ValueError):
        Dataset(x=np.zeros((3, 2)), u=np.zeros((2, 2)),
                x_next=np.zeros((3, 2)))


def test_sample_dataset_supervision_is_exact():
    data = sample_dataset(ROBOT.step, X2, U2, 50, seed=3)
    assert len(data) == 50
    assert np.allclose(data.x_next, data.x + data.u)
    assert data.inputs.shape == (50, 4)


def test_init_params_shapes_and_determinism():
    Ws1, bs1 = init_params(4, (8, 4), 2, seed=0)
    Ws2, _ = init_params(4, (8, 4), 2, seed=0)
    assert [W.shape for W in Ws1] == [(8, 4), (4, 8), (2, 4)]
    assert all(np.array_equal(a, b) for a, b in zip(Ws1, Ws2))
    assert all(np.all(b == 0) for b in bs1)


def test_gradients_match_central_differences():
    """Backprop vs central finite differences, away from ReLU kinks."""
    rng = np.random.default_rng(0)
    Ws, bs = init_params(3, (5, 4), 2, seed=1)
    Z = rng.uniform(-1, 1, size=(12, 3))
    Y = rng.uniform(-1, 1, size=(12, 2))

    def loss(Ws_, bs_):
        h = Z
        for W, b in zip(Ws_[:-1], bs_[:-1]):
            h = np.maximum(0.0, h @ W.T + b)
        pred = h @ Ws_[-1].T + bs_[-1]
        return float(np.mean(np.sum((pred - Y) ** 2, axis=1)))

    gWs, gbs = gradients(Ws, bs, Z, Y)
    eps = 1e-6
    rel_errs = []
    for layer in range(len(Ws)):
        for arr, grad in ((Ws[layer], gWs[layer]), (bs[layer], gbs[layer])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                up = loss(Ws, bs)
                arr[idx] = orig - eps
                dn = loss(Ws, bs)
                arr[idx] = orig
                fd = (up - dn) / (2 * eps)
                denom = max(abs(fd), abs(grad[idx]), 1e-8)
                rel_errs.append(abs(fd - grad[idx]) / denom)
    assert max(rel_errs) < 1e-4


def test_train_reduces_loss_and_is_deterministic():
    data = sample_dataset(ROBOT.step, X2, U2, 500, seed=0)
    cfg = TrainConfig(epochs=30, learning_rate=5e-3, batch_size=32, seed=0,
                      hidden_sizes=(8, 4))
    r1 = train(cfg, data)
    r2 = train(cfg, data)
    assert r1.epoch_losses[-1] < r1.epoch_losses[0]
    assert r1.final_mse == r2.final_mse
    for a, b in zip(r1.net.layers, r2.net.layers):
        assert np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize("field, value", [
    ("learning_rate", -1e-3), ("learning_rate", float("nan")),
    ("lr_decay", -2.0), ("lr_decay", 1.5), ("lr_decay", float("nan"))],
    ids=str)
def test_train_config_rejects_bad_rates(field, value):
    with pytest.raises(ValueError, match=field.replace("_", ".")):
        TrainConfig(**{field: value})


def test_train_divergence_raises():
    data = sample_dataset(ROBOT.step, X2, U2, 200, seed=0)
    cfg = TrainConfig(epochs=50, learning_rate=50.0, batch_size=16, seed=0,
                      hidden_sizes=(8, 4))
    with pytest.raises(TrainingDiverged):
        train(cfg, data)


def test_params_round_trip():
    Ws, bs = init_params(4, (6,), 2, seed=2)
    net = net_from_params(Ws, bs)
    Ws2, bs2 = params_from_net(net)
    assert all(np.array_equal(a, b) for a, b in zip(Ws, Ws2))
    assert all(np.array_equal(a, b) for a, b in zip(bs, bs2))


def test_quantify_error_is_max_abs_residual():
    data = sample_dataset(ROBOT.step, X2, U2, 100, seed=1)
    Ws, bs = init_params(4, (8,), 2, seed=0)
    net = net_from_params(Ws, bs)
    eps = quantify_error(net, data)
    residuals = np.array([data.x_next[i] - forward(net, data.inputs[i])
                          for i in range(len(data))])
    assert np.allclose(eps, np.max(np.abs(residuals), axis=0))


def test_identity_warm_start_passes_state_through():
    X = Hypercube(np.array([0.0, -1.5, -0.4]), np.array([8.0, 1.5, 0.4]))
    U = Hypercube(np.array([2.0, -0.5]), np.array([4.0, 0.5]))
    net = identity_warm_start(X, U, (8, 4), seed=0, scale=0.0)
    rng = np.random.default_rng(0)
    for z in X.concat(U).sample(rng, 100):
        assert np.allclose(forward(net, z), z[:3], atol=1e-9)


def test_identity_warm_start_width_check():
    X = Hypercube(np.zeros(3), np.ones(3))
    U = Hypercube(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        identity_warm_start(X, U, (2, 4))


def test_learned_robot_dynamics_are_accurate():
    """The representable point-mass map trains to sub-1e-3 max error."""
    data = sample_dataset(ROBOT.step, X2, U2, 8000, seed=0)
    cfg = TrainConfig(epochs=1500, learning_rate=1e-2, batch_size=128, seed=0,
                      hidden_sizes=(8, 4), lr_decay=0.6, decay_every=100)
    init = identity_warm_start(X2, U2, (8, 4), seed=1, scale=0.02)
    r = train(cfg, data, init=init)
    eps = quantify_error(r.net, data)
    assert np.all(eps < 1e-3)


def _reference_train(cfg, data, init=None):
    """A reference oracle that shares no code with train's kernel: the
    per-layer minibatch SGD loop, its batches gathered by index from the
    same permutations, with row-major activations and a separate bias."""
    def forward(Ws, bs, Z):
        acts = [Z]
        for W, b in zip(Ws[:-1], bs[:-1]):
            acts.append(np.maximum(0.0, acts[-1] @ W.T + b))
        return acts[-1] @ Ws[-1].T + bs[-1], acts

    Z, Y = data.inputs, data.x_next
    if init is not None:
        Ws, bs = params_from_net(init)
    else:
        Ws, bs = init_params(Z.shape[1], cfg.hidden_sizes, Y.shape[1],
                             cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    losses = []
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * cfg.lr_decay ** (epoch // cfg.decay_every)
        order = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            pred, acts = forward(Ws, bs, Z[idx])
            delta = 2.0 * (pred - Y[idx]) / len(idx)
            for layer in range(len(Ws) - 1, -1, -1):
                gW, gb = delta.T @ acts[layer], delta.sum(axis=0)
                if layer > 0:
                    delta = (delta @ Ws[layer]) * (acts[layer] > 0)
                Ws[layer] -= lr * gW
                bs[layer] -= lr * gb
        loss = float(np.mean(np.sum((forward(Ws, bs, Z)[0] - Y) ** 2, axis=1)))
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"non-finite MSE at epoch {epoch} (lr={lr:g}); "
                f"reduce the learning rate"
            )
        losses.append(loss)
    return Ws, bs, losses


# (plant, X, U, identity warm start); 1,000 samples are 15 batches of 64
# and a tail batch of 40.
TRAIN_CASES = pytest.mark.parametrize("plant, X, U, warm", [
    (ROBOT, X2, U2, False), (ROBOT, X2, U2, True),
    (VEHICLE, X3, U3, False), (VEHICLE, X3, U3, True)],
    ids=["robot", "robot-warm", "vehicle", "vehicle-warm"])


@TRAIN_CASES
def test_train_matches_the_reference_loop(plant, X, U, warm):
    data = sample_dataset(plant.step, X, U, 1000, seed=4)
    cfg = TrainConfig(epochs=25, learning_rate=4e-3, batch_size=64, seed=2,
                      hidden_sizes=(8, 4), lr_decay=0.5, decay_every=10)
    init = identity_warm_start(X, U, (8, 4), seed=1) if warm else None
    result = train(cfg, data, init=init)
    Ws, bs, losses = _reference_train(cfg, data, init=init)
    for layer, W, b in zip(result.net.layers, Ws, bs):
        for got, want in ((layer.weights, W), (layer.bias, b)):
            assert np.allclose(got, want, rtol=1e-10,
                               atol=1e-10 * np.max(np.abs(want)))
    assert np.allclose(result.epoch_losses, losses, rtol=1e-10, atol=0)
    assert result.final_mse == result.epoch_losses[-1]


@TRAIN_CASES
def test_train_diverges_at_the_reference_loops_epoch(plant, X, U, warm):
    data = sample_dataset(plant.step, X, U, 1000, seed=4)
    cfg = TrainConfig(epochs=50, learning_rate=50.0, batch_size=64, seed=2,
                      hidden_sizes=(8, 4))
    init = identity_warm_start(X, U, (8, 4), seed=1) if warm else None
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as got:
            train(cfg, data, init=init)
        with pytest.raises(TrainingDiverged) as want:
            _reference_train(cfg, data, init=init)
    assert str(got.value) == str(want.value)


def test_one_full_batch_epoch_steps_by_the_checked_gradient():
    # With one batch per epoch, the step train takes is -lr times the
    # gradient that gradients() returns (and criterion 7 checks).
    data = sample_dataset(ROBOT.step, X2, U2, 300, seed=2)
    cfg = TrainConfig(epochs=1, learning_rate=0.05, batch_size=300, seed=3,
                      hidden_sizes=(5, 4))
    Ws, bs = init_params(4, (5, 4), 2, seed=3)
    order = np.random.default_rng(cfg.seed + 1).permutation(len(data))
    gWs, gbs = gradients(Ws, bs, data.inputs[order], data.x_next[order])
    result = train(cfg, data)
    for layer, W, b, gW, gb in zip(result.net.layers, Ws, bs, gWs, gbs):
        assert np.allclose(layer.weights, W - cfg.learning_rate * gW,
                           rtol=1e-15, atol=0)
        assert np.allclose(layer.bias, b - cfg.learning_rate * gb,
                           rtol=1e-15, atol=0)
