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
from milp_safeguard.plants import RobotPlant
from milp_safeguard.sets import Hypercube

X2 = Hypercube(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
U2 = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
ROBOT = RobotPlant(eps_x=np.zeros(2))


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
