import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milp_safeguard import learner
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
    sampled_error,
    train,
)
from milp_safeguard.nn_model import forward, forward_batch
from milp_safeguard.plants import RobotPlant, VehiclePlant
from milp_safeguard.sets import Hypercube

from helpers import concat, inputs

X2 = Hypercube(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
U2 = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
ROBOT = RobotPlant(eps_x=np.zeros(2))
X3 = Hypercube(np.array([0.0, -1.5, -0.35]), np.array([8.0, 1.5, 0.35]))
U3 = Hypercube(np.array([2.0, -0.45]), np.array([3.8, 0.45]))
VEHICLE = VehiclePlant()
# Every pass over all samples runs in chunks of CHUNK rows; these sizes
# make a whole chunk, a partial one, and the edges between.
CHUNK = learner._CHUNK
CHUNK_SIZES = pytest.mark.parametrize(
    "n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])


def test_dataset_rejects_ragged():
    with pytest.raises(ValueError):
        Dataset(x=np.zeros((3, 2)), u=np.zeros((2, 2)),
                x_next=np.zeros((3, 2)))


def test_sample_dataset_supervision_is_exact():
    data = sample_dataset(ROBOT.step, X2, U2, 50, seed=3)
    assert len(data) == 50
    assert np.allclose(data.x_next, data.x + data.u)
    assert inputs(data).shape == (50, 4)


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
    assert r1.final_mse < train(replace(cfg, epochs=1), data).final_mse
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


@pytest.mark.parametrize("field, value", [
    ("epochs", 2.5), ("epochs", 0), ("batch_size", True), ("batch_size", 0),
    ("decay_every", 1.5), ("seed", -1), ("seed", 1.5), ("seed", False)],
    ids=str)
def test_train_config_rejects_bad_counts(field, value):
    with pytest.raises(ValueError, match=field):
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
    residuals = np.array([data.x_next[i] - forward(net, inputs(data)[i])
                          for i in range(len(data))])
    assert np.allclose(eps, np.max(np.abs(residuals), axis=0))


def test_identity_warm_start_passes_state_through():
    X = Hypercube(np.array([0.0, -1.5, -0.4]), np.array([8.0, 1.5, 0.4]))
    U = Hypercube(np.array([2.0, -0.5]), np.array([4.0, 0.5]))
    net = identity_warm_start(X, U, (8, 4), seed=0, scale=0.0)
    rng = np.random.default_rng(0)
    for z in concat(X, U).sample(rng, 100):
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

    Z, Y = inputs(data), data.x_next
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


CASE_CONFIG = TrainConfig(epochs=25, learning_rate=4e-3, batch_size=64,
                          seed=2, hidden_sizes=(8, 4), lr_decay=0.5,
                          decay_every=10)


def _case(plant, X, U, warm):
    """(data, init) of a TRAIN_CASES case."""
    return (sample_dataset(plant.step, X, U, 1000, seed=4),
            identity_warm_start(X, U, (8, 4), seed=1) if warm else None)


@TRAIN_CASES
def test_train_matches_the_reference_loop(plant, X, U, warm):
    data, init = _case(plant, X, U, warm)
    result = train(CASE_CONFIG, data, init=init)
    Ws, bs, losses = _reference_train(CASE_CONFIG, data, init=init)
    for layer, W, b in zip(result.net.layers, Ws, bs):
        for got, want in ((layer.weights, W), (layer.bias, b)):
            assert np.allclose(got, want, rtol=1e-10,
                               atol=1e-10 * np.max(np.abs(want)))
    assert np.isclose(result.final_mse, losses[-1], rtol=1e-10, atol=0)


def _theta_bytes(net):
    """A net's parameters as train's kernel lays them out: each layer's
    [W | b] block, row-major, one after the other."""
    return b"".join(np.hstack([l.weights, l.bias[:, None]]).tobytes()
                    for l in net.layers)


# SHA-256 of each case's trained parameters, bit for bit.
THETA_SHA256 = {
    "robot": "a5cc7cc01e2763327bf752e9a378b872"
             "2f5048550a990d2c71dfffaf036f29e3",
    "robot-warm": "be900970b997bc3d2e5147a1d08e4a6a"
                  "2c78d545cd062b2adcfd3f1d6182b594",
    "vehicle": "baf03143f16aafd7661e7ade048f6585"
               "a1e04397a724ee1a118358aeb0602408",
    "vehicle-warm": "48c0798d5ecb43137cf82dc7376914d6"
                    "8d9d77c609237b34085bae79aa22765e",
}


@TRAIN_CASES
def test_trained_parameters_are_pinned(request, plant, X, U, warm):
    data, init = _case(plant, X, U, warm)
    net = train(CASE_CONFIG, data, init=init).net
    assert (hashlib.sha256(_theta_bytes(net)).hexdigest()
            == THETA_SHA256[request.node.callspec.id])


# SHA-256 of the vehicle's parameters after 3 epochs at other batch sizes:
# 10 batches of 100 (m / 2 = 50, not a power of two), and 333 batches of 3
# (1.5) with a tail batch of 1 (0.5, a power of two).  CASE_CONFIG's 64 and
# 40 (32 and 20) are pinned above.
WIDTH_SHA256 = {
    (100, False): "45037984a4c20ad19ed94bf087542eef"
                  "ef6083f6b9f2381fbffcc4027fbdec02",
    (100, True): "c1865abfac6e6da8f4aeb8e3cff25724"
                 "83adf69cb0390472fd08671657ae8aa5",
    (3, False): "e9047bd353d3cb4af23baf1171ae3ad5"
                "296bbc7c1ef8d718813cf2d5beeacf53",
    (3, True): "b7d87f1bf60d31ab3f7c38312c8fe93c"
               "e5a101586da90545d79affcb874ffba6",
}


@pytest.mark.parametrize("batch_size, warm", WIDTH_SHA256, ids=str)
def test_trained_parameters_are_pinned_at_other_widths(batch_size, warm):
    data, init = _case(VEHICLE, X3, U3, warm)
    cfg = replace(CASE_CONFIG, epochs=3, batch_size=batch_size)
    net = train(cfg, data, init=init).net
    assert (hashlib.sha256(_theta_bytes(net)).hexdigest()
            == WIDTH_SHA256[batch_size, warm])


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
    gWs, gbs = gradients(Ws, bs, inputs(data)[order], data.x_next[order])
    result = train(cfg, data)
    for layer, W, b, gW, gb in zip(result.net.layers, Ws, bs, gWs, gbs):
        assert np.allclose(layer.weights, W - cfg.learning_rate * gW,
                           rtol=1e-15, atol=0)
        assert np.allclose(layer.bias, b - cfg.learning_rate * gb,
                           rtol=1e-15, atol=0)


# Trains the bench vehicle net for 20 epochs (bench/scenarios/
# vehicle_train.yaml's data, warm start and schedule) and prints its
# parameters in hex and its final MSE, one a line.
_TRAIN_BYTES = """
import numpy as np
from milp_safeguard.learner import (TrainConfig, identity_warm_start,
                                    sample_dataset, train)
from milp_safeguard.plants import VehiclePlant
from milp_safeguard.sets import Hypercube
X = Hypercube([0.0, -1.5, -0.35], [8.0, 1.5, 0.35])
U = Hypercube([2.0, -0.45], [3.8, 0.45])
data = sample_dataset(VehiclePlant(wheelbase=5.0, dt=0.1).step, X, U, 30000)
cfg = TrainConfig(epochs=20, learning_rate=0.002, batch_size=128,
                  lr_decay=0.75, decay_every=24)
result = train(cfg, data, init=identity_warm_start(X, U, (8, 4)))
print(b"".join(np.hstack([l.weights, l.bias[:, None]]).tobytes()
               for l in result.net.layers).hex())
print(repr(result.final_mse))
"""


def test_training_does_not_depend_on_the_blas_thread_count():
    # The parameters agree bit for bit; the final full-data pass's products
    # may split differently over threads, so its MSE may differ in its
    # last bits.
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.path.join(root, "src"))
        done = subprocess.run([sys.executable, "-c", _TRAIN_BYTES], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=300)
        runs.append(done.stdout.split())
    (theta1, mse1), (theta2, mse2) = runs
    assert theta1 == theta2
    assert np.isclose(float(mse1), float(mse2), rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       weight_exps=st.lists(st.floats(-3.0, 100.0), min_size=1, max_size=4),
       dims=st.tuples(st.integers(1, 4), st.integers(1, 3)),
       data_exp=st.floats(-3.0, 3.0), tight=st.booleans())
@example(seed=0, weight_exps=[0.5], dims=(3, 2), data_exp=0.0, tight=True)
@example(seed=0, weight_exps=[-3.0, -3.0], dims=(1, 1), data_exp=0.0,
         tight=True)
@example(seed=0, weight_exps=[0.0, 2.0], dims=(2, 1), data_exp=0.0,
         tight=True)
def test_output_bound_holds_wherever_the_outputs_are_finite(
        seed, weight_exps, dims, data_exp, tight):
    # Layer l's weights and biases are 10**weight_exps[l] times draws from
    # [-1, 1], or that scale itself if tight, where the first layer's sums
    # meet the bound when r is 1.  The examples meet it, need max(b, 1) and
    # need the largest weight of all layers.
    rng = np.random.default_rng(seed)
    (n_in, n_out), r = dims, 10.0 ** data_exp
    sizes = [n_in, *rng.integers(1, 7, len(weight_exps) - 1), n_out]
    draw = (np.ones if tight else lambda shape: rng.uniform(-1, 1, shape))
    Ws, bs = [], []
    for e, fan_in, fan_out in zip(weight_exps, sizes, sizes[1:]):
        Ws.append(10.0 ** e * draw((fan_out, fan_in)))
        bs.append(10.0 ** e * draw(fan_out))
    Z = r * draw((7, n_in))
    kernel = learner._Kernel(Ws, bs)
    with np.errstate(over="ignore", invalid="ignore"):
        out = kernel.forward(np.vstack([Z.T, np.ones(7)]))
    bound = kernel.output_bound(max(1.0, float(np.max(np.abs(Z)))))
    if np.all(np.isfinite(out)):
        assert np.max(np.abs(out)) <= bound * (1 + 1e-12)


def test_train_makes_one_full_data_pass(monkeypatch):
    # SGD steps run the step programs, one built per batch width; a
    # full-data pass forwards the kernel.  Count the two apart.
    program, forward = learner._Kernel.program, learner._Kernel.forward
    built, steps, passes = [], [], []

    def counted_program(kernel, m):
        built.append(m)
        step, c = program(kernel, m)

        def counted(A, Yt):
            steps.append(A.shape[1])
            step(A, Yt)
        return counted, c

    def counted_forward(kernel, A):
        passes.append(A.shape[1])
        return forward(kernel, A)
    monkeypatch.setattr(learner._Kernel, "program", counted_program)
    monkeypatch.setattr(learner._Kernel, "forward", counted_forward)
    data = sample_dataset(ROBOT.step, X2, U2, 500, seed=0)
    cfg = TrainConfig(epochs=30, learning_rate=5e-3, batch_size=32, seed=0)
    train(cfg, data)
    assert built == [32, 20]
    assert steps == ([32] * 15 + [20]) * 30
    assert passes == [len(data)]
    # Above one chunk, the one pass after the 2 x 10 SGD batches forwards
    # the data a chunk at a time, every sample once.
    built.clear(), steps.clear(), passes.clear()
    data = sample_dataset(ROBOT.step, X2, U2, 2 * CHUNK + 904, seed=0)
    train(replace(cfg, epochs=2, batch_size=1000), data)
    assert built == [1000, 96]
    assert steps == ([1000] * 9 + [96]) * 2
    assert passes == [CHUNK, CHUNK, 904]


def test_a_step_keeps_no_memory():
    # 1,000 steps at batch 128 on the 5-8-4-3 net keep nothing they
    # allocate.  Their traced peak is the 4 KB iteration buffer np.subtract
    # takes for targets read transposed; one (8, 128) temporary is 8 KB.
    Ws, bs = init_params(5, (8, 4), 3, seed=0)
    step, _ = learner._Kernel(Ws, bs).program(128)
    rng = np.random.default_rng(0)
    A = np.hstack([rng.uniform(-1, 1, (128, 5)), np.ones((128, 1))]).T
    Yt = rng.uniform(-1, 1, (128, 3)).T
    step(A, Yt)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(1000):
            step(A, Yt)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert end - start < 1024 and peak - start < 5 * 1024


@CHUNK_SIZES
def test_sample_dataset_steps_its_chunks_as_one_call_would(n):
    data = sample_dataset(VEHICLE.step, X3, U3, n, seed=5)
    rng = np.random.default_rng(5)
    xs, us = X3.sample(rng, n), U3.sample(rng, n)
    assert data.x.tobytes() == xs.tobytes()
    assert data.u.tobytes() == us.tobytes()
    assert data.x_next.tobytes() == VEHICLE.step(xs, us).tobytes()


@CHUNK_SIZES
def test_quantify_error_is_the_one_pass_maximum(n):
    data = sample_dataset(VEHICLE.step, X3, U3, n, seed=6)
    net = identity_warm_start(X3, U3, (8, 4), seed=1)
    want = np.max(np.abs(data.x_next - forward_batch(net, inputs(data))),
                  axis=0)
    assert quantify_error(net, data).tobytes() == want.tobytes()


def test_final_mse_over_chunks_is_the_one_pass_mse():
    data = sample_dataset(VEHICLE.step, X3, U3, 2 * CHUNK + 300, seed=7)
    cfg = TrainConfig(epochs=2, learning_rate=2e-3, batch_size=128, seed=0)
    result = train(cfg, data, init=identity_warm_start(X3, U3, (8, 4)))
    res = forward_batch(result.net, inputs(data)) - data.x_next
    want = float(np.mean(np.sum(res ** 2, axis=1)))
    assert np.isclose(result.final_mse, want, rtol=1e-12, atol=0)


def test_quantify_error_takes_the_same_memory_for_more_samples():
    # quantify_error's traced peak on 8 n samples may exceed the one on n
    # samples by less than one chunk of the data's rows [x, u, x_next].
    net = identity_warm_start(X3, U3, (8, 4), seed=1)
    peaks = []
    for n in (2 * CHUNK, 16 * CHUNK):
        data = sample_dataset(VEHICLE.step, X3, U3, n, seed=0)
        tracemalloc.start()
        try:
            quantify_error(net, data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < CHUNK * (3 + 2 + 3) * 8


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 60_000])
def test_sampled_error_is_the_error_on_the_one_shot_samples(n):
    # The draws a chunk at a time are the one-shot draws, bit for bit.
    net = identity_warm_start(X3, U3, (8, 4), seed=1)
    data = sample_dataset(VEHICLE.step, X3, U3, n, seed=3)
    rows = sample_dataset(VEHICLE.step, X3, U3, n, seed=3, start=n // 3,
                          stop=n // 3 + 5)
    for got, want in ((rows.x, data.x), (rows.u, data.u),
                      (rows.x_next, data.x_next)):
        assert got.tobytes() == want[n // 3:n // 3 + 5].tobytes()
    assert (sampled_error(VEHICLE.step, net, X3, U3, n, seed=3).tobytes()
            == quantify_error(net, data).tobytes())


def test_sampled_error_takes_the_same_memory_for_more_samples():
    # Its traced peak on 8 n samples may exceed the one on n samples by
    # less than a tenth of a chunk of the data's rows [x, u, x_next].
    net = identity_warm_start(X3, U3, (8, 4), seed=1)
    peaks = []
    for n in (2 * CHUNK, 16 * CHUNK):
        tracemalloc.start()
        try:
            sampled_error(VEHICLE.step, net, X3, U3, n, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < CHUNK * (3 + 2 + 3) * 8 // 10
