import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milp_safeguard.nn_model import (
    LayerParams,
    ReluNetwork,
    build_identity_sum_network,
    forward,
    forward_batch,
    interval_bounds,
    linear_bounds,
    load_network,
    output_bounds,
    preactivation_bounds,
    save_network,
)
from milp_safeguard.sets import Hypercube

ROBOT_X = Hypercube(np.array([-1.0, -1.0]), np.array([10.0, 10.0]))
ROBOT_U = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
VEHICLE_NET = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                           "scenarios", "vehicle_net.json")


def small_net():
    return ReluNetwork((
        LayerParams(np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([0.0, -1.0])),
        LayerParams(np.array([[1.0, 1.0]]), np.array([0.5])),
    ))


def test_interval_validation():
    # Finite weights whose products overflow: the bounds would reach the
    # MILP as infinite coefficients.
    net = ReluNetwork((
        LayerParams(np.array([[1e300, 1e300]]), np.array([0.0])),
        LayerParams(np.array([[1.0]]), np.array([0.0])),
    ))
    box = Hypercube(np.array([1e10]), np.array([2e10]))
    with pytest.raises(ValueError):
        preactivation_bounds(net, box, box)


def test_layer_validation():
    with pytest.raises(ValueError):
        LayerParams(np.array([[1.0, 2.0]]), np.array([0.0, 0.0]))


def test_network_dimension_chain():
    with pytest.raises(ValueError):
        ReluNetwork((
            LayerParams(np.eye(2), np.zeros(2)),
            LayerParams(np.eye(3), np.zeros(3)),
        ))


def test_forward_matches_manual():
    net = small_net()
    z = np.array([1.0, 2.0])
    h = np.maximum(0.0, np.array([[1, -1], [0.5, 2]]) @ z + np.array([0, -1]))
    expected = np.array([[1.0, 1.0]]) @ h + 0.5
    assert np.allclose(forward(net, z), expected)


def test_relu_bounds_cases():
    # One hidden neuron with identity weights in and out: the output box is
    # the exact ReLU image of the input interval.
    net = ReluNetwork((LayerParams(np.eye(1), np.zeros(1)),
                       LayerParams(np.eye(1), np.zeros(1))))
    for (lo, hi), image in [((-2.0, -1.0), (0.0, 0.0)),
                            ((-1.0, 2.0), (0.0, 2.0)),
                            ((1.0, 2.0), (1.0, 2.0))]:
        out = output_bounds(net, np.array([lo]), np.array([hi]))
        assert (out[0][0], out[1][0]) == image


def test_linear_bounds_sign_switch():
    W = np.array([[2.0, -3.0]])
    b = np.array([1.0])
    lo, hi = linear_bounds(W, b, np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    # 2x - 3y + 1 over x in [-1,1], y in [0,2].
    assert np.allclose(lo, [2 * -1 - 3 * 2 + 1])
    assert np.allclose(hi, [2 * 1 - 3 * 0 + 1])


@pytest.mark.parametrize("stacked", [False, True], ids=["box", "stack"])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_output_bounds_is_sound(stacked, seed):
    rng = np.random.default_rng(seed)
    sizes = [3, rng.integers(1, 6), rng.integers(1, 6), 2]
    layers = tuple(
        LayerParams(rng.normal(size=(o, i)), rng.normal(size=o))
        for i, o in zip(sizes, sizes[1:])
    )
    net = ReluNetwork(layers)
    if not stacked:
        lo = rng.uniform(-2, 0, 3)
        hi = lo + rng.uniform(0, 2, 3)
        out_box = Hypercube(*output_bounds(net, lo, hi))
        for z in Hypercube(lo, hi).sample(rng, 50):
            assert out_box.contains(forward(net, z), tol=1e-9)
        return
    # k boxes by rows: every layer's bounds come back as (k, n_i) arrays,
    # and each row bounds the outputs of its own box.
    k = int(rng.integers(1, 8))
    lo = rng.uniform(-2, 0, (k, 3))
    hi = lo + rng.uniform(0, 2, (k, 3))
    bounds = interval_bounds(net, lo, hi)
    assert [(b_lo.shape, b_hi.shape) for b_lo, b_hi in bounds] == [
        ((k, n), (k, n)) for n in sizes[1:]]
    out_lo, out_hi = bounds[-1]
    for i in range(k):
        out = forward_batch(net, rng.uniform(lo[i], hi[i], (50, 3)))
        assert np.all(out >= out_lo[i] - 1e-9)
        assert np.all(out <= out_hi[i] + 1e-9)


@pytest.mark.parametrize("name", ["identity_sum", "vehicle"])
def test_stacked_rows_equal_one_box_calls(name):
    # Bit for bit on the identity-sum net; on the vehicle net a row may
    # round differently, within 1e-12 of the layer's largest bound.
    if name == "identity_sum":
        net, rtol = build_identity_sum_network(ROBOT_X, ROBOT_U), 0.0
    else:
        net, rtol = load_network(VEHICLE_NET), 1e-12
    rng = np.random.default_rng(3)
    lo = rng.uniform(-5, 5, (200, net.input_dim))
    hi = lo + rng.uniform(0, 1, lo.shape)
    stacked = interval_bounds(net, lo, hi)
    for i in range(len(lo)):
        for (s_lo, s_hi), (b_lo, b_hi) in zip(
                stacked, interval_bounds(net, lo[i], hi[i])):
            scale = max(np.max(np.abs(b_lo)), np.max(np.abs(b_hi)))
            assert np.all(np.abs(s_lo[i] - b_lo) <= rtol * scale)
            assert np.all(np.abs(s_hi[i] - b_hi) <= rtol * scale)


def test_preactivation_bounds_cover_samples():
    rng = np.random.default_rng(0)
    net = ReluNetwork((
        LayerParams(rng.normal(size=(4, 4)), rng.normal(size=4)),
        LayerParams(rng.normal(size=(2, 4)), rng.normal(size=2)),
    ))
    X = Hypercube(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    U = Hypercube(np.array([-0.5, -0.5]), np.array([0.5, 0.5]))
    lb = preactivation_bounds(net, X, U)
    for z in X.concat(U).sample(rng, 100):
        h = z
        for i, layer in enumerate(net.layers[:-1]):
            pre = layer.weights @ h + layer.bias
            plo, phi = lb[i]
            assert np.all(pre >= plo - 1e-9) and np.all(pre <= phi + 1e-9)
            h = np.maximum(0.0, pre)


def test_identity_sum_network_is_exact():
    X = Hypercube(np.array([-1.0, -1.0]), np.array([10.0, 10.0]))
    U = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
    net = build_identity_sum_network(X, U)
    rng = np.random.default_rng(1)
    for z in X.concat(U).sample(rng, 200):
        assert np.allclose(forward(net, z), z[:2] + z[2:], atol=1e-12)


def test_identity_sum_hidden_units_stay_active():
    X = Hypercube(np.array([-1.0, -1.0]), np.array([10.0, 10.0]))
    U = Hypercube(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
    net = build_identity_sum_network(X, U)
    lb = preactivation_bounds(net, X, U)
    plo, _ = lb[0]
    assert np.all(plo > 0)


def test_save_load_round_trip(tmp_path):
    net = small_net()
    path = tmp_path / "net.json"
    save_network(net, path)
    loaded = load_network(path)
    for a, b in zip(net.layers, loaded.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"layers": [{"weights": "nope"}]}')
    with pytest.raises(ValueError):
        load_network(path)
