from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import central_diff, reference_adam, reference_adam_init
from tandem.errors import NumericError, ShapeError
from tandem.nn import (
    BINARY_PROBABILITY,
    IDENTITY,
    RELU,
    REGRESSION_SCALAR,
    SIGMOID,
    AdamState,
    Layer,
    MlpModel,
    adam_init,
    adam_step,
    flatten_params,
    forward_batch,
    init_mlp,
    load_mlp,
    mlp_backward,
    mlp_from_dict,
    mlp_to_dict,
    param_count,
    sigmoid,
    unflatten_params,
)
from tandem.nn import _backward_cached, _forward_cached, _param_views
from tandem.seeding import rng_for


def identity_net():
    return MlpModel(
        (Layer(np.array([[1.0, 1.0]]), np.array([0.0]), IDENTITY),),
        REGRESSION_SCALAR,
    )


def test_forward_identity_sum():
    assert forward_batch(identity_net(), np.array([[2.0, 3.0]]))[0] == 5.0


def test_forward_sigmoid_of_zero_is_half():
    model = MlpModel(
        (Layer(np.array([[0.0, 0.0]]), np.array([0.0]), SIGMOID),),
        BINARY_PROBABILITY,
    )
    X = np.array([[1.0, -4.0], [0.0, 0.0], [100.0, 3.0]])
    assert np.all(forward_batch(model, X) == 0.5)


def test_forward_two_layer_relu_matches_hand_arithmetic():
    w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
    b1 = np.array([0.1, -0.2])
    w2 = np.array([[2.0, -3.0]])
    b2 = np.array([0.25])
    model = MlpModel(
        (Layer(w1, b1, RELU), Layer(w2, b2, IDENTITY)),
        REGRESSION_SCALAR,
    )
    x = np.array([0.4, -0.7])
    h1 = max(0.0, 1.0 * 0.4 + (-1.0) * (-0.7) + 0.1)
    h2 = max(0.0, 0.5 * 0.4 + 2.0 * (-0.7) + (-0.2))
    expected = 2.0 * h1 + (-3.0) * h2 + 0.25
    assert forward_batch(model, x[None, :])[0] == pytest.approx(expected, abs=1e-12)


def test_forward_batch_rows_match_single_forward():
    model = init_mlp(3, (4,), BINARY_PROBABILITY, rng_for(0, "init-theta"))
    X = rng_for(0, "x").standard_normal((5, 3))
    outs = forward_batch(model, X)
    assert outs.shape == (5,)
    for i in range(5):
        assert outs[i] == pytest.approx(forward_batch(model, X[i:i + 1])[0], abs=1e-15)


def test_forward_rejects_wrong_width():
    with pytest.raises(ShapeError):
        forward_batch(identity_net(), np.zeros((2, 3)))


def test_sigmoid_is_stable_at_extremes():
    z = np.array([-1000.0, 0.0, 1000.0])
    out = sigmoid(z)
    assert np.all(np.isfinite(out))
    assert out[1] == 0.5
    assert 0.0 <= out[0] < 1e-12
    assert 1.0 - 1e-12 < out[2] <= 1.0


def masked_sigmoid(z):
    """Sigmoid split by sign through boolean-mask indexing, one branch per
    half: the oracle for the dense ``sigmoid``."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_of_integers_is_float():
    out = sigmoid(np.array([0, 3, -2]))
    assert out.dtype == np.float64
    assert np.array_equal(out, masked_sigmoid(np.array([0.0, 3.0, -2.0])))


# Signed zeros, infinities, NaN, subnormals and |z| past exp's 745 cut-off.
SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308,
                 -1e-310, 745.2, -745.2, 709.8, -709.8, 1000.0, -1000.0, 1e308, -1e308]


@settings(max_examples=300)
@given(arrays(np.float64, st.integers(0, 40),
              elements=st.one_of(st.floats(), st.sampled_from(SIGMOID_EDGES))))
def test_dense_sigmoid_equals_masked_form_bit_for_bit(z):
    got, want = sigmoid(z), masked_sigmoid(z)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    # Equal int64 views: equal bits, so signs of zero match too.
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def peak_bytes(fn, *args):
    """Peak of the memory tracemalloc sees, numpy's array data included,
    during one call of ``fn`` after a warm-up call."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_holds_its_hidden_activations_and_one_ufunc_buffer_at_most():
    """A one-run forward over a 1,400-row train split: each ReLU layer
    writes into its matmul output, so at its peak only the two hidden
    activations and the buffers of numpy's broadcast bias add (8,192
    float64, ``np.getbufsize()``) are live, with 2 KB for the ufunc's
    iterator and the caches."""
    model = init_mlp(10, (32, 32), BINARY_PROBABILITY, rng_for(0, "init-theta"))
    params = _param_views(model, flatten_params(model)[None])
    X = rng_for(0, "x").standard_normal((1400, 10))
    activations = 2 * 1400 * 32 * 8
    assert peak_bytes(_forward_cached, params, X) <= activations + 8 * np.getbufsize() + 2048


def test_adam_step_makes_at_most_three_full_size_temporaries():
    params = np.zeros((10, 1441))
    grad = rng_for(0, "grad").standard_normal(params.shape)
    state = adam_init(params.shape)
    # 1 KB covers the Python scalars of one call.
    assert peak_bytes(adam_step, params, grad, state, 1e-3) <= 3 * grad.nbytes + 1024


def test_backward_zero_upstream_gives_zero_gradient():
    model = init_mlp(4, (5, 3), REGRESSION_SCALAR, rng_for(1, "init-theta"))
    X = rng_for(1, "x").standard_normal((6, 4))
    grad = mlp_backward(model, X, np.zeros(6))
    assert grad.shape == (param_count(model),)
    assert np.all(grad == 0.0)


def test_backward_linear_model_matches_analytic_regression_gradient():
    # mean squared error on one example: grad = 2(f(x)-y) * (x, 1)
    model = identity_net()
    x = np.array([2.0, 3.0])
    y = 1.0
    fx = forward_batch(model, x[None, :])[0]
    upstream = np.array([2.0 * (fx - y)])
    grad = mlp_backward(model, x[None, :], upstream)
    expected = 2.0 * (fx - y) * np.array([2.0, 3.0, 1.0])
    assert np.allclose(grad, expected, atol=1e-12)


def test_backward_matches_finite_differences_on_random_net():
    model = init_mlp(3, (6, 4), REGRESSION_SCALAR, rng_for(2, "init-theta"))
    X = rng_for(2, "x").standard_normal((4, 3))
    targets = rng_for(2, "y").standard_normal(4)

    def loss_at(theta):
        candidate = unflatten_params(model, theta)
        out = forward_batch(candidate, X)
        return float(np.mean((out - targets) ** 2))

    upstream = 2.0 * (forward_batch(model, X) - targets) / 4.0
    analytic = mlp_backward(model, X, upstream)
    numeric = central_diff(loss_at, flatten_params(model))
    assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_adam_zero_gradient_leaves_params_unchanged():
    params = np.array([1.0, -2.0, 3.0])
    state = adam_init(3)
    adam_step(params, np.zeros(3), state, lr=0.1)
    assert np.array_equal(params, [1.0, -2.0, 3.0])
    assert state.step_count == 1


def test_adam_first_step_is_signed_lr():
    params = np.zeros(4)
    grad = np.array([0.3, -0.7, 2.0, -0.001])
    adam_step(params, grad, adam_init(4), lr=0.05)
    assert np.allclose(params, -0.05 * np.sign(grad), atol=1e-6)


def test_adam_three_steps_match_hand_rolled_reference():
    # independent scalar recurrence for f(w) = w^2 from w=1 at lr=0.1
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    w_ref, m, v = 1.0, 0.0, 0.0
    trajectory = []
    for t in range(1, 4):
        g = 2.0 * w_ref
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        w_ref = w_ref - lr * m_hat / (np.sqrt(v_hat) + eps)
        trajectory.append(w_ref)

    params = np.array([1.0])
    state = adam_init(1)
    for step in range(3):
        grad = 2.0 * params
        adam_step(params, grad, state, lr=lr)
        assert params[0] == pytest.approx(trajectory[step], abs=1e-12)


def test_adam_rejects_non_finite_gradient():
    with pytest.raises(NumericError):
        adam_step(np.zeros(2), np.array([1.0, np.nan]), adam_init(2), lr=0.1)


def test_adam_rejects_mismatched_state():
    with pytest.raises(ShapeError):
        adam_step(np.zeros(2), np.zeros(2), adam_init(3), lr=0.1)
    with pytest.raises(ShapeError):
        adam_step(np.zeros((2, 3)), np.zeros((2, 3)), adam_init(6), lr=0.1)
    with pytest.raises(ShapeError):
        adam_step(np.zeros((2, 3)), np.zeros((3, 2)), adam_init((2, 3)), lr=0.1)
    with pytest.raises(ShapeError):
        AdamState(np.zeros((2, 3)), np.zeros(6))


def test_adam_rejects_params_it_cannot_update_in_place():
    with pytest.raises(TypeError):
        adam_step([0.0, 0.0], np.zeros(2), adam_init(2), lr=0.1)
    with pytest.raises(TypeError):
        adam_step(np.zeros(2, dtype=np.float32), np.zeros(2), adam_init(2), lr=0.1)
    with pytest.raises(TypeError):
        adam_step([[0.0], [0.0]], np.zeros((2, 1)), adam_init((2, 1)), lr=0.1)
    with pytest.raises(TypeError):
        adam_step(np.zeros((2, 1), dtype=np.float32), np.zeros((2, 1)),
                  adam_init((2, 1)), lr=0.1)


def test_adam_state_rejects_negative_step_count():
    with pytest.raises(ValueError):
        AdamState(np.zeros(2), np.zeros(2), -1)


@given(
    n=st.integers(1, 40),
    steps=st.integers(1, 25),
    lr=st.floats(1e-6, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_in_place_adam_equals_functional_reference(n, steps, lr, seed):
    rng = np.random.default_rng(seed)
    params = rng.standard_normal(n)
    ref, ref_state = params.copy(), reference_adam_init(n)
    state = adam_init(n)
    for _ in range(steps):
        grad = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8)
        adam_step(params, grad, state, lr)
        ref, ref_state = reference_adam(ref, grad, ref_state, lr)
        assert np.array_equal(params, ref)
    assert np.array_equal(state.first_moment, ref_state[0])
    assert np.array_equal(state.second_moment, ref_state[1])
    assert state.step_count == ref_state[2] == steps


@given(
    k=st.integers(1, 8),
    n=st.integers(1, 20),
    steps=st.integers(1, 25),
    lr=st.floats(1e-6, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_adam_equals_independent_references(k, n, steps, lr, seed):
    rng = np.random.default_rng(seed)
    params = rng.standard_normal((k, n))
    refs = [(params[i].copy(), reference_adam_init(n)) for i in range(k)]
    state = adam_init((k, n))
    for _ in range(steps):
        grad = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-8, 8, (k, 1))
        adam_step(params, grad, state, lr)
        refs = [reference_adam(ref, grad[i], ref_state, lr)
                for i, (ref, ref_state) in enumerate(refs)]
    for i, (ref, (m, v, t)) in enumerate(refs):
        assert np.array_equal(params[i], ref)
        assert np.array_equal(state.first_moment[i], m)
        assert np.array_equal(state.second_moment[i], v)
        assert state.step_count == t == steps


@settings(max_examples=60, deadline=None)
@given(
    input_dim=st.integers(1, 12),
    hidden=st.lists(st.integers(1, 40), min_size=0, max_size=3),
    batches=st.integers(1, 60),
    rows=st.integers(1, 40),
    output_kind=st.sampled_from([REGRESSION_SCALAR, BINARY_PROBABILITY]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_forward_equals_per_batch_forward(
    input_dim, hidden, batches, rows, output_kind, seed
):
    rng = np.random.default_rng(seed)
    model = init_mlp(input_dim, tuple(hidden), output_kind, rng)
    stack = rng.standard_normal((batches, rows, input_dim))
    out = forward_batch(model, stack)
    assert out.shape == (batches, rows)
    for i in range(batches):
        assert np.array_equal(out[i], forward_batch(model, stack[i]))


def test_param_count_follows_layer_dimensions():
    model = init_mlp(8, (16, 16), BINARY_PROBABILITY, rng_for(3, "init-theta"))
    expected = (8 * 16 + 16) + (16 * 16 + 16) + (16 * 1 + 1)
    assert param_count(model) == expected == 433


def test_flatten_order_is_row_major_weights_then_bias():
    model = MlpModel(
        (Layer(np.array([[1.5, -2.5]]), np.array([0.75]), IDENTITY),),
        REGRESSION_SCALAR,
    )
    assert np.array_equal(flatten_params(model), np.array([1.5, -2.5, 0.75]))


def test_flatten_unflatten_round_trip_is_bit_exact():
    model = init_mlp(5, (7, 3), BINARY_PROBABILITY, rng_for(4, "init-theta"))
    rebuilt = unflatten_params(model, flatten_params(model))
    for original, copy in zip(model.layers, rebuilt.layers):
        assert np.array_equal(original.weight, copy.weight)
        assert np.array_equal(original.bias, copy.bias)
        assert original.activation == copy.activation
    assert rebuilt.output_kind == model.output_kind


def test_unflatten_rejects_wrong_length():
    model = identity_net()
    with pytest.raises(ShapeError):
        unflatten_params(model, np.zeros(5))


def test_init_is_deterministic_per_stream():
    a = init_mlp(4, (8,), REGRESSION_SCALAR, rng_for(5, "init-theta"))
    b = init_mlp(4, (8,), REGRESSION_SCALAR, rng_for(5, "init-theta"))
    assert np.array_equal(flatten_params(a), flatten_params(b))


def test_init_biases_are_zero():
    model = init_mlp(4, (8, 2), REGRESSION_SCALAR, rng_for(6, "init-theta"))
    for layer in model.layers:
        assert np.all(layer.bias == 0.0)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    model = init_mlp(3, (5,), BINARY_PROBABILITY, rng_for(7, "init-theta"))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(mlp_to_dict(model)))
    loaded = load_mlp(path)
    assert np.array_equal(flatten_params(loaded), flatten_params(model))
    assert loaded.output_kind == model.output_kind
    assert mlp_to_dict(loaded) == mlp_to_dict(model)


def test_model_dict_rejects_unknown_format():
    record = mlp_to_dict(identity_net())
    record["format"] = "something-else"
    with pytest.raises(ValueError):
        mlp_from_dict(record)


@pytest.mark.parametrize("key", ["weight", "bias"])
@pytest.mark.parametrize("entry", [True, False, {}, None, "1.0"])
def test_model_dict_rejects_entries_that_are_not_numbers(key, entry):
    """JSON true/false are not read as 1.0/0.0, and no other entry reaches numpy."""
    record = mlp_to_dict(identity_net())
    values = record["layers"][0][key]
    if key == "weight":
        values = values[0]
    values[0] = entry
    with pytest.raises(ValueError, match=f"tandem-mlp {key} must be a list of numbers"):
        mlp_from_dict(record)


@pytest.mark.parametrize("weight", [5.0, "[[1.0, 1.0]]", None, {"0": [1.0, 1.0]}])
def test_model_dict_rejects_a_weight_that_is_not_a_list(weight):
    record = mlp_to_dict(identity_net())
    record["layers"][0]["weight"] = weight
    with pytest.raises(ValueError, match="tandem-mlp weight must be a list of numbers"):
        mlp_from_dict(record)


def test_model_dict_rejects_an_integer_too_large_for_a_float():
    record = json.loads(json.dumps(mlp_to_dict(identity_net())).replace("0.0", "1" + "0" * 400))
    with pytest.raises(ValueError, match="tandem-mlp bias holds a number too large"):
        mlp_from_dict(record)


@settings(max_examples=60, deadline=None)
@given(
    input_dim=st.integers(1, 12),
    hidden=st.lists(st.integers(1, 24), min_size=0, max_size=3),
    rows=st.integers(1, 200),
    output_kind=st.sampled_from([REGRESSION_SCALAR, BINARY_PROBABILITY]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cached_helpers_on_flat_views_equal_public_passes(
    input_dim, hidden, rows, output_kind, seed
):
    rng = np.random.default_rng(seed)
    template = init_mlp(input_dim, tuple(hidden), output_kind, rng)
    theta = flatten_params(template) + 0.1 * rng.standard_normal(param_count(template))
    model = unflatten_params(template, theta)
    X = rng.standard_normal((rows, input_dim))
    upstream = rng.standard_normal(rows) / rows

    params = _param_views(template, theta)
    out, caches = _forward_cached(params, X)
    assert np.array_equal(out, forward_batch(model, X))
    assert np.array_equal(_backward_cached(params, caches, upstream),
                          mlp_backward(model, X, upstream))
