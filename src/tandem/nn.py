"""Dense multi-layer perceptron with analytic backprop and Adam.

All math is float64 numpy.  A model is an immutable stack of fully-connected
layers; weights are stored as (out_dim, in_dim) matrices so a layer computes
``act(W @ x + b)``.

Parameter flattening order is canonical and fixed: layers in forward order,
each layer contributing its weight matrix in row-major (C) order followed by
its bias vector.  Gradient vectors returned by :func:`mlp_backward` use the
same order, so gradients of different losses are directly addable.

Gradient convention: ``mlp_backward`` is a plain vector-Jacobian product.
With ``upstream[i]`` equal to the derivative of the batch-mean loss with
respect to output i (the convention of :mod:`tandem.losses`), the result is
the gradient of the batch-mean loss, which makes it batch-size invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError

RELU = "relu"
IDENTITY = "identity"
SIGMOID = "sigmoid"
ACTIVATIONS = (RELU, IDENTITY, SIGMOID)

REGRESSION_SCALAR = "regression-scalar"
BINARY_PROBABILITY = "binary-probability"
OUTPUT_KINDS = (REGRESSION_SCALAR, BINARY_PROBABILITY)


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got shape {m.shape}")
    return m


def _as_vector(a, name: str) -> np.ndarray:
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be 1-d, got shape {v.shape}")
    return v


def sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows, and -|z| is exactly -z for z >= 0 and z below,
    # so this is 1 / (1 + exp(-z)) and exp(z) / (1 + exp(z)) bit for bit.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """act(z); ReLU writes into ``z``, which the caller must own."""
    if kind == RELU:
        return np.maximum(z, 0.0, out=z)
    if kind == IDENTITY:
        return z
    if kind == SIGMOID:
        return sigmoid(z)
    raise ValueError(f"unknown activation {kind!r}")


def _activation_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    """d act(z) / d z of a ReLU or sigmoid, using the post-activation a where it helps."""
    if kind == RELU:
        return z > 0.0
    if kind == SIGMOID:
        return a * (1.0 - a)
    raise ValueError(f"unknown activation {kind!r}")


@dataclass(frozen=True)
class Layer:
    """One dense layer: weight (out_dim, in_dim), bias (out_dim,), activation tag."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self):
        w = _as_matrix(self.weight, "weight")
        b = _as_vector(self.bias, "bias")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)
        if w.shape[0] != b.shape[0]:
            raise ShapeError(f"bias length {b.shape[0]} != weight rows {w.shape[0]}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise NumericError("layer parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


@dataclass(frozen=True)
class MlpModel:
    """A stack of dense layers ending in a single scalar output."""

    layers: tuple[Layer, ...]
    output_kind: str

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("model needs at least one layer")
        if self.output_kind not in OUTPUT_KINDS:
            raise ValueError(f"unknown output kind {self.output_kind!r}")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ShapeError(
                    f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )
        last = self.layers[-1]
        if last.out_dim != 1:
            raise ShapeError(f"final layer must output 1 value, got {last.out_dim}")
        expected = SIGMOID if self.output_kind == BINARY_PROBABILITY else IDENTITY
        if last.activation != expected:
            raise ValueError(
                f"output kind {self.output_kind!r} requires final activation "
                f"{expected!r}, got {last.activation!r}"
            )

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim


def init_mlp(
    input_dim: int,
    hidden: tuple[int, ...],
    output_kind: str,
    rng: np.random.Generator,
) -> MlpModel:
    """Build an MLP with ReLU hidden layers and a scalar output head.

    Weights are uniform in +-sqrt(6 / (fan_in + fan_out)), biases zero.
    """
    dims = [int(input_dim)] + [int(h) for h in hidden] + [1]
    final_act = SIGMOID if output_kind == BINARY_PROBABILITY else IDENTITY
    layers = []
    for k in range(len(dims) - 1):
        fan_in, fan_out = dims[k], dims[k + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = np.zeros(fan_out)
        act = RELU if k < len(dims) - 2 else final_act
        layers.append(Layer(w, b, act))
    return MlpModel(tuple(layers), output_kind)


def _layer_params(model: MlpModel) -> list[tuple[np.ndarray, np.ndarray, str]]:
    return [(layer.weight, layer.bias, layer.activation) for layer in model.layers]


def _param_views(model: MlpModel, theta: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """(weight, bias, activation) per layer of ``model``, as views into a
    flat vector in canonical order, or into each row of a (K, P) stack as
    (K, out, in) weights and (K, out) biases; writing to ``theta`` moves
    the layers."""
    params = []
    pos = 0
    for layer in model.layers:
        w_end = pos + layer.weight.size
        b_end = w_end + layer.bias.size
        params.append((theta[..., pos:w_end].reshape(theta.shape[:-1] + layer.weight.shape),
                       theta[..., w_end:b_end], layer.activation))
        pos = b_end
    return params


def _forward_cached(params, X: np.ndarray):
    """Outputs, shape (N,) or (..., N) for a stack, and the per-layer (input,
    pre-activation, output) caches that :func:`_backward_cached` starts from.
    ``params`` holds one (weight, bias, activation) triple per layer, or a
    stack of K networks from :func:`_param_views`, which all take the same
    X (N, d); each row's matmul is its own gemm, so bit-identical to a
    call with that row alone.  A ReLU layer writes its activation into its
    matmul output, so its cached pre-activation slot holds the activation:
    the backward pass reads only ``z > 0`` there, and ``max(z, 0) > 0``
    equals ``z > 0`` for every float, NaN included."""
    a = X
    caches = []
    for weight, bias, activation in params:
        z = a @ weight.swapaxes(-1, -2)
        z += bias[..., None, :]
        a_out = _activate(z, activation)
        caches.append((a, z, a_out))
        a = a_out
    return a[..., 0], caches


def _layer_backward(layer, cache, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One layer's step of the backward pass.  From the loss gradient
    ``delta`` (N, out), or (K, N, out) for a stack, at the layer's output:
    the layer's (weight, bias) gradient block in canonical flat order, and
    the gradient at its pre-activation."""
    _, _, activation = layer
    a_prev, z, a_out = cache
    if activation != IDENTITY:  # the identity's derivative is 1
        delta = delta * _activation_grad(z, a_out, activation)
    grad_w = delta.swapaxes(-1, -2) @ a_prev
    return np.concatenate([grad_w.reshape(grad_w.shape[:-2] + (-1,)),
                           delta.sum(axis=-2)], axis=-1), delta


def _backward_cached(params, caches, upstream: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product from a cached forward, in canonical flat
    order: (P,) from upstream (N,), (K, P) from a stack's (K, N), and with
    m upstreams on a leading axis (m, P) or (m, K, P) from (m, N) or
    (m, K, N), each row bit-identical to its own call."""
    grads = [np.empty(0)] * len(params)
    delta = upstream[..., None]
    for k in range(len(params) - 1, -1, -1):
        grads[k], delta = _layer_backward(params[k], caches[k], delta)
        if k > 0:
            delta = delta @ params[k][0]
    return np.concatenate(grads, axis=-1)


def _last_layer_backward(params, caches, upstream: np.ndarray) -> np.ndarray:
    """The last layer's block of :func:`_backward_cached`, the tail of its
    output on any upstream stack, bit for bit, at one layer's step."""
    return _layer_backward(params[-1], caches[-1], upstream[..., None])[0]


def forward_batch(model: MlpModel, X) -> np.ndarray:
    """Model outputs for a batch (N, d), shape (N,), or a stack of batches
    (..., N, d), shape (..., N): one gemm per batch and layer, so each batch
    is bit-identical to its own call (one reshaped batch would not be)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim < 2:
        raise ShapeError(f"batch must be at least 2-d, got shape {X.shape}")
    if X.shape[-1] != model.input_dim:
        raise ShapeError(
            f"batch has {X.shape[-1]} features, model expects {model.input_dim}"
        )
    out, _ = _forward_cached(_layer_params(model), X)
    return out


def mlp_backward(model: MlpModel, X, upstream) -> np.ndarray:
    """Parameter gradient via the chain rule, in canonical flat order.

    upstream[i] is dL/d f(x_i); the result is sum_i upstream[i] * df(x_i)/dtheta.
    """
    X = _as_matrix(X, "batch")
    upstream = _as_vector(upstream, "upstream")
    if X.shape[0] != upstream.shape[0]:
        raise ShapeError(
            f"upstream length {upstream.shape[0]} != batch rows {X.shape[0]}"
        )
    if X.shape[1] != model.input_dim:
        raise ShapeError(
            f"batch has {X.shape[1]} features, model expects {model.input_dim}"
        )
    params = _layer_params(model)
    _, caches = _forward_cached(params, X)
    return _backward_cached(params, caches, upstream)


def param_count(model: MlpModel) -> int:
    return sum(l.weight.size + l.bias.size for l in model.layers)


def flatten_params(model: MlpModel) -> np.ndarray:
    """All parameters as one vector, canonical order."""
    parts = []
    for layer in model.layers:
        parts.append(layer.weight.ravel())
        parts.append(layer.bias)
    return np.concatenate(parts)


def unflatten_params(model: MlpModel, vector) -> MlpModel:
    """Rebuild a model with the same shape from a flat parameter vector."""
    vector = _as_vector(vector, "parameter vector")
    if vector.shape[0] != param_count(model):
        raise ShapeError(
            f"vector length {vector.shape[0]} != parameter count {param_count(model)}"
        )
    layers = [
        Layer(weight.copy(), bias.copy(), activation)
        for weight, bias, activation in _param_views(model, vector)
    ]
    return MlpModel(tuple(layers), model.output_kind)


ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Moment estimates for one parameter array, updated in place."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    def __post_init__(self):
        if self.step_count < 0:
            raise ValueError("step_count must be nonnegative")
        if self.first_moment.shape != self.second_moment.shape:
            raise ShapeError("moment arrays must have equal shapes")


def adam_init(shape) -> AdamState:
    """Zero moments for parameters of ``shape``: a length or a shape tuple."""
    return AdamState(np.zeros(shape), np.zeros(shape))


def adam_step(params: np.ndarray, grad, state: AdamState, lr: float) -> None:
    """One Adam update with bias correction; updates in place both
    ``params``, a float64 array of any shape, and ``state``.  Each row of
    a (K, p) stack moves exactly as in K separate calls."""
    if not (isinstance(params, np.ndarray) and params.dtype == np.float64):
        raise TypeError("params must be a float64 array, updated in place")
    grad = np.asarray(grad, dtype=np.float64)
    if params.shape != grad.shape or params.shape != state.first_moment.shape:
        raise ShapeError("params, grad and Adam state shapes must agree")
    if not np.isfinite(grad).all():
        raise NumericError("gradient has non-finite entries")
    state.step_count += 1
    t = state.step_count
    m, v = state.first_moment, state.second_moment
    # Three temporaries; the operations of lr * m_hat / (sqrt(v_hat) + eps), in order.
    scaled = np.multiply(1.0 - ADAM_BETA1, grad)
    m *= ADAM_BETA1
    m += scaled
    np.multiply(1.0 - ADAM_BETA2, grad, out=scaled)
    scaled *= grad
    v *= ADAM_BETA2
    v += scaled
    m_hat = np.divide(m, 1.0 - ADAM_BETA1**t)
    v_hat = np.divide(v, 1.0 - ADAM_BETA2**t)
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPSILON
    m_hat *= lr
    m_hat /= v_hat
    params -= m_hat


# ---------------------------------------------------------------------------
# Checkpoint format: versioned JSON, round-trips bit-exactly.

MLP_FORMAT = "tandem-mlp"
MLP_FORMAT_VERSION = 1


def mlp_to_dict(model: MlpModel) -> dict:
    return {
        "format": MLP_FORMAT,
        "version": MLP_FORMAT_VERSION,
        "output_kind": model.output_kind,
        "layers": [
            {
                "weight": layer.weight.tolist(),
                "bias": layer.bias.tolist(),
                "activation": layer.activation,
            }
            for layer in model.layers
        ],
    }


# The types ``json`` loads a number as; a bool is neither.
_JSON_NUMBERS = frozenset((int, float))


def _json_float(value, what: str) -> float:
    """A checkpoint's number as a float; anything else, a bool included, or
    an integer too large for a float raises ValueError."""
    if type(value) not in _JSON_NUMBERS:
        raise ValueError(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


def _number_array(value, what: str) -> np.ndarray:
    """A checkpoint's array, a JSON list of numbers or of such lists, as
    float64; any other entry, a bool or a string included, or an integer
    too large for a float raises ValueError."""
    def numbers_only(entries: list) -> bool:
        types = set(map(type, entries))
        return types <= _JSON_NUMBERS or (types == {list} and all(map(numbers_only, entries)))

    if not (type(value) is list and numbers_only(value)):
        raise ValueError(f"{what} must be a list of numbers")
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{what} holds a number too large for a float") from None


def mlp_from_dict(record: dict) -> MlpModel:
    if not isinstance(record, dict) or record.get("format") != MLP_FORMAT:
        raise ValueError(f"not a {MLP_FORMAT} record")
    try:
        entries = record["layers"]
        if not (isinstance(entries, list) and all(isinstance(l, dict) for l in entries)):
            raise ValueError(f"{MLP_FORMAT} layers must be a list of objects")
        layers = tuple(
            Layer(_number_array(l["weight"], f"{MLP_FORMAT} weight"),
                  _number_array(l["bias"], f"{MLP_FORMAT} bias"), l["activation"])
            for l in entries
        )
        return MlpModel(layers, record["output_kind"])
    except KeyError as exc:
        raise ValueError(f"{MLP_FORMAT} record lacks {exc}") from None


def load_mlp(path) -> MlpModel:
    import json

    with open(path) as fh:
        return mlp_from_dict(json.load(fh))
