"""Interpretable linear surrogate: prediction, fidelity gradient, explanation.

The surrogate is g(x) = phi . x + b.  Its gradient functions target the mean
squared disagreement with the black-box outputs over a batch, and its
explanation view ranks features by coefficient magnitude.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError
from .nn import _json_float, _number_array


@dataclass(frozen=True)
class LinearSurrogate:
    phi: np.ndarray
    bias: float

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        if phi.ndim != 1:
            raise ShapeError(f"phi must be 1-d, got shape {phi.shape}")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "bias", float(self.bias))
        if not (np.isfinite(phi).all() and np.isfinite(self.bias)):
            raise NumericError("surrogate parameters must be finite")

    @property
    def n_features(self) -> int:
        return self.phi.shape[0]


def init_surrogate(n_features: int) -> LinearSurrogate:
    """Zero-initialised surrogate; its fitting problem is convex so the start
    point only affects the trajectory, not the optimum."""
    return LinearSurrogate(np.zeros(int(n_features)), 0.0)


def _predict_flat(params: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Surrogate outputs from the flat (phi, bias) vector, or from a stack
    (K, d+1) for batches (K, N, d), each row as its own call; not validated."""
    return (X @ params[..., :-1, None])[..., 0] + params[..., -1:]


def _grad_flat(X: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Fidelity gradient in flat (phi, bias) order, stacked as in
    :func:`_predict_flat`; nothing is validated."""
    coef = (np.swapaxes(X, -1, -2) @ r[..., None])[..., 0]
    return -(2.0 / X.shape[-2]) * np.concatenate(
        [coef, r.sum(axis=-1, keepdims=True)], axis=-1)


def predict_batch(g: LinearSurrogate, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != g.n_features:
        raise ShapeError(f"batch shape {X.shape} incompatible with d={g.n_features}")
    return X @ g.phi + g.bias


def surrogate_grad(g: LinearSurrogate, X, residuals) -> np.ndarray:
    """Gradient of mean squared residual w.r.t. (phi, bias), flat (d+1,).

    residuals[i] = f(x_i) - g(x_i); the loss is mean(residuals^2), so the
    gradient is -(2/N) * sum_i r_i * (x_i, 1).
    """
    X = np.asarray(X, dtype=np.float64)
    r = np.asarray(residuals, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != g.n_features:
        raise ShapeError(f"batch shape {X.shape} incompatible with d={g.n_features}")
    if r.shape != (X.shape[0],):
        raise ShapeError(f"residuals length {r.shape} != batch rows {X.shape[0]}")
    return _grad_flat(X, r)


def surrogate_params(g: LinearSurrogate) -> np.ndarray:
    return np.concatenate([g.phi, [g.bias]])


def surrogate_from_params(params) -> LinearSurrogate:
    params = np.asarray(params, dtype=np.float64)
    return LinearSurrogate(params[:-1].copy(), float(params[-1]))


@dataclass(frozen=True)
class FeatureImportance:
    """Coefficients ranked by magnitude; entries are (name, coefficient, rank)."""

    entries: tuple[tuple[str, float, int], ...]


def explain(g: LinearSurrogate, feature_names) -> FeatureImportance:
    """Rank features by |coefficient| descending; ties break by feature index."""
    names = list(feature_names)
    if len(names) != g.n_features:
        raise ShapeError(f"{len(names)} names for {g.n_features} coefficients")
    order = sorted(range(len(names)), key=lambda i: (-abs(g.phi[i]), i))
    entries = tuple(
        (names[i], float(g.phi[i]), rank + 1) for rank, i in enumerate(order)
    )
    return FeatureImportance(entries)


SURROGATE_FORMAT = "tandem-surrogate"
SURROGATE_FORMAT_VERSION = 1


def surrogate_to_dict(g: LinearSurrogate, feature_names) -> dict:
    names = list(feature_names)
    if len(names) != g.n_features:
        raise ShapeError(f"{len(names)} names for {g.n_features} coefficients")
    return {
        "format": SURROGATE_FORMAT,
        "version": SURROGATE_FORMAT_VERSION,
        "features": names,
        "coefficients": g.phi.tolist(),
        "bias": g.bias,
    }


def surrogate_from_dict(record: dict) -> tuple[LinearSurrogate, list[str]]:
    if not isinstance(record, dict) or record.get("format") != SURROGATE_FORMAT:
        raise ValueError(f"not a {SURROGATE_FORMAT} record")
    try:
        coefficients = _number_array(record["coefficients"], f"{SURROGATE_FORMAT} coefficients")
        bias = _json_float(record["bias"], f"{SURROGATE_FORMAT} bias")
        features = record["features"]
    except KeyError as exc:
        raise ValueError(f"{SURROGATE_FORMAT} record lacks {exc}") from None
    if not (isinstance(features, list) and all(isinstance(name, str) for name in features)):
        raise ValueError(f"{SURROGATE_FORMAT} features must be a list of strings")
    return LinearSurrogate(coefficients, bias), features


def load_surrogate(path) -> tuple[LinearSurrogate, list[str]]:
    with open(path) as fh:
        return surrogate_from_dict(json.load(fh))
