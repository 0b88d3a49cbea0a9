"""Evaluation metrics and perturbation neighborhoods.

Global fidelity is the mean squared disagreement between the black-box and
its surrogate over a dataset.  GNF averages the same disagreement over
perturbations of each instance, then over instances, with each instance's
perturbations drawn from a derived seed so results are order-independent
and reproducible.  It evaluates all instances' neighborhoods as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, ShapeError
from .losses import loss_point_fidelity
from .nn import MlpModel, forward_batch
from .seeding import rng_for
from .surrogate import LinearSurrogate, _predict_flat, predict_batch, surrogate_params

GAUSSIAN = "gaussian"
PATCH_DELETE = "patch_delete"

# Neighborhoods (P, count, d) and their black-box outputs (P, count) to
# one flat (phi, bias) surrogate per neighborhood, shape (P, d+1).
SurrogateProvider = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class NeighborhoodSpec:
    """How to perturb one instance into a set of neighbors.

    gaussian adds i.i.d. zero-mean noise with variance sigma2 per feature;
    patch_delete zeroes num_patches randomly placed patch_size squares in
    the image given by image_dims.
    """

    kind: str = GAUSSIAN
    count: int = 10
    sigma2: float = 0.1
    patch_size: int = 4
    num_patches: int = 3
    image_dims: tuple[int, int] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (GAUSSIAN, PATCH_DELETE):
            raise ValueError(f"unknown neighborhood kind {self.kind!r}")
        if self.count < 1:
            raise ValueError("neighborhood count must be at least 1")
        if self.kind == GAUSSIAN and self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if self.kind == PATCH_DELETE:
            if self.image_dims is None:
                raise ValueError("patch deletion requires image_dims")
            h, w = self.image_dims
            if self.patch_size < 1 or self.patch_size > min(h, w):
                raise ValueError("patch must fit inside the image")
            if self.num_patches < 1:
                raise ValueError("num_patches must be at least 1")


def f1_score(predicted, true) -> float:
    """F1 of the positive class, 0 when precision + recall is 0."""
    p = np.asarray(predicted, dtype=np.float64)
    t = np.asarray(true, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1:
        raise ShapeError(f"label shapes differ: {p.shape} vs {t.shape}")
    if not (np.all((p == 0) | (p == 1)) and np.all((t == 0) | (t == 1))):
        raise ValueError("labels must be 0 or 1")
    tp = float(np.sum((p == 1) & (t == 1)))
    fp = float(np.sum((p == 1) & (t == 0)))
    fn = float(np.sum((p == 0) & (t == 1)))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def mse_metric(outputs, targets) -> float:
    """Mean squared error."""
    o = np.asarray(outputs, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if o.shape != t.shape or o.ndim != 1:
        raise ShapeError(f"output/target shapes differ: {o.shape} vs {t.shape}")
    return float(np.mean((o - t) ** 2))


def global_fidelity(f: MlpModel, g: LinearSurrogate, X: np.ndarray) -> float:
    """Mean squared output disagreement between f and g over the rows of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ShapeError(f"expected nonempty 2-d data, got shape {X.shape}")
    return loss_point_fidelity(forward_batch(f, X), predict_batch(g, X))


def make_neighborhood(
    x: np.ndarray,
    spec: NeighborhoodSpec,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Generate spec.count perturbed copies of x as rows.

    Without an explicit generator the spec's own seed is used, so repeated
    calls with the same arguments produce identical neighborhoods.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-d instance, got shape {x.shape}")
    if rng is None:
        rng = rng_for(spec.seed, "neighborhood")
    if spec.kind == GAUSSIAN:
        noise = rng.standard_normal((spec.count, x.shape[0]))
        return x + np.sqrt(spec.sigma2) * noise
    h, w = spec.image_dims
    if x.shape[0] != h * w:
        raise ShapeError(f"instance length {x.shape[0]} does not match {h}x{w} image")
    neighbors = np.repeat(x[None, :], spec.count, axis=0)
    for i in range(spec.count):
        image = neighbors[i].reshape(h, w)
        for _ in range(spec.num_patches):
            r = int(rng.integers(0, h - spec.patch_size + 1))
            c = int(rng.integers(0, w - spec.patch_size + 1))
            image[r:r + spec.patch_size, c:c + spec.patch_size] = 0.0
        neighbors[i] = image.reshape(-1)
    return neighbors


def global_surrogate_provider(g: LinearSurrogate) -> SurrogateProvider:
    """Provider reusing one global surrogate for every instance."""
    params = surrogate_params(g)

    def provide(neighborhoods: np.ndarray, outputs: np.ndarray) -> np.ndarray:
        return np.broadcast_to(params, (neighborhoods.shape[0], params.size))

    return provide


def gnf(
    f: MlpModel,
    provider: SurrogateProvider,
    X: np.ndarray,
    spec: NeighborhoodSpec,
) -> float:
    """Aggregate neighborhood fidelity over the rows of X.

    Instance i's neighborhood is drawn from a seed derived from
    (spec.seed, "gnf", i).  The black-box runs once over the stack of
    neighborhoods; the provider sees the stack and those outputs and
    returns the surrogate to evaluate against for each instance.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ShapeError(f"expected nonempty 2-d data, got shape {X.shape}")
    neighbors = np.stack([
        make_neighborhood(X[i], spec, rng_for(spec.seed, "gnf", i))
        for i in range(X.shape[0])
    ])
    f_out = forward_batch(f, neighbors)
    g_out = _predict_flat(provider(neighbors, f_out), neighbors)
    if not (np.isfinite(f_out).all() and np.isfinite(g_out).all()):
        raise NumericError("non-finite loss inputs")
    return float(np.mean(np.mean((f_out - g_out) ** 2, axis=1)))
