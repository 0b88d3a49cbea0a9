"""Evaluation metrics and perturbation neighborhoods.

Global fidelity is the mean squared disagreement between the black-box and
its surrogate over a dataset.  GNF averages the same disagreement over
perturbations of each instance, then over instances, with each instance's
perturbations drawn from a derived seed so results are order-independent
and reproducible.  It evaluates all instances' neighborhoods as one stack.

:func:`gnf` scores one flat (phi, bias) surrogate per instance, given as
a (P, d+1) array: the global surrogate's parameters repeated, or the
local fits of :func:`local_surrogates`.  Those fit each instance's
surrogate in closed form on a second, independent neighborhood of that
instance, so local GNF is a held-out fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError
from .losses import loss_point_fidelity
from .nn import MlpModel, forward_batch
from .seeding import rng_for
from .surrogate import LinearSurrogate, _predict_flat, predict_batch

GAUSSIAN = "gaussian"
PATCH_DELETE = "patch_delete"


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
        if self.kind == GAUSSIAN and not 0 < self.sigma2 < np.inf:
            raise ValueError("sigma2 must be positive and finite")
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
        return _gaussian(x[None], spec, [rng])[0]
    h, w = spec.image_dims
    if x.shape[0] != h * w:
        raise ShapeError(f"instance length {x.shape[0]} does not match {h}x{w} image")
    neighbors = np.repeat(x[None, :], spec.count, axis=0)
    for image in neighbors.reshape(spec.count, h, w):  # views into neighbors
        for _ in range(spec.num_patches):
            r = int(rng.integers(0, h - spec.patch_size + 1))
            c = int(rng.integers(0, w - spec.patch_size + 1))
            image[r:r + spec.patch_size, c:c + spec.patch_size] = 0.0
    return neighbors


def _gaussian(X: np.ndarray, spec: NeighborhoodSpec, rngs) -> np.ndarray:
    """Row i of X plus count draws of rngs[i]'s noise, as a (P, count, d) stack."""
    noise = np.stack([rng.standard_normal((spec.count, X.shape[1])) for rng in rngs])
    return X[:, None, :] + np.sqrt(spec.sigma2) * noise


def neighborhoods(X: np.ndarray, spec: NeighborhoodSpec, label: str) -> np.ndarray:
    """The neighborhoods of the rows of X as one (P, count, d) stack,
    instance i's drawn from the stream (spec.seed, label, i)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ShapeError(f"expected nonempty 2-d data, got shape {X.shape}")
    rngs = [rng_for(spec.seed, label, i) for i in range(len(X))]
    if spec.kind == GAUSSIAN:
        return _gaussian(X, spec, rngs)
    return np.stack([make_neighborhood(x, spec, rng) for x, rng in zip(X, rngs)])


def _fit_local(neighbors: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares linear fits to targets (K, N) over neighborhoods
    (K, N, d): the (K, d+1) parameters and the rank of each fit's design.

    ``lstsq`` gives the exact fit of a full-rank design and the
    minimum-norm fit of a rank-deficient one.  Non-finite inputs raise
    before LAPACK sees them.
    """
    design = np.concatenate([neighbors, np.ones(neighbors.shape[:2] + (1,))], axis=2)
    if not (np.isfinite(design).all() and np.isfinite(targets).all()):
        raise NumericError("non-finite loss inputs")
    fits = [np.linalg.lstsq(a, b, rcond=None) for a, b in zip(design, targets)]
    return np.array([fit[0] for fit in fits]), np.array([fit[2] for fit in fits])


def local_surrogates(f: MlpModel, X: np.ndarray, spec: NeighborhoodSpec) -> np.ndarray:
    """A fresh surrogate fitted to f around every row of X, as the
    (P, d+1) flat parameters :func:`gnf` scores.

    Instance i's fit uses its own neighborhood from the stream
    (spec.seed, "gnf-fit", i), independent of the one :func:`gnf` scores
    it on.  A rank-deficient design, such as fewer neighbors than d+1,
    interpolates its fit draw, so only a held-out draw measures fidelity.
    """
    fit = neighborhoods(X, spec, "gnf-fit")
    return _fit_local(fit, forward_batch(f, fit))[0]


def gnf(
    f: MlpModel,
    surrogates: np.ndarray,
    X: np.ndarray,
    spec: NeighborhoodSpec,
) -> float:
    """Aggregate neighborhood fidelity over the rows of X.

    Instance i's neighborhood is drawn from a seed derived from
    (spec.seed, "gnf", i) and scored against row i of ``surrogates``, the
    (P, d+1) flat (phi, bias) parameters.  The black-box runs once over
    the stack of neighborhoods.
    """
    neighbors = neighborhoods(X, spec, "gnf")
    if np.shape(surrogates) != (len(neighbors), neighbors.shape[2] + 1):
        raise ShapeError(f"surrogates have shape {np.shape(surrogates)}, expected "
                         f"{(len(neighbors), neighbors.shape[2] + 1)}: one row of d+1 per instance")
    f_out = forward_batch(f, neighbors)
    g_out = _predict_flat(surrogates, neighbors)
    if not (np.isfinite(f_out).all() and np.isfinite(g_out).all()):
        raise NumericError("non-finite loss inputs")
    return float(np.mean(np.mean((f_out - g_out) ** 2, axis=1)))
