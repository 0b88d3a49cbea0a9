"""Training losses and their per-example upstream derivatives.

Losses are batch means.  ``upstream_derivative`` returns the derivative of
the batch-mean loss with respect to each output entry, i.e. it already
carries the 1/N factor; feeding it to the model's backward pass yields the
gradient of the batch-mean loss directly.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

MSE = "mse"
BCE = "bce"
POINT_FIDELITY = "point-fidelity"
DISTILL = "distill"
LOSS_KINDS = (MSE, BCE, POINT_FIDELITY, DISTILL)

BCE_CLAMP = 1e-12


def _pair(outputs, targets) -> tuple[np.ndarray, np.ndarray]:
    """Validated float arrays of equal 1-d shapes."""
    o = np.asarray(outputs, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if o.ndim != 1 or t.shape != o.shape:
        raise ShapeError(f"output/target shapes differ: {o.shape} vs {t.shape}")
    if not (np.isfinite(o).all() and np.isfinite(t).all()):
        raise NumericError("non-finite loss inputs")
    return o, t


def _check_bce_targets(t: np.ndarray) -> None:
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("binary cross-entropy targets must be 0 or 1")


def loss_pred(outputs, targets, kind: str) -> float:
    """Predictive loss: mean squared error or binary cross-entropy.

    BCE outputs are clamped into [1e-12, 1 - 1e-12] before taking logs.
    """
    o, t = _pair(outputs, targets)
    if kind == MSE:
        return float(np.mean((o - t) ** 2))
    if kind == BCE:
        _check_bce_targets(t)
        p = np.clip(o, BCE_CLAMP, 1.0 - BCE_CLAMP)
        return float(np.mean(-(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))))
    raise ValueError(f"loss_pred does not handle kind {kind!r}")


def loss_point_fidelity(f_out, g_out) -> float:
    """Mean squared disagreement between black-box and surrogate outputs."""
    f, g = _pair(f_out, g_out)
    return float(np.mean((f - g) ** 2))


def loss_distill(teacher_out, student_out) -> float:
    """Mean squared disagreement between teacher and student outputs."""
    return loss_point_fidelity(teacher_out, student_out)


def upstream_derivative(outputs, targets, kind: str) -> np.ndarray:
    """Per-example derivative of the batch-mean loss w.r.t. outputs.

    For point-fidelity and distillation, ``targets`` holds the other model's
    outputs and the derivative is taken w.r.t. ``outputs``.
    """
    o, t = _pair(outputs, targets)
    if kind == BCE:
        _check_bce_targets(t)
    return _upstream(o, t, kind)


def _upstream(o: np.ndarray, t: np.ndarray, kind: str) -> np.ndarray:
    """:func:`upstream_derivative` on float64 arrays that have passed its
    checks (finite, shapes that fit, 0/1 BCE targets); only ``kind`` is checked."""
    n = o.shape[-1]
    if kind in (MSE, POINT_FIDELITY, DISTILL):
        return 2.0 * (o - t) / n
    if kind == BCE:
        p = np.clip(o, BCE_CLAMP, 1.0 - BCE_CLAMP)
        return (-t / p + (1.0 - t) / (1.0 - p)) / n
    raise ValueError(f"unknown loss kind {kind!r}")
