from __future__ import annotations

import numpy as np
import pytest

from conftest import central_diff
from tandem.errors import NumericError, ShapeError
from tandem.losses import (
    BCE,
    DISTILL,
    MSE,
    loss_distill,
    loss_point_fidelity,
    loss_pred,
    upstream_derivative,
)


def test_mse_perfect_fit_is_zero():
    out = np.array([0.2, -1.0, 3.5])
    assert loss_pred(out, out.copy(), MSE) == 0.0


def test_bce_at_half_for_positive_is_ln_two():
    value = loss_pred(np.array([0.5]), np.array([1.0]), BCE)
    assert value == pytest.approx(np.log(2.0), abs=1e-12)


def test_mse_small_arithmetic_case():
    value = loss_pred(np.array([1.0, 2.0]), np.array([0.0, 0.0]), MSE)
    assert value == 2.5


def test_bce_rejects_non_binary_targets():
    with pytest.raises(ValueError):
        loss_pred(np.array([0.5]), np.array([0.25]), BCE)


def test_bce_is_finite_at_clamped_probabilities():
    value = loss_pred(np.array([0.0, 1.0]), np.array([1.0, 0.0]), BCE)
    assert np.isfinite(value)
    assert value > 20.0


def test_point_fidelity_agreement_is_zero():
    out = np.array([0.4, 0.6])
    assert loss_point_fidelity(out, out.copy()) == 0.0


def test_point_fidelity_unit_gap():
    assert loss_point_fidelity(np.array([1.0]), np.array([0.0])) == 1.0


def test_point_fidelity_two_point_average():
    value = loss_point_fidelity(np.array([0.5, 0.3]), np.array([0.3, 0.3]))
    assert value == pytest.approx(0.02, abs=1e-15)


def test_distill_teacher_equals_student_is_zero():
    out = np.array([0.9, 0.1])
    assert loss_distill(out, out.copy()) == 0.0


def test_distill_unit_gap():
    assert loss_distill(np.array([1.0]), np.array([0.0])) == 1.0


def test_distill_equals_point_fidelity_formula(rng):
    a = rng.uniform(0.0, 1.0, size=9)
    b = rng.uniform(0.0, 1.0, size=9)
    assert loss_distill(a, b) == loss_point_fidelity(a, b)


def test_upstream_mse_zero_at_targets():
    out = np.array([1.0, -2.0])
    grad = upstream_derivative(out, out.copy(), MSE)
    assert np.all(grad == 0.0)


def test_upstream_point_fidelity_unit_gap_slope():
    grad = upstream_derivative(np.array([1.0]), np.array([0.0]), DISTILL)
    assert np.allclose(grad, np.array([2.0]), atol=1e-15)


@pytest.mark.parametrize("kind", [MSE, DISTILL])
def test_upstream_matches_finite_differences(kind, rng):
    outputs = rng.uniform(0.1, 0.9, size=7)
    targets = rng.uniform(0.1, 0.9, size=7)

    def loss_at(o):
        return loss_pred(o, targets, MSE) if kind == MSE else loss_distill(o, targets)

    grad = upstream_derivative(outputs, targets, kind)
    numeric = central_diff(loss_at, outputs)
    assert np.allclose(grad, numeric, rtol=1e-6, atol=1e-9)


def test_upstream_bce_matches_finite_differences(rng):
    outputs = rng.uniform(0.1, 0.9, size=7)
    targets = (rng.uniform(size=7) > 0.5).astype(float)

    def loss_at(o):
        return loss_pred(o, targets, BCE)

    grad = upstream_derivative(outputs, targets, BCE)
    numeric = central_diff(loss_at, outputs)
    assert np.allclose(grad, numeric, rtol=1e-6, atol=1e-9)


def test_upstream_carries_batch_mean_scaling():
    single = upstream_derivative(np.array([0.8]), np.array([0.2]), MSE)
    batch = upstream_derivative(np.array([0.8, 0.8]), np.array([0.2, 0.2]), MSE)
    assert single[0] == pytest.approx(2.0 * batch[0], abs=1e-15)


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        loss_pred(np.array([1.0, 2.0]), np.array([1.0]), MSE)
    with pytest.raises(ShapeError):
        loss_point_fidelity(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        upstream_derivative(np.zeros((2, 3)), np.zeros((2, 3)), MSE)


def test_non_finite_values_rejected():
    with pytest.raises(NumericError):
        loss_pred(np.array([np.nan]), np.array([0.0]), MSE)
    with pytest.raises(NumericError):
        upstream_derivative(np.array([np.inf]), np.array([0.0]), MSE)


def test_unknown_loss_kind_rejected():
    with pytest.raises(ValueError):
        loss_pred(np.array([0.5]), np.array([1.0]), "hinge")
