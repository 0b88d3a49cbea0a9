from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import central_diff
from tandem.errors import ShapeError
from tandem.surrogate import (
    LinearSurrogate,
    explain,
    init_surrogate,
    load_surrogate,
    predict_batch,
    surrogate_from_dict,
    surrogate_from_params,
    surrogate_grad,
    surrogate_params,
    surrogate_to_dict,
)


def test_zero_coefficients_predict_the_bias():
    g = LinearSurrogate(np.zeros(3), 0.7)
    X = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [-5.0, 4.0, 9.0]])
    assert np.all(predict_batch(g, X) == 0.7)


def test_predict_small_arithmetic_case():
    g = LinearSurrogate(np.array([1.0, -2.0]), 1.0)
    assert predict_batch(g, np.array([[3.0, 1.0]]))[0] == 2.0


def test_predict_matches_independent_dot_product(rng):
    phi = rng.standard_normal(6)
    bias = float(rng.standard_normal())
    x = rng.standard_normal(6)
    g = LinearSurrogate(phi, bias)
    expected = sum(float(phi[i]) * float(x[i]) for i in range(6)) + bias
    assert predict_batch(g, x[None, :])[0] == pytest.approx(expected, abs=1e-12)


def test_predict_batch_matches_rowwise_predict(rng):
    g = LinearSurrogate(rng.standard_normal(4), 0.3)
    X = rng.standard_normal((7, 4))
    outs = predict_batch(g, X)
    assert outs.shape == (7,)
    for i in range(7):
        assert outs[i] == pytest.approx(predict_batch(g, X[i:i + 1])[0], abs=1e-15)


def test_init_surrogate_is_all_zero():
    g = init_surrogate(5)
    assert np.all(g.phi == 0.0)
    assert g.bias == 0.0
    assert g.n_features == 5


def test_grad_zero_residuals_is_zero(rng):
    g = LinearSurrogate(rng.standard_normal(3), 0.1)
    X = rng.standard_normal((4, 3))
    assert np.all(surrogate_grad(g, X, np.zeros(4)) == 0.0)


def test_grad_single_example_analytic_form():
    g = init_surrogate(2)
    r = 0.8
    grad = surrogate_grad(g, np.array([[1.0, 0.0]]), np.array([r]))
    assert np.allclose(grad, np.array([-2.0 * r, 0.0, -2.0 * r]), atol=1e-12)


def test_grad_matches_finite_differences_on_fit_loss(rng):
    X = rng.standard_normal((8, 5))
    targets = rng.standard_normal(8)
    g = LinearSurrogate(rng.standard_normal(5), 0.2)

    def loss_at(params):
        candidate = surrogate_from_params(params)
        return float(np.mean((targets - predict_batch(candidate, X)) ** 2))

    analytic = surrogate_grad(g, X, targets - predict_batch(g, X))
    numeric = central_diff(loss_at, surrogate_params(g))
    assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


def test_grad_rejects_mismatched_residuals():
    g = init_surrogate(2)
    with pytest.raises(ShapeError):
        surrogate_grad(g, np.zeros((3, 2)), np.zeros(4))


def test_params_round_trip():
    g = LinearSurrogate(np.array([0.5, -1.5]), 2.5)
    back = surrogate_from_params(surrogate_params(g))
    assert np.array_equal(back.phi, g.phi)
    assert back.bias == g.bias


def test_explain_ranks_by_magnitude():
    g = LinearSurrogate(np.array([0.5, -3.0, 0.0]), 0.0)
    ranking = explain(g, ["f1", "f2", "f3"])
    assert [e[0] for e in ranking.entries] == ["f2", "f1", "f3"]
    assert [e[2] for e in ranking.entries] == [1, 2, 3]


def test_explain_breaks_ties_by_feature_index():
    g = LinearSurrogate(np.array([1.0, -1.0, 1.0]), 0.0)
    ranking = explain(g, ["a", "b", "c"])
    assert [e[0] for e in ranking.entries] == ["a", "b", "c"]


def test_explain_matches_brute_force_sort(rng):
    phi = rng.standard_normal(5)
    names = [f"x{i}" for i in range(5)]
    ranking = explain(LinearSurrogate(phi, 0.0), names)
    expected = [names[i] for i in sorted(range(5), key=lambda i: (-abs(phi[i]), i))]
    assert [e[0] for e in ranking.entries] == expected


def test_explain_rejects_wrong_name_count():
    with pytest.raises(ShapeError):
        explain(init_surrogate(3), ["only", "two"])


def test_surrogate_file_round_trip(tmp_path):
    g = LinearSurrogate(np.array([1.25, -0.5]), 0.125)
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(surrogate_to_dict(g, ["age", "hours"])))
    loaded, names = load_surrogate(path)
    assert np.array_equal(loaded.phi, g.phi)
    assert loaded.bias == g.bias
    assert names == ["age", "hours"]


def test_surrogate_dict_rejects_unknown_format():
    record = surrogate_to_dict(init_surrogate(2), ["a", "b"])
    record["format"] = "bogus"
    with pytest.raises(ValueError):
        surrogate_from_dict(record)


@pytest.mark.parametrize("key, value, message", [
    ("bias", None, "bias must be a number"),
    ("bias", True, "bias must be a number"),
    ("bias", "0.5", "bias must be a number"),
    ("bias", [0.5], "bias must be a number"),
    ("bias", 10**400, "bias is too large for a float"),
    ("features", 5, "features must be a list of strings"),
    ("features", "ab", "features must be a list of strings"),
    ("features", ["a", 2], "features must be a list of strings"),
    ("coefficients", [True, 0.0], "coefficients must be a list of numbers"),
    ("coefficients", [{}, 0.0], "coefficients must be a list of numbers"),
    ("coefficients", 1.0, "coefficients must be a list of numbers"),
    ("coefficients", [10**400, 0.0], "coefficients holds a number too large for a float"),
])
def test_surrogate_dict_rejects_entries_of_the_wrong_type(key, value, message):
    record = surrogate_to_dict(init_surrogate(2), ["a", "b"])
    record[key] = value
    with pytest.raises(ValueError, match=message):
        surrogate_from_dict(record)
