from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tandem.errors import ShapeError
from tandem.metrics import (
    GAUSSIAN,
    PATCH_DELETE,
    NeighborhoodSpec,
    f1_score,
    global_fidelity,
    gnf,
    make_neighborhood,
    mse_metric,
    neighborhoods,
)
from tandem.nn import IDENTITY, REGRESSION_SCALAR, Layer, MlpModel, forward_batch, init_mlp
from tandem.seeding import rng_for
from tandem.surrogate import LinearSurrogate, predict_batch, surrogate_params


def linear_net(weights, bias):
    return MlpModel(
        (Layer(np.asarray(weights, dtype=np.float64)[None, :],
               np.array([float(bias)]), IDENTITY),),
        REGRESSION_SCALAR,
    )


def global_rows(g, X):
    """The global surrogate's flat parameters once per row of X."""
    return np.tile(surrogate_params(g), (len(X), 1))


# -- task metrics -------------------------------------------------------------


def test_f1_perfect_predictions():
    labels = np.array([1.0, 0.0, 1.0, 1.0])
    assert f1_score(labels, labels.copy()) == 1.0


def test_f1_balanced_errors():
    predicted = np.array([1.0, 1.0, 0.0])
    true = np.array([1.0, 0.0, 1.0])
    assert f1_score(predicted, true) == 0.5


def test_f1_zero_division_rule():
    assert f1_score(np.zeros(4), np.zeros(4)) == 0.0


def test_f1_no_positive_predictions_with_positives_present():
    assert f1_score(np.zeros(4), np.array([1.0, 0.0, 1.0, 0.0])) == 0.0


def test_f1_rejects_non_binary_labels():
    with pytest.raises(ValueError):
        f1_score(np.array([0.5]), np.array([1.0]))


def test_mse_metric_arithmetic():
    assert mse_metric(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == 2.5


# -- global fidelity ----------------------------------------------------------


def test_global_fidelity_zero_when_surrogate_reproduces_f(rng):
    weights = rng.standard_normal(3)
    f = linear_net(weights, 0.4)
    g = LinearSurrogate(weights.copy(), 0.4)
    X = rng.standard_normal((12, 3))
    assert global_fidelity(f, g, X) == pytest.approx(0.0, abs=1e-24)


def test_global_fidelity_single_point_arithmetic():
    f = linear_net([0.0, 0.0], 0.5)
    g = LinearSurrogate(np.zeros(2), 0.3)
    value = global_fidelity(f, g, np.array([[1.0, 2.0]]))
    assert value == pytest.approx(0.04, abs=1e-15)


def test_global_fidelity_equals_mean_of_pointwise_terms(rng):
    f = init_mlp(4, (5,), REGRESSION_SCALAR, rng_for(0, "init-theta"))
    g = LinearSurrogate(rng.standard_normal(4), 0.1)
    X = rng.standard_normal((20, 4))
    value = global_fidelity(f, g, X)
    pointwise = [
        (float(forward_batch(f, X[i:i + 1])[0]) - float(predict_batch(g, X[i:i + 1])[0])) ** 2
        for i in range(20)
    ]
    assert value == pytest.approx(float(np.mean(pointwise)), abs=1e-12)


# -- neighborhoods ------------------------------------------------------------


def test_gaussian_neighborhood_shrinks_to_x_at_tiny_variance():
    x = np.array([0.3, -1.2, 4.0])
    spec = NeighborhoodSpec(kind=GAUSSIAN, count=8, sigma2=1e-12)
    neighbors = make_neighborhood(x, spec)
    assert neighbors.shape == (8, 3)
    assert np.max(np.abs(neighbors - x)) < 1e-5


def test_gaussian_neighborhood_sample_variance_matches_sigma2():
    spec = NeighborhoodSpec(kind=GAUSSIAN, count=10_000, sigma2=0.1, seed=3)
    neighbors = make_neighborhood(np.array([0.0]), spec)
    variance = float(neighbors.var())
    assert abs(variance - 0.1) <= 0.005


def test_gaussian_neighborhood_is_deterministic_per_spec_seed():
    x = np.array([1.0, 2.0])
    spec = NeighborhoodSpec(kind=GAUSSIAN, count=5, sigma2=0.5, seed=12)
    assert np.array_equal(make_neighborhood(x, spec), make_neighborhood(x, spec))


def test_patch_delete_full_image_patch_zeroes_everything():
    spec = NeighborhoodSpec(
        kind=PATCH_DELETE, count=4, patch_size=3, num_patches=1, image_dims=(3, 3)
    )
    x = np.arange(1.0, 10.0)
    neighbors = make_neighborhood(x, spec)
    assert np.array_equal(neighbors, np.zeros((4, 9)))


def test_patch_delete_zeroes_exactly_patch_squares():
    spec = NeighborhoodSpec(
        kind=PATCH_DELETE, count=6, patch_size=2, num_patches=1, image_dims=(4, 4)
    )
    x = np.ones(16)
    neighbors = make_neighborhood(x, spec)
    for row in neighbors:
        zeros = int(np.sum(row == 0.0))
        assert zeros == 4
        image = row.reshape(4, 4)
        rows, cols = np.where(image == 0.0)
        assert rows.max() - rows.min() == 1
        assert cols.max() - cols.min() == 1


def test_patch_delete_leaves_original_untouched():
    spec = NeighborhoodSpec(
        kind=PATCH_DELETE, count=3, patch_size=2, num_patches=2, image_dims=(4, 4)
    )
    x = np.ones(16)
    make_neighborhood(x, spec)
    assert np.array_equal(x, np.ones(16))


def test_neighborhood_spec_validation():
    with pytest.raises(ValueError):
        NeighborhoodSpec(kind="uniform")
    with pytest.raises(ValueError):
        NeighborhoodSpec(count=0)
    with pytest.raises(ValueError):
        NeighborhoodSpec(sigma2=0.0)
    for sigma2 in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            NeighborhoodSpec(sigma2=sigma2)
    with pytest.raises(ValueError):
        NeighborhoodSpec(kind=PATCH_DELETE, image_dims=None)
    with pytest.raises(ValueError):
        NeighborhoodSpec(kind=PATCH_DELETE, image_dims=(4, 4), patch_size=5)


def test_make_neighborhood_rejects_non_vector_instance():
    with pytest.raises(ShapeError):
        make_neighborhood(np.ones((2, 2)), NeighborhoodSpec())


def test_patch_delete_rejects_length_mismatch():
    spec = NeighborhoodSpec(
        kind=PATCH_DELETE, count=2, patch_size=2, num_patches=1, image_dims=(4, 4)
    )
    with pytest.raises(ShapeError):
        make_neighborhood(np.ones(15), spec)


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2), (0, 4)])
@pytest.mark.parametrize("kind", [GAUSSIAN, PATCH_DELETE])
def test_neighborhoods_reject_data_not_nonempty_2d(kind, shape):
    spec = NeighborhoodSpec(kind=kind, count=2, patch_size=1, image_dims=(2, 2))
    with pytest.raises(ShapeError, match=f"got shape {re.escape(str(shape))}"):
        neighborhoods(np.ones(shape), spec, "gnf")


def neighborhood_cases():
    """(X, spec, label) with X's rows sized to the spec's kind."""
    def case(kind, points, count, sigma2, seed, label, dims, patch, patches, values):
        h, w = dims
        X = np.asarray(values[:points * h * w]).reshape(points, h * w)
        image = dict(image_dims=dims, patch_size=min(patch, h, w), num_patches=patches)
        spec = NeighborhoodSpec(kind=kind, count=count, sigma2=sigma2, seed=seed,
                                **(image if kind == PATCH_DELETE else {}))
        return X, spec, label

    return st.builds(
        case, st.sampled_from((GAUSSIAN, PATCH_DELETE)), st.integers(1, 6),
        st.integers(1, 12), st.floats(1e-6, 1e3), st.integers(0, 2**32 - 1),
        st.text(max_size=6), st.tuples(st.integers(1, 5), st.integers(1, 5)),
        st.integers(1, 5), st.integers(1, 3),
        st.lists(st.floats(-1e6, 1e6), min_size=150, max_size=150))


@given(neighborhood_cases())
def test_neighborhood_stack_rows_are_the_single_instance_neighborhoods(case):
    X, spec, label = case
    stack = neighborhoods(X, spec, label)
    assert stack.shape == (X.shape[0], spec.count, X.shape[1])
    for i in range(X.shape[0]):
        row = make_neighborhood(X[i], spec, rng_for(spec.seed, label, i))
        assert stack[i].tobytes() == row.tobytes()
        if spec.kind == GAUSSIAN:  # the per-instance arithmetic, written out
            noise = rng_for(spec.seed, label, i).standard_normal((spec.count, X.shape[1]))
            assert row.tobytes() == (X[i] + np.sqrt(spec.sigma2) * noise).tobytes()


# -- neighborhood fidelity ----------------------------------------------------


def test_gnf_zero_for_linear_f(rng):
    weights = rng.standard_normal(4)
    f = linear_net(weights, -0.2)
    g = LinearSurrogate(weights.copy(), -0.2)
    X = rng.standard_normal((3, 4))
    spec = NeighborhoodSpec(kind=GAUSSIAN, count=10, sigma2=0.1, seed=5)
    assert gnf(f, global_rows(g, X), X, spec) == pytest.approx(0.0, abs=1e-24)


def test_gnf_single_point_collapse(rng):
    f = linear_net([1.0, 0.0], 0.0)
    g = LinearSurrogate(np.array([0.0, 0.0]), 0.0)
    X = rng.standard_normal((1, 2))
    spec = NeighborhoodSpec(kind=GAUSSIAN, count=1, sigma2=0.1, seed=6)
    neighbors = make_neighborhood(X[0], spec, rng_for(6, "gnf", 0))
    expected = float(forward_batch(f, neighbors)[0]) ** 2
    assert gnf(f, global_rows(g, X), X, spec) == pytest.approx(expected, abs=1e-12)


def test_gnf_matches_brute_force_double_loop(rng):
    f = init_mlp(3, (6,), REGRESSION_SCALAR, rng_for(1, "init-theta"))
    g = LinearSurrogate(rng.standard_normal(3), 0.2)
    X = rng.standard_normal((5, 3))
    spec = NeighborhoodSpec(kind=GAUSSIAN, count=10, sigma2=0.1, seed=4)

    value = gnf(f, global_rows(g, X), X, spec)

    total = 0.0
    for i in range(5):
        neighbors = make_neighborhood(X[i], spec, rng_for(spec.seed, "gnf", i))
        inner = 0.0
        for j in range(10):
            f_out = float(forward_batch(f, neighbors[j:j + 1])[0])
            g_out = float(predict_batch(g, neighbors[j:j + 1])[0])
            inner += (f_out - g_out) ** 2
        total += inner / 10.0
    assert value == pytest.approx(total / 5.0, abs=1e-12)


def test_gnf_per_instance_streams_are_independent_of_count_order(rng):
    f = init_mlp(2, (4,), REGRESSION_SCALAR, rng_for(2, "init-theta"))
    g = LinearSurrogate(rng.standard_normal(2), 0.0)
    X = rng.standard_normal((4, 2))
    spec = NeighborhoodSpec(kind=GAUSSIAN, count=6, sigma2=0.2, seed=9)
    full = gnf(f, global_rows(g, X), X, spec)
    again = gnf(f, global_rows(g, X), X, spec)
    assert full == again


def test_gnf_rejects_empty_batch():
    f = linear_net([1.0], 0.0)
    g = LinearSurrogate(np.array([1.0]), 0.0)
    with pytest.raises(ShapeError):
        gnf(f, global_rows(g, np.empty((0, 1))), np.empty((0, 1)), NeighborhoodSpec())


@pytest.mark.parametrize("shape", [(4,), (1, 4), (3, 3), (3, 5), (2, 4)])
def test_gnf_rejects_surrogates_not_one_row_of_d_plus_1_per_instance(rng, shape):
    f = linear_net([1.0, 0.0, 0.0], 0.0)
    X = rng.standard_normal((3, 3))
    with pytest.raises(ShapeError) as info:
        gnf(f, np.zeros(shape), X, NeighborhoodSpec())
    assert str(shape) in str(info.value) and "(3, 4)" in str(info.value)

