from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tandem.errors import ShapeError
from tandem.moo import (
    DEFAULT_STATIONARITY_TOL,
    DEGENERATE_DENOM,
    AlphaSolution,
    combine_direction,
    dominates,
    is_pareto_stationary,
    solve_alpha,
)


def grid_best_alpha(g1, g2, step=1e-4):
    alphas = np.arange(0.0, 1.0 + step / 2, step)
    a = float(g1 @ g1)
    b = float(g1 @ g2)
    c = float(g2 @ g2)
    norms = alphas**2 * a + 2 * alphas * (1 - alphas) * b + (1 - alphas) ** 2 * c
    idx = int(np.argmin(norms))
    return float(alphas[idx]), float(norms[idx])


def test_orthogonal_case_matches_analytic_minimum():
    solution = solve_alpha(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    assert isinstance(solution, AlphaSolution)
    assert solution.alpha == pytest.approx(0.8, abs=1e-12)
    assert not solution.clipped


def test_equal_gradients_fall_back_to_half():
    v = np.array([3.0, -4.0])
    solution = solve_alpha(v, v.copy())
    assert solution.alpha == 0.5
    assert solution.combined_norm == pytest.approx(5.0, abs=1e-12)
    assert not solution.clipped


def test_opposed_gradients_are_stationary_at_half():
    v = np.array([3.0, -4.0])
    solution = solve_alpha(v, -v)
    assert solution.alpha == pytest.approx(0.5, abs=1e-12)
    assert solution.combined_norm == pytest.approx(0.0, abs=1e-12)


def test_alpha_matches_grid_search_on_random_pairs(rng):
    for _ in range(50):
        dim = int(rng.integers(2, 11))
        g1 = rng.standard_normal(dim) * float(rng.uniform(0.1, 5.0))
        g2 = rng.standard_normal(dim) * float(rng.uniform(0.1, 5.0))
        solution = solve_alpha(g1, g2)
        _, grid_norm_sq = grid_best_alpha(g1, g2)
        assert solution.combined_norm**2 <= grid_norm_sq + 1e-9


def test_clipping_flags_dominant_gradient_cases():
    # g2 much smaller and nearly parallel: unclipped optimum sits outside [0,1]
    g1 = np.array([10.0, 0.0])
    g2 = np.array([0.01, 0.0])
    low = solve_alpha(g1, g2)
    assert low.alpha == 0.0
    assert low.clipped
    high = solve_alpha(g2, g1)
    assert high.alpha == 1.0
    assert high.clipped


def test_combined_norm_reports_norm_at_chosen_alpha(rng):
    g1 = rng.standard_normal(6)
    g2 = rng.standard_normal(6)
    solution = solve_alpha(g1, g2)
    direction = solution.alpha * g1 + (1 - solution.alpha) * g2
    assert solution.combined_norm == pytest.approx(np.linalg.norm(direction), abs=1e-12)


def test_combine_direction_endpoints():
    g1 = np.array([1.0, 2.0])
    g2 = np.array([-3.0, 4.0])
    assert np.array_equal(combine_direction(1.0, g1, g2), g1)
    assert np.array_equal(combine_direction(0.0, g1, g2), g2)


def test_combine_direction_arithmetic_case():
    d = combine_direction(0.8, np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    assert np.allclose(d, np.array([0.8, 0.4]), atol=1e-15)


def test_combine_direction_rejects_alpha_outside_unit_interval():
    g = np.array([1.0])
    with pytest.raises(ValueError):
        combine_direction(1.5, g, g)
    with pytest.raises(ValueError):
        combine_direction(-0.1, g, g)


def test_min_norm_favors_the_smaller_gradient():
    tiny = np.array([1e-6, 0.0])
    big = np.array([5.0, 5.0])
    solution = solve_alpha(tiny, big)
    direction = combine_direction(solution.alpha, tiny, big)
    assert solution.alpha > 0.99
    assert np.linalg.norm(direction) <= np.linalg.norm(tiny) + 1e-12


def test_stationary_when_both_gradients_vanish():
    z = np.zeros(4)
    assert is_pareto_stationary(z, z, tol=1e-12)
    assert is_pareto_stationary(z, z, tol=10.0)


def test_stationary_when_gradients_oppose():
    v = np.array([2.0, -1.0, 0.5])
    assert is_pareto_stationary(v, -v)


def test_not_stationary_for_orthogonal_gradients():
    g1 = np.array([1.0, 0.0])
    g2 = np.array([0.0, 2.0])
    assert not is_pareto_stationary(g1, g2, tol=1e-3)
    norm = solve_alpha(g1, g2).combined_norm
    assert norm == pytest.approx(np.sqrt(0.64 + 0.16), abs=1e-12)


def test_stationarity_tolerance_must_be_positive():
    v = np.array([1.0])
    with pytest.raises(ValueError):
        is_pareto_stationary(v, v, tol=0.0)
    assert DEFAULT_STATIONARITY_TOL == 1e-6


def test_solver_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        solve_alpha(np.zeros(3), np.zeros(4))


def test_dominates_strictly_better_everywhere():
    assert dominates(np.array([0.1, 0.1]), np.array([0.2, 0.2]))


def test_dominates_incomparable_pair_is_false():
    assert not dominates(np.array([0.1, 0.3]), np.array([0.2, 0.2]))
    assert not dominates(np.array([0.2, 0.2]), np.array([0.1, 0.3]))


def test_dominates_requires_strict_improvement_somewhere():
    a = np.array([0.2, 0.2])
    assert not dominates(a, a.copy())
    assert dominates(np.array([0.2, 0.1]), a)


COMPONENTS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
GRADIENT_PAIRS = st.integers(1, 8).flatmap(
    lambda n: st.tuples(*[st.lists(COMPONENTS, min_size=n, max_size=n)] * 2))


@given(GRADIENT_PAIRS)
def test_min_norm_direction_descends_on_both_gradients(pair):
    """d.g1 >= |d|^2 and d.g2 >= |d|^2, up to a tolerance stated in two
    parts: rounding, 1e-9 of |g1|^2 + |g2|^2; and, when the gradients are
    within sqrt(DEGENERATE_DENOM) of each other and the solver takes the
    weight 0.5 instead of solving, the |d| * sqrt(DEGENERATE_DENOM) slack
    that choice allows."""
    g1, g2 = (np.asarray(g, dtype=np.float64) for g in pair)
    d = combine_direction(solve_alpha(g1, g2).alpha, g1, g2)
    tol = (1e-9 * float(g1 @ g1 + g2 @ g2)
           + float(np.linalg.norm(d)) * np.sqrt(DEGENERATE_DENOM))
    assert float(d @ g1) >= float(d @ d) - tol
    assert float(d @ g2) >= float(d @ d) - tol
