"""Two-objective min-norm solver and Pareto utilities.

For gradients g1 and g2, the convex combination d(a) = a*g1 + (1-a)*g2 with
minimal Euclidean norm has a closed form:

    a* = clip(((g2 - g1) . g2) / ||g1 - g2||^2, 0, 1)

The resulting direction is a common descent direction whenever it is
nonzero: d . g1 >= ||d||^2 and d . g2 >= ||d||^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError

DEGENERATE_DENOM = 1e-24
DEFAULT_STATIONARITY_TOL = 1e-6


@dataclass(frozen=True)
class AlphaSolution:
    """Weight on the first gradient, the combined norm there, and whether
    the unclipped optimum fell outside [0, 1]."""

    alpha: float
    combined_norm: float
    clipped: bool


def _pair(g1, g2) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(g1, dtype=np.float64)
    b = np.asarray(g2, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"gradient shapes differ: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericError("non-finite gradient passed to min-norm solver")
    return a, b


def solve_alpha(g1, g2) -> AlphaSolution:
    """Minimize ||a*g1 + (1-a)*g2|| over a in [0, 1].

    Near-identical gradients (squared distance below 1e-24) take a = 0.5;
    any weight gives the same direction there.
    """
    a, b = _pair(g1, g2)
    diff = a - b
    denom = float(diff @ diff)
    if denom < DEGENERATE_DENOM:
        alpha, clipped = 0.5, False
    else:
        raw = float((b - a) @ b) / denom
        alpha = float(np.clip(raw, 0.0, 1.0))
        clipped = raw != alpha
    norm = float(np.linalg.norm(alpha * a + (1.0 - alpha) * b))
    return AlphaSolution(alpha=alpha, combined_norm=norm, clipped=clipped)


def combine_direction(alpha: float, g1, g2) -> np.ndarray:
    """Convex combination alpha*g1 + (1-alpha)*g2."""
    a, b = _pair(g1, g2)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * a + (1.0 - alpha) * b


def is_pareto_stationary(g1, g2, tol: float = DEFAULT_STATIONARITY_TOL) -> bool:
    """True when the minimal-norm convex combination has norm <= tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return solve_alpha(g1, g2).combined_norm <= tol


def dominates(losses_a, losses_b) -> bool:
    """True when point a is no worse in every loss and strictly better in one.

    Both inputs are loss vectors, lower is better.
    """
    a = np.asarray(losses_a, dtype=np.float64)
    b = np.asarray(losses_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"loss vector shapes differ: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))
