from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads it, so that an
# experiment's seeds, cut into slices, train in worker processes
# (harness._train_seeds) on the cores one thread leaves idle, as they do
# under the benchmark.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and have no deadline.
settings.register_profile("tandem", derandomize=True, deadline=None)
settings.load_profile("tandem")


def central_diff(fn, x, h=1e-5):
    """Central finite differences of a scalar function at a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return grad


def reference_adam_init(n):
    """State (first moment, second moment, step count) for ``reference_adam``."""
    return np.zeros(n), np.zeros(n), 0


def reference_adam(params, grad, state, lr):
    """Functional Adam with bias correction, written apart from
    ``tandem.nn.adam_step``: returns (new_params, new_state) and leaves
    its inputs untouched."""
    m, v, t = state
    t += 1
    m = 0.9 * m + (1.0 - 0.9) * grad
    v = 0.999 * v + (1.0 - 0.999) * grad * grad
    m_hat = m / (1.0 - 0.9**t)
    v_hat = v / (1.0 - 0.999**t)
    return params - lr * m_hat / (np.sqrt(v_hat) + 1e-8), (m, v, t)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
