"""A fixed reference computation that measures how fast the host runs now.

A host whose cores are shared with other machines changes speed by tens of
percent within seconds and over minutes: on a 2-core VM, a `paired-grid`
pass took 0.94 s in one stretch and 1.5 s in the next.  The timed run brackets
every command of a pass with runs of ``reference_kernel``, whose work never
changes, and reports the pass time as a multiple of the reference time
(``wall_norm``).
The host's speed cancels out of that ratio; the program's does not, since
the kernel is the benchmark's own code and calls nothing in ``tandem``.

The kernel does the kinds of work the workloads do, in the same process
with the same one-thread BLAS: MLP steps (10 -> 32 -> 32 -> 1, forward and
backward) on a 128-row batch and on the 1,400-row train split, and Adam
steps on 11-element vectors.  How much a slow stretch of the host slows
code depends on the code: measured next to `paired-grid` and `local-gnf`
passes, the small-vector steps alone slowed about 1.6 times as much as the
passes, and this mix (about half its time in the full-split steps) came
closest to them.
"""

from __future__ import annotations

import time

import numpy as np

LAYERS, BATCH, TRAIN, PHI = (10, 32, 32, 1), 128, 1400, 11
BATCH_STEPS, TRAIN_STEPS, SMALL_STEPS = 12, 3, 150
BETA1, BETA2, LR, EPS = 0.9, 0.999, 1e-3, 1e-8


def _mlp_steps(x: np.ndarray, y: np.ndarray, weights: list, steps: int) -> list:
    """Full-batch gradient steps of a tanh MLP on squared error."""
    weights = [w.copy() for w in weights]
    for _ in range(steps):
        acts = [x]
        for i, w in enumerate(weights):
            z = acts[-1] @ w
            acts.append(np.tanh(z) if i < len(weights) - 1 else z)
        delta = 2.0 * (acts[-1] - y) / len(y)
        for i in reversed(range(len(weights))):
            grad = acts[i].T @ delta
            if i:
                delta = (delta @ weights[i].T) * (1.0 - acts[i] ** 2)
            weights[i] = weights[i] - LR * grad
    return weights


def _small_adam(a: np.ndarray, b: np.ndarray, steps: int) -> np.ndarray:
    """Adam on an 11-element least-squares fit, one tiny step at a time."""
    phi, m, v = np.zeros(PHI), np.zeros(PHI), np.zeros(PHI)
    for t in range(1, steps + 1):
        grad = 2.0 * a.T @ (a @ phi - b) / len(b)
        if not np.isfinite(grad).all():
            raise FloatingPointError("reference gradient is not finite")
        m = BETA1 * m + (1.0 - BETA1) * grad
        v = BETA2 * v + (1.0 - BETA2) * grad * grad
        phi = phi - LR * (m / (1.0 - BETA1**t)) / (np.sqrt(v / (1.0 - BETA2**t)) + EPS)
    return phi


def reference_kernel() -> float:
    """Run the fixed work once; returns a checksum of its result."""
    rng = np.random.default_rng(20250310)
    x = rng.standard_normal((TRAIN, LAYERS[0]))
    y = rng.standard_normal((TRAIN, 1))
    weights = [0.3 * rng.standard_normal(shape) for shape in zip(LAYERS, LAYERS[1:])]
    batch = _mlp_steps(x[:BATCH], y[:BATCH], weights, BATCH_STEPS)
    train = _mlp_steps(x, y, weights, TRAIN_STEPS)
    phi = _small_adam(rng.standard_normal((PHI - 1, PHI)), rng.standard_normal(PHI - 1),
                      SMALL_STEPS)
    return float(sum(w.sum() for w in batch + train) + phi.sum())


def time_reference(budget_s: float, min_reps: int) -> list[float]:
    """Run the kernel at least ``min_reps`` times and until ``budget_s``
    has passed; returns the time of each run."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < budget_s:
        began = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - began)
    return times


def normalised(times: list[float], host: list[float]) -> list[float]:
    """Each time over the mean reference time around it: ``host[i]`` is
    the mean kernel time of the bracket run just before ``times[i]``, and
    ``host[i + 1]`` of the one just after."""
    if len(host) != len(times) + 1:
        raise ValueError("need one bracket before each time and one after the last")
    return [t / (0.5 * (host[i] + host[i + 1])) for i, t in enumerate(times)]
