"""Which public functions the traced run wraps, and the per-layer metrics.

Every metric is computed from the spans of one traced pass, except the
``data.*.self_s`` metrics, which come from the traced set-up because
dataset generation is set-up work.  The CLI builds its dataset again in
every pass; ``data.*.pass_self_s`` is that time, which falls in ``wall_norm``.
``self_s`` is a layer's span time minus the time of the traced calls it
made.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import SpanTable, Target
from workloads import Shape


def _rows(args, kwargs, result) -> float:
    return np.shape(args[1])[0]


def _adam_size(args, kwargs, result) -> float:
    return np.shape(args[0])[0]


def _returned_true(args, kwargs, result) -> float:
    return float(bool(result))


def _fell_back(args, kwargs, result) -> float:
    return float(bool(result[1]))


def _runs_dir_bytes(args, kwargs, result) -> float:
    """Size of ``<out_dir>/runs`` after the call.  A pass writes into a
    fresh out_dir, so after its last write this is every byte it wrote."""
    runs = os.path.join(args[0], "runs")
    return sum(entry.stat().st_size for entry in os.scandir(runs) if entry.is_file())


TARGETS = (
    Target("cli", "main"),
    Target("harness", "run_experiment"),
    Target("harness", "pareto_scan"),
    Target("harness", "evaluate_gnf"),
    Target("harness", "write_run_artifacts", _runs_dir_bytes),
    Target("data", "make_synthetic"),
    Target("data", "split"),
    Target("trainers", "run_method"),
    Target("trainers", "fit_local_surrogate", _fell_back),
    Target("metrics", "gnf"),
    Target("metrics", "make_neighborhood"),
    Target("metrics", "global_fidelity"),
    Target("moo", "solve_alpha"),
    Target("moo", "combine_direction"),
    Target("moo", "is_pareto_stationary", _returned_true),
    Target("losses", "upstream_derivative"),
    Target("losses", "loss_pred"),
    Target("losses", "loss_point_fidelity"),
    Target("surrogate", "predict_batch"),
    Target("surrogate", "surrogate_grad"),
    Target("surrogate", "surrogate_from_params"),
    Target("nn", "forward_batch", _rows),
    Target("nn", "mlp_backward", _rows),
    Target("nn", "adam_step", _adam_size),
    Target("nn", "flatten_params"),
    Target("nn", "unflatten_params"),
)

SELF_TIME = tuple(t.name for t in TARGETS if t.module != "data")
SETUP_SELF_TIME = tuple(t.name for t in TARGETS if t.module == "data")
CALLS = ("nn.forward_batch", "nn.mlp_backward", "nn.adam_step",
         "moo.is_pareto_stationary", "moo.solve_alpha", "trainers.run_method",
         "trainers.fit_local_surrogate", "harness.write_run_artifacts")
# Units of every per-layer metric; BENCHMARK.json lists the same names.
UNITS = {
    **{f"{name}.self_s": "s" for name in SELF_TIME + SETUP_SELF_TIME},
    **{f"{name}.pass_self_s": "s" for name in SETUP_SELF_TIME},
    **{f"{name}.calls": "count" for name in CALLS},
    "nn.forward_batch.rows": "count",
    "nn.mlp_backward.rows": "count",
    "nn.forward_passes_per_step": "calls/step",
    "nn.backward_passes_per_step": "calls/step",
    "nn.flops_per_step": "flop/step",
    "nn.full_batch.self_s": "s",
    "moo.is_pareto_stationary.fire_ratio": "ratio",
    "trainers.theta_steps": "count",
    "trainers.run_method.max_s": "s",
    "trainers.fit_local_surrogate.fallback_ratio": "ratio",
    "harness.write_run_artifacts.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: SpanTable, shape: Shape, pass_run: int, setup_run: int,
                  overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric from one traced pass and the traced set-up."""
    self_time = spans.self_time()
    count = spans.count
    values: dict[str, float] = {"trace.overhead_ratio": overhead_ratio}
    for name in SELF_TIME:
        values[f"{name}.self_s"] = float(self_time[spans.mask(name, pass_run)].sum())
    for name in SETUP_SELF_TIME:
        values[f"{name}.self_s"] = float(self_time[spans.mask(name, setup_run)].sum())
        values[f"{name}.pass_self_s"] = float(self_time[spans.mask(name, pass_run)].sum())
    for name in CALLS:
        values[f"{name}.calls"] = float(spans.mask(name, pass_run).sum())

    forward = spans.mask("nn.forward_batch", pass_run)
    backward = spans.mask("nn.mlp_backward", pass_run)
    adam = spans.mask("nn.adam_step", pass_run)
    values["nn.forward_batch.rows"] = float(count[forward].sum())
    values["nn.mlp_backward.rows"] = float(count[backward].sum())

    # A theta step is an Adam step on the network, not on the surrogate.
    steps = float(np.sum(adam & (count != shape.phi_size)))
    step_forward = forward & (count <= shape.batch_size)
    step_backward = backward & (count <= shape.batch_size)
    values["trainers.theta_steps"] = steps
    values["nn.forward_passes_per_step"] = _share(step_forward.sum(), steps)
    values["nn.backward_passes_per_step"] = _share(step_backward.sum(), steps)
    # Matmul flops implied by the call shapes: 2 per multiply-add forward,
    # 4 backward (gradients for the weights and for the layer inputs).
    flops = 2 * shape.weights * (count[step_forward].sum()
                                 + 2 * count[step_backward].sum())
    values["nn.flops_per_step"] = _share(float(flops), steps)
    full = (forward | backward) & (count == shape.n_train)
    values["nn.full_batch.self_s"] = float(self_time[full].sum())

    checks = spans.mask("moo.is_pareto_stationary", pass_run)
    values["moo.is_pareto_stationary.fire_ratio"] = _share(count[checks].sum(), checks.sum())
    fits = spans.mask("trainers.fit_local_surrogate", pass_run)
    values["trainers.fit_local_surrogate.fallback_ratio"] = _share(
        count[fits].sum(), fits.sum())
    runs = spans.mask("trainers.run_method", pass_run)
    values["trainers.run_method.max_s"] = float(spans.duration[runs].max(initial=0.0))
    writes = spans.mask("harness.write_run_artifacts", pass_run)
    values["harness.write_run_artifacts.bytes"] = float(count[writes].max(initial=0.0))
    return values
