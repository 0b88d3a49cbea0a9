"""Training procedures for the black-box model and its linear surrogate.

The joint trainers share one loop: each step first refines the surrogate by
an Adam step on the fidelity loss with the black-box held fixed, then moves
the black-box along a method-specific combination of the predictive and
fidelity gradients.  The min-norm solver picks that combination adaptively;
the weighted baselines fix it by schedule; the ablations decouple or
distill.  Stationarity is checked once per epoch on full-batch gradients,
screened by an exact lower bound, the min-norm of the last layer's
gradient block alone: the full backward passes run only on epochs whose
bound does not already rule a stop out.  Each joint method is one row of
a method table, and ``run_method`` trains every method, joint or not.

While a fit runs, the network and the surrogate are flat vectors stepped
in place by Adam; their model objects are built once, when it returns.

Metrics in a report are computed on the test split, falling back to all
rows when the dataset has no test rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import CLASSIFICATION, Dataset, TEST, TRAIN, subset
from .errors import NumericError
from .losses import (
    BCE,
    DISTILL,
    MSE,
    POINT_FIDELITY,
    loss_point_fidelity,
    loss_pred,
    upstream_derivative,
)
from .metrics import f1_score, global_fidelity, mse_metric
from .moo import (
    DEFAULT_STATIONARITY_TOL,
    combine_direction,
    is_pareto_stationary,
    solve_alpha,
)
from .nn import (
    BINARY_PROBABILITY,
    MlpModel,
    REGRESSION_SCALAR,
    _backward_cached,
    _forward_cached,
    _last_layer_backward,
    _param_views,
    adam_init,
    adam_step,
    flatten_params,
    forward_batch,
    init_mlp,
    sigmoid,
    unflatten_params,
)
from .seeding import rng_for
from .surrogate import (
    LinearSurrogate,
    _grad_flat,
    _predict_flat,
    surrogate_from_params,
)

MOO = "MOO"
STL = "STL"
UNI = "UNI"
GS = "GS"
RND = "RND"
LINEAR = "LINEAR"
JSEP = "JSEP"
JDIST = "JDIST"
METHODS = (MOO, STL, UNI, GS, RND, LINEAR, JSEP, JDIST)

STOP_STATIONARY = "stationary"
STOP_BUDGET = "budget"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by every training method.

    ``alpha`` only applies to GS.  ``inner_steps`` is the number of
    surrogate refinements per black-box step.  ``phi_max_epochs`` and
    ``phi_tol`` govern the surrogate-only fitting stage used by STL and by
    degenerate local fits.
    """

    method: str = MOO
    lr_theta: float = 1e-3
    lr_phi: float = 1e-3
    max_epochs: int = 200
    batch_size: int = 128
    seed: int = 0
    stationarity_tol: float = DEFAULT_STATIONARITY_TOL
    hidden: tuple[int, ...] = (32, 32)
    alpha: float | None = None
    inner_steps: int = 1
    phi_max_epochs: int = 4000
    phi_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.lr_theta <= 0 or self.lr_phi <= 0:
            raise ValueError("learning rates must be positive")
        if self.max_epochs < 1 or self.batch_size < 1 or self.inner_steps < 1:
            raise ValueError("max_epochs, batch_size, inner_steps must be >= 1")
        if self.method == GS:
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ValueError("GS requires alpha in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch loss trace plus final test metrics for one run.

    ``alpha_history`` holds each epoch's mean step weight on the predictive
    gradient.  ``gf`` is None for the linear-only method, where fidelity is
    zero by construction.  ``min_dot_pred``/``min_dot_pf`` track the
    smallest step-direction dot products with the two gradients.
    """

    method: str
    seed: int
    loss_pred_history: tuple[float, ...]
    loss_pf_history: tuple[float, ...]
    alpha_history: tuple[float, ...]
    epochs_run: int
    stopped_reason: str
    task_metric: float
    gf: float | None
    gnf: float | None = None
    min_dot_pred: float | None = None
    min_dot_pf: float | None = None


def report_to_dict(report: TrainReport) -> dict:
    """JSON-ready dictionary with all report fields."""
    return {
        "method": report.method,
        "seed": report.seed,
        "loss_pred_history": list(report.loss_pred_history),
        "loss_pf_history": list(report.loss_pf_history),
        "alpha_history": list(report.alpha_history),
        "epochs_run": report.epochs_run,
        "stopped_reason": report.stopped_reason,
        "task_metric": report.task_metric,
        "gf": report.gf,
        "gnf": report.gnf,
        "min_dot_pred": report.min_dot_pred,
        "min_dot_pf": report.min_dot_pf,
    }


def _pred_kind(dataset: Dataset) -> str:
    return BCE if dataset.task == CLASSIFICATION else MSE


def _output_kind(dataset: Dataset) -> str:
    return BINARY_PROBABILITY if dataset.task == CLASSIFICATION else REGRESSION_SCALAR


def _eval_rows(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    X, y = subset(dataset, TEST)
    if X.shape[0] == 0:
        return dataset.features, dataset.targets
    return X, y


def _batches(rng: np.random.Generator, n: int, batch_size: int):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def task_metric(outputs: np.ndarray, targets: np.ndarray, task: str) -> float:
    """Test-split score: F1 of thresholded outputs or plain MSE."""
    if task == CLASSIFICATION:
        return f1_score((np.asarray(outputs) >= 0.5).astype(np.float64), targets)
    return mse_metric(outputs, targets)


def _final_metrics(
    model: MlpModel, g: LinearSurrogate, dataset: Dataset
) -> tuple[float, float]:
    X, y = _eval_rows(dataset)
    metric = task_metric(forward_batch(model, X), y, dataset.task)
    return metric, global_fidelity(model, g, X)


MIN_NORM = "min-norm"
CONSTANT = "constant"
UNIFORM = "uniform"
PRED_ONLY = "pred-only"


@dataclass(frozen=True)
class _JointMethod:
    """One entry of the method table.

    ``weight`` is the rule for the weight on the predictive gradient:
    MIN_NORM solves for it each step, CONSTANT uses ``alpha``, UNIFORM
    draws it fresh each step, PRED_ONLY follows the predictive gradient
    alone.  With a ``teacher``, the gradient of the distillation loss
    toward the teacher's outputs is added to the predictive gradient.
    Without ``update_phi`` the surrogate stays at zero and the run skips
    the stationarity check, running to budget.
    """

    weight: str
    alpha: float = 0.5
    update_phi: bool = True
    teacher: MlpModel | None = None


_TABLE = {
    MOO: _JointMethod(MIN_NORM),
    UNI: _JointMethod(CONSTANT, alpha=0.5),
    GS: _JointMethod(CONSTANT),
    RND: _JointMethod(UNIFORM),
    JSEP: _JointMethod(PRED_ONLY),
    JDIST: _JointMethod(CONSTANT, alpha=0.5),
    STL: _JointMethod(PRED_ONLY, update_phi=False),
}


def _joint_method(config: TrainConfig, teacher: MlpModel | None = None) -> _JointMethod:
    """The table entry for ``config.method``, with GS's configured weight
    and JDIST's ``teacher`` filled in."""
    method = _TABLE[config.method]
    if config.method == GS:
        return replace(method, alpha=config.alpha)
    if config.method == JDIST:
        return replace(method, teacher=teacher)
    return method


def _direction(method: _JointMethod, g_first: np.ndarray, g_pf: np.ndarray,
               rng_alpha: np.random.Generator) -> tuple[np.ndarray, float]:
    if method.weight == PRED_ONLY:
        return g_first, 1.0
    if method.weight == MIN_NORM:
        alpha = solve_alpha(g_first, g_pf).alpha
    elif method.weight == UNIFORM:
        alpha = float(rng_alpha.uniform(0.0, 1.0))
    else:
        alpha = method.alpha
    return combine_direction(alpha, g_first, g_pf), alpha


def _phi_step(phi: np.ndarray, grad: np.ndarray, state, lr: float) -> None:
    """One in-place Adam step on a flat (phi, bias) vector."""
    adam_step(phi, grad, state, lr)
    if not np.isfinite(phi).all():
        raise NumericError("surrogate parameters must be finite")


def _joint_loop(
    dataset: Dataset,
    config: TrainConfig,
    method: _JointMethod,
    init_model: MlpModel | None = None,
) -> tuple[MlpModel, LinearSurrogate, TrainReport]:
    """Shared epoch/step loop for all joint training methods.

    The network lives in one flat vector ``theta``, the layers views into
    it, and the surrogate in ``phi``, its coefficients then bias.  Per
    step: one forward pass over the batch, whose output is the surrogate's
    fitting target for every inner step and whose caches feed the
    predictive and fidelity backward passes; ``method`` combines the two
    gradients and one Adam step moves ``theta``.  Per epoch: record
    full-batch losses and, when the surrogate is trained, stop if the
    full-batch gradient pair from that same forward is Pareto stationary.

    That check is screened.  The min-norm over any subset of the
    gradient entries is at most the min-norm over all of them, and the
    last layer's block is one layer's step of the backward pass, bit for
    bit the tail of the full gradient.  Only when the block's min-norm is
    within twice the tolerance, the factor covering rounding, do the full
    backward passes and the exact check run; otherwise the check would
    have returned False.  The report is tagged ``config.method``.
    """
    X, y = subset(dataset, TRAIN)
    kind = _pred_kind(dataset)
    if init_model is None:
        init_model = init_mlp(
            dataset.n_features, config.hidden, _output_kind(dataset),
            rng_for(config.seed, "init-theta"),
        )
    theta = flatten_params(init_model)
    params = _param_views(init_model, theta)
    phi = np.zeros(dataset.n_features + 1)
    theta_state = adam_init(theta.size)
    phi_state = adam_init(phi.size)
    rng_batch = rng_for(config.seed, "batch")
    rng_alpha = rng_for(config.seed, "alpha")
    # The teacher never changes: its train-split outputs are computed once.
    t_all = None if method.teacher is None else forward_batch(method.teacher, X)

    def gradients(rows, f_out, caches, g_out, backward=_backward_cached):
        """Predictive gradient, the same plus any distillation term, and
        fidelity gradient on train rows ``rows``, all from one cached
        forward; ``backward`` gives every gradient or its last layer's block."""
        g_pred = backward(params, caches, upstream_derivative(f_out, y[rows], kind))
        g_first = g_pred
        if t_all is not None:
            g_dist = backward(params, caches, upstream_derivative(f_out, t_all[rows], DISTILL))
            g_first = g_pred + g_dist
        g_pf = backward(params, caches, upstream_derivative(f_out, g_out, POINT_FIDELITY))
        return g_pred, g_first, g_pf

    pred_hist: list[float] = []
    pf_hist: list[float] = []
    alpha_hist: list[float] = []
    min_dot_pred = np.inf
    min_dot_pf = np.inf
    stopped = STOP_BUDGET

    for epoch in range(config.max_epochs):
        step_alphas: list[float] = []
        for batch in _batches(rng_batch, X.shape[0], config.batch_size):
            Xb = X[batch]
            f_out, caches = _forward_cached(params, Xb)
            if method.update_phi:
                for _ in range(config.inner_steps):
                    # The black-box output is the fitting target, never differentiated.
                    _phi_step(phi, _grad_flat(Xb, f_out - _predict_flat(phi, Xb)),
                              phi_state, config.lr_phi)
            g_pred, g_first, g_pf = gradients(batch, f_out, caches, _predict_flat(phi, Xb))
            d, alpha = _direction(method, g_first, g_pf, rng_alpha)
            min_dot_pred = min(min_dot_pred, float(d @ g_pred))
            min_dot_pf = min(min_dot_pf, float(d @ g_pf))
            adam_step(theta, d, theta_state, config.lr_theta)
            if not np.isfinite(theta).all():
                raise NumericError("layer parameters must be finite")
            step_alphas.append(alpha)

        out, caches = _forward_cached(params, X)
        g_out = _predict_flat(phi, X)
        lp = loss_pred(out, y, kind)
        lpf = loss_point_fidelity(out, g_out)
        if not (np.isfinite(lp) and np.isfinite(lpf)):
            raise NumericError(f"non-finite training loss at epoch {epoch}")
        pred_hist.append(lp)
        pf_hist.append(lpf)
        alpha_hist.append(float(np.mean(step_alphas)))
        if method.update_phi:
            _, ga, gb = gradients(slice(None), out, caches, g_out, _last_layer_backward)
            if not is_pareto_stationary(ga, gb, 2.0 * config.stationarity_tol):
                continue
            _, ga, gb = gradients(slice(None), out, caches, g_out)
            if is_pareto_stationary(ga, gb, config.stationarity_tol):
                stopped = STOP_STATIONARY
                break

    model = unflatten_params(init_model, theta)
    g = surrogate_from_params(phi)
    metric, gf = _final_metrics(model, g, dataset)
    report = TrainReport(
        method=config.method,
        seed=config.seed,
        loss_pred_history=tuple(pred_hist),
        loss_pf_history=tuple(pf_hist),
        alpha_history=tuple(alpha_hist),
        epochs_run=len(pred_hist),
        stopped_reason=stopped,
        task_metric=metric,
        gf=gf,
        min_dot_pred=float(min_dot_pred),
        min_dot_pf=float(min_dot_pf),
    )
    return model, g, report


def _fit_phi(X: np.ndarray, targets: np.ndarray, config: TrainConfig,
             history: list[np.ndarray] | None = None) -> tuple[np.ndarray, list[str]]:
    """Full-batch Adam fits of zero-initialised surrogates to fixed targets,
    one per batch of the stack X (K, N, d) with targets (K, N).

    A fit stops when its per-epoch loss decrease falls below ``phi_tol`` or
    after ``phi_max_epochs`` epochs, and leaves the working arrays, so the
    running fits share one Adam step count and each moves as it would
    alone.  Each epoch's residual serves both its stop test and the next
    epoch's gradient.  Returns the (K, d+1) parameters and each fit's stop
    reason; each epoch's losses of the running fits go to ``history``.
    """
    phi = np.zeros((X.shape[0], X.shape[2] + 1))
    result = np.empty_like(phi)
    running = np.arange(X.shape[0])
    state = adam_init(phi.shape)
    stopped = np.full(X.shape[0], STOP_BUDGET, dtype=object)
    # sum / N is np.mean's arithmetic without its per-call overhead.
    residual = targets - _predict_flat(phi, X)
    prev = (residual ** 2).sum(axis=-1) / X.shape[1]
    for _ in range(config.phi_max_epochs):
        _phi_step(phi, _grad_flat(X, residual), state, config.lr_phi)
        residual = targets - _predict_flat(phi, X)
        cur = (residual ** 2).sum(axis=-1) / X.shape[1]
        if history is not None:
            history.append(cur)
        done = prev - cur < config.phi_tol
        if done.any():
            result[running[done]] = phi[done]
            stopped[running[done]] = STOP_STATIONARY
            keep = ~done
            running, X, targets, residual, cur = (
                running[keep], X[keep], targets[keep], residual[keep], cur[keep])
            phi = phi[keep]
            state.first_moment = state.first_moment[keep]
            state.second_moment = state.second_moment[keep]
            if running.size == 0:
                break
        prev = cur
    result[running] = phi
    return result, list(stopped)


def train_stl(
    dataset: Dataset, config: TrainConfig
) -> tuple[MlpModel, LinearSurrogate, TrainReport]:
    """Sequential baseline: train the black-box, then fit the surrogate.

    Phase 1 runs predictive-only epochs to the full budget; phase 2 freezes
    the black-box and fits the surrogate to its outputs until the loss
    decrease drops below ``phi_tol``.  Phase-1 epochs are recorded with
    weight 1.0, phase-2 epochs with weight 0.0; ``stopped_reason`` reports
    the phase-2 outcome, with "stationary" meaning the tolerance was met.
    """
    model, _, phase1 = _joint_loop(dataset, config, _TABLE[STL])
    X, y = subset(dataset, TRAIN)
    outputs = forward_batch(model, X)
    history: list[np.ndarray] = []
    params, (stopped,) = _fit_phi(X[None], outputs[None], config, history)
    g = surrogate_from_params(params[0])
    pf_hist = [float(losses[0]) for losses in history]
    final_pred = loss_pred(outputs, y, _pred_kind(dataset))
    metric, gf = _final_metrics(model, g, dataset)
    report = TrainReport(
        method=STL,
        seed=config.seed,
        loss_pred_history=phase1.loss_pred_history + (final_pred,) * len(pf_hist),
        loss_pf_history=phase1.loss_pf_history + tuple(pf_hist),
        alpha_history=phase1.alpha_history + (0.0,) * len(pf_hist),
        epochs_run=phase1.epochs_run + len(pf_hist),
        stopped_reason=stopped,
        task_metric=metric,
        gf=gf,
        min_dot_pred=phase1.min_dot_pred,
        min_dot_pf=phase1.min_dot_pf,
    )
    return model, g, report


def train_linear(dataset: Dataset, config: TrainConfig) -> tuple[LinearSurrogate, TrainReport]:
    """Linear model used directly as the predictor.

    Classification wraps the linear score in a sigmoid and trains with
    cross-entropy; regression trains the raw score with squared error.
    Fidelity is zero by construction, so ``gf`` is None and the fidelity
    history records zeros.  Runs to the full epoch budget.
    """
    X, y = subset(dataset, TRAIN)
    phi = np.zeros(X.shape[1] + 1)
    state = adam_init(phi.size)
    rng_batch = rng_for(config.seed, "batch")
    classification = dataset.task == CLASSIFICATION
    pred_hist: list[float] = []

    for epoch in range(config.max_epochs):
        for batch in _batches(rng_batch, X.shape[0], config.batch_size):
            Xb, yb = X[batch], y[batch]
            scores = _predict_flat(phi, Xb)
            if classification:
                u = (sigmoid(scores) - yb) / Xb.shape[0]
            else:
                u = 2.0 * (scores - yb) / Xb.shape[0]
            grad = np.concatenate([Xb.T @ u, [float(np.sum(u))]])
            _phi_step(phi, grad, state, config.lr_phi)
        scores = _predict_flat(phi, X)
        outputs = sigmoid(scores) if classification else scores
        lp = loss_pred(outputs, y, _pred_kind(dataset))
        if not np.isfinite(lp):
            raise NumericError(f"non-finite training loss at epoch {epoch}")
        pred_hist.append(lp)

    X_eval, y_eval = _eval_rows(dataset)
    scores = _predict_flat(phi, X_eval)
    outputs = sigmoid(scores) if classification else scores
    report = TrainReport(
        method=LINEAR,
        seed=config.seed,
        loss_pred_history=tuple(pred_hist),
        loss_pf_history=(0.0,) * len(pred_hist),
        alpha_history=(1.0,) * len(pred_hist),
        epochs_run=len(pred_hist),
        stopped_reason=STOP_BUDGET,
        task_metric=task_metric(outputs, y_eval, dataset.task),
        gf=None,
    )
    return surrogate_from_params(phi), report


def _fit_local(neighborhoods: np.ndarray, targets: np.ndarray,
               config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares linear fits to targets (K, N) over neighborhoods
    (K, N, d): the (K, d+1) parameters and which fits were degenerate.

    Full-rank designs are solved exactly, one at a time; the rank-deficient
    ones fall back to one batched Adam fit from the zero surrogate.
    """
    design = np.concatenate(
        [neighborhoods, np.ones(neighborhoods.shape[:2] + (1,))], axis=2)
    degenerate = np.linalg.matrix_rank(design) < design.shape[2]
    params = np.empty((design.shape[0], design.shape[2]))
    for k in np.flatnonzero(~degenerate):
        params[k] = np.linalg.lstsq(design[k], targets[k], rcond=None)[0]
    if degenerate.any():
        params[degenerate] = _fit_phi(
            neighborhoods[degenerate], targets[degenerate], config)[0]
    return params, degenerate


def fit_local_surrogate(
    f: MlpModel,
    x: np.ndarray,
    neighborhood: np.ndarray,
    config: TrainConfig,
) -> tuple[LinearSurrogate, bool]:
    """Least-squares linear fit to f's outputs over one perturbation set.

    Full-rank designs are solved exactly; rank-deficient ones fall back to
    a deterministic Adam fit from the zero surrogate and are flagged as
    degenerate in the returned boolean.
    """
    nb = np.asarray(neighborhood, dtype=np.float64)
    if nb.ndim != 2 or nb.shape[1] != np.asarray(x).shape[0]:
        raise ValueError("neighborhood must be rows of perturbed copies of x")
    params, degenerate = _fit_local(nb[None], forward_batch(f, nb)[None], config)
    return surrogate_from_params(params[0]), bool(degenerate[0])


def local_surrogate_provider(config: TrainConfig):
    """Provider fitting a fresh local surrogate to every neighborhood of
    the stack, as one batched fit."""

    def provide(neighborhoods: np.ndarray, outputs: np.ndarray) -> np.ndarray:
        return _fit_local(neighborhoods, outputs, config)[0]

    return provide


def run_method(
    dataset: Dataset, config: TrainConfig
) -> tuple[MlpModel | None, LinearSurrogate, TrainReport]:
    """Train one run of ``config.method``.

    LINEAR and STL run their own procedures; every other method runs the
    joint loop with its table entry.  JDIST first trains its teacher with
    a predictive-only run at the same seed and starts from it.  The linear
    method returns None for the black-box slot.
    """
    if config.method == LINEAR:
        g, report = train_linear(dataset, config)
        return None, g, report
    if config.method == STL:
        return train_stl(dataset, config)
    teacher = None
    if config.method == JDIST:
        teacher, _, _ = _joint_loop(dataset, config, _TABLE[STL])
    return _joint_loop(dataset, config, _joint_method(config, teacher), init_model=teacher)
