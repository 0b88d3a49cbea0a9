"""Training procedures for the black-box model and its linear surrogate.

The joint trainers share one loop: each step first refines the surrogate by
an Adam step on the fidelity loss with the black-box held fixed, then moves
the black-box along a method-specific combination of the predictive and
fidelity gradients.  The min-norm solver picks that combination adaptively;
the weighted baselines fix it by schedule; the ablations decouple or
distill.  Stationarity is checked once per epoch on full-batch gradients,
screened by an exact lower bound, the min-norm of the last layer's
gradient block alone: the full backward pass runs only on epochs whose
bound does not already rule a stop out.  Each joint method is one row of
a method table.

``run_methods`` trains a list of runs.  Runs that share a dataset and
every setting apart from the method and its weight train in lockstep:
the loop holds their networks and surrogates as stacks, one row per run,
except that JSEP shares the predictive-only row's network, and every run
moves bit for bit as it would alone.  A stack that
raises trains each of its runs again alone, so every run ends with the
result or the error it has alone.  ``run_method`` is the one-run case.

While a fit runs, the networks and the surrogates are flat rows stepped
in place by Adam; their model objects are built once, when a run ends.
STL's phase 2 fits its surrogate to the frozen network by full-batch Adam.
``fit_local_surrogate`` is a one-instance view of the closed-form local
fit of :func:`tandem.metrics.local_surrogates`, which local GNF uses.

Metrics in a report are computed on the test split, falling back to all
rows when the dataset has no test rows.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .data import CLASSIFICATION, Dataset, TEST, TRAIN, subset
from .errors import NumericError, caught
from .losses import (
    BCE,
    DISTILL,
    MSE,
    POINT_FIDELITY,
    _check_bce_targets,
    _upstream,
    loss_point_fidelity,
    loss_pred,
)
from .metrics import _fit_local, f1_score, mse_metric
from .moo import DEFAULT_STATIONARITY_TOL, _alpha, _check_alpha, is_pareto_stationary
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
    predict_batch,
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


# The numeric fields of TrainConfig and the types each accepts; none accepts a bool.
_NUMBER_FIELDS = {
    **dict.fromkeys(("seed", "max_epochs", "batch_size", "inner_steps", "phi_max_epochs"),
                    numbers.Integral),
    **dict.fromkeys(("lr_theta", "lr_phi", "stationarity_tol", "phi_tol"), numbers.Real),
    "alpha": (numbers.Real, type(None)),
}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by every training method.

    ``alpha`` only applies to GS.  ``inner_steps`` is the number of
    surrogate refinements per black-box step.  ``phi_max_epochs`` and
    ``phi_tol`` govern STL's surrogate-only phase 2 and nothing else; a
    ``phi_tol`` of -inf never stops it early.
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
        for name, kind in _NUMBER_FIELDS.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise TypeError(f"{name} has the wrong type: {value!r}")
        if not (0.0 < self.lr_theta < np.inf and 0.0 < self.lr_phi < np.inf):
            raise ValueError("learning rates must be positive and finite")
        if min(self.max_epochs, self.batch_size, self.inner_steps, self.phi_max_epochs) < 1:
            raise ValueError("max_epochs, batch_size, inner_steps, phi_max_epochs must be >= 1")
        if np.isnan(self.phi_tol):
            raise ValueError("phi_tol must not be NaN")
        if self.method == GS:
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ValueError("GS requires alpha in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.stationarity_tol > 0:
            raise ValueError("stationarity_tol must be positive")
        if any(width < 1 for width in self.hidden):
            raise ValueError("hidden layer widths must be >= 1")


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
    out = forward_batch(model, X)
    return task_metric(out, y, dataset.task), loss_point_fidelity(out, predict_batch(g, X))


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
    alone.  Without ``update_phi`` the surrogate stays at zero and the run
    skips the stationarity check, running to budget.  JDIST's distillation
    term comes from the teacher its lockstep stage is given.
    """

    weight: str
    alpha: float = 0.5
    update_phi: bool = True


_TABLE = {
    MOO: _JointMethod(MIN_NORM),
    UNI: _JointMethod(CONSTANT, alpha=0.5),
    GS: _JointMethod(CONSTANT),
    RND: _JointMethod(UNIFORM),
    JSEP: _JointMethod(PRED_ONLY),
    JDIST: _JointMethod(CONSTANT, alpha=0.5),
    STL: _JointMethod(PRED_ONLY, update_phi=False),
}


def _joint_method(config: TrainConfig) -> _JointMethod:
    """The table entry for ``config.method``, with GS's configured weight."""
    method = _TABLE[config.method]
    if config.method == GS:
        return replace(method, alpha=config.alpha)
    return method


def _step_weight(row: "_Row", g_first: np.ndarray, g_pf: np.ndarray) -> float:
    """This step's weight on the predictive gradient for one row."""
    if row.method.weight == PRED_ONLY:
        return 1.0
    if row.method.weight == MIN_NORM:
        return _alpha(g_first, g_pf)[0]
    if row.method.weight == UNIFORM:
        return float(row.rng_alpha.uniform(0.0, 1.0))
    return row.method.alpha


def _phi_step(phi: np.ndarray, grad: np.ndarray, state, lr: float) -> None:
    """One in-place Adam step on a flat (phi, bias) vector."""
    adam_step(phi, grad, state, lr)
    if not np.isfinite(phi).all():
        raise NumericError("surrogate parameters must be finite")


@dataclass(eq=False)
class _Row:
    """One run of a lockstep stack: its place in the caller's list, its
    own weight stream, what it has recorded so far and, for a rider, the
    row whose network it shares."""

    index: int
    config: TrainConfig
    method: _JointMethod
    rng_alpha: np.random.Generator
    host: "_Row | None" = None
    pred_hist: list[float] = field(default_factory=list)
    pf_hist: list[float] = field(default_factory=list)
    alpha_hist: list[float] = field(default_factory=list)
    step_alphas: list[float] = field(default_factory=list)
    min_dot_pred: float = np.inf
    min_dot_pf: float = np.inf


def _joint_loop(
    dataset: Dataset,
    configs: list[TrainConfig],
    init_model: MlpModel | None = None,
    teacher: MlpModel | None = None,
) -> list:
    """The epoch/step loop of every joint method, for K runs in lockstep.

    The runs share the dataset and every ``TrainConfig`` field apart from
    ``method`` and ``alpha``, so they share the initial network, the batch
    stream and the step count.  The networks live in one (K, P) stack
    ``theta``, the layers (K, out, in) and (K, out) views into it, and the
    surrogates in a (K, d+1) stack ``phi``, coefficients then bias; each
    stack has one flat Adam state, stepped through a flat view of the
    stack, since Adam is element-wise and every row shares its step count.  With a ``teacher``, every run adds the
    gradient of the distillation loss toward its outputs to the predictive
    gradient.

    Per step: one stacked forward pass over the shared batch, whose output
    is the surrogates' fitting target for every inner step, and one
    backward pass of its caches on the step's upstreams.  Each row's weight
    comes from its method; the min-norm solve and the descent dot products
    stay one call per row, on views.  The directions
    combine element-wise on the stack and one Adam step moves ``theta``.
    Every stacked matmul is one gemm per row, so each row is bit-identical
    to a run alone.

    Per epoch, network by network, since a stacked pass over the whole
    train split holds K times its activations and was not faster: one
    forward, from which each run on the network records its full-batch
    losses and, when it trains its surrogate, stops if its full-batch
    gradient pair from that forward is Pareto stationary.
    That check is screened.  The min-norm over any subset of the gradient
    entries is at most the min-norm over all of them, and the last layer's
    block is one layer's step of the backward pass, bit for bit the tail
    of the full gradient.  Only when the block's min-norm is within twice
    the tolerance, the factor covering rounding, do the full backward
    pass, from the same upstreams, and the exact check run; otherwise the
    check would have returned False.

    A JSEP run in a stack with a predictive-only (STL) row rides that row,
    whose network is its own bit for bit: ``theta`` holds one row per
    network, ``phi`` one per run with the riders last.  Each step a rider's
    surrogate fits its host's outputs, and one more backward pass of its
    fidelity upstream through the host's caches gives its ``min_dot_pf``;
    each epoch it shares its host's full-split forward.  Its network,
    ``loss_pred`` and weight histories and ``min_dot_pred`` are the host's,
    read when it stops, while the host trains on.

    A run that stops leaves the stack; the rest go on unchanged.  Any
    error ends the whole stack: the loop raises it, with the message a run
    alone raises at the same check, and :func:`_stage` trains the runs
    again alone.  Returns, in the order of ``configs``, each run's (model,
    surrogate, report), tagged with its ``config.method``.
    """
    X, y = subset(dataset, TRAIN)
    kind = _pred_kind(dataset)
    shared = configs[0]
    if init_model is None:
        init_model = init_mlp(
            dataset.n_features, shared.hidden, _output_kind(dataset),
            rng_for(shared.seed, "init-theta"),
        )
    # y and the teacher's outputs never change, so they are checked once, not every step.
    t_all = None if teacher is None else forward_batch(teacher, X)
    if not (np.isfinite(y).all() and (t_all is None or np.isfinite(t_all).all())):
        raise NumericError("non-finite loss inputs")
    if kind == BCE:
        _check_bce_targets(y)
    runs = [_Row(i, c, _joint_method(c), rng_for(c.seed, "alpha"))
            for i, c in enumerate(configs)]
    # JSEP's network is the predictive-only row's, bit for bit: it rides that row.
    host = next((run for run in runs if run.config.method == STL), None)
    for run in runs:
        run.host = host if run.config.method == JSEP else None
    rows = [run for run in runs if run.host is None]
    riders = [run for run in runs if run.host is not None]
    theta = np.tile(flatten_params(init_model), (len(rows), 1))
    params = _param_views(init_model, theta)
    phi = np.zeros((len(runs), dataset.n_features + 1))
    theta_state = adam_init(theta.size)
    phi_state = adam_init(phi.size)
    rng_batch = rng_for(shared.seed, "batch")
    results: list = [None] * len(configs)
    ended: dict[_Row, str] = {}

    def masks() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The indices of the rows that keep their surrogate fixed, that
        follow the predictive gradient alone and that mix in the fidelity's,
        and the network row of each surrogate row, riders last."""
        pred = np.array([row.method.weight == PRED_ONLY for row in rows], dtype=bool)
        return (np.flatnonzero([not row.method.update_phi for row in rows]),
                np.flatnonzero(pred), np.flatnonzero(~pred),
                np.array([rows.index(run.host or run) for run in rows + riders], dtype=int))

    fixed, pred_only, mixing, owners = masks()

    def network(k: int, caches=()) -> tuple[list, list]:
        """Network row k's layers and its caches in a stacked forward's."""
        return ([(weight[k], bias[k], activation) for weight, bias, activation in params],
                [(a if a.ndim == 2 else a[k], z[k], a_out[k]) for a, z, a_out in caches])

    def upstreams(f_out, rows, g_out) -> np.ndarray:
        """The predictive, any distillation and the fidelity upstreams on train
        rows ``rows`` of one forward, stacked on a leading axis for one
        backward pass: (m, K, N) for a stack, (m, N) for one network.  Both
        forwards' outputs are checked here, and only here in a step."""
        if not (np.isfinite(f_out).all() and np.isfinite(g_out).all()):
            raise NumericError("non-finite loss inputs")
        parts = [_upstream(f_out, y[rows], kind)]
        if t_all is not None:
            parts.append(_upstream(f_out, t_all[rows], DISTILL))
        parts.append(_upstream(f_out, g_out, POINT_FIDELITY))
        return np.stack(parts)

    def pair(grads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(g_first, g_pf) from the gradients of :func:`upstreams`: predictive
        plus any distillation term, and fidelity."""
        return (grads[0] if t_all is None else grads[0] + grads[1]), grads[-1]

    def end_epoch(epoch: int, k: int) -> None:
        """Network k's full-split pass, shared by the runs on it: record each
        run's losses and mean weight, and end the runs that are Pareto stationary."""
        net, _ = network(k)
        out, caches = _forward_cached(net, X)
        for row, owner, phi_row in zip(rows + riders, owners, phi):
            if owner != k:
                continue
            g_out = _predict_flat(phi_row, X)
            # A rider's loss_pred is its host's, recorded just before.
            lp = loss_pred(out, y, kind) if row.host is None else row.host.pred_hist[-1]
            lpf = loss_point_fidelity(out, g_out)
            if not (np.isfinite(lp) and np.isfinite(lpf)):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            if row.host is None:
                row.pred_hist.append(lp)
                row.alpha_hist.append(float(np.mean(row.step_alphas)))
            row.pf_hist.append(lpf)
            if not row.method.update_phi:
                continue
            tol = row.config.stationarity_tol
            u = upstreams(out, slice(None), g_out)
            if (is_pareto_stationary(*pair(_last_layer_backward(net, caches, u)), 2.0 * tol)
                    and is_pareto_stationary(*pair(_backward_cached(net, caches, u)), tol)):
                ended[row] = STOP_STATIONARY

    def finish(row: _Row, stopped: str) -> None:
        """Record a run, stopped for the reason ``stopped``; a rider's network,
        direction and histories are its host's as they are now."""
        net = row.host or row
        model = unflatten_params(init_model, theta[rows.index(net)])
        g = surrogate_from_params(phi[(rows + riders).index(row)])
        metric, gf = _final_metrics(model, g, dataset)
        results[row.index] = (model, g, TrainReport(
            method=row.config.method,
            seed=row.config.seed,
            loss_pred_history=tuple(net.pred_hist),
            loss_pf_history=tuple(row.pf_hist),
            alpha_history=tuple(net.alpha_hist),
            epochs_run=len(net.pred_hist),
            stopped_reason=stopped,
            task_metric=metric,
            gf=gf,
            min_dot_pred=float(net.min_dot_pred),
            min_dot_pf=float(row.min_dot_pf),
        ))

    def settle() -> None:
        """Finish the ended runs and drop them from the stacks.  A host keeps
        its surrogate fixed, so it never stops before the budget, and so
        never before its riders."""
        nonlocal rows, riders, theta, phi, params, fixed, pred_only, mixing, owners
        for run, stopped in ended.items():
            finish(run, stopped)
        keep_theta = np.array([row not in ended for row in rows], dtype=bool)
        keep_phi = np.array([run not in ended for run in rows + riders], dtype=bool)
        ended.clear()
        rows = [row for row, kept in zip(rows, keep_theta) if kept]
        riders = [run for run, kept in zip(riders, keep_phi[len(keep_theta):]) if kept]
        for state, stack, keep in ((theta_state, theta, keep_theta), (phi_state, phi, keep_phi)):
            state.first_moment = state.first_moment.reshape(stack.shape)[keep].ravel()
            state.second_moment = state.second_moment.reshape(stack.shape)[keep].ravel()
        theta, phi = theta[keep_theta], phi[keep_phi]
        params = _param_views(init_model, theta)
        fixed, pred_only, mixing, owners = masks()

    for epoch in range(shared.max_epochs):
        for row in rows:
            row.step_alphas.clear()
        for batch in _batches(rng_batch, X.shape[0], shared.batch_size):
            Xb = X[batch]
            f_out, caches = _forward_cached(params, Xb)
            if fixed.size < len(owners):
                # Each surrogate fits its network's output, never differentiated.
                targets = f_out[owners] if riders else f_out
                for _ in range(shared.inner_steps):
                    grad = _grad_flat(Xb, targets - _predict_flat(phi, Xb))
                    if fixed.size:
                        # A zero step leaves a fixed surrogate and its moments at zero.
                        grad[fixed] = 0.0
                    _phi_step(phi.reshape(-1), grad.reshape(-1), phi_state, shared.lr_phi)
            grads = _backward_cached(params, caches,
                                     upstreams(f_out, batch, _predict_flat(phi[:len(rows)], Xb)))
            g_first, g_pf = pair(grads)
            # A mixing row's gradient pair is the min-norm solver's input.
            if not (np.isfinite(g_first[mixing]).all() and np.isfinite(g_pf[mixing]).all()):
                raise NumericError("non-finite gradient passed to min-norm solver")
            alphas = np.empty(len(rows))
            for k, row in enumerate(rows):
                alphas[k] = _step_weight(row, g_first[k], g_pf[k])
                _check_alpha(alphas[k])
            if pred_only.size == len(rows):
                d = g_first
            else:
                d = alphas[:, None] * g_first + (1.0 - alphas)[:, None] * g_pf
                if pred_only.size:
                    # Exactly g_first: 1.0 * a + 0.0 * b is not a where b is not finite.
                    d[pred_only] = g_first[pred_only]
            for row, alpha, d_row, a, b in zip(rows, alphas, d, grads[0], g_pf):
                row.min_dot_pred = min(row.min_dot_pred, float(d_row @ a))
                row.min_dot_pf = min(row.min_dot_pf, float(d_row @ b))
                row.step_alphas.append(float(alpha))
            for rider, k, phi_rider in zip(riders, owners[len(rows):], phi[len(rows):]):
                # The rider's fidelity gradient, through its host's caches.
                g_rider = _predict_flat(phi_rider, Xb)
                if not np.isfinite(g_rider).all():
                    raise NumericError("non-finite loss inputs")
                u = _upstream(f_out[k], g_rider, POINT_FIDELITY)
                b = _backward_cached(*network(k, caches), u)
                rider.min_dot_pf = min(rider.min_dot_pf, float(d[k] @ b))
            adam_step(theta.reshape(-1), d.reshape(-1), theta_state, shared.lr_theta)
            if not np.isfinite(theta).all():
                raise NumericError("layer parameters must be finite")
        for k in range(len(rows)):
            end_epoch(epoch, k)
        if ended:
            settle()
        if not rows:
            break
    ended.update(dict.fromkeys(rows + riders, STOP_BUDGET))
    settle()
    return results


def _fit_phi(X: np.ndarray, targets: np.ndarray, config: TrainConfig,
             history: list[float]) -> tuple[np.ndarray, str]:
    """Full-batch Adam fit of a zero-initialised surrogate to fixed targets.

    The fit stops when its per-epoch loss decrease falls below ``phi_tol``
    or after ``phi_max_epochs`` epochs.  Each epoch's residual serves both
    its stop test and the next epoch's gradient.  Returns the (d+1)
    parameters and the stop reason; each epoch's loss goes to ``history``.
    """
    phi = np.zeros(X.shape[1] + 1)
    state = adam_init(phi.size)
    # sum / N is np.mean's arithmetic without its per-call overhead.
    residual = targets - _predict_flat(phi, X)
    prev = (residual ** 2).sum() / X.shape[0]
    for _ in range(config.phi_max_epochs):
        _phi_step(phi, _grad_flat(X, residual), state, config.lr_phi)
        residual = targets - _predict_flat(phi, X)
        cur = (residual ** 2).sum() / X.shape[0]
        history.append(float(cur))
        if prev - cur < config.phi_tol:
            return phi, STOP_STATIONARY
        prev = cur
    return phi, STOP_BUDGET


def _fit_stl_surrogate(dataset: Dataset, config: TrainConfig, pred_run: tuple
                       ) -> tuple[MlpModel, LinearSurrogate, TrainReport]:
    """STL's phase 2 on its phase 1, the predictive-only run ``pred_run``."""
    model, _, phase1 = pred_run
    X, y = subset(dataset, TRAIN)
    outputs = forward_batch(model, X)
    pf_hist: list[float] = []
    params, stopped = _fit_phi(X, outputs, config, pf_hist)
    g = surrogate_from_params(params)
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


def fit_local_surrogate(
    f: MlpModel,
    x: np.ndarray,
    neighborhood: np.ndarray,
) -> tuple[LinearSurrogate, bool]:
    """Least-squares linear fit to f's outputs over one perturbation set.

    A full-rank design is solved exactly and a rank-deficient one by its
    minimum-norm solution, flagged as degenerate in the returned boolean.
    Local GNF fits every instance at once through
    :func:`tandem.metrics.local_surrogates` and never calls this;
    it stays because the benchmark traces it by name, until a change to
    the benchmark drops that trace.
    """
    nb = np.asarray(neighborhood, dtype=np.float64)
    if nb.ndim != 2 or nb.shape[1] != np.asarray(x).shape[0]:
        raise ValueError("neighborhood must be rows of perturbed copies of x")
    params, ranks = _fit_local(nb[None], forward_batch(f, nb)[None])
    return surrogate_from_params(params[0]), bool(ranks[0] < nb.shape[1] + 1)


def _stage(dataset: Dataset, configs: list[TrainConfig],
           teacher: MlpModel | None = None) -> list:
    """The runs of ``configs`` as one lockstep stack of :func:`_joint_loop`,
    started from ``teacher`` when given.  A stack that raises, in its
    set-up or at any step, trains each of its runs again alone; a run
    alone that raises ends with its exception.  A run alone moves bit for
    bit as its row of the stack, so every run ends as it would alone."""
    try:
        return _joint_loop(dataset, configs, teacher, teacher)
    except Exception as exc:
        if len(configs) == 1:
            return [exc]
    return [result for config in configs for result in _stage(dataset, [config], teacher)]


def run_methods(dataset: Dataset, configs: list[TrainConfig]) -> list:
    """Train every run of ``configs`` on ``dataset``.  Returns, in order,
    each run's (model, surrogate, report) triple or the exception that run
    raised; the linear method returns None for the black-box slot.

    Runs whose configs agree apart from ``method`` and ``alpha`` form a
    group and train in lockstep, each exactly as it would alone; when the
    stack raises, its runs train again one by one.  STL's
    phase 1 and every JDIST teacher are one predictive-only row of the
    group's stack, which any JSEP run rides; STL then fits its surrogate
    to that network, and the JDIST runs train as a second stack that
    starts from it.  LINEAR runs
    its own procedure.

    STL, the sequential baseline, runs its predictive-only phase 1 to the
    full budget; phase 2 freezes the black-box and fits the surrogate to
    its outputs until the loss decrease drops below ``phi_tol``.  Phase-1
    epochs are recorded with weight 1.0, phase-2 epochs with weight 0.0;
    ``stopped_reason`` reports the phase-2 outcome, with "stationary"
    meaning the tolerance was met.
    """
    results: list = [None] * len(configs)
    groups: dict[TrainConfig, list[int]] = {}
    for i, config in enumerate(configs):
        if config.method == LINEAR:
            fitted = caught(train_linear, dataset, config)
            results[i] = fitted if isinstance(fitted, Exception) else (None, *fitted)
        else:
            # Keyed by the group's predictive-only config.
            groups.setdefault(replace(config, method=STL, alpha=None), []).append(i)
    for pred_config, members in groups.items():
        joint = [i for i in members if configs[i].method not in (STL, JDIST)]
        pred_row = [pred_config] if len(joint) < len(members) else []
        stage = _stage(dataset, pred_row + [configs[i] for i in joint])
        pred = stage.pop(0) if pred_row else None
        results_of = dict(zip(joint, stage))
        distill = [i for i in members if configs[i].method == JDIST]
        if distill and not isinstance(pred, Exception):
            teacher = pred[0]
            stage = _stage(dataset, [configs[i] for i in distill], teacher)
            results_of.update(zip(distill, stage))
        for i in members:
            if i in results_of:
                results[i] = results_of[i]
            elif isinstance(pred, Exception):
                results[i] = pred
            else:
                results[i] = caught(_fit_stl_surrogate, dataset, configs[i], pred)
    return results


def run_method(
    dataset: Dataset, config: TrainConfig
) -> tuple[MlpModel | None, LinearSurrogate, TrainReport]:
    """Train one run of ``config.method``: the one-run case of
    :func:`run_methods`, raising the exception the run raised."""
    (result,) = run_methods(dataset, [config])
    if isinstance(result, Exception):
        raise result
    return result
