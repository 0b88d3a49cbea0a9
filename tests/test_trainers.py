from __future__ import annotations

import dataclasses
import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import tandem
from conftest import reference_adam, reference_adam_init
from tandem import trainers
from tandem.data import CLASSIFICATION, REGRESSION, TEST, TRAIN, Dataset, subset
from tandem.errors import NumericError
from tandem.losses import (
    BCE,
    DISTILL,
    MSE,
    POINT_FIDELITY,
    loss_point_fidelity,
    loss_pred,
    upstream_derivative,
)
from tandem.metrics import (
    GAUSSIAN,
    PATCH_DELETE,
    NeighborhoodSpec,
    gnf,
    local_surrogates,
    make_neighborhood,
    neighborhoods,
)
from tandem.moo import combine_direction, is_pareto_stationary, solve_alpha
from tandem.nn import (
    BINARY_PROBABILITY,
    IDENTITY,
    REGRESSION_SCALAR,
    RELU,
    Layer,
    MlpModel,
    flatten_params,
    forward_batch,
    init_mlp,
    mlp_backward,
    param_count,
    sigmoid,
    unflatten_params,
)
from tandem.nn import _backward_cached, _forward_cached, _last_layer_backward, _param_views
from tandem.seeding import rng_for
from tandem.surrogate import (
    LinearSurrogate,
    _predict_flat,
    predict_batch,
    surrogate_from_params,
    surrogate_grad,
    surrogate_params,
)
from tandem.trainers import (
    GS,
    JDIST,
    JSEP,
    LINEAR,
    METHODS,
    MOO,
    RND,
    STL,
    STOP_BUDGET,
    STOP_STATIONARY,
    UNI,
    TrainConfig,
    _joint_loop,
    fit_local_surrogate,
    run_method,
    run_methods,
    run_slices,
    train_linear,
)


def linear_regression_dataset(seed=0, n=200, d=3):
    """Targets are an exact linear function, so both objectives co-satisfy."""
    rng = rng_for(seed, "synthetic")
    X = rng.standard_normal((n, d))
    w = np.array([0.5, -0.3, 0.2])[:d]
    y = X @ w + 0.1
    ds = Dataset(
        features=X,
        targets=y,
        task=REGRESSION,
        feature_names=tuple(f"x{i}" for i in range(d)),
        split=np.asarray([TRAIN] * n, dtype=object),
    )
    return tandem.split(ds, seed=seed)


def small_classification_dataset(seed=0):
    return tandem.split(
        tandem.make_synthetic("nonlinear", 400, 6, 0.3, seed=seed), seed=seed
    )


SMALL = dict(max_epochs=150, batch_size=64, hidden=(16,), lr_theta=3e-3)


# -- configuration ------------------------------------------------------------


def test_config_rejects_grid_search_without_alpha():
    with pytest.raises(ValueError):
        TrainConfig(method=GS, seed=0)
    with pytest.raises(ValueError):
        TrainConfig(method=GS, seed=0, alpha=0.0)
    with pytest.raises(ValueError):
        TrainConfig(method=GS, seed=0, alpha=1.0)
    TrainConfig(method=GS, seed=0, alpha=0.5)


def test_config_rejects_negative_seed_and_bad_sizes():
    with pytest.raises(ValueError):
        TrainConfig(method=MOO, seed=-1)
    with pytest.raises(ValueError):
        TrainConfig(method=MOO, seed=0, max_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(method=MOO, seed=0, batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(method=MOO, seed=0, lr_theta=0.0)
    for lr in (float("nan"), float("inf")):
        for name in ("lr_theta", "lr_phi"):
            with pytest.raises(ValueError, match="finite"):
                TrainConfig(method=MOO, seed=0, **{name: lr})
    for name in ("max_epochs", "batch_size", "inner_steps", "phi_max_epochs"):
        for value in (1.5, True, "2", None):
            with pytest.raises(TypeError, match=name):
                TrainConfig(method=MOO, seed=0, **{name: value})
    for tol in (0.0, -1e-6, float("nan")):
        with pytest.raises(ValueError, match="stationarity_tol"):
            TrainConfig(method=MOO, seed=0, stationarity_tol=tol)
    for hidden in ((-3,), (0,), (8, 0)):
        with pytest.raises(ValueError, match="hidden"):
            TrainConfig(method=MOO, seed=0, hidden=hidden)
    TrainConfig(method=MOO, seed=0, hidden=())
    for hidden in ([8], (8.7,), (True,), 8, "8"):
        with pytest.raises(TypeError, match="hidden has the wrong type"):
            TrainConfig(method=MOO, seed=0, hidden=hidden)
    for value in (0, -1):
        with pytest.raises(ValueError, match="phi_max_epochs"):
            TrainConfig(method=STL, seed=0, phi_max_epochs=value)
    with pytest.raises(ValueError, match="phi_tol"):
        TrainConfig(method=STL, seed=0, phi_tol=float("nan"))
    # -inf is legal: it never stops STL's surrogate phase early.
    TrainConfig(method=STL, seed=0, phi_tol=-np.inf)


def test_config_rejects_unknown_method():
    with pytest.raises(ValueError):
        TrainConfig(method="SGD", seed=0)
    assert set(METHODS) == {MOO, STL, UNI, GS, RND, LINEAR, JSEP, JDIST}


# -- min-norm joint training --------------------------------------------------


def test_moo_co_satisfiable_linear_targets_drive_both_losses_down():
    ds = linear_regression_dataset()
    cfg = TrainConfig(
        method=MOO, seed=0, max_epochs=2000, batch_size=32, hidden=(8,),
        lr_theta=1e-2, lr_phi=1e-4,
    )
    _, _, report = run_method(ds, cfg)
    assert report.loss_pred_history[-1] <= 1e-3
    assert report.loss_pf_history[-1] <= 1e-3


def test_moo_near_zero_predictive_gradient_shifts_alpha_and_reduces_fidelity():
    ds = linear_regression_dataset()
    pre_cfg = TrainConfig(method=STL, seed=0, max_epochs=300, batch_size=32,
                          hidden=(8,), lr_theta=1e-2)
    [(pre, _, _)] = _joint_loop(ds, [pre_cfg])
    cfg = TrainConfig(
        method=MOO, seed=0, max_epochs=60, batch_size=32, hidden=(8,),
        lr_theta=1e-3, lr_phi=1e-2,
    )
    [(_, _, report)] = _joint_loop(ds, [cfg], init_model=pre)
    pf = report.loss_pf_history
    # the min-norm weight leans toward the vanished predictive gradient
    assert float(np.mean(report.alpha_history)) > 0.5
    # fidelity falls by orders of magnitude, strictly until its noise floor
    assert pf[-1] < 1e-3 * pf[0]
    for i in range(len(pf) - 1):
        if pf[i] < 1e-4:
            break
        assert pf[i + 1] < pf[i]
    # the settled predictive loss stays at its pretrained level
    assert report.loss_pred_history[-1] <= max(1e-3, 10 * report.loss_pred_history[0])


def test_moo_training_is_deterministic():
    ds = small_classification_dataset()
    cfg = TrainConfig(method=MOO, seed=3, **SMALL)
    model_a, g_a, rep_a = run_method(ds, cfg)
    model_b, g_b, rep_b = run_method(ds, cfg)
    assert np.array_equal(flatten_params(model_a), flatten_params(model_b))
    assert np.array_equal(g_a.phi, g_b.phi) and g_a.bias == g_b.bias
    assert dataclasses.asdict(rep_a) == dataclasses.asdict(rep_b)


def test_moo_zero_function_on_zero_targets_is_stationary_immediately():
    X = rng_for(0, "x").standard_normal((40, 2))
    ds = Dataset(
        features=X, targets=np.zeros(40), task=REGRESSION,
        feature_names=("x0", "x1"),
        split=np.asarray([TRAIN] * 40, dtype=object),
    )
    zero_f = MlpModel(
        (Layer(np.zeros((1, 2)), np.zeros(1), IDENTITY),), REGRESSION_SCALAR
    )
    cfg = TrainConfig(method=MOO, seed=0, max_epochs=50, batch_size=40)
    [(_, _, report)] = _joint_loop(ds, [cfg], init_model=zero_f)
    assert report.stopped_reason == STOP_STATIONARY
    assert report.epochs_run == 1


def test_moo_direction_satisfies_recorded_descent_inequalities():
    ds = small_classification_dataset()
    cfg = TrainConfig(method=MOO, seed=1, **SMALL)
    _, _, report = run_method(ds, cfg)
    assert report.min_dot_pred is not None and report.min_dot_pred >= -1e-12
    assert report.min_dot_pf is not None and report.min_dot_pf >= -1e-12


# -- sequential baseline ------------------------------------------------------


def stl_config(seed=0):
    return TrainConfig(
        method=STL, seed=seed, max_epochs=400, batch_size=32, hidden=(8,),
        lr_theta=1e-2, lr_phi=2e-4, phi_max_epochs=60000, phi_tol=1e-16,
    )


def test_stl_linear_representable_reaches_low_fidelity():
    ds = linear_regression_dataset()
    _, _, report = run_method(ds, stl_config())
    assert report.gf <= 1e-3


def test_stl_surrogate_matches_ordinary_least_squares():
    ds = linear_regression_dataset()
    model, surrogate, _ = run_method(ds, stl_config())
    X_train, _ = subset(ds, TRAIN)
    outputs = forward_batch(model, X_train)
    design = np.column_stack([X_train, np.ones(X_train.shape[0])])
    ols = np.linalg.lstsq(design, outputs, rcond=None)[0]
    fitted = np.concatenate([surrogate.phi, [surrogate.bias]])
    assert np.abs(fitted - ols).max() <= 1e-4


def test_stl_is_deterministic():
    ds = small_classification_dataset()
    cfg = TrainConfig(method=STL, seed=2, **SMALL)
    _, g_a, rep_a = run_method(ds, cfg)
    _, g_b, rep_b = run_method(ds, cfg)
    assert np.array_equal(g_a.phi, g_b.phi)
    assert dataclasses.asdict(rep_a) == dataclasses.asdict(rep_b)


def test_stl_histories_cover_both_phases():
    ds = small_classification_dataset()
    cfg = TrainConfig(method=STL, seed=0, **SMALL)
    model, _, report = run_method(ds, cfg)
    assert report.epochs_run == len(report.loss_pred_history)
    assert report.epochs_run > cfg.max_epochs
    # phase 1 keeps the full predictive weight, phase 2 freezes the black-box
    assert report.alpha_history[0] == 1.0
    assert report.alpha_history[-1] == 0.0
    # each phase-2 loss is the frozen network's on the train split, bit for bit
    X_train, y_train = subset(ds, TRAIN)
    final_pred = loss_pred(forward_batch(model, X_train), y_train, BCE)
    assert all(lp == final_pred for lp in report.loss_pred_history[cfg.max_epochs:])


# -- scalarized baselines ------------------------------------------------------


def test_uniform_equals_half_weight_grid_search():
    ds = small_classification_dataset()
    uni_cfg = TrainConfig(method=UNI, seed=4, **SMALL)
    gs_cfg = TrainConfig(method=GS, alpha=0.5, seed=4, **SMALL)
    model_u, g_u, rep_u = run_method(ds, uni_cfg)
    model_g, g_g, rep_g = run_method(ds, gs_cfg)
    assert np.array_equal(flatten_params(model_u), flatten_params(model_g))
    assert np.array_equal(g_u.phi, g_g.phi)
    assert rep_u.loss_pred_history == rep_g.loss_pred_history
    assert rep_u.loss_pf_history == rep_g.loss_pf_history
    assert rep_u.gf == rep_g.gf


def test_uniform_alpha_history_is_constant_half():
    ds = small_classification_dataset()
    _, _, report = run_method(ds, TrainConfig(method=UNI, seed=0, **SMALL))
    assert set(report.alpha_history) == {0.5}


def test_more_predictive_weight_gives_worse_fidelity():
    for seed in (0, 1, 2):
        ds = small_classification_dataset(seed)
        lo = TrainConfig(method=GS, alpha=0.1, seed=seed, **SMALL)
        hi = TrainConfig(method=GS, alpha=0.9, seed=seed, **SMALL)
        _, _, rep_lo = run_method(ds, lo)
        _, _, rep_hi = run_method(ds, hi)
        assert rep_hi.gf >= rep_lo.gf


def test_random_weights_are_reproducible_and_in_range():
    ds = small_classification_dataset()
    cfg = TrainConfig(method=RND, seed=5, **SMALL)
    _, _, rep_a = run_method(ds, cfg)
    _, _, rep_b = run_method(ds, cfg)
    assert rep_a.alpha_history == rep_b.alpha_history
    alphas = np.asarray(rep_a.alpha_history)
    assert np.all((alphas >= 0.0) & (alphas <= 1.0))
    assert len(set(rep_a.alpha_history)) > 1


# -- ablations ----------------------------------------------------------------


def test_separate_training_theta_matches_predictive_only_run():
    ds = small_classification_dataset()
    cfg = TrainConfig(method=JSEP, seed=6, **SMALL)
    model_j, _, _ = run_method(ds, cfg)
    model_p, _, _ = run_method(ds, replace(cfg, method=STL))
    assert np.array_equal(flatten_params(model_j), flatten_params(model_p))


def test_separate_training_has_worse_fidelity_than_min_norm():
    ds = small_classification_dataset()
    cfg_m = TrainConfig(method=MOO, seed=0, **SMALL)
    cfg_j = TrainConfig(method=JSEP, seed=0, **SMALL)
    _, _, rep_m = run_method(ds, cfg_m)
    _, _, rep_j = run_method(ds, cfg_j)
    assert rep_j.gf >= rep_m.gf


def exact_linear_teacher():
    return MlpModel(
        (Layer(np.array([[0.5, -0.3, 0.2]]), np.array([0.1]), IDENTITY),),
        REGRESSION_SCALAR,
    )


def test_distillation_co_satisfiable_drives_all_three_terms_down():
    ds = linear_regression_dataset()
    teacher = exact_linear_teacher()
    cfg = TrainConfig(
        method=JDIST, seed=0, max_epochs=800, batch_size=32, hidden=(8,),
        lr_theta=1e-3, lr_phi=1e-2,
    )
    [(model, _, report)] = _joint_loop(ds, [cfg], init_model=teacher, teacher=teacher)
    X_train, y_train = subset(ds, TRAIN)
    student = forward_batch(model, X_train)
    teacher_out = forward_batch(teacher, X_train)
    assert float(np.mean((student - y_train) ** 2)) <= 1e-3
    assert float(np.mean((student - teacher_out) ** 2)) <= 1e-3
    assert report.loss_pf_history[-1] <= 1e-3


def test_distillation_is_deterministic():
    ds = small_classification_dataset()
    cfg = TrainConfig(method=JDIST, seed=8, **SMALL)
    _, _, rep_a = run_method(ds, cfg)
    _, _, rep_b = run_method(ds, cfg)
    assert dataclasses.asdict(rep_a) == dataclasses.asdict(rep_b)


# -- loop equivalence -----------------------------------------------------------


def reference_joint_loop(dataset, config, rule, init_model=None, teacher=None,
                         update_phi=True):
    """The joint loop written with the public per-call API only.

    Every gradient is its own validated forward and backward pass, the
    model is rebuilt from its flat parameters after each step of the
    functional ``reference_adam``, and so is the surrogate.
    ``rule`` is "min-norm", "uniform", "pred-only" or a constant weight;
    a ``teacher`` adds its unit-weight distillation gradient at weight 0.5.
    """
    X, y = subset(dataset, TRAIN)
    kind = BCE if dataset.task == CLASSIFICATION else MSE
    out_kind = (BINARY_PROBABILITY if dataset.task == CLASSIFICATION
                else REGRESSION_SCALAR)
    model = init_model or init_mlp(dataset.n_features, config.hidden, out_kind,
                                   rng_for(config.seed, "init-theta"))
    g = LinearSurrogate(np.zeros(dataset.n_features), 0.0)
    theta_state = reference_adam_init(param_count(model))
    phi_state = reference_adam_init(dataset.n_features + 1)
    rng_batch = rng_for(config.seed, "batch")
    rng_alpha = rng_for(config.seed, "alpha")

    def grad(m, Xr, targets, loss):
        return mlp_backward(m, Xr, upstream_derivative(forward_batch(m, Xr), targets, loss))

    def grad_first(m, Xr, yr):
        first = grad(m, Xr, yr, kind)
        if teacher is not None:
            first = first + 1.0 * grad(m, Xr, forward_batch(teacher, Xr), DISTILL)
        return first

    pred_hist, pf_hist, alpha_hist = [], [], []
    min_dot_pred = min_dot_pf = np.inf
    stopped = STOP_BUDGET
    for _ in range(config.max_epochs):
        alphas = []
        order = rng_batch.permutation(X.shape[0])
        for start in range(0, X.shape[0], config.batch_size):
            batch = order[start:start + config.batch_size]
            Xb, yb = X[batch], y[batch]
            if update_phi:
                for _ in range(config.inner_steps):
                    residuals = forward_batch(model, Xb) - predict_batch(g, Xb)
                    phi, phi_state = reference_adam(surrogate_params(g),
                                                    surrogate_grad(g, Xb, residuals),
                                                    phi_state, config.lr_phi)
                    g = surrogate_from_params(phi)
            g_pred = grad(model, Xb, yb, kind)
            g_pf = grad(model, Xb, predict_batch(g, Xb), POINT_FIDELITY)
            if teacher is not None:
                d = 0.5 * grad_first(model, Xb, yb) + 0.5 * g_pf
                alpha = 0.5
            elif rule == "pred-only":
                d, alpha = g_pred, 1.0
            else:
                if rule == "min-norm":
                    alpha = solve_alpha(g_pred, g_pf).alpha
                elif rule == "uniform":
                    alpha = float(rng_alpha.uniform(0.0, 1.0))
                else:
                    alpha = rule
                d = combine_direction(alpha, g_pred, g_pf)
            min_dot_pred = min(min_dot_pred, float(d @ g_pred))
            min_dot_pf = min(min_dot_pf, float(d @ g_pf))
            theta, theta_state = reference_adam(flatten_params(model), d, theta_state,
                                                config.lr_theta)
            model = unflatten_params(model, theta)
            alphas.append(alpha)
        out = forward_batch(model, X)
        pred_hist.append(loss_pred(out, y, kind))
        pf_hist.append(loss_point_fidelity(out, predict_batch(g, X)))
        alpha_hist.append(float(np.mean(alphas)))
        if update_phi and is_pareto_stationary(
            grad_first(model, X, y), grad(model, X, predict_batch(g, X), POINT_FIDELITY),
            config.stationarity_tol,
        ):
            stopped = STOP_STATIONARY
            break
    return model, g, dict(
        loss_pred_history=tuple(pred_hist), loss_pf_history=tuple(pf_hist),
        alpha_history=tuple(alpha_hist), epochs_run=len(pred_hist),
        stopped_reason=stopped, min_dot_pred=float(min_dot_pred),
        min_dot_pf=float(min_dot_pf),
    )


def assert_same_run(ref, got):
    ref_model, ref_g, ref_report = ref
    model, g, report = got
    assert np.array_equal(flatten_params(model), flatten_params(ref_model))
    assert np.array_equal(surrogate_params(g), surrogate_params(ref_g))
    for field, value in ref_report.items():
        assert getattr(report, field) == value, field


LOOP = dict(max_epochs=3, batch_size=64, hidden=(16, 8), lr_theta=3e-3, lr_phi=3e-3)


@pytest.mark.parametrize("data", ["classification", "regression"])
@pytest.mark.parametrize("method, rule, extra", [
    (MOO, "min-norm", {}),
    (MOO, "min-norm", {"inner_steps": 2}),
    (MOO, "min-norm", {"stationarity_tol": 10.0}),
    (GS, 0.3, {"alpha": 0.3}),
    (RND, "uniform", {}),
    (JSEP, "pred-only", {}),
    (UNI, 0.5, {}),
    (JDIST, "distill", {}),
    # Only GS reads alpha.
    (MOO, "min-norm", {"alpha": 0.3}),
    (UNI, 0.5, {"alpha": 0.3}),
    (RND, "uniform", {"alpha": 0.3}),
    (JSEP, "pred-only", {"alpha": 0.3}),
    (JDIST, "distill", {"alpha": 0.3}),
])
def test_joint_loop_matches_per_call_reference(data, method, rule, extra):
    ds = small_classification_dataset() if data == "classification" else (
        linear_regression_dataset())
    cfg = TrainConfig(method=method, seed=4, **LOOP, **extra)
    if method == JDIST:
        teacher, _, _ = reference_joint_loop(ds, cfg, "pred-only", update_phi=False)
        ref = reference_joint_loop(ds, cfg, 0.5, init_model=teacher, teacher=teacher)
    else:
        ref = reference_joint_loop(ds, cfg, rule)
    got = run_method(ds, cfg)
    assert_same_run(ref, got)
    if "stationarity_tol" in extra:
        assert got[2].stopped_reason == STOP_STATIONARY


@pytest.mark.parametrize("data, method, tol, stop, full_checks", [
    ("classification", MOO, 0.01, STOP_BUDGET, 2),
    ("regression", MOO, 0.05, STOP_BUDGET, 2),
    ("regression", MOO, 0.1, STOP_STATIONARY, 3),
    ("classification", JDIST, 0.008, STOP_BUDGET, 2),
])
def test_screened_stationarity_check_matches_reference(monkeypatch, data, method, tol,
                                                       stop, full_checks):
    """Each tolerance lets the last-layer screen pass on some epoch whose
    full check fails, so the loop runs both stages; ``full_checks`` counts
    the epochs whose full check ran."""
    sizes = []

    def spy(g1, g2, bound):
        sizes.append(g1.size)
        return is_pareto_stationary(g1, g2, bound)

    monkeypatch.setattr("tandem.trainers.is_pareto_stationary", spy)
    ds = small_classification_dataset() if data == "classification" else (
        linear_regression_dataset())
    cfg = TrainConfig(method=method, seed=4, **LOOP, stationarity_tol=tol)
    if method == JDIST:
        teacher, _, _ = reference_joint_loop(ds, cfg, "pred-only", update_phi=False)
        ref = reference_joint_loop(ds, cfg, 0.5, init_model=teacher, teacher=teacher)
    else:
        ref = reference_joint_loop(ds, cfg, "min-norm")
    got = run_method(ds, cfg)
    assert_same_run(ref, got)
    assert got[2].stopped_reason == stop
    full = sizes.count(param_count(got[0]))
    assert full == full_checks
    assert len(sizes) == got[2].epochs_run + full


@pytest.mark.parametrize("method, tol", [(MOO, 0.1), (JDIST, 0.5)])
def test_joint_loop_makes_one_backward_call_per_step(monkeypatch, method, tol):
    """Each step backpropagates its predictive, any distillation and its
    fidelity upstream in one call; an epoch whose last-layer screen passes
    adds one call for its full check, which takes the same stack.  Each
    tolerance lets the screen pass on some epoch."""
    ds = linear_regression_dataset()
    cfg = TrainConfig(method=method, seed=4, **LOOP, stationarity_tol=tol)
    template = init_mlp(ds.n_features, cfg.hidden, REGRESSION_SCALAR, rng_for(1, "teacher"))
    teacher = template if method == JDIST else None
    shapes, full_checks = [], []

    def backward(params, caches, upstream):
        shapes.append(upstream.shape)
        return _backward_cached(params, caches, upstream)

    def spy(g1, g2, bound):
        full_checks.append(g1.size == param_count(template))
        return is_pareto_stationary(g1, g2, bound)

    monkeypatch.setattr(trainers, "_backward_cached", backward)
    monkeypatch.setattr(trainers, "is_pareto_stationary", spy)
    ((_, _, report),) = _joint_loop(ds, [cfg], teacher, teacher)
    m = 3 if method == JDIST else 2
    n_train = subset(ds, TRAIN)[0].shape[0]
    steps = report.epochs_run * -(-n_train // cfg.batch_size)
    assert any(full_checks)
    assert len(shapes) == steps + sum(full_checks)
    assert [s for s in shapes if len(s) == 2] == [(m, n_train)] * sum(full_checks)
    assert all(s[:2] == (m, 1) for s in shapes if len(s) == 3)


@settings(max_examples=60)
@given(
    input_dim=st.integers(1, 8),
    hidden=st.lists(st.integers(1, 16), min_size=0, max_size=3),
    rows=st.integers(1, 64),
    output_kind=st.sampled_from([REGRESSION_SCALAR, BINARY_PROBABILITY]),
    distill=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_last_layer_block_is_the_gradient_tail_and_bounds_the_min_norm(
    input_dim, hidden, rows, output_kind, distill, seed
):
    rng = np.random.default_rng(seed)
    template = init_mlp(input_dim, tuple(hidden), output_kind, rng)
    theta = flatten_params(template) + 0.1 * rng.standard_normal(param_count(template))
    params = _param_views(template, theta)
    X = rng.standard_normal((rows, input_dim))
    out, caches = _forward_cached(params, X)
    if output_kind == BINARY_PROBABILITY:
        u_pred = upstream_derivative(out, (rng.random(rows) < 0.5) * 1.0, BCE)
    else:
        u_pred = upstream_derivative(out, rng.standard_normal(rows), MSE)
    u_dist = upstream_derivative(out, rng.standard_normal(rows), DISTILL)
    u_pf = upstream_derivative(out, rng.standard_normal(rows), POINT_FIDELITY)

    def pair(backward):
        """The loop's first and fidelity gradients, or their blocks."""
        first = backward(params, caches, u_pred)
        if distill:
            first = first + backward(params, caches, u_dist)
        return first, backward(params, caches, u_pf)

    full = pair(_backward_cached)
    block = pair(_last_layer_backward)
    size = params[-1][0].size + 1
    for b, f in zip(block, full):
        assert b.size == size and np.array_equal(b, f[-size:])
    bound = solve_alpha(*block).combined_norm
    exact = solve_alpha(*full).combined_norm
    rounding = 1e-12 * float(np.linalg.norm(full[0]) + np.linalg.norm(full[1]))
    assert bound <= exact + rounding


@pytest.mark.parametrize("data", ["classification", "regression"])
def test_predictive_only_and_distillation_loops_match_reference(data):
    ds = small_classification_dataset() if data == "classification" else (
        linear_regression_dataset())
    cfg = TrainConfig(method=STL, seed=9, **LOOP)
    ref_teacher, _, ref_phase1 = reference_joint_loop(ds, cfg, "pred-only",
                                                      update_phi=False)
    teacher, _, stl = run_method(ds, cfg)
    assert np.array_equal(flatten_params(teacher), flatten_params(ref_teacher))
    phase1 = ref_phase1["epochs_run"]
    assert stl.loss_pred_history[:phase1] == ref_phase1["loss_pred_history"]
    assert stl.loss_pf_history[:phase1] == ref_phase1["loss_pf_history"]
    assert stl.min_dot_pred == ref_phase1["min_dot_pred"]
    assert stl.min_dot_pf == ref_phase1["min_dot_pf"]

    jdist_cfg = TrainConfig(method=JDIST, seed=9, **LOOP, inner_steps=2)
    ref = reference_joint_loop(ds, jdist_cfg, 0.5, init_model=teacher,
                               teacher=teacher)
    assert_same_run(ref, run_method(ds, jdist_cfg))


# -- lockstep groups ------------------------------------------------------------

SCAN_GROUP = [(MOO, None)] + [(GS, a / 10) for a in range(1, 10)]
PAIRED_GROUP = [(m, None) for m in (MOO, STL, UNI, RND, JSEP, JDIST)]


def reference_run(dataset, config):
    """``config``'s run through ``reference_joint_loop`` alone: STL's is its
    predictive-only phase, JDIST's trains from a reference teacher."""
    if config.method in (STL, JDIST):
        pred = reference_joint_loop(dataset, config, "pred-only", update_phi=False)
        if config.method == STL:
            return pred
        return reference_joint_loop(dataset, config, 0.5, init_model=pred[0], teacher=pred[0])
    rule = {MOO: "min-norm", UNI: 0.5, RND: "uniform", JSEP: "pred-only"}
    return reference_joint_loop(dataset, config, rule.get(config.method, config.alpha))


def assert_matches_reference_run(dataset, config, got):
    ref = reference_run(dataset, config)
    if config.method != STL:
        assert_same_run(ref, got)
        return
    ref_model, _, phase1 = ref
    model, _, report = got
    assert np.array_equal(flatten_params(model), flatten_params(ref_model))
    done = phase1["epochs_run"]
    assert report.loss_pred_history[:done] == phase1["loss_pred_history"]
    assert report.loss_pf_history[:done] == phase1["loss_pf_history"]
    assert report.alpha_history[:done] == phase1["alpha_history"]
    assert report.min_dot_pred == phase1["min_dot_pred"]
    assert report.min_dot_pf == phase1["min_dot_pf"]


@pytest.mark.parametrize("data", ["classification", "regression"])
@pytest.mark.parametrize("group", [SCAN_GROUP, PAIRED_GROUP], ids=["scan", "paired"])
@pytest.mark.parametrize("extra", [{}, {"inner_steps": 2}], ids=["inner1", "inner2"])
def test_lockstep_group_matches_separate_reference_runs(data, group, extra):
    ds = small_classification_dataset() if data == "classification" else (
        linear_regression_dataset())
    configs = [TrainConfig(method=m, alpha=a, seed=4, **LOOP, **extra) for m, a in group]
    for config, got in zip(configs, run_methods(ds, configs)):
        assert got[2].method == config.method
        assert_matches_reference_run(ds, config, got)


@pytest.mark.parametrize("data, stop_epochs", [("classification", {1, 2, 3, 4}),
                                               ("regression", {3, 4})])
def test_lockstep_rows_stopping_at_different_epochs_match_reference(data, stop_epochs):
    """At the screened check's tolerance 0.1, the rows of one stack stop
    stationary at different epochs or run to budget."""
    ds = small_classification_dataset() if data == "classification" else (
        linear_regression_dataset())
    group = PAIRED_GROUP + [(GS, a) for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
    configs = [TrainConfig(method=m, alpha=a, seed=4, **{**LOOP, "max_epochs": 6},
                           stationarity_tol=0.1) for m, a in group]
    results = run_methods(ds, configs)
    for config, got in zip(configs, results):
        assert_matches_reference_run(ds, config, got)
    joint = [r for c, (_, _, r) in zip(configs, results) if c.method != STL]
    assert {r.epochs_run for r in joint if r.stopped_reason == STOP_STATIONARY} == stop_epochs
    assert any(r.stopped_reason == STOP_BUDGET for r in joint)


@settings(max_examples=60)
@given(
    input_dim=st.integers(1, 8),
    hidden=st.lists(st.integers(1, 16), min_size=0, max_size=3),
    rows=st.integers(1, 64),
    stack=st.integers(1, 6),
    upstreams=st.integers(1, 3),
    output_kind=st.sampled_from([REGRESSION_SCALAR, BINARY_PROBABILITY]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_passes_equal_per_row_passes(input_dim, hidden, rows, stack, upstreams,
                                             output_kind, seed):
    """An (m, K, N) stack of upstreams, as the joint loop passes a step's
    predictive, distillation and fidelity upstreams, and the (m, N) stack of
    one network's epoch check: every (upstream, network) row of one call is
    bit-identical to its own call."""
    rng = np.random.default_rng(seed)
    template = init_mlp(input_dim, tuple(hidden), output_kind, rng)
    theta = flatten_params(template) + 0.1 * rng.standard_normal(
        (stack, param_count(template)))
    X = rng.standard_normal((rows, input_dim))
    upstream = rng.standard_normal((upstreams, stack, rows))
    params = _param_views(template, theta)
    out, caches = _forward_cached(params, X)
    grads = _backward_cached(params, caches, upstream)
    blocks = _last_layer_backward(params, caches, upstream)
    for k in range(stack):
        row_params = _param_views(template, theta[k].copy())
        row_out, row_caches = _forward_cached(row_params, X)
        assert np.array_equal(out[k], row_out)
        row_grads = _backward_cached(row_params, row_caches, upstream[:, k])
        row_blocks = _last_layer_backward(row_params, row_caches, upstream[:, k])
        for i in range(upstreams):
            alone = _backward_cached(row_params, row_caches, upstream[i, k])
            assert np.array_equal(grads[i, k], alone)
            assert np.array_equal(row_grads[i], alone)
            block = _last_layer_backward(row_params, row_caches, upstream[i, k])
            assert np.array_equal(blocks[i, k], block)
            assert np.array_equal(row_blocks[i], block)


ALL_METHODS = PAIRED_GROUP + [(LINEAR, None), (GS, 0.1), (GS, 0.5), (GS, 0.9)]
GRAD = "NumericError: gradient has non-finite entries"
PHI = "NumericError: surrogate parameters must be finite"
INPUTS = "NumericError: non-finite loss inputs"
SOLVER = "NumericError: non-finite gradient passed to min-norm solver"
WEIGHT = "ValueError: alpha must lie in [0, 1], got nan"
THETA = "NumericError: layer parameters must be finite"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("generator, seed, lr_theta, lr_phi, hidden, errors", [
    # One entry per row of ALL_METHODS: the error its run alone raises, or
    # None for a run that trains on.
    ("nonlinear", 2, 1e140, 1e140, (8, 4),
     [None, None, GRAD, GRAD, None, None, None, GRAD, GRAD, GRAD]),
    ("nonlinear", 1, 1e155, 1e155, (8,),
     [WEIGHT, INPUTS, THETA, THETA, GRAD, INPUTS, None, THETA, THETA, THETA]),
    ("linear_regression", 1, 1e100, 1e-3, (8, 4),
     [SOLVER, GRAD, SOLVER, SOLVER, GRAD, GRAD, None, SOLVER, SOLVER, SOLVER]),
    ("linear_regression", 1, 1e100, 1e100, (8, 4),
     [PHI, GRAD, PHI, PHI, PHI, GRAD, None, PHI, PHI, PHI]),
])
def test_diverging_rows_fail_as_alone_and_spare_the_rest(generator, seed, lr_theta, lr_phi,
                                                         hidden, errors):
    """Step sizes at which some rows of one stack overflow, each at the check
    its run alone fails, while the others train on.  Between them the cases
    hit every check of a step."""
    ds = tandem.split(tandem.make_synthetic(generator, 300, 5, 0.3, seed=seed), seed=seed)
    configs = [TrainConfig(method=m, alpha=a, seed=seed, max_epochs=4, batch_size=32,
                           hidden=hidden, lr_theta=lr_theta, lr_phi=lr_phi)
               for m, a in ALL_METHODS]
    for config, got, error in zip(configs, run_methods(ds, configs), errors):
        if error is not None:
            assert f"{type(got).__name__}: {got}" == error, config.method
            with pytest.raises(type(got)) as alone:
                run_method(ds, config)
            assert str(alone.value) == str(got)
            continue
        alone = run_method(ds, config)
        model, g, report = got
        assert (model is None) == (alone[0] is None)
        if model is not None:
            assert np.array_equal(flatten_params(model), flatten_params(alone[0]))
        assert np.array_equal(surrogate_params(g), surrogate_params(alone[1]))
        assert report == alone[2]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("group, lr, stacks", [
    (PAIRED_GROUP, 3e-3, [5, 1]),
    (SCAN_GROUP, 3e-3, [10]),
    (SCAN_GROUP, 1e140, [10] + [1] * 10),
], ids=["paired", "scan", "scan-diverging"])
def test_a_stack_trains_its_runs_again_alone_only_when_it_raises(monkeypatch, group, lr, stacks):
    """The size of every stack trained: the paired group is one stack plus
    JDIST's, and only a stack with a diverging row is trained again, one
    run at a time."""
    ds = tandem.split(tandem.make_synthetic("nonlinear", 300, 5, 0.3, seed=2), seed=2)
    configs = [TrainConfig(method=m, alpha=a, seed=2, max_epochs=4, batch_size=32,
                           hidden=(8, 4), lr_theta=lr, lr_phi=lr) for m, a in group]
    sizes = []
    real = trainers._joint_loop
    monkeypatch.setattr(trainers, "_joint_loop", lambda dataset, configs, *rest: (
        sizes.append(len(configs)) or real(dataset, configs, *rest)))
    failed = [isinstance(result, Exception) for result in run_methods(ds, configs)]
    assert sizes == stacks
    assert any(failed) == (lr > 1.0) and not all(failed)


RIDER_GROUP = (STL, JSEP, JDIST, MOO)


def stack_sizes(dataset, configs):
    """``run_methods`` on ``configs`` and the size of every stack it trained."""
    sizes = []
    real = trainers._joint_loop
    with mock.patch.object(trainers, "_joint_loop", lambda dataset, configs, *rest: (
            sizes.append(len(configs)) or real(dataset, configs, *rest))):
        return run_methods(dataset, configs), sizes


def assert_ends_as_alone(dataset, config, got):
    """``got`` is the result, or the error, of ``config``'s run alone."""
    try:
        alone = run_method(dataset, config)
    except Exception as exc:
        assert f"{type(got).__name__}: {got}" == f"{type(exc).__name__}: {exc}"
        return
    model, g, report = got
    assert np.array_equal(flatten_params(model), flatten_params(alone[0]))
    assert np.array_equal(surrogate_params(g), surrogate_params(alone[1]))
    assert report == alone[2]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    inner_steps=st.sampled_from([1, 2]),
    data=st.sampled_from(["classification", "regression"]),
    tol=st.floats(0.05, 1.0),
)
def test_jsep_riding_the_predictive_only_row_ends_as_alone(seed, inner_steps, data, tol):
    """JSEP shares the network of its group's predictive-only row.  At these
    tolerances it often stops stationary while that row trains on to the
    budget, and it still ends bit for bit as its run alone."""
    ds = small_classification_dataset(seed) if data == "classification" else (
        linear_regression_dataset(seed))
    configs = [TrainConfig(method=m, seed=seed, **{**LOOP, "max_epochs": 4},
                           inner_steps=inner_steps, stationarity_tol=tol)
               for m in RIDER_GROUP]
    results, sizes = stack_sizes(ds, configs)
    assert sizes == [3, 1]
    rider = results[RIDER_GROUP.index(JSEP)]
    event(f"JSEP stopped {rider[2].stopped_reason} after {rider[2].epochs_run} epochs")
    assert_ends_as_alone(ds, configs[RIDER_GROUP.index(JSEP)], rider)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("generator", ["nonlinear", "linear_regression"])
def test_a_diverging_rider_fails_its_stack_and_every_run_ends_as_alone(generator):
    """At this surrogate step size JSEP's surrogate overflows while STL's,
    held at zero, does not: the main stack raises, trains its three runs
    again alone, and every run ends with the result or error it has alone."""
    ds = tandem.split(tandem.make_synthetic(generator, 300, 5, 0.3, seed=1), seed=1)
    configs = [TrainConfig(method=m, seed=1, max_epochs=4, batch_size=32, hidden=(8, 4),
                           lr_theta=3e-3, lr_phi=1e155) for m in RIDER_GROUP]
    results, sizes = stack_sizes(ds, configs)
    assert sizes == [3, 1, 1, 1, 1]
    assert str(results[RIDER_GROUP.index(JSEP)]) == "surrogate parameters must be finite"
    assert not isinstance(results[RIDER_GROUP.index(STL)], Exception)
    for config, got in zip(configs, results):
        assert_ends_as_alone(ds, config, got)


def reference_fit_phi(X, targets, config):
    """Full-batch surrogate fit from zero with the public per-call API:
    returns the surrogate, the per-epoch losses and the stop reason."""
    g = LinearSurrogate(np.zeros(X.shape[1]), 0.0)
    state = reference_adam_init(X.shape[1] + 1)
    history = []
    prev = float(np.mean((targets - predict_batch(g, X)) ** 2))
    for _ in range(config.phi_max_epochs):
        grad = surrogate_grad(g, X, targets - predict_batch(g, X))
        params, state = reference_adam(surrogate_params(g), grad, state, config.lr_phi)
        g = surrogate_from_params(params)
        cur = float(np.mean((targets - predict_batch(g, X)) ** 2))
        history.append(cur)
        if prev - cur < config.phi_tol:
            return g, history, STOP_STATIONARY
        prev = cur
    return g, history, STOP_BUDGET


@pytest.mark.parametrize("data", ["classification", "regression"])
@pytest.mark.parametrize("phi_tol, stop", [(1e-4, STOP_STATIONARY),
                                           (-np.inf, STOP_BUDGET)])
def test_stl_surrogate_phase_matches_reference(data, phi_tol, stop):
    ds = small_classification_dataset() if data == "classification" else (
        linear_regression_dataset())
    cfg = TrainConfig(method=STL, seed=9, **LOOP, phi_max_epochs=300, phi_tol=phi_tol)
    ref_model, _, phase1 = reference_joint_loop(ds, cfg, "pred-only", update_phi=False)
    model, g, report = run_method(ds, cfg)
    assert np.array_equal(flatten_params(model), flatten_params(ref_model))

    X, y = subset(ds, TRAIN)
    outputs = forward_batch(ref_model, X)
    ref_g, pf_hist, stopped = reference_fit_phi(X, outputs, cfg)
    assert stopped == stop
    assert np.array_equal(surrogate_params(g), surrogate_params(ref_g))
    final_pred = loss_pred(outputs, y, BCE if data == "classification" else MSE)
    assert report.loss_pred_history == (phase1["loss_pred_history"]
                                        + (final_pred,) * len(pf_hist))
    assert report.loss_pf_history == phase1["loss_pf_history"] + tuple(pf_hist)
    assert report.epochs_run == phase1["epochs_run"] + len(pf_hist)
    assert report.stopped_reason == stopped


def reference_train_linear(dataset, config):
    """The linear predictor's loop with the public per-call API: returns
    the surrogate and the per-epoch training losses."""
    X, y = subset(dataset, TRAIN)
    classification = dataset.task == CLASSIFICATION
    kind = BCE if classification else MSE
    g = LinearSurrogate(np.zeros(X.shape[1]), 0.0)
    state = reference_adam_init(X.shape[1] + 1)
    rng_batch = rng_for(config.seed, "batch")
    history = []
    for _ in range(config.max_epochs):
        order = rng_batch.permutation(X.shape[0])
        for start in range(0, X.shape[0], config.batch_size):
            batch = order[start:start + config.batch_size]
            Xb, yb = X[batch], y[batch]
            scores = predict_batch(g, Xb)
            if classification:
                u = (sigmoid(scores) - yb) / Xb.shape[0]
            else:
                u = 2.0 * (scores - yb) / Xb.shape[0]
            grad = np.concatenate([Xb.T @ u, [float(np.sum(u))]])
            params, state = reference_adam(surrogate_params(g), grad, state,
                                           config.lr_phi)
            g = surrogate_from_params(params)
        scores = predict_batch(g, X)
        history.append(loss_pred(sigmoid(scores) if classification else scores,
                                 y, kind))
    return g, tuple(history)


@pytest.mark.parametrize("data", ["classification", "regression"])
def test_linear_model_matches_reference(data):
    ds = small_classification_dataset() if data == "classification" else (
        linear_regression_dataset())
    cfg = TrainConfig(method=LINEAR, seed=3, **LOOP)
    ref_g, history = reference_train_linear(ds, cfg)
    g, report = train_linear(ds, cfg)
    assert np.array_equal(surrogate_params(g), surrogate_params(ref_g))
    assert report.loss_pred_history == history
    X_test, y_test = subset(ds, TEST)
    scores = predict_batch(ref_g, X_test)
    outputs = sigmoid(scores) if data == "classification" else scores
    assert report.task_metric == tandem.trainers.task_metric(outputs, y_test, ds.task)


# -- plain linear predictor ---------------------------------------------------


def test_linear_model_solves_exact_linear_regression():
    ds = linear_regression_dataset()
    cfg = TrainConfig(method=LINEAR, seed=0, max_epochs=800, batch_size=32, lr_theta=1e-2)
    _, report = train_linear(ds, cfg)
    assert report.task_metric <= 1e-4


def test_linear_model_reports_no_fidelity():
    ds = small_classification_dataset()
    _, report = train_linear(ds, TrainConfig(method=LINEAR, seed=0, **SMALL))
    assert report.gf is None
    assert set(report.loss_pf_history) == {0.0}


def test_linear_model_is_deterministic():
    ds = small_classification_dataset()
    cfg = TrainConfig(method=LINEAR, seed=9, **SMALL)
    g_a, rep_a = train_linear(ds, cfg)
    g_b, rep_b = train_linear(ds, cfg)
    assert np.array_equal(g_a.phi, g_b.phi)
    assert dataclasses.asdict(rep_a) == dataclasses.asdict(rep_b)


# -- local surrogate fits -----------------------------------------------------


def test_local_fit_recovers_linear_function_exactly():
    w = np.array([0.7, -0.2, 0.4])
    f = MlpModel(
        (Layer(w[None, :], np.array([0.15]), IDENTITY),), REGRESSION_SCALAR
    )
    x = np.array([0.3, -0.5, 1.1])
    neighborhood = x + 0.3 * np.random.default_rng(5).standard_normal((12, 3))
    g, degenerate = fit_local_surrogate(f, x, neighborhood)
    assert not degenerate
    assert np.abs(g.phi - w).max() <= 1e-3
    assert abs(g.bias - 0.15) <= 1e-3


def test_local_fit_flags_degenerate_neighborhood():
    f = MlpModel(
        (Layer(np.array([[0.7, -0.2, 0.4]]), np.array([0.15]), IDENTITY),),
        REGRESSION_SCALAR,
    )
    x = np.array([0.3, -0.5, 1.1])
    neighborhood = np.repeat(x[None, :], 8, axis=0)
    g, degenerate = fit_local_surrogate(f, x, neighborhood)
    assert degenerate
    assert abs(predict_batch(g, neighborhood)[0] - forward_batch(f, x[None, :])[0]) <= 1e-3


def test_local_fit_is_deterministic():
    f = exact_linear_teacher()
    x = np.array([0.3, -0.5, 1.1])
    neighborhood = np.repeat(x[None, :], 4, axis=0)
    g_a, _ = fit_local_surrogate(f, x, neighborhood)
    g_b, _ = fit_local_surrogate(f, x, neighborhood)
    assert np.array_equal(g_a.phi, g_b.phi)
    assert g_a.bias == g_b.bias


def reference_local_gnf(f, X, spec):
    """Local GNF one instance at a time with the public per-call API: each
    surrogate is fitted by lstsq on the instance's ("gnf-fit", i) draw and
    scored on its ("gnf", i) draw.  Returns the GNF and each fit's rank."""
    terms, ranks = [], []
    for i in range(X.shape[0]):
        fit = make_neighborhood(X[i], spec, rng_for(spec.seed, "gnf-fit", i))
        design = np.column_stack([fit, np.ones(fit.shape[0])])
        solution, _, rank, _ = np.linalg.lstsq(design, forward_batch(f, fit), rcond=None)
        g = LinearSurrogate(solution[:-1], solution[-1])
        neighbors = make_neighborhood(X[i], spec, rng_for(spec.seed, "gnf", i))
        terms.append(loss_point_fidelity(forward_batch(f, neighbors),
                                         predict_batch(g, neighbors)))
        ranks.append(rank)
    return float(np.mean(terms)), ranks


LOCAL_X = np.random.default_rng(7).standard_normal((6, 4))


@pytest.mark.parametrize("output_kind", [REGRESSION_SCALAR, BINARY_PROBABILITY])
@pytest.mark.parametrize("count", [4, 12])
def test_local_gnf_matches_per_instance_reference(output_kind, count):
    # Six instances with four features: four neighbors cannot determine
    # five coefficients, twelve can.
    f = init_mlp(4, (6,), output_kind, rng_for(2, "init-theta"))
    spec = NeighborhoodSpec(kind=GAUSSIAN, count=count, sigma2=0.3, seed=5)
    ref_gnf, ranks = reference_local_gnf(f, LOCAL_X, spec)
    assert set(ranks) == {min(count, 5)}
    assert gnf(f, local_surrogates(f, LOCAL_X, spec), LOCAL_X, spec) == ref_gnf


@pytest.mark.parametrize("output_kind", [REGRESSION_SCALAR, BINARY_PROBABILITY])
def test_mixed_rank_local_gnf_matches_per_instance_reference(output_kind):
    # 3x3 images; an instance with a zero pixel has an all-zero design
    # column, so patch deletion gives rank-deficient and full-rank fits at once.
    f = init_mlp(9, (5,), output_kind, rng_for(3, "init-theta"))
    X = np.random.default_rng(4).uniform(0.1, 1.0, (6, 9))
    X[::2, 0] = 0.0
    spec = NeighborhoodSpec(kind=PATCH_DELETE, count=16, patch_size=1,
                            num_patches=2, image_dims=(3, 3), seed=6)
    ref_gnf, ranks = reference_local_gnf(f, X, spec)
    assert min(ranks) < 10 == max(ranks)
    assert gnf(f, local_surrogates(f, X, spec), X, spec) == ref_gnf


def test_local_fit_rejects_non_finite_outputs_before_lstsq(monkeypatch):
    # Outputs of about 1e300 * 1e154 overflow; LAPACK must not see them.
    f = MlpModel((Layer(np.full((1, 3), 1e300), np.zeros(1), IDENTITY),),
                 REGRESSION_SCALAR)
    X = np.ones((2, 3))
    spec = NeighborhoodSpec(kind=GAUSSIAN, count=5, sigma2=1e308, seed=1)

    def lstsq(*args, **kwargs):
        raise AssertionError("lstsq called on non-finite inputs")

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="non-finite loss inputs"):
        gnf(f, local_surrogates(f, X, spec), X, spec)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), d=st.integers(1, 5), points=st.integers(1, 4),
       extra=st.integers(0, 6), sigma2=st.floats(0.01, 1.0))
def test_local_fit_recovers_linear_net_and_held_out_gnf_is_zero(seed, d, points, extra, sigma2):
    rng = np.random.default_rng(seed)
    w, b = rng.standard_normal(d), float(rng.standard_normal())
    f = MlpModel((Layer(w[None, :], np.array([b]), IDENTITY),), REGRESSION_SCALAR)
    X = rng.uniform(-2.0, 2.0, (points, d))
    spec = NeighborhoodSpec(kind=GAUSSIAN, count=d + 1 + extra, sigma2=sigma2, seed=seed)
    params = local_surrogates(f, X, spec)
    assert np.allclose(params, np.append(w, b), rtol=0.0, atol=1e-8)
    assert gnf(f, params, X, spec) <= 1e-18


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), d=st.integers(2, 6), points=st.integers(1, 4),
       data=st.data())
def test_underdetermined_local_gnf_is_held_out_not_in_sample(seed, d, points, data):
    # With count <= d every design is rank-deficient, so the min-norm fit
    # interpolates its own draw: scored in sample it reads ~0 by construction.
    count = data.draw(st.integers(1, d))
    rng = np.random.default_rng(seed)
    f = MlpModel((Layer(rng.standard_normal((8, d)), rng.standard_normal(8), RELU),
                  Layer(rng.standard_normal((1, 8)), rng.standard_normal(1), IDENTITY)),
                 REGRESSION_SCALAR)
    X = rng.standard_normal((points, d))
    spec = NeighborhoodSpec(kind=GAUSSIAN, count=count, sigma2=0.5, seed=seed)
    fit = neighborhoods(X, spec, "gnf-fit")
    targets = forward_batch(f, fit)
    params = local_surrogates(f, X, spec)
    in_sample = float(np.mean((targets - _predict_flat(params, fit)) ** 2))
    assert in_sample <= 1e-20
    assert gnf(f, params, X, spec) > 1e-12


# -- dispatch and reports -----------------------------------------------------


# -- cutting a list of runs into slices ---------------------------------------


def _slice_configs(methods):
    return [TrainConfig(method=m, alpha=0.5 if m == GS else None) for m in methods]


_GRID = [MOO, STL, UNI, RND, JSEP, JDIST]
_SCAN = [MOO] + [GS] * 9


@pytest.mark.parametrize("methods, parts, slices", [
    (_SCAN, 1, [list(range(10))]),
    (_GRID, 1, [list(range(6))]),
    ([GS, STL, MOO], 1, [[0, 1, 2]]),  # one slice keeps index order
    (_SCAN, 2, [[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]]),
    (_SCAN, 4, [[0, 4, 8], [1, 5, 9], [2, 6], [3, 7]]),
    # STL, JSEP and JDIST hold the first slice: MOO, UNI and RND fill the others.
    (_GRID, 2, [[1, 4, 5], [0, 2, 3]]),
    (_GRID, 3, [[1, 4, 5], [0, 3], [2]]),
    ([STL, JSEP, JDIST], 2, [[0, 1, 2]]),  # an empty slice is dropped
    ([MOO], 2, [[0]]),
    ([LINEAR, JDIST], 2, [[1], [0]]),
    ([STL, STL, LINEAR], 2, [[0, 1], [2]]),
    ([], 3, []),
])
def test_run_slices_cut_runs_into_the_slices_of_the_rule(methods, parts, slices):
    assert run_slices(_slice_configs(methods), parts) == slices


@given(st.lists(st.sampled_from(METHODS), max_size=12), st.integers(1, 8))
def test_run_slices_deal_every_run_once_and_keep_the_predictive_only_runs_together(
        methods, parts):
    slices = run_slices(_slice_configs(methods), parts)
    assert sorted(i for part in slices for i in part) == list(range(len(methods)))
    assert all(part and part == sorted(part) for part in slices)
    assert len(slices) <= parts
    shared = {i for i, m in enumerate(methods) if m in (STL, JSEP, JDIST)}
    assert not shared or any(shared <= set(part) for part in slices)
    if parts == 1:
        assert slices == ([list(range(len(methods)))] if methods else [])


def test_run_method_dispatches_every_method():
    ds = small_classification_dataset()
    quick = dict(max_epochs=10, batch_size=64, hidden=(8,), lr_theta=3e-3)
    for method in METHODS:
        alpha = 0.3 if method == GS else None
        cfg = TrainConfig(method=method, seed=0, alpha=alpha, **quick)
        model, surrogate, report = run_method(ds, cfg)
        assert report.method == method
        assert surrogate.n_features == ds.n_features
        if method == LINEAR:
            assert model is None
        else:
            assert model is not None
            assert report.gf is not None


def test_reports_serialize_to_json():
    ds = small_classification_dataset()
    cfg = TrainConfig(method=MOO, seed=0, max_epochs=5, batch_size=64, hidden=(8,))
    _, _, report = run_method(ds, cfg)
    payload = json.dumps(dataclasses.asdict(report))
    decoded = json.loads(payload)
    assert decoded["method"] == MOO
    assert decoded["stopped_reason"] in (STOP_BUDGET, STOP_STATIONARY)
    assert len(decoded["loss_pred_history"]) == decoded["epochs_run"]


def test_classification_task_metric_is_f1_on_test_rows():
    ds = small_classification_dataset()
    cfg = TrainConfig(method=MOO, seed=0, max_epochs=5, batch_size=64, hidden=(8,))
    model, _, report = run_method(ds, cfg)
    X_test, y_test = subset(ds, TEST)
    predicted = (forward_batch(model, X_test) >= 0.5).astype(np.float64)
    assert report.task_metric == pytest.approx(
        tandem.f1_score(predicted, y_test), abs=1e-12
    )


def test_regression_task_metric_is_mse_on_test_rows():
    ds = linear_regression_dataset()
    cfg = TrainConfig(method=MOO, seed=0, max_epochs=5, batch_size=64, hidden=(8,))
    model, _, report = run_method(ds, cfg)
    X_test, y_test = subset(ds, TEST)
    expected = float(np.mean((forward_batch(model, X_test) - y_test) ** 2))
    assert report.task_metric == pytest.approx(expected, abs=1e-12)
