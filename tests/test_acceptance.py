"""End-to-end acceptance checks.

One test per contracted behavior, each at its stated tolerance and time
budget, so ``pytest -v tests/test_acceptance.py`` prints one pass/fail
line per criterion.  The joint-training criteria share one grid of
paired runs (six methods, three seeds) on a fixed synthetic dataset.
"""

from __future__ import annotations

import json
import struct
import time

import numpy as np
import pytest

from tandem.cli import main
from tandem.data import (
    CLASSIFICATION,
    ColumnSpec,
    Dataset,
    REGRESSION,
    TRAIN,
    load_csv,
    load_idx,
    one_hot,
    standardize,
)
from tandem.harness import (
    GnfSettings,
    _train_seeds,
    evaluate_gnf,
    pareto_scan,
    spec_from_dict,
)
from tandem.losses import (
    BCE,
    DISTILL,
    LOSS_KINDS,
    MSE,
    POINT_FIDELITY,
    loss_distill,
    loss_point_fidelity,
    loss_pred,
    upstream_derivative,
)
from tandem.metrics import (
    GAUSSIAN,
    NeighborhoodSpec,
    f1_score,
    global_fidelity,
    make_neighborhood,
)
from tandem.moo import DEFAULT_STATIONARITY_TOL, combine_direction, solve_alpha
from tandem.nn import (
    BINARY_PROBABILITY,
    IDENTITY,
    Layer,
    MlpModel,
    REGRESSION_SCALAR,
    flatten_params,
    forward_batch,
    init_mlp,
    mlp_backward,
    unflatten_params,
)
from tandem.seeding import rng_for
from tandem.surrogate import (
    LinearSurrogate,
    predict_batch,
    surrogate_from_params,
    surrogate_grad,
    surrogate_params,
)
from tandem.trainers import (
    JDIST,
    JSEP,
    MOO,
    RND,
    STL,
    UNI,
)

SEEDS = (0, 1, 2)
PAIRED_METHODS = (MOO, STL, UNI, RND, JSEP, JDIST)
FROZEN = dict(lr_theta=3e-3, max_epochs=600, batch_size=128, hidden=(32, 32))
DATASET = dict(generator="nonlinear", n=2000, d=10, noise=0.5)


@pytest.fixture(scope="session")
def paired_runs():
    """Six methods trained at three shared seeds on one synthetic task, the
    seeds cut into slices and dealt to worker processes as `tandem
    experiment` deals them: bit for bit the runs alone."""
    start = time.perf_counter()
    spec = spec_from_dict({
        "dataset": {"kind": "synthetic", **DATASET},
        "methods": [{"method": method} for method in PAIRED_METHODS],
        "seeds": list(SEEDS),
        "config": {**FROZEN, "hidden": list(FROZEN["hidden"])},
    })
    datasets, runs = {}, {}
    for seed, (dataset, seed_runs) in zip(SEEDS, _train_seeds(spec, spec.methods,
                                                              spec.base_config)):
        if isinstance(dataset, Exception):
            raise dataset
        datasets[seed] = dataset
        for config, result in seed_runs:
            if isinstance(result, Exception):
                raise result
            runs[(config.method, seed)] = (*result, config)
    return {
        "runs": runs,
        "datasets": datasets,
        "elapsed": time.perf_counter() - start,
    }


@pytest.fixture(scope="session")
def scan_results(tmp_path_factory):
    spec = spec_from_dict({
        "dataset": {"kind": "synthetic", **DATASET},
        "methods": [{"method": MOO}],
        "seeds": list(SEEDS),
        "config": {**FROZEN, "hidden": list(FROZEN["hidden"])},
        "output_dir": str(tmp_path_factory.mktemp("scan")),
    })
    return pareto_scan(spec)


def gf_of(paired, method, seed):
    return paired["runs"][(method, seed)][2].gf


def test_criterion_1_min_norm_weight_matches_grid_oracle():
    start = time.perf_counter()
    rng = rng_for(11, "acceptance-min-norm")
    grid = np.linspace(0.0, 1.0, 10001)
    descent_checked = 0
    for case in range(200):
        dim = int(rng.integers(2, 1001))
        g1 = rng.standard_normal(dim)
        g2 = rng.standard_normal(dim)
        shape = case % 4
        if shape == 1:
            g2 = 0.5 * g1 + 1e-3 * rng.standard_normal(dim)
        elif shape == 2:
            g2 = -g1 + 1e-3 * rng.standard_normal(dim)
        elif shape == 3:
            g2 = 1e-3 * rng.standard_normal(dim)

        solution = solve_alpha(g1, g2)
        diff = g1 - g2
        a = float(diff @ diff)
        b = 2.0 * float(g2 @ diff)
        c = float(g2 @ g2)
        values = a * grid * grid + b * grid + c
        best = int(np.argmin(values))
        achieved = a * solution.alpha ** 2 + b * solution.alpha + c
        assert achieved <= values[best] + 1e-9 * max(1.0, values[best])
        assert abs(solution.alpha - grid[best]) <= 1e-4 + 1e-9

        if solution.combined_norm > DEFAULT_STATIONARITY_TOL:
            d = combine_direction(solution.alpha, g1, g2)
            assert float(d @ g1) >= -1e-12
            assert float(d @ g2) >= -1e-12
            descent_checked += 1
    assert descent_checked >= 100
    assert time.perf_counter() - start < 10.0


def test_criterion_2_gradients_match_central_differences():
    start = time.perf_counter()
    rng = rng_for(12, "acceptance-fd")
    h = 1e-5

    def central(fn, x0):
        x0 = np.asarray(x0, dtype=np.float64)
        out = np.zeros_like(x0)
        for i in range(x0.size):
            bump = np.zeros_like(x0)
            bump[i] = h
            out[i] = (fn(x0 + bump) - fn(x0 - bump)) / (2.0 * h)
        return out

    def min_relu_margin(model, X):
        # central differences are invalid straddling a relu kink, so
        # configs are resampled until every unit clears the step size
        a = X
        margin = np.inf
        for layer in model.layers:
            z = a @ layer.weight.T + layer.bias
            if layer.activation == "relu":
                margin = min(margin, float(np.abs(z).min()))
                a = np.maximum(z, 0.0)
            elif layer.activation == "sigmoid":
                a = 1.0 / (1.0 + np.exp(-z))
            else:
                a = z
        return margin

    for case in range(20):
        d = int(rng.integers(2, 7))
        hidden = [(4,), (8, 4), (6, 3), (5, 5)][case % 4]
        kind = REGRESSION_SCALAR if case % 2 == 0 else BINARY_PROBABILITY
        while True:
            model = init_mlp(d, hidden, kind, rng)
            X = rng.standard_normal((8, d))
            if min_relu_margin(model, X) > 1e-3:
                break
        if kind == BINARY_PROBABILITY:
            loss_kind = BCE
            targets = (rng.uniform(size=8) > 0.5).astype(np.float64)
        else:
            loss_kind = MSE
            targets = rng.standard_normal(8)
        outputs = forward_batch(model, X)
        grad = mlp_backward(model, X, upstream_derivative(outputs, targets, loss_kind))

        def loss_at(params):
            shifted = unflatten_params(model, params)
            return loss_pred(forward_batch(shifted, X), targets, loss_kind)

        numeric = central(loss_at, flatten_params(model))
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-7)

    for _ in range(20):
        d = int(rng.integers(1, 9))
        n = int(rng.integers(2, 13))
        X = rng.standard_normal((n, d))
        g = LinearSurrogate(rng.standard_normal(d), float(rng.standard_normal()))
        f_out = rng.standard_normal(n)
        grad = surrogate_grad(g, X, f_out - predict_batch(g, X))

        def fit_loss_at(params):
            shifted = surrogate_from_params(params)
            return float(np.mean((f_out - predict_batch(shifted, X)) ** 2))

        numeric = central(fit_loss_at, surrogate_params(g))
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-7)

    def loss_value(kind, outputs, targets):
        if kind in (MSE, BCE):
            return loss_pred(outputs, targets, kind)
        if kind == POINT_FIDELITY:
            return loss_point_fidelity(outputs, targets)
        return loss_distill(outputs, targets)

    for kind in LOSS_KINDS:
        for _ in range(20):
            n = int(rng.integers(1, 11))
            if kind == BCE:
                outputs = rng.uniform(0.05, 0.95, size=n)
                targets = (rng.uniform(size=n) > 0.5).astype(np.float64)
            else:
                outputs = rng.standard_normal(n)
                targets = rng.standard_normal(n)
            upstream = upstream_derivative(outputs, targets, kind)
            numeric = central(lambda o: loss_value(kind, o, targets), outputs)
            np.testing.assert_allclose(upstream, numeric, rtol=1e-4, atol=1e-7)

    assert time.perf_counter() - start < 30.0


def test_criterion_3_joint_training_preserves_task_and_cuts_fidelity_gap(paired_runs):
    gf_moo = np.mean([gf_of(paired_runs, MOO, s) for s in SEEDS])
    gf_stl = np.mean([gf_of(paired_runs, STL, s) for s in SEEDS])
    f1_moo = np.mean([paired_runs["runs"][(MOO, s)][2].task_metric for s in SEEDS])
    f1_stl = np.mean([paired_runs["runs"][(STL, s)][2].task_metric for s in SEEDS])

    assert gf_moo <= 0.1 * gf_stl
    assert f1_stl - f1_moo <= 0.05
    assert paired_runs["elapsed"] < 300.0


def test_criterion_4_method_ordering_holds_across_seeds(paired_runs):
    def seeds_where(pred):
        return sum(1 for s in SEEDS if pred(s))

    assert seeds_where(
        lambda s: gf_of(paired_runs, MOO, s) <= gf_of(paired_runs, UNI, s)
    ) >= 2
    assert seeds_where(
        lambda s: gf_of(paired_runs, MOO, s) <= gf_of(paired_runs, RND, s)
    ) >= 2
    assert seeds_where(
        lambda s: gf_of(paired_runs, MOO, s) <= gf_of(paired_runs, JDIST, s)
    ) >= 2
    assert seeds_where(
        lambda s: gf_of(paired_runs, JDIST, s) <= 1.05 * gf_of(paired_runs, JSEP, s)
    ) >= 2
    assert seeds_where(
        lambda s: 0.5 * gf_of(paired_runs, STL, s)
        <= gf_of(paired_runs, JSEP, s)
        <= 2.0 * gf_of(paired_runs, STL, s)
    ) >= 2


def test_criterion_5_min_norm_point_survives_trade_off_scan(scan_results):
    points, failures = scan_results
    assert failures == []
    non_dominated_seeds = 0
    for seed in SEEDS:
        seed_points = [p for p in points if p.seed == seed]
        assert len(seed_points) == 10
        (moo_point,) = [p for p in seed_points if p.method == MOO]
        if not moo_point.dominated:
            non_dominated_seeds += 1
        (lo,) = [p for p in seed_points if p.method == "GS(0.1)"]
        (hi,) = [p for p in seed_points if p.method == "GS(0.9)"]
        assert hi.gf >= lo.gf
    assert non_dominated_seeds >= 2


def test_criterion_6_local_neighborhood_fidelity_halves(paired_runs):
    start = time.perf_counter()
    settings = GnfSettings(points=50, count=10, sigma2=0.1, local=True)
    values = {}
    for method in (MOO, STL):
        per_seed = []
        for seed in SEEDS:
            model, surrogate, _, _ = paired_runs["runs"][(method, seed)]
            value = evaluate_gnf(
                model, surrogate, seed, paired_runs["datasets"][seed], settings,
            )
            per_seed.append(value)
        values[method] = float(np.mean(per_seed))
    assert values[MOO] <= 0.5 * values[STL]
    assert paired_runs["elapsed"] + (time.perf_counter() - start) < 300.0


def test_criterion_7_documented_examples_hold(tmp_path):
    # fidelity arithmetic: constant gap 0.2 squares to 0.04
    f = MlpModel(
        (Layer(np.zeros((1, 2)), np.array([0.5]), IDENTITY),), REGRESSION_SCALAR
    )
    g = LinearSurrogate(np.zeros(2), 0.3)
    assert global_fidelity(f, g, np.array([[1.0, 2.0]])) == pytest.approx(
        0.04, abs=1e-15
    )

    # F1 edge rules: perfect agreement and the zero-division conventions
    assert f1_score(np.ones(4), np.ones(4)) == 1.0
    assert f1_score(np.zeros(3), np.ones(3)) == 0.0
    assert f1_score(np.ones(3), np.zeros(3)) == 0.0

    # standardization of a three-value column
    ds = Dataset(
        features=np.array([[1.0], [2.0], [3.0]]),
        targets=np.array([0.5, 1.5, 2.5]),
        task=REGRESSION,
        feature_names=("x0",),
        split=np.asarray([TRAIN] * 3, dtype=object),
    )
    out, stats = standardize(ds)
    assert np.allclose(out.features[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)

    # one-hot indicators partition each row
    csv_path = tmp_path / "colors.csv"
    csv_path.write_text("color,y\nred,0\ngreen,1\nblue,0\ngreen,1\n")
    table = load_csv(
        str(csv_path),
        (ColumnSpec("color", "categorical"), ColumnSpec("y", "target")),
    )
    encoded = one_hot(table)
    names = [c.name for c in encoded.schema if c.name.startswith("color=")]
    assert names == ["color=blue", "color=green", "color=red"]
    matrix = np.column_stack([encoded.columns[n] for n in names])
    assert np.array_equal(matrix.sum(axis=1), np.ones(4))

    # image container round-trip with exact [0,1] scaling
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    images_path.write_bytes(
        struct.pack(">iiii", 0x00000803, 1, 2, 2) + bytes([0, 255, 128, 64])
    )
    labels_path.write_bytes(struct.pack(">ii", 0x00000801, 1) + bytes([7]))
    data = load_idx(str(images_path), str(labels_path))
    assert np.allclose(
        data.pixels[0], np.array([0, 255, 128, 64]) / 255.0, atol=1e-12
    )
    assert data.image_dims == (2, 2)

    # perturbation sampler hits its configured variance
    spec = NeighborhoodSpec(kind=GAUSSIAN, count=10_000, sigma2=0.1, seed=3)
    neighbors = make_neighborhood(np.array([0.0]), spec)
    assert abs(float(np.var(neighbors)) - 0.1) < 0.005


def test_criterion_8_experiment_pipeline_is_bit_reproducible(tmp_path):
    def run(tag):
        out = tmp_path / tag
        spec_path = tmp_path / f"{tag}.json"
        spec_path.write_text(json.dumps({
            "dataset": {"kind": "synthetic", "generator": "nonlinear",
                        "n": 200, "d": 5, "noise": 0.3},
            "methods": [{"method": MOO}, {"method": STL}],
            "seeds": [0, 1],
            "config": {"max_epochs": 30, "batch_size": 64, "hidden": [8]},
            "output_dir": str(out),
        }))
        assert main(["experiment", "--spec", str(spec_path)]) == 0
        return out

    first = run("a")
    second = run("b")
    assert (first / "results.csv").read_bytes() == (second / "results.csv").read_bytes()
    first_runs = sorted(p.name for p in (first / "runs").iterdir())
    second_runs = sorted(p.name for p in (second / "runs").iterdir())
    assert first_runs == second_runs
    assert first_runs
    for name in first_runs:
        assert (first / "runs" / name).read_bytes() == (second / "runs" / name).read_bytes()
