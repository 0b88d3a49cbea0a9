from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tandem.data import CLASSIFICATION
from tandem.errors import DataError, TandemError, caught
from tandem.harness import (
    KNOWN_METRICS,
    ExperimentSpec,
    GnfSettings,
    ResultRow,
    RESULTS_SCHEMA,
    RESULTS_VERSION,
    aggregate_rows,
    build_config,
    dataset_name,
    emit_report,
    emit_scatter,
    evaluate_gnf,
    load_experiment_spec,
    method_label,
    pareto_scan,
    resolve_dataset,
    run_experiment,
    spec_from_dict,
    write_failures,
)
from tandem import harness, trainers
from tandem.cli import main
from tandem.moo import dominates
from tandem.surrogate import LinearSurrogate
from tandem.trainers import GS, LINEAR, MOO, STL, TrainConfig

SYNTH = {"kind": "synthetic", "generator": "nonlinear", "n": 80, "d": 3,
         "noise": 0.1}
QUICK = {"max_epochs": 5, "batch_size": 64, "hidden": [4]}


def quick_spec(tmp_path, methods, seeds, metrics=("task", "gf")):
    return spec_from_dict(
        {
            "dataset": dict(SYNTH),
            "methods": methods,
            "seeds": list(seeds),
            "metrics": list(metrics),
            "config": dict(QUICK),
            "output_dir": str(tmp_path / "out"),
        }
    )


# -- spec parsing ---------------------------------------------------------------


def test_spec_from_dict_applies_defaults():
    spec = spec_from_dict({"dataset": dict(SYNTH), "methods": [{"method": MOO}],
                           "seeds": [0]})
    assert spec.metrics == ("task", "gf")
    assert spec.output_dir == "out"
    assert spec.gnf == GnfSettings()
    assert spec.base_config is None


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(DataError, match="base_cfg"):
        spec_from_dict({"dataset": dict(SYNTH), "methods": [{"method": MOO}],
                        "seeds": [0], "base_cfg": {}})


def test_spec_requires_methods_seeds_and_dataset():
    with pytest.raises(DataError):
        spec_from_dict({"dataset": dict(SYNTH), "methods": [], "seeds": [0]})
    with pytest.raises(DataError):
        spec_from_dict({"dataset": dict(SYNTH), "methods": [{"method": MOO}],
                        "seeds": []})
    with pytest.raises(DataError):
        spec_from_dict({"methods": [{"method": MOO}], "seeds": [0]})


def test_spec_rejects_unknown_metric_and_dataset_kind():
    with pytest.raises(DataError):
        spec_from_dict({"dataset": dict(SYNTH), "methods": [{"method": MOO}],
                        "seeds": [0], "metrics": ["accuracy"]})
    with pytest.raises(DataError):
        spec_from_dict({"dataset": {"kind": "parquet"},
                        "methods": [{"method": MOO}], "seeds": [0]})


def test_spec_loads_dataset_descriptor_by_path(tmp_path):
    desc_path = tmp_path / "data" / "synth.json"
    os.makedirs(desc_path.parent)
    desc_path.write_text(json.dumps(SYNTH))
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps({
        "dataset": "data/synth.json",
        "methods": [{"method": MOO}],
        "seeds": [0],
    }))
    spec = load_experiment_spec(str(spec_path))
    assert spec.dataset["generator"] == "nonlinear"
    assert spec.base_dir == str(desc_path.parent)


# -- dataset resolution ---------------------------------------------------------


def test_resolve_synthetic_is_seed_deterministic():
    a = resolve_dataset(SYNTH, seed=3)
    b = resolve_dataset(SYNTH, seed=3)
    c = resolve_dataset(SYNTH, seed=4)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.split, b.split)
    assert not np.array_equal(a.features, c.features)


def test_resolve_csv_descriptor(tmp_path):
    csv_path = tmp_path / "toy.csv"
    csv_path.write_text(
        "age,income\n20,1\n30,0\n40,1\n50,0\n60,1\n70,0\n80,1\n90,0\n"
    )
    descriptor = {
        "kind": "csv",
        "path": "toy.csv",
        "columns": [
            {"name": "age", "kind": "numeric"},
            {"name": "income", "kind": "target"},
        ],
    }
    dataset = resolve_dataset(descriptor, seed=0, base_dir=str(tmp_path))
    assert dataset.task == CLASSIFICATION
    assert dataset.feature_names == ("age",)
    assert dataset.features.shape == (8, 1)


def test_resolve_rejects_unknown_kind():
    with pytest.raises(DataError):
        resolve_dataset({"kind": "sql"}, seed=0)


@pytest.mark.parametrize("descriptor, message", [
    ([1, 2], "dataset descriptor must be an object"),
    ({"kind": "synthetic", "generator": "nonlinear", "d": 3}, "lacks 'n'"),
    ({"kind": "synthetic"}, "lacks 'generator', 'n', 'd'"),
    ({"kind": "csv", "path": "toy.csv"}, "lacks 'columns'"),
    ({"kind": "csv", "columns": []}, "lacks 'path'"),
    ({"kind": "csv", "path": "toy.csv", "columns": 5}, "columns must be objects"),
    ({"kind": "csv", "path": "toy.csv", "columns": [{"kind": "numeric"}]},
     "with 'name', 'kind'"),
    ({"kind": "csv", "path": "toy.csv",
      "columns": [{"name": "y", "kind": "target", "levels": 5}]}, "'levels' list"),
    ({"kind": "idx", "images": "i.idx", "labels": "l.idx"}, "lacks 'digit'"),
    ({"kind": [1]}, "unknown dataset kind [1]"),
    (dict(SYNTH, n=60.9), "key 'n' has the wrong type: 60.9"),
    (dict(SYNTH, n="abc"), "key 'n' has the wrong type: 'abc'"),
    (dict(SYNTH, n=None), "key 'n' has the wrong type: None"),
    (dict(SYNTH, d=True), "key 'd' has the wrong type: True"),
    (dict(SYNTH, noise=None), "key 'noise' has the wrong type: None"),
    (dict(SYNTH, generator=5), "key 'generator' has the wrong type: 5"),
    ({"kind": "csv", "path": 5, "columns": []}, "key 'path' has the wrong type: 5"),
    ({"kind": "idx", "images": None, "labels": "l.idx", "digit": 3},
     "key 'images' has the wrong type: None"),
    ({"kind": "idx", "images": "i.idx", "labels": "l.idx", "digit": "3"},
     "key 'digit' has the wrong type: '3'"),
])
def test_resolve_rejects_malformed_descriptor(descriptor, message):
    with pytest.raises(DataError) as info:
        resolve_dataset(descriptor, seed=0)
    assert message in str(info.value)


@pytest.mark.parametrize("noise", [-0.5, float("nan"), float("inf")])
def test_resolve_rejects_noise_that_is_negative_or_not_finite(noise):
    with pytest.raises(ValueError, match="noise must be finite and nonnegative"):
        resolve_dataset(dict(SYNTH, noise=noise), seed=0)


def test_dataset_name_prefers_explicit_name():
    assert dataset_name({"kind": "synthetic", "generator": "nonlinear",
                         "name": "toy"}) == "toy"
    assert dataset_name(SYNTH) == "nonlinear"
    assert dataset_name({"kind": "csv", "path": "dir/adult.csv"}) == "adult"
    assert dataset_name({"kind": "idx", "digit": 3}) == "digit3"
    assert dataset_name({"kind": "csv"}) == "csv"
    assert dataset_name({"kind": "csv", "path": 5}) == "csv"


@pytest.mark.parametrize("name", ["", ".", "..", "../../escaped", "a/b", os.sep + "abs",
                                  5, None, ["toy"]])
def test_dataset_name_rejects_a_name_that_is_not_a_file_name(name):
    with pytest.raises(DataError, match="dataset name must be a file name"):
        dataset_name(dict(SYNTH, name=name))


# -- config merging -------------------------------------------------------------


def test_build_config_merges_and_overrides():
    base = {"max_epochs": 50, "lr_theta": 1e-2}
    entry = {"method": MOO, "max_epochs": 9}
    config = build_config(entry, base, seed=7)
    assert config.method == MOO
    assert config.max_epochs == 9
    assert config.lr_theta == 1e-2
    assert config.seed == 7


def test_build_config_normalizes_hidden_and_rejects_unknown_keys():
    config = build_config({"method": MOO, "hidden": [8, 4]}, None, seed=0)
    assert config.hidden == (8, 4)
    with pytest.raises(DataError, match="momentum"):
        build_config({"method": MOO, "momentum": 0.9}, None, seed=0)
    for hidden in (5, "8", [8, "4"], [8.0], [True], None, {"a": 1}):
        with pytest.raises(DataError, match="hidden"):
            build_config({"method": MOO, "hidden": hidden}, None, seed=0)
    for entry in ({"lr_theta": "0.1"}, {"method": GS, "alpha": "0.5"},
                  {"stationarity_tol": "1e-3"}, {"max_epochs": 1.5}, {"batch_size": True}):
        with pytest.raises(DataError, match="wrong type"):
            build_config({"method": MOO, **entry}, None, seed=0)
    with pytest.raises(ValueError, match="finite"):
        build_config({"method": MOO, "lr_theta": math.nan}, None, seed=0)


def test_method_label_includes_fixed_weight():
    assert method_label(TrainConfig(method=GS, alpha=0.3, seed=0)) == "GS(0.3)"
    assert method_label(TrainConfig(method=MOO, seed=0)) == MOO


# -- grid runs and aggregation ---------------------------------------------------


def test_single_method_single_seed_gives_one_row_without_std(tmp_path):
    spec = quick_spec(tmp_path, [{"method": MOO}], [0], metrics=("task",))
    rows, outcomes, failures = run_experiment(spec)
    assert failures == []
    assert len(rows) == 1
    assert rows[0].method == MOO
    assert rows[0].std is None
    assert rows[0].mean == pytest.approx(outcomes[0].report.task_metric)


def test_two_seed_std_matches_sample_formula(tmp_path):
    spec = quick_spec(tmp_path, [{"method": MOO}], [0, 1], metrics=("gf",))
    rows, outcomes, failures = run_experiment(spec)
    assert failures == []
    (row,) = rows
    a, b = (o.report.gf for o in outcomes)
    assert row.mean == pytest.approx((a + b) / 2.0, rel=1e-12)
    assert row.std == pytest.approx(abs(a - b) / math.sqrt(2.0), rel=1e-12)


def test_rerun_same_spec_gives_identical_table(tmp_path):
    spec = quick_spec(tmp_path, [{"method": MOO}, {"method": STL}], [0, 1])
    rows_a, _, _ = run_experiment(spec)
    rows_b, _, _ = run_experiment(spec)
    assert rows_a == rows_b


def test_classification_task_rows_are_labelled_f1(tmp_path):
    spec = quick_spec(tmp_path, [{"method": MOO}], [0])
    rows, _, _ = run_experiment(spec)
    assert {r.metric for r in rows} == {"f1", "gf"}


def test_linear_method_produces_no_fidelity_row(tmp_path):
    spec = quick_spec(tmp_path, [{"method": LINEAR}], [0, 1])
    rows, _, failures = run_experiment(spec)
    assert failures == []
    assert {r.metric for r in rows} == {"f1"}


def test_failed_run_is_recorded_and_grid_continues(tmp_path):
    spec = quick_spec(tmp_path, [{"method": GS}, {"method": MOO}], [0])
    rows, outcomes, failures = run_experiment(spec)
    assert len(failures) == 1
    assert failures[0].method == GS
    assert failures[0].seed == 0
    assert "alpha" in failures[0].error
    assert {o.method for o in outcomes} == {MOO}
    assert all(r.method == MOO for r in rows)


@pytest.mark.parametrize("setting", [{"phi_max_epochs": 0}, {"phi_tol": float("nan")}])
def test_bad_surrogate_phase_setting_is_a_failed_run(tmp_path, setting):
    spec = quick_spec(tmp_path, [{"method": STL, **setting}, {"method": MOO}], [0])
    rows, outcomes, failures = run_experiment(spec)
    assert [(f.method, f.seed, f.error_type) for f in failures] == [(STL, 0, "ValueError")]
    assert [o.method for o in outcomes] == [MOO]
    assert all(r.method == MOO for r in rows)


def test_run_artifacts_written_per_run(tmp_path):
    spec = quick_spec(tmp_path, [{"method": MOO}], [0])
    run_experiment(spec)
    runs = tmp_path / "out" / "runs"
    assert (runs / "nonlinear_MOO_0_report.json").exists()
    assert (runs / "nonlinear_MOO_0_surrogate.json").exists()
    assert (runs / "nonlinear_MOO_0_model.json").exists()
    report = json.loads((runs / "nonlinear_MOO_0_report.json").read_text())
    assert report["method"] == MOO


def test_aggregate_skips_missing_metrics_entirely(tmp_path):
    spec = quick_spec(tmp_path, [{"method": LINEAR}], [0])
    _, outcomes, _ = run_experiment(spec)
    dataset = resolve_dataset(SYNTH, seed=0)
    rows = aggregate_rows("nonlinear", dataset, [LINEAR], outcomes, ("gf",))
    assert rows == []


def test_gnf_metric_attaches_to_reports(tmp_path):
    spec = spec_from_dict({
        "dataset": dict(SYNTH),
        "methods": [{"method": MOO}],
        "seeds": [0],
        "metrics": ["task", "gnf"],
        "gnf": {"points": 5, "count": 4, "sigma2": 0.1},
        "config": dict(QUICK),
        "output_dir": str(tmp_path / "out"),
    })
    rows, outcomes, failures = run_experiment(spec)
    assert failures == []
    assert outcomes[0].report.gnf is not None
    assert {r.metric for r in rows} == {"f1", "gnf"}


def test_evaluate_gnf_absent_without_black_box():
    dataset = resolve_dataset(SYNTH, seed=0)
    value = evaluate_gnf(None, LinearSurrogate(np.zeros(3), 0.0), 0, dataset, GnfSettings())
    assert value is None


# -- trade-off scan ---------------------------------------------------------------


@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    spec = spec_from_dict({
        "dataset": dict(SYNTH),
        "methods": [{"method": MOO}],
        "seeds": [0],
        "config": dict(QUICK),
        "output_dir": str(tmp_path_factory.mktemp("scan")),
    })
    return pareto_scan(spec)


def test_scan_yields_ten_records_per_seed(scan):
    points, failures = scan
    assert failures == []
    assert len(points) == 10
    methods = [p.method for p in points]
    assert methods[0] == MOO
    assert methods[1:] == [f"GS({round(0.1 * i, 1):g})" for i in range(1, 10)]
    assert points[0].alpha is None
    assert [p.alpha for p in points[1:]] == [
        pytest.approx(0.1 * i) for i in range(1, 10)
    ]


def test_scan_dominance_flags_match_pairwise_predicate(scan):
    points, _ = scan
    losses = [np.asarray([1.0 - p.task_metric, p.gf]) for p in points]
    for i, point in enumerate(points):
        expected = any(
            dominates(losses[j], losses[i])
            for j in range(len(points)) if j != i
        )
        assert point.dominated == expected


def test_scan_point_strictly_worse_on_both_axes_is_dominated(scan):
    points, _ = scan
    worse = [
        p for p in points
        if any(
            q.task_metric > p.task_metric and q.gf < p.gf
            for q in points
        )
    ]
    assert worse, "fixture should produce at least one strictly worse point"
    assert all(p.dominated for p in worse)


# -- report emission ---------------------------------------------------------------


GOLDEN_ROWS = [
    ResultRow("adult", "MOO", "f1", 0.912345678, 0.0123456789),
    ResultRow("adult", "STL", "gf", 0.000123456789, None),
]

GOLDEN_CSV = (
    "dataset,method,metric,mean,std\n"
    "adult,MOO,f1,0.912346,0.0123457\n"
    "adult,STL,gf,0.000123457,\n"
)


def test_empty_table_emits_header_only_csv(tmp_path):
    path = tmp_path / "empty.csv"
    emit_report([], "csv", str(path))
    assert path.read_text() == "dataset,method,metric,mean,std\n"


def test_fixture_table_emits_byte_exact_csv(tmp_path):
    path = tmp_path / "results.csv"
    emit_report(GOLDEN_ROWS, "csv", str(path))
    assert path.read_bytes() == GOLDEN_CSV.encode()


def test_json_report_is_schema_versioned(tmp_path):
    path = tmp_path / "results.json"
    emit_report(GOLDEN_ROWS, "json", str(path))
    payload = json.loads(path.read_text())
    assert payload["schema"] == RESULTS_SCHEMA == "tandem-results"
    assert payload["version"] == RESULTS_VERSION == 1
    assert payload["rows"][0] == {
        "dataset": "adult", "method": "MOO", "metric": "f1",
        "mean": 0.912346, "std": 0.0123457,
    }
    assert payload["rows"][1]["std"] is None


def test_unknown_report_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], "yaml", str(tmp_path / "x"))


def test_scatter_emission_round_trips_schema(tmp_path, scan):
    points, _ = scan
    csv_path = tmp_path / "pareto.csv"
    emit_scatter(points, "csv", str(csv_path))
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "seed,method,alpha,task_metric,gf,dominated"
    assert len(lines) == 11
    assert lines[1].split(",")[2] == ""

    json_path = tmp_path / "pareto.json"
    emit_scatter(points, "json", str(json_path))
    payload = json.loads(json_path.read_text())
    assert payload["schema"] == "tandem-pareto"
    assert len(payload["points"]) == 10


def test_write_failures_lists_every_failure(tmp_path):
    from tandem.harness import RunFailure

    failures = [RunFailure("toy", "GS", 0, "alpha required", "ValueError")]
    write_failures(failures, str(tmp_path))
    payload = json.loads((tmp_path / "failures.json").read_text())
    assert payload == {
        "failures": [{"dataset": "toy", "method": "GS", "seed": 0,
                      "error": "alpha required", "error_type": "ValueError"}]
    }


def test_failures_keep_the_exception_type(tmp_path):
    spec = quick_spec(tmp_path, [{"method": GS}, {"method": MOO}], [0])
    _, _, failures = run_experiment(spec)
    assert [(f.method, f.error_type) for f in failures] == [(GS, "ValueError")]

    missing = spec_from_dict({
        "dataset": {"kind": "csv", "path": "absent.csv",
                    "columns": [{"name": "y", "kind": "target"}]},
        "methods": [{"method": MOO}], "seeds": [0, 1],
        "output_dir": str(tmp_path / "out"),
    }, str(tmp_path))
    _, _, failures = run_experiment(missing)
    assert {f.error_type for f in failures} == {"FileNotFoundError"}
    _, failures = pareto_scan(missing)
    assert [(f.method, f.error_type) for f in failures] == (
        [("dataset", "FileNotFoundError")] * 2)
    write_failures(failures, str(tmp_path))
    payload = json.loads((tmp_path / "failures.json").read_text())
    assert {f["error_type"] for f in payload["failures"]} == {"FileNotFoundError"}


def test_gnf_settings_defaults():
    settings = GnfSettings()
    assert settings.points == 50
    assert settings.count == 10
    assert settings.sigma2 == 0.1
    assert settings.local is False


def test_experiment_spec_validates_on_construction():
    with pytest.raises(DataError):
        ExperimentSpec(dataset={"kind": "synthetic"}, methods=(), seeds=(0,))


@pytest.mark.parametrize("bad", [
    {"points": 0}, {"count": 0}, {"sigma2": 0.0}, {"sigma2": -0.1},
    {"kind": "blur"}, {"patch_size": 0}, {"num_patches": 0}, {"sigma2": float("inf")},
    # Values of the wrong type; a bool is never taken as a number.
    {"local": "yes"}, {"local": 1}, {"sigma2": True}, {"sigma2": "0.1"}, {"points": 3.7},
    {"count": True}, {"patch_size": 2.0}, {"num_patches": None}, {"kind": 3},
])
def test_gnf_settings_reject_out_of_range_values(bad):
    with pytest.raises(DataError):
        GnfSettings(**bad)
    with pytest.raises(DataError):
        spec_from_dict({"dataset": dict(SYNTH), "methods": [{"method": MOO}],
                        "seeds": [0], "gnf": bad})


@pytest.mark.parametrize("gnf", [{"pointz": 5}, ["points"]])
def test_spec_rejects_malformed_gnf_block(gnf):
    with pytest.raises(DataError, match="gnf"):
        spec_from_dict({"dataset": dict(SYNTH), "methods": [{"method": MOO}],
                        "seeds": [0], "gnf": gnf})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)


def keyed(keys):
    """JSON objects whose keys are mostly drawn from ``keys``."""
    return st.dictionaries(st.sampled_from(keys) | st.text(max_size=6),
                           JSON_VALUES, max_size=4)


SPEC_DICTS = st.fixed_dictionaries({}, optional={
    # A descriptor object only: a string would be read as a file path.
    "dataset": st.fixed_dictionaries(
        {"kind": st.sampled_from(["synthetic", "csv", "idx"]) | JSON_VALUES}
    ) | keyed(["kind", "generator", "n", "d"]),
    "methods": st.lists(keyed(["method", "alpha"]) | JSON_VALUES, max_size=3)
    | JSON_VALUES,
    "seeds": st.lists(st.integers(0, 9) | JSON_VALUES, max_size=3) | JSON_VALUES,
    "metrics": st.lists(st.sampled_from(KNOWN_METRICS) | JSON_VALUES, max_size=3)
    | JSON_VALUES,
    "gnf": keyed([f.name for f in dataclasses.fields(GnfSettings)]) | JSON_VALUES,
    "output_dir": st.text(max_size=6) | JSON_VALUES,
    "config": keyed(["max_epochs", "hidden"]) | JSON_VALUES,
    "seedz": JSON_VALUES,
})


@given(SPEC_DICTS)
def test_any_spec_dict_parses_or_raises_tandem_error(raw):
    try:
        spec = spec_from_dict(raw)
    except TandemError:
        return
    assert all(isinstance(entry, dict) for entry in spec.methods)
    assert all(type(seed) is int for seed in spec.seeds)
    assert set(spec.metrics) <= set(KNOWN_METRICS)
    assert isinstance(spec.output_dir, str)
    assert spec.base_config is None or isinstance(spec.base_config, dict)


LABELS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
VALUES = st.floats(allow_nan=False, allow_infinity=False, width=64)


def csv_cells(path) -> list[list[str]]:
    """Every record of a CSV file as the standard library parses it."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


@given(st.lists(st.tuples(LABELS, LABELS, st.sampled_from(["f1", "mse", "gf", "gnf"]),
                          VALUES, st.none() | VALUES), max_size=6))
def test_report_csv_round_trips_arbitrary_labels(records):
    rows = [ResultRow(*record) for record in records]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "results.csv")
        emit_report(rows, "csv", path)
        cells = csv_cells(path)
    assert cells == [["dataset", "method", "metric", "mean", "std"]] + [
        [row.dataset, row.method, row.metric, f"{row.mean:.6g}",
         "" if row.std is None else f"{row.std:.6g}"]
        for row in rows
    ]


def test_report_csv_quotes_labels_that_need_it(tmp_path):
    path = tmp_path / "results.csv"
    rows = [ResultRow("adult, v2", 'GS "0.3"', "f1", 0.5, None),
            ResultRow("a\rb", "MOO", "f1", 0.25, 0.125)]
    emit_report(rows, "csv", str(path))
    assert path.read_bytes().split(b"\n")[1:] == [
        b'"adult, v2","GS ""0.3""",f1,0.5,',
        b'"a\rb","MOO","f1","0.25","0.125"',
        b"",
    ]
    assert csv_cells(path)[1:] == [["adult, v2", 'GS "0.3"', "f1", "0.5", ""],
                                   ["a\rb", "MOO", "f1", "0.25", "0.125"]]


# -- a diverging run among healthy ones ----------------------------------------

# At this step size and seed 5, GS(0.9) and the predictive-only network
# diverge while MOO and the other GS runs of the same lockstep stack survive.
# The expected files are those written when every run trains alone.
DIVERGING = {
    "dataset": {"kind": "synthetic", "generator": "nonlinear", "n": 300, "d": 5,
                "noise": 0.3},
    "seeds": [5],
    "config": {"max_epochs": 4, "batch_size": 32, "hidden": [8, 4], "lr_theta": 1e120},
}

DIVERGED_GS = """\
    {
      "dataset": "nonlinear",
      "error": "gradient has non-finite entries",
      "error_type": "NumericError",
      "method": "GS(0.9)",
      "seed": 5
    }"""


def test_experiment_with_a_diverging_run_writes_the_sequential_files(tmp_path):
    spec = spec_from_dict({**DIVERGING, "output_dir": str(tmp_path), "methods": [
        {"method": m} for m in (MOO, STL)] + [{"method": GS, "alpha": 0.9},
                                               {"method": "JDIST"}, {"method": LINEAR}]})
    rows, outcomes, failures = run_experiment(spec)
    emit_report(rows, "csv", str(tmp_path / "results.csv"))
    write_failures(failures, str(tmp_path))
    assert [o.method for o in outcomes] == [MOO, LINEAR]
    assert (tmp_path / "results.csv").read_text() == (
        "dataset,method,metric,mean,std\n"
        "nonlinear,MOO,f1,0,\n"
        "nonlinear,MOO,gf,4.5362e-05,\n"
        "nonlinear,LINEAR,f1,0.904762,\n"
    )
    lost_teacher = """\
    {
      "dataset": "nonlinear",
      "error": "non-finite loss inputs",
      "error_type": "NumericError",
      "method": "%s",
      "seed": 5
    }"""
    assert (tmp_path / "failures.json").read_text() == (
        '{\n  "failures": [\n' + ",\n".join(
            [lost_teacher % STL, DIVERGED_GS, lost_teacher % "JDIST"]) + "\n  ]\n}\n")


def test_pareto_scan_with_a_diverging_run_writes_the_sequential_files(tmp_path):
    spec = spec_from_dict({**DIVERGING, "methods": [{"method": MOO}]})
    points, failures = pareto_scan(spec)
    emit_scatter(points, "csv", str(tmp_path / "pareto.csv"))
    write_failures(failures, str(tmp_path))
    assert (tmp_path / "pareto.csv").read_text() == (
        "seed,method,alpha,task_metric,gf,dominated\n5,MOO,,0,4.5362e-05,false\n"
        + "".join(f"5,GS({a / 10:g}),{a / 10:g},0,4.5362e-05,false\n" for a in range(1, 9))
    )
    assert (tmp_path / "failures.json").read_text() == (
        '{\n  "failures": [\n' + DIVERGED_GS + "\n  ]\n}\n")


# -- a stack failing before its first step ---------------------------------------


def _init_failing(monkeypatch, fails):
    """Make building a network raise MemoryError whenever ``fails(hidden)``."""
    real = trainers.init_mlp

    def init_mlp(n_features, hidden, output_kind, rng):
        if fails(hidden):
            raise MemoryError("cannot allocate the stack")
        return real(n_features, hidden, output_kind, rng)

    monkeypatch.setattr(trainers, "init_mlp", init_mlp)


def test_experiment_stage_failing_at_set_up_fails_only_its_runs(tmp_path, monkeypatch):
    _init_failing(monkeypatch, lambda hidden: hidden == (6,))
    spec = quick_spec(tmp_path, [{"method": MOO}, {"method": STL, "hidden": [6]},
                                 {"method": "JDIST", "hidden": [6]},
                                 {"method": GS, "alpha": 0.5}], [0, 1])
    rows, outcomes, failures = run_experiment(spec)
    assert [(o.method, o.seed) for o in outcomes] == [
        (MOO, 0), (MOO, 1), ("GS(0.5)", 0), ("GS(0.5)", 1)]
    assert [(f.method, f.seed, f.error_type, f.error) for f in failures] == [
        (method, seed, "MemoryError", "cannot allocate the stack")
        for method in (STL, "JDIST") for seed in (0, 1)]
    assert {r.method for r in rows} == {MOO, "GS(0.5)"}


def test_pareto_scan_stage_failing_at_set_up_spares_the_next_seed(tmp_path, monkeypatch):
    # Seed 0's stack and each of its ten runs, retried alone, fail to set up;
    # one core keeps both seeds, and so every call counted, in this process.
    _visible_cores(monkeypatch, 1)
    calls = []
    _init_failing(monkeypatch, lambda hidden: calls.append(hidden) or len(calls) <= 11)
    points, failures = pareto_scan(quick_spec(tmp_path, [{"method": MOO}], [0, 1]))
    assert [(f.method, f.seed, f.error_type) for f in failures] == [
        (MOO, 0, "MemoryError")] + [(f"GS({a / 10:g})", 0, "MemoryError") for a in range(1, 10)]
    assert [(p.method, p.seed) for p in points] == [(MOO, 1)] + [
        (f"GS({a / 10:g})", 1) for a in range(1, 10)]


def test_pareto_scan_stack_failing_at_set_up_recovers_its_runs_alone(tmp_path, monkeypatch):
    _visible_cores(monkeypatch, 1)
    spec = quick_spec(tmp_path, [{"method": MOO}], [0, 1])
    clean, _ = pareto_scan(spec)
    calls = []
    _init_failing(monkeypatch, lambda hidden: calls.append(hidden) or len(calls) == 1)
    points, failures = pareto_scan(spec)
    assert failures == []
    # The failed stack, seed 0's ten runs alone, then seed 1's stack.
    assert len(calls) == 1 + 10 + 1
    assert points == clean


def test_pareto_scan_stage_failing_in_this_process_spares_the_forked_seed(tmp_path, monkeypatch):
    # With two workers seed 0 trains here and seed 1 in a child.
    _visible_cores(monkeypatch, 2)
    here = os.getpid()
    _init_failing(monkeypatch, lambda hidden: os.getpid() == here)
    points, failures = pareto_scan(quick_spec(tmp_path, [{"method": MOO}], [0, 1]))
    assert [(f.method, f.seed, f.error_type) for f in failures] == [
        (MOO, 0, "MemoryError")] + [(f"GS({a / 10:g})", 0, "MemoryError") for a in range(1, 10)]
    assert [(p.method, p.seed) for p in points] == [(MOO, 1)] + [
        (f"GS({a / 10:g})", 1) for a in range(1, 10)]
    _assert_no_children()


# -- seeds trained in worker processes -------------------------------------------


def _visible_cores(monkeypatch, cores):
    """Let this process see ``cores`` cores and one BLAS thread, which gives
    ``min(units, cores)`` workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cores, openblas, omp, units, workers", [
    (2, None, None, 1, 1),
    (2, None, None, 3, 1),  # unset: BLAS takes every core
    (2, "1", None, 1, 1),
    (2, "1", None, 2, 2),
    (2, "1", None, 3, 2),
    (2, None, "1", 3, 2),
    (2, "2", None, 3, 1),
    (2, "2", "1", 3, 1),  # OPENBLAS_NUM_THREADS comes first
    (4, "2", None, 1, 1),
    (4, "2", None, 2, 2),
    (4, "2", None, 3, 2),
    (4, "1", None, 3, 3),
    (8, "3", None, 3, 2),
    (2, "two", None, 3, 1),  # not a positive integer: as if unset
    (2, "0", None, 3, 1),
    (2, "-1", None, 3, 1),
    (2, "two", "1", 3, 2),
    (4, "8", None, 3, 1),
    (None, "1", None, 3, 1),  # no affinity call: one core
])
def test_worker_count_fills_the_cores_blas_leaves_idle(monkeypatch, cores, openblas, omp,
                                                       units, workers):
    if cores is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    assert harness._worker_count(units) == workers


def _entries(*methods):
    return [{"method": m, "alpha": 0.5} if m == GS else {"method": m} for m in methods]


GRID = _entries(MOO, STL, "UNI", "RND", "JSEP", "JDIST")
SCAN = _entries(MOO, *[GS] * 9)


@pytest.mark.parametrize("cores, seeds, entries, base, workers, slices", [
    (1, 1, SCAN, None, 1, [list(range(10))]),
    (1, 3, GRID, None, 1, [list(range(6))]),
    (2, 2, GRID, None, 2, [list(range(6))]),  # the seeds divide evenly: one slice each
    (2, 4, SCAN, None, 2, [list(range(10))]),
    (4, 2, SCAN, None, 4, [[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]]),
    (2, 1, SCAN, None, 2, [[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]]),
    (2, 3, SCAN, None, 2, [[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]]),
    (4, 1, SCAN, None, 4, [[0, 4, 8], [1, 5, 9], [2, 6], [3, 7]]),
    (4, 6, SCAN, None, 4, [[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]]),
    # STL, JSEP and JDIST hold the first slice: MOO, UNI and RND fill the other.
    (2, 1, GRID, None, 2, [[1, 4, 5], [0, 2, 3]]),
    (3, 1, GRID, None, 3, [[1, 4, 5], [0, 3], [2]]),
    (2, 1, _entries(STL, "JSEP", "JDIST"), None, 1, [[0, 1, 2]]),  # one unit, one worker
    (2, 1, _entries(MOO), None, 1, [[0]]),
    # An unbuilt entry is no unit, and the built ones alone are cut.
    (2, 1, _entries(LINEAR, "NOPE", [1], "JDIST"), None, 2, [[3], [0]]),
    # The base config names the method of an entry that does not.
    (2, 1, [{}, {"method": MOO}], {"method": STL}, 2, [[0], [1]]),
    (2, 1, [{}, {}, {"method": GS}], {"method": STL}, 1, [[0, 1]]),  # GS lacks its alpha
])
def test_a_seed_is_cut_into_the_fewest_slices_that_divide_evenly(
        monkeypatch, cores, seeds, entries, base, workers, slices):
    _visible_cores(monkeypatch, cores)
    plans = [("dataset", [caught(build_config, e, base, s) for e in entries])
             for s in range(seeds)]
    assert harness._units(plans) == (workers, [(s, part) for s in range(seeds) for part in slices])


def test_a_seed_without_a_dataset_is_no_unit_and_no_part_of_the_cut(monkeypatch):
    # Three seeds on two workers are each cut in two; two are not.
    _visible_cores(monkeypatch, 2)
    plans = [(DataError("absent") if s == 1 else "dataset",
              [build_config(e, None, s) for e in SCAN]) for s in range(3)]
    assert harness._units(plans) == (2, [(0, list(range(10))), (2, list(range(10)))])


GRID_METHODS = [{"method": m} for m in (MOO, STL)] + [
    {"method": GS, "alpha": 0.9}, {"method": "JDIST"}, {"method": LINEAR}]


def _grid_outputs(tmp_path, monkeypatch, capfd, command, cores, tag, seeds=(4, 5, 6, 7),
                  methods=GRID_METHODS):
    """Exit status, stdout, stderr and every output file of one ``command``
    run over ``seeds``: seed 5 has diverging runs and seed 7's dataset
    cannot be resolved, so seed 7 is no unit.  With two workers and seeds
    5, 6 and 7, seed 6 trains in a child; with one seed that has a dataset
    or three, each is cut in two and its second slice trains in the child."""
    def resolve(descriptor, seed, base_dir="."):
        if seed == 7:
            descriptor = {"kind": "csv", "path": "absent.csv", "columns": [
                {"name": "x", "kind": "numeric"}, {"name": "y", "kind": "target"}]}
        return resolve_dataset(descriptor, seed, base_dir)

    monkeypatch.setattr(harness, "resolve_dataset", resolve)
    _visible_cores(monkeypatch, cores)
    out = tmp_path / tag
    out.mkdir()
    spec = {**DIVERGING, "seeds": list(seeds), "metrics": ["task", "gf", "gnf"],
            "methods": methods}
    (out / "spec.json").write_text(json.dumps(spec))
    code = main([command, "--spec", str(out / "spec.json"), "--out", str(out / "out")])
    _assert_no_children()
    stdout, stderr = capfd.readouterr()
    root = str(out)
    files = {str(p.relative_to(out)): p.read_bytes().replace(root.encode(), b"<out>")
             for p in sorted(out.rglob("*")) if p.is_file()}
    return code, stdout.replace(root, "<out>"), stderr.replace(root, "<out>"), files


# Each command over seeds 5, 6 and 7, which two workers share seed by seed,
# and over seed 5 alone and seeds 4-7, which they share slice by slice.
GRIDS = [pytest.param(command, seeds, id=command + tag)
         for command in ("experiment", "pareto-scan")
         for seeds, tag in (((4, 5, 6, 7), ""), ((5,), "-1-seed"), ((5, 6, 7), "-3-seeds"))]


@pytest.mark.parametrize("command, seeds", GRIDS)
def test_seeds_trained_in_workers_write_the_serial_bytes(tmp_path, monkeypatch, capfd,
                                                         command, seeds):
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    serial = _grid_outputs(tmp_path, monkeypatch, capfd, command, 1, "serial", seeds)
    assert forks == []
    forked = _grid_outputs(tmp_path, monkeypatch, capfd, command, 2, "forked", seeds)
    assert forks == [1]
    assert forked == serial
    code, _, stderr, files = serial
    assert code > 0
    assert "NumericError" in stderr
    assert ("FileNotFoundError: [Errno 2]" in stderr) == (7 in seeds)
    assert b'"seed": 5' in files["out/failures.json"]


# The CLI in a process of its own that sees ``argv[1]`` cores, so that what a
# forked worker prints reaches the stderr that is compared.
_CLI_WITH_CORES = """
import os, sys
os.sched_getaffinity = lambda pid, cores=int(sys.argv[1]): set(range(cores))
from tandem.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _cli_process(tmp_path, command, seeds, cores):
    """Exit status, stdout and stderr of ``command`` over ``seeds`` of the
    diverging spec, run as its own process with one BLAS thread."""
    work = tmp_path / f"{command}_{len(seeds)}_{cores}"
    work.mkdir()
    (work / "spec.json").write_text(json.dumps({**DIVERGING, "seeds": list(seeds), "methods": [
        {"method": m} for m in (MOO, STL)] + [{"method": GS, "alpha": 0.9}, {"method": "JDIST"}]}))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.path.dirname(os.path.dirname(harness.__file__))}
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(
        [sys.executable, "-c", _CLI_WITH_CORES, str(cores), command,
         "--spec", str(work / "spec.json"), "--out", str(work / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    root = str(work)
    return done.returncode, done.stdout.replace(root, "<out>"), done.stderr.replace(root, "<out>")


@pytest.mark.parametrize("seeds", [(5,), (4, 5, 6)])
@pytest.mark.parametrize("command", ["experiment", "pareto-scan"])
def test_a_diverging_run_prints_the_serial_warnings_once_whatever_the_workers(
        tmp_path, command, seeds):
    serial = _cli_process(tmp_path, command, seeds, 1)
    assert _cli_process(tmp_path, command, seeds, 2) == serial
    for problem in ("overflow", "invalid value"):
        assert serial[2].count(f"RuntimeWarning: {problem} encountered in matmul") == 1


def _worker_dies(monkeypatch):
    here = os.getpid()
    real = harness.run_methods

    def run_methods(*args):
        if os.getpid() != here:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(harness, "run_methods", run_methods)


def _fork_fails(monkeypatch):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize("command, seeds", GRIDS)
@pytest.mark.parametrize("fail", [_worker_dies, _fork_fails])
def test_a_share_whose_worker_delivers_nothing_trains_in_this_process(
        tmp_path, monkeypatch, capfd, command, fail, seeds):
    serial = _grid_outputs(tmp_path, monkeypatch, capfd, command, 1, "serial", seeds)
    fail(monkeypatch)
    assert _grid_outputs(tmp_path, monkeypatch, capfd, command, 2, "forked", seeds) == serial


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("command", ["experiment", "pareto-scan"])
def test_each_seed_resolves_its_dataset_once_in_this_process(tmp_path, monkeypatch, command,
                                                             cores):
    # A child's calls cannot reach this process's memory, so each call is
    # logged to a file.
    log = tmp_path / "resolved"
    real = harness.resolve_dataset

    def resolve(descriptor, seed, base_dir="."):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {seed}\n")
        return real(descriptor, seed, base_dir)

    monkeypatch.setattr(harness, "resolve_dataset", resolve)
    _visible_cores(monkeypatch, cores)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dataset": SYNTH, "methods": _entries(MOO, STL, GS),
                                "seeds": [0, 1, 2], "config": QUICK}))
    assert main([command, "--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
    _assert_no_children()
    assert log.read_text().split("\n") == [f"{os.getpid()} {s}" for s in (0, 1, 2)] + [""]


def test_work_that_cannot_train_forks_nothing(tmp_path, monkeypatch, capfd):
    # Seed 7 has no dataset, so MOO at seed 5 is the one run to train.
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    methods = [{"method": MOO}]
    serial = _grid_outputs(tmp_path, monkeypatch, capfd, "experiment", 1, "serial", (5, 7),
                           methods)
    forked = _grid_outputs(tmp_path, monkeypatch, capfd, "experiment", 2, "forked", (5, 7),
                           methods)
    assert forks == []
    assert forked == serial and forked[0] == 1
