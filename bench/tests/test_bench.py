"""Self-tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import tandem  # noqa: E402
import tandem.harness  # noqa: E402
import tandem.nn  # noqa: E402
import tandem.trainers  # noqa: E402
from layers import TARGETS, UNITS, layer_metrics  # noqa: E402
from reference import normalised, reference_kernel  # noqa: E402
from tracer import NO_PARENT, SpanTable, Tracer, recording  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, PassError, Shape, fingerprint_files, generate_inputs,
)


def _table(spans):
    names = tuple(sorted({s[0] for s in spans}))
    return SpanTable(
        names=names,
        name_id=np.array([names.index(s[0]) for s in spans], dtype=np.int32),
        parent=np.array([s[1] for s in spans], dtype=np.int32),
        run=np.zeros(len(spans), dtype=np.int32),
        start=np.array([s[2] for s in spans], dtype=np.float64),
        end=np.array([s[3] for s in spans], dtype=np.float64),
        count=np.zeros(len(spans)),
    )


def test_self_time_subtracts_direct_children_only():
    spans = _table([
        ("a", NO_PARENT, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),
        ("c", 1, 2.0, 3.0),
        ("d", 0, 5.0, 9.0),
        ("a", NO_PARENT, 20.0, 21.5),
    ])
    np.testing.assert_allclose(spans.self_time(), [3.0, 2.0, 1.0, 4.0, 1.5])


def _bindings():
    originals = {t.name: getattr(sys.modules[f"tandem.{t.module}"], t.attr)
                 for t in TARGETS}
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "tandem" or name.startswith("tandem.")
        for attr, value in vars(module).items()
        if any(value is fn for fn in originals.values())
    }


def test_traced_run_rebinds_every_import_and_restores_it():
    before = _bindings()
    assert ("tandem.trainers", "forward_batch") in before
    tracer = Tracer()
    model = tandem.init_mlp(3, (4,), "regression-scalar", np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        with tracer.installed(TARGETS, run_id=7):
            assert tandem.trainers.forward_batch is not before[("tandem.trainers", "forward_batch")]
            tandem.trainers.forward_batch(model, np.ones((5, 3)))
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    spans = tracer.table()
    assert spans.names[spans.name_id[0]] == "nn.forward_batch"
    assert spans.run.tolist() == [7] and spans.count.tolist() == [5.0]


def test_recording_collects_results_and_restores():
    original = tandem.nn.param_count
    model = tandem.init_mlp(3, (4,), "regression-scalar", np.random.default_rng(0))
    with recording(tandem.nn, "param_count") as values:
        tandem.nn.param_count(model)
    assert values == [21] and tandem.nn.param_count is original


def test_same_seed_generates_identical_inputs(tmp_path):
    for sub in ("a", "b", "c"):
        os.mkdir(tmp_path / sub)
    first = generate_inputs(str(tmp_path / "a"), (3, 4))
    again = generate_inputs(str(tmp_path / "b"), (3, 4))
    other = generate_inputs(str(tmp_path / "c"), (5, 6))
    assert first.input_fingerprint == again.input_fingerprint
    assert first.input_fingerprint != other.input_fingerprint
    assert first.shape == Shape(n_train=1400, batch_size=128, phi_size=11,
                                weights=10 * 32 + 32 * 32 + 32)


def test_workload_specs_depend_only_on_seed(tmp_path):
    for name in ("paired-grid", "tradeoff-scan"):
        specs = []
        for sub in ("a", "b"):
            os.makedirs(tmp_path / name / sub)
            setup = WORKLOADS[name].setup(str(tmp_path / name / sub), 11)
            with open(setup.paths["spec"], encoding="utf-8") as fh:
                specs.append(fh.read())
        assert specs[0] == specs[1]


def test_fingerprint_changes_with_one_artifact_byte(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "m_model.json").write_text('{"w": [0.25, 1.5]}\n')
    (tmp_path / "results.csv").write_text("dataset,method,metric,mean,std\nd,MOO,gf,0.5,\n")
    before = fingerprint_files(str(tmp_path))
    assert fingerprint_files(str(tmp_path)) == before
    (runs / "m_model.json").write_text('{"w": [0.25, 1.6]}\n')
    assert fingerprint_files(str(tmp_path)) != before


@pytest.mark.parametrize("name,text", [
    ("r.json", '{"gf": NaN}'),
    ("r.csv", "seed,gf\n0,inf\n"),
])
def test_fingerprint_rejects_non_finite_numbers(tmp_path, name, text):
    (tmp_path / name).write_text(text)
    with pytest.raises(PassError):
        fingerprint_files(str(tmp_path))


def test_layer_metrics_count_training_steps_and_artifact_bytes(tmp_path):
    dataset = tandem.split(tandem.make_synthetic("nonlinear", 200, 10, 0.5, 0), seed=0)
    shape = Shape.of(dataset)
    config = tandem.TrainConfig(method="MOO", max_epochs=2, hidden=(32, 32))
    tracer = Tracer()
    with tracer.installed(TARGETS, run_id=1):
        model, surrogate, report = tandem.trainers.run_method(dataset, config)
        for seed in (0, 1):
            outcome = tandem.harness.RunOutcome("MOO", seed, model, surrogate, report)
            tandem.harness.write_run_artifacts(str(tmp_path), "d", outcome,
                                               dataset.feature_names)
    values = layer_metrics(tracer.table(), shape, pass_run=1, setup_run=0,
                           overhead_ratio=0.0)
    assert values.keys() == UNITS.keys()
    assert values["trainers.theta_steps"] == 2 * 2  # 140 train rows, batch 128
    assert values["trainers.run_method.calls"] == 1
    assert values["moo.is_pareto_stationary.calls"] == 2
    assert values["harness.write_run_artifacts.calls"] == 2
    assert values["harness.write_run_artifacts.bytes"] == sum(
        path.stat().st_size for path in (tmp_path / "runs").iterdir())


def test_normalised_pass_time_cancels_host_speed():
    times, host = [1.0, 3.0], [1.0, 2.0, 4.0]
    assert normalised(times, host) == [1.0 / 1.5, 3.0 / 3.0]
    # A host twice as slow doubles every time and leaves the ratios as they were.
    slow = normalised([2 * t for t in times], [2 * h for h in host])
    assert slow == normalised(times, host)
    with pytest.raises(ValueError):
        normalised(times, host[:2])


def test_reference_kernel_is_deterministic():
    assert reference_kernel() == reference_kernel()


def test_benchmark_file_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_norm", "setup_s", "peak_rss_mb"}
