from __future__ import annotations

import json

import numpy as np
import pytest

import tandem.cli
from tandem.cli import main
from tandem.harness import resolve_dataset
from tandem.nn import IDENTITY, REGRESSION_SCALAR, Layer, MlpModel, mlp_to_dict
from tandem.surrogate import LinearSurrogate, surrogate_to_dict
from tandem.trainers import TrainConfig, run_method

DESCRIPTOR = {"kind": "synthetic", "generator": "nonlinear", "n": 80, "d": 3,
              "noise": 0.1}


@pytest.fixture()
def descriptor_path(tmp_path):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(DESCRIPTOR))
    return str(path)


@pytest.fixture()
def spec_path(tmp_path, descriptor_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "dataset": DESCRIPTOR,
        "methods": [{"method": "MOO"}, {"method": "STL"}],
        "seeds": [0, 1],
        "config": {"max_epochs": 5, "batch_size": 64, "hidden": [4]},
        "output_dir": str(tmp_path / "out"),
    }))
    return str(path)


@pytest.mark.parametrize("flags, expected", [
    ([], TrainConfig()),
    (["--method", "GS", "--seed", "3", "--alpha", "0.25", "--epochs", "7",
      "--batch-size", "16", "--lr-theta", "0.02", "--lr-phi", "0.005", "--hidden", "6,5"],
     TrainConfig(method="GS", seed=3, alpha=0.25, max_epochs=7, batch_size=16,
                 lr_theta=0.02, lr_phi=0.005, hidden=(6, 5))),
])
def test_train_flags_land_in_their_config_fields(tmp_path, descriptor_path, monkeypatch,
                                                 capsys, flags, expected):
    configs = []

    def record(dataset, config):
        configs.append(config)
        raise RuntimeError("recorded")

    monkeypatch.setattr("tandem.cli.run_method", record)
    code = main(["train", "--dataset", descriptor_path, "--out", str(tmp_path / "o"),
                 *flags])
    assert code == 1
    assert capsys.readouterr().err == "run failed: recorded\n"
    assert configs == [expected]


@pytest.mark.parametrize("hidden, message", [
    ("8,,4", "--hidden takes widths such as 32,32, got '8,,4'"),
    ("8,", "--hidden takes widths such as 32,32, got '8,'"),
    (",8", "--hidden takes widths such as 32,32, got ',8'"),
    ("", "--hidden takes widths such as 32,32, got ''"),
    ("0", "hidden layer widths must be >= 1"),
])
def test_train_rejects_a_malformed_hidden_list(tmp_path, descriptor_path, capsys,
                                               hidden, message):
    code = main(["train", "--dataset", descriptor_path, "--out", str(tmp_path / "o"),
                 "--epochs", "1", "--hidden", hidden])
    assert code == 1
    assert capsys.readouterr() == ("", f"run failed: {message}\n")
    assert not (tmp_path / "o").exists()


class Dispatched(Exception):
    """Raised by a stand-in for a package function a handler calls."""


def test_handlers_call_the_package_functions_bound_when_they_run(
        tmp_path, spec_path, descriptor_path, monkeypatch):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(mlp_to_dict(MlpModel(
        (Layer(np.ones((1, 3)), np.zeros(1), IDENTITY),), REGRESSION_SCALAR))))
    gnf = ["gnf", "--dataset", descriptor_path, "--model", str(model), "--points", "2"]
    assert main(gnf) == 0
    for name in ("run_experiment", "pareto_scan", "evaluate_gnf"):
        def stand_in(*args, name=name, **kwargs):
            raise Dispatched(name)
        monkeypatch.setattr(tandem.cli, name, stand_in)
    for argv, name in ((["experiment", "--spec", spec_path], "run_experiment"),
                       (["pareto-scan", "--spec", spec_path], "pareto_scan"),
                       (gnf, "evaluate_gnf")):
        with pytest.raises(Dispatched, match=f"^{name}$"):
            main(argv)


def test_train_help_keeps_the_flag_metavars(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as info:
        main(["train", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for flag, metavar in (("--epochs", "EPOCHS"), ("--batch-size", "BATCH_SIZE"),
                          ("--lr-theta", "LR_THETA"), ("--lr-phi", "LR_PHI"),
                          ("--hidden", "HIDDEN")):
        assert f"[{flag} {metavar}]" in out
        assert f"\n  {flag} {metavar}" in out


def test_train_subcommand_writes_artifacts(tmp_path, descriptor_path, capsys):
    out = tmp_path / "run_out"
    code = main([
        "train", "--dataset", descriptor_path, "--method", "MOO",
        "--seed", "1", "--epochs", "5", "--batch-size", "64",
        "--hidden", "4", "--out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "method=MOO seed=1" in stdout
    assert "task_metric=" in stdout
    assert (out / "runs" / "nonlinear_MOO_1_report.json").exists()
    assert (out / "runs" / "nonlinear_MOO_1_model.json").exists()
    assert (out / "runs" / "nonlinear_MOO_1_surrogate.json").exists()


def test_train_rejects_grid_search_without_alpha(tmp_path, descriptor_path, capsys):
    code = main([
        "train", "--dataset", descriptor_path, "--method", "GS",
        "--epochs", "5", "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    assert "run failed" in capsys.readouterr().err


def test_train_reports_missing_descriptor(tmp_path, capsys):
    code = main([
        "train", "--dataset", str(tmp_path / "absent.json"),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    assert "run failed" in capsys.readouterr().err


def test_experiment_subcommand_emits_results(tmp_path, spec_path, capsys):
    code = main(["experiment", "--spec", spec_path, "--format", "csv"])
    assert code == 0
    stdout = capsys.readouterr().out
    results = tmp_path / "out" / "results.csv"
    assert f"wrote {results}" in stdout
    lines = results.read_text().splitlines()
    assert lines[0] == "dataset,method,metric,mean,std"
    methods = {line.split(",")[1] for line in lines[1:]}
    assert methods == {"MOO", "STL"}


def test_experiment_exit_code_counts_failures(tmp_path, descriptor_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({
        "dataset": DESCRIPTOR,
        "methods": [{"method": "GS"}, {"method": "MOO"}],
        "seeds": [0, 1],
        "config": {"max_epochs": 5, "batch_size": 64, "hidden": [4]},
        "output_dir": str(tmp_path / "out"),
    }))
    code = main(["experiment", "--spec", str(spec)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("FAILED GS") == 2
    assert "FAILED GS seed=0: ValueError: " in err
    payload = json.loads((tmp_path / "out" / "failures.json").read_text())
    assert len(payload["failures"]) == 2


def test_experiment_json_format(tmp_path, spec_path):
    code = main(["experiment", "--spec", spec_path, "--format", "json",
                 "--out", str(tmp_path / "alt")])
    assert code == 0
    payload = json.loads((tmp_path / "alt" / "results.json").read_text())
    assert payload["schema"] == "tandem-results"
    assert payload["rows"]


def test_pareto_scan_subcommand(tmp_path, descriptor_path, capsys):
    spec = tmp_path / "scan.json"
    spec.write_text(json.dumps({
        "dataset": DESCRIPTOR,
        "methods": [{"method": "MOO"}],
        "seeds": [0],
        "config": {"max_epochs": 5, "batch_size": 64, "hidden": [4]},
        "output_dir": str(tmp_path / "scan_out"),
    }))
    code = main(["pareto-scan", "--spec", str(spec), "--format", "csv"])
    assert code == 0
    lines = (tmp_path / "scan_out" / "pareto.csv").read_text().splitlines()
    assert lines[0] == "seed,method,alpha,task_metric,gf,dominated"
    assert len(lines) == 11
    stdout = capsys.readouterr().out
    assert "MOO:" in stdout and "GS(0.9):" in stdout


@pytest.mark.parametrize("config, error_type", [
    ({"max_epochz": 1}, "DataError"),
    ({"hidden": 5}, "DataError"),
])
def test_pareto_scan_records_bad_config_as_failed_runs(tmp_path, capsys, config,
                                                       error_type):
    spec = tmp_path / "scan.json"
    spec.write_text(json.dumps({
        "dataset": DESCRIPTOR, "methods": [{"method": "MOO"}], "seeds": [0],
        "config": config, "output_dir": str(tmp_path / "scan_out"),
    }))
    code = main(["pareto-scan", "--spec", str(spec)])
    assert code == 10
    err = capsys.readouterr().err
    assert f"FAILED MOO seed=0: {error_type}: " in err
    assert err.count("FAILED GS seed=0: ") == 9
    payload = json.loads((tmp_path / "scan_out" / "failures.json").read_text())
    assert {f["error_type"] for f in payload["failures"]} == {error_type}


BAD_SPECS = {
    "unknown gnf key": ({"gnf": {"pointz": 5}}, "pointz"),
    "zero gnf points": ({"gnf": {"points": 0}}, "points"),
    "gnf local not a bool": ({"gnf": {"local": "yes"}}, "local"),
    "gnf points not an integer": ({"gnf": {"points": 3.7}}, "points"),
    "unknown spec key": ({"seedz": [0]}, "seedz"),
    "methods not a list": ({"methods": 5}, "methods"),
    "seeds not a list": ({"seeds": "0"}, "seeds"),
    "metrics not a list": ({"metrics": 5}, "metrics"),
    "method not an object": ({"methods": [5]}, "methods"),
    "config not an object": ({"config": 5}, "config"),
    "seed not an integer": ({"seeds": ["a"]}, "seeds"),
    "output_dir not a string": ({"output_dir": 5}, "output_dir"),
    "missing spec file": (None, "absent.json"),
}


@pytest.mark.parametrize("command", ["experiment", "pareto-scan"])
@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_bad_spec_reports_failure(tmp_path, capsys, command, case):
    extra, message = BAD_SPECS[case]
    spec = tmp_path / "absent.json"
    if extra is not None:
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "dataset": DESCRIPTOR, "methods": [{"method": "MOO"}], "seeds": [0],
            "output_dir": str(tmp_path / "out"), **extra,
        }))
    code = main([command, "--spec", str(spec)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{command} failed: ") and message in err
    assert not (tmp_path / "out").exists()


def test_explain_subcommand_ranks_coefficients(tmp_path, capsys):
    g = LinearSurrogate(phi=np.array([0.1, -0.9, 0.5]), bias=0.25)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(surrogate_to_dict(g, ("age", "hours", "capital"))))

    code = main(["explain", "--surrogate", str(path), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bias"] == 0.25
    ranked = [(e["rank"], e["feature"], e["coefficient"])
              for e in payload["features"]]
    assert ranked == [(1, "hours", -0.9), (2, "capital", 0.5), (3, "age", 0.1)]

    code = main(["explain", "--surrogate", str(path), "--top", "2"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "bias: 0.25" in stdout
    assert "hours" in stdout and "capital" in stdout and "age" not in stdout


@pytest.mark.parametrize("top", ["0", "-2"])
def test_explain_rejects_top_below_one(tmp_path, capsys, top):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(surrogate_to_dict(
        LinearSurrogate(phi=np.array([0.1, -0.9, 0.5]), bias=0.25), ("a", "b", "c"))))
    assert main(["explain", "--surrogate", str(path), "--top", top]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"explain failed: --top must be at least 1, got {top}\n"


def explain_input(tmp_path, case):
    path = tmp_path / "g.json"
    if case == "bad json":
        path.write_text("{not json")
    elif case == "not an object":
        path.write_text("[1, 2]")
    elif case == "missing key":
        path.write_text(json.dumps({"format": "tandem-surrogate", "bias": 0.0}))
    elif case in ("null bias", "features not a list"):
        record = surrogate_to_dict(LinearSurrogate(np.zeros(2), 0.0), ("a", "b"))
        broken = {"bias": None} if case == "null bias" else {"features": 5}
        path.write_text(json.dumps({**record, **broken}))
    elif case == "foreign record":
        path.write_text(json.dumps(mlp_to_dict(MlpModel(
            (Layer(np.ones((1, 2)), np.zeros(1), IDENTITY),), REGRESSION_SCALAR))))
    return path


@pytest.mark.parametrize("case, message", [
    ("missing file", "g.json"),
    ("bad json", "Expecting"),
    ("foreign record", "not a tandem-surrogate record"),
    ("not an object", "not a tandem-surrogate record"),
    ("missing key", "lacks 'coefficients'"),
    ("null bias", "bias must be a number"),
    ("features not a list", "features must be a list of strings"),
])
def test_explain_bad_input_reports_failure(tmp_path, capsys, case, message):
    code = main(["explain", "--surrogate", str(explain_input(tmp_path, case))])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("explain failed: ") and message in err


def test_gnf_subcommand_local_and_global(tmp_path, descriptor_path, capsys):
    dataset = resolve_dataset(DESCRIPTOR, seed=0)
    model, _, _ = run_method(dataset, TrainConfig(
        method="STL", seed=0, max_epochs=5, batch_size=64, hidden=(4,),
    ))
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(mlp_to_dict(model)))

    code = main([
        "gnf", "--dataset", descriptor_path, "--model", str(model_path),
        "--points", "5", "--count", "4",
    ])
    assert code == 0
    local_out = capsys.readouterr().out
    assert "mode=local" in local_out and "points=5" in local_out

    g = LinearSurrogate(phi=np.zeros(3), bias=0.0)
    surrogate_path = tmp_path / "g.json"
    surrogate_path.write_text(json.dumps(surrogate_to_dict(g, ("x0", "x1", "x2"))))
    code = main([
        "gnf", "--dataset", descriptor_path, "--model", str(model_path),
        "--surrogate", str(surrogate_path), "--points", "5", "--count", "4",
    ])
    assert code == 0
    assert "mode=global" in capsys.readouterr().out


@pytest.mark.parametrize("extra, descriptor, message", [
    ([], dict(DESCRIPTOR, d=5), "batch has 5 features, model expects 3"),
    (["--kind", "patch_delete"], DESCRIPTOR, "image_dims"),
    (["--points", "0"], DESCRIPTOR, "points"),
    (["--surrogate", "absent.json"], DESCRIPTOR, "absent.json"),
    (["--sigma2", "inf"], DESCRIPTOR, "sigma2 must be positive and finite"),
])
def test_gnf_bad_input_reports_failure(tmp_path, capsys, extra, descriptor, message):
    dataset = resolve_dataset(DESCRIPTOR, seed=0)
    model, _, _ = run_method(dataset, TrainConfig(
        method="STL", seed=0, max_epochs=1, batch_size=64, hidden=(4,),
    ))
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(mlp_to_dict(model)))
    descriptor_path = tmp_path / "other.json"
    descriptor_path.write_text(json.dumps(descriptor))

    code = main(["gnf", "--dataset", str(descriptor_path), "--model",
                 str(model_path), "--points", "3", "--count", "4", *extra])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("gnf failed: ") and message in err


@pytest.mark.parametrize("record, message", [
    ([1], "not a tandem-mlp record"),
    ({"format": "tandem-mlp"}, "lacks 'layers'"),
    ({"format": "tandem-mlp", "layers": [1], "output_kind": "x"}, "list of objects"),
    ({"format": "tandem-mlp", "layers": "x", "output_kind": "x"}, "list of objects"),
    ({"format": "tandem-mlp", "layers": None, "output_kind": "x"}, "list of objects"),
    ({"format": "tandem-mlp", "output_kind": "regression-scalar", "layers": [
        {"weight": [[True, False, True]], "bias": [0.0], "activation": "identity"}]},
     "weight must be a list of numbers"),
    ({"format": "tandem-mlp", "output_kind": "regression-scalar", "layers": [
        {"weight": [[{}, 0.0, 1.0]], "bias": [0.0], "activation": "identity"}]},
     "weight must be a list of numbers"),
])
def test_gnf_malformed_model_reports_failure(tmp_path, descriptor_path, capsys,
                                             record, message):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(record))
    code = main(["gnf", "--dataset", descriptor_path, "--model", str(model_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("gnf failed: ") and message in err


def write_model(path, d):
    path.write_text(json.dumps(mlp_to_dict(MlpModel(
        (Layer(np.zeros((1, d)), np.zeros(1), IDENTITY),), REGRESSION_SCALAR,
    ))))
    return str(path)


@pytest.mark.parametrize("command", ["train", "gnf"])
@pytest.mark.parametrize("descriptor, message", [
    ([1, 2], "dataset descriptor must be an object"),
    ({"kind": "synthetic", "generator": "nonlinear", "d": 3}, "lacks 'n'"),
    ({"kind": "csv", "path": "toy.csv"}, "lacks 'columns'"),
    (dict(DESCRIPTOR, n=None), "key 'n' has the wrong type: None"),
    (dict(DESCRIPTOR, noise=None), "key 'noise' has the wrong type: None"),
    ({"kind": "csv", "path": 5, "columns": []}, "key 'path' has the wrong type: 5"),
    (dict(DESCRIPTOR, noise=-0.5), "noise must be finite and nonnegative, got -0.5"),
    (dict(DESCRIPTOR, noise=float("nan")), "noise must be finite and nonnegative, got nan"),
    (dict(DESCRIPTOR, noise=float("inf")), "noise must be finite and nonnegative, got inf"),
])
def test_malformed_descriptor_reports_failure(tmp_path, capsys, command, descriptor,
                                              message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(descriptor))
    extra = (["--out", str(tmp_path / "o")] if command == "train"
             else ["--model", write_model(tmp_path / "model.json", 3)])
    code = main([command, "--dataset", str(path), *extra])
    assert code == 1
    err = capsys.readouterr().err
    prefix = "run failed: " if command == "train" else "gnf failed: "
    assert err.startswith(prefix) and message in err


def write_csv_spec(tmp_path, **extra):
    spec = tmp_path / "exp.json"
    spec.write_text(json.dumps({
        "dataset": {"kind": "csv", "columns": [{"name": "y", "kind": "target"}], **extra},
        "methods": [{"method": "MOO"}], "seeds": [0, 1],
        "output_dir": str(tmp_path / "out"),
    }))
    return str(spec)


def test_experiment_records_descriptor_without_path_as_failed_runs(tmp_path, capsys):
    assert main(["experiment", "--spec", write_csv_spec(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("DataError: csv dataset descriptor lacks 'path'") == 2


def test_experiment_records_descriptor_path_of_wrong_type_as_failed_runs(tmp_path, capsys):
    assert main(["experiment", "--spec", write_csv_spec(tmp_path, path=5)]) == 2
    err = capsys.readouterr().err
    assert err.count("DataError: csv dataset descriptor key 'path' has the wrong type: 5") == 2


def test_gnf_rejects_surrogate_of_another_width(tmp_path, capsys):
    descriptor_path = tmp_path / "wide.json"
    descriptor_path.write_text(json.dumps(dict(DESCRIPTOR, d=5)))
    surrogate_path = tmp_path / "g.json"
    surrogate_path.write_text(json.dumps(surrogate_to_dict(
        LinearSurrogate(phi=np.zeros(3), bias=0.0), ("x0", "x1", "x2"))))
    code = main(["gnf", "--dataset", str(descriptor_path), "--model",
                 write_model(tmp_path / "model.json", 5), "--surrogate",
                 str(surrogate_path), "--points", "5", "--count", "4"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("gnf failed: ") and "(5, 4)" in err and "(5, 6)" in err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_method_is_usage_error(descriptor_path):
    with pytest.raises(SystemExit):
        main(["train", "--dataset", descriptor_path, "--method", "SGD"])
