"""Golden fingerprint of the command-line runs.

One sha256 over the exit status, stdout and stderr of a fixed set of
``tandem`` commands and over the relative path and bytes of every file
they leave behind, with the temporary directory's path replaced by a
placeholder.  A refactor that keeps every output byte keeps this hash;
a change that alters any output on purpose records the new value.
"""

from __future__ import annotations

import hashlib
import json

from tandem.cli import main

GOLDEN = "13bdad99394c7a66ef220ffb688c1456a41ebd5be7c2a49a57892c628afc2bc8"

DESCRIPTOR = {"kind": "synthetic", "generator": "nonlinear", "n": 300, "d": 5,
              "noise": 0.3}
REGRESSION = {"kind": "synthetic", "generator": "linear_regression", "n": 200, "d": 4,
              "noise": 0.2}
BROKEN_CSV = {"kind": "csv", "path": "absent.csv",
              "columns": [{"name": "x", "kind": "numeric"}, {"name": "y", "kind": "target"}]}
CONFIG = {"max_epochs": 3, "batch_size": 32, "hidden": [8, 4]}
ALL_METHODS = [{"method": "MOO"}, {"method": "STL"}, {"method": "UNI"},
               {"method": "GS", "alpha": 0.3}, {"method": "RND"}, {"method": "LINEAR"},
               {"method": "JSEP"}, {"method": "JDIST"}, {"method": "NOPE"},
               {"method": "GS"}]


def _specs() -> dict[str, tuple[str, dict]]:
    return {
        "grid": ("experiment", {
            "dataset": "synth.json", "methods": ALL_METHODS, "seeds": [1, 2],
            "metrics": ["task", "gf", "gnf"], "config": CONFIG,
        }),
        "local": ("experiment", {
            "dataset": DESCRIPTOR, "methods": ALL_METHODS, "seeds": [1],
            "metrics": ["task", "gnf"], "gnf": {"points": 7, "local": True},
            "config": CONFIG,
        }),
        "grid_broken": ("experiment", {
            "dataset": BROKEN_CSV, "methods": [{"method": "MOO"}, {"method": "GS"}],
            "seeds": [1, 2], "config": CONFIG,
        }),
        "scan_broken": ("pareto-scan", {
            "dataset": BROKEN_CSV, "methods": [{"method": "MOO"}], "seeds": [1, 2],
            "config": CONFIG,
        }),
        "scan": ("pareto-scan", {
            "dataset": DESCRIPTOR, "methods": [{"method": "MOO"}], "seeds": [4, 5],
            "config": CONFIG,
        }),
    }


def _fingerprint(tmp_path, capsys) -> str:
    root = str(tmp_path)
    digest = hashlib.sha256()

    def run(argv: list[str]) -> None:
        code = main(argv)
        out, err = capsys.readouterr()
        digest.update(json.dumps([argv, code, out, err]).replace(root, "<tmp>").encode())

    (tmp_path / "synth.json").write_text(json.dumps(DESCRIPTOR))
    for name, (command, spec) in _specs().items():
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
        for fmt in ("csv", "json"):
            run([command, "--spec", str(tmp_path / f"{name}.json"), "--format", fmt,
                 "--out", str(tmp_path / f"{name}_{fmt}")])
    run(["train", "--dataset", str(tmp_path / "synth.json"), "--seed", "1",
         "--epochs", "3", "--batch-size", "32", "--hidden", "8,4",
         "--out", str(tmp_path / "train")])
    model = str(tmp_path / "train" / "runs" / "nonlinear_MOO_1_model.json")
    surrogate = str(tmp_path / "train" / "runs" / "nonlinear_MOO_1_surrogate.json")
    gnf = ["gnf", "--dataset", str(tmp_path / "synth.json"), "--model", model,
           "--seed", "1", "--points", "7"]
    run(gnf)
    run(gnf + ["--surrogate", surrogate])
    run(["explain", "--surrogate", surrogate, "--top", "2"])
    run(["explain", "--surrogate", surrogate, "--format", "json"])

    (tmp_path / "linreg.json").write_text(json.dumps(REGRESSION))
    run(["train", "--dataset", str(tmp_path / "linreg.json"), "--seed", "2",
         "--epochs", "3", "--batch-size", "32", "--hidden", "8",
         "--out", str(tmp_path / "train_reg")])
    run(["gnf", "--dataset", str(tmp_path / "linreg.json"), "--model",
         str(tmp_path / "train_reg" / "runs" / "linear_regression_MOO_2_model.json"),
         "--seed", "2", "--points", "5"])

    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(tmp_path)).encode() + b"\0")
        digest.update(path.read_bytes().replace(root.encode(), b"<tmp>") + b"\0")
    return digest.hexdigest()


def test_cli_outputs_match_golden_fingerprint(tmp_path, capsys):
    assert _fingerprint(tmp_path, capsys) == GOLDEN
