"""The three benchmark workloads, driven through ``tandem.cli.main``.

All three use the acceptance data and model settings: ``nonlinear`` data
with n=2000, d=10, noise 0.5, hidden (32, 32), batch 128 and
``lr_theta`` 3e-3.  Each workload builds its inputs from the benchmark
seed in ``setup``.  One pass of user-visible work, the part that is timed,
is the CLI commands ``commands`` lists, run in order while ``capture`` is
entered; ``verify`` then returns a sha256 fingerprint of
everything the pass produced and any quality figures.  Either raises
``PassError`` when the command fails, writes a non-finite number or breaks
a documented invariant.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import tandem
import tandem.cli
from tandem.data import TRAIN

from tracer import recording

DATASET = {"kind": "synthetic", "generator": "nonlinear", "n": 2000, "d": 10,
           "noise": 0.5}
HIDDEN = (32, 32)
BATCH_SIZE = 128
LR_THETA = 3e-3
ACCEPTANCE_EPOCHS = 600

PAIRED_METHODS = ("MOO", "STL", "UNI", "RND", "JSEP", "JDIST")
# Reduced epochs keep a pass short enough to repeat within one run; the
# per-step cost, which these workloads measure, does not depend on them.
PAIRED_EPOCHS = 6
PAIRED_SEEDS = 2
SCAN_EPOCHS = 8
SCAN_POINTS = 10
GNF_POINTS = 50
GNF_COUNT = 10
GNF_SIGMA2 = 0.1


class PassError(Exception):
    """A pass finished but its outputs are wrong."""


@dataclass(frozen=True)
class Shape:
    """What the per-layer metrics need to know about a workload's inputs."""

    n_train: int
    batch_size: int
    phi_size: int
    weights: int  # multiply-adds per row of one forward pass

    @staticmethod
    def of(dataset: tandem.Dataset) -> "Shape":
        dims = (dataset.n_features, *HIDDEN, 1)
        return Shape(
            n_train=int(np.sum(dataset.split == TRAIN)),
            batch_size=BATCH_SIZE,
            phi_size=dataset.n_features + 1,
            weights=sum(a * b for a, b in zip(dims, dims[1:])),
        )


@dataclass
class Setup:
    """Files a workload's passes read, and facts about them."""

    work_dir: str
    seeds: tuple[int, ...]
    shape: Shape
    input_fingerprint: str
    paths: dict[str, str] = field(default_factory=dict)
    quality: dict[str, tuple[float, str]] = field(default_factory=dict)


def _write_json(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


def generate_inputs(work_dir: str, seeds: tuple[int, ...]) -> Setup:
    """Write the dataset descriptor and build its data for each seed.

    The data are built the way the CLI builds them, so their fingerprint
    identifies exactly what the passes train on.
    """
    digest = hashlib.sha256()
    shape = None
    for seed in seeds:
        dataset = tandem.split(
            tandem.make_synthetic(DATASET["generator"], DATASET["n"],
                                  DATASET["d"], DATASET["noise"], seed),
            seed=seed,
        )
        for array in (dataset.features, dataset.targets,
                      dataset.split.astype(str)):
            digest.update(np.ascontiguousarray(array).tobytes())
        shape = Shape.of(dataset)
    setup = Setup(work_dir=work_dir, seeds=seeds, shape=shape,
                  input_fingerprint=digest.hexdigest())
    setup.paths["dataset"] = _write_json(
        os.path.join(work_dir, "dataset.json"), DATASET)
    return setup


def run_cli(argv: list[str]) -> None:
    """Run one CLI command in-process, keeping its stdout out of ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = tandem.cli.main(argv)
    if status != 0:
        raise PassError(f"tandem {argv[0]} exited with status {status}")


def _reject_constant(token: str):
    raise PassError(f"non-finite number {token} in output")


def _check_finite_csv(text: str) -> None:
    for row in csv.reader(io.StringIO(text)):
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                raise PassError(f"non-finite number {cell!r} in output")


def fingerprint_files(root: str) -> str:
    """sha256 over every file under root: relative path, then bytes.

    JSON and CSV files must hold finite numbers only.
    """
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            text = data.decode("utf-8")
            if name.endswith(".json"):
                json.loads(text, parse_constant=_reject_constant)
            elif name.endswith(".csv"):
                _check_finite_csv(text)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            digest.update(len(data).to_bytes(8, "little") + data)
    return digest.hexdigest()


def _train_config(epochs: int) -> dict:
    return {"lr_theta": LR_THETA, "max_epochs": epochs,
            "batch_size": BATCH_SIZE, "hidden": list(HIDDEN)}


def _csv_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class PairedGrid:
    """`tandem experiment` over six methods and two seeds, metrics task,gf."""

    name = "paired-grid"

    def setup(self, work_dir: str, seed: int) -> Setup:
        setup = generate_inputs(work_dir, tuple(seed + i for i in range(PAIRED_SEEDS)))
        setup.paths["spec"] = _write_json(os.path.join(work_dir, "spec.json"), {
            "dataset": "dataset.json",
            "methods": [{"method": m} for m in PAIRED_METHODS],
            "seeds": list(setup.seeds),
            "metrics": ["task", "gf"],
            "config": _train_config(PAIRED_EPOCHS),
        })
        return setup

    def commands(self, setup: Setup, out_dir: str) -> list[list[str]]:
        return [["experiment", "--spec", setup.paths["spec"], "--out", out_dir]]

    def capture(self):
        return contextlib.nullcontext()

    def verify(self, setup: Setup, out_dir: str, captured) -> tuple[str, dict]:
        fingerprint = fingerprint_files(out_dir)
        rows = _csv_rows(os.path.join(out_dir, "results.csv"))
        if len(rows) != 2 * len(PAIRED_METHODS):
            raise PassError(f"results.csv has {len(rows)} rows")
        runs = os.path.join(out_dir, "runs")
        for seed in setup.seeds:
            stl, jsep = (_read_bytes(os.path.join(runs, f"nonlinear_{m}_{seed}_model.json"))
                         for m in ("STL", "JSEP"))
            if stl != jsep:
                raise PassError(f"STL and JSEP networks differ at seed {seed}")
        return fingerprint, {}


class TradeoffScan:
    """`tandem pareto-scan`: MOO plus GS(0.1..0.9) at one seed."""

    name = "tradeoff-scan"

    def setup(self, work_dir: str, seed: int) -> Setup:
        setup = generate_inputs(work_dir, (seed,))
        setup.paths["spec"] = _write_json(os.path.join(work_dir, "spec.json"), {
            "dataset": "dataset.json",
            "methods": [{"method": "MOO"}],
            "seeds": [seed],
            "config": _train_config(SCAN_EPOCHS),
        })
        return setup

    def commands(self, setup: Setup, out_dir: str) -> list[list[str]]:
        return [["pareto-scan", "--spec", setup.paths["spec"], "--out", out_dir]]

    def capture(self):
        return contextlib.nullcontext()

    def verify(self, setup: Setup, out_dir: str, captured) -> tuple[str, dict]:
        fingerprint = fingerprint_files(out_dir)
        rows = _csv_rows(os.path.join(out_dir, "pareto.csv"))
        if len(rows) != SCAN_POINTS:
            raise PassError(f"pareto.csv has {len(rows)} points")
        return fingerprint, {}


class LocalGnf:
    """`tandem gnf` in local mode on the MOO and STL networks of one seed.

    Set-up trains both networks at the full acceptance settings, because
    the cost of a local fit depends on how long its network was trained.
    """

    name = "local-gnf"
    methods = ("MOO", "STL")

    def setup(self, work_dir: str, seed: int) -> Setup:
        setup = generate_inputs(work_dir, (seed,))
        reports = {}
        for method in self.methods:
            run_cli([
                "train", "--dataset", setup.paths["dataset"], "--method", method,
                "--seed", str(seed), "--epochs", str(ACCEPTANCE_EPOCHS),
                "--batch-size", str(BATCH_SIZE), "--lr-theta", str(LR_THETA),
                "--hidden", ",".join(map(str, HIDDEN)), "--out", work_dir,
            ])
            stem = os.path.join(work_dir, "runs", f"nonlinear_{method}_{seed}")
            setup.paths[method] = f"{stem}_model.json"
            with open(f"{stem}_report.json", encoding="utf-8") as fh:
                reports[method] = json.load(fh)
        moo, stl = (reports[m] for m in self.methods)
        setup.quality["gf_ratio"] = (moo["gf"] / stl["gf"], "ratio")
        setup.quality["f1_gap"] = (stl["task_metric"] - moo["task_metric"], "F1")
        digest = hashlib.sha256(setup.input_fingerprint.encode())
        for method in self.methods:
            digest.update(_read_bytes(setup.paths[method]))
        setup.input_fingerprint = digest.hexdigest()
        return setup

    def commands(self, setup: Setup, out_dir: str) -> list[list[str]]:
        return [[
            "gnf", "--dataset", setup.paths["dataset"],
            "--model", setup.paths[method], "--seed", str(setup.seeds[0]),
            "--points", str(GNF_POINTS), "--count", str(GNF_COUNT),
            "--sigma2", str(GNF_SIGMA2),
        ] for method in self.methods]

    def capture(self):
        """Collects the GNF value of each command."""
        return recording(tandem.cli, "evaluate_gnf")

    def verify(self, setup: Setup, out_dir: str, values: list[float]) -> tuple[str, dict]:
        if len(values) != len(self.methods):
            raise PassError(f"expected {len(self.methods)} GNF values, got {values}")
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            raise PassError(f"GNF values must be finite and nonnegative: {values}")
        digest = hashlib.sha256(setup.input_fingerprint.encode())
        for value in values:
            digest.update(float(value).hex().encode())
        moo, stl = values
        return digest.hexdigest(), {"gnf_ratio": (moo / stl, "ratio")}


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


WORKLOADS = {w.name: w for w in (PairedGrid(), TradeoffScan(), LocalGnf())}
