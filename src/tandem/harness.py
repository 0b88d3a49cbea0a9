"""Experiment orchestration: method-by-seed grids, aggregation, reports.

An experiment spec is a JSON file naming a dataset, the methods to run,
the seeds, and the metrics to aggregate.  Each (method, seed) run trains,
evaluates on the test split, and writes its artifacts; a run that raises
is recorded as a failure and the grid continues.  Means and sample
standard deviations are aggregated across seeds per method and metric.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import numbers
import os
import pickle
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .data import (
    CLASSIFICATION,
    ColumnSpec,
    Dataset,
    binarize_label,
    dataset_from_csv,
    load_idx,
    make_synthetic,
    split,
)
from .errors import DataError, caught
from .metrics import (
    GAUSSIAN,
    PATCH_DELETE,
    NeighborhoodSpec,
    gnf,
    local_surrogates,
)
from .moo import dominates
from .nn import MlpModel, mlp_to_dict
from .surrogate import LinearSurrogate, surrogate_params, surrogate_to_dict
from .trainers import (
    GS,
    MOO,
    TrainConfig,
    TrainReport,
    _eval_rows,
    run_methods,
)

RESULTS_SCHEMA = "tandem-results"
RESULTS_VERSION = 1

TASK_METRIC = "task"
GF_METRIC = "gf"
GNF_METRIC = "gnf"
# The TrainReport field each metric name aggregates.
_METRIC_FIELDS = {TASK_METRIC: "task_metric", GF_METRIC: "gf", GNF_METRIC: "gnf"}
KNOWN_METRICS = tuple(_METRIC_FIELDS)

PARETO_ALPHAS = tuple(round(0.1 * i, 1) for i in range(1, 10))


# The type of each GnfSettings field; no number may be a bool.
_GNF_TYPES = {**dict.fromkeys(("points", "count", "patch_size", "num_patches"), numbers.Integral),
              "sigma2": numbers.Real, "kind": str, "local": bool}


@dataclass(frozen=True)
class GnfSettings:
    """How the GNF metric is evaluated during an experiment."""

    points: int = 50
    count: int = 10
    sigma2: float = 0.1
    kind: str = GAUSSIAN
    patch_size: int = 4
    num_patches: int = 3
    local: bool = False

    def __post_init__(self) -> None:
        for name, kind in _GNF_TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
                raise DataError(f"gnf {name} has the wrong type: {value!r}")
        if self.points < 1 or self.count < 1:
            raise DataError("gnf points and count must be >= 1")
        if not 0 < self.sigma2 < np.inf:
            raise DataError("gnf sigma2 must be positive and finite")
        if self.kind not in (GAUSSIAN, PATCH_DELETE):
            raise DataError(f"unknown gnf neighborhood kind {self.kind!r}")
        if self.patch_size < 1 or self.num_patches < 1:
            raise DataError("gnf patch_size and num_patches must be >= 1")


@dataclass(frozen=True)
class ExperimentSpec:
    """Parsed experiment description.

    ``dataset`` is a descriptor dictionary (see resolve_dataset);
    ``methods`` holds per-method config overrides on top of
    ``base_config``; paths inside the descriptor are resolved against
    ``base_dir``.
    """

    dataset: dict
    methods: tuple[dict, ...]
    seeds: tuple[int, ...]
    metrics: tuple[str, ...] = (TASK_METRIC, GF_METRIC)
    gnf: GnfSettings = GnfSettings()
    output_dir: str = "out"
    base_config: dict | None = None
    base_dir: str = "."

    def __post_init__(self) -> None:
        if len(self.methods) < 1 or len(self.seeds) < 1:
            raise DataError("experiment needs at least one method and one seed")
        for metric in self.metrics:
            if metric not in KNOWN_METRICS:
                raise DataError(f"unknown metric {metric!r}")
        if self.dataset.get("kind") not in ("synthetic", "csv", "idx"):
            raise DataError("dataset kind must be synthetic, csv, or idx")


@dataclass(frozen=True)
class ResultRow:
    """One aggregated line: metric mean and across-seed sample std."""

    dataset: str
    method: str
    metric: str
    mean: float
    std: float | None


@dataclass(frozen=True)
class RunFailure:
    """One run that raised: the exception's message and its type's name."""

    dataset: str
    method: str
    seed: int
    error: str
    error_type: str


@dataclass(frozen=True)
class RunOutcome:
    """Everything produced by one successful (method, seed) run."""

    method: str
    seed: int
    model: MlpModel | None
    surrogate: LinearSurrogate
    report: TrainReport


_SPEC_KEYS = frozenset(
    {"dataset", "methods", "seeds", "metrics", "gnf", "output_dir", "config"}
)


def spec_from_dict(raw: dict, base_dir: str = ".") -> ExperimentSpec:
    if not isinstance(raw, dict):
        raise DataError("spec must be an object")
    unknown = set(raw) - _SPEC_KEYS
    if unknown:
        raise DataError(f"unknown experiment spec keys: {sorted(unknown)}")
    dataset = raw.get("dataset")
    if isinstance(dataset, str):
        dataset, base_dir = load_dataset_descriptor(os.path.join(base_dir, dataset))
    if not isinstance(dataset, dict):
        raise DataError("spec needs a dataset descriptor or descriptor path")
    try:
        gnf_settings = GnfSettings(**raw.get("gnf", {}))
    except TypeError as exc:
        raise DataError(f"bad gnf settings: {exc}") from None
    for key, kind, what in (("methods", list, "a list"), ("seeds", list, "a list"),
                            ("metrics", list, "a list"), ("config", dict, "an object"),
                            ("output_dir", str, "a string")):
        if not isinstance(raw.get(key, kind()), kind):
            raise DataError(f"spec {key} must be {what}")
    if not all(isinstance(entry, dict) for entry in raw.get("methods", [])):
        raise DataError("spec methods must be objects")
    if not all(type(seed) is int for seed in raw.get("seeds", [])):
        raise DataError("spec seeds must be integers")
    return ExperimentSpec(
        dataset=dataset,
        methods=tuple(raw.get("methods", ())),
        seeds=tuple(raw.get("seeds", ())),
        metrics=tuple(raw.get("metrics", (TASK_METRIC, GF_METRIC))),
        gnf=gnf_settings,
        output_dir=raw.get("output_dir", "out"),
        base_config=raw.get("config"),
        base_dir=base_dir,
    )


def load_experiment_spec(path: str) -> ExperimentSpec:
    """Read a JSON experiment spec; relative paths resolve against it."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return spec_from_dict(raw, os.path.dirname(path) or ".")


def load_dataset_descriptor(path: str) -> tuple[dict, str]:
    """Read a JSON dataset descriptor, returning it with its directory."""
    with open(path, encoding="utf-8") as fh:
        descriptor = json.load(fh)
    return descriptor, os.path.dirname(path) or "."


_DESCRIPTOR_KEYS = {"synthetic": ("generator", "n", "d"), "csv": ("path", "columns"),
                    "idx": ("images", "labels", "digit")}
# The type of each scalar key a kind reads, when present; no number may be a bool.
_DESCRIPTOR_TYPES = {
    "synthetic": {"generator": str, "n": numbers.Integral, "d": numbers.Integral,
                  "noise": numbers.Real},
    "csv": {"path": str},
    "idx": {"images": str, "labels": str, "digit": numbers.Integral},
}


def resolve_dataset(descriptor: dict, seed: int, base_dir: str = ".") -> Dataset:
    """Build the seeded, split dataset a descriptor refers to.

    synthetic: {"kind": "synthetic", "generator", "n", "d", "noise"?}.
    csv: {"kind": "csv", "path", "columns": [{"name", "kind", "levels"?}]}.
    idx: {"kind": "idx", "images", "labels", "digit"}.
    A descriptor that is not an object, lacks a key or holds a value of the
    wrong type raises DataError.
    The same seed drives generation and the split, so every method at one
    seed sees identical data.
    """
    if not isinstance(descriptor, dict):
        raise DataError("dataset descriptor must be an object")
    kind = descriptor.get("kind")
    if not (isinstance(kind, str) and kind in _DESCRIPTOR_KEYS):
        raise DataError(f"unknown dataset kind {kind!r}")
    missing = [key for key in _DESCRIPTOR_KEYS[kind] if key not in descriptor]
    if missing:
        raise DataError(f"{kind} dataset descriptor lacks {', '.join(map(repr, missing))}")
    for key, expected in _DESCRIPTOR_TYPES[kind].items():
        value = descriptor.get(key)
        if key in descriptor and (isinstance(value, bool) or not isinstance(value, expected)):
            raise DataError(f"{kind} dataset descriptor key {key!r} has the wrong type: {value!r}")
    if kind == "synthetic":
        dataset = make_synthetic(
            descriptor["generator"],
            int(descriptor["n"]),
            int(descriptor["d"]),
            float(descriptor.get("noise", 0.0)),
            seed,
        )
        return split(dataset, seed=seed)
    if kind == "csv":
        columns = descriptor["columns"]
        if not (isinstance(columns, list) and all(
                isinstance(c, dict) and {"name", "kind"} <= c.keys()
                and isinstance(c.get("levels") or [], list) for c in columns)):
            raise DataError("csv dataset descriptor columns must be objects "
                            "with 'name', 'kind' and an optional 'levels' list")
        schema = [
            ColumnSpec(
                name=c["name"],
                kind=c["kind"],
                levels=tuple(c["levels"]) if c.get("levels") else None,
            )
            for c in columns
        ]
        path = os.path.join(base_dir, descriptor["path"])
        dataset, _ = dataset_from_csv(path, schema, seed=seed)
        return dataset
    images = load_idx(
        os.path.join(base_dir, descriptor["images"]),
        os.path.join(base_dir, descriptor["labels"]),
    )
    dataset = binarize_label(images, int(descriptor["digit"]))
    return split(dataset, seed=seed)


def dataset_name(descriptor: dict) -> str:
    if "name" in descriptor:
        return str(descriptor["name"])
    kind = descriptor.get("kind")
    if kind == "synthetic":
        return str(descriptor.get("generator", "synthetic"))
    if kind == "csv":
        path = descriptor.get("path")
        return os.path.splitext(os.path.basename(path))[0] if isinstance(path, str) else "csv"
    return f"digit{descriptor.get('digit', '')}"


_CONFIG_FIELDS = {f.name for f in fields(TrainConfig)}


def build_config(entry: dict, base: dict | None, seed: int) -> TrainConfig:
    """Merge base and per-method settings into a validated TrainConfig."""
    merged = dict(base or {})
    merged.update(entry)
    merged["seed"] = seed
    unknown = set(merged) - _CONFIG_FIELDS
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")
    if "hidden" in merged:
        hidden = merged["hidden"]
        if not (isinstance(hidden, list) and all(type(h) is int for h in hidden)):
            raise DataError(f"config hidden must be a list of integers, got {hidden!r}")
        merged["hidden"] = tuple(hidden)
    try:
        return TrainConfig(**merged)
    except TypeError as exc:
        raise DataError(f"config value of the wrong type: {exc}") from None


def method_label(config: TrainConfig) -> str:
    if config.method == GS:
        return f"GS({config.alpha:g})"
    return config.method


def _neighborhood_spec(settings: GnfSettings, dataset: Dataset, seed: int) -> NeighborhoodSpec:
    return NeighborhoodSpec(
        kind=settings.kind,
        count=settings.count,
        sigma2=settings.sigma2,
        patch_size=settings.patch_size,
        num_patches=settings.num_patches,
        image_dims=dataset.image_dims,
        seed=seed,
    )


def evaluate_gnf(
    model: MlpModel | None,
    surrogate: LinearSurrogate | None,
    seed: int,
    dataset: Dataset,
    settings: GnfSettings,
) -> float | None:
    """GNF of one trained model over the first test instances.

    Uses per-instance local fits, each on its own held-out neighborhood
    draw, when settings.local is set, otherwise the given global surrogate
    (which local mode does not read and may be None).  The linear-only
    method has no black-box to explain, so its GNF is absent (None).
    """
    if model is None:
        return None
    X = _eval_rows(dataset)[0][: settings.points]
    spec = _neighborhood_spec(settings, dataset, seed)
    if settings.local:
        surrogates = local_surrogates(model, X, spec)
    else:
        params = surrogate_params(surrogate)
        surrogates = np.broadcast_to(params, (X.shape[0], params.size))
    return gnf(model, surrogates, X, spec)


def _safe_name(label: str) -> str:
    return label.replace("(", "_").replace(")", "")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_run_artifacts(out_dir: str, name: str, outcome: RunOutcome,
                        feature_names: tuple[str, ...]) -> None:
    runs_dir = os.path.join(out_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    stem = f"{name}_{_safe_name(outcome.method)}_{outcome.seed}"
    _write_json(os.path.join(runs_dir, f"{stem}_report.json"), asdict(outcome.report))
    _write_json(os.path.join(runs_dir, f"{stem}_surrogate.json"),
                surrogate_to_dict(outcome.surrogate, feature_names))
    if outcome.model is not None:
        _write_json(os.path.join(runs_dir, f"{stem}_model.json"),
                    mlp_to_dict(outcome.model))


def _metric_name(metric: str, dataset: Dataset) -> str:
    if metric == TASK_METRIC:
        return "f1" if dataset.task == CLASSIFICATION else "mse"
    return metric


def aggregate_rows(
    name: str,
    dataset: Dataset,
    labels: list[str],
    outcomes: list[RunOutcome],
    metrics: tuple[str, ...],
) -> list[ResultRow]:
    """Mean and sample std per (method label, metric) across seeds.

    Metrics absent for a method (fidelity of the linear predictor) produce
    no row.  std is None with fewer than two values.
    """
    rows: list[ResultRow] = []
    for label in labels:
        runs = [o for o in outcomes if o.method == label]
        for metric in metrics:
            values = [getattr(o.report, _METRIC_FIELDS[metric]) for o in runs]
            values = [v for v in values if v is not None]
            if not values:
                continue
            std = float(np.std(values, ddof=1)) if len(values) >= 2 else None
            rows.append(ResultRow(
                dataset=name,
                method=label,
                metric=_metric_name(metric, dataset),
                mean=float(np.mean(values)),
                std=std,
            ))
    return rows


def _failure(dataset: str, method: str, seed: int, exc: Exception) -> RunFailure:
    return RunFailure(dataset, method, seed, str(exc), type(exc).__name__)


def _train_seed(spec: ExperimentSpec, entries, base: dict | None,
                seed: int) -> tuple[Dataset | Exception, list[tuple]]:
    """One seed's runs: every entry's config built on ``base``, and the
    built ones trained on the seed's dataset in one ``run_methods`` call.

    Returns the dataset and, per entry, its (config, result) pair; each
    slot holds the exception its step raised instead, and a dataset that
    cannot be resolved is that exception and every built config's result.
    This is the unit of work ``_train_seeds`` deals to a worker process,
    so what it returns is pickled there.
    """
    configs = [caught(build_config, entry, base, seed) for entry in entries]
    dataset = caught(resolve_dataset, spec.dataset, seed, spec.base_dir)
    built = [c for c in configs if not isinstance(c, Exception)]
    results = iter([dataset] * len(built) if isinstance(dataset, Exception)
                   else run_methods(dataset, built))
    return dataset, [(c, c if isinstance(c, Exception) else next(results)) for c in configs]


def _worker_count(seeds: int) -> int:
    """How many processes train ``seeds`` seeds: as many as the usable
    cores hold at BLAS's threads per process, at most one per seed and at
    least one.  BLAS's thread count is the first of ``OPENBLAS_NUM_THREADS``
    and ``OMP_NUM_THREADS`` that is a positive integer, else every usable
    core, OpenBLAS's own default; so a process whose BLAS already uses
    every core trains its seeds one after another.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = 1
    threads = cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            threads = value
            break
    return max(1, min(seeds, cores // threads))


def _train_seeds(spec: ExperimentSpec, entries, base: dict | None) -> list[tuple]:
    """``_train_seed``'s result for every seed of ``spec``, in seed order.

    The seeds are dealt round-robin to this process and to the other
    ``_worker_count`` - 1 workers, children made with ``os.fork`` that
    each pickle their share's results into a pipe.  A share whose child
    delivers nothing, because the child could not start, failed or died,
    trains here afterwards, so the results are a serial run's whatever
    becomes of a child.  Every child is reaped before the call returns or
    raises.
    """
    seeds = spec.seeds
    workers = _worker_count(len(seeds))
    shares = [range(w, len(seeds), workers) for w in range(workers)]
    results: list = [None] * len(seeds)
    children = []
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the share's pipe stays empty
                pid = None
            if pid == 0:
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pickle.dump([_train_seed(spec, entries, base, seeds[i])
                                     for i in share], pipe)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read, share))
        for i in shares[0]:
            results[i] = _train_seed(spec, entries, base, seeds[i])
        for _, read, share in children:
            try:
                with open(read, "rb", closefd=False) as pipe:
                    delivered = pickle.load(pipe)
            except Exception:  # a short or broken stream: the child failed
                delivered = [_train_seed(spec, entries, base, seeds[i]) for i in share]
            for i, result in zip(share, delivered):
                results[i] = result
    finally:
        for pid, read, _ in children:
            os.close(read)
            if pid is not None:
                os.waitpid(pid, 0)
    return results


def run_experiment(
    spec: ExperimentSpec,
) -> tuple[list[ResultRow], list[RunOutcome], list[RunFailure]]:
    """Run the method-by-seed grid and aggregate results.

    Each seed's dataset is resolved once and shared by all methods at that
    seed, and each seed's runs train in one ``run_methods`` call; the
    seeds train in parallel worker processes when the cores allow
    (``_train_seeds``), with the same results as one after another.  A
    run that raises becomes a RunFailure; the rest continue.  Outcomes,
    failures and the per-run artifacts (report, model, surrogate, written
    under output_dir/runs) follow the grid method by method.
    """
    name = dataset_name(spec.dataset)
    seeded = _train_seeds(spec, spec.methods, spec.base_config)

    outcomes: list[RunOutcome] = []
    failures: list[RunFailure] = []
    labels: list[str] = []
    for m, entry in enumerate(spec.methods):
        entry_label = str(entry.get("method", "?"))
        for seed, (dataset, runs) in zip(spec.seeds, seeded):
            config, result = runs[m]
            if not isinstance(config, Exception):
                entry_label = method_label(config)
            if isinstance(result, Exception):
                failures.append(_failure(name, entry_label, seed, result))
                continue
            try:
                model, surrogate, report = result
                if GNF_METRIC in spec.metrics:
                    value = evaluate_gnf(model, surrogate, seed, dataset, spec.gnf)
                    report = dataclasses.replace(report, gnf=value)
                outcome = RunOutcome(
                    method=entry_label, seed=seed,
                    model=model, surrogate=surrogate, report=report,
                )
                outcomes.append(outcome)
                write_run_artifacts(
                    spec.output_dir, name, outcome, dataset.feature_names
                )
            except Exception as exc:
                failures.append(_failure(name, entry_label, seed, exc))
        if entry_label not in labels:
            labels.append(entry_label)

    sample = next((d for d, _ in seeded if not isinstance(d, Exception)), None)
    if sample is None:
        return [], outcomes, failures
    rows = aggregate_rows(name, sample, labels, outcomes, spec.metrics)
    return rows, outcomes, failures


@dataclass(frozen=True)
class ScatterPoint:
    """One (task metric, fidelity) point from the trade-off scan."""

    seed: int
    method: str
    alpha: float | None
    task_metric: float
    gf: float
    dominated: bool


def _task_loss(value: float, task: str) -> float:
    # Dominance wants losses; F1 is a score, so flip its orientation.
    return 1.0 - value if task == CLASSIFICATION else value


def pareto_scan(
    spec: ExperimentSpec,
) -> tuple[list[ScatterPoint], list[RunFailure]]:
    """Trade-off scan: nine fixed-weight runs plus the min-norm run per seed.

    Each seed's ten runs train as one stack, and the seeds train as
    ``run_experiment``'s do (``_train_seeds``).  Every point carries a
    dominance flag computed within its seed using (task loss, fidelity)
    pairs, both oriented as losses.
    """
    name = dataset_name(spec.dataset)
    base = dict(spec.base_config or {})
    base.pop("method", None)
    base.pop("alpha", None)
    entries = [{"method": MOO}] + [{"method": GS, "alpha": a} for a in PARETO_ALPHAS]
    points: list[ScatterPoint] = []
    failures: list[RunFailure] = []
    for seed, (dataset, runs) in zip(spec.seeds, _train_seeds(spec, entries, base)):
        if isinstance(dataset, Exception):
            failures.append(_failure(name, "dataset", seed, dataset))
            continue
        seed_points: list[tuple[str, float | None, TrainReport]] = []
        for entry, (config, result) in zip(entries, runs):
            if isinstance(config, Exception):
                failures.append(_failure(name, entry["method"], seed, config))
            elif isinstance(result, Exception):
                failures.append(_failure(name, method_label(config), seed, result))
            else:
                seed_points.append((method_label(config), config.alpha, result[2]))

        losses = [
            np.asarray([_task_loss(r.task_metric, dataset.task), r.gf])
            for _, _, r in seed_points
        ]
        for i, (label, alpha, report) in enumerate(seed_points):
            dominated = any(
                dominates(losses[j], losses[i])
                for j in range(len(seed_points)) if j != i
            )
            points.append(ScatterPoint(
                seed=seed, method=label, alpha=alpha,
                task_metric=report.task_metric, gf=report.gf,
                dominated=dominated,
            ))
    return points, failures


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6g}"


REPORT_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _write_csv(path: str, header: tuple[str, ...], records) -> None:
    """One header line, then one line per record; fields are quoted only
    when they hold a comma, a quote or a line break."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # The writer only quotes line-terminator characters, and a bare
        # carriage return is not one, so such a record is quoted in full.
        quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        for record in records:
            has_cr = any("\r" in str(field) for field in record)
            (quote_all if has_cr else writer).writerow(record)


def _cell(value):
    if isinstance(value, bool):
        return str(value).lower()
    return _fmt(value) if value is None or isinstance(value, float) else value


def _emit(records, record_type: type, schema: str, key: str,
          fmt: str, path: str) -> None:
    """Write dataclass records as CSV with one column per field of
    ``record_type``, or as versioned JSON with one object per record under
    ``key``.  Floats keep six significant digits in both; in CSV None is an
    empty field and a bool a lowercase word."""
    if fmt == "csv":
        _write_csv(path, tuple(f.name for f in fields(record_type)),
                   ([_cell(v) for v in astuple(record)] for record in records))
    elif fmt == "json":
        _write_json(path, {"schema": schema, "version": RESULTS_VERSION, key: [
            {name: float(_fmt(v)) if isinstance(v, float) else v
             for name, v in asdict(record).items()}
            for record in records]})
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def emit_report(rows: list[ResultRow], fmt: str, path: str) -> None:
    """Write the aggregated table as CSV or versioned JSON.

    Columns are fixed as dataset,method,metric,mean,std with floats at six
    significant digits; an empty table still gets the CSV header.
    """
    _emit(rows, ResultRow, RESULTS_SCHEMA, "rows", fmt, path)


def read_report_csv(path: str) -> list[ResultRow]:
    """Parse a CSV report back into rows (inverse of emit_report)."""
    with open(path, encoding="utf-8", newline="") as fh:
        records = [record for record in csv.reader(fh) if record]
    if not records or tuple(records[0]) != REPORT_COLUMNS:
        raise DataError(f"{path}: not a results CSV")
    rows = []
    for record in records[1:]:
        if len(record) != len(REPORT_COLUMNS):
            raise DataError(f"{path}: row {record} needs {len(REPORT_COLUMNS)} fields")
        dataset, method, metric, mean, std = record
        rows.append(ResultRow(
            dataset=dataset, method=method, metric=metric,
            mean=float(mean), std=None if std == "" else float(std),
        ))
    return rows


def emit_scatter(points: list[ScatterPoint], fmt: str, path: str) -> None:
    """Write trade-off scan points as CSV or versioned JSON."""
    _emit(points, ScatterPoint, "tandem-pareto", "points", fmt, path)


def write_failures(failures: list[RunFailure], out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "failures.json"),
                {"failures": [asdict(f) for f in failures]})
