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
import math
import numbers
import os
import pickle
import sys
import warnings
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
from .errors import DataError, caught, check_types
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
    run_slices,
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
        check_types(vars(self), _GNF_TYPES, DataError, "gnf {} has the wrong type: {!r}")
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
    check_types(raw, dict.fromkeys(("methods", "seeds", "metrics"), list), DataError,
                "spec {} must be a list")
    check_types(raw, {"config": dict}, DataError, "spec {} must be an object")
    check_types(raw, {"output_dir": str}, DataError, "spec {} must be a string")
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


def _read_json(path: str) -> tuple[object, str]:
    """A JSON file's value and the directory its relative paths resolve against."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh), os.path.dirname(path) or "."


def load_experiment_spec(path: str) -> ExperimentSpec:
    """Read a JSON experiment spec; relative paths resolve against it."""
    return spec_from_dict(*_read_json(path))


def load_dataset_descriptor(path: str) -> tuple[dict, str]:
    """Read a JSON dataset descriptor, returning it with its directory."""
    return _read_json(path)


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
    check_types(descriptor, _DESCRIPTOR_TYPES[kind], DataError,
                kind + " dataset descriptor key {!r} has the wrong type: {!r}")
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
    """The optional ``name`` key, else a name from the kind's own keys.  A
    ``name`` that is not a file name (a nonempty string, not ``.`` or ``..``,
    with no path separator) raises DataError: it would leave ``runs/``."""
    if "name" in descriptor:
        name = descriptor["name"]
        if not isinstance(name, str) or name in ("", ".", "..") or any(
                sep and sep in name for sep in ("/", os.sep, os.altsep)):
            raise DataError(f"dataset name must be a file name, got {name!r}")
        return name
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


def _worker_count(runs: int) -> int:
    """How many processes train ``runs`` runs: as many as the usable cores
    hold at BLAS's threads per process, at most one per run and at least
    one.  BLAS's thread count is the first of ``OPENBLAS_NUM_THREADS`` and
    ``OMP_NUM_THREADS`` that is a positive integer, else every usable core,
    OpenBLAS's own default; so a process whose BLAS already uses every core
    trains its runs one after another.
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
    return max(1, min(runs, cores // threads))


def _units(plans: list[tuple]) -> tuple[int, list[tuple[int, list[int]]]]:
    """The workers and the units of ``plans``, each seed's dataset and
    configs: a unit is (seed index, entry indices), one slice of the built
    configs of a seed that has a dataset, in seed order.  With ``cap`` the
    most workers the cores allow for that many runs, each such seed is cut
    by ``run_slices`` into at most ``parts = cap // gcd(seeds with a
    dataset, cap)`` slices, the fewest that let the units divide evenly
    over the ``min(units, cap)`` workers, of whom there is at least one.
    """
    built = [(s, [i for i, c in enumerate(configs) if not isinstance(c, Exception)])
             for s, (dataset, configs) in enumerate(plans)
             if not isinstance(dataset, Exception)]
    cap = _worker_count(sum(len(indices) for _, indices in built))
    parts = cap // math.gcd(len(built), cap)
    units = [(s, [indices[i] for i in part]) for s, indices in built
             for part in run_slices([plans[s][1][i] for i in indices], parts)]
    return max(1, min(cap, len(units))), units


def _recorded(function, *args) -> tuple:
    """``function(*args)`` and the Python warnings the call issued,
    recorded under the process's filters instead of printed."""
    with warnings.catch_warnings(record=True) as log:
        result = function(*args)
    return result, [(w.message, w.filename, w.lineno) for w in log]


def _reissue(recorded: list) -> None:
    """Issue recorded warnings again, in order, as the code where each was
    raised would: through the filters and the registry of its module, so a
    warning that several units raised prints as often as in one process."""
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, filename, lineno in recorded:
        module = modules.get(filename)
        warnings.warn_explicit(
            message, type(message), filename, lineno,
            module=getattr(module, "__name__", None),
            registry=None if module is None else vars(module).setdefault(
                "__warningregistry__", {}))


def _train_seeds(spec: ExperimentSpec, entries, base: dict | None) -> list[tuple]:
    """Every seed's dataset and (config, result) pair per entry, in seed
    order, as one ``run_methods`` call per seed over its built configs
    gives them.

    The work is planned here, before any fork: each seed's dataset is
    resolved once and each entry's config built once, and a step that
    raises is the result of every run it feeds.  The units (``_units``) are
    dealt round-robin to this process and to children made with
    ``os.fork``, which train each unit of their share with one
    ``run_methods`` call on the plan they were forked with and pickle only
    its runs into a pipe.  A share whose child delivers nothing (it could
    not start, failed or died) trains here afterwards.  The warnings of
    each seed's plan, then of its units, are recorded and issued again
    here in seed order.  No child outlives the call.
    """
    def plan(seed):
        return (caught(resolve_dataset, spec.dataset, seed, spec.base_dir),
                [caught(build_config, entry, base, seed) for entry in entries])

    def train(share):
        return [_recorded(run_methods, plans[s][0], [plans[s][1][i] for i in part])
                for s, part in (units[u] for u in share)]

    plans, logs = zip(*(_recorded(plan, seed) for seed in spec.seeds))
    workers, units = _units(plans)
    shares = [range(w, len(units), workers) for w in range(workers)]
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
                        pickle.dump(train(share), pipe)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read, share))
        trained = dict(zip(shares[0], train(shares[0])))
        for _, read, share in children:
            try:
                with open(read, "rb", closefd=False) as pipe:
                    delivered = pickle.load(pipe)
            except Exception:  # a short or broken stream: the child failed
                delivered = train(share)
            trained.update(zip(share, delivered))
    finally:
        for pid, read, _ in children:
            os.close(read)
            if pid is not None:
                os.waitpid(pid, 0)
    # A run no unit trains keeps its config's exception or its dataset's.
    results = [(dataset, [(c, c if isinstance(c, Exception) else dataset) for c in configs])
               for dataset, configs in plans]
    for u, (s, part) in enumerate(units):
        runs, log = trained[u]
        logs[s].extend(log)
        for i, run in zip(part, runs):
            results[s][1][i] = (plans[s][1][i], run)
    _reissue([w for log in logs for w in log])
    return results


def run_experiment(
    spec: ExperimentSpec,
) -> tuple[list[ResultRow], list[RunOutcome], list[RunFailure]]:
    """Run the method-by-seed grid and aggregate results.

    Each seed's dataset is resolved once and each run's config built once,
    here; the runs then train in one ``run_methods`` call per seed or, when
    the cores allow, in slices trained by parallel worker processes
    (``_train_seeds``), with the same results as one call after another.
    A run that raises becomes a RunFailure; the rest continue.  Outcomes,
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

    Each seed's dataset is resolved once, here, and its ten runs train as
    one stack, or as one stack per slice when idle cores cut the seed's
    runs into slices; either way the seeds train as ``run_experiment``'s
    do (``_train_seeds``).  Every point carries a dominance flag computed
    within its seed using (task loss, fidelity) pairs, both oriented as
    losses.
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


def emit_scatter(points: list[ScatterPoint], fmt: str, path: str) -> None:
    """Write trade-off scan points as CSV or versioned JSON."""
    _emit(points, ScatterPoint, "tandem-pareto", "points", fmt, path)


def write_failures(failures: list[RunFailure], out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "failures.json"),
                {"failures": [asdict(f) for f in failures]})
