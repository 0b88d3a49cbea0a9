"""Command-line interface.

Subcommands: train one method on one dataset, run a full experiment grid
from a spec file, scan the fidelity trade-off, dump a saved surrogate's
feature ranking, and evaluate local-neighborhood fidelity for a saved
model.  ``experiment`` and ``pareto-scan`` exit with the number of failed
runs (0 on success).  Any command that cannot finish, say for a spec,
dataset or checkpoint that cannot be loaded or an output directory that
cannot be written, prints one line ``<command> failed: <reason>`` to
stderr (``run failed:`` for ``train``) and exits with 1; the output
directory is made before any training.  A usage error exits with 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from functools import partial

from .harness import (
    _CONFIG_FIELDS,
    GnfSettings,
    build_config,
    dataset_name,
    emit_report,
    emit_scatter,
    evaluate_gnf,
    load_dataset_descriptor,
    load_experiment_spec,
    method_label,
    pareto_scan,
    resolve_dataset,
    run_experiment,
    RunOutcome,
    write_failures,
    write_run_artifacts,
)
from .errors import DataError, caught
from .metrics import GAUSSIAN, PATCH_DELETE
from .nn import load_mlp
from .surrogate import explain, load_surrogate
from .trainers import METHODS, TrainConfig, run_method

__all__ = ["main"]


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    """The ``train`` flags, each stored under its TrainConfig field name."""
    parser.add_argument("--method", default="MOO", choices=METHODS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--alpha", type=float, default=None,
                        help="fixed weight for GS")
    parser.add_argument("--epochs", type=int, default=None, dest="max_epochs",
                        metavar="EPOCHS")
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--lr-theta", type=float, default=None)
    parser.add_argument("--lr-phi", type=float, default=None)
    parser.add_argument("--hidden", default=None,
                        help="comma-separated hidden layer sizes, e.g. 32,32")


def _config_from_args(args: argparse.Namespace) -> TrainConfig:
    """The TrainConfig of the ``train`` flags that were given."""
    entry = {key: value for key, value in vars(args).items()
             if key in _CONFIG_FIELDS and value is not None}
    if args.hidden is not None:
        entry["hidden"] = [caught(int, h) for h in args.hidden.split(",")]
        if any(isinstance(h, ValueError) for h in entry["hidden"]):
            raise DataError(f"--hidden takes widths such as 32,32, got {args.hidden!r}")
    return build_config(entry, None, args.seed)


def _cmd_train(args: argparse.Namespace) -> int:
    descriptor, base_dir = load_dataset_descriptor(args.dataset)
    config = _config_from_args(args)
    dataset = resolve_dataset(descriptor, config.seed, base_dir)
    name = dataset_name(descriptor)
    os.makedirs(args.out, exist_ok=True)
    model, surrogate, report = run_method(dataset, config)
    outcome = RunOutcome(
        method=method_label(config), seed=config.seed,
        model=model, surrogate=surrogate, report=report,
    )
    write_run_artifacts(args.out, name, outcome, dataset.feature_names)
    gf = "none" if report.gf is None else f"{report.gf:.6g}"
    print(f"method={outcome.method} seed={config.seed} "
          f"epochs={report.epochs_run} stopped={report.stopped_reason} "
          f"task_metric={report.task_metric:.6g} gf={gf}")
    return 0


def _run_grid(args: argparse.Namespace, run, emit, stem: str, line) -> int:
    """``experiment`` and ``pareto-scan``: load the ``--spec`` file, put
    any ``--out`` in place of its output_dir, make that directory, run the
    spec with ``run``, write its records with ``emit`` to
    ``<output_dir>/<stem>.<format>``, print each as ``line`` gives it and
    each failure, and return the count of failures."""
    spec = load_experiment_spec(args.spec)
    if args.out is not None:
        spec = dataclasses.replace(spec, output_dir=args.out)
    os.makedirs(spec.output_dir, exist_ok=True)
    records, *_, failures = run(spec)
    path = os.path.join(spec.output_dir, f"{stem}.{args.format}")
    emit(records, args.format, path)
    for record in records:
        print(line(record))
    if failures:
        write_failures(failures, spec.output_dir)
        for failure in failures:
            print(f"FAILED {failure.method} seed={failure.seed}: "
                  f"{failure.error_type}: {failure.error}", file=sys.stderr)
    print(f"wrote {path}")
    return len(failures)


def _row_line(r) -> str:
    std = "" if r.std is None else f" +- {r.std:.6g}"
    return f"{r.dataset} {r.method} {r.metric}: {r.mean:.6g}{std}"


def _point_line(p) -> str:
    flag = "dominated" if p.dominated else "non-dominated"
    return f"seed={p.seed} {p.method}: task={p.task_metric:.6g} gf={p.gf:.6g} [{flag}]"


def _cmd_explain(args: argparse.Namespace) -> int:
    if args.top is not None and args.top < 1:
        raise DataError(f"--top must be at least 1, got {args.top}")
    surrogate, names = load_surrogate(args.surrogate)
    importance = explain(surrogate, names)
    entries = importance.entries[: args.top]
    if args.format == "json":
        payload = [
            {"rank": rank, "feature": name, "coefficient": coef}
            for name, coef, rank in entries
        ]
        print(json.dumps({"bias": surrogate.bias, "features": payload}, indent=2))
    else:
        print(f"bias: {surrogate.bias:.6g}")
        for name, coef, rank in entries:
            print(f"{rank:4d}. {name}  {coef:+.6g}")
    return 0


def _cmd_gnf(args: argparse.Namespace) -> int:
    descriptor, base_dir = load_dataset_descriptor(args.dataset)
    model = load_mlp(args.model)
    dataset = resolve_dataset(descriptor, args.seed, base_dir)
    settings = GnfSettings(
        points=args.points, count=args.count, sigma2=args.sigma2,
        kind=args.kind, local=args.surrogate is None,
    )
    surrogate = None if args.surrogate is None else load_surrogate(args.surrogate)[0]
    value = evaluate_gnf(model, surrogate, args.seed, dataset, settings)
    mode = "global" if args.surrogate is not None else "local"
    print(f"gnf={value:.6g} mode={mode} points={settings.points} "
          f"count={settings.count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tandem",
        description="Train black-box models jointly with interpretable "
                    "linear surrogates and evaluate fidelity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one method on one dataset")
    p_train.add_argument("--dataset", required=True,
                         help="dataset descriptor JSON path")
    p_train.add_argument("--out", default="out")
    _add_train_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_exp = sub.add_parser("experiment", help="run a method-by-seed grid")
    p_exp.add_argument("--spec", required=True, help="experiment spec JSON path")
    p_exp.add_argument("--out", default=None, help="override spec output_dir")
    p_exp.add_argument("--format", default="csv", choices=("csv", "json"))
    p_exp.set_defaults(func=partial(_run_grid, run=run_experiment, emit=emit_report,
                                    stem="results", line=_row_line))

    p_scan = sub.add_parser("pareto-scan",
                            help="fixed-weight grid plus min-norm trade-off scan")
    p_scan.add_argument("--spec", required=True)
    p_scan.add_argument("--out", default=None)
    p_scan.add_argument("--format", default="csv", choices=("csv", "json"))
    p_scan.set_defaults(func=partial(_run_grid, run=pareto_scan, emit=emit_scatter,
                                     stem="pareto", line=_point_line))

    p_explain = sub.add_parser("explain",
                               help="rank a saved surrogate's coefficients")
    p_explain.add_argument("--surrogate", required=True,
                           help="surrogate checkpoint JSON path")
    p_explain.add_argument("--top", type=int, default=None)
    p_explain.add_argument("--format", default="text", choices=("text", "json"))
    p_explain.set_defaults(func=_cmd_explain)

    p_gnf = sub.add_parser("gnf", help="neighborhood fidelity of a saved model")
    p_gnf.add_argument("--dataset", required=True)
    p_gnf.add_argument("--model", required=True,
                       help="model checkpoint JSON path")
    p_gnf.add_argument("--surrogate", default=None,
                       help="global surrogate checkpoint; omit for local fits")
    p_gnf.add_argument("--seed", type=int, default=0)
    p_gnf.add_argument("--points", type=int, default=50)
    p_gnf.add_argument("--count", type=int, default=10)
    p_gnf.add_argument("--sigma2", type=float, default=0.1)
    p_gnf.add_argument("--kind", default=GAUSSIAN,
                       choices=(GAUSSIAN, PATCH_DELETE))
    p_gnf.set_defaults(func=_cmd_gnf)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; an exception it raises becomes its one failure line
    and exit status 1.  Usage errors and ``--help`` exit inside the parser."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"{'run' if args.command == 'train' else args.command} failed: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
