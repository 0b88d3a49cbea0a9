"""Command-line interface.

Subcommands: train one method on one dataset, run a full experiment grid
from a spec file, scan the fidelity trade-off, dump a saved surrogate's
feature ranking, and evaluate local-neighborhood fidelity for a saved
model.  ``experiment`` and ``pareto-scan`` exit with the number of failed
runs (0 on success); ``train``, ``gnf``, ``explain`` and a spec that
cannot be loaded exit with 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .harness import (
    ExperimentSpec,
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
from .errors import TandemError
from .metrics import GAUSSIAN, PATCH_DELETE
from .nn import load_mlp
from .surrogate import explain, init_surrogate, load_surrogate
from .trainers import METHODS, TrainConfig, run_method

__all__ = ["main"]


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", default="MOO", choices=METHODS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--alpha", type=float, default=None,
                        help="fixed weight for GS")
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--lr-theta", type=float, default=None)
    parser.add_argument("--lr-phi", type=float, default=None)
    parser.add_argument("--hidden", default=None,
                        help="comma-separated hidden layer sizes, e.g. 32,32")


def _config_from_args(args: argparse.Namespace) -> TrainConfig:
    entry: dict = {"method": args.method}
    if args.alpha is not None:
        entry["alpha"] = args.alpha
    if args.epochs is not None:
        entry["max_epochs"] = args.epochs
    if args.batch_size is not None:
        entry["batch_size"] = args.batch_size
    if args.lr_theta is not None:
        entry["lr_theta"] = args.lr_theta
    if args.lr_phi is not None:
        entry["lr_phi"] = args.lr_phi
    if args.hidden is not None:
        entry["hidden"] = [int(h) for h in args.hidden.split(",") if h]
    return build_config(entry, None, args.seed)


def _cmd_train(args: argparse.Namespace) -> int:
    try:
        descriptor, base_dir = load_dataset_descriptor(args.dataset)
        config = _config_from_args(args)
        dataset = resolve_dataset(descriptor, config.seed, base_dir)
        model, surrogate, report = run_method(dataset, config)
    except Exception as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    outcome = RunOutcome(
        method=method_label(config), seed=config.seed,
        model=model, surrogate=surrogate, report=report,
    )
    os.makedirs(args.out, exist_ok=True)
    write_run_artifacts(args.out, dataset_name(descriptor), outcome,
                        dataset.feature_names)
    gf = "none" if report.gf is None else f"{report.gf:.6g}"
    print(f"method={outcome.method} seed={config.seed} "
          f"epochs={report.epochs_run} stopped={report.stopped_reason} "
          f"task_metric={report.task_metric:.6g} gf={gf}")
    return 0


def _load_spec(args: argparse.Namespace) -> ExperimentSpec | None:
    """The ``--spec`` file with any ``--out`` applied, or None once the
    reason it cannot be loaded is printed."""
    try:
        spec = load_experiment_spec(args.spec)
    except (TandemError, OSError, ValueError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return None
    if args.out is not None:
        spec = dataclasses.replace(spec, output_dir=args.out)
    return spec


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    if spec is None:
        return 1
    rows, _, failures = run_experiment(spec)
    os.makedirs(spec.output_dir, exist_ok=True)
    path = os.path.join(spec.output_dir, f"results.{args.format}")
    emit_report(rows, args.format, path)
    for row in rows:
        std = "" if row.std is None else f" +- {row.std:.6g}"
        print(f"{row.dataset} {row.method} {row.metric}: {row.mean:.6g}{std}")
    if failures:
        write_failures(failures, spec.output_dir)
        for failure in failures:
            print(f"FAILED {failure.method} seed={failure.seed}: "
                  f"{failure.error_type}: {failure.error}", file=sys.stderr)
    print(f"wrote {path}")
    return len(failures)


def _cmd_pareto_scan(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    if spec is None:
        return 1
    points, failures = pareto_scan(spec)
    os.makedirs(spec.output_dir, exist_ok=True)
    path = os.path.join(spec.output_dir, f"pareto.{args.format}")
    emit_scatter(points, args.format, path)
    for p in points:
        flag = "dominated" if p.dominated else "non-dominated"
        print(f"seed={p.seed} {p.method}: task={p.task_metric:.6g} "
              f"gf={p.gf:.6g} [{flag}]")
    if failures:
        write_failures(failures, spec.output_dir)
        for failure in failures:
            print(f"FAILED {failure.method} seed={failure.seed}: "
                  f"{failure.error_type}: {failure.error}", file=sys.stderr)
    print(f"wrote {path}")
    return len(failures)


def _cmd_explain(args: argparse.Namespace) -> int:
    try:
        surrogate, names = load_surrogate(args.surrogate)
        importance = explain(surrogate, names)
    except (TandemError, OSError, ValueError) as exc:
        print(f"explain failed: {exc}", file=sys.stderr)
        return 1
    entries = importance.entries[: args.top] if args.top else importance.entries
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
    try:
        descriptor, base_dir = load_dataset_descriptor(args.dataset)
        model = load_mlp(args.model)
        dataset = resolve_dataset(descriptor, args.seed, base_dir)
        settings = GnfSettings(
            points=args.points, count=args.count, sigma2=args.sigma2,
            kind=args.kind, local=args.surrogate is None,
        )
        if args.surrogate is not None:
            surrogate, _ = load_surrogate(args.surrogate)
        else:
            surrogate = init_surrogate(dataset.n_features)
        value = evaluate_gnf(model, surrogate, args.seed, dataset, settings)
    except (TandemError, OSError, ValueError) as exc:
        print(f"gnf failed: {exc}", file=sys.stderr)
        return 1
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
    p_exp.set_defaults(func=_cmd_experiment)

    p_scan = sub.add_parser("pareto-scan",
                            help="fixed-weight grid plus min-norm trade-off scan")
    p_scan.add_argument("--spec", required=True)
    p_scan.add_argument("--out", default=None)
    p_scan.add_argument("--format", default="csv", choices=("csv", "json"))
    p_scan.set_defaults(func=_cmd_pareto_scan)

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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
