"""Command-line surface: train, project, evaluate, and compare.

Exit codes are a stable contract: 0 on success, 1 for validation problems
(flags, configuration, malformed data), 2 for I/O failures.  Every output
file is written atomically.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from nearline.baselines import METHODS, BaselineConfig
from nearline.data import SplitSpec, feature_csv, load_csv, load_pgm_dir
from nearline.evaluate import CLASSIFIERS, ExperimentError, fit_method, run_experiment, run_experiments
from nearline.model_io import atomic_write_text, load_model, save_model, save_report
from nearline.nlp import TrainConfig, TrainingSplit, project

log = logging.getLogger(__name__)

FORMATS = ("csv", "pgm-dir")
CLASSIFIER_FLAGS = tuple(name.replace("_", "-") for name in CLASSIFIERS)
# the flags each command cannot run without, in the order they are checked
REQUIRED = {
    "train": ("data", "out", "dim"),
    "project": ("data", "out", "model"),
    "evaluate": ("data", "out", "train_frac", "dim"),
    "compare": ("data", "out", "train_frac"),
}
# the suffix of the second file a command writes beside --out
SIBLINGS = {"train": ".trace.csv", "evaluate": ".csv", "compare": ".table.txt"}


class CliValidationError(ValueError):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse normally exits the process on bad flags; raise instead so the
    # exit-code contract stays in one place.
    def error(self, message):
        raise CliValidationError(message)


def _csv_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _csv_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in _csv_list(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of integers, got {text!r}") from None


def _flag(default, **argparse_kwargs):
    """A flag's field: its default, and the rest of its ``add_argument`` call."""
    return field(default=default, metadata=argparse_kwargs)


def _flag_name(name: str) -> str:
    return "--" + name.replace("_", "-")


@dataclass(frozen=True)
class RunSpec:
    """Parsed CLI invocation.  Each field after ``command`` is one flag,
    ``--<name>`` with ``-`` for ``_``: the field's default and metadata are
    the flag's default and ``add_argument`` keywords."""

    command: str
    data: str | None = _flag(None)
    format: str = _flag("csv", choices=FORMATS)
    label_col: str = _flag("last")
    method: str = _flag("nlp", choices=tuple(METHODS))
    methods: tuple[str, ...] = _flag((), type=_csv_list)
    k: int = _flag(BaselineConfig.K, type=int)
    dim: int | None = _flag(None, type=int)
    dims: tuple[int, ...] = _flag((), type=_csv_int_list)
    max_iters: int = _flag(TrainConfig.max_iters, type=int)
    tol: float = _flag(TrainConfig.rel_tol, type=float)
    train_frac: float | None = _flag(None, type=float)
    repeats: int = _flag(SplitSpec.repeats, type=int)
    seed: int = _flag(0, type=int)
    classifier: str = _flag("nn", choices=CLASSIFIER_FLAGS)
    out: str | None = _flag(None)
    model: str | None = _flag(None)
    quiet: bool = _flag(False, action="store_true")

    @staticmethod
    def from_argv(argv) -> "RunSpec":
        ns = _build_parser().parse_args(list(argv))
        spec = RunSpec(**{f.name: getattr(ns, f.name) for f in fields(RunSpec)})
        _validate_spec(spec)
        return spec


def _build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    for f in fields(RunSpec)[1:]:
        shared.add_argument(_flag_name(f.name), dest=f.name, default=f.default, **f.metadata)

    parser = _Parser(prog="nearline", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in REQUIRED:
        sub.add_parser(command, parents=[shared])
    return parser


def _validate_spec(spec: RunSpec) -> None:
    for name in REQUIRED[spec.command]:
        if getattr(spec, name) is None:
            raise CliValidationError(f"{spec.command} requires {_flag_name(name)}")
    if spec.command == "compare":
        if len(spec.methods) < 2:
            raise CliValidationError("compare requires --methods with at least 2 methods")
        unknown = [m for m in spec.methods if m not in METHODS]
        if unknown:
            raise CliValidationError(f"unknown methods: {unknown} (choose from {tuple(METHODS)})")
        if not spec.dims:
            raise CliValidationError("compare requires --dims")
    if spec.command in SIBLINGS and _sibling_path(spec) == Path(spec.out):
        raise CliValidationError(
            f"{spec.command} would write --out {spec.out} and its sibling {_sibling_path(spec)} "
            f"to one file; choose an --out that does not end in {SIBLINGS[spec.command]}"
        )


def _load_dataset(spec: RunSpec):
    if spec.format == "pgm-dir":
        return load_pgm_dir(spec.data)
    label_col = spec.label_col
    if label_col != "last":
        try:
            label_col = int(label_col)
        except ValueError:
            pass  # keep as a column name
    return load_csv(spec.data, label_col)


def _method_config(spec: RunSpec, method: str, d_prime: int):
    if method == "nlp":
        return TrainConfig(K=spec.k, d_prime=d_prime, max_iters=spec.max_iters, rel_tol=spec.tol)
    if method == "pca":
        return BaselineConfig(method="pca", d_prime=d_prime)
    return BaselineConfig(method="lpp", d_prime=d_prime, K=spec.k)


def _split_spec(spec: RunSpec) -> SplitSpec:
    return SplitSpec(train_fraction=spec.train_frac, seed=spec.seed, repeats=spec.repeats)


def _sibling_path(spec: RunSpec) -> Path:
    out = Path(spec.out)
    return out.with_name(out.stem + SIBLINGS[spec.command])


def _classifier_name(spec: RunSpec) -> str:
    return spec.classifier.replace("-", "_")


def _cmd_train(spec: RunSpec) -> None:
    config = _method_config(spec, spec.method, spec.dim)
    # the split's centered copy is the only one of the rows the fit holds:
    # nothing keeps the loaded dataset once it is centered
    model = fit_method(TrainingSplit(_load_dataset(spec)), config)
    save_model(model, spec.out)
    trace_path = _sibling_path(spec)
    trace_lines = ["iteration,objective"]
    for t, value in enumerate(model.objective_trace):
        trace_lines.append(f"{t},{value!r}")
    atomic_write_text(trace_path, "\n".join(trace_lines) + "\n")
    if not spec.quiet:
        print(f"wrote {spec.out} and {trace_path}")


def _cmd_project(spec: RunSpec) -> None:
    model = load_model(spec.model)
    dataset = _load_dataset(spec)
    # a model file may hold NaN or Infinity (load_model reads them back), and
    # finite values may overflow: load_csv rejects a non-finite projected row
    with np.errstate(over="ignore", invalid="ignore"):
        rows = project(model, dataset.features)
    if not np.isfinite(rows).all():
        raise CliValidationError(f"model file {spec.model} projects rows to non-finite values")
    atomic_write_text(spec.out, feature_csv(rows, dataset.labels))
    if not spec.quiet:
        print(f"wrote {spec.out}")


def _cmd_evaluate(spec: RunSpec) -> None:
    config = _method_config(spec, spec.method, spec.dim)
    split = _split_spec(spec)
    dataset = _load_dataset(spec)
    report = run_experiment(dataset, config, split, _classifier_name(spec))
    save_report(report, spec.out, _sibling_path(spec))
    print(f"accuracy: {report.mean_accuracy:.4f} ± {report.std_accuracy:.4f}")


def _cmd_compare(spec: RunSpec) -> None:
    split = _split_spec(spec)
    cells = [(method, dim) for dim in spec.dims for method in spec.methods]
    configs = [_method_config(spec, method, dim) for method, dim in cells]
    dataset = _load_dataset(spec)
    reports = run_experiments(dataset, configs, split, _classifier_name(spec))
    means = {cell: report.mean_accuracy for cell, report in zip(cells, reports)}
    rows = []
    for (method, dim), report in zip(cells, reports):
        for r, acc in enumerate(report.per_repeat_accuracy):
            rows.append(f"{method},{dim},{r},{acc!r}")
        log.info("method=%s d'=%d mean accuracy %.4f", method, dim, report.mean_accuracy)
    atomic_write_text(spec.out, "method,d_prime,repeat,accuracy\n" + "\n".join(rows) + "\n")

    # gnuplot-ready wide table: one row per dimension, one column per method
    table_lines = ["# d_prime " + " ".join(spec.methods)]
    for dim in spec.dims:
        cells = " ".join(f"{means[(m, dim)]:.4f}" for m in spec.methods)
        table_lines.append(f"{dim} {cells}")
    table = "\n".join(table_lines) + "\n"
    table_path = _sibling_path(spec)
    atomic_write_text(table_path, table)
    if not spec.quiet:
        print(table, end="")
        print(f"wrote {spec.out} and {table_path}")


_COMMANDS = {
    "train": _cmd_train,
    "project": _cmd_project,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    try:
        spec = RunSpec.from_argv(sys.argv[1:] if argv is None else argv)
        logging.basicConfig(
            level=logging.WARNING if spec.quiet else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        _COMMANDS[spec.command](spec)
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
