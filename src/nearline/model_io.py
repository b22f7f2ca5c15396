"""Serialization: model files, evaluation reports, and atomic writes.

Model files are single self-describing JSON documents; reports are written
as JSON plus a flat one-row-per-repeat CSV for plotting.  All files go
through a temp-file-and-rename write so interrupted runs never leave
truncated artifacts.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from nearline.baselines import BaselineConfig
from nearline.nlp import TrainConfig, TrainedModel

if TYPE_CHECKING:
    from nearline.evaluate import EvalReport

MODEL_SCHEMA_VERSION = 1


def atomic_write_text(path, text: str) -> None:
    """Write a file via temp-and-rename in the destination directory."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def config_to_dict(config) -> dict:
    if isinstance(config, TrainConfig):
        return {"method": "nlp", **asdict(config)}
    if isinstance(config, BaselineConfig):
        return asdict(config)
    raise ValueError(f"unsupported config type {type(config).__name__}")


def config_from_dict(payload: dict):
    """The config a ``config_to_dict`` payload describes.  Keys that are not
    fields of its class (``method`` of nlp, or ``center``, ``seed``,
    ``heat_sigma``, ``eigen_order`` and ``init`` in older files) are ignored;
    a missing field is an error, except that a baseline's ``K`` takes its
    default."""
    method = payload.get("method")
    if method not in ("nlp", "pca", "lpp"):
        raise ValueError(f"unknown method in model file: {method!r}")
    cls = TrainConfig if method == "nlp" else BaselineConfig
    optional = set() if cls is TrainConfig else {"K"}
    missing = [f.name for f in fields(cls) if f.name not in payload and f.name not in optional]
    if missing:
        raise ValueError(f"train_config lacks the keys {missing}")
    return cls(**{f.name: payload[f.name] for f in fields(cls) if f.name in payload})


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "d": model.d,
        "d_prime": model.d_prime,
        "mean_vector": [float(v) for v in model.mean_vector],
        "projection_columns": [
            [float(v) for v in model.projection[:, c]] for c in range(model.d_prime)
        ],
        "train_config": config_to_dict(model.config),
        "objective_trace": [float(v) for v in model.objective_trace],
    }


def _json_floats(values, depth: int) -> str:
    """A list of floats as ``json.dumps(..., indent=2)`` writes it at this
    nesting depth.  json's C encoder formats the numbers (NaN and the
    infinities included) and only the separators are re-indented, which
    skips the pure-Python encoder ``indent`` selects."""
    flat = json.dumps(np.asarray(values, dtype=float).tolist())
    if flat == "[]":
        return flat
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + flat[1:-1].replace(", ", "," + inner) + "\n" + "  " * depth + "]"


def model_json(model: TrainedModel) -> str:
    r"""The model file's text: ``json.dumps(model_to_dict(model), indent=2,
    sort_keys=True) + "\n"``, byte for byte, with the keys written in sorted
    order and the float arrays formatted by ``_json_floats``."""
    config = json.dumps(config_to_dict(model.config), indent=2, sort_keys=True).replace("\n", "\n  ")
    columns = ",\n    ".join(_json_floats(column, 2) for column in model.projection.T)
    return (
        "{\n"
        f'  "d": {model.d},\n'
        f'  "d_prime": {model.d_prime},\n'
        f'  "mean_vector": {_json_floats(model.mean_vector, 1)},\n'
        f'  "objective_trace": {_json_floats(model.objective_trace, 1)},\n'
        f'  "projection_columns": [\n    {columns}\n  ],\n'
        f'  "schema_version": {MODEL_SCHEMA_VERSION},\n'
        f'  "train_config": {config}\n'
        "}\n"
    )


def save_model(model: TrainedModel, path) -> None:
    atomic_write_text(path, model_json(model))


def load_model(path) -> TrainedModel:
    """Rebuild a TrainedModel from its JSON file.

    Only the serialized fields are recoverable; iterations_run is inferred
    from the objective trace and the convergence flag is not stored.  A file
    of the wrong shape raises ValueError naming the problem.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"model file must hold a JSON object, not {type(payload).__name__}")
    version = payload.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema_version: {version!r}")
    missing = sorted({"d", "d_prime", "mean_vector", "projection_columns", "train_config",
                      "objective_trace"} - payload.keys())
    if missing:
        raise ValueError(f"model file lacks the keys {missing}")
    d, d_prime = payload["d"], payload["d_prime"]
    try:
        columns = payload["projection_columns"]
        if len(columns) != d_prime or any(len(col) != d for col in columns):
            raise ValueError("projection_columns do not match the stated d and d_prime")
        W = np.array(columns, dtype=float).T
        mean = np.array(payload["mean_vector"], dtype=float)
        if mean.shape != (d,):
            raise ValueError(f"mean_vector must have length {d}")
        trace = [float(v) for v in payload["objective_trace"]]
        config = config_from_dict(payload["train_config"])
    except (TypeError, AttributeError) as exc:  # a value of the wrong JSON type
        raise ValueError(f"malformed model file: {exc}") from None
    return TrainedModel(
        projection=W,
        mean_vector=mean,
        config=config,
        objective_trace=trace,
        iterations_run=len(trace),
        converged=False,
    )


def report_to_dict(report: EvalReport) -> dict:
    per_class = report.per_class_accuracy
    return {
        "per_repeat_accuracy": [float(v) for v in report.per_repeat_accuracy],
        "mean_accuracy": float(report.mean_accuracy),
        "std_accuracy": float(report.std_accuracy),
        "method": report.method,
        "config_snapshot": report.config_snapshot,
        "per_class_accuracy": (
            {str(k): float(v) for k, v in per_class.items()} if per_class is not None else None
        ),
    }


def report_json(report: EvalReport) -> str:
    """Canonical JSON text; identical reports serialize byte-identically."""
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2, allow_nan=False) + "\n"


def report_csv(report: EvalReport) -> str:
    lines = ["method,repeat,accuracy"]
    for r, acc in enumerate(report.per_repeat_accuracy):
        lines.append(f"{report.method},{r},{acc!r}")
    return "\n".join(lines) + "\n"


def save_report(report: EvalReport, json_path, csv_path=None) -> None:
    atomic_write_text(json_path, report_json(report))
    if csv_path is not None:
        atomic_write_text(csv_path, report_csv(report))
