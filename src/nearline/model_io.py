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
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from nearline.baselines import BaselineConfig
from nearline.nlp import TrainConfig, TrainedModel

if TYPE_CHECKING:
    from nearline.evaluate import EvalReport

MODEL_SCHEMA_VERSION = 1


@contextmanager
def atomic_open(path):
    """A text handle on a temp file in the destination directory, renamed
    over ``path`` when the block completes and removed if it raises."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write a file via temp-and-rename in the destination directory."""
    with atomic_open(path) as fh:
        fh.write(text)


def config_to_dict(config) -> dict:
    if not isinstance(config, (TrainConfig, BaselineConfig)):
        raise ValueError(f"unsupported config type {type(config).__name__}")
    return {"method": config.method, **asdict(config)}


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
    """The model file's payload (see ``save_model``)."""
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "d": model.d,
        "d_prime": model.d_prime,
        "mean_vector": model.mean_vector.tolist(),
        "projection_columns": model.projection.T.tolist(),
        "train_config": config_to_dict(model.config),
        "objective_trace": [float(v) for v in model.objective_trace],
    }


def save_model(model: TrainedModel, path) -> None:
    """Write ``json.dumps(model_to_dict(model), sort_keys=True)`` and a
    newline: one line of compact JSON, every float in its round-trip
    ``repr``.  The projection columns are encoded one at a time and spliced
    in where ``projection_columns`` sorts, just before ``schema_version``:
    json's C encoder holds a string for every float it encodes until it
    returns, so one call over a 2576 x 10 model peaks at 3.7 MiB, against
    1.2 MiB written this way."""
    payload = model_to_dict(model)
    columns = payload.pop("projection_columns")
    head, tail = json.dumps(payload, sort_keys=True).split(', "schema_version": ')
    with atomic_open(path) as fh:
        fh.write(head + ', "projection_columns": [')
        for c, column in enumerate(columns):
            fh.write((", " if c else "") + json.dumps(column))
        fh.write('], "schema_version": ' + tail + "\n")


def load_model(path) -> TrainedModel:
    """Rebuild a TrainedModel from its JSON file.

    Only the serialized fields are recoverable.  The convergence flag is not
    stored: a PCA or LPP model, a closed-form fit, loads converged, and an
    nlp model loads with ``converged=False``.  A file of the wrong shape
    raises ValueError naming the problem.
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
        converged=not isinstance(config, TrainConfig),
    )


def report_to_dict(report: EvalReport) -> dict:
    return {
        "per_repeat_accuracy": [float(v) for v in report.per_repeat_accuracy],
        "mean_accuracy": float(report.mean_accuracy),
        "std_accuracy": float(report.std_accuracy),
        "method": report.method,
        "config_snapshot": report.config_snapshot,
        "per_class_accuracy": {str(k): float(v) for k, v in report.per_class_accuracy.items()},
    }


def report_json(report: EvalReport) -> str:
    """Canonical JSON text; identical reports serialize byte-identically."""
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2, allow_nan=False) + "\n"


def report_csv(report: EvalReport) -> str:
    lines = ["method,repeat,accuracy"]
    for r, acc in enumerate(report.per_repeat_accuracy):
        lines.append(f"{report.method},{r},{acc!r}")
    return "\n".join(lines) + "\n"


def save_report(report: EvalReport, json_path, csv_path) -> None:
    atomic_write_text(json_path, report_json(report))
    atomic_write_text(csv_path, report_csv(report))
