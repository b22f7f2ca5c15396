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
from pathlib import Path

import numpy as np

from nearline.baselines import BaselineConfig
from nearline.evaluate import EvalReport
from nearline.nlp import TrainConfig, TrainedModel

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
        return {
            "method": "nlp",
            "K": config.K,
            "d_prime": config.d_prime,
            "max_iters": config.max_iters,
            "rel_tol": config.rel_tol,
            "eigen_order": config.eigen_order,
            "init": config.init,
            "seed": config.seed,
        }
    if isinstance(config, BaselineConfig):
        return {
            "method": config.method,
            "d_prime": config.d_prime,
            "K": config.K,
            "heat_sigma": config.heat_sigma,
        }
    raise ValueError(f"unsupported config type {type(config).__name__}")


def config_from_dict(payload: dict):
    method = payload.get("method")
    if method == "nlp":
        return TrainConfig(
            K=payload["K"],
            d_prime=payload["d_prime"],
            max_iters=payload["max_iters"],
            rel_tol=payload["rel_tol"],
            eigen_order=payload["eigen_order"],
            init=payload["init"],
            seed=payload["seed"],
        )
    if method in ("pca", "lpp"):
        return BaselineConfig(
            method=method,
            d_prime=payload["d_prime"],
            K=payload.get("K", 5),
            heat_sigma=payload.get("heat_sigma", "auto"),
        )
    raise ValueError(f"unknown method in model file: {method!r}")


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


def save_model(model: TrainedModel, path) -> None:
    atomic_write_text(path, json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n")


def load_model(path) -> TrainedModel:
    """Rebuild a TrainedModel from its JSON file.

    Only the serialized fields are recoverable; iterations_run is inferred
    from the objective trace and the convergence flag is not stored.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema_version: {version!r}")
    d, d_prime = payload["d"], payload["d_prime"]
    columns = payload["projection_columns"]
    if len(columns) != d_prime or any(len(col) != d for col in columns):
        raise ValueError("projection_columns do not match the stated d and d_prime")
    W = np.array(columns, dtype=float).T
    mean = np.array(payload["mean_vector"], dtype=float)
    if mean.shape != (d,):
        raise ValueError(f"mean_vector must have length {d}")
    trace = [float(v) for v in payload["objective_trace"]]
    return TrainedModel(
        projection=W,
        mean_vector=mean,
        config=config_from_dict(payload["train_config"]),
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
