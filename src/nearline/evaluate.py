"""Nearest-neighbor and nearest-line classification plus the repeated
random-split evaluation protocol.

Every repeat splits the data, fits each projection on the train split only
(centering statistics included), projects both splits, and classifies each
test sample; each report aggregates one method's per-repeat accuracies.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from nearline.baselines import BaselineConfig, train_lpp, train_pca
from nearline.data import Dataset, SplitSpec, split_indices
from nearline.geometry import project_onto_lines
from nearline.model_io import config_to_dict
from nearline.nlp import TrainConfig, TrainedModel, TrainingSplit, project, train

log = logging.getLogger(__name__)

CLASSIFIERS = ("nn", "nearest_line")
PAIR_SCOPES = ("within_class", "all_pairs")

# Upper bound on the elements of each (queries x candidates x d') temporary
# the classifiers build.  Scoring 200 queries against 400 lines in 20 dims
# takes the same time for budgets from 1 << 10 to 1 << 16; larger budgets
# are slower (the temporaries no longer fit in cache) and use more memory.
CHUNK_ELEMENTS = 1 << 16


class ExperimentError(RuntimeError):
    """A repeat of the evaluation protocol failed; carries the repeat index."""


@dataclass
class EvalReport:
    """Split-averaged classification results of one method."""

    per_repeat_accuracy: list[float]
    mean_accuracy: float
    std_accuracy: float
    method: str
    config_snapshot: dict
    per_class_accuracy: dict[int, float] | None = None


def _query_block(T: np.ndarray, query) -> tuple[np.ndarray, bool]:
    """The query as a (q, d') block, and whether it was a single 1-D query."""
    q = np.asarray(query, dtype=float)
    d = T.shape[1]
    if q.shape == (d,):
        return q[None, :], True
    if q.ndim == 2 and q.shape[1] == d:
        return q, False
    raise ValueError(f"query has shape {q.shape}, expected ({d},) or (q, {d})")


def _chunks(n_queries: int, elements_per_query: int):
    """Row slices of the query block that keep each temporary within
    CHUNK_ELEMENTS elements (one query per chunk at least)."""
    step = max(1, CHUNK_ELEMENTS // max(1, elements_per_query))
    for start in range(0, n_queries, step):
        yield slice(start, start + step)


def classify_1nn(train_projected: np.ndarray, train_labels: np.ndarray, query) -> int | np.ndarray:
    """Label of the training point nearest to the query (squared distance,
    ties to the smaller training index).

    A 1-D query returns an ``int``; a 2-D block with one query per row
    returns an int array, scored in memory-bounded chunks.
    """
    T = np.asarray(train_projected, dtype=float)
    if T.shape[0] == 0:
        raise ValueError("empty training set")
    Q, single = _query_block(T, query)
    nearest = np.empty(Q.shape[0], dtype=int)
    for rows in _chunks(Q.shape[0], T.size):
        diff = T - Q[rows, None, :]
        nearest[rows] = np.argmin(np.einsum("qij,qij->qi", diff, diff), axis=1)
    pred = np.asarray(train_labels)[nearest].astype(int)
    return int(pred[0]) if single else pred


def _candidate_pairs(labels: np.ndarray, pair_scope: str) -> np.ndarray:
    """All candidate (j, k) training pairs, j < k, in lexicographic order."""
    if pair_scope not in PAIR_SCOPES:
        raise ValueError(f"pair_scope must be one of {PAIR_SCOPES}, got {pair_scope!r}")
    if pair_scope == "all_pairs":
        return np.stack(np.triu_indices(labels.shape[0], 1), axis=1)
    classes = [np.flatnonzero(labels == c) for c in np.unique(labels)]
    pairs = np.concatenate([np.empty((0, 2), dtype=int)] + [
        members[np.stack(np.triu_indices(members.size, 1), axis=1)] for members in classes
    ])
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def classify_nearest_line(
    train_projected: np.ndarray,
    train_labels: np.ndarray,
    query,
    pair_scope: str = "within_class",
) -> int | np.ndarray:
    """Label of the training-pair line nearest to the query.

    ``within_class`` restricts candidate lines to pairs sharing a class and
    returns that class; ``all_pairs`` searches every pair and returns the
    label of the pair endpoint nearer to the query.  Degenerate pairs are
    never chosen (their distance counts as infinite); ties go to the
    lexicographically smaller pair.  A 1-D query returns an ``int``; a 2-D
    block with one query per row returns an int array.  The candidate pairs
    are enumerated once per call; their lines are scored in blocks, against
    memory-bounded chunks of the queries, keeping each query's first minimum
    across blocks.
    """
    T = np.asarray(train_projected, dtype=float)
    labels = np.asarray(train_labels)
    Q, single = _query_block(T, query)
    pairs = _candidate_pairs(labels, pair_scope)
    if pairs.shape[0] == 0:
        raise ValueError(f"no candidate pairs for scope {pair_scope!r}")
    best_dist = np.full(Q.shape[0], np.inf)
    best = np.full(Q.shape[0], -1)
    any_line = False
    block = max(1, CHUNK_ELEMENTS // max(1, T.shape[1]))
    for start in range(0, pairs.shape[0], block):
        block_pairs = pairs[start : start + block]
        Pj, Pk = T[block_pairs[:, 0]], T[block_pairs[:, 1]]
        for rows in _chunks(Q.shape[0], Pj.size):
            _, rho, ok = project_onto_lines(Q[rows, None, :], Pj, Pk)
            dist = np.einsum("qij,qij->qi", rho, rho)
            dist[:, ~ok] = np.inf
            any_line = any_line or bool(ok.any())
            first, first_dist = np.argmin(dist, axis=1), np.min(dist, axis=1)
            # strict <: an equal distance in a later block keeps the earlier pair
            better = (first_dist < best_dist[rows]) | (best[rows] < 0)
            best_dist[rows] = np.where(better, first_dist, best_dist[rows])
            best[rows] = np.where(better, start + first, best[rows])
    if not any_line:
        raise ValueError("all candidate pairs are degenerate")
    j, k = pairs[best, 0], pairs[best, 1]
    if pair_scope == "within_class":
        pred = labels[j]
    else:
        dj = np.sum((Q - T[j]) ** 2, axis=1)
        dk = np.sum((Q - T[k]) ** 2, axis=1)
        pred = np.where(dj <= dk, labels[j], labels[k])
    pred = pred.astype(int)
    return int(pred[0]) if single else pred


def fit_method(data: Dataset | TrainingSplit, method_config) -> TrainedModel:
    """Dispatch a training config to its method."""
    if isinstance(method_config, TrainConfig):
        return train(data, method_config)
    if isinstance(method_config, BaselineConfig):
        if method_config.method == "pca":
            return train_pca(data, method_config.d_prime)
        return train_lpp(data, method_config)
    raise ValueError(f"unsupported config type {type(method_config).__name__}")


def method_name(method_config) -> str:
    return "nlp" if isinstance(method_config, TrainConfig) else method_config.method


def run_experiments(
    dataset: Dataset, method_configs: list, split: SplitSpec, classifier: str = "nn"
) -> list[EvalReport]:
    """Repeated random-split evaluation of several methods on the same splits.

    For every repeat: split, center the train split once as a
    ``TrainingSplit`` that every config's fit shares (the centering mean and
    each projection are functions of the train split only), project both
    splits, classify every test sample with the chosen classifier, and
    record the accuracy.  One report per config, in order: the arithmetic
    mean and the population standard deviation over repeats, plus aggregate
    per-class accuracy pooled across all repeats.
    """
    if classifier not in CLASSIFIERS:
        raise ValueError(f"classifier must be one of {CLASSIFIERS}, got {classifier!r}")
    classify = classify_1nn if classifier == "nn" else classify_nearest_line
    test_labels: list[np.ndarray] = []
    hits: list[list[np.ndarray]] = [[] for _ in method_configs]
    for r in range(split.repeats):
        try:
            train_idx, test_idx = split_indices(dataset.labels, split, r)
            # the fits hold only the split's centered copy of the train rows;
            # the raw rows of both sides are gathered once the fits are done
            shared = TrainingSplit(dataset.subset(train_idx))
            models = [fit_method(shared, config) for config in method_configs]
            del shared
            train_ds, test_ds = dataset.subset(train_idx), dataset.subset(test_idx)
            test_labels.append(test_ds.labels)
            for config, model, config_hits in zip(method_configs, models, hits):
                train_y, test_y = project(model, train_ds.features), project(model, test_ds.features)
                config_hits.append(classify(train_y, train_ds.labels, test_y) == test_ds.labels)
                log.debug("repeat %d %s: accuracy %.4f", r, method_name(config), np.mean(config_hits[-1]))
        except Exception as exc:
            raise ExperimentError(f"repeat {r} failed: {exc}") from exc
        del train_ds, test_ds, models  # freed before the next split is built
    labels = np.concatenate(test_labels)
    return [_report(config, labels, config_hits, split, classifier) for config, config_hits in zip(method_configs, hits)]


def _report(method_config, labels: np.ndarray, hits: list, split: SplitSpec, classifier: str) -> EvalReport:
    accuracies = [float(np.mean(h)) for h in hits]
    pooled = np.concatenate(hits)
    per_class = {int(c): int(pooled[labels == c].sum()) / int((labels == c).sum()) for c in np.unique(labels)}
    return EvalReport(
        per_repeat_accuracy=accuracies,
        mean_accuracy=float(np.mean(accuracies)),
        std_accuracy=float(np.std(accuracies)),
        method=method_name(method_config),
        config_snapshot={
            "method_config": config_to_dict(method_config),
            "split": asdict(split),
            "classifier": classifier,
        },
        per_class_accuracy=per_class,
    )


def run_experiment(
    dataset: Dataset,
    method_config,
    split: SplitSpec,
    classifier: str = "nn",
) -> EvalReport:
    """Repeated random-split evaluation of one method (see ``run_experiments``)."""
    return run_experiments(dataset, [method_config], split, classifier)[0]
