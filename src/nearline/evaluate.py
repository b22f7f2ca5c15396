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
from nearline.data import Dataset, SplitSpec, class_groups, split_indices
from nearline.geometry import blocks, line_gaps, nearest_candidates, nearest_rows, project_onto_lines
from nearline.model_io import config_to_dict
from nearline.nlp import TrainConfig, TrainedModel, TrainingSplit, train

log = logging.getLogger(__name__)

CLASSIFIERS = ("nn", "nearest_line")

class ExperimentError(RuntimeError):
    """A repeat of the evaluation protocol failed; the message names the
    repeat and, when a fit or a classification failed, the method and d'."""


@dataclass
class EvalReport:
    """Split-averaged classification results of one method."""

    per_repeat_accuracy: list[float]
    mean_accuracy: float
    std_accuracy: float
    method: str
    config_snapshot: dict
    per_class_accuracy: dict[int, float]


def _query_block(T: np.ndarray, query) -> tuple[np.ndarray, bool]:
    """The query as a (q, d') block, and whether it was a single 1-D query."""
    q = np.asarray(query, dtype=float)
    d = T.shape[1]
    if q.shape == (d,):
        return q[None, :], True
    if q.ndim == 2 and q.shape[1] == d:
        return q, False
    raise ValueError(f"query has shape {q.shape}, expected ({d},) or (q, {d})")


def _train_labels(T: np.ndarray, train_labels) -> np.ndarray:
    """The training labels as an array, one per training row."""
    labels = np.asarray(train_labels)
    if len(labels) != T.shape[0]:
        raise ValueError(f"train_labels has {len(labels)} entries for {T.shape[0]} training rows")
    return labels


def classify_1nn(train_projected: np.ndarray, train_labels: np.ndarray, query) -> int | np.ndarray:
    """Label of the training point nearest to the query (squared distance,
    ties to the smaller training index).

    A 1-D query returns an ``int``; a 2-D block with one query per row
    returns an int array.  Exact (``geometry.nearest_rows``); non-finite rows
    or queries, and a label count other than the row count, raise
    ``ValueError``.
    """
    T = np.asarray(train_projected, dtype=float)
    if T.shape[0] == 0:
        raise ValueError("empty training set")
    labels = _train_labels(T, train_labels)
    Q, single = _query_block(T, query)
    pred = labels[nearest_rows(T, Q)[:, 0]].astype(int)
    return int(pred[0]) if single else pred


def _candidate_pairs(labels: np.ndarray) -> np.ndarray:
    """All same-class (j, k) training pairs, j < k, in lexicographic order.

    A stable sort by label lists each class in index order, so row j pairs
    with the rows after it in its class's run; taking the rows j in index
    order emits the pairs already sorted, in memory linear in the pair count.
    """
    n = labels.shape[0]
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    run_end = np.searchsorted(sorted_labels, sorted_labels, side="right")
    pos = np.empty(n, dtype=int)
    pos[order] = np.arange(n)  # place of each row in the sorted order
    counts = run_end[pos] - pos - 1  # partners after each row in its run
    first = np.cumsum(counts) - counts  # where each row's pairs begin
    partner = np.repeat(pos + 1 - first, counts)
    partner += np.arange(partner.size)
    pairs = np.empty((partner.size, 2), dtype=int)
    pairs[:, 0] = np.repeat(np.arange(n), counts)
    pairs[:, 1] = order[partner]
    return pairs


def _line_screens(T: np.ndarray, Q: np.ndarray, pairs: np.ndarray, t_norms: np.ndarray, q_norms: np.ndarray):
    """Gram-form squared distances from the queries to the pair lines.

    Yields ``(rows, start, screen)``: ``screen[i, p]`` screens query
    ``rows[i]`` against line ``start + p`` as ``|q|^2 + |b|^2 - 2 q.b -
    (q.D - b.D)^2 / |D|^2`` with ``D = a - b``, and is ``+inf`` on
    degenerate lines; ``t_norms`` and ``q_norms`` are the squared row norms.
    Each query row ``(q, 1, |q|^2)`` meets each line's ``(-2 b, |b|^2, 1)``
    and ``(D, -b.D)`` in one matrix product apiece.  The pair blocks, their
    products and each screen hold at most ``geometry.BLOCK_ELEMENTS``
    elements.
    """
    d = T.shape[1]
    rows_q = np.hstack([Q, np.ones((Q.shape[0], 1)), q_norms[:, None]])
    for lines in blocks(pairs.shape[0], d + 2):
        j, k = pairs[lines].T
        B = T[k]
        D, gap_sq, ok = line_gaps(T[j], B)
        to_b = np.hstack([-2.0 * B, t_norms[k, None], np.ones((k.size, 1))])
        along_d = np.hstack([D, -np.einsum("ij,ij->i", B, D)[:, None]])
        inv_gap = np.divide(1.0, gap_sq, out=np.zeros_like(gap_sq), where=ok)
        for rows in blocks(Q.shape[0], k.size):
            along = rows_q[rows, : d + 1] @ along_d.T
            along *= along
            along *= inv_gap
            screen = rows_q[rows] @ to_b.T
            screen -= along
            screen[:, ~ok] = np.inf
            yield rows, lines.start, screen


def classify_nearest_line(train_projected: np.ndarray, train_labels: np.ndarray, query) -> int | np.ndarray:
    """Class of the same-class training-pair line nearest to the query.

    Only pairs sharing a class are candidate lines.  Degenerate pairs are
    never chosen (their distance counts as infinite); ties go to the
    lexicographically smaller pair.  A 1-D query returns an ``int``; a 2-D
    block with one query per row returns an int array.  A label count other
    than the row count raises ``ValueError``.

    Exact: ``geometry.nearest_candidates`` screens the lines with
    ``_line_screens`` and rescores the lines it keeps with
    ``project_onto_lines``, so each query takes its first nearest line in
    pair order, the same line as scoring every pair with the direct form.
    """
    T = np.asarray(train_projected, dtype=float)
    labels = _train_labels(T, train_labels)
    Q, single = _query_block(T, query)
    pairs = _candidate_pairs(labels)
    if pairs.shape[0] == 0:
        raise ValueError("no candidate pairs: no class has two training rows")
    t_norms, q_norms = np.einsum("ij,ij->i", T, T), np.einsum("ij,ij->i", Q, Q)

    def rescore(q, p):
        _, rho, _ = project_onto_lines(Q[q], T[pairs[p, 0]], T[pairs[p, 1]])
        return np.einsum("ij,ij->i", rho, rho)

    screens = _line_screens(T, Q, pairs, t_norms, q_norms)
    best = nearest_candidates(screens, rescore, q_norms + t_norms.max(), T.shape[1])[:, 0]
    pred = labels[pairs[best, 0]].astype(int)
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


def _step(repeat: int, method_config) -> str:
    return f"repeat {repeat}, {method_config.method} d'={method_config.d_prime}"


def run_experiments(
    dataset: Dataset, method_configs: list, split: SplitSpec, classifier: str = "nn"
) -> list[EvalReport]:
    """Repeated random-split evaluation of several methods on the same splits.

    For every repeat: split, gather and center the train rows once as a
    ``TrainingSplit`` that every config's fit shares (the centering mean and
    each projection are functions of the train split only), project both
    splits, classify every test sample with the chosen classifier, and
    record the accuracy.  One report per config, in order: the arithmetic
    mean and the population standard deviation over repeats, plus aggregate
    per-class accuracy pooled across all repeats.

    Only each fit's projection W is kept.  Each side's rows are gathered
    once, centered in place and projected by every W, ``(x - mean) @ W`` as
    in ``project``, then dropped before the next side is gathered;
    classification reads only the projected rows.
    """
    if classifier not in CLASSIFIERS:
        raise ValueError(f"classifier must be one of {CLASSIFIERS}, got {classifier!r}")
    classify = classify_1nn if classifier == "nn" else classify_nearest_line
    test_labels: list[np.ndarray] = []
    hits: list[list[np.ndarray]] = [[] for _ in method_configs]
    for r in range(split.repeats):
        where = f"repeat {r}"  # the step a failure is reported against
        try:
            train_idx, test_idx = split_indices(dataset.labels, split, r)
            shared = TrainingSplit(dataset, train_idx)
            projections = []
            for config in method_configs:
                where = _step(r, config)
                projections.append(fit_method(shared, config).projection)
            where = f"repeat {r}"
            train_projected = [shared.features @ W for W in projections]
            mean = shared.mean_vector
            del shared
            test_x = dataset.features[test_idx]  # 2-D even when a split leaves one test row
            test_x -= mean
            test_projected = [test_x @ W for W in projections]
            del test_x, projections
            train_y, test_y = dataset.labels[train_idx], dataset.labels[test_idx]
            test_labels.append(test_y)
            for config, T, Q, config_hits in zip(method_configs, train_projected, test_projected, hits):
                where = _step(r, config)
                config_hits.append(classify(T, train_y, Q) == test_y)
                log.debug("%s: accuracy %.4f", where, np.mean(config_hits[-1]))
        except Exception as exc:
            raise ExperimentError(f"{where} failed: {exc}") from exc
    labels = np.concatenate(test_labels)
    return [_report(config, labels, config_hits, split, classifier) for config, config_hits in zip(method_configs, hits)]


def _report(method_config, labels: np.ndarray, hits: list, split: SplitSpec, classifier: str) -> EvalReport:
    accuracies = [float(np.mean(h)) for h in hits]
    pooled = np.concatenate(hits)
    classes, by_class = class_groups(labels)
    per_class = {int(c): int(pooled[rows].sum()) / rows.size for c, rows in zip(classes, by_class)}
    return EvalReport(
        per_repeat_accuracy=accuracies,
        mean_accuracy=float(np.mean(accuracies)),
        std_accuracy=float(np.std(accuracies)),
        method=method_config.method,
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
