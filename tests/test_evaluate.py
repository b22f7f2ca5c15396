import dataclasses
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gapped_labels
from nearline import evaluate, geometry
from nearline.baselines import BaselineConfig, train_pca
from nearline.data import Dataset, SplitSpec, split_indices
from nearline.evaluate import (
    ExperimentError,
    classify_1nn,
    classify_nearest_line,
    fit_method,
    run_experiment,
    run_experiments,
)
from nearline.geometry import DEGENERACY_RTOL, DegenerateLineError, point_line_sqdist, project_onto_lines
from nearline.model_io import report_json
from nearline.nlp import TrainConfig, TrainingSplit, k_nearest_neighbors, project, train
from nearline.synthetic import gaussian_blobs, manifold_classes, separable_clusters


def exhaustive_1nn(train, labels, query):
    best, best_d = None, np.inf
    for i, row in enumerate(train):
        d = float(np.sum((row - query) ** 2))
        if d < best_d:
            best, best_d = labels[i], d
    return int(best)


def exhaustive_nearest_line(train, labels, query):
    best_label, best_d = None, np.inf
    for j, k in itertools.combinations(range(len(train)), 2):
        if labels[j] != labels[k]:
            continue
        try:
            d = point_line_sqdist(query, train[j], train[k])
        except DegenerateLineError:
            continue
        if d < best_d:
            best_d, best_label = d, int(labels[j])
    if best_label is None:
        raise ValueError("no valid pairs")
    return best_label


def triu_candidate_pairs(labels):
    """Candidate pairs from one ``triu_indices`` per class, sorted by
    ``lexsort``: the oracle for the classifier's linear-memory enumeration."""
    classes = [np.flatnonzero(labels == c) for c in np.unique(labels)]
    pairs = np.concatenate([np.empty((0, 2), dtype=int)] + [
        members[np.stack(np.triu_indices(members.size, 1), axis=1)] for members in classes
    ])
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def direct_1nn(train, labels, queries):
    """1-NN labels from the direct ``sum((t - q)^2)`` to every training row,
    each query taking its first minimum in row order: the oracle for the
    screened 1-NN."""
    return np.array([labels[np.argmin(np.sum((train - q) ** 2, axis=1))] for q in queries], dtype=int)


def direct_classify(train, labels, queries, classifier, budget):
    if classifier == "nn":
        return direct_1nn(train, labels, queries)
    return direct_nearest_line(train, labels, queries, budget)


def classify(train, labels, queries, classifier):
    if classifier == "nn":
        return classify_1nn(train, labels, queries)
    return classify_nearest_line(train, labels, queries)


def direct_nearest_line(train, labels, queries, budget):
    """Nearest-line labels from the direct residual of every (query, line)
    pair, scored in pair blocks and query chunks of at most ``budget``
    elements per (queries x lines x d') temporary, each query keeping its
    first minimum in pair order: the oracle for the screened classifier."""
    pairs = triu_candidate_pairs(labels)
    if pairs.shape[0] == 0:
        raise ValueError("no candidate pairs")
    best_dist = np.full(len(queries), np.inf)
    best = np.full(len(queries), -1)
    any_line = False
    block = max(1, budget // train.shape[1])
    for start in range(0, pairs.shape[0], block):
        Pj, Pk = train[pairs[start : start + block, 0]], train[pairs[start : start + block, 1]]
        step = max(1, budget // Pj.size)
        for first_row in range(0, len(queries), step):
            rows = slice(first_row, first_row + step)
            _, rho, ok = project_onto_lines(queries[rows, None, :], Pj, Pk)
            dist = np.einsum("qij,qij->qi", rho, rho)
            dist[:, ~ok] = np.inf
            any_line = any_line or bool(ok.any())
            first, first_dist = np.argmin(dist, axis=1), np.min(dist, axis=1)
            better = (first_dist < best_dist[rows]) | (best[rows] < 0)
            best_dist[rows] = np.where(better, first_dist, best_dist[rows])
            best[rows] = np.where(better, start + first, best[rows])
    if not any_line:
        raise ValueError("all candidate pairs are degenerate")
    return labels[pairs[best, 0]].astype(int)


class TestClassify1nn:
    def test_nearer_point_wins(self):
        train = np.array([[0.0], [10.0]])
        labels = np.array([7, 9])
        assert classify_1nn(train, labels, np.array([1.0])) == 7

    def test_exact_match_returns_its_label(self):
        train = np.array([[0.0, 0.0], [3.0, 4.0]])
        labels = np.array([1, 2])
        assert classify_1nn(train, labels, np.array([3.0, 4.0])) == 2

    def test_tie_prefers_smaller_index(self):
        train = np.array([[1.0], [-1.0]])
        labels = np.array([5, 6])
        assert classify_1nn(train, labels, np.array([0.0])) == 5

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        train = rng.normal(size=(40, 4))
        labels = rng.integers(0, 5, size=40)
        for _ in range(200):
            q = rng.normal(size=4)
            assert classify_1nn(train, labels, q) == exhaustive_1nn(train, labels, q)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            classify_1nn(np.empty((0, 2)), np.empty(0, dtype=int), np.zeros(2))


class TestClassifyNearestLine:
    def test_two_line_geometry(self):
        train = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 5.0], [2.0, 5.0]])
        labels = np.array([0, 0, 1, 1])
        assert classify_nearest_line(train, labels, np.array([1.0, 1.0])) == 0

    def test_query_on_class_line(self):
        train = np.array([[0.0, 0.0], [2.0, 2.0], [0.0, 9.0], [2.0, 9.0]])
        labels = np.array([0, 0, 1, 1])
        assert classify_nearest_line(train, labels, np.array([5.0, 5.0])) == 0

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(4, 9))
            d = int(rng.integers(2, 4))
            train = rng.normal(size=(n, d))
            labels = rng.integers(0, 3, size=n)
            if max(np.bincount(labels)) < 2:
                continue
            q = rng.normal(size=d)
            assert classify_nearest_line(train, labels, q) == exhaustive_nearest_line(train, labels, q)

    def test_no_valid_pairs_rejected(self):
        train = np.array([[0.0], [1.0], [2.0]])
        labels = np.array([0, 1, 2])  # singleton classes: no within-class pair
        with pytest.raises(ValueError, match="no candidate pairs"):
            classify_nearest_line(train, labels, np.array([0.5]))

    def test_degenerate_pairs_skipped(self):
        train = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [2.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        # class 0's only pair is coincident; class 1's line along the x axis wins
        assert classify_nearest_line(train, labels, np.array([1.0, 0.1])) == 1

    def test_all_degenerate_rejected(self):
        train = np.array([[1.0, 1.0], [1.0, 1.0]])
        labels = np.array([0, 0])
        with pytest.raises(ValueError, match="degenerate"):
            classify_nearest_line(train, labels, np.array([0.0, 0.0]))

    def test_non_finite_distances_rejected(self):
        train = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [1.0, 3.0]])
        labels = np.array([0, 0, 1, 1])
        for queries in (np.array([np.nan, 0.0]), np.array([[0.0, 0.1], [np.inf, 0.0]]), np.array([-np.inf, 0.0])):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
                classify_nearest_line(train, labels, queries)
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
                classify_1nn(train, labels, queries)
        for query in ([np.nan, 0.0], [np.inf, 0.0]):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
                classify_1nn(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([3, 4]), np.array(query))
        for bad in (np.nan, np.inf):
            rows = train.copy()
            rows[2, 1] = bad
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
                classify_1nn(rows, labels, np.zeros(2))
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
                k_nearest_neighbors(rows, 2)

    def test_overflowing_distances_are_named(self):
        # finite rows whose squared distances overflow: the screen's products
        # overflow to inf and inf - inf, so numpy warns before the search raises
        rows = np.random.default_rng(0).normal(size=(6, 4)) * 1e155
        overflow = "non-finite distances: .* squared distances overflow"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=overflow):
                train(Dataset(rows, np.zeros(6, dtype=int)), TrainConfig(K=2, d_prime=2))
            with pytest.raises(ValueError, match=overflow):
                classify_1nn(rows, np.arange(6), rows[:2] / 2)


def _oracle_is_decided(dists, keys, outcomes) -> bool:
    """True when last-bit rounding cannot change the oracle's answer: every
    candidate within 1e-9 (relative) of the best gives the same answer, or
    every such candidate is the same geometry (duplicated rows), so it ties
    exactly in any arithmetic and the order tie-break decides."""
    best = min(dists)
    near = [i for i, d in enumerate(dists) if d <= best * (1 + 1e-9) + 1e-12]
    return len({outcomes[i] for i in near}) == 1 or len({keys[i] for i in near}) == 1


def _1nn_is_decided(train, labels, q) -> bool:
    dists = [float(np.sum((row - q) ** 2)) for row in train]
    return _oracle_is_decided(dists, [row.tobytes() for row in train], list(labels))


def _nearest_line_is_decided(train, labels, q) -> bool:
    dists, keys, outcomes = [], [], []
    for j, k in itertools.combinations(range(len(train)), 2):
        if labels[j] != labels[k]:
            continue
        try:
            dists.append(point_line_sqdist(q, train[j], train[k]))
        except DegenerateLineError:
            continue
        keys.append((train[j].tobytes(), train[k].tobytes()))
        outcomes.append(int(labels[j]))
    return _oracle_is_decided(dists, keys, outcomes)


@st.composite
def classify_problems(draw):
    """Small training sets with duplicated rows (degenerate pairs), singleton
    classes and, on the quarter grid, exact distance ties; plus a query block
    and a chunk budget small enough that chunks end mid-block."""
    on_grid = draw(st.booleans())
    if on_grid:
        coord = st.integers(-12, 12).map(lambda v: v / 4)
    else:
        coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    d = draw(st.integers(1, 4))
    row = st.lists(coord, min_size=d, max_size=d)
    distinct = draw(st.lists(row, min_size=1, max_size=6))
    n = draw(st.integers(2, 9))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    train = np.array([distinct[i] for i in picks], dtype=float)
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    queries = np.array(draw(st.lists(row, min_size=1, max_size=12)), dtype=float).reshape(-1, d)
    budget = draw(st.integers(1, 200))
    return train, labels, queries, budget, on_grid


@st.composite
def cancelling_problems(draw):
    """Rows 1e6 to 1e8 from the origin that differ by small integers, so the
    Gram screen cancels most of its digits while the direct form stays
    accurate; duplicated rows (degenerate pairs and exact ties), and partner
    rows whose gap sits at the degeneracy threshold."""
    d = draw(st.integers(1, 4))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d))
    base = draw(st.sampled_from([1e6, 1e7, 1e8])) * np.array(signs)
    spread = draw(st.sampled_from([3, 30, 300, 3000]))
    deviation = st.lists(st.integers(-spread, spread), min_size=d, max_size=d)
    distinct = [base + np.array(v) for v in draw(st.lists(deviation, min_size=1, max_size=5))]
    for b in distinct[: draw(st.integers(0, 2))]:
        a = b.copy()
        gap = np.ceil(np.sqrt(DEGENERACY_RTOL * float(b @ b))) + draw(st.integers(-1, 1))
        a[draw(st.integers(0, d - 1))] += gap
        distinct.append(a)
    n = draw(st.integers(2, 10))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    train = np.array([distinct[i] for i in picks])
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    queries = base + np.array(draw(st.lists(deviation, min_size=1, max_size=12)), dtype=float).reshape(-1, d)
    return train, labels, queries, draw(st.integers(1, 200))


@st.composite
def exact_problems(draw):
    """Rows on {0, 1}^d with d <= 2 and integer queries: every line gap
    |a - b|^2 is 0, 1 or 2, so the screen and the direct form are both exact
    and duplicated rows tie exactly."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(2, 9))
    train = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d), min_size=n, max_size=n)), dtype=float)
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    queries = np.array(draw(st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d), min_size=1, max_size=12)), dtype=float)
    return train, labels, queries, draw(st.integers(1, 200))


labels_lists = st.one_of(
    # unsorted, non-contiguous class ids, with singleton classes
    st.lists(st.integers(0, 6).map(lambda c: 7 * c + 3), min_size=0, max_size=40),
    # one class
    st.integers(1, 30).map(lambda n: [5] * n),
)


class TestBatchedClassifiers:
    @given(classify_problems())
    @settings(deadline=None, max_examples=150)
    def test_1nn_block_matches_single_queries_and_oracle(self, problem):
        train, labels, queries, budget, on_grid = problem
        with mock.patch.object(geometry, "BLOCK_ELEMENTS", budget):
            block = classify_1nn(train, labels, queries)
            singles = [classify_1nn(train, labels, q) for q in queries]
        assert all(type(s) is int for s in singles)
        assert block.shape == (len(queries),) and np.issubdtype(block.dtype, np.integer)
        assert block.tolist() == singles
        if on_grid:
            for q, got in zip(queries, singles):
                if _1nn_is_decided(train, labels, q):
                    assert got == exhaustive_1nn(train, labels, q)

    @given(classify_problems())
    @settings(deadline=None, max_examples=150)
    def test_nearest_line_block_matches_single_queries_and_oracle(self, problem):
        train, labels, queries, budget, on_grid = problem
        with mock.patch.object(geometry, "BLOCK_ELEMENTS", budget):
            try:
                block = classify_nearest_line(train, labels, queries)
            except ValueError:
                # no candidate pair, or only degenerate ones: every query fails alike
                for q in queries:
                    with pytest.raises(ValueError):
                        classify_nearest_line(train, labels, q)
                if on_grid:
                    with pytest.raises(ValueError):
                        exhaustive_nearest_line(train, labels, queries[0])
                return
            singles = [classify_nearest_line(train, labels, q) for q in queries]
        assert all(type(s) is int for s in singles)
        assert block.shape == (len(queries),) and np.issubdtype(block.dtype, np.integer)
        assert block.tolist() == singles
        if on_grid:
            for q, got in zip(queries, singles):
                if _nearest_line_is_decided(train, labels, q):
                    assert got == exhaustive_nearest_line(train, labels, q)

    @given(classify_problems())
    @settings(deadline=None, max_examples=150)
    def test_nearest_line_pair_blocks_match_one_block(self, problem):
        # with a budget below d' every pair is its own block, so exact ties
        # between duplicated rows fall across block edges
        train, labels, queries, budget, _ = problem
        try:
            whole = classify_nearest_line(train, labels, queries)
        except ValueError:
            return
        with mock.patch.object(geometry, "BLOCK_ELEMENTS", budget):
            blocked = classify_nearest_line(train, labels, queries)
        assert blocked.tolist() == whole.tolist()

    @given(labels_lists)
    @settings(deadline=None, max_examples=150)
    def test_candidate_pairs_match_per_class_enumeration(self, labels):
        labels = np.array(labels, dtype=np.int64)
        got = evaluate._candidate_pairs(labels)
        want = triu_candidate_pairs(labels)
        assert got.shape == want.shape and np.array_equal(got, want)

    def test_candidate_pairs_memory_is_linear_in_pairs(self):
        # 5000 rows in 1000 classes of 5 give 10 000 pairs (160 kB); an
        # n x n label mask alone would take 25 MB
        labels = np.random.default_rng(5).permutation(np.repeat(np.arange(1000), 5))
        tracemalloc.start()
        try:
            pairs = evaluate._candidate_pairs(labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pairs.shape == (10_000, 2)
        assert peak < 2**20

    @given(cancelling_problems(), st.sampled_from(["nearest_line", "nn"]))
    @settings(deadline=None, max_examples=450)
    def test_screen_matches_direct_scoring_where_it_cancels(self, problem, classifier):
        train, labels, queries, budget = problem
        with mock.patch.object(geometry, "BLOCK_ELEMENTS", budget):
            try:
                got = classify(train, labels, queries, classifier)
            except ValueError:
                with pytest.raises(ValueError):
                    direct_classify(train, labels, queries, classifier, budget)
                return
        assert got.tolist() == direct_classify(train, labels, queries, classifier, budget).tolist()

    @given(exact_problems(), st.sampled_from(["nearest_line", "nn"]))
    @settings(deadline=None, max_examples=225)
    def test_exact_screens_need_no_slack(self, problem, classifier):
        # the screen's minimum equals every exactly tied candidate's
        # distance, so with no slack the keep test must still keep them all
        train, labels, queries, budget = problem
        with mock.patch.object(geometry, "BLOCK_ELEMENTS", budget), mock.patch.object(geometry, "SCREEN_SLACK", 0):
            try:
                got = classify(train, labels, queries, classifier)
            except ValueError:
                with pytest.raises(ValueError):
                    direct_classify(train, labels, queries, classifier, budget)
                return
        assert got.tolist() == direct_classify(train, labels, queries, classifier, budget).tolist()

    def test_exact_ties_follow_the_documented_order(self):
        # class 5's line y = 1 and class 4's line y = -1 are both exactly 1
        # from the query; the lexicographically smaller pair, (0, 1), wins
        train = np.array([[0.0, 1.0], [1.0, 1.0], [0.0, -1.0], [1.0, -1.0]])
        labels = np.array([5, 5, 4, 4])
        queries = np.array([[0.5, 0.0], [-3.0, 0.0]])
        assert classify_nearest_line(train, labels, queries).tolist() == [5, 5]
        assert classify_nearest_line(train, labels, queries[0]) == 5
        # all four rows are equidistant from the first query and rows 0 and 2
        # from the second; the smaller index wins
        assert classify_1nn(train, labels, queries).tolist() == [5, 5]

    def test_empty_query_block_gives_no_labels(self):
        train = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
        labels = np.array([0, 0, 1])
        for classify_block in (classify_1nn, classify_nearest_line):
            preds = classify_block(train, labels, np.empty((0, 2)))
            assert preds.shape == (0,) and np.issubdtype(preds.dtype, np.integer)

    def test_query_shape_checked(self):
        train = np.zeros((3, 2))
        labels = np.array([0, 0, 1])
        for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((1, 1, 2))):
            with pytest.raises(ValueError, match="query has shape"):
                classify_1nn(train, labels, bad)
            with pytest.raises(ValueError, match="query has shape"):
                classify_nearest_line(train, labels, bad)

    def test_label_count_must_match_training_rows(self):
        # too long, 1-NN used to return labels of rows that do not exist;
        # too short, the nearest-line rule never saw the last row
        train = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [1.0, 3.0]])
        queries = np.array([[0.5, 0.1], [0.5, 2.9]])
        for labels in (np.array([0, 0, 1, 1, 2, 2]), np.array([0, 0, 1])):
            for classify in (classify_1nn, classify_nearest_line):
                with pytest.raises(ValueError, match=f"train_labels has {labels.size} entries for 4 training rows"):
                    classify(train, labels, queries)

    def test_nearest_line_memory_is_bounded(self):
        # 2000 queries x 400 within-class lines x 20 dims would be 128 MB
        # per temporary unchunked; the chunks keep each one at 0.5 MB
        rng = np.random.default_rng(0)
        train = rng.normal(size=(200, 20))
        labels = np.repeat(np.arange(40), 5)
        queries = rng.normal(size=(2000, 20))
        tracemalloc.start()
        try:
            preds = classify_nearest_line(train, labels, queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert preds.shape == (2000,)
        assert peak < 8 * 2**20

    def test_all_pairs_memory_is_bounded(self):
        # 600 rows in 2 classes give 89 700 candidate lines; one (queries x
        # lines x d') residual for them all would take 274 MiB, the pair
        # blocks keep each temporary at 0.5 MB
        rng = np.random.default_rng(1)
        train = rng.normal(size=(600, 20))
        labels = rng.permutation(np.repeat([0, 1], 300))
        queries = rng.normal(size=(20, 20))
        tracemalloc.start()
        try:
            preds = classify_nearest_line(train, labels, queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert preds.shape == (20,)
        assert peak < 16 * 2**20

    def test_one_classifier_call_per_repeat(self):
        ds = separable_clusters(seed=9)
        split = SplitSpec(train_fraction=0.5, seed=13, repeats=3)
        for classifier, name in (("nn", "classify_1nn"), ("nearest_line", "classify_nearest_line")):
            with mock.patch.object(evaluate, name, wraps=getattr(evaluate, name)) as spy:
                run_experiment(ds, BaselineConfig("pca", 2), split, classifier)
            assert spy.call_count == split.repeats
            assert all(call.args[2].ndim == 2 for call in spy.call_args_list)


class TestRunExperiment:
    def test_separable_data_reaches_perfect_accuracy(self):
        ds = separable_clusters(seed=3)
        split = SplitSpec(train_fraction=0.5, seed=11, repeats=10)
        for cfg in (
            TrainConfig(K=3, d_prime=2),
            BaselineConfig("pca", 2),
            BaselineConfig("lpp", 2, K=3),
        ):
            report = run_experiment(ds, cfg, split)
            assert report.mean_accuracy == 1.0
            assert report.std_accuracy == 0.0

    def test_shuffled_labels_sit_at_chance(self):
        rng = np.random.default_rng(23)
        ds = gaussian_blobs(n_per_class=40, n_classes=5, d=12, separation=8.0, seed=4)
        shuffled = Dataset(ds.features, rng.permutation(ds.labels))
        split = SplitSpec(train_fraction=0.5, seed=9, repeats=10)
        report = run_experiment(shuffled, BaselineConfig("pca", 3), split)
        assert 0.1 <= report.mean_accuracy <= 0.35

    def test_reports_are_deterministic(self):
        ds = gaussian_blobs(n_per_class=15, n_classes=3, d=10, seed=5)
        split = SplitSpec(train_fraction=0.6, seed=21, repeats=5)
        cfg = TrainConfig(K=4, d_prime=3)
        a = run_experiment(ds, cfg, split)
        b = run_experiment(ds, cfg, split)
        assert report_json(a) == report_json(b)

    def test_report_statistics_recompute(self):
        ds = gaussian_blobs(n_per_class=15, n_classes=3, d=10, seed=6)
        split = SplitSpec(train_fraction=0.6, seed=2, repeats=7)
        report = run_experiment(ds, BaselineConfig("pca", 3), split)
        accs = np.array(report.per_repeat_accuracy)
        assert len(accs) == split.repeats
        assert ((0.0 <= accs) & (accs <= 1.0)).all()
        assert report.mean_accuracy == pytest.approx(float(accs.mean()), abs=1e-12)
        assert report.std_accuracy == pytest.approx(float(accs.std()), abs=1e-12)
        assert report.method == "pca"
        for acc in report.per_class_accuracy.values():
            assert 0.0 <= acc <= 1.0

    @given(gapped_labels(), st.data())
    @settings(deadline=None, max_examples=200)
    def test_per_class_accuracy_matches_per_class_masks(self, labels, draw):
        pooled = np.array(draw.draw(st.lists(st.booleans(), min_size=labels.size, max_size=labels.size)))
        cuts = draw.draw(st.lists(st.integers(1, labels.size), unique=True, max_size=3))
        hits = np.split(pooled, sorted(c for c in cuts if c < labels.size))  # one per repeat
        split = SplitSpec(train_fraction=0.5, seed=0, repeats=len(hits))
        report = evaluate._report(BaselineConfig("pca", 2), labels, hits, split, "nn")
        want = {int(c): int(pooled[labels == c].sum()) / int((labels == c).sum()) for c in np.unique(labels)}
        assert list(report.per_class_accuracy.items()) == list(want.items())

    def test_failing_repeat_reports_index(self):
        ds = gaussian_blobs(n_per_class=4, n_classes=2, d=10, seed=7)
        split = SplitSpec(train_fraction=0.5, seed=3, repeats=2)
        # PCA d_prime exceeds d = 10, so the first repeat fails
        with pytest.raises(ExperimentError, match="repeat 0"):
            run_experiment(ds, BaselineConfig("pca", 11), split)

    def test_unsupported_config_type_rejected(self):
        ds = gaussian_blobs(n_per_class=4, n_classes=2, d=5, seed=8)
        with pytest.raises(ValueError, match="unsupported config type SplitSpec"):
            fit_method(ds, SplitSpec(0.5, 0))

    def test_unknown_classifier_rejected(self):
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=5, seed=8)
        with pytest.raises(ValueError, match="classifier"):
            run_experiment(ds, BaselineConfig("pca", 2), SplitSpec(0.5, 1), "svm")

    @pytest.mark.parametrize("classifier", evaluate.CLASSIFIERS)
    def test_split_may_leave_one_test_row(self, classifier):
        # 9 rows in 3 classes at 0.85 keep 8 rows for training and test 1
        ds = separable_clusters(n_per_class=3, n_classes=3, seed=4)
        split = SplitSpec(0.85, 0, 1)
        train_idx, test_idx = split_indices(ds.labels, split, 0)
        assert (train_idx.size, test_idx.size) == (8, 1)
        configs = [TrainConfig(K=2, d_prime=2), BaselineConfig("pca", 2)]
        for report in run_experiments(ds, configs, split, classifier):
            assert report.per_repeat_accuracy == [1.0]
            assert list(report.per_class_accuracy.values()) == [1.0]

    def test_nearest_line_classifier_path(self):
        ds = separable_clusters(seed=9)
        split = SplitSpec(train_fraction=0.5, seed=13, repeats=3)
        report = run_experiment(ds, BaselineConfig("pca", 2), split, "nearest_line")
        assert report.mean_accuracy == 1.0

    def test_no_leakage_model_depends_on_train_split_only(self):
        from nearline.evaluate import fit_method

        ds = gaussian_blobs(n_per_class=12, n_classes=3, d=8, seed=10)
        split = SplitSpec(train_fraction=0.5, seed=31, repeats=4)
        cfg = TrainConfig(K=3, d_prime=2)
        report = run_experiment(ds, cfg, split)
        for r in range(split.repeats):
            train_idx, test_idx = split_indices(ds.labels, split, r)
            # corrupt every test row; the fitted model must not change
            corrupted = np.array(ds.features)
            corrupted[test_idx] *= 1000.0
            corrupted[test_idx] += 17.0
            ds2 = Dataset(corrupted, ds.labels)
            model_clean = fit_method(ds.subset(train_idx), cfg)
            model_corrupt = fit_method(ds2.subset(train_idx), cfg)
            assert np.array_equal(model_clean.projection, model_corrupt.projection)
            assert np.array_equal(model_clean.mean_vector, model_corrupt.mean_vector)


class TestRunExperiments:
    # rank 7 in d = 20 (noise is added before the embedding), so d' = 9
    # exceeds the rank of every training split
    DATA = dict(n_per_class=12, ambient_dim=20, seed=4)
    SPLIT = SplitSpec(train_fraction=0.5, seed=17, repeats=3)

    def configs(self):
        return [
            config
            for d_prime in (2, 9)
            for K in (3, 5)
            for config in (
                TrainConfig(K=K, d_prime=d_prime, max_iters=6),
                BaselineConfig("pca", d_prime),
                BaselineConfig("lpp", d_prime, K=K),
            )
        ]

    def test_equals_one_run_per_config(self):
        ds = manifold_classes(**self.DATA)
        assert np.linalg.matrix_rank(ds.features - ds.features.mean(axis=0)) < 9
        configs = self.configs()
        batch = run_experiments(ds, configs, self.SPLIT)
        assert len(batch) == len(configs)
        for config, report in zip(configs, batch):
            single = run_experiment(ds, config, self.SPLIT)
            for field in dataclasses.fields(report):
                assert getattr(report, field.name) == getattr(single, field.name), field.name

    def test_one_row_space_per_repeat_and_one_search_per_k(self, split_work_spies):
        rs, knn = split_work_spies
        run_experiments(manifold_classes(**self.DATA), self.configs(), self.SPLIT)
        assert (rs.call_count, knn.call_count) == (self.SPLIT.repeats, 2 * self.SPLIT.repeats)

    def test_pca_dims_share_one_eigh_and_no_svd_and_search_no_neighbors(self, split_work_spies):
        rs, knn = split_work_spies
        pca_only = [BaselineConfig("pca", 2), BaselineConfig("pca", 5)]
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
                mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            run_experiments(manifold_classes(**self.DATA), pca_only, self.SPLIT)
        repeats = self.SPLIT.repeats
        assert (eigh.call_count, svd.call_count, rs.call_count, knn.call_count) == (repeats, 0, repeats, 0)

    @pytest.mark.parametrize("classifier", evaluate.CLASSIFIERS)
    @pytest.mark.parametrize(
        "ds, split",
        [
            (gaussian_blobs(n_per_class=10, n_classes=3, d=8, seed=12), SplitSpec(0.5, 5, 3)),
            # 9 rows in 3 classes at 0.85 keep 8 rows for training and test 1
            (separable_clusters(n_per_class=3, n_classes=3, seed=4), SplitSpec(0.85, 0, 2)),
        ],
        ids=["blobs", "one-test-row"],
    )
    def test_hits_match_a_loop_over_the_public_pieces(self, ds, split, classifier):
        """Each repeat's classifier inputs and hits equal those of a loop
        that fits every config on ``TrainingSplit(dataset.subset(train_idx))``
        and projects both sides with ``project``."""
        configs = [TrainConfig(K=4, d_prime=3, max_iters=4), BaselineConfig("pca", 3), BaselineConfig("lpp", 3, K=4)]
        name = "classify_1nn" if classifier == "nn" else "classify_nearest_line"
        classify_rows = getattr(evaluate, name)
        calls = []

        def spy(T, labels, Q):
            calls.append((T, labels, Q))
            return classify_rows(T, labels, Q)

        with mock.patch.object(evaluate, name, spy):
            reports = run_experiments(ds, configs, split, classifier)
        want_calls, want_accuracy = [], [[] for _ in configs]
        for r in range(split.repeats):
            train_idx, test_idx = split_indices(ds.labels, split, r)
            train = ds.subset(train_idx)
            shared = TrainingSplit(train)
            for config, accuracy in zip(configs, want_accuracy):
                model = evaluate.fit_method(shared, config)
                T, Q = project(model, train.features), project(model, ds.features[test_idx])
                want_calls.append((T, train.labels, Q))
                accuracy.append(float(np.mean(classify_rows(T, train.labels, Q) == ds.labels[test_idx])))
        assert len(calls) == len(want_calls)
        for got, want in zip(calls, want_calls):
            for got_array, want_array in zip(got, want):
                assert got_array.dtype == want_array.dtype and np.array_equal(got_array, want_array)
        assert [report.per_repeat_accuracy for report in reports] == want_accuracy

    @pytest.mark.parametrize("classifier", evaluate.CLASSIFIERS)
    @pytest.mark.parametrize(
        "configs",
        [[BaselineConfig("pca", 5)], [TrainConfig(K=5, d_prime=5, max_iters=3), BaselineConfig("pca", 5)]],
        ids=["pca", "nlp+pca"],
    )
    def test_a_repeat_holds_one_side_of_rows_at_a_time(self, configs, classifier):
        """n = 120 rows of d = 5000 in 10 classes, split 0.5, 2 repeats: one
        side of a split is n/2 x d floats, 60 * 5000 * 8 B = 2.4 MB.

        A repeat gathers the train rows once and centers them in place as the
        split the fits share; it gathers and centers the test rows only once
        the split is dropped, so one side (1 copy) is alive at a time.  Beside
        it a fit holds at most the nlp scatter's three gathered blocks of 600
        lines x r = 59 coordinates (0.28 MB each, 0.35 copies) with n x n
        Gram pieces (29 KB each), or a lift's d x d' arrays (0.2 MB each, at
        most three beside the models already fitted).  The classifiers read
        only the (rows x d') projections.  The peak is about 1.55 copies,
        under 2 (4.8 MB).  Gathering the train rows again beside the test rows
        and ``project``'s centered temporary holds 3.1 copies.
        """
        n, d = 120, 5000
        ds = Dataset(np.random.default_rng(16).normal(size=(n, d)), np.repeat(np.arange(10), n // 10))
        side = n // 2 * d * 8
        tracemalloc.start()
        try:
            run_experiments(ds, configs, SplitSpec(0.5, 0, 2), classifier)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * side, peak / side

    def test_failing_config_reports_repeat(self):
        ds = gaussian_blobs(n_per_class=4, n_classes=2, d=10, seed=7)
        split = SplitSpec(train_fraction=0.5, seed=3, repeats=2)
        with pytest.raises(ExperimentError, match="^repeat 0, pca d'=11 failed: d_prime"):
            run_experiments(ds, [BaselineConfig("pca", 2), BaselineConfig("pca", 11)], split)
        # two classes 1e4 apart on axis 0, each spread along axis 1 alone: PCA
        # at d' = 1 keeps axis 0, projecting each class's training rows to one
        # point, so its classify step is the one that fails
        rows = [(c * 1e4, v) for c in range(2) for v in (-1, 0, 1, 2)]
        ds = Dataset(np.array(rows, dtype=float), np.repeat([0, 1], 4))
        configs = [TrainConfig(K=2, d_prime=2), BaselineConfig("pca", 2), BaselineConfig("pca", 1)]
        for seed in range(3):
            with pytest.raises(ExperimentError, match="^repeat 0, pca d'=1 failed: all candidates are degenerate"):
                run_experiments(ds, configs, SplitSpec(0.5, seed, 2), "nearest_line")


def scale_problem(ds, config, seed):
    """A fit problem with the train and test rows of one stratified split."""
    return ds, config, split_indices(ds.labels, SplitSpec(0.5, seed, 1), 0)


@st.composite
def scale_problems(draw):
    """Small labelled data of any rank (0 included), with d < n and d > n and
    some rows repeated, split in half by class, and an nlp fit at any of
    three tolerances, 0 among them."""
    n_classes, per_class = draw(st.integers(1, 3)), draw(st.integers(6, 8))
    n, d = n_classes * per_class, draw(st.integers(1, 24))
    rank = draw(st.integers(0, min(n - 1, d)))
    repeated = draw(st.integers(0, n // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d)) + rng.normal(size=d)
    X[n - repeated:] = X[:repeated]
    ds = Dataset(X, rng.permutation(np.repeat(np.arange(n_classes), per_class)))
    config = TrainConfig(
        K=draw(st.integers(2, min(5, n // 2 - 1))),  # the split keeps at least n // 2 rows
        d_prime=draw(st.integers(1, d)),
        max_iters=draw(st.integers(0, 5)),
        rel_tol=draw(st.sampled_from([0.0, 1e-6, 1e-2])),
    )
    return scale_problem(ds, config, draw(st.integers(0, 2**16)))


def predictions(classify, T, labels, Q):
    """A classifier's predictions, or the message of the ValueError it
    raises when every candidate line is degenerate."""
    try:
        return classify(T, labels, Q)
    except ValueError as error:
        return str(error)


class TestScaleInvariance:
    @given(scale_problems(), st.integers(-60, 60))
    @example(scale_problem(manifold_classes(seed=5), TrainConfig(K=5, d_prime=2, max_iters=30, rel_tol=0.0), 0), -60)
    @example(scale_problem(manifold_classes(seed=5), TrainConfig(K=5, d_prime=2), 0), -60)
    @settings(deadline=None, max_examples=150)
    def test_power_of_two_scaling_changes_no_fit_and_no_prediction(self, problem, k):
        """Multiplying the rows by s = 2^k is exact in floating point, and
        every rule a fit or a classifier applies (the degeneracy test, the
        rank cut, the screen slack) compares quantities of the same units.
        So the nlp and PCA projections are the same bits, the objective trace
        is exactly 4^k times, and both classifiers predict the same labels on
        the scaled rows.  The fit's stopping rule compares the objective's
        change with the previous objective, both scaled by 4^k, so the fit
        stops at the same iteration at every tolerance."""
        ds, config, (train_idx, test_idx) = problem

        def run(s):
            X = ds.features * s
            split = TrainingSplit(Dataset(X, ds.labels), rows=train_idx)
            models = train(split, config), train_pca(split, config.d_prime)
            labels = ds.labels[train_idx]
            sides = [(project(m, X[train_idx]), project(m, X[test_idx])) for m in models]
            return models, [predictions(c, T, labels, Q) for T, Q in sides
                            for c in (classify_1nn, classify_nearest_line)]

        (nlp, pca), expected = run(1.0)
        (nlp_s, pca_s), got = run(2.0**k)
        assert np.array_equal(nlp_s.projection, nlp.projection)
        assert nlp_s.objective_trace == [t * 4.0**k for t in nlp.objective_trace]
        assert nlp_s.converged == nlp.converged
        assert np.array_equal(pca_s.projection, pca.projection)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b), (a, b)
