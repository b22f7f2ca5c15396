"""Acceptance suite: one test per criterion, at the stated tolerances.

Criterion outcomes are summarized as one PASS/FAIL line each at the end of
the pytest run (see conftest.py).
"""

import dataclasses
import hashlib
import json
import time

import numpy as np

from nearline.baselines import BaselineConfig
from nearline.cli import RunSpec, main
from nearline.data import Dataset, SplitSpec, save_csv, split_indices
from nearline.evaluate import classify_1nn, fit_method, run_experiment
from nearline.geometry import is_degenerate_line, line_alpha, line_residual, point_line_sqdist
from nearline.model_io import report_json
from nearline.nlp import TrainConfig, assemble_scatter, build_neighbor_lines, eigen_step, objective, project, train
from nearline.synthetic import gaussian_blobs, manifold_classes, separable_clusters
from test_geometry import golden_section_argmin, sqdist_at


def test_c01_line_coefficient_matches_golden_section_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        d = int(rng.integers(2, 11))
        point, a, b = rng.normal(size=(3, d))
        if is_degenerate_line(a, b):
            continue
        alpha = line_alpha(point, a, b)
        if abs(alpha) > 90:
            continue
        oracle = golden_section_argmin(lambda t: sqdist_at(point, a, b, t), -100.0, 100.0)
        assert abs(alpha - oracle) < 1e-6
        checked += 1
    assert time.perf_counter() - start < 5.0


def test_c02_projected_residual_equals_projected_distance():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        d = int(rng.integers(3, 16))
        d_prime = int(rng.integers(1, d + 1))
        W = rng.normal(size=(d, d_prime))
        x_point, x_a, x_b = rng.normal(size=(3, d))
        y_point, y_a, y_b = W.T @ x_point, W.T @ x_a, W.T @ x_b
        if is_degenerate_line(y_a, y_b):
            continue
        alpha = line_alpha(y_point, y_a, y_b)
        r = line_residual(x_point, x_a, x_b, alpha)
        projected = W.T @ r
        lhs = float(projected @ projected)
        rhs = point_line_sqdist(y_point, y_a, y_b)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1e-12)
        checked += 1
    assert time.perf_counter() - start < 5.0


def test_c03_objective_equals_trace_of_scatter_operator():
    rng = np.random.default_rng(31)
    start = time.perf_counter()
    for _ in range(20):
        n = int(rng.integers(4, 11))
        d = int(rng.integers(2, 7))
        ds = Dataset(rng.normal(size=(n, d)), rng.integers(0, 2, size=n))
        index = build_neighbor_lines(ds, 3)
        # d_prime >= 2: any 1-D projection puts every point on every line,
        # making both paths identically zero
        d_prime = int(rng.integers(2, d + 1))
        W, _ = np.linalg.qr(rng.normal(size=(d, d_prime)))
        direct = objective(ds, index, W)
        L = assemble_scatter(ds, index, W)
        trace = float(np.trace(W.T @ L @ W))
        assert abs(trace - direct) <= 1e-8 * max(abs(direct), 1e-12)
    assert time.perf_counter() - start < 10.0


def test_c04_eigen_step_beats_random_subspaces():
    rng = np.random.default_rng(55)
    start = time.perf_counter()
    for _ in range(20):
        M = rng.normal(size=(20, 20))
        L = (M + M.T) / 2.0
        W = eigen_step(L, 5)
        selected = float(np.trace(W.T @ L @ W))
        for _ in range(100):
            Q, _ = np.linalg.qr(rng.normal(size=(20, 5)))
            assert selected <= float(np.trace(Q.T @ L @ Q)) + 1e-9
    assert time.perf_counter() - start < 10.0


def test_c05_training_is_monotone_under_fixed_operator():
    ds = gaussian_blobs(n_per_class=50, n_classes=3, d=50, separation=6.0, noise=1.0, seed=12345)
    assert ds.n == 150 and ds.d == 50
    start = time.perf_counter()
    model = train(ds, TrainConfig(K=5, d_prime=5))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert model.step_traces, "training must run at least one iteration"
    for trace_old, trace_new in model.step_traces:
        assert trace_new <= trace_old + 1e-9


def test_c06_neighbor_lines_match_exhaustive_oracle():
    rng = np.random.default_rng(808)
    for case in range(20):
        n = int(rng.integers(10, 101))
        d = int(rng.integers(1, 6))
        K = int(rng.integers(2, min(6, n - 1) + 1))
        # integer-valued features keep squared distances exact, so duplicated
        # rows produce exact ties to exercise the smaller-index rule
        feats = rng.integers(-4, 5, size=(n, d)).astype(float)
        dup = rng.integers(0, n, size=max(2, n // 5))
        feats[dup] = feats[dup[0]]
        ds = Dataset(feats, rng.integers(0, 3, size=n))
        index = build_neighbor_lines(ds, K)

        assert index.lines.shape[1] == K * (K - 1) // 2
        for i in range(n):
            scored = sorted(
                (float(np.sum((feats[i] - feats[j]) ** 2)), j) for j in range(n) if j != i
            )
            expected = [j for _, j in scored[:K]]
            assert index.neighbors[i].tolist() == expected, f"case {case}, sample {i}"


def test_c07_nearest_line_projection_tracks_or_beats_pca():
    ds = manifold_classes(seed=5)
    assert ds.n == 150 and ds.d == 50
    split = SplitSpec(train_fraction=0.5, seed=29, repeats=10)
    start = time.perf_counter()
    margins = []
    for d_prime in (2, 5, 10):
        nlp = run_experiment(ds, TrainConfig(K=5, d_prime=d_prime), split, "nn")
        pca = run_experiment(ds, BaselineConfig("pca", d_prime), split, "nn")
        margins.append(nlp.mean_accuracy - pca.mean_accuracy)
    assert time.perf_counter() - start < 60.0
    for margin in margins:
        assert margin >= -0.02
    assert any(margin > 0.0 for margin in margins)


def test_c08_protocol_is_deterministic_and_leak_free():
    ds = gaussian_blobs(n_per_class=12, n_classes=3, d=8, seed=9)
    split = SplitSpec(train_fraction=0.5, seed=41, repeats=5)
    cfg = TrainConfig(K=3, d_prime=2)
    start = time.perf_counter()

    report_a = run_experiment(ds, cfg, split)
    report_b = run_experiment(ds, cfg, split)
    assert report_json(report_a) == report_json(report_b)

    for r in range(split.repeats):
        train_idx, test_idx = split_indices(ds.labels, split, r)
        # corrupt exactly this repeat's test rows; its train rows stay intact
        corrupted = np.array(ds.features)
        corrupted[test_idx] = corrupted[test_idx] * 3.0 + 100.0
        ds_corrupt = Dataset(corrupted, ds.labels)
        train_clean = ds.subset(train_idx)
        train_corrupt = ds_corrupt.subset(train_idx)
        digest_clean = hashlib.sha256(train_clean.features.tobytes()).hexdigest()
        digest_corrupt = hashlib.sha256(train_corrupt.features.tobytes()).hexdigest()
        assert digest_clean == digest_corrupt, "test-row corruption leaked into the train split"

        model = fit_method(train_clean, cfg)
        model_corrupt = fit_method(train_corrupt, cfg)
        assert np.array_equal(model.projection, model_corrupt.projection)
        assert np.array_equal(model.mean_vector, model_corrupt.mean_vector)
        assert np.array_equal(model.mean_vector, train_clean.features.mean(axis=0))

        # the protocol's accuracy must be exactly what this train-only model yields
        test_ds = ds.subset(test_idx)
        train_y = project(model, train_clean.features)
        test_y = project(model, test_ds.features)
        preds = [classify_1nn(train_y, train_clean.labels, q) for q in test_y]
        accuracy = float(np.mean(np.array(preds) == test_ds.labels))
        assert accuracy == report_a.per_repeat_accuracy[r]
    assert time.perf_counter() - start < 5.0


def test_c09_separable_clusters_are_perfectly_classified():
    ds = separable_clusters(seed=3)
    split = SplitSpec(train_fraction=0.5, seed=11, repeats=10)
    configs = [
        TrainConfig(K=3, d_prime=2),
        BaselineConfig("pca", 2),
        BaselineConfig("lpp", 2, K=3),
    ]
    for cfg in configs:
        for classifier in ("nn", "nearest_line"):
            report = run_experiment(ds, cfg, split, classifier)
            assert report.mean_accuracy == 1.0, (cfg, classifier)
            assert report.std_accuracy == 0.0, (cfg, classifier)


def canonical_flags(spec: RunSpec) -> list[str]:
    """The argv a spec's fields spell: every flag in field order, except
    those holding None, () or False."""
    flags = [spec.command]
    for f in dataclasses.fields(spec)[1:]:
        value = getattr(spec, f.name)
        if value is None or value is False or value == ():
            continue
        flags.append("--" + f.name.replace("_", "-"))
        if isinstance(value, tuple):
            flags.append(",".join(str(v) for v in value))
        elif isinstance(value, float):
            flags.append(repr(value))
        elif value is not True:
            flags.append(str(value))
    return flags


def test_c10_cli_contract(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    save_csv(gaussian_blobs(n_per_class=12, n_classes=3, d=12, seed=2), data_path)

    # flag round-trip
    argv = [
        "compare", "--data", str(data_path), "--methods", "nlp,pca", "--dims", "2,5,10",
        "--k", "4", "--train-frac", "0.5", "--repeats", "10", "--seed", "3",
        "--out", str(tmp_path / "cmp.csv"), "--quiet",
    ]
    spec = RunSpec.from_argv(argv)
    assert RunSpec.from_argv(canonical_flags(spec)) == spec

    # exit code 0 + the 60-row compare contract (2 methods x 3 dims x 10 repeats)
    assert main(argv) == 0
    rows = (tmp_path / "cmp.csv").read_text().strip().split("\n")
    assert rows[0] == "method,d_prime,repeat,accuracy"
    assert len(rows) - 1 == 60

    # exit code 1: validation failure names the violated constraint
    assert main(["train", "--data", str(data_path), "--dim", "0", "--out", str(tmp_path / "m.json")]) == 1
    assert "d_prime must be >= 1" in capsys.readouterr().err

    # exit code 2: I/O failure names the path
    missing = tmp_path / "missing.csv"
    assert main(["train", "--data", str(missing), "--dim", "2", "--out", str(tmp_path / "m.json")]) == 2
    assert "missing.csv" in capsys.readouterr().err

    # atomic writes: failures leave no partial target, successes no temp files
    bad_out = tmp_path / "not-a-dir" / "model.json"
    assert main(["train", "--data", str(data_path), "--dim", "2", "--out", str(bad_out)]) == 2
    assert not bad_out.exists()
    model_out = tmp_path / "model.json"
    assert main(["train", "--data", str(data_path), "--dim", "2", "--out", str(model_out), "--quiet"]) == 0
    assert model_out.exists()
    assert json.loads(model_out.read_text())["d_prime"] == 2
    assert not list(tmp_path.glob("**/*.tmp"))
