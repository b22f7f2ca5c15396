import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from nearline import cli
from nearline.baselines import BaselineConfig
from nearline.cli import RunSpec, main
from nearline.data import SplitSpec, load_pgm_dir, save_csv
from nearline.evaluate import fit_method
from nearline.geometry import BLOCK_ELEMENTS
from nearline.model_io import save_model
from nearline.nlp import TrainConfig
from nearline.synthetic import gaussian_blobs, separable_clusters


def write_pgm_tree(root, classes, per_class, side, seed=0):
    """One subdirectory per class of seeded random 8-bit P5 images, side x side."""
    rng = np.random.default_rng(seed)
    for c in range(classes):
        sub = root / f"s{c}"
        sub.mkdir(parents=True)
        for i in range(per_class):
            pixels = rng.integers(0, 256, size=side * side, dtype=np.uint8)
            (sub / f"img{i}.pgm").write_bytes(f"P5\n{side} {side}\n255\n".encode() + pixels.tobytes())
    return root


@pytest.fixture()
def blob_csv(tmp_path):
    path = tmp_path / "blobs.csv"
    save_csv(gaussian_blobs(n_per_class=12, n_classes=3, d=8, seed=0), path)
    return path


@pytest.fixture()
def separable_csv(tmp_path):
    path = tmp_path / "separable.csv"
    save_csv(separable_clusters(seed=3), path)
    return path


class TestRunSpecRoundTrip:
    def test_unknown_flag_is_validation_error(self, capsys):
        assert main(["train", "--data", "x.csv", "--dim", "2", "--out", "m.json", "--bogus"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["train", "--data", "x.csv", "--dim", "2"]) == 1
        assert "--out" in capsys.readouterr().err

    # for each command, an argv holding every flag it cannot run without
    COMPLETE = {
        "train": ["--data", "x.csv", "--out", "m.json", "--dim", "2"],
        "project": ["--data", "x.csv", "--out", "y.csv", "--model", "m.json"],
        "evaluate": ["--data", "x.csv", "--out", "r.json", "--train-frac", "0.5", "--dim", "2"],
        "compare": ["--data", "x.csv", "--out", "c.csv", "--train-frac", "0.5", "--methods", "nlp,pca", "--dims", "2"],
    }

    @staticmethod
    def _without(flags, flag):
        i = flags.index(flag)
        return flags[:i] + flags[i + 2:]

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("train", "--data"), ("train", "--out"), ("train", "--dim"),
            ("project", "--data"), ("project", "--out"), ("project", "--model"),
            ("evaluate", "--data"), ("evaluate", "--out"), ("evaluate", "--train-frac"), ("evaluate", "--dim"),
            ("compare", "--data"), ("compare", "--out"), ("compare", "--train-frac"), ("compare", "--dims"),
        ],
    )
    def test_missing_flag_message(self, capsys, command, flag):
        assert main([command, *self._without(self.COMPLETE[command], flag)]) == 1
        assert capsys.readouterr().err == f"error: {command} requires {flag}\n"

    @pytest.mark.parametrize(
        "methods, message",
        [
            (None, "compare requires --methods with at least 2 methods"),
            ("nlp", "compare requires --methods with at least 2 methods"),
            ("nlp,svd,pca,ica", "unknown methods: ['svd', 'ica'] (choose from ('nlp', 'pca', 'lpp'))"),
        ],
    )
    def test_compare_methods_message(self, capsys, methods, message):
        flags = self._without(self.COMPLETE["compare"], "--methods")
        if methods is not None:
            flags += ["--methods", methods]
        assert main(["compare", *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_dims_not_integers_exits_1(self, capsys):
        flags = self._without(self.COMPLETE["compare"], "--dims")
        assert main(["compare", *flags, "--dims", "2,x"]) == 1
        assert capsys.readouterr().err == (
            "error: argument --dims: expected a comma-separated list of integers, got '2,x'\n"
        )

    def test_every_setting_has_a_flag(self):
        # every flag takes a value other than its default; every field of the
        # configs the run builds must hold what its flag gave, so a field no
        # flag reaches fails here
        spec = RunSpec.from_argv([
            "evaluate", "--data", "x.csv", "--out", "r.json", "--k", "7", "--dim", "3",
            "--max-iters", "9", "--tol", "0.25",
            "--train-frac", "0.3", "--repeats", "4", "--seed", "11",
        ])
        want = {
            TrainConfig: {"K": 7, "d_prime": 3, "max_iters": 9, "rel_tol": 0.25},
            BaselineConfig: {"method": "lpp", "d_prime": 3, "K": 7},
            SplitSpec: {"train_fraction": 0.3, "seed": 11, "repeats": 4},
        }
        built = [cli._method_config(spec, "nlp", spec.dim), cli._method_config(spec, "lpp", spec.dim),
                 cli._split_spec(spec)]
        assert [type(config) for config in built] == list(want)
        for config in built:
            fields = dataclasses.fields(config)
            assert dataclasses.asdict(config) == want[type(config)]
            assert all(getattr(config, f.name) != f.default for f in fields if f.default is not dataclasses.MISSING)


class TestTrainCommand:
    def test_writes_model_and_trace(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = main([
            "train", "--data", str(blob_csv), "--label-col", "last", "--method", "nlp",
            "--k", "5", "--dim", "4", "--out", str(out), "--quiet",
        ])
        assert code == 0
        assert out.exists()
        payload = json.loads(out.read_text())
        trace_path = tmp_path / "model.trace.csv"
        lines = trace_path.read_text().strip().split("\n")
        assert lines[0] == "iteration,objective"
        assert len(lines) - 1 == len(payload["objective_trace"])

    def test_missing_file_exits_2_and_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = main(["train", "--data", str(missing), "--dim", "2", "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_dim_zero_exits_1_citing_constraint(self, blob_csv, tmp_path, capsys):
        code = main(["train", "--data", str(blob_csv), "--dim", "0", "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "d_prime must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, rows", [("train", 36), ("evaluate", 18)])
    def test_k_above_the_training_rows_exits_1(self, blob_csv, tmp_path, capsys, command, rows):
        # train fits nlp on all 36 rows, evaluate fits lpp on each 18-row half
        flags = ["--method", "nlp"] if command == "train" else ["--method", "lpp", "--train-frac", "0.5"]
        out = tmp_path / "out.json"
        code = main([command, "--data", str(blob_csv), *flags, "--k", str(rows), "--dim", "2", "--out", str(out)])
        assert code == 1
        assert f"K must be <= n - 1 = {rows - 1}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("evaluate", ["--method", "pca", "--dim", "2", "--train-frac", "0.5", "--seed", "-1"],
             "seed must be a nonnegative integer"),
            ("train", ["--method", "nlp", "--dim", "2", "--max-iters", "-1"], "max_iters must be nonnegative"),
            ("train", ["--method", "lpp", "--k", "0", "--dim", "2"], "K must be >= 1, got 0"),
            # one d' rule for every method: the 8 columns of the data bound it
            ("train", ["--method", "nlp", "--dim", "9"], "d_prime must be <= d = 8, got 9"),
            ("train", ["--method", "pca", "--dim", "9"], "d_prime must be <= d = 8, got 9"),
            ("train", ["--method", "lpp", "--dim", "9"], "d_prime must be <= d = 8, got 9"),
        ],
    )
    def test_invalid_setting_exits_1(self, blob_csv, tmp_path, capsys, command, flags, message):
        out = tmp_path / "out.json"
        assert main([command, "--data", str(blob_csv), *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_no_partial_output_on_failure(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "model.json"
        code = main(["train", "--data", str(blob_csv), "--dim", "2", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_pca_and_lpp_methods(self, blob_csv, tmp_path):
        for method in ("pca", "lpp"):
            out = tmp_path / f"{method}.json"
            code = main([
                "train", "--data", str(blob_csv), "--method", method,
                "--dim", "3", "--out", str(out), "--quiet",
            ])
            assert code == 0
            assert json.loads(out.read_text())["train_config"]["method"] == method

    def test_seed_does_not_reach_the_model(self, blob_csv, tmp_path):
        # --seed seeds the evaluation splits only; training is deterministic
        texts = []
        for seed in ("0", "5"):
            out = tmp_path / f"m{seed}.json"
            assert main([
                "train", "--data", str(blob_csv), "--dim", "3", "--seed", seed, "--out", str(out), "--quiet",
            ]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert "seed" not in json.loads(texts[0])["train_config"]


class TestProjectCommand:
    def test_projects_to_csv(self, blob_csv, tmp_path):
        model_path = tmp_path / "m.json"
        assert main([
            "train", "--data", str(blob_csv), "--dim", "3", "--out", str(model_path), "--quiet",
        ]) == 0
        out = tmp_path / "projected.csv"
        assert main([
            "project", "--data", str(blob_csv), "--model", str(model_path),
            "--out", str(out), "--quiet",
        ]) == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 36
        assert len(rows[0].split(",")) == 4  # 3 projected coordinates + label

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            (lambda payload: {k: v for k, v in payload.items() if k != "d_prime"}, "lacks the keys ['d_prime']"),
            (lambda payload: [payload], "JSON object, not list"),
        ],
    )
    def test_malformed_model_exits_1(self, blob_csv, tmp_path, capsys, edit, message):
        model_path = tmp_path / "m.json"
        assert main([
            "train", "--data", str(blob_csv), "--dim", "3", "--out", str(model_path), "--quiet",
        ]) == 0
        model_path.write_text(json.dumps(edit(json.loads(model_path.read_text()))))
        out = tmp_path / "projected.csv"
        code = main([
            "project", "--data", str(blob_csv), "--model", str(model_path), "--out", str(out), "--quiet",
        ])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("key", "value", "cell"),
        [
            ("mean_vector", float("nan"), None),
            ("projection_columns", float("inf"), None),
            ("projection_columns", float("-inf"), None),
            # a finite model and finite rows: x - mean overflows to -inf
            ("mean_vector", 1e308, -1e308),
        ],
    )
    def test_non_finite_projection_exits_1(self, blob_csv, tmp_path, capsys, key, value, cell):
        # load_model reads NaN and Infinity back, but a CSV of non-finite
        # projected rows is one load_csv rejects: nothing is written
        model_path = tmp_path / "m.json"
        assert main([
            "train", "--data", str(blob_csv), "--method", "pca", "--dim", "2",
            "--out", str(model_path), "--quiet",
        ]) == 0
        payload = json.loads(model_path.read_text())
        if key == "mean_vector":
            payload[key][0] = value
        else:
            payload[key][1][3] = value
        model_path.write_text(json.dumps(payload))
        data = blob_csv
        if cell is not None:
            data = tmp_path / "huge.csv"
            data.write_text("".join(",".join([repr(cell)] * 8 + [str(label)]) + "\n" for label in range(3)))
        out = tmp_path / "projected.csv"
        code = main([
            "project", "--data", str(data), "--model", str(model_path), "--out", str(out), "--quiet",
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: model file {model_path} projects rows to non-finite values\n"
        assert not out.exists()


class TestEvaluateCommand:
    def test_prints_fixed_accuracy_format(self, separable_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "evaluate", "--data", str(separable_csv), "--method", "pca", "--dim", "2",
            "--train-frac", "0.5", "--repeats", "5", "--seed", "3", "--out", str(out), "--quiet",
        ])
        assert code == 0
        assert "accuracy: 1.0000 ± 0.0000" in capsys.readouterr().out
        assert out.exists()
        assert (tmp_path / "report.csv").exists()

    def test_deterministic_outputs(self, blob_csv, tmp_path, capsys):
        args = [
            "evaluate", "--data", str(blob_csv), "--method", "nlp", "--k", "4", "--dim", "3",
            "--train-frac", "0.5", "--repeats", "10", "--seed", "7", "--quiet",
        ]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()

    @pytest.mark.parametrize("classifier", ["nn", "nearest-line"])
    def test_split_may_leave_one_test_row(self, tmp_path, capsys, classifier):
        # 9 rows in 3 classes at 0.85 keep 8 rows for training and test 1
        data = tmp_path / "nine.csv"
        save_csv(separable_clusters(n_per_class=3, n_classes=3, seed=4), data)
        code = main([
            "evaluate", "--data", str(data), "--method", "pca", "--dim", "2", "--train-frac", "0.85",
            "--repeats", "1", "--seed", "0", "--classifier", classifier, "--out", str(tmp_path / "r.json"),
        ])
        assert code == 0
        assert "accuracy: 1.0000 ± 0.0000" in capsys.readouterr().out

    def test_label_column_by_index_and_by_name(self, tmp_path, capsys):
        # the same rows with the label first under a header: --label-col 0
        # and --label-col label read what --label-col last reads of the
        # label-last file, so the reports match byte for byte
        ds = gaussian_blobs(n_per_class=12, n_classes=3, d=8, seed=0)
        last, first = tmp_path / "last.csv", tmp_path / "first.csv"
        save_csv(ds, last)
        header = "label," + ",".join(f"f{j}" for j in range(ds.d))
        rows = [f"{int(y)}," + ",".join(repr(float(v)) for v in x) for x, y in zip(ds.features, ds.labels)]
        first.write_text("\n".join([header, *rows]) + "\n")
        args = ["evaluate", "--method", "pca", "--dim", "3", "--train-frac", "0.5", "--repeats", "3", "--quiet"]
        reports = []
        for data, label_col in ((last, "last"), (first, "0"), (first, "label")):
            out = tmp_path / f"{data.stem}-{label_col}.json"
            assert main([*args, "--data", str(data), "--label-col", label_col, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_requires_train_frac(self, blob_csv, tmp_path, capsys):
        code = main([
            "evaluate", "--data", str(blob_csv), "--dim", "2", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert "--train-frac" in capsys.readouterr().err

    def test_out_that_names_the_csv_sibling_exits_1(self, blob_csv, tmp_path, capsys):
        # the report CSV goes to <stem>.csv, so --out r.csv would have the CSV
        # overwrite the JSON report
        out = tmp_path / "r.csv"
        code = main([
            "evaluate", "--data", str(blob_csv), "--method", "pca", "--dim", "2",
            "--train-frac", "0.5", "--repeats", "2", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"--out {out} and its sibling {out} to one file" in err
        assert "does not end in .csv" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [blob_csv.name]


class TestWroteLines:
    def test_each_command_names_what_it_wrote(self, blob_csv, tmp_path, capsys):
        model, trace, projected = tmp_path / "m.json", tmp_path / "m.trace.csv", tmp_path / "y.csv"
        assert main(["train", "--data", str(blob_csv), "--method", "pca", "--dim", "2", "--out", str(model)]) == 0
        assert capsys.readouterr().out == f"wrote {model} and {trace}\n"
        assert main(["project", "--data", str(blob_csv), "--model", str(model), "--out", str(projected)]) == 0
        assert capsys.readouterr().out == f"wrote {projected}\n"
        out, table = tmp_path / "c.csv", tmp_path / "c.table.txt"
        assert main([
            "compare", "--data", str(blob_csv), "--methods", "pca,lpp", "--dims", "2", "--k", "3",
            "--train-frac", "0.5", "--repeats", "2", "--out", str(out),
        ]) == 0
        assert capsys.readouterr().out == table.read_text() + f"wrote {out} and {table}\n"
        for quiet in (["train", "--data", str(blob_csv), "--method", "pca", "--dim", "2", "--out", str(model)],
                      ["project", "--data", str(blob_csv), "--model", str(model), "--out", str(projected)]):
            assert main([*quiet, "--quiet"]) == 0
            assert capsys.readouterr().out == ""


class TestCompareCommand:
    def test_row_count_and_table(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = main([
            "compare", "--data", str(blob_csv), "--methods", "nlp,pca", "--dims", "2,5",
            "--k", "4", "--train-frac", "0.5", "--repeats", "5", "--seed", "1",
            "--out", str(out), "--quiet",
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "method,d_prime,repeat,accuracy"
        assert len(lines) - 1 == 2 * 2 * 5  # methods x dims x repeats
        nlp_rows = [line for line in lines[1:] if line.startswith("nlp,")]
        assert len(nlp_rows) == 10
        for row in nlp_rows:
            acc = float(row.split(",")[3])
            assert np.isfinite(acc) and 0.0 <= acc <= 1.0
        table = (tmp_path / "cmp.table.txt").read_text().strip().split("\n")
        assert table[0] == "# d_prime nlp pca"
        assert len(table) == 3

    def test_one_row_space_and_one_neighbor_search_per_repeat(self, blob_csv, tmp_path, split_work_spies):
        rs, knn = split_work_spies
        code = main([
            "compare", "--data", str(blob_csv), "--methods", "nlp,pca,lpp", "--dims", "2,5,8",
            "--k", "4", "--max-iters", "3", "--train-frac", "0.5", "--repeats", "4", "--seed", "2",
            "--out", str(tmp_path / "cmp.csv"), "--quiet",
        ])
        assert code == 0
        assert (rs.call_count, knn.call_count) == (4, 4)

    def test_requires_two_methods(self, blob_csv, tmp_path, capsys):
        code = main([
            "compare", "--data", str(blob_csv), "--methods", "nlp", "--dims", "2",
            "--train-frac", "0.5", "--out", str(tmp_path / "c.csv"),
        ])
        assert code == 1
        assert "at least 2" in capsys.readouterr().err


class TestPgmFormat:
    def test_trains_from_pgm_directory(self, tmp_path):
        root = write_pgm_tree(tmp_path / "faces", classes=2, per_class=4, side=4)
        out = tmp_path / "model.json"
        code = main([
            "train", "--data", str(root), "--format", "pgm-dir",
            "--method", "pca", "--dim", "2", "--out", str(out), "--quiet",
        ])
        assert code == 0
        assert json.loads(out.read_text())["d"] == 16

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--method", "nlp", "--k", "3", "--dim", "3", "--max-iters", "4"],
             TrainConfig(K=3, d_prime=3, max_iters=4)),
            (["--method", "pca", "--dim", "3"], BaselineConfig("pca", 3)),
            (["--method", "lpp", "--k", "3", "--dim", "3"], BaselineConfig("lpp", 3, K=3)),
        ],
    )
    def test_model_bytes_match_the_library_fit(self, tmp_path, flags, config):
        # the command fits on a centered split of the loaded rows; the bytes
        # must be those of fitting the dataset itself
        root = write_pgm_tree(tmp_path / "faces", classes=3, per_class=4, side=9)
        out, expected = tmp_path / "cli.json", tmp_path / "library.json"
        code = main(["train", "--data", str(root), "--format", "pgm-dir", *flags, "--out", str(out), "--quiet"])
        assert code == 0
        save_model(fit_method(load_pgm_dir(root), config), expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_pca_takes_a_dim_past_the_rows(self, tmp_path):
        # 12 images of d = 64: --dim 20 is past n - 1 = 11, where nlp's start
        # spans the row space and PCA gives that same basis
        root = write_pgm_tree(tmp_path / "faces", classes=3, per_class=4, side=8)
        columns = []
        for method in ("nlp", "pca"):
            out = tmp_path / f"{method}.json"
            code = main(["train", "--data", str(root), "--format", "pgm-dir", "--method", method,
                         "--k", "5", "--dim", "20", "--out", str(out), "--quiet"])
            assert code == 0
            columns.append(json.loads(out.read_text())["projection_columns"])
        assert len(columns[1]) == 20 and columns[1] == columns[0]

    def test_train_holds_one_copy_of_the_rows(self, tmp_path):
        # d >> n: the peak is the centering step, which holds the loaded rows
        # and their centered copy X (n x d) at once, plus the mean inside the
        # slack.  The fit after it holds X, its n x r coordinates, block
        # temporaries of the neighbor search and the scatter step and a few
        # d x d' copies of the projection as the last step lifts it: less
        # than the loaded rows it no longer holds.  Loaded rows kept alive
        # through the fit overshoot the bound
        classes, per_class, side, K, d_prime = 4, 6, 160, 3, 2
        root = write_pgm_tree(tmp_path / "faces", classes, per_class, side)
        n, d = classes * per_class, side * side
        argv = [
            "train", "--data", str(root), "--format", "pgm-dir", "--method", "nlp", "--k", str(K),
            "--dim", str(d_prime), "--max-iters", "2", "--out", str(tmp_path / "m.json"), "--quiet",
        ]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        held = 2 * n * d
        assert peak < (held + BLOCK_ELEMENTS) * 8 + 2**18
