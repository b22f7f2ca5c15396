import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearline.baselines import BaselineConfig, train_pca
from nearline.data import SplitSpec
from nearline.evaluate import fit_method, run_experiment
from nearline.model_io import (
    atomic_open,
    atomic_write_text,
    config_from_dict,
    config_to_dict,
    load_model,
    model_to_dict,
    report_csv,
    report_json,
    save_model,
)
from nearline.nlp import TrainConfig, TrainedModel, project, train
from nearline.synthetic import gaussian_blobs


# signed zero, the smallest subnormal, huge values and the values json
# writes as NaN, Infinity and -Infinity
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1 / 3, float("nan"), float("inf"), float("-inf")]
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(EDGE_FLOATS))
configs = st.one_of(
    st.builds(TrainConfig, K=st.integers(2, 9), d_prime=st.integers(1, 9),
              max_iters=st.integers(0, 60), rel_tol=st.floats(0.0, 1.0)),
    st.builds(BaselineConfig, method=st.sampled_from(["pca", "lpp"]), d_prime=st.integers(1, 9),
              K=st.integers(1, 9)),
)


@st.composite
def models(draw):
    d = draw(st.integers(1, 6))
    d_prime = draw(st.integers(1, d))
    W = np.array(draw(st.lists(floats, min_size=d * d_prime, max_size=d * d_prime))).reshape(d, d_prime)
    mean = np.array(draw(st.lists(floats, min_size=d, max_size=d)))
    trace = draw(st.lists(floats, max_size=4))
    return TrainedModel(W, mean, draw(configs), trace, converged=False)


def assert_same_model(loaded, model):
    """Bit-equal arrays and trace, except that any NaN matches any NaN (JSON
    keeps no NaN payload); -0.0 must keep its sign.  The config must be
    equal."""
    for got, want in ((loaded.projection, model.projection), (loaded.mean_vector, model.mean_vector),
                      (np.array(loaded.objective_trace, dtype=float), np.array(model.objective_trace, dtype=float))):
        assert got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
    assert loaded.config == model.config


class TestModelFile:
    @given(models())
    @example(TrainedModel(np.ones((1, 1)), np.zeros(1), BaselineConfig("lpp", 1), [], converged=True))
    @example(TrainedModel(np.full((2, 1), -0.0), np.array([5e-324, 1e300]), BaselineConfig("pca", 1), [float("nan")], converged=True))
    @settings(deadline=None, max_examples=200)
    def test_round_trip_is_bit_exact(self, tmp_path_factory, model):
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(model, path)
        assert path.read_text() == json.dumps(model_to_dict(model), sort_keys=True) + "\n"
        assert_same_model(load_model(path), model)

    @given(models())
    @settings(deadline=None, max_examples=50)
    def test_indented_file_of_earlier_releases_loads(self, tmp_path_factory, model):
        path = tmp_path_factory.mktemp("model") / "model.json"
        path.write_text(json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n")
        assert_same_model(load_model(path), model)

    def test_writing_holds_one_column_of_float_strings(self, tmp_path):
        """The payload's floats take 32 bytes a value: a 24-byte float and an
        8-byte list slot.  One json.dumps over the payload also holds a str
        of about 70 bytes for every value until it returns, over 100 bytes a
        value in all; writing the projection a column at a time holds those
        strings for one column only, under 64 bytes a value in all here."""
        rng = np.random.default_rng(0)
        d, d_prime = 2576, 10
        model = TrainedModel(rng.normal(size=(d, d_prime)), rng.normal(size=d), TrainConfig(K=5, d_prime=d_prime),
                             [1.0], converged=False)
        save_model(model, tmp_path / "warm.json")
        tracemalloc.start()
        try:
            save_model(model, tmp_path / "model.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * d * (d_prime + 1)

    def test_schema_fields(self, tmp_path):
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=6, seed=0)
        model = train(ds, TrainConfig(K=3, d_prime=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "schema_version",
            "d",
            "d_prime",
            "mean_vector",
            "projection_columns",
            "train_config",
            "objective_trace",
        }
        assert payload["schema_version"] == 1
        assert payload["d"] == 6 and payload["d_prime"] == 2
        assert len(payload["projection_columns"]) == 2
        assert all(len(col) == 6 for col in payload["projection_columns"])

    def test_columns_are_column_major(self):
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=5, seed=1)
        model = train(ds, TrainConfig(K=3, d_prime=2))
        payload = model_to_dict(model)
        for c in range(2):
            assert payload["projection_columns"][c] == model.projection[:, c].tolist()

    def test_round_trip(self, tmp_path):
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=6, seed=2)
        cfg = TrainConfig(K=3, d_prime=2, max_iters=20, rel_tol=1e-5)
        model = train(ds, cfg)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.projection, model.projection)
        assert np.array_equal(loaded.mean_vector, model.mean_vector)
        assert loaded.config == cfg
        assert loaded.objective_trace == model.objective_trace
        x = np.arange(6.0)
        assert np.array_equal(project(loaded, x), project(model, x))

    def test_schema_1_file_with_center_key_loads(self, tmp_path):
        # files written while TrainConfig had a ``center`` field carry the key;
        # a fit with center=False saved a zero mean_vector
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=6, seed=5)
        model = train(ds, TrainConfig(K=3, d_prime=2))
        assert "center" not in model_to_dict(model)["train_config"]
        model.mean_vector = np.zeros(6)
        payload = model_to_dict(model)
        payload["train_config"]["center"] = False
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        loaded = load_model(path)
        assert loaded.config == model.config
        assert np.array_equal(project(loaded, ds.features), project(model, ds.features))

    def test_schema_1_file_with_seed_key_loads(self, tmp_path):
        # files written while TrainConfig had a ``seed`` field carry the key
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=6, seed=6)
        model = train(ds, TrainConfig(K=3, d_prime=2))
        payload = model_to_dict(model)
        assert "seed" not in payload["train_config"]
        payload["train_config"]["seed"] = 7
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        loaded = load_model(path)
        assert loaded.config == model.config
        assert np.array_equal(project(loaded, ds.features), project(model, ds.features))

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            (lambda payload: payload.pop("d_prime"), r"lacks the keys \['d_prime'\]"),
            (lambda payload: payload["train_config"].pop("K"), r"train_config lacks the keys \['K'\]"),
            (lambda payload: payload["train_config"].pop("max_iters"), r"train_config lacks the keys \['max_iters'\]"),
            (lambda payload: payload.update(train_config=[]), "malformed model file"),
            (lambda payload: payload.update(objective_trace=5), "malformed model file"),
            (lambda payload: payload.update(projection_columns=5), "malformed model file"),
            (lambda payload: payload["mean_vector"].pop(), "mean_vector must have length 6"),
        ],
    )
    def test_malformed_file_named(self, tmp_path, edit, message):
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=6, seed=7)
        payload = model_to_dict(train(ds, TrainConfig(K=3, d_prime=2)))
        edit(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_model(path)

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object, not list"):
            load_model(path)

    def test_round_trip_baseline_config(self, tmp_path):
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=6, seed=3)
        model = train_pca(ds, 3)
        path = tmp_path / "pca.json"
        save_model(model, path)
        assert load_model(path).config == BaselineConfig("pca", 3)

    @pytest.mark.parametrize("config", [BaselineConfig("pca", 3), BaselineConfig("lpp", 3, K=3)])
    def test_closed_form_fit_loads_converged(self, tmp_path, config):
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=6, seed=3)
        model = fit_method(ds, config)
        assert model.converged
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path).converged

    @pytest.mark.parametrize(
        "config, iterations",
        [
            (TrainConfig(K=3, d_prime=2, max_iters=0), 0),
            (TrainConfig(K=3, d_prime=2, max_iters=1, rel_tol=0.0), 1),
            (TrainConfig(K=3, d_prime=2, max_iters=7, rel_tol=0.0), 7),
            (BaselineConfig("pca", 3), 0),
        ],
    )
    def test_round_trip_keeps_iterations_run(self, tmp_path, config, iterations):
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=6, seed=3)
        model = fit_method(ds, config)
        assert model.iterations_run == iterations
        # an nlp trace holds the start and one value per iteration; PCA's is empty
        assert len(model.objective_trace) == (iterations + 1 if config.method == "nlp" else 0)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.iterations_run == model.iterations_run
        assert loaded.objective_trace == model.objective_trace

    def test_rejects_unknown_schema_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValueError, match="schema_version"):
            load_model(path)

    def test_rejects_inconsistent_columns(self, tmp_path):
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=6, seed=4)
        model = train(ds, TrainConfig(K=3, d_prime=2))
        payload = model_to_dict(model)
        payload["d_prime"] = 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="projection_columns"):
            load_model(path)


class TestConfigDicts:
    @pytest.mark.parametrize(
        "config",
        [
            TrainConfig(K=5, d_prime=10, max_iters=30, rel_tol=1e-7),
            BaselineConfig("pca", 7),
            BaselineConfig("lpp", 4, K=9),
        ],
    )
    def test_round_trip(self, config):
        assert config_from_dict(config_to_dict(config)) == config

    def test_json_keys_are_the_fields(self):
        nlp = config_to_dict(TrainConfig(K=5, d_prime=3))
        assert nlp == {"method": "nlp", "K": 5, "d_prime": 3, "max_iters": 50, "rel_tol": 1e-6}
        assert config_to_dict(BaselineConfig("lpp", 4)) == {"method": "lpp", "d_prime": 4, "K": 5}

    def test_unknown_keys_ignored(self):
        payload = {**config_to_dict(TrainConfig(K=4, d_prime=2)), "seed": 3, "center": True, "extra": 1}
        assert config_from_dict(payload) == TrainConfig(K=4, d_prime=2)
        # older lpp files carry the heat-kernel width, which is always "auto" now
        lpp = {**config_to_dict(BaselineConfig("lpp", 3, K=4)), "heat_sigma": 0.5}
        assert config_from_dict(lpp) == BaselineConfig("lpp", 3, K=4)
        # older nlp files carry the eigen order and the initialization, which
        # are always the smallest eigenvalues and the principal basis now
        old_nlp = {"method": "nlp", "K": 4, "d_prime": 2, "max_iters": 30, "rel_tol": 1e-7,
                   "eigen_order": "largest", "init": "identity"}
        loaded = config_from_dict(old_nlp)
        assert loaded == TrainConfig(K=4, d_prime=2, max_iters=30, rel_tol=1e-7)
        assert [f.name for f in dataclasses.fields(loaded)] == ["K", "d_prime", "max_iters", "rel_tol"]

    def test_baseline_may_omit_k_and_heat_sigma(self):
        assert config_from_dict({"method": "lpp", "d_prime": 3}) == BaselineConfig("lpp", 3)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            config_from_dict({"method": "umap"})

    def test_unsupported_config_type_rejected(self):
        with pytest.raises(ValueError, match="unsupported config type SplitSpec"):
            config_to_dict(SplitSpec(0.5, 0))


class TestReports:
    def make_report(self):
        ds = gaussian_blobs(n_per_class=10, n_classes=2, d=6, seed=5)
        return run_experiment(ds, BaselineConfig("pca", 2), SplitSpec(0.5, 7, repeats=4))

    def test_json_is_canonical(self):
        a, b = self.make_report(), self.make_report()
        assert report_json(a) == report_json(b)

    def test_csv_one_row_per_repeat(self):
        report = self.make_report()
        lines = report_csv(report).strip().split("\n")
        assert lines[0] == "method,repeat,accuracy"
        assert len(lines) == 1 + 4
        assert lines[1].startswith("pca,0,")

    def test_json_carries_report_fields(self):
        payload = json.loads(report_json(self.make_report()))
        assert set(payload) == {
            "per_repeat_accuracy",
            "mean_accuracy",
            "std_accuracy",
            "method",
            "config_snapshot",
            "per_class_accuracy",
        }
        assert payload["config_snapshot"]["split"]["repeats"] == 4


class TestAtomicWrite:
    def test_no_temp_residue_on_success(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello")
        assert target.read_text() == "hello"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_missing_directory_leaves_nothing(self, tmp_path):
        target = tmp_path / "nodir" / "out.txt"
        with pytest.raises(OSError):
            atomic_write_text(target, "hello")
        assert not target.exists()

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "first")
        atomic_write_text(target, "second")
        assert target.read_text() == "second"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_block_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_bytes(b"old contents\n")
        with pytest.raises(RuntimeError, match="^interrupted$"):
            with atomic_open(target) as fh:
                fh.write("new contents, half written")
                fh.flush()
                assert len(list(tmp_path.glob(".out.txt.*.tmp"))) == 1
                raise RuntimeError("interrupted")
        assert not list(tmp_path.glob(".out.txt.*.tmp"))
        assert target.read_bytes() == b"old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
