import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gapped_labels
from nearline import data
from nearline.cli import main
from nearline.data import (
    DataFormatError,
    Dataset,
    SplitSpec,
    class_groups,
    load_csv,
    load_pgm,
    load_pgm_dir,
    save_csv,
    split_indices,
)
from nearline.nlp import TrainingSplit


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestDataset:
    def test_rejects_single_row(self):
        with pytest.raises(ValueError, match="at least 2"):
            Dataset(np.ones((1, 3)), np.array([0]))

    def test_rejects_non_finite(self):
        feats = np.ones((3, 2))
        feats[1, 1] = np.nan
        with pytest.raises(ValueError, match="row 1, column 1"):
            Dataset(feats, np.array([0, 0, 1]))

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Dataset(np.ones((2, 2)), np.array([0, -1]))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError, match="exactly 3"):
            Dataset(np.ones((3, 2)), np.array([0, 1]))

    def test_integral_float_labels_become_int64(self):
        ds = Dataset(np.zeros((3, 2)), [0.0, 1.0, 2.0])
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [0, 1, 2]

    @pytest.mark.parametrize(
        "features, labels, message",
        [
            (np.zeros((3, 2)), [0.0, 0.5, 1.0], "labels must be integers"),
            (np.zeros((2, 2, 2)), [0, 1], "features must be 2-D, got shape (2, 2, 2)"),
            (np.zeros((3, 0)), [0, 1, 1], "need at least 1 feature dimension"),
        ],
    )
    def test_rejects_malformed_input(self, features, labels, message):
        with pytest.raises(ValueError) as err:
            Dataset(features, labels)
        assert str(err.value) == message

    def test_arrays_are_read_only(self):
        ds = Dataset(np.ones((2, 2)), np.array([0, 1]))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0

    def test_constructor_copies_the_callers_arrays(self):
        feats, labels = np.ones((3, 2)), np.array([0, 0, 1])
        ds = Dataset(feats, labels)
        assert feats.flags.writeable and labels.flags.writeable
        feats[0, 0], labels[0] = 7.0, 2
        assert ds.features[0, 0] == 1.0 and ds.labels[0] == 0

    def test_subset_holds_one_copy_of_its_rows(self):
        n, d = 200, 644
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(size=(2 * n, d)), rng.integers(0, 40, size=2 * n))
        idx = np.sort(rng.choice(2 * n, size=n, replace=False))
        tracemalloc.start()
        try:
            sub = ds.subset(idx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * n * d * 8
        assert np.array_equal(sub.features, ds.features[idx]) and np.array_equal(sub.labels, ds.labels[idx])
        with pytest.raises(ValueError):
            sub.features[0, 0] = 5.0


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path / "x.csv", "1,2,0\n3,4,0\n5,6,1\n")
        ds = load_csv(path, 2)
        assert ds.n == 3 and ds.d == 2
        assert ds.labels.tolist() == [0, 0, 1]
        assert np.array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])

    def test_label_column_last(self, tmp_path):
        path = write(tmp_path / "x.csv", "1,2,0\n3,4,1\n")
        assert load_csv(path, "last").labels.tolist() == [0, 1]

    def test_header_autodetected_and_name_lookup(self, tmp_path):
        path = write(tmp_path / "x.csv", "f1,f2,target\n1,2,0\n3,4,1\n")
        ds = load_csv(path, "target")
        assert ds.labels.tolist() == [0, 1]
        assert np.array_equal(ds.features, [[1, 2], [3, 4]])

    def test_ragged_row_reports_index(self, tmp_path):
        path = write(tmp_path / "x.csv", "1,2,3,0\n1,2,0\n4,5,6,1\n")
        with pytest.raises(DataFormatError, match="ragged row 1"):
            load_csv(path)

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = write(tmp_path / "x.csv", "1,2,0\n3,oops,1\n")
        with pytest.raises(DataFormatError, match="row 1, column 1"):
            load_csv(path)

    def test_non_integer_label_rejected(self, tmp_path):
        path = write(tmp_path / "x.csv", "1,2,0.5\n3,4,1\n")
        with pytest.raises(DataFormatError, match="not an integer"):
            load_csv(path)

    def test_fewer_than_two_rows_rejected(self, tmp_path):
        path = write(tmp_path / "x.csv", "1,2,0\n")
        with pytest.raises(DataFormatError, match="at least 2"):
            load_csv(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(400, 1024)), rng.integers(0, 40, size=400))
        path = tmp_path / "big.csv"
        save_csv(ds, path)
        loaded = load_csv(path, "last")
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)


@st.composite
def csv_files(draw):
    """A feature matrix and labels, and the text of a CSV file holding them:
    optional header, label column anywhere, padded cells, CRLF or LF line
    ends, blank lines."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 5))
    value = st.floats(allow_nan=False, allow_infinity=False)
    features = np.array(draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n)))
    labels = np.array(draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)), dtype=np.int64)
    label_col = draw(st.integers(0, d))
    pad = st.sampled_from(["", " ", "  ", "\t"])
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(f"c{c}" for c in range(d + 1)))
    for row, label in zip(features.tolist(), labels.tolist()):
        cells = [repr(v) for v in row]
        cells.insert(label_col, str(label))
        lines.append(",".join(draw(pad) + cell + draw(pad) for cell in cells))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    return features, labels, label_col, eol.join(lines) + eol


def bits(a: np.ndarray) -> bytes:
    """Exact bytes of a float array: tells -0.0 from 0.0."""
    return np.ascontiguousarray(a, dtype=float).tobytes()


class TestLoadCsvBulkParse:
    @given(csv_files())
    @settings(deadline=None, max_examples=100)
    def test_bulk_and_cell_paths_agree_bit_for_bit(self, tmp_path_factory, case):
        features, labels, label_col, text = case
        path = tmp_path_factory.mktemp("csv") / "x.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(data, "_parse_cells", side_effect=AssertionError("fell back")):
            bulk = load_csv(path, label_col)
        with mock.patch.object(data, "_parse_bulk", return_value=None):
            cells = load_csv(path, label_col)
        for ds in (bulk, cells):
            assert bits(ds.features) == bits(features)
            assert ds.labels.tolist() == labels.tolist()

    def test_cells_only_python_parses_still_load(self, tmp_path):
        path = write(tmp_path / "x.csv", "1_0,2,0\n\u0661,4,1_1\n")
        ds = load_csv(path)
        assert ds.features.tolist() == [[10.0, 2.0], [1.0, 4.0]]
        assert ds.labels.tolist() == [0, 11]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,nan,0\n3,4,1\n", "non-finite value at row 0, column 1"),
            ("1,2,0\n3,1e999,1\n", "non-finite value at row 1, column 1"),
            ("1,2,0\n3,4\n", "ragged row 1: expected 3 cells, got 2"),
            ("1,2,0\n3,4,1,5\n", "ragged row 1: expected 3 cells, got 4"),
            ("1,2,0\n3,4,1.0\n", "label at row 1, column 2 is not an integer"),
            ("1,2,0\n3,4,-2\n", "negative label at row 1, column 2"),
        ],
    )
    def test_bad_files_keep_row_and_column_messages(self, tmp_path, text, message):
        path = write(tmp_path / "x.csv", text)
        with pytest.raises(DataFormatError, match=message):
            load_csv(path)

    def test_one_column_file_has_no_features(self, tmp_path):
        # no feature column to read: a ValueError, so the CLI exits 1
        path = write(tmp_path / "x.csv", "0\n1\n")
        with pytest.raises(ValueError, match="need at least 1 feature dimension"):
            load_csv(path)


def make_pgm(path, width, height, maxval=255, binary=True, value=None):
    pixels = np.arange(width * height) % (maxval + 1) if value is None else np.full(width * height, value)
    if binary:
        header = f"P5\n{width} {height}\n{maxval}\n".encode()
        path.write_bytes(header + bytes(int(v) for v in pixels))
    else:
        body = " ".join(str(int(v)) for v in pixels)
        path.write_text(f"P2\n# comment\n{width} {height}\n{maxval}\n{body}\n")
    return path


def loop_pgm_header(data):
    """The four PGM header fields and the offset just past the last, read
    one byte at a time, or None when the file ends first (oracle)."""
    pos = 0
    fields = []
    while len(fields) < 4:
        if pos >= len(data):
            return None
        ch = data[pos : pos + 1]
        if ch == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace() and data[end : end + 1] != b"#":
                end += 1
            fields.append(data[pos:end])
            pos = end
    return fields, pos


WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]


@st.composite
def pgm_files(draw):
    """P5 files whose header fields are separated by runs of every ASCII
    whitespace byte and ``#`` comments, some glued to the field before them,
    followed by a raster of any bytes; some are cut short anywhere, header
    included, and some end in a comment without a newline."""
    comment = st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\n", b""))
    piece = st.one_of(st.sampled_from(WHITESPACE), comment.map(lambda c: c + b"\n"))
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    fields = [b"P5", str(width).encode(), str(height).encode(), b"255"]
    data = b"".join(draw(st.lists(piece, max_size=3)))
    for field in fields:
        data += field + b"".join(draw(st.lists(piece, min_size=1, max_size=3)))
    data += draw(st.binary(max_size=12))
    data = data[: draw(st.integers(0, len(data)))]
    if draw(st.booleans()):
        data += draw(comment)
    return data


class TestPgm:
    @given(pgm_files())
    @example(b"P5 1 1 255#c\n\x07")  # a comment glued to maxval: the raster starts after its newline
    @example(b"P5 1 1 255#c")  # ... and without a newline there is no raster
    @example(b"P5\r\n1\x0b1\x0c255\t\x07")
    @example(b"P5 #\r9\n1 1 255 \x07")  # a comment ends at "\n" only
    @example(b"P5 1 1 #no newline")
    @example(b"P5")
    @example(b"P5 1")
    @example(b"P5 1 1")
    @example(b"P5 1 1 255")
    @settings(deadline=None, max_examples=300)
    def test_header_fields_match_the_byte_loop(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("pgm") / "x.pgm"
        path.write_bytes(raw)
        parsed = loop_pgm_header(raw)
        if parsed is None:
            with pytest.raises(DataFormatError, match="corrupt PGM header: truncated"):
                load_pgm(path)
            return
        fields, pos = parsed
        width, height, maxval = (int(f) for f in fields[1:])
        if raw[pos : pos + 1] == b"#":  # a comment glued to maxval ends at the newline that ends the header
            newline = raw.find(b"\n", pos)
            pos = len(raw) if newline < 0 else newline
        raster = raw[pos + 1 : pos + 1 + width * height]
        if len(raster) < width * height:
            with pytest.raises(DataFormatError, match=f"expected {width * height} raster bytes, found {len(raster)}"):
                load_pgm(path)
            return
        pixels = np.frombuffer(raster, dtype=np.uint8)
        if pixels.max() > maxval:  # maxval cut short, as "25"
            with pytest.raises(DataFormatError, match=rf"sample value outside \[0, maxval {maxval}\]"):
                load_pgm(path)
            return
        grid, got_maxval = load_pgm(path)
        assert got_maxval == maxval
        assert grid.tolist() == pixels.reshape(height, width).tolist()

    def test_ascii_comment_glued_to_maxval_runs_to_its_newline(self, tmp_path):
        """P2 follows P5's rule: the glued comment's newline ends the header,
        so the comment's text is never read as samples."""
        path = tmp_path / "glued.pgm"
        path.write_bytes(b"P2 1 1 255#c 9\n7\n")
        assert load_pgm(path)[0].tolist() == [[7]]
        path.write_bytes(b"P2 1 1 255#c 9")
        with pytest.raises(DataFormatError, match="expected 1 ASCII samples, found 0"):
            load_pgm(path)

    def test_layout_and_labels(self, tmp_path):
        for cls in ("alice", "bob"):
            (tmp_path / cls).mkdir()
            make_pgm(tmp_path / cls / "a.pgm", 4, 4)
            make_pgm(tmp_path / cls / "b.pgm", 4, 4, binary=False)
        ds = load_pgm_dir(tmp_path)
        assert ds.n == 4 and ds.d == 16
        assert ds.labels.tolist() == [0, 0, 1, 1]

    def test_scaling_by_maxval(self, tmp_path):
        (tmp_path / "c0").mkdir()
        (tmp_path / "c1").mkdir()
        make_pgm(tmp_path / "c0" / "full.pgm", 2, 2, maxval=255, value=255)
        make_pgm(tmp_path / "c1" / "half.pgm", 2, 2, maxval=200, value=100)
        ds = load_pgm_dir(tmp_path)
        assert np.allclose(ds.features[0], 1.0)
        assert np.allclose(ds.features[1], 0.5)

    def test_dimension_mismatch_names_both_files(self, tmp_path):
        (tmp_path / "c0").mkdir()
        make_pgm(tmp_path / "c0" / "small.pgm", 4, 4)
        make_pgm(tmp_path / "c0" / "wide.pgm", 8, 8)
        with pytest.raises(DataFormatError) as err:
            load_pgm_dir(tmp_path)
        assert "small.pgm" in str(err.value) and "wide.pgm" in str(err.value)

    def test_empty_class_dir_rejected(self, tmp_path):
        (tmp_path / "c0").mkdir()
        with pytest.raises(DataFormatError, match="empty class"):
            load_pgm_dir(tmp_path)

    def test_corrupt_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P9\n4 4\n255\n" + bytes(16))
        with pytest.raises(DataFormatError, match="bad magic"):
            load_pgm(bad)

    def test_truncated_raster_rejected(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(DataFormatError, match="raster"):
            load_pgm(bad)

    def test_sixteen_bit_binary(self, tmp_path):
        pgm = tmp_path / "deep.pgm"
        pixels = np.array([0, 1000, 40000, 65000], dtype=">u2")
        pgm.write_bytes(b"P5\n2 2\n65535\n" + pixels.tobytes())
        grid, maxval = load_pgm(pgm)
        assert maxval == 65535
        assert grid.reshape(-1).tolist() == [0, 1000, 40000, 65000]

    def test_rows_are_the_scaled_images_bit_for_bit(self, tmp_path):
        # class ids follow the lexicographic order of the directory names,
        # not the order they were made in; P5 8-bit, P5 16-bit and P2 mix
        deep = np.array([0, 1000, 40000, 65000, 12345, 7, 65535, 3, 99], dtype=">u2")
        makers = {
            "b": lambda f: make_pgm(f, 3, 3, maxval=251),
            "a2": lambda f: f.write_bytes(b"P5\n3 3\n65535\n" + deep.tobytes()),
            "a10": lambda f: make_pgm(f, 3, 3, maxval=97, binary=False),
        }
        for name, make in makers.items():
            (tmp_path / name).mkdir()
            for stem in ("y", "x"):
                make(tmp_path / name / f"{stem}.pgm")
        files = [tmp_path / name / f"{stem}.pgm" for name in ("a10", "a2", "b") for stem in ("x", "y")]
        ds = load_pgm_dir(tmp_path)
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [0, 0, 1, 1, 2, 2]
        for row, f in zip(ds.features, files):
            grid, maxval = load_pgm(f)
            assert row.tobytes() == (grid.reshape(-1).astype(float) / maxval).tobytes()

    def test_holds_one_copy_of_the_rows(self, tmp_path):
        classes, per_class, side = 4, 6, 64
        for c in range(classes):
            (tmp_path / f"c{c}").mkdir()
            for i in range(per_class):
                make_pgm(tmp_path / f"c{c}" / f"{i}.pgm", side, side)
        n, d = classes * per_class, side * side
        tracemalloc.start()
        try:
            load_pgm_dir(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * d * 8

    @pytest.mark.parametrize("samples", ["-3 4 5 6", "3 4 5 256", "3 4 5 99999999999999999999"])
    def test_ascii_sample_outside_range_rejected(self, tmp_path, samples):
        bad = tmp_path / "bad.pgm"
        bad.write_text(f"P2\n2 2 255\n{samples}\n")
        with pytest.raises(DataFormatError, match=r"sample value outside \[0, maxval 255\]"):
            load_pgm(bad)


class TestLoaderErrors:
    """Each malformed input raises with a message naming the problem, and
    ``nearline train`` exits 1 on it (2 on a missing directory)."""

    @staticmethod
    def _train(capsys, tmp_path, *flags):
        code = main(["train", *flags, "--dim", "1", "--out", str(tmp_path / "m.json")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, label_col, message",
        [
            ("\n\n", "last", "file contains no rows"),
            ("a,b,label\n1,2\n3,4\n", "last", "header has 3 columns, data rows have 2"),
            ("1,2,0\n3,4,1\n", "label", "label column 'label' given by name but the file has no header"),
            ("a,b,label\n1,2,0\n3,4,1\n", "target", "no column named 'target' in header"),
            ("1,2,0\n3,4,1\n", 5, "label column index 5 out of range for width 3"),
            ("1,2,0\n3,4,1\n", -4, "label column index -1 out of range for width 3"),
            (
                "1.0,2.0,0\n2.0,3.0,99999999999999999999\n3.0,1.0,1\n",
                "last",
                "label at row 1, column 2 does not fit int64: '99999999999999999999'",
            ),
        ],
    )
    def test_csv(self, tmp_path, capsys, text, label_col, message):
        path = write(tmp_path / "x.csv", text)
        message = f"{path}: {message}"
        with pytest.raises(DataFormatError) as err:
            load_csv(path, label_col)
        assert str(err.value) == message
        code, stderr = self._train(capsys, tmp_path, "--data", str(path), f"--label-col={label_col}")
        assert (code, stderr) == (1, f"error: {message}\n")

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"P5\n4 4\n", "corrupt PGM header: truncated"),
            (b"P5\nx 4\n255\n", "corrupt PGM header: non-numeric dimensions"),
            (b"P5\n0 4\n255\n", "corrupt PGM header: width=0 height=4 maxval=255"),
            (b"P2\n2 2\n0\n0 0 0 0\n", "corrupt PGM header: width=2 height=2 maxval=0"),
            (b"P2\n2 2\n255\n1 2 3\n", "expected 4 ASCII samples, found 3"),
            (b"P2\n2 2\n255\n1 2 x 4\n", "bad ASCII sample: invalid literal for int() with base 10: b'x'"),
        ],
    )
    def test_pgm(self, tmp_path, capsys, raw, message):
        (tmp_path / "faces" / "c0").mkdir(parents=True)
        path = tmp_path / "faces" / "c0" / "a.pgm"
        path.write_bytes(raw)
        message = f"{path}: {message}"
        with pytest.raises(DataFormatError) as err:
            load_pgm(path)
        assert str(err.value) == message
        code, stderr = self._train(capsys, tmp_path, "--data", str(tmp_path / "faces"), "--format", "pgm-dir")
        assert (code, stderr) == (1, f"error: {message}\n")

    def test_pgm_dir_missing(self, tmp_path, capsys):
        root = tmp_path / "nope"
        with pytest.raises(FileNotFoundError) as err:
            load_pgm_dir(root)
        assert str(err.value) == f"no such directory: {root}"
        code, stderr = self._train(capsys, tmp_path, "--data", str(root), "--format", "pgm-dir")
        assert (code, stderr) == (2, f"error: no such directory: {root}\n")

    def test_pgm_dir_without_class_directories(self, tmp_path, capsys):
        make_pgm(tmp_path / "stray.pgm", 2, 2)
        message = f"{tmp_path}: no class subdirectories found"
        with pytest.raises(DataFormatError) as err:
            load_pgm_dir(tmp_path)
        assert str(err.value) == message
        code, stderr = self._train(capsys, tmp_path, "--data", str(tmp_path), "--format", "pgm-dir")
        assert (code, stderr) == (1, f"error: {message}\n")


class TestCenter:
    """Centering of training rows, done in one place: ``nlp.TrainingSplit``."""

    def test_mean_and_rows_are_bit_exact(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.normal(5.0, 2.0, size=(40, 7)), rng.integers(0, 3, size=40))
        before = (ds.features.copy(), ds.labels.copy())
        split = TrainingSplit(ds)
        mean = ds.features.mean(axis=0)
        assert split.mean_vector.tobytes() == mean.tobytes()
        assert split.features.tobytes() == (ds.features - mean).tobytes()
        with pytest.raises(ValueError):
            split.features[0, 0] = 5.0
        assert np.array_equal(ds.features, before[0]) and np.array_equal(ds.labels, before[1])

    def test_of_keeps_a_split(self):
        split = TrainingSplit(Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1])))
        assert TrainingSplit.of(split) is split

    def test_means_vanish_after_centering(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.normal(5.0, 2.0, size=(100, 10)), rng.integers(0, 3, size=100))
        out = TrainingSplit(ds)
        assert np.abs(out.features.mean(axis=0)).max() < 1e-9

    def test_holds_one_copy_of_the_rows(self):
        n, d = 200, 644
        ds = Dataset(np.random.default_rng(3).normal(size=(n, d)), np.zeros(n, dtype=int))
        tracemalloc.start()
        try:
            TrainingSplit(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * d * 8


def mask_split_indices(labels, spec, repeat_index):
    """Oracle for ``split_indices``: each class counted with ``labels == c``
    and its members listed with ``np.flatnonzero``, one mask per class.
    None where ``split_indices`` must raise."""
    rng = np.random.default_rng([spec.seed, repeat_index])
    classes = np.unique(labels)
    sizes = np.array([(labels == c).sum() for c in classes])
    counts = data._train_counts(sizes, spec.train_fraction)
    if (counts < 1).any():
        return None
    train_parts = []
    for c, count in zip(classes, counts):
        members = np.flatnonzero(labels == c)
        train_parts.append(members[rng.permutation(members.size)[:count]])
    train = np.sort(np.concatenate(train_parts))
    test = np.setdiff1d(np.arange(labels.size), train)
    return (train, test) if test.size else None


class TestSplits:
    @given(gapped_labels())
    @settings(deadline=None)
    def test_class_groups_match_per_class_masks(self, labels):
        classes, groups = class_groups(labels)
        assert classes.dtype == labels.dtype
        assert classes.tolist() == np.unique(labels).tolist()
        assert [rows.tolist() for rows in groups] == [np.flatnonzero(labels == c).tolist() for c in classes]

    @given(
        gapped_labels(),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.data(),
    )
    @settings(deadline=None, max_examples=300)
    def test_matches_per_class_mask_oracle(self, labels, fraction, seed, repeats, draw):
        spec = SplitSpec(train_fraction=fraction, seed=seed, repeats=repeats)
        repeat = draw.draw(st.integers(0, repeats - 1))
        want = mask_split_indices(labels, spec, repeat)
        if want is None:
            with pytest.raises(ValueError):
                split_indices(labels, spec, repeat)
            return
        for got, expected in zip(split_indices(labels, spec, repeat), want):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_balanced_half_split_counts(self):
        labels = np.array([0] * 5 + [1] * 5)
        spec = SplitSpec(train_fraction=0.5, seed=3)
        train, test = split_indices(labels, spec, 0)
        assert train.size == 5 and test.size == 5
        counts = sorted((labels[train] == c).sum() for c in (0, 1))
        assert counts == [2, 3]

    def test_same_seed_reproduces_partition(self):
        labels = np.repeat(np.arange(4), 6)
        spec = SplitSpec(train_fraction=0.6, seed=17, repeats=5)
        first = split_indices(labels, spec, 3)
        second = split_indices(labels, spec, 3)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_frozen_expected_indices(self):
        # Frozen output pins the generator stream across releases/platforms.
        labels = np.repeat(np.arange(2), 5)
        spec = SplitSpec(train_fraction=0.5, seed=0)
        train, test = split_indices(labels, spec, 0)
        assert train.tolist() == [2, 3, 4, 6, 9]
        assert test.tolist() == [0, 1, 5, 7, 8]

    def test_partition_over_many_random_specs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            sizes = rng.integers(4, 12, size=int(rng.integers(2, 5)))
            labels = np.repeat(np.arange(sizes.size), sizes)
            spec = SplitSpec(
                train_fraction=float(rng.uniform(0.3, 0.7)),
                seed=int(rng.integers(0, 1_000_000)),
                repeats=int(rng.integers(1, 4)),
            )
            repeat = int(rng.integers(0, spec.repeats))
            train, test = split_indices(labels, spec, repeat)
            union = np.union1d(train, test)
            assert np.array_equal(union, np.arange(labels.size))
            assert np.intersect1d(train, test).size == 0
            counts = np.bincount(labels[train], minlength=sizes.size)
            assert ((1 <= counts) & (counts <= sizes)).all()
            assert counts.sum() == int(np.floor(spec.train_fraction * labels.size + 0.5))

    def test_distinct_repeats_differ(self):
        labels = np.repeat(np.arange(3), 20)
        spec = SplitSpec(train_fraction=0.5, seed=5, repeats=10)
        a = split_indices(labels, spec, 0)[0]
        b = split_indices(labels, spec, 1)[0]
        assert not np.array_equal(a, b)

    def test_class_too_small_rejected(self):
        labels = np.array([0] * 8 + [1])
        spec = SplitSpec(train_fraction=0.1, seed=2)
        with pytest.raises(ValueError, match="too small"):
            split_indices(labels, spec, 0)

    def test_repeat_index_out_of_range(self):
        labels = np.repeat(np.arange(2), 4)
        spec = SplitSpec(train_fraction=0.5, seed=2, repeats=3)
        with pytest.raises(ValueError, match="repeat_index"):
            split_indices(labels, spec, 3)

    def test_split_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0, seed=0)
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=0.5, seed=0, repeats=0)
