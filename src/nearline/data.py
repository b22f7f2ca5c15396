"""Dataset loading, validation, and repeatable train/test splits."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataFormatError(ValueError):
    """A file failed to parse; the message carries the row/column location."""


@dataclass(frozen=True)
class Dataset:
    """An n x d feature matrix with one integer class label per row.

    Instances are immutable (the arrays are marked read-only), so they are
    safe to share across threads.  Centering belongs to the training split
    (``nlp.TrainingSplit``), not to the dataset.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        # the public constructor copies, so the caller's arrays stay its own
        self._adopt(np.array(self.features, dtype=float), np.array(self.labels))

    @classmethod
    def _owning(cls, features: np.ndarray, labels: np.ndarray) -> Dataset:
        """A dataset over arrays no one else holds: validated and frozen in
        place, not copied."""
        dataset = object.__new__(cls)
        dataset._adopt(np.asarray(features, dtype=float), np.asarray(labels))
        return dataset

    def _adopt(self, feats: np.ndarray, labs: np.ndarray) -> None:
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        n, d = feats.shape
        if n < 2:
            raise ValueError(f"need at least 2 samples, got {n}")
        if d < 1:
            raise ValueError("need at least 1 feature dimension")
        if not np.isfinite(feats).all():
            bad = np.argwhere(~np.isfinite(feats))[0]
            raise ValueError(f"non-finite feature at row {bad[0]}, column {bad[1]}")
        if labs.shape != (n,):
            raise ValueError(f"labels must have exactly {n} entries, got shape {labs.shape}")
        if not np.issubdtype(labs.dtype, np.integer):
            if not np.all(labs == labs.astype(int)):
                raise ValueError("labels must be integers")
            labs = labs.astype(int)
        labs = labs.astype(np.int64)
        if (labs < 0).any():
            raise ValueError("class labels must be nonnegative")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> Dataset:
        """Row subset as a fresh dataset over the rows the indexing copies."""
        idx = np.asarray(indices, dtype=int)
        return Dataset._owning(self.features[idx], self.labels[idx])


@dataclass(frozen=True)
class SplitSpec:
    """Parameters of the repeated random train/test split protocol; every
    split is stratified by class (``split_indices``)."""

    train_fraction: float
    seed: int
    repeats: int = 10

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.repeats < 1:
            raise ValueError("repeats must be a positive integer")


def _parse_float(cell: str, row: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataFormatError(f"non-numeric cell at row {row}, column {col}: {cell!r}") from None
    if not np.isfinite(value):
        raise DataFormatError(f"non-finite value at row {row}, column {col}: {cell!r}")
    return value


def _is_numeric(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_csv(path, label_column="last") -> Dataset:
    """Load a comma-separated dataset, one sample per row.

    An optional header row is auto-detected: if any cell of the first row
    fails to parse as a number, it is treated as column names.
    ``label_column`` selects the class-id column by name (requires a header),
    integer index, or the string "last".

    The data rows are parsed in bulk by numpy.  Input the bulk parser
    rejects or cannot vouch for (cells only Python's ``float`` accepts,
    ragged rows, non-finite values, bad labels) goes through the
    cell-by-cell parser, which accepts what ``float`` and ``int`` accept
    and reports the row and column of anything else.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n").rstrip("\r") for line in fh]
    lines = [line for line in lines if line.strip() != ""]
    if not lines:
        raise DataFormatError(f"{path}: file contains no rows")

    header = None
    first = lines[0].split(",")
    if any(not _is_numeric(cell) for cell in first):
        header = [cell.strip() for cell in first]
        lines = lines[1:]
    if len(lines) < 2:
        raise DataFormatError(f"{path}: need at least 2 data rows, got {len(lines)}")

    width = lines[0].count(",") + 1
    if header is not None and len(header) != width:
        raise DataFormatError(f"{path}: header has {len(header)} columns, data rows have {width}")

    if label_column == "last":
        label_idx = width - 1
    elif isinstance(label_column, int):
        label_idx = label_column if label_column >= 0 else width + label_column
    else:
        if header is None:
            raise DataFormatError(
                f"{path}: label column {label_column!r} given by name but the file has no header"
            )
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise DataFormatError(f"{path}: no column named {label_column!r} in header") from None
    if not 0 <= label_idx < width:
        raise DataFormatError(f"{path}: label column index {label_idx} out of range for width {width}")

    parsed = _parse_bulk(lines, width, label_idx)
    if parsed is None:
        parsed = _parse_cells(path, lines, width, label_idx)
    return Dataset._owning(*parsed)


def _parse_bulk(lines: list[str], width: int, label_idx: int):
    """(features, labels) from numpy's parser, or None when the cell-by-cell
    parser must decide.  A file of one column, which has no feature column
    to split the label from, goes to the cell parser and on to ``Dataset``'s
    check."""
    if width < 2:
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != width or not np.isfinite(table).all():
        return None
    # split only as far as the label cell, not across every feature cell
    if label_idx == width - 1:
        cells = [line.rsplit(",", 1)[1] for line in lines]
    else:
        cells = [line.split(",", label_idx + 1)[label_idx] for line in lines]
    try:
        labels = np.array([int(cell) for cell in cells], dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    if (labels < 0).any():
        return None
    return np.delete(table, label_idx, axis=1), labels


def _parse_cells(path: Path, lines: list[str], width: int, label_idx: int):
    """(features, labels) parsed one cell at a time with ``float``/``int``;
    raises DataFormatError at the first bad row or cell."""
    features = np.empty((len(lines), width - 1), dtype=float)
    labels = np.empty(len(lines), dtype=np.int64)
    for r, line in enumerate(lines):
        row = line.split(",")
        if len(row) != width:
            raise DataFormatError(f"{path}: ragged row {r}: expected {width} cells, got {len(row)}")
        feat_col = 0
        for c, cell in enumerate(row):
            cell = cell.strip()
            if c == label_idx:
                try:
                    labels[r] = int(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: label at row {r}, column {c} is not an integer: {cell!r}"
                    ) from None
                except OverflowError:
                    raise DataFormatError(
                        f"{path}: label at row {r}, column {c} does not fit int64: {cell!r}"
                    ) from None
                if labels[r] < 0:
                    raise DataFormatError(f"{path}: negative label at row {r}, column {c}")
            else:
                features[r, feat_col] = _parse_float(cell, r, c)
                feat_col += 1
    return features, labels


def feature_csv(features: np.ndarray, labels: np.ndarray) -> str:
    """Feature rows plus a final label column as CSV text, floats at full
    round-trip precision (reloading reproduces the values bit for bit)."""
    lines = [",".join(repr(float(v)) for v in row) + f",{int(label)}" for row, label in zip(features, labels)]
    return "\n".join(lines) + "\n"


def save_csv(dataset: Dataset, path) -> None:
    """Write the dataset as ``feature_csv`` text."""
    Path(path).write_text(feature_csv(dataset.features, dataset.labels), encoding="utf-8")


def _read_pgm_tokens(data: bytes, path, count: int, offset: int) -> list[int]:
    # ASCII sample data: whitespace-separated integers after the header.
    text = data[offset:].split()
    if len(text) < count:
        raise DataFormatError(f"{path}: expected {count} ASCII samples, found {len(text)}")
    try:
        return [int(tok) for tok in text[:count]]
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad ASCII sample: {exc}") from None


# one header field: the whitespace and ``#`` comments before it, then its bytes
# (empty only at the end of the file)
_PGM_HEADER_FIELD = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]*)")


def load_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary (P5) or ASCII (P2) PGM image.

    Returns the pixel grid as a (height, width) integer array together with
    the file's maxval.  Header comments (``#`` to end of line) are skipped.
    As in libnetpbm, a comment glued to maxval runs to its newline, and that
    newline is the one byte that ends the header; with no newline, no sample
    follows.
    A sample outside ``[0, maxval]`` raises ``DataFormatError``.
    """
    path = Path(path)
    data = path.read_bytes()
    # Header: magic, width, height, maxval, separated by whitespace/comments.
    pos = 0
    fields = []
    for _ in range(4):
        match = _PGM_HEADER_FIELD.match(data, pos)
        if not match[1]:
            raise DataFormatError(f"{path}: corrupt PGM header: truncated")
        fields.append(match[1])
        pos = match.end()
    magic = fields[0].decode("ascii", errors="replace")
    if magic not in ("P2", "P5"):
        raise DataFormatError(f"{path}: corrupt PGM header: bad magic {magic!r}")
    try:
        width, height, maxval = (int(f) for f in fields[1:4])
    except ValueError:
        raise DataFormatError(f"{path}: corrupt PGM header: non-numeric dimensions") from None
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise DataFormatError(
            f"{path}: corrupt PGM header: width={width} height={height} maxval={maxval}"
        )
    if data.startswith(b"#", pos):  # a comment glued to maxval: its newline ends the header
        newline = data.find(b"\n", pos)
        pos = len(data) if newline < 0 else newline
    count = width * height
    out_of_range = f"{path}: sample value outside [0, maxval {maxval}]"
    if magic == "P2":
        values = _read_pgm_tokens(data, path, count, pos)
        try:
            pixels = np.array(values, dtype=np.int64)
        except OverflowError:
            raise DataFormatError(out_of_range) from None
    else:
        pos += 1  # single whitespace byte (or a glued comment's newline) after maxval
        bytes_per = 1 if maxval < 256 else 2
        need = count * bytes_per
        raster = data[pos : pos + need]
        if len(raster) < need:
            raise DataFormatError(f"{path}: expected {need} raster bytes, found {len(raster)}")
        dtype = np.uint8 if bytes_per == 1 else np.dtype(">u2")
        pixels = np.frombuffer(raster, dtype=dtype).astype(np.int64)
    if pixels.min(initial=0) < 0 or pixels.max(initial=0) > maxval:
        raise DataFormatError(out_of_range)
    return pixels.reshape(height, width), maxval


def load_pgm_dir(path) -> Dataset:
    """Load a directory of per-class subdirectories of PGM images.

    Class ids follow the lexicographic order of the subdirectory names; each
    image is flattened row-major and scaled by its maxval into [0, 1].  All
    images must share one width x height.  Every file is listed before any
    is read, so the rows are written straight into one n x d matrix.
    """
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"no such directory: {root}")
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not class_dirs:
        raise DataFormatError(f"{root}: no class subdirectories found")

    files, labels = [], []
    for class_id, class_dir in enumerate(class_dirs):
        found = sorted(p for p in class_dir.iterdir() if p.suffix.lower() == ".pgm")
        if not found:
            raise DataFormatError(f"{class_dir}: empty class directory (no .pgm files)")
        files += found
        labels += [class_id] * len(found)

    features, ref_shape = None, None
    for row, f in enumerate(files):
        grid, maxval = load_pgm(f)
        if features is None:
            features, ref_shape = np.empty((len(files), grid.size)), grid.shape
        elif grid.shape != ref_shape:
            raise DataFormatError(
                f"image dimension mismatch: {files[0]} is {ref_shape[1]}x{ref_shape[0]} "
                f"but {f} is {grid.shape[1]}x{grid.shape[0]}"
            )
        np.divide(grid.reshape(-1), maxval, out=features[row])
    return Dataset._owning(features, np.array(labels))


def _train_counts(class_sizes: np.ndarray, train_fraction: float) -> np.ndarray:
    """Per-class train counts: floor quotas plus largest-remainder top-up.

    The total is fixed to round-half-up of ``train_fraction * n`` so the
    global fraction is honored exactly; remainder seats go to the classes
    with the largest fractional quota, ties to the smaller class id.
    """
    n = int(class_sizes.sum())
    total = int(np.floor(train_fraction * n + 0.5))
    quotas = train_fraction * class_sizes
    counts = np.floor(quotas).astype(int)
    remainder = total - int(counts.sum())
    # the remainder is at most the number of classes, and with 0 < f < 1
    # every class has room for one more seat
    frac = quotas - np.floor(quotas)
    order = np.lexsort((np.arange(len(class_sizes)), -frac))
    counts[order[:remainder]] += 1
    return counts


def class_groups(labels: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct labels in increasing order and, for each, the indices of
    its rows in index order: one stable sort of the labels, cut where the
    label changes.  The per-class bookkeeping of the evaluation protocol
    (``split_indices``, ``evaluate``'s per-class accuracy) reads it instead
    of ``np.unique``, which in numpy 2 loads ``numpy.ma`` when asked for the
    values alone."""
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    groups = np.split(order, np.flatnonzero(ranked[1:] != ranked[:-1]) + 1)
    return labels[[rows[0] for rows in groups]], groups


def split_indices(labels: np.ndarray, spec: SplitSpec, repeat_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive (train, test) index arrays for one repeat, each
    class drawing its ``_train_counts`` share of train rows.  The classes are
    counted and grouped in one sorted pass over the labels (``class_groups``).

    Deterministic in (spec.seed, repeat_index): the generator is seeded with
    the pair, so every repeat has its own reproducible stream.
    """
    if not 0 <= repeat_index < spec.repeats:
        raise ValueError(f"repeat_index must be in [0, {spec.repeats}), got {repeat_index}")
    labels = np.asarray(labels)
    n = labels.shape[0]
    rng = np.random.default_rng([spec.seed, repeat_index])
    classes, by_class = class_groups(labels)
    counts = _train_counts(np.array([rows.size for rows in by_class]), spec.train_fraction)
    if (counts < 1).any():
        small = classes[np.argmin(counts)]
        raise ValueError(
            f"class {small} too small for stratified split at train_fraction {spec.train_fraction}"
        )
    train_parts = []
    for members, count in zip(by_class, counts):
        perm = rng.permutation(members.size)
        train_parts.append(members[perm[:count]])
    train = np.sort(np.concatenate(train_parts))

    mask = np.zeros(n, dtype=bool)
    mask[train] = True
    test = np.flatnonzero(~mask)
    if test.size == 0:
        raise ValueError("train_fraction leaves no test samples")
    return train, test


def random_split(dataset: Dataset, spec: SplitSpec, repeat_index: int) -> tuple[Dataset, Dataset]:
    """One repeat of the random split as (train, test) datasets."""
    train_idx, test_idx = split_indices(dataset.labels, spec, repeat_index)
    return dataset.subset(train_idx), dataset.subset(test_idx)
