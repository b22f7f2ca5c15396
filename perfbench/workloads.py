"""Benchmark workloads: seeded input generation, CLI argv, and output checks.

Every workload hands the ``nearline`` CLI nothing but generated files and a
fixed argv.  The inputs are a function of the workload instance alone, so the
same seed always produces the same files, and every output is checked: the
training objective against an independent recomputation, and every
accuracy against the reference recorded in ``reference.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np
import scipy.ndimage

from nearline.geometry import DegenerateLineError, point_line_sqdist
from nearline.synthetic import manifold_classes

# Inputs are drawn from `seed % INSTANCES`, the instances whose outputs were
# recorded in reference.json; any other seed would have nothing to check
# the accuracies against.
INSTANCES = 32
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Stored reference values are rounded to this many decimals; accuracies are
# multiples of 1/(test-set size), far coarser than the rounding.
REFERENCE_DECIMALS = 6
OBJECTIVE_RTOL = 1e-9           # trace's last row vs the oracle recomputation
REFERENCE_OBJECTIVE_RTOL = 1e-6  # trace's last row vs the recorded reference
ORTHONORMAL_ATOL = 1e-8

OUTPUTS = {
    "train": ("model.json", "model.trace.csv"),
    "evaluate": ("report.json", "report.csv"),
    "compare": ("compare.csv", "compare.table.txt"),
}


@dataclass(frozen=True)
class Faces:
    """Face-like 8-bit images: a smooth per-subject identity image on a
    shared template, plus shared pose/lighting modes with per-image weights,
    plus pixel noise.  The amplitudes keep nearest-line accuracy near 0.9,
    off both the floor and the ceiling."""

    subjects: int
    per_subject: int
    height: int
    width: int
    identity: float = 30.0
    modes: int = 6
    mode_amplitude: float = 10.0
    noise: float = 4.0

    def pixels(self, seed: int) -> np.ndarray:
        """(subjects, per_subject, height, width) uint8 images."""
        rng = np.random.default_rng(seed)
        h, w = self.height, self.width
        blur = h / 24.0  # feature size scales with the image
        yy, xx = np.mgrid[-1 : 1 : h * 1j, -1 : 1 : w * 1j]
        template = 110.0 + 60.0 * np.exp(-(xx**2 / 0.5 + yy**2 / 0.8))
        identity = scipy.ndimage.gaussian_filter(
            rng.normal(size=(self.subjects, h, w)), sigma=(0, blur, blur)
        )
        identity *= self.identity / identity.std()
        modes = scipy.ndimage.gaussian_filter(
            rng.normal(size=(self.modes, h, w)), sigma=(0, 1.5 * blur, 1.5 * blur)
        )
        modes /= modes.reshape(self.modes, -1).std(axis=1)[:, None, None]
        weights = self.mode_amplitude * rng.normal(size=(self.subjects, self.per_subject, self.modes))
        images = (
            template
            + identity[:, None]
            + np.einsum("spm,mhw->sphw", weights, modes)
            + self.noise * rng.normal(size=(self.subjects, self.per_subject, h, w))
        )
        return np.clip(np.rint(images), 0, 255).astype(np.uint8)

    def dataset(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """(features, labels) as the CLI sees them: subject-major rows."""
        pix = self.pixels(seed)
        features = pix.reshape(self.subjects * self.per_subject, -1)
        return features, np.repeat(np.arange(self.subjects), self.per_subject)


@dataclass(frozen=True)
class Manifold:
    """``nearline.synthetic.manifold_classes``, the paper's headline data."""

    n_per_class: int = 50
    ambient_dim: int = 50

    def dataset(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        ds = manifold_classes(n_per_class=self.n_per_class, ambient_dim=self.ambient_dim, seed=seed)
        return ds.features, ds.labels


@dataclass(frozen=True)
class Workload:
    name: str
    data: Faces | Manifold
    data_format: str          # "csv" or "pgm-dir"
    flags: tuple[str, ...]    # subcommand and flags, without --data/--seed/--out

    @property
    def command(self) -> str:
        return self.flags[0]

    def write_inputs(self, directory: Path, instance: int) -> Path:
        """Write this instance's input files; returns the --data path."""
        directory.mkdir(parents=True, exist_ok=True)
        if self.data_format == "pgm-dir":
            return _write_pgm_dir(directory / "faces", self.data, instance)
        features, labels = self.data.dataset(instance)
        path = directory / "data.csv"
        with open(path, "w", encoding="utf-8") as fh:
            for row, label in zip(features.tolist(), labels.tolist()):
                fh.write(",".join(map(repr, row)) + f",{label}\n")
        return path

    def cli_args(self, data_path: Path, out_dir: Path, instance: int) -> list[str]:
        out = out_dir / OUTPUTS[self.command][0]
        return [
            *self.flags,
            "--data", str(data_path), "--format", self.data_format,
            "--seed", str(instance), "--out", str(out), "--quiet",
        ]

    def result(self, out_dir: Path) -> dict:
        """The outputs the checks compare: objective or per-repeat accuracies.

        Raises OSError/ValueError/KeyError/IndexError on missing or malformed
        output files.
        """
        first, second = (out_dir / f for f in OUTPUTS[self.command])
        if self.command == "train":
            rows = second.read_text(encoding="utf-8").strip().split("\n")
            if rows[0] != "iteration,objective" or len(rows) < 2:
                raise ValueError(f"{second.name}: unexpected trace layout")
            return {"objective": float(rows[-1].split(",")[1])}
        if self.command == "evaluate":
            report = json.loads(first.read_text(encoding="utf-8"))
            rows = second.read_text(encoding="utf-8").strip().split("\n")[1:]
            accuracy = [float(row.split(",")[2]) for row in rows]
            if not np.isclose(np.mean(accuracy), report["mean_accuracy"], rtol=0, atol=1e-12):
                raise ValueError("report.json mean disagrees with report.csv")
            return {"accuracy": {"all": accuracy}}
        cells: dict[str, list[float]] = {}
        for row in first.read_text(encoding="utf-8").strip().split("\n")[1:]:
            method, dim, _, acc = row.split(",")
            cells.setdefault(f"{method}/{dim}", []).append(float(acc))
        if not second.read_text(encoding="utf-8").startswith("# d_prime"):
            raise ValueError(f"{second.name}: unexpected table layout")
        return {"accuracy": cells}


# The paper's d >> n regime (ORL at half resolution: d=2576, n=200).  The
# d x d eigen step and scatter assembly dominate, so a row-space reduction
# must show here, in time and memory.
FACES_TRAIN = Workload(
    name="faces_train",
    data=Faces(subjects=40, per_subject=5, height=56, width=46),
    data_format="pgm-dir",
    flags=("train", "--method", "nlp", "--k", "5", "--dim", "10", "--tol", "0", "--max-iters", "1"),
)
# The paper's headline comparison: many small fits with d < n, where
# per-iteration line passes dominate and a row-space reduction has nothing
# to remove (r = d = 50).  Fits run a fixed 30 iterations, about the mean
# needed to converge at the default tolerance: iterations to convergence
# vary by instance (IQR 5.5% of the total), which would make the timing
# differ between seeds.
MANIFOLD_COMPARE = Workload(
    name="manifold_compare",
    data=Manifold(),
    data_format="csv",
    flags=(
        "compare", "--methods", "nlp,pca,lpp", "--dims", "2,5,10", "--k", "5",
        "--train-frac", "0.5", "--tol", "0", "--max-iters", "30",
    ),
)
# No nlp at all: PCA plus the nearest-line classifier (2000 queries) on a
# parsed CSV.  Classifier and CSV-parsing changes show here; nlp changes
# must not move it.
FACES_NEAREST_LINE = Workload(
    name="faces_nearest_line",
    data=Faces(subjects=40, per_subject=10, height=28, width=23),
    data_format="csv",
    flags=(
        "evaluate", "--method", "pca", "--dim", "20",
        "--classifier", "nearest-line", "--train-frac", "0.5",
    ),
)
WORKLOADS = {w.name: w for w in (FACES_TRAIN, MANIFOLD_COMPARE, FACES_NEAREST_LINE)}


def _write_pgm_dir(root: Path, faces: Faces, instance: int) -> Path:
    pix = faces.pixels(instance)
    header = f"P5\n{faces.width} {faces.height}\n255\n".encode("ascii")
    for s in range(faces.subjects):
        subject_dir = root / f"s{s:03d}"
        subject_dir.mkdir(parents=True, exist_ok=True)
        for i in range(faces.per_subject):
            (subject_dir / f"{i:03d}.pgm").write_bytes(header + pix[s, i].tobytes())
    return root


def _flag(flags: tuple[str, ...], name: str) -> str:
    return flags[flags.index(name) + 1]


def oracle_objective(workload: Workload, instance: int, mean: np.ndarray, W: np.ndarray) -> float:
    """Final objective recomputed from the model by the scalar geometry oracle.

    Neighbors come from exact integer squared distances between the 8-bit
    images (ties to the smaller index, the library's documented rule); each
    sample's distance to every line through two of its neighbors is
    ``geometry.point_line_sqdist`` in the projected space, skipping
    degenerate lines as training does.
    """
    pixels, _ = workload.data.dataset(instance)
    K = int(_flag(workload.flags, "--k"))
    ints = pixels.astype(np.int64)
    Y = (pixels / 255.0 - mean) @ W
    total = 0.0
    for i in range(ints.shape[0]):
        d2 = ((ints - ints[i]) ** 2).sum(axis=1)
        d2[i] = np.iinfo(np.int64).max
        neighbors = np.sort(np.argsort(d2, kind="stable")[:K])
        for j, k in combinations(neighbors.tolist(), 2):
            try:
                total += point_line_sqdist(Y[i], Y[j], Y[k])
            except DegenerateLineError:
                continue
    return total


def check(workload: Workload, out_dir: Path, instance: int, reference: dict | None) -> tuple[list[str], dict]:
    """Problems found in one run's outputs (empty when correct), and the
    parsed result.  ``reference=None`` skips the comparisons with the
    recorded reference, which is how the reference itself is recorded."""
    missing = [f for f in OUTPUTS[workload.command] if not (out_dir / f).is_file()]
    if missing:
        return [f"missing output files: {missing}"], {}
    try:
        result = workload.result(out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"malformed output: {exc}"], {}
    problems = []
    if reference is not None and "accuracy" in result:
        problems += _compare_accuracy(result["accuracy"], reference["accuracy"])
    if workload.command == "train":
        problems += _check_model(workload, out_dir, instance, result["objective"])
        if reference is not None and not np.isclose(
            result["objective"], reference["objective"], rtol=REFERENCE_OBJECTIVE_RTOL, atol=0
        ):
            problems.append(f"objective {result['objective']!r} != reference {reference['objective']!r}")
    return problems, result


def _compare_accuracy(observed: dict, expected: dict) -> list[str]:
    if observed.keys() != expected.keys():
        return [f"accuracy cells {sorted(observed)} != reference {sorted(expected)}"]
    problems = []
    for cell, values in observed.items():
        rounded = [round(v, REFERENCE_DECIMALS) for v in values]
        if rounded != expected[cell]:
            problems.append(f"accuracy {cell}: {rounded} != reference {expected[cell]}")
    return problems


def _check_model(workload: Workload, out_dir: Path, instance: int, trace_objective: float) -> list[str]:
    try:
        model = json.loads((out_dir / "model.json").read_text(encoding="utf-8"))
        W = np.array(model["projection_columns"], dtype=float).T
        mean = np.array(model["mean_vector"], dtype=float)
    except (OSError, ValueError, KeyError) as exc:
        return [f"malformed model: {exc}"]
    dim = int(_flag(workload.flags, "--dim"))
    pixels, _ = workload.data.dataset(instance)
    if W.shape != (pixels.shape[1], dim) or mean.shape != (pixels.shape[1],):
        return [f"model shapes W {W.shape}, mean {mean.shape} do not match the data"]
    problems = []
    if not np.allclose(mean, (pixels / 255.0).mean(axis=0), rtol=0, atol=1e-12):
        problems.append("model mean_vector is not the training mean")
    gram_error = float(np.abs(W.T @ W - np.eye(dim)).max())
    if gram_error > ORTHONORMAL_ATOL:
        problems.append(f"W columns not orthonormal: max |W^T W - I| = {gram_error:.3e}")
    expected = oracle_objective(workload, instance, mean, W)
    if not np.isclose(trace_objective, expected, rtol=OBJECTIVE_RTOL, atol=0):
        problems.append(f"trace objective {trace_objective!r} != oracle recomputation {expected!r}")
    return problems


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def reference_entry(result: dict) -> dict:
    """The stored form of a result: the objective as is, accuracies rounded."""
    if "objective" in result:
        return {"objective": result["objective"]}
    return {
        "accuracy": {
            cell: [round(v, REFERENCE_DECIMALS) for v in values]
            for cell, values in result["accuracy"].items()
        }
    }
