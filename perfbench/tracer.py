"""Per-layer spans for an in-process CLI run, recorded from outside ``src/``.

Each traced function is replaced, at the module attribute its callers look
it up by, with a wrapper that records a span (name, start, end, parent) and
updates exact counts.  Spans stay in memory until the benchmark writes them
out.  A layer's self time is its span duration minus its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from math import comb
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Span:
    run: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float


def _count_pgm_bytes(counts, args, result):
    counts["data.bytes_read"] += sum(p.stat().st_size for p in Path(args[0]).rglob("*.pgm"))


def _count_csv_bytes(counts, args, result):
    counts["data.bytes_read"] += Path(args[0]).stat().st_size


def _count_iterations(counts, args, result):
    counts["nlp.iterations"] += result.iterations_run


def _count_scatter(counts, args, result):
    dataset, index = args[0], args[1]
    features = getattr(dataset, "features", dataset)
    lines = index.lines.shape[0] * index.lines.shape[1]
    counts["nlp.lines"] += lines
    counts["nlp.scatter_flop"] += 2 * lines * features.shape[1] ** 2


def _count_eigen(counts, args, result):
    counts["nlp.eigen_dim"] = max(counts["nlp.eigen_dim"], args[0].shape[0])


def _count_pairs(counts, args, result):
    # candidate lines of the default within-class scope, the one the CLI uses
    _, sizes = np.unique(args[1], return_counts=True)
    counts["evaluate.nearest_line_pairs"] += sum(comb(int(s), 2) for s in sizes)


# span name -> (lookup sites "module:attribute", count hook)
TRACED = {
    "data.load_csv": (("nearline.cli:load_csv",), _count_csv_bytes),
    "data.load_pgm_dir": (("nearline.cli:load_pgm_dir",), _count_pgm_bytes),
    "data.split_indices": (("nearline.evaluate:split_indices",), None),
    "evaluate.run_experiment": (("nearline.cli:run_experiment",), None),
    "evaluate.fit_method": (("nearline.cli:fit_method", "nearline.evaluate:fit_method"), None),
    "evaluate.classify_1nn": (("nearline.evaluate:classify_1nn",), None),
    "evaluate.classify_nearest_line": (("nearline.evaluate:classify_nearest_line",), _count_pairs),
    "nlp.train": (("nearline.evaluate:train",), _count_iterations),
    "nlp.build_neighbor_lines": (("nearline.nlp:build_neighbor_lines",), None),
    "nlp.assemble_scatter": (("nearline.nlp:assemble_scatter",), _count_scatter),
    "nlp.objective": (("nearline.nlp:objective",), None),
    "nlp.eigen_step": (("nearline.nlp:eigen_step",), _count_eigen),
    "linalg.sym_eigh": (("nearline.nlp:sym_eigh",), None),
    "linalg.pca_basis": (("nearline.nlp:pca_basis",), None),
    "baselines.train_pca": (("nearline.evaluate:train_pca",), None),
    "baselines.train_lpp": (("nearline.evaluate:train_lpp",), None),
    "model_io.save_model": (("nearline.cli:save_model",), None),
    "model_io.write": (("nearline.cli:atomic_write_text", "nearline.model_io:atomic_write_text"), None),
}
ROOT_SPAN = "cli.main"
SPAN_NAMES = (ROOT_SPAN, *TRACED)
CALL_COUNTS = ("evaluate.classify_1nn", "evaluate.classify_nearest_line")


class Tracer:
    """Records spans of wrapped calls; one ``run`` id per traced CLI call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run = -1
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(self.run, span_id, parent, name, start, end))
            if count is not None:
                count(self.counts[self.run], args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every lookup site that exists; restore all of them on exit."""
        patched = []
        try:
            for name, (sites, count) in TRACED.items():
                for site in sites:
                    module_name, attr = site.split(":")
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr, None)
                    if original is None:
                        continue  # the program no longer has this entry point
                    setattr(module, attr, self.wrap(name, original, count))
                    patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def call(self, main, argv) -> tuple[int, float]:
        """Run ``main(argv)`` as a new traced run; returns (exit code, seconds)."""
        self.run += 1
        start = time.perf_counter()
        code = self.wrap(ROOT_SPAN, main)(argv)
        return code, time.perf_counter() - start

    def layer_metrics(self, run: int) -> dict[str, float]:
        """Self seconds per span name, call counts and exact counts of one run."""
        spans = [s for s in self.spans if s.run == run]
        child_time = Counter()
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        metrics = {f"{name}_s": 0.0 for name in SPAN_NAMES}
        calls = Counter(s.name for s in spans)
        for s in spans:
            metrics[f"{s.name}_s"] += (s.end - s.start) - child_time[s.id]
        for name in CALL_COUNTS:
            metrics[f"{name}_calls"] = calls[name]
        counts = self.counts[run]
        for name in ("nlp.iterations", "nlp.lines", "nlp.eigen_dim",
                     "evaluate.nearest_line_pairs", "data.bytes_read"):
            metrics[name] = counts[name]
        # computed from shapes, not measured
        metrics["nlp.scatter_gflop"] = counts["nlp.scatter_flop"] / 1e9
        metrics["nlp.eigen_input_mb"] = counts["nlp.eigen_dim"] ** 2 * 8 / 1e6
        return metrics

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)]
