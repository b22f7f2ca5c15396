"""Shared pytest configuration.

Prints one PASS/FAIL line per acceptance criterion at the end of the run.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

import nearline.nlp


def centered(ds):
    """The rows of a dataset minus their column mean (oracle for the
    centering ``TrainingSplit`` does)."""
    return ds.features - ds.features.mean(axis=0)


@st.composite
def gapped_labels(draw):
    """Up to six distinct class labels with gaps between their values, each
    class of 1 to 9 rows, the rows in a random order."""
    values = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=6, unique=True))
    sizes = draw(st.lists(st.integers(1, 9), min_size=len(values), max_size=len(values)))
    labels = np.repeat(np.array(values, dtype=np.int64), sizes)
    return labels[draw(st.permutations(range(labels.size)))]


@pytest.fixture()
def split_work_spies():
    """Spies counting the Gram eigendecompositions (one per training split,
    shared by the nlp fit and the principal bases) and the neighbor searches
    a test runs."""
    nlp = nearline.nlp
    with mock.patch.object(nlp, "gram_eigh", wraps=nlp.gram_eigh) as rs, \
            mock.patch.object(nlp, "k_nearest_neighbors", wraps=nlp.k_nearest_neighbors) as knn:
        yield rs, knn


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    reports = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            if getattr(rep, "when", "call") != "call":
                continue
            if "test_acceptance.py" in rep.nodeid:
                reports.append(rep)
    if not reports:
        return
    terminalreporter.section("acceptance criteria")
    for rep in sorted(reports, key=lambda r: r.nodeid):
        status = "PASS" if rep.passed else "FAIL"
        name = rep.nodeid.split("::")[-1]
        terminalreporter.write_line(f"{status}  {name}")
