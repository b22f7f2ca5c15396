"""Shared pytest configuration.

Prints one PASS/FAIL line per acceptance criterion at the end of the run.
"""

from unittest import mock

import pytest

import nearline.nlp


def centered(ds):
    """The rows of a dataset minus their column mean (oracle for the
    centering ``TrainingSplit`` does)."""
    return ds.features - ds.features.mean(axis=0)


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
