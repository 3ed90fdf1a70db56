"""Shared fixtures for the per-table/figure benchmarks.

Each ``bench_*`` module times the representative hot operation of one
table or figure with pytest-benchmark, and its ``test_*_report`` tests
run the experiment at a reduced size and assert the paper's shape (who
wins, what grows).  They write nothing: the full-size tables in
EXPERIMENTS.md are written by ``python -m repro.bench``.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def small_setup():
    """A small shared AP2G-tree setup reused across benchmark modules."""
    from repro.bench.harness import build_setup

    return build_setup(shape=(32, 8, 8))
