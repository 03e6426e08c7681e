"""Helpers that cut every CSV body into a chosen number of ranges, check that
no forked worker of ``finpipe.table``'s range map is left behind, and delete the
typed twin that would let a read skip the text."""

import os
from pathlib import Path

import pytest

from finpipe import table


def in_ranges(monkeypatch, count):
    """Cut every body into ``count`` ranges, whatever its size and the CPUs."""
    monkeypatch.setattr(table, "RANGE_BYTES", 1)
    monkeypatch.setattr(table, "MAX_RANGES", count)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def without_twin(*paths):
    """Delete the typed twin of each of ``paths``, which must have one, so that reading
    it parses its text, in ranges and blocks."""
    for path in paths:
        table._twin_path(Path(path)).unlink()
