"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry


@pytest.fixture(scope="session", autouse=True)
def session_kernel_cache(tmp_path_factory):
    """Compiled event loops of this session are built into (and loaded
    from) pytest's own temp directory: the suite neither reads nor writes
    the user's ``~/.cache``, and every session exercises a cold build."""
    previous = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("xdg-cache"))
    yield
    if previous is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = previous


@pytest.fixture
def rng():
    """Deterministic numpy generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_geometry():
    """A small L2-like geometry: 16 sets x 8 ways x 128 B lines."""
    return CacheGeometry(size_bytes=16 * 8 * 128, assoc=8, line_bytes=128)


@pytest.fixture
def tiny_geometry():
    """A single-digit geometry: 4 sets x 4 ways."""
    return CacheGeometry(size_bytes=4 * 4 * 128, assoc=4, line_bytes=128)


def line_stream(rng, count: int, footprint: int, offset: int = 0):
    """Random line addresses over a footprint (list of Python ints)."""
    return [int(x) + offset for x in rng.integers(0, footprint, size=count)]


def sequential_stream(count: int, footprint: int, offset: int = 0):
    """A wrap-around sequential line stream."""
    return [offset + (i % footprint) for i in range(count)]


@pytest.fixture(autouse=True)
def cold_engine_memos():
    """Every test starts with the process-wide window cache empty, so
    test order can never matter."""
    from repro.cmp.engine.common import clear_window_cache

    clear_window_cache()
