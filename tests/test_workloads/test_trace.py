"""Unit tests for the Trace container."""

import hashlib

import numpy as np
import pytest

from repro.workloads.trace import Trace


class TestTrace:
    def test_basic_properties(self):
        trace = Trace("t", np.array([1, 2, 3, 2]), ipm=4.0, cpi_base=1.0)
        assert len(trace) == 4
        assert trace.instructions == 16
        assert trace.footprint_lines == 3

    def test_coerces_dtype(self):
        trace = Trace("t", np.array([1.0, 2.0]), ipm=2.0, cpi_base=1.0)
        assert trace.lines.dtype == np.int64

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Trace("t", np.array([]), ipm=4.0, cpi_base=1.0)

    def test_rejects_bad_ipm(self):
        with pytest.raises(ValueError):
            Trace("t", np.array([1]), ipm=0.0, cpi_base=1.0)

    def test_save_load_roundtrip(self, tmp_path):
        trace = Trace("roundtrip", np.array([5, 6, 7]), ipm=3.5, cpi_base=0.9)
        path = str(tmp_path / "trace.npz")
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == "roundtrip"
        assert (loaded.lines == trace.lines).all()
        assert loaded.ipm == 3.5
        assert loaded.cpi_base == 0.9

    @pytest.mark.parametrize("writes", [None, [True, False, False, True]])
    def test_fingerprint_is_the_tobytes_digest(self, writes):
        """Hashing the arrays in place gives the digest every store key
        was built with: the ``tobytes()`` copies it replaced."""
        trace = Trace("t", np.array([9, 1 << 40, -1, 7]), ipm=2.5,
                      cpi_base=1.25, writes=writes)
        old = hashlib.sha256(b"2.5:1.25:" + trace.lines.tobytes())
        if writes is not None:
            old.update(b"w" + trace.writes.tobytes())
        assert trace.fingerprint() == old.hexdigest()


class TestChunkViews:
    def test_chunk_view_is_a_view(self):
        trace = Trace("t", np.arange(100), ipm=4.0, cpi_base=1.0)
        view = trace.chunk_view(10, 20)
        assert len(view) == 20
        assert view.base is trace.lines or view.base is trace.lines.base
        assert view[0] == 10

    def test_chunk_view_clamps_to_end(self):
        trace = Trace("t", np.arange(100), ipm=4.0, cpi_base=1.0)
        assert len(trace.chunk_view(90, 50)) == 10

    def test_chunk_view_validates(self):
        trace = Trace("t", np.arange(10), ipm=4.0, cpi_base=1.0)
        with pytest.raises(ValueError):
            trace.chunk_view(10, 1)
        with pytest.raises(ValueError):
            trace.chunk_view(0, 0)

    def test_chunk_views_cover_the_pass(self):
        trace = Trace("t", np.arange(100), ipm=4.0, cpi_base=1.0)
        parts = [trace.chunk_view(start, 32) for start in range(0, 100, 32)]
        assert [len(p) for p in parts] == [32, 32, 32, 4]
        assert np.array_equal(np.concatenate(parts), trace.lines)
