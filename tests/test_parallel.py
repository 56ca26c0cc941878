import os

import numpy as np
import pytest

from dephimetry.parallel import CHUNK_SHOTS, chunk_rngs, map_ordered, worker_count


class TestWorkerCount:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("DEPHIMETRY_THREADS", raising=False)
        assert worker_count() == 1

    def test_env_respected(self, monkeypatch):
        monkeypatch.setenv("DEPHIMETRY_THREADS", "6")
        assert worker_count() == min(6, os.cpu_count())

    def test_capped_at_cpu_count(self, monkeypatch):
        # only the count is read: no pool is started at this size
        monkeypatch.setenv("DEPHIMETRY_THREADS", "1000000")
        assert 1 <= worker_count() <= os.cpu_count()

    @pytest.mark.parametrize("raw", ["0", "-3", "many", ""])
    def test_bad_values_fall_back(self, monkeypatch, raw):
        monkeypatch.setenv("DEPHIMETRY_THREADS", raw)
        assert worker_count() == 1


class TestMapOrdered:
    def test_preserves_order_sequential(self, monkeypatch):
        monkeypatch.delenv("DEPHIMETRY_THREADS", raising=False)
        assert map_ordered(lambda x: x * x, range(10)) == [x * x for x in range(10)]

    def test_preserves_order_threaded(self, monkeypatch):
        monkeypatch.setenv("DEPHIMETRY_THREADS", "4")
        assert map_ordered(lambda x: x * x, range(50)) == [x * x for x in range(50)]

    def test_empty(self):
        assert map_ordered(lambda x: x, []) == []


class TestChunkRngs:
    def test_partition_sizes(self):
        jobs = chunk_rngs(0, 3 * CHUNK_SHOTS + 17)
        assert [size for _, size in jobs] == [CHUNK_SHOTS] * 3 + [17]

    def test_exact_multiple(self):
        jobs = chunk_rngs(0, 2 * CHUNK_SHOTS)
        assert [size for _, size in jobs] == [CHUNK_SHOTS] * 2

    def test_small_run_single_chunk(self):
        jobs = chunk_rngs(5, 100)
        assert len(jobs) == 1
        assert jobs[0][1] == 100

    def test_streams_reproducible(self):
        a = chunk_rngs(42, CHUNK_SHOTS + 1)
        b = chunk_rngs(42, CHUNK_SHOTS + 1)
        for (ra, _), (rb, _) in zip(a, b):
            np.testing.assert_array_equal(ra.random(8), rb.random(8))

    def test_streams_differ_across_chunks(self):
        jobs = chunk_rngs(42, 2 * CHUNK_SHOTS)
        x = jobs[0][0].random(8)
        y = jobs[1][0].random(8)
        assert not np.array_equal(x, y)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError, match="shots"):
            chunk_rngs(0, 0)
