"""Stream canaries: the first variates of each stochastic stage at seed 0.

The values were taken with numpy 2.4.6.  A numpy release may move a
distribution stream (NEP 19); the canary of the stage that moved then
fails under its own name, ahead of the output digests that depend on it.
"""
import numpy as np
import pytest

from slitsim.rng import derive_rng, resample_blocks, scan_counts, uniform_blocks

COUNTS = np.array([[3, 500, 10_000], [0, 1, 7], [40, 2, 900]])


def test_scan_counts_stream():
    assert scan_counts(0, np.array([3, 500, 1e4])).tolist() == [2, 537, 10069]


def test_resample_blocks_stream():
    first = next(resample_blocks(0, COUNTS, 2))
    assert first.tolist() == [[[2, 537, 10069], [0, 2, 6], [38, 0, 915]],
                              [[7, 472, 10007], [0, 3, 8], [47, 2, 886]]]


def test_uniform_blocks_stream():
    assert next(uniform_blocks(0, 1, 2)).tolist() == [[0.6369616873214543, 0.2697867137638703]]


@pytest.mark.parametrize("block_bytes", [1, 16, 72, 100, 2**20])
def test_blocks_give_the_bytes_of_one_draw(monkeypatch, block_bytes):
    monkeypatch.setattr("slitsim.rng._BLOCK_BYTES", block_bytes)
    uniforms = list(uniform_blocks(3, 10, 2))
    assert sum(len(u) for u in uniforms) == 10
    assert np.array_equal(np.concatenate(uniforms), derive_rng(3).random((10, 2)))
    slabs = list(resample_blocks(3, COUNTS, 10))
    assert sum(len(s) for s in slabs) == 10
    assert np.array_equal(np.concatenate(slabs), derive_rng(3).poisson(COUNTS, size=(10, 3, 3)))
