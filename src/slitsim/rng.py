"""Deterministic random streams: the only module that draws random numbers.

Every stochastic stage derives its generator from an explicit integer seed
plus a stream key, so results never depend on execution order,
parallelism, or global state.  Each stage is one function: scan_counts,
resample_blocks and uniform_blocks.  The blocked stages yield whole rows
of one draw from one generator, at most _BLOCK_BYTES at a time, which
gives the bytes of the single draw while memory stays bounded.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# Largest block of one blocked draw held at once; both draws give 8-byte items.
_BLOCK_BYTES = 2**20


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for stream ``key`` of root ``seed``."""
    entropy = (int(seed),) + tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def child_seed(seed: int, *key: int) -> int:
    """Stable integer sub-seed for routines that take a plain seed."""
    entropy = (int(seed),) + tuple(int(k) for k in key)
    return int(np.random.SeedSequence(entropy=entropy).generate_state(1, np.uint64)[0])


def scan_counts(seed: int, mean: np.ndarray) -> np.ndarray:
    """One Poisson(mean) draw from stream seed."""
    return derive_rng(seed).poisson(mean)


def resample_blocks(seed: int, counts: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """Slabs of one Poisson(counts) draw of shape (n, *counts.shape) from stream seed."""
    return _blocks(seed, n, 8 * counts.size, lambda rng, rows: rng.poisson(counts, size=(rows, *counts.shape)))


def uniform_blocks(seed: int, n: int, width: int) -> Iterator[np.ndarray]:
    """Rows of one uniform draw of shape (n, width) from stream seed."""
    return _blocks(seed, n, 8 * width, lambda rng, rows: rng.random((rows, width)))


def _blocks(seed: int, n: int, row_bytes: int, draw) -> Iterator[np.ndarray]:
    rows = max(1, _BLOCK_BYTES // row_bytes)
    rng = derive_rng(seed)
    for lo in range(0, n, rows):
        yield draw(rng, min(rows, n - lo))
