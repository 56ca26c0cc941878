"""Deterministic work partitioning with an optional thread pool.

Monte Carlo shot counts are split into fixed-size chunks and every chunk
gets its own child seed spawned from the root seed, so results depend only
on (seed, shots, CHUNK_SHOTS) and never on how many workers execute the
chunks.  The DEPHIMETRY_THREADS environment variable sets the pool size,
capped at os.cpu_count(); unset, invalid or 1 means sequential execution.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

THREADS_ENV_VAR = "DEPHIMETRY_THREADS"
CHUNK_SHOTS = 8192

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    """Pool size from DEPHIMETRY_THREADS, between 1 and os.cpu_count()."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    try:
        requested = int(raw)
    except ValueError:
        return 1
    return max(1, min(requested, os.cpu_count() or 1))


def map_ordered(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Map fn over items, returning results in input order."""
    items = list(items)
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def chunk_rngs(seed: int, shots: int) -> list[tuple[np.random.Generator, int]]:
    """Fixed partition policy: ceil(shots / CHUNK_SHOTS) chunks, chunk i
    seeded with the i-th child of SeedSequence(seed)."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    sizes: Sequence[int] = [CHUNK_SHOTS] * (shots // CHUNK_SHOTS)
    if shots % CHUNK_SHOTS:
        sizes = [*sizes, shots % CHUNK_SHOTS]
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return [(np.random.default_rng(child), size) for child, size in zip(children, sizes)]
