"""Bucket-based in-memory walk management (§4.3.2, Eq. 4).

When block ``b`` is the current block, its (skewed-storage) walk pool is
split into buckets keyed by the *other* block of each walk,
``max(B(prev), B(cur))`` (Algorithm 1, lines 4–10). Walks that have not
taken their first step yet (``prev == -1``, so ``B(prev) == -1``) need only
the current block and go into the self-bucket ``b`` — the execution engine
processes it first, with no ancillary block, which realizes the paper's
initialization stage.

Combined with skewed storage, every bucket key ``p`` of pool ``b`` satisfies
``p >= b`` (triangular property): this is what lets the triangular schedule
iterate ancillary ids strictly upward.

:class:`ExtensionBuffers` reproduces the per-thread append buffers of §6.3:
walks that satisfy the bucket-extending condition (Algorithm 2, line 14) are
staged in a buffer and merged into the bucket right before it executes.
"""
from __future__ import annotations

import numpy as np

from repro.walks.state import Walks


def collect_buckets(
    walks: Walks, prev_block: np.ndarray, cur_block: np.ndarray
) -> dict[int, Walks]:
    """Split a pool's walks into buckets per Eq. 4: {bucket_id: Walks},
    keyed by ``max(prev_block, cur_block)``."""
    return dict(walks.groups(np.maximum(prev_block, cur_block)))


class ExtensionBuffers:
    """Append-only staging buffers for the bucket-extending strategy (§6.3).

    The paper avoids a mutex on the shared bucket by giving each thread a
    buffer that is merged into the bucket before that bucket executes; this
    class is the (single-driver) equivalent: contention-free by construction.
    """

    def __init__(self) -> None:
        self._buf: dict[int, list[Walks]] = {}

    def add(self, bucket_id_per_walk: np.ndarray, walks: Walks) -> None:
        for k, group in walks.groups(bucket_id_per_walk):
            self._buf.setdefault(k, []).append(group)

    def drain(self, bucket_id: int) -> Walks:
        """Merge and remove everything staged for ``bucket_id``."""
        parts = self._buf.pop(bucket_id, [])
        return Walks.concat(parts)

    def is_empty(self) -> bool:
        return not self._buf
