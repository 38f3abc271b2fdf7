"""Walk state: column-bundle walk tables, the paper's 128-bit encoding
(Fig. 7), and the skewed walk storage rule (§4.3.1).

Engines manipulate walks as a :class:`Walks` bundle of parallel int64 arrays
(the vectorized analogue of the paper's walk structs); :meth:`Walks.groups`
is the one way a batch is split by block. The 128-bit
``encode``/``decode`` pair reproduces the paper's on-disk representation —
source vertex, previous vertex, current-vertex block offset, previous/current
block ids and hop count packed into two 64-bit words — and is exercised by
the walk-pool I/O accounting (16 bytes per walk).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Bit widths of the 128-bit walk encoding. The paper allots enough bits for
# 4.3 trillion vertices, 1024 blocks and 1024 steps; we keep the same block
# and hop budgets. Word 0: src(42)|hop(10)|pre_block(10); word 1:
# pre_vertex(42)|cur_offset(12)|cur_block(10).
_SRC_BITS = 42
_PRE_BITS = 42
_CUROFF_BITS = 12
_BLK_BITS = 10
_HOP_BITS = 10


@dataclass
class Walks:
    """A batch of walks as parallel arrays (wid, src, prev, cur, hop).

    ``prev == -1`` marks a walk that has not yet taken its first step (the
    first transition is first-order, as in Node2vec).
    """

    wid: np.ndarray
    src: np.ndarray
    prev: np.ndarray
    cur: np.ndarray
    hop: np.ndarray

    @classmethod
    def from_sources(cls, wid: np.ndarray, src: np.ndarray) -> "Walks":
        wid = np.asarray(wid, dtype=np.int64)
        src = np.asarray(src, dtype=np.int64)
        return cls(
            wid=wid,
            src=src,
            prev=np.full(len(src), -1, dtype=np.int64),
            cur=src.copy(),
            hop=np.zeros(len(src), dtype=np.int64),
        )

    @classmethod
    def empty(cls) -> "Walks":
        z = np.empty(0, dtype=np.int64)
        return cls(z, z.copy(), z.copy(), z.copy(), z.copy())

    @classmethod
    def concat(cls, parts: list["Walks"]) -> "Walks":
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls.empty()
        return cls(
            wid=np.concatenate([p.wid for p in parts]),
            src=np.concatenate([p.src for p in parts]),
            prev=np.concatenate([p.prev for p in parts]),
            cur=np.concatenate([p.cur for p in parts]),
            hop=np.concatenate([p.hop for p in parts]),
        )

    def select(self, mask: np.ndarray) -> "Walks":
        return Walks(
            self.wid[mask], self.src[mask], self.prev[mask], self.cur[mask], self.hop[mask]
        )

    def groups(self, key: np.ndarray) -> list[tuple[int, "Walks"]]:
        """Split the batch by ``key`` (one int per walk): ``(k, walks)``
        pairs in ascending ``k``, each group in the batch's order. One
        stable argsort; every group is its own copy."""
        if not len(key):
            return []
        order = np.argsort(key, kind="stable")
        ks = key[order]
        cuts = np.flatnonzero(ks[1:] != ks[:-1]) + 1
        return [
            (int(ks[at]), self.select(idx))
            for at, idx in zip(np.r_[0, cuts], np.split(order, cuts))
        ]

    def __len__(self) -> int:
        return len(self.wid)


def skewed_block_of(prev_block: np.ndarray, cur_block: np.ndarray) -> np.ndarray:
    """Skewed walk storage rule (§4.3.1): walk w_u^v lives with block
    ``min(B(u), B(v))``; its bucket (Eq. 4) is the other block,
    ``max(B(u), B(v))``. Walks with no previous vertex (prev_block < 0)
    live with their current block."""
    return np.where(prev_block < 0, cur_block, np.minimum(prev_block, cur_block))


def encode_walks(
    walks: Walks, prev_block: np.ndarray, cur_block: np.ndarray, block_starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pack walks into the paper's 128-bit representation (two uint64 words).

    Layout (word0 high→low): src(42) | hop(10) | pre_block(10); word1:
    pre_vertex(42) | cur_offset(12) | cur_block(10) — with cur_offset the
    current vertex's offset inside its block, exactly as in Fig. 7.
    ``prev = -1`` is stored as the all-ones pre-vertex sentinel.
    """
    src = walks.src.astype(np.uint64)
    hop = walks.hop.astype(np.uint64)
    preb = (prev_block & ((1 << _BLK_BITS) - 1)).astype(np.uint64)
    curb = cur_block.astype(np.uint64)
    pre = np.where(walks.prev < 0, (1 << _PRE_BITS) - 1, walks.prev).astype(np.uint64)
    curoff = (walks.cur - block_starts[cur_block]).astype(np.uint64)
    for name, arr, bits in (
        ("src", src, _SRC_BITS),
        ("hop", hop, _HOP_BITS),
        ("pre", pre, _PRE_BITS),
        ("cur_offset", curoff, _CUROFF_BITS),
        ("cur_block", curb, _BLK_BITS),
    ):
        if len(arr) and int(arr.max()) >= (1 << bits):
            raise OverflowError(f"{name} exceeds its {bits}-bit field")
    w0 = (src << np.uint64(_HOP_BITS + _BLK_BITS)) | (hop << np.uint64(_BLK_BITS)) | preb
    w1 = (
        (pre << np.uint64(_CUROFF_BITS + _BLK_BITS))
        | (curoff << np.uint64(_BLK_BITS))
        | curb
    )
    return w0, w1


def decode_walks(
    w0: np.ndarray, w1: np.ndarray, block_starts: np.ndarray, wid: np.ndarray | None = None
) -> Walks:
    """Inverse of :func:`encode_walks` (wid is not stored on disk)."""
    mask = lambda bits: np.uint64((1 << bits) - 1)  # noqa: E731
    preb = (w0 & mask(_BLK_BITS)).astype(np.int64)
    hop = ((w0 >> np.uint64(_BLK_BITS)) & mask(_HOP_BITS)).astype(np.int64)
    src = (w0 >> np.uint64(_HOP_BITS + _BLK_BITS)).astype(np.int64)
    curb = (w1 & mask(_BLK_BITS)).astype(np.int64)
    curoff = ((w1 >> np.uint64(_BLK_BITS)) & mask(_CUROFF_BITS)).astype(np.int64)
    pre_raw = (w1 >> np.uint64(_CUROFF_BITS + _BLK_BITS)).astype(np.int64)
    prev = np.where(pre_raw == (1 << _PRE_BITS) - 1, -1, pre_raw)
    del preb  # recoverable from prev; kept for format fidelity only
    cur = np.asarray(block_starts)[curb] + curoff
    if wid is None:
        wid = np.arange(len(src), dtype=np.int64)
    return Walks(wid=np.asarray(wid, dtype=np.int64), src=src, prev=prev, cur=cur, hop=hop)
