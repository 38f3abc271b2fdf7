"""Walk state: column-bundle walk tables and the skewed walk storage rule
(§4.3.1).

Engines manipulate walks as a :class:`Walks` bundle of parallel int64 arrays
(the vectorized analogue of the paper's walk structs); :meth:`Walks.groups`
is the one way a batch is split by block. A walk carries only what the
engines read. The paper's 128-bit on-disk record (Fig. 7) is modelled by its
size alone: pools live in memory and walk I/O is charged at
``IOParams.walk_bytes`` (16 B) per walk.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Walks:
    """A batch of walks as parallel arrays (wid, prev, cur, hop).

    ``prev == -1`` marks a walk that has not yet taken its first step (the
    first transition is first-order, as in Node2vec).
    """

    wid: np.ndarray
    prev: np.ndarray
    cur: np.ndarray
    hop: np.ndarray

    @classmethod
    def from_sources(cls, wid: np.ndarray, src: np.ndarray) -> "Walks":
        wid = np.asarray(wid, dtype=np.int64)
        src = np.asarray(src, dtype=np.int64)
        return cls(
            wid=wid,
            prev=np.full(len(src), -1, dtype=np.int64),
            cur=src.copy(),
            hop=np.zeros(len(src), dtype=np.int64),
        )

    @classmethod
    def empty(cls) -> "Walks":
        z = np.empty(0, dtype=np.int64)
        return cls(z, z.copy(), z.copy(), z.copy())

    @classmethod
    def concat(cls, parts: list["Walks"]) -> "Walks":
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls.empty()
        return cls(
            wid=np.concatenate([p.wid for p in parts]),
            prev=np.concatenate([p.prev for p in parts]),
            cur=np.concatenate([p.cur for p in parts]),
            hop=np.concatenate([p.hop for p in parts]),
        )

    def select(self, mask: np.ndarray) -> "Walks":
        return Walks(self.wid[mask], self.prev[mask], self.cur[mask], self.hop[mask])

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

