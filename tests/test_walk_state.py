"""Tests for walk state, 128-bit encoding, skewed storage (repro.walks.state)."""
import numpy as np
import pytest

from repro.walks.state import Walks, decode_walks, encode_walks, skewed_block_of


class TestWalks:
    def test_from_sources(self):
        w = Walks.from_sources(np.array([0, 1, 2]), np.array([5, 6, 7]))
        assert len(w) == 3
        assert np.array_equal(w.prev, [-1, -1, -1])
        assert np.array_equal(w.cur, [5, 6, 7])
        assert np.array_equal(w.hop, [0, 0, 0])

    def test_select(self):
        w = Walks.from_sources(np.arange(5), np.arange(10, 15))
        s = w.select(np.array([True, False, True, False, False]))
        assert np.array_equal(s.wid, [0, 2])
        assert np.array_equal(s.src, [10, 12])

    def test_select_copies(self):
        w = Walks.from_sources(np.arange(3), np.arange(3))
        s = w.select(np.array([True, True, True]))
        s.cur[0] = 99
        assert w.cur[0] != 99

    def test_concat(self):
        a = Walks.from_sources(np.array([0]), np.array([1]))
        b = Walks.from_sources(np.array([1]), np.array([2]))
        c = Walks.concat([a, b, Walks.empty()])
        assert len(c) == 2 and np.array_equal(c.src, [1, 2])

    def test_concat_empty(self):
        assert len(Walks.concat([])) == 0
        assert len(Walks.empty()) == 0


class TestGroups:
    def test_ascending_keys_in_group_order_kept(self):
        w = Walks.from_sources(np.arange(7), np.arange(10, 17))
        groups = w.groups(np.array([3, 1, 3, 0, 1, 3, 0]))
        assert [k for k, _ in groups] == [0, 1, 3]
        assert all(isinstance(k, int) for k, _ in groups)
        assert [g.wid.tolist() for _, g in groups] == [[3, 6], [1, 4], [0, 2, 5]]
        assert [g.src.tolist() for _, g in groups] == [[13, 16], [11, 14], [10, 12, 15]]

    def test_groups_are_copies(self):
        w = Walks.from_sources(np.arange(3), np.arange(3))
        (_, g), = w.groups(np.array([2, 2, 2]))
        g.cur[0] = 99
        assert w.cur[0] == 0

    def test_empty_batch(self):
        assert Walks.empty().groups(np.empty(0, dtype=np.int64)) == []

    def test_single_key(self):
        w = Walks.from_sources(np.array([5, 2, 8]), np.array([1, 2, 3]))
        (k, g), = w.groups(np.array([-1, -1, -1]))
        assert k == -1 and g.wid.tolist() == [5, 2, 8]


class TestSkewedStorage:
    def test_min_rule(self):
        """§4.3.1: walk w_u^v lives with block min(B(u), B(v))."""
        pb = np.array([2, 0, 3, 1])
        cb = np.array([1, 3, 3, 1])
        assert list(skewed_block_of(pb, cb)) == [1, 0, 3, 1]

    def test_no_prev_uses_cur(self):
        pb = np.array([-1, -1, 2])
        cb = np.array([4, 0, 1])
        assert list(skewed_block_of(pb, cb)) == [4, 0, 1]


class TestEncoding:
    def _roundtrip(self, walks, prev_b, cur_b, starts):
        w0, w1 = encode_walks(walks, prev_b, cur_b, starts)
        assert w0.dtype == np.uint64 and w1.dtype == np.uint64
        return decode_walks(w0, w1, starts, wid=walks.wid)

    def test_roundtrip(self):
        starts = np.array([0, 100, 250, 400])
        w = Walks(
            wid=np.array([0, 1, 2]),
            src=np.array([3, 150, 399]),
            prev=np.array([42, -1, 260]),
            cur=np.array([120, 7, 300]),
            hop=np.array([5, 0, 1023]),
        )
        prev_b = np.array([0, -1, 2])
        cur_b = np.array([1, 0, 2])
        d = self._roundtrip(w, prev_b, cur_b, starts)
        assert np.array_equal(d.src, w.src)
        assert np.array_equal(d.prev, w.prev)
        assert np.array_equal(d.cur, w.cur)
        assert np.array_equal(d.hop, w.hop)
        assert np.array_equal(d.wid, w.wid)

    def test_is_128_bits(self):
        """Paper Fig. 7: a walk fits in exactly two 64-bit words."""
        starts = np.array([0, 10])
        w = Walks.from_sources(np.array([0]), np.array([3]))
        w0, w1 = encode_walks(w, np.array([-1]), np.array([0]), starts)
        assert w0.itemsize + w1.itemsize == 16

    def test_hop_limit_enforced(self):
        """Paper §6.1: at most 1024 steps per walk."""
        starts = np.array([0, 10])
        w = Walks(
            wid=np.array([0]), src=np.array([1]), prev=np.array([2]),
            cur=np.array([3]), hop=np.array([1024]),
        )
        with pytest.raises(OverflowError):
            encode_walks(w, np.array([0]), np.array([0]), starts)

    def test_block_limit_enforced(self):
        """Paper §6.1: at most 1024 blocks."""
        starts = np.zeros(2000, dtype=np.int64)
        w = Walks(
            wid=np.array([0]), src=np.array([1]), prev=np.array([2]),
            cur=np.array([0]), hop=np.array([0]),
        )
        with pytest.raises(OverflowError):
            encode_walks(w, np.array([0]), np.array([1500]), starts)

    def test_many_random_roundtrips(self):
        rng = np.random.default_rng(0)
        starts = np.array([0, 50, 120, 300, 500])
        n = 500
        cur = rng.integers(0, 500, n)
        cur_b = np.searchsorted(starts, cur, side="right") - 1
        w = Walks(
            wid=np.arange(n),
            src=rng.integers(0, 500, n),
            prev=np.where(rng.random(n) < 0.1, -1, rng.integers(0, 500, n)),
            cur=cur,
            hop=rng.integers(0, 1024, n),
        )
        prev_b = np.where(w.prev < 0, -1, np.searchsorted(starts, np.maximum(w.prev, 0), side="right") - 1)
        d = self._roundtrip(w, prev_b, cur_b, starts)
        for f in ("src", "prev", "cur", "hop"):
            assert np.array_equal(getattr(d, f), getattr(w, f)), f
