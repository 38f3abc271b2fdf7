"""Golden test: every engine's exact I/O counters, trajectories and LBL logs.

The parity tests pin trajectories and the invariant tests pin inequalities;
this test pins the simulated counters themselves (block / vertex / on-demand
/ walk I/O, time slots, bucket executions, steps and the simulated clock)
with exact equality, so a refactor of the engines that changes the order or
grouping of any charge fails here. The fixture is written by
``tests/record_engine_counters.py``.
"""
import json

import pytest

from .record_engine_counters import FIXTURE, GROUPS, make_store, record_group

EXPECTED = json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("gid,graph,cache,physical", GROUPS, ids=[g[0] for g in GROUPS])
def test_counters_match_fixture(gid, graph, cache, physical, tmp_path):
    store = make_store(graph, tmp_path if physical else None)
    got = json.loads(json.dumps(record_group(store, cache)))
    want = EXPECTED[gid]
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key
