"""Self-tests of the benchmark's own code (no Spark, under a second):

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.per_layer_units()
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tracer_patches_every_binding_and_restores_them():
    import repro.core.grasorw as grasorw
    import repro.engines.bi_block as bi_block
    import repro.walks.models as models
    from repro.graphs.csr import CSR
    from repro.walks.state import Walks

    originals = (models.advance, bi_block.advance, grasorw.run_bi_block,
                 CSR.__dict__["has_arc"], Walks.__dict__["concat"])
    tr = Tracer(layers.TARGETS)
    tr.install()
    try:
        assert models.advance is bi_block.advance is not originals[0]
        assert grasorw.run_bi_block is not originals[2]
        assert isinstance(Walks.__dict__["concat"], classmethod)
        w = Walks.concat([Walks.from_sources(np.arange(3), np.arange(3))] * 2)
        assert len(w) == 6
    finally:
        tr.uninstall()
    assert (models.advance, bi_block.advance, grasorw.run_bi_block,
            CSR.__dict__["has_arc"], Walks.__dict__["concat"]) == originals
    concat = tr.summary(0)["walks.Walks.concat"]
    assert (concat["calls"], concat["work"]) == (1, 6)


def test_self_times_partition_the_root_span():
    mod = type(sys)("repro_fake_mod")
    sys.modules["repro.fake_mod"] = mod

    def leaf(n):
        time.sleep(0.01)
        return list(range(n))

    def mid(n):
        time.sleep(0.01)
        return mod.leaf(n) + mod.leaf(n)

    mod.leaf, mod.mid = leaf, mid
    tr = Tracer([Target("repro.fake_mod:leaf", "leaf", lambda a, k, out: len(out)),
                 Target("repro.fake_mod:mid", "mid")])
    tr.install()
    try:
        with tr.span("root") as root:
            mod.mid(4)
            time.sleep(0.01)
    finally:
        tr.uninstall()
        del sys.modules["repro.fake_mod"]
    s = tr.summary(root)
    assert s["leaf"]["calls"] == 2 and s["leaf"]["work"] == 8
    assert abs(s["mid"]["s"] - (s["leaf"]["s"] + s["mid"]["self_s"])) < 1e-9
    total_self = sum(v["self_s"] for v in s.values())
    assert abs(total_self - s["root"]["s"]) < 1e-9
    assert s["root"]["self_s"] >= 0.009
