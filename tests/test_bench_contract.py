"""The benchmark's traced replay still runs against this package.

``bench/child.py`` replays the pipeline through ``koszul.build_complex``,
``koszul.e1_page`` and ``koszul.chase`` and reads ``bwb.bott.cache_info()``;
its ``ext-large`` and ``table1`` replays also call ``schur.end_decomposition``,
``ring.chi_endo`` and ``ring.weight_system``.  A change that drops one of them
breaks the benchmark, not the CLI.  These tests run traced samples the way
``bench/run.py`` does and check their answers.
"""

import json
import pathlib
import subprocess
import sys
import time

from dvschur.ext import ext_groups
from dvschur.koszul import chase_summand, load_overrides

ROOT = pathlib.Path(__file__).resolve().parent.parent
# (a, b, c, twist) for q_weight (a,b,c,0); the first is the paper-4.2 summand
SUMMANDS = [(5, 5, 2, -3), (2, 2, 0, -1), (10, 5, 5, -5)]


def traced_sample(workload, summands=()):
    job = {
        "src": str(ROOT / "src"),
        "t0": time.perf_counter(),
        "workload": workload,
        "trace": True,
        "summands": [list(s) for s in summands],
    }
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py")],
        input=json.dumps(job), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_sample_matches_chase_summand():
    out = traced_sample("summand-sweep", SUMMANDS)
    preset = load_overrides("paper-4.2")
    want = {}
    for a, b, c, twist in SUMMANDS:
        res = chase_summand((a, b, c, 0), twist, preset)
        want[f"{a},{b},{c},{twist}"] = {
            "values": [[lo, hi] for lo, hi in res.values],
            "chi": res.euler,
            "conflicts": len(res.conflicts),
        }
    assert out["answers"] == want
    assert want["5,5,2,-3"]["values"][2] == [2730, 2730]
    assert {"koszul.build_complex", "bwb.e1_page", "koszul.chase"} <= set(out["layers"])
    assert out["counters"]["koszul.chases"] == len(SUMMANDS)


def test_traced_ext_large_matches_ext_groups():
    out = traced_sample("ext-large")
    report = ext_groups((8, 4, 2, 0), load_overrides("paper-4.2"))
    answer = out["answers"]["lambda=8,4,2,0"]
    assert answer["values"] == [[lo, hi] for lo, hi in report.values]
    assert answer["chi"] == report.chi_check
    assert "schur.end_decomposition" in out["layers"]
    assert out["counters"]["ring.oracle_weights"] > 0


def test_traced_table1_counts_every_oracle_call():
    # the counters come from a wrapper on ring.ch_oracle: chi_endo must call
    # the oracle through the module, once per row, or the bench reads zero
    out = traced_sample("table1")
    assert len(out["answers"]) == 21
    assert out["counters"]["ring.ch_oracle_calls"] == 21
    assert out["counters"]["ring.oracle_weights"] == 841
