"""The benchmark's traced replay still runs against this package.

``bench/child.py`` replays the pipeline through ``koszul.build_complex``,
``koszul.e1_page`` and ``koszul.chase`` and reads ``bwb.bott.cache_info()``;
a change that drops one of them breaks the benchmark, not the CLI.  This test
runs one traced sample the way ``bench/run.py`` does and checks its answers.
"""

import json
import pathlib
import subprocess
import sys
import time

from dvschur.koszul import chase_summand, get_preset

ROOT = pathlib.Path(__file__).resolve().parent.parent
# (a, b, c, twist) for q_weight (a,b,c,0); the first is the paper-4.2 summand
SUMMANDS = [(5, 5, 2, -3), (2, 2, 0, -1), (10, 5, 5, -5)]


def test_traced_sample_matches_chase_summand():
    job = {
        "src": str(ROOT / "src"),
        "t0": time.perf_counter(),
        "workload": "summand-sweep",
        "trace": True,
        "summands": [list(s) for s in SUMMANDS],
    }
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py")],
        input=json.dumps(job), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    preset = get_preset("paper-4.2")
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
