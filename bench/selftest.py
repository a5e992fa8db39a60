"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs a tiny sweep (the paper-4.2 summands plus a few drawn ones) untraced and
traced, and checks that every metric named in BENCHMARK.json is emitted with
its unit, that the traced replay agrees with the untraced answers, and that a
deliberately corrupted recorded value is counted as a failed answer while a
widened recorded interval (a narrower answer) still passes.
"""

from __future__ import annotations

import copy
import json
import sys

import run

TINY = 4  # drawn summands, on top of the six paper-4.2 ones


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def tiny(trace: bool, expected=None) -> dict:
    return run.run_benchmark(run.child.SWEEP, 0, 0, trace, sweep_size=TINY,
                             expected=expected)["result"]


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = run.load_expected()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = tiny(trace)
        expect(result["correct"] and result["failed"] == 0, f"clean run incorrect: {result}")
        metrics = result["metrics"]
        for m in spec[key]:
            got = metrics.get(m["name"])
            expect(got is not None, f"{m['name']} not emitted with --trace {int(trace)}")
            expect(got["unit"] == m["unit"], f"{m['name']} has unit {got['unit']}, not {m['unit']}")
        expect(set(metrics) == {m["name"] for m in spec[key]},
               f"unlisted metrics emitted: {set(metrics) - {m['name'] for m in spec[key]}}")

    key = "5,5,2,-3"  # a paper-4.2 summand: always swept and always recorded
    recorded = expected[run.child.SWEEP][key]
    n = next(i for i, (lo, hi) in enumerate(recorded["values"]) if lo == hi and lo > 0)

    corrupt = copy.deepcopy(expected)
    corrupt[run.child.SWEEP][key]["values"][n] = [recorded["values"][n][0] + 1] * 2
    result = tiny(False, corrupt)
    expect(result["failed"] == 1 and not result["correct"],
           f"corrupted exact value not counted: {result}")

    corrupt = copy.deepcopy(expected)
    corrupt[run.child.SWEEP][key]["chi"] += 1
    result = tiny(False, corrupt)
    expect(result["failed"] == 1 and not result["correct"],
           f"corrupted Euler characteristic not counted: {result}")

    widened = copy.deepcopy(expected)
    lo = recorded["values"][n][0]
    widened[run.child.SWEEP][key]["values"][n] = [lo - 1, lo + 1]
    result = tiny(False, widened)
    expect(result["failed"] == 0 and result["correct"],
           f"an answer inside a wider recorded interval failed: {result}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
