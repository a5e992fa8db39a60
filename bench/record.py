"""Write ``expected.json``: the answers the program gives when run now.

    python3 bench/record.py

The benchmark checks later versions against this record (exact values and
Euler characteristics must stay equal, intervals may only narrow), so run it
only to define the record, never to make a failing check pass.  The sweep is
recorded for the summands of ``RECORDED_SEEDS``; answers for other seeds get
the Euler-characteristic check alone.
"""

from __future__ import annotations

import json
import sys

import run

RECORDED_SEEDS = range(3)


def main() -> int:
    out = {}
    for workload in ("table1", "ext-large"):
        sample = run.run_child({"src": str(run.SRC), "workload": workload}, False)
        answers, bad = run.cli_answers(workload, sample)
        if bad or not answers:
            raise SystemExit(f"{workload}: the CLI output fails its own checks: {sorted(bad)}")
        out[workload] = answers
    summands = sorted({s for seed in RECORDED_SEEDS for s in run.sweep_inputs(seed)})
    job = {"src": str(run.SRC), "workload": run.child.SWEEP, "summands": summands}
    out[run.child.SWEEP] = run.run_child(job, False)["answers"]
    with open(run.HERE / "expected.json", "w") as fh:
        json.dump(out, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print({k: len(v) for k, v in out.items()}, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
