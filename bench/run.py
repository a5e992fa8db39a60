"""dvschur benchmark: cold-process workloads, answer checks, traced layer split.

    python3 bench/run.py --workload table1 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout (the package is imported from ``src/``).
Every sample is a fresh interpreter (``child.py``) that imports dvschur,
builds the Koszul factor table (set-up), runs the workload once (run) and
exits, because every CLI user pays for a cold process.  Samples run one at a
time, a closed loop with a single client, for as many whole samples as fit in
``--seconds``; one unmeasured set-up first compiles the bytecode and warms the
file cache.

Times are reported at a reference host speed: each sample also times a fixed
loop (``child.calibrate``) before set-up, between set-up and run, and after
the run, and each phase is scaled by the two loops that bracket it to a host
on which that loop takes ``REFERENCE_CALIBRATION_S``.  On a shared host other tenants slow a sample by
up to 2x, in phases from a fraction of a second to minutes; the loop, run in
the same process next to the work, is slowed alike and cancels it.  The
unscaled medians are printed too.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones of ``BENCHMARK.json``.  With ``--trace 1``
the run alternates untraced and traced samples; the traced ones replay the
inputs layer by layer with spans, must reach exactly the untraced answers,
and give the per-layer metrics.  The spans of the last traced sample go to
``.bench_out/trace-<workload>-seed<seed>.json``.

Every answer is checked against ``expected.json`` (values recorded from the
program when the benchmark was defined, see ``record.py``): exact cells and
Euler characteristics must be equal, intervals must lie inside the recorded
ones, and every Euler characteristic must lie in the alternating sum of its
intervals.  ``table1`` must also have no unannotated mismatch against the
published table.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import child  # noqa: E402  (the workload definitions shared with the samples)
from child import fmt_weight  # noqa: E402

WORKLOADS = ("table1", "ext-large", child.SWEEP)
SWEEP_SIZE = 400
MAX_A = 20
# The summands that the paper-4.2 overrides resolve; always in the sweep.
PAPER_SUMMANDS = (
    (5, 5, 2, -3), (7, 5, 4, -4), (6, 6, 4, -4), (5, 3, 0, -2), (7, 3, 2, -3), (6, 2, 0, -2),
)
CHILD_TIMEOUT_S = 60
# What child.calibrate takes in the fast phase of the shared 2-core host the
# benchmark was defined on; reported times are seconds at that speed.
REFERENCE_CALIBRATION_S = 0.016
# A sample that crashed, hung, printed no JSON or broke the load shape.
SAMPLE_ERRORS = (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError)
TRACE_DIR = ROOT / ".bench_out"


def sweep_inputs(seed: int, size: int = SWEEP_SIZE) -> list[tuple[int, int, int, int]]:
    """Distinct normalised summands (a, b, c, twist): q_weight (a,b,c,0), twist in [-a, 0].

    Stratified so that the totals barely depend on the seed: an equal share
    of the draws for every a = 0..20 (all summands where there are fewer),
    and within each a one summand drawn from each of equal runs of the pool
    ordered by (twist, b, c).  The paper-4.2 summands are appended so that the
    overrides are consumed.
    """
    rng = random.Random(seed)
    chosen = []
    left = size
    for a in range(MAX_A + 1):
        pool = sorted(
            ((a, b, c, t) for b in range(a + 1) for c in range(b + 1) for t in range(-a, 1)),
            key=lambda s: (s[3], s[1], s[2]),
        )
        take = min(left // (MAX_A + 1 - a), len(pool))
        for i in range(take):
            chosen.append(pool[rng.randrange(len(pool) * i // take, len(pool) * (i + 1) // take)])
        left -= take
    chosen += [s for s in PAPER_SUMMANDS if s not in chosen]
    return chosen


def run_child(job: dict, trace: bool) -> dict:
    """One sample in a fresh interpreter; raises RuntimeError when it fails."""
    payload = json.dumps(dict(job, trace=trace, t0=time.perf_counter()))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")],
        input=payload, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"sample exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    sample = json.loads(proc.stdout)
    if sample["threads"] != 1:
        raise RuntimeError(f"sample ran {sample['threads']} threads, not one")
    calib = sample["calib_s"]
    sample["scale"] = {  # each phase by the two loops that bracket it
        "setup_s": REFERENCE_CALIBRATION_S / statistics.fmean(calib[:2]),
        "run_s": REFERENCE_CALIBRATION_S / statistics.fmean(calib[1:]),
    }
    return sample


def at_reference(samples: list[dict], key: str) -> list[float]:
    """``setup_s`` or ``run_s`` of each sample, in seconds at the reference host speed."""
    return [s[key] * s["scale"][key] for s in samples]


# ---------------------------------------------------------------------------
# answers


def _cells(values) -> list[list[int]]:
    return [v if isinstance(v, list) else [v, v] for v in values]


def cli_answers(workload: str, sample: dict) -> tuple[dict, set]:
    """Answers parsed from the CLI output, and the ids that failed a CLI-side check."""
    if "error" in sample:
        raise RuntimeError(f"the CLI raised {sample['error']}")
    doc = json.loads(sample["stdout"])
    code = sample["exit_code"]
    rows = doc["rows"] if workload == "table1" else [doc]
    row_ids = {f"lambda={fmt_weight(r['lambda'])}" for r in rows}
    if workload == "table1":
        mismatches = doc["unannotated_mismatches"]
        bad = {
            f"lambda={fmt_weight(c['lambda'])}" for c in doc["diff"] if c["status"] == "mismatch"
        }
        if mismatches or code != 0:
            bad |= row_ids
    else:
        bad = set() if code == (0 if doc["exact"] else 2) else row_ids
    answers = {
        f"lambda={fmt_weight(r['lambda'])}": {
            "values": _cells(r["ext"]), "chi": r["chi"], "conflicts": None,
        }
        for r in rows
    }
    for s in doc.get("summands", ()):
        answers[f"summand={fmt_weight(s['weight'])};{s['twist']}"] = {
            "values": _cells(s["values"]), "chi": None,
            "conflicts": len(s["conflicts"]), "mult": s["mult"],
        }
    return answers, bad


def answer_ok(answer: dict, recorded: dict | None) -> bool:
    """The check behind ``failed``: see the module docstring."""
    if "error" in answer:
        return False
    values, chi = answer["values"], answer["chi"]
    if len(values) != 5 or any(lo > hi or lo < 0 for lo, hi in values):
        return False
    if chi is not None:
        lo = sum(v[0] if n % 2 == 0 else -v[1] for n, v in enumerate(values))
        hi = sum(v[1] if n % 2 == 0 else -v[0] for n, v in enumerate(values))
        if not lo <= chi <= hi:
            return False
    if recorded is None:
        return True
    if recorded["chi"] != chi or recorded.get("mult") != answer.get("mult"):
        return False
    return all(
        rlo <= lo and hi <= rhi for (lo, hi), (rlo, rhi) in zip(values, recorded["values"])
    )


def check(expected_ids, answers: dict, bad: set, recorded: dict) -> tuple[int, int]:
    """(attempted, failed) for one sample; a missing answer counts as failed."""
    failed = 0
    for key in expected_ids:
        answer = answers.get(key)
        if answer is None or key in bad or not answer_ok(answer, recorded.get(key)):
            failed += 1
    return len(expected_ids), failed


def interval_stats(answers: dict) -> dict:
    cells = [(lo, hi) for a in answers.values() if "values" in a for lo, hi in a["values"]]
    bounded = [(lo, hi) for lo, hi in cells if lo != hi]
    return {
        "bounded_cells": len(bounded),
        "interval_bits": sum(math.log2(hi - lo + 1) for lo, hi in bounded),
        "interval_width": sum(hi - lo for lo, hi in bounded),
    }


# ---------------------------------------------------------------------------
# one benchmark run


def tail_percentile(xs) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(xs)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(xs)[math.ceil(p * n / 100) - 1]


def load_expected() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  sweep_size: int = SWEEP_SIZE, expected: dict | None = None) -> dict:
    """Measure one workload; returns the result object the CLI prints last."""
    if expected is None:
        expected = load_expected()
    recorded = expected[workload]
    job = {"src": str(SRC), "workload": workload}
    if workload == child.SWEEP:
        job["summands"] = sweep_inputs(seed, sweep_size)
        ids = [fmt_weight(s) for s in job["summands"]]
    else:
        ids = list(recorded)

    untraced, traced, errors = [], [], []
    attempted = failed = 0
    reference = None  # the first untraced answers; every sample must agree

    def sample(trace_it: bool) -> None:
        nonlocal attempted, failed, reference
        try:
            s = run_child(job, trace_it)
            if trace_it or workload == child.SWEEP:
                answers, bad = s["answers"], set()
            else:
                answers, bad = cli_answers(workload, s)
        except SAMPLE_ERRORS as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
            attempted += len(ids)
            failed += len(ids)
            return
        a, f = check(ids, answers, bad, recorded)
        attempted += a
        failed += f
        if reference is None:
            reference = answers
        elif answers != reference:
            kind = "traced" if trace_it else "untraced"
            errors.append(f"{kind} answers differ from the first sample's")
        (traced if trace_it else untraced).append(s)

    try:  # warm-up: bytecode and file cache, not measured
        run_child(dict(job, warmup=True), False)
    except SAMPLE_ERRORS:
        pass  # the measured samples record the failure
    start = last = time.perf_counter()
    steps = []
    while True:  # stop before a step that would end after the deadline
        sample(False)
        if trace:
            sample(True)
        now = time.perf_counter()
        steps.append(now - last)
        last = now
        if now - start + statistics.median(steps) > seconds:
            break

    if not untraced or (trace and not traced):
        raise RuntimeError(f"no sample of {workload} succeeded: {errors[:3]}")
    run_s = at_reference(untraced, "run_s")
    stats = interval_stats(reference)
    summary = {
        "workload": workload, "seed": seed, "samples": len(untraced),
        "error_rate": failed / attempted,
        "run_s_median": statistics.median(run_s),
        "run_s_tail": tail_percentile(run_s),
        "raw_run_s_median": statistics.median(s["run_s"] for s in untraced),
        "raw_setup_s_median": statistics.median(s["setup_s"] for s in untraced),
        "calibration_s_median": statistics.median(
            statistics.fmean(s["calib_s"]) for s in untraced
        ),
        "interval_width": stats["interval_width"],
        "errors": errors[:5],
    }
    if not trace:
        metrics = {
            "setup_s": (statistics.median(at_reference(untraced, "setup_s")), "s"),
            "run_s": (statistics.median(run_s), "s"),
            "peak_rss_mb": (statistics.median([s["peak_rss_mb"] for s in untraced]), "MB"),
            "interval_bits": (stats["interval_bits"], "bits"),
            "bounded_cells": (stats["bounded_cells"], "count"),
        }
    else:
        metrics = layer_metrics(untraced, traced)
        if traced:
            TRACE_DIR.mkdir(exist_ok=True)
            with open(TRACE_DIR / f"trace-{workload}-seed{seed}.json", "w") as fh:
                json.dump({"workload": workload, "seed": seed, "metrics": metrics,
                           "spans": traced[-1]["spans"]}, fh)
    return {
        "summary": summary,
        "result": {
            "correct": not errors and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer medians from the traced samples, named as in BENCHMARK.json.

    Self-times are in seconds at the reference host speed, like ``run_s``.
    """
    def self_time(name):
        phase = "setup_s" if name == child.FACTOR_TABLE else "run_s"
        return statistics.median(
            [s["layers"].get(name, 0.0) * s["scale"][phase] for s in traced]
        )

    out = {child.FACTOR_TABLE + "_s": (self_time(child.FACTOR_TABLE), "s")}
    for name in child.RUN_LAYERS:
        out[name + "_s"] = (self_time(name), "s")
    units = {"bwb.bott_hit_ratio": "ratio", "koszul.chase_reuse_ratio": "ratio"}
    for name in traced[0]["counters"]:
        count = statistics.median([s["counters"][name] for s in traced])
        out[name] = (count, units.get(name, "count"))
    untraced_run = statistics.median(at_reference(untraced, "run_s"))
    run_layers = sum(out[name + "_s"][0] for name in child.RUN_LAYERS)
    out["other_s"] = (untraced_run - run_layers, "s")
    out["trace_overhead_s"] = (
        statistics.median(at_reference(traced, "run_s")) - untraced_run, "s"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; only summand-sweep depends on it")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dvschur" / "__init__.py").is_file():
        print(f"error: no dvschur package under {SRC}", file=sys.stderr)
        return 2
    try:
        out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    s = out["summary"]
    tail = s["run_s_tail"]
    print(f"workload={s['workload']} seed={s['seed']} samples={s['samples']} "
          f"error_rate={s['error_rate']:.4g} interval_width={s['interval_width']}")
    print(f"run_s median={s['run_s_median']:.4f} s over {s['samples']} samples"
          + (f", p{tail[0]}={tail[1]:.4f} s" if tail else "")
          + " (at the reference host speed)")
    print(f"unscaled medians: run {s['raw_run_s_median']:.4f} s, "
          f"set-up {s['raw_setup_s_median']:.4f} s, calibration loop "
          f"{s['calibration_s_median']:.4f} s (reference {REFERENCE_CALIBRATION_S} s)")
    for err in s["errors"]:
        print(f"error: {err}")
    for name, m in out["result"]["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
