"""One benchmark sample: a fresh interpreter that sets up dvschur, runs one
workload once and reports timings, memory and every answer as JSON.

The parent (``run.py``) writes a job to standard input:

    {"src": <dir holding the dvschur package>, "t0": <launch time>,
     "workload": <name>, "trace": <bool>, "summands": [[a, b, c, twist], ...]}

``t0`` is the parent's ``time.perf_counter()`` just before it started this
process.  On Linux that clock is CLOCK_MONOTONIC, which all processes share,
so ``setup_s`` runs from process launch to the built factor table.

``calib_s`` holds three timings of ``calibrate``, a fixed loop: before
set-up, between set-up and run, and after the run.  They measure how fast the
host ran this sample; ``setup_s`` and ``run_s`` leave them out.  With
``"warmup": true`` the sample stops after set-up.

Untraced samples drive the public entry points the way users do:
``dvschur.cli.main`` for the fixed workloads (its standard output is returned
verbatim for the parent to parse and check) and ``koszul.chase_summand`` for
the sweep.  Traced samples replay the same inputs through the layer functions
in pipeline order, with a span around every call, and return the answers they
reach so the parent can compare them with the untraced ones.

This module imports only the standard library at the top, so whatever it
costs before dvschur is imported is the same for every program version.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import threading
import time

PRESET = "paper-4.2"
CLI_ARGV = {
    "table1": ["table1", "--overrides", PRESET],
    "ext-large": ["ext", "--lambda", "8,4,2,0", "--overrides", PRESET, "--summands"],
}
EXT_LARGE_LAMBDA = (8, 4, 2, 0)
SWEEP = "summand-sweep"

# Layers timed in the run (the factor table is timed inside set-up).
RUN_LAYERS = (
    "schur.end_decomposition",
    "koszul.build_complex",
    "bwb.e1_page",
    "koszul.chase",
    "ring.chi_endo",
)
FACTOR_TABLE = "plethysm.factor_table"


class Tracer:
    """Spans kept in memory: name, start, end and the enclosing span."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, child_time]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, 0.0]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent][4] += record[2] - record[1]

    def self_times(self) -> dict[str, float]:
        """Per span name, the summed duration not covered by child spans."""
        out: dict[str, float] = {}
        for name, start, end, _, child_time in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child_time
        return out


def calibrate(n: int = 60000) -> float:
    """Seconds a fixed loop of dict updates and integer arithmetic takes.

    The loop works in a small table and allocates nothing the garbage
    collector tracks, so it costs the same whatever the program has left on
    the heap; only the host's speed moves it.
    """
    start = time.perf_counter()
    table = dict.fromkeys(range(256), 0)
    acc = 0
    for i in range(n):
        key = (i * 97) & 255
        table[key] += i & 1023
        acc += (key * (i % 13) - (i & 7)) // (i % 13 + 1)
    return time.perf_counter() - start


def fmt_weight(w) -> str:
    return ",".join(str(x) for x in w)


def chase_answer(res) -> dict:
    """A chase result as the benchmark records and compares it."""
    return {
        "values": [[lo, hi] for lo, hi in res.values],
        "chi": res.euler,
        "conflicts": len(res.conflicts),
    }


def _sweep_untraced(koszul, summands) -> dict:
    overrides = koszul.load_overrides(PRESET)
    answers = {}
    for a, b, c, twist in summands:
        key = f"{a},{b},{c},{twist}"
        try:
            answers[key] = chase_answer(koszul.chase_summand((a, b, c, 0), twist, overrides))
        except Exception as exc:  # one failed answer must not hide the others
            answers[key] = {"error": repr(exc)}
    return answers


class Replay:
    """The pipeline run layer by layer, with spans and counters."""

    def __init__(self, tracer: Tracer):
        from dvschur import koszul

        self.tracer = tracer
        self.koszul = koszul
        self.overrides = koszul.load_overrides(PRESET)
        self.results: dict = {}
        self.uses = 0
        self.entries = 0
        self.matched = 0
        self.end_summands = 0

    def chase(self, q_weight, twist):
        """Cohomology of one normalised summand; each distinct one is chased once."""
        self.uses += 1
        key = (tuple(q_weight), twist)
        if key not in self.results:
            koszul, span = self.koszul, self.tracer.span
            with span("koszul.build_complex"):
                cx = koszul.build_complex(key[0], -twist)
            with span("bwb.e1_page"):
                page = koszul.e1_page(cx)
            with span("koszul.chase"):
                res = koszul.chase(page, self.overrides)
            self.results[key] = res
            self.entries += len(page.entries)
            self.matched += sum(
                ov.q_weight == key[0] and ov.twist == twist for ov in self.overrides
            )
        return self.results[key]

    def ext_rows(self, rows, with_summands: bool) -> dict:
        from dvschur import partitions, ring, schur

        span = self.tracer.span
        answers = {}
        for lam in rows:
            with span("schur.end_decomposition"):
                summands = schur.end_decomposition(partitions.canonicalize(lam))
            self.end_summands += len(summands)
            ext = [[0, 0] for _ in range(5)]
            for s in summands:
                res = self.chase(*s.normalized())
                for n, (lo, hi) in enumerate(res.values):
                    ext[n][0] += s.multiplicity * lo
                    ext[n][1] += s.multiplicity * hi
                if with_summands:
                    answers[f"summand={fmt_weight(s.q_weight)};{s.twist}"] = dict(
                        chase_answer(res), chi=None, mult=s.multiplicity
                    )
            with span("ring.chi_endo"):
                chi = ring.chi_endo(lam)
            answers[f"lambda={fmt_weight(lam)}"] = {"values": ext, "chi": chi, "conflicts": None}
        return answers

    def sweep(self, summands) -> dict:
        answers = {}
        for a, b, c, twist in summands:
            answers[f"{a},{b},{c},{twist}"] = chase_answer(self.chase((a, b, c, 0), twist))
        return answers


def _counting(fn, seen: set):
    """Wrap a cached layer function so the arguments it is called with are seen."""

    def wrapper(*args):
        seen.add(args)
        return fn(*args)

    return wrapper


def main() -> int:
    job = json.load(sys.stdin)
    calib = [calibrate()]  # host speed just before set-up
    workload = job["workload"]
    tracer = Tracer() if job["trace"] else None

    sys.path.insert(0, job["src"])
    import dvschur.cli  # the whole package, as a CLI user loads it
    from dvschur import bwb, koszul, plethysm, ring

    if not dvschur.__file__.startswith(job["src"]):
        raise SystemExit(f"dvschur imported from {dvschur.__file__}, not the checkout")
    if tracer is None:
        plethysm.koszul_factor_table()
    else:
        with tracer.span(FACTOR_TABLE):
            plethysm.koszul_factor_table()
    t_setup = time.perf_counter()
    calib.append(calibrate())  # between set-up and run
    out: dict = {"setup_s": t_setup - job["t0"] - calib[0], "calib_s": calib}
    if job.get("warmup"):
        out["threads"] = threading.active_count()
        json.dump(out, sys.stdout)
        return 0

    t_run = time.perf_counter()
    if tracer is None:
        if workload == SWEEP:
            out["answers"] = _sweep_untraced(koszul, job["summands"])
        else:
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    out["exit_code"] = dvschur.cli.main(CLI_ARGV[workload])
            except Exception as exc:
                out["error"] = repr(exc)
            out["stdout"] = stdout.getvalue()
        t_end = time.perf_counter()
    else:
        bott_before = bwb.bott.cache_info()
        oracle = ring.ch_oracle
        oracle_before = oracle.cache_info()
        oracle_args: set = set()
        ring.ch_oracle = _counting(oracle, oracle_args)
        replay = Replay(tracer)
        with tracer.span("run"):
            if workload == SWEEP:
                out["answers"] = replay.sweep(job["summands"])
            elif workload == "table1":
                from dvschur import ext

                out["answers"] = replay.ext_rows(ext.TABLE1_ROWS, False)
            else:
                out["answers"] = replay.ext_rows([EXT_LARGE_LAMBDA], True)
        t_end = time.perf_counter()
        bott_after = bwb.bott.cache_info()
        calls = (bott_after.hits + bott_after.misses) - (bott_before.hits + bott_before.misses)
        hits = bott_after.hits - bott_before.hits
        chases = len(replay.results)
        out["layers"] = tracer.self_times()
        out["counters"] = {
            "schur.end_summands": replay.end_summands,
            "bwb.bott_calls": calls,
            "bwb.bott_hit_ratio": hits / calls if calls else 0.0,
            "koszul.e1_entries": replay.entries,
            "koszul.chases": chases,
            "koszul.chase_reuse_ratio": (replay.uses - chases) / replay.uses,
            "koszul.conflicts": sum(len(r.conflicts) for r in replay.results.values()),
            "koszul.overrides_matched": replay.matched,
            "ring.ch_oracle_calls": oracle.cache_info().misses - oracle_before.misses,
            "ring.oracle_weights": sum(
                len(ring.weight_system(tuple(args[0]))) for args in oracle_args
            ),
        }
        out["spans"] = [[n, s - t_run, e - s, p] for n, s, e, p, _ in tracer.spans]
    out["run_s"] = t_end - t_run
    out["threads"] = threading.active_count()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calib.append(calibrate())  # host speed just after the run
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
