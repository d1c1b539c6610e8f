"""One benchmark process: set up, run queries, check outputs, report JSON.

Modes (run.py starts each in a fresh interpreter with PYTHONPATH=src):

  setup  time `import aspw` and building the workload's fields, root groups
         and Witt tables in this process; reports the wall seconds
  timed  closed loop, one client: repeat passes over the seeded query list
         and stop at the pass boundary nearest to --seconds (at least one
         pass; one pass when --seconds is left out), then check the outputs;
         reports per-query latencies, raw and scaled to the reference speed,
         the peak RSS added by aspw and, with --trace, the per-layer metrics

The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
import traceback

import calibrate
from workloads import WORKLOADS

# queries run again after the timed phase to check they reproduce
RECHECK = 3
# untimed references before the first query: the first calls in a fresh
# process run slower and would mis-scale the first queries
WARMUP_REFS = 5


def _run_one(workload, query, fn):
    """(result, failure message or None) for one query."""
    try:
        result = fn()
    except Exception:  # a raising query is a failed query; keep the loop alive
        return None, traceback.format_exc(limit=-4)
    return result, workload.failure(query, result)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _pass(workload, queries, runners, state, tracer=None):
    """One pass over the list; returns (latencies, scaled latencies).
    state tracks first-pass results, per-query digests and failures."""
    latencies = []
    refs = []
    clock = time.perf_counter
    for i, (query, fn) in enumerate(zip(queries, runners)):
        if tracer is not None:
            tracer.query = i
        refs.append(calibrate.time_reference())
        t0 = clock()
        result, failure = _run_one(workload, query, fn)
        latencies.append(clock() - t0)
        _record(workload, state, i, query, result, failure)
    refs.append(calibrate.time_reference())
    scaled = [t * k for t, k in zip(latencies, calibrate.scales(refs, len(latencies)))]
    return latencies, scaled


def _record(workload, state, i, query, result, failure):
    state["attempted"] += 1
    if failure is None:
        digest = _digest(workload.render(query, result))
        if i not in state["digests"]:
            state["digests"][i] = digest
            state["results"][i] = result
        elif state["digests"][i] != digest:
            failure = "output differs from the first pass"
    if failure is not None:
        state["failed"] += 1
        if i not in state["reported"]:
            _report(state, i, query, failure)


def _report(state, i, query, failure):
    state["reported"].add(i)
    print(f"FAILED query {i}: {failure.strip()}\n  replay: {json.dumps(query)}", file=sys.stderr)


def _run_digest(state, n) -> str | None:
    if len(state["digests"]) != n:
        return None
    return _digest("".join(state["digests"][i] for i in range(n)))


def _checks(workload, queries, state) -> list:
    """Run the workload's output checks; a wrong answer fails its query."""
    done = [i for i in range(len(queries)) if i in state["results"]]
    try:
        wrong = workload.check([queries[i] for i in done], [state["results"][i] for i in done])
    except Exception:
        return ["output check raised:\n" + traceback.format_exc(limit=-6)]
    for k, message in wrong:
        i = done[k]
        if i not in state["reported"]:
            state["failed"] += 1
            _report(state, i, queries[i], message)
    return [message for _, message in wrong]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.mode == "setup":
        t0 = time.perf_counter()
        workload.setup()
        seconds = time.perf_counter() - t0
        print(json.dumps({"seconds": seconds}))
        return 0

    # the reference's table is built before aspw is imported, so that the
    # peak RSS above this baseline is aspw's alone
    calibrate.table()
    base_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    queries = workload.generate(random.Random(args.seed))
    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer().install()
        tracer.query = "setup"
    workload.setup()
    if tracer is not None:
        tracer.uninstall()
    runners = [workload.prepare(q) for q in queries]  # input parsing, untimed
    if tracer is not None:
        tracer.install()

    for _ in range(WARMUP_REFS):
        calibrate.time_reference()

    state = {"attempted": 0, "failed": 0, "digests": {}, "results": {}, "reported": set()}
    latencies, scaled = [], []
    passes = 0
    t0 = time.perf_counter()
    while True:
        raw, sc = _pass(workload, queries, runners, state, tracer)
        latencies += raw
        scaled += sc
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / passes / 2 >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base_rss) / 1024.0
    timed_failed = state["failed"]
    check_failures = []
    if tracer is None:
        for i in range(min(RECHECK, len(queries))):
            _record(workload, state, i, queries[i], *_run_one(workload, queries[i], runners[i]))
        check_failures = _checks(workload, queries, state)

    out = {
        "elapsed": elapsed, "passes": passes, "queries": len(queries),
        "attempted": state["attempted"], "failed": state["failed"], "timed_failed": timed_failed,
        "digest": _run_digest(state, len(queries)), "rss_mb": rss_mb,
        "latencies": latencies, "scaled": scaled, "check_failures": check_failures,
    }
    if tracer is not None:
        out["layers"] = {k: list(v) for k, v in tracer.layer_metrics().items()}
        out["layer_calls"] = tracer.layer_calls()
        out["missing"] = tracer.missing()
        out["spans"] = len(tracer.spans)
        out["spans_dropped"] = tracer.spans_dropped
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
