"""aspw benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload extension --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; aspw is imported from ./src with
no install, after byte-compiling it in place.  Every measurement runs in a fresh interpreter started by this
script, so caches warmed by one workload or probe never flatter another.

--trace 0  end-to-end metrics: setup_s (median over SETUP_PROBES fresh
           processes of the in-process time to import aspw and build the
           workload's fields, root groups and Witt tables, scaled by speed
           references timed here around each probe), per-query latency
           median and tail, throughput and the peak RSS added by aspw in a
           closed loop with one client.
--trace 1  per-layer metrics: one untraced and one traced pass over the same
           queries in two fresh processes; spans go to .bench_out/.

Outputs are checked in both modes: every query's canonical output is
digested, repeats must reproduce it, the traced digest must equal the
untraced one, and for seed DEFAULT_SEED the digest must equal the one
recorded in digests.json.  See METRICS.md for what each metric means and
which workload it should move on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import calibrate
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_PROBES = 15
# speed references timed here before each set-up probe and after the last
REFS_PER_PROBE = 3
DEFAULT_SEED = 0
DEADLINE_S = 170.0
OUT_DIR = ".bench_out"


def _worker(args, env, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("benchmark ran out of time")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=left)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    if not proc.stdout.strip():
        raise RuntimeError(f"worker {' '.join(args)} printed no result")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_seconds(workload, env, deadline):
    """Medians over the fresh-process set-up probes of (process wall seconds,
    in-process set-up seconds, the latter scaled by the references timed in
    this process just before and just after the probe)."""
    walls, inner, refs = [], [], []
    for _ in range(SETUP_PROBES):
        refs.append([calibrate.time_reference() for _ in range(REFS_PER_PROBE)])
        t0 = time.perf_counter()
        r = _worker(["--workload", workload, "--seed", "0", "--mode", "setup"], env, deadline)
        walls.append(time.perf_counter() - t0)
        inner.append(r["seconds"])
    refs.append([calibrate.time_reference() for _ in range(REFS_PER_PROBE)])
    scaled = [t * calibrate.REFERENCE_S / statistics.median(refs[i] + refs[i + 1])
              for i, t in enumerate(inner)]
    return statistics.median(walls), statistics.median(inner), statistics.median(scaled)


def nearest_rank(sorted_values, pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def _recorded_digest(workload):
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh).get(workload)


def _digest_problems(workload, seed, digests) -> list:
    problems = []
    if None in digests or len(set(digests)) != 1:
        problems.append(f"output digests disagree or are incomplete: {digests}")
    elif seed == DEFAULT_SEED and digests[0] != _recorded_digest(workload):
        problems.append(f"digest {digests[0]} differs from the recorded one for seed {seed}")
    return problems


def run_timed(name, seed, seconds, env, deadline):
    w = WORKLOADS[name]
    setup_wall, setup_raw, setup_s = _setup_seconds(name, env, deadline)
    r = _worker(["--workload", name, "--seed", str(seed), "--mode", "timed",
                 "--seconds", str(seconds)], env, deadline)
    pct = w.tail_percentile
    raw, lat = sorted(r["latencies"]), sorted(r["scaled"])
    done = len(lat) - r["timed_failed"]
    beyond = len(lat) - math.ceil(pct / 100.0 * len(lat))
    print(f"{name}: {len(lat)} timed queries ({r['queries']} distinct x {r['passes']} passes) "
          f"in {r['elapsed']:.2f} s; failed {r['failed']} of {r['attempted']} attempted")
    print(f"query_s.tail is p{pct:g}: {beyond} of {len(lat)} samples lie beyond it")
    print(f"set-up probe process wall time (interpreter start included): {setup_wall:.4f} s")
    print(f"unscaled wall times: setup {setup_raw:.4f} s, p50 {statistics.median(raw):.4f} s, "
          f"p{pct:g} {nearest_rank(raw, pct):.4f} s, {len(raw) / sum(raw):.3f} queries/s")
    problems = r["check_failures"] + _digest_problems(name, seed, [r["digest"]])
    metrics = {
        "setup_s": (setup_s, "s"),
        "query_s.p50": (statistics.median(lat), "s"),
        "query_s.tail": (nearest_rank(lat, pct), "s"),
        "throughput_qps": (done / sum(lat), "1/s"),
        "peak_rss_mb": (r["rss_mb"], "MB"),
    }
    return metrics, r["attempted"], r["failed"], problems


def run_traced(name, seed, env, deadline):
    w = WORKLOADS[name]
    base = ["--workload", name, "--seed", str(seed), "--mode", "timed"]
    plain = _worker(base, env, deadline)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{name}-{seed}.jsonl")
    traced = _worker(base + ["--trace", "--spans", spans], env, deadline)
    print(f"{name}: {traced['spans']} spans written to {spans}, "
          f"{traced['spans_dropped']} dropped over the cap")
    for key in traced["missing"]:
        print(f"note: {key} no longer exists; metrics summing it lose that part")
    problems = plain["check_failures"] + _digest_problems(
        name, seed, [plain["digest"], traced["digest"]])
    idle = [layer for layer in w.layers if traced["layer_calls"][layer] == 0]
    if idle:
        problems.append(f"layers with no calls on {name}: {idle}")
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.overhead_ratio"] = (sum(traced["scaled"]) / sum(plain["scaled"]), "ratio")
    attempted = plain["attempted"] + traced["attempted"]
    return metrics, attempted, plain["failed"] + traced["failed"], problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "aspw", "__init__.py")):
        print("error: run from the root of an aspw checkout (no src/aspw here)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    try:
        # byte-compile aspw once, outside every measurement, so that set-up
        # probes time aspw's own import work and not the compiler; checked-hash
        # .pyc files are revalidated against the source on every import
        subprocess.run([sys.executable, "-m", "compileall", "-q", "--invalidation-mode",
                        "checked-hash", os.path.join("src", "aspw")], check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        if args.trace:
            metrics, attempted, failed, problems = run_traced(
                args.workload, args.seed, env, deadline)
        else:
            metrics, attempted, failed, problems = run_timed(
                args.workload, args.seed, args.seconds, env, deadline)
    except (RuntimeError, TimeoutError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
