#!/usr/bin/env python3
"""Host-time benchmark of the ScratchPipe simulator.

    python3 perfbench/run.py --workload train_medium --seed 1 \
        --seconds 10 --trace 0

Builds the repository's library, spsim and the perfbench driver into
.bench_build/ (the first run compiles; later runs only relink what
changed), runs perfbench on one named workload and checks its simulated
outputs. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer ones with --trace 1. Earlier lines carry the host record,
the results digest and any broken check.

What is measured is host time -- how long the simulator takes -- never
the modeled seconds per iteration it reports; those are checked
outputs. BENCHMARK.json defines the metrics, layers.json records which
end-to-end metric each per-layer metric should move, on which workload.

Self-test of the output checks: python3 perfbench/test_checks.py
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

# Paper geometry (8 tables, dim 128, 20 lookups, batch 2048) with 1M
# rows per table: small enough for a run of seconds, large enough that
# every Hit-Map outgrows L2.
BATCH = 2048
GEOMETRY = ["--tables", "8", "--rows", "1000000", "--dim", "128",
            "--lookups", "20", "--batch", str(BATCH),
            "--iterations", "10", "--warmup", "5"]
SERVE = "serve:rate=500000,arrival=bursty,batch_max=16,budget_us=300,refresh=lru"
# Traced repetitions time each family alone on the workload's trace.
# The serving family is measured only there: its end-to-end host time
# (single-threaded, pointer-chasing) spreads too widely between runs on
# a shared host to carry a bound.
FAMILIES = ["hybrid", "static:cache=0.05", "strawman", "scratchpipe", SERVE]

WORKLOADS = {
    # Fig. 13's comparison: every training layer runs; most IDs hit, so
    # [Plan] time goes mostly to Hit-Map probes.
    "train_medium": {"specs": ["hybrid", "static:cache=0.05", "strawman",
                               "scratchpipe"],
                     "locality": "medium"},
    # Most IDs miss: [Plan] time goes to victim choice, Hit-Map
    # erase/insert and the fill/evict lists.
    "train_low": {"specs": ["strawman", "scratchpipe"], "locality": "low"},
}

TAIL_QUANTILES = (0.999, 0.99, 0.9, 0.75, 0.5)


def fail(message):
    """Exit without a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(command, timeout, capture=False):
    """Run `command` to completion; its output goes to stderr unless
    captured."""
    env = {k: v for k, v in os.environ.items() if k != "SP_FAULTS"}
    env["TMPDIR"] = str(BUILD / "tmp")  # compiler temporaries stay inside
    try:
        done = subprocess.run(command, env=env, timeout=timeout, text=True,
                              stdout=subprocess.PIPE if capture else sys.stderr,
                              stderr=sys.stderr)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(command)}")
    return done


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no simulator sources beside {HERE.name}/ (expected src/ and "
             "CMakeLists.txt at the repository root)")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        if run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                "-DCMAKE_BUILD_TYPE=Release"], 300).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    if run(["cmake", "--build", str(BUILD), "--target", "perfbench", "spsim",
            "-j", jobs], 840).returncode != 0:
        fail("build failed")


def workload_flags(workload, seed):
    return GEOMETRY + ["--seed", str(seed), "--locality", workload["locality"]]


def last_json_line(text, what):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{what} printed no report")


def nearest_rank(ordered, q):
    """Value at 1-based rank ceil(q * n), as metrics::PercentileReservoir."""
    return ordered[max(math.ceil(round(q * len(ordered), 6)), 1) - 1]


def end_to_end(report, specs):
    reps = report["reps"]
    simulate = statistics.median(r["simulate_s"] for r in reps)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "simulate_s": simulate,
        "wall_s": statistics.median(
            r["setup_s"] + r["simulate_s"] + r["json_s"] for r in reps),
        "sim_ids_per_s": report["ids_per_spec"] * len(specs) / simulate,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def per_layer(report):
    traced = report["traced"]
    values = {name: statistics.median(rep["layers"][name] for rep in traced)
              for name in traced[0]["layers"]}
    # Per-call plan timings: p50 and the highest percentile with at
    # least ten samples beyond it, with the sample count.
    calls = sorted(ms for rep in traced for ms in rep["plan_call_ms"])
    tail = next((q for q in TAIL_QUANTILES
                 if len(calls) - math.ceil(round(q * len(calls), 6)) >= 10),
                TAIL_QUANTILES[-1])
    values["core.plan.call_ms.p50"] = nearest_rank(calls, 0.5)
    values["core.plan.call_ms.ptail"] = nearest_rank(calls, tail)
    values["core.plan.call_ms.ptail_q"] = tail
    values["core.plan.call_ms.samples"] = len(calls)
    untraced = statistics.median(r["simulate_s"] for r in report["reps"])
    traced_simulate = statistics.median(r["simulate_s"] for r in traced)
    values["trace.overhead_frac"] = (traced_simulate - untraced) / untraced
    return values


def verify(report, specs, spsim_json):
    """Every broken check, as (message, failed operations it counts)."""
    broken = []
    reps = report["reps"]
    expected = reps[0]["digest"]
    observed = [(f"untraced rep {i}", r["digest"]) for i, r in enumerate(reps)]
    observed += [(f"traced rep {i}", r["digest"])
                 for i, r in enumerate(report["traced"])]
    observed += [("the reported results text", checks.fnv1a64(report["results"])),
                 ("spsim --format json", checks.fnv1a64(spsim_json))]
    broken += [(m, 1) for m in checks.check_digests(expected, observed)]
    try:
        results = json.loads(report["results"])
    except ValueError:
        return broken + [("results are not valid JSON", len(specs) * len(reps))]
    # Repetitions whose digest matched printed these same results.
    broken += [(m, len(reps)) for m in checks.check_results(results, specs, BATCH)]
    for i, rep in enumerate(report["traced"]):
        families = json.loads(rep["families"])
        found = checks.check_results(families, FAMILIES, BATCH)
        invariants = rep["invariants"]
        hits, misses = (int(invariants["replica_hits"]),
                        int(invariants["replica_misses"]))
        rows = [families[FAMILIES.index("scratchpipe")]]
        if "scratchpipe" in specs:
            rows.append(results[specs.index("scratchpipe")])
        for row in rows:
            found += checks.check_replica(hits, misses, row.get("hit_rate"))
        found += checks.check_invariants(invariants)
        broken += [(f"traced rep {i}: {m}", 1) for m in found]
    return broken


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    specs = workload["specs"]
    flags = workload_flags(workload, args.seed)

    build()
    spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.parent.mkdir(exist_ok=True)
    done = run([str(BUILD / "perfbench"), "--specs", ";".join(specs),
                "--families", ";".join(FAMILIES), "--name", args.workload,
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scratch", str(BUILD / "tmp"), "--spans", str(spans)]
               + flags, 150, capture=True)
    if done.returncode != 0:
        fail(f"perfbench exited with {done.returncode}")
    report = last_json_line(done.stdout, "perfbench")

    spsim = run([str(BUILD / "sp" / "spsim"), "--system", ",".join(specs),
                 "--jobs", str(report["host"]["pool_width"]),
                 "--no-trace-cache", "--format", "json"] + flags, 60,
                capture=True)
    broken = verify(report, specs, spsim.stdout.removesuffix("\n"))
    if spsim.returncode != 0:
        broken.append((f"spsim exited with {spsim.returncode}", len(specs)))

    host = report["host"]
    flagged = [what for what, bad in (
        (f"build type {host['build_type']}", host["build_type"] != "Release"),
        ("assertions on", host["assertions"]),
        ("SP_CHECK build", host["sp_check"]),
        (f"sanitizer {host['sanitize']}", bool(host["sanitize"])))
        if bad]
    print("host: " + json.dumps(host))
    if flagged:
        print("host flagged, timings not comparable: " + ", ".join(flagged))
    print(f"digest: {report['reps'][0]['digest']} over "
          f"{len(report['reps'])} untraced and {len(report['traced'])} traced "
          f"reps and spsim --format json; spans: {report['spans']}")
    for message, _ in broken:
        print(f"check failed: {message}")

    attempted = (len(report["reps"]) * len(specs) +
                 len(report["traced"]) * (len(specs) + len(FAMILIES)))
    failed = min(attempted, sum(count for _, count in broken))
    if args.trace:
        values = per_layer(report)
        kind = "per_layer"
    else:
        values = end_to_end(report, specs)
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    missing = sorted(set(units) - set(values))
    if missing:
        fail(f"no value for {', '.join(missing)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
