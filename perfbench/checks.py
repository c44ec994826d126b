"""Output checks of the simulator benchmark.

Simulated results are deterministic outputs the benchmark checks, not
metrics. Every function returns a list of broken-check messages (empty
when all hold); run.py counts each message as one failed operation, and
test_checks.py shows each check firing on a deliberately broken result.
"""

import math


def fnv1a64(text):
    """FNV-1a 64 digest of `text` as 16 hex digits (perfbench.cc's)."""
    value = 0xCBF29CE484222325
    for byte in text.encode():
        value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{value:016x}"


def spec_name(spec):
    """System family of a spec string: 'static:cache=0.05' -> 'static'."""
    return spec.split(":", 1)[0]


def check_results(results, specs, batch):
    """Check one sys::toJson array, whose rows follow `specs` in order."""
    if len(results) != len(specs):
        return [f"{len(results)} results for {len(specs)} specs"]
    broken = []
    for spec, row in zip(specs, results):
        if "error" in row:
            broken.append(f"{spec}: failed: {row['error']}")
            continue
        hit_rate = row.get("hit_rate")
        if hit_rate is not None and not 0.0 <= hit_rate <= 1.0:
            broken.append(f"{spec}: hit_rate {hit_rate} outside [0, 1]")
        seconds = row.get("seconds_per_iteration")
        if not (isinstance(seconds, (int, float)) and math.isfinite(seconds)
                and seconds > 0):
            broken.append(f"{spec}: s/iter {seconds} not finite and > 0")
        if spec_name(spec) == "serve":
            broken += check_serving(spec, row, batch)
    names = [spec_name(spec) for spec in specs]
    if "strawman" in names and "scratchpipe" in names:
        pipelined = results[names.index("scratchpipe")]
        sequential = results[names.index("strawman")]
        if not (pipelined.get("seconds_per_iteration", math.inf)
                <= sequential.get("seconds_per_iteration", -math.inf)):
            broken.append("scratchpipe s/iter exceeds strawman s/iter on "
                          "the same trace")
    return broken


def check_serving(spec, row, batch):
    """Request conservation and percentile order of a serve row."""
    serving = row.get("serving")
    if serving is None:
        return [f"{spec}: no serving record"]
    broken = []
    expected = row["iterations"] * batch
    if serving["requests"] + serving["dropped"] != expected:
        broken.append(f"{spec}: served {serving['requests']} + dropped "
                      f"{serving['dropped']} != {expected} requests")
    latency = serving["latency"]
    order = [latency[key] for key in ("p50", "p99", "p999", "max")]
    if order != sorted(order):
        broken.append(f"{spec}: latency p50 <= p99 <= p999 <= max fails: "
                      f"{order}")
    return broken


def check_digests(expected, observed):
    """Every (label, digest) pair in `observed` must equal `expected`."""
    return [f"digest of {label} is {value}, expected {expected}"
            for label, value in observed if value != expected]


def check_replica(hits, misses, hit_rate):
    """The serial plan replica must reproduce scratchpipe's hit rate
    exactly, which shows it did the same work."""
    replica = hits / (hits + misses) if hits + misses else math.nan
    if replica != hit_rate:
        return [f"plan replica hit rate {replica!r} != scratchpipe "
                f"hit_rate {hit_rate!r}"]
    return []


def check_invariants(invariants):
    """Cross-checks between the traced layer calls."""
    broken = []
    if invariants["plan_fanout_hits"] != invariants["replica_hits_all_batches"]:
        broken.append("PlanFanout and the serial plan replica disagree on "
                      "hits")
    if invariants["find_found"] != invariants["find_many_found"]:
        broken.append("HitMap::find and HitMap::findMany disagree on hits")
    if invariants["trace_cache_cold_hit"] != "false":
        broken.append("cold trace-cache acquire was served from the cache")
    if invariants["trace_cache_warm_hit"] != "true":
        broken.append("warm trace-cache acquire missed the cache")
    return broken
