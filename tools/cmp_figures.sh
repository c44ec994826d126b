#!/usr/bin/env bash
# Byte-compare two bench_figures binaries over every figure:
#
#   tools/cmp_figures.sh OLD NEW
#
# OLD and NEW are bench_figures binaries, e.g. a parent commit's build
# and this tree's. Both must list the same figure ids. Each case runs
# on both binaries with the trace cache off (SP_TRACE_CACHE=off), and
# the script exits 1 at the first case whose stdout or exit status
# differs, printing the start of the diff. The cases:
#   - every id at SP_BENCH_WARMUP=2 SP_BENCH_MEASURE=3;
#   - fig13_speedup --quick as text and as --json, and --quick --json
#     under a drifting workload;
#   - table1_training_cost at the default counts.
# A shell's own SP_BENCH_* values are cleared, so they cannot move a
# case. About 40 s per binary on 4 cores.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 OLD NEW (two bench_figures binaries)" >&2
    exit 2
fi
old=$1
new=$2
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
export SP_TRACE_CACHE=off

# The ids from the "--figure is required; one of: ..." usage error.
ids() {
    { "$1" 2>&1 >/dev/null || true; } | sed -n 's/.*one of: //p' | tr -d ','
}
if [ "$(ids "$old")" != "$(ids "$new")" ]; then
    echo "DIFFERS: the figure ids" >&2
    diff <(ids "$old" | tr ' ' '\n') <(ids "$new" | tr ' ' '\n') >&2 || true
    exit 1
fi

# check LABEL [VAR=VALUE...] -- ARG...: run both binaries with the
# given environment and arguments; stop at the first difference.
check() {
    local label=$1 vars=()
    shift
    while [ "$1" != -- ]; do
        vars+=("$1")
        shift
    done
    shift
    local side status
    for side in old new; do
        local binary=$old
        [ $side = new ] && binary=$new
        status=0
        env -u SP_BENCH_WARMUP -u SP_BENCH_MEASURE ${vars[@]+"${vars[@]}"} \
            "$binary" "$@" > "$out/$side" 2>/dev/null || status=$?
        echo "exit $status" >> "$out/$side"
    done
    if ! cmp -s "$out/old" "$out/new"; then
        echo "DIFFERS: $label" >&2
        diff "$out/old" "$out/new" | head -n 20 >&2 || true
        exit 1
    fi
    echo "same: $label"
}

for id in $(ids "$new"); do
    check "$id" SP_BENCH_WARMUP=2 SP_BENCH_MEASURE=3 -- --figure "$id"
done
check "fig13_speedup --quick" -- --figure fig13_speedup --quick
check "fig13_speedup --quick --json" -- --figure fig13_speedup --quick --json
check "fig13_speedup --quick --json, drifting" -- \
    --figure fig13_speedup --quick --json \
    --workload drift_amp=0.4,drift_period=8
check "table1_training_cost, default counts" -- \
    --figure table1_training_cost
echo "all cases identical"
