#!/usr/bin/env bash
# Regenerate the golden outputs after an intentional behaviour change.
# One command, from the repo root (builds spsim + bench_figures first):
#
#   tests/golden/regen.sh [build-dir]
#
# Keep the spsim argument list below in sync with the golden_spsim_json
# test in CMakeLists.txt.
set -euo pipefail

build=${1:-build}
root=$(cd "$(dirname "$0")/../.." && pwd)

cmake --build "$build" -j --target spsim bench_figures

"$build"/spsim \
    --system hybrid,static:cache=0.1,strawman,scratchpipe,multigpu \
    --locality medium --tables 3 --rows 20000 --dim 16 --lookups 4 \
    --batch 64 --iterations 4 --warmup 2 --seed 7 --format json \
    > "$root"/tests/golden/spsim_small.json

"$build"/spsim \
    --system hybrid,static:cache=0.1,strawman,scratchpipe,multigpu \
    --locality medium --tables 3 --rows 20000 --dim 16 --lookups 4 \
    --batch 64 --iterations 4 --warmup 2 --seed 7 --jobs 4 \
    --workload drift_amp=0.4,drift_period=3,phase=1 --format json \
    > "$root"/tests/golden/spsim_drift.json

"$build"/spsim \
    --system hybrid,static:cache=0.1,strawman,scratchpipe,multigpu \
    --locality medium --tables 3 --rows 20000 --dim 16 --lookups 4 \
    --batch 64 --iterations 4 --warmup 2 --seed 7 \
    --workload burst_frac=0.5,burst_period=4,burst_len=2,burst_ranks=64,churn_k=32,churn_period=2 \
    --format json \
    > "$root"/tests/golden/spsim_burst.json

"$build"/spsim \
    --system "serve:rate=500000,arrival=bursty,batch_max=16,budget_us=300,refresh=lru" \
    --locality medium --tables 3 --rows 20000 --dim 16 --lookups 4 \
    --batch 64 --iterations 4 --warmup 2 --seed 7 --format json \
    > "$root"/tests/golden/spsim_serve.json

serve="serve:rate=500000,arrival=bursty,batch_max=16,budget_us=300"
"$build"/spsim \
    --system "scratchpipe:policy=lfu,scratchpipe:policy=random,scratchpipe:policy=fifo,strawman:policy=lfu,strawman:policy=random,strawman:policy=fifo,$serve,refresh=lfu,$serve,refresh=random,$serve,refresh=fifo" \
    --locality medium --tables 3 --rows 20000 --dim 16 --lookups 4 \
    --batch 64 --iterations 4 --warmup 2 --seed 7 --format json \
    > "$root"/tests/golden/spsim_policies.json

"$build"/bench_figures --figure fig13_speedup --quick --json \
    > "$root"/tests/golden/fig13_quick.json

# Keep the counts in sync with golden_table1's ENVIRONMENT.
SP_BENCH_WARMUP=5 SP_BENCH_MEASURE=10 "$build"/bench_figures \
    --figure table1_training_cost --no-trace-cache \
    > "$root"/tests/golden/table1.txt

echo "regenerated:"
ls -l "$root"/tests/golden/*.json "$root"/tests/golden/table1.txt
