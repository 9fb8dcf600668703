#!/usr/bin/env sh
# Benchmark regression gate: run the scheduler/suite benchmark and
# compare the fresh results against the committed baseline.
#
#   ./scripts/bench_check.sh            # what CI runs
#
# Fails (non-zero exit) when any of these holds:
#   - the fresh `suite/mini_campaign` median exceeds the baseline's by
#     more than 15%;
#   - the fresh `faults/flo52_p8/calendar` median exceeds the
#     baseline's by more than 15%;
#   - the calendar scheduler drops below 1.3x over the heap on the
#     event-dense network workload (checked within the fresh run, so it
#     holds on any machine speed).
#
# Refreshing the baseline: after an *intentional* performance change
# (or a change of reference hardware), re-pin it with
#
#   BENCH_ITERS=5 cargo bench --offline -p cedar-bench --bench scheduler
#   cp results/BENCH_scheduler.json results/bench_baseline.json
#
# and commit results/bench_baseline.json together with the change that
# explains it. Fresh BENCH_*.json files are gitignored; only the
# baseline is tracked.
#
# The baseline's absolute medians belong to the host, and the pool
# width, that pinned them. `suite/mini_campaign` spreads its runs over
# the worker pool (CEDAR_WORKERS, default: every CPU); every other entry
# runs on one thread. On a 2-vCPU host the suite entry takes about half
# as long with two workers as with one (suite-to-fault ratio 2.1 against
# 4.05), while the single-thread entries read 40-140% above a baseline
# whose ratio, 4.33, shows it was pinned with one worker on a faster
# host. BENCH_*.json therefore records "workers" and bench_gate prints
# it: re-pin on the host CI runs on, at the pool width CI uses, so the
# fresh and baseline widths match.
set -eu

cd "$(dirname "$0")/.."

ITERS="${BENCH_ITERS:-5}"

echo "==> scheduler benchmark (BENCH_ITERS=$ITERS)"
BENCH_ITERS="$ITERS" cargo bench --offline -p cedar-bench --bench scheduler

echo "==> bench gate: fresh vs results/bench_baseline.json"
cargo run -q --release --offline -p cedar-bench --bin bench_gate -- \
    results/BENCH_scheduler.json results/bench_baseline.json
