#!/usr/bin/env sh
# CI entry point: the offline-build guarantee, the paper-band claims,
# the full test suite, a one-iteration smoke pass of the scheduler
# benchmark, the shrunk campaign's pinned work counts, the run-cache
# soundness check (warm campaign = cold campaign, only faster), and the
# benchmark package's own tests (perfbench/).
#
# The workspace has zero external dependencies, so every step runs with
# --offline and must succeed with no registry or network access. The
# guard below catches an external crate in any Cargo.toml by name
# before the build would fail on it.
set -eu

cd "$(dirname "$0")/.."

# Environment-read guard: library crates must take their configuration
# through the typed cedar_obs::RunOptions surface, not ambient std::env
# reads. Only three sanctioned readers exist — RunOptions::from_env
# (crates/obs/src/options.rs), CheckOptions::from_env
# (CEDAR_CHECK_REPLAY, crates/check/src/options.rs) and the
# golden-snapshot re-recorder (UPDATE_GOLDEN, crates/report/src/golden.rs).
# Any other hit fails CI.
echo "==> env-read guard (std::env::var outside sanctioned modules)"
leaks=$(grep -rn "std::env::var" crates/*/src \
    | grep -v "^crates/obs/src/options\.rs:" \
    | grep -v "^crates/check/src/options\.rs:" \
    | grep -v "^crates/report/src/golden\.rs:" \
    || true)
if [ -n "$leaks" ]; then
    echo "error: unsanctioned std::env::var in library code:" >&2
    echo "$leaks" >&2
    echo "route the knob through cedar_obs::RunOptions instead" >&2
    exit 1
fi

# Zero-dependency guard: every [dependencies]/[dev-dependencies] entry
# in every Cargo.toml must be a workspace member — either a
# `*.workspace = true` reference in a crate manifest or a `path = ...`
# entry in the root [workspace.dependencies] table. An external crate
# would already fail `cargo build --offline`, but only after resolution;
# this names the offending line directly.
echo "==> zero-dependency guard (workspace-only Cargo.toml entries)"
bad=$(awk '
    /^\[/ { indeps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies/) }
    indeps && !/^\[/ && !/^[ \t]*(#|$)/ {
        if ($0 !~ /workspace[ \t]*=[ \t]*true/ && $0 !~ /path[ \t]*=/)
            printf "%s: %s\n", FILENAME, $0
    }
' Cargo.toml crates/*/Cargo.toml)
if [ -n "$bad" ]; then
    echo "error: non-workspace dependency in a Cargo.toml:" >&2
    echo "$bad" >&2
    echo "the workspace is zero-dependency; vendor the code or drop it" >&2
    exit 1
fi

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

# The EXPERIMENTS.md claims, checked at full scale. They are #[ignore]d
# so the debug workspace run below stays fast; in release they take a
# few seconds.
echo "==> paper-band claims (tests/paper_bands.rs, release, --ignored)"
cargo test --release --offline --test paper_bands -- --ignored

echo "==> cargo test -q --offline (workspace, debug)"
cargo test -q --offline --workspace

echo "==> per-suite integration-test budgets (hard, results/TEST_budgets.json)"
./scripts/test_times.sh

echo "==> scheduler benchmark smoke pass (BENCH_SMOKE=1: 1 iteration, no warmup)"
BENCH_SMOKE=1 cargo bench --offline -p cedar-bench

scratch=$(mktemp -d "${TMPDIR:-/tmp}/cedar-ci.XXXXXX")
trap 'rm -rf "$scratch"' EXIT

echo "==> reduced-scale campaign + run manifest (CEDAR_SHRINK=16, CEDAR_OBS=full)"
CEDAR_SHRINK=16 CEDAR_OBS=full cargo run --release --offline -p cedar-bench --bin all > /dev/null
for f in results/RUN_manifest.json results/RUN_telemetry.jsonl; do
    test -s "$f" || {
        echo "error: campaign did not write $f" >&2
        exit 1
    }
done
echo "    wrote results/RUN_manifest.json + results/RUN_telemetry.jsonl"

# Exact work counts: every "name value" line of results/CI_work_counts.txt
# must match the value the campaign's manifest holds for that name. The
# counts do not depend on the host, the scheduler or the pool width, so
# an accidental extra event fails here on any machine.
echo "==> pinned work counts (results/CI_work_counts.txt)"
awk -v manifest=results/RUN_manifest.json '
    BEGIN {
        while ((getline line < manifest) > 0) {
            n = split(line, field, /[{},]/)
            for (i = 1; i <= n; i++)
                if (field[i] ~ /^"[^"]+":[0-9]+$/) {
                    split(field[i], kv, /":/)
                    value[substr(kv[1], 2)] = kv[2]
                }
        }
    }
    /^#/ || NF == 0 { print; next }
    { print $1, ($1 in value) ? value[$1] : "missing" }
' results/CI_work_counts.txt > "$scratch/work_counts.txt"
if ! diff -u results/CI_work_counts.txt "$scratch/work_counts.txt" >&2; then
    echo "error: the campaign's work counts moved (- pinned, + this run)" >&2
    echo "re-pin results/CI_work_counts.txt only with a change that explains the diff" >&2
    exit 1
fi
echo "    $(grep -c '^[^#]' results/CI_work_counts.txt) counts match"

# Cache soundness: the same shrunk campaign twice against one cache
# root. The cold pass populates the store, the warm pass must (a) hit on
# every lookup, (b) produce a RUN_manifest.json byte-identical to the
# cold one once the volatile fields (*_ns wall-clocks, utilization, git
# provenance, and the cache-traffic object itself) are masked, and
# (c) be measurably faster than simulating. The built binary is invoked
# directly so the timing compares campaigns, not cargo overhead.
echo "==> run-cache soundness (cold vs warm campaign, CEDAR_SHRINK=4)"
mask_manifest() {
    sed -e 's/"git":"[^"]*"/"git":"MASKED"/' \
        -e 's/"git":null/"git":"MASKED"/' \
        -e 's/"\([a-z_]*_ns\)":[0-9][0-9]*/"\1":0/g' \
        -e 's/"utilization":[0-9.eE+-]*/"utilization":0/' \
        -e 's/"cache":{[^}]*}/"cache":{}/' \
        "$1"
}
cold_start=$(date +%s%N)
CEDAR_SHRINK=4 CEDAR_CACHE=rw BENCH_JSON_DIR="$scratch" \
    ./target/release/all > /dev/null
cold_end=$(date +%s%N)
mask_manifest "$scratch/RUN_manifest.json" > "$scratch/cold.masked.json"
warm_start=$(date +%s%N)
CEDAR_SHRINK=4 CEDAR_CACHE=rw BENCH_JSON_DIR="$scratch" \
    ./target/release/all > /dev/null
warm_end=$(date +%s%N)
mask_manifest "$scratch/RUN_manifest.json" > "$scratch/warm.masked.json"

runs=$(sed -n 's/.*"runs":\([0-9]*\).*/\1/p' "$scratch/RUN_manifest.json")
if ! grep -q "\"cache\":{\"mode\":\"rw\",\"hits\":$runs,\"misses\":0,\"writes\":0,\"bypasses\":0" \
    "$scratch/RUN_manifest.json"; then
    echo "error: warm campaign was not a 100% cache hit (runs=$runs):" >&2
    sed -n 's/.*\("cache":{[^}]*}\).*/\1/p' "$scratch/RUN_manifest.json" >&2
    exit 1
fi
if ! cmp -s "$scratch/cold.masked.json" "$scratch/warm.masked.json"; then
    echo "error: cold and warm manifests differ after masking:" >&2
    diff "$scratch/cold.masked.json" "$scratch/warm.masked.json" >&2 || true
    exit 1
fi
cold_s=$(awk "BEGIN{printf \"%.2f\", ($cold_end - $cold_start) / 1e9}")
warm_s=$(awk "BEGIN{printf \"%.2f\", ($warm_end - $warm_start) / 1e9}")
speedup=$(awk "BEGIN{printf \"%.1f\", ($cold_end - $cold_start) / ($warm_end - $warm_start)}")
echo "    $runs/$runs warm hits, manifests identical after masking"
echo "    cold ${cold_s}s -> warm ${warm_s}s (${speedup}x speedup)"
mkdir -p results
printf '{\n  "runs": %s,\n  "warm_hits": %s,\n  "cold_s": %s,\n  "warm_s": %s,\n  "speedup": %s\n}\n' \
    "$runs" "$runs" "$cold_s" "$warm_s" "$speedup" > results/CACHE_check.json
echo "    wrote results/CACHE_check.json"
min_speedup="${CACHE_MIN_SPEEDUP:-2}"
slow=$(awk "BEGIN{print ($speedup < $min_speedup) ? 1 : 0}")
if [ "$slow" = 1 ]; then
    echo "error: warm campaign only ${speedup}x faster (floor ${min_speedup}x)" >&2
    echo "raise the floor via CACHE_MIN_SPEEDUP only with a reason" >&2
    exit 1
fi

echo "==> fault-sensitivity sweep smoke (CEDAR_SHRINK=16)"
CEDAR_SHRINK=16 cargo run --release --offline -p cedar-bench --bin faultsweep > /dev/null
test -s results/FAULTS_sensitivity.csv || {
    echo "error: faultsweep did not write results/FAULTS_sensitivity.csv" >&2
    exit 1
}
echo "    wrote results/FAULTS_sensitivity.csv"

# Invariant-oracle checker smoke: the four-case corpus under permuted
# tie-breaking. Exit 0 is the gate (any violation is a real bug or a
# real oracle miscalibration — both block); the violation report and
# the checker's own run manifest must exist, and the manifest must
# carry the oracle rollup so a green run is auditable.
echo "==> check-harness smoke (BENCH_SMOKE=1: 4 cases, all oracles)"
BENCH_SMOKE=1 BENCH_JSON_DIR="$scratch/check" ./target/release/check
for f in "$scratch/check/CHECK_violations.json" "$scratch/check/RUN_manifest.json"; do
    test -s "$f" || {
        echo "error: check did not write $f" >&2
        exit 1
    }
done
if ! grep -q '"check.oracles.pass":' "$scratch/check/RUN_manifest.json"; then
    echo "error: check manifest lacks the oracle rollup counters" >&2
    exit 1
fi
cp "$scratch/check/CHECK_violations.json" results/CHECK_violations.json
echo "    wrote results/CHECK_violations.json (0 violations)"

# perfbench/ declares a [workspace] of its own, so no step above
# compiles it. Its tests build against the library crates' public API,
# so narrowing an item the benchmark uses fails here rather than only in
# the benchmark pipeline. The offline build may rewrite the committed
# perfbench/Cargo.lock; it is restored whether or not the tests pass.
echo "==> perfbench tests (the benchmark package, built against the public API)"
cp perfbench/Cargo.lock "$scratch/perfbench.Cargo.lock"
status=0
cargo test --release --offline --manifest-path perfbench/Cargo.toml || status=$?
cp "$scratch/perfbench.Cargo.lock" perfbench/Cargo.lock
if [ "$status" != 0 ]; then
    echo "error: perfbench tests failed (exit $status)" >&2
    exit "$status"
fi

echo "==> OK"
