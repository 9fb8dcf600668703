#!/usr/bin/env sh
# Per-suite wall-clock budgets for the root integration tests.
#
#   ./scripts/test_times.sh                    # what CI runs
#   UPDATE_BUDGETS=1 ./scripts/test_times.sh   # re-pin the budgets
#   TEST_BUDGET_FACTOR=3 ./scripts/test_times.sh  # slow-machine headroom
#
# Runs every suite under tests/ one at a time, records its wall-clock in
# results/TEST_times.json, and enforces the committed per-suite ceilings
# in results/TEST_budgets.json as a *hard* gate: a suite over its budget
# (or absent from the budget file) fails the build. This replaces the
# old soft 60 s warning — a suite that quietly grows into a multi-minute
# monster now breaks CI instead of scrolling past in the logs.
#
# The budgets are pinned with generous headroom (4x the measured time,
# 5 s floor) so machine jitter never trips the gate; a breach means a
# real complexity change. To accept one deliberately, re-pin with
# UPDATE_BUDGETS=1 and commit the refreshed results/TEST_budgets.json.
# TEST_BUDGET_FACTOR multiplies every budget for known-slow machines
# (e.g. emulated CI runners) without touching the pinned file.
#
# Fresh TEST_times.json files are gitignored, like the run manifest;
# TEST_budgets.json is committed.
set -eu

cd "$(dirname "$0")/.."

BUDGETS=results/TEST_budgets.json
OUT=results/TEST_times.json
FACTOR="${TEST_BUDGET_FACTOR:-1}"
mkdir -p results

if [ "${UPDATE_BUDGETS:-0}" != 1 ] && [ ! -f "$BUDGETS" ]; then
    echo "error: $BUDGETS missing; pin it with UPDATE_BUDGETS=1 $0" >&2
    exit 1
fi

# Compile everything up front so the timings measure tests, not builds.
cargo test -q --offline --no-run >/dev/null 2>&1

{
    echo '{'
    echo '  "unit": "seconds",'
    echo '  "suites": {'
} > "$OUT.tmp"

breaches=""
first=1
for f in tests/*.rs; do
    name=$(basename "$f" .rs)
    start=$(date +%s%N)
    cargo test -q --offline --test "$name" >/dev/null
    end=$(date +%s%N)
    elapsed=$(awk "BEGIN{printf \"%.2f\", ($end - $start) / 1e9}")
    [ "$first" = 1 ] || echo ',' >> "$OUT.tmp"
    first=0
    printf '    "%s": %s' "$name" "$elapsed" >> "$OUT.tmp"
    if [ "${UPDATE_BUDGETS:-0}" = 1 ]; then
        echo "    $name: ${elapsed}s"
        continue
    fi
    budget=$(sed -n "s/^    \"$name\": \([0-9.]*\),*\$/\1/p" "$BUDGETS")
    if [ -z "$budget" ]; then
        echo "    $name: ${elapsed}s (NO BUDGET)"
        breaches="$breaches $name(unbudgeted)"
        continue
    fi
    limit=$(awk "BEGIN{printf \"%.2f\", $budget * $FACTOR}")
    echo "    $name: ${elapsed}s (budget ${limit}s)"
    over=$(awk "BEGIN{print ($elapsed > $limit) ? 1 : 0}")
    [ "$over" = 1 ] && breaches="$breaches $name(${elapsed}s>${limit}s)"
done

{
    echo ''
    echo '  }'
    echo '}'
} >> "$OUT.tmp"
mv "$OUT.tmp" "$OUT"
echo "    wrote $OUT"

if [ "${UPDATE_BUDGETS:-0}" = 1 ]; then
    # Re-pin: 4x the measured wall-clock, 5 s floor, whole seconds.
    {
        echo '{'
        echo '  "unit": "seconds",'
        echo '  "note": "hard per-suite ceilings: 4x measured, 5s floor; re-pin with UPDATE_BUDGETS=1 scripts/test_times.sh",'
        echo '  "suites": {'
    } > "$BUDGETS.tmp"
    # OUT and BUDGETS share the suites-block line format, so the pinned
    # file is derived straight from the fresh timings.
    sed -n 's/^    "\([a-z_]*\)": \([0-9.]*\),*$/\1 \2/p' "$OUT" \
        | awk '{ b = $2 * 4; if (b < 5) b = 5;
                 printf "    \"%s\": %d,\n", $1, int(b + 0.999) }' \
        | sed '$ s/,$//' >> "$BUDGETS.tmp"
    {
        echo '  }'
        echo '}'
    } >> "$BUDGETS.tmp"
    mv "$BUDGETS.tmp" "$BUDGETS"
    echo "    pinned $BUDGETS"
    exit 0
fi

if [ -n "$breaches" ]; then
    echo "error: integration suites over budget:$breaches" >&2
    echo "split the suite, or re-pin deliberately with UPDATE_BUDGETS=1 and commit $BUDGETS" >&2
    exit 1
fi
