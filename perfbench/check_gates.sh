#!/usr/bin/env bash
# Times `clear-harness check <gate>` for every gated experiment, one after
# another, and prints one JSON object: the baseline's context row.
# Run from the repository root: perfbench/check_gates.sh > gates.json
set -euo pipefail
cargo build --release --offline --quiet -p clear-harness
target="${CARGO_TARGET_DIR:-target}"
harness="$target/release/clear-harness"
gates=$("$harness" list | awk '$0 ~ / yes / {print $1}')
total_ms=0
rows=""
for gate in $gates; do
    start=$(date +%s%N)
    if "$harness" check "$gate" >/dev/null 2>&1; then code=0; else code=$?; fi
    ms=$(( ($(date +%s%N) - start) / 1000000 ))
    total_ms=$(( total_ms + ms ))
    rows="$rows${rows:+, }\"$gate\": {\"wall_s\": $(( ms / 1000 )).$(printf '%03d' $(( ms % 1000 ))), \"exit\": $code}"
done
cpu=$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo)
printf '{"kind": "context", "what": "clear-harness check wall time per gate (not gated)", "host": {"nproc": %s, "cpu": "%s"}, "total_s": %d.%03d, "gates": {%s}}\n' \
    "$(nproc)" "$cpu" $(( total_ms / 1000 )) $(( total_ms % 1000 )) "$rows"
