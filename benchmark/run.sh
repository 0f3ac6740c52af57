#!/usr/bin/env bash
# The one command of the verdict-time benchmark.
#
#   bash benchmark/run.sh                      whole suite, seed 1: every workload
#                                              untraced then traced, each in a fresh
#                                              process; writes benchmark/out/results.json
#   bash benchmark/run.sh --seed 2             the held-out seed
#   bash benchmark/run.sh --repeat 3           three sets, with the spread per metric
#   bash benchmark/run.sh --smoke              short variant (under a minute) for CI
#   bash benchmark/run.sh --lint               cargo fmt --check and clippy -D warnings
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                              one run; the last line of stdout is the
#                                              result object (see BENCHMARK.json)
set -euo pipefail
cd "$(dirname "$0")/.."

# No COMPASS_* toggle may reach the product crates: they switch on
# tracing, telemetry, progress lines, DPOR and thread counts.
for var in $(compgen -e | grep '^COMPASS_' || true); do
  unset "$var"
done

manifest=benchmark/Cargo.toml
if [ "${1:-}" = "--lint" ]; then
  cargo fmt --manifest-path "$manifest" -- --check
  cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
  exit 0
fi

# A relative CARGO_TARGET_DIR is relative to the repository root, where
# this script now stands.
target="${CARGO_TARGET_DIR:-benchmark/target}"
build_start=$(date +%s.%N)
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet --manifest-path "$manifest"
build_s=$(echo "$(date +%s.%N) $build_start" | awk '{printf "%.3f", $1 - $2}')

exec "$target/release/compass-benchmark" --build-s "$build_s" "$@"
