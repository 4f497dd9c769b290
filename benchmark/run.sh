#!/usr/bin/env bash
# The fgbd benchmark of record. Builds the shipped binaries and the benchmark
# crate, then hands over to fgbd-benchmark:
#
#   benchmark/run.sh [--seed N] [--seconds S]      every workload, untraced and traced;
#                                                  prints every metric, writes
#                                                  <target>/benchmark/results.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                  one pass; last stdout line is the
#                                                  JSON summary (what BENCHMARK.json runs)
#   benchmark/run.sh --compare A.json B.json       A/B under the bounds; exit 1 on a regression
#   benchmark/run.sh --smoke                       every workload and probe at toy size
#   benchmark/run.sh --test                        the benchmark crate's own tests
#   benchmark/run.sh --bless                       regenerate benchmark/expected.json
set -euo pipefail

cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
  echo "benchmark/run.sh: no fgbd checkout around benchmark/ (Cargo.toml and crates/ are missing)" >&2
  exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# The CLI binaries come from the root workspace (its profile, its lockfile:
# what a user ships); the benchmark crate is a workspace of its own.
build_start=$(date +%s.%N)
cargo build --release --locked --offline -p fgbd-repro --bins >&2
cargo build --release --locked --offline --manifest-path benchmark/Cargo.toml >&2
BENCH_BUILD_S=$(awk -v a="$build_start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f", b - a }')
export BENCH_BUILD_S

bin="$CARGO_TARGET_DIR/release/fgbd-benchmark"
case "${1:-}" in
  --compare) shift; exec "$bin" compare "$@" ;;
  --bless) shift; exec "$bin" bless "$@" ;;
  --test) shift; exec cargo test --release --locked --offline --manifest-path benchmark/Cargo.toml "$@" ;;
esac
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then exec "$bin" "$@"; fi
done
exec "$bin" all "$@"
