#!/usr/bin/env bash
# The exptime benchmark's one command. Run from the repository root.
#
#   benchmark/run.sh [--seed S]              the suite: every workload, untraced
#                                            then traced, fixed operation counts;
#                                            prints every metric and writes
#                                            benchmark/out/results.json
#   benchmark/run.sh --selfcheck [--seed S]  the suite twice; fails if the two
#                                            sets disagree beyond the metrics'
#                                            own bounds
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                            one workload, time-bounded; the last
#                                            line of output is the result object
#
# Exits non-zero on any wrong answer. Reads no environment variable but
# Cargo's own CARGO_TARGET_DIR (the driver sets it); the default is
# benchmark/target.
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
# The build's own chatter goes to stderr: stdout's last line is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/exptime-benchmark" --out "$here/out" "$@"
