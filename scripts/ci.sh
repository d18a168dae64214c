#!/usr/bin/env bash
# CI gate: everything a PR must pass. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo test -q --workspace
cargo test -q --doc --workspace
# The benchmark is a package of its own (benchmark/Cargo.toml, outside the
# workspace) built against crates/*: building it and running its unit
# tests here makes a public-API change that breaks it fail in CI, not in
# the bench pipeline. One of its tests checks BENCHMARK.json against the
# metric tables.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo clippy --all-targets -- -D warnings
cargo fmt --check

# Repo-invariant lint: the rules of DESIGN.md §11.3 (R001–R005, R007–R012;
# R011 reads the manifests: no shipped crate depends on exptime-literal).
cargo run --release -q -p exptime-lint --bin repolint

# Analyzer golden tests: the Fig. 3 anomalies must flag their exact
# codes and spans; the Fig. 2 monotonic workload must stay clean; and
# Sound(∞) verdicts must match what view maintenance actually does.
cargo test -q --test lint_golden
cargo test -q --test prop_lint

# Whole-database audit goldens: EXPLAIN AUDIT over every example
# workload must exactly match the committed reports in
# tests/golden/audit/ and prove a finite staleness bound for every
# view (regenerate intentional drift with UPDATE_AUDIT_GOLDEN=1).
cargo test -q --test audit_golden

# Example goldens: each example prints exactly the text committed in
# tests/golden/examples/<name>.txt. None of them reads a clock, so any
# difference is a change in behaviour; when one is meant, regenerate the
# file with `cargo run --release -q --example <name> > <golden>`.
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    cargo run --release -q --example "$name" \
        | diff -u "tests/golden/examples/$name.txt" - \
        || { echo "example $name: output differs from its golden"; exit 1; }
done

# Figures golden: the paper's figures print exactly
# tests/golden/figures.txt. The binary reads no clock, so any difference
# is a change in what an operator or an aggregation mode computes; when
# one is meant, regenerate the file with
# `cargo run --release -q -p exptime-bench --bin figures > tests/golden/figures.txt`.
cargo run --release -q -p exptime-bench --bin figures \
    | diff -u tests/golden/figures.txt - \
    || { echo "figures: output differs from its golden"; exit 1; }

# Experiments golden: every experiment but `obs`, at reduced scale,
# prints exactly tests/golden/experiments.txt. Each report prints counts
# only, never a time, so any difference is a change in behaviour: in
# what a difference, its validity or its patch queue computes (E1, E2,
# E7, E8, E10), in an aggregation mode (E4, E9), in the replica, the
# session protocol or FaultyLink's counting (E6, E6-chaos), in removal,
# the forecast, the sampler's retention or the policy layer (E3,
# E8-scope, E9-telemetry, E11-policy). Some also assert their claims as
# they run (E8-scope's forecast buckets, E11-policy's zero maintenance
# operations), so a broken claim fails here too. When a difference is
# meant, regenerate the file with
# `cargo run --release -q -p exptime-bench --bin experiments -- --quick e1 e2 e3 e4 e6 e6chaos e7 e8 e8scope e9 e9telemetry e10 e11policy > tests/golden/experiments.txt`.
cargo run --release -q -p exptime-bench --bin experiments -- --quick \
    e1 e2 e3 e4 e6 e6chaos e7 e8 e8scope e9 e9telemetry e10 e11policy \
    | diff -u tests/golden/experiments.txt - \
    || { echo "experiments: output differs from its golden"; exit 1; }

# Chaos matrix: replay the replica-sync invariant over a pinned set of
# deterministic fault schedules (EXPTIME_CHAOS_SEEDS overridable; a
# failing seed prints its full schedule for local replay).
EXPTIME_CHAOS_SEEDS="${EXPTIME_CHAOS_SEEDS:-1,2,3,4,5,6,7,8}" \
    cargo test -q --test replica_chaos chaos_seed_matrix

# Crash matrix: the WAL committed-prefix invariant — crash at any byte
# offset, recover exactly the committed prefix — over a pinned set of
# deterministic workloads (EXPTIME_CRASH_SEEDS overridable; a failing
# seed names its offset for local replay). Redo goes through the same
# `Database::apply` live statements do, and the workload checks after
# every operation that each materialised view equals a fresh evaluation
# of its definition, so the matrix also pins view ≡ base after every
# write.
EXPTIME_CRASH_SEEDS="${EXPTIME_CRASH_SEEDS:-1,2,3,4,5,6,7,8}" \
    cargo test -q --test wal_recovery crash_seed_matrix

# Net chaos matrix: the wire protocol's exactly-once session invariant
# over a pinned set of deterministic fault schedules (EXPTIME_NET_SEEDS
# overridable; a failing seed prints its full schedule for local
# replay), plus the real-TCP drain-under-load and partition tests.
EXPTIME_NET_SEEDS="${EXPTIME_NET_SEEDS:-1,2,3,4,5,6,7,8}" \
    cargo test -q --test net_chaos

# Wire ≡ embedded: one statement list through Database::execute and
# through NetClient against a served twin — equal rows in order, equal
# affected counts, equal survivors after the ticks — and through the
# chaos harness on a fault-free link, whose acked replies must equal
# the TCP server's (texp included): both run the same serve path.
cargo test -q --test net_parity

# Overload on the real server, made deterministic by holding the
# database from the test thread: past the in-flight bound a statement is
# shed with the retry hint and lands exactly once on retry; a deadline
# that expires waiting for the database is refused before execution with
# its sequence number open (and net.queue_wait_ns counts one sample per
# executed statement); a degraded read is served without the database
# lock and recorded, so the session's next statement is not a gap.
cargo test -q --test net_overload

# Wire-codec property tests: round-trip, every-prefix rejection,
# every-bit-flip rejection, and exactly-once re-delivery across
# arbitrary seeded fault schedules.
cargo test -q --test prop_net

# Policy property tests: touch monotonicity, clamp idempotence, forecast
# conservation under sliding workloads.
cargo test -q --test prop_policy

# Policy crash matrix: the TTL policy catalog and sliding touches must
# survive WAL crash-recovery with no resurrection of expired rows, over
# a pinned set of seeded workloads (EXPTIME_POLICY_SEEDS overridable).
EXPTIME_POLICY_SEEDS="${EXPTIME_POLICY_SEEDS:-1,2,3,4,5,6,7,8}" \
    cargo test -q --test prop_policy policy_crash_seed_matrix

# Netload smoke: an embedded server driven by concurrent client
# sessions, then drained; netload exits nonzero if the server did not
# see all 64 connections at once, or if any acknowledged write is
# missing after the drain.
cargo run --release -q -p exptime-bench --bin netload -- --conns 64 --stmts 8

# Telemetry scrape smoke: start a real telemetryd on a loopback port,
# scrape /metrics over /dev/tcp, and feed the body back through the
# repo's own Prometheus parser (`telemetryd --parse-stdin` exits nonzero
# on any parse error). The sampler's own series must be in the scrape.
telemetryd_log="$(mktemp)"
cargo run --release -q -p exptime-telemetryd --bin telemetryd -- \
    --addr 127.0.0.1:0 --demo --tick-ms 20 --sample-every 2 \
    --retention 64 --serve-seconds 15 >"$telemetryd_log" &
telemetryd_pid=$!
telemetryd_port=""
for _ in $(seq 1 50); do
    telemetryd_port="$(grep -o 'http://127.0.0.1:[0-9]*' "$telemetryd_log" \
        | head -1 | grep -o '[0-9]*$' || true)"
    [ -n "$telemetryd_port" ] && break
    sleep 0.2
done
[ -n "$telemetryd_port" ] || { echo "telemetryd did not start"; exit 1; }
sleep 1 # let the ticker take a few samples before scraping
exec 3<>"/dev/tcp/127.0.0.1/$telemetryd_port"
printf 'GET /metrics HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' >&3
scrape="$(cat <&3)"
exec 3<&- 3>&-
body="$(printf '%s' "$scrape" | sed '1,/^\r*$/d')"
printf '%s' "$body" | grep -q 'exptime_telemetry_samples' \
    || { echo "scrape is missing the sampler's own series"; exit 1; }
printf '%s' "$body" | cargo run --release -q -p exptime-telemetryd \
    --bin telemetryd -- --parse-stdin
kill "$telemetryd_pid" 2>/dev/null || true
wait "$telemetryd_pid" 2>/dev/null || true
rm -f "$telemetryd_log"

# Obs-overhead gate: the monitor + tracer (event ring, tracer, health
# polls) may cost at most 44 % of the dark run. `experiments obs` runs at
# full scale (the quick workload is too small for stable timing), dark
# and lit alternately five times each on fresh databases, and reports
# overhead_pct from the two minima, so the budget is relative to this
# run's own dark time and no committed baseline is needed. Measured when
# the gate was written (PR 21, 51 runs of this block, all listed in
# CHANGES.md): typically 9-16 %, but one run in the first ten read
# 43.3 % (host noise on a shared machine), so the budget is the smallest
# whole percentage above the largest of the first 20 runs, not the 25 %
# first proposed.
overhead_pct="$(cargo run --release -q -p exptime-bench --bin experiments -- obs \
    | grep -o 'overhead_pct=[-0-9.]*' | cut -d= -f2)"
awk -v p="$overhead_pct" 'BEGIN {
    if (p + 0 > 44) {
        printf "obs overhead regression: %.1f%% of the dark run (budget 44%%)\n", p
        exit 1
    }
    printf "obs overhead gate OK: %.1f%% of the dark run (budget 44%%)\n", p
}'
