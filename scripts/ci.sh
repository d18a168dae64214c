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

# Repo-invariant lint (exptime-lint R001–R007): no wall-clock reads
# outside core/time.rs, no unwrap/expect in durability paths (the WAL
# crate, engine/durability.rs and the write path engine/db/write.rs),
# #![forbid(unsafe_code)] in every crate root, no thread::sleep
# outside tests/benches and the real-time boundary files, and no way
# back to copying a table to read it: no Database::snapshot call in
# production code and no Table::to_relation in the engine outside
# db/stored.rs, where the reference snapshot() keeps its one. (What the
# read path does copy is pinned by count in the engine test
# a_read_copies_only_the_rows_that_come_out.) And no way back to the
# quadratic ν: the timeline definitions (value_timeline, nu_naive, the
# closure nu::nu) are the oracle for nu::first_change and may not be
# named in production code under core/src/algebra or engine/src. And
# no second way to read a materialisation: no prev_covered( and no
# .rel.exp( in production code of its holders (replica, net, engine,
# core's schrodinger.rs and materialize.rs) — they ask
# Materialized::{answer, covered_at, rows_at}, which counts the patch
# queue in; core/src/algebra/eval.rs, where those are, is exempt.
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

# Observability smoke: the obs experiment runs its workload assertions
# (snapshot consistency, monitor overhead) without writing artifacts.
cargo run --release -q -p exptime-bench --bin experiments -- --quick --check obs

# Chaos matrix: replay the replica-sync invariant over a pinned set of
# deterministic fault schedules (EXPTIME_CHAOS_SEEDS overridable; a
# failing seed prints its full schedule for local replay).
EXPTIME_CHAOS_SEEDS="${EXPTIME_CHAOS_SEEDS:-1,2,3,4,5,6,7,8}" \
    cargo test -q --test replica_chaos chaos_seed_matrix

# E6-chaos smoke: message counts and recovery latency stay sane at every
# loss rate (assertions only; BENCH_replica.json is not written).
cargo run --release -q -p exptime-bench --bin experiments -- --quick --check e6chaos

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

# E7-wal smoke: expiration-aware replay beats naive full-log replay and
# checkpoints zero it (assertions only; BENCH_wal.json is not written).
cargo run --release -q -p exptime-bench --bin experiments -- --quick --check e7wal

# E8-scope smoke: the horizon forecast matches actually-processed
# expirations within one log2 bucket and the flash-crowd cohort trips
# the storm detector (assertions only; BENCH_scope.json is not written).
cargo run --release -q -p exptime-bench --bin experiments -- --quick --check e8scope

# E9-telemetry smoke: the sampler's `_telemetry.*` history stays bounded
# by retention (no DELETEs anywhere) and every live scrape round-trips
# through parse_prometheus_text (assertions only; BENCH_telemetry.json
# is not written).
cargo run --release -q -p exptime-bench --bin experiments -- --quick --check e9telemetry

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

# E10-net smoke: throughput/shed/partition assertions against real TCP
# servers at reduced scale (assertions only; BENCH_net.json is not
# written).
cargo run --release -q -p exptime-bench --bin experiments -- --quick --check e10net

# Policy property tests: touch monotonicity, clamp idempotence, forecast
# conservation under sliding workloads.
cargo test -q --test prop_policy

# Policy crash matrix: the TTL policy catalog and sliding touches must
# survive WAL crash-recovery with no resurrection of expired rows, over
# a pinned set of seeded workloads (EXPTIME_POLICY_SEEDS overridable).
EXPTIME_POLICY_SEEDS="${EXPTIME_POLICY_SEEDS:-1,2,3,4,5,6,7,8}" \
    cargo test -q --test prop_policy policy_crash_seed_matrix

# E11-policy smoke: zero application maintenance ops vs the delete-push
# baseline's O(rows), identical liveness at the horizon, durable sliding
# touches (assertions only; BENCH_policy.json is not written).
cargo run --release -q -p exptime-bench --bin experiments -- --quick --check e11policy

# Netload drain smoke: an embedded server driven by concurrent client
# sessions, then drained; netload exits nonzero if any acknowledged
# write is missing afterwards.
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

# Obs-overhead regression gate: re-measure the monitor/tracer overhead
# at the committed baseline's scale (full, not --quick: the quick
# workload is too small for stable timing) and fail if it costs more
# than BENCH_obs.json's did by over 10 % of BENCH_obs.json's dark run.
# The budget is in ms of the *baseline's* workload, not a percentage of
# the fresh one, so a change that makes the workload itself faster or
# slower neither trips nor loosens the gate. Each fresh timing is
# min-of-3 (the noise-robust timing estimator), so scheduler jitter does
# not trip it.
obs_ms() { grep -o "\"$1\": *[-0-9.]*" "$2" | awk '{print $2}'; }
min_ms() { awk -v a="$1" -v b="$2" 'BEGIN { print (a == "" || b + 0 < a + 0) ? b : a }'; }
repo_root="$(pwd)"
obs_tmp="$(mktemp -d)"
fresh_dark=""
fresh_lit=""
for _ in 1 2 3; do
    (cd "$obs_tmp" && cargo run --release -q \
        --manifest-path "$repo_root/Cargo.toml" -p exptime-bench \
        --bin experiments -- obs >/dev/null)
    fresh_dark="$(min_ms "$fresh_dark" "$(obs_ms dark_ms "$obs_tmp/BENCH_obs.json")")"
    fresh_lit="$(min_ms "$fresh_lit" "$(obs_ms lit_ms "$obs_tmp/BENCH_obs.json")")"
done
rm -rf "$obs_tmp"
awk -v fd="$fresh_dark" -v fl="$fresh_lit" \
    -v d="$(obs_ms dark_ms "$repo_root/BENCH_obs.json")" \
    -v l="$(obs_ms lit_ms "$repo_root/BENCH_obs.json")" 'BEGIN {
    budget = (l - d) + 0.10 * d
    if (fl - fd > budget) {
        printf "obs overhead regression: %.2f ms vs budget %.2f ms (baseline %.2f ms + 10%% of its %.1f ms run)\n", fl - fd, budget, l - d, d
        exit 1
    }
    printf "obs overhead gate OK: %.2f ms (dark %.1f, lit %.1f) vs budget %.2f ms\n", fl - fd, fd, fl, budget
}'
