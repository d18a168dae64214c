//! Runs the synthetic experiments E1–E11 (with the E6-chaos, E8-scope
//! and E9-telemetry variants) and the OBS overhead measurement, printing
//! the report tables recorded in EXPERIMENTS.md. The printed report is
//! the only record a run leaves.
//!
//! Usage: `cargo run --release -p exptime-bench --bin experiments [--quick] [id…]`
//! where `id` ∈ {e1, e2, e3, e4, e6, e6chaos, e7, e8, e8scope, e9,
//! e9telemetry, e10, e11policy, obs}; omit ids for all. `--quick` shrinks
//! the workloads. Every report but OBS prints counts only, so CI pins
//! `--quick` over every id but `obs` byte for byte in
//! `tests/golden/experiments.txt`, and runs `obs` at full scale for its
//! overhead gate.

use exptime_bench::experiments::{self as ex, Report};

/// Every experiment id, in the order a run prints them.
const IDS: &str = "e1 e2 e3 e4 e6 e6chaos e7 e8 e8scope e9 e9telemetry e10 e11policy obs";

fn report(id: &str, quick: bool) -> Report {
    let scale = if quick { 1 } else { 10 };
    match id {
        "e1" => ex::e1_monotonic_maintenance(300 * scale, 7).0,
        "e2" => ex::e2_patching(400 * scale, 11).0,
        "e3" => ex::e3_eager_vs_lazy(300 * scale, 3).0,
        "e4" => ex::e4_aggregate_modes(1500 * scale, 13).0,
        "e6" => ex::e6_replica_sync(300 * scale, 240, 19).0,
        "e6chaos" => {
            let horizon = if quick { 60 } else { 240 };
            ex::e6_chaos(120 * scale, horizon, &[0.0, 0.25, 0.5, 0.75], 19).0
        }
        // Fixed hole structure (the claim is about validity-model
        // coverage, not data scale); more queries at full scale for
        // tighter fractions.
        "e7" => ex::e7_schrodinger(400, 2000 * scale, 23).0,
        "e8" => ex::e8_rewriting(500 * scale, 29).0,
        "e8scope" => ex::e8scope_forecast_accuracy(512 * scale, 59).0,
        "e9" => ex::e9_approximate_aggregates(1500 * scale, 37).0,
        "e9telemetry" => ex::e9_telemetry(512 * scale, 67).0,
        "e10" => ex::e10_bounded_queue(600 * scale, 41).0,
        // Full scale is the acceptance bar: ≥1M sliding-TTL sessions.
        "e11policy" => ex::e11_policy(100_000 * scale, 73).0,
        "obs" => ex::obs_monitor_overhead(512 * scale, 53).0,
        _ => unreachable!("ids are checked against IDS"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let ids: Vec<&str> = IDS.split_whitespace().collect();
    if let Some(bad) = wanted.iter().find(|w| !ids.contains(w)) {
        eprintln!("unknown experiment {bad:?}; ids: {IDS}");
        std::process::exit(2);
    }
    for id in ids {
        if wanted.is_empty() || wanted.contains(&id) {
            println!("{}", report(id, quick).render());
        }
    }
}
