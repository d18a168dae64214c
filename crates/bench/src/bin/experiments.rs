//! Runs the synthetic experiments E1–E11 (with the E6-chaos, E8-scope,
//! E9-telemetry and E10-net variants), the OBS overhead measurement and
//! the A1/A2 ablations, printing the report tables recorded in
//! EXPERIMENTS.md. The printed report is the only record a run leaves.
//!
//! Usage: `cargo run --release -p exptime-bench --bin experiments [--quick] [id…]`
//! where `id` ∈ {e1, …, e10, e6chaos, e8scope, e9telemetry, e10net,
//! e11policy, obs, a1, a2}; omit ids for all. `--quick` shrinks the
//! workloads (CI runs every id that way as a smoke test, and `obs` at
//! full scale for its overhead gate).

use exptime_bench::experiments::{self as ex, Report};

/// Every experiment id, in the order a run prints them.
const IDS: &str = "e1 e2 e3 e4 e5 e6 e6chaos e7 e8 e8scope e9 e9telemetry e10 e10net \
                   e11policy obs a1 a2";

fn reports(id: &str, quick: bool) -> Vec<Report> {
    let scale = if quick { 1 } else { 10 };
    let pick = |q: &[usize], full: &[usize]| if quick { q.to_vec() } else { full.to_vec() };
    match id {
        "e1" => vec![ex::e1_monotonic_maintenance(300 * scale, 7).0],
        "e2" => vec![ex::e2_patching(400 * scale, 11).0],
        "e3" => vec![ex::e3_eager_vs_lazy(300 * scale, 3).0],
        "e4" => vec![ex::e4_aggregate_modes(1500 * scale, 13).0],
        "e5" => {
            // Coarse drain: few large batches (bulk cleanup pattern).
            let sizes = pick(&[10_000], &[10_000, 100_000, 1_000_000]);
            let mut out = vec![ex::e5_expiry_indexes(&sizes, 200, 17).0];
            // Fine-grained drain: one pop per tick (real-time trigger
            // pattern) — this is where the O(n)-per-pop scan baseline loses.
            if !quick {
                out.push(ex::e5_expiry_indexes(&[50_000], 10_000, 18).0);
            }
            out
        }
        "e6" => vec![ex::e6_replica_sync(300 * scale, 240, 19).0],
        "e6chaos" => {
            let horizon = if quick { 60 } else { 240 };
            vec![ex::e6_chaos(120 * scale, horizon, &[0.0, 0.25, 0.5, 0.75], 19).0]
        }
        // Fixed hole structure (the claim is about validity-model
        // coverage, not data scale); more queries at full scale for
        // tighter fractions.
        "e7" => vec![ex::e7_schrodinger(400, 2000 * scale, 23).0],
        "e8" => vec![ex::e8_rewriting(500 * scale, 29).0],
        "e8scope" => vec![ex::e8scope_forecast_accuracy(512 * scale, 59).0],
        "e9" => vec![ex::e9_approximate_aggregates(1500 * scale, 37).0],
        "e9telemetry" => vec![ex::e9_telemetry(512 * scale, 67).0],
        "e10" => vec![ex::e10_bounded_queue(600 * scale, 41).0],
        "e10net" => {
            let conns = pick(&[8, 32], &[100, 400, 1_000]);
            let shed_loads = pick(&[2, 12], &[4, 16, 64]);
            let stmts = if quick { 6 } else { 5 };
            vec![ex::e10_net(&conns, stmts, &shed_loads, 71).0]
        }
        // Full scale is the acceptance bar: ≥1M sliding-TTL sessions.
        "e11policy" => vec![ex::e11_policy(100_000 * scale, 73).0],
        "obs" => vec![ex::obs_monitor_overhead(512 * scale, 53).0],
        "a1" => vec![ex::a1_nu_ablation(20 * scale, 31)],
        "a2" => {
            let sizes = pick(&[500, 2_000], &[500, 2_000, 8_000]);
            vec![ex::a2_join_ablation(&sizes, 43)]
        }
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
            for report in reports(id, quick) {
                println!("{}", report.render());
            }
        }
    }
}
