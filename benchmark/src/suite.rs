//! The suite: every workload in a process of its own (so `peak_rss_mb` is
//! per workload), untraced and then traced at a quarter of the length,
//! over fixed operation counts so the exact counts repeat; `results.json`
//! in the trajectory envelope; and `--selfcheck`.

use crate::report::END_TO_END;
use crate::{SCALE, WORKLOADS};
use std::path::Path;
use std::process::Command;

#[derive(Debug, Clone)]
struct Row {
    workload: &'static str,
    metric: String,
    value: f64,
    unit: String,
    n: u64,
}

/// The end-to-end counts only some workloads have: `--selfcheck` requires
/// them to repeat exactly. (The partial end-to-end *timings* — the p99s and
/// `e2e.recovery_ms` — do not repeat within a tenth on this machine, which
/// is why they are per-layer metrics; `--selfcheck` does not gate them.)
const EXACT: [&str; 4] = [
    "e2e.wal_bytes_per_write",
    "e2e.msgs_per_read",
    "e2e.recompute_per_read",
    "e2e.failed_ratio",
];
/// `setup_s` may also differ by this much in absolute terms: the shortest
/// set-up is 0.13 s, where a tenth is a scheduling quantum.
const SETUP_SLACK_S: f64 = 0.05;

fn capture(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Runs one workload in a child process and reads its metrics back.
fn run_child(
    out: &Path,
    index: usize,
    seed: u64,
    traced: bool,
) -> Result<(Vec<Row>, bool), String> {
    let workload = WORKLOADS[index].0;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    if output.status.code().is_none_or(|c| c > 1) {
        return Err(format!(
            "{workload} (trace {traced}) did not finish: {}",
            output.status
        ));
    }
    let path = out.join(format!("{workload}.trace{}.tsv", u8::from(traced)));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut rows = Vec::new();
    let mut failed = 0;
    for line in text.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        let bad = || format!("{}: malformed line {line:?}", path.display());
        match cols[..] {
            ["#", _, f] => failed = f.parse::<u64>().map_err(|_| bad())?,
            [metric, value, unit, n] => rows.push(Row {
                workload,
                metric: metric.to_string(),
                value: value.parse().map_err(|_| bad())?,
                unit: unit.to_string(),
                n: n.parse().map_err(|_| bad())?,
            }),
            _ => return Err(bad()),
        }
    }
    Ok((rows, failed == 0 && output.status.success()))
}

/// One pass over the whole set, in the given workload order.
fn run_set(
    out: &Path,
    seed: u64,
    order: impl Iterator<Item = usize>,
) -> Result<(Vec<Row>, bool), String> {
    let (mut rows, mut correct) = (Vec::new(), true);
    for index in order {
        let (full, ok) = run_child(out, index, seed, false)?;
        let (quarter, ok_traced) = run_child(out, index, seed, true)?;
        correct &= ok && ok_traced;
        // What both report (the `e2e.*` metrics, the kernel's timings) is
        // taken from the untraced, full-length run.
        let both: Vec<String> = full.iter().map(|r| r.metric.clone()).collect();
        rows.extend(full);
        rows.extend(quarter.into_iter().filter(|r| !both.contains(&r.metric)));
    }
    Ok((rows, correct))
}

fn write_results(out: &Path, seed: u64, rows: &[Row]) -> Result<(), String> {
    let commit = capture("git", &["rev-parse", "HEAD"]);
    let date = capture("date", &["-u", "+%Y-%m-%d"]);
    let rustc = capture("rustc", &["-V"]);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let entries = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"commit\": \"{commit}\", \"date\": \"{date}\", \"machine\": {{\"nproc\": {nproc}, \
                 \"rustc\": \"{rustc}\"}}, \"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \
                 \"value\": {}, \"n\": {}, \"seed\": {seed}, \"scale\": {SCALE}}}",
                r.workload, r.metric, r.unit, r.value, r.n
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let path = out.join("results.json");
    std::fs::write(&path, format!("[\n{entries}\n]\n"))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The two sets' disagreements: any end-to-end metric further apart than
/// its own bound, any exact count that differs at all.
fn disagreements(first: &[Row], second: &[Row]) -> Vec<String> {
    let bound_of = |metric: &str| {
        let gated = END_TO_END.iter().find(|m| m.0 == metric).map(|m| m.3);
        gated.or(EXACT.contains(&metric).then_some(0.0))
    };
    let mut out = Vec::new();
    for a in first {
        let Some(bound) = bound_of(&a.metric) else {
            continue;
        };
        let Some(b) = second
            .iter()
            .find(|b| b.workload == a.workload && b.metric == a.metric)
        else {
            out.push(format!(
                "{} {}: missing from the second set",
                a.workload, a.metric
            ));
            continue;
        };
        let apart = if a.value == b.value {
            0.0
        } else {
            (a.value - b.value).abs() / a.value.abs().min(b.value.abs())
        };
        let slack = a.metric == "setup_s" && (a.value - b.value).abs() <= SETUP_SLACK_S;
        if apart > bound && !slack {
            out.push(format!(
                "{} {}: {} vs {} ({:.1} % apart, bound {:.0} %)",
                a.workload,
                a.metric,
                a.value,
                b.value,
                apart * 100.0,
                bound * 100.0
            ));
        }
    }
    out
}

pub fn run(out: &Path, seed: u64, selfcheck: bool) -> Result<bool, String> {
    let (rows, mut correct) = run_set(out, seed, 0..WORKLOADS.len())?;
    for r in &rows {
        println!("{} {} {} {} {}", r.workload, r.metric, r.value, r.unit, r.n);
    }
    write_results(out, seed, &rows)?;
    if selfcheck {
        let (again, ok) = run_set(out, seed, (0..WORKLOADS.len()).rev())?;
        correct &= ok;
        let diffs = disagreements(&rows, &again);
        for d in &diffs {
            println!("selfcheck: {d}");
        }
        println!(
            "selfcheck: {} disagreement(s) between two sets at seed {seed}",
            diffs.len()
        );
        correct &= diffs.is_empty();
    }
    if !correct {
        println!("FAILED: wrong answers or disagreeing sets; see above");
    }
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(metric: &str, value: f64) -> Row {
        Row {
            workload: "churn_expiry",
            metric: metric.to_string(),
            value,
            unit: String::new(),
            n: 0,
        }
    }

    #[test]
    fn selfcheck_applies_each_metrics_own_bound() {
        let first = [
            row("stmt_per_s", 100.0),
            row("e2e.wal_bytes_per_write", 97.0),
            row("wal.append_ns", 50.0),
        ];
        let near = [
            row("stmt_per_s", 105.0),
            row("e2e.wal_bytes_per_write", 97.0),
            row("wal.append_ns", 500.0), // per-layer timings are not gated
        ];
        assert!(disagreements(&first, &near).is_empty());
        let far = [
            row("stmt_per_s", 130.0),
            row("e2e.wal_bytes_per_write", 97.5),
            row("wal.append_ns", 50.0),
        ];
        assert_eq!(disagreements(&first, &far).len(), 2);
        // A short set-up may differ by 0.05 s, a long one only by its bound.
        let setups = |a, b| disagreements(&[row("setup_s", a)], &[row("setup_s", b)]).len();
        assert_eq!((setups(0.11, 0.15), setups(1.0, 1.3)), (0, 1));
        assert_eq!(
            disagreements(&first, &first[..1]).len(),
            1,
            "a missing metric"
        );
    }
}
