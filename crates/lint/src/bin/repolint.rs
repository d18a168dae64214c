//! Repo-invariant lint gate: walks the workspace sources and enforces the
//! `R001`–`R007` rules. Exits non-zero on any violation, so `scripts/ci.sh`
//! can use it directly.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    // Default to the workspace root this binary was built from; accept an
    // explicit root as the single argument.
    let root = std::env::args().nth(1).map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
        PathBuf::from,
    );
    match exptime_lint::check_repo(&root) {
        Ok(violations) if violations.is_empty() => {
            println!(
                "repolint: ok (R001 wall-clock, R002 durability unwrap, \
                 R003 forbid-unsafe, R004 thread-sleep, R005 table-copy, \
                 R006 nu-oracle, R007 one-read)"
            );
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                eprintln!("{v}");
            }
            eprintln!("repolint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("repolint: i/o error: {e}");
            ExitCode::FAILURE
        }
    }
}
