//! The analyzer turned inward: repo-invariant checks for the codebase
//! itself (the `scripts/ci.sh` repolint gate).
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | R001 | No wall-clock reads (`SystemTime`) outside `crates/core/src/time.rs` — simulated `Time` is the only clock queries may observe. |
//! | R002 | No `unwrap()`/`expect(` in durability paths (`crates/wal/src`, `crates/engine/src/durability.rs`, and `crates/engine/src/db/write.rs` — the write path produces every data record and is what recovery redoes them with): such code must return errors, not die. Mutex-poisoning `lock().unwrap()` is the one allowed idiom. |
//! | R003 | Every crate root declares `#![forbid(unsafe_code)]` (the workspace contains no unsafe). |
//! | R004 | No `std::thread::sleep` outside test/bench/fault-injection code and the few real-time boundaries (tickers, network backoff, daemon pacing): query/maintenance paths must advance the simulated clock, never stall the thread. |
//! | R005 | No `Database::snapshot` call in production code under `crates/*/src`, and no `Table::to_relation` call in `crates/engine/src` outside `db/stored.rs` (where `snapshot` itself makes its one): a read is a pinned `τ` over the borrowed tables that copies only the rows that come out, not a copy of them. The copy stays as the reference that tests, benches, examples and the out-of-tree benchmark compare the read path against. |
//! | R006 | No `value_timeline`, `nu_naive` or closure-form `nu::nu(` in production code under `crates/core/src/algebra/` or `crates/engine/src`: the timeline definitions of ν re-apply `f` to a copy of the survivors at every time slice (or tick) and are the oracle that `nu::first_change` — what evaluation computes — is tested against, not a path a query may take. |
//! | R007 | No `prev_covered(` and no `.rel.exp(` in production code that holds a materialisation — `crates/replica/src`, `crates/net/src`, `crates/engine/src` and `crates/core/src/{schrodinger,materialize}.rs`: which instant a materialisation can answer for, and the rows it has at one (the stored rows *plus* the due part of its Theorem 3 queue), are `Materialized::{covered_at, rows_at, answer}`. `crates/core/src/algebra/eval.rs`, where that kernel is defined, is the one place that does either by hand. |

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One violated repo invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepoViolation {
    /// Rule code (`R001`…).
    pub rule: &'static str,
    /// File, relative to the checked root.
    pub path: PathBuf,
    /// 1-based line (0 for whole-file rules).
    pub line: usize,
    /// What was found.
    pub message: String,
}

impl fmt::Display for RepoViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}: {}",
            self.rule,
            self.path.display(),
            self.line,
            self.message
        )
    }
}

/// Runs every repo rule against the workspace at `root`.
///
/// # Errors
///
/// Returns I/O errors from directory walks; individual unreadable files
/// are skipped.
pub fn check_repo(root: &Path) -> io::Result<Vec<RepoViolation>> {
    let mut out = Vec::new();
    let sources = rust_sources(root)?;
    for path in &sources {
        let Ok(content) = fs::read_to_string(path) else {
            continue;
        };
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        check_r001(&rel, &content, &mut out);
        check_r002(&rel, &content, &mut out);
        check_r004(&rel, &content, &mut out);
        check_r005(&rel, &content, &mut out);
        check_r006(&rel, &content, &mut out);
        check_r007(&rel, &content, &mut out);
    }
    check_r003(root, &mut out);
    out.sort_by(|a, b| (a.rule, &a.path, a.line).cmp(&(b.rule, &b.path, b.line)));
    Ok(out)
}

/// All `.rs` files under the workspace's source roots (crate sources,
/// shims, the facade, integration tests) — skipping `target/`.
fn rust_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "shims", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Strips line comments and string/char literals well enough for keyword
/// scanning (the rules look for identifiers, not exact syntax).
fn code_only(line: &str) -> &str {
    let trimmed = line.trim_start();
    if trimmed.starts_with("//") {
        return "";
    }
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Whether `content` has entered its `#[cfg(test)]` module by `line_idx`
/// — durability rules only govern production code.
fn line_is_in_tests(lines: &[&str], line_idx: usize) -> bool {
    lines[..=line_idx]
        .iter()
        .any(|l| l.trim_start().starts_with("#[cfg(test)]"))
}

/// R001: `SystemTime` (wall clock) outside `crates/core/src/time.rs`.
fn check_r001(rel: &Path, content: &str, out: &mut Vec<RepoViolation>) {
    // time.rs owns the wall clock; this file names the banned identifier
    // in its own rule text and fixtures.
    if rel == Path::new("crates/core/src/time.rs") || rel == Path::new("crates/lint/src/repo.rs") {
        return;
    }
    for (i, line) in content.lines().enumerate() {
        if code_only(line).contains("SystemTime") {
            out.push(RepoViolation {
                rule: "R001",
                path: rel.to_path_buf(),
                line: i + 1,
                message: "wall-clock read (SystemTime) outside crates/core/src/time.rs; \
                          queries must observe only the simulated clock"
                    .to_string(),
            });
        }
    }
}

/// R002: `unwrap()`/`expect(` in durability paths' production code.
fn check_r002(rel: &Path, content: &str, out: &mut Vec<RepoViolation>) {
    let is_durability = rel.starts_with("crates/wal/src")
        || rel == Path::new("crates/engine/src/durability.rs")
        || rel == Path::new("crates/engine/src/db/write.rs");
    if !is_durability {
        return;
    }
    let lines: Vec<&str> = content.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let code = code_only(line);
        if !(code.contains(".unwrap()") || code.contains(".expect(")) {
            continue;
        }
        // Mutex poisoning: a poisoned lock means a panic already happened
        // on another thread; unwrapping is the accepted idiom.
        if code.contains("lock().unwrap()") {
            continue;
        }
        if line_is_in_tests(&lines, i) {
            continue;
        }
        out.push(RepoViolation {
            rule: "R002",
            path: rel.to_path_buf(),
            line: i + 1,
            message: "unwrap()/expect() in a durability path; recovery code must \
                      propagate errors"
                .to_string(),
        });
    }
}

/// R004: `thread::sleep` outside test/bench code and the boundary files
/// that legitimately touch wall-clock time.
///
/// The engine's whole premise is that time is data — a logical clock
/// advanced by `tick()`, never awaited. A stray `sleep` in a query or
/// maintenance path means some behaviour depends on wall-clock pacing
/// and will never be reproducible under the simulated clock. The only
/// places allowed to block a thread are the edges where simulated time
/// meets real time:
///
/// - `crates/engine/src/shared.rs` — the background ticker mapping
///   wall-clock intervals to logical ticks;
/// - `crates/net/src/client.rs` — retry backoff between reconnects;
/// - `crates/net/src/server.rs` — the non-blocking acceptor's poll
///   interval;
/// - `crates/telemetryd/src/bin/telemetryd.rs` — the daemon's
///   serve-forever loop.
fn check_r004(rel: &Path, content: &str, out: &mut Vec<RepoViolation>) {
    const ALLOWED: &[&str] = &[
        "crates/engine/src/shared.rs",
        "crates/net/src/client.rs",
        "crates/net/src/server.rs",
        "crates/telemetryd/src/bin/telemetryd.rs",
        // This file names the banned identifier in its rule text.
        "crates/lint/src/repo.rs",
    ];
    if ALLOWED.iter().any(|a| rel == Path::new(a)) {
        return;
    }
    // Integration tests and benches pace real threads by design.
    if rel.starts_with("tests") || rel.components().any(|c| c.as_os_str() == "benches") {
        return;
    }
    let lines: Vec<&str> = content.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if !code_only(line).contains("thread::sleep") {
            continue;
        }
        if line_is_in_tests(&lines, i) {
            continue;
        }
        out.push(RepoViolation {
            rule: "R004",
            path: rel.to_path_buf(),
            line: i + 1,
            message: "thread::sleep outside test/bench/boundary code; advance the \
                      simulated clock (tick) instead of stalling the thread"
                .to_string(),
        });
    }
}

/// R005: `<binding>.snapshot()` in production code under `crates/*/src`,
/// and `.to_relation(` in the engine outside `db/stored.rs` — the two ways
/// a read could go back to copying a table instead of visiting it.
///
/// The rule is textual, so it tells a database from the metric types
/// that also have a `snapshot()` by the receiver: a database is held in a
/// plain binding (`db`, `server`, `self`), metrics are reached through a
/// field or a call (`self.counters.snapshot()`,
/// `db.metrics().snapshot()`). `crates/obs` — upstream of the engine, and
/// the home of those metric types — is out of scope.
fn check_r005(rel: &Path, content: &str, out: &mut Vec<RepoViolation>) {
    const CALL: &str = ".snapshot()";
    const TABLE_COPY: &str = ".to_relation(";
    let in_crate_src =
        rel.starts_with("crates") && rel.components().any(|c| c.as_os_str() == "src");
    if !in_crate_src || rel.starts_with("crates/obs") {
        return;
    }
    // `Database::snapshot`, the reference copy, lives in `db/stored.rs`.
    let in_engine_read_path =
        rel.starts_with("crates/engine/src") && rel != Path::new("crates/engine/src/db/stored.rs");
    let lines: Vec<&str> = content.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let code = code_only(line);
        let on_plain_binding = code.match_indices(CALL).any(|(at, _)| {
            let receiver = code[..at].trim_end_matches(|c: char| c.is_alphanumeric() || c == '_');
            receiver.len() < at && !receiver.ends_with('.')
        });
        let message = if on_plain_binding {
            "Database::snapshot in production code; evaluate over the \
             database itself (it is the algebra's binding environment)"
        } else if in_engine_read_path && code.contains(TABLE_COPY) {
            "Table::to_relation in the engine; visit the table's rows \
             (Bindings::visit) and copy only the ones that come out"
        } else {
            continue;
        };
        if line_is_in_tests(&lines, i) {
            continue;
        }
        out.push(RepoViolation {
            rule: "R005",
            path: rel.to_path_buf(),
            line: i + 1,
            message: message.to_string(),
        });
    }
}

/// R006: the timeline definitions of ν (`value_timeline`, `nu_naive`, the
/// closure-form `nu::nu(`) named in production code on the evaluation
/// path — the algebra and the engine. They stay public in
/// `core::aggregate::nu` for tests, `approx`, the experiments and the
/// benches; evaluation calls `nu::first_change`.
fn check_r006(rel: &Path, content: &str, out: &mut Vec<RepoViolation>) {
    const ORACLES: [&str; 3] = ["value_timeline", "nu_naive", "nu::nu("];
    if !(rel.starts_with("crates/core/src/algebra") || rel.starts_with("crates/engine/src")) {
        return;
    }
    let lines: Vec<&str> = content.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let code = code_only(line);
        let Some(name) = ORACLES.iter().find(|name| code.contains(**name)) else {
            continue;
        };
        if line_is_in_tests(&lines, i) {
            continue;
        }
        out.push(RepoViolation {
            rule: "R006",
            path: rel.to_path_buf(),
            line: i + 1,
            message: format!(
                "`{}` on the evaluation path; the timeline definitions of ν are \
                 the test oracle — evaluation computes nu::first_change",
                name.trim_end_matches('(')
            ),
        });
    }
}

/// R007: a hand-rolled read of a materialisation — `validity.prev_covered(`
/// (which instant can it answer for?) or `.rel.exp(` (what are its rows
/// then? — not those alone, under Theorem 3) — in production code of a
/// holder: the replicas, the degraded-read cache, the engine's views, and
/// the Schrödinger policies and `MaterializedView` in `core`. They ask
/// `Materialized::{covered_at, rows_at, answer}`, defined in
/// `core/src/algebra/eval.rs`, which is outside the rule's reach.
fn check_r007(rel: &Path, content: &str, out: &mut Vec<RepoViolation>) {
    const BY_HAND: [&str; 2] = ["prev_covered(", ".rel.exp("];
    const HOLDERS: [&str; 5] = [
        "crates/replica/src",
        "crates/net/src",
        "crates/engine/src",
        "crates/core/src/schrodinger.rs",
        "crates/core/src/materialize.rs",
    ];
    if !HOLDERS.iter().any(|h| rel.starts_with(h)) {
        return;
    }
    let lines: Vec<&str> = content.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let code = code_only(line);
        let Some(call) = BY_HAND.iter().find(|call| code.contains(**call)) else {
            continue;
        };
        if line_is_in_tests(&lines, i) {
            continue;
        }
        out.push(RepoViolation {
            rule: "R007",
            path: rel.to_path_buf(),
            line: i + 1,
            message: format!(
                "`{call}…)` in a holder of a materialisation; ask it \
                 (Materialized::answer / covered_at / rows_at) — its rows are \
                 not its result while its patch queue has entries due"
            ),
        });
    }
}

/// R003: every crate root carries `#![forbid(unsafe_code)]`.
fn check_r003(root: &Path, out: &mut Vec<RepoViolation>) {
    let mut roots: Vec<PathBuf> = vec![PathBuf::from("src/lib.rs")];
    for parent in ["crates", "shims"] {
        let dir = root.join(parent);
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let lib = entry.path().join("src/lib.rs");
            if lib.is_file() {
                roots.push(lib.strip_prefix(root).unwrap_or(&lib).to_path_buf());
            }
        }
    }
    for rel in roots {
        let Ok(content) = fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        if !content.contains("#![forbid(unsafe_code)]") {
            out.push(RepoViolation {
                rule: "R003",
                path: rel,
                line: 0,
                message: "crate root lacks #![forbid(unsafe_code)] (the workspace \
                          contains no unsafe)"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(files: &[(&str, &str)]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "exptime-lint-fixture-{}-{:p}",
            std::process::id(),
            files
        ));
        let _ = fs::remove_dir_all(&dir);
        for (rel, content) in files {
            let path = dir.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, content).unwrap();
        }
        dir
    }

    #[test]
    fn r001_flags_wall_clock_outside_core_time() {
        let dir = fixture(&[
            (
                "crates/engine/src/lib.rs",
                "#![forbid(unsafe_code)]\nfn now() { let _ = std::time::SystemTime::now(); }\n",
            ),
            (
                "crates/core/src/time.rs",
                "pub fn wall() { let _ = std::time::SystemTime::now(); }\n",
            ),
            ("crates/core/src/lib.rs", "#![forbid(unsafe_code)]\n"),
            ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let v = check_repo(&dir).unwrap();
        let r001: Vec<_> = v.iter().filter(|v| v.rule == "R001").collect();
        assert_eq!(r001.len(), 1, "{v:?}");
        assert_eq!(r001[0].path, Path::new("crates/engine/src/lib.rs"));
        assert_eq!(r001[0].line, 2);
        // R003 fires for the missing engine forbid? No — engine root has it.
        assert!(v.iter().all(|v| v.rule != "R003"), "{v:?}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn r002_allows_lock_poisoning_and_test_code() {
        let dir = fixture(&[
            (
                "crates/wal/src/store.rs",
                "fn a() { x.lock().unwrap(); }\n\
                 fn b() { y.unwrap(); }\n\
                 // z.unwrap() in a comment is fine\n\
                 #[cfg(test)]\n\
                 mod tests { fn c() { t.unwrap(); } }\n",
            ),
            ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let v = check_repo(&dir).unwrap();
        let r002: Vec<_> = v.iter().filter(|v| v.rule == "R002").collect();
        assert_eq!(r002.len(), 1, "{v:?}");
        assert_eq!(r002[0].line, 2);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn r002_covers_the_write_path_and_ignores_non_durability_paths() {
        let unwrapping = "fn a() { x.unwrap(); }\n";
        let dir = fixture(&[
            ("crates/cli/src/repl.rs", unwrapping),
            ("crates/engine/src/db.rs", unwrapping),
            (
                "crates/engine/src/db/write.rs",
                "fn apply() { t.get_mut(k).expect(\"resolved above\"); }\n",
            ),
            ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let v = check_repo(&dir).unwrap();
        let r002: Vec<_> = v.iter().filter(|v| v.rule == "R002").collect();
        assert_eq!(r002.len(), 1, "{v:?}");
        assert_eq!(r002[0].path, Path::new("crates/engine/src/db/write.rs"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn r003_requires_forbid_unsafe_in_crate_roots() {
        let dir = fixture(&[
            ("crates/core/src/lib.rs", "//! no forbid here\n"),
            ("shims/rand/src/lib.rs", "#![forbid(unsafe_code)]\n"),
            ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let v = check_repo(&dir).unwrap();
        let r003: Vec<_> = v.iter().filter(|v| v.rule == "R003").collect();
        assert_eq!(r003.len(), 1, "{v:?}");
        assert_eq!(r003[0].path, Path::new("crates/core/src/lib.rs"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn r004_flags_sleeps_outside_tests_and_boundaries() {
        let sleepy = "fn pace() { std::thread::sleep(d); }\n\
                      #[cfg(test)]\n\
                      mod tests { fn t() { std::thread::sleep(d); } }\n";
        let dir = fixture(&[
            ("crates/engine/src/db.rs", sleepy),
            ("crates/engine/src/shared.rs", sleepy),
            ("crates/net/src/client.rs", sleepy),
            ("tests/net_chaos.rs", "fn t() { std::thread::sleep(d); }\n"),
            (
                "crates/storage/benches/scan.rs",
                "fn warm() { std::thread::sleep(d); }\n",
            ),
            ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let v = check_repo(&dir).unwrap();
        let r004: Vec<_> = v.iter().filter(|v| v.rule == "R004").collect();
        // Only the non-boundary production sleep (db.rs line 1) fires:
        // shared.rs/client.rs are allowlisted boundaries, tests/ and
        // benches/ pace real threads by design, and the cfg(test) copy
        // inside db.rs is exempt too.
        assert_eq!(r004.len(), 1, "{v:?}");
        assert_eq!(r004[0].path, Path::new("crates/engine/src/db.rs"));
        assert_eq!(r004[0].line, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn r005_flags_database_snapshots_in_production_code_only() {
        let copying = "fn q(db: &Database) { eval(&e, &db.snapshot(), now, &o); }\n\
                       fn s(&self) -> DbStats { self.counters.snapshot() }\n\
                       fn m(db: &Database) { db.metrics().snapshot(); }\n\
                       #[cfg(test)]\n\
                       mod tests { fn t() { server.snapshot(); } }\n";
        let dir = fixture(&[
            ("crates/replica/src/baseline.rs", copying),
            (
                "crates/obs/src/metrics.rs",
                "fn r(h: &H) { h.snapshot(); }\n",
            ),
            (
                "crates/bench/benches/engine.rs",
                "fn b() { db.snapshot(); }\n",
            ),
            ("examples/demo.rs", "fn main() { db.snapshot(); }\n"),
            ("tests/oracle.rs", "fn t() { srv.snapshot(); }\n"),
            ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let v = check_repo(&dir).unwrap();
        let r005: Vec<_> = v.iter().filter(|v| v.rule == "R005").collect();
        // Only the copy on a plain binding in production code fires:
        // field and call receivers are metric snapshots, and tests,
        // benches, examples and crates/obs are out of scope.
        assert_eq!(r005.len(), 1, "{v:?}");
        assert_eq!(r005[0].path, Path::new("crates/replica/src/baseline.rs"));
        assert_eq!(r005[0].line, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn r005_flags_table_copies_in_the_engine_outside_the_reference_snapshot() {
        let copying = "fn scan(t: &Table) -> Relation { t.to_relation(now) }\n\
                       #[cfg(test)]\n\
                       mod tests { fn t() { table.to_relation(now); } }\n";
        let dir = fixture(&[
            ("crates/engine/src/db.rs", copying),
            ("crates/engine/src/db/stored.rs", copying),
            ("crates/bench/src/workload.rs", copying),
            ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let v = check_repo(&dir).unwrap();
        let r005: Vec<_> = v.iter().filter(|v| v.rule == "R005").collect();
        // `db/stored.rs` holds the reference `Database::snapshot`, other
        // crates have their own `to_relation`s, tests may copy.
        assert_eq!(r005.len(), 1, "{v:?}");
        assert_eq!(r005[0].path, Path::new("crates/engine/src/db.rs"));
        assert_eq!(r005[0].line, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn r006_keeps_the_nu_oracles_off_the_evaluation_path() {
        let timeline = "fn meta(p: &[Row]) { nu::value_timeline(tau, p, &mut f); }\n\
                        fn bound(p: &[Row]) { aggregate::nu::nu(tau, p, &mut f); }\n\
                        fn tick(p: &[Row]) { nu_naive(tau, p, &mut f, h); }\n\
                        /// Not [`value_timeline`]: see `nu::first_change`.\n\
                        fn fine(p: &[Row]) { nu::first_change(tau, p, f); }\n\
                        #[cfg(test)]\n\
                        mod tests { fn t() { nu::nu(tau, p, &mut f); } }\n";
        let dir = fixture(&[
            ("crates/core/src/algebra/ops.rs", timeline),
            ("crates/engine/src/db.rs", timeline),
            ("crates/core/src/aggregate/approx.rs", timeline),
            ("crates/bench/src/experiments.rs", timeline),
            ("tests/prop_aggregate.rs", timeline),
            ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let v = check_repo(&dir).unwrap();
        let r006: Vec<_> = v.iter().filter(|v| v.rule == "R006").collect();
        // Three production lines in each of the two evaluation-path
        // files; comments, `first_change`, test modules, the aggregate
        // module itself, experiments and integration tests are free.
        let at: Vec<_> = r006.iter().map(|v| (v.path.as_path(), v.line)).collect();
        let (ops, db) = (
            Path::new("crates/core/src/algebra/ops.rs"),
            Path::new("crates/engine/src/db.rs"),
        );
        assert_eq!(
            at,
            [(ops, 1), (ops, 2), (ops, 3), (db, 1), (db, 2), (db, 3)],
            "{v:?}"
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn r007_sends_every_holder_of_a_materialisation_to_the_kernel() {
        let by_hand = "fn back(m: &Materialized) { m.validity.prev_covered(now); }\n\
                       fn rows(e: &Entry) -> Relation { e.m.rel.exp(back) }\n\
                       /// Not `m.rel.exp(t)`: see `Materialized::rows_at`.\n\
                       fn fine(m: &Materialized) { m.answer(now); m.rel.iter(); }\n\
                       #[cfg(test)]\n\
                       mod tests { fn t() { fresh.rel.exp(now); } }\n";
        let dir = fixture(&[
            ("crates/replica/src/session.rs", by_hand),
            ("crates/net/src/degrade.rs", by_hand),
            ("crates/engine/src/db/views.rs", by_hand),
            ("crates/core/src/schrodinger.rs", by_hand),
            ("crates/core/src/materialize.rs", by_hand),
            ("crates/core/src/algebra/eval.rs", by_hand),
            ("crates/core/src/interval.rs", by_hand),
            ("crates/bench/src/experiments.rs", by_hand),
            ("tests/prop_views.rs", by_hand),
            ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let v = check_repo(&dir).unwrap();
        let r007: Vec<_> = v.iter().filter(|v| v.rule == "R007").collect();
        // Lines 1 and 2 of each of the five holders; the kernel's file,
        // the interval module, the experiments and integration tests may
        // do either, and so may comments and test modules.
        let at: Vec<_> = r007
            .iter()
            .map(|v| (v.path.to_str().unwrap(), v.line))
            .collect();
        let holders = [
            "crates/core/src/materialize.rs",
            "crates/core/src/schrodinger.rs",
            "crates/engine/src/db/views.rs",
            "crates/net/src/degrade.rs",
            "crates/replica/src/session.rs",
        ];
        let want: Vec<_> = holders.iter().flat_map(|h| [(*h, 1), (*h, 2)]).collect();
        assert_eq!(at, want, "{v:?}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn the_actual_workspace_passes() {
        // The repository this crate lives in must satisfy its own gate.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let v = check_repo(&root).unwrap();
        assert!(v.is_empty(), "repo invariant violations:\n{}", {
            v.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        });
    }
}
