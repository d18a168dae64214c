//! The analyzer turned inward: repo-invariant checks for the codebase
//! itself (the `scripts/ci.sh` repolint gate). What each rule holds, and
//! why, is DESIGN.md §11.3.
//!
//! Most rules are per-line bans, rows of one table (`BANS`) that one
//! scanner walks: the paths a row governs and exempts, its words and how
//! to match them, and its message are data. R008 and R009 hold a list of
//! names to a DESIGN.md table, both ways, through one check. R003 looks
//! at the crate roots, and R011 at the manifests.

use std::collections::BTreeSet;
use std::ffi::OsStr;
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
        let path = self.path.display();
        write!(f, "{} {path}:{}: {}", self.rule, self.line, self.message)
    }
}

/// How a ban finds one of its words in a line of code.
#[derive(Clone, Copy)]
enum Matcher {
    /// Anywhere in the line.
    Substring,
    /// As a whole identifier (a `.field` keeps its dot): `self.wal` and
    /// `degraded`, not `self.wal_stmt` or `undegraded`.
    Identifier,
    /// Called on a plain binding. The rules are textual, so a database
    /// (held in `db`, `server`, `self`) is told from the metric types that
    /// also have a `snapshot()` by the receiver: metrics are reached
    /// through a field or a call (`self.counters.snapshot()`,
    /// `db.metrics().snapshot()`).
    PlainBinding,
}

impl Matcher {
    fn finds(self, code: &str, word: &str) -> bool {
        let ident = |c: char| c.is_alphanumeric() || c == '_';
        code.match_indices(word).any(|(at, _)| match self {
            Matcher::Substring => true,
            Matcher::Identifier => {
                let glued_before = word.starts_with(ident) && code[..at].ends_with(ident);
                let glued_after =
                    word.ends_with(ident) && code[at + word.len()..].starts_with(ident);
                !glued_before && !glued_after
            }
            Matcher::PlainBinding => {
                let receiver = code[..at].trim_end_matches(ident);
                receiver.len() < at && !receiver.ends_with('.')
            }
        })
    }
}

/// One per-line ban: a production line of a file the row governs (and
/// does not exempt) that names one of its words is a violation. Paths are
/// relative to the root; a path covers everything below it, and a
/// component may be `*` (any one) or `**` (any number).
struct Ban {
    rule: &'static str,
    governs: &'static [&'static str],
    exempt: &'static [&'static str],
    words: &'static [&'static str],
    matcher: Matcher,
    /// A line that contains one of these is allowed.
    allow: &'static [&'static str],
    /// Whether a file's `#[cfg(test)]` module is linted too.
    lints_tests: bool,
    /// Why the word is banned there, after the word that was found.
    message: &'static str,
}

const BAN: Ban = Ban {
    rule: "",
    governs: &[],
    exempt: &[],
    words: &[],
    matcher: Matcher::Substring,
    allow: &[],
    lints_tests: false,
    message: "",
};

/// Every per-line ban. This file names the banned words, so it is exempt
/// from the rows whose scope reaches it.
const BANS: &[Ban] = &[
    Ban {
        rule: "R001",
        governs: &["**"],
        exempt: &["crates/core/src/time.rs", "crates/lint/src/repo.rs"],
        words: &["SystemTime"],
        lints_tests: true,
        message: "is a wall-clock read; queries must observe only the simulated clock",
        ..BAN
    },
    Ban {
        rule: "R002",
        governs: &[
            "crates/wal/src",
            "crates/engine/src/durability.rs",
            "crates/engine/src/db/durable.rs",
            "crates/engine/src/db/write.rs",
        ],
        words: &[".unwrap()", ".expect("],
        allow: &["lock().unwrap()"],
        message: "in a durability path; recovery code must propagate errors",
        ..BAN
    },
    Ban {
        rule: "R004",
        governs: &["**"],
        exempt: &[
            "crates/engine/src/shared.rs",
            "crates/net/src/client.rs",
            "crates/net/src/server.rs",
            "crates/telemetryd/src/bin/telemetryd.rs",
            "crates/lint/src/repo.rs",
            "tests",
            "**/benches",
        ],
        words: &["thread::sleep"],
        message: "stalls the thread; advance the simulated clock (tick) instead",
        ..BAN
    },
    Ban {
        rule: "R005",
        governs: &["crates/*/src"],
        exempt: &["crates/obs"],
        words: &[".snapshot()"],
        matcher: Matcher::PlainBinding,
        message: "copies the database; evaluate over it (the algebra's binding environment)",
        ..BAN
    },
    Ban {
        rule: "R005",
        governs: &["crates/engine/src"],
        exempt: &["crates/engine/src/db/stored.rs"],
        words: &[".to_relation("],
        message: "copies a table; visit its rows (Bindings::visit), copy the ones that come out",
        ..BAN
    },
    Ban {
        rule: "R007",
        governs: &[
            "crates/replica/src",
            "crates/net/src",
            "crates/engine/src",
            "crates/core/src/schrodinger.rs",
            "crates/core/src/materialize.rs",
        ],
        words: &["prev_covered(", ".rel.exp("],
        message: "by hand; Materialized::{answer, covered_at, rows_at} count the patch queue in",
        ..BAN
    },
    Ban {
        rule: "R010",
        governs: &["crates/engine/src"],
        exempt: &[
            "crates/engine/src/db/durable.rs",
            "crates/engine/src/durability.rs",
        ],
        words: &[".wal", "degraded"],
        matcher: Matcher::Identifier,
        message: "outside the durability stage, db/durable.rs",
        ..BAN
    },
    Ban {
        rule: "R010",
        governs: &["crates/engine/src"],
        exempt: &["crates/engine/src/db/maintain.rs"],
        words: &["expire_due("],
        matcher: Matcher::Identifier,
        message: "outside the maintenance stage, db/maintain.rs",
        ..BAN
    },
    Ban {
        rule: "R010",
        governs: &["crates/engine/src"],
        exempt: &["crates/engine/src/db/analysis.rs"],
        words: &[
            "exptime_lint::analyze(",
            "exptime_lint::audit(",
            "exptime_lint::render(",
        ],
        matcher: Matcher::Identifier,
        message: "outside the analyzer stage, db/analysis.rs",
        ..BAN
    },
    Ban {
        rule: "R010",
        governs: &["crates/net/src"],
        exempt: &["crates/net/src/session.rs", "crates/net/src/error.rs"],
        words: &["is_retryable(", "ErrorCode::SessionExpired"],
        matcher: Matcher::Identifier,
        message: "outside the session stage, session.rs",
        ..BAN
    },
    Ban {
        rule: "R012",
        governs: &["crates/core/src", "crates/storage/src"],
        exempt: &["crates/core/src/hash.rs"],
        words: &["HashMap<", "HashSet<", "HashMap::new", "HashSet::new"],
        message: "hashes with SipHash; a row-keyed table is a `RowMap`/`RowSet`",
        ..BAN
    },
];

/// Whether `rel` is one of `patterns` or below it (`*` and `**` as in
/// [`Ban`]).
fn under(rel: &Path, patterns: &[&str]) -> bool {
    fn from(pattern: &[&str], path: &[&OsStr]) -> bool {
        match pattern.split_first() {
            None => true,
            Some((&"**", rest)) => (0..=path.len()).any(|i| from(rest, &path[i..])),
            Some((p, rest)) => path
                .split_first()
                .is_some_and(|(c, tail)| (*p == "*" || **c == **p) && from(rest, tail)),
        }
    }
    let path: Vec<&OsStr> = rel.iter().collect();
    patterns
        .iter()
        .any(|p| from(&p.split('/').collect::<Vec<_>>(), &path))
}

/// Every rule code repolint checks: the ban table's, R003, R008, R009
/// and R011.
#[must_use]
pub fn rule_codes() -> BTreeSet<&'static str> {
    let others = ["R003", "R008", "R009", "R011"];
    BANS.iter().map(|b| b.rule).chain(others).collect()
}

/// Runs every repo rule against the workspace at `root`.
///
/// # Errors
///
/// Returns I/O errors from directory walks; individual unreadable files
/// are skipped.
pub fn check_repo(root: &Path) -> io::Result<Vec<RepoViolation>> {
    let rust: fn(&Path) -> bool = |f| f.extension().is_some_and(|e| e == "rs");
    let manifest: fn(&Path) -> bool = |f| f.ends_with(MANIFEST);
    let mut files = Vec::new();
    for top in ["crates", "shims", "src", "tests", "examples"] {
        sources(root, Path::new(top), rust, &mut files)?;
    }
    let root_manifest = fs::read_to_string(root.join(MANIFEST));
    let mut manifests: Vec<_> = root_manifest
        .map(|c| (PathBuf::from(MANIFEST), c))
        .into_iter()
        .collect();
    for top in ["crates", "shims", "benchmark"] {
        sources(root, Path::new(top), manifest, &mut manifests)?;
    }
    let mut out = Vec::new();
    for (rel, content) in &files {
        let governed = |b: &&Ban| under(rel, b.governs) && !under(rel, b.exempt);
        for ban in BANS.iter().filter(governed) {
            for (line, code) in code_lines(content, ban.lints_tests) {
                if ban.allow.iter().any(|a| code.contains(a)) {
                    continue;
                }
                if let Some(word) = ban.words.iter().find(|w| ban.matcher.finds(code, w)) {
                    out.push(RepoViolation {
                        rule: ban.rule,
                        path: rel.clone(),
                        line,
                        message: format!("`{word}` {}", ban.message),
                    });
                }
            }
        }
    }
    check_r003(root, &mut out);
    check_r011(&manifests, &mut out);
    // A tree without a DESIGN.md (a fixture) has nothing to hold R008 and
    // R009 to.
    if let Ok(design) = fs::read_to_string(root.join("DESIGN.md")) {
        check_r008(&design, &files, &mut out);
        check_r009(&design, &files, &mut out);
    }
    out.sort_by(|a, b| (a.rule, &a.path, a.line).cmp(&(b.rule, &b.path, b.line)));
    Ok(out)
}

/// The files under `dir` (relative to `root`, skipping `target/`) that
/// `keep` takes, with their contents; an unreadable file is skipped.
fn sources(
    root: &Path,
    dir: &Path,
    keep: fn(&Path) -> bool,
    out: &mut Vec<(PathBuf, String)>,
) -> io::Result<()> {
    if !root.join(dir).is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(root.join(dir))? {
        let rel = dir.join(entry?.file_name());
        if root.join(&rel).is_dir() && !rel.ends_with("target") {
            sources(root, &rel, keep, out)?;
        } else if keep(&rel) {
            out.extend(fs::read_to_string(root.join(&rel)).map(|content| (rel, content)));
        }
    }
    Ok(())
}

/// Strips line comments well enough for keyword scanning (the rules look
/// for identifiers, not exact syntax).
fn code_only(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// `content`'s lines numbered from 1, comments cut: all of them, or
/// (`with_tests` false) those before its test module.
fn code_lines(content: &str, with_tests: bool) -> impl Iterator<Item = (usize, &str)> {
    let lines = content.lines().map(code_only);
    let end = (!with_tests).then(|| tests_start(content));
    (1..).zip(lines.take(end.unwrap_or(usize::MAX)))
}

/// The index of the line that opens the test module: the first
/// `#[cfg(test)]` whose item, past any other attributes, is a `mod` (a
/// `#[cfg(test)]` helper function leaves the code after it production
/// code), or the line count when there is none.
fn tests_start(content: &str) -> usize {
    let mut cfg_test = None;
    for (i, line) in content.lines().enumerate() {
        let mut item = line.trim();
        while let Some(attr) = item.strip_prefix("#[") {
            let (inner, after) = attr.split_once(']').unwrap_or((attr, ""));
            cfg_test = cfg_test.or((inner == "cfg(test)").then_some(i));
            item = after.trim();
        }
        if item.is_empty() || item.starts_with("//") {
            continue;
        }
        let is_mod = item.split_whitespace().find(|w| !w.starts_with("pub")) == Some("mod");
        if let (Some(start), true) = (cfg_test.take(), is_mod) {
            return start;
        }
    }
    content.lines().count()
}

/// R008: each `(prefix, crate dir)` row's metric names — the literals with
/// the prefix that production code under the dir passes to `.counter(`,
/// `.gauge(` or `.histogram(` — against the code spans of DESIGN.md's
/// `` | `prefix.*` | `` metric-table row. Families whose names are built
/// with `format!` (`storage.<t>.*`, `view.<n>.*`, `policy.*`) have no row.
fn check_r008(design: &str, files: &[(PathBuf, String)], out: &mut Vec<RepoViolation>) {
    const ROWS: [(&str, &str); 7] = [
        ("db", "crates/engine/src"),
        ("net", "crates/net/src"),
        ("wal", "crates/wal/src"),
        ("obs", "crates/obs/src"),
        ("slo", "crates/obs/src"),
        ("audit", "crates/obs/src"),
        ("telemetry", "crates/engine/src"),
    ];
    for (prefix, dir) in ROWS {
        let (row_start, wildcard) = (format!("| `{prefix}.*` |"), format!("{prefix}.*"));
        let documented: Vec<Site<'_>> = (1..)
            .zip(design.lines())
            .filter(|(_, l)| l.starts_with(&row_start))
            .take(1)
            .flat_map(|(line, l)| {
                l.split('`')
                    .skip(1)
                    .step_by(2)
                    .map(move |n| (n, Path::new("DESIGN.md"), line))
            })
            .filter(|(n, ..)| n.starts_with(&format!("{prefix}.")) && *n != wildcard)
            .collect();
        let mut emitted = Vec::new();
        for (rel, content) in files.iter().filter(|(rel, _)| rel.starts_with(dir)) {
            for (line, code) in code_lines(content, false) {
                for kind in [".counter(\"", ".gauge(\"", ".histogram(\""] {
                    for (at, _) in code.match_indices(&format!("{kind}{prefix}.")) {
                        let name = code[at + kind.len()..].split('"').next().unwrap_or("");
                        emitted.push((name, rel.as_path(), line));
                    }
                }
            }
        }
        let what = format!("DESIGN.md's `{wildcard}` metric-table row for {dir}");
        documented_both_ways("R008", &what, &documented, &emitted, out);
    }
}

/// R009: the tags `EventKind::tag` returns in `crates/obs/src/events.rs`
/// against the rows of DESIGN.md's `` | Tag | `` event table.
fn check_r009(design: &str, files: &[(PathBuf, String)], out: &mut Vec<RepoViolation>) {
    const EVENTS: &str = "crates/obs/src/events.rs";
    const ARM: &str = "} => \"";
    let documented: Vec<Site<'_>> = (1..)
        .zip(design.lines())
        .skip_while(|(_, l)| !l.starts_with("| Tag |"))
        .skip(2)
        .take_while(|(_, l)| l.starts_with('|'))
        .filter_map(|(line, l)| Some((l.split('`').nth(1)?, Path::new("DESIGN.md"), line)))
        .collect();
    let events = files.iter().find(|(rel, _)| rel == Path::new(EVENTS));
    let emitted: Vec<_> = code_lines(events.map_or("", |(_, c)| c), false)
        .filter(|(_, code)| code.trim_start().starts_with("EventKind::"))
        .filter_map(|(line, code)| {
            let tag = code[code.find(ARM)? + ARM.len()..].split('"').next()?;
            Some((tag, Path::new(EVENTS), line))
        })
        .collect();
    let what = "DESIGN.md's event table of EventKind::tag";
    documented_both_ways("R009", what, &documented, &emitted, out);
}

/// A name at a place: in a DESIGN.md table row, or where the code emits it.
type Site<'a> = (&'a str, &'a Path, usize);

/// The check R008 and R009 share: each name the code emits is
/// `documented` (in `what`), and each documented name is emitted. A name
/// nobody can look up, or a documented one nothing emits, is a name that
/// lies.
fn documented_both_ways(
    rule: &'static str,
    what: &str,
    documented: &[Site<'_>],
    emitted: &[Site<'_>],
    out: &mut Vec<RepoViolation>,
) {
    let unlisted = format!("is emitted but not listed in {what}");
    let unemitted = format!("is listed in {what} but nothing emits it");
    for (from, to, why) in [
        (emitted, documented, unlisted),
        (documented, emitted, unemitted),
    ] {
        for (name, path, line) in from.iter().filter(|(n, ..)| !to.iter().any(|t| t.0 == *n)) {
            let (path, line, message) = (path.to_path_buf(), *line, format!("`{name}` {why}"));
            out.push(RepoViolation {
                rule,
                path,
                line,
                message,
            });
        }
    }
}

/// A package manifest's file name.
const MANIFEST: &str = "Cargo.toml";

/// The crate that holds the paper read literally: the test oracle.
const LITERAL: &str = "exptime-literal";

/// R011: no shipped crate links the oracle. Of every manifest, only the
/// bench crate's may name [`LITERAL`] in a `[dependencies]` table (or a
/// target's); `[dev-dependencies]` and `[workspace.dependencies]` are not
/// such tables. A dependency on it must name it, as its key or as its
/// `package`, for that is the package's name. `exptime-core` cannot
/// depend on it at all: the literal crate depends on core, and cargo
/// refuses the cycle.
fn check_r011(manifests: &[(PathBuf, String)], out: &mut Vec<RepoViolation>) {
    let bench = Path::new("crates/bench").join(MANIFEST);
    for (rel, content) in manifests.iter().filter(|(rel, _)| *rel != bench) {
        let mut in_dependencies = false;
        for (line, text) in (1..).zip(content.lines()) {
            let code = text.split('#').next().unwrap_or_default().trim();
            if let Some(table) = code.strip_prefix('[') {
                let table = table.trim_end_matches(']');
                in_dependencies = table == "dependencies"
                    || table.starts_with("dependencies.")
                    || (table.starts_with("target.") && table.contains(".dependencies"));
            }
            if in_dependencies && code.contains(LITERAL) {
                out.push(RepoViolation {
                    rule: "R011",
                    path: rel.clone(),
                    line,
                    message: format!(
                        "`{LITERAL}` in a [dependencies] table: the paper read literally is \
                         the test oracle, which only crates/bench ships with"
                    ),
                });
            }
        }
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
            (
                "crates/engine/src/db/durable.rs",
                "fn dump() { now.finite().expect(\"clock is finite\"); }\n",
            ),
            ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let v = check_repo(&dir).unwrap();
        let at: Vec<_> = v
            .iter()
            .filter(|v| v.rule == "R002")
            .map(|v| v.path.to_str().unwrap())
            .collect();
        assert_eq!(
            at,
            [
                "crates/engine/src/db/durable.rs",
                "crates/engine/src/db/write.rs"
            ],
            "{v:?}"
        );
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

    /// The oracle crate may be a `[dependencies]` entry of the bench
    /// crate only: named in the engine's (as its key or a renamed
    /// `package`, or in a target's table) it fires; in the root's
    /// `[dev-dependencies]` and `[workspace.dependencies]`, in the bench
    /// crate's `[dependencies]`, or in a comment it does not.
    #[test]
    fn r011_keeps_the_literal_crate_out_of_every_shipped_crate() {
        let root = "[workspace.dependencies]\n\
                    exptime-literal = { path = \"crates/literal\" }\n\
                    [package]\n\
                    name = \"exptime\"\n\
                    [dependencies]\n\
                    exptime-core.workspace = true # not exptime-literal\n\
                    [dev-dependencies]\n\
                    exptime-literal.workspace = true\n";
        let engine = "[package]\n\
                      name = \"exptime-engine\"\n\
                      [dependencies]\n\
                      exptime-core.workspace = true\n\
                      exptime-literal.workspace = true\n\
                      oracle = { package = \"exptime-literal\", path = \"../literal\" }\n\
                      [target.'cfg(unix)'.dependencies]\n\
                      exptime-literal.workspace = true\n\
                      [dev-dependencies]\n\
                      exptime-literal.workspace = true\n";
        let bench = "[package]\n\
                     name = \"exptime-bench\"\n\
                     [dependencies]\n\
                     exptime-literal.workspace = true\n";
        let dir = fixture(&[
            ("Cargo.toml", root),
            ("crates/engine/Cargo.toml", engine),
            ("crates/bench/Cargo.toml", bench),
            ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let v = check_repo(&dir).unwrap();
        let at: Vec<_> = v
            .iter()
            .filter(|v| v.rule == "R011")
            .map(|v| (v.path.to_str().unwrap(), v.line))
            .collect();
        let engine = "crates/engine/Cargo.toml";
        assert_eq!(at, [(engine, 5), (engine, 6), (engine, 8)], "{v:?}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn r012_keeps_siphash_out_of_core_and_storage() {
        let std_map = "pub struct Groups { index: HashMap<Tuple, usize> }\n\
                       fn empty() -> Groups { Groups { index: HashMap::new() } }\n\
                       /// Not a `HashSet<RowId>`: see `hash::RowSet`.\n\
                       #[cfg(test)]\n\
                       mod tests { fn t() { let _: HashSet<u64> = HashSet::new(); } }\n";
        let row_map = "pub struct Groups { index: RowMap<Tuple, usize> }\n\
                       fn empty() -> Groups { Groups { index: RowMap::default() } }\n";
        let dir = fixture(&[
            ("crates/core/src/aggregate/mod.rs", std_map),
            ("crates/storage/src/table.rs", std_map),
            ("crates/core/src/relation.rs", row_map),
            ("crates/core/src/hash.rs", std_map),
            ("crates/engine/src/db.rs", std_map),
            ("tests/prop_storage.rs", std_map),
            ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let v = check_repo(&dir).unwrap();
        // Lines 1 and 2 of each std-hashed core and storage file; a
        // `RowMap`, the hasher's own file, comments, test modules, the
        // engine's name-keyed maps and integration tests are free.
        let at: Vec<_> = v
            .iter()
            .filter(|v| v.rule == "R012")
            .map(|v| (v.path.to_str().unwrap(), v.line))
            .collect();
        let (agg, table) = (
            "crates/core/src/aggregate/mod.rs",
            "crates/storage/src/table.rs",
        );
        assert_eq!(at, [(agg, 1), (agg, 2), (table, 1), (table, 2)], "{v:?}");
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
    fn r008_holds_each_crates_metrics_to_their_design_row() {
        let engine = "fn in_registry(r: &R) {\n\
                      r.counter(\"db.inserts\"); r.histogram(\"db.query_ns\");\n\
                      r.counter(\"db.deletes\");\n\
                      // r.gauge(\"db.commented\");\n\
                      r.counter(\"storage.pol.scans\"); }\n\
                      #[cfg(test)]\n\
                      mod tests { fn t(r: &R) { r.counter(\"db.test_only\"); } }\n";
        let dir = fixture(&[
            (
                "DESIGN.md",
                "# metrics\n\n| Prefix | Owner | Examples |\n\
                 | `db.*` | `engine::Database` | `db.inserts`, `db.query_ns`, `db.gone` |\n\
                 | `net.*` | `net::NetServer` | `net.shed` |\n",
            ),
            ("crates/engine/src/db.rs", engine),
            (
                "crates/net/src/server.rs",
                "fn m(r: &R) {\n r.counter(\"net.shed\");\n r.gauge(\"net.unlisted\"); }\n",
            ),
            (
                "crates/cli/src/repl.rs",
                "fn m(r: &R) { r.counter(\"db.elsewhere\"); }\n",
            ),
            ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let v = check_repo(&dir).unwrap();
        let r008: Vec<_> = v.iter().filter(|v| v.rule == "R008").collect();
        // The undocumented `db.deletes` and `net.unlisted` at their
        // registrations, and the documented `db.gone` at its row; comments,
        // test modules, other prefixes and other crates are out of scope.
        let at: Vec<_> = r008
            .iter()
            .map(|v| (v.path.to_str().unwrap(), v.line))
            .collect();
        assert_eq!(
            at,
            [
                ("DESIGN.md", 4),
                ("crates/engine/src/db.rs", 3),
                ("crates/net/src/server.rs", 3)
            ],
            "{v:?}"
        );
        assert!(r008[0].message.contains("`db.gone`"), "{v:?}");
        assert!(r008[1].message.contains("`db.deletes`"), "{v:?}");
        assert!(r008[2].message.contains("`net.*`"), "{v:?}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn r009_holds_the_event_tags_to_their_design_table() {
        let events = "impl EventKind {\n\
                      pub fn tag(&self) -> &'static str {\n\
                      match self {\n\
                      EventKind::TupleExpired { .. } => \"tuple_expired\",\n\
                      EventKind::VacuumPass { .. } => \"vacuum_pass\",\n\
                      // EventKind::Commented { .. } => \"commented\",\n\
                      } } }\n\
                      #[cfg(test)]\n\
                      mod tests { fn t(k: K) { match k { EventKind::X { .. } => \"x\" } } }\n";
        let dir = fixture(&[
            (
                "DESIGN.md",
                "# events\n\n| Tag | Emitted when |\n|---|---|\n\
                 | `tuple_expired` | a tuple left a table |\n\
                 | `gone` | nothing any more |\n\nAfter the table: `vacuum_pass`.\n",
            ),
            ("crates/obs/src/events.rs", events),
            ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let v = check_repo(&dir).unwrap();
        let r009: Vec<_> = v.iter().filter(|v| v.rule == "R009").collect();
        // The unlisted `vacuum_pass` at its arm (a mention after the table
        // is not a row), and the listed `gone` at its row; comments and
        // test modules are out of scope.
        let at: Vec<_> = r009
            .iter()
            .map(|v| (v.path.to_str().unwrap(), v.line))
            .collect();
        assert_eq!(
            at,
            [("DESIGN.md", 6), ("crates/obs/src/events.rs", 5)],
            "{v:?}"
        );
        assert!(r009[0].message.contains("`gone`"), "{v:?}");
        assert!(r009[1].message.contains("`vacuum_pass`"), "{v:?}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn r010_keeps_each_stage_name_in_its_stage() {
        let touching = "fn log(&mut self) { self.wal.as_mut(); }\n\
                        fn heal(s: &mut S) { s.degraded = false; }\n\
                        /// Not `self.wal`: see `degraded`.\n\
                        fn fine(&mut self) { self.wal_stmt(f); self.wal_log_op(b); undegraded(); }\n\
                        fn drop_due(t: &mut Table) { t.expire_due(tau); }\n\
                        fn fine(&mut self) { self.vacuum(); t.next_expiration(); pre_expire_due(x); }\n\
                        fn ask(e: &Expr) { exptime_lint::audit(&g); }\n\
                        fn fine(db: &Database) { db.lint(sql); exptime_lint::AuditGraph::empty(0); }\n\
                        #[cfg(test)]\n\
                        mod tests { fn t(db: &Database) { db.wal_status().unwrap().degraded; } }\n";
        let wire = "fn retry(c: ErrorCode) -> bool { c.is_retryable() }\n\
                    fn lost(c: u16) -> bool { c == ErrorCode::SessionExpired.as_u16() }\n";
        let dir = fixture(&[
            ("crates/engine/src/db.rs", touching),
            ("crates/engine/src/db/write.rs", touching),
            ("crates/engine/src/db/durable.rs", touching),
            ("crates/engine/src/db/maintain.rs", touching),
            ("crates/engine/src/db/analysis.rs", touching),
            ("crates/engine/src/durability.rs", touching),
            ("crates/net/src/server.rs", touching),
            ("crates/net/src/client.rs", wire),
            ("crates/net/src/session.rs", wire),
            ("tests/wal_recovery.rs", touching),
            ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let v = check_repo(&dir).unwrap();
        // Each engine file is flagged for the stage names it does not own:
        // lines 1–2 (durability), 5 (maintenance), 7 (analyzer); a net file
        // other than the session module for the retry contract. Engine
        // names elsewhere, comments, lookalike names and test modules are
        // free.
        let at: Vec<_> = v
            .iter()
            .filter(|v| v.rule == "R010")
            .map(|v| (v.path.to_str().unwrap(), v.line))
            .collect();
        let (durable, maintain, analysis, write, db, durability) = (
            "crates/engine/src/db/durable.rs",
            "crates/engine/src/db/maintain.rs",
            "crates/engine/src/db/analysis.rs",
            "crates/engine/src/db/write.rs",
            "crates/engine/src/db.rs",
            "crates/engine/src/durability.rs",
        );
        assert_eq!(
            at,
            [
                (analysis, 1),
                (analysis, 2),
                (analysis, 5),
                (durable, 5),
                (durable, 7),
                (maintain, 1),
                (maintain, 2),
                (maintain, 7),
                (write, 1),
                (write, 2),
                (write, 5),
                (write, 7),
                (db, 1),
                (db, 2),
                (db, 5),
                (db, 7),
                (durability, 5),
                (durability, 7),
                ("crates/net/src/client.rs", 1),
                ("crates/net/src/client.rs", 2),
            ],
            "{v:?}"
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn r008_holds_the_wal_metrics_to_their_design_row() {
        let dir = fixture(&[
            (
                "DESIGN.md",
                "| Prefix | Owner | Examples |\n| `wal.*` | `wal::Wal` | `wal.bytes` |\n",
            ),
            (
                "crates/wal/src/log.rs",
                "fn m(r: &R) {\n r.counter(\"wal.bytes\");\n r.gauge(\"wal.unlisted\"); }\n",
            ),
            ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let v = check_repo(&dir).unwrap();
        let r008: Vec<_> = v.iter().filter(|v| v.rule == "R008").collect();
        // The listed `wal.bytes` is fine; the unlisted name is flagged where
        // it is registered.
        assert_eq!(r008.len(), 1, "{v:?}");
        assert_eq!(r008[0].path, Path::new("crates/wal/src/log.rs"));
        assert_eq!(r008[0].line, 3);
        assert!(r008[0].message.contains("`wal.unlisted`"), "{v:?}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn only_a_cfg_test_module_makes_the_code_after_it_test_code() {
        let dir = fixture(&[
            (
                "crates/engine/src/db.rs",
                "#[cfg(test)]\nfn helper() {}\nfn pace() { std::thread::sleep(d); }\n",
            ),
            (
                "crates/net/src/chaos.rs",
                "#[cfg(test)]\n#[allow(dead_code)]\n\npub(crate) mod tests {\n\
                 fn t() { std::thread::sleep(d); } }\n",
            ),
            (
                "crates/replica/src/fault.rs",
                "#[cfg(test)] mod tests { fn t() { std::thread::sleep(d); } }\n",
            ),
            ("src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let v = check_repo(&dir).unwrap();
        // A `#[cfg(test)]` helper function leaves the line after it
        // production code; a test module opens after other attributes and
        // blank lines, or on the attribute's own line.
        let at: Vec<_> = v
            .iter()
            .filter(|v| v.rule == "R004")
            .map(|v| (v.path.to_str().unwrap(), v.line))
            .collect();
        assert_eq!(at, [("crates/engine/src/db.rs", 3)], "{v:?}");
        let _ = fs::remove_dir_all(dir);
    }

    /// A file under `pattern`: `*` and `**` become a directory, and a
    /// directory gets a file in it.
    fn file_under(pattern: &str) -> String {
        let path = pattern.replace("**", "src").replace('*', "x");
        if path.ends_with(".rs") {
            path
        } else {
            format!("{path}/planted.rs")
        }
    }

    #[test]
    fn every_ban_flags_each_word_in_production_code_of_the_files_it_governs() {
        for ban in BANS {
            for word in ban.words {
                let code = if word.starts_with('.') {
                    format!("db{word}")
                } else {
                    (*word).to_string()
                };
                // Line 1 is production code, lines 2 and 3 hide the word in
                // comments, then one line per allowance, then a test module.
                let mut planted =
                    format!("fn f() {{ {code} }}\n// {code}\nfn g() {{}} // {code}\n");
                for allowed in ban.allow {
                    planted += &format!("fn h() {{ {code}; {allowed} }}\n");
                }
                let in_tests = planted.lines().count() + 3;
                planted += &format!("#[cfg(test)]\nmod tests {{\n    fn t() {{ {code} }}\n}}\n");
                let governed: Vec<String> = ban.governs.iter().map(|p| file_under(p)).collect();
                let exempt: Vec<String> = ban.exempt.iter().map(|p| file_under(p)).collect();
                let files: Vec<(&str, &str)> = governed
                    .iter()
                    .chain(&exempt)
                    .map(|f| (f.as_str(), planted.as_str()))
                    .collect();
                let dir = fixture(&files);
                let v = check_repo(&dir).unwrap();
                let mut got: Vec<_> = v
                    .iter()
                    .filter(|v| v.rule == ban.rule)
                    .map(|v| (v.path.to_str().unwrap(), v.line))
                    .collect();
                let mut want: Vec<_> = governed.iter().map(|f| (f.as_str(), 1)).collect();
                if ban.lints_tests {
                    want.extend(governed.iter().map(|f| (f.as_str(), in_tests)));
                }
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{} `{word}`: {v:?}", ban.rule);
                let _ = fs::remove_dir_all(dir);
            }
        }
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
