//! Flamegraph-style rollups of the span ring.
//!
//! [`fold_spans`] / [`render_flame`] turn closed spans — the operator
//! spans an `EXPLAIN ANALYZE` opens and every other pipeline span alike —
//! into folded stacks with self-time, which is what the CLI's `\profile`
//! prints under the per-operator table.

use std::collections::{BTreeMap, HashMap};

use crate::span::SpanRecord;

/// One folded stack: a `;`-joined root→leaf name path, how many spans
/// landed on it, and their summed self-time (flamegraph "collapsed"
/// format, minus the file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedStack {
    pub stack: String,
    pub calls: u64,
    pub self_ns: u64,
}

/// Folds closed spans into flamegraph stacks. Parent links that point
/// outside `spans` (evicted from the ring) make the span a root of its
/// own stack — the rollup degrades gracefully as the ring wraps.
/// Returns stacks sorted by self-time, heaviest first.
#[must_use]
pub fn fold_spans(spans: &[SpanRecord]) -> Vec<FoldedStack> {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            if by_id.contains_key(&p) {
                *child_ns.entry(p).or_insert(0) += s.duration_ns();
            }
        }
    }
    let mut folded: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let mut path = vec![s.name.as_str()];
        let mut cursor = s.parent;
        while let Some(p) = cursor {
            match by_id.get(&p) {
                Some(parent) => {
                    path.push(parent.name.as_str());
                    cursor = parent.parent;
                }
                None => break,
            }
        }
        path.reverse();
        let self_ns = s
            .duration_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let entry = folded.entry(path.join(";")).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += self_ns;
    }
    let mut out: Vec<FoldedStack> = folded
        .into_iter()
        .map(|(stack, (calls, self_ns))| FoldedStack {
            stack,
            calls,
            self_ns,
        })
        .collect();
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.stack.cmp(&b.stack)));
    out
}

/// Renders folded stacks as a proportional text flamegraph rollup.
#[must_use]
pub fn render_flame(folded: &[FoldedStack], width: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let max = folded.iter().map(|f| f.self_ns).max().unwrap_or(0);
    for f in folded {
        let bar_len =
            (u128::from(f.self_ns) * width.max(1) as u128).div_ceil(u128::from(max.max(1)));
        let _ = writeln!(
            out,
            "{:<40} {:>5}x {:>12}ns  {}",
            f.stack,
            f.calls,
            f.self_ns,
            "#".repeat(bar_len as usize)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            start_ns: start,
            end_ns: end,
            logical_time: None,
            attrs: vec![],
        }
    }

    #[test]
    fn folding_computes_self_time_and_survives_evicted_parents() {
        let spans = vec![
            span(1, None, "query", 0, 100),
            span(2, Some(1), "eval", 10, 60),
            span(3, Some(1), "eval", 60, 90),
            // Parent 99 fell off the ring: becomes its own root.
            span(4, Some(99), "vacuum", 0, 40),
        ];
        let folded = fold_spans(&spans);
        let find = |stack: &str| folded.iter().find(|f| f.stack == stack).unwrap();
        assert_eq!(find("query;eval").calls, 2);
        assert_eq!(find("query;eval").self_ns, 80);
        assert_eq!(find("query").self_ns, 20, "100 minus the 80 in children");
        assert_eq!(find("vacuum").self_ns, 40);
        let flame = render_flame(&folded, 30);
        assert!(flame.contains("query;eval"), "{flame}");
        assert!(
            flame.lines().next().unwrap().starts_with("query;eval"),
            "heaviest first\n{flame}"
        );
    }
}
