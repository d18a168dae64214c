//! Property tests for the tracing layer: spans nest properly (every
//! child's interval is contained in its parent's, an evaluation that
//! fails included), and the span tree a profiled query leaves behind
//! mirrors the EXPLAIN ANALYZE operator rows exactly.

mod common;

use common::schema2;
use exptime::core::algebra::{Expr, PlanProfile};
use exptime::core::predicate::Predicate;
use exptime::core::tuple;
use exptime::engine::{Database, DbConfig};
use exptime::obs::SpanRecord;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        v: i64,
        ttl: u64,
    },
    Tick {
        d: u64,
    },
    Query,
    Explain,
    /// An EXPLAIN ANALYZE whose σ names an attribute `t` does not have:
    /// it fails inside the evaluation, with operators entered.
    ExplainFailing,
    Vacuum,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (-5i64..5, 1u64..30).prop_map(|(v, ttl)| Op::Insert { v, ttl }),
        2 => (1u64..12).prop_map(|d| Op::Tick { d }),
        2 => Just(Op::Query),
        1 => Just(Op::Explain),
        1 => Just(Op::ExplainFailing),
        1 => Just(Op::Vacuum),
    ]
}

/// The labels of a profile's leaf operators, in-order.
fn profile_leaves(p: &PlanProfile, out: &mut Vec<String>) {
    if p.children.is_empty() {
        out.push(p.label.clone());
    }
    for c in &p.children {
        profile_leaves(c, out);
    }
}

/// Total nodes in a profile tree.
fn profile_nodes(p: &PlanProfile) -> usize {
    1 + p.children.iter().map(profile_nodes).sum::<usize>()
}

/// The names of the leaf spans under `root`, ordered by start time.
fn span_leaves(spans: &[SpanRecord], root: u64) -> Vec<String> {
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    for v in children.values_mut() {
        v.sort_by_key(|s| (s.start_ns, s.id));
    }
    // Depth-first, children in start order; a node with no children in
    // the ring is a leaf.
    fn walk(id: u64, children: &HashMap<u64, Vec<&SpanRecord>>, out: &mut Vec<String>) {
        if let Some(kids) = children.get(&id) {
            for k in kids {
                if children.contains_key(&k.id) {
                    walk(k.id, children, out);
                } else {
                    out.push(k.name.clone());
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(root, &children, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Containment: under any interleaving of traced operations, every
    /// span whose parent is still in the ring starts no earlier and ends
    /// no later than that parent. (Parents evicted by the bounded ring
    /// are skipped — containment is unverifiable for them.)
    #[test]
    fn child_spans_are_contained_in_their_parents(
        ops in proptest::collection::vec(arb_op(), 1..60)
    ) {
        let mut db = Database::new(DbConfig::default());
        db.tracer().enable();
        db.create_table("t", schema2()).unwrap();
        let mut next_key = 0i64;
        for op in ops {
            match op {
                Op::Insert { v, ttl } => {
                    db.insert_ttl("t", tuple![next_key, v], ttl).unwrap();
                    next_key += 1;
                }
                Op::Tick { d } => { db.tick(d); }
                Op::Query => { db.execute("SELECT k FROM t").unwrap(); }
                Op::Explain => { db.explain_analyze("SELECT k, v FROM t WHERE v >= 0").unwrap(); }
                Op::ExplainFailing => {
                    let bad = Expr::base("t").select(Predicate::attr_eq_const(5, 0));
                    prop_assert!(db.explain_analyze_expr(&bad).is_err());
                    db.execute("SELECT k FROM t").unwrap();
                    let spans = db.tracer().recent(usize::MAX);
                    let sql = spans.iter().rev().find(|s| s.name == "sql").unwrap();
                    prop_assert_eq!(sql.parent, None, "the failure left a span open");
                }
                Op::Vacuum => { db.vacuum(); }
            }
            let spans = db.tracer().recent(usize::MAX);
            let by_id: HashMap<u64, &SpanRecord> =
                spans.iter().map(|s| (s.id, s)).collect();
            for s in &spans {
                prop_assert!(s.end_ns >= s.start_ns, "span {} runs backwards", s.name);
                if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
                    prop_assert!(
                        s.start_ns >= p.start_ns && s.end_ns <= p.end_ns,
                        "span {} [{}, {}] escapes parent {} [{}, {}]",
                        s.name, s.start_ns, s.end_ns, p.name, p.start_ns, p.end_ns
                    );
                }
            }
        }
    }

    /// The operator spans under `eval` have exactly the EXPLAIN ANALYZE
    /// operator rows as their leaves, whatever the plan shape.
    #[test]
    fn explain_analyze_leaves_match_span_tree(
        rows in proptest::collection::vec((0i64..8, -3i64..4, 5u64..40), 1..25),
        join in prop_oneof![Just(true), Just(false)],
    ) {
        let mut db = Database::new(DbConfig::default());
        db.create_table("r", schema2()).unwrap();
        db.create_table("s", schema2()).unwrap();
        for (i, (k, v, ttl)) in rows.iter().enumerate() {
            let target = if i % 3 == 0 { "s" } else { "r" };
            db.insert_ttl(target, tuple![*k, *v], *ttl).unwrap();
        }
        db.tracer().enable();
        let sql = if join {
            "SELECT r.k FROM r JOIN s ON r.k = s.k WHERE r.v >= 0"
        } else {
            "SELECT k FROM r EXCEPT SELECT k FROM s"
        };
        let explain = db.explain_analyze(sql).unwrap();

        let spans = db.tracer().recent(usize::MAX);
        // The eval span of this explain is the most recent one.
        let eval = spans.iter().rev().find(|s| s.name == "eval").unwrap();
        let mut want = Vec::new();
        profile_leaves(&explain.profile, &mut want);
        let got = span_leaves(&spans, eval.id);
        prop_assert_eq!(&got, &want, "span-tree leaves ≠ operator rows");
        // And the whole subtree is node-for-node the profile.
        let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|x| (x.id, x)).collect();
        let grafted = spans.iter().filter(|s| {
            // Descendant of eval: walk parents.
            let mut cur = s.parent;
            while let Some(p) = cur {
                if p == eval.id { return true; }
                cur = by_id.get(&p).and_then(|x| x.parent);
            }
            false
        }).count();
        prop_assert_eq!(grafted, profile_nodes(&explain.profile));
    }
}
