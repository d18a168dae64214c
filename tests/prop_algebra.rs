//! Property tests for the algebra: the paper's Theorems 1 and 2, the
//! ∞-degeneracy property, algebraic laws of the expiration-time
//! operators, and semantic preservation of the rewriter.

mod common;

use common::{arb_expr, arb_overlapping_catalog, arb_row, probe_times, schema2};
use exptime::core::aggregate::{AggFunc, AggMode};
use exptime::core::algebra::ops::join;
use exptime::core::algebra::{eval, eval_profiled, EvalOptions, Expr, PlanProfile};
use exptime::core::catalog::Catalog;
use exptime::core::predicate::{CmpOp, Predicate};
use exptime::core::relation::Relation;
use exptime::core::rewrite;
use exptime::core::schema::Schema;
use exptime::core::time::Time;
use exptime::core::tuple::Tuple;
use exptime::core::value::{Value, ValueType};
use exptime_literal::{inputs, literal, ops, Literal};
use proptest::prelude::*;

fn opts() -> EvalOptions {
    EvalOptions::default()
}

/// Every evaluator option: the three aggregate modes, and Theorem 3 root
/// patching with an unbounded and a bounded queue. Patching is on in nine
/// cases of ten, since a patched root difference is the rarest shape to
/// draw.
fn arb_opts() -> impl Strategy<Value = EvalOptions> {
    (
        prop_oneof![
            Just(AggMode::Naive),
            Just(AggMode::Contributing),
            Just(AggMode::Exact),
        ],
        prop_oneof![9 => Just(true), 1 => Just(false)],
        prop_oneof![Just(None), (0usize..4).prop_map(Some)],
    )
        .prop_map(|(agg_mode, patch_root, patch_queue_cap)| EvalOptions {
            agg_mode,
            patch_root,
            patch_queue_cap,
        })
}

/// [`arb_expr`] with a root difference three times in four, its left
/// operand `r` or an [`arb_expr`] and its right `s` or one, so that a
/// patched root (Theorem 3) meets the critical tuples
/// [`arb_overlapping_catalog`] plants and a non-empty queue.
fn arb_root_difference_expr() -> impl Strategy<Value = Expr> {
    let operand = |base: &str| prop_oneof![Just(Expr::base(base)), arb_expr()];
    prop_oneof![
        1 => arb_expr(),
        3 => (operand("r"), operand("s")).prop_map(|(a, b)| a.difference(b)),
    ]
}

/// Whether a Theorem 3 queue can patch `e` at the root: a difference, an
/// aggregation, or a π over one that keeps every grouping attribute (any
/// other π merges groups).
fn patchable(e: &Expr) -> bool {
    match e {
        Expr::Difference { .. } | Expr::Aggregate { .. } => true,
        Expr::Project { input, positions } => matches!(
            &**input,
            Expr::Aggregate { group_by, .. } if group_by.iter().all(|g| positions.contains(g))
        ),
        _ => false,
    }
}

/// The `Base(..)` labels of a profile's leaves, left to right.
fn profile_leaves(p: &PlanProfile, out: &mut Vec<String>) {
    if p.children.is_empty() {
        out.push(p.label.clone());
    }
    for c in &p.children {
        profile_leaves(c, out);
    }
}

/// The `Base(..)` labels an expression's leaves should produce, left to
/// right (duplicates kept, unlike `Expr::base_names`).
fn expr_leaves(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Base(name) => out.push(format!("Base({name})")),
        Expr::Select { input, .. }
        | Expr::Project { input, .. }
        | Expr::Aggregate { input, .. } => expr_leaves(input, out),
        Expr::Product { left, right }
        | Expr::Union { left, right }
        | Expr::Join { left, right, .. }
        | Expr::Intersect { left, right }
        | Expr::Difference { left, right } => {
            expr_leaves(left, out);
            expr_leaves(right, out);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Theorem 1: for a *monotonic* expression materialised at τ, expiring
    /// the materialisation forward to any τ′ ≥ τ equals a fresh evaluation
    /// at τ′ — including the expiration times themselves.
    #[test]
    fn theorem_1_monotonic_expiry_commutes(
        catalog in arb_overlapping_catalog(14),
        expr in arb_expr(),
    ) {
        prop_assume!(expr.is_monotonic());
        let m = eval(&expr, &catalog, Time::ZERO, &opts())?;
        for tau in probe_times(&catalog) {
            let fresh = eval(&expr, &catalog, tau, &opts())?;
            prop_assert!(
                m.rel.set_eq_at(&fresh.rel, tau),
                "Theorem 1 violated for {expr} at {tau}:\nmaterialised {:?}\nfresh {:?}",
                m.rel.exp(tau), fresh.rel.exp(tau)
            );
        }
        prop_assert!(m.texp.is_infinite(), "monotonic ⇒ texp(e) = ∞");
    }

    /// Theorem 2: for *any* expression (monotonic or not) materialised at
    /// τ = 0, the materialisation is correct at every τ′ < texp(e).
    /// Tuple-set equality is required; under Exact aggregate mode the
    /// expiration times also match recomputation up to texp(e).
    #[test]
    fn theorem_2_valid_until_texp(
        catalog in arb_overlapping_catalog(14),
        expr in arb_expr(),
    ) {
        let m = eval(&expr, &catalog, Time::ZERO, &opts())?;
        for tau in probe_times(&catalog) {
            if tau >= m.texp {
                break;
            }
            let fresh = eval(&expr, &catalog, tau, &opts())?;
            prop_assert!(
                m.rel.tuples_eq_at(&fresh.rel, tau),
                "Theorem 2 violated for {expr} at {tau} (texp(e) = {}):\n\
                 materialised {:?}\nfresh {:?}",
                m.texp, m.rel.exp(tau), fresh.rel.exp(tau)
            );
        }
    }

    /// Schrödinger correctness: whenever the validity interval set covers
    /// an instant, the materialisation equals recomputation there — even
    /// *after* texp(e) has passed (the "valid again" tail).
    #[test]
    fn validity_intervals_are_sound(
        catalog in arb_overlapping_catalog(14),
        expr in arb_expr(),
    ) {
        let m = eval(&expr, &catalog, Time::ZERO, &opts())?;
        for tau in probe_times(&catalog) {
            if m.validity.contains(tau) {
                let fresh = eval(&expr, &catalog, tau, &opts())?;
                prop_assert!(
                    m.rel.tuples_eq_at(&fresh.rel, tau),
                    "validity claims {tau} but {expr} diverges:\n{:?}\nvs {:?}",
                    m.rel.exp(tau), fresh.rel.exp(tau)
                );
            }
        }
        // [τ, texp(e)[ must always be covered.
        prop_assert!(m.texp <= Time::ZERO.succ() || m.validity.contains(Time::ZERO));
    }

    /// ∞-degeneracy: with every expiration time ∞, the operators behave
    /// like the textbook SPCU algebra — results never change over time and
    /// all result tuples carry ∞.
    #[test]
    fn infinity_degenerates_to_textbook(
        keys in proptest::collection::vec((0i64..8, 0i64..4), 0..12),
        keys2 in proptest::collection::vec((0i64..8, 0i64..4), 0..12),
        expr in arb_expr(),
    ) {
        let mut catalog = Catalog::new();
        let mk = |pairs: &[(i64, i64)]| {
            let mut rel = Relation::new(schema2());
            for &(k, v) in pairs {
                rel.insert(exptime::core::tuple![k, v], Time::INFINITY).unwrap();
            }
            rel
        };
        catalog.register("r", mk(&keys));
        catalog.register("s", mk(&keys2));
        let m0 = eval(&expr, &catalog, Time::ZERO, &opts())?;
        prop_assert!(m0.rel.iter().all(|(_, e)| e.is_infinite()));
        prop_assert!(m0.texp.is_infinite());
        let far = eval(&expr, &catalog, Time::new(1_000_000), &opts())?;
        prop_assert!(m0.rel.set_eq(&far.rel), "{expr} changed over time with all-∞ data");
    }

    /// Operator laws with expiration times:
    /// union is commutative and associative (max-texp is too), and
    /// intersection is commutative (min-texp is too).
    #[test]
    fn union_and_intersection_laws(catalog in arb_overlapping_catalog(14), tau in 0u64..45) {
        let tau = Time::new(tau);
        let r = catalog.get("r").unwrap();
        let s = catalog.get("s").unwrap();
        let ab = ops::union(r, s, tau).unwrap();
        let ba = ops::union(s, r, tau).unwrap();
        prop_assert!(ab.set_eq(&ba), "∪ commutes");
        let iab = ops::intersect(r, s, tau).unwrap();
        let iba = ops::intersect(s, r, tau).unwrap();
        prop_assert!(iab.set_eq(&iba), "∩ commutes");
        // (R ∪ S) ∪ R = R ∪ S (idempotence through max).
        let again = ops::union(&ab, r, tau).unwrap();
        prop_assert!(again.set_eq(&ab), "∪ idempotent with KeepMax");
    }

    /// Difference identities: R − S ⊆ R, (R − S) ∩ S = ∅ at evaluation
    /// time, and R − ∅ = R (all through expτ).
    #[test]
    fn difference_laws(catalog in arb_overlapping_catalog(14), tau in 0u64..45) {
        let tau = Time::new(tau);
        let r = catalog.get("r").unwrap();
        let s = catalog.get("s").unwrap();
        let d = ops::difference(r, s, tau).unwrap();
        for (t, e) in d.iter() {
            prop_assert_eq!(r.texp(t), Some(e), "R − S keeps texp_R");
            prop_assert!(!s.contains_at(t, tau));
        }
        let empty = Relation::new(schema2());
        let d_empty = ops::difference(r, &empty, tau).unwrap();
        prop_assert!(d_empty.set_eq(&r.exp(tau)), "R − ∅ = expτ(R)");
        let i = ops::intersect(&d, s, tau).unwrap();
        prop_assert_eq!(i.count_unexpired(tau), 0, "(R − S) ∩ S = ∅");
    }

    /// The join rewrite of Equation 5 agrees with select-over-product.
    #[test]
    fn join_is_select_over_product(catalog in arb_overlapping_catalog(10), tau in 0u64..45) {
        let tau = Time::new(tau);
        let r = catalog.get("r").unwrap();
        let s = catalog.get("s").unwrap();
        let p = exptime::core::predicate::Predicate::attr_eq_attr(0, 2);
        let joined = join(r, s, &p, tau).unwrap();
        let via_product = ops::select(&ops::product(r, s, tau).unwrap(), &p, tau).unwrap();
        prop_assert!(joined.set_eq(&via_product));
    }

    /// The hash-join fast path equals the literal nested loop on random
    /// relations and randomly shaped join predicates.
    #[test]
    fn hash_join_equals_nested_loop(
        catalog in arb_overlapping_catalog(14),
        tau in 0u64..45,
        shape in 0u8..5,
    ) {
        use exptime::core::predicate::{CmpOp, Predicate};
        let tau = Time::new(tau);
        let r = catalog.get("r").unwrap();
        let s = catalog.get("s").unwrap();
        let p = match shape {
            0 => Predicate::attr_eq_attr(0, 2),
            1 => Predicate::attr_eq_attr(0, 2).and(Predicate::attr_eq_attr(1, 3)),
            2 => Predicate::attr_eq_attr(1, 3)
                .and(Predicate::attr_cmp_const(0, CmpOp::Ge, 2)),
            3 => Predicate::attr_eq_attr(0, 2).or(Predicate::attr_eq_const(1, 1)),
            _ => Predicate::attr_cmp_attr(0, CmpOp::Lt, 2),
        };
        let fast = join(r, s, &p, tau).unwrap();
        let slow = ops::join_nested_loop(r, s, &p, tau).unwrap();
        prop_assert!(fast.set_eq(&slow), "shape {shape} at {tau}");
    }

    /// The rewriter preserves semantics exactly: rewritten plans produce
    /// identical relations (tuples and expiration times) at every probe
    /// instant.
    #[test]
    fn rewriter_preserves_semantics(
        catalog in arb_overlapping_catalog(12),
        expr in arb_expr(),
    ) {
        let rewritten = rewrite::rewrite(&expr);
        for tau in probe_times(&catalog) {
            let a = eval(&expr, &catalog, tau, &opts())?;
            let b = eval(&rewritten, &catalog, tau, &opts())?;
            prop_assert!(
                a.rel.set_eq(&b.rel),
                "rewrite changed semantics at {tau}:\n  {expr}\n  {rewritten}"
            );
        }
        // And it is a fixpoint.
        prop_assert_eq!(rewrite::rewrite(&rewritten.clone()), rewritten);
    }

    /// The recording probe observes the one evaluator; it never changes
    /// what is evaluated. Under every option — including a patched
    /// Theorem 3 root, bounded or not — `eval_profiled` returns `eval`'s
    /// materialisation, and its profile is the expression, node for node:
    /// every operator and every `Base` leaf visited exactly once.
    #[test]
    fn recorder_is_the_no_op_probe_plus_a_profile(
        catalog in arb_overlapping_catalog(12),
        expr in arb_root_difference_expr(),
        opts in arb_opts(),
        tau in 0u64..45,
    ) {
        let tau = Time::new(tau);
        let plain = eval(&expr, &catalog, tau, &opts)?;
        let (profiled, profile) = eval_profiled(&expr, &catalog, tau, &opts, None)?;
        prop_assert!(profiled.rel.set_eq(&plain.rel), "{expr} under {opts:?}");
        prop_assert_eq!(profiled.texp, plain.texp);
        prop_assert_eq!(&profiled.validity, &plain.validity);
        prop_assert_eq!(
            profiled.patches.as_ref().map(|q| q.len()),
            plain.patches.as_ref().map(|q| q.len())
        );
        let (mut got, mut want) = (Vec::new(), Vec::new());
        profile_leaves(&profile, &mut got);
        expr_leaves(&expr, &mut want);
        prop_assert_eq!(&got, &want, "one visit per Base leaf, in order");
        prop_assert_eq!(profile.node_count(), (expr.op_count() + want.len()) as u64);
        prop_assert_eq!(profile.rows_out, plain.rel.len() as u64);
        prop_assert_eq!(profile.texp, plain.texp);
    }

    /// A patched root with no room in its queue is the unpatched root:
    /// under `patch_queue_cap: Some(0)` every critical tuple or group is
    /// past the cap, so the first one caps `texp(e)` (Equation 11, or the
    /// first cut of Section 2.6.1) and each one takes its own interval out
    /// of `I(e)`, while the queue is there and empty. A root that is
    /// neither a difference nor a patchable aggregation has no queue.
    #[test]
    fn a_patched_root_with_no_room_is_the_unpatched_root(
        catalog in arb_overlapping_catalog(12),
        expr in arb_root_difference_expr(),
        tau in 0u64..45,
    ) {
        let tau = Time::new(tau);
        let no_room = EvalOptions {
            patch_root: true,
            patch_queue_cap: Some(0),
            ..opts()
        };
        let plain = eval(&expr, &catalog, tau, &opts())?;
        let patched = eval(&expr, &catalog, tau, &no_room)?;
        prop_assert_eq!(rows(&patched.rel), rows(&plain.rel), "{}", expr);
        prop_assert_eq!(patched.texp, plain.texp);
        prop_assert_eq!(&patched.validity, &plain.validity);
        prop_assert!(plain.patches.is_none());
        if patchable(&expr) {
            prop_assert!(patched.patches.is_some_and(|q| q.is_empty()), "{}", expr);
        } else {
            prop_assert!(patched.patches.is_none(), "{}", expr);
        }
    }

    /// Evaluating at τ is the same as evaluating the expτ-snapshots of the
    /// base relations at the same τ — the "replace each argument relation R
    /// with expτ(R)" definition.
    #[test]
    fn eval_commutes_with_base_snapshots(
        catalog in arb_overlapping_catalog(14),
        expr in arb_expr(),
        tau in 0u64..45,
    ) {
        let tau = Time::new(tau);
        let mut snapped = Catalog::new();
        for (name, rel) in catalog.iter() {
            snapped.register(name.to_string(), rel.exp(tau));
        }
        let a = eval(&expr, &catalog, tau, &opts())?;
        let b = eval(&expr, &snapped, tau, &opts())?;
        prop_assert!(a.rel.set_eq(&b.rel));
        prop_assert_eq!(a.texp, b.texp);
    }
}

/// Every profiled operator produced exactly the literal interpreter's
/// intermediate for that node, and every `Base` accounts for each stored
/// row: returned, or skipped as expired.
fn assert_counts(
    profile: &PlanProfile,
    want: &Literal,
    expr: &Expr,
    catalog: &Catalog,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(profile.rows_out, want.rel.len() as u64, "{}", profile.label);
    prop_assert_eq!(profile.texp, want.texp, "{}", profile.label);
    prop_assert_eq!(profile.children.len(), want.inputs.len());
    match expr {
        Expr::Base(name) => {
            let stored = catalog.get(name).expect("evaluated").len() as u64;
            prop_assert_eq!(profile.rows_out + profile.expired_filtered, stored);
        }
        _ => prop_assert_eq!(profile.expired_filtered, 0, "only a Base skips rows"),
    }
    for ((p, w), e) in profile.children.iter().zip(&want.inputs).zip(inputs(expr)) {
        assert_counts(p, w, e, catalog)?;
    }
    Ok(())
}

/// Small trees of Base/σ/π/×/⋈/agg/∪/∩/− over `r` and `s`, each with its
/// arity, so predicates and positions are in range — except that now and
/// then a position is one past the end or a leaf names a relation nobody
/// bound. An aggregation (any of the five functions, over any column —
/// `s.v` is the FLOAT one — grouped by none, one or two attributes) comes
/// bare, under a π onto its grouping attributes and the aggregate column
/// (the `GROUP BY` shape, emitted one row per group), and, through the
/// general π, under one that needs the Klug rows; its input is whatever
/// the recursion built: `σ* Base`, `π(Base)`, a join. A set operator
/// takes two bare `Base`s, whose rows both sides lend — `r` against `s`
/// is not union-compatible, for `s.v` is FLOAT — or a one-column π of
/// whatever the recursion built on each side, both evaluated, whose
/// types may or may not agree. A difference also comes as `r`'s keys
/// against `r`'s values ∪ `s`'s keys, or the other way round, which
/// draws several critical tuples out of `appears_at` order often enough
/// that a kernel which leaves them unsorted fails within the cases; and
/// a ∪ or a ∩ over the same operands, which share tuples under different
/// `texp`s often enough that a kernel taking the wrong one of `max` and
/// `min` fails within the cases too.
fn arb_spj() -> impl Strategy<Value = (Expr, usize)> {
    // `n` picks an attribute below `arity`; 23 is the out-of-range draw.
    fn attr(n: usize, arity: usize) -> usize {
        if n == 23 {
            arity
        } else {
            n % arity
        }
    }
    fn pred(kind: u8, a: usize, b: usize, c: i64, arity: usize) -> Predicate {
        match kind {
            0 => Predicate::attr_eq_const(attr(a, arity), c),
            1 => Predicate::attr_cmp_const(attr(a, arity), CmpOp::Lt, c),
            2 => Predicate::attr_eq_attr(attr(a, arity), attr(b, arity)),
            3 => Predicate::attr_eq_attr(attr(a, arity), attr(b, arity))
                .and(Predicate::attr_cmp_const(attr(b, arity), CmpOp::Ge, c - 4)),
            _ => Predicate::True,
        }
    }
    // Mostly a cross-side equality (the hash join), else anything.
    fn on((kind, a, b, c): (u8, usize, usize, i64), ln: usize, rn: usize) -> Predicate {
        match kind {
            0..=2 => Predicate::attr_eq_attr(attr(a, ln), ln + attr(b, rn)),
            _ => pred(kind, a, b, c, ln + rn),
        }
    }
    fn set_op(kind: u8, l: Expr, r: Expr) -> Expr {
        match kind {
            0 => l.union(r),
            1 => l.intersect(r),
            _ => l.difference(r),
        }
    }
    /// `π_v(r) ∪ π_k(s)` and `π_k(r)`, `flip` swapping them.
    fn mixed_and_keys(flip: bool) -> (Expr, Expr) {
        let col = |b: &str, c: usize| Expr::base(b).project([c]);
        let (mixed, keys) = (col("r", 1).union(col("s", 0)), col("r", 0));
        if flip {
            (keys, mixed)
        } else {
            (mixed, keys)
        }
    }
    fn func(kind: u8, a: usize, arity: usize) -> AggFunc {
        match kind {
            0 => AggFunc::Count,
            1 => AggFunc::Sum(attr(a, arity)),
            2 => AggFunc::Avg(attr(a, arity)),
            3 => AggFunc::Min(attr(a, arity)),
            _ => AggFunc::Max(attr(a, arity)),
        }
    }
    let leaf = prop_oneof![
        8 => Just((Expr::base("r"), 2)),
        8 => Just((Expr::base("s"), 2)),
        1 => Just((Expr::base("nobody"), 2)),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        let draw = || (0u8..5, 0usize..24, 0usize..24, -2i64..8);
        let base = || prop_oneof![Just("r"), Just("s")];
        let agg = || {
            (
                0u8..5,
                0usize..24,
                proptest::collection::vec(0usize..24, 0..3),
            )
        };
        prop_oneof![
            2 => (inner.clone(), agg()).prop_map(|((e, n), (k, a, g))| {
                let g: Vec<usize> = g.into_iter().map(|j| attr(j, n)).collect();
                (e.aggregate(g, func(k, a, n)), n + 1)
            }),
            // Grouping attributes (some dropped, some repeated) and the
            // aggregate column, in any order.
            2 => (inner.clone(), agg(), proptest::collection::vec(0usize..8, 1..4)).prop_map(
                |((e, n), (k, a, g), picks)| {
                    let g: Vec<usize> = g.into_iter().map(|j| attr(j, n)).collect();
                    let ps: Vec<usize> = picks
                        .into_iter()
                        .map(|p| *g.get(p % (g.len() + 1)).unwrap_or(&n))
                        .collect();
                    let arity = ps.len();
                    (e.aggregate(g, func(k, a, n)).project(ps), arity)
                }
            ),
            2 => (inner.clone(), draw())
                .prop_map(|((e, n), (k, a, b, c))| (e.select(pred(k, a, b, c, n)), n)),
            2 => (inner.clone(), proptest::collection::vec(0usize..24, 1..4)).prop_map(
                |((e, n), ps)| {
                    let ps: Vec<usize> = ps.into_iter().map(|p| attr(p, n)).collect();
                    let arity = ps.len();
                    (e.project(ps), arity)
                }
            ),
            1 => (inner.clone(), inner.clone())
                .prop_map(|((l, ln), (r, rn))| (l.product(r), ln + rn)),
            // σ directly over ×: the shape the planner gives JOIN … ON.
            2 => (inner.clone(), inner.clone(), draw()).prop_map(
                |((l, ln), (r, rn), d)| (l.product(r).select(on(d, ln, rn)), ln + rn)
            ),
            1 => (inner.clone(), inner.clone(), draw())
                .prop_map(|((l, ln), (r, rn), d)| (l.join(r, on(d, ln, rn)), ln + rn)),
            2 => (base(), base(), 0u8..3)
                .prop_map(|(l, r, k)| (set_op(k, Expr::base(l), Expr::base(r)), 2)),
            2 => (inner.clone(), inner.clone(), 0u8..3, 0usize..24, 0usize..24).prop_map(
                |((l, ln), (r, rn), k, a, b)| {
                    let (l, r) = (l.project([attr(a, ln)]), r.project([attr(b, rn)]));
                    (set_op(k, l, r), 1)
                }
            ),
            // The keys of `r` against its values and the keys of `s`:
            // INT columns that share values under unrelated lifetimes, so
            // the difference has critical tuples, often several and out
            // of `appears_at` order, either way round.
            3 => any::<bool>().prop_map(|flip| {
                let (l, r) = mixed_and_keys(flip);
                (l.difference(r), 1)
            }),
            // The same operands under ∪ and ∩: a tuple both sides hold
            // with different `texp`s, which Equations 4 and 6 resolve
            // with `max` and `min`.
            2 => (0u8..2, any::<bool>()).prop_map(|(k, flip)| {
                let (l, r) = mixed_and_keys(flip);
                (set_op(k, l, r), 1)
            }),
        ]
    })
}

fn rows(rel: &Relation) -> Vec<(&Tuple, Time)> {
    rel.iter().collect()
}

fn leaf_count(e: &Expr) -> usize {
    match inputs(e) {
        none if none.is_empty() => 1,
        some => some.into_iter().map(leaf_count).sum(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The evaluator fuses (`π? σ* Base` in one pass over lent rows,
    /// `σ(×)` as a join, an aggregation grouped once from whatever feeds
    /// it and emitted per group under a `GROUP BY` π); the literal
    /// interpreter does not, and its aggregation is the timeline
    /// definition. They must agree — under each of the three aggregate
    /// modes — on the result **as a sequence** of `(tuple, texp)`, on
    /// `texp(e)` and validity, on which error wins, and — under the
    /// recording probe — on the cardinality and `texp` of every
    /// intermediate, built or not. `r` may be larger or smaller than `s` (the
    /// hashed right input is either), both carry rows already expired at `τ`, and the key
    /// domain is small enough that projections merge rows with different
    /// `texp`. `s.v` is a FLOAT column, so an equality that reaches it
    /// from an INT one holds numerically (`2 = 2.0`) or not at all, and
    /// `r` and `s` are not union-compatible: a set operator over them
    /// fails only once both inputs are open, as the literal one does.
    #[test]
    fn eval_equals_the_literal_interpreter(
        r in proptest::collection::vec(arb_row(), 4..12),
        s in proptest::collection::vec(arb_row(), 1..6),
        (expr, _) in arb_spj(),
        tau in 0u64..20,
        agg_mode in prop_oneof![
            Just(AggMode::Naive),
            Just(AggMode::Contributing),
            Just(AggMode::Exact),
        ],
    ) {
        // Keep the literal products small: at most four inputs multiplied.
        prop_assume!(leaf_count(&expr) <= 4);
        let tau = Time::new(tau);
        let opts = || EvalOptions { agg_mode, ..opts() };
        let mut catalog = Catalog::new();
        catalog.register("r", Relation::from_rows(schema2(), r).unwrap());
        let s = s.into_iter().map(|(t, e)| {
            let v = t.attr(1).as_int().expect("arb_row is (INT, INT)");
            (Tuple::new(vec![t.attr(0).clone(), Value::float(v as f64)]), e)
        });
        let int_float = Schema::of(&[("k", ValueType::Int), ("v", ValueType::Float)]);
        catalog.register("s", Relation::from_rows(int_float, s).unwrap());
        let want = literal(&expr, &catalog, tau, agg_mode);
        let got = eval(&expr, &catalog, tau, &opts());
        let profiled = eval_profiled(&expr, &catalog, tau, &opts(), None);
        match (want, got, profiled) {
            (Ok(want), Ok(got), Ok((profiled, profile))) => {
                prop_assert_eq!(rows(&got.rel), rows(&want.rel), "{} {:?}", expr, agg_mode);
                prop_assert_eq!(rows(&profiled.rel), rows(&want.rel), "{} profiled", expr);
                prop_assert_eq!(got.rel.schema(), want.rel.schema());
                prop_assert_eq!(got.texp, want.texp);
                prop_assert_eq!(&got.validity, &want.validity);
                assert_counts(&profile, &want, &expr, &catalog)?;
            }
            (Err(want), Err(got), Err(profiled)) => {
                prop_assert_eq!(&got, &want, "{}", expr);
                prop_assert_eq!(&profiled, &want, "{} profiled", expr);
            }
            (want, got, _) => prop_assert!(
                false,
                "{expr}: literal {:?}, eval {:?}",
                want.map(|w| w.rel),
                got.map(|g| g.rel)
            ),
        }
    }
}

/// Deterministic regression: the exact Figure 3 difference anomaly, as a
/// non-proptest test (fast and pinpointed).
#[test]
fn figure_3_difference_grows_then_shrinks() {
    let mut catalog = Catalog::new();
    let mut pol = Relation::new(schema2());
    pol.insert(exptime::core::tuple![1, 25], Time::new(10))
        .unwrap();
    pol.insert(exptime::core::tuple![2, 25], Time::new(15))
        .unwrap();
    pol.insert(exptime::core::tuple![3, 35], Time::new(10))
        .unwrap();
    let mut el = Relation::new(schema2());
    el.insert(exptime::core::tuple![1, 75], Time::new(5))
        .unwrap();
    el.insert(exptime::core::tuple![2, 85], Time::new(3))
        .unwrap();
    el.insert(exptime::core::tuple![4, 90], Time::new(2))
        .unwrap();
    catalog.register("r", pol);
    catalog.register("s", el);
    let expr = Expr::base("r")
        .project([0])
        .difference(Expr::base("s").project([0]));
    let counts: Vec<usize> = [0u64, 3, 5, 10, 15]
        .iter()
        .map(|&t| {
            eval(&expr, &catalog, Time::new(t), &opts())
                .unwrap()
                .rel
                .len()
        })
        .collect();
    assert_eq!(counts, vec![1, 2, 3, 1, 0]);
}
