//! Algebraic rewriting to postpone recomputation (paper Section 3.1).
//!
//! Two goals, both from the paper:
//!
//! 1. **Shrink the critical set** `{t | t ∈ R ∧ t ∈ S ∧ texp_R(t) >
//!    texp_S(t)}` of a difference, "which causes recomputations to happen":
//!    pushing selections below a difference filters critical tuples away,
//!    so the materialised expression's expiration time `texp(e)` moves
//!    later (experiment E8 quantifies this).
//! 2. **Pull up non-monotonic operators** "to reduce the effects of
//!    recomputations on operators that depend on them" — and, in this
//!    implementation, to surface differences at the *root*, where the
//!    Theorem 3 patch queue applies and recomputation disappears entirely.
//!
//! Every rule preserves the expiration-time semantics exactly: result
//! tuples and their expiration times are identical at every time `τ`
//! (property-tested in `tests/prop_algebra.rs`).

use crate::algebra::Expr;
use crate::predicate::Predicate;

/// Maximum rewrite passes; each pass applies every rule bottom-up once.
/// Rewriting strictly reduces the depth of selections or merges them, so a
/// small cap suffices; it exists only to make non-termination impossible.
const MAX_PASSES: usize = 32;

/// Rewrites an expression to a fixpoint of the rules below. The result is
/// semantically identical at every evaluation time.
///
/// Rules (all selections push *down*, lifting non-monotonic operators
/// *up*):
///
/// * `σ_p(σ_q(e))        → σ_{q∧p}(e)`
/// * `σ_p(e₁ −exp e₂)    → σ_p(e₁) −exp σ_p(e₂)`
/// * `σ_p(e₁ ∪exp e₂)    → σ_p(e₁) ∪exp σ_p(e₂)`
/// * `σ_p(e₁ ∩exp e₂)    → σ_p(e₁) ∩exp σ_p(e₂)`
/// * `σ_p(π_J(e))        → π_J(σ_{p∘J}(e))` (when `p` only reads kept attributes)
/// * `σ_p(e₁ ×exp e₂)`   — conjuncts of `p` local to one side push into it
/// * `σ_p(e₁ ⋈exp_q e₂)` — merged into the join predicate, then side-local
///   conjuncts push into the inputs
/// * `σ_p(agg_{G,f}(e))  → agg_{G,f}(σ_{p}(e))` (when `p` only reads
///   grouping attributes — whole partitions are filtered, so values and
///   expiration times are untouched)
#[must_use]
pub fn rewrite(expr: &Expr) -> Expr {
    let mut current = expr.clone();
    for _ in 0..MAX_PASSES {
        let next = pass(&current);
        if next == current {
            return current;
        }
        current = next;
    }
    current
}

fn pass(expr: &Expr) -> Expr {
    // Rewrite children first, then the node itself.
    apply_node_rules(expr.map_inputs(pass))
}

/// Splits a predicate into its top-level conjuncts.
fn conjuncts(p: &Predicate) -> Vec<Predicate> {
    match p {
        Predicate::And(a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        other => vec![other.clone()],
    }
}

/// Reassembles conjuncts; `None` means the empty conjunction (true).
fn conjoin(ps: Vec<Predicate>) -> Option<Predicate> {
    ps.into_iter().reduce(Predicate::and)
}

fn apply_node_rules(expr: Expr) -> Expr {
    let Expr::Select { input, predicate } = expr else {
        return expr;
    };
    match *input {
        // σ_p(σ_q(e)) → σ_{q ∧ p}(e)
        Expr::Select {
            input: inner,
            predicate: q,
        } => apply_node_rules(Expr::Select {
            input: inner,
            predicate: q.and(predicate),
        }),
        // σ_p(e1 − e2) → σ_p(e1) − σ_p(e2): shrinks the critical set.
        Expr::Difference { left, right } => Expr::Difference {
            left: Box::new(apply_node_rules(Expr::Select {
                input: left,
                predicate: predicate.clone(),
            })),
            right: Box::new(apply_node_rules(Expr::Select {
                input: right,
                predicate,
            })),
        },
        Expr::Union { left, right } => Expr::Union {
            left: Box::new(apply_node_rules(Expr::Select {
                input: left,
                predicate: predicate.clone(),
            })),
            right: Box::new(apply_node_rules(Expr::Select {
                input: right,
                predicate,
            })),
        },
        Expr::Intersect { left, right } => Expr::Intersect {
            left: Box::new(apply_node_rules(Expr::Select {
                input: left,
                predicate: predicate.clone(),
            })),
            right: Box::new(apply_node_rules(Expr::Select {
                input: right,
                predicate,
            })),
        },
        // σ_p(π_J(e)) → π_J(σ_{p∘J}(e)) when p reads only kept attributes.
        Expr::Project {
            input: inner,
            positions,
        } => match predicate.unproject(&positions) {
            Some(pushed) => Expr::Project {
                input: Box::new(apply_node_rules(Expr::Select {
                    input: inner,
                    predicate: pushed,
                })),
                positions,
            },
            None => Expr::Select {
                input: Box::new(Expr::Project {
                    input: inner,
                    positions,
                }),
                predicate,
            },
        },
        // σ_p(e1 × e2): push side-local conjuncts into the inputs.
        Expr::Product { left, right } => push_into_product(*left, *right, predicate, None),
        // σ_p(e1 ⋈_q e2): fold p into q, then push side-local conjuncts.
        Expr::Join {
            left,
            right,
            predicate: q,
        } => push_into_product(*left, *right, predicate, Some(q)),
        // σ_p(agg_{G,f}(e)) → agg_{G,f}(σ_p(e)) when p reads only grouping
        // attributes (it then filters whole partitions).
        Expr::Aggregate {
            input: inner,
            group_by,
            func,
        } => {
            let refs_only_groups = predicate_attrs(&predicate)
                .iter()
                .all(|a| group_by.contains(a));
            if refs_only_groups {
                Expr::Aggregate {
                    input: Box::new(apply_node_rules(Expr::Select {
                        input: inner,
                        predicate,
                    })),
                    group_by,
                    func,
                }
            } else {
                Expr::Select {
                    input: Box::new(Expr::Aggregate {
                        input: inner,
                        group_by,
                        func,
                    }),
                    predicate,
                }
            }
        }
        other => Expr::Select {
            input: Box::new(other),
            predicate,
        },
    }
}

fn push_into_product(
    left: Expr,
    right: Expr,
    selection: Predicate,
    join_pred: Option<Predicate>,
) -> Expr {
    // How many attributes does the left input contribute? We need its
    // arity; derive it structurally where possible. If we cannot (without a
    // catalog), fall back to not pushing.
    let Some(split) = static_arity(&left) else {
        return rebuild_product(left, right, selection, join_pred);
    };
    let mut all = conjuncts(&selection);
    if let Some(q) = &join_pred {
        all.extend(conjuncts(q));
    }
    let mut left_only = Vec::new();
    let mut right_only = Vec::new();
    let mut rest = Vec::new();
    for c in all {
        if c.only_refs_below(split) {
            left_only.push(c);
        } else if c.only_refs_at_or_above(split) {
            right_only.push(c.shift_attrs_down(split));
        } else {
            rest.push(c);
        }
    }
    let new_left = match conjoin(left_only) {
        Some(p) => apply_node_rules(Expr::Select {
            input: Box::new(left),
            predicate: p,
        }),
        None => left,
    };
    let new_right = match conjoin(right_only) {
        Some(p) => apply_node_rules(Expr::Select {
            input: Box::new(right),
            predicate: p,
        }),
        None => right,
    };
    match conjoin(rest) {
        Some(p) => Expr::Join {
            left: Box::new(new_left),
            right: Box::new(new_right),
            predicate: p,
        },
        None => Expr::Product {
            left: Box::new(new_left),
            right: Box::new(new_right),
        },
    }
}

fn rebuild_product(
    left: Expr,
    right: Expr,
    selection: Predicate,
    join_pred: Option<Predicate>,
) -> Expr {
    let inner = match join_pred {
        Some(q) => Expr::Join {
            left: Box::new(left),
            right: Box::new(right),
            predicate: q,
        },
        None => Expr::Product {
            left: Box::new(left),
            right: Box::new(right),
        },
    };
    Expr::Select {
        input: Box::new(inner),
        predicate: selection,
    }
}

/// Structurally-known output arity, without a catalog. `None` for base
/// relations (arity lives in the catalog) and anything built on them
/// without an arity-fixing operator.
fn static_arity(expr: &Expr) -> Option<usize> {
    match expr {
        Expr::Base(_) => None,
        Expr::Select { input, .. } => static_arity(input),
        Expr::Project { positions, .. } => Some(positions.len()),
        Expr::Product { left, right } | Expr::Join { left, right, .. } => {
            Some(static_arity(left)? + static_arity(right)?)
        }
        Expr::Union { left, right }
        | Expr::Intersect { left, right }
        | Expr::Difference { left, right } => static_arity(left).or_else(|| static_arity(right)),
        Expr::Aggregate { input, .. } => Some(static_arity(input)? + 1),
    }
}

/// Attribute positions referenced by a predicate.
fn predicate_attrs(p: &Predicate) -> Vec<usize> {
    fn go(p: &Predicate, out: &mut Vec<usize>) {
        match p {
            Predicate::True | Predicate::False => {}
            Predicate::Cmp { left, right, .. } => {
                for o in [left, right] {
                    if let crate::predicate::Operand::Attr(i) = o {
                        if !out.contains(i) {
                            out.push(*i);
                        }
                    }
                }
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                go(a, out);
                go(b, out);
            }
            Predicate::Not(a) => go(a, out),
        }
    }
    let mut out = Vec::new();
    go(p, &mut out);
    out
}

impl Predicate {
    /// Shifts all attribute references *down* by `by` (inverse of
    /// [`Predicate::shift_attrs`]); callers must ensure every reference is
    /// `≥ by`.
    #[must_use]
    fn shift_attrs_down(&self, by: usize) -> Predicate {
        match self {
            Predicate::True => Predicate::True,
            Predicate::False => Predicate::False,
            Predicate::Cmp { left, op, right } => {
                let shift = |o: &crate::predicate::Operand| match o {
                    crate::predicate::Operand::Attr(i) => crate::predicate::Operand::Attr(i - by),
                    c => c.clone(),
                };
                Predicate::Cmp {
                    left: shift(left),
                    op: *op,
                    right: shift(right),
                }
            }
            Predicate::And(a, b) => Predicate::And(
                Box::new(a.shift_attrs_down(by)),
                Box::new(b.shift_attrs_down(by)),
            ),
            Predicate::Or(a, b) => Predicate::Or(
                Box::new(a.shift_attrs_down(by)),
                Box::new(b.shift_attrs_down(by)),
            ),
            Predicate::Not(a) => Predicate::Not(Box::new(a.shift_attrs_down(by))),
        }
    }
}

/// Whether the rewritten expression exposes a difference at the root —
/// the shape where the Theorem 3 patch queue eliminates recomputation.
#[must_use]
pub fn is_root_patchable(expr: &Expr) -> bool {
    matches!(expr, Expr::Difference { .. })
}

/// Position-sensitive monotonicity classification of a plan — a small
/// lattice ordered from best to worst. [`Expr::is_monotonic`] only says
/// *whether* a non-monotonic operator exists; for static analysis, *where*
/// it sits matters: a difference or aggregate at the root with monotonic
/// inputs is the shape Theorem 3 patches cheaply, while one buried under
/// other operators forces recomputation to cascade ("to reduce the effects
/// of recomputations on operators that depend on them" — Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Monotonicity {
    /// Only monotonic operators (Theorem 1): materialisations stay valid
    /// forever.
    Monotonic,
    /// Exactly one non-monotonic operator, at the root, over monotonic
    /// inputs — the pulled-up shape the Theorem 3 patch queue handles.
    NonMonotonicRoot,
    /// Non-monotonic operator(s) below other operators: recomputations
    /// cascade upward. [`rewrite`] may be able to lift them.
    NonMonotonicInner,
}

impl Monotonicity {
    /// Lattice join: the worse of the two classifications.
    #[must_use]
    pub fn join(self, other: Monotonicity) -> Monotonicity {
        self.max(other)
    }
}

impl std::fmt::Display for Monotonicity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Monotonicity::Monotonic => write!(f, "monotonic"),
            Monotonicity::NonMonotonicRoot => write!(f, "non-monotonic (root)"),
            Monotonicity::NonMonotonicInner => write!(f, "non-monotonic (inner)"),
        }
    }
}

/// The *symbolic* static expiration bound of a subtree — what can be said
/// about `texp(e)` before looking at any data, ordered from best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StaticBound {
    /// `texp(e) = ∞` (Theorem 1): monotonic operators only.
    Infinite,
    /// `texp(e)` is bounded by the minimum over the inputs' tuple
    /// expiration times (difference, Table 2 / Eq. 11): finite whenever a
    /// critical tuple exists, but data-dependent and often far away.
    MinOfInputs,
    /// Validity ends at the next change point `χ` of the contributing set
    /// (aggregation, Eq. 7–9): the tightest bound — any expiration among
    /// contributing tuples invalidates the result.
    NextChangePoint,
}

impl StaticBound {
    /// Lattice join: the tighter (worse) of the two bounds.
    #[must_use]
    pub fn join(self, other: StaticBound) -> StaticBound {
        self.max(other)
    }
}

impl std::fmt::Display for StaticBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StaticBound::Infinite => write!(f, "∞"),
            StaticBound::MinOfInputs => write!(f, "min of inputs (Table 2)"),
            StaticBound::NextChangePoint => write!(f, "next change point χ"),
        }
    }
}

/// A *concrete* worst-case staleness bound in ticks — the numeric
/// companion to the symbolic [`StaticBound`]. The whole-database audit
/// (`exptime-lint`) instantiates each view's symbolic bound against the
/// base tables it reaches and folds the results with [`TickBound::join`]:
/// the worst input dominates, exactly as in the symbolic lattice.
///
/// Ordering: `Finite(a) ≤ Finite(b)` iff `a ≤ b`, and `Unbounded` is the
/// top element (worse than every finite bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TickBound {
    /// Staleness provably never exceeds this many ticks.
    Finite(u64),
    /// No finite bound can be proven.
    Unbounded,
}

impl TickBound {
    /// The bottom element: provably exact at every instant.
    pub const ZERO: TickBound = TickBound::Finite(0);

    /// Lattice join: the worse (larger) of the two bounds.
    #[must_use]
    pub fn join(self, other: TickBound) -> TickBound {
        self.max(other)
    }

    /// Adds two bounds; saturates on overflow, `Unbounded` absorbs.
    #[must_use]
    pub fn saturating_add(self, other: TickBound) -> TickBound {
        match (self, other) {
            (TickBound::Finite(a), TickBound::Finite(b)) => TickBound::Finite(a.saturating_add(b)),
            _ => TickBound::Unbounded,
        }
    }

    /// The finite value, if any.
    #[must_use]
    pub fn finite(self) -> Option<u64> {
        match self {
            TickBound::Finite(v) => Some(v),
            TickBound::Unbounded => None,
        }
    }

    /// Whether a finite bound was proven.
    #[must_use]
    pub fn is_finite(self) -> bool {
        matches!(self, TickBound::Finite(_))
    }
}

impl std::fmt::Display for TickBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TickBound::Finite(v) => write!(f, "{v}"),
            TickBound::Unbounded => write!(f, "∞"),
        }
    }
}

/// The static expiration-soundness summary of a plan, computed without
/// touching data: monotonicity class, symbolic expiration bound, and
/// whether the Theorem 3 patch queue applies at the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Soundness {
    /// Position-sensitive monotonicity classification.
    pub monotonicity: Monotonicity,
    /// Symbolic bound on `texp(e)`.
    pub bound: StaticBound,
    /// Whether the root is a difference (patchable per Theorem 3).
    pub patchable: bool,
    /// Number of non-monotonic operators (differences + aggregates) in
    /// the whole tree.
    pub non_monotonic_count: usize,
}

impl Soundness {
    /// `Sound(∞)`: the materialisation never goes stale (Theorem 1).
    #[must_use]
    pub fn is_sound_infinite(&self) -> bool {
        self.bound == StaticBound::Infinite
    }
}

impl Expr {
    /// Computes the static [`Soundness`] summary of this plan.
    ///
    /// Bounds compose by lattice join (worst child wins); monotonicity is
    /// position-sensitive: a single non-monotonic operator at the root over
    /// monotonic inputs is [`Monotonicity::NonMonotonicRoot`] (the
    /// patch-friendly shape), anything deeper is
    /// [`Monotonicity::NonMonotonicInner`].
    #[must_use]
    pub fn soundness(&self) -> Soundness {
        let (monotonicity, bound, count) = classify(self);
        Soundness {
            monotonicity,
            bound,
            patchable: is_root_patchable(self),
            non_monotonic_count: count,
        }
    }
}

/// Returns `(monotonicity, bound, non_monotonic_count)` for `expr`.
fn classify(expr: &Expr) -> (Monotonicity, StaticBound, usize) {
    // A *child's* contribution to its parent: any non-monotonic operator
    // inside a child is, from the parent's viewpoint, inner.
    let demote = |m: Monotonicity| match m {
        Monotonicity::Monotonic => Monotonicity::Monotonic,
        _ => Monotonicity::NonMonotonicInner,
    };
    match expr {
        Expr::Base(_) => (Monotonicity::Monotonic, StaticBound::Infinite, 0),
        Expr::Select { input, .. } | Expr::Project { input, .. } => {
            let (m, b, n) = classify(input);
            (demote(m), b, n)
        }
        Expr::Product { left, right }
        | Expr::Union { left, right }
        | Expr::Join { left, right, .. }
        | Expr::Intersect { left, right } => {
            let (ml, bl, nl) = classify(left);
            let (mr, br, nr) = classify(right);
            (demote(ml).join(demote(mr)), bl.join(br), nl + nr)
        }
        Expr::Difference { left, right } => {
            let (ml, bl, nl) = classify(left);
            let (mr, br, nr) = classify(right);
            let m = if ml == Monotonicity::Monotonic && mr == Monotonicity::Monotonic {
                Monotonicity::NonMonotonicRoot
            } else {
                Monotonicity::NonMonotonicInner
            };
            (m, StaticBound::MinOfInputs.join(bl).join(br), nl + nr + 1)
        }
        Expr::Aggregate { input, .. } => {
            let (mi, bi, ni) = classify(input);
            let m = if mi == Monotonicity::Monotonic {
                Monotonicity::NonMonotonicRoot
            } else {
                Monotonicity::NonMonotonicInner
            };
            (m, StaticBound::NextChangePoint.join(bi), ni + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{eval, EvalOptions};
    use crate::catalog::Catalog;
    use crate::predicate::CmpOp;
    use crate::relation::Relation;
    use crate::schema::Schema;
    use crate::time::Time;
    use crate::tuple;
    use crate::value::ValueType;

    fn t(v: u64) -> Time {
        Time::new(v)
    }

    fn catalog() -> Catalog {
        let schema = Schema::of(&[("uid", ValueType::Int), ("deg", ValueType::Int)]);
        let mut c = Catalog::new();
        c.register(
            "Pol",
            Relation::from_rows(
                schema.clone(),
                vec![
                    (tuple![1, 25], t(10)),
                    (tuple![2, 25], t(15)),
                    (tuple![3, 35], t(10)),
                ],
            )
            .unwrap(),
        );
        c.register(
            "El",
            Relation::from_rows(
                schema,
                vec![
                    (tuple![1, 75], t(5)),
                    (tuple![2, 85], t(3)),
                    (tuple![4, 90], t(2)),
                ],
            )
            .unwrap(),
        );
        c
    }

    /// Both plans must produce identical relations (tuples + texps) and
    /// have comparable or better expression texp at every instant.
    fn assert_equivalent(a: &Expr, b: &Expr, c: &Catalog) {
        for now in 0..20 {
            let ma = eval(a, c, t(now), &EvalOptions::default()).unwrap();
            let mb = eval(b, c, t(now), &EvalOptions::default()).unwrap();
            assert!(
                ma.rel.set_eq(&mb.rel),
                "plans diverge at {now}:\n  {a} = {:?}\n  {b} = {:?}",
                ma.rel,
                mb.rel
            );
        }
    }

    #[test]
    fn select_merging() {
        let e = Expr::base("Pol")
            .select(Predicate::attr_eq_const(1, 25))
            .select(Predicate::attr_cmp_const(0, CmpOp::Lt, 3));
        let r = rewrite(&e);
        assert!(
            matches!(&r, Expr::Select { input, .. } if matches!(**input, Expr::Base(_))),
            "got {r}"
        );
        assert_equivalent(&e, &r, &catalog());
    }

    #[test]
    fn select_pushes_below_difference_and_extends_texp() {
        let c = catalog();
        let d = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        // Select uid = 3: tuple ⟨3⟩ is never critical.
        let e = d.select(Predicate::attr_eq_const(0, 3));
        let r = rewrite(&e);
        assert!(is_root_patchable(&r), "difference pulled to root: {r}");
        assert_equivalent(&e, &r, &c);
        let orig = eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
        let new = eval(&r, &c, Time::ZERO, &EvalOptions::default()).unwrap();
        assert_eq!(orig.texp, t(3), "unpushed: critical tuples inside");
        assert_eq!(new.texp, Time::INFINITY, "pushed: critical set empty");
    }

    #[test]
    fn select_distributes_over_union_and_intersection() {
        let c = catalog();
        for e in [
            Expr::base("Pol")
                .union(Expr::base("El"))
                .select(Predicate::attr_eq_const(0, 1)),
            Expr::base("Pol")
                .intersect(Expr::base("El"))
                .select(Predicate::attr_eq_const(0, 1)),
        ] {
            let r = rewrite(&e);
            assert!(
                !matches!(r, Expr::Select { .. }),
                "selection should be distributed: {r}"
            );
            assert_equivalent(&e, &r, &c);
        }
    }

    #[test]
    fn select_pushes_through_projection() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([1, 0])
            .select(Predicate::attr_eq_const(0, 25));
        let r = rewrite(&e);
        // Expect π over σ.
        assert!(matches!(&r, Expr::Project { input, .. }
            if matches!(**input, Expr::Select { .. })));
        assert_equivalent(&e, &r, &c);
    }

    #[test]
    fn select_not_pushed_when_projection_drops_attribute() {
        let c = catalog();
        // Projection keeps only deg; a predicate on it survives as-is if
        // unprojectable — here it IS projectable, so craft one on a dropped
        // attribute: impossible to express post-projection. Instead verify
        // stability: a select over project on kept attrs rewrites; the
        // rewritten form re-rewrites to itself (fixpoint).
        let e = Expr::base("Pol")
            .project([1])
            .select(Predicate::attr_eq_const(0, 25));
        let r = rewrite(&e);
        assert_eq!(rewrite(&r), r, "fixpoint");
        assert_equivalent(&e, &r, &c);
    }

    #[test]
    fn product_selection_splits_into_sides() {
        let c = catalog();
        // Left-local: #2 = 25 (deg of Pol); right-local: #4 = 75 (deg of
        // El); mixed: #1 = #3 (uid join).
        let p = Predicate::attr_eq_const(1, 25)
            .and(Predicate::attr_eq_attr(0, 2))
            .and(Predicate::attr_eq_const(3, 75));
        let e = Expr::base("Pol")
            .project([0, 1])
            .product(Expr::base("El").project([0, 1]))
            .select(p);
        let r = rewrite(&e);
        // Mixed conjunct remains as a join.
        assert!(matches!(&r, Expr::Join { .. }), "got {r}");
        if let Expr::Join { left, right, .. } = &r {
            assert!(
                matches!(**left, Expr::Project { .. }),
                "σ pushed into π on left: {left}"
            );
            assert!(
                matches!(**right, Expr::Project { .. }),
                "σ pushed into π on right: {right}"
            );
        }
        assert_equivalent(&e, &r, &c);
    }

    #[test]
    fn join_selection_merges_then_splits() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([0, 1])
            .join(
                Expr::base("El").project([0, 1]),
                Predicate::attr_eq_attr(0, 2),
            )
            .select(Predicate::attr_eq_const(1, 25));
        let r = rewrite(&e);
        assert!(matches!(&r, Expr::Join { .. }), "got {r}");
        assert_equivalent(&e, &r, &c);
    }

    #[test]
    fn select_on_group_attrs_pushes_below_aggregate() {
        let c = catalog();
        let e = Expr::base("Pol")
            .aggregate([1], AggFuncCount())
            .select(Predicate::attr_eq_const(1, 25));
        let r = rewrite(&e);
        assert!(
            matches!(&r, Expr::Aggregate { .. }),
            "aggregate pulled above selection: {r}"
        );
        assert_equivalent(&e, &r, &c);
    }

    #[test]
    fn select_on_aggregate_value_stays_above() {
        let c = catalog();
        // Predicate on the appended count attribute (#3) cannot push.
        let e = Expr::base("Pol")
            .aggregate([1], AggFuncCount())
            .select(Predicate::attr_eq_const(2, 2));
        let r = rewrite(&e);
        assert!(matches!(&r, Expr::Select { .. }), "got {r}");
        assert_equivalent(&e, &r, &c);
    }

    #[test]
    fn select_on_non_group_input_attr_stays_above() {
        let c = catalog();
        // Predicate on uid (#1), which is not a grouping attribute:
        // pushing it would change partitions.
        let e = Expr::base("Pol")
            .aggregate([1], AggFuncCount())
            .select(Predicate::attr_eq_const(0, 1));
        let r = rewrite(&e);
        assert!(matches!(&r, Expr::Select { .. }), "got {r}");
        assert_equivalent(&e, &r, &c);
    }

    #[test]
    fn rewrite_is_idempotent_on_complex_plans() {
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]))
            .select(Predicate::attr_cmp_const(0, CmpOp::Le, 2))
            .union(Expr::base("Pol").project([0]))
            .select(Predicate::attr_cmp_const(0, CmpOp::Gt, 0));
        let r1 = rewrite(&e);
        let r2 = rewrite(&r1);
        assert_eq!(r1, r2);
        assert_equivalent(&e, &r1, &catalog());
    }

    #[allow(non_snake_case)]
    fn AggFuncCount() -> crate::aggregate::AggFunc {
        crate::aggregate::AggFunc::Count
    }

    #[test]
    fn soundness_of_monotonic_plans_is_infinite() {
        // Figure 2 shapes: selects, projects, products, unions, joins.
        let e = Expr::base("Pol")
            .select(Predicate::attr_eq_const(1, 25))
            .project([0])
            .union(Expr::base("El").project([0]));
        let s = e.soundness();
        assert_eq!(s.monotonicity, Monotonicity::Monotonic);
        assert_eq!(s.bound, StaticBound::Infinite);
        assert!(s.is_sound_infinite());
        assert!(!s.patchable);
        assert_eq!(s.non_monotonic_count, 0);
    }

    #[test]
    fn soundness_of_root_difference_is_patchable() {
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let s = e.soundness();
        assert_eq!(s.monotonicity, Monotonicity::NonMonotonicRoot);
        assert_eq!(s.bound, StaticBound::MinOfInputs);
        assert!(s.patchable, "Theorem 3 applies at the root");
        assert_eq!(s.non_monotonic_count, 1);
    }

    #[test]
    fn soundness_of_figure_3a_aggregate_under_projection_is_inner() {
        // πexp_{2,3}(aggexp_{{2},count}(Pol)) — Figure 3(a).
        let e = Expr::base("Pol")
            .aggregate([1], AggFuncCount())
            .project([1, 2]);
        let s = e.soundness();
        assert_eq!(s.monotonicity, Monotonicity::NonMonotonicInner);
        assert_eq!(s.bound, StaticBound::NextChangePoint);
        assert!(!s.patchable);
        assert_eq!(s.non_monotonic_count, 1);

        // The bare aggregate is root-positioned.
        let root = Expr::base("Pol").aggregate([1], AggFuncCount());
        assert_eq!(
            root.soundness().monotonicity,
            Monotonicity::NonMonotonicRoot
        );
    }

    #[test]
    fn soundness_lattice_joins_take_the_worst() {
        assert_eq!(
            Monotonicity::Monotonic.join(Monotonicity::NonMonotonicInner),
            Monotonicity::NonMonotonicInner
        );
        assert_eq!(
            StaticBound::MinOfInputs.join(StaticBound::NextChangePoint),
            StaticBound::NextChangePoint
        );
        assert_eq!(
            StaticBound::Infinite.join(StaticBound::Infinite),
            StaticBound::Infinite
        );
        // Aggregate over a difference: both counted, tightest bound wins,
        // and the difference is demoted to inner.
        let e = Expr::base("Pol")
            .difference(Expr::base("El"))
            .aggregate(vec![], AggFuncCount());
        let s = e.soundness();
        assert_eq!(s.monotonicity, Monotonicity::NonMonotonicInner);
        assert_eq!(s.bound, StaticBound::NextChangePoint);
        assert_eq!(s.non_monotonic_count, 2);
    }

    #[test]
    fn tick_bound_lattice_is_a_join_semilattice_with_unbounded_top() {
        use TickBound::{Finite, Unbounded};
        assert_eq!(Finite(3).join(Finite(7)), Finite(7));
        assert_eq!(Finite(7).join(Finite(3)), Finite(7));
        assert_eq!(Finite(u64::MAX).join(Unbounded), Unbounded);
        assert_eq!(Unbounded.join(Unbounded), Unbounded);
        assert_eq!(TickBound::ZERO.join(Finite(0)), Finite(0));
        assert_eq!(Finite(u64::MAX).saturating_add(Finite(1)), Finite(u64::MAX));
        assert_eq!(Finite(2).saturating_add(Finite(3)), Finite(5));
        assert_eq!(Finite(2).saturating_add(Unbounded), Unbounded);
        assert_eq!(Finite(9).finite(), Some(9));
        assert_eq!(Unbounded.finite(), None);
        assert!(Finite(0).is_finite() && !Unbounded.is_finite());
        assert_eq!(format!("{} {}", Finite(12), Unbounded), "12 ∞");
    }

    #[test]
    fn rewrite_improves_soundness_class_when_it_lifts() {
        // σ_p(Pol −exp El): select above the difference (inner) rewrites
        // to the pushed-down, root-difference (patchable) form.
        let e = Expr::base("Pol")
            .difference(Expr::base("El"))
            .select(Predicate::attr_eq_const(0, 1));
        assert_eq!(e.soundness().monotonicity, Monotonicity::NonMonotonicInner);
        let r = rewrite(&e);
        assert_eq!(r.soundness().monotonicity, Monotonicity::NonMonotonicRoot);
        assert!(r.soundness().patchable);
    }
}
