//! Evaluation of algebra expressions into materialised results.
//!
//! [`eval`] materialises an expression `e` against its [`Bindings`] at a
//! time `τ`, producing a [`Materialized`]:
//!
//! * the result relation, each tuple carrying the expiration time the
//!   paper's operator definitions assign;
//! * `texp(e)` — the expression's expiration time, "a lower bound on the
//!   time when the materialised expression is no longer correct due to
//!   expiration of underlying tuples" (Section 2.2). For monotonic
//!   expressions this is `∞` (Theorem 1); for aggregation and difference it
//!   follows Section 2.6;
//! * `I(e)` — the Schrödinger validity interval set (Section 3.4): the
//!   instants at which the materialised result, expired forward, equals a
//!   fresh recomputation;
//! * optionally a [`PatchQueue`] that makes a root-level difference or
//!   aggregation maintainable without its base relations (Theorem 3): it
//!   is there, possibly empty, for a root difference, a root aggregation
//!   or a π over one that keeps every grouping attribute, evaluated with
//!   [`patch_root`](EvalOptions::patch_root), and only then.
//!
//! Every operator reads each of its inputs one way ([`Input`]): its
//! source under the σs directly above it, `σ* S`. A `Base` source's rows
//! are the ones [`Bindings::visit`] lends; any other source is evaluated
//! and its result read. Either way each row is tested in place against
//! each σ, compiled once ([`Predicate::compile`]), so a row that fails a
//! σ is never copied, and of a lent row an operator copies only what it
//! keeps; a σ not directly over ×, or a bare `Base`, evaluated on its
//! own is that read, kept. By snapshot reducibility an operator is the
//! same function of the rows it is handed either way. `σ_p(L × R)` is
//! `L ⋈_p R` (Equation 5 read right to left) and a bare `L × R` is
//! `L ⋈_true R`: one join kernel, the right input hashed as it is read
//! and the left probing it in order. An aggregation groups its input once
//! ([`Aggregation`]) and, under a π onto grouping attributes and the
//! aggregate column — what a single-aggregate `GROUP BY` plans to — emits
//! one row per group, so the Klug rows of Equation 8 are not built and a
//! group holds no row of its input, only what its aggregate reads. A ∪
//! keeps its left input and reads its right into it. A ∩ and a − keep
//! both inputs as the join keeps its left, and the left probes the
//! right's tuple index in order: ∩ takes Equation 6's `min`, and − runs
//! one kernel (`ops::one_pass_difference`), so one pass yields the result
//! rows and the critical tuples. `texp(e)`, `I(e)` and — at a patched
//! root — the Theorem 3 queue all follow from the critical tuples; an
//! unpatched difference is a patched one whose queue holds nothing. An
//! aggregation derives the same three from its groups' cuts, and at a
//! patched root queues the groups themselves. A fused operator reports to
//! the probe as the operators it stands for.
//!
//! Only π and ∪ can make two rows coincide (Equations 3 and 4), so they
//! alone deduplicate: a π looks each projected row up by its values
//! ([`Relation::insert_projection`]) and builds a tuple only for a new one,
//! and a ∪ inserts its right input's rows into its left's with
//! [`DuplicatePolicy::KeepMax`], Equation 4's max on a tuple on both
//! sides. Every other operator appends its rows to a [`Relation`] whose tuple
//! index is built only if something later looks a tuple up (the right
//! input of a ∩ or a −, a patch, a caller).

use crate::aggregate::AggMode;
use crate::algebra::expr::Expr;
use crate::algebra::ops::{self, Aggregation, CriticalTuple};
use crate::catalog::Bindings;
use crate::error::Result;
use crate::interval::{Interval, IntervalSet};
use crate::patch::PatchQueue;
use crate::predicate::{Predicate, Test};
use crate::relation::{DuplicatePolicy, Relation};
use crate::schema::Schema;
use crate::time::Time;
use crate::tuple::Tuple;

/// Options controlling evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// How aggregation result tuples get their expiration times
    /// (default [`AggMode::Exact`]).
    pub agg_mode: AggMode,
    /// If the expression's *root* is a difference or an aggregation (bare,
    /// or under a π that keeps every grouping attribute), build the
    /// Theorem 3 patch queue: the result then has `texp(e)` independent
    /// of its critical tuples or its groups' change points and is
    /// maintained by applying due patches instead of recomputation.
    /// (Patching an inner operator would require propagating insertions
    /// through the operators above it — classic incremental view
    /// maintenance, out of the paper's scope; the paper's Section 3.1
    /// instead suggests *pulling up* non-monotonic operators, which the
    /// rewriter implements.)
    pub patch_root: bool,
    /// Bound on the Theorem 3 patch queue. The paper (Section 3.4.2)
    /// notes that sizing the queue "is a classic trade-off decision
    /// between saving future communication and time/space": with a cap,
    /// only the `k` earliest-due entries — critical tuples by their
    /// reappearance, groups by their cut — are queued, and the
    /// expression's `texp(e)` is the due time of the first one that did
    /// NOT fit — the view patches locally until then, then recomputes
    /// (rebuilding the queue). `None` queues everything (full Theorem 3:
    /// `texp(e)` independent of critical tuples and groups).
    pub patch_queue_cap: Option<usize>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            agg_mode: AggMode::Exact,
            patch_root: false,
            patch_queue_cap: None,
        }
    }
}

/// A materialised expression: the result of [`eval`].
#[derive(Debug, Clone)]
pub struct Materialized {
    /// The result relation with per-tuple expiration times.
    pub rel: Relation,
    /// The time `τ` at which the expression was materialised.
    pub at: Time,
    /// `texp(e)`: the expression expires — becomes potentially incorrect
    /// under pure expiration — at this time. `∞` for monotonic
    /// expressions.
    pub texp: Time,
    /// `I(e)`: the Schrödinger validity intervals, a subset of `[τ, ∞[`.
    /// `[τ, texp(e)[` is always covered.
    pub validity: IntervalSet,
    /// The Theorem 3 patch queue, present only when
    /// [`EvalOptions::patch_root`] was set and the root is a difference or
    /// an aggregation that can have one.
    pub patches: Option<PatchQueue>,
}

impl Materialized {
    /// Whether the materialisation, expired forward, is still guaranteed
    /// correct at `t` under the single-expiration-time model
    /// (`t < texp(e)`).
    #[must_use]
    pub fn fresh_at(&self, t: Time) -> bool {
        t >= self.at && t < self.texp
    }

    /// Whether the materialisation is correct at `t` under Schrödinger
    /// semantics (validity intervals).
    #[must_use]
    pub fn valid_at(&self, t: Time) -> bool {
        self.validity.contains(t)
    }

    /// The result as seen at `t ≥ at`: `expₜ` of the rows, plus every
    /// queued patch whose tuple is in the result at `t` and every queued
    /// group due by `t`, recomputed at `t` — Theorem 3's materialisation
    /// is its rows *and* its helper queue. This is the
    /// one way rows leave a materialisation, and it is a pure function:
    /// a read that consumed the queue could not be asked about an earlier
    /// instant afterwards (a query moved forward, then the next one).
    /// Draining and eager removal are physical maintenance
    /// ([`MaterializedView::maintain`](crate::materialize::MaterializedView::maintain))
    /// and change no answer at or after the instant they ran at.
    ///
    /// # Panics
    ///
    /// Panics if a queued tuple does not match the result schema — a
    /// queue/result mismatch is a logic error, not user input.
    #[must_use]
    pub fn rows_at(&self, t: Time) -> Relation {
        let mut rows = self.rel.exp(t);
        // One peek when nothing is due, which is every read of a
        // maintained view: `maintain` has just drained the queue to `t`.
        let queue = self.patches.as_ref();
        if let Some(due) = queue.filter(|q| q.next_due().is_some_and(|next| next <= t)) {
            due.add_due(&mut rows, t);
        }
        rows
    }

    /// The instant a query at `τ` can be answered for without the base
    /// relations (Sections 3.3–3.4): `τ` itself inside `I(e)`, else the
    /// latest covered instant before it — the query moved backward — and
    /// `None` when the materialisation covers neither.
    #[must_use]
    pub fn covered_at(&self, tau: Time) -> Option<Time> {
        // `prev_covered` is `τ` itself when `τ` is covered.
        let back = self.validity.prev_covered(tau)?;
        (back >= self.at).then_some(back)
    }

    /// Answers a query at `τ` from the materialisation alone: the rows and
    /// the instant they are correct for ([`Materialized::covered_at`]).
    #[must_use]
    pub fn answer(&self, tau: Time) -> Option<(Relation, Time)> {
        self.covered_at(tau).map(|t| (self.rows_at(t), t))
    }
}

/// What the one evaluator tells an observer, per operator: `enter` with
/// the operator's node before its inputs are evaluated, `leave` once its
/// own result exists. Calls nest exactly like the expression, so an
/// implementation can rebuild the operator tree with a stack. There are
/// two: [`NoProbe`] (every call is an empty inline body, so `eval`
/// compiles to the bare recursion) and the `PlanProfile` recorder behind
/// [`eval_profiled`](crate::algebra::profile::eval_profiled), which also
/// opens and closes each operator's span when handed a tracer.
pub(crate) trait Probe {
    fn enter(&mut self, expr: &Expr);
    /// `expired_filtered` is non-zero only at `Base` leaves: physically
    /// present tuples the scan skipped because `texp ≤ τ`.
    fn leave(&mut self, rows_out: usize, expired_filtered: usize, texp: Time);
}

/// The probe that observes nothing.
pub(crate) struct NoProbe;

impl Probe for NoProbe {
    #[inline]
    fn enter(&mut self, _: &Expr) {}
    #[inline]
    fn leave(&mut self, _: usize, _: usize, _: Time) {}
}

struct Sub {
    rel: Relation,
    texp: Time,
    validity: IntervalSet,
    /// The Theorem 3 queue: `Some` only for a root that can have one,
    /// evaluated with [`EvalOptions::patch_root`].
    patches: Option<PatchQueue>,
}

impl Sub {
    fn new(rel: Relation, texp: Time, validity: IntervalSet) -> Self {
        Sub {
            rel,
            texp,
            validity,
            patches: None,
        }
    }
}

/// `σ_p(e)`'s `p` and `e`, unless `e` is a ×: a σ directly over × is the
/// join (Equation 5 read right to left).
fn peel(node: &Expr) -> Option<(&Predicate, &Expr)> {
    match node {
        Expr::Select { input, predicate } if !matches!(**input, Expr::Product { .. }) => {
            Some((predicate, input))
        }
        _ => None,
    }
}

/// `aggexp(e)`, or `πexp(aggexp(e))` with `positions`: the input is grouped
/// exactly once ([`Aggregation`]) from the rows [`Input`] hands it, and
/// rows, `texp(e)`, validity and — at a `patched` root — the Theorem 3
/// queue all come from that one grouping. The positions of a π directly
/// above go to [`Aggregation::new`], so that `GROUP BY` output is emitted
/// one row per group and a lent row is copied only if the Klug rows or
/// the queue need it. A patched root's queue takes `patch_queue_cap`
/// groups (`None`: all); only those past it bound `texp(e)` and cut holes
/// in `I(e)`, beside the input's own. The aggregation reports the Klug
/// cardinality it stands for, built or not, and errors keep the unfused
/// order: the input's, the aggregation's, then the π's.
fn eval_aggregate<P: Probe>(
    node: &Expr,
    positions: Option<&[usize]>,
    patched: bool,
    catalog: &dyn Bindings,
    tau: Time,
    opts: &EvalOptions,
    probe: &mut P,
) -> Result<Sub> {
    let Expr::Aggregate {
        input,
        group_by,
        func,
    } = node
    else {
        unreachable!("eval_aggregate requires an aggregation")
    };
    probe.enter(node);
    let i = Input::open(input, catalog, tau, opts, probe)?;
    let schema = i.source.schema().clone();
    let cap = patched.then(|| opts.patch_queue_cap.unwrap_or(usize::MAX));
    let (mode, f) = (opts.agg_mode, *func);
    let mut agg = Aggregation::new(&schema, group_by, f, mode, tau, positions, cap)?;
    let i = i.run(catalog, tau, probe, |t, e| Ok(agg.push(t, e)))?;
    let out = agg.finish()?;
    let texp = i.texp.min(out.meta.texp);
    probe.leave(out.klug_rows, 0, texp);
    let validity = i.validity.intersect(&out.meta.validity);
    let mut sub = Sub::new(out.rel, texp, validity);
    sub.patches = out.patches;
    Ok(sub)
}

/// One input of an operator: a source under the σs directly above it,
/// `σ* S`, a bare `S` included. A `Base` source's rows are the ones
/// [`Bindings::visit`] lends; any other source is evaluated and its result
/// read. Either way each row is tested in place against each σ, compiled
/// once ([`Predicate::compile`]), so a row that fails one is never copied,
/// and of a lent row an operator copies only what it keeps.
struct Input<'a> {
    /// Each σ's conjuncts, outermost first.
    tests: Vec<Vec<Test<'a>>>,
    source: Source<'a>,
}

enum Source<'a> {
    /// A `Base`: its relation's name and schema.
    Lent(&'a str, Schema),
    /// Any other expression's result, `texp` and `I`: below the root, it
    /// has no Theorem 3 queue.
    Built(Relation, Time, IntervalSet),
}

impl Source<'_> {
    fn schema(&self) -> &Schema {
        match self {
            Source::Lent(_, schema) => schema,
            Source::Built(rel, ..) => rel.schema(),
        }
    }
}

/// An input whose rows have been handed on.
struct ReadInput {
    /// `|expτ|` of the input.
    rows: usize,
    texp: Time,
    validity: IntervalSet,
}

impl<'a> Input<'a> {
    /// Enters each σ [`peel`]ed off `node` and its source, outermost
    /// first, and resolves the schema, raising errors in the order the
    /// unfused operators do: the source's, then each σ's from the inside
    /// out.
    fn open<P: Probe>(
        mut node: &'a Expr,
        catalog: &dyn Bindings,
        tau: Time,
        opts: &EvalOptions,
        probe: &mut P,
    ) -> Result<Self> {
        let mut predicates = Vec::new();
        while let Some((predicate, input)) = peel(node) {
            probe.enter(node);
            predicates.push(predicate);
            node = input;
        }
        let source = match node {
            Expr::Base(name) => {
                probe.enter(node);
                Source::Lent(name, catalog.schema(name)?)
            }
            _ => {
                let sub = eval_rec(node, catalog, tau, opts, probe)?;
                Source::Built(sub.rel, sub.texp, sub.validity)
            }
        };
        for p in predicates.iter().rev() {
            p.validate(source.schema().arity())?;
        }
        let tests = predicates.iter().map(|p| p.compile()).collect();
        Ok(Input { tests, source })
    }

    /// Reads an input that is held while another is read — a join's
    /// left, a ∪'s left, both of a ∩ or a − — or that is the result: an
    /// evaluated source under no σ as it is, any other the rows [`run`]
    /// hands on, copied in order, for a scan lends them for the visit
    /// alone. Only a lookup builds the copy's tuple index.
    ///
    /// [`run`]: Self::run
    fn keep<P: Probe>(self, catalog: &dyn Bindings, tau: Time, probe: &mut P) -> Result<Sub> {
        match self {
            Input {
                tests,
                source: Source::Built(rel, texp, validity),
            } if tests.is_empty() => Ok(Sub::new(rel, texp, validity)),
            input => {
                let mut rel = Relation::new(input.source.schema().clone());
                let read = input.run(catalog, tau, probe, |t, e| {
                    rel.push_distinct(t.clone(), e);
                    Ok(true)
                })?;
                Ok(Sub::new(rel, read.texp, read.validity))
            }
        }
    }

    /// Equation 1 applied row by row: `keep` is handed each row of the
    /// source's `expτ` that passes every σ, in order, and answers whether
    /// it copied it (a row merged into an existing π group is not), which
    /// is what a lent row is billed as; its first error is the read's. The
    /// probe hears the operators with the counts they would have had
    /// unfused: a `Base` its visible and expired-but-present rows, each σ
    /// the rows that passed it.
    fn run<P: Probe>(
        self,
        catalog: &dyn Bindings,
        tau: Time,
        probe: &mut P,
        mut keep: impl FnMut(&Tuple, Time) -> Result<bool>,
    ) -> Result<ReadInput> {
        let Input { tests, source } = self;
        let mut passed = vec![0; tests.len()];
        let (mut rows, mut failed) = (0, None);
        let mut offer = |t: &Tuple, e: Time| {
            for (tests, n) in tests.iter().zip(&mut passed).rev() {
                if !tests.iter().all(|test| test.holds(t)) {
                    return false;
                }
                *n += 1;
            }
            rows += 1;
            keep(t, e).unwrap_or_else(|err| {
                failed.get_or_insert(err);
                false
            })
        };
        let (texp, validity, scanned) = match source {
            Source::Lent(name, _) => {
                let mut visible = 0;
                let skipped = catalog.visit(name, tau, &mut |t, e| {
                    visible += 1;
                    offer(t, e)
                })?;
                // "The expiration time of a base relation is defined to be
                // infinity."
                let all = IntervalSet::from_time(tau);
                (Time::INFINITY, all, Some((visible, skipped)))
            }
            Source::Built(rel, texp, validity) => {
                for (t, e) in rel.iter_at(tau) {
                    offer(t, e);
                }
                (texp, validity, None)
            }
        };
        if let Some(err) = failed {
            return Err(err);
        }
        if let Some((visible, skipped)) = scanned {
            probe.leave(visible, skipped, texp);
        }
        // σ passes its input's `texp` on.
        for n in passed.iter().rev() {
            probe.leave(*n, 0, texp);
        }
        Ok(ReadInput {
            rows,
            texp,
            validity,
        })
    }
}

/// Equation 5 in all its spellings: `L ⋈_p R`; `σ_p(L × R)` read right to
/// left, whose `product` node is reported to the probe (its cardinality
/// is `|L|·|R|`) but never built; and a bare `L × R`, which is
/// `L ⋈_true R` — an empty key, so one bucket, and the product's
/// left-major order. The inputs feed the one join kernel
/// ([`HashJoin`](ops::HashJoin)) from the rows their [`Input`]s hand on:
/// the left's are kept ([`Input::keep`]), in order, in a relation whose
/// tuple index is never built; the right's are hashed by key as they are
/// read; then the left probes. The left input is read before the right
/// is opened, so the probe hears the operators, and errors are raised, in
/// tree order.
fn eval_join<P: Probe>(
    (left, right): (&Expr, &Expr),
    predicate: &Predicate,
    product: Option<&Expr>,
    catalog: &dyn Bindings,
    tau: Time,
    opts: &EvalOptions,
    probe: &mut P,
) -> Result<Sub> {
    if let Some(product) = product {
        probe.enter(product);
    }
    let l = Input::open(left, catalog, tau, opts, probe)?;
    let l = l.keep(catalog, tau, probe)?;
    let r = Input::open(right, catalog, tau, opts, probe)?;
    let mut join = ops::HashJoin::new(l.rel.schema(), r.source.schema(), predicate)?;
    let r = r.run(catalog, tau, probe, |t, e| {
        join.build(t, e);
        Ok(true)
    })?;
    let texp = l.texp.min(r.texp);
    if product.is_some() {
        // Every row an evaluation emits, as every row a scan lends, is
        // unexpired at `τ`: the kept left is its `expτ`.
        debug_assert_eq!(l.rel.len(), l.rel.count_unexpired(tau));
        probe.leave(l.rel.len().saturating_mul(r.rows), 0, texp);
    }
    let rel = join.probe(l.rel.iter_at(tau));
    Ok(Sub::new(rel, texp, l.validity.intersect(&r.validity)))
}

/// `L ∩exp R` (Equation 6) and `L −exp R` (Equation 10): the left's rows
/// looked up in the right. Both inputs are kept as [`eval_join`] keeps its
/// left — a lent input's rows copied once, an evaluated one's result as
/// it is — in tree order, and union compatibility is checked once both
/// are read. The left's rows then move, in order, into the result, and
/// the right is looked up through its own tuple index: a π's output has
/// one already. ∩ keeps a row the right holds, expiring at the earlier of
/// its two `texp`s. − runs the difference kernel
/// (`ops::one_pass_difference`), which yields the rows and the critical
/// tuples in one pass; sorted stably by when they reappear, the critical
/// tuples are split at the queue's cap: `patch_queue_cap` (`None`: all) at
/// a `patched` root, 0 anywhere else. Those before it are the Theorem 3
/// queue; the first past it bounds `texp(e)` (Equation 11, Table 2 case
/// 3a); and each past it is missing from the result on its own interval,
/// which `I(e)` loses.
fn eval_lookup<P: Probe>(
    node: &Expr,
    patched: bool,
    catalog: &dyn Bindings,
    tau: Time,
    opts: &EvalOptions,
    probe: &mut P,
) -> Result<Sub> {
    let (Expr::Intersect { left, right } | Expr::Difference { left, right }) = node else {
        unreachable!("eval_lookup requires a ∩ or a −")
    };
    let l = Input::open(left, catalog, tau, opts, probe)?;
    let l = l.keep(catalog, tau, probe)?;
    let r = Input::open(right, catalog, tau, opts, probe)?;
    let r = r.keep(catalog, tau, probe)?;
    l.rel.check_union_compatible(&r.rel)?;
    let (texp, validity) = (l.texp.min(r.texp), l.validity.intersect(&r.validity));
    if let Expr::Intersect { .. } = node {
        let mut rel = Relation::new(l.rel.schema().clone());
        for (t, le) in l.rel.into_rows().into_iter().filter(|&(_, e)| e > tau) {
            if let Some(re) = r.rel.texp(&t).filter(|&e| e > tau) {
                rel.push_distinct(t, le.min(re));
            }
        }
        return Ok(Sub::new(rel, texp, validity));
    }
    let (rel, mut critical) = ops::one_pass_difference(l.rel, &r.rel, tau);
    // Stable: critical tuples that reappear together keep left order.
    critical.sort_by_key(|c| c.appears_at);
    let cap = opts.patch_queue_cap.unwrap_or(usize::MAX);
    let past = critical.split_off(if patched { cap.min(critical.len()) } else { 0 });
    let hole = |c: &CriticalTuple| Interval::new(c.appears_at, c.disappears_at);
    let holes = IntervalSet::from_intervals(past.iter().map(hole).collect());
    let own_texp = past.first().map_or(Time::INFINITY, |c| c.appears_at);
    let mut sub = Sub::new(rel, texp.min(own_texp), validity.subtract(&holes));
    sub.patches = patched.then(|| PatchQueue::from_critical(critical));
    Ok(sub)
}

fn eval_rec<P: Probe>(
    expr: &Expr,
    catalog: &dyn Bindings,
    tau: Time,
    opts: &EvalOptions,
    probe: &mut P,
) -> Result<Sub> {
    // Only the root is patched (Theorem 3): below it, patching is off.
    let patched = opts.patch_root;
    let opts = &EvalOptions {
        patch_root: false,
        ..*opts
    };
    // A bare `Base`, or a σ not directly over ×: its rows, kept.
    if matches!(expr, Expr::Base(_)) || peel(expr).is_some() {
        return Input::open(expr, catalog, tau, opts, probe)?.keep(catalog, tau, probe);
    }
    if let Expr::Aggregate { .. } = expr {
        return eval_aggregate(expr, None, patched, catalog, tau, opts, probe);
    }
    probe.enter(expr);
    let sub = match expr {
        Expr::Select { input, predicate } => match &**input {
            Expr::Product { left, right } => {
                let product = Some(&**input);
                eval_join((left, right), predicate, product, catalog, tau, opts, probe)?
            }
            _ => unreachable!("read above"),
        },
        Expr::Project { input, positions } => match &**input {
            agg @ Expr::Aggregate { .. } => {
                eval_aggregate(agg, Some(positions), patched, catalog, tau, opts, probe)?
            }
            _ => {
                let i = Input::open(input, catalog, tau, opts, probe)?;
                let mut rel = Relation::new(i.source.schema().project(positions)?);
                let mut scratch = Vec::new();
                let i = i.run(catalog, tau, probe, |t, e| {
                    rel.insert_projection(t, positions, e, &mut scratch)
                })?;
                Sub::new(rel, i.texp, i.validity)
            }
        },
        Expr::Product { left, right } => {
            let no_key = Predicate::True;
            eval_join((left, right), &no_key, None, catalog, tau, opts, probe)?
        }
        Expr::Union { left, right } => {
            // Equation 4: the left's rows, then the right's, a tuple on
            // both sides keeping the later `texp`.
            let l = Input::open(left, catalog, tau, opts, probe)?;
            let l = l.keep(catalog, tau, probe)?;
            let r = Input::open(right, catalog, tau, opts, probe)?;
            l.rel.schema().check_union_compatible(r.source.schema())?;
            let mut rel = l.rel;
            let r = r.run(catalog, tau, probe, |t, e| {
                rel.insert_with(t.clone(), e, DuplicatePolicy::KeepMax)?;
                Ok(true)
            })?;
            Sub::new(rel, l.texp.min(r.texp), l.validity.intersect(&r.validity))
        }
        Expr::Join {
            left,
            right,
            predicate,
        } => eval_join((left, right), predicate, None, catalog, tau, opts, probe)?,
        Expr::Intersect { .. } | Expr::Difference { .. } => {
            eval_lookup(expr, patched, catalog, tau, opts, probe)?
        }
        Expr::Base(_) | Expr::Aggregate { .. } => unreachable!("evaluated above"),
    };
    probe.leave(sub.rel.len(), 0, sub.texp);
    Ok(sub)
}

/// [`eval`] under an observer: the single entry into the recursion, shared
/// with [`eval_profiled`](crate::algebra::profile::eval_profiled).
pub(crate) fn eval_probed<P: Probe>(
    expr: &Expr,
    catalog: &dyn Bindings,
    tau: Time,
    opts: &EvalOptions,
    probe: &mut P,
) -> Result<Materialized> {
    let sub = eval_rec(expr, catalog, tau, opts, probe)?;
    Ok(Materialized {
        rel: sub.rel,
        at: tau,
        texp: sub.texp,
        validity: sub.validity,
        patches: sub.patches,
    })
}

/// Materialises `expr` against `catalog` at time `τ`.
///
/// # Errors
///
/// Returns schema/type errors (unknown relations, bad positions,
/// incompatible schemas, non-numeric aggregation).
pub fn eval(
    expr: &Expr,
    catalog: &dyn Bindings,
    tau: Time,
    opts: &EvalOptions,
) -> Result<Materialized> {
    eval_probed(expr, catalog, tau, opts, &mut NoProbe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;
    use crate::catalog::Catalog;
    use crate::predicate::Predicate;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::ValueType;

    fn t(v: u64) -> Time {
        Time::new(v)
    }

    /// The Figure 1 catalog.
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

    #[test]
    fn monotonic_expressions_have_infinite_texp() {
        let c = catalog();
        let e = Expr::base("Pol")
            .join(Expr::base("El"), Predicate::attr_eq_attr(0, 2))
            .project([0, 1]);
        let m = eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
        assert_eq!(m.texp, Time::INFINITY);
        assert!(m.valid_at(t(1_000_000)));
        assert!(m.fresh_at(t(42)));
    }

    #[test]
    fn theorem_1_join_sweep() {
        // expτ′(e) = expτ′(expτ(e)) for the Figure 2(e-g) join.
        let c = catalog();
        let e = Expr::base("Pol").join(Expr::base("El"), Predicate::attr_eq_attr(0, 2));
        let m0 = eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
        for now in 0..20 {
            let now = t(now);
            let fresh = eval(&e, &c, now, &EvalOptions::default()).unwrap();
            assert!(
                m0.rel.set_eq_at(&fresh.rel, now),
                "Theorem 1 violated at {now}"
            );
        }
    }

    #[test]
    fn difference_texp_matches_figure_3() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let m = eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
        assert_eq!(m.texp, t(3), "invalid from time 3 onwards");
        assert_eq!(m.rel.len(), 1);
        assert!(m.rel.contains(&tuple![3]));
        assert!(m.valid_at(t(2)));
        assert!(!m.valid_at(t(4)));
        assert!(m.valid_at(t(15)), "valid again after all criticals expire");
    }

    #[test]
    fn theorem_2_materialisation_valid_before_texp() {
        let c = catalog();
        let exprs = vec![
            Expr::base("Pol")
                .project([0])
                .difference(Expr::base("El").project([0])),
            Expr::base("Pol").aggregate([1], AggFunc::Count),
            Expr::base("Pol")
                .aggregate([1], AggFunc::Count)
                .project([1, 2]),
        ];
        for e in exprs {
            let m = eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
            let mut now = Time::ZERO;
            while now < m.texp && now < t(30) {
                let fresh = eval(&e, &c, now, &EvalOptions::default()).unwrap();
                assert!(
                    m.rel.tuples_eq_at(&fresh.rel, now),
                    "Theorem 2 violated for {e} at {now}:\nmat {:?}\nfresh {:?}",
                    m.rel.exp(now),
                    fresh.rel.exp(now),
                );
                now = now.succ();
            }
        }
    }

    #[test]
    fn aggregate_texp_flows_into_expression() {
        let c = catalog();
        let e = Expr::base("Pol")
            .aggregate([1], AggFunc::Count)
            .project([1, 2]);
        let m = eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
        // Figure 3(a): invalid from time 10 (count 25-group drops to 1).
        assert_eq!(m.texp, t(10));
        assert!(m.valid_at(t(9)));
        assert!(!m.valid_at(t(10)));
        assert!(m.valid_at(t(15)), "after total death, valid");
    }

    #[test]
    fn patched_root_difference_never_needs_recomputation() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let opts = EvalOptions {
            patch_root: true,
            ..EvalOptions::default()
        };
        let m = eval(&e, &c, Time::ZERO, &opts).unwrap();
        assert_eq!(m.texp, Time::INFINITY, "Theorem 3");
        let q = m.patches.as_ref().expect("patch queue present");
        assert_eq!(q.len(), 2);
        // Sweep, then probe backwards: rows_at must equal a fresh
        // recomputation at every instant, in any order, because it leaves
        // the queue where it is.
        for now in (0..20).chain((0..20).rev()) {
            let now = t(now);
            let seen = m.rows_at(now);
            let fresh = eval(&e, &c, now, &EvalOptions::default()).unwrap();
            assert!(
                seen.set_eq_at(&fresh.rel, now),
                "patched view wrong at {now}: {seen:?} vs {:?}",
                fresh.rel
            );
        }
    }

    #[test]
    fn validity_always_covers_up_to_texp() {
        let c = catalog();
        let exprs = vec![
            Expr::base("Pol")
                .project([0])
                .difference(Expr::base("El").project([0])),
            Expr::base("Pol").aggregate([1], AggFunc::Sum(0)),
            Expr::base("Pol").join(Expr::base("El"), Predicate::attr_eq_attr(0, 2)),
        ];
        for e in exprs {
            let m = eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
            let mut now = Time::ZERO;
            while now < m.texp && now < t(40) {
                assert!(m.valid_at(now), "{e}: [τ, texp(e)[ must be valid at {now}");
                now = now.succ();
            }
        }
    }

    #[test]
    fn nested_non_monotonic_combines_texp() {
        let c = catalog();
        // (Pol − El-as-uid-rows) unioned with Pol: difference inside a
        // monotonic operator still caps the expression texp.
        let d = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let e = d.union(Expr::base("Pol").project([0]));
        let m = eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
        assert_eq!(m.texp, t(3));
    }

    #[test]
    fn errors_propagate() {
        let c = catalog();
        assert!(eval(
            &Expr::base("missing"),
            &c,
            Time::ZERO,
            &EvalOptions::default()
        )
        .is_err());
        assert!(eval(
            &Expr::base("Pol").project([9]),
            &c,
            Time::ZERO,
            &EvalOptions::default()
        )
        .is_err());
    }

    #[test]
    fn bounded_patch_queue_caps_texp_at_first_dropped_critical() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        // Critical reappearances at 3 (⟨2⟩) and 5 (⟨1⟩). Cap 1 keeps the
        // earliest; texp(e) = 5, the dropped tuple's reappearance.
        let opts = EvalOptions {
            patch_root: true,
            patch_queue_cap: Some(1),
            ..EvalOptions::default()
        };
        let m = eval(&e, &c, Time::ZERO, &opts).unwrap();
        assert_eq!(m.patches.as_ref().unwrap().len(), 1);
        assert_eq!(m.texp, t(5));
        // ⟨1⟩, which no patch brings back, is missing on [5, 10[ — and
        // only there, so the queued ⟨2⟩ is served on both sides of it.
        assert_eq!(m.covered_at(t(9)), Some(t(4)));
        assert_eq!(m.answer(t(4)).unwrap().0.len(), 2, "⟨3⟩ and ⟨2⟩");
        assert_eq!(m.answer(t(12)).unwrap().0.len(), 1, "⟨2⟩, until 15");
        // Cap 0: no queue benefit; texp(e) = 3, like the unpatched case.
        let opts = EvalOptions {
            patch_queue_cap: Some(0),
            ..opts
        };
        let m = eval(&e, &c, Time::ZERO, &opts).unwrap();
        assert_eq!(m.texp, t(3));
        // Cap ≥ |critical|: full Theorem 3.
        let opts = EvalOptions {
            patch_queue_cap: Some(10),
            ..opts
        };
        let m = eval(&e, &c, Time::ZERO, &opts).unwrap();
        assert_eq!(m.texp, Time::INFINITY);
    }

    #[test]
    fn bounded_patched_view_stays_correct_via_recompute_fallback() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let opts = EvalOptions {
            patch_root: true,
            patch_queue_cap: Some(1),
            ..EvalOptions::default()
        };
        let mut view = crate::materialize::MaterializedView::new(
            e.clone(),
            &c,
            Time::ZERO,
            opts,
            crate::materialize::RefreshPolicy::Patch,
            crate::materialize::RemovalPolicy::Lazy,
        )
        .unwrap();
        for now in 0..20 {
            let got = view.read(&c, t(now)).unwrap();
            let fresh = eval(&e, &c, t(now), &EvalOptions::default()).unwrap();
            assert!(got.set_eq(&fresh.rel.exp(t(now))), "at {now}");
        }
        // Exactly one recomputation (at 5, when the un-queued critical
        // tuple reappeared); the queued one was patched for free.
        assert_eq!(view.stats().recomputations, 1);
        assert_eq!(view.stats().patches_applied, 1);
    }

    /// Figure 3(a) patched: the 25-group goes wrong at 10, when ⟨1, 25⟩
    /// expires, and is queued with its two rows; the 35-group dies then.
    #[test]
    fn patched_root_aggregate_queues_its_groups() {
        let c = catalog();
        let e = Expr::base("Pol")
            .aggregate([1], AggFunc::Count)
            .project([1, 2]);
        let patched = EvalOptions {
            patch_root: true,
            ..EvalOptions::default()
        };
        let m = eval(&e, &c, Time::ZERO, &patched).unwrap();
        assert_eq!(m.texp, Time::INFINITY, "Theorem 3");
        let q = m.patches.as_ref().expect("a queue");
        assert_eq!((q.len(), q.tuples(), q.next_due()), (1, 2, Some(t(10))));
        assert!(m.valid_at(t(12)));
        assert_eq!(m.rows_at(t(12)).texp(&tuple![25, 1]), Some(t(15)));
        assert_eq!(m.rows_at(t(12)).len(), 1);
        // With no room, the group past the cap is Figure 3(a)'s hole.
        let no_room = EvalOptions {
            patch_queue_cap: Some(0),
            ..patched
        };
        let m = eval(&e, &c, Time::ZERO, &no_room).unwrap();
        assert_eq!(m.texp, t(10));
        assert!(!m.valid_at(t(12)));
        assert!(m.patches.is_some_and(|q| q.is_empty()));
        // A π that drops the grouping attribute merges groups: no queue.
        let merged = Expr::base("Pol")
            .aggregate([1], AggFunc::Count)
            .project([2]);
        let m = eval(&merged, &c, Time::ZERO, &patched).unwrap();
        assert!(m.patches.is_none());
        assert_eq!(m.texp, t(10));
    }

    #[test]
    fn patch_option_ignored_for_non_difference_root() {
        let c = catalog();
        let e = Expr::base("Pol").project([0]);
        let opts = EvalOptions {
            patch_root: true,
            ..EvalOptions::default()
        };
        let m = eval(&e, &c, Time::ZERO, &opts).unwrap();
        assert!(m.patches.is_none());
    }
}
