//! Materialised views maintained independently of their base relations.
//!
//! The paper's motivation (Section 1): once a query result is computed, it
//! should be maintainable "by looking only at the expiration times of the
//! tuples of the query results and without referring back to the base
//! relations", because in loosely-coupled systems the base data may be
//! remote, expensive, or unreachable. A [`MaterializedView`] realises this:
//!
//! * **monotonic** views expire tuples locally and are *never* recomputed
//!   (Theorem 1);
//! * **non-monotonic** views know their expiration time `texp(e)` and are
//!   recomputed (a "message" back to the base data) only when it passes —
//!   or, for a root difference or aggregation, are *patched* from a local
//!   priority queue and never recomputed (Theorem 3): a difference's
//!   critical tuples are inserted as they reappear, an aggregation's
//!   groups recomputed from their own rows as their values change;
//! * removal of expired tuples is **eager** (physical, trigger-friendly) or
//!   **lazy** (deferred, more optimisation freedom) per Section 3.2.

use crate::algebra::{eval, EvalOptions, Expr, Materialized};
use crate::catalog::Bindings;
use crate::error::Result;
use crate::relation::Relation;
use crate::time::Time;
use crate::tuple::Tuple;
use exptime_obs::{Counter, EventKind, MetricsRegistry, Obs, Tracer};

pub use exptime_obs::RefreshDecision;

/// How a view reacts when its materialisation expires (`τ ≥ texp(e)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshPolicy {
    /// Recompute from the base relations (counts as base access).
    #[default]
    Recompute,
    /// Maintain via the Theorem 3 patch queue where possible — a root
    /// difference, a root aggregation, or a π over one that keeps every
    /// grouping attribute; recompute otherwise.
    Patch,
}

/// Eager vs. lazy removal of expired tuples (Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RemovalPolicy {
    /// Remove expired tuples from the materialisation as soon as the view
    /// is advanced past their expiration times. Useful when triggers must
    /// fire promptly.
    Eager,
    /// Keep expired tuples physically present but invisible; remove them
    /// only on [`MaterializedView::vacuum`]. More optimisation freedom.
    #[default]
    Lazy,
}

/// Counters describing how much independent maintenance cost a view has
/// incurred — the currency of the paper's loosely-coupled argument.
///
/// This is a cheap *snapshot*: the live values are registry-backed atomic
/// counters (see [`MaterializedView::attach_obs`]), and
/// [`MaterializedView::stats`] reads them out on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViewStats {
    /// Number of full recomputations against the base relations.
    pub recomputations: u64,
    /// Number of patches applied from the queue: critical tuples inserted
    /// and groups recomputed.
    pub patches_applied: u64,
    /// Number of reads served.
    pub reads: u64,
    /// Number of reads served purely from the local materialisation
    /// (no base access).
    pub local_reads: u64,
    /// Number of tuples physically removed (eager expiry + vacuums).
    pub tuples_removed: u64,
}

/// The live counter handles behind [`ViewStats`]. Detached views use
/// private counters; [`MaterializedView::attach_obs`] re-interns them in
/// a shared registry under `view.<name>.*`.
#[derive(Debug, Clone)]
struct ViewCounters {
    recomputations: Counter,
    patches_applied: Counter,
    reads: Counter,
    local_reads: Counter,
    tuples_removed: Counter,
}

impl ViewCounters {
    fn detached() -> Self {
        ViewCounters {
            recomputations: Counter::default(),
            patches_applied: Counter::default(),
            reads: Counter::default(),
            local_reads: Counter::default(),
            tuples_removed: Counter::default(),
        }
    }

    fn in_registry(registry: &MetricsRegistry, view_name: &str) -> Self {
        let c = |field: &str| registry.counter(&format!("view.{view_name}.{field}"));
        ViewCounters {
            recomputations: c("recomputations"),
            patches_applied: c("patches_applied"),
            reads: c("reads"),
            local_reads: c("local_reads"),
            tuples_removed: c("tuples_removed"),
        }
    }

    fn snapshot(&self) -> ViewStats {
        ViewStats {
            recomputations: self.recomputations.get(),
            patches_applied: self.patches_applied.get(),
            reads: self.reads.get(),
            local_reads: self.local_reads.get(),
            tuples_removed: self.tuples_removed.get(),
        }
    }

    fn add(&self, s: ViewStats) {
        self.recomputations.add(s.recomputations);
        self.patches_applied.add(s.patches_applied);
        self.reads.add(s.reads);
        self.local_reads.add(s.local_reads);
        self.tuples_removed.add(s.tuples_removed);
    }
}

/// A materialised query result that maintains itself as tuples expire.
#[derive(Debug)]
pub struct MaterializedView {
    expr: Expr,
    opts: EvalOptions,
    removal: RemovalPolicy,
    state: Materialized,
    counters: ViewCounters,
    obs: Obs,
    tracer: Tracer,
    name: String,
    last_decision: Option<RefreshDecision>,
    /// A refresh [`MaterializedView::install`]ed since the last
    /// maintenance, which the next one reports as its recomputation.
    installed: bool,
}

/// Cloning detaches: the clone starts with private counters seeded with
/// the source's current values and no event sink, so two replicas holding
/// clones of one view account their maintenance independently.
impl Clone for MaterializedView {
    fn clone(&self) -> Self {
        let counters = ViewCounters::detached();
        counters.add(self.counters.snapshot());
        MaterializedView {
            expr: self.expr.clone(),
            opts: self.opts,
            removal: self.removal,
            state: self.state.clone(),
            counters,
            obs: Obs::new(),
            tracer: Tracer::detached(),
            name: self.name.clone(),
            last_decision: self.last_decision,
            installed: self.installed,
        }
    }
}

impl MaterializedView {
    /// Materialises `expr` at time `τ` and wraps it as a maintained view.
    ///
    /// `refresh` alone decides patching: under [`RefreshPolicy::Patch`] a
    /// root difference or aggregation gets a Theorem 3 patch queue and
    /// will never recompute, and `opts.patch_root` is overridden either
    /// way.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn new(
        expr: Expr,
        catalog: &dyn Bindings,
        tau: Time,
        opts: EvalOptions,
        refresh: RefreshPolicy,
        removal: RemovalPolicy,
    ) -> Result<Self> {
        let opts = EvalOptions {
            patch_root: refresh == RefreshPolicy::Patch,
            ..opts
        };
        let state = eval(&expr, catalog, tau, &opts)?;
        Ok(MaterializedView {
            expr,
            opts,
            removal,
            state,
            counters: ViewCounters::detached(),
            obs: Obs::new(),
            tracer: Tracer::detached(),
            name: "view".to_string(),
            last_decision: None,
            installed: false,
        })
    }

    /// Re-homes this view's counters into `obs`'s registry under
    /// `view.<name>.*` and routes its refresh/vacuum events to `obs`'s
    /// sink. Already-accumulated counts migrate. The engine calls this
    /// when it adopts a view; standalone views can stay detached.
    pub fn attach_obs(&mut self, obs: &Obs, name: &str) {
        let counters = ViewCounters::in_registry(obs.registry(), name);
        counters.add(self.counters.snapshot());
        self.counters = counters;
        self.obs = obs.clone();
        self.name = name.to_string();
    }

    /// Adopts the engine's [`Tracer`], so maintenance work appears as
    /// `view.maintain` spans (with the refresh decision as an attribute)
    /// nested under whatever engine span is open.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// The refresh decision taken by the most recent
    /// [`MaterializedView::maintain`]/[`MaterializedView::read`], if any —
    /// which Theorem (if any) saved the recomputation.
    #[must_use]
    pub fn last_decision(&self) -> Option<RefreshDecision> {
        self.last_decision
    }

    /// Materialises with default options and policies.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn with_defaults(expr: Expr, catalog: &dyn Bindings, tau: Time) -> Result<Self> {
        MaterializedView::new(
            expr,
            catalog,
            tau,
            EvalOptions::default(),
            RefreshPolicy::default(),
            RemovalPolicy::default(),
        )
    }

    /// The view's defining expression.
    #[must_use]
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// Whether the view is monotonic (never recomputes).
    #[must_use]
    pub fn is_monotonic(&self) -> bool {
        self.expr.is_monotonic()
    }

    /// The current expression expiration time `texp(e)`.
    #[must_use]
    pub fn texp(&self) -> Time {
        self.state.texp
    }

    /// Maintenance statistics: a cheap snapshot of the live counters.
    #[must_use]
    pub fn stats(&self) -> ViewStats {
        self.counters.snapshot()
    }

    /// Whether the view can serve time `τ` without touching the base
    /// relations: `τ < texp(e)`.
    ///
    /// For a patched root, `texp(e)` already excludes the critical tuples
    /// and the groups the queue holds (Theorem 3), but it still reflects
    /// invalidation flowing up from non-monotonic *subexpressions* of the
    /// arguments, so the check stays `τ < texp(e)` rather than "patched ⇒
    /// always fresh".
    #[must_use]
    pub fn fresh_at(&self, tau: Time) -> bool {
        self.state.fresh_at(tau)
    }

    /// Advances the view to time `τ` *without reading it*: applies due
    /// patches from the queue to the rows, performs eager removal, and —
    /// if the materialisation has expired — refreshes per policy. The
    /// first two are physical: neither changes what
    /// [`Materialized::rows_at`] answers at or after `τ`, and a view's
    /// clock only moves forward.
    /// Returns `true` if the view recomputed: here, from the base
    /// relations, or on a server whose state was installed since the last
    /// maintenance.
    ///
    /// # Errors
    ///
    /// Propagates recomputation errors.
    pub fn maintain(&mut self, catalog: &dyn Bindings, tau: Time) -> Result<bool> {
        let mut span = self.tracer.span("view.maintain");
        span.attr("view", &self.name);
        if let Some(t) = tau.finite() {
            span.at(t);
        }
        let mut recomputed = std::mem::take(&mut self.installed);
        let mut patched = 0u64;
        if let Some(q) = &mut self.state.patches {
            patched = q.apply_due(&mut self.state.rel, tau) as u64;
            self.counters.patches_applied.add(patched);
        }
        if !self.fresh_at(tau) {
            self.state = eval(&self.expr, catalog, tau, &self.opts)?;
            recomputed = true;
        }
        if recomputed {
            self.counters.recomputations.inc();
        }
        if self.removal == RemovalPolicy::Eager {
            self.counters
                .tuples_removed
                .add(self.state.rel.expire(tau).len() as u64);
        }
        let decision = if recomputed {
            RefreshDecision::Recompute
        } else if patched > 0 {
            RefreshDecision::PatchHit
        } else if self.is_monotonic() {
            RefreshDecision::Eternal
        } else {
            RefreshDecision::ValidityHit
        };
        self.last_decision = Some(decision);
        span.attr("decision", decision);
        span.attr("texp", self.state.texp);
        self.obs.emit_with(tau.finite(), || EventKind::ViewRefresh {
            view: self.name.clone(),
            decision,
            at: tau.finite().unwrap_or(u64::MAX),
        });
        Ok(recomputed)
    }

    /// Reads the view at time `τ`: maintains it, then serves the one read a
    /// materialisation has, [`Materialized::rows_at`]. The returned
    /// relation is exactly what a fresh evaluation of the expression at `τ`
    /// would produce (Theorems 1–3).
    ///
    /// # Errors
    ///
    /// Propagates recomputation errors.
    pub fn read(&mut self, catalog: &dyn Bindings, tau: Time) -> Result<Relation> {
        let recomputed = self.maintain(catalog, tau)?;
        self.counters.reads.inc();
        if !recomputed {
            self.counters.local_reads.inc();
        }
        Ok(self.state.rows_at(tau))
    }

    /// Forces a re-materialisation from the base relations, regardless of
    /// freshness. The engine calls this when base relations were *updated*
    /// (inserts/deletes), which is outside the paper's expiration-only
    /// maintenance model ("we … assume that there are no updates to the
    /// source data") — expiration keeps views fresh for free; updates cost
    /// a recomputation.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn force_refresh(&mut self, catalog: &dyn Bindings, tau: Time) -> Result<()> {
        let mut span = self.tracer.span("view.force_refresh");
        span.attr("view", &self.name);
        if let Some(t) = tau.finite() {
            span.at(t);
        }
        self.state = eval(&self.expr, catalog, tau, &self.opts)?;
        self.counters.recomputations.inc();
        self.last_decision = Some(RefreshDecision::Recompute);
        self.obs.emit_with(tau.finite(), || EventKind::ViewRefresh {
            view: self.name.clone(),
            decision: RefreshDecision::Recompute,
            at: tau.finite().unwrap_or(u64::MAX),
        });
        Ok(())
    }

    /// Installs `state` as the materialisation: this view's expression
    /// evaluated with its options, but not here — by the server a replica
    /// syncs with. Over a materialisation that covers no instant (no
    /// validity) the state is the view's first, a subscription. Over any
    /// other it is a refresh, which the next [`MaterializedView::maintain`]
    /// reports as its recomputation instead of evaluating, so
    /// `view.<name>.*` counts a shipped refresh as it counts a local one.
    pub fn install(&mut self, state: Materialized) {
        self.installed = !self.state.validity.is_empty();
        self.state = state;
    }

    /// Physically removes tuples expired at `τ` (the lazy policy's
    /// deferred cleanup — "expired tuples are kept invisible to the user,
    /// but may be removed physically in a delayed fashion"). Returns the
    /// removed rows so triggers can fire on them.
    pub fn vacuum(&mut self, tau: Time) -> Vec<(Tuple, Time)> {
        let removed = self.state.rel.expire(tau);
        self.counters.tuples_removed.add(removed.len() as u64);
        self.obs.emit_with(tau.finite(), || EventKind::VacuumPass {
            at: tau.finite().unwrap_or(u64::MAX),
            removed: removed.len() as u64,
        });
        removed
    }

    /// The number of physically stored tuples (visible or not).
    #[must_use]
    pub fn stored_len(&self) -> usize {
        self.state.rel.len()
    }

    /// Access to the underlying materialisation (validity intervals,
    /// patch queue, …).
    #[must_use]
    pub fn materialized(&self) -> &Materialized {
        &self.state
    }
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
    fn an_installed_refresh_counts_as_the_next_reads_recomputation() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let mut v = MaterializedView::with_defaults(e.clone(), &c, Time::ZERO).unwrap();
        // Over a state that covers nothing, an install is the view's first.
        v.install(Materialized {
            rel: Relation::new(v.materialized().rel.schema().clone()),
            at: Time::ZERO,
            texp: Time::ZERO,
            validity: crate::interval::IntervalSet::empty(),
            patches: None,
        });
        v.install(eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap());
        v.read(&c, t(1)).unwrap();
        assert_eq!((v.stats().recomputations, v.stats().local_reads), (0, 1));
        // Over a materialisation it is a refresh: the next read reports it
        // and evaluates nothing itself (the catalog has no such relations).
        v.install(eval(&e, &c, t(4), &EvalOptions::default()).unwrap());
        let rows = v.read(&Catalog::new(), t(4)).unwrap();
        assert!(rows.set_eq(&eval(&e, &c, t(4), &EvalOptions::default()).unwrap().rel));
        assert_eq!(v.last_decision(), Some(RefreshDecision::Recompute));
        let s = v.stats();
        assert_eq!((s.recomputations, s.reads, s.local_reads), (1, 2, 1));
        v.read(&Catalog::new(), t(4)).unwrap();
        assert_eq!(v.stats().local_reads, 2, "reported once");
    }

    #[test]
    fn monotonic_view_never_recomputes() {
        let c = catalog();
        let e = Expr::base("Pol").join(Expr::base("El"), Predicate::attr_eq_attr(0, 2));
        let mut v = MaterializedView::with_defaults(e.clone(), &c, Time::ZERO).unwrap();
        for now in 0..30 {
            let seen = v.read(&c, t(now)).unwrap();
            let fresh = eval(&e, &c, t(now), &EvalOptions::default()).unwrap();
            assert!(seen.set_eq(&fresh.rel.exp(t(now))), "at {now}");
        }
        assert_eq!(v.stats().recomputations, 0);
        assert_eq!(v.stats().reads, 30);
        assert_eq!(v.stats().local_reads, 30);
    }

    #[test]
    fn difference_view_recomputes_when_expired() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let mut v = MaterializedView::with_defaults(e.clone(), &c, Time::ZERO).unwrap();
        assert_eq!(v.texp(), t(3));
        // Reading before texp: local.
        v.read(&c, t(2)).unwrap();
        assert_eq!(v.stats().recomputations, 0);
        // Reading at/after texp: recomputes and stays correct.
        let seen = v.read(&c, t(3)).unwrap();
        assert_eq!(v.stats().recomputations, 1);
        assert!(seen.contains(&tuple![2]), "⟨2⟩ reappeared at 3");
        // Every later read matches a fresh evaluation.
        for now in 4..20 {
            let seen = v.read(&c, t(now)).unwrap();
            let fresh = eval(&e, &c, t(now), &EvalOptions::default()).unwrap();
            assert!(seen.set_eq(&fresh.rel.exp(t(now))), "at {now}");
        }
    }

    #[test]
    fn patched_difference_view_never_recomputes() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let mut v = MaterializedView::new(
            e.clone(),
            &c,
            Time::ZERO,
            EvalOptions::default(),
            RefreshPolicy::Patch,
            RemovalPolicy::Lazy,
        )
        .unwrap();
        assert_eq!(v.texp(), Time::INFINITY);
        for now in 0..25 {
            let seen = v.read(&c, t(now)).unwrap();
            let fresh = eval(&e, &c, t(now), &EvalOptions::default()).unwrap();
            assert!(seen.set_eq(&fresh.rel.exp(t(now))), "at {now}");
        }
        assert_eq!(v.stats().recomputations, 0, "Theorem 3");
        assert_eq!(v.stats().patches_applied, 2);
    }

    #[test]
    fn aggregate_view_recomputes_on_live_change_only() {
        let c = catalog();
        let e = Expr::base("Pol")
            .aggregate([1], AggFunc::Count)
            .project([1, 2]);
        let mut v = MaterializedView::with_defaults(e.clone(), &c, Time::ZERO).unwrap();
        assert_eq!(v.texp(), t(10));
        for now in 0..20 {
            let seen = v.read(&c, t(now)).unwrap();
            let fresh = eval(&e, &c, t(now), &EvalOptions::default()).unwrap();
            assert!(
                seen.set_eq(&fresh.rel.exp(t(now))),
                "at {now}: {seen:?} vs {:?}",
                fresh.rel.exp(t(now))
            );
        }
        // One recomputation at 10; the recomputed state (⟨25,1⟩@15) then
        // dies by pure expiration — no further recomputation needed even
        // though reads continue.
        assert_eq!(v.stats().recomputations, 1);
    }

    /// Figure 3(a) patched, in both forms: the 25-group is recomputed at
    /// 10 from ⟨2, 25⟩ alone, so the view never reads a base relation —
    /// here, an empty catalog — after it is built.
    #[test]
    fn patched_aggregate_view_never_recomputes() {
        let c = catalog();
        let klug = Expr::base("Pol").aggregate([1], AggFunc::Count);
        for e in [klug.clone(), klug.project([1, 2])] {
            let mut v = MaterializedView::new(
                e.clone(),
                &c,
                Time::ZERO,
                EvalOptions::default(),
                RefreshPolicy::Patch,
                RemovalPolicy::Lazy,
            )
            .unwrap();
            assert_eq!(v.texp(), Time::INFINITY);
            let stored = v.stored_len();
            for now in 0..20 {
                let seen = v.read(&Catalog::new(), t(now)).unwrap();
                let fresh = eval(&e, &c, t(now), &EvalOptions::default()).unwrap();
                assert!(seen.set_eq(&fresh.rel.exp(t(now))), "{e} at {now}");
                assert!(v.stored_len() <= stored, "the group's old rows go");
            }
            let s = v.stats();
            assert_eq!((s.recomputations, s.patches_applied), (0, 1), "{e}");
        }
    }

    /// The FLOAT slice {0.1, 0.2, −0.3} at 5 sums to 5.6e-17, and the value
    /// changes at 5: no FLOAT slice is neutral, so under the contributing
    /// rule too the group's rows expire at 5, its cut, where the queue
    /// recomputes it and serves it from then on.
    #[test]
    fn a_float_sum_group_is_patched_at_its_first_change() {
        let schema = Schema::of(&[("k", ValueType::Int), ("v", ValueType::Float)]);
        let rows = [(0.1, 5), (0.2, 5), (-0.3, 5), (1e-20, 10)];
        let rows = rows.map(|(v, e)| (tuple![0, v], t(e)));
        let mut c = Catalog::new();
        c.register("R", Relation::from_rows(schema, rows).unwrap());
        let opts = EvalOptions {
            agg_mode: crate::aggregate::AggMode::Contributing,
            ..EvalOptions::default()
        };
        let klug = Expr::base("R").aggregate([0], AggFunc::Sum(1));
        for e in [klug.clone(), klug.project([0, 2])] {
            let fresh = |now| eval(&e, &c, t(now), &opts).unwrap().rel.exp(t(now));
            let mut v = MaterializedView::new(
                e.clone(),
                &c,
                Time::ZERO,
                opts,
                RefreshPolicy::Patch,
                RemovalPolicy::Lazy,
            )
            .unwrap();
            let m = v.materialized().clone();
            assert!(m.rows_at(t(6)).set_eq(&fresh(6)), "{e} unmaintained");
            for now in 0..12 {
                let seen = v.read(&c, t(now)).unwrap();
                assert!(seen.set_eq(&fresh(now)), "{e} at {now}: {seen:?}");
            }
            assert_eq!(v.stats().recomputations, 0, "{e}");
        }
    }

    #[test]
    fn eager_removal_physically_deletes() {
        let c = catalog();
        let e = Expr::base("Pol").project([0, 1]);
        let mut v = MaterializedView::new(
            e,
            &c,
            Time::ZERO,
            EvalOptions::default(),
            RefreshPolicy::Recompute,
            RemovalPolicy::Eager,
        )
        .unwrap();
        assert_eq!(v.stored_len(), 3);
        v.maintain(&c, t(10)).unwrap();
        assert_eq!(v.stored_len(), 1, "eager: expired rows are gone");
        assert_eq!(v.stats().tuples_removed, 2);
    }

    #[test]
    fn lazy_removal_defers_until_vacuum() {
        let c = catalog();
        let e = Expr::base("Pol").project([0, 1]);
        let mut v = MaterializedView::with_defaults(e, &c, Time::ZERO).unwrap();
        v.maintain(&c, t(10)).unwrap();
        assert_eq!(v.stored_len(), 3, "lazy: physically still present");
        // But invisible to reads.
        assert_eq!(v.read(&c, t(10)).unwrap().len(), 1);
        let removed = v.vacuum(t(10));
        assert_eq!(removed.len(), 2);
        assert_eq!(v.stored_len(), 1);
        assert_eq!(v.stats().tuples_removed, 2);
    }

    #[test]
    fn attached_view_publishes_counters_and_events() {
        use exptime_obs::Obs;

        let c = catalog();
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let mut v = MaterializedView::with_defaults(e, &c, Time::ZERO).unwrap();
        v.read(&c, t(1)).unwrap(); // accumulates while detached

        let obs = Obs::new();
        let ring = obs.install_ring(64);
        v.attach_obs(&obs, "hot");
        assert_eq!(
            obs.registry().counter_value("view.hot.reads"),
            1,
            "pre-attach counts migrate"
        );

        v.read(&c, t(2)).unwrap(); // fresh: validity hit
        v.read(&c, t(3)).unwrap(); // texp=3: recompute
        assert_eq!(obs.registry().counter_value("view.hot.reads"), 3);
        assert_eq!(obs.registry().counter_value("view.hot.recomputations"), 1);
        assert_eq!(v.stats().reads, 3, "ViewStats snapshot sees the registry");
        assert_eq!(v.last_decision(), Some(RefreshDecision::Recompute));

        let events = ring.recent(10);
        let decisions: Vec<_> = events
            .iter()
            .filter_map(|ev| match &ev.kind {
                exptime_obs::EventKind::ViewRefresh { decision, .. } => Some(*decision),
                _ => None,
            })
            .collect();
        assert_eq!(
            decisions,
            vec![RefreshDecision::ValidityHit, RefreshDecision::Recompute]
        );
    }

    #[test]
    fn cloned_view_accounts_independently() {
        let c = catalog();
        let e = Expr::base("Pol").project([0, 1]);
        let mut v = MaterializedView::with_defaults(e, &c, Time::ZERO).unwrap();
        v.read(&c, t(1)).unwrap();
        let mut w = v.clone();
        assert_eq!(w.stats().reads, 1, "clone starts from current values");
        w.read(&c, t(2)).unwrap();
        assert_eq!(w.stats().reads, 2);
        assert_eq!(v.stats().reads, 1, "original unaffected by clone's reads");
    }

    #[test]
    fn view_exposes_expression_and_monotonicity() {
        let c = catalog();
        let e = Expr::base("Pol").select(Predicate::attr_eq_const(1, 25));
        let v = MaterializedView::with_defaults(e.clone(), &c, Time::ZERO).unwrap();
        assert_eq!(v.expr(), &e);
        assert!(v.is_monotonic());
        assert!(v.fresh_at(t(1_000)));
        assert!(v.materialized().patches.is_none());
    }
}
