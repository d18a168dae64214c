//! `EXPLAIN ANALYZE` support: [`eval_profiled`] runs the one evaluator
//! ([`eval`](crate::algebra::eval::eval)'s recursion) under a [`Probe`]
//! that records, per operator, rows in/out, expiration-filtered rows,
//! per-node `texp`, and elapsed wall time. The hot path runs the same
//! recursion under the no-op probe, so profiling costs nothing when not
//! requested and the two can never disagree.

use std::time::{Duration, Instant};

use exptime_obs::JsonValue;

use crate::algebra::eval::{eval_probed, EvalOptions, Materialized, Probe};
use crate::algebra::expr::Expr;
use crate::catalog::Bindings;
use crate::error::Result;
use crate::time::Time;

/// One operator's worth of `EXPLAIN ANALYZE` output, with its children.
#[derive(Debug, Clone)]
pub struct PlanProfile {
    /// Short operator label, e.g. `σ[deg = 25]` or `Base(Pol)`.
    pub label: String,
    /// Rows produced by this operator (visible at `τ`).
    pub rows_out: u64,
    /// Physically present rows this operator skipped because their
    /// expiration time had passed (`texp ≤ τ`). Non-zero only at `Base`
    /// leaves over storage that removes lazily, between vacuums.
    pub expired_filtered: u64,
    /// This node's expression expiration time `texp(e)`.
    pub texp: Time,
    /// Wall time spent in this operator *including* children.
    pub elapsed: Duration,
    /// Input subplans (0 for leaves, 1 for unary, 2 for binary operators).
    pub children: Vec<PlanProfile>,
}

impl PlanProfile {
    /// Rows flowing into this operator: the sum of child outputs.
    #[must_use]
    pub fn rows_in(&self) -> u64 {
        self.children.iter().map(|c| c.rows_out).sum()
    }

    /// Wall time spent in this operator *excluding* children.
    #[must_use]
    pub fn self_elapsed(&self) -> Duration {
        self.elapsed
            .checked_sub(self.children.iter().map(|c| c.elapsed).sum())
            .unwrap_or(Duration::ZERO)
    }

    /// Total operator count in the subtree (for summaries).
    #[must_use]
    pub fn node_count(&self) -> u64 {
        1 + self
            .children
            .iter()
            .map(PlanProfile::node_count)
            .sum::<u64>()
    }

    /// Renders the annotated plan tree, one operator per line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let texp = match self.texp.finite() {
            Some(t) => t.to_string(),
            None => "∞".to_string(),
        };
        out.push_str(&format!(
            "{}  rows={} (in {}, expired {})  texp={}  {:.1}µs\n",
            self.label,
            self.rows_out,
            self.rows_in(),
            self.expired_filtered,
            texp,
            self.self_elapsed().as_nanos() as f64 / 1_000.0,
        ));
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }

    /// The plan tree as JSON, one object per operator.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("operator".into(), JsonValue::String(self.label.clone())),
            ("rows_in".into(), JsonValue::Uint(self.rows_in())),
            ("rows_out".into(), JsonValue::Uint(self.rows_out)),
            (
                "expired_filtered".into(),
                JsonValue::Uint(self.expired_filtered),
            ),
            (
                "texp".into(),
                self.texp.finite().map_or(JsonValue::Null, JsonValue::Uint),
            ),
            (
                "elapsed_ns".into(),
                JsonValue::Uint(self.elapsed.as_nanos() as u64),
            ),
            (
                "children".into(),
                JsonValue::Array(self.children.iter().map(PlanProfile::to_json).collect()),
            ),
        ])
    }
}

fn label_of(expr: &Expr) -> String {
    match expr {
        Expr::Base(name) => format!("Base({name})"),
        Expr::Select { predicate, .. } => format!("σ[{predicate}]"),
        Expr::Project { positions, .. } => {
            let ps: Vec<String> = positions.iter().map(ToString::to_string).collect();
            format!("π[{}]", ps.join(","))
        }
        Expr::Product { .. } => "×".to_string(),
        Expr::Union { .. } => "∪".to_string(),
        Expr::Join { predicate, .. } => format!("⋈[{predicate}]"),
        Expr::Intersect { .. } => "∩".to_string(),
        Expr::Difference { .. } => "−".to_string(),
        Expr::Aggregate { group_by, func, .. } => {
            let gs: Vec<String> = group_by.iter().map(ToString::to_string).collect();
            format!("γ[{}; {func}]", gs.join(","))
        }
    }
}

/// The recording [`Probe`]: a stack of open operators, each collecting
/// the finished profiles of its inputs.
#[derive(Default)]
struct Recorder {
    open: Vec<(Instant, Vec<PlanProfile>)>,
    root: Option<PlanProfile>,
}

impl Probe for Recorder {
    fn enter(&mut self) {
        self.open.push((Instant::now(), Vec::new()));
    }

    fn leave(&mut self, expr: &Expr, rows_out: usize, expired_filtered: usize, texp: Time) {
        let (started, children) = self.open.pop().expect("leave pairs with enter");
        let node = PlanProfile {
            label: label_of(expr),
            rows_out: rows_out as u64,
            expired_filtered: expired_filtered as u64,
            texp,
            elapsed: started.elapsed(),
            children,
        };
        match self.open.last_mut() {
            Some((_, siblings)) => siblings.push(node),
            None => self.root = Some(node),
        }
    }
}

/// Materialises `expr` like [`eval`](crate::algebra::eval::eval) while
/// also producing an annotated per-operator [`PlanProfile`].
///
/// The returned materialisation is `eval`'s (same relation, `texp`,
/// validity, and patch queue): both run the same recursion.
///
/// # Errors
///
/// Returns the same errors as `eval`.
pub fn eval_profiled(
    expr: &Expr,
    catalog: &dyn Bindings,
    tau: Time,
    opts: &EvalOptions,
) -> Result<(Materialized, PlanProfile)> {
    let mut recorder = Recorder::default();
    let m = eval_probed(expr, catalog, tau, opts, &mut recorder)?;
    let profile = recorder.root.expect("the root operator was left");
    Ok((m, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::relation::Relation;
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
    fn profile_counts_rows_and_expired() {
        let c = catalog();
        // At τ=4, El has lost ⟨2,85⟩@3 and ⟨4,90⟩@2 to expiration.
        let e = Expr::base("El").project([0]);
        let (_, p) = eval_profiled(&e, &c, t(4), &EvalOptions::default()).unwrap();
        assert_eq!(p.label, "π[0]");
        assert_eq!(p.rows_out, 1);
        assert_eq!(p.rows_in(), 1);
        assert_eq!(p.children.len(), 1);
        let base = &p.children[0];
        assert_eq!(base.label, "Base(El)");
        assert_eq!(base.rows_out, 1);
        assert_eq!(base.expired_filtered, 2);
        assert_eq!(p.node_count(), 2);
    }

    #[test]
    fn profile_tracks_per_node_texp() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let (m, p) = eval_profiled(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
        assert_eq!(p.texp, t(3), "difference node carries Equation 11");
        assert_eq!(m.texp, t(3));
        assert!(p.children.iter().all(|c| c.texp.is_infinite()));
        let rendered = p.render();
        assert!(rendered.contains("−"), "{rendered}");
        assert!(rendered.contains("texp=3"), "{rendered}");
        assert!(rendered.contains("texp=∞"), "{rendered}");
    }

    #[test]
    fn profiled_patched_root_keeps_theorem_3() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let opts = EvalOptions {
            patch_root_difference: true,
            ..EvalOptions::default()
        };
        let (m, p) = eval_profiled(&e, &c, Time::ZERO, &opts).unwrap();
        assert_eq!(m.texp, Time::INFINITY, "Theorem 3");
        assert!(m.patches.is_some());
        assert_eq!(p.texp, Time::INFINITY, "profile reflects patched texp");
    }
}
