//! Schrödinger's cat semantics: answering queries from possibly-invalid
//! materialisations (paper Sections 3.3–3.4).
//!
//! "A (materialised) expression is only required to contain correct values
//! when a user queries it." A materialisation whose single expiration time
//! has passed may nevertheless be perfectly correct *now* (e.g. a
//! difference after all critical tuples have expired). The validity
//! interval set `I(e)` captures exactly when; queries issued inside `I(e)`
//! are answered locally, and queries outside it can be
//!
//! * **recomputed** (base access),
//! * **moved backward in time** ("intuitively returning a slightly outdated
//!   result"), or
//! * **moved forward in time** ("intuitively delaying the query"),
//!
//! per a [`QueryPolicy`].

use crate::algebra::{eval, EvalOptions, Expr, Materialized};
use crate::catalog::Bindings;
use crate::error::Result;
use crate::relation::Relation;
use crate::time::Time;

/// What to do when a query time falls outside the materialisation's
/// validity intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPolicy {
    /// Recompute from the base relations.
    Recompute,
    /// Answer as of the latest valid instant `≤ τ` within `max_drift`,
    /// falling back to recomputation if none exists.
    MoveBackward {
        /// Maximum tolerated staleness in ticks.
        max_drift: u64,
    },
    /// Answer as of the earliest valid instant `≥ τ` within `max_delay`,
    /// falling back to recomputation if none exists.
    MoveForward {
        /// Maximum tolerated delay in ticks.
        max_delay: u64,
    },
    /// Refuse: return no relation (the caller handles unavailability —
    /// e.g. a disconnected replica with no link to the base data).
    Refuse,
}

/// How a query was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerKind {
    /// Served locally; the materialisation is valid at the query time.
    Local,
    /// Served locally as of an earlier instant (stale by `as_of < asked`).
    MovedBackward,
    /// Served locally as of a later instant (delayed).
    MovedForward,
    /// Recomputed from the base relations.
    Recomputed,
    /// Refused under [`QueryPolicy::Refuse`].
    Refused,
}

/// The outcome of answering a query against a materialisation.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// The answer relation; empty and meaningless when `kind` is
    /// [`AnswerKind::Refused`].
    pub rel: Relation,
    /// The instant the answer is correct for.
    pub as_of: Time,
    /// How the answer was produced.
    pub kind: AnswerKind,
}

impl QueryAnswer {
    /// Whether the answer required contacting the base relations.
    #[must_use]
    pub fn used_base(&self) -> bool {
        self.kind == AnswerKind::Recomputed
    }
}

/// Answers a query at time `τ` against a materialisation of `expr`:
/// inside the validity intervals from the materialisation itself, outside
/// them at the instant `policy` moves the query to, and from the base
/// relations when there is none within the policy's bound. Whatever the
/// instant, the rows are [`Materialized::rows_at`] of it.
///
/// # Errors
///
/// Propagates recomputation errors.
pub fn answer(
    m: &Materialized,
    expr: &Expr,
    catalog: &dyn Bindings,
    tau: Time,
    policy: QueryPolicy,
    opts: &EvalOptions,
) -> Result<QueryAnswer> {
    // Distance between two instants, `None` when either is `∞`.
    let apart = |a: Time, b: Time| Some(a.finite()?.abs_diff(b.finite()?));
    let moved = if m.valid_at(tau) {
        Some((tau, AnswerKind::Local))
    } else {
        match policy {
            QueryPolicy::Recompute => None,
            QueryPolicy::MoveBackward { max_drift } => m
                .covered_at(tau)
                .filter(|back| apart(tau, *back).is_some_and(|d| d <= max_drift))
                .map(|back| (back, AnswerKind::MovedBackward)),
            QueryPolicy::MoveForward { max_delay } => m
                .validity
                .next_covered(tau)
                .filter(|fwd| apart(*fwd, tau).is_some_and(|d| d <= max_delay))
                .map(|fwd| (fwd, AnswerKind::MovedForward)),
            QueryPolicy::Refuse => {
                return Ok(QueryAnswer {
                    rel: Relation::new(m.rel.schema().clone()),
                    as_of: tau,
                    kind: AnswerKind::Refused,
                })
            }
        }
    };
    Ok(match moved {
        Some((as_of, kind)) => QueryAnswer {
            rel: m.rows_at(as_of),
            as_of,
            kind,
        },
        None => QueryAnswer {
            rel: eval(expr, catalog, tau, opts)?.rel,
            as_of: tau,
            kind: AnswerKind::Recomputed,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::ValueType;

    fn t(v: u64) -> Time {
        Time::new(v)
    }

    /// Figure 1 / Figure 3 setting: the difference has holes [3, 15[.
    fn setting() -> (Catalog, Expr, Materialized) {
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
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let m = eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
        (c, e, m)
    }

    #[test]
    fn inside_validity_serves_locally() {
        let (c, e, m) = setting();
        let a = answer(
            &m,
            &e,
            &c,
            t(2),
            QueryPolicy::Refuse,
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(a.kind, AnswerKind::Local);
        assert_eq!(a.as_of, t(2));
        assert_eq!(a.rel.len(), 1);
        assert!(!a.used_base());
        // Far future: valid again (hole has closed).
        let a = answer(
            &m,
            &e,
            &c,
            t(20),
            QueryPolicy::Refuse,
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(a.kind, AnswerKind::Local);
        assert!(a.rel.is_empty(), "everything expired by 20");
    }

    #[test]
    fn recompute_policy_goes_to_base() {
        let (c, e, m) = setting();
        let a = answer(
            &m,
            &e,
            &c,
            t(5),
            QueryPolicy::Recompute,
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(a.kind, AnswerKind::Recomputed);
        assert!(a.used_base());
        assert_eq!(a.rel.len(), 3, "fresh at 5: ⟨1⟩,⟨2⟩,⟨3⟩");
    }

    #[test]
    fn move_backward_within_drift() {
        let (c, e, m) = setting();
        // τ=5 invalid; latest valid instant is 2.
        let a = answer(
            &m,
            &e,
            &c,
            t(5),
            QueryPolicy::MoveBackward { max_drift: 5 },
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(a.kind, AnswerKind::MovedBackward);
        assert_eq!(a.as_of, t(2));
        assert_eq!(a.rel.len(), 1);
    }

    #[test]
    fn move_backward_exceeding_drift_recomputes() {
        let (c, e, m) = setting();
        let a = answer(
            &m,
            &e,
            &c,
            t(9),
            QueryPolicy::MoveBackward { max_drift: 2 },
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(a.kind, AnswerKind::Recomputed);
    }

    #[test]
    fn move_forward_within_delay() {
        let (c, e, m) = setting();
        // τ=13 invalid; next valid instant is 15.
        let a = answer(
            &m,
            &e,
            &c,
            t(13),
            QueryPolicy::MoveForward { max_delay: 5 },
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(a.kind, AnswerKind::MovedForward);
        assert_eq!(a.as_of, t(15));
        // Moved-forward answers are checked against ground truth.
        let fresh = eval(&e, &c, t(15), &EvalOptions::default()).unwrap();
        assert!(a.rel.set_eq(&fresh.rel));
    }

    #[test]
    fn move_forward_exceeding_delay_recomputes() {
        let (c, e, m) = setting();
        let a = answer(
            &m,
            &e,
            &c,
            t(4),
            QueryPolicy::MoveForward { max_delay: 3 },
            &EvalOptions::default(),
        )
        .unwrap();
        // Next valid instant is 15, delay 11 > 3.
        assert_eq!(a.kind, AnswerKind::Recomputed);
    }

    #[test]
    fn refuse_returns_empty_marker() {
        let (c, e, m) = setting();
        let a = answer(
            &m,
            &e,
            &c,
            t(5),
            QueryPolicy::Refuse,
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(a.kind, AnswerKind::Refused);
        assert!(a.rel.is_empty());
    }

    #[test]
    fn moved_answers_match_ground_truth_everywhere_valid() {
        let (c, e, m) = setting();
        for now in 0..25 {
            let a = answer(
                &m,
                &e,
                &c,
                t(now),
                QueryPolicy::Recompute,
                &EvalOptions::default(),
            )
            .unwrap();
            let fresh = eval(&e, &c, t(now), &EvalOptions::default()).unwrap();
            assert!(
                a.rel.tuples_eq_at(&fresh.rel, t(now)),
                "answer at {now} diverges from truth"
            );
        }
    }
}
