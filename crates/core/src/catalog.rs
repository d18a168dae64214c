//! The algebra's binding environment: named base relations.
//!
//! Algebra expressions reference base relations by name, and evaluating
//! one asks its environment exactly two questions — the schema of a name,
//! and the rows of a name visible at `τ`. [`Bindings`] is those two
//! questions; it hides *how* the rows are stored, and it answers the
//! second by *lending* each row to the caller, who copies the ones it
//! keeps: a selection has to look at every stored row but needs to own
//! only the survivors. [`Catalog`] is the in-memory answer (a map of
//! [`Relation`]s); the engine answers the same questions from its stored
//! tables, so a consistent read needs only a pinned `τ`, never a copy of
//! the data.

use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::time::Time;
use crate::tuple::Tuple;
use std::collections::BTreeMap;

/// What the algebra asks of the environment it is evaluated against.
///
/// Visibility is a pure function of `τ` (`expτ(R) = { r | texp_R(r) > τ }`),
/// so an implementation that is not mutated while an evaluation borrows
/// it *is* a snapshot at `τ`.
pub trait Bindings {
    /// The schema of base relation `name` (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownRelation`] if `name` is not bound.
    fn schema(&self, name: &str) -> Result<Schema>;

    /// Visits `expτ(name)`: lends `row` each tuple visible at `τ` with its
    /// expiration time, in stored order. `row` answers whether it kept
    /// (copied) the tuple, which is all an implementation may bill as
    /// copied; the return is how many physically present rows were skipped
    /// because they had expired.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownRelation`] if `name` is not bound.
    fn visit(
        &self,
        name: &str,
        tau: Time,
        row: &mut dyn FnMut(&Tuple, Time) -> bool,
    ) -> Result<usize>;
}

/// A name → relation binding environment.
///
/// Names are case-insensitive (stored lower-cased), matching the SQL layer.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    relations: BTreeMap<String, Relation>,
}

impl Catalog {
    /// An empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers (or replaces) a relation under `name`.
    pub fn register(&mut self, name: impl Into<String>, relation: Relation) {
        self.relations
            .insert(name.into().to_ascii_lowercase(), relation);
    }

    /// Looks up a relation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownRelation`] if `name` is not registered.
    pub fn get(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::UnknownRelation(name.to_string()))
    }

    /// Iterates `(name, relation)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.relations.iter().map(|(n, r)| (n.as_str(), r))
    }
}

impl Bindings for Catalog {
    fn schema(&self, name: &str) -> Result<Schema> {
        Ok(self.get(name)?.schema().clone())
    }

    fn visit(
        &self,
        name: &str,
        tau: Time,
        row: &mut dyn FnMut(&Tuple, Time) -> bool,
    ) -> Result<usize> {
        let stored = self.get(name)?;
        let mut visible = 0;
        for (t, e) in stored.iter_at(tau) {
            visible += 1;
            row(t, e);
        }
        Ok(stored.len() - visible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::ValueType;

    fn rel() -> Relation {
        let mut r = Relation::new(Schema::of(&[("a", ValueType::Int)]));
        r.insert(tuple![1], Time::new(5)).unwrap();
        r.insert(tuple![2], Time::INFINITY).unwrap();
        r
    }

    #[test]
    fn register_and_lookup_case_insensitive() {
        let mut c = Catalog::new();
        c.register("Pol", rel());
        assert_eq!(c.get("pOl").unwrap().len(), 2);
        assert_eq!(Bindings::schema(&c, "POL").unwrap().arity(), 1);
        assert!(matches!(c.get("el"), Err(Error::UnknownRelation(_))));
        assert!(matches!(
            c.visit("el", Time::ZERO, &mut |_, _| false),
            Err(Error::UnknownRelation(_))
        ));
    }

    #[test]
    fn visit_lends_exp_tau_in_stored_order_and_counts_what_it_skipped() {
        let mut c = Catalog::new();
        c.register("r", rel());
        let mut seen = Vec::new();
        let mut lend = |t: &Tuple, e: Time| {
            seen.push((t.clone(), e));
            true
        };
        assert_eq!(c.visit("R", Time::new(4), &mut lend).unwrap(), 0);
        assert_eq!(c.visit("r", Time::new(5), &mut lend).unwrap(), 1);
        assert_eq!(
            seen,
            vec![
                (tuple![1], Time::new(5)),
                (tuple![2], Time::INFINITY),
                (tuple![2], Time::INFINITY),
            ]
        );
    }

    #[test]
    fn iter_is_name_ordered() {
        let mut c = Catalog::new();
        c.register("zeta", rel());
        c.register("Alpha", rel());
        let names: Vec<_> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
