//! The algebra's binding environment: named base relations.
//!
//! Algebra expressions reference base relations by name, and evaluating
//! one asks its environment exactly two questions — the schema of a name,
//! and the rows of a name visible at `τ`. [`Bindings`] is those two
//! questions; it hides *how* the rows are stored. [`Catalog`] is the
//! in-memory answer (a map of [`Relation`]s); the engine answers the same
//! questions from its stored tables, so a consistent read needs only a
//! pinned `τ`, never a copy of the data.

use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::time::Time;
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

    /// `expτ(name)`: the rows visible at `τ`, in stored order — plus how
    /// many physically present rows were skipped because they had expired.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownRelation`] if `name` is not bound.
    fn scan(&self, name: &str, tau: Time) -> Result<(Relation, usize)>;
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

    fn scan(&self, name: &str, tau: Time) -> Result<(Relation, usize)> {
        let stored = self.get(name)?;
        let rel = stored.exp(tau);
        let skipped = stored.len() - rel.len();
        Ok((rel, skipped))
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
            c.scan("el", Time::ZERO),
            Err(Error::UnknownRelation(_))
        ));
    }

    #[test]
    fn scan_is_exp_tau_and_counts_what_it_skipped() {
        let mut c = Catalog::new();
        c.register("r", rel());
        let (all, skipped) = c.scan("R", Time::new(4)).unwrap();
        assert_eq!((all.len(), skipped), (2, 0));
        let (live, skipped) = c.scan("r", Time::new(5)).unwrap();
        assert_eq!((live.len(), skipped), (1, 1));
        assert!(live.contains(&tuple![2]));
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
