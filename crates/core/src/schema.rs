//! Relation schemas: named, typed attributes.
//!
//! The paper's model is positional (attributes are numbered `1..α(R)`), but
//! the SQL layer and the engine need attribute names and types. A [`Schema`]
//! carries both; the algebra itself only ever consults positions.

use crate::error::{Error, Result};
use crate::tuple::Tuple;
use crate::value::ValueType;
use std::fmt;
use std::sync::Arc;

/// One attribute of a schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// Attribute name (case-preserving; lookups are case-insensitive).
    pub name: String,
    /// Attribute type.
    pub ty: ValueType,
}

impl Attribute {
    /// Creates an attribute.
    #[must_use]
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        Attribute {
            name: name.into(),
            ty,
        }
    }
}

/// A relation schema: an ordered list of named, typed attributes.
///
/// Schemas are immutable and cheaply cloneable.
#[derive(Clone, PartialEq, Eq)]
pub struct Schema {
    attrs: Arc<[Attribute]>,
}

impl Schema {
    /// Creates a schema from attributes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateAttribute`] if two attributes share a name
    /// (case-insensitively).
    pub fn new(attrs: Vec<Attribute>) -> Result<Self> {
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i]
                .iter()
                .any(|b| b.name.eq_ignore_ascii_case(&a.name))
            {
                return Err(Error::DuplicateAttribute(a.name.clone()));
            }
        }
        Ok(Schema {
            attrs: attrs.into(),
        })
    }

    /// Builds a schema from `(name, type)` pairs; panics on duplicates.
    /// Convenient in tests and examples.
    #[must_use]
    pub fn of(pairs: &[(&str, ValueType)]) -> Self {
        Schema::new(pairs.iter().map(|(n, t)| Attribute::new(*n, *t)).collect())
            .expect("duplicate attribute name")
    }

    /// The arity `α(R)`.
    #[inline]
    #[must_use]
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// All attributes in order.
    #[inline]
    #[must_use]
    pub fn attributes(&self) -> &[Attribute] {
        &self.attrs
    }

    /// The attribute at zero-based position `i`.
    #[must_use]
    pub fn attr(&self, i: usize) -> &Attribute {
        &self.attrs[i]
    }

    /// Finds the zero-based position of `name` (case-insensitive).
    #[must_use]
    pub fn position(&self, name: &str) -> Option<usize> {
        self.attrs
            .iter()
            .position(|a| a.name.eq_ignore_ascii_case(name))
    }

    /// Like [`Schema::position`] but returns an error naming the attribute.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownAttribute`] if no attribute matches.
    pub fn resolve(&self, name: &str) -> Result<usize> {
        self.position(name)
            .ok_or_else(|| Error::UnknownAttribute(name.to_string()))
    }

    /// Checks that a tuple matches this schema in arity and types.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArityMismatch`] or [`Error::TypeMismatch`].
    pub fn check(&self, tuple: &Tuple) -> Result<()> {
        if tuple.arity() != self.arity() {
            return Err(Error::ArityMismatch {
                expected: self.arity(),
                actual: tuple.arity(),
            });
        }
        for (i, a) in self.attrs.iter().enumerate() {
            let vt = tuple.attr(i).value_type();
            if vt != a.ty {
                return Err(Error::TypeMismatch {
                    attribute: a.name.clone(),
                    expected: a.ty,
                    actual: vt,
                });
            }
        }
        Ok(())
    }

    /// Schema of a projection onto zero-based `positions`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AttributeOutOfRange`] on a bad position.
    pub fn project(&self, positions: &[usize]) -> Result<Schema> {
        let mut attrs = Vec::with_capacity(positions.len());
        let mut seen: Vec<String> = Vec::new();
        for &j in positions {
            let a = self
                .attrs
                .get(j)
                .ok_or(Error::AttributeOutOfRange {
                    index: j,
                    arity: self.arity(),
                })?
                .clone();
            // Repeated or colliding projections get disambiguated names so
            // the result is still a valid schema.
            let mut name = a.name.clone();
            let mut k = 1;
            while seen.iter().any(|s| s.eq_ignore_ascii_case(&name)) {
                k += 1;
                name = format!("{}_{k}", a.name);
            }
            seen.push(name.clone());
            attrs.push(Attribute::new(name, a.ty));
        }
        Schema::new(attrs)
    }

    /// Schema of the Cartesian product `R ×exp S`: the concatenation of both
    /// attribute lists, right-hand names disambiguated on collision.
    #[must_use]
    pub fn product(&self, other: &Schema) -> Schema {
        let mut attrs: Vec<Attribute> = self.attrs.to_vec();
        for a in other.attrs.iter() {
            let mut name = a.name.clone();
            let mut k = 1;
            while attrs.iter().any(|b| b.name.eq_ignore_ascii_case(&name)) {
                k += 1;
                name = format!("{}_{k}", a.name);
            }
            attrs.push(Attribute::new(name, a.ty));
        }
        Schema::new(attrs).expect("product disambiguation produced duplicates")
    }

    /// Schema of an aggregation that appends aggregate attribute `name` of
    /// type `ty` to this schema (Equation 8 appends the aggregate value `a`).
    #[must_use]
    pub fn append(&self, name: &str, ty: ValueType) -> Schema {
        let mut attrs: Vec<Attribute> = self.attrs.to_vec();
        let mut n = name.to_string();
        let mut k = 1;
        while attrs.iter().any(|b| b.name.eq_ignore_ascii_case(&n)) {
            k += 1;
            n = format!("{name}_{k}");
        }
        attrs.push(Attribute::new(n, ty));
        Schema::new(attrs).expect("append disambiguation produced duplicates")
    }

    /// Whether two schemas are union-compatible in the paper's sense:
    /// `α(R) = α(S)` with pairwise equal attribute types. Names need not
    /// match (the paper's model is positional).
    #[must_use]
    pub fn union_compatible(&self, other: &Schema) -> bool {
        self.arity() == other.arity()
            && self
                .attrs
                .iter()
                .zip(other.attrs.iter())
                .all(|(a, b)| a.ty == b.ty)
    }

    /// Checks union compatibility ([`Schema::union_compatible`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotUnionCompatible`] when the schemas differ in
    /// arity or positional types.
    pub fn check_union_compatible(&self, other: &Schema) -> Result<()> {
        if self.union_compatible(other) {
            Ok(())
        } else {
            Err(Error::NotUnionCompatible {
                left: format!("{self:?}"),
                right: format!("{other:?}"),
            })
        }
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", a.name, a.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn uid_deg() -> Schema {
        Schema::of(&[("uid", ValueType::Int), ("deg", ValueType::Int)])
    }

    #[test]
    fn construction_rejects_duplicates() {
        let err = Schema::new(vec![
            Attribute::new("a", ValueType::Int),
            Attribute::new("A", ValueType::Str),
        ])
        .unwrap_err();
        assert!(matches!(err, Error::DuplicateAttribute(n) if n == "A"));
    }

    #[test]
    fn position_is_case_insensitive() {
        let s = uid_deg();
        assert_eq!(s.position("UID"), Some(0));
        assert_eq!(s.position("Deg"), Some(1));
        assert_eq!(s.position("nope"), None);
        assert!(s.resolve("nope").is_err());
        assert_eq!(s.resolve("deg").unwrap(), 1);
    }

    #[test]
    fn check_validates_arity_and_types() {
        let s = uid_deg();
        assert!(s.check(&tuple![1, 25]).is_ok());
        assert!(matches!(
            s.check(&tuple![1]).unwrap_err(),
            Error::ArityMismatch {
                expected: 2,
                actual: 1
            }
        ));
        assert!(matches!(
            s.check(&tuple![1, "x"]).unwrap_err(),
            Error::TypeMismatch { .. }
        ));
    }

    #[test]
    fn projection_schema_disambiguates_repeats() {
        let s = uid_deg();
        let p = s.project(&[1, 1]).unwrap();
        assert_eq!(p.arity(), 2);
        assert_eq!(p.attr(0).name, "deg");
        assert_eq!(p.attr(1).name, "deg_2");
        assert!(s.project(&[5]).is_err());
    }

    #[test]
    fn product_schema_disambiguates_collisions() {
        let s = uid_deg();
        let p = s.product(&s);
        assert_eq!(p.arity(), 4);
        assert_eq!(
            p.attributes()
                .iter()
                .map(|a| a.name.as_str())
                .collect::<Vec<_>>(),
            vec!["uid", "deg", "uid_2", "deg_2"]
        );
    }

    #[test]
    fn append_schema() {
        let s = uid_deg().append("count", ValueType::Int);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.attr(2).name, "count");
        let s2 = s.append("count", ValueType::Int);
        assert_eq!(s2.attr(3).name, "count_2");
    }

    #[test]
    fn union_compatibility_is_positional_and_typed() {
        let a = uid_deg();
        let b = Schema::of(&[("x", ValueType::Int), ("y", ValueType::Int)]);
        let c = Schema::of(&[("x", ValueType::Int), ("y", ValueType::Str)]);
        assert!(a.union_compatible(&b));
        assert!(!a.union_compatible(&c));
        assert!(!a.union_compatible(&Schema::of(&[("x", ValueType::Int)])));
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", uid_deg()), "(uid: INT, deg: INT)");
    }
}
