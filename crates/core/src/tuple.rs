//! Tuples: elements of relations.
//!
//! A tuple `r` of arity `α(R)` is an element of `D^α(R)`. The paper numbers
//! attributes `1, …, α(R)`; Rust code indexes from zero, so this module
//! exposes zero-based [`Tuple::attr`] and also the paper-style one-based
//! [`Tuple::attr1`] used by the figure-regeneration code to read like the
//! paper's formulas.

use crate::value::Value;
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// An immutable tuple of attribute values.
///
/// Tuples are cheap to clone (`Arc` on the value slice) because the algebra
/// shares them freely between argument relations, partitions, materialised
/// results, and patch queues.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Creates a tuple from values.
    #[must_use]
    pub fn new(values: impl Into<Vec<Value>>) -> Self {
        Tuple {
            values: values.into().into(),
        }
    }

    /// The arity `α` of the tuple.
    #[inline]
    #[must_use]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Zero-based attribute access.
    ///
    /// # Panics
    ///
    /// Panics if `i >= arity`.
    #[inline]
    #[must_use]
    pub fn attr(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Paper-style one-based attribute access: `r(i)`, `i ∈ {1, …, α(R)}`.
    ///
    /// # Panics
    ///
    /// Panics if `i == 0` or `i > arity`.
    #[inline]
    #[must_use]
    pub fn attr1(&self, i: usize) -> &Value {
        assert!(i >= 1, "paper-style attribute indices start at 1");
        &self.values[i - 1]
    }

    /// Checked zero-based attribute access.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// All values, in attribute order.
    #[inline]
    #[must_use]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Projects the tuple onto the given zero-based attribute positions,
    /// producing `⟨r(j1), …, r(jn)⟩`. Positions may repeat or reorder.
    ///
    /// # Panics
    ///
    /// Panics if any position is out of range.
    #[must_use]
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple::new(
            positions
                .iter()
                .map(|&j| self.values[j].clone())
                .collect::<Vec<_>>(),
        )
    }

    /// Concatenates two tuples:
    /// `⟨r(1), …, r(α(R)), s(1), …, s(α(S))⟩` (the Cartesian-product tuple
    /// of Equation 2).
    #[must_use]
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.values);
        v.extend_from_slice(&other.values);
        Tuple::new(v)
    }

    /// Appends a single value, used by aggregation to attach the aggregate
    /// attribute `a` to `⟨r(1), …, r(α(R))⟩` (Equation 8).
    #[must_use]
    pub fn append(&self, value: Value) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + 1);
        v.extend_from_slice(&self.values);
        v.push(value);
        Tuple::new(v)
    }

    /// Splits a product tuple back into its left part of arity `left_arity`
    /// and its right remainder; used when recovering the argument tuples of
    /// `R ×exp S` to look up their expiration times.
    ///
    /// # Panics
    ///
    /// Panics if `left_arity > arity`.
    #[must_use]
    pub fn split(&self, left_arity: usize) -> (Tuple, Tuple) {
        assert!(left_arity <= self.arity());
        (
            Tuple::new(self.values[..left_arity].to_vec()),
            Tuple::new(self.values[left_arity..].to_vec()),
        )
    }
}

/// A tuple hashes and compares as its value slice, so a map keyed by
/// tuples can be probed with values gathered in a scratch buffer, without
/// building a tuple per probe (grouping does, once per input row).
impl Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.values
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:?}")?;
        }
        write!(f, "⟩")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<V: Into<Value>, const N: usize> From<[V; N]> for Tuple {
    fn from(vs: [V; N]) -> Self {
        Tuple::new(vs.into_iter().map(Into::into).collect::<Vec<_>>())
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(vs: Vec<Value>) -> Self {
        Tuple::new(vs)
    }
}

/// Builds a tuple from heterogeneous literals: `tuple![1, "a", 2.5]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = tuple![1, "a", 2.5, true];
        assert_eq!(t.arity(), 4);
        assert_eq!(t.attr(0), &Value::Int(1));
        assert_eq!(t.attr1(1), &Value::Int(1));
        assert_eq!(t.attr1(4), &Value::Bool(true));
        assert_eq!(t.get(4), None);
        assert_eq!(t.values().len(), 4);
    }

    #[test]
    #[should_panic(expected = "start at 1")]
    fn one_based_index_zero_panics() {
        let t = tuple![1];
        let _ = t.attr1(0);
    }

    #[test]
    fn projection_reorders_and_repeats() {
        let t = tuple![10, 20, 30];
        assert_eq!(t.project(&[2, 0]), tuple![30, 10]);
        assert_eq!(t.project(&[1, 1]), tuple![20, 20]);
        assert_eq!(t.project(&[]), Tuple::new(vec![]));
    }

    #[test]
    fn concat_and_split_roundtrip() {
        let r = tuple![1, 25];
        let s = tuple![1, 75];
        let rs = r.concat(&s);
        assert_eq!(rs, tuple![1, 25, 1, 75]);
        let (left, right) = rs.split(2);
        assert_eq!(left, r);
        assert_eq!(right, s);
    }

    #[test]
    fn append_adds_aggregate_attribute() {
        let t = tuple![1, 25];
        assert_eq!(t.append(Value::Int(2)), tuple![1, 25, 2]);
    }

    #[test]
    fn equality_and_hashing_are_structural() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(tuple![1, "a"]);
        assert!(set.contains(&tuple![1, "a"]));
        assert!(!set.contains(&tuple![1, "b"]));
        // … so a tuple can be looked up by a slice of values (`Borrow`).
        let by_slice = [Value::Int(1), Value::str("a")];
        assert!(set.contains(by_slice.as_slice()));
        assert!(!set.contains(&by_slice[..1]));
    }

    #[test]
    fn debug_uses_angle_brackets() {
        assert_eq!(format!("{:?}", tuple![1, 25]), "⟨1, 25⟩");
        assert_eq!(tuple![1, "x"].to_string(), "⟨1, \"x\"⟩");
    }

    #[test]
    fn from_array_and_vec() {
        let a: Tuple = [1, 2, 3].into();
        assert_eq!(a, tuple![1, 2, 3]);
        let b: Tuple = vec![Value::Int(1)].into();
        assert_eq!(b, tuple![1]);
    }
}
