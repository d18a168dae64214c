//! Attribute values.
//!
//! The paper abstracts the attribute domain as a single set `D`. For a
//! usable engine we provide integers, totally ordered floats, strings, and
//! booleans. Tuples must be usable as keys of hash maps and orderable for
//! sort-based operators, so [`Value`] implements `Eq + Ord + Hash`; floats
//! are wrapped in [`F64`], a total-order-by-bit-pattern wrapper.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An `f64` with a total order (IEEE-754 `totalOrder`-style) so that values
/// can be grouped, deduplicated, and sorted.
///
/// NaNs are normalised to a single canonical bit pattern on construction,
/// negative zero is normalised to positive zero, and comparison falls back
/// to the sign-corrected bit pattern, which orders `-∞ < … < 0 < … < +∞ <
/// NaN`.
#[derive(Clone, Copy)]
pub struct F64(f64);

impl F64 {
    /// Wraps a float, canonicalising NaN and `-0.0`.
    #[must_use]
    pub fn new(v: f64) -> Self {
        if v.is_nan() {
            F64(f64::NAN) // one canonical NaN
        } else if v == 0.0 {
            F64(0.0) // fold -0.0 into +0.0
        } else {
            F64(v)
        }
    }

    /// The wrapped float.
    #[inline]
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }

    fn order_key(self) -> u64 {
        let bits = self.0.to_bits();
        // Flip ordering for negatives so the integer order matches the
        // numeric order; NaN (exponent all-ones, nonzero mantissa, sign 0
        // after canonicalisation) lands above +∞.
        if bits >> 63 == 0 {
            bits | (1 << 63)
        } else {
            !bits
        }
    }
}

impl PartialEq for F64 {
    fn eq(&self, other: &Self) -> bool {
        self.order_key() == other.order_key()
    }
}
impl Eq for F64 {}

impl PartialOrd for F64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for F64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order_key().cmp(&other.order_key())
    }
}

impl Hash for F64 {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.order_key().hash(state);
    }
}

impl fmt::Debug for F64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<f64> for F64 {
    fn from(v: f64) -> Self {
        F64::new(v)
    }
}

/// The type of an attribute, used by schemas and the SQL layer for
/// type checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float with total order.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "INT"),
            ValueType::Float => write!(f, "FLOAT"),
            ValueType::Str => write!(f, "TEXT"),
            ValueType::Bool => write!(f, "BOOL"),
        }
    }
}

/// A single attribute value drawn from the domain `D`.
///
/// The paper deliberately excludes null values (Section 2.4: operators that
/// introduce new attribute values, such as outer joins, would require
/// three-valued logic); this library follows suit and has no null variant.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Float value with total order.
    Float(F64),
    /// String value; `Arc` keeps tuple cloning cheap.
    Str(Arc<str>),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// Convenience constructor for strings.
    #[must_use]
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Convenience constructor for floats.
    #[must_use]
    pub fn float(v: f64) -> Self {
        Value::Float(F64::new(v))
    }

    /// The dynamic type of this value.
    #[must_use]
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
            Value::Bool(_) => ValueType::Bool,
        }
    }

    /// Returns the integer if this is an `Int`.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float if this is a `Float`.
    #[must_use]
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(v.get()),
            _ => None,
        }
    }

    /// Returns the string if this is a `Str`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A numeric view of the value for aggregation: ints and floats have
    /// one, strings and booleans do not.
    #[must_use]
    pub fn as_numeric(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(v) => Some(v.get()),
            _ => None,
        }
    }

    /// Compares two values of possibly different types. Same-type values
    /// compare naturally; ints and floats compare numerically; otherwise the
    /// order is by type tag (Int/Float < Str < Bool). Total, so usable by
    /// sort-based operators without panicking on heterogeneous columns.
    #[must_use]
    #[inline]
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::{Bool, Float, Int, Str};
        // INT against INT as a plain branch before the type dispatch: a
        // scan's σ runs this once per row.
        if let (Int(a), Int(b)) = (self, other) {
            return a.cmp(b);
        }
        match (self, other) {
            (Float(a), Float(b)) => a.cmp(b),
            (Int(a), Float(b)) => F64::new(*a as f64).cmp(b),
            (Float(a), Int(b)) => a.cmp(&F64::new(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Int(_) | Value::Float(_) => 0,
            Value::Str(_) => 1,
            Value::Bool(_) => 2,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v:?}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            v => write!(f, "{v:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(F64::new(v))
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::RowState;
    use std::hash::BuildHasher;

    /// Hashed as every table in core and storage hashes it.
    fn hash_of<T: Hash>(v: &T) -> u64 {
        RowState::default().hash_one(v)
    }

    #[test]
    fn f64_total_order_matches_numeric_order() {
        let xs = [-f64::INFINITY, -2.5, -1.0, 0.0, 0.5, 2.0, f64::INFINITY];
        for w in xs.windows(2) {
            assert!(F64::new(w[0]) < F64::new(w[1]), "{} < {}", w[0], w[1]);
        }
    }

    #[test]
    fn f64_nan_is_canonical_and_maximal() {
        let a = F64::new(f64::NAN);
        let b = F64::new(-f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert!(a > F64::new(f64::INFINITY));
    }

    #[test]
    fn f64_negative_zero_equals_positive_zero() {
        assert_eq!(F64::new(-0.0), F64::new(0.0));
        assert_eq!(hash_of(&F64::new(-0.0)), hash_of(&F64::new(0.0)));
    }

    /// Equal values hash equal, and an `INT` and a `FLOAT` of one
    /// number stay apart: `Eq` tells them apart (only `total_cmp` does
    /// not), so the hash must too.
    #[test]
    fn hash_agrees_with_eq() {
        assert_eq!(hash_of(&Value::str("ab")), hash_of(&Value::str("ab")));
        assert_ne!(hash_of(&Value::str("ab")), hash_of(&Value::str("ba")));
        assert_eq!(hash_of(&Value::Bool(true)), hash_of(&Value::Bool(true)));
        assert_ne!(hash_of(&Value::Bool(true)), hash_of(&Value::Bool(false)));
        assert_eq!(hash_of(&Value::float(-0.0)), hash_of(&Value::float(0.0)));
        let nan = hash_of(&Value::float(f64::NAN));
        assert_eq!(nan, hash_of(&Value::float(-f64::NAN)));
        assert_ne!(Value::Int(2), Value::float(2.0));
        assert_ne!(hash_of(&Value::Int(2)), hash_of(&Value::float(2.0)));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_float(), None);
        assert_eq!(Value::float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
        assert_eq!(Value::Int(3).as_numeric(), Some(3.0));
        assert_eq!(Value::float(1.5).as_numeric(), Some(1.5));
        assert_eq!(Value::str("x").as_numeric(), None);
    }

    #[test]
    fn value_types() {
        assert_eq!(Value::Int(1).value_type(), ValueType::Int);
        assert_eq!(Value::float(1.0).value_type(), ValueType::Float);
        assert_eq!(Value::str("a").value_type(), ValueType::Str);
        assert_eq!(Value::Bool(false).value_type(), ValueType::Bool);
        assert_eq!(ValueType::Str.to_string(), "TEXT");
    }

    #[test]
    fn total_cmp_is_numeric_across_int_and_float() {
        assert_eq!(Value::Int(2).total_cmp(&Value::float(2.5)), Ordering::Less);
        assert_eq!(
            Value::float(3.0).total_cmp(&Value::Int(2)),
            Ordering::Greater
        );
        assert_eq!(Value::Int(2).total_cmp(&Value::float(2.0)), Ordering::Equal);
    }

    #[test]
    fn total_cmp_orders_across_types_by_rank() {
        assert_eq!(
            Value::Int(999).total_cmp(&Value::str("a")),
            Ordering::Less,
            "numbers sort before strings"
        );
        assert_eq!(
            Value::str("z").total_cmp(&Value::Bool(false)),
            Ordering::Less,
            "strings sort before booleans"
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::str("abc").to_string(), "abc");
        assert_eq!(format!("{:?}", Value::str("abc")), "\"abc\"");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(String::from("s")), Value::str("s"));
        assert_eq!(Value::from(2.0), Value::float(2.0));
    }
}
