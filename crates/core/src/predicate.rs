//! Selection predicates.
//!
//! The paper's selection (Equation 1) allows predicates of the form `j = k`
//! (a *correlated* comparison of two attributes of one tuple) or `j = a`
//! (an *uncorrelated* comparison with a constant `a ∈ D`), closed under
//! `∧` and `∨`. For practical use the library also supports the other
//! comparison operators and negation; [`Predicate::is_paper_fragment`]
//! reports whether a predicate stays inside the paper's fragment.
//!
//! Predicates never look at expiration times — `texp` is not an attribute
//! (the paper typesets it outside the relation schema precisely because it
//! is not user-accessible in queries).

use crate::error::{Error, Result};
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to an [`Ordering`].
    #[must_use]
    pub fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with its arguments swapped (`a op b ≡ b op.flip() a`).
    #[must_use]
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// One side of a comparison: a zero-based attribute position or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Attribute at zero-based position.
    Attr(usize),
    /// Constant from the domain `D`.
    Const(Value),
}

impl Operand {
    fn eval<'a>(&'a self, t: &'a Tuple) -> &'a Value {
        match self {
            Operand::Attr(i) => t.attr(*i),
            Operand::Const(v) => v,
        }
    }

    fn shifted(&self, by: usize) -> Operand {
        match self {
            Operand::Attr(i) => Operand::Attr(i + by),
            c => c.clone(),
        }
    }

    fn max_attr(&self) -> Option<usize> {
        match self {
            Operand::Attr(i) => Some(*i),
            Operand::Const(_) => None,
        }
    }
}

/// A selection predicate over a single tuple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// Always true (the identity selection).
    True,
    /// Always false (selects nothing).
    False,
    /// `left op right`.
    Cmp {
        /// Left operand.
        left: Operand,
        /// Comparison operator.
        op: CmpOp,
        /// Right operand.
        right: Operand,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation (outside the paper's fragment).
    Not(Box<Predicate>),
}

impl Predicate {
    /// The paper's correlated predicate `j = k` (zero-based positions).
    #[must_use]
    pub fn attr_eq_attr(j: usize, k: usize) -> Predicate {
        Predicate::Cmp {
            left: Operand::Attr(j),
            op: CmpOp::Eq,
            right: Operand::Attr(k),
        }
    }

    /// The paper's uncorrelated predicate `j = a`.
    #[must_use]
    pub fn attr_eq_const(j: usize, a: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            left: Operand::Attr(j),
            op: CmpOp::Eq,
            right: Operand::Const(a.into()),
        }
    }

    /// General comparison of an attribute against a constant.
    #[must_use]
    pub fn attr_cmp_const(j: usize, op: CmpOp, a: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            left: Operand::Attr(j),
            op,
            right: Operand::Const(a.into()),
        }
    }

    /// General comparison of two attributes.
    #[must_use]
    pub fn attr_cmp_attr(j: usize, op: CmpOp, k: usize) -> Predicate {
        Predicate::Cmp {
            left: Operand::Attr(j),
            op,
            right: Operand::Attr(k),
        }
    }

    /// `self ∧ other`.
    #[must_use]
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// `self ∨ other`.
    #[must_use]
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// `¬self`.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // builder-style, mirrors and/or
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Evaluates the predicate on a tuple. Comparison across types uses the
    /// total order of [`Value::total_cmp`], so evaluation never fails.
    #[must_use]
    pub fn eval(&self, t: &Tuple) -> bool {
        match self {
            Predicate::True => true,
            Predicate::False => false,
            Predicate::Cmp { left, op, right } => op.matches(left.eval(t).total_cmp(right.eval(t))),
            Predicate::And(a, b) => a.eval(t) && b.eval(t),
            Predicate::Or(a, b) => a.eval(t) || b.eval(t),
            Predicate::Not(a) => !a.eval(t),
        }
    }

    /// The largest attribute position referenced, if any.
    #[must_use]
    pub fn max_attr(&self) -> Option<usize> {
        match self {
            Predicate::True | Predicate::False => None,
            Predicate::Cmp { left, right, .. } => match (left.max_attr(), right.max_attr()) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            Predicate::And(a, b) | Predicate::Or(a, b) => match (a.max_attr(), b.max_attr()) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            },
            Predicate::Not(a) => a.max_attr(),
        }
    }

    /// The smallest attribute position referenced, if any.
    #[must_use]
    pub fn min_attr(&self) -> Option<usize> {
        match self {
            Predicate::True | Predicate::False => None,
            Predicate::Cmp { left, right, .. } => match (left.max_attr(), right.max_attr()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            Predicate::And(a, b) | Predicate::Or(a, b) => match (a.min_attr(), b.min_attr()) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, y) => x.or(y),
            },
            Predicate::Not(a) => a.min_attr(),
        }
    }

    /// Validates the predicate against a relation arity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AttributeOutOfRange`] if an attribute position is
    /// `≥ arity`.
    pub fn validate(&self, arity: usize) -> Result<()> {
        if let Some(m) = self.max_attr() {
            if m >= arity {
                return Err(Error::AttributeOutOfRange { index: m, arity });
            }
        }
        Ok(())
    }

    /// Shifts every attribute position up by `by`. Used to turn a join
    /// predicate `p` on the attributes of `S` into the "semantic equivalent
    /// `p′` on `R ×exp S`" of Equation 5.
    #[must_use]
    pub fn shift_attrs(&self, by: usize) -> Predicate {
        match self {
            Predicate::True => Predicate::True,
            Predicate::False => Predicate::False,
            Predicate::Cmp { left, op, right } => Predicate::Cmp {
                left: left.shifted(by),
                op: *op,
                right: right.shifted(by),
            },
            Predicate::And(a, b) => {
                Predicate::And(Box::new(a.shift_attrs(by)), Box::new(b.shift_attrs(by)))
            }
            Predicate::Or(a, b) => {
                Predicate::Or(Box::new(a.shift_attrs(by)), Box::new(b.shift_attrs(by)))
            }
            Predicate::Not(a) => Predicate::Not(Box::new(a.shift_attrs(by))),
        }
    }

    /// Whether the predicate stays in the paper's fragment: equality
    /// comparisons only, combined with `∧`/`∨` (no `¬`, no inequalities).
    #[must_use]
    pub fn is_paper_fragment(&self) -> bool {
        match self {
            Predicate::True | Predicate::False => true,
            Predicate::Cmp { op, .. } => *op == CmpOp::Eq,
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.is_paper_fragment() && b.is_paper_fragment()
            }
            Predicate::Not(_) => false,
        }
    }

    /// Whether the predicate references only attributes `< split` (i.e. only
    /// left-side attributes of a product of left arity `split`). The query
    /// rewriter uses this to decide push-down safety.
    #[must_use]
    pub fn only_refs_below(&self, split: usize) -> bool {
        self.max_attr().map_or(true, |m| m < split)
    }

    /// Whether the predicate references only attributes `>= split`.
    #[must_use]
    pub fn only_refs_at_or_above(&self, split: usize) -> bool {
        self.min_attr().map_or(true, |m| m >= split)
    }

    /// Rewrites attribute positions through a projection: attribute `i` in
    /// the projected relation corresponds to `positions[i]` in the input.
    /// Returns `None` if the predicate references an attribute the
    /// projection dropped — then it cannot be pushed below the projection.
    #[must_use]
    pub fn unproject(&self, positions: &[usize]) -> Option<Predicate> {
        let remap = |o: &Operand| -> Option<Operand> {
            match o {
                Operand::Attr(i) => positions.get(*i).map(|&j| Operand::Attr(j)),
                c => Some(c.clone()),
            }
        };
        match self {
            Predicate::True => Some(Predicate::True),
            Predicate::False => Some(Predicate::False),
            Predicate::Cmp { left, op, right } => Some(Predicate::Cmp {
                left: remap(left)?,
                op: *op,
                right: remap(right)?,
            }),
            Predicate::And(a, b) => Some(Predicate::And(
                Box::new(a.unproject(positions)?),
                Box::new(b.unproject(positions)?),
            )),
            Predicate::Or(a, b) => Some(Predicate::Or(
                Box::new(a.unproject(positions)?),
                Box::new(b.unproject(positions)?),
            )),
            Predicate::Not(a) => Some(Predicate::Not(Box::new(a.unproject(positions)?))),
        }
    }
}

/// One conjunct of a predicate, compiled once ([`Predicate::compile`]) so a
/// row is not tested by walking the predicate tree: an attribute compared
/// with a constant is one [`Value::total_cmp`] against the constant; any
/// other conjunct is left to [`Predicate::eval`], which stays the
/// definition.
#[derive(Debug)]
pub(crate) enum Test<'a> {
    /// `#col op k`.
    Cmp(usize, CmpOp, &'a Value),
    /// Anything else: an attribute against an attribute, `∨`, `¬`.
    Eval(&'a Predicate),
}

impl Test<'_> {
    /// Whether `t` passes, exactly as the conjunct's [`Predicate::eval`]
    /// says.
    #[inline]
    pub(crate) fn holds(&self, t: &Tuple) -> bool {
        match *self {
            Test::Cmp(col, op, k) => op.matches(t.attr(col).total_cmp(k)),
            Test::Eval(p) => p.eval(t),
        }
    }
}

impl Predicate {
    /// Flattens the predicate's top-level conjunction into [`Test`]s: a row
    /// satisfies the predicate exactly when it passes every test. A `true`
    /// conjunct yields no test, and a constant on the left is moved to the
    /// right by flipping the operator.
    pub(crate) fn compile(&self) -> Vec<Test<'_>> {
        fn flatten<'a>(p: &'a Predicate, out: &mut Vec<Test<'a>>) {
            out.push(match p {
                Predicate::True => return,
                Predicate::And(a, b) => {
                    flatten(a, out);
                    return flatten(b, out);
                }
                Predicate::Cmp {
                    left: Operand::Attr(col),
                    op,
                    right: Operand::Const(k),
                } => Test::Cmp(*col, *op, k),
                Predicate::Cmp {
                    left: Operand::Const(k),
                    op,
                    right: Operand::Attr(col),
                } => Test::Cmp(*col, op.flip(), k),
                _ => Test::Eval(p),
            });
        }
        let mut out = Vec::new();
        flatten(self, &mut out);
        out
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::False => write!(f, "false"),
            Predicate::Cmp { left, op, right } => {
                let fmt_op = |o: &Operand, f: &mut fmt::Formatter<'_>| match o {
                    Operand::Attr(i) => write!(f, "#{}", i + 1),
                    Operand::Const(v) => write!(f, "{v:?}"),
                };
                fmt_op(left, f)?;
                write!(f, " {op} ")?;
                fmt_op(right, f)
            }
            Predicate::And(a, b) => write!(f, "({a} ∧ {b})"),
            Predicate::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Predicate::Not(a) => write!(f, "¬{a}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn cmp_op_semantics() {
        use Ordering::{Equal, Greater, Less};
        assert!(CmpOp::Eq.matches(Equal) && !CmpOp::Eq.matches(Less));
        assert!(CmpOp::Ne.matches(Less) && !CmpOp::Ne.matches(Equal));
        assert!(CmpOp::Lt.matches(Less) && !CmpOp::Lt.matches(Equal));
        assert!(CmpOp::Le.matches(Equal) && !CmpOp::Le.matches(Greater));
        assert!(CmpOp::Gt.matches(Greater) && !CmpOp::Gt.matches(Equal));
        assert!(CmpOp::Ge.matches(Equal) && !CmpOp::Ge.matches(Less));
    }

    #[test]
    fn cmp_op_flip_roundtrip() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flip().flip(), op);
        }
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
    }

    #[test]
    fn paper_predicates_evaluate() {
        let t = tuple![1, 25, 1, 75];
        assert!(Predicate::attr_eq_attr(0, 2).eval(&t));
        assert!(!Predicate::attr_eq_attr(1, 3).eval(&t));
        assert!(Predicate::attr_eq_const(1, 25).eval(&t));
        assert!(!Predicate::attr_eq_const(1, 26).eval(&t));
    }

    #[test]
    fn boolean_connectives() {
        let t = tuple![1, 2];
        let p = Predicate::attr_eq_const(0, 1);
        let q = Predicate::attr_eq_const(1, 99);
        assert!(!p.clone().and(q.clone()).eval(&t));
        assert!(p.clone().or(q.clone()).eval(&t));
        assert!(q.clone().not().eval(&t));
        assert!(Predicate::True.eval(&t));
        assert!(!Predicate::False.eval(&t));
    }

    #[test]
    fn inequalities_use_total_order() {
        let t = tuple![5, 2.5];
        assert!(Predicate::attr_cmp_const(0, CmpOp::Gt, 4).eval(&t));
        assert!(Predicate::attr_cmp_const(1, CmpOp::Lt, 3.0).eval(&t));
        // Cross-type numeric comparison.
        assert!(Predicate::attr_cmp_attr(1, CmpOp::Lt, 0).eval(&t));
    }

    #[test]
    fn attr_range_tracking_and_validation() {
        let p = Predicate::attr_eq_attr(0, 3).and(Predicate::attr_eq_const(1, 5));
        assert_eq!(p.max_attr(), Some(3));
        assert_eq!(p.min_attr(), Some(0));
        assert!(p.validate(4).is_ok());
        assert!(matches!(
            p.validate(3),
            Err(Error::AttributeOutOfRange { index: 3, arity: 3 })
        ));
        assert_eq!(Predicate::True.max_attr(), None);
        assert!(Predicate::True.validate(0).is_ok());
    }

    #[test]
    fn shift_attrs_moves_references() {
        let p = Predicate::attr_eq_attr(0, 1).shift_attrs(2);
        assert!(p.eval(&tuple![9, 9, 7, 7]));
        assert!(!p.eval(&tuple![7, 7, 9, 8]));
        assert_eq!(
            Predicate::attr_eq_const(0, 1).shift_attrs(3).max_attr(),
            Some(3)
        );
    }

    #[test]
    fn paper_fragment_detection() {
        assert!(Predicate::attr_eq_attr(0, 1)
            .and(Predicate::attr_eq_const(0, 3))
            .is_paper_fragment());
        assert!(!Predicate::attr_cmp_const(0, CmpOp::Lt, 3).is_paper_fragment());
        assert!(!Predicate::attr_eq_const(0, 3).not().is_paper_fragment());
    }

    #[test]
    fn side_locality() {
        let left_only = Predicate::attr_eq_const(1, 5);
        let right_only = Predicate::attr_eq_const(3, 5);
        let both = Predicate::attr_eq_attr(0, 3);
        assert!(left_only.only_refs_below(2));
        assert!(!right_only.only_refs_below(2));
        assert!(right_only.only_refs_at_or_above(2));
        assert!(!both.only_refs_below(2));
        assert!(!both.only_refs_at_or_above(2));
        assert!(Predicate::True.only_refs_below(0));
    }

    #[test]
    fn unproject_through_projection() {
        // Projection keeps input attrs [2, 0]; predicate on projected #0
        // refers to input #2.
        let p = Predicate::attr_eq_const(0, 7);
        let up = p.unproject(&[2, 0]).unwrap();
        assert_eq!(up, Predicate::attr_eq_const(2, 7));
        // Reference past the projection width cannot be pushed down.
        assert!(Predicate::attr_eq_const(5, 7).unproject(&[2, 0]).is_none());
        // Connectives recurse.
        let c = Predicate::attr_eq_attr(0, 1).or(Predicate::True);
        assert_eq!(
            c.unproject(&[4, 2]).unwrap(),
            Predicate::attr_eq_attr(4, 2).or(Predicate::True)
        );
    }

    /// An attribute against a constant compiles to one comparison on
    /// either side of the operator; attribute pairs and `∨`/`¬` stay with
    /// `eval`, and `true` disappears.
    #[test]
    fn compile_flattens_constant_comparisons_and_leaves_the_rest_to_eval() {
        let flipped = Predicate::Cmp {
            left: Operand::Const(Value::Int(3)),
            op: CmpOp::Lt,
            right: Operand::Attr(0),
        };
        let p = flipped
            .and(Predicate::True)
            .and(Predicate::attr_cmp_const(1, CmpOp::Ge, 2.5))
            .and(Predicate::attr_eq_const(2, "x"))
            .and(Predicate::attr_eq_attr(0, 1))
            .and(Predicate::attr_eq_const(0, 1).or(Predicate::False));
        let kinds: Vec<_> = p
            .compile()
            .iter()
            .map(|test| match test {
                Test::Cmp(0, CmpOp::Gt, Value::Int(3)) => "flipped",
                Test::Cmp(1, CmpOp::Ge, _) => "float",
                Test::Cmp(2, CmpOp::Eq, _) => "str",
                Test::Eval(_) => "eval",
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(kinds, ["flipped", "float", "str", "eval", "eval"]);
        assert!(Predicate::True.compile().is_empty());
    }

    mod compiled {
        use super::*;
        use proptest::prelude::*;

        fn arb_int() -> impl Strategy<Value = Value> {
            (-2i64..3).prop_map(Value::Int)
        }

        /// Integral floats meet INT values; `-0.0` and NaN are folded by
        /// `Value::float`, and NaN sorts above `+∞`.
        fn arb_float() -> impl Strategy<Value = Value> {
            let xs = [-1.5, -0.0, 0.0, 1.0, 2.0, 2.5, f64::NAN, f64::INFINITY];
            (0..xs.len()).prop_map(move |i| Value::float(xs[i]))
        }

        fn arb_str() -> impl Strategy<Value = Value> {
            let xs = ["", "a", "ab", "b"];
            (0..xs.len()).prop_map(move |i| Value::str(xs[i]))
        }

        fn arb_value() -> impl Strategy<Value = Value> {
            prop_oneof![
                arb_int(),
                arb_float(),
                arb_str(),
                any::<bool>().prop_map(Value::Bool),
            ]
        }

        /// A row of INT, FLOAT, TEXT and BOOL columns, now and then with a
        /// value of another type than its column's, which the tests must
        /// judge as `eval` does.
        fn arb_row() -> impl Strategy<Value = Tuple> {
            let typed = (
                arb_int(),
                arb_float(),
                arb_str(),
                any::<bool>().prop_map(Value::Bool),
            )
                .prop_map(|(i, f, s, b)| vec![i, f, s, b]);
            let stray = (0usize..4, arb_value());
            (
                typed,
                prop_oneof![4 => Just(None), 1 => stray.prop_map(Some)],
            )
                .prop_map(|(mut values, stray)| {
                    if let Some((col, v)) = stray {
                        values[col] = v;
                    }
                    Tuple::new(values)
                })
        }

        fn arb_op() -> impl Strategy<Value = CmpOp> {
            let ops = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
            (0..ops.len()).prop_map(move |i| ops[i])
        }

        fn arb_operand() -> impl Strategy<Value = Operand> {
            prop_oneof![
                (0usize..4).prop_map(Operand::Attr),
                arb_value().prop_map(Operand::Const),
            ]
        }

        /// Comparisons with the constant on either side, of the column's
        /// type or another, between attributes or between constants,
        /// under `∧`, `∨` and `¬`.
        fn arb_predicate() -> impl Strategy<Value = Predicate> {
            let cmp = (arb_operand(), arb_op(), arb_operand())
                .prop_map(|(left, op, right)| Predicate::Cmp { left, op, right });
            let leaf =
                prop_oneof![6 => cmp, 1 => Just(Predicate::True), 1 => Just(Predicate::False)];
            leaf.prop_recursive(3, 16, 2, |inner| {
                prop_oneof![
                    3 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
                    1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
                    1 => inner.prop_map(Predicate::not),
                ]
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// `Predicate::eval` is the definition: a row passes the
            /// compiled tests exactly when it satisfies the predicate.
            #[test]
            fn compiled_tests_agree_with_eval(
                p in arb_predicate(),
                rows in proptest::collection::vec(arb_row(), 1..16),
            ) {
                let tests = p.compile();
                for row in &rows {
                    prop_assert_eq!(
                        tests.iter().all(|test| test.holds(row)),
                        p.eval(row),
                        "{} on {}", p, row
                    );
                }
            }
        }
    }

    #[test]
    fn display_renders_one_based() {
        let p = Predicate::attr_eq_attr(0, 2).and(Predicate::attr_eq_const(1, 25));
        assert_eq!(p.to_string(), "(#1 = #3 ∧ #2 = 25)");
        assert_eq!(
            Predicate::attr_cmp_const(0, CmpOp::Ge, 5).not().to_string(),
            "¬#1 >= 5"
        );
    }
}
