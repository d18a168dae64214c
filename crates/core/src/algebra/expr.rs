//! The algebra expression AST.
//!
//! An [`Expr`] is a query: a tree of expiration-time algebra operators over
//! named base relations. Expressions are built with a fluent API
//! (`Expr::base("Pol").select(p).project([1])`), type-checked against a
//! [`Bindings`] via [`Expr::schema`], classified as monotonic or
//! non-monotonic (Section 2.5), and evaluated with [`super::eval::eval`].

use crate::aggregate::AggFunc;
use crate::catalog::Bindings;
use crate::error::{Error, Result};
use crate::predicate::Predicate;
use crate::schema::Schema;
use std::fmt;

/// An expiration-time algebra expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A named base relation.
    Base(String),
    /// `σexp_p(input)` — Equation 1.
    Select {
        /// Input expression.
        input: Box<Expr>,
        /// Selection predicate.
        predicate: Predicate,
    },
    /// `πexp_{j1,…,jn}(input)` — Equation 3 (zero-based positions).
    Project {
        /// Input expression.
        input: Box<Expr>,
        /// Zero-based attribute positions to keep.
        positions: Vec<usize>,
    },
    /// `left ×exp right` — Equation 2.
    Product {
        /// Left input.
        left: Box<Expr>,
        /// Right input.
        right: Box<Expr>,
    },
    /// `left ∪exp right` — Equation 4.
    Union {
        /// Left input.
        left: Box<Expr>,
        /// Right input.
        right: Box<Expr>,
    },
    /// `left ⋈exp_p right` — Equation 5 (derived). The predicate addresses
    /// the concatenated attributes.
    Join {
        /// Left input.
        left: Box<Expr>,
        /// Right input.
        right: Box<Expr>,
        /// Join predicate over the concatenated attributes.
        predicate: Predicate,
    },
    /// `left ∩exp right` — Equation 6 (derived).
    Intersect {
        /// Left input.
        left: Box<Expr>,
        /// Right input.
        right: Box<Expr>,
    },
    /// `left −exp right` — Equation 10 (non-monotonic).
    Difference {
        /// Left input.
        left: Box<Expr>,
        /// Right input.
        right: Box<Expr>,
    },
    /// `aggexp_{j1,…,jn,f}(input)` — Equation 8 (non-monotonic).
    Aggregate {
        /// Input expression.
        input: Box<Expr>,
        /// Zero-based grouping attribute positions (SQL `GROUP BY`).
        group_by: Vec<usize>,
        /// The aggregate function.
        func: AggFunc,
    },
}

impl Expr {
    /// A base relation reference.
    #[must_use]
    pub fn base(name: impl Into<String>) -> Expr {
        Expr::Base(name.into())
    }

    /// `σexp_p(self)`.
    #[must_use]
    pub fn select(self, predicate: Predicate) -> Expr {
        Expr::Select {
            input: Box::new(self),
            predicate,
        }
    }

    /// `πexp_{positions}(self)` (zero-based).
    #[must_use]
    pub fn project(self, positions: impl Into<Vec<usize>>) -> Expr {
        Expr::Project {
            input: Box::new(self),
            positions: positions.into(),
        }
    }

    /// `self ×exp other`.
    #[must_use]
    pub fn product(self, other: Expr) -> Expr {
        Expr::Product {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self ∪exp other`.
    #[must_use]
    pub fn union(self, other: Expr) -> Expr {
        Expr::Union {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self ⋈exp_p other`.
    #[must_use]
    pub fn join(self, other: Expr, predicate: Predicate) -> Expr {
        Expr::Join {
            left: Box::new(self),
            right: Box::new(other),
            predicate,
        }
    }

    /// `self ∩exp other`.
    #[must_use]
    pub fn intersect(self, other: Expr) -> Expr {
        Expr::Intersect {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self −exp other`.
    #[must_use]
    pub fn difference(self, other: Expr) -> Expr {
        Expr::Difference {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `aggexp_{group_by,func}(self)` (zero-based positions).
    #[must_use]
    pub fn aggregate(self, group_by: impl Into<Vec<usize>>, func: AggFunc) -> Expr {
        Expr::Aggregate {
            input: Box::new(self),
            group_by: group_by.into(),
            func,
        }
    }

    /// This node over `f` of each of its inputs (a `Base` has none): the
    /// one place an expression is taken apart and put back together, which
    /// every rewrite — the rule passes of [`crate::rewrite`], view inlining
    /// through [`Expr::map_bases`] — recurses through.
    #[must_use]
    pub fn map_inputs(&self, mut f: impl FnMut(&Expr) -> Expr) -> Expr {
        let mut over = |input: &Expr| Box::new(f(input));
        match self {
            Expr::Base(_) => self.clone(),
            Expr::Select { input, predicate } => Expr::Select {
                input: over(input),
                predicate: predicate.clone(),
            },
            Expr::Project { input, positions } => Expr::Project {
                input: over(input),
                positions: positions.clone(),
            },
            Expr::Product { left, right } => Expr::Product {
                left: over(left),
                right: over(right),
            },
            Expr::Union { left, right } => Expr::Union {
                left: over(left),
                right: over(right),
            },
            Expr::Join {
                left,
                right,
                predicate,
            } => Expr::Join {
                left: over(left),
                right: over(right),
                predicate: predicate.clone(),
            },
            Expr::Intersect { left, right } => Expr::Intersect {
                left: over(left),
                right: over(right),
            },
            Expr::Difference { left, right } => Expr::Difference {
                left: over(left),
                right: over(right),
            },
            Expr::Aggregate {
                input,
                group_by,
                func,
            } => Expr::Aggregate {
                input: over(input),
                group_by: group_by.clone(),
                func: *func,
            },
        }
    }

    /// The expression with every base reference `f` has a definition for
    /// replaced by it — how a catalog inlines its views.
    #[must_use]
    pub fn map_bases(&self, f: &impl Fn(&str) -> Option<Expr>) -> Expr {
        match self {
            Expr::Base(name) => f(name).unwrap_or_else(|| self.clone()),
            _ => self.map_inputs(|input| input.map_bases(f)),
        }
    }

    /// Infers and validates the result schema against a catalog. This is
    /// the static type check: every evaluation-time error except
    /// non-numeric aggregation data is caught here.
    ///
    /// # Errors
    ///
    /// Returns unknown-relation, out-of-range, or compatibility errors.
    pub fn schema(&self, catalog: &dyn Bindings) -> Result<Schema> {
        match self {
            Expr::Base(name) => catalog.schema(name),
            Expr::Select { input, predicate } => {
                let s = input.schema(catalog)?;
                predicate.validate(s.arity())?;
                Ok(s)
            }
            Expr::Project { input, positions } => input.schema(catalog)?.project(positions),
            Expr::Product { left, right } => {
                Ok(left.schema(catalog)?.product(&right.schema(catalog)?))
            }
            Expr::Join {
                left,
                right,
                predicate,
            } => {
                let s = left.schema(catalog)?.product(&right.schema(catalog)?);
                predicate.validate(s.arity())?;
                Ok(s)
            }
            Expr::Union { left, right }
            | Expr::Intersect { left, right }
            | Expr::Difference { left, right } => {
                let l = left.schema(catalog)?;
                let r = right.schema(catalog)?;
                if l.union_compatible(&r) {
                    Ok(l)
                } else {
                    Err(Error::NotUnionCompatible {
                        left: format!("{l:?}"),
                        right: format!("{r:?}"),
                    })
                }
            }
            Expr::Aggregate {
                input,
                group_by,
                func,
            } => {
                let s = input.schema(catalog)?;
                for &j in group_by {
                    if j >= s.arity() {
                        return Err(Error::AttributeOutOfRange {
                            index: j,
                            arity: s.arity(),
                        });
                    }
                }
                func.validate(s.arity())?;
                let input_ty = func.attribute().map(|i| s.attr(i).ty);
                Ok(s.append(&func.to_string(), func.result_type(input_ty)))
            }
        }
    }

    /// Whether the expression is monotonic (Section 2.5): composed solely
    /// of select, project, product, union, and the derived join and
    /// intersection. Monotonic expressions satisfy Theorem 1 — their
    /// materialised results stay valid forever under expiration
    /// (`texp(e) = ∞`) and never need recomputation.
    #[must_use]
    pub fn is_monotonic(&self) -> bool {
        match self {
            Expr::Base(_) => true,
            Expr::Select { input, .. } | Expr::Project { input, .. } => input.is_monotonic(),
            Expr::Product { left, right }
            | Expr::Union { left, right }
            | Expr::Join { left, right, .. }
            | Expr::Intersect { left, right } => left.is_monotonic() && right.is_monotonic(),
            Expr::Difference { .. } | Expr::Aggregate { .. } => false,
        }
    }

    /// The names of all base relations referenced, deduplicated, in
    /// first-reference order. The view manager uses this for dependency
    /// tracking.
    #[must_use]
    pub fn base_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        self.collect_bases(&mut names);
        names
    }

    fn collect_bases(&self, out: &mut Vec<String>) {
        match self {
            Expr::Base(n) => {
                if !out.iter().any(|m| m.eq_ignore_ascii_case(n)) {
                    out.push(n.clone());
                }
            }
            Expr::Select { input, .. }
            | Expr::Project { input, .. }
            | Expr::Aggregate { input, .. } => input.collect_bases(out),
            Expr::Product { left, right }
            | Expr::Union { left, right }
            | Expr::Join { left, right, .. }
            | Expr::Intersect { left, right }
            | Expr::Difference { left, right } => {
                left.collect_bases(out);
                right.collect_bases(out);
            }
        }
    }

    /// Number of operator nodes (excluding base references).
    #[must_use]
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Base(_) => 0,
            Expr::Select { input, .. }
            | Expr::Project { input, .. }
            | Expr::Aggregate { input, .. } => 1 + input.op_count(),
            Expr::Product { left, right }
            | Expr::Union { left, right }
            | Expr::Join { left, right, .. }
            | Expr::Intersect { left, right }
            | Expr::Difference { left, right } => 1 + left.op_count() + right.op_count(),
        }
    }

    /// Number of nodes, base references included. Each node computes its
    /// result's expiration time from its inputs' (Section 3 of the paper),
    /// so this is how many change points a statement over it evaluates.
    #[must_use]
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Base(_) => 1,
            Expr::Select { input, .. }
            | Expr::Project { input, .. }
            | Expr::Aggregate { input, .. } => 1 + input.node_count(),
            Expr::Product { left, right }
            | Expr::Union { left, right }
            | Expr::Join { left, right, .. }
            | Expr::Intersect { left, right }
            | Expr::Difference { left, right } => 1 + left.node_count() + right.node_count(),
        }
    }

    /// Number of non-monotonic operator nodes (aggregations and
    /// differences). Zero iff [`Expr::is_monotonic`].
    #[must_use]
    pub fn non_monotonic_count(&self) -> usize {
        match self {
            Expr::Base(_) => 0,
            Expr::Select { input, .. } | Expr::Project { input, .. } => input.non_monotonic_count(),
            Expr::Aggregate { input, .. } => 1 + input.non_monotonic_count(),
            Expr::Product { left, right }
            | Expr::Union { left, right }
            | Expr::Join { left, right, .. }
            | Expr::Intersect { left, right } => {
                left.non_monotonic_count() + right.non_monotonic_count()
            }
            Expr::Difference { left, right } => {
                1 + left.non_monotonic_count() + right.non_monotonic_count()
            }
        }
    }
}

impl fmt::Display for Expr {
    /// Renders the expression in the paper's notation, with one-based
    /// attribute positions: `πexp_{2,3}(aggexp_{{2},count}(Pol))`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Base(n) => write!(f, "{n}"),
            Expr::Select { input, predicate } => write!(f, "σexp[{predicate}]({input})"),
            Expr::Project { input, positions } => {
                write!(f, "πexp_{{")?;
                for (i, p) in positions.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", p + 1)?;
                }
                write!(f, "}}({input})")
            }
            Expr::Product { left, right } => write!(f, "({left} ×exp {right})"),
            Expr::Union { left, right } => write!(f, "({left} ∪exp {right})"),
            Expr::Join {
                left,
                right,
                predicate,
            } => write!(f, "({left} ⋈exp[{predicate}] {right})"),
            Expr::Intersect { left, right } => write!(f, "({left} ∩exp {right})"),
            Expr::Difference { left, right } => write!(f, "({left} −exp {right})"),
            Expr::Aggregate {
                input,
                group_by,
                func,
            } => {
                write!(f, "aggexp_{{{{")?;
                for (i, p) in group_by.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", p + 1)?;
                }
                write!(f, "}},{func}}}({input})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::relation::Relation;
    use crate::time::Time;
    use crate::tuple;
    use crate::value::ValueType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::of(&[("uid", ValueType::Int), ("deg", ValueType::Int)]);
        let mut pol = Relation::new(schema.clone());
        pol.insert(tuple![1, 25], Time::new(10)).unwrap();
        let el = Relation::new(schema);
        c.register("Pol", pol);
        c.register("El", el);
        c
    }

    #[test]
    fn builder_produces_expected_tree() {
        let e = Expr::base("Pol")
            .select(Predicate::attr_eq_const(1, 25))
            .project([0]);
        assert!(matches!(e, Expr::Project { .. }));
        assert_eq!(e.op_count(), 2);
    }

    #[test]
    fn schema_inference() {
        let c = catalog();
        assert_eq!(Expr::base("Pol").schema(&c).unwrap().arity(), 2);
        assert_eq!(
            Expr::base("Pol").project([1]).schema(&c).unwrap().arity(),
            1
        );
        assert_eq!(
            Expr::base("Pol")
                .product(Expr::base("El"))
                .schema(&c)
                .unwrap()
                .arity(),
            4
        );
        let agg = Expr::base("Pol").aggregate([1], AggFunc::Count);
        let s = agg.schema(&c).unwrap();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.attr(2).ty, ValueType::Int);
    }

    #[test]
    fn schema_errors() {
        let c = catalog();
        assert!(matches!(
            Expr::base("Nope").schema(&c),
            Err(Error::UnknownRelation(_))
        ));
        assert!(Expr::base("Pol").project([7]).schema(&c).is_err());
        assert!(Expr::base("Pol")
            .select(Predicate::attr_eq_attr(0, 5))
            .schema(&c)
            .is_err());
        assert!(Expr::base("Pol")
            .union(Expr::base("Pol").project([0]))
            .schema(&c)
            .is_err());
        assert!(Expr::base("Pol")
            .aggregate([9], AggFunc::Count)
            .schema(&c)
            .is_err());
        // Join predicate over the concatenated arity.
        assert!(Expr::base("Pol")
            .join(Expr::base("El"), Predicate::attr_eq_attr(0, 3))
            .schema(&c)
            .is_ok());
        assert!(Expr::base("Pol")
            .join(Expr::base("El"), Predicate::attr_eq_attr(0, 4))
            .schema(&c)
            .is_err());
    }

    #[test]
    fn monotonicity_classification() {
        let mono = Expr::base("Pol")
            .select(Predicate::True)
            .join(
                Expr::base("El").project([0, 1]),
                Predicate::attr_eq_attr(0, 2),
            )
            .intersect(Expr::base("Pol").product(Expr::base("El")));
        assert!(mono.is_monotonic());
        assert_eq!(mono.non_monotonic_count(), 0);

        let diff = Expr::base("Pol").difference(Expr::base("El"));
        assert!(!diff.is_monotonic());
        assert_eq!(diff.non_monotonic_count(), 1);

        let agg = Expr::base("Pol")
            .aggregate([1], AggFunc::Count)
            .project([1, 2]);
        assert!(!agg.is_monotonic());
        assert_eq!(agg.non_monotonic_count(), 1);

        let nested = diff.clone().union(agg);
        assert_eq!(nested.non_monotonic_count(), 2);
    }

    #[test]
    fn base_names_deduplicate() {
        let e = Expr::base("Pol")
            .difference(Expr::base("El"))
            .union(Expr::base("pol").project([0, 1]));
        assert_eq!(e.base_names(), vec!["Pol".to_string(), "El".to_string()]);
    }

    #[test]
    fn map_bases_rebuilds_every_operator_around_the_replaced_leaves() {
        // One node of each kind over `v`, which names π(Pol), and `El`.
        let v = || Expr::base("v");
        let e = v()
            .select(Predicate::True)
            .project([0, 1])
            .product(v())
            .union(Expr::base("El").join(v(), Predicate::attr_eq_attr(0, 2)))
            .intersect(v().difference(Expr::base("El")))
            .aggregate([0], AggFunc::Count);
        let definition = Expr::base("Pol").project([0, 1]);
        let inlined = e.map_bases(&|name| (name == "v").then(|| definition.clone()));
        assert_eq!(inlined.base_names(), ["Pol", "El"]);
        assert_eq!(inlined.op_count(), e.op_count() + 4, "a π per `v`");
        assert_eq!(inlined.node_count(), inlined.op_count() + 6, "ops + leaves");
        assert_eq!(
            inlined.to_string(),
            e.to_string().replace('v', &definition.to_string())
        );
        // Nothing to replace: the same expression.
        assert_eq!(e.map_bases(&|_| None), e);
    }

    #[test]
    fn display_matches_paper_notation() {
        let e = Expr::base("Pol")
            .aggregate([1], AggFunc::Count)
            .project([1, 2]);
        assert_eq!(e.to_string(), "πexp_{2,3}(aggexp_{{2},count}(Pol))");
        let d = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        assert_eq!(d.to_string(), "(πexp_{1}(Pol) −exp πexp_{1}(El))");
        let j = Expr::base("Pol").join(Expr::base("El"), Predicate::attr_eq_attr(0, 2));
        assert_eq!(j.to_string(), "(Pol ⋈exp[#1 = #3] El)");
    }
}
