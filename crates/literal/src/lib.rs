//! # exptime-literal — the paper read literally
//!
//! `exptime-core` evaluates an expression one way: kernels fed from the
//! rows their inputs lend, fused where the plan allows (`core::algebra`).
//! This crate is the other reading, the definitions as the paper prints
//! them, each over inputs built in full:
//!
//! * [`ops`] — Equations 1–6 and 10, Table 2's critical tuples and
//!   Equations 11–12: one function per operator over built relations.
//! * [`nu`] — χ and ν of Equation 9 for any deterministic aggregate
//!   function, read off the whole value timeline or walked tick by tick,
//!   and the validity intervals and change count of Section 3.4.1.
//! * [`interp`] — the interpreter that evaluates an `Expr` node by node
//!   through them, with `texp(e)` and `I(e)` derived from the same
//!   definitions.
//!
//! It is the oracle the evaluator is held to: the property tests compare
//! them, the figures and experiments print what the paper's equations
//! give, and the criterion benches use it as the baseline. No shipped
//! crate depends on it — only `exptime-bench` lists it under
//! `[dependencies]`, and the facade takes it as a dev-dependency — which
//! repolint R011 checks in every manifest.

#![forbid(unsafe_code)]

pub mod interp;
pub mod nu;
pub mod ops;

pub use interp::{inputs, literal, Literal};
