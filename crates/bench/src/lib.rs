//! # exptime-bench
//!
//! Workload generators, paper figure/table regeneration, and the E1–E8
//! experiment harness (see DESIGN.md §5). Binaries:
//!
//! * `figures` — regenerates every figure and table of the paper from the
//!   running engine;
//! * `experiments` — runs the synthetic experiments and prints the report
//!   tables recorded in EXPERIMENTS.md;
//! * `netload` — drives a wire server with concurrent clients through
//!   [`experiments::wire_load`], the load E10-net drives too.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod figures;
pub mod workload;
