//! # exptime-bench
//!
//! Workload generators, paper figure/table regeneration, the E1–E11
//! experiment harness (see DESIGN.md §5), and the [`baseline`]
//! strategies E6 sets against the expiration-aware replica. Binaries:
//!
//! * `figures` — regenerates every figure and table of the paper from the
//!   running engine;
//! * `experiments` — runs the synthetic experiments and prints the report
//!   tables recorded in EXPERIMENTS.md;
//! * `netload` — drives a wire server with concurrent clients through
//!   [`experiments::wire_load`], the load E10-net drives too.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod experiments;
pub mod figures;
pub mod workload;
