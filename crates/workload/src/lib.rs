//! # workload — seeded generators for the evaluation
//!
//! Parametric enterprises (policy graphs) and event traces, deterministic
//! by seed; used by the benchmarks (E2–E7), the equivalence property tests
//! and the examples.

#![warn(missing_docs)]

pub mod enterprise;
pub mod trace;

pub use enterprise::{generate as generate_enterprise, EnterpriseSpec};
pub use trace::{generate as generate_trace, Step, TraceSpec};
