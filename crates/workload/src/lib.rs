//! # workload — seeded generators for the evaluation
//!
//! Parametric enterprises (policy graphs) and policy-aware client scripts,
//! deterministic by seed, and the [`Client`] that turns a script step into
//! the request an engine runs; used by the benchmarks (E2–E7), the
//! refinement ladder, the simulator and the examples.

#![warn(missing_docs)]

pub mod client;
pub mod enterprise;
pub mod trace;

pub use client::Client;
pub use enterprise::{generate as generate_enterprise, EnterpriseSpec};
pub use trace::{generate as generate_trace, Step};
