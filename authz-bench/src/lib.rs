//! `authz-bench`: end-to-end and per-layer benchmark for the OWTE
//! authorization stack. See README.md for the workloads, the metrics and
//! how they are expected to interact.

pub mod catalog;
pub mod fixture;
pub mod hist;
pub mod output;
pub mod probes;
pub mod run;
pub mod spans;
pub mod timed_storage;
pub mod tracegen;
pub mod workloads;
