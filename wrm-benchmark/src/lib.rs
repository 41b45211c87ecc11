//! # wrm-benchmark — the repository's end-to-end benchmark
//!
//! Four seeded workloads, from the one-shot CLI to an open-loop load on
//! a resident server, each measured end to end with tracing off, plus a
//! separate traced run that times the calls into each layer's public
//! functions. See README.md for the workloads, metrics and layer map.

pub mod compare;
pub mod emit;
pub mod host;
pub mod inputs;
pub mod loadgen;
pub mod metrics;
pub mod probe;
pub mod stats;
pub mod trace;
pub mod workloads;
