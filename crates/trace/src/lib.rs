//! # wrm-trace — lightweight workflow traces
//!
//! Phase-level spans ([`TraceSpan`]) collected into a [`Trace`], with the
//! aggregations the Workflow Roofline Model consumes: makespans, time
//! breakdowns (paper Fig. 5b / Fig. 10b), per-resource data volumes,
//! Darshan-like I/O digests, and conversion to a
//! [`wrm_core::WorkflowCharacterization`] via [`characterize()`].
//!
//! Traces serialize as JSON lines (`Trace::to_jsonl` /
//! `Trace::from_jsonl`) so simulated and imported runs share one format.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod characterize;
pub mod import;
pub mod span;
pub mod trace;

pub use characterize::{characterize, Structure};
pub use import::{trace_from_csv, trace_to_csv, ImportError};
pub use span::{SpanKind, TraceSpan};
pub use trace::{TimeBreakdown, Trace};
