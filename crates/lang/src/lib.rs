//! # wrm-lang — a tiny workflow description language
//!
//! The paper obtains a workflow's structural metrics (task counts,
//! parallelism, node requirements) from its description — sbatch scripts
//! or WDL. This crate provides the equivalent for this reproduction: a
//! small declarative language that compiles to a simulator spec
//! (`wrm_sim::WorkflowSpec`, whose `to_dag` gives the planning DAG) and
//! a roofline characterization.
//!
//! ```text
//! workflow lcls on cori-hsw {
//!   targets { makespan 10min  throughput 6 per 600s }
//!   task analyze[5] {
//!     nodes 32
//!     system_bytes ext 1TB cap 1GB/s
//!     node_bytes dram 1024GB
//!   }
//!   task merge { nodes 1 system_bytes bb 5GB after analyze }
//! }
//! ```
//!
//! ```
//! let compiled = wrm_lang::compile_source(r#"
//!     workflow demo on pm-gpu {
//!       task step[4] { nodes 64 compute 10PFLOPS }
//!     }"#).unwrap();
//! assert_eq!(compiled.total_tasks, 4.0);
//! assert_eq!(compiled.parallel_tasks, 4.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod compile;
pub mod lexer;
pub mod names;
pub mod parser;
pub mod token;

pub use ast::{Span, WorkflowAst};
pub use compile::{compile, compile_source, compile_with, Compiled};
pub use names::TaskNames;
pub use parser::parse;
pub use token::LangError;
