//! # wrm-lint — semantic static analysis for `.wrm` workflow specs
//!
//! Runs a registry of semantic rules over a parsed [`wrm_lang`]
//! workflow AST and the resolved machine model, producing stable-coded
//! [`Diagnostic`]s with source spans.
//!
//! Beyond the per-statement checks in [`rules`], the analyzer layer
//! lowers the workflow into a small IR ([`ir`]), runs structural and
//! shared-channel passes over it ([`passes`]), checks the declared
//! makespan target against the simulator's two-sided certificate
//! ([`wrm_sim::certify`]), and emits machine-applicable fix-its
//! ([`fixit`]) and SARIF 2.1.0 logs ([`sarif`]).

pub mod diagnostics;
pub mod fixit;
pub mod ir;
pub mod passes;
pub mod rules;
pub mod sarif;

pub use diagnostics::{Diagnostic, LineIndex, Severity, Span, SuggestedEdit};
pub use fixit::{apply as apply_fixes, collect_edits, FixOutcome};
pub use ir::AnalysisIr;
pub use rules::{
    lint_ast, lint_errors, lint_errors_with_context, lint_source, lint_source_with_context,
    lint_with_context, max_severity, rule, RuleInfo, RULES,
};
pub use sarif::{to_sarif, validate_sarif};
