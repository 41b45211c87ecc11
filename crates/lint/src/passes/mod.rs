//! The analyzer pass pipeline.
//!
//! [`AnalysisContext::build`] lowers the parsed workflow once (AST ->
//! [`AnalysisIr`], plus the compiled spec, the roofline model and the
//! simulator's makespan certificate when the spec is error-free), and
//! [`run`] feeds it to every pass:
//!
//! * [`structure`] — DAG shape: unreachable tasks (E009), redundant
//!   transitive `after` edges (W006);
//! * [`channels`] — shared-bandwidth reasoning: channels that can
//!   never saturate (W007), max-min starvation against the makespan
//!   target (W008);
//! * [`bounds`] — the simulator-exact two-sided certificate: targets
//!   inside the certified interval (W010), provably reducible channel
//!   capacity (W011), channel-independent lower bounds (W012), and
//!   targets infeasible under any channel provisioning (E010);
//! * [`makespan`] — the certificate's critical-path lower bound vs. the
//!   declared target (W009, suppressed when E010 makes the stronger
//!   statement).

pub mod bounds;
pub mod channels;
pub mod makespan;
pub mod structure;

use crate::diagnostics::Diagnostic;
use crate::ir::AnalysisIr;
use wrm_core::{Machine, RooflineModel};
use wrm_lang::ast::WorkflowAst;
use wrm_lang::{Compiled, TaskNames};
use wrm_sim::{certify, Certificate, SimOptions};

/// Which rules a lint run evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scope {
    /// Every rule: what `wrm lint` reports.
    All,
    /// Only the checks that can emit an error: the gate in front of
    /// `simulate`, `certify`, `analyze` and `sweep`.
    Errors,
}

/// Everything the passes share, built once per lint run.
pub struct AnalysisContext {
    /// The resolved target machine, when `on <machine>` names one.
    pub machine: Option<Machine>,
    /// The lowered workflow (always available post-parse).
    pub ir: AnalysisIr,
    /// The compiled spec with the fully expanded replica graph. `None`
    /// when the spec has error-severity diagnostics or fails to
    /// compile; semantic passes that need trustworthy structure gate
    /// on this.
    pub compiled: Option<Compiled>,
    /// The workflow's roofline model on `machine`, when it builds.
    /// Only warnings read it, so an errors-only run never builds it.
    pub model: Option<RooflineModel>,
    /// The two-sided makespan certificate of `compiled` on `machine`
    /// (default simulation options). `None` without both, or when the
    /// simulator rejects the scenario (e.g. an unknown resource,
    /// already surfaced as W001). An errors-only run builds it only
    /// when the spec declares a makespan target, which E010 checks.
    pub certificate: Option<Certificate>,
    /// The certificate of the lower envelope, where every distribution
    /// is replaced by the low end of its support: its lower bounds hold
    /// for every Monte-Carlo sample. Built only when the spec declares
    /// a makespan target and at least one distribution.
    pub lower_envelope: Option<Certificate>,
}

impl AnalysisContext {
    /// Lowers `ast` and, when `has_errors` is false, compiles it,
    /// builds the roofline model and certifies it.
    pub fn build(ast: &WorkflowAst, machine: Option<Machine>, has_errors: bool) -> Self {
        Self::build_in(Scope::All, ast, &TaskNames::new(ast), machine, has_errors)
    }

    /// [`AnalysisContext::build`] for the rules of `scope`, on `ast`'s
    /// task names as the lint run resolved them: under
    /// [`Scope::Errors`] it skips the roofline model, and the
    /// certificate too when no makespan target is declared.
    pub(crate) fn build_in(
        scope: Scope,
        ast: &WorkflowAst,
        names: &TaskNames,
        machine: Option<Machine>,
        has_errors: bool,
    ) -> Self {
        let ir = AnalysisIr::lower(ast, names, machine.as_ref());
        let compiled = if has_errors {
            None
        } else {
            wrm_lang::compile_with(ast, names).ok()
        };
        let mut ctx = Self {
            machine,
            ir,
            compiled,
            model: None,
            certificate: None,
            lower_envelope: None,
        };
        let (Some(m), Some(c)) = (&ctx.machine, &ctx.compiled) else {
            return ctx;
        };
        let all = scope == Scope::All;
        if all {
            ctx.model = c
                .characterization()
                .ok()
                .and_then(|wf| RooflineModel::build_lenient(m, &wf).ok());
        }
        if !all && ctx.ir.makespan.is_none() {
            return ctx;
        }
        let options = SimOptions::default();
        ctx.certificate = certify(m, &c.spec, &options).ok();
        let distributional = c.spec.tasks.iter().any(|t| !t.dists.is_empty());
        if ctx.certificate.is_some() && ctx.ir.makespan.is_some() && distributional {
            let envelope = wrm_sim::mc::envelope(&c.spec, false);
            ctx.lower_envelope = certify(m, &envelope, &options).ok();
        }
        ctx
    }
}

/// Runs every analyzer pass.
pub fn run(ast: &WorkflowAst, ctx: &AnalysisContext, out: &mut Vec<Diagnostic>) {
    structure::unreachable_tasks(ctx, out);
    structure::redundant_edges(ast, ctx, out);
    channels::unsaturable(ctx, out);
    channels::starved(ctx, out);
    let e010_fired = bounds::certified_interval(ctx, out);
    makespan::interval_bound(ctx, out, e010_fired);
}

/// Runs the passes that can emit an error: E009 and E010.
pub(crate) fn run_errors(ctx: &AnalysisContext, out: &mut Vec<Diagnostic>) {
    structure::unreachable_tasks(ctx, out);
    bounds::infeasible_target(ctx, out);
}

/// Human-readable bytes/s for diagnostics ("1.50 GB/s").
pub(crate) fn fmt_rate(v: f64) -> String {
    format!("{}/s", fmt_bytes(v))
}

/// Human-readable bytes for diagnostics ("1.00 TB").
pub(crate) fn fmt_bytes(v: f64) -> String {
    if !v.is_finite() {
        return "unbounded B".to_owned();
    }
    const STEPS: &[(f64, &str)] = &[
        (1e15, "PB"),
        (1e12, "TB"),
        (1e9, "GB"),
        (1e6, "MB"),
        (1e3, "KB"),
    ];
    for &(scale, unit) in STEPS {
        if v >= scale {
            return format!("{:.2} {unit}", v / scale);
        }
    }
    format!("{v:.0} B")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_format_with_si_prefixes() {
        assert_eq!(fmt_rate(1.5e9), "1.50 GB/s");
        assert_eq!(fmt_rate(1e12), "1.00 TB/s");
        assert_eq!(fmt_bytes(512.0), "512 B");
        assert_eq!(fmt_bytes(2.5e6), "2.50 MB");
        assert_eq!(fmt_bytes(f64::INFINITY), "unbounded B");
    }
}
