//! W009: the certified critical-path lower bound vs. the makespan target.
//!
//! Reads `cp_lo` and its witness chain from the context's certificate
//! (the lower envelope's on a distributional spec, so the bound holds
//! for every Monte-Carlo sample). This is strictly stronger than W005's
//! aggregate roofline bound on heterogeneous multi-stage chains: the
//! roofline prices total volume against total bandwidth, while the
//! chain bound prices the *sequencing*.

use super::AnalysisContext;
use crate::diagnostics::{Diagnostic, SuggestedEdit};

/// Emits W009 when the critical-path lower bound provably exceeds the
/// makespan target. `suppressed` is set when E010 already made the
/// strictly stronger statement (infeasible even with channels zeroed),
/// so repeating the weaker chain bound would be noise.
pub fn interval_bound(ctx: &AnalysisContext, out: &mut Vec<Diagnostic>, suppressed: bool) {
    if suppressed {
        return;
    }
    let Some(cert) = ctx.lower_envelope.as_ref().or(ctx.certificate.as_ref()) else {
        return;
    };
    let Some((target, target_span)) = ctx.ir.makespan else {
        return;
    };
    if target <= 0.0 || target.is_nan() {
        return;
    }
    if !cert.cp_lo.is_finite() || target >= cert.cp_lo * (1.0 - 1e-9) {
        return;
    }
    let witness = cert.cp_lo_witness.join(" -> ");
    // The roofline bound may be even tighter; the fix-it raises the
    // target past both.
    let model_lb = ctx
        .model
        .as_ref()
        .and_then(wrm_core::RooflineModel::makespan_lower_bound)
        .map(wrm_core::Seconds::get)
        .filter(|lb| lb.is_finite());
    let mut help = format!(
        "interval analysis certifies the critical path takes [{:.3}, {:.3}] s \
         even with every channel to itself",
        cert.cp_lo, cert.cp_hi
    );
    if ctx.lower_envelope.is_some() {
        help.push_str(" and every distribution at the low end of its support");
    }
    if let Some(lb) = model_lb {
        let binding = ctx
            .model
            .as_ref()
            .and_then(|m| m.binding_ceiling())
            .map_or_else(|| "parallelism wall".to_owned(), |c| c.label.clone());
        help.push_str(&format!(
            "; the roofline lower bound is {lb:.3}s (binding ceiling: {binding})"
        ));
    }
    let certified = model_lb.map_or(cert.cp_lo, |lb| lb.max(cert.cp_lo));
    let mut diag = Diagnostic::warning(
        "W009",
        target_span,
        format!(
            "makespan target {target}s is infeasible: the dependency chain {witness} alone \
             needs at least {:.3}s",
            cert.cp_lo
        ),
    )
    .with_help(help);
    if target_span.has_range() && certified.is_finite() {
        let raised = format!("{}s", certified.ceil());
        diag = diag.with_fix(SuggestedEdit::replace_span(
            target_span,
            raised.clone(),
            format!("raise the makespan target to {raised}"),
        ));
    }
    out.push(diag);
}
