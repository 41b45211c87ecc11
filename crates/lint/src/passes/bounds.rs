//! The certification pass: W010/W011/W012/E010 over the simulator-exact
//! two-sided makespan certificate ([`wrm_sim::certify`]) that
//! [`AnalysisContext::build`] computes once per lint run.
//!
//! The certificate is built against the *simulator's* lowered form:
//! the same validation, the same per-phase semantics, and a finite
//! contention-aware upper bound. That buys statements a one-sided
//! bound cannot make:
//!
//! * **W010** — the declared makespan target falls *inside* the
//!   certified interval `[lo, hi)`: neither provably met nor provably
//!   missed. The report carries the full witness decomposition (chain,
//!   channel floors, pool floor, binding strengths) so the reader can
//!   see exactly which term to attack. The rendering is deterministic
//!   byte-for-byte across runs.
//! * **E010** — the target is below the certified lower bound *with
//!   every channel priced at zero*: no channel provisioning, however
//!   generous, can meet it. Strictly stronger than W009, which it
//!   suppresses. On a distributional spec the bound comes from the
//!   lower envelope ([`AnalysisContext::lower_envelope`]), so it holds
//!   for every Monte-Carlo sample.
//! * **W011** — an aggregate channel whose capacity can provably be
//!   reduced to the sum of its stream caps without moving either end of
//!   the certified interval: the provisioned headroom is dead. Proved by
//!   re-certifying on the reduced machine, not by heuristics.
//! * **W012** — zeroing every channel leaves the certified lower bound
//!   unchanged: the fixed-phase chain and node-pool occupancy alone
//!   force it, so channel capacity sweeps provably cannot help.

use super::{fmt_rate, AnalysisContext};
use crate::diagnostics::{Diagnostic, Span, SuggestedEdit};
use wrm_sim::{certify, Certificate, SimOptions};

/// Matches the engine-parity tolerance used by W007/W009.
const TOL: f64 = 1e-9;

/// Runs every certificate-backed rule. Returns `true` when E010 fired,
/// so the caller can suppress the weaker W009.
pub fn certified_interval(ctx: &AnalysisContext, out: &mut Vec<Diagnostic>) -> bool {
    let Some(cert) = &ctx.certificate else {
        return false;
    };
    channel_independent(ctx, cert, out);
    overprovisioned(ctx, cert, out);
    target_interval(ctx, cert, out)
}

/// W012: the certified lower bound survives zeroing every channel.
fn channel_independent(ctx: &AnalysisContext, cert: &Certificate, out: &mut Vec<Diagnostic>) {
    let Some(anchor) = first_flow_span(ctx) else {
        return; // no channel traffic: nothing to declare futile
    };
    if !(cert.lo.is_finite() && cert.lo > 0.0) {
        return;
    }
    if cert.lo_zero_channel < cert.lo * (1.0 - TOL) {
        return;
    }
    out.push(
        Diagnostic::warning(
            "W012",
            anchor,
            format!(
                "workflow is node-pool/chain-bound: with every channel infinitely fast the \
                 certified makespan lower bound is still {:.3}s (currently {:.3}s); channel \
                 capacity sweeps provably cannot help",
                cert.lo_zero_channel, cert.lo
            ),
        )
        .with_help(format!(
            "fixed phases force {:.3}s through the dependency chain and {:.3}s through \
             node-pool occupancy ({} nodes); cut compute/overhead volume or add nodes \
             instead of tuning bandwidth",
            cert.lo_zero_channel, cert.pool_floor_fixed, cert.pool_nodes
        )),
    );
}

/// W011: per aggregate channel, all streams capped and the caps sum
/// below capacity — and re-certifying on a machine scaled down to that
/// sum provably leaves both ends of the interval in place.
fn overprovisioned(ctx: &AnalysisContext, cert: &Certificate, out: &mut Vec<Diagnostic>) {
    let (Some(machine), Some(compiled)) = (&ctx.machine, &ctx.compiled) else {
        return;
    };
    let ir = &ctx.ir;
    for (ci, ch) in ir.channels.iter().enumerate() {
        if !ch.shared || ch.capacity <= 0.0 || !ch.capacity.is_finite() {
            continue;
        }
        let flows = ir.flows_on(ci);
        if flows.is_empty() || flows.iter().any(|(_, f)| !f.cap.is_finite()) {
            continue;
        }
        let cap_sum: f64 = flows
            .iter()
            .map(|&(ti, f)| f.cap * ir.tasks[ti].concurrent as f64)
            .sum();
        if cap_sum.is_nan() || cap_sum <= 0.0 || cap_sum >= ch.capacity * (1.0 - TOL) {
            continue;
        }
        let Ok(reduced) = machine.with_scaled_resource(&ch.id, cap_sum / ch.capacity) else {
            continue;
        };
        let Ok(again) = certify(&reduced, &compiled.spec, &SimOptions::default()) else {
            continue;
        };
        let unmoved = |a: f64, b: f64| (a - b).abs() <= a.abs() * TOL;
        if !(unmoved(cert.lo, again.lo) && unmoved(cert.hi, again.hi)) {
            continue;
        }
        let anchor = flows
            .iter()
            .map(|(_, f)| f.span)
            .min()
            .expect("non-empty flows");
        out.push(
            Diagnostic::warning(
                "W011",
                anchor,
                format!(
                    "channel `{}` is over-provisioned: reducing its capacity from {} to {} \
                     provably leaves the certified makespan interval [{:.3}s, {:.3}s] unchanged",
                    ch.id,
                    fmt_rate(ch.capacity),
                    fmt_rate(cap_sum),
                    cert.lo,
                    cert.hi
                ),
            )
            .with_help(format!(
                "every stream on `{}` is capped; the spare {} of bandwidth cannot be used \
                 by this workflow, so budget or procure against {} instead",
                ch.label,
                fmt_rate(ch.capacity - cap_sum),
                fmt_rate(cap_sum)
            )),
        );
    }
}

/// W010/E010 against the declared makespan target. Returns `true` when
/// E010 fired.
fn target_interval(ctx: &AnalysisContext, cert: &Certificate, out: &mut Vec<Diagnostic>) -> bool {
    let Some((target, target_span)) = declared_target(ctx) else {
        return false;
    };
    if infeasible(ctx, cert, target, target_span, out) {
        return true;
    }
    undetermined(cert, target, target_span, out);
    false
}

/// E010 alone, the one error this module emits: all that the error
/// gate ([`crate::lint_errors`]) needs from the certificate.
pub(crate) fn infeasible_target(ctx: &AnalysisContext, out: &mut Vec<Diagnostic>) {
    if let (Some(cert), Some((target, target_span))) = (&ctx.certificate, declared_target(ctx)) {
        infeasible(ctx, cert, target, target_span, out);
    }
}

/// The declared makespan target and its span, when it is positive.
fn declared_target(ctx: &AnalysisContext) -> Option<(f64, Span)> {
    ctx.ir.makespan.filter(|&(target, _)| target > 0.0)
}

/// E010: the target is below the zero-channel bound — infeasible under
/// ANY channel provisioning. Strictly stronger than W009's chain bound.
/// Returns `true` when it fired.
fn infeasible(
    ctx: &AnalysisContext,
    cert: &Certificate,
    target: f64,
    target_span: Span,
    out: &mut Vec<Diagnostic>,
) -> bool {
    let floor = ctx.lower_envelope.as_ref().unwrap_or(cert);
    if !(floor.lo_zero_channel.is_finite() && target < floor.lo_zero_channel * (1.0 - TOL)) {
        return false;
    }
    let mut diag = Diagnostic::error(
        "E010",
        target_span,
        format!(
            "makespan target {target}s is infeasible under any channel provisioning: \
             with every channel infinitely fast, fixed phases alone still need {:.3}s",
            floor.lo_zero_channel
        ),
    )
    .with_help(format!(
        "the zero-channel bound is max(fixed-phase chain, node-pool floor {:.3}s); \
         the full certified interval is [{:.3}s, {:.3}s]",
        floor.pool_floor_fixed, cert.lo, cert.hi
    ));
    if target_span.has_range() && cert.lo.is_finite() {
        let raised = format!("{}s", cert.lo.ceil());
        diag = diag.with_fix(SuggestedEdit::replace_span(
            target_span,
            raised.clone(),
            format!("raise the makespan target to {raised}"),
        ));
    }
    out.push(diag);
    true
}

/// W010: the target is inside the certified interval — undetermined.
/// Below `lo` is W009/E010 territory; at or above `hi` the target is
/// certified met and needs no diagnostic.
fn undetermined(cert: &Certificate, target: f64, target_span: Span, out: &mut Vec<Diagnostic>) {
    if cert.lo.is_finite() && target >= cert.lo * (1.0 - TOL) && target < cert.hi * (1.0 - TOL) {
        let witness = cert.cp_lo_witness.join(" -> ");
        let mut floors: Vec<String> = cert
            .channel_floors
            .iter()
            .map(|c| format!("`{}` {:.3}s", c.resource, c.floor))
            .collect();
        floors.push(format!("node pool {:.3}s", cert.pool_floor));
        let binding: Vec<String> = cert
            .terms
            .iter()
            .filter(|t| t.binds != "no")
            .map(|t| match &t.resource {
                Some(r) => format!("{} `{r}`={}", t.class, t.binds),
                None => format!("{}={}", t.class, t.binds),
            })
            .collect();
        out.push(
            Diagnostic::warning(
                "W010",
                target_span,
                format!(
                    "makespan target {target}s is undetermined: it falls inside the certified \
                     interval [{:.3}s, {:.3}s]",
                    cert.lo, cert.hi
                ),
            )
            .with_help(format!(
                "lower bound {:.3}s = max(chain {} = {:.3}s; floors: {}); upper bound {:.3}s \
                 = min(serial {:.3}s, chain {:.3}s + {:.3} node-s of contended work over \
                 {} nodes); binding terms: {}; raise the target to {:.3}s to certify it, or \
                 tighten the must-binding term",
                cert.lo,
                witness,
                cert.cp_lo,
                floors.join(", "),
                cert.hi,
                cert.serial_hi,
                cert.cp_hi,
                cert.work_hi,
                cert.pool_nodes - cert.max_task_nodes + 1,
                binding.join(", "),
                cert.hi
            )),
        );
    }
}

/// Span of the lexically first `system_bytes` phase in the file.
fn first_flow_span(ctx: &AnalysisContext) -> Option<Span> {
    ctx.ir
        .tasks
        .iter()
        .flat_map(|t| t.flows.iter())
        .filter(|f| f.bytes > 0.0)
        .map(|f| f.span)
        .min()
}
