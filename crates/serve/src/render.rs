//! Output assembly shared by the CLI and the server.
//!
//! Byte-identity between `wrm <cmd>` stdout and the corresponding
//! server response is a standing invariant of this workspace (it is
//! what makes the server a drop-in accelerator rather than a second
//! implementation to cross-validate). The invariant is enforced by
//! construction: both front ends call these functions, and neither
//! formats a result line on its own.
//!
//! Sweep rows render one at a time ([`sweep_row_csv`],
//! [`sweep_row_value`]) so the server can stream each row the moment
//! its column completes; the CLI simply concatenates them. Grid
//! construction ([`build_grid`]) owns the canonical axis order —
//! factors ascending, node limits with the full pool first, policies
//! with `fifo` first — so output bytes never depend on input order,
//! thread count, or engine.

use wrm_core::Machine;
use wrm_sim::{
    Certificate, McResult, Scenario, SchedulerPolicy, SimError, SimResult, SimSummary, SweepGrid,
    SweepPoint,
};
use wrm_trace::{characterize, Structure};

/// Display name of a scheduler policy, as used in sweep rows and CLI
/// flags.
#[must_use]
pub fn policy_name(p: SchedulerPolicy) -> &'static str {
    match p {
        SchedulerPolicy::Fifo => "fifo",
        SchedulerPolicy::Backfill => "backfill",
    }
}

/// Parses a policy name (the inverse of [`policy_name`]).
pub fn parse_policy(name: &str) -> Result<SchedulerPolicy, String> {
    match name.trim() {
        "fifo" => Ok(SchedulerPolicy::Fifo),
        "backfill" => Ok(SchedulerPolicy::Backfill),
        other => Err(format!(
            "unknown policy `{other}` (expected fifo or backfill)"
        )),
    }
}

/// One cell of a sweep grid, in output order.
#[derive(Debug, Clone, Copy)]
pub struct SweepCell {
    /// Contention factor applied to the swept resource.
    pub factor: f64,
    /// Scheduler node-pool limit (`None` = full pool).
    pub node_limit: Option<u64>,
    /// Scheduler policy.
    pub policy: SchedulerPolicy,
}

/// Builds the canonical sweep grid for a base scenario: checks the
/// resource against the machine, fills defaults from the scenario's
/// options, and sorts and dedups every axis into canonical order so
/// output bytes are independent of input order and repetition. That
/// factors come with a resource is the query's check
/// (`Query::from_flags`, `Query::from_json`), in each front end's
/// words; without one the factor axis changes nothing.
pub fn build_grid(
    base: &Scenario,
    resource: Option<String>,
    factors: &[f64],
    nodes: &[u64],
    policies: &[SchedulerPolicy],
) -> Result<SweepGrid, String> {
    if let Some(res) = &resource {
        shared_resource(&base.machine, res)?;
    }
    let mut factors = if factors.is_empty() {
        vec![1.0]
    } else {
        factors.to_vec()
    };
    let mut node_limits: Vec<Option<u64>> = if nodes.is_empty() {
        vec![base.options.node_limit]
    } else {
        nodes.iter().map(|&n| Some(n)).collect()
    };
    let mut policies = if policies.is_empty() {
        vec![base.options.scheduler]
    } else {
        policies.to_vec()
    };
    // Canonical coordinate order: output bytes must not depend on the
    // order axis values were given, the thread count, or the engine. A
    // repeated value names the same cells, so it is simulated and
    // printed once.
    factors.sort_unstable_by(f64::total_cmp);
    factors.dedup_by(|a, b| a.total_cmp(b).is_eq());
    node_limits.sort_unstable();
    node_limits.dedup();
    policies.sort_unstable_by_key(|p| match p {
        SchedulerPolicy::Fifo => 0,
        SchedulerPolicy::Backfill => 1,
    });
    policies.dedup();
    Ok(SweepGrid {
        resource,
        factors,
        node_limits,
        policies,
    })
}

/// Refuses `res` unless it is a shared resource of `machine`: the one
/// check behind a sweep's resource and a query's contention keys.
pub(crate) fn shared_resource(machine: &Machine, res: &str) -> Result<(), String> {
    match machine.system_resource(res) {
        Some(_) => Ok(()),
        None => Err(format!(
            "machine `{}` has no shared resource `{res}`",
            machine.name
        )),
    }
}

/// Cell metadata in `SweepGrid::index_of` order — the same nested
/// factor / node-limit / policy order both engines return results in.
#[must_use]
pub fn grid_cells(grid: &SweepGrid) -> Vec<SweepCell> {
    let mut cells = Vec::with_capacity(grid.len());
    for &factor in &grid.factors {
        for &node_limit in &grid.node_limits {
            for &policy in &grid.policies {
                cells.push(SweepCell {
                    factor,
                    node_limit,
                    policy,
                });
            }
        }
    }
    cells
}

/// The sweep CSV header row.
pub const SWEEP_CSV_HEADER: &str = "workflow,machine,resource,factor,node_limit,policy,\
                                    makespan_s,node_seconds,utilization,error\n";

/// Renders one sweep cell as a CSV row (with trailing newline). A row
/// reads only the cell's [`SweepPoint`], so `result` is either a
/// point or a full [`SimResult`] (taken through `SweepPoint::from`),
/// with the same bytes.
#[must_use]
pub fn sweep_row_csv<R>(
    workflow: &str,
    machine: &str,
    resource: &str,
    cell: &SweepCell,
    result: &Result<R, SimError>,
) -> String
where
    for<'r> SweepPoint: From<&'r R>,
{
    let node_limit = cell.node_limit.map(|n| n.to_string()).unwrap_or_default();
    let (makespan, node_seconds, utilization, error) = match result {
        Ok(r) => {
            let p = SweepPoint::from(r);
            (
                format!("{:.6}", p.makespan),
                format!("{:.3}", p.node_seconds),
                format!("{:.6}", p.utilization()),
                String::new(),
            )
        }
        Err(e) => (
            String::new(),
            String::new(),
            String::new(),
            e.to_string().replace(',', ";"),
        ),
    };
    format!(
        "{},{},{},{},{},{},{},{},{},{}\n",
        workflow,
        machine,
        resource,
        cell.factor,
        node_limit,
        policy_name(cell.policy),
        makespan,
        node_seconds,
        utilization,
        error
    )
}

/// Renders one sweep cell as a JSON row value; `result` as for
/// [`sweep_row_csv`].
#[must_use]
pub fn sweep_row_value<R>(
    workflow: &str,
    machine: &str,
    resource: &str,
    cell: &SweepCell,
    result: &Result<R, SimError>,
) -> serde_json::Value
where
    for<'r> SweepPoint: From<&'r R>,
{
    let (makespan, node_seconds, utilization, error) = match result {
        Ok(r) => {
            let p = SweepPoint::from(r);
            (
                serde_json::json!(p.makespan),
                serde_json::json!(p.node_seconds),
                serde_json::json!(p.utilization()),
                serde_json::Value::Null,
            )
        }
        Err(e) => (
            serde_json::Value::Null,
            serde_json::Value::Null,
            serde_json::Value::Null,
            serde_json::json!(e.to_string()),
        ),
    };
    serde_json::json!({
        "workflow": workflow,
        "machine": machine,
        "resource": resource,
        "factor": cell.factor,
        "node_limit": cell.node_limit,
        "policy": policy_name(cell.policy),
        "makespan_s": makespan,
        "node_seconds": node_seconds,
        "utilization": utilization,
        "error": error
    })
}

/// Assembles the buffered `--format json` sweep document (pretty array
/// plus trailing newline).
pub fn sweep_json(rows: Vec<serde_json::Value>) -> Result<String, String> {
    pretty(&rows)
}

/// A JSON document: pretty-printed, plus a trailing newline.
fn pretty(value: &impl serde::Serialize) -> Result<String, String> {
    let mut text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    text.push('\n');
    Ok(text)
}

/// The full `wrm simulate` report: makespan line, throughput, time
/// breakdown.
pub fn simulate_report(
    spec_name: &str,
    machine_name: &str,
    result: &SimResult,
    structure: &Structure,
) -> Result<String, String> {
    let mut out = format!(
        "{} on {}: makespan {:.2} s, {} tasks, {:.0} node-seconds \
         ({:.1}% pool utilization)\n",
        spec_name,
        machine_name,
        result.makespan,
        result.task_times.len(),
        result.node_seconds(),
        result.utilization() * 100.0
    );
    let wf = characterize(&result.trace, structure).map_err(|e| e.to_string())?;
    if let Ok(tps) = wf.throughput() {
        out.push_str(&format!("throughput: {:.4e} tasks/s\n", tps.get()));
    }
    out.push_str("\ntime breakdown:\n");
    let b = result.trace.breakdown();
    for (cat, secs) in &b.categories {
        out.push_str(&format!("  {cat:<24} {secs:>12.2} s\n"));
    }
    Ok(out)
}

/// The `wrm simulate --summary` report: streaming aggregates only.
#[must_use]
pub fn summary_report(spec_name: &str, machine_name: &str, sum: &SimSummary) -> String {
    let mut out = format!(
        "{} on {}: makespan {:.2} s, {} tasks, {} spans, {:.0} node-seconds \
         ({:.1}% pool utilization)\n",
        spec_name,
        machine_name,
        sum.makespan,
        sum.n_tasks,
        sum.n_spans,
        sum.node_seconds,
        sum.utilization() * 100.0
    );
    out.push_str("\nchannels:\n");
    for ch in &sum.channels {
        out.push_str(&format!(
            "  {:<12} busy {:>10.2} s  {:>12.3e} B  {:>8} flows\n",
            ch.resource, ch.busy, ch.bytes, ch.flows
        ));
    }
    out.push_str(&format!(
        "\ncritical-path tail ({} task(s){}):\n",
        sum.critical_tail_len,
        if sum.critical_tail_len > sum.critical_tail.len() {
            ", last 32 shown"
        } else {
            ""
        }
    ));
    for name in &sum.critical_tail {
        out.push_str(&format!("  {name}\n"));
    }
    out
}

/// Percentile label: `0.5 -> "p50"`, `0.99 -> "p99"`. Round-number
/// quantiles print without a fraction (note `0.99 * 100.0` is not
/// exactly 99 in binary).
fn percentile_label(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("p{:.0}", pct.round())
    } else {
        format!("p{pct}")
    }
}

/// The `wrm simulate --reps N` report: streamed makespan distribution
/// summary with the certified analytic bracket; `percentiles` adds the
/// order-statistic percentile table with confidence intervals
/// (`--percentiles` on the CLI, `"percentiles": true` on `POST
/// /v1/mc`). Shared verbatim by both front ends.
#[must_use]
pub fn mc_report(spec_name: &str, machine_name: &str, mc: &McResult, percentiles: bool) -> String {
    let mut out = format!(
        "{} on {}: {} Monte-Carlo replication(s) (seed {}), makespan mean {:.2} s\n",
        spec_name, machine_name, mc.reps, mc.seed, mc.mean
    );
    out.push_str(&format!(
        "sampled range [{:.2}, {:.2}] s, certified bracket [{:.2}, {:.2}] s\n",
        mc.min, mc.max, mc.bracket_lo, mc.bracket_hi
    ));
    if mc.degenerate {
        out.push_str(
            "all phase quantities are point-mass: one replication reproduces the \
             deterministic run\n",
        );
    }
    if percentiles {
        out.push_str("\npercentiles (95% CI via order statistics):\n");
        for p in &mc.percentiles {
            out.push_str(&format!(
                "  {:<4} {:>12.2} s  CI [{:.2}, {:.2}] s\n",
                percentile_label(p.q),
                p.value,
                p.ci_lo,
                p.ci_hi
            ));
        }
    }
    out
}

/// The `wrm certify` document: the certificate as pretty JSON plus a
/// trailing newline.
pub fn certificate_json(cert: &Certificate) -> Result<String, String> {
    pretty(cert)
}

/// Linted files: `(path, source, diagnostics)` each, the strings owned
/// (`wrm lint`'s files) or borrowed (a request's body).
pub type LintBatch<S = String> = [(S, S, Vec<wrm_lint::Diagnostic>)];

/// The `wrm lint` text report.
#[must_use]
pub fn lint_text<S: AsRef<str>>(batch: &LintBatch<S>) -> String {
    let mut out = String::new();
    let mut total_errors = 0;
    let mut total_warnings = 0;
    for (path, source, diags) in batch {
        let path = path.as_ref();
        if !diags.is_empty() {
            let lines = wrm_lint::LineIndex::new(source.as_ref());
            for d in diags {
                out.push_str(&format!("{}\n\n", d.render(&lines)));
            }
        }
        let errors = diags
            .iter()
            .filter(|d| d.severity == wrm_lint::Severity::Error)
            .count();
        let warnings = diags.len() - errors;
        total_errors += errors;
        total_warnings += warnings;
        if diags.is_empty() {
            out.push_str(&format!("{path}: clean\n"));
        } else {
            out.push_str(&format!(
                "{path}: {errors} error(s), {warnings} warning(s)\n"
            ));
        }
    }
    if batch.len() > 1 {
        out.push_str(&format!(
            "{} file(s): {total_errors} error(s), {total_warnings} warning(s)\n",
            batch.len()
        ));
    }
    out
}

/// The `wrm lint --format json` report. Each file carries its two-sided
/// makespan certification, `certificates[i]` for `batch[i]`: the lint
/// run's own certificate, present when the spec compiles error-free
/// onto a known machine and `null` otherwise (syntax errors, unknown
/// machines, invalid resources), so consumers can rely on the key
/// existing.
pub fn lint_json<S: AsRef<str>>(
    batch: &LintBatch<S>,
    certificates: &[Option<Certificate>],
) -> Result<String, String> {
    if batch.len() != certificates.len() {
        return Err(format!(
            "{} file(s) but {} certificate(s)",
            batch.len(),
            certificates.len()
        ));
    }
    let files: Vec<serde_json::Value> = batch
        .iter()
        .zip(certificates)
        .map(|((path, _, diags), cert)| {
            let cert = cert
                .as_ref()
                .and_then(|c| serde_json::to_value(c).ok())
                .unwrap_or(serde_json::Value::Null);
            serde_json::json!({
                "file": path.as_ref(),
                "diagnostics": diags,
                "certification": cert,
            })
        })
        .collect();
    pretty(&files)
}

/// The `wrm lint --format sarif` report.
pub fn lint_sarif<S: AsRef<str>>(batch: &LintBatch<S>) -> Result<String, String> {
    let files: Vec<(String, Vec<wrm_lint::Diagnostic>)> = batch
        .iter()
        .map(|(path, _, diags)| (path.as_ref().to_owned(), diags.clone()))
        .collect();
    pretty(&wrm_lint::to_sarif(&files))
}

#[cfg(test)]
mod tests {
    use super::{build_grid, grid_cells};
    use wrm_sim::{Scenario, SchedulerPolicy, WorkflowSpec};

    /// A repeated axis value names cells already on the grid: each axis
    /// keeps one copy, in canonical order.
    #[test]
    fn build_grid_dedups_repeated_axis_values() {
        let base = Scenario::new(
            wrm_core::machines::cori_haswell(),
            WorkflowSpec::new("empty"),
        );
        let grid = build_grid(
            &base,
            Some(wrm_core::ids::EXTERNAL.to_owned()),
            &[1.0, 1.0, 0.5, 1.0],
            &[64, 32, 64],
            &[
                SchedulerPolicy::Backfill,
                SchedulerPolicy::Fifo,
                SchedulerPolicy::Backfill,
            ],
        )
        .expect("valid grid");
        assert_eq!(grid.factors, [0.5, 1.0]);
        assert_eq!(grid.node_limits, [Some(32), Some(64)]);
        assert_eq!(
            grid.policies,
            [SchedulerPolicy::Fifo, SchedulerPolicy::Backfill]
        );
        assert_eq!(grid_cells(&grid).len(), 8);
    }
}
