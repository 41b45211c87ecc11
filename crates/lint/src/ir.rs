//! Analysis IR: the lowered form of a workflow spec the pass pipeline
//! runs on.
//!
//! Lowering resolves each task's phases against the machine model into
//! a per-replica duration [`Interval`] (`lo` = the task alone on every
//! channel, exactly mirroring the simulator's ideal duration; `hi` =
//! every declared flow competing at once under max-min sharing), and
//! each `system_bytes` phase into a [`FlowIr`] on an interned
//! [`ChannelIr`]. The DAG structure (dependency edges between task
//! *groups*) is kept at the AST granularity so diagnostics can point
//! back at `after` statements; the structural passes that need the
//! fully expanded replica graph go through [`wrm_lang::compile()`]
//! instead.

use crate::diagnostics::Span;
use crate::interval::Interval;
use std::collections::BTreeMap;
use wrm_core::{Machine, SystemScaling};
use wrm_lang::ast::{PhaseAst, WorkflowAst};

/// One shared bandwidth channel (a machine system resource actually
/// used by the workflow).
#[derive(Debug, Clone)]
pub struct ChannelIr {
    /// Resource id (`ext`, `fs`, ...).
    pub id: String,
    /// Human-readable machine label ("System External", ...).
    pub label: String,
    /// Aggregate capacity in bytes/s (for per-node-in-use resources,
    /// the per-node peak; see `shared`).
    pub capacity: f64,
    /// True for fixed aggregate pools ([`SystemScaling::Aggregate`]),
    /// where concurrent flows genuinely compete. Per-node-in-use
    /// channels scale with the allocation and are never contended in
    /// the model.
    pub shared: bool,
    /// Number of flows that can be in flight at once across the whole
    /// workflow (replicas of a chained group count once).
    pub concurrent_flows: usize,
}

/// One task group's traffic on a channel (all `system_bytes` phases of
/// the group on that channel, merged).
#[derive(Debug, Clone)]
pub struct FlowIr {
    /// Index into [`AnalysisIr::channels`].
    pub channel: usize,
    /// Bytes moved by one replica.
    pub bytes: f64,
    /// Per-stream cap in bytes/s (`+inf` when uncapped); the minimum
    /// over the group's phases on this channel.
    pub cap: f64,
    /// Span of the first `system_bytes` phase on this channel.
    pub span: Span,
}

/// One dependency edge at AST granularity.
#[derive(Debug, Clone)]
pub struct DepIr {
    /// Index of the predecessor task group.
    pub target: usize,
    /// Specific replica, when the spec wrote `after name[i]`.
    pub index: Option<usize>,
    /// Span of the referenced name.
    pub span: Span,
    /// Span of the whole `after ...` statement.
    pub stmt_span: Span,
}

/// One task group (a `task` declaration, possibly replicated).
#[derive(Debug, Clone)]
pub struct TaskIr {
    /// Base name.
    pub name: String,
    /// Span of the task name.
    pub span: Span,
    /// Replica count (clamped to at least 1).
    pub count: usize,
    /// True when replicas run serially (`chain`).
    pub chain: bool,
    /// Nodes per replica.
    pub nodes: u64,
    /// Duration bounds for ONE replica.
    pub duration: Interval,
    /// Duration bounds for the group on the critical path: `duration`
    /// scaled by `count` when chained, else one replica (replicas run
    /// in parallel).
    pub serial: Interval,
    /// Replicas in flight at once (1 when chained).
    pub concurrent: usize,
    /// Dependency edges.
    pub deps: Vec<DepIr>,
    /// Traffic on shared channels.
    pub flows: Vec<FlowIr>,
}

/// The lowered workflow.
#[derive(Debug, Clone)]
pub struct AnalysisIr {
    /// Task groups in declaration order.
    pub tasks: Vec<TaskIr>,
    /// Interned channels.
    pub channels: Vec<ChannelIr>,
    /// Declared makespan target (seconds) and its span.
    pub makespan: Option<(f64, Span)>,
}

impl AnalysisIr {
    /// Lowers `ast` against `machine` (when resolved). Without a
    /// machine, durations collapse to zero and no channels are
    /// interned; the structural passes still work.
    pub fn lower(ast: &WorkflowAst, machine: Option<&Machine>) -> Self {
        let name_to_idx: BTreeMap<&str, usize> = ast
            .tasks
            .iter()
            .enumerate()
            .rev() // first declaration wins on duplicates
            .map(|(i, t)| (t.name.as_str(), i))
            .collect();

        // Pass 1: intern channels and collect flows, so pass 2 can
        // price worst-case contention with the full concurrency count.
        let mut channels: Vec<ChannelIr> = Vec::new();
        let mut chan_idx: BTreeMap<String, usize> = BTreeMap::new();
        let mut flows_per_task: Vec<Vec<FlowIr>> = Vec::with_capacity(ast.tasks.len());
        for task in &ast.tasks {
            let concurrent = if task.chain { 1 } else { task.count.max(1) };
            let mut flows: Vec<FlowIr> = Vec::new();
            for phase in &task.phases {
                let PhaseAst::SystemBytes {
                    resource,
                    bytes,
                    cap,
                    span,
                    ..
                } = phase
                else {
                    continue;
                };
                let Some(r) = machine.and_then(|m| m.system_resource(resource)) else {
                    continue;
                };
                let ci = *chan_idx.entry(resource.clone()).or_insert_with(|| {
                    channels.push(ChannelIr {
                        id: resource.clone(),
                        label: r.label.clone(),
                        capacity: r.peak.get(),
                        shared: r.scaling == SystemScaling::Aggregate,
                        concurrent_flows: 0,
                    });
                    channels.len() - 1
                });
                let cap = cap.unwrap_or(f64::INFINITY);
                match flows.iter_mut().find(|f| f.channel == ci) {
                    Some(f) => {
                        f.bytes += bytes.max(0.0);
                        f.cap = f.cap.min(cap);
                    }
                    None => {
                        channels[ci].concurrent_flows += concurrent;
                        flows.push(FlowIr {
                            channel: ci,
                            bytes: bytes.max(0.0),
                            cap,
                            span: (*span).into(),
                        });
                    }
                }
            }
            flows_per_task.push(flows);
        }

        // Pass 2: per-replica duration intervals.
        let tasks = ast
            .tasks
            .iter()
            .zip(flows_per_task)
            .map(|(task, flows)| {
                let count = task.count.max(1);
                let concurrent = if task.chain { 1 } else { count };
                let nodes = task.nodes.max(1);
                let mut duration = Interval::ZERO;
                for phase in &task.phases {
                    duration = duration + phase_bounds(phase, machine, nodes, &channels);
                }
                let serial = if task.chain {
                    duration.scale(count as f64)
                } else {
                    duration
                };
                let deps = task
                    .after
                    .iter()
                    .filter_map(|a| {
                        Some(DepIr {
                            target: *name_to_idx.get(a.name.as_str())?,
                            index: a.index,
                            span: a.span.into(),
                            stmt_span: a.stmt_span.into(),
                        })
                    })
                    .collect();
                TaskIr {
                    name: task.name.clone(),
                    span: task.span.into(),
                    count,
                    chain: task.chain,
                    nodes,
                    duration,
                    serial,
                    concurrent,
                    deps,
                    flows,
                }
            })
            .collect();

        AnalysisIr {
            tasks,
            channels,
            makespan: ast
                .targets
                .makespan
                .map(|t| (t, ast.targets.makespan_span.into())),
        }
    }

    /// Flows on `channel`, as `(task index, flow)` pairs in task order.
    pub fn flows_on(&self, channel: usize) -> Vec<(usize, &FlowIr)> {
        self.tasks
            .iter()
            .enumerate()
            .flat_map(|(ti, t)| t.flows.iter().map(move |f| (ti, f)))
            .filter(|(_, f)| f.channel == channel)
            .collect()
    }
}

/// Duration bounds of one phase of one replica. The `lo` end mirrors
/// `WorkflowSpec::ideal_task_duration` (the replica alone on every
/// channel); the `hi` end assumes every declared flow in the workflow
/// competes at once on shared channels.
fn phase_bounds(
    phase: &PhaseAst,
    machine: Option<&Machine>,
    nodes: u64,
    channels: &[ChannelIr],
) -> Interval {
    // A phase quantity written as a distribution call contributes its
    // whole support [lo, hi] instead of the point nominal, so interval
    // analysis stays sound for every Monte-Carlo sample. Invalid
    // distributions (E011) fall back to the nominal mean.
    let (q_lo, q_hi) = quantity_bounds(phase);
    let node_rate = |resource: &str, eff: f64| -> Interval {
        let Some(r) = machine.and_then(|m| m.node_resource(resource)) else {
            return Interval::ZERO;
        };
        if eff <= 0.0 || eff.is_nan() || q_hi <= 0.0 {
            return Interval::ZERO;
        }
        let rate = r.peak_per_node.magnitude() * nodes as f64 * eff;
        if rate > 0.0 {
            Interval::new(q_lo.max(0.0) / rate, q_hi / rate)
        } else {
            Interval::ZERO
        }
    };
    match phase {
        PhaseAst::Compute { eff, .. } => node_rate(wrm_core::ids::COMPUTE, *eff),
        PhaseAst::NodeBytes { resource, eff, .. } => node_rate(resource, *eff),
        PhaseAst::SystemBytes { resource, cap, .. } => {
            let Some(r) = machine.and_then(|m| m.system_resource(resource)) else {
                return Interval::ZERO;
            };
            if q_hi <= 0.0 {
                return Interval::ZERO;
            }
            let cap = cap.unwrap_or(f64::INFINITY);
            let agg = r.aggregate_for(nodes as f64).get();
            let alone = cap.min(agg);
            let lo = if alone > 0.0 {
                q_lo.max(0.0) / alone
            } else {
                f64::INFINITY
            };
            let contended = channels
                .iter()
                .find(|c| c.id == *resource)
                .filter(|c| c.shared && c.concurrent_flows > 1)
                .map_or(alone, |c| cap.min(c.capacity / c.concurrent_flows as f64));
            let hi = if contended > 0.0 {
                q_hi / contended
            } else {
                f64::INFINITY
            };
            Interval::new(lo, hi)
        }
        PhaseAst::Overhead { .. } => Interval::new(q_lo.max(0.0), q_hi.max(0.0)),
    }
}

/// The phase quantity's support: the distribution bounds when a valid
/// distribution call is attached, else the nominal point repeated.
fn quantity_bounds(phase: &PhaseAst) -> (f64, f64) {
    let nominal = match phase {
        PhaseAst::Compute { flops, .. } => *flops,
        PhaseAst::NodeBytes { bytes, .. } | PhaseAst::SystemBytes { bytes, .. } => *bytes,
        PhaseAst::Overhead { seconds, .. } => *seconds,
    };
    // An invalid empirical set makes the mean NaN; treat it as no
    // volume (E011 already reports the phase).
    let nominal = if nominal.is_finite() { nominal } else { 0.0 };
    match phase.dist() {
        Some(d) => {
            let dist = d.to_dist();
            if dist.validate().is_err() {
                return (nominal, nominal);
            }
            dist.bounds()
        }
        None => (nominal, nominal),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(src: &str) -> AnalysisIr {
        let ast = wrm_lang::parse(src).unwrap();
        let machine = ast.machine.as_deref().and_then(wrm_core::machines::by_name);
        AnalysisIr::lower(&ast, machine.as_ref())
    }

    #[test]
    fn lowers_the_lcls_shape() {
        let ir = lower(
            "workflow lcls on cori-hsw {
               targets { makespan 10min }
               task analyze[5] { nodes 32 system_bytes ext 1TB cap 1GB/s }
               task merge { nodes 1 system_bytes bb 5GB after analyze }
             }",
        );
        assert_eq!(ir.tasks.len(), 2);
        assert_eq!(ir.channels.len(), 2);
        let (t, _) = ir.makespan.unwrap();
        assert_eq!(t, 600.0);
        let analyze = &ir.tasks[0];
        // 1 TB over the 1 GB/s stream cap: exactly 1000 s even alone,
        // and the cap also bounds the contended case (5 flows on a
        // 5 GB/s link still get their 1 GB/s).
        assert!((analyze.duration.lo - 1000.0).abs() < 1e-6);
        assert!((analyze.duration.hi - 1000.0).abs() < 1e-6);
        assert_eq!(analyze.concurrent, 5);
        let merge = &ir.tasks[1];
        assert_eq!(merge.deps.len(), 1);
        assert_eq!(merge.deps[0].target, 0);
    }

    #[test]
    fn chained_groups_serialize_their_replicas() {
        let ir = lower(
            "workflow w on pm-cpu {
               task iter[4] chain { overhead step 10s }
             }",
        );
        let iter = &ir.tasks[0];
        assert_eq!(iter.concurrent, 1);
        assert!((iter.duration.lo - 10.0).abs() < 1e-12);
        assert!((iter.serial.lo - 40.0).abs() < 1e-12);
    }

    #[test]
    fn contention_widens_uncapped_flows() {
        // Two concurrent uncapped 1 TB transfers on cori's 5 GB/s ext:
        // alone 200 s, contended 400 s.
        let ir = lower(
            "workflow w on cori-hsw {
               task a { system_bytes ext 1TB }
               task b { system_bytes ext 1TB }
             }",
        );
        for t in &ir.tasks {
            assert!((t.duration.lo - 200.0).abs() < 1e-6, "{:?}", t.duration);
            assert!((t.duration.hi - 400.0).abs() < 1e-6, "{:?}", t.duration);
        }
    }

    #[test]
    fn without_a_machine_durations_collapse_to_zero() {
        let ir = lower("workflow w { task a { compute 1PFLOPS system_bytes fs 1TB } }");
        assert_eq!(ir.tasks[0].duration, Interval::ZERO);
        assert!(ir.channels.is_empty());
    }
}
