//! Analysis IR: the lowered form of a workflow spec the pass pipeline
//! runs on.
//!
//! Lowering interns each `system_bytes` phase into a [`FlowIr`] on a
//! [`ChannelIr`] resolved against the machine model. The DAG structure
//! (dependency edges between task *groups*) is kept at the AST
//! granularity so diagnostics can point back at `after` statements;
//! passes that need the fully expanded replica graph, or task
//! durations, go through [`wrm_lang::compile()`] and the simulator's
//! certificate instead.

use crate::diagnostics::Span;
use std::collections::BTreeMap;
use wrm_core::{Machine, SystemScaling};
use wrm_lang::ast::{PhaseAst, WorkflowAst};
use wrm_lang::TaskNames;

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
    /// Replicas in flight at once (1 when chained).
    pub concurrent: usize,
    /// Predecessor task-group indices, one per resolved `after`
    /// statement (the statements' spans stay on the AST).
    pub deps: Vec<usize>,
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
    /// Lowers `ast`, whose task names `names` resolves, against
    /// `machine` (when resolved). A dependency on a name declared more
    /// than once resolves to its first declaration. Without a machine
    /// no channels are interned; the structural passes still work.
    pub fn lower(ast: &WorkflowAst, names: &TaskNames, machine: Option<&Machine>) -> Self {
        let mut channels: Vec<ChannelIr> = Vec::new();
        let mut chan_idx: BTreeMap<&str, usize> = BTreeMap::new();
        let mut tasks: Vec<TaskIr> = Vec::with_capacity(ast.tasks.len());
        for (ti, task) in ast.tasks.iter().enumerate() {
            let count = task.count.max(1);
            let concurrent = if task.chain { 1 } else { count };
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
                let ci = *chan_idx.entry(resource.as_str()).or_insert_with(|| {
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
            let deps = names.after(ti).iter().flatten().copied().collect();
            tasks.push(TaskIr {
                name: task.name.clone(),
                span: task.span.into(),
                count,
                chain: task.chain,
                concurrent,
                deps,
                flows,
            });
        }

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

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(src: &str) -> AnalysisIr {
        let ast = wrm_lang::parse(src).unwrap();
        let machine = ast.machine.as_deref().and_then(wrm_core::machines::by_name);
        AnalysisIr::lower(&ast, &TaskNames::new(&ast), machine.as_ref())
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
        assert_eq!(analyze.flows.len(), 1);
        assert_eq!(analyze.flows[0].cap, 1e9);
        assert_eq!(ir.channels[0].concurrent_flows, 5);
        assert_eq!(analyze.concurrent, 5);
        let merge = &ir.tasks[1];
        assert_eq!(merge.deps.len(), 1);
        assert_eq!(merge.deps[0], 0);
    }

    #[test]
    fn chained_groups_run_one_replica_at_a_time() {
        let ir = lower(
            "workflow w on cori-hsw {
               task iter[4] chain { system_bytes ext 1GB }
               task fan[3] { system_bytes ext 1GB }
             }",
        );
        assert_eq!(ir.tasks[0].concurrent, 1);
        assert_eq!(ir.tasks[1].concurrent, 3);
        assert_eq!(ir.channels[0].concurrent_flows, 4);
    }

    #[test]
    fn without_a_machine_no_channels_are_interned() {
        let ir = lower("workflow w { task a { compute 1PFLOPS system_bytes fs 1TB } }");
        assert!(ir.tasks[0].flows.is_empty());
        assert!(ir.channels.is_empty());
    }
}
