//! The trace oracle for the charts that draw a simulated run.
//!
//! [`wrm_dag::GanttChart`] and [`wrm_dag::ParallelismProfile`] are
//! built from [`wrm_sim::SimResult::task_intervals`]; they must show
//! exactly the run the engine executed. On random layered DAGs under
//! `fs` contention, both scheduler policies and node limits:
//!
//! - every Gantt row is its task's (first span start, last span end,
//!   nodes) in `result.to_trace()`, bit for bit;
//! - the profile's concurrency equals the trace's at every span
//!   boundary, and its peaks equal the trace's peaks;
//! - wherever no step of the chart's critical-chain walk meets a tie,
//!   the chain ends with the summary run's `critical_tail` (the
//!   engine's `released_by` links) and has its `critical_tail_len`.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wrm_core::{ids, BytesPerSec, FlopsPerSec, Machine, Rate};
use wrm_dag::generate::random_layered_tasks;
use wrm_dag::{Dag, GanttChart, ParallelismProfile, TaskId};
use wrm_sim::{
    simulate, simulate_summary, Phase, Scenario, SchedulerPolicy, SimOptions, TaskSpec,
    WorkflowSpec,
};

fn machine(pool: u64) -> Machine {
    Machine::builder("gantt-oracle", pool)
        .node(
            ids::COMPUTE,
            "CPU",
            Rate::FlopsPerSec(FlopsPerSec::tflops(1.0)),
        )
        .system(ids::FILE_SYSTEM, "fs", BytesPerSec::gbps(10.0))
        .system(ids::EXTERNAL, "ext", BytesPerSec::gbps(5.0))
        .build()
        .unwrap()
}

/// A generated layered workload mixing overhead, compute and (capped)
/// flows on two channels, so tasks contend for bandwidth and nodes.
fn workload(seed: u64, n_tasks: usize, max_width: usize) -> WorkflowSpec {
    let tasks = random_layered_tasks(seed, n_tasks, max_width, 8, 30.0);
    let mut wf = WorkflowSpec::new(format!("gantt[{seed}]"));
    for (i, t) in tasks.iter().enumerate() {
        let mut spec = TaskSpec::new(&t.name, t.nodes);
        spec = match i % 4 {
            0 => spec
                .phase(Phase::overhead("setup", t.duration))
                .phase(Phase::system_data(ids::FILE_SYSTEM, 1e10)),
            1 => spec.phase(Phase::SystemData {
                resource: ids::EXTERNAL.into(),
                bytes: 5e9,
                stream_cap: Some(1e9 * (1.0 + (i % 3) as f64)),
            }),
            2 => spec
                .phase(Phase::compute(t.duration * 1e12))
                .phase(Phase::system_data(ids::FILE_SYSTEM, 2e9)),
            _ => spec.phase(Phase::overhead("work", t.duration)),
        };
        for &d in &t.deps {
            spec = spec.after(tasks[d].name.clone());
        }
        wf = wf.task(spec);
    }
    wf
}

/// Whether two or more of `ids` share the latest end.
fn tied(ids: &[TaskId], end: impl Fn(TaskId) -> f64) -> bool {
    let best = ids
        .iter()
        .map(|&id| end(id))
        .fold(f64::NEG_INFINITY, f64::max);
    ids.iter().filter(|&&id| end(id) == best).count() > 1
}

/// Whether any step of the critical-chain walk over `dag` meets a tie.
fn walk_meets_a_tie(dag: &Dag, chain: &[TaskId], end: impl Fn(TaskId) -> f64 + Copy) -> bool {
    let all: Vec<TaskId> = dag.task_ids().collect();
    std::iter::once(&all[..])
        .chain(chain.iter().map(|&id| dag.predecessors(id)))
        .any(|ids| tied(ids, end))
}

proptest! {
    #[test]
    fn charts_reproduce_the_trace(
        seed in any::<u64>(),
        n_tasks in 1usize..30,
        max_width in 1usize..7,
        pool in 8u64..40,
        factor in 0.05f64..2.0,
        backfill in any::<bool>(),
        limit in any::<bool>(),
    ) {
        let wf = workload(seed, n_tasks, max_width);
        let m = machine(pool);
        let dag = wf.to_dag(&m).unwrap();
        let opts = SimOptions {
            scheduler: if backfill { SchedulerPolicy::Backfill } else { SchedulerPolicy::Fifo },
            node_limit: limit.then_some(8),
            ..SimOptions::default()
        }
        .with_contention(ids::FILE_SYSTEM, factor);
        let scenario = Scenario::new(m, wf).with_options(opts);
        let result = simulate(&scenario).unwrap();
        let intervals = result.task_intervals(&dag).unwrap();
        let trace = result.to_trace();
        let chart = GanttChart::build(&dag, &intervals).unwrap();
        let profile = ParallelismProfile::build(&dag, &intervals);

        // The trace's own (first span start, last span end, nodes).
        let mut traced: BTreeMap<&str, (f64, f64, u64)> = BTreeMap::new();
        for s in &trace.spans {
            let iv = traced.entry(&s.task).or_insert((s.start, s.end, s.nodes));
            iv.0 = iv.0.min(s.start);
            iv.1 = iv.1.max(s.end);
        }
        prop_assert_eq!(chart.rows.len(), traced.len());
        for row in &chart.rows {
            prop_assert_eq!((row.start, row.end, row.nodes), traced[row.name.as_str()]);
        }
        prop_assert_eq!(chart.makespan, result.makespan);

        // Concurrency at every span boundary, from the trace.
        let mut peak = (0usize, 0u64);
        for s in &trace.spans {
            for t in [s.start, s.end] {
                let running = traced.values().filter(|iv| iv.0 <= t && t < iv.1);
                let (tasks, nodes) = running.fold((0, 0), |(n, k), iv| (n + 1, k + iv.2));
                prop_assert!(profile.tasks_at(t) == tasks, "concurrency at t = {}", t);
                peak = (peak.0.max(tasks), peak.1.max(nodes));
            }
        }
        prop_assert_eq!((profile.peak_tasks(), profile.peak_nodes()), peak);

        // The chain is the engine's released-by chain wherever the walk
        // meets no tie.
        let end = |id: TaskId| intervals[id.0].1;
        if !walk_meets_a_tie(&dag, &chart.critical_path, end) {
            let summary = simulate_summary(&scenario).unwrap();
            let names: Vec<&str> = chart
                .critical_path
                .iter()
                .map(|&id| dag.task(id).name.as_str())
                .collect();
            prop_assert_eq!(names.len(), summary.critical_tail_len);
            prop_assert!(
                names.ends_with(&summary.critical_tail.iter().map(String::as_str).collect::<Vec<_>>()),
                "chain {:?} vs tail {:?}", names, summary.critical_tail
            );
        }
    }
}
