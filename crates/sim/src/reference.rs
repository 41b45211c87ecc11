//! The straightforward string-keyed discrete-event engine, kept as a
//! test oracle for the optimized engine in [`crate::engine`].
//!
//! This is the original event loop: per-event queue sort, linear
//! earliest-event scans, and full fair-share recomputation on every
//! event. Flow progress is materialized on rate change (see
//! [`crate::engine`]'s module docs), the same accounting the optimized
//! engine uses. It is compiled only for tests and under the
//! `reference-engine` feature, and [`simulate_reference`] must stay
//! bit-identical to [`crate::simulate`] — makespan, trace spans, and
//! task times are compared exactly by the equivalence proptests below
//! and by the paper-workflow tests in `wrm-workflows`.

use crate::channel::{max_min_rates, FlowDemand};
use crate::engine::{
    flow_finished, time_eps, Scenario, SchedulerPolicy, SimError, SimResult, TaskTime,
};
use crate::index::span_kind;
use crate::spec::{Phase, TaskSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use wrm_core::SystemScaling;
use wrm_trace::{Trace, TraceSpan};

enum Activity {
    /// Fixed-duration phase: ends at a known time.
    Fixed { end: f64 },
    /// A flow on a shared channel. Progress is materialized on rate
    /// change: `remaining` is exact as of `last_set` and untouched until
    /// a fair-share solve assigns a different rate, at which point the
    /// completion time `end` is recomputed once and cached
    /// (`f64::INFINITY` while starved).
    Flow {
        channel: usize,
        remaining: f64,
        cap: f64,
        rate: f64,
        last_set: f64,
        end: f64,
    },
}

struct RunningTask {
    spec_idx: usize,
    phase_idx: usize,
    phase_start: f64,
    activity: Activity,
}

struct Channel {
    capacity: f64,
}

/// Runs the simulation with the original straightforward engine.
#[allow(clippy::too_many_lines)]
pub fn simulate_reference(scenario: &Scenario) -> Result<SimResult, SimError> {
    scenario.workflow.validate()?;
    let machine = &scenario.machine;
    let opts = &scenario.options;
    for (res, f) in &opts.contention {
        if !(f.is_finite() && *f > 0.0) {
            return Err(SimError::InvalidOption(format!(
                "contention factor for {res} must be positive, got {f}"
            )));
        }
    }

    let pool_total = opts
        .node_limit
        .unwrap_or(machine.total_nodes)
        .min(machine.total_nodes);
    let tasks = &scenario.workflow.tasks;
    for t in tasks {
        if t.nodes > pool_total {
            return Err(SimError::TaskTooLarge {
                task: t.name.clone(),
                needs: t.nodes,
                pool: pool_total,
            });
        }
        // Resolve every referenced resource up front.
        for p in &t.phases {
            match p {
                Phase::Compute { .. } => {
                    if machine.node_resource(wrm_core::ids::COMPUTE).is_none() {
                        return Err(SimError::UnknownResource {
                            task: t.name.clone(),
                            resource: wrm_core::ids::COMPUTE.into(),
                        });
                    }
                }
                Phase::NodeData { resource, .. } => {
                    if machine.node_resource(resource).is_none() {
                        return Err(SimError::UnknownResource {
                            task: t.name.clone(),
                            resource: resource.clone(),
                        });
                    }
                }
                Phase::SystemData { resource, .. } => {
                    if machine.system_resource(resource).is_none() {
                        return Err(SimError::UnknownResource {
                            task: t.name.clone(),
                            resource: resource.clone(),
                        });
                    }
                }
                Phase::Overhead { .. } => {}
            }
        }
    }

    // Channels: one per system resource the machine defines.
    let mut channels: Vec<Channel> = Vec::new();
    let mut channel_idx: BTreeMap<String, usize> = BTreeMap::new();
    for sr in &machine.system_resources {
        let factor = opts.contention.get(sr.id.as_str()).copied().unwrap_or(1.0);
        let capacity = match sr.scaling {
            SystemScaling::Aggregate => sr.peak.get() * factor,
            // The interconnect's backbone: every node can inject at once.
            SystemScaling::PerNodeInUse => sr.peak.get() * machine.total_nodes as f64 * factor,
        };
        channel_idx.insert(sr.id.to_string(), channels.len());
        channels.push(Channel { capacity });
    }

    // Fixed-phase duration for a task on this machine.
    let fixed_duration = |task: &TaskSpec, phase: &Phase| -> Option<f64> {
        match phase {
            Phase::Compute { flops, efficiency } => {
                let peak = machine
                    .node_resource(wrm_core::ids::COMPUTE)
                    .expect("checked above")
                    .peak_per_node
                    .magnitude();
                Some(flops / (peak * task.nodes as f64 * efficiency))
            }
            Phase::NodeData {
                resource,
                bytes,
                efficiency,
            } => {
                let peak = machine
                    .node_resource(resource)
                    .expect("checked above")
                    .peak_per_node
                    .magnitude();
                Some(bytes / (peak * task.nodes as f64 * efficiency))
            }
            Phase::Overhead { seconds, .. } => Some(*seconds),
            Phase::SystemData { .. } => None,
        }
    };

    // Dependency bookkeeping.
    let name_to_idx: BTreeMap<&str, usize> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| (t.name.as_str(), i))
        .collect();
    let mut remaining_deps: Vec<usize> = tasks.iter().map(|t| t.after.len()).collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
    for (i, t) in tasks.iter().enumerate() {
        for dep in &t.after {
            dependents[name_to_idx[dep.as_str()]].push(i);
        }
    }

    let mut queue: Vec<usize> = (0..tasks.len())
        .filter(|&i| remaining_deps[i] == 0)
        .collect();
    let mut running: Vec<RunningTask> = Vec::new();
    let mut free = pool_total;
    let mut now = 0.0f64;
    let mut done = 0usize;
    let mut trace = Trace::new(scenario.workflow.name.clone(), machine.name.clone());
    let mut task_starts: BTreeMap<String, f64> = BTreeMap::new();
    let mut task_ends: BTreeMap<String, f64> = BTreeMap::new();

    // Begins a task's phase `phase_idx` at time `at`, producing the
    // Activity.
    let make_activity = |task: &TaskSpec, phase_idx: usize, at: f64| -> Activity {
        let phase = &task.phases[phase_idx];
        match phase {
            Phase::SystemData {
                resource,
                bytes,
                stream_cap,
            } => {
                let sr = machine.system_resource(resource).expect("checked");
                let factor = opts
                    .contention
                    .get(resource.as_str())
                    .copied()
                    .unwrap_or(1.0);
                // The task's own injection limit: for per-node-scaled
                // resources it is its allocation's aggregate NIC rate.
                let alloc_cap = match sr.scaling {
                    SystemScaling::Aggregate => f64::INFINITY,
                    SystemScaling::PerNodeInUse => sr.peak.get() * task.nodes as f64 * factor,
                };
                let stream = stream_cap.unwrap_or(f64::INFINITY) * factor;
                Activity::Flow {
                    channel: channel_idx[resource.as_str()],
                    remaining: *bytes,
                    cap: alloc_cap.min(stream),
                    rate: 0.0,
                    last_set: at,
                    // A zero-byte flow is finished at birth; everything
                    // else waits for its first rate assignment.
                    end: if flow_finished(*bytes, 0.0, at) {
                        at
                    } else {
                        f64::INFINITY
                    },
                }
            }
            _ => Activity::Fixed {
                end: at + fixed_duration(task, phase).expect("fixed phase"),
            },
        }
    };

    // Recomputes all flow rates per channel. A flow whose rate actually
    // changes has its progress materialized (`remaining` brought up to
    // date for the time spent at the old rate) and its completion time
    // recomputed and cached; unchanged rates touch nothing.
    let recompute = |running: &mut [RunningTask], channels: &[Channel], now: f64| {
        for (ci, ch) in channels.iter().enumerate() {
            let demands: Vec<FlowDemand> = running
                .iter()
                .enumerate()
                .filter_map(|(i, r)| match &r.activity {
                    Activity::Flow { channel, cap, .. } if *channel == ci => {
                        Some(FlowDemand { id: i, cap: *cap })
                    }
                    _ => None,
                })
                .collect();
            if demands.is_empty() {
                continue;
            }
            for fr in max_min_rates(ch.capacity, &demands) {
                if let Activity::Flow {
                    remaining,
                    rate,
                    last_set,
                    end,
                    ..
                } = &mut running[fr.id].activity
                {
                    if fr.rate != *rate {
                        *remaining = (*remaining - *rate * (now - *last_set)).max(0.0);
                        *last_set = now;
                        *rate = fr.rate;
                        *end = if flow_finished(*remaining, *rate, now) {
                            now
                        } else if *rate > 0.0 {
                            now + *remaining / *rate
                        } else {
                            f64::INFINITY
                        };
                    }
                }
            }
        }
    };

    loop {
        // Start ready tasks per policy.
        queue.sort_unstable();
        let mut qi = 0;
        while qi < queue.len() {
            let ti = queue[qi];
            let need = tasks[ti].nodes;
            if need <= free {
                free -= need;
                queue.remove(qi);
                task_starts.insert(tasks[ti].name.clone(), now);
                if tasks[ti].phases.is_empty() {
                    // Zero-phase task completes instantly.
                    task_ends.insert(tasks[ti].name.clone(), now);
                    free += need;
                    done += 1;
                    for &d in &dependents[ti] {
                        remaining_deps[d] -= 1;
                        if remaining_deps[d] == 0 {
                            queue.push(d);
                        }
                    }
                    // Restart the scan: new tasks may be ready.
                    qi = 0;
                    continue;
                }
                running.push(RunningTask {
                    spec_idx: ti,
                    phase_idx: 0,
                    phase_start: now,
                    activity: make_activity(&tasks[ti], 0, now),
                });
            } else if opts.scheduler == SchedulerPolicy::Fifo {
                break; // head blocks
            } else {
                qi += 1; // backfill: try the next
            }
        }
        if done == tasks.len() {
            break;
        }
        if running.is_empty() {
            // Tasks remain but nothing runs and nothing can start.
            debug_assert!(!queue.is_empty() || done < tasks.len());
            return Err(SimError::Stalled { at: now });
        }

        recompute(&mut running, &channels, now);

        // Earliest completion among running activities (flow ends are
        // cached by `recompute`).
        let mut next = f64::INFINITY;
        for r in &running {
            let t = match &r.activity {
                Activity::Fixed { end } | Activity::Flow { end, .. } => *end,
            };
            next = next.min(t);
        }
        if !next.is_finite() {
            return Err(SimError::Stalled { at: now });
        }
        now = next;

        // Complete activities that finished (within EPS).
        let mut i = 0;
        while i < running.len() {
            let finished = match &running[i].activity {
                Activity::Fixed { end } | Activity::Flow { end, .. } => *end <= now + time_eps(now),
            };
            if !finished {
                i += 1;
                continue;
            }
            let r = running.swap_remove(i);
            let task = &tasks[r.spec_idx];
            let phase = &task.phases[r.phase_idx];
            trace.push(TraceSpan::new(
                task.name.clone(),
                span_kind(phase, &mut Arc::from),
                r.phase_start,
                now,
                task.nodes,
            ));
            let next_phase = r.phase_idx + 1;
            if next_phase < task.phases.len() {
                running.push(RunningTask {
                    spec_idx: r.spec_idx,
                    phase_idx: next_phase,
                    phase_start: now,
                    activity: make_activity(task, next_phase, now),
                });
                // The pushed activity lands at the end; do not advance i
                // past the element swapped into position i.
            } else {
                task_ends.insert(task.name.clone(), now);
                free += task.nodes;
                done += 1;
                for &d in &dependents[r.spec_idx] {
                    remaining_deps[d] -= 1;
                    if remaining_deps[d] == 0 {
                        queue.push(d);
                    }
                }
            }
        }
    }

    let makespan = trace.makespan();
    let task_times = task_starts
        .iter()
        .filter_map(|(name, &start)| {
            let end = task_ends.get(name)?;
            Some(TaskTime {
                name: Arc::from(name.as_str()),
                start,
                time: end - start,
                nodes: tasks[name_to_idx[name.as_str()]].nodes,
            })
        })
        .collect();
    Ok(SimResult {
        trace,
        makespan,
        task_times,
        pool_nodes: pool_total,
    })
}

#[cfg(test)]
mod tests {
    use super::simulate_reference;
    use crate::engine::{simulate, Scenario, SchedulerPolicy, SimOptions};
    use crate::spec::{Phase, TaskSpec, WorkflowSpec};
    use proptest::prelude::*;
    use wrm_core::{machines, Machine};

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seeded arbitrary workflow exercising every phase kind, plus the
    /// engine's corner cases: zero-phase tasks, zero-byte flows,
    /// zero-second overheads, stream caps, and random DAG edges.
    fn build_workflow(seed: u64, n_tasks: usize, machine: &Machine) -> WorkflowSpec {
        let mut s = seed;
        let n_sys = machine.system_resources.len();
        let mut wf = WorkflowSpec::new(format!("gen[{seed}]"));
        for i in 0..n_tasks {
            let nodes = 1 + splitmix(&mut s) % 6;
            let mut t = TaskSpec::new(format!("t{i}"), nodes);
            let n_phases = (splitmix(&mut s) % 4) as usize; // 0 => instant task
            for _ in 0..n_phases {
                t = match splitmix(&mut s) % 6 {
                    0 => t.phase(Phase::Compute {
                        flops: (1 + splitmix(&mut s) % 1000) as f64 * 1e9,
                        efficiency: 0.25 + (splitmix(&mut s) % 100) as f64 / 200.0,
                    }),
                    1 => t.phase(Phase::node_data(
                        wrm_core::ids::DRAM,
                        (splitmix(&mut s) % 1000) as f64 * 1e8,
                    )),
                    2 => t.phase(Phase::overhead(
                        "o",
                        // Sometimes exactly zero: an instantly-finished
                        // fixed phase.
                        if splitmix(&mut s).is_multiple_of(4) {
                            0.0
                        } else {
                            (splitmix(&mut s) % 100) as f64 / 10.0
                        },
                    )),
                    _ => {
                        let sr = &machine.system_resources[(splitmix(&mut s) as usize) % n_sys];
                        let bytes = if splitmix(&mut s).is_multiple_of(5) {
                            0.0 // a zero-byte flow, finished at birth
                        } else {
                            (1 + splitmix(&mut s) % 1000) as f64 * 1e8
                        };
                        let stream_cap = if splitmix(&mut s).is_multiple_of(3) {
                            Some((1 + splitmix(&mut s) % 20) as f64 * 1e8)
                        } else {
                            None
                        };
                        t.phase(Phase::SystemData {
                            resource: sr.id.to_string(),
                            bytes,
                            stream_cap,
                        })
                    }
                };
            }
            // Random backward edges (keeps the DAG acyclic by index).
            if i > 0 {
                let n_deps = (splitmix(&mut s) % 3).min(i as u64) as usize;
                for _ in 0..n_deps {
                    let d = (splitmix(&mut s) as usize) % i;
                    t = t.after(format!("t{d}"));
                }
            }
            wf = wf.task(t);
        }
        wf
    }

    /// Lists every task's first dependency a second time, at the end
    /// of its `after` list, so the repeat is not adjacent to the first
    /// listing whenever the task has two or more dependencies.
    fn repeat_first_edges(wf: &mut WorkflowSpec) {
        for t in &mut wf.tasks {
            if let Some(first) = t.after.first().cloned() {
                t.after.push(first);
            }
        }
    }

    /// The same workflow with each `after` list reduced to its first
    /// listing of every name.
    fn dedup_edges(wf: &WorkflowSpec) -> WorkflowSpec {
        let mut out = wf.clone();
        for t in &mut out.tasks {
            let mut seen = std::collections::HashSet::new();
            t.after.retain(|d| seen.insert(d.clone()));
        }
        out
    }

    proptest! {
        /// The tentpole contract: the optimized engine is bit-identical
        /// to the reference on arbitrary scenarios — same trace spans in
        /// the same order, same makespan, same task times/starts/nodes,
        /// and the same error when the scenario is invalid or stalls.
        /// With `repeat_edges`, dependencies are listed twice: the
        /// reference resolves them by name in its own bookkeeping, and
        /// both must start every task when the spec listing each
        /// dependency once does.
        #[test]
        fn optimized_engine_matches_reference_exactly(
            seed in any::<u64>(),
            n_tasks in 1usize..16,
            machine_ix in 0usize..2,
            backfill in any::<bool>(),
            contention in prop::option::of(0.1f64..1.5),
            node_limit in prop::option::of(1u64..32),
            repeat_edges in any::<bool>(),
        ) {
            let machine = if machine_ix == 0 {
                machines::cori_haswell()
            } else {
                machines::perlmutter_cpu()
            };
            let mut wf = build_workflow(seed, n_tasks, &machine);
            if repeat_edges {
                repeat_first_edges(&mut wf);
            }
            let mut opts = SimOptions {
                node_limit,
                scheduler: if backfill {
                    SchedulerPolicy::Backfill
                } else {
                    SchedulerPolicy::Fifo
                },
                ..SimOptions::default()
            };
            if let Some(f) = contention {
                opts = opts.with_contention(wrm_core::ids::EXTERNAL, f);
            }
            let deduped =
                Scenario::new(machine.clone(), dedup_edges(&wf)).with_options(opts.clone());
            let scenario = Scenario::new(machine, wf).with_options(opts);
            let optimized = simulate(&scenario);
            let reference = simulate_reference(&scenario);
            prop_assert_eq!(&optimized, &reference);
            match (&optimized, &simulate(&deduped)) {
                (Ok(r), Ok(d)) => {
                    prop_assert_eq!(r.makespan.to_bits(), d.makespan.to_bits());
                    let starts = |r: &crate::SimResult| -> Vec<(String, f64)> {
                        r.task_times.iter().map(|t| (t.name.to_string(), t.start)).collect()
                    };
                    prop_assert_eq!(starts(r), starts(d));
                }
                (r, d) => prop_assert_eq!(r.as_ref().err(), d.as_ref().err()),
            }
        }
    }

    /// Regression for the reference's quadratic zero-phase rescan: a
    /// 5000-task chain of zero-phase tasks resolves in one start scan
    /// (every completion unblocks the next task mid-scan), and the
    /// optimized engine handles it without restarting the scan — while
    /// still matching the reference bit for bit.
    #[test]
    fn five_thousand_task_zero_phase_chain() {
        let n = 5000;
        let mut wf = WorkflowSpec::new("zero-chain");
        for i in 0..n {
            let mut t = TaskSpec::new(format!("t{i}"), 1);
            if i > 0 {
                t = t.after(format!("t{}", i - 1));
            }
            wf = wf.task(t);
        }
        let scenario = Scenario::new(machines::perlmutter_cpu(), wf);
        let r = simulate(&scenario).expect("chain completes");
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.task_times.len(), n);
        assert!(r.task_times.iter().all(|t| t.time == 0.0));
        assert_eq!(
            simulate_reference(&scenario).expect("reference completes"),
            r
        );
    }

    /// Mixed zero-phase fan-out under backfill: zero-phase completions
    /// unblock whole layers mid-scan while real tasks hold nodes.
    #[test]
    fn zero_phase_fanout_matches_reference() {
        let mut wf = WorkflowSpec::new("fanout");
        for i in 0..40 {
            let mut t = TaskSpec::new(format!("gate{i}"), 1);
            if i > 0 {
                t = t.after(format!("gate{}", i - 1));
            }
            wf = wf.task(t);
            let mut w = TaskSpec::new(format!("work{i}"), 3)
                .phase(Phase::overhead("o", 1.0 + f64::from(i)));
            w = w.after(format!("gate{i}"));
            wf = wf.task(w);
        }
        let machine = machines::cori_haswell();
        for policy in [SchedulerPolicy::Fifo, SchedulerPolicy::Backfill] {
            let opts = SimOptions {
                node_limit: Some(16),
                scheduler: policy,
                ..SimOptions::default()
            };
            let scenario = Scenario::new(machine.clone(), wf.clone()).with_options(opts);
            assert_eq!(simulate(&scenario), simulate_reference(&scenario));
        }
    }
}
