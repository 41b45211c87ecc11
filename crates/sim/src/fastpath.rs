//! The analytic sweep fast path: longest-path scheduling instead of DES.
//!
//! When a sweep point has no channel contention and no node-limit
//! queueing, the DES does no real work: every fair-share solve settles
//! every flow at exactly its own cap (progressive filling assigns the
//! literal `cap` value, not an arithmetic result), rates never change
//! after first assignment, and — because both engines materialize flow
//! progress only on rate change — every phase end is a closed-form
//! spawn-time expression. The whole run collapses to a longest-path
//! computation over the base index's dependents CSR
//! ([`wrm_dag::longest_path_ends`]), *bit-exact* against the DES.
//!
//! [`try_fastpath`] computes that analytic schedule, then *verifies*
//! the no-contention/no-queueing premise against the schedule itself:
//!
//! 1. **node sweep** — at every event time, the pool must hold all
//!    concurrently-allocated tasks (counting same-instant starters as
//!    concurrent, a conservative over-approximation of the scheduler's
//!    release-then-allocate micro-order);
//! 2. **channel sweep** — whenever two or more flows overlap on a
//!    channel, their caps must sum below the capacity with a relative
//!    `1e-9` margin (which guarantees progressive filling settles all of
//!    them at their caps, exactly, regardless of demand order);
//! 3. **collision check** — distinct analytic event times must be more
//!    than `2 * time_eps` apart, so the DES's completion tolerance
//!    cannot pull an activity to an earlier event than the analytic
//!    schedule assigns it.
//!
//! Any violation — or a dependency cycle, a starved or unbounded
//! flow — returns `None` and the caller falls back
//! to the DES. The returned result matches the DES in every scalar and
//! in the trace span *set*; span order within a shared completion
//! instant may differ (the `Trace` contract documents spans as
//! unordered), so comparisons sort spans first.

use crate::channel::settles_at_caps;
use crate::engine::{flow_finished, time_eps, SimResult};
use crate::index::{BaseIndex, PhaseIx};
use crate::overlay::IndexOverlay;
use crate::spec::WorkflowSpec;
use std::collections::BTreeMap;
use wrm_trace::{Trace, TraceSpan};

/// One flow interval on a channel, for the channel sweep.
#[derive(Clone)]
struct FlowIval {
    start: f64,
    end: f64,
    cap: f64,
}

/// Attempts the analytic fast path. `None` means "use the DES".
pub(crate) fn try_fastpath(
    workflow: &WorkflowSpec,
    machine_name: &str,
    base: &BaseIndex,
    overlay: &IndexOverlay,
) -> Option<SimResult> {
    let n_phases = base.phases.len();
    // (start, end) per phase slot, filled in topological order.
    let mut phase_sched = vec![(0.0f64, 0.0f64); n_phases];
    let mut flows: Vec<Vec<FlowIval>> = vec![Vec::new(); overlay.channel_capacity.len()];
    let mut bail = false;

    let sched = wrm_dag::longest_path_ends(
        &base.dep_count,
        &base.dependents_off,
        &base.dependents,
        |t, start| {
            let t = t as usize;
            let mut cur = start;
            for (k, slot) in (base.phase_off[t]..base.phase_off[t + 1]).enumerate() {
                let end = match base.phases[slot as usize] {
                    PhaseIx::Fixed { duration } => {
                        // The engine's `now + duration`, verbatim.
                        let mut end = cur + duration;
                        // A later phase born within tolerance completes
                        // inside the same scan, at the current time.
                        if k > 0 && end <= cur + time_eps(cur) {
                            end = cur;
                        }
                        end
                    }
                    PhaseIx::Flow {
                        channel,
                        bytes,
                        alloc_base,
                        stream_base,
                    } => {
                        let cap = overlay.flow_cap(channel, alloc_base, stream_base);
                        let capacity = overlay.channel_capacity[channel as usize];
                        // An uncontended max-min solve: a lone flow
                        // settles at its cap, or at the full capacity
                        // when its cap exceeds it (`remaining / 1.0`).
                        let r = if cap <= capacity { cap } else { capacity };
                        let end = if flow_finished(bytes, r, cur) {
                            cur
                        } else if r > 0.0 && r.is_finite() {
                            cur + bytes / r
                        } else {
                            // Starved (the DES would stall) or unbounded.
                            bail = true;
                            cur
                        };
                        flows[channel as usize].push(FlowIval {
                            start: cur,
                            end,
                            cap,
                        });
                        end
                    }
                };
                if !end.is_finite() {
                    bail = true;
                }
                phase_sched[slot as usize] = (cur, end);
                cur = end;
            }
            cur
        },
    )?;
    if bail {
        return None;
    }

    if !verify_nodes(base, overlay, &sched)
        || !verify_channels(overlay, &flows)
        || !verify_no_collisions(&phase_sched)
    {
        return None;
    }

    // Build the result exactly as the DES materializes it.
    let names = base.names(workflow);
    let mut trace = Trace::new(workflow.name.clone(), machine_name.to_string());
    trace.spans.reserve_exact(n_phases);
    for (t, &nodes) in base.nodes.iter().enumerate() {
        let slots = base.phase_off[t] as usize..base.phase_off[t + 1] as usize;
        for (&(s, e), kind) in phase_sched[slots.clone()].iter().zip(&names.kinds[slots]) {
            trace.push(TraceSpan::new(
                names.tasks[t].clone(),
                kind.clone(),
                s,
                e,
                nodes,
            ));
        }
    }
    let (starts, ends): (Vec<f64>, Vec<f64>) = sched.into_iter().unzip();
    Some(SimResult::from_schedule(
        base,
        workflow,
        trace,
        &starts,
        &ends,
        overlay.pool_total,
    ))
}

/// Node sweep: replaying the analytic schedule must never need more
/// nodes than the pool. Same-instant starters are counted as concurrent
/// with each other and with same-instant releases still pending —
/// conservative with respect to the scheduler's actual
/// release-then-allocate order — so a pass guarantees no task ever
/// queues under either policy.
fn verify_nodes(base: &BaseIndex, overlay: &IndexOverlay, sched: &[(f64, f64)]) -> bool {
    // time bits -> (released, allocated, transient) node counts. Times
    // are non-negative finite, so the bit pattern orders like the float.
    let mut events: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    for (t, &(start, end)) in sched.iter().enumerate() {
        let need = base.nodes[t];
        let e = events.entry(start.to_bits()).or_default();
        e.1 += need;
        if start == end {
            e.2 += need;
        } else {
            events.entry(end.to_bits()).or_default().0 += need;
        }
    }
    let pool = overlay.pool_total;
    let mut held: u64 = 0;
    for (_, (released, allocated, transient)) in events {
        held -= released;
        held += allocated;
        if held > pool {
            return false;
        }
        held -= transient;
    }
    true
}

/// Channel sweep: wherever two or more flows coexist on a channel,
/// their caps must pass [`settles_at_caps`] (the engine's under-capacity
/// skip asks the same question), which proves every solve settles every
/// flow at exactly its cap. Zero-length
/// flows count at their instant (they participate in one solve round);
/// flows ending exactly when others arrive do not overlap them (the DES
/// completes before it re-solves).
fn verify_channels(overlay: &IndexOverlay, flows: &[Vec<FlowIval>]) -> bool {
    for (ch, ivals) in flows.iter().enumerate() {
        if ivals.len() < 2 {
            continue;
        }
        let capacity = overlay.channel_capacity[ch];
        let mut order: Vec<usize> = (0..ivals.len()).collect();
        order.sort_unstable_by(|&a, &b| ivals[a].start.total_cmp(&ivals[b].start));
        // Min-heap of (end, cap) for active flows.
        let mut active: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>> =
            std::collections::BinaryHeap::new();
        let mut cap_sum = 0.0f64;
        let mut i = 0;
        while i < order.len() {
            let t = ivals[order[i]].start;
            // Flows ending at or before this arrival instant left before
            // the solve that admits it.
            while let Some(&std::cmp::Reverse((end_bits, cap_bits))) = active.peek() {
                if f64::from_bits(end_bits) <= t {
                    active.pop();
                    cap_sum -= f64::from_bits(cap_bits);
                } else {
                    break;
                }
            }
            // Admit the whole same-instant batch (zero-length flows
            // included: they share one solve round with the batch).
            while i < order.len() && ivals[order[i]].start == t {
                let iv = &ivals[order[i]];
                let end = if iv.end == t {
                    // Present for this batch's solve only; evict at any
                    // strictly later arrival.
                    t
                } else {
                    iv.end
                };
                active.push(std::cmp::Reverse((end.to_bits(), iv.cap.to_bits())));
                cap_sum += iv.cap;
                i += 1;
            }
            if active.len() >= 2 && !settles_at_caps(cap_sum, capacity) {
                return false;
            }
            // Zero-length members of this batch must not leak into later
            // batches' counts as "active": they are evicted by the
            // `end <= t` pop at the next strictly-greater arrival time.
        }
    }
    true
}

/// Collision check: distinct analytic event times must be farther apart
/// than twice the DES completion tolerance at the later time, so no
/// activity can be pulled to an earlier event than its analytic end.
fn verify_no_collisions(phase_sched: &[(f64, f64)]) -> bool {
    let mut times: Vec<f64> = Vec::with_capacity(phase_sched.len() + 1);
    times.push(0.0);
    for &(_, end) in phase_sched {
        times.push(end);
    }
    times.sort_unstable_by(f64::total_cmp);
    for w in times.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a < b && b - a <= 2.0 * time_eps(b) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::try_fastpath;
    use crate::engine::{simulate, Scenario, SimOptions, SimResult};
    use crate::index::BaseIndex;
    use crate::overlay::IndexOverlay;
    use crate::reference::simulate_reference;
    use crate::spec::{Phase, TaskSpec, WorkflowSpec};
    use proptest::prelude::*;
    use wrm_core::machines;

    fn run_fastpath(scenario: &Scenario) -> Option<SimResult> {
        let base = BaseIndex::build(&scenario.machine, &scenario.workflow).ok()?;
        let overlay = IndexOverlay::build(&base, &scenario.workflow, &scenario.options).ok()?;
        try_fastpath(&scenario.workflow, &scenario.machine.name, &base, &overlay)
    }

    /// Sorts a result's spans with a stable key so fast-path and DES
    /// traces (identical as span *sets*, possibly ordered differently at
    /// shared completion instants) compare equal; all scalar fields stay
    /// under exact comparison.
    fn canonicalize(mut r: SimResult) -> SimResult {
        r.trace
            .spans
            .sort_by(|a, b| a.task.cmp(&b.task).then(a.start.total_cmp(&b.start)));
        r
    }

    fn assert_matches_des(scenario: &Scenario) {
        let fast = run_fastpath(scenario).expect("fast path engages");
        let des = simulate(scenario).expect("DES succeeds");
        let refr = simulate_reference(scenario).expect("reference succeeds");
        assert_eq!(canonicalize(fast.clone()), canonicalize(des));
        assert_eq!(canonicalize(fast), canonicalize(refr));
    }

    /// An uncontended pipeline: stream-capped flows far below capacity.
    #[test]
    fn engages_on_uncontended_pipeline_bit_identically() {
        let mut wf = WorkflowSpec::new("uncontended");
        for i in 0..6 {
            let mut t = TaskSpec::new(format!("t{i}"), 4)
                .phase(Phase::overhead("setup", 3.0 + f64::from(i)))
                .phase(Phase::SystemData {
                    resource: wrm_core::ids::EXTERNAL.into(),
                    bytes: 7e9 + f64::from(i) * 1e9,
                    stream_cap: Some(1e9),
                });
            if i > 0 {
                t = t.after(format!("t{}", i - 1));
            }
            wf = wf.task(t);
        }
        let scenario = Scenario::new(machines::cori_haswell(), wf);
        assert_matches_des(&scenario);
    }

    /// Parallel flows whose caps sum below capacity also engage.
    #[test]
    fn engages_on_parallel_uncontended_flows() {
        let mut wf = WorkflowSpec::new("parallel");
        for i in 0..8 {
            wf = wf.task(TaskSpec::new(format!("w{i}"), 2).phase(Phase::SystemData {
                resource: wrm_core::ids::EXTERNAL.into(),
                bytes: 5e9 + f64::from(i) * 1e9,
                // 8 x 0.5 GB/s stays below Cori's 5 GB/s external link.
                stream_cap: Some(5e8),
            }));
        }
        let scenario = Scenario::new(machines::cori_haswell(), wf);
        assert_matches_des(&scenario);
    }

    /// Contention (caps exceeding capacity) must fall back to the DES.
    #[test]
    fn bails_on_contention() {
        let mut wf = WorkflowSpec::new("contended");
        for i in 0..4 {
            wf = wf.task(TaskSpec::new(format!("w{i}"), 2).phase(Phase::SystemData {
                resource: wrm_core::ids::EXTERNAL.into(),
                bytes: 1e12,
                stream_cap: None,
            }));
        }
        let machine = machines::cori_haswell();
        let opts = SimOptions::default().with_contention(wrm_core::ids::EXTERNAL, 0.5);
        let scenario = Scenario::new(machine, wf).with_options(opts);
        assert!(run_fastpath(&scenario).is_none());
    }

    /// Node-limit queueing must fall back to the DES.
    #[test]
    fn bails_on_node_queueing() {
        let mut wf = WorkflowSpec::new("queued");
        for i in 0..5 {
            wf = wf.task(TaskSpec::new(format!("w{i}"), 8).phase(Phase::overhead("o", 10.0)));
        }
        let opts = SimOptions {
            node_limit: Some(16),
            ..SimOptions::default()
        };
        let scenario = Scenario::new(machines::cori_haswell(), wf).with_options(opts);
        assert!(run_fastpath(&scenario).is_none());
    }

    /// Generator for scenarios that are uncontended by construction:
    /// small stream-capped flows, loose pool. The
    /// fast path must engage and match both engines bit-identically.
    fn uncontended_workflow(seed: u64, n_tasks: usize) -> WorkflowSpec {
        let mut s = seed;
        let mut split = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut wf = WorkflowSpec::new(format!("unc[{seed}]"));
        for i in 0..n_tasks {
            let nodes = 1 + split() % 4;
            let mut t = TaskSpec::new(format!("t{i}"), nodes);
            for _ in 0..(split() % 3) {
                t = match split() % 3 {
                    0 => t.phase(Phase::overhead("o", (1 + split() % 400) as f64 / 10.0)),
                    1 => t.phase(Phase::Compute {
                        flops: (1 + split() % 1000) as f64 * 1e9,
                        efficiency: 0.25 + (split() % 100) as f64 / 200.0,
                    }),
                    // Tiny stream caps: 12 tasks x 1e8 B/s stays far
                    // below either machine's external capacity.
                    _ => t.phase(Phase::SystemData {
                        resource: wrm_core::ids::EXTERNAL.into(),
                        bytes: (1 + split() % 500) as f64 * 1e8,
                        stream_cap: Some(1e8),
                    }),
                };
            }
            if i > 0 {
                for _ in 0..(split() % 3).min(i as u64) {
                    let d = (split() as usize) % i;
                    t = t.after(format!("t{d}"));
                }
            }
            wf = wf.task(t);
        }
        wf
    }

    proptest! {
        /// The fast-path satellite contract: on generated uncontended
        /// scenarios the analytic schedule is bit-identical to the DES
        /// and to the reference oracle.
        #[test]
        fn fastpath_is_bit_identical_on_uncontended_scenarios(
            seed in any::<u64>(),
            n_tasks in 1usize..12,
            machine_ix in 0usize..2,
            backfill in any::<bool>(),
        ) {
            let machine = if machine_ix == 0 {
                machines::cori_haswell()
            } else {
                machines::perlmutter_cpu()
            };
            let wf = uncontended_workflow(seed, n_tasks);
            let opts = SimOptions {
                scheduler: if backfill {
                    crate::engine::SchedulerPolicy::Backfill
                } else {
                    crate::engine::SchedulerPolicy::Fifo
                },
                ..SimOptions::default()
            };
            let scenario = Scenario::new(machine, wf).with_options(opts);
            // Random durations can (rarely) land within the collision
            // tolerance, where the fast path soundly bails.
            if let Some(fast) = run_fastpath(&scenario) {
                let des = simulate(&scenario).expect("DES succeeds");
                let refr = simulate_reference(&scenario).expect("reference succeeds");
                prop_assert_eq!(canonicalize(fast.clone()), canonicalize(des));
                prop_assert_eq!(canonicalize(fast), canonicalize(refr));
            } else {
                // Bailing is allowed (sound), but the DES must agree the
                // scenario at least runs.
                simulate(&scenario).expect("DES succeeds");
            }
        }
    }
}
