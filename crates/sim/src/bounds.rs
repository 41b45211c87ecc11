//! Two-sided makespan certification: `lo <= makespan <= hi` for every
//! admissible schedule of a scenario, with a witness decomposition.
//!
//! Both ends are derived directly from the simulator's own lowered
//! form ([`crate::index::BaseIndex`] plus its per-options overlay), so
//! they are certified against the exact semantics the DES executes, and
//! the upper end stays finite under contention:
//!
//! * **Lower bound** `lo = max(CP_lo, max_ch sum(bytes)/C_ch, W_lo/P)`:
//!   the critical path with every task alone on every channel, each
//!   channel's aggregate byte volume over its capacity, and the
//!   node-pool occupancy floor.
//! * **Upper bound** `hi = min(sum d_hi, CP_hi + W_hi/(P - q_max + 1))`:
//!   full serialization, and a Graham/list-scheduling bound. Per-task
//!   `d_hi` prices worst-case contention through a *guaranteed floor
//!   rate* per flow: under max-min sharing a flow on a channel of
//!   capacity `C` with at most `n` concurrent demands always receives at
//!   least `min(cap, max(C/n, C - S_other))` where `S_other` sums the
//!   other demands' caps. `n` is capped by node-pool co-schedulability
//!   ([`wrm_dag::max_coschedulable`]): flows whose tasks cannot hold
//!   nodes simultaneously never compete.
//!
//! The Graham argument, engine-exact: split time into instants where
//! `free >= q_max` (any ready task starts immediately under both Fifo
//! and Backfill, so a critical-chain task is always running — at most
//! `CP_hi` such time) and instants where `free < q_max` (at least
//! `P - q_max + 1` nodes are busy, so node-seconds bound that time by
//! `W_hi / (P - q_max + 1)`).
//!
//! Soundness is not an argument on paper only: the bracketing oracle
//! (`tests/bracketing.rs`, plus the workflow- and lint-crate oracles)
//! asserts `lo <= simulate(spec).makespan <= hi` across the paper
//! workflows, every shipped spec, sweep grids, and proptest-random DAGs.

use crate::engine::{SimError, SimOptions};
use crate::index::{BaseIndex, PhaseIx};
use crate::overlay::IndexOverlay;
use crate::spec::{Phase, WorkflowSpec};
use serde::Serialize;
use std::collections::BTreeMap;
use wrm_core::attribution::{classify_terms, BoundClass};
use wrm_core::Machine;

/// One term of a bound decomposition, with its position on the
/// must-bind / may-bind lattice (see [`wrm_core::attribution`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TermBound {
    /// Term class (`chain`, `system-channel`, `node-pool`, `compute`,
    /// `node-resource`, `overhead`).
    pub class: String,
    /// Resource id for channel/node-resource terms.
    pub resource: Option<String>,
    /// Least time this term can account for.
    pub lo: f64,
    /// Most time this term can account for.
    pub hi: f64,
    /// `"must"`, `"may"`, or `"no"`: whether the term binds in all,
    /// some, or no admissible schedules.
    pub binds: String,
}

/// Certified duration interval of one task, with per-class attribution.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TaskBound {
    /// Task name (post-expansion, e.g. `analyze[3]`).
    pub name: String,
    /// Node allocation.
    pub nodes: u64,
    /// Duration with every channel to itself.
    pub lo: f64,
    /// Duration under worst admissible contention.
    pub hi: f64,
    /// Phase-class decomposition with binding strengths.
    pub terms: Vec<TermBound>,
}

/// One channel's aggregate-volume floor on makespan.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChannelFloor {
    /// Resource id.
    pub resource: String,
    /// Total bytes the workflow moves through the channel.
    pub bytes: f64,
    /// Effective capacity (contention-scaled) in bytes/s.
    pub capacity: f64,
    /// `bytes / capacity`: a lower bound on makespan.
    pub floor: f64,
}

/// A certified two-sided makespan interval with its witness
/// decomposition. Every field is deterministic for a given scenario
/// (orderings follow spec/machine declaration order), so rendering a
/// certificate is byte-identical across runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Certificate {
    /// Certified lower bound: no admissible schedule finishes earlier.
    pub lo: f64,
    /// Certified upper bound: every admissible schedule finishes by
    /// here. Finite whenever every flow has a positive floor rate.
    pub hi: f64,
    /// Critical-path length under `lo`-end task durations.
    pub cp_lo: f64,
    /// Critical-path length under `hi`-end task durations.
    pub cp_hi: f64,
    /// The chain attaining `cp_lo`, in dependency order.
    pub cp_lo_witness: Vec<String>,
    /// The chain attaining `cp_hi`, in dependency order.
    pub cp_witness: Vec<String>,
    /// Full-serialization upper bound (`sum d_hi`).
    pub serial_hi: f64,
    /// Graham bound (`cp_hi + work_hi / (pool - max_task_nodes + 1)`).
    pub graham_hi: f64,
    /// Worst-case node-seconds (`sum nodes * d_hi`).
    pub work_hi: f64,
    /// The usable node pool the bound is computed against.
    pub pool_nodes: u64,
    /// Largest single-task allocation.
    pub max_task_nodes: u64,
    /// Node-pool occupancy floor (`sum nodes * d_lo / pool`).
    pub pool_floor: f64,
    /// The pool floor with every channel flow priced at zero.
    pub pool_floor_fixed: f64,
    /// Lower bound with all channel flows priced at zero: what remains
    /// infeasible here is infeasible under *any* channel provisioning.
    pub lo_zero_channel: f64,
    /// Per-channel aggregate floors, in machine declaration order.
    pub channel_floors: Vec<ChannelFloor>,
    /// Workflow-level attribution: chain vs. channels vs. node pool.
    pub terms: Vec<TermBound>,
    /// Per-task intervals in spec order.
    pub tasks: Vec<TaskBound>,
}

impl Certificate {
    /// True when the interval is non-degenerate and finite on top.
    pub fn is_finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }
}

/// Per-channel contention context shared by every flow on the channel.
struct ChannelCtx {
    /// Effective capacity (contention-scaled).
    capacity: f64,
    /// Max concurrent demands: co-schedulable flow tasks.
    n_tot: usize,
    /// Sum of the *finite* per-task caps; a flow subtracts its own
    /// task's cap to get its `S_other`.
    finite_cap_sum: f64,
    /// Number of unbounded (infinite) per-task caps: any competitor
    /// without a cap voids the work-conservation refinement.
    inf_caps: usize,
    /// Total bytes through the channel (for the aggregate floor).
    bytes: f64,
}

/// Certifies `lo <= makespan <= hi` for `(machine, workflow, options)`.
/// Validation matches [`crate::simulate`] exactly: any scenario the
/// engine rejects is rejected here with the same error.
pub fn certify(
    machine: &Machine,
    workflow: &WorkflowSpec,
    options: &SimOptions,
) -> Result<Certificate, SimError> {
    let base = BaseIndex::build(machine, workflow)?;
    let overlay = IndexOverlay::build(&base, workflow, options)?;
    Ok(certify_indexed(workflow, &base, &overlay))
}

/// [`certify`] against a prebuilt [`BaseIndex`] — the resident server's
/// certify path, where the index comes out of a cache instead of being
/// rebuilt per request. `base` must have been built from this
/// `(machine, workflow)` pair; results are bit-identical to [`certify`].
pub fn certify_with_base(
    workflow: &WorkflowSpec,
    options: &SimOptions,
    base: &BaseIndex,
) -> Result<Certificate, SimError> {
    let overlay = IndexOverlay::build(base, workflow, options)?;
    Ok(certify_indexed(workflow, base, &overlay))
}

fn certify_indexed(
    workflow: &WorkflowSpec,
    base: &BaseIndex,
    overlay: &IndexOverlay,
) -> Certificate {
    let n = base.n_tasks();
    let pool = overlay.pool_total;

    // Per-channel contention context. A task with several flow phases on
    // one channel runs them sequentially, so it contributes one
    // concurrent demand (at its largest cap).
    let n_channels = overlay.channel_capacity.len();
    let mut task_cap_on: Vec<BTreeMap<u32, f64>> = vec![BTreeMap::new(); n];
    let mut channel_bytes = vec![0.0f64; n_channels];
    for (t, caps) in task_cap_on.iter_mut().enumerate() {
        for slot in base.phase_off[t] as usize..base.phase_off[t + 1] as usize {
            if let PhaseIx::Flow {
                channel,
                bytes,
                alloc_base,
                stream_base,
            } = base.phases[slot]
            {
                let cap = overlay.flow_cap(channel, alloc_base, stream_base);
                let e = caps.entry(channel).or_insert(0.0);
                *e = e.max(cap);
                channel_bytes[channel as usize] += bytes.max(0.0);
            }
        }
    }
    let channels: Vec<ChannelCtx> = (0..n_channels)
        .map(|ch| {
            let nodes_on: Vec<u64> = (0..n)
                .filter(|&t| task_cap_on[t].contains_key(&(ch as u32)))
                .map(|t| base.nodes[t])
                .collect();
            let k_pool = wrm_dag::max_coschedulable(&nodes_on, pool);
            let mut finite_cap_sum = 0.0f64;
            let mut inf_caps = 0usize;
            for c in (0..n).filter_map(|t| task_cap_on[t].get(&(ch as u32))) {
                if c.is_finite() {
                    finite_cap_sum += c;
                } else {
                    inf_caps += 1;
                }
            }
            ChannelCtx {
                capacity: overlay.channel_capacity[ch],
                n_tot: nodes_on.len().min(k_pool),
                finite_cap_sum,
                inf_caps,
                bytes: channel_bytes[ch],
            }
        })
        .collect();

    // Per-phase duration intervals, aligned with `base.phases`.
    let mut phase_lo = vec![0.0f64; base.phases.len()];
    let mut phase_hi = vec![0.0f64; base.phases.len()];
    for (t, caps) in task_cap_on.iter().enumerate() {
        for slot in base.phase_off[t] as usize..base.phase_off[t + 1] as usize {
            let (lo, hi) = match base.phases[slot] {
                PhaseIx::Fixed { duration } => {
                    let d = duration.max(0.0);
                    (d, d)
                }
                PhaseIx::Flow {
                    channel,
                    bytes,
                    alloc_base,
                    stream_base,
                } => {
                    let ctx = &channels[channel as usize];
                    let cap = overlay.flow_cap(channel, alloc_base, stream_base);
                    let alone = cap.min(ctx.capacity);
                    let own = caps[&channel];
                    let floor = floor_rate(ctx, cap, own);
                    (flow_time(bytes, alone), flow_time(bytes, floor))
                }
            };
            phase_lo[slot] = lo;
            phase_hi[slot] = hi;
        }
    }

    // Per-task intervals and the fixed-only (channels-zeroed) variant.
    let mut d_lo = vec![0.0f64; n];
    let mut d_hi = vec![0.0f64; n];
    let mut d_fixed_lo = vec![0.0f64; n];
    for t in 0..n {
        for slot in base.phase_off[t] as usize..base.phase_off[t + 1] as usize {
            d_lo[t] += phase_lo[slot];
            d_hi[t] += phase_hi[slot];
            if matches!(base.phases[slot], PhaseIx::Fixed { .. }) {
                d_fixed_lo[t] += phase_lo[slot];
            }
        }
    }

    let (cp_lo, lo_witness) = longest_path(base, &d_lo);
    let (cp_hi, witness) = longest_path(base, &d_hi);
    let (cp_fixed_lo, _) = longest_path(base, &d_fixed_lo);

    let work_lo = wrm_dag::resource_work(&base.nodes, &d_lo);
    let work_hi = wrm_dag::resource_work(&base.nodes, &d_hi);
    let work_fixed_lo = wrm_dag::resource_work(&base.nodes, &d_fixed_lo);
    let pool_f = pool.max(1) as f64;
    let pool_floor = work_lo / pool_f;
    let pool_floor_fixed = work_fixed_lo / pool_f;

    let channel_floors: Vec<ChannelFloor> = (0..n_channels)
        .filter(|&ch| channels[ch].bytes > 0.0)
        .map(|ch| ChannelFloor {
            resource: base.channel_ids[ch].clone(),
            bytes: channels[ch].bytes,
            capacity: channels[ch].capacity,
            floor: flow_time(channels[ch].bytes, channels[ch].capacity),
        })
        .collect();
    let channel_floor_max = channel_floors.iter().map(|c| c.floor).fold(0.0, f64::max);

    let lo = cp_lo.max(channel_floor_max).max(pool_floor);
    let lo_zero_channel = cp_fixed_lo.max(pool_floor_fixed);

    let q_max = base.nodes.iter().copied().max().unwrap_or(0);
    // Validation guarantees pool >= q_max; the +1 keeps the divisor
    // positive even when one task spans the whole pool.
    let graham_div = (pool.saturating_sub(q_max) + 1) as f64;
    let serial_hi: f64 = d_hi.iter().sum();
    let graham_hi = cp_hi + work_hi / graham_div;
    let hi = serial_hi.min(graham_hi).max(lo);

    // Workflow-level attribution: the chain's contribution ranges over
    // [cp_lo, cp_hi]; the floors are exact.
    let mut term_data: Vec<(BoundClass, Option<String>, f64, f64)> =
        vec![(BoundClass::Chain, None, cp_lo, cp_hi)];
    for cf in &channel_floors {
        term_data.push((
            BoundClass::SystemChannel,
            Some(cf.resource.clone()),
            cf.floor,
            cf.floor,
        ));
    }
    term_data.push((BoundClass::NodePool, None, pool_floor, pool_floor));
    let terms = attribute(term_data);

    let tasks: Vec<TaskBound> = (0..n)
        .map(|t| TaskBound {
            name: workflow.tasks[t].name.clone(),
            nodes: base.nodes[t],
            lo: d_lo[t],
            hi: d_hi[t],
            terms: attribute(task_terms(workflow, base, t, &phase_lo, &phase_hi)),
        })
        .collect();

    let names = |chain: Vec<usize>| -> Vec<String> {
        chain
            .into_iter()
            .map(|t| workflow.tasks[t].name.clone())
            .collect()
    };
    Certificate {
        lo,
        hi,
        cp_lo,
        cp_hi,
        cp_lo_witness: names(lo_witness),
        cp_witness: names(witness),
        serial_hi,
        graham_hi,
        work_hi,
        pool_nodes: pool,
        max_task_nodes: q_max,
        pool_floor,
        pool_floor_fixed,
        lo_zero_channel,
        channel_floors,
        terms,
        tasks,
    }
}

/// The guaranteed floor rate of one flow whose own cap is `cap`, where
/// `own` is its task's largest cap on the channel (the task's entry in
/// the channel's cap sums).
fn floor_rate(ctx: &ChannelCtx, cap: f64, own: f64) -> f64 {
    let equal_share = ctx.capacity / ctx.n_tot.max(1) as f64;
    // Work conservation: the flow gets whatever the others' caps leave
    // over, if that beats the equal share. An unbounded competitor voids
    // the refinement (its demand can absorb everything above the fair
    // share).
    let others_inf = ctx.inf_caps - usize::from(!own.is_finite());
    let leftover = if others_inf > 0 {
        f64::NEG_INFINITY
    } else {
        let s_other = ctx.finite_cap_sum - if own.is_finite() { own } else { 0.0 };
        ctx.capacity - s_other
    };
    cap.min(equal_share.max(leftover))
}

/// `bytes / rate` with the degenerate ends pinned: no bytes takes no
/// time, bytes with no rate never finish.
fn flow_time(bytes: f64, rate: f64) -> f64 {
    let bytes = bytes.max(0.0);
    if bytes == 0.0 {
        0.0
    } else if rate > 0.0 {
        bytes / rate
    } else {
        f64::INFINITY
    }
}

/// Longest path over the base CSR with the given per-task durations,
/// plus the argmax chain (ties resolve to the lowest task index, so the
/// witness is deterministic).
fn longest_path(base: &BaseIndex, dur: &[f64]) -> (f64, Vec<usize>) {
    let n = base.n_tasks();
    if n == 0 {
        return (0.0, Vec::new());
    }
    let mut remaining = base.dep_count.clone();
    let mut start = vec![0.0f64; n];
    let mut end = vec![0.0f64; n];
    let mut via: Vec<Option<usize>> = vec![None; n];
    // Ascending-index processing for witness determinism.
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&t| remaining[t] == 0)
        .map(std::cmp::Reverse)
        .collect();
    let mut visited = 0usize;
    while let Some(std::cmp::Reverse(t)) = ready.pop() {
        visited += 1;
        end[t] = start[t] + dur[t];
        let lo = base.dependents_off[t] as usize;
        let hi = base.dependents_off[t + 1] as usize;
        for &d in &base.dependents[lo..hi] {
            let du = d as usize;
            if end[t] > start[du] {
                start[du] = end[t];
                via[du] = Some(t);
            }
            remaining[du] -= 1;
            if remaining[du] == 0 {
                ready.push(std::cmp::Reverse(du));
            }
        }
    }
    debug_assert_eq!(visited, n, "spec validation rejects cycles");
    let last = (0..n)
        .max_by(|&a, &b| end[a].total_cmp(&end[b]).then(b.cmp(&a)))
        .expect("n > 0");
    let mut chain = vec![last];
    let mut cur = last;
    while let Some(p) = via[cur] {
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    (end[last], chain)
}

/// Per-task phase-class decomposition: `(class, resource, lo, hi)` per
/// distinct (class, resource) pair, in class order.
fn task_terms(
    workflow: &WorkflowSpec,
    base: &BaseIndex,
    t: usize,
    phase_lo: &[f64],
    phase_hi: &[f64],
) -> Vec<(BoundClass, Option<String>, f64, f64)> {
    let mut agg: BTreeMap<(BoundClass, Option<String>), (f64, f64)> = BTreeMap::new();
    for (pi, phase) in workflow.tasks[t].phases.iter().enumerate() {
        let slot = base.phase_off[t] as usize + pi;
        let key = match phase {
            Phase::Compute { .. } => (BoundClass::Compute, None),
            Phase::NodeData { resource, .. } => (BoundClass::NodeResource, Some(resource.clone())),
            Phase::SystemData { resource, .. } => {
                (BoundClass::SystemChannel, Some(resource.clone()))
            }
            Phase::Overhead { .. } => (BoundClass::Overhead, None),
        };
        let e = agg.entry(key).or_insert((0.0, 0.0));
        e.0 += phase_lo[slot];
        e.1 += phase_hi[slot];
    }
    agg.into_iter()
        .map(|((class, resource), (lo, hi))| (class, resource, lo, hi))
        .collect()
}

/// Classifies a term decomposition on the binding lattice.
fn attribute(data: Vec<(BoundClass, Option<String>, f64, f64)>) -> Vec<TermBound> {
    let intervals: Vec<(f64, f64)> = data.iter().map(|&(_, _, lo, hi)| (lo, hi)).collect();
    let strengths = classify_terms(&intervals);
    data.into_iter()
        .zip(strengths)
        .map(|((class, resource, lo, hi), s)| TermBound {
            class: class.as_str().to_owned(),
            resource,
            lo,
            hi,
            binds: s.as_str().to_owned(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, Scenario};
    use crate::spec::{Phase, TaskSpec, WorkflowSpec};
    use wrm_core::machines;

    fn lcls_like(streams: usize) -> WorkflowSpec {
        let mut wf = WorkflowSpec::new("lcls-lite");
        for i in 0..streams {
            wf = wf.task(
                TaskSpec::new(format!("analyze[{i}]"), 32).phase(Phase::SystemData {
                    resource: wrm_core::ids::EXTERNAL.into(),
                    bytes: 1e12,
                    stream_cap: Some(1e9),
                }),
            );
        }
        wf
    }

    #[test]
    fn brackets_the_capped_stream_case() {
        let machine = machines::cori_haswell();
        let wf = lcls_like(5);
        let scenario = Scenario::new(machine.clone(), wf.clone());
        let cert = certify(&machine, &wf, &SimOptions::default()).unwrap();
        let makespan = simulate(&scenario).unwrap().makespan;
        assert!(
            cert.lo * (1.0 - 1e-6) <= makespan,
            "{} > {makespan}",
            cert.lo
        );
        assert!(makespan <= cert.hi, "{makespan} > {}", cert.hi);
        assert!(cert.hi.is_finite());
        // Five capped 1 GB/s streams on a 5 GB/s link: the caps prevent
        // any contention slowdown, so `hi` is the Graham bound
        // `cp_hi + W_hi / (P - q_max + 1)` with cp_hi = 1000 s.
        assert!((cert.lo - 1000.0).abs() < 1e-6, "{}", cert.lo);
        assert_eq!(cert.hi, cert.graham_hi);
        let slack = 5.0 * 32.0 * 1000.0 / (cert.pool_nodes - 32 + 1) as f64;
        assert!((cert.hi - (1000.0 + slack)).abs() < 1e-6, "{}", cert.hi);
    }

    #[test]
    fn uncapped_contention_stays_bracketed() {
        // Two uncapped 1 TB transfers on cori's 5 GB/s ext channel:
        // alone 200 s each, fair-shared 400 s each; the floor rate is
        // C/2 so hi covers the contended schedule.
        let machine = machines::cori_haswell();
        let wf = WorkflowSpec::new("pair")
            .task(TaskSpec::new("a", 1).phase(Phase::system_data(wrm_core::ids::EXTERNAL, 1e12)))
            .task(TaskSpec::new("b", 1).phase(Phase::system_data(wrm_core::ids::EXTERNAL, 1e12)));
        let cert = certify(&machine, &wf, &SimOptions::default()).unwrap();
        let makespan = simulate(&Scenario::new(machine, wf)).unwrap().makespan;
        // Aggregate floor: 2 TB / 5 GB/s = 400 s = the actual makespan.
        assert!((cert.lo - 400.0).abs() < 1e-6, "{}", cert.lo);
        assert!(cert.lo * (1.0 - 1e-6) <= makespan && makespan <= cert.hi);
    }

    #[test]
    fn certification_matches_simulate_validation() {
        let machine = machines::cori_haswell();
        let wf = WorkflowSpec::new("bad")
            .task(TaskSpec::new("x", 1).phase(Phase::system_data("nope", 1e9)));
        let cert_err = certify(&machine, &wf, &SimOptions::default()).unwrap_err();
        let sim_err = simulate(&Scenario::new(machine, wf)).unwrap_err();
        assert_eq!(cert_err, sim_err);
    }

    #[test]
    fn zero_channel_bound_ignores_flows() {
        let machine = machines::cori_haswell();
        let wf = WorkflowSpec::new("mixed")
            .task(
                TaskSpec::new("fetch", 1).phase(Phase::system_data(wrm_core::ids::EXTERNAL, 1e12)),
            )
            .task(
                TaskSpec::new("crunch", 1)
                    .after("fetch")
                    .phase(Phase::overhead("think", 50.0)),
            );
        let cert = certify(&machine, &wf, &SimOptions::default()).unwrap();
        assert!(cert.lo >= 200.0, "flow dominates lo: {}", cert.lo);
        assert!((cert.lo_zero_channel - 50.0).abs() < 1e-9);
    }

    #[test]
    fn each_critical_path_end_names_its_own_chain() {
        // `a` takes 80 s whatever the contention; each capped `b` takes
        // 60 s alone but 90 s at its 2/3 GB/s floor rate. The lower
        // end's chain is `a`, the upper end's a `b` replica.
        let machine = Machine::builder("m", 8)
            .system("ext", "ext", wrm_core::BytesPerSec::gbps(2.0))
            .build()
            .unwrap();
        let mut wf =
            WorkflowSpec::new("w").task(TaskSpec::new("a", 1).phase(Phase::overhead("o", 80.0)));
        for i in 0..3 {
            wf = wf.task(
                TaskSpec::new(format!("b[{i}]"), 1).phase(Phase::SystemData {
                    resource: "ext".into(),
                    bytes: 60e9,
                    stream_cap: Some(1e9),
                }),
            );
        }
        let cert = certify(&machine, &wf, &SimOptions::default()).unwrap();
        assert!((cert.cp_lo - 80.0).abs() < 1e-9 && (cert.cp_hi - 90.0).abs() < 1e-9);
        assert_eq!(cert.cp_lo_witness, ["a"]);
        assert_eq!(cert.cp_witness, ["b[0]"]);
    }

    #[test]
    fn certificate_is_deterministic() {
        let machine = machines::cori_haswell();
        let wf = lcls_like(3);
        let a = certify(&machine, &wf, &SimOptions::default()).unwrap();
        let b = certify(&machine, &wf, &SimOptions::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
