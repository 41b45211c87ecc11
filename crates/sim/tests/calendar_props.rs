//! Equivalence oracles for the calendar-queue engine, arena reuse and
//! the streaming summary mode.
//!
//! The contract is the usual one for this repo's engine work:
//! *bit-identical* results — same makespan, same trace spans in the
//! same order, same task times, same errors — between the production
//! engine (bucketed calendar queue) and the string-keyed reference
//! engine, on randomly generated layered and fork–join DAGs under
//! contention, node limits and both schedulers. The same holds for the
//! `*_with_base` entry points on a [`wrm_sim::SimArena`] that a
//! differently shaped scenario has already used: a warm arena must
//! never leak state between runs. (The queue itself is checked against
//! a binary heap, peek by peek, by the unit fuzz in `calendar.rs`.)
//!
//! Summary mode ([`wrm_sim::simulate_summary`]) is checked against
//! aggregates recomputed from the full result: makespan, span count and
//! node-seconds must match bit for bit (the streaming folds replicate
//! the full engine's expressions in the same order); per-channel busy
//! time and bytes are recomputed from the trace's flow spans by
//! interval merging, which may legitimately differ in the last ulp at
//! touching interval boundaries, so those two carry a 1e-9 relative
//! tolerance.
//!
//! The engine skips the max–min solve on a channel whose members all
//! run at their caps while the caps fit under its capacity. The
//! crossing oracle drives capped flows whose cap sum rises above a
//! channel's capacity and falls back under it, and checks whole runs,
//! and sweeps over that channel's factor, against the reference engine
//! and per-point runs.

use proptest::prelude::*;
use wrm_core::{ids, BytesPerSec, FlopsPerSec, Machine, Rate};
use wrm_dag::generate::{fork_join_tasks, random_layered_tasks};
use wrm_sim::reference::simulate_reference;
use wrm_sim::{
    simulate, simulate_summary, simulate_summary_with_base, simulate_with_base, sweep_grid,
    BaseIndex, Phase, Scenario, SchedulerPolicy, SimArena, SimOptions, SimResult, SimSummary,
    SweepGrid, TaskSpec, WorkflowSpec,
};
use wrm_trace::SpanKind;

fn machine(pool: u64, fs_gbps: f64) -> Machine {
    Machine::builder("cal-oracle", pool)
        .node(
            ids::COMPUTE,
            "CPU",
            Rate::FlopsPerSec(FlopsPerSec::tflops(1.0)),
        )
        .system(ids::FILE_SYSTEM, "fs", BytesPerSec::gbps(fs_gbps))
        .system(ids::EXTERNAL, "ext", BytesPerSec::gbps(5.0))
        .build()
        .unwrap()
}

/// A generated workload (layered or fork–join skeleton) with a mix of
/// overhead, compute, and capped/uncapped flows on two channels.
fn workload(seed: u64, n_tasks: usize, max_width: usize, fork_join: bool) -> WorkflowSpec {
    let tasks = if fork_join {
        fork_join_tasks(seed, n_tasks, max_width, 8, 30.0)
    } else {
        random_layered_tasks(seed, n_tasks, max_width, 8, 30.0)
    };
    let mut wf = WorkflowSpec::new(format!("cal[{seed}]"));
    for (i, t) in tasks.iter().enumerate() {
        let mut spec = TaskSpec::new(&t.name, t.nodes);
        spec = match i % 5 {
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
                .phase(Phase::overhead("teardown", 1.0)),
            3 => spec
                .phase(Phase::system_data(ids::FILE_SYSTEM, 2e9))
                .phase(Phase::system_data(ids::EXTERNAL, 1e9)),
            _ => spec.phase(Phase::overhead("work", t.duration)),
        };
        for &d in &t.deps {
            spec = spec.after(tasks[d].name.clone());
        }
        wf = wf.task(spec);
    }
    wf
}

/// Asserts `simulate_summary` agrees with aggregates of the full result,
/// and returns that summary.
fn assert_summary_matches(scenario: &Scenario, full: &SimResult) -> SimSummary {
    let sum = simulate_summary(scenario).expect("summary mode runs where the full engine runs");
    assert_eq!(
        sum.makespan, full.makespan,
        "makespan must match bit for bit"
    );
    assert_eq!(sum.n_spans as usize, full.trace.spans.len(), "span count");
    assert_eq!(sum.n_tasks, scenario.workflow.tasks.len());
    assert_eq!(sum.pool_nodes, full.pool_nodes);

    // Node-seconds: the summary folds nodes * (end - start) in task
    // index order; replicate the same sequence of operations.
    let mut want_ns = 0.0;
    for t in &scenario.workflow.tasks {
        want_ns += t.nodes as f64 * full.task_times[t.name.as_str()];
    }
    assert_eq!(sum.node_seconds, want_ns, "node-seconds fold");

    // Per-channel flow aggregates from the trace's flow spans.
    for ch in &sum.channels {
        let spans: Vec<(f64, f64, f64)> = full
            .trace
            .spans
            .iter()
            .filter_map(|s| match &s.kind {
                SpanKind::SystemData { resource, bytes } if **resource == *ch.resource => {
                    Some((s.start, s.end, *bytes))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            ch.flows,
            spans.len() as u64,
            "flow count on {}",
            ch.resource
        );
        let want_bytes: f64 = spans.iter().map(|&(_, _, b)| b).sum();
        assert!(
            (ch.bytes - want_bytes).abs() <= 1e-9 * want_bytes.max(1.0),
            "bytes on {}: {} vs {}",
            ch.resource,
            ch.bytes,
            want_bytes
        );
        // Busy time = measure of the union of flow-presence intervals.
        let mut iv: Vec<(f64, f64)> = spans.iter().map(|&(s, e, _)| (s, e)).collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut want_busy = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (s, e) in iv {
            match &mut cur {
                Some((_, ce)) if s <= *ce => *ce = ce.max(e),
                _ => {
                    if let Some((cs, ce)) = cur.take() {
                        want_busy += ce - cs;
                    }
                    cur = Some((s, e));
                }
            }
        }
        if let Some((cs, ce)) = cur {
            want_busy += ce - cs;
        }
        assert!(
            (ch.busy - want_busy).abs() <= 1e-9 * want_busy.max(1.0),
            "busy on {}: {} vs {}",
            ch.resource,
            ch.busy,
            want_busy
        );
        assert!(
            ch.busy <= sum.makespan * (1.0 + 1e-9) + 1e-9,
            "busy cannot exceed the makespan"
        );
    }

    // Critical tail: valid task names, consistent lengths, and the walk
    // starts (tail's last element) at a task attaining the final end.
    if sum.n_tasks == 0 {
        assert_eq!(sum.critical_tail_len, 0);
        assert!(sum.critical_tail.is_empty());
    } else {
        assert!(sum.critical_tail_len >= 1);
        assert!(sum.critical_tail.len() <= 32);
        if sum.critical_tail_len <= 32 {
            assert_eq!(sum.critical_tail.len(), sum.critical_tail_len);
        }
        for name in &sum.critical_tail {
            assert!(
                full.task_times.contains_key(name.as_str()),
                "tail names a real task: {name}"
            );
        }
    }
    sum
}

/// An arena that a differently shaped scenario — 17 more tasks than
/// `n_tasks`, three shared channels instead of two — has already run
/// through in both modes, so every buffer holds stale state.
fn used_arena(n_tasks: usize) -> SimArena {
    let machine = Machine::builder("cal-other", 64)
        .node(
            ids::COMPUTE,
            "CPU",
            Rate::FlopsPerSec(FlopsPerSec::tflops(1.0)),
        )
        .system(ids::FILE_SYSTEM, "fs", BytesPerSec::gbps(3.0))
        .system(ids::NETWORK, "net", BytesPerSec::gbps(7.0))
        .system(ids::EXTERNAL, "ext", BytesPerSec::gbps(2.0))
        .build()
        .unwrap();
    let other = Scenario::new(
        machine,
        workload(99, n_tasks + 17, 6, n_tasks.is_multiple_of(2)),
    );
    let base = BaseIndex::build(&other.machine, &other.workflow).unwrap();
    let mut arena = SimArena::new();
    simulate_with_base(&other, &base, &mut arena).unwrap();
    simulate_summary_with_base(&other, &base, &mut arena).unwrap();
    arena
}

/// Runs one scenario through the engine, the reference engine, summary
/// mode, and both `*_with_base` entry points on used arenas, and asserts
/// full equivalence.
fn assert_equivalent(scenario: &Scenario, what: &str) {
    let n = scenario.workflow.tasks.len();
    let warm = BaseIndex::build(&scenario.machine, &scenario.workflow).map(|base| {
        (
            simulate_with_base(scenario, &base, &mut used_arena(n)),
            simulate_summary_with_base(scenario, &base, &mut used_arena(n)),
        )
    });
    match (simulate(scenario), simulate_reference(scenario)) {
        (Ok(d), Ok(r)) => {
            assert_eq!(d, r, "{what}: calendar queue vs reference");
            let sum = assert_summary_matches(scenario, &d);
            let (warm_full, warm_sum) = warm.expect("the base builds for a runnable scenario");
            assert_eq!(warm_full, Ok(r), "{what}: used arena vs reference");
            assert_eq!(warm_sum, Ok(sum), "{what}: used-arena summary vs fresh");
        }
        (Err(d), Err(r)) => {
            assert_eq!(d, r, "{what}: error parity vs reference");
            let s = simulate_summary(scenario).expect_err("summary rejects what full rejects");
            assert_eq!(d, s, "{what}: error parity vs summary");
            match warm {
                Ok((warm_full, warm_sum)) => {
                    assert_eq!(
                        warm_full,
                        Err(d.clone()),
                        "{what}: error parity, used arena"
                    );
                    assert_eq!(warm_sum, Err(d), "{what}: error parity, used-arena summary");
                }
                Err(e) => assert_eq!(e, d, "{what}: error parity, base index"),
            }
        }
        (d, r) => panic!("{what}: engines disagree on success: {d:?} / {r:?}"),
    }
}

proptest! {
    /// Random layered and fork–join DAGs under contention, node limits
    /// and both schedulers: engine == reference (fresh or used arena),
    /// and summary == full-result aggregates.
    #[test]
    fn calendars_and_summary_agree_on_random_dags(
        seed in any::<u64>(),
        n_tasks in 1usize..40,
        max_width in 1usize..8,
        fork_join in any::<bool>(),
        pool in 8u64..64,
        factor in 0.05f64..2.0,
        backfill in any::<bool>(),
        limit in any::<bool>(),
    ) {
        let wf = workload(seed, n_tasks, max_width, fork_join);
        let mut opts = SimOptions {
            scheduler: if backfill { SchedulerPolicy::Backfill } else { SchedulerPolicy::Fifo },
            node_limit: limit.then_some(8),
            ..SimOptions::default()
        };
        opts = opts.with_contention(ids::FILE_SYSTEM, factor);
        let scenario = Scenario::new(machine(pool, 10.0), wf).with_options(opts);
        assert_equivalent(&scenario, "random");
    }
}

/// Deterministic larger workloads, sized to force the calendar queue
/// through several grow/shrink resizes and wide same-instant barrier
/// drains, with arenas first used by a larger scenario.
#[test]
fn large_generated_dags_agree_across_calendars() {
    for fork_join in [false, true] {
        let wf = workload(42, 2_000, 64, fork_join);
        let scenario = Scenario::new(machine(512, 40.0), wf);
        assert_equivalent(
            &scenario,
            if fork_join { "fj-2000" } else { "layered-2000" },
        );
    }
}

/// Error scenarios hit the same first error in every engine and mode.
#[test]
fn error_parity_across_calendars() {
    // Unknown resource.
    let wf = WorkflowSpec::new("bad-res")
        .task(TaskSpec::new("t", 1).phase(Phase::system_data("no-such-channel", 1e9)));
    assert_equivalent(&Scenario::new(machine(8, 1.0), wf), "unknown-resource");
    // Task larger than the pool.
    let wf = WorkflowSpec::new("too-big")
        .task(TaskSpec::new("t", 1_000_000).phase(Phase::overhead("o", 1.0)));
    assert_equivalent(&Scenario::new(machine(8, 1.0), wf), "too-large");
    // Dependency cycle.
    let wf = WorkflowSpec::new("cycle")
        .task(
            TaskSpec::new("a", 1)
                .after("b")
                .phase(Phase::overhead("o", 1.0)),
        )
        .task(
            TaskSpec::new("b", 1)
                .after("a")
                .phase(Phase::overhead("o", 1.0)),
        );
    assert_equivalent(&Scenario::new(machine(8, 1.0), wf), "cycle");
}

/// The empty workflow: zero tasks, zero makespan, empty tail.
#[test]
fn empty_workflow_summary() {
    let scenario = Scenario::new(machine(8, 1.0), WorkflowSpec::new("empty"));
    let full = simulate(&scenario).unwrap();
    assert_eq!(full.makespan, 0.0);
    assert_summary_matches(&scenario, &full);
}

/// File-system capacity of the crossing workloads, in bytes/s.
const CROSSING_FS: f64 = 10e9;

/// The smallest positive stream cap: a contention factor of 0.5 rounds
/// it to a zero cap.
const TINY_CAP: f64 = 5e-324;

/// Staggered capped file-system flows whose caps (1–4 GB/s on a 10 GB/s
/// channel) sum above the capacity while many overlap and back under it
/// as they finish, plus the members the under-capacity skip must treat
/// with care: zero-byte flows born finished at a task's start (joining
/// the channel for one solve) and mid-task (never joining), zero-byte
/// flows whose cap is zero or sub-normal, uncapped flows joining between
/// capped ones and, when `stall` is set, one zero- or sub-normal-cap
/// flow with bytes, which starves and stalls the run. The first `front`
/// tasks open with a capped flow, so that batch is the channel's first
/// join and a sweep over its factor checkpoints on it. Returns the
/// workflow and each capped flow's task name and stream cap, in task
/// order.
fn crossing_workload(
    seed: u64,
    n_tasks: usize,
    front: usize,
    stall: bool,
) -> (WorkflowSpec, Vec<(String, f64)>) {
    let mut s = seed;
    let mut next = move |m: u64| {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % m
    };
    let fs = |bytes: f64, cap: Option<f64>| Phase::SystemData {
        resource: ids::FILE_SYSTEM.into(),
        bytes,
        stream_cap: cap,
    };
    let mut wf = WorkflowSpec::new(format!("crossing[{seed}]"));
    let mut capped = Vec::new();
    for i in 0..n_tasks {
        let name = format!("t{i}");
        let mut t = TaskSpec::new(&name, 1 + next(3));
        if i > 0 && next(4) == 0 {
            t = t.after(format!("t{}", next(i as u64)));
        }
        let stagger = Phase::overhead("stagger", next(9) as f64);
        if i < front {
            let cap = (2 + next(3)) as f64 * 1e9;
            capped.push((name, cap));
            wf = wf.task(
                t.phase(fs((2 + next(29)) as f64 * 1e9, Some(cap)))
                    .phase(stagger),
            );
            continue;
        }
        t = match next(10) {
            0 => t.phase(fs(0.0, Some(1e9))).phase(Phase::overhead("o", 1.0)),
            1 => t
                .phase(stagger)
                .phase(fs(0.0, Some(TINY_CAP)))
                .phase(fs(0.0, Some(1e9))),
            2 => t.phase(fs(0.0, Some(TINY_CAP))).phase(stagger),
            3 => t
                .phase(stagger)
                .phase(fs((2 + next(10)) as f64 * 1e9, None)),
            _ => {
                let cap = (1 + next(4)) as f64 * 1e9;
                capped.push((name, cap));
                t.phase(stagger)
                    .phase(fs((2 + next(29)) as f64 * 1e9, Some(cap)))
                    .phase(Phase::overhead("post", next(3) as f64))
            }
        };
        wf = wf.task(t);
    }
    if stall {
        wf = wf.task(
            TaskSpec::new("starved", 1)
                .phase(Phase::overhead("stagger", next(9) as f64))
                .phase(fs(1e9, Some(TINY_CAP))),
        );
    }
    (wf, capped)
}

proptest! {
    /// Cap sums crossing the capacity both ways, under both schedulers,
    /// with and without a node limit: engine == reference (fresh or
    /// used arena), summary == full-result aggregates, and a sweep over
    /// the crossing channel's factor — checkpoint replay and cold runs
    /// — equals per-point `simulate`, spans in the same order.
    #[test]
    fn cap_sums_crossing_capacity_agree_with_reference(
        seed in any::<u64>(),
        n_tasks in 2usize..40,
        factor_ix in 0usize..3,
        backfill in any::<bool>(),
        limit in any::<bool>(),
        front in 0usize..7,
        stall_roll in 0u32..8,
    ) {
        let factors = [0.5, 1.0, 1.7];
        let (wf, _) = crossing_workload(seed, n_tasks, front, stall_roll == 0);
        let opts = SimOptions {
            scheduler: if backfill { SchedulerPolicy::Backfill } else { SchedulerPolicy::Fifo },
            node_limit: limit.then_some(6),
            ..SimOptions::default()
        }
        .with_contention(ids::FILE_SYSTEM, factors[factor_ix]);
        let scenario = Scenario::new(machine(64, CROSSING_FS / 1e9), wf).with_options(opts);
        assert_equivalent(&scenario, "crossing");

        let grid = SweepGrid {
            resource: Some(ids::FILE_SYSTEM.into()),
            factors: factors.to_vec(),
            node_limits: vec![None, Some(6)],
            policies: vec![SchedulerPolicy::Fifo, SchedulerPolicy::Backfill],
        };
        let outcome = sweep_grid(&scenario, &grid, 1);
        for fi in 0..grid.factors.len() {
            for ni in 0..grid.node_limits.len() {
                for pi in 0..grid.policies.len() {
                    let ix = grid.index_of(fi, ni, pi);
                    let point = Scenario {
                        options: grid.point_options(&scenario.options, fi, ni, pi),
                        ..scenario.clone()
                    };
                    prop_assert_eq!(&outcome.results[ix], &simulate(&point));
                }
            }
        }
    }
}

/// The crossing workloads do what the oracle above needs: in most runs
/// the capped flows' cap sum rises above the channel's capacity, and
/// later falls back to a positive sum under it.
#[test]
fn crossing_workloads_cross_capacity_both_ways() {
    let mut both_ways = 0;
    let seeds = 64;
    for seed in 0..seeds {
        let (wf, capped) = crossing_workload(seed, 30, (seed % 4) as usize, false);
        let full = simulate(&Scenario::new(machine(64, CROSSING_FS / 1e9), wf)).unwrap();
        let cap_of: std::collections::HashMap<&str, f64> =
            capped.iter().map(|(n, c)| (n.as_str(), *c)).collect();
        let flows: Vec<(f64, f64, f64)> = full
            .trace
            .spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::SystemData { .. }))
            .filter_map(|s| cap_of.get(&*s.task).map(|&c| (s.start, s.end, c)))
            .collect();
        let mut instants: Vec<f64> = flows.iter().map(|f| f.0).collect();
        instants.sort_by(f64::total_cmp);
        let mut over = false;
        let mut back_under = false;
        for &t in &instants {
            let sum: f64 = flows
                .iter()
                .filter(|f| f.0 <= t && t < f.1)
                .map(|f| f.2)
                .sum();
            if sum > CROSSING_FS {
                over = true;
            } else if over && sum > 0.0 {
                back_under = true;
            }
        }
        both_ways += usize::from(back_under);
    }
    assert!(
        both_ways * 2 > seeds as usize,
        "only {both_ways} of {seeds} runs crossed the capacity both ways"
    );
}
