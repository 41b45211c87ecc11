//! # wrm-bench — generated scenarios for the engine tests and the repo benchmark
//!
//! Deterministic, seeded workload builders: layered and fork–join DAGs
//! over many shared channels ([`generated_scenario`],
//! [`generated_fork_join_scenario`]), a distributional Monte-Carlo
//! workload ([`mc_scenario`]) and the incremental-sweep pipeline
//! ([`sweep_scenario`]). The repo benchmark (`wrm-benchmark/`, run by
//! `bash wrm-benchmark/run.sh`) builds its `whatif-batch` sweep from
//! [`sweep_scenario`] and checks its emitted specs against the others;
//! this crate's tests hold the engine to them at scale.

use wrm_core::{ids, BytesPerSec, Dist, Machine};
use wrm_sim::{Phase, Scenario, TaskSpec, WorkflowSpec};

/// A generated large-scale layered workload: `n_tasks` tasks (from
/// [`wrm_dag::generate::random_layered_tasks`]) on an 8192-node machine
/// with `n_channels` shared 50 GB/s channels. Every task has a fixed
/// overhead phase; every fourth task also moves data over one of the
/// channels (round-robin, some with stream caps), so the event loop
/// exercises both the fixed-phase calendar and the incremental
/// fair-share path. Deterministic per `(n_tasks, n_channels, seed)`.
pub fn generated_scenario(n_tasks: usize, n_channels: usize, seed: u64) -> Scenario {
    assert!(n_channels >= 1, "need at least one channel");
    let mut builder = Machine::builder("bench-gen", 8192);
    for c in 0..n_channels {
        builder = builder.system(
            format!("ch{c}"),
            format!("Channel {c}"),
            BytesPerSec::gbps(50.0),
        );
    }
    let machine = builder.build().expect("valid machine");
    let tasks = wrm_dag::generate::random_layered_tasks(seed, n_tasks, 4096, 2, 20.0);
    let mut wf = WorkflowSpec::new(format!("gen[{n_tasks}x{n_channels}]"));
    for (i, gt) in tasks.iter().enumerate() {
        let mut t = TaskSpec::new(&gt.name, gt.nodes).phase(Phase::overhead("work", gt.duration));
        if i % 4 == 0 {
            let ch = i % n_channels;
            t = t.phase(Phase::SystemData {
                resource: format!("ch{ch}"),
                bytes: (1.0 + gt.duration) * 2e9,
                stream_cap: if i % 8 == 0 { Some(5e9) } else { None },
            });
        }
        for &d in &gt.deps {
            t = t.after(&tasks[d].name);
        }
        wf = wf.task(t);
    }
    Scenario::new(machine, wf)
}

/// The fork–join counterpart of [`generated_scenario`]: `n_tasks` tasks
/// from [`wrm_dag::generate::fork_join_tasks`] (rounds of up-to-4096-wide
/// barriers, each gated on the previous round) on the same 8192-node /
/// `n_channels`-channel machine with the same phase-attachment policy.
/// Wide barriers drain hundreds of completions into a single instant —
/// the completion calendar's worst case. Deterministic per
/// `(n_tasks, n_channels, seed)`.
pub fn generated_fork_join_scenario(n_tasks: usize, n_channels: usize, seed: u64) -> Scenario {
    assert!(n_channels >= 1, "need at least one channel");
    let mut builder = Machine::builder("bench-fj", 8192);
    for c in 0..n_channels {
        builder = builder.system(
            format!("ch{c}"),
            format!("Channel {c}"),
            BytesPerSec::gbps(50.0),
        );
    }
    let machine = builder.build().expect("valid machine");
    let tasks = wrm_dag::generate::fork_join_tasks(seed, n_tasks, 4096, 2, 20.0);
    let mut wf = WorkflowSpec::new(format!("fj[{n_tasks}x{n_channels}]"));
    for (i, gt) in tasks.iter().enumerate() {
        let mut t = TaskSpec::new(&gt.name, gt.nodes).phase(Phase::overhead("work", gt.duration));
        if i % 4 == 0 {
            let ch = i % n_channels;
            t = t.phase(Phase::SystemData {
                resource: format!("ch{ch}"),
                bytes: (1.0 + gt.duration) * 2e9,
                stream_cap: if i % 8 == 0 { Some(5e9) } else { None },
            });
        }
        for &d in &gt.deps {
            t = t.after(&tasks[d].name);
        }
        wf = wf.task(t);
    }
    Scenario::new(machine, wf)
}

/// The Monte-Carlo benchmark workload: `n_tasks` tasks from
/// [`wrm_dag::generate::random_layered_tasks`] on a 8192-node machine
/// with one shared 50 GB/s channel, every task's duration drawn from a
/// distribution (uniform / lognormal / triangular / empirical,
/// round-robin by task index) and every 64th task streaming a
/// uniformly-distributed volume over the channel under a stream cap.
/// The shape is deliberately calendar-dominated: per-replication work
/// is a cheap summary-mode DES pass, so the amortized costs — index
/// compilation and the two envelope certificates — are a meaningful
/// fraction of a naive single-replication engine call, which is exactly
/// what the batched runner amortizes. Deterministic per
/// `(n_tasks, seed)`.
pub fn mc_scenario(n_tasks: usize, seed: u64) -> Scenario {
    let machine = Machine::builder("bench-mc", 8192)
        .system("ch0", "Channel 0", BytesPerSec::gbps(50.0))
        .build()
        .expect("valid machine");
    let tasks = wrm_dag::generate::random_layered_tasks(seed, n_tasks, 4096, 2, 20.0);
    let mut wf = WorkflowSpec::new(format!("mc[{n_tasks}]"));
    for (i, gt) in tasks.iter().enumerate() {
        let d = gt.duration;
        let dist = match i % 4 {
            0 => Dist::Uniform {
                lo: 0.8 * d,
                hi: 1.2 * d,
            },
            1 => Dist::LogNormal {
                median: d,
                sigma: 0.25,
            },
            2 => Dist::Triangular {
                lo: 0.7 * d,
                mode: d,
                hi: 1.6 * d,
            },
            _ => Dist::Empirical {
                samples: vec![(0.9 * d, 1.0), (d, 2.0), (1.3 * d, 1.0)],
            },
        };
        let mut t = TaskSpec::new(&gt.name, gt.nodes)
            .phase(Phase::overhead("work", d))
            .dist(0, dist);
        if i % 64 == 0 {
            let bytes = (1.0 + d) * 2e9;
            t = t
                .phase(Phase::SystemData {
                    resource: "ch0".into(),
                    bytes,
                    stream_cap: Some(5e9),
                })
                .dist(
                    1,
                    Dist::Uniform {
                        lo: 0.8 * bytes,
                        hi: 1.2 * bytes,
                    },
                );
        }
        for &dep in &gt.deps {
            t = t.after(&tasks[dep].name);
        }
        wf = wf.task(t);
    }
    Scenario::new(machine, wf)
}

/// The incremental-sweep benchmark workload: a layered main pipeline
/// where *every* task streams over a shared 1 TB/s file system under a
/// 0.5 GB/s cap, feeding a 16-task *chained* archive stage that pushes
/// 20 GB per task over a 10 GB/s external link at 0.5 GB/s.
///
/// The shape is deliberate. The external link — the resource a
/// contention sweep scans — is only touched by the final chain, so the
/// DES prefix before its first flow join covers the whole main pipeline
/// and delta re-simulation replays only the short archive suffix per
/// factor. The chain also keeps the link uncontended (at most one flow
/// at a time). Layers run up to 1024 wide, so hundreds of flows share
/// the file system at once, but their caps can never contend even if
/// all of them overlap (`n` × 0.5 GB/s stays below 1 TB/s for
/// `n ≤ 2000`), so the DES skips the fair-share solve on every join and
/// leave there. Deterministic per `n_tasks`.
pub fn sweep_scenario(n_tasks: usize) -> Scenario {
    assert!(
        n_tasks <= 2000,
        "cap budget: n x 0.5 GB/s must stay < 1 TB/s"
    );
    let machine = Machine::builder("bench-sweep", 4096)
        .system(ids::FILE_SYSTEM, "FS", BytesPerSec::gbps(1000.0))
        .system(ids::EXTERNAL, "External", BytesPerSec::gbps(10.0))
        .build()
        .expect("valid machine");
    let tasks = wrm_dag::generate::random_layered_tasks(11, n_tasks, 1024, 2, 20.0);
    let mut wf = WorkflowSpec::new(format!("sweep[{n_tasks}]"));
    for gt in &tasks {
        let mut t = TaskSpec::new(&gt.name, gt.nodes).phase(Phase::overhead("work", gt.duration));
        // Four sequential capped reads per task: a task holds at most
        // one flow at a time, so concurrent FS members never exceed the
        // running-task count and the cap budget above still holds.
        for j in 0..4u32 {
            t = t.phase(Phase::SystemData {
                resource: ids::FILE_SYSTEM.into(),
                bytes: (1.0 + gt.duration) * 5e8 / f64::from(j + 1),
                stream_cap: Some(5e8),
            });
        }
        for &d in &gt.deps {
            t = t.after(&tasks[d].name);
        }
        wf = wf.task(t);
    }
    for i in 0..16usize {
        let mut t = TaskSpec::new(format!("archive{i}"), 1)
            .phase(Phase::overhead("stage", 2.0))
            .phase(Phase::SystemData {
                resource: ids::EXTERNAL.into(),
                bytes: 20e9,
                stream_cap: Some(5e8),
            });
        t = if i == 0 {
            t.after(&tasks[tasks.len() - 1].name)
        } else {
            t.after(format!("archive{}", i - 1))
        };
        wf = wf.task(t);
    }
    Scenario::new(machine, wf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrm_sim::simulate;

    #[test]
    fn generated_scenario_simulates_and_matches_reference() {
        let s = generated_scenario(400, 8, 7);
        let r = simulate(&s).unwrap();
        assert_eq!(r.task_times.len(), 400);
        assert!(r.makespan > 0.0);
        let reference = wrm_sim::reference::simulate_reference(&s).unwrap();
        assert_eq!(r, reference);
    }

    #[test]
    fn fork_join_scenario_simulates_and_matches_reference() {
        let s = generated_fork_join_scenario(400, 8, 7);
        let r = simulate(&s).unwrap();
        assert_eq!(r.task_times.len(), 400);
        assert!(r.makespan > 0.0);
        let reference = wrm_sim::reference::simulate_reference(&s).unwrap();
        assert_eq!(r, reference);
        // Summary mode reproduces the full engine's makespan exactly.
        let sum = wrm_sim::simulate_summary(&s).unwrap();
        assert_eq!(sum.makespan, r.makespan);
        assert_eq!(sum.n_tasks, 400);
    }

    #[test]
    fn sweep_scenario_incremental_matches_cold() {
        let scenario = sweep_scenario(150);
        let grid = wrm_sim::SweepGrid {
            resource: Some(wrm_core::ids::EXTERNAL.into()),
            factors: vec![0.5, 1.0, 2.0],
            node_limits: vec![Some(24), None],
            policies: vec![wrm_sim::SchedulerPolicy::Fifo],
        };
        let outcome = wrm_sim::sweep_grid(&scenario, &grid, 1);
        assert_eq!(outcome.results.len(), 6);
        for fi in 0..grid.factors.len() {
            for ni in 0..grid.node_limits.len() {
                let opts = grid.point_options(&scenario.options, fi, ni, 0);
                let want = simulate(&scenario.clone().with_options(opts));
                assert_eq!(outcome.results[grid.index_of(fi, ni, 0)], want);
            }
        }
        // The workload exercises both mechanisms.
        assert!(outcome.stats.cold > 0, "{:?}", outcome.stats);
        assert!(outcome.stats.replayed > 0, "{:?}", outcome.stats);
    }

    /// The path mix of the repo benchmark's `whatif-batch` grid: 8
    /// factors on `ext` by 8 node limits, FIFO. Every column pays one
    /// cold run and replays the other seven factors from its
    /// checkpoint. A change that sends cells down another path shows up
    /// here as a count, without a wall clock; a replay that drifts from
    /// a cold run shows up as a cell unequal to per-point simulation.
    #[test]
    fn whatif_grid_path_mix() {
        let grid = wrm_sim::SweepGrid {
            resource: Some(wrm_core::ids::EXTERNAL.into()),
            factors: vec![0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0],
            node_limits: vec![
                None,
                Some(2048),
                Some(1024),
                Some(512),
                Some(256),
                Some(128),
                Some(64),
                Some(32),
            ],
            policies: vec![wrm_sim::SchedulerPolicy::Fifo],
        };
        let scenario = sweep_scenario(600);
        let outcome = wrm_sim::sweep_grid(&scenario, &grid, 1);
        assert_eq!(
            outcome.stats,
            wrm_sim::SweepStats {
                replayed: 56,
                cold: 8,
                reused: 0,
                errors: 0,
                ..wrm_sim::SweepStats::default()
            }
        );
        assert_eq!(outcome.results.len(), 64);
        for fi in 0..grid.factors.len() {
            for ni in 0..grid.node_limits.len() {
                let opts = grid.point_options(&scenario.options, fi, ni, 0);
                let want = simulate(&scenario.clone().with_options(opts));
                let got = &outcome.results[grid.index_of(fi, ni, 0)];
                assert_eq!(*got, want, "cell (factor {fi}, node limit {ni})");
            }
        }
    }

    /// The generated 100k-task layered workload in streaming summary
    /// mode: it counts every task, reproduces the full engine's makespan
    /// bit for bit, lands on the pinned makespan, and finishes inside a
    /// generous single-CPU wall-clock budget.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "100k-task workload; run with --release (CI's bracketing step does)"
    )]
    fn hundred_k_task_summary_run_matches_the_full_engine() {
        let scenario = generated_scenario(100_000, 32, 42);
        let start = std::time::Instant::now();
        let sum = wrm_sim::simulate_summary(&scenario).unwrap();
        let summary_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(sum.n_tasks, 100_000);
        let full = simulate(&scenario).unwrap();
        assert_eq!(
            full.makespan.to_bits(),
            sum.makespan.to_bits(),
            "summary-mode makespan must match the full engine"
        );
        assert_eq!(sum.makespan, 1_483.254_747_163_704_5, "pinned makespan (s)");
        assert!(
            summary_ms < 60_000.0,
            "100k-task summary run blew the smoke budget: {summary_ms:.0} ms"
        );
    }
}
