//! # wrm-bench — performance benchmarks for the simulator and the model
//!
//! The criterion benches in `benches/`:
//!
//! * `engine` — simulator performance: event throughput vs. task count,
//!   fair-share solver scaling, scheduler ablation (FIFO vs. backfill).
//! * `model` — roofline construction/evaluation throughput, envelope
//!   sweeps and the bottleneck advisor.
//!
//! The paper's figures and their headline numbers come from
//! `wrm figures all` (diffed against `figures/` in CI) and are asserted
//! by `tests/end_to_end.rs`; server latency is measured by the repo
//! benchmark's `serve-mixed` workload (`wrm-benchmark/`).
//!
//! This library crate hosts the shared workload builders so the two
//! bench binaries stay small and consistent.

use wrm_core::{ids, BytesPerSec, Dist, Machine};
use wrm_sim::{Phase, Scenario, TaskSpec, WorkflowSpec};

/// A synthetic bag of `n` tasks, each with an overhead phase and a
/// shared-file-system read, on a 256-node machine with a 100 GB/s FS.
pub fn bag_scenario(n: usize) -> Scenario {
    let machine = Machine::builder("bench", 256)
        .system(ids::FILE_SYSTEM, "FS", BytesPerSec::gbps(100.0))
        .build()
        .expect("valid machine");
    let mut wf = WorkflowSpec::new(format!("bag[{n}]"));
    for i in 0..n {
        wf = wf.task(
            TaskSpec::new(format!("t{i}"), 1)
                .phase(Phase::overhead("setup", 1.0))
                .phase(Phase::system_data(ids::FILE_SYSTEM, 10e9)),
        );
    }
    Scenario::new(machine, wf)
}

/// A chain of `depth` stages, each a `width`-wide layer gated on the
/// previous layer (layered pipeline), stressing dependency handling.
pub fn layered_scenario(depth: usize, width: usize) -> Scenario {
    let machine = Machine::builder("bench", 512)
        .system(ids::FILE_SYSTEM, "FS", BytesPerSec::gbps(100.0))
        .build()
        .expect("valid machine");
    let mut wf = WorkflowSpec::new(format!("layers[{depth}x{width}]"));
    for d in 0..depth {
        for w in 0..width {
            let mut t = TaskSpec::new(format!("t{d}.{w}"), 1)
                .phase(Phase::system_data(ids::FILE_SYSTEM, 1e9));
            if d > 0 {
                for p in 0..width {
                    t = t.after(format!("t{}.{p}", d - 1));
                }
            }
            wf = wf.task(t);
        }
    }
    Scenario::new(machine, wf)
}

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
    fn bag_scenario_simulates() {
        let r = simulate(&bag_scenario(32)).unwrap();
        assert_eq!(r.task_times.len(), 32);
        // 32 x 10 GB through 100 GB/s (all fit in the 256-node pool):
        // 3.2 s of I/O after the 1 s overhead.
        assert!((r.makespan - 4.2).abs() < 0.1, "makespan {}", r.makespan);
    }

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
    /// here as a count, without a wall clock.
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
        let outcome = wrm_sim::sweep_grid(&sweep_scenario(600), &grid, 1);
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
    }

    #[test]
    fn layered_scenario_simulates() {
        let r = simulate(&layered_scenario(4, 8)).unwrap();
        assert_eq!(r.task_times.len(), 32);
        // Each layer drains 8 GB at 100 GB/s = 0.08 s; four layers.
        assert!((r.makespan - 0.32).abs() < 0.01, "makespan {}", r.makespan);
    }
}
