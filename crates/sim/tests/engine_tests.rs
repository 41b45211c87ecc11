//! Integration tests: the simulator reproduces the paper's measured
//! behaviours from first principles.

use wrm_core::{ids, machines};
use wrm_sim::{
    simulate, Phase, Scenario, SchedulerPolicy, SimError, SimOptions, TaskSpec, WorkflowSpec,
};

/// The LCLS workflow: five 32-node analyses (1 TB external in, 32 GB/node
/// DRAM, a little compute), then a 5 GB merge.
fn lcls() -> WorkflowSpec {
    let mut wf = WorkflowSpec::new("LCLS");
    for i in 0..5 {
        wf = wf.task(
            TaskSpec::new(format!("analyze[{i}]"), 32)
                .phase(Phase::SystemData {
                    resource: ids::EXTERNAL.into(),
                    bytes: 1e12,
                    stream_cap: Some(1e9),
                })
                .phase(Phase::node_data(ids::DRAM, 32e9 * 32.0)),
        );
    }
    let mut merge = TaskSpec::new("merge", 1).phase(Phase::system_data(ids::BURST_BUFFER, 5e9));
    for i in 0..5 {
        merge = merge.after(format!("analyze[{i}]"));
    }
    wf.task(merge)
}

#[test]
fn lcls_good_day_is_about_17_minutes() {
    // 1 TB / 1 GB/s per stream = 1000 s, plus small tails: the paper's
    // good day is 17 min = 1020 s.
    let result = simulate(&Scenario::new(machines::cori_haswell(), lcls())).unwrap();
    assert!(
        (result.makespan - 1000.0).abs() < 10.0,
        "makespan {}",
        result.makespan
    );
    // All five streams ran concurrently at their caps: external busy
    // time per task is ~1000 s.
    let t0 = result.trace.task_time("analyze[0]").unwrap();
    assert!((t0 - 1000.2).abs() < 1.0, "task time {t0}");
}

#[test]
fn lcls_bad_day_is_5x_slower() {
    let opts = SimOptions::default().with_contention(ids::EXTERNAL, 0.2);
    let scenario = Scenario::new(machines::cori_haswell(), lcls()).with_options(opts);
    let result = simulate(&scenario).unwrap();
    assert!(
        (result.makespan - 5000.0).abs() < 10.0,
        "makespan {}",
        result.makespan
    );
}

#[test]
fn shared_channel_contention_emerges() {
    // Two tasks each pull 1 TB from a 1 GB/s-capacity channel with no
    // stream caps: fair sharing gives each 0.5 GB/s -> 2000 s total.
    let m = wrm_core::Machine::builder("tiny", 8)
        .system(ids::EXTERNAL, "ext", wrm_core::BytesPerSec::gbps(1.0))
        .build()
        .unwrap();
    let wf = WorkflowSpec::new("pair")
        .task(TaskSpec::new("a", 1).phase(Phase::system_data(ids::EXTERNAL, 1e12)))
        .task(TaskSpec::new("b", 1).phase(Phase::system_data(ids::EXTERNAL, 1e12)));
    let r = simulate(&Scenario::new(m, wf)).unwrap();
    assert!((r.makespan - 2000.0).abs() < 1.0, "makespan {}", r.makespan);
}

#[test]
fn staggered_flows_get_leftover_bandwidth() {
    // Task a moves 10 GB, task b moves 30 GB on a 2 GB/s channel.
    // Phase 1: both at 1 GB/s for 10 s (a finishes). Phase 2: b alone at
    // 2 GB/s for the remaining 20 GB -> ends at t=20.
    let m = wrm_core::Machine::builder("tiny", 8)
        .system(ids::FILE_SYSTEM, "fs", wrm_core::BytesPerSec::gbps(2.0))
        .build()
        .unwrap();
    let wf = WorkflowSpec::new("stagger")
        .task(TaskSpec::new("a", 1).phase(Phase::system_data(ids::FILE_SYSTEM, 10e9)))
        .task(TaskSpec::new("b", 1).phase(Phase::system_data(ids::FILE_SYSTEM, 30e9)));
    let r = simulate(&Scenario::new(m, wf)).unwrap();
    assert!(
        (r.task("a").unwrap().time - 10.0).abs() < 1e-6,
        "a {}",
        r.task("a").unwrap().time
    );
    assert!(
        (r.task("b").unwrap().time - 20.0).abs() < 1e-6,
        "b {}",
        r.task("b").unwrap().time
    );
}

/// BGW: Epsilon then Sigma on the same allocation, with the measured
/// efficiencies that land the makespan at the paper's 4184.86 s.
fn bgw(nodes: u64, eff_e: f64, eff_s: f64) -> WorkflowSpec {
    WorkflowSpec::new("BerkeleyGW")
        .task(
            TaskSpec::new("Epsilon", nodes)
                .phase(Phase::system_data(ids::FILE_SYSTEM, 20e9))
                .phase(Phase::Compute {
                    flops: 1164e15,
                    efficiency: eff_e,
                })
                .phase(Phase::system_data(ids::NETWORK, 2676e9 * 64.0 * 0.265)),
        )
        .task(
            TaskSpec::new("Sigma", nodes)
                .phase(Phase::system_data(ids::FILE_SYSTEM, 50e9))
                .phase(Phase::Compute {
                    flops: 3226e15,
                    efficiency: eff_s,
                })
                .phase(Phase::system_data(ids::NETWORK, 2676e9 * 64.0 * 0.735))
                .after("Epsilon"),
        )
}

#[test]
fn bgw_64_nodes_lands_near_the_paper_makespan() {
    let r = simulate(&Scenario::new(
        machines::perlmutter_gpu(),
        bgw(64, 0.39, 0.4395),
    ))
    .unwrap();
    // Compute times: 1164 PF/(64*38.8 TF*0.39) = 1202 s;
    // 3226 PF/(64*38.8 TF*0.4395) = 2956 s; plus ~27 s of NIC/FS tails.
    assert!(
        (r.makespan - 4184.86).abs() < 120.0,
        "makespan {}",
        r.makespan
    );
    // Sigma dominates.
    assert!(r.task("Sigma").unwrap().time > r.task("Epsilon").unwrap().time);
}

#[test]
fn bgw_strong_scaling_shortens_makespan() {
    let m64 = simulate(&Scenario::new(
        machines::perlmutter_gpu(),
        bgw(64, 0.39, 0.4395),
    ))
    .unwrap()
    .makespan;
    let m1024 = simulate(&Scenario::new(
        machines::perlmutter_gpu(),
        bgw(1024, 0.16, 0.36),
    ))
    .unwrap()
    .makespan;
    assert!(m1024 < m64 / 8.0, "64: {m64}, 1024: {m1024}");
}

#[test]
fn fifo_head_blocks_but_backfill_proceeds() {
    // Pool of 4: a 3-node long task runs; a 2-node task is queued ahead
    // of a 1-node task. FIFO blocks both; backfill starts the 1-node.
    let m = wrm_core::Machine::builder("tiny", 4).build().unwrap();
    let wf = WorkflowSpec::new("queue")
        .task(TaskSpec::new("wide", 3).phase(Phase::overhead("w", 100.0)))
        .task(TaskSpec::new("blocked", 2).phase(Phase::overhead("w", 10.0)))
        .task(TaskSpec::new("small", 1).phase(Phase::overhead("w", 10.0)));

    let fifo = simulate(
        &Scenario::new(m.clone(), wf.clone()).with_options(SimOptions {
            scheduler: SchedulerPolicy::Fifo,
            ..SimOptions::default()
        }),
    )
    .unwrap();
    let backfill = simulate(&Scenario::new(m, wf).with_options(SimOptions {
        scheduler: SchedulerPolicy::Backfill,
        ..SimOptions::default()
    }))
    .unwrap();

    assert!((fifo.task("small").unwrap().start - 100.0).abs() < 1e-6);
    assert!((backfill.task("small").unwrap().start - 0.0).abs() < 1e-12);
    assert!(backfill.makespan <= fifo.makespan);
}

#[test]
fn node_limit_serializes_parallel_tasks() {
    // Ten 1-node tasks, pool capped at 2: five waves of 10 s.
    let wf = {
        let mut wf = WorkflowSpec::new("bag");
        for i in 0..10 {
            wf = wf.task(TaskSpec::new(format!("t{i}"), 1).phase(Phase::overhead("w", 10.0)));
        }
        wf
    };
    let r = simulate(
        &Scenario::new(machines::perlmutter_cpu(), wf).with_options(SimOptions {
            node_limit: Some(2),
            ..SimOptions::default()
        }),
    )
    .unwrap();
    assert!((r.makespan - 50.0).abs() < 1e-6, "makespan {}", r.makespan);
}

#[test]
fn max_min_is_work_conserving() {
    // FS at 2 GB/s: a 10 GB flow capped at 0.5 GB/s next to an open
    // 30 GB flow. The open flow absorbs the 1.5 GB/s the capped one
    // leaves, so both finish at exactly 20 s (an equal split, which
    // wastes that leftover, would take 25 s).
    let m = wrm_core::Machine::builder("tiny", 8)
        .system(ids::FILE_SYSTEM, "fs", wrm_core::BytesPerSec::gbps(2.0))
        .build()
        .unwrap();
    let wf = WorkflowSpec::new("ab")
        .task(TaskSpec::new("capped", 1).phase(Phase::SystemData {
            resource: ids::FILE_SYSTEM.into(),
            bytes: 10e9,
            stream_cap: Some(0.5e9),
        }))
        .task(TaskSpec::new("open", 1).phase(Phase::system_data(ids::FILE_SYSTEM, 30e9)));
    let r = simulate(&Scenario::new(m, wf)).unwrap();
    assert_eq!(r.makespan, 20.0);
}

#[test]
fn error_paths() {
    // Too large.
    let wf = WorkflowSpec::new("big").task(TaskSpec::new("t", 10_000));
    assert!(matches!(
        simulate(&Scenario::new(machines::perlmutter_gpu(), wf)),
        Err(SimError::TaskTooLarge { .. })
    ));
    // Unknown resource.
    let wf = WorkflowSpec::new("u")
        .task(TaskSpec::new("t", 1).phase(Phase::system_data("warp-drive", 1.0)));
    assert!(matches!(
        simulate(&Scenario::new(machines::perlmutter_gpu(), wf)),
        Err(SimError::UnknownResource { .. })
    ));
    // Bad contention factor.
    let wf = WorkflowSpec::new("c").task(TaskSpec::new("t", 1));
    let bad = SimOptions::default().with_contention(ids::FILE_SYSTEM, 0.0);
    assert!(matches!(
        simulate(&Scenario::new(machines::perlmutter_gpu(), wf).with_options(bad)),
        Err(SimError::InvalidOption(_))
    ));
}

#[test]
fn zero_phase_tasks_and_empty_workflows_complete() {
    let wf = WorkflowSpec::new("noop")
        .task(TaskSpec::new("a", 1))
        .task(TaskSpec::new("b", 1).after("a"));
    let r = simulate(&Scenario::new(machines::perlmutter_cpu(), wf)).unwrap();
    assert_eq!(r.makespan, 0.0);
    assert_eq!(r.task_times.len(), 2);

    let empty = WorkflowSpec::new("empty");
    let r = simulate(&Scenario::new(machines::perlmutter_cpu(), empty)).unwrap();
    assert_eq!(r.makespan, 0.0);
}

#[test]
fn trace_has_one_span_per_phase() {
    let wf = lcls();
    let total_phases: usize = wf.tasks.iter().map(|t| t.phases.len()).sum();
    let r = simulate(&Scenario::new(machines::cori_haswell(), wf)).unwrap();
    assert_eq!(r.trace.spans.len(), total_phases);
}

#[test]
fn gptune_rci_vs_spawn_modes() {
    // 40 serialized iterations. Both modes pay the Python library /
    // modelling overhead per iteration (~5.2 s); RCI additionally pays
    // bash+srun (~7.4 s) and metadata file I/O (~0.75 s) per iteration.
    // The SuperLU_DIST run itself is short (small 4960x4960 matrix).
    // Totals land at the paper's 553 s (RCI) vs 228 s (Spawn), and
    // removing Python leaves ~19 s = the paper's extra 12x projection.
    let (python, app, model, bash) = (5.225, 0.35, 0.125, 7.375);
    let rci = {
        let mut wf = WorkflowSpec::new("gptune-rci");
        let mut prev: Option<String> = None;
        for i in 0..40 {
            let mut t = TaskSpec::new(format!("iter[{i}]"), 1)
                .phase(Phase::overhead("bash", bash))
                .phase(Phase::overhead("python", python))
                .phase(Phase::SystemData {
                    resource: ids::FILE_SYSTEM.into(),
                    bytes: 45e6 / 40.0,
                    stream_cap: Some(1.5e6),
                })
                .phase(Phase::overhead("application", app))
                .phase(Phase::overhead("model_search", model));
            if let Some(p) = &prev {
                t = t.after(p.clone());
            }
            prev = Some(t.name.clone());
            wf = wf.task(t);
        }
        wf
    };
    let spawn = {
        let mut wf = WorkflowSpec::new("gptune-spawn");
        let mut prev: Option<String> = None;
        for i in 0..40 {
            let mut t = TaskSpec::new(format!("iter[{i}]"), 1)
                .phase(Phase::overhead("python", python))
                .phase(Phase::system_data(ids::FILE_SYSTEM, 40e6 / 40.0))
                .phase(Phase::overhead("application", app))
                .phase(Phase::overhead("model_search", model));
            if let Some(p) = &prev {
                t = t.after(p.clone());
            }
            prev = Some(t.name.clone());
            wf = wf.task(t);
        }
        wf
    };
    let m = machines::perlmutter_cpu();
    let r_rci = simulate(&Scenario::new(m.clone(), rci)).unwrap();
    let r_spawn = simulate(&Scenario::new(m, spawn)).unwrap();
    assert!(
        (r_rci.makespan - 553.0).abs() < 15.0,
        "rci {}",
        r_rci.makespan
    );
    assert!(
        (r_spawn.makespan - 228.0).abs() < 15.0,
        "spawn {}",
        r_spawn.makespan
    );
    let speedup = r_rci.makespan / r_spawn.makespan;
    assert!((speedup - 2.4).abs() < 0.2, "speedup {speedup}");
}

#[test]
fn accounting_metrics() {
    // Two 2-node 10 s tasks on a 4-node pool, fully parallel:
    // 40 node-seconds over 4 x 10 = 100% utilization.
    let m = wrm_core::Machine::builder("acct", 4).build().unwrap();
    let wf = WorkflowSpec::new("acct")
        .task(TaskSpec::new("a", 2).phase(Phase::overhead("w", 10.0)))
        .task(TaskSpec::new("b", 2).phase(Phase::overhead("w", 10.0)));
    let r = simulate(&Scenario::new(m.clone(), wf.clone())).unwrap();
    assert!((r.node_seconds() - 40.0).abs() < 1e-9);
    assert!((r.utilization() - 1.0).abs() < 1e-9);
    assert_eq!(r.pool_nodes, 4);
    assert_eq!(r.task("a").unwrap().nodes, 2);

    // Capped to 2 nodes: serialized, 40 node-seconds over 2 x 20 = 100%.
    let r = simulate(
        &Scenario::new(m.clone(), wf.clone()).with_options(SimOptions {
            node_limit: Some(2),
            ..SimOptions::default()
        }),
    )
    .unwrap();
    assert!((r.makespan - 20.0).abs() < 1e-9);
    assert!((r.utilization() - 1.0).abs() < 1e-9);

    // A 1-node straggler drops utilization below 1.
    let wf = wf.task(TaskSpec::new("c", 1).phase(Phase::overhead("w", 5.0)));
    let r = simulate(&Scenario::new(m, wf)).unwrap();
    assert!(r.utilization() < 1.0);
    assert!((r.node_seconds() - 45.0).abs() < 1e-9);
}
