//! The simulator-bracketing oracle.
//!
//! The certificate's whole value is the two-sided guarantee
//! `lo <= makespan <= hi` for the *same* scenario the discrete-event
//! engine runs. These tests enforce that bracket against the DES on
//! randomly generated layered DAGs (arbitrary widths, node counts,
//! mixed phase types, caps, jitter, background traffic, both sharing
//! disciplines and both scheduler policies) and across a full 8x8
//! contention x node-limit sweep grid, so a regression in either the
//! bounds or the engine breaks the build rather than a paper claim.
//!
//! Tolerances: the engine finishes flows up to 1e-9 *relative* early
//! (event-horizon rounding), so the lower check allows `lo * (1-1e-6)`;
//! the upper check allows the same hair above `hi`.

use proptest::prelude::*;
use wrm_core::{ids, BytesPerSec, FlopsPerSec, Machine, Rate};
use wrm_dag::generate::random_layered_tasks;
use wrm_sim::{
    certify_scenario, simulate, simulate_summary, Jitter, Phase, Scenario, SchedulerPolicy,
    Sharing, SimOptions, SweepGrid, TaskSpec, WorkflowSpec,
};

fn machine(pool: u64, fs_gbps: f64) -> Machine {
    Machine::builder("oracle", pool)
        .node(
            ids::COMPUTE,
            "CPU",
            Rate::FlopsPerSec(FlopsPerSec::tflops(1.0)),
        )
        .system(ids::FILE_SYSTEM, "fs", BytesPerSec::gbps(fs_gbps))
        .build()
        .unwrap()
}

/// A generated layered workload with a mix of overhead, compute, and
/// (possibly capped) flow phases hung off the DAG skeleton.
fn workload(seed: u64, n_tasks: usize, max_width: usize, bytes_per_task: f64) -> WorkflowSpec {
    let tasks = random_layered_tasks(seed, n_tasks, max_width, 8, 30.0);
    let mut wf = WorkflowSpec::new(format!("gen[{seed}]"));
    for (i, t) in tasks.iter().enumerate() {
        let mut spec = TaskSpec::new(&t.name, t.nodes);
        spec = match i % 4 {
            0 => spec
                .phase(Phase::overhead("setup", t.duration))
                .phase(Phase::system_data(ids::FILE_SYSTEM, bytes_per_task)),
            1 => spec.phase(Phase::SystemData {
                resource: ids::FILE_SYSTEM.into(),
                bytes: bytes_per_task,
                stream_cap: Some(1e9 * (1.0 + (i % 3) as f64)),
            }),
            2 => spec
                .phase(Phase::compute(t.duration * 1e12))
                .phase(Phase::overhead("teardown", 1.0)),
            _ => spec.phase(Phase::overhead("work", t.duration)),
        };
        for &d in &t.deps {
            spec = spec.after(tasks[d].name.clone());
        }
        wf = wf.task(spec);
    }
    wf
}

fn assert_bracketed(scenario: &Scenario, what: &str) {
    let cert = match certify_scenario(scenario) {
        Ok(c) => c,
        Err(cert_err) => {
            // The certificate must reject exactly what the engine
            // rejects — never certify an unrunnable spec.
            let sim_err = simulate_summary(scenario).unwrap_err();
            assert_eq!(cert_err, sim_err, "{what}: error parity");
            return;
        }
    };
    let makespan = simulate_summary(scenario)
        .unwrap_or_else(|e| panic!("{what}: {e}"))
        .makespan;
    assert!(
        cert.hi.is_finite(),
        "{what}: hi must be finite, got {}",
        cert.hi
    );
    assert!(
        cert.lo * (1.0 - 1e-6) <= makespan,
        "{what}: lo {} > makespan {makespan}",
        cert.lo
    );
    assert!(
        makespan <= cert.hi * (1.0 + 1e-9) + 1e-9,
        "{what}: makespan {makespan} > hi {}",
        cert.hi
    );
}

proptest! {
    #[test]
    fn random_layered_dags_stay_bracketed(
        seed in any::<u64>(),
        n_tasks in 1usize..20,
        max_width in 1usize..6,
        pool in 8u64..64,
        fs_gbps in 0.5f64..50.0,
        bytes_exp in 8.0f64..12.0,
    ) {
        let wf = workload(seed, n_tasks, max_width, 10f64.powf(bytes_exp));
        let scenario = Scenario::new(machine(pool, fs_gbps), wf);
        assert_bracketed(&scenario, "plain");
    }

    #[test]
    fn option_knobs_never_escape_the_bracket(
        seed in any::<u64>(),
        n_tasks in 1usize..14,
        pool in 8u64..40,
        factor in 0.05f64..1.0,
        jitter_amp in 0.0f64..0.4,
        bg_gbps in 0.0f64..5.0,
        equal_split in any::<bool>(),
        backfill in any::<bool>(),
        limit in any::<bool>(),
    ) {
        let wf = workload(seed, n_tasks, 4, 1e10);
        let mut opts = SimOptions {
            sharing: if equal_split { Sharing::EqualSplit } else { Sharing::MaxMin },
            scheduler: if backfill { SchedulerPolicy::Backfill } else { SchedulerPolicy::Fifo },
            jitter: Some(Jitter { seed, amplitude: jitter_amp }),
            node_limit: limit.then_some(8),
            ..SimOptions::default()
        };
        opts = opts.with_contention(ids::FILE_SYSTEM, factor);
        if bg_gbps > 0.0 {
            opts = opts.with_background(ids::FILE_SYSTEM, bg_gbps * 1e9);
        }
        let scenario = Scenario::new(machine(pool, 10.0), wf).with_options(opts);
        assert_bracketed(&scenario, "knobs");
    }
}

/// Certification at scale: a generated 100k-task workload stays inside
/// the bracket, and the streaming summary mode reproduces the full
/// engine's makespan bit for bit at that size. Debug builds skip it
/// (the DES alone would take minutes unoptimized); CI runs the oracle
/// suite with `--release`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "100k-task workload; run with --release (CI's bracketing step does)"
)]
fn hundred_k_task_workload_stays_bracketed() {
    let wf = workload(7, 100_000, 64, 1e10);
    let scenario = Scenario::new(machine(4096, 50.0), wf);
    let cert = certify_scenario(&scenario).expect("certifies");
    let makespan = simulate(&scenario).expect("simulates").makespan;
    assert!(cert.hi.is_finite(), "hi must be finite, got {}", cert.hi);
    assert!(
        cert.lo * (1.0 - 1e-6) <= makespan && makespan <= cert.hi * (1.0 + 1e-9) + 1e-9,
        "100k: {} <= {makespan} <= {} violated",
        cert.lo,
        cert.hi
    );
    let sum = simulate_summary(&scenario).expect("summary mode simulates");
    assert_eq!(sum.makespan, makespan, "summary diverges from the engine");
    assert_eq!(sum.n_tasks, 100_000);
    assert!(
        cert.lo * (1.0 - 1e-6) <= sum.makespan && sum.makespan <= cert.hi * (1.0 + 1e-9) + 1e-9,
        "100k summary escapes the bracket"
    );
}

/// The certificate holds at every point of an 8x8 sweep grid
/// (contention factor x node limit), for both scheduler policies —
/// the same grid shape the incremental sweep engine serves.
#[test]
fn sweep_grid_8x8_stays_bracketed() {
    let wf = workload(42, 16, 4, 2e10);
    let base = Scenario::new(machine(32, 10.0), wf);
    let grid = SweepGrid {
        resource: Some(ids::FILE_SYSTEM.into()),
        factors: vec![0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0],
        node_limits: vec![
            Some(8),
            Some(12),
            Some(16),
            Some(20),
            Some(24),
            Some(28),
            Some(30),
            None,
        ],
        policies: vec![SchedulerPolicy::Fifo, SchedulerPolicy::Backfill],
    };
    let outcome = wrm_sim::sweep_grid(&base, &grid, 4);
    assert_eq!(outcome.results.len(), 8 * 8 * 2);
    for fi in 0..grid.factors.len() {
        for ni in 0..grid.node_limits.len() {
            for pi in 0..grid.policies.len() {
                let opts = grid.point_options(&base.options, fi, ni, pi);
                let point = base.clone().with_options(opts);
                let cert = certify_scenario(&point).expect("grid point certifies");
                let r = outcome.results[grid.index_of(fi, ni, pi)]
                    .as_ref()
                    .expect("grid point simulates");
                assert!(cert.hi.is_finite(), "[{fi},{ni},{pi}] infinite hi");
                assert!(
                    cert.lo * (1.0 - 1e-6) <= r.makespan
                        && r.makespan <= cert.hi * (1.0 + 1e-9) + 1e-9,
                    "[{fi},{ni},{pi}]: {} <= {} <= {} violated",
                    cert.lo,
                    r.makespan,
                    cert.hi
                );
            }
        }
    }
}
