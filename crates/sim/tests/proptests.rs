//! Property-based tests for the simulator's conservation laws and the
//! Monte-Carlo replication engine's invariants.

use proptest::prelude::*;
use wrm_core::{ids, machines, BytesPerSec, Dist, Machine};
use wrm_sim::mc::envelope;
use wrm_sim::{
    certify, max_min_rates, mc_run, simulate, FlowDemand, McOptions, Phase, Scenario,
    SchedulerPolicy, SimError, SimOptions, TaskSpec, WorkflowSpec,
};

/// One step of a splitmix64 stream, for seeded uneven test quantities.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random layered DAG with distributional phase quantities: every
/// task in layer `l > 0` depends on all of layer `l - 1`. Tasks hold 3
/// nodes, so a layer of three overflows an 8-node limit and queues.
fn layered_mc_scenario(layers: usize, width: usize, bytes: f64, spread: f64) -> Scenario {
    let machine = Machine::builder("mc-pool", 64)
        .system(ids::FILE_SYSTEM, "fs", BytesPerSec::gbps(10.0))
        .build()
        .unwrap();
    let mut wf = WorkflowSpec::new("mc");
    for l in 0..layers {
        for i in 0..width {
            let mut t = TaskSpec::new(format!("l{l}t{i}"), 3)
                .phase(Phase::overhead("setup", 5.0))
                .dist(
                    0,
                    Dist::Triangular {
                        lo: 2.0,
                        mode: 5.0,
                        hi: 9.0,
                    },
                )
                .phase(Phase::system_data(ids::FILE_SYSTEM, bytes))
                .dist(
                    1,
                    Dist::Uniform {
                        lo: bytes * (1.0 - spread),
                        hi: bytes * (1.0 + spread),
                    },
                );
            if l > 0 {
                for j in 0..width {
                    t = t.after(format!("l{}t{j}", l - 1));
                }
            }
            wf = wf.task(t);
        }
    }
    Scenario::new(machine, wf)
}

/// A seeded distributional spec over every phase kind: each task holds
/// one to three phases (compute and DRAM traffic at efficiencies below
/// 1, so their lowering divides by a real product; file-system,
/// network and capped external flows; overheads), and about half the
/// phases carry a distribution of any family scaled to the phase's
/// quantity. One phase in about 160 carries a lognormal so wide that
/// its upper support bound overflows. Tasks hold 1 to 6 nodes and
/// depend on random earlier tasks.
fn dist_spec(seed: u64, n_tasks: usize) -> WorkflowSpec {
    let mut s = seed;
    let mut next = move |m: u64| splitmix(&mut s) % m;
    let mut wf = WorkflowSpec::new(format!("dist[{seed}]"));
    for i in 0..n_tasks {
        let mut t = TaskSpec::new(format!("t{i}"), 1 + next(6));
        for ph in 0..1 + next(3) {
            let scale = (1 + next(1000)) as f64;
            let efficiency = 0.2 + next(80) as f64 / 100.0;
            let (phase, q) = match next(6) {
                0 => (
                    Phase::Compute {
                        flops: scale * 1e12,
                        efficiency,
                    },
                    scale * 1e12,
                ),
                1 => (
                    Phase::NodeData {
                        resource: ids::DRAM.into(),
                        bytes: scale * 1e9,
                        efficiency,
                    },
                    scale * 1e9,
                ),
                2 => (
                    Phase::system_data(ids::FILE_SYSTEM, scale * 1e10),
                    scale * 1e10,
                ),
                3 => (Phase::system_data(ids::NETWORK, scale * 1e9), scale * 1e9),
                4 => (
                    Phase::SystemData {
                        resource: ids::EXTERNAL.into(),
                        bytes: scale * 1e9,
                        stream_cap: Some((1 + next(5)) as f64 * 1e9),
                    },
                    scale * 1e9,
                ),
                _ => (Phase::overhead("o", scale / 10.0), scale / 10.0),
            };
            t = t.phase(phase);
            let dist = match next(10) {
                0 => Dist::Point { value: q },
                1 => Dist::Uniform {
                    lo: q * 0.5,
                    hi: q * 1.5,
                },
                2 => Dist::LogNormal {
                    median: if next(4) == 0 { 0.0 } else { q },
                    sigma: if next(16) == 0 {
                        100.0
                    } else {
                        next(90) as f64 / 100.0
                    },
                },
                3 => Dist::Triangular {
                    lo: q * 0.25,
                    mode: q,
                    hi: q * 3.0,
                },
                4 => Dist::Empirical {
                    samples: vec![(q * 0.7, 1.0), (q, 2.0), (q * 1.9, 0.5)],
                },
                _ => continue,
            };
            t = t.dist(ph as u32, dist);
        }
        if i > 0 {
            for _ in 0..next(3) {
                t = t.after(format!("t{}", next(i as u64)));
            }
        }
        wf = wf.task(t);
    }
    wf
}

/// Bit-exact fingerprint of an [`wrm_sim::McResult`]'s user-visible
/// numbers: every sampled makespan plus the percentile table.
fn mc_bits(mc: &wrm_sim::McResult) -> Vec<u64> {
    let mut bits: Vec<u64> = mc.makespans.iter().map(|m| m.to_bits()).collect();
    for p in &mc.percentiles {
        bits.extend([
            p.q.to_bits(),
            p.value.to_bits(),
            p.ci_lo.to_bits(),
            p.ci_hi.to_bits(),
        ]);
    }
    bits
}

prop_compose! {
    fn flows()(caps in prop::collection::vec(
        prop_oneof![
            0.1f64..1e12,
            Just(f64::INFINITY),
        ],
        1..20,
    )) -> Vec<FlowDemand> {
        caps.into_iter()
            .enumerate()
            .map(|(id, cap)| FlowDemand { id, cap })
            .collect()
    }
}

proptest! {
    #[test]
    fn max_min_is_feasible_and_work_conserving(
        capacity in 0.0f64..1e13,
        flows in flows(),
    ) {
        let rates = max_min_rates(capacity, &flows);
        prop_assert_eq!(rates.len(), flows.len());
        let mut total = 0.0;
        for (r, f) in rates.iter().zip(flows.iter()) {
            // Feasibility: no flow exceeds its cap; no negative rates.
            prop_assert!(r.rate >= 0.0);
            prop_assert!(r.rate <= f.cap * (1.0 + 1e-12) || r.rate <= f.cap + 1e-9);
            total += r.rate;
        }
        // Link feasibility.
        prop_assert!(total <= capacity * (1.0 + 1e-9) + 1e-9);
        // Work conservation: the link saturates unless every flow is at
        // its cap.
        let all_capped = rates
            .iter()
            .zip(flows.iter())
            .all(|(r, f)| f.cap.is_finite() && (r.rate - f.cap).abs() <= 1e-9 * f.cap.max(1.0));
        if !all_capped {
            prop_assert!(
                total >= capacity * (1.0 - 1e-9) - 1e-9,
                "total {} < capacity {}", total, capacity
            );
        }
        // Fairness: uncapped flows all get the same rate.
        let uncapped: Vec<f64> = rates
            .iter()
            .zip(flows.iter())
            .filter(|(_, f)| f.cap.is_infinite())
            .map(|(r, _)| r.rate)
            .collect();
        for w in uncapped.windows(2) {
            prop_assert!((w[0] - w[1]).abs() <= 1e-9 * w[0].max(1.0));
        }
    }

    #[test]
    fn makespan_respects_lower_bounds(
        n_tasks in 1usize..12,
        bytes in 1e6f64..1e13,
        overhead in 0.0f64..100.0,
        capacity_gbps in 0.5f64..1000.0,
    ) {
        let machine = Machine::builder("pool", 64)
            .system(ids::FILE_SYSTEM, "fs", BytesPerSec::gbps(capacity_gbps))
            .build()
            .unwrap();
        let mut wf = WorkflowSpec::new("w");
        for i in 0..n_tasks {
            wf = wf.task(
                TaskSpec::new(format!("t{i}"), 1)
                    .phase(Phase::overhead("setup", overhead))
                    .phase(Phase::system_data(ids::FILE_SYSTEM, bytes)),
            );
        }
        let r = simulate(&Scenario::new(machine, wf)).unwrap();
        // Aggregate-bandwidth bound: all bytes through the channel.
        let channel_bound = n_tasks as f64 * bytes / (capacity_gbps * 1e9);
        // Critical-path bound: one task's serial work at full channel.
        let task_bound = overhead + bytes / (capacity_gbps * 1e9);
        let lower = channel_bound.max(task_bound);
        prop_assert!(
            r.makespan >= lower * (1.0 - 1e-6),
            "makespan {} < bound {}", r.makespan, lower
        );
        // And the fluid model is tight here: overhead phases overlap
        // while flows share the channel fairly, so the makespan cannot
        // exceed overhead + channel time.
        prop_assert!(r.makespan <= (overhead + channel_bound) * (1.0 + 1e-6) + 1e-6);
    }

    #[test]
    fn more_bandwidth_never_hurts(
        n_tasks in 1usize..8,
        bytes in 1e6f64..1e12,
        cap1 in 1.0f64..100.0,
        cap2 in 1.0f64..100.0,
    ) {
        let build = |gbps: f64| {
            let machine = Machine::builder("pool", 64)
                .system(ids::EXTERNAL, "ext", BytesPerSec::gbps(gbps))
                .build()
                .unwrap();
            let mut wf = WorkflowSpec::new("w");
            for i in 0..n_tasks {
                wf = wf.task(
                    TaskSpec::new(format!("t{i}"), 1)
                        .phase(Phase::system_data(ids::EXTERNAL, bytes)),
                );
            }
            simulate(&Scenario::new(machine, wf)).unwrap().makespan
        };
        let slow = build(cap1.min(cap2));
        let fast = build(cap1.max(cap2));
        prop_assert!(fast <= slow * (1.0 + 1e-9));
    }

    #[test]
    fn contention_factor_scales_flow_time(
        bytes in 1e6f64..1e12,
        factor in 0.05f64..1.0,
    ) {
        let machine = Machine::builder("m", 4)
            .system(ids::EXTERNAL, "ext", BytesPerSec::gbps(10.0))
            .build()
            .unwrap();
        let wf = WorkflowSpec::new("w")
            .task(TaskSpec::new("t", 1).phase(Phase::system_data(ids::EXTERNAL, bytes)));
        let base = simulate(&Scenario::new(machine.clone(), wf.clone()))
            .unwrap()
            .makespan;
        let contended = simulate(
            &Scenario::new(machine, wf)
                .with_options(SimOptions::default().with_contention(ids::EXTERNAL, factor)),
        )
        .unwrap()
        .makespan;
        // A single flow slows by exactly 1/factor.
        prop_assert!(
            (contended - base / factor).abs() <= 1e-6 * contended.max(1.0),
            "base {}, contended {}, factor {}", base, contended, factor
        );
    }

    #[test]
    fn simulation_is_deterministic(
        n_tasks in 1usize..8,
        bytes in 1e6f64..1e11,
        seed in any::<u64>(),
    ) {
        let machine = Machine::builder("m", 16)
            .system(ids::FILE_SYSTEM, "fs", BytesPerSec::gbps(5.0))
            .build()
            .unwrap();
        // The seed drives uneven overhead durations, so two builds from
        // the same seed must also agree on the workflow they simulate.
        let build = |mut s: u64| {
            let mut wf = WorkflowSpec::new("w");
            for i in 0..n_tasks {
                let secs = (i as f64) + 1.0 + (splitmix(&mut s) % 1000) as f64 / 250.0;
                wf = wf.task(
                    TaskSpec::new(format!("t{i}"), 2)
                        .phase(Phase::overhead("o", secs))
                        .phase(Phase::system_data(ids::FILE_SYSTEM, bytes)),
                );
            }
            wf
        };
        let a = simulate(&Scenario::new(machine.clone(), build(seed))).unwrap();
        let b = simulate(&Scenario::new(machine, build(seed))).unwrap();
        prop_assert_eq!(a.to_trace(), b.to_trace());
        prop_assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn every_phase_produces_exactly_one_span(
        n_tasks in 1usize..10,
        n_phases in 1usize..6,
    ) {
        let machine = Machine::builder("m", 32)
            .system(ids::FILE_SYSTEM, "fs", BytesPerSec::gbps(50.0))
            .build()
            .unwrap();
        let mut wf = WorkflowSpec::new("w");
        for i in 0..n_tasks {
            let mut t = TaskSpec::new(format!("t{i}"), 1);
            for p in 0..n_phases {
                t = if p % 2 == 0 {
                    t.phase(Phase::overhead("o", 1.0))
                } else {
                    t.phase(Phase::system_data(ids::FILE_SYSTEM, 1e9))
                };
            }
            wf = wf.task(t);
        }
        let r = simulate(&Scenario::new(machine, wf)).unwrap();
        let trace = r.to_trace();
        prop_assert_eq!(trace.spans.len(), n_tasks * n_phases);
        // Span times are well-formed and within the makespan.
        for s in &trace.spans {
            prop_assert!(s.start >= 0.0);
            prop_assert!(s.end >= s.start);
            prop_assert!(s.end <= r.makespan * (1.0 + 1e-9) + 1e-9);
        }
    }

    #[test]
    fn mc_percentiles_are_ordered_and_bracketed(
        layers in 1usize..4,
        width in 1usize..4,
        bytes in 1e8f64..1e11,
        spread in 0.05f64..0.5,
        seed in any::<u64>(),
        fs_factor in 0.05f64..1.5,
        backfill in any::<bool>(),
        limit in any::<bool>(),
    ) {
        // Every sample is checked against the certified bracket under
        // each scenario option: contention, scheduler, limit.
        let options = SimOptions {
            scheduler: if backfill { SchedulerPolicy::Backfill } else { SchedulerPolicy::Fifo },
            node_limit: limit.then_some(8),
            ..SimOptions::default()
        }
        .with_contention(ids::FILE_SYSTEM, fs_factor);
        let scenario = layered_mc_scenario(layers, width, bytes, spread).with_options(options);
        let mc = mc_run(&scenario, &McOptions { reps: 24, seed, threads: 1 }).unwrap();
        prop_assert_eq!(mc.makespans.len(), 24);
        // Percentiles are monotone in q: p50 <= p90 <= p99, each inside
        // its own confidence interval and the sampled range.
        for w in mc.percentiles.windows(2) {
            prop_assert!(w[0].q < w[1].q);
            prop_assert!(w[0].value <= w[1].value);
        }
        for p in &mc.percentiles {
            prop_assert!(p.ci_lo <= p.value && p.value <= p.ci_hi);
            prop_assert!(mc.min <= p.value && p.value <= mc.max);
        }
        // The analytic certificate on the [lo, hi] envelope scenarios
        // brackets every sampled makespan.
        for &m in &mc.makespans {
            prop_assert!(
                mc.bracket_lo <= m * (1.0 + 1e-9) && m <= mc.bracket_hi * (1.0 + 1e-9),
                "makespan {} outside bracket [{}, {}]", m, mc.bracket_lo, mc.bracket_hi
            );
        }
    }

    /// The Monte-Carlo bracket, certified on the prebuilt base with
    /// each dist slot patched to its support bound, equals the
    /// certificates of the envelope workflows, rebuilt and indexed from
    /// scratch, bit for bit; where either path fails, both fail alike.
    /// A spec whose lognormal overflows its support bound or mean (a
    /// wide sigma, or `0 * inf` at median 0) is refused by validation,
    /// naming the distribution, before either path runs.
    #[test]
    fn mc_bracket_equals_the_envelope_certificates(
        seed in any::<u64>(),
        n_tasks in 1usize..12,
        ext_factor in 0.1f64..2.0,
        backfill in any::<bool>(),
        limit in prop::option::of(5u64..16),
    ) {
        let options = SimOptions {
            scheduler: if backfill { SchedulerPolicy::Backfill } else { SchedulerPolicy::Fifo },
            node_limit: limit,
            ..SimOptions::default()
        }
        .with_contention(ids::EXTERNAL, ext_factor);
        let scenario = Scenario::new(machines::perlmutter_cpu(), dist_spec(seed, n_tasks))
            .with_options(options);
        let (m, wf, opts) = (&scenario.machine, &scenario.workflow, &scenario.options);
        let overflows = wf.tasks.iter().flat_map(|t| &t.dists).any(|pd| {
            let (lo, hi) = pd.dist.bounds();
            !(lo.is_finite() && hi.is_finite() && pd.dist.mean().is_finite())
        });
        let mc = mc_run(&scenario, &McOptions { reps: 1, seed, threads: 1 });
        if overflows {
            let refused = wf.validate().expect_err("an overflowing distribution is refused");
            prop_assert!(refused.to_string().contains("must be finite"), "{}", refused);
            prop_assert_eq!(mc.err(), Some(SimError::Spec(refused)));
        } else {
            let oracle = certify(m, &envelope(wf, false), opts)
                .and_then(|lo| Ok((lo.lo, certify(m, &envelope(wf, true), opts)?.hi)));
            match (mc, oracle) {
                (Ok(mc), Ok((lo, hi))) => {
                    prop_assert_eq!(mc.bracket_lo.to_bits(), lo.to_bits());
                    prop_assert_eq!(mc.bracket_hi.to_bits(), hi.to_bits());
                }
                (mc, oracle) => prop_assert_eq!(mc.err(), oracle.err()),
            }
        }
    }

    #[test]
    fn mc_point_mass_collapses_to_the_deterministic_run(
        n_tasks in 1usize..8,
        bytes in 1e8f64..1e12,
        seed in any::<u64>(),
    ) {
        let machine = Machine::builder("m", 16)
            .system(ids::FILE_SYSTEM, "fs", BytesPerSec::gbps(5.0))
            .build()
            .unwrap();
        let mut wf = WorkflowSpec::new("w");
        for i in 0..n_tasks {
            wf = wf.task(
                TaskSpec::new(format!("t{i}"), 2)
                    .phase(Phase::system_data(ids::FILE_SYSTEM, bytes))
                    .dist(0, Dist::Point { value: bytes }),
            );
        }
        let scenario = Scenario::new(machine, wf);
        let det = simulate(&scenario).unwrap().makespan;
        let mc = mc_run(&scenario, &McOptions { reps: 32, seed, threads: 2 }).unwrap();
        // All-point-mass: one replication, bit-equal to `simulate`,
        // whatever the seed.
        prop_assert!(mc.degenerate);
        prop_assert_eq!(mc.makespans.len(), 1);
        prop_assert_eq!(mc.makespans[0].to_bits(), det.to_bits());
        prop_assert_eq!(mc.mean.to_bits(), det.to_bits());
    }

    #[test]
    fn mc_results_are_bit_identical_across_thread_counts(
        layers in 1usize..3,
        width in 1usize..4,
        bytes in 1e8f64..1e11,
        seed in any::<u64>(),
    ) {
        let scenario = layered_mc_scenario(layers, width, bytes, 0.3);
        let runs: Vec<Vec<u64>> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                let mc = mc_run(&scenario, &McOptions { reps: 16, seed, threads }).unwrap();
                mc_bits(&mc)
            })
            .collect();
        prop_assert!(runs[0] == runs[1], "1 vs 2 threads diverged");
        prop_assert!(runs[0] == runs[2], "1 vs 4 threads diverged");
    }
}
