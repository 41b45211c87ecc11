//! Simulator performance benchmarks: event throughput scaling with task
//! count and dependency depth, the fair-share solver, and the scheduler
//! ablation (FIFO vs. backfill).

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use wrm_bench::{
    bag_scenario, generated_fork_join_scenario, generated_scenario, layered_scenario, mc_scenario,
    sweep_scenario,
};
use wrm_core::Dist;
use wrm_sim::reference::simulate_reference;
use wrm_sim::{
    max_min_rates, mc_run, run_all, simulate, simulate_summary, simulate_summary_with_base,
    simulate_with_base, sweep_grid, BaseIndex, FlowDemand, McOptions, McResult, Phase, Scenario,
    SchedulerPolicy, SimArena, SimOptions, SimResult, SimSummary, SweepGrid,
};

fn sim_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/bag_scaling");
    for n in [16usize, 64, 256, 1024] {
        let scenario = bag_scenario(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &scenario, |b, s| {
            b.iter(|| black_box(simulate(s).unwrap().makespan));
        });
    }
    group.finish();
}

fn sim_layers(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/layered");
    for (depth, width) in [(8usize, 8usize), (32, 8), (8, 32)] {
        let scenario = layered_scenario(depth, width);
        group.throughput(Throughput::Elements((depth * width) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{depth}x{width}")),
            &scenario,
            |b, s| b.iter(|| black_box(simulate(s).unwrap().makespan)),
        );
    }
    group.finish();
}

fn fair_share_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/max_min_solver");
    for n in [8usize, 64, 512, 4096] {
        let flows: Vec<FlowDemand> = (0..n)
            .map(|id| FlowDemand {
                id,
                cap: if id % 3 == 0 {
                    (id + 1) as f64
                } else {
                    f64::INFINITY
                },
            })
            .collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &flows, |b, f| {
            b.iter(|| black_box(max_min_rates(1e12, f)));
        });
    }
    group.finish();
}

fn scheduler_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/scheduler_ablation");
    let base = bag_scenario(512);
    for (name, policy) in [
        ("fifo", SchedulerPolicy::Fifo),
        ("backfill", SchedulerPolicy::Backfill),
    ] {
        let mut scenario = base.clone();
        scenario.options = SimOptions {
            scheduler: policy,
            node_limit: Some(64),
            ..SimOptions::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &scenario, |b, s| {
            b.iter(|| black_box(simulate(s).unwrap().makespan));
        });
    }
    group.finish();
}

fn generated_dags(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/generated");
    for n in [1_000usize, 10_000] {
        let scenario = generated_scenario(n, 32, 42);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("optimized", n), &scenario, |b, s| {
            b.iter(|| black_box(simulate(s).unwrap().makespan));
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &scenario, |b, s| {
            b.iter(|| black_box(simulate_reference(s).unwrap().makespan));
        });
    }
    group.finish();
}

fn sweep_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/sweep_threads");
    let scenarios: Vec<Scenario> = (0..32).map(|i| generated_scenario(500, 8, i)).collect();
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &scenarios, |b, s| {
            b.iter(|| {
                for r in run_all(black_box(s), threads) {
                    black_box(r.unwrap().makespan);
                }
            });
        });
    }
    group.finish();
}

/// The contention x node-limit grid the incremental sweep engine is
/// benchmarked on: `side` values per axis, single policy. The node axis
/// (256, 316, ...) brackets the workloads' natural parallelism — the
/// smallest limits queue, the rest run unqueued — and stays inside the
/// machine's 4096-node pool at the full 64-value size. Every column
/// runs cold once and replays the rest of its factors.
fn incremental_grid(side: usize) -> SweepGrid {
    SweepGrid {
        resource: Some(wrm_core::ids::EXTERNAL.into()),
        factors: (0..side).map(|i| 0.25 + i as f64 * 0.05).collect(),
        node_limits: (0..side).map(|i| Some(256 + 60 * i as u64)).collect(),
        policies: vec![SchedulerPolicy::Fifo],
    }
}

/// The grid expanded to per-point scenarios, in `SweepGrid::index_of`
/// order — the cold path the incremental engine is measured against.
fn grid_scenarios(base: &Scenario, grid: &SweepGrid) -> Vec<Scenario> {
    let mut out = Vec::with_capacity(grid.len());
    for fi in 0..grid.factors.len() {
        for ni in 0..grid.node_limits.len() {
            for pi in 0..grid.policies.len() {
                out.push(
                    base.clone()
                        .with_options(grid.point_options(&base.options, fi, ni, pi)),
                );
            }
        }
    }
    out
}

/// Asserts the incremental sweep matches cold per-point simulation on
/// every grid point, bit for bit and span order included.
fn assert_incremental_matches_cold(base: &Scenario, grid: &SweepGrid) -> wrm_sim::SweepStats {
    let outcome = sweep_grid(base, grid, 1);
    let cold = run_all(&grid_scenarios(base, grid), 1);
    assert_eq!(outcome.results.len(), cold.len());
    for (i, (a, b)) in outcome.results.iter().zip(&cold).enumerate() {
        assert_eq!(a, b, "incremental diverges from cold at grid point {i}");
    }
    outcome.stats
}

/// Small-grid incremental sweep: correctness gate first (divergence
/// panics, failing the bench — CI runs this with `--test`), then the
/// timed body.
fn sweep_incremental_smoke(c: &mut Criterion) {
    let base = sweep_scenario(200);
    let grid = incremental_grid(8);
    let stats = assert_incremental_matches_cold(&base, &grid);
    assert!(stats.cold > 0, "no cold run: {stats:?}");
    assert!(stats.replayed > 0, "replay unused: {stats:?}");
    let mut group = c.benchmark_group("engine/sweep_incremental");
    group.bench_function("8x8", |b| {
        b.iter(|| black_box(sweep_grid(&base, &grid, 1).results.len()));
    });
    group.finish();
}

criterion_group! {
    name = engine;
    config = Criterion::default().sample_size(10);
    targets = sim_scaling, sim_layers, fair_share_solver, scheduler_ablation,
        generated_dags, sweep_threads, sweep_incremental_smoke
}

/// Best-of-`reps` wall time in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// One row of the scaling curve: shape, size, per-mode wall times.
struct ScalingRow {
    shape: &'static str,
    n: usize,
    full_ms: Option<f64>,
    summary_ms: f64,
    makespan: f64,
}

/// Builds one scaling workload by shape name.
fn scaling_scenario(shape: &str, n: usize) -> Scenario {
    match shape {
        "layered" => generated_scenario(n, 32, 42),
        "forkjoin" => generated_fork_join_scenario(n, 32, 42),
        other => panic!("unknown scaling shape {other}"),
    }
}

/// [`simulate`] over a warm arena: the index build stays inside the
/// measured work, only allocation is amortized.
fn full_in(scenario: &Scenario, arena: &mut SimArena) -> SimResult {
    let base = BaseIndex::build(&scenario.machine, &scenario.workflow).unwrap();
    simulate_with_base(scenario, &base, arena).unwrap()
}

/// [`simulate_summary`] over a warm arena; see [`full_in`].
fn summary_in(scenario: &Scenario, arena: &mut SimArena) -> SimSummary {
    let base = BaseIndex::build(&scenario.machine, &scenario.workflow).unwrap();
    simulate_summary_with_base(scenario, &base, arena).unwrap()
}

/// Measures one scaling row. Summary mode always runs; full-result mode
/// runs when `full` is set, and its makespan must equal the summary's
/// bit for bit (the streaming aggregates replicate the trace folds).
fn scaling_row(shape: &'static str, n: usize, full: bool, reps: usize) -> ScalingRow {
    let scenario = scaling_scenario(shape, n);
    let mut arena = SimArena::new();
    let sum = summary_in(&scenario, &mut arena);
    assert_eq!(sum.n_tasks, n);
    let summary_ms = time_ms(reps, || {
        black_box(summary_in(&scenario, &mut arena).makespan);
    });
    let full_ms = full.then(|| {
        let r = full_in(&scenario, &mut arena);
        assert_eq!(
            r.makespan, sum.makespan,
            "summary-mode makespan must match the full engine ({shape}/{n})"
        );
        time_ms(reps, || {
            black_box(full_in(&scenario, &mut arena).makespan);
        })
    });
    ScalingRow {
        shape,
        n,
        full_ms,
        summary_ms,
        makespan: sum.makespan,
    }
}

fn scaling_rows_json(rows: &[ScalingRow]) -> String {
    rows.iter()
        .map(|r| {
            let full = r
                .full_ms
                .map_or("null".to_owned(), |ms| format!("{ms:.2}"));
            format!(
                "      {{ \"shape\": \"{}\", \"n_tasks\": {}, \"full_ms\": {full}, \"summary_ms\": {:.2}, \"makespan_s\": {:.6} }}",
                r.shape, r.n, r.summary_ms, r.makespan
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// The naive Monte-Carlo loop the batched runner is measured against:
/// one single-replication engine call per replication, so every rep
/// pays index compilation and the two envelope certificates that
/// `mc_run` amortizes across the whole batch. Seeding each call with
/// `seed ^ rep` reproduces the batched runner's per-replication
/// generator, so the two paths must agree bit for bit.
fn naive_mc(scenario: &Scenario, reps: usize, seed: u64) -> Vec<f64> {
    (0..reps)
        .map(|rep| {
            mc_run(
                scenario,
                &McOptions {
                    reps: 1,
                    seed: seed ^ rep as u64,
                    threads: 1,
                },
            )
            .unwrap()
            .makespans[0]
        })
        .collect()
}

/// `scenario` with every phase distribution collapsed to a point mass
/// at the phase's nominal quantity.
fn point_mass(scenario: &Scenario) -> Scenario {
    let mut s = scenario.clone();
    for t in &mut s.workflow.tasks {
        for pd in &mut t.dists {
            let value = match &t.phases[pd.phase as usize] {
                Phase::Compute { flops, .. } => *flops,
                Phase::NodeData { bytes, .. } | Phase::SystemData { bytes, .. } => *bytes,
                Phase::Overhead { seconds, .. } => *seconds,
            };
            pd.dist = Dist::Point { value };
        }
    }
    s
}

/// Correctness gates for the Monte-Carlo engine, asserted before any
/// timing: thread fan-out and the naive loop reproduce the batched
/// makespans bit for bit, the analytic envelope brackets every sample,
/// and the all-point-mass variant collapses to one replication equal to
/// the deterministic run. Returns the batched result for reporting.
fn assert_mc_correct(scenario: &Scenario, reps: usize, seed: u64) -> McResult {
    let batched = mc_run(
        scenario,
        &McOptions {
            reps,
            seed,
            threads: 1,
        },
    )
    .unwrap();
    assert_eq!(batched.makespans.len(), reps);

    let threaded = mc_run(
        scenario,
        &McOptions {
            reps,
            seed,
            threads: 2,
        },
    )
    .unwrap();
    for (i, (a, b)) in batched
        .makespans
        .iter()
        .zip(&threaded.makespans)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "thread divergence at rep {i}");
    }

    let naive = naive_mc(scenario, reps.min(8), seed);
    for (i, (a, b)) in batched.makespans.iter().zip(&naive).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "naive divergence at rep {i}");
    }

    for (i, &m) in batched.makespans.iter().enumerate() {
        assert!(
            batched.bracket_lo <= m && m <= batched.bracket_hi,
            "rep {i} makespan {m} outside bracket [{}, {}]",
            batched.bracket_lo,
            batched.bracket_hi
        );
    }

    let pm = point_mass(scenario);
    let det = simulate_summary(scenario).unwrap().makespan;
    let collapsed = mc_run(
        &pm,
        &McOptions {
            reps: 16,
            seed,
            threads: 1,
        },
    )
    .unwrap();
    assert!(collapsed.degenerate, "point-mass batch did not collapse");
    assert_eq!(collapsed.makespans.len(), 1);
    assert_eq!(
        collapsed.makespans[0].to_bits(),
        det.to_bits(),
        "degenerate replication diverges from the deterministic run"
    );

    batched
}

/// CI smoke (runs under `--test`): the 100k-task layered workload in
/// summary mode must reproduce the full-result engine's makespan bit
/// for bit and finish inside a generous single-CPU wall-clock budget.
/// Writes the small scaling table to `target/scaling_smoke.json` for
/// artifact upload.
fn scaling_smoke() {
    let row = scaling_row("layered", 100_000, true, 1);
    assert!(
        row.summary_ms < 60_000.0,
        "100k-task summary run blew the smoke budget: {:.0} ms",
        row.summary_ms
    );
    let json = format!(
        "{{\n  \"bench\": \"engine/scaling_smoke\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        scaling_rows_json(&[row])
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/scaling_smoke.json"
    );
    std::fs::write(path, &json).expect("write scaling_smoke.json");
    println!("scaling smoke: wrote {path}");
}

/// Headline numbers for the PR acceptance criteria, written to
/// `BENCH_engine.json` at the workspace root: optimized-vs-reference
/// speedup on the 10k-task / 32-channel DAG, and `run_all` thread
/// scaling. Skipped in smoke mode (`--test`), where criterion already
/// exercised every bench body once.
fn write_baseline() {
    let scenario = generated_scenario(10_000, 32, 42);
    let opt = simulate(&scenario).unwrap();
    let reference = simulate_reference(&scenario).unwrap();
    assert_eq!(opt, reference, "engines must agree before we time them");

    let opt_ms = time_ms(5, || {
        black_box(simulate(&scenario).unwrap().makespan);
    });
    let ref_ms = time_ms(5, || {
        black_box(simulate_reference(&scenario).unwrap().makespan);
    });
    let speedup = ref_ms / opt_ms;

    let scenarios: Vec<Scenario> = (0..64).map(|i| generated_scenario(1_000, 8, i)).collect();
    let mut sweep_ms = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let ms = time_ms(3, || {
            for r in run_all(black_box(&scenarios), threads) {
                black_box(r.unwrap().makespan);
            }
        });
        sweep_ms.push((threads, ms));
    }
    let serial_ms = sweep_ms[0].1;

    let sweep_json: Vec<String> = sweep_ms
        .iter()
        .map(|(t, ms)| {
            format!(
                "      {{ \"threads\": {t}, \"ms\": {ms:.2}, \"speedup_vs_serial\": {:.2} }}",
                serial_ms / ms
            )
        })
        .collect();
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Thread scaling is meaningless without cores to scale onto; say so
    // in the data rather than leaving a mystery 1.0x table.
    let sweep_note = if cpus == 1 {
        "\n    \"note\": \"host has 1 CPU: thread scaling cannot show a speedup here\",".to_owned()
    } else {
        String::new()
    };

    // The incremental sweep engine vs cold per-point simulation on a
    // 64x64 contention x node-limit grid, single-threaded so the win is
    // purely algorithmic. Equality is asserted before anything is timed.
    let grid_base = sweep_scenario(1_000);
    let grid = incremental_grid(64);
    let grid_stats = assert_incremental_matches_cold(&grid_base, &grid);
    let cold_scenarios = grid_scenarios(&grid_base, &grid);
    let cold_ms = time_ms(2, || {
        for r in run_all(black_box(&cold_scenarios), 1) {
            black_box(r.unwrap().makespan);
        }
    });
    let inc_ms = time_ms(3, || {
        for r in sweep_grid(black_box(&grid_base), black_box(&grid), 1).results {
            black_box(r.unwrap().makespan);
        }
    });
    let grid_speedup = cold_ms / inc_ms;

    // The Monte-Carlo replication engine vs the naive loop that pays
    // index compilation and envelope certification once per
    // replication. Correctness gates run first; the naive baseline is
    // timed before the batched runner.
    let mc_scn = mc_scenario(10_000, 42);
    let mc_reps = 1_000;
    let mc_gold = assert_mc_correct(&mc_scn, mc_reps, 42);
    let naive_ms = time_ms(1, || {
        black_box(naive_mc(&mc_scn, mc_reps, 42).len());
    });
    let batched_ms = time_ms(3, || {
        black_box(
            mc_run(
                &mc_scn,
                &McOptions {
                    reps: mc_reps,
                    seed: 42,
                    threads: 1,
                },
            )
            .unwrap()
            .mean,
        );
    });
    let mc_speedup = naive_ms / batched_ms;
    assert!(
        mc_speedup >= 5.0,
        "batched Monte-Carlo must be >= 5x the naive loop, got {mc_speedup:.2}x \
         ({naive_ms:.0} ms vs {batched_ms:.0} ms)"
    );
    let (mc_p50, mc_p90, mc_p99) = (
        mc_gold.percentiles[0].value,
        mc_gold.percentiles[1].value,
        mc_gold.percentiles[2].value,
    );
    let (mc_lo, mc_hi) = (mc_gold.bracket_lo, mc_gold.bracket_hi);
    let mc_mean = mc_gold.mean;

    // Scaling curve: 10k -> 100k (full + summary, makespans asserted
    // bit-equal) -> 1M (summary only; the full-result maps are exactly
    // what summary mode exists to avoid at that size).
    let scaling = [
        scaling_row("layered", 10_000, true, 3),
        scaling_row("layered", 100_000, true, 2),
        scaling_row("forkjoin", 100_000, true, 2),
        scaling_row("layered", 1_000_000, false, 1),
    ];

    let json = format!(
        "{{\n  \"bench\": \"engine/generated\",\n  \"workload\": \"10000 tasks, 32 shared channels, seed 42 (wrm_bench::generated_scenario)\",\n  \"host_cpus\": {cpus},\n  \"makespan_s\": {:.6},\n  \"reference_ms\": {ref_ms:.2},\n  \"optimized_ms\": {opt_ms:.2},\n  \"speedup\": {speedup:.2},\n  \"sweep\": {{\n    \"workload\": \"64 scenarios x 1000 tasks, 8 channels (wrm_sim::run_all)\",\n    \"host_cpus\": {cpus},{sweep_note}\n    \"threads\": [\n{}\n    ]\n  }},\n  \"sweep_incremental\": {{\n    \"workload\": \"1000-task layered pipeline + 16-task chained archive stage (wrm_bench::sweep_scenario)\",\n    \"grid\": \"64 contention factors (0.25..3.40 on ext) x 64 node limits (256..4036), fifo\",\n    \"host_cpus\": {cpus},\n    \"threads\": 1,\n    \"cold_ms\": {cold_ms:.2},\n    \"incremental_ms\": {inc_ms:.2},\n    \"speedup\": {grid_speedup:.2},\n    \"points\": {{ \"replayed\": {}, \"cold\": {}, \"reused\": {}, \"errors\": {} }},\n    \"note\": \"single-threaded by construction (algorithmic win); incremental results asserted bit-identical to cold per-point simulation before timing\"\n  }},\n  \"mc\": {{\n    \"workload\": \"10000-task layered DAG, distributional durations, seed 42 (wrm_bench::mc_scenario)\",\n    \"reps\": {mc_reps},\n    \"seed\": 42,\n    \"host_cpus\": {cpus},\n    \"threads\": 1,\n    \"naive_ms\": {naive_ms:.2},\n    \"batched_ms\": {batched_ms:.2},\n    \"speedup\": {mc_speedup:.2},\n    \"makespan_mean_s\": {mc_mean:.6},\n    \"p50_s\": {mc_p50:.6},\n    \"p90_s\": {mc_p90:.6},\n    \"p99_s\": {mc_p99:.6},\n    \"bracket_s\": [{mc_lo:.6}, {mc_hi:.6}],\n    \"note\": \"naive = one single-replication engine call per rep (fresh index + envelope certificates each time); batched makespans asserted bit-identical to the naive loop and across thread counts, bracket containment and degenerate collapse asserted before timing\"\n  }},\n  \"scaling\": {{\n    \"workload\": \"generated layered / fork-join DAGs, 32 shared channels, seed 42 (wrm_bench::generated_scenario / generated_fork_join_scenario)\",\n    \"host_cpus\": {cpus},\n    \"rows\": [\n{}\n    ],\n    \"note\": \"summary-mode makespans asserted bit-equal to the full engine wherever both run; 1M-task row is summary-only (O(channels) result memory)\"\n  }},\n  \"methodology\": \"cargo bench -p wrm-bench --bench engine; headline: best of 5 runs; sweep: best of 3 (cold grid: best of 2; 100k rows: best of 2; 1M row: single run); mc: naive best of 1 (1000 replications amortize per-rep noise), batched best of 3; see docs/PERF.md\"\n}}\n",
        opt.makespan,
        sweep_json.join(",\n"),
        grid_stats.replayed,
        grid_stats.cold,
        grid_stats.reused,
        grid_stats.errors,
        scaling_rows_json(&scaling)
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, &json).expect("write BENCH_engine.json");
    println!("engine baseline: {speedup:.1}x vs reference ({ref_ms:.1} ms -> {opt_ms:.1} ms); wrote {path}");
    println!(
        "incremental sweep: {grid_speedup:.1}x vs cold on the 64x64 grid \
         ({cold_ms:.0} ms -> {inc_ms:.0} ms; {} replayed / {} cold / {} reused)",
        grid_stats.replayed, grid_stats.cold, grid_stats.reused
    );
    println!(
        "monte-carlo: {mc_speedup:.1}x vs naive over {mc_reps} replications \
         ({naive_ms:.0} ms -> {batched_ms:.0} ms; p50 {mc_p50:.1} s, p99 {mc_p99:.1} s)"
    );
}

/// CI smoke for the Monte-Carlo engine (runs under `--test`): every
/// correctness gate on a 2000-task workload with 64 replications.
fn mc_smoke() {
    let scenario = mc_scenario(2_000, 42);
    let mc = assert_mc_correct(&scenario, 64, 7);
    println!(
        "mc smoke: {} reps, mean {:.2} s, bracket [{:.2}, {:.2}] s",
        mc.reps, mc.mean, mc.bracket_lo, mc.bracket_hi
    );
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        engine();
        scaling_smoke();
        mc_smoke();
    } else {
        // Headline timings first, in a quiet process: criterion's long
        // churn ahead of them inflates the measurements noticeably on a
        // 1-CPU host.
        write_baseline();
        engine();
    }
}
