//! `engine-batch`: a closed loop of one thread running the
//! discrete-event engine with no front end. Each operation builds the
//! index of a 30k-task layered DAG (30 layers of 1000) and runs it with
//! full results, then builds the index of a 30k-task fork-join DAG (30
//! rounds of 998 workers) and runs it in summary mode. The two halves use the engine two ways: materialisation on
//! versus off, and spread-out versus bursty completions (wide barriers
//! drain hundreds of completions into one instant). Calendar, fair-share
//! and materialisation changes show here; lint and lang changes are
//! predicted to change nothing.

use super::{census, closed_loop, loop_metrics, own_peak_rss, span_median_ms, span_medians};
use super::{secs_since, timed_setups, Ctx, Report};
use crate::inputs;
use crate::probe::HostSpeed;
use crate::stats::{median, sorted, sub_seed};
use crate::trace::Tracer;
use std::time::Instant;
use wrm_sim::{BaseIndex, Scenario, SimArena};

/// Both DAGs are `DEPTH` layers (rounds) of `WIDTH` tasks.
const DEPTH: usize = 30;
const WIDTH: usize = 1_000;
const TASKS: usize = DEPTH * WIDTH;
const CHANNELS: usize = 32;
/// Depth at which the reference engine is checked against the fast one
/// (2k tasks per shape).
const REFERENCE_DEPTH: usize = 2;

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let prep = Instant::now();
    let (layered, fork_join) = shapes(ctx.seed, DEPTH);
    let full = wrm_sim::simulate(&layered)
        .map_err(|e| e.to_string())?
        .makespan;
    let summary = wrm_sim::simulate_summary(&fork_join)
        .map_err(|e| e.to_string())?
        .makespan;
    check_modes_and_reference(ctx, report, &layered, &fork_join, full, summary)?;
    report.info("bench_prep_s", secs_since(prep));

    let mut tracer = Tracer::new(ctx.trace);
    let mut speed = HostSpeed::new(!ctx.trace);
    let op = |tr: &mut Tracer, arena: &mut SimArena| -> Result<(), String> {
        tr.op("engine.op", |tr| {
            let base = tr
                .span("sim.index", |_| {
                    BaseIndex::build(&layered.machine, &layered.workflow)
                })
                .map_err(|e| e.to_string())?;
            // Results and index are dropped inside the span: freeing
            // them is part of what a full run costs.
            let makespan = tr
                .span("sim.run_full", |_| {
                    let r = wrm_sim::simulate_with_base(&layered, &base, arena);
                    drop(base);
                    r.map(|r| r.makespan)
                })
                .map_err(|e| e.to_string())?;
            if makespan.to_bits() != full.to_bits() {
                return Err(format!("layered makespan {makespan} != {full}"));
            }
            let base = tr
                .span("sim.index", |_| {
                    BaseIndex::build(&fork_join.machine, &fork_join.workflow)
                })
                .map_err(|e| e.to_string())?;
            let makespan = tr
                .span("sim.run_summary", |_| {
                    let s = wrm_sim::simulate_summary_with_base(&fork_join, &base, arena);
                    drop(base);
                    s.map(|s| s.makespan)
                })
                .map_err(|e| e.to_string())?;
            if makespan.to_bits() != summary.to_bits() {
                return Err(format!("fork-join makespan {makespan} != {summary}"));
            }
            Ok(())
        })
    };

    // Set-up warms one arena with a full operation.
    let (mut arena, setup_s) = timed_setups(ctx, report, &mut speed, || {
        let mut arena = SimArena::new();
        op(&mut Tracer::new(false), &mut arena)?;
        Ok(arena)
    })?;
    let mut materialise_ref = Vec::new();
    let lp = closed_loop(ctx, report, &mut speed, |_| {
        op(&mut tracer, &mut arena)?;
        if tracer.enabled() {
            // Summary mode on the layered DAG: full minus this is what
            // materialising the results costs.
            let base =
                BaseIndex::build(&layered.machine, &layered.workflow).map_err(|e| e.to_string())?;
            let t = Instant::now();
            wrm_sim::simulate_summary_with_base(&layered, &base, &mut arena)
                .map_err(|e| e.to_string())?;
            materialise_ref.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(())
    });

    if ctx.trace {
        report.spans = tracer.spans().to_vec();
        span_medians(report);
        report.metric(
            "sim.materialise_ms",
            span_median_ms(&report.spans, "sim.run_full") - median(&sorted(materialise_ref)),
        );
        let op_s = span_median_ms(&report.spans, "engine.op") / 1e3;
        report.metric("sim.tasks_per_s", (2 * TASKS) as f64 / op_s);
        census(report, &[&layered, &fork_join])?;
    } else {
        loop_metrics(ctx, report, &lp, &speed, setup_s)?;
        own_peak_rss(report)?;
    }
    Ok(())
}

/// The layered and the fork-join DAG, `depth` x `WIDTH` tasks each.
fn shapes(seed: u64, depth: usize) -> (Scenario, Scenario) {
    let layered = inputs::layered(sub_seed(seed, 0), depth, WIDTH);
    let fork_join = inputs::fork_join(sub_seed(seed, 1), depth, WIDTH - 2);
    (
        inputs::scenario("layered", &layered, CHANNELS),
        inputs::scenario("forkjoin", &fork_join, CHANNELS),
    )
}

/// Set-up checks outside the timing: summary and full runs agree on
/// both DAGs, and at 2k tasks the reference engine reproduces the fast
/// engine's full result exactly.
fn check_modes_and_reference(
    ctx: &Ctx,
    report: &mut Report,
    layered: &Scenario,
    fork_join: &Scenario,
    full: f64,
    summary: f64,
) -> Result<(), String> {
    let layered_summary = wrm_sim::simulate_summary(layered).map_err(|e| e.to_string())?;
    report.check(layered_summary.makespan.to_bits() == full.to_bits(), || {
        format!(
            "layered summary {} != full {full}",
            layered_summary.makespan
        )
    });
    let fork_join_full = wrm_sim::simulate(fork_join).map_err(|e| e.to_string())?;
    report.check(
        fork_join_full.makespan.to_bits() == summary.to_bits(),
        || {
            format!(
                "fork-join full {} != summary {summary}",
                fork_join_full.makespan
            )
        },
    );
    let (a, b) = shapes(sub_seed(ctx.seed, 2), REFERENCE_DEPTH);
    for s in [a, b] {
        let fast = wrm_sim::simulate(&s).map_err(|e| e.to_string())?;
        let reference = wrm_sim::reference::simulate_reference(&s).map_err(|e| e.to_string())?;
        report.check(fast == reference, || {
            format!(
                "{}: fast engine differs from the reference engine",
                s.workflow.name
            )
        });
    }
    Ok(())
}
