//! `whatif-batch`: a closed loop of one thread on the reuse paths, over
//! bases compiled once during set-up. Each operation is an 8x8 sweep
//! (contention on `ext` x node limits, FIFO) of `sweep_scenario(600)`
//! — fast path, checkpoint replay and cold runs — then a 100-replication
//! Monte-Carlo batch of a 1k-task distributional DAG (8 layers of 125). A change that
//! speeds single runs but costs replay or replications shows here and
//! not in `engine-batch`.

use super::{census, closed_loop, loop_metrics, own_peak_rss, span_median_ms, span_medians};
use super::{secs_since, timed_setups, Ctx, Report};
use crate::inputs;
use crate::probe::HostSpeed;
use crate::stats::sub_seed;
use crate::trace::Tracer;
use std::time::Instant;
use wrm_core::ids;
use wrm_sim::{BaseIndex, McOptions, SchedulerPolicy, SimArena, SweepGrid, SweepStats};

const SWEEP_TASKS: usize = 600;
const MC_LAYERS: usize = 8;
const MC_WIDTH: usize = 125;
const MC_REPS: usize = 100;

/// What one operation produced, reduced to the bits that must repeat.
#[derive(Debug, PartialEq)]
struct Outcome {
    sweep: Vec<Option<u64>>,
    mc: Vec<u64>,
    stats: SweepStats,
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let prep = Instant::now();
    let sweep = wrm_bench::sweep_scenario(SWEEP_TASKS);
    let mc = inputs::mc_scenario(
        "mc",
        &inputs::layered(sub_seed(ctx.seed, 0), MC_LAYERS, MC_WIDTH),
    );
    let grid = SweepGrid {
        resource: Some(ids::EXTERNAL.into()),
        factors: vec![0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0],
        node_limits: [
            None,
            Some(2048),
            Some(1024),
            Some(512),
            Some(256),
            Some(128),
            Some(64),
            Some(32),
        ]
        .into(),
        policies: vec![SchedulerPolicy::Fifo],
    };
    let mc_opts = McOptions {
        reps: MC_REPS,
        seed: ctx.seed,
        threads: 1,
    };
    report.info("bench_prep_s", secs_since(prep));

    let mut tracer = Tracer::new(ctx.trace);
    let mut speed = HostSpeed::new(!ctx.trace);
    let mut arena = SimArena::new();
    // The traced run calls `sweep_column` per column itself (what
    // `sweep_grid_with_base` does on one thread) to time each column.
    let mut op = |tr: &mut Tracer, bases: &(BaseIndex, BaseIndex)| -> Result<Outcome, String> {
        tr.op("whatif.op", |tr| {
            let (sweep_base, mc_base) = bases;
            let (sweep_bits, stats) = tr.span("sim.sweep", |tr| {
                let mut slots = vec![None; grid.len()];
                let mut stats = SweepStats::default();
                if tr.enabled() {
                    for ni in 0..grid.node_limits.len() {
                        let (results, s) = tr.span("sim.sweep_column", |_| {
                            wrm_sim::sweep_column(&sweep, &grid, sweep_base, ni, 0, &mut arena)
                        });
                        for (ix, r) in results {
                            slots[ix] = r.ok().map(|r| r.makespan.to_bits());
                        }
                        stats.fastpath += s.fastpath;
                        stats.replayed += s.replayed;
                        stats.cold += s.cold;
                        stats.reused += s.reused;
                        stats.errors += s.errors;
                    }
                } else {
                    let outcome = wrm_sim::sweep_grid_with_base(&sweep, &grid, 1, sweep_base);
                    for (slot, r) in slots.iter_mut().zip(&outcome.results) {
                        *slot = r.as_ref().ok().map(|r| r.makespan.to_bits());
                    }
                    stats = outcome.stats;
                }
                (slots, stats)
            });
            let result = tr
                .span("sim.mc", |_| {
                    wrm_sim::mc_run_with_base(&mc, mc_base, &mc_opts)
                })
                .map_err(|e| e.to_string())?;
            if let Some(x) = result
                .makespans
                .iter()
                .find(|&&x| !(result.bracket_lo..=result.bracket_hi).contains(&x))
            {
                return Err(format!(
                    "MC sample {x} outside the certified bracket [{}, {}]",
                    result.bracket_lo, result.bracket_hi
                ));
            }
            Ok(Outcome {
                sweep: sweep_bits,
                mc: result.makespans.iter().map(|x| x.to_bits()).collect(),
                stats,
            })
        })
    };

    // Set-up compiles both bases and runs one warm-up operation, whose
    // outcome every timed operation must reproduce bit for bit.
    let ((bases, first), setup_s) = timed_setups(ctx, report, &mut speed, || {
        let b = |s: &wrm_sim::Scenario| {
            BaseIndex::build(&s.machine, &s.workflow).map_err(|e| e.to_string())
        };
        let bases = (b(&sweep)?, b(&mc)?);
        let first = op(&mut Tracer::new(false), &bases)?;
        Ok((bases, first))
    })?;
    report.check(first.sweep.iter().all(Option::is_some), || {
        "a sweep cell failed to simulate".into()
    });

    let lp = closed_loop(ctx, report, &mut speed, |_| {
        let got = op(&mut tracer, &bases)?;
        if got != first {
            return Err("what-if results differ from the first operation".into());
        }
        if tracer.enabled() {
            tracer.op("sim.certify", |_| {
                wrm_sim::certify_with_base(&mc.workflow, &mc.options, &bases.1)
                    .map_err(|e| e.to_string())
            })?;
        }
        Ok(())
    });

    if ctx.trace {
        report.spans = tracer.spans().to_vec();
        span_medians(report);
        let cells = grid.len() as f64;
        let st = first.stats;
        report.metric("sweep.fastpath", st.fastpath as f64);
        report.metric("sweep.replayed", st.replayed as f64);
        report.metric("sweep.cold", st.cold as f64);
        report.metric("sweep.reused", st.reused as f64);
        report.metric("sweep.fastpath_frac", st.fastpath as f64 / cells);
        report.metric("mc.reps", MC_REPS as f64);
        let op_s = span_median_ms(&report.spans, "whatif.op") / 1e3;
        report.metric("whatif.evals_per_s", (cells + MC_REPS as f64) / op_s);
        census(report, &[&sweep, &mc])?;
    } else {
        loop_metrics(ctx, report, &lp, &speed, setup_s)?;
        own_peak_rss(report)?;
    }
    Ok(())
}
