//! `cli-oneshot`: a closed loop of one client calling `wrm simulate
//! <spec>` over six emitted 2k-task pipeline specs (4 layers of 250,
//! then 4 fork-join rounds; 32 channels) in a seeded order. This is what
//! a CLI user pays per answer: process start, parse, lint, compile,
//! index build, simulation and render, with the front end doing most of
//! the work. The specs share one size so that the latency distribution
//! has one mode: the median of a mix of size classes sits on a class
//! boundary and jumps between them from run to run.
//!
//! The traced run follows each call with an in-process replay of the
//! same pipeline (spans around each library call) and a breakdown of
//! the lint passes; the CLI's own overhead is the call's median minus
//! the replay's.

use super::{census, closed_loop, loop_metrics, span_median_ms, span_medians, timed_setups};
use super::{secs_since, Ctx, Report};
use crate::emit::to_wrm;
use crate::inputs;
use crate::probe::HostSpeed;
use crate::stats::{median, sorted, sub_seed, SplitMix};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;
use wrm_lint::passes::{self, AnalysisContext};
use wrm_sim::{BaseIndex, Scenario, SimArena};
use wrm_trace::Structure;

const SPECS: u64 = 6;
/// Pipeline shape: layers, then fork-join rounds, all `WIDTH` wide.
const LAYERS: usize = 4;
const ROUNDS: usize = 4;
const WIDTH: usize = 250;
const CHANNELS: usize = 32;

struct Spec {
    path: PathBuf,
    source: String,
    scenario: Scenario,
    expected: Vec<u8>,
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let prep = Instant::now();
    let specs = prepare(ctx)?;
    report.info("bench_prep_s", secs_since(prep));

    let mut speed = HostSpeed::new(!ctx.trace);
    let ((), setup_s) = timed_setups(ctx, report, &mut speed, || {
        for s in &specs {
            call(ctx, s)?;
        }
        Ok(())
    })?;

    // Cycles of a seeded permutation of the six specs.
    let mut rng = SplitMix(sub_seed(ctx.seed, 100));
    let mut order: Vec<usize> = (0..specs.len()).collect();
    let mut tracer = Tracer::new(ctx.trace);
    // Traced calls: (spec, CLI call ms, in-process replay ms).
    let mut calls: Vec<(usize, f64, f64)> = Vec::new();
    let lp = closed_loop(ctx, report, &mut speed, |i| {
        if i % order.len() == 0 {
            rng.shuffle(&mut order);
        }
        let k = order[i % order.len()];
        let s = &specs[k];
        if !tracer.enabled() {
            return call(ctx, s);
        }
        let t = Instant::now();
        tracer.op("cli.call", |_| call(ctx, s))?;
        let call_ms = t.elapsed().as_secs_f64() * 1e3;
        let replay_ms = replay(&mut tracer, s)?;
        calls.push((k, call_ms, replay_ms));
        Ok(())
    });

    if ctx.trace {
        report.spans = tracer.spans().to_vec();
        span_medians(report);
        let layers = [
            "lint.context",
            "lint.structure",
            "lint.channels",
            "lint.bounds",
            "lint.makespan",
        ];
        let passes: f64 = layers
            .iter()
            .map(|n| span_median_ms(&report.spans, n))
            .sum();
        report.metric(
            "lint.rules_ms",
            span_median_ms(&report.spans, "lint.errors") - passes,
        );
        report.metric("cli.overhead_ms", cli_overhead_ms(&calls, specs.len()));
        let tasks: f64 = calls
            .iter()
            .map(|&(k, ..)| specs[k].scenario.workflow.tasks.len() as f64)
            .sum();
        let busy_s: f64 = calls.iter().map(|&(_, ms, _)| ms / 1e3).sum();
        report.metric("sim.tasks_per_s", tasks / busy_s);
        let scenarios: Vec<&Scenario> = specs.iter().map(|s| &s.scenario).collect();
        census(report, &scenarios)?;
    } else {
        loop_metrics(ctx, report, &lp, &speed, setup_s)?;
        // Peak over every `wrm` child this process has waited for.
        report.metric("peak_rss_mb", crate::host::children_peak_rss_mb()?);
    }
    Ok(())
}

/// Emits the six specs and renders, in-process, the report each CLI
/// call must print.
fn prepare(ctx: &Ctx) -> Result<Vec<Spec>, String> {
    let dir = ctx.out.join("specs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut specs = Vec::new();
    for k in 0..SPECS {
        let tasks = inputs::pipeline(sub_seed(ctx.seed, k), LAYERS, ROUNDS, WIDTH);
        let source = to_wrm(&inputs::scenario(
            &format!("pipeline-{k}"),
            &tasks,
            CHANNELS,
        ))?;
        let path = dir.join(format!("cli-{}-{k}.wrm", ctx.seed));
        std::fs::write(&path, &source)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let label = path.to_string_lossy();
        let resolved = wrm_serve::resolve::from_source(&label, &source, None)?;
        let structure = resolved.structure.ok_or("source specs carry a structure")?;
        let result = wrm_sim::simulate(&resolved.scenario).map_err(|e| e.to_string())?;
        let expected = wrm_serve::render::simulate_report(
            &resolved.scenario.workflow.name,
            &resolved.scenario.machine.name,
            &result,
            &structure,
        )?
        .into_bytes();
        specs.push(Spec {
            path,
            source,
            scenario: resolved.scenario,
            expected,
        });
    }
    Ok(specs)
}

/// One `wrm simulate <spec>` call; its stdout must equal the in-process
/// render byte for byte.
fn call(ctx: &Ctx, s: &Spec) -> Result<(), String> {
    let out = Command::new(&ctx.wrm)
        .arg("simulate")
        .arg(&s.path)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", ctx.wrm.display()))?;
    if !out.status.success() {
        return Err(format!(
            "wrm simulate {} failed: {}",
            s.path.display(),
            String::from_utf8_lossy(&out.stderr).trim_end()
        ));
    }
    if out.stdout != s.expected {
        return Err(format!(
            "wrm simulate {} printed a report that differs from the in-process render",
            s.path.display()
        ));
    }
    Ok(())
}

/// The CLI pipeline in-process, one span per library call, followed by
/// the lint passes called one by one. Returns the pipeline's duration in
/// milliseconds.
fn replay(tr: &mut Tracer, s: &Spec) -> Result<f64, String> {
    let t = Instant::now();
    let (ast, machine) = tr.op("cli.replay", |tr| {
        let ast = tr
            .span("lang.parse", |_| wrm_lang::parse(&s.source))
            .map_err(|e| e.to_string())?;
        let errors = tr.span("lint.errors", |_| wrm_lint::lint_errors(&ast));
        if !errors.is_empty() {
            return Err(format!(
                "{} lint error(s) in {}",
                errors.len(),
                s.path.display()
            ));
        }
        let compiled = tr
            .span("lang.compile", |_| wrm_lang::compile(&ast))
            .map_err(|e| e.to_string())?;
        let structure = Structure::new(
            compiled.total_tasks,
            compiled.parallel_tasks,
            compiled.nodes_per_task,
        );
        let machine = compiled.machine.ok_or("spec names its machine")?;
        let scenario = Scenario::new(machine, compiled.spec);
        let base = tr
            .span("sim.index", |_| {
                BaseIndex::build(&scenario.machine, &scenario.workflow)
            })
            .map_err(|e| e.to_string())?;
        // Each value is dropped inside the span of its last use, so the
        // operation's time stays attributed to layers.
        let result = tr
            .span("sim.run_full", |_| {
                let r = wrm_sim::simulate_with_base(&scenario, &base, &mut SimArena::new());
                drop(base);
                r
            })
            .map_err(|e| e.to_string())?;
        let (out, machine) = tr.span("render.report", |_| {
            let out = wrm_serve::render::simulate_report(
                &scenario.workflow.name,
                &scenario.machine.name,
                &result,
                &structure,
            );
            drop(result);
            (out, scenario.machine)
        });
        if out?.as_bytes() != s.expected {
            return Err(format!(
                "in-process replay of {} diverged",
                s.path.display()
            ));
        }
        Ok((ast, machine))
    })?;
    let replay_ms = t.elapsed().as_secs_f64() * 1e3;
    tr.op("lint.breakdown", |tr| {
        let ctx = tr.span("lint.context", |_| {
            AnalysisContext::build(&ast, Some(machine), false)
        });
        let mut out = Vec::new();
        tr.span("lint.structure", |_| {
            passes::structure::unreachable_tasks(&ctx, &mut out);
            passes::structure::redundant_edges(&ast, &ctx, &mut out);
        });
        tr.span("lint.channels", |_| {
            passes::channels::unsaturable(&ctx, &mut out);
            passes::channels::starved(&ctx, &mut out);
        });
        let e010 = tr.span("lint.bounds", |_| {
            passes::bounds::certified_interval(&ctx, &mut out)
        });
        tr.span("lint.makespan", |_| {
            passes::makespan::interval_bound(&ctx, &mut out, e010);
        });
    });
    Ok(replay_ms)
}

/// Mean over the specs of (median CLI call − median in-process replay):
/// process start, file read and output.
fn cli_overhead_ms(calls: &[(usize, f64, f64)], n_specs: usize) -> f64 {
    let mut total = 0.0;
    let mut specs = 0;
    for k in 0..n_specs {
        let of = |pick: fn(&(usize, f64, f64)) -> f64| {
            sorted(calls.iter().filter(|c| c.0 == k).map(pick).collect())
        };
        let (call, rep) = (of(|c| c.1), of(|c| c.2));
        if !call.is_empty() {
            total += median(&call) - median(&rep);
            specs += 1;
        }
    }
    if specs == 0 {
        0.0
    } else {
        total / f64::from(specs)
    }
}
