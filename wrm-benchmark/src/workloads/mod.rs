//! The four workloads and what they share: the run context, the report
//! a workload child hands back, the closed-loop runner, repeated set-up
//! timing, the host-speed scaling of the timing metrics, and the
//! per-layer helpers the traced runs use.

pub mod cli;
pub mod engine;
pub mod serve;
pub mod whatif;

use crate::probe::HostSpeed;
use crate::stats::{median, percentile, sorted};
use crate::trace::{self, Span};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wrm_sim::Scenario;

/// Workload names, in the order `run` without `--workload` runs them.
pub const NAMES: [&str; 4] = ["cli-oneshot", "engine-batch", "whatif-batch", "serve-mixed"];

/// A timed phase never runs past this, whatever the operation count, so
/// one run stays inside its time limit on a slow host.
const HARD_CAP: Duration = Duration::from_secs(100);

/// Everything a workload run is parameterised by.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed every input and request order derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke run (`check`): a few operations, one set-up, no minimum
    /// sample count for tail percentiles.
    pub smoke: bool,
    /// The release `wrm` binary.
    pub wrm: PathBuf,
    /// Output directory (specs, traces).
    pub out: PathBuf,
}

impl Ctx {
    /// Operations a closed loop runs at least: enough for a p90 with ten
    /// samples beyond it.
    pub fn min_ops(&self) -> usize {
        if self.smoke {
            3
        } else {
            100
        }
    }

    /// How many times set-up runs; `setup_s` is the median. Set-ups of
    /// a tenth of a second vary by half from run to run on a shared
    /// host, so five.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed or returned a wrong result.
    pub failed: u64,
    /// Every correctness failure, set-up checks included (first few
    /// messages kept).
    pub errors: Vec<String>,
    /// Number of correctness failures.
    pub error_count: u64,
    /// Reported metrics: end-to-end, or per-layer when traced.
    pub metrics: BTreeMap<String, f64>,
    /// Context that is not a metric (preparation time, sample counts).
    pub info: BTreeMap<String, f64>,
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
}

impl Report {
    /// Records a correctness failure.
    pub fn error(&mut self, msg: String) {
        self.error_count += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Sets a metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Sets an informational value.
    pub fn info(&mut self, name: &str, value: f64) {
        self.info.insert(name.to_owned(), value);
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.error_count == 0 && self.failed == 0
    }

    /// Checks a set-up invariant, recording a failure when it breaks.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.error(msg());
        }
    }
}

/// Runs one workload by name.
pub fn run(name: &str, ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    match name {
        "cli-oneshot" => cli::run(ctx, &mut report)?,
        "engine-batch" => engine::run(ctx, &mut report)?,
        "whatif-batch" => whatif::run(ctx, &mut report)?,
        "serve-mixed" => serve::run(ctx, &mut report)?,
        other => return Err(format!("unknown workload `{other}` (one of {NAMES:?})")),
    }
    if ctx.trace {
        report.metric("trace.uncovered_frac", trace::uncovered_frac(&report.spans));
        for d in crate::metrics::PER_LAYER {
            report.metrics.entry(d.name.to_owned()).or_insert(0.0);
        }
    }
    Ok(report)
}

/// A closed loop's latencies and completion times.
pub struct Loop {
    /// Per-operation latency in milliseconds, in run order, as measured.
    pub lat_ms: Vec<f64>,
    /// The same at the reference host speed (see [`crate::probe`]).
    pub ref_ms: Vec<f64>,
    /// When each operation completed, in seconds since the loop began,
    /// counting only operation time at the reference host speed.
    pub done_s: Vec<f64>,
}

/// Runs `op(i)` back to back, one at a time, until `ctx.seconds` have
/// passed and at least `ctx.min_ops()` operations have run, each timed
/// between host-speed probes. A failing operation counts as failed and
/// its message is kept.
pub fn closed_loop(
    ctx: &Ctx,
    report: &mut Report,
    speed: &mut HostSpeed,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Loop {
    let budget = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    let mut lp = Loop {
        lat_ms: Vec::new(),
        ref_ms: Vec::new(),
        done_s: Vec::new(),
    };
    let mut busy_s = 0.0;
    loop {
        let elapsed = start.elapsed();
        if (elapsed >= budget && lp.lat_ms.len() >= ctx.min_ops()) || elapsed >= HARD_CAP {
            break;
        }
        let (outcome, t) = speed.time(|| op(lp.lat_ms.len()));
        lp.lat_ms.push(t.measured_s * 1e3);
        lp.ref_ms.push(t.ref_s * 1e3);
        busy_s += t.ref_s;
        lp.done_s.push(busy_s);
        report.attempted += 1;
        if let Err(e) = outcome {
            report.failed += 1;
            report.error(e);
        }
    }
    lp
}

/// Completions per chunk of a closed loop's `ops_per_s`.
const RATE_CHUNK: usize = 10;

/// Runs `setup` `ctx.setup_reps()` times, each between host-speed
/// probes, and returns the last result with the median set-up time at
/// the reference host speed, in seconds. The previous result is dropped
/// before the next set-up starts, outside the timing.
pub fn timed_setups<T>(
    ctx: &Ctx,
    report: &mut Report,
    speed: &mut HostSpeed,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut last = None;
    let (mut measured, mut secs) = (Vec::new(), Vec::new());
    for _ in 0..ctx.setup_reps() {
        drop(last.take());
        let (value, t) = speed.time(&mut setup);
        last = Some(value?);
        measured.push(t.measured_s);
        secs.push(t.ref_s);
    }
    let value = last.ok_or("no set-up ran")?;
    report.info("measured_setup_s", median(&sorted(measured)));
    Ok((value, median(&sorted(secs))))
}

/// The latency metrics of the untraced run: median and p90 over the
/// timed operations at the reference host speed (`ref_ms`), with the
/// measured ones (`lat_ms`) kept as information. A smoke run has too few
/// samples for p90 and reports its slowest operation instead.
pub fn latency_metrics(
    ctx: &Ctx,
    report: &mut Report,
    lat_ms: &[f64],
    ref_ms: &[f64],
) -> Result<(), String> {
    let p50_p90 = |lat: &[f64]| -> Result<(f64, f64), String> {
        let lat = sorted(lat.to_vec());
        let p90 = match percentile(&lat, 0.9) {
            Ok(v) => v,
            Err(_) if ctx.smoke => *lat.last().ok_or("no operations ran")?,
            Err(e) => return Err(e),
        };
        Ok((percentile(&lat, 0.5)?, p90))
    };
    let (p50, p90) = p50_p90(ref_ms)?;
    report.metric("p50_ms", p50);
    report.metric("p90_ms", p90);
    let (p50, p90) = p50_p90(lat_ms)?;
    report.info("measured_p50_ms", p50);
    report.info("measured_p90_ms", p90);
    report.info("samples", lat_ms.len() as f64);
    Ok(())
}

/// The closed-loop metrics of the untraced run: latency, set-up time
/// and throughput at the reference host speed, with the probe's median
/// kept as `probe_ms`. `ops_per_s` is the median rate over chunks of
/// [`RATE_CHUNK`] consecutive completions (see
/// [`median_rate`](crate::stats::median_rate)), so a burst of
/// interference from other processes moves it no more than it moves the
/// median latency. A smoke run may complete fewer than a chunk.
pub fn loop_metrics(
    ctx: &Ctx,
    report: &mut Report,
    lp: &Loop,
    speed: &HostSpeed,
    setup_s: f64,
) -> Result<(), String> {
    latency_metrics(ctx, report, &lp.lat_ms, &lp.ref_ms)?;
    report.metric("setup_s", setup_s);
    let chunk = RATE_CHUNK.min(lp.done_s.len()).max(1);
    let rate = crate::stats::median_rate(&lp.done_s, chunk).ok_or("nothing completed")?;
    report.metric("ops_per_s", rate);
    report.info("probe_ms", speed.median_ms()?);
    Ok(())
}

/// Median duration per span name, as `<name>_ms` layer metrics.
pub fn span_medians(report: &mut Report) {
    let medians: Vec<(String, f64)> = trace::durations_ms(&report.spans)
        .into_iter()
        .map(|(name, d)| (format!("{name}_ms"), median(&sorted(d))))
        .collect();
    for (name, v) in medians {
        if crate::metrics::find(&name).is_some() {
            report.metric(&name, v);
        }
    }
}

/// Median duration of the spans named `name` (0 when there are none).
pub fn span_median_ms(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect();
    if d.is_empty() {
        0.0
    } else {
        median(&sorted(d))
    }
}

/// Exact work counts of a workload's distinct inputs, from one summary
/// run each: tasks, trace spans, completed flows, and the sum of the
/// makespans. These do not jitter, so a change in simulated work shows
/// even where wall-clock time is noisy.
pub fn census(report: &mut Report, scenarios: &[&Scenario]) -> Result<(), String> {
    let (mut tasks, mut spans, mut flows, mut makespan) = (0u64, 0u64, 0u64, 0.0f64);
    for s in scenarios {
        let sum = wrm_sim::simulate_summary(s).map_err(|e| e.to_string())?;
        tasks += sum.n_tasks as u64;
        spans += sum.n_spans;
        flows += sum.channels.iter().map(|c| c.flows).sum::<u64>();
        makespan += sum.makespan;
    }
    report.metric("sim.tasks", tasks as f64);
    report.metric("sim.spans", spans as f64);
    report.metric("sim.flows", flows as f64);
    report.metric("sim.makespan_s", makespan);
    Ok(())
}

/// Peak resident memory of this process, as the end-to-end metric.
pub fn own_peak_rss(report: &mut Report) -> Result<(), String> {
    report.metric("peak_rss_mb", crate::host::peak_rss_mb(None)?);
    Ok(())
}

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
