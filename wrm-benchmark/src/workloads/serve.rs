//! `serve-mixed`: independent users hitting a resident `wrm serve`
//! child (`--threads 2 --cache-capacity 16`) in an open loop from two
//! keep-alive connections, one thread each.
//!
//! Every block of 20 requests is, in seeded order, 6 sweeps (8 factors
//! x 2 policies, csv), 4 simulates, 2 certifies, 4 Monte-Carlo batches
//! (200 replications), 2 lints and 1 health probe on five hot 2k-task
//! pipeline specs (4 layers of 250, then 4 fork-join rounds; the last
//! spec distributional) warmed during set-up, followed by
//! one simulate of a never-seen spec (a cache miss). Cache hits amortise
//! the lang/lint/index work `cli-oneshot` pays in full; misses put those
//! layers on the request path. It is the only workload with HTTP,
//! concurrency and queueing.
//!
//! The timed phase is two thirds at the nominal rate, timed from each
//! request's due time, then one third of saturation: both connections
//! send back to back, and the completion rate is the highest rate the
//! server sustains with two clients, whose backlog cannot grow.

use super::{census, secs_since, span_median_ms, span_medians, timed_setups, Ctx, Report};
use crate::emit::to_wrm;
use crate::inputs;
use crate::loadgen::{self, check_body, Request, Sample};
use crate::probe::{HostSpeed, Timing};
use crate::stats::{median, percentile, sorted, sub_seed, SplitMix};
use crate::trace::Tracer;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wrm_serve::cache::{cache_key, ServeEntry};
use wrm_serve::client::{self, Client};
use wrm_serve::render;
use wrm_serve::resolve::resolve_request;
use wrm_sim::{McOptions, Scenario, SchedulerPolicy, SimArena, SimOptions};

/// Pipeline shape of every spec: layers, then fork-join rounds.
const LAYERS: usize = 4;
const ROUNDS: usize = 4;
const WIDTH: usize = 250;
const CHANNELS: usize = 32;
/// Hot specs; the last one carries distributions for the MC requests.
const HOT: usize = 5;
/// Offered load of the nominal phase: about 35% of what this request
/// mix saturates at on a 2-CPU host.
const NOMINAL_RPS: f64 = 16.0;
const CONNS: usize = 2;
const MC_REPS: u64 = 200;
const FACTORS: [f64; 8] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0];
/// The block's 19 hot requests before its miss. The counts put the
/// mix's median inside the sweeps and its p90 inside the MC batches,
/// the costliest kind: a percentile on the edge between two kinds jumps
/// between them from run to run. By cost, a block is 1 health probe,
/// 4 simulates, 2 certifies (ranks 1-7), 6 sweeps (8-13), 2 lints, the
/// miss (14-16) and 4 MC batches (17-20).
const BLOCK: [(Kind, usize); 6] = [
    (Kind::Sweep, 6),
    (Kind::Simulate, 4),
    (Kind::Certify, 2),
    (Kind::Mc, 4),
    (Kind::Lint, 2),
    (Kind::Healthz, 1),
];
const BLOCK_LEN: usize = 20;
/// Saturation cannot plausibly exceed this rate; it sizes the supply of
/// never-seen specs.
const MAX_SAT_RPS: f64 = 150.0;
/// No request of a block is sent this long after the block began.
const BLOCK_STOP: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sweep,
    Simulate,
    Certify,
    Mc,
    Lint,
    Healthz,
    Miss,
}

impl Kind {
    const MEASURED: [Kind; 6] = [
        Kind::Sweep,
        Kind::Simulate,
        Kind::Certify,
        Kind::Mc,
        Kind::Lint,
        Kind::Miss,
    ];

    fn label(self) -> &'static str {
        match self {
            Kind::Sweep => "sweep",
            Kind::Simulate => "simulate",
            Kind::Certify => "certify",
            Kind::Mc => "mc",
            Kind::Lint => "lint",
            Kind::Healthz => "healthz",
            Kind::Miss => "miss",
        }
    }

    /// The label the server files the request's latency under.
    fn endpoint(self) -> &'static str {
        match self {
            Kind::Miss => "simulate",
            other => other.label(),
        }
    }

    fn path(self) -> &'static str {
        match self {
            Kind::Sweep => "/v1/sweep",
            Kind::Simulate | Kind::Miss => "/v1/simulate",
            Kind::Certify => "/v1/certify",
            Kind::Mc => "/v1/mc",
            Kind::Lint => "/v1/lint",
            Kind::Healthz => "/healthz",
        }
    }

    fn replay_span(self) -> &'static str {
        match self {
            Kind::Sweep => "serve.replay.sweep",
            Kind::Simulate => "serve.replay.simulate",
            Kind::Certify => "serve.replay.certify",
            Kind::Mc => "serve.replay.mc",
            Kind::Lint => "serve.replay.lint",
            Kind::Healthz => "serve.replay.healthz",
            Kind::Miss => "serve.replay.miss",
        }
    }
}

/// One request template and what its 200 body must be.
struct Template {
    kind: Kind,
    request: Request,
    /// The in-process render; `None` for misses, which are rendered
    /// after the run from `source`.
    expected: Option<Vec<u8>>,
    source: Arc<str>,
    /// The hot spec it targets, if any.
    hot: Option<usize>,
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let prep = Instant::now();
    // Whole blocks, at least one, and enough requests for a p90.
    let nominal_blocks = ((NOMINAL_RPS * ctx.seconds * 2.0 / 3.0 / BLOCK_LEN as f64).round()
        as usize)
        .max(ctx.min_ops().div_ceil(BLOCK_LEN));
    let nominal_n = nominal_blocks * BLOCK_LEN;
    let sat_s = ctx.seconds / 3.0;
    let blocks = nominal_blocks + (MAX_SAT_RPS * sat_s) as usize / BLOCK_LEN + 1;
    let (hot, templates) = prepare(ctx, blocks)?;
    let mut rng = SplitMix(sub_seed(ctx.seed, 100));
    let slots = slot_templates(&mut rng, &templates, blocks);
    report.info("bench_prep_s", secs_since(prep));

    let mut speed = HostSpeed::new(!ctx.trace);
    let ((mut server, warm_ms), setup_s) = timed_setups(ctx, report, &mut speed, || {
        let server = Server::start(&ctx.wrm)?;
        let warm_ms = warm(&server.addr, &templates)?;
        Ok((server, warm_ms))
    })?;

    let requests: Vec<Request> = templates.iter().map(|t| t.request.clone()).collect();
    let mut phase = |slots: &[usize], rps: Option<f64>, budget: Duration| {
        run_blocks(&server.addr, slots, &requests, rps, budget, &mut speed)
    };
    // Nominal phase: open loop, one request every 1/rate seconds.
    let nominal = phase(&slots[..nominal_n], Some(NOMINAL_RPS), Duration::MAX)?;
    // The server's own view, over the warm-up and the nominal phase: the
    // requests the client-side latencies describe.
    let snapshot = client::request(&server.addr, "GET", "/metrics/json", None)
        .map_err(|e| format!("metrics: {e}"))?;
    let snapshot: serde_json::Value =
        serde_json::from_str(&snapshot.text()).map_err(|e| format!("metrics JSON: {e}"))?;
    // Peak memory over set-up and the nominal phase, by which the cache
    // has filled. Saturation adds transient peaks that depend on which
    // requests happen to overlap, so it is read before them.
    let peak_rss = crate::host::peak_rss_mb(Some(server.child.id()))?;
    // Saturation phase: the same sequence continues, each block all due
    // at once.
    let sat = phase(&slots[nominal_n..], None, Duration::from_secs_f64(sat_s))?;

    server.shutdown()?;

    // Correctness of every response, and the failure count.
    report.attempted = (nominal_n + sat.samples.len()) as u64;
    report.failed = (nominal_n - nominal.samples.len()) as u64;
    if nominal.samples.len() < nominal_n {
        report.error(format!(
            "{} nominal request(s) never sent: the generator fell {BLOCK_STOP:?} behind",
            nominal_n - nominal.samples.len()
        ));
    }
    for s in nominal.samples.iter().chain(&sat.samples) {
        if let Err(e) = verify(&templates[s.request], &s.response) {
            report.failed += 1;
            report.error(format!(
                "{} request: {e}",
                templates[s.request].kind.label()
            ));
        }
    }

    let nominal_ok: Vec<&Sample> = nominal.samples.iter().filter(|s| ok(s)).collect();
    let late = sorted(nominal.samples.iter().map(Sample::lateness_ms).collect());
    if let Ok(v) = percentile(&late, 0.9) {
        report.info("gen_late_p90_ms", v);
    }
    report.info("nominal_rps", NOMINAL_RPS);
    report.info("sat_requests", sat.samples.len() as f64);

    if ctx.trace {
        let mut tracer = Tracer::new(true);
        for s in nominal.samples.iter().chain(&sat.samples) {
            tracer.record("serve.request", s.sent, s.done);
        }
        replay(&mut tracer, &hot, &templates)?;
        report.spans = tracer.spans().to_vec();
        span_medians(report);
        layer_metrics(
            ctx,
            report,
            &templates,
            &warm_ms,
            &nominal_ok,
            &sat.samples,
            &snapshot,
        )?;
        let scenarios: Vec<&Scenario> = hot.iter().map(|e| &e.scenario).collect();
        census(report, &scenarios)?;
    } else {
        let (mut lat, mut ref_ms) = (Vec::new(), Vec::new());
        for (s, scale) in nominal.samples.iter().zip(&nominal.scales) {
            if ok(s) {
                lat.push(s.latency_ms());
                ref_ms.push(s.latency_ms() * scale);
            }
        }
        super::latency_metrics(ctx, report, &lat, &ref_ms)?;
        report.metric("setup_s", setup_s);
        // Answered requests over the blocks' time.
        let answered: usize = sat.blocks.iter().map(|(n, _)| n).sum();
        let secs = |of: fn(&Timing) -> f64| sat.blocks.iter().map(|(_, t)| of(t)).sum::<f64>();
        report.metric("ops_per_s", answered as f64 / secs(|t| t.ref_s));
        report.info(
            "measured_ops_per_s",
            answered as f64 / secs(|t| t.measured_s),
        );
        report.metric("peak_rss_mb", peak_rss);
        report.info("probe_ms", speed.median_ms()?);
    }
    Ok(())
}

/// What one phase's blocks produced.
struct Phase {
    /// Every request, in schedule order.
    samples: Vec<Sample>,
    /// Per request, the host-speed scale of its block.
    scales: Vec<f64>,
    /// Per block, its answered (200) requests and its duration.
    blocks: Vec<(usize, Timing)>,
}

/// Runs `slots` one block of [`BLOCK_LEN`] at a time, each block between
/// host-speed probes while the server is idle (a probe during a block
/// would take a CPU from the server), so each latency is scaled by the
/// host's speed over its own block. Within a block, slot `i` is due
/// `i / rps` seconds after the block starts, or at once without a rate.
/// No block starts once `budget` has passed.
fn run_blocks(
    addr: &str,
    slots: &[usize],
    requests: &[Request],
    rps: Option<f64>,
    budget: Duration,
    speed: &mut HostSpeed,
) -> Result<Phase, String> {
    let start = Instant::now();
    let mut out = Phase {
        samples: Vec::new(),
        scales: Vec::new(),
        blocks: Vec::new(),
    };
    for block in slots.chunks(BLOCK_LEN) {
        if start.elapsed() >= budget {
            break;
        }
        let schedule: Vec<(Duration, usize)> = block
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                (
                    Duration::from_secs_f64(rps.map_or(0.0, |r| i as f64 / r)),
                    t,
                )
            })
            .collect();
        let (samples, timing) = speed
            .time(|| loadgen::run(addr, Instant::now(), &schedule, requests, CONNS, BLOCK_STOP));
        let samples = samples?;
        out.blocks
            .push((samples.iter().filter(|s| ok(s)).count(), timing));
        out.scales
            .extend(std::iter::repeat_n(timing.scale(), samples.len()));
        out.samples.extend(samples);
    }
    Ok(out)
}

fn ok(s: &Sample) -> bool {
    matches!(&s.response, Ok(r) if r.status == 200)
}

/// Checks a 200 body against the in-process render; a miss is rendered
/// here, from its source, after the timed phases.
fn verify(t: &Template, response: &Result<client::Response, String>) -> Result<(), String> {
    match &t.expected {
        Some(expected) => check_body(response, expected),
        None => {
            let r = wrm_serve::resolve::from_source("<request>", &t.source, None)?;
            let structure = r.structure.ok_or("source specs carry a structure")?;
            let result = wrm_sim::simulate(&r.scenario).map_err(|e| e.to_string())?;
            let expected = render::simulate_report(
                &r.scenario.workflow.name,
                &r.scenario.machine.name,
                &result,
                &structure,
            )?;
            check_body(response, expected.as_bytes())
        }
    }
}

/// Emits the hot specs and `blocks` never-seen specs, and builds every
/// request template with its expected body, rendered in-process through
/// the same functions the server answers with.
fn prepare(ctx: &Ctx, blocks: usize) -> Result<(Vec<ServeEntry>, Vec<Template>), String> {
    let mut hot = Vec::new();
    let mut templates = vec![Template {
        kind: Kind::Healthz,
        request: Request {
            method: "GET",
            path: Kind::Healthz.path(),
            body: None,
        },
        expected: Some(b"ok\n".to_vec()),
        source: Arc::from(""),
        hot: None,
    }];
    for h in 0..HOT {
        let tasks = inputs::pipeline(sub_seed(ctx.seed, h as u64), LAYERS, ROUNDS, WIDTH);
        let name = format!("hot-{h}");
        let scenario = if h == HOT - 1 {
            inputs::mc_scenario(&name, &tasks)
        } else {
            inputs::scenario(&name, &tasks, CHANNELS)
        };
        let source: Arc<str> = Arc::from(to_wrm(&scenario)?);
        let entry = ServeEntry::build(resolve_request(&source, None, "<request>")?)?;
        let mut kinds = vec![Kind::Sweep, Kind::Simulate, Kind::Certify, Kind::Lint];
        if h == HOT - 1 {
            kinds.push(Kind::Mc);
        }
        for kind in kinds {
            let (body, expected) = render_request(kind, &source, &entry, ctx.seed)?;
            templates.push(Template {
                kind,
                request: Request {
                    method: "POST",
                    path: kind.path(),
                    body: Some(body),
                },
                expected: Some(expected.into_bytes()),
                source: Arc::clone(&source),
                hot: Some(h),
            });
        }
        hot.push(entry);
    }
    for b in 0..blocks {
        let tasks = inputs::pipeline(sub_seed(ctx.seed, 1_000 + b as u64), LAYERS, ROUNDS, WIDTH);
        let scenario = inputs::scenario(&format!("miss-{b}"), &tasks, CHANNELS);
        let source: Arc<str> = Arc::from(to_wrm(&scenario)?);
        templates.push(Template {
            kind: Kind::Miss,
            request: Request {
                method: "POST",
                path: Kind::Miss.path(),
                body: Some(serde_json::json!({ "workflow": &*source }).to_string()),
            },
            expected: None,
            source,
            hot: None,
        });
    }
    Ok((hot, templates))
}

/// A request body and the in-process render its response must equal.
fn render_request(
    kind: Kind,
    source: &str,
    entry: &ServeEntry,
    seed: u64,
) -> Result<(String, String), String> {
    let s = &entry.scenario;
    let (name, machine) = (&s.workflow.name, &s.machine.name);
    let body = match kind {
        Kind::Sweep => serde_json::json!({
            "workflow": source,
            "resource": "ch0",
            "factors": FACTORS,
            "policies": ["fifo", "backfill"],
            "format": "csv",
        }),
        Kind::Mc => serde_json::json!({ "workflow": source, "reps": MC_REPS, "seed": seed }),
        _ => serde_json::json!({ "workflow": source }),
    }
    .to_string();
    let expected = match kind {
        Kind::Sweep => {
            let grid = sweep_grid(s)?;
            let outcome = wrm_sim::sweep_grid_with_base(s, &grid, 1, &entry.base);
            let mut out = render::SWEEP_CSV_HEADER.to_owned();
            for (cell, r) in render::grid_cells(&grid).iter().zip(&outcome.results) {
                out.push_str(&render::sweep_row_csv(name, machine, "ch0", cell, r));
            }
            out
        }
        Kind::Simulate | Kind::Miss => {
            let r = wrm_sim::simulate_with_base(s, &entry.base, &mut SimArena::new())
                .map_err(|e| e.to_string())?;
            let structure = entry
                .structure
                .as_ref()
                .ok_or("source specs carry a structure")?;
            render::simulate_report(name, machine, &r, structure)?
        }
        Kind::Certify => {
            let cert = wrm_sim::certify_with_base(&s.workflow, &SimOptions::default(), &entry.base)
                .map_err(|e| e.to_string())?;
            render::certificate_json(&cert)?
        }
        Kind::Mc => {
            let mc = wrm_sim::mc_run_with_base(s, &entry.base, &mc_options(seed))
                .map_err(|e| e.to_string())?;
            render::mc_report(name, machine, &mc, true)
        }
        Kind::Lint => lint_report(source),
        Kind::Healthz => "ok\n".to_owned(),
    };
    Ok((body, expected))
}

fn sweep_grid(s: &Scenario) -> Result<wrm_sim::SweepGrid, String> {
    let policies = [SchedulerPolicy::Fifo, SchedulerPolicy::Backfill];
    render::build_grid(s, Some("ch0".into()), &FACTORS, &[], &policies)
}

fn mc_options(seed: u64) -> McOptions {
    McOptions {
        reps: MC_REPS as usize,
        seed,
        threads: 1,
    }
}

fn lint_report(source: &str) -> String {
    render::lint_text(&[(
        "<request>".to_owned(),
        source.to_owned(),
        wrm_lint::lint_source(source),
    )])
}

/// Template index of every slot: blocks of the 19 hot requests in
/// seeded order on seeded hot specs (MC always on the distributional
/// one), then the block's own miss.
fn slot_templates(rng: &mut SplitMix, templates: &[Template], blocks: usize) -> Vec<usize> {
    let misses: Vec<usize> = (0..templates.len())
        .filter(|&i| templates[i].kind == Kind::Miss)
        .collect();
    let mut out = Vec::with_capacity(blocks * BLOCK_LEN);
    for &miss in misses.iter().take(blocks) {
        let mut block: Vec<Kind> = BLOCK
            .iter()
            .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
            .collect();
        rng.shuffle(&mut block);
        for kind in block {
            let candidates: Vec<usize> = (0..templates.len())
                .filter(|&i| templates[i].kind == kind)
                .collect();
            out.push(candidates[(rng.next_u64() % candidates.len() as u64) as usize]);
        }
        out.push(miss);
    }
    out
}

/// Warms the cache: every hot template once, each response checked.
/// Returns each request's kind and latency in milliseconds.
fn warm(addr: &str, templates: &[Template]) -> Result<Vec<(Kind, f64)>, String> {
    let mut conn = Client::connect(addr)?;
    let mut out = Vec::new();
    for t in templates.iter().filter(|t| t.kind != Kind::Miss) {
        let r = &t.request;
        let start = Instant::now();
        let response = conn.request(r.method, r.path, r.body.as_deref());
        out.push((t.kind, start.elapsed().as_secs_f64() * 1e3));
        verify(t, &response).map_err(|e| format!("warm-up {}: {e}", t.kind.label()))?;
    }
    Ok(out)
}

/// Requests of each kind replayed in-process, one span per call the
/// server makes for them.
fn replay(tr: &mut Tracer, hot: &[ServeEntry], templates: &[Template]) -> Result<(), String> {
    const REPS: usize = 5;
    let mut arena = SimArena::new();
    for kind in Kind::MEASURED {
        let t = templates
            .iter()
            .find(|t| t.kind == kind)
            .ok_or("every request kind has a template")?;
        let body = t.request.body.as_deref().unwrap_or("");
        for _ in 0..REPS {
            let out = tr.op(kind.replay_span(), |tr| -> Result<String, String> {
                let v: serde_json::Value = tr
                    .span("serve.body_parse", |_| serde_json::from_str(body))
                    .map_err(|e| e.to_string())?;
                let workflow = v.get("workflow").and_then(|w| w.as_str()).unwrap_or("");
                std::hint::black_box(tr.span("serve.key", |_| cache_key(workflow, None)));
                let built;
                let entry = match t.hot {
                    Some(h) => &hot[h],
                    None => {
                        built = tr.span("serve.build", |_| {
                            ServeEntry::build(resolve_request(workflow, None, "<request>")?)
                        })?;
                        &built
                    }
                };
                serve_call(tr, kind, &v, entry, &mut arena)
            })?;
            if let Some(expected) = &t.expected {
                if out.as_bytes() != expected.as_slice() {
                    return Err(format!("in-process {} replay diverged", kind.label()));
                }
            }
        }
    }
    Ok(())
}

/// The simulation and render work the server does for one request.
fn serve_call(
    tr: &mut Tracer,
    kind: Kind,
    body: &serde_json::Value,
    entry: &ServeEntry,
    arena: &mut SimArena,
) -> Result<String, String> {
    let s = &entry.scenario;
    let (name, machine) = (&s.workflow.name, &s.machine.name);
    match kind {
        Kind::Sweep => {
            let grid = sweep_grid(s)?;
            let mut slots: Vec<Option<Result<wrm_sim::SimResult, wrm_sim::SimError>>> =
                (0..grid.len()).map(|_| None).collect();
            for pi in 0..grid.policies.len() {
                let (results, _) = tr.span("sim.sweep_column", |_| {
                    wrm_sim::sweep_column(s, &grid, &entry.base, 0, pi, arena)
                });
                for (ix, r) in results {
                    slots[ix] = Some(r);
                }
            }
            // Results are dropped inside the render span, as the server
            // drops them once their rows are written.
            tr.span("serve.render", |_| {
                let mut out = render::SWEEP_CSV_HEADER.to_owned();
                for (cell, r) in render::grid_cells(&grid).iter().zip(slots) {
                    let r = r.ok_or("sweep cell missing")?;
                    out.push_str(&render::sweep_row_csv(name, machine, "ch0", cell, &r));
                }
                Ok(out)
            })
        }
        Kind::Simulate | Kind::Miss => {
            let r = tr
                .span("sim.run_full", |_| {
                    wrm_sim::simulate_with_base(s, &entry.base, arena)
                })
                .map_err(|e| e.to_string())?;
            let structure = entry
                .structure
                .as_ref()
                .ok_or("source specs carry a structure")?;
            tr.span("serve.render", |_| {
                let out = render::simulate_report(name, machine, &r, structure);
                drop(r);
                out
            })
        }
        Kind::Certify => {
            let cert = tr
                .span("sim.certify", |_| {
                    wrm_sim::certify_with_base(&s.workflow, &s.options, &entry.base)
                })
                .map_err(|e| e.to_string())?;
            tr.span("serve.render", |_| {
                let out = render::certificate_json(&cert);
                drop(cert);
                out
            })
        }
        Kind::Mc => {
            let seed = body
                .get("seed")
                .and_then(serde_json::Value::as_u64)
                .unwrap_or(0);
            let mc = tr
                .span("sim.mc", |_| {
                    wrm_sim::mc_run_with_base(s, &entry.base, &mc_options(seed))
                })
                .map_err(|e| e.to_string())?;
            Ok(tr.span("serve.render", |_| {
                render::mc_report(name, machine, &mc, true)
            }))
        }
        Kind::Lint => {
            let source = body.get("workflow").and_then(|w| w.as_str()).unwrap_or("");
            let diags = tr.span("lint.source", |_| wrm_lint::lint_source(source));
            Ok(tr.span("serve.render", |_| {
                render::lint_text(&[("<request>".to_owned(), source.to_owned(), diags)])
            }))
        }
        Kind::Healthz => Ok("ok\n".to_owned()),
    }
}

/// Per-layer metrics of the traced run.
fn layer_metrics(
    ctx: &Ctx,
    report: &mut Report,
    templates: &[Template],
    warm_ms: &[(Kind, f64)],
    nominal_ok: &[&Sample],
    sat: &[Sample],
    snapshot: &serde_json::Value,
) -> Result<(), String> {
    let endpoint = |label: &str, field: &str| {
        snapshot
            .get("endpoints")
            .and_then(|e| e.get(label))
            .and_then(|e| e.get(field))
            .and_then(serde_json::Value::as_f64)
    };
    for kind in Kind::MEASURED {
        let label = kind.label();
        let of_kind: Vec<&&Sample> = nominal_ok
            .iter()
            .filter(|s| templates[s.request].kind == kind)
            .collect();
        let client_p50 = median(&sorted(of_kind.iter().map(|s| s.latency_ms()).collect()));
        report.metric(&format!("serve.{label}_p50_ms"), client_p50);
        let bytes: Vec<f64> = of_kind
            .iter()
            .filter_map(|s| s.response.as_ref().ok().map(|r| r.body.len() as f64))
            .collect();
        report.metric(
            &format!("serve.{label}_resp_bytes"),
            bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
        );
        if kind != Kind::Miss {
            // The server's p50 covers every request it filed under this
            // label so far (warm-up included, misses under `simulate`);
            // the wait compares it with the client's p50 of the same
            // requests.
            let server_p50 = endpoint(label, "p50_us").unwrap_or(0.0) / 1e3;
            let same: Vec<f64> = warm_ms
                .iter()
                .filter(|(k, _)| k.endpoint() == label)
                .map(|&(_, ms)| ms)
                .chain(
                    nominal_ok
                        .iter()
                        .filter(|s| templates[s.request].kind.endpoint() == label)
                        .map(|s| s.latency_ms()),
                )
                .collect();
            report.metric(&format!("serve.{label}_server_p50_ms"), server_p50);
            report.metric(
                &format!("serve.{label}_wait_ms"),
                median(&sorted(same)) - server_p50,
            );
        }
    }
    let cache = |field: &str| {
        snapshot
            .get("cache")
            .and_then(|c| c.get(field))
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(0.0)
    };
    report.metric("cache.hits", cache("hits"));
    report.metric("cache.misses", cache("misses"));
    report.metric("cache.evictions", cache("evictions"));
    report.metric("cache.hit_frac", cache("hit_rate"));
    let path = |field: &str| {
        snapshot
            .get("sweep_paths")
            .and_then(|c| c.get(field))
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(0.0)
    };
    let sweeps = endpoint("sweep", "count").unwrap_or(1.0).max(1.0);
    let cells = sweeps * (FACTORS.len() * 2) as f64;
    for field in ["fastpath", "replayed", "cold", "reused"] {
        report.metric(&format!("sweep.{field}"), path(field) / sweeps);
    }
    report.metric("sweep.fastpath_frac", path("fastpath") / cells);

    let late = sorted(nominal_ok.iter().map(|s| s.lateness_ms()).collect());
    report.metric(
        "gen.late_p90_ms",
        percentile(&late, 0.9).or_else(|e| {
            if ctx.smoke {
                Ok(late.last().copied().unwrap_or(0.0))
            } else {
                Err(e)
            }
        })?,
    );
    let service = sorted(
        sat.iter()
            .filter(|s| ok(s))
            .map(|s| s.done.saturating_duration_since(s.sent).as_secs_f64() * 1e3)
            .collect(),
    );
    report.metric(
        "serve.sat_p90_ms",
        percentile(&service, 0.9).or_else(|e| {
            if ctx.smoke {
                Ok(service.last().copied().unwrap_or(0.0))
            } else {
                Err(e)
            }
        })?,
    );
    let replay_sum = span_median_ms(&report.spans, "serve.replay.simulate");
    let client = report.metrics["serve.simulate_p50_ms"];
    report.metric("serve.http_ms", client - replay_sum);
    Ok(())
}

/// A `wrm serve` child process. Dropping it shuts the server down.
struct Server {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<String>>,
    stopped: bool,
}

impl Server {
    fn start(wrm: &std::path::Path) -> Result<Self, String> {
        let mut child = Command::new(wrm)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "2",
                "--cache-capacity",
                "16",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {} serve: {e}", wrm.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().ok_or("stderr is piped")?);
        let mut line = String::new();
        let addr = stderr
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.split("listening on ").nth(1))
            .and_then(|rest| rest.split(' ').next())
            .map(str::to_owned);
        // Drain the rest so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            rest
        });
        let mut server = Self {
            child,
            addr: addr.clone().unwrap_or_default(),
            stderr: Some(drain),
            stopped: false,
        };
        if addr.is_none() {
            server.shutdown()?;
            return Err(format!("unexpected `wrm serve` start-up line {line:?}"));
        }
        Ok(server)
    }

    /// Graceful shutdown (`POST /admin/shutdown`), killing the process
    /// if it has not exited within 20 s; waits for it either way.
    fn shutdown(&mut self) -> Result<(), String> {
        if self.stopped {
            return Ok(());
        }
        self.stopped = true;
        let _ = client::request(&self.addr, "POST", "/admin/shutdown", None);
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break None;
                }
            }
        };
        let log = self
            .stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        match status {
            Some(s) if s.success() => Ok(()),
            _ => Err(format!(
                "wrm serve did not shut down cleanly: {}",
                log.trim_end()
            )),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}
