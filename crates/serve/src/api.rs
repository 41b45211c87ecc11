//! Request dispatch: JSON bodies in, CLI-identical bytes out.
//!
//! Every analysis endpoint resolves its workflow through the LRU index
//! cache, runs simulation work on the shared worker pool, and renders
//! through [`crate::render`] — the same functions the CLI prints with,
//! so a 200 body is byte-identical to the corresponding `wrm`
//! invocation's stdout. Sweeps stream: `csv` and `jsonl` responses go
//! out as chunked transfer, each canonical-order row group flushed the
//! moment its column's results arrive from the pool.

use crate::cache::{cache_key, IndexCache, ServeEntry};
use crate::http::{write_response, ChunkedWriter, Request};
use crate::metrics::Metrics;
use crate::pool::WorkerPool;
use crate::render;
use crate::resolve::resolve_request;
use std::io::Write;
use std::sync::{mpsc, Arc};
use std::time::Instant;
use wrm_mc::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use wrm_sim::{SimOptions, SweepPoint, SweepStats};

const TEXT: &str = "text/plain; charset=utf-8";
const JSON: &str = "application/json";
const CSV: &str = "text/csv; charset=utf-8";
const JSONL: &str = "application/x-ndjson";

/// Everything the request handlers share.
pub struct AppState {
    /// Compiled-index LRU.
    pub cache: IndexCache,
    /// The fixed simulation worker pool.
    pub pool: WorkerPool,
    /// Request counters.
    pub metrics: Metrics,
    /// Graceful-shutdown flag (set by signal or `POST /admin/shutdown`).
    pub shutdown: Arc<AtomicBool>,
    /// Total requests served (for the drain report).
    pub served: AtomicU64,
}

/// Handles one parsed request, writing the response to `out`. Returns
/// whether the connection should stay open.
pub fn respond<W: Write>(state: &AppState, req: &Request, out: &mut W) -> std::io::Result<bool> {
    let keep = !req.wants_close() && !state.shutdown.load(Ordering::SeqCst);
    let start = Instant::now();
    // Ordering policy (docs/CONCURRENCY.md): `served` is a metrics
    // counter, so Relaxed on both ends; `shutdown` gates control flow,
    // so SeqCst everywhere.
    state.served.fetch_add(1, Ordering::Relaxed);

    // Transfer-encoded (e.g. chunked) request bodies are not parsed, so
    // their framing bytes would still be sitting in the connection's
    // buffer and desync the next pipelined request. Reject and close.
    if let Some(encoding) = req.header("transfer-encoding") {
        let body = format!("transfer-encoding `{encoding}` request bodies are not supported; send a Content-Length body\n");
        state.metrics.record("other", elapsed_us(start), false);
        write_response(out, 501, TEXT, body.as_bytes(), false)?;
        return Ok(false);
    }

    let (label, outcome) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("healthz", Reply::ok(TEXT, "ok\n".into())),
        ("GET", "/metrics") => (
            "metrics",
            Reply::ok(TEXT, state.metrics.prometheus(&state.cache)),
        ),
        ("GET", "/metrics/json") => {
            let mut body = state.metrics.snapshot(&state.cache).to_string_pretty();
            body.push('\n');
            ("metrics", Reply::ok(JSON, body))
        }
        ("POST", "/admin/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            ("shutdown", Reply::ok(TEXT, "shutting down\n".into()))
        }
        ("POST", "/v1/simulate") => ("simulate", simulate(state, req)),
        ("POST", "/v1/mc") => ("mc", mc(state, req)),
        ("POST", "/v1/certify") => ("certify", certify(state, req)),
        ("POST", "/v1/lint") => ("lint", lint(req)),
        ("POST", "/v1/sweep") => {
            // Streams its own response; handled outside Reply.
            let r = sweep(state, req, out, keep);
            let (ok, keep) = match r {
                Ok(k) => (true, k),
                Err(SweepAbort::Setup(status, msg)) => {
                    let body = format!("{msg}\n");
                    write_response(out, status, TEXT, body.as_bytes(), keep)?;
                    (false, keep)
                }
                Err(SweepAbort::Io(e)) => return Err(e),
            };
            state.metrics.record("sweep", elapsed_us(start), ok);
            return Ok(keep && !state.shutdown.load(Ordering::SeqCst));
        }
        ("GET", "/v1/simulate" | "/v1/mc" | "/v1/certify" | "/v1/lint" | "/v1/sweep")
        | ("POST", "/healthz" | "/metrics" | "/metrics/json") => (
            "other",
            Reply::status(405, format!("use {} for {}", flip(&req.method), req.path)),
        ),
        _ => (
            "other",
            Reply::status(404, format!("unknown endpoint {} {}", req.method, req.path)),
        ),
    };

    state
        .metrics
        .record(label, elapsed_us(start), outcome.status == 200);
    let keep = keep && !state.shutdown.load(Ordering::SeqCst);
    write_response(
        out,
        outcome.status,
        outcome.content_type,
        outcome.body.as_bytes(),
        keep,
    )?;
    Ok(keep)
}

fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn flip(method: &str) -> &'static str {
    if method == "GET" {
        "POST"
    } else {
        "GET"
    }
}

/// A buffered response.
struct Reply {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Reply {
    fn ok(content_type: &'static str, body: String) -> Self {
        Self {
            status: 200,
            content_type,
            body,
        }
    }

    fn status(status: u16, msg: String) -> Self {
        Self {
            status,
            content_type: TEXT,
            body: format!("{msg}\n"),
        }
    }

    fn bad_request(msg: String) -> Self {
        Self::status(400, msg)
    }
}

/// Parses the request body as a JSON object (empty body = `{}`).
fn parse_body(req: &Request) -> Result<serde_json::Value, String> {
    if req.body.is_empty() {
        return Ok(serde_json::json!({}));
    }
    let text = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_owned())?;
    serde_json::from_str::<serde_json::Value>(text).map_err(|e| format!("bad JSON body: {e}"))
}

fn str_field<'v>(body: &'v serde_json::Value, key: &str) -> Option<&'v str> {
    body.get(key).and_then(serde_json::Value::as_str)
}

/// Pulls the common fields and resolves the workflow through the cache.
/// Returns the entry, whether it was a cache hit, and the base options
/// with any request contention applied.
fn resolve_cached(
    state: &AppState,
    body: &serde_json::Value,
) -> Result<(Arc<ServeEntry>, bool, SimOptions), String> {
    let workflow = str_field(body, "workflow").ok_or("missing field `workflow`")?;
    let machine = str_field(body, "machine");
    let label = str_field(body, "path").unwrap_or("<request>");
    let key = cache_key(workflow, machine);
    let (entry, hit) = state.cache.get_or_build(key, || {
        ServeEntry::build(resolve_request(workflow, machine, label)?)
    })?;
    let mut options = entry.scenario.options.clone();
    if let Some(contention) = body.get("contention") {
        let pairs = contention
            .as_object()
            .ok_or("field `contention` must be an object of resource: factor")?;
        for (res, factor) in pairs {
            let factor = factor
                .as_f64()
                .ok_or_else(|| format!("bad contention factor for `{res}`"))?;
            options = options.with_contention(res.clone(), factor);
        }
    }
    Ok((entry, hit, options))
}

/// `POST /v1/simulate` — body equals `wrm simulate <file>` stdout
/// (`--summary` via `"summary": true`).
fn simulate(state: &AppState, req: &Request) -> Reply {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(e) => return Reply::bad_request(e),
    };
    let (entry, _hit, options) = match resolve_cached(state, &body) {
        Ok(r) => r,
        Err(e) => return Reply::bad_request(e),
    };
    let Some(structure) = entry.structure.clone() else {
        return Reply::bad_request(
            "simulate needs a .wrm source workflow (builtins are sweep-only)".into(),
        );
    };
    let summary = body
        .get("summary")
        .and_then(serde_json::Value::as_bool)
        .unwrap_or(false);

    let (tx, rx) = mpsc::channel::<Result<String, String>>();
    let job_entry = Arc::clone(&entry);
    state.pool.submit(Box::new(move |arena| {
        let scenario = job_entry.scenario.clone().with_options(options);
        let report = if summary {
            wrm_sim::simulate_summary_with_base(&scenario, &job_entry.base, arena)
                .map_err(|e| e.to_string())
                .map(|sum| {
                    render::summary_report(&scenario.workflow.name, &scenario.machine.name, &sum)
                })
        } else {
            wrm_sim::simulate_with_base(&scenario, &job_entry.base, arena)
                .map_err(|e| e.to_string())
                .and_then(|result| {
                    render::simulate_report(
                        &scenario.workflow.name,
                        &scenario.machine.name,
                        &result,
                        &structure,
                    )
                })
        };
        let _ = tx.send(report);
    }));
    match rx.recv() {
        Ok(Ok(report)) => Reply::ok(TEXT, report),
        Ok(Err(e)) => Reply::bad_request(e),
        Err(_) => Reply::status(503, "worker pool unavailable".into()),
    }
}

/// Replication-count ceiling for one `POST /v1/mc` request and one
/// `wrm simulate --reps` run; larger studies should shard across
/// requests (each is seeded, so shards compose deterministically).
pub const MC_MAX_REPS: usize = 100_000;

/// `POST /v1/mc` — body equals `wrm simulate <file> --reps N [--seed S]
/// [--percentiles] [--threads T]` stdout. The replication fan-out runs
/// inside one pool slot: `mc_run_with_base` spawns its own scoped
/// workers with per-worker arenas, so `"threads"` (default 1 here, to
/// not oversubscribe the request pool) only changes wall-clock, never
/// bytes.
fn mc(state: &AppState, req: &Request) -> Reply {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(e) => return Reply::bad_request(e),
    };
    let (entry, _hit, options) = match resolve_cached(state, &body) {
        Ok(r) => r,
        Err(e) => return Reply::bad_request(e),
    };
    let reps = match body.get("reps").map(|v| {
        v.as_u64()
            .ok_or_else(|| "field `reps` must be a positive integer".to_owned())
    }) {
        None => 100,
        Some(Ok(n)) if (1..=MC_MAX_REPS as u64).contains(&n) => n as usize,
        Some(Ok(n)) => {
            return Reply::bad_request(format!(
                "field `reps` must be in 1..={MC_MAX_REPS}, got {n}"
            ))
        }
        Some(Err(e)) => return Reply::bad_request(e),
    };
    let seed = match body.get("seed").map(|v| {
        v.as_u64()
            .ok_or_else(|| "field `seed` must be a non-negative integer".to_owned())
    }) {
        None => 0,
        Some(Ok(s)) => s,
        Some(Err(e)) => return Reply::bad_request(e),
    };
    let threads = match body.get("threads").map(|v| {
        v.as_u64()
            .ok_or_else(|| "field `threads` must be a non-negative integer".to_owned())
    }) {
        None => 1,
        Some(Ok(t)) => t as usize,
        Some(Err(e)) => return Reply::bad_request(e),
    };
    let percentiles = body
        .get("percentiles")
        .and_then(serde_json::Value::as_bool)
        .unwrap_or(true);

    let (tx, rx) = mpsc::channel::<Result<String, String>>();
    let job_entry = Arc::clone(&entry);
    state.pool.submit(Box::new(move |_arena| {
        let scenario = job_entry.scenario.clone().with_options(options);
        let opts = wrm_sim::McOptions {
            reps,
            seed,
            threads,
        };
        let report = wrm_sim::mc_run_with_base(&scenario, &job_entry.base, &opts)
            .map_err(|e| e.to_string())
            .map(|mc| {
                render::mc_report(
                    &scenario.workflow.name,
                    &scenario.machine.name,
                    &mc,
                    percentiles,
                )
            });
        let _ = tx.send(report);
    }));
    match rx.recv() {
        Ok(Ok(report)) => Reply::ok(TEXT, report),
        Ok(Err(e)) => Reply::bad_request(e),
        Err(_) => Reply::status(503, "worker pool unavailable".into()),
    }
}

/// `POST /v1/certify` — body equals `wrm certify <file>` stdout.
fn certify(state: &AppState, req: &Request) -> Reply {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(e) => return Reply::bad_request(e),
    };
    let (entry, _hit, options) = match resolve_cached(state, &body) {
        Ok(r) => r,
        Err(e) => return Reply::bad_request(e),
    };
    let (tx, rx) = mpsc::channel::<Result<String, String>>();
    let job_entry = Arc::clone(&entry);
    state.pool.submit(Box::new(move |_arena| {
        let report =
            wrm_sim::certify_with_base(&job_entry.scenario.workflow, &options, &job_entry.base)
                .map_err(|e| e.to_string())
                .and_then(|cert| render::certificate_json(&cert));
        let _ = tx.send(report);
    }));
    match rx.recv() {
        Ok(Ok(report)) => Reply::ok(JSON, report),
        Ok(Err(e)) => Reply::bad_request(e),
        Err(_) => Reply::status(503, "worker pool unavailable".into()),
    }
}

/// `POST /v1/lint` — body equals `wrm lint <file> --format F` stdout.
/// Pure front-half work: runs inline on the connection thread.
fn lint(req: &Request) -> Reply {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(e) => return Reply::bad_request(e),
    };
    let Some(source) = str_field(&body, "workflow") else {
        return Reply::bad_request("missing field `workflow`".into());
    };
    let path = str_field(&body, "path").unwrap_or("<request>").to_owned();
    let format = str_field(&body, "format").unwrap_or("text");
    let (diags, ctx) = wrm_lint::lint_source_with_context(source);
    let batch = vec![(path, source.to_owned(), diags)];
    let rendered = match format {
        "text" => Ok((TEXT, render::lint_text(&batch))),
        "json" => {
            let cert = ctx.and_then(|c| c.certificate);
            render::lint_json(&batch, &[cert]).map(|b| (JSON, b))
        }
        "sarif" => render::lint_sarif(&batch).map(|b| (JSON, b)),
        other => {
            return Reply::bad_request(format!(
                "unknown format `{other}` (expected text, json, or sarif)"
            ))
        }
    };
    match rendered {
        Ok((content_type, body)) => Reply::ok(content_type, body),
        Err(e) => Reply::status(500, e),
    }
}

/// Why a sweep request did not stream to completion.
enum SweepAbort {
    /// Rejected before the response started (safe to send a status).
    Setup(u16, String),
    /// The connection died mid-stream.
    Io(std::io::Error),
}

impl From<std::io::Error> for SweepAbort {
    fn from(e: std::io::Error) -> Self {
        SweepAbort::Io(e)
    }
}

/// `POST /v1/sweep` — body equals `wrm sweep …` stdout for the same
/// axes. `csv`/`jsonl` stream chunked in canonical row order as sweep
/// columns complete; `json` buffers (a pretty array has no row
/// boundaries to stream).
fn sweep<W: Write>(
    state: &AppState,
    req: &Request,
    out: &mut W,
    keep: bool,
) -> Result<bool, SweepAbort> {
    let body = parse_body(req).map_err(|e| SweepAbort::Setup(400, e))?;
    let (entry, _hit, _options) =
        resolve_cached(state, &body).map_err(|e| SweepAbort::Setup(400, e))?;

    let resource = str_field(&body, "resource").map(str::to_owned);
    let factors = f64_array(&body, "factors").map_err(|e| SweepAbort::Setup(400, e))?;
    let nodes = u64_array(&body, "nodes").map_err(|e| SweepAbort::Setup(400, e))?;
    let policies = body
        .get("policies")
        .and_then(serde_json::Value::as_array)
        .map(|items| {
            items
                .iter()
                .map(|v| {
                    v.as_str()
                        .ok_or_else(|| "policies must be strings".to_owned())
                        .and_then(render::parse_policy)
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .transpose()
        .map_err(|e| SweepAbort::Setup(400, e))?
        .unwrap_or_default();
    let format = str_field(&body, "format").unwrap_or("csv");
    if !matches!(format, "csv" | "json" | "jsonl") {
        return Err(SweepAbort::Setup(
            400,
            format!("unknown format `{format}` (expected json, csv, or jsonl)"),
        ));
    }

    let grid = render::build_grid(&entry.scenario, resource, &factors, &nodes, &policies)
        .map_err(|e| SweepAbort::Setup(400, e))?;
    let cells = render::grid_cells(&grid);
    let grid = Arc::new(grid);
    let columns: Vec<(usize, usize)> = (0..grid.node_limits.len())
        .flat_map(|ni| (0..grid.policies.len()).map(move |pi| (ni, pi)))
        .collect();

    let (tx, rx) = mpsc::channel::<(Vec<wrm_sim::IndexedResult<SweepPoint>>, SweepStats)>();
    for &(ni, pi) in &columns {
        let tx = tx.clone();
        let entry = Arc::clone(&entry);
        let grid = Arc::clone(&grid);
        state.pool.submit(Box::new(move |arena| {
            let (results, stats) =
                wrm_sim::sweep_column_points(&entry.scenario, &grid, &entry.base, ni, pi, arena);
            let _ = tx.send((results, stats));
        }));
    }
    drop(tx);

    let workflow = entry.scenario.workflow.name.as_str();
    let machine = entry.scenario.machine.name.as_str();
    let resource = grid.resource.clone().unwrap_or_default();
    let mut slots: Vec<Option<Result<SweepPoint, wrm_sim::SimError>>> =
        (0..grid.len()).map(|_| None).collect();
    let mut emitted = 0usize;

    if format == "json" {
        // Buffered: collect every column, then render the document.
        for (results, stats) in rx {
            state.metrics.absorb_sweep(&stats);
            for (ix, r) in results {
                slots[ix] = Some(r);
            }
        }
        let rows: Vec<serde_json::Value> = slots
            .iter()
            .zip(&cells)
            .filter_map(|(slot, cell)| {
                slot.as_ref().map(|result| {
                    render::sweep_row_value(workflow, machine, &resource, cell, result)
                })
            })
            .collect();
        if rows.len() != cells.len() {
            // A worker died or the pool shut down mid-sweep; nothing
            // has been written yet, so a plain 500 is still possible.
            return Err(SweepAbort::Setup(
                500,
                "sweep aborted before completion".into(),
            ));
        }
        let doc = render::sweep_json(rows).map_err(|e| SweepAbort::Setup(500, e))?;
        write_response(out, 200, JSON, doc.as_bytes(), keep)?;
        return Ok(keep);
    }

    // Streamed: rows go out in canonical order as soon as every row
    // before them is known; a completed column unlocks its rows the
    // moment it lands.
    let content_type = if format == "csv" { CSV } else { JSONL };
    let mut writer = ChunkedWriter::begin(out, content_type, keep)?;
    if format == "csv" {
        writer.chunk(render::SWEEP_CSV_HEADER.as_bytes())?;
    }
    for (results, stats) in rx {
        state.metrics.absorb_sweep(&stats);
        for (ix, r) in results {
            slots[ix] = Some(r);
        }
        let mut ready = String::new();
        while emitted < slots.len() {
            let Some(result) = &slots[emitted] else { break };
            if format == "csv" {
                ready.push_str(&render::sweep_row_csv(
                    workflow,
                    machine,
                    &resource,
                    &cells[emitted],
                    result,
                ));
            } else {
                let row =
                    render::sweep_row_value(workflow, machine, &resource, &cells[emitted], result);
                let line = render::sweep_row_jsonl(&row)
                    .unwrap_or_else(|e| format!("{{\"error\":\"render: {e}\"}}\n"));
                ready.push_str(&line);
            }
            emitted += 1;
        }
        writer.chunk(ready.as_bytes())?;
    }
    if emitted < slots.len() {
        // A worker died or the pool shut down: the stream is
        // incomplete; kill the connection so the client cannot mistake
        // a truncated body for a full one (chunked encoding makes the
        // truncation visible).
        return Err(SweepAbort::Io(std::io::Error::other(
            "sweep aborted before completion",
        )));
    }
    writer.finish()?;
    Ok(keep)
}

fn f64_array(body: &serde_json::Value, key: &str) -> Result<Vec<f64>, String> {
    match body.get(key) {
        None => Ok(Vec::new()),
        Some(v) => v
            .as_array()
            .ok_or_else(|| format!("field `{key}` must be an array of numbers"))?
            .iter()
            .map(|x| {
                x.as_f64()
                    .ok_or_else(|| format!("field `{key}` must be an array of numbers"))
            })
            .collect(),
    }
}

fn u64_array(body: &serde_json::Value, key: &str) -> Result<Vec<u64>, String> {
    match body.get(key) {
        None => Ok(Vec::new()),
        Some(v) => v
            .as_array()
            .ok_or_else(|| format!("field `{key}` must be an array of integers"))?
            .iter()
            .map(|x| {
                x.as_u64()
                    .ok_or_else(|| format!("field `{key}` must be an array of integers"))
            })
            .collect(),
    }
}
