//! Request dispatch: JSON bodies in, CLI-identical bytes out.
//!
//! Every `/v1` endpoint is one [`Query`], answered by one handler: the
//! body becomes a query through [`Query::from_json`], the workflow
//! resolves through the LRU index cache, and [`execute`] runs on the
//! shared worker pool. `wrm` runs the same query layer, so a 200 body
//! is byte-identical to the matching `wrm` invocation's stdout. What is
//! left here is transport: routing, status codes, and the sweep's
//! stream — one pool job per distinct column, each canonical-order row
//! group going out chunked (`csv`, `jsonl`) the moment it is complete.

use crate::cache::{cache_key, IndexCache, ServeEntry};
use crate::http::{write_response, ChunkedWriter, Request};
use crate::metrics::Metrics;
use crate::pool::WorkerPool;
use crate::query::{execute, Input, Op, Query, JSON, TEXT};
use crate::resolve::resolve_request;
use serde_json::Value;
use std::borrow::Cow;
use std::io::Write;
use std::sync::{mpsc, Arc};
use std::time::Instant;
use wrm_mc::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

    let (label, status, content_type, body) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("healthz", 200, TEXT, "ok\n".to_owned()),
        ("GET", "/metrics") => {
            let body = state.metrics.prometheus(&state.cache);
            ("metrics", 200, TEXT, body)
        }
        ("GET", "/metrics/json") => {
            let body = state.metrics.snapshot(&state.cache).to_string_pretty();
            ("metrics", 200, JSON, body + "\n")
        }
        ("POST", "/admin/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            ("shutdown", 200, TEXT, "shutting down\n".to_owned())
        }
        ("POST", "/v1/simulate" | "/v1/mc" | "/v1/certify" | "/v1/lint" | "/v1/sweep") => {
            let endpoint = &req.path["/v1/".len()..];
            let (ok, keep) = match answer(state, req, endpoint, out, keep) {
                Ok(keep) => (true, keep),
                Err(Abort::Reply(status, msg)) => {
                    let body = format!("{msg}\n");
                    write_response(out, status, TEXT, body.as_bytes(), keep)?;
                    (false, keep)
                }
                Err(Abort::Io(e)) => return Err(e),
            };
            state.metrics.record(endpoint, elapsed_us(start), ok);
            return Ok(keep && !state.shutdown.load(Ordering::SeqCst));
        }
        ("GET", "/v1/simulate" | "/v1/mc" | "/v1/certify" | "/v1/lint" | "/v1/sweep")
        | ("POST", "/healthz" | "/metrics" | "/metrics/json") => {
            let flipped = if req.method == "GET" { "POST" } else { "GET" };
            (
                "other",
                405,
                TEXT,
                format!("use {flipped} for {}\n", req.path),
            )
        }
        _ => {
            let body = format!("unknown endpoint {} {}\n", req.method, req.path);
            ("other", 404, TEXT, body)
        }
    };

    state
        .metrics
        .record(label, elapsed_us(start), status == 200);
    let keep = keep && !state.shutdown.load(Ordering::SeqCst);
    write_response(out, status, content_type, body.as_bytes(), keep)?;
    Ok(keep)
}

fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Parses the request body as a JSON object (empty body = `{}`).
fn parse_body(req: &Request) -> Result<Value, String> {
    if req.body.is_empty() {
        return Ok(serde_json::json!({}));
    }
    let text = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_owned())?;
    serde_json::from_str::<Value>(text).map_err(|e| format!("bad JSON body: {e}"))
}

/// Why a query got no 200.
enum Abort {
    /// Rejected before the response started (safe to send a status).
    Reply(u16, String),
    /// The connection died, or a stream broke off mid-body.
    Io(std::io::Error),
}

impl From<std::io::Error> for Abort {
    fn from(e: std::io::Error) -> Self {
        Abort::Io(e)
    }
}

fn bad(msg: String) -> Abort {
    Abort::Reply(400, msg)
}

/// Answers `POST /v1/<endpoint>`: the body becomes a [`Query`], the
/// workflow resolves through the cache, and [`execute`] runs on the
/// pool. Lint runs inline (it needs no index); sweeps stream.
fn answer<W: Write>(
    state: &AppState,
    req: &Request,
    endpoint: &str,
    out: &mut W,
    keep: bool,
) -> Result<bool, Abort> {
    let body = parse_body(req).map_err(bad)?;
    let query = Query::from_json(endpoint, &body).map_err(bad)?;
    let field = |key: &str| body.get(key).and_then(Value::as_str);
    let workflow = field("workflow").ok_or_else(|| bad("missing field `workflow`".into()))?;
    let label = field("path").unwrap_or("<request>");
    let answer = if let Op::Lint { .. } = query.op {
        let (diags, ctx) = wrm_lint::lint_source_with_context(workflow);
        let batch = [(label, workflow, diags)];
        let certificates = [ctx.and_then(|c| c.certificate)];
        execute(&query, Input::Linted(&batch, &certificates))
            .map(|answer| (answer.content_type, answer.body))
    } else {
        let machine = field("machine");
        let (entry, _hit) = state
            .cache
            .get_or_build(cache_key(workflow, machine), || {
                ServeEntry::build(resolve_request(workflow, machine, label)?)
            })
            .map_err(bad)?;
        if let Op::Sweep { .. } = query.op {
            return sweep(state, &query, &entry, out, keep);
        }
        let (tx, rx) = mpsc::channel();
        state.pool.submit(Box::new(move |arena| {
            let answer = execute(&query, Input::<&str>::Indexed(&entry, arena));
            let _ = tx.send(answer.map(|answer| (answer.content_type, answer.body)));
        }));
        rx.recv()
            .map_err(|_| Abort::Reply(503, "worker pool unavailable".into()))?
    };
    let (content_type, body) = answer.map_err(bad)?;
    write_response(out, 200, content_type, body.as_bytes(), keep)?;
    Ok(keep)
}

/// `POST /v1/sweep`: one pool job per run of
/// [`plan_columns`](wrm_sim::plan_columns) (a (node limit, policy)
/// column and the columns that copy its cells), the body streamed
/// chunked as [`SweepRows`](crate::query::SweepRows) renders it. `csv`
/// and `jsonl` rows go out once every row before them is known; a
/// `json` document (a pretty array has no row boundaries) goes out
/// whole at the end.
fn sweep<W: Write>(
    state: &AppState,
    query: &Query,
    entry: &Arc<ServeEntry>,
    out: &mut W,
    keep: bool,
) -> Result<bool, Abort> {
    let scenario = query.scenario(&entry.scenario).map_err(bad)?;
    let (grid, mut rows) = query.sweep(&scenario).map_err(bad)?;
    // A contended base is built once and shared by the columns; without
    // contention they read the cached one.
    let contended = match scenario {
        Cow::Owned(scenario) => Some(Arc::new(scenario)),
        Cow::Borrowed(_) => None,
    };
    let plan = wrm_sim::plan_columns(&grid, &entry.base);
    let grid = Arc::new(grid);
    let (tx, rx) = mpsc::channel();
    for group in plan {
        let (tx, entry, grid) = (tx.clone(), Arc::clone(entry), Arc::clone(&grid));
        let contended = contended.clone();
        state.pool.submit(Box::new(move |arena| {
            let scenario = contended.as_deref().unwrap_or(&entry.scenario);
            let cells = wrm_sim::sweep_group_points(scenario, &grid, &entry.base, &group, arena);
            let _ = tx.send(cells);
        }));
    }
    drop(tx);
    let runs = rx.into_iter().map(|(results, stats)| {
        state.metrics.absorb_sweep(&stats);
        results
    });

    let mut writer = ChunkedWriter::begin(out, rows.content_type(), keep)?;
    for results in runs {
        let ready = rows.feed(results).map_err(std::io::Error::other)?;
        writer.chunk(ready.as_bytes())?;
    }
    // An incomplete stream (a worker died, the pool shut down) kills
    // the connection unterminated, so the client cannot mistake a
    // truncated body for a whole one.
    let tail = rows.finish().map_err(std::io::Error::other)?;
    writer.chunk(tail.as_bytes())?;
    writer.finish()?;
    Ok(keep)
}
