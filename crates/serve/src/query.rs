//! One query pipeline behind `wrm` and `wrm serve`.
//!
//! A [`Query`] is what `wrm simulate | certify | sweep | lint` or a
//! `POST /v1/{simulate,mc,certify,sweep,lint}` body asks for.
//! [`Query::from_flags`] (the CLI) and [`Query::from_json`] (the
//! server) build it through one set of validators — the replication
//! bound, format names, policies, numeric lists and contention — and
//! each front end's defaults are written once, below. [`execute`]
//! answers a query; a sweep's rows come out of [`SweepRows`] in
//! canonical grid order as their results arrive. Both front ends run
//! this code, so a server body is byte-identical to the CLI's stdout
//! by construction.

use crate::cache::ServeEntry;
use crate::render::{self, LintBatch, SweepCell};
use serde_json::Value;
use std::borrow::Cow;
use std::str::FromStr;
use wrm_sim::{
    Certificate, IndexedResult, McOptions, Scenario, SchedulerPolicy, SimArena, SimError,
    SimResult, SweepGrid, SweepPoint,
};

pub(crate) const TEXT: &str = "text/plain; charset=utf-8";
pub(crate) const JSON: &str = "application/json";
const CSV: &str = "text/csv; charset=utf-8";
const JSONL: &str = "application/x-ndjson";

/// Replication-count ceiling of one Monte-Carlo query; larger studies
/// shard across requests (each is seeded, so shards compose
/// deterministically).
pub const MC_MAX_REPS: usize = 100_000;

// Where the front ends' defaults differ. The CLI runs Monte-Carlo only
// when `--reps` is given, over one worker per CPU, and prints the
// percentile table on request. The server runs 100 replications in one
// pool slot, so a request never oversubscribes the pool, and prints the
// table unless told not to. The thread count never changes the bytes.
const CLI_THREADS: usize = 0;
const CLI_PERCENTILES: bool = false;
const SERVER_MC_REPS: usize = 100;
const SERVER_MC_THREADS: u64 = 1;
const SERVER_PERCENTILES: bool = true;
// Shared: the seed, and the formats (the first of each list is the
// default).
const SEED: u64 = 0;
const SWEEP_FORMATS: [(&str, SweepFormat); 3] = [
    ("csv", SweepFormat::Csv),
    ("json", SweepFormat::Json),
    ("jsonl", SweepFormat::Jsonl),
];
const LINT_FORMATS: [(&str, LintFormat); 3] = [
    ("text", LintFormat::Text),
    ("json", LintFormat::Json),
    ("sarif", LintFormat::Sarif),
];

/// What one `wrm` command or one `/v1` request asks for.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The analysis.
    pub op: Op,
    /// `(resource, factor)` pairs applied, in order, over the
    /// workflow's own options.
    pub contention: Vec<(String, f64)>,
}

/// The analysis a [`Query`] runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// The simulate report, or with `summary` the streaming aggregates.
    Simulate { summary: bool },
    /// Seeded Monte-Carlo replication over the phase distributions;
    /// `percentiles` adds the percentile table.
    Mc {
        options: McOptions,
        percentiles: bool,
    },
    /// The two-sided makespan certificate.
    Certify,
    /// A parameter grid, one row per cell.
    Sweep { axes: Axes, format: SweepFormat },
    /// The lint report.
    Lint { format: LintFormat },
}

/// A sweep's axes as given: any order, repeats allowed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Axes {
    pub resource: Option<String>,
    pub factors: Vec<f64>,
    pub nodes: Vec<u64>,
    pub policies: Vec<SchedulerPolicy>,
}

/// Sweep output formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepFormat {
    Csv,
    Json,
    Jsonl,
}

/// Lint output formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintFormat {
    Text,
    Json,
    Sarif,
}

// The validators both front ends share. Where the two name a field
// differently, the caller passes its name.

/// The replication bound.
fn reps(n: u64, field: &str, note: &str) -> Result<usize, String> {
    let valid = usize::try_from(n)
        .ok()
        .filter(|n| (1..=MC_MAX_REPS).contains(n));
    valid.ok_or_else(|| format!("{field} must be in 1..={MC_MAX_REPS}{note}, got {n}"))
}

/// A format name out of `known`, the first by default.
fn format<T: Copy>(
    name: Option<&str>,
    known: &[(&str, T)],
    field: &str,
    expected: &str,
) -> Result<T, String> {
    let name = name.unwrap_or(known[0].0);
    let found = known.iter().find(|(n, _)| *n == name).map(|&(_, f)| f);
    found.ok_or_else(|| format!("unknown {field} `{name}` (expected {expected})"))
}

/// A comma-separated flag value.
fn flag_list<T: FromStr>(value: &str, what: &str) -> Result<Vec<T>, String> {
    value.split(',').map(|s| number(s, what)).collect()
}

/// A number in a flag value.
fn number<T: FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.trim().parse().map_err(|_| format!("bad {what} `{s}`"))
}

/// A JSON array field (absent = empty).
fn json_list<T>(
    body: &Value,
    key: &str,
    item: fn(&Value) -> Option<T>,
    what: &str,
) -> Result<Vec<T>, String> {
    let Some(v) = body.get(key) else {
        return Ok(Vec::new());
    };
    let bad = || format!("field `{key}` must be an array of {what}");
    let items = v.as_array().ok_or_else(bad)?;
    items.iter().map(|x| item(x).ok_or_else(bad)).collect()
}

/// A non-negative integer JSON field.
fn json_u64(body: &Value, key: &str, default: u64) -> Result<u64, String> {
    body.get(key).map_or(Ok(default), |v| {
        v.as_u64()
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
    })
}

/// A JSON flag; anything but a boolean reads as the default.
fn json_bool(body: &Value, key: &str, default: bool) -> bool {
    body.get(key).and_then(Value::as_bool).unwrap_or(default)
}

/// How a front end names the fields a cross-field check reports.
struct Fields {
    contention: &'static str,
    factors: &'static str,
    resource: &'static str,
}

/// The query flags of a `wrm` command line: [`Flags::parse`] checks
/// each value as it is read, [`Query::from_flags`] the rest.
#[derive(Debug, Clone)]
pub struct Flags {
    pub summary: bool,
    /// `--reps` (0 runs no Monte-Carlo), `--seed` and `--threads`, which
    /// is also the sweep's and the server's worker count (0 = one per
    /// CPU).
    pub mc: McOptions,
    pub percentiles: bool,
    pub contention: Vec<(String, f64)>,
    pub axes: Axes,
    pub format: Option<String>,
}

impl Default for Flags {
    fn default() -> Self {
        Self {
            summary: false,
            mc: McOptions {
                reps: 0,
                seed: SEED,
                threads: CLI_THREADS,
            },
            percentiles: CLI_PERCENTILES,
            contention: Vec::new(),
            axes: Axes::default(),
            format: None,
        }
    }
}

impl Flags {
    /// Reads `flag` if it is a query flag, taking its value from
    /// `value`; `Ok(false)` leaves any other flag to the caller.
    pub fn parse(
        &mut self,
        flag: &str,
        value: impl FnOnce() -> Result<String, String>,
    ) -> Result<bool, String> {
        match flag {
            "--summary" => self.summary = true,
            "--percentiles" => self.percentiles = true,
            "--reps" => {
                self.mc.reps = match number(&value()?, "replication count")? {
                    0 => 0,
                    n => reps(n, "--reps", " (0 for off)")?,
                }
            }
            "--seed" => self.mc.seed = number(&value()?, "seed")?,
            "--threads" => self.mc.threads = number(&value()?, "thread count")?,
            "--contention" => {
                let v = value()?;
                let (res, factor) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--contention expects res=factor, got `{v}`"))?;
                let factor = number(factor, "contention factor")?;
                self.contention.push((res.to_owned(), factor));
            }
            "--resource" => self.axes.resource = Some(value()?),
            "--factors" => self.axes.factors = flag_list(&value()?, "contention factor")?,
            "--nodes" => self.axes.nodes = flag_list(&value()?, "node count")?,
            "--policies" => {
                let v = value()?;
                self.axes.policies = v
                    .split(',')
                    .map(render::parse_policy)
                    .collect::<Result<_, _>>()?;
            }
            "--format" => self.format = Some(value()?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

impl Query {
    /// The query of `wrm <command>` (`simulate`, `certify`, `sweep` or
    /// `lint`); `--reps` turns `simulate` into Monte-Carlo.
    pub fn from_flags(command: &str, flags: &Flags) -> Result<Self, String> {
        let name = flags.format.as_deref();
        let op = match command {
            "simulate" if flags.mc.reps > 0 => Op::Mc {
                options: flags.mc.clone(),
                percentiles: flags.percentiles,
            },
            "simulate" => Op::Simulate {
                summary: flags.summary,
            },
            "certify" => Op::Certify,
            "sweep" => Op::Sweep {
                axes: flags.axes.clone(),
                format: format(name, &SWEEP_FORMATS, "--format", "json, jsonl, or csv")?,
            },
            "lint" => Op::Lint {
                format: format(name, &LINT_FORMATS, "--format", "text, json, or sarif")?,
            },
            other => return Err(format!("`wrm {other}` is not a query")),
        };
        let fields = Fields {
            contention: "--contention",
            factors: "--factors",
            resource: "--resource <shared resource id>",
        };
        Self::new(op, flags.contention.clone(), &fields)
    }

    /// The query of `POST /v1/<endpoint>` with body `body`.
    pub fn from_json(endpoint: &str, body: &Value) -> Result<Self, String> {
        let name = body.get("format").and_then(Value::as_str);
        let op = match endpoint {
            "simulate" => Op::Simulate {
                summary: json_bool(body, "summary", false),
            },
            "mc" => Op::Mc {
                options: McOptions {
                    reps: match body.get("reps") {
                        None => SERVER_MC_REPS,
                        Some(v) => {
                            let n = v
                                .as_u64()
                                .ok_or("field `reps` must be a positive integer")?;
                            reps(n, "field `reps`", "")?
                        }
                    },
                    seed: json_u64(body, "seed", SEED)?,
                    threads: json_u64(body, "threads", SERVER_MC_THREADS)? as usize,
                },
                percentiles: json_bool(body, "percentiles", SERVER_PERCENTILES),
            },
            "certify" => Op::Certify,
            "sweep" => Op::Sweep {
                axes: Axes {
                    resource: body
                        .get("resource")
                        .and_then(Value::as_str)
                        .map(str::to_owned),
                    factors: json_list(body, "factors", Value::as_f64, "numbers")?,
                    nodes: json_list(body, "nodes", Value::as_u64, "integers")?,
                    policies: match body.get("policies").and_then(Value::as_array) {
                        None => Vec::new(),
                        Some(items) => items
                            .iter()
                            .map(|v| v.as_str().ok_or("policies must be strings".to_owned()))
                            .map(|name| name.and_then(render::parse_policy))
                            .collect::<Result<_, _>>()?,
                    },
                },
                format: format(name, &SWEEP_FORMATS, "format", "json, csv, or jsonl")?,
            },
            "lint" => Op::Lint {
                format: format(name, &LINT_FORMATS, "format", "text, json, or sarif")?,
            },
            other => return Err(format!("`/v1/{other}` is not a query")),
        };
        let contention = match body.get("contention") {
            None => Vec::new(),
            Some(pairs) => pairs
                .as_object()
                .ok_or("field `contention` must be an object of resource: factor")?
                .iter()
                .map(|(res, factor)| match factor.as_f64() {
                    Some(factor) => Ok((res.clone(), factor)),
                    None => Err(format!("bad contention factor for `{res}`")),
                })
                .collect::<Result<_, _>>()?,
        };
        let fields = Fields {
            contention: "field `contention`",
            factors: "`factors`",
            resource: "`resource` (a shared resource id)",
        };
        Self::new(op, contention, &fields)
    }

    /// Checks what spans fields: a sweep's factors need its resource,
    /// and contention may not name the swept resource, whose factor the
    /// sweep's own axis sets. `fields` names the fields as the front
    /// end calls them.
    fn new(op: Op, contention: Vec<(String, f64)>, fields: &Fields) -> Result<Self, String> {
        if let Op::Sweep { axes, .. } = &op {
            let Fields {
                contention: contention_field,
                factors,
                resource,
            } = fields;
            match axes.resource.as_deref() {
                None if !axes.factors.is_empty() => {
                    return Err(format!("{factors} needs {resource}"));
                }
                Some(swept) if contention.iter().any(|(res, _)| res == swept) => {
                    return Err(format!(
                        "{contention_field} names the swept resource `{swept}`; \
                         its factors go in {factors}"
                    ));
                }
                _ => {}
            }
        }
        Ok(Self { op, contention })
    }

    /// `base` under the query's contention: borrowed when there is
    /// none, so a cache hit copies no workflow. A contention key that
    /// is not a shared resource of `base`'s machine is refused.
    pub fn scenario<'s>(&self, base: &'s Scenario) -> Result<Cow<'s, Scenario>, String> {
        if self.contention.is_empty() {
            return Ok(Cow::Borrowed(base));
        }
        for (res, _) in &self.contention {
            render::shared_resource(&base.machine, res)?;
        }
        let mut scenario = base.clone();
        scenario
            .options
            .contention
            .extend(self.contention.iter().cloned());
        Ok(Cow::Owned(scenario))
    }

    /// A sweep query's grid over `base` (checked against its machine,
    /// axes in canonical order) and the emitter for its rows.
    pub fn sweep(&self, base: &Scenario) -> Result<(SweepGrid, SweepRows), String> {
        let Op::Sweep { axes, format } = &self.op else {
            return Err(format!("{:?} is not a sweep", self.op));
        };
        let grid = render::build_grid(
            base,
            axes.resource.clone(),
            &axes.factors,
            &axes.nodes,
            &axes.policies,
        )?;
        let cells = render::grid_cells(&grid);
        let rows = SweepRows {
            format: *format,
            pending: match format {
                SweepFormat::Csv => render::SWEEP_CSV_HEADER.to_owned(),
                SweepFormat::Json | SweepFormat::Jsonl => String::new(),
            },
            workflow: base.workflow.name.clone(),
            machine: base.machine.name.clone(),
            resource: grid.resource.clone().unwrap_or_default(),
            slots: cells.iter().map(|_| None).collect(),
            cells,
            emitted: 0,
            json: Vec::new(),
        };
        Ok((grid, rows))
    }
}

/// What [`execute`] answers a query on. `S` is the linted files'
/// string type: `String` for `wrm lint`'s files, `&str` for a request
/// body's workflow, which a lint answer borrows.
pub enum Input<'a, S = String> {
    /// A resolved workflow with its index, and the arena to run in.
    Indexed(&'a ServeEntry, &'a mut SimArena),
    /// Linted files and their certificates, `certificates[i]` for
    /// `batch[i]`.
    Linted(&'a LintBatch<S>, &'a [Option<Certificate>]),
}

/// A query's answer.
pub struct Answer {
    pub content_type: &'static str,
    /// The CLI's stdout, the server's response body.
    pub body: String,
    /// The full run behind a simulate report (`--gantt`, `--jsonl`).
    pub run: Option<SimResult>,
}

fn answer(content_type: &'static str, body: String) -> Answer {
    Answer {
        content_type,
        body,
        run: None,
    }
}

/// Answers a simulate, Monte-Carlo or certify query on an indexed
/// workflow, or a lint query on linted files. Sweeps stream their rows
/// through [`SweepRows`] instead.
pub fn execute<S: AsRef<str>>(query: &Query, input: Input<'_, S>) -> Result<Answer, String> {
    let mismatch = || format!("{:?} does not run on this input", query.op);
    let (entry, arena) = match input {
        Input::Indexed(entry, arena) => (entry, arena),
        Input::Linted(batch, certificates) => {
            let Op::Lint { format } = query.op else {
                return Err(mismatch());
            };
            return Ok(match format {
                LintFormat::Text => answer(TEXT, render::lint_text(batch)),
                LintFormat::Json => answer(JSON, render::lint_json(batch, certificates)?),
                LintFormat::Sarif => answer(JSON, render::lint_sarif(batch)?),
            });
        }
    };
    let scenario = query.scenario(&entry.scenario)?;
    let (name, machine) = (&scenario.workflow.name, &scenario.machine.name);
    let err = |e: SimError| e.to_string();
    match &query.op {
        Op::Simulate { summary } => {
            let structure = entry
                .structure
                .as_ref()
                .ok_or("simulate needs a .wrm source workflow (builtins are sweep-only)")?;
            if *summary {
                let sum = wrm_sim::simulate_summary_with_base(&scenario, &entry.base, arena)
                    .map_err(err)?;
                return Ok(answer(TEXT, render::summary_report(name, machine, &sum)));
            }
            let run = wrm_sim::simulate_with_base(&scenario, &entry.base, arena).map_err(err)?;
            let body = render::simulate_report(name, machine, &run, structure)?;
            Ok(Answer {
                run: Some(run),
                ..answer(TEXT, body)
            })
        }
        Op::Mc {
            options,
            percentiles,
        } => {
            let mc = wrm_sim::mc_run_with_base(&scenario, &entry.base, options).map_err(err)?;
            let report = render::mc_report(name, machine, &mc, *percentiles);
            Ok(answer(TEXT, report))
        }
        Op::Certify => {
            let (workflow, options) = (&scenario.workflow, &scenario.options);
            let cert = wrm_sim::certify_with_base(workflow, options, &entry.base).map_err(err)?;
            Ok(answer(JSON, render::certificate_json(&cert)?))
        }
        Op::Sweep { .. } | Op::Lint { .. } => Err(mismatch()),
    }
}

/// The sweep half of the pipeline: renders rows in canonical grid
/// order as their results arrive — all at once from `wrm sweep`, one
/// pool column at a time from `POST /v1/sweep` — so both bodies are
/// the same bytes.
pub struct SweepRows {
    format: SweepFormat,
    /// Output not yet handed out: the CSV header, until the first feed.
    pending: String,
    workflow: String,
    machine: String,
    resource: String,
    cells: Vec<SweepCell>,
    slots: Vec<Option<Result<SweepPoint, SimError>>>,
    /// Rows rendered so far: every slot before this one.
    emitted: usize,
    /// `json` rows, held for the one document.
    json: Vec<Value>,
}

impl SweepRows {
    #[must_use]
    pub fn content_type(&self) -> &'static str {
        match self.format {
            SweepFormat::Csv => CSV,
            SweepFormat::Json => JSON,
            SweepFormat::Jsonl => JSONL,
        }
    }

    /// Takes results by grid index and renders every row now due, in
    /// order, after the CSV header on the first call; `json` rows are
    /// held for [`SweepRows::finish`].
    pub fn feed(
        &mut self,
        results: impl IntoIterator<Item = IndexedResult<SweepPoint>>,
    ) -> Result<String, String> {
        for (ix, result) in results {
            self.slots[ix] = Some(result);
        }
        let mut out = std::mem::take(&mut self.pending);
        while let Some(Some(result)) = self.slots.get(self.emitted) {
            let cell = &self.cells[self.emitted];
            let (workflow, machine, resource) = (&*self.workflow, &*self.machine, &*self.resource);
            let row = || render::sweep_row_value(workflow, machine, resource, cell, result);
            match self.format {
                SweepFormat::Csv => out.push_str(&render::sweep_row_csv(
                    workflow, machine, resource, cell, result,
                )),
                SweepFormat::Jsonl => {
                    out.push_str(&serde_json::to_string(&row()).map_err(|e| e.to_string())?);
                    out.push('\n');
                }
                SweepFormat::Json => self.json.push(row()),
            }
            self.emitted += 1;
        }
        Ok(out)
    }

    /// The rest of the body — the `json` document, else nothing — or an
    /// error if a row never arrived.
    pub fn finish(self) -> Result<String, String> {
        if self.emitted < self.cells.len() {
            return Err("sweep aborted before completion".to_owned());
        }
        match self.format {
            SweepFormat::Json => render::sweep_json(self.json),
            SweepFormat::Csv | SweepFormat::Jsonl => Ok(String::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrm_sim::SchedulerPolicy::{Backfill, Fifo};

    /// `wrm <command> <args>` as the CLI reads it: every flag through
    /// [`Flags::parse`], then [`Query::from_flags`].
    fn cli(command: &str, args: &[&str]) -> Result<Query, String> {
        let mut flags = Flags::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let value = || {
                args.next()
                    .map(|v| (*v).to_owned())
                    .ok_or("no value".to_owned())
            };
            assert!(flags.parse(flag, value)?, "{flag} is not a query flag");
        }
        Query::from_flags(command, &flags)
    }

    fn server(endpoint: &str, body: &str) -> Result<Query, String> {
        Query::from_json(endpoint, &serde_json::from_str(body).expect("JSON"))
    }

    fn query(op: Op) -> Query {
        Query {
            op,
            contention: Vec::new(),
        }
    }

    fn mc(reps: usize, seed: u64, threads: usize, percentiles: bool) -> Query {
        let options = McOptions {
            reps,
            seed,
            threads,
        };
        query(Op::Mc {
            options,
            percentiles,
        })
    }

    fn sweep(axes: Axes, format: SweepFormat) -> Query {
        query(Op::Sweep { axes, format })
    }

    /// Each variant's flag form and JSON form: every default of both
    /// front ends, and every rejection message verbatim.
    #[test]
    fn flags_and_json_build_the_same_queries_through_one_validation() {
        let simulate = |summary| query(Op::Simulate { summary });
        let lint = |format| query(Op::Lint { format });
        let contended = |op, contention: &[(&str, f64)]| Query {
            op,
            contention: contention.iter().map(|&(r, f)| (r.to_owned(), f)).collect(),
        };
        let axes = Axes {
            resource: Some("ext".to_owned()),
            factors: vec![1.0, 0.5],
            nodes: vec![161, 64],
            policies: vec![Backfill, Fifo],
        };
        let cases = vec![
            // simulate
            ("simulate", cli("simulate", &[]), Ok(simulate(false))),
            ("simulate", server("simulate", r#"{}"#), Ok(simulate(false))),
            ("summary", cli("simulate", &["--summary"]), Ok(simulate(true))),
            ("summary", server("simulate", r#"{"summary": true}"#), Ok(simulate(true))),
            ("non-bool", server("simulate", r#"{"summary": 1}"#), Ok(simulate(false))),
            // Monte-Carlo: the defaults differ by front end
            ("reps 0 is off", cli("simulate", &["--reps", "0"]), Ok(simulate(false))),
            ("cli mc", cli("simulate", &["--reps", "64"]), Ok(mc(64, 0, 0, false))),
            ("server mc", server("mc", r#"{}"#), Ok(mc(100, 0, 1, true))),
            (
                "cli mc",
                cli(
                    "simulate",
                    &["--reps", "9", "--seed", "7", "--threads", "4", "--percentiles"],
                ),
                Ok(mc(9, 7, 4, true)),
            ),
            (
                "server mc",
                server(
                    "mc",
                    r#"{"reps": 9, "seed": 7, "threads": 4, "percentiles": false}"#,
                ),
                Ok(mc(9, 7, 4, false)),
            ),
            (
                "bound",
                cli("simulate", &["--reps", "100001"]),
                Err("--reps must be in 1..=100000 (0 for off), got 100001"),
            ),
            (
                "bound",
                server("mc", r#"{"reps": 0}"#),
                Err("field `reps` must be in 1..=100000, got 0"),
            ),
            (
                "bound",
                server("mc", r#"{"reps": 100001}"#),
                Err("field `reps` must be in 1..=100000, got 100001"),
            ),
            (
                "reps",
                cli("simulate", &["--reps", "-1"]),
                Err("bad replication count `-1`"),
            ),
            (
                "reps",
                server("mc", r#"{"reps": -1}"#),
                Err("field `reps` must be a positive integer"),
            ),
            ("seed", cli("simulate", &["--seed", "x"]), Err("bad seed `x`")),
            (
                "seed",
                server("mc", r#"{"seed": 1.5}"#),
                Err("field `seed` must be a non-negative integer"),
            ),
            ("threads", cli("simulate", &["--threads", "x"]), Err("bad thread count `x`")),
            (
                "threads",
                server("mc", r#"{"threads": "x"}"#),
                Err("field `threads` must be a non-negative integer"),
            ),
            // certify, and the contention every query carries
            ("certify", cli("certify", &[]), Ok(query(Op::Certify))),
            ("certify", server("certify", r#"{}"#), Ok(query(Op::Certify))),
            (
                "contention",
                cli("certify", &["--contention", "ext=0.5", "--contention", "bb=2"]),
                Ok(contended(Op::Certify, &[("ext", 0.5), ("bb", 2.0)])),
            ),
            (
                "contention",
                server("certify", r#"{"contention": {"ext": 0.5, "bb": 2}}"#),
                Ok(contended(Op::Certify, &[("ext", 0.5), ("bb", 2.0)])),
            ),
            (
                "contention",
                cli("certify", &["--contention", "ext"]),
                Err("--contention expects res=factor, got `ext`"),
            ),
            (
                "contention",
                cli("certify", &["--contention", "ext=x"]),
                Err("bad contention factor `x`"),
            ),
            (
                "contention",
                server("certify", r#"{"contention": [0.5]}"#),
                Err("field `contention` must be an object of resource: factor"),
            ),
            (
                "contention",
                server("certify", r#"{"contention": {"ext": "x"}}"#),
                Err("bad contention factor for `ext`"),
            ),
            // sweep: axes stay as given; the grid puts them in order
            ("sweep", cli("sweep", &[]), Ok(sweep(Axes::default(), SweepFormat::Csv))),
            (
                "sweep",
                server("sweep", r#"{}"#),
                Ok(sweep(Axes::default(), SweepFormat::Csv)),
            ),
            (
                "axes",
                cli(
                    "sweep",
                    &[
                        "--resource",
                        "ext",
                        "--factors",
                        "1.0, 0.5",
                        "--nodes",
                        "161,64",
                        "--policies",
                        "backfill,fifo",
                        "--format",
                        "jsonl",
                    ],
                ),
                Ok(sweep(axes.clone(), SweepFormat::Jsonl)),
            ),
            (
                "axes",
                server(
                    "sweep",
                    r#"{"resource": "ext", "factors": [1.0, 0.5], "nodes": [161, 64],
                        "policies": ["backfill", "fifo"], "format": "jsonl"}"#,
                ),
                Ok(sweep(axes, SweepFormat::Jsonl)),
            ),
            (
                "format",
                cli("sweep", &["--format", "text"]),
                Err("unknown --format `text` (expected json, jsonl, or csv)"),
            ),
            (
                "format",
                server("sweep", r#"{"format": "text"}"#),
                Err("unknown format `text` (expected json, csv, or jsonl)"),
            ),
            (
                "factors",
                cli("sweep", &["--factors", "1,x"]),
                Err("bad contention factor `x`"),
            ),
            (
                "factors",
                server("sweep", r#"{"factors": [1, "x"]}"#),
                Err("field `factors` must be an array of numbers"),
            ),
            (
                "factors",
                server("sweep", r#"{"factors": 1}"#),
                Err("field `factors` must be an array of numbers"),
            ),
            ("nodes", cli("sweep", &["--nodes", "64,-1"]), Err("bad node count `-1`")),
            (
                "nodes",
                server("sweep", r#"{"nodes": [1.5]}"#),
                Err("field `nodes` must be an array of integers"),
            ),
            (
                "policies",
                cli("sweep", &["--policies", "fifo,lifo"]),
                Err("unknown policy `lifo` (expected fifo or backfill)"),
            ),
            (
                "policies",
                server("sweep", r#"{"policies": ["lifo"]}"#),
                Err("unknown policy `lifo` (expected fifo or backfill)"),
            ),
            (
                "policies",
                server("sweep", r#"{"policies": [1]}"#),
                Err("policies must be strings"),
            ),
            (
                "contention on the swept resource",
                cli("sweep", &["--resource", "ext", "--contention", "ext=0.2"]),
                Err("--contention names the swept resource `ext`; its factors go in --factors"),
            ),
            (
                "contention on the swept resource",
                server("sweep", r#"{"resource": "ext", "contention": {"ext": 0.2}}"#),
                Err("field `contention` names the swept resource `ext`; its factors go in `factors`"),
            ),
            (
                "factors without a resource",
                cli("sweep", &["--factors", "0.5"]),
                Err("--factors needs --resource <shared resource id>"),
            ),
            (
                "factors without a resource",
                server("sweep", r#"{"factors": [0.5]}"#),
                Err("`factors` needs `resource` (a shared resource id)"),
            ),
            (
                "contention elsewhere",
                cli("sweep", &["--resource", "ext", "--contention", "bb=0.2"]),
                Ok(Query {
                    op: Op::Sweep {
                        axes: Axes {
                            resource: Some("ext".to_owned()),
                            ..Axes::default()
                        },
                        format: SweepFormat::Csv,
                    },
                    contention: vec![("bb".to_owned(), 0.2)],
                }),
            ),
            // lint
            ("lint", cli("lint", &[]), Ok(lint(LintFormat::Text))),
            ("lint", server("lint", r#"{}"#), Ok(lint(LintFormat::Text))),
            ("lint", cli("lint", &["--format", "sarif"]), Ok(lint(LintFormat::Sarif))),
            ("lint", server("lint", r#"{"format": "json"}"#), Ok(lint(LintFormat::Json))),
            (
                "format",
                cli("lint", &["--format", "csv"]),
                Err("unknown --format `csv` (expected text, json, or sarif)"),
            ),
            (
                "format",
                server("lint", r#"{"format": "csv"}"#),
                Err("unknown format `csv` (expected text, json, or sarif)"),
            ),
        ];
        for (what, got, want) in cases {
            assert_eq!(got, want.map_err(str::to_owned), "{what}");
        }
    }

    /// Contention applies over the workflow's own options, and a query
    /// without it borrows the base instead of copying the workflow.
    #[test]
    fn contention_is_applied_over_the_base_options() {
        let base = crate::resolve::builtin_scenario("lcls").expect("builtin");
        assert!(matches!(
            query(Op::Certify).scenario(&base),
            Ok(Cow::Borrowed(_))
        ));
        let q = cli(
            "certify",
            &["--contention", "ext=0.5", "--contention", "ext=0.2"],
        )
        .unwrap();
        let scenario = q.scenario(&base).unwrap();
        assert_eq!(scenario.options.contention.get("ext"), Some(&0.2));
        assert_eq!(scenario.options.node_limit, base.options.node_limit);
    }

    /// Contention must name a shared resource of the machine, in the
    /// sweep's words: a mistyped id, another case or a node resource
    /// is refused rather than ignored.
    #[test]
    fn contention_on_an_unknown_resource_is_refused() {
        let base = crate::resolve::builtin_scenario("lcls").expect("builtin");
        let machine = &base.machine.name;
        for res in ["nope", "EXT", "compute"] {
            let flag = format!("{res}=0.5");
            let q = cli(
                "simulate",
                &["--contention", "ext=0.2", "--contention", &flag],
            )
            .unwrap();
            assert_eq!(
                q.scenario(&base).map(|_| ()),
                Err(format!(
                    "machine `{machine}` has no shared resource `{res}`"
                ))
            );
        }
    }
}
