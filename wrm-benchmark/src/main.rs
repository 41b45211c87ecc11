//! `wrm-benchmark`: the repository's end-to-end benchmark.
//!
//! ```text
//! wrm-benchmark [run] [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//! wrm-benchmark check
//! wrm-benchmark compare <parent results.json>... -- <change results.json>...
//!               [--claim METRIC@WORKLOAD] [--benchmark BENCHMARK.json]
//! wrm-benchmark baseline [--seeds N] [--seconds S]
//! ```
//!
//! `run` runs each workload in a child process of its own, prints every
//! metric as `workload metric value unit`, writes
//! `target/wrm-benchmark/results.json`, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. It exits non-zero if
//! any output was wrong. See README.md.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use wrm_benchmark::workloads::{self, Ctx, NAMES};
use wrm_benchmark::{compare, host, metrics, trace};

const DEFAULT_SEED: u64 = 42;
/// The `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;
/// Length of each timed phase in `check`.
const SMOKE_SECONDS: f64 = 1.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => check(),
        Some("compare") => compare_cmd(&args[1..]),
        Some("baseline") => baseline(&args[1..]),
        Some("__workload") => child(&args[1..]),
        Some("run") => run_cmd(&args[1..]),
        _ => run_cmd(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wrm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let w = value(i)?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}` (one of {NAMES:?})"));
                }
                r.workload = Some(w.clone());
                i += 1;
            }
            "--seed" => {
                r.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                r.seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(r.seconds.is_finite() && r.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    r.trace = true;
                    i += 1;
                }
                _ => r.trace = true,
            },
            other => return Err(format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    Ok(r)
}

/// Runs one workload in a child process and returns its report.
fn spawn_workload(name: &str, r: &RunArgs, smoke: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["__workload", name, "--seed", &r.seed.to_string()])
        .args(["--seconds", &r.seconds.to_string()])
        .args(["--trace", if r.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start workload {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let report: Value = serde_json::from_str(line)
        .map_err(|_| format!("workload {name} exited with {} and no report", out.status))?;
    if !out.status.success() {
        return Err(format!("workload {name} exited with {}", out.status));
    }
    Ok(report)
}

/// `run`: every selected workload, then the summary line.
fn run_cmd(args: &[String]) -> Result<bool, String> {
    let r = parse_run(args)?;
    host::wrm_binary()?;
    let names: Vec<&str> = match &r.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    };
    let mut reports = BTreeMap::new();
    for name in &names {
        reports.insert((*name).to_owned(), spawn_workload(name, &r, false)?);
    }
    summarize(&r, &reports)
}

/// Prints each metric line and the final JSON line, and writes
/// `results.json`. Returns whether every output was correct.
fn summarize(r: &RunArgs, reports: &BTreeMap<String, Value>) -> Result<bool, String> {
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut flat = Vec::new();
    let single = reports.len() == 1;
    for (name, rep) in reports {
        correct &= rep["correct"].as_bool() == Some(true);
        attempted += rep["attempted"].as_u64().unwrap_or(0);
        failed += rep["failed"].as_u64().unwrap_or(0);
        for e in rep["errors"].as_array().into_iter().flatten() {
            eprintln!("{name}: {}", e.as_str().unwrap_or(""));
        }
        let ms = rep["metrics"].as_object().ok_or("report without metrics")?;
        for (metric, value) in ms {
            let unit = metrics::find(metric).map_or("", |d| d.unit);
            let v = value.as_f64().unwrap_or(f64::NAN);
            println!("{name} {metric} {v} {unit}");
            let key = if single {
                metric.clone()
            } else {
                format!("{name}.{metric}")
            };
            flat.push((key, json!({ "value": v, "unit": unit })));
        }
    }
    let results = json!({
        "seed": r.seed,
        "seconds": r.seconds,
        "trace": r.trace,
        "host_cpus": host::cpus(),
        "workloads": reports,
    });
    let dir = host::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join("results.json");
    let text = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": Value::Object(flat),
        })
    );
    Ok(correct)
}

/// The hidden child entry point: runs one workload and prints its
/// report as one JSON line.
fn child(args: &[String]) -> Result<bool, String> {
    let name = args.first().ok_or("missing workload name")?;
    let smoke = args.iter().any(|a| a == "--smoke");
    let rest: Vec<String> = args[1..]
        .iter()
        .filter(|a| *a != "--smoke")
        .cloned()
        .collect();
    let r = parse_run(&rest)?;
    let ctx = Ctx {
        seed: r.seed,
        seconds: r.seconds,
        trace: r.trace,
        smoke,
        wrm: host::wrm_binary()?,
        out: host::out_dir(),
    };
    let report = workloads::run(name, &ctx)?;
    if ctx.trace {
        let dir = ctx.out.join("trace");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{name}.jsonl"));
        std::fs::write(&path, trace::to_jsonl(&report.spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!(
        "{}",
        json!({
            "correct": report.correct(),
            "attempted": report.attempted,
            "failed": report.failed,
            "errors": report.errors,
            "metrics": report.metrics,
            "info": report.info,
        })
    );
    Ok(report.correct())
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// `check`: a short smoke run of every workload, untraced and traced,
/// asserting correctness and that every `BENCHMARK.json` metric is
/// emitted with its unit.
fn check() -> Result<bool, String> {
    let bench_path = host::repo_root().join("BENCHMARK.json");
    let bench = read_json(&bench_path.to_string_lossy())?;
    let mut ok = true;
    let listed = |key: &str| -> Vec<(String, String, String)> {
        bench[key]
            .as_array()
            .into_iter()
            .flatten()
            .map(|m| {
                let s = |f: &str| m[f].as_str().unwrap_or("").to_owned();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    for (key, defs) in [
        ("end_to_end", metrics::END_TO_END),
        ("per_layer", metrics::PER_LAYER),
    ] {
        let want: Vec<(String, String, String)> = defs
            .iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.better.to_owned()))
            .collect();
        if listed(key) != want {
            eprintln!("check: BENCHMARK.json {key} does not match the metric registry");
            ok = false;
        }
    }
    let workloads: Vec<String> = bench["workloads"]
        .as_array()
        .into_iter()
        .flatten()
        .filter_map(|w| w["name"].as_str().map(str::to_owned))
        .collect();
    if workloads != NAMES {
        eprintln!("check: BENCHMARK.json workloads {workloads:?} != {NAMES:?}");
        ok = false;
    }
    host::wrm_binary()?;
    for trace in [false, true] {
        let r = RunArgs {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: SMOKE_SECONDS,
            trace,
        };
        let defs = if trace {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        };
        for name in NAMES {
            let report = spawn_workload(name, &r, true)?;
            let correct = report["correct"].as_bool() == Some(true);
            let missing: Vec<&str> = defs
                .iter()
                .filter(|d| {
                    !report["metrics"][d.name]
                        .as_f64()
                        .is_some_and(f64::is_finite)
                })
                .map(|d| d.name)
                .collect();
            let mode = if trace { "traced" } else { "untraced" };
            println!(
                "check {name} ({mode}): {} operation(s), {}{}",
                report["attempted"],
                if correct { "correct" } else { "WRONG OUTPUT" },
                if missing.is_empty() {
                    String::new()
                } else {
                    format!(", missing {missing:?}")
                }
            );
            for e in report["errors"].as_array().into_iter().flatten() {
                println!("  {}", e.as_str().unwrap_or(""));
            }
            ok &= correct && missing.is_empty();
        }
    }
    Ok(ok)
}

/// `compare <parent results>... -- <change results>...`.
fn compare_cmd(args: &[String]) -> Result<bool, String> {
    let mut claim = None;
    let mut bench_path = host::repo_root()
        .join("BENCHMARK.json")
        .to_string_lossy()
        .into_owned();
    let (mut parents, mut changes) = (Vec::new(), Vec::new());
    let mut after_sep = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--" => after_sep = true,
            "--claim" => {
                let c = args.get(i + 1).ok_or("--claim needs METRIC@WORKLOAD")?;
                let (m, w) = c.split_once('@').ok_or("--claim needs METRIC@WORKLOAD")?;
                claim = Some((m.to_owned(), w.to_owned()));
                i += 1;
            }
            "--benchmark" => {
                bench_path = args.get(i + 1).ok_or("--benchmark needs a path")?.clone();
                i += 1;
            }
            path if after_sep => changes.push(read_json(path)?),
            path => parents.push(read_json(path)?),
        }
        i += 1;
    }
    if parents.is_empty() || changes.is_empty() {
        return Err("usage: compare <parent results>... -- <change results>...".into());
    }
    let bench = read_json(&bench_path)?;
    let claim = claim.as_ref().map(|(m, w)| (m.as_str(), w.as_str()));
    let c = compare::compare(&parents, &changes, &bench, claim)?;
    for line in &c.lines {
        println!("{line}");
    }
    Ok(c.pass)
}

/// `baseline [--seeds N] [--seconds S]`: untraced runs of every workload
/// with seeds 1..=N (default 10), and per metric the median and the
/// quartile spread as a share of it — the contents of `baseline.json`,
/// printed to stdout.
fn baseline(args: &[String]) -> Result<bool, String> {
    let (mut seeds, mut seconds) = (10u64, DEFAULT_SECONDS);
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--seeds" => seeds = value.parse().map_err(|e| format!("--seeds: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            other => return Err(format!("unexpected argument `{other}`")),
        }
        i += 2;
    }
    host::wrm_binary()?;
    let mut ok = true;
    let mut workloads = Vec::new();
    for name in NAMES {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for seed in 1..=seeds {
            let r = RunArgs {
                workload: None,
                seed,
                seconds,
                trace: false,
            };
            let report = spawn_workload(name, &r, false)?;
            ok &= report["correct"].as_bool() == Some(true);
            for (metric, v) in report["metrics"].as_object().into_iter().flatten() {
                values
                    .entry(metric.clone())
                    .or_default()
                    .push(v.as_f64().unwrap_or(f64::NAN));
            }
            eprintln!("baseline: {name} seed {seed} done");
        }
        let metrics: BTreeMap<String, Value> = values
            .into_iter()
            .filter_map(|(metric, v)| {
                let (q1, mid, q3) = wrm_benchmark::stats::quartiles(&v)?;
                Some((metric, json!({ "median": mid, "spread": (q3 - q1) / mid })))
            })
            .collect();
        workloads.push((name.to_owned(), json!(metrics)));
    }
    let doc = json!({
        "host_cpus": host::cpus(),
        "seeds": seeds,
        "seconds": seconds,
        "workloads": Value::Object(workloads),
    });
    println!("{}", doc.to_string_pretty());
    Ok(ok)
}
