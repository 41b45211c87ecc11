//! `wrm` — the Workflow Roofline Model command line.
//!
//! `wrm --help` prints every command and flag (`usage()` below), and
//! docs/CLI.md documents each. `simulate`, `certify`, `sweep` and
//! `lint` are queries of `wrm_serve::query`, the layer `wrm serve`
//! answers with too, so both front ends print the same bytes.
//!
//! `lint` exits 0 when clean, 2 when any error-severity diagnostic
//! fired, and 1 when only warnings fired under `--deny-warnings`; with
//! several files the exit code is the worst across all of them.
//! `analyze`/`simulate` run the error-severity lint subset before
//! compiling, so a broken spec fails with spanned diagnostics instead
//! of a mid-compile error.

mod figures;
mod report;
mod sweep;

use std::io::Write as _;
use std::process::ExitCode;
use wrm_core::{machines, RooflineModel, Seconds};
use wrm_dag::{Dag, GanttChart, ParallelismProfile};
use wrm_serve::cache::ServeEntry;
use wrm_serve::query::{self, execute, Input, Op, Query};
use wrm_sim::{simulate, Scenario, SimArena};
use wrm_trace::{characterize, Structure};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("wrm: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let ok = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return Ok(ExitCode::SUCCESS);
    }
    match args.first().map(String::as_str) {
        Some("machines") => ok(cmd_machines()),
        Some("lint") => cmd_lint(&args[1..]).map(ExitCode::from),
        Some("analyze") => ok(cmd_analyze(&args[1..])),
        Some(command @ ("simulate" | "certify")) => ok(cmd_query(command, &args[1..])),
        Some("sweep") => ok(sweep::cmd_sweep(&args[1..])),
        Some("serve") => ok(cmd_serve(&args[1..])),
        Some("figures") => ok(cmd_figures(&args[1..])),
        Some("compare") => ok(cmd_compare(&args[1..])),
        Some("profile") => ok(cmd_profile(&args[1..])),
        Some("import") => ok(cmd_import(&args[1..])),
        Some("help") | None => {
            print!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> &'static str {
    "usage: wrm <command>\n\
     \n\
     commands:\n\
     \x20 machines                         list built-in machine models\n\
     \x20 lint <file.wrm|dir>... [--format text|json|sarif]\n\
     \x20      [--deny-warnings] [--fix [--dry-run]]\n\
     \x20                                    static analysis: undefined\n\
     \x20                                    references, cycles, dead\n\
     \x20                                    ceilings, infeasible targets,\n\
     \x20                                    redundant edges, starved\n\
     \x20                                    channels, critical-path bounds;\n\
     \x20                                    directories lint every .wrm\n\
     \x20 analyze <file.wrm> [--machine M] [--simulate] [--contention r=f]\n\
     \x20         [--svg out.svg] [--html out.html] [--ascii]\n\
     \x20         [--reps N [--seed S] [--percentiles]]\n\
     \x20                                    analyze a workflow file; --reps\n\
     \x20                                    adds Monte-Carlo percentile\n\
     \x20                                    makespans and (with --simulate\n\
     \x20                                    --svg) whiskers the measured\n\
     \x20                                    roofline dot\n\
     \x20 simulate <file.wrm> [--gantt] [--jsonl out.jsonl] [--contention r=f]\n\
     \x20          [--summary]               streaming aggregates only —\n\
     \x20                                    O(channels) result memory, for\n\
     \x20                                    very large (100k+ task) runs\n\
     \x20          [--reps N [--seed S] [--percentiles] [--threads N]]\n\
     \x20                                    Monte-Carlo replication over the\n\
     \x20                                    phase distributions: N seeded\n\
     \x20                                    runs on one compiled index,\n\
     \x20                                    streamed percentile makespans;\n\
     \x20                                    --threads 0 (default) = one per\n\
     \x20                                    CPU, byte-identical output at\n\
     \x20                                    any thread count\n\
     \x20 sweep <file.wrm|builtin> [--resource R --factors 1.0,0.5]\n\
     \x20       [--nodes 64,128] [--policies fifo,backfill] [--threads N]\n\
     \x20       [--contention r=f] [--format json|jsonl|csv] [--out file] [--quiet]\n\
     \x20                                    simulate a parameter grid in\n\
     \x20                                    parallel (builtins: lcls, bgw,\n\
     \x20                                    cosmoflow, gptune-rci, gptune-spawn);\n\
     \x20                                    the incremental engine shares\n\
     \x20                                    index/prefix work across the\n\
     \x20                                    grid, bit-identical to per-point\n\
     \x20                                    simulation;\n\
     \x20                                    --threads 0 (default) = one per\n\
     \x20                                    CPU, explicit values capped at\n\
     \x20                                    the host core count\n\
     \x20 certify <file.wrm> [--machine M] [--contention r=f]\n\
     \x20                                    print the certified two-sided\n\
     \x20                                    makespan interval as JSON\n\
     \x20 serve [--addr host:port] [--threads N] [--cache-capacity N] [--quiet]\n\
     \x20                                    HTTP server for simulate, certify,\n\
     \x20                                    mc, lint, and sweep over preloaded\n\
     \x20                                    or posted specs (see docs/SERVE.md)\n\
     \x20 figures [all|f1|f2|f3|f4|f5a|f5b|f6|f7a|f7b|f7c|f7d|f8|f9|f10|t1]\n\
     \x20         [--out dir]                 regenerate the paper's figures\n\
     \x20 compare <file.wrm>                 project the workflow onto every\n\
     \x20                                    built-in machine\n\
     \x20 profile <file.wrm> [--svg out.svg] simulate and chart parallelism\n\
     \x20                                    over time\n\
     \x20 import <report.csv> --machine M --structure T,P,N\n\
     \x20         [--svg out.svg]            analyze an external timing report\n\
     \x20 help, --help, -h                   this text (also after a command)\n"
}

fn cmd_machines() -> Result<(), String> {
    for m in machines::all() {
        println!("{} ({} nodes)", m.name, m.total_nodes);
        for r in &m.node_resources {
            println!("  node   {:<8} {:<12} {}", r.id, r.label, r.peak_per_node);
        }
        for r in &m.system_resources {
            println!(
                "  system {:<8} {:<12} {} ({})",
                r.id, r.label, r.peak, r.scaling
            );
        }
    }
    Ok(())
}

#[derive(Default)]
struct Flags {
    file: Option<String>,
    files: Vec<String>,
    fix: bool,
    dry_run: bool,
    machine: Option<String>,
    simulate: bool,
    svg: Option<String>,
    ascii: bool,
    gantt: bool,
    jsonl: Option<String>,
    structure: Option<(f64, f64, u64)>,
    html: Option<String>,
    deny_warnings: bool,
    out: Option<String>,
    quiet: bool,
    addr: String,
    cache_capacity: usize,
    query: query::Flags,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        addr: "127.0.0.1:8080".into(),
        cache_capacity: 32,
        ..Flags::default()
    };
    let mut i = 0;
    let mut positional = 0;
    while i < args.len() {
        let a = &args[i];
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("flag {a} needs a value"))
        };
        match a.as_str() {
            "--machine" => f.machine = Some(value(&mut i)?),
            "--deny-warnings" => f.deny_warnings = true,
            "--fix" => f.fix = true,
            "--dry-run" => f.dry_run = true,
            "--simulate" => f.simulate = true,
            "--ascii" => f.ascii = true,
            "--gantt" => f.gantt = true,
            "--svg" => f.svg = Some(value(&mut i)?),
            "--html" => f.html = Some(value(&mut i)?),
            "--jsonl" => f.jsonl = Some(value(&mut i)?),
            "--out" => f.out = Some(value(&mut i)?),
            "--quiet" => f.quiet = true,
            "--addr" => f.addr = value(&mut i)?,
            "--cache-capacity" => {
                let v = value(&mut i)?;
                f.cache_capacity = v.parse().map_err(|_| format!("bad cache capacity `{v}`"))?;
            }
            "--structure" => {
                let v = value(&mut i)?;
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 3 {
                    return Err(format!(
                        "--structure expects total,parallel,nodes_per_task, got `{v}`"
                    ));
                }
                let total: f64 = parts[0]
                    .parse()
                    .map_err(|_| format!("bad total `{}`", parts[0]))?;
                let parallel: f64 = parts[1]
                    .parse()
                    .map_err(|_| format!("bad parallel `{}`", parts[1]))?;
                let nodes: u64 = parts[2]
                    .parse()
                    .map_err(|_| format!("bad nodes `{}`", parts[2]))?;
                f.structure = Some((total, parallel, nodes));
            }
            other if other.starts_with("--") => {
                if !f.query.parse(other, || value(&mut i))? {
                    return Err(format!("unknown flag `{other}`"));
                }
            }
            other => {
                if positional == 0 {
                    f.file = Some(other.to_owned());
                }
                f.files.push(other.to_owned());
                positional += 1;
            }
        }
        i += 1;
    }
    Ok(f)
}

// The lint-errors-first compile pipeline lives in `wrm_serve::resolve`
// so the server resolves posted sources through the identical path.
pub(crate) use wrm_serve::resolve::compile_checked;

/// The workflow file argument and its text.
fn read_file(flags: &Flags) -> Result<(&str, String), String> {
    let path = flags
        .file
        .as_deref()
        .ok_or_else(|| "missing workflow file argument".to_owned())?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok((path, source))
}

fn load(flags: &Flags) -> Result<(wrm_lang::Compiled, wrm_core::Machine), String> {
    let (path, source) = read_file(flags)?;
    let compiled = compile_checked(path, &source)?;
    let machine = wrm_serve::resolve::resolve_machine(&compiled, flags.machine.as_deref())?;
    Ok((compiled, machine))
}

/// The workflow file compiled and indexed, as the server caches it.
fn load_entry(flags: &Flags) -> Result<ServeEntry, String> {
    let (path, source) = read_file(flags)?;
    let machine = flags.machine.as_deref();
    ServeEntry::build(wrm_serve::resolve::from_source(path, &source, machine)?)
}

/// Expands lint arguments: a directory becomes every `.wrm` file
/// directly inside it (sorted), a file passes through untouched.
fn expand_wrm_paths(args: &[String]) -> Result<Vec<String>, String> {
    let mut paths = Vec::new();
    for arg in args {
        let meta = std::fs::metadata(arg).map_err(|e| format!("cannot read {arg}: {e}"))?;
        if meta.is_dir() {
            let mut found = Vec::new();
            let entries = std::fs::read_dir(arg).map_err(|e| format!("cannot read {arg}: {e}"))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("cannot read {arg}: {e}"))?;
                let path = entry.path();
                if path.is_file() && path.extension().is_some_and(|e| e == "wrm") {
                    found.push(path.to_string_lossy().into_owned());
                }
            }
            found.sort();
            if found.is_empty() {
                return Err(format!("no .wrm files in directory {arg}"));
            }
            paths.extend(found);
        } else {
            paths.push(arg.clone());
        }
    }
    Ok(paths)
}

fn cmd_lint(args: &[String]) -> Result<u8, String> {
    let flags = parse_flags(args)?;
    let query = Query::from_flags("lint", &flags.query)?;
    if flags.files.is_empty() {
        return Err("missing workflow file argument".to_owned());
    }
    let paths = expand_wrm_paths(&flags.files)?;
    // (path, source, diagnostics) per file; sources are kept so fixes
    // and renders can slice them. Each file's certificate comes from its
    // lint run, for the JSON report.
    let mut batch: Vec<(String, String, Vec<wrm_lint::Diagnostic>)> = Vec::new();
    let mut certificates = Vec::new();
    for path in paths {
        let source =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let (diags, certificate) = lint_file(&source);
        batch.push((path, source, diags));
        certificates.push(certificate);
    }

    if flags.fix {
        apply_lint_fixes(&mut batch, &mut certificates, flags.dry_run)?;
    }

    // The server answers `POST /v1/lint` through the same query.
    print!(
        "{}",
        execute(&query, Input::Linted(&batch, &certificates))?.body
    );

    // The exit code aggregates the worst severity across every file.
    let worst = batch
        .iter()
        .filter_map(|(_, _, diags)| wrm_lint::max_severity(diags))
        .max();
    Ok(match worst {
        Some(wrm_lint::Severity::Error) => 2,
        Some(wrm_lint::Severity::Warning) if flags.deny_warnings => 1,
        _ => 0,
    })
}

/// Lints one source: its diagnostics and the certificate the lint run
/// built.
fn lint_file(source: &str) -> (Vec<wrm_lint::Diagnostic>, Option<wrm_sim::Certificate>) {
    let (diags, ctx) = wrm_lint::lint_source_with_context(source);
    (diags, ctx.and_then(|c| c.certificate))
}

/// `--fix`: applies every machine-applicable edit. With `--dry-run` the
/// would-be changes are printed as diffs and nothing is written;
/// otherwise files are rewritten in place and re-linted so the report,
/// certificates and exit code reflect the fixed sources.
fn apply_lint_fixes(
    batch: &mut [(String, String, Vec<wrm_lint::Diagnostic>)],
    certificates: &mut [Option<wrm_sim::Certificate>],
    dry_run: bool,
) -> Result<(), String> {
    for ((path, source, diags), certificate) in batch.iter_mut().zip(certificates) {
        let edits = wrm_lint::collect_edits(diags);
        if edits.is_empty() {
            continue;
        }
        let outcome = wrm_lint::apply_fixes(source, &edits);
        if dry_run {
            print!("{}", wrm_lint::fixit::diff(path, source, &outcome.fixed));
            continue;
        }
        std::fs::write(&*path, &outcome.fixed).map_err(|e| format!("cannot write {path}: {e}"))?;
        let skipped = if outcome.skipped.is_empty() {
            String::new()
        } else {
            format!(
                " ({} overlapping edit(s) skipped; rerun --fix to apply)",
                outcome.skipped.len()
            )
        };
        println!("{path}: applied {} fix(es){skipped}", outcome.applied.len());
        *source = outcome.fixed;
        (*diags, *certificate) = lint_file(source);
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    // `--contention`, `--reps`, `--seed` and `--percentiles` read as they
    // do for `wrm simulate`.
    let query = Query::from_flags("simulate", &flags.query)?;
    let (compiled, machine) = load(&flags)?;
    let mut wf = compiled.characterization().map_err(|e| e.to_string())?;
    let base = Scenario::new(machine, compiled.spec);
    let scenario = query.scenario(&base)?;
    let machine = &scenario.machine;

    if flags.simulate {
        let result = simulate(&scenario).map_err(|e| e.to_string())?;
        wf.makespan = Some(Seconds(result.makespan));
        println!("simulated makespan: {:.2} s", result.makespan);
    }

    // The certified two-sided bound prints alongside the roofline:
    // whatever the schedule, the makespan provably lands in [lo, hi].
    if let Ok(cert) = wrm_sim::certify(machine, &scenario.workflow, &scenario.options) {
        println!(
            "certified makespan interval: [{:.2} s, {:.2} s]",
            cert.lo, cert.hi
        );
    }

    // --reps runs the Monte-Carlo engine over the distributional phases;
    // the extreme percentile makespans become a throughput whisker on
    // the roofline dot.
    let mut whisker = None;
    if let Op::Mc {
        options,
        percentiles,
    } = &query.op
    {
        let mc = wrm_sim::mc_run(&scenario, options).map_err(|e| e.to_string())?;
        print!(
            "{}",
            wrm_serve::render::mc_report(&scenario.workflow.name, &machine.name, &mc, *percentiles)
        );
        if let (Some(first), Some(last)) = (mc.percentiles.first(), mc.percentiles.last()) {
            if first.value > 0.0 && last.value > 0.0 {
                whisker = Some((
                    wrm_core::TasksPerSec(wf.total_tasks / last.value),
                    wrm_core::TasksPerSec(wf.total_tasks / first.value),
                ));
            }
        }
    }

    let model = RooflineModel::build_lenient(machine, &wf).map_err(|e| e.to_string())?;
    print!("{}", report::render(&model));

    if flags.ascii {
        println!("\n{}", wrm_plot::ascii::roofline(&model, 84, 24));
    }
    if let Some(path) = &flags.svg {
        let mut plot =
            wrm_plot::RooflinePlot::new(format!("{} on {}", wf.name, machine.name)).model(&model);
        if let Some((lo, hi)) = whisker {
            plot = plot.whisker(lo, hi);
        }
        let svg = plot
            .render_svg()
            .ok_or_else(|| "nothing to render".to_owned())?;
        std::fs::write(path, svg).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = &flags.html {
        let html = build_html_report(flags.simulate, &scenario, &model)?;
        std::fs::write(path, html).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Assembles the single-file HTML report: analysis text, the roofline,
/// and (when --simulate ran) the Gantt chart, time breakdown, and
/// parallelism profile from the simulated run.
fn build_html_report(
    simulated: bool,
    scenario: &Scenario,
    model: &RooflineModel,
) -> Result<String, String> {
    use wrm_plot::Section;
    let machine = &scenario.machine;
    let mut sections = vec![
        Section::Heading("Analysis".into()),
        Section::Pre(report::render(model)),
        Section::Heading("Workflow Roofline".into()),
    ];
    if let Some(svg) =
        wrm_plot::RooflinePlot::new(format!("{} on {}", model.workflow.name, machine.name))
            .model(model)
            .render_svg()
    {
        sections.push(Section::Svg(svg));
    }
    if let Ok(dag0) = scenario.workflow.to_dag(machine) {
        if let Some(svg) = wrm_plot::skeleton::render_svg(&dag0, 860.0) {
            sections.push(Section::Heading("Skeleton".into()));
            sections.push(Section::Svg(svg));
        }
    }
    if simulated {
        let result = simulate(scenario).map_err(|e| e.to_string())?;
        let (dag, intervals) = run_intervals(scenario, &result)?;
        let chart = GanttChart::build(&dag, &intervals).map_err(|e| e.to_string())?;
        sections.push(Section::Heading("Gantt chart".into()));
        sections.push(Section::Svg(wrm_plot::gantt_plot::render_svg(
            &[&chart],
            860.0,
        )));
        sections.push(Section::Heading("Time breakdown".into()));
        sections.push(Section::Svg(wrm_plot::breakdown_plot::render_svg(
            "phase time by category",
            &[result.trace.breakdown()],
            680.0,
            420.0,
        )));
        let profile = ParallelismProfile::build(&dag, &intervals);
        sections.push(Section::Heading("Parallelism profile".into()));
        sections.push(Section::Svg(wrm_plot::profile_plot::render_svg(
            "concurrency over time",
            &profile,
            760.0,
        )));
    }
    Ok(wrm_plot::html::render(
        &format!("{} on {}", model.workflow.name, machine.name),
        &sections,
    ))
}

/// The workflow graph with ideal durations on the scenario's machine
/// and each task's `(start, end)` in `result`, the input of the Gantt
/// chart and parallelism profile: both draw the simulated run itself.
fn run_intervals(
    scenario: &Scenario,
    result: &wrm_sim::SimResult,
) -> Result<(Dag, Vec<(f64, f64)>), String> {
    let dag = scenario
        .workflow
        .to_dag(&scenario.machine)
        .map_err(|e| format!("workflow graph: {e}"))?;
    let intervals = result
        .task_intervals(&dag)
        .ok_or("the simulated run is missing a task of the workflow graph")?;
    Ok((dag, intervals))
}

/// `wrm simulate`, `wrm certify`: the query answered on the file's
/// index, byte-identical to the server's response to the same query.
fn cmd_query(command: &str, args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let query = Query::from_flags(command, &flags.query)?;
    if flags.gantt || flags.jsonl.is_some() {
        let kept = match query.op {
            Op::Mc { .. } => Some("--reps keeps no per-replication trace"),
            Op::Simulate { summary: true } => Some("--summary keeps no trace"),
            _ => None,
        };
        if let Some(kept) = kept {
            return Err(format!(
                "{kept}; it cannot be combined with --gantt or --jsonl"
            ));
        }
    }
    let entry = load_entry(&flags)?;
    let answer = execute(
        &query,
        Input::<String>::Indexed(&entry, &mut SimArena::new()),
    )?;
    print!("{}", answer.body);
    let Some(result) = &answer.run else {
        return Ok(());
    };
    if flags.gantt {
        let (dag, intervals) = run_intervals(&entry.scenario, result)?;
        let chart = GanttChart::build(&dag, &intervals).map_err(|e| e.to_string())?;
        println!("\n{}", wrm_plot::ascii::gantt(&chart, 72));
    }
    if let Some(path) = &flags.jsonl {
        std::fs::write(path, result.trace.to_jsonl())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `wrm serve` — block on the HTTP server until SIGTERM, SIGINT, or
/// `POST /admin/shutdown`.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    wrm_serve::run(wrm_serve::ServerConfig {
        addr: flags.addr.clone(),
        workers: flags.query.mc.threads,
        cache_capacity: flags.cache_capacity,
        quiet: flags.quiet,
    })
}

fn cmd_figures(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let (id, out_dir) = (flags.file.as_deref(), flags.out.as_deref());
    let (id, out_dir) = (id.unwrap_or("all"), out_dir.unwrap_or("figures"));
    let figures = if id == "all" {
        figures::build_all()
    } else {
        vec![figures::build(id).ok_or_else(|| format!("unknown figure id `{id}` (try `all`)"))?]
    };
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    let mut stdout = std::io::stdout().lock();
    for fig in &figures {
        for (name, content) in &fig.files {
            let path = format!("{out_dir}/{name}");
            std::fs::write(&path, content)
                .map_err(|e| format!("[{}] cannot write {path}: {e}", fig.id))?;
        }
        writeln!(stdout, "{}", fig.summary).map_err(|e| e.to_string())?;
    }
    writeln!(
        stdout,
        "\nwrote {} file(s) to {}/",
        figures.iter().map(|f| f.files.len()).sum::<usize>(),
        out_dir
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let (path, source) = read_file(&flags)?;
    let compiled = compile_checked(path, &source)?;
    let wf = compiled.characterization().map_err(|e| e.to_string())?;

    // Project analytically onto each machine: no simulation runs here.
    let all = machines::all();
    println!(
        "projecting `{}` ({} tasks, {} parallel, {} nodes/task) onto {} machines:\n",
        wf.name,
        wf.total_tasks,
        wf.parallel_tasks,
        wf.nodes_per_task,
        all.len()
    );
    let projections = wrm_core::across_machines(&wf, &all).map_err(|e| e.to_string())?;
    print!("{}", wrm_core::projection::render_table(&projections));

    // If a throughput target exists, answer the architect's question per
    // machine: what external/file-system peak would meet it?
    if wf.targets.throughput.is_some() {
        println!("\nrequired peaks to reach the throughput target:");
        for machine in &all {
            for res in [wrm_core::ids::EXTERNAL, wrm_core::ids::FILE_SYSTEM] {
                match wrm_core::required_peak(machine, &wf, res) {
                    Ok(Some(peak)) if peak.is_finite() => {
                        println!("  {:<18} {res:<4} -> {:.3e} B/s", machine.name, peak);
                    }
                    Ok(Some(_)) => println!(
                        "  {:<18} {res:<4} -> unattainable by scaling this resource",
                        machine.name
                    ),
                    Ok(None) => println!("  {:<18} {res:<4} -> already attainable", machine.name),
                    Err(_) => {}
                }
            }
        }
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let query = Query::from_flags("simulate", &flags.query)?;
    let (compiled, machine) = load(&flags)?;
    let base = Scenario::new(machine, compiled.spec);
    let scenario = query.scenario(&base)?;
    let result = simulate(&scenario).map_err(|e| e.to_string())?;

    let (dag, intervals) = run_intervals(&scenario, &result)?;
    let profile = ParallelismProfile::build(&dag, &intervals);
    let name = &scenario.workflow.name;
    println!(
        "{name} on {}: makespan {:.2} s",
        scenario.machine.name, result.makespan
    );
    println!(
        "  peak concurrency: {} tasks / {} nodes",
        profile.peak_tasks(),
        profile.peak_nodes()
    );
    println!("  mean concurrency: {:.2} tasks", profile.mean_tasks());
    println!(
        "  serial fraction:  {:.0}% of the makespan at <= 1 running task",
        profile.serial_fraction() * 100.0
    );
    if let Some(path) = &flags.svg {
        let svg = wrm_plot::profile_plot::render_svg(
            &format!("{name} parallelism profile"),
            &profile,
            760.0,
        );
        std::fs::write(path, svg).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_import(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let path = flags
        .file
        .as_ref()
        .ok_or_else(|| "missing report file argument".to_owned())?;
    let machine_name = flags
        .machine
        .as_ref()
        .ok_or_else(|| "import needs --machine".to_owned())?;
    let machine = machines::by_name(machine_name)
        .ok_or_else(|| format!("unknown machine `{machine_name}`"))?;
    let csv = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = wrm_trace::trace_from_csv(
        path.rsplit('/')
            .next()
            .unwrap_or(path)
            .trim_end_matches(".csv"),
        machine.name.clone(),
        &csv,
    )
    .map_err(|e| format!("{path}: {e}"))?;

    let structure = match &flags.structure {
        Some((t, p, n)) => Structure::new(*t, *p, *n),
        None => {
            // Infer: every task is one unit; assume all run in parallel
            // on the max node count seen.
            let tasks = trace.task_names().len().max(1) as f64;
            let nodes = trace.spans.iter().map(|s| s.nodes).max().unwrap_or(1);
            println!(
                "(no --structure given: assuming {tasks} tasks all parallel on {nodes} \
                 nodes each)"
            );
            Structure::new(tasks, tasks, nodes)
        }
    };
    let wf = characterize(&trace, &structure).map_err(|e| e.to_string())?;
    let model = RooflineModel::build_lenient(&machine, &wf).map_err(|e| e.to_string())?;
    print!("{}", report::render(&model));
    if let Some(path) = &flags.svg {
        let svg = wrm_plot::RooflinePlot::new(format!("{} on {}", wf.name, machine.name))
            .model(&model)
            .render_svg()
            .ok_or_else(|| "nothing to render".to_owned())?;
        std::fs::write(path, svg).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}
