//! Black-box tests of the `wrm` binary.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use wrm_serve::render;
use wrm_sim::SchedulerPolicy;

fn wrm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wrm"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wrm_cli_{name}"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

const LCLS_WRM: &str = r#"
workflow lcls on cori-hsw {
  targets { makespan 10min  throughput 6 per 600s }
  task analyze[5] {
    nodes 32
    system_bytes ext 1TB cap 1GB/s
    node_bytes dram 1024GB
  }
  task merge { nodes 1 system_bytes bb 5GB after analyze }
}
"#;

#[test]
fn help_and_machines() {
    let out = wrm().output().expect("runs");
    assert!(out.status.success());
    let usage = out.stdout;
    let text = String::from_utf8_lossy(&usage);
    assert!(text.contains("usage: wrm"));
    assert!(text.contains("mc, lint, and sweep"), "{text}");

    // `--help` and `-h` print the same usage on stdout and exit 0, on
    // their own and after every command.
    let commands = [
        "machines", "lint", "analyze", "simulate", "sweep", "certify", "serve", "figures",
        "compare", "profile", "import", "help",
    ];
    for flag in ["--help", "-h"] {
        let mut runs = vec![vec![flag]];
        runs.extend(commands.iter().map(|c| vec![*c, flag]));
        for args in runs {
            let out = wrm().args(&args).output().expect("runs");
            assert!(out.status.success(), "{args:?}");
            assert_eq!(out.stdout, usage, "{args:?}");
            assert!(out.stderr.is_empty(), "{args:?}");
        }
    }

    let out = wrm().arg("machines").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Perlmutter GPU (1792 nodes)"));
    assert!(text.contains("Cori Haswell (2388 nodes)"));
    assert!(text.contains("5.6 TB/s"));
}

#[test]
fn analyze_simulate_figures_pipeline() {
    let dir = tmpdir("pipeline");
    let wf_path = dir.join("lcls.wrm");
    std::fs::write(&wf_path, LCLS_WRM).expect("write");

    // analyze --simulate --ascii --svg
    let svg_path = dir.join("lcls.svg");
    let out = wrm()
        .args([
            "analyze",
            wf_path.to_str().expect("utf8"),
            "--simulate",
            "--ascii",
            "--svg",
            svg_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("simulated makespan: 10"), "{text}");
    assert!(text.contains("system-bound on `ext`"), "{text}");
    assert!(text.contains("Advice:"), "{text}");
    let svg = std::fs::read_to_string(&svg_path).expect("svg written");
    assert!(svg.contains("<svg"));

    // simulate --gantt --jsonl --contention
    let jsonl_path = dir.join("trace.jsonl");
    let out = wrm()
        .args([
            "simulate",
            wf_path.to_str().expect("utf8"),
            "--gantt",
            "--jsonl",
            jsonl_path.to_str().expect("utf8"),
            "--contention",
            "ext=0.2",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("makespan 50"), "bad-day makespan: {text}");
    assert!(text.contains("time breakdown"), "{text}");
    assert!(text.contains("analyze[0]"), "{text}");
    let trace = std::fs::read_to_string(&jsonl_path).expect("jsonl written");
    assert!(trace.lines().count() > 10);

    // figures: one specific figure into the tmp dir.
    let figdir = dir.join("figs");
    let out = wrm()
        .args(["figures", "f4", "--out", figdir.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(figdir.join("fig4_lcls_skeleton.svg").exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn error_paths_are_reported() {
    // Unknown command.
    let out = wrm().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing file.
    let out = wrm()
        .args(["analyze", "/nonexistent.wrm"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // Parse error with position.
    let dir = tmpdir("errors");
    let bad = dir.join("bad.wrm");
    std::fs::write(&bad, "workflow w { task a { nodes } }").expect("write");
    let out = wrm()
        .args([
            "analyze",
            bad.to_str().expect("utf8"),
            "--machine",
            "pm-gpu",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("expected a number"), "{err}");

    // Unknown machine.
    std::fs::write(&bad, "workflow w { task a { } }").expect("write");
    let out = wrm()
        .args([
            "analyze",
            bad.to_str().expect("utf8"),
            "--machine",
            "summit",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown machine"));

    // Unknown figure id.
    let out = wrm().args(["figures", "f99"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown figure id"));

    // Bad flag and bad contention syntax.
    let out = wrm().args(["analyze", "--bogus"]).output().expect("runs");
    assert!(!out.status.success());
    let out = wrm()
        .args(["simulate", "x.wrm", "--contention", "ext"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("res=factor"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reps_is_bounded_like_the_server() {
    // `--reps` shares `/v1/mc`'s ceiling of 100000. A dist-free spec
    // collapses to one replication, so the largest count runs at once.
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../workflows/lcls_cori.wrm");
    let out = wrm()
        .args(["simulate", spec, "--reps", "100001"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1..=100000"), "{err}");

    let out = wrm()
        .args(["simulate", spec, "--reps", "100000"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("point-mass"));
}

#[test]
fn sweep_grid_json_and_csv() {
    let dir = tmpdir("sweep");
    let wf_path = dir.join("lcls.wrm");
    std::fs::write(&wf_path, LCLS_WRM).expect("write");

    // CSV to stdout: 2 factors x 2 policies = 4 rows + header, and the
    // halved external bandwidth doubles the makespan.
    let out = wrm()
        .args([
            "sweep",
            wf_path.to_str().expect("utf8"),
            "--resource",
            "ext",
            "--factors",
            "1.0,0.5",
            "--policies",
            "fifo,backfill",
            "--threads",
            "2",
            "--format",
            "csv",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 5, "{text}");
    assert!(
        text.starts_with("workflow,machine,resource,factor,node_limit,policy"),
        "{text}"
    );
    assert!(text.contains(",ext,1,,fifo,1000."), "{text}");
    assert!(text.contains(",ext,0.5,,backfill,2000."), "{text}");

    // JSON to a file, sweeping node limits.
    let json_path = dir.join("sweep.json");
    let out = wrm()
        .args([
            "sweep",
            wf_path.to_str().expect("utf8"),
            "--nodes",
            "64,161",
            "--format",
            "json",
            "--out",
            json_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&json_path).expect("json written");
    assert!(json.trim_start().starts_with('['), "{json}");
    assert_eq!(json.matches("\"makespan_s\"").count(), 2, "{json}");
    assert!(json.contains("\"node_limit\": 64"), "{json}");
    assert!(json.contains("\"error\": null"), "{json}");

    // Builtin workflows resolve by name.
    let out = wrm()
        .args(["sweep", "bgw", "--format", "csv"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("BerkeleyGW"),
        "builtin sweep output"
    );

    // Error paths: unknown workflow name, --factors without --resource.
    let out = wrm().args(["sweep", "nope"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workflow"));
    let out = wrm()
        .args(["sweep", wf_path.to_str().expect("utf8"), "--factors", "0.5"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--resource"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn custom_machine_file_end_to_end() {
    let dir = tmpdir("custom");
    let path = dir.join("custom.wrm");
    std::fs::write(
        &path,
        r#"
machine minicluster {
  nodes 16
  node compute 10TFLOPS
  system fs 100GB/s
}
workflow demo on minicluster {
  task work[4] { nodes 2 compute 10TFLOPS eff 0.5 system_bytes fs 100GB }
}
"#,
    )
    .expect("write");
    let out = wrm()
        .args(["simulate", path.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("demo on minicluster"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_profile_and_import() {
    let dir = tmpdir("compare");
    let wf_path = dir.join("lcls.wrm");
    std::fs::write(&wf_path, LCLS_WRM).expect("write");

    // compare: a table over all three machines plus required peaks.
    let out = wrm()
        .args(["compare", wf_path.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Perlmutter GPU"), "{text}");
    assert!(text.contains("Cori Haswell"), "{text}");
    assert!(text.contains("required peaks"), "{text}");

    // profile: concurrency summary and an SVG.
    let svg_path = dir.join("profile.svg");
    let out = wrm()
        .args([
            "profile",
            wf_path.to_str().expect("utf8"),
            "--svg",
            svg_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("peak concurrency: 5 tasks"), "{text}");
    assert!(text.contains("serial fraction"), "{text}");
    assert!(svg_path.exists());

    // import: CSV timing report -> roofline report.
    let csv_path = dir.join("report.csv");
    std::fs::write(
        &csv_path,
        "analyze0, system_data, 0, 1000, 32, ext, 1e12\n\
         analyze0, node_data, 1000, 1012, 32, dram, 1.024e12\n",
    )
    .expect("write");
    let out = wrm()
        .args([
            "import",
            csv_path.to_str().expect("utf8"),
            "--machine",
            "cori-hsw",
            "--structure",
            "6,5,32",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("system-bound on `ext`"), "{text}");

    // import without --machine fails clearly.
    let out = wrm()
        .args(["import", csv_path.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--machine"));

    // bad --structure is reported.
    let out = wrm()
        .args([
            "import",
            csv_path.to_str().expect("utf8"),
            "--machine",
            "cori-hsw",
            "--structure",
            "6,5",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("total,parallel"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn html_report_contains_every_section() {
    let dir = tmpdir("html");
    let wf_path = dir.join("lcls.wrm");
    std::fs::write(&wf_path, LCLS_WRM).expect("write");
    let html_path = dir.join("report.html");
    let out = wrm()
        .args([
            "analyze",
            wf_path.to_str().expect("utf8"),
            "--simulate",
            "--html",
            html_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let html = std::fs::read_to_string(&html_path).expect("html written");
    assert!(html.starts_with("<!DOCTYPE html>"));
    for section in [
        "Analysis",
        "Workflow Roofline",
        "Skeleton",
        "Gantt chart",
        "Time breakdown",
        "Parallelism profile",
    ] {
        assert!(html.contains(section), "missing section {section}");
    }
    // Inline SVGs, no external assets.
    assert!(html.matches("<svg").count() >= 5);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_output_order_is_deterministic() {
    let dir = tmpdir("sweep_order");
    let wf_path = dir.join("lcls.wrm");
    std::fs::write(&wf_path, LCLS_WRM).expect("write");
    let wf = wf_path.to_str().expect("utf8");

    // The same grid under different thread counts and axis input
    // orders must produce byte-identical output: rows are sorted by
    // grid coordinates before serializing.
    let run = |factors: &str, extra: &[&str]| -> String {
        let mut args = vec![
            "sweep",
            wf,
            "--resource",
            "ext",
            "--factors",
            factors,
            "--nodes",
            "161,64",
            "--policies",
            "backfill,fifo",
            "--format",
            "csv",
        ];
        args.extend_from_slice(extra);
        let out = wrm().args(&args).output().expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8 output")
    };

    let golden = run("0.25,0.5,1.0", &["--threads", "1"]);
    // 3 factors x 2 node limits x 2 policies + header.
    assert_eq!(golden.lines().count(), 13, "{golden}");
    // Coordinates ascend: factor major, node limit next, fifo first.
    let second_field = |line: &str, n: usize| line.split(',').nth(n).map(str::to_owned);
    let rows: Vec<&str> = golden.lines().skip(1).collect();
    assert_eq!(second_field(rows[0], 3).as_deref(), Some("0.25"));
    assert_eq!(second_field(rows[0], 4).as_deref(), Some("64"));
    assert_eq!(second_field(rows[0], 5).as_deref(), Some("fifo"));
    assert_eq!(second_field(rows[1], 5).as_deref(), Some("backfill"));
    assert_eq!(second_field(rows[2], 4).as_deref(), Some("161"));
    assert_eq!(second_field(rows[4], 3).as_deref(), Some("0.5"));
    assert_eq!(second_field(rows[12 - 4], 3).as_deref(), Some("1"));

    for (factors, extra) in [
        ("0.25,0.5,1.0", &["--threads", "4"][..]),
        ("1.0,0.25,0.5", &["--threads", "2"][..]),
        ("0.25,0.5,1.0", &[][..]),
    ] {
        assert_eq!(run(factors, extra), golden, "variant {factors} {extra:?}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeated_sweep_axis_values_print_each_cell_once() {
    let out = wrm()
        .args([
            "sweep",
            "lcls",
            "--resource",
            "ext",
            "--factors",
            "1,1,0.5",
            "--nodes",
            "64,64",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = String::from_utf8(out.stdout).expect("utf8 output");
    // Header plus one row per distinct (factor, node limit) cell.
    assert_eq!(csv.lines().count(), 3, "{csv}");
    let factors: Vec<&str> = csv
        .lines()
        .skip(1)
        .filter_map(|row| row.split(',').nth(3))
        .collect();
    assert_eq!(factors, ["0.5", "1"], "{csv}");
}

#[test]
fn sweep_matches_per_point_simulation() {
    // The incremental engine behind `wrm sweep` (shared index,
    // checkpoint replay) must print exactly the rows that
    // simulating every grid point from scratch yields.
    let out = wrm()
        .args([
            "sweep",
            "lcls",
            "--resource",
            "ext",
            "--factors",
            "0.2,0.5,1.0",
            "--nodes",
            "64,161",
            "--policies",
            "fifo,backfill",
            "--threads",
            "2",
            "--format",
            "json",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let base = wrm_serve::resolve::builtin_scenario("lcls").expect("builtin");
    let grid = render::build_grid(
        &base,
        Some("ext".to_owned()),
        &[0.2, 0.5, 1.0],
        &[64, 161],
        &[SchedulerPolicy::Fifo, SchedulerPolicy::Backfill],
    )
    .expect("valid grid");
    let mut rows = Vec::new();
    for fi in 0..grid.factors.len() {
        for ni in 0..grid.node_limits.len() {
            for pi in 0..grid.policies.len() {
                let cell = render::SweepCell {
                    factor: grid.factors[fi],
                    node_limit: grid.node_limits[ni],
                    policy: grid.policies[pi],
                };
                let point =
                    base.clone()
                        .with_options(grid.point_options(&base.options, fi, ni, pi));
                let result = wrm_sim::simulate(&point);
                rows.push(render::sweep_row_value(
                    &base.workflow.name,
                    &base.machine.name,
                    "ext",
                    &cell,
                    &result,
                ));
            }
        }
    }
    assert_eq!(rows.len(), 12);
    let expected = render::sweep_json(rows).expect("serializes");
    assert_eq!(String::from_utf8(out.stdout).expect("utf8"), expected);
}

/// Each task's `(start, end, nodes)` in a `--jsonl` trace: its first
/// span's start to its last span's end.
fn trace_intervals(trace: &wrm_trace::Trace) -> BTreeMap<String, (f64, f64, u64)> {
    let mut out: BTreeMap<String, (f64, f64, u64)> = BTreeMap::new();
    for s in &trace.spans {
        let iv = out
            .entry(s.task.to_string())
            .or_insert((s.start, s.end, s.nodes));
        iv.0 = iv.0.min(s.start);
        iv.1 = iv.1.max(s.end);
    }
    out
}

/// The SVG as `Section::Svg` inlines it into the HTML report.
fn inline_svg(svg: &str) -> String {
    svg.lines()
        .skip_while(|l| l.starts_with("<?xml"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// On the node-pressure spec, where FIFO holds the independent `c`
/// tasks behind the queue head, the Gantt chart, parallelism profile
/// and HTML report draw the simulated run: every chart row is its
/// task's interval in the `--jsonl` trace, and the marked chain is the
/// run's own.
#[test]
fn charts_draw_the_simulated_run() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../workflows/node_pressure.wrm"
    );
    let dir = tmpdir("charts");
    let jsonl = dir.join("trace.jsonl");
    let out = wrm()
        .args(["simulate", spec, "--gantt", "--jsonl"])
        .arg(&jsonl)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("node_pressure (makespan 70.00 s, critical path 15.00 s)"),
        "{text}"
    );
    let trace = wrm_trace::Trace::from_jsonl(&std::fs::read_to_string(&jsonl).expect("jsonl"))
        .expect("trace parses");
    let want = trace_intervals(&trace);
    let rows: Vec<&str> = text.lines().filter(|l| l.contains('\u{2502}')).collect();
    assert_eq!(rows.len(), want.len(), "{text}");
    let mut chain = Vec::new();
    for row in rows {
        let (head, tail) = row.split_once('\u{2502}').expect("bar");
        let name = head[1..].trim();
        let (start, end, nodes) = want[name];
        let column = tail.rsplit('\u{2502}').next().expect("time column");
        assert_eq!(
            column.split_whitespace().collect::<Vec<_>>().join(" "),
            format!("{start:.1}s..{end:.1}s ({nodes} nodes)"),
            "{row}"
        );
        if head.starts_with('*') {
            chain.push(name);
        }
    }
    assert_eq!(chain, ["a[4]", "b[3]"]);
    // FIFO holds `c` behind the head until the last `a` starts.
    assert_eq!(want["c[0]"], (40.0, 45.0, 2));
    assert_eq!(want["c[1]"], (40.0, 45.0, 2));
    assert_eq!(want["c[2]"], (45.0, 50.0, 2));

    // The same intervals drive the profile and the HTML report.
    let compiled =
        wrm_lang::compile_source(&std::fs::read_to_string(spec).expect("spec")).expect("compiles");
    let dag = compiled
        .dag(compiled.machine.as_ref().expect("inline machine"))
        .expect("dag");
    let intervals: Vec<(f64, f64)> = dag
        .tasks()
        .iter()
        .map(|t| (want[&t.name].0, want[&t.name].1))
        .collect();
    let chart = wrm_dag::GanttChart::build(&dag, &intervals).expect("chart");
    let profile = wrm_dag::ParallelismProfile::build(&dag, &intervals);

    let svg_path = dir.join("profile.svg");
    let out = wrm()
        .args(["profile", spec, "--svg"])
        .arg(&svg_path)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("peak concurrency: 3 tasks / 7 nodes"),
        "{text}"
    );
    assert!(text.contains("serial fraction:  29%"), "{text}");
    assert_eq!(
        std::fs::read_to_string(&svg_path).expect("svg"),
        wrm_plot::profile_plot::render_svg("node_pressure parallelism profile", &profile, 760.0)
    );

    let html_path = dir.join("report.html");
    let out = wrm()
        .args(["analyze", spec, "--simulate", "--html"])
        .arg(&html_path)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let html = std::fs::read_to_string(&html_path).expect("html");
    let gantt = wrm_plot::gantt_plot::render_svg(&[&chart], 860.0);
    let profile = wrm_plot::profile_plot::render_svg("concurrency over time", &profile, 760.0);
    assert!(
        html.contains(&inline_svg(&gantt)),
        "HTML Gantt differs from the trace"
    );
    assert!(
        html.contains(&inline_svg(&profile)),
        "HTML profile differs from the trace"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--jsonl` traces are pinned byte for byte: span order, float
/// rendering and every task, resource and label string, across
/// system-data, node-data and overhead spans.
#[test]
fn jsonl_traces_match_golden_files() {
    let dir = tmpdir("golden_jsonl");
    for name in ["lcls_cori", "node_pressure"] {
        let spec = format!("{}/../../workflows/{name}.wrm", env!("CARGO_MANIFEST_DIR"));
        let path = dir.join(format!("{name}.jsonl"));
        let out = wrm()
            .args(["simulate", &spec, "--jsonl"])
            .arg(&path)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let golden = format!("{}/tests/golden/{name}.jsonl", env!("CARGO_MANIFEST_DIR"));
        assert_eq!(
            std::fs::read_to_string(&path).expect("trace"),
            std::fs::read_to_string(&golden).expect("golden"),
            "{name}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
