//! Regeneration of every table and figure in the paper's evaluation
//! (the per-experiment index of DESIGN.md). Each figure function returns
//! the SVG documents to write plus a text summary comparing the model's
//! numbers against the paper's.

use wrm_core::analysis::{classify_zone, remove_overhead, scale_intra_task_parallelism};
use wrm_core::{ids, machines, RooflineModel, Seconds, TaskView, TasksPerSec};
use wrm_dag::GanttChart;
use wrm_plot::{breakdown_plot, gantt_plot, skeleton, ExtraDot, RooflinePlot};
use wrm_sim::simulate;
use wrm_trace::TimeBreakdown;
use wrm_workflows::{example, table1, Bgw, CosmoFlow, Day, GpTune, Lcls, Mode};

/// One regenerated figure: files to write and a printed summary.
pub struct Figure {
    /// Figure id (`f1`, `f5a`, ..., `t1`).
    pub id: &'static str,
    /// `(file name, contents)` pairs (SVG or text).
    pub files: Vec<(String, String)>,
    /// Headline comparison against the paper.
    pub summary: String,
}

/// All figure ids in paper order.
pub const ALL_IDS: [&str; 13] = [
    "f1", "f2", "f3", "f4", "f5a", "f5b", "f6", "f7a", "f7b", "f7c", "f7d", "f8", "f10",
];

/// Builds one figure by id (`t1` is also accepted).
pub fn build(id: &str) -> Option<Figure> {
    match id {
        "f1" => Some(f1()),
        "f2" => Some(f2()),
        "f3" => Some(f3()),
        "f4" => Some(f4()),
        "f5a" => Some(f5a()),
        "f5b" => Some(f5b()),
        "f6" => Some(f6()),
        "f7a" => Some(f7(64)),
        "f7b" => Some(f7(1024)),
        "f7c" => Some(f7c()),
        "f7d" => Some(f7d()),
        "f8" => Some(f8()),
        "f9" => Some(f9()),
        "f10" => Some(f10()),
        "t1" => Some(t1()),
        _ => None,
    }
}

/// Builds every figure (including f9 and t1).
pub fn build_all() -> Vec<Figure> {
    let mut ids: Vec<&str> = ALL_IDS.to_vec();
    ids.push("f9");
    ids.push("t1");
    ids.iter().filter_map(|id| build(id)).collect()
}

fn f1() -> Figure {
    let wf = example::fig1_characterization();
    let model = RooflineModel::build(&machines::perlmutter_gpu(), &wf).expect("valid");
    let svg = RooflinePlot::new("Fig. 1 — Workflow Roofline Model (example, PM-GPU)")
        .model(&model)
        .render_svg()
        .expect("has model");
    let summary = format!(
        "f1: example roofline. wall = {} (paper: 28); ceilings = {} \
         (FS 1TB@5.6TB/s, NIC 1TB/node@100GB/s, PCIe 4GB, 100 GFLOPs)",
        model.parallelism_wall,
        model.ceilings.len()
    );
    Figure {
        id: "f1",
        files: vec![("fig1_example.svg".into(), svg)],
        summary,
    }
}

fn f2() -> Figure {
    // A throughput-sensitive workflow meeting its deadline but not its
    // rate target (the yellow dot of Fig. 2b), then the 2x intra-task
    // rebalance of Fig. 2c.
    let wf = wrm_core::WorkflowCharacterization::builder("ensemble")
        .total_tasks(8.0)
        .parallel_tasks(8.0)
        .nodes_per_task(64)
        .makespan(Seconds::secs(800.0))
        .node_volume(
            ids::COMPUTE,
            wrm_core::Work::Flops(wrm_core::Flops::pflops(20.0)),
        )
        .system_volume(ids::FILE_SYSTEM, wrm_core::Bytes::tb(4.0))
        .target_makespan(Seconds::secs(1000.0))
        .target_throughput(TasksPerSec(0.05))
        .build()
        .expect("valid");
    let m = machines::perlmutter_gpu();
    let base = RooflineModel::build(&m, &wf).expect("valid");
    let zone = classify_zone(&wf).expect("measured");

    let rebalanced = scale_intra_task_parallelism(&wf, 2.0, 1.0).expect("valid");
    let shifted = RooflineModel::build(&m, &rebalanced).expect("valid");

    let svg_a = RooflinePlot::new("Fig. 2a/2b — target zones and the yellow-zone dot")
        .model(&base)
        .zones(true)
        .render_svg()
        .expect("has model");
    let svg_c = RooflinePlot::new("Fig. 2c — 2x intra-task parallelism: wall left, ceiling up")
        .model(&shifted)
        .render_svg()
        .expect("has model");
    let summary = format!(
        "f2: zone = {:?} (expect GoodMakespanPoorThroughput); 2x intra-task: wall {} -> {} \
         (2x left), node ceiling at x=2: {:.3e} -> {:.3e} tasks/s (2x up)",
        zone.zone,
        base.parallelism_wall,
        shifted.parallelism_wall,
        base.node_ceilings()[0].tps_at(2.0).get(),
        shifted.node_ceilings()[0].tps_at(2.0).get(),
    );
    Figure {
        id: "f2",
        files: vec![
            ("fig2ab_zones.svg".into(), svg_a),
            ("fig2c_rebalance.svg".into(), svg_c),
        ],
        summary,
    }
}

fn f3() -> Figure {
    let m = machines::perlmutter_gpu();
    // Node-bound: heavy per-node FLOPs, light I/O.
    let node_wf = wrm_core::WorkflowCharacterization::builder("node-bound")
        .total_tasks(4.0)
        .parallel_tasks(4.0)
        .nodes_per_task(64)
        .makespan(Seconds::secs(8000.0))
        .node_volume(
            ids::COMPUTE,
            wrm_core::Work::Flops(wrm_core::Flops::pflops(100.0)),
        )
        .system_volume(ids::FILE_SYSTEM, wrm_core::Bytes::gb(100.0))
        .build()
        .expect("valid");
    // System-bound: the LCLS pattern.
    let sys_wf = wrm_core::WorkflowCharacterization::builder("system-bound")
        .total_tasks(4.0)
        .parallel_tasks(4.0)
        .nodes_per_task(64)
        .makespan(Seconds::secs(8000.0))
        .node_volume(
            ids::COMPUTE,
            wrm_core::Work::Flops(wrm_core::Flops::tflops(10.0)),
        )
        .system_volume(ids::EXTERNAL, wrm_core::Bytes::tb(100.0))
        .build()
        .expect("valid");
    let node_model = RooflineModel::build(&m, &node_wf).expect("valid");
    let sys_model = RooflineModel::build(&m, &sys_wf).expect("valid");
    let nb = wrm_core::analysis::classify_bound(&node_model);
    let sb = wrm_core::analysis::classify_bound(&sys_model);
    let summary = format!(
        "f3: node case -> {:?}; system case -> {:?} (expect Node{{compute}} / System{{ext}})",
        nb.bound, sb.bound
    );
    Figure {
        id: "f3",
        files: vec![
            (
                "fig3a_node_bound.svg".into(),
                RooflinePlot::new("Fig. 3a — node-bound workflow")
                    .model(&node_model)
                    .render_svg()
                    .expect("has model"),
            ),
            (
                "fig3b_system_bound.svg".into(),
                RooflinePlot::new("Fig. 3b — system-bound workflow")
                    .model(&sys_model)
                    .render_svg()
                    .expect("has model"),
            ),
        ],
        summary,
    }
}

fn f4() -> Figure {
    let dag = Lcls::year_2020_on_cori().dag();
    let svg = skeleton::render_svg(&dag, 720.0).expect("acyclic");
    let summary = format!(
        "f4: LCLS skeleton. width = {} (paper: 5 parallel tasks), critical path length = {} \
         (paper: 2)",
        dag.max_width().expect("acyclic"),
        dag.critical_path_length().expect("acyclic")
    );
    Figure {
        id: "f4",
        files: vec![("fig4_lcls_skeleton.svg".into(), svg)],
        summary,
    }
}

fn f5a() -> Figure {
    let lcls = Lcls::year_2020_on_cori();
    let cori = machines::cori_haswell();
    let good_run = simulate(&lcls.scenario(cori.clone(), Day::Good)).expect("simulates");
    let bad_run = simulate(&lcls.scenario(cori.clone(), Day::Bad)).expect("simulates");

    let good = lcls
        .characterization(ids::BURST_BUFFER, Some(Seconds(good_run.makespan)))
        .with_name("Good days");
    let bad = lcls
        .characterization(ids::BURST_BUFFER, Some(Seconds(bad_run.makespan)))
        .with_name("Bad days");
    let good_model = RooflineModel::build(&cori, &good).expect("valid");
    let bad_machine = cori
        .with_scaled_resource(ids::EXTERNAL, Day::Bad.contention_factor())
        .expect("resource exists");
    let bad_model = RooflineModel::build(&bad_machine, &bad).expect("valid");

    let svg = RooflinePlot::new("Fig. 5a — LCLS on Cori-HSW (good vs bad days)")
        .model(&good_model)
        .model(&bad_model)
        .render_svg()
        .expect("has model");
    let summary = format!(
        "f5a: good day {:.0} s (paper 1020 s), bad day {:.0} s (paper 5100 s), ratio {:.1}x \
         (paper 5x); binding = {}; good-day efficiency vs external ceiling {:.0}%",
        good_run.makespan,
        bad_run.makespan,
        bad_run.makespan / good_run.makespan,
        good_model
            .binding_ceiling()
            .map(|c| c.resource.to_string())
            .unwrap_or_default(),
        good_model.efficiency().unwrap_or(0.0) * 100.0
    );
    Figure {
        id: "f5a",
        files: vec![("fig5a_lcls_cori.svg".into(), svg)],
        summary,
    }
}

fn f5b() -> Figure {
    let lcls = Lcls::year_2020_on_cori();
    let cori = machines::cori_haswell();
    let mut bars = Vec::new();
    let mut summary_parts = Vec::new();
    for (day, label) in [(Day::Good, "Good days"), (Day::Bad, "Bad days")] {
        let run = simulate(&lcls.scenario(cori.clone(), day)).expect("simulates");
        let b = run.to_trace().breakdown();
        // Collapse into the paper's two categories.
        let loading = b.get("io:ext");
        let analysis: f64 = b.total() - loading;
        summary_parts.push(format!(
            "{label}: loading {loading:.0} s vs analysis {analysis:.0} s"
        ));
        bars.push(TimeBreakdown {
            label: label.into(),
            categories: vec![
                ("loading data".into(), loading),
                ("analysis".into(), analysis),
            ],
        });
    }
    let svg = breakdown_plot::render_svg("Fig. 5b — LCLS time breakdown", &bars, 640.0, 420.0);
    Figure {
        id: "f5b",
        files: vec![("fig5b_lcls_breakdown.svg".into(), svg)],
        summary: format!(
            "f5b: {} (paper: loading dominates both cases)",
            summary_parts.join("; ")
        ),
    }
}

fn f6() -> Figure {
    let lcls = Lcls::year_2024_on_pm();
    let pm = machines::perlmutter_cpu();
    let run = simulate(&lcls.scenario(pm.clone(), Day::Good)).expect("simulates");
    let wf = lcls.characterization(ids::FILE_SYSTEM, Some(Seconds(run.makespan)));
    let model = RooflineModel::build(&pm, &wf).expect("valid");
    let contended = pm
        .with_scaled_resource(ids::EXTERNAL, 0.2)
        .expect("resource exists");
    let contended_model =
        RooflineModel::build(&contended, &wf.with_name("LCLS (5x contention)")).expect("valid");
    let ext = model
        .ceilings
        .iter()
        .find(|c| c.resource.as_str() == ids::EXTERNAL)
        .expect("external ceiling");
    let svg = RooflinePlot::new("Fig. 6 — LCLS on PM-CPU (DTN external, contention)")
        .model(&model)
        .model(&contended_model)
        .render_svg()
        .expect("has model");
    let summary = format!(
        "f6: wall = {} (paper 384); ideal 5 TB load = {:.1} min (paper 3.4 min); external \
         ceiling {:.3} tasks/s vs target {:.3} (paper: slightly above); 5x contention drops \
         the ceiling below target: {}",
        model.parallelism_wall,
        wf.system_volumes[ids::EXTERNAL].get() / 25e9 / 60.0,
        ext.tps_at_one.get(),
        wf.targets.throughput.expect("target").get(),
        contended_model
            .ceilings
            .iter()
            .find(|c| c.resource.as_str() == ids::EXTERNAL)
            .expect("external ceiling")
            .tps_at_one
            .get()
            < wf.targets.throughput.expect("target").get()
    );
    Figure {
        id: "f6",
        files: vec![("fig6_lcls_pm.svg".into(), svg)],
        summary,
    }
}

fn f7(nodes: u64) -> Figure {
    let bgw = if nodes == 64 {
        Bgw::si998_64()
    } else {
        Bgw::si998_1024()
    };
    let run = simulate(&bgw.scenario()).expect("simulates");
    let model = RooflineModel::build(&machines::perlmutter_gpu(), &bgw.characterization(true))
        .expect("valid");
    let title = format!(
        "Fig. 7{} — BGW on PM-GPU ({nodes} nodes/task)",
        if nodes == 64 { 'a' } else { 'b' }
    );
    let svg = RooflinePlot::new(title)
        .model(&model)
        .render_svg()
        .expect("has model");
    let (id, paper_eff): (&'static str, f64) = if nodes == 64 {
        ("f7a", 0.42)
    } else {
        ("f7b", 0.30)
    };
    let summary = format!(
        "{id}: wall = {} (paper {}), measured {:.1} s vs simulated {:.1} s, efficiency \
         {:.0}% of node peak (paper ~{:.0}%), binding = {}",
        model.parallelism_wall,
        if nodes == 64 { 28 } else { 1 },
        bgw.makespan().get(),
        run.makespan,
        model.efficiency().unwrap_or(0.0) * 100.0,
        paper_eff * 100.0,
        model
            .binding_ceiling()
            .map(|c| c.resource.to_string())
            .unwrap_or_default()
    );
    Figure {
        id,
        files: vec![(
            format!(
                "fig7{}_bgw_{nodes}.svg",
                if nodes == 64 { 'a' } else { 'b' }
            ),
            svg,
        )],
        summary,
    }
}

fn f7c() -> Figure {
    let m = machines::perlmutter_gpu();
    let b64 = Bgw::si998_64();
    let b1024 = Bgw::si998_1024();
    let view64 = TaskView::build(&m, &b64.task_characterizations()).expect("valid");
    let view1024 = TaskView::build(&m, &b1024.task_characterizations()).expect("valid");

    let mut plot = RooflinePlot::new("Fig. 7c — BGW task view (E/S at 64 and 1024 nodes)")
        .model(&RooflineModel::build(&m, &b64.characterization(true)).expect("valid"))
        .targets(false);
    for (view, suffix) in [(&view64, "64"), (&view1024, "1024")] {
        for p in &view.points {
            plot = plot.dot(ExtraDot {
                label: format!(
                    "{} ({suffix} nodes, {:.0} s)",
                    p.name,
                    p.measured.expect("measured").get()
                ),
                x: 1.0,
                tps: TasksPerSec(p.tps.expect("measured").get()),
                color: String::new(),
                hollow: suffix == "1024",
                whisker: None,
            });
        }
    }
    let svg = plot.render_svg().expect("has model");
    let mut text = String::from("task,nodes,ceiling_time_s,measured_s,node_efficiency\n");
    for (view, nodes) in [(&view64, 64), (&view1024, 1024)] {
        for p in &view.points {
            text.push_str(&format!(
                "{},{nodes},{:.1},{:.1},{:.3}\n",
                p.name,
                p.ceiling_times[ids::COMPUTE].get(),
                p.measured.expect("measured").get(),
                p.node_efficiency.expect("measured"),
            ));
        }
    }
    let summary = format!(
        "f7c: dominant task = {} (paper: Sigma lowest dot); optimization candidate = {} \
         (paper: Epsilon farther from its ceiling); E/S efficiency at 1024 = {:.0}%/{:.0}% \
         (paper ~16%/36%)",
        view64.dominant_task().expect("measured").name,
        view1024
            .best_optimization_candidate()
            .expect("measured")
            .name,
        view1024.points[0].node_efficiency.expect("measured") * 100.0,
        view1024.points[1].node_efficiency.expect("measured") * 100.0,
    );
    Figure {
        id: "f7c",
        files: vec![
            ("fig7c_bgw_taskview.svg".into(), svg),
            ("fig7c_taskview.csv".into(), text),
        ],
        summary,
    }
}

fn f7d() -> Figure {
    let mut charts = Vec::new();
    for bgw in [Bgw::si998_64(), Bgw::si998_1024()] {
        let run = simulate(&bgw.scenario()).expect("BGW simulates");
        let mut dag = bgw.dag();
        dag.name = format!("BGW ({} nodes/task)", bgw.nodes);
        let intervals = run.task_intervals(&dag).expect("both BGW tasks ran");
        charts.push(GanttChart::build(&dag, &intervals).expect("valid"));
    }
    let refs: Vec<&GanttChart> = charts.iter().collect();
    let svg = gantt_plot::render_svg(&refs, 820.0);
    let summary = format!(
        "f7d: critical path covers {:.0}%/{:.0}% of the makespan at 64/1024 nodes \
         (paper: the critical path is unchanged across scales); makespans {:.0} s and {:.0} s",
        charts[0].critical_path_coverage() * 100.0,
        charts[1].critical_path_coverage() * 100.0,
        charts[0].makespan,
        charts[1].makespan
    );
    Figure {
        id: "f7d",
        files: vec![("fig7d_bgw_gantt.svg".into(), svg)],
        summary,
    }
}

fn f8() -> Figure {
    let cosmo12 = CosmoFlow::throughput_benchmark(12);
    let model = RooflineModel::build(&machines::perlmutter_gpu(), &cosmo12.characterization())
        .expect("valid");
    let mut plot = RooflinePlot::new("Fig. 8 — CosmoFlow throughput on PM-GPU").model(&model);
    // Measured series: 1..12 instances (simulated, 5 epochs each for
    // speed; throughput is epoch-time invariant).
    let mut series = String::from("instances,epochs_per_s\n");
    let mut rates = Vec::new();
    for n in 1..=12usize {
        let mut c = CosmoFlow::throughput_benchmark(n);
        c.epochs_per_instance = 5;
        let run = simulate(&c.scenario()).expect("simulates");
        let tps = c.total_epochs() / run.makespan;
        rates.push(tps);
        series.push_str(&format!("{n},{tps:.4}\n"));
        if n < 12 {
            plot = plot.dot(ExtraDot {
                label: format!("{n} instances"),
                x: n as f64,
                tps: TasksPerSec(tps),
                color: "#1565c0".into(),
                hollow: false,
                whisker: None,
            });
        }
    }
    let svg = plot.render_svg().expect("has model");
    let linearity = rates[11] / (12.0 * rates[0]);
    let summary = format!(
        "f8: PCIe ceiling {:.2} s, HBM ceiling {:.2} s per epoch (paper 0.8 s / 4.2 s); \
         wall 12 instances; throughput at 12 instances = {:.1}x single instance \
         (paper: linear; ours {:.0}% linear); binding node ceiling = {}",
        cosmo12.pcie_time().get(),
        cosmo12.hbm_time().get(),
        rates[11] / rates[0],
        linearity * 100.0,
        model.node_ceilings()[0].resource
    );
    Figure {
        id: "f8",
        files: vec![
            ("fig8_cosmoflow.svg".into(), svg),
            ("fig8_series.csv".into(), series),
        ],
        summary,
    }
}

fn f9() -> Figure {
    // Render 4-iteration skeletons of the two control flows.
    let g = GpTune {
        samples: 4,
        ..GpTune::default()
    };
    let m = machines::perlmutter_cpu();
    let mut files = Vec::new();
    for mode in [Mode::Rci, Mode::Spawn] {
        let dag = g.spec(mode).to_dag(&m).expect("valid spec");
        let svg = skeleton::render_svg(&dag, 860.0).expect("acyclic");
        files.push((
            format!("fig9_{}_skeleton.svg", mode.name().to_lowercase()),
            svg,
        ));
    }
    Figure {
        id: "f9",
        files,
        summary: "f9: GPTune RCI vs Spawn control-flow skeletons (serialized chains; RCI \
                  repeats bash+srun+metadata-I/O per iteration, Spawn keeps metadata in memory)"
            .into(),
    }
}

fn f10() -> Figure {
    let g = GpTune::default();
    let m = machines::perlmutter_cpu();
    let rci_run = simulate(&g.scenario(Mode::Rci)).expect("simulates");
    let spawn_run = simulate(&g.scenario(Mode::Spawn)).expect("simulates");

    let rci = g.characterization(Mode::Rci, Some(Seconds(rci_run.makespan)));
    let spawn = g.characterization(Mode::Spawn, Some(Seconds(spawn_run.makespan)));
    let projected = remove_overhead(&spawn, Seconds(g.python_per_iter.get() * g.samples as f64))
        .expect("python overhead < makespan");

    let rci_model = RooflineModel::build(&m, &rci).expect("valid");
    let spawn_model = RooflineModel::build(&m, &spawn).expect("valid");
    let svg_a = RooflinePlot::new("Fig. 10a — GPTune on PM-CPU (RCI vs Spawn vs projected)")
        .model(&rci_model)
        .model(&spawn_model)
        .dot(ExtraDot {
            label: "projected (no python)".into(),
            x: 1.0,
            tps: TasksPerSec(1.0 / projected.makespan.expect("set").get()),
            color: "#2e7d32".into(),
            hollow: true,
            whisker: None,
        })
        .render_svg()
        .expect("has model");

    let bars = vec![
        g.breakdown(Mode::Rci),
        g.breakdown(Mode::Spawn),
        g.breakdown(Mode::Projected),
    ];
    let svg_b = breakdown_plot::render_svg("Fig. 10b — GPTune time breakdown", &bars, 680.0, 440.0);

    let speedup = rci_run.makespan / spawn_run.makespan;
    let projection = spawn_run.makespan / projected.makespan.expect("set").get();
    let summary = format!(
        "f10: RCI {:.0} s (paper 553), Spawn {:.0} s (paper 228), speedup {:.1}x (paper \
         2.4x); projected python-free gain {:.1}x (paper ~12x); I/O time 30 s vs 0.02 s \
         while volumes differ only 45 vs 40 MB",
        rci_run.makespan, spawn_run.makespan, speedup, projection
    );
    Figure {
        id: "f10",
        files: vec![
            ("fig10a_gptune.svg".into(), svg_a),
            ("fig10b_gptune_breakdown.svg".into(), svg_b),
        ],
        summary,
    }
}

fn t1() -> Figure {
    let text = table1::render_table1();
    Figure {
        id: "t1",
        files: vec![("table1_sources.txt".into(), text.clone())],
        summary: format!("t1: characterization-source matrix\n{text}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_builds() {
        let figures = build_all();
        assert_eq!(figures.len(), ALL_IDS.len() + 2); // + f9, t1
        for f in &figures {
            assert!(!f.files.is_empty(), "{} has no files", f.id);
            assert!(!f.summary.is_empty());
            for (name, content) in &f.files {
                assert!(!content.is_empty(), "{name} empty");
                if name.ends_with(".svg") {
                    assert!(content.contains("<svg"), "{name} is not SVG");
                }
            }
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(build("f99").is_none());
    }

    #[test]
    fn f5a_headline_shape() {
        let f = build("f5a").unwrap();
        assert!(
            f.summary.contains("ratio 5.0x") || f.summary.contains("ratio 4.9x"),
            "{}",
            f.summary
        );
    }

    #[test]
    fn f10_headline_shape() {
        let f = build("f10").unwrap();
        assert!(f.summary.contains("speedup 2.4x"), "{}", f.summary);
    }
}
