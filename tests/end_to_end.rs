//! End-to-end integration tests spanning every crate: language ->
//! simulator -> trace -> characterization -> roofline -> analysis ->
//! rendering.

use workflow_roofline::core::analysis::{classify_bound, classify_zone, BoundKind, Zone};
use workflow_roofline::prelude::*;
use workflow_roofline::workflows::{Bgw, CosmoFlow, Day, GpTune, Lcls, Mode};

/// The full pipeline, starting from source text.
#[test]
fn language_to_figure_pipeline() {
    let source = r#"
workflow lcls on cori-hsw {
  targets { makespan 10min  throughput 6 per 600s }
  task analyze[5] {
    nodes 32
    system_bytes ext 1TB cap 1GB/s
    node_bytes dram 1024GB
    system_bytes bb 1GB
  }
  task merge { nodes 1 system_bytes bb 5GB after analyze }
}
"#;
    // Compile.
    let compiled = compile_source(source).expect("compiles");
    let machine = compiled.machine.clone().expect("names cori");

    // Simulate.
    let run = simulate(&Scenario::new(machine.clone(), compiled.spec.clone())).expect("simulates");
    assert!(
        (run.makespan - 1000.0).abs() < 25.0,
        "makespan {}",
        run.makespan
    );

    // Characterize from the *trace* (measurement path).
    let structure = Structure {
        targets: compiled.targets,
        ..Structure::new(
            compiled.total_tasks,
            compiled.parallel_tasks,
            compiled.nodes_per_task,
        )
    };
    let measured = characterize(&run.to_trace(), &structure).expect("characterizes");
    assert!((measured.system_volumes[ids::EXTERNAL].get() - 5e12).abs() < 1.0);

    // Model + classification.
    let model = RooflineModel::build(&machine, &measured).expect("builds");
    assert_eq!(model.parallelism_wall, 74);
    let bound = classify_bound(&model);
    assert_eq!(
        bound.bound,
        BoundKind::System {
            resource: ids::EXTERNAL.to_owned()
        }
    );
    let zone = classify_zone(&measured).expect("measured");
    assert_eq!(zone.zone, Zone::PoorMakespanPoorThroughput);

    // Advice names the system architect.
    let advice = advise(&model);
    assert!(advice.headline.contains("system-bound"));

    // Rendering works end to end.
    let svg = RooflinePlot::new("integration")
        .model(&model)
        .render_svg()
        .expect("renders");
    assert!(svg.contains("System parallelism @ 74 tasks"));
    let ascii = workflow_roofline::plot::ascii::roofline(&model, 72, 20);
    assert!(ascii.contains('O'));
}

/// Plan-time characterization (from the language) and measured
/// characterization (from the trace) agree on volumes.
#[test]
fn plan_and_trace_characterizations_agree() {
    let source = r#"
workflow pipeline on pm-gpu {
  task stage_a[4] { nodes 64 compute 10PFLOPS eff 0.5 system_bytes fs 1TB }
  task stage_b { nodes 16 node_bytes hbm 8TB after stage_a }
}
"#;
    let compiled = compile_source(source).expect("compiles");
    let machine = compiled.machine.clone().expect("names pm-gpu");
    let plan = compiled.characterization().expect("plan charz");

    let run = simulate(&Scenario::new(machine, compiled.spec.clone())).expect("simulates");
    let measured = characterize(
        &run.to_trace(),
        &Structure::new(
            compiled.total_tasks,
            compiled.parallel_tasks,
            compiled.nodes_per_task,
        ),
    )
    .expect("trace charz");

    let a = plan.system_volumes[ids::FILE_SYSTEM].get();
    let b = measured.system_volumes[ids::FILE_SYSTEM].get();
    assert!((a - b).abs() < 1.0, "fs: plan {a} vs measured {b}");
    let a = plan.node_volumes[ids::COMPUTE].magnitude();
    let b = measured.node_volumes[ids::COMPUTE].magnitude();
    assert!(
        (a - b).abs() / a < 1e-9,
        "compute: plan {a} vs measured {b}"
    );
    let a = plan.node_volumes[ids::HBM].magnitude();
    let b = measured.node_volumes[ids::HBM].magnitude();
    assert!((a - b).abs() / a < 1e-9, "hbm: plan {a} vs measured {b}");
}

/// The four case studies reproduce the paper's headline numbers
/// (the golden acceptance test of this reproduction).
#[test]
fn paper_headline_numbers() {
    // LCLS: good/bad day 17/85 min, external-bound, 5x contention.
    let lcls = Lcls::year_2020_on_cori();
    let cori = machines::cori_haswell();
    let good = simulate(&lcls.scenario(cori.clone(), Day::Good)).expect("simulates");
    let bad = simulate(&lcls.scenario(cori.clone(), Day::Bad)).expect("simulates");
    assert!((good.makespan - 1020.0).abs() < 25.0);
    assert!((bad.makespan / good.makespan - 5.0).abs() < 0.1);

    // BGW: 4184.86 s at 64 nodes (42% of peak), 404.74 s at 1024 (27-30%).
    for (bgw, eff_expect) in [(Bgw::si998_64(), 0.42), (Bgw::si998_1024(), 0.273)] {
        let run = simulate(&bgw.scenario()).expect("simulates");
        assert!((run.makespan - bgw.makespan().get()).abs() / run.makespan < 0.02);
        let model = RooflineModel::build(&machines::perlmutter_gpu(), &bgw.characterization(true))
            .expect("builds");
        assert!((model.efficiency().expect("dot") - eff_expect).abs() < 0.02);
    }

    // CosmoFlow: HBM ceiling 4.2 s, PCIe 0.8 s, linear to 12 instances.
    let cf = CosmoFlow::default();
    assert!((cf.hbm_time().get() - 4.2).abs() < 0.1);
    assert!((cf.pcie_time().get() - 0.8).abs() < 0.05);

    // GPTune: 553 vs 228 s, 2.4x; projection 12x.
    let g = GpTune::default();
    let rci = simulate(&g.scenario(Mode::Rci))
        .expect("simulates")
        .makespan;
    let spawn = simulate(&g.scenario(Mode::Spawn))
        .expect("simulates")
        .makespan;
    let proj = simulate(&g.scenario(Mode::Projected))
        .expect("simulates")
        .makespan;
    assert!((rci - 553.0).abs() < 5.0);
    assert!((spawn - 228.0).abs() < 5.0);
    assert!((rci / spawn - 2.4).abs() < 0.1);
    assert!((spawn / proj - 12.0).abs() < 0.5);
}

/// What-if transforms predict what the simulator then confirms:
/// doubling intra-task parallelism with perfect scaling keeps the
/// ensemble makespan while halving the wall.
#[test]
fn whatif_prediction_matches_simulation() {
    use workflow_roofline::core::analysis::scale_intra_task_parallelism;

    let build_spec = |nodes: u64, parallel: usize, flops: f64| {
        let mut wf = WorkflowSpec::new("ensemble");
        for i in 0..parallel {
            wf = wf.task(
                TaskSpec::new(format!("member{i}"), nodes).phase(Phase::Compute {
                    flops,
                    efficiency: 0.5,
                }),
            );
        }
        wf
    };
    let machine = machines::perlmutter_gpu();
    let base_run =
        simulate(&Scenario::new(machine.clone(), build_spec(64, 8, 1e18))).expect("simulates");
    // Double intra-task parallelism, halve the member count per wave:
    // simulate 4 members at 128 nodes each (same total work per slot x2
    // members -> one wave of 4, each member 2x faster, 2x fewer slots
    // but each slot now runs 2 members... the ensemble of 8 on 4 slots).
    let rebalanced_run = simulate(
        &Scenario::new(machine.clone(), {
            // 8 members at 128 nodes, but only 512 usable nodes -> 4 at a
            // time, two waves: same makespan as 8 parallel at 64 nodes
            // under perfect scaling.
            build_spec(128, 8, 1e18)
        })
        .with_options(SimOptions {
            node_limit: Some(512),
            ..SimOptions::default()
        }),
    )
    .expect("simulates");
    assert!(
        (rebalanced_run.makespan - base_run.makespan).abs() / base_run.makespan < 1e-6,
        "base {} vs rebalanced {}",
        base_run.makespan,
        rebalanced_run.makespan
    );

    // And the model-side transform predicts exactly that invariance.
    let wf = WorkflowCharacterization::builder("ensemble")
        .total_tasks(8.0)
        .parallel_tasks(8.0)
        .nodes_per_task(64)
        .makespan(Seconds(base_run.makespan))
        .node_volume(ids::COMPUTE, Work::Flops(Flops(1e18 / 64.0)))
        .build()
        .expect("valid");
    let shifted = scale_intra_task_parallelism(&wf, 2.0, 1.0).expect("valid");
    assert_eq!(shifted.makespan, wf.makespan);
    let m0 = RooflineModel::build(&machine, &wf).expect("builds");
    let m1 = RooflineModel::build(&machine, &shifted).expect("builds");
    assert_eq!(m0.parallelism_wall, 28);
    assert_eq!(m1.parallelism_wall, 14);
}

/// Traces survive the JSONL round trip through a file and still produce
/// the same characterization.
#[test]
fn trace_jsonl_file_round_trip() {
    let g = GpTune::default();
    let run = simulate(&g.scenario(Mode::Rci)).expect("simulates");
    let dir = std::env::temp_dir().join("wrm_it_trace");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("rci.jsonl");
    let trace = run.to_trace();
    std::fs::write(&path, trace.to_jsonl()).expect("write");
    let text = std::fs::read_to_string(&path).expect("read");
    let back = Trace::from_jsonl(&text).expect("parse");
    assert_eq!(back, trace);
    let a = characterize(&back, &Structure::serial(1)).expect("charz");
    let b = characterize(&trace, &Structure::serial(1)).expect("charz");
    assert_eq!(a, b);
    std::fs::remove_file(&path).ok();
}

/// Gantt charts drawn from a simulated run match the simulation's
/// makespan.
#[test]
fn gantt_from_simulation() {
    let bgw = Bgw::si998_64();
    let run = simulate(&bgw.scenario()).expect("simulates");
    let dag = bgw.dag();
    let intervals = run.task_intervals(&dag).expect("every task ran");
    let chart = GanttChart::build(&dag, &intervals).expect("builds");
    assert_eq!(chart.makespan, run.makespan);
    assert!((chart.critical_path_coverage() - 1.0).abs() < 1e-9);
    let svg = workflow_roofline::plot::gantt_plot::render_svg(&[&chart], 800.0);
    assert!(svg.contains("Sigma"));
}

/// The facade's prelude exposes a coherent API surface.
#[test]
fn prelude_compiles_a_full_session() {
    let wf = WorkflowCharacterization::builder("smoke")
        .total_tasks(4.0)
        .parallel_tasks(4.0)
        .nodes_per_task(8)
        .makespan(Seconds::minutes(1.0))
        .system_volume(ids::FILE_SYSTEM, Bytes::tb(1.0))
        .build()
        .expect("valid");
    let model = RooflineModel::build(&machines::perlmutter_gpu(), &wf).expect("builds");
    let advice = advise(&model);
    assert!(!advice.recommendations.is_empty());
}
