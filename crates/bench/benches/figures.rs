//! One criterion group per paper figure/table: each benchmark *is* the
//! regeneration harness. The measured quantity is the time to build the
//! figure's series end-to-end (simulate + characterize + model); the
//! headline numbers are printed once per group so `cargo bench` output
//! doubles as the paper-vs-model comparison record.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Once;
use wrm_core::{ids, machines, RooflineModel, Seconds, TaskView};
use wrm_dag::GanttChart;
use wrm_sim::simulate;
use wrm_workflows::{example, table1, Bgw, CosmoFlow, Day, GpTune, Lcls, Mode};

static HEADER: Once = Once::new();

fn banner() {
    HEADER.call_once(|| {
        println!("\n== Workflow Roofline reproduction: paper-vs-model headlines ==");
    });
}

fn f1_example(c: &mut Criterion) {
    banner();
    let model = RooflineModel::build(
        &machines::perlmutter_gpu(),
        &example::fig1_characterization(),
    )
    .unwrap();
    println!(
        "[F1] example model: wall {} (paper 28), {} ceilings",
        model.parallelism_wall,
        model.ceilings.len()
    );
    c.bench_function("figures/f1_example", |b| {
        b.iter(|| {
            let wf = example::fig1_characterization();
            black_box(RooflineModel::build(&machines::perlmutter_gpu(), &wf).unwrap())
        });
    });
}

fn f2_zones(c: &mut Criterion) {
    banner();
    let wf = wrm_core::WorkflowCharacterization::builder("ensemble")
        .total_tasks(8.0)
        .parallel_tasks(8.0)
        .nodes_per_task(64)
        .makespan(Seconds::secs(800.0))
        .node_volume(
            ids::COMPUTE,
            wrm_core::Work::Flops(wrm_core::Flops::pflops(20.0)),
        )
        .target_makespan(Seconds::secs(1000.0))
        .target_throughput(wrm_core::TasksPerSec(0.05))
        .build()
        .unwrap();
    let zone = wrm_core::analysis::classify_zone(&wf).unwrap();
    let shifted = wrm_core::analysis::scale_intra_task_parallelism(&wf, 2.0, 1.0).unwrap();
    let m = machines::perlmutter_gpu();
    let base = RooflineModel::build(&m, &wf).unwrap();
    let moved = RooflineModel::build(&m, &shifted).unwrap();
    println!(
        "[F2] zone {:?}; 2x intra-task: wall {} -> {} (2x), node ceiling {:.3e} -> {:.3e} (2x)",
        zone.zone,
        base.parallelism_wall,
        moved.parallelism_wall,
        base.node_ceilings()[0].tps_at(2.0).get(),
        moved.node_ceilings()[0].tps_at(2.0).get()
    );
    c.bench_function("figures/f2_zones_and_whatif", |b| {
        b.iter(|| {
            let z = wrm_core::analysis::classify_zone(black_box(&wf)).unwrap();
            let s = wrm_core::analysis::scale_intra_task_parallelism(&wf, 2.0, 1.0).unwrap();
            black_box((z, s))
        });
    });
}

fn f5_f6_lcls(c: &mut Criterion) {
    banner();
    let lcls = Lcls::year_2020_on_cori();
    let cori = machines::cori_haswell();
    let good = simulate(&lcls.scenario(cori.clone(), Day::Good)).unwrap();
    let bad = simulate(&lcls.scenario(cori.clone(), Day::Bad)).unwrap();
    println!(
        "[F5] LCLS Cori: good {:.0} s (paper 1020), bad {:.0} s (paper 5100), ratio {:.1}x \
         (paper 5x); loading dominates: {:.0}% of good-day time",
        good.makespan,
        bad.makespan,
        bad.makespan / good.makespan,
        good.trace.breakdown().get("io:ext") / good.trace.breakdown().total() * 100.0
    );
    let pm = Lcls::year_2024_on_pm();
    let wf = pm.characterization(ids::FILE_SYSTEM, None);
    let model = RooflineModel::build(&machines::perlmutter_cpu(), &wf).unwrap();
    let ext = model
        .ceilings
        .iter()
        .find(|x| x.resource.as_str() == ids::EXTERNAL)
        .unwrap();
    println!(
        "[F6] LCLS PM-CPU: wall {} (paper 384), external ceiling {:.3} vs target {:.3} tasks/s",
        model.parallelism_wall,
        ext.tps_at_one.get(),
        wf.targets.throughput.unwrap().get()
    );
    c.bench_function("figures/f5_lcls_good_and_bad_day", |b| {
        b.iter(|| {
            let g = simulate(&lcls.scenario(cori.clone(), Day::Good)).unwrap();
            let w = simulate(&lcls.scenario(cori.clone(), Day::Bad)).unwrap();
            black_box((g.makespan, w.makespan))
        });
    });
    c.bench_function("figures/f6_lcls_pm_model", |b| {
        b.iter(|| {
            let wf = pm.characterization(ids::FILE_SYSTEM, None);
            black_box(RooflineModel::build(&machines::perlmutter_cpu(), &wf).unwrap())
        });
    });
}

fn f7_bgw(c: &mut Criterion) {
    banner();
    for bgw in [Bgw::si998_64(), Bgw::si998_1024()] {
        let run = simulate(&bgw.scenario()).unwrap();
        let model =
            RooflineModel::build(&machines::perlmutter_gpu(), &bgw.characterization(true)).unwrap();
        println!(
            "[F7] BGW {} nodes: wall {}, simulated {:.1} s vs measured {:.1} s, \
             {:.0}% of node peak (paper {}%)",
            bgw.nodes,
            model.parallelism_wall,
            run.makespan,
            bgw.makespan().get(),
            model.efficiency().unwrap() * 100.0,
            if bgw.nodes == 64 { 42 } else { 30 }
        );
    }
    let view = TaskView::build(
        &machines::perlmutter_gpu(),
        &Bgw::si998_1024().task_characterizations(),
    )
    .unwrap();
    println!(
        "[F7c] dominant {}, candidate {}",
        view.dominant_task().unwrap().name,
        view.best_optimization_candidate().unwrap().name
    );
    let bgw = Bgw::si998_64();
    let dag = bgw.dag();
    let run = simulate(&bgw.scenario()).unwrap();
    let gantt = GanttChart::build(&dag, &run.task_intervals(&dag).unwrap()).unwrap();
    println!(
        "[F7d] critical-path coverage {:.0}% (paper: CP unchanged across scales)",
        gantt.critical_path_coverage() * 100.0
    );
    let bgw = Bgw::si998_64();
    c.bench_function("figures/f7_bgw_simulate", |b| {
        b.iter(|| black_box(simulate(&bgw.scenario()).unwrap().makespan));
    });
    c.bench_function("figures/f7_bgw_model", |b| {
        b.iter(|| {
            black_box(
                RooflineModel::build(&machines::perlmutter_gpu(), &bgw.characterization(true))
                    .unwrap(),
            )
        });
    });
}

fn f8_cosmoflow(c: &mut Criterion) {
    banner();
    let mut rates = Vec::new();
    for n in [1usize, 6, 12] {
        let mut cf = CosmoFlow::throughput_benchmark(n);
        cf.epochs_per_instance = 3;
        let run = simulate(&cf.scenario()).unwrap();
        rates.push((n, cf.total_epochs() / run.makespan));
    }
    let linearity = rates[2].1 / (12.0 * rates[0].1);
    println!(
        "[F8] CosmoFlow epochs/s at 1/6/12 instances: {:.3}/{:.3}/{:.3}; linearity {:.0}% \
         (paper: linear to the 12-instance wall, HBM binding)",
        rates[0].1,
        rates[1].1,
        rates[2].1,
        linearity * 100.0
    );
    let mut cf = CosmoFlow::throughput_benchmark(4);
    cf.epochs_per_instance = 3;
    c.bench_function("figures/f8_cosmoflow_4x3epochs", |b| {
        b.iter(|| black_box(simulate(&cf.scenario()).unwrap().makespan));
    });
}

fn f10_gptune(c: &mut Criterion) {
    banner();
    let g = GpTune::default();
    let rci = simulate(&g.scenario(Mode::Rci)).unwrap().makespan;
    let spawn = simulate(&g.scenario(Mode::Spawn)).unwrap().makespan;
    let projected = simulate(&g.scenario(Mode::Projected)).unwrap().makespan;
    println!(
        "[F10] GPTune: RCI {rci:.0} s (paper 553), Spawn {spawn:.0} s (paper 228), \
         speedup {:.1}x (paper 2.4x); projected {projected:.0} s = {:.1}x over Spawn \
         (paper ~12x)",
        rci / spawn,
        spawn / projected
    );
    println!("[T1]\n{}", table1::render_table1());
    c.bench_function("figures/f10_gptune_three_modes", |b| {
        b.iter(|| {
            let r = simulate(&g.scenario(Mode::Rci)).unwrap().makespan;
            let s = simulate(&g.scenario(Mode::Spawn)).unwrap().makespan;
            black_box((r, s))
        });
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = f1_example, f2_zones, f5_f6_lcls, f7_bgw, f8_cosmoflow, f10_gptune
}
criterion_main!(figures);
