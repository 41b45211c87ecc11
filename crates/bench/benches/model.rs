//! Model-side benchmarks: roofline construction and evaluation
//! throughput, envelope sweeps and the bottleneck advisor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use wrm_core::{
    ids, machines, Bytes, Flops, RooflineModel, Seconds, Work, WorkflowCharacterization,
};

fn characterization(n_resources: usize) -> WorkflowCharacterization {
    let mut b = WorkflowCharacterization::builder("bench")
        .total_tasks(16.0)
        .parallel_tasks(8.0)
        .nodes_per_task(64)
        .makespan(Seconds::secs(1000.0))
        .node_volume(ids::COMPUTE, Work::Flops(Flops::pflops(10.0)));
    let all = [ids::HBM, ids::PCIE];
    for r in all.iter().take(n_resources.min(all.len())) {
        b = b.node_volume(*r, Work::Bytes(Bytes::tb(1.0)));
    }
    b = b.system_volume(ids::FILE_SYSTEM, Bytes::tb(10.0));
    b = b.system_volume(ids::NETWORK, Bytes::tb(50.0));
    b.build().expect("valid")
}

fn model_build(c: &mut Criterion) {
    let machine = machines::perlmutter_gpu();
    let mut group = c.benchmark_group("model/build");
    for n in [0usize, 1, 2] {
        let wf = characterization(n);
        group.bench_with_input(BenchmarkId::from_parameter(3 + n), &wf, |b, wf| {
            b.iter(|| black_box(RooflineModel::build(&machine, wf).unwrap()));
        });
    }
    group.finish();
}

fn envelope_sweep(c: &mut Criterion) {
    let machine = machines::perlmutter_gpu();
    let model = RooflineModel::build(&machine, &characterization(2)).unwrap();
    let mut group = c.benchmark_group("model/envelope_sweep");
    for points in [64usize, 1024] {
        group.throughput(Throughput::Elements(points as u64));
        group.bench_with_input(BenchmarkId::from_parameter(points), &points, |b, &n| {
            b.iter(|| {
                let mut acc = 0.0;
                for i in 0..n {
                    let x = 1.0 + (i as f64) * 27.0 / n as f64;
                    if let Some(env) = model.envelope_at(x) {
                        acc += env.get();
                    }
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

fn advisor(c: &mut Criterion) {
    let machine = machines::perlmutter_gpu();
    let model = RooflineModel::build(&machine, &characterization(2)).unwrap();
    c.bench_function("model/advise", |b| {
        b.iter(|| black_box(wrm_core::analysis::advise(&model)));
    });
}

criterion_group! {
    name = model;
    config = Criterion::default().sample_size(10);
    targets = model_build, envelope_sweep, advisor
}
criterion_main!(model);
