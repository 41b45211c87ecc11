//! Property-based tests for the Workflow Roofline algebra.

use proptest::prelude::*;
use wrm_core::analysis::{classify_point, scale_intra_task_parallelism, Zone};
use wrm_core::{
    ids, machines, Bytes, Flops, RooflineModel, Seconds, TasksPerSec, Work,
    WorkflowCharacterization,
};

prop_compose! {
    /// A random but valid workflow characterization on PM-GPU resources.
    fn charz()(
        total in 1.0f64..64.0,
        parallel_frac in 0.01f64..1.0,
        nodes in 1u64..512,
        makespan in 1.0f64..1e6,
        flops in 1e9f64..1e19,
        hbm in 1e6f64..1e15,
        fs in 1e6f64..1e15,
        net in 1e6f64..1e15,
    ) -> WorkflowCharacterization {
        let total = total.round();
        // Keep the workflow's own parallelism inside the PM-GPU wall so
        // its operating point is attainable.
        let wall = (1792 / nodes).max(1) as f64;
        let parallel = (total * parallel_frac).max(1.0).round().min(wall).min(total);
        WorkflowCharacterization::builder("prop")
            .total_tasks(total)
            .parallel_tasks(parallel)
            .nodes_per_task(nodes)
            .makespan(Seconds(makespan))
            .node_volume(ids::COMPUTE, Work::Flops(Flops(flops)))
            .node_volume(ids::HBM, Work::Bytes(Bytes(hbm)))
            .system_volume(ids::FILE_SYSTEM, Bytes(fs))
            .system_volume(ids::NETWORK, Bytes(net))
            .build()
            .unwrap()
    }
}

proptest! {
    #[test]
    fn envelope_is_min_of_all_ceilings(wf in charz()) {
        let machine = machines::perlmutter_gpu();
        let model = RooflineModel::build(&machine, &wf).unwrap();
        let wall = model.parallelism_wall as f64;
        for frac in [0.1f64, 0.5, 1.0] {
            let x = (wall * frac).max(1e-3);
            let Some(env) = model.envelope_at(x) else { continue };
            for c in &model.ceilings {
                prop_assert!(env.get() <= c.tps_at(x).get() * (1.0 + 1e-12));
            }
            // The envelope is attained by some ceiling.
            let min = model
                .ceilings
                .iter()
                .map(|c| c.tps_at(x).get())
                .fold(f64::INFINITY, f64::min);
            prop_assert!((env.get() - min).abs() <= 1e-12 * min.max(1.0));
        }
    }

    #[test]
    fn envelope_is_monotone_in_x(wf in charz()) {
        let machine = machines::perlmutter_gpu();
        let model = RooflineModel::build(&machine, &wf).unwrap();
        let wall = model.parallelism_wall as f64;
        let mut prev = 0.0f64;
        for i in 1..=16 {
            let x = wall * i as f64 / 16.0;
            if x <= 0.0 { continue; }
            let env = model.envelope_at(x).unwrap().get();
            prop_assert!(env >= prev - 1e-12 * prev.max(1.0),
                "envelope decreased: {} -> {}", prev, env);
            prev = env;
        }
        // Beyond the wall the region is unattainable.
        prop_assert!(model.envelope_at(wall + 1.0).is_none());
    }

    #[test]
    fn more_volume_never_raises_a_ceiling(wf in charz(), factor in 1.0f64..100.0) {
        let machine = machines::perlmutter_gpu();
        let base = RooflineModel::build(&machine, &wf).unwrap();
        let mut heavier = wf.clone();
        for w in heavier.node_volumes.values_mut() {
            *w = w.scale(factor);
        }
        for b in heavier.system_volumes.values_mut() {
            *b = *b * factor;
        }
        let heavy = RooflineModel::build(&machine, &heavier).unwrap();
        let x = wf.parallel_tasks;
        let e0 = base.envelope_at(x).unwrap().get();
        let e1 = heavy.envelope_at(x).unwrap().get();
        prop_assert!(e1 <= e0 * (1.0 + 1e-12));
        // Exactly inversely proportional for a uniform scale.
        prop_assert!((e1 * factor - e0).abs() <= 1e-9 * e0.max(1.0));
    }

    #[test]
    fn faster_machine_never_lowers_the_envelope(wf in charz(), factor in 1.0f64..50.0) {
        let machine = machines::perlmutter_gpu();
        let mut fast = machine.clone();
        for id in [ids::COMPUTE, ids::HBM, ids::FILE_SYSTEM, ids::NETWORK] {
            fast = fast.with_scaled_resource(id, factor).unwrap();
        }
        let base = RooflineModel::build(&machine, &wf).unwrap();
        let quick = RooflineModel::build(&fast, &wf).unwrap();
        let x = wf.parallel_tasks;
        prop_assert!(
            quick.envelope_at(x).unwrap().get()
                >= base.envelope_at(x).unwrap().get() * (1.0 - 1e-12)
        );
    }

    #[test]
    fn dot_lies_on_its_own_makespan_isoline(wf in charz()) {
        let machine = machines::perlmutter_gpu();
        let model = RooflineModel::build(&machine, &wf).unwrap();
        let dot = model.dot.as_ref().unwrap();
        let iso = model
            .makespan_isoline_at(wf.makespan.unwrap(), dot.x)
            .get();
        prop_assert!((iso - dot.tps.get()).abs() <= 1e-12 * iso.max(1e-12));
    }

    #[test]
    fn intra_task_rebalance_conserves_throughput_upper_bounds(
        wf in charz(),
        k in 1.0f64..8.0,
    ) {
        let machine = machines::perlmutter_gpu();
        // Only test when the transform keeps a valid shape.
        let Ok(shifted) = scale_intra_task_parallelism(&wf, k, 1.0) else {
            return Ok(());
        };
        let Ok(m0) = RooflineModel::build(&machine, &wf) else { return Ok(()); };
        let Ok(m1) = RooflineModel::build(&machine, &shifted) else { return Ok(()); };
        // System ceilings are unmoved by the rebalance only when the
        // allocation (nodes in use) is unchanged; for per-node-scaled
        // resources the aggregate follows nodes_in_use, which the
        // transform approximately preserves (rounding aside).
        let f0 = m0
            .ceilings
            .iter()
            .find(|c| c.resource.as_str() == ids::FILE_SYSTEM)
            .unwrap()
            .tps_at_one
            .get();
        let f1 = m1
            .ceilings
            .iter()
            .find(|c| c.resource.as_str() == ids::FILE_SYSTEM)
            .unwrap()
            .tps_at_one
            .get();
        prop_assert!((f0 - f1).abs() <= 1e-9 * f0.max(1.0));
        // Per-slot node time scaled by 1/s = 1: ceiling value at the
        // workflow's own (new) x is unchanged up to rounding of
        // parallel_tasks clamping.
        prop_assert!(m1.parallelism_wall <= m0.parallelism_wall);
    }

    #[test]
    fn zone_classification_is_total_and_consistent(
        measured in 1.0f64..1e6,
        tps in 1e-9f64..1e3,
        t_makespan in proptest::option::of(1.0f64..1e6),
        t_tps in proptest::option::of(1e-9f64..1e3),
    ) {
        let report = classify_point(
            Seconds(measured),
            TasksPerSec(tps),
            t_makespan.map(Seconds),
            t_tps.map(TasksPerSec),
        );
        let good_m = t_makespan.is_none_or(|t| t >= measured);
        let good_t = t_tps.is_none_or(|t| tps >= t);
        let zone = match (good_m, good_t) {
            (true, true) => Zone::GoodMakespanGoodThroughput,
            (true, false) => Zone::GoodMakespanPoorThroughput,
            (false, true) => Zone::PoorMakespanGoodThroughput,
            (false, false) => Zone::PoorMakespanPoorThroughput,
        };
        prop_assert_eq!(report.zone, zone);
    }

    #[test]
    fn efficiency_is_at_most_one_for_feasible_dots(wf in charz()) {
        let machine = machines::perlmutter_gpu();
        let model = RooflineModel::build(&machine, &wf).unwrap();
        // Clamp the dot to the envelope by stretching the makespan, then
        // re-check: efficiency <= 1.
        let x = wf.parallel_tasks;
        let env = model.envelope_at(x).unwrap().get();
        let feasible_makespan = wf.total_tasks / env * 1.01;
        let feasible = WorkflowCharacterization {
            makespan: Some(Seconds(feasible_makespan.max(1e-9))),
            ..wf
        };
        let model = RooflineModel::build(&machine, &feasible).unwrap();
        let e = model.efficiency().unwrap();
        prop_assert!(e <= 1.0 + 1e-9, "efficiency {}", e);
        prop_assert!(e > 0.0);
    }
}
