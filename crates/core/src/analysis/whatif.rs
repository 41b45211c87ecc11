//! What-if transforms (Fig. 2b/2c): how the roofline moves when the
//! workflow trades intra-task parallelism against task parallelism or
//! removes overhead.

use crate::charz::WorkflowCharacterization;
use crate::error::CoreError;
use crate::units::Seconds;

/// Shifts work from task parallelism to intra-task parallelism
/// (Fig. 2c): each task uses `k`x the nodes, and the number of parallel
/// tasks shrinks `k`x (clamped at one task).
///
/// `scalability` in `(0, 1]` models imperfect strong scaling: 1.0 means a
/// task on `k`x nodes runs exactly `k`x faster; 0.8 means it reaches 80%
/// of that. With perfect scalability the node ceilings (at fixed x) rise
/// by `k`x and the parallelism wall moves left by `k`x, exactly the
/// dotted-circle construction in the paper. Imperfect scalability lowers
/// the ceiling-wall intercept, making throughput targets harder to hit.
///
/// The measured makespan, if any, is re-predicted as `makespan /
/// scalability` (a slot now retires `k`x the tasks, each `k*s`x faster).
pub fn scale_intra_task_parallelism(
    wf: &WorkflowCharacterization,
    k: f64,
    scalability: f64,
) -> Result<WorkflowCharacterization, CoreError> {
    if !(k.is_finite() && k > 0.0) {
        return Err(CoreError::InvalidInput(format!(
            "intra-task scaling factor must be positive, got {k}"
        )));
    }
    if !(scalability.is_finite() && scalability > 0.0 && scalability <= 1.0) {
        return Err(CoreError::InvalidInput(format!(
            "scalability must be in (0, 1], got {scalability}"
        )));
    }
    let mut out = wf.clone();
    let new_nodes = (wf.nodes_per_task as f64 * k).round();
    if new_nodes < 1.0 {
        return Err(CoreError::InvalidInput(format!(
            "scaling {k}x leaves a task with no nodes"
        )));
    }
    out.nodes_per_task = new_nodes as u64;
    out.parallel_tasks = (wf.parallel_tasks / k).max(1.0).min(wf.total_tasks);
    // Per-slot per-node volume: kappa' * v_task / (k * s) = kappa * v / s.
    for work in out.node_volumes.values_mut() {
        *work = work.scale(1.0 / scalability);
    }
    if let Some(m) = wf.makespan {
        out.makespan = Some(Seconds(m.get() / scalability));
    }
    out.validate()?;
    Ok(out)
}

/// Removes a fixed overhead from the measured makespan (the GPTune
/// projection of Fig. 10a: "reduce the Python overhead"). Fails when the
/// overhead is not smaller than the makespan.
pub fn remove_overhead(
    wf: &WorkflowCharacterization,
    overhead: Seconds,
) -> Result<WorkflowCharacterization, CoreError> {
    let m = wf
        .makespan
        .ok_or_else(|| CoreError::MissingMakespan(wf.name.clone()))?;
    if !(overhead.get() >= 0.0 && overhead.get() < m.get()) {
        return Err(CoreError::InvalidInput(format!(
            "overhead {overhead} must be non-negative and below the makespan {m}"
        )));
    }
    let mut out = wf.clone();
    out.makespan = Some(m - overhead);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;
    use crate::resource::ids;
    use crate::roofline::RooflineModel;
    use crate::units::{Bytes, Flops, Work};

    fn base() -> WorkflowCharacterization {
        WorkflowCharacterization::builder("w")
            .total_tasks(8.0)
            .parallel_tasks(8.0)
            .nodes_per_task(64)
            .makespan(Seconds::secs(1000.0))
            .node_volume(ids::COMPUTE, Work::Flops(Flops::pflops(10.0)))
            .system_volume(ids::FILE_SYSTEM, Bytes::tb(1.0))
            .build()
            .unwrap()
    }

    #[test]
    fn fig2c_perfect_scaling_moves_wall_and_ceiling_2x() {
        let m = machines::perlmutter_gpu();
        let before = RooflineModel::build(&m, &base()).unwrap();
        let after_wf = scale_intra_task_parallelism(&base(), 2.0, 1.0).unwrap();
        let after = RooflineModel::build(&m, &after_wf).unwrap();

        // Wall moves left by 2x: 28 -> 14.
        assert_eq!(before.parallelism_wall, 28);
        assert_eq!(after.parallelism_wall, 14);

        // Node ceiling at any fixed x rises 2x.
        let cb = before
            .ceilings
            .iter()
            .find(|c| c.resource.as_str() == ids::COMPUTE)
            .unwrap();
        let ca = after
            .ceilings
            .iter()
            .find(|c| c.resource.as_str() == ids::COMPUTE)
            .unwrap();
        let ratio = ca.tps_at(4.0).get() / cb.tps_at(4.0).get();
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");

        // Parallel tasks halve; total tasks and makespan are unchanged.
        assert!((after_wf.parallel_tasks - 4.0).abs() < 1e-12);
        assert!((after_wf.total_tasks - 8.0).abs() < 1e-12);
        assert_eq!(after_wf.makespan.unwrap(), Seconds::secs(1000.0));
    }

    #[test]
    fn imperfect_scaling_lowers_the_wall_intercept() {
        let m = machines::perlmutter_gpu();
        let perfect = scale_intra_task_parallelism(&base(), 2.0, 1.0).unwrap();
        let imperfect = scale_intra_task_parallelism(&base(), 2.0, 0.7).unwrap();
        let mp = RooflineModel::build(&m, &perfect).unwrap();
        let mi = RooflineModel::build(&m, &imperfect).unwrap();
        let wall = mp.parallelism_wall as f64;
        assert_eq!(mp.parallelism_wall, mi.parallelism_wall);
        let yp = mp
            .ceilings
            .iter()
            .find(|c| c.resource.as_str() == ids::COMPUTE)
            .unwrap()
            .tps_at(wall)
            .get();
        let yi = mi
            .ceilings
            .iter()
            .find(|c| c.resource.as_str() == ids::COMPUTE)
            .unwrap()
            .tps_at(wall)
            .get();
        assert!((yi / yp - 0.7).abs() < 1e-9);
        // Predicted makespan degrades by 1/s.
        assert!((imperfect.makespan.unwrap().get() - 1000.0 / 0.7).abs() < 1e-9);
    }

    #[test]
    fn system_ceilings_are_unmoved_by_intra_task_scaling() {
        let m = machines::perlmutter_gpu();
        let before = RooflineModel::build(&m, &base()).unwrap();
        let after = RooflineModel::build(
            &m,
            &scale_intra_task_parallelism(&base(), 2.0, 1.0).unwrap(),
        )
        .unwrap();
        let fb = before
            .ceilings
            .iter()
            .find(|c| c.resource.as_str() == ids::FILE_SYSTEM)
            .unwrap();
        let fa = after
            .ceilings
            .iter()
            .find(|c| c.resource.as_str() == ids::FILE_SYSTEM)
            .unwrap();
        assert!((fa.tps_at_one.get() - fb.tps_at_one.get()).abs() < 1e-15);
    }

    #[test]
    fn remove_overhead_projects_gptune() {
        // Spawn mode 228 s; removing ~209 s of Python overhead leaves
        // ~19 s, the paper's ~12x projection.
        let wf = WorkflowCharacterization::builder("gptune")
            .makespan(Seconds::secs(228.0))
            .build()
            .unwrap();
        let projected = remove_overhead(&wf, Seconds::secs(209.0)).unwrap();
        let speedup = 228.0 / projected.makespan.unwrap().get();
        assert!((speedup - 12.0).abs() < 0.1, "speedup {speedup}");
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(scale_intra_task_parallelism(&base(), 0.0, 1.0).is_err());
        assert!(scale_intra_task_parallelism(&base(), 2.0, 0.0).is_err());
        assert!(scale_intra_task_parallelism(&base(), 2.0, 1.5).is_err());
        assert!(scale_intra_task_parallelism(&base(), f64::NAN, 1.0).is_err());
        assert!(remove_overhead(&base(), Seconds::secs(2000.0)).is_err());
        assert!(remove_overhead(&base(), Seconds(-1.0)).is_err());
        let no_makespan = WorkflowCharacterization::builder("x").build().unwrap();
        assert!(remove_overhead(&no_makespan, Seconds::secs(1.0)).is_err());
    }

    #[test]
    fn parallel_tasks_clamped_at_one() {
        let wf = scale_intra_task_parallelism(&base(), 16.0, 1.0).unwrap();
        assert!((wf.parallel_tasks - 1.0).abs() < 1e-12);
        assert_eq!(wf.nodes_per_task, 1024);
    }
}
