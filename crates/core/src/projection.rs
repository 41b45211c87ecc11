//! Cross-machine projection: the same workflow characterization placed
//! on several machines, plus inverse questions for system architects —
//! *what peak would resource X need for this workflow to meet its
//! target?* (the paper's conclusion: for an LCLS-like workflow, network
//! and storage QOS matter, a faster compute unit does not).

use crate::analysis::classify::{classify, BoundReport};
use crate::charz::WorkflowCharacterization;
use crate::error::CoreError;
use crate::machine::Machine;
use crate::roofline::{CeilingKind, RooflineModel};
use crate::units::{Seconds, TasksPerSec};
use serde::{Deserialize, Serialize};

/// The projection of one workflow onto one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineProjection {
    /// Machine name.
    pub machine: String,
    /// Parallelism wall for this workflow's nodes-per-task.
    pub parallelism_wall: u64,
    /// Attainable throughput at the workflow's own parallelism.
    pub envelope: TasksPerSec,
    /// Best-case makespan (`total_tasks / envelope`).
    pub makespan_lower_bound: Option<Seconds>,
    /// Binding resource id at the workflow's x.
    pub binding_resource: Option<String>,
    /// Bound classification.
    pub bound: BoundReport,
    /// Whether the throughput target (if declared) is attainable at all
    /// on this machine at this parallelism.
    pub target_attainable: Option<bool>,
}

/// Projects `workflow` onto each machine (leniently: volumes for
/// resources a machine lacks are ignored, so one characterization can be
/// compared across heterogeneous systems).
pub fn across_machines(
    workflow: &WorkflowCharacterization,
    machines: &[Machine],
) -> Result<Vec<MachineProjection>, CoreError> {
    let mut out = Vec::with_capacity(machines.len());
    for machine in machines {
        let model = RooflineModel::build_lenient(machine, workflow)?;
        let x = workflow.parallel_tasks;
        let envelope = model.envelope_at(x).unwrap_or(TasksPerSec(0.0));
        let target_attainable = workflow
            .targets
            .throughput
            .map(|t| envelope.get().is_finite() && envelope.get() >= t.get());
        out.push(MachineProjection {
            machine: machine.name.clone(),
            parallelism_wall: model.parallelism_wall,
            envelope,
            makespan_lower_bound: model.makespan_lower_bound(),
            binding_resource: model.binding_ceiling().map(|c| c.resource.to_string()),
            bound: classify(&model),
            target_attainable,
        });
    }
    Ok(out)
}

/// The peak (in the machine resource's native units per second) that
/// `resource` would need for the workflow's throughput target to become
/// attainable at its own parallelism, holding every other ceiling fixed.
///
/// Returns:
/// * `Ok(None)` when the target is already attainable or no throughput
///   target is declared;
/// * `Ok(Some(peak))` when raising `resource`'s peak to `peak` makes the
///   target attainable;
/// * `Err(CoreError::UnknownResource)` when the machine lacks the
///   resource;
/// * `Ok(Some(f64::INFINITY))` when no finite peak suffices (another
///   ceiling or the wall blocks the target) — the paper's "a faster
///   compute unit makes no difference" case.
pub fn required_peak(
    machine: &Machine,
    workflow: &WorkflowCharacterization,
    resource: &str,
) -> Result<Option<f64>, CoreError> {
    let Some(target) = workflow.targets.throughput else {
        return Ok(None);
    };
    let model = RooflineModel::build_lenient(machine, workflow)?;
    let x = workflow.parallel_tasks;
    if x > model.parallelism_wall as f64 {
        return Ok(Some(f64::INFINITY));
    }
    let envelope = model.envelope_at(x).unwrap_or(TasksPerSec(0.0));
    if envelope.get() >= target.get() {
        return Ok(None); // already attainable
    }

    // Find this resource's ceiling; if the workflow moves no volume on
    // it, scaling it cannot help.
    let Some(ceiling) = model
        .ceilings
        .iter()
        .find(|c| c.resource.as_str() == resource)
    else {
        // Distinguish "machine lacks it" from "workflow doesn't use it".
        if machine.node_resource(resource).is_none() && machine.system_resource(resource).is_none()
        {
            return Err(CoreError::UnknownResource(resource.to_owned()));
        }
        return Ok(Some(f64::INFINITY));
    };

    // Every *other* ceiling must already clear the target, else no
    // finite scaling of this one suffices.
    let other_min = model
        .ceilings
        .iter()
        .filter(|c| c.resource.as_str() != resource)
        .map(|c| c.tps_at(x).get())
        .fold(f64::INFINITY, f64::min);
    if other_min < target.get() {
        return Ok(Some(f64::INFINITY));
    }

    // The ceiling scales linearly with the resource peak.
    let current = ceiling.tps_at(x).get();
    let scale = target.get() / current;
    let current_peak = match ceiling.kind {
        CeilingKind::Node => machine
            .node_resource(resource)
            .expect("ceiling implies resource")
            .peak_per_node
            .magnitude(),
        CeilingKind::System => machine
            .system_resource(resource)
            .expect("ceiling implies resource")
            .peak
            .get(),
    };
    Ok(Some(current_peak * scale))
}

/// Renders a plain-text comparison table.
pub fn render_table(projections: &[MachineProjection]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:>6} {:>14} {:>16} {:>10} {:>8}\n",
        "machine", "wall", "envelope", "min makespan", "binding", "target"
    ));
    for p in projections {
        out.push_str(&format!(
            "{:<18} {:>6} {:>14.4e} {:>16} {:>10} {:>8}\n",
            p.machine,
            p.parallelism_wall,
            p.envelope.get(),
            p.makespan_lower_bound
                .map_or_else(|| "-".into(), |m| format!("{:.1} s", m.get())),
            p.binding_resource.as_deref().unwrap_or("-"),
            match p.target_attainable {
                Some(true) => "yes",
                Some(false) => "NO",
                None => "-",
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::classify::BoundKind;
    use crate::machines;
    use crate::resource::ids;
    use crate::units::{Bytes, Work};

    /// LCLS-like: 5 TB external, modest node traffic, 2020 target.
    fn lcls_like() -> WorkflowCharacterization {
        WorkflowCharacterization::builder("LCLS")
            .total_tasks(6.0)
            .parallel_tasks(5.0)
            .nodes_per_task(8)
            .makespan(Seconds::secs(1020.0))
            .node_volume(ids::DRAM, Work::Bytes(Bytes::gb(32.0)))
            .system_volume(ids::EXTERNAL, Bytes::tb(5.0))
            .target_throughput(TasksPerSec(6.0 / 600.0))
            .build()
            .unwrap()
    }

    #[test]
    fn projects_across_all_presets() {
        let wf = lcls_like();
        let projections = across_machines(&wf, &machines::all()).unwrap();
        assert_eq!(projections.len(), 3);
        // Every machine is external-bound for this workflow.
        for p in &projections {
            assert_eq!(p.binding_resource.as_deref(), Some(ids::EXTERNAL));
            assert!(matches!(p.bound.bound, BoundKind::System { .. }));
        }
        // PM's 25 GB/s DTN clears the target; Cori's 5 GB/s does not.
        let pm = projections
            .iter()
            .find(|p| p.machine.contains("CPU"))
            .unwrap();
        let cori = projections
            .iter()
            .find(|p| p.machine.contains("Cori"))
            .unwrap();
        assert_eq!(pm.target_attainable, Some(true));
        assert_eq!(cori.target_attainable, Some(false));
        // Table renders every machine row.
        let table = render_table(&projections);
        assert!(table.contains("Cori Haswell"));
        assert!(table.contains("NO"));
        assert!(table.contains("yes"));
    }

    #[test]
    fn required_external_peak_on_cori() {
        // Target 0.01 tasks/s; external ceiling is 6/(5TB/peak): the
        // target needs peak >= 0.01 * 5e12 / 6 = 8.33 GB/s.
        let wf = lcls_like();
        let cori = machines::cori_haswell();
        let needed = required_peak(&cori, &wf, ids::EXTERNAL).unwrap().unwrap();
        assert!((needed - 0.01 * 5e12 / 6.0).abs() < 1e-3, "needed {needed}");
        assert!(needed.is_finite());
        // And with that peak installed, the target becomes attainable.
        let upgraded = cori
            .with_scaled_resource(ids::EXTERNAL, needed / 5e9)
            .unwrap();
        let p = across_machines(&wf, &[upgraded]).unwrap();
        assert_eq!(p[0].target_attainable, Some(true));
    }

    #[test]
    fn faster_compute_never_suffices_for_external_bound() {
        // The paper's conclusion #1, as algebra: no finite compute peak
        // makes the LCLS target attainable on Cori.
        let mut wf = lcls_like();
        wf.node_volumes.insert(
            ids::COMPUTE.into(),
            Work::Flops(crate::units::Flops::pflops(1.0)),
        );
        let cori = machines::cori_haswell();
        let needed = required_peak(&cori, &wf, ids::COMPUTE).unwrap().unwrap();
        assert!(needed.is_infinite());
    }

    #[test]
    fn already_attainable_returns_none() {
        let wf = lcls_like();
        let pm = machines::perlmutter_cpu();
        assert_eq!(required_peak(&pm, &wf, ids::EXTERNAL).unwrap(), None);
        // No target declared -> None as well.
        let mut untargeted = wf.clone();
        untargeted.targets.throughput = None;
        assert_eq!(
            required_peak(&machines::cori_haswell(), &untargeted, ids::EXTERNAL).unwrap(),
            None
        );
    }

    #[test]
    fn unknown_and_unused_resources() {
        let wf = lcls_like();
        let cori = machines::cori_haswell();
        assert!(matches!(
            required_peak(&cori, &wf, "quantum-link"),
            Err(CoreError::UnknownResource(_))
        ));
        // Cori defines compute but this workflow moves no FLOPs: scaling
        // it cannot help.
        let needed = required_peak(&cori, &wf, ids::COMPUTE).unwrap().unwrap();
        assert!(needed.is_infinite());
    }

    #[test]
    fn beyond_wall_is_unattainable_everywhere() {
        let wf = WorkflowCharacterization::builder("wide")
            .total_tasks(100.0)
            .parallel_tasks(100.0)
            .nodes_per_task(64)
            .system_volume(ids::EXTERNAL, Bytes::tb(1.0))
            .target_throughput(TasksPerSec(1.0))
            .build()
            .unwrap();
        // 100 parallel 64-node tasks exceed Cori's wall (2388/64 = 37).
        let needed = required_peak(&machines::cori_haswell(), &wf, ids::EXTERNAL)
            .unwrap()
            .unwrap();
        assert!(needed.is_infinite());
        let p = across_machines(&wf, &[machines::cori_haswell()]).unwrap();
        assert_eq!(p[0].envelope.get(), 0.0);
    }
}
