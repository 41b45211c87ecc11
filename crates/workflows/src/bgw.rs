//! BerkeleyGW (BGW): the traditional node-bound HPC workflow (paper
//! §IV-C2, Fig. 7).
//!
//! Two tasks — Epsilon then Sigma — run serially on the same allocation
//! (Si998 problem): 1164 + 3226 PFLOPs, 70 GB from the file system, and
//! a strong-scaling-constant ~171 TB of MPI traffic (256 batches). At 64
//! nodes/task the workflow reaches ~42 % of the node FLOPS ceiling with
//! a 28-task parallelism wall; at 1024 nodes the wall collapses to 1 and
//! efficiency drops to ~30 %.

use serde::{Deserialize, Serialize};
use wrm_core::{ids, Bytes, Flops, Seconds, TaskCharacterization, Work, WorkflowCharacterization};
use wrm_dag::Dag;
use wrm_sim::{Phase, Scenario, TaskSpec, WorkflowSpec};

/// BGW model inputs (defaults = the Si998 case from the appendix).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bgw {
    /// Nodes per task (64 or 1024 in the paper).
    pub nodes: u64,
    /// Epsilon's total FLOPs.
    pub flops_epsilon: Flops,
    /// Sigma's total FLOPs.
    pub flops_sigma: Flops,
    /// Bytes loaded from the file system (whole workflow).
    pub fs_bytes: Bytes,
    /// Total MPI volume (constant in strong scaling: 256 batches).
    pub network_bytes: Bytes,
    /// Measured wall-clock of Epsilon.
    pub measured_epsilon: Seconds,
    /// Measured wall-clock of Sigma.
    pub measured_sigma: Seconds,
}

impl Bgw {
    /// The 64-node configuration. The paper reports only the 4184.86 s
    /// total; the per-task split is synthetic but consistent with that
    /// total and with the per-task efficiencies at 1024 nodes.
    pub fn si998_64() -> Self {
        Bgw {
            nodes: 64,
            flops_epsilon: Flops::pflops(1164.0),
            flops_sigma: Flops::pflops(3226.0),
            fs_bytes: Bytes::gb(70.0),
            network_bytes: Bytes::gb(2676.0 * 64.0),
            measured_epsilon: Seconds::secs(1240.0),
            measured_sigma: Seconds::secs(2944.86),
        }
    }

    /// The 1024-node configuration (paper Fig. 7d: 180 s + 225 s).
    pub fn si998_1024() -> Self {
        Bgw {
            nodes: 1024,
            flops_epsilon: Flops::pflops(1164.0),
            flops_sigma: Flops::pflops(3226.0),
            fs_bytes: Bytes::gb(70.0),
            network_bytes: Bytes::gb(2676.0 * 64.0),
            measured_epsilon: Seconds::secs(180.0),
            measured_sigma: Seconds::secs(224.74),
        }
    }

    /// Measured end-to-end makespan (the tasks are serial).
    pub fn makespan(&self) -> Seconds {
        self.measured_epsilon + self.measured_sigma
    }

    /// Ideal compute time of one task on this allocation at the A100
    /// FP64 peak (4 x 9.7 TFLOPS per node).
    fn ideal_compute(&self, flops: Flops) -> Seconds {
        let node_peak = 4.0 * 9.7e12;
        Seconds(flops.get() / (node_peak * self.nodes as f64))
    }

    /// Compute efficiency of Epsilon (measured vs ideal).
    pub fn efficiency_epsilon(&self) -> f64 {
        self.ideal_compute(self.flops_epsilon).get() / self.measured_epsilon.get()
    }

    /// Compute efficiency of Sigma.
    pub fn efficiency_sigma(&self) -> f64 {
        self.ideal_compute(self.flops_sigma).get() / self.measured_sigma.get()
    }

    /// The two-task skeleton with measured durations.
    pub fn dag(&self) -> Dag {
        let mut d = Dag::new("BerkeleyGW");
        let e = d
            .add_task("Epsilon", self.nodes, self.measured_epsilon.get())
            .expect("valid task");
        let s = d
            .add_task("Sigma", self.nodes, self.measured_sigma.get())
            .expect("valid task");
        d.add_dep(e, s).expect("valid edge");
        d
    }

    /// Simulation spec: each task reads its inputs, computes at the
    /// efficiency implied by the measured times, and exchanges its share
    /// of the MPI volume (Epsilon ~27 %, Sigma ~73 %, proportional to
    /// FLOPs).
    pub fn spec(&self) -> WorkflowSpec {
        let total_flops = self.flops_epsilon.get() + self.flops_sigma.get();
        let net_e = self.network_bytes.get() * self.flops_epsilon.get() / total_flops;
        let net_s = self.network_bytes.get() * self.flops_sigma.get() / total_flops;
        // The compute phase absorbs the remaining measured time after
        // the network/FS phases (both tiny at these scales).
        WorkflowSpec::new("BerkeleyGW")
            .task(
                TaskSpec::new("Epsilon", self.nodes)
                    .phase(Phase::system_data(
                        ids::FILE_SYSTEM,
                        self.fs_bytes.get() * 0.3,
                    ))
                    .phase(Phase::Compute {
                        flops: self.flops_epsilon.get(),
                        efficiency: self.compute_efficiency(
                            self.flops_epsilon,
                            self.measured_epsilon,
                            net_e,
                        ),
                    })
                    .phase(Phase::system_data(ids::NETWORK, net_e)),
            )
            .task(
                TaskSpec::new("Sigma", self.nodes)
                    .phase(Phase::system_data(
                        ids::FILE_SYSTEM,
                        self.fs_bytes.get() * 0.7,
                    ))
                    .phase(Phase::Compute {
                        flops: self.flops_sigma.get(),
                        efficiency: self.compute_efficiency(
                            self.flops_sigma,
                            self.measured_sigma,
                            net_s,
                        ),
                    })
                    .phase(Phase::system_data(ids::NETWORK, net_s))
                    .after("Epsilon"),
            )
    }

    /// Efficiency that makes compute + network land on the measured time.
    fn compute_efficiency(&self, flops: Flops, measured: Seconds, net_bytes: f64) -> f64 {
        let net_time = net_bytes / (100e9 * self.nodes as f64);
        let compute_budget = (measured.get() - net_time).max(1e-6);
        (self.ideal_compute(flops).get() / compute_budget).clamp(1e-6, 1.0)
    }

    /// Ready-to-run scenario on PM-GPU.
    pub fn scenario(&self) -> Scenario {
        Scenario::new(wrm_core::machines::perlmutter_gpu(), self.spec())
    }

    /// The workflow characterization (Fig. 7a/7b inputs).
    pub fn characterization(&self, measured: bool) -> WorkflowCharacterization {
        let per_node =
            Flops((self.flops_epsilon.get() + self.flops_sigma.get()) / self.nodes as f64);
        let mut b = WorkflowCharacterization::builder("BerkeleyGW")
            .total_tasks(2.0)
            .parallel_tasks(1.0)
            .nodes_per_task(self.nodes)
            .node_volume(ids::COMPUTE, Work::Flops(per_node))
            .system_volume(ids::FILE_SYSTEM, self.fs_bytes)
            .system_volume(ids::NETWORK, self.network_bytes);
        if measured {
            b = b.makespan(self.makespan());
        }
        b.build().expect("BGW characterization is valid")
    }

    /// Per-task characterizations for the task view (Fig. 7c).
    pub fn task_characterizations(&self) -> Vec<TaskCharacterization> {
        vec![
            TaskCharacterization::new("Epsilon", self.nodes)
                .with_measured(self.measured_epsilon)
                .with_node_volume(
                    ids::COMPUTE,
                    Work::Flops(self.flops_epsilon / self.nodes as f64),
                ),
            TaskCharacterization::new("Sigma", self.nodes)
                .with_measured(self.measured_sigma)
                .with_node_volume(
                    ids::COMPUTE,
                    Work::Flops(self.flops_sigma / self.nodes as f64),
                ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrm_core::{machines, RooflineModel, TaskView};
    use wrm_sim::simulate;

    #[test]
    fn makespans_match_the_paper() {
        assert!((Bgw::si998_64().makespan().get() - 4184.86).abs() < 1e-9);
        assert!((Bgw::si998_1024().makespan().get() - 404.74).abs() < 1e-9);
    }

    #[test]
    fn efficiency_42_percent_at_64_nodes() {
        let model = RooflineModel::build(
            &machines::perlmutter_gpu(),
            &Bgw::si998_64().characterization(true),
        )
        .unwrap();
        let eff = model.efficiency().unwrap();
        assert!((eff - 0.42).abs() < 0.01, "eff {eff}");
        assert_eq!(model.parallelism_wall, 28);
        assert_eq!(
            model.binding_ceiling().unwrap().resource.as_str(),
            ids::COMPUTE
        );
    }

    #[test]
    fn efficiency_30_percent_at_1024_nodes_and_wall_1() {
        let model = RooflineModel::build(
            &machines::perlmutter_gpu(),
            &Bgw::si998_1024().characterization(true),
        )
        .unwrap();
        let eff = model.efficiency().unwrap();
        assert!((eff - 0.273).abs() < 0.02, "eff {eff}");
        assert_eq!(model.parallelism_wall, 1);
    }

    #[test]
    fn network_volume_is_scale_invariant() {
        // 64 x 2676 GB == 1024 x 168 GB within rounding (paper appendix).
        let b = Bgw::si998_64();
        let per_node_64 = b.network_bytes.get() / 64.0;
        let per_node_1024 = b.network_bytes.get() / 1024.0;
        assert!((per_node_64 - 2676e9).abs() < 1e6);
        assert!((per_node_1024 - 167.25e9).abs() < 1e9); // paper: 168 GB
    }

    #[test]
    fn simulation_reproduces_measured_makespans() {
        for cfg in [Bgw::si998_64(), Bgw::si998_1024()] {
            let r = simulate(&cfg.scenario()).unwrap();
            let expected = cfg.makespan().get();
            assert!(
                (r.makespan - expected).abs() / expected < 0.02,
                "nodes {}: simulated {} vs measured {expected}",
                cfg.nodes,
                r.makespan
            );
            assert!(r.task("Sigma").unwrap().time > r.task("Epsilon").unwrap().time);
        }
    }

    #[test]
    fn task_view_matches_fig7c() {
        let m = machines::perlmutter_gpu();
        let view = TaskView::build(&m, &Bgw::si998_1024().task_characterizations()).unwrap();
        // Sigma dominates the makespan; Epsilon has the most headroom.
        assert_eq!(view.dominant_task().unwrap().name, "Sigma");
        assert_eq!(view.best_optimization_candidate().unwrap().name, "Epsilon");
        // Ceiling times ~29 s and ~81 s.
        let eps = &view.points[0];
        let t = eps.ceiling_times.get(ids::COMPUTE).unwrap().get();
        assert!((t - 29.3).abs() < 0.5, "epsilon ceiling {t}");
    }

    #[test]
    fn implied_efficiencies_are_physical() {
        for cfg in [Bgw::si998_64(), Bgw::si998_1024()] {
            for e in [cfg.efficiency_epsilon(), cfg.efficiency_sigma()] {
                assert!(e > 0.0 && e < 1.0, "efficiency {e}");
            }
        }
        // At 1024 nodes Epsilon scales worse than Sigma (paper: 16% vs 36%).
        let b = Bgw::si998_1024();
        assert!(b.efficiency_epsilon() < b.efficiency_sigma());
        assert!((b.efficiency_epsilon() - 0.163).abs() < 0.01);
        assert!((b.efficiency_sigma() - 0.361).abs() < 0.01);
    }

    #[test]
    fn dag_structure() {
        let d = Bgw::si998_64().dag();
        assert_eq!(d.max_width().unwrap(), 1);
        assert_eq!(d.critical_path_length().unwrap(), 2);
        let serial: f64 = d.tasks().iter().map(|t| t.duration).sum();
        assert!((serial - 4184.86).abs() < 1e-9);
    }
}
