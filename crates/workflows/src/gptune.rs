//! GPTune: the control-flow-bound autotuning workflow (paper §IV-C4,
//! Figs. 9–10).
//!
//! Forty serialized tuning iterations of SuperLU_DIST (4960x4960
//! matrix) on one PM-CPU node. Two control-flow modes:
//!
//! * **RCI** — bash drives every iteration: an `srun` launch, Python
//!   re-processing, and the metadata loaded from the file system each
//!   time (45 MB total, ~30 s of I/O): 553 s end-to-end.
//! * **Spawn** — one `srun`, iterations via `MPI_Comm_spawn`, metadata
//!   kept in memory (40 MB once, ~0.02 s): 228 s.
//!
//! Removing the per-iteration Python overhead projects a further ~12x
//! (the open dot of Fig. 10a). The two file-system ceilings nearly
//! coincide — I/O *pattern and concurrency*, not volume, make the
//! difference.

use serde::{Deserialize, Serialize};
use wrm_core::{ids, Bytes, Seconds, Work, WorkflowCharacterization};
use wrm_sim::{Phase, Scenario, TaskSpec, WorkflowSpec};
use wrm_trace::TimeBreakdown;

/// GPTune control-flow mode (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Bash-driven iterations with per-iteration srun + file-system
    /// metadata.
    Rci,
    /// MPI_Comm_spawn-driven iterations with in-memory metadata.
    Spawn,
    /// The paper's projection: Spawn with the Python overhead removed.
    Projected,
}

impl Mode {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Rci => "RCI",
            Mode::Spawn => "Spawn",
            Mode::Projected => "Projected",
        }
    }
}

/// GPTune model inputs (defaults = the appendix: 40 samples, one CPU
/// node, overheads calibrated to the paper's 553 s / 228 s / ~12x).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpTune {
    /// Tuning iterations (samples).
    pub samples: usize,
    /// Per-iteration Python library/model overhead (both modes).
    pub python_per_iter: Seconds,
    /// Per-iteration bash + srun overhead (RCI only).
    pub bash_per_iter: Seconds,
    /// One SuperLU_DIST run (small benchmark matrix).
    pub app_per_iter: Seconds,
    /// Per-iteration surrogate-model search time.
    pub model_per_iter: Seconds,
    /// Total metadata volume read from the file system in RCI mode.
    pub rci_metadata: Bytes,
    /// Metadata volume loaded once in Spawn mode.
    pub spawn_metadata: Bytes,
    /// Effective per-read metadata bandwidth in RCI (small, seeky reads).
    pub rci_metadata_rate: f64,
    /// Effective bandwidth of the single Spawn metadata load.
    pub spawn_metadata_rate: f64,
    /// DRAM bytes per CPU socket (the paper's measured 3344 MB).
    pub cpu_bytes_per_socket: Bytes,
}

impl Default for GpTune {
    fn default() -> Self {
        GpTune {
            samples: 40,
            python_per_iter: Seconds::secs(5.225),
            bash_per_iter: Seconds::secs(7.375),
            app_per_iter: Seconds::secs(0.35),
            model_per_iter: Seconds::secs(0.125),
            rci_metadata: Bytes::mb(45.0),
            spawn_metadata: Bytes::mb(40.0),
            rci_metadata_rate: 1.5e6,
            spawn_metadata_rate: 2e9,
            cpu_bytes_per_socket: Bytes::mb(3344.0),
        }
    }
}

impl GpTune {
    /// Expected end-to-end time of a mode (analytical; the simulator
    /// reproduces it).
    pub fn expected_makespan(&self, mode: Mode) -> Seconds {
        let n = self.samples as f64;
        let core = (self.app_per_iter + self.model_per_iter) * n;
        match mode {
            Mode::Rci => {
                let io = Seconds(self.rci_metadata.get() / self.rci_metadata_rate);
                core + (self.python_per_iter + self.bash_per_iter) * n + io
            }
            Mode::Spawn => {
                let io = Seconds(self.spawn_metadata.get() / self.spawn_metadata_rate);
                core + self.python_per_iter * n + io
            }
            Mode::Projected => core,
        }
    }

    /// The simulation spec for a mode: a serialized iteration chain.
    pub fn spec(&self, mode: Mode) -> WorkflowSpec {
        let mut wf = WorkflowSpec::new(format!("GPTune-{}", mode.name()));
        let mut prev: Option<String> = None;
        for i in 0..self.samples {
            let name = format!("iter[{i}]");
            let mut t = TaskSpec::new(name.clone(), 1);
            match mode {
                Mode::Rci => {
                    t = t
                        .phase(Phase::overhead("bash", self.bash_per_iter.get()))
                        .phase(Phase::overhead("python", self.python_per_iter.get()))
                        .phase(Phase::SystemData {
                            resource: ids::FILE_SYSTEM.into(),
                            bytes: self.rci_metadata.get() / self.samples as f64,
                            stream_cap: Some(self.rci_metadata_rate),
                        });
                }
                Mode::Spawn => {
                    t = t.phase(Phase::overhead("python", self.python_per_iter.get()));
                    if i == 0 {
                        t = t.phase(Phase::SystemData {
                            resource: ids::FILE_SYSTEM.into(),
                            bytes: self.spawn_metadata.get(),
                            stream_cap: Some(self.spawn_metadata_rate),
                        });
                    }
                }
                Mode::Projected => {}
            }
            t = t
                .phase(Phase::overhead("application", self.app_per_iter.get()))
                .phase(Phase::overhead("model_search", self.model_per_iter.get()));
            if let Some(p) = prev {
                t = t.after(p);
            }
            prev = Some(name);
            wf = wf.task(t);
        }
        wf
    }

    /// Ready-to-run scenario on PM-CPU.
    pub fn scenario(&self, mode: Mode) -> Scenario {
        Scenario::new(wrm_core::machines::perlmutter_cpu(), self.spec(mode))
    }

    /// The characterization of a mode (Fig. 10a): one serialized task,
    /// per-node DRAM volume of 2 sockets x 3344 MB, and the mode's
    /// metadata volume through the file system.
    pub fn characterization(
        &self,
        mode: Mode,
        makespan: Option<Seconds>,
    ) -> WorkflowCharacterization {
        let meta = match mode {
            Mode::Rci => self.rci_metadata,
            Mode::Spawn | Mode::Projected => self.spawn_metadata,
        };
        let mut b = WorkflowCharacterization::builder(format!("GPTune-{}", mode.name()))
            .total_tasks(1.0)
            .parallel_tasks(1.0)
            .nodes_per_task(1)
            .node_volume(ids::DRAM, Work::Bytes(self.cpu_bytes_per_socket * 2.0))
            .system_volume(ids::FILE_SYSTEM, meta);
        b = match makespan {
            Some(m) => b.makespan(m),
            None => b.makespan(self.expected_makespan(mode)),
        };
        b.build().expect("GPTune characterization is valid")
    }

    /// The Fig. 10b time breakdown of a mode (analytical).
    pub fn breakdown(&self, mode: Mode) -> TimeBreakdown {
        let n = self.samples as f64;
        let mut cats: Vec<(String, f64)> = Vec::new();
        if mode == Mode::Rci {
            cats.push(("bash".into(), self.bash_per_iter.get() * n));
        }
        if mode != Mode::Projected {
            cats.push(("python".into(), self.python_per_iter.get() * n));
        }
        let io = match mode {
            Mode::Rci => self.rci_metadata.get() / self.rci_metadata_rate,
            Mode::Spawn => self.spawn_metadata.get() / self.spawn_metadata_rate,
            Mode::Projected => 0.0,
        };
        cats.push(("load_data".into(), io));
        cats.push(("application".into(), self.app_per_iter.get() * n));
        cats.push(("model_and_search".into(), self.model_per_iter.get() * n));
        TimeBreakdown {
            label: mode.name().to_owned(),
            categories: cats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrm_core::{machines, RooflineModel};
    use wrm_sim::simulate;

    #[test]
    fn expected_makespans_match_paper() {
        let g = GpTune::default();
        assert!((g.expected_makespan(Mode::Rci).get() - 553.0).abs() < 1.0);
        assert!((g.expected_makespan(Mode::Spawn).get() - 228.0).abs() < 1.0);
        let speedup = g.expected_makespan(Mode::Rci).get() / g.expected_makespan(Mode::Spawn).get();
        assert!((speedup - 2.4).abs() < 0.05, "RCI->Spawn {speedup}");
        let proj =
            g.expected_makespan(Mode::Spawn).get() / g.expected_makespan(Mode::Projected).get();
        assert!((proj - 12.0).abs() < 0.2, "Spawn->Projected {proj}");
    }

    #[test]
    fn simulation_matches_expectation() {
        let g = GpTune::default();
        for mode in [Mode::Rci, Mode::Spawn, Mode::Projected] {
            let r = simulate(&g.scenario(mode)).unwrap();
            let expected = g.expected_makespan(mode).get();
            assert!(
                (r.makespan - expected).abs() / expected < 0.01,
                "{}: simulated {} expected {expected}",
                mode.name(),
                r.makespan
            );
        }
    }

    #[test]
    fn io_time_differs_400x_but_volumes_do_not() {
        // The paper's point: 45 MB vs 40 MB (nearly identical ceilings)
        // yet 30 s vs 0.02 s of I/O time.
        let g = GpTune::default();
        let rci_io = g.rci_metadata.get() / g.rci_metadata_rate;
        let spawn_io = g.spawn_metadata.get() / g.spawn_metadata_rate;
        assert!((rci_io - 30.0).abs() < 0.1);
        assert!((spawn_io - 0.02).abs() < 0.001);
        let c_rci = g.characterization(Mode::Rci, None);
        let c_spawn = g.characterization(Mode::Spawn, None);
        let v_rci = c_rci.system_volumes[ids::FILE_SYSTEM].get();
        let v_spawn = c_spawn.system_volumes[ids::FILE_SYSTEM].get();
        assert!(v_rci / v_spawn < 1.2);
    }

    #[test]
    fn spawn_dot_is_above_rci_dot() {
        let g = GpTune::default();
        let m = machines::perlmutter_cpu();
        let rci = RooflineModel::build(&m, &g.characterization(Mode::Rci, None)).unwrap();
        let spawn = RooflineModel::build(&m, &g.characterization(Mode::Spawn, None)).unwrap();
        let proj = RooflineModel::build(&m, &g.characterization(Mode::Projected, None)).unwrap();
        let y_rci = rci.dot.as_ref().unwrap().tps.get();
        let y_spawn = spawn.dot.as_ref().unwrap().tps.get();
        let y_proj = proj.dot.as_ref().unwrap().tps.get();
        assert!(y_spawn > y_rci);
        assert!(y_proj > y_spawn);
        assert!((y_spawn / y_rci - 2.4).abs() < 0.05);
        assert!((y_proj / y_spawn - 12.0).abs() < 0.3);
    }

    #[test]
    fn gptune_is_far_below_every_ceiling() {
        // Control-flow bound: the dot reaches <1% of the envelope.
        let g = GpTune::default();
        let model = RooflineModel::build(
            &machines::perlmutter_cpu(),
            &g.characterization(Mode::Rci, None),
        )
        .unwrap();
        assert!(model.efficiency().unwrap() < 0.01);
        // DRAM ceiling time: 6688 MB / 409.6 GB/s = 0.0163 s.
        let dram = model
            .ceilings
            .iter()
            .find(|c| c.resource.as_str() == ids::DRAM)
            .unwrap();
        assert!((dram.time.get() - 0.01633).abs() < 1e-4);
    }

    #[test]
    fn breakdown_totals_match_makespans() {
        let g = GpTune::default();
        for mode in [Mode::Rci, Mode::Spawn, Mode::Projected] {
            let b = g.breakdown(mode);
            assert!(
                (b.total() - g.expected_makespan(mode).get()).abs() < 1e-6,
                "{}",
                mode.name()
            );
        }
        // Bash+python dominate RCI (the paper's ~500 s observation).
        let b = g.breakdown(Mode::Rci);
        assert!(b.get("bash") + b.get("python") > 500.0);
    }

    #[test]
    fn simulated_breakdown_matches_analytical() {
        let g = GpTune::default();
        let r = simulate(&g.scenario(Mode::Rci)).unwrap();
        let sim_b = r.to_trace().breakdown();
        let ana_b = g.breakdown(Mode::Rci);
        assert!((sim_b.get("bash") - ana_b.get("bash")).abs() < 1e-6);
        assert!((sim_b.get("python") - ana_b.get("python")).abs() < 1e-6);
        assert!((sim_b.get("io:fs") - ana_b.get("load_data")).abs() < 0.01);
    }
}
