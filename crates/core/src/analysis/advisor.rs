//! Optimization guidance (Section III-C and the paper's conclusion):
//! turns a roofline into concrete, audience-tagged recommendations.

use crate::analysis::classify::{self, BoundKind};
use crate::analysis::zones::{self, Zone};
use crate::roofline::RooflineModel;
use serde::{Deserialize, Serialize};

/// Who should act on a recommendation (the conclusion addresses three
/// audiences).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Audience {
    /// Facility / system architects (QOS, storage, network provisioning).
    SystemArchitect,
    /// The people writing the workflow's code and glue.
    WorkflowDeveloper,
    /// The people scheduling and running the workflow.
    WorkflowUser,
}

/// The direction an optimization moves the dot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Move up: shorter makespan at the same parallelism.
    ReduceMakespan,
    /// Move up-right: more parallel tasks.
    IncreaseTaskParallelism,
    /// Raise the node ceiling: better per-node efficiency.
    ImproveNodeEfficiency,
    /// Raise a system ceiling: bandwidth, QOS, or contention relief.
    ImproveSystemBandwidth,
    /// Remove fixed control-flow overhead (bash/python/srun).
    ReduceControlFlowOverhead,
    /// Trade task parallelism for intra-task parallelism (or back).
    RebalanceIntraTaskParallelism,
}

/// One actionable recommendation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Who should act.
    pub audience: Audience,
    /// Which way the dot (or a ceiling) moves.
    pub direction: Direction,
    /// Upper bound on the speedup this direction can deliver, when the
    /// model can bound it (e.g. the gap to the binding ceiling).
    pub max_gain: Option<f64>,
    /// Human-readable rationale referencing the model's evidence.
    pub rationale: String,
}

/// The full advisory report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Advice {
    /// One-line summary of the dominant constraint.
    pub headline: String,
    /// Ranked recommendations (largest bounded gain first, unbounded last).
    pub recommendations: Vec<Recommendation>,
}

/// Fraction of the envelope below which we suspect time is lost to
/// control flow rather than the modelled resources (the GPTune pattern:
/// the dot sits far under *every* ceiling).
const OVERHEAD_SUSPECT_EFFICIENCY: f64 = 0.25;

/// Derives optimization advice from a built model. Works without a
/// measured dot (plan-time advice), but gives sharper bounds with one.
pub fn advise(model: &RooflineModel) -> Advice {
    let report = classify::classify(model);
    let mut recs: Vec<Recommendation> = Vec::new();
    let x = model.workflow.parallel_tasks;
    let wall = model.parallelism_wall as f64;
    let efficiency = report.efficiency;

    match &report.bound {
        BoundKind::System { resource } => {
            let gain_to_env = efficiency.map(|e| 1.0 / e);
            recs.push(Recommendation {
                audience: Audience::SystemArchitect,
                direction: Direction::ImproveSystemBandwidth,
                max_gain: None,
                rationale: format!(
                    "the shared resource `{resource}` sets the lowest ceiling at x = {x}; \
                     a faster compute unit makes no difference while this binds -- invest \
                     in bandwidth and end-to-end QOS for `{resource}`"
                ),
            });
            if let Some(g) = gain_to_env {
                if g > 1.05 {
                    recs.push(Recommendation {
                        audience: Audience::WorkflowDeveloper,
                        direction: Direction::ReduceMakespan,
                        max_gain: Some(g),
                        rationale: format!(
                            "the dot sits at {:.0}% of the `{resource}` ceiling; up to \
                             {g:.1}x remains before the shared resource saturates",
                            efficiency.unwrap_or(0.0) * 100.0
                        ),
                    });
                }
            }
        }
        BoundKind::Node { resource } => {
            if let Some(e) = efficiency {
                if e < 1.0 {
                    recs.push(Recommendation {
                        audience: Audience::WorkflowDeveloper,
                        direction: Direction::ImproveNodeEfficiency,
                        max_gain: Some(1.0 / e),
                        rationale: format!(
                            "node resource `{resource}` binds and the workflow achieves \
                             {:.0}% of that ceiling; classic node-level Roofline analysis \
                             is the next step",
                            e * 100.0
                        ),
                    });
                }
            } else {
                recs.push(Recommendation {
                    audience: Audience::WorkflowDeveloper,
                    direction: Direction::ImproveNodeEfficiency,
                    max_gain: None,
                    rationale: format!(
                        "node resource `{resource}` sets the lowest ceiling; node-local \
                         optimization raises attainable throughput directly"
                    ),
                });
            }
            if x < wall {
                recs.push(Recommendation {
                    audience: Audience::WorkflowUser,
                    direction: Direction::IncreaseTaskParallelism,
                    max_gain: Some(wall / x),
                    rationale: format!(
                        "node-bound throughput scales with parallel tasks: the wall allows \
                         {wall:.0} tasks vs {x:.0} used ({:.1}x headroom)",
                        wall / x
                    ),
                });
            }
        }
        BoundKind::Parallelism => {
            recs.push(Recommendation {
                audience: Audience::WorkflowUser,
                direction: Direction::RebalanceIntraTaskParallelism,
                max_gain: None,
                rationale: format!(
                    "the workflow already runs at the parallelism wall ({wall:.0} tasks); \
                     shrinking nodes-per-task moves the wall right (more throughput), while \
                     growing it shortens makespan if tasks scale -- urgent single results \
                     favour large allocations, batches favour small ones"
                ),
            });
        }
        BoundKind::Unbounded => {
            recs.push(Recommendation {
                audience: Audience::WorkflowDeveloper,
                direction: Direction::ReduceControlFlowOverhead,
                max_gain: None,
                rationale: "no resource volumes are recorded, so nothing in the model bounds \
                            throughput; profile the workflow to attribute its time"
                    .to_owned(),
            });
        }
    }

    // The GPTune pattern: far below every ceiling means the modelled
    // resources do not explain the makespan -- control flow does.
    if let Some(e) = efficiency {
        if e < OVERHEAD_SUSPECT_EFFICIENCY && !matches!(report.bound, BoundKind::Unbounded) {
            recs.push(Recommendation {
                audience: Audience::WorkflowDeveloper,
                direction: Direction::ReduceControlFlowOverhead,
                max_gain: Some(1.0 / e),
                rationale: format!(
                    "the dot reaches only {:.0}% of the envelope, so most time is spent \
                     outside the modelled resources (interpreter start-up, job launch, \
                     metadata I/O); containers or in-memory control flow (MPI_Comm_spawn \
                     instead of per-iteration srun) remove such overhead",
                    e * 100.0
                ),
            });
        }
    }

    // Target-zone guidance (Fig. 2b).
    if let Ok(zr) = zones::classify(&model.workflow) {
        match zr.zone {
            Zone::GoodMakespanPoorThroughput => recs.push(Recommendation {
                audience: Audience::WorkflowUser,
                direction: Direction::IncreaseTaskParallelism,
                max_gain: zr.throughput_margin.map(|m| 1.0 / m),
                rationale: "the deadline is met but the rate target is not: either keep \
                            shortening the makespan or add parallel tasks (Fig. 2b \
                            directions 1 and 2)"
                    .to_owned(),
            }),
            Zone::PoorMakespanGoodThroughput => recs.push(Recommendation {
                audience: Audience::WorkflowUser,
                direction: Direction::RebalanceIntraTaskParallelism,
                max_gain: zr.makespan_margin.map(|m| 1.0 / m),
                rationale: "the rate target is met but the deadline is not: shift toward \
                            intra-task parallelism (larger allocations per task) to \
                            shorten the makespan, accepting a lower wall"
                    .to_owned(),
            }),
            _ => {}
        }
    }

    recs.sort_by(|a, b| match (a.max_gain, b.max_gain) {
        (Some(x), Some(y)) => y.partial_cmp(&x).expect("gains are finite"),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => std::cmp::Ordering::Equal,
    });

    let headline = match &report.bound {
        BoundKind::System { resource } => {
            format!("{}: system-bound on `{resource}`", model.workflow.name)
        }
        BoundKind::Node { resource } => {
            format!("{}: node-bound on `{resource}`", model.workflow.name)
        }
        BoundKind::Parallelism => format!(
            "{}: parallelism-bound at the {}-task wall",
            model.workflow.name, model.parallelism_wall
        ),
        BoundKind::Unbounded => format!("{}: unconstrained model", model.workflow.name),
    };

    Advice {
        headline,
        recommendations: recs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charz::WorkflowCharacterization;
    use crate::machines;
    use crate::resource::ids;
    use crate::units::{Bytes, Flops, Seconds, Work};

    fn advise_for(wf: &WorkflowCharacterization) -> Advice {
        let model = RooflineModel::build(&machines::perlmutter_gpu(), wf).unwrap();
        advise(&model)
    }

    #[test]
    fn system_bound_names_the_resource_and_architect() {
        let wf = WorkflowCharacterization::builder("lcls-like")
            .total_tasks(6.0)
            .parallel_tasks(5.0)
            .nodes_per_task(32)
            .makespan(Seconds::secs(1020.0))
            .system_volume(ids::EXTERNAL, Bytes::tb(5.0))
            .build()
            .unwrap();
        let a = advise_for(&wf);
        assert!(a.headline.contains("system-bound"), "{}", a.headline);
        assert!(a
            .recommendations
            .iter()
            .any(|r| r.audience == Audience::SystemArchitect
                && r.direction == Direction::ImproveSystemBandwidth));
        // Faster compute is never recommended for a system-bound workflow.
        assert!(!a
            .recommendations
            .iter()
            .any(|r| r.direction == Direction::ImproveNodeEfficiency));
    }

    #[test]
    fn node_bound_recommends_efficiency_and_width() {
        let wf = WorkflowCharacterization::builder("bgw-like")
            .total_tasks(2.0)
            .parallel_tasks(1.0)
            .nodes_per_task(64)
            .makespan(Seconds::secs(4184.86))
            .node_volume(ids::COMPUTE, Work::Flops(Flops::pflops(4390.0 / 64.0)))
            .system_volume(ids::FILE_SYSTEM, Bytes::gb(70.0))
            .build()
            .unwrap();
        let a = advise_for(&wf);
        assert!(a.headline.contains("node-bound"));
        let eff_rec = a
            .recommendations
            .iter()
            .find(|r| r.direction == Direction::ImproveNodeEfficiency)
            .unwrap();
        // ~2.37x gain to the ceiling (42% efficiency).
        let g = eff_rec.max_gain.unwrap();
        assert!((g - 2.37).abs() < 0.05, "gain {g}");
        let width = a
            .recommendations
            .iter()
            .find(|r| r.direction == Direction::IncreaseTaskParallelism)
            .unwrap();
        assert!((width.max_gain.unwrap() - 28.0).abs() < 1e-9);
    }

    #[test]
    fn far_below_every_ceiling_flags_control_flow() {
        // GPTune-like: tiny volumes, long makespan.
        let wf = WorkflowCharacterization::builder("gptune-like")
            .total_tasks(1.0)
            .parallel_tasks(1.0)
            .nodes_per_task(1)
            .makespan(Seconds::secs(553.0))
            .node_volume(ids::HBM, Work::Bytes(Bytes::mb(3344.0)))
            .system_volume(ids::FILE_SYSTEM, Bytes::mb(45.0))
            .build()
            .unwrap();
        let a = advise_for(&wf);
        assert!(a
            .recommendations
            .iter()
            .any(|r| r.direction == Direction::ReduceControlFlowOverhead));
    }

    #[test]
    fn at_wall_advice_mentions_rebalancing() {
        let wf = WorkflowCharacterization::builder("wall")
            .total_tasks(28.0)
            .parallel_tasks(28.0)
            .nodes_per_task(64)
            .makespan(Seconds::secs(10.0))
            .node_volume(ids::COMPUTE, Work::Flops(Flops::pflops(100.0)))
            .build()
            .unwrap();
        let a = advise_for(&wf);
        assert!(a.headline.contains("parallelism-bound"));
        assert!(a
            .recommendations
            .iter()
            .any(|r| r.direction == Direction::RebalanceIntraTaskParallelism));
    }

    #[test]
    fn unbounded_model_asks_for_profiling() {
        let wf = WorkflowCharacterization::builder("empty").build().unwrap();
        let a = advise_for(&wf);
        assert!(a.headline.contains("unconstrained"));
        assert_eq!(a.recommendations.len(), 1);
    }

    #[test]
    fn recommendations_sorted_by_bounded_gain() {
        let wf = WorkflowCharacterization::builder("bgw-like")
            .total_tasks(2.0)
            .parallel_tasks(1.0)
            .nodes_per_task(64)
            .makespan(Seconds::secs(4184.86))
            .node_volume(ids::COMPUTE, Work::Flops(Flops::pflops(4390.0 / 64.0)))
            .build()
            .unwrap();
        let a = advise_for(&wf);
        let gains: Vec<f64> = a
            .recommendations
            .iter()
            .filter_map(|r| r.max_gain)
            .collect();
        for w in gains.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }
}
