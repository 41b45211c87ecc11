//! Per-grid-point deltas over a shared [`BaseIndex`].
//!
//! An [`IndexOverlay`] is everything about a scenario that the sweep
//! knobs can change: the usable node pool (`node_limit`) and the
//! contention-scaled channel capacities and cap factors. Building one is
//! `O(channels + log tasks)` — against the `O(workflow)` cost of a full
//! index build — which is what makes a 4,096-point sweep do one base
//! build instead of 4,096.
//!
//! Validation here reproduces the reference engine's error *order*
//! exactly (option checks first, then one forward scan over tasks that
//! interleaves `TaskTooLarge` with `UnknownResource`): the base records
//! the first resource error and a prefix-maximum of node counts, and
//! [`IndexOverlay::build`] picks whichever error the reference scan
//! would have hit first for this point's pool.

use crate::engine::{SimError, SimOptions};
use crate::index::BaseIndex;
use crate::spec::WorkflowSpec;

/// The option-dependent part of a lowered scenario. Cheap to build per
/// sweep point; the engine reads capacities and cap factors through it.
#[derive(Debug, Clone)]
pub(crate) struct IndexOverlay {
    /// Usable node pool (node_limit-capped machine total).
    pub pool_total: u64,
    /// Effective capacity per channel (contention-scaled).
    pub channel_capacity: Vec<f64>,
    /// Contention factor per channel (applied to flow caps at spawn).
    pub channel_factor: Vec<f64>,
}

/// The pool a run under `node_limit` schedules against: the limit,
/// clamped to the machine (`None` = the whole machine).
pub(crate) fn usable_pool(base: &BaseIndex, node_limit: Option<u64>) -> u64 {
    node_limit.unwrap_or(base.total_nodes).min(base.total_nodes)
}

impl IndexOverlay {
    /// Validates the option-dependent parts of a scenario against a
    /// prebuilt base and lowers them. Error kinds and ordering mirror
    /// the reference engine exactly.
    pub(crate) fn build(
        base: &BaseIndex,
        workflow: &WorkflowSpec,
        opts: &SimOptions,
    ) -> Result<Self, SimError> {
        for (res, f) in &opts.contention {
            if !(f.is_finite() && *f > 0.0) {
                return Err(SimError::InvalidOption(format!(
                    "contention factor for {res} must be positive, got {f}"
                )));
            }
        }

        let pool_total = usable_pool(base, opts.node_limit);

        // The reference scans tasks forward, checking TaskTooLarge
        // before that task's resource references. The first too-large
        // task is the first index whose nodes prefix-maximum exceeds the
        // pool; it wins over a recorded resource error at the same or a
        // later task index (the reference checks size first per task).
        let k = base.nodes_prefix_max.partition_point(|&m| m <= pool_total);
        let too_large = (k < base.nodes_prefix_max.len()).then_some(k);
        match (too_large, &base.first_resource_error) {
            (Some(tl), Some((ri, e))) if tl > *ri => return Err(e.clone()),
            (Some(tl), _) => {
                return Err(SimError::TaskTooLarge {
                    task: workflow.tasks[tl].name.clone(),
                    needs: base.nodes[tl],
                    pool: pool_total,
                });
            }
            (None, Some((_, e))) => return Err(e.clone()),
            (None, None) => {}
        }

        let mut channel_capacity = Vec::with_capacity(base.capacity_base.len());
        let mut channel_factor = Vec::with_capacity(base.capacity_base.len());
        for (ci, id) in base.channel_ids.iter().enumerate() {
            let factor = opts.contention.get(id.as_str()).copied().unwrap_or(1.0);
            channel_factor.push(factor);
            channel_capacity.push(base.capacity_base[ci] * factor);
        }

        Ok(IndexOverlay {
            pool_total,
            channel_capacity,
            channel_factor,
        })
    }

    /// A flow's rate cap on `channel`: both base caps scaled by the
    /// channel's factor. Every engine path and bound reads caps through
    /// this one expression, so they agree to the bit.
    pub(crate) fn flow_cap(&self, channel: u32, alloc_base: f64, stream_base: f64) -> f64 {
        let f = self.channel_factor[channel as usize];
        (alloc_base * f).min(stream_base * f)
    }
}

#[cfg(test)]
mod tests {
    use super::IndexOverlay;
    use crate::engine::{Scenario, SimError, SimOptions};
    use crate::index::BaseIndex;
    use crate::reference::simulate_reference;
    use crate::spec::{Phase, TaskSpec, WorkflowSpec};
    use wrm_core::machines;

    fn sample_workflow() -> WorkflowSpec {
        WorkflowSpec::new("ov")
            .task(
                TaskSpec::new("a", 4)
                    .phase(Phase::overhead("o", 5.0))
                    .phase(Phase::system_data(wrm_core::ids::EXTERNAL, 1e9)),
            )
            .task(TaskSpec::new("b", 64).after("a").phase(Phase::Compute {
                flops: 1e12,
                efficiency: 0.5,
            }))
    }

    /// Overlay-over-shared-base reproduces the reference's validation
    /// errors, in the reference's order, for every knob.
    #[test]
    fn overlay_errors_match_reference() {
        let machine = machines::cori_haswell();
        let wf = sample_workflow();
        let base = BaseIndex::build(&machine, &wf).expect("valid workflow");
        let cases = vec![
            SimOptions::default().with_contention(wrm_core::ids::EXTERNAL, 0.0),
            SimOptions::default().with_contention(wrm_core::ids::EXTERNAL, f64::NAN),
            SimOptions {
                node_limit: Some(8),
                ..SimOptions::default()
            },
            SimOptions {
                node_limit: Some(2),
                ..SimOptions::default()
            },
            SimOptions::default(),
        ];
        for opts in cases {
            let scenario = Scenario::new(machine.clone(), wf.clone()).with_options(opts.clone());
            let via_overlay = IndexOverlay::build(&base, &wf, &opts).map(|_| ());
            let via_reference = simulate_reference(&scenario).map(|_| ());
            assert_eq!(via_overlay, via_reference, "opts: {opts:?}");
        }
    }

    /// A task referencing an unknown resource loses to an *earlier*
    /// too-large task and wins over a *later* one, per the reference's
    /// forward scan; node_limit decides which.
    #[test]
    fn too_large_vs_unknown_resource_ordering() {
        let machine = machines::cori_haswell();
        let wf = WorkflowSpec::new("order")
            .task(TaskSpec::new("big", 32).phase(Phase::overhead("o", 1.0)))
            .task(TaskSpec::new("bad", 1).phase(Phase::system_data("nope", 1e9)));
        let base = BaseIndex::build(&machine, &wf).expect("spec-valid workflow");
        // Pool below 32: `big` (task 0) is too large and is reported.
        let tight = SimOptions {
            node_limit: Some(16),
            ..SimOptions::default()
        };
        let err = IndexOverlay::build(&base, &wf, &tight).unwrap_err();
        assert!(matches!(err, SimError::TaskTooLarge { .. }), "{err:?}");
        // Pool fits `big`: the scan reaches `bad` first.
        let loose = SimOptions::default();
        let err = IndexOverlay::build(&base, &wf, &loose).unwrap_err();
        assert!(matches!(err, SimError::UnknownResource { .. }), "{err:?}");
        // Both agree with the reference engine.
        for opts in [tight, loose] {
            let scenario = Scenario::new(machine.clone(), wf.clone()).with_options(opts.clone());
            assert_eq!(
                IndexOverlay::build(&base, &wf, &opts)
                    .map(|_| ())
                    .unwrap_err(),
                simulate_reference(&scenario).map(|_| ()).unwrap_err()
            );
        }

        // Several bad references: `bad` names an unknown node resource
        // in its first phase and an unknown system resource in its
        // second, a later task names another, and on a machine without
        // `compute` the first task's compute phase is unknown too. Node
        // limits put a too-large task before, between and after them.
        let wf = WorkflowSpec::new("order")
            .task(
                TaskSpec::new("big", 32)
                    .phase(Phase::compute(1e12))
                    .phase(Phase::overhead("o", 1.0)),
            )
            .task(
                TaskSpec::new("bad", 1)
                    .phase(Phase::node_data("no-node", 1e9))
                    .phase(Phase::system_data("no-sys", 1e9)),
            )
            .task(TaskSpec::new("bigger", 64).phase(Phase::overhead("o", 1.0)))
            .task(TaskSpec::new("worse", 1).phase(Phase::system_data("no-sys-2", 1e9)))
            .task(TaskSpec::new("biggest", 128).phase(Phase::compute(1e12)));
        let mut no_compute = machines::cori_haswell();
        no_compute
            .node_resources
            .retain(|r| r.id.as_str() != wrm_core::ids::COMPUTE);
        let unknown = |task: &str, resource: &str| SimError::UnknownResource {
            task: task.into(),
            resource: resource.into(),
        };
        let too_large = |task: &str, needs: u64, pool: u64| SimError::TaskTooLarge {
            task: task.into(),
            needs,
            pool,
        };
        let cases = [
            (&machine, 16, too_large("big", 32, 16)),
            (&machine, 48, unknown("bad", "no-node")),
            (&machine, 100, unknown("bad", "no-node")),
            (&machine, 1000, unknown("bad", "no-node")),
            (&no_compute, 16, too_large("big", 32, 16)),
            (&no_compute, 48, unknown("big", wrm_core::ids::COMPUTE)),
            (&no_compute, 100, unknown("big", wrm_core::ids::COMPUTE)),
            (&no_compute, 1000, unknown("big", wrm_core::ids::COMPUTE)),
        ];
        for (m, limit, expected) in cases {
            let base = BaseIndex::build(m, &wf).expect("spec-valid workflow");
            let opts = SimOptions {
                node_limit: Some(limit),
                ..SimOptions::default()
            };
            let scenario = Scenario::new(m.clone(), wf.clone()).with_options(opts.clone());
            let via_overlay = IndexOverlay::build(&base, &wf, &opts).map(|_| ());
            assert_eq!(via_overlay, simulate_reference(&scenario).map(|_| ()));
            assert_eq!(via_overlay, Err(expected), "limit {limit}");
        }
    }

    /// Overlay-built capacities and factors are bit-identical to a cold
    /// build from the same options.
    #[test]
    fn overlay_is_bit_identical_to_cold_build() {
        let machine = machines::perlmutter_cpu();
        let wf = sample_workflow();
        let base = BaseIndex::build(&machine, &wf).expect("valid workflow");
        for f in [0.2, 0.5, 1.0, 1.7] {
            let opts = SimOptions::default().with_contention(wrm_core::ids::EXTERNAL, f);
            let overlay = IndexOverlay::build(&base, &wf, &opts).expect("valid options");
            // A cold build goes through the same code today; the test
            // pins the contract that sharing one base across points
            // cannot drift from rebuilding per point.
            let cold_base = BaseIndex::build(&machine, &wf).expect("valid workflow");
            let cold = IndexOverlay::build(&cold_base, &wf, &opts).expect("valid options");
            assert_eq!(overlay.pool_total, cold.pool_total);
            assert_eq!(overlay.channel_factor, cold.channel_factor);
            assert_eq!(overlay.channel_capacity, cold.channel_capacity);
        }
    }
}
