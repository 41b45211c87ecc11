//! Batched Monte-Carlo replication: distributional phase quantities,
//! streaming percentile makespans, amortized index reuse.
//!
//! The paper's WRM dot is a single point computed from one measured
//! makespan; real task durations are distributions. This module runs
//! `N` seeded replications of a scenario whose tasks carry
//! [`crate::spec::PhaseDist`] tables and folds the sampled makespans
//! into percentiles (p50/p90/p99 with order-statistic confidence
//! intervals).
//!
//! ## Engineering shape (why this is fast)
//!
//! * **One compile, N runs.** [`BaseIndex`] is built once; each worker
//!   clones it and patches only the dist-bearing slots per replication
//!   (a slot write is one enum field), so the per-replication cost is
//!   the event loop, not spec validation + index lowering.
//! * **Warm arenas.** Each worker owns one [`SimArena`], whose buffers
//!   every replication after its first reuses, calendar buckets aside
//!   ([`crate::simulate_summary_with_base`] recycles the engine state).
//! * **Streaming summaries.** Replications run through the engine's
//!   summary sink ([`crate::SimSummary`]), so per-replication memory is
//!   O(channels) and the only thing retained per rep is its makespan.
//! * **Splittable PRNG.** Replication `i` seeds its own generator from
//!   `seed ^ i` (scrambled through SplitMix64 by `seed_from_u64`), so
//!   workers share no RNG state and the sample sequence of a given rep
//!   is independent of which worker ran it.
//! * **Deterministic merge.** Replications run through the crate's
//!   shared fan-out: workers claim rep ranges through
//!   [`crate::ChunkClaim`] and their makespans are merged in rep order,
//!   so results are byte-identical across thread counts — the same
//!   invariant the sweep grid and [`crate::run_all`] rely on.
//!
//! Two fast paths guard the common cases:
//!
//! * **Degenerate collapse**: when every distribution is a point mass
//!   (or there are none), one replication is bit-equal to
//!   [`crate::simulate`], so exactly one runs and every percentile
//!   equals that makespan.
//! * **Analytic bracket**: the certificate of the `[lo, hi]`
//!   bound-substituted envelopes (the base with every dist slot
//!   patched to its support bound) yields an interval that provably
//!   contains every sampled makespan (the certificate's bounds are
//!   monotone in phase quantities, and every sample is clamped into
//!   its distribution's support). The runner
//!   `debug_assert`s the containment per sample; the proptests and the
//!   bench assert it with release builds.

use crate::bounds::certify_with_base;
use crate::engine::{simulate_summary_with_base, Scenario, SimArena, SimError};
use crate::index::{BaseIndex, PhaseIx};
use crate::spec::{Phase, WorkflowSpec};
use crate::sweep::fan_out;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wrm_core::Dist;

/// Replications a worker claims per counter increment: large enough
/// that the counter is uncontended for sub-millisecond replications,
/// small enough to balance uneven tails.
const REP_CHUNK: usize = 8;

/// Monte-Carlo run options.
#[derive(Debug, Clone, PartialEq)]
pub struct McOptions {
    /// Number of replications (floored at 1).
    pub reps: usize,
    /// Base seed; replication `i` uses `seed ^ i`.
    pub seed: u64,
    /// Worker threads (0 = auto, one per CPU; capped at the rep count).
    pub threads: usize,
}

impl Default for McOptions {
    fn default() -> Self {
        Self {
            reps: 100,
            seed: 0,
            threads: 0,
        }
    }
}

/// One makespan percentile with its order-statistic confidence bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Percentile {
    /// The quantile in `(0, 1]` (0.5 = p50).
    pub q: f64,
    /// Nearest-rank percentile of the sampled makespans.
    pub value: f64,
    /// 95% CI lower bound (binomial order statistics, normal approx).
    pub ci_lo: f64,
    /// 95% CI upper bound.
    pub ci_hi: f64,
}

/// The outcome of a Monte-Carlo batch. Every field is deterministic for
/// a given `(scenario, reps, seed)` — independent of thread count — so
/// rendering a result is byte-identical across runs and front ends.
#[derive(Debug, Clone, PartialEq)]
pub struct McResult {
    /// Replications actually run (1 when the batch collapsed).
    pub reps: usize,
    /// The base seed.
    pub seed: u64,
    /// Sampled makespans in replication order.
    pub makespans: Vec<f64>,
    /// Arithmetic mean of the sampled makespans.
    pub mean: f64,
    /// Smallest sampled makespan.
    pub min: f64,
    /// Largest sampled makespan.
    pub max: f64,
    /// p50/p90/p99 with confidence intervals.
    pub percentiles: Vec<Percentile>,
    /// Certified lower bound of the analytic envelope: no replication
    /// can finish earlier.
    pub bracket_lo: f64,
    /// Certified upper bound of the analytic envelope.
    pub bracket_hi: f64,
    /// True when the all-point-mass detector collapsed the batch to a
    /// single replication (bit-equal to `simulate`).
    pub degenerate: bool,
}

/// One dist-bearing phase slot, lowered for patching: `slot` indexes
/// the base's flat phase table; a sample `s` (clamped into the
/// distribution's support) becomes `s / divisor` seconds for fixed
/// phases — the divisor reproduces the index's lowering expression bit
/// for bit — or `s` bytes for flows.
struct DistSlot<'a> {
    slot: usize,
    divisor: f64,
    lo: f64,
    hi: f64,
    dist: &'a Dist,
}

/// Walks the workflow's dist tables into patchable slots, mirroring the
/// index's task-order/phase-order CSR layout.
fn lower_slots(scenario: &Scenario) -> Vec<DistSlot<'_>> {
    let machine = &scenario.machine;
    let mut slots = Vec::new();
    let mut off = 0usize;
    for t in &scenario.workflow.tasks {
        for pd in &t.dists {
            let Some(phase) = t.phases.get(pd.phase as usize) else {
                continue; // unvalidated spec; the overlay rejects it anyway
            };
            // Keep the exact parenthesization of the index lowering:
            // `q / (peak * nodes * eff)` must stay bit-identical.
            let divisor = match phase {
                Phase::Compute { efficiency, .. } => {
                    match machine.node_resource(wrm_core::ids::COMPUTE) {
                        Some(nr) => nr.peak_per_node.magnitude() * t.nodes as f64 * efficiency,
                        None => 1.0,
                    }
                }
                Phase::NodeData {
                    resource,
                    efficiency,
                    ..
                } => match machine.node_resource(resource) {
                    Some(nr) => nr.peak_per_node.magnitude() * t.nodes as f64 * efficiency,
                    None => 1.0,
                },
                Phase::Overhead { .. } | Phase::SystemData { .. } => 1.0,
            };
            let (lo, hi) = pd.dist.bounds();
            slots.push(DistSlot {
                slot: off + pd.phase as usize,
                divisor,
                lo,
                hi,
                dist: &pd.dist,
            });
        }
        off += t.phases.len();
    }
    slots
}

/// Draws one quantity from `dist`. Uniform/triangular/empirical are
/// inverse-CDF over one `[0, 1)` draw; the lognormal is Box–Muller with
/// the standard normal clamped to `±`[`wrm_core::dist::LOGNORMAL_Z_CLAMP`]
/// so every draw lands inside [`Dist::bounds`].
fn sample(dist: &Dist, rng: &mut StdRng) -> f64 {
    match dist {
        Dist::Point { value } => *value,
        Dist::Uniform { lo, hi } => rng.random_range(*lo..=*hi),
        Dist::LogNormal { median, sigma } => {
            // Box–Muller from two unit uniforms; u1 shifted into (0, 1]
            // so the log is finite.
            let u1 = 1.0 - rng.random_range(0.0..1.0);
            let u2 = rng.random_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let z = z.clamp(
                -wrm_core::dist::LOGNORMAL_Z_CLAMP,
                wrm_core::dist::LOGNORMAL_Z_CLAMP,
            );
            median * (sigma * z).exp()
        }
        Dist::Triangular { lo, mode, hi } => {
            let width = hi - lo;
            if width <= 0.0 {
                return *lo;
            }
            let u = rng.random_range(0.0..1.0);
            let c = (mode - lo) / width;
            if u < c {
                lo + (u * width * (mode - lo)).sqrt()
            } else {
                hi - ((1.0 - u) * width * (hi - mode)).sqrt()
            }
        }
        Dist::Empirical { samples } => {
            let total: f64 = samples.iter().map(|(_, w)| w).sum();
            let mut x = rng.random_range(0.0..1.0) * total;
            for &(v, w) in samples {
                if x < w {
                    return v;
                }
                x -= w;
            }
            samples.last().map_or(0.0, |&(v, _)| v)
        }
    }
}

/// Patches one sampled quantity into the cloned base's phase table.
fn patch(base: &mut BaseIndex, slot: &DistSlot, sample: f64) {
    match &mut base.phases[slot.slot] {
        PhaseIx::Fixed { duration } => *duration = sample / slot.divisor,
        PhaseIx::Flow { bytes, .. } => *bytes = sample,
    }
}

/// Runs replication `rep`: seeds its own generator, draws every slot in
/// slot order, patches, and simulates in summary mode.
fn run_rep(
    scenario: &Scenario,
    base: &mut BaseIndex,
    slots: &[DistSlot],
    seed: u64,
    rep: usize,
    arena: &mut SimArena,
) -> Result<f64, SimError> {
    let mut rng = StdRng::seed_from_u64(seed ^ rep as u64);
    for s in slots {
        let drawn = sample(s.dist, &mut rng).clamp(s.lo, s.hi);
        patch(base, s, drawn);
    }
    simulate_summary_with_base(scenario, base, arena).map(|sum| sum.makespan)
}

/// The bound-substituted envelope workflow: every dist-bearing phase
/// quantity replaced by its support bound (`hi = true` for the upper
/// end). Dist tables are dropped — the envelope is deterministic.
///
/// Every certificate bound is monotone nondecreasing in every phase
/// quantity and every Monte-Carlo sample is clamped into its support,
/// so a lower bound certified on the `hi = false` envelope holds for
/// every replication (and an upper bound on the `hi = true` one).
#[must_use]
pub fn envelope(workflow: &WorkflowSpec, hi: bool) -> WorkflowSpec {
    let mut wf = workflow.clone();
    for t in &mut wf.tasks {
        let dists = std::mem::take(&mut t.dists);
        for pd in &dists {
            let (lo_b, hi_b) = pd.dist.bounds();
            let v = if hi { hi_b } else { lo_b };
            if let Some(p) = t.phases.get_mut(pd.phase as usize) {
                match p {
                    Phase::Compute { flops, .. } => *flops = v,
                    Phase::NodeData { bytes, .. } | Phase::SystemData { bytes, .. } => *bytes = v,
                    Phase::Overhead { seconds, .. } => *seconds = v,
                }
            }
        }
    }
    wf
}

/// Certifies the analytic `[lo, hi]` envelope (see [`envelope`]):
/// `lo(lo-envelope) <= makespan(sample) <= hi(hi-envelope)` for every
/// replication. Each envelope is `base` with its dist slots [`patch`]ed
/// to a support bound, bit-equal to indexing the envelope workflow.
fn bracket(
    scenario: &Scenario,
    base: &BaseIndex,
    slots: &[DistSlot],
) -> Result<(f64, f64), SimError> {
    let mut env = base.clone();
    let mut certify_at = |bound: fn(&DistSlot) -> f64| {
        for s in slots {
            patch(&mut env, s, bound(s));
        }
        certify_with_base(&scenario.workflow, &scenario.options, &env)
    };
    // Spec validation refused every distribution whose support bounds
    // overflow, so both envelopes are valid specs.
    let lo = certify_at(|s| s.lo)?.lo;
    let hi = certify_at(|s| s.hi)?.hi;
    Ok((lo, hi))
}

/// Nearest-rank percentile over a sorted sample (the same convention as
/// the serve metrics reservoir).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// p50/p90/p99 with 95% order-statistic confidence intervals: the CI
/// ranks come from the normal approximation of the binomial
/// `rank ~ n*q ± 1.96 * sqrt(n*q*(1-q))`, clamped into `[1, n]`.
fn percentiles(sorted: &[f64]) -> Vec<Percentile> {
    let n = sorted.len() as f64;
    [0.5, 0.9, 0.99]
        .iter()
        .map(|&q| {
            let half_width = 1.96 * (n * q * (1.0 - q)).sqrt();
            let lo_rank = ((n * q - half_width).floor() as usize).clamp(1, sorted.len());
            let hi_rank = ((n * q + half_width).ceil() as usize).clamp(1, sorted.len());
            Percentile {
                q,
                value: nearest_rank(sorted, q),
                ci_lo: sorted[lo_rank - 1],
                ci_hi: sorted[hi_rank - 1],
            }
        })
        .collect()
}

/// Folds replication-ordered makespans into the final result.
fn finish(makespans: Vec<f64>, seed: u64, bracket: (f64, f64), degenerate: bool) -> McResult {
    let mut sorted = makespans.clone();
    sorted.sort_unstable_by(f64::total_cmp);
    let mean = makespans.iter().sum::<f64>() / makespans.len() as f64;
    McResult {
        reps: makespans.len(),
        seed,
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        mean,
        percentiles: percentiles(&sorted),
        makespans,
        bracket_lo: bracket.0,
        bracket_hi: bracket.1,
        degenerate,
    }
}

/// Runs a Monte-Carlo batch, compiling the index once.
pub fn mc_run(scenario: &Scenario, opts: &McOptions) -> Result<McResult, SimError> {
    let base = BaseIndex::build(&scenario.machine, &scenario.workflow)?;
    mc_run_with_base(scenario, &base, opts)
}

/// [`mc_run`] against a prebuilt [`BaseIndex`] — the resident server's
/// mc path. `base` must have been built from this scenario's
/// `(machine, workflow)` pair (same contract as
/// [`crate::simulate_with_base`]).
pub fn mc_run_with_base(
    scenario: &Scenario,
    base: &BaseIndex,
    opts: &McOptions,
) -> Result<McResult, SimError> {
    let slots = lower_slots(scenario);
    let brk = bracket(scenario, base, &slots)?;

    // Degenerate collapse: every distribution is a point mass (or there
    // are none), so every replication would be identical — run one,
    // bit-equal to `simulate`.
    if slots.iter().all(|s| s.dist.as_point().is_some()) {
        let mut local = base.clone();
        for s in &slots {
            let v = s.dist.as_point().expect("checked point mass");
            patch(&mut local, s, v);
        }
        let mut arena = SimArena::new();
        let makespan = simulate_summary_with_base(scenario, &local, &mut arena)?.makespan;
        debug_assert!(
            contains(brk, makespan),
            "bracket [{}, {}] misses degenerate makespan {makespan}",
            brk.0,
            brk.1
        );
        return Ok(finish(vec![makespan], opts.seed, brk, true));
    }

    let reps = opts.reps.max(1);
    // One cloned base + one arena per worker: every replication after
    // the first patches warm buffers instead of re-lowering the spec.
    let outcomes = fan_out(
        reps,
        opts.threads,
        REP_CHUNK,
        || (base.clone(), SimArena::new()),
        |(local, arena), rep| run_rep(scenario, local, &slots, opts.seed, rep, arena),
    );

    let mut makespans = Vec::with_capacity(reps);
    for r in outcomes {
        let m = r?;
        debug_assert!(
            contains(brk, m),
            "bracket [{}, {}] misses sampled makespan {m}",
            brk.0,
            brk.1
        );
        makespans.push(m);
    }
    Ok(finish(makespans, opts.seed, brk, false))
}

/// Bracket containment with a relative tolerance for the envelope's
/// floating-point slack (the certificate and the engine evaluate the
/// same quantities through different expression orders).
fn contains((lo, hi): (f64, f64), m: f64) -> bool {
    let eps = 1e-9 * m.abs().max(1.0);
    lo - eps <= m && m <= hi + eps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::spec::TaskSpec;
    use wrm_core::machines;

    fn dist_scenario() -> Scenario {
        let mut wf = WorkflowSpec::new("mc-test");
        for i in 0..6 {
            wf = wf.task(
                TaskSpec::new(format!("t{i}"), 2)
                    .phase(Phase::overhead("work", 10.0))
                    .dist(0, Dist::Uniform { lo: 8.0, hi: 12.0 }),
            );
        }
        wf = wf.task(
            TaskSpec::new("merge", 1)
                .phase(Phase::overhead("merge", 3.0))
                .dist(
                    0,
                    Dist::Triangular {
                        lo: 2.0,
                        mode: 3.0,
                        hi: 4.0,
                    },
                )
                .after("t0")
                .after("t1"),
        );
        Scenario::new(machines::perlmutter_cpu(), wf)
    }

    #[test]
    fn point_mass_collapses_to_simulate() {
        let mut wf = WorkflowSpec::new("point");
        wf = wf.task(
            TaskSpec::new("a", 1)
                .phase(Phase::overhead("x", 7.0))
                .dist(0, Dist::Point { value: 7.0 }),
        );
        let scenario = Scenario::new(machines::perlmutter_cpu(), wf);
        let mc = mc_run(
            &scenario,
            &McOptions {
                reps: 64,
                seed: 9,
                threads: 1,
            },
        )
        .unwrap();
        assert!(mc.degenerate);
        assert_eq!(mc.reps, 1);
        let full = simulate(&scenario).unwrap();
        assert_eq!(mc.makespans[0].to_bits(), full.makespan.to_bits());
        for p in &mc.percentiles {
            assert_eq!(p.value.to_bits(), full.makespan.to_bits());
        }
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let scenario = dist_scenario();
        let opts = |threads| McOptions {
            reps: 40,
            seed: 42,
            threads,
        };
        let one = mc_run(&scenario, &opts(1)).unwrap();
        let two = mc_run(&scenario, &opts(2)).unwrap();
        let four = mc_run(&scenario, &opts(4)).unwrap();
        assert_eq!(one, two);
        assert_eq!(one, four);
        assert!(!one.degenerate);
        assert_eq!(one.makespans.len(), 40);
        // Replication `r` is the one-rep run seeded `seed ^ r`.
        for (r, &m) in one.makespans.iter().enumerate() {
            let single = McOptions {
                reps: 1,
                seed: 42 ^ r as u64,
                threads: 1,
            };
            let alone = mc_run(&scenario, &single).unwrap().makespans[0];
            assert_eq!(alone.to_bits(), m.to_bits(), "replication {r}");
        }
    }

    #[test]
    fn bracket_contains_every_sample() {
        let scenario = dist_scenario();
        let mc = mc_run(
            &scenario,
            &McOptions {
                reps: 128,
                seed: 7,
                threads: 0,
            },
        )
        .unwrap();
        for &m in &mc.makespans {
            assert!(
                mc.bracket_lo <= m && m <= mc.bracket_hi,
                "[{}, {}] misses {m}",
                mc.bracket_lo,
                mc.bracket_hi
            );
        }
        assert!(mc.percentiles[0].value <= mc.percentiles[1].value);
        assert!(mc.percentiles[1].value <= mc.percentiles[2].value);
        assert!(mc.min <= mc.mean && mc.mean <= mc.max);
    }

    #[test]
    fn seeds_change_samples_deterministically() {
        let scenario = dist_scenario();
        let a = mc_run(
            &scenario,
            &McOptions {
                reps: 16,
                seed: 1,
                threads: 1,
            },
        )
        .unwrap();
        let a2 = mc_run(
            &scenario,
            &McOptions {
                reps: 16,
                seed: 1,
                threads: 1,
            },
        )
        .unwrap();
        let b = mc_run(
            &scenario,
            &McOptions {
                reps: 16,
                seed: 2,
                threads: 1,
            },
        )
        .unwrap();
        assert_eq!(a, a2);
        assert_ne!(a.makespans, b.makespans);
    }

    #[test]
    fn empirical_draws_only_listed_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = Dist::Empirical {
            samples: vec![(2.0, 1.0), (5.0, 3.0)],
        };
        for _ in 0..200 {
            let v = sample(&d, &mut rng);
            assert!(v == 2.0 || v == 5.0, "{v}");
        }
    }

    #[test]
    fn samples_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        let dists = [
            Dist::Uniform { lo: 1.0, hi: 2.0 },
            Dist::LogNormal {
                median: 10.0,
                sigma: 0.4,
            },
            Dist::Triangular {
                lo: 1.0,
                mode: 1.5,
                hi: 4.0,
            },
        ];
        for d in &dists {
            let (lo, hi) = d.bounds();
            for _ in 0..500 {
                let v = sample(d, &mut rng);
                assert!(lo <= v && v <= hi, "{d:?}: {v} outside [{lo}, {hi}]");
            }
        }
    }
}
