//! Max–min fair bandwidth sharing for shared channels (file system,
//! external links, interconnect backbones).
//!
//! When several tasks move data through one shared resource, the
//! simulator assigns each flow a rate by *progressive filling*: capacity
//! is divided equally, flows whose own cap (e.g. a per-stream WAN limit
//! or the NIC aggregate of the task's nodes) is below the fair share keep
//! their cap, and the leftover is redistributed among the rest. This is
//! the classical fluid model of TCP-fair shared links and reproduces the
//! paper's contention behaviour (LCLS "bad days") without per-packet
//! simulation.

/// One flow's demand on a channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDemand {
    /// Opaque flow identity (index into the caller's table).
    pub id: usize,
    /// The flow's own rate limit in bytes/s (`f64::INFINITY` when only
    /// the channel limits it).
    pub cap: f64,
}

/// The rate assigned to one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRate {
    /// Flow identity (copied from the demand).
    pub id: usize,
    /// Assigned rate in bytes/s.
    pub rate: f64,
}

/// Reusable scratch for [`max_min_rates_into`]: holds the
/// progressive-filling working set so a caller solving thousands of
/// channel instants per run allocates nothing after warm-up.
#[derive(Debug, Clone, Default)]
pub struct RateScratch {
    /// Indices of flows still competing for the remainder.
    open: Vec<usize>,
}

/// Computes max–min fair rates for `flows` on a channel of `capacity`
/// bytes/s.
///
/// Properties (tested below and in the crate's proptests):
/// * no flow exceeds its cap;
/// * the sum of rates never exceeds `capacity`;
/// * the link saturates whenever the total demand allows it;
/// * uncapped flows all receive the same rate, and no capped flow
///   receives more than an uncapped one.
pub fn max_min_rates(capacity: f64, flows: &[FlowDemand]) -> Vec<FlowRate> {
    let mut out = Vec::new();
    max_min_rates_into(capacity, flows, &mut RateScratch::default(), &mut out);
    out
}

/// [`max_min_rates`] into caller-owned buffers: `out` is cleared and
/// refilled (one rate per flow, in flow order), `scratch` is reused
/// across calls. The assigned rates are bit-identical to
/// [`max_min_rates`] — both run the same progressive filling in the
/// same order.
pub fn max_min_rates_into(
    capacity: f64,
    flows: &[FlowDemand],
    scratch: &mut RateScratch,
    out: &mut Vec<FlowRate>,
) {
    assert!(
        capacity >= 0.0 && !capacity.is_nan(),
        "channel capacity must be non-negative"
    );
    out.clear();
    if flows.is_empty() {
        return;
    }

    out.extend(flows.iter().map(|f| FlowRate {
        id: f.id,
        rate: 0.0,
    }));
    let open = &mut scratch.open;
    open.clear();
    open.extend(0..flows.len());
    let mut remaining = capacity;

    loop {
        if open.is_empty() || remaining <= 0.0 {
            break;
        }
        let share = remaining / open.len() as f64;
        // Settle every open flow whose cap is at or below the share.
        let mut settled_any = false;
        open.retain(|&i| {
            if flows[i].cap <= share {
                out[i].rate = flows[i].cap;
                remaining -= flows[i].cap;
                settled_any = true;
                false
            } else {
                true
            }
        });
        if !settled_any {
            // Everyone left is limited by the channel: equal share.
            for &i in &*open {
                out[i].rate = share;
            }
            break;
        }
    }
}

/// True when flows whose caps sum to `cap_sum` (`f64::INFINITY` when
/// any cap is unbounded) all settle at exactly their own cap on a
/// channel of `capacity`, whatever the demand order: the caps are
/// finite and sum below the capacity with a relative `1e-9` margin.
///
/// Why the margin proves it: progressive filling settles a flow only by
/// assigning its literal `cap`, and a round that settles nobody needs
/// every open cap above `remaining / open`, so the open caps alone
/// would exceed what is left of the capacity. That contradicts
/// `cap_sum <= capacity * (1 - 1e-9)` as long as the float drift of the
/// `remaining` accumulator (at most one rounding of `capacity` per
/// subtraction, so `n * 2^-53 * capacity` for `n` flows) and of the
/// caller's own `cap_sum` stay under `1e-9 * capacity`: below about
/// 9 million flows.
pub(crate) fn settles_at_caps(cap_sum: f64, capacity: f64) -> bool {
    cap_sum.is_finite() && cap_sum <= capacity * (1.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn demand(id: usize, cap: f64) -> FlowDemand {
        FlowDemand { id, cap }
    }

    #[test]
    fn symmetric_flows_split_evenly() {
        let flows = vec![demand(0, f64::INFINITY); 4]
            .into_iter()
            .enumerate()
            .map(|(i, mut f)| {
                f.id = i;
                f
            })
            .collect::<Vec<_>>();
        let rates = max_min_rates(100.0, &flows);
        for r in &rates {
            assert!((r.rate - 25.0).abs() < 1e-12);
        }
    }

    #[test]
    fn capped_flow_releases_bandwidth() {
        // One flow capped at 10; the others share the rest.
        let flows = vec![
            demand(0, 10.0),
            demand(1, f64::INFINITY),
            demand(2, f64::INFINITY),
        ];
        let rates = max_min_rates(100.0, &flows);
        assert!((rates[0].rate - 10.0).abs() < 1e-12);
        assert!((rates[1].rate - 45.0).abs() < 1e-12);
        assert!((rates[2].rate - 45.0).abs() < 1e-12);
        let total: f64 = rates.iter().map(|r| r.rate).sum();
        assert!((total - 100.0).abs() < 1e-9, "work conserving");
    }

    #[test]
    fn all_caps_below_share_leave_slack() {
        let flows = vec![demand(0, 5.0), demand(1, 7.0)];
        let rates = max_min_rates(100.0, &flows);
        assert!((rates[0].rate - 5.0).abs() < 1e-12);
        assert!((rates[1].rate - 7.0).abs() < 1e-12);
    }

    #[test]
    fn lcls_streams_on_cori() {
        // Five 1 GB/s-capped streams on a link that is not the bottleneck:
        // each gets its 1 GB/s (the paper's good day).
        let flows: Vec<FlowDemand> = (0..5).map(|i| demand(i, 1e9)).collect();
        let rates = max_min_rates(910e9, &flows);
        for r in rates {
            assert!((r.rate - 1e9).abs() < 1e-3);
        }
        // Bad day: the effective per-stream cap drops 5x.
        let flows: Vec<FlowDemand> = (0..5).map(|i| demand(i, 0.2e9)).collect();
        let rates = max_min_rates(910e9, &flows);
        for r in rates {
            assert!((r.rate - 0.2e9).abs() < 1e-3);
        }
    }

    #[test]
    fn empty_and_zero_capacity() {
        assert!(max_min_rates(10.0, &[]).is_empty());
        let flows = vec![demand(0, f64::INFINITY)];
        let rates = max_min_rates(0.0, &flows);
        assert_eq!(rates[0].rate, 0.0);
    }

    #[test]
    fn zero_cap_flow_gets_zero_and_frees_capacity() {
        let flows = vec![demand(0, 0.0), demand(1, f64::INFINITY)];
        let rates = max_min_rates(10.0, &flows);
        assert_eq!(rates[0].rate, 0.0);
        assert!((rates[1].rate - 10.0).abs() < 1e-12);
    }

    #[test]
    fn into_variants_match_allocating_ones() {
        let flows = vec![demand(0, 10.0), demand(1, f64::INFINITY), demand(2, 3.0)];
        let mut scratch = RateScratch::default();
        let mut out = Vec::new();
        for cap in [0.0, 5.0, 100.0] {
            max_min_rates_into(cap, &flows, &mut scratch, &mut out);
            assert_eq!(out, max_min_rates(cap, &flows));
        }
        max_min_rates_into(1.0, &[], &mut scratch, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn ids_are_preserved() {
        let flows = vec![demand(42, f64::INFINITY), demand(7, 1.0)];
        let rates = max_min_rates(10.0, &flows);
        assert_eq!(rates[0].id, 42);
        assert_eq!(rates[1].id, 7);
    }

    proptest! {
        /// The lemma the engine's under-capacity skip relies on: caps
        /// that pass [`settles_at_caps`] settle at their own cap, bit for
        /// bit, in every demand order.
        #[test]
        fn caps_under_capacity_settle_exactly_in_any_order(
            raw in prop::collection::vec((0u32..4, 0.0f64..1.0), 1..40),
            capacity_exp in -3i64..13,
            fill in prop_oneof![0.0f64..1.0, (1i64..10).prop_map(|k| 1.0 - 10f64.powi(-k as i32))],
            rotations in prop::collection::vec(any::<u64>(), 1..6),
        ) {
            let capacity = 10f64.powi(capacity_exp as i32);
            // Zero caps, ulp-scale caps and ordinary ones, rescaled so the
            // sum fills `fill` of the capacity.
            let weights: Vec<f64> = raw
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => 0.0,
                    1 => x * 1e-12,
                    _ => x,
                })
                .collect();
            let total: f64 = weights.iter().sum();
            let scale = if total > 0.0 { fill * capacity / total } else { 0.0 };
            let mut flows: Vec<FlowDemand> = weights
                .iter()
                .enumerate()
                .map(|(id, &w)| demand(id, w * scale))
                .collect();
            let cap_sum: f64 = flows.iter().map(|f| f.cap).sum();
            if !settles_at_caps(cap_sum, capacity) {
                return Ok(());
            }
            let mut scratch = RateScratch::default();
            let mut out = Vec::new();
            for r in rotations {
                // A pseudo-random permutation per round (Fisher-Yates).
                let mut s = r;
                for i in (1..flows.len()).rev() {
                    s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                    flows.swap(i, (s >> 33) as usize % (i + 1));
                }
                max_min_rates_into(capacity, &flows, &mut scratch, &mut out);
                for (f, r) in flows.iter().zip(&out) {
                    prop_assert!(
                        r.rate.to_bits() == f.cap.to_bits(),
                        "flow {} got {} for cap {}",
                        f.id,
                        r.rate,
                        f.cap
                    );
                }
            }
        }
    }
}
