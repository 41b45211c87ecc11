//! Work aggregates over the simulator's flat per-task arrays.
//!
//! The simulator's indexed form of a workflow (`wrm-sim`'s `BaseIndex`)
//! stores per-task node counts and durations as flat arrays. The
//! makespan bounds fold them into pool-level quantities, so the kernels
//! live here, next to the other graph algorithms, and take the arrays
//! directly rather than forcing a conversion to [`crate::Dag`].

/// Total node-seconds of work: `sum of nodes[t] * duration[t]`. The
/// per-resource work aggregation the Graham-style makespan upper bound
/// charges against the pool (`W / (P - q_max + 1)`), and the numerator
/// of the pool-occupancy lower bound (`W / P`).
pub fn resource_work(nodes: &[u64], durations: &[f64]) -> f64 {
    debug_assert_eq!(nodes.len(), durations.len());
    nodes
        .iter()
        .zip(durations)
        .map(|(&n, &d)| n as f64 * d)
        .sum()
}

/// The largest number of the given tasks that can hold nodes
/// simultaneously on a pool of `pool` nodes: the longest prefix of the
/// ascending node-count sort whose sum fits. Returns at least 1 when
/// any task exists (a single task always runs alone), 0 for an empty
/// slice. Tasks larger than the pool never co-run at all, but callers
/// validate that separately (`TaskTooLarge`), so they count like any
/// other here.
pub fn max_coschedulable(node_counts: &[u64], pool: u64) -> usize {
    if node_counts.is_empty() {
        return 0;
    }
    let mut sorted = node_counts.to_vec();
    sorted.sort_unstable();
    let mut held = 0u128;
    let mut k = 0usize;
    for &n in &sorted {
        held += u128::from(n.max(1));
        if held > u128::from(pool) {
            break;
        }
        k += 1;
    }
    k.max(1)
}

#[cfg(test)]
mod tests {
    use super::{max_coschedulable, resource_work};

    #[test]
    fn work_and_coschedulability() {
        assert_eq!(resource_work(&[2, 4], &[10.0, 5.0]), 40.0);
        assert_eq!(resource_work(&[], &[]), 0.0);
        // 4-node pool: {1, 2, 8} -> the 1- and 2-node tasks fit together.
        assert_eq!(max_coschedulable(&[8, 1, 2], 4), 2);
        // Everything fits.
        assert_eq!(max_coschedulable(&[1, 1, 1], 4), 3);
        // Even an oversized task counts as at least one runner.
        assert_eq!(max_coschedulable(&[9], 4), 1);
        assert_eq!(max_coschedulable(&[], 4), 0);
        // `nodes 0` tasks occupy like 1 (the compiler's clamp).
        assert_eq!(max_coschedulable(&[0, 0, 0], 2), 2);
    }
}
