//! Sample statistics: nearest-rank percentiles with the ten-beyond rule,
//! and the quartile spread the regression gate uses.

/// Nearest-rank percentile `q` of an ascending-sorted sample. A tail
/// percentile (`q > 0.5`) is refused unless at least ten samples lie
/// beyond its rank, so p90 needs 100 samples; the median is always
/// defined for a non-empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Result<f64, String> {
    let n = sorted.len();
    if n == 0 {
        return Err("no samples".into());
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q > 0.5 && n - rank < 10 {
        return Err(format!(
            "p{:.0} needs ten samples beyond its rank; have {n} sample(s)",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// The median of an ascending-sorted sample (nearest rank).
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.5).unwrap_or(f64::NAN)
}

/// Sorts a sample ascending (total order, so NaN cannot panic).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (method `exclusive`) and
/// `statistics.median` give them — the definition the regression gate
/// is specified in. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values.to_vec());
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    let mid = if ld % 2 == 1 {
        data[ld / 2]
    } else {
        (data[ld / 2 - 1] + data[ld / 2]) / 2.0
    };
    Some((q(1), mid, q(3)))
}

/// Completions per second, robust to bursts of interference from other
/// processes: the completion times (seconds since the phase began,
/// ascending) are cut into consecutive chunks of `chunk`, each chunk's
/// rate is `chunk` over the time it spans, and the result is the median
/// chunk rate. `None` with fewer than `chunk` completions.
pub fn median_rate(done: &[f64], chunk: usize) -> Option<f64> {
    let mut rates = Vec::new();
    let mut from = 0.0;
    for c in done.chunks_exact(chunk) {
        let to = c[chunk - 1];
        rates.push(chunk as f64 / (to - from));
        from = to;
    }
    (!rates.is_empty()).then(|| median(&sorted(rates)))
}

/// A splitmix64 stream: the benchmark's only randomness, so every input
/// and every request order is a function of `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A Fisher-Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A derived seed for input `k` of a workload: distinct inputs never
/// share a generator stream.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    SplitMix(seed ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Ok(50.0));
        assert_eq!(percentile(&v, 0.9), Ok(90.0));
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.0);
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&v, 0.9).is_err());
        assert!(percentile(&v, 0.5).is_ok());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        assert_eq!(quartiles(&[3.0]), None);
    }

    #[test]
    fn median_rate_ignores_a_stalled_chunk() {
        // Ten completions a second, except one chunk that stalls for 5 s.
        let mut done: Vec<f64> = (1..=40).map(|i| f64::from(i) / 10.0).collect();
        for t in &mut done[20..30] {
            *t += 5.0;
        }
        for t in &mut done[30..] {
            *t += 5.0;
        }
        let r = median_rate(&done, 10).unwrap();
        assert!((r - 10.0).abs() < 1e-9, "{r}");
        assert_eq!(median_rate(&done[..5], 10), None);
    }

    #[test]
    fn shuffles_are_seeded_permutations() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        SplitMix(5).shuffle(&mut a);
        SplitMix(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..20).collect::<Vec<_>>());
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
    }
}
