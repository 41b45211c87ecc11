//! A host-speed probe: a fixed reference workload, timed between a
//! workload's operations, that the timing metrics are scaled by.
//!
//! On a CPU shared with other tenants the same code runs up to twice as
//! slow for minutes at a time, and everything slows together: CPU time
//! tracks wall time and nothing waits in the run queue, so no clock or
//! statistic removes it. The probe is code of the benchmark's own that
//! no change to the repository touches — string hashing, sorting, a
//! small discrete-event loop over a binary heap and an ordered map, a
//! few megabytes in all, the mix the program's own hot paths are made
//! of — so its time moves with the host and not with the code. The
//! probe runs before and after every timed operation, and the operation
//! is reported at the reference speed: its measured time times
//! [`REF_MS`] over the mean of those two probes, the time it would take
//! on a host where the probe takes [`REF_MS`]. The host's speed changes
//! within a second, so a per-run average would not do. The probe itself
//! must never change; changing it rescales every timing metric.

use crate::stats::{median, sorted, SplitMix};
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The probe's median time on the host the baseline was measured on (a
/// 2-vCPU KVM guest of a Xeon at 2.1 GHz, idle tenants), in ms.
pub const REF_MS: f64 = 25.0;

/// Runs the probe once and returns its duration in milliseconds.
pub fn run() -> f64 {
    let t = Instant::now();
    black_box(hashing(25_000) ^ sorting(125_000) ^ events(20_000) ^ ordered(40_000));
    t.elapsed().as_secs_f64() * 1e3
}

/// Formats `n` keys, inserts them into a hash map and looks each up.
fn hashing(n: u64) -> u64 {
    let mut rng = SplitMix(1);
    let keys: Vec<String> = (0..n).map(|_| format!("k{}", rng.next_u64())).collect();
    let map: HashMap<&str, u64> = keys.iter().map(String::as_str).zip(0..).collect();
    keys.iter().map(|k| map[k.as_str()]).sum()
}

/// Sorts `n` random words.
fn sorting(n: usize) -> u64 {
    let mut rng = SplitMix(2);
    let mut v: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    v[n / 2]
}

/// Finish times of a random DAG of `n` tasks (each after one to three
/// earlier ones), completed in time order off a binary heap.
fn events(n: usize) -> u64 {
    let mut rng = SplitMix(3);
    let mut succ = vec![Vec::new(); n];
    let mut pending = vec![0u32; n];
    for i in 1..n {
        for _ in 0..1 + rng.next_u64() % 3 {
            succ[(rng.next_u64() % i as u64) as usize].push(i);
            pending[i] += 1;
        }
    }
    let dur: Vec<u64> = (0..n).map(|_| rng.next_u64() % 1_000).collect();
    let mut ready = vec![0u64; n];
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = (0..n)
        .filter(|&i| pending[i] == 0)
        .map(|i| std::cmp::Reverse((dur[i], i)))
        .collect();
    let mut last = 0;
    while let Some(std::cmp::Reverse((t, i))) = heap.pop() {
        last = t;
        for &s in &succ[i] {
            ready[s] = ready[s].max(t);
            pending[s] -= 1;
            if pending[s] == 0 {
                heap.push(std::cmp::Reverse((ready[s] + dur[s], s)));
            }
        }
    }
    last
}

/// Inserts `n` random keys into an ordered map, then looks up the
/// successor of `n` others.
fn ordered(n: u64) -> u64 {
    let mut rng = SplitMix(4);
    let map: BTreeMap<u64, u64> = (0..n).map(|i| (rng.next_u64() % (25 * n), i)).collect();
    (0..n)
        .filter_map(|_| {
            map.range(rng.next_u64() % (25 * n)..)
                .next()
                .map(|(_, v)| *v)
        })
        .fold(0, u64::wrapping_add)
}

/// A duration as measured and at the reference host speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub measured_s: f64,
    pub ref_s: f64,
}

impl Timing {
    /// What a time measured during this one is multiplied by to give it
    /// at the reference host speed.
    pub fn scale(&self) -> f64 {
        if self.measured_s > 0.0 {
            self.ref_s / self.measured_s
        } else {
            1.0
        }
    }
}

/// Probe times of one run. A disabled probe (the traced run, whose
/// per-layer times are reported as measured) records nothing.
#[derive(Debug)]
pub struct HostSpeed {
    enabled: bool,
    ms: Vec<f64>,
    /// The probe that ran last, if nothing was timed after it: the
    /// "before" probe of the next [`time`](Self::time).
    last_ms: Option<f64>,
}

impl HostSpeed {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ms: Vec::new(),
            last_ms: None,
        }
    }

    /// Runs the probe once, if enabled.
    fn sample(&mut self) -> Option<f64> {
        if !self.enabled {
            return None;
        }
        let ms = run();
        self.ms.push(ms);
        self.last_ms = Some(ms);
        Some(ms)
    }

    /// Runs `f` between two probes and returns its result and duration,
    /// the latter also at the reference host speed: measured times
    /// [`REF_MS`] over the mean of the two probes. The host's speed
    /// changes within a second, so each duration is scaled by the probes
    /// either side of it; back-to-back calls share the probe between
    /// them. Disabled, both durations are the measured one.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timing) {
        let before = match self.last_ms {
            Some(ms) => Some(ms),
            None => self.sample(),
        };
        let t = Instant::now();
        let out = f();
        let measured_s = t.elapsed().as_secs_f64();
        let ref_s = match (before, self.sample()) {
            (Some(a), Some(b)) => measured_s * REF_MS / ((a + b) / 2.0),
            _ => measured_s,
        };
        (out, Timing { measured_s, ref_s })
    }

    /// The probe's median time in this run, in ms.
    pub fn median_ms(&self) -> Result<f64, String> {
        if self.ms.is_empty() {
            return Err("the host-speed probe never ran".into());
        }
        Ok(median(&sorted(self.ms.clone())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_fixed_work() {
        assert_eq!(hashing(100), hashing(100));
        assert_eq!(events(500), events(500));
        assert_eq!(ordered(300), ordered(300));
        assert!(run() > 0.0);
        let mut off = HostSpeed::new(false);
        off.time(|| ());
        assert!(off.median_ms().is_err());
    }

    #[test]
    fn timing_scales_by_the_probes_either_side() {
        let (x, t) = HostSpeed::new(false).time(|| 7);
        assert_eq!(x, 7);
        assert_eq!(t.measured_s, t.ref_s);
        assert_eq!(t.scale(), 1.0);
        let mut on = HostSpeed::new(true);
        let (_, t) = on.time(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        // One probe before, one after.
        assert_eq!(on.ms.len(), 2);
        let expected = t.measured_s * REF_MS / ((on.ms[0] + on.ms[1]) / 2.0);
        assert!((t.ref_s - expected).abs() < 1e-12);
        // The next call reuses the probe after the first.
        on.time(|| ());
        assert_eq!(on.ms.len(), 3);
    }
}
