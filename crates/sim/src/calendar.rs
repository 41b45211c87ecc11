//! The completion-event calendar for the event loop: a bucketed
//! **calendar queue** (R. Brown, CACM 1988). Events hash into a
//! power-of-two ring of unsorted buckets by `end / width`, so insert is
//! O(1) and extract-min scans forward from a cursor — O(1) amortized
//! when the bucket width tracks the mean event spacing, which the queue
//! re-derives from the live ends at every resize. The binary heap it
//! replaced survives only as this module's test oracle: the unit fuzz
//! checks every peek and pop against a `BinaryHeap`, resize storms
//! included, and `tests/calendar_props.rs` pins whole engine runs
//! bit-identical to the reference engine.
//!
//! Why the calendar's internals cannot affect results: the engine never
//! relies on pop *order* beyond the minimum end value — `collect_due`
//! drains every event within the tolerance window into a
//! position-ordered pending set before any completion is processed, and
//! events with bit-equal ends land in the same bucket, where the token
//! tiebreak reproduces the heap's total order locally.

/// A calendar entry: an activity's known completion time. Popped in
/// `(end, token)` order (the token tiebreak makes it total). Flow
/// entries are not removed on rate change; they are lazily discarded
/// when popped with an `end` that no longer matches the flow's cached
/// one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CalEv {
    pub(crate) end: f64,
    pub(crate) token: u32,
}

/// `(end, token)` strictly-less, in min-first orientation.
fn ev_lt(a: CalEv, b: CalEv) -> bool {
    a.end
        .total_cmp(&b.end)
        .then_with(|| a.token.cmp(&b.token))
        .is_lt()
}

/// Smallest bucket ring; also the shrink floor.
const MIN_BUCKETS: usize = 16;

/// A bucketed calendar queue. Buckets are unsorted; the dequeue cursor
/// remembers which bucket the current "year" scan reached and events map
/// to buckets by `(end / width) mod nbuckets`. The ring resizes (and
/// re-derives `width` from the observed event spacing) whenever the load
/// factor leaves `[1/4, 2]`.
#[derive(Debug, Clone)]
pub(crate) struct CalendarQueue {
    buckets: Vec<Vec<CalEv>>,
    /// `buckets.len() - 1`; the ring size is a power of two.
    mask: usize,
    /// Seconds of simulated time each bucket covers.
    width: f64,
    len: usize,
    /// The bucket the next extract-min scan starts from.
    cur: usize,
    /// Upper time edge of `cur`'s window in the current year. Invariant:
    /// every live event's end is `>= bucket_top - width` (pushes below
    /// the window move the cursor back), so the forward year scan cannot
    /// miss the minimum.
    bucket_top: f64,
    /// Cached location of the current minimum `(bucket, slot)`;
    /// invalidated by pop and resize, maintained by push.
    min_cache: Option<(usize, usize)>,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        CalendarQueue {
            buckets: vec![Vec::new(); MIN_BUCKETS],
            mask: MIN_BUCKETS - 1,
            width: 1.0,
            len: 0,
            cur: 0,
            bucket_top: 1.0,
            min_cache: None,
        }
    }
}

impl CalendarQueue {
    fn bucket_of(&self, end: f64) -> usize {
        // The `f64 -> usize` cast saturates (and maps NaN to 0), so
        // non-finite or absurd ends still land in *some* bucket; the
        // direct-search fallback finds them regardless of window math.
        (end / self.width) as usize & self.mask
    }

    /// Moves the cursor to the window containing `end` (or the ring
    /// start for non-finite `end`), preserving the scan invariant.
    fn reposition(&mut self, end: f64) {
        if end.is_finite() {
            let t = (end / self.width).floor();
            self.cur = t as usize & self.mask;
            self.bucket_top = (t + 1.0) * self.width;
        } else {
            self.cur = 0;
            self.bucket_top = self.width;
        }
    }

    pub(crate) fn push(&mut self, ev: CalEv) {
        if self.len >= self.buckets.len() * 2 {
            self.resize(self.buckets.len() * 2);
        }
        // An event below the cursor's window (possible when tolerance
        // popping ran slightly ahead of a subsequent spawn) moves the
        // cursor back; scanning from too early is slower, never wrong.
        if ev.end < self.bucket_top - self.width {
            self.reposition(ev.end);
        }
        let b = self.bucket_of(ev.end);
        self.buckets[b].push(ev);
        self.len += 1;
        if let Some((mb, ms)) = self.min_cache {
            if ev_lt(ev, self.buckets[mb][ms]) {
                self.min_cache = Some((b, self.buckets[b].len() - 1));
            }
        }
    }

    pub(crate) fn peek(&mut self) -> Option<CalEv> {
        self.find_min().map(|(b, s)| self.buckets[b][s])
    }

    pub(crate) fn pop(&mut self) -> Option<CalEv> {
        let (b, s) = self.find_min()?;
        let ev = self.buckets[b].swap_remove(s);
        self.len -= 1;
        self.min_cache = None;
        if self.len * 4 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        }
        Some(ev)
    }

    /// Empties the queue in place, keeping the ring and per-bucket
    /// allocations (and the learned width) for the next run.
    pub(crate) fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.len = 0;
        self.cur = 0;
        self.bucket_top = self.width;
        self.min_cache = None;
    }

    /// Locates the minimum event: one "year" scan from the cursor, then
    /// a direct search over everything (the fallback that makes sparse
    /// or pathological float distributions merely slow, never wrong).
    fn find_min(&mut self) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        if self.min_cache.is_some() {
            return self.min_cache;
        }
        let n = self.buckets.len();
        let mut i = self.cur;
        let mut top = self.bucket_top;
        for _ in 0..n {
            let mut best: Option<(usize, CalEv)> = None;
            for (s, &ev) in self.buckets[i].iter().enumerate() {
                if ev.end < top && best.is_none_or(|(_, b)| ev_lt(ev, b)) {
                    best = Some((s, ev));
                }
            }
            if let Some((s, _)) = best {
                self.cur = i;
                self.bucket_top = top;
                self.min_cache = Some((i, s));
                return self.min_cache;
            }
            i = (i + 1) & self.mask;
            top += self.width;
        }
        let mut best: Option<(usize, usize, CalEv)> = None;
        for (bi, bucket) in self.buckets.iter().enumerate() {
            for (s, &ev) in bucket.iter().enumerate() {
                if best.is_none_or(|(_, _, b)| ev_lt(ev, b)) {
                    best = Some((bi, s, ev));
                }
            }
        }
        let (bi, s, ev) = best.expect("len > 0 implies a minimum exists");
        self.reposition(ev.end);
        self.min_cache = Some((bi, s));
        self.min_cache
    }

    /// Rebuilds the ring at `new_n` buckets with a width re-derived from
    /// the observed spacing of the live events (range / count), clamped
    /// away from zero so bucket indexing stays meaningful when events
    /// cluster at one instant.
    fn resize(&mut self, new_n: usize) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for bucket in &self.buckets {
            for ev in bucket {
                if ev.end.is_finite() {
                    lo = lo.min(ev.end);
                    hi = hi.max(ev.end);
                }
            }
        }
        let spacing = if hi > lo && self.len > 1 {
            (hi - lo) / self.len as f64
        } else {
            self.width
        };
        self.width = spacing.max(f64::EPSILON * hi.abs().max(1.0));
        let old = std::mem::replace(&mut self.buckets, vec![Vec::new(); new_n]);
        self.mask = new_n - 1;
        for bucket in old {
            for ev in bucket {
                let b = self.bucket_of(ev.end);
                self.buckets[b].push(ev);
            }
        }
        self.min_cache = None;
        self.reposition(if lo.is_finite() { lo } else { f64::INFINITY });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    // The heap oracle's ordering: `BinaryHeap` is a max-heap, so the
    // comparison is reversed to pop the earliest `(end, token)` first.
    impl PartialEq for CalEv {
        fn eq(&self, other: &Self) -> bool {
            self.token == other.token && self.end.total_cmp(&other.end).is_eq()
        }
    }
    impl Eq for CalEv {}
    impl PartialOrd for CalEv {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for CalEv {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .end
                .total_cmp(&self.end)
                .then_with(|| other.token.cmp(&self.token))
        }
    }

    fn ev(end: f64, token: u32) -> CalEv {
        CalEv { end, token }
    }

    fn key(e: Option<CalEv>) -> Option<(f64, u32)> {
        e.map(|e| (e.end, e.token))
    }

    /// Drains a queue, returning `(end, token)` pairs in pop order.
    fn drain(q: &mut CalendarQueue) -> Vec<(f64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.end, e.token));
        }
        out
    }

    /// The queue under test and the binary-heap oracle driven in
    /// lockstep: every push goes to both, and every pop and peek must
    /// agree. Also counts ring resizes, so tests can assert they
    /// exercised them.
    struct Lockstep {
        q: CalendarQueue,
        heap: BinaryHeap<CalEv>,
        ring: usize,
        grows: usize,
        shrinks: usize,
    }

    impl Lockstep {
        fn new() -> Self {
            Lockstep {
                q: CalendarQueue::default(),
                heap: BinaryHeap::new(),
                ring: MIN_BUCKETS,
                grows: 0,
                shrinks: 0,
            }
        }

        fn push(&mut self, e: CalEv) {
            self.q.push(e);
            self.heap.push(e);
            self.after_op();
        }

        fn pop(&mut self) -> Option<CalEv> {
            let (a, b) = (self.heap.pop(), self.q.pop());
            assert_eq!(key(a), key(b), "pop");
            self.after_op();
            a
        }

        fn after_op(&mut self) {
            assert_eq!(key(self.heap.peek().copied()), key(self.q.peek()), "peek");
            let n = self.q.buckets.len();
            self.grows += usize::from(n > self.ring);
            self.shrinks += usize::from(n < self.ring);
            self.ring = n;
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
        }
    }

    /// splitmix64, for dependency-free deterministic fuzz.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn pops_in_end_then_token_order() {
        let mut q = CalendarQueue::default();
        for (end, token) in [(5.0, 1), (1.0, 2), (5.0, 0), (0.5, 3), (2.5, 4)] {
            q.push(ev(end, token));
        }
        assert_eq!(
            drain(&mut q),
            vec![(0.5, 3), (1.0, 2), (2.5, 4), (5.0, 0), (5.0, 1)]
        );
        assert!(q.pop().is_none());
    }

    #[test]
    fn matches_heap_on_fuzzed_interleavings() {
        let mut state = 0xC0FF_EE00_u64;
        for _ in 0..50 {
            let mut cal = Lockstep::new();
            let mut now = 0.0f64;
            let n_ops = 20 + (mix(&mut state) % 400) as usize;
            for tok in 0..n_ops as u32 {
                let r = mix(&mut state);
                if r.is_multiple_of(5) {
                    // Interleave pops; both must agree at every step.
                    if let Some(e) = cal.pop() {
                        if e.end.is_finite() {
                            now = now.max(e.end);
                        }
                    }
                } else {
                    // Mixed scales: sub-second to ~1e6 s, plus bit-equal
                    // duplicate ends and occasional infinities.
                    let end = match r % 7 {
                        0 => now, // born-done events at the current time
                        1 => f64::INFINITY,
                        2 => now + (mix(&mut state) % 1000) as f64 * 1e-9,
                        3 => now + (mix(&mut state) % 1000) as f64 * 1e6,
                        _ => now + (mix(&mut state) % 1_000_000) as f64 * 1e-3,
                    };
                    cal.push(ev(end, tok));
                }
            }
            cal.drain();
        }

        // Resize storm: waves of 2,500 clustered, ulp-adjacent,
        // sub-ulp-spaced and infinite ends with interleaved pops, each
        // drained almost empty with interleaved pushes, so the ring grows
        // and shrinks several times.
        let mut cal = Lockstep::new();
        let mut tok = 0u32;
        for wave in 1..=4 {
            let base = wave as f64 * 1e6;
            for _ in 0..2_500 {
                let r = mix(&mut state);
                let end = match r % 5 {
                    0 => base,
                    1 => f64::from_bits(base.to_bits() + r % 8),
                    // ulp(1e6) is ~1.2e-10, so these collapse onto a few
                    // distinct values.
                    2 => base + (r % 1000) as f64 * 1e-12,
                    3 => f64::INFINITY,
                    _ => base + (r % 10_000) as f64 * 1e-3,
                };
                cal.push(ev(end, tok));
                tok += 1;
                if r.is_multiple_of(7) {
                    cal.pop();
                }
            }
            while cal.q.len > 8 {
                let e = cal.pop().expect("non-empty");
                if mix(&mut state).is_multiple_of(9) && e.end.is_finite() {
                    cal.push(ev(e.end, tok));
                    tok += 1;
                }
            }
        }
        cal.drain();
        assert!(
            cal.grows >= 4 && cal.shrinks >= 4,
            "storm resized too little: {} grows, {} shrinks",
            cal.grows,
            cal.shrinks
        );
    }

    #[test]
    fn push_below_cursor_window_is_found() {
        let mut q = CalendarQueue::default();
        // Advance the cursor deep into the ring...
        for t in 0..40u32 {
            q.push(ev(t as f64 * 3.7, t));
        }
        for _ in 0..39 {
            q.pop();
        }
        let high = q.peek().unwrap();
        // ...then insert an event earlier than the cursor's window.
        q.push(ev(high.end - 2.0, 1000));
        assert_eq!(q.pop().unwrap().token, 1000);
        assert_eq!(q.pop().unwrap().token, high.token);
    }

    #[test]
    fn infinities_and_clustered_ends_survive_resizes() {
        let mut q = CalendarQueue::default();
        // All at one instant (degenerate spacing) plus infinities: grow
        // and shrink through several resizes.
        for t in 0..200u32 {
            let end = if t % 10 == 0 { f64::INFINITY } else { 42.0 };
            q.push(ev(end, t));
        }
        let mut last = f64::NEG_INFINITY;
        let mut count = 0;
        while let Some(e) = q.pop() {
            assert!(e.end >= last);
            last = e.end;
            count += 1;
        }
        assert_eq!(count, 200);
        assert!(last.is_infinite());
    }
}
