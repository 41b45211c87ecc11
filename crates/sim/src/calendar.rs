//! The completion-event calendar for the event loop: a bucketed
//! **calendar queue** (R. Brown, CACM 1988). Events hash into a
//! power-of-two ring of unsorted buckets by `end / width`, so insert is
//! O(1) and extract-min scans forward from a cursor — O(1) amortized
//! when the bucket width tracks the mean event spacing, which the queue
//! re-derives from the live ends at every resize. Events with identical
//! (or sub-width) ends are the exception: they share one bucket however
//! the width is chosen, so popping k of them one by one rescans that
//! bucket k times, O(k²). The engine therefore never pops what is due:
//! [`CalendarQueue::drain_due`] removes every due event with one
//! `retain` per bucket the due window covers, O(k) for a k-way tie. The
//! binary heap the queue replaced survives only as this module's test
//! oracle: the unit fuzz checks every peek, pop and drain against a
//! `BinaryHeap`, resize storms included, and `tests/calendar_props.rs`
//! pins whole engine runs bit-identical to the reference engine.
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
/// factor leaves `[1/4, 2]`. A resize keeps every bucket's allocation:
/// a shrink parks the buckets it drops in `spare`, a grow takes them
/// back, so a warm queue stops allocating once its buckets have grown.
#[derive(Debug)]
pub(crate) struct CalendarQueue {
    buckets: Vec<Vec<CalEv>>,
    /// Empty buckets, capacity kept, that the ring dropped on a shrink.
    spare: Vec<Vec<CalEv>>,
    /// The live events while a resize rehashes them.
    moving: Vec<CalEv>,
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
    /// Events looked at by minimum scans and drains since the last
    /// `clear`: the work a test can pin without timing it.
    #[cfg(test)]
    pub(crate) examined: u64,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        CalendarQueue {
            buckets: vec![Vec::new(); MIN_BUCKETS],
            spare: Vec::new(),
            moving: Vec::new(),
            mask: MIN_BUCKETS - 1,
            width: 1.0,
            len: 0,
            cur: 0,
            bucket_top: 1.0,
            min_cache: None,
            #[cfg(test)]
            examined: 0,
        }
    }
}

/// `clone_from` copies the events into the target's own buckets, in
/// the same order: a bucket the source ring lacks goes to `spare`
/// emptied, one it needs comes from there, as in a resize. `spare` and
/// `moving` hold no events between calls, so they are not copied.
impl Clone for CalendarQueue {
    fn clone(&self) -> Self {
        let mut q = CalendarQueue::default();
        q.clone_from(self);
        q
    }

    fn clone_from(&mut self, src: &Self) {
        let n = src.buckets.len();
        if n < self.buckets.len() {
            self.spare.extend(self.buckets.drain(n..).map(|mut b| {
                b.clear();
                b
            }));
        } else {
            let spare = &mut self.spare;
            self.buckets
                .resize_with(n, || spare.pop().unwrap_or_default());
        }
        for (to, from) in self.buckets.iter_mut().zip(&src.buckets) {
            to.clone_from(from);
        }
        self.mask = src.mask;
        self.width = src.width;
        self.len = src.len;
        self.cur = src.cur;
        self.bucket_top = src.bucket_top;
        self.min_cache = src.min_cache;
        #[cfg(test)]
        {
            self.examined = src.examined;
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

    /// Moves every event with `end <= threshold` into `out`, in no
    /// particular order: exactly the events that popping while the
    /// minimum is due would return, including when the minimum's end is
    /// NaN, which stops collection before anything is taken. Due ends
    /// lie between the minimum's end and `threshold`, and `bucket_of`
    /// is monotone in the end, so they sit in the buckets from the
    /// minimum's to the threshold's (each bucket once when that span
    /// wraps the ring); each gets one `retain`.
    pub(crate) fn drain_due(&mut self, threshold: f64, out: &mut Vec<CalEv>) {
        let Some((b, s)) = self.find_min() else {
            return;
        };
        let min = self.buckets[b][s].end;
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(min <= threshold) {
            return;
        }
        let first = (min / self.width) as usize;
        let last = (threshold / self.width) as usize;
        let span = (last - first).saturating_add(1).min(self.buckets.len());
        let before = out.len();
        for k in 0..span {
            let bucket = &mut self.buckets[(first + k) & self.mask];
            #[cfg(test)]
            {
                self.examined += bucket.len() as u64;
            }
            bucket.retain(|&ev| {
                let due = ev.end <= threshold;
                if due {
                    out.push(ev);
                }
                !due
            });
        }
        self.len -= out.len() - before;
        self.min_cache = None;
        let mut n = self.buckets.len();
        while self.len * 4 < n && n > MIN_BUCKETS {
            n /= 2;
        }
        if n < self.buckets.len() {
            self.resize(n);
        }
    }

    /// Empties the queue in place, keeping the ring, the spare buckets,
    /// their allocations and the learned width for the next run.
    pub(crate) fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.len = 0;
        self.cur = 0;
        self.bucket_top = self.width;
        self.min_cache = None;
        #[cfg(test)]
        {
            self.examined = 0;
        }
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
            #[cfg(test)]
            {
                self.examined += self.buckets[i].len() as u64;
            }
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
        #[cfg(test)]
        {
            self.examined += self.len as u64;
        }
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
    /// cluster at one instant. With no finite live event (an emptied
    /// ring, or only infinite ends) the width is kept: there is no
    /// spacing to learn, and the clamp would read an infinite `hi`.
    ///
    /// The events move out through `moving` and back into the same
    /// bucket vectors, so no bucket allocation is lost: the ring's
    /// buckets are emptied in place, extra ones come from `spare`, and
    /// the ones a shrink drops go there.
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
        if lo <= hi {
            let spacing = if hi > lo && self.len > 1 {
                (hi - lo) / self.len as f64
            } else {
                self.width
            };
            self.width = spacing.max(f64::EPSILON * hi.abs().max(1.0));
        }
        let mut moving = std::mem::take(&mut self.moving);
        for bucket in &mut self.buckets {
            moving.append(bucket);
        }
        if new_n < self.buckets.len() {
            self.spare.extend(self.buckets.drain(new_n..));
        } else {
            let spare = &mut self.spare;
            self.buckets
                .resize_with(new_n, || spare.pop().unwrap_or_default());
        }
        self.mask = new_n - 1;
        for ev in moving.drain(..) {
            let b = self.bucket_of(ev.end);
            self.buckets[b].push(ev);
        }
        self.moving = moving;
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

        /// `drain_due` against popping the heap while the minimum is
        /// due; the drained sets must match (drain order is free).
        fn drain_due(&mut self, threshold: f64) -> usize {
            let mut want = Vec::new();
            while self.heap.peek().is_some_and(|e| e.end <= threshold) {
                let e = self.heap.pop().expect("peeked");
                want.push((e.end.to_bits(), e.token));
            }
            let mut got = Vec::new();
            self.q.drain_due(threshold, &mut got);
            let mut got: Vec<(u64, u32)> = got.iter().map(|e| (e.end.to_bits(), e.token)).collect();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "drain_due({threshold})");
            assert_eq!(self.q.len, self.heap.len(), "len after drain");
            self.after_op();
            got.len()
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
                if r.is_multiple_of(11) {
                    // Drain a window ahead of the current time: empty,
                    // ulp-wide, or spanning many buckets (or the ring).
                    let ahead = match mix(&mut state) % 4 {
                        0 => 0.0,
                        1 => 1e-9 * now.max(1.0),
                        2 => (mix(&mut state) % 1000) as f64,
                        _ => 1e7,
                    };
                    cal.drain_due(now + ahead);
                    now += ahead;
                } else if r.is_multiple_of(5) {
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
            // A drained wave: the same clusters again, taken by
            // `drain_due` at the cluster's instant, just past its
            // sub-ulp spread, then everything finite.
            for _ in 0..2_500 {
                let r = mix(&mut state);
                let end = match r % 4 {
                    0 => base,
                    1 => f64::from_bits(base.to_bits() + r % 8),
                    2 => base + (r % 1000) as f64 * 1e-12,
                    _ => f64::INFINITY,
                };
                cal.push(ev(end, tok));
                tok += 1;
            }
            assert!(cal.drain_due(base) > 0);
            assert!(cal.drain_due(base + 1e-9) > 0);
            cal.drain_due(f64::MAX);
            cal.drain_due(f64::INFINITY);
            assert_eq!(
                cal.q.len, 0,
                "infinite ends are due at an infinite threshold"
            );
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
    fn drain_due_takes_a_tie_in_linear_work_and_never_takes_nan() {
        let mut q = CalendarQueue::default();
        let k = 10_000u32;
        for t in 0..k {
            q.push(ev(7.5, t));
        }
        q.push(ev(f64::NAN, k));
        q.push(ev(9.0, k + 1));
        q.examined = 0;
        let mut out = Vec::new();
        q.drain_due(8.0, &mut out);
        assert_eq!(out.len(), k as usize);
        assert!(
            q.examined <= 3 * u64::from(k),
            "a {k}-way tie examined {} events",
            q.examined
        );
        out.clear();
        q.drain_due(f64::INFINITY, &mut out);
        assert_eq!(key(out.first().copied()), Some((9.0, k + 1)));
        assert_eq!(out.len(), 1, "a NaN end is never due");
        assert_eq!(q.len, 1);
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

    /// `clone_from` into a queue whose ring is larger or smaller than
    /// the source's gives the same pops as a fresh clone, and keeps the
    /// target's bucket allocations (a ring it shrinks parks them in
    /// `spare`).
    #[test]
    fn clone_from_matches_clone_and_keeps_buckets() {
        let mut state = 7u64;
        let mut src = CalendarQueue::default();
        for t in 0..300u32 {
            src.push(ev((mix(&mut state) % 1000) as f64 / 8.0, t));
        }
        for _ in 0..120 {
            src.pop();
        }
        let want = drain(&mut src.clone());
        for n_events in [0u32, 5, 3000] {
            let mut to = CalendarQueue::default();
            for t in 0..n_events {
                to.push(ev(f64::from(t), t));
            }
            // A cached minimum of the target's own must not survive.
            to.peek();
            let buckets = to.buckets.len() + to.spare.len();
            to.clone_from(&src);
            assert_eq!(to.buckets.len(), src.buckets.len());
            assert!(to.buckets.len() + to.spare.len() >= buckets);
            assert!(to.spare.iter().all(Vec::is_empty));
            assert_eq!(drain(&mut to), want, "target of {n_events} events");
        }
    }
}
