//! A deterministic discrete-event queue.
//!
//! Simulators schedule work "at cycle N" and repeatedly take the events of
//! the earliest pending cycle. Correct replay requires a *total* order: when
//! several events land on the same cycle they must come back in insertion
//! order (FIFO), or two runs of the same seed could diverge.
//!
//! [`EventQueue`] is a bucketed **calendar queue**: a ring of per-cycle FIFO
//! buckets covering a sliding window of upcoming cycles, with a binary-heap
//! fallback for the rare event scheduled beyond the window. Simulation
//! events are overwhelmingly near-future (compute bursts, cache and DRAM
//! latencies — all far shorter than the window), so push and drain are
//! amortized O(1) instead of the O(log n) a heap pays per memory op.
//! The previous heap-based implementation, `BinaryHeapQueue`, survives in
//! this module's tests as the calendar queue's differential oracle.

use std::collections::BinaryHeap;
use std::fmt;

use crate::ids::Cycle;

/// Cycles covered by the bucket ring (must be a power of two). Events up to
/// this far in the future take the O(1) bucket path; anything beyond spills
/// to the heap. 4096 comfortably covers every latency in the simulator
/// (DRAM round trips, full page walks, timeline sampling intervals).
const BUCKETS: usize = 4096;

/// An event in the heap fallback, ordered by `(at, seq)` so the heap pops
/// the lowest cycle first and FIFO within a cycle.
#[derive(Debug, Clone)]
struct FarEntry<T> {
    at: Cycle,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for FarEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for FarEntry<T> {}

impl<T> PartialOrd for FarEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for FarEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest
        // (cycle, seq) on top.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A calendar event queue with deterministic FIFO ordering within a cycle.
///
/// # Examples
///
/// ```
/// use walksteal_sim_core::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(3), "third");
/// q.push(Cycle(1), "first");
/// q.push(Cycle(3), "also third");
///
/// let mut batch = Vec::new();
/// assert_eq!(q.drain_cycle_into(&mut batch), Some(Cycle(1)));
/// assert_eq!(batch, ["first"]);
/// batch.clear();
/// assert_eq!(q.drain_cycle_into(&mut batch), Some(Cycle(3)));
/// assert_eq!(batch, ["third", "also third"]);
/// assert!(q.is_empty());
/// ```
pub struct EventQueue<T> {
    /// Ring of FIFO buckets; bucket `c & (BUCKETS-1)` holds the events of
    /// cycle `c` for `c` in the window `[cursor, cursor + BUCKETS)`, in
    /// insertion order. The simulator drains a bucket whole, by swapping its
    /// storage with the batch buffer. Empty until the first ringed push, so
    /// creating a queue writes no bucket headers: an access to the empty
    /// ring fails the bounds check every access pays anyway.
    buckets: Vec<Vec<T>>,
    /// Occupancy bitmap: bit `b` of `occ[b / 64]` is set iff bucket `b` is
    /// non-empty. At typical simulation densities (< 1 event per cycle)
    /// finding the next cycle would otherwise touch several empty buckets
    /// per event; the bitmap turns that scan into a couple of word
    /// operations.
    occ: [u64; BUCKETS / 64],
    /// Summary bitmap: bit `w` is set iff `occ[w]` is non-zero.
    occ_summary: u64,
    /// Total events currently in the ring.
    in_ring: usize,
    /// Base of the window. Only moves forward, and never past a non-empty
    /// bucket, so every ringed event's cycle is `>= cursor`. Because the
    /// window is exactly one ring revolution, each bucket holds events of a
    /// single cycle at a time and its FIFO order is the insertion order.
    cursor: u64,
    /// Fallback for events pushed outside the window — beyond it, or (after
    /// the window has advanced past their cycle) behind it.
    far: BinaryHeap<FarEntry<T>>,
    /// Insertion counter for FIFO tie-breaking among heap events.
    far_seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            buckets: Vec::new(),
            occ: [0; BUCKETS / 64],
            occ_summary: 0,
            in_ring: 0,
            cursor: 0,
            far: BinaryHeap::new(),
            far_seq: 0,
        }
    }

    #[inline]
    fn set_bit(&mut self, bucket: usize) {
        let w = bucket >> 6;
        self.occ[w] |= 1u64 << (bucket & 63);
        self.occ_summary |= 1u64 << w;
    }

    #[inline]
    fn clear_bit(&mut self, bucket: usize) {
        let w = bucket >> 6;
        self.occ[w] &= !(1u64 << (bucket & 63));
        if self.occ[w] == 0 {
            self.occ_summary &= !(1u64 << w);
        }
    }

    /// The cycle of the earliest ring event. Valid only while `in_ring > 0`.
    ///
    /// Every ring event's cycle is in `[cursor, cursor + BUCKETS)`, so the
    /// earliest one is the first occupied bucket at or (circularly) after
    /// the cursor's bucket; its distance from the cursor is the offset in
    /// cycles.
    #[inline]
    fn next_ring_cycle(&self) -> u64 {
        debug_assert!(self.in_ring > 0);
        let p = (self.cursor as usize) & (BUCKETS - 1);
        let (w, b) = (p >> 6, p & 63);
        // Bits at or after the cursor within its own word.
        let first = self.occ[w] >> b;
        if first != 0 {
            return self.cursor + first.trailing_zeros() as u64;
        }
        // Next occupied word strictly after `w`, circularly; the cursor's
        // word is excluded so its below-cursor bits (nearly a full window
        // away) are only considered last.
        let rotated = (self.occ_summary & !(1u64 << w)).rotate_right((w as u32 + 1) & 63);
        let dist = if rotated != 0 {
            let wi = (w + 1 + rotated.trailing_zeros() as usize) & (BUCKETS / 64 - 1);
            let bit = self.occ[wi].trailing_zeros() as usize;
            ((wi << 6) | bit).wrapping_sub(p) & (BUCKETS - 1)
        } else {
            // Only bits below the cursor in its own word remain.
            let low = self.occ[w] & ((1u64 << b) - 1);
            debug_assert!(low != 0, "in_ring > 0 but occupancy bitmap empty");
            ((w << 6) | low.trailing_zeros() as usize).wrapping_sub(p) & (BUCKETS - 1)
        };
        self.cursor + dist as u64
    }

    /// Schedules `payload` at cycle `at`.
    pub fn push(&mut self, at: Cycle, payload: T) {
        let c = at.0;
        if c >= self.cursor && c - self.cursor < BUCKETS as u64 {
            let b = (c as usize) & (BUCKETS - 1);
            match self.buckets.get_mut(b) {
                Some(bucket) => bucket.push(payload),
                None => {
                    self.buckets = (0..BUCKETS).map(|_| Vec::new()).collect();
                    self.buckets[b].push(payload);
                }
            }
            self.set_bit(b);
            self.in_ring += 1;
        } else {
            self.far.push(FarEntry {
                at,
                seq: self.far_seq,
                payload,
            });
            self.far_seq += 1;
        }
    }

    /// Removes every event due at the earliest pending cycle, appending
    /// them to `buf` in insertion order, and returns that cycle.
    ///
    /// This is the cycle-batch entry point for the simulator's hot loop:
    /// one cursor/bitmap advance and one heap peek serve the whole cycle
    /// instead of every event paying them. Events pushed *at* the drained
    /// cycle while the caller processes the batch land in the (now empty)
    /// bucket and come back from the next call, after the whole batch.
    ///
    /// When `buf` is empty and the cycle has no heap entries, the bucket's
    /// storage is swapped into `buf` and `buf`'s empty storage becomes the
    /// bucket, so no event is copied. A caller that clears `buf`
    /// between calls keeps the ring's buffers circulating; a non-empty
    /// `buf` keeps its contents, and the cycle's events are appended
    /// behind them.
    pub fn drain_cycle_into(&mut self, buf: &mut Vec<T>) -> Option<Cycle> {
        let at = self.next_cycle()?;
        let c = at.0;
        // Heap entries at this cycle are always the oldest: an event lands
        // in the heap only while its cycle is outside the window, which
        // rules out any in-window push at that cycle having come earlier.
        while self.far.peek().is_some_and(|f| f.at == at) {
            buf.push(self.far.pop().expect("peeked entry").payload);
        }
        if c < self.cursor {
            // Only the heap holds events behind the window; the cycle is
            // fully drained.
            return Some(at);
        }
        self.cursor = c;
        let b = (c as usize) & (BUCKETS - 1);
        let Some(bucket) = self.buckets.get_mut(b) else {
            return Some(at);
        };
        let n = bucket.len();
        if n > 0 {
            self.in_ring -= n;
            if buf.is_empty() {
                std::mem::swap(buf, bucket);
            } else {
                buf.append(bucket);
            }
            self.clear_bit(b);
        }
        Some(at)
    }

    /// The cycle of the earliest pending event, without removing it.
    #[must_use]
    pub fn next_cycle(&self) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        if self.in_ring > 0 {
            next = Some(Cycle(self.next_ring_cycle()));
        }
        if let Some(f) = self.far.peek() {
            if next.is_none_or(|n| n > f.at) {
                next = Some(f.at);
            }
        }
        next
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.in_ring + self.far.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("next_cycle", &self.next_cycle())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// The previous heap-based event queue: the same total order as
    /// [`EventQueue`] (cycle, then insertion), kept as the calendar queue's
    /// reference model.
    struct BinaryHeapQueue<T> {
        heap: BinaryHeap<FarEntry<T>>,
        next_seq: u64,
    }

    impl<T> BinaryHeapQueue<T> {
        fn new() -> Self {
            BinaryHeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        fn push(&mut self, at: Cycle, payload: T) {
            self.heap.push(FarEntry {
                at,
                seq: self.next_seq,
                payload,
            });
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<(Cycle, T)> {
            self.heap.pop().map(|e| (e.at, e.payload))
        }

        fn next_cycle(&self) -> Option<Cycle> {
            self.heap.peek().map(|e| e.at)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    /// Drains the earliest pending cycle into a fresh batch.
    fn drain<T>(q: &mut EventQueue<T>) -> Option<(Cycle, Vec<T>)> {
        let mut buf = Vec::new();
        q.drain_cycle_into(&mut buf).map(|at| (at, buf))
    }

    #[test]
    fn orders_by_cycle() {
        let mut q = EventQueue::new();
        q.push(Cycle(30), "c");
        q.push(Cycle(10), "a");
        q.push(Cycle(20), "b");
        assert_eq!(drain(&mut q), Some((Cycle(10), vec!["a"])));
        assert_eq!(drain(&mut q), Some((Cycle(20), vec!["b"])));
        assert_eq!(drain(&mut q), Some((Cycle(30), vec!["c"])));
        assert_eq!(drain(&mut q), None);
    }

    #[test]
    fn fifo_within_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(7), i);
        }
        assert_eq!(drain(&mut q), Some((Cycle(7), (0..100).collect())));
    }

    #[test]
    fn interleaved_pushes_and_drains() {
        let mut q = EventQueue::new();
        q.push(Cycle(1), 'a');
        q.push(Cycle(3), 'c');
        assert_eq!(drain(&mut q), Some((Cycle(1), vec!['a'])));
        q.push(Cycle(2), 'b');
        q.push(Cycle(3), 'd');
        assert_eq!(drain(&mut q), Some((Cycle(2), vec!['b'])));
        assert_eq!(drain(&mut q), Some((Cycle(3), vec!['c', 'd'])));
        assert_eq!(drain(&mut q), None);
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        q.push(Cycle(1), ());
        q.push(Cycle(2), ());
        assert!(!q.is_empty());
        assert_eq!(q.len(), 2);
        drain(&mut q);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn next_cycle_peeks_without_draining() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_cycle(), None);
        q.push(Cycle(9), 1);
        q.push(Cycle(4), 2);
        assert_eq!(q.next_cycle(), Some(Cycle(4)));
        assert_eq!(q.len(), 2);
        drain(&mut q);
        assert_eq!(q.next_cycle(), Some(Cycle(9)));
    }

    #[test]
    fn debug_is_nonempty() {
        let mut q = EventQueue::new();
        q.push(Cycle(5), 1);
        let dbg = format!("{q:?}");
        assert!(dbg.contains("pending"), "{dbg}");
        assert!(dbg.contains('5'), "{dbg}");
    }

    #[test]
    fn far_future_events_spill_to_heap_and_return_in_order() {
        let mut q = EventQueue::new();
        let far = BUCKETS as u64 * 10;
        q.push(Cycle(far), "far");
        q.push(Cycle(far), "far2");
        q.push(Cycle(3), "near");
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_cycle(), Some(Cycle(3)));
        assert_eq!(drain(&mut q), Some((Cycle(3), vec!["near"])));
        assert_eq!(q.next_cycle(), Some(Cycle(far)));
        assert_eq!(drain(&mut q), Some((Cycle(far), vec!["far", "far2"])));
        assert_eq!(drain(&mut q), None);
    }

    #[test]
    fn bucket_wrap_reuses_slots_across_revolutions() {
        // Same bucket index, different revolutions of the ring.
        let mut q = EventQueue::new();
        q.push(Cycle(5), "rev0");
        assert_eq!(drain(&mut q), Some((Cycle(5), vec!["rev0"])));
        let next_rev = 5 + BUCKETS as u64;
        q.push(Cycle(next_rev), "rev1");
        q.push(Cycle(6), "same rev");
        assert_eq!(drain(&mut q), Some((Cycle(6), vec!["same rev"])));
        assert_eq!(drain(&mut q), Some((Cycle(next_rev), vec!["rev1"])));
    }

    #[test]
    fn drain_cycle_returns_whole_cycle_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(5), 1);
        q.push(Cycle(5), 2);
        q.push(Cycle(9), 3);
        let mut buf = Vec::new();
        assert_eq!(q.drain_cycle_into(&mut buf), Some(Cycle(5)));
        assert_eq!(buf, [1, 2]);
        buf.clear();
        // A push at the drained cycle while "processing" comes back from
        // the next call, before later cycles.
        q.push(Cycle(5), 4);
        assert_eq!(q.drain_cycle_into(&mut buf), Some(Cycle(5)));
        assert_eq!(buf, [4]);
        buf.clear();
        assert_eq!(q.drain_cycle_into(&mut buf), Some(Cycle(9)));
        assert_eq!(buf, [3]);
        buf.clear();
        assert_eq!(q.drain_cycle_into(&mut buf), None);
    }

    #[test]
    fn drain_cycle_merges_heap_and_ring_heap_first() {
        // A far-future push lands in the heap; once the window reaches its
        // cycle, a fresh push at the same cycle lands in a bucket. The heap
        // event is older and must come first.
        let mut q = EventQueue::new();
        let c = BUCKETS as u64 + 100;
        q.push(Cycle(c), "old (heap)");
        // Drain a nearer event to drag the cursor forward to c.
        q.push(Cycle(c - 1), "nearer");
        assert_eq!(drain(&mut q), Some((Cycle(c - 1), vec!["nearer"])));
        q.push(Cycle(c), "new (ring)");
        assert_eq!(
            drain(&mut q),
            Some((Cycle(c), vec!["old (heap)", "new (ring)"]))
        );
    }

    /// Random pushes and cycle drains against the reference model popped
    /// one event at a time, comparing every drained event, `next_cycle` and
    /// `len` at each step. About a quarter of the drains keep the previous
    /// batches in `buf` (the append path); `buf` must then hold every event
    /// drained since it was last cleared, in reference order.
    fn differential_drain_run(seed: u64, ops: usize, horizon: u64) {
        let mut rng = SimRng::new(seed);
        let mut calendar = EventQueue::new();
        let mut reference = BinaryHeapQueue::new();
        let mut now = 0u64;
        let mut next_id = 0u64;
        let mut buf = Vec::new();
        let mut want = Vec::new();
        let mut appends = 0;
        for _ in 0..ops {
            if rng.chance(0.7) || calendar.is_empty() {
                let at = Cycle(now + rng.next_below(horizon));
                calendar.push(at, next_id);
                reference.push(at, next_id);
                next_id += 1;
            } else {
                if rng.chance(0.25) && !buf.is_empty() {
                    appends += 1;
                } else {
                    buf.clear();
                    want.clear();
                }
                assert_eq!(calendar.next_cycle(), reference.next_cycle());
                let at = calendar.drain_cycle_into(&mut buf).expect("non-empty");
                now = at.0;
                assert!(buf.len() > want.len(), "drained an empty cycle");
                while want.len() < buf.len() {
                    let (rat, id) = reference.pop().expect("reference non-empty");
                    assert_eq!(rat, at);
                    want.push(id);
                }
                assert_eq!(buf, want);
                assert_eq!(calendar.len(), reference.len());
                // The drain must have taken the whole cycle.
                assert_ne!(calendar.next_cycle(), Some(at));
            }
        }
        assert!(appends > 0, "no drain took the append path");
        // Drain both to the end.
        buf.clear();
        while let Some(at) = calendar.drain_cycle_into(&mut buf) {
            for id in buf.drain(..) {
                assert_eq!(reference.pop(), Some((at, id)));
            }
        }
        assert_eq!(reference.len(), 0);
    }

    #[test]
    fn drain_cycle_matches_reference_model() {
        for seed in 400..404 {
            differential_drain_run(seed, 4_000, 300);
        }
        for seed in 404..408 {
            differential_drain_run(seed, 4_000, 4);
        }
        for seed in 408..412 {
            differential_drain_run(seed, 4_000, BUCKETS as u64 * 3);
        }
        for seed in 412..416 {
            differential_drain_run(seed, 4_000, BUCKETS as u64 - 1);
        }
    }
}
