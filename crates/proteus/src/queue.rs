//! The simulator's event queue.
//!
//! The discrete-event loop needs exactly one ordering guarantee: events
//! pop in `(time, push-order)` order — earliest timestamp first, ties
//! broken by insertion sequence. [`EventQueue`] is the one production
//! implementation of that contract, for every processor count; a plain
//! `(time, seq)` binary heap (`HeapQueue`, compiled for tests only) is
//! the oracle the unit tests and the simulator differential suite hold
//! it to.
//!
//! The queue sorts only what needs sorting. It has three parts, merged
//! on `pop` by `(time, global push sequence)`:
//!
//! * [`LANES`] FIFO **lanes** for constant-delay events;
//! * a **bucket wheel** for everything else within the ring's span;
//! * a **far spill** (a small binary heap) for events beyond it.
//!
//! Every push, whichever part takes it, draws the next number of one
//! global sequence, so the merged pop stream is *by construction* the
//! stream a `(time, seq)` heap produces. [`Queue::next_time`] reads the
//! earliest pending time in O(1) — the lane front and the wheel minimum
//! are both cached — which is how the simulator knows an event it is
//! about to schedule would be the next pop, and runs it instead.
//!
//! # The lanes
//!
//! Simulated time only moves forward, and some event classes are always
//! scheduled a run-constant delay ahead of "now" (a toggle's critical
//! section, a prism's spin window). Such a class is already in
//! `(time, push-order)` order at the moment it is pushed: it needs a
//! FIFO, not a priority queue. [`Queue::push_lane`] appends to a ring
//! buffer and `pop` compares the lanes' front entries with the wheel's
//! cached earliest time — no bucket, no bitmap, no slab cell. On the
//! paper's Figure 5 cells 15 of a bitonic operation's 32 events and up
//! to 10 of a diffracting-tree operation's 17 ride a lane; the wheel is
//! left with the wire arrivals, the one class whose delay is random.
//! Two lanes measured best: a third for the `+1` re-injection cost
//! more in the merge than it saved.
//!
//! # The wheel
//!
//! `push(t, ev)` appends to ring bucket `t & mask` and `pop` drains the
//! bucket at `base` FIFO. Because the push sequence is monotone, FIFO
//! order *within a time bucket* is exactly push-sequence order; a
//! bucket entry's sequence number is read only when its time ties with
//! a lane's front entry.
//!
//! Buckets are not `Vec`s: all queued events live in one small slab
//! (`(event, seq, next)` entries threaded through a free list), and a
//! bucket is just a `(head, tail)` index pair. The slab holds only the
//! *pending* events — a few hundred entries that stay hot in L1 — and
//! is pre-sized from the pending hint, so steady state allocates
//! nothing. An earlier ring-of-`Vec`s design kept 24-byte `Vec` headers
//! per bucket; at the horizons the paper's `W = 100 000` rows need,
//! those headers outgrow L2 and every push became a cold miss,
//! measurably *slower* than the heap it replaced.
//!
//! Advancing across empty buckets is the classic calendar-queue
//! weakness, so the wheel keeps a two-level occupancy bitmap: one bit
//! per bucket, one summary bit per 64-bucket word. The time of the
//! wheel's earliest event is cached: a push lowers it, and the pop that
//! empties a bucket finds the next occupied one with a handful of
//! `trailing_zeros` scans — once, not again inside the next `pop`.
//!
//! # The far spill
//!
//! The ring is capped at [`MAX_RING`] buckets (128 KiB of head/tail
//! pairs). A push farther ahead than the ring spans — only the
//! injected-delay arrivals of a large-`W` run ever are — goes to a
//! small binary heap of [`FarEntry`]s keyed on `(time, seq)`, and
//! migrates into the ring when `base` advances within range. (The old
//! `QEntry` derived `PartialEq` over the payload too, violating the
//! `Ord` contract; `FarEntry` derives every comparison from the same
//! key.)
//!
//! Mixed orderings stay exact:
//!
//! * far/far ties pop in `seq` = push order;
//! * far/near ties cannot invert: events are only pushed while the
//!   simulator handles an event at `base`, and a near push at time `t`
//!   needs `t - base <= mask` — but every move of `base`, whether the
//!   popped event came from the wheel or from a lane, first migrates
//!   all far events within `base + mask`, so the far event is already
//!   in bucket `t`, ahead of the newcomer;
//! * lane/wheel ties compare sequence numbers, after that migration,
//!   so the wheel's candidate is always at the head of a ring bucket.
//!
//! The unit tests pin this by differentially fuzzing the queue against
//! the heap oracle across mixed lane/near/same-tick/far schedules.

use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Largest bucket ring the wheel will allocate: 2^14 head/tail pairs
/// is 128 KiB — comfortably L2-resident, and wide enough that every
/// non-delay schedule (links, jitter, toggles, counters, prism
/// windows, fabric queues) lands in the ring even when `W` does not.
pub(crate) const MAX_RING: u64 = 1 << 14;

/// Constant-delay FIFO lanes beside the wheel (see the module docs).
pub(crate) const LANES: usize = 2;

/// Most slab cells and lane slots reserved up front. The pending hint
/// is one per token slot, and an open-loop run has a slot per
/// *operation*; beyond this the buffers grow on demand.
const MAX_PRESIZE: usize = 1 << 10;

/// "Empty" sentinel in bucket lists and the slab free list.
const NIL: u32 = u32::MAX;

/// "No pending event" in the cached earliest times.
const NEVER: u64 = u64::MAX;

/// The deterministic event-queue contract: `pop` returns events in
/// `(time, push-order)` order, and `push` must never schedule into the
/// past (before the last popped time).
pub(crate) trait Queue<T: Copy>: Sized {
    /// Builds a queue for schedules up to `horizon` cycles ahead of
    /// the current pop time, expecting roughly `pending_hint`
    /// simultaneously pending events.
    fn with_horizon(horizon: u64, pending_hint: usize) -> Self;
    /// Schedules `ev` at `time` (which must not be in the past).
    fn push(&mut self, time: u64, ev: T);
    /// [`push`](Queue::push) for an event whose delay from the current
    /// pop time is the same for every event pushed through `lane`
    /// (`lane < LANES`), so the lane's times never decrease. The pop
    /// order is that of `push`; a queue with no lanes needs no more.
    #[inline]
    fn push_lane(&mut self, lane: usize, time: u64, ev: T) {
        debug_assert!(lane < LANES);
        self.push(time, ev);
    }
    /// Removes and returns the earliest event (ties in push order).
    fn pop(&mut self) -> Option<(u64, T)>;
    /// The time of the earliest pending event, `u64::MAX` when none is
    /// pending. An event pushed at a time strictly before it would be
    /// the next pop.
    fn next_time(&self) -> u64;
    /// Number of pending events, lanes included, in O(1); the
    /// observability layer samples it for the queue-depth histogram.
    fn len(&self) -> usize;
}

/// A heap entry, ordered by `(time, seq)` only.
///
/// Every comparison trait is derived from the same key, so
/// `a == b ⟺ a.cmp(&b) == Equal` holds — the `Ord`-contract fix for
/// the old `QEntry`, whose derived `PartialEq` also compared the
/// payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FarEntry<T> {
    time: u64,
    seq: u64,
    ev: T,
}

impl<T> PartialEq for FarEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<T> Eq for FarEntry<T> {}

impl<T> Ord for FarEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<T> PartialOrd for FarEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The oracle: a plain binary heap on `(time, seq)`, the contract
/// written down. Test-only — production runs go through
/// [`EventQueue`] at every processor count.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<FarEntry<T>>>,
    seq: u64,
    /// Last popped time, backing the past-push assertion.
    base: u64,
}

#[cfg(test)]
impl<T: Copy> Queue<T> for HeapQueue<T> {
    fn with_horizon(_horizon: u64, _pending_hint: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            base: 0,
        }
    }

    fn push(&mut self, time: u64, ev: T) {
        debug_assert!(time >= self.base, "event scheduled in the past");
        self.heap.push(Reverse(FarEntry {
            time,
            seq: self.seq,
            ev,
        }));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, T)> {
        let Reverse(e) = self.heap.pop()?;
        self.base = e.time;
        Some((e.time, e.ev))
    }

    fn next_time(&self) -> u64 {
        self.heap.peek().map_or(NEVER, |Reverse(e)| e.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// One slab cell: a queued event, its push sequence number and the
/// next cell in its bucket.
#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    ev: T,
    next: u32,
    seq: u64,
}

/// The production queue: constant-delay lanes, a bucket wheel and a
/// far-event spill (see the module docs).
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    /// Constant-delay events as `(time, seq, event)`, each lane in
    /// push order and therefore in `(time, seq)` order.
    lanes: [VecDeque<(u64, u64, T)>; LANES],
    /// The lane whose front entry is the earliest, and that entry's
    /// `(time, seq)` — `(NEVER, NEVER)` when every lane is empty.
    /// Re-read when a lane's front changes, not on every `pop`: a pop
    /// that chose among both lanes *and* the wheel measured 14 % slower
    /// on the diffracting-tree cells than one that compares this
    /// cached winner with the wheel.
    lane: usize,
    lane_key: (u64, u64),
    /// First slab index of each bucket's FIFO (`NIL` = empty).
    heads: Vec<u32>,
    /// Last slab index of each bucket's FIFO.
    tails: Vec<u32>,
    /// All pending near events, threaded through `next`.
    slab: Vec<Entry<T>>,
    /// Head of the slab free list.
    free: u32,
    /// One occupancy bit per bucket.
    words: Vec<u64>,
    /// One summary bit per `words` entry.
    summary: Vec<u64>,
    mask: u64,
    /// The last popped time: every ring event lies in
    /// `base..=base + mask`, every far event beyond.
    base: u64,
    /// Time of the earliest event in ring and far spill together
    /// (`NEVER` when both are empty).
    wheel_min: u64,
    /// Pending events: lanes, ring and far spill together.
    len: usize,
    /// The next push's sequence number, shared by all three parts.
    seq: u64,
    /// Spill for events farther than `mask` cycles ahead.
    far: BinaryHeap<Reverse<FarEntry<T>>>,
}

impl<T: Copy> Queue<T> for EventQueue<T> {
    fn with_horizon(horizon: u64, pending_hint: usize) -> Self {
        // a ring of `capacity` buckets can absorb deltas up to
        // `capacity - 1`; the floor of 64 keeps the bitmap arithmetic
        // word-aligned
        let capacity = (horizon + 1).next_power_of_two().clamp(64, MAX_RING) as usize;
        let words = capacity / 64;
        let presize = pending_hint.min(MAX_PRESIZE);
        EventQueue {
            lanes: std::array::from_fn(|_| VecDeque::with_capacity(presize)),
            lane: 0,
            lane_key: (NEVER, NEVER),
            heads: vec![NIL; capacity],
            tails: vec![NIL; capacity],
            slab: Vec::with_capacity(presize),
            free: NIL,
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            mask: capacity as u64 - 1,
            base: 0,
            wheel_min: NEVER,
            len: 0,
            seq: 0,
            far: BinaryHeap::new(),
        }
    }

    #[inline]
    fn push(&mut self, time: u64, ev: T) {
        debug_assert!(time >= self.base, "event scheduled in the past");
        let seq = self.admit();
        if time - self.base <= self.mask {
            self.push_near(time, seq, ev);
        } else {
            self.far.push(Reverse(FarEntry { time, seq, ev }));
        }
        self.wheel_min = self.wheel_min.min(time);
    }

    #[inline]
    fn push_lane(&mut self, lane: usize, time: u64, ev: T) {
        debug_assert!(time >= self.base, "event scheduled in the past");
        debug_assert!(
            self.lanes[lane].back().is_none_or(|&(t, ..)| t <= time),
            "lane {lane} went back in time: its delay is not a constant"
        );
        let seq = self.admit();
        let was_empty = self.lanes[lane].is_empty();
        self.lanes[lane].push_back((time, seq, ev));
        if was_empty {
            self.pick_lane();
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        let lane_key = self.lane_key;
        let time = lane_key.0.min(self.wheel_min);
        if time != self.base {
            self.base = time;
            self.migrate_far();
        }
        self.len -= 1;
        // the wheel's sequence number is looked up only on a time tie;
        // after the migration its earliest event heads bucket `time`
        let from_wheel = self.wheel_min < lane_key.0
            || (self.wheel_min == lane_key.0 && self.ring_head_seq() < lane_key.1);
        let ev = if from_wheel {
            self.pop_ring()
        } else {
            let (_, _, ev) = self.lanes[self.lane]
                .pop_front()
                .expect("the cached front is an entry");
            self.pick_lane();
            ev
        };
        Some((time, ev))
    }

    /// O(1): both minima are cached.
    #[inline]
    fn next_time(&self) -> u64 {
        self.lane_key.0.min(self.wheel_min)
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }
}

/// A lane's front `(time, seq)`, or `(NEVER, NEVER)` when it is empty.
#[inline]
fn lane_front<T>(lane: &VecDeque<(u64, u64, T)>) -> (u64, u64) {
    lane.front().map_or((NEVER, NEVER), |&(t, s, _)| (t, s))
}

impl<T: Copy> EventQueue<T> {
    /// Re-caches the earlier of the lane fronts, by `(time, seq)`.
    #[inline]
    fn pick_lane(&mut self) {
        let (mut lane, mut lane_key) = (0, lane_front(&self.lanes[0]));
        for i in 1..LANES {
            let key = lane_front(&self.lanes[i]);
            if key < lane_key {
                (lane, lane_key) = (i, key);
            }
        }
        (self.lane, self.lane_key) = (lane, lane_key);
    }

    /// Counts one more pending event and hands out its sequence
    /// number.
    #[inline]
    fn admit(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        seq
    }

    #[inline]
    fn push_near(&mut self, time: u64, seq: u64, ev: T) {
        let idx = (time & self.mask) as usize;
        let entry = Entry { ev, next: NIL, seq };
        // take a slab cell from the free list, or grow
        let cell = if self.free != NIL {
            let c = self.free;
            self.free = self.slab[c as usize].next;
            self.slab[c as usize] = entry;
            c
        } else {
            self.slab.push(entry);
            (self.slab.len() - 1) as u32
        };
        if self.heads[idx] == NIL {
            self.heads[idx] = cell;
            self.words[idx >> 6] |= 1 << (idx & 63);
            self.summary[idx >> 12] |= 1 << ((idx >> 6) & 63);
        } else {
            self.slab[self.tails[idx] as usize].next = cell;
        }
        self.tails[idx] = cell;
    }

    /// Moves every far event the ring can now hold into it. Called
    /// whenever `base` moves; the migration invariant (all far events
    /// within `base + mask` are in the ring) is what keeps far/near
    /// ties in push order.
    #[inline]
    fn migrate_far(&mut self) {
        while let Some(Reverse(e)) = self.far.peek() {
            if e.time - self.base > self.mask {
                break;
            }
            let Reverse(e) = self.far.pop().expect("peeked");
            self.push_near(e.time, e.seq, e.ev);
        }
    }

    /// Sequence number of the first event in the bucket at `base`.
    #[inline]
    fn ring_head_seq(&self) -> u64 {
        let head = self.heads[(self.base & self.mask) as usize];
        self.slab[head as usize].seq
    }

    /// Pops the first event of the bucket at `base`, which the caller
    /// knows to be the wheel's earliest, and re-caches `wheel_min` if
    /// that empties the bucket.
    #[inline]
    fn pop_ring(&mut self) -> T {
        let idx = (self.base & self.mask) as usize;
        let head = self.heads[idx];
        let Entry { ev, next, .. } = self.slab[head as usize];
        self.heads[idx] = next;
        // recycle the cell
        self.slab[head as usize].next = self.free;
        self.free = head;
        if next == NIL {
            self.tails[idx] = NIL;
            self.clear_bit(idx);
            let ring_next = self.next_occupied(idx).map_or(NEVER, |next| {
                self.base + ((next as u64).wrapping_sub(idx as u64) & self.mask)
            });
            let far_next = self.far.peek().map_or(NEVER, |Reverse(e)| e.time);
            self.wheel_min = ring_next.min(far_next);
        }
        ev
    }

    #[inline]
    fn clear_bit(&mut self, idx: usize) {
        let w = idx >> 6;
        self.words[w] &= !(1 << (idx & 63));
        if self.words[w] == 0 {
            self.summary[w >> 6] &= !(1 << (w & 63));
        }
    }

    /// First occupied bucket strictly after `idx`, circularly.
    fn next_occupied(&self, idx: usize) -> Option<usize> {
        self.scan(idx + 1, self.heads.len())
            .or_else(|| self.scan(0, idx + 1))
    }

    /// First occupied bucket in `[lo, hi)`.
    fn scan(&self, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let w_lo = lo >> 6;
        // partial first word
        let m = self.words[w_lo] & (u64::MAX << (lo & 63));
        if m != 0 {
            let bit = (w_lo << 6) + m.trailing_zeros() as usize;
            return (bit < hi).then_some(bit);
        }
        // whole words, skipped 64 at a time through the summary
        let w_hi = (hi - 1) >> 6;
        let mut w = w_lo + 1;
        while w <= w_hi {
            let s = w >> 6;
            let sm = self.summary[s] & (u64::MAX << (w & 63));
            if sm == 0 {
                // no occupied word in this summary block at or after w
                w = (s + 1) << 6;
                continue;
            }
            w = (s << 6) + sm.trailing_zeros() as usize;
            if w > w_hi {
                return None;
            }
            let bit = (w << 6) + self.words[w].trailing_zeros() as usize;
            return (bit < hi).then_some(bit);
        }
        None
    }

    #[cfg(test)]
    fn ring_capacity(&self) -> usize {
        self.heads.len()
    }

    #[cfg(test)]
    fn far_len(&self) -> usize {
        self.far.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<Q: Queue<u32>>(q: &mut Q) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn horizon_sizes_the_ring() {
        assert_eq!(EventQueue::<u32>::with_horizon(0, 64).ring_capacity(), 64);
        assert_eq!(
            EventQueue::<u32>::with_horizon(1000, 64).ring_capacity(),
            1024
        );
        // capped: large horizons spill to the far heap instead
        assert_eq!(
            EventQueue::<u32>::with_horizon(1 << 40, 64).ring_capacity(),
            MAX_RING as usize
        );
    }

    #[test]
    fn the_pending_hint_sizes_slab_and_lanes_up_to_a_cap() {
        let q = EventQueue::<u32>::with_horizon(128, 256);
        assert!(q.slab.capacity() >= 256);
        assert!(q.lanes.iter().all(|lane| lane.capacity() >= 256));
        // an open-loop run hints one slot per operation
        let q = EventQueue::<u32>::with_horizon(128, 50_000_000);
        assert!(q.slab.capacity() < 2 * MAX_PRESIZE);
    }

    #[test]
    fn fifo_within_a_time() {
        let mut q = EventQueue::with_horizon(128, 64);
        q.push(5, 1u32);
        q.push(3, 2);
        q.push(5, 3);
        q.push(3, 4);
        assert_eq!(drain(&mut q), vec![(3, 2), (3, 4), (5, 1), (5, 3)]);
    }

    #[test]
    fn heap_queue_pops_in_time_then_push_order() {
        let mut q = HeapQueue::with_horizon(128, 1);
        q.push(5, 1u32);
        q.push_lane(0, 3, 2);
        q.push(5, 3);
        q.push_lane(1, 3, 4);
        assert_eq!(drain(&mut q), vec![(3, 2), (3, 4), (5, 1), (5, 3)]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pushes_at_the_current_time_pop_after_pending_ones() {
        let mut q = EventQueue::with_horizon(128, 64);
        q.push(7, 1u32);
        q.push(7, 2);
        assert_eq!(q.pop(), Some((7, 1)));
        q.push(7, 3); // scheduled *while* draining time 7
        assert_eq!(q.pop(), Some((7, 2)));
        assert_eq!(q.pop(), Some((7, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn a_bucket_refilled_after_it_emptied_is_found_again() {
        let mut q = EventQueue::with_horizon(128, 64);
        q.push(7, 1u32);
        q.push(9, 2);
        assert_eq!(q.pop(), Some((7, 1))); // empties bucket 7: min is 9
        q.push(7, 3);
        assert_eq!(q.pop(), Some((7, 3)));
        assert_eq!(q.pop(), Some((9, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn lanes_and_wheel_merge_by_time_then_push_order() {
        let mut q = EventQueue::with_horizon(128, 64);
        q.push_lane(0, 10, 1u32);
        q.push(10, 2);
        q.push_lane(1, 10, 3);
        q.push(4, 4);
        q.push_lane(0, 10, 5);
        q.push(10, 6);
        q.push_lane(1, 12, 7);
        assert_eq!((q.len(), q.next_time()), (7, 4));
        assert_eq!(q.pop(), Some((4, 4)));
        // a lane front and a wheel event tie at 10
        assert_eq!(q.next_time(), 10);
        assert_eq!(
            drain(&mut q),
            vec![(10, 1), (10, 2), (10, 3), (10, 5), (10, 6), (12, 7)]
        );
        assert_eq!((q.len(), q.next_time()), (0, NEVER));
    }

    #[test]
    fn a_lane_pop_moves_the_base_and_migrates_far_events() {
        let mut q = EventQueue::<u32>::with_horizon(0, 4); // 64 buckets
        q.push(0, 0);
        q.push(100, 1); // far from base 0
        q.push_lane(0, 90, 2);
        assert_eq!(q.far_len(), 1);
        assert_eq!(q.pop(), Some((0, 0)));
        assert_eq!(q.pop(), Some((90, 2)));
        // base is 90 now: 100 is within the ring and must be in it,
        // ahead of a newcomer at the same time
        assert_eq!(q.far_len(), 0);
        q.push(100, 3);
        assert_eq!(drain(&mut q), vec![(100, 1), (100, 3)]);
    }

    #[test]
    fn a_far_event_ties_with_a_lane_in_push_order() {
        for lane_first in [false, true] {
            let mut q = EventQueue::<u32>::with_horizon(0, 4);
            if lane_first {
                q.push_lane(1, 500, 1);
                q.push(500, 2);
            } else {
                q.push(500, 2);
                q.push_lane(1, 500, 1);
            }
            assert_eq!(q.far_len(), 1);
            let expected = if lane_first {
                vec![(500, 1), (500, 2)]
            } else {
                vec![(500, 2), (500, 1)]
            };
            assert_eq!(drain(&mut q), expected);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "went back in time")]
    fn a_lane_push_back_in_time_panics_in_debug() {
        let mut q = EventQueue::with_horizon(128, 64);
        q.push_lane(0, 10, 1u32);
        q.push_lane(0, 9, 2);
    }

    #[test]
    fn wraps_around_the_ring() {
        let mut q = EventQueue::with_horizon(100, 64);
        let mut t = 0u64;
        for round in 0..50u32 {
            q.push(t + 90, round);
            let (pt, pv) = q.pop().unwrap();
            assert_eq!((pt, pv), (t + 90, round));
            t += 90;
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn large_empty_gaps_are_skipped() {
        let mut q = EventQueue::with_horizon(10_000, 64);
        q.push(0, 0u32);
        q.push(8_000, 1);
        assert_eq!(q.pop(), Some((0, 0)));
        assert_eq!(q.pop(), Some((8_000, 1)));
        q.push(17_000, 2);
        assert_eq!(q.pop(), Some((17_000, 2)));
    }

    #[test]
    fn far_pushes_spill_and_come_back() {
        let mut q = EventQueue::with_horizon(1 << 40, 64); // ring capped
        assert_eq!(q.mask + 1, MAX_RING);
        q.push(0, 0u32);
        q.push(1 << 20, 1); // far
        q.push(5, 2); // near
        assert_eq!(q.far_len(), 1);
        assert_eq!(q.pop(), Some((0, 0)));
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), Some((1 << 20, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_near_ties_keep_push_order() {
        let mut q = EventQueue::<u32>::with_horizon(1 << 40, 64);
        let t = MAX_RING + 100; // beyond the ring from base 0
        q.push(t, 1); // spills far
        q.push(0, 0);
        assert_eq!(q.pop(), Some((0, 0)));
        // base is now 0; t is still out of range until the move of
        // base that migrates it — a near push at t afterwards must
        // queue *behind* the far one
        q.push(200, 10);
        assert_eq!(q.pop(), Some((200, 10)));
        q.push(t, 2); // t - 200 > mask: still spills far
        q.push(t + 1, 3);
        assert_eq!(drain(&mut q), vec![(t, 1), (t, 2), (t + 1, 3)]);
    }

    #[test]
    fn queue_matches_heap_oracle_on_fuzzed_schedules() {
        // a deterministic LCG drives identical pushes into the
        // production queue and the oracle; pop streams and lengths
        // must agree step for step. Each schedule fixes two lane
        // delays; the other pushes mix same-tick, in-ring and
        // beyond-the-ring deltas, and the small horizons make almost
        // everything spill far and migrate back.
        const HORIZONS: [u64; 7] = [0, 63, 64, 700, 5000, 20_000, 100_700];
        for seed in 0..400u64 {
            for horizon in HORIZONS {
                let mut state = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(horizon)
                    | 1;
                let mut next = move || {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    state >> 33
                };
                let lane_delay = [next() % 1000, next() % (2 * horizon + 2)];
                let mut queue = EventQueue::with_horizon(horizon, 64);
                let mut oracle = HeapQueue::with_horizon(horizon, 64);
                let mut now = 0u64;
                for step in 0..3000u32 {
                    for _ in 0..next() % 4 {
                        let time = match next() % 8 {
                            kind @ 0..=2 => {
                                let lane = (kind & 1) as usize;
                                let time = now + lane_delay[lane];
                                queue.push_lane(lane, time, step);
                                oracle.push_lane(lane, time, step);
                                continue;
                            }
                            3 => now,
                            4 | 5 => now + next() % (horizon + 1),
                            6 => now + next() % 5000,
                            _ => now + MAX_RING + next() % 100_000,
                        };
                        queue.push(time, step);
                        oracle.push(time, step);
                    }
                    if next() % 3 != 0 {
                        let (a, b) = (queue.pop(), oracle.pop());
                        assert_eq!(a, b, "seed {seed} horizon {horizon} step {step}");
                        if let Some((time, _)) = a {
                            now = time;
                        }
                    }
                    assert_eq!(
                        (queue.len(), queue.next_time()),
                        (oracle.len(), oracle.next_time()),
                        "seed {seed} horizon {horizon} step {step}"
                    );
                }
                assert_eq!(
                    drain(&mut queue),
                    drain(&mut oracle),
                    "seed {seed} horizon {horizon} drain"
                );
            }
        }
    }

    #[test]
    fn slab_cells_are_recycled() {
        let mut q = EventQueue::with_horizon(64, 64);
        for round in 0..1000u32 {
            q.push(u64::from(round), round);
            let _ = q.pop();
        }
        assert!(
            q.slab.len() <= 2,
            "steady single-pending traffic must reuse cells, slab grew to {}",
            q.slab.len()
        );
    }

    #[test]
    fn far_entry_eq_is_consistent_with_ord() {
        // same (time, seq) key, different payloads: equal under both
        let a = FarEntry {
            time: 3,
            seq: 1,
            ev: 10u32,
        };
        let b = FarEntry {
            time: 3,
            seq: 1,
            ev: 99u32,
        };
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        let c = FarEntry {
            time: 3,
            seq: 2,
            ev: 10u32,
        };
        assert!(a < c);
        assert_ne!(a, c);
    }
}
