//! Simulated balancer-node state: FIFO lock bank and diffraction
//! prisms.

/// "No processor" sentinel in the intrusive wait lists.
pub(crate) const NIL: u32 = u32::MAX;

/// One lock's state inside a [`LockBank`].
#[derive(Debug, Clone, Copy)]
struct LockState {
    held: bool,
    /// First waiting processor (`NIL` when the queue is empty).
    head: u32,
    /// Last waiting processor (`NIL` when the queue is empty).
    tail: u32,
    len: u32,
}

/// Every FIFO queue lock of a run — balancer toggles and output
/// counters — in one structure-of-arrays bank.
///
/// The behavioural model is the paper's MCS lock: acquire either takes
/// a free lock immediately or enqueues FIFO; release hands the lock to
/// the longest-waiting processor. The earlier implementation gave each
/// lock its own `VecDeque`, which put the wait queues in hundreds of
/// scattered heap buffers; under contention every acquire/release was a
/// cache miss. A processor can wait at only *one* lock at a time, so
/// the bank threads all queues through a single `next[proc]` array —
/// one cache-resident allocation for the whole machine, and the MCS
/// analogy gets tighter: `next` is exactly the qnode link field.
#[derive(Debug, Clone)]
pub(crate) struct LockBank {
    states: Vec<LockState>,
    /// `next[p]` = processor behind `p` in whatever queue `p` waits in.
    next: Vec<u32>,
}

impl LockBank {
    pub(crate) fn new(locks: usize, processors: usize) -> Self {
        LockBank {
            states: vec![
                LockState {
                    held: false,
                    head: NIL,
                    tail: NIL,
                    len: 0,
                };
                locks
            ],
            next: vec![NIL; processors],
        }
    }

    /// Processor `proc` requests lock `lock`. Returns `true` if it
    /// acquired it immediately; otherwise it is enqueued FIFO.
    pub(crate) fn acquire(&mut self, lock: usize, proc: u32) -> bool {
        let s = &mut self.states[lock];
        if s.held {
            self.next[proc as usize] = NIL;
            if s.tail == NIL {
                s.head = proc;
            } else {
                self.next[s.tail as usize] = proc;
            }
            s.tail = proc;
            s.len += 1;
            false
        } else {
            s.held = true;
            true
        }
    }

    /// The holder releases `lock`; the next waiter (if any) becomes the
    /// holder and is returned so the caller can schedule it.
    pub(crate) fn release(&mut self, lock: usize) -> Option<u32> {
        let s = &mut self.states[lock];
        debug_assert!(s.held, "release without holder");
        if s.head == NIL {
            s.held = false;
            None
        } else {
            let p = s.head;
            s.head = self.next[p as usize];
            if s.head == NIL {
                s.tail = NIL;
            }
            s.len -= 1;
            Some(p)
        }
    }

    /// Number of processors queued at `lock` (excluding the holder).
    pub(crate) fn queue_len(&self, lock: usize) -> u32 {
        self.states[lock].len
    }

    /// Total occupancy of `lock`: waiters plus the holder, if any.
    /// This is the drop-tail bound the fabric queues check against.
    pub(crate) fn occupancy(&self, lock: usize) -> u32 {
        let s = &self.states[lock];
        s.len + u32::from(s.held)
    }
}

/// A waiting occupant of a prism slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotOccupant {
    pub proc: u32,
    /// A stamp distinguishing this occupancy from earlier ones, so
    /// stale timeout events can be ignored. `u32` wrap is safe: a
    /// timeout fires one spin window after its push, so no stale stamp
    /// can survive the 2^32 visits a false match would need.
    pub stamp: u32,
}

/// A prism (diffraction) array in front of a tree balancer.
#[derive(Debug, Clone)]
pub(crate) struct Prism {
    slots: Vec<Option<SlotOccupant>>,
}

impl Prism {
    pub(crate) fn new(slots: usize) -> Self {
        Prism {
            slots: vec![None; slots],
        }
    }

    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// A processor arrives at `slot`. If the slot is occupied, the
    /// occupant is removed and returned (a collision: the pair
    /// diffracts). Otherwise the processor occupies the slot with the
    /// given stamp.
    pub(crate) fn visit(&mut self, slot: usize, proc: u32, stamp: u32) -> Option<SlotOccupant> {
        match self.slots[slot].take() {
            Some(occ) => Some(occ),
            None => {
                self.slots[slot] = Some(SlotOccupant { proc, stamp });
                None
            }
        }
    }

    /// A timeout fires for `(slot, stamp)`. Returns `true` (and clears
    /// the slot) if the occupant with that stamp is still waiting;
    /// `false` if it already collided (stale timeout).
    pub(crate) fn timeout(&mut self, slot: usize, stamp: u32) -> bool {
        if let Some(occ) = self.slots[slot] {
            if occ.stamp == stamp {
                self.slots[slot] = None;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_bank_is_fifo() {
        let mut b = LockBank::new(1, 8);
        assert!(b.acquire(0, 1));
        assert!(!b.acquire(0, 2));
        assert!(!b.acquire(0, 3));
        assert_eq!(b.queue_len(0), 2);
        assert_eq!(b.release(0), Some(2));
        assert_eq!(b.release(0), Some(3));
        assert_eq!(b.release(0), None);
        assert!(b.acquire(0, 4), "free again after full drain");
    }

    #[test]
    fn locks_are_independent() {
        let mut b = LockBank::new(2, 8);
        assert!(b.acquire(0, 1));
        assert!(b.acquire(1, 2));
        assert!(!b.acquire(0, 3));
        assert_eq!(b.queue_len(0), 1);
        assert_eq!(b.queue_len(1), 0);
        assert_eq!(b.release(1), None);
        assert_eq!(b.release(0), Some(3));
    }

    #[test]
    fn a_processor_can_requeue_after_being_served() {
        // the shared `next` array must not leak stale links between
        // successive waits of the same processor
        let mut b = LockBank::new(1, 4);
        assert!(b.acquire(0, 0));
        assert!(!b.acquire(0, 1));
        assert_eq!(b.release(0), Some(1));
        assert!(!b.acquire(0, 0)); // previous holder waits again
        assert!(!b.acquire(0, 2));
        assert_eq!(b.release(0), Some(0));
        assert_eq!(b.release(0), Some(2));
        assert_eq!(b.release(0), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "release without holder")]
    fn release_without_holder_panics_in_debug() {
        let mut b = LockBank::new(1, 1);
        let _ = b.release(0);
    }

    #[test]
    fn prism_collision_returns_occupant() {
        let mut p = Prism::new(2);
        assert!(p.visit(0, 7, 100).is_none());
        let occ = p.visit(0, 8, 101).expect("collision");
        assert_eq!(occ.proc, 7);
        assert_eq!(occ.stamp, 100);
        // slot is now empty again
        assert!(p.visit(0, 9, 102).is_none());
    }

    #[test]
    fn prism_timeout_respects_stamps() {
        let mut p = Prism::new(1);
        assert!(p.visit(0, 7, 100).is_none());
        assert!(!p.timeout(0, 99), "stale stamp ignored");
        assert!(p.timeout(0, 100), "live stamp clears the slot");
        assert!(!p.timeout(0, 100), "already cleared");
    }

    #[test]
    fn distinct_slots_do_not_collide() {
        let mut p = Prism::new(2);
        assert!(p.visit(0, 1, 10).is_none());
        assert!(p.visit(1, 2, 11).is_none());
        assert_eq!(p.slot_count(), 2);
    }
}
