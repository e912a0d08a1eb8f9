//! The ticket-indexed cell ring shared by the queue and the pool.
//!
//! A ring of `capacity` cells, each guarded by a *turn* counter. The
//! holder of put-ticket `t` writes into cell `t % capacity` during turn
//! `2·(t / capacity)`; the holder of get-ticket `t` reads the same cell
//! during turn `2·(t / capacity) + 1`. Tickets come from the caller
//! (a counting network or any other [`cnet_concurrent::Counter`]), so
//! the ring itself never becomes a contention hot-spot: each ticket
//! touches exactly one cell.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// One cell: a turn counter plus the slot payload.
#[derive(Debug)]
struct Cell<T> {
    turn: AtomicU64,
    /// Held for one store or one take, so a poisoned slot is still a
    /// valid one.
    value: Mutex<Option<T>>,
}

/// A fixed-capacity ring of rendezvous cells.
#[derive(Debug)]
pub struct TicketRing<T> {
    cells: Vec<Cell<T>>,
}

impl<T> TicketRing<T> {
    /// Creates a ring with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        TicketRing {
            cells: (0..capacity)
                .map(|_| Cell {
                    turn: AtomicU64::new(0),
                    value: Mutex::new(None),
                })
                .collect(),
        }
    }

    /// The ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    fn wait_for_turn(&self, cell: &Cell<T>, turn: u64) {
        let mut spins = 0u32;
        while cell.turn.load(Ordering::Acquire) != turn {
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(128) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Deposits `value` under put-ticket `ticket`, blocking (spinning)
    /// until the cell's round comes up.
    pub fn put(&self, ticket: u64, value: T) {
        let cap = self.cells.len() as u64;
        let cell = &self.cells[(ticket % cap) as usize];
        let round = ticket / cap;
        self.wait_for_turn(cell, 2 * round);
        *cell.value.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
        cell.turn.store(2 * round + 1, Ordering::Release);
    }

    /// Removes the value under get-ticket `ticket`, blocking (spinning)
    /// until the matching put has happened.
    pub fn take(&self, ticket: u64) -> T {
        let cap = self.cells.len() as u64;
        let cell = &self.cells[(ticket % cap) as usize];
        let round = ticket / cap;
        self.wait_for_turn(cell, 2 * round + 1);
        let value = cell
            .value
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("turn guarantees a deposit");
        cell.turn.store(2 * round + 2, Ordering::Release);
        value
    }

    /// Attempts [`Self::take`] without blocking: returns the value only
    /// if the matching put has already completed. Callers own ticket
    /// management — a `None` leaves the cell untouched, so the same
    /// ticket can be retried.
    pub fn try_take(&self, ticket: u64) -> Option<T> {
        let cap = self.cells.len() as u64;
        let cell = &self.cells[(ticket % cap) as usize];
        let round = ticket / cap;
        if cell.turn.load(Ordering::Acquire) != 2 * round + 1 {
            return None;
        }
        let value = cell
            .value
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("turn guarantees a deposit");
        cell.turn.store(2 * round + 2, Ordering::Release);
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_threaded_round_trip() {
        let ring = TicketRing::new(2);
        ring.put(0, "a");
        ring.put(1, "b");
        assert_eq!(ring.take(0), "a");
        assert_eq!(ring.take(1), "b");
        // ring wraps: ticket 2 reuses cell 0
        ring.put(2, "c");
        assert_eq!(ring.take(2), "c");
    }

    #[test]
    fn try_take_fails_before_put() {
        let ring: TicketRing<u32> = TicketRing::new(2);
        assert!(ring.try_take(0).is_none());
        ring.put(0, 7);
        assert_eq!(ring.try_take(0), Some(7));
        assert!(ring.try_take(2).is_none(), "next round not produced yet");
    }

    #[test]
    fn put_blocks_until_previous_round_consumed() {
        let ring = Arc::new(TicketRing::new(1));
        ring.put(0, 1u32);
        let r = Arc::clone(&ring);
        let producer = std::thread::spawn(move || {
            // blocks until ticket 0 is consumed
            r.put(1, 2u32);
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!producer.is_finished(), "round 1 put must wait");
        assert_eq!(ring.take(0), 1);
        producer.join().expect("producer completes");
        assert_eq!(ring.take(1), 2);
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let ring = Arc::new(TicketRing::new(4));
        let next_put = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let next_get = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let ring = Arc::clone(&ring);
            let tickets = Arc::clone(&next_put);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let t = tickets.fetch_add(1, Ordering::Relaxed);
                    ring.put(t, t);
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let ring = Arc::clone(&ring);
            let tickets = Arc::clone(&next_get);
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..500 {
                    let t = tickets.fetch_add(1, Ordering::Relaxed);
                    got.push(ring.take(t));
                }
                got
            }));
        }
        for h in handles {
            h.join().expect("producer");
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().expect("consumer"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: TicketRing<u8> = TicketRing::new(0);
    }
}
