//! A relaxed shared pool (bag) over counting networks.
//!
//! The pool guarantees only *conservation*: every item put in is taken
//! out exactly once, and `get` never invents items. There is no
//! ordering contract at all, which is exactly the specification the
//! Shavit–Touitou elimination-tree pools target — and why a counting
//! network (linearizable or not!) implements it perfectly: the step
//! property alone keeps producers and consumers matched.
//!
//! Internally the pool is a ring of independent per-cell item stacks;
//! put-tickets scatter producers across the cells and get-tickets
//! scatter consumers the same way, so with a low-contention counter the
//! pool has no hot-spot.

use std::sync::{Mutex, PoisonError};

use cnet_concurrent::counter::Counter;
use cnet_concurrent::network::NetworkCounter;
use cnet_topology::Topology;

/// A bounded-width (not bounded-size) relaxed bag.
#[derive(Debug)]
pub struct NetPool<T, E: Counter = NetworkCounter, D: Counter = NetworkCounter> {
    /// Each held for one push, pop or length, so a poisoned cell is
    /// still a valid one.
    cells: Vec<Mutex<Vec<T>>>,
    put_tickets: E,
    get_tickets: D,
}

impl<T> NetPool<T, NetworkCounter, NetworkCounter> {
    /// Builds a pool scattered over `width` cells, with counting
    /// networks over `topology` as ticket sources.
    #[must_use]
    pub fn over_network(width: usize, topology: &Topology) -> Self {
        Self::with_counters(
            width,
            NetworkCounter::new(topology),
            NetworkCounter::new(topology),
        )
    }
}

impl<T, E: Counter, D: Counter> NetPool<T, E, D> {
    /// Builds a pool from explicit ticket counters (fresh, starting at
    /// zero).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn with_counters(width: usize, put_tickets: E, get_tickets: D) -> Self {
        assert!(width > 0, "pool width must be positive");
        NetPool {
            cells: (0..width).map(|_| Mutex::new(Vec::new())).collect(),
            put_tickets,
            get_tickets,
        }
    }

    /// The number of scatter cells.
    #[must_use]
    pub fn width(&self) -> usize {
        self.cells.len()
    }

    /// Inserts an item. Never blocks (cells grow).
    pub fn put(&self, value: T) {
        let ticket = self.put_tickets.next();
        let cell = &self.cells[(ticket % self.cells.len() as u64) as usize];
        cell.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(value);
    }

    /// Removes *some* item, spinning until one is available in the
    /// cell this consumer's ticket maps to (a matching `put` with the
    /// same ticket index is guaranteed to target that cell eventually,
    /// because put- and get-tickets are matched one to one by the step
    /// property).
    pub fn get(&self) -> T {
        let ticket = self.get_tickets.next();
        let cell = &self.cells[(ticket % self.cells.len() as u64) as usize];
        let mut spins = 0u32;
        loop {
            if let Some(v) = cell.lock().unwrap_or_else(PoisonError::into_inner).pop() {
                return v;
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Removes an item if any cell has one right now.
    ///
    /// Unlike [`Self::get`] this draws *no* ticket (a failed draw would
    /// leave a future `get` waiting on a cell that never receives its
    /// matching `put`); it simply scans the cells.
    pub fn try_get(&self) -> Option<T> {
        self.cells
            .iter()
            .find_map(|cell| cell.lock().unwrap_or_else(PoisonError::into_inner).pop())
    }

    /// A snapshot count of resident items (approximate under
    /// concurrency).
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether the snapshot count is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_concurrent::counter::FetchAddCounter;
    use cnet_topology::constructions;
    use std::sync::Arc;

    #[test]
    fn put_get_round_trip() {
        let pool = NetPool::with_counters(4, FetchAddCounter::new(), FetchAddCounter::new());
        pool.put(1u32);
        pool.put(2);
        assert_eq!(pool.len(), 2);
        let a = pool.get();
        let b = pool.get();
        let mut got = vec![a, b];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        assert!(pool.is_empty());
    }

    #[test]
    fn try_get_on_empty_is_none() {
        let pool: NetPool<u8, _, _> =
            NetPool::with_counters(2, FetchAddCounter::new(), FetchAddCounter::new());
        assert_eq!(pool.try_get(), None);
    }

    #[test]
    fn conserves_items_under_concurrency() {
        let net = constructions::bitonic(4).unwrap();
        let pool = Arc::new(NetPool::over_network(4, &net));
        let mut producers = Vec::new();
        for p in 0..2u64 {
            let pool = Arc::clone(&pool);
            producers.push(std::thread::spawn(move || {
                for i in 0..800 {
                    pool.put(p * 800 + i);
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let pool = Arc::clone(&pool);
            consumers.push(std::thread::spawn(move || {
                (0..800).map(|_| pool.get()).collect::<Vec<u64>>()
            }));
        }
        for h in producers {
            h.join().expect("producer");
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().expect("consumer"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..1600).collect::<Vec<u64>>());
        assert!(pool.is_empty());
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        let _: NetPool<u8, _, _> =
            NetPool::with_counters(0, FetchAddCounter::new(), FetchAddCounter::new());
    }
}
