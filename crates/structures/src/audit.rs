//! FIFO auditing: does the queue respect real-time enqueue order?
//!
//! Every enqueue and dequeue is bracketed by a global logical clock.
//! Item `b` is *out of FIFO order* when some item `a` satisfies both
//!
//! * `enq(a)` completely precedes `enq(b)` in real time, and
//! * `deq(b)` completely precedes `deq(a)` in real time
//!
//! (overlapping operations impose no constraint — the standard
//! queue-linearizability reading). This is the data-structure face of
//! the paper's Definition 2.4: with linearizable ticket counters no
//! such pair can exist; with counting-network tickets the violations
//! are exactly the counting non-linearizabilities.
//!
//! [`FifoReport::out_of_order`] runs the same `O(n log n)` sweep as the
//! counting checker: scanning items by enqueue start, it maintains the
//! maximum dequeue *start* among items whose enqueue already finished —
//! `b` is a victim exactly when that maximum exceeds `b`'s dequeue
//! *end*.

use std::sync::atomic::{AtomicU64, Ordering};

use cnet_concurrent::counter::Counter;

use crate::queue::NetQueue;

/// One audited item: both operation intervals in logical-clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemRecord {
    /// The item id (as enqueued).
    pub item: u64,
    /// The producing thread.
    pub producer: usize,
    /// Enqueue interval.
    pub enq: (u64, u64),
    /// Dequeue interval.
    pub deq: (u64, u64),
}

/// The outcome of a [`fifo_audit`].
#[derive(Debug, Clone)]
pub struct FifoReport {
    /// One record per item.
    pub records: Vec<ItemRecord>,
}

impl FifoReport {
    /// Items dequeued out of real-time FIFO order, in `O(n log n)`.
    #[must_use]
    pub fn out_of_order(&self) -> usize {
        let mut by_enq_start: Vec<&ItemRecord> = self.records.iter().collect();
        by_enq_start.sort_unstable_by_key(|r| r.enq.0);
        let mut by_enq_end: Vec<&ItemRecord> = self.records.iter().collect();
        by_enq_end.sort_unstable_by_key(|r| r.enq.1);

        let mut victims = 0usize;
        let mut finished = 0usize;
        let mut max_deq_start: Option<u64> = None;
        for b in by_enq_start {
            while finished < by_enq_end.len() && by_enq_end[finished].enq.1 < b.enq.0 {
                let ds = by_enq_end[finished].deq.0;
                max_deq_start = Some(max_deq_start.map_or(ds, |m| m.max(ds)));
                finished += 1;
            }
            if let Some(m) = max_deq_start {
                if b.deq.1 < m {
                    victims += 1;
                }
            }
        }
        victims
    }

    /// Quadratic reference implementation of [`Self::out_of_order`],
    /// for differential testing.
    #[must_use]
    pub fn out_of_order_naive(&self) -> usize {
        self.records
            .iter()
            .filter(|b| {
                self.records
                    .iter()
                    .any(|a| a.enq.1 < b.enq.0 && b.deq.1 < a.deq.0)
            })
            .count()
    }

    /// Out-of-order items as a fraction of all items.
    #[must_use]
    pub fn out_of_order_ratio(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.out_of_order() as f64 / self.records.len() as f64
    }

    /// Whether every enqueued item was dequeued exactly once.
    #[must_use]
    pub fn conserved(&self, expected_items: usize) -> bool {
        if self.records.len() != expected_items {
            return false;
        }
        let mut items: Vec<u64> = self.records.iter().map(|r| r.item).collect();
        items.sort_unstable();
        items.iter().enumerate().all(|(i, &v)| v == i as u64)
    }
}

/// Runs `producers` enqueuing threads (each inserting `per_producer`
/// items) against `consumers` dequeuing threads over `queue`, and
/// reports the real-time FIFO violations.
///
/// # Panics
///
/// Panics if `producers * per_producer` is not divisible by
/// `consumers`, or if a worker thread panics.
#[must_use]
pub fn fifo_audit<E: Counter, D: Counter>(
    queue: &NetQueue<u64, E, D>,
    producers: usize,
    consumers: usize,
    per_producer: usize,
) -> FifoReport {
    let total = producers * per_producer;
    assert_eq!(
        total % consumers,
        0,
        "items must divide evenly across consumers"
    );
    let clock = AtomicU64::new(0);

    let mut enq_intervals: Vec<(u64, u64)> = vec![(0, 0); total];
    let mut deq_intervals: Vec<(usize, (u64, u64))> = Vec::with_capacity(total);
    std::thread::scope(|scope| {
        let mut enqueuers = Vec::new();
        for p in 0..producers {
            let clock = &clock;
            let queue = &queue;
            enqueuers.push(scope.spawn(move || {
                let mut local = Vec::with_capacity(per_producer);
                for i in 0..per_producer {
                    let item = (p * per_producer + i) as u64;
                    let start = clock.fetch_add(1, Ordering::AcqRel);
                    queue.enqueue(item);
                    let end = clock.fetch_add(1, Ordering::AcqRel);
                    local.push((item as usize, start, end));
                }
                local
            }));
        }
        let mut dequeuers = Vec::new();
        for _ in 0..consumers {
            let clock = &clock;
            let queue = &queue;
            dequeuers.push(scope.spawn(move || {
                let mut local = Vec::with_capacity(total / consumers);
                for _ in 0..total / consumers {
                    let start = clock.fetch_add(1, Ordering::AcqRel);
                    let item = queue.dequeue();
                    let end = clock.fetch_add(1, Ordering::AcqRel);
                    local.push((item as usize, start, end));
                }
                local
            }));
        }
        for h in enqueuers {
            for (item, start, end) in h.join().expect("producer thread") {
                enq_intervals[item] = (start, end);
            }
        }
        for h in dequeuers {
            for (item, start, end) in h.join().expect("consumer thread") {
                deq_intervals.push((item, (start, end)));
            }
        }
    });

    let records = deq_intervals
        .into_iter()
        .map(|(item, deq)| ItemRecord {
            item: item as u64,
            producer: item / per_producer,
            enq: enq_intervals[item],
            deq,
        })
        .collect();
    FifoReport { records }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_concurrent::counter::FetchAddCounter;
    use cnet_concurrent::network::NetworkCounter;
    use cnet_topology::constructions;
    use proptest::prelude::*;

    #[test]
    fn linearizable_queue_is_fifo() {
        let queue = NetQueue::with_counters(16, FetchAddCounter::new(), FetchAddCounter::new());
        let report = fifo_audit(&queue, 2, 2, 1000);
        assert!(report.conserved(2000));
        assert_eq!(
            report.out_of_order(),
            0,
            "fetch-add tickets are strictly FIFO"
        );
    }

    #[test]
    fn network_queue_conserves_and_reports() {
        let net = constructions::bitonic(4).unwrap();
        let queue: NetQueue<u64, NetworkCounter, NetworkCounter> = NetQueue::over_network(16, &net);
        let report = fifo_audit(&queue, 2, 2, 1000);
        assert!(report.conserved(2000));
        assert_eq!(report.out_of_order(), report.out_of_order_naive());
        assert!(report.out_of_order_ratio() <= 1.0);
    }

    #[test]
    fn hand_built_violation_detected() {
        // a: enq [0,1], deq [10,11]; b: enq [2,3], deq [4,5]
        // enq(a) < enq(b) but deq(b) < deq(a): b is out of order
        let report = FifoReport {
            records: vec![
                ItemRecord {
                    item: 0,
                    producer: 0,
                    enq: (0, 1),
                    deq: (10, 11),
                },
                ItemRecord {
                    item: 1,
                    producer: 0,
                    enq: (2, 3),
                    deq: (4, 5),
                },
            ],
        };
        assert_eq!(report.out_of_order(), 1);
        assert_eq!(report.out_of_order_naive(), 1);
    }

    #[test]
    fn overlapping_dequeues_are_not_violations() {
        // same enqueue order but dequeues overlap: allowed
        let report = FifoReport {
            records: vec![
                ItemRecord {
                    item: 0,
                    producer: 0,
                    enq: (0, 1),
                    deq: (4, 11),
                },
                ItemRecord {
                    item: 1,
                    producer: 0,
                    enq: (2, 3),
                    deq: (5, 6),
                },
            ],
        };
        assert_eq!(report.out_of_order(), 0);
    }

    #[test]
    fn conserved_detects_loss_and_duplication() {
        let rec = |item| ItemRecord {
            item,
            producer: 0,
            enq: (0, 1),
            deq: (2, 3),
        };
        let good = FifoReport {
            records: vec![rec(0), rec(1)],
        };
        assert!(good.conserved(2));
        assert!(!good.conserved(3), "wrong cardinality");
        let dup = FifoReport {
            records: vec![rec(0), rec(0)],
        };
        assert!(!dup.conserved(2), "duplicate item");
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_split_panics() {
        let queue: NetQueue<u64, _, _> =
            NetQueue::with_counters(4, FetchAddCounter::new(), FetchAddCounter::new());
        let _ = fifo_audit(&queue, 1, 3, 100);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The sweep agrees with the quadratic reference on arbitrary
        /// interval sets.
        #[test]
        fn sweep_matches_naive(
            raw in proptest::collection::vec(
                ((0u64..60, 1u64..10), (0u64..60, 1u64..10)), 0..50)
        ) {
            let records: Vec<ItemRecord> = raw
                .iter()
                .enumerate()
                .map(|(i, &((es, el), (ds, dl)))| ItemRecord {
                    item: i as u64,
                    producer: 0,
                    enq: (es, es + el),
                    deq: (ds, ds + dl),
                })
                .collect();
            let report = FifoReport { records };
            prop_assert_eq!(report.out_of_order(), report.out_of_order_naive());
        }
    }
}
