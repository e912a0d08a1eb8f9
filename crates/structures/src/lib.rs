//! Concurrent data structures built on counting networks.
//!
//! The paper's introduction motivates linearizable counting as the
//! heart of "concurrent timestamp generation, as well as concurrent
//! implementations of shared counters, FIFO buffers, priority queues
//! and similar data structures". This crate builds those structures on
//! top of the counters from `cnet-concurrent`, and measures how
//! counting-level non-linearizability surfaces at the data-structure
//! level:
//!
//! * [`queue::NetQueue`] — a bounded MPMC FIFO buffer: producers and
//!   consumers each draw a ticket from a shared counter and rendezvous
//!   in a cell ring. With a linearizable ticket counter the queue is
//!   strictly FIFO; with a counting-network counter it is *practically*
//!   FIFO, in exactly the paper's sense.
//! * [`pool::NetPool`] — the relaxed cousin: a bag with `put`/`get`
//!   whose only guarantee is that every inserted item is removed
//!   exactly once. Counting networks implement it without any central
//!   hot-spot.
//! * [`timestamp::TimestampOracle`] — unique, roughly-ordered
//!   timestamps, plus an audit that counts *causality reversals*
//!   (timestamp pairs ordered against their real-time draw order).
//! * [`audit`] — the FIFO audit: dequeue order vs the real-time order
//!   of enqueue completions, reusing the paper's Definition 2.4 checker
//!   verbatim (an out-of-FIFO pair *is* a non-linearizable counting
//!   pair).
//!
//! # Example
//!
//! ```
//! use cnet_structures::queue::NetQueue;
//! use cnet_concurrent::counter::FetchAddCounter;
//!
//! // a queue with linearizable (fetch-add) ticket counters
//! let q = NetQueue::with_counters(8, FetchAddCounter::new(), FetchAddCounter::new());
//! q.enqueue("a");
//! q.enqueue("b");
//! assert_eq!(q.dequeue(), "a");
//! assert_eq!(q.dequeue(), "b");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod pool;
pub mod queue;
pub mod ring;
pub mod timestamp;

pub use pool::NetPool;
pub use queue::NetQueue;
pub use timestamp::TimestampOracle;
