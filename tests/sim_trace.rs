//! Trace identity of the Section 5 simulator, pinned where tier-1
//! sees it.
//!
//! Every committed figure table depends on the simulator popping its
//! events in exactly `(time, push-order)` order: link jitter and prism
//! slots are drawn from one RNG stream in that order, so a queue that
//! swaps two same-time events changes every statistic downstream. The
//! hashes below were computed at the commit *before* the event lanes
//! existed (one binary heap at `n = 4`, the bucket wheel at `n = 256`);
//! any event-queue or handler change must reproduce them bit for bit.

use counting_networks::proteus::{SimConfig, Simulator, Workload};
use counting_networks::topology::constructions;

/// FNV-1a over a stream of `u64` words, little-endian byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash of everything a run's statistics derive from: each operation
/// in completion order, the final simulated time, the deepest lock
/// queue.
fn trace_hash(tree: bool, n: usize, w: u64) -> u64 {
    let (net, config) = if tree {
        (
            constructions::counting_tree(32).unwrap(),
            SimConfig::diffracting(0xF165),
        )
    } else {
        (
            constructions::bitonic(32).unwrap(),
            SimConfig::queue_lock(0xF165),
        )
    };
    let workload = Workload {
        total_ops: 500,
        ..Workload::paper(n, 25, w)
    };
    let stats = Simulator::new(&net, config).run(&workload);
    assert_eq!(stats.operations.len(), 500);
    let mut h = Fnv::new();
    for op in &stats.operations {
        for word in [
            op.token as u64,
            op.input as u64,
            op.start,
            op.end,
            op.counter as u64,
            op.value,
        ] {
            h.word(word);
        }
    }
    h.word(stats.sim_time);
    h.word(stats.max_lock_queue);
    h.0
}

#[test]
fn pinned_cells_hash_to_the_pre_lane_traces() {
    for (tree, n, w, expected) in [
        (false, 4, 100, 0xf9d1_6eba_dc21_7a17_u64),
        (false, 256, 100_000, 0x476c_eecf_b5bc_477b),
        (true, 4, 100_000, 0x23b3_31a1_ae5b_7b40),
        (true, 256, 100, 0x5d08_cf33_9179_0e3f),
    ] {
        let got = trace_hash(tree, n, w);
        assert_eq!(
            got,
            expected,
            "{} n={n} W={w}: trace hash {got:#018x}",
            if tree { "tree" } else { "bitonic" }
        );
    }
}
