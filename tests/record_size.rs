//! A native run's heap peaks at what it returns per operation: the
//! 40-byte `Operation` its client thread writes in place, and nothing
//! else per operation. The processor map, the claim lists and the
//! lanes the grader reads are per 64-slot chunk (24 B a chunk, about
//! 24 KiB at 2^16 operations). Two threads interleave their chunks of
//! the buffer, so the trace assembly is counted too. Every allocation
//! in the process is counted, so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cnet_concurrent::network::NetworkCounter;
use cnet_engine::{run_counter, Workload};
use cnet_topology::constructions;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

// SAFETY: every request is passed to `System` unchanged; the counters
// are statics that neither allocate nor run a destructor.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is `System`'s
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            // statistics only: they publish no other data
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const OPS: usize = 1 << 16;

#[test]
fn a_native_run_peaks_at_its_operations() {
    let net = constructions::bitonic(16).unwrap();
    let workload = Workload {
        total_ops: OPS,
        ..Workload::paper(2, 0, 0)
    }
    .check()
    .expect("a well-formed workload");
    let counter = NetworkCounter::new(&net);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let outcome = run_counter(&counter, &workload, 24301);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(outcome.counts_exactly());
    assert_eq!(outcome.stats.operations.len(), OPS);
    assert_eq!(outcome.stats.completed_by.len(), OPS);
    let budget = OPS * 40 + 64 * 1024;
    assert!(
        peak <= budget,
        "heap peak {peak} B is over {budget} B ({:.1} B/op)",
        peak as f64 / OPS as f64
    );
}
