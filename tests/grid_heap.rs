//! A simulated grid holds its records, not its traces: each cell's
//! `RunStats` (40 B per operation plus a 4-B processor id) is reduced
//! to its `RunRecord` in the worker that ran it and dropped there, so
//! at most one trace per worker is alive at once, and what the grid
//! returns is records only. Every allocation in the process is
//! counted, so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cnet_harness::{Grid, NetworkKind};

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

const OPS: usize = 4000;
/// One cell's trace: the 40-B operation record and the 4-B processor
/// id the simulator keeps per operation.
const TRACE: usize = OPS * 44;
/// A record, with the probe snapshot it carries when the `obs`
/// feature is unified into this build.
const RECORD: usize = 32 * 1024;

#[test]
fn a_grid_holds_records_and_one_trace_per_worker() {
    let grid = Grid {
        title: "grid heap".to_string(),
        width: 8,
        wait_values: vec![100, 1000],
        concurrency: vec![4, 8, 16],
        ..Grid::paper(NetworkKind::Bitonic, 25, OPS, 0x6E1D)
    };
    let cells = grid.wait_values.len() * grid.concurrency.len();
    for threads in [1, 2] {
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let outcome = grid.run(threads);
        let peak = PEAK.load(Ordering::Relaxed) - before;
        let held = LIVE.load(Ordering::Relaxed) - before;
        assert_eq!(outcome.report.records.len(), cells);
        for record in &outcome.report.records {
            assert_eq!(record.stats.completed_ops, OPS);
        }
        assert!(
            held <= cells * RECORD,
            "{threads} thread(s): the outcome holds {held} B, over {} B for {cells} records",
            cells * RECORD
        );
        let in_flight = threads * TRACE + 64 * 1024;
        assert!(
            peak - held <= in_flight,
            "{threads} thread(s): peak {peak} B less held {held} B is over {in_flight} B"
        );
        drop(outcome);
    }
}
