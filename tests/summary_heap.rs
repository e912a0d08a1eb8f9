//! A served shutdown hands back the history ring it kept, not a copy of
//! it expanded to one `Operation` and one processor id per retained
//! operation. Every allocation in the process is counted, so this file
//! holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cnet_serve::{CounterServer, ServeClient, ServeConfig};
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

/// Operations the ring retains; the run draws three times as many.
const CAP: usize = 1 << 14;

#[test]
fn a_served_shutdown_allocates_no_copy_of_its_history() {
    let net = constructions::bitonic(4).unwrap();
    let socket =
        std::env::temp_dir().join(format!("cnet-summary-heap-{}.sock", std::process::id()));
    let mut config = ServeConfig::new(&socket);
    config.history_cap = CAP;
    let handle = CounterServer::start(&net, config).unwrap();
    let mut client = ServeClient::connect(&socket).unwrap();
    for _ in 0..3 * CAP {
        client.next().unwrap();
    }
    drop(client);

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    handle.request_shutdown();
    let summary = handle.wait().unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;

    assert_eq!(summary.history.len(), CAP);
    assert_eq!(summary.history_dropped, 2 * CAP as u64);
    let budget = 128 * 1024;
    assert!(
        peak <= budget,
        "shutdown heap peak {peak} B is over {budget} B ({:.1} B per retained op)",
        peak as f64 / CAP as f64
    );
}
