//! The fixed-size frames — everything a `next()` / `next_batch(k)` /
//! `health()` round trip puts on the wire — cross the codec without a
//! heap allocation, in either direction. Only this thread's
//! allocations are counted, so the test harness's own threads cannot
//! disturb the reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cnet_serve::proto::{
    read_request, read_response, write_request, write_response, Request, Response,
};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every request is passed to `System` unchanged; the counter
// is a const-initialised thread-local `Cell` without a destructor, so
// touching it neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is `System`'s
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn fixed_size_frames_round_trip_without_allocating() {
    let requests = [
        Request::Next,
        Request::NextBatch { k: 256 },
        Request::Health,
    ];
    let responses = [
        Response::Value {
            value: 7,
            start: 14,
            end: 15,
        },
        Response::Batch {
            base: 512,
            k: 256,
            start: 4,
            end: 5,
        },
        Response::Health {
            ops: 9,
            uptime_ms: 1,
            breaches: 0,
        },
    ];
    let mut wire: Vec<u8> = Vec::with_capacity(64);
    let before = ALLOCATIONS.with(Cell::get);
    for (request, response) in requests.iter().zip(&responses) {
        wire.clear();
        write_request(&mut wire, request).unwrap();
        assert_eq!(read_request(&mut wire.as_slice()).unwrap(), Some(*request));
        wire.clear();
        write_response(&mut wire, response).unwrap();
        let read = read_response(&mut wire.as_slice()).unwrap();
        assert_eq!(read.as_ref(), Some(response));
    }
    assert_eq!(ALLOCATIONS.with(Cell::get) - before, 0);

    // the counter does count: a text frame still takes its buffers
    let snapshot = Response::Snapshot {
        json: "x".repeat(100),
    };
    let before = ALLOCATIONS.with(Cell::get);
    wire.clear();
    write_response(&mut wire, &snapshot).unwrap();
    assert!(ALLOCATIONS.with(Cell::get) > before);
}
