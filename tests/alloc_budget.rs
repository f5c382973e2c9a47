//! Allocation budget of the span layer: with stats-only spans on, the
//! simulator must not allocate per request. A counting global
//! allocator compares the allocations that spans add to a short run
//! and to a run with twice the measurement window; the difference may
//! not exceed what refilling the span store's buffer pool could cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use adios::desim::span::POOL_CAP;
use adios::desim::SpanConfig;
use adios::prelude::*;

/// Counts heap allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter is a
// statistic that touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one run (workload build included) and its arrivals.
fn allocs(measure_ms: u64, spans: bool) -> (u64, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut w = RocksDbWorkload::new(20_000, 1024);
    let p = RunParams {
        offered_rps: 700_000.0,
        seed: 9,
        warmup: SimDuration::from_millis(2),
        measure: SimDuration::from_millis(measure_ms),
        spans: spans.then(SpanConfig::stats_only),
        ..Default::default()
    };
    let res = run_one(SystemConfig::adios(), &mut w, p);
    let n = ALLOCS.load(Ordering::Relaxed) - before;
    (n, res.conservation.arrivals)
}

// The only test in this binary, so no other thread allocates while a
// run is being counted.
#[test]
fn stats_only_spans_do_not_allocate_per_request() {
    let (off_short, n_short) = allocs(20, false);
    let (on_short, n_on_short) = allocs(20, true);
    let (off_long, n_long) = allocs(40, false);
    let (on_long, n_on_long) = allocs(40, true);
    assert_eq!(
        (n_short, n_long),
        (n_on_short, n_on_long),
        "spans perturbed the run"
    );
    let added = n_long - n_short;
    assert!(added > 10_000, "the longer window adds {added} requests");
    let short = on_short as i64 - off_short as i64;
    let long = on_long as i64 - off_long as i64;
    assert!(
        long - short < POOL_CAP as i64,
        "spans allocated {short} extra on the short run and {long} on the long one: \
         {} more for {added} more requests",
        long - short
    );
}
