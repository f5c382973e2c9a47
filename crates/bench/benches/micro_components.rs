//! Microbenchmarks of the hot components: the real unithread switch
//! (Table 1's mechanism), the DES event queue, the histogram and the
//! page cache. These quantify that the *simulator itself* is fast
//! enough for the full-figure sweeps.
//!
//! Self-contained harness (no external benchmark crate): each case is
//! timed over enough iterations to amortize clock reads, after a short
//! warm-up, and reports mean wall time per iteration.

use std::hint::black_box;
use std::time::Instant;

use desim::{EventQueue, Histogram, Rng, SimTime};
use paging::{EvictionPolicy, PageCache, PageState};
use unithread::cycles::{measure_heavy_switch, measure_unithread_switch};
use unithread::Runner;

/// Times `f` over `iters` iterations (after `iters / 10 + 1` warm-up
/// runs) and prints mean ns/iter.
fn bench(name: &str, iters: u64, mut f: impl FnMut()) {
    for _ in 0..(iters / 10 + 1) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total = start.elapsed();
    println!(
        "{name:<44} {:>12.0} ns/iter  ({iters} iters)",
        total.as_nanos() as f64 / iters as f64
    );
}

fn bench_context_switch() {
    // One iteration = 2000 round trips = 4000 one-way switches.
    bench("context_switch/unithread_4000_switches", 200, || {
        black_box(measure_unithread_switch(1, 2_000));
    });
    bench("context_switch/ucontext_equivalent_4000", 200, || {
        black_box(measure_heavy_switch(1, 2_000));
    });
}

fn bench_runner() {
    let mut runner = Runner::new(64, 16 * 1024, 128);
    bench("runner_spawn_run_recycle", 100_000, || {
        let tid = runner.spawn(b"req", |y| y.yield_now()).unwrap();
        runner.run_until_idle();
        black_box(tid);
    });
}

fn bench_event_queue() {
    let mut rng = Rng::new(7);
    let mut times: Vec<u64> = (0..1_000).map(|_| rng.gen_range(1_000_000)).collect();
    times.sort_unstable();
    bench("event_queue_push_pop_1k", 2_000, || {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime(*t), i);
        }
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        black_box(n);
    });
}

fn bench_histogram() {
    let mut rng = Rng::new(9);
    let values: Vec<u64> = (0..10_000)
        .map(|_| 1 + rng.gen_range(100_000_000))
        .collect();
    bench("histogram_record_10k", 2_000, || {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        black_box(h.percentile(99.9));
    });
}

fn bench_page_cache() {
    let mut cache = PageCache::new(1_024, 1 << 20, EvictionPolicy::Clock);
    let mut rng = Rng::new(5);
    cache.warm(900, &mut rng);
    bench("page_cache_fault_evict_cycle", 1_000_000, || {
        let page = rng.gen_range(1 << 20);
        match cache.lookup(page) {
            PageState::Resident => cache.touch(page, false),
            PageState::InFlight => cache.complete_fetch(page),
            PageState::NotResident => {
                if !cache.begin_fetch(page) {
                    cache.evict_one();
                    assert!(cache.begin_fetch(page));
                }
                cache.complete_fetch(page);
            }
        }
        black_box(cache.free_frames());
    });
}

fn bench_simulation_throughput() {
    // How fast the DES itself runs: one 4 ms microbenchmark window at
    // 1.3 MRPS is ~50k requests / ~500k events per iteration.
    use adios_core::prelude::*;
    let mut wl = ArrayIndexWorkload::new(16_384);
    bench("simulation_4ms_window_at_1_3mrps", 10, || {
        let r = run_one(
            SystemConfig::adios(),
            &mut wl,
            RunParams {
                offered_rps: 1_300_000.0,
                seed: 3,
                warmup: desim::SimDuration::from_millis(1),
                measure: desim::SimDuration::from_millis(4),
                local_mem_fraction: 0.2,
                keep_breakdowns: false,
                ..Default::default()
            },
        );
        black_box(r.recorder.completed_in_window());
    });
}

fn main() {
    bench_context_switch();
    bench_runner();
    bench_event_queue();
    bench_histogram();
    bench_page_cache();
    bench_simulation_throughput();
}
