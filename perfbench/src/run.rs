//! One timed repeat of a workload, the checks every repeat must pass,
//! and the timing/recording wrappers around the `apps` layer.

use std::time::Instant;

use desim::Rng;
use paging::Trace;
use runtime::sim::{Conservation, RunResult};
use runtime::{Simulation, Workload};

use crate::workloads::{Layers, Spec};

/// Reads the process-wide heap-allocation counter (the benchmark
/// binary installs a counting allocator; tests pass a stub).
pub type AllocCounter = fn() -> u64;

/// The model-side outputs of one run. Simulated time is deterministic
/// for a given seed, so repeats of one seed must agree exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelOutput {
    /// End-of-run request conservation.
    pub arrivals: u64,
    pub completions: u64,
    pub drops: u64,
    pub sheds: u64,
    pub aborts: u64,
    pub inflight_at_end: u64,
    /// Completions inside the measurement window.
    pub window_completions: u64,
    /// Windowed end-to-end latency percentiles, ns.
    pub p50_ns: u64,
    pub p999_ns: u64,
}

impl ModelOutput {
    fn of(res: &RunResult) -> ModelOutput {
        let c = res.conservation;
        let h = res.recorder.overall();
        ModelOutput {
            arrivals: c.arrivals,
            completions: c.completions,
            drops: c.drops,
            sheds: c.sheds,
            aborts: c.aborts,
            inflight_at_end: c.inflight_at_end,
            window_completions: res.recorder.completed_in_window(),
            p50_ns: h.percentile(50.0),
            p999_ns: h.percentile(99.9),
        }
    }

    /// The conservation record this output was taken from.
    pub fn conservation(&self) -> Conservation {
        Conservation {
            arrivals: self.arrivals,
            completions: self.completions,
            drops: self.drops,
            sheds: self.sheds,
            aborts: self.aborts,
            inflight_at_end: self.inflight_at_end,
        }
    }
}

/// Host timings and model outputs of one repeat.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Workload build (the `apps` layer's set-up), ns.
    pub build_ns: u64,
    /// `Simulation::new`, including cache warm-up, ns.
    pub new_ns: u64,
    /// `Simulation::run`, wall time, ns.
    pub run_ns: u64,
    /// `Simulation::run`, on-CPU time of the thread, ns.
    pub run_cpu_ns: u64,
    /// Heap allocations during `Simulation::run`.
    pub allocs: u64,
    /// Model outputs.
    pub model: ModelOutput,
    /// Checks this repeat failed, one line each.
    pub failures: Vec<String>,
}

/// How the workload is wrapped for a repeat.
#[derive(Clone, Copy, Debug)]
pub enum Wrap {
    /// Called directly.
    Bare,
    /// Every trace-generation call timed (see [`Timed`]).
    Timed,
    /// Every generated page access recorded (see [`Recorded`]).
    Recorded,
}

/// What a wrapper saw during a repeat.
#[derive(Default)]
pub struct WrapStats {
    /// Summed duration of the timed calls, ns (uncorrected).
    pub apps_ns: u64,
    /// Trace-generation calls.
    pub calls: u64,
    /// Recorded page accesses in generation order, packed as
    /// `page << 1 | write`.
    pub accesses: Vec<u64>,
    /// Pages of the application's working set.
    pub total_pages: u64,
    /// The application's own warm set, if it has one.
    pub warm_pages: Option<Vec<u64>>,
}

/// The workload as one repeat holds it.
enum Held {
    Bare(Box<dyn Workload>),
    Timed(Timed),
    Recorded(Recorded),
}

impl Held {
    fn as_dyn(&mut self) -> &mut dyn Workload {
        match self {
            Held::Bare(w) => w.as_mut(),
            Held::Timed(w) => w,
            Held::Recorded(w) => w,
        }
    }
}

/// Runs one repeat of `spec` with `layers` on: build, `Simulation::new`,
/// `Simulation::run`, then the checks.
pub fn run_once(
    spec: &Spec,
    seed: u64,
    layers: Layers,
    wrap: Wrap,
    allocs: AllocCounter,
) -> (Sample, RunResult, WrapStats) {
    let t0 = Instant::now();
    let app = spec.build_app(seed);
    let t1 = Instant::now();
    let params = spec.params(seed, layers);
    let mut held = match wrap {
        Wrap::Bare => Held::Bare(app),
        Wrap::Timed => Held::Timed(Timed::new(app)),
        Wrap::Recorded => Held::Recorded(Recorded::new(app)),
    };
    let t1b = Instant::now();
    let sim = Simulation::new(spec.system(), held.as_dyn(), params);
    let t2 = Instant::now();
    let a0 = allocs();
    let c0 = thread_cpu_ns();
    let res = sim.run();
    let c1 = thread_cpu_ns();
    let a1 = allocs();
    let t3 = Instant::now();
    let stats = match held {
        Held::Bare(_) => WrapStats::default(),
        Held::Timed(t) => WrapStats {
            apps_ns: t.ns,
            calls: t.calls,
            ..Default::default()
        },
        Held::Recorded(r) => WrapStats {
            calls: r.calls,
            total_pages: r.inner.total_pages(),
            warm_pages: r.inner.warm_pages(),
            accesses: r.accesses,
            ..Default::default()
        },
    };
    let sample = Sample {
        build_ns: nanos(t0, t1),
        new_ns: nanos(t1b, t2),
        run_ns: nanos(t2, t3),
        run_cpu_ns: c1 - c0,
        allocs: a1 - a0,
        model: ModelOutput::of(&res),
        failures: check_run(&res, layers),
    };
    (sample, res, stats)
}

/// Times one set-up (build plus `Simulation::new`) without running it.
pub fn setup_once(spec: &Spec, seed: u64) -> u64 {
    let t0 = Instant::now();
    let mut app = spec.build_app(seed);
    let sim = Simulation::new(spec.system(), app.as_mut(), spec.params(seed, spec.layers));
    let ns = nanos(t0, Instant::now());
    drop(sim);
    ns
}

/// On-CPU time of the calling thread, ns (`CLOCK_THREAD_CPUTIME_ID`).
///
/// Unlike wall time it excludes intervals in which the OS ran another
/// task on this CPU.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn nanos(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

/// The checks of one run beyond request conservation (which [`tally`]
/// checks on the recorded [`ModelOutput`]); returns one line per failure.
pub fn check_run(res: &RunResult, layers: Layers) -> Vec<String> {
    let mut out = Vec::new();
    if res.recorder.completed_in_window() == 0 {
        out.push("no completions inside the measurement window".into());
    }
    if layers.memory {
        match &res.memory {
            Some(m) if !m.holds() => {
                out.push("memory observatory: prefetch-fate conservation broken".into())
            }
            Some(_) => {}
            None => out.push("memory observatory on but no report".into()),
        }
    }
    if layers.profile {
        match &res.profile {
            Some(p) => {
                let window = res.window.as_nanos();
                for c in p.cores.iter().filter(|c| c.total_ns() != window) {
                    out.push(format!(
                        "profiler: core {} tiles {} ns of a {window} ns window",
                        c.label,
                        c.total_ns()
                    ));
                }
            }
            None => out.push("profiler on but no report".into()),
        }
    }
    if layers.spans && res.spans.is_none() {
        out.push("spans on but no span report".into());
    }
    out
}

/// The request-conservation identity.
pub fn check_conservation(c: &Conservation) -> Option<String> {
    (!c.holds()).then(|| {
        format!(
            "conservation: {} arrivals != {} completed + {} dropped + {} shed + {} aborted + {} in flight",
            c.arrivals, c.completions, c.drops, c.sheds, c.aborts, c.inflight_at_end
        )
    })
}

/// Checks a set of repeats of one seed: each must pass its own checks,
/// its recorded conservation must hold, and its model outputs (and, if
/// given, its allocation count) must equal the reference's, which is
/// the first repeat's. A failing
/// repeat counts all of its arrivals as failed. Returns `(attempted,
/// failed, failure lines)`.
pub fn tally(
    reference: &ModelOutput,
    allocs: Option<u64>,
    samples: &[Sample],
) -> (u64, u64, Vec<String>) {
    let mut attempted = 0;
    let mut failed = 0;
    let mut lines = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        attempted += s.model.arrivals;
        let mut bad: Vec<String> = s.failures.clone();
        bad.extend(check_conservation(&s.model.conservation()));
        if s.model != *reference {
            bad.push(format!(
                "model outputs differ from the first repeat of this seed: {:?} vs {:?}",
                s.model, reference
            ));
        }
        if allocs.is_some_and(|a| a != s.allocs) {
            bad.push(format!(
                "{} allocations, the first repeat of this seed made {}",
                s.allocs,
                allocs.unwrap_or(0)
            ));
        }
        if !bad.is_empty() {
            failed += s.model.arrivals;
            lines.extend(bad.into_iter().map(|b| format!("repeat {i}: {b}")));
        }
    }
    (attempted.max(1), failed, lines)
}

/// Times every trace-generation call of the wrapped workload with two
/// clock reads. The sum includes part of the clock-read cost; the
/// caller subtracts the calibrated per-call cost (see
/// [`calibrate_wrapper`]).
pub struct Timed {
    inner: Box<dyn Workload>,
    ns: u64,
    calls: u64,
}

impl Timed {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Workload>) -> Timed {
        Timed {
            inner,
            ns: 0,
            calls: 0,
        }
    }

    fn time<R>(&mut self, f: impl FnOnce(&mut dyn Workload) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self.inner.as_mut());
        let t1 = Instant::now();
        self.ns += t1.duration_since(t0).as_nanos() as u64;
        self.calls += 1;
        r
    }
}

impl Workload for Timed {
    fn classes(&self) -> &'static [&'static str] {
        self.inner.classes()
    }

    fn total_pages(&self) -> u64 {
        self.inner.total_pages()
    }

    fn next_request(&mut self, rng: &mut Rng) -> Trace {
        self.time(|w| w.next_request(rng))
    }

    fn next_request_into(&mut self, rng: &mut Rng, buf: &mut Trace) {
        self.time(|w| w.next_request_into(rng, buf))
    }

    fn next_request_for(&mut self, tenant: usize, rng: &mut Rng, buf: &mut Trace) {
        self.time(|w| w.next_request_for(tenant, rng, buf))
    }

    fn warm_pages(&self) -> Option<Vec<u64>> {
        self.inner.warm_pages()
    }
}

/// Records every page access the wrapped workload generates, for the
/// standalone page-cache replay and the access counts.
pub struct Recorded {
    inner: Box<dyn Workload>,
    calls: u64,
    accesses: Vec<u64>,
}

impl Recorded {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Workload>) -> Recorded {
        Recorded {
            inner,
            calls: 0,
            accesses: Vec::new(),
        }
    }

    fn note(&mut self, t: &Trace) {
        self.calls += 1;
        self.accesses.extend(
            t.steps
                .iter()
                .filter_map(|s| s.access.map(|a| a.page << 1 | u64::from(a.write))),
        );
    }
}

impl Workload for Recorded {
    fn classes(&self) -> &'static [&'static str] {
        self.inner.classes()
    }

    fn total_pages(&self) -> u64 {
        self.inner.total_pages()
    }

    fn next_request(&mut self, rng: &mut Rng) -> Trace {
        let t = self.inner.next_request(rng);
        self.note(&t);
        t
    }

    fn next_request_into(&mut self, rng: &mut Rng, buf: &mut Trace) {
        self.inner.next_request_into(rng, buf);
        self.note(buf);
    }

    fn next_request_for(&mut self, tenant: usize, rng: &mut Rng, buf: &mut Trace) {
        self.inner.next_request_for(tenant, rng, buf);
        self.note(buf);
    }

    fn warm_pages(&self) -> Option<Vec<u64>> {
        self.inner.warm_pages()
    }
}

/// A workload whose trace generation does nothing: the calibration
/// target of the timing wrapper.
struct Nop;

impl Workload for Nop {
    fn classes(&self) -> &'static [&'static str] {
        &["nop"]
    }

    fn total_pages(&self) -> u64 {
        1
    }

    fn next_request(&mut self, _rng: &mut Rng) -> Trace {
        Trace::default()
    }

    fn next_request_into(&mut self, _rng: &mut Rng, buf: &mut Trace) {
        std::hint::black_box(buf);
    }
}

/// Calibration of the timing wrapper, ns per call.
#[derive(Clone, Copy, Debug)]
pub struct WrapperCost {
    /// Wall time the wrapper adds to a call (two clock reads and the
    /// accumulation).
    pub added_ns: f64,
    /// Part of that the wrapper's own interval includes (what it reads
    /// around a call that does nothing).
    pub inside_ns: f64,
}

/// Measures [`WrapperCost`] over `calls` calls of a no-op workload:
/// the median of `rounds` paired rounds of wrapped and bare calls.
pub fn calibrate_wrapper(calls: u64, rounds: usize) -> WrapperCost {
    let mut rng = Rng::new(1);
    let mut buf = Trace::default();
    let mut added = Vec::with_capacity(rounds);
    let mut inside = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut bare = Nop;
        let t0 = Instant::now();
        for _ in 0..calls {
            let w: &mut dyn Workload = &mut bare;
            std::hint::black_box(w).next_request_into(&mut rng, &mut buf);
        }
        let bare_ns = t0.elapsed().as_nanos() as f64;
        let mut timed = Timed::new(Box::new(Nop));
        let t0 = Instant::now();
        for _ in 0..calls {
            let w: &mut dyn Workload = &mut timed;
            std::hint::black_box(w).next_request_into(&mut rng, &mut buf);
        }
        let timed_ns = t0.elapsed().as_nanos() as f64;
        added.push((timed_ns - bare_ns) / calls as f64);
        inside.push(timed.ns as f64 / calls as f64);
    }
    WrapperCost {
        added_ns: crate::stats::median(&added),
        inside_ns: crate::stats::median(&inside),
    }
}
