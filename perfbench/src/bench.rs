//! The untraced run (end-to-end metrics) and the traced run (per-layer
//! metrics) of one workload.

use std::collections::BTreeMap;
use std::time::Instant;

use desim::{CoreState, Histogram};
use paging::{PageCache, PageState};
use runtime::sim::RunResult;

use crate::run::{
    calibrate_wrapper, run_once, setup_once, tally, AllocCounter, Sample, Wrap, WrapStats,
};
use crate::stats::{median, quantile, quartiles};
use crate::workloads::{Layers, Spec, LOCAL_MEM_FRACTION};

/// End-to-end metrics, `(name, unit)`, in output order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("host_ns_per_req", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("allocs_per_req", "1/req"),
    ("model_rps", "1/s"),
    ("model_p50_us", "us"),
    ("model_p999_us", "us"),
    ("model_served_frac", "ratio"),
];

/// The ten critical-path stages of the span layer.
pub const STAGES: [&str; 10] = [
    "net",
    "dispatch",
    "queue",
    "handle",
    "spin",
    "fetch_wait",
    "qp_stall",
    "tx_wait",
    "ctx",
    "reply",
];

/// Per-layer metrics, `(name, unit)`, in output order.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("apps.trace_ns_per_req", "ns"),
    ("apps.run_share", "ratio"),
    ("apps.build_s", "s"),
    ("apps.accesses_per_req", "1/req"),
    ("apps.write_frac", "ratio"),
    ("runtime.self_ns_per_req", "ns"),
    ("runtime.new_s", "s"),
    ("runtime.dispatches_per_req", "1/req"),
    ("runtime.dispatcher_busy_frac", "ratio"),
    ("runtime.worker_busy_frac", "ratio"),
    ("runtime.worker_spin_frac", "ratio"),
    ("desim.span_ns_per_req", "ns"),
    ("desim.trace_ns_per_req", "ns"),
    ("desim.telemetry_ns_per_req", "ns"),
    ("desim.profile_ns_per_req", "ns"),
    ("paging.observe_ns_per_req", "ns"),
    ("desim.obs_all_ns_per_req", "ns"),
    ("model.stage.net_us", "us"),
    ("model.stage.dispatch_us", "us"),
    ("model.stage.queue_us", "us"),
    ("model.stage.handle_us", "us"),
    ("model.stage.spin_us", "us"),
    ("model.stage.fetch_wait_us", "us"),
    ("model.stage.qp_stall_us", "us"),
    ("model.stage.tx_wait_us", "us"),
    ("model.stage.ctx_us", "us"),
    ("model.stage.reply_us", "us"),
    ("paging.cache_ns_per_access", "ns"),
    ("paging.hit_rate", "ratio"),
    ("paging.misses_per_req", "1/req"),
    ("paging.coalesced_per_req", "1/req"),
    ("paging.evictions_per_req", "1/req"),
    ("paging.dirty_evictions_per_req", "1/req"),
    ("paging.prefetches_per_req", "1/req"),
    ("paging.direct_reclaims_per_req", "1/req"),
    ("paging.prefetch_hit_rate", "ratio"),
    ("fabric.data_msgs_per_req", "1/req"),
    ("fabric.ctrl_msgs_per_req", "1/req"),
    ("fabric.data_util", "ratio"),
    ("fabric.qp_stalls_per_req", "1/req"),
    ("fabric.qp_full_retries_per_req", "1/req"),
    ("fabric.fetch_p50_us", "us"),
    ("fabric.fetch_p999_us", "us"),
    ("fabric.retransmits_per_req", "1/req"),
    ("faults.injected_losses_per_req", "1/req"),
    ("loadgen.arrivals", "count"),
    ("loadgen.completed", "count"),
    ("loadgen.dropped", "count"),
    ("bench.wrapper_ns_per_call", "ns"),
    ("bench.traced_overhead_x", "x"),
];

/// Fewest measured repeats of the untraced run.
const MIN_REPEATS: usize = 5;
/// Fewest rounds of the traced run's configuration matrix.
const MIN_ROUNDS: usize = 2;
/// Fewest set-up samples of the untraced run.
const MIN_SETUPS: usize = 5;
/// Most set-ups taken after one timed repeat, and the largest share of
/// the timed loop's time the set-ups may take.
const SETUPS_PER_REPEAT: usize = 4;
const SETUP_SHARE: f64 = 0.1;
/// Standalone page-cache replays (median taken).
const REPLAYS: usize = 5;

/// The result of one run of the benchmark.
pub struct Outcome {
    /// `(name, unit, value)` in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Simulated arrivals measured.
    pub attempted: u64,
    /// Arrivals of repeats that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// JSON object describing how the numbers were obtained.
    pub detail: String,
}

/// Collects named values, then emits them in a fixed table order.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    fn emit(
        self,
        table: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, &'static str, f64)> {
        table
            .iter()
            .map(|&(n, u)| {
                let v = self.0.get(n).copied();
                (
                    n,
                    u,
                    v.unwrap_or_else(|| panic!("metric {n} was not measured")),
                )
            })
            .collect()
    }
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn quartile_json(xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs);
    let all: Vec<String> = xs.iter().map(|x| format!("{x:.6e}")).collect();
    format!(
        "{{\"median\":{},\"q1\":{q1},\"q3\":{q3},\"p90\":{},\"samples\":{},\"values\":[{}]}}",
        median(xs),
        quantile(xs, 9, 10),
        xs.len(),
        all.join(",")
    )
}

/// Measures the end-to-end metrics: an untimed model run of the full
/// window, then timed repeats of the same seed on the timed window (see
/// [`Spec::timed`]) for at least `seconds`, with set-ups alone between
/// them.
pub fn untraced(spec: &Spec, seed: u64, seconds: f64, allocs: AllocCounter) -> Outcome {
    // The model run gives the model metrics and the allocation count,
    // and is the warm-up.
    let model_run = run_once(spec, seed, spec.layers, Wrap::Bare, allocs).0;
    // Peak memory of building and running the workload once; later
    // repeats only add allocator fragmentation.
    let rss = peak_rss_mib();
    // Repeat 0 of the timed window is untimed: the model run when the
    // windows agree, else a warm-up of its own. Every repeat is checked
    // against it.
    let timed = spec.timed();
    let same = timed.measure == spec.measure;
    let mut all = vec![if same {
        model_run.clone()
    } else {
        run_once(&timed, seed, timed.layers, Wrap::Bare, allocs).0
    }];
    // Set-ups are spread over the run: each starts from the heap the
    // repeat before it left. Taken back to back from one heap state,
    // their median varied by 1.7x from one process to the next.
    let mut setup = Vec::new();
    let mut setup_ns = 0;
    let t = Instant::now();
    while all.len() <= MIN_REPEATS || t.elapsed().as_secs_f64() < seconds {
        all.push(run_once(&timed, seed, timed.layers, Wrap::Bare, allocs).0);
        for _ in 0..SETUPS_PER_REPEAT {
            if setup_ns as f64 >= SETUP_SHARE * t.elapsed().as_nanos() as f64 {
                break;
            }
            let ns = setup_once(spec, seed);
            setup_ns += ns;
            setup.push(secs(ns));
        }
    }
    while setup.len() < MIN_SETUPS {
        setup.push(secs(setup_once(spec, seed)));
    }
    let (mut attempted, mut failed, mut failures) = tally(
        &model_run.model,
        Some(model_run.allocs),
        std::slice::from_ref(&model_run),
    );
    let (a, f, lines) = tally(&all[0].model, Some(all[0].allocs), &all[usize::from(same)..]);
    attempted += a;
    failed += f;
    failures.extend(lines.into_iter().map(|l| format!("timed {l}")));
    let samples = &all[1..];

    let m = model_run.model;
    let arrivals = m.arrivals.max(1) as f64;
    let host: Vec<f64> = samples
        .iter()
        .map(|s| s.run_cpu_ns as f64 / s.model.arrivals.max(1) as f64)
        .collect();
    let wall: Vec<f64> = samples
        .iter()
        .map(|s| s.run_ns as f64 / s.model.arrivals.max(1) as f64)
        .collect();
    let mut v = Values::default();
    // The upper quartile: on a shared host a co-tenant's idle phases speed
    // repeats up for tens of seconds at a time, which moves the median of
    // a run more than its upper quartile.
    v.set("host_ns_per_req", quartiles(&host).1);
    v.set("setup_s", median(&setup));
    v.set("peak_rss_mib", rss);
    v.set("allocs_per_req", model_run.allocs as f64 / arrivals);
    v.set(
        "model_rps",
        m.window_completions as f64 / spec.measure.as_secs_f64(),
    );
    v.set("model_p50_us", m.p50_ns as f64 / 1e3);
    v.set("model_p999_us", m.p999_ns as f64 / 1e3);
    v.set("model_served_frac", m.completions as f64 / arrivals);

    let fail_frac = (m.drops + m.sheds + m.aborts) as f64 / arrivals;
    let detail = format!(
        "{{\"repeats\":{},\"warmup_repeats\":{},\"timed_arrivals\":{},\"host_ns_per_req\":{},\"wall_ns_per_req\":{},\"setup_s\":{},\
         \"allocs_per_run\":{},\"model\":{{\"window_completions\":{},\
         \"completions_beyond_p999\":{},\"arrivals\":{},\"completions\":{},\"dropped\":{},\
         \"shed\":{},\"aborted\":{},\"inflight_at_end\":{},\"model_fail_frac\":{fail_frac}}}}}",
        samples.len(),
        2 - usize::from(same),
        all[0].model.arrivals,
        quartile_json(&host),
        quartile_json(&wall),
        quartile_json(&setup),
        model_run.allocs,
        m.window_completions,
        m.window_completions / 1000,
        m.arrivals,
        m.completions,
        m.drops,
        m.sheds,
        m.aborts,
        m.inflight_at_end,
    );
    Outcome {
        metrics: v.emit(&END_TO_END),
        attempted,
        failed,
        failures,
        detail,
    }
}

/// One configuration of the traced run's matrix.
struct Config {
    name: &'static str,
    layers: Layers,
    wrap: Wrap,
    runs: Vec<Sample>,
    /// What the wrapper saw in each run (`wrapped` only).
    wrapper: Vec<WrapStats>,
}

impl Config {
    fn new(name: &'static str, layers: Layers, wrap: Wrap) -> Config {
        Config {
            name,
            layers,
            wrap,
            runs: Vec::new(),
            wrapper: Vec::new(),
        }
    }

    /// Wall time of each run per arrival, ns.
    fn ns_per_req(&self) -> Vec<f64> {
        self.runs
            .iter()
            .map(|s| s.run_ns as f64 / s.model.arrivals.max(1) as f64)
            .collect()
    }

    fn median_ns_per_req(&self) -> f64 {
        median(&self.ns_per_req())
    }
}

/// Measures the per-layer metrics. An untimed model pass of the full
/// window with every layer on records the access stream; then rounds of
/// a configuration matrix on the timed window run for at least
/// `seconds`: the workload's own layers with the `apps` timing wrapper,
/// every layer off, each layer alone, and every layer on.
pub fn traced(spec: &Spec, seed: u64, seconds: f64, allocs: AllocCounter) -> Outcome {
    let cost = calibrate_wrapper(200_000, 9);
    let (s0, res0, rec) = run_once(spec, seed, Layers::ALL, Wrap::Recorded, allocs);

    let mut configs = vec![
        Config::new("wrapped", spec.layers, Wrap::Timed),
        Config::new("off", Layers::NONE, Wrap::Bare),
    ];
    for (i, name) in Layers::NAMES.into_iter().enumerate() {
        configs.push(Config::new(name, Layers::only(i), Wrap::Bare));
    }
    configs.push(Config::new("all", Layers::ALL, Wrap::Bare));
    let timed = spec.timed();
    let t = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || t.elapsed().as_secs_f64() < seconds {
        for c in &mut configs {
            let (s, _, w) = run_once(&timed, seed, c.layers, c.wrap, allocs);
            c.runs.push(s);
            if let Wrap::Timed = c.wrap {
                c.wrapper.push(w);
            }
        }
        rounds += 1;
    }

    let (mut attempted, mut failed, lines) = tally(&s0.model, None, std::slice::from_ref(&s0));
    let mut failures: Vec<String> = lines
        .into_iter()
        .map(|l| format!("model pass: {l}"))
        .collect();
    // The layers are read-only, so every configuration reproduces the
    // model outputs of the timed window: the model pass's when the
    // windows agree, else those of the matrix's first run.
    let reference = if timed.measure == spec.measure {
        s0.model
    } else {
        configs[0].runs[0].model
    };
    for c in &configs {
        let (a, f, lines) = tally(&reference, None, &c.runs);
        attempted += a;
        failed += f;
        failures.extend(lines.into_iter().map(|l| format!("{}: {l}", c.name)));
    }

    let by_name = |n: &str| {
        configs
            .iter()
            .find(|c| c.name == n)
            .expect("configuration in the matrix")
    };
    let plain = if spec.layers == Layers::ALL {
        by_name("all")
    } else {
        by_name("off")
    };
    let off = by_name("off").median_ns_per_req();
    let mut v = Values::default();

    // apps and runtime: the timing wrapper splits the run's wall time.
    let wrapped = by_name("wrapped");
    let mut apps = Vec::new();
    let mut own = Vec::new();
    let mut share = Vec::new();
    for (s, w) in wrapped.runs.iter().zip(&wrapped.wrapper) {
        let arrivals = s.model.arrivals.max(1) as f64;
        let apps_ns = w.apps_ns as f64 - w.calls as f64 * cost.inside_ns;
        let wall_ns = s.run_ns as f64 - w.calls as f64 * cost.added_ns;
        apps.push(apps_ns / arrivals);
        own.push((wall_ns - apps_ns) / arrivals);
        share.push(apps_ns / wall_ns);
    }
    v.set("apps.trace_ns_per_req", median(&apps));
    v.set("apps.run_share", median(&share));
    v.set("runtime.self_ns_per_req", median(&own));
    let builds: Vec<f64> = configs
        .iter()
        .flat_map(|c| c.runs.iter().map(|s| secs(s.build_ns)))
        .collect();
    v.set("apps.build_s", median(&builds));
    let news: Vec<f64> = plain.runs.iter().map(|s| secs(s.new_ns)).collect();
    v.set("runtime.new_s", median(&news));
    let writes = rec.accesses.iter().filter(|a| *a & 1 == 1).count();
    v.set(
        "apps.accesses_per_req",
        rec.accesses.len() as f64 / rec.calls.max(1) as f64,
    );
    v.set(
        "apps.write_frac",
        writes as f64 / rec.accesses.len().max(1) as f64,
    );

    // Observability layers: each alone, and all five, minus all off.
    let layer_metric = [
        ("spans", "desim.span_ns_per_req"),
        ("trace", "desim.trace_ns_per_req"),
        ("telemetry", "desim.telemetry_ns_per_req"),
        ("profile", "desim.profile_ns_per_req"),
        ("memory", "paging.observe_ns_per_req"),
        ("all", "desim.obs_all_ns_per_req"),
    ];
    for (config, metric) in layer_metric {
        v.set(metric, by_name(config).median_ns_per_req() - off);
    }

    model_layers(&mut v, &res0);
    v.set(
        "paging.cache_ns_per_access",
        replay_cache_ns(spec, &rec, REPLAYS),
    );
    v.set("loadgen.arrivals", s0.model.arrivals as f64);
    v.set("loadgen.completed", s0.model.completions as f64);
    v.set("loadgen.dropped", s0.model.drops as f64);
    v.set("bench.wrapper_ns_per_call", cost.added_ns);
    v.set(
        "bench.traced_overhead_x",
        wrapped.median_ns_per_req() / plain.median_ns_per_req(),
    );

    let accounted = median(&apps) + median(&own);
    let matrix: Vec<String> = configs
        .iter()
        .map(|c| format!("\"{}\":{}", c.name, quartile_json(&c.ns_per_req())))
        .collect();
    let detail = format!(
        "{{\"rounds\":{rounds},\"wall_ns_per_req\":{{{}}},\
         \"wrapper\":{{\"added_ns\":{},\"inside_ns\":{}}},\
         \"apps_plus_runtime_ns_per_req\":{accounted},\"plain_ns_per_req\":{},\
         \"replayed_accesses\":{},\"model_pass_window_completions\":{}}}",
        matrix.join(","),
        cost.added_ns,
        cost.inside_ns,
        plain.median_ns_per_req(),
        rec.accesses.len(),
        s0.model.window_completions,
    );
    Outcome {
        metrics: v.emit(&PER_LAYER),
        attempted,
        failed,
        failures,
        detail,
    }
}

/// The model-side per-layer metrics of the model pass (every layer on).
fn model_layers(v: &mut Values, res: &RunResult) {
    let per_req = res.recorder.completed_in_window().max(1) as f64;
    let counter = |name: &str| res.metrics.counter(name).unwrap_or(0) as f64;

    v.set(
        "runtime.dispatches_per_req",
        counter("dispatches") / per_req,
    );
    let profile = res.profile.as_ref().expect("the model pass profiles");
    let busy =
        |c: &desim::CoreReport| 1.0 - c.fraction(CoreState::Idle) - c.fraction(CoreState::Park);
    let disp: Vec<f64> = profile
        .cores
        .iter()
        .filter(|c| !c.is_worker)
        .map(busy)
        .collect();
    let workers: Vec<f64> = profile
        .cores
        .iter()
        .filter(|c| c.is_worker)
        .map(busy)
        .collect();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    v.set("runtime.dispatcher_busy_frac", mean(&disp));
    v.set("runtime.worker_busy_frac", mean(&workers));
    v.set("runtime.worker_spin_frac", profile.worker_spin_fraction());

    let spans = res.spans.as_ref().expect("the model pass records spans");
    let stage_metric = [
        "model.stage.net_us",
        "model.stage.dispatch_us",
        "model.stage.queue_us",
        "model.stage.handle_us",
        "model.stage.spin_us",
        "model.stage.fetch_wait_us",
        "model.stage.qp_stall_us",
        "model.stage.tx_wait_us",
        "model.stage.ctx_us",
        "model.stage.reply_us",
    ];
    for (stage, metric) in STAGES.into_iter().zip(stage_metric) {
        let h = spans.stats.get(stage).expect("canonical stage");
        v.set(metric, h.mean() / 1e3);
    }

    let c = res.cache;
    v.set(
        "paging.hit_rate",
        c.hits as f64 / (c.hits + c.misses + c.coalesced).max(1) as f64,
    );
    v.set("paging.misses_per_req", c.misses as f64 / per_req);
    v.set("paging.coalesced_per_req", c.coalesced as f64 / per_req);
    v.set("paging.evictions_per_req", c.evictions as f64 / per_req);
    v.set(
        "paging.dirty_evictions_per_req",
        c.dirty_evictions as f64 / per_req,
    );
    v.set("paging.prefetches_per_req", counter("prefetches") / per_req);
    v.set(
        "paging.direct_reclaims_per_req",
        counter("direct_reclaims") / per_req,
    );
    let memory = res.memory.as_ref().expect("the model pass observes memory");
    v.set("paging.prefetch_hit_rate", memory.hit_rate());

    v.set(
        "fabric.data_msgs_per_req",
        counter("rdma_data_msgs") / per_req,
    );
    v.set(
        "fabric.ctrl_msgs_per_req",
        counter("rdma_ctrl_msgs") / per_req,
    );
    v.set("fabric.data_util", res.rdma_data_util);
    v.set("fabric.qp_stalls_per_req", counter("qp_stalls") / per_req);
    v.set(
        "fabric.qp_full_retries_per_req",
        counter("nic.qp_full_retries") / per_req,
    );
    let mut fetch = Histogram::new();
    for s in &res.shards {
        fetch.merge(&s.fetch_ns);
    }
    v.set("fabric.fetch_p50_us", fetch.percentile(50.0) as f64 / 1e3);
    v.set("fabric.fetch_p999_us", fetch.percentile(99.9) as f64 / 1e3);
    v.set(
        "fabric.retransmits_per_req",
        counter("fetch_retransmits") / per_req,
    );
    v.set(
        "faults.injected_losses_per_req",
        counter("faults.injected_losses") / per_req,
    );
}

/// Replays the recorded access stream through a standalone page cache
/// with the simulated node's capacity, fill level and eviction policy;
/// returns the median ns per access over `rounds` replays.
fn replay_cache_ns(spec: &Spec, rec: &WrapStats, rounds: usize) -> f64 {
    let cfg = spec.system();
    let total = rec.total_pages;
    let capacity = ((total as f64 * LOCAL_MEM_FRACTION).round() as usize).clamp(16, total as usize);
    let fill = if capacity == total as usize {
        capacity
    } else {
        capacity - cfg.watermarks.high_frames(capacity)
    };
    let mut per_access = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let mut cache = PageCache::new(capacity, total, cfg.eviction);
        match &rec.warm_pages {
            Some(pages) => cache.warm_with(pages.iter().copied().take(fill)),
            None => cache.warm(fill, &mut desim::Rng::new(r as u64 + 1)),
        }
        let t = Instant::now();
        for &a in &rec.accesses {
            let (page, write) = (a >> 1, a & 1 == 1);
            match cache.lookup(page) {
                PageState::Resident => cache.touch(page, write),
                _ => {
                    if !cache.begin_fetch(page) {
                        cache.evict_one();
                        assert!(cache.begin_fetch(page), "a frame was just freed");
                    }
                    cache.complete_fetch(page);
                    cache.touch(page, write);
                }
            }
        }
        let ns = t.elapsed().as_nanos() as f64;
        std::hint::black_box(cache.stats());
        per_access.push(ns / rec.accesses.len().max(1) as f64);
    }
    median(&per_access)
}
