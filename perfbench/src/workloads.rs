//! The benchmark's three workloads and the observability layers a run
//! can switch on. Each workload is a fixed window of simulated Adios
//! work at 20 % local memory; only the application, the offered rate,
//! the enabled layers and the fault scenario differ.

use apps::silo::{TpccScale, TpccWorkload};
use apps::RocksDbWorkload;
use desim::{ProfileConfig, SimDuration, TelemetryConfig};
use faults::FaultScenario;
use runtime::sim::{MemObsConfig, RunParams};
use runtime::{ArrayIndexWorkload, SystemConfig, Workload};

/// Local DRAM share of the working set, as in the paper's default.
pub const LOCAL_MEM_FRACTION: f64 = 0.2;
/// Ring capacity of the event-trace layer when it is on.
pub const TRACE_RING: usize = 64 * 1024;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    /// `ArrayIndexWorkload` at 2x the modelled capacity, layers off.
    MicroOverload,
    /// Silo TPC-C below the knee, layers off.
    TpccRw,
    /// RocksDB GET/SCAN with every layer on and steady 2 % loss.
    RocksdbObserved,
}

impl WorkloadId {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [WorkloadId; 3] = [
        WorkloadId::MicroOverload,
        WorkloadId::TpccRw,
        WorkloadId::RocksdbObserved,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::MicroOverload => "micro-overload",
            WorkloadId::TpccRw => "tpcc-rw",
            WorkloadId::RocksdbObserved => "rocksdb-observed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The five observability layers of the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Layers {
    /// Stats-only spans, through `RunParams::keep_breakdowns`.
    pub spans: bool,
    /// The virtual-time event trace ring.
    pub trace: bool,
    /// The telemetry flight recorder with its default SLO rules.
    pub telemetry: bool,
    /// The core profiler and queueing observatory.
    pub profile: bool,
    /// The memory-access observatory.
    pub memory: bool,
}

impl Layers {
    /// Every layer off.
    pub const NONE: Layers = Layers {
        spans: false,
        trace: false,
        telemetry: false,
        profile: false,
        memory: false,
    };
    /// Every layer on.
    pub const ALL: Layers = Layers {
        spans: true,
        trace: true,
        telemetry: true,
        profile: true,
        memory: true,
    };
    /// Layer names, in the order of [`Layers::only`].
    pub const NAMES: [&'static str; 5] = ["spans", "trace", "telemetry", "profile", "memory"];

    /// Only the `i`-th layer of [`Layers::NAMES`] on.
    pub fn only(i: usize) -> Layers {
        let mut l = Layers::NONE;
        match i {
            0 => l.spans = true,
            1 => l.trace = true,
            2 => l.telemetry = true,
            3 => l.profile = true,
            4 => l.memory = true,
            _ => panic!("no layer {i}"),
        }
        l
    }

    /// Names of the layers that are on.
    pub fn enabled(self) -> Vec<&'static str> {
        let on = [
            self.spans,
            self.trace,
            self.telemetry,
            self.profile,
            self.memory,
        ];
        Layers::NAMES
            .into_iter()
            .zip(on)
            .filter_map(|(n, on)| on.then_some(n))
            .collect()
    }
}

/// The full definition of one workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Which workload.
    pub id: WorkloadId,
    /// Application and its sizes, for the self-description.
    pub app: &'static str,
    /// Offered load (open-loop Poisson source in virtual time).
    pub offered_rps: f64,
    /// Simulated warm-up, excluded from the model metrics.
    pub warmup: SimDuration,
    /// Simulated measurement window of the model metrics.
    pub measure: SimDuration,
    /// Simulated window of the repeats that are timed on the host
    /// (see [`Spec::timed`]); at most `measure`.
    pub timed_measure: SimDuration,
    /// Observability layers the workload runs with.
    pub layers: Layers,
    /// Steady per-packet loss (`None` = the inert fault plane).
    pub loss: Option<f64>,
}

impl Spec {
    /// The benchmark's definition of `id`.
    pub fn of(id: WorkloadId) -> Spec {
        match id {
            // Same system, app, size and rate as the `BENCH_adios.json`
            // capture, so `model_rps` continues that series.
            WorkloadId::MicroOverload => Spec {
                id,
                app: "ArrayIndexWorkload(16384 pages)",
                offered_rps: 5_000_000.0,
                warmup: SimDuration::from_millis(100),
                measure: SimDuration::from_millis(200),
                timed_measure: SimDuration::from_millis(200),
                layers: Layers::NONE,
                loss: None,
            },
            WorkloadId::TpccRw => Spec {
                id,
                app: "TpccWorkload(TpccScale::paper_like(2))",
                offered_rps: 100_000.0,
                warmup: SimDuration::from_millis(20),
                // Long enough for ~200 completions beyond p99.9: the
                // TPC-C tail varies with the seed.
                measure: SimDuration::from_millis(2000),
                // A 2 s repeat takes ~6 s on the host; shorter timed
                // repeats give ~30 host samples per half minute.
                timed_measure: SimDuration::from_millis(200),
                layers: Layers::NONE,
                loss: None,
            },
            WorkloadId::RocksdbObserved => Spec {
                id,
                app: "RocksDbWorkload(200000 keys, 1024 B values, 99% GET / 1% SCAN(100))",
                offered_rps: 700_000.0,
                warmup: SimDuration::from_millis(20),
                measure: SimDuration::from_millis(100),
                timed_measure: SimDuration::from_millis(100),
                layers: Layers::ALL,
                loss: Some(0.02),
            },
        }
    }

    /// The same workload with a shorter simulated window (tests).
    pub fn with_measure_ms(mut self, ms: u64) -> Spec {
        self.measure = SimDuration::from_millis(ms);
        self.timed_measure = self.timed_measure.min(self.measure);
        self.warmup = SimDuration::from_millis(ms.min(self.warmup.as_nanos() / 1_000_000));
        self
    }

    /// The workload as its host-timed repeats run it: the same
    /// definition with the window cut to `timed_measure`.
    pub fn timed(&self) -> Spec {
        Spec {
            measure: self.timed_measure,
            ..self.clone()
        }
    }

    /// The simulated system.
    pub fn system(&self) -> SystemConfig {
        SystemConfig::adios()
    }

    /// Builds the application. The seed also seeds the TPC-C load.
    pub fn build_app(&self, seed: u64) -> Box<dyn Workload> {
        match self.id {
            WorkloadId::MicroOverload => Box::new(ArrayIndexWorkload::new(16_384)),
            WorkloadId::TpccRw => Box::new(TpccWorkload::new(TpccScale::paper_like(2), seed)),
            WorkloadId::RocksdbObserved => Box::new(RocksDbWorkload::new(200_000, 1024)),
        }
    }

    /// Run parameters for `seed` with `layers` on.
    pub fn params(&self, seed: u64, layers: Layers) -> RunParams {
        RunParams {
            offered_rps: self.offered_rps,
            seed,
            warmup: self.warmup,
            measure: self.measure,
            local_mem_fraction: LOCAL_MEM_FRACTION,
            keep_breakdowns: layers.spans,
            trace_capacity: layers.trace.then_some(TRACE_RING),
            telemetry: layers.telemetry.then(TelemetryConfig::default),
            profile: layers.profile.then(ProfileConfig::default),
            memory: layers.memory.then(MemObsConfig::default),
            faults: self.loss.map(FaultScenario::with_loss),
            ..Default::default()
        }
    }

    /// The definition as a JSON object.
    pub fn to_json(&self) -> String {
        let layers: Vec<String> = self
            .layers
            .enabled()
            .iter()
            .map(|l| format!("\"{l}\""))
            .collect();
        let faults = match self.loss {
            Some(p) => format!("\"FaultScenario::with_loss({p})\""),
            None => "\"none\"".to_string(),
        };
        format!(
            "{{\"name\":\"{}\",\"system\":\"adios\",\"app\":\"{}\",\
             \"local_mem_fraction\":{LOCAL_MEM_FRACTION},\"offered_rps\":{},\
             \"arrivals\":\"open-loop Poisson in virtual time\",\
             \"warmup_ms\":{},\"measure_ms\":{},\"timed_measure_ms\":{},\"layers\":[{}],\
             \"trace_ring\":{},\"faults\":{faults}}}",
            self.id.name(),
            self.app,
            self.offered_rps,
            self.warmup.as_nanos() as f64 / 1e6,
            self.measure.as_nanos() as f64 / 1e6,
            self.timed_measure.as_nanos() as f64 / 1e6,
            layers.join(","),
            if self.layers.trace { TRACE_RING } else { 0 },
        )
    }
}
