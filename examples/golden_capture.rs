//! Prints the `(len, FNV-1a)` anchors the determinism tests pin.
//!
//! `cargo run --release --example golden_capture` prints the golden
//! byte-stream anchors (run JSON and Perfetto export of the
//! observability-off ArrayIndex run). With `--all-layers` it prints the
//! all-layers anchors instead: the run JSON of a short RocksDB run with
//! every observability layer on under 2 % steady loss, and that run's
//! `breakdown_at(50 / 99 / 99.9)` rows.

use adios::prelude::*;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn golden() {
    let p = RunParams {
        offered_rps: 900_000.0,
        seed: 5,
        warmup: SimDuration::from_millis(3),
        measure: SimDuration::from_millis(12),
        local_mem_fraction: 0.2,
        keep_breakdowns: false,
        trace_capacity: Some(200_000),
        spans: Some(adios::desim::SpanConfig::with_exemplars(95.0, 32)),
        faults: None,
        telemetry: None,
        profile: None,
        memory: None,
        tenants: None,
    };
    let mut w = ArrayIndexWorkload::new(16_384);
    let res = run_one(SystemConfig::adios(), &mut w, p);
    let json = adios::core_api::run_json(&res);
    let perfetto = adios::desim::span::perfetto_json(&res.spans.as_ref().unwrap().exemplars);
    println!(
        "run_json len={} fnv=0x{:016x}",
        json.len(),
        fnv1a(json.as_bytes())
    );
    println!(
        "perfetto len={} fnv=0x{:016x}",
        perfetto.len(),
        fnv1a(perfetto.as_bytes())
    );
}

/// The all-layers run: keep in step with
/// `all_layers_rocksdb_run_matches_its_anchor` in `tests/determinism.rs`.
fn all_layers() {
    let p = RunParams {
        offered_rps: 700_000.0,
        seed: 3,
        warmup: SimDuration::from_millis(2),
        measure: SimDuration::from_millis(10),
        keep_breakdowns: true,
        trace_capacity: Some(64 * 1024),
        telemetry: Some(TelemetryConfig::default()),
        profile: Some(adios::desim::ProfileConfig::default()),
        memory: Some(MemObsConfig::default()),
        faults: Some(FaultScenario::with_loss(0.02)),
        ..Default::default()
    };
    let mut w = RocksDbWorkload::new(20_000, 1024);
    let mut res = run_one(SystemConfig::adios(), &mut w, p);
    let json = adios::core_api::run_json(&res);
    let rows: String = [50.0, 99.0, 99.9]
        .map(|q| format!("{:?}\n", res.recorder.breakdown_at(q)))
        .concat();
    println!(
        "all_layers run_json len={} fnv=0x{:016x}",
        json.len(),
        fnv1a(json.as_bytes())
    );
    println!(
        "all_layers breakdowns len={} fnv=0x{:016x}",
        rows.len(),
        fnv1a(rows.as_bytes())
    );
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        None => golden(),
        Some("--all-layers") => all_layers(),
        Some(other) => {
            eprintln!("usage: golden_capture [--all-layers] (unknown argument {other})");
            std::process::exit(2);
        }
    }
}
