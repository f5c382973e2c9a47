//! Calibration probe: saturation sweep of all four systems on the
//! microbenchmark. Compares against the paper's anchors (DiLOS stalls
//! ~1.5 MRPS at ~50 % RDMA util, Adios ~2.5 MRPS at ~82 %, Hermit ~1.2).

use desim::SimDuration;
use loadgen::LoadPoint;
use runtime::sim::{run_one, RunParams};
use runtime::{ArrayIndexWorkload, SystemConfig, SystemKind};

fn main() {
    // 2 GB working set (scaled from the paper's 40 GB), 20 % local.
    let pages = 2 * (1 << 30) / paging::PAGE_SIZE;
    for kind in SystemKind::all() {
        println!("== {} ==", kind.name());
        println!("{}", LoadPoint::header());
        for load_k in [200, 700, 1100, 1300, 1500, 1700, 2000, 2300, 2600, 3000] {
            let params = RunParams {
                offered_rps: load_k as f64 * 1000.0,
                seed: 7,
                warmup: SimDuration::from_millis(20),
                measure: SimDuration::from_millis(60),
                local_mem_fraction: 0.2,
                keep_breakdowns: false,
                trace_capacity: None,
                spans: None,
                faults: None,
                telemetry: None,
                profile: None,
                memory: None,
                tenants: None,
            };
            let mut w = ArrayIndexWorkload::new(pages);
            let res = run_one(SystemConfig::for_kind(kind), &mut w, params);
            println!("{}  spin={:.2}", res.point().row(), res.spin_fraction());
        }
    }
}
