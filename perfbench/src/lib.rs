//! Host-cost benchmark of the simulator.
//!
//! Drives the simulator only through its public API
//! (`Simulation::new` / `Simulation::run`, `RunParams`, the `Workload`
//! trait, `RunResult`) on three fixed workloads, and reports what a
//! simulated request costs on the host — wall time, set-up time, peak
//! memory and heap allocations — next to the model's own throughput,
//! latency and served share. A separate traced run attributes the wall
//! time to the workspace crates. `README.md` in this directory maps
//! every per-layer metric to the end-to-end metric it should move.

pub mod bench;
pub mod run;
pub mod stats;
pub mod workloads;
