//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a self-description line and then, as the last line of
//! standard output, `{"correct":..,"attempted":..,"failed":..,
//! "metrics":{..}}`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use perfbench::bench::{self, Outcome, END_TO_END, PER_LAYER};
use perfbench::workloads::{Spec, WorkloadId};

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

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const USAGE: &str = "usage: perfbench --workload <micro-overload|tpcc-rw|rocksdb-observed> \
                     --seed <u64> --seconds <1..=600> --trace <0|1> [--measure-ms <n>]";

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut measure_ms = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadId::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?).filter(|s| (1..=600).contains(s)),
            "--trace" => trace = Some(num()?).filter(|t| *t <= 1).map(|t| t == 1),
            "--measure-ms" => measure_ms = Some(num()?).filter(|m| *m >= 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mut spec = Spec::of(workload);
    if let Some(ms) = measure_ms {
        spec = spec.with_measure_ms(ms);
    }
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds must be 1..=600")?,
        trace: trace.ok_or("--trace must be 0 or 1")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        bench::traced(&args.spec, args.seed, args.seconds as f64, allocs)
    } else {
        bench::untraced(&args.spec, args.seed, args.seconds as f64, allocs)
    };
    for (name, unit, value) in &outcome.metrics {
        eprintln!("{name:<34} {value:>16.4} {unit}");
    }
    for f in &outcome.failures {
        eprintln!("FAILED CHECK: {f}");
    }
    println!("{}", describe(&args, &outcome));
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

/// The run's self-description: provenance, the workload's definition,
/// units, sample counts and how each number was obtained.
fn describe(args: &Args, o: &Outcome) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let table = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let units: Vec<String> = table
        .iter()
        .map(|(n, u)| format!("\"{n}\":\"{u}\""))
        .collect();
    let failures: Vec<String> = o
        .failures
        .iter()
        .map(|f| format!("\"{}\"", f.replace('\\', "\\\\").replace('"', "'")))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"perfbench\":{{\"schema\":1,\"commit\":\"{}\",\"source_fnv\":\"{}\",\
         \"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"threads\":1,\
         \"workload\":{},\"units\":{{{}}},\"run\":{},\"failures\":[{}]}}}}",
        commit(&root),
        source_fingerprint(&root),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.spec.to_json(),
        units.join(","),
        o.detail,
        failures.join(","),
    )
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_number(*v)))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.failed == 0 && o.failures.is_empty(),
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

/// JSON has no NaN or infinity; a non-finite value is a bug upstream.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v:?}")
}

/// The commit of the checkout, if it is a git work tree of its own.
fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the paths and contents of the sources the benchmark
/// builds (`Cargo.lock`, `crates/`, `perfbench/src`), so a result names
/// its code even where no git metadata exists.
fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        let rel = f.strip_prefix(root).unwrap_or(f).to_string_lossy();
        for b in rel.as_bytes().iter().chain(&bytes) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
