//! The repo's benchmark: five workloads, end-to-end metrics with
//! bounds, a per-layer ledger and an outside-in traced run. See
//! `README.md` next to this crate for the tables and the reasons.
//!
//! ```sh
//! # One run of one workload, as BENCHMARK.json's command asks for it:
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload scale-2k --seed 1 --seconds 12 --trace 0
//! # Every workload, several seeds, results.json and trace.json:
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run [--seed N] [--runs N] [--smoke]
//! # Two result files against the bounds:
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare a.json b.json
//! ```
//!
//! # API-surface rule
//!
//! This crate drives the workspace crates from outside, through public
//! functions only, and later PRs that shrink the workspace may not edit
//! this directory. So that it still compiles after they land:
//!
//! * build configs with `..FlowConfig::default()`, `PacketConfig::default()`
//!   and `EventQueue::new()`;
//! * never name `Scheduler::Heap`, `SolverMode`, `run_scale_once_sched`,
//!   the per-figure bins or any `all_figures` flag — ROADMAP items 2–3
//!   delete those;
//! * reach experiments through `registry::find(name)` and pinned names.

mod compare;
mod driver;
mod host;
mod micro;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use driver::RunArgs;
use std::process::ExitCode;
use workloads::{Size, Workload};

const USAGE: &str = "usage:
  wp2p-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  wp2p-benchmark run [--seed <n>] [--runs <n>] [--seconds <s>] [--smoke]
  wp2p-benchmark compare <a.json> <b.json>
  wp2p-benchmark spec";

/// The value following `flag`, parsed; `None` when the flag is absent.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a valid value")),
    }
}

/// Every run sees the default scheduler and solver on one worker
/// thread, whatever the caller's environment says.
fn scrub_environment() {
    std::env::remove_var("WP2P_SCHEDULER");
    std::env::remove_var("WP2P_RATE_SOLVER");
    std::env::set_var("WP2P_THREADS", "1");
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    let size = if args.iter().any(|a| a == "--smoke") {
        Size::Smoke
    } else {
        Size::Full
    };
    let seed = flag::<u64>(args, "--seed")?.unwrap_or(0);
    // `--smoke` shrinks the defaults with the inputs: the whole of
    // `run --smoke` ends within half a minute.
    let (default_seconds, default_runs) = match size {
        Size::Full => (spec::RUN_SECONDS as f64, 5),
        Size::Smoke => (0.5, 2),
    };
    let seconds = flag::<f64>(args, "--seconds")?.unwrap_or(default_seconds);
    if let Some(name) = flag::<String>(args, "--workload")? {
        let workload =
            Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
        let trace = flag::<u8>(args, "--trace")?.unwrap_or(0) != 0;
        return Ok(driver::run(&RunArgs {
            workload,
            seed,
            seconds,
            trace,
            size,
        }));
    }
    match args.first().map(String::as_str) {
        Some("run") => {
            let runs = flag::<u64>(args, "--runs")?.unwrap_or(default_runs).max(1);
            suite::run(seed, runs, seconds, size)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("compare takes two result files".to_string()),
        },
        Some("spec") => {
            println!("{}", spec::benchmark_json().render());
            Ok(0)
        }
        _ => Err("no command".to_string()),
    }
}

fn main() -> ExitCode {
    scrub_environment();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
