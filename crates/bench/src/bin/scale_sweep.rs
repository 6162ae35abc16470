//! Single-cell scale timer: one flow-world swarm of `SIZE` peers, timed.
//!
//! ```sh
//! cargo run --release -p wp2p-bench --bin scale_sweep -- 16384 42
//! ```
//!
//! `scale_sweep SIZE [SEED] [--paper]` runs one [`run_scale_once`]
//! cell (quick-preset durations unless `--paper`; seed defaults to the
//! scale experiment's) and prints its wall clock, wall per virtual
//! second, and deterministic observables. CI uses it to hold the
//! 16k-peer cell inside a wall budget; the repeated, committed
//! measurements live in the repo benchmark (`benchmark/`).

use metrics::handle::MetricsHandle;
use p2p_simulation::experiments::scale::{run_scale_once, ScaleParams, SCALE_SEED};
use std::time::Instant;

/// `SIZE [SEED] [--paper]` → `(size, seed, paper)`; `None` on anything else.
fn parse_args(args: &[String]) -> Option<(usize, u64, bool)> {
    let (flags, nums): (Vec<&String>, Vec<&String>) =
        args.iter().partition(|a| a.starts_with("--"));
    let paper = match flags[..] {
        [] => false,
        [f] if f == "--paper" => true,
        _ => return None,
    };
    let (size, seed) = match nums[..] {
        [size] => (size.parse().ok()?, SCALE_SEED),
        [size, seed] => (size.parse().ok()?, seed.parse().ok()?),
        _ => return None,
    };
    (size >= 2).then_some((size, seed, paper))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((size, seed, paper)) = parse_args(&args) else {
        eprintln!("usage: scale_sweep SIZE [SEED] [--paper]   (SIZE >= 2)");
        std::process::exit(2);
    };
    let params = if paper {
        ScaleParams::paper()
    } else {
        ScaleParams::quick()
    };
    let t0 = Instant::now();
    let cell = run_scale_once(&params, size, &MetricsHandle::disabled(), seed);
    let wall = t0.elapsed().as_secs_f64();
    println!(
        "{size} peers, seed {seed}: {wall:.2} s wall, {:.1} ms/vsec",
        1e3 * wall / params.duration.as_secs_f64()
    );
    println!("{cell:?}");
}
