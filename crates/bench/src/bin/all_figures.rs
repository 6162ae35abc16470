//! Runs registered experiments in sequence and prints their reports — a
//! one-command reproduction of the paper's evaluation section, and the
//! only experiment CLI.
//!
//! ```sh
//! cargo run --release -p wp2p-bench --bin all_figures            # quick
//! cargo run --release -p wp2p-bench --bin all_figures -- --paper # full
//! cargo run --release -p wp2p-bench --bin all_figures -- --only fig8
//! cargo run --release -p wp2p-bench --bin all_figures -- --only soak --seed 42 --metrics-out out/
//! ```
//!
//! Everything comes from `p2p_simulation::experiments::registry`: each
//! entry is an [`Experiment`](p2p_simulation::experiments::registry::Experiment)
//! with a name and a canonical seed that runs at one of two presets,
//! `Quick` or `Paper` — the paper's figures, the engineering experiments
//! (`scale`, `soak`, `service`, `exploit`, `erosion`, `blackout`), the
//! diagnostics (`faults`, `snapshot`, `bisect`, `search`) and `ablations`.
//!
//! * `--only <name>` runs just the entries whose name contains `<name>`.
//! * `--paper` selects the paper-scale preset (the only experiment knob).
//! * `--seed <u64>` overrides every selected entry's canonical seed —
//!   how a failing seed from CI is replayed (same seed, byte-identical
//!   schedule, tables and dumps).
//! * `--metrics-out <dir>` runs each entry with a live metrics handle
//!   and writes `<dir>/<name>.metrics.json` plus `<dir>/<name>.series.csv`
//!   — seed-deterministic under any worker count.
//!
//! Anything else — an unknown flag, a missing or unparsable value, a
//! pattern that matches nothing — prints the usage and exits 2.
//! Sweeps fan out across worker threads (`WP2P_THREADS` overrides the
//! count; `WP2P_THREADS=1` is byte-identical to the parallel output).
//! An entry that panics, or whose metrics dump cannot be written, is
//! reported and the process exits 1 after the remaining entries have run.

use p2p_simulation::experiments::params::ExperimentParams;
use p2p_simulation::experiments::registry;
use p2p_simulation::harness;
use std::path::PathBuf;
use std::time::Instant;
use wp2p_bench::{dump_metrics, metrics_handle};

const USAGE: &str =
    "usage: all_figures [--only <name>] [--paper] [--seed <u64>] [--metrics-out <dir>]";

/// The parsed command line.
#[derive(Clone, Debug, Default, PartialEq)]
struct Args {
    only: Option<String>,
    paper: bool,
    seed: Option<u64>,
    metrics_out: Option<PathBuf>,
}

/// Parses the arguments after the program name. Strict: every flag must
/// be known and every value present and well-formed.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} takes a value"));
        match flag.as_str() {
            "--paper" => out.paper = true,
            "--only" => out.only = Some(value()?.clone()),
            "--metrics-out" => out.metrics_out = Some(PathBuf::from(value()?)),
            "--seed" => {
                let v = value()?;
                out.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed takes a u64, got {v:?}"))?,
                );
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(out)
}

fn usage_exit(problem: &str) -> ! {
    eprintln!("all_figures: {problem}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| usage_exit(&e));
    let selected = registry::matching(args.only.as_deref().unwrap_or(""));
    if selected.is_empty() {
        usage_exit(&format!(
            "--only {:?} matches no experiment (have: {})",
            args.only.as_deref().unwrap_or(""),
            registry::all()
                .iter()
                .map(|e| e.name())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    println!(
        "# All figures — preset: {} (pass --paper for full scale)",
        if args.paper { "paper" } else { "quick" }
    );

    let preset = if args.paper {
        ExperimentParams::Paper
    } else {
        ExperimentParams::Quick
    };
    let total_start = Instant::now();
    let mut failed = Vec::new();
    let (mut cells, mut cell_wall) = (0usize, 0f64);
    harness::take_stats(); // drop anything recorded before the run
    for e in selected {
        let name = e.name();
        let seed = args.seed.unwrap_or_else(|| e.default_seed());
        let handle = metrics_handle(args.metrics_out.as_deref(), seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.run(&preset, &handle, seed)
        }));
        match outcome {
            Ok(report) => {
                report.print();
                if let Some(dir) = &args.metrics_out {
                    if let Err(err) = dump_metrics(dir, name, &handle) {
                        eprintln!("METRICS DUMP FAILED: {name}: {err}");
                        failed.push(name);
                    }
                }
            }
            Err(_) => {
                eprintln!("FIGURE FAILED: {name} panicked");
                failed.push(name);
            }
        }
        println!();
        for s in harness::take_stats() {
            cells += s.cells;
            cell_wall += s.cell_wall.as_secs_f64();
        }
    }
    let total_wall = total_start.elapsed().as_secs_f64();
    eprintln!(
        "ran {} sweep cells on {} threads: {:.1}s wall, {:.1}s serial-equivalent ({:.2}x)",
        cells,
        harness::worker_threads(),
        total_wall,
        cell_wall,
        cell_wall / total_wall.max(1e-9),
    );
    if !failed.is_empty() {
        eprintln!("{} figure(s) failed: {}", failed.len(), failed.join(", "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_arguments_is_the_default_suite() {
        assert_eq!(parse(&[]), Ok(Args::default()));
    }

    #[test]
    fn every_flag_parses_in_any_order() {
        let want = Args {
            only: Some("soak".into()),
            paper: true,
            seed: Some(42),
            metrics_out: Some(PathBuf::from("out")),
        };
        assert_eq!(
            parse(&[
                "--only",
                "soak",
                "--paper",
                "--seed",
                "42",
                "--metrics-out",
                "out"
            ]),
            Ok(want.clone())
        );
        assert_eq!(
            parse(&[
                "--metrics-out",
                "out",
                "--seed",
                "42",
                "--only",
                "soak",
                "--paper"
            ]),
            Ok(want)
        );
    }

    #[test]
    fn rejects_unknown_missing_and_malformed() {
        // A retired per-experiment flag is unknown, not silently ignored.
        assert!(parse(&["--soak", "42"]).unwrap_err().contains("--soak"));
        assert!(parse(&["stray"]).unwrap_err().contains("stray"));
        // A dangling flag used to run everything.
        assert!(parse(&["--only"]).unwrap_err().contains("takes a value"));
        assert!(parse(&["--paper", "--seed"])
            .unwrap_err()
            .contains("takes a value"));
        assert!(parse(&["--metrics-out"])
            .unwrap_err()
            .contains("takes a value"));
        for bad in ["x", "-1", "1.5", ""] {
            assert!(
                parse(&["--seed", bad]).unwrap_err().contains("u64"),
                "{bad:?}"
            );
        }
    }
}
