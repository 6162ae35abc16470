//! # wp2p-bench — the experiment CLI and its helpers
//!
//! Three binaries:
//!
//! * `all_figures` — the one experiment CLI. It runs entries of
//!   `p2p_simulation::experiments::registry` (every paper figure, the
//!   engineering experiments, the snapshot/fault diagnostics and the
//!   ablations) and prints the same rows/series the paper plots:
//!   `--only <name>` filters by name, `--paper` selects the full-scale
//!   parameters (slow; the default is a CI-sized `quick` preset),
//!   `--seed <u64>` overrides the canonical seed, and
//!   `--metrics-out <dir>` wires each run into a live [`MetricsHandle`]
//!   whose deterministic dumps land in the directory as
//!   `<name>.metrics.json` / `<name>.series.csv`.
//! * `validate_metrics` — checks such dumps against the contract in
//!   `schemas/metrics.schema.json`.
//! * `scale_sweep SIZE [SEED]` — times one scale cell (CI's 16k-peer
//!   wall budget).
//!
//! Performance is measured by the repo benchmark in `benchmark/`, not
//! here.

use metrics::handle::MetricsHandle;
use std::path::Path;

/// The handle a figure run should use: live (recording under `seed`)
/// when a `--metrics-out` directory was requested, inert otherwise.
pub fn metrics_handle(out: Option<&Path>, seed: u64) -> MetricsHandle {
    match out {
        Some(_) => MetricsHandle::enabled(seed),
        None => MetricsHandle::disabled(),
    }
}

/// Writes `<dir>/<name>.metrics.json` and `<dir>/<name>.series.csv` from
/// an enabled handle (no-op on a disabled one). Both dumps are
/// deterministic for a given seed, whatever the worker count.
pub fn dump_metrics(dir: &Path, name: &str, handle: &MetricsHandle) {
    if !handle.is_enabled() {
        return;
    }
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("could not create {}: {e}", dir.display());
        return;
    }
    let json_path = dir.join(format!("{name}.metrics.json"));
    let csv_path = dir.join(format!("{name}.series.csv"));
    for (path, content) in [
        (&json_path, handle.to_json()),
        (&csv_path, handle.series_csv()),
    ] {
        match std::fs::write(path, content) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}
