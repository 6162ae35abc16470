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
use std::io;
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
/// deterministic for a given seed, whatever the worker count. The error
/// names the directory or file that could not be written.
pub fn dump_metrics(dir: &Path, name: &str, handle: &MetricsHandle) -> io::Result<()> {
    if !handle.is_enabled() {
        return Ok(());
    }
    let named = |path: &Path, e: io::Error| {
        io::Error::new(e.kind(), format!("could not write {}: {e}", path.display()))
    };
    std::fs::create_dir_all(dir).map_err(|e| named(dir, e))?;
    let json_path = dir.join(format!("{name}.metrics.json"));
    let csv_path = dir.join(format!("{name}.series.csv"));
    for (path, content) in [
        (&json_path, handle.to_json()),
        (&csv_path, handle.series_csv()),
    ] {
        std::fs::write(path, content).map_err(|e| named(path, e))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_under_a_regular_file_is_an_error() {
        let scratch = std::env::temp_dir().join(format!("wp2p-dump-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let not_a_dir = scratch.join("notadir");
        std::fs::write(&not_a_dir, "").unwrap();
        let handle = MetricsHandle::enabled(1);
        let outcome = dump_metrics(&not_a_dir.join("out"), "fig", &handle);
        std::fs::remove_dir_all(&scratch).unwrap();
        let err = outcome.expect_err("a dump under a regular file must fail");
        assert!(err.to_string().contains("notadir"), "{err}");
        // A disabled handle writes nothing, so there is nothing to fail.
        assert!(dump_metrics(&not_a_dir, "fig", &MetricsHandle::disabled()).is_ok());
    }
}
