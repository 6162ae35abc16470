//! Golden figures: the cheapest registry entries, run at their default
//! preset and canonical seed, must render exactly the committed
//! `results/<name>.txt` — the file `all_figures --only <name>` writes,
//! minus its one-line preamble and the blank line it prints after each
//! entry.
//!
//! `soak`, `faults`, `search`, `snapshot`, `bisect` and `fig8b` pin the
//! fault layer, the snapshot diagnostics and the Fig. 8(b) mobile
//! probes, `exploit` the identity-retention probe. `snapshot` and
//! `bisect` print blob sizes; their worlds are armed, so the blobs carry
//! the invariant checker's history in every build profile and the
//! committed output holds in debug and release alike (CI runs this file
//! in release too). `erosion`, `blackout` and `scale` stay out on cost:
//! in a debug build they take about 8, 5 and 16 s, against under 2 s for
//! each entry here. `service`, the one entry that drives shard routing,
//! replica failover and a dark shard, is CI-only: it takes about 40 s
//! even in release. CI's `replay` job diffs all of them in release.

use metrics::handle::MetricsHandle;
use p2p_simulation::experiments::registry;
use std::path::Path;

fn assert_matches_committed(name: &str) {
    let e = registry::find(name).unwrap_or_else(|| panic!("{name} not registered"));
    let rendered = e
        .run(
            &e.default_params(),
            &MetricsHandle::disabled(),
            e.default_seed(),
        )
        .render();
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("{name}.txt"));
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("reading {}: {err}", path.display()));
    let (preamble, body) = committed
        .split_once('\n')
        .unwrap_or_else(|| panic!("{} has no preamble line", path.display()));
    assert!(preamble.starts_with("# All figures"), "{preamble:?}");
    let body = body
        .strip_suffix('\n')
        .unwrap_or_else(|| panic!("{} lacks the trailing blank line", path.display()));
    assert!(
        rendered == body,
        "{name} no longer renders {}:\n--- committed\n{body}\n--- rendered\n{rendered}",
        path.display()
    );
}

#[test]
fn fig2a_matches_committed_results() {
    assert_matches_committed("fig2a");
}

#[test]
fn fig2bc_matches_committed_results() {
    assert_matches_committed("fig2bc");
}

#[test]
fn fig8a_matches_committed_results() {
    assert_matches_committed("fig8a");
}

#[test]
fn fig4bc_matches_committed_results() {
    assert_matches_committed("fig4bc");
}

#[test]
fn fig8b_matches_committed_results() {
    assert_matches_committed("fig8b");
}

#[test]
fn fig9ab_matches_committed_results() {
    assert_matches_committed("fig9ab");
}

#[test]
fn soak_matches_committed_results() {
    assert_matches_committed("soak");
}

#[test]
fn faults_matches_committed_results() {
    assert_matches_committed("faults");
}

#[test]
fn search_matches_committed_results() {
    assert_matches_committed("search");
}

#[test]
fn snapshot_matches_committed_results() {
    assert_matches_committed("snapshot");
}

#[test]
fn bisect_matches_committed_results() {
    assert_matches_committed("bisect");
}

#[test]
fn exploit_matches_committed_results() {
    assert_matches_committed("exploit");
}
