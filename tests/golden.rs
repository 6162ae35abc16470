//! Golden figures: the cheapest registry entries, run at their default
//! preset and canonical seed, must render exactly the committed
//! `results/<name>.txt` — the file `all_figures --only <name>` writes,
//! minus its one-line preamble and the blank line it prints after each
//! entry.
//!
//! `soak`, `faults`, `search` and `fig8b` pin the fault layer and the
//! Fig. 8(b) mobile probes. `snapshot` and `bisect` stay out: their
//! reports print snapshot blob sizes, and a debug build's blobs also
//! carry the debug-only invariant checker's history, so the sizes differ
//! from the committed release output.

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
