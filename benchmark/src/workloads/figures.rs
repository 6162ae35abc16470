//! `figures`: fifteen registry experiments by pinned name at their quick
//! presets — what a reader runs to reproduce the paper.

use super::{Digest, Rep, Size};
use crate::spec::{FIGURES, PER_LAYER};
use crate::trace::Tracer;
use metrics::handle::MetricsHandle;
use p2p_simulation::experiments::params::ExperimentParams;
use p2p_simulation::experiments::registry::{self, Experiment};
use p2p_simulation::harness;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The three cheapest figures, one per world kind plus the fault soak.
const SMOKE_FIGURES: [&str; 3] = ["fig2bc", "fig8a", "soak"];

fn names(size: Size) -> &'static [&'static str] {
    match size {
        Size::Full => &FIGURES,
        Size::Smoke => &SMOKE_FIGURES,
    }
}

/// A pinned name resolved to its experiment and quick-preset inputs.
type Resolved = Option<(&'static dyn Experiment, ExperimentParams)>;

/// Resolves the pinned names and builds each experiment's quick-preset
/// parameters; an unknown name stays `None` and fails its check instead
/// of aborting the run.
pub fn setup(size: Size) -> Vec<(&'static str, Resolved)> {
    names(size)
        .iter()
        .map(|&n| (n, registry::find(n).map(|e| (e, e.default_params()))))
        .collect()
}

/// The ledger name of an experiment's wall time.
fn seconds_metric(figure: &str) -> &'static str {
    let name = format!("simulation.experiments.{figure}_s");
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|&m| m == name)
        .expect("every pinned figure has a ledger row")
}

pub fn rep(size: Size, seed: u64, t: &mut Tracer) -> Rep {
    let t0 = Instant::now();
    let experiments = t.span("setup", |_| {
        // Sweeps other code in this process may have left behind.
        harness::take_stats();
        setup(size)
    });
    let setup_s = t0.elapsed().as_secs_f64();

    let mut layer = BTreeMap::new();
    let mut checks = Vec::new();
    let mut d = Digest::new();
    let mut panics = 0u32;
    let t1 = Instant::now();
    t.span("run", |t| {
        for (name, experiment) in &experiments {
            let started = Instant::now();
            let report = t.span(&format!("experiment:{name}"), |_| {
                experiment.as_ref().and_then(|(e, params)| {
                    let run = || {
                        e.run(
                            params,
                            &MetricsHandle::disabled(),
                            e.default_seed().wrapping_add(seed),
                        )
                    };
                    catch_unwind(AssertUnwindSafe(run))
                        .map_err(|_| panics += 1)
                        .ok()
                })
            });
            layer.insert(seconds_metric(name), started.elapsed().as_secs_f64());
            let tables = report.map(|r| r.tables).unwrap_or_default();
            checks.push((
                *name,
                !tables.is_empty() && tables.iter().all(|t| !t.is_empty()),
            ));
            for table in &tables {
                d.bytes(table.render().as_bytes());
            }
        }
    });
    let wall_s = t1.elapsed().as_secs_f64();

    t.span("extract", |_| {
        let sweeps = harness::take_stats();
        layer.insert("simulation.experiments.panics", f64::from(panics));
        layer.insert(
            "simulation.harness.cells",
            sweeps.iter().map(|s| s.cells).sum::<usize>() as f64,
        );
        Rep {
            setup_s,
            wall_s,
            vsecs: sweeps.iter().map(|s| s.virtual_secs).sum(),
            digest: d.finish(),
            checks,
            tasks: 0,
            layer,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_names_resolve() {
        assert!(setup(Size::Full).iter().all(|(_, e)| e.is_some()));
        assert!(setup(Size::Smoke).iter().all(|(_, e)| e.is_some()));
    }
}
