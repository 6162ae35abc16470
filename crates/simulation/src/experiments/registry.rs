//! Registry-based experiment API.
//!
//! Every figure of the paper's evaluation — and every engineering
//! experiment and diagnostic grown around them — is exposed as an
//! [`Experiment`]: a named object with a canonical seed and a uniform
//! `run(&preset, &metrics, seed) -> Report` entry point, where the preset
//! ([`ExperimentParams`]) is `Quick` or `Paper` and each entry turns it
//! into its figure's typed parameters. The registry is
//! the only experiment surface: `all_figures` consumes it, so `--only`,
//! `--paper`, `--seed` and `--metrics-out` behave identically across
//! entries.
//!
//! The registry is static: [`all`] returns every experiment in the order
//! `all_figures` runs them, [`find`] resolves an exact name, and
//! [`matching`] implements `--only`'s substring filter.

use super::ablations::{self, ABLATIONS_SEED};
use super::blackout::{self, BLACKOUT_SEED};
use super::erosion::{self, EROSION_SEED};
use super::exploit::{self, EXPLOIT_SEED};
use super::faults::{self, FAULTS_SEED};
use super::fig2::{self, FIG2A_SEED, FIG2BC_SEED};
use super::fig3::{self, FIG3AB_SEED, FIG3C_SEED};
use super::fig4::{self, FIG4A_SEED, FIG4BC_SEED};
use super::fig8::{self, FIG8A_SEED, FIG8B_SEED, FIG8C_SEED};
use super::fig9::{self, FIG9AB_SEED, FIG9C_SEED};
use super::params::ExperimentParams;
use super::playability::{self, PlayabilityParams};
use super::scale::{self, SCALE_SEED};
use super::search::{self, BISECT_SEED, SEARCH_SEED, SNAPSHOT_SEED};
use super::service::{self, SERVICE_SEED};
use super::soak::{self, SOAK_SEED};
use crate::report::Table;
use metrics::handle::MetricsHandle;

/// What an experiment returns: the tables the figure prints, plus any
/// free text that goes with them.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Rendered tables, one per panel.
    pub tables: Vec<Table>,
    /// Free text that is not tabular — an injected fault schedule, the
    /// searcher's replay artifact, a figure's summary lines. Whole
    /// newline-terminated lines, or empty.
    pub text: String,
}

impl Report {
    /// A single-table report with no free text.
    pub fn single(table: Table) -> Self {
        Report {
            tables: vec![table],
            text: String::new(),
        }
    }

    /// The free text (if any), then every table, all blank-line
    /// separated — exactly what [`Self::print`] writes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.text.is_empty() {
            out.push_str(&self.text);
            out.push('\n');
        }
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&t.render());
        }
        out
    }

    /// Prints [`Self::render`] to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// One registered figure experiment.
pub trait Experiment: Sync {
    /// Registry name (`fig2a`, `fig8c`, …) — what `--only` matches.
    fn name(&self) -> &'static str;

    /// One-line human description of the figure.
    fn title(&self) -> &'static str;

    /// The default preset: [`ExperimentParams::Quick`] (CI-sized).
    fn default_params(&self) -> ExperimentParams {
        ExperimentParams::Quick
    }

    /// The canonical seed the bench drivers use; pinned by the
    /// shape-regression tests.
    fn default_seed(&self) -> u64;

    /// Runs the experiment. Pass [`MetricsHandle::disabled`] for a plain
    /// run; an enabled handle additionally collects the figure's probe
    /// instrumentation (single-writer, deterministic under any worker
    /// count).
    fn run(&self, params: &ExperimentParams, metrics: &MetricsHandle, seed: u64) -> Report;
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

/// One registry row: the [`Experiment`] contract as plain data.
struct Entry {
    name: &'static str,
    title: &'static str,
    seed: u64,
    run: fn(&ExperimentParams, &MetricsHandle, u64) -> Report,
}

impl Experiment for Entry {
    fn name(&self) -> &'static str {
        self.name
    }
    fn title(&self) -> &'static str {
        self.title
    }
    fn default_seed(&self) -> u64 {
        self.seed
    }
    fn run(&self, params: &ExperimentParams, metrics: &MetricsHandle, seed: u64) -> Report {
        (self.run)(params, metrics, seed)
    }
}

/// The two playability panels of Figs. 4(b,c)/9(a,b): the small file,
/// then the large one.
fn panels(params: &ExperimentParams) -> (PlayabilityParams, PlayabilityParams) {
    params.pick(
        || {
            (
                PlayabilityParams::quick_5mb(),
                PlayabilityParams::quick_large(),
            )
        },
        || {
            (
                PlayabilityParams::paper_5mb(),
                PlayabilityParams::paper_large(),
            )
        },
    )
}

static EXPERIMENTS: &[&dyn Experiment] = &[
    &Entry {
        name: "fig2a",
        title: "Downloading throughput vs BER — bi-TCP vs uni-TCP",
        seed: FIG2A_SEED,
        run: |params, metrics, seed| {
            let p = params.pick(fig2::Fig2aParams::quick, fig2::Fig2aParams::paper);
            Report::single(fig2::fig2a_table(&fig2::run_fig2a_with(&p, metrics, seed)))
        },
    },
    &Entry {
        name: "fig2bc",
        title: "Packets sent from client on the wireless leg over time",
        seed: FIG2BC_SEED,
        run: |params, metrics, seed| {
            let p = params.pick(fig2::Fig2bcParams::quick, fig2::Fig2bcParams::paper);
            let (uni, bi) = fig2::run_fig2bc_pair_with(&p, metrics, seed);
            Report {
                tables: vec![fig2::fig2bc_table(&uni, &bi)],
                text: fig2::fig2bc_summary(&uni, &bi),
            }
        },
    },
    &Entry {
        name: "fig3ab",
        title: "Aggregate download vs upload limit — wired and wireless",
        seed: FIG3AB_SEED,
        run: |params, metrics, seed| {
            let p = params.pick(fig3::Fig3abParams::quick, fig3::Fig3abParams::paper);
            // Only panel (a) gets the live handle: the panels share series
            // names, and a series must keep a single writer.
            Report {
                tables: vec![
                    fig3::fig3ab_table(
                        "Figure 3(a): Aggregate download (KBps) vs upload limit — wired",
                        &fig3::run_fig3a_with(&p, metrics, seed),
                        "paper: monotonically increasing",
                    ),
                    fig3::fig3ab_table(
                        "Figure 3(b): Aggregate download (KBps) vs upload limit — wireless",
                        &fig3::run_fig3b_with(&p, &MetricsHandle::disabled(), seed),
                        "paper: rises, peaks early, falls",
                    ),
                ],
                text: String::new(),
            }
        },
    },
    &Entry {
        name: "fig3c",
        title: "Downloaded size vs time — incentive & mobility arms",
        seed: FIG3C_SEED,
        run: |params, metrics, seed| {
            let p = params.pick(fig3::Fig3cParams::quick, fig3::Fig3cParams::paper);
            Report::single(fig3::fig3c_table(
                &fig3::run_fig3c_with(&p, metrics, seed),
                10,
            ))
        },
    },
    &Entry {
        name: "fig4a",
        title: "Fixed-peer throughput vs server mobility rate",
        seed: FIG4A_SEED,
        run: |params, metrics, seed| {
            let p = params.pick(fig4::Fig4aParams::quick, fig4::Fig4aParams::paper);
            Report::single(fig4::fig4a_table(&fig4::run_fig4a_with(&p, metrics, seed)))
        },
    },
    &Entry {
        name: "fig4bc",
        title: "Playable vs downloaded fraction under rarest-first",
        seed: FIG4BC_SEED,
        run: |params, metrics, seed| {
            let (small, large) = panels(params);
            // Panel (c) reuses panel (b)'s seed successor, preserving the
            // serial drivers' 0x4B/0x4C pair; only panel (b) gets the live
            // handle (shared series names, single writer).
            Report {
                tables: vec![
                    playability::playability_table(
                        "Figure 4(b): Playable % vs downloaded % — 5 MB, rarest-first",
                        &playability::run_playability_with(&small, None, metrics, seed),
                        None,
                    ),
                    playability::playability_table(
                        "Figure 4(c): Playable % vs downloaded % — large file, rarest-first",
                        &playability::run_playability_with(
                            &large,
                            None,
                            &MetricsHandle::disabled(),
                            seed + 1,
                        ),
                        None,
                    ),
                ],
                text: String::new(),
            }
        },
    },
    &Entry {
        name: "fig8a",
        title: "Throughput vs BER — default vs wP2P (age-based manipulation)",
        seed: FIG8A_SEED,
        run: |params, metrics, seed| {
            let p = params.pick(fig8::Fig8aParams::quick, fig8::Fig8aParams::paper);
            Report::single(fig8::fig8a_table(&fig8::run_fig8a_with(&p, metrics, seed)))
        },
    },
    &Entry {
        name: "fig8b",
        title: "Downloaded size vs time — identity retention under hand-offs",
        seed: FIG8B_SEED,
        run: |params, metrics, seed| {
            let p = params.pick(fig8::Fig8bParams::quick, fig8::Fig8bParams::paper);
            Report::single(fig8::fig8b_table(
                &fig8::run_fig8b_with(&p, metrics, seed),
                10,
            ))
        },
    },
    &Entry {
        name: "fig8c",
        title: "Download throughput vs wireless capacity — default vs wP2P (LIHD)",
        seed: FIG8C_SEED,
        run: |params, metrics, seed| {
            let p = params.pick(fig8::Fig8cParams::quick, fig8::Fig8cParams::paper);
            Report::single(fig8::fig8c_table(&fig8::run_fig8c_with(&p, metrics, seed)))
        },
    },
    &Entry {
        name: "fig9ab",
        title: "Playable vs downloaded fraction — rarest-first vs mobility-aware",
        seed: FIG9AB_SEED,
        run: |params, metrics, seed| {
            let (small, large) = panels(params);
            // Panel (b) takes the seed successor (the serial 0x9A/0x9B pair);
            // only panel (a) gets the live handle.
            Report {
                tables: vec![
                    fig9::fig9ab_table(
                        "Figure 9(a): Playable % vs downloaded % — 5 MB",
                        &fig9::run_fig9ab_with(&small, metrics, seed),
                    ),
                    fig9::fig9ab_table(
                        "Figure 9(b): Playable % vs downloaded % — large file",
                        &fig9::run_fig9ab_with(&large, &MetricsHandle::disabled(), seed + 1),
                    ),
                ],
                text: String::new(),
            }
        },
    },
    &Entry {
        name: "fig9c",
        title: "Mobile-seed upload throughput vs mobility — role reversal",
        seed: FIG9C_SEED,
        run: |params, metrics, seed| {
            let p = params.pick(fig9::Fig9cParams::quick, fig9::Fig9cParams::paper);
            Report::single(fig9::fig9c_table(&fig9::run_fig9c_with(&p, metrics, seed)))
        },
    },
    &Entry {
        name: "scale",
        title: "Large-swarm scale sweep — event-queue health vs swarm size",
        seed: SCALE_SEED,
        run: |params, metrics, seed| {
            let p = params.pick(scale::ScaleParams::quick, scale::ScaleParams::paper);
            Report::single(scale::scale_table(&scale::run_scale_with(
                &p, metrics, seed,
            )))
        },
    },
    &Entry {
        name: "soak",
        title: "Chaos soak — recovery time after composed fault windows",
        seed: SOAK_SEED,
        run: |params, metrics, seed| {
            let p = params.pick(soak::SoakParams::quick, soak::SoakParams::paper);
            let points = soak::run_soak_with(&p, metrics, seed);
            Report {
                tables: vec![soak::soak_table(&points)],
                text: soak::soak_schedules(&points),
            }
        },
    },
    &Entry {
        name: "service",
        title: "Multi-swarm service tier — sharded trackers, flash crowds, clustering",
        seed: SERVICE_SEED,
        run: |params, metrics, seed| {
            let p = params.pick(service::ServiceParams::quick, service::ServiceParams::paper);
            Report::single(service::service_table(&service::run_service_with(
                &p, metrics, seed,
            )))
        },
    },
    &Entry {
        name: "exploit",
        title: "Identity-retention exploit probe — honest retainers vs deliberate id-churners",
        seed: EXPLOIT_SEED,
        run: |params, metrics, seed| {
            let p = params.pick(exploit::ExploitParams::quick, exploit::ExploitParams::paper);
            Report::single(exploit::exploit_table(&exploit::run_exploit_with(
                &p, metrics, seed,
            )))
        },
    },
    &Entry {
        name: "erosion",
        title: "Free-rider erosion — fig8 retention lead vs adversarial population share",
        seed: EROSION_SEED,
        run: |params, metrics, seed| {
            let p = params.pick(erosion::ErosionParams::quick, erosion::ErosionParams::paper);
            Report::single(erosion::erosion_table(&erosion::run_erosion_with(
                &p, metrics, seed,
            )))
        },
    },
    &Entry {
        name: "blackout",
        title: "Dark tracker tier — replica failover, overload shedding, PEX fallback",
        seed: BLACKOUT_SEED,
        run: |params, metrics, seed| {
            let p = params.pick(
                blackout::BlackoutParams::quick,
                blackout::BlackoutParams::paper,
            );
            Report::single(blackout::blackout_table(&blackout::run_blackout_with(
                &p, metrics, seed,
            )))
        },
    },
    &Entry {
        name: "faults",
        title: "Seeded fault-plan replay into both worlds, invariant checker live",
        seed: FAULTS_SEED,
        run: faults::faults_report,
    },
    &Entry {
        name: "snapshot",
        title: "Save/restore differential on two scenarios plus a warm-started fork sweep",
        seed: SNAPSHOT_SEED,
        run: search::snapshot_report,
    },
    &Entry {
        name: "bisect",
        title: "Fault-window bisection — planted fatal window found in O(log n) restores",
        seed: BISECT_SEED,
        run: search::bisect_report,
    },
    &Entry {
        name: "search",
        title: "Seeded fault-schedule search with a reproducible (seed, schedule) artifact",
        seed: SEARCH_SEED,
        run: search::search_report,
    },
    &Entry {
        name: "ablations",
        title: "Ablations — MF schedules, AM components, delayed ACKs, LIHD, seed-mode LIHD",
        seed: ABLATIONS_SEED,
        run: ablations::ablations_report,
    },
];

/// Every registered experiment, in the order `all_figures` runs them.
pub fn all() -> &'static [&'static dyn Experiment] {
    EXPERIMENTS
}

/// The experiment with exactly this name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    EXPERIMENTS.iter().copied().find(|e| e.name() == name)
}

/// Experiments whose name contains `pattern` (the `--only` filter).
pub fn matching(pattern: &str) -> Vec<&'static dyn Experiment> {
    EXPERIMENTS
        .iter()
        .copied()
        .filter(|e| e.name().contains(pattern))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_resolvable() {
        let names: BTreeSet<&str> = all().iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), all().len(), "duplicate experiment name");
        for e in all() {
            let found = find(e.name()).expect("every name resolves");
            assert_eq!(found.name(), e.name());
            assert!(!e.title().is_empty());
        }
        assert!(find("fig2a").is_some());
        for diagnostic in ["faults", "snapshot", "bisect", "search", "ablations"] {
            assert!(find(diagnostic).is_some(), "{diagnostic} not registered");
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn matching_implements_only_filter() {
        let fig8: Vec<&str> = matching("fig8").iter().map(|e| e.name()).collect();
        assert_eq!(fig8, vec!["fig8a", "fig8b", "fig8c"]);
        assert_eq!(matching("").len(), all().len());
        assert!(matching("zzz").is_empty());
    }

    #[test]
    fn registry_runs_fig2bc_end_to_end() {
        let e = find("fig2bc").expect("fig2bc registered");
        let report = e.run(
            &e.default_params(),
            &MetricsHandle::disabled(),
            e.default_seed(),
        );
        assert_eq!(report.tables.len(), 1);
        assert!(!report.tables[0].is_empty());
        // The figure's claim travels with the table.
        let lines: Vec<&str> = report.text.lines().collect();
        assert_eq!(lines.len(), 2, "summary lines: {:?}", report.text);
        assert!(lines[0].starts_with("uni: mean packets/bucket before first drop "));
        assert!(lines[1].starts_with("bi:  mean packets/bucket before first drop "));
    }
}
