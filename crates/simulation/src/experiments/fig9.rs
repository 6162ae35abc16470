//! **Figure 9 — wP2P evaluation: mobility-aware fetching and role
//! reversal** (paper §5.2.3–5.2.4).
//!
//! * Panels (a, b): playable fraction vs. downloaded fraction for the
//!   default rarest-first client vs. wP2P's mobility-aware fetching with
//!   `p_r = downloaded fraction` (the paper's evaluation setting), for a
//!   small and a large file.
//! * Panel (c): upload throughput of two mobile *seeds* vs. their hand-off
//!   rate, default vs. role reversal. A default seed that moves goes dark
//!   until leeches re-poll the tracker; a role-reversing seed dials its
//!   stored peers the moment it reconnects.

use super::common::{populate_swarm, synthetic_torrent, SwarmSetup, PIECE_LENGTH};
use super::playability::{run_playability_with, PlayabilityCurve, PlayabilityParams};
use crate::flow::{Access, FlowConfig, FlowWorld, TaskSpec};
use crate::harness::SweepRunner;
use crate::report::{kbps, Table};
use bittorrent::client::ClientConfig;
use bittorrent::tracker::TrackerConfig;
use metrics::handle::MetricsHandle;
use metrics::stats::RunSummary;
use simnet::mobility::MobilityProcess;
use simnet::time::{SimDuration, SimTime};
use wp2p::config::WP2pConfig;
use wp2p::ma::PrSchedule;

/// Seed of the Fig. 9(a) panel ((b) uses the successor).
pub const FIG9AB_SEED: u64 = 0x9A;
/// Base seed of the Fig. 9(c) sweep.
pub const FIG9C_SEED: u64 = 0xF9C;

// ---------------------------------------------------------------------
// Fig. 9(a, b): mobility-aware fetching
// ---------------------------------------------------------------------

/// Result of one Fig. 9(a)/(b) panel: both arms' curves.
#[derive(Clone, Debug)]
pub struct Fig9abResult {
    /// Default rarest-first curve.
    pub default_curve: PlayabilityCurve,
    /// wP2P mobility-aware fetching curve.
    pub wp2p_curve: PlayabilityCurve,
}

/// Runs one Fig. 9(a)/(b) panel: only the default arm is wired into
/// `metrics` (the series writers must stay single-run deterministic).
pub fn run_fig9ab_with(
    params: &PlayabilityParams,
    metrics: &MetricsHandle,
    seed: u64,
) -> Fig9abResult {
    Fig9abResult {
        default_curve: run_playability_with(params, None, metrics, seed),
        wp2p_curve: run_playability_with(
            params,
            Some(PrSchedule::DownloadedFraction),
            &MetricsHandle::disabled(),
            seed,
        ),
    }
}

/// Renders a Fig. 9(a)/(b) panel.
pub fn fig9ab_table(title: &str, result: &Fig9abResult) -> Table {
    super::playability::playability_table(title, &result.default_curve, Some(&result.wp2p_curve))
}

// ---------------------------------------------------------------------
// Fig. 9(c): role reversal
// ---------------------------------------------------------------------

/// Wireless capacity of each Fig. 9(c) mobile seed.
const SEED_CAPACITY: f64 = 150_000.0;
/// Hand-off outage of the mobile seeds.
const OUTAGE: SimDuration = SimDuration::from_secs(5);
/// Tracker announce interval (bounds leech rediscovery).
const TRACKER_INTERVAL: SimDuration = SimDuration::from_secs(150);

/// Parameters for Fig. 9(c).
#[derive(Clone, Debug)]
pub struct Fig9cParams {
    /// Hand-off periods to sweep (paper: 6, 4, 2 minutes).
    pub periods: Vec<SimDuration>,
    /// File size (paper: the 688 MB Fedora image; scaled here).
    pub file_size: u64,
    /// Background swarm (has its own seed so leeches are never starved —
    /// the mobile seeds' dead time is pure upload loss).
    pub swarm: SwarmSetup,
    /// Measurement duration.
    pub duration: SimDuration,
    /// Runs to average (paper: 10).
    pub runs: u64,
}

impl Fig9cParams {
    /// CI-sized preset.
    pub fn quick() -> Self {
        Fig9cParams {
            periods: vec![SimDuration::from_secs(240), SimDuration::from_secs(120)],
            file_size: 64 * 1024 * 1024,
            swarm: SwarmSetup {
                seeds: 1,
                seed_access: Access::Wired {
                    up: 60_000.0,
                    down: 500_000.0,
                },
                leeches: 8,
                leech_access: Access::residential(),
                leech_head_start: 0.5,
            },
            duration: SimDuration::from_mins(10),
            runs: 1,
        }
    }

    /// Paper-scale preset.
    pub fn paper() -> Self {
        Fig9cParams {
            periods: vec![
                SimDuration::from_secs(360),
                SimDuration::from_secs(240),
                SimDuration::from_secs(120),
            ],
            file_size: 256 * 1024 * 1024,
            swarm: SwarmSetup {
                seeds: 2,
                seed_access: Access::Wired {
                    up: 60_000.0,
                    down: 500_000.0,
                },
                leeches: 16,
                leech_access: Access::residential(),
                leech_head_start: 0.5,
            },
            duration: SimDuration::from_mins(20),
            runs: 5,
        }
    }
}

/// One Fig. 9(c) point.
#[derive(Clone, Copy, Debug)]
pub struct Fig9cPoint {
    /// Hand-off period.
    pub period: SimDuration,
    /// Default mobile seeds' aggregate upload throughput (bytes/s).
    pub default: RunSummary,
    /// Role-reversing mobile seeds' aggregate upload throughput.
    pub wp2p: RunSummary,
}

fn run_9c_once(
    params: &Fig9cParams,
    rr: bool,
    period: SimDuration,
    metrics: &MetricsHandle,
    seed: u64,
) -> f64 {
    let cfg = FlowConfig {
        tracker: TrackerConfig {
            announce_interval: TRACKER_INTERVAL,
            ..TrackerConfig::default()
        },
        ..FlowConfig::default()
    };
    let mut w = FlowWorld::new(cfg, seed);
    w.set_metrics(metrics);
    let torrent = synthetic_torrent("fig9c.iso", PIECE_LENGTH, params.file_size, seed);
    populate_swarm(&mut w, torrent, &params.swarm);
    let mut tasks = Vec::new();
    for _ in 0..2 {
        let node = w.add_node(Access::Wireless {
            capacity: SEED_CAPACITY,
        });
        let task = w.add_task(TaskSpec {
            node,
            torrent,
            start_complete: true,
            start_fraction: None,
            start_at: SimTime::ZERO,
            make_config: Box::new(ClientConfig::default),
            wp2p: if rr {
                WP2pConfig::role_reversal_only()
            } else {
                WP2pConfig::default_client()
            },
        });
        w.set_mobility(node, MobilityProcess::with_jitter(period, OUTAGE, 0.1));
        tasks.push(task);
    }
    w.start();
    w.run_for(params.duration, |_| {});
    let total: u64 = tasks.iter().map(|&t| w.delivered_up_bytes(t)).sum();
    total as f64 / params.duration.as_secs_f64() / 2.0
}

/// Runs the Fig. 9(c) sweep: the first cell's role-reversal world is
/// wired into `metrics`.
pub fn run_fig9c_with(
    params: &Fig9cParams,
    metrics: &MetricsHandle,
    base_seed: u64,
) -> Vec<Fig9cPoint> {
    let dur = params.duration.as_secs_f64();
    let cells = SweepRunner::new("fig9c", base_seed)
        .with_metrics(metrics)
        .run(&params.periods, params.runs as usize, |&period, cell| {
            cell.add_virtual_secs(2.0 * dur);
            let handle = if cell.point == 0 && cell.run == 0 {
                metrics.clone()
            } else {
                MetricsHandle::disabled()
            };
            (
                run_9c_once(
                    params,
                    false,
                    period,
                    &MetricsHandle::disabled(),
                    cell.run_seed,
                ),
                run_9c_once(params, true, period, &handle, cell.run_seed),
            )
        });
    params
        .periods
        .iter()
        .zip(cells)
        .map(|(&period, runs)| {
            let default: Vec<f64> = runs.iter().map(|&(d, _)| d).collect();
            let wp2p: Vec<f64> = runs.iter().map(|&(_, w)| w).collect();
            Fig9cPoint {
                period,
                default: RunSummary::of(&default),
                wp2p: RunSummary::of(&wp2p),
            }
        })
        .collect()
}

/// Renders Fig. 9(c).
pub fn fig9c_table(points: &[Fig9cPoint]) -> Table {
    let mut t = Table::new(
        "Figure 9(c): Mobile-seed upload throughput (KBps) vs mobility rate — default vs wP2P (role reversal)",
    );
    t.headers(["mobility", "default", "wP2P", "gain"]);
    for p in points {
        t.row([
            format!("every {:.0} min", p.period.as_secs_f64() / 60.0),
            kbps(p.default.mean),
            kbps(p.wp2p.mean),
            format!(
                "{:+.0}%",
                (p.wp2p.mean / p.default.mean.max(1.0) - 1.0) * 100.0
            ),
        ]);
    }
    t.note("paper: both fall with mobility; wP2P's advantage grows, ≈ +50% at 2 min");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9c_role_reversal_restores_upload_throughput() {
        let params = Fig9cParams {
            periods: vec![SimDuration::from_secs(90)],
            duration: SimDuration::from_mins(8),
            ..Fig9cParams::quick()
        };
        let pts = run_fig9c_with(&params, &MetricsHandle::disabled(), FIG9C_SEED);
        let p = &pts[0];
        assert!(
            p.wp2p.mean > p.default.mean,
            "RR should out-upload the default under fast mobility: \
             wp2p={} default={}",
            p.wp2p.mean,
            p.default.mean
        );
        assert!(fig9c_table(&pts).len() == 1);
    }

    #[test]
    fn fig9ab_quick_panel_shapes() {
        let params = PlayabilityParams {
            runs: 2,
            ..PlayabilityParams::quick_5mb()
        };
        let r = run_fig9ab_with(&params, &MetricsHandle::disabled(), 0x9AB);
        let d50 = r.default_curve.playable_at(0.5);
        let w50 = r.wp2p_curve.playable_at(0.5);
        assert!(
            w50 > d50,
            "MF must beat rarest-first at 50%: mf={w50} default={d50}"
        );
        assert!(fig9ab_table("t", &r).len() == params.grid);
    }
}
