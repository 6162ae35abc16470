//! **Figure 4 — Server mobility and rarest-first fetching** (paper
//! §3.5–3.6).
//!
//! * Panel (a): a fixed peer downloads from three mobile seeds; throughput
//!   vs. the seeds' hand-off rate, for "one peer mobile" and "all peers
//!   mobile". Each hand-off silently invalidates the seed's address; the
//!   fixed peer keeps trying the dead address and recovers only via the
//!   tracker — so faster mobility means steeper degradation, amplified
//!   when every peer is mobile.
//! * Panels (b, c): playable fraction vs. downloaded fraction under
//!   rarest-first for a 5 MB and a 100 MB file (see
//!   [`super::playability`]).

use super::common::{synthetic_torrent, PIECE_LENGTH};
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

/// Base seed of the Fig. 4(a) sweep.
pub const FIG4A_SEED: u64 = 0xF4A;
/// Seed of the Fig. 4(b) panel ((c) uses the successor).
pub const FIG4BC_SEED: u64 = 0x4B;

pub use super::playability::{
    playability_table, run_playability_with, PlayabilityCurve, PlayabilityParams,
};

/// Number of mobile seeds serving the fixed peer (paper: 3).
const SEEDS: usize = 3;
/// Per-seed wireless capacity (bytes/second).
const SEED_CAPACITY: f64 = 200_000.0;
/// Hand-off outage.
const OUTAGE: SimDuration = SimDuration::from_secs(5);
/// Tracker announce interval (short enough that recovery happens within
/// the sweep's timescales, as on the paper's testbed).
const TRACKER_INTERVAL: SimDuration = SimDuration::from_secs(120);

/// Parameters for Fig. 4(a).
#[derive(Clone, Debug)]
pub struct Fig4aParams {
    /// Hand-off periods to sweep; `None` is the no-mobility baseline.
    pub periods: Vec<Option<SimDuration>>,
    /// Measurement duration per run.
    pub duration: SimDuration,
    /// Runs to average.
    pub runs: u64,
}

impl Fig4aParams {
    /// CI-sized preset.
    pub fn quick() -> Self {
        Fig4aParams {
            periods: vec![
                None,
                Some(SimDuration::from_secs(120)),
                Some(SimDuration::from_secs(30)),
            ],
            duration: SimDuration::from_mins(10),
            runs: 1,
        }
    }

    /// Paper-scale preset: {∞, 2, 1.5, 1, 0.5} minutes.
    pub fn paper() -> Self {
        Fig4aParams {
            periods: vec![
                None,
                Some(SimDuration::from_secs(120)),
                Some(SimDuration::from_secs(90)),
                Some(SimDuration::from_secs(60)),
                Some(SimDuration::from_secs(30)),
            ],
            duration: SimDuration::from_mins(20),
            runs: 3,
        }
    }
}

/// One point of Fig. 4(a).
#[derive(Clone, Copy, Debug)]
pub struct Fig4aPoint {
    /// Hand-off period (`None` = stationary).
    pub period: Option<SimDuration>,
    /// Fixed-peer download throughput with one mobile seed.
    pub one_mobile: RunSummary,
    /// Fixed-peer download throughput with all seeds mobile.
    pub all_mobile: RunSummary,
}

fn run_4a_once(
    params: &Fig4aParams,
    period: Option<SimDuration>,
    mobile_seeds: usize,
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
    // Large enough that the download never completes within the run.
    let torrent = synthetic_torrent("big.iso", PIECE_LENGTH, 4 * 1024 * 1024 * 1024, seed);
    for i in 0..SEEDS {
        let node = w.add_node(Access::Wireless {
            capacity: SEED_CAPACITY,
        });
        w.add_task(TaskSpec::default_client(node, torrent, true));
        if i < mobile_seeds {
            if let Some(p) = period {
                w.set_mobility(node, MobilityProcess::with_jitter(p, OUTAGE, 0.1));
            }
        }
    }
    let fixed = w.add_node(Access::campus());
    let task = w.add_task(TaskSpec {
        node: fixed,
        torrent,
        start_complete: false,
        start_fraction: None,
        start_at: SimTime::ZERO,
        make_config: Box::new(ClientConfig::default),
        wp2p: WP2pConfig::default_client(),
    });
    w.start();
    w.run_for(params.duration, |_| {});
    w.downloaded_bytes(task) as f64 / params.duration.as_secs_f64()
}

/// Runs the Fig. 4(a) sweep: the first cell's one-mobile world is
/// wired into `metrics` (hand-off counters/latency histogram included).
pub fn run_fig4a_with(
    params: &Fig4aParams,
    metrics: &MetricsHandle,
    base_seed: u64,
) -> Vec<Fig4aPoint> {
    let dur = params.duration.as_secs_f64();
    let cells = SweepRunner::new("fig4a", base_seed)
        .with_metrics(metrics)
        .run(&params.periods, params.runs as usize, |&period, cell| {
            cell.add_virtual_secs(2.0 * dur);
            let handle = if cell.point == 0 && cell.run == 0 {
                metrics.clone()
            } else {
                MetricsHandle::disabled()
            };
            (
                run_4a_once(params, period, 1, &handle, cell.run_seed),
                run_4a_once(
                    params,
                    period,
                    SEEDS,
                    &MetricsHandle::disabled(),
                    cell.run_seed,
                ),
            )
        });
    params
        .periods
        .iter()
        .zip(cells)
        .map(|(&period, runs)| {
            let one: Vec<f64> = runs.iter().map(|&(o, _)| o).collect();
            let all: Vec<f64> = runs.iter().map(|&(_, a)| a).collect();
            Fig4aPoint {
                period,
                one_mobile: RunSummary::of(&one),
                all_mobile: RunSummary::of(&all),
            }
        })
        .collect()
}

/// Renders Fig. 4(a).
pub fn fig4a_table(points: &[Fig4aPoint]) -> Table {
    let mut t = Table::new("Figure 4(a): Fixed-peer throughput (KBps) vs server mobility rate");
    t.headers(["mobility", "one mobile", "all mobile"]);
    for p in points {
        let label = match p.period {
            None => "none".to_string(),
            Some(d) => format!("every {:.1} min", d.as_secs_f64() / 60.0),
        };
        t.row([label, kbps(p.one_mobile.mean), kbps(p.all_mobile.mean)]);
    }
    t.note("paper: throughput falls as mobility quickens; all-mobile falls harder");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_mobility_degrades_fixed_peer_throughput() {
        let params = Fig4aParams {
            periods: vec![None, Some(SimDuration::from_secs(45))],
            duration: SimDuration::from_mins(8),
            ..Fig4aParams::quick()
        };
        let pts = run_fig4a_with(&params, &MetricsHandle::disabled(), FIG4A_SEED);
        let baseline = pts[0].all_mobile.mean;
        let fast_one = pts[1].one_mobile.mean;
        let fast_all = pts[1].all_mobile.mean;
        assert!(
            fast_all < baseline,
            "all-mobile at 45 s must trail no-mobility: {fast_all} vs {baseline}"
        );
        assert!(
            fast_all < fast_one,
            "all-mobile must trail one-mobile: all={fast_all} one={fast_one}"
        );
        let t = fig4a_table(&pts);
        assert_eq!(t.len(), 2);
    }
}
