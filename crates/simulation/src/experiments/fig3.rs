//! **Figure 3 — Uploads-based incentives** (paper §3.3–3.4).
//!
//! * Panel (a): aggregate download rate of five simultaneous tasks vs. the
//!   upload rate limit, on *wired* asymmetric access — monotonically
//!   increasing (tit-for-tat rewards uploads; up and down pipes are
//!   independent).
//! * Panel (b): the same sweep on a *wireless* shared channel — rises,
//!   peaks well below the maximum, then falls as uploads steal channel
//!   capacity from downloads.
//! * Panel (c): downloaded size vs. time for a 100 MB file under the four
//!   arms {mobility, no mobility} × {uploading, no uploading}: without
//!   mobility, uploading clearly helps (incentives); with mobility the
//!   periodically regenerated peer-id voids accumulated credit and the
//!   two mobility arms collapse together.

use super::common::{populate_swarm, synthetic_torrent, SwarmSetup};
use crate::flow::{Access, FlowConfig, FlowWorld, TaskSpec};
use crate::harness::SweepRunner;
use crate::report::{kbps, mb, Table};
use bittorrent::client::ClientConfig;
use metrics::handle::MetricsHandle;
use metrics::stats::TimeSeries;
use simnet::mobility::MobilityProcess;
use simnet::time::{SimDuration, SimTime};
use wp2p::config::WP2pConfig;

/// Base seed of the Fig. 3(a)/(b) sweeps (pinned by shape tests).
pub const FIG3AB_SEED: u64 = 0xF3A;
/// Seed of the Fig. 3(c) four-arm comparison.
pub const FIG3C_SEED: u64 = 0x3C;

/// Parameters for Fig. 3(a) and 3(b).
#[derive(Clone, Debug)]
pub struct Fig3abParams {
    /// Upload limit as a fraction of the physical upload capacity.
    pub fractions: Vec<f64>,
    /// Simultaneous download tasks (paper: 5).
    pub tasks: usize,
    /// File size per task.
    pub file_size: u64,
    /// Piece length.
    pub piece_length: u32,
    /// Background swarm per task.
    pub swarm: SwarmSetup,
    /// Measurement duration.
    pub duration: SimDuration,
    /// Runs to average.
    pub runs: u64,
}

impl Fig3abParams {
    /// CI-sized preset. The swarm has the completion diversity of a real
    /// swarm (staggered head starts) so mutual interest — and therefore
    /// tit-for-tat — actually binds.
    pub fn quick() -> Self {
        Fig3abParams {
            fractions: vec![0.1, 0.3, 0.5, 0.7, 0.9],
            tasks: 2,
            file_size: 96 * 1024 * 1024,
            piece_length: 256 * 1024,
            swarm: SwarmSetup {
                seeds: 1,
                seed_access: Access::Wired {
                    up: 30_000.0,
                    down: 500_000.0,
                },
                leeches: 16,
                leech_access: Access::residential(),
                leech_head_start: 0.6,
            },
            duration: SimDuration::from_secs(480),
            runs: 2,
        }
    }

    /// Paper-scale preset: five tasks, larger swarms (scarcer optimistic
    /// slots, so the incentive gradient is steeper), longer measurement.
    pub fn paper() -> Self {
        Fig3abParams {
            fractions: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            tasks: 5,
            file_size: 192 * 1024 * 1024,
            piece_length: 256 * 1024,
            swarm: SwarmSetup {
                seeds: 1,
                seed_access: Access::Wired {
                    up: 30_000.0,
                    down: 500_000.0,
                },
                leeches: 32,
                leech_access: Access::residential(),
                leech_head_start: 0.6,
            },
            duration: SimDuration::from_mins(15),
            runs: 3,
        }
    }
}

/// One point of Fig. 3(a)/(b).
#[derive(Clone, Copy, Debug)]
pub struct Fig3abPoint {
    /// Upload limit fraction of the physical capacity.
    pub fraction: f64,
    /// Aggregate download throughput, bytes/second.
    pub download: f64,
}

fn run_3ab_once(
    params: &Fig3abParams,
    access: Access,
    fraction: f64,
    metrics: &MetricsHandle,
    seed: u64,
) -> f64 {
    let physical_up = match access {
        Access::Wired { up, .. } => up,
        Access::Wireless { capacity } => capacity,
    };
    let per_task_limit = fraction * physical_up / params.tasks as f64;
    let mut w = FlowWorld::new(FlowConfig::default(), seed);
    w.set_metrics(metrics);
    let our_node = w.add_node(access);
    let mut our_tasks = Vec::new();
    for i in 0..params.tasks {
        // Each task is a distinct swarm (the paper's five "tasks").
        let torrent = synthetic_torrent(
            &format!("task{i}.bin"),
            params.piece_length,
            params.file_size,
            seed ^ (i as u64) << 8,
        );
        populate_swarm(&mut w, torrent, &params.swarm);
        our_tasks.push(w.add_task(TaskSpec {
            node: our_node,
            torrent,
            start_complete: false,
            // The measured client has been in the swarm for a while (as
            // the paper's had): it owns a random quarter of the pieces,
            // so its upload capacity is actually in demand.
            start_fraction: Some(0.25),
            start_at: SimTime::ZERO,
            make_config: {
                let limit = per_task_limit.max(512.0);
                Box::new(move || ClientConfig {
                    upload_limit: Some(limit),
                    ..ClientConfig::default()
                })
            },
            wp2p: WP2pConfig::default_client(),
        }));
    }
    w.start();
    w.run_for(params.duration, |_| {});
    let total: u64 = our_tasks.iter().map(|&t| w.downloaded_bytes(t)).sum();
    let secs = params.duration.as_secs_f64();
    if std::env::var("FIG3_DEBUG").is_ok() {
        let up: u64 = our_tasks.iter().map(|&t| w.delivered_up_bytes(t)).sum();
        eprintln!(
            "  [debug] fraction={fraction:.1} down={:.1} up={:.1} KB/s",
            total as f64 / secs / 1024.0,
            up as f64 / secs / 1024.0
        );
    }
    total as f64 / secs
}

fn run_3ab(
    name: &str,
    params: &Fig3abParams,
    access: Access,
    metrics: &MetricsHandle,
    base_seed: u64,
) -> Vec<Fig3abPoint> {
    let dur = params.duration.as_secs_f64();
    let cells = SweepRunner::new(name, base_seed).with_metrics(metrics).run(
        &params.fractions,
        params.runs as usize,
        |&fraction, cell| {
            cell.add_virtual_secs(dur);
            let handle = if cell.point == 0 && cell.run == 0 {
                metrics.clone()
            } else {
                MetricsHandle::disabled()
            };
            run_3ab_once(params, access, fraction, &handle, cell.run_seed)
        },
    );
    params
        .fractions
        .iter()
        .zip(cells)
        .map(|(&fraction, xs)| Fig3abPoint {
            fraction,
            download: metrics::stats::mean(&xs),
        })
        .collect()
}

/// [`run_fig3a`] on an explicit metrics handle and sweep base seed. The
/// first cell's world is wired into `metrics`.
pub fn run_fig3a_with(
    params: &Fig3abParams,
    metrics: &MetricsHandle,
    base_seed: u64,
) -> Vec<Fig3abPoint> {
    run_3ab("fig3a", params, Access::residential(), metrics, base_seed)
}

/// [`run_fig3b`] on an explicit metrics handle and sweep base seed.
pub fn run_fig3b_with(
    params: &Fig3abParams,
    metrics: &MetricsHandle,
    base_seed: u64,
) -> Vec<Fig3abPoint> {
    run_fig3b_custom_with(params, 80_000.0, metrics, base_seed)
}

/// Runs the Fig. 3(b) sweep at an explicit wireless capacity
/// (bytes/second).
pub fn run_fig3b_custom(params: &Fig3abParams, capacity: f64) -> Vec<Fig3abPoint> {
    run_fig3b_custom_with(params, capacity, &MetricsHandle::disabled(), FIG3AB_SEED)
}

/// [`run_fig3b_custom`] on an explicit metrics handle and base seed.
pub fn run_fig3b_custom_with(
    params: &Fig3abParams,
    capacity: f64,
    metrics: &MetricsHandle,
    base_seed: u64,
) -> Vec<Fig3abPoint> {
    run_3ab(
        "fig3b",
        params,
        Access::Wireless { capacity },
        metrics,
        base_seed,
    )
}

/// Renders a Fig. 3(a)/(b) sweep.
pub fn fig3ab_table(title: &str, points: &[Fig3abPoint], expect: &str) -> Table {
    let mut t = Table::new(title);
    t.headers(["upload limit (%)", "download (KBps)"]);
    for p in points {
        t.row([format!("{:.0}", p.fraction * 100.0), kbps(p.download)]);
    }
    t.note(expect);
    t
}

/// Parameters for Fig. 3(c).
#[derive(Clone, Debug)]
pub struct Fig3cParams {
    /// File size (paper: 100 MB).
    pub file_size: u64,
    /// Piece length.
    pub piece_length: u32,
    /// Run length (paper: 40 minutes).
    pub duration: SimDuration,
    /// Mobility period for the mobility arms.
    pub mobility_period: SimDuration,
    /// Hand-off outage.
    pub outage: SimDuration,
    /// Background swarm.
    pub swarm: SwarmSetup,
    /// Wireless capacity of the measured client.
    pub wireless_capacity: f64,
}

impl Fig3cParams {
    /// CI-sized preset.
    pub fn quick() -> Self {
        Fig3cParams {
            file_size: 64 * 1024 * 1024,
            piece_length: 256 * 1024,
            duration: SimDuration::from_mins(10),
            mobility_period: SimDuration::from_secs(60),
            outage: SimDuration::from_secs(8),
            swarm: SwarmSetup {
                seeds: 1,
                seed_access: Access::Wired {
                    up: 60_000.0,
                    down: 500_000.0,
                },
                leeches: 12,
                leech_access: Access::residential(),
                leech_head_start: 0.5,
            },
            wireless_capacity: 200_000.0,
        }
    }

    /// Paper-scale preset: 100 MB, 40 minutes.
    pub fn paper() -> Self {
        Fig3cParams {
            file_size: 100 * 1024 * 1024,
            piece_length: 256 * 1024,
            duration: SimDuration::from_mins(40),
            mobility_period: SimDuration::from_secs(120),
            outage: SimDuration::from_secs(5),
            swarm: SwarmSetup {
                seeds: 2,
                seed_access: Access::Wired {
                    up: 80_000.0,
                    down: 500_000.0,
                },
                leeches: 24,
                leech_access: Access::residential(),
                leech_head_start: 0.5,
            },
            wireless_capacity: 250_000.0,
        }
    }
}

/// The four arms of Fig. 3(c).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fig3cArm {
    /// Whether the client's address changes periodically.
    pub mobility: bool,
    /// Whether the client uploads.
    pub uploading: bool,
}

impl Fig3cArm {
    /// All four arms in the paper's legend order.
    pub fn all() -> [Fig3cArm; 4] {
        [
            Fig3cArm {
                mobility: false,
                uploading: true,
            },
            Fig3cArm {
                mobility: false,
                uploading: false,
            },
            Fig3cArm {
                mobility: true,
                uploading: true,
            },
            Fig3cArm {
                mobility: true,
                uploading: false,
            },
        ]
    }

    /// Legend label.
    pub fn label(&self) -> String {
        format!(
            "{}, {}",
            if self.mobility {
                "Mobility"
            } else {
                "No Mobility"
            },
            if self.uploading {
                "Uploading"
            } else {
                "No Uploading"
            }
        )
    }
}

/// Result of one Fig. 3(c) arm: downloaded bytes over time.
#[derive(Clone, Debug)]
pub struct Fig3cResult {
    /// The arm.
    pub arm: Fig3cArm,
    /// Sampled downloaded-bytes series.
    pub series: TimeSeries,
    /// Final downloaded bytes.
    pub final_bytes: u64,
}

/// [`run_fig3c_arm`] with the world wired into `metrics`.
pub fn run_fig3c_arm_with(
    params: &Fig3cParams,
    arm: Fig3cArm,
    metrics: &MetricsHandle,
    seed: u64,
) -> Fig3cResult {
    let mut cfg = FlowConfig::default();
    cfg.tracker.announce_interval = SimDuration::from_mins(5);
    let mut w = FlowWorld::new(cfg, seed);
    w.set_metrics(metrics);
    let torrent = synthetic_torrent("fig3c.bin", params.piece_length, params.file_size, seed);
    populate_swarm(&mut w, torrent, &params.swarm);
    let node = w.add_node(Access::Wireless {
        capacity: params.wireless_capacity,
    });
    let uploading = arm.uploading;
    let task = w.add_task(TaskSpec {
        node,
        torrent,
        start_complete: false,
        start_fraction: None,
        start_at: SimTime::ZERO,
        make_config: Box::new(move || bittorrent::client::ClientConfig {
            allow_upload: uploading,
            ..Default::default()
        }),
        wp2p: WP2pConfig::default_client(),
    });
    if arm.mobility {
        w.set_mobility(
            node,
            MobilityProcess::with_jitter(params.mobility_period, params.outage, 0.1),
        );
    }
    w.start();
    w.run_for(params.duration, |_| {});
    Fig3cResult {
        arm,
        series: w.download_series(task).clone(),
        final_bytes: w.downloaded_bytes(task),
    }
}

/// [`run_fig3c`] with metrics: the first arm (no-mobility, uploading) is
/// wired into `metrics` — one world per handle keeps every series
/// single-writer and the dump deterministic.
pub fn run_fig3c_with(
    params: &Fig3cParams,
    metrics: &MetricsHandle,
    seed: u64,
) -> Vec<Fig3cResult> {
    let arms = Fig3cArm::all();
    let dur = params.duration.as_secs_f64();
    SweepRunner::new("fig3c", seed)
        .with_metrics(metrics)
        .run(&arms, 1, |&arm, cell| {
            cell.add_virtual_secs(dur);
            let handle = if cell.point == 0 {
                metrics.clone()
            } else {
                MetricsHandle::disabled()
            };
            run_fig3c_arm_with(params, arm, &handle, seed)
        })
        .into_iter()
        .flatten()
        .collect()
}

/// Renders Fig. 3(c): downloaded MB at regular timestamps per arm.
pub fn fig3c_table(results: &[Fig3cResult], samples: usize) -> Table {
    let mut t = Table::new("Figure 3(c): Downloaded size (MB) vs time — incentive & mobility");
    let mut headers = vec!["t (min)".to_string()];
    headers.extend(results.iter().map(|r| r.arm.label()));
    t.headers(headers);
    let horizon = results
        .iter()
        .filter_map(|r| r.series.points().last().map(|&(t, _)| t))
        .max()
        .unwrap_or(SimTime::ZERO);
    for i in 1..=samples {
        let ts = SimTime::from_micros(horizon.as_micros() * i as u64 / samples as u64);
        let mut row = vec![format!("{:.1}", ts.as_secs_f64() / 60.0)];
        for r in results {
            let v = r.series.value_at(ts).unwrap_or(0.0);
            row.push(mb(v as u64));
        }
        t.row(row);
    }
    t.note("paper: no-mobility+uploading highest; mobility arms lowest and nearly equal");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_3ab() -> Fig3abParams {
        Fig3abParams {
            fractions: vec![0.1, 0.9],
            runs: 1,
            ..Fig3abParams::quick()
        }
    }

    fn run_fig3a_plain(params: &Fig3abParams) -> Vec<Fig3abPoint> {
        run_fig3a_with(params, &MetricsHandle::disabled(), FIG3AB_SEED)
    }

    fn run_fig3b_plain(params: &Fig3abParams) -> Vec<Fig3abPoint> {
        run_fig3b_with(params, &MetricsHandle::disabled(), FIG3AB_SEED)
    }

    #[test]
    fn fig3a_download_grows_with_upload_limit() {
        let pts = run_fig3a_plain(&tiny_3ab());
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].download > pts[0].download,
            "wired: more upload should mean more download: {:?}",
            pts
        );
    }

    #[test]
    fn fig3b_wireless_upload_hurts_at_the_top() {
        let p = tiny_3ab();
        let pts = run_fig3b_plain(&p);
        // On a shared channel, cranking upload to 90% of capacity must
        // cost download throughput (self-contention).
        assert!(
            pts[1].download < pts[0].download,
            "wireless: 90% upload should trail 10%: {:?}",
            pts
        );
        // ... while the same sweep on wired helps (checked above); the
        // *contrast* is the paper's point.
        let wired = run_fig3a_plain(&p);
        let wireless_gain = pts[1].download / pts[0].download.max(1.0);
        let wired_gain = wired[1].download / wired[0].download.max(1.0);
        assert!(wireless_gain < wired_gain);
    }

    #[test]
    fn fig3b_quick_preset_rise_peak_fall_shape() {
        // Seeded regression pinning the EXPERIMENTS.md quick-preset shape:
        // the wireless sweep rises to an interior peak near 30% of
        // capacity, then falls well below it by 90% (reported:
        // 42.3 → 43.2 @30% → 29.9 @90%). The sweep seed is fixed inside
        // SweepRunner, so a shape change here is a behaviour change, not
        // noise.
        // The full preset (fractions and 2-run averaging included): sweep
        // seeds are per-cell, so trimming the sweep would change every
        // cell's seed and measure a different trace than the one
        // EXPERIMENTS.md reports.
        let pts = run_fig3b_plain(&Fig3abParams::quick());
        let peak_at = pts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.download.total_cmp(&b.1.download))
            .map(|(i, _)| i)
            .unwrap();
        let peak = pts[peak_at].download;
        let top = pts.last().unwrap().download;
        assert!(
            peak_at < pts.len() - 1,
            "peak must be interior, not at the 90% endpoint: {pts:?}"
        );
        assert!(
            top < 0.85 * peak,
            "90% must fall well below the peak: peak {peak:.0}, top {top:.0} B/s"
        );
        assert!(
            top < pts[0].download,
            "endpoint should land below the start of the sweep: {pts:?}"
        );
    }

    #[test]
    fn fig3c_arms_order_correctly() {
        let params = Fig3cParams {
            duration: SimDuration::from_mins(6),
            swarm: SwarmSetup {
                seeds: 1,
                seed_access: Access::Wired {
                    up: 60_000.0,
                    down: 500_000.0,
                },
                leeches: 4,
                leech_access: Access::residential(),
                leech_head_start: 0.5,
            },
            wireless_capacity: 120_000.0,
            ..Fig3cParams::quick()
        };
        let results = run_fig3c_with(&params, &MetricsHandle::disabled(), 3);
        let get = |mob: bool, up: bool| {
            results
                .iter()
                .find(|r| r.arm.mobility == mob && r.arm.uploading == up)
                .unwrap()
                .final_bytes as f64
        };
        let still_up = get(false, true);
        let mob_up = get(true, true);
        let mob_noup = get(true, false);
        // Mobility hurts relative to the stationary uploading arm.
        assert!(
            still_up > mob_up,
            "mobility should hurt: still={still_up} mobile={mob_up}"
        );
        // Under mobility, uploading buys little (credit keeps resetting):
        // the two mobility arms land within a factor of ~2 of each other.
        let ratio = mob_up / mob_noup.max(1.0);
        assert!(
            (0.4..2.5).contains(&ratio),
            "mobility arms should be comparable, ratio={ratio:.2}"
        );
        let table = fig3c_table(&results, 8);
        assert_eq!(table.len(), 8);
    }
}
