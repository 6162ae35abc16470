//! **Figure 8 — wP2P evaluation: AM, identity retention, LIHD** (paper
//! §5.2.1–5.2.2).
//!
//! * Panel (a): download throughput vs. BER for the default client vs.
//!   wP2P with **Age-based Manipulation**, in the paper's scenario — two
//!   leeches holding complementary halves exchange bi-directionally over
//!   wireless legs (the seed has been removed). AM's decoupled pure ACKs
//!   survive bit errors that kill piggybacked ones, protecting young
//!   windows (paper: ≈ +20%).
//! * Panel (b): downloaded size over time for two mobile clients under
//!   1-minute hand-offs — one default (fresh peer-id each re-initiation),
//!   one with **identity retention**. Retention preserves tit-for-tat
//!   standing, so the retaining client pulls ahead (paper: ≈ +100 MB
//!   after 50 minutes of a 688 MB download).
//! * Panel (c): download throughput vs. wireless capacity for the default
//!   client (no upload cap) vs. **LIHD** — on a shared channel the
//!   default's uploads strangle its own downloads; LIHD finds a better
//!   operating point (paper: up to +70% at 200 KB/s).

use super::common::{populate_swarm, synthetic_torrent, SwarmSetup};
use crate::flow::{Access, FlowConfig, FlowWorld, TaskSpec};
use crate::harness::{run_seed, SweepRunner};
use crate::packet::{PacketConfig, PacketWorld};
use crate::report::{kbps, Table};
use bittorrent::client::ClientConfig;
use bittorrent::metainfo::Metainfo;
use bittorrent::progress::TorrentProgress;
use metrics::handle::MetricsHandle;
use metrics::stats::{RunSummary, TimeSeries};
use simnet::mobility::MobilityProcess;
use simnet::time::{SimDuration, SimTime};
use simnet::wireless::WirelessConfig;
use wp2p::am::AmConfig;
use wp2p::config::WP2pConfig;
use wp2p::ia::LihdConfig;

/// Base seed of the Fig. 8(a) sweep.
pub const FIG8A_SEED: u64 = 0xF8A;
/// Seed of the Fig. 8(b) trace.
pub const FIG8B_SEED: u64 = 0x8B;
/// Base seed of the Fig. 8(c) sweep.
pub const FIG8C_SEED: u64 = 0xF8C;

// ---------------------------------------------------------------------
// Fig. 8(a): Age-based Manipulation
// ---------------------------------------------------------------------

/// Parameters for Fig. 8(a).
#[derive(Clone, Debug)]
pub struct Fig8aParams {
    /// BERs to sweep (paper: 1e-6 … 1.5e-5).
    pub bers: Vec<f64>,
    /// File size (each leech starts with half; paper: 100 MB).
    pub file_size: u64,
    /// Piece length.
    pub piece_length: u32,
    /// Wireless capacity per leech, bytes/second.
    pub channel_bytes_per_sec: u64,
    /// Measurement duration.
    pub duration: SimDuration,
    /// Runs to average (paper: 5).
    pub runs: u64,
}

impl Fig8aParams {
    /// CI-sized preset.
    pub fn quick() -> Self {
        Fig8aParams {
            bers: vec![1.0e-6, 1.5e-5],
            file_size: 4 * 1024 * 1024,
            piece_length: 64 * 1024,
            channel_bytes_per_sec: 60_000,
            duration: SimDuration::from_secs(60),
            runs: 2,
        }
    }

    /// Paper-scale preset.
    pub fn paper() -> Self {
        Fig8aParams {
            bers: vec![1.0e-6, 5.0e-6, 1.0e-5, 1.5e-5],
            file_size: 32 * 1024 * 1024,
            piece_length: 256 * 1024,
            channel_bytes_per_sec: 60_000,
            duration: SimDuration::from_secs(300),
            runs: 5,
        }
    }
}

/// One Fig. 8(a) point.
#[derive(Clone, Copy, Debug)]
pub struct Fig8aPoint {
    /// The bit-error rate.
    pub ber: f64,
    /// Default-client download throughput (bytes/s).
    pub default: RunSummary,
    /// wP2P (AM) download throughput (bytes/s).
    pub wp2p: RunSummary,
}

pub(crate) fn run_8a_once(
    params: &Fig8aParams,
    am: Option<AmConfig>,
    ber: f64,
    metrics: &MetricsHandle,
    seed: u64,
) -> f64 {
    let meta = Metainfo::synthetic("fig8a.bin", "tr", params.piece_length, params.file_size, 1);
    let ih = meta.info.info_hash();
    let mut cfg = PacketConfig::default();
    cfg.tcp.recv_window = 32 * 1024;
    let mut w = PacketWorld::new(cfg, seed);
    w.set_metrics(metrics);
    // Like the paper's ns-2 emulation, the channel is a bandwidth/BER
    // model without per-frame MAC cost, so AM's extra 40-byte pure ACKs
    // cost their byte share (~3%), not a frame-time multiple.
    let wlan = WirelessConfig {
        bandwidth_bps: params.channel_bytes_per_sec * 8,
        prop_delay: SimDuration::from_millis(2),
        queue_frames: 100,
        ber,
        per_frame_overhead: SimDuration::ZERO,
    };
    let l1 = w.add_node(Some(wlan));
    let l2 = w.add_node(Some(wlan));
    if let Some(cfg) = am {
        w.set_am(l1, cfg);
        w.set_am(l2, cfg);
    }
    // Complementary halves, as after the removed seed.
    let mk = |even: bool| -> TorrentProgress {
        let mut p =
            TorrentProgress::with_block_size(meta.info.piece_length, meta.info.length, 16 * 1024);
        for piece in 0..meta.info.num_pieces() {
            if (piece % 2 == 0) == even {
                p.mark_piece_complete(piece);
            }
        }
        p
    };
    w.add_client_with_progress(l1, ClientConfig::default(), ih, mk(true));
    w.add_client_with_progress(l2, ClientConfig::default(), ih, mk(false));
    w.start_clients();
    w.run_until(SimTime::ZERO + params.duration, |_| {});
    let total = w.delivered_down(l1) + w.delivered_down(l2);
    total as f64 / params.duration.as_secs_f64() / 2.0
}

/// [`run_fig8a`] with metrics: the first cell's default-client world is
/// wired into `metrics` (per-connection TCP and AM instruments included).
pub fn run_fig8a_with(
    params: &Fig8aParams,
    metrics: &MetricsHandle,
    base_seed: u64,
) -> Vec<Fig8aPoint> {
    let dur = params.duration.as_secs_f64();
    let cells = SweepRunner::new("fig8a", base_seed)
        .with_metrics(metrics)
        .run(&params.bers, params.runs as usize, |&ber, cell| {
            cell.add_virtual_secs(2.0 * dur);
            let handle = if cell.point == 0 && cell.run == 0 {
                metrics.clone()
            } else {
                MetricsHandle::disabled()
            };
            (
                run_8a_once(params, None, ber, &handle, cell.run_seed),
                run_8a_once(
                    params,
                    Some(AmConfig::default()),
                    ber,
                    &MetricsHandle::disabled(),
                    cell.run_seed,
                ),
            )
        });
    params
        .bers
        .iter()
        .zip(cells)
        .map(|(&ber, runs)| {
            let default: Vec<f64> = runs.iter().map(|&(d, _)| d).collect();
            let wp2p: Vec<f64> = runs.iter().map(|&(_, w)| w).collect();
            Fig8aPoint {
                ber,
                default: RunSummary::of(&default),
                wp2p: RunSummary::of(&wp2p),
            }
        })
        .collect()
}

/// Runs one Fig. 8(a)-style point with an explicit AM configuration
/// (`None` = default client); averaged over the params' run count. Used
/// by the AM component ablation. Seeds match [`run_fig8a`]'s.
pub fn run_fig8a_point(params: &Fig8aParams, am: Option<AmConfig>, ber: f64) -> f64 {
    let disabled = MetricsHandle::disabled();
    let xs: Vec<f64> = (0..params.runs)
        .map(|r| run_8a_once(params, am, ber, &disabled, run_seed(FIG8A_SEED, r as usize)))
        .collect();
    metrics::stats::mean(&xs)
}

/// Renders Fig. 8(a).
pub fn fig8a_table(points: &[Fig8aPoint]) -> Table {
    let mut t = Table::new(
        "Figure 8(a): Throughput (KBps) vs BER — default vs wP2P (age-based manipulation)",
    );
    t.headers(["BER", "default", "wP2P", "gain"]);
    for p in points {
        t.row([
            format!("{:.1e}", p.ber),
            kbps(p.default.mean),
            kbps(p.wp2p.mean),
            format!(
                "{:+.0}%",
                (p.wp2p.mean / p.default.mean.max(1.0) - 1.0) * 100.0
            ),
        ]);
    }
    t.note("paper: wP2P ≈ +20% at every BER");
    t.note(
        "reproduction: parity (±3%). With standards-compliant cumulative ACKs, \
the next reverse-path data segment re-delivers lost ACK information within \
tens of ms, so decoupling prevents no stalls; see EXPERIMENTS.md",
    );
    t
}

// ---------------------------------------------------------------------
// Fig. 8(b): identity retention
// ---------------------------------------------------------------------

/// Parameters for Fig. 8(b).
#[derive(Clone, Debug)]
pub struct Fig8bParams {
    /// File size (paper: 688 MB Fedora image).
    pub file_size: u64,
    /// Piece length (paper default: 256 KB).
    pub piece_length: u32,
    /// Background swarm.
    pub swarm: SwarmSetup,
    /// Hand-off period (paper: 1 minute).
    pub mobility_period: SimDuration,
    /// Hand-off outage.
    pub outage: SimDuration,
    /// Run length (paper: 50 minutes).
    pub duration: SimDuration,
    /// Wireless capacity of the two measured clients.
    pub wireless_capacity: f64,
}

impl Fig8bParams {
    /// CI-sized preset.
    pub fn quick() -> Self {
        Fig8bParams {
            file_size: 64 * 1024 * 1024,
            piece_length: 256 * 1024,
            swarm: SwarmSetup {
                seeds: 3,
                seed_access: Access::Wired {
                    up: 100_000.0,
                    down: 500_000.0,
                },
                leeches: 8,
                leech_access: Access::residential(),
                leech_head_start: 0.5,
            },
            mobility_period: SimDuration::from_secs(60),
            outage: SimDuration::from_secs(5),
            duration: SimDuration::from_mins(12),
            wireless_capacity: 250_000.0,
        }
    }

    /// Paper-scale preset: 688 MB, 200-peer swarm, 50 minutes.
    pub fn paper() -> Self {
        Fig8bParams {
            file_size: 688 * 1024 * 1024,
            piece_length: 256 * 1024,
            swarm: SwarmSetup {
                seeds: 20,
                seed_access: Access::Wired {
                    up: 150_000.0,
                    down: 500_000.0,
                },
                leeches: 180,
                leech_access: Access::residential(),
                leech_head_start: 0.5,
            },
            mobility_period: SimDuration::from_secs(60),
            outage: SimDuration::from_secs(5),
            duration: SimDuration::from_mins(50),
            wireless_capacity: 500_000.0,
        }
    }
}

/// Result of Fig. 8(b): series for both clients (single typical run, both
/// in the same swarm, as in the paper).
#[derive(Clone, Debug)]
pub struct Fig8bResult {
    /// Downloaded-bytes series of the default client.
    pub default_series: TimeSeries,
    /// Downloaded-bytes series of the retaining client.
    pub wp2p_series: TimeSeries,
    /// Final bytes of the default client.
    pub default_bytes: u64,
    /// Final bytes of the retaining client.
    pub wp2p_bytes: u64,
}

/// [`run_fig8b`] with metrics: the (single) trace world is wired into
/// `metrics`, so the hand-off and retention dynamics are observable.
pub fn run_fig8b_with(params: &Fig8bParams, metrics: &MetricsHandle, seed: u64) -> Fig8bResult {
    let dur = params.duration.as_secs_f64();
    SweepRunner::new("fig8b", seed)
        .with_metrics(metrics)
        .run(&[()], 1, |_, cell| {
            cell.add_virtual_secs(dur);
            run_fig8b_once(params, metrics, seed)
        })
        .into_iter()
        .flatten()
        .next()
        .expect("fig8b trace")
}

fn run_fig8b_once(params: &Fig8bParams, metrics: &MetricsHandle, seed: u64) -> Fig8bResult {
    let mut cfg = FlowConfig::default();
    cfg.tracker.announce_interval = SimDuration::from_mins(5);
    let mut w = FlowWorld::new(cfg, seed);
    w.set_metrics(metrics);
    let torrent = synthetic_torrent(
        "Fedora-7-KDE-Live-i686.iso",
        params.piece_length,
        params.file_size,
        seed,
    );
    populate_swarm(&mut w, torrent, &params.swarm);
    let add_mobile = |w: &mut FlowWorld, retention: bool| {
        let node = w.add_node(Access::Wireless {
            capacity: params.wireless_capacity,
        });
        let task = w.add_task(TaskSpec {
            node,
            torrent,
            start_complete: false,
            start_fraction: None,
            start_at: SimTime::ZERO,
            make_config: Box::new(ClientConfig::default),
            wp2p: if retention {
                WP2pConfig::identity_only()
            } else {
                WP2pConfig::default_client()
            },
        });
        w.set_mobility(
            node,
            MobilityProcess::with_jitter(params.mobility_period, params.outage, 0.05),
        );
        task
    };
    let default_task = add_mobile(&mut w, false);
    let wp2p_task = add_mobile(&mut w, true);
    w.start();
    w.run_for(params.duration, |_| {});
    Fig8bResult {
        default_series: w.download_series(default_task).clone(),
        wp2p_series: w.download_series(wp2p_task).clone(),
        default_bytes: w.downloaded_bytes(default_task),
        wp2p_bytes: w.downloaded_bytes(wp2p_task),
    }
}

/// Renders Fig. 8(b).
pub fn fig8b_table(result: &Fig8bResult, samples: usize) -> Table {
    let mut t = Table::new(
        "Figure 8(b): Downloaded size (MB) vs time — identity retention under 1-min hand-offs",
    );
    t.headers(["t (min)", "default", "wP2P"]);
    let horizon = result
        .wp2p_series
        .points()
        .last()
        .map(|&(t, _)| t)
        .unwrap_or(SimTime::ZERO);
    for i in 1..=samples {
        let ts = SimTime::from_micros(horizon.as_micros() * i as u64 / samples as u64);
        t.row([
            format!("{:.1}", ts.as_secs_f64() / 60.0),
            crate::report::mb(result.default_series.value_at(ts).unwrap_or(0.0) as u64),
            crate::report::mb(result.wp2p_series.value_at(ts).unwrap_or(0.0) as u64),
        ]);
    }
    t.note("paper: wP2P leads throughout, ≈ +100 MB after 50 min of a 688 MB download");
    t
}

// ---------------------------------------------------------------------
// Fig. 8(c): LIHD
// ---------------------------------------------------------------------

/// Parameters for Fig. 8(c).
#[derive(Clone, Debug)]
pub struct Fig8cParams {
    /// Wireless capacities to sweep, bytes/second (paper: 50–200 KBps).
    pub capacities: Vec<f64>,
    /// File size.
    pub file_size: u64,
    /// Piece length.
    pub piece_length: u32,
    /// Background swarm (leech-heavy so the client's upload is in demand).
    pub swarm: SwarmSetup,
    /// Measurement duration.
    pub duration: SimDuration,
    /// Runs to average (paper: 10).
    pub runs: u64,
}

impl Fig8cParams {
    /// CI-sized preset.
    pub fn quick() -> Self {
        Fig8cParams {
            capacities: vec![40.0 * 1024.0, 80.0 * 1024.0, 120.0 * 1024.0],
            file_size: 96 * 1024 * 1024,
            piece_length: 256 * 1024,
            swarm: SwarmSetup {
                seeds: 2,
                seed_access: Access::Wired {
                    up: 200_000.0,
                    down: 500_000.0,
                },
                leeches: 10,
                leech_access: Access::residential(),
                leech_head_start: 0.5,
            },
            duration: SimDuration::from_mins(8),
            runs: 2,
        }
    }

    /// Paper-scale preset.
    pub fn paper() -> Self {
        Fig8cParams {
            capacities: vec![40.0 * 1024.0, 60.0 * 1024.0, 80.0 * 1024.0, 120.0 * 1024.0],
            file_size: 192 * 1024 * 1024,
            piece_length: 256 * 1024,
            swarm: SwarmSetup {
                seeds: 3,
                seed_access: Access::Wired {
                    up: 200_000.0,
                    down: 500_000.0,
                },
                leeches: 16,
                leech_access: Access::residential(),
                leech_head_start: 0.5,
            },
            duration: SimDuration::from_mins(15),
            runs: 10,
        }
    }
}

/// One Fig. 8(c) point.
#[derive(Clone, Copy, Debug)]
pub struct Fig8cPoint {
    /// Wireless capacity, bytes/second.
    pub capacity: f64,
    /// Default-client download throughput.
    pub default: RunSummary,
    /// wP2P (LIHD) download throughput.
    pub wp2p: RunSummary,
}

fn run_8c_once(
    params: &Fig8cParams,
    lihd: bool,
    capacity: f64,
    metrics: &MetricsHandle,
    seed: u64,
) -> f64 {
    let mut w = FlowWorld::new(FlowConfig::default(), seed);
    w.set_metrics(metrics);
    let torrent = synthetic_torrent("fig8c.bin", params.piece_length, params.file_size, seed);
    populate_swarm(&mut w, torrent, &params.swarm);
    let node = w.add_node(Access::Wireless { capacity });
    let task = w.add_task(TaskSpec {
        node,
        torrent,
        start_complete: false,
        start_fraction: None,
        start_at: SimTime::ZERO,
        make_config: Box::new(ClientConfig::default),
        wp2p: if lihd {
            WP2pConfig {
                lihd: Some(LihdConfig::paper(capacity)),
                ..WP2pConfig::default_client()
            }
        } else {
            WP2pConfig::default_client()
        },
    });
    w.start();
    w.run_for(params.duration, |_| {});
    w.downloaded_bytes(task) as f64 / params.duration.as_secs_f64()
}

/// [`run_fig8c`] with metrics: the first cell's LIHD world is wired into
/// `metrics` (per-client LIHD step instruments included).
pub fn run_fig8c_with(
    params: &Fig8cParams,
    metrics: &MetricsHandle,
    base_seed: u64,
) -> Vec<Fig8cPoint> {
    let dur = params.duration.as_secs_f64();
    let cells = SweepRunner::new("fig8c", base_seed)
        .with_metrics(metrics)
        .run(
            &params.capacities,
            params.runs as usize,
            |&capacity, cell| {
                cell.add_virtual_secs(2.0 * dur);
                let handle = if cell.point == 0 && cell.run == 0 {
                    metrics.clone()
                } else {
                    MetricsHandle::disabled()
                };
                (
                    run_8c_once(
                        params,
                        false,
                        capacity,
                        &MetricsHandle::disabled(),
                        cell.run_seed,
                    ),
                    run_8c_once(params, true, capacity, &handle, cell.run_seed),
                )
            },
        );
    params
        .capacities
        .iter()
        .zip(cells)
        .map(|(&capacity, runs)| {
            let default: Vec<f64> = runs.iter().map(|&(d, _)| d).collect();
            let wp2p: Vec<f64> = runs.iter().map(|&(_, w)| w).collect();
            Fig8cPoint {
                capacity,
                default: RunSummary::of(&default),
                wp2p: RunSummary::of(&wp2p),
            }
        })
        .collect()
}

/// Renders Fig. 8(c).
pub fn fig8c_table(points: &[Fig8cPoint]) -> Table {
    let mut t = Table::new(
        "Figure 8(c): Download throughput (KBps) vs wireless capacity — default vs wP2P (LIHD)",
    );
    t.headers(["capacity (KBps)", "default", "wP2P", "gain"]);
    for p in points {
        t.row([
            format!("{:.0}", p.capacity / 1024.0),
            kbps(p.default.mean),
            kbps(p.wp2p.mean),
            format!(
                "{:+.0}%",
                (p.wp2p.mean / p.default.mean.max(1.0) - 1.0) * 100.0
            ),
        ]);
    }
    t.note("paper: the gap widens with capacity, up to ≈ +70% at 200 KBps");
    t.note(
        "reproduction: LIHD wins wherever the channel binds (our closed swarm \
supplies ≈ 70 KBps, so the sweep is scaled down); the gap is largest at the \
tightest channels rather than the widest — see EXPERIMENTS.md",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8a_am_is_at_parity_with_default() {
        // Reproduction finding (see EXPERIMENTS.md): AM is throughput-
        // neutral under standards-compliant cumulative ACKs. This test
        // pins that down both ways — no large harm, no phantom gain —
        // within the noise of two quick runs.
        let params = Fig8aParams::quick();
        let pts = run_fig8a_with(&params, &MetricsHandle::disabled(), FIG8A_SEED);
        for p in &pts {
            let ratio = p.wp2p.mean / p.default.mean.max(1.0);
            assert!(
                (0.75..1.35).contains(&ratio),
                "AM should be near parity at BER {}: ratio {ratio:.2}",
                p.ber
            );
        }
    }

    #[test]
    fn fig8b_retention_downloads_at_least_as_much() {
        let p = Fig8bParams {
            duration: SimDuration::from_mins(8),
            file_size: 48 * 1024 * 1024,
            ..Fig8bParams::quick()
        };
        let r = run_fig8b_with(&p, &MetricsHandle::disabled(), 5);
        assert!(r.wp2p_bytes > 0 && r.default_bytes > 0);
        assert!(
            r.wp2p_bytes as f64 >= 0.9 * r.default_bytes as f64,
            "retention should not trail: wp2p={} default={}",
            r.wp2p_bytes,
            r.default_bytes
        );
        assert!(fig8b_table(&r, 6).len() == 6);
    }

    #[test]
    fn fig8b_quick_preset_retention_leads_throughout() {
        // Seeded regression pinning the EXPERIMENTS.md quick-preset shape
        // with the exact seed the bench driver uses (0x8B): the retaining
        // client leads at every sampled time and finishes the 12-minute
        // window far ahead (reported: 46.1 vs 25.6 MB, +80%).
        let p = Fig8bParams::quick();
        let r = run_fig8b_with(&p, &MetricsHandle::disabled(), FIG8B_SEED);
        for q in 1..=4u64 {
            let ts = SimTime::from_micros(p.duration.as_micros() * q / 4);
            let d = r.default_series.value_at(ts).unwrap_or(0.0);
            let w = r.wp2p_series.value_at(ts).unwrap_or(0.0);
            assert!(
                w >= d,
                "retention trails at {:.1} min: wp2p={w:.0} default={d:.0}",
                ts.as_secs_f64() / 60.0
            );
        }
        assert!(
            r.wp2p_bytes as f64 >= 1.3 * r.default_bytes as f64,
            "final lead collapsed: wp2p={} default={}",
            r.wp2p_bytes,
            r.default_bytes
        );
    }

    #[test]
    fn fig8c_lihd_beats_default_where_the_channel_binds() {
        let params = Fig8cParams::quick();
        let pts = run_fig8c_with(&params, &MetricsHandle::disabled(), FIG8C_SEED);
        // The tightest channel of the sweep is contention-bound: LIHD's
        // upload cap buys real download capacity there.
        let tight = &pts[0];
        assert!(
            tight.wp2p.mean > 1.1 * tight.default.mean,
            "LIHD should clearly win at {} KBps: wp2p={} default={}",
            tight.capacity / 1024.0,
            tight.wp2p.mean,
            tight.default.mean
        );
    }
}
