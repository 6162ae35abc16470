//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! * [`ablate_mf_schedules`] — the altruism/playability trade-off across
//!   mobility-aware fetching schedules (paper §4.3 describes a family;
//!   the evaluation only runs `p_r = downloaded fraction`).
//! * [`ablate_am`] — Age-based Manipulation decomposed: ACK decoupling
//!   and DUPACK thinning separately and together (paper Fig. 5 bundles
//!   them).
//! * [`ablate_lihd`] — LIHD's α/β sensitivity (the paper fixes
//!   α = β = 10 KB/s).
//! * [`ablate_seed_lihd`] — the paper's §4.2 **future work**: LIHD used
//!   by a mobile *seed* so its uploads do not strangle the host's
//!   foreground (non-P2P) downloads.

use super::common::{populate_swarm, synthetic_torrent, SwarmSetup, PIECE_LENGTH};
use super::fig2::Fig2aParams;
use super::fig8::{Fig8aParams, FIG8A_SEED};
use super::params::ExperimentParams;
use super::playability::{run_playability_with, PlayabilityParams};
use super::registry::Report;
use crate::flow::{Access, FlowConfig, FlowWorld, TaskSpec};
use crate::harness::SweepRunner;
use crate::report::{kbps, Table};
use bittorrent::client::ClientConfig;
use metrics::handle::MetricsHandle;
use simnet::time::{SimDuration, SimTime};
use wp2p::am::AmConfig;
use wp2p::config::WP2pConfig;
use wp2p::ia::{Lihd, LihdConfig};
use wp2p::ma::PrSchedule;

// ---------------------------------------------------------------------
// Mobility-aware fetching schedules
// ---------------------------------------------------------------------

/// Result of one MF-schedule arm.
#[derive(Clone, Debug)]
pub struct MfArm {
    /// Schedule label.
    pub label: String,
    /// Playable fraction at 50% downloaded.
    pub playable_at_half: f64,
    /// Playable fraction at 80% downloaded.
    pub playable_at_80: f64,
}

/// Compares the playability of every [`PrSchedule`] plus rarest-first.
pub fn ablate_mf_schedules(params: &PlayabilityParams, seed: u64) -> Vec<MfArm> {
    let arms: Vec<(String, Option<PrSchedule>)> = vec![
        ("rarest-first (default)".into(), None),
        (
            "p_r = downloaded fraction".into(),
            Some(PrSchedule::DownloadedFraction),
        ),
        (
            "exponential, p0=0.2".into(),
            Some(PrSchedule::ExponentialInProgress { p0: 0.2 }),
        ),
        (
            "stability, p0=0.2 tau=5min".into(),
            Some(PrSchedule::Stability {
                p0: 0.2,
                tau: SimDuration::from_mins(5),
            }),
        ),
        ("fixed p_r=0.5".into(), Some(PrSchedule::Fixed(0.5))),
        (
            "pure sequential (p_r=0)".into(),
            Some(PrSchedule::Fixed(0.0)),
        ),
    ];
    arms.into_iter()
        .map(|(label, schedule)| {
            let curve = run_playability_with(params, schedule, &MetricsHandle::disabled(), seed);
            MfArm {
                label,
                playable_at_half: curve.playable_at(0.5),
                playable_at_80: curve.playable_at(0.8),
            }
        })
        .collect()
}

/// Renders the MF-schedule ablation.
pub fn mf_table(arms: &[MfArm]) -> Table {
    let mut t = Table::new("Ablation: mobility-aware fetching schedules (playable %)");
    t.headers(["schedule", "@50% downloaded", "@80% downloaded"]);
    for a in arms {
        t.row([
            a.label.clone(),
            format!("{:.1}", a.playable_at_half * 100.0),
            format!("{:.1}", a.playable_at_80 * 100.0),
        ]);
    }
    t.note("sequential maximises the prefix; rarest-first minimises it; the adaptive schedules sit between");
    t
}

// ---------------------------------------------------------------------
// AM decomposition
// ---------------------------------------------------------------------

/// Result of one AM-component arm.
#[derive(Clone, Debug)]
pub struct AmArm {
    /// Component combination label.
    pub label: String,
    /// Mean throughput at the swept BERs (bytes/s), index-aligned with
    /// the params' BER list.
    pub throughput: Vec<f64>,
}

/// Decomposes AM: none / decouple-only / thin-only / both.
pub fn ablate_am(params: &Fig8aParams) -> Vec<AmArm> {
    // "Decouple only": never classify MATURE for thinning by using an
    // enormous drop modulo. "Thin only": γ = 0 so the connection is never
    // YOUNG.
    let arms: Vec<(String, Option<AmConfig>)> = vec![
        ("default (no AM)".into(), None),
        (
            "decouple only".into(),
            Some(AmConfig {
                dupack_drop_modulo: u64::MAX,
                ..AmConfig::default()
            }),
        ),
        (
            "thin DUPACKs only".into(),
            Some(AmConfig {
                gamma_bytes: 0,
                ..AmConfig::default()
            }),
        ),
        ("full AM".into(), Some(AmConfig::default())),
    ];
    // Reuse the Fig. 8(a) machinery over a flattened (arm × BER) point
    // list so every cell of the decomposition runs in parallel. The base
    // seed matches fig8a's and the seed is point-invariant, so each
    // (arm, BER, run) cell sees exactly the random stream the figure and
    // [`super::fig8::run_fig8a_point`] would give it.
    let point_list: Vec<(usize, f64)> = (0..arms.len())
        .flat_map(|a| params.bers.iter().map(move |&ber| (a, ber)))
        .collect();
    let cells = SweepRunner::new("ablate_am", FIG8A_SEED).run(
        &point_list,
        params.runs as usize,
        |&(a, ber), cell| {
            super::fig8::run_8a_once(
                params,
                arms[a].1,
                ber,
                &MetricsHandle::disabled(),
                cell.run_seed,
            )
        },
    );
    let means: Vec<f64> = cells.iter().map(|xs| metrics::stats::mean(xs)).collect();
    arms.into_iter()
        .enumerate()
        .map(|(a, (label, _))| AmArm {
            label,
            throughput: means[a * params.bers.len()..(a + 1) * params.bers.len()].to_vec(),
        })
        .collect()
}

/// Renders the AM decomposition.
pub fn am_table(params: &Fig8aParams, arms: &[AmArm]) -> Table {
    let mut t = Table::new("Ablation: age-based manipulation components (KBps)");
    let mut headers = vec!["arm".to_string()];
    headers.extend(params.bers.iter().map(|b| format!("BER {b:.0e}")));
    t.headers(headers);
    for a in arms {
        let mut row = vec![a.label.clone()];
        row.extend(a.throughput.iter().map(|&x| kbps(x)));
        t.row(row);
    }
    t
}

// ---------------------------------------------------------------------
// Delayed ACKs × piggybacking
// ---------------------------------------------------------------------

/// One row of the delayed-ACK ablation.
#[derive(Clone, Debug)]
pub struct DelackArm {
    /// Whether RFC 1122 delayed ACKs were enabled.
    pub delayed_ack: bool,
    /// Points `(ber, bi_throughput, uni_throughput)`.
    pub points: Vec<(f64, f64, f64)>,
}

/// Re-runs the Fig. 2(a) sweep with delayed ACKs on and off. Delayed ACKs
/// concentrate more acknowledgement information per (pure) ACK on the
/// uni-directional path, so losing one costs more — a paper-era TCP knob
/// that interacts directly with the piggybacking story.
pub fn ablate_delack(base: &Fig2aParams) -> Vec<DelackArm> {
    [false, true]
        .into_iter()
        .map(|delayed_ack| {
            let params = Fig2aParams {
                delayed_ack,
                ..base.clone()
            };
            let points = super::fig2::run_fig2a_with(
                &params,
                &MetricsHandle::disabled(),
                super::fig2::FIG2A_SEED,
            )
            .into_iter()
            .map(|p| (p.ber, p.bi.mean, p.uni.mean))
            .collect();
            DelackArm {
                delayed_ack,
                points,
            }
        })
        .collect()
}

/// Renders the delayed-ACK ablation.
pub fn delack_table(arms: &[DelackArm]) -> Table {
    let mut t = Table::new("Ablation: delayed ACKs × ACK piggybacking (KBps)");
    t.headers(["arm", "BER", "bi-TCP", "uni-TCP"]);
    for a in arms {
        for &(ber, bi, uni) in &a.points {
            t.row([
                if a.delayed_ack {
                    "delack on"
                } else {
                    "delack off"
                }
                .to_string(),
                format!("{ber:.0e}"),
                kbps(bi),
                kbps(uni),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// LIHD sensitivity
// ---------------------------------------------------------------------

/// One LIHD (α, β) point.
#[derive(Clone, Copy, Debug)]
pub struct LihdArm {
    /// Linear increase step, bytes/second.
    pub alpha: f64,
    /// Decrease unit, bytes/second.
    pub beta: f64,
    /// Download throughput achieved (bytes/s).
    pub download: f64,
}

/// Sweeps LIHD's α/β on a binding wireless channel.
pub fn ablate_lihd(capacity: f64, duration: SimDuration, seed: u64) -> Vec<LihdArm> {
    let steps = [2.0 * 1024.0, 10.0 * 1024.0, 40.0 * 1024.0];
    let grid: Vec<(f64, f64)> = steps
        .iter()
        .flat_map(|&alpha| steps.iter().map(move |&beta| (alpha, beta)))
        .collect();
    // Every (α, β) cell runs the same world (same seed), so the grid
    // differs only in the controller's knobs.
    SweepRunner::new("ablate_lihd", seed)
        .run(&grid, 1, |&(alpha, beta), cell| {
            cell.add_virtual_secs(duration.as_secs_f64());
            let mut w = FlowWorld::new(FlowConfig::default(), seed);
            let torrent = synthetic_torrent("lihd.bin", PIECE_LENGTH, 96 * 1024 * 1024, seed);
            populate_swarm(
                &mut w,
                torrent,
                &SwarmSetup {
                    seeds: 2,
                    seed_access: Access::Wired {
                        up: 200_000.0,
                        down: 500_000.0,
                    },
                    leeches: 10,
                    leech_access: Access::residential(),
                    leech_head_start: 0.5,
                },
            );
            let node = w.add_node(Access::Wireless { capacity });
            let task = w.add_task(TaskSpec {
                node,
                torrent,
                start_complete: false,
                start_fraction: None,
                start_at: SimTime::ZERO,
                make_config: Box::new(ClientConfig::default),
                wp2p: WP2pConfig {
                    lihd: Some(LihdConfig {
                        alpha,
                        beta,
                        ..LihdConfig::paper(capacity)
                    }),
                    ..WP2pConfig::default_client()
                },
            });
            w.start();
            w.run_for(duration, |_| {});
            LihdArm {
                alpha,
                beta,
                download: w.downloaded_bytes(task) as f64 / duration.as_secs_f64(),
            }
        })
        .into_iter()
        .flatten()
        .collect()
}

/// Renders the LIHD sensitivity grid.
pub fn lihd_table(arms: &[LihdArm]) -> Table {
    let mut t = Table::new("Ablation: LIHD α/β sensitivity (download KBps)");
    t.headers(["alpha (KBps)", "beta (KBps)", "download"]);
    for a in arms {
        t.row([
            format!("{:.0}", a.alpha / 1024.0),
            format!("{:.0}", a.beta / 1024.0),
            kbps(a.download),
        ]);
    }
    t.note("paper fixes alpha = beta = 10 KBps; the controller is not very sensitive");
    t
}

// ---------------------------------------------------------------------
// Seed-mode LIHD (paper future work)
// ---------------------------------------------------------------------

/// Result of one seed-LIHD arm.
#[derive(Clone, Copy, Debug)]
pub struct SeedLihdArm {
    /// Whether seed-mode LIHD controlled the seeding task's uploads.
    pub lihd: bool,
    /// The foreground (non-P2P) download throughput, bytes/s.
    pub foreground_download: f64,
    /// The seeding task's upload throughput, bytes/s.
    pub seed_upload: f64,
}

/// The §4.2 future-work experiment: a wireless host seeds a popular
/// torrent while also running a foreground (non-P2P) download. Without
/// control, seeding uploads contend the foreground away; with seed-mode
/// LIHD fed by the *foreground's* rate, the controller pulls uploads back
/// until the foreground recovers.
pub fn ablate_seed_lihd(capacity: f64, duration: SimDuration, seed: u64) -> Vec<SeedLihdArm> {
    // Two paired arms (same seed), run in parallel as sweep points.
    SweepRunner::new("ablate_seed_lihd", seed)
        .run(&[false, true], 1, |&lihd, _cell| {
            // Short tracker interval so the swarm discovers the (listening)
            // seed within the run; seeds never dial.
            let mut cfg = FlowConfig::default();
            cfg.tracker.announce_interval = SimDuration::from_secs(120);
            let mut w = FlowWorld::new(cfg, seed);
            // Swarm 1: the torrent our host seeds, with hungry leeches.
            let p2p = synthetic_torrent("seeded.bin", PIECE_LENGTH, 256 * 1024 * 1024, seed);
            // Our host is the swarm's primary source: the one other seed
            // is slow, so leeches lean on us and our uploads really do
            // contend with the foreground.
            populate_swarm(
                &mut w,
                p2p,
                &SwarmSetup {
                    seeds: 1,
                    seed_access: Access::Wired {
                        up: 20_000.0,
                        down: 500_000.0,
                    },
                    leeches: 12,
                    leech_access: Access::residential(),
                    leech_head_start: 0.2,
                },
            );
            // Swarm 2: a stand-in for the foreground download — a private
            // single-seed torrent only our host leeches, upload disabled
            // (a plain HTTP-like fetch).
            let web =
                synthetic_torrent("foreground.bin", PIECE_LENGTH, 512 * 1024 * 1024, seed ^ 1);
            let web_server = w.add_node(Access::Wired {
                up: 2_000_000.0,
                down: 2_000_000.0,
            });
            w.add_task(TaskSpec::default_client(web_server, web, true));

            let host = w.add_node(Access::Wireless { capacity });
            let seeding_task = w.add_task(TaskSpec {
                node: host,
                torrent: p2p,
                start_complete: true,
                start_fraction: None,
                start_at: SimTime::ZERO,
                make_config: Box::new(ClientConfig::default),
                wp2p: WP2pConfig::default_client(),
            });
            let foreground_task = w.add_task(TaskSpec {
                node: host,
                torrent: web,
                start_complete: false,
                start_fraction: None,
                start_at: SimTime::ZERO,
                make_config: Box::new(|| ClientConfig {
                    allow_upload: false,
                    ..ClientConfig::default()
                }),
                wp2p: WP2pConfig::default_client(),
            });
            w.start();
            // Warm-up: let the swarm discover the seed before measuring.
            let warmup = SimDuration::from_secs(180);
            w.run_for(warmup, |_| {});
            let fg0 = w.downloaded_bytes(foreground_task);
            let up0 = w.delivered_up_bytes(seeding_task);

            // Seed-mode LIHD: same controller, but its feedback signal is
            // the FOREGROUND application's download rate.
            let mut controller = lihd.then(|| Lihd::new(LihdConfig::paper(capacity)));
            let mut last_fg = 0u64;
            let mut last_t = SimTime::ZERO;
            w.run_until(SimTime::ZERO + duration, |w| {
                let Some(ctl) = controller.as_mut() else {
                    return;
                };
                let now = w.now();
                if !ctl.due(now) {
                    return;
                }
                let fg = w.downloaded_bytes(foreground_task);
                let dt = now.saturating_since(last_t).as_secs_f64().max(1e-9);
                let fg_rate = (fg - last_fg) as f64 / dt;
                last_fg = fg;
                last_t = now;
                let u = ctl.update(now, fg_rate);
                w.set_task_upload_limit(seeding_task, Some(u));
            });
            let secs = duration.as_secs_f64();
            SeedLihdArm {
                lihd,
                foreground_download: (w.downloaded_bytes(foreground_task) - fg0) as f64 / secs,
                seed_upload: (w.delivered_up_bytes(seeding_task) - up0) as f64 / secs,
            }
        })
        .into_iter()
        .flatten()
        .collect()
}

/// Renders the seed-LIHD experiment.
pub fn seed_lihd_table(arms: &[SeedLihdArm]) -> Table {
    let mut t =
        Table::new("Future work (paper §4.2): seed-mode LIHD protecting a foreground download");
    t.headers(["arm", "foreground download (KBps)", "seed upload (KBps)"]);
    for a in arms {
        t.row([
            if a.lihd {
                "wP2P (seed LIHD)".to_string()
            } else {
                "default (uncapped seed)".to_string()
            },
            kbps(a.foreground_download),
            kbps(a.seed_upload),
        ]);
    }
    t.note("LIHD trades seeding throughput for the foreground's recovery");
    t
}

// ---------------------------------------------------------------------
// Registry entry
// ---------------------------------------------------------------------

/// Canonical seed of the registry's `ablations` entry (the MF study's).
pub const ABLATIONS_SEED: u64 = 0xAB1;

/// The registry's `ablations` entry: all five studies, one table each,
/// each taking its parameters from the selected preset.
/// The AM and delayed-ACK studies re-run the fig8a/fig2a sweeps on those
/// figures' own seeds; `seed` is the MF study's, and the two LIHD
/// studies keep their pinned seeds at the canonical value and shift with
/// it otherwise.
pub fn ablations_report(params: &ExperimentParams, _: &MetricsHandle, seed: u64) -> Report {
    let shift = seed ^ ABLATIONS_SEED;
    let (mf, am, delack, lihd_mins, seed_lihd_mins) = params.pick(
        || {
            (
                PlayabilityParams::quick_5mb(),
                Fig8aParams::quick(),
                Fig2aParams::quick(),
                5,
                6,
            )
        },
        || {
            (
                PlayabilityParams::paper_5mb(),
                Fig8aParams::paper(),
                Fig2aParams::paper(),
                12,
                15,
            )
        },
    );
    Report {
        tables: vec![
            mf_table(&ablate_mf_schedules(&mf, seed)),
            am_table(&am, &ablate_am(&am)),
            delack_table(&ablate_delack(&delack)),
            lihd_table(&ablate_lihd(
                60_000.0,
                SimDuration::from_mins(lihd_mins),
                0x11D ^ shift,
            )),
            seed_lihd_table(&ablate_seed_lihd(
                100_000.0,
                SimDuration::from_mins(seed_lihd_mins),
                0x5EED ^ shift,
            )),
        ],
        text: String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mf_schedules_order_sensibly() {
        let params = PlayabilityParams {
            file_size: 4 * 1024 * 1024,
            piece_length: 128 * 1024,
            runs: 2,
            grid: 10,
            timeout: SimDuration::from_mins(8),
            ..PlayabilityParams::quick_5mb()
        };
        let arms = ablate_mf_schedules(&params, 0xAB1);
        let get = |label: &str| {
            arms.iter()
                .find(|a| a.label.starts_with(label))
                .unwrap()
                .playable_at_half
        };
        let rarest = get("rarest-first");
        let sequential = get("pure sequential");
        let adaptive = get("p_r = downloaded");
        assert!(
            sequential > adaptive && adaptive > rarest,
            "expected sequential ({sequential:.2}) > adaptive ({adaptive:.2}) > rarest ({rarest:.2})"
        );
        assert!(!mf_table(&arms).is_empty());
    }

    #[test]
    fn seed_lihd_protects_foreground() {
        let arms = ablate_seed_lihd(100_000.0, SimDuration::from_mins(6), 0x5EED);
        let base = arms.iter().find(|a| !a.lihd).unwrap();
        let ctl = arms.iter().find(|a| a.lihd).unwrap();
        assert!(
            ctl.foreground_download > base.foreground_download,
            "seed LIHD should restore the foreground: {} vs {}",
            ctl.foreground_download,
            base.foreground_download
        );
        assert!(base.seed_upload > 0.0 && ctl.seed_upload > 0.0);
    }

    #[test]
    fn lihd_grid_runs() {
        let arms = ablate_lihd(60_000.0, SimDuration::from_mins(3), 0x11D);
        assert_eq!(arms.len(), 9);
        assert!(arms.iter().all(|a| a.download > 0.0));
    }
}
