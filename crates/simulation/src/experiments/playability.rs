//! Shared driver for the playability experiments (Figs. 4(b,c) and
//! 9(a,b)): download a media file in a swarm and record what fraction of
//! it is *playable* (in-sequence from the head) at each downloaded
//! fraction.

use super::common::{populate_swarm, synthetic_torrent, SwarmSetup};
use crate::flow::{Access, FlowConfig, FlowWorld, TaskSpec};
use crate::harness::SweepRunner;
use crate::report::Table;
use bittorrent::client::ClientConfig;
use media_model::playable_fraction;
use metrics::handle::MetricsHandle;
use simnet::time::{SimDuration, SimTime};
use wp2p::config::WP2pConfig;
use wp2p::ma::PrSchedule;

/// Parameters of one playability curve measurement.
#[derive(Clone, Debug)]
pub struct PlayabilityParams {
    /// File size (the paper uses 5 MB and 100 MB).
    pub file_size: u64,
    /// Piece length (the paper's default 256 KB).
    pub piece_length: u32,
    /// Access network of the measured client.
    pub client_access: Access,
    /// Runs to average (paper: 10 for Fig. 4, 20 for Fig. 9).
    pub runs: u64,
    /// Downloaded-fraction grid resolution (number of bins).
    pub grid: usize,
    /// Per-run timeout.
    pub timeout: SimDuration,
}

impl PlayabilityParams {
    /// The paper's 5 MB panel at reduced run count.
    pub fn quick_5mb() -> Self {
        PlayabilityParams {
            file_size: 5 * 1024 * 1024,
            piece_length: 256 * 1024,
            client_access: Access::Wireless {
                capacity: 200_000.0,
            },
            runs: 4,
            grid: 20,
            timeout: SimDuration::from_mins(10),
        }
    }

    /// The paper's 5 MB panel.
    pub fn paper_5mb() -> Self {
        PlayabilityParams {
            runs: 10,
            ..Self::quick_5mb()
        }
    }

    /// The paper's 100 MB panel (quick variant scales the file down but
    /// keeps the piece count high enough for the effect).
    pub fn quick_large() -> Self {
        PlayabilityParams {
            file_size: 25 * 1024 * 1024,
            piece_length: 256 * 1024,
            client_access: Access::Wireless {
                capacity: 400_000.0,
            },
            runs: 2,
            grid: 20,
            timeout: SimDuration::from_mins(20),
        }
    }

    /// The paper's 100 MB panel.
    pub fn paper_large() -> Self {
        PlayabilityParams {
            file_size: 100 * 1024 * 1024,
            runs: 10,
            timeout: SimDuration::from_mins(60),
            ..Self::quick_large()
        }
    }
}

/// A playability curve: `playable[i]` is the playable fraction when
/// `downloaded ≈ (i+1)/grid`.
#[derive(Clone, Debug)]
pub struct PlayabilityCurve {
    /// Downloaded-fraction grid points (bin upper edges).
    pub downloaded: Vec<f64>,
    /// Mean playable fraction at each grid point.
    pub playable: Vec<f64>,
}

impl PlayabilityCurve {
    /// Playable fraction at the grid point closest to `downloaded`.
    pub fn playable_at(&self, downloaded: f64) -> f64 {
        let idx = self
            .downloaded
            .iter()
            .position(|&d| d >= downloaded)
            .unwrap_or(self.downloaded.len() - 1);
        self.playable[idx]
    }
}

/// Measures one playability curve: the first run's world is wired into
/// `metrics`, and the measured client's playable fraction is recorded as
/// the `playability.playable` series.
pub fn run_playability_with(
    params: &PlayabilityParams,
    fetching: Option<PrSchedule>,
    metrics: &MetricsHandle,
    base_seed: u64,
) -> PlayabilityCurve {
    let grid = params.grid;
    // One sweep point, `runs` cells: each run simulates independently in
    // parallel and returns its forward-filled per-bin curve; the curves
    // are then averaged in cell order.
    let per_run_curves = SweepRunner::new("playability", base_seed)
        .with_metrics(metrics)
        .run(&[()], params.runs as usize, |_, cell| {
            let handle = if cell.run == 0 {
                metrics.clone()
            } else {
                MetricsHandle::disabled()
            };
            let seed = cell.run_seed;
            let mut w = FlowWorld::new(FlowConfig::default(), seed);
            w.set_metrics(&handle);
            let torrent =
                synthetic_torrent("media.mpg", params.piece_length, params.file_size, seed);
            populate_swarm(&mut w, torrent, &SwarmSetup::small());
            let node = w.add_node(params.client_access);
            let task = w.add_task(TaskSpec {
                node,
                torrent,
                start_complete: false,
                start_fraction: None,
                start_at: SimTime::ZERO,
                make_config: Box::new(ClientConfig::default),
                wp2p: WP2pConfig {
                    mobility_fetching: fetching,
                    ..WP2pConfig::default_client()
                },
            });
            w.start();
            // Sample (downloaded, playable) after every tick; record the
            // latest sample within each bin, so bin i reports the
            // playability when the download stood at ≈ its upper edge.
            let mut per_run: Vec<Option<f64>> = vec![None; grid];
            let piece_length = params.piece_length;
            let file_size = params.file_size;
            let deadline = SimTime::ZERO + params.timeout;
            let s_play = handle.series("playability.playable");
            w.run_until(deadline, |w| {
                let f = w.progress_fraction(task);
                if f <= 0.0 {
                    return;
                }
                let p = w.with_progress(task, |pr| {
                    playable_fraction(pr.have(), piece_length, file_size)
                });
                s_play.record(w.now(), p);
                let bin = ((f * grid as f64).ceil() as usize).clamp(1, grid) - 1;
                per_run[bin] = Some(p);
            });
            cell.add_virtual_secs(w.now().as_secs_f64());
            // Forward-fill bins that were jumped over (e.g. several
            // pieces in one tick) with the previous observation.
            let mut last = 0.0;
            per_run
                .into_iter()
                .map(|slot| {
                    last = slot.unwrap_or(last);
                    last
                })
                .collect::<Vec<f64>>()
        });
    let mut sums = vec![0.0f64; grid];
    let mut counts = vec![0u64; grid];
    for curve in per_run_curves.into_iter().flatten() {
        for (i, v) in curve.into_iter().enumerate() {
            sums[i] += v;
            counts[i] += 1;
        }
    }
    PlayabilityCurve {
        downloaded: (1..=grid).map(|i| i as f64 / grid as f64).collect(),
        playable: sums
            .iter()
            .zip(&counts)
            .map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect(),
    }
}

/// Renders one or two playability curves as a table.
pub fn playability_table(
    title: &str,
    default_curve: &PlayabilityCurve,
    wp2p_curve: Option<&PlayabilityCurve>,
) -> Table {
    let mut t = Table::new(title);
    if wp2p_curve.is_some() {
        t.headers(["downloaded %", "default (rarest) %", "wP2P (MF) %"]);
    } else {
        t.headers(["downloaded %", "playable %"]);
    }
    for (i, &d) in default_curve.downloaded.iter().enumerate() {
        let mut row = vec![
            format!("{:.0}", d * 100.0),
            format!("{:.1}", default_curve.playable[i] * 100.0),
        ];
        if let Some(w) = wp2p_curve {
            row.push(format!("{:.1}", w.playable[i] * 100.0));
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PlayabilityParams {
        PlayabilityParams {
            file_size: 4 * 1024 * 1024,
            piece_length: 128 * 1024,
            client_access: Access::Wireless {
                capacity: 300_000.0,
            },
            runs: 2,
            grid: 10,
            timeout: SimDuration::from_mins(8),
        }
    }

    fn run_plain(
        params: &PlayabilityParams,
        fetching: Option<PrSchedule>,
        seed: u64,
    ) -> PlayabilityCurve {
        run_playability_with(params, fetching, &MetricsHandle::disabled(), seed)
    }

    #[test]
    fn rarest_first_leaves_prefix_unplayable() {
        let curve = run_plain(&tiny(), None, 0xBEEF);
        // At half the download, the playable prefix is a small fraction.
        let mid = curve.playable_at(0.5);
        assert!(
            mid < 0.35,
            "rarest-first should scatter pieces: playable at 50% = {mid}"
        );
        // Complete download is fully playable.
        let end = curve.playable[curve.playable.len() - 1];
        assert!(end > 0.95, "full download must be playable, got {end}");
    }

    #[test]
    fn mobility_aware_fetching_keeps_prefix_playable() {
        let params = tiny();
        let default_curve = run_plain(&params, None, 0xAB);
        let mf_curve = run_plain(&params, Some(PrSchedule::DownloadedFraction), 0xAB);
        let d_mid = default_curve.playable_at(0.5);
        let m_mid = mf_curve.playable_at(0.5);
        assert!(
            m_mid > d_mid,
            "MF should beat rarest-first at 50%: mf={m_mid} default={d_mid}"
        );
        // And substantially so, per the paper (~30% vs ~5%).
        assert!(m_mid > 0.2, "MF playable at 50% too low: {m_mid}");
    }

    #[test]
    fn curves_are_monotone_nondecreasing() {
        let curve = run_plain(&tiny(), Some(PrSchedule::DownloadedFraction), 7);
        for w in curve.playable.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "playability must not decrease with more data: {:?}",
                curve.playable
            );
        }
    }

    #[test]
    fn table_renders_both_arms() {
        let params = PlayabilityParams { runs: 1, ..tiny() };
        let a = run_plain(&params, None, 1);
        let b = run_plain(&params, Some(PrSchedule::DownloadedFraction), 1);
        let t = playability_table("demo", &a, Some(&b));
        assert_eq!(t.len(), params.grid);
    }
}
