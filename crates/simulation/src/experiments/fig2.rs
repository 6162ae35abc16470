//! **Figure 2 — Impact of bi-directional TCP** (paper §3.2).
//!
//! * Panel (a): download throughput vs. BER for bi-directional vs.
//!   uni-directional TCP over one wireless leg. Piggybacked ACKs are long,
//!   so at a given BER the bi-directional connection loses more ACKs and
//!   downloads slower — over and above the self-contention difference
//!   captured at BER = 0.
//! * Panels (b, c): packets sent from the client on the wireless leg over
//!   time, with buffer-drop events marked. After a congestion drop the
//!   uni-directional connection's packet count falls (congestion control
//!   working); the bi-directional one stays roughly flat because its
//!   DUPACKs are sent as extra pure packets.

use crate::harness::SweepRunner;
use crate::packet::{PacketConfig, PacketWorld};
use crate::report::{kbps, Table};
use metrics::handle::MetricsHandle;
use metrics::stats::RunSummary;
use simnet::time::{SimDuration, SimTime};
use simnet::wireless::{Direction, WirelessConfig};

/// Base seed of the Fig. 2(a) sweep (pinned by shape-regression tests).
pub const FIG2A_SEED: u64 = 0xF2A;
/// Seed of the Fig. 2(b,c) paired traces.
pub const FIG2BC_SEED: u64 = 0x2BC;

/// Fig. 2(a)'s wireless channel capacity in bytes/second.
const CHANNEL_BYTES_PER_SEC: u64 = 50_000;

/// Fig. 2(b, c)'s observation window: the paper's 5 seconds, at both
/// presets.
const BC_DURATION: SimDuration = SimDuration::from_secs(5);
/// Fig. 2(b, c)'s sampling bucket.
const BC_BUCKET: SimDuration = SimDuration::from_millis(250);
/// Fig. 2(b, c)'s channel capacity (bytes/second) — small, to force
/// congestion.
const BC_CHANNEL_BYTES_PER_SEC: u64 = 120_000;
/// Fig. 2(b, c)'s queue size in frames — small, to force drops.
const BC_QUEUE_FRAMES: usize = 12;

/// Parameters for Fig. 2(a).
#[derive(Clone, Debug)]
pub struct Fig2aParams {
    /// Bit-error rates to sweep (paper: 0 … 2e-5).
    pub bers: Vec<f64>,
    /// Independent runs per point (paper: 5).
    pub runs: u64,
    /// Measurement duration per run.
    pub duration: SimDuration,
    /// Enable RFC 1122 delayed ACKs on both endpoints (ablation knob; the
    /// paper-era default is on in Linux, off here for clarity).
    pub delayed_ack: bool,
}

impl Fig2aParams {
    /// CI-sized preset.
    pub fn quick() -> Self {
        Fig2aParams {
            bers: vec![0.0, 1.0e-5, 2.0e-5],
            runs: 2,
            duration: SimDuration::from_secs(30),
            delayed_ack: false,
        }
    }

    /// Paper-scale preset.
    pub fn paper() -> Self {
        Fig2aParams {
            bers: vec![0.0, 0.5e-5, 1.0e-5, 1.5e-5, 2.0e-5],
            runs: 5,
            duration: SimDuration::from_secs(120),
            delayed_ack: false,
        }
    }
}

/// One row of Fig. 2(a): throughput per arm at one BER.
#[derive(Clone, Copy, Debug)]
pub struct Fig2aPoint {
    /// The bit-error rate.
    pub ber: f64,
    /// Bi-directional TCP download throughput (bytes/s).
    pub bi: RunSummary,
    /// Uni-directional TCP download throughput (bytes/s).
    pub uni: RunSummary,
}

fn channel(bytes_per_sec: u64, ber: f64, queue: usize) -> WirelessConfig {
    WirelessConfig {
        bandwidth_bps: bytes_per_sec * 8,
        prop_delay: SimDuration::from_millis(2),
        queue_frames: queue,
        ber,
        per_frame_overhead: SimDuration::from_micros(200),
    }
}

/// Runs one transfer and returns the mobile host's download throughput in
/// bytes/second.
fn run_once(
    ber: f64,
    bidirectional: bool,
    duration: SimDuration,
    delayed_ack: bool,
    metrics: &MetricsHandle,
    seed: u64,
) -> f64 {
    // Modest receive windows, as on the paper's testbed: the narrow
    // wireless leg has a tiny BDP, and era-appropriate sockets did not
    // open 128 KB windows into it (which would only bloat the shared
    // queue and measure bufferbloat instead of ACK-loss effects).
    let mut cfg = PacketConfig::default();
    cfg.tcp.recv_window = 32 * 1024;
    cfg.tcp.delayed_ack = delayed_ack;
    let mut w = PacketWorld::new(cfg, seed);
    w.set_metrics(metrics);
    let mobile = w.add_node(Some(channel(CHANNEL_BYTES_PER_SEC, ber, 100)));
    let fixed = w.add_node(None);
    let conn = w.open_tcp(mobile, fixed);
    // Enough backlog that the sender never runs dry.
    let backlog = CHANNEL_BYTES_PER_SEC * duration.as_secs_f64() as u64 * 4;
    w.tcp_write(conn, false, backlog); // download direction
    if bidirectional {
        w.tcp_write(conn, true, backlog); // simultaneous upload
    }
    if metrics.is_enabled() {
        // Sample the mobile host's download throughput once per sim
        // second so the dump carries the series the figure plots.
        let thr = metrics.series("fig2a.throughput_Bps");
        let mut next = SimTime::from_secs(1);
        let mut last = 0u64;
        w.run_until(SimTime::ZERO + duration, |w| {
            while w.now() >= next {
                let delivered = w.tcp_delivered(conn, true);
                thr.record(next, (delivered - last) as f64);
                last = delivered;
                next += SimDuration::from_secs(1);
            }
        });
    } else {
        w.run_until(SimTime::ZERO + duration, |_| {});
    }
    w.tcp_delivered(conn, true) as f64 / duration.as_secs_f64()
}

/// Runs the Fig. 2(a) sweep. Cells (one per BER × run) execute in
/// parallel on the sweep harness; both arms share a cell (and therefore a
/// seed) so the bi/uni comparison uses common random numbers.
///
/// One probe cell — the first BER, run 0, bi-directional arm — is wired
/// into `metrics` (TCP cwnd/ssthresh/RTT series per endpoint, plus the
/// per-second throughput series). A single writer per series keeps the
/// dump deterministic under any worker count.
pub fn run_fig2a_with(
    params: &Fig2aParams,
    metrics: &MetricsHandle,
    base_seed: u64,
) -> Vec<Fig2aPoint> {
    let cells = SweepRunner::new("fig2a", base_seed)
        .with_metrics(metrics)
        .run(&params.bers, params.runs as usize, |&ber, cell| {
            cell.add_virtual_secs(2.0 * params.duration.as_secs_f64());
            let probe = cell.point == 0 && cell.run == 0;
            let seed = cell.run_seed;
            let one = |bi: bool| {
                let handle = if probe && bi {
                    metrics.clone()
                } else {
                    MetricsHandle::disabled()
                };
                run_once(ber, bi, params.duration, params.delayed_ack, &handle, seed)
            };
            (one(true), one(false))
        });
    params
        .bers
        .iter()
        .zip(cells)
        .map(|(&ber, runs)| {
            let bi: Vec<f64> = runs.iter().map(|&(b, _)| b).collect();
            let uni: Vec<f64> = runs.iter().map(|&(_, u)| u).collect();
            Fig2aPoint {
                ber,
                bi: RunSummary::of(&bi),
                uni: RunSummary::of(&uni),
            }
        })
        .collect()
}

/// Renders Fig. 2(a) as a table.
pub fn fig2a_table(points: &[Fig2aPoint]) -> Table {
    let mut t = Table::new("Figure 2(a): Downloading throughput (KBps) vs BER — bi-TCP vs uni-TCP");
    t.headers(["BER", "Bi-TCP", "Uni-TCP", "bi/uni"]);
    for p in points {
        t.row([
            format!("{:.1e}", p.ber),
            kbps(p.bi.mean),
            kbps(p.uni.mean),
            format!("{:.2}", p.bi.mean / p.uni.mean.max(1.0)),
        ]);
    }
    t.note("paper: uni-TCP above bi-TCP everywhere; both fall with BER");
    t
}

/// Result of one Fig. 2(b)/(c) trace.
#[derive(Clone, Debug)]
pub struct Fig2bcTrace {
    /// `(bucket start seconds, packets sent from the client)` series.
    pub packets: Vec<(f64, u64)>,
    /// Buffer-drop instants (seconds).
    pub drops: Vec<f64>,
}

impl Fig2bcTrace {
    /// Mean client packet count per bucket over the buckets after the
    /// first drop (used to compare uni vs bi behaviour).
    pub fn mean_after_first_drop(&self) -> f64 {
        let Some(&t0) = self.drops.first() else {
            return f64::NAN;
        };
        let after: Vec<f64> = self
            .packets
            .iter()
            .filter(|&&(t, _)| t > t0)
            .map(|&(_, n)| n as f64)
            .collect();
        metrics::stats::mean(&after)
    }

    /// Mean client packet count per bucket before the first drop.
    pub fn mean_before_first_drop(&self) -> f64 {
        let Some(&t0) = self.drops.first() else {
            return f64::NAN;
        };
        let before: Vec<f64> = self
            .packets
            .iter()
            .filter(|&&(t, _)| t <= t0)
            .map(|&(_, n)| n as f64)
            .collect();
        metrics::stats::mean(&before)
    }
}

/// Runs one Fig. 2(b)/(c) trace with the world wired into `metrics`
/// (per-endpoint TCP series, fault counters). Pass a disabled handle for
/// a plain run.
pub fn run_fig2bc_with(bidirectional: bool, metrics: &MetricsHandle, seed: u64) -> Fig2bcTrace {
    let mut w = PacketWorld::new(PacketConfig::default(), seed);
    w.set_metrics(metrics);
    let mobile = w.add_node(Some(channel(
        BC_CHANNEL_BYTES_PER_SEC,
        0.0,
        BC_QUEUE_FRAMES,
    )));
    let fixed = w.add_node(None);
    let conn = w.open_tcp(mobile, fixed);
    let backlog = BC_CHANNEL_BYTES_PER_SEC * 30;
    w.tcp_write(conn, false, backlog);
    if bidirectional {
        w.tcp_write(conn, true, backlog);
    }
    // Sample the channel's Up-direction accepted counter per bucket.
    let bucket_us = BC_BUCKET.as_micros();
    let nbuckets = (BC_DURATION.as_micros() / bucket_us) as usize;
    let mut packets = vec![0u64; nbuckets];
    let mut last_accepted = 0u64;
    let mut next_bucket = 0usize;
    w.run_until(SimTime::ZERO + BC_DURATION, |w| {
        let t = w.now().as_micros();
        let bucket = (t / bucket_us) as usize;
        while next_bucket < bucket.min(nbuckets) {
            let acc = w.channel_stats(mobile, Direction::Up).accepted;
            packets[next_bucket] = acc - last_accepted;
            last_accepted = acc;
            next_bucket += 1;
        }
    });
    // Flush remaining buckets.
    // (Any bucket the run never reached stays at zero.)
    let packets = packets
        .into_iter()
        .enumerate()
        .map(|(i, n)| (i as f64 * BC_BUCKET.as_secs_f64(), n))
        .collect();
    let drops = w
        .channel_drops(mobile)
        .into_iter()
        .map(|t| t.as_secs_f64())
        .collect();
    Fig2bcTrace { packets, drops }
}

/// Runs both Fig. 2(b)/(c) traces, `(uni, bi)`: the uni-directional
/// arm's world is wired into `metrics` (single writer per series, so the dump stays
/// deterministic under any worker count).
pub fn run_fig2bc_pair_with(metrics: &MetricsHandle, seed: u64) -> (Fig2bcTrace, Fig2bcTrace) {
    let dur = BC_DURATION.as_secs_f64();
    let mut traces = SweepRunner::new("fig2bc", seed)
        .with_metrics(metrics)
        .run(&[false, true], 1, |&bidirectional, cell| {
            cell.add_virtual_secs(dur);
            let handle = if bidirectional {
                MetricsHandle::disabled()
            } else {
                metrics.clone()
            };
            run_fig2bc_with(bidirectional, &handle, seed)
        })
        .into_iter()
        .flatten();
    let uni = traces.next().expect("uni trace");
    let bi = traces.next().expect("bi trace");
    (uni, bi)
}

/// Renders a Fig. 2(b)/(c) trace as a table.
pub fn fig2bc_table(uni: &Fig2bcTrace, bi: &Fig2bcTrace) -> Table {
    let mut t =
        Table::new("Figure 2(b,c): Packets sent from client per 250 ms on the wireless leg");
    t.headers(["t (s)", "uni", "bi"]);
    for (i, &(ts, n_uni)) in uni.packets.iter().enumerate() {
        let n_bi = bi.packets.get(i).map(|&(_, n)| n).unwrap_or(0);
        t.row([format!("{ts:.2}"), n_uni.to_string(), n_bi.to_string()]);
    }
    t.note(&format!(
        "uni drops at: {:?}",
        uni.drops
            .iter()
            .take(5)
            .map(|d| (d * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    ));
    t.note(&format!(
        "bi drops at: {:?}",
        bi.drops
            .iter()
            .take(5)
            .map(|d| (d * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    ));
    t.note("paper: after a buffer drop, uni packet count falls; bi stays flat");
    t
}

/// The figure's claim as two lines of text: mean client packets per
/// bucket before and after the first buffer drop, per arm.
pub fn fig2bc_summary(uni: &Fig2bcTrace, bi: &Fig2bcTrace) -> String {
    format!(
        "uni: mean packets/bucket before first drop {:.1}, after {:.1}\n\
         bi:  mean packets/bucket before first drop {:.1}, after {:.1}\n",
        uni.mean_before_first_drop(),
        uni.mean_after_first_drop(),
        bi.mean_before_first_drop(),
        bi.mean_after_first_drop()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_fig2a_plain(params: &Fig2aParams) -> Vec<Fig2aPoint> {
        run_fig2a_with(params, &MetricsHandle::disabled(), FIG2A_SEED)
    }

    fn run_fig2bc_plain(bidirectional: bool, seed: u64) -> Fig2bcTrace {
        run_fig2bc_with(bidirectional, &MetricsHandle::disabled(), seed)
    }

    #[test]
    fn fig2a_uni_beats_bi_and_ber_hurts() {
        let params = Fig2aParams {
            bers: vec![0.0, 2.0e-5],
            runs: 2,
            duration: SimDuration::from_secs(20),
            ..Fig2aParams::quick()
        };
        let pts = run_fig2a_plain(&params);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!(
                p.uni.mean > p.bi.mean,
                "uni should out-download bi at BER {}: uni={} bi={}",
                p.ber,
                p.uni.mean,
                p.bi.mean
            );
        }
        // Higher BER lowers throughput for both arms.
        assert!(pts[1].bi.mean < pts[0].bi.mean);
        assert!(pts[1].uni.mean < pts[0].uni.mean);
    }

    #[test]
    fn fig2bc_congestion_events_occur() {
        let trace = run_fig2bc_plain(false, 7);
        assert!(!trace.drops.is_empty(), "no congestion drops in the trace");
        assert!(trace.packets.iter().any(|&(_, n)| n > 0));
    }

    #[test]
    fn fig2bc_bi_keeps_wireless_leg_busier_after_drop() {
        let uni = run_fig2bc_plain(false, 3);
        let bi = run_fig2bc_plain(true, 3);
        assert!(!uni.drops.is_empty() && !bi.drops.is_empty());
        // The paper's observation, as a ratio: uni reduces its wireless-leg
        // packet count after congestion more than bi does.
        let uni_ratio = uni.mean_after_first_drop() / uni.mean_before_first_drop().max(1e-9);
        let bi_ratio = bi.mean_after_first_drop() / bi.mean_before_first_drop().max(1e-9);
        assert!(
            bi_ratio > uni_ratio * 0.9,
            "bi should stay at least as busy after drops: bi={bi_ratio:.2} uni={uni_ratio:.2}"
        );
    }

    #[test]
    fn tables_render() {
        let params = Fig2aParams {
            bers: vec![0.0],
            runs: 1,
            duration: SimDuration::from_secs(5),
            ..Fig2aParams::quick()
        };
        let pts = run_fig2a_plain(&params);
        let t = fig2a_table(&pts);
        assert_eq!(t.len(), 1);
        let tr = run_fig2bc_plain(false, 1);
        let tb = run_fig2bc_plain(true, 1);
        assert!(!fig2bc_table(&tr, &tb).is_empty());
    }

    #[test]
    fn fig2a_metrics_dump_is_byte_identical_across_runs() {
        // The --metrics-out acceptance pin: two identically-seeded runs
        // must emit byte-identical JSON and CSV dumps, worker count
        // notwithstanding, and carry cwnd/RTT/throughput series.
        let params = Fig2aParams {
            bers: vec![1.0e-5],
            runs: 1,
            duration: SimDuration::from_secs(10),
            ..Fig2aParams::quick()
        };
        let dump = || {
            let h = MetricsHandle::enabled(FIG2A_SEED);
            run_fig2a_with(&params, &h, FIG2A_SEED);
            (h.to_json(), h.series_csv())
        };
        let (json_a, csv_a) = dump();
        let (json_b, csv_b) = dump();
        assert_eq!(json_a, json_b, "metrics JSON dump not deterministic");
        assert_eq!(csv_a, csv_b, "series CSV dump not deterministic");
        for needle in [
            "tcp.conn0.a.cwnd",
            "tcp.conn0.a.srtt_us",
            "fig2a.throughput_Bps",
        ] {
            assert!(json_a.contains(needle), "dump missing series {needle}");
        }
    }
}
