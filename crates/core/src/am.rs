//! Age-based Manipulation (AM) — paper §4.1, pseudo-code Fig. 5.
//!
//! A packet-level filter on the **mobile host only**, interposed between
//! its TCP endpoints and the wireless link (the paper realized it with
//! Netfilter). Two manipulations, keyed by the *age* of the connection —
//! the remote sender's congestion window, estimated at the receiver as the
//! bytes that arrived in the last RTT:
//!
//! * **YOUNG** (estimated cwnd < γ ≈ 6 segments ≈ 9 KB): ACK information
//!   piggybacked on outgoing data is *decoupled* — a short pure ACK is
//!   emitted ahead of the data segment. Pure ACKs are ~40 B instead of
//!   ~1500 B, so at a given BER they survive far more often, protecting
//!   exactly the small-window connections that throughput-wise cannot
//!   afford ACK losses.
//! * **MATURE**: during loss recovery the receiver's pure DUPACKs *add*
//!   packets to the wireless leg (they no longer ride on data). AM drops
//!   one of every four DUPACKs so that after fast retransmit the number of
//!   packets in transit actually halves, as congestion control intends.

use metrics::handle::MetricsHandle;
use metrics::registry::Counter;
use sim_tcp::segment::Segment;
use sim_tcp::seq::SeqNum;
use simnet::time::{SimDuration, SimTime};

/// AM tunables.
#[derive(Clone, Copy, Debug)]
pub struct AmConfig {
    /// Age threshold γ in bytes; below it the connection is YOUNG. The
    /// paper uses 9 KB ≈ 6 full segments (citing \[10\]).
    pub gamma_bytes: u32,
    /// Drop every `dupack_drop_modulo`-th DUPACK when MATURE (paper: 4).
    pub dupack_drop_modulo: u64,
    /// RTT estimate used to window the remote-cwnd measurement before a
    /// live sample is available.
    pub rtt_hint: SimDuration,
}

impl Default for AmConfig {
    fn default() -> Self {
        AmConfig {
            gamma_bytes: 9 * 1024,
            dupack_drop_modulo: 4,
            rtt_hint: SimDuration::from_millis(100),
        }
    }
}

/// Connection age as seen by AM.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Age {
    /// Remote congestion window below γ: protect ACKs.
    Young,
    /// Remote congestion window at or above γ: thin DUPACKs.
    Mature,
}

/// What the filter did with one outgoing segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AmOutput {
    /// Forward the segment unchanged.
    Pass(Segment),
    /// Emit a decoupled pure ACK ahead of the (unchanged) data segment.
    Decoupled {
        /// The extra pure ACK (40 B on the wire).
        pure_ack: Segment,
        /// The original data segment.
        data: Segment,
    },
    /// Drop the segment (a sacrificed DUPACK).
    Drop,
}

/// AM counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AmStats {
    /// Piggybacked ACKs that were decoupled.
    pub decoupled: u64,
    /// DUPACKs dropped while MATURE.
    pub dupacks_dropped: u64,
    /// DUPACKs observed in total.
    pub dupacks_seen: u64,
}

/// The per-connection AM filter. Feed incoming segments (from the remote
/// peer) to [`AgeFilter::on_incoming`] so the age estimate tracks the
/// remote congestion window, and pass every outgoing segment through
/// [`AgeFilter::on_outgoing`].
///
/// ```
/// use sim_tcp::segment::{SegFlags, Segment};
/// use sim_tcp::seq::SeqNum;
/// use simnet::time::SimTime;
/// use wp2p::am::{AgeFilter, AmConfig, AmOutput};
///
/// let mut filter = AgeFilter::new(AmConfig::default());
/// // A young connection: a data segment with fresh ACK info is decoupled.
/// let seg = Segment {
///     seq: SeqNum(0),
///     ack: SeqNum(5000),
///     flags: SegFlags { ack: true, ..Default::default() },
///     payload: 1460,
///     window: 65535,
/// };
/// match filter.on_outgoing(seg, SimTime::ZERO) {
///     AmOutput::Decoupled { pure_ack, .. } => assert_eq!(pure_ack.wire_bytes(), 40),
///     other => panic!("expected decoupling, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct AgeFilter {
    config: AmConfig,
    /// Measurement window for the remote cwnd estimate.
    window_started: SimTime,
    bytes_this_window: u32,
    /// Estimate from the previous window (paper: "uses the current value
    /// as an estimate … for the next rtt").
    cwnd_estimate: u32,
    /// Cumulative-ACK value of the last outgoing ACK, to spot duplicates.
    last_ack: Option<SeqNum>,
    dupack_run: u64,
    stats: AmStats,
    m_decoupled: Counter,
    m_dupacks_dropped: Counter,
}

impl AgeFilter {
    /// Creates a filter for one connection.
    pub fn new(config: AmConfig) -> Self {
        AgeFilter {
            config,
            window_started: SimTime::ZERO,
            bytes_this_window: 0,
            cwnd_estimate: 0,
            last_ack: None,
            dupack_run: 0,
            stats: AmStats::default(),
            m_decoupled: Counter::default(),
            m_dupacks_dropped: Counter::default(),
        }
    }

    /// Wires this filter's manipulation counters into `handle` under
    /// `am.<label>.decoupled` and `am.<label>.dupacks_dropped`. Inert
    /// when the handle is disabled.
    pub fn attach_metrics(&mut self, handle: &MetricsHandle, label: &str) {
        self.m_decoupled = handle.counter(&format!("am.{label}.decoupled"));
        self.m_dupacks_dropped = handle.counter(&format!("am.{label}.dupacks_dropped"));
    }

    /// The filter's counters.
    pub fn stats(&self) -> AmStats {
        self.stats
    }

    /// Current age classification (Fig. 5 lines 1–6).
    pub fn age(&self) -> Age {
        if self.cwnd_estimate < self.config.gamma_bytes {
            Age::Young
        } else {
            Age::Mature
        }
    }

    /// The current remote-cwnd estimate in bytes.
    pub fn cwnd_estimate(&self) -> u32 {
        self.cwnd_estimate
    }

    /// Updates the measurement window to the live RTT estimate (the paper's
    /// Netfilter module counts bytes "in every rtt"; the embedder feeds the
    /// connection's smoothed RTT here as it evolves).
    pub fn set_window(&mut self, rtt: SimDuration) {
        if !rtt.is_zero() {
            self.config.rtt_hint = rtt;
        }
    }

    /// Observes a segment arriving from the remote peer; accumulates the
    /// per-RTT byte count that estimates the remote congestion window.
    pub fn on_incoming(&mut self, seg: &Segment, now: SimTime) {
        let window = self.config.rtt_hint;
        if now.saturating_since(self.window_started) >= window {
            self.cwnd_estimate = self.bytes_this_window;
            self.bytes_this_window = 0;
            self.window_started = now;
        }
        self.bytes_this_window = self.bytes_this_window.saturating_add(seg.payload);
    }

    /// Filters one outgoing segment (Fig. 5 lines 7–13).
    pub fn on_outgoing(&mut self, seg: Segment, _now: SimTime) -> AmOutput {
        let age = self.age();

        // DUPACK detection: a pure ACK repeating the previous ACK value.
        if seg.is_pure_ack() && self.last_ack == Some(seg.ack) {
            self.dupack_run += 1;
            self.stats.dupacks_seen += 1;
            if age == Age::Mature
                && self
                    .dupack_run
                    .is_multiple_of(self.config.dupack_drop_modulo)
            {
                self.stats.dupacks_dropped += 1;
                self.m_dupacks_dropped.inc();
                return AmOutput::Drop;
            }
            return AmOutput::Pass(seg);
        }
        let new_ack_value = seg.flags.ack && self.last_ack != Some(seg.ack);
        if seg.flags.ack {
            if new_ack_value {
                self.dupack_run = 0;
            }
            self.last_ack = Some(seg.ack);
        }

        // Decouple piggybacked ACKs while YOUNG — but only when the data
        // segment carries *new* ACK information (Fig. 5 line 9 "conveys
        // any new ACK information … as separate pure ACKs"). Re-emitting
        // an unchanged cumulative ACK as a pure segment would look like a
        // duplicate ACK to the remote sender and trigger spurious fast
        // retransmits.
        if seg.is_piggybacked() && age == Age::Young && new_ack_value {
            self.stats.decoupled += 1;
            self.m_decoupled.inc();
            let pure_ack = Segment {
                seq: seg.seq,
                ack: seg.ack,
                flags: sim_tcp::segment::SegFlags {
                    ack: true,
                    ..Default::default()
                },
                payload: 0,
                window: seg.window,
            };
            return AmOutput::Decoupled {
                pure_ack,
                data: seg,
            };
        }
        AmOutput::Pass(seg)
    }
}

use simnet::snapshot::snap_struct;

// `rtt_hint` is live state: `set_window` overwrites it with the
// measured RTT, so the whole config rides in the blob.
snap_struct!(AmConfig {
    gamma_bytes,
    dupack_drop_modulo,
    rtt_hint,
});

snap_struct!(AmStats {
    decoupled,
    dupacks_dropped,
    dupacks_seen,
});

// Counters are re-wired by the embedder via `attach_metrics`.
snap_struct!(AgeFilter {
    config,
    window_started,
    bytes_this_window,
    cwnd_estimate,
    last_ack,
    dupack_run,
    stats;
    m_decoupled,
    m_dupacks_dropped,
});

#[cfg(test)]
mod tests {
    use super::*;
    use sim_tcp::segment::SegFlags;

    fn data_seg(seq: u32, ack: u32, payload: u32) -> Segment {
        Segment {
            seq: SeqNum(seq),
            ack: SeqNum(ack),
            flags: SegFlags {
                ack: true,
                ..Default::default()
            },
            payload,
            window: 65535,
        }
    }

    fn pure_ack(ack: u32) -> Segment {
        data_seg(0, ack, 0)
    }

    fn mature_filter() -> AgeFilter {
        let mut f = AgeFilter::new(AmConfig::default());
        // Feed two RTT windows of heavy incoming data.
        let rtt = AmConfig::default().rtt_hint;
        for w in 0..2u64 {
            let base = SimTime::ZERO + rtt.saturating_mul(w);
            for i in 0..20 {
                f.on_incoming(
                    &data_seg(i * 1460, 0, 1460),
                    base + SimDuration::from_millis(i as u64),
                );
            }
        }
        assert_eq!(f.age(), Age::Mature);
        f
    }

    #[test]
    fn starts_young() {
        let f = AgeFilter::new(AmConfig::default());
        assert_eq!(f.age(), Age::Young);
        assert_eq!(f.cwnd_estimate(), 0);
    }

    #[test]
    fn incoming_volume_matures_the_connection() {
        let f = mature_filter();
        assert!(f.cwnd_estimate() >= 9 * 1024);
    }

    #[test]
    fn young_decouples_piggybacked_acks() {
        let mut f = AgeFilter::new(AmConfig::default());
        let out = f.on_outgoing(data_seg(100, 500, 1460), SimTime::ZERO);
        match out {
            AmOutput::Decoupled { pure_ack, data } => {
                assert!(pure_ack.is_pure_ack());
                assert_eq!(pure_ack.ack, SeqNum(500));
                assert_eq!(pure_ack.wire_bytes(), 40);
                assert_eq!(data.payload, 1460);
            }
            other => panic!("expected decoupling, got {other:?}"),
        }
        assert_eq!(f.stats().decoupled, 1);
    }

    #[test]
    fn mature_passes_piggybacked_acks() {
        let mut f = mature_filter();
        let seg = data_seg(100, 500, 1460);
        assert_eq!(f.on_outgoing(seg, SimTime::ZERO), AmOutput::Pass(seg));
        assert_eq!(f.stats().decoupled, 0);
    }

    #[test]
    fn young_passes_pure_acks_untouched() {
        let mut f = AgeFilter::new(AmConfig::default());
        let seg = pure_ack(500);
        assert_eq!(f.on_outgoing(seg, SimTime::ZERO), AmOutput::Pass(seg));
    }

    #[test]
    fn mature_drops_every_fourth_dupack() {
        let mut f = mature_filter();
        // First a fresh ACK to set the baseline.
        f.on_outgoing(pure_ack(500), SimTime::ZERO);
        let mut dropped = 0;
        let mut passed = 0;
        for _ in 0..12 {
            match f.on_outgoing(pure_ack(500), SimTime::ZERO) {
                AmOutput::Drop => dropped += 1,
                AmOutput::Pass(_) => passed += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(dropped, 3, "every 4th of 12 dupacks dropped");
        assert_eq!(passed, 9);
        assert_eq!(f.stats().dupacks_dropped, 3);
        assert_eq!(f.stats().dupacks_seen, 12);
    }

    #[test]
    fn young_never_drops_dupacks() {
        let mut f = AgeFilter::new(AmConfig::default());
        f.on_outgoing(pure_ack(500), SimTime::ZERO);
        for _ in 0..12 {
            assert!(matches!(
                f.on_outgoing(pure_ack(500), SimTime::ZERO),
                AmOutput::Pass(_)
            ));
        }
        assert_eq!(f.stats().dupacks_dropped, 0);
    }

    #[test]
    fn new_ack_value_resets_dupack_run() {
        let mut f = mature_filter();
        f.on_outgoing(pure_ack(500), SimTime::ZERO);
        for _ in 0..3 {
            f.on_outgoing(pure_ack(500), SimTime::ZERO);
        }
        // ACK advances: run resets.
        f.on_outgoing(pure_ack(600), SimTime::ZERO);
        let mut dropped = 0;
        for _ in 0..3 {
            if matches!(f.on_outgoing(pure_ack(600), SimTime::ZERO), AmOutput::Drop) {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 0, "fewer than 4 dupacks since reset");
    }

    #[test]
    fn idle_incoming_window_reverts_to_young() {
        let mut f = mature_filter();
        // A long quiet period: next window sees zero bytes.
        let later = SimTime::from_secs(100);
        f.on_incoming(&pure_ack(0), later);
        // One more window boundary flushes the (empty) count into the
        // estimate.
        let later2 = later + AmConfig::default().rtt_hint;
        f.on_incoming(&pure_ack(0), later2);
        assert_eq!(f.age(), Age::Young);
    }
}
