//! Reno congestion control: slow start, congestion avoidance, fast
//! retransmit, fast recovery (RFC 5681), with a `recover` high-water mark
//! so one loss event cuts the window only once.

use crate::seq::SeqNum;

/// How a cumulative ACK advanced the sender's state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AckProgress {
    /// Ordinary forward progress outside recovery.
    Normal,
    /// A partial ACK during fast recovery: the segment now at the head of
    /// the window was also lost and should be retransmitted at once
    /// (NewReno).
    PartialAck,
    /// This ACK completed fast recovery.
    FullRecovery,
}

/// What the sender should do in response to a duplicate ACK.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DupAckAction {
    /// Nothing yet (fewer than three duplicates).
    None,
    /// Third duplicate: retransmit the first unacknowledged segment and
    /// enter fast recovery.
    FastRetransmit,
    /// Additional duplicate while recovering: window inflated; the sender
    /// may transmit new data if the window now permits.
    Inflate,
}

/// Reno congestion-control state for one direction of a connection.
#[derive(Debug, Clone)]
pub struct Congestion {
    mss: u32,
    cwnd: u32,
    ssthresh: u32,
    dupacks: u32,
    /// While in fast recovery, the `snd.nxt` at the time loss was detected;
    /// recovery ends when the cumulative ACK passes it.
    recover: Option<SeqNum>,
    /// Fractional cwnd accumulator for congestion avoidance.
    avoid_acc: u64,
    /// Counters for instrumentation.
    fast_retransmits: u64,
    timeouts: u64,
}

impl Congestion {
    /// Creates Reno state with an initial window of `init_segs` segments.
    ///
    /// # Panics
    ///
    /// Panics if `mss` or `init_segs` is zero.
    pub fn new(mss: u32, init_segs: u32) -> Self {
        assert!(mss > 0 && init_segs > 0);
        Congestion {
            mss,
            cwnd: mss * init_segs,
            ssthresh: u32::MAX,
            dupacks: 0,
            recover: None,
            avoid_acc: 0,
            fast_retransmits: 0,
            timeouts: 0,
        }
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    /// Whether the sender is in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Whether fast recovery is in progress.
    pub fn in_recovery(&self) -> bool {
        self.recover.is_some()
    }

    /// Consecutive duplicate ACKs seen.
    pub fn dupacks(&self) -> u32 {
        self.dupacks
    }

    /// Total fast retransmits triggered.
    pub fn fast_retransmits(&self) -> u64 {
        self.fast_retransmits
    }

    /// Total retransmission timeouts taken.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Handles a cumulative ACK advancing `snd.una` by `acked` bytes to
    /// `una_after`.
    pub fn on_new_ack(&mut self, acked: u32, una_after: SeqNum) -> AckProgress {
        self.dupacks = 0;
        if let Some(recover) = self.recover {
            if una_after.after_eq(recover) {
                // Full recovery: deflate to ssthresh.
                self.cwnd = self.ssthresh.max(self.mss);
                self.recover = None;
                return AckProgress::FullRecovery;
            }
            // Partial ACK (NewReno, RFC 6582): the next segment after
            // `una_after` was lost too — the caller retransmits it
            // immediately. Deflate by the amount acked, re-inflate by one
            // MSS, stay in recovery.
            self.cwnd = self.cwnd.saturating_sub(acked).max(self.ssthresh / 2) + self.mss;
            return AckProgress::PartialAck;
        }
        if self.in_slow_start() {
            self.cwnd = self.cwnd.saturating_add(acked.min(self.mss));
        } else {
            // Congestion avoidance: cwnd += MSS per cwnd of data acked,
            // tracked with a byte accumulator to avoid integer starvation.
            self.avoid_acc += acked as u64;
            let step = self.cwnd as u64;
            if self.avoid_acc >= step {
                self.avoid_acc -= step;
                self.cwnd = self.cwnd.saturating_add(self.mss);
            }
        }
        AckProgress::Normal
    }

    /// Handles a duplicate ACK; `flight` is the number of unacknowledged
    /// bytes in the network and `snd_nxt` the current send frontier.
    pub fn on_dup_ack(&mut self, flight: u32, snd_nxt: SeqNum) -> DupAckAction {
        if self.in_recovery() {
            self.cwnd = self.cwnd.saturating_add(self.mss);
            return DupAckAction::Inflate;
        }
        self.dupacks += 1;
        if self.dupacks < 3 {
            return DupAckAction::None;
        }
        // Enter fast recovery: ssthresh = flight/2, cwnd = ssthresh + 3 MSS.
        self.ssthresh = (flight / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh + 3 * self.mss;
        self.recover = Some(snd_nxt);
        self.fast_retransmits += 1;
        DupAckAction::FastRetransmit
    }

    /// Handles a retransmission timeout with `flight` unacknowledged bytes.
    pub fn on_timeout(&mut self, flight: u32) {
        self.ssthresh = (flight / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.dupacks = 0;
        self.recover = None;
        self.avoid_acc = 0;
        self.timeouts += 1;
    }
}

simnet::snap_struct!(Congestion {
    mss,
    cwnd,
    ssthresh,
    dupacks,
    recover,
    avoid_acc,
    fast_retransmits,
    timeouts,
});

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1460;

    #[test]
    fn slow_start_doubles_per_window() {
        let mut cc = Congestion::new(MSS, 2);
        assert!(cc.in_slow_start());
        // Ack one full initial window in MSS chunks: cwnd should double.
        let start = cc.cwnd();
        let mut acked = SeqNum::ZERO;
        for _ in 0..2 {
            acked = acked.add(MSS);
            cc.on_new_ack(MSS, acked);
        }
        assert_eq!(cc.cwnd(), start + 2 * MSS);
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut cc = Congestion::new(MSS, 2);
        cc.on_timeout(10 * MSS); // ssthresh = 5 MSS, cwnd = 1 MSS
                                 // Grow back to ssthresh via slow start.
        let mut una = SeqNum::ZERO;
        while cc.in_slow_start() {
            una = una.add(MSS);
            cc.on_new_ack(MSS, una);
        }
        let at_ca = cc.cwnd();
        // One full window of ACKs in CA adds ~one MSS.
        let acks = at_ca / MSS;
        for _ in 0..acks {
            una = una.add(MSS);
            cc.on_new_ack(MSS, una);
        }
        assert!(
            cc.cwnd() >= at_ca + MSS && cc.cwnd() <= at_ca + 2 * MSS,
            "cwnd grew from {at_ca} to {}",
            cc.cwnd()
        );
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut cc = Congestion::new(MSS, 4);
        let flight = 8 * MSS;
        let nxt = SeqNum(8 * MSS);
        assert_eq!(cc.on_dup_ack(flight, nxt), DupAckAction::None);
        assert_eq!(cc.on_dup_ack(flight, nxt), DupAckAction::None);
        assert_eq!(cc.on_dup_ack(flight, nxt), DupAckAction::FastRetransmit);
        assert!(cc.in_recovery());
        assert_eq!(cc.ssthresh(), 4 * MSS);
        assert_eq!(cc.cwnd(), 4 * MSS + 3 * MSS);
        assert_eq!(cc.fast_retransmits(), 1);
    }

    #[test]
    fn recovery_inflates_then_deflates() {
        let mut cc = Congestion::new(MSS, 4);
        let nxt = SeqNum(8 * MSS);
        for _ in 0..3 {
            cc.on_dup_ack(8 * MSS, nxt);
        }
        let inflated = cc.cwnd();
        assert_eq!(cc.on_dup_ack(8 * MSS, nxt), DupAckAction::Inflate);
        assert_eq!(cc.cwnd(), inflated + MSS);
        // Full ACK past `recover` exits recovery at ssthresh.
        let done = cc.on_new_ack(8 * MSS, SeqNum(8 * MSS));
        assert_eq!(done, AckProgress::FullRecovery);
        assert!(!cc.in_recovery());
        assert_eq!(cc.cwnd(), cc.ssthresh());
    }

    #[test]
    fn no_second_cut_within_recovery() {
        let mut cc = Congestion::new(MSS, 4);
        let nxt = SeqNum(8 * MSS);
        for _ in 0..3 {
            cc.on_dup_ack(8 * MSS, nxt);
        }
        let ssthresh = cc.ssthresh();
        // A later burst of dupacks while recovering must not cut again.
        for _ in 0..5 {
            assert_eq!(cc.on_dup_ack(8 * MSS, nxt), DupAckAction::Inflate);
        }
        assert_eq!(cc.ssthresh(), ssthresh);
        assert_eq!(cc.fast_retransmits(), 1);
    }

    #[test]
    fn timeout_collapses_window() {
        let mut cc = Congestion::new(MSS, 10);
        cc.on_timeout(20 * MSS);
        assert_eq!(cc.cwnd(), MSS);
        assert_eq!(cc.ssthresh(), 10 * MSS);
        assert!(cc.in_slow_start());
        assert_eq!(cc.timeouts(), 1);
    }

    #[test]
    fn ssthresh_floor_is_two_mss() {
        let mut cc = Congestion::new(MSS, 1);
        cc.on_timeout(MSS);
        assert_eq!(cc.ssthresh(), 2 * MSS);
    }
}
