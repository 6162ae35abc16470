//! Round-trip-time estimation and retransmission timeout (RFC 6298).

use simnet::time::SimDuration;

/// RTT estimator maintaining SRTT/RTTVAR and deriving the RTO.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    min_rto: SimDuration,
    max_rto: SimDuration,
    /// Consecutive timeouts, for exponential backoff.
    backoff: u32,
}

impl RttEstimator {
    /// Creates an estimator with the given RTO clamp.
    ///
    /// Before the first sample the RTO is `initial` (RFC 6298 recommends
    /// 1 s; Linux of the paper's era used 3 s initial / 200 ms minimum —
    /// we default to the Linux-like values in [`RttEstimator::linux_like`]).
    pub fn new(initial: SimDuration, min_rto: SimDuration, max_rto: SimDuration) -> Self {
        assert!(min_rto <= max_rto, "min RTO must not exceed max RTO");
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: initial.clamp(min_rto, max_rto),
            min_rto,
            max_rto,
            backoff: 0,
        }
    }

    /// The estimator used by the simulated endpoints: 1 s initial RTO,
    /// 200 ms minimum (Linux), 60 s maximum.
    pub fn linux_like() -> Self {
        RttEstimator::new(
            SimDuration::from_secs(1),
            SimDuration::from_millis(200),
            SimDuration::from_secs(60),
        )
    }

    /// Feeds a new RTT measurement (from a never-retransmitted segment,
    /// per Karn's algorithm — the caller enforces that).
    pub fn sample(&mut self, rtt: SimDuration) {
        const G: u64 = 4; // 1/beta = 4
        const H: u64 = 8; // 1/alpha = 8
        // Clock granule: RFC 6298 §2.3 requires RTTVAR never to round down
        // to zero, else a steady link collapses RTO to SRTT and a single
        // queueing blip fires a spurious retransmit.
        const GRANULE: SimDuration = SimDuration::from_micros(1);
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = (rtt / 2).max(GRANULE);
            }
            Some(srtt) => {
                let err = if rtt >= srtt { rtt - srtt } else { srtt - rtt };
                // RTTVAR <- 3/4 RTTVAR + 1/4 |err|
                self.rttvar = (self.rttvar.saturating_mul(G - 1) / G + err / G).max(GRANULE);
                // SRTT <- 7/8 SRTT + 1/8 RTT
                self.srtt = Some(srtt.saturating_mul(H - 1) / H + rtt / H);
            }
        }
        self.backoff = 0;
        let srtt = self.srtt.expect("just set");
        self.rto = (srtt + self.rttvar.saturating_mul(4)).clamp(self.min_rto, self.max_rto);
    }

    /// Current retransmission timeout, including any backoff.
    pub fn rto(&self) -> SimDuration {
        let factor = 1u64 << self.backoff.min(12);
        self.rto.saturating_mul(factor).min(self.max_rto)
    }

    /// Smoothed RTT, if at least one sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Doubles the effective RTO after a retransmission timeout.
    pub fn on_timeout(&mut self) {
        self.backoff += 1;
    }

    /// Clears backoff after forward progress.
    pub fn on_progress(&mut self) {
        self.backoff = 0;
    }
}

simnet::snap_struct!(RttEstimator {
    srtt,
    rttvar,
    rto,
    min_rto,
    max_rto,
    backoff,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initialises() {
        let mut est = RttEstimator::linux_like();
        est.sample(SimDuration::from_millis(100));
        assert_eq!(est.srtt(), Some(SimDuration::from_millis(100)));
        // RTO = SRTT + 4*RTTVAR = 100 + 4*50 = 300 ms.
        assert_eq!(est.rto(), SimDuration::from_millis(300));
    }

    #[test]
    fn converges_on_steady_rtt() {
        let mut est = RttEstimator::linux_like();
        for _ in 0..100 {
            est.sample(SimDuration::from_millis(50));
        }
        let srtt = est.srtt().unwrap().as_secs_f64();
        assert!((srtt - 0.050).abs() < 0.001, "srtt={srtt}");
        // Variance decays, so RTO approaches the minimum clamp.
        assert_eq!(est.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn rto_respects_minimum() {
        let mut est = RttEstimator::linux_like();
        for _ in 0..50 {
            est.sample(SimDuration::from_millis(1));
        }
        assert_eq!(est.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn backoff_doubles_and_clears() {
        let mut est = RttEstimator::linux_like();
        est.sample(SimDuration::from_millis(100));
        let base = est.rto();
        est.on_timeout();
        assert_eq!(est.rto(), base.saturating_mul(2));
        est.on_timeout();
        assert_eq!(est.rto(), base.saturating_mul(4));
        est.on_progress();
        assert_eq!(est.rto(), base);
    }

    #[test]
    fn backoff_capped_by_max() {
        let mut est = RttEstimator::linux_like();
        est.sample(SimDuration::from_millis(100));
        for _ in 0..20 {
            est.on_timeout();
        }
        assert_eq!(est.rto(), SimDuration::from_secs(60));
    }

    #[test]
    fn initial_rto_without_samples() {
        let est = RttEstimator::linux_like();
        assert_eq!(est.rto(), SimDuration::from_secs(1));
    }

    #[test]
    fn rttvar_never_truncates_to_zero() {
        // Regression: with integer EWMA, a perfectly steady RTT drives
        // rttvar to 0 in a few samples, collapsing RTO to SRTT (visible
        // once min_rto doesn't mask it). RFC 6298 §2.3 mandates a one-
        // granule floor.
        let mut est = RttEstimator::new(
            SimDuration::from_secs(1),
            SimDuration::from_micros(1), // min_rto too small to mask the bug
            SimDuration::from_secs(60),
        );
        for _ in 0..100 {
            est.sample(SimDuration::from_millis(50));
        }
        let srtt = est.srtt().unwrap();
        assert!(
            est.rto() > srtt,
            "rto {:?} must stay above srtt {:?} (rttvar floor)",
            est.rto(),
            srtt
        );
        assert!(est.rto() >= srtt + SimDuration::from_micros(4));

        // A zero-RTT first sample must not zero rttvar either.
        let mut est = RttEstimator::new(
            SimDuration::from_secs(1),
            SimDuration::from_micros(1),
            SimDuration::from_secs(60),
        );
        est.sample(SimDuration::ZERO);
        assert!(est.rto() >= SimDuration::from_micros(4));
    }
}
