//! Rate measurement and limiting.
//!
//! [`RateEstimator`] measures per-peer transfer rates (the choker's
//! tit-for-tat input and LIHD's feedback signal); [`TokenBucket`] enforces
//! the client's configurable upload/download caps — the knob both the
//! paper's Fig. 3 sweeps and wP2P's LIHD controller turn.

use metrics::stats::RateMeter;
use simnet::time::{SimDuration, SimTime};

/// A windowed byte-rate estimator (20 s window, matching the granularity
/// BitTorrent clients use for choking decisions).
#[derive(Debug, Clone)]
pub struct RateEstimator {
    meter: RateMeter,
}

impl Default for RateEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl RateEstimator {
    /// Creates an estimator with the standard 20 s window.
    pub fn new() -> Self {
        Self::with_window(SimDuration::from_secs(20))
    }

    /// Creates an estimator with a custom window.
    pub fn with_window(window: SimDuration) -> Self {
        RateEstimator {
            meter: RateMeter::new(window),
        }
    }

    /// Records `bytes` transferred at `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        self.meter.record(now, bytes);
    }

    /// Average rate over the window, bytes/second.
    pub fn rate(&mut self, now: SimTime) -> f64 {
        self.meter.rate_bps(now)
    }

    /// Total bytes ever recorded.
    pub fn total(&self) -> u64 {
        self.meter.total_bytes()
    }
}

/// A token bucket limiting a byte stream to `rate` bytes/second with a
/// configurable burst. An unlimited bucket (rate `None`) always admits.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Bytes per second, or `None` for unlimited.
    rate: Option<f64>,
    burst: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// Creates a bucket; `burst` is the instantaneous allowance in bytes.
    ///
    /// # Panics
    ///
    /// Panics when a finite rate is non-positive or burst is non-positive.
    pub fn new(rate: Option<f64>, burst: f64) -> Self {
        if let Some(r) = rate {
            assert!(r > 0.0, "rate must be positive (use None for unlimited)");
        }
        assert!(burst > 0.0, "burst must be positive");
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: SimTime::ZERO,
        }
    }

    /// An unlimited bucket.
    pub fn unlimited() -> Self {
        TokenBucket::new(None, 1.0)
    }

    /// The configured rate, bytes/second.
    pub fn rate(&self) -> Option<f64> {
        self.rate
    }

    /// Re-targets the bucket (LIHD adjusts this every control window).
    /// Accumulated debt/credit is preserved proportionally.
    pub fn set_rate(&mut self, rate: Option<f64>) {
        if let Some(r) = rate {
            assert!(r > 0.0, "rate must be positive (use None for unlimited)");
        }
        self.rate = rate;
    }

    fn refill(&mut self, now: SimTime) {
        let Some(rate) = self.rate else {
            return;
        };
        if now > self.last {
            let dt = (now - self.last).as_secs_f64();
            self.tokens = (self.tokens + rate * dt).min(self.burst);
        }
        self.last = self.last.max(now);
    }

    /// Tokens needed before `bytes` may be admitted: the full byte count,
    /// or a full bucket for payloads larger than the burst (which then go
    /// into debt — so a single block bigger than one second of rate is
    /// still eventually serviceable, just amortised).
    fn need(&self, bytes: u64) -> f64 {
        (bytes as f64).min(self.burst)
    }

    /// Attempts to consume `bytes` at `now`; returns whether admitted.
    /// Oversized payloads (larger than the burst) are admitted from a full
    /// bucket and drive the balance negative, delaying later admissions.
    pub fn try_consume(&mut self, now: SimTime, bytes: u64) -> bool {
        if self.rate.is_none() {
            return true;
        }
        self.refill(now);
        if self.tokens >= self.need(bytes) {
            self.tokens -= bytes as f64;
            true
        } else {
            false
        }
    }

    /// Earliest time at which `bytes` could be admitted (now, if already
    /// possible). Used to schedule deferred sends.
    pub fn next_admission(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let Some(rate) = self.rate else {
            return now;
        };
        self.refill(now);
        let need = self.need(bytes);
        if self.tokens >= need {
            return now;
        }
        let deficit = need - self.tokens;
        now + SimDuration::from_secs_f64(deficit / rate)
    }
}

use simnet::snapshot::snap_struct;

snap_struct!(RateEstimator {
    meter,
});

snap_struct!(TokenBucket {
    rate,
    burst,
    tokens,
    last,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_admits() {
        let mut tb = TokenBucket::unlimited();
        assert!(tb.try_consume(SimTime::ZERO, u64::MAX / 2));
        assert_eq!(tb.next_admission(SimTime::ZERO, 1 << 40), SimTime::ZERO);
    }

    #[test]
    fn enforces_long_run_rate() {
        let mut tb = TokenBucket::new(Some(1000.0), 1000.0);
        let mut admitted = 0u64;
        // Try to push 100 B every 10 ms for 10 s = nominal 10 kB/s demand.
        for step in 0..1000u64 {
            let t = SimTime::from_millis(step * 10);
            if tb.try_consume(t, 100) {
                admitted += 100;
            }
        }
        // 1000 B/s for 10 s plus the initial burst.
        assert!((10_000..=11_200).contains(&admitted), "admitted={admitted}");
    }

    #[test]
    fn burst_caps_idle_accumulation() {
        let mut tb = TokenBucket::new(Some(100.0), 500.0);
        // After a long idle period, only `burst` is available.
        let t = SimTime::from_secs(1000);
        assert!(tb.try_consume(t, 500));
        assert!(!tb.try_consume(t, 1));
    }

    #[test]
    fn next_admission_predicts_correctly() {
        let mut tb = TokenBucket::new(Some(100.0), 100.0);
        let t0 = SimTime::ZERO;
        assert!(tb.try_consume(t0, 100)); // bucket drained
        let at = tb.next_admission(t0, 50);
        assert_eq!(at, t0 + SimDuration::from_millis(500));
        // At the predicted time, the consume succeeds.
        assert!(tb.try_consume(at, 50));
    }

    #[test]
    fn set_rate_changes_behaviour() {
        let mut tb = TokenBucket::new(Some(10.0), 10.0);
        let t0 = SimTime::ZERO;
        assert!(tb.try_consume(t0, 10));
        assert!(!tb.try_consume(t0, 10));
        tb.set_rate(None);
        assert!(tb.try_consume(t0, 1_000_000));
    }

    #[test]
    fn estimator_windows() {
        let mut est = RateEstimator::with_window(SimDuration::from_secs(10));
        est.record(SimTime::from_secs(0), 500);
        est.record(SimTime::from_secs(5), 500);
        assert_eq!(est.rate(SimTime::from_secs(5)), 100.0);
        assert_eq!(est.total(), 1000);
    }
}
