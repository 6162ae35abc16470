//! Mobility processes: scheduled IP-address changes with outage windows.
//!
//! The paper emulates mobility by "changing the IP addresses of the clients
//! using the `ifup/ifdown` commands" (§5.1): at each hand-off the host loses
//! connectivity for a short outage, then comes back with a new address and
//! every established TCP connection dead. [`MobilityProcess`] produces that
//! schedule; the simulation world applies its effects (readdressing via
//! [`crate::addr::AddressBook::reassign`], connection teardown).

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Generator of hand-off instants for one mobile host.
#[derive(Debug, Clone)]
pub struct MobilityProcess {
    /// Mean interval between hand-offs (the paper sweeps 0.5–6 minutes).
    period: SimDuration,
    /// Multiplicative jitter applied to each interval (0 = strictly periodic).
    jitter: f64,
    /// Connectivity outage at each hand-off (interface down + DHCP).
    outage: SimDuration,
    next_at: SimTime,
}

/// One hand-off: the host is unreachable in `[starts, ends)` and owns a new
/// address from `ends` onwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handoff {
    /// When connectivity is lost.
    pub starts: SimTime,
    /// When the host is reachable again (at its new address).
    pub ends: SimTime,
}

impl MobilityProcess {
    /// A strictly periodic process with the given outage.
    pub fn periodic(period: SimDuration, outage: SimDuration) -> Self {
        Self::with_jitter(period, outage, 0.0)
    }

    /// A process whose intervals are jittered by ±`jitter` (fraction of the
    /// period), desynchronizing multiple mobile hosts.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `jitter` is outside `[0, 1)`.
    pub fn with_jitter(period: SimDuration, outage: SimDuration, jitter: f64) -> Self {
        assert!(!period.is_zero(), "mobility period must be positive");
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        MobilityProcess {
            period,
            jitter,
            outage,
            next_at: SimTime::ZERO + period,
        }
    }

    /// A host that never moves (the control arm of experiments).
    ///
    /// `next_handoff` always returns `None`.
    pub fn stationary() -> Self {
        MobilityProcess {
            period: SimDuration::MAX,
            jitter: 0.0,
            outage: SimDuration::ZERO,
            next_at: SimTime::MAX,
        }
    }

    /// The configured mean hand-off interval.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The configured outage duration.
    pub fn outage(&self) -> SimDuration {
        self.outage
    }

    /// Advances the process and returns the next hand-off, or `None` for a
    /// stationary host.
    pub fn next_handoff(&mut self, rng: &mut SimRng) -> Option<Handoff> {
        if self.next_at == SimTime::MAX {
            return None;
        }
        let starts = self.next_at;
        let ends = starts + self.outage;
        let gap = if self.jitter > 0.0 {
            SimDuration::from_secs_f64(rng.jitter(self.period.as_secs_f64(), self.jitter))
        } else {
            self.period
        };
        // Next interval is measured from recovery, so the *effective*
        // connected time between hand-offs is `gap` regardless of outage.
        self.next_at = ends + gap;
        Some(Handoff { starts, ends })
    }
}

crate::snap_struct!(MobilityProcess {
    period,
    jitter,
    outage,
    next_at,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_schedule() {
        let mut m = MobilityProcess::periodic(SimDuration::from_mins(2), SimDuration::from_secs(3));
        let mut rng = SimRng::new(0);
        let h1 = m.next_handoff(&mut rng).unwrap();
        let h2 = m.next_handoff(&mut rng).unwrap();
        assert_eq!(h1.starts, SimTime::from_secs(120));
        assert_eq!(h1.ends, SimTime::from_secs(123));
        assert_eq!(h2.starts, SimTime::from_secs(243));
    }

    #[test]
    fn stationary_never_moves() {
        let mut m = MobilityProcess::stationary();
        let mut rng = SimRng::new(0);
        assert_eq!(m.next_handoff(&mut rng), None);
        assert_eq!(m.next_handoff(&mut rng), None);
    }

    #[test]
    fn jitter_bounds_intervals() {
        let mut m =
            MobilityProcess::with_jitter(SimDuration::from_secs(100), SimDuration::ZERO, 0.2);
        let mut rng = SimRng::new(9);
        let mut prev_end = SimTime::ZERO;
        for _ in 0..200 {
            let h = m.next_handoff(&mut rng).unwrap();
            let gap = (h.starts - prev_end).as_secs_f64();
            assert!((80.0..=120.0).contains(&gap), "gap={gap}");
            prev_end = h.ends;
        }
    }

    #[test]
    fn deterministic_across_identical_rngs() {
        let mut m1 = MobilityProcess::with_jitter(
            SimDuration::from_secs(60),
            SimDuration::from_secs(1),
            0.3,
        );
        let mut m2 = m1.clone();
        let mut r1 = SimRng::new(4);
        let mut r2 = SimRng::new(4);
        for _ in 0..50 {
            assert_eq!(m1.next_handoff(&mut r1), m2.next_handoff(&mut r2));
        }
    }
}
