//! Point-to-point (wired) link model.
//!
//! A [`Link`] is a unidirectional pipe with finite bandwidth, a fixed
//! propagation delay, a drop-tail queue measured in packets, and an
//! optional random bit-error rate. A full-duplex wired link is simply two
//! `Link`s, one per direction — wired up/down directions do **not** share
//! capacity (contrast with [`crate::wireless::WirelessChannel`]).
//!
//! The link is a passive calculator rather than an event source: the caller
//! offers a packet with [`Link::send`] and receives back *when* (and
//! whether) it is delivered, then schedules the delivery event itself. This
//! keeps the model free of callbacks and trivially testable.

use crate::rng::SimRng;
use crate::time::{transmission_delay, SimDuration, SimTime};
use std::collections::VecDeque;

/// Static parameters of a link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// Serialization bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub prop_delay: SimDuration,
    /// Drop-tail queue capacity in packets (packets waiting or in flight on
    /// the transmitter). When the queue is full new packets are dropped.
    pub queue_packets: usize,
    /// Random bit-error rate. A packet of `n` bytes is lost with probability
    /// `1 − (1 − ber)^(8n)` — longer packets are proportionally more
    /// vulnerable, which is the effect the paper's §3.2 builds on.
    pub ber: f64,
}

impl LinkConfig {
    /// A fast, short backbone hop used between fixed peers.
    pub fn backbone() -> Self {
        LinkConfig {
            bandwidth_bps: 100_000_000,
            prop_delay: SimDuration::from_millis(5),
            queue_packets: 200,
            ber: 0.0,
        }
    }
}

/// Why a packet offered to a link failed to get through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The drop-tail queue was full (congestion loss).
    BufferFull,
    /// The packet was corrupted by random bit errors in flight.
    BitError,
}

/// Result of offering a packet to a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// The packet will arrive at the far end at the given instant.
    Delivered {
        /// Arrival time of the last bit at the receiver.
        at: SimTime,
    },
    /// The packet was lost. Bit-error losses still consume transmission
    /// time (the bits went on the wire); buffer drops do not.
    Dropped {
        /// Why the packet was lost.
        reason: DropReason,
    },
}

impl SendOutcome {
    /// Convenience accessor for the delivery time.
    pub fn delivered_at(self) -> Option<SimTime> {
        match self {
            SendOutcome::Delivered { at } => Some(at),
            SendOutcome::Dropped { .. } => None,
        }
    }
}

/// Cumulative link counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted into the queue.
    pub accepted: u64,
    /// Packets delivered to the far end.
    pub delivered: u64,
    /// Packets dropped because the queue was full.
    pub dropped_buffer: u64,
    /// Packets corrupted by bit errors.
    pub dropped_error: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
}

/// A unidirectional link. See the module docs for the interaction model.
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    /// Transmission-completion times of packets accepted but possibly still
    /// serializing; the front entries expire as `now` advances.
    completions: VecDeque<SimTime>,
    /// When the transmitter becomes free.
    busy_until: SimTime,
    stats: LinkStats,
}

impl Link {
    /// Creates a link with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero or `queue_packets` is zero.
    pub fn new(config: LinkConfig) -> Self {
        assert!(config.bandwidth_bps > 0, "link bandwidth must be positive");
        assert!(
            config.queue_packets > 0,
            "queue must hold at least 1 packet"
        );
        assert!(
            (0.0..1.0).contains(&config.ber),
            "BER must be in [0, 1): {}",
            config.ber
        );
        Link {
            config,
            completions: VecDeque::new(),
            busy_until: SimTime::ZERO,
            stats: LinkStats::default(),
        }
    }

    /// The link's static parameters.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Updates the bit-error rate (used by experiments that sweep BER).
    pub fn set_ber(&mut self, ber: f64) {
        assert!((0.0..1.0).contains(&ber));
        self.config.ber = ber;
    }

    /// Probability that a packet of `bytes` is corrupted in flight.
    pub fn packet_error_rate(&self, bytes: u32) -> f64 {
        packet_error_rate(self.config.ber, bytes)
    }

    fn expire(&mut self, now: SimTime) {
        while let Some(&front) = self.completions.front() {
            if front <= now {
                self.completions.pop_front();
            } else {
                break;
            }
        }
    }

    /// Packets currently queued or serializing.
    pub fn queue_len(&mut self, now: SimTime) -> usize {
        self.expire(now);
        self.completions.len()
    }

    /// Offers a packet of `bytes` to the link at time `now`.
    ///
    /// On success the returned instant is when the last bit arrives at the
    /// receiver (serialization behind any queued packets, plus propagation).
    pub fn send(&mut self, now: SimTime, bytes: u32, rng: &mut SimRng) -> SendOutcome {
        self.expire(now);
        if self.completions.len() >= self.config.queue_packets {
            self.stats.dropped_buffer += 1;
            return SendOutcome::Dropped {
                reason: DropReason::BufferFull,
            };
        }
        let start = self.busy_until.max(now);
        let finish = start + transmission_delay(bytes as u64, self.config.bandwidth_bps);
        self.busy_until = finish;
        self.completions.push_back(finish);
        self.stats.accepted += 1;

        if rng.chance(self.packet_error_rate(bytes)) {
            self.stats.dropped_error += 1;
            return SendOutcome::Dropped {
                reason: DropReason::BitError,
            };
        }
        self.stats.delivered += 1;
        self.stats.bytes_delivered += bytes as u64;
        SendOutcome::Delivered {
            at: finish + self.config.prop_delay,
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Resets counters (queue state is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = LinkStats::default();
    }
}

/// `1 − (1 − ber)^(8·bytes)`, computed in log space for numeric stability at
/// the small BERs the paper sweeps (1e-6 … 2e-5).
pub fn packet_error_rate(ber: f64, bytes: u32) -> f64 {
    if ber <= 0.0 {
        return 0.0;
    }
    if ber >= 1.0 {
        return 1.0;
    }
    let bits = (bytes as f64) * 8.0;
    1.0 - ((1.0 - ber).ln() * bits).exp()
}

use crate::snapshot::{Snap, SnapReader, SnapWriter};

impl Snap for LinkConfig {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.bandwidth_bps);
        self.prop_delay.snap(w);
        w.put_usize(self.queue_packets);
        w.put_f64(self.ber);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        LinkConfig {
            bandwidth_bps: r.get_u64(),
            prop_delay: Snap::unsnap(r),
            queue_packets: r.get_usize(),
            ber: r.get_f64(),
        }
    }
}

impl Snap for LinkStats {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.accepted);
        w.put_u64(self.delivered);
        w.put_u64(self.dropped_buffer);
        w.put_u64(self.dropped_error);
        w.put_u64(self.bytes_delivered);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        LinkStats {
            accepted: r.get_u64(),
            delivered: r.get_u64(),
            dropped_buffer: r.get_u64(),
            dropped_error: r.get_u64(),
            bytes_delivered: r.get_u64(),
        }
    }
}

impl Snap for Link {
    fn snap(&self, w: &mut SnapWriter) {
        self.config.snap(w);
        self.completions.snap(w);
        self.busy_until.snap(w);
        self.stats.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        Link {
            config: Snap::unsnap(r),
            completions: Snap::unsnap(r),
            busy_until: Snap::unsnap(r),
            stats: Snap::unsnap(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_link(bw: u64, queue: usize) -> Link {
        Link::new(LinkConfig {
            bandwidth_bps: bw,
            prop_delay: SimDuration::from_millis(10),
            queue_packets: queue,
            ber: 0.0,
        })
    }

    #[test]
    fn delivery_time_includes_serialization_and_propagation() {
        let mut link = quiet_link(8_000_000, 10); // 1 byte per microsecond
        let mut rng = SimRng::new(0);
        let out = link.send(SimTime::ZERO, 1000, &mut rng);
        // 1000 us serialization + 10 ms propagation.
        assert_eq!(
            out,
            SendOutcome::Delivered {
                at: SimTime::from_micros(11_000)
            }
        );
    }

    #[test]
    fn back_to_back_packets_serialize() {
        let mut link = quiet_link(8_000_000, 10);
        let mut rng = SimRng::new(0);
        let a = link
            .send(SimTime::ZERO, 1000, &mut rng)
            .delivered_at()
            .unwrap();
        let b = link
            .send(SimTime::ZERO, 1000, &mut rng)
            .delivered_at()
            .unwrap();
        assert_eq!(b - a, SimDuration::from_micros(1000));
    }

    #[test]
    fn queue_overflow_drops() {
        let mut link = quiet_link(8_000, 2); // slow: 1 ms per byte
        let mut rng = SimRng::new(0);
        assert!(matches!(
            link.send(SimTime::ZERO, 100, &mut rng),
            SendOutcome::Delivered { .. }
        ));
        assert!(matches!(
            link.send(SimTime::ZERO, 100, &mut rng),
            SendOutcome::Delivered { .. }
        ));
        let third = link.send(SimTime::ZERO, 100, &mut rng);
        assert_eq!(
            third,
            SendOutcome::Dropped {
                reason: DropReason::BufferFull
            }
        );
        assert_eq!(link.stats().dropped_buffer, 1);
    }

    #[test]
    fn queue_drains_with_time() {
        let mut link = quiet_link(8_000, 1); // 100 bytes take 100 ms
        let mut rng = SimRng::new(0);
        assert!(matches!(
            link.send(SimTime::ZERO, 100, &mut rng),
            SendOutcome::Delivered { .. }
        ));
        // Immediately full...
        assert!(matches!(
            link.send(SimTime::ZERO, 100, &mut rng),
            SendOutcome::Dropped { .. }
        ));
        // ...but after the first packet finishes, space again.
        let later = SimTime::from_millis(150);
        assert_eq!(link.queue_len(later), 0);
        assert!(matches!(
            link.send(later, 100, &mut rng),
            SendOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn per_is_zero_without_errors_and_grows_with_size() {
        assert_eq!(packet_error_rate(0.0, 1500), 0.0);
        let small = packet_error_rate(1e-5, 40);
        let large = packet_error_rate(1e-5, 1500);
        assert!(large > small, "longer packets must be lossier");
        // Sanity: PER(1e-5, 1500B) = 1-(1-1e-5)^12000 ~ 0.113
        assert!((0.10..0.13).contains(&large), "per={large}");
    }

    #[test]
    fn bit_errors_lose_packets_at_the_right_rate() {
        let mut link = Link::new(LinkConfig {
            bandwidth_bps: 1_000_000_000,
            prop_delay: SimDuration::ZERO,
            queue_packets: 1_000_000,
            ber: 1e-5,
        });
        let mut rng = SimRng::new(11);
        let n = 20_000;
        let mut lost = 0;
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            if link.send(t, 1500, &mut rng).delivered_at().is_none() {
                lost += 1;
            }
            t += SimDuration::from_millis(1);
        }
        let rate = lost as f64 / n as f64;
        let expect = packet_error_rate(1e-5, 1500);
        assert!(
            (rate - expect).abs() < 0.02,
            "rate={rate}, expected≈{expect}"
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = Link::new(LinkConfig {
            bandwidth_bps: 0,
            prop_delay: SimDuration::ZERO,
            queue_packets: 1,
            ber: 0.0,
        });
    }
}
