//! Shared-medium wireless channel model.
//!
//! The property of WLANs that drives most of the paper's findings is that
//! **uplink and downlink traffic contend for the same channel capacity**
//! (§3.3: "the shared channel nature of the wireless link, where the
//! uploads and downloads are contending for the same wireless channel
//! bandwidth"). A [`WirelessChannel`] therefore serializes *all* frames —
//! whichever direction they travel — through one transmitter-time resource,
//! unlike [`crate::link::Link`] where each direction has its own pipe.
//!
//! Frames additionally suffer random bit errors (`PER = 1−(1−BER)^bits`,
//! so longer frames are lossier — the piggybacked-ACK effect of §3.2), a
//! fixed per-frame MAC overhead approximating 802.11 contention/ACK
//! exchanges, and drop-tail queueing.

use crate::link::{packet_error_rate, DropReason, SendOutcome};
use crate::rng::SimRng;
use crate::time::{transmission_delay, SimDuration, SimTime};
use std::collections::VecDeque;

/// Direction of a frame relative to the mobile station.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// From the mobile station towards the network (its transmissions).
    Up,
    /// From the network towards the mobile station.
    Down,
}

/// Static parameters of a wireless channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WirelessConfig {
    /// Effective shared channel capacity in bits per second (goodput-level,
    /// i.e. after rate adaptation but before our explicit MAC overhead).
    pub bandwidth_bps: u64,
    /// One-way propagation delay (includes AP processing).
    pub prop_delay: SimDuration,
    /// Drop-tail queue capacity in frames, shared across directions.
    pub queue_frames: usize,
    /// Random bit-error rate applied per frame.
    pub ber: f64,
    /// Fixed per-frame channel-occupancy overhead (DIFS/SIFS/MAC-ACK).
    pub per_frame_overhead: SimDuration,
}

impl WirelessConfig {
    /// An 802.11g-like WLAN: ~22 Mbit/s effective, 2 ms latency, 100-frame
    /// queue, error-free until an experiment injects a BER.
    pub fn wlan_80211g() -> Self {
        WirelessConfig {
            bandwidth_bps: 22_000_000,
            prop_delay: SimDuration::from_millis(2),
            queue_frames: 100,
            ber: 0.0,
            per_frame_overhead: SimDuration::from_micros(100),
        }
    }

    /// A deliberately slow channel for experiments that sweep capacity in
    /// KB/s (the paper's Fig. 8(c) sweeps 50–200 KB/s).
    pub fn throttled(bytes_per_sec: u64) -> Self {
        WirelessConfig {
            bandwidth_bps: bytes_per_sec * 8,
            prop_delay: SimDuration::from_millis(2),
            queue_frames: 100,
            ber: 0.0,
            per_frame_overhead: SimDuration::from_micros(100),
        }
    }
}

/// Per-direction counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirectionStats {
    /// Frames accepted into the queue.
    pub accepted: u64,
    /// Frames delivered.
    pub delivered: u64,
    /// Frames dropped at the full queue.
    pub dropped_buffer: u64,
    /// Frames corrupted in flight.
    pub dropped_error: u64,
    /// Bytes delivered.
    pub bytes_delivered: u64,
}

/// A half-duplex shared wireless channel. See the module docs.
#[derive(Debug, Clone)]
pub struct WirelessChannel {
    config: WirelessConfig,
    completions: VecDeque<SimTime>,
    busy_until: SimTime,
    up: DirectionStats,
    down: DirectionStats,
    /// Virtual-time log of buffer drops (useful for Fig. 2(b,c) plots).
    drop_log: Vec<SimTime>,
}

impl WirelessChannel {
    /// Creates a channel.
    ///
    /// # Panics
    ///
    /// Panics on zero bandwidth, zero queue, or BER outside `[0, 1)`.
    pub fn new(config: WirelessConfig) -> Self {
        assert!(
            config.bandwidth_bps > 0,
            "channel bandwidth must be positive"
        );
        assert!(config.queue_frames > 0, "queue must hold at least 1 frame");
        assert!((0.0..1.0).contains(&config.ber), "BER must be in [0, 1)");
        WirelessChannel {
            config,
            completions: VecDeque::new(),
            busy_until: SimTime::ZERO,
            up: DirectionStats::default(),
            down: DirectionStats::default(),
            drop_log: Vec::new(),
        }
    }

    /// The channel's static parameters.
    pub fn config(&self) -> &WirelessConfig {
        &self.config
    }

    /// Updates the bit-error rate mid-run (experiments sweep this).
    pub fn set_ber(&mut self, ber: f64) {
        assert!((0.0..1.0).contains(&ber));
        self.config.ber = ber;
    }

    /// Updates the channel capacity mid-run (fault injection squeezes
    /// and restores it). Frames already on the air keep their old
    /// serialization time.
    ///
    /// # Panics
    ///
    /// Panics on zero bandwidth.
    pub fn set_bandwidth(&mut self, bandwidth_bps: u64) {
        assert!(bandwidth_bps > 0, "channel bandwidth must be positive");
        self.config.bandwidth_bps = bandwidth_bps;
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

    /// Frames currently queued for, or occupying, the channel.
    pub fn queue_len(&mut self, now: SimTime) -> usize {
        self.expire(now);
        self.completions.len()
    }

    fn stats_mut(&mut self, dir: Direction) -> &mut DirectionStats {
        match dir {
            Direction::Up => &mut self.up,
            Direction::Down => &mut self.down,
        }
    }

    /// Offers a frame of `bytes` travelling in `dir` at time `now`.
    ///
    /// Both directions share the transmitter-time resource: a frame must
    /// wait for every earlier frame, regardless of direction. This is what
    /// makes P2P uploads steal capacity from downloads on the same host.
    pub fn send(
        &mut self,
        now: SimTime,
        dir: Direction,
        bytes: u32,
        rng: &mut SimRng,
    ) -> SendOutcome {
        self.expire(now);
        if self.completions.len() >= self.config.queue_frames {
            self.stats_mut(dir).dropped_buffer += 1;
            self.drop_log.push(now);
            return SendOutcome::Dropped {
                reason: DropReason::BufferFull,
            };
        }
        let start = self.busy_until.max(now);
        let air_time = transmission_delay(bytes as u64, self.config.bandwidth_bps)
            + self.config.per_frame_overhead;
        let finish = start + air_time;
        self.busy_until = finish;
        self.completions.push_back(finish);
        self.stats_mut(dir).accepted += 1;

        if rng.chance(packet_error_rate(self.config.ber, bytes)) {
            self.stats_mut(dir).dropped_error += 1;
            return SendOutcome::Dropped {
                reason: DropReason::BitError,
            };
        }
        let s = self.stats_mut(dir);
        s.delivered += 1;
        s.bytes_delivered += bytes as u64;
        SendOutcome::Delivered {
            at: finish + self.config.prop_delay,
        }
    }

    /// Counters for one direction.
    pub fn stats(&self, dir: Direction) -> DirectionStats {
        match dir {
            Direction::Up => self.up,
            Direction::Down => self.down,
        }
    }

    /// Times at which frames were dropped at the full queue.
    pub fn drop_log(&self) -> &[SimTime] {
        &self.drop_log
    }

    /// Fraction of `[0, now]` the channel spent transmitting (an upper
    /// bound: queued-but-unsent air time counts once committed).
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        let busy = self.busy_until.min(now);
        busy.as_secs_f64() / now.as_secs_f64()
    }

    /// Resets counters and the drop log (channel state is preserved).
    pub fn reset_stats(&mut self) {
        self.up = DirectionStats::default();
        self.down = DirectionStats::default();
        self.drop_log.clear();
    }
}

use crate::snap_struct;

// Faults mutate `ber` and `bandwidth_bps` in place, so the config is
// live state, not static structure.
snap_struct!(WirelessConfig {
    bandwidth_bps,
    prop_delay,
    queue_frames,
    ber,
    per_frame_overhead,
});

snap_struct!(DirectionStats {
    accepted,
    delivered,
    dropped_buffer,
    dropped_error,
    bytes_delivered,
});

snap_struct!(WirelessChannel {
    config,
    completions,
    busy_until,
    up,
    down,
    drop_log,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn channel(bw: u64) -> WirelessChannel {
        WirelessChannel::new(WirelessConfig {
            bandwidth_bps: bw,
            prop_delay: SimDuration::ZERO,
            queue_frames: 50,
            ber: 0.0,
            per_frame_overhead: SimDuration::ZERO,
        })
    }

    #[test]
    fn directions_share_capacity() {
        // 8 kbit/s -> 1 byte per ms. Two 500-byte frames, opposite
        // directions, offered at t=0: the second finishes 500 ms after the
        // first because they serialize on the same medium.
        let mut ch = channel(8_000);
        let mut rng = SimRng::new(0);
        let a = ch
            .send(SimTime::ZERO, Direction::Up, 500, &mut rng)
            .delivered_at()
            .unwrap();
        let b = ch
            .send(SimTime::ZERO, Direction::Down, 500, &mut rng)
            .delivered_at()
            .unwrap();
        assert_eq!(a, SimTime::from_millis(500));
        assert_eq!(b, SimTime::from_secs(1));
    }

    #[test]
    fn shared_queue_drops_either_direction() {
        let mut ch = WirelessChannel::new(WirelessConfig {
            bandwidth_bps: 8_000,
            prop_delay: SimDuration::ZERO,
            queue_frames: 2,
            ber: 0.0,
            per_frame_overhead: SimDuration::ZERO,
        });
        let mut rng = SimRng::new(0);
        assert!(ch
            .send(SimTime::ZERO, Direction::Up, 100, &mut rng)
            .delivered_at()
            .is_some());
        assert!(ch
            .send(SimTime::ZERO, Direction::Up, 100, &mut rng)
            .delivered_at()
            .is_some());
        // Queue full: a *downlink* frame is refused too.
        assert_eq!(
            ch.send(SimTime::ZERO, Direction::Down, 100, &mut rng),
            SendOutcome::Dropped {
                reason: DropReason::BufferFull
            }
        );
        assert_eq!(ch.stats(Direction::Down).dropped_buffer, 1);
        assert_eq!(ch.drop_log().len(), 1);
    }

    #[test]
    fn per_frame_overhead_consumes_air_time() {
        let mut with = WirelessChannel::new(WirelessConfig {
            bandwidth_bps: 8_000_000,
            prop_delay: SimDuration::ZERO,
            queue_frames: 10,
            ber: 0.0,
            per_frame_overhead: SimDuration::from_micros(500),
        });
        let mut without = channel(8_000_000);
        let mut rng = SimRng::new(0);
        let a = with
            .send(SimTime::ZERO, Direction::Up, 1000, &mut rng)
            .delivered_at()
            .unwrap();
        let b = without
            .send(SimTime::ZERO, Direction::Up, 1000, &mut rng)
            .delivered_at()
            .unwrap();
        assert_eq!(a - b, SimDuration::from_micros(500));
    }

    #[test]
    fn utilization_tracks_air_time() {
        let mut ch = channel(8_000); // 1 byte/ms
        let mut rng = SimRng::new(0);
        assert_eq!(ch.utilization(SimTime::ZERO), 0.0);
        // 500 bytes = 500 ms of air time.
        ch.send(SimTime::ZERO, Direction::Up, 500, &mut rng);
        assert!((ch.utilization(SimTime::from_secs(1)) - 0.5).abs() < 1e-9);
        // Long idle: utilization decays toward zero.
        assert!(ch.utilization(SimTime::from_secs(100)) < 0.01);
    }

    #[test]
    fn ber_loses_long_frames_more_often() {
        let mut ch = WirelessChannel::new(WirelessConfig {
            bandwidth_bps: 1_000_000_000,
            prop_delay: SimDuration::ZERO,
            queue_frames: 1_000_000,
            ber: 2e-5,
            per_frame_overhead: SimDuration::ZERO,
        });
        let mut rng = SimRng::new(42);
        let trials = 10_000;
        let mut short_lost = 0u32;
        let mut long_lost = 0u32;
        let mut t = SimTime::ZERO;
        for _ in 0..trials {
            if ch
                .send(t, Direction::Up, 40, &mut rng)
                .delivered_at()
                .is_none()
            {
                short_lost += 1;
            }
            if ch
                .send(t, Direction::Up, 1500, &mut rng)
                .delivered_at()
                .is_none()
            {
                long_lost += 1;
            }
            t += SimDuration::from_millis(1);
        }
        assert!(
            long_lost > short_lost * 5,
            "long={long_lost} short={short_lost}"
        );
    }
}
