//! Incentive-Aware operations (IA) — paper §4.2, pseudo-code Fig. 6.
//!
//! Two techniques:
//!
//! * **LIHD** (Linear Increase, History-based Decrease) upload-rate
//!   control. On a shared wireless channel uploads steal capacity from
//!   downloads, but tit-for-tat punishes uploading nothing; LIHD walks the
//!   upload cap towards the peak of the paper's Fig. 3(b): increase the
//!   cap by α while higher uploads correlate with higher downloads,
//!   decrease by `β · consecutive_decrements` when they do not.
//! * **Identity retention**: store the peer-id per swarm and reuse it when
//!   a hand-off forces task re-initiation, so accumulated tit-for-tat
//!   credit at corresponding peers survives the address change.

use bittorrent::metainfo::InfoHash;
use bittorrent::peer_id::PeerId;
use metrics::handle::MetricsHandle;
use metrics::recorder::Series;
use metrics::registry::Counter;
use simnet::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// LIHD tunables (paper defaults: α = β = 10 KB/s, U₀ = U_max/2).
#[derive(Clone, Copy, Debug)]
pub struct LihdConfig {
    /// Maximum upload limit in bytes/second (e.g. the physical capacity).
    pub u_max: f64,
    /// Linear increment in bytes/second.
    pub alpha: f64,
    /// Decrement unit in bytes/second (scaled by the consecutive-decrement
    /// count).
    pub beta: f64,
    /// Lower bound on the upload limit (zero stalls tit-for-tat entirely).
    pub u_min: f64,
    /// Control window: how often the decision runs.
    pub window: SimDuration,
}

impl LihdConfig {
    /// The paper's evaluation setting for a channel of `u_max` bytes/s:
    /// α = β = 10 KB/s.
    pub fn paper(u_max: f64) -> Self {
        LihdConfig {
            u_max,
            alpha: 10.0 * 1024.0,
            beta: 10.0 * 1024.0,
            u_min: 1024.0,
            window: SimDuration::from_secs(10),
        }
    }
}

/// The LIHD controller (Fig. 6).
///
/// ```
/// use wp2p::ia::{Lihd, LihdConfig};
/// use simnet::time::SimTime;
///
/// // A 200 KB/s wireless channel, the paper's controller parameters.
/// let mut lihd = Lihd::new(LihdConfig::paper(200.0 * 1024.0));
/// assert_eq!(lihd.upload_limit(), 100.0 * 1024.0); // starts at U_max/2
///
/// // Feed it window-averaged download rates; it returns the new cap.
/// lihd.update(SimTime::from_secs(0), 50_000.0);
/// let cap = lihd.update(SimTime::from_secs(10), 60_000.0); // improving
/// assert!(cap > 100.0 * 1024.0, "linear increase on improvement");
/// ```
#[derive(Debug, Clone)]
pub struct Lihd {
    config: LihdConfig,
    u_cur: f64,
    d_prev: f64,
    udec_cnt: u32,
    last_update: Option<SimTime>,
    updates: u64,
    m_steps: Counter,
    m_limit: Series,
}

impl Lihd {
    /// Creates a controller; the initial limit is `U_max / 2` (Fig. 6
    /// line 1).
    ///
    /// # Panics
    ///
    /// Panics on non-positive `u_max` or a zero window.
    pub fn new(config: LihdConfig) -> Self {
        assert!(config.u_max > 0.0, "u_max must be positive");
        assert!(!config.window.is_zero(), "window must be positive");
        Lihd {
            u_cur: 0.5 * config.u_max,
            config,
            d_prev: 0.0,
            udec_cnt: 0,
            last_update: None,
            updates: 0,
            m_steps: Counter::default(),
            m_limit: Series::default(),
        }
    }

    /// Wires the controller's observables into `handle`: a
    /// `lihd.<label>.steps` counter and a `lihd.<label>.upload_limit`
    /// series recording the cap after every control decision. Inert
    /// when the handle is disabled.
    pub fn attach_metrics(&mut self, handle: &MetricsHandle, label: &str) {
        self.m_steps = handle.counter(&format!("lihd.{label}.steps"));
        self.m_limit = handle.series(&format!("lihd.{label}.upload_limit"));
    }

    /// The current upload limit in bytes/second.
    pub fn upload_limit(&self) -> f64 {
        self.u_cur
    }

    /// Decisions taken so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// True when a control decision is due at `now`.
    pub fn due(&self, now: SimTime) -> bool {
        match self.last_update {
            None => true,
            Some(t) => now.saturating_since(t) >= self.config.window,
        }
    }

    /// Runs one control step with the window-averaged download rate
    /// `d_cur` (bytes/second); returns the new upload limit.
    ///
    /// Implements Fig. 6 lines 3–8: while downloads keep improving the
    /// upload cap rises linearly (and the decrement streak resets); when a
    /// window fails to improve, the cap drops by `β · streak`, cutting
    /// with increasing aggression.
    pub fn update(&mut self, now: SimTime, d_cur: f64) -> f64 {
        self.last_update = Some(now);
        self.updates += 1;
        if self.d_prev != 0.0 {
            if self.d_prev < d_cur {
                self.u_cur += self.config.alpha;
                self.udec_cnt = 0;
            } else {
                self.udec_cnt += 1;
                self.u_cur -= self.config.beta * self.udec_cnt as f64;
            }
        }
        self.u_cur = self.u_cur.clamp(self.config.u_min, self.config.u_max);
        self.d_prev = d_cur;
        self.m_steps.inc();
        self.m_limit.record(now, self.u_cur);
        self.u_cur
    }
}

/// Identity retention: remembers the peer-id used in each swarm so task
/// re-initiation after a hand-off can present the same identity (paper
/// §4.2: "identity retention within a swarm").
#[derive(Debug, Clone, Default)]
pub struct IdentityStore {
    ids: HashMap<InfoHash, PeerId>,
}

impl IdentityStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the stored peer-id for `swarm`, or stores and returns
    /// `fresh` when this is the first task for that swarm.
    pub fn peer_id_for(&mut self, swarm: InfoHash, fresh: PeerId) -> PeerId {
        *self.ids.entry(swarm).or_insert(fresh)
    }

    /// The stored id for a swarm, if any.
    pub fn stored(&self, swarm: InfoHash) -> Option<PeerId> {
        self.ids.get(&swarm).copied()
    }

    /// Forgets a swarm (torrent removed).
    pub fn forget(&mut self, swarm: InfoHash) {
        self.ids.remove(&swarm);
    }

    /// Number of swarms tracked.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no identities are stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

use simnet::snapshot::snap_struct;

snap_struct!(LihdConfig {
    u_max,
    alpha,
    beta,
    u_min,
    window,
});

// Instruments are re-wired by the embedder via `attach_metrics`.
snap_struct!(Lihd {
    config,
    u_cur,
    d_prev,
    udec_cnt,
    last_update,
    updates;
    m_steps,
    m_limit,
});

snap_struct!(IdentityStore {
    ids,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(u_max: f64) -> (Lihd, LihdConfig) {
        let cfg = LihdConfig {
            u_max,
            alpha: 10.0,
            beta: 10.0,
            u_min: 1.0,
            window: SimDuration::from_secs(10),
        };
        (Lihd::new(cfg), cfg)
    }

    #[test]
    fn starts_at_half_max() {
        let (l, _) = controller(1000.0);
        assert_eq!(l.upload_limit(), 500.0);
    }

    #[test]
    fn first_update_only_records_history() {
        let (mut l, _) = controller(1000.0);
        // d_prev == 0: no adjustment (Fig. 6 line 4 guard).
        let u = l.update(SimTime::ZERO, 100.0);
        assert_eq!(u, 500.0);
    }

    #[test]
    fn improving_downloads_increase_linearly() {
        let (mut l, _) = controller(1000.0);
        l.update(SimTime::ZERO, 100.0);
        let u1 = l.update(SimTime::from_secs(10), 150.0);
        assert_eq!(u1, 510.0);
        let u2 = l.update(SimTime::from_secs(20), 200.0);
        assert_eq!(u2, 520.0);
    }

    #[test]
    fn stagnant_downloads_decrease_aggressively() {
        let (mut l, _) = controller(1000.0);
        l.update(SimTime::ZERO, 100.0);
        let u1 = l.update(SimTime::from_secs(10), 100.0); // streak 1: -10
        assert_eq!(u1, 490.0);
        let u2 = l.update(SimTime::from_secs(20), 90.0); // streak 2: -20
        assert_eq!(u2, 470.0);
        let u3 = l.update(SimTime::from_secs(30), 80.0); // streak 3: -30
        assert_eq!(u3, 440.0);
    }

    #[test]
    fn improvement_resets_the_streak() {
        let (mut l, _) = controller(1000.0);
        l.update(SimTime::ZERO, 100.0);
        l.update(SimTime::from_secs(10), 90.0); // -10
        l.update(SimTime::from_secs(20), 80.0); // -20
        l.update(SimTime::from_secs(30), 200.0); // +10, streak reset
        let u = l.update(SimTime::from_secs(40), 150.0); // streak 1 again: -10
        assert_eq!(u, 470.0);
    }

    #[test]
    fn clamped_to_bounds() {
        let (mut l, cfg) = controller(520.0);
        l.update(SimTime::ZERO, 100.0);
        // Keep improving: +10 each, capped at u_max.
        for i in 1..=40u64 {
            l.update(SimTime::from_secs(10 * i), 100.0 + i as f64);
        }
        assert_eq!(l.upload_limit(), cfg.u_max);
        // Keep stalling: decrements accelerate, floored at u_min.
        for i in 41..=60u64 {
            l.update(SimTime::from_secs(10 * i), 50.0);
        }
        assert_eq!(l.upload_limit(), cfg.u_min);
    }

    #[test]
    fn beats_uncapped_default_on_a_contended_channel() {
        // Synthetic shared channel (the shape of the paper's Fig. 3(b)):
        // downloads rise gently with uploads up to a peak at 30% of
        // capacity, then collapse from self-contention.
        let capacity = 1000.0;
        let response = |u: f64| {
            let peak = 0.3 * capacity;
            if u <= peak {
                500.0 + u
            } else {
                (800.0 - 2.0 * (u - peak)).max(10.0)
            }
        };
        let cfg = LihdConfig {
            u_max: capacity,
            alpha: 20.0,
            beta: 20.0,
            u_min: 10.0,
            window: SimDuration::from_secs(10),
        };
        let mut l = Lihd::new(cfg);
        let mut t = SimTime::ZERO;
        let mut u = l.upload_limit();
        let mut lihd_download = 0.0;
        let mut max_u = f64::MIN;
        let mut min_u = f64::MAX;
        for _ in 0..200 {
            let d = response(u);
            lihd_download += d;
            u = l.update(t, d);
            max_u = max_u.max(u);
            min_u = min_u.min(u);
            t += SimDuration::from_secs(10);
        }
        let lihd_avg = lihd_download / 200.0;
        let default_avg = response(capacity); // uncapped client pegs the channel
        assert!(
            lihd_avg > 2.0 * default_avg,
            "LIHD avg download {lihd_avg} should beat default {default_avg}"
        );
        // The controller stays in a bounded band (no runaway in either
        // direction) — the stability property the paper relies on.
        assert!(max_u <= 0.5 * capacity + 2.0 * cfg.alpha, "max_u={max_u}");
        assert!(min_u >= cfg.u_min, "min_u={min_u}");
    }

    #[test]
    fn due_respects_window() {
        let (mut l, _) = controller(100.0);
        assert!(l.due(SimTime::ZERO));
        l.update(SimTime::ZERO, 10.0);
        assert!(!l.due(SimTime::from_secs(5)));
        assert!(l.due(SimTime::from_secs(10)));
    }

    #[test]
    fn identity_store_retains_per_swarm() {
        let mut store = IdentityStore::new();
        let swarm_a = InfoHash([1; 20]);
        let swarm_b = InfoHash([2; 20]);
        let id1 = PeerId([1; 20]);
        let id2 = PeerId([2; 20]);
        let id3 = PeerId([3; 20]);
        assert_eq!(store.peer_id_for(swarm_a, id1), id1);
        // Re-initiation with a fresh id: the stored one wins.
        assert_eq!(store.peer_id_for(swarm_a, id2), id1);
        // Different swarm: fresh id is stored (credit stays confined).
        assert_eq!(store.peer_id_for(swarm_b, id3), id3);
        assert_eq!(store.len(), 2);
        store.forget(swarm_a);
        assert_eq!(store.stored(swarm_a), None);
    }
}
