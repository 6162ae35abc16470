//! Mobility-Aware operations (MA) — paper §4.3.
//!
//! * **Mobility-aware fetching (MF)**: fetch the next piece *in sequence*
//!   with probability `1 − p_r` and *rarest-first* with probability `p_r`,
//!   where `p_r` grows as the download (and the host's network stability)
//!   grows — "exponentially increasing altruism". Early disconnections
//!   then still leave a playable prefix; a long-stable host converges to
//!   swarm-friendly rarest-first.
//! * **Role reversal (RR)**: the mobile host continuously remembers its
//!   corresponding peers; when its address changes it immediately
//!   re-initiates connections *as a client* instead of waiting minutes for
//!   fixed peers and the tracker to rediscover its new address. (Serving
//!   content is unaffected: peers serve on connections regardless of who
//!   initiated them.)

use bittorrent::picker::{PickContext, PiecePicker, RarestFirst, Sequential};
use simnet::addr::SimAddr;
use simnet::rng::SimRng;
use simnet::time::SimDuration;

/// How `p_r` (the rarest-first probability) evolves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PrSchedule {
    /// `p_r` equals the downloaded fraction — the setting the paper's
    /// evaluation uses (§5.2.3: "we set the value of p_r … to be equal to
    /// the downloaded percentage of file").
    DownloadedFraction,
    /// Exponentially decreasing selfishness in the downloaded fraction:
    /// `p_r(f) = p0^(1−f)` — starts at `p0` (the paper suggests 20%) and
    /// rises exponentially to 1 at completion.
    ExponentialInProgress {
        /// Initial rarest-first probability at 0% downloaded.
        p0: f64,
    },
    /// Stability-driven: `p_r(t) = 1 − (1 − p0)·e^(−t/τ)` where `t` is the
    /// time since the last disconnection — the "network stability" form of
    /// §4.3.
    Stability {
        /// Initial rarest-first probability right after (re)connection.
        p0: f64,
        /// Time constant of the exponential approach to 1.
        tau: SimDuration,
    },
    /// A constant probability (ablation baseline).
    Fixed(
        /// The constant `p_r`.
        f64,
    ),
}

impl PrSchedule {
    /// Evaluates `p_r` for the current download state.
    pub fn p_rarest(&self, ctx: &PickContext<'_>) -> f64 {
        let f = ctx.downloaded_fraction.clamp(0.0, 1.0);
        match *self {
            PrSchedule::DownloadedFraction => f,
            PrSchedule::ExponentialInProgress { p0 } => {
                let p0 = p0.clamp(1e-6, 1.0);
                p0.powf(1.0 - f)
            }
            PrSchedule::Stability { p0, tau } => {
                let p0 = p0.clamp(0.0, 1.0);
                if tau.is_zero() {
                    return 1.0;
                }
                let t = ctx.stable_for.as_secs_f64() / tau.as_secs_f64();
                1.0 - (1.0 - p0) * (-t).exp()
            }
            PrSchedule::Fixed(p) => p.clamp(0.0, 1.0),
        }
    }
}

/// The MF piece picker: a [`PrSchedule`]-weighted blend of sequential and
/// rarest-first selection.
///
/// ```
/// use bittorrent::picker::{PickContext, PiecePicker};
/// use simnet::rng::SimRng;
/// use simnet::time::SimDuration;
/// use wp2p::ma::{MobilityAwarePicker, PrSchedule};
///
/// let mut picker = MobilityAwarePicker::new(PrSchedule::DownloadedFraction);
/// let availability = vec![3, 3, 3, 1]; // piece 3 is rarest
/// let ctx = PickContext {
///     availability: &availability,
///     downloaded_fraction: 0.0, // fresh download -> pure sequential
///     stable_for: SimDuration::ZERO,
/// };
/// let mut rng = SimRng::new(1);
/// assert_eq!(picker.pick(&[0, 1, 2, 3], &ctx, &mut rng), Some(0));
/// ```
#[derive(Debug)]
pub struct MobilityAwarePicker {
    schedule: PrSchedule,
    rarest: RarestFirst,
    sequential: Sequential,
    /// Last probability used (exposed for instrumentation).
    last_pr: f64,
    rarest_picks: u64,
    sequential_picks: u64,
}

impl MobilityAwarePicker {
    /// Creates an MF picker with the given schedule.
    pub fn new(schedule: PrSchedule) -> Self {
        MobilityAwarePicker {
            schedule,
            rarest: RarestFirst,
            sequential: Sequential,
            last_pr: 0.0,
            rarest_picks: 0,
            sequential_picks: 0,
        }
    }

    /// The schedule in use.
    pub fn schedule(&self) -> PrSchedule {
        self.schedule
    }

    /// The `p_r` used by the most recent pick.
    pub fn last_pr(&self) -> f64 {
        self.last_pr
    }

    /// `(rarest, sequential)` decision counts.
    pub fn decision_counts(&self) -> (u64, u64) {
        (self.rarest_picks, self.sequential_picks)
    }
}

impl PiecePicker for MobilityAwarePicker {
    fn pick(&mut self, candidates: &[u32], ctx: &PickContext<'_>, rng: &mut SimRng) -> Option<u32> {
        self.last_pr = self.schedule.p_rarest(ctx);
        if rng.chance(self.last_pr) {
            self.rarest_picks += 1;
            self.rarest.pick(candidates, ctx, rng)
        } else {
            self.sequential_picks += 1;
            self.sequential.pick(candidates, ctx, rng)
        }
    }

    fn name(&self) -> &'static str {
        "mobility-aware"
    }
}

/// Role-reversal state: a continuously refreshed list of corresponding
/// peers, handed to the re-initiated task after a hand-off so it can dial
/// out immediately.
#[derive(Debug, Clone, Default)]
pub struct RoleReversal {
    stored: Vec<SimAddr>,
}

impl RoleReversal {
    /// Creates empty RR state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Refreshes the stored peer list (call periodically; the paper's
    /// client stores "all the corresponding peers with which P2P TCP
    /// connections have been established").
    pub fn note_peers(&mut self, addrs: &[SimAddr]) {
        if !addrs.is_empty() {
            self.stored = addrs.to_vec();
            self.stored.sort_unstable();
            self.stored.dedup();
        }
    }

    /// The peers to re-dial after a hand-off.
    pub fn stored_peers(&self) -> &[SimAddr] {
        &self.stored
    }

    /// Clears the state (torrent finished/removed).
    pub fn clear(&mut self) {
        self.stored.clear();
    }
}

use simnet::snapshot::{snap_enum, snap_struct};

snap_enum!(PrSchedule {
    0 => DownloadedFraction,
    1 => ExponentialInProgress { p0 },
    2 => Stability { p0, tau },
    3 => Fixed(p),
});

// The two sub-pickers are stateless unit structs.
snap_struct!(MobilityAwarePicker {
    schedule,
    last_pr,
    rarest_picks,
    sequential_picks;
    rarest,
    sequential,
});

snap_struct!(RoleReversal {
    stored,
});

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimDuration;

    fn ctx<'a>(avail: &'a [u32], frac: f64, stable: SimDuration) -> PickContext<'a> {
        PickContext {
            availability: avail,
            downloaded_fraction: frac,
            stable_for: stable,
        }
    }

    #[test]
    fn downloaded_fraction_schedule_is_identity() {
        let s = PrSchedule::DownloadedFraction;
        let avail = [1u32; 4];
        assert_eq!(s.p_rarest(&ctx(&avail, 0.0, SimDuration::ZERO)), 0.0);
        assert_eq!(s.p_rarest(&ctx(&avail, 0.37, SimDuration::ZERO)), 0.37);
        assert_eq!(s.p_rarest(&ctx(&avail, 1.0, SimDuration::ZERO)), 1.0);
    }

    #[test]
    fn exponential_schedule_starts_low_and_reaches_one() {
        let s = PrSchedule::ExponentialInProgress { p0: 0.2 };
        let avail = [1u32; 4];
        let p_start = s.p_rarest(&ctx(&avail, 0.0, SimDuration::ZERO));
        let p_mid = s.p_rarest(&ctx(&avail, 0.5, SimDuration::ZERO));
        let p_end = s.p_rarest(&ctx(&avail, 1.0, SimDuration::ZERO));
        assert!((p_start - 0.2).abs() < 1e-9);
        assert!((p_mid - 0.2f64.sqrt()).abs() < 1e-9);
        assert!((p_end - 1.0).abs() < 1e-9);
        assert!(p_start < p_mid && p_mid < p_end, "monotone increasing");
    }

    #[test]
    fn stability_schedule_grows_with_uptime() {
        let s = PrSchedule::Stability {
            p0: 0.2,
            tau: SimDuration::from_mins(10),
        };
        let avail = [1u32; 4];
        let p0 = s.p_rarest(&ctx(&avail, 0.0, SimDuration::ZERO));
        let p1 = s.p_rarest(&ctx(&avail, 0.0, SimDuration::from_mins(10)));
        let p2 = s.p_rarest(&ctx(&avail, 0.0, SimDuration::from_mins(60)));
        assert!((p0 - 0.2).abs() < 1e-9);
        assert!(p1 > 0.6 && p1 < 0.8, "one tau ≈ 0.71, got {p1}");
        assert!(p2 > 0.99);
    }

    #[test]
    fn mf_picks_sequentially_when_fresh() {
        let mut picker = MobilityAwarePicker::new(PrSchedule::DownloadedFraction);
        let avail = vec![5u32, 5, 5, 1]; // piece 3 rarest
        let mut rng = SimRng::new(1);
        // 0% downloaded -> pure sequential.
        for _ in 0..20 {
            let p = picker
                .pick(
                    &[0, 1, 2, 3],
                    &ctx(&avail, 0.0, SimDuration::ZERO),
                    &mut rng,
                )
                .unwrap();
            assert_eq!(p, 0);
        }
        let (r, s) = picker.decision_counts();
        assert_eq!((r, s), (0, 20));
    }

    #[test]
    fn mf_converges_to_rarest_when_nearly_done() {
        let mut picker = MobilityAwarePicker::new(PrSchedule::DownloadedFraction);
        let avail = vec![5u32, 5, 5, 1];
        let mut rng = SimRng::new(2);
        let mut rare = 0;
        for _ in 0..1000 {
            let p = picker
                .pick(
                    &[0, 1, 2, 3],
                    &ctx(&avail, 0.95, SimDuration::ZERO),
                    &mut rng,
                )
                .unwrap();
            if p == 3 {
                rare += 1;
            }
        }
        assert!(
            rare > 900,
            "95% downloaded -> ~95% rarest picks, got {rare}"
        );
        assert!((picker.last_pr() - 0.95).abs() < 1e-9);
    }

    #[test]
    fn mf_blends_at_intermediate_progress() {
        let mut picker = MobilityAwarePicker::new(PrSchedule::DownloadedFraction);
        let avail = vec![5u32, 5, 5, 1];
        let mut rng = SimRng::new(3);
        let mut seq = 0;
        let mut rare = 0;
        for _ in 0..2000 {
            match picker
                .pick(
                    &[0, 1, 2, 3],
                    &ctx(&avail, 0.4, SimDuration::ZERO),
                    &mut rng,
                )
                .unwrap()
            {
                0 => seq += 1,
                3 => rare += 1,
                other => panic!("unexpected pick {other}"),
            }
        }
        let frac = rare as f64 / 2000.0;
        assert!((0.35..0.45).contains(&frac), "p_r≈0.4, got {frac}");
        assert!(seq > 0);
    }

    #[test]
    fn role_reversal_stores_and_dedups() {
        let mut rr = RoleReversal::new();
        rr.note_peers(&[SimAddr(3), SimAddr(1), SimAddr(3)]);
        assert_eq!(rr.stored_peers(), &[SimAddr(1), SimAddr(3)]);
        // An empty refresh (momentarily zero peers) keeps the last list —
        // that is the whole point during a disconnection.
        rr.note_peers(&[]);
        assert_eq!(rr.stored_peers().len(), 2);
        rr.note_peers(&[SimAddr(9)]);
        assert_eq!(rr.stored_peers(), &[SimAddr(9)]);
        rr.clear();
        assert!(rr.stored_peers().is_empty());
    }
}
