//! Tit-for-tat choking (paper §2.2).
//!
//! Every rechoke interval the client unchokes the `upload_slots` interested
//! peers with the highest **credit** (download rate they have recently
//! provided, keyed by peer-id), plus one *optimistic* unchoke rotated on a
//! slower timer that gives unproven peers a chance to bootstrap. A peer
//! that loses its peer-id (the paper's mobility failure, §3.4) re-enters as
//! unproven and must win the optimistic slot again.

use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};

/// Opaque connection key used by the choker (assigned by the client).
pub type ConnKey = u64;

/// Choker timing and slot parameters.
#[derive(Clone, Copy, Debug)]
pub struct ChokerConfig {
    /// Regular (tit-for-tat) unchoke slots.
    pub upload_slots: usize,
    /// How often the regular slots are recomputed.
    pub rechoke_interval: SimDuration,
    /// How often the optimistic slot rotates.
    pub optimistic_interval: SimDuration,
}

impl Default for ChokerConfig {
    fn default() -> Self {
        ChokerConfig {
            upload_slots: 4,
            rechoke_interval: SimDuration::from_secs(10),
            optimistic_interval: SimDuration::from_secs(30),
        }
    }
}

/// Per-peer inputs to a rechoke decision.
#[derive(Clone, Copy, Debug)]
pub struct PeerSnapshot {
    /// Connection key.
    pub key: ConnKey,
    /// Whether the peer wants data from us.
    pub interested: bool,
    /// Tit-for-tat credit: recent download rate from this peer (leeching)
    /// or upload rate to it (seeding), keyed by peer-id.
    pub credit: f64,
}

/// The set of peers that should be unchoked after a rechoke.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChokeDecision {
    /// Peers to unchoke (regular + optimistic).
    pub unchoked: Vec<ConnKey>,
    /// The optimistic member of `unchoked`, if any.
    pub optimistic: Option<ConnKey>,
}

/// Tit-for-tat choker state.
#[derive(Debug, Clone)]
pub struct Choker {
    config: ChokerConfig,
    last_rechoke: Option<SimTime>,
    last_optimistic: Option<SimTime>,
    optimistic: Option<ConnKey>,
    rechokes: u64,
}

impl Choker {
    /// Creates a choker.
    pub fn new(config: ChokerConfig) -> Self {
        Choker {
            config,
            last_rechoke: None,
            last_optimistic: None,
            optimistic: None,
            rechokes: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ChokerConfig {
        &self.config
    }

    /// Number of rechoke rounds performed.
    pub fn rechokes(&self) -> u64 {
        self.rechokes
    }

    /// True when a rechoke is due at `now`.
    pub fn due(&self, now: SimTime) -> bool {
        match self.last_rechoke {
            None => true,
            Some(t) => now.saturating_since(t) >= self.config.rechoke_interval,
        }
    }

    /// Forces the next `rechoke` call to run regardless of the timer
    /// (used when peers join/leave).
    pub fn invalidate(&mut self) {
        self.last_rechoke = None;
    }

    /// Staggers the optimistic-rotation schedule by treating `phase` as
    /// the time of a fictitious previous rotation. Without per-client
    /// phases, every peer in a simulated swarm rotates its optimistic
    /// slot at the same instants, which synchronizes grants and
    /// starvations in a way real swarms never do. Regular rechokes are
    /// unaffected (the first one still runs immediately).
    pub fn set_optimistic_phase(&mut self, phase: SimTime) {
        self.last_optimistic = Some(phase);
    }

    /// Computes the unchoke set at `now`. The caller applies the diff
    /// against its current choke flags.
    pub fn rechoke(
        &mut self,
        now: SimTime,
        peers: &[PeerSnapshot],
        rng: &mut SimRng,
    ) -> ChokeDecision {
        self.last_rechoke = Some(now);
        self.rechokes += 1;

        // Regular slots: interested peers by descending credit, ties by key
        // for determinism.
        let mut interested: Vec<&PeerSnapshot> = peers.iter().filter(|p| p.interested).collect();
        interested.sort_by(|a, b| {
            b.credit
                .partial_cmp(&a.credit)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.key.cmp(&b.key))
        });
        let regular: Vec<ConnKey> = interested
            .iter()
            .take(self.config.upload_slots)
            .map(|p| p.key)
            .collect();

        // Optimistic slot: rotate on its own timer among interested peers
        // outside the regular set.
        let rotate = match self.last_optimistic {
            None => true,
            Some(t) => now.saturating_since(t) >= self.config.optimistic_interval,
        };
        let optimistic_alive = self
            .optimistic
            .is_some_and(|k| peers.iter().any(|p| p.key == k && p.interested));
        // A retained optimistic peer whose credit climbed into the regular
        // set would leave the slot empty until the next rotation, shrinking
        // the effective unchoke set below upload_slots + 1; re-pick now.
        let promoted = self.optimistic.is_some_and(|k| regular.contains(&k));
        if rotate || !optimistic_alive || promoted {
            let pool: Vec<ConnKey> = interested
                .iter()
                .map(|p| p.key)
                .filter(|k| !regular.contains(k))
                .collect();
            self.optimistic = rng.choose(&pool).copied();
            if self.optimistic.is_some() {
                self.last_optimistic = Some(now);
            }
        }
        let optimistic = self.optimistic.filter(|k| !regular.contains(k));

        let mut unchoked = regular;
        if let Some(k) = optimistic {
            unchoked.push(k);
        }
        ChokeDecision {
            unchoked,
            optimistic,
        }
    }
}

use simnet::snapshot::snap_struct;

snap_struct!(ChokerConfig {
    upload_slots,
    rechoke_interval,
    optimistic_interval,
});

snap_struct!(Choker {
    config,
    last_rechoke,
    last_optimistic,
    optimistic,
    rechokes,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(key: ConnKey, interested: bool, credit: f64) -> PeerSnapshot {
        PeerSnapshot {
            key,
            interested,
            credit,
        }
    }

    #[test]
    fn top_credits_win_regular_slots() {
        let mut ch = Choker::new(ChokerConfig {
            upload_slots: 2,
            ..Default::default()
        });
        let mut rng = SimRng::new(0);
        let peers = vec![
            peer(1, true, 10.0),
            peer(2, true, 30.0),
            peer(3, true, 20.0),
            peer(4, true, 5.0),
        ];
        let d = ch.rechoke(SimTime::ZERO, &peers, &mut rng);
        assert!(d.unchoked.contains(&2));
        assert!(d.unchoked.contains(&3));
        // Two regular + up to one optimistic.
        assert!(d.unchoked.len() <= 3);
    }

    #[test]
    fn uninterested_peers_never_unchoked() {
        let mut ch = Choker::new(ChokerConfig::default());
        let mut rng = SimRng::new(0);
        let peers = vec![peer(1, false, 100.0), peer(2, true, 1.0)];
        let d = ch.rechoke(SimTime::ZERO, &peers, &mut rng);
        assert!(!d.unchoked.contains(&1));
        assert!(d.unchoked.contains(&2));
    }

    #[test]
    fn optimistic_slot_gives_zero_credit_peers_a_chance() {
        let mut ch = Choker::new(ChokerConfig {
            upload_slots: 1,
            ..Default::default()
        });
        let mut rng = SimRng::new(5);
        let peers = vec![peer(1, true, 100.0), peer(2, true, 0.0), peer(3, true, 0.0)];
        let d = ch.rechoke(SimTime::ZERO, &peers, &mut rng);
        assert!(d.unchoked.contains(&1));
        let opt = d.optimistic.expect("optimistic slot filled");
        assert!(opt == 2 || opt == 3);
    }

    #[test]
    fn optimistic_rotates_on_slow_timer() {
        let cfg = ChokerConfig {
            upload_slots: 1,
            rechoke_interval: SimDuration::from_secs(10),
            optimistic_interval: SimDuration::from_secs(30),
        };
        let mut ch = Choker::new(cfg);
        let mut rng = SimRng::new(9);
        let peers: Vec<PeerSnapshot> = (0..10)
            .map(|k| peer(k, true, if k == 0 { 100.0 } else { 0.0 }))
            .collect();
        let first = ch
            .rechoke(SimTime::ZERO, &peers, &mut rng)
            .optimistic
            .unwrap();
        // Rechokes inside the optimistic interval keep the same pick.
        let second = ch
            .rechoke(SimTime::from_secs(10), &peers, &mut rng)
            .optimistic
            .unwrap();
        assert_eq!(first, second);
        // Eventually the rotation changes the pick (probabilistic but with
        // 9 candidates and many rotations, certain for this seed).
        let mut changed = false;
        for i in 1..20 {
            let t = SimTime::from_secs(30 * i);
            if ch.rechoke(t, &peers, &mut rng).optimistic.unwrap() != first {
                changed = true;
                break;
            }
        }
        assert!(changed, "optimistic never rotated");
    }

    #[test]
    fn due_respects_interval() {
        let mut ch = Choker::new(ChokerConfig::default());
        let mut rng = SimRng::new(0);
        assert!(ch.due(SimTime::ZERO));
        ch.rechoke(SimTime::ZERO, &[], &mut rng);
        assert!(!ch.due(SimTime::from_secs(5)));
        assert!(ch.due(SimTime::from_secs(10)));
        ch.invalidate();
        assert!(ch.due(SimTime::from_secs(10)));
    }

    #[test]
    fn slot_accounting_survives_churn() {
        // Seeded churn storm: peers join and leave between rechokes.
        // Across every round, slot accounting holds: at most slots+1
        // unchoked, no duplicates, nobody absent or uninterested, and
        // the optimistic member is never double-counted as regular.
        let slots = 3usize;
        let run = |seed: u64| -> Vec<ChokeDecision> {
            let mut ch = Choker::new(ChokerConfig {
                upload_slots: slots,
                ..ChokerConfig::default()
            });
            let mut rng = SimRng::new(seed);
            let mut decisions = Vec::new();
            for round in 0..200u64 {
                // Key space shifts with the round so peers churn in/out.
                let peers: Vec<PeerSnapshot> = (0..rng.range(0..12u64))
                    .map(|k| peer(round * 7 + k, rng.chance(0.7), rng.range(0.0f64..1e4)))
                    .collect();
                let d = ch.rechoke(SimTime::from_secs(10 * round), &peers, &mut rng);
                assert!(d.unchoked.len() <= slots + 1, "slot overflow: {d:?}");
                let mut sorted = d.unchoked.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), d.unchoked.len(), "duplicate unchoke");
                for k in &d.unchoked {
                    let p = peers.iter().find(|p| p.key == *k);
                    assert!(
                        p.is_some_and(|p| p.interested),
                        "unchoked a departed or uninterested peer {k}"
                    );
                }
                if let Some(opt) = d.optimistic {
                    assert!(d.unchoked.contains(&opt), "optimistic not unchoked");
                    // Regular slots = everything except the optimistic.
                    assert!(
                        d.unchoked.iter().filter(|&&k| k != opt).count() <= slots,
                        "optimistic double-counted as regular"
                    );
                }
                decisions.push(d);
            }
            decisions
        };
        // And the whole storm is deterministic per seed.
        assert_eq!(
            run(0xC4A0),
            run(0xC4A0),
            "churn storm must replay identically"
        );
    }

    #[test]
    fn full_interest_always_fills_all_slots_plus_optimistic() {
        // With more interested peers than slots, the unchoke set must be
        // exactly upload_slots + 1 every round — including the round where
        // the reigning optimistic peer's credit climbs into the regular
        // set (promotion used to leave the optimistic slot empty until the
        // next rotation).
        let slots = 2usize;
        let cfg = ChokerConfig {
            upload_slots: slots,
            rechoke_interval: SimDuration::from_secs(10),
            optimistic_interval: SimDuration::from_secs(30),
        };
        let mut ch = Choker::new(cfg);
        let mut rng = SimRng::new(11);
        let base = vec![
            peer(1, true, 50.0),
            peer(2, true, 40.0),
            peer(3, true, 1.0),
            peer(4, true, 1.0),
            peer(5, true, 1.0),
        ];
        let d = ch.rechoke(SimTime::ZERO, &base, &mut rng);
        assert_eq!(d.unchoked.len(), slots + 1, "round 0: {d:?}");
        let opt = d.optimistic.expect("optimistic filled under full interest");

        // Promote the optimistic peer into the top-2 before the rotation
        // timer fires (10s < 30s): still exactly slots + 1 unchoked, with a
        // fresh optimistic drawn from the remaining pool.
        let promoted: Vec<PeerSnapshot> = base
            .iter()
            .map(|p| {
                if p.key == opt {
                    peer(p.key, true, 100.0)
                } else {
                    *p
                }
            })
            .collect();
        let d = ch.rechoke(SimTime::from_secs(10), &promoted, &mut rng);
        assert_eq!(d.unchoked.len(), slots + 1, "promotion round: {d:?}");
        assert!(d.unchoked.contains(&opt), "promoted peer keeps a regular slot");
        let new_opt = d.optimistic.expect("slot re-picked after promotion");
        assert_ne!(new_opt, opt, "optimistic may not double as regular");

        // And every later round under full interest stays exactly full.
        for i in 2..30u64 {
            let d = ch.rechoke(SimTime::from_secs(10 * i), &promoted, &mut rng);
            assert_eq!(d.unchoked.len(), slots + 1, "round {i}: {d:?}");
        }
    }

    #[test]
    fn dead_optimistic_is_replaced_immediately() {
        let cfg = ChokerConfig {
            upload_slots: 1,
            ..Default::default()
        };
        let mut ch = Choker::new(cfg);
        let mut rng = SimRng::new(2);
        let peers = vec![peer(1, true, 10.0), peer(2, true, 0.0)];
        let d = ch.rechoke(SimTime::ZERO, &peers, &mut rng);
        assert_eq!(d.optimistic, Some(2));
        // Peer 2 disconnects; a new interested peer 3 appears.
        let peers = vec![peer(1, true, 10.0), peer(3, true, 0.0)];
        let d = ch.rechoke(SimTime::from_secs(10), &peers, &mut rng);
        assert_eq!(d.optimistic, Some(3), "stale optimistic replaced");
    }
}
