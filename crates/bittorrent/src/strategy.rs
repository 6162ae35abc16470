//! Client strategies: the population zoo the incentive experiments draw
//! from.
//!
//! The paper's identity-retention argument (§4.2) assumes tit-for-tat
//! standing survives *adversarial* churn, not just benign mobility.
//! Nielson et al. catalogue the attack taxonomy; Violaris &
//! Mavromoustakis motivate hybrid clients that degrade to mobile
//! behaviour only part of the time. This module packages both as a
//! [`ClientStrategy`] trait the [`crate::client::Client`] consults at its
//! decision points, plus a seeded [`PopulationMix`] that assigns a
//! strategy to every peer of a swarm deterministically — the assignment
//! is a pure function of `(mix, seed, peer index)`, so sweeps replay
//! byte-identically regardless of `WP2P_THREADS`.
//!
//! Four implementations ship:
//!
//! * [`Honest`] — the baseline client, byte-identical to the pre-zoo
//!   behaviour (every hook is the identity).
//! * [`FreeRider`] — uploads nothing, keeps an oversized request
//!   pipeline, and re-announces early to keep harvesting optimistic
//!   unchoke grants from fresh peers.
//! * [`BitTyrant`] — strategic unchoker: maintains a per-peer estimate
//!   of how much standing it costs to keep that peer reciprocating, and
//!   reallocates its unchoke preferences toward the *cheapest*
//!   reciprocators (Piatek et al.'s observation, via Nielson's
//!   taxonomy). Optionally churns its identity on every re-initiation
//!   to farm newcomer treatment.
//! * [`HybridMobility`] — partial-mobility hybrid: at each task
//!   (re)initiation it draws whether this generation behaves like a
//!   degraded mobile client (no uploads, identity lost) or like an
//!   honest fixed one.

use crate::choker::ConnKey;
use crate::peer_id::PeerId;
use simnet::hash::FastHashMap;
use simnet::rng::SimRng;
use simnet::snapshot::{snap_hash_map, unsnap_hash_map, SnapReader, SnapWriter};

/// The strategy classes the zoo distinguishes (reporting key).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StrategyKind {
    /// Protocol-faithful baseline.
    Honest,
    /// Uploads nothing; lives off optimistic slots.
    FreeRider,
    /// BitTyrant-style strategic unchoker.
    Strategic,
    /// Partial-mobility hybrid (Violaris & Mavromoustakis).
    Hybrid,
}

impl StrategyKind {
    /// Stable lowercase name for tables and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Honest => "honest",
            StrategyKind::FreeRider => "free_rider",
            StrategyKind::Strategic => "strategic",
            StrategyKind::Hybrid => "hybrid",
        }
    }
}

/// Per-peer view handed to the strategy hooks at every rechoke round.
#[derive(Clone, Copy, Debug)]
pub struct StrategyPeer {
    /// Connection key.
    pub key: ConnKey,
    /// The peer's id, once its handshake arrived.
    pub peer_id: Option<PeerId>,
    /// Whether the peer wants data from us.
    pub interested: bool,
    /// The credit the default tit-for-tat policy would hand the choker
    /// (live rate plus weighted relationship history).
    pub credit: f64,
    /// Whether the peer currently has us unchoked (the reciprocation
    /// signal strategic unchokers learn from).
    pub unchoked_us: bool,
    /// Whether we left the previous round with this peer unchoked.
    pub we_unchoked: bool,
}

/// Behaviour hooks a client consults at its decision points. Every hook
/// defaults to the honest identity, so implementing a strategy means
/// overriding only the behaviours it actually perverts.
///
/// Hook map (caller → decision):
///
/// * announce behaviour — [`ClientStrategy::announce_stretch`] scales
///   the tracker-assigned re-announce interval;
/// * unchoke/credit policy — [`ClientStrategy::observe_rechoke`] sees
///   each round's reciprocation state, then
///   [`ClientStrategy::shape_credit`] rewrites the credit the choker
///   ranks by, and [`ClientStrategy::uploads`] gates request service;
/// * request scheduling — [`ClientStrategy::pipeline_cap`] resizes the
///   outstanding-request pipeline;
/// * handoff/identity behaviour — [`ClientStrategy::on_reinit`] runs at
///   every task (re)initiation and [`ClientStrategy::churn_identity`]
///   decides whether the client deliberately regenerates its peer-id
///   even when the world would have retained it.
pub trait ClientStrategy: std::fmt::Debug + Send {
    /// Whether incoming requests are ever served. `false` turns the
    /// client into a leech that ignores all requests (the free-rider
    /// arm), independent of `ClientConfig::allow_upload`.
    fn uploads(&self) -> bool {
        true
    }

    /// Multiplier on the tracker-assigned announce interval. Values
    /// below 1 re-announce early (harvesting fresh peers); 1.0 is the
    /// honest schedule and is guaranteed not to perturb its timing.
    fn announce_stretch(&self) -> f64 {
        1.0
    }

    /// Outstanding-request pipeline size, given the configured cap.
    fn pipeline_cap(&self, configured: usize) -> usize {
        configured
    }

    /// Observes one rechoke round's reciprocation state before the
    /// decision is made (strategic unchokers update their cost
    /// estimates here).
    fn observe_rechoke(&mut self, peers: &[StrategyPeer]) {
        let _ = peers;
    }

    /// Rewrites the credit the choker will rank `peer` by. The honest
    /// policy is the identity.
    fn shape_credit(&self, peer: &StrategyPeer) -> f64 {
        peer.credit
    }

    /// Runs at every task (re)initiation, before the world decides the
    /// client's peer-id. `generation` counts re-initiations; `rng` is
    /// the task's seeded stream (drawing from it is deterministic and
    /// isolated per task).
    fn on_reinit(&mut self, generation: u32, rng: &mut SimRng) {
        let _ = (generation, rng);
    }

    /// Whether this client deliberately regenerates its peer-id at
    /// re-initiation even when identity retention would preserve it
    /// (the address-churn exploit probed by the `exploit` experiment).
    fn churn_identity(&self) -> bool {
        false
    }

    /// Serializes mutable strategy state (snapshot support). Stateless
    /// strategies write nothing.
    fn save(&self, w: &mut SnapWriter) {
        let _ = w;
    }

    /// Restores state written by [`ClientStrategy::save`] onto a fresh
    /// instance of the same strategy.
    fn load(&mut self, r: &mut SnapReader<'_>) {
        let _ = r;
    }
}

/// The protocol-faithful baseline; every hook is the identity, so a
/// client running `Honest` is byte-identical to the pre-zoo client.
#[derive(Clone, Copy, Debug, Default)]
pub struct Honest;

impl ClientStrategy for Honest {}

/// Uploads nothing and lives off optimistic-unchoke grants: ignores
/// every request, keeps a double-sized request pipeline, and
/// re-announces at half the tracker interval to keep meeting peers that
/// have not yet learned it never reciprocates.
#[derive(Clone, Copy, Debug, Default)]
pub struct FreeRider;

impl ClientStrategy for FreeRider {
    fn uploads(&self) -> bool {
        false
    }
    fn announce_stretch(&self) -> f64 {
        0.5
    }
    fn pipeline_cap(&self, configured: usize) -> usize {
        configured.saturating_mul(2)
    }
}

/// BitTyrant-style strategic unchoker.
///
/// Maintains a per-peer-id multiplicative estimate of the *cost* of
/// keeping that peer reciprocating: every round a peer we unchoked also
/// unchokes us, its estimated cost shrinks; every round it takes our
/// slot without reciprocating, the estimate grows. The choker then
/// ranks peers by `credit / cost`, which reallocates upload slots to
/// the cheapest reciprocators first. With `churn` set, the client also
/// regenerates its peer-id at every re-initiation — the address-churn
/// exploit the `exploit` experiment measures.
#[derive(Clone, Debug)]
pub struct BitTyrant {
    /// Estimated standing cost of reciprocation per peer-id.
    cost: FastHashMap<PeerId, f64>,
    /// Deliberately regenerate identity at re-initiation.
    churn: bool,
}

impl BitTyrant {
    /// Cost shrink per reciprocated round.
    const REWARD: f64 = 0.9;
    /// Cost growth per unreciprocated round.
    const PENALTY: f64 = 1.2;
    /// Cost clamp (keeps the ranking finite under long streaks).
    const MIN_COST: f64 = 0.1;
    /// Upper cost clamp.
    const MAX_COST: f64 = 100.0;

    /// A tyrant that plays the identity game honestly.
    pub fn new() -> Self {
        BitTyrant {
            cost: FastHashMap::default(),
            churn: false,
        }
    }

    /// A tyrant that additionally churns its peer-id at every
    /// re-initiation.
    pub fn churning() -> Self {
        BitTyrant {
            cost: FastHashMap::default(),
            churn: true,
        }
    }

    /// The current cost estimate for a peer (1.0 when unknown).
    pub fn cost_of(&self, id: PeerId) -> f64 {
        self.cost.get(&id).copied().unwrap_or(1.0)
    }
}

impl Default for BitTyrant {
    fn default() -> Self {
        BitTyrant::new()
    }
}

impl ClientStrategy for BitTyrant {
    fn observe_rechoke(&mut self, peers: &[StrategyPeer]) {
        for p in peers {
            let Some(id) = p.peer_id else { continue };
            if !p.we_unchoked {
                continue; // no slot spent, nothing learned
            }
            let c = self.cost.entry(id).or_insert(1.0);
            if p.unchoked_us {
                *c = (*c * Self::REWARD).max(Self::MIN_COST);
            } else {
                *c = (*c * Self::PENALTY).min(Self::MAX_COST);
            }
        }
    }
    fn shape_credit(&self, peer: &StrategyPeer) -> f64 {
        let cost = peer.peer_id.map_or(1.0, |id| self.cost_of(id));
        peer.credit / cost
    }
    fn churn_identity(&self) -> bool {
        self.churn
    }
    fn save(&self, w: &mut SnapWriter) {
        snap_hash_map(&self.cost, w);
    }
    fn load(&mut self, r: &mut SnapReader<'_>) {
        self.cost = unsnap_hash_map(r);
    }
}

/// Partial-mobility hybrid: at every task (re)initiation it draws, with
/// probability `degrade`, whether this generation behaves like a
/// degraded mobile client — no uploads and identity lost on the next
/// handoff — or like an honest fixed one. The draw comes from the
/// task's seeded rng, so populations containing hybrids stay replayable.
#[derive(Clone, Copy, Debug)]
pub struct HybridMobility {
    /// Probability a generation degrades to mobile behaviour.
    pub degrade: f64,
    degraded: bool,
}

impl HybridMobility {
    /// A hybrid degrading with probability `degrade` per generation.
    pub fn new(degrade: f64) -> Self {
        HybridMobility {
            degrade,
            degraded: false,
        }
    }

    /// Whether the current generation is in the degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }
}

impl ClientStrategy for HybridMobility {
    fn uploads(&self) -> bool {
        !self.degraded
    }
    fn churn_identity(&self) -> bool {
        self.degraded
    }
    fn on_reinit(&mut self, _generation: u32, rng: &mut SimRng) {
        self.degraded = rng.chance(self.degrade);
    }
    fn save(&self, w: &mut SnapWriter) {
        w.put_bool(self.degraded);
    }
    fn load(&mut self, r: &mut SnapReader<'_>) {
        self.degraded = r.get_bool();
    }
}

/// Seeded population mix: which fraction of a swarm runs which
/// strategy, and how the assignment is drawn.
///
/// [`PopulationMix::assign`] is a pure function of `(mix, seed, index)`
/// — it builds a throwaway rng forked per peer index, so the result
/// does not depend on call order, thread count, or any other peer's
/// assignment. The per-peer draw is a single uniform `u` cut by
/// cumulative thresholds, which makes sweeps over one fraction
/// *nested*: the free-riders at 20% are a superset of the free-riders
/// at 10%, so monotone trends are not confounded by resampling.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PopulationMix {
    /// Fraction of peers running [`FreeRider`].
    pub free_rider: f64,
    /// Fraction running [`BitTyrant`] (honest identity game).
    pub strategic: f64,
    /// Fraction running [`HybridMobility`].
    pub hybrid: f64,
    /// Per-generation degrade probability for the hybrids.
    pub hybrid_degrade: f64,
}

/// Domain-separation salt for the assignment stream.
const MIX_SALT: u64 = 0x5EED_2005;

impl PopulationMix {
    /// The all-honest population.
    pub fn honest() -> Self {
        PopulationMix {
            free_rider: 0.0,
            strategic: 0.0,
            hybrid: 0.0,
            hybrid_degrade: 0.5,
        }
    }

    /// A mix with `free_rider` free-riders and the rest honest.
    pub fn free_riders(free_rider: f64) -> Self {
        PopulationMix {
            free_rider,
            ..PopulationMix::honest()
        }
    }

    /// The strategy class of peer `index` under `seed`. Pure in
    /// `(self, seed, index)`.
    pub fn assign(&self, seed: u64, index: u64) -> StrategyKind {
        let u = SimRng::new(seed ^ MIX_SALT).fork(index).unit();
        if u < self.free_rider {
            StrategyKind::FreeRider
        } else if u < self.free_rider + self.strategic {
            StrategyKind::Strategic
        } else if u < self.free_rider + self.strategic + self.hybrid {
            StrategyKind::Hybrid
        } else {
            StrategyKind::Honest
        }
    }

    /// Builds the strategy instance for peer `index` under `seed`.
    pub fn build(&self, seed: u64, index: u64) -> Box<dyn ClientStrategy> {
        match self.assign(seed, index) {
            StrategyKind::Honest => Box::new(Honest),
            StrategyKind::FreeRider => Box::new(FreeRider),
            StrategyKind::Strategic => Box::new(BitTyrant::new()),
            StrategyKind::Hybrid => Box::new(HybridMobility::new(self.hybrid_degrade)),
        }
    }

    /// Class counts over the first `n` peers (reporting helper).
    pub fn census(&self, seed: u64, n: u64) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for i in 0..n {
            match self.assign(seed, i) {
                StrategyKind::Honest => counts[0] += 1,
                StrategyKind::FreeRider => counts[1] += 1,
                StrategyKind::Strategic => counts[2] += 1,
                StrategyKind::Hybrid => counts[3] += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(id: u8, credit: f64, we_unchoked: bool, unchoked_us: bool) -> StrategyPeer {
        StrategyPeer {
            key: id as u64,
            peer_id: Some(PeerId([id; 20])),
            interested: true,
            credit,
            unchoked_us,
            we_unchoked,
        }
    }

    #[test]
    fn honest_hooks_are_the_identity() {
        let s = Honest;
        assert!(s.uploads());
        assert_eq!(s.announce_stretch(), 1.0);
        assert_eq!(s.pipeline_cap(8), 8);
        assert!(!s.churn_identity());
        let p = peer(1, 123.0, true, false);
        assert_eq!(s.shape_credit(&p), 123.0);
    }

    #[test]
    fn free_rider_never_uploads_and_announces_early() {
        let s = FreeRider;
        assert!(!s.uploads());
        assert!(s.announce_stretch() < 1.0);
        assert_eq!(s.pipeline_cap(8), 16);
    }

    #[test]
    fn tyrant_prefers_cheap_reciprocators() {
        let mut t = BitTyrant::new();
        // Peer 1 reciprocates our unchokes; peer 2 takes the slot and
        // gives nothing back.
        let rounds = [
            peer(1, 100.0, true, true),
            peer(2, 100.0, true, false),
        ];
        for _ in 0..5 {
            t.observe_rechoke(&rounds);
        }
        assert!(t.cost_of(PeerId([1; 20])) < 1.0);
        assert!(t.cost_of(PeerId([2; 20])) > 1.0);
        // Equal raw credit now ranks the reciprocator strictly higher.
        assert!(t.shape_credit(&rounds[0]) > t.shape_credit(&rounds[1]));
        // Costs stay clamped under arbitrary streaks.
        for _ in 0..1000 {
            t.observe_rechoke(&rounds);
        }
        assert!(t.cost_of(PeerId([1; 20])) >= BitTyrant::MIN_COST);
        assert!(t.cost_of(PeerId([2; 20])) <= BitTyrant::MAX_COST);
    }

    #[test]
    fn unspent_slots_teach_the_tyrant_nothing() {
        let mut t = BitTyrant::new();
        t.observe_rechoke(&[peer(3, 10.0, false, true)]);
        assert_eq!(t.cost_of(PeerId([3; 20])), 1.0);
    }

    #[test]
    fn hybrid_degrade_follows_the_seeded_draw() {
        let mut h = HybridMobility::new(0.5);
        let mut rng = SimRng::new(7);
        let mut saw_degraded = false;
        let mut saw_honest = false;
        for generation in 0..64 {
            h.on_reinit(generation, &mut rng);
            assert_eq!(h.uploads(), !h.is_degraded());
            assert_eq!(h.churn_identity(), h.is_degraded());
            saw_degraded |= h.is_degraded();
            saw_honest |= !h.is_degraded();
        }
        assert!(saw_degraded && saw_honest, "p=0.5 over 64 draws hit both");
        // The always/never endpoints are deterministic.
        let mut always = HybridMobility::new(1.0);
        always.on_reinit(0, &mut rng);
        assert!(always.is_degraded());
        let mut never = HybridMobility::new(0.0);
        never.on_reinit(0, &mut rng);
        assert!(!never.is_degraded());
    }

    #[test]
    fn assignment_is_pure_and_call_order_free() {
        let mix = PopulationMix {
            free_rider: 0.25,
            strategic: 0.25,
            hybrid: 0.25,
            hybrid_degrade: 0.5,
        };
        let forward: Vec<StrategyKind> = (0..200).map(|i| mix.assign(42, i)).collect();
        let backward: Vec<StrategyKind> = (0..200).rev().map(|i| mix.assign(42, i)).collect();
        for (i, kind) in forward.iter().enumerate() {
            assert_eq!(*kind, backward[199 - i], "index {i} depends on call order");
            // And re-evaluating any single index is stable in isolation.
            assert_eq!(*kind, mix.assign(42, i as u64));
        }
        // All four classes are realised at these fractions.
        let counts = mix.census(42, 200);
        assert!(counts.iter().all(|&c| c > 0), "census {counts:?}");
        // A different seed yields a different assignment somewhere.
        assert!((0..200).any(|i| mix.assign(42, i) != mix.assign(43, i)));
    }

    #[test]
    fn fraction_sweeps_are_nested() {
        // Every free-rider at 10% is still a free-rider at 20%, 30%, 40%:
        // the per-peer uniform is cut by a growing threshold, never
        // resampled.
        let shares = [0.1, 0.2, 0.3, 0.4];
        for w in shares.windows(2) {
            let lo = PopulationMix::free_riders(w[0]);
            let hi = PopulationMix::free_riders(w[1]);
            for i in 0..500 {
                if lo.assign(7, i) == StrategyKind::FreeRider {
                    assert_eq!(
                        hi.assign(7, i),
                        StrategyKind::FreeRider,
                        "peer {i} lost free-rider status as the share grew"
                    );
                }
            }
        }
        // And the realised share grows with the nominal one.
        let lo = PopulationMix::free_riders(0.1).census(7, 500)[1];
        let hi = PopulationMix::free_riders(0.4).census(7, 500)[1];
        assert!(lo < hi, "census {lo} !< {hi}");
    }

    #[test]
    fn strategy_state_round_trips_through_snapshots() {
        let mut t = BitTyrant::churning();
        t.observe_rechoke(&[peer(1, 10.0, true, true), peer(2, 10.0, true, false)]);
        let mut w = SnapWriter::new(0);
        t.save(&mut w);
        let blob = w.into_bytes();
        let mut fresh = BitTyrant::churning();
        fresh.load(&mut SnapReader::new(&blob, 0));
        assert_eq!(fresh.cost_of(PeerId([1; 20])), t.cost_of(PeerId([1; 20])));
        assert_eq!(fresh.cost_of(PeerId([2; 20])), t.cost_of(PeerId([2; 20])));

        let mut h = HybridMobility::new(1.0);
        h.on_reinit(0, &mut SimRng::new(1));
        let mut w = SnapWriter::new(0);
        h.save(&mut w);
        let blob = w.into_bytes();
        let mut fresh = HybridMobility::new(1.0);
        fresh.load(&mut SnapReader::new(&blob, 0));
        assert!(fresh.is_degraded());
    }
}
