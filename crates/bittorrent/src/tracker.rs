//! The tracker: per-torrent directory server (paper §2.2).
//!
//! The tracker maintains, for each info-hash it tracks, the set of peers
//! currently in the swarm, and answers announces with up to
//! `max_peers_returned` (50 by default — the number the paper cites)
//! addresses. Peers that stop announcing expire after a multiple of the
//! announce interval; this *tens-of-minutes* staleness is why a fixed peer
//! keeps trying a vanished mobile server for so long (paper §3.5).
//!
//! At service scale many trackers share the announce load: a
//! [`TrackerTier`] routes each info-hash to a deterministic shard (FNV
//! fold of the hash bytes, reduced modulo the shard count), so a single
//! shard outage is a *partial*-service fault that dims only the swarms it
//! owns.

use crate::metainfo::InfoHash;
use crate::peer_id::PeerId;
use simnet::addr::SimAddr;
use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};

/// Tracker parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrackerConfig {
    /// Interval clients are told to re-announce at.
    pub announce_interval: SimDuration,
    /// Floor the response advertises for *early* re-announces (the
    /// `min interval` key): a client that lost all its connections may
    /// re-announce this soon, but no sooner.
    pub min_interval: SimDuration,
    /// Maximum peers returned per announce (the paper cites 50).
    pub max_peers_returned: usize,
    /// A peer missing this many intervals is dropped from the swarm.
    pub expiry_intervals: u32,
    /// Multiplicative jitter spread applied to the interval each
    /// announce response carries, so a swarm's re-announces desynchronise
    /// instead of stampeding the tracker in lockstep. `0.0` (the
    /// default) draws nothing from the RNG — byte-identical to the
    /// fixed-interval behaviour.
    pub interval_jitter: f64,
    /// Overload shedding: announces a shard absorbs per
    /// [`TrackerConfig::shed_window`] before it pushes back. Past the
    /// capacity, responses carry `interval`/`min_interval` scaled by the
    /// overload ratio (capped at [`TrackerConfig::shed_max_scale`]), so
    /// a flash crowd degrades announce *freshness* instead of toppling
    /// the shard. `0` (the default) disables shedding — responses are
    /// byte-identical to the unshedded tracker.
    pub shed_capacity: u64,
    /// Load-accounting window for [`TrackerConfig::shed_capacity`].
    pub shed_window: SimDuration,
    /// Upper bound on the shedding interval multiplier.
    pub shed_max_scale: u32,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            announce_interval: SimDuration::from_mins(15),
            min_interval: SimDuration::from_secs(60),
            max_peers_returned: 50,
            expiry_intervals: 2,
            interval_jitter: 0.0,
            shed_capacity: 0,
            shed_window: SimDuration::from_secs(60),
            shed_max_scale: 8,
        }
    }
}

/// Announce event types (BEP 3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AnnounceEvent {
    /// Joining the swarm.
    Started,
    /// Leaving the swarm.
    Stopped,
    /// Download finished (now a seed).
    Completed,
    /// Routine periodic announce.
    Periodic,
}

/// One announce, as the client would put it on the wire (the fields of
/// the announce URL, minus the byte counters the simulator doesn't
/// model).
#[derive(Clone, Copy, Debug)]
pub struct AnnounceRequest {
    /// The swarm being announced to.
    pub info_hash: InfoHash,
    /// The announcing peer's identity.
    pub peer_id: PeerId,
    /// The address other peers should dial.
    pub addr: SimAddr,
    /// What prompted the announce.
    pub event: AnnounceEvent,
    /// Whether the peer holds the complete file (`left == 0`).
    pub is_seed: bool,
}

/// One tracked swarm member.
#[derive(Clone, Copy, Debug)]
struct TrackedPeer {
    addr: SimAddr,
    last_seen: SimTime,
    seed: bool,
}

/// Response to an announce.
#[derive(Clone, Debug)]
pub struct AnnounceResponse {
    /// Seconds until the client should re-announce.
    pub interval: SimDuration,
    /// Floor for early re-announces. [`SimDuration::ZERO`] means the
    /// tracker did not specify one (clients keep whatever floor they
    /// last learned), matching the key's optionality on the wire.
    pub min_interval: SimDuration,
    /// A random subset of other swarm members.
    pub peers: Vec<(PeerId, SimAddr)>,
    /// Seeds currently tracked in the swarm.
    pub complete: usize,
    /// Leeches currently tracked in the swarm.
    pub incomplete: usize,
}

/// Aggregate swarm statistics returned by a scrape request (the
/// `/scrape` convention real trackers expose).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrapeStats {
    /// Seeds currently tracked.
    pub complete: usize,
    /// Leeches currently tracked.
    pub incomplete: usize,
    /// `Completed` events ever recorded (historical downloads).
    pub downloaded: u64,
}

/// One swarm's membership, laid out for O(1) announces at any size.
///
/// Members live in a dense vector (removal is swap-remove, with the
/// moved member's index patched in `members`); the seed count is kept
/// incrementally; expiry is lazy via a time-ordered queue rather than a
/// full-map retain per announce. A 65k-peer swarm thus serves an
/// announce in O(peers returned), not O(swarm size).
#[derive(Debug, Clone, Default)]
struct Swarm {
    /// Peer-id → index into `list`.
    members: HashMap<PeerId, u32>,
    /// Dense member store; order is insertion-ish (perturbed by
    /// swap-removes) and never exposed directly.
    list: Vec<(PeerId, TrackedPeer)>,
    /// How many members of `list` are seeds, maintained incrementally.
    seeds: usize,
    /// `(last_seen, id)` entries in announce order. A member's newest
    /// entry matches its `last_seen` exactly; older duplicates are
    /// skipped at pop time.
    expiry: VecDeque<(SimTime, PeerId)>,
}

impl Swarm {
    /// Removes the member at dense index `idx`, patching the index of
    /// whichever member the swap-remove moved into its slot.
    fn remove_at(&mut self, idx: u32) {
        let i = idx as usize;
        let (id, peer) = self.list[i];
        if peer.seed {
            self.seeds -= 1;
        }
        self.members.remove(&id);
        self.list.swap_remove(i);
        if i < self.list.len() {
            let moved = self.list[i].0;
            *self.members.get_mut(&moved).expect("moved member indexed") = idx;
        }
    }

    /// Drops every member silent for longer than `horizon` before `now`.
    /// Amortised O(1) per announce: each queue entry is popped exactly
    /// once, and announces push exactly one entry.
    fn expire(&mut self, now: SimTime, horizon: SimDuration) {
        while let Some(&(seen, id)) = self.expiry.front() {
            if now.saturating_since(seen) <= horizon {
                break;
            }
            self.expiry.pop_front();
            if let Some(&idx) = self.members.get(&id) {
                // Only the member's *newest* queue entry may expire it;
                // older entries are superseded by a later re-announce.
                if self.list[idx as usize].1.last_seen == seen {
                    self.remove_at(idx);
                }
            }
        }
    }
}

/// Swarms advanced by the cross-swarm expiry sweep per announce. Two
/// keeps the sweep ahead of swarm creation (each announce can create at
/// most one swarm) so every swarm is visited at least once per
/// tier-wide announce round.
const SWEEP_PER_ANNOUNCE: usize = 2;

/// A tracker serving any number of swarms.
#[derive(Debug, Clone)]
pub struct Tracker {
    config: TrackerConfig,
    swarms: HashMap<InfoHash, Swarm>,
    announces: u64,
    /// Historical `Completed` counts per swarm.
    downloads: HashMap<InfoHash, u64>,
    /// Swarms in creation order; drives the rotating expiry sweep so a
    /// swarm that stops receiving announces still sheds stale members
    /// while the tracker serves *other* swarms.
    order: Vec<InfoHash>,
    /// Next `order` index the sweep visits.
    sweep_cursor: usize,
    /// Start of the current load-accounting window (overload shedding).
    window_start: SimTime,
    /// Announces absorbed in the current window.
    window_count: u64,
    /// Responses that went out with a shedding-scaled interval.
    sheds: u64,
}

impl Tracker {
    /// Creates a tracker.
    pub fn new(config: TrackerConfig) -> Self {
        Tracker {
            config,
            swarms: HashMap::new(),
            announces: 0,
            downloads: HashMap::new(),
            order: Vec::new(),
            sweep_cursor: 0,
            window_start: SimTime::ZERO,
            window_count: 0,
            sheds: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrackerConfig {
        &self.config
    }

    /// Total announces served.
    pub fn announces(&self) -> u64 {
        self.announces
    }

    /// Responses served with a shedding-scaled interval.
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Advances the load window and returns the interval multiplier for
    /// the announce being served: `1` while within capacity (or with
    /// shedding off), else the overload ratio capped at
    /// `shed_max_scale`. Pure arithmetic — no RNG.
    fn shed_scale(&mut self, now: SimTime) -> u64 {
        if now.saturating_since(self.window_start) >= self.config.shed_window {
            self.window_start = now;
            self.window_count = 0;
        }
        self.window_count += 1;
        let cap = self.config.shed_capacity;
        if cap == 0 || self.window_count <= cap {
            return 1;
        }
        self.sheds += 1;
        self.window_count
            .div_ceil(cap)
            .min(u64::from(self.config.shed_max_scale.max(1)))
    }

    /// Current size of a swarm (after expiry at `now`).
    pub fn swarm_size(&mut self, info_hash: InfoHash, now: SimTime) -> usize {
        self.expire(info_hash, now);
        self.swarms.get(&info_hash).map_or(0, |s| s.list.len())
    }

    fn horizon(&self) -> SimDuration {
        self.config
            .announce_interval
            .saturating_mul(self.config.expiry_intervals as u64)
    }

    fn expire(&mut self, info_hash: InfoHash, now: SimTime) {
        let horizon = self.horizon();
        if let Some(swarm) = self.swarms.get_mut(&info_hash) {
            swarm.expire(now, horizon);
        }
    }

    /// Advances the rotating cross-swarm expiry sweep: visits the next
    /// [`SWEEP_PER_ANNOUNCE`] swarms in creation order and expires their
    /// silent members. Idempotent and RNG-free, so it never perturbs
    /// announce responses — it only stops a swarm nobody announces to
    /// from serving arbitrarily stale (mobile) addresses to readers.
    fn sweep(&mut self, now: SimTime) {
        if self.order.is_empty() {
            return;
        }
        let horizon = self.horizon();
        for _ in 0..SWEEP_PER_ANNOUNCE.min(self.order.len()) {
            if self.sweep_cursor >= self.order.len() {
                self.sweep_cursor = 0;
            }
            let ih = self.order[self.sweep_cursor];
            if let Some(swarm) = self.swarms.get_mut(&ih) {
                swarm.expire(now, horizon);
            }
            self.sweep_cursor += 1;
        }
    }

    /// Handles an announce and returns the peer list.
    ///
    /// The requesting peer is never included in its own response. Note that
    /// the tracker keys members by peer-id: a mobile host that re-announces
    /// under a fresh id after a hand-off leaves its stale entry (old id,
    /// unroutable address) in the swarm until expiry — fixed peers keep
    /// receiving, and trying, that dead address.
    pub fn announce(
        &mut self,
        req: &AnnounceRequest,
        now: SimTime,
        rng: &mut SimRng,
    ) -> AnnounceResponse {
        self.announces += 1;
        self.expire(req.info_hash, now);
        self.sweep(now);
        if req.event == AnnounceEvent::Completed {
            *self.downloads.entry(req.info_hash).or_insert(0) += 1;
        }
        let swarm = match self.swarms.entry(req.info_hash) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                self.order.push(req.info_hash);
                e.insert(Swarm::default())
            }
        };
        match req.event {
            AnnounceEvent::Stopped => {
                if let Some(&idx) = swarm.members.get(&req.peer_id) {
                    swarm.remove_at(idx);
                }
            }
            AnnounceEvent::Started | AnnounceEvent::Completed | AnnounceEvent::Periodic => {
                let seed = req.is_seed || req.event == AnnounceEvent::Completed;
                let entry = TrackedPeer {
                    addr: req.addr,
                    last_seen: now,
                    seed,
                };
                match swarm.members.get(&req.peer_id) {
                    Some(&idx) => {
                        let p = &mut swarm.list[idx as usize].1;
                        match (p.seed, seed) {
                            (false, true) => swarm.seeds += 1,
                            (true, false) => swarm.seeds -= 1,
                            _ => {}
                        }
                        *p = entry;
                    }
                    None => {
                        let idx = u32::try_from(swarm.list.len()).expect("swarm fits in u32");
                        swarm.members.insert(req.peer_id, idx);
                        swarm.list.push((req.peer_id, entry));
                        swarm.seeds += usize::from(seed);
                    }
                }
                swarm.expiry.push_back((now, req.peer_id));
            }
        }
        let cap = self.config.max_peers_returned;
        let requester = swarm.members.get(&req.peer_id).copied();
        let others_count = swarm.list.len() - usize::from(requester.is_some());
        let others: Vec<(PeerId, SimAddr)> = if others_count <= cap {
            // Small swarm: return everyone else, in random order (sort
            // first so the shuffle sees a reproducible arrangement).
            let mut all: Vec<(PeerId, SimAddr)> = swarm
                .list
                .iter()
                .filter(|(id, _)| *id != req.peer_id)
                .map(|(id, p)| (*id, p.addr))
                .collect();
            all.sort_by_key(|(id, _)| *id);
            rng.shuffle(&mut all);
            all
        } else {
            // Large swarm: rejection-sample `cap` distinct members
            // instead of shuffling the whole population — O(cap), not
            // O(n log n), which is what lets a 65k swarm announce fast.
            let n = swarm.list.len();
            let mut chosen: Vec<u32> = Vec::with_capacity(cap);
            while chosen.len() < cap {
                let idx = rng.range(0..n) as u32;
                if requester == Some(idx) || chosen.contains(&idx) {
                    continue;
                }
                chosen.push(idx);
            }
            chosen
                .into_iter()
                .map(|i| {
                    let (id, p) = swarm.list[i as usize];
                    (id, p.addr)
                })
                .collect()
        };
        let complete = swarm.seeds;
        let incomplete = swarm.list.len() - complete;
        let base = self.config.announce_interval;
        let interval = if self.config.interval_jitter == 0.0 {
            base // no RNG draw: keeps jitterless streams untouched
        } else {
            SimDuration::from_secs_f64(
                rng.jitter(base.as_secs_f64(), self.config.interval_jitter),
            )
        };
        // Overload shedding: past capacity the response stretches both
        // pacing knobs, so the crowd thins its own announce rate.
        let scale = self.shed_scale(now);
        AnnounceResponse {
            interval: interval.saturating_mul(scale),
            min_interval: self.config.min_interval.saturating_mul(scale),
            peers: others,
            complete,
            incomplete,
        }
    }
}

impl AnnounceResponse {
    /// Encodes the response in the tracker HTTP wire format: a bencoded
    /// dictionary with BEP 23 *compact* peers (6 bytes per peer: 4-byte
    /// address + 2-byte port; the simulator uses a fixed port of 6881).
    /// The `min interval` key is written only when specified (non-zero),
    /// matching its optionality in real tracker responses.
    pub fn to_bencode(&self) -> crate::bencode::Value {
        use crate::bencode::Value;
        use std::collections::BTreeMap;
        let mut peers = Vec::with_capacity(self.peers.len() * 6);
        for &(_, addr) in &self.peers {
            peers.extend_from_slice(&addr.0.to_be_bytes());
            peers.extend_from_slice(&6881u16.to_be_bytes());
        }
        let mut d = BTreeMap::new();
        d.insert(b"complete".to_vec(), Value::Int(self.complete as i64));
        d.insert(b"incomplete".to_vec(), Value::Int(self.incomplete as i64));
        d.insert(
            b"interval".to_vec(),
            Value::Int(self.interval.as_secs_f64() as i64),
        );
        if !self.min_interval.is_zero() {
            d.insert(
                b"min interval".to_vec(),
                Value::Int(self.min_interval.as_secs_f64() as i64),
            );
        }
        d.insert(b"peers".to_vec(), Value::Bytes(peers));
        Value::Dict(d)
    }

    /// Decodes a compact tracker response produced by
    /// [`AnnounceResponse::to_bencode`] (peer-ids are not carried by the
    /// compact format and come back as zeroed placeholders, exactly as
    /// with real BEP 23 trackers).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the dictionary is malformed.
    pub fn from_bencode(v: &crate::bencode::Value) -> Result<AnnounceResponse, String> {
        use crate::bencode::Value;
        let int = |key: &str| -> Result<i64, String> {
            v.get(key)
                .and_then(Value::as_int)
                .ok_or_else(|| format!("missing integer `{key}`"))
        };
        let interval = int("interval")?;
        if interval < 0 {
            return Err("negative interval".into());
        }
        let min_interval = match v.get("min interval").and_then(Value::as_int) {
            Some(s) if s < 0 => return Err("negative min interval".into()),
            Some(s) => SimDuration::from_secs(s as u64),
            None => SimDuration::ZERO,
        };
        let raw = v
            .get("peers")
            .and_then(Value::as_bytes)
            .ok_or("missing `peers`")?;
        if raw.len() % 6 != 0 {
            return Err("compact peers not a multiple of 6 bytes".into());
        }
        let peers = raw
            .chunks_exact(6)
            .map(|c| {
                let addr = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
                (PeerId([0; 20]), SimAddr(addr))
            })
            .collect();
        Ok(AnnounceResponse {
            interval: SimDuration::from_secs(interval as u64),
            min_interval,
            peers,
            complete: int("complete")?.max(0) as usize,
            incomplete: int("incomplete")?.max(0) as usize,
        })
    }
}

impl Tracker {
    /// Answers a scrape request: aggregate counts for one swarm.
    pub fn scrape(&mut self, info_hash: InfoHash, now: SimTime) -> ScrapeStats {
        self.expire(info_hash, now);
        let (complete, incomplete) = self
            .swarms
            .get(&info_hash)
            .map(|s| (s.seeds, s.list.len() - s.seeds))
            .unwrap_or((0, 0));
        ScrapeStats {
            complete,
            incomplete,
            downloaded: self.downloads.get(&info_hash).copied().unwrap_or(0),
        }
    }
}

/// Deterministic shard index for an info-hash: an FNV-1a fold of the 20
/// hash bytes, finished with a splitmix64-style avalanche (FNV's low
/// bits disperse poorly modulo power-of-two shard counts), reduced
/// modulo the shard count. Pure function of the bytes — stable across
/// runs, thread counts, and snapshot restores.
pub fn shard_of(info_hash: InfoHash, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &info_hash.0 {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    (h % shards as u64) as usize
}

/// Deterministic *secondary* (replica) shard for an info-hash:
/// an independent second hash (FNV-1a with the alternate 64-bit prime
/// offset basis, same avalanche) reduced modulo `shards − 1` and then
/// skipped past the primary, so the secondary is **guaranteed distinct**
/// from [`shard_of`] whenever the tier has more than one shard. With a
/// single shard there is nowhere else to go and the primary is returned.
pub fn secondary_shard_of(info_hash: InfoHash, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    if shards == 1 {
        return 0;
    }
    let primary = shard_of(info_hash, shards);
    let mut h: u64 = 0x6c62_272e_07bb_0142;
    for &b in &info_hash.0 {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    let slot = (h % (shards as u64 - 1)) as usize;
    if slot >= primary {
        slot + 1
    } else {
        slot
    }
}

/// A tier of tracker shards, each owning a deterministic slice of the
/// info-hash space (see [`shard_of`]). Routing is transparent to
/// callers: the tier exposes the same announce/scrape surface as a
/// single [`Tracker`], plus per-shard load counters and a per-shard
/// outage toggle (a *partial*-service fault — only the swarms the dark
/// shard owns lose their tracker).
#[derive(Debug, Clone)]
pub struct TrackerTier {
    shards: Vec<Tracker>,
    down: Vec<bool>,
}

impl TrackerTier {
    /// Creates a tier of `shards` trackers (at least one), all sharing
    /// one configuration.
    pub fn new(config: TrackerConfig, shards: usize) -> Self {
        let n = shards.max(1);
        TrackerTier {
            shards: (0..n).map(|_| Tracker::new(config)).collect(),
            down: vec![false; n],
        }
    }

    /// Number of shards in the tier.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `info_hash`.
    pub fn shard_for(&self, info_hash: InfoHash) -> usize {
        shard_of(info_hash, self.shards.len())
    }

    /// The replica shard for `info_hash` — distinct from
    /// [`TrackerTier::shard_for`] whenever the tier has more than one
    /// shard (see [`secondary_shard_of`]).
    pub fn secondary_shard_for(&self, info_hash: InfoHash) -> usize {
        secondary_shard_of(info_hash, self.shards.len())
    }

    /// Failover routing: the shard an announce for `info_hash` should
    /// land on. The primary while it is up; with `replicas` enabled, the
    /// secondary while the primary is dark; `None` when every eligible
    /// shard is down (the announce fails and the client backs off).
    pub fn route_for(&self, info_hash: InfoHash, replicas: bool) -> Option<usize> {
        let primary = self.shard_for(info_hash);
        if !self.down[primary] {
            return Some(primary);
        }
        if replicas {
            let secondary = self.secondary_shard_for(info_hash);
            if !self.down[secondary] {
                return Some(secondary);
            }
        }
        None
    }

    /// The configuration in use (shared by every shard).
    pub fn config(&self) -> &TrackerConfig {
        self.shards[0].config()
    }

    /// Routes an announce to the owning shard. Callers model shard
    /// outages *before* announcing (see [`TrackerTier::is_down_for`]);
    /// the tier itself always answers.
    pub fn announce(
        &mut self,
        req: &AnnounceRequest,
        now: SimTime,
        rng: &mut SimRng,
    ) -> AnnounceResponse {
        let s = self.shard_for(req.info_hash);
        self.shards[s].announce(req, now, rng)
    }

    /// An announce routed to an explicit shard — the failover path, where
    /// the caller picked the shard via [`TrackerTier::route_for`].
    pub fn announce_on(
        &mut self,
        shard: usize,
        req: &AnnounceRequest,
        now: SimTime,
        rng: &mut SimRng,
    ) -> AnnounceResponse {
        self.shards[shard].announce(req, now, rng)
    }

    /// Shed responses served by one shard (overload-shedding telemetry).
    pub fn shard_sheds(&self, shard: usize) -> u64 {
        self.shards[shard].sheds()
    }

    /// Current size of a swarm (after expiry at `now`).
    pub fn swarm_size(&mut self, info_hash: InfoHash, now: SimTime) -> usize {
        let s = self.shard_for(info_hash);
        self.shards[s].swarm_size(info_hash, now)
    }

    /// Scrape, routed to the owning shard.
    pub fn scrape(&mut self, info_hash: InfoHash, now: SimTime) -> ScrapeStats {
        let s = self.shard_for(info_hash);
        self.shards[s].scrape(info_hash, now)
    }

    /// Total announces served across all shards.
    pub fn announces(&self) -> u64 {
        self.shards.iter().map(Tracker::announces).sum()
    }

    /// Announces served by one shard (its load series sample).
    pub fn shard_announces(&self, shard: usize) -> u64 {
        self.shards[shard].announces()
    }

    /// Marks one shard up or down. While down, the worlds drop announces
    /// routed to it (partial-service fault).
    pub fn set_shard_down(&mut self, shard: usize, down: bool) {
        self.down[shard] = down;
    }

    /// Whether a specific shard is down.
    pub fn shard_is_down(&self, shard: usize) -> bool {
        self.down[shard]
    }

    /// Whether the shard owning `info_hash` is down.
    pub fn is_down_for(&self, info_hash: InfoHash) -> bool {
        self.down[self.shard_for(info_hash)]
    }
}

use simnet::snapshot::{snap_enum, snap_struct, Snap, SnapReader, SnapWriter};

snap_struct!(TrackerConfig {
    announce_interval,
    min_interval,
    max_peers_returned,
    expiry_intervals,
    interval_jitter,
    shed_capacity,
    shed_window,
    shed_max_scale,
});

snap_enum!(AnnounceEvent {
    0 => Started,
    1 => Stopped,
    2 => Completed,
    3 => Periodic,
});

snap_struct!(TrackedPeer {
    addr,
    last_seen,
    seed,
});

impl Snap for Swarm {
    // The dense `list` order is load-bearing (rejection sampling indexes
    // into it), so it rides verbatim; `members` and `seeds` are derived
    // from it on restore.
    fn snap(&self, w: &mut SnapWriter) {
        self.list.snap(w);
        self.expiry.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        let list: Vec<(PeerId, TrackedPeer)> = Snap::unsnap(r);
        let expiry = Snap::unsnap(r);
        let mut members = HashMap::with_capacity(list.len());
        let mut seeds = 0;
        for (i, (id, p)) in list.iter().enumerate() {
            members.insert(*id, i as u32);
            seeds += usize::from(p.seed);
        }
        Swarm {
            members,
            list,
            seeds,
            expiry,
        }
    }
}

snap_struct!(Tracker {
    config,
    swarms,
    announces,
    downloads,
    order,
    sweep_cursor,
    window_start,
    window_count,
    sheds,
});

snap_struct!(TrackerTier {
    shards,
    down,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u8) -> Vec<PeerId> {
        (0..n).map(|i| PeerId([i; 20])).collect()
    }

    fn req(ih: InfoHash, id: PeerId, addr: SimAddr, event: AnnounceEvent) -> AnnounceRequest {
        AnnounceRequest {
            info_hash: ih,
            peer_id: id,
            addr,
            event,
            is_seed: false,
        }
    }

    fn seed_req(ih: InfoHash, id: PeerId, addr: SimAddr, event: AnnounceEvent) -> AnnounceRequest {
        AnnounceRequest {
            is_seed: true,
            ..req(ih, id, addr, event)
        }
    }

    #[test]
    fn announce_registers_and_lists_others() {
        let mut tr = Tracker::new(TrackerConfig::default());
        let mut rng = SimRng::new(0);
        let ih = InfoHash([1; 20]);
        let ids = ids(3);
        let t = SimTime::ZERO;
        for (i, id) in ids.iter().enumerate() {
            tr.announce(
                &req(ih, *id, SimAddr(i as u32), AnnounceEvent::Started),
                t,
                &mut rng,
            );
        }
        let resp = tr.announce(
            &req(ih, ids[0], SimAddr(0), AnnounceEvent::Periodic),
            t,
            &mut rng,
        );
        assert_eq!(resp.peers.len(), 2);
        assert!(resp.peers.iter().all(|(id, _)| *id != ids[0]));
        assert_eq!(resp.min_interval, TrackerConfig::default().min_interval);
        assert_eq!(tr.swarm_size(ih, t), 3);
    }

    #[test]
    fn response_is_capped_at_max_peers() {
        let mut tr = Tracker::new(TrackerConfig {
            max_peers_returned: 50,
            ..Default::default()
        });
        let mut rng = SimRng::new(1);
        let ih = InfoHash([2; 20]);
        let t = SimTime::ZERO;
        for i in 0..200u32 {
            let mut id = [0u8; 20];
            id[..4].copy_from_slice(&i.to_be_bytes());
            tr.announce(
                &req(ih, PeerId(id), SimAddr(i), AnnounceEvent::Started),
                t,
                &mut rng,
            );
        }
        let resp = tr.announce(
            &req(ih, PeerId([255; 20]), SimAddr(999), AnnounceEvent::Started),
            t,
            &mut rng,
        );
        assert_eq!(resp.peers.len(), 50);
        assert_eq!(resp.incomplete, 201);
    }

    #[test]
    fn stopped_removes_peer() {
        let mut tr = Tracker::new(TrackerConfig::default());
        let mut rng = SimRng::new(0);
        let ih = InfoHash([3; 20]);
        let id = PeerId([9; 20]);
        let t = SimTime::ZERO;
        tr.announce(&req(ih, id, SimAddr(1), AnnounceEvent::Started), t, &mut rng);
        assert_eq!(tr.swarm_size(ih, t), 1);
        tr.announce(&req(ih, id, SimAddr(1), AnnounceEvent::Stopped), t, &mut rng);
        assert_eq!(tr.swarm_size(ih, t), 0);
    }

    #[test]
    fn silent_peers_expire() {
        let cfg = TrackerConfig {
            announce_interval: SimDuration::from_mins(10),
            expiry_intervals: 2,
            ..Default::default()
        };
        let mut tr = Tracker::new(cfg);
        let mut rng = SimRng::new(0);
        let ih = InfoHash([4; 20]);
        let id = PeerId([1; 20]);
        tr.announce(
            &req(ih, id, SimAddr(1), AnnounceEvent::Started),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(tr.swarm_size(ih, SimTime::from_secs(19 * 60)), 1);
        assert_eq!(
            tr.swarm_size(ih, SimTime::from_secs(21 * 60)),
            0,
            "expired after 2 intervals"
        );
    }

    #[test]
    fn sweep_expires_swarms_nobody_announces_to() {
        // The cross-swarm staleness fix: a swarm whose members all go
        // silent is still cleaned up by announces to *other* swarms, so
        // a reader never sees arbitrarily stale mobile addresses.
        let cfg = TrackerConfig {
            announce_interval: SimDuration::from_mins(10),
            expiry_intervals: 2,
            ..Default::default()
        };
        let mut tr = Tracker::new(cfg);
        let mut rng = SimRng::new(0);
        let quiet = InfoHash([1; 20]);
        let busy = InfoHash([2; 20]);
        tr.announce(
            &req(quiet, PeerId([1; 20]), SimAddr(1), AnnounceEvent::Started),
            SimTime::ZERO,
            &mut rng,
        );
        tr.announce(
            &req(busy, PeerId([2; 20]), SimAddr(2), AnnounceEvent::Started),
            SimTime::ZERO,
            &mut rng,
        );
        // Announce only to `busy`, well past `quiet`'s horizon. The
        // rotating sweep visits `quiet` as a side effect.
        let late = SimTime::from_secs(30 * 60);
        tr.announce(
            &req(busy, PeerId([2; 20]), SimAddr(2), AnnounceEvent::Periodic),
            late,
            &mut rng,
        );
        let quiet_swarm = tr.swarms.get(&quiet).expect("swarm map entry persists");
        assert!(
            quiet_swarm.list.is_empty(),
            "sweep dropped the silent member without an announce to its swarm"
        );
    }

    #[test]
    fn handoff_leaves_stale_entry_under_old_id() {
        // The paper's server-mobility pathology: after an address change
        // with a regenerated peer-id, the dead address lingers.
        let mut tr = Tracker::new(TrackerConfig::default());
        let mut rng = SimRng::new(0);
        let ih = InfoHash([5; 20]);
        let old = PeerId([1; 20]);
        let new = PeerId([2; 20]);
        let t = SimTime::ZERO;
        tr.announce(&req(ih, old, SimAddr(10), AnnounceEvent::Started), t, &mut rng);
        // Hand-off: same host, new id + addr.
        tr.announce(&req(ih, new, SimAddr(20), AnnounceEvent::Started), t, &mut rng);
        assert_eq!(tr.swarm_size(ih, t), 2, "stale entry remains");
        // With identity retention (same id), the entry is replaced instead.
        tr.announce(&req(ih, old, SimAddr(30), AnnounceEvent::Started), t, &mut rng);
        let resp = tr.announce(&req(ih, new, SimAddr(20), AnnounceEvent::Periodic), t, &mut rng);
        let addr_of_old = resp.peers.iter().find(|(id, _)| *id == old).unwrap().1;
        assert_eq!(addr_of_old, SimAddr(30), "address updated in place");
    }

    #[test]
    fn scrape_reports_aggregates() {
        let mut tr = Tracker::new(TrackerConfig::default());
        let mut rng = SimRng::new(0);
        let ih = InfoHash([9; 20]);
        let t = SimTime::ZERO;
        tr.announce(
            &seed_req(ih, PeerId([1; 20]), SimAddr(1), AnnounceEvent::Started),
            t,
            &mut rng,
        );
        tr.announce(
            &req(ih, PeerId([2; 20]), SimAddr(2), AnnounceEvent::Started),
            t,
            &mut rng,
        );
        tr.announce(
            &req(ih, PeerId([2; 20]), SimAddr(2), AnnounceEvent::Completed),
            t,
            &mut rng,
        );
        let s = tr.scrape(ih, t);
        assert_eq!(s.complete, 2);
        assert_eq!(s.incomplete, 0);
        assert_eq!(s.downloaded, 1);
        // Unknown swarm scrapes clean.
        assert_eq!(tr.scrape(InfoHash([0; 20]), t), ScrapeStats::default());
    }

    #[test]
    fn announce_response_wire_roundtrip() {
        let resp = AnnounceResponse {
            interval: SimDuration::from_mins(15),
            min_interval: SimDuration::from_secs(60),
            peers: vec![
                (PeerId([1; 20]), SimAddr(0x0A00_0001)),
                (PeerId([2; 20]), SimAddr(0x0A00_0002)),
            ],
            complete: 3,
            incomplete: 7,
        };
        let wire = resp.to_bencode().encode();
        // Spot-check the raw bencode shape.
        assert!(wire.starts_with(b"d8:completei3e"));
        let back =
            AnnounceResponse::from_bencode(&crate::bencode::Value::decode(&wire).unwrap()).unwrap();
        assert_eq!(back.interval, resp.interval);
        assert_eq!(back.min_interval, resp.min_interval);
        assert_eq!(back.complete, 3);
        assert_eq!(back.incomplete, 7);
        // Compact format keeps addresses, not peer-ids.
        let addrs: Vec<SimAddr> = back.peers.iter().map(|&(_, a)| a).collect();
        assert_eq!(addrs, vec![SimAddr(0x0A00_0001), SimAddr(0x0A00_0002)]);
    }

    #[test]
    fn min_interval_key_is_optional_on_the_wire() {
        // ZERO means "unspecified": the key is omitted on encode and
        // defaults back to ZERO on decode.
        let resp = AnnounceResponse {
            interval: SimDuration::from_mins(15),
            min_interval: SimDuration::ZERO,
            peers: Vec::new(),
            complete: 0,
            incomplete: 0,
        };
        let wire = resp.to_bencode().encode();
        assert!(!wire.windows(12).any(|w| w == b"min interval"));
        let back =
            AnnounceResponse::from_bencode(&crate::bencode::Value::decode(&wire).unwrap()).unwrap();
        assert_eq!(back.min_interval, SimDuration::ZERO);
    }

    #[test]
    fn announce_response_decode_rejects_malformed() {
        use crate::bencode::Value;
        let empty = Value::Dict(Default::default());
        assert!(AnnounceResponse::from_bencode(&empty).is_err());
        // Peers not a multiple of 6.
        let mut d = std::collections::BTreeMap::new();
        d.insert(b"complete".to_vec(), Value::Int(0));
        d.insert(b"incomplete".to_vec(), Value::Int(0));
        d.insert(b"interval".to_vec(), Value::Int(900));
        d.insert(b"peers".to_vec(), Value::Bytes(vec![1, 2, 3]));
        assert!(AnnounceResponse::from_bencode(&Value::Dict(d)).is_err());
        // Negative min interval.
        let mut d = std::collections::BTreeMap::new();
        d.insert(b"complete".to_vec(), Value::Int(0));
        d.insert(b"incomplete".to_vec(), Value::Int(0));
        d.insert(b"interval".to_vec(), Value::Int(900));
        d.insert(b"min interval".to_vec(), Value::Int(-5));
        d.insert(b"peers".to_vec(), Value::Bytes(vec![]));
        assert!(AnnounceResponse::from_bencode(&Value::Dict(d)).is_err());
    }

    #[test]
    fn seed_counting() {
        let mut tr = Tracker::new(TrackerConfig::default());
        let mut rng = SimRng::new(0);
        let ih = InfoHash([6; 20]);
        let t = SimTime::ZERO;
        tr.announce(
            &seed_req(ih, PeerId([1; 20]), SimAddr(1), AnnounceEvent::Started),
            t,
            &mut rng,
        );
        let resp = tr.announce(
            &req(ih, PeerId([2; 20]), SimAddr(2), AnnounceEvent::Completed),
            t,
            &mut rng,
        );
        assert_eq!(resp.complete, 2);
        assert_eq!(resp.incomplete, 0);
    }

    #[test]
    fn interval_jitter_spreads_reannounces_deterministically() {
        let jittered = |seed: u64| -> Vec<u64> {
            let mut tr = Tracker::new(TrackerConfig {
                interval_jitter: 0.2,
                ..TrackerConfig::default()
            });
            let mut rng = SimRng::new(seed);
            let ih = InfoHash([7; 20]);
            (0..8u8)
                .map(|i| {
                    tr.announce(
                        &req(
                            ih,
                            PeerId([i + 1; 20]),
                            SimAddr(u32::from(i) + 1),
                            AnnounceEvent::Started,
                        ),
                        SimTime::ZERO,
                        &mut rng,
                    )
                    .interval
                    .as_micros()
                })
                .collect()
        };
        let a = jittered(5);
        assert_eq!(a, jittered(5), "same seed, same jittered intervals");
        let base = TrackerConfig::default().announce_interval;
        let lo = base.mul_f64(0.8).as_micros();
        let hi = base.mul_f64(1.2).as_micros();
        assert!(a.iter().all(|&us| us >= lo && us <= hi));
        assert!(
            a.windows(2).any(|w| w[0] != w[1]),
            "jitter must actually vary the interval"
        );
        // Zero jitter keeps the fixed interval and draws nothing.
        let mut tr = Tracker::new(TrackerConfig::default());
        let mut rng = SimRng::new(5);
        let resp = tr.announce(
            &req(
                InfoHash([7; 20]),
                PeerId([1; 20]),
                SimAddr(1),
                AnnounceEvent::Started,
            ),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(resp.interval, base);
    }

    #[test]
    fn shard_routing_is_stable_and_total() {
        // Property test: the shard function is a pure function of the
        // hash bytes (same input → same shard, always in range), and a
        // pseudo-random population spreads across every shard.
        for shards in [1usize, 2, 4, 7, 16] {
            let mut hit = vec![0usize; shards];
            for i in 0..512u32 {
                let mut bytes = [0u8; 20];
                bytes[..4].copy_from_slice(&i.to_be_bytes());
                bytes[10] = (i * 37) as u8;
                let ih = InfoHash(bytes);
                let s = shard_of(ih, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(ih, shards), "routing must be stable");
                hit[s] += 1;
            }
            assert!(
                hit.iter().all(|&c| c > 0),
                "512 hashes must touch every one of {shards} shards: {hit:?}"
            );
        }
    }

    #[test]
    fn tier_routes_and_isolates_shards() {
        let mut tier = TrackerTier::new(TrackerConfig::default(), 4);
        let mut rng = SimRng::new(3);
        let t = SimTime::ZERO;
        // Register 32 single-peer swarms; each lands on exactly one shard.
        let mut hashes = Vec::new();
        for i in 0..32u8 {
            let ih = InfoHash([i; 20]);
            hashes.push(ih);
            tier.announce(
                &req(ih, PeerId([i; 20]), SimAddr(u32::from(i)), AnnounceEvent::Started),
                t,
                &mut rng,
            );
        }
        let per_shard: u64 = (0..4).map(|s| tier.shard_announces(s)).sum();
        assert_eq!(per_shard, 32, "every announce lands on exactly one shard");
        assert_eq!(tier.announces(), 32);
        for &ih in &hashes {
            assert_eq!(tier.swarm_size(ih, t), 1);
            assert_eq!(
                tier.shard_for(ih),
                shard_of(ih, 4),
                "tier routing matches the pure shard function"
            );
        }
        // A single shard outage dims only the hashes it owns.
        tier.set_shard_down(2, true);
        for &ih in &hashes {
            assert_eq!(tier.is_down_for(ih), tier.shard_for(ih) == 2);
        }
        tier.set_shard_down(2, false);
        assert!(hashes.iter().all(|&ih| !tier.is_down_for(ih)));
    }

    #[test]
    fn secondary_shard_differs_for_every_hash() {
        for shards in [2usize, 3, 4, 7, 16] {
            let mut secondary_hit = vec![0usize; shards];
            for i in 0..512u32 {
                let mut bytes = [0u8; 20];
                bytes[..4].copy_from_slice(&i.to_be_bytes());
                bytes[7] = (i * 131) as u8;
                let ih = InfoHash(bytes);
                let p = shard_of(ih, shards);
                let s = secondary_shard_of(ih, shards);
                assert!(s < shards);
                assert_ne!(p, s, "replica must live on a different shard");
                assert_eq!(s, secondary_shard_of(ih, shards), "routing must be stable");
                secondary_hit[s] += 1;
            }
            assert!(
                secondary_hit.iter().all(|&c| c > 0),
                "512 hashes must place replicas on every one of {shards} shards: \
                 {secondary_hit:?}"
            );
        }
        // A single shard has nowhere else to go.
        assert_eq!(secondary_shard_of(InfoHash([9; 20]), 1), 0);
    }

    #[test]
    fn failover_routes_to_secondary_and_returns_after_recovery() {
        let mut tier = TrackerTier::new(TrackerConfig::default(), 4);
        let mut rng = SimRng::new(41);
        let ih = InfoHash([13; 20]);
        let primary = tier.shard_for(ih);
        let secondary = tier.secondary_shard_for(ih);
        assert_ne!(primary, secondary);
        let announce_routed = |tier: &mut TrackerTier, rng: &mut SimRng, at: u64| {
            let shard = tier.route_for(ih, true).expect("a shard is up");
            tier.announce_on(
                shard,
                &req(ih, PeerId([1; 20]), SimAddr(1), AnnounceEvent::Periodic),
                SimTime::from_secs(at),
                rng,
            );
            shard
        };
        // Healthy tier: everything lands on the primary.
        for at in 0..3 {
            assert_eq!(announce_routed(&mut tier, &mut rng, at), primary);
        }
        assert_eq!(tier.shard_announces(primary), 3);
        assert_eq!(tier.shard_announces(secondary), 0);
        // Primary dark: failover announces land on the secondary.
        tier.set_shard_down(primary, true);
        for at in 3..6 {
            assert_eq!(announce_routed(&mut tier, &mut rng, at), secondary);
        }
        assert_eq!(tier.shard_announces(primary), 3, "dark primary takes nothing");
        assert_eq!(tier.shard_announces(secondary), 3);
        // Without replicas enabled the same outage is a dead end.
        assert_eq!(tier.route_for(ih, false), None);
        // Both replicas dark: nowhere to go even with failover.
        tier.set_shard_down(secondary, true);
        assert_eq!(tier.route_for(ih, true), None);
        // Recovery: traffic returns to the primary.
        tier.set_shard_down(primary, false);
        tier.set_shard_down(secondary, false);
        for at in 6..9 {
            assert_eq!(announce_routed(&mut tier, &mut rng, at), primary);
        }
        assert_eq!(tier.shard_announces(primary), 6);
        assert_eq!(tier.shard_announces(secondary), 3);
    }

    #[test]
    fn overload_shedding_scales_pacing_and_recovers() {
        let cfg = TrackerConfig {
            shed_capacity: 2,
            shed_window: SimDuration::from_secs(60),
            shed_max_scale: 4,
            ..TrackerConfig::default()
        };
        let base = cfg.announce_interval;
        let floor = cfg.min_interval;
        let mut tr = Tracker::new(cfg);
        let mut rng = SimRng::new(6);
        let ih = InfoHash([3; 20]);
        let mut announce = |tr: &mut Tracker, i: u8, at: u64| {
            tr.announce(
                &req(
                    ih,
                    PeerId([i; 20]),
                    SimAddr(u32::from(i)),
                    AnnounceEvent::Started,
                ),
                SimTime::from_secs(at),
                &mut rng,
            )
        };
        // Within capacity: untouched pacing.
        assert_eq!(announce(&mut tr, 1, 0).interval, base);
        assert_eq!(announce(&mut tr, 2, 1).interval, base);
        assert_eq!(tr.sheds(), 0);
        // Past capacity: both knobs stretch by the overload ratio.
        let shed = announce(&mut tr, 3, 2);
        assert_eq!(shed.interval, base.saturating_mul(2));
        assert_eq!(shed.min_interval, floor.saturating_mul(2));
        assert_eq!(tr.sheds(), 1);
        // The multiplier is capped at shed_max_scale.
        for i in 4..32u8 {
            announce(&mut tr, i, 3);
        }
        let worst = announce(&mut tr, 32, 4);
        assert_eq!(worst.interval, base.saturating_mul(4));
        // A fresh window clears the pressure entirely.
        assert_eq!(announce(&mut tr, 1, 120).interval, base);
    }

    #[test]
    fn shedding_off_by_default_means_untouched_pacing() {
        let mut tr = Tracker::new(TrackerConfig::default());
        let mut rng = SimRng::new(2);
        let ih = InfoHash([8; 20]);
        for i in 0..64u8 {
            let resp = tr.announce(
                &req(
                    ih,
                    PeerId([i; 20]),
                    SimAddr(u32::from(i)),
                    AnnounceEvent::Started,
                ),
                SimTime::ZERO,
                &mut rng,
            );
            assert_eq!(resp.interval, TrackerConfig::default().announce_interval);
            assert_eq!(resp.min_interval, TrackerConfig::default().min_interval);
        }
        assert_eq!(tr.sheds(), 0);
    }

    #[test]
    fn tier_snapshot_roundtrip() {
        use simnet::snapshot::{SnapReader, SnapWriter};
        let mut tier = TrackerTier::new(TrackerConfig::default(), 3);
        let mut rng = SimRng::new(8);
        for i in 0..16u8 {
            tier.announce(
                &req(
                    InfoHash([i; 20]),
                    PeerId([i; 20]),
                    SimAddr(u32::from(i)),
                    AnnounceEvent::Started,
                ),
                SimTime::from_secs(u64::from(i)),
                &mut rng,
            );
        }
        tier.set_shard_down(1, true);
        let mut w = SnapWriter::new(99);
        tier.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes, 99);
        let mut back = TrackerTier::unsnap(&mut r);
        assert_eq!(back.shard_count(), 3);
        assert_eq!(back.announces(), tier.announces());
        assert!(back.shard_is_down(1) && !back.shard_is_down(0));
        for i in 0..16u8 {
            let ih = InfoHash([i; 20]);
            assert_eq!(
                back.swarm_size(ih, SimTime::from_secs(16)),
                tier.swarm_size(ih, SimTime::from_secs(16))
            );
        }
    }
}
