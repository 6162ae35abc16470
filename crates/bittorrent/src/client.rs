//! The BitTorrent client session: one torrent on one host.
//!
//! Sans-IO like the TCP endpoint: the embedding world delivers transport
//! events ([`Client::on_connected`], [`Client::on_message`], …) and wall
//! ticks ([`Client::on_tick`]), and drains [`Action`]s (connect, send,
//! announce) to execute on whatever transport it runs — packet-level TCP or
//! the fluid flow model.
//!
//! The session implements the protocol behaviours the paper's experiments
//! measure:
//!
//! * interest tracking and the request pipeline over 16 KB blocks,
//! * tit-for-tat choking with credit keyed by **peer-id** (so identity
//!   loss after a hand-off really does reset a peer's standing),
//! * rarest-first (or any [`PiecePicker`]) piece selection with
//!   partial-piece priority and bounded endgame duplication,
//! * periodic tracker announces and address bookkeeping with dial backoff,
//! * optional upload rate caps (the knob LIHD turns) and an
//!   upload-disable switch (the paper's "no uploading" arms).

use crate::bitfield::Bitfield;
use crate::choker::{Choker, ChokerConfig, ConnKey, PeerSnapshot};
use crate::lifecycle::{ConnState, ResilienceConfig};
use crate::metainfo::InfoHash;
use crate::peer_id::PeerId;
use crate::picker::{PickContext, PiecePicker, RarestFirst};
use crate::progress::{BlockOutcome, TorrentProgress};
use crate::rate::{RateEstimator, TokenBucket};
use crate::strategy::{ClientStrategy, Honest, StrategyPeer};
use crate::tracker::{AnnounceEvent, AnnounceResponse};
use crate::wire::{BlockRef, Message};
use metrics::handle::MetricsHandle;
use metrics::registry::Counter;
use simnet::addr::SimAddr;
use simnet::hash::FastHashMap;
use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Floor for early re-announces until the tracker's first response
/// supplies a `min interval` of its own.
const DEFAULT_MIN_REANNOUNCE: SimDuration = SimDuration::from_secs(60);
/// Maximum simultaneous peer connections.
const MAX_CONNECTIONS: usize = 50;
/// Outstanding block requests per peer (count cap).
const REQUEST_PIPELINE: usize = 8;
/// Outstanding request volume per peer (byte cap). Binds before the
/// count cap when blocks are large (piece-sized fluid transfers):
/// without it, a slow peer accumulates minutes of queued requests that
/// expire before service and churn the whole swarm.
const REQUEST_PIPELINE_BYTES: u64 = 512 * 1024;
/// Outstanding requests older than this are abandoned and requeued.
const REQUEST_TIMEOUT: SimDuration = SimDuration::from_secs(90);
/// Dial backoff base after a failed connection attempt (unarmed
/// resilience).
const DIAL_BACKOFF: SimDuration = SimDuration::from_secs(30);

/// Peer-exchange (PEX) gossip knobs — the third rung of the discovery
/// degradation ladder. Disabled by default: a client with PEX off never
/// emits a [`Message::Pex`], ignores any it receives, and keeps no
/// gossip state, so legacy runs are byte-identical.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PexConfig {
    /// Master switch.
    pub enabled: bool,
    /// How often a round of PEX messages goes out to every peer.
    pub gossip_interval: SimDuration,
    /// Most entries per PEX message (freshest win).
    pub max_entries: usize,
    /// Entries older than this are pruned locally and dropped on
    /// receipt — the staleness horizon that keeps a moved mobile host's
    /// abandoned address from circulating forever.
    pub max_age: SimDuration,
}

impl Default for PexConfig {
    fn default() -> Self {
        PexConfig {
            enabled: false,
            gossip_interval: SimDuration::from_secs(60),
            max_entries: 25,
            max_age: SimDuration::from_secs(600),
        }
    }
}

/// Client tunables. The client always runs the stock 4+1-slot choker
/// ([`ChokerConfig::default`]) and stays in the swarm as a seed after
/// completing.
#[derive(Debug)]
pub struct ClientConfig {
    /// Upload cap in bytes/second (`None` = unlimited). LIHD adjusts this.
    pub upload_limit: Option<f64>,
    /// Master switch for serving data (the "no uploading" experiment arms
    /// set this to `false`; requests are then never honoured).
    pub allow_upload: bool,
    /// Piece selection policy.
    pub picker: Box<dyn PiecePicker>,
    /// Whether a seed initiates connections. Real clients dial only when
    /// they *want* pieces, so a seed just listens — which is exactly why a
    /// mobile seed that changes address goes dark until leeches re-poll
    /// the tracker (paper §3.5). Role reversal sets this to `true`.
    pub dial_while_seeding: bool,
    /// Connection-lifecycle resilience knobs. The default is unarmed:
    /// the legacy fixed dial backoff, no keepalive or snub machinery.
    /// [`ResilienceConfig::armed`] switches the client to seeded
    /// exponential backoff with jitter, keepalive timeouts, and snub
    /// detection.
    pub resilience: ResilienceConfig,
    /// Behaviour strategy (the population zoo). [`Honest`] is the
    /// protocol-faithful baseline with every hook an identity.
    pub strategy: Box<dyn ClientStrategy>,
    /// Peer-exchange gossip (tracker-free discovery fallback).
    pub pex: PexConfig,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            upload_limit: None,
            allow_upload: true,
            picker: Box::new(RarestFirst),
            dial_while_seeding: false,
            resilience: ResilienceConfig::default(),
            strategy: Box::new(Honest),
            pex: PexConfig::default(),
        }
    }
}

/// An instruction from the client to its transport/world.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Dial `addr`; report via `on_connected` / `on_conn_failed` with this
    /// key.
    Connect {
        /// Client-assigned connection key.
        conn: ConnKey,
        /// Address to dial.
        addr: SimAddr,
    },
    /// Send a message on an established connection.
    Send {
        /// Connection key.
        conn: ConnKey,
        /// The message (payload bytes travel as lengths).
        msg: Message,
    },
    /// Close a connection.
    Close {
        /// Connection key.
        conn: ConnKey,
    },
    /// Announce to the tracker.
    Announce {
        /// The announce event type.
        event: AnnounceEvent,
    },
    /// A piece finished and verified (world-level instrumentation).
    PieceCompleted {
        /// The piece index.
        piece: u32,
    },
    /// The whole torrent finished.
    Completed,
}

/// Per-connection peer state.
#[derive(Debug, Clone)]
struct Peer {
    addr: SimAddr,
    peer_id: Option<PeerId>,
    outgoing: bool,
    connected_at: SimTime,
    am_choking: bool,
    am_interested: bool,
    peer_choking: bool,
    peer_interested: bool,
    have: Bitfield,
    /// Blocks we have requested from this peer.
    inflight: Vec<BlockRef>,
    /// Granted requests waiting for upload-bucket admission.
    upload_queue: VecDeque<BlockRef>,
    download_est: RateEstimator,
    upload_est: RateEstimator,
    /// Last time any message arrived (armed: keepalive-timeout clock).
    last_recv: SimTime,
    /// Last time a piece arrived (armed: snub-detection clock).
    last_progress: SimTime,
    /// Last time we emitted a keepalive (armed).
    last_keepalive: SimTime,
    /// Armed: no piece progress for the snub timeout — the pipeline is
    /// collapsed to a single probe request until a piece arrives.
    snubbed: bool,
}

/// Cumulative client counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// Payload bytes received (blocks).
    pub downloaded_payload: u64,
    /// Payload bytes served (blocks).
    pub uploaded_payload: u64,
    /// Connections ever established.
    pub connections_opened: u64,
    /// Dials that failed.
    pub dial_failures: u64,
    /// Blocks that arrived as duplicates (endgame waste).
    pub duplicate_blocks: u64,
    /// Peers snubbed for lack of piece progress (armed lifecycle only).
    pub snubs: u64,
    /// Connections closed for total silence (armed lifecycle only).
    pub keepalive_closes: u64,
    /// PEX messages sent (one per peer per gossip round).
    pub pex_sent: u64,
    /// PEX messages received and processed.
    pub pex_received: u64,
    /// Addresses first learned through PEX (not the tracker).
    pub pex_addrs_learned: u64,
    /// Times the announce circuit breaker opened.
    pub breaker_trips: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct AddrState {
    failures: u32,
    next_attempt: SimTime,
    connected: bool,
}

/// A BitTorrent client session for one torrent. See the module docs.
///
/// ```
/// use bittorrent::client::{Action, Client, ClientConfig};
/// use bittorrent::metainfo::InfoHash;
/// use bittorrent::peer_id::PeerId;
/// use simnet::addr::SimAddr;
/// use simnet::rng::SimRng;
/// use simnet::time::SimTime;
///
/// let mut client = Client::new(
///     ClientConfig::default(),
///     InfoHash([1; 20]),
///     PeerId([7; 20]),
///     256 * 1024,       // piece length
///     16 * 1024 * 1024, // file length
///     SimAddr(1),
///     SimRng::new(0),
/// );
/// client.start(SimTime::ZERO);
/// // The first thing a session does is find the swarm.
/// assert!(matches!(
///     client.poll_action(),
///     Some(Action::Announce { .. })
/// ));
/// ```
#[derive(Debug)]
pub struct Client {
    config: ClientConfig,
    info_hash: InfoHash,
    peer_id: PeerId,
    progress: TorrentProgress,
    // The four hot maps hash with `FastHashMap`: deterministic across
    // processes and a few instructions per integer key, vs. seeded
    // SipHash. Every effectful iteration still collects and sorts (or is
    // commutative) — see `simnet::hash` for the contract.
    conns: FastHashMap<ConnKey, Peer>,
    /// Connections with a non-empty `upload_queue`, in key order. The
    /// upload drain is round-robin over this set; connections with
    /// nothing queued cannot touch the bucket or the action stream, so
    /// keeping them out of the scan makes the drain cost proportional
    /// to pending uploads instead of to the connection count.
    upload_ready: std::collections::BTreeSet<ConnKey>,
    next_conn: ConnKey,
    availability: Vec<u32>,
    /// Known swarm addresses and dial bookkeeping.
    addrs: FastHashMap<SimAddr, AddrState>,
    choker: Choker,
    /// Tit-for-tat credit per peer-id; survives disconnections. This is
    /// the state a regenerated peer-id orphans.
    credit: FastHashMap<PeerId, f64>,
    /// Bytes served per peer-id (the seed-side relationship history).
    served: FastHashMap<PeerId, f64>,
    /// Last address each peer-id handshook from. Standing must survive
    /// disconnects (the identity-retention contract), but entries whose
    /// standing has fully decayed and whose address is Dead in the
    /// lifecycle machine are evicted at rechoke — without this map a
    /// churn-heavy run grows `credit`/`served` without bound.
    id_addr: FastHashMap<PeerId, SimAddr>,
    actions: VecDeque<Action>,
    rng: SimRng,
    /// Dedicated stream for backoff jitter, forked from `rng` at
    /// construction: arming jitter never perturbs picker/choker draws.
    backoff_rng: SimRng,
    upload_bucket: TokenBucket,
    next_announce: SimTime,
    /// Time the network last became stable (start or reconnection) — the
    /// signal mobility-aware fetching uses.
    stable_since: SimTime,
    completed_reported: bool,
    /// When we last announced (for early re-announce pacing).
    last_announce: SimTime,
    /// Floor for early re-announces when the client has no peers at all.
    /// Starts at [`DEFAULT_MIN_REANNOUNCE`] and is replaced by whatever
    /// `min interval` the tracker's responses carry — the tracker, not
    /// client config, owns re-announce pacing.
    min_reannounce: SimDuration,
    /// When relationship history was last decayed.
    last_decay: SimTime,
    /// PEX freshness book: the last time each address was known good —
    /// directly (a handshake) or transitively (a gossiped entry whose
    /// age dates it). Entries past `pex.max_age` are pruned at gossip
    /// time. Empty whenever PEX is disabled.
    gossip_age: FastHashMap<SimAddr, SimTime>,
    /// Next PEX gossip round (`MAX` when PEX is disabled).
    next_pex: SimTime,
    /// Consecutive announce failures (reset by any tracker response);
    /// drives the announce circuit breaker.
    announce_fail_streak: u32,
    stats: ClientStats,
    /// Own current address (not dialled, filtered from tracker responses).
    own_addr: SimAddr,
    metrics: ClientMetrics,
}

/// Instruments wired up by [`Client::attach_metrics`]. The handle is
/// kept so per-peer credit gauges can be resolved as peers appear.
#[derive(Debug, Default)]
struct ClientMetrics {
    handle: MetricsHandle,
    label: String,
    pieces_completed: Counter,
    rechokes: Counter,
    unchoke_flips: Counter,
}

impl Client {
    /// Creates a session joining the swarm `info_hash` as `peer_id`, with
    /// fresh (empty) download progress.
    pub fn new(
        config: ClientConfig,
        info_hash: InfoHash,
        peer_id: PeerId,
        piece_length: u32,
        length: u64,
        own_addr: SimAddr,
        rng: SimRng,
    ) -> Self {
        let progress = TorrentProgress::new(piece_length, length);
        Self::with_progress(config, info_hash, peer_id, progress, own_addr, rng)
    }

    /// Creates a session resuming existing progress — how the world models
    /// task re-initiation after a hand-off (the file on disk survives; the
    /// swarm state does not).
    pub fn with_progress(
        config: ClientConfig,
        info_hash: InfoHash,
        peer_id: PeerId,
        progress: TorrentProgress,
        own_addr: SimAddr,
        rng: SimRng,
    ) -> Self {
        // One second of burst; oversized blocks go into bucket debt.
        let upload_bucket = TokenBucket::new(
            config.upload_limit,
            config.upload_limit.unwrap_or(1.0).max(1.0),
        );
        let num_pieces = progress.num_pieces() as usize;
        let next_pex = if config.pex.enabled {
            SimTime::ZERO
        } else {
            SimTime::MAX
        };
        let mut client = Client {
            config,
            info_hash,
            peer_id,
            progress,
            conns: FastHashMap::default(),
            upload_ready: std::collections::BTreeSet::new(),
            next_conn: 1,
            availability: vec![0; num_pieces],
            addrs: FastHashMap::default(),
            choker: Choker::new(ChokerConfig::default()),
            credit: FastHashMap::default(),
            served: FastHashMap::default(),
            id_addr: FastHashMap::default(),
            actions: VecDeque::new(),
            backoff_rng: rng.fork(0xBAC0FF),
            rng,
            upload_bucket,
            next_announce: SimTime::ZERO,
            stable_since: SimTime::ZERO,
            completed_reported: false,
            last_announce: SimTime::ZERO,
            min_reannounce: DEFAULT_MIN_REANNOUNCE,
            last_decay: SimTime::ZERO,
            gossip_age: FastHashMap::default(),
            next_pex,
            announce_fail_streak: 0,
            stats: ClientStats::default(),
            own_addr,
            metrics: ClientMetrics::default(),
        };
        client.completed_reported = client.progress.is_complete();
        client
    }

    /// Wires this session's swarm observables into `handle` under
    /// `bt.<label>.*`: `pieces_completed`, `rechokes`, and
    /// `unchoke_flips` counters, plus a per-peer `credit.<peer-id>`
    /// gauge refreshed at every rechoke. Inert when the handle is
    /// disabled.
    pub fn attach_metrics(&mut self, handle: &MetricsHandle, label: &str) {
        self.metrics = ClientMetrics {
            handle: handle.clone(),
            label: label.to_string(),
            pieces_completed: handle.counter(&format!("bt.{label}.pieces_completed")),
            rechokes: handle.counter(&format!("bt.{label}.rechokes")),
            unchoke_flips: handle.counter(&format!("bt.{label}.unchoke_flips")),
        };
    }

    /// Starts the session at `now`: announces `Started` to the tracker.
    pub fn start(&mut self, now: SimTime) {
        self.stable_since = now;
        self.next_announce = SimTime::MAX; // set from the tracker response
        self.last_announce = now;
        // Stagger optimistic-unchoke rotation so a swarm of simulated
        // clients does not grant and revoke bootstrap slots in lockstep.
        let interval = self.choker.config().optimistic_interval;
        let back = self.rng.range(0..interval.as_micros().max(1));
        self.choker
            .set_optimistic_phase(now - simnet::time::SimDuration::from_micros(back));
        self.actions.push_back(Action::Announce {
            event: AnnounceEvent::Started,
        });
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The swarm this session is in.
    pub fn info_hash(&self) -> InfoHash {
        self.info_hash
    }

    /// Our peer-id.
    pub fn peer_id(&self) -> PeerId {
        self.peer_id
    }

    /// Download progress (shared bookkeeping).
    pub fn progress(&self) -> &TorrentProgress {
        &self.progress
    }

    /// Consumes the session, yielding its progress (for task
    /// re-initiation).
    pub fn into_progress(self) -> TorrentProgress {
        self.progress
    }

    /// Cumulative counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// True when the torrent is complete (seed).
    pub fn is_seed(&self) -> bool {
        self.progress.is_complete()
    }

    /// Number of live peer connections.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// Connection keys of live peers (sorted, for deterministic iteration).
    pub fn connections(&self) -> Vec<ConnKey> {
        let mut keys: Vec<ConnKey> = self.conns.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Addresses of currently connected peers (the state role-reversal
    /// stores before a hand-off).
    pub fn connected_addrs(&self) -> Vec<SimAddr> {
        let mut v: Vec<SimAddr> = self.conns.values().map(|p| p.addr).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The peer-id observed on a connection (after its handshake).
    pub fn peer_id_of(&self, conn: ConnKey) -> Option<PeerId> {
        self.conns.get(&conn).and_then(|p| p.peer_id)
    }

    /// When the connection was established.
    pub fn connected_at(&self, conn: ConnKey) -> Option<SimTime> {
        self.conns.get(&conn).map(|p| p.connected_at)
    }

    /// Current credit for a peer-id.
    pub fn credit_of(&self, id: PeerId) -> f64 {
        self.credit.get(&id).copied().unwrap_or(0.0)
    }

    /// Sizes of the per-peer-id standing tables:
    /// `(credit, served, id_addr)`. The credit-eviction regression test
    /// watches these stay bounded under churn.
    pub fn standing_table_sizes(&self) -> (usize, usize, usize) {
        (self.credit.len(), self.served.len(), self.id_addr.len())
    }

    /// Strategy hook proxy: whether this client deliberately
    /// regenerates its peer-id at re-initiation (worlds consult this
    /// when deciding identity retention).
    pub fn churns_identity(&self) -> bool {
        self.config.strategy.churn_identity()
    }

    /// The resilience configuration in force.
    pub fn resilience(&self) -> &ResilienceConfig {
        &self.config.resilience
    }

    /// Whether the announce circuit breaker is currently open (the
    /// consecutive-failure streak reached the threshold and no tracker
    /// response has closed it since). Always `false` when the breaker
    /// is disabled. While open, only the scheduled cooloff probe
    /// announces — the empty-swarm early re-announce is suppressed.
    pub fn breaker_is_open(&self) -> bool {
        let res = &self.config.resilience;
        res.breaker_threshold > 0 && self.announce_fail_streak >= res.breaker_threshold
    }

    /// Consecutive failed announces since the last tracker response.
    pub fn announce_fail_streak(&self) -> u32 {
        self.announce_fail_streak
    }

    /// The early re-announce floor currently in force.
    pub fn min_reannounce(&self) -> SimDuration {
        self.min_reannounce
    }

    /// Whether PEX gossip is enabled on this session.
    pub fn pex_enabled(&self) -> bool {
        self.config.pex.enabled
    }

    /// The PEX freshness book, sorted by address: `(addr, last known
    /// good)`. Deterministic — invariant checks and tests diff it.
    pub fn pex_book(&self) -> Vec<(SimAddr, SimTime)> {
        let mut v: Vec<(SimAddr, SimTime)> = self.gossip_age.iter().map(|(a, t)| (*a, *t)).collect();
        v.sort_unstable_by_key(|e| e.0);
        v
    }

    /// Every address this client knows how to dial, sorted. PEX state
    /// persistence hands this to the re-initiated task after a hand-off
    /// so a moved host can rejoin a tracker-dark swarm.
    pub fn known_addrs(&self) -> Vec<SimAddr> {
        let mut v: Vec<SimAddr> = self.addrs.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Whether a connection is currently snubbed (armed lifecycle only).
    pub fn is_snubbed(&self, conn: ConnKey) -> Option<bool> {
        self.conns.get(&conn).map(|p| p.snubbed)
    }

    /// Number of currently snubbed connections.
    pub fn snubbed_count(&self) -> usize {
        self.conns.values().filter(|p| p.snubbed).count()
    }

    /// Lifecycle state of a known address at `now`. `None` for unknown
    /// addresses. The soak harness's liveness assertions read this: no
    /// address may sit in [`ConnState::BackingOff`] with an unbounded
    /// retry time unless its budget is spent ([`ConnState::Dead`]).
    pub fn lifecycle_of(&self, addr: SimAddr, now: SimTime) -> Option<ConnState> {
        let res = self.config.resilience;
        let st = self.addrs.get(&addr)?;
        Some(if st.connected {
            let snubbed = self.conns.values().any(|p| p.addr == addr && p.snubbed);
            if snubbed {
                ConnState::Snubbed
            } else {
                ConnState::Established
            }
        } else if st.next_attempt == SimTime::MAX
            || (res.armed && st.failures >= res.max_dial_attempts)
        {
            ConnState::Dead
        } else if st.next_attempt > now {
            ConnState::BackingOff
        } else if st.failures > 0 {
            ConnState::Reconnecting
        } else {
            ConnState::Connecting
        })
    }

    /// Dial bookkeeping snapshot, sorted by address:
    /// `(addr, failures, next_attempt, connected)`. Deterministic — the
    /// soak harness diffs it between replays.
    pub fn addr_states(&self) -> Vec<(SimAddr, u32, SimTime, bool)> {
        let mut v: Vec<(SimAddr, u32, SimTime, bool)> = self
            .addrs
            .iter()
            .map(|(a, st)| (*a, st.failures, st.next_attempt, st.connected))
            .collect();
        v.sort_unstable_by_key(|e| e.0);
        v
    }

    /// Changes the upload cap (bytes/second); wP2P's LIHD calls this.
    pub fn set_upload_limit(&mut self, limit: Option<f64>) {
        self.config.upload_limit = limit;
        // Rebuild so the burst matches the new rate.
        self.upload_bucket = TokenBucket::new(limit, limit.unwrap_or(1.0).max(1.0));
    }

    /// The configured upload cap.
    pub fn upload_limit(&self) -> Option<f64> {
        self.config.upload_limit
    }

    /// Updates our own address after a hand-off so tracker responses
    /// containing it are still filtered.
    pub fn set_own_addr(&mut self, addr: SimAddr) {
        self.own_addr = addr;
    }

    /// Injects known peer addresses directly (role reversal hands the
    /// stored peer list to the re-initiated task).
    pub fn seed_known_addrs(&mut self, addrs: &[SimAddr], now: SimTime) {
        for &a in addrs {
            if a != self.own_addr {
                self.addrs.entry(a).or_insert(AddrState {
                    failures: 0,
                    next_attempt: now,
                    connected: false,
                });
            }
        }
    }

    /// Marks the network stable from `now` (reconnection completed) — feeds
    /// the mobility-aware picker's stability clock.
    pub fn mark_stable(&mut self, now: SimTime) {
        self.stable_since = now;
    }

    /// Pops the next pending action.
    pub fn poll_action(&mut self) -> Option<Action> {
        self.actions.pop_front()
    }

    // ------------------------------------------------------------------
    // Transport events
    // ------------------------------------------------------------------

    /// Allocates a connection key (used internally and by tests).
    fn alloc_conn(&mut self) -> ConnKey {
        let k = self.next_conn;
        self.next_conn += 1;
        k
    }

    fn register_peer(&mut self, conn: ConnKey, addr: SimAddr, outgoing: bool, now: SimTime) {
        let peer = Peer {
            addr,
            peer_id: None,
            outgoing,
            connected_at: now,
            am_choking: true,
            am_interested: false,
            peer_choking: true,
            peer_interested: false,
            have: Bitfield::new(self.progress.num_pieces()),
            inflight: Vec::new(),
            upload_queue: VecDeque::new(),
            download_est: RateEstimator::new(),
            upload_est: RateEstimator::new(),
            last_recv: now,
            last_progress: now,
            last_keepalive: now,
            snubbed: false,
        };
        self.conns.insert(conn, peer);
        self.stats.connections_opened += 1;
        if let Some(st) = self.addrs.get_mut(&addr) {
            st.connected = true;
            st.failures = 0;
        }
        // Handshake, then our bitfield.
        self.actions.push_back(Action::Send {
            conn,
            msg: Message::Handshake {
                info_hash: self.info_hash,
                peer_id: self.peer_id,
            },
        });
        self.actions.push_back(Action::Send {
            conn,
            msg: Message::Bitfield(self.progress.have().clone()),
        });
    }

    /// An outgoing dial succeeded.
    pub fn on_connected(&mut self, conn: ConnKey, addr: SimAddr, now: SimTime) {
        self.register_peer(conn, addr, true, now);
    }

    /// An incoming connection was accepted; returns its key.
    pub fn on_incoming(&mut self, addr: SimAddr, now: SimTime) -> ConnKey {
        let conn = self.alloc_conn();
        self.addrs.entry(addr).or_default();
        self.register_peer(conn, addr, false, now);
        conn
    }

    /// An outgoing dial failed (timeout / unroutable — the fate of every
    /// dial to a moved mobile host's old address).
    pub fn on_conn_failed(&mut self, addr: SimAddr, now: SimTime) {
        self.stats.dial_failures += 1;
        let res = self.config.resilience;
        if let Some(st) = self.addrs.get_mut(&addr) {
            st.connected = false;
            st.failures += 1;
            st.next_attempt = if res.armed {
                if st.failures >= res.max_dial_attempts {
                    SimTime::MAX // ConnState::Dead: retry budget exhausted
                } else {
                    now + res.dial.delay(st.failures - 1, &mut self.backoff_rng)
                }
            } else {
                // Legacy schedule: base doubling per failure, capped 2⁴.
                now + DIAL_BACKOFF.saturating_mul(1u64 << st.failures.min(4))
            };
        }
    }

    /// An established connection died.
    pub fn on_conn_closed(&mut self, conn: ConnKey, now: SimTime) {
        let Some(peer) = self.conns.remove(&conn) else {
            return;
        };
        self.upload_ready.remove(&conn);
        for p in peer.have.iter_set() {
            self.availability[p as usize] -= 1;
        }
        self.progress.cancel_conn(conn);
        let res = self.config.resilience;
        if let Some(st) = self.addrs.get_mut(&peer.addr) {
            st.connected = false;
            st.next_attempt = if res.armed {
                // A close is not a dial failure: the redial waits out the
                // current backoff step but does not escalate it.
                now + res.dial.delay(st.failures, &mut self.backoff_rng)
            } else {
                now + DIAL_BACKOFF
            };
        }
        self.choker.invalidate();
    }

    /// A connection was aborted for lack of progress (the world's stall
    /// watchdog fired, or our keepalive timeout expired). Unarmed this is
    /// [`Self::on_conn_closed`] — the legacy kill-without-reconnect.
    /// Armed, the address transitions into backing-off: the failure count
    /// escalates so the redial follows the exponential schedule, and the
    /// address goes [`ConnState::Dead`] once the retry budget is spent.
    pub fn on_conn_stalled(&mut self, conn: ConnKey, now: SimTime) {
        let res = self.config.resilience;
        if !res.armed {
            self.on_conn_closed(conn, now);
            return;
        }
        let Some(peer) = self.conns.remove(&conn) else {
            return;
        };
        self.upload_ready.remove(&conn);
        for p in peer.have.iter_set() {
            self.availability[p as usize] -= 1;
        }
        self.progress.cancel_conn(conn);
        if let Some(st) = self.addrs.get_mut(&peer.addr) {
            st.connected = false;
            st.failures += 1;
            st.next_attempt = if st.failures >= res.max_dial_attempts {
                SimTime::MAX
            } else {
                now + res.dial.delay(st.failures - 1, &mut self.backoff_rng)
            };
        }
        self.choker.invalidate();
    }

    /// A wire message arrived on `conn`.
    pub fn on_message(&mut self, conn: ConnKey, msg: Message, now: SimTime) {
        let Some(peer) = self.conns.get_mut(&conn) else {
            return;
        };
        peer.last_recv = now;
        match msg {
            Message::Handshake { info_hash, peer_id } => {
                if info_hash != self.info_hash || peer_id == self.peer_id {
                    // Wrong swarm or talking to ourselves: drop.
                    self.close_conn(conn);
                    return;
                }
                // One connection per peer-id: a reconnect replaces a
                // stale (usually silently dead) old connection. This is
                // why identity retention restores standing immediately —
                // the remote recognizes the returning peer — while a
                // regenerated id leaves a ghost behind and starts over.
                // Only connections older than the handshake timescale are
                // treated as stale: two crossed simultaneous dials must
                // not close each other.
                let mut stale: Vec<ConnKey> = self
                    .conns
                    .iter()
                    .filter(|(k, p)| {
                        **k != conn
                            && p.peer_id == Some(peer_id)
                            && now.saturating_since(p.connected_at) > SimDuration::from_secs(30)
                    })
                    .map(|(k, _)| *k)
                    .collect();
                // Map order leaks into Close-action order otherwise —
                // sorted so snapshot-restored runs emit the same stream.
                stale.sort_unstable();
                for k in stale {
                    self.close_conn(k);
                }
                let addr = if let Some(peer) = self.conns.get_mut(&conn) {
                    peer.peer_id = Some(peer_id);
                    self.id_addr.insert(peer_id, peer.addr);
                    peer.addr
                } else {
                    return; // closed while deduplicating
                };
                if self.config.pex.enabled {
                    // A completed handshake is first-hand liveness
                    // evidence — age 0 in the gossip book. This is also
                    // how a moved mobile host's *new* address enters
                    // circulation: it dials from the new address, the
                    // handshake carries its retained peer-id (standing
                    // re-attaches via `id_addr`/`credit`), and the next
                    // gossip round spreads the new address.
                    self.gossip_age.insert(addr, now);
                }
                self.credit.entry(peer_id).or_insert(0.0);
                self.choker.invalidate();
            }
            Message::KeepAlive => {}
            Message::Choke => {
                if let Some(peer) = self.conns.get_mut(&conn) {
                    peer.peer_choking = true;
                    // Outstanding requests will not be served; requeue.
                    peer.inflight.clear();
                }
                self.progress.cancel_conn(conn);
            }
            Message::Unchoke => {
                if let Some(peer) = self.conns.get_mut(&conn) {
                    peer.peer_choking = false;
                }
                self.fill_requests(conn, now);
            }
            Message::Interested => {
                if let Some(peer) = self.conns.get_mut(&conn) {
                    peer.peer_interested = true;
                }
            }
            Message::NotInterested => {
                if let Some(peer) = self.conns.get_mut(&conn) {
                    peer.peer_interested = false;
                }
            }
            Message::Have { index } => {
                let valid = index < self.progress.num_pieces();
                if !valid {
                    self.close_conn(conn);
                    return;
                }
                if let Some(peer) = self.conns.get_mut(&conn) {
                    if !peer.have.get(index) {
                        peer.have.set(index);
                        self.availability[index as usize] += 1;
                    }
                }
                // A piece we already hold changes neither our interest (the
                // witness set of wanted pieces is untouched) nor the request
                // candidates, so the re-evaluation would be a guaranteed
                // no-op — and Haves for held pieces dominate a maturing
                // swarm's traffic.
                if !self.progress.have().get(index) {
                    self.update_interest(conn);
                    self.fill_requests(conn, now);
                }
            }
            Message::Bitfield(bf) => {
                if bf.len() != self.progress.num_pieces() {
                    self.close_conn(conn);
                    return;
                }
                if let Some(peer) = self.conns.get_mut(&conn) {
                    for p in peer.have.iter_set() {
                        self.availability[p as usize] -= 1;
                    }
                    for p in bf.iter_set() {
                        self.availability[p as usize] += 1;
                    }
                    peer.have = bf;
                }
                self.update_interest(conn);
                self.fill_requests(conn, now);
            }
            Message::Request(block) => self.on_request(conn, block, now),
            Message::Piece(block) => self.on_piece(conn, block, now),
            Message::Cancel(block) => {
                if let Some(peer) = self.conns.get_mut(&conn) {
                    peer.upload_queue.retain(|b| *b != block);
                    if peer.upload_queue.is_empty() {
                        self.upload_ready.remove(&conn);
                    }
                }
            }
            Message::Pex { peers } => self.on_pex(peers, now),
        }
    }

    /// Merges a received PEX message into the freshness book and the
    /// dial address book. Second-hand evidence only ever *improves*
    /// freshness (max-merge), and a [`ConnState::Dead`] address is
    /// revived only by evidence strictly newer than what buried it —
    /// otherwise every gossip round would resurrect a moved mobile
    /// host's abandoned address and re-burn the dial budget on it.
    fn on_pex(&mut self, peers: Vec<(SimAddr, u32)>, now: SimTime) {
        if !self.config.pex.enabled {
            return; // gossip-deaf: legacy behaviour, byte-identical
        }
        self.stats.pex_received += 1;
        let res = self.config.resilience;
        let max_age = self.config.pex.max_age;
        for (addr, age) in peers {
            if addr == self.own_addr {
                continue;
            }
            let age = SimDuration::from_secs(u64::from(age));
            if age > max_age {
                continue; // past the staleness horizon on arrival
            }
            let fresh_at = if now.as_micros() >= age.as_micros() {
                now - age
            } else {
                SimTime::ZERO
            };
            let newer = match self.gossip_age.get(&addr) {
                Some(&prev) => fresh_at > prev,
                None => true,
            };
            if !newer {
                continue;
            }
            self.gossip_age.insert(addr, fresh_at);
            match self.addrs.get_mut(&addr) {
                None => {
                    self.stats.pex_addrs_learned += 1;
                    self.addrs.insert(
                        addr,
                        AddrState {
                            failures: 0,
                            next_attempt: now,
                            connected: false,
                        },
                    );
                }
                Some(st) => {
                    let dead = st.next_attempt == SimTime::MAX
                        || (res.armed && st.failures >= res.max_dial_attempts);
                    if dead && !st.connected {
                        st.failures = 0;
                        st.next_attempt = now;
                    }
                }
            }
        }
        self.try_connects(now);
    }

    /// Emits one PEX round: refreshes live connections to age 0, prunes
    /// the book past the staleness horizon, and sends the freshest
    /// `max_entries` (address-sorted on the wire) to every peer.
    fn gossip_pex(&mut self, now: SimTime) {
        let pex = self.config.pex;
        self.next_pex = now + pex.gossip_interval;
        for addr in self.connected_addrs() {
            self.gossip_age.insert(addr, now);
        }
        let own = self.own_addr;
        // Pure predicate: hash-order retain is commutative and replays
        // identically.
        self.gossip_age
            .retain(|a, t| *a != own && now.saturating_since(*t) <= pex.max_age);
        let mut entries: Vec<(SimAddr, u32)> = self
            .gossip_age
            .iter()
            .map(|(a, t)| {
                let age = now.saturating_since(*t).as_micros() / 1_000_000;
                (*a, u32::try_from(age).unwrap_or(u32::MAX))
            })
            .collect();
        // Freshest first (address as tie-break), capped, then back to
        // the wire's address order.
        entries.sort_unstable_by_key(|&(a, age)| (age, a));
        entries.truncate(pex.max_entries);
        entries.sort_unstable_by_key(|e| e.0);
        if entries.is_empty() {
            return;
        }
        for conn in self.connections() {
            self.stats.pex_sent += 1;
            self.actions.push_back(Action::Send {
                conn,
                msg: Message::Pex {
                    peers: entries.clone(),
                },
            });
        }
    }

    fn on_request(&mut self, conn: ConnKey, block: BlockRef, now: SimTime) {
        let Some(peer) = self.conns.get_mut(&conn) else {
            return;
        };
        // Protocol: requests while choked are ignored; so are requests for
        // data we lack, and blocks longer than the transfer granularity
        // permits (real clients cap at 128 KB; the fluid transport may use
        // piece-sized blocks, so the cap follows the piece length).
        let max_block = self.progress.piece_length().max(128 * 1024);
        if peer.am_choking
            || !self.config.allow_upload
            || !self.config.strategy.uploads()
            || block.len > max_block
            || block.piece >= self.progress.num_pieces()
            || !self.progress.have().get(block.piece)
        {
            return;
        }
        peer.upload_queue.push_back(block);
        self.upload_ready.insert(conn);
        self.drain_uploads(now);
    }

    fn on_piece(&mut self, conn: ConnKey, block: BlockRef, now: SimTime) {
        {
            let Some(peer) = self.conns.get_mut(&conn) else {
                return;
            };
            peer.inflight.retain(|b| *b != block);
            peer.download_est.record(now, block.len as u64);
            peer.last_progress = now;
            peer.snubbed = false; // piece progress unsnubs
        }
        // Identify other requesters before completion wipes the records.
        let others = self.progress.other_requesters(block, conn);
        match self.progress.on_block(block, conn) {
            BlockOutcome::Duplicate => {
                self.stats.duplicate_blocks += 1;
            }
            BlockOutcome::Progress { completed_piece } => {
                self.stats.downloaded_payload += block.len as u64;
                // Credit the sender's peer-id.
                if let Some(id) = self.conns.get(&conn).and_then(|p| p.peer_id) {
                    *self.credit.entry(id).or_insert(0.0) += block.len as f64;
                }
                // Endgame: cancel duplicates elsewhere.
                for other in others {
                    if let Some(peer) = self.conns.get_mut(&other) {
                        peer.inflight.retain(|b| *b != block);
                        self.actions.push_back(Action::Send {
                            conn: other,
                            msg: Message::Cancel(block),
                        });
                    }
                }
                if let Some(piece) = completed_piece {
                    self.metrics.pieces_completed.inc();
                    self.actions.push_back(Action::PieceCompleted { piece });
                    let keys = self.connections();
                    for k in keys {
                        self.actions.push_back(Action::Send {
                            conn: k,
                            msg: Message::Have { index: piece },
                        });
                    }
                    // Our interest in some peers may have lapsed.
                    for k in self.connections() {
                        self.update_interest(k);
                    }
                    if self.progress.is_complete() && !self.completed_reported {
                        self.completed_reported = true;
                        self.actions.push_back(Action::Completed);
                        self.actions.push_back(Action::Announce {
                            event: AnnounceEvent::Completed,
                        });
                    }
                }
            }
        }
        self.fill_requests(conn, now);
    }

    /// The tracker answered an announce.
    pub fn on_tracker_response(&mut self, resp: &AnnounceResponse, now: SimTime) {
        // Strategy hook: adversarial clients stretch or compress the
        // tracker's schedule. The honest stretch (1.0) takes the exact
        // legacy path so its announce timing is bit-for-bit unchanged.
        let stretch = self.config.strategy.announce_stretch();
        let interval = if stretch == 1.0 {
            resp.interval
        } else {
            SimDuration::from_secs_f64(resp.interval.as_secs_f64() * stretch.max(0.0))
        };
        self.next_announce = now + interval;
        self.announce_fail_streak = 0;
        // The tracker owns re-announce pacing: a non-zero `min interval`
        // replaces ours, and a zero one ("unspecified") restores the
        // default floor — a tracker that once tightened the floor and
        // later relaxed it must not leave clients pinned forever.
        self.min_reannounce = if resp.min_interval.is_zero() {
            DEFAULT_MIN_REANNOUNCE
        } else {
            resp.min_interval
        };
        let addrs: Vec<SimAddr> = resp.peers.iter().map(|&(_, a)| a).collect();
        self.seed_known_addrs(&addrs, now);
        self.try_connects(now);
    }

    /// An announce could not be served (every routable shard is down).
    /// Worlds call this *instead of* synthesizing a retry response when
    /// the circuit breaker is armed (`breaker_threshold > 0`): the first
    /// failures climb the resilience announce-backoff ladder, and once
    /// the streak reaches the threshold the breaker opens — the next
    /// probe waits a full `breaker_cooloff`, so a dead tier is polled,
    /// not hammered, while PEX keeps discovery alive.
    pub fn on_announce_failed(&mut self, now: SimTime) {
        let res = self.config.resilience;
        self.announce_fail_streak = self.announce_fail_streak.saturating_add(1);
        let delay = if res.breaker_threshold > 0 && self.announce_fail_streak >= res.breaker_threshold
        {
            self.stats.breaker_trips += 1;
            res.breaker_cooloff
        } else {
            res.announce
                .delay(self.announce_fail_streak - 1, &mut self.backoff_rng)
        };
        self.last_announce = now;
        self.next_announce = now + delay.max(self.min_reannounce);
    }

    // ------------------------------------------------------------------
    // Periodic work
    // ------------------------------------------------------------------

    /// Runs timers: rechoke, announce, request timeouts, dials, upload
    /// drain. Call every few hundred milliseconds of virtual time.
    pub fn on_tick(&mut self, now: SimTime) {
        // Tracker: the regular schedule, plus an early re-announce when
        // we have no peers at all (the recovery path a fixed peer uses
        // after its mobile correspondents vanish).
        if now >= self.next_announce {
            self.next_announce = SimTime::MAX; // reset by the response
            self.last_announce = now;
            self.actions.push_back(Action::Announce {
                event: AnnounceEvent::Periodic,
            });
        } else if self.conns.is_empty()
            && self.next_announce != SimTime::MAX
            && now.saturating_since(self.last_announce) >= self.min_reannounce
            && !self.breaker_is_open()
        {
            self.last_announce = now;
            self.actions.push_back(Action::Announce {
                event: AnnounceEvent::Periodic,
            });
        }
        // PEX gossip round (next_pex is MAX whenever PEX is disabled).
        if now >= self.next_pex {
            self.gossip_pex(now);
        }
        // Armed lifecycle: silence closes, keepalives, snub detection.
        if self.config.resilience.armed {
            self.lifecycle_tick(now);
        }
        // Request timeouts: free the blocks and tell the (slow) remote to
        // drop the queued work so it stops wasting its uplink on us.
        let expired = self.progress.expire_requests(now, REQUEST_TIMEOUT);
        for (conn, block) in expired {
            if let Some(peer) = self.conns.get_mut(&conn) {
                peer.inflight.retain(|b| *b != block);
                self.actions.push_back(Action::Send {
                    conn,
                    msg: Message::Cancel(block),
                });
            }
        }
        // Choking.
        if self.choker.due(now) {
            self.rechoke(now);
        }
        // Refill pipelines (newly freed blocks, timeout requeues). Only
        // unchoked connections we are interested in can take requests —
        // `fill_requests` is a no-op on the rest, so skip them wholesale
        // rather than paying a map lookup per connection to find out.
        // Sorted, so the request order is deterministic (hash order is
        // not) and matches the old full sweep's with the no-ops elided.
        let mut fillable: Vec<ConnKey> = self
            .conns
            .iter()
            .filter(|(_, p)| !p.peer_choking && p.am_interested)
            .map(|(k, _)| *k)
            .collect();
        fillable.sort_unstable();
        for conn in fillable {
            self.fill_requests(conn, now);
        }
        self.drain_uploads(now);
        self.try_connects(now);
    }

    /// Armed-lifecycle periodic work: closes totally silent connections
    /// into backing-off, emits keepalives on the rest, and snubs peers
    /// that stopped delivering pieces.
    fn lifecycle_tick(&mut self, now: SimTime) {
        let res = self.config.resilience;
        // 1. Total silence: the link is dead even if our side still has
        //    work queued. Close it and escalate the address's backoff.
        let mut silent: Vec<ConnKey> = self
            .conns
            .iter()
            .filter(|(_, p)| now.saturating_since(p.last_recv) >= res.keepalive_timeout)
            .map(|(k, _)| *k)
            .collect();
        silent.sort_unstable();
        for conn in silent {
            self.stats.keepalive_closes += 1;
            self.actions.push_back(Action::Close { conn });
            self.on_conn_stalled(conn, now);
        }
        // 2. Keepalives, so a healthy-but-idle connection never trips the
        //    remote's silence detector. Stamps can land in hash order
        //    (commutative); the sends go out in key order.
        let mut due: Vec<ConnKey> = Vec::new();
        for (&conn, peer) in self.conns.iter_mut() {
            if now.saturating_since(peer.last_keepalive) >= res.keepalive_interval {
                peer.last_keepalive = now;
                due.push(conn);
            }
        }
        due.sort_unstable();
        for conn in due {
            self.actions.push_back(Action::Send {
                conn,
                msg: Message::KeepAlive,
            });
        }
        // 3. Snubs: unchoked and interested but no piece for the snub
        //    timeout. Requeue the in-flight blocks (other peers can serve
        //    them) and collapse the pipeline to a single probe request;
        //    the next piece that does arrive unsnubs.
        let mut snubbed: Vec<ConnKey> = self
            .conns
            .iter()
            .filter(|(_, peer)| {
                !peer.snubbed
                    && !peer.peer_choking
                    && peer.am_interested
                    && now.saturating_since(peer.last_progress) >= res.snub_timeout
            })
            .map(|(k, _)| *k)
            .collect();
        snubbed.sort_unstable();
        for conn in snubbed {
            let Some(peer) = self.conns.get_mut(&conn) else {
                continue;
            };
            peer.snubbed = true;
            self.stats.snubs += 1;
            let dropped: Vec<BlockRef> = peer.inflight.drain(..).collect();
            self.progress.cancel_conn(conn);
            for b in dropped {
                self.actions.push_back(Action::Send {
                    conn,
                    msg: Message::Cancel(b),
                });
            }
        }
    }

    fn rechoke(&mut self, now: SimTime) {
        // Relationship history weight: how many "equivalent bytes/second"
        // of standing each byte of past exchange with a peer-id confers.
        // This is what a regenerated peer-id forfeits (paper §3.4) and
        // what identity retention preserves (paper §4.2).
        const HISTORY_WEIGHT: f64 = 0.1;
        // History decays with a ~5-minute time constant, so standing is
        // bounded (≈ 6× the sustained exchange rate at equilibrium): old
        // relationships stay warm across brief absences, but the choke
        // order never freezes into a permanent oligarchy.
        const HISTORY_TAU_SECS: f64 = 300.0;
        // Standing below this is treated as fully decayed: flushed to an
        // exact zero so the eviction pass below can spot dead
        // relationships (exponential decay alone never reaches 0.0).
        const HISTORY_EPSILON: f64 = 1e-9;
        let dt = now.saturating_since(self.last_decay).as_secs_f64();
        self.last_decay = now;
        if dt > 0.0 {
            let factor = (-dt / HISTORY_TAU_SECS).exp();
            for v in self.credit.values_mut() {
                *v *= factor;
                if *v < HISTORY_EPSILON {
                    *v = 0.0;
                }
            }
            for v in self.served.values_mut() {
                *v *= factor;
                if *v < HISTORY_EPSILON {
                    *v = 0.0;
                }
            }
            self.evict_dead_standing();
        }
        let seeding = self.is_seed();
        let mut speers = Vec::with_capacity(self.conns.len());
        let mut conns: Vec<(&ConnKey, &mut Peer)> = self.conns.iter_mut().collect();
        conns.sort_by_key(|(k, _)| **k);
        for (k, peer) in conns {
            let credit = if seeding {
                // Seeds favour peers they can push data to fastest, with
                // standing relationships as tie-breaker.
                let hist = peer
                    .peer_id
                    .map(|id| self.served.get(&id).copied().unwrap_or(0.0))
                    .unwrap_or(0.0);
                peer.upload_est.rate(now) + hist * HISTORY_WEIGHT
            } else {
                // Leeches favour peers by live download rate plus the
                // accumulated peer-id credit.
                let hist = peer
                    .peer_id
                    .map(|id| self.credit.get(&id).copied().unwrap_or(0.0))
                    .unwrap_or(0.0);
                peer.download_est.rate(now) + hist * HISTORY_WEIGHT
            };
            speers.push(StrategyPeer {
                key: *k,
                peer_id: peer.peer_id,
                interested: peer.peer_interested,
                credit,
                unchoked_us: !peer.peer_choking,
                we_unchoked: !peer.am_choking,
            });
        }
        // Strategy hooks: learn from this round's reciprocation state,
        // then rewrite the credit the choker ranks by. Honest leaves the
        // credit untouched.
        self.config.strategy.observe_rechoke(&speers);
        let snapshots: Vec<PeerSnapshot> = speers
            .iter()
            .map(|sp| PeerSnapshot {
                key: sp.key,
                interested: sp.interested,
                credit: self.config.strategy.shape_credit(sp),
            })
            .collect();
        self.metrics.rechokes.inc();
        if self.metrics.handle.is_enabled() {
            // Per-peer tit-for-tat credit, refreshed once per rechoke so
            // the gauge map tracks the live standing order.
            for snap in &snapshots {
                if let Some(id) = self.conns.get(&snap.key).and_then(|p| p.peer_id) {
                    let label = &self.metrics.label;
                    self.metrics
                        .handle
                        .gauge(&format!("bt.{label}.credit.{id}"))
                        .set(snap.credit);
                }
            }
        }
        let decision = self.choker.rechoke(now, &snapshots, &mut self.rng);
        for conn in self.connections() {
            let unchoke = decision.unchoked.contains(&conn);
            let Some(peer) = self.conns.get_mut(&conn) else {
                continue;
            };
            if unchoke && peer.am_choking {
                peer.am_choking = false;
                self.metrics.unchoke_flips.inc();
                self.actions.push_back(Action::Send {
                    conn,
                    msg: Message::Unchoke,
                });
            } else if !unchoke && !peer.am_choking {
                peer.am_choking = true;
                self.metrics.unchoke_flips.inc();
                // Already-granted requests stay queued and are still
                // served: dropping them would re-transfer whole blocks
                // whenever a borderline peer flaps between choke states
                // across rechoke rounds. New requests are refused.
                self.actions.push_back(Action::Send {
                    conn,
                    msg: Message::Choke,
                });
            }
        }
    }

    /// Evicts fully-decayed standing for peers that are gone for good.
    ///
    /// The identity-retention contract says standing survives
    /// disconnections — a returning peer-id must find its credit — so
    /// only entries that are *both* at exactly zero (flushed by the
    /// decay pass) *and* belong to a peer with no live connection whose
    /// last-known address is Dead in the lifecycle machine are removed.
    /// Without this, every peer-id ever handshaken leaves a permanent
    /// `credit` entry and churn-heavy runs sweep an ever-growing map at
    /// each rechoke.
    fn evict_dead_standing(&mut self) {
        let res = self.config.resilience;
        let mut live: Vec<PeerId> = self.conns.values().filter_map(|p| p.peer_id).collect();
        live.sort_unstable();
        let addrs = &self.addrs;
        let id_addr = &self.id_addr;
        // An id is reclaimable when its address's dial budget is spent
        // (or the address was never recorded, so nothing will re-dial
        // it). The predicate is pure, so `retain`'s hash-order visit is
        // commutative and replays identically.
        let reclaimable = |id: &PeerId| -> bool {
            if live.binary_search(id).is_ok() {
                return false;
            }
            match id_addr.get(id).and_then(|a| addrs.get(a)) {
                Some(st) => {
                    !st.connected
                        && (st.next_attempt == SimTime::MAX
                            || (res.armed && st.failures >= res.max_dial_attempts))
                }
                None => true,
            }
        };
        self.credit.retain(|id, v| *v != 0.0 || !reclaimable(id));
        self.served.retain(|id, v| *v != 0.0 || !reclaimable(id));
        let credit = &self.credit;
        let served = &self.served;
        self.id_addr.retain(|id, _| {
            credit.contains_key(id) || served.contains_key(id) || live.binary_search(id).is_ok()
        });
    }

    fn drain_uploads(&mut self, now: SimTime) {
        if !self.config.allow_upload || self.upload_ready.is_empty() {
            return;
        }
        // Round-robin across connections with queued blocks, in key order
        // for fairness.
        let keys: Vec<ConnKey> = self.upload_ready.iter().copied().collect();
        let mut progressed = true;
        while progressed {
            progressed = false;
            for &conn in &keys {
                let Some(peer) = self.conns.get_mut(&conn) else {
                    continue;
                };
                let Some(&block) = peer.upload_queue.front() else {
                    continue;
                };
                if !self.upload_bucket.try_consume(now, block.len as u64) {
                    return; // bucket empty; retry next tick
                }
                peer.upload_queue.pop_front();
                if peer.upload_queue.is_empty() {
                    self.upload_ready.remove(&conn);
                }
                peer.upload_est.record(now, block.len as u64);
                if let Some(id) = peer.peer_id {
                    *self.served.entry(id).or_insert(0.0) += block.len as f64;
                }
                self.stats.uploaded_payload += block.len as u64;
                self.actions.push_back(Action::Send {
                    conn,
                    msg: Message::Piece(block),
                });
                progressed = true;
            }
        }
    }

    fn try_connects(&mut self, now: SimTime) {
        // A seed wants nothing, so (unless role reversal demands it) it
        // never dials — it waits to be found.
        if self.is_seed() && !self.config.dial_while_seeding {
            return;
        }
        let mut budget = MAX_CONNECTIONS.saturating_sub(self.conns.len());
        if budget == 0 {
            return;
        }
        let mut candidates: Vec<SimAddr> = self
            .addrs
            .iter()
            .filter(|(_, st)| !st.connected && st.next_attempt <= now)
            .map(|(a, _)| *a)
            .collect();
        candidates.sort_unstable();
        for addr in candidates {
            if budget == 0 {
                break;
            }
            // Mark attempt: do not re-dial until failure/success updates.
            let st = self.addrs.get_mut(&addr).expect("candidate exists");
            st.next_attempt = now + DIAL_BACKOFF;
            let conn = self.alloc_conn();
            self.actions.push_back(Action::Connect { conn, addr });
            budget -= 1;
        }
    }

    // ------------------------------------------------------------------
    // Requesting
    // ------------------------------------------------------------------

    fn update_interest(&mut self, conn: ConnKey) {
        let Some(peer) = self.conns.get_mut(&conn) else {
            return;
        };
        let want = self
            .progress
            .have()
            .missing_from(&peer.have)
            .next()
            .is_some();
        if want && !peer.am_interested {
            peer.am_interested = true;
            self.actions.push_back(Action::Send {
                conn,
                msg: Message::Interested,
            });
        } else if !want && peer.am_interested {
            peer.am_interested = false;
            self.actions.push_back(Action::Send {
                conn,
                msg: Message::NotInterested,
            });
        }
    }

    fn fill_requests(&mut self, conn: ConnKey, now: SimTime) {
        loop {
            let Some(peer) = self.conns.get(&conn) else {
                return;
            };
            if peer.peer_choking || !peer.am_interested {
                return;
            }
            let inflight_bytes: u64 = peer.inflight.iter().map(|b| b.len as u64).sum();
            if inflight_bytes >= REQUEST_PIPELINE_BYTES {
                return;
            }
            // A snubbed peer keeps a single probe request outstanding:
            // enough to notice recovery, not enough to strand blocks.
            // Otherwise the strategy may resize the configured pipeline
            // (greedy clients widen it; Honest keeps it).
            let pipeline = if peer.snubbed {
                1
            } else {
                self.config.strategy.pipeline_cap(REQUEST_PIPELINE)
            };
            let room = pipeline.saturating_sub(peer.inflight.len());
            if room == 0 {
                return;
            }
            // Endgame duplication is restricted to the very tail of the
            // download: duplicating large blocks earlier wastes real
            // bandwidth for marginal latency.
            let missing = self.progress.num_pieces() - self.progress.have().count();
            let endgame = missing <= 3 && self.progress.in_endgame();

            // 1. Finish partial pieces the peer can serve. `partial_pieces`
            //    yields ascending indices, so the first hit is the lowest —
            //    no need to collect and sort the whole set.
            let mut piece_to_request: Option<u32> = self
                .progress
                .partial_pieces()
                .find(|&p| peer.have.get(p) && !self.progress.fully_requested(p));

            // 2. Otherwise start a new piece via the picker.
            if piece_to_request.is_none() {
                let candidates: Vec<u32> = self
                    .progress
                    .have()
                    .missing_from(&peer.have)
                    .filter(|&p| !self.progress.fully_requested(p))
                    .collect();
                if !candidates.is_empty() {
                    let ctx = PickContext {
                        availability: &self.availability,
                        downloaded_fraction: self.progress.downloaded_fraction(),
                        stable_for: now.saturating_since(self.stable_since),
                    };
                    piece_to_request = self.config.picker.pick(&candidates, &ctx, &mut self.rng);
                }
            }

            // 3. Endgame: duplicate outstanding blocks.
            if piece_to_request.is_none() && endgame {
                let mut missing: Vec<u32> = self.progress.have().missing_from(&peer.have).collect();
                missing.sort_unstable();
                piece_to_request = missing.first().copied();
            }

            let Some(piece) = piece_to_request else {
                return;
            };
            // Respect the byte budget too (at least one block).
            let Some(peer) = self.conns.get(&conn) else {
                return;
            };
            let inflight_bytes: u64 = peer.inflight.iter().map(|b| b.len as u64).sum();
            let byte_budget = REQUEST_PIPELINE_BYTES.saturating_sub(inflight_bytes);
            let block_len = self.progress.block_ref(piece, 0).len.max(1) as u64;
            let room_by_bytes = (byte_budget / block_len).max(1) as usize;
            let blocks =
                self.progress
                    .take_blocks(piece, conn, now, room.min(room_by_bytes), endgame);
            if blocks.is_empty() {
                return;
            }
            let Some(peer) = self.conns.get_mut(&conn) else {
                return;
            };
            for b in blocks {
                peer.inflight.push(b);
                self.actions.push_back(Action::Send {
                    conn,
                    msg: Message::Request(b),
                });
            }
        }
    }

    fn close_conn(&mut self, conn: ConnKey) {
        if self.conns.contains_key(&conn) {
            self.actions.push_back(Action::Close { conn });
            // on_conn_closed will be echoed by the transport; to keep the
            // state machine self-contained also clean up now.
            let now = SimTime::ZERO.max(self.stable_since);
            self.on_conn_closed(conn, now);
        }
    }

    /// Serializes the session's dynamic state.
    ///
    /// The `ClientConfig` largely rides outside the blob (it is rebuilt by
    /// the scenario's `make_config`, including the unserializable
    /// `Box<dyn PiecePicker>`); only the two fields mutated at runtime —
    /// `upload_limit` (LIHD retargets it) and `allow_upload` (role
    /// reversal flips it) — are captured. Metrics instruments are shared
    /// `Arc` cells owned by the embedder's `MetricsHandle` and are
    /// restored by name at that level; re-call [`Client::attach_metrics`]
    /// after [`Client::restore_state`].
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.section("client");
        self.save_fields(w);
        // Strategy state rides at the tail: the config (and thus the
        // strategy *type*) is rebuilt by the scenario's `make_config`,
        // and `load` restores the instance's mutable state onto it.
        self.config.strategy.save(w);
    }

    /// Restores state saved by [`Client::save_state`] onto a client freshly
    /// built from the same scenario configuration. See `save_state` for
    /// what is deliberately left to the rebuild.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) {
        r.section("client");
        self.restore_fields(r);
        self.config.strategy.load(r);
    }

    snap_in_place!(fn save_fields / restore_fields {
        config.upload_limit,
        config.allow_upload,
        info_hash,
        peer_id,
        progress,
        conns,
        upload_ready,
        next_conn,
        availability,
        addrs,
        choker,
        credit,
        served,
        id_addr,
        actions,
        rng,
        backoff_rng,
        upload_bucket,
        next_announce,
        stable_since,
        completed_reported,
        last_announce,
        min_reannounce,
        last_decay,
        stats,
        own_addr,
        gossip_age,
        next_pex,
        announce_fail_streak,
    });
}

use simnet::snapshot::{snap_enum, snap_in_place, snap_struct, SnapReader, SnapWriter};

snap_struct!(Peer {
    addr,
    peer_id,
    outgoing,
    connected_at,
    am_choking,
    am_interested,
    peer_choking,
    peer_interested,
    have,
    inflight,
    upload_queue,
    download_est,
    upload_est,
    last_recv,
    last_progress,
    last_keepalive,
    snubbed,
});

snap_struct!(AddrState {
    failures,
    next_attempt,
    connected,
});

snap_struct!(ClientStats {
    downloaded_payload,
    uploaded_payload,
    connections_opened,
    dial_failures,
    duplicate_blocks,
    snubs,
    keepalive_closes,
    pex_sent,
    pex_received,
    pex_addrs_learned,
    breaker_trips,
});

snap_enum!(Action {
    0 => Connect { conn, addr },
    1 => Send { conn, msg },
    2 => Close { conn },
    3 => Announce { event },
    4 => PieceCompleted { piece },
    5 => Completed,
});

#[cfg(test)]
mod tests {
    use super::*;

    const PIECE: u32 = 64;
    const LEN: u64 = 256; // 4 pieces
    const BLOCK: u32 = 16 * 1024; // default block bigger than piece: 1 block per piece

    fn client(seeded: bool) -> Client {
        let progress = if seeded {
            TorrentProgress::complete(PIECE, LEN)
        } else {
            TorrentProgress::new(PIECE, LEN)
        };
        let _ = BLOCK;
        Client::with_progress(
            ClientConfig::default(),
            InfoHash([1; 20]),
            PeerId([7; 20]),
            progress,
            SimAddr(1),
            SimRng::new(9),
        )
    }

    fn drain(c: &mut Client) -> Vec<Action> {
        std::iter::from_fn(|| c.poll_action()).collect()
    }

    fn sends_to(actions: &[Action], conn: ConnKey) -> Vec<&Message> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { conn: c, msg } if *c == conn => Some(msg),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn start_announces() {
        let mut c = client(false);
        c.start(SimTime::ZERO);
        let actions = drain(&mut c);
        assert_eq!(
            actions,
            vec![Action::Announce {
                event: AnnounceEvent::Started
            }]
        );
    }

    #[test]
    fn connection_sends_handshake_and_bitfield() {
        let mut c = client(false);
        let now = SimTime::ZERO;
        c.on_connected(1, SimAddr(5), now);
        let actions = drain(&mut c);
        let msgs = sends_to(&actions, 1);
        assert!(matches!(msgs[0], Message::Handshake { .. }));
        assert!(matches!(msgs[1], Message::Bitfield(_)));
    }

    #[test]
    fn interest_follows_bitfields() {
        let mut c = client(false);
        let now = SimTime::ZERO;
        c.on_connected(1, SimAddr(5), now);
        drain(&mut c);
        c.on_message(
            1,
            Message::Handshake {
                info_hash: InfoHash([1; 20]),
                peer_id: PeerId([2; 20]),
            },
            now,
        );
        // Peer has pieces we lack -> Interested.
        c.on_message(1, Message::Bitfield(Bitfield::full(4)), now);
        let actions = drain(&mut c);
        assert!(sends_to(&actions, 1)
            .iter()
            .any(|m| matches!(m, Message::Interested)));
    }

    #[test]
    fn wrong_info_hash_closes() {
        let mut c = client(false);
        let now = SimTime::ZERO;
        c.on_connected(1, SimAddr(5), now);
        drain(&mut c);
        c.on_message(
            1,
            Message::Handshake {
                info_hash: InfoHash([99; 20]),
                peer_id: PeerId([2; 20]),
            },
            now,
        );
        let actions = drain(&mut c);
        assert!(actions.contains(&Action::Close { conn: 1 }));
        assert_eq!(c.connection_count(), 0);
    }

    #[test]
    fn unchoke_triggers_requests_and_piece_completes() {
        let mut c = client(false);
        let now = SimTime::ZERO;
        c.on_connected(1, SimAddr(5), now);
        drain(&mut c);
        c.on_message(
            1,
            Message::Handshake {
                info_hash: InfoHash([1; 20]),
                peer_id: PeerId([2; 20]),
            },
            now,
        );
        c.on_message(1, Message::Bitfield(Bitfield::full(4)), now);
        drain(&mut c);
        c.on_message(1, Message::Unchoke, now);
        let actions = drain(&mut c);
        let requests: Vec<BlockRef> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    msg: Message::Request(b),
                    ..
                } => Some(*b),
                _ => None,
            })
            .collect();
        // 4 pieces of 64 bytes = 4 single-block pieces, pipeline 8 covers all.
        assert_eq!(requests.len(), 4);
        // Deliver all blocks; torrent completes.
        for b in requests {
            c.on_message(1, Message::Piece(b), now);
        }
        let actions = drain(&mut c);
        assert!(actions.contains(&Action::Completed));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Announce {
                event: AnnounceEvent::Completed
            }
        )));
        // Have messages broadcast per piece.
        let haves = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: Message::Have { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(haves, 4);
        assert!(c.is_seed());
        assert_eq!(c.stats().downloaded_payload, LEN);
    }

    #[test]
    fn requests_ignored_while_choking_peer() {
        let mut c = client(true);
        let now = SimTime::ZERO;
        c.on_connected(1, SimAddr(5), now);
        drain(&mut c);
        // Peer asks but we never unchoked them.
        c.on_message(
            1,
            Message::Request(BlockRef {
                piece: 0,
                offset: 0,
                len: 64,
            }),
            now,
        );
        let actions = drain(&mut c);
        assert!(!actions.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Message::Piece(_),
                ..
            }
        )));
    }

    #[test]
    fn seed_serves_after_rechoke() {
        let mut c = client(true);
        let now = SimTime::ZERO;
        c.on_connected(1, SimAddr(5), now);
        drain(&mut c);
        c.on_message(
            1,
            Message::Handshake {
                info_hash: InfoHash([1; 20]),
                peer_id: PeerId([2; 20]),
            },
            now,
        );
        c.on_message(1, Message::Interested, now);
        c.on_tick(now); // rechoke runs, peer unchoked
        let actions = drain(&mut c);
        assert!(sends_to(&actions, 1)
            .iter()
            .any(|m| matches!(m, Message::Unchoke)));
        let block = BlockRef {
            piece: 0,
            offset: 0,
            len: 64,
        };
        c.on_message(1, Message::Request(block), now);
        let actions = drain(&mut c);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Send { msg: Message::Piece(b), .. } if *b == block)));
        assert_eq!(c.stats().uploaded_payload, 64);
    }

    #[test]
    fn upload_disabled_never_serves() {
        let mut c = client(true);
        c.config.allow_upload = false;
        let now = SimTime::ZERO;
        c.on_connected(1, SimAddr(5), now);
        drain(&mut c);
        c.on_message(1, Message::Interested, now);
        c.on_tick(now);
        drain(&mut c);
        c.on_message(
            1,
            Message::Request(BlockRef {
                piece: 0,
                offset: 0,
                len: 64,
            }),
            now,
        );
        let actions = drain(&mut c);
        assert!(!actions.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Message::Piece(_),
                ..
            }
        )));
    }

    #[test]
    fn upload_limit_defers_service() {
        let mut c = client(true);
        c.set_upload_limit(Some(64.0)); // one block per second
        let now = SimTime::ZERO;
        c.on_connected(1, SimAddr(5), now);
        drain(&mut c);
        c.on_message(1, Message::Interested, now);
        c.on_tick(now);
        drain(&mut c);
        for piece in 0..4u32 {
            c.on_message(
                1,
                Message::Request(BlockRef {
                    piece,
                    offset: 0,
                    len: 64,
                }),
                now,
            );
        }
        let served_now = drain(&mut c)
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: Message::Piece(_),
                        ..
                    }
                )
            })
            .count();
        assert!(served_now < 4, "bucket must defer some blocks");
        // Time passes; ticks drain the queue.
        let mut total = served_now;
        for s in 1..=5u64 {
            c.on_tick(SimTime::from_secs(s));
            total += drain(&mut c)
                .iter()
                .filter(|a| {
                    matches!(
                        a,
                        Action::Send {
                            msg: Message::Piece(_),
                            ..
                        }
                    )
                })
                .count();
        }
        assert_eq!(total, 4);
    }

    #[test]
    fn tracker_response_spawns_dials() {
        let mut c = client(false);
        let now = SimTime::ZERO;
        let resp = AnnounceResponse {
            interval: SimDuration::from_mins(15),
            min_interval: SimDuration::ZERO,
            peers: vec![
                (PeerId([2; 20]), SimAddr(10)),
                (PeerId([3; 20]), SimAddr(11)),
            ],
            complete: 1,
            incomplete: 1,
        };
        c.on_tracker_response(&resp, now);
        let actions = drain(&mut c);
        let dials: Vec<SimAddr> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Connect { addr, .. } => Some(*addr),
                _ => None,
            })
            .collect();
        assert_eq!(dials, vec![SimAddr(10), SimAddr(11)]);
    }

    #[test]
    fn own_address_is_not_dialled() {
        let mut c = client(false);
        let resp = AnnounceResponse {
            interval: SimDuration::from_mins(15),
            min_interval: SimDuration::ZERO,
            peers: vec![(PeerId([2; 20]), SimAddr(1))], // our own addr
            complete: 0,
            incomplete: 1,
        };
        c.on_tracker_response(&resp, SimTime::ZERO);
        let actions = drain(&mut c);
        assert!(actions.iter().all(|a| !matches!(a, Action::Connect { .. })));
    }

    #[test]
    fn dial_failure_backs_off() {
        let mut c = client(false);
        let now = SimTime::ZERO;
        let resp = AnnounceResponse {
            interval: SimDuration::from_mins(15),
            min_interval: SimDuration::ZERO,
            peers: vec![(PeerId([2; 20]), SimAddr(10))],
            complete: 0,
            incomplete: 1,
        };
        c.on_tracker_response(&resp, now);
        drain(&mut c);
        c.on_conn_failed(SimAddr(10), now);
        // Immediately after failure: no new dial.
        c.on_tick(now);
        assert!(drain(&mut c)
            .iter()
            .all(|a| !matches!(a, Action::Connect { .. })));
        // After the backoff doubles out, the dial is retried.
        c.on_tick(SimTime::from_secs(120));
        assert!(drain(&mut c)
            .iter()
            .any(|a| matches!(a, Action::Connect { addr, .. } if *addr == SimAddr(10))));
        assert_eq!(c.stats().dial_failures, 1);
    }

    #[test]
    fn credit_accrues_by_peer_id_and_survives_disconnect() {
        let mut c = client(false);
        let now = SimTime::ZERO;
        let id = PeerId([2; 20]);
        c.on_connected(1, SimAddr(5), now);
        drain(&mut c);
        c.on_message(
            1,
            Message::Handshake {
                info_hash: InfoHash([1; 20]),
                peer_id: id,
            },
            now,
        );
        c.on_message(1, Message::Bitfield(Bitfield::full(4)), now);
        c.on_message(1, Message::Unchoke, now);
        drain(&mut c);
        let block = BlockRef {
            piece: 0,
            offset: 0,
            len: 64,
        };
        // Must actually be an in-flight block; find it from requests.
        let _ = block;
        let reqs: Vec<BlockRef> = c.conns.get(&1).unwrap().inflight.clone();
        c.on_message(1, Message::Piece(reqs[0]), now);
        assert!(c.credit_of(id) > 0.0);
        let before = c.credit_of(id);
        c.on_conn_closed(1, now);
        assert_eq!(c.credit_of(id), before, "credit keyed by id persists");
        // A different id starts from zero — the mobility pathology.
        assert_eq!(c.credit_of(PeerId([3; 20])), 0.0);
    }

    #[test]
    fn conn_close_requeues_blocks() {
        let mut c = client(false);
        let now = SimTime::ZERO;
        c.on_connected(1, SimAddr(5), now);
        drain(&mut c);
        c.on_message(
            1,
            Message::Handshake {
                info_hash: InfoHash([1; 20]),
                peer_id: PeerId([2; 20]),
            },
            now,
        );
        c.on_message(1, Message::Bitfield(Bitfield::full(4)), now);
        c.on_message(1, Message::Unchoke, now);
        drain(&mut c);
        assert!(c.progress.in_flight_total() > 0);
        c.on_conn_closed(1, now);
        assert_eq!(c.progress.in_flight_total(), 0);
        assert_eq!(c.connection_count(), 0);
    }

    // ------------------------------------------------------------------
    // Armed lifecycle
    // ------------------------------------------------------------------

    fn armed_client(res: ResilienceConfig) -> Client {
        Client::with_progress(
            ClientConfig {
                resilience: res,
                ..ClientConfig::default()
            },
            InfoHash([1; 20]),
            PeerId([7; 20]),
            TorrentProgress::new(PIECE, LEN),
            SimAddr(1),
            SimRng::new(9),
        )
    }

    /// Establishes conn 1 to SimAddr(5) with a full remote bitfield and
    /// an unchoke, leaving requests in flight.
    fn establish(c: &mut Client, now: SimTime) {
        c.seed_known_addrs(&[SimAddr(5)], now);
        c.on_connected(1, SimAddr(5), now);
        drain(c);
        c.on_message(
            1,
            Message::Handshake {
                info_hash: InfoHash([1; 20]),
                peer_id: PeerId([2; 20]),
            },
            now,
        );
        c.on_message(1, Message::Bitfield(Bitfield::full(4)), now);
        c.on_message(1, Message::Unchoke, now);
        drain(c);
    }

    #[test]
    fn armed_dial_failures_escalate_then_exhaust() {
        let mut res = ResilienceConfig::armed();
        res.max_dial_attempts = 4;
        let mut c = armed_client(res);
        let now = SimTime::ZERO;
        c.seed_known_addrs(&[SimAddr(10)], now);
        let mut prev_gap = SimDuration::ZERO;
        for _ in 0..3 {
            c.on_conn_failed(SimAddr(10), now);
            let (_, _, next, _) = c.addr_states()[0];
            let gap = next.saturating_since(now);
            assert!(gap > prev_gap, "backoff must escalate: {gap:?} vs {prev_gap:?}");
            assert_eq!(c.lifecycle_of(SimAddr(10), now), Some(ConnState::BackingOff));
            prev_gap = gap;
        }
        // Fourth failure exhausts the budget: the address is dead and
        // never dialled again.
        c.on_conn_failed(SimAddr(10), now);
        assert_eq!(c.lifecycle_of(SimAddr(10), now), Some(ConnState::Dead));
        c.on_tick(SimTime::from_secs(1_000_000));
        assert!(drain(&mut c)
            .iter()
            .all(|a| !matches!(a, Action::Connect { .. })));
    }

    #[test]
    fn snub_and_unsnub_round_trip() {
        let mut res = ResilienceConfig::armed();
        res.snub_timeout = SimDuration::from_secs(10);
        let mut c = armed_client(res);
        establish(&mut c, SimTime::ZERO);
        assert_eq!(c.is_snubbed(1), Some(false));
        // No piece for the snub timeout: the peer is snubbed, in-flight
        // blocks are cancelled, and a single probe request remains.
        c.on_tick(SimTime::from_secs(10));
        let actions = drain(&mut c);
        assert_eq!(c.is_snubbed(1), Some(true));
        assert_eq!(c.stats().snubs, 1);
        assert!(sends_to(&actions, 1)
            .iter()
            .any(|m| matches!(m, Message::Cancel(_))));
        let probes = c.conns.get(&1).unwrap().inflight.clone();
        assert_eq!(probes.len(), 1, "snubbed pipeline collapses to a probe");
        // The probe is answered: the peer unsnubs and the pipeline
        // refills past one request.
        c.on_message(1, Message::Piece(probes[0]), SimTime::from_secs(11));
        drain(&mut c);
        assert_eq!(c.is_snubbed(1), Some(false));
        assert!(c.conns.get(&1).unwrap().inflight.len() > 1);
    }

    #[test]
    fn zero_credit_entries_evicted_once_peer_is_dead() {
        let mut res = ResilienceConfig::armed();
        res.max_dial_attempts = 2;
        let mut c = armed_client(res);
        establish(&mut c, SimTime::ZERO);
        // The handshake minted a zero-credit entry for the peer-id.
        assert_eq!(c.standing_table_sizes(), (1, 0, 1));
        // Live connection: the entry survives rechokes even at zero.
        c.on_tick(SimTime::from_secs(50));
        drain(&mut c);
        assert_eq!(c.standing_table_sizes(), (1, 0, 1));
        // The peer disconnects and its dial budget is exhausted: Dead.
        c.on_conn_closed(1, SimTime::from_secs(60));
        c.on_conn_failed(SimAddr(5), SimTime::from_secs(61));
        c.on_conn_failed(SimAddr(5), SimTime::from_secs(62));
        assert_eq!(
            c.lifecycle_of(SimAddr(5), SimTime::from_secs(62)),
            Some(ConnState::Dead)
        );
        // The next rechoke reclaims the orphaned zero-credit entry.
        c.on_tick(SimTime::from_secs(70));
        drain(&mut c);
        assert_eq!(c.standing_table_sizes(), (0, 0, 0), "dead zero-credit leak");
    }

    #[test]
    fn earned_credit_survives_death_until_fully_decayed() {
        let mut res = ResilienceConfig::armed();
        res.max_dial_attempts = 2;
        let mut c = armed_client(res);
        establish(&mut c, SimTime::ZERO);
        // The peer delivers a block: its id now holds real credit.
        let block = c.conns.get(&1).unwrap().inflight[0];
        c.on_message(1, Message::Piece(block), SimTime::from_secs(1));
        drain(&mut c);
        assert!(c.credit_of(PeerId([2; 20])) > 0.0);
        // Disconnect and exhaust the dial budget: Dead, but standing is
        // the identity-retention contract — the entry must survive while
        // any credit remains, so a returning peer-id finds it.
        c.on_conn_closed(1, SimTime::from_secs(2));
        c.on_conn_failed(SimAddr(5), SimTime::from_secs(3));
        c.on_conn_failed(SimAddr(5), SimTime::from_secs(4));
        c.on_tick(SimTime::from_secs(100));
        drain(&mut c);
        assert!(
            c.credit_of(PeerId([2; 20])) > 0.0,
            "nonzero credit evicted while peer Dead"
        );
        assert_eq!(c.standing_table_sizes().0, 1);
        // Hours later the credit has decayed through the flush epsilon:
        // now (and only now) the dead entry is reclaimed.
        c.on_tick(SimTime::from_secs(20_000));
        drain(&mut c);
        assert_eq!(c.standing_table_sizes(), (0, 0, 0), "decayed entry kept");
    }

    #[test]
    fn free_rider_strategy_never_serves_requests() {
        let mut c = Client::with_progress(
            ClientConfig {
                strategy: Box::new(crate::strategy::FreeRider),
                ..ClientConfig::default()
            },
            InfoHash([1; 20]),
            PeerId([7; 20]),
            TorrentProgress::complete(PIECE, LEN),
            SimAddr(1),
            SimRng::new(9),
        );
        let now = SimTime::ZERO;
        c.on_connected(1, SimAddr(5), now);
        drain(&mut c);
        c.on_message(
            1,
            Message::Handshake {
                info_hash: InfoHash([1; 20]),
                peer_id: PeerId([2; 20]),
            },
            now,
        );
        c.on_message(1, Message::Interested, now);
        c.on_tick(SimTime::from_secs(1)); // rechoke may unchoke the peer
        drain(&mut c);
        c.on_message(
            1,
            Message::Request(c.progress.block_ref(0, 0)),
            SimTime::from_secs(2),
        );
        let actions = drain(&mut c);
        assert!(
            sends_to(&actions, 1)
                .iter()
                .all(|m| !matches!(m, Message::Piece(_))),
            "free rider served a request"
        );
        assert_eq!(c.stats().uploaded_payload, 0);
    }

    #[test]
    fn silent_connection_closes_into_backoff() {
        let mut res = ResilienceConfig::armed();
        res.keepalive_interval = SimDuration::from_secs(8);
        res.keepalive_timeout = SimDuration::from_secs(20);
        let mut c = armed_client(res);
        establish(&mut c, SimTime::ZERO);
        // Idle but not silent long enough: a keepalive goes out.
        c.on_tick(SimTime::from_secs(8));
        let actions = drain(&mut c);
        assert!(sends_to(&actions, 1)
            .iter()
            .any(|m| matches!(m, Message::KeepAlive)));
        // Total silence past the timeout: closed into backing-off.
        c.on_tick(SimTime::from_secs(20));
        let actions = drain(&mut c);
        assert!(actions.contains(&Action::Close { conn: 1 }));
        assert_eq!(c.stats().keepalive_closes, 1);
        assert_eq!(c.connection_count(), 0);
        assert_eq!(
            c.lifecycle_of(SimAddr(5), SimTime::from_secs(20)),
            Some(ConnState::BackingOff)
        );
    }

    #[test]
    fn incoming_traffic_defers_the_silence_close() {
        let mut res = ResilienceConfig::armed();
        res.keepalive_timeout = SimDuration::from_secs(20);
        let mut c = armed_client(res);
        establish(&mut c, SimTime::ZERO);
        // The remote's keepalive resets the silence clock.
        c.on_message(1, Message::KeepAlive, SimTime::from_secs(15));
        c.on_tick(SimTime::from_secs(20));
        drain(&mut c);
        assert_eq!(c.connection_count(), 1, "live link must not be reaped");
    }

    #[test]
    fn stall_escalates_backoff_when_armed_but_not_unarmed() {
        // Unarmed: a stall is the legacy close — flat redial delay, no
        // failure escalation.
        let mut c = client(false);
        let now = SimTime::ZERO;
        establish(&mut c, now);
        c.on_conn_stalled(1, now);
        let (_, failures, next, _) = c.addr_states()[0];
        assert_eq!(failures, 0);
        assert_eq!(next.saturating_since(now), SimDuration::from_secs(30));
        // Armed: a stall starts the backoff ladder, a failed redial
        // climbs it, and a successful reconnection resets it.
        let mut c = armed_client(ResilienceConfig::armed());
        establish(&mut c, now);
        c.on_conn_stalled(1, now);
        let (_, failures, next1, _) = c.addr_states()[0];
        assert_eq!(failures, 1);
        assert!(next1 > now, "stall must enter backing-off");
        c.on_conn_failed(SimAddr(5), now);
        let (_, failures, next2, _) = c.addr_states()[0];
        assert_eq!(failures, 2);
        assert!(
            next2.saturating_since(now) > next1.saturating_since(now),
            "a failed redial must wait longer than the first stall"
        );
        c.on_connected(2, SimAddr(5), now);
        drain(&mut c);
        assert_eq!(c.addr_states()[0].1, 0, "success resets the ladder");
    }

    // ------------------------------------------------------------------
    // PEX gossip and the announce circuit breaker
    // ------------------------------------------------------------------

    fn pex_client(pex: PexConfig) -> Client {
        Client::with_progress(
            ClientConfig {
                pex,
                ..ClientConfig::default()
            },
            InfoHash([1; 20]),
            PeerId([7; 20]),
            TorrentProgress::new(PIECE, LEN),
            SimAddr(1),
            SimRng::new(9),
        )
    }

    fn pex_sends(actions: &[Action]) -> Vec<(ConnKey, Vec<(SimAddr, u32)>)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    conn,
                    msg: Message::Pex { peers },
                } => Some((*conn, peers.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn pex_gossip_carries_fresh_connected_peers() {
        let mut c = pex_client(PexConfig {
            enabled: true,
            ..PexConfig::default()
        });
        establish(&mut c, SimTime::ZERO);
        c.on_tick(SimTime::from_secs(1));
        let gossip = pex_sends(&drain(&mut c));
        assert_eq!(gossip.len(), 1, "one PEX per connection per round");
        // Live connections are refreshed to age 0 at gossip time.
        assert_eq!(gossip[0].1, vec![(SimAddr(5), 0)]);
        // The next round waits out the gossip interval.
        c.on_tick(SimTime::from_secs(2));
        assert!(pex_sends(&drain(&mut c)).is_empty());
        c.on_tick(SimTime::from_secs(61));
        assert_eq!(pex_sends(&drain(&mut c)).len(), 1);
    }

    #[test]
    fn received_pex_seeds_dials_and_freshness() {
        let mut c = pex_client(PexConfig {
            enabled: true,
            ..PexConfig::default()
        });
        let now = SimTime::from_secs(100);
        establish(&mut c, now);
        c.on_message(
            1,
            Message::Pex {
                peers: vec![(SimAddr(10), 40), (SimAddr(1), 0)],
            },
            now,
        );
        let actions = drain(&mut c);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::Connect { addr, .. } if *addr == SimAddr(10))),
            "gossiped address must be dialled"
        );
        assert_eq!(c.stats().pex_addrs_learned, 1);
        // Our own address never enters the book; the gossiped entry is
        // dated by its age.
        assert_eq!(
            c.pex_book(),
            vec![(SimAddr(5), now), (SimAddr(10), SimTime::from_secs(60))]
        );
    }

    #[test]
    fn pex_disabled_ignores_gossip() {
        let mut c = client(false);
        let now = SimTime::ZERO;
        establish(&mut c, now);
        c.on_message(
            1,
            Message::Pex {
                peers: vec![(SimAddr(10), 0)],
            },
            now,
        );
        let actions = drain(&mut c);
        assert!(actions.iter().all(|a| !matches!(a, Action::Connect { .. })));
        assert!(c.pex_book().is_empty());
        assert_eq!(c.stats().pex_received, 0);
        // And a disabled client never gossips.
        c.on_tick(SimTime::from_secs(3600));
        assert!(pex_sends(&drain(&mut c)).is_empty());
    }

    #[test]
    fn stale_pex_entries_are_dropped_and_dead_addrs_need_newer_evidence() {
        let mut res = ResilienceConfig::armed();
        res.max_dial_attempts = 2;
        let mut c = Client::with_progress(
            ClientConfig {
                resilience: res,
                pex: PexConfig {
                    enabled: true,
                    ..PexConfig::default()
                },
                ..ClientConfig::default()
            },
            InfoHash([1; 20]),
            PeerId([7; 20]),
            TorrentProgress::new(PIECE, LEN),
            SimAddr(1),
            SimRng::new(9),
        );
        let now = SimTime::from_secs(1000);
        establish(&mut c, now);
        // Past the staleness horizon: never enters the book.
        c.on_message(
            1,
            Message::Pex {
                peers: vec![(SimAddr(20), 700)],
            },
            now,
        );
        drain(&mut c);
        assert_eq!(c.pex_book(), vec![(SimAddr(5), now)]);
        // Learn and kill an address: two failed dials exhaust the budget.
        c.on_message(
            1,
            Message::Pex {
                peers: vec![(SimAddr(30), 10)],
            },
            now,
        );
        drain(&mut c);
        c.on_conn_failed(SimAddr(30), now);
        c.on_conn_failed(SimAddr(30), now);
        assert_eq!(c.lifecycle_of(SimAddr(30), now), Some(ConnState::Dead));
        // Re-gossip with *older* freshness: stays dead, no dial.
        c.on_message(
            1,
            Message::Pex {
                peers: vec![(SimAddr(30), 20)],
            },
            now,
        );
        drain(&mut c);
        assert_eq!(c.lifecycle_of(SimAddr(30), now), Some(ConnState::Dead));
        // Strictly newer evidence revives it.
        let later = SimTime::from_secs(1060);
        c.on_message(
            1,
            Message::Pex {
                peers: vec![(SimAddr(30), 0)],
            },
            later,
        );
        let actions = drain(&mut c);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Connect { addr, .. } if *addr == SimAddr(30))));
    }

    #[test]
    fn breaker_opens_after_streak_and_closes_on_response() {
        let res = ResilienceConfig {
            breaker_threshold: 2,
            breaker_cooloff: SimDuration::from_secs(300),
            ..ResilienceConfig::default()
        };
        let mut c = armed_client(res);
        c.start(SimTime::ZERO);
        drain(&mut c);
        let now = SimTime::from_secs(10);
        // First failure: the backoff ladder, breaker still closed.
        c.on_announce_failed(now);
        assert!(!c.breaker_is_open());
        assert_eq!(c.announce_fail_streak(), 1);
        // Second failure: the breaker opens and parks the next probe a
        // full cooloff away.
        c.on_announce_failed(now);
        assert!(c.breaker_is_open());
        assert_eq!(c.stats().breaker_trips, 1);
        // While open, the empty-swarm early re-announce is suppressed…
        c.on_tick(SimTime::from_secs(200));
        assert!(drain(&mut c)
            .iter()
            .all(|a| !matches!(a, Action::Announce { .. })));
        // …but the scheduled cooloff probe still goes out.
        c.on_tick(SimTime::from_secs(310));
        assert!(drain(&mut c)
            .iter()
            .any(|a| matches!(a, Action::Announce { .. })));
        // A served announce closes the breaker.
        let resp = AnnounceResponse {
            interval: SimDuration::from_mins(15),
            min_interval: SimDuration::ZERO,
            peers: vec![],
            complete: 0,
            incomplete: 0,
        };
        c.on_tracker_response(&resp, SimTime::from_secs(311));
        assert!(!c.breaker_is_open());
        assert_eq!(c.announce_fail_streak(), 0);
    }

    #[test]
    fn min_reannounce_resets_to_default_on_zero() {
        let mut c = client(false);
        let resp = |min: SimDuration| AnnounceResponse {
            interval: SimDuration::from_mins(15),
            min_interval: min,
            peers: vec![],
            complete: 0,
            incomplete: 0,
        };
        c.on_tracker_response(&resp(SimDuration::from_secs(240)), SimTime::ZERO);
        assert_eq!(c.min_reannounce(), SimDuration::from_secs(240));
        // The tracker relaxing back to "unspecified" must not leave the
        // old stricter floor pinned.
        c.on_tracker_response(&resp(SimDuration::ZERO), SimTime::from_secs(1));
        assert_eq!(c.min_reannounce(), DEFAULT_MIN_REANNOUNCE);
    }
}
