//! The flow-level (fluid) simulation world.
//!
//! Runs any number of BitTorrent client sessions over a max-min fair
//! bandwidth-sharing model instead of packet-level TCP. Used for the
//! swarm-scale experiments (paper Figs. 3, 4, 8(b), 8(c), 9) where the
//! interesting dynamics are incentives, wireless self-contention, and
//! reconnection latency — not per-segment behaviour.
//!
//! ## Model
//!
//! * Each **node** has an access network: wired (independent up/down
//!   pipes) or wireless (one shared channel both directions contend for).
//! * Each node hosts **tasks** (client sessions). Wire messages queue
//!   FIFO per connection direction and drain at the direction's current
//!   max-min fair rate, recomputed every tick.
//! * **Mobility**: a node with a [`MobilityProcess`] periodically loses
//!   connectivity, returns with a fresh address, and has its tasks
//!   re-initiated — with a fresh peer-id (default) or the retained one
//!   (wP2P). Established connections are *not* torn down cleanly: the
//!   remote side sees a silent black hole until a timeout, exactly the
//!   paper's "fixed peers continue to try to reach the mobile peer".
//! * **wP2P components** plug in per task: identity retention, LIHD
//!   (driving the client's upload cap), mobility-aware fetching (a picker
//!   override), and role reversal (re-dialling stored peers immediately
//!   after a hand-off). Age-based Manipulation is packet-level and lives
//!   in the packet world instead.
//!
//! This module is the flow transport: the connection arena, the rate
//! engine, mobility, client (re)initiation and the event loop. The
//! announce and tracker-outage policy, the fault cursor and the
//! invariant checker are the client host both worlds share (the
//! crate-private `host` module); this world only routes announces,
//! adding latency, shards and replica failover.

use crate::host::{Announcer, Oversight};
use crate::rates::{FlowDemand, RateEngine, SolverStats};
use bittorrent::client::{Action, Client, ClientConfig, ClientStats};
use bittorrent::metainfo::{InfoHash, Metainfo};
use bittorrent::peer_id::{PeerId, PeerIdStyle};
use bittorrent::progress::TorrentProgress;
use bittorrent::rate::RateEstimator;
use bittorrent::tracker::{AnnounceEvent, TrackerConfig, TrackerTier};
use bittorrent::wire::Message;
use metrics::handle::MetricsHandle;
use metrics::registry::{Counter, Histogram};
use metrics::stats::TimeSeries;
use metrics::trace::{Trace, TraceKind};
use simnet::addr::{AddressBook, NodeId, SimAddr};
use simnet::event::{EventToken, QueueStats};
use simnet::fault::{FaultHooks, FaultPlan};
use simnet::hash::FastHashMap;
use simnet::mobility::MobilityProcess;
use simnet::rng::SimRng;
use simnet::sim::Simulator;
use simnet::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wp2p::config::WP2pConfig;
use wp2p::ia::Lihd;
use wp2p::ma::{MobilityAwarePicker, RoleReversal};

/// Node index.
pub type NodeKey = usize;
/// Task index.
pub type TaskKey = usize;

/// A node's access network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Access {
    /// Independent uplink/downlink pipes (bytes/second).
    Wired {
        /// Uplink capacity, bytes/second.
        up: f64,
        /// Downlink capacity, bytes/second.
        down: f64,
    },
    /// One shared channel: uploads and downloads contend (bytes/second).
    Wireless {
        /// Channel capacity, bytes/second.
        capacity: f64,
    },
}

impl Access {
    /// The paper's residential reference: 4 Mbit/s down, 384 kbit/s up.
    pub fn residential() -> Self {
        Access::Wired {
            up: 384_000.0 / 8.0,
            down: 4_000_000.0 / 8.0,
        }
    }

    /// A well-connected fixed peer.
    pub fn campus() -> Self {
        Access::Wired {
            up: 1_250_000.0,
            down: 1_250_000.0,
        }
    }
}

/// What the torrent looks like to the flow world.
#[derive(Clone, Copy, Debug)]
pub struct TorrentSpec {
    /// Swarm identifier.
    pub info_hash: InfoHash,
    /// Piece length in bytes.
    pub piece_length: u32,
    /// File length in bytes.
    pub length: u64,
    /// Transfer granularity (block size) in bytes. Swarm-scale runs use
    /// piece-sized blocks to bound event counts.
    pub block_size: u32,
}

impl TorrentSpec {
    /// Derives a spec from metainfo with the given transfer granularity.
    pub fn from_metainfo(meta: &Metainfo, block_size: u32) -> Self {
        TorrentSpec {
            info_hash: meta.info.info_hash(),
            piece_length: meta.info.piece_length,
            length: meta.info.length,
            block_size: block_size.min(meta.info.piece_length),
        }
    }

    fn fresh_progress(&self) -> TorrentProgress {
        TorrentProgress::with_block_size(self.piece_length, self.length, self.block_size)
    }

    fn complete_progress(&self) -> TorrentProgress {
        let mut p = TorrentProgress::complete(self.piece_length, self.length);
        let _ = &mut p;
        p
    }
}

/// Transfer/rate-update granularity.
const TICK: SimDuration = SimDuration::from_millis(250);
/// Client housekeeping cadence.
const CLIENT_TICK: SimDuration = SimDuration::from_secs(1);
/// Metrics sampling cadence.
const METRICS_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// Latency of a successful dial (TCP + BT handshake).
const DIAL_LATENCY: SimDuration = SimDuration::from_millis(300);
/// Timeout of a dial to an unreachable address (SYN retries).
const DIAL_TIMEOUT: SimDuration = SimDuration::from_secs(21);
/// How long a silently dead connection lingers before the surviving
/// side notices (TCP retransmission give-up at the application).
const DEAD_CONN_TIMEOUT: SimDuration = SimDuration::from_secs(90);
/// Tracker request round-trip latency.
const ANNOUNCE_LATENCY: SimDuration = SimDuration::from_secs(1);

/// Global parameters of the flow world.
#[derive(Clone, Copy, Debug)]
pub struct FlowConfig {
    /// Tracker behaviour.
    pub tracker: TrackerConfig,
    /// Number of tracker shards in the tier (each owns a deterministic
    /// slice of the info-hash space; see [`bittorrent::tracker::shard_of`]).
    /// `1` (the default) is the single-tracker world every existing
    /// experiment runs.
    pub tracker_shards: usize,
    /// Replica failover: when a swarm's primary shard is down, announces
    /// are routed to its deterministic secondary
    /// ([`bittorrent::tracker::secondary_shard_of`]) instead of failing.
    /// Off by default — a down primary reads as an outage, the legacy
    /// behaviour.
    pub tracker_replicas: bool,
    /// Record piece bytes per `(receiver, sender)` task pair. Off by
    /// default: the clustering analysis of the service experiment needs
    /// it; the scale hot path doesn't pay for it.
    pub track_peer_bytes: bool,
    /// Per-connection stall watchdog: a connection with queued data that
    /// moves no bytes for this long is aborted (both sides notified), the
    /// flow-level analogue of a BitTorrent request timeout. The timer is
    /// re-armed — cancel plus schedule — every tick a watched connection
    /// makes progress, so it almost always dies unfired: the fire-rarely/
    /// cancel-mostly timer population that dominates real network stacks.
    /// `None` (the default) disables the watchdog entirely.
    pub stall_timeout: Option<SimDuration>,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            tracker: TrackerConfig::default(),
            tracker_shards: 1,
            tracker_replicas: false,
            track_peer_bytes: false,
            stall_timeout: None,
        }
    }
}

struct Node {
    access: Access,
    addr: SimAddr,
    alive: bool,
    mobility: Option<MobilityProcess>,
}

/// Everything needed to (re)build a task's client.
pub struct TaskSpec {
    /// Hosting node.
    pub node: NodeKey,
    /// The torrent.
    pub torrent: TorrentSpec,
    /// Start as a seed (full progress).
    pub start_complete: bool,
    /// Start with this fraction of pieces already present (uniformly
    /// random pieces, seeded deterministically). Models a swarm member
    /// that joined earlier — real swarms are a spectrum of completion
    /// levels, which is what makes mutual interest (and therefore
    /// tit-for-tat) bind. Ignored when `start_complete` is set.
    pub start_fraction: Option<f64>,
    /// Builds the client configuration (re-invoked at each re-initiation).
    pub make_config: Box<dyn Fn() -> ClientConfig>,
    /// wP2P components enabled for this task.
    pub wp2p: WP2pConfig,
    /// When the task first joins its swarm. [`SimTime::ZERO`] (the
    /// default) starts with the world; later instants model flash-crowd
    /// arrivals — the client spawns at that virtual time instead.
    pub start_at: SimTime,
}

impl TaskSpec {
    /// The client configuration of one (re)initiation: `make_config`'s,
    /// with the picker and dialling the task's wP2P components demand.
    fn client_config(&self) -> ClientConfig {
        let mut config = (self.make_config)();
        if let Some(schedule) = self.wp2p.mobility_fetching {
            config.picker = Box::new(MobilityAwarePicker::new(schedule));
        }
        if self.wp2p.role_reversal {
            config.dial_while_seeding = true;
        }
        config
    }

    /// A plain default-client task.
    pub fn default_client(node: NodeKey, torrent: TorrentSpec, start_complete: bool) -> Self {
        TaskSpec {
            node,
            torrent,
            start_complete,
            start_fraction: None,
            make_config: Box::new(ClientConfig::default),
            wp2p: WP2pConfig::default_client(),
            start_at: SimTime::ZERO,
        }
    }
}

struct TaskState {
    spec: TaskSpec,
    client: Option<Client>,
    saved_progress: Option<TorrentProgress>,
    /// Retained identity (when identity retention is on).
    identity: Option<PeerId>,
    rr: RoleReversal,
    lihd: Option<Lihd>,
    dl_meter: RateEstimator,
    last_down_total: u64,
    acc: ClientStats,
    /// Piece payload bytes actually delivered to/from this task by the
    /// transport (world-side truth, survives client re-initiation).
    delivered_down: u64,
    delivered_up: u64,
    series_down: TimeSeries,
    series_up: TimeSeries,
    next_client_tick: SimTime,
    generation: u32,
    started: bool,
    completed_at: Option<SimTime>,
    announcer: Announcer,
    /// Dial address book saved across re-initiation when the client runs
    /// PEX: the paper's knowledge-retention analogue. A moved host
    /// re-dials its old correspondents from its new address — the only
    /// rejoin path while the tracker tier is dark.
    saved_addrs: Vec<SimAddr>,
    /// Client conn key → `(conn id, is_a_side)` for this task's live
    /// connection ends. Per-task (instead of one global map keyed by
    /// `(task, key)`) so per-message lookups hash a single small map and
    /// teardown walks only this task's entries.
    conn_index: FastHashMap<u64, (ConnId, bool)>,
    /// Piece payload bytes received per sending task, across
    /// re-initiations. Populated only under
    /// [`FlowConfig::track_peer_bytes`] (the clustering analysis input).
    peer_bytes: FastHashMap<TaskKey, u64>,
    rng: SimRng,
}

#[derive(Debug)]
struct FlowQ {
    queue: VecDeque<Message>,
    head_remaining: f64,
}

impl FlowQ {
    fn new() -> Self {
        FlowQ {
            queue: VecDeque::new(),
            head_remaining: 0.0,
        }
    }

    fn push(&mut self, msg: Message) {
        if self.queue.is_empty() {
            self.head_remaining = msg.wire_len() as f64;
        }
        self.queue.push_back(msg);
    }

    fn advance(&mut self, mut budget: f64, out: &mut Vec<Message>) {
        while budget > 0.0 {
            let Some(_head) = self.queue.front() else {
                return;
            };
            if self.head_remaining <= budget {
                budget -= self.head_remaining;
                let msg = self.queue.pop_front().expect("front exists");
                out.push(msg);
                if let Some(next) = self.queue.front() {
                    self.head_remaining = next.wire_len() as f64;
                } else {
                    self.head_remaining = 0.0;
                }
            } else {
                self.head_remaining -= budget;
                return;
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ConnEnd {
    task: TaskKey,
    key: u64,
    generation: u32,
}

/// Generation-checked handle into the connection arena (the slab /
/// `EventToken` pattern): `slot` indexes the dense arrays, `gen` must
/// match the slot's current generation or the handle is stale. Slots are
/// recycled; generations only grow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct ConnId {
    slot: u32,
    gen: u32,
}

/// Struct-of-arrays connection storage. Every per-connection attribute
/// lives in its own dense `Vec` indexed by slot, so the per-tick hot
/// loops (transfer advance, rate bookkeeping, feasibility audit) stream
/// through flat arrays instead of chasing `BTreeMap` nodes. Vacated
/// slots go on a free list and are reused with a bumped generation.
///
/// The max-min solver's flow slots are derived as
/// `2 · slot + direction` (0 = a→b, 1 = b→a), giving the engine the same
/// dense u32 keying with zero translation state.
#[derive(Default)]
struct ConnArena {
    gen: Vec<u32>,
    live: Vec<bool>,
    /// Monotone creation id: iteration orders that used to follow the
    /// ever-growing conn-id map key sort by `uid` instead, which slot
    /// reuse cannot perturb.
    uid: Vec<u64>,
    a: Vec<ConnEnd>,
    b: Vec<ConnEnd>,
    ab: Vec<FlowQ>,
    ba: Vec<FlowQ>,
    /// Set when one side silently vanished.
    dead_since: Vec<Option<SimTime>>,
    /// Armed stall-watchdog timer (see [`FlowConfig::stall_timeout`]).
    stall: Vec<Option<EventToken>>,
    /// When the watched connection last moved bytes (or was first
    /// armed). The watchdog is *lazy*: progress only writes this stamp;
    /// the single armed timer checks it on fire and re-arms itself —
    /// O(1) timer traffic per timeout window instead of a cancel +
    /// re-schedule per progressing connection per tick.
    last_progress: Vec<SimTime>,
    free: Vec<u32>,
    next_uid: u64,
}

impl ConnArena {
    fn insert(&mut self, a: ConnEnd, b: ConnEnd) -> ConnId {
        self.next_uid += 1;
        let uid = self.next_uid;
        if let Some(slot) = self.free.pop() {
            let s = slot as usize;
            self.live[s] = true;
            self.uid[s] = uid;
            self.a[s] = a;
            self.b[s] = b;
            // Queues were cleared on free; keep their allocations.
            self.dead_since[s] = None;
            self.stall[s] = None;
            self.last_progress[s] = SimTime::ZERO;
            ConnId {
                slot,
                gen: self.gen[s],
            }
        } else {
            let slot = self.gen.len() as u32;
            self.gen.push(0);
            self.live.push(true);
            self.uid.push(uid);
            self.a.push(a);
            self.b.push(b);
            self.ab.push(FlowQ::new());
            self.ba.push(FlowQ::new());
            self.dead_since.push(None);
            self.stall.push(None);
            self.last_progress.push(SimTime::ZERO);
            ConnId { slot, gen: 0 }
        }
    }

    /// Validates a handle; returns the slot index while it is current.
    fn check(&self, id: ConnId) -> Option<usize> {
        let s = id.slot as usize;
        (s < self.live.len() && self.live[s] && self.gen[s] == id.gen).then_some(s)
    }

    /// Vacates a slot: the generation bumps (outstanding handles and
    /// queued events go stale) and the queues are emptied in place.
    fn free(&mut self, id: ConnId) {
        let s = id.slot as usize;
        debug_assert!(self.live[s] && self.gen[s] == id.gen);
        self.live[s] = false;
        self.gen[s] += 1;
        self.ab[s].queue.clear();
        self.ab[s].head_remaining = 0.0;
        self.ba[s].queue.clear();
        self.ba[s].head_remaining = 0.0;
        self.stall[s] = None;
        self.free.push(id.slot);
    }

    fn slot_count(&self) -> usize {
        self.live.len()
    }
}

/// Events driving the flow world.
enum Ev {
    Tick,
    Dial {
        task: TaskKey,
        generation: u32,
        key: u64,
        addr: SimAddr,
        target: Option<TaskKey>,
    },
    TrackerReply {
        task: TaskKey,
        generation: u32,
        event: AnnounceEvent,
    },
    HandoffStart {
        node: NodeKey,
        ends: SimTime,
    },
    HandoffEnd {
        node: NodeKey,
    },
    /// Stall watchdog timer for connection `cid`. The watchdog is lazy:
    /// progress just stamps `last_progress`, and the one armed timer
    /// decides on fire — abort if a full timeout passed since the stamp,
    /// otherwise re-arm at exactly `last_progress + timeout`. The abort
    /// lands at the same sim time the eager cancel-and-re-schedule
    /// scheme produced, at a tiny fraction of the timer traffic. A stale
    /// generation (slot recycled) makes the event a no-op.
    StallCheck {
        cid: ConnId,
    },
    /// Deferred task start (flash-crowd arrival): spawn the task's
    /// client at its `start_at` instant. If the hosting node is mid
    /// hand-off outage, the start retries a tick later.
    TaskStart {
        task: TaskKey,
    },
}

/// The flow-level world. See the module docs.
///
/// ```
/// use p2p_simulation::flow::{Access, FlowConfig, FlowWorld, TaskSpec, TorrentSpec};
/// use bittorrent::metainfo::Metainfo;
/// use simnet::time::SimTime;
///
/// let meta = Metainfo::synthetic("demo.bin", "tr", 64 * 1024, 1024 * 1024, 1);
/// let torrent = TorrentSpec::from_metainfo(&meta, 64 * 1024);
/// let mut world = FlowWorld::new(FlowConfig::default(), 42);
/// let seed_node = world.add_node(Access::campus());
/// let leech_node = world.add_node(Access::residential());
/// world.add_task(TaskSpec::default_client(seed_node, torrent, true));
/// let leech = world.add_task(TaskSpec::default_client(leech_node, torrent, false));
/// world.start();
/// world.run_until(SimTime::from_secs(120), |_| {});
/// assert_eq!(world.progress_fraction(leech), 1.0);
/// ```
pub struct FlowWorld {
    cfg: FlowConfig,
    sim: Simulator<Ev>,
    tracker: TrackerTier,
    book: AddressBook,
    nodes: Vec<Node>,
    tasks: Vec<TaskState>,
    conns: ConnArena,
    /// Tasks hosted on each node, in task-key order — replaces the
    /// per-dial / per-hand-off linear scans over every task.
    node_tasks: Vec<Vec<TaskKey>>,
    /// Connections with `dead_since` set, in the order they died (their
    /// death times are monotone), so the dead sweep pops expired ones
    /// off the front instead of scanning every connection each tick.
    dead_queue: VecDeque<(SimTime, ConnId)>,
    /// Tasks with a client tick due at each instant. Entries are
    /// validated against the task's `next_client_tick` when popped, so
    /// stale entries from killed/respawned clients are harmless.
    tick_due: BTreeMap<SimTime, Vec<TaskKey>>,
    rng: SimRng,
    started: bool,
    last_advance: SimTime,
    next_metrics: SimTime,
    trace: Trace,
    metrics: MetricsHandle,
    m_handoffs: Counter,
    m_handoff_latency: Histogram,
    m_fault_events: Counter,
    /// When each node's current hand-off outage began, for the latency
    /// histogram.
    handoff_down_since: BTreeMap<NodeKey, SimTime>,
    /// The persistent incremental max-min solver. Demand/capacity
    /// changes are pushed into it at the mutation site (connection
    /// lifecycle, queue transitions, upload-cap moves, faults); a tick's
    /// `recompute_rates` is just `engine.solve()`, which re-fills only
    /// the dirty connected components — or skips outright when nothing
    /// changed.
    engine: RateEngine,
    /// First task-cap pseudo-resource id: task `t`'s upload cap is
    /// resource `cap_base + t`. Frozen at [`FlowWorld::start`].
    cap_base: usize,
    /// Whether each task currently contributes a cap pseudo-resource to
    /// its outgoing flows' demands.
    task_capped: Vec<bool>,
    /// Tasks with possibly-unpolled client actions, with a dedup flag;
    /// `pump_actions` drains exactly these instead of sweeping every
    /// task per round.
    pending_tasks: Vec<TaskKey>,
    pending_flag: Vec<bool>,
    rate_solves: u64,
    rate_skips: u64,
    /// Connections aborted by the stall watchdog (see
    /// [`FlowConfig::stall_timeout`]).
    stall_aborts: u64,
    // --- fault-injection state (see the `FaultHooks` impl) ---
    /// Nodes whose traffic silently vanishes.
    blackholed: BTreeSet<NodeKey>,
    /// Pre-fault access of nodes with an active capacity modifier.
    access_baseline: BTreeMap<NodeKey, Access>,
    /// External upload cap per node, applied on top of the access
    /// uplink — the cross-swarm seed-capacity budget: all of a node's
    /// tasks, whatever swarm they serve, share `min(access_up, cap)`
    /// through the node's up resource (the fluid equivalent of one
    /// upload token bucket spanning the node's swarms).
    node_upload_cap: BTreeMap<NodeKey, f64>,
    /// Active loss-burst capacity factor per node.
    lossy_factor: BTreeMap<NodeKey, f64>,
    /// Active bandwidth-squeeze factor per node.
    squeeze_factor: BTreeMap<NodeKey, f64>,
    /// Fault plan, tracker outage and invariant checker.
    oversight: Oversight,
}

impl FlowWorld {
    /// Creates an empty world.
    pub fn new(cfg: FlowConfig, seed: u64) -> Self {
        let rng = SimRng::new(seed);
        FlowWorld {
            tracker: TrackerTier::new(cfg.tracker, cfg.tracker_shards),
            sim: Simulator::new(),
            engine: RateEngine::new(),
            cfg,
            book: AddressBook::new(),
            nodes: Vec::new(),
            tasks: Vec::new(),
            conns: ConnArena::default(),
            node_tasks: Vec::new(),
            dead_queue: VecDeque::new(),
            tick_due: BTreeMap::new(),
            rng,
            started: false,
            last_advance: SimTime::ZERO,
            next_metrics: SimTime::ZERO,
            trace: Trace::new(4096),
            metrics: MetricsHandle::disabled(),
            m_handoffs: Counter::default(),
            m_handoff_latency: Histogram::default(),
            m_fault_events: Counter::default(),
            handoff_down_since: BTreeMap::new(),
            cap_base: 0,
            task_capped: Vec::new(),
            pending_tasks: Vec::new(),
            pending_flag: Vec::new(),
            rate_solves: 0,
            rate_skips: 0,
            stall_aborts: 0,
            blackholed: BTreeSet::new(),
            access_baseline: BTreeMap::new(),
            node_upload_cap: BTreeMap::new(),
            lossy_factor: BTreeMap::new(),
            squeeze_factor: BTreeMap::new(),
            oversight: Oversight::new(),
        }
    }

    /// Installs `plan` with nothing applied yet, replacing any earlier
    /// plan. Every tick then applies the plan's due actions before the
    /// `run_until` callback runs. A restore overwrites only the cursor,
    /// so a restored world installs the saved world's plan first.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.oversight.set_fault_plan(plan);
    }

    /// Arms the world's own
    /// [`InvariantChecker`](crate::invariants::InvariantChecker): every
    /// later tick ends with a full check pass, and a violation panics.
    /// Worlds start armed in debug builds and unarmed in release. Like
    /// the config, arming is not in the blob: a restore leaves it as set
    /// here.
    pub fn arm_invariants(&mut self) {
        self.oversight.armed = true;
    }

    /// Fault actions (window begins/ends) applied so far.
    pub fn faults_applied(&self) -> usize {
        self.oversight.faults.applied()
    }

    /// Ticks whose rate problem changed and was re-solved.
    pub fn rate_solves(&self) -> u64 {
        self.rate_solves
    }

    /// Ticks that skipped the max-min solve because nothing affecting the
    /// allocation changed since the previous one.
    pub fn rate_skips(&self) -> u64 {
        self.rate_skips
    }

    /// Cumulative solver work counters (full/incremental solves, class
    /// aggregation, component sweep sizes).
    pub fn solver_stats(&self) -> SolverStats {
        self.engine.stats()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Simulator events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.processed()
    }

    /// Event-queue instrumentation counters (depth, cancellations).
    pub fn queue_stats(&self) -> QueueStats {
        self.sim.queue_stats()
    }

    /// Connections aborted by the stall watchdog so far.
    pub fn stall_aborts(&self) -> u64 {
        self.stall_aborts
    }

    /// Turns on event tracing (connection lifecycle, mobility, tracker).
    pub fn enable_trace(&mut self) {
        self.trace.set_enabled(true);
    }

    /// Wires the world's observables into `handle`: `flow.handoffs` /
    /// `flow.fault_events` counters, a `flow.handoff_latency_s`
    /// histogram, `flow.utilization` plus per-task
    /// `flow.task<t>.{down,up}_bytes` series at the metrics interval,
    /// and a copy of every trace event into the handle's structured
    /// sink. Clients and LIHD controllers spawned afterwards attach
    /// their own instruments under the same handle. Call before
    /// [`FlowWorld::start`]; inert when the handle is disabled.
    pub fn set_metrics(&mut self, handle: &MetricsHandle) {
        self.metrics = handle.clone();
        self.m_handoffs = handle.counter("flow.handoffs");
        self.m_handoff_latency = handle.histogram(
            "flow.handoff_latency_s",
            &[0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0],
        );
        self.m_fault_events = handle.counter("flow.fault_events");
    }

    /// Records into both the world's own ring trace and the metrics
    /// handle's structured sink.
    fn note(&mut self, at: SimTime, kind: TraceKind, message: String) {
        if self.metrics.is_enabled() {
            self.metrics.trace_event(at, kind, message.clone());
        }
        self.trace.record(at, kind, message);
    }

    /// A fault-injection hook fired: count it and trace it.
    fn fault_note(&mut self, at: SimTime, message: String) {
        self.m_fault_events.inc();
        self.note(at, TraceKind::Other, message);
    }

    /// The recorded trace (empty unless [`FlowWorld::enable_trace`] ran).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Adds a node with the given access network; returns its key. Call
    /// before [`FlowWorld::start`] — the solver's resource layout is
    /// frozen there.
    pub fn add_node(&mut self, access: Access) -> NodeKey {
        debug_assert!(!self.started, "add_node after start()");
        let key = self.nodes.len();
        let addr = self.book.assign(simnet::addr::NodeId(key as u32));
        self.nodes.push(Node {
            access,
            addr,
            alive: true,
            mobility: None,
        });
        self.node_tasks.push(Vec::new());
        key
    }

    /// Gives a node a mobility schedule (hand-offs with outages).
    pub fn set_mobility(&mut self, node: NodeKey, process: MobilityProcess) {
        self.nodes[node].mobility = Some(process);
    }

    /// Current address of a node.
    pub fn node_addr(&self, node: NodeKey) -> SimAddr {
        self.nodes[node].addr
    }

    /// Adds a task; returns its key. Call before [`FlowWorld::start`].
    pub fn add_task(&mut self, spec: TaskSpec) -> TaskKey {
        debug_assert!(!self.started, "add_task after start()");
        let key = self.tasks.len();
        let rng = self.rng.fork(1000 + key as u64);
        let lihd = spec.wp2p.lihd.map(Lihd::new);
        self.node_tasks[spec.node].push(key);
        self.task_capped.push(false);
        self.pending_flag.push(false);
        self.tasks.push(TaskState {
            spec,
            client: None,
            saved_progress: None,
            identity: None,
            rr: RoleReversal::new(),
            lihd,
            dl_meter: RateEstimator::with_window(SimDuration::from_secs(10)),
            last_down_total: 0,
            acc: ClientStats::default(),
            delivered_down: 0,
            delivered_up: 0,
            series_down: TimeSeries::new(),
            series_up: TimeSeries::new(),
            next_client_tick: SimTime::ZERO,
            generation: 0,
            started: false,
            completed_at: None,
            announcer: Announcer::default(),
            saved_addrs: Vec::new(),
            conn_index: FastHashMap::default(),
            peer_bytes: FastHashMap::default(),
            rng,
        });
        key
    }

    /// Starts every task and schedules the world's clock work.
    pub fn start(&mut self) {
        assert!(!self.started, "start() called twice");
        self.started = true;
        let now = self.sim.now();
        self.last_advance = now;
        self.next_metrics = now;
        // Freeze the solver's resource layout: two access resources per
        // node, then one cap pseudo-resource slot per task.
        self.cap_base = 2 * self.nodes.len();
        self.engine
            .ensure_resources(self.cap_base + self.tasks.len());
        for n in 0..self.nodes.len() {
            self.sync_node_capacity(n);
        }
        for t in 0..self.tasks.len() {
            let at = self.tasks[t].spec.start_at;
            if at > now {
                // Flash-crowd arrival: the client joins later.
                self.sim.schedule_at(at, Ev::TaskStart { task: t });
            } else {
                self.spawn_client(t, now);
            }
        }
        self.pump_actions(now);
        self.sim.schedule_in(TICK, Ev::Tick);
        // Mobility schedules.
        for n in 0..self.nodes.len() {
            self.schedule_next_handoff(n);
        }
    }

    fn schedule_next_handoff(&mut self, node: NodeKey) {
        let mut rng = self
            .rng
            .fork(5000 + node as u64 + self.sim.now().as_micros());
        if let Some(m) = self.nodes[node].mobility.as_mut() {
            if let Some(h) = m.next_handoff(&mut rng) {
                self.sim.schedule_at(
                    h.starts.max(self.sim.now()),
                    Ev::HandoffStart { node, ends: h.ends },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Client lifecycle
    // ------------------------------------------------------------------

    fn spawn_client(&mut self, t: TaskKey, now: SimTime) {
        let node = self.tasks[t].spec.node;
        let addr = self.nodes[node].addr;
        let task = &mut self.tasks[t];
        let mut config = task.spec.client_config();
        // Strategy handoff hooks: the strategy sees every (re)initiation
        // (hybrids draw their per-generation degrade here, from the
        // task's seeded stream), and may then insist on a fresh peer-id
        // even when the world would have retained it — the deliberate
        // address-churn exploit. Honest draws nothing and never churns,
        // so legacy rng streams are untouched.
        config
            .strategy
            .on_reinit(task.generation, &mut task.rng);
        let churn = config.strategy.churn_identity();
        let fresh = PeerId::generate(PeerIdStyle::Random, addr, &mut task.rng);
        let peer_id = if task.spec.wp2p.identity_retention && !churn {
            *task.identity.get_or_insert(fresh)
        } else {
            task.identity = Some(fresh);
            fresh
        };
        let progress = task.saved_progress.take().unwrap_or_else(|| {
            if task.spec.start_complete {
                task.spec.torrent.complete_progress()
            } else {
                let mut p = task.spec.torrent.fresh_progress();
                if let Some(f) = task.spec.start_fraction {
                    let n = p.num_pieces();
                    let want = (f.clamp(0.0, 1.0) * n as f64).round() as u32;
                    let mut pieces: Vec<u32> = (0..n).collect();
                    task.rng.shuffle(&mut pieces);
                    for &piece in pieces.iter().take(want as usize) {
                        p.mark_piece_complete(piece);
                    }
                }
                p
            }
        });
        let mut client = Client::with_progress(
            config,
            task.spec.torrent.info_hash,
            peer_id,
            progress,
            addr,
            task.rng.fork(task.generation as u64),
        );
        client.mark_stable(now);
        if self.metrics.is_enabled() {
            client.attach_metrics(&self.metrics, &format!("task{t}"));
            if let Some(l) = task.lihd.as_mut() {
                l.attach_metrics(&self.metrics, &format!("task{t}"));
            }
        }
        if let Some(l) = &task.lihd {
            client.set_upload_limit(Some(l.upload_limit()));
        }
        client.start(now);
        if task.spec.wp2p.role_reversal {
            let stored: Vec<SimAddr> = task.rr.stored_peers().to_vec();
            client.seed_known_addrs(&stored, now);
        }
        if client.pex_enabled() && !task.saved_addrs.is_empty() {
            // Re-seed the retained dial book (minus whatever address the
            // node now occupies — `seed_known_addrs` filters it). The
            // rebuilt client dials its old correspondents from its new
            // address; their handshakes re-attach standing by peer-id
            // and their gossip spreads the new address.
            let saved = std::mem::take(&mut task.saved_addrs);
            client.seed_known_addrs(&saved, now);
        }
        task.client = Some(client);
        task.started = true;
        task.next_client_tick = now;
        self.tick_due.entry(now).or_default().push(t);
        // A fresh client may carry an upload cap into the rate problem;
        // `start`/`seed_known_addrs` may already have queued actions.
        self.sync_upload_cap(t);
        self.mark_pending(t);
    }

    fn kill_client(&mut self, t: TaskKey, now: SimTime) {
        // Every flow referencing this task's cap pseudo-resource belongs
        // to a connection killed below, so the cap can simply lapse.
        self.task_capped[t] = false;
        if let Some(client) = self.tasks[t].client.take() {
            let stats = client.stats();
            let acc = &mut self.tasks[t].acc;
            acc.downloaded_payload += stats.downloaded_payload;
            acc.uploaded_payload += stats.uploaded_payload;
            acc.connections_opened += stats.connections_opened;
            acc.dial_failures += stats.dial_failures;
            acc.duplicate_blocks += stats.duplicate_blocks;
            acc.pex_sent += stats.pex_sent;
            acc.pex_received += stats.pex_received;
            acc.pex_addrs_learned += stats.pex_addrs_learned;
            acc.breaker_trips += stats.breaker_trips;
            if client.pex_enabled() {
                // Knowledge retention: a PEX client keeps its dial book
                // across re-initiation, the way it keeps its identity —
                // after a hand-off the *addresses* are the only way back
                // into a tracker-dark swarm.
                self.tasks[t].saved_addrs = client.known_addrs();
            }
            let mut progress = client.into_progress();
            progress.clear_in_flight();
            self.tasks[t].saved_progress = Some(progress);
        }
        self.tasks[t].generation += 1;
        self.tasks[t].last_down_total = 0;
        self.tasks[t].dl_meter = RateEstimator::with_window(SimDuration::from_secs(10));
        // This side's index entries vanish; the connection lingers as a
        // black hole for the remote side. Sorted so the dead-queue push
        // order (and with it, arena slot reuse) is hash-order-free.
        let mut keys: Vec<u64> = self.tasks[t].conn_index.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            let (cid, _is_a) = self.tasks[t].conn_index.remove(&k).expect("key listed");
            let remove_now = if let Some(s) = self.conns.check(cid) {
                if self.conns.dead_since[s].is_none() {
                    self.conns.dead_since[s] = Some(now);
                    // Dead flows carry no demand; retire them from the
                    // rate problem eagerly so stale rates never linger.
                    self.engine.remove_flow(2 * s);
                    self.engine.remove_flow(2 * s + 1);
                    if let Some(tok) = self.conns.stall[s].take() {
                        self.sim.cancel(tok);
                    }
                    self.dead_queue.push_back((now, cid));
                }
                // If neither side is indexed anymore, drop entirely.
                let (ea, eb) = (self.conns.a[s], self.conns.b[s]);
                !self.tasks[ea.task].conn_index.contains_key(&ea.key)
                    && !self.tasks[eb.task].conn_index.contains_key(&eb.key)
            } else {
                false
            };
            if remove_now {
                self.conns.free(cid);
            }
        }
    }

    /// Stops a task for good, announcing `Stopped` when asked — routed
    /// like any announce, so a tracker outage or dark shard loses it.
    pub fn stop_task(&mut self, t: TaskKey, announce: bool) {
        let now = self.sim.now();
        if announce {
            self.announce(t, AnnounceEvent::Stopped, now);
        }
        self.kill_client(t, now);
        self.tasks[t].started = false;
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// Piece payload bytes this task has received (across re-initiations),
    /// from the client's progress accounting.
    pub fn downloaded_bytes(&self, t: TaskKey) -> u64 {
        let task = &self.tasks[t];
        let live = task
            .client
            .as_ref()
            .map(|c| c.stats().downloaded_payload)
            .unwrap_or(0);
        task.acc.downloaded_payload + live
    }

    /// Piece payload bytes delivered *to* this task by the transport.
    pub fn delivered_down_bytes(&self, t: TaskKey) -> u64 {
        self.tasks[t].delivered_down
    }

    /// Piece payload bytes delivered *from* this task to its peers.
    pub fn delivered_up_bytes(&self, t: TaskKey) -> u64 {
        self.tasks[t].delivered_up
    }

    /// Downloaded fraction of the torrent.
    pub fn progress_fraction(&self, t: TaskKey) -> f64 {
        self.with_progress(t, |p| p.downloaded_fraction())
    }

    /// Applies a closure to the task's current progress (live or saved).
    pub fn with_progress<R>(&self, t: TaskKey, f: impl FnOnce(&TorrentProgress) -> R) -> R {
        let task = &self.tasks[t];
        if let Some(c) = &task.client {
            f(c.progress())
        } else if let Some(p) = &task.saved_progress {
            f(p)
        } else if task.spec.start_complete {
            f(&task.spec.torrent.complete_progress())
        } else {
            f(&task.spec.torrent.fresh_progress())
        }
    }

    /// The sampled downloaded-bytes time series of a task.
    pub fn download_series(&self, t: TaskKey) -> &TimeSeries {
        &self.tasks[t].series_down
    }

    /// When the task completed its download, if it has.
    pub fn completed_at(&self, t: TaskKey) -> Option<SimTime> {
        self.tasks[t].completed_at
    }

    /// Read-only view of a task's live client.
    pub fn client(&self, t: TaskKey) -> Option<&Client> {
        self.tasks[t].client.as_ref()
    }

    /// Sets (or clears) a task's upload cap from outside — the hook used
    /// by experiment-level controllers such as the seed-mode LIHD of the
    /// paper's §4.2 future work.
    pub fn set_task_upload_limit(&mut self, t: TaskKey, limit: Option<f64>) {
        if let Some(c) = self.tasks[t].client.as_mut() {
            c.set_upload_limit(limit);
            self.sync_upload_cap(t);
        }
    }

    /// Number of live connections of a task.
    pub fn connection_count(&self, t: TaskKey) -> usize {
        self.tasks[t]
            .client
            .as_ref()
            .map_or(0, |c| c.connection_count())
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Runs until `deadline`, invoking `on_tick` after each world tick.
    pub fn run_until(&mut self, deadline: SimTime, mut on_tick: impl FnMut(&mut FlowWorld)) {
        assert!(self.started, "call start() first");
        while let Some(t) = self.sim.peek_time() {
            if t > deadline {
                break;
            }
            let (now, ev) = self.sim.next_event().expect("peeked event");
            match ev {
                Ev::Tick => {
                    self.do_tick(now);
                    self.sim.schedule_in(TICK, Ev::Tick);
                    Oversight::poll(self, now, |w| &mut w.oversight);
                    on_tick(self);
                }
                Ev::Dial {
                    task,
                    generation,
                    key,
                    addr,
                    target,
                } => self.resolve_dial(task, generation, key, addr, target, now),
                Ev::TrackerReply {
                    task,
                    generation,
                    event,
                } => self.tracker_reply(task, generation, event, now),
                Ev::HandoffStart { node, ends } => {
                    self.handoff_start(node, now);
                    self.sim.schedule_at(ends.max(now), Ev::HandoffEnd { node });
                }
                Ev::HandoffEnd { node } => {
                    self.handoff_end(node, now);
                    self.schedule_next_handoff(node);
                }
                Ev::StallCheck { cid } => {
                    if let Some(s) = self.conns.check(cid) {
                        self.conns.stall[s] = None;
                        if self.conns.dead_since[s].is_none()
                            && !(self.conns.ab[s].queue.is_empty()
                                && self.conns.ba[s].queue.is_empty())
                        {
                            let deadline =
                                self.conns.last_progress[s] + self.cfg.stall_timeout.unwrap_or(SimDuration::ZERO);
                            if now >= deadline {
                                // Queued data untouched for a whole
                                // timeout: abort, as a client's request
                                // timer would. Armed clients transition
                                // the address into backing-off instead
                                // of a flat redial.
                                self.stall_aborts += 1;
                                self.remove_conn_stalled(cid, now);
                            } else {
                                // Progress since arming: chase it.
                                self.conns.stall[s] =
                                    Some(self.sim.schedule_at(deadline, Ev::StallCheck { cid }));
                            }
                        }
                    }
                }
                Ev::TaskStart { task } => {
                    if !self.tasks[task].started {
                        let node = self.tasks[task].spec.node;
                        if self.nodes[node].alive {
                            self.spawn_client(task, now);
                            self.pump_actions(now);
                        } else {
                            // Node is mid hand-off outage: retry after
                            // a tick (the outage ends at a known event).
                            self.sim.schedule_in(TICK, Ev::TaskStart { task });
                        }
                    }
                }
            }
        }
    }

    /// Runs for a further `duration`.
    pub fn run_for(&mut self, duration: SimDuration, on_tick: impl FnMut(&mut FlowWorld)) {
        let deadline = self.sim.now() + duration;
        self.run_until(deadline, on_tick);
    }

    /// Runs until `deadline` or until `stop` returns `true` (checked after
    /// every tick). Returns `true` when the condition fired.
    pub fn run_until_condition(
        &mut self,
        deadline: SimTime,
        mut stop: impl FnMut(&FlowWorld) -> bool,
    ) -> bool {
        let mut fired = false;
        // Step tick-by-tick so the condition is evaluated promptly without
        // the callback needing interior mutability.
        while !fired && self.sim.peek_time().is_some_and(|t| t <= deadline) {
            let next = self.now() + TICK;
            self.run_until(next.min(deadline), |_| {});
            fired = stop(self);
        }
        fired
    }

    fn do_tick(&mut self, now: SimTime) {
        // 1. Advance transfers and deliver completed messages.
        let elapsed = now.saturating_since(self.last_advance).as_secs_f64();
        self.last_advance = now;
        if elapsed > 0.0 {
            self.advance_flows(now, elapsed);
        }
        // 2. Dead-connection sweep.
        self.sweep_dead(now);
        // 3. Client housekeeping. Pop the due tick buckets rather than
        // scanning every task; bucket entries are validated against the
        // task's live `next_client_tick`, so stale ones are harmless.
        let mut due: Vec<TaskKey> = Vec::new();
        while self
            .tick_due
            .first_key_value()
            .is_some_and(|(&at, _)| at <= now)
        {
            let (_, mut batch) = self.tick_due.pop_first().expect("checked non-empty");
            due.append(&mut batch);
        }
        due.sort_unstable();
        due.dedup();
        for t in due {
            if self.tasks[t].client.is_some() && now >= self.tasks[t].next_client_tick {
                self.client_tick(t, now);
            }
        }
        // 4. Execute client actions.
        self.pump_actions(now);
        // 5. Recompute fair-share rates for the next interval.
        self.recompute_rates();
        // 6. Metrics.
        if now >= self.next_metrics {
            self.next_metrics = now + METRICS_INTERVAL;
            for t in 0..self.tasks.len() {
                // Useful (non-duplicate) download progress; transport-level
                // bytes served.
                let down = self.downloaded_bytes(t) as f64;
                let up = self.tasks[t].delivered_up as f64;
                self.tasks[t].series_down.push(now, down);
                self.tasks[t].series_up.push(now, up);
                if self.metrics.is_enabled() {
                    self.metrics
                        .series(&format!("flow.task{t}.down_bytes"))
                        .record(now, down);
                    self.metrics
                        .series(&format!("flow.task{t}.up_bytes"))
                        .record(now, up);
                }
            }
            if self.metrics.is_enabled() {
                self.metrics
                    .series("flow.utilization")
                    .record(now, self.utilization());
            }
        }
        // 7. Invariants: an armed world ends every tick in a checked
        // state.
        if self.oversight.armed {
            self.check_invariants();
        }
    }

    /// One armed check pass: the engine-registration invariant, then the
    /// world's [`InvariantChecker`]. Panics on violation.
    fn check_invariants(&mut self) {
        // A dead conn carries no engine demand, and a live direction
        // with an empty queue carries none either (so it flows at rate
        // zero by construction).
        for s in 0..self.conns.slot_count() {
            if !self.conns.live[s] {
                continue;
            }
            if self.conns.dead_since[s].is_some() {
                assert!(
                    !self.engine.has_flow(2 * s) && !self.engine.has_flow(2 * s + 1),
                    "dead conn slot {s} still registered in the solver"
                );
                continue;
            }
            assert!(
                !self.conns.ab[s].queue.is_empty() || !self.engine.has_flow(2 * s),
                "drained conn slot {s} dir ab still registered in the solver"
            );
            assert!(
                !self.conns.ba[s].queue.is_empty() || !self.engine.has_flow(2 * s + 1),
                "drained conn slot {s} dir ba still registered in the solver"
            );
        }
        let mut ck = std::mem::take(&mut self.oversight.checker);
        ck.check_flow(self);
        self.oversight.checker = ck;
    }

    /// Allocated transfer rate as a fraction of the live access
    /// capacity. Each flowing byte transits two access links (sender
    /// uplink, receiver downlink), hence the factor of two.
    fn utilization(&self) -> f64 {
        let mut cap = 0.0;
        for n in &self.nodes {
            if !n.alive {
                continue;
            }
            cap += match n.access {
                Access::Wired { up, down } => up + down,
                Access::Wireless { capacity } => capacity,
            };
        }
        if cap <= 0.0 {
            return 0.0;
        }
        let mut used = 0.0;
        // Dense sweep: drained directions hold no engine flow, so they
        // read rate zero and cannot contribute.
        for s in 0..self.conns.slot_count() {
            if !self.conns.live[s] || self.conns.dead_since[s].is_some() {
                continue;
            }
            if !self.conns.ab[s].queue.is_empty() {
                used += self.engine.rate(2 * s);
            }
            if !self.conns.ba[s].queue.is_empty() {
                used += self.engine.rate(2 * s + 1);
            }
        }
        (2.0 * used / cap).clamp(0.0, 1.0)
    }

    fn advance_flows(&mut self, now: SimTime, elapsed: f64) {
        // Deliveries: (dst task, dst key, dst generation, src task, msg).
        let mut deliveries: Vec<(TaskKey, u64, u32, TaskKey, Message)> = Vec::new();
        let mut scratch: Vec<Message> = Vec::new();
        // Dense arena sweep: the live/dead bitmaps and the engine's rate
        // array are flat, so scanning every slot is cheaper at scale
        // than maintaining an ordered active set — and slots without a
        // positive rate fall through in a couple of loads.
        let stall = self.cfg.stall_timeout;
        for s in 0..self.conns.slot_count() {
            if !self.conns.live[s] || self.conns.dead_since[s].is_some() {
                continue;
            }
            let mut progressed = false;
            for dir in 0..2 {
                let rate = self.engine.rate(2 * s + dir);
                if rate <= 0.0 {
                    continue;
                }
                let q = if dir == 0 {
                    &mut self.conns.ab[s]
                } else {
                    &mut self.conns.ba[s]
                };
                if q.queue.is_empty() {
                    continue;
                }
                progressed = true;
                scratch.clear();
                q.advance(rate * elapsed, &mut scratch);
                if q.queue.is_empty() {
                    // Demand leaves the rate problem.
                    self.engine.remove_flow(2 * s + dir);
                }
                let (dst, src) = if dir == 0 {
                    (self.conns.b[s], self.conns.a[s])
                } else {
                    (self.conns.a[s], self.conns.b[s])
                };
                for msg in scratch.drain(..) {
                    deliveries.push((dst.task, dst.key, dst.generation, src.task, msg));
                }
            }
            if self.conns.ab[s].queue.is_empty() && self.conns.ba[s].queue.is_empty() {
                // Idle is healthy: refreshing the stamp keeps the stall
                // clock from spanning idle gaps. Any armed timer is left
                // to fire and disarm itself (see the `StallCheck`
                // handler) — cancelling here and re-arming on the next
                // queued byte would cost two wheel ops per ping-pong
                // round trip, which at scale dwarfs the transfers.
                self.conns.last_progress[s] = now;
            } else if let Some(timeout) = stall {
                // Lazy watchdog: progress is a timestamp write, nothing
                // more. The timer re-arms itself on fire while progress
                // keeps happening (see the `StallCheck` handler), so the
                // abort still lands exactly at `last_progress + timeout`.
                if progressed {
                    self.conns.last_progress[s] = now;
                }
                if self.conns.stall[s].is_none() {
                    self.conns.last_progress[s] = now;
                    let cid = ConnId {
                        slot: s as u32,
                        gen: self.conns.gen[s],
                    };
                    self.conns.stall[s] =
                        Some(self.sim.schedule_at(now + timeout, Ev::StallCheck { cid }));
                }
            }
        }
        for (dst_task, dst_key, dst_gen, src_task, msg) in deliveries {
            if self.tasks[dst_task].generation != dst_gen {
                continue; // stale: the client was re-initiated
            }
            if let Message::Piece(b) = &msg {
                self.tasks[dst_task].delivered_down += b.len as u64;
                self.tasks[src_task].delivered_up += b.len as u64;
                if self.cfg.track_peer_bytes {
                    *self.tasks[dst_task].peer_bytes.entry(src_task).or_insert(0) +=
                        b.len as u64;
                }
            }
            if let Some(client) = self.tasks[dst_task].client.as_mut() {
                client.on_message(dst_key, msg, now);
                self.mark_pending(dst_task);
            }
        }
    }

    fn sweep_dead(&mut self, now: SimTime) {
        // `dead_since` is always assigned the current time, so the queue
        // is time-ordered and only a front prefix can have expired. An
        // entry whose conn is already gone (both sides died before the
        // timeout) is dropped on validation.
        // `(uid, id)` so removal notifications run in creation order, as
        // the old ascending conn-id sort produced.
        let mut expired: Vec<(u64, ConnId)> = Vec::new();
        while let Some(&(t0, cid)) = self.dead_queue.front() {
            if now.saturating_since(t0) <= DEAD_CONN_TIMEOUT {
                break;
            }
            self.dead_queue.pop_front();
            if let Some(s) = self.conns.check(cid) {
                if self.conns.dead_since[s] == Some(t0) {
                    expired.push((self.conns.uid[s], cid));
                }
            }
        }
        expired.sort_unstable();
        for (_, cid) in expired {
            self.remove_conn(cid, now, true);
        }
    }

    /// Removes a connection; optionally notifies surviving sides.
    fn remove_conn(&mut self, cid: ConnId, now: SimTime, notify: bool) {
        self.remove_conn_inner(cid, now, notify, false);
    }

    /// [`Self::remove_conn`] for a stall abort: clients are notified via
    /// [`Client::on_conn_stalled`], so an armed lifecycle escalates the
    /// address into backing-off instead of the legacy flat redial.
    fn remove_conn_stalled(&mut self, cid: ConnId, now: SimTime) {
        self.remove_conn_inner(cid, now, true, true);
    }

    fn remove_conn_inner(&mut self, cid: ConnId, now: SimTime, notify: bool, stalled: bool) {
        let Some(s) = self.conns.check(cid) else {
            return;
        };
        if let Some(tok) = self.conns.stall[s].take() {
            self.sim.cancel(tok);
        }
        self.engine.remove_flow(2 * s);
        self.engine.remove_flow(2 * s + 1);
        let ends = [self.conns.a[s], self.conns.b[s]];
        self.conns.free(cid);
        for end in ends {
            // Client connection keys restart at 1 after task re-initiation,
            // so `(task, key)` may have been re-bound to a *newer*
            // connection: only unindex when the entry still points at us.
            let still_ours = self.tasks[end.task]
                .conn_index
                .get(&end.key)
                .is_some_and(|&(indexed_cid, _)| indexed_cid == cid);
            if !still_ours {
                continue;
            }
            self.tasks[end.task].conn_index.remove(&end.key);
            if notify && self.tasks[end.task].generation == end.generation {
                if let Some(client) = self.tasks[end.task].client.as_mut() {
                    if stalled {
                        client.on_conn_stalled(end.key, now);
                    } else {
                        client.on_conn_closed(end.key, now);
                    }
                    self.mark_pending(end.task);
                }
            }
        }
    }

    fn client_tick(&mut self, t: TaskKey, now: SimTime) {
        // Feed the LIHD download meter from transport-delivered bytes.
        let delivered = self.tasks[t].delivered_down;
        let task = &mut self.tasks[t];
        let delta = delivered.saturating_sub(task.last_down_total);
        task.last_down_total = delivered;
        task.dl_meter.record(now, delta);
        let d_cur = task.dl_meter.rate(now);

        let Some(client) = task.client.as_mut() else {
            return;
        };
        client.on_tick(now);
        // Role reversal: keep the stored peer list fresh.
        if task.spec.wp2p.role_reversal {
            let addrs = client.connected_addrs();
            task.rr.note_peers(&addrs);
        }
        // LIHD control step.
        let mut cap_moved = false;
        if let Some(l) = task.lihd.as_mut() {
            if l.due(now) {
                let u = l.update(now, d_cur);
                cap_moved = client.upload_limit() != Some(u);
                client.set_upload_limit(Some(u));
            }
        }
        let due = now + CLIENT_TICK;
        task.next_client_tick = due;
        self.tick_due.entry(due).or_default().push(t);
        if cap_moved {
            self.sync_upload_cap(t);
        }
        self.mark_pending(t);
    }

    /// Flags a task whose client may have enqueued actions. Every call
    /// into a client (tick, message, connection callback, tracker
    /// response) marks its task, so `pump_actions` drains exactly the
    /// tasks that can have work instead of sweeping the whole population
    /// per round — the sweep was O(tasks) per delivered message at 65k
    /// peers.
    fn mark_pending(&mut self, t: TaskKey) {
        if !self.pending_flag[t] {
            self.pending_flag[t] = true;
            self.pending_tasks.push(t);
        }
    }

    fn pump_actions(&mut self, now: SimTime) {
        while !self.pending_tasks.is_empty() {
            let mut batch = std::mem::take(&mut self.pending_tasks);
            // Deterministic drain order regardless of marking order.
            batch.sort_unstable();
            batch.dedup();
            for &t in &batch {
                self.pending_flag[t] = false;
            }
            for t in batch {
                while let Some(action) = self.tasks[t].client.as_mut().and_then(|c| c.poll_action())
                {
                    self.handle_action(t, action, now);
                }
            }
        }
        // Armed: nothing a handled action touched may be left with
        // queued actions, so every client call site must mark its task.
        if self.oversight.armed {
            for (t, task) in self.tasks.iter_mut().enumerate() {
                if let Some(c) = task.client.as_mut() {
                    assert!(
                        c.poll_action().is_none(),
                        "task {t} held unpumped actions: a call site forgot mark_pending"
                    );
                }
            }
        }
    }

    fn handle_action(&mut self, t: TaskKey, action: Action, now: SimTime) {
        match action {
            Action::Connect { conn, addr } => {
                let generation = self.tasks[t].generation;
                let info_hash = self.tasks[t].spec.torrent.info_hash;
                // Resolve the target now; reachability is re-checked when
                // the dial lands.
                let target = self.book.node_at(addr).and_then(|nid| {
                    let node = nid.0 as usize;
                    if !self.nodes.get(node).is_some_and(|n| n.alive) {
                        return None;
                    }
                    // `node_tasks` lists a node's tasks in creation order,
                    // so the first hit matches the old full-scan result.
                    self.node_tasks[node].iter().copied().find(|&tt| {
                        self.tasks[tt].client.is_some()
                            && self.tasks[tt].spec.torrent.info_hash == info_hash
                    })
                });
                let delay = if target.is_some() {
                    DIAL_LATENCY
                } else {
                    DIAL_TIMEOUT
                };
                self.sim.schedule_in(
                    delay,
                    Ev::Dial {
                        task: t,
                        generation,
                        key: conn,
                        addr,
                        target,
                    },
                );
            }
            Action::Send { conn, msg } => {
                if let Some(&(cid, is_a)) = self.tasks[t].conn_index.get(&conn) {
                    if let Some(s) = self.conns.check(cid) {
                        let dir = if is_a { 0 } else { 1 };
                        let q = if is_a {
                            &mut self.conns.ab[s]
                        } else {
                            &mut self.conns.ba[s]
                        };
                        let was_empty = q.queue.is_empty();
                        q.push(msg);
                        if was_empty && self.conns.dead_since[s].is_none() {
                            // Demand appears. Black-holed endpoints
                            // keep the flow out of the solver: the
                            // queue sits at rate zero, exactly the
                            // silent-stall pathology.
                            let (src, dst) = if is_a {
                                (self.conns.a[s].task, self.conns.b[s].task)
                            } else {
                                (self.conns.b[s].task, self.conns.a[s].task)
                            };
                            if self.flow_eligible(src, dst) {
                                let d = self.build_demand(src, dst);
                                self.engine.upsert_flow(2 * s + dir, d);
                            }
                        }
                    }
                }
            }
            Action::Close { conn } => {
                if let Some(&(cid, _)) = self.tasks[t].conn_index.get(&conn) {
                    self.remove_conn(cid, now, true);
                }
            }
            Action::Announce { event } => {
                let generation = self.tasks[t].generation;
                self.sim.schedule_in(
                    ANNOUNCE_LATENCY,
                    Ev::TrackerReply {
                        task: t,
                        generation,
                        event,
                    },
                );
            }
            Action::PieceCompleted { .. } => {}
            Action::Completed => {
                if self.tasks[t].completed_at.is_none() {
                    self.tasks[t].completed_at = Some(now);
                }
            }
        }
    }

    fn resolve_dial(
        &mut self,
        t: TaskKey,
        generation: u32,
        key: u64,
        addr: SimAddr,
        target: Option<TaskKey>,
        now: SimTime,
    ) {
        if self.tasks[t].generation != generation || self.tasks[t].client.is_none() {
            return; // caller re-initiated meanwhile
        }
        // Re-check the target's liveness and address at landing time.
        let live_target = target.filter(|&tt| {
            let node = self.tasks[tt].spec.node;
            self.nodes[node].alive
                && self.nodes[node].addr == addr
                && self.tasks[tt].client.is_some()
        });
        let Some(tt) = live_target else {
            if let Some(client) = self.tasks[t].client.as_mut() {
                client.on_conn_failed(addr, now);
                // Drained at the next pump, as the full-sweep pump did.
                self.mark_pending(t);
            }
            return;
        };
        let caller_node = self.tasks[t].spec.node;
        let caller_addr = self.nodes[caller_node].addr;
        // Register both ends.
        let a_gen = self.tasks[t].generation;
        self.tasks[t]
            .client
            .as_mut()
            .expect("caller live")
            .on_connected(key, addr, now);
        let b_key = self.tasks[tt]
            .client
            .as_mut()
            .expect("target live")
            .on_incoming(caller_addr, now);
        let b_gen = self.tasks[tt].generation;
        let cid = self.conns.insert(
            ConnEnd {
                task: t,
                key,
                generation: a_gen,
            },
            ConnEnd {
                task: tt,
                key: b_key,
                generation: b_gen,
            },
        );
        let uid = self.conns.uid[cid.slot as usize];
        self.tasks[t].conn_index.insert(key, (cid, true));
        self.tasks[tt].conn_index.insert(b_key, (cid, false));
        self.mark_pending(t);
        self.mark_pending(tt);
        self.note(
            now,
            TraceKind::Connection,
            format!("task {t} connected to task {tt} (conn {uid})"),
        );
        self.pump_actions(now);
    }

    fn tracker_reply(&mut self, t: TaskKey, generation: u32, event: AnnounceEvent, now: SimTime) {
        let node = self.tasks[t].spec.node;
        if self.tasks[t].generation != generation || !self.nodes[node].alive {
            return;
        }
        let Some(served) = self.announce(t, event, now) else {
            return;
        };
        if event != AnnounceEvent::Stopped {
            // Whatever the client queued is drained now after a served
            // announce, at the next pump after a failed one.
            self.mark_pending(t);
            if served {
                self.pump_actions(now);
            }
        }
    }

    /// Routes one announce of task `t`'s live client and traces it.
    /// Degradation ladder rung 1: the swarm's primary shard, or — with
    /// replicas enabled — its deterministic secondary while the primary
    /// is down. While neither can answer, the announce times out:
    /// nothing is registered, no peers are learned, and the client's
    /// outage policy takes over; the rest of the tier keeps serving.
    /// Returns whether a shard served it, or `None` without a client.
    fn announce(&mut self, t: TaskKey, event: AnnounceEvent, now: SimTime) -> Option<bool> {
        let addr = self.nodes[self.tasks[t].spec.node].addr;
        let task = &mut self.tasks[t];
        let client = task.client.as_mut()?;
        let replicas = self.cfg.tracker_replicas;
        let routed = if self.oversight.tracker_down {
            None
        } else {
            self.tracker.route_for(client.info_hash(), replicas)
        };
        let tracker = &mut self.tracker;
        let served = task.announcer.announce(
            client,
            addr,
            event,
            now,
            &self.rng,
            (9000 + t as u64, 9100 + t as u64),
            |req, rng| routed.map(|shard| tracker.announce_on(shard, req, now, rng)),
        );
        let message = match &served {
            Some(resp) => format!(
                "task {t} announce {event:?}: {} peers, {} seeds",
                resp.peers.len(),
                resp.complete
            ),
            None if self.oversight.tracker_down => {
                format!("task {t} announce {event:?} failed: tracker outage")
            }
            None => format!("task {t} announce {event:?} failed: tracker shard down"),
        };
        self.note(now, TraceKind::Tracker, message);
        Some(served.is_some())
    }

    fn handoff_start(&mut self, node: NodeKey, now: SimTime) {
        if !self.nodes[node].alive {
            return;
        }
        self.note(
            now,
            TraceKind::Mobility,
            format!("node {node} hand-off: down"),
        );
        self.m_handoffs.inc();
        self.handoff_down_since.insert(node, now);
        self.node_down(node, now);
    }

    fn handoff_end(&mut self, node: NodeKey, now: SimTime) {
        let addr = self.book.reassign(simnet::addr::NodeId(node as u32));
        self.note(
            now,
            TraceKind::Mobility,
            format!("node {node} back at {addr}"),
        );
        if let Some(down_at) = self.handoff_down_since.remove(&node) {
            self.m_handoff_latency
                .record(now.saturating_since(down_at).as_secs_f64());
        }
        self.nodes[node].addr = addr;
        self.node_up(node, now);
    }

    /// Takes `node` off the network: every started task's client dies.
    /// Every engine flow touching the node belongs to a connection of
    /// one of its tasks, and `kill_client` removes them all.
    fn node_down(&mut self, node: NodeKey, now: SimTime) {
        self.nodes[node].alive = false;
        for t in self.started_tasks(node) {
            self.kill_client(t, now);
        }
    }

    /// Brings `node` back and re-initiates every started task. A client
    /// revived meanwhile (a fault restart before a scheduled hand-off
    /// end) is killed first rather than leak its connection index.
    fn node_up(&mut self, node: NodeKey, now: SimTime) {
        self.nodes[node].alive = true;
        for t in self.started_tasks(node) {
            if self.tasks[t].client.is_some() {
                self.kill_client(t, now);
            }
            self.spawn_client(t, now);
        }
        self.pump_actions(now);
    }

    fn started_tasks(&self, node: NodeKey) -> Vec<TaskKey> {
        let tasks = self.node_tasks[node].iter().copied();
        tasks.filter(|&t| self.tasks[t].started).collect()
    }

    fn node_resources(&self, node: NodeKey) -> (usize, usize) {
        match self.nodes[node].access {
            Access::Wired { .. } => (2 * node, 2 * node + 1),
            Access::Wireless { .. } => (2 * node, 2 * node),
        }
    }

    fn recompute_rates(&mut self) {
        // The allocation is a pure function of (topology, queue
        // emptiness, liveness, caps). All of those are pushed into the
        // engine at their mutation sites, so a tick either skips (clean)
        // or re-fills only the components the changes can reach.
        if self.engine.solve() {
            self.rate_solves += 1;
        } else {
            self.rate_skips += 1;
        }
    }

    /// Pushes a node's current access capacities into the solver. An
    /// external per-node upload cap (the cross-swarm seed budget)
    /// tightens the up/channel resource: every task the node hosts —
    /// in whatever swarm — shares the tightened pipe.
    fn sync_node_capacity(&mut self, node: NodeKey) {
        let up_cap = |up: f64| match self.node_upload_cap.get(&node) {
            Some(&cap) => up.min(cap.max(1.0)),
            None => up,
        };
        match self.nodes[node].access {
            Access::Wired { up, down } => {
                self.engine.set_capacity(2 * node, up_cap(up));
                self.engine.set_capacity(2 * node + 1, down);
            }
            Access::Wireless { capacity } => {
                self.engine.set_capacity(2 * node, up_cap(capacity));
                self.engine.set_capacity(2 * node + 1, 0.0);
            }
        }
    }

    /// Sets (or clears) a node's upload cap: one budget shared by every
    /// task the node hosts across all its swarms, enforced through the
    /// node's uplink resource in the max-min problem — the fluid
    /// equivalent of a single upload token bucket spanning the node's
    /// swarm memberships. Callable before or during a run.
    pub fn set_node_upload_cap(&mut self, node: NodeKey, cap: Option<f64>) {
        match cap {
            Some(c) => {
                self.node_upload_cap.insert(node, c);
            }
            None => {
                self.node_upload_cap.remove(&node);
            }
        }
        if self.started {
            self.sync_node_capacity(node);
        }
    }

    /// Reconciles a task's upload cap with the solver. A task with an
    /// application-level upload cap gets a pseudo-resource of that
    /// capacity: all its outgoing flows share it, so capping uploads
    /// genuinely releases channel capacity to other flows (how LIHD buys
    /// downloads back on a shared channel). Cap *value* moves are a
    /// capacity write; capped-ness flips re-register the task's present
    /// outgoing flows with the new resource set.
    fn sync_upload_cap(&mut self, t: TaskKey) {
        let limit = self.tasks[t].client.as_ref().and_then(|c| c.upload_limit());
        match limit {
            Some(l) => {
                self.engine.set_capacity(self.cap_base + t, l.max(1.0));
                if !self.task_capped[t] {
                    self.task_capped[t] = true;
                    self.reupsert_outgoing_flows(t);
                }
            }
            None => {
                if self.task_capped[t] {
                    self.task_capped[t] = false;
                    self.reupsert_outgoing_flows(t);
                }
            }
        }
    }

    /// Re-registers every present outgoing flow of a task after its
    /// demand shape changed (cap resource appeared or lapsed).
    fn reupsert_outgoing_flows(&mut self, t: TaskKey) {
        let mut conns: Vec<(ConnId, bool)> = self.tasks[t].conn_index.values().copied().collect();
        conns.sort_unstable();
        for (cid, is_a) in conns {
            let Some(s) = self.conns.check(cid) else {
                continue;
            };
            let fslot = 2 * s + usize::from(!is_a);
            if !self.engine.has_flow(fslot) {
                continue;
            }
            let (src, dst) = if is_a {
                (self.conns.a[s].task, self.conns.b[s].task)
            } else {
                (self.conns.b[s].task, self.conns.a[s].task)
            };
            let d = self.build_demand(src, dst);
            self.engine.upsert_flow(fslot, d);
        }
    }

    /// The resource set a `src → dst` flow consumes right now.
    fn build_demand(&self, src_task: TaskKey, dst_task: TaskKey) -> FlowDemand {
        let na = self.tasks[src_task].spec.node;
        let nb = self.tasks[dst_task].spec.node;
        let mut d = FlowDemand::new(self.node_resources(na).0, self.node_resources(nb).1);
        if self.task_capped[src_task] {
            d = d.with_cap(self.cap_base + src_task);
        }
        d
    }

    /// Whether a flow between these tasks belongs in the rate problem
    /// (both nodes up, neither black-holed). Dead connections and empty
    /// queues are checked at the call sites.
    fn flow_eligible(&self, src_task: TaskKey, dst_task: TaskKey) -> bool {
        let na = self.tasks[src_task].spec.node;
        let nb = self.tasks[dst_task].spec.node;
        self.nodes[na].alive
            && self.nodes[nb].alive
            && !self.blackholed.contains(&na)
            && !self.blackholed.contains(&nb)
    }

    /// Every connection with an endpoint task on `node`, deduplicated
    /// (sorted by id). Dead connections are included; their engine flows
    /// are already gone, so fault hooks can treat them uniformly.
    fn conns_touching(&self, node: NodeKey) -> Vec<ConnId> {
        let mut out = Vec::new();
        for &t in &self.node_tasks[node] {
            for &(cid, _) in self.tasks[t].conn_index.values() {
                out.push(cid);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    // ------------------------------------------------------------------
    // Introspection (invariant checking, fault harnesses)
    // ------------------------------------------------------------------

    /// Number of tasks in the world.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of nodes in the world.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node hosting a task.
    pub fn task_node(&self, t: TaskKey) -> NodeKey {
        self.tasks[t].spec.node
    }

    /// A task's re-initiation generation (bumps on every hand-off,
    /// crash, or churn).
    pub fn task_generation(&self, t: TaskKey) -> u32 {
        self.tasks[t].generation
    }

    /// The task's current peer identity, once spawned.
    pub fn task_identity(&self, t: TaskKey) -> Option<PeerId> {
        self.tasks[t].identity
    }

    /// True when the task runs wP2P identity retention.
    pub fn task_retains_identity(&self, t: TaskKey) -> bool {
        // Effective retention: a strategy that churns its identity on
        // purpose (the exploit probe's BitTyrant::churning) opts out of
        // the retained-peer-id contract even when the wP2P knob is on,
        // so the identity-stability invariant must not bind it. Between
        // teardown and re-initiation there is no live client; a freshly
        // built config answers for it (churn intent is set at strategy
        // construction).
        let task = &self.tasks[t];
        task.spec.wp2p.identity_retention
            && match &task.client {
                Some(c) => !c.churns_identity(),
                None => !(task.spec.make_config)().strategy.churn_identity(),
            }
    }

    /// Whether a node currently has connectivity.
    pub fn node_alive(&self, node: NodeKey) -> bool {
        self.nodes[node].alive
    }

    /// True while a fault-injected tracker outage is active.
    pub fn tracker_is_down(&self) -> bool {
        self.oversight.tracker_down
    }

    /// Number of tracker shards in the world's tier.
    pub fn tracker_shard_count(&self) -> usize {
        self.tracker.shard_count()
    }

    /// Announces served by one tracker shard so far (the per-shard load
    /// series sample).
    pub fn tracker_shard_announces(&self, shard: usize) -> u64 {
        self.tracker.shard_announces(shard)
    }

    /// Marks one tracker shard up or down (a partial-service fault:
    /// announces for the swarms it owns are dropped; other shards keep
    /// serving).
    pub fn set_tracker_shard_down(&mut self, shard: usize, down: bool) {
        self.tracker.set_shard_down(shard, down);
        let what = if down { "down" } else { "back" };
        self.fault_note(self.sim.now(), format!("fault: tracker shard {shard} {what}"));
    }

    /// Shed (scaled-pacing) responses served by one tracker shard — the
    /// overload-shedding telemetry.
    pub fn tracker_shard_sheds(&self, shard: usize) -> u64 {
        self.tracker.shard_sheds(shard)
    }

    /// Cumulative PEX/breaker counters for a task, across every
    /// re-initiation: `(pex_sent, pex_received, pex_addrs_learned,
    /// breaker_trips)`.
    pub fn task_pex_stats(&self, t: TaskKey) -> (u64, u64, u64, u64) {
        let acc = &self.tasks[t].acc;
        let mut out = (
            acc.pex_sent,
            acc.pex_received,
            acc.pex_addrs_learned,
            acc.breaker_trips,
        );
        if let Some(c) = &self.tasks[t].client {
            let st = c.stats();
            out.0 += st.pex_sent;
            out.1 += st.pex_received;
            out.2 += st.pex_addrs_learned;
            out.3 += st.breaker_trips;
        }
        out
    }

    /// Piece payload bytes this task received from each sending task,
    /// sorted by sender. Empty unless [`FlowConfig::track_peer_bytes`]
    /// was set — the input of the clustering analysis.
    pub fn peer_download_bytes(&self, t: TaskKey) -> Vec<(TaskKey, u64)> {
        let mut v: Vec<(TaskKey, u64)> =
            self.tasks[t].peer_bytes.iter().map(|(&k, &b)| (k, b)).collect();
        v.sort_unstable();
        v
    }

    /// Check passes the world's own checker has run: one per tick while
    /// armed (see [`FlowWorld::arm_invariants`]), carried across
    /// save/restore.
    pub fn invariant_checks(&self) -> u64 {
        self.oversight.checker.checks()
    }

    /// Verifies the current rate allocation against every capacity it
    /// crosses: node access pipes (shared for wireless), and
    /// application-level upload caps. Returns the first violation.
    ///
    /// While the rate problem is dirty (inputs changed since the last
    /// solve), the stale allocation is not required to fit the new caps
    /// and the check passes vacuously; it re-arms at the next tick.
    pub fn rates_feasible(&self) -> Result<(), String> {
        if self.engine.is_dirty() {
            return Ok(());
        }
        let mut usage = vec![0.0f64; self.nodes.len() * 2];
        let mut task_up = vec![0.0f64; self.tasks.len()];
        for s in 0..self.conns.slot_count() {
            if !self.conns.live[s] || self.conns.dead_since[s].is_some() {
                continue;
            }
            let (a, b) = (self.conns.a[s], self.conns.b[s]);
            for (dir, src, dst) in [(0usize, a, b), (1, b, a)] {
                let rate = self.engine.rate(2 * s + dir);
                if !(rate.is_finite() && rate >= 0.0) {
                    return Err(format!("conn slot {s} dir {dir}: invalid rate {rate}"));
                }
                if rate <= 0.0 {
                    continue;
                }
                let up_res = self.node_resources(self.tasks[src.task].spec.node).0;
                let down_res = self.node_resources(self.tasks[dst.task].spec.node).1;
                usage[up_res] += rate;
                usage[down_res] += rate;
                task_up[src.task] += rate;
            }
        }
        let fits = |used: f64, cap: f64| used <= cap * (1.0 + 1e-6) + 1e-6;
        for (i, n) in self.nodes.iter().enumerate() {
            let (mut up_cap, down_cap) = match n.access {
                Access::Wired { up, down } => (up, down),
                // Shared channel: both directions land on resource 2i.
                Access::Wireless { capacity } => (capacity, f64::INFINITY),
            };
            // An external node upload cap tightens the uplink/channel.
            if let Some(&cap) = self.node_upload_cap.get(&i) {
                up_cap = up_cap.min(cap.max(1.0));
            }
            if !fits(usage[2 * i], up_cap) {
                return Err(format!(
                    "node {i}: uplink/channel used {:.1} of {:.1} B/s",
                    usage[2 * i],
                    up_cap
                ));
            }
            if !fits(usage[2 * i + 1], down_cap) {
                return Err(format!(
                    "node {i}: downlink used {:.1} of {:.1} B/s",
                    usage[2 * i + 1],
                    down_cap
                ));
            }
        }
        for (t, task) in self.tasks.iter().enumerate() {
            if let Some(limit) = task.client.as_ref().and_then(|c| c.upload_limit()) {
                if !fits(task_up[t], limit.max(1.0)) {
                    return Err(format!(
                        "task {t}: uploads {:.1} exceed cap {:.1} B/s",
                        task_up[t], limit
                    ));
                }
            }
        }
        Ok(())
    }

    /// Recomputes a node's effective access from its pre-fault baseline
    /// and the active loss/squeeze factors.
    fn apply_access_faults(&mut self, node: NodeKey) {
        let base = *self
            .access_baseline
            .entry(node)
            .or_insert(self.nodes[node].access);
        let f = self.lossy_factor.get(&node).copied().unwrap_or(1.0)
            * self.squeeze_factor.get(&node).copied().unwrap_or(1.0);
        self.nodes[node].access = match base {
            Access::Wired { up, down } => Access::Wired {
                up: (up * f).max(1.0),
                down: (down * f).max(1.0),
            },
            Access::Wireless { capacity } => Access::Wireless {
                capacity: (capacity * f).max(1.0),
            },
        };
        if self.started {
            self.sync_node_capacity(node);
        }
    }

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Serializes the complete world state to a versioned blob.
    ///
    /// The blob captures the simulator (clock, event queue, scheduler
    /// tokens), tracker, address book, nodes, every task (including the
    /// live client session), the connection arena, the rate engine's
    /// allocation state, all RNG streams, fault state, the invariant
    /// checker's observation history (empty unless the world was ever
    /// armed), and — when metrics are enabled — every registry
    /// instrument by name.
    ///
    /// Deliberately excluded: `FlowConfig` and the task specs (the
    /// `make_config` closures and picker choices are code, not state) —
    /// [`FlowWorld::restore`] therefore requires a world rebuilt by the
    /// *same* builder calls (`new` → `set_metrics` → `add_node` /
    /// `add_task` / `set_mobility` → `start`) as the saved one.
    ///
    /// Guarantee: restoring this blob into such a world and running to
    /// any later time T produces byte-identical state (a later `save`)
    /// to running the original world straight through to T.
    pub fn save(&self) -> Vec<u8> {
        assert!(self.started, "save() requires a started world");
        let mut w = SnapWriter::new(FLOW_WORLD_TAG);
        w.section("flow_world");
        self.save_head(&mut w);
        w.section("tasks");
        w.put_usize(self.tasks.len());
        for task in &self.tasks {
            task.save(&mut w);
        }
        w.section("conns");
        self.save_conns(&mut w);
        self.engine.save_state(&mut w);
        self.save_tail(&mut w);
        self.oversight.save_tail(w, &self.metrics)
    }

    /// Restores state captured by [`FlowWorld::save`] into this world.
    ///
    /// `self` must be a started world built by the same builder calls as
    /// the saved one (same nodes, tasks, config, and metrics
    /// enablement); everything mutable is replaced wholesale. Clients
    /// are rebuilt from their task's `make_config` and then overlaid
    /// with their serialized session state, so restored worlds keep
    /// working pickers and metrics instruments.
    ///
    /// # Panics
    ///
    /// Panics if the blob is malformed, from a different world kind, or
    /// shaped for a differently-built world (task/node count mismatch).
    pub fn restore(&mut self, blob: &[u8]) {
        assert!(self.started, "restore() requires a started world");
        let mut r = SnapReader::new(blob, FLOW_WORLD_TAG);
        r.section("flow_world");
        self.restore_head(&mut r);
        r.section("tasks");
        let n = r.get_usize();
        assert_eq!(n, self.tasks.len(), "snapshot task count mismatch");
        let metrics = self.metrics.clone();
        for t in 0..n {
            let addr = self.nodes[self.tasks[t].spec.node].addr;
            self.tasks[t].restore(t, addr, &metrics, &mut r);
        }
        r.section("conns");
        self.restore_conns(&mut r);
        self.engine.restore_state(&mut r);
        let cap_base = self.cap_base;
        self.restore_tail(&mut r);
        assert_eq!(cap_base, self.cap_base, "snapshot node-layout mismatch");
        self.oversight.restore_tail(&mut r, &self.metrics);
    }

    snap_in_place!(fn save_head / restore_head {
        sim,
        tracker,
        book,
        nodes,
    });

    snap_in_place!(fn save_conns / restore_conns {
        conns,
        node_tasks,
        dead_queue,
        tick_due,
        rng,
        last_advance,
        next_metrics,
        trace,
        handoff_down_since,
    });

    // `cap_base` is layout, not state: restore checks it against the
    // rebuilt world's.
    snap_in_place!(fn save_tail / restore_tail {
        cap_base,
        task_capped,
        pending_tasks,
        pending_flag,
        rate_solves,
        rate_skips,
        stall_aborts,
        oversight.tracker_down,
        blackholed,
        access_baseline,
        node_upload_cap,
        lossy_factor,
        squeeze_factor,
    });
}

/// World-kind tag of flow-world snapshot blobs.
pub const FLOW_WORLD_TAG: u32 = 1;

/// Fault injection into the fluid model.
///
/// Approximations where the model has no literal equivalent:
///
/// * **Loss bursts** become a capacity derate of `(1 − ber)^12000` (the
///   packet-error rate of a 1500-byte frame): in a fluid world the
///   goodput loss *is* the fault's observable effect.
/// * **Black-holes** pin every flow through the node to rate zero while
///   leaving connections nominally up — peers see a silent stall, the
///   paper's mobile-host pathology.
/// * **Address churn** is a hand-off with an empty outage window.
/// * **Crash/restart** re-uses the hand-off teardown (connections decay
///   as black holes, progress persists) but keeps the node's address.
impl FaultHooks for FlowWorld {
    fn begin_loss_burst(&mut self, node: NodeId, ber: f64) {
        let n = node.0 as usize;
        if n >= self.nodes.len() {
            return;
        }
        let factor = (1.0 - ber).powi(12_000).clamp(0.01, 1.0);
        self.lossy_factor.insert(n, factor);
        self.apply_access_faults(n);
        self.fault_note(
            self.sim.now(),
            format!("fault: node {n} loss burst (capacity x{factor:.3})"),
        );
    }

    fn end_loss_burst(&mut self, node: NodeId) {
        let n = node.0 as usize;
        if self.lossy_factor.remove(&n).is_some() {
            self.apply_access_faults(n);
            self.fault_note(self.sim.now(), format!("fault: node {n} loss burst over"));
        }
    }

    fn begin_blackhole(&mut self, node: NodeId) {
        let n = node.0 as usize;
        if n >= self.nodes.len() {
            return;
        }
        if self.blackholed.insert(n) {
            // A black-holed node's flows stall at rate zero: the link
            // looks up, nothing moves. Pull its flows out of the rate
            // problem (the conns stay in the active set so the stall
            // watchdog still arms).
            for cid in self.conns_touching(n) {
                if let Some(s) = self.conns.check(cid) {
                    self.engine.remove_flow(2 * s);
                    self.engine.remove_flow(2 * s + 1);
                }
            }
            self.fault_note(self.sim.now(), format!("fault: node {n} black-holed"));
        }
    }

    fn end_blackhole(&mut self, node: NodeId) {
        let n = node.0 as usize;
        if self.blackholed.remove(&n) {
            // Re-admit every eligible, still-pending flow through the node.
            for cid in self.conns_touching(n) {
                let Some(s) = self.conns.check(cid) else {
                    continue;
                };
                if self.conns.dead_since[s].is_some() {
                    continue;
                }
                let (a, b) = (self.conns.a[s], self.conns.b[s]);
                for (dir, src, dst) in [(0usize, a, b), (1, b, a)] {
                    let nonempty = if dir == 0 {
                        !self.conns.ab[s].queue.is_empty()
                    } else {
                        !self.conns.ba[s].queue.is_empty()
                    };
                    if nonempty && self.flow_eligible(src.task, dst.task) {
                        let d = self.build_demand(src.task, dst.task);
                        self.engine.upsert_flow(2 * s + dir, d);
                    }
                }
            }
            self.fault_note(self.sim.now(), format!("fault: node {n} black-hole over"));
        }
    }

    fn churn_address(&mut self, node: NodeId) {
        let n = node.0 as usize;
        if n >= self.nodes.len() {
            return;
        }
        let now = self.sim.now();
        self.fault_note(now, format!("fault: node {n} address churn"));
        if self.nodes[n].alive {
            self.handoff_start(n, now);
        }
        self.handoff_end(n, now);
    }

    fn begin_tracker_outage(&mut self) {
        self.oversight.tracker_down = true;
        self.fault_note(self.sim.now(), "fault: tracker outage".to_string());
    }

    fn end_tracker_outage(&mut self) {
        self.oversight.tracker_down = false;
        self.fault_note(self.sim.now(), "fault: tracker back".to_string());
    }

    fn begin_bandwidth_squeeze(&mut self, node: NodeId, factor: f64) {
        let n = node.0 as usize;
        if n >= self.nodes.len() {
            return;
        }
        self.squeeze_factor.insert(n, factor.clamp(0.001, 1.0));
        self.apply_access_faults(n);
        self.fault_note(
            self.sim.now(),
            format!("fault: node {n} bandwidth squeeze x{factor:.3}"),
        );
    }

    fn end_bandwidth_squeeze(&mut self, node: NodeId) {
        let n = node.0 as usize;
        if self.squeeze_factor.remove(&n).is_some() {
            self.apply_access_faults(n);
            self.fault_note(self.sim.now(), format!("fault: node {n} squeeze over"));
        }
    }

    fn crash_peer(&mut self, node: NodeId) {
        let n = node.0 as usize;
        if n >= self.nodes.len() || !self.nodes[n].alive {
            return;
        }
        let now = self.sim.now();
        self.fault_note(now, format!("fault: node {n} crashed"));
        self.node_down(n, now);
    }

    fn restart_peer(&mut self, node: NodeId) {
        let n = node.0 as usize;
        if n >= self.nodes.len() || self.nodes[n].alive {
            return;
        }
        let now = self.sim.now();
        self.fault_note(now, format!("fault: node {n} restarted"));
        self.node_up(n, now);
    }
}

// ----------------------------------------------------------------------
// Snapshot plumbing: Snap impls for the world's private value types, and
// the task-state overlay (a `TaskSpec` holds a `make_config` closure, so
// tasks restore onto the spec the rebuilt world already carries).
// ----------------------------------------------------------------------

use simnet::snapshot::{snap_enum, snap_in_place, snap_struct, SnapReader, SnapWriter};

impl TaskState {
    fn save(&self, w: &mut SnapWriter) {
        w.put_bool(self.client.is_some());
        if let Some(c) = &self.client {
            c.save_state(w);
        }
        self.save_fields(w);
    }

    /// Overlays serialized task state onto this (builder-rebuilt) task.
    /// A present client is reconstructed from the task's own
    /// `make_config` — placeholder identity, progress, and rng are
    /// immediately replaced by `Client::restore_state` — and re-wired
    /// into the metrics registry, as are the LIHD controller's
    /// instruments.
    fn restore(&mut self, t: TaskKey, addr: SimAddr, metrics: &MetricsHandle, r: &mut SnapReader<'_>) {
        self.client = if r.get_bool() {
            let mut seed_rng = SimRng::new(0);
            let peer_id = PeerId::generate(PeerIdStyle::Random, addr, &mut seed_rng);
            let mut client = Client::with_progress(
                self.spec.client_config(),
                self.spec.torrent.info_hash,
                peer_id,
                self.spec.torrent.fresh_progress(),
                addr,
                seed_rng,
            );
            client.restore_state(r);
            if metrics.is_enabled() {
                client.attach_metrics(metrics, &format!("task{t}"));
            }
            Some(client)
        } else {
            None
        };
        self.restore_fields(r);
        if metrics.is_enabled() {
            if let Some(l) = self.lihd.as_mut() {
                l.attach_metrics(metrics, &format!("task{t}"));
            }
        }
    }

    snap_in_place!(fn save_fields / restore_fields {
        saved_progress,
        identity,
        rr,
        lihd,
        dl_meter,
        last_down_total,
        acc,
        delivered_down,
        delivered_up,
        series_down,
        series_up,
        next_client_tick,
        generation,
        started,
        completed_at,
        announcer,
        saved_addrs,
        conn_index,
        peer_bytes,
        rng,
    });
}

snap_enum!(Access {
    0 => Wired { up, down },
    1 => Wireless { capacity },
});

snap_struct!(Node {
    access,
    addr,
    alive,
    mobility,
});

snap_struct!(ConnId {
    slot,
    gen,
});

snap_struct!(ConnEnd {
    task,
    key,
    generation,
});

snap_struct!(FlowQ {
    queue,
    head_remaining,
});

snap_struct!(ConnArena {
    gen,
    live,
    uid,
    a,
    b,
    ab,
    ba,
    dead_since,
    stall,
    last_progress,
    free,
    next_uid,
});

snap_enum!(Ev {
    0 => Tick,
    1 => Dial { task, generation, key, addr, target },
    2 => TrackerReply { task, generation, event },
    3 => HandoffStart { node, ends },
    4 => HandoffEnd { node },
    5 => StallCheck { cid },
    6 => TaskStart { task },
});

#[cfg(test)]
mod tests {
    use super::*;
    use bittorrent::wire::{BlockRef, Message};

    fn piece_msg(len: u32) -> Message {
        Message::Piece(BlockRef {
            piece: 0,
            offset: 0,
            len,
        })
    }

    #[test]
    fn flowq_advances_across_message_boundaries() {
        let mut q = FlowQ::new();
        q.push(piece_msg(100)); // wire 113
        q.push(piece_msg(50)); // wire 63
        let mut out = Vec::new();
        // Not enough for the first message.
        q.advance(100.0, &mut out);
        assert!(out.is_empty());
        // Finishes the first and eats into the second.
        q.advance(50.0, &mut out);
        assert_eq!(out.len(), 1);
        // Finishes the second.
        q.advance(63.0, &mut out);
        assert_eq!(out.len(), 2);
        assert!(q.queue.is_empty());
    }

    #[test]
    fn flowq_budget_does_not_bank_when_idle() {
        let mut q = FlowQ::new();
        let mut out = Vec::new();
        q.advance(1e9, &mut out); // nothing queued: budget evaporates
        q.push(piece_msg(1000));
        q.advance(1.0, &mut out);
        assert!(out.is_empty(), "idle budget must not carry over");
    }

    #[test]
    fn flowq_head_remaining_tracks_first_message() {
        let mut q = FlowQ::new();
        q.push(piece_msg(100));
        assert_eq!(q.head_remaining, 113.0);
        let mut out = Vec::new();
        q.advance(13.0, &mut out);
        assert_eq!(q.head_remaining, 100.0);
    }

    #[test]
    fn clean_ticks_skip_the_solve() {
        // An empty world is dirty exactly once (initial state); every
        // later tick must take the skip path.
        let mut w = FlowWorld::new(FlowConfig::default(), 7);
        w.start();
        w.run_until(SimTime::from_secs(10), |_| {});
        assert_eq!(w.rate_solves(), 1, "only the first tick solves");
        assert!(w.rate_skips() >= 30, "skips={}", w.rate_skips());
    }

    #[test]
    fn transfer_completes_and_quiet_ticks_skip() {
        let meta = Metainfo::synthetic("skip.bin", "tr", 64 * 1024, 1024 * 1024, 1);
        let torrent = TorrentSpec::from_metainfo(&meta, 64 * 1024);
        let mut w = FlowWorld::new(FlowConfig::default(), 42);
        let seed_node = w.add_node(Access::campus());
        let leech_node = w.add_node(Access::residential());
        w.add_task(TaskSpec::default_client(seed_node, torrent, true));
        let leech = w.add_task(TaskSpec::default_client(leech_node, torrent, false));
        w.start();
        w.run_until(SimTime::from_secs(240), |_| {});
        assert_eq!(w.progress_fraction(leech), 1.0);
        assert!(w.rate_solves() > 0);
        // After completion the swarm idles: a long tail of clean ticks.
        assert!(
            w.rate_skips() > w.rate_solves(),
            "solves={} skips={}",
            w.rate_solves(),
            w.rate_skips()
        );
    }

    #[test]
    fn stall_watchdog_aborts_stalled_transfers_only() {
        let meta = Metainfo::synthetic("stall.bin", "tr", 64 * 1024, 4 * 1024 * 1024, 1);
        let torrent = TorrentSpec::from_metainfo(&meta, 64 * 1024);
        let cfg = FlowConfig {
            stall_timeout: Some(SimDuration::from_secs(5)),
            ..FlowConfig::default()
        };
        let mut w = FlowWorld::new(cfg, 42);
        let seed_node = w.add_node(Access::campus());
        let leech_node = w.add_node(Access::residential());
        w.add_task(TaskSpec::default_client(seed_node, torrent, true));
        let leech = w.add_task(TaskSpec::default_client(leech_node, torrent, false));
        w.start();
        w.run_until(SimTime::from_secs(10), |_| {});
        let progress = w.progress_fraction(leech);
        assert!(progress > 0.0, "transfer must be in flight");
        assert_eq!(w.stall_aborts(), 0, "healthy transfers never time out");
        // The lazy watchdog arms once per busy spell and re-arms itself on
        // fire; progress is a timestamp write, never a cancel. A healthy
        // run therefore cancels (at most) on connection teardown, not per
        // tick — the armed-timer churn of the old eager scheme is gone.
        let stats = w.queue_stats();
        assert!(
            stats.cancelled < stats.scheduled / 10,
            "progress must not churn timer cancels: {} cancelled of {} scheduled",
            stats.cancelled,
            stats.scheduled
        );
        // Black-hole the seed: its links look up but nothing moves (rate
        // zero with data still queued) — the watchdog must abort the
        // stalled connection one timeout later.
        w.begin_blackhole(NodeId(seed_node as u32));
        w.run_until(SimTime::from_secs(30), |_| {});
        assert!(w.stall_aborts() > 0, "stalled transfer was never aborted");
    }

    /// Regression for the pre-lifecycle behaviour: a stall abort used to
    /// kill the connection and leave only the flat legacy redial. Armed
    /// clients must instead escalate the address into backing-off.
    #[test]
    fn armed_stall_abort_backs_off_instead_of_flat_redial() {
        use bittorrent::lifecycle::{ConnState, ResilienceConfig};

        type AddrStates = Vec<(SimAddr, u32, SimTime, bool)>;
        fn run(armed: bool) -> (u64, AddrStates, Option<ConnState>) {
            let meta = Metainfo::synthetic("stallb.bin", "tr", 64 * 1024, 4 * 1024 * 1024, 1);
            let torrent = TorrentSpec::from_metainfo(&meta, 64 * 1024);
            let cfg = FlowConfig {
                stall_timeout: Some(SimDuration::from_secs(5)),
                ..FlowConfig::default()
            };
            let mut w = FlowWorld::new(cfg, 42);
            let seed_node = w.add_node(Access::campus());
            let leech_node = w.add_node(Access::residential());
            w.add_task(TaskSpec::default_client(seed_node, torrent, true));
            let mut spec = TaskSpec::default_client(leech_node, torrent, false);
            if armed {
                spec.make_config = Box::new(|| ClientConfig {
                    resilience: ResilienceConfig::armed(),
                    ..ClientConfig::default()
                });
            }
            let leech = w.add_task(spec);
            w.start();
            w.run_until(SimTime::from_secs(10), |_| {});
            w.begin_blackhole(NodeId(seed_node as u32));
            w.run_until(SimTime::from_secs(30), |_| {});
            let seed_addr = w.node_addr(seed_node);
            let client = w.client(leech).expect("leech alive");
            let state = client.lifecycle_of(seed_addr, w.now());
            (w.stall_aborts(), client.addr_states(), state)
        }

        let (aborts, states, _) = run(false);
        assert!(aborts > 0, "unarmed run never hit the watchdog");
        assert!(
            states.iter().all(|&(_, failures, _, _)| failures == 0),
            "legacy stall abort must not escalate failures: {states:?}"
        );

        let (aborts, states, state) = run(true);
        assert!(aborts > 0, "armed run never hit the watchdog");
        assert!(
            states.iter().any(|&(_, failures, _, _)| failures >= 1),
            "armed stall abort must escalate into backoff: {states:?}"
        );
        assert_eq!(
            state,
            Some(ConnState::BackingOff),
            "armed client should be waiting out a backoff window"
        );
    }

    /// A loss burst starves piece progress without killing the link: an
    /// armed client must snub the peer (collapse the pipeline to a probe)
    /// and unsnub as soon as the burst lifts and a piece lands.
    #[test]
    fn snub_and_unsnub_round_trip_under_loss_burst() {
        use bittorrent::lifecycle::ResilienceConfig;

        let meta = Metainfo::synthetic("snub.bin", "tr", 256 * 1024, 8 * 1024 * 1024, 1);
        let torrent = TorrentSpec::from_metainfo(&meta, 256 * 1024);
        let mut w = FlowWorld::new(FlowConfig::default(), 11);
        let seed_node = w.add_node(Access::Wireless {
            capacity: 2_000_000.0 / 8.0,
        });
        let leech_node = w.add_node(Access::residential());
        w.add_task(TaskSpec::default_client(seed_node, torrent, true));
        let mut spec = TaskSpec::default_client(leech_node, torrent, false);
        spec.make_config = Box::new(|| {
            let mut res = ResilienceConfig::armed();
            // Fast snub detection; keepalive long enough that the silent
            // burst window never closes the connection underneath us.
            res.snub_timeout = SimDuration::from_secs(15);
            res.keepalive_timeout = SimDuration::from_secs(600);
            ClientConfig {
                resilience: res,
                ..ClientConfig::default()
            }
        });
        let leech = w.add_task(spec);
        w.start();
        w.run_until(SimTime::from_secs(10), |_| {});
        let before = w.progress_fraction(leech);
        assert!(before > 0.0, "transfer must be in flight");
        assert_eq!(w.client(leech).expect("alive").snubbed_count(), 0);

        // Throttle the seed to ~1% capacity: blocks take minutes, so the
        // leech sees no piece progress inside its snub window.
        w.begin_loss_burst(NodeId(seed_node as u32), 1e-3);
        let snubbed = w.run_until_condition(SimTime::from_secs(120), |w| {
            w.client(leech).is_some_and(|c| c.snubbed_count() > 0)
        });
        assert!(snubbed, "loss burst never snubbed the seed connection");

        // Lift the burst: the probe request drains at full rate, a piece
        // arrives, and the client unsnubs and finishes the download.
        w.end_loss_burst(NodeId(seed_node as u32));
        let recovered = w.run_until_condition(SimTime::from_secs(400), |w| {
            w.client(leech).is_some_and(|c| c.snubbed_count() == 0)
                && w.progress_fraction(leech) > before
        });
        assert!(recovered, "snubbed connection never recovered");
        assert!(
            w.client(leech).expect("alive").stats().snubs >= 1,
            "snub counter never incremented"
        );
    }

    /// Role reversal during a tracker outage: the mobile seed hands off
    /// to a fresh address while the tracker is dark, so its stored-peer
    /// redial (through the backoff machinery) is the only way back.
    #[test]
    fn role_reversal_recovers_during_tracker_outage() {
        use bittorrent::lifecycle::ResilienceConfig;

        let meta = Metainfo::synthetic("rr.bin", "tr", 256 * 1024, 4 * 1024 * 1024, 1);
        let torrent = TorrentSpec::from_metainfo(&meta, 256 * 1024);
        let mut w = FlowWorld::new(FlowConfig::default(), 5);
        let seed_node = w.add_node(Access::Wireless {
            capacity: 2_000_000.0 / 8.0,
        });
        let leech_node = w.add_node(Access::residential());
        let armed = || {
            Box::new(|| ClientConfig {
                resilience: ResilienceConfig::armed(),
                ..ClientConfig::default()
            }) as Box<dyn Fn() -> ClientConfig>
        };
        let mut seed_spec = TaskSpec::default_client(seed_node, torrent, true);
        seed_spec.make_config = armed();
        seed_spec.wp2p.role_reversal = true;
        seed_spec.wp2p.identity_retention = true;
        w.add_task(seed_spec);
        let mut leech_spec = TaskSpec::default_client(leech_node, torrent, false);
        leech_spec.make_config = armed();
        let leech = w.add_task(leech_spec);
        w.start();
        w.run_until(SimTime::from_secs(8), |_| {});
        let before = w.progress_fraction(leech);
        assert!(before > 0.0 && before < 1.0, "mid-transfer, got {before}");

        // Tracker goes dark, then the seed hands off: the leech cannot
        // rediscover the new address, and the old connection is a black
        // hole. Only the seed's stored-peer reconnect restores flow.
        w.begin_tracker_outage();
        w.churn_address(NodeId(seed_node as u32));
        let recovered = w.run_until_condition(SimTime::from_secs(240), |w| {
            w.progress_fraction(leech) > before + 0.05
        });
        assert!(
            recovered,
            "stored-peer redial never restored progress (stuck at {})",
            w.progress_fraction(leech)
        );
        w.end_tracker_outage();
    }

    #[test]
    fn stall_watchdog_defaults_off() {
        // Without the opt-in the flow world schedules no watchdog timers:
        // cancellation counters stay exactly zero.
        let meta = Metainfo::synthetic("off.bin", "tr", 64 * 1024, 1024 * 1024, 1);
        let torrent = TorrentSpec::from_metainfo(&meta, 64 * 1024);
        let mut w = FlowWorld::new(FlowConfig::default(), 42);
        let seed_node = w.add_node(Access::campus());
        let leech_node = w.add_node(Access::residential());
        w.add_task(TaskSpec::default_client(seed_node, torrent, true));
        w.add_task(TaskSpec::default_client(leech_node, torrent, false));
        w.start();
        w.run_until(SimTime::from_secs(60), |_| {});
        let q = w.queue_stats();
        assert_eq!(q.cancelled, 0);
        assert_eq!(w.stall_aborts(), 0);
    }
}
