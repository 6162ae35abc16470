//! The packet-level simulation world.
//!
//! Small-scale testbeds where every TCP segment is individually modelled:
//! segments from/to a wireless node cross its shared [`WirelessChannel`]
//! (suffering serialization, queueing, and BER loss proportional to frame
//! length), then a fixed wired backbone delay. This is the fidelity the
//! paper's §3.2 and §5.2.1 need — ACK piggybacking, DUPACK purity, and the
//! wP2P AM filter all live at this layer.
//!
//! Two usage modes share the machinery:
//!
//! * **Raw TCP** ([`PacketWorld::open_tcp`] + [`PacketWorld::tcp_write`]):
//!   drive byte streams directly (paper Fig. 2).
//! * **BitTorrent overlay** ([`PacketWorld::add_client`]): full client
//!   sessions whose wire messages are framed onto the TCP byte streams
//!   (paper Fig. 8(a)).
//!
//! This module is the packet transport: endpoints, channels, framing
//! and the event loop. The announce and tracker-outage policy, the
//! fault cursor and the invariant checker are the client host both
//! worlds share (the crate-private `host` module); this world only
//! routes announces to its one tracker.

use crate::host::{Announcer, Oversight};
use bittorrent::client::{Action, Client, ClientConfig};
use bittorrent::metainfo::InfoHash;
use bittorrent::peer_id::{PeerId, PeerIdStyle};
use bittorrent::progress::TorrentProgress;
use bittorrent::tracker::{Tracker, TrackerConfig};
use bittorrent::wire::Message;
use metrics::handle::MetricsHandle;
use metrics::registry::Counter;
use metrics::trace::TraceKind;
use sim_tcp::endpoint::{Endpoint, TcpConfig};
use sim_tcp::segment::Segment;
use sim_tcp::seq::SeqNum;
use simnet::addr::{AddressBook, NodeId};
use simnet::event::{EventToken, QueueStats};
use simnet::fault::{FaultHooks, FaultPlan};
use simnet::rng::SimRng;
use simnet::sim::Simulator;
use simnet::time::{SimDuration, SimTime};
use simnet::wireless::{Direction, DirectionStats, WirelessChannel, WirelessConfig};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wp2p::am::{AgeFilter, AmConfig, AmOutput, AmStats};

/// Node index in the packet world.
pub type PNodeKey = usize;
/// Connection index in the packet world.
pub type PConnKey = usize;

/// One-way wired backbone delay between any two nodes.
const BACKBONE_DELAY: SimDuration = SimDuration::from_millis(20);
/// Client housekeeping cadence (BitTorrent overlay).
const CLIENT_TICK: SimDuration = SimDuration::from_millis(500);

/// Global parameters of the packet world.
#[derive(Clone, Copy, Debug, Default)]
pub struct PacketConfig {
    /// TCP endpoint parameters.
    pub tcp: TcpConfig,
}

struct PNode {
    channel: Option<WirelessChannel>,
    am: Option<AmConfig>,
    addr: simnet::addr::SimAddr,
    client: Option<Client>,
    delivered_down: u64,
    delivered_up: u64,
    announcer: Announcer,
}

/// One TCP connection between two nodes (with optional BT framing).
struct PConn {
    a_node: PNodeKey,
    b_node: PNodeKey,
    a: Endpoint,
    b: Endpoint,
    a_filter: Option<AgeFilter>,
    b_filter: Option<AgeFilter>,
    a_timer: Option<(SimTime, EventToken)>,
    b_timer: Option<(SimTime, EventToken)>,
    /// Client connection keys once attached/established.
    a_key: Option<u64>,
    b_key: Option<u64>,
    /// Framed messages in flight: `(message, stream end offset)`.
    a2b: VecDeque<(Message, u64)>,
    b2a: VecDeque<(Message, u64)>,
    a_written: u64,
    b_written: u64,
    /// Establishment not yet reported to the overlay.
    a_up: bool,
    b_up: bool,
    closed: bool,
}

impl PConn {
    fn side(&mut self, a: bool) -> &mut Endpoint {
        if a {
            &mut self.a
        } else {
            &mut self.b
        }
    }
}

enum PEv {
    /// Segment finished the sender-side hop; entering the receiver side.
    Hop {
        conn: PConnKey,
        to_a: bool,
        seg: Segment,
    },
    /// Segment arrives at the destination endpoint.
    Deliver {
        conn: PConnKey,
        to_a: bool,
        seg: Segment,
    },
    /// Retransmission timer for one endpoint.
    Timer { conn: PConnKey, a_side: bool },
    /// BitTorrent overlay housekeeping.
    ClientTick,
}

/// The packet-level world. See the module docs.
pub struct PacketWorld {
    cfg: PacketConfig,
    sim: Simulator<PEv>,
    nodes: Vec<PNode>,
    conns: Vec<Option<PConn>>,
    /// Per-node index of live connections, so address churn and client
    /// teardown touch only a node's own conns instead of scanning all.
    node_conns: Vec<BTreeSet<PConnKey>>,
    /// `(node, client conn key)` → world connection.
    ckeys: BTreeMap<(PNodeKey, u64), PConnKey>,
    tracker: Tracker,
    book: AddressBook,
    rng: SimRng,
    next_iss: u32,
    clients_started: bool,
    /// Fault state: nodes whose frames vanish silently.
    blackholed: BTreeSet<PNodeKey>,
    /// Fault state: crashed nodes (frames vanish, client ticks skipped).
    crashed: BTreeSet<PNodeKey>,
    /// Pre-fault BER of nodes under a loss burst.
    ber_baseline: BTreeMap<PNodeKey, f64>,
    /// Pre-fault channel bandwidth of squeezed nodes.
    bw_baseline: BTreeMap<PNodeKey, u64>,
    /// Fault plan, tracker outage and invariant checker.
    oversight: Oversight,
    metrics: MetricsHandle,
    m_fault_events: Counter,
}

impl PacketWorld {
    /// Creates an empty world.
    pub fn new(cfg: PacketConfig, seed: u64) -> Self {
        PacketWorld {
            sim: Simulator::new(),
            cfg,
            nodes: Vec::new(),
            conns: Vec::new(),
            node_conns: Vec::new(),
            ckeys: BTreeMap::new(),
            tracker: Tracker::new(TrackerConfig::default()),
            book: AddressBook::new(),
            rng: SimRng::new(seed),
            next_iss: 1,
            clients_started: false,
            blackholed: BTreeSet::new(),
            crashed: BTreeSet::new(),
            ber_baseline: BTreeMap::new(),
            bw_baseline: BTreeMap::new(),
            oversight: Oversight::new(),
            metrics: MetricsHandle::disabled(),
            m_fault_events: Counter::default(),
        }
    }

    /// Installs `plan` with nothing applied yet, replacing any earlier
    /// plan. Every event then applies the plan's due actions before the
    /// `run_until` callback runs. A restore overwrites only the cursor,
    /// so a restored world installs the saved world's plan first.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.oversight.set_fault_plan(plan);
    }

    /// Arms the world's own
    /// [`InvariantChecker`](crate::invariants::InvariantChecker): every
    /// later event ends with a full check pass, and a violation panics.
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

    /// Wires the world's observables into `handle`: a
    /// `packet.fault_events` counter plus fault trace events, and —
    /// for every connection or client created afterwards — per-endpoint
    /// TCP instruments (`tcp.conn<k>.{a,b}.*`), AM filter counters
    /// (`am.conn<k>.{a,b}.*`), and per-node client swarm counters
    /// (`bt.node<n>.*`). Call before building the topology; inert when
    /// the handle is disabled.
    pub fn set_metrics(&mut self, handle: &MetricsHandle) {
        self.metrics = handle.clone();
        self.m_fault_events = handle.counter("packet.fault_events");
    }

    /// A fault-injection hook fired: count it and trace it.
    fn fault_note(&mut self, message: String) {
        self.m_fault_events.inc();
        self.metrics
            .trace_event(self.sim.now(), TraceKind::Other, message);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Number of simulator events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.processed()
    }

    /// Event-queue instrumentation counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.sim.queue_stats()
    }

    /// Adds a node; `channel` gives it a wireless access hop.
    pub fn add_node(&mut self, channel: Option<WirelessConfig>) -> PNodeKey {
        let key = self.nodes.len();
        let addr = self.book.assign(NodeId(key as u32));
        self.nodes.push(PNode {
            channel: channel.map(WirelessChannel::new),
            am: None,
            addr,
            client: None,
            delivered_down: 0,
            delivered_up: 0,
            announcer: Announcer::default(),
        });
        self.node_conns.push(BTreeSet::new());
        key
    }

    /// Enables the wP2P AM filter on all of a node's connections.
    pub fn set_am(&mut self, node: PNodeKey, am: AmConfig) {
        self.nodes[node].am = Some(am);
    }

    /// Adjusts a wireless node's bit-error rate.
    ///
    /// # Panics
    ///
    /// Panics if the node has no wireless channel.
    pub fn set_ber(&mut self, node: PNodeKey, ber: f64) {
        self.nodes[node]
            .channel
            .as_mut()
            .expect("node has no wireless channel")
            .set_ber(ber);
    }

    /// Per-direction stats of a node's channel.
    pub fn channel_stats(&self, node: PNodeKey, dir: Direction) -> DirectionStats {
        self.nodes[node]
            .channel
            .as_ref()
            .map(|c| c.stats(dir))
            .unwrap_or_default()
    }

    /// Times of buffer drops on a node's channel.
    pub fn channel_drops(&self, node: PNodeKey) -> Vec<SimTime> {
        self.nodes[node]
            .channel
            .as_ref()
            .map(|c| c.drop_log().to_vec())
            .unwrap_or_default()
    }

    fn iss(&mut self) -> SeqNum {
        self.next_iss = self.next_iss.wrapping_add(100_003);
        SeqNum(self.next_iss)
    }

    // ------------------------------------------------------------------
    // Raw TCP mode
    // ------------------------------------------------------------------

    /// Opens a TCP connection from `a` to `b` (the three-way handshake
    /// flows through the channel models). Returns the connection key.
    pub fn open_tcp(&mut self, a: PNodeKey, b: PNodeKey) -> PConnKey {
        let now = self.sim.now();
        let mut ea = Endpoint::new(self.cfg.tcp, self.iss());
        let mut eb = Endpoint::new(self.cfg.tcp, self.iss());
        eb.listen();
        ea.connect(now);
        let conn = self.conns.len();
        let mut a_filter = self.nodes[a].am.map(AgeFilter::new);
        let mut b_filter = self.nodes[b].am.map(AgeFilter::new);
        if self.metrics.is_enabled() {
            ea.attach_metrics(&self.metrics, &format!("conn{conn}.a"));
            eb.attach_metrics(&self.metrics, &format!("conn{conn}.b"));
            if let Some(f) = a_filter.as_mut() {
                f.attach_metrics(&self.metrics, &format!("conn{conn}.a"));
            }
            if let Some(f) = b_filter.as_mut() {
                f.attach_metrics(&self.metrics, &format!("conn{conn}.b"));
            }
        }
        self.conns.push(Some(PConn {
            a_node: a,
            b_node: b,
            a: ea,
            b: eb,
            a_filter,
            b_filter,
            a_timer: None,
            b_timer: None,
            a_key: None,
            b_key: None,
            a2b: VecDeque::new(),
            b2a: VecDeque::new(),
            a_written: 0,
            b_written: 0,
            a_up: true,
            b_up: true,
            closed: false,
        }));
        self.node_conns[a].insert(conn);
        self.node_conns[b].insert(conn);
        self.flush(conn, true);
        self.flush(conn, false);
        conn
    }

    /// Queues raw bytes on one side of a TCP connection (`a_side` true for
    /// the initiator).
    pub fn tcp_write(&mut self, conn: PConnKey, a_side: bool, bytes: u64) {
        if let Some(c) = self.conns[conn].as_mut() {
            c.side(a_side).write(bytes);
        }
        self.flush(conn, a_side);
    }

    /// Total in-order bytes delivered to one side.
    pub fn tcp_delivered(&self, conn: PConnKey, a_side: bool) -> u64 {
        self.conns[conn]
            .as_ref()
            .map(|c| {
                if a_side {
                    c.a.delivered_total()
                } else {
                    c.b.delivered_total()
                }
            })
            .unwrap_or(0)
    }

    /// Read-only access to an endpoint (stats, cwnd, …).
    pub fn endpoint(&self, conn: PConnKey, a_side: bool) -> Option<&Endpoint> {
        self.conns[conn]
            .as_ref()
            .map(|c| if a_side { &c.a } else { &c.b })
    }

    /// Number of nodes in the world.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of connection slots ever opened (some may be torn down).
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Total application bytes one side has queued on its endpoint.
    pub fn tcp_written(&self, conn: PConnKey, a_side: bool) -> u64 {
        self.conns[conn]
            .as_ref()
            .map(|c| {
                if a_side {
                    c.a.written_total()
                } else {
                    c.b.written_total()
                }
            })
            .unwrap_or(u64::MAX) // torn-down conns place no bound
    }

    /// True while a fault-injected tracker outage is active.
    pub fn tracker_is_down(&self) -> bool {
        self.oversight.tracker_down
    }

    /// Check passes the world's own checker has run: one per event
    /// while armed (see [`PacketWorld::arm_invariants`]), carried across
    /// save/restore.
    pub fn invariant_checks(&self) -> u64 {
        self.oversight.checker.checks()
    }

    /// AM filter stats for one side, if AM is enabled there.
    pub fn am_stats(&self, conn: PConnKey, a_side: bool) -> Option<AmStats> {
        self.conns[conn].as_ref().and_then(|c| {
            if a_side {
                c.a_filter.as_ref().map(|f| f.stats())
            } else {
                c.b_filter.as_ref().map(|f| f.stats())
            }
        })
    }

    // ------------------------------------------------------------------
    // BitTorrent overlay
    // ------------------------------------------------------------------

    /// Attaches a client session to a node.
    #[allow(clippy::too_many_arguments)] // the torrent geometry is explicit
    pub fn add_client(
        &mut self,
        node: PNodeKey,
        config: ClientConfig,
        info_hash: InfoHash,
        piece_length: u32,
        length: u64,
        block_size: u32,
        complete: bool,
    ) {
        let progress = if complete {
            TorrentProgress::complete(piece_length, length)
        } else {
            TorrentProgress::with_block_size(piece_length, length, block_size)
        };
        self.add_client_with_progress(node, config, info_hash, progress);
    }

    /// Attaches a client with explicitly constructed progress (e.g.
    /// complementary halves for the Fig. 8(a) leech-to-leech scenario).
    pub fn add_client_with_progress(
        &mut self,
        node: PNodeKey,
        mut config: ClientConfig,
        info_hash: InfoHash,
        progress: TorrentProgress,
    ) {
        let addr = self.nodes[node].addr;
        let mut rng = self.rng.fork(300 + node as u64);
        // Strategy hook: PacketWorld clients live one generation, but a
        // hybrid still draws its initial (possibly degraded) mode here.
        // Honest draws nothing, keeping legacy streams bit-identical.
        config.strategy.on_reinit(0, &mut rng);
        let peer_id = PeerId::generate(PeerIdStyle::Random, addr, &mut rng);
        let mut client = Client::with_progress(config, info_hash, peer_id, progress, addr, rng);
        if self.metrics.is_enabled() {
            client.attach_metrics(&self.metrics, &format!("node{node}"));
        }
        self.nodes[node].client = Some(client);
    }

    /// Starts every attached client (tracker announce + dials).
    pub fn start_clients(&mut self) {
        assert!(!self.clients_started, "clients already started");
        self.clients_started = true;
        let now = self.sim.now();
        for n in 0..self.nodes.len() {
            if let Some(c) = self.nodes[n].client.as_mut() {
                c.start(now);
            }
        }
        self.pump_actions(now);
        self.sim.schedule_in(CLIENT_TICK, PEv::ClientTick);
    }

    /// Read-only view of a node's client.
    pub fn client(&self, node: PNodeKey) -> Option<&Client> {
        self.nodes[node].client.as_ref()
    }

    /// Payload bytes delivered to a node's client over all connections.
    pub fn delivered_down(&self, node: PNodeKey) -> u64 {
        self.nodes[node].delivered_down
    }

    /// Payload bytes served by a node's client over all connections.
    pub fn delivered_up(&self, node: PNodeKey) -> u64 {
        self.nodes[node].delivered_up
    }

    fn teardown_conn(&mut self, conn: PConnKey, now: SimTime) {
        let Some(c) = self.conns[conn].take() else {
            return;
        };
        self.node_conns[c.a_node].remove(&conn);
        self.node_conns[c.b_node].remove(&conn);
        if let Some((_, tok)) = c.a_timer {
            self.sim.cancel(tok);
        }
        if let Some((_, tok)) = c.b_timer {
            self.sim.cancel(tok);
        }
        for (node, key) in [(c.a_node, c.a_key), (c.b_node, c.b_key)] {
            if let Some(k) = key {
                self.ckeys.remove(&(node, k));
                if let Some(client) = self.nodes[node].client.as_mut() {
                    client.on_conn_closed(k, now);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Datapath
    // ------------------------------------------------------------------

    /// Drains one endpoint's segments onto the network.
    fn flush(&mut self, conn: PConnKey, a_side: bool) {
        let now = self.sim.now();
        loop {
            let Some(c) = self.conns[conn].as_mut() else {
                return;
            };
            let Some(seg) = c.side(a_side).poll_segment(now) else {
                break;
            };
            // AM filter on the sender side, if enabled.
            let filter = if a_side {
                c.a_filter.as_mut()
            } else {
                c.b_filter.as_mut()
            };
            let filtered: Vec<Segment> = match filter {
                None => vec![seg],
                Some(f) => match f.on_outgoing(seg, now) {
                    AmOutput::Pass(s) => vec![s],
                    AmOutput::Decoupled { pure_ack, data } => vec![pure_ack, data],
                    AmOutput::Drop => vec![],
                },
            };
            let from_node = if a_side { c.a_node } else { c.b_node };
            for s in filtered {
                self.transmit(conn, from_node, !a_side, s, now);
            }
        }
        self.sync_timer(conn, a_side);
    }

    /// Puts a segment on the wire from `from_node`, destined for the
    /// `to_a` side of `conn`.
    fn transmit(
        &mut self,
        conn: PConnKey,
        from_node: PNodeKey,
        to_a: bool,
        seg: Segment,
        now: SimTime,
    ) {
        if self.blackholed.contains(&from_node) || self.crashed.contains(&from_node) {
            return; // fault: frames from this node vanish silently
        }
        let hop_at = match self.nodes[from_node].channel.as_mut() {
            Some(ch) => match ch
                .send(now, Direction::Up, seg.wire_bytes(), &mut self.rng)
                .delivered_at()
            {
                Some(t) => t,
                None => return, // lost on the sender's wireless hop
            },
            None => now,
        };
        self.sim
            .schedule_at(hop_at + BACKBONE_DELAY, PEv::Hop { conn, to_a, seg });
    }

    fn on_hop(&mut self, conn: PConnKey, to_a: bool, seg: Segment, now: SimTime) {
        let Some(c) = self.conns[conn].as_ref() else {
            return;
        };
        let to_node = if to_a { c.a_node } else { c.b_node };
        if self.blackholed.contains(&to_node) || self.crashed.contains(&to_node) {
            return; // fault: frames to this node vanish silently
        }
        let deliver_at = match self.nodes[to_node].channel.as_mut() {
            Some(ch) => match ch
                .send(now, Direction::Down, seg.wire_bytes(), &mut self.rng)
                .delivered_at()
            {
                Some(t) => t,
                None => return, // lost on the receiver's wireless hop
            },
            None => now,
        };
        self.sim
            .schedule_at(deliver_at, PEv::Deliver { conn, to_a, seg });
    }

    fn on_deliver(&mut self, conn: PConnKey, to_a: bool, seg: Segment, now: SimTime) {
        {
            let Some(c) = self.conns[conn].as_mut() else {
                return;
            };
            // AM observes incoming traffic at the receiving side.
            let filter = if to_a {
                c.a_filter.as_mut()
            } else {
                c.b_filter.as_mut()
            };
            if let Some(f) = filter {
                f.on_incoming(&seg, now);
            }
            c.side(to_a).on_segment(seg, now);
        }
        self.after_endpoint_event(conn, to_a, now);
    }

    fn on_timer(&mut self, conn: PConnKey, a_side: bool, now: SimTime) {
        {
            let Some(c) = self.conns[conn].as_mut() else {
                return;
            };
            if a_side {
                c.a_timer = None;
            } else {
                c.b_timer = None;
            }
            c.side(a_side).on_timer(now);
        }
        self.after_endpoint_event(conn, a_side, now);
    }

    /// Post-processing after an endpoint absorbed an event: detect
    /// establishment, deliver framed messages, detect closure, flush both
    /// sides, pump client actions.
    fn after_endpoint_event(&mut self, conn: PConnKey, side: bool, now: SimTime) {
        // Keep the AM filters' measurement windows tracking the live RTT.
        if let Some(c) = self.conns[conn].as_mut() {
            if let (Some(f), Some(rtt)) = (c.a_filter.as_mut(), c.a.srtt()) {
                f.set_window(rtt);
            }
            if let (Some(f), Some(rtt)) = (c.b_filter.as_mut(), c.b.srtt()) {
                f.set_window(rtt);
            }
        }
        self.check_established(conn, now);
        self.deliver_frames(conn, side, now);
        self.check_closed(conn, now);
        self.flush(conn, true);
        self.flush(conn, false);
        self.pump_actions(now);
    }

    fn check_established(&mut self, conn: PConnKey, now: SimTime) {
        let report_a = self.conns[conn]
            .as_ref()
            .map(|c| c.a_up && c.a.is_established() && c.a_key.is_some())
            .unwrap_or(false);
        if report_a {
            let (a_node, key, b_addr) = {
                let c = self.conns[conn].as_mut().expect("checked");
                c.a_up = false;
                (
                    c.a_node,
                    c.a_key.expect("checked"),
                    self.nodes[c.b_node].addr,
                )
            };
            self.ckeys.insert((a_node, key), conn);
            if let Some(client) = self.nodes[a_node].client.as_mut() {
                client.on_connected(key, b_addr, now);
            }
        }
        let report_b = self.conns[conn]
            .as_ref()
            .map(|c| c.b_up && c.b.is_established())
            .unwrap_or(false);
        if report_b {
            let (b_node, a_addr) = {
                let c = self.conns[conn].as_mut().expect("checked");
                c.b_up = false;
                (c.b_node, self.nodes[c.a_node].addr)
            };
            if self.nodes[b_node].client.is_some() {
                let key = self.nodes[b_node]
                    .client
                    .as_mut()
                    .expect("checked")
                    .on_incoming(a_addr, now);
                if let Some(c) = self.conns[conn].as_mut() {
                    c.b_key = Some(key);
                }
                self.ckeys.insert((b_node, key), conn);
            }
        }
    }

    /// Pops framed messages whose bytes have fully arrived.
    fn deliver_frames(&mut self, conn: PConnKey, _side: bool, now: SimTime) {
        for to_a in [true, false] {
            loop {
                let popped = {
                    let Some(c) = self.conns[conn].as_mut() else {
                        return;
                    };
                    let (ep_delivered, queue) = if to_a {
                        (c.a.delivered_total(), &mut c.b2a)
                    } else {
                        (c.b.delivered_total(), &mut c.a2b)
                    };
                    match queue.front() {
                        Some((_, end)) if *end <= ep_delivered => {
                            let (msg, _) = queue.pop_front().expect("front exists");
                            let (node, key) = if to_a {
                                (c.a_node, c.a_key)
                            } else {
                                (c.b_node, c.b_key)
                            };
                            let src = if to_a { c.b_node } else { c.a_node };
                            Some((node, key, src, msg))
                        }
                        _ => None,
                    }
                };
                let Some((node, key, src, msg)) = popped else {
                    break;
                };
                if let Message::Piece(b) = &msg {
                    self.nodes[node].delivered_down += b.len as u64;
                    self.nodes[src].delivered_up += b.len as u64;
                }
                if let (Some(k), Some(client)) = (key, self.nodes[node].client.as_mut()) {
                    client.on_message(k, msg, now);
                }
            }
        }
    }

    fn check_closed(&mut self, conn: PConnKey, now: SimTime) {
        let closed = self.conns[conn]
            .as_ref()
            .map(|c| !c.closed && (c.a.is_closed() || c.b.is_closed()))
            .unwrap_or(false);
        if closed {
            self.teardown_conn(conn, now);
        }
    }

    fn sync_timer(&mut self, conn: PConnKey, a_side: bool) {
        let Some(c) = self.conns[conn].as_mut() else {
            return;
        };
        let want = c.side(a_side).next_timer_at();
        let slot = if a_side {
            &mut c.a_timer
        } else {
            &mut c.b_timer
        };
        match (*slot, want) {
            (Some((t, _)), Some(w)) if t == w => {}
            (prev, want) => {
                let tok_ev = want.map(|w| (w, PEv::Timer { conn, a_side }));
                if let Some((_, tok)) = prev {
                    self.sim.cancel(tok);
                }
                *slot = tok_ev.map(|(w, ev)| (w, self.sim.schedule_at(w, ev)));
            }
        }
    }

    // ------------------------------------------------------------------
    // Client action pump
    // ------------------------------------------------------------------

    fn pump_actions(&mut self, now: SimTime) {
        if !self.clients_started {
            return;
        }
        loop {
            let mut progressed = false;
            for n in 0..self.nodes.len() {
                while let Some(action) = self.nodes[n].client.as_mut().and_then(|c| c.poll_action())
                {
                    progressed = true;
                    self.handle_action(n, action, now);
                }
            }
            if !progressed {
                break;
            }
        }
    }

    fn handle_action(&mut self, node: PNodeKey, action: Action, now: SimTime) {
        match action {
            Action::Connect { conn: key, addr } => {
                let target = self
                    .book
                    .node_at(addr)
                    .map(|n| n.0 as usize)
                    .filter(|&t| self.nodes[t].client.is_some());
                let Some(target) = target else {
                    if let Some(client) = self.nodes[node].client.as_mut() {
                        client.on_conn_failed(addr, now);
                    }
                    return;
                };
                let cid = self.open_tcp(node, target);
                if let Some(c) = self.conns[cid].as_mut() {
                    c.a_key = Some(key);
                }
                // Establishment is reported when the handshake completes.
            }
            Action::Send { conn: key, msg } => {
                let Some(&cid) = self.ckeys.get(&(node, key)) else {
                    return;
                };
                let a_side = {
                    let Some(c) = self.conns[cid].as_mut() else {
                        return;
                    };
                    let a_side = c.a_node == node && c.a_key == Some(key);
                    let len = msg.wire_len() as u64;
                    if a_side {
                        c.a_written += len;
                        let end = c.a_written;
                        c.a2b.push_back((msg, end));
                        c.a.write(len);
                    } else {
                        c.b_written += len;
                        let end = c.b_written;
                        c.b2a.push_back((msg, end));
                        c.b.write(len);
                    }
                    a_side
                };
                self.flush(cid, a_side);
            }
            Action::Close { conn: key } => {
                if let Some(&cid) = self.ckeys.get(&(node, key)) {
                    self.teardown_conn(cid, now);
                }
            }
            Action::Announce { event } => {
                // One tracker, reachable unless a fault holds it down.
                let PNode {
                    client,
                    addr,
                    announcer,
                    ..
                } = &mut self.nodes[node];
                let Some(client) = client else {
                    return;
                };
                let (tracker, down) = (&mut self.tracker, self.oversight.tracker_down);
                let streams = (800 + node as u64, 810 + node as u64);
                announcer.announce(client, *addr, event, now, &self.rng, streams, |req, rng| {
                    (!down).then(|| tracker.announce(req, now, rng))
                });
            }
            Action::PieceCompleted { .. } | Action::Completed => {}
        }
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Serializes the complete world state to a versioned blob: the
    /// simulator (clock, queue, timer tokens), every node (wireless
    /// channel, AM config, client session), every live connection (both
    /// TCP endpoints, AM filters, framed message queues), tracker,
    /// address book, RNG, fault state, the invariant checker's history
    /// (empty unless the world was ever armed), and — when metrics are
    /// enabled — the registry by name.
    ///
    /// `PacketConfig` is deliberately excluded: [`PacketWorld::restore`]
    /// requires a world rebuilt by the same builder calls (`new` →
    /// `set_metrics` → `add_node` / `set_am` / `add_client` /
    /// `start_clients`) as the saved one.
    pub fn save(&self) -> Vec<u8> {
        let mut w = SnapWriter::new(PACKET_WORLD_TAG);
        w.section("packet_world");
        self.sim.snap(&mut w);
        w.section("pnodes");
        w.put_usize(self.nodes.len());
        for node in &self.nodes {
            node.save(&mut w);
        }
        w.section("pconns");
        self.save_fields(&mut w);
        self.oversight.save_tail(w, &self.metrics)
    }

    /// Restores state captured by [`PacketWorld::save`] into this world.
    ///
    /// `self` must be a world rebuilt by the same builder calls as the
    /// saved one (same nodes, channels, clients, and metrics
    /// enablement). Client sessions are overlaid in place — their
    /// configuration is code, not state — and endpoint/AM instruments
    /// are re-wired into the metrics registry by connection key.
    ///
    /// # Panics
    ///
    /// Panics if the blob is malformed, from a different world kind, or
    /// shaped for a differently-built world.
    pub fn restore(&mut self, blob: &[u8]) {
        let mut r = SnapReader::new(blob, PACKET_WORLD_TAG);
        r.section("packet_world");
        self.sim = Snap::unsnap(&mut r);
        r.section("pnodes");
        let n = r.get_usize();
        assert_eq!(n, self.nodes.len(), "snapshot node count mismatch");
        for i in 0..n {
            self.nodes[i].restore(i, &mut r);
        }
        r.section("pconns");
        self.restore_fields(&mut r);
        if self.metrics.is_enabled() {
            // Unsnapped endpoints and AM filters come back detached;
            // re-wire them under the same per-connection names so the
            // by-name value restore below lands in live instruments.
            let metrics = self.metrics.clone();
            for (k, conn) in self.conns.iter_mut().enumerate() {
                let Some(c) = conn.as_mut() else { continue };
                c.a.attach_metrics(&metrics, &format!("conn{k}.a"));
                c.b.attach_metrics(&metrics, &format!("conn{k}.b"));
                if let Some(f) = c.a_filter.as_mut() {
                    f.attach_metrics(&metrics, &format!("conn{k}.a"));
                }
                if let Some(f) = c.b_filter.as_mut() {
                    f.attach_metrics(&metrics, &format!("conn{k}.b"));
                }
            }
        }
        self.oversight.restore_tail(&mut r, &self.metrics);
    }

    snap_in_place!(fn save_fields / restore_fields {
        conns,
        node_conns,
        ckeys,
        tracker,
        book,
        rng,
        next_iss,
        clients_started,
        blackholed,
        crashed,
        ber_baseline,
        bw_baseline,
        oversight.tracker_down,
    });

    /// Runs until `deadline`; `on_event` is invoked after every processed
    /// event (for experiment sampling).
    pub fn run_until(&mut self, deadline: SimTime, mut on_event: impl FnMut(&mut PacketWorld)) {
        while let Some(t) = self.sim.peek_time() {
            if t > deadline {
                break;
            }
            let (now, ev) = self.sim.next_event().expect("peeked");
            match ev {
                PEv::Hop { conn, to_a, seg } => self.on_hop(conn, to_a, seg, now),
                PEv::Deliver { conn, to_a, seg } => self.on_deliver(conn, to_a, seg, now),
                PEv::Timer { conn, a_side } => self.on_timer(conn, a_side, now),
                PEv::ClientTick => {
                    for n in 0..self.nodes.len() {
                        if self.crashed.contains(&n) {
                            continue; // fault: a crashed peer's client is frozen
                        }
                        if let Some(c) = self.nodes[n].client.as_mut() {
                            c.on_tick(now);
                        }
                    }
                    self.pump_actions(now);
                    self.sim.schedule_in(CLIENT_TICK, PEv::ClientTick);
                }
            }
            Oversight::poll(self, now, |w| &mut w.oversight);
            on_event(self);
            if self.oversight.armed {
                let mut ck = std::mem::take(&mut self.oversight.checker);
                ck.check_packet(self);
                self.oversight.checker = ck;
            }
        }
    }
}

/// Fault injection into the packet world.
///
/// Approximations where the model has no literal equivalent:
///
/// * **Loss bursts** and **bandwidth squeezes** act on the node's
///   wireless channel and are no-ops for purely wired nodes.
/// * **Black-holes** silently drop every frame from/to the node; TCP
///   state on both sides freezes and recovers via retransmission.
/// * **Address churn** reassigns the node's address and aborts its
///   connections, as a mobile IP change would.
/// * **Crash** freezes the node (frames vanish, client ticks skipped)
///   rather than destroying the client: sessions cannot be rebuilt at
///   this layer, and a frozen peer exercises the same timeout paths.
impl FaultHooks for PacketWorld {
    fn begin_loss_burst(&mut self, node: NodeId, ber: f64) {
        let n = node.0 as usize;
        let Some(ch) = self.nodes.get_mut(n).and_then(|nd| nd.channel.as_mut()) else {
            return;
        };
        self.ber_baseline.entry(n).or_insert(ch.config().ber);
        ch.set_ber(ber);
        self.fault_note(format!("fault loss-burst on node {n} ber={ber:e}"));
    }

    fn end_loss_burst(&mut self, node: NodeId) {
        let n = node.0 as usize;
        if let Some(base) = self.ber_baseline.remove(&n) {
            if let Some(ch) = self.nodes[n].channel.as_mut() {
                ch.set_ber(base);
            }
            self.fault_note(format!("fault loss-burst off node {n}"));
        }
    }

    fn begin_blackhole(&mut self, node: NodeId) {
        let n = node.0 as usize;
        if n < self.nodes.len() {
            self.blackholed.insert(n);
            self.fault_note(format!("fault blackhole on node {n}"));
        }
    }

    fn end_blackhole(&mut self, node: NodeId) {
        let n = node.0 as usize;
        if self.blackholed.remove(&n) {
            self.fault_note(format!("fault blackhole off node {n}"));
        }
    }

    fn churn_address(&mut self, node: NodeId) {
        let n = node.0 as usize;
        if n >= self.nodes.len() {
            return;
        }
        let now = self.sim.now();
        let addr = self.book.reassign(NodeId(n as u32));
        self.nodes[n].addr = addr;
        if let Some(c) = self.nodes[n].client.as_mut() {
            c.set_own_addr(addr);
        }
        let touched: Vec<PConnKey> = self.node_conns[n].iter().copied().collect();
        for conn in touched {
            self.teardown_conn(conn, now);
        }
        self.fault_note(format!("fault churn node {n} -> {addr:?}"));
        self.pump_actions(now);
    }

    fn begin_tracker_outage(&mut self) {
        self.oversight.tracker_down = true;
        self.fault_note("fault tracker outage".to_string());
    }

    fn end_tracker_outage(&mut self) {
        self.oversight.tracker_down = false;
        self.fault_note("fault tracker back".to_string());
    }

    fn begin_bandwidth_squeeze(&mut self, node: NodeId, factor: f64) {
        let n = node.0 as usize;
        let Some(ch) = self.nodes.get_mut(n).and_then(|nd| nd.channel.as_mut()) else {
            return;
        };
        let base = *self
            .bw_baseline
            .entry(n)
            .or_insert(ch.config().bandwidth_bps);
        let squeezed = ((base as f64 * factor.clamp(0.001, 1.0)) as u64).max(1);
        ch.set_bandwidth(squeezed);
        self.fault_note(format!("fault squeeze on node {n} x{factor}"));
    }

    fn end_bandwidth_squeeze(&mut self, node: NodeId) {
        let n = node.0 as usize;
        if let Some(base) = self.bw_baseline.remove(&n) {
            if let Some(ch) = self.nodes[n].channel.as_mut() {
                ch.set_bandwidth(base);
            }
            self.fault_note(format!("fault squeeze off node {n}"));
        }
    }

    fn crash_peer(&mut self, node: NodeId) {
        let n = node.0 as usize;
        if n < self.nodes.len() {
            self.crashed.insert(n);
            self.fault_note(format!("fault crash node {n}"));
        }
    }

    fn restart_peer(&mut self, node: NodeId) {
        let n = node.0 as usize;
        if self.crashed.remove(&n) {
            self.fault_note(format!("fault restart node {n}"));
        }
    }
}

// ----------------------------------------------------------------------
// Snapshot plumbing.
// ----------------------------------------------------------------------

/// World-kind tag of packet-world snapshot blobs.
pub const PACKET_WORLD_TAG: u32 = 2;

use simnet::snapshot::{snap_enum, snap_in_place, snap_struct, Snap, SnapReader, SnapWriter};

impl PNode {
    fn save(&self, w: &mut SnapWriter) {
        self.save_head(w);
        w.put_bool(self.client.is_some());
        if let Some(c) = &self.client {
            c.save_state(w);
        }
        self.save_tail(w);
    }

    /// Overlays serialized node state. The client session — whose
    /// configuration is code the blob cannot carry — is overlaid onto
    /// the rebuilt world's client object in place, keeping its attached
    /// metrics instruments.
    fn restore(&mut self, n: PNodeKey, r: &mut SnapReader<'_>) {
        self.restore_head(r);
        if r.get_bool() {
            let client = self
                .client
                .as_mut()
                .unwrap_or_else(|| panic!("snapshot: node {n} carries a client but the rebuilt world attached none"));
            client.restore_state(r);
        } else {
            // The saved run had stopped this client (e.g. the seed left).
            self.client = None;
        }
        self.restore_tail(r);
    }

    snap_in_place!(fn save_head / restore_head {
        channel,
        am,
        addr,
    });

    snap_in_place!(fn save_tail / restore_tail {
        delivered_down,
        delivered_up,
        announcer,
    });
}

snap_struct!(PConn {
    a_node,
    b_node,
    a,
    b,
    a_filter,
    b_filter,
    a_timer,
    b_timer,
    a_key,
    b_key,
    a2b,
    b2a,
    a_written,
    b_written,
    a_up,
    b_up,
    closed,
});

snap_enum!(PEv {
    0 => Hop { conn, to_a, seg },
    1 => Deliver { conn, to_a, seg },
    2 => Timer { conn, a_side },
    3 => ClientTick,
});
