//! The sans-IO TCP endpoint.
//!
//! An [`Endpoint`] is one side of a full-duplex TCP connection, driven
//! entirely by the embedder:
//!
//! * feed it wire input with [`Endpoint::on_segment`],
//! * feed it time with [`Endpoint::on_timer`] (when
//!   [`Endpoint::next_timer_at`] expires),
//! * queue application bytes with [`Endpoint::write`],
//! * drain outgoing segments with [`Endpoint::poll_segment`] and delivered
//!   bytes with [`Endpoint::take_delivered`].
//!
//! The behaviours this paper's experiments rely on are implemented
//! faithfully:
//!
//! * **ACK piggybacking** — every data segment carries the current
//!   cumulative ACK (all segments except the initial SYN have the ACK bit
//!   set), so on a bidirectional connection almost all ACKs ride on data
//!   and inherit its (length-dependent) loss probability.
//! * **Pure DUPACKs** — duplicate ACKs are never piggybacked: an
//!   out-of-order arrival immediately emits a payload-less segment, exactly
//!   the stipulation the paper's §3.2 discusses.
//! * **Reno loss recovery** — three DUPACKs trigger fast retransmit and
//!   fast recovery; silence triggers an exponentially backed-off RTO.

use crate::cc::{AckProgress, Congestion, DupAckAction};
use crate::reasm::Reassembly;
use crate::rtt::RttEstimator;
use crate::segment::{SegFlags, Segment};
use crate::seq::SeqNum;
use metrics::handle::MetricsHandle;
use metrics::recorder::Series;
use metrics::registry::Counter;
use simnet::time::{SimDuration, SimTime};

/// Static endpoint parameters.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Maximum segment (payload) size in bytes.
    pub mss: u32,
    /// Initial congestion window, in segments.
    pub init_cwnd_segs: u32,
    /// Receive window advertised to the peer, in bytes.
    pub recv_window: u32,
    /// RFC 1122 delayed ACKs: acknowledge at most every second full
    /// segment, or when the (simplified, poll-driven) delay expires.
    /// Paper-era Linux enables this; it *increases* the information
    /// carried per ACK, and therefore the cost of losing one.
    pub delayed_ack: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            init_cwnd_segs: 2,
            recv_window: 128 * 1024,
            delayed_ack: false,
        }
    }
}

/// Connection lifecycle state (simplified TCP state machine).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Passive open: waiting for a SYN.
    Listen,
    /// Active open: SYN sent.
    SynSent,
    /// SYN received, SYN-ACK sent.
    SynRcvd,
    /// Data may flow.
    Established,
    /// We sent a FIN and await its acknowledgement.
    FinWait,
    /// Peer sent a FIN; we may still send.
    CloseWait,
    /// Both FINs exchanged; we are done.
    Closing,
}

/// Counters describing one endpoint's lifetime behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Data segments transmitted (including retransmissions).
    pub data_segments_sent: u64,
    /// Pure (payload-less) ACKs transmitted, duplicates included.
    pub pure_acks_sent: u64,
    /// Data segments carrying a piggybacked ACK (all of them, per spec).
    pub piggybacked_acks_sent: u64,
    /// Duplicate ACKs transmitted (always pure).
    pub dupacks_sent: u64,
    /// Retransmitted data segments.
    pub retransmissions: u64,
    /// Bytes of payload acknowledged by the peer.
    pub bytes_acked: u64,
    /// Segments received (any kind).
    pub segments_received: u64,
}

/// One side of a simulated TCP connection. See the module docs.
#[derive(Debug, Clone)]
pub struct Endpoint {
    config: TcpConfig,
    state: TcpState,

    // --- send side ---
    iss: SeqNum,
    snd_una: SeqNum,
    snd_nxt: SeqNum,
    /// Application bytes queued beyond `snd_nxt`.
    snd_buffered: u64,
    /// Total application bytes ever queued with [`Endpoint::write`].
    written_total: u64,
    cc: Congestion,
    rtt: RttEstimator,
    peer_window: u32,
    /// Outstanding RTT probe: (sequence that must be acked, send time).
    rtt_probe: Option<(SeqNum, SimTime)>,
    /// Deadline of the retransmission timer, if armed.
    rtx_deadline: Option<SimTime>,
    /// A fast-retransmit of `snd_una` is due.
    retransmit_pending: bool,
    fin_queued: bool,
    /// Sequence number consumed by our FIN once sent.
    fin_seq: Option<SeqNum>,
    /// The initial SYN has been emitted at least once.
    syn_emitted: bool,
    /// A handshake segment (SYN or SYN-ACK) must be re-emitted after a
    /// timeout.
    handshake_rtx: bool,

    // --- receive side ---
    reasm: Option<Reassembly>,
    /// A cumulative ACK should be sent.
    ack_pending: bool,
    /// Pure duplicate ACKs owed to the peer.
    dupacks_pending: u32,
    /// Delayed-ACK state: in-order segments received since the last ACK
    /// we sent, and the latest time by which one must go out.
    unacked_segments: u32,
    ack_deadline: Option<SimTime>,
    fin_received: bool,
    /// In-order bytes delivered but not yet taken by the application.
    delivered_unread: u64,
    eof_signalled: bool,

    stats: TcpStats,
    metrics: EndpointMetrics,
}

/// Instruments wired up by [`Endpoint::attach_metrics`]. All default to
/// disabled no-ops; a cloned endpoint shares them with its original.
#[derive(Debug, Clone, Default)]
struct EndpointMetrics {
    cwnd: Series,
    ssthresh: Series,
    srtt: Series,
    retransmits: Counter,
    timeouts: Counter,
    dupacks_sent: Counter,
}

impl Endpoint {
    /// Creates a closed endpoint with the given initial sequence number.
    pub fn new(config: TcpConfig, iss: SeqNum) -> Self {
        Endpoint {
            config,
            state: TcpState::Closed,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_buffered: 0,
            written_total: 0,
            cc: Congestion::new(config.mss, config.init_cwnd_segs),
            rtt: RttEstimator::linux_like(),
            peer_window: config.recv_window,
            rtt_probe: None,
            rtx_deadline: None,
            retransmit_pending: false,
            fin_queued: false,
            fin_seq: None,
            syn_emitted: false,
            handshake_rtx: false,
            reasm: None,
            ack_pending: false,
            dupacks_pending: 0,
            unacked_segments: 0,
            ack_deadline: None,
            fin_received: false,
            delivered_unread: 0,
            eof_signalled: false,
            stats: TcpStats::default(),
            metrics: EndpointMetrics::default(),
        }
    }

    /// Wires this endpoint's congestion/RTT observables into `handle`
    /// under `tcp.<label>.*`: `cwnd`, `ssthresh`, and `srtt_us` series
    /// (recorded on ACK progress), plus `retransmits`, `timeouts`, and
    /// `dupacks_sent` counters. A disabled handle attaches inert
    /// instruments, so this is always safe to call.
    pub fn attach_metrics(&mut self, handle: &MetricsHandle, label: &str) {
        self.metrics = EndpointMetrics {
            cwnd: handle.series(&format!("tcp.{label}.cwnd")),
            ssthresh: handle.series(&format!("tcp.{label}.ssthresh")),
            srtt: handle.series(&format!("tcp.{label}.srtt_us")),
            retransmits: handle.counter(&format!("tcp.{label}.retransmits")),
            timeouts: handle.counter(&format!("tcp.{label}.timeouts")),
            dupacks_sent: handle.counter(&format!("tcp.{label}.dupacks_sent")),
        };
    }

    /// Begins an active open: a SYN will be produced by `poll_segment`.
    ///
    /// # Panics
    ///
    /// Panics unless the endpoint is `Closed`.
    pub fn connect(&mut self, now: SimTime) {
        assert_eq!(self.state, TcpState::Closed, "connect() on open endpoint");
        self.state = TcpState::SynSent;
        self.snd_nxt = self.iss.add(1); // SYN occupies one sequence number
        self.arm_rtx(now);
    }

    /// Begins a passive open: the endpoint waits for a SYN.
    ///
    /// # Panics
    ///
    /// Panics unless the endpoint is `Closed`.
    pub fn listen(&mut self) {
        assert_eq!(self.state, TcpState::Closed, "listen() on open endpoint");
        self.state = TcpState::Listen;
    }

    /// Current lifecycle state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// True once the three-way handshake has completed.
    pub fn is_established(&self) -> bool {
        matches!(
            self.state,
            TcpState::Established | TcpState::FinWait | TcpState::CloseWait
        )
    }

    /// True once the connection is fully closed or aborted.
    pub fn is_closed(&self) -> bool {
        matches!(self.state, TcpState::Closed | TcpState::Closing)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> TcpStats {
        self.stats
    }

    /// The congestion-control state (read-only view).
    pub fn congestion(&self) -> &Congestion {
        &self.cc
    }

    /// Smoothed RTT estimate, if measured.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rtt.srtt()
    }

    /// Unacknowledged bytes in flight.
    pub fn flight_size(&self) -> u32 {
        self.snd_una.distance_to(self.snd_nxt)
    }

    /// Application bytes queued but not yet transmitted.
    pub fn send_backlog(&self) -> u64 {
        self.snd_buffered
    }

    /// Queues `bytes` of application data for transmission.
    pub fn write(&mut self, bytes: u64) {
        debug_assert!(!self.fin_queued, "write after close");
        self.snd_buffered += bytes;
        self.written_total += bytes;
    }

    /// Total application bytes ever queued with [`Endpoint::write`].
    pub fn written_total(&self) -> u64 {
        self.written_total
    }

    /// Half-closes: a FIN will follow the queued data.
    pub fn close(&mut self) {
        self.fin_queued = true;
    }

    /// Aborts the connection locally. The next `poll_segment` yields a RST
    /// if the connection was open.
    pub fn abort(&mut self) -> Option<Segment> {
        let rst = if self.state != TcpState::Closed && self.state != TcpState::Listen {
            Some(Segment {
                seq: self.snd_nxt,
                ack: self.rcv_nxt().unwrap_or(SeqNum::ZERO),
                flags: SegFlags {
                    rst: true,
                    ack: true,
                    ..Default::default()
                },
                payload: 0,
                window: 0,
            })
        } else {
            None
        };
        self.state = TcpState::Closed;
        self.rtx_deadline = None;
        rst
    }

    /// Takes the bytes delivered in order since the last call.
    pub fn take_delivered(&mut self) -> u64 {
        std::mem::take(&mut self.delivered_unread)
    }

    /// Total in-order bytes ever delivered.
    pub fn delivered_total(&self) -> u64 {
        self.reasm.as_ref().map_or(0, |r| r.delivered_total())
    }

    /// Returns `true` exactly once, after the peer's FIN has been delivered
    /// in order.
    pub fn take_eof(&mut self) -> bool {
        if self.fin_received && !self.eof_signalled {
            self.eof_signalled = true;
            true
        } else {
            false
        }
    }

    /// Next expected sequence number from the peer (what we ACK).
    pub fn rcv_nxt(&self) -> Option<SeqNum> {
        self.reasm.as_ref().map(|r| r.rcv_nxt())
    }

    /// Deadline of the earliest pending timer (retransmission or delayed
    /// ACK), if armed. The embedder calls [`Endpoint::on_timer`] when
    /// virtual time reaches it.
    pub fn next_timer_at(&self) -> Option<SimTime> {
        match (self.rtx_deadline, self.ack_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn arm_rtx(&mut self, now: SimTime) {
        self.rtx_deadline = Some(now + self.rtt.rto());
    }

    fn maybe_disarm_rtx(&mut self) {
        let fin_unacked = match self.fin_seq {
            Some(f) => self.snd_una.before_eq(f),
            None => false,
        };
        if self.snd_una == self.snd_nxt && !fin_unacked && self.state != TcpState::SynSent {
            self.rtx_deadline = None;
        }
    }

    /// Effective send window: min(cwnd, peer receive window).
    fn send_window(&self) -> u32 {
        self.cc.cwnd().min(self.peer_window)
    }

    /// Handles timers firing at `now` (retransmission and delayed ACK).
    pub fn on_timer(&mut self, now: SimTime) {
        if let Some(d) = self.ack_deadline {
            if now >= d {
                self.ack_deadline = None;
                self.unacked_segments = 0;
                self.ack_pending = true;
            }
        }
        let Some(deadline) = self.rtx_deadline else {
            return;
        };
        if now < deadline {
            return;
        }
        self.rtx_deadline = None;
        match self.state {
            TcpState::SynSent | TcpState::SynRcvd => {
                // Handshake segment lost: re-arm; poll re-emits it because
                // handshake segments are regenerated from state.
                self.rtt.on_timeout();
                self.handshake_rtx = true;
                self.arm_rtx(now);
            }
            TcpState::Established | TcpState::FinWait | TcpState::CloseWait
                if (self.flight_size() > 0 || self.fin_unacked()) =>
            {
                self.rtt.on_timeout();
                self.cc.on_timeout(self.flight_size());
                self.retransmit_pending = true;
                self.rtt_probe = None; // Karn: invalidate the sample
                self.arm_rtx(now);
                self.metrics.timeouts.inc();
            }
            _ => {}
        }
    }

    fn fin_unacked(&self) -> bool {
        match self.fin_seq {
            Some(f) => self.snd_una.before_eq(f),
            None => false,
        }
    }

    /// Processes an incoming segment at `now`.
    pub fn on_segment(&mut self, seg: Segment, now: SimTime) {
        self.stats.segments_received += 1;
        if seg.flags.rst {
            self.state = TcpState::Closed;
            self.rtx_deadline = None;
            return;
        }
        match self.state {
            TcpState::Closed => {}
            TcpState::Listen => {
                if seg.flags.syn {
                    self.reasm = Some(Reassembly::new(seg.seq.add(1)));
                    self.state = TcpState::SynRcvd;
                    self.snd_nxt = self.iss.add(1);
                    self.peer_window = seg.window;
                    self.ack_pending = true; // SYN-ACK emitted from state
                    self.arm_rtx(now);
                }
            }
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == self.iss.add(1) {
                    self.snd_una = seg.ack;
                    self.reasm = Some(Reassembly::new(seg.seq.add(1)));
                    self.state = TcpState::Established;
                    self.peer_window = seg.window;
                    self.ack_pending = true;
                    self.rtx_deadline = None;
                }
            }
            _ => {
                if seg.flags.syn {
                    // Duplicate SYN in SynRcvd: re-ack it.
                    self.ack_pending = true;
                    return;
                }
                self.process_ack(&seg, now);
                self.process_data(&seg, now);
                if self.state == TcpState::SynRcvd && self.snd_una == self.iss.add(1) {
                    self.state = TcpState::Established;
                }
            }
        }
    }

    fn process_ack(&mut self, seg: &Segment, now: SimTime) {
        if !seg.flags.ack {
            return;
        }
        self.peer_window = seg.window;
        if seg.ack.after(self.snd_una) && seg.ack.before_eq(self.snd_nxt) {
            let acked = self.snd_una.distance_to(seg.ack);
            self.snd_una = seg.ack;
            self.stats.bytes_acked += acked as u64;
            if let Some((probe_seq, sent_at)) = self.rtt_probe {
                if seg.ack.after_eq(probe_seq) {
                    self.rtt.sample(now.saturating_since(sent_at));
                    self.rtt_probe = None;
                    if let Some(srtt) = self.rtt.srtt() {
                        self.metrics.srtt.record(now, srtt.as_micros() as f64);
                    }
                }
            }
            self.rtt.on_progress();
            if self.cc.on_new_ack(acked, self.snd_una) == AckProgress::PartialAck {
                // NewReno: the head of the remaining window was lost too.
                self.retransmit_pending = true;
                self.rtt_probe = None; // Karn
            }
            self.metrics.cwnd.record(now, self.cc.cwnd() as f64);
            self.metrics.ssthresh.record(now, self.cc.ssthresh() as f64);
            // Restart the timer for remaining flight; disarm when idle.
            if self.flight_size() > 0 || self.fin_unacked() {
                self.arm_rtx(now);
            } else {
                self.maybe_disarm_rtx();
            }
            if self.state == TcpState::FinWait && !self.fin_unacked() && self.fin_received {
                self.state = TcpState::Closing;
            }
        } else if seg.ack == self.snd_una
            && self.flight_size() > 0
            && seg.payload == 0
            && !seg.flags.fin
        {
            // A *pure* same-ACK segment is a duplicate ACK. A data segment
            // repeating the ACK number is NOT (the peer may simply have had
            // nothing new to acknowledge) — exactly why the spec forbids
            // piggybacking DUPACKs.
            match self.cc.on_dup_ack(self.flight_size(), self.snd_nxt) {
                DupAckAction::FastRetransmit => {
                    self.retransmit_pending = true;
                    self.rtt_probe = None; // Karn
                }
                DupAckAction::Inflate | DupAckAction::None => {}
            }
        }
    }

    fn process_data(&mut self, seg: &Segment, now: SimTime) {
        if self.reasm.is_none() {
            return;
        }
        if seg.payload > 0 {
            let outcome = self
                .reasm
                .as_mut()
                .expect("checked above")
                .on_data(seg.seq, seg.payload);
            if outcome.delivered > 0 {
                self.delivered_unread += outcome.delivered;
                if self.config.delayed_ack {
                    // RFC 1122: ACK at least every second segment; never
                    // delay longer than the ACK timer (200 ms here).
                    self.unacked_segments += 1;
                    if self.unacked_segments >= 2 {
                        self.unacked_segments = 0;
                        self.ack_deadline = None;
                        self.ack_pending = true;
                    } else if self.ack_deadline.is_none() {
                        self.ack_deadline = Some(now + SimDuration::from_millis(200));
                    }
                } else {
                    self.ack_pending = true;
                }
            }
            if outcome.out_of_order {
                // Immediate pure DUPACK per RFC 5681. Any delayed ACK is
                // superseded.
                self.ack_deadline = None;
                self.unacked_segments = 0;
                self.dupacks_pending += 1;
            }
        }
        if seg.flags.fin {
            let fin_seq = seg.seq.add(seg.payload);
            let reasm = self.reasm.as_mut().expect("reasm exists");
            if fin_seq == reasm.rcv_nxt() && !self.fin_received {
                // FIN is in order: consume its sequence number.
                reasm.on_fin();
                self.fin_received = true;
                self.ack_pending = true;
                self.state = match self.state {
                    TcpState::FinWait if !self.fin_unacked() => TcpState::Closing,
                    TcpState::FinWait => TcpState::FinWait,
                    _ => TcpState::CloseWait,
                };
            } else if !self.fin_received {
                // FIN beyond a hole: dupack.
                self.dupacks_pending += 1;
            }
        }
    }

    /// Produces the next segment to transmit, if any. Call repeatedly until
    /// `None` after every input event.
    pub fn poll_segment(&mut self, now: SimTime) -> Option<Segment> {
        match self.state {
            TcpState::Closed | TcpState::Listen => None,
            TcpState::SynSent => {
                if self.take_handshake_rtx() || !self.syn_emitted {
                    self.syn_emitted = true;
                    Some(Segment {
                        seq: self.iss,
                        ack: SeqNum::ZERO,
                        flags: SegFlags {
                            syn: true,
                            ..Default::default()
                        },
                        payload: 0,
                        window: self.config.recv_window,
                    })
                } else {
                    None
                }
            }
            TcpState::SynRcvd => {
                if self.take_handshake_rtx() || self.ack_pending {
                    self.ack_pending = false;
                    Some(Segment {
                        seq: self.iss,
                        ack: self.rcv_nxt().expect("reasm set in SynRcvd"),
                        flags: SegFlags {
                            syn: true,
                            ack: true,
                            ..Default::default()
                        },
                        payload: 0,
                        window: self.config.recv_window,
                    })
                } else {
                    None
                }
            }
            _ => self.poll_established(now),
        }
    }

    fn take_handshake_rtx(&mut self) -> bool {
        std::mem::take(&mut self.handshake_rtx)
    }

    fn poll_established(&mut self, now: SimTime) -> Option<Segment> {
        let rcv_nxt = self.rcv_nxt().expect("established implies reasm");

        // 1. Duplicate ACKs: always pure, highest priority (they are
        //    generated by arrivals that already happened).
        if self.dupacks_pending > 0 {
            self.dupacks_pending -= 1;
            self.stats.pure_acks_sent += 1;
            self.stats.dupacks_sent += 1;
            self.metrics.dupacks_sent.inc();
            return Some(self.pure_ack(rcv_nxt));
        }

        // 2. Loss recovery retransmission from snd_una.
        if self.retransmit_pending {
            self.retransmit_pending = false;
            let outstanding = self.flight_size();
            if outstanding > 0 {
                let len = outstanding.min(self.config.mss);
                self.stats.data_segments_sent += 1;
                self.stats.retransmissions += 1;
                self.stats.piggybacked_acks_sent += 1;
                self.metrics.retransmits.inc();
                self.ack_pending = false;
                if self.rtx_deadline.is_none() {
                    self.arm_rtx(now);
                }
                return Some(Segment {
                    seq: self.snd_una,
                    ack: rcv_nxt,
                    flags: SegFlags {
                        ack: true,
                        ..Default::default()
                    },
                    payload: len,
                    window: self.config.recv_window,
                });
            }
        }

        // 3. New data inside the window (ACK piggybacks automatically).
        if self.snd_buffered > 0 && self.state != TcpState::FinWait {
            let window = self.send_window();
            let in_flight = self.flight_size();
            if in_flight < window {
                let room = (window - in_flight) as u64;
                let len = room.min(self.snd_buffered).min(self.config.mss as u64) as u32;
                if len > 0 {
                    let seq = self.snd_nxt;
                    self.snd_nxt = self.snd_nxt.add(len);
                    self.snd_buffered -= len as u64;
                    if self.rtt_probe.is_none() {
                        self.rtt_probe = Some((self.snd_nxt, now));
                    }
                    if self.rtx_deadline.is_none() {
                        self.arm_rtx(now);
                    }
                    self.stats.data_segments_sent += 1;
                    self.stats.piggybacked_acks_sent += 1;
                    self.ack_pending = false;
                    self.unacked_segments = 0;
                    self.ack_deadline = None;
                    return Some(Segment {
                        seq,
                        ack: rcv_nxt,
                        flags: SegFlags {
                            ack: true,
                            ..Default::default()
                        },
                        payload: len,
                        window: self.config.recv_window,
                    });
                }
            }
        }

        // 4. FIN once all data is out.
        if self.fin_queued && self.fin_seq.is_none() && self.snd_buffered == 0 {
            let seq = self.snd_nxt;
            self.fin_seq = Some(seq);
            self.snd_nxt = self.snd_nxt.add(1);
            self.state = match self.state {
                TcpState::CloseWait => TcpState::FinWait, // both directions closing
                _ => TcpState::FinWait,
            };
            if self.rtx_deadline.is_none() {
                self.arm_rtx(now);
            }
            self.ack_pending = false;
            return Some(Segment {
                seq,
                ack: rcv_nxt,
                flags: SegFlags {
                    fin: true,
                    ack: true,
                    ..Default::default()
                },
                payload: 0,
                window: self.config.recv_window,
            });
        }

        // 5. Pure cumulative ACK when no data could carry it.
        if self.ack_pending {
            self.ack_pending = false;
            self.unacked_segments = 0;
            self.ack_deadline = None;
            self.stats.pure_acks_sent += 1;
            return Some(self.pure_ack(rcv_nxt));
        }
        None
    }

    fn pure_ack(&self, rcv_nxt: SeqNum) -> Segment {
        Segment {
            seq: self.snd_nxt,
            ack: rcv_nxt,
            flags: SegFlags {
                ack: true,
                ..Default::default()
            },
            payload: 0,
            window: self.config.recv_window,
        }
    }
}

// --- snapshot support -------------------------------------------------
//
// `EndpointMetrics` is deliberately excluded from the blob: instruments
// are shared `Arc` cells owned by the embedder's `MetricsHandle`, and a
// restored endpoint gets them re-wired via `attach_metrics` by whoever
// rebuilt the world. Everything else is value state.

use simnet::snapshot::{snap_enum, snap_struct};

snap_struct!(TcpConfig {
    mss,
    init_cwnd_segs,
    recv_window,
    delayed_ack,
});

snap_enum!(TcpState {
    0 => Closed,
    1 => Listen,
    2 => SynSent,
    3 => SynRcvd,
    4 => Established,
    5 => FinWait,
    6 => CloseWait,
    7 => Closing,
});

snap_struct!(TcpStats {
    data_segments_sent,
    pure_acks_sent,
    piggybacked_acks_sent,
    dupacks_sent,
    retransmissions,
    bytes_acked,
    segments_received,
});

snap_struct!(Endpoint {
    config,
    state,
    iss,
    snd_una,
    snd_nxt,
    snd_buffered,
    written_total,
    cc,
    rtt,
    peer_window,
    rtt_probe,
    rtx_deadline,
    retransmit_pending,
    fin_queued,
    fin_seq,
    syn_emitted,
    handshake_rtx,
    reasm,
    ack_pending,
    dupacks_pending,
    unacked_segments,
    ack_deadline,
    fin_received,
    delivered_unread,
    eof_signalled,
    stats;
    metrics,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(now: SimTime) -> (Endpoint, Endpoint) {
        let mut a = Endpoint::new(TcpConfig::default(), SeqNum(1000));
        let mut b = Endpoint::new(TcpConfig::default(), SeqNum(5000));
        b.listen();
        a.connect(now);
        (a, b)
    }

    /// Exchanges every pending segment until both sides go quiet.
    /// Returns the number of segments that crossed the wire.
    fn pump(a: &mut Endpoint, b: &mut Endpoint, now: SimTime) -> usize {
        let mut crossed = 0;
        loop {
            let mut progress = false;
            while let Some(seg) = a.poll_segment(now) {
                b.on_segment(seg, now);
                crossed += 1;
                progress = true;
            }
            while let Some(seg) = b.poll_segment(now) {
                a.on_segment(seg, now);
                crossed += 1;
                progress = true;
            }
            if !progress {
                return crossed;
            }
        }
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let now = SimTime::ZERO;
        let (mut a, mut b) = pair(now);
        pump(&mut a, &mut b, now);
        assert!(a.is_established());
        assert!(b.is_established());
        assert_eq!(a.state(), TcpState::Established);
        assert_eq!(b.state(), TcpState::Established);
    }

    #[test]
    fn lossless_transfer_delivers_all_bytes() {
        let now = SimTime::ZERO;
        let (mut a, mut b) = pair(now);
        pump(&mut a, &mut b, now);
        a.write(1_000_000);
        // Instant-feedback pump: ACKs return immediately, letting cwnd grow.
        pump(&mut a, &mut b, now);
        assert_eq!(b.take_delivered(), 1_000_000);
        assert_eq!(a.send_backlog(), 0);
        assert_eq!(a.flight_size(), 0);
    }

    #[test]
    fn bidirectional_transfer_piggybacks_acks() {
        let now = SimTime::ZERO;
        let (mut a, mut b) = pair(now);
        pump(&mut a, &mut b, now);
        a.write(500_000);
        b.write(500_000);
        pump(&mut a, &mut b, now);
        assert_eq!(a.take_delivered(), 500_000);
        assert_eq!(b.take_delivered(), 500_000);
        let sa = a.stats();
        // With traffic flowing both ways, piggybacked ACKs dominate.
        assert!(
            sa.piggybacked_acks_sent > sa.pure_acks_sent,
            "piggybacked={} pure={}",
            sa.piggybacked_acks_sent,
            sa.pure_acks_sent
        );
    }

    #[test]
    fn dupacks_are_pure_and_trigger_fast_retransmit() {
        let now = SimTime::ZERO;
        let (mut a, mut b) = pair(now);
        pump(&mut a, &mut b, now);
        // Grow the window first so five segments can be in flight at once.
        a.write(200_000);
        pump(&mut a, &mut b, now);
        b.take_delivered();

        a.write(5 * 1460);
        let mut segs = Vec::new();
        while let Some(s) = a.poll_segment(now) {
            segs.push(s);
        }
        assert!(
            segs.len() >= 4,
            "need >=4 in-flight segments, got {}",
            segs.len()
        );
        // Drop the first; deliver the rest out of order.
        for s in &segs[1..] {
            b.on_segment(*s, now);
        }
        let mut dupacks = 0;
        let mut outs = Vec::new();
        while let Some(s) = b.poll_segment(now) {
            assert!(s.is_pure_ack(), "DUPACK must be pure: {s:?}");
            dupacks += 1;
            outs.push(s);
        }
        assert_eq!(dupacks as usize, segs.len() - 1);
        // Feed the dupacks back: the third triggers fast retransmit.
        for s in outs {
            a.on_segment(s, now);
        }
        let rtx = a.poll_segment(now).expect("fast retransmit due");
        assert_eq!(rtx.seq, segs[0].seq);
        assert!(a.congestion().in_recovery());
        // Deliver the retransmission: receiver acks everything.
        b.on_segment(rtx, now);
        pump(&mut a, &mut b, now);
        assert!(!a.congestion().in_recovery());
        assert_eq!(b.take_delivered(), 5 * 1460);
    }

    #[test]
    fn rto_retransmits_after_silence() {
        let now = SimTime::ZERO;
        let (mut a, mut b) = pair(now);
        pump(&mut a, &mut b, now);
        a.write(1460);
        let seg = a.poll_segment(now).expect("data segment");
        // Lose it. Fire the timer at its deadline.
        let deadline = a.next_timer_at().expect("rtx timer armed");
        a.on_timer(deadline);
        let rtx = a.poll_segment(deadline).expect("RTO retransmission");
        assert_eq!(rtx.seq, seg.seq);
        assert_eq!(a.stats().retransmissions, 1);
        assert_eq!(a.congestion().cwnd(), 1460, "cwnd collapses to 1 MSS");
        // Deliver and complete.
        b.on_segment(rtx, deadline);
        pump(&mut a, &mut b, deadline);
        assert_eq!(b.take_delivered(), 1460);
        assert_eq!(a.next_timer_at(), None, "timer disarmed when idle");
    }

    #[test]
    fn syn_loss_is_recovered_by_handshake_timer() {
        let now = SimTime::ZERO;
        let mut a = Endpoint::new(TcpConfig::default(), SeqNum(0));
        let mut b = Endpoint::new(TcpConfig::default(), SeqNum(0));
        b.listen();
        a.connect(now);
        let _lost_syn = a.poll_segment(now).expect("SYN");
        assert!(a.poll_segment(now).is_none(), "one SYN at a time");
        let deadline = a.next_timer_at().unwrap();
        a.on_timer(deadline);
        let syn2 = a.poll_segment(deadline).expect("SYN retransmission");
        assert!(syn2.flags.syn);
        b.on_segment(syn2, deadline);
        pump(&mut a, &mut b, deadline);
        assert!(a.is_established() && b.is_established());
    }

    #[test]
    fn graceful_close_both_directions() {
        let now = SimTime::ZERO;
        let (mut a, mut b) = pair(now);
        pump(&mut a, &mut b, now);
        a.write(100);
        a.close();
        pump(&mut a, &mut b, now);
        assert_eq!(b.take_delivered(), 100);
        assert!(b.take_eof());
        assert!(!b.take_eof(), "EOF reported once");
        assert_eq!(b.state(), TcpState::CloseWait);
        b.close();
        pump(&mut a, &mut b, now);
        assert!(a.is_closed());
        assert!(b.is_closed());
    }

    #[test]
    fn abort_emits_rst_and_peer_resets() {
        let now = SimTime::ZERO;
        let (mut a, mut b) = pair(now);
        pump(&mut a, &mut b, now);
        let rst = a.abort().expect("RST for open connection");
        assert!(rst.flags.rst);
        b.on_segment(rst, now);
        assert!(b.is_closed());
        assert!(a.is_closed());
        assert_eq!(a.next_timer_at(), None);
    }

    #[test]
    fn window_limits_flight_size() {
        let now = SimTime::ZERO;
        let (mut a, mut b) = pair(now);
        pump(&mut a, &mut b, now);
        a.write(10_000_000);
        let mut burst = 0u32;
        while let Some(seg) = a.poll_segment(now) {
            burst += seg.payload;
        }
        assert!(burst <= a.congestion().cwnd());
        assert!(a.flight_size() <= a.congestion().cwnd());
        // Nothing delivered yet on the other side.
        assert_eq!(b.take_delivered(), 0);
    }

    #[test]
    fn flight_respects_tiny_peer_window() {
        let now = SimTime::ZERO;
        let small = TcpConfig {
            recv_window: 2000, // peer advertises less than 2 MSS
            ..TcpConfig::default()
        };
        let mut a = Endpoint::new(TcpConfig::default(), SeqNum(1));
        let mut b = Endpoint::new(small, SeqNum(500));
        b.listen();
        a.connect(now);
        pump(&mut a, &mut b, now);
        a.write(1_000_000);
        let mut burst = 0u32;
        while let Some(seg) = a.poll_segment(now) {
            burst += seg.payload;
        }
        assert!(
            burst <= 2000,
            "flight {burst} exceeds the peer's 2000-byte window"
        );
    }

    #[test]
    fn bogus_ack_beyond_snd_nxt_is_ignored() {
        let now = SimTime::ZERO;
        let (mut a, mut b) = pair(now);
        pump(&mut a, &mut b, now);
        a.write(1460);
        let _seg = a.poll_segment(now).expect("data out");
        let una_before = a.flight_size();
        // Forge an ACK far beyond anything a sent.
        let forged = Segment {
            seq: SeqNum(0),
            ack: SeqNum(1_000_000_000),
            flags: SegFlags {
                ack: true,
                ..Default::default()
            },
            payload: 0,
            window: 65535,
        };
        a.on_segment(forged, now);
        assert_eq!(a.flight_size(), una_before, "forged ACK must not advance");
        assert!(!a.is_closed());
    }

    #[test]
    fn delayed_ack_coalesces_every_second_segment() {
        let now = SimTime::ZERO;
        let cfg = TcpConfig {
            delayed_ack: true,
            ..TcpConfig::default()
        };
        let mut a = Endpoint::new(cfg, SeqNum(1));
        let mut b = Endpoint::new(cfg, SeqNum(500));
        b.listen();
        a.connect(now);
        pump(&mut a, &mut b, now);
        // One full segment arrives: the ACK is delayed, not sent.
        a.write(1460);
        let s1 = a.poll_segment(now).expect("segment 1");
        b.on_segment(s1, now);
        assert!(b.poll_segment(now).is_none(), "first segment's ACK delayed");
        assert!(b.next_timer_at().is_some(), "delayed-ACK timer armed");
        // Second segment: the coalesced ACK goes out at once.
        a.write(1460);
        let s2 = a.poll_segment(now).expect("segment 2");
        b.on_segment(s2, now);
        let ack = b.poll_segment(now).expect("coalesced ACK");
        a.on_segment(ack, now);
        assert_eq!(a.flight_size(), 0, "both segments acknowledged");
    }

    #[test]
    fn delayed_ack_timer_fires_for_a_lone_segment() {
        let now = SimTime::ZERO;
        let cfg = TcpConfig {
            delayed_ack: true,
            ..TcpConfig::default()
        };
        let mut a = Endpoint::new(cfg, SeqNum(1));
        let mut b = Endpoint::new(cfg, SeqNum(500));
        b.listen();
        a.connect(now);
        pump(&mut a, &mut b, now);
        a.write(1000);
        let s = a.poll_segment(now).expect("segment");
        b.on_segment(s, now);
        assert!(b.poll_segment(now).is_none());
        let deadline = b.next_timer_at().expect("ACK timer");
        assert!(deadline <= now + SimDuration::from_millis(200));
        b.on_timer(deadline);
        let ack = b.poll_segment(deadline).expect("delayed ACK fires");
        assert!(ack.is_pure_ack());
        a.on_segment(ack, deadline);
        assert_eq!(a.flight_size(), 0);
    }

    #[test]
    fn delayed_ack_never_delays_dupacks() {
        let now = SimTime::ZERO;
        let cfg = TcpConfig {
            delayed_ack: true,
            ..TcpConfig::default()
        };
        let mut a = Endpoint::new(cfg, SeqNum(1));
        let mut b = Endpoint::new(cfg, SeqNum(500));
        b.listen();
        a.connect(now);
        pump(&mut a, &mut b, now);
        a.write(3 * 1460);
        let s1 = a.poll_segment(now).unwrap();
        let s2 = a.poll_segment(now).unwrap();
        // Lose s1; deliver s2 out of order.
        let _ = s1;
        b.on_segment(s2, now);
        let dup = b.poll_segment(now).expect("immediate DUPACK");
        assert!(dup.is_pure_ack());
    }

    #[test]
    fn data_segment_with_same_ack_is_not_dupack() {
        let now = SimTime::ZERO;
        let (mut a, mut b) = pair(now);
        pump(&mut a, &mut b, now);
        a.write(4 * 1460);
        // Drain a's segments but don't deliver (so a has flight > 0).
        let mut held = Vec::new();
        while let Some(s) = a.poll_segment(now) {
            held.push(s);
        }
        // b sends data repeating its current ack number.
        b.write(1460);
        let data = b.poll_segment(now).expect("data from b");
        assert!(data.is_piggybacked());
        let before = a.congestion().dupacks();
        a.on_segment(data, now);
        assert_eq!(a.congestion().dupacks(), before, "no dupack counted");
    }
}
