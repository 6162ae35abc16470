//! Swarm-wide invariant checking.
//!
//! An [`InvariantChecker`] watches a simulation world across ticks and
//! asserts the cross-layer conservation laws that must hold no matter
//! what faults are injected:
//!
//! 1. **Byte conservation** — piece payload bytes delivered to receivers
//!    never exceed bytes sent by senders (world-side transport truth).
//! 2. **Bitfield monotonicity** — a task's verified-piece bitfield never
//!    loses a piece, across hand-offs, crashes, and re-initiations; and
//!    pieces gained cost at least their size in delivered transport
//!    bytes (you cannot verify data you never received).
//! 3. **TCP sequence-space sanity** (packet world) — per endpoint,
//!    `rcv_nxt` and the delivered byte count advance monotonically, and
//!    in-order delivered bytes never exceed what the peer wrote.
//! 4. **Max-min feasibility** (flow world) — the current rate
//!    allocation overloads no access pipe, wireless channel, or
//!    application upload cap it crosses.
//! 5. **Identity/credit sanity** — tit-for-tat credit is finite and
//!    non-negative, and a task with identity retention keeps the same
//!    peer-id across every hand-off (the credit it earned stays
//!    addressed to it — the paper's §3.4 mechanism).
//!
//! Each world owns one checker and runs it itself once armed: a flow
//! world after every tick, a packet world after every event. A world is
//! armed by `arm_invariants()` ([`FlowWorld::arm_invariants`],
//! [`PacketWorld::arm_invariants`]) in any build profile, and starts
//! armed in debug builds (`ARMED_BY_DEFAULT`), so every debug test
//! that runs a world is an invariant run. A violation panics;
//! `invariant_checks()` counts the passes. The checker's observation
//! history rides in the world's snapshot blob, so an armed run writes
//! the same bytes in every profile. [`InvariantChecker::new`] and the
//! `check_*` passes stay public for one-off passes outside a run loop,
//! such as timing a pass.

use crate::flow::FlowWorld;
use crate::packet::PacketWorld;
use bittorrent::peer_id::PeerId;
use sim_tcp::seq::SeqNum;
use std::collections::BTreeMap;

/// Whether a newly built world is armed before any `arm_invariants()`
/// call: armed in debug builds, unarmed in release. The one place the
/// build profile reaches the checker.
pub(crate) const ARMED_BY_DEFAULT: bool = cfg!(debug_assertions);

/// Per-task snapshot used for monotonicity checks.
#[derive(Clone, Debug)]
struct TaskSnap {
    have: Vec<bool>,
    /// Transport bytes already delivered at the first observation.
    initial_bytes: u64,
    /// Verified piece bytes gained since the first observation.
    gained_total: u64,
}

/// Per-endpoint snapshot used for TCP sequence-space checks.
#[derive(Clone, Copy, Debug, Default)]
struct TcpSnap {
    rcv_nxt: Option<SeqNum>,
    delivered: u64,
}

/// Watches a world across ticks and panics on any invariant violation.
///
/// One checker per world: the monotonicity checks compare against the
/// previous observation of the *same* world.
#[derive(Debug, Default)]
pub struct InvariantChecker {
    checks: u64,
    tasks: BTreeMap<usize, TaskSnap>,
    identities: BTreeMap<usize, PeerId>,
    tcp: BTreeMap<(usize, bool), TcpSnap>,
}

impl InvariantChecker {
    /// A fresh checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many check passes have run (each pass covers every invariant
    /// family applicable to the world).
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Runs every flow-world invariant. Panics on violation.
    pub fn check_flow(&mut self, w: &FlowWorld) {
        self.checks += 1;
        // 1. Byte conservation across the whole swarm.
        let mut down = 0u64;
        let mut up = 0u64;
        for t in 0..w.task_count() {
            down += w.delivered_down_bytes(t);
            up += w.delivered_up_bytes(t);
        }
        assert!(
            down <= up,
            "conservation violated: delivered {down} > sent {up}"
        );
        // 2/5. Per-task bitfield monotonicity and identity/credit checks.
        for t in 0..w.task_count() {
            // A task is observed from its client's first spawn on (the
            // spawn assigns its identity): the spawn grants the task's
            // `start_fraction` pieces without delivering a byte.
            if w.task_identity(t).is_none() {
                continue;
            }
            self.check_task_progress(t, w);
            if w.task_retains_identity(t) {
                if let Some(id) = w.task_identity(t) {
                    let first = *self.identities.entry(t).or_insert(id);
                    assert!(
                        first == id,
                        "task {t} retains identity but changed peer-id across a hand-off"
                    );
                }
            }
            if let Some(c) = w.client(t) {
                for key in c.connections() {
                    if let Some(id) = c.peer_id_of(key) {
                        let credit = c.credit_of(id);
                        assert!(
                            credit.is_finite() && credit >= 0.0,
                            "task {t} holds invalid credit {credit} for a peer"
                        );
                    }
                }
                // 6. PEX gossip-book sanity: a disabled client keeps no
                // book at all, and no entry claims freshness from the
                // future.
                let book = c.pex_book();
                if !c.pex_enabled() {
                    assert!(
                        book.is_empty(),
                        "task {t} has PEX disabled but holds gossip state"
                    );
                }
                let now = w.now();
                for (addr, fresh_at) in book {
                    assert!(
                        fresh_at <= now,
                        "task {t} gossip book dates {addr} in the future"
                    );
                }
            }
        }
        // 4. Max-min feasibility of the current allocation.
        if let Err(e) = w.rates_feasible() {
            panic!("max-min allocation infeasible: {e}");
        }
    }

    fn check_task_progress(&mut self, t: usize, w: &FlowWorld) {
        let (have, gained_now) = w.with_progress(t, |p| {
            let n = p.num_pieces();
            let have: Vec<bool> = (0..n).map(|i| p.have().get(i)).collect();
            let gained: u64 = match self.tasks.get(&t) {
                None => 0,
                Some(snap) => (0..n)
                    .filter(|&i| have[i as usize] && !snap.have[i as usize])
                    .map(|i| p.piece_size(i) as u64)
                    .sum(),
            };
            (have, gained)
        });
        let delivered = w.delivered_down_bytes(t);
        match self.tasks.get_mut(&t) {
            None => {
                self.tasks.insert(
                    t,
                    TaskSnap {
                        have,
                        initial_bytes: delivered,
                        gained_total: 0,
                    },
                );
            }
            Some(snap) => {
                for (i, (&now_has, &had)) in have.iter().zip(&snap.have).enumerate() {
                    assert!(
                        !had || now_has,
                        "task {t} lost verified piece {i}: bitfield not monotone"
                    );
                }
                // Every verified piece byte must be covered by transport
                // deliveries: you cannot SHA-verify data you never got.
                snap.gained_total += gained_now;
                let received = delivered.saturating_sub(snap.initial_bytes);
                assert!(
                    snap.gained_total <= received,
                    "task {t} verified {} new piece bytes but only {received} \
                     were delivered: data from nowhere",
                    snap.gained_total
                );
                for (dst, src) in snap.have.iter_mut().zip(&have) {
                    *dst = *src;
                }
            }
        }
    }

    /// Runs every packet-world invariant. Panics on violation.
    pub fn check_packet(&mut self, w: &PacketWorld) {
        self.checks += 1;
        // 1. Byte conservation over the overlay.
        let mut down = 0u64;
        let mut up = 0u64;
        for n in 0..w.node_count() {
            down += w.delivered_down(n);
            up += w.delivered_up(n);
        }
        assert!(
            down <= up,
            "conservation violated: delivered {down} > sent {up}"
        );
        // 3. TCP sequence-space sanity per live endpoint.
        for conn in 0..w.conn_count() {
            for a_side in [true, false] {
                let Some(ep) = w.endpoint(conn, a_side) else {
                    continue;
                };
                let key = (conn, a_side);
                let snap = self.tcp.entry(key).or_default();
                let delivered = ep.delivered_total();
                assert!(
                    delivered >= snap.delivered,
                    "conn {conn} side {a_side}: delivered bytes went backwards \
                     ({} -> {delivered})",
                    snap.delivered
                );
                snap.delivered = delivered;
                if let Some(rn) = ep.rcv_nxt() {
                    if let Some(prev) = snap.rcv_nxt {
                        assert!(
                            prev.before_eq(rn),
                            "conn {conn} side {a_side}: rcv_nxt moved backwards \
                             ({prev:?} -> {rn:?})"
                        );
                    }
                    snap.rcv_nxt = Some(rn);
                }
                // In-order delivery cannot outrun what the peer wrote.
                let peer_written = w.tcp_written(conn, !a_side);
                assert!(
                    delivered <= peer_written,
                    "conn {conn} side {a_side}: delivered {delivered} > peer wrote \
                     {peer_written}"
                );
                let flight = ep.flight_size();
                assert!(
                    flight < (1 << 30),
                    "conn {conn} side {a_side}: absurd flight size {flight}"
                );
            }
        }
        // 2. Overlay bitfields (when clients are attached): monotone.
        for n in 0..w.node_count() {
            let Some(c) = w.client(n) else { continue };
            let p = c.progress();
            let have: Vec<bool> = (0..p.num_pieces()).map(|i| p.have().get(i)).collect();
            match self.tasks.get_mut(&n) {
                None => {
                    self.tasks.insert(
                        n,
                        TaskSnap {
                            have,
                            initial_bytes: w.delivered_down(n),
                            gained_total: 0,
                        },
                    );
                }
                Some(snap) => {
                    for (i, (&now_has, &had)) in have.iter().zip(&snap.have).enumerate() {
                        assert!(
                            !had || now_has,
                            "node {n} lost verified piece {i}: bitfield not monotone"
                        );
                    }
                    for (dst, src) in snap.have.iter_mut().zip(&have) {
                        *dst = *src;
                    }
                }
            }
        }
    }
}

use simnet::snapshot::snap_struct;

snap_struct!(TaskSnap {
    have,
    initial_bytes,
    gained_total,
});

snap_struct!(TcpSnap {
    rcv_nxt,
    delivered,
});

// The checker's observation history rides in world snapshots so the
// restored world's built-in checker counts passes — and fires — exactly
// like the straight-through run's.
snap_struct!(#[section = "invariants"] InvariantChecker {
    checks,
    tasks,
    identities,
    tcp,
});

#[cfg(test)]
mod tests {
    use crate::flow::{Access, FlowConfig, FlowWorld, TaskSpec, TorrentSpec};
    use bittorrent::metainfo::Metainfo;
    use simnet::time::SimTime;

    #[test]
    fn clean_run_has_zero_violations() {
        let meta = Metainfo::synthetic("inv.bin", "tr", 64 * 1024, 512 * 1024, 9);
        let torrent = TorrentSpec::from_metainfo(&meta, 64 * 1024);
        let mut w = FlowWorld::new(FlowConfig::default(), 11);
        w.arm_invariants();
        let a = w.add_node(Access::campus());
        let b = w.add_node(Access::residential());
        w.add_task(TaskSpec::default_client(a, torrent, true));
        let leech = w.add_task(TaskSpec::default_client(b, torrent, false));
        w.start();
        let mut ticks = 0u64;
        w.run_until(SimTime::from_secs(120), |_| ticks += 1);
        assert_eq!(w.progress_fraction(leech), 1.0);
        assert_eq!(w.invariant_checks(), ticks, "one check pass per tick");
        assert!(ticks > 100, "checker barely ran: {ticks}");
    }

    #[test]
    fn clean_packet_run_has_zero_violations() {
        use crate::packet::{PacketConfig, PacketWorld};
        let mut w = PacketWorld::new(PacketConfig::default(), 5);
        w.arm_invariants();
        let a = w.add_node(None);
        let b = w.add_node(Some(simnet::wireless::WirelessConfig::wlan_80211g()));
        let conn = w.open_tcp(a, b);
        w.tcp_write(conn, true, 500_000);
        let mut events = 0u64;
        w.run_until(SimTime::from_secs(30), |_| events += 1);
        assert_eq!(w.tcp_delivered(conn, false), 500_000);
        assert_eq!(w.invariant_checks(), events, "one check pass per event");
        assert!(events > 100, "checker barely ran: {events}");
    }

    /// A leech that joins late with pre-seeded pieces: the spawn grants
    /// them without a delivered byte, so the checker must not baseline
    /// the task before its client exists.
    #[test]
    fn late_start_with_head_start_is_clean() {
        let meta = Metainfo::synthetic("late.bin", "tr", 128 * 1024, 4 * 1024 * 1024, 3);
        let torrent = TorrentSpec::from_metainfo(&meta, 128 * 1024);
        let mut w = FlowWorld::new(FlowConfig::default(), 3);
        w.arm_invariants();
        let a = w.add_node(Access::campus());
        let b = w.add_node(Access::residential());
        w.add_task(TaskSpec::default_client(a, torrent, true));
        let mut spec = TaskSpec::default_client(b, torrent, false);
        spec.start_fraction = Some(0.1);
        spec.start_at = SimTime::from_secs(3);
        let leech = w.add_task(spec);
        w.start();
        w.run_until(SimTime::from_secs(120), |_| {});
        assert_eq!(w.progress_fraction(leech), 1.0);
        assert!(w.invariant_checks() > 100);
    }
}
