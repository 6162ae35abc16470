//! Differential snapshot battery: `restore(save(w))` then running to
//! time T must be **byte-identical** to running straight through to T.
//!
//! Every test compares full serialized world blobs — not summaries — so
//! any divergence in any subsystem (event queue, RNG streams, client
//! state, rate engine, tracker, metrics, fault cursor) fails loudly.
//! The matrix covers both worlds, snapshots taken mid-fault-window,
//! inside an announce backoff ladder, under a dark tracker tier, and at
//! times that land between timer-wheel cascades or flow ticks. A faulted
//! scenario is the same differential with the plan installed by its
//! builder: the world applies the plan itself and its cursor travels in
//! the blob.

use bittorrent::client::{ClientConfig, PexConfig};
use bittorrent::lifecycle::ResilienceConfig;
use bittorrent::metainfo::Metainfo;
use bittorrent::tracker::TrackerConfig;
use p2p_simulation::experiments::search::diagnostic_world;
use p2p_simulation::flow::{Access, FlowConfig, FlowWorld, TaskSpec, TorrentSpec};
use p2p_simulation::packet::{PacketConfig, PacketWorld};
use simnet::addr::NodeId;
use simnet::fault::{FaultKind, FaultPlan, FaultPlanConfig};
use simnet::mobility::MobilityProcess;
use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};
use simnet::wireless::WirelessConfig;

const MB: u64 = 1024 * 1024;

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

fn at(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

// ----------------------------------------------------------------------
// Flow-world scenarios
// ----------------------------------------------------------------------

/// A quick fig3b-shaped swarm: campus seed, two residential leeches,
/// one wireless mobile leech with a hand-off schedule.
fn fig3b_world(seed: u64) -> FlowWorld {
    let meta = Metainfo::synthetic("snap.bin", "tr", 256 * 1024, 16 * MB, seed);
    let torrent = TorrentSpec::from_metainfo(&meta, 256 * 1024);
    let mut w = FlowWorld::new(FlowConfig::default(), seed);
    let seed_node = w.add_node(Access::campus());
    w.add_task(TaskSpec::default_client(seed_node, torrent, true));
    for i in 0..2 {
        let n = w.add_node(Access::residential());
        let mut spec = TaskSpec::default_client(n, torrent, false);
        spec.start_fraction = Some(0.2 * (i + 1) as f64);
        w.add_task(spec);
    }
    let mobile = w.add_node(Access::Wireless {
        capacity: 2_000_000.0 / 8.0,
    });
    w.add_task(TaskSpec::default_client(mobile, torrent, false));
    w.set_mobility(
        mobile,
        MobilityProcess::periodic(secs(25), secs(4)),
    );
    w.start();
    w
}

/// The diagnostic swarm (armed seed + three leeches, stall watchdog on)
/// with `plan` installed.
fn diagnostic_with_plan(seed: u64, plan: &FaultPlan) -> FlowWorld {
    let mut w = diagnostic_world(seed, 16 * MB);
    w.set_fault_plan(plan);
    w
}

/// The core differential check: straight-through vs save→rebuild→
/// restore→run, compared as full serialized blobs at time `t2`.
/// `at_snapshot` asserts the scenario's state on the straight world at
/// `t1`; the blob must also be a round-trip fixed point.
fn assert_flow_differential(
    build: impl Fn() -> FlowWorld,
    t1: SimTime,
    t2: SimTime,
    at_snapshot: impl FnOnce(&FlowWorld),
) {
    // Straight run, snapshotting in passing at t1.
    let mut straight = build();
    straight.run_until(t1, |_| {});
    at_snapshot(&straight);
    let blob = straight.save();
    straight.run_until(t2, |_| {});
    let want = straight.save();

    // Rebuild from the same recipe, restore, run the remainder.
    let mut restored = build();
    restored.restore(&blob);
    assert!(
        restored.save() == blob,
        "save(restore(blob)) != blob at {t1:?}"
    );
    restored.run_until(t2, |_| {});
    let got = restored.save();

    assert_eq!(
        want.len(),
        got.len(),
        "snapshot blobs differ in length after restore-then-run"
    );
    assert!(
        want == got,
        "restore-then-run diverged from straight-through run"
    );
    assert_eq!(straight.queue_stats(), restored.queue_stats());
    assert_eq!(straight.events_processed(), restored.events_processed());
    assert_eq!(straight.solver_stats(), restored.solver_stats());
    assert_eq!(straight.faults_applied(), restored.faults_applied());
}

#[test]
fn flow_fig3b_restore_is_byte_identical_wheel() {
    assert_flow_differential(|| fig3b_world(11), at(40), at(90), |_| {});
}

/// Snapshot at a time that is not a multiple of any tick or wheel slot
/// (odd microseconds): the wheel's cascade position must survive.
#[test]
fn flow_snapshot_between_wheel_cascades() {
    assert_flow_differential(
        || fig3b_world(23),
        SimTime::from_micros(33_333_337),
        at(80),
        |_| {},
    );
}

/// Snapshot half-way between two 250 ms flow ticks, a few microseconds
/// off the grid: the partially elapsed tick (bytes moved since the last
/// advance, the pending tick event) must survive. (The `_heap` suffix is
/// historical — the name is pinned by the tier-1 floor list.)
#[test]
fn flow_snapshot_at_sub_tick_offset_heap() {
    assert_flow_differential(
        || fig3b_world(29),
        SimTime::from_micros(41_125_003),
        at(85),
        |_| {},
    );
}

// ----------------------------------------------------------------------
// Fault-window and backoff-ladder snapshots
// ----------------------------------------------------------------------

/// Snapshot taken *inside* open fault windows (tracker outage + black
/// hole both active at t=30): the restored run must absorb the
/// remaining fault actions identically from the blob's fault cursor.
#[test]
fn flow_snapshot_mid_fault_window() {
    let mut plan = FaultPlan::empty(7);
    plan.push(at(20), FaultKind::TrackerOutage { duration: secs(40) });
    plan.push(
        at(25),
        FaultKind::LinkBlackhole {
            node: NodeId(0),
            duration: secs(25),
        },
    );
    plan.push(
        at(35),
        FaultKind::LossBurst {
            node: NodeId(2),
            ber: 1e-3,
            duration: secs(20),
        },
    );
    assert_flow_differential(
        || diagnostic_with_plan(7, &plan),
        at(30),
        at(120),
        |w| assert!(w.tracker_is_down(), "snapshot must land inside the outage"),
    );
}

/// Snapshot inside an announce backoff ladder: armed clients have
/// accumulated failed announces during a tracker outage, so the restored
/// run must continue the ladder at the same rung.
#[test]
fn flow_snapshot_inside_backoff_ladder() {
    let mut plan = FaultPlan::empty(3);
    plan.push(at(10), FaultKind::TrackerOutage { duration: secs(60) });
    assert_flow_differential(
        || diagnostic_with_plan(3, &plan),
        at(45),
        at(110),
        |w| assert!(w.tracker_is_down()),
    );
}

// ----------------------------------------------------------------------
// PEX gossip state under a dark tracker tier
// ----------------------------------------------------------------------

/// A degradation-ladder swarm: PEX-enabled armed clients with announce
/// circuit breakers, a four-shard replica tracker tier, and one mobile
/// hand-off node. Snapshots of this world must carry gossip books,
/// per-entry ages, breaker states, and saved-address reseeds.
fn pex_world(seed: u64, plan: &FaultPlan) -> FlowWorld {
    let meta = Metainfo::synthetic("pexsnap.bin", "tr", 256 * 1024, 16 * MB, seed);
    let torrent = TorrentSpec::from_metainfo(&meta, 256 * 1024);
    let cfg = FlowConfig {
        tracker: TrackerConfig {
            announce_interval: secs(30),
            min_interval: secs(15),
            max_peers_returned: 2,
            ..TrackerConfig::default()
        },
        tracker_shards: 4,
        tracker_replicas: true,
        ..FlowConfig::default()
    };
    let mut w = FlowWorld::new(cfg, seed);
    let pexed = || {
        Box::new(|| ClientConfig {
            resilience: ResilienceConfig {
                breaker_threshold: 2,
                breaker_cooloff: secs(90),
                ..ResilienceConfig::armed()
            },
            pex: PexConfig {
                enabled: true,
                gossip_interval: secs(15),
                max_entries: 8,
                max_age: secs(240),
            },
            ..ClientConfig::default()
        }) as Box<dyn Fn() -> ClientConfig>
    };
    let seed_node = w.add_node(Access::campus());
    let mut seed_spec = TaskSpec::default_client(seed_node, torrent, true);
    seed_spec.make_config = pexed();
    w.add_task(seed_spec);
    for i in 0..2 {
        let n = w.add_node(Access::residential());
        let mut spec = TaskSpec::default_client(n, torrent, false);
        spec.make_config = pexed();
        spec.start_fraction = Some(0.25 * (i + 1) as f64);
        w.add_task(spec);
    }
    let mobile = w.add_node(Access::Wireless {
        capacity: 2_000_000.0 / 8.0,
    });
    let mut mspec = TaskSpec::default_client(mobile, torrent, false);
    mspec.make_config = pexed();
    w.add_task(mspec);
    w.set_mobility(mobile, MobilityProcess::periodic(secs(25), secs(4)));
    w.set_fault_plan(plan);
    w.start();
    w
}

/// Snapshot while the whole tracker tier is dark and PEX gossip is the
/// only discovery channel: breakers open, gossip books populated, the
/// mobile node mid-hand-off-cycle. The restored run must continue all
/// three rungs of the ladder byte-identically.
#[test]
fn flow_pex_snapshot_mid_blackout_wheel() {
    let mut plan = FaultPlan::empty(17);
    plan.push(
        at(15),
        FaultKind::TrackerOutage {
            duration: secs(300),
        },
    );
    assert_flow_differential(
        || pex_world(17, &plan),
        at(100),
        at(170),
        |w| {
            assert!(w.tracker_is_down(), "snapshot must land mid-blackout");
            let gossiped: u64 = (0..w.task_count()).map(|t| w.task_pex_stats(t).0).sum();
            assert!(
                gossiped > 0,
                "PEX gossip must be active at the snapshot instant"
            );
            assert!(
                (0..w.task_count()).any(|t| w.client(t).is_some_and(|c| c.breaker_is_open())),
                "at least one announce breaker must be open at the snapshot instant"
            );
        },
    );
}

// ----------------------------------------------------------------------
// Packet-world scenarios
// ----------------------------------------------------------------------

fn packet_raw_world(seed: u64) -> PacketWorld {
    let mut w = PacketWorld::new(PacketConfig::default(), seed);
    let a = w.add_node(None);
    let b = w.add_node(Some(WirelessConfig::wlan_80211g()));
    let conn = w.open_tcp(a, b);
    w.tcp_write(conn, true, 4 * MB);
    w.tcp_write(conn, false, 256 * 1024);
    w
}

/// A wired seeder and a wireless leech sharing one torrent, both
/// clients built from `cfg`.
fn packet_overlay_world(seed: u64, cfg: fn() -> ClientConfig) -> PacketWorld {
    let meta = Metainfo::synthetic("psnap.bin", "tr", 64 * 1024, 2 * MB, seed);
    let mut w = PacketWorld::new(PacketConfig::default(), seed);
    let seeder = w.add_node(None);
    let leech = w.add_node(Some(WirelessConfig::wlan_80211g()));
    for (node, complete) in [(seeder, true), (leech, false)] {
        w.add_client(
            node,
            cfg(),
            meta.info.info_hash(),
            meta.info.piece_length,
            meta.info.length,
            16 * 1024,
            complete,
        );
    }
    w.start_clients();
    w
}

/// The packet-world differential; see [`assert_flow_differential`].
fn assert_packet_differential(
    build: impl Fn() -> PacketWorld,
    t1: SimTime,
    t2: SimTime,
    at_snapshot: impl FnOnce(&PacketWorld),
) {
    let mut straight = build();
    straight.run_until(t1, |_| {});
    at_snapshot(&straight);
    let blob = straight.save();
    straight.run_until(t2, |_| {});
    let want = straight.save();

    let mut restored = build();
    restored.restore(&blob);
    assert!(
        restored.save() == blob,
        "packet save(restore(blob)) != blob at {t1:?}"
    );
    restored.run_until(t2, |_| {});
    let got = restored.save();

    assert!(
        want == got,
        "packet-world restore-then-run diverged from straight run"
    );
    assert_eq!(straight.queue_stats(), restored.queue_stats());
    assert_eq!(straight.events_processed(), restored.events_processed());
    assert_eq!(straight.faults_applied(), restored.faults_applied());
}

#[test]
fn packet_raw_tcp_restore_is_byte_identical_wheel() {
    assert_packet_differential(
        || packet_raw_world(5),
        SimTime::from_millis(2_517),
        at(12),
        |_| {},
    );
}

#[test]
fn packet_overlay_restore_is_byte_identical() {
    assert_packet_differential(
        || packet_overlay_world(9, ClientConfig::default),
        at(20),
        at(60),
        |_| {},
    );
}

/// Packet world mid-fault snapshot: black hole open at snapshot time.
#[test]
fn packet_snapshot_mid_blackhole() {
    let mut plan = FaultPlan::empty(4);
    plan.push(
        at(5),
        FaultKind::LinkBlackhole {
            node: NodeId(1),
            duration: secs(10),
        },
    );
    let build = || {
        let mut w = packet_overlay_world(4, ClientConfig::default);
        w.set_fault_plan(&plan);
        w
    };
    assert_packet_differential(build, at(8), at(40), |_| {});
}

/// PEX + breakers, for the dark-tier snapshot variant below.
fn pexed() -> ClientConfig {
    ClientConfig {
        resilience: ResilienceConfig {
            breaker_threshold: 2,
            breaker_cooloff: secs(90),
            ..ResilienceConfig::armed()
        },
        pex: PexConfig {
            enabled: true,
            gossip_interval: secs(10),
            max_entries: 8,
            max_age: secs(240),
        },
        ..ClientConfig::default()
    }
}

/// Packet-world dark-tier snapshot: the tracker goes dark right after
/// the peers found each other, so the leech's `Completed` announce
/// (t ≈ 3 s) and its retry a minute later both fail and trip its breaker.
/// The blob is taken with the outage open, the breaker tripped, and PEX
/// gossip timers mid-cycle.
#[test]
fn packet_pex_snapshot_mid_blackout_wheel() {
    let mut plan = FaultPlan::empty(6);
    plan.push(
        at(1),
        FaultKind::TrackerOutage {
            duration: secs(200),
        },
    );
    let build = || {
        let mut w = packet_overlay_world(21, pexed);
        w.set_fault_plan(&plan);
        w
    };
    assert_packet_differential(build, at(80), at(130), |w| {
        assert!(w.tracker_is_down(), "snapshot must land mid-blackout");
        // Node 1 is the leech: its failed announces must have reached the
        // client's breaker, not been papered over with synthetic responses.
        let trips = w.client(1).expect("leech client").stats().breaker_trips;
        assert!(trips > 0, "the leech's announce breaker never tripped");
    });
}

// ----------------------------------------------------------------------
// Round-trip stability and metrics
// ----------------------------------------------------------------------

/// `restore(save(restore(save(w))))` is a fixed point: double round-trip
/// produces the same blob as a single one.
#[test]
fn flow_double_round_trip_is_stable() {
    let build = || fig3b_world(31);
    let mut w = build();
    w.run_until(at(35), |_| {});
    let b1 = w.save();
    let mut w2 = build();
    w2.restore(&b1);
    let b2 = w2.save();
    assert!(b1 == b2, "save(restore(save)) changed the blob");
    let mut w3 = build();
    w3.restore(&b2);
    let b3 = w3.save();
    assert!(b2 == b3, "double round-trip is not a fixed point");
}

#[test]
fn packet_double_round_trip_is_stable() {
    let build = || packet_overlay_world(13, ClientConfig::default);
    let mut w = build();
    w.run_until(at(15), |_| {});
    let b1 = w.save();
    let mut w2 = build();
    w2.restore(&b1);
    let b2 = w2.save();
    assert!(b1 == b2, "packet save(restore(save)) changed the blob");
}

/// Restoring with metrics enabled restores every registry instrument by
/// name: the restored run's metrics series match the straight run's.
#[test]
fn flow_metrics_series_survive_restore() {
    use metrics::handle::MetricsHandle;
    let build = |m: &MetricsHandle| {
        let meta = Metainfo::synthetic("msnap.bin", "tr", 256 * 1024, 8 * MB, 2);
        let torrent = TorrentSpec::from_metainfo(&meta, 256 * 1024);
        let mut w = FlowWorld::new(FlowConfig::default(), 2);
        w.set_metrics(m);
        let s = w.add_node(Access::campus());
        w.add_task(TaskSpec::default_client(s, torrent, true));
        let l = w.add_node(Access::residential());
        w.add_task(TaskSpec::default_client(l, torrent, false));
        w.start();
        w
    };
    let ma = MetricsHandle::enabled(2);
    let mut straight = build(&ma);
    straight.run_until(at(25), |_| {});
    let blob = straight.save();
    straight.run_until(at(60), |_| {});

    let mb = MetricsHandle::enabled(2);
    let mut restored = build(&mb);
    restored.restore(&blob);
    restored.run_until(at(60), |_| {});

    assert_eq!(
        ma.to_json(),
        mb.to_json(),
        "metrics registries diverged after restore"
    );
    assert_eq!(ma.series_csv(), mb.series_csv());
    assert!(straight.save() == restored.save());
}

// ----------------------------------------------------------------------
// Seeded property tests: random snapshot points under randomized churn
// ----------------------------------------------------------------------

/// Each case draws a generated fault plan and a uniformly random
/// snapshot instant (microsecond granularity, deliberately unaligned
/// with ticks or wheel slots), then requires the restored arm to agree
/// byte-for-byte with the straight arm — and the snapshot itself to be
/// a round-trip fixed point. Failures reproduce from the printed case
/// index alone.
#[test]
fn flow_random_snapshot_points_under_randomized_churn() {
    let root = SimRng::new(0x5A7_F00D);
    for case in 0..5u64 {
        let mut rng = root.fork(case);
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let plan = FaultPlan::generate(case, &FaultPlanConfig::new(secs(100), nodes));
        let t_snap = SimTime::from_micros(rng.range(5_000_000..100_000_000u64));
        eprintln!(
            "case {case}: snapshot at {t_snap:?} under plan\n{}",
            plan.render()
        );
        assert_flow_differential(
            || diagnostic_with_plan(100 + case, &plan),
            t_snap,
            at(120),
            |_| {},
        );
    }
}

/// Packet-world variant: random snapshot instants over the BT overlay.
#[test]
fn packet_random_snapshot_points() {
    let root = SimRng::new(0x9AC4E7);
    for case in 0..4u64 {
        let mut rng = root.fork(case);
        let t_snap = SimTime::from_micros(rng.range(2_000_000..40_000_000u64));
        eprintln!("case {case}: packet snapshot at {t_snap:?}");
        assert_packet_differential(
            || packet_overlay_world(200 + case, ClientConfig::default),
            t_snap,
            at(55),
            |_| {},
        );
    }
}

// ----------------------------------------------------------------------
// Format pin
// ----------------------------------------------------------------------

/// The blob bytes themselves are pinned. The differential tests above
/// compare blobs written by the same code, so a field order change that
/// writer and reader share passes them all; this test does not. Every
/// world is armed, so its blob carries the invariant checker's history
/// and the constants hold in every build profile.
#[test]
fn blob_bytes_are_pinned() {
    use bittorrent::sha1::Sha1;

    fn mid_blackout(seed: u64, start: u64, duration: u64) -> FaultPlan {
        let mut plan = FaultPlan::empty(seed);
        plan.push(
            at(start),
            FaultKind::TrackerOutage {
                duration: secs(duration),
            },
        );
        plan
    }
    let flow_blob = |mut w: FlowWorld, t: SimTime| {
        w.arm_invariants();
        w.run_until(t, |_| {});
        w.save()
    };
    let packet_blob = |mut w: PacketWorld, t: SimTime| {
        w.arm_invariants();
        w.run_until(t, |_| {});
        w.save()
    };
    let blobs = [
        ("fig3b_world(31) @ 35 s", flow_blob(fig3b_world(31), at(35))),
        (
            "pex_world(17) @ 100 s",
            flow_blob(pex_world(17, &mid_blackout(17, 15, 300)), at(100)),
        ),
        (
            "packet_raw_world(5) @ 2.517 s",
            packet_blob(packet_raw_world(5), SimTime::from_millis(2_517)),
        ),
        ("packet_overlay_world(21, pexed) @ 80 s", {
            let mut w = packet_overlay_world(21, pexed);
            w.set_fault_plan(&mid_blackout(6, 1, 200));
            packet_blob(w, at(80))
        }),
    ];
    let pinned: [(usize, &str); 4] = [
        (19630, "292dbdb1a32fde941dcd03d83d3e0ffce3d8a691"),
        (24831, "7df75e04606bf1cf7c95eefe1155d0def3b203e5"),
        (10120, "d957165847a5d3fe9bbbcff2cf794d8b7b7d6dff"),
        (10816, "5a3a0b2dd20ece2217269dc22c581e9d7dd51772"),
    ];
    let got: Vec<(usize, String)> = blobs
        .iter()
        .map(|(_, blob)| (blob.len(), Sha1::digest(blob).to_string()))
        .collect();
    for ((name, _), (len, digest)) in blobs.iter().zip(&got) {
        eprintln!("{name}: ({len}, \"{digest}\"),");
    }
    for ((name, _), ((len, digest), (want_len, want_digest))) in
        blobs.iter().zip(got.iter().zip(pinned))
    {
        assert!(
            (*len, digest.as_str()) == (want_len, want_digest),
            "{name}: blob is {len} bytes with sha1 {digest}, pinned {want_len} bytes with \
             sha1 {want_digest}. A changed digest is a snapshot format change: bump \
             FORMAT_VERSION and re-pin."
        );
    }
}
