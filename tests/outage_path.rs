//! The tracker-outage announce path, pinned in both worlds.
//!
//! One three-seed swarm per world: `S`, `L` (the client under test,
//! which dials although it seeds) and `M`. `M` registers after
//! `L`'s first announce, so `L` learns `M` only from a later successful
//! announce; the moment `L` first reaches `M` therefore dates that
//! announce. The tracker goes down at 10 s, before `L`'s first periodic
//! announce (15 min), and `L` keeps its connection to `S` throughout, so
//! no early re-announce muddies its retry clock.
//!
//! * Unarmed clients retry on the 60 / 120 / 240 / 240 s announce ladder
//!   and keep the last served `min interval` as their floor.
//! * Breaker-armed clients climb the same ladder up to the threshold,
//!   trip once, and wait out the cooloff before the next probe.
//!
//! The flow world reads `L`'s announces off its trace; the packet world
//! has no trace, so its tests date `L`'s first post-outage success by
//! the connection it opens to `M`.

use bittorrent::client::ClientConfig;
use bittorrent::lifecycle::ResilienceConfig;
use bittorrent::metainfo::Metainfo;
use bittorrent::tracker::TrackerConfig;
use metrics::trace::TraceKind;
use p2p_simulation::flow::{Access, FlowConfig, FlowWorld, TaskSpec, TorrentSpec};
use p2p_simulation::packet::{PacketConfig, PacketWorld};
use simnet::fault::FaultHooks;
use simnet::time::{SimDuration, SimTime};

const OUTAGE_AT: SimTime = SimTime::from_secs(10);

fn meta() -> Metainfo {
    Metainfo::synthetic("outage.bin", "tr", 64 * 1024, 256 * 1024, 3)
}

fn dialler(resilience: ResilienceConfig) -> ClientConfig {
    ClientConfig {
        resilience,
        dial_while_seeding: true,
        ..ClientConfig::default()
    }
}

fn breaker() -> ResilienceConfig {
    ResilienceConfig {
        breaker_threshold: 3,
        ..ResilienceConfig::default()
    }
}

// ----------------------------------------------------------------------
// Packet world
// ----------------------------------------------------------------------

/// `(world, L)`, with the tracker down since [`OUTAGE_AT`].
fn packet_swarm(resilience: ResilienceConfig) -> (PacketWorld, usize) {
    let meta = meta();
    let ih = meta.info.info_hash();
    let (pl, len) = (meta.info.piece_length, meta.info.length);
    let mut w = PacketWorld::new(PacketConfig::default(), 7);
    let s = w.add_node(None);
    let l = w.add_node(None);
    let m = w.add_node(None);
    w.add_client(s, ClientConfig::default(), ih, pl, len, pl, true);
    w.add_client(l, dialler(resilience), ih, pl, len, pl, true);
    w.add_client(m, ClientConfig::default(), ih, pl, len, pl, true);
    w.start_clients();
    w.run_until(OUTAGE_AT, |_| {});
    assert_eq!(w.conn_count(), 1, "L must know only S before the outage");
    w.begin_tracker_outage();
    (w, l)
}

/// Ends the outage at `back` and returns when `L` first dials `M`.
fn packet_first_success(w: &mut PacketWorld, back: SimTime) -> SimTime {
    w.run_until(back, |w| assert_eq!(w.conn_count(), 1));
    w.end_tracker_outage();
    let mut dialled = None;
    w.run_until(SimTime::from_secs(1700), |w| {
        if dialled.is_none() && w.conn_count() > 1 {
            dialled = Some(w.now());
        }
    });
    dialled.expect("L never reached M after the outage")
}

#[test]
fn packet_unarmed_retries_climb_the_announce_ladder() {
    // L's periodic announce at 900 s fails; retries land at 960, 1080,
    // 1320 and 1560 s. The first retry after the tracker returns is the
    // first success.
    for (back, success) in [(930, 960), (1000, 1080), (1100, 1320), (1400, 1560)] {
        let (mut w, l) = packet_swarm(ResilienceConfig::default());
        w.run_until(SimTime::from_secs(905), |_| {});
        let c = w.client(l).expect("L");
        assert_eq!(
            c.announce_fail_streak(),
            0,
            "unarmed: no failures reach the client"
        );
        assert_eq!(
            c.min_reannounce(),
            SimDuration::from_secs(60),
            "served floor echoed"
        );
        let at = packet_first_success(&mut w, SimTime::from_secs(back));
        assert_eq!(at, SimTime::from_secs(success), "tracker back at {back} s");
        assert_eq!(w.client(l).expect("L").stats().breaker_trips, 0);
    }
}

#[test]
fn packet_breaker_trips_after_threshold_failures() {
    let (mut w, l) = packet_swarm(breaker());
    let mut streak = Vec::new();
    w.run_until(SimTime::from_secs(1200), |w| {
        let s = w.client(l).expect("L").announce_fail_streak();
        if streak.last().map_or(0, |&(_, v)| v) != s {
            streak.push((w.now(), s));
        }
    });
    let secs: Vec<(u64, u32)> = streak
        .iter()
        .map(|&(t, s)| (t.as_micros() / 1_000_000, s))
        .collect();
    assert_eq!(secs, vec![(900, 1), (960, 2), (1080, 3)]);
    let c = w.client(l).expect("L");
    assert!(c.breaker_is_open());
    assert_eq!(c.stats().breaker_trips, 1);
    // The open breaker parks the next probe a full cooloff (300 s) out.
    let at = packet_first_success(&mut w, SimTime::from_secs(1200));
    assert_eq!(at, SimTime::from_secs(1380));
    let c = w.client(l).expect("L");
    assert_eq!(c.announce_fail_streak(), 0);
    assert!(!c.breaker_is_open());
    assert_eq!(c.stats().breaker_trips, 1);
}

// ----------------------------------------------------------------------
// Flow world
// ----------------------------------------------------------------------

/// `(world, L)`, traced, with the tracker down since [`OUTAGE_AT`].
fn flow_swarm(cfg: FlowConfig, resilience: ResilienceConfig) -> (FlowWorld, usize) {
    let torrent = TorrentSpec::from_metainfo(&meta(), 64 * 1024);
    let mut w = FlowWorld::new(cfg, 7);
    w.enable_trace();
    let nodes: Vec<usize> = (0..3).map(|_| w.add_node(Access::campus())).collect();
    w.add_task(TaskSpec::default_client(nodes[0], torrent, true));
    let mut spec = TaskSpec::default_client(nodes[1], torrent, true);
    spec.make_config = Box::new(move || dialler(resilience));
    let l = w.add_task(spec);
    w.add_task(TaskSpec::default_client(nodes[2], torrent, true));
    w.start();
    w.run_until(OUTAGE_AT, |_| {});
    assert_eq!(
        w.connection_count(l),
        1,
        "L must know only S before the outage"
    );
    w.begin_tracker_outage();
    (w, l)
}

/// `L`'s announce replies as `(second, failed)`.
fn flow_announces(w: &FlowWorld, l: usize) -> Vec<(u64, bool)> {
    let prefix = format!("task {l} announce Periodic");
    w.trace()
        .of_kind(TraceKind::Tracker)
        .filter(|e| e.message.starts_with(&prefix))
        .map(|e| (e.at.as_micros() / 1_000_000, e.message.contains("failed")))
        .collect()
}

#[test]
fn flow_unarmed_retries_climb_the_announce_ladder() {
    // A tracker floor other than the client's 60 s default, so the
    // echoed floor is told apart from a reset one.
    let cfg = FlowConfig {
        tracker: TrackerConfig {
            min_interval: SimDuration::from_secs(90),
            ..TrackerConfig::default()
        },
        ..FlowConfig::default()
    };
    let (mut w, l) = flow_swarm(cfg, ResilienceConfig::default());
    w.run_until(SimTime::from_secs(1100), |w| {
        if let Some(c) = w.client(l) {
            assert_eq!(
                c.min_reannounce(),
                SimDuration::from_secs(90),
                "served floor echoed"
            );
            assert_eq!(
                c.announce_fail_streak(),
                0,
                "unarmed: no failures reach the client"
            );
        }
    });
    w.end_tracker_outage();
    w.run_until(SimTime::from_secs(1700), |_| {});
    // Announce at 901 s, reply 1 s later; retries 60, 120, 240, 240 s
    // after each failed reply.
    assert_eq!(
        flow_announces(&w, l),
        vec![(902, true), (963, true), (1084, true), (1325, false)]
    );
    assert_eq!(w.connection_count(l), 2, "L reached M after the outage");
    assert_eq!(w.task_pex_stats(l).3, 0, "no breaker trips");
}

#[test]
fn flow_breaker_trips_after_threshold_failures() {
    let (mut w, l) = flow_swarm(FlowConfig::default(), breaker());
    w.run_until(SimTime::from_secs(1200), |_| {});
    let c = w.client(l).expect("L");
    assert_eq!(c.announce_fail_streak(), 3);
    assert!(c.breaker_is_open());
    assert_eq!(c.stats().breaker_trips, 1);
    w.end_tracker_outage();
    w.run_until(SimTime::from_secs(1700), |_| {});
    // 60 and 120 s up the ladder, then the 300 s cooloff.
    assert_eq!(
        flow_announces(&w, l),
        vec![(902, true), (963, true), (1084, true), (1385, false)]
    );
    let c = w.client(l).expect("L");
    assert_eq!(c.announce_fail_streak(), 0);
    assert_eq!(c.stats().breaker_trips, 1);
    assert_eq!(w.connection_count(l), 2, "L reached M after the outage");
}

#[test]
fn flow_stop_task_announce_is_lost_to_an_outage() {
    let (mut w, l) = flow_swarm(FlowConfig::default(), ResilienceConfig::default());
    let before = w.tracker_shard_announces(0);
    w.stop_task(l, true);
    assert_eq!(
        w.tracker_shard_announces(0),
        before,
        "a Stopped announce reached a tracker that is down"
    );
    assert!(w.client(l).is_none());
    // With the tracker back, a stopping peer's announce is served.
    w.end_tracker_outage();
    w.stop_task(0, true);
    assert_eq!(w.tracker_shard_announces(0), before + 1);
}
