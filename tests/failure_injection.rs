//! Failure-injection tests: deterministic [`FaultPlan`] scenarios replayed
//! into both worlds, with the swarm-wide invariant checker live throughout.
//!
//! Every scenario installs a seeded fault schedule on the world
//! (`set_fault_plan`; the world applies it from its own run loop) and
//! arms the world's own invariant checker (`arm_invariants`), which
//! then checks every flow tick or packet event in any build profile —
//! an invariant violation panics the test regardless of the scenario's
//! own assertions. The fault-layer diagnostics (window bisection,
//! warm-started fault arms, the snapshot self-check, the chaos soak's
//! replay) follow, through the `experiments` API. The legacy
//! mobility/parameter-change tests at the bottom predate the fault
//! subsystem and stay as independent coverage.

use bittorrent::client::ClientConfig;
use bittorrent::metainfo::Metainfo;
use metrics::handle::MetricsHandle;
use p2p_simulation::experiments::faults::replay_flow;
use p2p_simulation::experiments::search::{
    all_leeches_done, bisect_fault_windows, diagnostic_world, snapshot_selfcheck, warm_fork_sweep,
    ForkArm,
};
use p2p_simulation::experiments::soak::{run_soak_scenario, SoakParams, SCENARIOS};
use p2p_simulation::flow::{Access, FlowConfig, FlowWorld, TaskKey, TaskSpec, TorrentSpec};
use p2p_simulation::packet::{PacketConfig, PacketWorld};
use simnet::addr::NodeId;
use simnet::fault::{FaultKind, FaultPlan};
use simnet::mobility::MobilityProcess;
use simnet::time::{SimDuration, SimTime};
use simnet::wireless::WirelessConfig;

const MB: u64 = 1024 * 1024;

fn spec(len: u64, seed: u64) -> TorrentSpec {
    let meta = Metainfo::synthetic("fi.bin", "tr", 128 * 1024, len, seed);
    TorrentSpec::from_metainfo(&meta, 128 * 1024)
}

/// One seed + one leech flow world; returns `(world, leech_task)`.
fn seed_leech_world(seed: u64, len: u64) -> (FlowWorld, TaskKey) {
    let torrent = spec(len, seed);
    let mut w = FlowWorld::new(FlowConfig::default(), seed);
    let sn = w.add_node(Access::campus());
    w.add_task(TaskSpec::default_client(sn, torrent, true));
    let ln = w.add_node(Access::residential());
    let t = w.add_task(TaskSpec::default_client(ln, torrent, false));
    (w, t)
}

/// Replays `plan` into `w` until `deadline` with invariants checked and
/// `probe` called every tick; returns the number of fault actions
/// applied.
fn run_flow_with_plan(
    w: &mut FlowWorld,
    plan: &FaultPlan,
    deadline: SimTime,
    mut probe: impl FnMut(&FlowWorld),
) -> usize {
    w.set_fault_plan(plan);
    w.arm_invariants();
    w.start();
    w.run_until(deadline, |w| probe(w));
    assert!(w.invariant_checks() > 0, "invariant checker never ran");
    w.faults_applied()
}

// ---------------------------------------------------------------------
// Named FaultPlan scenarios — flow world
// ---------------------------------------------------------------------

/// A severe loss burst on the leech derates its capacity but the
/// download completes with clean accounting.
#[test]
fn scenario_loss_burst_on_leech() {
    let (mut w, t) = seed_leech_world(11, 4 * MB);
    let mut plan = FaultPlan::empty(11);
    plan.push(
        SimTime::from_secs(10),
        FaultKind::LossBurst {
            node: NodeId(1),
            ber: 8e-5,
            duration: SimDuration::from_secs(40),
        },
    );
    let applied = run_flow_with_plan(&mut w, &plan, SimTime::from_secs(300), |_| {});
    assert_eq!(applied, 2, "burst begin + end");
    assert_eq!(w.progress_fraction(t), 1.0);
    assert!(w.downloaded_bytes(t) <= 4 * MB);
}

/// A black-hole stalls the leech completely mid-download; transfer
/// resumes once connectivity returns.
#[test]
fn scenario_blackhole_stalls_then_recovers() {
    // Big enough that the hole (15 s) opens mid-transfer: residential
    // downlink moves ~0.5 MB/s, so 16 MB needs ~32 s of connected time.
    let (mut w, t) = seed_leech_world(12, 16 * MB);
    let mut plan = FaultPlan::empty(12);
    plan.push(
        SimTime::from_secs(15),
        FaultKind::LinkBlackhole {
            node: NodeId(1),
            duration: SimDuration::from_secs(60),
        },
    );
    let mut stalled_frac = None;
    run_flow_with_plan(&mut w, &plan, SimTime::from_secs(400), |w| {
        // Sample progress while the hole is open.
        if w.now() > SimTime::from_secs(70) && stalled_frac.is_none() {
            stalled_frac = Some(w.progress_fraction(t));
        }
    });
    let stalled = stalled_frac.expect("sampled");
    assert!(stalled < 1.0, "black-hole should stall the transfer");
    assert_eq!(
        w.progress_fraction(t),
        1.0,
        "recovers after the hole closes"
    );
}

/// Address churn mid-download: progress survives the re-initiation.
#[test]
fn scenario_address_churn_preserves_progress() {
    let (mut w, t) = seed_leech_world(13, 4 * MB);
    let mut plan = FaultPlan::empty(13);
    plan.push(
        SimTime::from_secs(30),
        FaultKind::AddressChurn { node: NodeId(1) },
    );
    plan.push(
        SimTime::from_secs(60),
        FaultKind::AddressChurn { node: NodeId(1) },
    );
    run_flow_with_plan(&mut w, &plan, SimTime::from_secs(400), |_| {});
    assert_eq!(w.progress_fraction(t), 1.0);
    assert!(w.task_generation(t) >= 2, "churn forces re-initiation");
}

/// The tracker is down when the swarm starts: discovery is delayed until
/// the outage ends, then the download proceeds normally.
#[test]
fn scenario_tracker_outage_delays_discovery() {
    let (mut w, t) = seed_leech_world(14, 2 * MB);
    let mut plan = FaultPlan::empty(14);
    plan.push(
        SimTime::from_millis(250),
        FaultKind::TrackerOutage {
            duration: SimDuration::from_secs(90),
        },
    );
    let mut frac_during = None;
    run_flow_with_plan(&mut w, &plan, SimTime::from_secs(500), |w| {
        if w.now() > SimTime::from_secs(80) && frac_during.is_none() {
            frac_during = Some(w.progress_fraction(t));
        }
    });
    assert_eq!(
        frac_during.expect("sampled"),
        0.0,
        "no peers can be discovered while the tracker is down"
    );
    assert_eq!(w.progress_fraction(t), 1.0, "recovers via re-announce");
}

/// A bandwidth squeeze shrinks the leech's pipe; rates stay feasible
/// (checked every tick) and the transfer still completes.
#[test]
fn scenario_bandwidth_squeeze_stays_feasible() {
    let (mut w, t) = seed_leech_world(15, 4 * MB);
    let mut plan = FaultPlan::empty(15);
    plan.push(
        SimTime::from_secs(10),
        FaultKind::BandwidthSqueeze {
            node: NodeId(1),
            factor: 0.15,
            duration: SimDuration::from_secs(120),
        },
    );
    run_flow_with_plan(&mut w, &plan, SimTime::from_secs(500), |_| {});
    assert_eq!(w.progress_fraction(t), 1.0);
}

/// The leech crashes and restarts: verified pieces survive the crash.
#[test]
fn scenario_peer_crash_and_restart_resumes() {
    let (mut w, t) = seed_leech_world(16, 4 * MB);
    let mut plan = FaultPlan::empty(16);
    plan.push(
        SimTime::from_secs(20),
        FaultKind::PeerCrash {
            node: NodeId(1),
            downtime: SimDuration::from_secs(30),
        },
    );
    let applied = run_flow_with_plan(&mut w, &plan, SimTime::from_secs(400), |_| {});
    assert_eq!(applied, 2, "crash + restart");
    assert_eq!(w.progress_fraction(t), 1.0);
    assert!(w.task_generation(t) >= 1, "crash forces re-initiation");
}

/// A wP2P mobile leech with identity retention rides out a churn storm;
/// the invariant checker asserts its peer-id never changes.
#[test]
fn scenario_identity_retention_survives_churn_storm() {
    let torrent = spec(4 * MB, 17);
    let mut w = FlowWorld::new(FlowConfig::default(), 17);
    let sn = w.add_node(Access::campus());
    w.add_task(TaskSpec::default_client(sn, torrent, true));
    let m = w.add_node(Access::Wireless {
        capacity: 300_000.0,
    });
    let t = w.add_task(TaskSpec {
        node: m,
        torrent,
        start_complete: false,
        start_fraction: None,
        start_at: SimTime::ZERO,
        make_config: Box::new(ClientConfig::default),
        wp2p: wp2p::config::WP2pConfig::full(300_000.0),
    });
    let mut plan = FaultPlan::empty(17);
    for k in 0..5 {
        plan.push(
            SimTime::from_secs(20 + 30 * k),
            FaultKind::AddressChurn { node: NodeId(1) },
        );
    }
    run_flow_with_plan(&mut w, &plan, SimTime::from_secs(400), |_| {});
    assert!(w.task_retains_identity(t));
    assert!(w.task_generation(t) >= 5);
    assert!(
        w.progress_fraction(t) > 0.5,
        "churn storm should slow, not stop: {:.2}",
        w.progress_fraction(t)
    );
}

/// Nested tracker outages merge: the inner window's end leaves the
/// tracker down until the outer window closes.
#[test]
fn scenario_nested_tracker_outages_end_at_the_outer_end() {
    let (mut w, _) = seed_leech_world(19, 4 * MB);
    let mut plan = FaultPlan::empty(19);
    for (at, secs) in [(10, 60), (20, 20)] {
        plan.push(
            SimTime::from_secs(at),
            FaultKind::TrackerOutage {
                duration: SimDuration::from_secs(secs),
            },
        );
    }
    let (outer_begin, outer_end) = (SimTime::from_secs(10), SimTime::from_secs(70));
    let applied = run_flow_with_plan(&mut w, &plan, SimTime::from_secs(90), |w| {
        let open = w.now() >= outer_begin && w.now() < outer_end;
        assert_eq!(w.tracker_is_down(), open, "tracker state at {:?}", w.now());
    });
    assert_eq!(applied, 2, "one merged begin + end");
}

/// Overlapping faults on the same node (squeeze + loss burst + churn)
/// compose without corrupting accounting.
#[test]
fn scenario_overlapping_faults_compose() {
    let (mut w, t) = seed_leech_world(18, 4 * MB);
    let mut plan = FaultPlan::empty(18);
    plan.push(
        SimTime::from_secs(10),
        FaultKind::BandwidthSqueeze {
            node: NodeId(1),
            factor: 0.3,
            duration: SimDuration::from_secs(100),
        },
    );
    plan.push(
        SimTime::from_secs(30),
        FaultKind::LossBurst {
            node: NodeId(1),
            ber: 5e-5,
            duration: SimDuration::from_secs(40),
        },
    );
    plan.push(
        SimTime::from_secs(50),
        FaultKind::AddressChurn { node: NodeId(1) },
    );
    run_flow_with_plan(&mut w, &plan, SimTime::from_secs(600), |_| {});
    assert_eq!(w.progress_fraction(t), 1.0);
    assert!(w.downloaded_bytes(t) <= 4 * MB);
}

/// Soak: a generated plan with every fault kind enabled against a small
/// swarm. The assertions are the invariants themselves.
#[test]
fn scenario_generated_plan_soak() {
    let replay = replay_flow(0xF1A7, SimDuration::from_secs(120));
    assert!(replay.applied > 0, "plan applied no faults");
    assert!(replay.checks > 100, "checker barely ran: {}", replay.checks);
    for (i, p) in replay.progress.iter().enumerate() {
        assert!(
            (0.0..=1.0).contains(p),
            "task {i} progress out of range: {p}"
        );
    }
}

/// Same seed ⇒ byte-identical fault schedule and byte-identical world
/// trace (the acceptance bar for reproducing CI failures locally).
#[test]
fn scenario_same_seed_is_byte_identical() {
    let a = replay_flow(0xBEE, SimDuration::from_secs(90));
    let b = replay_flow(0xBEE, SimDuration::from_secs(90));
    assert_eq!(a.schedule, b.schedule, "fault schedules differ across runs");
    assert_eq!(a.trace, b.trace, "world traces differ across runs");
    assert_eq!(a.applied, b.applied);
    assert_eq!(a.progress, b.progress);
    // And a different seed actually produces a different schedule.
    let c = replay_flow(0xBEF, SimDuration::from_secs(90));
    assert_ne!(a.schedule, c.schedule, "seed does not influence the plan");
}

// ---------------------------------------------------------------------
// Named FaultPlan scenarios — packet world
// ---------------------------------------------------------------------

/// Replays `plan` into `w` until `deadline` with invariants checked on
/// every event; returns the number of fault actions applied.
fn run_packet_with_plan(w: &mut PacketWorld, plan: &FaultPlan, deadline: SimTime) -> usize {
    w.set_fault_plan(plan);
    w.arm_invariants();
    w.run_until(deadline, |_| {});
    assert!(w.invariant_checks() > 0, "invariant checker never ran");
    w.faults_applied()
}

/// A per-segment loss burst mid-transfer: TCP rides it out and delivers
/// the stream exactly once.
#[test]
fn scenario_packet_loss_burst_exactly_once() {
    let mut w = PacketWorld::new(PacketConfig::default(), 21);
    let wired = w.add_node(None);
    let mobile = w.add_node(Some(WirelessConfig::wlan_80211g()));
    let conn = w.open_tcp(wired, mobile);
    w.tcp_write(conn, true, 3_000_000);
    let mut plan = FaultPlan::empty(21);
    plan.push(
        SimTime::from_millis(500),
        FaultKind::LossBurst {
            node: NodeId(1),
            ber: 5e-5,
            duration: SimDuration::from_secs(2),
        },
    );
    let applied = run_packet_with_plan(&mut w, &plan, SimTime::from_secs(60));
    assert_eq!(applied, 2);
    assert_eq!(
        w.tcp_delivered(conn, false),
        3_000_000,
        "exactly-once delivery"
    );
    let ep = w.endpoint(conn, true).unwrap();
    assert!(ep.stats().retransmissions > 0, "burst left no scars");
}

/// A black-hole freezes the connection; retransmission recovers the
/// stream after it lifts, with sequence space intact.
#[test]
fn scenario_packet_blackhole_recovers() {
    let mut w = PacketWorld::new(PacketConfig::default(), 22);
    let wired = w.add_node(None);
    let mobile = w.add_node(Some(WirelessConfig::wlan_80211g()));
    let conn = w.open_tcp(wired, mobile);
    w.tcp_write(conn, true, 1_000_000);
    let mut plan = FaultPlan::empty(22);
    plan.push(
        SimTime::from_millis(300),
        FaultKind::LinkBlackhole {
            node: NodeId(1),
            duration: SimDuration::from_secs(3),
        },
    );
    run_packet_with_plan(&mut w, &plan, SimTime::from_secs(120));
    assert_eq!(
        w.tcp_delivered(conn, false),
        1_000_000,
        "recovers after the hole"
    );
}

// ---------------------------------------------------------------------
// Fault-layer diagnostics: bisection, warm forks, self-check, soak
// ---------------------------------------------------------------------

/// A 12-window plan whose only consequential window black-holes a
/// still-incomplete leech for the rest of the run.
fn planted_plan(bad_at: usize) -> FaultPlan {
    let mut p = FaultPlan::empty(99);
    for i in 0..12usize {
        let at = SimTime::from_secs(10 + 6 * i as u64);
        if i == bad_at {
            p.push(
                at,
                FaultKind::LinkBlackhole {
                    node: NodeId(1),
                    duration: SimDuration::from_secs(3_600),
                },
            );
        } else {
            // Harmless blip: 1 s of mild loss on a leech.
            p.push(
                at,
                FaultKind::LossBurst {
                    node: NodeId(1 + (i % 3) as u32),
                    ber: 1e-7,
                    duration: SimDuration::from_secs(1),
                },
            );
        }
    }
    p
}

#[test]
fn bisection_finds_planted_window_in_log_restores() {
    let build = || diagnostic_world(42, 32 * MB);
    let plan = planted_plan(7);
    let out = bisect_fault_windows(
        &build,
        &plan,
        SimTime::from_secs(150),
        &all_leeches_done,
        &MetricsHandle::disabled(),
    );
    assert_eq!(out.culprit, Some(7), "wrong culprit window");
    assert!(
        out.restores <= 4,
        "12 windows must bisect in <=4 restores, used {}",
        out.restores
    );
    assert_eq!(out.windows, 12);
    assert!(out.snapshot_bytes > 0);
}

#[test]
fn bisection_reports_healthy_plans() {
    let build = || diagnostic_world(42, 32 * MB);
    let plan = planted_plan(usize::MAX); // all windows harmless
    let out = bisect_fault_windows(
        &build,
        &plan,
        SimTime::from_secs(150),
        &all_leeches_done,
        &MetricsHandle::disabled(),
    );
    assert_eq!(out.culprit, None);
    assert_eq!(out.restores, 0);
}

#[test]
fn warm_fork_arms_share_one_warmup() {
    let build = || diagnostic_world(7, 32 * MB);
    let mut benign = FaultPlan::empty(1);
    benign.push(
        SimTime::from_secs(40),
        FaultKind::LossBurst {
            node: NodeId(1),
            ber: 1e-7,
            duration: SimDuration::from_secs(1),
        },
    );
    let mut fatal = FaultPlan::empty(2);
    fatal.push(
        SimTime::from_secs(40),
        FaultKind::LinkBlackhole {
            node: NodeId(1),
            duration: SimDuration::from_secs(3_600),
        },
    );
    let arms = [
        ForkArm {
            name: "benign".into(),
            plan: benign,
        },
        ForkArm {
            name: "seed-blackhole".into(),
            plan: fatal,
        },
    ];
    let outs = warm_fork_sweep(
        &build,
        SimTime::from_secs(30),
        SimTime::from_secs(150),
        &arms,
        &all_leeches_done,
        &MetricsHandle::disabled(),
    );
    assert_eq!(outs.len(), 2);
    assert!(outs[0].healthy, "benign arm should finish");
    assert!(!outs[1].healthy, "blackholed-leech arm cannot finish");
}

#[test]
fn selfcheck_passes_on_both_scenarios() {
    let checks = snapshot_selfcheck(5, &MetricsHandle::disabled());
    assert_eq!(checks.len(), 2);
    for c in &checks {
        assert!(c.identical, "{} snapshot diverged", c.scenario);
        assert!(c.bytes > 0);
    }
}

#[test]
fn soak_replays_byte_identically_for_same_seed() {
    let params = SoakParams {
        file_size: 8 * MB,
        recovery_timeout: SimDuration::from_secs(240),
        tail: SimDuration::from_secs(10),
        ..SoakParams::quick()
    };
    let s = &SCENARIOS[1]; // blackhole-storm
    let a = run_soak_scenario(s, &params, &MetricsHandle::disabled(), 9);
    let b = run_soak_scenario(s, &params, &MetricsHandle::disabled(), 9);
    assert_eq!(a, b, "soak scenario diverged between replays");
}

// ---------------------------------------------------------------------
// Legacy scenarios (predate FaultPlan; independent coverage)
// ---------------------------------------------------------------------

/// Seed churn: the only seed flaps on/off; the leech still finishes
/// because progress survives the gaps.
#[test]
fn download_survives_seed_churn() {
    let torrent = spec(8 * MB, 1);
    let mut w = FlowWorld::new(FlowConfig::default(), 1);
    let sn = w.add_node(Access::campus());
    w.add_task(TaskSpec::default_client(sn, torrent, true));
    // The seed itself "moves" every 45 s: its connections black-hole and
    // it reappears at a fresh address.
    w.set_mobility(
        sn,
        MobilityProcess::periodic(SimDuration::from_secs(45), SimDuration::from_secs(5)),
    );
    let ln = w.add_node(Access::residential());
    let t = w.add_task(TaskSpec::default_client(ln, torrent, false));
    w.start();
    w.run_until(SimTime::from_secs(900), |_| {});
    assert!(
        w.progress_fraction(t) > 0.5,
        "churn should slow, not stop, the download: {:.2}",
        w.progress_fraction(t)
    );
    // No piece is ever double-counted across re-initiations.
    assert!(w.downloaded_bytes(t) <= 8 * MB);
}

/// A loss burst mid-transfer: BER spikes 100×, then recovers; TCP rides
/// it out and delivers everything exactly once.
#[test]
fn tcp_survives_mid_run_ber_spike() {
    let mut cfg = PacketConfig::default();
    cfg.tcp.recv_window = 64 * 1024;
    let mut w = PacketWorld::new(cfg, 2);
    let mobile = w.add_node(Some(WirelessConfig {
        bandwidth_bps: 400_000 * 8,
        prop_delay: SimDuration::from_millis(2),
        queue_frames: 64,
        ber: 1e-6,
        per_frame_overhead: SimDuration::ZERO,
    }));
    let fixed = w.add_node(None);
    let conn = w.open_tcp(mobile, fixed);
    w.tcp_write(conn, false, 3_000_000);
    let mut spiked = false;
    let mut recovered = false;
    w.run_until(SimTime::from_secs(120), |w| {
        let t = w.now().as_secs_f64();
        if t > 5.0 && !spiked {
            spiked = true;
            w.set_ber(mobile, 5e-5); // brutal burst
        }
        if t > 12.0 && !recovered {
            recovered = true;
            w.set_ber(mobile, 1e-6);
        }
    });
    assert!(spiked && recovered);
    assert_eq!(
        w.tcp_delivered(conn, true),
        3_000_000,
        "exactly-once delivery"
    );
    let ep = w.endpoint(conn, false).unwrap();
    assert!(ep.stats().retransmissions > 0);
}

/// Dead addresses: a client fed only unroutable peers keeps running,
/// records failures, and picks up real peers from its next announce.
#[test]
fn dials_to_dead_addresses_fail_cleanly() {
    let torrent = spec(2 * MB, 3);
    let mut w = FlowWorld::new(FlowConfig::default(), 3);
    // The seed joins late (after the leech's first announce returns an
    // empty swarm), so the leech must recover via re-announce.
    let ln = w.add_node(Access::residential());
    let t = w.add_task(TaskSpec::default_client(ln, torrent, false));
    let sn = w.add_node(Access::campus());
    let _seed = w.add_task(TaskSpec::default_client(sn, torrent, true));
    w.start();
    w.run_until(SimTime::from_secs(300), |_| {});
    assert!(
        w.progress_fraction(t) > 0.9,
        "leech should find the late seed via re-announce: {:.2}",
        w.progress_fraction(t)
    );
}

/// Extreme mobility (shorter period than the recovery path) never panics
/// and never corrupts progress accounting.
#[test]
fn pathological_mobility_is_stable() {
    let torrent = spec(16 * MB, 4);
    let mut w = FlowWorld::new(FlowConfig::default(), 4);
    let sn = w.add_node(Access::campus());
    w.add_task(TaskSpec::default_client(sn, torrent, true));
    let m = w.add_node(Access::Wireless {
        capacity: 300_000.0,
    });
    let t = w.add_task(TaskSpec {
        node: m,
        torrent,
        start_complete: false,
        start_fraction: None,
        start_at: SimTime::ZERO,
        make_config: Box::new(ClientConfig::default),
        wp2p: wp2p::config::WP2pConfig::full(300_000.0),
    });
    // Hand-off every 10 s with 4 s outages: barely any connected time.
    w.set_mobility(
        m,
        MobilityProcess::periodic(SimDuration::from_secs(10), SimDuration::from_secs(4)),
    );
    w.start();
    w.run_until(SimTime::from_secs(300), |_| {});
    let frac = w.progress_fraction(t);
    assert!((0.0..=1.0).contains(&frac));
    assert!(w.downloaded_bytes(t) <= 16 * MB);
    // The world survived ~20 re-initiations; the series is monotone.
    let pts = w.download_series(t).points();
    assert!(
        pts.windows(2).all(|p| p[1].1 >= p[0].1),
        "series not monotone"
    );
}

/// Stopping a task mid-run releases its swarm slot and the rest of the
/// swarm keeps functioning.
#[test]
fn stopping_tasks_mid_run_is_clean() {
    let torrent = spec(8 * MB, 5);
    let mut w = FlowWorld::new(FlowConfig::default(), 5);
    let sn = w.add_node(Access::campus());
    w.add_task(TaskSpec::default_client(sn, torrent, true));
    let l1 = w.add_node(Access::residential());
    let t1 = w.add_task(TaskSpec::default_client(l1, torrent, false));
    let l2 = w.add_node(Access::residential());
    let t2 = w.add_task(TaskSpec::default_client(l2, torrent, false));
    w.start();
    w.run_until(SimTime::from_secs(40), |_| {});
    w.stop_task(t1, true);
    w.run_until(SimTime::from_secs(240), |_| {});
    assert_eq!(w.progress_fraction(t2), 1.0, "survivor completes");
    assert_eq!(w.connection_count(t1), 0, "stopped task has no connections");
}
