//! Seeded fault-plan replay (`all_figures -- --only faults --seed <seed>`).
//!
//! Not a paper figure: a debugging and robustness harness. Given a seed,
//! it generates a deterministic [`FaultPlan`], replays it into a small
//! flow-world swarm *and* a packet-world transfer, and arms both worlds'
//! own [`InvariantChecker`] (release builds included). The same
//! seed always produces byte-identical fault schedules and world traces,
//! so a failing seed found in CI can be replayed locally unchanged.
//!
//! [`InvariantChecker`]: crate::invariants::InvariantChecker

use crate::experiments::common::{populate_swarm, synthetic_torrent, SwarmSetup, PIECE_LENGTH};
use crate::experiments::params::ExperimentParams;
use crate::experiments::registry::Report;
use crate::flow::{Access, FlowConfig, FlowWorld, TaskSpec};
use crate::packet::{PacketConfig, PacketWorld};
use crate::report::Table;
use metrics::handle::MetricsHandle;
use simnet::addr::NodeId;
use simnet::fault::{FaultPlan, FaultPlanConfig};
use simnet::time::{SimDuration, SimTime};
use simnet::wireless::WirelessConfig;

/// Everything a flow-world replay produces, rendered to strings so tests
/// can assert determinism byte-for-byte.
#[derive(Debug)]
pub struct FlowReplay {
    /// `FaultPlan::render()` of the schedule that was injected.
    pub schedule: String,
    /// The world's full event trace after the run.
    pub trace: String,
    /// Fault actions (window begins/ends) actually applied.
    pub applied: usize,
    /// Invariant passes completed with zero violations.
    pub checks: u64,
    /// Final completion fraction of every task.
    pub progress: Vec<f64>,
}

/// Replays the seed's fault plan into a 6-node flow swarm (1 campus
/// seed, 4 residential leeches, 1 wireless mobile leech) for `horizon`.
///
/// Panics if any invariant is violated during the run.
pub fn replay_flow(seed: u64, horizon: SimDuration) -> FlowReplay {
    replay_flow_with(seed, horizon, &MetricsHandle::disabled())
}

/// [`replay_flow`] with the world wired into `handle` (fault events,
/// hand-off latency, per-task series). Pass a disabled handle for the
/// plain replay.
pub fn replay_flow_with(seed: u64, horizon: SimDuration, handle: &MetricsHandle) -> FlowReplay {
    let torrent = synthetic_torrent("faults.bin", PIECE_LENGTH, 4 * 1024 * 1024, seed);
    let mut w = FlowWorld::new(FlowConfig::default(), seed);
    w.set_metrics(handle);
    w.enable_trace();
    let (_seeds, mut tasks) = populate_swarm(&mut w, torrent, &SwarmSetup::small());
    let mobile = w.add_node(Access::Wireless {
        capacity: 2_000_000.0 / 8.0,
    });
    tasks.push(w.add_task(TaskSpec::default_client(mobile, torrent, false)));

    let nodes: Vec<NodeId> = (0..w.node_count()).map(|n| NodeId(n as u32)).collect();
    let mut cfg = FaultPlanConfig::new(horizon, nodes);
    cfg.events = 8;
    cfg.tracker_outages = true;
    cfg.crashes = true;
    let plan = FaultPlan::generate(seed, &cfg);
    w.set_fault_plan(&plan);
    w.arm_invariants();

    w.start();
    w.run_until(SimTime::ZERO + horizon, |_| {});
    FlowReplay {
        schedule: plan.render(),
        trace: w.trace().render(),
        applied: w.faults_applied(),
        checks: w.invariant_checks(),
        progress: tasks.iter().map(|&t| w.progress_fraction(t)).collect(),
    }
}

/// Everything a packet-world replay produces.
#[derive(Debug)]
pub struct PacketReplay {
    /// `FaultPlan::render()` of the schedule that was injected.
    pub schedule: String,
    /// Fault actions actually applied.
    pub applied: usize,
    /// Invariant passes completed with zero violations.
    pub checks: u64,
    /// In-order bytes the receiver got (faults may keep this short of
    /// the [`PACKET_BYTES`] written — a churn event severs the raw
    /// connection).
    pub delivered: u64,
}

/// Bytes the packet replay's sender writes.
pub const PACKET_BYTES: u64 = 16_000_000;

/// Replays the seed's fault plan into a two-node packet world (wired
/// sender, wireless receiver) carrying a [`PACKET_BYTES`] raw TCP
/// transfer.
///
/// Panics if any invariant is violated during the run.
pub fn replay_packet(seed: u64, horizon: SimDuration) -> PacketReplay {
    let mut w = PacketWorld::new(PacketConfig::default(), seed);
    let a = w.add_node(None);
    let b = w.add_node(Some(WirelessConfig::wlan_80211g()));
    let conn = w.open_tcp(a, b);
    // Big enough that the stream is still flowing when the plan's events
    // (all within the first 5 s) fire: a fault after the last simulator
    // event would never be polled.
    w.tcp_write(conn, true, PACKET_BYTES);

    // Concentrate the plan into the transfer's first seconds: the raw
    // stream finishes in single-digit virtual seconds, and a fault after
    // the last event would never be polled.
    let plan_span = SimDuration::from_secs(5).min(horizon);
    let mut cfg = FaultPlanConfig::new(plan_span, vec![NodeId(a as u32), NodeId(b as u32)]);
    cfg.events = 5;
    cfg.tracker_outages = false; // no overlay clients in this world
    cfg.crashes = false;
    let plan = FaultPlan::generate(seed, &cfg);
    w.set_fault_plan(&plan);
    w.arm_invariants();

    w.run_until(SimTime::ZERO + horizon, |_| {});
    PacketReplay {
        schedule: plan.render(),
        applied: w.faults_applied(),
        checks: w.invariant_checks(),
        delivered: w.tcp_delivered(conn, false),
    }
}

/// Summary table for one replayed seed.
pub fn fault_table(seed: u64, flow: &FlowReplay, pkt: &PacketReplay) -> Table {
    let mut t = Table::new(&format!("Fault replay: seed {seed}"));
    t.headers(["world", "fault actions", "invariant checks", "outcome"]);
    let done = flow.progress.iter().filter(|&&p| p >= 1.0).count();
    t.row([
        "flow (6-peer swarm)".to_string(),
        flow.applied.to_string(),
        flow.checks.to_string(),
        format!("{done}/{} tasks complete", flow.progress.len()),
    ]);
    t.row([
        "packet (raw TCP)".to_string(),
        pkt.applied.to_string(),
        pkt.checks.to_string(),
        format!("{} of {PACKET_BYTES} bytes delivered", pkt.delivered),
    ]);
    t.note("zero invariant violations (a violation panics the replay)");
    t
}

/// Canonical seed of the registry's `faults` entry.
pub const FAULTS_SEED: u64 = 42;

/// The registry's `faults` entry: replays the seed's plan into both
/// worlds and reports the flow schedule ahead of the summary table.
/// The preset picks the flow replay's horizon (120 s quick, 600 s paper);
/// the packet replay runs for at most 60 s of it. Only the flow world
/// records into `metrics` — the packet replay restarts the clock at
/// zero, and a dump's trace must stay monotone.
pub fn faults_report(params: &ExperimentParams, metrics: &MetricsHandle, seed: u64) -> Report {
    let horizon = SimDuration::from_secs(params.pick(|| 120, || 600));
    let flow = replay_flow_with(seed, horizon, metrics);
    let pkt = replay_packet(seed, horizon.min(SimDuration::from_secs(60)));
    Report {
        tables: vec![fault_table(seed, &flow, &pkt)],
        text: flow.schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_replay_is_byte_identical_for_same_seed() {
        let a = replay_flow(7, SimDuration::from_secs(60));
        let b = replay_flow(7, SimDuration::from_secs(60));
        assert_eq!(a.schedule, b.schedule, "fault schedule not deterministic");
        assert!(!a.trace.is_empty(), "replay recorded no trace");
        assert_eq!(a.trace, b.trace, "world trace not deterministic");
        assert_eq!(a.progress, b.progress);
        assert!(a.applied > 0, "plan applied no faults");
        assert!(a.checks > 0);
    }

    #[test]
    fn packet_replay_is_deterministic_and_checked() {
        let a = replay_packet(7, SimDuration::from_secs(30));
        let b = replay_packet(7, SimDuration::from_secs(30));
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.delivered, b.delivered);
        assert!(a.checks > 0);
    }
}
