//! Deterministic fault injection.
//!
//! The paper's claims are all claims about behaviour under adversity —
//! lossy wireless legs (§3.2), hand-offs that destroy peer identity
//! (§3.4), seeds that vanish mid-swarm (§5). A [`FaultPlan`] turns that
//! adversity into *data*: a seeded, pre-computed schedule of fault events
//! that a simulation world replays exactly. Same seed ⇒ byte-identical
//! schedule ([`FaultPlan::render`]) ⇒ byte-identical simulation trace, so
//! every failure a fuzzing sweep finds becomes a one-line reproducible
//! regression.
//!
//! The pieces:
//!
//! * [`FaultKind`] / [`FaultEvent`] — the fault vocabulary: loss bursts,
//!   link black-holes, address churn, tracker outages, bandwidth
//!   squeezes, peer crash/restart.
//! * [`FaultPlan`] — an ordered schedule, either hand-built
//!   ([`FaultPlan::push`]) or generated from a seed
//!   ([`FaultPlan::generate`]).
//! * [`FaultHooks`] — the world-side surface. Both simulation worlds
//!   (flow and packet) implement it; each documents how it approximates
//!   faults its model cannot express literally.
//! * [`FaultInjector`] — the replay driver: expands windowed faults into
//!   begin/end actions and applies every action that has come due. Each
//!   world owns one (installed by its `set_fault_plan`) and polls it from
//!   its own run loop; its cursor travels in the world's snapshot.
//!
//! ```
//! use simnet::fault::{FaultPlan, FaultPlanConfig};
//! use simnet::addr::NodeId;
//! use simnet::time::SimDuration;
//!
//! let cfg = FaultPlanConfig::new(SimDuration::from_secs(600), vec![NodeId(1)]);
//! let a = FaultPlan::generate(42, &cfg);
//! let b = FaultPlan::generate(42, &cfg);
//! assert_eq!(a.render(), b.render()); // byte-identical schedule
//! ```

use crate::addr::NodeId;
use crate::rng::SimRng;
use crate::snapshot::{SnapReader, SnapWriter};
use crate::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::{fmt, mem};

/// One kind of injected fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The node's wireless leg turns lossy: bit-error rate `ber` for
    /// `duration`, then back to its pre-fault value.
    LossBurst {
        /// Affected node.
        node: NodeId,
        /// Bit-error rate during the burst.
        ber: f64,
        /// Length of the burst.
        duration: SimDuration,
    },
    /// All traffic to and from the node silently disappears for
    /// `duration` — the link is up as far as both ends can tell, nothing
    /// arrives (the paper's "fixed peers continue to try to reach the
    /// mobile peer").
    LinkBlackhole {
        /// Affected node.
        node: NodeId,
        /// Length of the outage.
        duration: SimDuration,
    },
    /// The node instantly moves to a fresh network address (a hand-off
    /// with a negligible outage window).
    AddressChurn {
        /// Affected node.
        node: NodeId,
    },
    /// The tracker is unreachable for `duration`: announces go
    /// unanswered and register nothing.
    TrackerOutage {
        /// Length of the outage.
        duration: SimDuration,
    },
    /// The node's access capacity is scaled by `factor` (in `(0, 1]`)
    /// for `duration`, then restored.
    BandwidthSqueeze {
        /// Affected node.
        node: NodeId,
        /// Capacity multiplier during the squeeze.
        factor: f64,
        /// Length of the squeeze.
        duration: SimDuration,
    },
    /// The node's client process dies losing all connections, and
    /// restarts `downtime` later from its persisted progress.
    PeerCrash {
        /// Affected node.
        node: NodeId,
        /// Time until the restart.
        downtime: SimDuration,
    },
}

impl FaultKind {
    /// Window length: `duration`, a crash's `downtime`, or zero for the
    /// instantaneous address churn.
    pub fn duration(mut self) -> SimDuration {
        self.duration_mut().map_or(SimDuration::ZERO, |d| *d)
    }

    /// The affected node, for node-scoped kinds.
    pub fn node(mut self) -> Option<NodeId> {
        self.node_mut().copied()
    }

    /// The window length, for kinds that have one.
    pub fn duration_mut(&mut self) -> Option<&mut SimDuration> {
        match self {
            FaultKind::AddressChurn { .. } => None,
            FaultKind::LossBurst { duration, .. }
            | FaultKind::LinkBlackhole { duration, .. }
            | FaultKind::TrackerOutage { duration }
            | FaultKind::BandwidthSqueeze { duration, .. }
            | FaultKind::PeerCrash {
                downtime: duration, ..
            } => Some(duration),
        }
    }

    /// The affected node, for node-scoped kinds.
    pub fn node_mut(&mut self) -> Option<&mut NodeId> {
        match self {
            FaultKind::TrackerOutage { .. } => None,
            FaultKind::LossBurst { node, .. }
            | FaultKind::LinkBlackhole { node, .. }
            | FaultKind::AddressChurn { node }
            | FaultKind::BandwidthSqueeze { node, .. }
            | FaultKind::PeerCrash { node, .. } => Some(node),
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::LossBurst {
                node,
                ber,
                duration,
            } => {
                write!(
                    f,
                    "loss-burst node={} ber={:e} for {}",
                    node.0, ber, duration
                )
            }
            FaultKind::LinkBlackhole { node, duration } => {
                write!(f, "blackhole node={} for {}", node.0, duration)
            }
            FaultKind::AddressChurn { node } => write!(f, "addr-churn node={}", node.0),
            FaultKind::TrackerOutage { duration } => {
                write!(f, "tracker-outage for {}", duration)
            }
            FaultKind::BandwidthSqueeze {
                node,
                factor,
                duration,
            } => write!(
                f,
                "bw-squeeze node={} factor={:.3} for {}",
                node.0, factor, duration
            ),
            FaultKind::PeerCrash { node, downtime } => {
                write!(f, "crash node={} down {}", node.0, downtime)
            }
        }
    }
}

/// A fault scheduled at an absolute virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the fault begins.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// Parameters for seeded plan generation.
#[derive(Clone, Debug)]
pub struct FaultPlanConfig {
    /// Faults are scheduled in `[0, horizon)`.
    pub horizon: SimDuration,
    /// Nodes eligible for node-scoped faults (must be non-empty).
    pub nodes: Vec<NodeId>,
    /// How many fault events to schedule.
    pub events: usize,
    /// Mean window length for windowed faults (exponentially
    /// distributed, clamped to `[1 s, horizon/2]`).
    pub mean_duration: SimDuration,
    /// Include tracker outages in the mix.
    pub tracker_outages: bool,
    /// Include crash/restart in the mix (worlds whose clients cannot be
    /// rebuilt may exclude them).
    pub crashes: bool,
}

impl FaultPlanConfig {
    /// A default mix over `nodes`: 6 events, 30 s mean windows, all
    /// fault kinds enabled.
    pub fn new(horizon: SimDuration, nodes: Vec<NodeId>) -> Self {
        FaultPlanConfig {
            horizon,
            nodes,
            events: 6,
            mean_duration: SimDuration::from_secs(30),
            tracker_outages: true,
            crashes: true,
        }
    }
}

/// A deterministic, ordered fault schedule. See the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan to [`push`](FaultPlan::push) events onto.
    pub fn empty(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Generates a random plan — a pure function of `(seed, cfg)`.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.nodes` is empty or `cfg.horizon` is zero.
    pub fn generate(seed: u64, cfg: &FaultPlanConfig) -> Self {
        assert!(!cfg.nodes.is_empty(), "no fault-eligible nodes");
        assert!(cfg.horizon > SimDuration::ZERO, "zero horizon");
        let root = SimRng::new(seed);
        let mut plan = FaultPlan::empty(seed);
        let horizon_us = cfg.horizon.as_micros();
        for i in 0..cfg.events {
            let mut r = root.fork(i as u64);
            let at = SimTime::from_micros(r.range(0..horizon_us.max(1)));
            let node = *r.choose(&cfg.nodes).expect("nodes non-empty");
            let dur_secs = r
                .exp(cfg.mean_duration.as_secs_f64())
                .clamp(1.0, (cfg.horizon.as_secs_f64() / 2.0).max(1.0));
            let duration = SimDuration::from_micros((dur_secs * 1e6) as u64);
            // Weighted kind choice; indices stay stable so schedules only
            // change when the config changes.
            let kinds: &[u32] = match (cfg.tracker_outages, cfg.crashes) {
                (true, true) => &[0, 1, 2, 3, 4, 5],
                (true, false) => &[0, 1, 2, 3, 4],
                (false, true) => &[0, 1, 2, 4, 5],
                (false, false) => &[0, 1, 2, 4],
            };
            let kind = match *r.choose(kinds).expect("kinds non-empty") {
                0 => FaultKind::LossBurst {
                    node,
                    // 1e-5..1e-4: enough to hurt long frames without
                    // severing the link outright.
                    ber: 1e-5 * 10f64.powf(r.unit()),
                    duration,
                },
                1 => FaultKind::LinkBlackhole { node, duration },
                2 => FaultKind::AddressChurn { node },
                3 => FaultKind::TrackerOutage { duration },
                4 => FaultKind::BandwidthSqueeze {
                    node,
                    factor: 0.1 + 0.6 * r.unit(),
                    duration,
                },
                _ => FaultKind::PeerCrash {
                    node,
                    downtime: duration,
                },
            };
            plan.push(at, kind);
        }
        plan
    }

    /// Adds a fault, keeping the schedule ordered by time (ties keep
    /// insertion order).
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, FaultEvent { at, kind });
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the schedule, one event per line. Byte-identical for
    /// identical `(seed, config)` — the string regression tests pin.
    pub fn render(&self) -> String {
        let mut out = format!("fault plan seed={}\n", self.seed);
        for e in &self.events {
            out.push_str(&format!("[{}] {}\n", e.at, e.kind));
        }
        out
    }
}

/// The world-side fault surface.
///
/// Windowed faults arrive as begin/end pairs; the world remembers
/// whatever baseline it needs to restore. Implementations must tolerate
/// faults targeting nodes where they do not literally apply (e.g. a loss
/// burst on a wired node) by approximating or ignoring them —
/// documented per world.
pub trait FaultHooks {
    /// A loss burst begins on `node`.
    fn begin_loss_burst(&mut self, node: NodeId, ber: f64);
    /// The loss burst on `node` ends; restore the baseline.
    fn end_loss_burst(&mut self, node: NodeId);
    /// All traffic to/from `node` starts silently vanishing.
    fn begin_blackhole(&mut self, node: NodeId);
    /// The black-hole on `node` ends.
    fn end_blackhole(&mut self, node: NodeId);
    /// `node` instantly moves to a fresh address.
    fn churn_address(&mut self, node: NodeId);
    /// The tracker stops answering.
    fn begin_tracker_outage(&mut self);
    /// The tracker is reachable again.
    fn end_tracker_outage(&mut self);
    /// `node`'s capacity is scaled by `factor`.
    fn begin_bandwidth_squeeze(&mut self, node: NodeId, factor: f64);
    /// The squeeze on `node` ends; restore full capacity.
    fn end_bandwidth_squeeze(&mut self, node: NodeId);
    /// `node`'s client crashes (connections become black holes).
    fn crash_peer(&mut self, node: NodeId);
    /// `node`'s client restarts from persisted progress.
    fn restart_peer(&mut self, node: NodeId);
}

/// Replays a [`FaultPlan`] against a world.
///
/// A world owns its injector and calls [`poll`](FaultInjector::poll)
/// from its run loop whenever [`due`](FaultInjector::due) says an action
/// has come; every such action is applied, in order. The default
/// injector has an empty timeline.
#[derive(Clone, Debug, Default)]
pub struct FaultInjector {
    /// `(at, kind, begins)`: each window's begin and end, in time order.
    timeline: Vec<(SimTime, FaultKind, bool)>,
    next: usize,
}

impl FaultInjector {
    /// Expands a plan's windowed faults into an ordered begin/end
    /// timeline (address churn only begins). Overlapping windows of one
    /// kind on one target merge into their union, opened with the first
    /// window's parameters.
    pub fn new(plan: &FaultPlan) -> Self {
        let instant = |kind: &FaultKind| matches!(kind, FaultKind::AddressChurn { .. });
        let mut timeline = Vec::new();
        for e in plan.events() {
            timeline.push((e.at, e.kind, true));
            if !instant(&e.kind) {
                timeline.push((e.at + e.kind.duration(), e.kind, false));
            }
        }
        // Stable by time: simultaneous actions apply in plan order, ends
        // before later starts.
        timeline.sort_by_key(|&(at, ..)| at);
        // A world's end hook lifts its fault outright, so drop a begin
        // inside an open window of the same (kind, target) and an end
        // that leaves one open: an inner window cannot end the outer.
        let mut open = HashMap::new();
        timeline.retain(|&(_, kind, begins)| {
            if instant(&kind) {
                return true;
            }
            let depth = open
                .entry((mem::discriminant(&kind), kind.node()))
                .or_insert(0usize);
            if begins {
                *depth += 1;
                *depth == 1
            } else {
                *depth -= 1;
                *depth == 0
            }
        });
        FaultInjector { timeline, next: 0 }
    }

    /// True when the next action is due at or before `now` — the one
    /// branch a world pays per poll point when nothing is pending.
    #[inline]
    pub fn due(&self, now: SimTime) -> bool {
        self.timeline
            .get(self.next)
            .is_some_and(|&(at, ..)| at <= now)
    }

    /// Applies every action due at or before `now`, the world's current
    /// time. Returns how many actions were applied by this call.
    pub fn poll(&mut self, now: SimTime, hooks: &mut impl FaultHooks) -> usize {
        let mut applied = 0;
        while let Some(&(at, kind, begins)) = self.timeline.get(self.next) {
            if at > now {
                break;
            }
            self.next += 1;
            applied += 1;
            use FaultKind::*;
            match (kind, begins) {
                (LossBurst { node, ber, .. }, true) => hooks.begin_loss_burst(node, ber),
                (LossBurst { node, .. }, false) => hooks.end_loss_burst(node),
                (LinkBlackhole { node, .. }, true) => hooks.begin_blackhole(node),
                (LinkBlackhole { node, .. }, false) => hooks.end_blackhole(node),
                (AddressChurn { node }, _) => hooks.churn_address(node),
                (TrackerOutage { .. }, true) => hooks.begin_tracker_outage(),
                (TrackerOutage { .. }, false) => hooks.end_tracker_outage(),
                (BandwidthSqueeze { node, factor, .. }, true) => {
                    hooks.begin_bandwidth_squeeze(node, factor)
                }
                (BandwidthSqueeze { node, .. }, false) => hooks.end_bandwidth_squeeze(node),
                (PeerCrash { node, .. }, true) => hooks.crash_peer(node),
                (PeerCrash { node, .. }, false) => hooks.restart_peer(node),
            }
        }
        applied
    }

    /// Actions applied so far.
    pub fn applied(&self) -> usize {
        self.next
    }

    /// True when every action has been applied.
    pub fn finished(&self) -> bool {
        self.next >= self.timeline.len()
    }

    /// Writes the cursor, the injector's only mutable state: the
    /// timeline is rebuilt from the plan by the world's builder.
    pub fn snap_cursor(&self, w: &mut SnapWriter) {
        w.put_usize(self.next);
    }

    /// Restores a cursor written by [`snap_cursor`](Self::snap_cursor).
    /// The applied actions' effects live in the restored world state, so
    /// no hook runs.
    ///
    /// # Panics
    ///
    /// Panics when the cursor lies past this injector's timeline (the
    /// blob was saved under a longer plan).
    pub fn unsnap_cursor(&mut self, r: &mut SnapReader<'_>) {
        let next = r.get_usize();
        assert!(
            next <= self.timeline.len(),
            "snapshot fault cursor {next} past a {}-action plan",
            self.timeline.len()
        );
        self.next = next;
    }

    /// Renders the expanded action timeline, one action per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (at, kind, begins) in &self.timeline {
            let edge = if *begins { "begin" } else { "end" };
            out.push_str(&format!("[{at}] {edge} {kind}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FaultPlanConfig {
        FaultPlanConfig::new(
            SimDuration::from_secs(600),
            vec![NodeId(0), NodeId(1), NodeId(2)],
        )
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::generate(7, &cfg());
        let b = FaultPlan::generate(7, &cfg());
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(1, &cfg());
        let b = FaultPlan::generate(2, &cfg());
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn events_are_time_ordered() {
        let p = FaultPlan::generate(3, &cfg());
        assert_eq!(p.len(), cfg().events);
        for w in p.events().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn push_keeps_order() {
        let mut p = FaultPlan::empty(0);
        p.push(
            SimTime::from_secs(10),
            FaultKind::AddressChurn { node: NodeId(0) },
        );
        p.push(
            SimTime::from_secs(5),
            FaultKind::TrackerOutage {
                duration: SimDuration::from_secs(1),
            },
        );
        p.push(
            SimTime::from_secs(10),
            FaultKind::AddressChurn { node: NodeId(1) },
        );
        let times: Vec<u64> = p.events().iter().map(|e| e.at.as_micros()).collect();
        assert_eq!(times, vec![5_000_000, 10_000_000, 10_000_000]);
        // Ties keep insertion order.
        assert_eq!(
            p.events()[1].kind,
            FaultKind::AddressChurn { node: NodeId(0) }
        );
    }

    #[test]
    fn injector_expands_windows() {
        let mut p = FaultPlan::empty(0);
        p.push(
            SimTime::from_secs(1),
            FaultKind::LinkBlackhole {
                node: NodeId(4),
                duration: SimDuration::from_secs(3),
            },
        );
        let inj = FaultInjector::new(&p);
        let r = inj.render();
        assert!(r.contains("begin blackhole node=4"));
        assert!(r.contains("end blackhole node=4"));
        assert_eq!(r.lines().count(), 2);
    }

    /// Records every hook call as a short tag.
    struct Log {
        log: Vec<String>,
    }

    impl FaultHooks for Log {
        fn begin_loss_burst(&mut self, n: NodeId, ber: f64) {
            self.log.push(format!("lb+{} {ber:e}", n.0));
        }
        fn end_loss_burst(&mut self, n: NodeId) {
            self.log.push(format!("lb-{}", n.0));
        }
        fn begin_blackhole(&mut self, n: NodeId) {
            self.log.push(format!("bh+{}", n.0));
        }
        fn end_blackhole(&mut self, n: NodeId) {
            self.log.push(format!("bh-{}", n.0));
        }
        fn churn_address(&mut self, n: NodeId) {
            self.log.push(format!("ac{}", n.0));
        }
        fn begin_tracker_outage(&mut self) {
            self.log.push("to+".into());
        }
        fn end_tracker_outage(&mut self) {
            self.log.push("to-".into());
        }
        fn begin_bandwidth_squeeze(&mut self, n: NodeId, x: f64) {
            self.log.push(format!("sq+{} {x:.3}", n.0));
        }
        fn end_bandwidth_squeeze(&mut self, n: NodeId) {
            self.log.push(format!("sq-{}", n.0));
        }
        fn crash_peer(&mut self, n: NodeId) {
            self.log.push(format!("cr{}", n.0));
        }
        fn restart_peer(&mut self, n: NodeId) {
            self.log.push(format!("rs{}", n.0));
        }
    }

    #[test]
    fn injector_applies_in_order() {
        let mut p = FaultPlan::empty(0);
        p.push(
            SimTime::from_secs(2),
            FaultKind::TrackerOutage {
                duration: SimDuration::from_secs(2),
            },
        );
        p.push(
            SimTime::from_secs(1),
            FaultKind::PeerCrash {
                node: NodeId(0),
                downtime: SimDuration::from_secs(5),
            },
        );
        let mut inj = FaultInjector::new(&p);
        let mut w = Log { log: Vec::new() };
        assert_eq!(inj.poll(SimTime::ZERO, &mut w), 0);
        assert_eq!(inj.poll(SimTime::from_secs(3), &mut w), 2);
        assert_eq!(w.log, vec!["cr0", "to+"]);
        inj.poll(SimTime::from_secs(60), &mut w);
        assert!(inj.finished());
        assert_eq!(w.log, vec!["cr0", "to+", "to-", "rs0"]);
    }

    #[test]
    fn nested_same_kind_windows_merge() {
        let mut p = FaultPlan::empty(0);
        p.push(
            SimTime::from_secs(10),
            FaultKind::TrackerOutage {
                duration: SimDuration::from_secs(60),
            },
        );
        p.push(
            SimTime::from_secs(20),
            FaultKind::TrackerOutage {
                duration: SimDuration::from_secs(20),
            },
        );
        let mut inj = FaultInjector::new(&p);
        assert_eq!(inj.render().lines().count(), 2, "one start, one end");
        let mut w = Log { log: Vec::new() };
        inj.poll(SimTime::from_secs(69), &mut w);
        assert_eq!(w.log, vec!["to+"], "the inner end must not lift the outage");
        inj.poll(SimTime::from_secs(70), &mut w);
        assert_eq!(w.log, vec!["to+", "to-"], "lifts at the outer end");
        assert_eq!(inj.applied(), 2);
    }
}
