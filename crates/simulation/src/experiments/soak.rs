//! **Chaos soak** — named fault scenarios that prove the swarm heals
//! (`all_figures -- --only soak [--seed <seed>]`).
//!
//! Not a paper figure: the robustness harness for the connection
//! lifecycle layer. Each scenario composes [`FaultPlan`] windows —
//! tracker outages, black holes, address churn, loss bursts, bandwidth
//! squeezes, crashes, including all of them at once — against a small
//! swarm of **armed** clients ([`ResilienceConfig::armed`]) with the
//! stall watchdog on. After every fault window closes the harness
//! measures *time to recover*: how long until every alive, incomplete
//! leech makes fresh piece progress again. A window that never recovers
//! within the budget panics the run — liveness is asserted, not
//! reported. The full [`InvariantChecker`] runs throughout, and every
//! observable (schedules, recovery times, final progress) is a pure
//! function of the seed, so a failing seed replays byte-identically.
//!
//! [`ResilienceConfig::armed`]: bittorrent::lifecycle::ResilienceConfig::armed

use super::common::{synthetic_torrent, PIECE_LENGTH};
use crate::flow::{Access, FlowConfig, FlowWorld, TaskKey, TaskSpec};
use crate::harness::SweepRunner;
use crate::invariants::InvariantChecker;
use crate::report::{pct, Table};
use bittorrent::client::ClientConfig;
use bittorrent::lifecycle::ResilienceConfig;
use metrics::handle::MetricsHandle;
use metrics::stats::median;
use simnet::addr::NodeId;
use simnet::fault::{FaultKind, FaultPlan, FaultPlanConfig};
use simnet::time::{SimDuration, SimTime};

/// Base seed of the soak sweep (pinned by the determinism tests).
pub const SOAK_SEED: u64 = 0x50AC;

/// Initial completion spread of the fixed leeches (mutual interest).
const HEAD_START: f64 = 0.5;
/// Per-connection stall watchdog (always on in the soak).
const STALL_TIMEOUT: SimDuration = SimDuration::from_secs(15);

/// Parameters of the chaos soak.
#[derive(Clone, Debug)]
pub struct SoakParams {
    /// File size per swarm — big enough that the transfer outlasts the
    /// fault schedule (a completed swarm recovers trivially).
    pub file_size: u64,
    /// Recovery budget after each fault window; exceeding it panics.
    pub recovery_timeout: SimDuration,
    /// Drain time after the last window's recovery.
    pub tail: SimDuration,
    /// Runs per scenario.
    pub runs: u64,
}

impl SoakParams {
    /// CI-sized preset.
    pub fn quick() -> Self {
        SoakParams {
            file_size: 32 * 1024 * 1024,
            recovery_timeout: SimDuration::from_secs(240),
            tail: SimDuration::from_secs(30),
            runs: 1,
        }
    }

    /// Paper-scale preset: larger file, longer budgets, more runs.
    pub fn paper() -> Self {
        SoakParams {
            file_size: 64 * 1024 * 1024,
            recovery_timeout: SimDuration::from_secs(300),
            tail: SimDuration::from_secs(60),
            runs: 2,
        }
    }
}

/// The fixed soak topology, as fault-plan handles.
pub struct Topo {
    /// The campus seed.
    pub seed: NodeId,
    /// The three fixed residential leeches.
    pub leeches: [NodeId; 3],
    /// The wireless mobile leech.
    pub mobile: NodeId,
    /// Every node.
    pub all: Vec<NodeId>,
}

type PlanFn = fn(u64, &Topo) -> FaultPlan;

/// One named chaos scenario.
pub struct Scenario {
    /// Registry-stable name.
    pub name: &'static str,
    /// One-line description for the table.
    pub what: &'static str,
    build: PlanFn,
}

fn at(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

fn tracker_blackout(seed: u64, _t: &Topo) -> FaultPlan {
    let mut p = FaultPlan::empty(seed);
    p.push(at(20), FaultKind::TrackerOutage { duration: secs(30) });
    p.push(at(90), FaultKind::TrackerOutage { duration: secs(45) });
    p
}

fn blackhole_storm(seed: u64, t: &Topo) -> FaultPlan {
    let mut p = FaultPlan::empty(seed);
    p.push(
        at(15),
        FaultKind::LinkBlackhole {
            node: t.seed,
            duration: secs(20),
        },
    );
    p.push(
        at(40),
        FaultKind::LinkBlackhole {
            node: t.leeches[0],
            duration: secs(15),
        },
    );
    p.push(
        at(45),
        FaultKind::LinkBlackhole {
            node: t.leeches[1],
            duration: secs(15),
        },
    );
    p
}

fn churn_wave(seed: u64, t: &Topo) -> FaultPlan {
    let mut p = FaultPlan::empty(seed);
    for s in [20, 50, 80] {
        p.push(at(s), FaultKind::AddressChurn { node: t.mobile });
    }
    p
}

fn loss_siege(seed: u64, t: &Topo) -> FaultPlan {
    let mut p = FaultPlan::empty(seed);
    p.push(
        at(15),
        FaultKind::LossBurst {
            node: t.mobile,
            ber: 1e-3,
            duration: secs(30),
        },
    );
    p.push(
        at(70),
        FaultKind::LossBurst {
            node: t.mobile,
            ber: 1e-3,
            duration: secs(25),
        },
    );
    p
}

fn squeeze_cycle(seed: u64, t: &Topo) -> FaultPlan {
    let mut p = FaultPlan::empty(seed);
    p.push(
        at(20),
        FaultKind::BandwidthSqueeze {
            node: t.seed,
            factor: 0.05,
            duration: secs(25),
        },
    );
    p.push(
        at(60),
        FaultKind::BandwidthSqueeze {
            node: t.leeches[1],
            factor: 0.02,
            duration: secs(20),
        },
    );
    p
}

fn crash_restart(seed: u64, t: &Topo) -> FaultPlan {
    let mut p = FaultPlan::empty(seed);
    p.push(
        at(25),
        FaultKind::PeerCrash {
            node: t.leeches[2],
            downtime: secs(20),
        },
    );
    p.push(
        at(70),
        FaultKind::PeerCrash {
            node: t.mobile,
            downtime: secs(15),
        },
    );
    p
}

fn triple_threat(seed: u64, t: &Topo) -> FaultPlan {
    // The ISSUE's worst case: tracker outage, seed black hole, and a
    // mobile hand-off all open at once.
    let mut p = FaultPlan::empty(seed);
    p.push(at(20), FaultKind::TrackerOutage { duration: secs(40) });
    p.push(
        at(25),
        FaultKind::LinkBlackhole {
            node: t.seed,
            duration: secs(25),
        },
    );
    p.push(at(35), FaultKind::AddressChurn { node: t.mobile });
    p
}

fn rolling_handoffs(seed: u64, t: &Topo) -> FaultPlan {
    // Hand-offs before, during, and after a tracker outage: the churn at
    // 60 s strands the mobile leech peerless until announces get through.
    let mut p = FaultPlan::empty(seed);
    p.push(at(30), FaultKind::TrackerOutage { duration: secs(50) });
    for s in [40, 60, 100] {
        p.push(at(s), FaultKind::AddressChurn { node: t.mobile });
    }
    p
}

fn full_chaos(seed: u64, t: &Topo) -> FaultPlan {
    // A seeded random plan on top of the hand-written ones. Crashes are
    // left out: the generator may crash the only seed, and a seedless
    // swarm can plateau without violating liveness.
    let mut cfg = FaultPlanConfig::new(secs(120), t.all.clone());
    cfg.events = 8;
    cfg.tracker_outages = true;
    cfg.crashes = false;
    FaultPlan::generate(seed, &cfg)
}

/// Every named scenario, in registry order.
pub static SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "tracker-blackout",
        what: "two tracker outages back to back",
        build: tracker_blackout,
    },
    Scenario {
        name: "blackhole-storm",
        what: "seed black-holed, then two leeches overlapping",
        build: blackhole_storm,
    },
    Scenario {
        name: "churn-wave",
        what: "three mobile hand-offs in quick succession",
        build: churn_wave,
    },
    Scenario {
        name: "loss-siege",
        what: "repeated loss bursts on the wireless leech",
        build: loss_siege,
    },
    Scenario {
        name: "squeeze-cycle",
        what: "bandwidth squeezes on seed then leech",
        build: squeeze_cycle,
    },
    Scenario {
        name: "crash-restart",
        what: "leech and mobile crash and restart",
        build: crash_restart,
    },
    Scenario {
        name: "triple-threat",
        what: "tracker outage + seed black hole + hand-off at once",
        build: triple_threat,
    },
    Scenario {
        name: "rolling-handoffs",
        what: "hand-offs before, during, and after a tracker outage",
        build: rolling_handoffs,
    },
    Scenario {
        name: "full-chaos",
        what: "seeded random 8-event plan (no crashes)",
        build: full_chaos,
    },
];

/// One scenario's deterministic observables.
#[derive(Clone, Debug, PartialEq)]
pub struct SoakOutcome {
    /// `FaultPlan::render()` of the injected schedule.
    pub schedule: String,
    /// Fault actions (window begins/ends) actually applied.
    pub applied: usize,
    /// Invariant passes completed with zero violations.
    pub checks: u64,
    /// Seconds from each window's close to fresh swarm-wide progress,
    /// in window-close order.
    pub time_to_recover: Vec<f64>,
    /// Final completion fraction of every leech.
    pub progress: Vec<f64>,
}

/// Every alive, incomplete leech has made piece progress past `base`.
fn healed(w: &FlowWorld, leeches: &[TaskKey], base: &[f64]) -> bool {
    leeches.iter().zip(base).all(|(&t, &b)| {
        let p = w.progress_fraction(t);
        p >= 1.0 || !w.node_alive(w.task_node(t)) || p > b
    })
}

/// Runs one scenario and measures recovery after every fault window.
///
/// # Panics
///
/// Panics when an invariant is violated or a window's recovery exceeds
/// `params.recovery_timeout` — the soak asserts liveness.
pub fn run_soak_scenario(
    scenario: &Scenario,
    params: &SoakParams,
    metrics: &MetricsHandle,
    seed: u64,
) -> SoakOutcome {
    let torrent = synthetic_torrent("soak.bin", PIECE_LENGTH, params.file_size, seed);
    let mut w = FlowWorld::new(
        FlowConfig {
            stall_timeout: Some(STALL_TIMEOUT),
            ..FlowConfig::default()
        },
        seed,
    );
    w.set_metrics(metrics);
    let armed = || {
        Box::new(|| ClientConfig {
            resilience: ResilienceConfig::armed(),
            ..ClientConfig::default()
        }) as Box<dyn Fn() -> ClientConfig>
    };

    let seed_node = w.add_node(Access::campus());
    let mut seed_spec = TaskSpec::default_client(seed_node, torrent, true);
    seed_spec.make_config = armed();
    w.add_task(seed_spec);

    let mut leeches: Vec<TaskKey> = Vec::new();
    let mut fixed_nodes = [NodeId(0); 3];
    for (i, slot) in fixed_nodes.iter_mut().enumerate() {
        let n = w.add_node(Access::residential());
        *slot = NodeId(n as u32);
        let mut spec = TaskSpec::default_client(n, torrent, false);
        spec.make_config = armed();
        spec.start_fraction = Some(HEAD_START * (i + 1) as f64 / 4.0);
        leeches.push(w.add_task(spec));
    }
    let mobile_node = w.add_node(Access::Wireless {
        capacity: 2_000_000.0 / 8.0,
    });
    let mut mobile_spec = TaskSpec::default_client(mobile_node, torrent, false);
    mobile_spec.make_config = armed();
    leeches.push(w.add_task(mobile_spec));

    let topo = Topo {
        seed: NodeId(seed_node as u32),
        leeches: fixed_nodes,
        mobile: NodeId(mobile_node as u32),
        all: (0..w.node_count()).map(|n| NodeId(n as u32)).collect(),
    };
    let plan = (scenario.build)(seed, &topo);
    // When each fault window closes (its effect is fully lifted).
    let mut ends: Vec<SimTime> = plan
        .events()
        .iter()
        .map(|e| e.at + e.kind.duration())
        .collect();
    ends.sort_unstable();
    ends.dedup();

    w.set_fault_plan(&plan);
    let mut ck = InvariantChecker::new();
    w.start();

    // The world applies the plan on every tick (fault times are exact);
    // the full invariant pass is throttled to once per virtual second.
    let mut next_check = SimTime::ZERO;
    let mut drive = |w: &mut FlowWorld| {
        if w.now() >= next_check {
            ck.check_flow(w);
            next_check = w.now() + SimDuration::from_secs(1);
        }
    };

    let mut time_to_recover = Vec::with_capacity(ends.len());
    for (i, &end) in ends.iter().enumerate() {
        w.run_driven_until(end, &mut drive, |_| false);
        let base: Vec<f64> = leeches.iter().map(|&t| w.progress_fraction(t)).collect();
        let deadline = end + params.recovery_timeout;
        let recovered = healed(&w, &leeches, &base)
            || w.run_driven_until(deadline, &mut drive, |w| healed(w, &leeches, &base));
        assert!(
            recovered,
            "soak '{}' window {i} (closed {end}) did not recover within {}",
            scenario.name, params.recovery_timeout
        );
        time_to_recover.push(w.now().saturating_since(end).as_secs_f64());
    }
    let drain = w.now() + params.tail;
    w.run_driven_until(drain, &mut drive, |_| false);

    SoakOutcome {
        schedule: plan.render(),
        applied: w.faults_applied(),
        checks: ck.checks(),
        time_to_recover,
        progress: leeches.iter().map(|&t| w.progress_fraction(t)).collect(),
    }
}

/// One scenario's sweep result.
#[derive(Clone, Debug, PartialEq)]
pub struct SoakPoint {
    /// Scenario name.
    pub name: &'static str,
    /// One-line description.
    pub what: &'static str,
    /// Run-0 outcome (deterministic; pinned by tests).
    pub outcome: SoakOutcome,
    /// Median time-to-recover over run 0's windows, seconds.
    pub median_ttr: f64,
    /// Worst time-to-recover over run 0's windows, seconds.
    pub worst_ttr: f64,
}

/// Runs every scenario on an explicit metrics handle and base seed.
pub fn run_soak_with(
    params: &SoakParams,
    metrics: &MetricsHandle,
    base_seed: u64,
) -> Vec<SoakPoint> {
    let idxs: Vec<usize> = (0..SCENARIOS.len()).collect();
    let runner = SweepRunner::new("soak", base_seed).with_metrics(metrics);
    let cells = runner.run(&idxs, params.runs as usize, |&i, cell| {
        // Rough virtual length: the plans close within ~150 s and each
        // window's recovery is bounded by the budget.
        cell.add_virtual_secs(300.0);
        let handle = if cell.point == 0 && cell.run == 0 {
            metrics.clone()
        } else {
            MetricsHandle::disabled()
        };
        run_soak_scenario(&SCENARIOS[i], params, &handle, cell.seed)
    });
    let points: Vec<SoakPoint> = idxs
        .iter()
        .zip(cells)
        .map(|(&i, mut runs)| {
            let outcome = runs.swap_remove(0);
            SoakPoint {
                name: SCENARIOS[i].name,
                what: SCENARIOS[i].what,
                median_ttr: median(&outcome.time_to_recover),
                worst_ttr: outcome
                    .time_to_recover
                    .iter()
                    .fold(0.0f64, |a, &b| a.max(b)),
                outcome,
            }
        })
        .collect();
    // The recovery series and per-scenario gauges are written after the
    // sweep from the deterministic run-0 outcomes — a single sequential
    // writer, so worker count cannot reorder them. The series timestamp
    // is a running window index (scenario windows are not on a shared
    // clock); the value is seconds from window close to recovery.
    let series = metrics.series("soak.time_to_recover");
    let mut k = 0u64;
    for p in &points {
        for &ttr in &p.outcome.time_to_recover {
            series.record(SimTime::ZERO + SimDuration::from_secs(k), ttr);
            k += 1;
        }
        let g = |suffix: &str| metrics.gauge(&format!("soak.{}.{suffix}", p.name));
        g("windows").set(p.outcome.time_to_recover.len() as f64);
        g("median_ttr_s").set(p.median_ttr);
        g("worst_ttr_s").set(p.worst_ttr);
        g("invariant_checks").set(p.outcome.checks as f64);
    }
    points
}

/// Every scenario's injected fault schedule under a `## name — what`
/// heading, blank-line separated: the free text of the soak report.
pub fn soak_schedules(points: &[SoakPoint]) -> String {
    let blocks: Vec<String> = points
        .iter()
        .map(|p| format!("## {} — {}\n{}", p.name, p.what, p.outcome.schedule))
        .collect();
    blocks.join("\n")
}

/// Renders the soak. Every row is a scenario that *passed* its liveness
/// assertions — a failure panics before the table exists.
pub fn soak_table(points: &[SoakPoint]) -> Table {
    let mut t = Table::new("Chaos soak: recovery after every fault window");
    t.headers([
        "scenario",
        "what",
        "windows",
        "faults",
        "checks",
        "median ttr",
        "worst ttr",
        "done",
        "mean progress",
    ]);
    for p in points {
        let done = p.outcome.progress.iter().filter(|&&f| f >= 1.0).count();
        let mean = p.outcome.progress.iter().sum::<f64>() / p.outcome.progress.len().max(1) as f64;
        t.row([
            p.name.to_string(),
            p.what.to_string(),
            p.outcome.time_to_recover.len().to_string(),
            p.outcome.applied.to_string(),
            p.outcome.checks.to_string(),
            format!("{:.1}s", p.median_ttr),
            format!("{:.1}s", p.worst_ttr),
            format!("{done}/{}", p.outcome.progress.len()),
            pct(mean),
        ]);
    }
    t.note("liveness is asserted: any window that fails to recover panics the run");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::with_worker_threads;

    fn tiny() -> SoakParams {
        SoakParams {
            file_size: 8 * 1024 * 1024,
            recovery_timeout: SimDuration::from_secs(240),
            tail: SimDuration::from_secs(10),
            ..SoakParams::quick()
        }
    }

    #[test]
    fn scenario_names_are_unique_and_plans_deterministic() {
        let topo = Topo {
            seed: NodeId(0),
            leeches: [NodeId(1), NodeId(2), NodeId(3)],
            mobile: NodeId(4),
            all: (0..5).map(NodeId).collect(),
        };
        let mut names = std::collections::BTreeSet::new();
        for s in SCENARIOS {
            assert!(names.insert(s.name), "duplicate scenario {}", s.name);
            let a = (s.build)(7, &topo).render();
            let b = (s.build)(7, &topo).render();
            assert_eq!(a, b, "{} plan not deterministic", s.name);
            assert!(!(s.build)(7, &topo).events().is_empty());
        }
        assert!(SCENARIOS.len() >= 8, "the soak needs 8+ named scenarios");
    }

    #[test]
    fn triple_threat_scenario_heals() {
        let s = SCENARIOS
            .iter()
            .find(|s| s.name == "triple-threat")
            .expect("registered");
        let out = run_soak_scenario(s, &tiny(), &MetricsHandle::disabled(), SOAK_SEED);
        assert_eq!(out.time_to_recover.len(), 3);
        assert!(out.applied > 0);
        assert!(out.checks > 0);
        assert!(out.time_to_recover.iter().all(|&t| t.is_finite() && t >= 0.0));
    }

    #[test]
    fn soak_sweep_deterministic_across_worker_counts() {
        let params = tiny();
        let a = with_worker_threads(1, || {
            run_soak_with(&params, &MetricsHandle::disabled(), SOAK_SEED)
        });
        let b = with_worker_threads(4, || {
            run_soak_with(&params, &MetricsHandle::disabled(), SOAK_SEED)
        });
        assert_eq!(a, b, "soak sweep must not depend on worker count");
        assert_eq!(a.len(), SCENARIOS.len());
        assert!(a
            .iter()
            .all(|p| p.outcome.time_to_recover.iter().all(|&t| t.is_finite())));
    }
}
