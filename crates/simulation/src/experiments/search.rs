//! Snapshot-powered diagnostics — the consumers of
//! [`FlowWorld::save`]/[`FlowWorld::restore`]
//! (`all_figures -- --only snapshot|bisect|search [--seed <seed>]`).
//!
//! Three tools ride on the deterministic world snapshot:
//!
//! 1. **Fault-window bisection** ([`bisect_fault_windows`]) — a single
//!    forward pass snapshots the world just before each fault window
//!    begins; when the run ends unhealthy, a binary search over those
//!    snapshots finds the first window whose inclusion breaks the
//!    invariant in `O(log n)` restores instead of `O(n)` full re-runs.
//! 2. **Warm-started sweeps** ([`warm_fork_sweep`]) — one swarm is run
//!    to convergence once, then forked into N fault arms by restoring
//!    the same blob, so a sweep over fault variants pays for warm-up
//!    exactly once.
//! 3. **Seeded fault-schedule search** ([`search_fault_schedules`]) —
//!    a mutation loop over [`FaultPlan`] windows steered toward
//!    invariant *near-misses* (longest time-to-recover, deepest event
//!    queue), evaluating every candidate from the shared warm snapshot.
//!    Every decision comes from one seeded RNG, so the emitted
//!    `(seed, schedule)` artifact replays bit-for-bit.
//!
//! Instrumentation: `snapshot.bytes` (size of the last blob taken) and
//! `search.near_miss` (candidates that came within 10 % of the best
//! score without beating it) land in the metrics registry.

use super::common::{synthetic_torrent, PIECE_LENGTH};
use super::params::ExperimentParams;
use super::registry::Report;
use crate::flow::{Access, FlowConfig, FlowWorld, TaskSpec};
use crate::report::Table;
use bittorrent::client::ClientConfig;
use bittorrent::lifecycle::ResilienceConfig;
use metrics::handle::MetricsHandle;
use simnet::addr::NodeId;
use simnet::fault::{FaultKind, FaultPlan, FaultPlanConfig};
use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};

// ---------------------------------------------------------------------
// The diagnostic swarm
// ---------------------------------------------------------------------

/// The swarm every diagnostic runs against: a campus seed and three
/// armed residential leeches with a stall watchdog — the same shape the
/// chaos soak exercises, small enough that a restore-and-run arm is
/// cheap.
pub fn diagnostic_world(seed: u64, file_size: u64) -> FlowWorld {
    let torrent = synthetic_torrent("diag.bin", PIECE_LENGTH, file_size, seed);
    let cfg = FlowConfig {
        stall_timeout: Some(SimDuration::from_secs(15)),
        ..FlowConfig::default()
    };
    let mut w = FlowWorld::new(cfg, seed);
    let armed = || {
        Box::new(|| ClientConfig {
            resilience: ResilienceConfig::armed(),
            ..ClientConfig::default()
        }) as Box<dyn Fn() -> ClientConfig>
    };
    let s = w.add_node(Access::campus());
    let mut spec = TaskSpec::default_client(s, torrent, true);
    spec.make_config = armed();
    w.add_task(spec);
    for i in 0..3 {
        let n = w.add_node(Access::residential());
        let mut spec = TaskSpec::default_client(n, torrent, false);
        spec.make_config = armed();
        spec.start_fraction = Some(0.2 * (i + 1) as f64);
        w.add_task(spec);
    }
    w.start();
    w
}

/// Default health predicate: every leech finished the download.
pub fn all_leeches_done(w: &FlowWorld) -> bool {
    (1..w.task_count()).all(|t| w.progress_fraction(t) >= 1.0)
}

// ---------------------------------------------------------------------
// (a) Fault-window bisection
// ---------------------------------------------------------------------

/// Result of a bisection run.
#[derive(Clone, Debug)]
pub struct BisectOutcome {
    /// Index (into `plan.events()`) of the first window whose inclusion
    /// breaks the invariant, or `None` when the full run stays healthy.
    pub culprit: Option<usize>,
    /// Snapshot restores spent narrowing it down (`O(log n)`).
    pub restores: usize,
    /// Windows in the plan.
    pub windows: usize,
    /// Total bytes of the per-window snapshots.
    pub snapshot_bytes: u64,
    /// Rendered plan, for the report.
    pub schedule: String,
}

/// Finds the first fault window that breaks `healthy` at `horizon`.
///
/// One forward pass runs the full plan, saving a snapshot immediately
/// before each window begins. If the run ends unhealthy, a binary
/// search over "restore the snapshot before window `k`, replay only the
/// already-begun windows, run fault-free to the horizon" isolates the
/// culprit: the predicate `broken(k)` (the first `k` windows suffice to
/// break the run) is monotone in `k`, so `ceil(log2(n))` restores
/// pin down the smallest breaking prefix.
///
/// # Panics
///
/// Panics when the plan is empty.
pub fn bisect_fault_windows(
    build: &dyn Fn() -> FlowWorld,
    plan: &FaultPlan,
    horizon: SimTime,
    healthy: &dyn Fn(&FlowWorld) -> bool,
    metrics: &MetricsHandle,
) -> BisectOutcome {
    let n = plan.len();
    assert!(n > 0, "cannot bisect an empty fault plan");

    // Forward pass: snapshot just before each window's begin instant.
    let mut w = build();
    w.set_fault_plan(plan);
    let mut snaps: Vec<Vec<u8>> = Vec::with_capacity(n);
    let mut snapshot_bytes = 0u64;
    for e in plan.events() {
        let before = e.at - SimDuration::from_micros(1);
        if before > w.now() {
            w.run_until(before, |_| {});
        }
        let blob = w.save();
        snapshot_bytes += blob.len() as u64;
        snaps.push(blob);
    }
    metrics
        .gauge("snapshot.bytes")
        .set(snaps.last().map_or(0, Vec::len) as f64);
    w.run_until(horizon, |_| {});
    if healthy(&w) {
        return BisectOutcome {
            culprit: None,
            restores: 0,
            windows: n,
            snapshot_bytes,
            schedule: plan.render(),
        };
    }

    // broken(k): restoring the state just before window k and replaying
    // only windows 0..k (their ends included) still ends unhealthy.
    // broken(0) is false (the fault-free base run is healthy by
    // assumption) and broken(n) is true (the forward pass just failed),
    // so binary search finds the smallest breaking prefix.
    let mut restores = 0usize;
    let broken = |k: usize, restores: &mut usize| -> bool {
        *restores += 1;
        let mut trunc = FaultPlan::empty(plan.seed());
        for e in &plan.events()[..k] {
            trunc.push(e.at, e.kind);
        }
        // The truncated timeline is identical to the full one up to the
        // snapshot instant (windows >= k begin later), so the blob's
        // fault cursor carries over.
        let mut w = build();
        w.set_fault_plan(&trunc);
        w.restore(&snaps[k]);
        w.run_until(horizon, |_| {});
        !healthy(&w)
    };
    let (mut lo, mut hi) = (1usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if broken(mid, &mut restores) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    BisectOutcome {
        culprit: Some(lo - 1),
        restores,
        windows: n,
        snapshot_bytes,
        schedule: plan.render(),
    }
}

/// Renders a bisection outcome.
pub fn bisect_table(seed: u64, out: &BisectOutcome) -> Table {
    let mut t = Table::new("Fault-window bisection: first invariant-breaking window");
    t.headers(["seed", "windows", "culprit", "restores", "snapshot bytes"]);
    t.row([
        seed.to_string(),
        out.windows.to_string(),
        out.culprit
            .map_or("none (healthy)".to_string(), |c| format!("#{c}")),
        out.restores.to_string(),
        out.snapshot_bytes.to_string(),
    ]);
    t.note("restores grow as log2(windows): each probe restores a pre-window snapshot");
    t
}

// ---------------------------------------------------------------------
// (b) Warm-started fault sweeps
// ---------------------------------------------------------------------

/// One arm of a warm-started sweep: a named fault plan applied to the
/// shared converged swarm.
#[derive(Clone, Debug)]
pub struct ForkArm {
    /// Label in the report.
    pub name: String,
    /// Faults this arm injects after the fork point.
    pub plan: FaultPlan,
}

/// Outcome of one arm.
#[derive(Clone, Debug)]
pub struct ForkOutcome {
    /// Arm label.
    pub name: String,
    /// Final per-task progress fractions.
    pub progress: Vec<f64>,
    /// Whether the health predicate held at the horizon.
    pub healthy: bool,
    /// Stall-watchdog aborts over the arm.
    pub stall_aborts: u64,
    /// Fault actions applied.
    pub applied: usize,
}

/// Runs one swarm to `warmup`, snapshots it, and forks the blob into
/// one restored world per arm — warm-up cost is paid once no matter how
/// many fault variants the sweep compares.
pub fn warm_fork_sweep(
    build: &dyn Fn() -> FlowWorld,
    warmup: SimTime,
    horizon: SimTime,
    arms: &[ForkArm],
    healthy: &dyn Fn(&FlowWorld) -> bool,
    metrics: &MetricsHandle,
) -> Vec<ForkOutcome> {
    let mut base = build();
    base.run_until(warmup, |_| {});
    let blob = base.save();
    metrics.gauge("snapshot.bytes").set(blob.len() as f64);
    arms.iter()
        .map(|arm| {
            // The base ran without a plan, so the blob's cursor is 0.
            let mut w = build();
            w.set_fault_plan(&arm.plan);
            w.restore(&blob);
            w.run_until(horizon, |_| {});
            ForkOutcome {
                name: arm.name.clone(),
                progress: (0..w.task_count())
                    .map(|t| w.progress_fraction(t))
                    .collect(),
                healthy: healthy(&w),
                stall_aborts: w.stall_aborts(),
                applied: w.faults_applied(),
            }
        })
        .collect()
}

/// Renders a warm-started sweep.
pub fn fork_table(warmup: SimTime, outcomes: &[ForkOutcome]) -> Table {
    let mut t = Table::new("Warm-started fault arms (one warm-up, N forks)");
    t.headers(["arm", "healthy", "faults", "stall aborts", "mean progress"]);
    for o in outcomes {
        let mean = o.progress.iter().sum::<f64>() / o.progress.len().max(1) as f64;
        t.row([
            o.name.clone(),
            o.healthy.to_string(),
            o.applied.to_string(),
            o.stall_aborts.to_string(),
            format!("{:.1}%", mean * 100.0),
        ]);
    }
    t.note(&format!(
        "all arms forked from one snapshot taken at t={:.0}s",
        warmup.as_secs_f64()
    ));
    t
}

// ---------------------------------------------------------------------
// (c) Seeded fault-schedule search
// ---------------------------------------------------------------------

/// Knobs of the schedule searcher.
#[derive(Clone, Debug)]
pub struct SearchParams {
    /// Mutation rounds (one candidate evaluated per round).
    pub rounds: usize,
    /// Fault windows per candidate schedule.
    pub windows: usize,
    /// Fork point: candidates are evaluated from this warm snapshot.
    pub warmup: SimDuration,
    /// Evaluation horizon.
    pub horizon: SimDuration,
    /// Swarm file size.
    pub file_size: u64,
}

impl SearchParams {
    /// CI-sized preset.
    pub fn quick() -> Self {
        SearchParams {
            rounds: 6,
            windows: 4,
            warmup: SimDuration::from_secs(20),
            horizon: SimDuration::from_secs(180),
            file_size: 16 * 1024 * 1024,
        }
    }

    /// Full-scale preset.
    pub fn paper() -> Self {
        SearchParams {
            rounds: 24,
            windows: 6,
            warmup: SimDuration::from_secs(30),
            horizon: SimDuration::from_secs(480),
            file_size: 32 * 1024 * 1024,
        }
    }
}

/// The searcher's score for one candidate schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Severity {
    /// Seconds from the last fault window's end until every leech
    /// finished (the horizon caps it when the swarm never recovers).
    pub time_to_recover: f64,
    /// Event-queue high-water mark over the arm.
    pub queue_peak: usize,
    /// Combined score the search maximises.
    pub score: f64,
}

/// Search result: a reproducible `(seed, schedule)` artifact.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Root seed; together with the schedule this replays the run.
    pub seed: u64,
    /// Severity of the best schedule found.
    pub best: Severity,
    /// Candidates evaluated (initial plan + mutations).
    pub evaluated: usize,
    /// Candidates within 10 % of the best without beating it.
    pub near_misses: u64,
    /// Rendered best schedule.
    pub best_schedule: String,
    /// The machine-readable artifact emitted for replay.
    pub artifact: String,
}

/// One seeded mutation of a schedule: shift a window, rescale its
/// duration, or point it at a different node.
fn mutate(
    plan: &FaultPlan,
    rng: &mut SimRng,
    warmup: SimTime,
    horizon: SimTime,
    nodes: &[NodeId],
) -> FaultPlan {
    let events = plan.events();
    let victim = rng.range(0..events.len());
    let mut out = FaultPlan::empty(plan.seed());
    for (j, e) in events.iter().enumerate() {
        let (mut at, mut kind) = (e.at, e.kind);
        if j == victim {
            match rng.range(0..3u32) {
                0 => {
                    let span = (horizon - SimDuration::from_secs(10))
                        .saturating_since(warmup)
                        .as_micros()
                        .max(1);
                    at = warmup + SimDuration::from_micros(rng.range(0..span));
                }
                1 => {
                    let f = if rng.chance(0.5) { 2.0 } else { 0.5 };
                    if let Some(d) = kind.duration_mut() {
                        *d = SimDuration::from_secs_f64((d.as_secs_f64() * f).clamp(2.0, 120.0));
                    }
                }
                _ => {
                    let node = nodes[rng.range(0..nodes.len())];
                    if let Some(n) = kind.node_mut() {
                        *n = node;
                    }
                }
            }
        }
        out.push(at, kind);
    }
    out
}

fn evaluate(
    build: &dyn Fn() -> FlowWorld,
    blob: &[u8],
    plan: &FaultPlan,
    horizon: SimTime,
) -> Severity {
    let last_end = plan
        .events()
        .iter()
        .map(|e| e.at + e.kind.duration())
        .max()
        .unwrap_or(SimTime::ZERO)
        .min(horizon);
    // The warm base ran without a plan, so the blob's cursor is 0.
    let mut w = build();
    w.set_fault_plan(plan);
    w.restore(blob);
    let healed = w.run_until_condition(horizon, |w| w.now() >= last_end && all_leeches_done(w));
    let heal_time = if healed { w.now() } else { horizon };
    let ttr = heal_time.saturating_since(last_end).as_secs_f64();
    let queue_peak = w.queue_stats().max_live;
    Severity {
        time_to_recover: ttr,
        queue_peak,
        // Recovery latency dominates; queue depth breaks ties so the
        // search prefers schedules that also pressure the scheduler.
        score: ttr + queue_peak as f64 / 10_000.0,
    }
}

/// Greedy seeded search for the nastiest fault schedule: every
/// candidate forks from one warm snapshot, and every random choice
/// flows from `seed`, so the emitted artifact replays exactly.
pub fn search_fault_schedules(
    params: &SearchParams,
    metrics: &MetricsHandle,
    seed: u64,
) -> SearchOutcome {
    let build = || diagnostic_world(seed, params.file_size);
    let warmup = SimTime::ZERO + params.warmup;
    let horizon = SimTime::ZERO + params.horizon;
    let mut base = build();
    base.run_until(warmup, |_| {});
    let blob = base.save();
    metrics.gauge("snapshot.bytes").set(blob.len() as f64);

    let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
    let mut rng = SimRng::new(seed);
    // Seed schedule: a generated mix, re-timed into (warmup, horizon).
    let gen = FaultPlan::generate(
        seed,
        &FaultPlanConfig::new(params.horizon, nodes.clone()),
    );
    let span = (horizon - SimDuration::from_secs(10)).saturating_since(warmup);
    let mut best_plan = FaultPlan::empty(seed);
    for e in gen.events().iter().take(params.windows) {
        let frac = e.at.as_micros() as f64 / params.horizon.as_micros().max(1) as f64;
        let at = warmup + SimDuration::from_micros((span.as_micros() as f64 * frac) as u64);
        best_plan.push(at, e.kind);
    }
    let mut best = evaluate(&build, &blob, &best_plan, horizon);
    let mut evaluated = 1usize;
    let mut near_misses = 0u64;
    let near_miss_gauge = metrics.gauge("search.near_miss");
    near_miss_gauge.set(0.0);

    for _ in 0..params.rounds {
        let cand = mutate(&best_plan, &mut rng, warmup, horizon, &nodes);
        let sev = evaluate(&build, &blob, &cand, horizon);
        evaluated += 1;
        if sev.score > best.score {
            best_plan = cand;
            best = sev;
        } else if sev.score >= 0.9 * best.score {
            near_misses += 1;
            near_miss_gauge.set(near_misses as f64);
        }
    }

    let best_schedule = best_plan.render();
    let artifact = format!(
        "wp2p-fault-search v1\nseed={seed}\nscore={:.6}\nttr={:.6}\nqueue_peak={}\n{}",
        best.score, best.time_to_recover, best.queue_peak, best_schedule
    );
    SearchOutcome {
        seed,
        best,
        evaluated,
        near_misses,
        best_schedule,
        artifact,
    }
}

/// Renders a search outcome.
pub fn search_table(out: &SearchOutcome) -> Table {
    let mut t = Table::new("Seeded fault-schedule search: worst schedule found");
    t.headers([
        "seed",
        "evaluated",
        "near misses",
        "ttr",
        "queue peak",
        "score",
    ]);
    t.row([
        out.seed.to_string(),
        out.evaluated.to_string(),
        out.near_misses.to_string(),
        format!("{:.1}s", out.best.time_to_recover),
        out.best.queue_peak.to_string(),
        format!("{:.3}", out.best.score),
    ]);
    t.note("replay: the artifact's (seed, schedule) pair reproduces this run exactly");
    t
}

// ---------------------------------------------------------------------
// Snapshot self-check (CI entry point)
// ---------------------------------------------------------------------

/// One scenario's save/restore differential result.
#[derive(Clone, Debug)]
pub struct SnapshotCheck {
    /// Scenario label.
    pub scenario: &'static str,
    /// Blob size at the snapshot point.
    pub bytes: usize,
    /// Whether restore-then-run matched the straight run byte-for-byte.
    pub identical: bool,
}

/// Runs `build`'s world straight to `t2`, saving at `t1` in passing,
/// and compares it with a rebuilt world restored from that blob and run
/// on to `t2`.
fn differential(
    scenario: &'static str,
    build: &dyn Fn() -> FlowWorld,
    t1: SimTime,
    t2: SimTime,
) -> SnapshotCheck {
    let mut straight = build();
    straight.run_until(t1, |_| {});
    let blob = straight.save();
    straight.run_until(t2, |_| {});
    let mut restored = build();
    restored.restore(&blob);
    restored.run_until(t2, |_| {});
    SnapshotCheck {
        scenario,
        bytes: blob.len(),
        identical: straight.save() == restored.save(),
    }
}

/// Runs the save→restore→run differential on two scenarios (calm swarm
/// and mid-fault swarm) and reports blob sizes and byte-identity — the
/// one-command check CI runs on every push.
pub fn snapshot_selfcheck(seed: u64, metrics: &MetricsHandle) -> Vec<SnapshotCheck> {
    let build = || diagnostic_world(seed, 16 * 1024 * 1024);
    let t2 = SimTime::from_secs(90);
    let calm = differential("calm-swarm", &build, SimTime::from_secs(30), t2);
    metrics.gauge("snapshot.bytes").set(calm.bytes as f64);

    // Snapshot inside open fault windows.
    let mut plan = FaultPlan::empty(seed);
    plan.push(
        SimTime::from_secs(15),
        FaultKind::TrackerOutage {
            duration: SimDuration::from_secs(40),
        },
    );
    plan.push(
        SimTime::from_secs(20),
        FaultKind::LinkBlackhole {
            node: NodeId(1),
            duration: SimDuration::from_secs(20),
        },
    );
    let faulted = || {
        let mut w = build();
        w.set_fault_plan(&plan);
        w
    };
    let mid_fault = differential("mid-fault", &faulted, SimTime::from_secs(25), t2);
    vec![calm, mid_fault]
}

/// Renders the self-check.
pub fn selfcheck_table(seed: u64, checks: &[SnapshotCheck]) -> Table {
    let mut t = Table::new("Snapshot self-check: restore-then-run vs straight-through");
    t.headers(["scenario", "seed", "blob bytes", "byte-identical"]);
    for c in checks {
        t.row([
            c.scenario.to_string(),
            seed.to_string(),
            c.bytes.to_string(),
            c.identical.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Registry entries
// ---------------------------------------------------------------------

/// Canonical seed of the registry's `snapshot` entry.
pub const SNAPSHOT_SEED: u64 = 0x5A9;
/// Canonical seed of the registry's `bisect` entry.
pub const BISECT_SEED: u64 = 7;
/// Canonical seed of the registry's `search` entry.
pub const SEARCH_SEED: u64 = 42;

/// The diagnostic swarm at the size the `snapshot` and `bisect` entries
/// run it.
fn entry_world(seed: u64) -> FlowWorld {
    diagnostic_world(seed, 32 * 1024 * 1024)
}

/// A generated plan over the diagnostic swarm's four nodes.
fn generated_plan(seed: u64, span: SimDuration) -> FaultPlan {
    let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
    FaultPlan::generate(seed, &FaultPlanConfig::new(span, nodes))
}

/// The registry's `snapshot` entry: the save/restore differential on
/// two scenarios plus a warm-started fork sweep.
///
/// # Panics
///
/// Panics when a restore-then-run diverges from its straight run —
/// `all_figures` turns that into a nonzero exit.
pub fn snapshot_report(_: &ExperimentParams, metrics: &MetricsHandle, seed: u64) -> Report {
    let checks = snapshot_selfcheck(seed, metrics);
    let diverged: Vec<&str> = checks
        .iter()
        .filter(|c| !c.identical)
        .map(|c| c.scenario)
        .collect();
    assert!(
        diverged.is_empty(),
        "SNAPSHOT CHECK FAILED: restore-then-run diverged on {diverged:?}"
    );
    let warmup = SimTime::from_secs(30);
    let arms: Vec<ForkArm> = (0..4)
        .map(|i| ForkArm {
            name: format!("arm{i}"),
            plan: generated_plan(seed + i, SimDuration::from_secs(150)),
        })
        .collect();
    let outs = warm_fork_sweep(
        &|| entry_world(seed),
        warmup,
        SimTime::from_secs(200),
        &arms,
        &all_leeches_done,
        metrics,
    );
    Report {
        tables: vec![selfcheck_table(seed, &checks), fork_table(warmup, &outs)],
        text: String::new(),
    }
}

/// The registry's `bisect` entry: a generated schedule plus one planted
/// fatal window; the bisection isolates whichever window first breaks
/// liveness.
pub fn bisect_report(_: &ExperimentParams, metrics: &MetricsHandle, seed: u64) -> Report {
    let mut plan = generated_plan(seed, SimDuration::from_secs(120));
    plan.push(
        SimTime::from_secs(45),
        FaultKind::LinkBlackhole {
            node: NodeId(1),
            duration: SimDuration::from_secs(3_600),
        },
    );
    let out = bisect_fault_windows(
        &|| entry_world(seed),
        &plan,
        SimTime::from_secs(200),
        &all_leeches_done,
        metrics,
    );
    Report {
        tables: vec![bisect_table(seed, &out)],
        text: out.schedule,
    }
}

/// The registry's `search` entry: the seeded searcher, with its
/// reproducible `(seed, schedule)` artifact ahead of the summary table.
pub fn search_report(params: &ExperimentParams, metrics: &MetricsHandle, seed: u64) -> Report {
    let params = params.pick(SearchParams::quick, SearchParams::paper);
    let out = search_fault_schedules(&params, metrics, seed);
    Report {
        tables: vec![search_table(&out)],
        text: out.artifact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn searcher_is_reproducible_from_seed() {
        let params = SearchParams {
            rounds: 3,
            windows: 3,
            warmup: SimDuration::from_secs(15),
            horizon: SimDuration::from_secs(90),
            file_size: 8 * 1024 * 1024,
        };
        let a = search_fault_schedules(&params, &MetricsHandle::disabled(), 1234);
        let b = search_fault_schedules(&params, &MetricsHandle::disabled(), 1234);
        assert_eq!(a.artifact, b.artifact, "same seed must emit same artifact");
        assert_eq!(a.best_schedule, b.best_schedule);
        assert_eq!(a.best.score.to_bits(), b.best.score.to_bits());
        assert_eq!(a.evaluated, params.rounds + 1);
    }
}
