//! **Scale sweep** — swarm-size scaling of the flow world.
//!
//! Not a paper figure: an engineering experiment backing the ROADMAP's
//! large-swarm target. One torrent, swarms of 16 → 2048 peers with a
//! fixed/mobile mix (mobile leeches sit on wireless access with a
//! hand-off schedule), measured for a fixed virtual duration. The
//! per-connection stall watchdog is enabled: a lazy timer armed once per
//! busy spell that re-arms itself on fire while progress keeps landing,
//! so steady transfer costs a timestamp write instead of the old
//! cancel-plus-reschedule churn per tick. The observables are the
//! event-queue health counters the timer-wheel scheduler is meant to
//! improve — events processed, queue-depth high-water mark, cancellation
//! volume — plus swarm progress so a scheduler bug that stalls transfers
//! cannot hide. Wall-clock lives in the repo benchmark (`benchmark/`)
//! and the `scale_sweep` single-cell timer, not here: the registry run
//! must stay deterministic.

use super::common::synthetic_torrent;
use crate::flow::{Access, FlowConfig, FlowWorld, TaskSpec};
use crate::harness::SweepRunner;
use crate::report::{pct, Table};
use metrics::handle::MetricsHandle;
use simnet::mobility::MobilityProcess;
use simnet::time::SimDuration;

/// Base seed of the scale sweep (pinned by the determinism tests).
pub const SCALE_SEED: u64 = 0x5CA1E;

/// Parameters of the scale sweep.
#[derive(Clone, Debug)]
pub struct ScaleParams {
    /// Swarm sizes (total peers per cell).
    pub sizes: Vec<usize>,
    /// Fraction of leeches that are mobile (wireless + hand-offs).
    pub mobile_fraction: f64,
    /// File size per swarm.
    pub file_size: u64,
    /// Piece length.
    pub piece_length: u32,
    /// Measured virtual duration.
    pub duration: SimDuration,
    /// Hand-off period of mobile leeches.
    pub mobility_period: SimDuration,
    /// Hand-off outage of mobile leeches.
    pub outage: SimDuration,
    /// Per-connection stall watchdog (zero disables). The watchdog is
    /// lazy: armed once when a connection turns busy, progress merely
    /// stamps a timestamp, and the timer re-arms itself at
    /// `last_progress + timeout` when it fires early — so a healthy
    /// swarm schedules few timers and cancels almost none.
    pub stall_timeout: SimDuration,
    /// Runs to average (progress only; queue counters come from run 0).
    pub runs: u64,
}

impl ScaleParams {
    /// CI-sized preset.
    pub fn quick() -> Self {
        ScaleParams {
            sizes: vec![16, 64, 256],
            mobile_fraction: 0.25,
            file_size: 8 * 1024 * 1024,
            piece_length: 256 * 1024,
            duration: SimDuration::from_secs(120),
            mobility_period: SimDuration::from_secs(45),
            outage: SimDuration::from_secs(5),
            stall_timeout: SimDuration::from_secs(15),
            runs: 1,
        }
    }

    /// Paper-scale preset: the full 16 → 2048 sweep.
    pub fn paper() -> Self {
        ScaleParams {
            sizes: vec![16, 32, 64, 128, 256, 512, 1024, 2048],
            mobile_fraction: 0.25,
            file_size: 32 * 1024 * 1024,
            piece_length: 256 * 1024,
            duration: SimDuration::from_mins(10),
            mobility_period: SimDuration::from_secs(60),
            outage: SimDuration::from_secs(5),
            stall_timeout: SimDuration::from_secs(15),
            runs: 2,
        }
    }
}

/// One cell's deterministic observables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScaleCell {
    /// Leeches that finished the file within the duration.
    pub completed: usize,
    /// Mean downloaded fraction over all leeches at the end.
    pub mean_progress: f64,
    /// Simulator events processed.
    pub events: u64,
    /// Event-queue depth high-water mark.
    pub queue_peak: usize,
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Cancellations that removed a live event.
    pub cancelled: u64,
    /// Cancellations of already-fired/cancelled tokens.
    pub cancel_noops: u64,
    /// Connections aborted by the stall watchdog.
    pub stall_aborts: u64,
    /// Rate solves that re-filled the whole population.
    pub solver_full: u64,
    /// Rate solves confined to the dirty components.
    pub solver_incremental: u64,
    /// Flow equivalence classes filled across all solves.
    pub solver_class: u64,
    /// Resources visited across all solves (the incremental win shows
    /// up as this growing far slower than `solves × resources`).
    pub solver_resources_touched: u64,
}

/// One point of the sweep (one swarm size).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalePoint {
    /// Total peers in the swarm.
    pub peers: usize,
    /// Seeds among them.
    pub seeds: usize,
    /// Mobile leeches among them.
    pub mobile: usize,
    /// Run-0 observables (deterministic; pinned by tests).
    pub cell: ScaleCell,
    /// Run-0 events per virtual second.
    pub events_per_vsec: f64,
    /// `completed` averaged over runs.
    pub mean_completed: f64,
    /// `mean_progress` averaged over runs.
    pub mean_progress: f64,
}

/// How a swarm of `size` splits into seeds / mobile / fixed leeches.
pub fn swarm_mix(size: usize, mobile_fraction: f64) -> (usize, usize, usize) {
    let seeds = (size / 16).clamp(1, size - 1);
    let leeches = size - seeds;
    let mobile = ((leeches as f64) * mobile_fraction.clamp(0.0, 1.0)).round() as usize;
    (seeds, mobile.min(leeches), leeches - mobile.min(leeches))
}

/// Runs one swarm of `size` peers and collects the queue observables.
pub fn run_scale_once(
    params: &ScaleParams,
    size: usize,
    metrics: &MetricsHandle,
    seed: u64,
) -> ScaleCell {
    let (seeds, mobile, fixed) = swarm_mix(size, params.mobile_fraction);
    let mut w = FlowWorld::new(
        FlowConfig {
            stall_timeout: (params.stall_timeout > SimDuration::ZERO)
                .then_some(params.stall_timeout),
            ..FlowConfig::default()
        },
        seed,
    );
    w.set_metrics(metrics);
    let torrent = synthetic_torrent("scale.bin", params.piece_length, params.file_size, seed);
    for _ in 0..seeds {
        let n = w.add_node(Access::campus());
        w.add_task(TaskSpec::default_client(n, torrent, true));
    }
    let mut leech_tasks = Vec::new();
    let leeches = mobile + fixed;
    for i in 0..leeches {
        // Mobile leeches: shared wireless channel plus a hand-off
        // schedule — every hand-off kills and re-initiates the client,
        // stranding stalled flows for the watchdog to reap.
        let n = if i < mobile {
            let n = w.add_node(Access::Wireless {
                capacity: 100_000.0,
            });
            w.set_mobility(
                n,
                MobilityProcess::with_jitter(params.mobility_period, params.outage, 0.1),
            );
            n
        } else {
            w.add_node(Access::residential())
        };
        let mut spec = TaskSpec::default_client(n, torrent, false);
        // Completion diversity, as in real swarms (mutual interest).
        spec.start_fraction = Some(0.5 * (i + 1) as f64 / (leeches + 1) as f64);
        leech_tasks.push(w.add_task(spec));
    }
    w.start();
    w.run_for(params.duration, |_| {});
    let completed = leech_tasks
        .iter()
        .filter(|&&t| w.completed_at(t).is_some())
        .count();
    let mean_progress = if leech_tasks.is_empty() {
        0.0
    } else {
        leech_tasks
            .iter()
            .map(|&t| w.progress_fraction(t))
            .sum::<f64>()
            / leech_tasks.len() as f64
    };
    let q = w.queue_stats();
    let s = w.solver_stats();
    ScaleCell {
        completed,
        mean_progress,
        events: w.events_processed(),
        queue_peak: q.max_live,
        scheduled: q.scheduled,
        cancelled: q.cancelled,
        cancel_noops: q.cancel_noops,
        stall_aborts: w.stall_aborts(),
        solver_full: s.full_solves,
        solver_incremental: s.incremental_solves,
        solver_class: s.class_solves,
        solver_resources_touched: s.resources_touched,
    }
}

/// Runs the scale sweep on an explicit metrics handle and base seed.
pub fn run_scale_with(
    params: &ScaleParams,
    metrics: &MetricsHandle,
    base_seed: u64,
) -> Vec<ScalePoint> {
    let dur = params.duration.as_secs_f64();
    let runner = SweepRunner::new("scale", base_seed).with_metrics(metrics);
    let cells = runner.run(&params.sizes, params.runs as usize, |&size, cell| {
        cell.add_virtual_secs(dur);
        let handle = if cell.point == 0 && cell.run == 0 {
            metrics.clone()
        } else {
            MetricsHandle::disabled()
        };
        run_scale_once(params, size, &handle, cell.run_seed)
    });
    let points: Vec<ScalePoint> = params
        .sizes
        .iter()
        .zip(cells)
        .map(|(&size, runs)| {
            let (seeds, mobile, _) = swarm_mix(size, params.mobile_fraction);
            let n = runs.len().max(1) as f64;
            ScalePoint {
                peers: size,
                seeds,
                mobile,
                cell: runs[0],
                events_per_vsec: runs[0].events as f64 / dur.max(f64::MIN_POSITIVE),
                mean_completed: runs.iter().map(|c| c.completed as f64).sum::<f64>() / n,
                mean_progress: runs.iter().map(|c| c.mean_progress).sum::<f64>() / n,
            }
        })
        .collect();
    // Per-size queue-health gauges. Written after the sweep from the
    // deterministic run-0 cells, so worker count cannot reorder them.
    for p in &points {
        let g = |suffix: &str| metrics.gauge(&format!("scale.n{}.{suffix}", p.peers));
        g("events").set(p.cell.events as f64);
        g("queue_depth_max").set(p.cell.queue_peak as f64);
        g("cancelled").set(p.cell.cancelled as f64);
        g("cancel_rate").set(p.cell.cancelled as f64 / p.cell.scheduled.max(1) as f64);
        g("stall_aborts").set(p.cell.stall_aborts as f64);
        g("solver_full").set(p.cell.solver_full as f64);
        g("solver_incremental").set(p.cell.solver_incremental as f64);
        g("solver_class").set(p.cell.solver_class as f64);
        g("solver_resources_touched").set(p.cell.solver_resources_touched as f64);
    }
    points
}

/// Renders the sweep. Deliberately no wall-clock column: the table is
/// part of the deterministic report surface.
pub fn scale_table(points: &[ScalePoint]) -> Table {
    let mut t = Table::new("Scale sweep: event-queue health vs swarm size");
    t.headers([
        "peers",
        "seeds",
        "mobile",
        "done",
        "progress",
        "events",
        "ev/vsec",
        "queue peak",
        "cancelled",
        "cancel noop",
        "stall aborts",
        "solves full/incr",
        "classes",
    ]);
    for p in points {
        t.row([
            p.peers.to_string(),
            p.seeds.to_string(),
            p.mobile.to_string(),
            format!("{:.1}", p.mean_completed),
            pct(p.mean_progress),
            p.cell.events.to_string(),
            format!("{:.0}", p.events_per_vsec),
            p.cell.queue_peak.to_string(),
            p.cell.cancelled.to_string(),
            p.cell.cancel_noops.to_string(),
            p.cell.stall_aborts.to_string(),
            format!("{}/{}", p.cell.solver_full, p.cell.solver_incremental),
            p.cell.solver_class.to_string(),
        ]);
    }
    t.note("expect: events grow with swarm size; cancellations stay bounded by schedules");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::with_worker_threads;

    fn tiny() -> ScaleParams {
        ScaleParams {
            sizes: vec![8, 12],
            file_size: 2 * 1024 * 1024,
            duration: SimDuration::from_secs(40),
            runs: 2,
            ..ScaleParams::quick()
        }
    }

    #[test]
    fn swarm_mix_is_sane() {
        for size in [2, 16, 64, 2048] {
            let (seeds, mobile, fixed) = swarm_mix(size, 0.25);
            assert!(seeds >= 1);
            assert_eq!(seeds + mobile + fixed, size);
        }
        // A fully fixed mix has no mobile peers.
        assert_eq!(swarm_mix(64, 0.0).1, 0);
    }

    #[test]
    fn scale_sweep_deterministic_across_worker_counts() {
        let params = tiny();
        let a = with_worker_threads(1, || {
            run_scale_with(&params, &MetricsHandle::disabled(), SCALE_SEED)
        });
        let b = with_worker_threads(4, || {
            run_scale_with(&params, &MetricsHandle::disabled(), SCALE_SEED)
        });
        assert_eq!(a, b, "scale sweep must not depend on worker count");
        assert!(a.iter().all(|p| p.cell.events > 0));
        assert!(a.iter().all(|p| p.mean_progress > 0.0));
    }
}
