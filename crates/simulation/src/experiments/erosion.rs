//! **Free-rider erosion** — how much of the Fig. 8(b) mobile-host gain
//! survives an adversarial population?
//!
//! The paper evaluates identity retention in a cooperative swarm: every
//! fixed peer plays honest tit-for-tat, so a mobile client that keeps its
//! peer-id across hand-offs re-enters with standing and pulls ahead of one
//! that does not. This experiment erodes that assumption. A fraction `f`
//! of the background leeches run the [`FreeRider`](bittorrent::strategy::FreeRider)
//! strategy (serve nothing, camp optimistic slots); the two Fig. 8(b)
//! mobile probes — one default client, one with identity retention — ride
//! the same swarm, and we sweep `f` from 0 to 40 %.
//!
//! The free-rider assignment is *nested*: leech `i`'s class depends only
//! on `(mix, world seed, i)`, so the 20 % population is a superset of the
//! 10 % one and each share point differs from its neighbour exactly by the
//! newly-defected peers — the sweep measures erosion, not resampling
//! noise. Within one run every share point also reuses the same world
//! seed, so the swarms are identical up to the defections.

use super::common::{populate_swarm_with_mix, synthetic_torrent, SwarmSetup, PIECE_LENGTH};
use super::fig8::add_mobile_probe;
use crate::flow::{Access, FlowConfig, FlowWorld};
use crate::harness::SweepRunner;
use crate::report::{mb, Table};
use bittorrent::client::ClientConfig;
use bittorrent::strategy::PopulationMix;
use metrics::handle::MetricsHandle;
use simnet::time::SimDuration;
use wp2p::config::WP2pConfig;

/// Base seed of the erosion sweep.
pub const EROSION_SEED: u64 = 0xE805;

/// Runs averaged per share point.
const RUNS: usize = 3;

/// Parameters for the erosion sweep.
#[derive(Clone, Debug)]
pub struct ErosionParams {
    /// Free-rider shares to sweep (fractions of background leeches).
    pub shares: Vec<f64>,
    /// File size.
    pub file_size: u64,
    /// Background swarm (its leeches are the mixed population).
    pub swarm: SwarmSetup,
    /// Run length.
    pub duration: SimDuration,
    /// Wireless capacity of the two mobile probes.
    pub wireless_capacity: f64,
}

impl ErosionParams {
    /// CI-sized preset.
    pub fn quick() -> Self {
        ErosionParams {
            shares: vec![0.0, 0.2, 0.4],
            file_size: 48 * 1024 * 1024,
            swarm: SwarmSetup {
                seeds: 2,
                seed_access: Access::Wired {
                    up: 100_000.0,
                    down: 500_000.0,
                },
                leeches: 10,
                leech_access: Access::residential(),
                leech_head_start: 0.5,
            },
            duration: SimDuration::from_mins(10),
            wireless_capacity: 250_000.0,
        }
    }

    /// Paper-scale preset: the Fig. 8(b) swarm with a five-point share
    /// sweep and averaging.
    pub fn paper() -> Self {
        ErosionParams {
            shares: vec![0.0, 0.1, 0.2, 0.3, 0.4],
            file_size: 688 * 1024 * 1024,
            swarm: SwarmSetup {
                seeds: 20,
                seed_access: Access::Wired {
                    up: 150_000.0,
                    down: 500_000.0,
                },
                leeches: 180,
                leech_access: Access::residential(),
                leech_head_start: 0.5,
            },
            duration: SimDuration::from_mins(50),
            wireless_capacity: 500_000.0,
        }
    }
}

/// One share point's result (means over runs).
#[derive(Clone, Debug, PartialEq)]
pub struct ErosionPoint {
    /// Free-rider share of the background leeches.
    pub share: f64,
    /// Free riders actually seated among the leeches (run-0 census).
    pub free_riders: usize,
    /// Mean final bytes of the default mobile probe.
    pub default_bytes: f64,
    /// Mean final bytes of the retaining mobile probe.
    pub retention_bytes: f64,
    /// Mean retention lead (retention − default; the Fig. 8(b) gain).
    pub lead: f64,
}

/// Gauge-name percentage for a share: `0.2` → `20`.
pub fn share_pct(share: f64) -> u32 {
    (share * 100.0).round() as u32
}

/// Runs the erosion sweep.
pub fn run_erosion_with(
    params: &ErosionParams,
    metrics: &MetricsHandle,
    base_seed: u64,
) -> Vec<ErosionPoint> {
    let idxs: Vec<usize> = (0..params.shares.len()).collect();
    let dur = params.duration.as_secs_f64();
    let runner = SweepRunner::new("erosion", base_seed).with_metrics(metrics);
    let cells = runner.run(&idxs, RUNS, |&i, cell| {
        cell.add_virtual_secs(dur);
        let handle = if cell.point == 0 && cell.run == 0 {
            metrics.clone()
        } else {
            MetricsHandle::disabled()
        };
        // The *run* seed, not the cell seed: every share point of one run
        // rides the same world and the same nested mix assignment, so a
        // point differs from its neighbour only by the extra defectors.
        run_erosion_once(params, params.shares[i], &handle, cell.run_seed)
    });
    let points: Vec<ErosionPoint> = idxs
        .iter()
        .zip(cells)
        .map(|(&i, runs)| {
            let n = runs.len() as f64;
            let default_bytes = runs.iter().map(|r| r.default_bytes as f64).sum::<f64>() / n;
            let retention_bytes = runs.iter().map(|r| r.retention_bytes as f64).sum::<f64>() / n;
            ErosionPoint {
                share: params.shares[i],
                free_riders: runs[0].free_riders,
                default_bytes,
                retention_bytes,
                lead: retention_bytes - default_bytes,
            }
        })
        .collect();
    // Single sequential writer after the sweep: worker count cannot
    // reorder the gauges.
    for p in &points {
        let g = |suffix: &str| metrics.gauge(&format!("erosion.fr{}.{suffix}", share_pct(p.share)));
        g("default_bytes").set(p.default_bytes);
        g("retention_bytes").set(p.retention_bytes);
        g("lead").set(p.lead);
        g("free_riders").set(p.free_riders as f64);
    }
    points
}

/// One world: the Fig. 8(b) scenario over a mixed background population.
struct ErosionRun {
    free_riders: usize,
    default_bytes: u64,
    retention_bytes: u64,
}

fn run_erosion_once(
    params: &ErosionParams,
    share: f64,
    metrics: &MetricsHandle,
    world_seed: u64,
) -> ErosionRun {
    let mut cfg = FlowConfig::default();
    cfg.tracker.announce_interval = SimDuration::from_mins(5);
    let mut w = FlowWorld::new(cfg, world_seed);
    w.set_metrics(metrics);
    let torrent = synthetic_torrent("erosion.bin", PIECE_LENGTH, params.file_size, world_seed);
    let mix = PopulationMix::free_riders(share);
    populate_swarm_with_mix(&mut w, torrent, &params.swarm, mix, world_seed);
    let census = mix.census(world_seed, params.swarm.leeches as u64);
    let add_mobile = |w: &mut FlowWorld, retention: bool| {
        let wp2p = if retention {
            WP2pConfig::identity_only()
        } else {
            WP2pConfig::default_client()
        };
        add_mobile_probe(
            w,
            torrent,
            params.wireless_capacity,
            Box::new(ClientConfig::default),
            wp2p,
        )
    };
    let default_task = add_mobile(&mut w, false);
    let retention_task = add_mobile(&mut w, true);
    w.start();
    w.run_for(params.duration, |_| {});
    ErosionRun {
        free_riders: census[1],
        default_bytes: w.downloaded_bytes(default_task),
        retention_bytes: w.downloaded_bytes(retention_task),
    }
}

/// Renders the erosion sweep.
pub fn erosion_table(points: &[ErosionPoint]) -> Table {
    let mut t = Table::new(
        "Free-rider erosion: Fig. 8(b) retention lead vs free-rider share of background leeches",
    );
    t.headers([
        "free riders",
        "seated",
        "default (MB)",
        "retention (MB)",
        "lead (MB)",
    ]);
    for p in points {
        t.row([
            format!("{}%", share_pct(p.share)),
            p.free_riders.to_string(),
            mb(p.default_bytes as u64),
            mb(p.retention_bytes as u64),
            format!("{:.1}", p.lead / (1024.0 * 1024.0)),
        ]);
    }
    t.note(
        "identity retention's gain is earned standing with peers that reciprocate; \
free riders reciprocate with nobody, so each defection shrinks the pool the \
retained identity can collect from and the lead erodes toward zero",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::with_worker_threads;
    use simnet::addr::NodeId;
    use simnet::fault::{FaultPlan, FaultPlanConfig};
    use simnet::time::SimTime;

    fn tiny() -> ErosionParams {
        ErosionParams {
            file_size: 12 * 1024 * 1024,
            duration: SimDuration::from_mins(5),
            swarm: SwarmSetup {
                seeds: 2,
                seed_access: Access::Wired {
                    up: 100_000.0,
                    down: 500_000.0,
                },
                leeches: 8,
                leech_access: Access::residential(),
                leech_head_start: 0.5,
            },
            ..ErosionParams::quick()
        }
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let p = tiny();
        let a = run_erosion_with(&p, &MetricsHandle::disabled(), EROSION_SEED);
        let b = run_erosion_with(&p, &MetricsHandle::disabled(), EROSION_SEED);
        assert_eq!(a, b, "erosion sweep not deterministic for a fixed seed");
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let p = tiny();
        let one = with_worker_threads(1, || {
            run_erosion_with(&p, &MetricsHandle::disabled(), EROSION_SEED)
        });
        let four = with_worker_threads(4, || {
            run_erosion_with(&p, &MetricsHandle::disabled(), EROSION_SEED)
        });
        assert_eq!(one, four, "erosion sweep depends on worker count");
    }

    #[test]
    fn free_riders_erode_the_retention_lead() {
        let p = ErosionParams::quick();
        let points = run_erosion_with(&p, &MetricsHandle::disabled(), EROSION_SEED);
        assert_eq!(points.len(), 3);
        assert!(
            points[0].lead > 0.0,
            "cooperative swarm must reproduce the fig8 retention lead, got {:.0}",
            points[0].lead
        );
        // More defectors never seat fewer free riders (nested assignment)…
        assert!(points.windows(2).all(|w| w[0].free_riders <= w[1].free_riders));
        // …and the lead degrades monotonically with the share, modulo a
        // small tolerance for scheduling noise at these swarm sizes.
        let slack = 0.05 * points[0].lead.abs();
        for w in points.windows(2) {
            assert!(
                w[1].lead <= w[0].lead + slack,
                "lead should not grow with free-rider share: {:.0} -> {:.0} (share {} -> {})",
                w[0].lead,
                w[1].lead,
                w[0].share,
                w[1].share
            );
        }
        assert!(
            points[2].lead < 0.6 * points[0].lead,
            "40% free riders should erode most of the lead: {:.0} vs {:.0}",
            points[2].lead,
            points[0].lead
        );
    }

    /// Satellite of the strategy-determinism contract: a mixed population
    /// under seeded fault injection replays byte-identically, trace
    /// included — the strategy hooks add no hidden nondeterminism to the
    /// fault-replay path.
    #[test]
    fn mixed_population_fault_replay_is_byte_identical() {
        let replay = |seed: u64| {
            let torrent =
                synthetic_torrent("erosion-faults.bin", PIECE_LENGTH, 4 * 1024 * 1024, seed);
            let mut w = FlowWorld::new(FlowConfig::default(), seed);
            let mix = PopulationMix {
                free_rider: 0.25,
                strategic: 0.25,
                hybrid: 0.25,
                hybrid_degrade: 0.5,
            };
            let (_seeds, tasks) = populate_swarm_with_mix(
                &mut w,
                torrent,
                &SwarmSetup::small(),
                mix,
                seed,
            );
            let nodes: Vec<NodeId> = (0..w.node_count()).map(|n| NodeId(n as u32)).collect();
            let horizon = SimDuration::from_secs(60);
            let mut cfg = FaultPlanConfig::new(horizon, nodes);
            cfg.events = 8;
            cfg.tracker_outages = true;
            cfg.crashes = true;
            let plan = FaultPlan::generate(seed, &cfg);
            w.set_fault_plan(&plan);
            w.arm_invariants();
            w.enable_trace();
            w.start();
            w.run_until(SimTime::ZERO + horizon, |_| {});
            let progress: Vec<f64> = tasks.iter().map(|&t| w.progress_fraction(t)).collect();
            (
                plan.render(),
                w.trace().render(),
                w.faults_applied(),
                progress,
            )
        };
        let a = replay(0xE8_05FA);
        let b = replay(0xE8_05FA);
        assert_eq!(a.0, b.0, "fault schedule not deterministic");
        assert!(!a.1.is_empty(), "mixed-population run recorded no trace");
        assert_eq!(a.1, b.1, "mixed-population world trace not deterministic");
        assert_eq!(a.2, b.2);
        assert_eq!(a.3, b.3);
    }
}
