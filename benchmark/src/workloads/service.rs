//! `service`: the sharded multi-swarm service tier.

use super::{flow_outcome, flow_slice_metrics, run_sliced, Rep, Size};
use crate::trace::Tracer;
use p2p_simulation::experiments::service::{
    generate_workload, ServiceParams, ServiceWorkload, CLASSES, CLASS_UP,
};
use p2p_simulation::flow::{Access, FlowConfig, FlowWorld, TaskKey, TaskSpec};
use simnet::mobility::MobilityProcess;
use simnet::rng::SimRng;
use simnet::time::SimDuration;
use std::collections::BTreeMap;
use std::time::Instant;

/// Mixed into the run seed so no workload shares a world seed.
const SEED_SALT: u64 = 0x5E71;

/// The tier's shape with the population and horizon cut to fit three
/// repetitions into a run: 96 background swarms (+2 probes) instead of
/// 256, ~3k memberships instead of ~8k, 100 virtual seconds instead of
/// 600, probe files sized to finish inside the horizon. Shard 1 is dark
/// over the middle fifth.
pub fn params(size: Size) -> ServiceParams {
    let (swarms, total_peers, horizon, probe_mib) = match size {
        Size::Full => (96, 3072, 120, 8),
        Size::Smoke => (8, 128, 100, 2),
    };
    ServiceParams {
        swarms,
        total_peers,
        probe_file_size: probe_mib * 1024 * 1024,
        horizon: SimDuration::from_secs(horizon),
        outage_at: SimDuration::from_secs(horizon * 2 / 5),
        outage_len: SimDuration::from_secs(horizon / 5),
        ..ServiceParams::quick()
    }
}

/// Downlink shared by all leeches, bytes/second (as in the experiment).
const LEECH_DOWN: f64 = 4_000_000.0 / 8.0;

/// The service world plus the task keys the checks need.
pub struct BuiltService {
    pub world: FlowWorld,
    /// Leech tasks per swarm, plan order.
    pub swarm_leeches: Vec<Vec<TaskKey>>,
    /// Owning tracker shard of each swarm, plan order.
    pub swarm_shards: Vec<usize>,
}

/// Builds the service world from `generate_workload`'s public plan.
/// Mirrors the experiment's private `build_service_world` draw for draw
/// (the unit test compares shard totals and completions against
/// `run_service_world`), so the benchmark can hold the `FlowWorld`.
pub fn build(params: &ServiceParams, plan: &ServiceWorkload, seed: u64) -> BuiltService {
    let cfg = FlowConfig {
        tracker_shards: params.tracker_shards,
        track_peer_bytes: true,
        ..FlowConfig::default()
    };
    let mut w = FlowWorld::new(cfg, seed);
    let mut rng = SimRng::new(seed).fork(0x5e71_0003);
    let super_nodes: Vec<usize> = (0..plan.super_seeds)
        .map(|_| {
            let n = w.add_node(Access::campus());
            w.set_node_upload_cap(n, Some(params.super_seed_cap));
            n
        })
        .collect();
    let shared_nodes: Vec<usize> = (0..plan.shared_nodes)
        .map(|_| {
            w.add_node(Access::Wired {
                up: 2.0 * CLASS_UP[0],
                down: LEECH_DOWN,
            })
        })
        .collect();
    let mut swarm_leeches = Vec::with_capacity(plan.swarms.len());
    for swarm in &plan.swarms {
        let seed_node = match swarm.super_seed {
            Some(i) => super_nodes[i % super_nodes.len().max(1)],
            None => w.add_node(Access::campus()),
        };
        w.add_task(TaskSpec::default_client(seed_node, swarm.torrent, true));
        let mut leeches = Vec::with_capacity(swarm.leeches.len());
        for l in &swarm.leeches {
            let node = match l.shared_node {
                Some(i) => shared_nodes[i % shared_nodes.len().max(1)],
                None => {
                    let up = CLASS_UP[l.class as usize % CLASSES];
                    w.add_node(if l.mobile.is_some() {
                        Access::Wireless {
                            capacity: up + 2_000_000.0 / 8.0,
                        }
                    } else {
                        Access::Wired {
                            up,
                            down: LEECH_DOWN,
                        }
                    })
                }
            };
            if let Some((period, outage)) = l.mobile {
                w.set_mobility(node, MobilityProcess::with_jitter(period, outage, 0.2));
            }
            let mut spec = TaskSpec::default_client(node, swarm.torrent, false);
            if l.head_start > 0.0 {
                spec.start_fraction = Some(l.head_start);
            }
            spec.start_at = l.start_at;
            leeches.push(w.add_task(spec));
        }
        swarm_leeches.push(leeches);
    }
    for &n in &shared_nodes {
        w.set_node_upload_cap(n, Some(2.0 * CLASS_UP[0] * rng.jitter(1.0, 0.1)));
    }
    BuiltService {
        world: w,
        swarm_leeches,
        swarm_shards: plan.swarms.iter().map(|s| s.shard).collect(),
    }
}

pub fn setup(size: Size, seed: u64) -> (ServiceParams, BuiltService) {
    let seed = seed ^ SEED_SALT;
    let params = params(size);
    let mut b = build(&params, &generate_workload(&params, seed), seed);
    b.world.start();
    (params, b)
}

/// Runs a started service world to its horizon with the planned shard
/// outage, as `run_service_world` does.
pub fn run(params: &ServiceParams, w: &mut FlowWorld, t: &mut Tracer) {
    let secs = |d: SimDuration| d.as_micros() / 1_000_000;
    let horizon = secs(params.horizon);
    let dark_from = secs(params.outage_at).min(horizon);
    let dark_to = (dark_from + secs(params.outage_len)).min(horizon);
    run_sliced(t, 0, dark_from, |until| w.run_until(until, |_| {}));
    w.set_tracker_shard_down(params.outage_shard, true);
    run_sliced(t, dark_from, dark_to, |until| w.run_until(until, |_| {}));
    w.set_tracker_shard_down(params.outage_shard, false);
    run_sliced(t, dark_to, horizon, |until| w.run_until(until, |_| {}));
}

pub fn rep(size: Size, seed: u64, t: &mut Tracer) -> Rep {
    let t0 = Instant::now();
    let (params, mut b) = t.span("setup", |_| setup(size, seed));
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    t.span("run", |t| run(&params, &mut b.world, t));
    let wall_s = t1.elapsed().as_secs_f64();

    t.span("extract", |t| {
        let w = &b.world;
        let leeches: Vec<TaskKey> = b.swarm_leeches.iter().flatten().copied().collect();
        let mut layer = BTreeMap::new();
        let digest = flow_outcome(w, &leeches, wall_s, &mut layer);
        layer.insert("simulation.flow.build_ms", setup_s * 1e3);
        flow_slice_metrics(t, &mut layer);
        let every_shard_announced = b
            .swarm_shards
            .iter()
            .all(|&k| w.tracker_shard_announces(k) > 0);
        Rep {
            setup_s,
            wall_s,
            vsecs: params.horizon.as_secs_f64(),
            digest,
            checks: vec![
                (
                    "at least 0.9 of leeches completed",
                    layer["simulation.flow.completed_frac"] >= 0.9,
                ),
                (
                    "every shard that owns a swarm announced",
                    every_shard_announced,
                ),
            ],
            tasks: w.task_count(),
            layer,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_simulation::experiments::service::run_service_world;

    #[test]
    fn benchmark_built_world_matches_run_service_world() {
        let params = params(Size::Smoke);
        let seed = 11;
        let outcome = run_service_world(&params, seed);
        let mut b = build(&params, &generate_workload(&params, seed), seed);
        b.world.start();
        run(&params, &mut b.world, &mut Tracer::new(false));
        let w = &b.world;
        let totals: Vec<u64> = (0..params.tracker_shards)
            .map(|k| w.tracker_shard_announces(k))
            .collect();
        assert_eq!(outcome.shard_totals, totals);
        assert_eq!(outcome.tasks, w.task_count());
        assert_eq!(outcome.nodes, w.node_count());
        let completed = |leeches: &[TaskKey]| {
            leeches
                .iter()
                .filter(|&&k| w.completed_at(k).is_some())
                .count()
        };
        let per_swarm: Vec<usize> = outcome.per_swarm.iter().map(|s| s.completed).collect();
        let ours: Vec<usize> = b.swarm_leeches.iter().map(|l| completed(l)).collect();
        assert_eq!(per_swarm, ours);
    }

    #[test]
    fn sliced_run_equals_straight_run() {
        let straight = rep(Size::Smoke, 5, &mut Tracer::new(false));
        let sliced = rep(Size::Smoke, 5, &mut Tracer::new(true));
        assert_eq!(straight.digest, sliced.digest);
        assert!(straight.checks.iter().all(|c| c.1), "{:?}", straight.checks);
    }
}
