//! `scale-2k`: one large flow-world swarm, timed over a fixed virtual
//! horizon.

use super::{flow_outcome, flow_slice_metrics, run_sliced, Rep, Size};
use crate::trace::Tracer;
use metrics::handle::MetricsHandle;
use p2p_simulation::experiments::common::synthetic_torrent;
use p2p_simulation::experiments::scale::{swarm_mix, ScaleParams};
use p2p_simulation::flow::{Access, FlowConfig, FlowWorld, TaskKey, TaskSpec};
use simnet::mobility::MobilityProcess;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct BuiltScale {
    pub world: FlowWorld,
    pub leeches: Vec<TaskKey>,
}

/// Mixed into the run seed so no workload shares a world seed.
const SEED_SALT: u64 = 0x5CA1E;

pub fn peers(size: Size) -> usize {
    match size {
        Size::Full => 2048,
        Size::Smoke => 64,
    }
}

/// Timed virtual horizon, seconds. Half the experiment's quick preset:
/// the join storm, steady exchange and the first hand-off wave all fall
/// inside it, and three repetitions fit in one run.
const HORIZON_S: u64 = 60;

/// Builds and starts the swarm `experiments::scale::run_scale_once`
/// builds for `size` peers (the unit test compares the two cell for
/// cell), but hands back the world so the caller can time, slice,
/// snapshot and inspect it.
pub fn build(params: &ScaleParams, size: usize, seed: u64, metrics: &MetricsHandle) -> BuiltScale {
    let (seeds, mobile, fixed) = swarm_mix(size, params.mobile_fraction);
    let mut w = FlowWorld::new(
        FlowConfig {
            stall_timeout: Some(params.stall_timeout),
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
    let leeches = mobile + fixed;
    let mut keys = Vec::with_capacity(leeches);
    for i in 0..leeches {
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
        spec.start_fraction = Some(0.5 * (i + 1) as f64 / (leeches + 1) as f64);
        keys.push(w.add_task(spec));
    }
    w.start();
    BuiltScale {
        world: w,
        leeches: keys,
    }
}

pub fn setup(size: Size, seed: u64) -> BuiltScale {
    build(
        &ScaleParams::quick(),
        peers(size),
        seed ^ SEED_SALT,
        &MetricsHandle::disabled(),
    )
}

pub fn rep(size: Size, seed: u64, t: &mut Tracer) -> Rep {
    let t0 = Instant::now();
    let mut b = t.span("setup", |_| setup(size, seed));
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    t.span("run", |t| {
        run_sliced(t, 0, HORIZON_S, |until| b.world.run_until(until, |_| {}))
    });
    let wall_s = t1.elapsed().as_secs_f64();

    t.span("extract", |t| {
        let w = &b.world;
        let mut layer = BTreeMap::new();
        let digest = flow_outcome(w, &b.leeches, wall_s, &mut layer);
        layer.insert("simulation.flow.build_ms", setup_s * 1e3);
        flow_slice_metrics(t, &mut layer);
        Rep {
            setup_s,
            wall_s,
            vsecs: HORIZON_S as f64,
            digest,
            checks: vec![
                (
                    "some leech completed",
                    layer["simulation.flow.completed_frac"] > 0.0,
                ),
                ("allocated rates are feasible", w.rates_feasible().is_ok()),
            ],
            tasks: w.task_count(),
            layer,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_simulation::experiments::scale::run_scale_once;
    use simnet::time::SimTime;

    #[test]
    fn benchmark_built_world_equals_run_scale_once() {
        let params = ScaleParams::quick();
        let cell = run_scale_once(&params, 64, &MetricsHandle::disabled(), 7);
        let mut b = build(&params, 64, 7, &MetricsHandle::disabled());
        b.world.run_until(SimTime::ZERO + params.duration, |_| {});
        let w = &b.world;
        let q = w.queue_stats();
        let s = w.solver_stats();
        let done = b
            .leeches
            .iter()
            .filter(|&&k| w.completed_at(k).is_some())
            .count();
        assert_eq!(cell.completed, done);
        assert_eq!(cell.events, w.events_processed());
        assert_eq!(
            (
                cell.queue_peak,
                cell.scheduled,
                cell.cancelled,
                cell.cancel_noops
            ),
            (q.max_live, q.scheduled, q.cancelled, q.cancel_noops)
        );
        assert_eq!(cell.stall_aborts, w.stall_aborts());
        assert_eq!(
            (cell.solver_full, cell.solver_incremental, cell.solver_class),
            (s.full_solves, s.incremental_solves, s.class_solves)
        );
        assert_eq!(cell.solver_resources_touched, s.resources_touched);
    }

    #[test]
    fn sliced_run_equals_straight_run() {
        let straight = rep(Size::Smoke, 3, &mut Tracer::new(false));
        let mut t = Tracer::new(true);
        let sliced = rep(Size::Smoke, 3, &mut t);
        assert_eq!(straight.digest, sliced.digest);
        assert_eq!(t.durations_ms("slice").len(), HORIZON_S as usize);
        for key in [
            "simulation.flow.events",
            "simnet.event.scheduled",
            "simulation.rates.solves",
        ] {
            assert_eq!(straight.layer[key], sliced.layer[key], "{key}");
        }
        assert!(straight.checks.iter().all(|c| c.1), "{:?}", straight.checks);
    }
}
