//! `fork-2k`: the scale world used as data — what bisect, warm-fork
//! sweeps and the fault searcher do with it.

use super::scale::{self, BuiltScale};
use super::{flow_outcome, Rep, Size};
use crate::trace::Tracer;
use simnet::time::SimTime;
use std::collections::BTreeMap;
use std::time::Instant;

/// Mixed into the run seed so no workload shares a world seed.
const SEED_SALT: u64 = 0xF02C;

/// Virtual seconds of warm-up, part of set-up: by then every client has
/// announced, dialled and filled its request pipelines, so the snapshot
/// carries a full-size state.
const WARM_S: u64 = 20;

/// Virtual seconds each restored world runs before the next save.
const STEP_S: u64 = 2;

fn rounds(size: Size) -> u64 {
    match size {
        Size::Full => 6,
        Size::Smoke => 3,
    }
}

pub fn setup(size: Size, seed: u64) -> BuiltScale {
    let mut b = scale::setup(size, seed ^ SEED_SALT);
    b.world.run_until(SimTime::from_secs(WARM_S), |_| {});
    b
}

/// The digest of the same world run straight from the warm-up to where
/// the chain ends, with no snapshot in between.
pub fn straight_digest(size: Size, seed: u64) -> u64 {
    let mut b = setup(size, seed);
    let end = WARM_S + rounds(size) * STEP_S;
    b.world.run_until(SimTime::from_secs(end), |_| {});
    flow_outcome(&b.world, &b.leeches, 0.0, &mut BTreeMap::new())
}

/// Runs `f` in a span and adds its host seconds to `acc`.
fn timed<R>(t: &mut Tracer, acc: &mut f64, name: &str, f: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let r = t.span(name, |_| f());
    *acc += started.elapsed().as_secs_f64();
    r
}

pub fn rep(size: Size, seed: u64, t: &mut Tracer) -> Rep {
    let t0 = Instant::now();
    let mut b = t.span("setup", |_| setup(size, seed));
    let setup_s = t0.elapsed().as_secs_f64();

    let rounds = rounds(size);
    // Host seconds in save, build, restore, resume.
    let mut phase = [0.0f64; 4];
    let mut blob_bytes = 0usize;
    let t1 = Instant::now();
    t.span("run", |t| {
        for round in 1..=rounds {
            let blob = timed(t, &mut phase[0], "save", || b.world.save());
            blob_bytes = blob.len();
            let mut next = timed(t, &mut phase[1], "build", || {
                scale::setup(size, seed ^ SEED_SALT)
            });
            timed(t, &mut phase[2], "restore", || next.world.restore(&blob));
            let until = SimTime::from_secs(WARM_S + round * STEP_S);
            timed(t, &mut phase[3], "resume", || {
                next.world.run_until(until, |_| {})
            });
            b = next;
        }
    });
    let wall_s = t1.elapsed().as_secs_f64();

    t.span("extract", |_| {
        let w = &b.world;
        let mut layer = BTreeMap::new();
        let digest = flow_outcome(w, &b.leeches, phase[3], &mut layer);
        // Every counter above is cumulative from t = 0 (restore carries
        // them over); the event cost is over the resumed seconds only.
        layer.remove("simulation.flow.us_per_event");
        let n = rounds as f64;
        layer.insert("simnet.snapshot.save_ms", phase[0] * 1e3 / n);
        layer.insert("simnet.snapshot.restore_ms", phase[2] * 1e3 / n);
        layer.insert("simnet.snapshot.blob_mb", blob_bytes as f64 / 1e6);
        layer.insert("simnet.snapshot.share", (phase[0] + phase[2]) / wall_s);
        layer.insert("simulation.flow.build_ms", phase[1] * 1e3 / n);
        Rep {
            setup_s,
            wall_s,
            vsecs: (rounds * STEP_S) as f64,
            digest,
            checks: vec![
                ("snapshot is not empty", blob_bytes > 0),
                (
                    "chain reached its horizon",
                    w.now() >= SimTime::from_secs(WARM_S + rounds * STEP_S - 1),
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

    #[test]
    fn chained_digest_equals_straight_run() {
        let chained = rep(Size::Smoke, 4, &mut Tracer::new(false));
        assert_eq!(chained.digest, straight_digest(Size::Smoke, 4));
        assert!(chained.checks.iter().all(|c| c.1), "{:?}", chained.checks);
        assert!(chained.layer["simnet.snapshot.blob_mb"] > 0.0);
    }
}
