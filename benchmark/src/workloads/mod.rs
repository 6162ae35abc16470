//! The five workloads. Each repetition builds its inputs from the seed
//! (set-up), runs the timed section, then extracts counts, checks and a
//! digest through the crates' public accessors.

pub mod figures;
pub mod fork;
pub mod packet;
pub mod scale;
pub mod service;

use crate::trace::Tracer;
use p2p_simulation::flow::{FlowWorld, TaskKey};
use simnet::event::QueueStats;
use simnet::time::SimTime;
use std::collections::BTreeMap;
use std::time::Instant;

/// Input sizes: the measured ones, or the `--smoke` ones that finish in
/// seconds (for CI and the unit tests).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Smoke,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Scale,
    Service,
    Packet,
    Figures,
    Fork,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Scale,
        Workload::Service,
        Workload::Packet,
        Workload::Figures,
        Workload::Fork,
    ];

    /// The name in `BENCHMARK.json` (`spec::WORKLOADS` has the same
    /// order as [`Workload::ALL`]).
    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].0
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One repetition: set-up, timed section, extraction.
    pub fn rep(self, size: Size, seed: u64, t: &mut Tracer) -> Rep {
        t.span("workload", |t| match self {
            Workload::Scale => scale::rep(size, seed, t),
            Workload::Service => service::rep(size, seed, t),
            Workload::Packet => packet::rep(size, seed, t),
            Workload::Figures => figures::rep(size, seed, t),
            Workload::Fork => fork::rep(size, seed, t),
        })
    }

    /// Set-up alone (built, started, dropped) — repeated so `setup_s`
    /// is a median of several samples. Seconds.
    pub fn setup_only(self, size: Size, seed: u64) -> f64 {
        let t0 = Instant::now();
        match self {
            Workload::Scale => drop(scale::setup(size, seed)),
            Workload::Service => drop(service::setup(size, seed)),
            Workload::Packet => drop(packet::setup(size, seed)),
            Workload::Figures => drop(figures::setup(size)),
            Workload::Fork => drop(fork::setup(size, seed)),
        }
        t0.elapsed().as_secs_f64()
    }

    /// Checks made once per run, after the repetitions: `(name, passed)`.
    pub fn run_checks(self, size: Size, seed: u64, digest: u64) -> Vec<(&'static str, bool)> {
        match self {
            Workload::Fork => vec![(
                "chained digest equals a straight run's",
                fork::straight_digest(size, seed) == digest,
            )],
            _ => Vec::new(),
        }
    }
}

/// What one repetition reports.
pub struct Rep {
    /// Host seconds from the start of input generation to the first
    /// timed call.
    pub setup_s: f64,
    /// Host seconds of the timed section.
    pub wall_s: f64,
    /// Virtual seconds simulated in the timed section.
    pub vsecs: f64,
    /// Hash of the observable outcome; equal across repetitions of one
    /// seed and commit.
    pub digest: u64,
    /// `(name, passed)` — the attempted operations.
    pub checks: Vec<(&'static str, bool)>,
    /// Flow-world tasks built (0 where there is no flow world).
    pub tasks: usize,
    /// Per-layer values by `spec::PER_LAYER` name.
    pub layer: BTreeMap<&'static str, f64>,
}

/// FNV-1a over 64-bit words.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, data: &[u8]) {
        self.word(data.len() as u64);
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn queue(&mut self, q: &QueueStats) {
        for x in [
            q.live as u64,
            q.max_live as u64,
            q.scheduled,
            q.cancelled,
            q.cancel_noops,
        ] {
            self.word(x);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Runs a world from virtual second `from` to `to` through `step`. A
/// traced repetition advances one virtual second per `slice` span; an
/// untraced one makes a single call. The unit tests pin that both leave
/// the world in the same state.
pub fn run_sliced(t: &mut Tracer, from: u64, to: u64, mut step: impl FnMut(SimTime)) {
    if t.enabled() {
        for s in from + 1..=to {
            t.span("slice", |_| step(SimTime::from_secs(s)));
        }
    } else {
        step(SimTime::from_secs(to));
    }
}

/// Slice percentiles and the join share (wall share of the first tenth
/// of the slices) under `prefix`, from a traced repetition's spans.
pub fn slice_metrics(
    t: &Tracer,
    layer: &mut BTreeMap<&'static str, f64>,
    names: [&'static str; 3],
    join_share: Option<&'static str>,
) {
    let ms = t.durations_ms("slice");
    if ms.is_empty() {
        return;
    }
    layer.insert(names[0], crate::stats::percentile(&ms, 0.5));
    layer.insert(names[1], crate::stats::percentile(&ms, 0.95));
    layer.insert(names[2], crate::stats::percentile(&ms, 1.0));
    if let Some(name) = join_share {
        let head: f64 = ms.iter().take(ms.len().div_ceil(10)).sum();
        layer.insert(name, head / ms.iter().sum::<f64>());
    }
}

/// [`slice_metrics`] under the flow world's names.
pub fn flow_slice_metrics(t: &Tracer, layer: &mut BTreeMap<&'static str, f64>) {
    slice_metrics(
        t,
        layer,
        [
            "simulation.flow.slice_ms_p50",
            "simulation.flow.slice_ms_p95",
            "simulation.flow.slice_ms_max",
        ],
        Some("simulation.flow.join_share"),
    );
}

/// Digest, counts and progress of a flow world — shared by the three
/// flow workloads.
pub fn flow_outcome(
    w: &FlowWorld,
    leeches: &[TaskKey],
    wall_s: f64,
    layer: &mut BTreeMap<&'static str, f64>,
) -> u64 {
    let q = w.queue_stats();
    let s = w.solver_stats();
    let mut d = Digest::new();
    d.word(w.events_processed());
    d.queue(&q);
    for x in [
        s.full_solves,
        s.incremental_solves,
        s.class_solves,
        s.resources_touched,
        s.flows_touched,
        w.rate_solves(),
        w.rate_skips(),
    ] {
        d.word(x);
    }
    let mut completed = 0usize;
    let mut progress = 0.0;
    for t in 0..w.task_count() {
        d.word(w.downloaded_bytes(t));
        d.word(w.completed_at(t).map_or(u64::MAX, SimTime::as_micros));
    }
    for &t in leeches {
        completed += usize::from(w.completed_at(t).is_some());
        progress += w.progress_fraction(t);
    }
    let shards = w.tracker_shard_count();
    let announces: u64 = (0..shards).map(|k| w.tracker_shard_announces(k)).sum();
    let sheds: u64 = (0..shards).map(|k| w.tracker_shard_sheds(k)).sum();
    let solves = s.full_solves + s.incremental_solves;
    let events = w.events_processed();
    let n = leeches.len().max(1) as f64;
    for (name, value) in [
        ("simulation.flow.events", events as f64),
        (
            "simulation.flow.us_per_event",
            wall_s * 1e6 / events.max(1) as f64,
        ),
        ("simulation.flow.stall_aborts", w.stall_aborts() as f64),
        ("simulation.flow.completed_frac", completed as f64 / n),
        ("simulation.flow.mean_progress", progress / n),
        ("simulation.rates.solves", w.rate_solves() as f64),
        ("simulation.rates.skips", w.rate_skips() as f64),
        ("simulation.rates.full_solves", s.full_solves as f64),
        (
            "simulation.rates.incremental_solves",
            s.incremental_solves as f64,
        ),
        ("simulation.rates.class_solves", s.class_solves as f64),
        (
            "simulation.rates.resources_touched",
            s.resources_touched as f64,
        ),
        (
            "simulation.rates.touched_per_solve",
            s.resources_touched as f64 / solves.max(1) as f64,
        ),
        ("simnet.event.scheduled", q.scheduled as f64),
        ("simnet.event.cancelled", q.cancelled as f64),
        ("simnet.event.cancel_noops", q.cancel_noops as f64),
        ("simnet.event.depth_peak", q.max_live as f64),
        ("bittorrent.tracker.announces", announces as f64),
        ("bittorrent.tracker.sheds", sheds as f64),
    ] {
        layer.insert(name, value);
    }
    d.finish()
}
