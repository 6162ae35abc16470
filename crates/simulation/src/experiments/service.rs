//! **Multi-swarm service tier** — a tracker operator's view of the paper
//! (`all_figures -- --only service [--seed <seed>]`).
//!
//! Not a paper figure: ROADMAP item 2 at deployment scale. One flow
//! world hosts hundreds of concurrent swarms sharing a sharded tracker
//! tier ([`bittorrent::tracker::TrackerTier`]) and cross-swarm seed
//! capacity. A seeded workload generator draws Zipf-distributed swarm
//! sizes, Poisson flash-crowd arrivals (late joiners via
//! [`TaskSpec::start_at`]), diurnally modulated mobile hand-off periods,
//! and multi-swarm membership (shared leech nodes; super-seeds whose
//! uplink is one token bucket across every swarm they serve, via
//! [`FlowWorld::set_node_upload_cap`]). Mid-run one tracker shard goes
//! down — a partial-service fault: only the swarms it owns lose
//! announces.
//!
//! Two **probe swarms** ride along, each three upload classes à la
//! Legout et al. ("Clustering and Sharing Incentives in BitTorrent
//! Systems"): one all fixed hosts, one with 30% mobile hosts. With
//! [`FlowConfig::track_peer_bytes`] on, the run computes the upload-class
//! clustering coefficient (same-class download share over the
//! random-mixing baseline) for both and asserts clustering *emerges* in
//! the fixed swarm; the mobile swarm's coefficient measures how hand-off
//! churn distorts it.
//!
//! Every observable is a pure function of the seed: the workload, the
//! per-swarm completion-time distributions, the per-shard tracker-load
//! series, and both clustering coefficients replay byte-identically
//! under any worker count.

use super::common::synthetic_torrent;
use crate::flow::{Access, FlowConfig, FlowWorld, TaskKey, TaskSpec, TorrentSpec};
use crate::harness::SweepRunner;
use crate::report::{pct, Table};
use metrics::handle::MetricsHandle;
use simnet::mobility::MobilityProcess;
use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};

/// Base seed of the service run (pinned by the determinism tests).
pub const SERVICE_SEED: u64 = 0x5E71;

/// Number of upload classes in the probe swarms (Legout's setup).
pub const CLASSES: usize = 3;

/// Upload capacity of each probe class, bytes/second (16× spread end to
/// end — wide enough that tit-for-tat reciprocation separates them).
pub const CLASS_UP: [f64; CLASSES] = [24_000.0, 96_000.0, 384_000.0];

/// Leech-phase clustering warmup: the probe byte-count baseline is
/// snapshotted here, a few rechoke intervals in, once tit-for-tat has
/// had time to converge and the seed no longer dominates transfers.
const CLUSTER_WARMUP: SimDuration = SimDuration::from_secs(40);

/// Parameters of the multi-swarm service run.
#[derive(Clone, Debug)]
pub struct ServiceParams {
    /// Background swarms (two probe swarms are added on top).
    pub swarms: usize,
    /// Tracker shards in the tier.
    pub tracker_shards: usize,
    /// Target total background memberships (seeds + leeches) across all
    /// swarms; Zipf clamping can push the realised total slightly above.
    pub total_peers: usize,
    /// Zipf exponent of the swarm-size distribution.
    pub zipf_s: f64,
    /// Smallest background swarm (members, incl. its seed).
    pub min_swarm: usize,
    /// File size of background swarms.
    pub file_size: u64,
    /// File size of the probe swarms (longer transfer: the clustering
    /// signal needs several rechoke rounds).
    pub probe_file_size: u64,
    /// Piece length everywhere.
    pub piece_length: u32,
    /// Probe leeches per upload class (each probe swarm has
    /// `CLASSES * this` leeches plus one campus seed).
    pub probe_leeches_per_class: usize,
    /// Mobile share of the mobile probe swarm's leeches.
    pub probe_mobile_fraction: f64,
    /// Mobile share of background leeches (wireless + hand-offs).
    pub mobile_fraction: f64,
    /// Share of background leech memberships placed on shared
    /// multi-swarm nodes.
    pub multi_swarm_fraction: f64,
    /// Every k-th background swarm is seeded by a shared super-seed
    /// node instead of a dedicated one (0 = never).
    pub super_seed_every: usize,
    /// Swarms served per super-seed node.
    pub super_seed_swarms: usize,
    /// Shared uplink of a super-seed across its swarms, bytes/second —
    /// the cross-swarm token bucket.
    pub super_seed_cap: f64,
    /// Maximum flash-crowd events (the Poisson process is truncated at
    /// this count or half the horizon, whichever first).
    pub flash_crowds: usize,
    /// Mean inter-arrival of flash crowds.
    pub flash_mean_gap: SimDuration,
    /// Nominal burst size of one flash crowd (the draw jitters ±50%).
    pub flash_size: usize,
    /// Length of the compressed "day" for diurnal modulation.
    pub day_length: SimDuration,
    /// Diurnal amplitude in [0, 1): hand-off periods swing by this
    /// factor across the day.
    pub diurnal_amp: f64,
    /// Base mobile hand-off period (before diurnal modulation).
    pub handoff_period: SimDuration,
    /// Hand-off outage length.
    pub handoff_outage: SimDuration,
    /// Shard taken down mid-run (the partial-service fault).
    pub outage_shard: usize,
    /// When the shard goes down.
    pub outage_at: SimDuration,
    /// How long it stays down.
    pub outage_len: SimDuration,
    /// Per-shard load sampling cadence.
    pub sample_every: SimDuration,
    /// Virtual horizon of the run.
    pub horizon: SimDuration,
    /// Fixed-probe clustering coefficient the run asserts (emergence
    /// margin; the mobile probe is measured, not asserted).
    pub cluster_margin: f64,
    /// Runs (replays) per sweep cell.
    pub runs: u64,
}

impl ServiceParams {
    /// CI-sized preset: 256 swarms / 4 shards / ≥8k memberships.
    pub fn quick() -> Self {
        ServiceParams {
            swarms: 256,
            tracker_shards: 4,
            total_peers: 8192,
            zipf_s: 1.0,
            min_swarm: 5,
            file_size: 1024 * 1024,
            // Sized so the fastest class leeches for ~12 rechoke
            // intervals past the clustering warmup (384 KB/s × ~125 s)
            // — small probe files finish inside one or two rechokes
            // and tit-for-tat clustering never converges.
            probe_file_size: 48 * 1024 * 1024,
            piece_length: 256 * 1024,
            probe_leeches_per_class: 8,
            probe_mobile_fraction: 0.3,
            mobile_fraction: 0.15,
            multi_swarm_fraction: 0.15,
            super_seed_every: 8,
            super_seed_swarms: 4,
            super_seed_cap: 400_000.0,
            flash_crowds: 12,
            flash_mean_gap: SimDuration::from_secs(20),
            flash_size: 12,
            day_length: SimDuration::from_secs(300),
            diurnal_amp: 0.6,
            handoff_period: SimDuration::from_secs(40),
            handoff_outage: SimDuration::from_secs(2),
            outage_shard: 1,
            outage_at: SimDuration::from_secs(120),
            outage_len: SimDuration::from_secs(60),
            sample_every: SimDuration::from_secs(10),
            horizon: SimDuration::from_secs(600),
            cluster_margin: 1.05,
            runs: 1,
        }
    }

    /// Paper-scale preset: 1024 swarms / 8 shards / 32k memberships.
    pub fn paper() -> Self {
        ServiceParams {
            swarms: 1024,
            tracker_shards: 8,
            total_peers: 32_768,
            file_size: 4 * 1024 * 1024,
            probe_file_size: 96 * 1024 * 1024,
            flash_crowds: 32,
            flash_mean_gap: SimDuration::from_secs(60),
            flash_size: 24,
            day_length: SimDuration::from_secs(1800),
            outage_at: SimDuration::from_secs(600),
            outage_len: SimDuration::from_secs(300),
            sample_every: SimDuration::from_secs(30),
            horizon: SimDuration::from_secs(3600),
            ..Self::quick()
        }
    }
}

// ---------------------------------------------------------------------
// Workload generator
// ---------------------------------------------------------------------

/// What a swarm is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwarmKind {
    /// All-fixed-host 3-class probe (clustering must emerge here).
    FixedProbe,
    /// 3-class probe with a mobile share (clustering distortion).
    MobileProbe,
    /// Zipf-sized background swarm.
    Background,
}

/// One planned leech membership.
#[derive(Clone, Debug)]
pub struct LeechPlan {
    /// Upload class (probes only; background leeches carry 0).
    pub class: u8,
    /// Mobile hand-off process: `(period, outage)` after diurnal
    /// modulation. `None` = fixed host.
    pub mobile: Option<(SimDuration, SimDuration)>,
    /// Initial completion fraction (mutual-interest spread).
    pub head_start: f64,
    /// Shared multi-swarm node, as an index into the shared-node pool.
    pub shared_node: Option<usize>,
    /// When the member joins; non-zero = flash-crowd arrival.
    pub start_at: SimTime,
}

/// One planned swarm.
#[derive(Clone, Debug)]
pub struct SwarmPlan {
    /// Role of the swarm.
    pub kind: SwarmKind,
    /// Its torrent (the info-hash decides the owning shard).
    pub torrent: TorrentSpec,
    /// Owning tracker shard.
    pub shard: usize,
    /// Super-seed pool index serving it (`None` = dedicated seed).
    pub super_seed: Option<usize>,
    /// Planned leeches (flash arrivals included, appended last).
    pub leeches: Vec<LeechPlan>,
}

/// One flash-crowd event.
#[derive(Clone, Debug, PartialEq)]
pub struct FlashCrowd {
    /// Arrival instant.
    pub at: SimTime,
    /// Target swarm index.
    pub swarm: usize,
    /// Burst size (late joiners added to the swarm).
    pub size: usize,
}

/// The full seeded workload: everything the world builder consumes.
#[derive(Clone, Debug)]
pub struct ServiceWorkload {
    /// Probes first (fixed, mobile), then background swarms by
    /// popularity rank.
    pub swarms: Vec<SwarmPlan>,
    /// Flash-crowd events in arrival order.
    pub flash: Vec<FlashCrowd>,
    /// Size of the shared multi-swarm leech-node pool.
    pub shared_nodes: usize,
    /// Size of the super-seed node pool.
    pub super_seeds: usize,
}

impl ServiceWorkload {
    /// Total planned memberships (seeds + leeches, flash included).
    pub fn memberships(&self) -> usize {
        self.swarms.iter().map(|s| 1 + s.leeches.len()).sum()
    }

    /// Renders the workload to a stable text form — the determinism
    /// anchor (byte-compared across replays and worker counts).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (k, s) in self.swarms.iter().enumerate() {
            let h = s.torrent.info_hash.0;
            let _ = writeln!(
                out,
                "swarm {k} {:?} ih={:02x}{:02x}{:02x}{:02x} shard={} seed={} leeches={}",
                s.kind,
                h[0],
                h[1],
                h[2],
                h[3],
                s.shard,
                match s.super_seed {
                    Some(i) => format!("super{i}"),
                    None => "own".to_string(),
                },
                s.leeches.len(),
            );
            for (i, l) in s.leeches.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  l{i} c{} {} hs={:.3} node={} at={}",
                    l.class,
                    match l.mobile {
                        Some((p, o)) => format!("mobile({p},{o})"),
                        None => "fixed".to_string(),
                    },
                    l.head_start,
                    match l.shared_node {
                        Some(n) => format!("shared{n}"),
                        None => "own".to_string(),
                    },
                    l.start_at,
                );
            }
        }
        for f in &self.flash {
            let _ = writeln!(out, "flash at={} swarm={} size={}", f.at, f.swarm, f.size);
        }
        out
    }

    /// FNV-1a digest of [`Self::render`] — a compact determinism anchor
    /// carried in the outcome.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.render().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Diurnal modulation factor at a phase in [0, 1): activity peaks
/// mid-day (shorter hand-off periods = more churn), troughs at night.
fn diurnal_factor(phase: f64, amp: f64) -> f64 {
    let f = 1.0 - amp * (std::f64::consts::TAU * phase).sin();
    f.max(0.25)
}

/// A diurnally modulated mobile hand-off assignment. The phase is where
/// the host's activity falls in the compressed day: flash arrivals use
/// their arrival time, initial members draw a personal offset.
fn mobile_assignment(
    params: &ServiceParams,
    phase: f64,
    rng: &mut SimRng,
) -> (SimDuration, SimDuration) {
    let f = diurnal_factor(phase, params.diurnal_amp);
    let base = params.handoff_period.as_secs_f64() * f;
    let period = rng.jitter(base, 0.2).max(2.0);
    (SimDuration::from_secs_f64(period), params.handoff_outage)
}

/// Generates the full service workload: a pure function of
/// `(params, seed)`. All draws come from forked RNG streams, so the
/// plan is byte-identical across replays and worker counts.
pub fn generate_workload(params: &ServiceParams, seed: u64) -> ServiceWorkload {
    let mut rng = SimRng::new(seed).fork(0x5e71_0001);
    let shards = params.tracker_shards.max(1);
    let mut swarms = Vec::with_capacity(params.swarms + 2);

    // Probe swarms first: 3 upload classes round-robin; the mobile
    // probe marks an exact `probe_mobile_fraction` share mobile,
    // spread across classes.
    for kind in [SwarmKind::FixedProbe, SwarmKind::MobileProbe] {
        let n = CLASSES * params.probe_leeches_per_class;
        let mobile_count = if kind == SwarmKind::MobileProbe {
            (params.probe_mobile_fraction * n as f64).round() as usize
        } else {
            0
        };
        let name = match kind {
            SwarmKind::FixedProbe => "svc-probe-fixed.bin",
            SwarmKind::MobileProbe => "svc-probe-mobile.bin",
            SwarmKind::Background => unreachable!(),
        };
        let torrent = synthetic_torrent(
            name,
            params.piece_length,
            params.probe_file_size,
            seed ^ 0x9e37,
        );
        let mut leeches = Vec::with_capacity(n);
        for i in 0..n {
            // i*mobile_count/n < mobile_count exactly mobile_count
            // times, and classes cycle, so every class gets its share
            // of mobile hosts.
            let mobile = (i * mobile_count) / n.max(1) < mobile_count
                && ((i + 1) * mobile_count) / n.max(1) > (i * mobile_count) / n.max(1);
            let phase = rng.unit();
            // Probes start empty: a head start would shorten some peers'
            // leech phase and blur the class signal the probe measures.
            leeches.push(LeechPlan {
                class: (i % CLASSES) as u8,
                mobile: mobile.then(|| mobile_assignment(params, phase, &mut rng)),
                head_start: 0.0,
                shared_node: None,
                start_at: SimTime::ZERO,
            });
        }
        swarms.push(SwarmPlan {
            kind,
            shard: bittorrent::tracker::shard_of(torrent.info_hash, shards),
            torrent,
            super_seed: None,
            leeches,
        });
    }

    // Background swarms: Zipf-distributed sizes summing to roughly the
    // membership target (min-size clamping can only push it up).
    let harmonic: f64 = (0..params.swarms)
        .map(|k| 1.0 / ((k + 1) as f64).powf(params.zipf_s))
        .sum();
    let scale = params.total_peers as f64 / harmonic.max(1e-9);
    let shared_pool = ((params.total_peers as f64 * params.multi_swarm_fraction / 2.5) as usize)
        .max(1);
    let super_pool = params
        .swarms
        .checked_div(params.super_seed_every)
        .map_or(0, |per| (per / params.super_seed_swarms.max(1)).max(1));
    let mut super_assigned = 0usize;
    for k in 0..params.swarms {
        let raw = scale / ((k + 1) as f64).powf(params.zipf_s);
        let size = (raw.round() as usize).max(params.min_swarm);
        let torrent = synthetic_torrent(
            &format!("svc-{k}.bin"),
            params.piece_length,
            params.file_size,
            seed.wrapping_add(k as u64),
        );
        let super_seed = if params.super_seed_every != 0
            && k % params.super_seed_every == 0
            && super_pool > 0
        {
            let idx = super_assigned % super_pool;
            super_assigned += 1;
            Some(idx)
        } else {
            None
        };
        let mut leeches = Vec::with_capacity(size - 1);
        let mut used_shared: Vec<usize> = Vec::new();
        for i in 0..size - 1 {
            let mobile = rng.chance(params.mobile_fraction);
            let shared_node = if !mobile && rng.chance(params.multi_swarm_fraction) {
                let cand = rng.range(0..shared_pool);
                if used_shared.contains(&cand) {
                    None
                } else {
                    used_shared.push(cand);
                    Some(cand)
                }
            } else {
                None
            };
            let phase = rng.unit();
            leeches.push(LeechPlan {
                class: 0,
                mobile: mobile.then(|| mobile_assignment(params, phase, &mut rng)),
                head_start: 0.4 * (i + 1) as f64 / size as f64,
                shared_node,
                start_at: SimTime::ZERO,
            });
        }
        swarms.push(SwarmPlan {
            kind: SwarmKind::Background,
            shard: bittorrent::tracker::shard_of(torrent.info_hash, shards),
            torrent,
            super_seed,
            leeches,
        });
    }

    // Flash crowds: a Poisson process over the first half of the
    // horizon, popularity-biased toward the head of the Zipf ranking.
    let mut flash = Vec::new();
    let mut frng = SimRng::new(seed).fork(0x5e71_0002);
    let window = params.horizon.as_secs_f64() * 0.5;
    let mut t = 15.0;
    while flash.len() < params.flash_crowds {
        t += frng.exp(params.flash_mean_gap.as_secs_f64());
        if t >= window {
            break;
        }
        // unit()^2 biases toward rank 0 (the most popular swarms).
        let rank = (frng.unit().powi(2) * params.swarms as f64) as usize;
        let swarm = 2 + rank.min(params.swarms - 1);
        let size = frng.range(params.flash_size / 2..=params.flash_size * 3 / 2).max(1);
        let at = SimTime::ZERO + SimDuration::from_secs_f64(t);
        for j in 0..size {
            let jitter = SimDuration::from_millis((j as u64 % 8) * 250);
            let phase = (t / params.day_length.as_secs_f64()).fract();
            let mobile = frng.chance(params.mobile_fraction);
            swarms[swarm].leeches.push(LeechPlan {
                class: 0,
                mobile: mobile.then(|| mobile_assignment(params, phase, &mut frng)),
                head_start: 0.0,
                shared_node: None,
                start_at: at + jitter,
            });
        }
        flash.push(FlashCrowd { at, swarm, size });
    }

    ServiceWorkload {
        swarms,
        flash,
        shared_nodes: shared_pool,
        super_seeds: super_pool,
    }
}

// ---------------------------------------------------------------------
// World construction and the run itself
// ---------------------------------------------------------------------

struct BuiltService {
    world: FlowWorld,
    /// Leech tasks per swarm (plan order: flash arrivals last).
    swarm_leeches: Vec<Vec<TaskKey>>,
    nodes: usize,
    tasks: usize,
}

/// Downlink shared by all leeches, bytes/second.
const LEECH_DOWN: f64 = 4_000_000.0 / 8.0;

fn leech_access(class: u8, mobile: bool) -> Access {
    let up = CLASS_UP[class as usize % CLASSES];
    if mobile {
        // One contended channel sized so the uplink class is preserved
        // on top of a typical WLAN downlink share.
        Access::Wireless {
            capacity: up + 2_000_000.0 / 8.0,
        }
    } else {
        Access::Wired {
            up,
            down: LEECH_DOWN,
        }
    }
}

fn build_service_world(
    params: &ServiceParams,
    workload: &ServiceWorkload,
    seed: u64,
) -> BuiltService {
    let cfg = FlowConfig {
        tracker_shards: params.tracker_shards,
        track_peer_bytes: true,
        ..FlowConfig::default()
    };
    let mut w = FlowWorld::new(cfg, seed);
    let mut rng = SimRng::new(seed).fork(0x5e71_0003);

    // Shared node pools, created up front in index order.
    let super_nodes: Vec<usize> = (0..workload.super_seeds)
        .map(|_| {
            let n = w.add_node(Access::campus());
            w.set_node_upload_cap(n, Some(params.super_seed_cap));
            n
        })
        .collect();
    let shared_nodes: Vec<usize> = (0..workload.shared_nodes)
        .map(|_| {
            w.add_node(Access::Wired {
                up: 2.0 * CLASS_UP[0],
                down: LEECH_DOWN,
            })
        })
        .collect();

    let mut swarm_leeches = Vec::with_capacity(workload.swarms.len());
    let mut tasks = 0usize;
    for plan in &workload.swarms {
        // The seed.
        let seed_node = match plan.super_seed {
            Some(i) => super_nodes[i % super_nodes.len().max(1)],
            None => w.add_node(Access::campus()),
        };
        w.add_task(TaskSpec::default_client(seed_node, plan.torrent, true));
        tasks += 1;

        let mut leeches = Vec::with_capacity(plan.leeches.len());
        for l in &plan.leeches {
            let node = match l.shared_node {
                Some(i) => shared_nodes[i % shared_nodes.len().max(1)],
                None => w.add_node(leech_access(l.class, l.mobile.is_some())),
            };
            if let Some((period, outage)) = l.mobile {
                w.set_mobility(node, MobilityProcess::with_jitter(period, outage, 0.2));
            }
            let mut spec = TaskSpec::default_client(node, plan.torrent, false);
            if l.head_start > 0.0 {
                spec.start_fraction = Some(l.head_start);
            }
            spec.start_at = l.start_at;
            leeches.push(w.add_task(spec));
            tasks += 1;
        }
        swarm_leeches.push(leeches);
    }
    // Shared multi-swarm leech nodes get a modest cross-swarm uplink
    // cap too: their tasks contend for one token bucket like the
    // super-seeds (exercises the same scheduling path from day one).
    for &n in &shared_nodes {
        w.set_node_upload_cap(n, Some(2.0 * CLASS_UP[0] * rng.jitter(1.0, 0.1)));
    }
    let nodes = w.node_count();
    BuiltService {
        world: w,
        swarm_leeches,
        nodes,
        tasks,
    }
}

/// Per-swarm completion-time distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct SwarmStats {
    /// Swarm index (0 = fixed probe, 1 = mobile probe).
    pub swarm: usize,
    /// Owning tracker shard.
    pub shard: usize,
    /// Leeches planned (flash arrivals included).
    pub size: usize,
    /// Leeches that completed within the horizon.
    pub completed: usize,
    /// Median completion time, seconds since each member's join.
    pub p50_s: f64,
    /// 90th-percentile completion time.
    pub p90_s: f64,
    /// Worst completion time.
    pub worst_s: f64,
}

/// The deterministic observables of one service run.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceOutcome {
    /// Swarms simulated (probes included).
    pub swarms: usize,
    /// Tracker shards.
    pub shards: usize,
    /// Nodes in the world.
    pub nodes: usize,
    /// Tasks (memberships) in the world.
    pub tasks: usize,
    /// Flash-crowd events injected.
    pub flash_crowds: usize,
    /// Per-swarm completion stats, swarm order.
    pub per_swarm: Vec<SwarmStats>,
    /// `(t_secs, cumulative announces per shard)` samples.
    pub shard_samples: Vec<(f64, Vec<u64>)>,
    /// Final announce totals per shard.
    pub shard_totals: Vec<u64>,
    /// Clustering coefficient of the fixed probe (must exceed the
    /// emergence margin).
    pub fixed_coeff: f64,
    /// Clustering coefficient of the mobile probe (measured).
    pub mobile_coeff: f64,
    /// Completed leeches / all leeches.
    pub completed_frac: f64,
    /// [`ServiceWorkload::digest`] of the plan that ran.
    pub workload_digest: u64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Per-leech cumulative download bytes, keyed by sending task (sorted).
/// Row `i` belongs to `leeches[i]`.
type ByteMatrix = Vec<Vec<(TaskKey, u64)>>;

fn probe_bytes(w: &FlowWorld, leeches: &[TaskKey]) -> ByteMatrix {
    leeches.iter().map(|&t| w.peer_download_bytes(t)).collect()
}

/// Upload-class clustering coefficient of one probe swarm: the
/// byte-weighted same-class download share across its leeches, over the
/// random-mixing baseline `(per-class peers - 1) / (peers - 1)`.
/// `1.0` = no clustering; seeds are excluded on both axes. When `base`
/// is given, only bytes transferred *since* that snapshot count — the
/// window that excludes both the seed-dominated startup transient and
/// the classless post-completion seeding phase.
fn clustering_coefficient(leeches: &[TaskKey], now: &ByteMatrix, base: Option<&ByteMatrix>) -> f64 {
    let class_of = |t: TaskKey| -> usize {
        leeches.iter().position(|&x| x == t).map_or(usize::MAX, |i| i % CLASSES)
    };
    let mut same = 0u64;
    let mut total = 0u64;
    for (i, &t) in leeches.iter().enumerate() {
        let c = class_of(t);
        for &(src, bytes) in &now[i] {
            let sc = class_of(src);
            if sc == usize::MAX {
                continue; // seed or out-of-swarm sender
            }
            let before = base
                .and_then(|b| {
                    b[i].binary_search_by_key(&src, |&(s, _)| s).ok().map(|j| b[i][j].1)
                })
                .unwrap_or(0);
            let delta = bytes.saturating_sub(before);
            total += delta;
            if sc == c {
                same += delta;
            }
        }
    }
    if total == 0 {
        return 0.0;
    }
    let n = leeches.len() as f64;
    let per_class = n / CLASSES as f64;
    let baseline = (per_class - 1.0) / (n - 1.0);
    (same as f64 / total as f64) / baseline.max(1e-9)
}

/// Runs one seeded service world end to end and extracts every
/// observable. Pure in `(params, seed)`.
pub fn run_service_world(params: &ServiceParams, seed: u64) -> ServiceOutcome {
    let workload = generate_workload(params, seed);
    let digest = workload.digest();
    let mut built = build_service_world(params, &workload, seed);
    let w = &mut built.world;
    w.start();

    let mut samples: Vec<(f64, Vec<u64>)> = Vec::new();
    let mut next_sample = SimTime::ZERO;
    let sample_every = params.sample_every;
    let shards = params.tracker_shards;
    // The clustering coefficient is a *leech-phase* measure (Legout):
    // early on the seed dominates and rechoke hasn't converged; once
    // fast-class peers complete they seed everyone, and that classless
    // upload washes the signal out. Each probe's coefficient is
    // therefore computed over the byte deltas between a warmup snapshot
    // (a few rechoke intervals in) and the instant its first leeches
    // complete, falling back to the end-of-run window if the probe
    // never completes anyone.
    let warmup = SimTime::ZERO + CLUSTER_WARMUP;
    let probe_leeches: [Vec<TaskKey>; 2] =
        [built.swarm_leeches[0].clone(), built.swarm_leeches[1].clone()];
    let mut probe_base: [Option<ByteMatrix>; 2] = [None, None];
    let mut probe_coeff: [Option<f64>; 2] = [None, None];
    let mut sampler = |w: &mut FlowWorld| {
        if w.now() >= next_sample {
            let cum: Vec<u64> = (0..shards).map(|s| w.tracker_shard_announces(s)).collect();
            samples.push((w.now().as_secs_f64(), cum));
            next_sample = w.now() + sample_every;
        }
        for (p, leeches) in probe_leeches.iter().enumerate() {
            if probe_coeff[p].is_some() {
                continue;
            }
            if probe_base[p].is_none() && w.now() >= warmup {
                probe_base[p] = Some(probe_bytes(w, leeches));
            }
            let done = leeches.iter().filter(|&&t| w.completed_at(t).is_some()).count();
            if done >= 2 {
                let now_bytes = probe_bytes(w, leeches);
                probe_coeff[p] =
                    Some(clustering_coefficient(leeches, &now_bytes, probe_base[p].as_ref()));
            }
        }
    };

    // Phase 1: up to the shard outage.
    let outage_at = SimTime::ZERO + params.outage_at;
    w.run_until(outage_at.min(SimTime::ZERO + params.horizon), &mut sampler);
    // The partial-service fault: one shard dark, the rest keep serving.
    if params.outage_len > SimDuration::ZERO && params.outage_shard < shards {
        w.set_tracker_shard_down(params.outage_shard, true);
        w.run_until(outage_at + params.outage_len, &mut sampler);
        w.set_tracker_shard_down(params.outage_shard, false);
    }
    // Phase 3: to the horizon.
    w.run_until(SimTime::ZERO + params.horizon, &mut sampler);

    let shard_totals: Vec<u64> = (0..shards).map(|s| w.tracker_shard_announces(s)).collect();

    let mut per_swarm = Vec::with_capacity(workload.swarms.len());
    let mut done = 0usize;
    let mut all = 0usize;
    for (k, leeches) in built.swarm_leeches.iter().enumerate() {
        let mut times: Vec<f64> = Vec::new();
        for (&t, plan) in leeches.iter().zip(&workload.swarms[k].leeches) {
            all += 1;
            if let Some(at) = w.completed_at(t) {
                done += 1;
                times.push(at.saturating_since(plan.start_at).as_secs_f64());
            }
        }
        times.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
        per_swarm.push(SwarmStats {
            swarm: k,
            shard: workload.swarms[k].shard,
            size: leeches.len(),
            completed: times.len(),
            p50_s: percentile(&times, 0.5),
            p90_s: percentile(&times, 0.9),
            worst_s: times.last().copied().unwrap_or(0.0),
        });
    }

    let final_coeff = |p: usize| {
        let now_bytes = probe_bytes(w, &probe_leeches[p]);
        clustering_coefficient(&probe_leeches[p], &now_bytes, probe_base[p].as_ref())
    };
    let fixed_coeff = probe_coeff[0].unwrap_or_else(|| final_coeff(0));
    let mobile_coeff = probe_coeff[1].unwrap_or_else(|| final_coeff(1));

    ServiceOutcome {
        swarms: workload.swarms.len(),
        shards,
        nodes: built.nodes,
        tasks: built.tasks,
        flash_crowds: workload.flash.len(),
        per_swarm,
        shard_samples: samples,
        shard_totals,
        fixed_coeff,
        mobile_coeff,
        completed_frac: done as f64 / all.max(1) as f64,
        workload_digest: digest,
    }
}

fn run_service_impl(
    params: &ServiceParams,
    metrics: &MetricsHandle,
    base_seed: u64,
    threads: Option<usize>,
) -> ServiceOutcome {
    let mut runner = SweepRunner::new("service", base_seed).with_metrics(metrics);
    if let Some(n) = threads {
        runner = runner.with_threads(n);
    }
    let points = [0usize];
    let cells = runner.run(&points, params.runs as usize, |_, cell| {
        cell.add_virtual_secs(params.horizon.as_secs_f64());
        run_service_world(params, cell.seed)
    });
    let outcome = cells.into_iter().next().expect("one point")
        .into_iter().next().expect("one run");

    // Clustering must *emerge* in the all-fixed probe; the mobile probe
    // is measured, not asserted — its gap to the fixed coefficient is
    // the churn distortion.
    assert!(
        outcome.fixed_coeff >= params.cluster_margin,
        "upload-class clustering did not emerge in the fixed probe swarm: \
coefficient {:.3} < margin {:.3}",
        outcome.fixed_coeff,
        params.cluster_margin
    );

    // All metric writes happen here, after the sweep, from the run-0
    // outcome — one sequential writer, so worker count cannot reorder
    // anything.
    let g = |name: &str| metrics.gauge(name);
    g("service.swarms").set(outcome.swarms as f64);
    g("service.shards").set(outcome.shards as f64);
    g("service.nodes").set(outcome.nodes as f64);
    g("service.tasks").set(outcome.tasks as f64);
    g("service.flash_crowds").set(outcome.flash_crowds as f64);
    g("service.completed_frac").set(outcome.completed_frac);
    g("service.cluster.fixed").set(outcome.fixed_coeff);
    g("service.cluster.mobile").set(outcome.mobile_coeff);
    g("service.cluster.distortion").set(outcome.fixed_coeff - outcome.mobile_coeff);

    for s in 0..outcome.shards {
        let series = metrics.series(&format!("service.shard{s}.qps"));
        let mut peak = 0.0f64;
        for pair in outcome.shard_samples.windows(2) {
            let (t0, ref a) = pair[0];
            let (t1, ref b) = pair[1];
            let dt = (t1 - t0).max(1e-9);
            let qps = (b[s].saturating_sub(a[s])) as f64 / dt;
            peak = peak.max(qps);
            series.record(SimTime::ZERO + SimDuration::from_secs_f64(t1), qps);
        }
        g(&format!("service.shard{s}.peak_qps")).set(peak);
        g(&format!("service.shard{s}.announces")).set(
            outcome.shard_totals[s] as f64,
        );
    }

    let p50 = metrics.series("service.swarm.p50_s");
    let p90 = metrics.series("service.swarm.p90_s");
    let hist = metrics.histogram(
        "service.completion_s",
        &[15.0, 30.0, 60.0, 120.0, 240.0, 480.0],
    );
    for s in &outcome.per_swarm {
        if s.completed > 0 {
            p50.record(SimTime::from_secs(s.swarm as u64), s.p50_s);
            p90.record(SimTime::from_secs(s.swarm as u64), s.p90_s);
            hist.record(s.p50_s);
        }
    }
    outcome
}

/// Runs the service tier on an explicit metrics handle and base seed.
///
/// # Panics
///
/// Panics when upload-class clustering fails to emerge in the fixed
/// probe swarm — emergence is asserted, not reported.
pub fn run_service_with(
    params: &ServiceParams,
    metrics: &MetricsHandle,
    base_seed: u64,
) -> ServiceOutcome {
    run_service_impl(params, metrics, base_seed, None)
}

/// [`run_service_with`] pinned to a worker count (the determinism tests
/// compare 1 vs 4 without touching `WP2P_THREADS`).
pub fn run_service_with_threads(
    params: &ServiceParams,
    metrics: &MetricsHandle,
    base_seed: u64,
    threads: usize,
) -> ServiceOutcome {
    run_service_impl(params, metrics, base_seed, Some(threads))
}

/// Renders the service run: tier shape, clustering, per-shard load
/// peaks, and completion percentiles over the swarm population.
pub fn service_table(o: &ServiceOutcome) -> Table {
    let mut t = Table::new("Multi-swarm service tier: sharded trackers under flash crowds");
    t.headers(["metric", "value"]);
    t.row(["swarms".into(), o.swarms.to_string()]);
    t.row(["tracker shards".into(), o.shards.to_string()]);
    t.row(["nodes".into(), o.nodes.to_string()]);
    t.row(["memberships (tasks)".into(), o.tasks.to_string()]);
    t.row(["flash crowds".into(), o.flash_crowds.to_string()]);
    t.row(["completed leeches".into(), pct(o.completed_frac)]);
    t.row([
        "clustering (fixed probe)".into(),
        format!("{:.3}", o.fixed_coeff),
    ]);
    t.row([
        "clustering (30% mobile probe)".into(),
        format!("{:.3}", o.mobile_coeff),
    ]);
    t.row([
        "clustering distortion".into(),
        format!("{:.3}", o.fixed_coeff - o.mobile_coeff),
    ]);
    for s in 0..o.shards {
        let peak = o
            .shard_samples
            .windows(2)
            .map(|p| {
                (p[1].1[s].saturating_sub(p[0].1[s])) as f64 / (p[1].0 - p[0].0).max(1e-9)
            })
            .fold(0.0f64, f64::max);
        t.row([
            format!("shard {s} announces / peak qps"),
            format!("{} / {:.1}", o.shard_totals[s], peak),
        ]);
    }
    // Completion percentiles across the swarm population (of per-swarm
    // medians), probes excluded — the service-level view.
    let mut p50s: Vec<f64> = o
        .per_swarm
        .iter()
        .skip(2)
        .filter(|s| s.completed > 0)
        .map(|s| s.p50_s)
        .collect();
    p50s.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
    t.row([
        "swarm p50 completion (p50/p90/worst)".into(),
        format!(
            "{:.0}s / {:.0}s / {:.0}s",
            percentile(&p50s, 0.5),
            percentile(&p50s, 0.9),
            p50s.last().copied().unwrap_or(0.0)
        ),
    ]);
    t.note("clustering emergence in the fixed probe is asserted, not reported");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately tiny tier: seconds, not minutes, per run.
    fn tiny() -> ServiceParams {
        ServiceParams {
            swarms: 8,
            tracker_shards: 2,
            total_peers: 96,
            min_swarm: 4,
            file_size: 256 * 1024,
            probe_file_size: 1024 * 1024,
            probe_leeches_per_class: 4,
            flash_crowds: 2,
            flash_size: 4,
            flash_mean_gap: SimDuration::from_secs(10),
            outage_at: SimDuration::from_secs(60),
            outage_len: SimDuration::from_secs(20),
            day_length: SimDuration::from_secs(120),
            horizon: SimDuration::from_secs(240),
            // Probes this small finish within a couple of rechoke
            // intervals, so clustering can't converge; emergence is
            // asserted by `legout_clustering_*` on a full-size probe
            // and by the quick preset, not by the tiny harness.
            cluster_margin: 0.0,
            ..ServiceParams::quick()
        }
    }

    #[test]
    fn workload_generator_is_deterministic() {
        let p = tiny();
        let a = generate_workload(&p, 42);
        let b = generate_workload(&p, 42);
        assert_eq!(a.render(), b.render(), "same seed must replay byte-identically");
        assert_eq!(a.digest(), b.digest());
        let c = generate_workload(&p, 43);
        assert_ne!(a.render(), c.render(), "different seeds must differ");
    }

    #[test]
    fn workload_meets_the_floors() {
        let p = ServiceParams::quick();
        let w = generate_workload(&p, SERVICE_SEED);
        assert!(w.swarms.len() >= 256 + 2, "swarm floor");
        assert!(w.memberships() >= 8192, "membership floor: {}", w.memberships());
        assert_eq!(p.tracker_shards, 4);
        // Every shard owns at least one swarm, and the probe swarms are
        // first with full 3-class rosters.
        let mut owned = vec![false; p.tracker_shards];
        for s in &w.swarms {
            owned[s.shard] = true;
        }
        assert!(owned.iter().all(|&o| o), "a shard owns no swarms");
        assert_eq!(w.swarms[0].kind, SwarmKind::FixedProbe);
        assert_eq!(w.swarms[1].kind, SwarmKind::MobileProbe);
        assert!(w.swarms[0].leeches.iter().all(|l| l.mobile.is_none()));
        let mobile = w.swarms[1].leeches.iter().filter(|l| l.mobile.is_some()).count();
        let n = w.swarms[1].leeches.len();
        assert_eq!(mobile, (0.3 * n as f64).round() as usize);
    }

    #[test]
    fn diurnal_modulation_swings_handoff_periods() {
        let p = ServiceParams::quick();
        // Mid-day (phase 0.25) churns hardest; night (0.75) least.
        let day = diurnal_factor(0.25, p.diurnal_amp);
        let night = diurnal_factor(0.75, p.diurnal_amp);
        assert!(day < 1.0 && night > 1.0 && night / day > 2.0);
        // The floor keeps periods positive at any amplitude.
        assert!(diurnal_factor(0.25, 1.5) >= 0.25);
    }

    #[test]
    fn flash_crowds_arrive_late_and_popularity_biased() {
        let p = tiny();
        let w = generate_workload(&p, 7);
        for f in &w.flash {
            assert!(f.at > SimTime::ZERO);
            assert!(f.swarm >= 2, "flash crowds only hit background swarms");
            assert!(f.size >= 1);
            let late = w.swarms[f.swarm]
                .leeches
                .iter()
                .filter(|l| l.start_at >= f.at)
                .count();
            assert!(late >= f.size, "burst members carry start_at >= arrival");
        }
    }

    #[test]
    fn service_run_replays_byte_identically() {
        let a = run_service_world(&tiny(), 42);
        let b = run_service_world(&tiny(), 42);
        assert_eq!(a, b, "service run diverged between replays");
        assert!(a.shard_totals.iter().sum::<u64>() > 0);
        assert!(a.completed_frac > 0.0);
    }

    #[test]
    fn service_sweep_deterministic_across_worker_counts() {
        let p = tiny();
        let a = run_service_with_threads(&p, &MetricsHandle::disabled(), SERVICE_SEED, 1);
        let b = run_service_with_threads(&p, &MetricsHandle::disabled(), SERVICE_SEED, 4);
        assert_eq!(a, b, "service run must not depend on worker count");
    }

    #[test]
    fn legout_clustering_emerges_fixed_and_distorts_mobile() {
        // The Legout regression: three upload classes, all fixed hosts
        // vs 30% mobile. Clustering must emerge in the fixed probe and
        // the mobile probe must not cluster harder than the fixed one.
        // The probes get a 30-leech roster and a longer transfer: the
        // coefficient is statistical, and a smaller probe is too noisy
        // to order the two reliably.
        let p = ServiceParams {
            swarms: 2,
            total_peers: 16,
            probe_leeches_per_class: 10,
            probe_file_size: 48 * 1024 * 1024,
            flash_crowds: 0,
            horizon: SimDuration::from_secs(360),
            ..tiny()
        };
        let o = run_service_world(&p, SERVICE_SEED);
        assert!(
            o.fixed_coeff > 1.0,
            "no clustering in the fixed probe: {:.3}",
            o.fixed_coeff
        );
        assert!(
            o.mobile_coeff <= o.fixed_coeff,
            "mobile churn should distort clustering: fixed {:.3} vs mobile {:.3}",
            o.fixed_coeff,
            o.mobile_coeff
        );
    }

    #[test]
    fn shard_outage_dents_only_that_shards_load() {
        let o = run_service_world(&tiny(), 42);
        // During the outage window the dark shard's cumulative announce
        // count must go flat while some other shard keeps serving.
        let p = tiny();
        let t0 = p.outage_at.as_secs_f64();
        let t1 = (p.outage_at + p.outage_len).as_secs_f64();
        let in_window: Vec<&(f64, Vec<u64>)> = o
            .shard_samples
            .iter()
            .filter(|(t, _)| *t >= t0 && *t <= t1)
            .collect();
        assert!(in_window.len() >= 2, "need samples inside the outage window");
        let first = in_window.first().expect("nonempty");
        let last = in_window.last().expect("nonempty");
        let dark = p.outage_shard;
        assert_eq!(
            first.1[dark], last.1[dark],
            "dark shard served announces during its outage"
        );
        let others_moved = (0..p.tracker_shards)
            .filter(|&s| s != dark)
            .any(|s| last.1[s] > first.1[s]);
        assert!(others_moved, "healthy shards should keep serving");
    }
}
