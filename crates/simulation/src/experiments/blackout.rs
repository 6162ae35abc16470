//! **Dark tracker tier** — the degradation ladder end to end
//! (`all_figures -- --only blackout [--seed <seed>]`).
//!
//! Not a paper figure: the robustness follow-up to the service tier.
//! One swarm, four arms, every observable a pure function of the seed:
//!
//! * **tracker-on** — the tier stays up, but the swarm's primary shard
//!   goes dark for a window mid-transfer. With
//!   [`FlowConfig::tracker_replicas`] on, announces fail over to the
//!   deterministic secondary shard
//!   ([`bittorrent::tracker::secondary_shard_of`]), and the start-burst
//!   of announces pushes the shard past its
//!   [`bittorrent::tracker::TrackerConfig::shed_capacity`], so overload
//!   shedding scales the advertised intervals — rungs one and two of
//!   the ladder, both asserted.
//! * **dark** — at `blackout_at` the *entire* tier goes down and stays
//!   down. Announce circuit breakers open
//!   ([`bittorrent::lifecycle::ResilienceConfig::breaker_threshold`]),
//!   probes go out at the cooloff cadence instead of hammering the dead
//!   shards, and peer discovery falls back to PEX gossip
//!   ([`bittorrent::client::PexConfig`]) — rung three. The arm asserts
//!   the swarm still reaches **100% completions** with no tracker at
//!   all.
//!
//! Both arms run twice: all fixed hosts, and with a 30% mobile share
//! whose hand-offs invalidate gossiped addresses mid-blackout (the
//! moved host re-dials its saved correspondents from its new address —
//! the paper's knowledge-retention story with the tracker subtracted).
//! The reported *degradation* is the dark arm's median completion time
//! over the tracker-on arm's, per population.

use super::common::synthetic_torrent;
use crate::flow::{Access, FlowConfig, FlowWorld, TaskKey, TaskSpec};
use crate::harness::SweepRunner;
use crate::report::{pct, Table};
use bittorrent::client::{ClientConfig, PexConfig};
use bittorrent::lifecycle::ResilienceConfig;
use bittorrent::tracker::{secondary_shard_of, shard_of, TrackerConfig};
use metrics::handle::MetricsHandle;
use simnet::mobility::MobilityProcess;
use simnet::time::{SimDuration, SimTime};

/// Base seed of the blackout run (pinned by the determinism tests).
pub const BLACKOUT_SEED: u64 = 0xB1AC;

/// Parameters of the dark-tier blackout run.
#[derive(Clone, Copy, Debug)]
pub struct BlackoutParams {
    /// Leeches in the swarm (plus one seed).
    pub leeches: usize,
    /// Mobile share of the mobile arms' leeches.
    pub mobile_fraction: f64,
    /// File size.
    pub file_size: u64,
    /// Piece length.
    pub piece_length: u32,
    /// Seed uplink, bytes/second — sized so the transfer spans the
    /// blackout instant (a swarm that finishes during warmup proves
    /// nothing about the dark tier).
    pub seed_up: f64,
    /// Tracker shards in the tier.
    pub tracker_shards: usize,
    /// Peers returned per announce — deliberately small, so tracker
    /// discovery alone leaves the swarm sparsely connected and PEX is
    /// load-bearing, not decorative.
    pub max_peers_returned: usize,
    /// Advertised re-announce interval (short: the failover window must
    /// see periodic announces).
    pub announce_interval: SimDuration,
    /// Advertised early re-announce floor.
    pub min_announce: SimDuration,
    /// Announces per shed window before a shard pushes back.
    pub shed_capacity: u64,
    /// Shed-accounting window.
    pub shed_window: SimDuration,
    /// PEX gossip cadence.
    pub gossip_interval: SimDuration,
    /// Most addresses per PEX message.
    pub pex_max_entries: usize,
    /// Oldest address worth gossiping or believing.
    pub pex_max_age: SimDuration,
    /// Consecutive announce failures before the breaker opens.
    pub breaker_threshold: u32,
    /// Open-breaker probe spacing.
    pub breaker_cooloff: SimDuration,
    /// Mobile hand-off period (jittered ±20%).
    pub handoff_period: SimDuration,
    /// Mobile hand-off outage length.
    pub handoff_outage: SimDuration,
    /// Tracker-on arms: when the primary shard goes dark.
    pub failover_at: SimDuration,
    /// Tracker-on arms: how long the primary stays dark.
    pub failover_len: SimDuration,
    /// Dark arms: when the whole tier goes dark (and stays dark).
    pub blackout_at: SimDuration,
    /// Virtual horizon.
    pub horizon: SimDuration,
    /// Runs (replays) per sweep cell.
    pub runs: u64,
}

impl BlackoutParams {
    /// CI-sized preset.
    pub fn quick() -> Self {
        BlackoutParams {
            leeches: 12,
            mobile_fraction: 0.3,
            file_size: 16 * 1024 * 1024,
            piece_length: 256 * 1024,
            seed_up: 256_000.0,
            tracker_shards: 4,
            max_peers_returned: 3,
            announce_interval: SimDuration::from_secs(30),
            min_announce: SimDuration::from_secs(15),
            shed_capacity: 8,
            shed_window: SimDuration::from_secs(30),
            gossip_interval: SimDuration::from_secs(20),
            pex_max_entries: 8,
            pex_max_age: SimDuration::from_secs(240),
            breaker_threshold: 2,
            breaker_cooloff: SimDuration::from_secs(120),
            handoff_period: SimDuration::from_secs(60),
            handoff_outage: SimDuration::from_secs(2),
            failover_at: SimDuration::from_secs(120),
            failover_len: SimDuration::from_secs(120),
            blackout_at: SimDuration::from_secs(90),
            horizon: SimDuration::from_secs(900),
            runs: 1,
        }
    }

    /// Paper-scale preset: a bigger swarm, a longer transfer, the same
    /// ladder.
    pub fn paper() -> Self {
        BlackoutParams {
            leeches: 40,
            file_size: 64 * 1024 * 1024,
            seed_up: 512_000.0,
            shed_capacity: 16,
            failover_at: SimDuration::from_secs(240),
            failover_len: SimDuration::from_secs(240),
            blackout_at: SimDuration::from_secs(180),
            horizon: SimDuration::from_secs(2400),
            ..Self::quick()
        }
    }
}

/// The four arms, in outcome order.
pub const ARM_NAMES: [&str; 4] = ["on_fixed", "on_mobile", "dark_fixed", "dark_mobile"];

/// The deterministic observables of one arm.
#[derive(Clone, Debug, PartialEq)]
pub struct ArmOutcome {
    /// One of [`ARM_NAMES`].
    pub name: &'static str,
    /// Leeches in the swarm.
    pub leeches: usize,
    /// Leeches that completed within the horizon.
    pub completed: usize,
    /// Median completion time, seconds.
    pub p50_s: f64,
    /// 90th-percentile completion time.
    pub p90_s: f64,
    /// Worst completion time.
    pub worst_s: f64,
    /// Final announce totals per shard.
    pub shard_announces: Vec<u64>,
    /// Final shed counts per shard.
    pub shard_sheds: Vec<u64>,
    /// PEX messages sent, swarm-wide (seed included).
    pub pex_sent: u64,
    /// PEX messages received.
    pub pex_received: u64,
    /// Addresses first learned through PEX.
    pub pex_learned: u64,
    /// Announce circuit-breaker trips.
    pub breaker_trips: u64,
}

impl ArmOutcome {
    /// Completed leeches / all leeches.
    pub fn completed_frac(&self) -> f64 {
        self.completed as f64 / self.leeches.max(1) as f64
    }
}

/// The deterministic observables of one blackout run.
#[derive(Clone, Debug, PartialEq)]
pub struct BlackoutOutcome {
    /// `[on_fixed, on_mobile, dark_fixed, dark_mobile]`.
    pub arms: Vec<ArmOutcome>,
    /// Primary shard of the swarm (all arms share the torrent).
    pub primary_shard: usize,
    /// Its deterministic failover secondary.
    pub secondary_shard: usize,
    /// Dark p50 over tracker-on p50, all-fixed population.
    pub degradation_fixed: f64,
    /// Dark p50 over tracker-on p50, 30%-mobile population.
    pub degradation_mobile: f64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs one arm of the blackout experiment. Pure in
/// `(params, seed, dark, mobile)`.
pub fn run_blackout_arm(
    params: &BlackoutParams,
    seed: u64,
    dark: bool,
    mobile: bool,
) -> ArmOutcome {
    let name = ARM_NAMES[usize::from(dark) * 2 + usize::from(mobile)];
    let torrent = synthetic_torrent(
        "blackout.bin",
        params.piece_length,
        params.file_size,
        seed ^ 0xB1AC,
    );
    let shards = params.tracker_shards.max(1);
    let cfg = FlowConfig {
        tracker_shards: shards,
        tracker_replicas: true,
        tracker: TrackerConfig {
            announce_interval: params.announce_interval,
            min_interval: params.min_announce,
            max_peers_returned: params.max_peers_returned,
            shed_capacity: params.shed_capacity,
            shed_window: params.shed_window,
            ..TrackerConfig::default()
        },
        ..FlowConfig::default()
    };
    let mut w = FlowWorld::new(cfg, seed);

    // Every client in the arm runs the full ladder: PEX gossip on, armed
    // resilience, announce breaker armed.
    let p = *params;
    let make_config = move || ClientConfig {
        resilience: ResilienceConfig {
            breaker_threshold: p.breaker_threshold,
            breaker_cooloff: p.breaker_cooloff,
            ..ResilienceConfig::armed()
        },
        pex: PexConfig {
            enabled: true,
            gossip_interval: p.gossip_interval,
            max_entries: p.pex_max_entries,
            max_age: p.pex_max_age,
        },
        ..ClientConfig::default()
    };

    let seed_node = w.add_node(Access::Wired {
        up: params.seed_up,
        down: 500_000.0,
    });
    let mut seed_spec = TaskSpec::default_client(seed_node, torrent, true);
    seed_spec.make_config = Box::new(make_config);
    let seed_task = w.add_task(seed_spec);

    let mobile_count = if mobile {
        (params.mobile_fraction * params.leeches as f64).round() as usize
    } else {
        0
    };
    let mut leeches: Vec<TaskKey> = Vec::with_capacity(params.leeches);
    for i in 0..params.leeches {
        let is_mobile = i < mobile_count;
        let node = if is_mobile {
            // One contended WLAN channel; hand-offs change the address.
            let n = w.add_node(Access::Wireless {
                capacity: 500_000.0,
            });
            w.set_mobility(
                n,
                MobilityProcess::with_jitter(params.handoff_period, params.handoff_outage, 0.2),
            );
            n
        } else {
            w.add_node(Access::residential())
        };
        let mut spec = TaskSpec::default_client(node, torrent, false);
        spec.make_config = Box::new(make_config);
        leeches.push(w.add_task(spec));
    }
    w.start();

    let horizon = SimTime::ZERO + params.horizon;
    let primary = shard_of(torrent.info_hash, shards);
    if dark {
        // Rung three: at blackout_at the whole tier goes down and never
        // comes back — PEX is the only discovery path left.
        let at = (SimTime::ZERO + params.blackout_at).min(horizon);
        w.run_until(at, |_| {});
        for s in 0..shards {
            w.set_tracker_shard_down(s, true);
        }
        w.run_until(horizon, |_| {});
    } else {
        // Rungs one and two: the primary shard alone goes dark for a
        // window; replicas route announces to the secondary, whose shed
        // accounting pushes the pacing back.
        let at = (SimTime::ZERO + params.failover_at).min(horizon);
        w.run_until(at, |_| {});
        w.set_tracker_shard_down(primary, true);
        w.run_until((at + params.failover_len).min(horizon), |_| {});
        w.set_tracker_shard_down(primary, false);
        w.run_until(horizon, |_| {});
    }

    let mut times: Vec<f64> = leeches
        .iter()
        .filter_map(|&t| w.completed_at(t))
        .map(|at| at.as_secs_f64())
        .collect();
    times.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));

    let mut pex = (0u64, 0u64, 0u64, 0u64);
    for &t in leeches.iter().chain(std::iter::once(&seed_task)) {
        let (s, r, l, b) = w.task_pex_stats(t);
        pex.0 += s;
        pex.1 += r;
        pex.2 += l;
        pex.3 += b;
    }

    ArmOutcome {
        name,
        leeches: params.leeches,
        completed: times.len(),
        p50_s: percentile(&times, 0.5),
        p90_s: percentile(&times, 0.9),
        worst_s: times.last().copied().unwrap_or(0.0),
        shard_announces: (0..shards).map(|s| w.tracker_shard_announces(s)).collect(),
        shard_sheds: (0..shards).map(|s| w.tracker_shard_sheds(s)).collect(),
        pex_sent: pex.0,
        pex_received: pex.1,
        pex_learned: pex.2,
        breaker_trips: pex.3,
    }
}

/// Runs all four arms from one seed and extracts every observable.
/// Pure in `(params, seed)`.
pub fn run_blackout_world(params: &BlackoutParams, seed: u64) -> BlackoutOutcome {
    let arms: Vec<ArmOutcome> = [(false, false), (false, true), (true, false), (true, true)]
        .into_iter()
        .map(|(dark, mobile)| run_blackout_arm(params, seed, dark, mobile))
        .collect();
    let shards = params.tracker_shards.max(1);
    let torrent = synthetic_torrent(
        "blackout.bin",
        params.piece_length,
        params.file_size,
        seed ^ 0xB1AC,
    );
    let primary = shard_of(torrent.info_hash, shards);
    let secondary = secondary_shard_of(torrent.info_hash, shards);
    let deg = |dark: &ArmOutcome, on: &ArmOutcome| dark.p50_s / on.p50_s.max(1e-9);
    BlackoutOutcome {
        degradation_fixed: deg(&arms[2], &arms[0]),
        degradation_mobile: deg(&arms[3], &arms[1]),
        primary_shard: primary,
        secondary_shard: secondary,
        arms,
    }
}

fn run_blackout_impl(
    params: &BlackoutParams,
    metrics: &MetricsHandle,
    base_seed: u64,
    threads: Option<usize>,
) -> BlackoutOutcome {
    let mut runner = SweepRunner::new("blackout", base_seed).with_metrics(metrics);
    if let Some(n) = threads {
        runner = runner.with_threads(n);
    }
    let points = [0usize];
    let cells = runner.run(&points, params.runs as usize, |_, cell| {
        cell.add_virtual_secs(4.0 * params.horizon.as_secs_f64());
        run_blackout_world(params, cell.seed)
    });
    let outcome = cells.into_iter().next().expect("one point")
        .into_iter().next().expect("one run");

    // The ladder is asserted, not reported. Dark arms: the tier is gone
    // for good, yet PEX must carry every leech to completion and the
    // breakers must have stopped the announce hammering.
    for arm in &outcome.arms[2..] {
        assert_eq!(
            arm.completed, arm.leeches,
            "{}: swarm did not reach 100% completions under a dark tier \
({}/{} done)",
            arm.name, arm.completed, arm.leeches
        );
        assert!(arm.pex_sent > 0, "{}: no PEX gossip went out", arm.name);
        assert!(
            arm.breaker_trips > 0,
            "{}: announce breakers never opened under a dark tier",
            arm.name
        );
    }
    // Tracker-on arms: the primary outage must have been absorbed by the
    // secondary (failover served announces) and the shard pushed back on
    // the start burst (shedding engaged).
    for arm in &outcome.arms[..2] {
        assert!(
            arm.shard_announces[outcome.secondary_shard] > 0,
            "{}: failover never routed announces to the secondary shard",
            arm.name
        );
        assert!(
            arm.shard_sheds.iter().sum::<u64>() > 0,
            "{}: overload shedding never engaged",
            arm.name
        );
    }

    // All metric writes happen here, after the sweep, from the run-0
    // outcome — one sequential writer, so worker count cannot reorder
    // anything.
    let g = |name: &str| metrics.gauge(name);
    for arm in &outcome.arms {
        g(&format!("blackout.{}.completed_frac", arm.name)).set(arm.completed_frac());
        g(&format!("blackout.{}.p50_s", arm.name)).set(arm.p50_s);
        g(&format!("blackout.{}.p90_s", arm.name)).set(arm.p90_s);
        g(&format!("blackout.{}.worst_s", arm.name)).set(arm.worst_s);
        g(&format!("blackout.{}.announces", arm.name))
            .set(arm.shard_announces.iter().sum::<u64>() as f64);
        g(&format!("blackout.{}.sheds", arm.name))
            .set(arm.shard_sheds.iter().sum::<u64>() as f64);
        g(&format!("blackout.{}.breaker_trips", arm.name)).set(arm.breaker_trips as f64);
        g(&format!("pex.{}.sent", arm.name)).set(arm.pex_sent as f64);
        g(&format!("pex.{}.received", arm.name)).set(arm.pex_received as f64);
        g(&format!("pex.{}.learned", arm.name)).set(arm.pex_learned as f64);
    }
    g("blackout.degradation.fixed").set(outcome.degradation_fixed);
    g("blackout.degradation.mobile").set(outcome.degradation_mobile);
    outcome
}

/// Runs the blackout experiment on an explicit metrics handle and base
/// seed.
///
/// # Panics
///
/// Panics when any rung of the degradation ladder fails to carry its
/// arm: dark arms must complete 100% via PEX with tripped breakers;
/// tracker-on arms must fail over to the secondary shard and shed load.
pub fn run_blackout_with(
    params: &BlackoutParams,
    metrics: &MetricsHandle,
    base_seed: u64,
) -> BlackoutOutcome {
    run_blackout_impl(params, metrics, base_seed, None)
}

/// [`run_blackout_with`] pinned to a worker count (the determinism tests
/// compare 1 vs 4 without touching `WP2P_THREADS`).
pub fn run_blackout_with_threads(
    params: &BlackoutParams,
    metrics: &MetricsHandle,
    base_seed: u64,
    threads: usize,
) -> BlackoutOutcome {
    run_blackout_impl(params, metrics, base_seed, Some(threads))
}

/// Renders the blackout run: one row per arm plus the degradation
/// ratios.
pub fn blackout_table(o: &BlackoutOutcome) -> Table {
    let mut t = Table::new("Dark tracker tier: failover, shedding, and PEX fallback");
    t.headers([
        "arm",
        "completed",
        "p50 / p90 / worst (s)",
        "announces",
        "sheds",
        "pex sent/learned",
        "breaker trips",
    ]);
    for arm in &o.arms {
        t.row([
            arm.name.to_string(),
            pct(arm.completed_frac()),
            format!("{:.0} / {:.0} / {:.0}", arm.p50_s, arm.p90_s, arm.worst_s),
            arm.shard_announces.iter().sum::<u64>().to_string(),
            arm.shard_sheds.iter().sum::<u64>().to_string(),
            format!("{}/{}", arm.pex_sent, arm.pex_learned),
            arm.breaker_trips.to_string(),
        ]);
    }
    t.row([
        "degradation (dark/on p50)".into(),
        String::new(),
        format!(
            "fixed ×{:.2}, mobile ×{:.2}",
            o.degradation_fixed, o.degradation_mobile
        ),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    t.note(&format!(
        "swarm shard {} fails over to {}; dark arms assert 100% completion via PEX",
        o.primary_shard, o.secondary_shard
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately tiny ladder: seconds, not minutes, per arm.
    fn tiny() -> BlackoutParams {
        BlackoutParams {
            leeches: 6,
            file_size: 8 * 1024 * 1024,
            seed_up: 128_000.0,
            shed_capacity: 4,
            handoff_period: SimDuration::from_secs(50),
            failover_at: SimDuration::from_secs(60),
            failover_len: SimDuration::from_secs(120),
            blackout_at: SimDuration::from_secs(45),
            horizon: SimDuration::from_secs(480),
            ..BlackoutParams::quick()
        }
    }

    #[test]
    fn blackout_run_replays_byte_identically() {
        let a = run_blackout_world(&tiny(), 42);
        let b = run_blackout_world(&tiny(), 42);
        assert_eq!(a, b, "blackout run diverged between replays");
    }

    #[test]
    fn blackout_deterministic_across_worker_counts() {
        let p = tiny();
        let a = run_blackout_with_threads(&p, &MetricsHandle::disabled(), BLACKOUT_SEED, 1);
        let b = run_blackout_with_threads(&p, &MetricsHandle::disabled(), BLACKOUT_SEED, 4);
        assert_eq!(a, b, "blackout run must not depend on worker count");
    }

    #[test]
    fn dark_tier_completes_via_pex() {
        let o = run_blackout_world(&tiny(), BLACKOUT_SEED);
        for arm in &o.arms[2..] {
            assert_eq!(
                arm.completed, arm.leeches,
                "{}: dark tier must not stop the swarm",
                arm.name
            );
            assert!(arm.pex_sent > 0 && arm.pex_received > 0, "{}: no gossip", arm.name);
            assert!(arm.breaker_trips > 0, "{}: breakers never opened", arm.name);
        }
        // Degradation is a ratio of medians; with a dark tier it cannot
        // be absurdly large if PEX is doing its job.
        assert!(o.degradation_fixed > 0.0 && o.degradation_mobile > 0.0);
    }

    #[test]
    fn failover_and_shedding_rungs_engage() {
        let o = run_blackout_world(&tiny(), BLACKOUT_SEED);
        assert_ne!(o.primary_shard, o.secondary_shard);
        for arm in &o.arms[..2] {
            assert!(
                arm.shard_announces[o.secondary_shard] > 0,
                "{}: secondary shard never served during the failover window",
                arm.name
            );
            assert!(
                arm.shard_announces[o.primary_shard] > arm.shard_announces[o.secondary_shard],
                "{}: the primary should still carry most announces",
                arm.name
            );
            assert!(arm.shard_sheds.iter().sum::<u64>() > 0, "{}: no shedding", arm.name);
            assert_eq!(arm.completed, arm.leeches, "{}: failover arm must complete", arm.name);
        }
    }
}
