//! Shared scaffolding for the per-figure experiment drivers.

use crate::flow::{Access, FlowWorld, TaskKey, TaskSpec, TorrentSpec};
use bittorrent::client::ClientConfig;
use bittorrent::metainfo::Metainfo;
use bittorrent::strategy::PopulationMix;

/// Piece length of every synthetic experiment torrent: 256 KiB.
pub const PIECE_LENGTH: u32 = 256 * 1024;

/// Builds a [`TorrentSpec`] for a synthetic file. Flow transfers use
/// 64 KB blocks: coarse enough to bound event counts at swarm scale, fine
/// enough that one block transfers in well under a rechoke interval on a
/// slow uplink share (a block that outlives its unchoke grant gets
/// re-transferred and poisons throughput).
pub fn synthetic_torrent(name: &str, piece_length: u32, length: u64, seed: u64) -> TorrentSpec {
    let meta = Metainfo::synthetic(name, "sim-tracker", piece_length, length, seed);
    TorrentSpec::from_metainfo(&meta, (64 * 1024).min(piece_length))
}

/// Background swarm description: seeds and leeches on wired access.
#[derive(Clone, Copy, Debug)]
pub struct SwarmSetup {
    /// Number of seeds.
    pub seeds: usize,
    /// Access of each seed.
    pub seed_access: Access,
    /// Number of leeches.
    pub leeches: usize,
    /// Access of each leech.
    pub leech_access: Access,
    /// Maximum initial completion of background leeches. Leeches start at
    /// an even spread of fractions in `[0, leech_head_start]`, giving the
    /// swarm the completion diversity real swarms have (mutual interest,
    /// active tit-for-tat). Zero = everyone starts empty.
    pub leech_head_start: f64,
}

impl SwarmSetup {
    /// A small healthy swarm for quick runs.
    pub fn small() -> Self {
        SwarmSetup {
            seeds: 1,
            seed_access: Access::campus(),
            leeches: 4,
            leech_access: Access::residential(),
            leech_head_start: 0.0,
        }
    }
}

/// Populates `world` with an all-honest background swarm for
/// `torrent`; returns `(seed_tasks, leech_tasks)`.
pub fn populate_swarm(
    world: &mut FlowWorld,
    torrent: TorrentSpec,
    setup: &SwarmSetup,
) -> (Vec<TaskKey>, Vec<TaskKey>) {
    populate_swarm_with_mix(world, torrent, setup, PopulationMix::honest(), 0)
}

/// [`populate_swarm`], but background leeches draw their client strategy
/// from `mix` (seeds stay honest — a free-riding seed is a no-op and
/// would only dilute the mix over the peers that matter). Leech `i` gets
/// `mix.build(mix_seed, i)`, so the assignment depends only on
/// `(mix, mix_seed, i)`: the same leech keeps its class across share
/// points when the sweep reuses `mix_seed`, which is what makes
/// fraction sweeps nested rather than resampled.
pub fn populate_swarm_with_mix(
    world: &mut FlowWorld,
    torrent: TorrentSpec,
    setup: &SwarmSetup,
    mix: PopulationMix,
    mix_seed: u64,
) -> (Vec<TaskKey>, Vec<TaskKey>) {
    let mut seeds = Vec::new();
    let mut leeches = Vec::new();
    for _ in 0..setup.seeds {
        let n = world.add_node(setup.seed_access);
        seeds.push(world.add_task(TaskSpec::default_client(n, torrent, true)));
    }
    for i in 0..setup.leeches {
        let n = world.add_node(setup.leech_access);
        let mut spec = TaskSpec::default_client(n, torrent, false);
        if setup.leech_head_start > 0.0 {
            spec.start_fraction =
                Some(setup.leech_head_start * (i + 1) as f64 / (setup.leeches + 1) as f64);
        }
        spec.make_config = Box::new(move || ClientConfig {
            strategy: mix.build(mix_seed, i as u64),
            ..ClientConfig::default()
        });
        leeches.push(world.add_task(spec));
    }
    (seeds, leeches)
}
