//! # bittorrent — a BitTorrent protocol implementation for simulation
//!
//! Every protocol mechanism the wP2P paper's experiments depend on, built
//! from scratch:
//!
//! * [`bencode`] — strict BEP 3 serialization (torrent files, tracker
//!   responses).
//! * [`sha1`] — FIPS 180-1 SHA-1 for piece hashes and info-hashes.
//! * [`metainfo`] — `.torrent` structure, including *synthetic* torrents
//!   of arbitrary size for swarm-scale simulation.
//! * [`peer_id`] — 20-byte peer identities and the regeneration styles
//!   whose interaction with mobility the paper analyses.
//! * [`wire`] — the peer wire protocol: handshake, length-prefixed
//!   messages, a byte-exact codec, and block references.
//! * [`bitfield`] — piece-possession maps.
//! * [`progress`] — piece/block bookkeeping: requests in flight, timeouts,
//!   endgame duplication.
//! * [`picker`] — piece-selection policies (rarest-first default).
//! * [`choker`] — tit-for-tat unchoking with an optimistic slot.
//! * [`lifecycle`] — connection resilience: seeded exponential backoff,
//!   keepalive/snub timeouts, and the per-peer lifecycle state machine.
//! * [`tracker`] — the directory server with 50-peer responses and
//!   staleness-by-expiry.
//! * [`rate`] — rate estimation and token-bucket limiting.
//! * [`client`] — the sans-IO client session tying it all together.
//!
//! The crate is transport-agnostic: the [`client::Client`] emits
//! [`client::Action`]s and consumes events, so it runs identically over the
//! packet-level TCP stack or the fluid flow model in `p2p-simulation`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bencode;
pub mod bitfield;
pub mod choker;
pub mod client;
pub mod lifecycle;
pub mod magnet;
pub mod metainfo;
pub mod peer_id;
pub mod picker;
pub mod progress;
pub mod rate;
pub mod sha1;
pub mod strategy;
pub mod tracker;
pub mod wire;

/// Commonly used types.
pub mod prelude {
    pub use crate::bencode::Value;
    pub use crate::bitfield::Bitfield;
    pub use crate::choker::{ChokeDecision, Choker, ChokerConfig, ConnKey, PeerSnapshot};
    pub use crate::client::{Action, Client, ClientConfig, ClientStats};
    pub use crate::lifecycle::{BackoffPolicy, ConnState, ResilienceConfig};
    pub use crate::magnet::MagnetLink;
    pub use crate::metainfo::{Info, InfoHash, Metainfo};
    pub use crate::peer_id::{PeerId, PeerIdStyle};
    pub use crate::picker::{
        FixedMix, PickContext, PiecePicker, RandomPick, RarestFirst, Sequential,
    };
    pub use crate::progress::{BlockOutcome, TorrentProgress};
    pub use crate::rate::{RateEstimator, TokenBucket};
    pub use crate::sha1::{Digest, Sha1};
    pub use crate::strategy::{
        BitTyrant, ClientStrategy, FreeRider, Honest, HybridMobility, PopulationMix, StrategyKind,
        StrategyPeer,
    };
    pub use crate::tracker::{AnnounceEvent, AnnounceResponse, Tracker, TrackerConfig};
    pub use crate::wire::{BlockRef, Message, BLOCK_SIZE};
}
