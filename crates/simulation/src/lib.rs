//! # p2p-simulation — experiment worlds for the wP2P reproduction
//!
//! Wires the substrates together into runnable testbeds:
//!
//! * [`rates`] — max-min fair bandwidth sharing (the fluid model core).
//! * [`flow`] — the flow-level world: swarms of BitTorrent clients over
//!   shared access links, with mobility, tracker, and wP2P components.
//!   Used for paper Figs. 3, 4, 8(b), 8(c), 9.
//! * [`packet`] — the packet-level world: sim-TCP segments over wireless
//!   channel models, with the AM filter in the datapath. Used for paper
//!   Figs. 2 and 8(a).
//! * `host` (crate-private) — the client host both worlds share: the
//!   announce and outage policy and the fault and checker plumbing.
//!   Each world keeps only its transport.
//! * [`harness`] — the parallel deterministic sweep runner every
//!   experiment driver fans its (point × run) cells through.
//! * [`invariants`] — the swarm-wide invariant checker each world owns
//!   and runs once armed (conservation, monotonicity, sequence-space and
//!   feasibility laws); debug builds arm every world.
//! * [`experiments`] — one driver per figure, each producing the same
//!   series the paper plots.
//! * [`report`] — plain-text table rendering for the experiment reports.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod flow;
pub mod harness;
mod host;
pub mod invariants;
pub mod packet;
pub mod rates;
pub mod report;
