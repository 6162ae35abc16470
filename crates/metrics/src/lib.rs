//! # metrics — unified metrics/tracing layer for the wP2P reproduction
//!
//! One crate owns everything observable: lock-free-in-the-hot-path
//! instruments, a bounded sim-time series recorder, a structured trace
//! sink, and the descriptive statistics the figure drivers share. It
//! subsumes the old `simnet::stats` / `simnet::trace` modules (both now
//! live here) and adds the [`handle::MetricsHandle`] that every layer —
//! TCP endpoints, BitTorrent clients, the AM filter, LIHD, and both
//! simulation worlds — records through.
//!
//! * [`handle`] — [`handle::MetricsHandle`]: enabled (shared registry)
//!   or disabled (all updates inline to nothing).
//! * [`registry`] — [`registry::Counter`], [`registry::Gauge`],
//!   [`registry::Histogram`]: resolve-by-name once, then atomic updates.
//! * [`recorder`] — [`recorder::Series`]: ring-buffer time series with
//!   sim-time stamps and bounded memory.
//! * [`trace`] — the bounded event trace (ring buffer, opt-in) that
//!   worlds embed and the handle also exposes as a sink.
//! * [`stats`] — rate meters, EWMA, append-only time series, run
//!   summaries, and the mean/median/percentile helpers used by
//!   experiment post-processing.
//! * [`json`] — the dependency-free JSON value/parser/writer behind
//!   `--metrics-out` dumps and their validator.
//!
//! ## Determinism contract
//!
//! Dumps ([`handle::MetricsHandle::to_json`] /
//! [`handle::MetricsHandle::series_csv`]) contain only sim-time stamps
//! and sorted keys, so the same seed produces byte-identical output.
//! Under parallel sweeps, counters and histograms stay deterministic
//! because their updates commute; series and gauges must use
//! per-cell-unique names (one writer per instrument).
//!
//! ## Example
//!
//! ```
//! use metrics::prelude::*;
//! use simnet::time::SimTime;
//!
//! let m = MetricsHandle::enabled(42);
//! m.counter("tcp.retransmits").inc();
//! m.series("tcp.cwnd").record(SimTime::from_secs(1), 2920.0);
//! assert_eq!(m.counter_value("tcp.retransmits"), 1);
//! assert!(m.to_json().contains("\"seed\":42"));
//!
//! // The disabled handle has the same API and does nothing.
//! let off = MetricsHandle::disabled();
//! off.counter("tcp.retransmits").inc();
//! assert_eq!(off.counter_value("tcp.retransmits"), 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod handle;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod stats;
pub mod trace;

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::handle::MetricsHandle;
    pub use crate::json::Json;
    pub use crate::recorder::Series;
    pub use crate::registry::{Counter, Gauge, Histogram};
    pub use crate::stats::{Ewma, RateMeter, RunSummary, TimeSeries};
    pub use crate::trace::{Trace, TraceEntry, TraceKind};
}
