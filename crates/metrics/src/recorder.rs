//! The sim-time-stamped series recorder: a bounded ring buffer per
//! named series.
//!
//! Each series keeps at most `capacity` points; when full, the oldest
//! point is evicted and a drop counter incremented, so long experiments
//! record in bounded memory. Points carry [`SimTime`] stamps (never
//! wall-clock), which keeps dumps byte-identical across runs and across
//! serial/parallel sweep execution — provided each series is written by
//! exactly one sweep cell (use per-cell series names in sweeps).

use simnet::time::SimTime;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Default per-series point capacity.
pub const DEFAULT_SERIES_CAPACITY: usize = 4096;

/// Ring-buffer storage for one named series.
#[derive(Debug)]
pub struct SeriesBuf {
    points: VecDeque<(SimTime, f64)>,
    capacity: usize,
    dropped: u64,
}

impl SeriesBuf {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "series capacity must be nonzero");
        SeriesBuf {
            points: VecDeque::with_capacity(capacity.min(DEFAULT_SERIES_CAPACITY)),
            capacity,
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, value: f64) {
        if self.points.len() == self.capacity {
            self.points.pop_front();
            self.dropped += 1;
        }
        self.points.push_back((at, value));
    }

    /// The retained points, oldest first.
    pub fn points(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().copied()
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of points evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The most recent point, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.back().copied()
    }
}

/// A cheap handle onto one named series. Cloning shares the underlying
/// ring; a handle from a disabled [`crate::handle::MetricsHandle`]
/// records nothing.
#[derive(Debug, Clone, Default)]
pub struct Series {
    pub(crate) buf: Option<Arc<Mutex<SeriesBuf>>>,
}

impl Series {
    /// Appends one `(sim-time, value)` point, evicting the oldest point
    /// if the ring is full. No-op when metrics are disabled.
    #[inline]
    pub fn record(&self, at: SimTime, value: f64) {
        if let Some(buf) = &self.buf {
            buf.lock().unwrap().push(at, value);
        }
    }

    /// Runs `f` over the retained points (oldest first). Returns
    /// `None` when disabled.
    pub fn with_points<R>(&self, f: impl FnOnce(&SeriesBuf) -> R) -> Option<R> {
        self.buf.as_ref().map(|buf| f(&buf.lock().unwrap()))
    }

    /// Number of retained points (0 when disabled).
    pub fn len(&self) -> usize {
        self.with_points(|b| b.len()).unwrap_or(0)
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent point, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.with_points(|b| b.last()).flatten()
    }
}

simnet::snap_struct!(SeriesBuf {
    capacity,
    dropped,
    points,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut buf = SeriesBuf::new(3);
        for s in 0..5 {
            buf.push(t(s), s as f64);
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 2);
        let pts: Vec<_> = buf.points().collect();
        assert_eq!(pts[0], (t(2), 2.0));
        assert_eq!(buf.last(), Some((t(4), 4.0)));
    }

    #[test]
    fn disabled_series_records_nothing() {
        let s = Series::default();
        s.record(t(1), 1.0);
        assert!(s.is_empty());
        assert_eq!(s.last(), None);
    }
}
