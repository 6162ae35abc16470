//! Lightweight event tracing for debugging simulations.
//!
//! A [`Trace`] is a bounded ring buffer of timestamped, categorised
//! entries. Components record noteworthy moments (a hand-off, a dial, a
//! choke flip); when an experiment misbehaves, the tail of the trace
//! shows what led up to it without the cost of unconditional logging.
//!
//! Tracing is opt-in per world and costs one branch when disabled.

use simnet::time::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// Category of a trace entry, used for filtering.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// Connection lifecycle (dial, establish, close, black-hole).
    Connection,
    /// Mobility events (hand-off start/end, readdressing).
    Mobility,
    /// Choking decisions.
    Choke,
    /// Piece/block transfer milestones.
    Transfer,
    /// Tracker interactions.
    Tracker,
    /// Anything else.
    Other,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceKind::Connection => "conn",
            TraceKind::Mobility => "mob",
            TraceKind::Choke => "choke",
            TraceKind::Transfer => "xfer",
            TraceKind::Tracker => "track",
            TraceKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// One trace entry.
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// When it happened.
    pub at: SimTime,
    /// What kind of event.
    pub kind: TraceKind,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {:>5}] {}", self.at, self.kind, self.message)
    }
}

/// A bounded ring buffer of trace entries.
#[derive(Debug, Clone)]
pub struct Trace {
    entries: VecDeque<TraceEntry>,
    capacity: usize,
    enabled: bool,
    dropped: u64,
}

impl Trace {
    /// Creates a disabled trace with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Trace {
            entries: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            enabled: false,
            dropped: 0,
        }
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an entry (no-op while disabled). The oldest entry is
    /// evicted when the buffer is full.
    pub fn record(&mut self, at: SimTime, kind: TraceKind, message: impl Into<String>) {
        if !self.enabled {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(TraceEntry {
            at,
            kind,
            message: message.into(),
        });
    }

    /// Entries currently retained, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Entries of one kind.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.kind == kind)
    }

    /// The most recent `n` entries, oldest first.
    pub fn tail(&self, n: usize) -> impl Iterator<Item = &TraceEntry> {
        let skip = self.entries.len().saturating_sub(n);
        self.entries.iter().skip(skip)
    }

    /// How many entries were evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the retained entries, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

simnet::snap_enum!(TraceKind {
    0 => Connection,
    1 => Mobility,
    2 => Choke,
    3 => Transfer,
    4 => Tracker,
    5 => Other,
});

simnet::snap_struct!(TraceEntry {
    at,
    kind,
    message,
});

simnet::snap_struct!(Trace {
    capacity,
    enabled,
    dropped,
    entries,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Trace::new(8);
        t.record(SimTime::ZERO, TraceKind::Other, "x");
        assert!(t.is_empty());
        t.set_enabled(true);
        t.record(SimTime::ZERO, TraceKind::Other, "y");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Trace::new(3);
        t.set_enabled(true);
        for i in 0..5u64 {
            t.record(SimTime::from_secs(i), TraceKind::Transfer, format!("e{i}"));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let msgs: Vec<&str> = t.entries().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, vec!["e2", "e3", "e4"]);
    }

    #[test]
    fn filtering_and_tail() {
        let mut t = Trace::new(16);
        t.set_enabled(true);
        t.record(SimTime::from_secs(1), TraceKind::Mobility, "handoff");
        t.record(SimTime::from_secs(2), TraceKind::Connection, "dial");
        t.record(SimTime::from_secs(3), TraceKind::Mobility, "return");
        assert_eq!(t.of_kind(TraceKind::Mobility).count(), 2);
        let tail: Vec<&str> = t.tail(2).map(|e| e.message.as_str()).collect();
        assert_eq!(tail, vec!["dial", "return"]);
    }

    #[test]
    fn render_is_line_per_entry() {
        let mut t = Trace::new(4);
        t.set_enabled(true);
        t.record(
            SimTime::from_millis(1500),
            TraceKind::Choke,
            "unchoked peer 3",
        );
        let s = t.render();
        assert!(s.contains("1.500000s"));
        assert!(s.contains("choke"));
        assert!(s.contains("unchoked peer 3"));
        assert_eq!(s.lines().count(), 1);
    }
}
