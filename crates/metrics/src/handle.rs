//! The [`MetricsHandle`]: the one object instrumented code holds.
//!
//! A handle is either *enabled* — backed by a shared registry of
//! instruments, a series recorder, and a structured trace sink — or
//! *disabled*, in which case every instrument it resolves is a `None`
//! shell whose updates inline to nothing. Worlds, endpoints, and
//! clients accept a handle unconditionally; experiments decide at the
//! top whether observability is on.
//!
//! An enabled handle is seeded: the experiment seed is recorded in the
//! registry and lands in every dump, so a dump file is self-describing
//! about which run produced it.

use crate::json::{write_num, write_str, Json};
use crate::recorder::{Series, SeriesBuf, DEFAULT_SERIES_CAPACITY};
use crate::registry::{Counter, Gauge, Histogram, HistogramCore};
use crate::trace::{Trace, TraceKind};
use simnet::snapshot::{Snap, SnapReader, SnapWriter};
use simnet::time::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Capacity of the structured trace sink inside an enabled handle.
const TRACE_SINK_CAPACITY: usize = 65_536;

#[derive(Debug)]
struct MetricsCore {
    seed: u64,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    series: Mutex<BTreeMap<String, Arc<Mutex<SeriesBuf>>>>,
    trace: Mutex<Trace>,
}

/// Cheaply clonable entry point to the metrics layer. See the module
/// docs for the enabled/disabled contract.
#[derive(Debug, Clone, Default)]
pub struct MetricsHandle {
    core: Option<Arc<MetricsCore>>,
}

impl MetricsHandle {
    /// A handle whose every instrument is a no-op. This is the default
    /// wired into worlds and endpoints, so uninstrumented runs pay
    /// nothing.
    pub fn disabled() -> Self {
        MetricsHandle { core: None }
    }

    /// A live handle recording under the given experiment seed.
    pub fn enabled(seed: u64) -> Self {
        let mut trace = Trace::new(TRACE_SINK_CAPACITY);
        trace.set_enabled(true);
        MetricsHandle {
            core: Some(Arc::new(MetricsCore {
                seed,
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                series: Mutex::new(BTreeMap::new()),
                trace: Mutex::new(trace),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// The experiment seed, when enabled.
    pub fn seed(&self) -> Option<u64> {
        self.core.as_ref().map(|c| c.seed)
    }

    /// Resolves (creating on first use) the named counter. Resolution
    /// takes a short registry lock; updates on the returned instrument
    /// are lock-free.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.core.as_ref().map(|core| {
                Arc::clone(
                    core.counters
                        .lock()
                        .unwrap()
                        .entry(name.to_string())
                        .or_default(),
                )
            }),
        }
    }

    /// Resolves (creating on first use) the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.core.as_ref().map(|core| {
                Arc::clone(
                    core.gauges
                        .lock()
                        .unwrap()
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits()))),
                )
            }),
        }
    }

    /// Resolves (creating on first use) the named histogram with the
    /// given finite bucket bounds. The bounds of the first resolution
    /// win; later calls reuse the existing buckets.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        Histogram {
            core: self.core.as_ref().map(|core| {
                Arc::clone(
                    core.histograms
                        .lock()
                        .unwrap()
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(HistogramCore::new(bounds))),
                )
            }),
        }
    }

    /// Resolves (creating on first use) the named time series with the
    /// default ring capacity.
    pub fn series(&self, name: &str) -> Series {
        self.series_with_capacity(name, DEFAULT_SERIES_CAPACITY)
    }

    /// Resolves (creating on first use) the named time series with an
    /// explicit ring capacity. The capacity of the first resolution
    /// wins.
    pub fn series_with_capacity(&self, name: &str, capacity: usize) -> Series {
        Series {
            buf: self.core.as_ref().map(|core| {
                Arc::clone(
                    core.series
                        .lock()
                        .unwrap()
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(Mutex::new(SeriesBuf::new(capacity)))),
                )
            }),
        }
    }

    /// Records a structured trace event into the handle's sink. No-op
    /// when disabled.
    pub fn trace_event(&self, at: SimTime, kind: TraceKind, message: impl Into<String>) {
        if let Some(core) = &self.core {
            core.trace.lock().unwrap().record(at, kind, message);
        }
    }

    /// The current value of a counter by name (0 if absent/disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.core.as_ref().map_or(0, |core| {
            core.counters
                .lock()
                .unwrap()
                .get(name)
                .map_or(0, |c| c.load(Ordering::Relaxed))
        })
    }

    /// Serialises the entire registry — seed, counters, gauges,
    /// histograms, series, and trace events — as one deterministic JSON
    /// document (sorted keys, sim-time stamps only). Returns `null`
    /// when disabled.
    pub fn to_json(&self) -> String {
        let Some(core) = &self.core else {
            return "null".to_string();
        };
        let mut out = String::new();
        out.push_str("{\"counters\":{");
        for (i, (name, cell)) in core.counters.lock().unwrap().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(name, &mut out);
            let _ = write!(out, ":{}", cell.load(Ordering::Relaxed));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, cell)) in core.gauges.lock().unwrap().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(name, &mut out);
            let _ = write!(
                out,
                ":{}",
                write_num(f64::from_bits(cell.load(Ordering::Relaxed)))
            );
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in core.histograms.lock().unwrap().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(name, &mut out);
            out.push_str(":{\"bounds\":[");
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&write_num(*b));
            }
            out.push_str("],\"counts\":[");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", c.load(Ordering::Relaxed));
            }
            let _ = write!(out, "],\"total\":{}}}", h.total.load(Ordering::Relaxed));
        }
        let _ = write!(out, "}},\"seed\":{},\"series\":{{", core.seed);
        for (i, (name, buf)) in core.series.lock().unwrap().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(name, &mut out);
            let buf = buf.lock().unwrap();
            let _ = write!(out, ":{{\"dropped\":{},\"points\":[", buf.dropped());
            for (j, (t, v)) in buf.points().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{}]", write_num(t.as_secs_f64()), write_num(v));
            }
            out.push_str("]}");
        }
        out.push_str("},\"trace\":[");
        {
            let trace = core.trace.lock().unwrap();
            for (i, e) in trace.entries().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"at\":{},\"kind\":", write_num(e.at.as_secs_f64()));
                write_str(&e.kind.to_string(), &mut out);
                out.push_str(",\"message\":");
                write_str(&e.message, &mut out);
                out.push('}');
            }
        }
        out.push_str("]}");
        debug_assert!(Json::parse(&out).is_ok(), "to_json emitted invalid JSON");
        out
    }

    /// Serialises every recorded series as CSV with a
    /// `series,seconds,value` header. Deterministic: series are sorted
    /// by name, points are in recording order, stamps are sim-time.
    pub fn series_csv(&self) -> String {
        let mut out = String::from("series,seconds,value\n");
        let Some(core) = &self.core else {
            return out;
        };
        for (name, buf) in core.series.lock().unwrap().iter() {
            for (t, v) in buf.lock().unwrap().points() {
                let _ = writeln!(out, "{},{:.6},{}", name, t.as_secs_f64(), write_num(v));
            }
        }
        out
    }

    /// Serialises the full registry — every counter, gauge, histogram,
    /// series ring, and the trace sink — into a snapshot. Instruments
    /// are written by name (maps are `BTreeMap`s, so the order is the
    /// sorted name order), which makes the blob independent of
    /// resolution history.
    pub fn snap_state(&self, w: &mut SnapWriter) {
        w.section("metrics");
        let Some(core) = &self.core else {
            w.put_bool(false);
            return;
        };
        w.put_bool(true);
        w.put_u64(core.seed);
        let counters = core.counters.lock().unwrap();
        w.put_usize(counters.len());
        for (name, cell) in counters.iter() {
            w.put_str(name);
            w.put_u64(cell.load(Ordering::Relaxed));
        }
        drop(counters);
        let gauges = core.gauges.lock().unwrap();
        w.put_usize(gauges.len());
        for (name, cell) in gauges.iter() {
            w.put_str(name);
            w.put_u64(cell.load(Ordering::Relaxed));
        }
        drop(gauges);
        let histograms = core.histograms.lock().unwrap();
        w.put_usize(histograms.len());
        for (name, h) in histograms.iter() {
            w.put_str(name);
            h.bounds.snap(w);
            w.put_usize(h.counts.len());
            for c in &h.counts {
                w.put_u64(c.load(Ordering::Relaxed));
            }
            w.put_u64(h.sum_bits.load(Ordering::Relaxed));
            w.put_u64(h.total.load(Ordering::Relaxed));
        }
        drop(histograms);
        let series = core.series.lock().unwrap();
        w.put_usize(series.len());
        for (name, buf) in series.iter() {
            w.put_str(name);
            buf.lock().unwrap().snap(w);
        }
        drop(series);
        core.trace.lock().unwrap().snap(w);
    }

    /// Restores instrument values previously written by
    /// [`MetricsHandle::snap_state`], resolving each instrument by name
    /// through the normal `entry().or_default()` path. Instruments
    /// already resolved by live code keep their `Arc` identity — their
    /// cells are overwritten in place, so every holder observes the
    /// restored values.
    ///
    /// # Panics
    ///
    /// Panics when the blob's enabled/disabled state does not match
    /// this handle's.
    pub fn restore_state(&self, r: &mut SnapReader<'_>) {
        r.section("metrics");
        let was_enabled = r.get_bool();
        assert_eq!(
            was_enabled,
            self.is_enabled(),
            "snapshot: metrics enabled/disabled mismatch"
        );
        let Some(core) = &self.core else { return };
        let seed = r.get_u64();
        assert_eq!(seed, core.seed, "snapshot: metrics seed mismatch");
        let n = r.get_usize();
        {
            let mut counters = core.counters.lock().unwrap();
            for _ in 0..n {
                let name = r.get_string();
                let v = r.get_u64();
                counters
                    .entry(name)
                    .or_default()
                    .store(v, Ordering::Relaxed);
            }
        }
        let n = r.get_usize();
        {
            let mut gauges = core.gauges.lock().unwrap();
            for _ in 0..n {
                let name = r.get_string();
                let v = r.get_u64();
                gauges
                    .entry(name)
                    .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits())))
                    .store(v, Ordering::Relaxed);
            }
        }
        let n = r.get_usize();
        {
            let mut histograms = core.histograms.lock().unwrap();
            for _ in 0..n {
                let name = r.get_string();
                let bounds: Vec<f64> = Snap::unsnap(r);
                let n_counts = r.get_usize();
                let h = histograms
                    .entry(name)
                    .or_insert_with(|| Arc::new(HistogramCore::new(&bounds)));
                assert_eq!(
                    h.counts.len(),
                    n_counts,
                    "snapshot: histogram bucket-count mismatch"
                );
                for c in &h.counts {
                    c.store(r.get_u64(), Ordering::Relaxed);
                }
                h.sum_bits.store(r.get_u64(), Ordering::Relaxed);
                h.total.store(r.get_u64(), Ordering::Relaxed);
            }
        }
        let n = r.get_usize();
        {
            let mut series = core.series.lock().unwrap();
            for _ in 0..n {
                let name = r.get_string();
                let buf: SeriesBuf = Snap::unsnap(r);
                match series.entry(name) {
                    std::collections::btree_map::Entry::Occupied(e) => {
                        *e.get().lock().unwrap() = buf;
                    }
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(Arc::new(Mutex::new(buf)));
                    }
                }
            }
        }
        *core.trace.lock().unwrap() = Snap::unsnap(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimTime;

    #[test]
    fn disabled_handle_is_inert() {
        let m = MetricsHandle::disabled();
        assert!(!m.is_enabled());
        m.counter("c").inc();
        m.gauge("g").set(1.0);
        m.histogram("h", &[1.0]).record(0.5);
        m.series("s").record(SimTime::from_secs(1), 2.0);
        m.trace_event(SimTime::ZERO, TraceKind::Other, "x");
        assert_eq!(m.counter_value("c"), 0);
        assert_eq!(m.to_json(), "null");
        assert_eq!(m.series_csv(), "series,seconds,value\n");
    }

    #[test]
    fn instruments_share_state_by_name() {
        let m = MetricsHandle::enabled(7);
        let a = m.counter("tcp.retransmits");
        let b = m.counter("tcp.retransmits");
        a.inc();
        b.add(2);
        assert_eq!(m.counter_value("tcp.retransmits"), 3);
        assert_eq!(m.seed(), Some(7));
    }

    #[test]
    fn json_dump_is_valid_and_deterministic() {
        let build = || {
            let m = MetricsHandle::enabled(42);
            m.counter("z.count").add(5);
            m.counter("a.count").inc();
            m.gauge("rate").set(1.5);
            let h = m.histogram("lat", &[0.1, 1.0]);
            h.record(0.05);
            h.record(5.0);
            let s = m.series("cwnd");
            s.record(SimTime::from_secs(1), 2920.0);
            s.record(SimTime::from_millis(1500), 4380.0);
            m.trace_event(SimTime::from_secs(2), TraceKind::Mobility, "handoff");
            m.to_json()
        };
        let j1 = build();
        let j2 = build();
        assert_eq!(j1, j2, "dump must be byte-identical across runs");
        let v = Json::parse(&j1).expect("dump parses");
        assert_eq!(v.get("seed").and_then(Json::as_num), Some(42.0));
        let counters = v.get("counters").unwrap().as_obj().unwrap();
        assert_eq!(counters.keys().next().map(String::as_str), Some("a.count"));
        let hist = v.get("histograms").unwrap().get("lat").unwrap();
        assert_eq!(
            hist.get("counts").unwrap().as_arr().unwrap().len(),
            3,
            "two finite buckets plus overflow"
        );
        let trace = v.get("trace").unwrap().as_arr().unwrap();
        assert_eq!(trace[0].get("kind").and_then(Json::as_str), Some("mob"));
    }

    #[test]
    fn series_csv_lists_points_in_order() {
        let m = MetricsHandle::enabled(1);
        let s = m.series("x");
        s.record(SimTime::from_secs(1), 1.0);
        s.record(SimTime::from_secs(2), 2.5);
        assert_eq!(
            m.series_csv(),
            "series,seconds,value\nx,1.000000,1\nx,2.000000,2.5\n"
        );
    }
}
