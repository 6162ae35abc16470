//! Measurement utilities: rate meters, time series, and run aggregation.
//!
//! All throughput numbers reported by the experiments come from these
//! meters operating on *virtual* time, so results are independent of the
//! wall-clock speed of the simulator.

use simnet::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Sliding-window byte-rate meter.
///
/// `record` registers a byte count at an instant; `rate_bps` reports the
/// average rate over the trailing window. This mirrors how the paper's
/// client measures "window-averaged throughputs" for the LIHD controller.
#[derive(Debug, Clone)]
pub struct RateMeter {
    window: SimDuration,
    samples: VecDeque<(SimTime, u64)>,
    in_window: u64,
    total: u64,
}

impl RateMeter {
    /// Creates a meter with the given trailing window.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "rate window must be positive");
        RateMeter {
            window,
            samples: VecDeque::new(),
            in_window: 0,
            total: 0,
        }
    }

    fn prune(&mut self, now: SimTime) {
        let horizon = now - self.window;
        while let Some(&(t, b)) = self.samples.front() {
            if t < horizon {
                self.samples.pop_front();
                self.in_window -= b;
            } else {
                break;
            }
        }
    }

    /// Records `bytes` transferred at `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        self.prune(now);
        self.samples.push_back((now, bytes));
        self.in_window += bytes;
        self.total += bytes;
    }

    /// Average rate over the trailing window, in bytes per second.
    pub fn rate_bps(&mut self, now: SimTime) -> f64 {
        self.prune(now);
        self.in_window as f64 / self.window.as_secs_f64()
    }

    /// Total bytes ever recorded.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Clears samples and the total.
    pub fn reset(&mut self) {
        self.samples.clear();
        self.in_window = 0;
        self.total = 0;
    }
}

/// Exponentially-weighted moving average of a scalar.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`; larger is
    /// more reactive.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, value: None }
    }

    /// Feeds a new observation and returns the updated average.
    pub fn observe(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.value = Some(v);
        v
    }

    /// Current average, if any observation has been made.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// A `(time, value)` series collected during a run.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point. Points should be pushed in time order.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(prev, _)| prev <= t),
            "time series must be appended in order"
        );
        self.points.push((t, v));
    }

    /// The collected points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Value at or immediately before `t` (step interpolation), if any.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }

    /// Renders as two-column CSV (`seconds,value`).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.points.len() * 16);
        for &(t, v) in &self.points {
            out.push_str(&format!("{:.3},{:.6}\n", t.as_secs_f64(), v));
        }
        out
    }
}

/// Mean of a sample; zero for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of a sample (mean of the middle pair when even); zero for an
/// empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of an ascending-sorted sample, nearest rank; zero
/// for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Sample standard deviation; zero when fewer than two points.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Aggregate of repeated runs of one experimental point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Mean across runs.
    pub mean: f64,
    /// Sample standard deviation across runs.
    pub stddev: f64,
    /// Number of runs.
    pub runs: usize,
}

impl RunSummary {
    /// Summarises a sample.
    pub fn of(xs: &[f64]) -> Self {
        RunSummary {
            mean: mean(xs),
            stddev: stddev(xs),
            runs: xs.len(),
        }
    }
}

impl simnet::snapshot::Snap for TimeSeries {
    fn snap(&self, w: &mut simnet::snapshot::SnapWriter) {
        self.points.snap(w);
    }
    fn unsnap(r: &mut simnet::snapshot::SnapReader<'_>) -> Self {
        TimeSeries {
            points: simnet::snapshot::Snap::unsnap(r),
        }
    }
}

impl simnet::snapshot::Snap for RateMeter {
    fn snap(&self, w: &mut simnet::snapshot::SnapWriter) {
        self.window.snap(w);
        self.samples.snap(w);
        w.put_u64(self.in_window);
        w.put_u64(self.total);
    }
    fn unsnap(r: &mut simnet::snapshot::SnapReader<'_>) -> Self {
        RateMeter {
            window: simnet::snapshot::Snap::unsnap(r),
            samples: simnet::snapshot::Snap::unsnap(r),
            in_window: r.get_u64(),
            total: r.get_u64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn percentile_takes_the_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 5.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.0), 1.0);
    }

    #[test]
    fn rate_meter_windows_correctly() {
        let mut m = RateMeter::new(SimDuration::from_secs(10));
        m.record(SimTime::from_secs(0), 1000);
        m.record(SimTime::from_secs(5), 1000);
        // Both samples inside window: 2000 B / 10 s = 200 B/s.
        assert_eq!(m.rate_bps(SimTime::from_secs(5)), 200.0);
        // At t=12 the t=0 sample has left the window.
        assert_eq!(m.rate_bps(SimTime::from_secs(12)), 100.0);
        assert_eq!(m.total_bytes(), 2000);
    }

    #[test]
    fn rate_meter_empty_is_zero() {
        let mut m = RateMeter::new(SimDuration::from_secs(1));
        assert_eq!(m.rate_bps(SimTime::from_secs(100)), 0.0);
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.observe(10.0), 10.0);
        assert_eq!(e.observe(20.0), 15.0);
        let mut last = 0.0;
        for _ in 0..50 {
            last = e.observe(100.0);
        }
        assert!((last - 100.0).abs() < 1e-6);
    }

    #[test]
    fn time_series_lookup() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(1), 1.0);
        ts.push(SimTime::from_secs(3), 3.0);
        assert_eq!(ts.value_at(SimTime::from_secs(0)), None);
        assert_eq!(ts.value_at(SimTime::from_secs(1)), Some(1.0));
        assert_eq!(ts.value_at(SimTime::from_secs(2)), Some(1.0));
        assert_eq!(ts.value_at(SimTime::from_secs(5)), Some(3.0));
        assert_eq!(ts.last_value(), Some(3.0));
    }

    #[test]
    fn csv_rendering() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_millis(1500), 2.5);
        assert_eq!(ts.to_csv(), "1.500,2.500000\n");
    }

    #[test]
    fn summary_statistics() {
        let s = RunSummary::of(&[2.0, 4.0, 6.0]);
        assert_eq!(s.mean, 4.0);
        assert!((s.stddev - 2.0).abs() < 1e-9);
        assert_eq!(s.runs, 3);
        let empty = RunSummary::of(&[]);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.stddev, 0.0);
    }
}
