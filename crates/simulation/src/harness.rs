//! Parallel deterministic sweep harness.
//!
//! Every paper figure is a sweep: a list of parameter points, each
//! averaged over independent runs. [`SweepRunner`] fans the
//! (point × run) cells across `std::thread::scope` workers while keeping
//! the output bit-for-bit identical to a serial run:
//!
//! * each cell's RNG seed is a pure function of
//!   `(base_seed, point_index, run_index)` ([`cell_seed`]) — no worker
//!   ever touches another cell's random stream;
//! * results are assembled in cell order, regardless of which worker
//!   finished first.
//!
//! Worker count defaults to [`std::thread::available_parallelism`] and
//! can be overridden with the `WP2P_THREADS` environment variable
//! (`WP2P_THREADS=1` forces serial execution — useful for verifying the
//! determinism claim).
//!
//! Every sweep records a [`SweepStats`] entry (cell count, wall-clock,
//! summed per-cell wall-clock, simulated virtual time) into a global
//! registry ([`take_stats`] drains it); `all_figures` sums it into its
//! closing stderr line and the repo benchmark reads it per experiment.

use metrics::handle::MetricsHandle;
use simnet::rng::SimRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic seed of one sweep cell. A pure function of its
/// arguments, so any execution order — serial, parallel, resumed —
/// reproduces the same random streams.
pub fn cell_seed(base_seed: u64, point: usize, run: usize) -> u64 {
    mix(mix(base_seed ^ mix(point as u64 + 1)) ^ mix((run as u64) << 32 | 0xCE11))
}

/// A point-invariant seed: the same for every sweep point at a given run
/// index. Sweeps whose points are *compared* against each other (e.g. a
/// monotonicity claim across BERs) use this so all points of run `r`
/// share one random stream — the common-random-numbers variance
/// reduction the original serial drivers relied on.
pub fn run_seed(base_seed: u64, run: usize) -> u64 {
    mix(mix(base_seed) ^ mix((run as u64) << 32 | 0xCE11))
}

/// The number of sweep workers: `WP2P_THREADS` when set to a positive
/// integer, otherwise the machine's available parallelism.
pub fn worker_threads() -> usize {
    match std::env::var("WP2P_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Per-cell context handed to the sweep body.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Index of the sweep point this cell belongs to.
    pub point: usize,
    /// Run index within the point.
    pub run: usize,
    /// The cell's deterministic seed (see [`cell_seed`]).
    pub seed: u64,
    /// The cell's point-invariant seed (see [`run_seed`]) — shared by
    /// every point at this run index, for common random numbers across
    /// sweep points.
    pub run_seed: u64,
    virtual_secs: f64,
}

impl Cell {
    /// A fresh RNG rooted at this cell's seed.
    pub fn rng(&self) -> SimRng {
        SimRng::new(self.seed)
    }

    /// Accounts simulated virtual time consumed by this cell (shows up
    /// in the sweep's [`SweepStats`]).
    pub fn add_virtual_secs(&mut self, secs: f64) {
        self.virtual_secs += secs;
    }
}

/// Aggregate statistics of one executed sweep.
#[derive(Clone, Debug)]
pub struct SweepStats {
    /// Sweep name (usually the figure or panel).
    pub name: String,
    /// Number of sweep points.
    pub points: usize,
    /// Runs per point.
    pub runs: usize,
    /// Total cells executed (`points × runs`).
    pub cells: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock of the whole sweep.
    pub wall: Duration,
    /// Sum of each cell's individual wall-clock (serial-equivalent
    /// time; `cell_wall / wall` is the realised speedup).
    pub cell_wall: Duration,
    /// Total simulated virtual time reported by the cells, seconds.
    pub virtual_secs: f64,
}

impl SweepStats {
    /// Realised parallel speedup: serial-equivalent time over wall time.
    pub fn speedup(&self) -> f64 {
        self.cell_wall.as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }
}

static REGISTRY: Mutex<Vec<SweepStats>> = Mutex::new(Vec::new());

fn record_stats(stats: SweepStats) {
    REGISTRY.lock().expect("stats registry").push(stats);
}

/// Drains all sweep statistics recorded since the last call.
pub fn take_stats() -> Vec<SweepStats> {
    std::mem::take(&mut *REGISTRY.lock().expect("stats registry"))
}

/// Runs (point × run) sweeps deterministically across worker threads.
pub struct SweepRunner {
    name: String,
    base_seed: u64,
    threads: usize,
    metrics: MetricsHandle,
}

impl SweepRunner {
    /// A runner named after its figure/panel, with all cell seeds rooted
    /// at `base_seed`. Worker count comes from [`worker_threads`].
    pub fn new(name: impl Into<String>, base_seed: u64) -> Self {
        SweepRunner {
            name: name.into(),
            base_seed,
            threads: worker_threads(),
            metrics: MetricsHandle::disabled(),
        }
    }

    /// Overrides the worker count (tests; forced-serial comparisons).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a metrics handle. After each sweep the runner records
    /// `sweep.<name>.cells` (counter) and `sweep.<name>.virtual_secs`
    /// (gauge). Only worker-count-independent quantities are recorded —
    /// wall-clock timings stay out of the handle so dumps remain
    /// deterministic.
    pub fn with_metrics(mut self, handle: &MetricsHandle) -> Self {
        self.metrics = handle.clone();
        self
    }

    /// The worker count this runner will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `f` once per (point, run) cell and returns the results
    /// grouped per point, in run order — identical for any worker count.
    pub fn run<P, R, F>(&self, points: &[P], runs: usize, f: F) -> Vec<Vec<R>>
    where
        P: Sync,
        R: Send,
        F: Fn(&P, &mut Cell) -> R + Sync,
    {
        let cells = points.len() * runs;
        let threads = self.threads.min(cells.max(1));
        let sweep_start = Instant::now();

        let run_cell = |idx: usize| -> (usize, R, Duration, f64) {
            let point = idx / runs;
            let run = idx % runs;
            let mut cell = Cell {
                point,
                run,
                seed: cell_seed(self.base_seed, point, run),
                run_seed: run_seed(self.base_seed, run),
                virtual_secs: 0.0,
            };
            let t0 = Instant::now();
            let result = f(&points[point], &mut cell);
            (idx, result, t0.elapsed(), cell.virtual_secs)
        };

        let mut outcomes: Vec<(usize, R, Duration, f64)> = if threads <= 1 {
            (0..cells).map(run_cell).collect()
        } else {
            let next = AtomicUsize::new(0);
            let collected: Mutex<Vec<(usize, R, Duration, f64)>> =
                Mutex::new(Vec::with_capacity(cells));
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= cells {
                                break;
                            }
                            local.push(run_cell(idx));
                        }
                        collected.lock().expect("cell results").append(&mut local);
                    });
                }
            });
            collected.into_inner().expect("cell results")
        };
        outcomes.sort_by_key(|o| o.0);

        let mut cell_wall = Duration::ZERO;
        let mut virtual_secs = 0.0;
        let mut grouped: Vec<Vec<R>> = (0..points.len())
            .map(|_| Vec::with_capacity(runs))
            .collect();
        for (idx, result, wall, vsecs) in outcomes {
            cell_wall += wall;
            virtual_secs += vsecs;
            grouped[idx / runs].push(result);
        }
        if self.metrics.is_enabled() {
            self.metrics
                .counter(&format!("sweep.{}.cells", self.name))
                .add(cells as u64);
            self.metrics
                .gauge(&format!("sweep.{}.virtual_secs", self.name))
                .set(virtual_secs);
        }
        record_stats(SweepStats {
            name: self.name.clone(),
            points: points.len(),
            runs,
            cells,
            threads,
            wall: sweep_start.elapsed(),
            cell_wall,
            virtual_secs,
        });
        grouped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(&p: &u64, cell: &mut Cell) -> (u64, u64) {
        let mut rng = cell.rng();
        cell.add_virtual_secs(1.0);
        let mut acc = 0u64;
        for _ in 0..64 {
            acc = acc.wrapping_add(rng.next_u64() ^ p);
        }
        (cell.seed, acc)
    }

    #[test]
    fn parallel_output_is_identical_to_serial() {
        let points: Vec<u64> = (0..5).collect();
        let serial = SweepRunner::new("harness-test-serial", 42)
            .with_threads(1)
            .run(&points, 4, body);
        let parallel = SweepRunner::new("harness-test-parallel", 42)
            .with_threads(8)
            .run(&points, 4, body);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 5);
        assert!(serial.iter().all(|rs| rs.len() == 4));
    }

    #[test]
    fn cell_seeds_are_unique_and_order_free() {
        let mut seen = std::collections::BTreeSet::new();
        for point in 0..20 {
            for run in 0..20 {
                assert!(seen.insert(cell_seed(7, point, run)), "seed collision");
            }
        }
        // (point, run) is not symmetric.
        assert_ne!(cell_seed(7, 1, 2), cell_seed(7, 2, 1));
    }

    #[test]
    fn stats_are_recorded() {
        let _ = SweepRunner::new("harness-test-stats", 3)
            .with_threads(2)
            .run(&[1u64, 2], 3, body);
        let stats = take_stats();
        let s = stats
            .iter()
            .find(|s| s.name == "harness-test-stats")
            .expect("sweep recorded");
        assert_eq!(s.cells, 6);
        assert_eq!(s.points, 2);
        assert_eq!(s.runs, 3);
        assert!((s.virtual_secs - 6.0).abs() < 1e-9);
        assert!(s.cell_wall >= Duration::ZERO);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<Vec<u64>> =
            SweepRunner::new("harness-test-empty", 1).run(&[] as &[u64], 3, |_, _| 0);
        assert!(out.is_empty());
    }
}
