//! One run of one workload, as `BENCHMARK.json`'s command line asks for
//! it: repetitions for `--seconds`, then one JSON object on the last
//! line of standard output.

use crate::host;
use crate::micro;
use crate::spec::{obj, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Rep, Size, Workload};
use metrics::json::Json;
use std::path::PathBuf;
use std::time::Instant;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// Where traces and results land: `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A repetition's share of run-queue wait above which the run is
/// flagged noisy (reported, never dropped).
const NOISY_WAIT_SHARE: f64 = 0.05;

/// Set-up is sampled until it has this many samples or has used
/// [`SETUP_BUDGET_S`] in total: a millisecond set-up needs more samples
/// than the repetitions alone supply for a steady median. Each further
/// sample is the mean of as many back-to-back set-ups as fit into
/// [`SETUP_BATCH_S`], so that no sample is timer-noise sized.
const SETUP_SAMPLES: usize = 9;
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_BATCH_S: f64 = 0.01;

/// The seed of a run's `k`-th repetition. An untraced run gives every
/// repetition inputs of its own, so that its medians are taken over
/// inputs as well as over host noise: on one input the walls of the
/// flow workloads differ by 1-2 % from seed to seed.
fn input_seed(run_seed: u64, k: u64) -> u64 {
    run_seed.wrapping_mul(1000).wrapping_add(k)
}

#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: Vec<String>,
}

impl Checks {
    fn add(&mut self, name: &str, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed.push(name.to_string());
        }
    }

    /// Folds in every repetition's own checks and the workload's
    /// once-per-run checks (made on the first repetition's inputs).
    fn add_run(&mut self, args: &RunArgs, reps: &[Rep]) {
        for rep in reps {
            for &(name, passed) in &rep.checks {
                self.add(name, passed);
            }
        }
        for (name, passed) in
            args.workload
                .run_checks(args.size, input_seed(args.seed, 0), reps[0].digest)
        {
            self.add(name, passed);
        }
    }
}

/// The object on the last line of standard output: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> Json {
    obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|&(name, unit, value)| {
                        let metric = obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(unit.into())),
                        ]);
                        (name.to_string(), metric)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Prints the metrics by name, the `info` line `run` reads, and the
/// result object the contract asks for on the last line.
fn report(
    args: &RunArgs,
    started: Instant,
    reps: &[Rep],
    checks: &Checks,
    metrics: &[(&str, &str, f64)],
) {
    for &(name, unit, value) in metrics {
        println!("{name} {value} {unit}");
    }
    let (cpu_s, wait_s) = host::schedstat_s();
    let wall = started.elapsed().as_secs_f64();
    let info = obj([
        ("seed", Json::Num(args.seed as f64)),
        ("reps", Json::Num(reps.len() as f64)),
        ("run_wall_s", Json::Num(wall)),
        ("cpu_s", Json::Num(cpu_s)),
        ("wait_s", Json::Num(wait_s)),
        ("noisy", Json::Bool(wait_s > NOISY_WAIT_SHARE * wall)),
        ("digest", Json::Str(format!("{:016x}", reps[0].digest))),
        (
            "walls_s",
            Json::Arr(reps.iter().map(|r| Json::Num(r.wall_s)).collect()),
        ),
        (
            "failed_checks",
            Json::Arr(checks.failed.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    println!("info {}", info.render());

    println!(
        "{}",
        result_line(checks.attempted, checks.failed.len() as u64, metrics).render()
    );
}

/// End-to-end metrics: untraced repetitions until `--seconds` have
/// passed (two at least), each on inputs of its own, medians over them.
fn untraced(args: &RunArgs) -> i32 {
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut peak_rss_mb = 0.0;
    while reps.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        let seed = input_seed(args.seed, reps.len() as u64);
        reps.push(args.workload.rep(args.size, seed, &mut Tracer::new(false)));
        if reps.len() == 1 {
            // After the first repetition only: later ones grow the peak
            // through allocator reuse, by an amount that depends on how
            // many fit into the run.
            peak_rss_mb = host::peak_rss_mb();
        }
    }
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let mut used_s: f64 = setups.iter().sum();
    while setups.len() < SETUP_SAMPLES && used_s < SETUP_BUDGET_S {
        let (mut batch_s, mut n) = (0.0, 0u32);
        while n == 0 || batch_s < SETUP_BATCH_S {
            batch_s += args
                .workload
                .setup_only(args.size, input_seed(args.seed, 0));
            n += 1;
        }
        setups.push(batch_s / f64::from(n));
        used_s += batch_s;
    }
    let mut checks = Checks::default();
    checks.add_run(args, &reps);

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = reps.iter().map(|r| r.vsecs / r.wall_s).collect();
    let values = [
        ("setup_s", median(&setups)),
        ("wall_s", median(&walls)),
        ("vsec_per_s", median(&rates)),
        ("peak_rss_mb", peak_rss_mb),
    ];
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|v| v.0 == m.name)
                .expect("every end-to-end metric is measured")
                .1;
            (m.name, m.unit, value)
        })
        .collect();
    report(args, started, &reps, &checks, &metrics);
    0
}

/// Per-layer metrics: one traced repetition between two untraced ones,
/// all three on the inputs of an untraced run's first repetition, then
/// the layer micro-benches.
fn traced(args: &RunArgs) -> i32 {
    let started = Instant::now();
    let (w, size, seed) = (args.workload, args.size, input_seed(args.seed, 0));
    let rss_before_mb = host::rss_mb();
    let before = w.rep(size, seed, &mut Tracer::new(false));
    let grown_mb = host::peak_rss_mb() - rss_before_mb;
    let mut tracer = Tracer::new(true);
    let traced = w.rep(size, seed, &mut tracer);
    let after = w.rep(size, seed, &mut Tracer::new(false));
    let untraced_wall = (before.wall_s + after.wall_s) / 2.0;

    let mut layer = traced.layer.clone();
    layer.insert("trace_overhead_frac", traced.wall_s / untraced_wall - 1.0);
    if before.tasks > 0 {
        layer.insert(
            "simulation.flow.kb_per_task",
            grown_mb * 1024.0 / before.tasks as f64,
        );
    }
    if w == Workload::Figures {
        // One extra pass on every core, informational: the sweeps fan
        // out across `WP2P_THREADS` workers.
        std::env::set_var("WP2P_THREADS", host::nproc().to_string());
        let parallel = w.rep(size, seed, &mut Tracer::new(false));
        std::env::set_var("WP2P_THREADS", "1");
        layer.insert(
            "simulation.harness.parallel_speedup",
            untraced_wall / parallel.wall_s,
        );
    }
    let depth = layer
        .get("simnet.event.depth_peak")
        .copied()
        .unwrap_or(1024.0);
    layer.extend(micro::run_all(size, depth as usize));
    let events = ["simulation.flow.events", "simulation.packet.events"]
        .iter()
        .filter_map(|k| layer.get(k))
        .fold(0.0, |sum, x| sum + x);
    // An outside estimate: the micro-bench's cost per operation at this
    // workload's queue depth, times its events, over its wall.
    layer.insert(
        "simnet.event.est_share",
        events * layer["simnet.event.ns_per_op"] * 1e-9 / traced.wall_s,
    );

    let reps = [before, traced, after];
    let mut checks = Checks::default();
    checks.add_run(args, &reps);
    // Same inputs three times, sliced once: the outcome must not move.
    for rep in &reps[1..] {
        checks.add("digest repeats", rep.digest == reps[0].digest);
    }

    let spans = tracer.spans();
    let root_s = spans.first().map_or(0.0, |s| s.dur_us() / 1e6);
    for (name, secs) in tracer.self_times_s() {
        // Experiment spans are one each; slices are summed.
        println!("self {name} {secs:.6} s ({:.1} %)", 100.0 * secs / root_s);
    }
    let path = out_dir().join(format!("trace-{}.json", w.name()));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, tracer.to_json(w.name()).render()));
    match written {
        Ok(()) => println!("trace {} ({} spans)", path.display(), spans.len()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            return 1;
        }
    }

    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, layer.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    report(args, started, &reps, &checks, &metrics);
    0
}

pub fn run(args: &RunArgs) -> i32 {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_full_precision() {
        let line = result_line(7, 1, &[("wall_s", "s", 1.203_456_789_012)]).render();
        assert!(!line.contains('\n'));
        let j = Json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = j.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("attempted").and_then(Json::as_num), Some(7.0));
        let m = j.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(
            m.get("value").and_then(Json::as_num),
            Some(1.203_456_789_012)
        );
    }

    #[test]
    fn repetitions_of_a_run_get_distinct_inputs_and_runs_do_not_overlap() {
        assert_eq!(input_seed(3, 0), 3000);
        assert_ne!(input_seed(3, 1), input_seed(3, 0));
        assert!(input_seed(3, 999) < input_seed(4, 0));
    }
}
