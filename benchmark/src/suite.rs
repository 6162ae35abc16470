//! `run`: every workload over several seeds, each run in a fresh child
//! process of this binary, one at a time; then one traced run per
//! workload. Prints every metric by name and writes
//! `benchmark/out/results.json` and `benchmark/out/trace.json`.

use crate::driver::out_dir;
use crate::host;
use crate::spec::{obj, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, spread};
use crate::workloads::{Size, Workload};
use metrics::json::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// What one child printed: the contract's result object and the `info`
/// line next to it.
struct Child {
    result: Json,
    info: Json,
}

/// Runs one workload once in a child process, exactly as the command
/// in `BENCHMARK.json` would.
fn child(w: Workload, seed: u64, seconds: f64, trace: bool, size: Size) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if size == Size::Smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed}: child exited {}",
            w.name(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let parse = |line: Option<&str>, what: &str| {
        line.ok_or_else(|| format!("{}: no {what} line", w.name()))
            .and_then(|l| Json::parse(l).map_err(|e| format!("{}: {what}: {e}", w.name())))
    };
    Ok(Child {
        result: parse(text.lines().last(), "result")?,
        info: parse(text.lines().find_map(|l| l.strip_prefix("info ")), "info")?,
    })
}

fn metric_value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_num)
        .unwrap_or(0.0)
}

fn count(result: &Json, key: &str) -> f64 {
    result.get(key).and_then(Json::as_num).unwrap_or(0.0)
}

pub fn run(seed: u64, runs: u64, seconds: f64, size: Size) -> Result<i32, String> {
    // Round-robin across workloads so slow drift of the host lands on
    // all of them alike.
    let mut untraced: Vec<Vec<Child>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for r in 0..runs {
        for (k, &w) in Workload::ALL.iter().enumerate() {
            let c = child(w, seed + r, seconds, false, size)?;
            println!(
                "run {}/{runs} {} seed {}: wall_s {:.4} noisy {}",
                r + 1,
                w.name(),
                seed + r,
                metric_value(&c.result, "wall_s"),
                c.info.get("noisy").and_then(Json::as_bool).unwrap_or(false),
            );
            untraced[k].push(c);
        }
    }

    let mut workloads = BTreeMap::new();
    let mut spans = Vec::new();
    let mut failed_total = 0.0;
    for (&w, children) in Workload::ALL.iter().zip(&untraced) {
        let traced = child(w, seed, seconds, true, size)?;
        println!("\n== {}", w.name());
        let mut end_to_end = BTreeMap::new();
        for m in END_TO_END {
            let values: Vec<f64> = children
                .iter()
                .map(|c| metric_value(&c.result, m.name))
                .collect();
            let (q1, q3) = quartiles(&values);
            println!(
                "{:<14} {:>14.7} {:<4} (q1 {q1:.7}, q3 {q3:.7}, spread {:.2} %, bound {:.0} %)",
                m.name,
                median(&values),
                m.unit,
                100.0 * spread(&values),
                100.0 * m.bound,
            );
            end_to_end.insert(
                m.name.to_string(),
                obj([
                    ("unit", Json::Str(m.unit.into())),
                    ("better", Json::Str(m.better.as_str().into())),
                    ("bound", Json::Num(m.bound)),
                    ("median", Json::Num(median(&values))),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("spread", Json::Num(spread(&values))),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            );
        }
        let mut per_layer = BTreeMap::new();
        let mut not_entered = Vec::new();
        for m in PER_LAYER {
            let value = metric_value(&traced.result, m.name);
            if value == 0.0 {
                not_entered.push(m.name);
            } else {
                println!("{:<44} {value:>16.4} {}", m.name, m.unit);
            }
            per_layer.insert(
                m.name.to_string(),
                obj([
                    ("unit", Json::Str(m.unit.into())),
                    ("better", Json::Str(m.better.as_str().into())),
                    ("value", Json::Num(value)),
                ]),
            );
        }
        println!("0 (layer not entered): {}", not_entered.join(" "));
        let all = children.iter().chain(std::iter::once(&traced));
        let attempted: f64 = all.clone().map(|c| count(&c.result, "attempted")).sum();
        let failed: f64 = all.map(|c| count(&c.result, "failed")).sum();
        failed_total += failed;
        println!("checks: {failed} failed of {attempted}");
        workloads.insert(
            w.name().to_string(),
            obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("fail_frac", Json::Num(failed / attempted.max(1.0))),
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", Json::Obj(per_layer)),
                (
                    "runs",
                    Json::Arr(children.iter().map(|c| c.info.clone()).collect()),
                ),
                ("traced", traced.info),
            ]),
        );
        let path = out_dir().join(format!("trace-{}.json", w.name()));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        match Json::parse(&text)? {
            Json::Arr(mut s) => spans.append(&mut s),
            _ => return Err(format!("{}: not a span list", path.display())),
        }
    }

    let results = obj([
        (
            "env",
            obj([
                ("nproc", Json::Num(host::nproc() as f64)),
                ("rustc", Json::Str(host::rustc_version())),
                ("commit", Json::Str(host::git_commit())),
                ("seed", Json::Num(seed as f64)),
                ("runs", Json::Num(runs as f64)),
                ("seconds", Json::Num(seconds)),
                ("smoke", Json::Bool(size == Size::Smoke)),
            ]),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    for (name, value) in [("results.json", results), ("trace.json", Json::Arr(spans))] {
        let path = out_dir().join(name);
        std::fs::write(&path, value.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(i32::from(failed_total > 0.0))
}
