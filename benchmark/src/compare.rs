//! `compare`: two `results.json` files against the benchmark's bounds.

use crate::stats::median;
use metrics::json::Json;
use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The run-to-run spread is wider than the bound: the runs cannot
    /// tell a regression of that size from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a` for one metric on one workload. `spread` is
/// the wider of the two sides' inter-quartile spreads.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64, spread: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (mb - ma) / ma.abs();
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    let every_b_beats_every_a = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    // Runs pair up by seed. A gain needs nine pairs in ten won (ties
    // count for neither side) and medians further apart than the spread.
    let won = a.iter().zip(b).filter(|&(&y, &x)| beats(x, y)).count();
    let lost = a.iter().zip(b).filter(|&(&y, &x)| beats(y, x)).count();
    let wins_pairs = won > 0 && won * 10 >= (won + lost) * 9;
    if spread > bound {
        if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread && wins_pairs {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_num).unwrap_or(0.0)
}

/// The object under `key`, empty when absent.
fn members(j: &Json, key: &str) -> BTreeMap<String, Json> {
    j.get(key)
        .and_then(Json::as_obj)
        .cloned()
        .unwrap_or_default()
}

fn values(metric: &Json) -> Vec<f64> {
    metric
        .get("values")
        .and_then(Json::as_arr)
        .map(|v| v.iter().filter_map(Json::as_num).collect())
        .unwrap_or_default()
}

/// `(seed, digest)` of every run of a workload, traced one included.
fn digests(workload: &Json) -> Vec<(u64, String)> {
    let runs = workload.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    runs.iter()
        .chain(workload.get("traced"))
        .map(|r| {
            (
                num(r, "seed") as u64,
                r.get("digest")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect()
}

/// Prints one row per (metric, workload); returns the exit code: 1 on
/// any regression or rise in failed checks, else 0.
pub fn run(path_a: &str, path_b: &str) -> Result<i32, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let (wa, wb) = (members(&a, "workloads"), members(&b, "workloads"));
    let mut regressions = 0;
    let mut differing = 0;
    for (name, ja) in &wa {
        let Some(jb) = wb.get(name) else {
            println!("{name}: missing from {path_b}");
            regressions += 1;
            continue;
        };
        println!("== {name}");
        for (metric, ma) in &members(ja, "end_to_end") {
            let Some(mb) = jb.get("end_to_end").and_then(|m| m.get(metric)) else {
                println!("{metric:<14} missing from {path_b}");
                regressions += 1;
                continue;
            };
            let lower = ma.get("better").and_then(Json::as_str) != Some("higher");
            let spread = num(ma, "spread").max(num(mb, "spread"));
            let verdict = judge(&values(ma), &values(mb), lower, num(ma, "bound"), spread);
            regressions += i32::from(verdict == Verdict::Worse);
            println!(
                "{metric:<14} {:>14.7} -> {:>14.7} ({:+.2} %, spread {:.2} %, bound {:.0} %)  {}",
                num(ma, "median"),
                num(mb, "median"),
                100.0 * (num(mb, "median") / num(ma, "median") - 1.0),
                100.0 * spread,
                100.0 * num(ma, "bound"),
                verdict.as_str(),
            );
        }
        if num(jb, "fail_frac") > num(ja, "fail_frac") {
            println!(
                "fail_frac {} -> {}  WORSE",
                num(ja, "fail_frac"),
                num(jb, "fail_frac")
            );
            regressions += 1;
        }
        // Counts and digests repeat exactly for one seed and commit, so
        // they compare exactly; a difference is a change of behaviour,
        // reported but not a regression by itself.
        let lb = members(jb, "per_layer");
        for (metric, la) in &members(ja, "per_layer") {
            let (va, vb) = (
                num(la, "value"),
                lb.get(metric).map_or(f64::NAN, |m| num(m, "value")),
            );
            if la.get("unit").and_then(Json::as_str) == Some("count") {
                if va != vb {
                    println!("{metric:<44} {va} -> {vb}  differs");
                    differing += 1;
                }
            } else if va != 0.0 || vb != 0.0 {
                println!(
                    "{metric:<44} {va:>14.4} -> {vb:>14.4} ({:+.1} %)",
                    100.0 * (vb / va - 1.0)
                );
            }
        }
        let db = digests(jb);
        for (seed, digest) in digests(ja) {
            if let Some((_, other)) = db.iter().find(|(s, _)| *s == seed) {
                if *other != digest {
                    println!("digest of seed {seed}: {digest} -> {other}  differs");
                    differing += 1;
                }
            }
        }
    }
    println!("\n{regressions} regression(s), {differing} count or digest difference(s)");
    Ok(i32::from(regressions > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let near = [10.2, 10.3, 10.1, 10.25, 10.2];
        let far = [11.5, 11.6, 11.4, 11.5, 11.55];
        let fast = [9.0, 9.1, 8.9, 9.0, 9.05];
        assert_eq!(judge(&a, &near, true, 0.05, 0.01), Verdict::WithinBound);
        assert_eq!(judge(&a, &far, true, 0.05, 0.01), Verdict::Worse);
        assert_eq!(judge(&a, &fast, true, 0.05, 0.01), Verdict::Better);
        // An improvement inside the spread is not a gain, nor is one
        // that loses two pairs in five.
        assert_eq!(judge(&near, &a, true, 0.05, 0.03), Verdict::WithinBound);
        let mixed = [9.0, 9.1, 9.0, 10.1, 10.1];
        assert_eq!(judge(&a, &mixed, true, 0.05, 0.01), Verdict::WithinBound);
        // The same numbers for a higher-is-better metric flip.
        assert_eq!(judge(&a, &far, false, 0.05, 0.01), Verdict::Better);
        assert_eq!(judge(&a, &fast, false, 0.05, 0.01), Verdict::Worse);
        // A spread wider than the bound resolves nothing...
        assert_eq!(judge(&a, &far, true, 0.05, 0.08), Verdict::Unresolved);
        // ...unless every run of b beats every run of a.
        assert_eq!(judge(&a, &fast, true, 0.05, 0.08), Verdict::Better);
    }
}
