//! Validates `--metrics-out` JSON dumps against the shape documented in
//! `schemas/metrics.schema.json`.
//!
//! ```sh
//! cargo run -p wp2p-bench --bin validate_metrics -- out/*.metrics.json
//! ```
//!
//! The workspace carries no external crates, so instead of a generic
//! JSON-Schema engine this binary hand-implements the schema's rules on
//! top of `metrics::json::Json`. The per-experiment rules are one table,
//! [`CONTRACT`]; a dump named `<stem>.metrics.json` must additionally
//! carry every row the table marks as required in `<stem>`. Exits
//! nonzero listing every violation.

use metrics::json::Json;

/// What a [`CONTRACT`] row demands of the names it matches.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    /// A gauge that is a finite non-negative number, never null (a
    /// NaN/-inf would dump as null and slip the generic rule).
    Gauge,
    /// A gauge that may be negative or null (a difference or a ratio);
    /// listed so its presence can be required.
    LooseGauge,
    /// A series whose every value is a finite non-negative number.
    Series,
}

/// The per-experiment contract: `(kind, name pattern, stem)`. A name of
/// that kind matching the pattern obeys the kind's rule in every dump;
/// when `stem` is non-empty, the dump `<stem>.metrics.json` must hold at
/// least one such name. Pattern syntax: literal text, `<digits>` (one or
/// more ASCII digits), `{a,b}` (alternatives), and a leading `*` (any
/// prefix). Each row has a same-named key in the schema file.
const CONTRACT: &[(Kind, &str, &str)] = &[
    // Solver gauges are counters-as-gauges.
    (
        Kind::Gauge,
        "*.solver_{full,incremental,class,resources_touched}",
        "",
    ),
    // Snapshot tooling: blob sizes and near-miss counts.
    (Kind::Gauge, "snapshot.bytes", "snapshot"),
    (Kind::Gauge, "search.near_miss", ""),
    // Service tier: clustering coefficients, completion fraction and
    // per-shard load (a dark shard reads zero, not a gap). The
    // distortion gauge (fixed minus mobile) only gets the generic rule.
    (Kind::Gauge, "service.cluster.{fixed,mobile}", "service"),
    (Kind::Gauge, "service.completed_frac", ""),
    (
        Kind::Gauge,
        "service.shard<digits>.{announces,peak_qps}",
        "",
    ),
    (Kind::Series, "service.shard<digits>.qps", "service"),
    // Strategy zoo: per-class downloads and spendable credit (exploit),
    // per-share-point probe downloads (erosion). Exploit's advantage
    // ratio only gets the generic rule; erosion's retention lead may go
    // negative in a hostile swarm.
    (
        Kind::Gauge,
        "exploit.{honest,churner}.{bytes,credit}",
        "exploit",
    ),
    (
        Kind::Gauge,
        "erosion.fr<digits>.{default,retention}_bytes",
        "erosion",
    ),
    (Kind::LooseGauge, "erosion.fr<digits>.lead", "erosion"),
    // Dark-tier blackout: per-arm completion/percentile/load figures,
    // dark-over-on degradation ratios, swarm-wide PEX gossip counters.
    (
        Kind::Gauge,
        "blackout.{on,dark}_{fixed,mobile}.\
{completed_frac,p50_s,p90_s,worst_s,announces,sheds,breaker_trips}",
        "blackout",
    ),
    (
        Kind::Gauge,
        "blackout.degradation.{fixed,mobile}",
        "blackout",
    ),
    (
        Kind::Gauge,
        "pex.{on,dark}_{fixed,mobile}.{sent,received,learned}",
        "blackout",
    ),
    // Chaos soak: every window recovered.
    (Kind::Series, "soak.time_to_recover", "soak"),
];

/// Whether `name` matches a [`CONTRACT`] pattern.
fn matches(pat: &str, name: &str) -> bool {
    if let Some(rest) = pat.strip_prefix('*') {
        return (0..=name.len()).any(|i| name.is_char_boundary(i) && matches(rest, &name[i..]));
    }
    if let Some(rest) = pat.strip_prefix("<digits>") {
        let n = name.bytes().take_while(u8::is_ascii_digit).count();
        return n > 0 && matches(rest, &name[n..]);
    }
    if let Some(body) = pat.strip_prefix('{') {
        let (alts, rest) = body
            .split_once('}')
            .expect("unclosed { in contract pattern");
        return alts
            .split(',')
            .any(|alt| name.strip_prefix(alt).is_some_and(|n| matches(rest, n)));
    }
    let literal = pat.find(['<', '{']).unwrap_or(pat.len());
    match name.strip_prefix(&pat[..literal]) {
        Some(rest) if literal < pat.len() => matches(&pat[literal..], rest),
        Some(rest) => rest.is_empty(),
        None => false,
    }
}

/// The pattern of the first `kind` row `name` falls under, if any.
fn contract_row(kind: Kind, name: &str) -> Option<&'static str> {
    CONTRACT
        .iter()
        .find(|(k, pat, _)| *k == kind && matches(pat, name))
        .map(|(_, pat, _)| *pat)
}

fn is_uint(v: &Json) -> bool {
    matches!(v.as_num(), Some(x) if x >= 0.0 && x == x.trunc())
}

fn is_finite_non_negative(v: &Json) -> bool {
    v.as_num().is_some_and(|x| x.is_finite() && x >= 0.0)
}

/// Checks one parsed dump; `stem` is its file name without
/// `.metrics.json` (selects the required rows).
fn validate(doc: &Json, stem: &str, errors: &mut Vec<String>) {
    let Some(top) = doc.as_obj() else {
        errors.push("top level is not an object".to_string());
        return;
    };
    const KEYS: [&str; 6] = [
        "counters",
        "gauges",
        "histograms",
        "seed",
        "series",
        "trace",
    ];
    for k in KEYS {
        if !top.contains_key(k) {
            errors.push(format!("missing top-level key \"{k}\""));
        }
    }
    for k in top.keys() {
        if !KEYS.contains(&k.as_str()) {
            errors.push(format!("unknown top-level key \"{k}\""));
        }
    }

    if let Some(v) = top.get("seed") {
        if !is_uint(v) {
            errors.push("seed is not a non-negative integer".to_string());
        }
    }

    if let Some(counters) = top.get("counters") {
        match counters.as_obj() {
            Some(m) => {
                for (name, v) in m {
                    if !is_uint(v) {
                        errors.push(format!("counter \"{name}\" is not a non-negative integer"));
                    }
                }
            }
            None => errors.push("counters is not an object".to_string()),
        }
    }

    if let Some(gauges) = top.get("gauges") {
        match gauges.as_obj() {
            Some(m) => {
                for (name, v) in m {
                    if v.as_num().is_none() && *v != Json::Null {
                        errors.push(format!("gauge \"{name}\" is not a number or null"));
                    }
                    if let Some(pat) = contract_row(Kind::Gauge, name) {
                        if !is_finite_non_negative(v) {
                            errors.push(format!(
                                "gauge \"{name}\": must be a finite non-negative number \
(contract \"{pat}\")"
                            ));
                        }
                    }
                }
            }
            None => errors.push("gauges is not an object".to_string()),
        }
    }

    if let Some(histograms) = top.get("histograms") {
        match histograms.as_obj() {
            Some(m) => {
                for (name, h) in m {
                    let bounds = h.get("bounds").and_then(Json::as_arr);
                    let counts = h.get("counts").and_then(Json::as_arr);
                    let total = h.get("total");
                    match (bounds, counts, total) {
                        (Some(bounds), Some(counts), Some(total)) => {
                            if bounds.iter().any(|b| b.as_num().is_none()) {
                                errors.push(format!("histogram \"{name}\": non-numeric bound"));
                            }
                            if counts.len() != bounds.len() + 1 {
                                errors.push(format!(
                                    "histogram \"{name}\": {} counts for {} bounds (want bounds+1)",
                                    counts.len(),
                                    bounds.len()
                                ));
                            }
                            if counts.iter().any(|c| !is_uint(c)) {
                                errors.push(format!("histogram \"{name}\": non-integer count"));
                            } else {
                                let sum: f64 = counts.iter().filter_map(Json::as_num).sum();
                                if total.as_num() != Some(sum) {
                                    errors.push(format!(
                                        "histogram \"{name}\": total != sum of counts"
                                    ));
                                }
                            }
                        }
                        _ => errors.push(format!("histogram \"{name}\" lacks bounds/counts/total")),
                    }
                }
            }
            None => errors.push("histograms is not an object".to_string()),
        }
    }

    if let Some(series) = top.get("series") {
        match series.as_obj() {
            Some(m) => {
                for (name, s) in m {
                    let strict = contract_row(Kind::Series, name);
                    if !s.get("dropped").is_some_and(is_uint) {
                        errors.push(format!(
                            "series \"{name}\": dropped is not a non-negative integer"
                        ));
                    }
                    match s.get("points").and_then(Json::as_arr) {
                        Some(points) => {
                            let mut last_t = f64::NEG_INFINITY;
                            for (i, p) in points.iter().enumerate() {
                                let pair = p.as_arr().filter(|a| a.len() == 2);
                                let Some(pair) = pair else {
                                    errors.push(format!(
                                        "series \"{name}\" point {i} is not a [t, v] pair"
                                    ));
                                    continue;
                                };
                                match pair[0].as_num() {
                                    Some(t) if t >= last_t => last_t = t,
                                    Some(t) => errors.push(format!(
                                        "series \"{name}\" point {i}: time {t} goes backwards"
                                    )),
                                    None => errors.push(format!(
                                        "series \"{name}\" point {i}: non-numeric time"
                                    )),
                                }
                                if pair[1].as_num().is_none() && pair[1] != Json::Null {
                                    errors.push(format!(
                                        "series \"{name}\" point {i}: value is not a number or null"
                                    ));
                                }
                                if let Some(pat) = strict {
                                    if !is_finite_non_negative(&pair[1]) {
                                        errors.push(format!(
                                            "series \"{name}\" point {i}: must be a finite \
non-negative number (contract \"{pat}\")"
                                        ));
                                    }
                                }
                            }
                        }
                        None => errors.push(format!("series \"{name}\": points is not an array")),
                    }
                }
            }
            None => errors.push("series is not an object".to_string()),
        }
    }

    if let Some(trace) = top.get("trace") {
        match trace.as_arr() {
            Some(events) => {
                let mut last_at = f64::NEG_INFINITY;
                for (i, ev) in events.iter().enumerate() {
                    match ev.get("at").and_then(Json::as_num) {
                        Some(at) if at >= last_at && at >= 0.0 => last_at = at,
                        Some(at) => errors.push(format!(
                            "trace event {i}: at {at} is negative or goes backwards"
                        )),
                        None => errors.push(format!("trace event {i}: missing numeric \"at\"")),
                    }
                    for key in ["kind", "message"] {
                        if ev.get(key).and_then(Json::as_str).is_none() {
                            errors.push(format!("trace event {i}: missing string \"{key}\""));
                        }
                    }
                }
            }
            None => errors.push("trace is not an array".to_string()),
        }
    }

    for &(kind, pat, required_in) in CONTRACT {
        if required_in.is_empty() || required_in != stem {
            continue;
        }
        let section = if kind == Kind::Series {
            "series"
        } else {
            "gauges"
        };
        let present = top
            .get(section)
            .and_then(Json::as_obj)
            .is_some_and(|m| m.keys().any(|name| matches(pat, name)));
        if !present {
            errors.push(format!(
                "the {stem} dump holds no {section} entry \"{pat}\""
            ));
        }
    }
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_metrics <dump.metrics.json>...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        let file = std::path::Path::new(path)
            .file_name()
            .map(|f| f.to_string_lossy())
            .unwrap_or_default();
        let stem = file.strip_suffix(".metrics.json").unwrap_or(&file);
        let mut errors = Vec::new();
        match Json::parse(&text) {
            Ok(doc) => validate(&doc, stem, &mut errors),
            Err(e) => errors.push(format!("not valid JSON: {e}")),
        }
        if errors.is_empty() {
            println!("{path}: ok");
        } else {
            failed = true;
            for e in &errors {
                eprintln!("{path}: {e}");
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::handle::MetricsHandle;
    use simnet::time::SimTime;

    fn errors_for(text: &str, stem: &str) -> Vec<String> {
        let mut errors = Vec::new();
        validate(&Json::parse(text).unwrap(), stem, &mut errors);
        errors
    }

    #[test]
    fn accepts_a_real_dump() {
        let handle = MetricsHandle::enabled(7);
        handle.counter("c").add(3);
        handle.gauge("g").set(1.5);
        handle.histogram("h", &[1.0, 10.0]).record(4.0);
        let s = handle.series("s");
        s.record(SimTime::from_secs(1), 2.0);
        s.record(SimTime::from_secs(2), 3.0);
        assert_eq!(errors_for(&handle.to_json(), "any"), Vec::<String>::new());
    }

    #[test]
    fn pattern_matcher_handles_every_construct() {
        assert!(matches("a.b", "a.b"));
        assert!(!matches("a.b", "a.bc") && !matches("a.b", "a.") && !matches("a.b", "xa.b"));
        assert!(matches("fr<digits>.x", "fr40.x") && !matches("fr<digits>.x", "fr.x"));
        assert!(!matches("fr<digits>.x", "fr4a.x"));
        assert!(
            matches("{on,dark}_{a,b}.z", "dark_a.z") && !matches("{on,dark}_{a,b}.z", "dim_a.z")
        );
        assert!(matches("*.s_{x,y}", "scale.n4.s_y") && !matches("*.s_{x,y}", "scale.n4.s_yy"));
    }

    type Build = fn(&MetricsHandle);

    /// `(what, dump stem, how to fill the dump, the names that must be
    /// flagged — one error each, and no others)`. Accept cases run under
    /// their experiment's stem, so they also satisfy its required rows.
    const CASES: &[(&str, &str, Build, &[&str])] = &[
        // Any other series may carry nulls; the soak recovery series
        // must be finite and non-negative at every point.
        (
            "soak recovery series",
            "soak",
            |h| {
                let s = h.series("soak.time_to_recover");
                s.record(SimTime::from_secs(0), 0.0);
                s.record(SimTime::from_secs(1), 12.5);
            },
            &[],
        ),
        (
            "negative recovery time",
            "",
            |h| {
                h.series("soak.time_to_recover")
                    .record(SimTime::from_secs(0), -3.0)
            },
            &["soak.time_to_recover"],
        ),
        (
            "non-finite recovery time",
            "",
            |h| {
                h.series("soak.time_to_recover")
                    .record(SimTime::from_secs(0), f64::NAN)
            },
            &["soak.time_to_recover"],
        ),
        (
            "solver gauges",
            "scale",
            |h| {
                h.gauge("scale.n256.solver_full").set(3.0);
                h.gauge("scale.n256.solver_incremental").set(120.0);
                h.gauge("scale.n256.solver_class").set(41.0);
                h.gauge("scale.n256.solver_resources_touched").set(950.0);
            },
            &[],
        ),
        (
            "negative solver gauge",
            "",
            |h| h.gauge("scale.n256.solver_class").set(-1.0),
            &["scale.n256.solver_class"],
        ),
        // Non-finite gauges dump as null — the contract must catch that
        // too, while gauges outside it may stay null.
        (
            "NaN solver gauge, NaN bystander",
            "",
            |h| {
                h.gauge("scale.n64.solver_full").set(f64::NAN);
                h.gauge("other.gauge").set(f64::NAN);
            },
            &["scale.n64.solver_full"],
        ),
        (
            "snapshot tooling gauges",
            "snapshot",
            |h| {
                h.gauge("snapshot.bytes").set(28_307.0);
                h.gauge("search.near_miss").set(2.0);
            },
            &[],
        ),
        (
            "negative snapshot.bytes",
            "",
            |h| h.gauge("snapshot.bytes").set(-1.0),
            &["snapshot.bytes"],
        ),
        (
            "NaN near-miss gauge",
            "",
            |h| h.gauge("search.near_miss").set(f64::NAN),
            &["search.near_miss"],
        ),
        (
            "service tier",
            "service",
            |h| {
                h.gauge("service.cluster.fixed").set(1.54);
                h.gauge("service.cluster.mobile").set(1.37);
                h.gauge("service.cluster.distortion").set(0.17);
                h.gauge("service.completed_frac").set(0.99);
                h.gauge("service.shard0.announces").set(12_785.0);
                h.gauge("service.shard0.peak_qps").set(277.7);
                let s = h.series("service.shard0.qps");
                s.record(SimTime::from_secs(10), 277.7);
                s.record(SimTime::from_secs(20), 0.0);
            },
            &[],
        ),
        // The distortion gauge may be negative; the coefficients may not.
        (
            "negative clustering distortion",
            "",
            |h| h.gauge("service.cluster.distortion").set(-0.2),
            &[],
        ),
        (
            "negative clustering coefficient",
            "",
            |h| h.gauge("service.cluster.fixed").set(-0.5),
            &["service.cluster.fixed"],
        ),
        (
            "NaN shard load, gauge and series",
            "",
            |h| {
                h.gauge("service.shard3.peak_qps").set(f64::NAN);
                h.series("service.shard3.qps")
                    .record(SimTime::from_secs(0), f64::NAN);
            },
            &["service.shard3.peak_qps", "service.shard3.qps"],
        ),
        (
            "exploit probe",
            "exploit",
            |h| {
                h.gauge("exploit.honest.bytes").set(32_400_000.0);
                h.gauge("exploit.honest.credit").set(7_227_965.0);
                h.gauge("exploit.churner.bytes").set(22_100_000.0);
                h.gauge("exploit.churner.credit").set(0.0);
                h.gauge("exploit.advantage").set(0.68);
            },
            &[],
        ),
        // The lead is retention minus default and may go negative.
        (
            "erosion sweep, hostile lead",
            "erosion",
            |h| {
                h.gauge("erosion.fr0.default_bytes").set(15_100_000.0);
                h.gauge("erosion.fr0.retention_bytes").set(22_300_000.0);
                h.gauge("erosion.fr0.lead").set(7_200_000.0);
                h.gauge("erosion.fr40.lead").set(-2_000_000.0);
            },
            &[],
        ),
        (
            "negative exploit credit",
            "",
            |h| h.gauge("exploit.churner.credit").set(-1.0),
            &["exploit.churner.credit"],
        ),
        (
            "NaN erosion bytes",
            "",
            |h| h.gauge("erosion.fr20.retention_bytes").set(f64::NAN),
            &["erosion.fr20.retention_bytes"],
        ),
        (
            "blackout ladder",
            "blackout",
            |h| {
                h.gauge("blackout.dark_fixed.completed_frac").set(1.0);
                h.gauge("blackout.dark_mobile.p50_s").set(212.0);
                h.gauge("blackout.on_fixed.sheds").set(3.0);
                h.gauge("blackout.on_mobile.breaker_trips").set(0.0);
                h.gauge("blackout.degradation.fixed").set(1.42);
                h.gauge("pex.dark_fixed.sent").set(310.0);
                h.gauge("pex.dark_mobile.learned").set(14.0);
            },
            &[],
        ),
        (
            "negative blackout percentile",
            "",
            |h| h.gauge("blackout.dark_fixed.p90_s").set(-1.0),
            &["blackout.dark_fixed.p90_s"],
        ),
        // A gauge outside the four arms only gets the generic rule.
        (
            "NaN gossip counter, NaN off-arm bystander",
            "",
            |h| {
                h.gauge("pex.on_fixed.received").set(f64::NAN);
                h.gauge("pex.someday.received").set(f64::NAN);
            },
            &["pex.on_fixed.received"],
        ),
    ];

    #[test]
    fn enforces_the_contract_table() {
        for &(what, stem, build, flagged) in CASES {
            let handle = MetricsHandle::enabled(1);
            build(&handle);
            let errs = errors_for(&handle.to_json(), stem);
            assert_eq!(errs.len(), flagged.len(), "{what}: {errs:?}");
            for name in flagged {
                assert!(
                    errs.iter().any(|e| {
                        e.contains(&format!("\"{name}\"")) && e.contains("finite non-negative")
                    }),
                    "{what}: {name} not flagged in {errs:?}"
                );
            }
        }
    }

    #[test]
    fn required_rows_are_keyed_on_the_dump_stem() {
        let empty = MetricsHandle::enabled(1).to_json();
        let required: Vec<_> = CONTRACT.iter().filter(|(_, _, s)| !s.is_empty()).collect();
        assert_eq!(required.len(), 10);
        for &&(_, pat, stem) in &required {
            let errs = errors_for(&empty, stem);
            assert!(
                errs.iter().any(|e| e.contains(&format!("\"{pat}\""))),
                "an empty {stem} dump must be missing {pat}: {errs:?}"
            );
            // The same emptiness is fine under any other name.
            assert_eq!(errors_for(&empty, "fig2a"), Vec::<String>::new());
        }
    }

    /// The schema file spells each contract pattern as a regular
    /// expression; this is the mechanical translation.
    fn schema_key(pat: &str) -> String {
        let body = pat
            .trim_start_matches('*')
            .replace('.', "\\.")
            .replace("<digits>", "[0-9]+")
            .replace('{', "(")
            .replace('}', ")")
            .replace(',', "|");
        let anchor = if pat.starts_with('*') { "" } else { "^" };
        format!("{anchor}{body}$")
    }

    #[test]
    fn every_contract_row_has_a_schema_key() {
        let schema = Json::parse(include_str!("../../../../schemas/metrics.schema.json"))
            .expect("schema file is valid JSON");
        for &(kind, pat, _) in CONTRACT {
            let section = if kind == Kind::Series {
                "series"
            } else {
                "gauges"
            };
            let node = schema
                .get("properties")
                .and_then(|p| p.get(section))
                .expect("schema section");
            let has = |table: &str, key: &str| {
                node.get(table)
                    .and_then(Json::as_obj)
                    .is_some_and(|m| m.contains_key(key))
            };
            assert!(
                has("patternProperties", &schema_key(pat)) || has("properties", pat),
                "schemas/metrics.schema.json has no {section} key for {pat:?} \
                 (wanted patternProperties {:?})",
                schema_key(pat)
            );
        }
    }

    #[test]
    fn rejects_shape_violations() {
        let base = MetricsHandle::enabled(0).to_json();
        assert!(errors_for(&base, "any").is_empty());
        assert!(!errors_for("{}", "any").is_empty(), "missing keys");
        let bad = base.replace("\"seed\":0", "\"seed\":-1.5");
        assert!(!errors_for(&bad, "any").is_empty(), "bad seed");
    }
}
