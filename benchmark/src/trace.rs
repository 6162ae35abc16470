//! In-memory spans recorded from the benchmark's own files around each
//! call into a layer, written once when the run ends.

use metrics::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are microseconds since the tracer was made.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of the enclosing span in recording order.
    pub parent: Option<usize>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records nested spans. A disabled tracer runs the closures and
/// records nothing, so traced and untraced repetitions share one code
/// path.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: 0.0,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in milliseconds, of every span with this name, in
    /// recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us() / 1e3)
            .collect()
    }

    /// Self time per span name, seconds: each span's duration minus the
    /// part its children cover. Sums to the root spans' durations.
    pub fn self_times_s(&self) -> BTreeMap<String, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered_us) in self.spans.iter().zip(child_us) {
            *out.entry(s.name.clone()).or_insert(0.0) += (s.dur_us() - covered_us) / 1e6;
        }
        out
    }

    /// The spans as a JSON array of
    /// `{id, parent, name, workload, start_us, end_us}`.
    pub fn to_json(&self, workload: &str) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::Obj(BTreeMap::from([
                        ("id".to_string(), Json::Num(id as f64)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("name".to_string(), Json::Str(s.name.clone())),
                        ("workload".to_string(), Json::Str(workload.to_string())),
                        ("start_us".to_string(), Json::Num(s.start_us)),
                        ("end_us".to_string(), Json::Num(s.end_us)),
                    ]))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_times_sum_to_the_root() {
        let mut t = Tracer::new(true);
        t.span("workload", |t| {
            t.span("setup", |_| std::hint::black_box(1 + 1));
            t.span("run", |t| {
                for _ in 0..3 {
                    t.span("slice", |_| std::hint::black_box(2 + 2));
                }
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        for s in spans {
            assert!(s.end_us >= s.start_us);
            if let Some(p) = s.parent {
                assert!(spans[p].start_us <= s.start_us && s.end_us <= spans[p].end_us);
            }
        }
        let total: f64 = t.self_times_s().values().sum();
        assert!((total - spans[0].dur_us() / 1e6).abs() < 1e-9);
        assert_eq!(t.durations_ms("slice").len(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_body() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn json_has_the_documented_keys() {
        let mut t = Tracer::new(true);
        t.span("workload", |t| t.span("run", |_| ()));
        let j = t.to_json("w");
        let child = &j.as_arr().unwrap()[1];
        assert_eq!(child.get("parent").and_then(Json::as_num), Some(0.0));
        assert_eq!(child.get("workload").and_then(Json::as_str), Some("w"));
        for key in ["id", "name", "start_us", "end_us"] {
            assert!(child.get(key).is_some(), "missing {key}");
        }
    }
}
