//! Seeded property tests for the incremental / class-aggregated rate
//! solver against the reference `max_min_rates` oracle.
//!
//! Two claims are exercised over randomized demand/capacity/churn
//! sequences (plus the degenerate corners: zero-capacity resources,
//! single-flow classes, all-dirty updates):
//!
//! 1. **Incremental-vs-full bit-identity** — an engine left to pick its
//!    own path and a reference engine forced onto the full path
//!    (`invalidate_all()` before every solve), fed the same mutation
//!    stream, produce bit-identical rates after every solve. This is the
//!    release-build counterpart of the debug-only `verify_incremental`
//!    assertion.
//! 2. **Oracle agreement** — engine rates match the reference
//!    progressive-filling oracle to tight tolerance. Tolerance, not
//!    bit-identity: the engine fills per connected component and per
//!    class while the oracle advances one global water level, which can
//!    reorder mathematically-equivalent float operations.

use p2p_simulation::rates::{max_min_rates, FlowDemand, RateEngine};
use simnet::rng::SimRng;

const SLOTS: usize = 96;

/// Relative-tolerance comparison against the oracle.
fn close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= 1e-6 * scale
}

/// A random demand over `nr` resources. Biased toward small resource
/// sets so flows collide (shared bottlenecks) and classes form
/// (identical triples ⇒ single equivalence class).
fn random_demand(rng: &mut SimRng, nr: usize) -> FlowDemand {
    let a = rng.range(0..nr);
    let b = rng.range(0..nr);
    let mut d = FlowDemand::new(a, b);
    if rng.chance(0.3) {
        d = d.with_cap(rng.range(0..nr));
    }
    d
}

/// Mirrors every mutation into both engines plus the dense oracle
/// inputs, then checks both claims after every solve.
struct Harness {
    inc: RateEngine,
    full: RateEngine,
    caps: Vec<f64>,
    demands: Vec<Option<FlowDemand>>,
}

impl Harness {
    fn new(nr: usize) -> Self {
        let mut inc = RateEngine::new();
        let mut full = RateEngine::new();
        inc.ensure_resources(nr);
        full.ensure_resources(nr);
        Harness {
            inc,
            full,
            caps: vec![0.0; nr],
            demands: vec![None; SLOTS],
        }
    }

    fn set_capacity(&mut self, r: usize, cap: f64) {
        self.caps[r] = cap;
        self.inc.set_capacity(r, cap);
        self.full.set_capacity(r, cap);
    }

    fn upsert(&mut self, slot: usize, d: FlowDemand) {
        self.demands[slot] = Some(d);
        self.inc.upsert_flow(slot, d);
        self.full.upsert_flow(slot, d);
    }

    fn remove(&mut self, slot: usize) {
        self.demands[slot] = None;
        self.inc.remove_flow(slot);
        self.full.remove_flow(slot);
    }

    fn solve_and_check(&mut self, step: usize) {
        self.inc.solve();
        if self.full.is_dirty() {
            self.full.invalidate_all();
        }
        self.full.solve();
        // Claim 1: incremental-vs-full bit-identity.
        for slot in 0..SLOTS {
            assert_eq!(
                self.inc.rate(slot).to_bits(),
                self.full.rate(slot).to_bits(),
                "step {step}: incremental and full engines diverged at slot {slot}: \
                 {} != {}",
                self.inc.rate(slot),
                self.full.rate(slot),
            );
        }
        // Claim 2: oracle agreement on the present population.
        let mut flows = Vec::new();
        let mut slots = Vec::new();
        for (slot, d) in self.demands.iter().enumerate() {
            if let Some(d) = d {
                flows.push(*d);
                slots.push(slot);
            }
        }
        let want = max_min_rates(&flows, &self.caps);
        for (&slot, &want) in slots.iter().zip(&want) {
            let got = self.inc.rate(slot);
            assert!(
                close(got, want),
                "step {step}: engine disagrees with oracle at slot {slot}: \
                 got {got}, oracle {want}",
            );
        }
        // Absent slots read zero.
        for slot in 0..SLOTS {
            if self.demands[slot].is_none() {
                assert_eq!(self.inc.rate(slot), 0.0);
            }
        }
    }
}

#[test]
fn randomized_churn_matches_oracle_and_full_solver() {
    for seed in [1u64, 0xBEEF, 0x5CA1E] {
        let mut rng = SimRng::new(seed);
        let nr = 24;
        let mut h = Harness::new(nr);
        for r in 0..nr {
            // Some resources start at zero capacity (degenerate corner:
            // flows touching them must pin to rate 0, not NaN/inf).
            let cap = if rng.chance(0.15) {
                0.0
            } else {
                rng.range(1..200u64) as f64 * 1000.0
            };
            h.set_capacity(r, cap);
        }
        for step in 0..300 {
            match rng.range(0..100u32) {
                // Mostly flow churn: insert/overwrite…
                0..=54 => {
                    let slot = rng.range(0..SLOTS);
                    let d = random_demand(&mut rng, nr);
                    h.upsert(slot, d);
                }
                // …and removal (including no-op removes of empty slots).
                55..=79 => {
                    let slot = rng.range(0..SLOTS);
                    h.remove(slot);
                }
                // Capacity moves, sometimes to zero and back.
                80..=94 => {
                    let r = rng.range(0..nr);
                    let cap = if rng.chance(0.2) {
                        0.0
                    } else {
                        rng.range(1..200u64) as f64 * 1000.0
                    };
                    h.set_capacity(r, cap);
                }
                // All-dirty updates: force the full-solve path on the
                // incremental engine too.
                _ => {
                    h.inc.invalidate_all();
                    h.full.invalidate_all();
                }
            }
            h.solve_and_check(step);
        }
    }
}

#[test]
fn single_flow_classes_match_oracle() {
    // Every flow gets a distinct resource pair: all classes are
    // singletons, so aggregation must degenerate gracefully.
    let mut h = Harness::new(2 * SLOTS);
    for r in 0..2 * SLOTS {
        h.set_capacity(r, ((r % 7) + 1) as f64 * 10_000.0);
    }
    for slot in 0..SLOTS {
        h.upsert(slot, FlowDemand::new(2 * slot, 2 * slot + 1));
    }
    h.solve_and_check(0);
    // Each flow alone on its pair: rate = min of the two capacities.
    for slot in 0..SLOTS {
        let want = h.caps[2 * slot].min(h.caps[2 * slot + 1]);
        assert_eq!(h.inc.rate(slot), want);
    }
}

#[test]
fn symmetric_population_collapses_to_one_class() {
    // All flows share one (up, down) pair — one equivalence class. The
    // aggregated path must split the bottleneck exactly evenly.
    let mut h = Harness::new(2);
    h.set_capacity(0, 64_000.0);
    h.set_capacity(1, f64::INFINITY);
    for slot in 0..32 {
        h.upsert(slot, FlowDemand::new(0, 1));
    }
    h.solve_and_check(0);
    for slot in 0..32 {
        assert_eq!(h.inc.rate(slot), 2_000.0, "even split of the uplink");
    }
    let stats = h.inc.stats();
    assert_eq!(
        stats.class_solves, 1,
        "32 symmetric flows must fill as a single class"
    );
}

#[test]
fn zero_capacity_resource_blocks_exactly_its_flows() {
    let mut h = Harness::new(4);
    h.set_capacity(0, 10_000.0);
    h.set_capacity(1, 10_000.0);
    h.set_capacity(2, 0.0);
    h.set_capacity(3, 10_000.0);
    h.upsert(0, FlowDemand::new(0, 1));
    h.upsert(1, FlowDemand::new(2, 3)); // through the dead resource
    h.solve_and_check(0);
    assert_eq!(h.inc.rate(0), 10_000.0);
    assert_eq!(h.inc.rate(1), 0.0, "zero-capacity resource pins its flows");
    // Reviving the resource revives the flow.
    h.set_capacity(2, 5_000.0);
    h.solve_and_check(1);
    assert_eq!(h.inc.rate(1), 5_000.0);
}
