//! Max-min fair rate allocation for the fluid (flow-level) transport.
//!
//! Every active transfer consumes capacity at one or two *resources*: the
//! sender's uplink and the receiver's downlink for wired hosts, or the one
//! shared channel of a wireless host — the same resource for its uploads
//! **and** downloads, which is how upload/download self-contention (paper
//! §3.3) enters the model.
//!
//! Rates are assigned by progressive filling (water-filling): all flows
//! rise together; when a resource saturates, its flows freeze at the
//! current level and the rest keep rising. This is the classic max-min
//! idealization of many long-lived TCP flows sharing bottlenecks.
//!
//! Two solvers live here:
//!
//! * [`MaxMinSolver`] / [`max_min_rates`] — the reference progressive-
//!   filling implementation, one global level, re-solved from scratch
//!   every call. Kept as the oracle the fast path is tested against.
//! * [`RateEngine`] — the hot-path solver. It holds the flow population
//!   *persistently* (struct-of-arrays slots), tracks which resources a
//!   change touched, and on `solve()` re-runs water-filling only over the
//!   connected components reachable from dirty resources, splicing the
//!   frozen rates of everything else. Within a component it aggregates
//!   flows into equivalence classes (identical resource sets) and fills
//!   classes instead of flows — the fast-mmf population-batching idea —
//!   using a saturation-ordered heap so a component solve costs
//!   O(incidences · log resources) instead of O(rounds · resources).
//!
//! Component-local filling reassociates floating-point sums relative to
//! the single-global-level oracle, so engine rates can differ from oracle
//! rates in the last ulps (they agree to ~1e-12 relative); property tests
//! compare with a tolerance. What *is* bit-exact — asserted in debug
//! builds on every incremental solve — is incremental vs. full solves of
//! the engine itself: both decompose into the same components and run the
//! same kernel arithmetic. [`RateEngine::solve`] picks between them from
//! the size of the dirty set; [`RateEngine::invalidate_all`] forces the
//! next solve to be a full one (the reference tests compare against).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Index of a capacity resource (a link direction or a wireless channel).
pub type ResourceId = usize;

/// One active flow's resource usage (up to three distinct resources:
/// sender-side capacity, receiver-side capacity, and an optional sender
/// rate-cap pseudo-resource).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowDemand {
    /// First resource (always present).
    pub r1: ResourceId,
    /// Optional second resource (`None` when both endpoints share one
    /// resource, e.g. a wireless-to-same-channel transfer).
    pub r2: Option<ResourceId>,
    /// Optional third resource — typically a per-sender upload-cap
    /// pseudo-resource, which is how an application-level rate limit
    /// releases real channel capacity to other flows.
    pub r3: Option<ResourceId>,
}

impl FlowDemand {
    /// A flow crossing two distinct resources (deduplicated).
    pub fn new(a: ResourceId, b: ResourceId) -> Self {
        if a == b {
            FlowDemand {
                r1: a,
                r2: None,
                r3: None,
            }
        } else {
            FlowDemand {
                r1: a,
                r2: Some(b),
                r3: None,
            }
        }
    }

    /// A flow using a single resource.
    pub fn single(r: ResourceId) -> Self {
        FlowDemand {
            r1: r,
            r2: None,
            r3: None,
        }
    }

    /// Adds a third (cap) resource, deduplicated against the others.
    pub fn with_cap(mut self, cap: ResourceId) -> Self {
        if cap != self.r1 && Some(cap) != self.r2 {
            self.r3 = Some(cap);
        }
        self
    }

    fn resources(&self) -> impl Iterator<Item = ResourceId> + '_ {
        std::iter::once(self.r1).chain(self.r2).chain(self.r3)
    }

    /// Canonical resource triple (sorted, `usize::MAX` filling the empty
    /// slots): flows with equal keys consume capacity identically and
    /// form one equivalence class for the aggregated solve.
    fn class_key(&self) -> [usize; 3] {
        let mut k = [
            self.r1,
            self.r2.unwrap_or(usize::MAX),
            self.r3.unwrap_or(usize::MAX),
        ];
        k.sort_unstable();
        k
    }
}

/// Computes max-min fair rates (bytes/second) for `flows` over resources
/// with the given `capacities` (bytes/second).
///
/// Resources with non-positive capacity admit no traffic.
///
/// One-shot convenience over [`MaxMinSolver`]; callers on a hot path
/// should hold a solver and call [`MaxMinSolver::solve`] to reuse its
/// scratch buffers.
///
/// # Panics
///
/// Panics when a flow references an out-of-range resource.
pub fn max_min_rates(flows: &[FlowDemand], capacities: &[f64]) -> Vec<f64> {
    let mut rates = Vec::new();
    MaxMinSolver::new().solve(flows, capacities, &mut rates);
    rates
}

/// Reusable progressive-filling solver (the reference oracle).
///
/// All active flows rise together, so instead of bumping every flow's
/// rate each round the solver tracks one shared `level` and stamps it
/// onto a flow when the flow freezes. Freezing walks only the flows on
/// the just-saturated resource (per-resource membership lists built once
/// per solve), and per-resource active-user counts are maintained
/// incrementally — each round costs O(resources touched), and the total
/// freeze work across all rounds is O(flow-resource incidences), not
/// O(rounds × flows) as in the naive rescan.
///
/// Scratch buffers persist across calls so steady-state solves allocate
/// nothing.
#[derive(Debug, Default)]
pub struct MaxMinSolver {
    remaining: Vec<f64>,
    users: Vec<usize>,
    flows_on: Vec<Vec<usize>>,
    /// Resources with at least one active user in the current solve; the
    /// per-resource state of exactly these is cleared on the next call.
    touched: Vec<ResourceId>,
    active: Vec<bool>,
}

impl MaxMinSolver {
    /// A solver with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves the allocation into `rates` (cleared and resized to
    /// `flows.len()`). Semantics are identical to [`max_min_rates`].
    pub fn solve(&mut self, flows: &[FlowDemand], capacities: &[f64], rates: &mut Vec<f64>) {
        let n = flows.len();
        rates.clear();
        rates.resize(n, 0.0);
        if n == 0 {
            return;
        }
        let nr = capacities.len();
        if self.remaining.len() < nr {
            self.remaining.resize(nr, 0.0);
            self.users.resize(nr, 0);
            self.flows_on.resize_with(nr, Vec::new);
        }
        // Reset only what the previous solve dirtied.
        for r in self.touched.drain(..) {
            self.users[r] = 0;
            self.flows_on[r].clear();
        }
        for (rem, &c) in self.remaining.iter_mut().zip(capacities) {
            *rem = c.max(0.0);
        }
        self.active.clear();
        self.active.resize(n, true);

        // Flows on zero-capacity resources never start; the rest are
        // registered on each resource they use. The active count is
        // derived right here — blocked flows bail out of the walk early
        // and are never rescanned.
        let mut n_active = 0usize;
        for (i, f) in flows.iter().enumerate() {
            for r in f.resources() {
                assert!(r < nr, "resource {r} out of range");
                if self.remaining[r] <= 0.0 {
                    self.active[i] = false;
                }
            }
            if !self.active[i] {
                continue;
            }
            n_active += 1;
            for r in f.resources() {
                if self.users[r] == 0 {
                    self.touched.push(r);
                }
                self.users[r] += 1;
                self.flows_on[r].push(i);
            }
        }

        let eps = 1e-9;
        let mut level = 0.0f64;
        while n_active > 0 {
            // The smallest per-flow headroom across used resources.
            let mut delta = f64::INFINITY;
            for &r in &self.touched {
                let u = self.users[r];
                if u > 0 {
                    delta = delta.min(self.remaining[r] / u as f64);
                }
            }
            if !delta.is_finite() || delta <= 0.0 {
                break;
            }
            level += delta;
            for &r in &self.touched {
                let u = self.users[r];
                if u > 0 {
                    self.remaining[r] -= delta * u as f64;
                }
            }
            // Freeze the flows on each (numerically) saturated resource
            // at the current level, releasing their claims elsewhere.
            for ti in 0..self.touched.len() {
                let r = self.touched[ti];
                if self.users[r] == 0 || self.remaining[r] > eps * capacities[r].max(1.0) {
                    continue;
                }
                for fi in 0..self.flows_on[r].len() {
                    let i = self.flows_on[r][fi];
                    if !self.active[i] {
                        continue;
                    }
                    self.active[i] = false;
                    rates[i] = level;
                    n_active -= 1;
                    for rr in flows[i].resources() {
                        self.users[rr] -= 1;
                    }
                }
            }
        }
        // Anything still active when the fill stalls keeps the level it
        // reached (mirrors the rescan implementation's early break).
        if n_active > 0 {
            for (i, a) in self.active.iter().enumerate() {
                if *a {
                    rates[i] = level;
                }
            }
        }
    }
}

/// Cumulative [`RateEngine`] work counters, for the perf trajectory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Solves that re-filled the entire flow population.
    pub full_solves: u64,
    /// Solves restricted to the components dirty resources reach.
    pub incremental_solves: u64,
    /// Aggregated equivalence classes filled (across all solves); the
    /// flow-to-class compression is `flows_touched / class_solves`.
    pub class_solves: u64,
    /// Resources visited by re-solves (dirty-component sweep size).
    pub resources_touched: u64,
    /// Flows whose rate was recomputed by re-solves.
    pub flows_touched: u64,
}

/// `f64` ordered by `total_cmp` so saturation levels can key a heap.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Level(f64);

impl Eq for Level {}

impl PartialOrd for Level {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Level {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Water-filling kernel scratch: per-resource state is initialized lazily
/// via the component's touched list, so a component solve costs only its
/// own incidences no matter how large the engine's resource space is.
#[derive(Debug, Default)]
struct Kernel {
    rem: Vec<f64>,
    /// Fill level at which `rem` was last settled (lazy subtraction).
    upd: Vec<f64>,
    users: Vec<usize>,
    /// Latest finish level pushed for the resource; older heap entries
    /// are stale and skipped on pop.
    cur_finish: Vec<f64>,
    in_comp: Vec<bool>,
    sat: Vec<bool>,
    classes_on: Vec<Vec<u32>>,
    touched: Vec<ResourceId>,
    /// `(class key, flow slot)` sort buffer; equal-key runs are classes.
    members: Vec<([usize; 3], u32)>,
    class_demand: Vec<FlowDemand>,
    class_weight: Vec<usize>,
    class_level: Vec<f64>,
    class_frozen: Vec<bool>,
    heap: BinaryHeap<Reverse<(Level, ResourceId)>>,
}

impl Kernel {
    fn ensure_resources(&mut self, nr: usize) {
        if self.rem.len() < nr {
            self.rem.resize(nr, 0.0);
            self.upd.resize(nr, 0.0);
            self.users.resize(nr, 0);
            self.cur_finish.resize(nr, 0.0);
            self.in_comp.resize(nr, false);
            self.sat.resize(nr, false);
            self.classes_on.resize_with(nr, Vec::new);
        }
    }

    /// Solves one connected component. `flows` lists the component's flow
    /// slots; rates are written through `rates[slot]`. Returns the number
    /// of aggregated classes filled and of resources water-filled.
    fn solve_component(
        &mut self,
        flows: &[u32],
        demands: &[FlowDemand],
        caps: &[f64],
        rates: &mut [f64],
    ) -> (u64, u64) {
        // 1. Cluster into equivalence classes: identical resource sets
        // consume identically, so one weighted representative suffices.
        self.members.clear();
        for &f in flows {
            self.members.push((demands[f as usize].class_key(), f));
        }
        self.members.sort_unstable();
        self.class_demand.clear();
        self.class_weight.clear();
        self.class_level.clear();
        self.class_frozen.clear();
        let mut i = 0;
        while i < self.members.len() {
            let key = self.members[i].0;
            let mut j = i + 1;
            while j < self.members.len() && self.members[j].0 == key {
                j += 1;
            }
            self.class_demand
                .push(demands[self.members[i].1 as usize]);
            self.class_weight.push(j - i);
            self.class_level.push(0.0);
            self.class_frozen.push(false);
            i = j;
        }
        let n_classes = self.class_demand.len();

        // 2. Register active classes; zero-capacity resources block their
        // classes outright (same semantics as the oracle).
        let mut n_active = 0usize;
        for c in 0..n_classes {
            let d = self.class_demand[c];
            let blocked = d.resources().any(|r| caps[r] <= 0.0);
            if blocked {
                self.class_frozen[c] = true;
                continue;
            }
            n_active += 1;
            let w = self.class_weight[c];
            for r in d.resources() {
                if !self.in_comp[r] {
                    self.in_comp[r] = true;
                    self.sat[r] = false;
                    self.rem[r] = caps[r].max(0.0);
                    self.upd[r] = 0.0;
                    self.users[r] = 0;
                    self.touched.push(r);
                }
                self.users[r] += w;
                self.classes_on[r].push(c as u32);
            }
        }

        // 3. Fill in saturation order: the heap keys each resource by the
        // level at which it would saturate if its user count froze now
        // (`finish = level + remaining / users`); freezing a class
        // updates the finish of every resource it releases, and stale
        // entries are skipped on pop.
        self.heap.clear();
        for &r in &self.touched {
            let finish = self.rem[r] / self.users[r] as f64;
            self.cur_finish[r] = finish;
            self.heap.push(Reverse((Level(finish), r)));
        }
        let mut level = 0.0f64;
        while n_active > 0 {
            let Some(Reverse((Level(finish), r))) = self.heap.pop() else {
                break;
            };
            if self.sat[r] || finish.to_bits() != self.cur_finish[r].to_bits() {
                continue;
            }
            if finish > level {
                level = finish;
            }
            self.sat[r] = true;
            for ci in 0..self.classes_on[r].len() {
                let c = self.classes_on[r][ci] as usize;
                if self.class_frozen[c] {
                    continue;
                }
                self.class_frozen[c] = true;
                self.class_level[c] = level;
                n_active -= 1;
                let w = self.class_weight[c];
                for rr in self.class_demand[c].resources() {
                    if self.sat[rr] {
                        continue;
                    }
                    let mut rem = self.rem[rr] - (level - self.upd[rr]) * self.users[rr] as f64;
                    if rem < 0.0 {
                        rem = 0.0;
                    }
                    self.rem[rr] = rem;
                    self.upd[rr] = level;
                    self.users[rr] -= w;
                    if self.users[rr] > 0 {
                        let finish = level + rem / self.users[rr] as f64;
                        self.cur_finish[rr] = finish;
                        self.heap.push(Reverse((Level(finish), rr)));
                    } else {
                        // Nothing left to saturate it: poison the finish
                        // so any queued entry reads as stale.
                        self.cur_finish[rr] = f64::NEG_INFINITY;
                    }
                }
            }
        }
        // Defensive: a drained heap with classes still active cannot
        // happen (every active class keeps a finite finish queued), but
        // mirror the oracle's early-break by stamping the reached level.
        for c in 0..n_classes {
            if !self.class_frozen[c] {
                self.class_level[c] = level;
            }
        }

        // 4. Stamp member rates and reset per-component state.
        i = 0;
        for c in 0..n_classes {
            let w = self.class_weight[c];
            let lv = if self.class_demand[c]
                .resources()
                .any(|r| caps[r] <= 0.0)
            {
                0.0
            } else {
                self.class_level[c]
            };
            for k in i..i + w {
                rates[self.members[k].1 as usize] = lv;
            }
            i += w;
        }
        let n_resources = self.touched.len() as u64;
        for r in self.touched.drain(..) {
            self.in_comp[r] = false;
            self.classes_on[r].clear();
        }
        self.heap.clear();
        (n_classes as u64, n_resources)
    }
}

/// Persistent incremental max-min solver over struct-of-arrays flow
/// slots. See the module docs for the architecture.
///
/// The caller owns slot assignment (the flow world uses
/// `2 · connection-slot + direction`); slots are dense `u32`-sized
/// indices, and all per-flow state lives in parallel arrays.
#[derive(Debug)]
pub struct RateEngine {
    caps: Vec<f64>,
    demands: Vec<FlowDemand>,
    present: Vec<bool>,
    rates: Vec<f64>,
    /// Per-resource incidence: present flow slots using the resource.
    flows_on: Vec<Vec<u32>>,
    dirty: Vec<ResourceId>,
    dirty_flag: Vec<bool>,
    all_dirty: bool,
    n_present: usize,
    stats: SolverStats,
    kernel: Kernel,
    // Component-sweep scratch.
    visit_res: Vec<bool>,
    visit_flow: Vec<bool>,
    res_stack: Vec<ResourceId>,
    comp_flows: Vec<u32>,
    seen_res: Vec<ResourceId>,
    seen_flows: Vec<u32>,
    #[cfg(debug_assertions)]
    verify_rates: Vec<f64>,
}

impl Default for RateEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl RateEngine {
    /// An empty engine.
    pub fn new() -> Self {
        RateEngine {
            caps: Vec::new(),
            demands: Vec::new(),
            present: Vec::new(),
            rates: Vec::new(),
            flows_on: Vec::new(),
            dirty: Vec::new(),
            dirty_flag: Vec::new(),
            all_dirty: true,
            n_present: 0,
            stats: SolverStats::default(),
            kernel: Kernel::default(),
            visit_res: Vec::new(),
            visit_flow: Vec::new(),
            res_stack: Vec::new(),
            comp_flows: Vec::new(),
            seen_res: Vec::new(),
            seen_flows: Vec::new(),
            #[cfg(debug_assertions)]
            verify_rates: Vec::new(),
        }
    }

    /// Work counters so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Grows the resource space to at least `nr` slots (capacity 0).
    pub fn ensure_resources(&mut self, nr: usize) {
        if self.caps.len() < nr {
            self.caps.resize(nr, 0.0);
            self.dirty_flag.resize(nr, false);
            self.flows_on.resize_with(nr, Vec::new);
            self.visit_res.resize(nr, false);
        }
    }

    /// Current capacity of a resource.
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.caps[r]
    }

    /// Sets a resource's capacity, dirtying it when the value changes.
    pub fn set_capacity(&mut self, r: ResourceId, cap: f64) {
        if self.caps[r].to_bits() != cap.to_bits() {
            self.caps[r] = cap;
            self.mark_dirty(r);
        }
    }

    /// Whether a slot currently holds a flow.
    pub fn has_flow(&self, slot: usize) -> bool {
        self.present.get(slot).copied().unwrap_or(false)
    }

    /// The flow's last solved rate (0 for absent or never-solved slots).
    pub fn rate(&self, slot: usize) -> f64 {
        self.rates.get(slot).copied().unwrap_or(0.0)
    }

    /// The demand registered at a slot, if present.
    pub fn demand(&self, slot: usize) -> Option<FlowDemand> {
        if self.has_flow(slot) {
            Some(self.demands[slot])
        } else {
            None
        }
    }

    /// Inserts or replaces the flow at `slot`. A no-op when the slot
    /// already holds an identical demand; otherwise both the old and new
    /// resource sets are dirtied.
    ///
    /// # Panics
    ///
    /// Panics when the demand references a resource slot that does not
    /// exist (grow first via [`RateEngine::ensure_resources`]).
    pub fn upsert_flow(&mut self, slot: usize, d: FlowDemand) {
        if slot >= self.demands.len() {
            let n = slot + 1;
            self.demands.resize(n, FlowDemand::single(0));
            self.present.resize(n, false);
            self.rates.resize(n, 0.0);
            self.visit_flow.resize(n, false);
        }
        if self.present[slot] {
            if self.demands[slot] == d {
                return;
            }
            self.unlink(slot);
        } else {
            self.present[slot] = true;
            self.n_present += 1;
        }
        for r in d.resources() {
            assert!(r < self.caps.len(), "resource {r} out of range");
            self.flows_on[r].push(slot as u32);
            self.mark_dirty(r);
        }
        self.demands[slot] = d;
        // A fresh flow carries no rate until the next solve.
        self.rates[slot] = 0.0;
    }

    /// Removes the flow at `slot` (no-op when absent); its rate drops to
    /// zero immediately and its resources are dirtied.
    pub fn remove_flow(&mut self, slot: usize) {
        if !self.has_flow(slot) {
            return;
        }
        self.unlink(slot);
        self.present[slot] = false;
        self.rates[slot] = 0.0;
        self.n_present -= 1;
    }

    fn unlink(&mut self, slot: usize) {
        let d = self.demands[slot];
        for r in d.resources() {
            let list = &mut self.flows_on[r];
            if let Some(pos) = list.iter().position(|&f| f == slot as u32) {
                list.swap_remove(pos);
            }
            self.mark_dirty(r);
        }
    }

    fn mark_dirty(&mut self, r: ResourceId) {
        if !self.dirty_flag[r] {
            self.dirty_flag[r] = true;
            self.dirty.push(r);
        }
    }

    /// True when inputs changed since the last solve (the next
    /// [`RateEngine::solve`] will do work).
    pub fn is_dirty(&self) -> bool {
        self.all_dirty || !self.dirty.is_empty()
    }

    /// Re-solves what changed. Returns `false` (and counts nothing) when
    /// the problem is clean — the previous allocation is still exact.
    pub fn solve(&mut self) -> bool {
        if !self.is_dirty() {
            return false;
        }
        // Full-solve fallback: first solve, `invalidate_all`, or a dirty
        // set so large the component sweep would cover everything anyway.
        let full = self.all_dirty || self.dirty.len() * 2 >= self.caps.len().max(1);
        if full {
            self.stats.full_solves += 1;
            self.solve_full();
        } else {
            self.stats.incremental_solves += 1;
            self.solve_incremental();
            #[cfg(debug_assertions)]
            self.verify_incremental();
        }
        for r in self.dirty.drain(..) {
            self.dirty_flag[r] = false;
        }
        self.all_dirty = false;
        true
    }

    fn solve_full(&mut self) {
        let mut stamped = std::mem::take(&mut self.seen_flows);
        stamped.clear();
        for slot in 0..self.demands.len() {
            if self.present[slot] && !self.visit_flow[slot] {
                self.collect_component_from_flow(slot as u32);
                self.run_component();
            }
            if self.present[slot] {
                stamped.push(slot as u32);
            }
        }
        for f in stamped.drain(..) {
            self.visit_flow[f as usize] = false;
        }
        for r in self.seen_res.drain(..) {
            self.visit_res[r] = false;
        }
        self.seen_flows = stamped;
    }

    fn solve_incremental(&mut self) {
        // The dirty list is borrowed out and restored *unclipped*: the
        // caller drains it to reset the per-resource dirty flags.
        let dirty = std::mem::take(&mut self.dirty);
        for &r in &dirty {
            if self.visit_res[r] {
                continue;
            }
            self.visit_res[r] = true;
            self.seen_res.push(r);
            self.res_stack.push(r);
            self.collect_reachable();
            self.run_component();
        }
        self.dirty = dirty;
        for f in self.seen_flows.drain(..) {
            self.visit_flow[f as usize] = false;
        }
        for r in self.seen_res.drain(..) {
            self.visit_res[r] = false;
        }
    }

    /// Seeds the sweep from one flow (full solve).
    fn collect_component_from_flow(&mut self, f: u32) {
        self.visit_flow[f as usize] = true;
        self.comp_flows.push(f);
        for r in self.demands[f as usize].resources() {
            if !self.visit_res[r] {
                self.visit_res[r] = true;
                self.seen_res.push(r);
                self.res_stack.push(r);
            }
        }
        self.collect_reachable();
    }

    /// Drains the resource stack, collecting every reachable flow of the
    /// component into `comp_flows`.
    fn collect_reachable(&mut self) {
        while let Some(r) = self.res_stack.pop() {
            for fi in 0..self.flows_on[r].len() {
                let f = self.flows_on[r][fi];
                if self.visit_flow[f as usize] {
                    continue;
                }
                self.visit_flow[f as usize] = true;
                self.comp_flows.push(f);
                for rr in self.demands[f as usize].resources() {
                    if !self.visit_res[rr] {
                        self.visit_res[rr] = true;
                        self.seen_res.push(rr);
                        self.res_stack.push(rr);
                    }
                }
            }
        }
    }

    /// Runs the kernel over the flows collected in `comp_flows`. In a
    /// full solve `seen_flows` doubles as the visited-cleanup list, so
    /// component flows are appended there too by the caller's stamping.
    fn run_component(&mut self) {
        if self.comp_flows.is_empty() {
            return;
        }
        self.kernel.ensure_resources(self.caps.len());
        let (classes, resources) = self.kernel.solve_component(
            &self.comp_flows,
            &self.demands,
            &self.caps,
            &mut self.rates,
        );
        self.stats.class_solves += classes;
        self.stats.resources_touched += resources;
        self.stats.flows_touched += self.comp_flows.len() as u64;
        // Flows were marked visited as they were collected; remember
        // them for cleanup (incremental path — the full path tracks all
        // present flows itself, dedup is harmless).
        for &f in &self.comp_flows {
            self.seen_flows.push(f);
        }
        self.comp_flows.clear();
    }

    /// Debug-mode ground truth: an incremental solve must leave exactly
    /// the rates a from-scratch full solve of the same population
    /// produces, bit for bit.
    #[cfg(debug_assertions)]
    fn verify_incremental(&mut self) {
        let mut fresh = std::mem::take(&mut self.verify_rates);
        fresh.clear();
        fresh.resize(self.rates.len(), 0.0);
        let saved_stats = self.stats;
        std::mem::swap(&mut self.rates, &mut fresh);
        self.solve_full();
        std::mem::swap(&mut self.rates, &mut fresh);
        self.stats = saved_stats;
        for (slot, &want) in fresh.iter().enumerate().take(self.demands.len()) {
            if self.present[slot] {
                assert!(
                    self.rates[slot].to_bits() == want.to_bits(),
                    "incremental solve diverged from full solve at slot {slot}: \
                     {} != {want}",
                    self.rates[slot],
                );
            }
        }
        self.verify_rates = fresh;
    }

    /// Marks everything dirty: the next solve re-fills the whole
    /// population (used at world start and by tests).
    pub fn invalidate_all(&mut self) {
        self.all_dirty = true;
    }

    /// Serializes the engine's persistent allocation state.
    ///
    /// The kernel and component-sweep scratch are empty between solves
    /// and are rebuilt by [`RateEngine::restore_state`]. `flows_on` is
    /// serialized verbatim (not rebuilt from the demands) because its
    /// intra-list order is perturbed by `swap_remove` on unlink, and a
    /// later `save` of the restored engine must be byte-identical to a
    /// save of the straight-run one.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.section("rate_engine");
        self.save_fields(w);
    }

    /// Restores state captured by [`RateEngine::save_state`], keeping
    /// the live engine's `mode` and re-sizing scratch to match.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) {
        r.section("rate_engine");
        self.restore_fields(r);
        self.kernel = Kernel::default();
        self.kernel.ensure_resources(self.caps.len());
        self.visit_res.clear();
        self.visit_res.resize(self.caps.len(), false);
        self.visit_flow.clear();
        self.visit_flow.resize(self.demands.len(), false);
        self.res_stack.clear();
        self.comp_flows.clear();
        self.seen_res.clear();
        self.seen_flows.clear();
        #[cfg(debug_assertions)]
        self.verify_rates.clear();
    }

    snap_in_place!(fn save_fields / restore_fields {
        caps,
        demands,
        present,
        rates,
        flows_on,
        dirty,
        dirty_flag,
        all_dirty,
        n_present,
        stats,
    });
}

use simnet::snapshot::{snap_in_place, snap_struct, SnapReader, SnapWriter};

snap_struct!(FlowDemand {
    r1,
    r2,
    r3,
});

snap_struct!(SolverStats {
    full_solves,
    incremental_solves,
    class_solves,
    resources_touched,
    flows_touched,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6 * b.abs().max(1.0)
    }

    #[test]
    fn single_flow_gets_bottleneck() {
        // Flow crosses a 100 and a 40 resource: gets 40.
        let rates = max_min_rates(&[FlowDemand::new(0, 1)], &[100.0, 40.0]);
        assert!(close(rates[0], 40.0));
    }

    #[test]
    fn equal_sharing_of_one_resource() {
        let flows = vec![FlowDemand::single(0); 4];
        let rates = max_min_rates(&flows, &[100.0]);
        for r in rates {
            assert!(close(r, 25.0));
        }
    }

    #[test]
    fn classic_max_min_example() {
        // Resource 0 cap 10 shared by flows A,B; resource 1 cap 100 used
        // by B and C. A=5, B=5, C=95.
        let flows = vec![
            FlowDemand::single(0),
            FlowDemand::new(0, 1),
            FlowDemand::single(1),
        ];
        let rates = max_min_rates(&flows, &[10.0, 100.0]);
        assert!(close(rates[0], 5.0), "A={}", rates[0]);
        assert!(close(rates[1], 5.0), "B={}", rates[1]);
        assert!(close(rates[2], 95.0), "C={}", rates[2]);
    }

    #[test]
    fn wireless_self_contention() {
        // One wireless channel (resource 0): an upload and a download both
        // use it and split the capacity — the paper's §3.3 effect.
        let flows = vec![FlowDemand::single(0), FlowDemand::single(0)];
        let rates = max_min_rates(&flows, &[200.0]);
        assert!(close(rates[0], 100.0));
        assert!(close(rates[1], 100.0));
    }

    #[test]
    fn zero_capacity_blocks_flow() {
        let flows = vec![FlowDemand::new(0, 1), FlowDemand::single(1)];
        let rates = max_min_rates(&flows, &[0.0, 50.0]);
        assert_eq!(rates[0], 0.0);
        assert!(close(rates[1], 50.0));
    }

    #[test]
    fn conservation_per_resource() {
        // Random-ish mix: total through each resource never exceeds cap.
        let flows = vec![
            FlowDemand::new(0, 1),
            FlowDemand::new(0, 2),
            FlowDemand::new(1, 2),
            FlowDemand::single(2),
            FlowDemand::new(0, 1),
        ];
        let caps = [30.0, 20.0, 25.0];
        let rates = max_min_rates(&flows, &caps);
        let mut used = [0.0f64; 3];
        for (f, r) in flows.iter().zip(&rates) {
            for res in [Some(f.r1), f.r2, f.r3].into_iter().flatten() {
                used[res] += r;
            }
        }
        for (u, c) in used.iter().zip(&caps) {
            assert!(*u <= c + 1e-6, "used {u} of {c}");
        }
        // Work conservation: at least one resource is (nearly) full.
        assert!(used
            .iter()
            .zip(&caps)
            .any(|(u, c)| (c - u).abs() < 1e-6 * c));
    }

    #[test]
    fn empty_input() {
        assert!(max_min_rates(&[], &[10.0]).is_empty());
    }

    #[test]
    fn solver_reuse_matches_one_shot() {
        // A persistent solver must give the same answers as fresh calls
        // even when consecutive problems change shape (more resources,
        // fewer flows, zero-cap resources appearing).
        let problems: Vec<(Vec<FlowDemand>, Vec<f64>)> = vec![
            (
                vec![
                    FlowDemand::single(0),
                    FlowDemand::new(0, 1),
                    FlowDemand::single(1),
                ],
                vec![10.0, 100.0],
            ),
            (
                vec![
                    FlowDemand::new(0, 3).with_cap(4),
                    FlowDemand::new(1, 2),
                    FlowDemand::single(2),
                ],
                vec![30.0, 20.0, 25.0, 40.0, 7.5],
            ),
            (vec![FlowDemand::new(0, 1)], vec![0.0, 50.0]),
            (vec![], vec![10.0]),
            (vec![FlowDemand::single(0); 4], vec![100.0]),
        ];
        let mut solver = MaxMinSolver::new();
        let mut out = Vec::new();
        for (flows, caps) in &problems {
            solver.solve(flows, caps, &mut out);
            assert_eq!(out, max_min_rates(flows, caps), "flows={flows:?}");
        }
    }

    #[test]
    fn same_resource_twice_counts_once() {
        // FlowDemand::new dedupes; a self-loop on a wireless channel
        // consumes its share once per direction entry, not twice.
        let d = FlowDemand::new(3, 3);
        assert_eq!(d.r2, None);
    }

    // ------------------------------------------------------------------
    // RateEngine
    // ------------------------------------------------------------------

    /// Loads a static problem into a fresh engine.
    fn engine_with(flows: &[FlowDemand], caps: &[f64]) -> RateEngine {
        let mut e = RateEngine::new();
        e.ensure_resources(caps.len());
        for (r, &c) in caps.iter().enumerate() {
            e.set_capacity(r, c);
        }
        for (i, &d) in flows.iter().enumerate() {
            e.upsert_flow(i, d);
        }
        e
    }

    fn assert_close_to_oracle(e: &RateEngine, flows: &[FlowDemand], caps: &[f64]) {
        let oracle = max_min_rates(flows, caps);
        for (i, want) in oracle.iter().enumerate() {
            assert!(
                close(e.rate(i), *want),
                "flow {i}: engine {} vs oracle {want}",
                e.rate(i)
            );
        }
    }

    #[test]
    fn engine_matches_oracle_on_static_problems() {
        let problems: Vec<(Vec<FlowDemand>, Vec<f64>)> = vec![
            (
                vec![
                    FlowDemand::single(0),
                    FlowDemand::new(0, 1),
                    FlowDemand::single(1),
                ],
                vec![10.0, 100.0],
            ),
            (vec![FlowDemand::single(0); 4], vec![100.0]),
            (vec![FlowDemand::new(0, 1), FlowDemand::single(1)], vec![0.0, 50.0]),
            (
                vec![
                    FlowDemand::new(0, 3).with_cap(4),
                    FlowDemand::new(1, 2),
                    FlowDemand::single(2),
                ],
                vec![30.0, 20.0, 25.0, 40.0, 7.5],
            ),
            // Two disjoint components.
            (
                vec![FlowDemand::new(0, 1), FlowDemand::new(2, 3)],
                vec![10.0, 20.0, 5.0, 100.0],
            ),
        ];
        for (flows, caps) in &problems {
            let mut e = engine_with(flows, caps);
            assert!(e.solve(), "dirty engine must solve");
            assert_close_to_oracle(&e, flows, caps);
        }
    }

    #[test]
    fn clean_engine_skips() {
        let flows = [FlowDemand::single(0), FlowDemand::single(0)];
        let mut e = engine_with(&flows, &[100.0]);
        assert!(e.solve());
        assert!(!e.solve(), "clean problem must skip");
        assert_eq!(e.stats().full_solves, 1);
        // Re-registering an identical demand stays clean.
        e.upsert_flow(0, FlowDemand::single(0));
        assert!(!e.is_dirty());
    }

    #[test]
    fn incremental_touches_only_the_dirty_component() {
        // Components {0,1} and {2,3}; dirtying component B must leave
        // component A's work counters untouched.
        let flows = [FlowDemand::new(0, 1), FlowDemand::new(2, 3)];
        let caps = [10.0, 20.0, 5.0, 100.0];
        let mut e = engine_with(&flows, &caps);
        assert!(e.solve());
        let before = e.stats();
        e.set_capacity(2, 7.0);
        assert!(e.solve());
        let after = e.stats();
        assert_eq!(after.incremental_solves, before.incremental_solves + 1);
        assert_eq!(
            after.flows_touched,
            before.flows_touched + 1,
            "only the one flow in the dirty component re-solves"
        );
        assert!(close(e.rate(1), 7.0));
        assert!(close(e.rate(0), 10.0), "spliced rate survives");
    }

    #[test]
    fn incremental_matches_full_bitwise_under_churn() {
        // Drive two engines (incremental vs `invalidate_all` before
        // every solve) through a randomized demand/capacity/churn
        // sequence: rates must stay byte-identical at every step. (Debug
        // builds additionally self-verify inside the incremental engine.)
        let mut rng = simnet::rng::SimRng::new(0xFA57);
        let nr = 24usize;
        let mut inc = RateEngine::new();
        let mut full = RateEngine::new();
        for e in [&mut inc, &mut full] {
            e.ensure_resources(nr);
            for r in 0..nr {
                e.set_capacity(r, 50.0);
            }
        }
        let nslots = 64usize;
        for step in 0..400 {
            let op = rng.range(0..100u32);
            if op < 45 {
                let slot = rng.range(0..nslots);
                let a = rng.range(0..nr);
                let b = rng.range(0..nr);
                let mut d = FlowDemand::new(a, b);
                if rng.chance(0.3) {
                    d = d.with_cap(rng.range(0..nr));
                }
                inc.upsert_flow(slot, d);
                full.upsert_flow(slot, d);
            } else if op < 70 {
                let slot = rng.range(0..nslots);
                inc.remove_flow(slot);
                full.remove_flow(slot);
            } else if op < 90 {
                let r = rng.range(0..nr);
                // Occasionally drop a resource to zero capacity.
                let c = if rng.chance(0.15) {
                    0.0
                } else {
                    rng.range(1..200u32) as f64
                };
                inc.set_capacity(r, c);
                full.set_capacity(r, c);
            } else {
                // All-dirty shock.
                inc.invalidate_all();
                full.invalidate_all();
            }
            inc.solve();
            if full.is_dirty() {
                full.invalidate_all();
            }
            full.solve();
            for slot in 0..nslots {
                assert_eq!(
                    inc.rate(slot).to_bits(),
                    full.rate(slot).to_bits(),
                    "step {step} slot {slot}: incremental {} vs full {}",
                    inc.rate(slot),
                    full.rate(slot)
                );
            }
        }
        assert!(inc.stats().incremental_solves > 0, "never took the fast path");
        assert!(full.stats().incremental_solves == 0, "reference must not");
    }

    #[test]
    fn class_aggregation_compresses_symmetric_flows() {
        // 16 identical flows through one pipe: one class, one level.
        let flows = vec![FlowDemand::new(0, 1); 16];
        let mut e = engine_with(&flows, &[80.0, 800.0]);
        assert!(e.solve());
        for i in 0..16 {
            assert!(close(e.rate(i), 5.0), "flow {i} = {}", e.rate(i));
        }
        assert_eq!(e.stats().class_solves, 1, "16 flows, one class");
        assert_eq!(e.stats().flows_touched, 16);
    }

    #[test]
    fn removal_zeroes_rate_immediately() {
        let flows = [FlowDemand::single(0), FlowDemand::single(0)];
        let mut e = engine_with(&flows, &[100.0]);
        e.solve();
        assert!(close(e.rate(0), 50.0));
        e.remove_flow(0);
        assert_eq!(e.rate(0), 0.0, "removed flow is rateless pre-solve");
        assert!(e.solve());
        assert!(close(e.rate(1), 100.0), "survivor inherits the pipe");
    }

    #[test]
    fn zero_capacity_engine_blocks_flow_and_unblocks() {
        let flows = [FlowDemand::new(0, 1), FlowDemand::single(1)];
        let mut e = engine_with(&flows, &[0.0, 50.0]);
        e.solve();
        assert_eq!(e.rate(0), 0.0);
        assert!(close(e.rate(1), 50.0));
        e.set_capacity(0, 30.0);
        e.solve();
        assert!(close(e.rate(0), 25.0));
        assert!(close(e.rate(1), 25.0));
    }
}
