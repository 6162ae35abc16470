//! Generic, cancellable event queue backed by a hierarchical timer wheel.
//!
//! Events are ordered by `(time, sequence)`. The sequence number is a
//! monotone counter assigned at scheduling time, so two events scheduled
//! for the same instant fire in scheduling order — the property that
//! makes whole-simulation runs deterministic.
//!
//! The wheel sits over slab storage: `O(1)` schedule, `O(1)` *eager*
//! cancellation (the entry is unlinked immediately; no tombstone
//! outlives the operation), and amortised `O(1)` pop via cascading. Six
//! levels of 64 slots cover ~19 virtual hours at 1 µs resolution;
//! farther timers wait in an overflow list.
//!
//! Tokens are generation-checked: cancelling an already-fired or
//! already-cancelled token is detected exactly (a counted no-op).
//!
//! The binary heap the wheel replaced survives only as the `#[cfg(test)]`
//! reference the differential tests below compare pop order against.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Handle identifying a scheduled event, used to cancel it.
///
/// Tokens are unique over the life of a queue: once the event fires or is
/// cancelled, the token is dead and later [`EventQueue::cancel`] calls
/// with it are detected no-ops (the token embeds the slab generation it
/// was minted with).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EventToken(u64);

/// Point-in-time counters for queue instrumentation (depth gauges and
/// cancellation rates in the scale experiment).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct QueueStats {
    /// Live (scheduled, not yet fired or cancelled) events right now.
    pub live: usize,
    /// High-water mark of `live` over the queue's lifetime.
    pub max_live: usize,
    /// Total events ever scheduled.
    pub scheduled: u64,
    /// Cancellations that removed a live event.
    pub cancelled: u64,
    /// Cancellations of already-fired/already-cancelled tokens (no-ops).
    pub cancel_noops: u64,
}

// ---------------------------------------------------------------------------
// Wheel implementation
// ---------------------------------------------------------------------------

const LEVEL_BITS: u32 = 6;
const SLOTS: usize = 1 << LEVEL_BITS;
const LEVELS: usize = 6;
/// Times at least this far (in µs) past the wheel origin go to overflow.
const HORIZON: u64 = 1 << (LEVEL_BITS * LEVELS as u32);
const NIL: u32 = u32::MAX;

/// Where a slab entry currently lives (needed to unlink it on cancel).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Loc {
    /// On the free list.
    Free,
    /// Linked into `levels[level][slot]`.
    Slot { level: u8, slot: u8 },
    /// Linked into the overflow list (beyond the wheel horizon).
    Overflow,
    /// In the due batch awaiting pop.
    Batch,
    /// Cancelled while in the batch; slab slot is held (so the batch's
    /// index stays valid) and reclaimed when the batch reaches it.
    Dead,
}

struct Entry<E> {
    /// Scheduled fire time in µs (the time reported on pop).
    time: u64,
    /// Scheduling order, the tie-break within one instant.
    seq: u64,
    /// Bumped every time the slab slot is freed; tokens embed the value
    /// they were minted with, so stale tokens never touch a reused slot.
    gen: u32,
    prev: u32,
    next: u32,
    loc: Loc,
    event: Option<E>,
}

/// Hierarchical timer wheel. Level `l` buckets time at `64^l` µs; an
/// event goes to the lowest level whose current window contains its fire
/// time (`level = floor(log64(t XOR cur))`). Popping drains the earliest
/// due level-0 slot into a `(time, seq)`-sorted batch; when level 0 is
/// exhausted the earliest occupied higher-level slot cascades down, and
/// when the whole wheel is empty the origin jumps to the overflow list.
struct WheelQueue<E> {
    entries: Vec<Entry<E>>,
    free_head: u32,
    /// List heads per slot.
    levels: [[u32; SLOTS]; LEVELS],
    /// One bit per slot: does the slot have entries?
    occupied: [u64; LEVELS],
    overflow_head: u32,
    /// Wheel origin in µs: the base every slot index is relative to.
    /// Advances monotonically as slots drain; all slot/overflow entries
    /// satisfy `time > cur`, batch entries `time <= cur`.
    cur: u64,
    /// Due events in pop order.
    batch: VecDeque<u32>,
    next_seq: u64,
}

impl<E> WheelQueue<E> {
    fn new() -> Self {
        WheelQueue {
            entries: Vec::new(),
            free_head: NIL,
            levels: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            overflow_head: NIL,
            cur: 0,
            batch: VecDeque::new(),
            next_seq: 0,
        }
    }

    fn alloc(&mut self, time: u64, seq: u64, event: E) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let e = &mut self.entries[idx as usize];
            self.free_head = e.next;
            e.time = time;
            e.seq = seq;
            e.prev = NIL;
            e.next = NIL;
            e.event = Some(event);
            idx
        } else {
            let idx = u32::try_from(self.entries.len()).expect("slab indices fit u32");
            self.entries.push(Entry {
                time,
                seq,
                gen: 0,
                prev: NIL,
                next: NIL,
                loc: Loc::Free,
                event: None,
            });
            self.entries[idx as usize].event = Some(event);
            idx
        }
    }

    /// Returns the slab slot to the free list, bumping the generation so
    /// outstanding tokens for it go stale.
    fn free(&mut self, idx: u32) {
        let e = &mut self.entries[idx as usize];
        debug_assert!(e.loc != Loc::Free);
        e.gen = e.gen.wrapping_add(1);
        e.loc = Loc::Free;
        e.event = None;
        e.prev = NIL;
        e.next = self.free_head;
        self.free_head = idx;
    }

    fn token(&self, idx: u32) -> EventToken {
        EventToken((u64::from(self.entries[idx as usize].gen) << 32) | u64::from(idx))
    }

    /// Links `idx` into the wheel (or overflow) relative to `self.cur`.
    /// Caller guarantees `entries[idx].time > self.cur`.
    fn link(&mut self, idx: u32) {
        let t = self.entries[idx as usize].time;
        debug_assert!(t > self.cur);
        let diff = t ^ self.cur;
        let level = ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize;
        if level >= LEVELS {
            let head = self.overflow_head;
            self.entries[idx as usize].prev = NIL;
            self.entries[idx as usize].next = head;
            self.entries[idx as usize].loc = Loc::Overflow;
            if head != NIL {
                self.entries[head as usize].prev = idx;
            }
            self.overflow_head = idx;
        } else {
            let slot = ((t >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            let head = self.levels[level][slot];
            self.entries[idx as usize].prev = NIL;
            self.entries[idx as usize].next = head;
            self.entries[idx as usize].loc = Loc::Slot {
                level: level as u8,
                slot: slot as u8,
            };
            if head != NIL {
                self.entries[head as usize].prev = idx;
            }
            self.levels[level][slot] = idx;
            self.occupied[level] |= 1u64 << slot;
        }
    }

    /// Unlinks `idx` from the slot/overflow list it lives in.
    fn unlink(&mut self, idx: u32) {
        let (prev, next, loc) = {
            let e = &self.entries[idx as usize];
            (e.prev, e.next, e.loc)
        };
        if next != NIL {
            self.entries[next as usize].prev = prev;
        }
        if prev != NIL {
            self.entries[prev as usize].next = next;
        } else {
            match loc {
                Loc::Slot { level, slot } => {
                    self.levels[level as usize][slot as usize] = next;
                    if next == NIL {
                        self.occupied[level as usize] &= !(1u64 << slot);
                    }
                }
                Loc::Overflow => self.overflow_head = next,
                _ => unreachable!("unlink of unlinked entry"),
            }
        }
    }

    fn schedule_at(&mut self, time: SimTime, event: E) -> EventToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.alloc(time.as_micros(), seq, event);
        self.insert(idx);
        self.token(idx)
    }

    /// Places `idx` where it belongs relative to the origin: due entries
    /// (`time <= cur`) go straight into the batch at their `(time, seq)`
    /// rank — exactly where the heap would pop them — the rest onto the
    /// wheel or overflow.
    fn insert(&mut self, idx: u32) {
        let e = &self.entries[idx as usize];
        if e.time <= self.cur {
            let key = (e.time, e.seq);
            let pos = self
                .batch
                .binary_search_by(|&i| {
                    let e = &self.entries[i as usize];
                    (e.time, e.seq).cmp(&key)
                })
                .unwrap_err();
            self.entries[idx as usize].loc = Loc::Batch;
            self.batch.insert(pos, idx);
        } else {
            self.link(idx);
        }
    }

    fn cancel(&mut self, token: EventToken) -> bool {
        let idx = (token.0 & u64::from(u32::MAX)) as u32;
        let gen = (token.0 >> 32) as u32;
        let Some(e) = self.entries.get(idx as usize) else {
            return false;
        };
        if e.gen != gen {
            return false;
        }
        match e.loc {
            Loc::Free | Loc::Dead => false,
            Loc::Slot { .. } | Loc::Overflow => {
                self.unlink(idx);
                self.free(idx);
                true
            }
            Loc::Batch => {
                // The batch is indexed by position; keep the slab slot
                // alive (and its sort key intact) until the batch passes.
                let e = &mut self.entries[idx as usize];
                e.event = None;
                e.loc = Loc::Dead;
                true
            }
        }
    }

    /// Drops cancelled entries off the batch front.
    fn prune_batch(&mut self) {
        while let Some(&idx) = self.batch.front() {
            if self.entries[idx as usize].loc == Loc::Dead {
                self.batch.pop_front();
                self.free(idx);
            } else {
                return;
            }
        }
    }

    /// Refills the batch from the wheel. Returns false when no live
    /// events remain anywhere.
    fn advance(&mut self) -> bool {
        loop {
            self.prune_batch();
            if !self.batch.is_empty() {
                return true;
            }
            // Level 0: drain the earliest due slot of the current window.
            let s0 = (self.cur & (SLOTS as u64 - 1)) as u32;
            let m = self.occupied[0] & (!0u64 << s0);
            debug_assert_eq!(self.occupied[0] & !(!0u64 << s0), 0, "stale level-0 slots");
            if m != 0 {
                let s = u64::from(m.trailing_zeros());
                self.cur = (self.cur & !(SLOTS as u64 - 1)) | s;
                self.drain_slot_to_batch(s as usize);
                continue;
            }
            // Higher levels: cascade the earliest occupied slot down.
            if let Some((level, slot)) = self.earliest_high_slot() {
                let span = LEVEL_BITS * (level as u32 + 1);
                let next = (self.cur & !((1u64 << span) - 1))
                    | ((slot as u64) << (LEVEL_BITS * level as u32));
                debug_assert!(next >= self.cur, "wheel origin went backwards");
                self.cur = next;
                self.cascade_slot(level, slot);
                continue;
            }
            // Wheel empty: jump the origin to the overflow horizon.
            if self.overflow_head != NIL {
                let mut min_t = u64::MAX;
                let mut i = self.overflow_head;
                while i != NIL {
                    min_t = min_t.min(self.entries[i as usize].time);
                    i = self.entries[i as usize].next;
                }
                let next = min_t & !(HORIZON - 1);
                debug_assert!(next > self.cur);
                self.cur = next;
                // Re-admit everything now inside the horizon.
                let mut i = self.overflow_head;
                while i != NIL {
                    let step = self.entries[i as usize].next;
                    if (self.entries[i as usize].time ^ self.cur) < HORIZON {
                        self.unlink(i);
                        self.insert(i);
                    }
                    i = step;
                }
                continue;
            }
            return false;
        }
    }

    /// Earliest occupied `(level, slot)` at or after the origin's index,
    /// scanning levels bottom-up (lower level = finer, earlier window).
    fn earliest_high_slot(&self) -> Option<(usize, usize)> {
        for level in 1..LEVELS {
            let sl = ((self.cur >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as u32;
            let m = self.occupied[level] & (!0u64 << sl);
            debug_assert_eq!(self.occupied[level] & !(!0u64 << sl), 0, "stale slots");
            if m != 0 {
                return Some((level, m.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Moves every entry of level-0 slot `s` into the batch, restoring
    /// `(time, seq)` pop order (entries may differ in seq, and past-time
    /// entries clamped here keep their original time for the sort).
    fn drain_slot_to_batch(&mut self, s: usize) {
        debug_assert!(self.batch.is_empty());
        let mut i = self.levels[0][s];
        self.levels[0][s] = NIL;
        self.occupied[0] &= !(1u64 << s);
        while i != NIL {
            let next = self.entries[i as usize].next;
            self.entries[i as usize].loc = Loc::Batch;
            self.batch.push_back(i);
            i = next;
        }
        let entries = &self.entries;
        self.batch.make_contiguous().sort_by_key(|&i| {
            let e = &entries[i as usize];
            (e.time, e.seq)
        });
    }

    /// Re-inserts every entry of `levels[level][slot]` relative to the
    /// (just advanced) origin; each lands at a lower level or the batch.
    fn cascade_slot(&mut self, level: usize, slot: usize) {
        let mut i = self.levels[level][slot];
        self.levels[level][slot] = NIL;
        self.occupied[level] &= !(1u64 << slot);
        while i != NIL {
            let next = self.entries[i as usize].next;
            self.insert(i);
            i = next;
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.advance() {
            return None;
        }
        let idx = self.batch.pop_front().expect("advance filled the batch");
        let e = &mut self.entries[idx as usize];
        let time = SimTime::from_micros(e.time);
        let event = e.event.take().expect("batch front is live");
        self.free(idx);
        Some((time, event))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        if !self.advance() {
            return None;
        }
        let idx = *self.batch.front().expect("advance filled the batch");
        Some(SimTime::from_micros(self.entries[idx as usize].time))
    }
}

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

/// A priority queue of timestamped events.
///
/// ```
/// use simnet::event::EventQueue;
/// use simnet::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule_at(SimTime::from_secs(2), "late");
/// let tok = q.schedule_at(SimTime::from_secs(1), "early");
/// q.cancel(tok);
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    wheel: WheelQueue<E>,
    live: usize,
    max_live: usize,
    scheduled_total: u64,
    cancelled_total: u64,
    cancel_noops: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: WheelQueue::new(),
            live: 0,
            max_live: 0,
            scheduled_total: 0,
            cancelled_total: 0,
            cancel_noops: 0,
        }
    }

    /// Schedules `event` to fire at `time` and returns a cancellation token.
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventToken {
        self.scheduled_total += 1;
        self.live += 1;
        self.max_live = self.max_live.max(self.live);
        self.wheel.schedule_at(time, event)
    }

    /// Cancels a previously scheduled event; returns whether a live event
    /// was removed. Cancelling an already-fired or already-cancelled
    /// token is a no-op (`false`), detected via the token's generation —
    /// it leaves no residue in the queue.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let hit = self.wheel.cancel(token);
        if hit {
            self.cancelled_total += 1;
            self.live -= 1;
        } else {
            self.cancel_noops += 1;
        }
        hit
    }

    /// Removes and returns the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let out = self.wheel.pop();
        if out.is_some() {
            self.live -= 1;
        }
        out
    }

    /// The timestamp of the earliest live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    /// Number of live (scheduled, not yet fired or cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain. Exact (`len() == 0 ⇔ is_empty()`)
    /// under any interleaving of scheduling, peeking and cancellation.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total number of events ever scheduled (for instrumentation).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Instrumentation snapshot: depth, high-water depth, schedule and
    /// cancellation totals.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            live: self.live,
            max_live: self.max_live,
            scheduled: self.scheduled_total,
            cancelled: self.cancelled_total,
            cancel_noops: self.cancel_noops,
        }
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.live)
            .field("scheduled", &self.scheduled_total)
            .field("cancelled", &self.cancelled_total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashSet};

    struct Scheduled<E> {
        time: SimTime,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<E> Eq for Scheduled<E> {}
    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap and we want the earliest event
            // (breaking ties by scheduling order) on top.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The reference scheduler the wheel is checked against: binary heap +
    /// validated tombstones. A token is the event's sequence number;
    /// `pending` holds exactly the live ones, so `cancel` can reject dead
    /// tokens instead of leaking a tombstone.
    struct HeapQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        pending: HashSet<u64>,
        cancelled: HashSet<u64>,
        next_seq: u64,
    }

    impl<E> HeapQueue<E> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                pending: HashSet::new(),
                cancelled: HashSet::new(),
                next_seq: 0,
            }
        }

        fn schedule_at(&mut self, time: SimTime, event: E) -> EventToken {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.insert(seq);
            self.heap.push(Scheduled { time, seq, event });
            EventToken(seq)
        }

        fn cancel(&mut self, token: EventToken) -> bool {
            // Only a live token becomes a tombstone; a dead one is a no-op, so
            // tombstones can never outnumber (or outlive) heap entries.
            if self.pending.remove(&token.0) {
                self.cancelled.insert(token.0);
                true
            } else {
                false
            }
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            while let Some(s) = self.heap.pop() {
                if self.cancelled.remove(&s.seq) {
                    continue;
                }
                self.pending.remove(&s.seq);
                return Some((s.time, s.event));
            }
            debug_assert!(self.cancelled.is_empty() && self.pending.is_empty());
            None
        }

        fn peek_time(&mut self) -> Option<SimTime> {
            // Drop tombstoned heads so the reported time is a live event's.
            while let Some(s) = self.heap.peek() {
                if self.cancelled.contains(&s.seq) {
                    let s = self.heap.pop().expect("peeked entry exists");
                    self.cancelled.remove(&s.seq);
                    continue;
                }
                return Some(s.time);
            }
            None
        }

        fn len(&self) -> usize {
            self.pending.len()
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), 3);
        q.schedule_at(SimTime::from_secs(1), 1);
        q.schedule_at(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
    }

    #[test]
    fn cancel_after_fire_is_validated_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), "a");
        assert!(q.pop().is_some());
        // Regression: this used to plant a tombstone that made len()
        // under-report until the queue drained.
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        q.schedule_at(SimTime::from_secs(2), "b");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.stats().cancel_noops, 1);
        assert_eq!(q.stats().cancelled, 0);
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), "a");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_time_skips_tombstones() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(5), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_and_is_empty_agree_under_interleaving() {
        // Satellite regression: interleaved peek/cancel used to leave
        // len() and is_empty() inconsistent.
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), 1);
        let b = q.schedule_at(SimTime::from_secs(2), 2);
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        q.cancel(b);
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn wheel_far_future_overflow_cascades() {
        // Beyond the 6-level horizon (~19 h) events park in overflow and
        // still pop in global order.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(60 * 60 * 50), "far");
        q.schedule_at(SimTime::from_secs(1), "near");
        q.schedule_at(SimTime::from_secs(60 * 60 * 30), "mid");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "near")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(60 * 60 * 30), "mid")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(60 * 60 * 50), "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wheel_token_generations_survive_slot_reuse() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_secs(1), "a");
        assert!(q.cancel(a));
        // The freed slab slot is reused for b; a's stale token must not
        // touch it.
        let b = q.schedule_at(SimTime::from_secs(2), "b");
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert!(!q.cancel(b));
        assert_eq!(q.stats().cancel_noops, 2);
    }

    #[test]
    fn schedule_at_pop_frontier_matches_heap() {
        // After popping at t, scheduling again at t must fire before
        // later events but after the pop — exactly as the heap orders it.
        let mut heap = HeapQueue::new();
        let mut wheel = EventQueue::new();
        for (secs, e) in [(1, 0), (2, 9)] {
            heap.schedule_at(SimTime::from_secs(secs), e);
            wheel.schedule_at(SimTime::from_secs(secs), e);
        }
        assert_eq!(wheel.pop(), Some((SimTime::from_secs(1), 0)));
        assert_eq!(heap.pop(), Some((SimTime::from_secs(1), 0)));
        for e in [1, 2] {
            heap.schedule_at(SimTime::from_secs(1), e);
            wheel.schedule_at(SimTime::from_secs(1), e);
        }
        let want = [(1, 1), (1, 2), (2, 9)].map(|(secs, e)| Some((SimTime::from_secs(secs), e)));
        for w in want {
            assert_eq!(wheel.pop(), w);
            assert_eq!(heap.pop(), w);
        }
    }

    /// Drives the reference heap and the wheel through the same seeded
    /// op sequence and asserts identical observable traces — the
    /// differential guarantee that let the wheel replace the heap
    /// without perturbing a single run. Also asserts
    /// `len() == 0 ⇔ is_empty()` at every step.
    #[test]
    fn differential_heap_vs_wheel_10k_ops() {
        for seed in [1u64, 0xD1FF, 0xBADC0FFEE] {
            let mut rng = SimRng::new(seed);
            let mut heap: HeapQueue<u64> = HeapQueue::new();
            let mut wheel: EventQueue<u64> = EventQueue::new();
            // i-th live token per queue (same index = same logical event).
            let mut live_h: Vec<EventToken> = Vec::new();
            let mut live_w: Vec<EventToken> = Vec::new();
            let mut retired_h: Vec<EventToken> = Vec::new();
            let mut retired_w: Vec<EventToken> = Vec::new();
            let mut frontier = SimTime::ZERO;
            for op in 0..10_000u64 {
                match rng.range(0..100u32) {
                    0..=54 => {
                        // Schedule at frontier + delay; occasionally far
                        // enough out to exercise overflow and cascades.
                        let delay = match rng.range(0..10u32) {
                            0 => rng.range(0..50u64),
                            1..=2 => rng.range(0..100_000_000u64),
                            3 => rng.range(0..200_000_000_000u64),
                            _ => rng.range(0..5_000_000u64),
                        };
                        let t = frontier + crate::time::SimDuration::from_micros(delay);
                        live_h.push(heap.schedule_at(t, op));
                        live_w.push(wheel.schedule_at(t, op));
                    }
                    55..=74 => {
                        if !live_h.is_empty() {
                            let i = rng.range(0..live_h.len() as u64) as usize;
                            let (a, b) = (live_h.swap_remove(i), live_w.swap_remove(i));
                            assert_eq!(heap.cancel(a), wheel.cancel(b));
                            retired_h.push(a);
                            retired_w.push(b);
                        }
                    }
                    75..=79 => {
                        // Cancel of a dead token: both must refuse.
                        if !retired_h.is_empty() {
                            let i = rng.range(0..retired_h.len() as u64) as usize;
                            assert!(!heap.cancel(retired_h[i]));
                            assert!(!wheel.cancel(retired_w[i]));
                        }
                    }
                    80..=94 => {
                        let (a, b) = (heap.pop(), wheel.pop());
                        assert_eq!(a, b, "pop diverged at op {op} (seed {seed})");
                        if let Some((t, _)) = a {
                            frontier = t;
                        }
                    }
                    _ => {
                        assert_eq!(heap.peek_time(), wheel.peek_time(), "peek diverged");
                    }
                }
                assert_eq!(heap.len(), wheel.len());
                #[allow(clippy::len_zero)] // the property under test IS len()==0 <=> is_empty()
                {
                    assert_eq!(wheel.is_empty(), wheel.len() == 0);
                }
            }
            // Drain both to the end: full remaining order must agree.
            loop {
                let (a, b) = (heap.pop(), wheel.pop());
                assert_eq!(a, b, "drain diverged (seed {seed})");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot support
// ---------------------------------------------------------------------------

use crate::snapshot::{Snap, SnapReader, SnapWriter};
use crate::{snap_enum, snap_in_place, snap_struct};

impl Snap for EventToken {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.0);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        EventToken(r.get_u64())
    }
}

snap_enum!(Loc {
    0 => Free,
    1 => Slot { level, slot },
    2 => Overflow,
    3 => Batch,
    4 => Dead,
});

snap_struct!(impl<E: Snap> Entry<E> {
    time,
    seq,
    gen,
    prev,
    next,
    loc,
    event,
});

// The wheel slab is stored *verbatim* — free-list order, per-slot
// generation counters, intrusive list links, origin, and batch —
// because outstanding `EventToken`s embed `(generation, slab index)`
// and live inside world state (stall watchdogs, TCP timers). Any
// canonicalisation would dangle them. The slab layout is itself a pure
// function of the operation history, so verbatim storage keeps later
// saves byte-identical too.
snap_struct!(impl<E: Snap> WheelQueue<E> {
    entries,
    free_head,
    levels,
    occupied,
    overflow_head,
    cur,
    batch,
    next_seq,
});

/// Tag byte ahead of the wheel blob. Blobs written when a second
/// scheduler existed carried `0` for the heap; the byte stays so blob
/// sizes do not shift, and anything but the wheel's tag is rejected.
const WHEEL_TAG: u8 = 1;

impl<E: Snap> Snap for EventQueue<E> {
    fn snap(&self, w: &mut SnapWriter) {
        w.section("event_queue");
        w.put_u8(WHEEL_TAG);
        self.save_fields(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        r.section("event_queue");
        let tag = r.get_u8();
        assert!(tag == WHEEL_TAG, "invalid scheduler tag {tag}");
        let mut q = EventQueue::new();
        q.restore_fields(r);
        q
    }
}

impl<E: Snap> EventQueue<E> {
    snap_in_place!(fn save_fields / restore_fields {
        wheel,
        live,
        max_live,
        scheduled_total,
        cancelled_total,
        cancel_noops,
    });
}

#[cfg(test)]
mod snap_tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::snapshot::{Snap, SnapReader, SnapWriter};
    use crate::time::SimDuration;

    fn save<E: Snap>(q: &EventQueue<E>) -> Vec<u8> {
        let mut w = SnapWriter::bare();
        q.snap(&mut w);
        w.into_bytes()
    }

    fn load<E: Snap>(blob: &[u8]) -> EventQueue<E> {
        let mut r = SnapReader::bare(blob);
        let q = EventQueue::unsnap(&mut r);
        assert!(r.is_exhausted());
        q
    }

    /// Seeded soak: at a random point, snapshot the queue, restore it,
    /// and check that the restored queue pops, peeks, cancels, and
    /// re-serializes identically to the original — including outstanding
    /// tokens taken before the snapshot.
    #[test]
    fn queue_round_trip_preserves_order_tokens_and_stats() {
        let mut rng = SimRng::new(0x5EED);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut tokens = Vec::new();
        let mut frontier = SimTime::ZERO;
        for op in 0..2_000u64 {
            match rng.range(0..10u32) {
                0..=5 => {
                    let t = frontier + SimDuration::from_micros(rng.range(0..3_000_000u64));
                    tokens.push(q.schedule_at(t, op));
                }
                6..=7 => {
                    if let Some((t, _)) = q.pop() {
                        frontier = t;
                    }
                }
                _ => {
                    if !tokens.is_empty() {
                        let i = rng.range(0..tokens.len() as u64) as usize;
                        q.cancel(tokens.swap_remove(i));
                    }
                }
            }
        }
        let blob = save(&q);
        let mut back: EventQueue<u64> = load(&blob);
        assert_eq!(back.stats(), q.stats());
        // Saving the restored queue reproduces the blob bit-for-bit.
        assert_eq!(save(&back), blob, "blob not stable");
        // Outstanding tokens cancel identically on both queues.
        for (i, &tok) in tokens.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(q.cancel(tok), back.cancel(tok), "token {i}");
            }
        }
        // Remaining drain order matches exactly.
        loop {
            let (a, b) = (q.pop(), back.pop());
            assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }

    /// The section's implementation tag is always the wheel's; a blob
    /// carrying any other value (the retired heap wrote `0`) is refused.
    #[test]
    #[should_panic(expected = "invalid scheduler tag 0")]
    fn restore_rejects_a_foreign_scheduler_tag() {
        let mut blob = save(&EventQueue::<u32>::new());
        // The tag byte directly follows the section header.
        let mut header = SnapWriter::bare();
        header.section("event_queue");
        assert_eq!(blob[header.len()], WHEEL_TAG);
        blob[header.len()] = 0;
        let _: EventQueue<u32> = load(&blob);
    }

    /// Regression for the wheel-cascade satellite: snapshot at an origin
    /// that is *not* slot-aligned (mid-window, between cascades) and
    /// check the restored wheel continues exactly — including entries
    /// sitting in the due batch and higher-level slots that still have
    /// to cascade.
    #[test]
    fn wheel_restore_mid_cascade_at_non_slot_aligned_origin() {
        let mut q: EventQueue<u32> = EventQueue::new();
        // Events across several levels and the overflow list.
        q.schedule_at(SimTime::from_micros(3), 0);
        q.schedule_at(SimTime::from_micros(3), 1); // same-instant tie
        q.schedule_at(SimTime::from_micros(70), 2); // level 1
        q.schedule_at(SimTime::from_micros(5_000), 3); // level 2
        q.schedule_at(SimTime::from_micros(300_000), 4); // level 3
        q.schedule_at(SimTime::from_secs(80_000), 5); // overflow (>19h)
        // Pop one event: the origin lands at t=3 (not slot-0-aligned)
        // with event 1 still in the batch and every other level pending.
        assert_eq!(q.pop(), Some((SimTime::from_micros(3), 0)));
        let blob = save(&q);
        let mut back: EventQueue<u32> = load(&blob);
        // Scheduling at the due frontier after restore keeps heap order.
        q.schedule_at(SimTime::from_micros(3), 6);
        back.schedule_at(SimTime::from_micros(3), 6);
        let rest: Vec<(SimTime, u32)> = std::iter::from_fn(|| back.pop()).collect();
        let want: Vec<(SimTime, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(rest, want);
        assert_eq!(
            rest.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
            vec![1, 6, 2, 3, 4, 5]
        );
    }
}
