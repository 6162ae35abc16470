//! The simulation driver: a clock plus an event queue.
//!
//! `Simulator<E>` is deliberately agnostic about what an event *is*: the
//! embedding crate defines a closed event enum and dispatches on it in the
//! handler passed to [`Simulator::run_until`]. This keeps the lower layers
//! (links, TCP, BitTorrent) free of circular knowledge about each other —
//! they are sans-IO state machines, and only the top-level world knows how
//! an event touches which component.

use crate::event::{EventQueue, EventToken, QueueStats};
use crate::time::{SimDuration, SimTime};

/// Outcome of handling one event, controlling the main loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// Keep running.
    Continue,
    /// Stop the simulation immediately (e.g. the measured download finished).
    Halt,
}

/// A discrete-event simulator over events of type `E`.
///
/// ```
/// use simnet::sim::{Simulator, Step};
/// use simnet::time::{SimDuration, SimTime};
///
/// let mut sim: Simulator<&str> = Simulator::new();
/// sim.schedule_in(SimDuration::from_secs(1), "tick");
/// let mut fired = Vec::new();
/// sim.run_until(SimTime::from_secs(10), |_sim, _t, e| {
///     fired.push(e);
///     Step::Continue
/// });
/// assert_eq!(fired, vec!["tick"]);
/// assert_eq!(sim.now(), SimTime::from_secs(1));
/// ```
pub struct Simulator<E> {
    now: SimTime,
    queue: EventQueue<E>,
    processed: u64,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates a simulator at time zero with an empty agenda.
    pub fn new() -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            processed: 0,
        }
    }

    /// Event-queue instrumentation counters (depth, high-water depth,
    /// schedule/cancellation totals).
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedules `event` at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `time` is in the past.
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventToken {
        debug_assert!(time >= self.now, "scheduling into the past");
        self.queue.schedule_at(time, event)
    }

    /// Schedules `event` after a relative delay.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventToken {
        let at = self.now + delay;
        self.queue.schedule_at(at, event)
    }

    /// Cancels a scheduled event. No-op if it already fired.
    pub fn cancel(&mut self, token: EventToken) {
        self.queue.cancel(token);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop()?;
        debug_assert!(t >= self.now, "event queue went backwards");
        self.now = t;
        self.processed += 1;
        Some((t, e))
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Runs until the agenda is exhausted, `deadline` is reached, or the
    /// handler returns [`Step::Halt`]. Events scheduled exactly at the
    /// deadline still fire; later ones stay queued. On return, `now` is the
    /// time of the last processed event (or `deadline` if the deadline cut
    /// the run short while events remained).
    pub fn run_until<F>(&mut self, deadline: SimTime, mut handler: F)
    where
        F: FnMut(&mut Simulator<E>, SimTime, E) -> Step,
    {
        loop {
            match self.peek_time() {
                None => return,
                Some(t) if t > deadline => {
                    self.now = deadline;
                    return;
                }
                Some(_) => {}
            }
            let (t, e) = self.next_event().expect("peeked event exists");
            if handler(self, t, e) == Step::Halt {
                return;
            }
        }
    }

    /// Runs until the agenda is exhausted or the handler halts.
    pub fn run<F>(&mut self, handler: F)
    where
        F: FnMut(&mut Simulator<E>, SimTime, E) -> Step,
    {
        self.run_until(SimTime::MAX, handler);
    }
}

impl<E> std::fmt::Debug for Simulator<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("processed", &self.processed)
            .field("queue", &self.queue)
            .finish()
    }
}

crate::snap_struct!(#[section = "sim"] impl<E: crate::snapshot::Snap> Simulator<E> {
    now,
    queue,
    processed,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_in(SimDuration::from_secs(5), 1);
        sim.schedule_in(SimDuration::from_secs(2), 2);
        let (t, e) = sim.next_event().unwrap();
        assert_eq!((t, e), (SimTime::from_secs(2), 2));
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), 1);
        sim.schedule_at(SimTime::from_secs(10), 2);
        let mut seen = Vec::new();
        sim.run_until(SimTime::from_secs(5), |_, _, e| {
            seen.push(e);
            Step::Continue
        });
        assert_eq!(seen, vec![1]);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // The event after the deadline is still queued.
        assert_eq!(sim.peek_time(), Some(SimTime::from_secs(10)));
    }

    #[test]
    fn deadline_boundary_event_fires() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_secs(5), 7);
        let mut seen = Vec::new();
        sim.run_until(SimTime::from_secs(5), |_, _, e| {
            seen.push(e);
            Step::Continue
        });
        assert_eq!(seen, vec![7]);
    }

    #[test]
    fn handler_can_halt() {
        let mut sim: Simulator<u32> = Simulator::new();
        for i in 0..10 {
            sim.schedule_at(SimTime::from_secs(i), i as u32);
        }
        let mut count = 0;
        sim.run(|_, _, _| {
            count += 1;
            if count == 3 {
                Step::Halt
            } else {
                Step::Continue
            }
        });
        assert_eq!(count, 3);
    }

    #[test]
    fn handler_can_schedule_more_events() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), 0);
        let mut ticks = 0;
        sim.run_until(SimTime::from_secs(100), |sim, _, n| {
            ticks += 1;
            if n < 4 {
                sim.schedule_in(SimDuration::from_secs(1), n + 1);
            }
            Step::Continue
        });
        assert_eq!(ticks, 5);
        assert_eq!(sim.processed(), 5);
    }
}
