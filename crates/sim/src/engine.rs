//! A minimal, deterministic discrete-event simulation engine.
//!
//! The engine is a priority queue of timestamped events of a user-chosen
//! type `E`, popped in time order. Ties are broken by insertion order, so a
//! run is fully deterministic given the same schedule calls.
//!
//! The engine deliberately does *not* own the model state or the RNG; the
//! caller drives the loop, which keeps borrow-checking simple and makes the
//! control flow of experiments explicit:
//!
//! ```
//! use drqos_sim::engine::Simulator;
//! use drqos_sim::time::SimTime;
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick, Stop }
//!
//! let mut sim = Simulator::new();
//! sim.schedule(SimTime::new(1.0), Ev::Tick);
//! sim.schedule(SimTime::new(2.0), Ev::Stop);
//!
//! let mut ticks = 0;
//! while let Some((t, ev)) = sim.pop() {
//!     match ev {
//!         Ev::Tick => {
//!             ticks += 1;
//!             sim.schedule_in(0.5, Ev::Tick);
//!         }
//!         Ev::Stop => break,
//!     }
//!     assert!(t <= sim.now());
//! }
//! assert_eq!(ticks, 2); // at t = 1.0 and 1.5; Stop pops before the tick rescheduled at 2.0
//! ```

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event pending in the queue (internal representation).
#[derive(Debug)]
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
        // BinaryHeap is a max-heap; reverse so the earliest event pops first.
        // Sequence number breaks ties FIFO.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event simulator over events of type `E`.
#[derive(Debug)]
pub struct Simulator<E> {
    queue: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E> Simulator<E> {
    /// Creates an empty simulator at time zero.
    pub fn new() -> Self {
        Self {
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
        }
    }

    /// The current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time (causality violation).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        self.seq += 1;
        self.queue.push(Scheduled {
            time: at,
            seq: self.seq,
            event,
        });
    }

    /// Schedules `event` `delay` seconds after the current time.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or non-finite.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "delay must be finite and non-negative, got {delay}"
        );
        self.schedule(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let next = self.queue.pop()?;
        self.now = next.time;
        self.processed += 1;
        Some((next.time, next.event))
    }

    /// Peeks at the timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|s| s.time)
    }

    /// Discards all pending events (the clock is unchanged).
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::new(3.0), "c");
        sim.schedule(SimTime::new(1.0), "a");
        sim.schedule(SimTime::new(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| sim.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut sim = Simulator::new();
        let t = SimTime::new(1.0);
        sim.schedule(t, 1);
        sim.schedule(t, 2);
        sim.schedule(t, 3);
        let order: Vec<i32> = std::iter::from_fn(|| sim.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::new(5.0), ());
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.pop();
        assert_eq!(sim.now(), SimTime::new(5.0));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::new(10.0), "first");
        sim.pop();
        sim.schedule_in(2.5, "second");
        let (t, _) = sim.pop().unwrap();
        assert_eq!(t, SimTime::new(12.5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::new(10.0), ());
        sim.pop();
        sim.schedule(SimTime::new(5.0), ());
    }

    #[test]
    #[should_panic(expected = "delay must be finite")]
    fn negative_delay_panics() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.schedule_in(-1.0, ());
    }

    #[test]
    fn counters_track_activity() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::new(1.0), ());
        sim.schedule(SimTime::new(2.0), ());
        assert_eq!(sim.pending(), 2);
        sim.pop();
        assert_eq!(sim.processed(), 1);
        assert_eq!(sim.pending(), 1);
        sim.clear();
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::new(4.0), ());
        assert_eq!(sim.peek_time(), Some(SimTime::new(4.0)));
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn empty_pop_returns_none() {
        let mut sim: Simulator<u8> = Simulator::new();
        assert!(sim.pop().is_none());
        assert!(sim.peek_time().is_none());
    }
}
