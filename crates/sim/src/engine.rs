//! Discrete-event engine.
//!
//! The engine follows the classic *model-handles-event* structure: the user's
//! model is an explicit state machine implementing [`Model`]; the engine owns
//! the clock and the pending-event queue. Handlers receive a [`Scheduler`]
//! through which they enqueue future events — they never touch the queue
//! directly, which keeps borrow scopes simple and the event order fully
//! deterministic (ties broken by insertion sequence, FIFO).

use crate::invariant::{Digest, EventOrderMonitor};
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simulation model: a state machine that reacts to its own event type.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle one event at `now`, scheduling any follow-up events.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Interface handed to event handlers for enqueueing future events.
///
/// Events scheduled for the same instant fire in the order they were
/// scheduled (stable FIFO), which the determinism of every experiment relies
/// on.
// lint:allow(digest-coverage) reason=transient: per-dispatch scratch; its pending events are drained into the digested Simulation queue before the handler returns
pub struct Scheduler<E> {
    now: SimTime,
    // lint:allow(bounded-state) reason=drained wholesale into the Simulation queue after every single dispatch
    pending: Vec<(SimTime, E)>,
    halted: bool,
}

impl<E> Scheduler<E> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `delay` after the current instant.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.pending.push((self.now + delay, event));
    }

    /// Schedule `event` at an absolute instant. Instants in the past fire
    /// immediately (at `now`), preserving causality.
    pub fn at(&mut self, time: SimTime, event: E) {
        self.pending.push((time.max(self.now), event));
    }

    /// Request the simulation stop once the current handler returns.
    pub fn halt(&mut self) {
        self.halted = true;
    }
}

struct QueuedEvent<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for QueuedEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for QueuedEvent<E> {}
impl<E> PartialOrd for QueuedEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for QueuedEvent<E> {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The event loop: owns the clock and the queue, drives a [`Model`].
pub struct Simulation<E> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<QueuedEvent<E>>,
    events_fired: u64,
    monitor: EventOrderMonitor,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// A fresh simulation at t=0 with an empty queue.
    pub fn new() -> Self {
        Simulation {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            events_fired: 0,
            monitor: EventOrderMonitor::new(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Fold the engine state into a digest: clock (`now`), insertion
    /// sequence (`seq`), dispatch count (`events_fired`), the `(time, seq)`
    /// shape of every event still in `queue` (canonical order), and the
    /// `monitor` position. Event payloads are the model's to digest.
    pub fn fold_digest(&self, d: &mut Digest) {
        d.write_u64(self.now.as_nanos())
            .write_u64(self.seq)
            .write_u64(self.events_fired)
            .write_u64(self.queue.len() as u64);
        let mut shape: Vec<(SimTime, u64)> =
            self.queue.iter().map(|q| (q.time, q.seq)).collect();
        shape.sort_unstable();
        for (t, seq) in shape {
            d.write_u64(t.as_nanos()).write_u64(seq);
        }
        self.monitor.fold_digest(d);
    }

    /// Seed an event at an absolute instant before (or during) the run.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QueuedEvent {
            time: time.max(self.now),
            seq,
            event,
        });
    }

    /// Pop and dispatch a single event. Returns `false` when the queue is
    /// empty or the model halted.
    pub fn step<M: Model<Event = E>>(&mut self, model: &mut M) -> bool {
        let Some(next) = self.queue.pop() else {
            return false;
        };
        // Debug-asserts time monotonicity and the FIFO tie-break on every
        // dispatch (the runtime half of the determinism contract).
        self.monitor.observe(next.time, next.seq);
        self.now = next.time;
        self.events_fired += 1;
        let mut sched = Scheduler {
            now: self.now,
            pending: Vec::new(),
            halted: false,
        };
        model.handle(self.now, next.event, &mut sched);
        for (t, e) in sched.pending {
            self.schedule(t, e);
        }
        !sched.halted
    }

    /// Run until the queue drains or the model halts.
    pub fn run<M: Model<Event = E>>(&mut self, model: &mut M) {
        while self.step(model) {}
    }

    /// Run until the queue drains, the model halts, or the clock passes
    /// `deadline` (events scheduled after the deadline are left unfired).
    pub fn run_until<M: Model<Event = E>>(&mut self, model: &mut M, deadline: SimTime) {
        loop {
            match self.queue.peek() {
                Some(ev) if ev.time <= deadline => {
                    if !self.step(model) {
                        break;
                    }
                }
                _ => break,
            }
        }
        self.now = self.now.max(deadline.min(
            self.queue
                .peek()
                .map(|e| e.time)
                .unwrap_or(deadline),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
        Stop,
    }

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
            match event {
                Ev::Tick(id) => self.seen.push((now.as_nanos(), id)),
                Ev::Stop => sched.halt(),
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_nanos(30), Ev::Tick(3));
        sim.schedule(SimTime::from_nanos(10), Ev::Tick(1));
        sim.schedule(SimTime::from_nanos(20), Ev::Tick(2));
        let mut m = Recorder::default();
        sim.run(&mut m);
        assert_eq!(m.seen, vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(sim.events_fired(), 3);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut sim = Simulation::new();
        for id in 0..100 {
            sim.schedule(SimTime::from_nanos(5), Ev::Tick(id));
        }
        let mut m = Recorder::default();
        sim.run(&mut m);
        let ids: Vec<u32> = m.seen.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn halt_stops_the_loop() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_nanos(1), Ev::Tick(1));
        sim.schedule(SimTime::from_nanos(2), Ev::Stop);
        sim.schedule(SimTime::from_nanos(3), Ev::Tick(3));
        let mut m = Recorder::default();
        sim.run(&mut m);
        assert_eq!(m.seen, vec![(1, 1)]);
        assert_eq!(sim.pending(), 1);
    }

    struct Chain {
        hops: u32,
        done_at: Option<SimTime>,
    }

    impl Model for Chain {
        type Event = u32;
        fn handle(&mut self, now: SimTime, hop: u32, sched: &mut Scheduler<u32>) {
            if hop < self.hops {
                sched.after(SimDuration::from_micros(10), hop + 1);
            } else {
                self.done_at = Some(now);
            }
        }
    }

    #[test]
    fn handlers_chain_future_events() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::ZERO, 0u32);
        let mut m = Chain {
            hops: 5,
            done_at: None,
        };
        sim.run(&mut m);
        assert_eq!(m.done_at, Some(SimTime::from_micros(50)));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulation::new();
        for i in 1..=10 {
            sim.schedule(SimTime::from_millis(i), Ev::Tick(i as u32));
        }
        let mut m = Recorder::default();
        sim.run_until(&mut m, SimTime::from_millis(4));
        assert_eq!(m.seen.len(), 4);
        assert_eq!(sim.pending(), 6);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_millis(10), Ev::Tick(1));
        let mut m = Recorder::default();
        assert!(sim.step(&mut m));
        // Scheduling "in the past" is clamped to the current instant.
        sim.schedule(SimTime::from_millis(1), Ev::Tick(2));
        sim.run(&mut m);
        assert_eq!(m.seen, vec![(10_000_000, 1), (10_000_000, 2)]);
    }
}
