//! Discrete-event engine.
//!
//! The engine follows the classic *model-handles-event* structure: the user's
//! model is an explicit state machine implementing [`Model`]; the engine owns
//! the clock and the pending-event queue. Handlers receive a [`Scheduler`]
//! through which they enqueue future events — they never touch the queue
//! directly, which keeps borrow scopes simple and the event order fully
//! deterministic (ties broken by insertion sequence, FIFO).

use crate::invariant::{EventOrderMonitor, Fold};
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
}

impl<E> Scheduler<E> {
    /// Schedule `event` to fire `delay` after the current instant.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.pending.push((self.now + delay, event));
    }

    /// Schedule `event` at an absolute instant. Instants in the past fire
    /// immediately (at `now`), preserving causality.
    pub fn at(&mut self, time: SimTime, event: E) {
        self.pending.push((time.max(self.now), event));
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
    /// The [`Scheduler`] buffer every dispatch borrows and hands back
    /// empty, so no dispatch allocates once it has grown to the most
    /// events one handler schedules.
    scratch: Vec<(SimTime, E)>,
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
            scratch: Vec::new(),
        }
    }

    /// Total number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// Fold the engine state into a digest: clock (`now`), insertion
    /// sequence (`seq`), dispatch count (`events_fired`), the `(time, seq)`
    /// shape of every event still in `queue` (canonical order), and the
    /// `monitor` position. Event payloads are the model's to digest, and
    /// the `scratch` buffer is empty between dispatches.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self {
            now, seq, queue, events_fired, monitor,
            scratch, // transient: drained by every dispatch, so only checked empty
        } = self;
        debug_assert!(scratch.is_empty(), "scratch is drained by every dispatch");
        f.write_u64(now.as_nanos())
            .write_u64(*seq)
            .count("events_fired", *events_fired)
            .write_u64(queue.len() as u64);
        let mut shape: Vec<(SimTime, u64)> = queue.iter().map(|q| (q.time, q.seq)).collect();
        shape.sort_unstable();
        for (t, seq) in shape {
            f.write_u64(t.as_nanos()).write_u64(seq);
        }
        f.scope("monitor", |f| monitor.fold(f));
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
    /// empty.
    pub(crate) fn step<M: Model<Event = E>>(&mut self, model: &mut M) -> bool {
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
            pending: std::mem::take(&mut self.scratch),
        };
        model.handle(self.now, next.event, &mut sched);
        for (t, e) in sched.pending.drain(..) {
            self.schedule(t, e);
        }
        self.scratch = sched.pending;
        true
    }

    /// Run until the queue drains.
    pub fn run<M: Model<Event = E>>(&mut self, model: &mut M) {
        while self.step(model) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
    }

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, event: Ev, _sched: &mut Scheduler<Ev>) {
            let Ev::Tick(id) = event;
            self.seen.push((now.as_nanos(), id));
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

    /// Schedules through the handler's [`Scheduler`], so every dispatch
    /// goes through the reused buffer: `Fan(n, delay)` at `t` schedules `n`
    /// leaves (ids `10 n + k`) at `t + delay`, `Back` one leaf 5 ns before
    /// now.
    #[derive(Default)]
    struct Fanout {
        seen: Vec<(u64, u32)>,
    }

    enum FanEv {
        Fan(u32, u64),
        Back(u32),
        Leaf(u32),
    }

    impl Model for Fanout {
        type Event = FanEv;
        fn handle(&mut self, now: SimTime, event: FanEv, sched: &mut Scheduler<FanEv>) {
            match event {
                FanEv::Fan(n, delay) => {
                    for k in 0..n {
                        sched.after(SimDuration::from_nanos(delay), FanEv::Leaf(10 * n + k));
                    }
                }
                FanEv::Back(id) => sched.at(SimTime::from_nanos(now.as_nanos() - 5), FanEv::Leaf(id)),
                FanEv::Leaf(id) => self.seen.push((now.as_nanos(), id)),
            }
        }
    }

    #[test]
    fn same_instant_events_from_successive_dispatches_stay_fifo() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_nanos(10), FanEv::Fan(3, 0));
        sim.schedule(SimTime::from_nanos(10), FanEv::Fan(2, 0));
        sim.schedule(SimTime::from_nanos(10), FanEv::Leaf(1));
        sim.schedule(SimTime::from_nanos(10), FanEv::Fan(4, 5));
        let mut m = Fanout::default();
        sim.run(&mut m);
        // The leaf queued up front fires first at t=10, then the fan-outs'
        // leaves in the order their handlers ran and, within one handler,
        // the order it scheduled them.
        assert_eq!(
            m.seen,
            vec![(10, 1), (10, 30), (10, 31), (10, 32), (10, 20), (10, 21)]
                .into_iter()
                .chain((40..44).map(|id| (15, id)))
                .collect::<Vec<_>>()
        );
        assert_eq!(sim.events_fired(), 4 + 3 + 2 + 4);
    }

    #[test]
    fn an_event_a_handler_schedules_in_the_past_fires_now() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_nanos(20), FanEv::Back(7));
        sim.schedule(SimTime::from_nanos(20), FanEv::Leaf(8));
        sim.schedule(SimTime::from_nanos(21), FanEv::Leaf(9));
        let mut m = Fanout::default();
        sim.run(&mut m);
        // Clamped to t=20, behind the leaf already queued for that instant.
        assert_eq!(m.seen, vec![(20, 8), (20, 7), (21, 9)]);
        assert_eq!(sim.now, SimTime::from_nanos(21));
    }

    /// A time-sorted arrival list plus pre-scheduled plan events, each of
    /// which schedules a follow-up `lag` later. `chained` schedules only
    /// arrival 0 and lets arrival `i` schedule arrival `i + 1`; up front,
    /// every arrival is scheduled after the plan.
    struct Stream {
        arrivals: Vec<u64>,
        chained: bool,
        /// A follow-up that ties with the next unfired arrival re-queues
        /// itself behind it (what scheduling arrivals up front gives it).
        defer: bool,
        lag: u64,
        next: usize,
        seen: Vec<(u64, char, usize)>,
    }

    enum StreamEv {
        Plan(usize),
        FollowUp(usize),
        Arrive(usize),
    }

    impl Model for Stream {
        type Event = StreamEv;
        fn handle(&mut self, now: SimTime, event: StreamEv, sched: &mut Scheduler<StreamEv>) {
            let t = now.as_nanos();
            match event {
                StreamEv::Plan(i) => {
                    self.seen.push((t, 'p', i));
                    sched.after(SimDuration::from_nanos(self.lag), StreamEv::FollowUp(i));
                }
                StreamEv::FollowUp(i) => {
                    if self.defer && self.arrivals.get(self.next) == Some(&t) {
                        sched.at(now, StreamEv::FollowUp(i));
                        return;
                    }
                    self.seen.push((t, 'f', i));
                }
                StreamEv::Arrive(i) => {
                    self.seen.push((t, 'a', i));
                    self.next = i + 1;
                    if let Some(&at) = self.arrivals.get(i + 1).filter(|_| self.chained) {
                        sched.at(SimTime::from_nanos(at), StreamEv::Arrive(i + 1));
                    }
                }
            }
        }
    }

    fn stream(chained: bool, defer: bool) -> Vec<(u64, char, usize)> {
        // Arrival 1 ties with plan event 0; arrivals 2 and 3 tie with each
        // other; arrival 4 ties with plan 0's follow-up, arrivals 5 and 6
        // with plan 1's.
        let arrivals = vec![3, 10, 12, 12, 15, 25, 25, 40];
        let mut sim = Simulation::new();
        for (i, at) in [10, 20, 30].into_iter().enumerate() {
            sim.schedule(SimTime::from_nanos(at), StreamEv::Plan(i));
        }
        let upfront = if chained { 1 } else { arrivals.len() };
        for (i, &at) in arrivals.iter().enumerate().take(upfront) {
            sim.schedule(SimTime::from_nanos(at), StreamEv::Arrive(i));
        }
        let mut m = Stream { arrivals, chained, defer, lag: 5, next: 0, seen: Vec::new() };
        sim.run(&mut m);
        m.seen
    }

    #[test]
    fn a_chained_arrival_stream_fires_what_scheduling_it_up_front_fires() {
        let upfront = stream(false, false);
        assert_eq!(upfront[..3], [(3, 'a', 0), (10, 'p', 0), (10, 'a', 1)]);
        assert_eq!(upfront[5..7], [(15, 'a', 4), (15, 'f', 0)]);
        assert_eq!(upfront.len(), 8 + 3 + 3);
        assert_eq!(stream(true, true), upfront);
        // Without the re-queue, a follow-up scheduled before the arrival it
        // ties with was chained overtakes that arrival.
        assert_ne!(stream(true, false), upfront);
    }
}
