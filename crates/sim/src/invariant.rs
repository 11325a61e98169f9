//! Runtime determinism self-checks.
//!
//! Static analysis (canal-lint) keeps wall clocks, ambient randomness and
//! hash-ordered iteration out of simulation-facing code; this module checks
//! the *runtime* half of the determinism contract:
//!
//! * [`EventOrderMonitor`] — debug-asserts the two ordering invariants of
//!   the event loop on every dispatched event: simulation time never goes
//!   backwards, and events at the same instant fire in insertion (FIFO)
//!   order. The engine feeds it from [`crate::engine::Simulation::step`],
//!   so every test that drives a simulation exercises the check for free.
//! * [`Fold`] — the one walk a stateful type offers over its state, with
//!   two sinks: [`Digest`], a tiny FNV-1a fold that two runs of the same
//!   seeded scenario must leave *bit-identical* (the root-crate
//!   `tests/determinism.rs` double-run harness relies on this), and
//!   [`Stats`], the same walk's named counts.

use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// Watches the stream of dispatched `(time, seq)` pairs and debug-asserts
/// the event-order invariants.
///
/// `seq` is the queue's insertion sequence number. The dispatch order must
/// be lexicographic in `(time, seq)`: time non-decreasing, and strictly
/// increasing `seq` within one instant (FIFO tie-break).
#[derive(Debug, Clone, Default)]
pub(crate) struct EventOrderMonitor {
    last: Option<(SimTime, u64)>,
}

impl EventOrderMonitor {
    /// A monitor that has seen nothing yet.
    pub(crate) fn new() -> Self {
        EventOrderMonitor { last: None }
    }

    /// Record one dispatched event. In debug builds (and therefore in every
    /// test run) a violated invariant aborts with a message naming the
    /// offending pair; release builds only track state.
    pub(crate) fn observe(&mut self, time: SimTime, seq: u64) {
        if let Some((last_time, last_seq)) = self.last {
            debug_assert!(
                time >= last_time,
                "event queue went back in time: {time:?} after {last_time:?}"
            );
            debug_assert!(
                time > last_time || seq > last_seq,
                "FIFO tie-break violated at {time:?}: seq {seq} after {last_seq}"
            );
        }
        self.last = Some((time, seq));
    }

    /// Fold the monitor position (`last`) into a digest: two runs that
    /// dispatched the same event stream end at the same `(time, seq)`.
    pub(crate) fn fold(&self, f: &mut impl Fold) {
        let Self { last } = self;
        match *last {
            Some((t, seq)) => f.write_u64(1).write_u64(t.as_nanos()).write_u64(seq),
            None => f.write_u64(0),
        };
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One walk over a type's observable state, read by two sinks: [`Digest`]
/// hashes the bytes and ignores the names, [`Stats`] ignores the bytes and
/// keeps the named counts. Every stateful type has one
/// `fn fold(&self, f: &mut impl Fold)`, so both readers see the same walk.
pub trait Fold {
    /// Fold raw bytes: the one encoding the other writes reduce to.
    fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self;

    /// Fold one `u64` (little-endian).
    fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Fold one `f64` by exact bit pattern — no epsilon, bit-identical or
    /// different.
    fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Fold a string (length-prefixed so concatenations can't collide with
    /// shifted boundaries).
    fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes())
    }

    /// Fold a monotone tally under `name`: the bytes of `write_u64(v)`.
    fn count(&mut self, _name: &str, v: u64) -> &mut Self {
        self.write_u64(v)
    }

    /// Fold a named part of the state: `body` is the part's own fold.
    fn scope(&mut self, _name: &str, body: impl FnOnce(&mut Self)) -> &mut Self {
        body(self);
        self
    }

    /// A fresh sink that has taken `walk`: `Digest::of(|f| x.fold(f))`.
    fn of(walk: impl FnOnce(&mut Self)) -> Self
    where
        Self: Default + Sized,
    {
        let mut sink = Self::default();
        walk(&mut sink);
        sink
    }
}

/// A 64-bit FNV-1a fold over whatever a scenario considers observable:
/// statuses, chosen backends, counters, histogram buckets. Deterministic
/// runs produce bit-identical digests; any divergence — including float
/// noise, since floats are folded by bit pattern — changes the value.
/// Names and scopes write no bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    state: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// The empty digest (FNV offset basis).
    pub fn new() -> Self {
        Digest { state: FNV_OFFSET }
    }

    /// The current digest value.
    pub fn value(&self) -> u64 {
        self.state
    }
}

impl Fold for Digest {
    #[inline]
    fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }
}

/// The named sink: each [`Fold::count`] adds into the dotted path of its
/// enclosing scopes and its name, so a name folded N times (one per ring
/// under a scope) reads as their total. Bytes are ignored. `Display` dumps
/// one sorted `name value` line per path.
#[derive(Debug, Default)]
pub struct Stats {
    /// One total per dotted path.
    // lint:allow(bounded-state) reason=the names are literals in the folds, so the code bounds the keys
    values: BTreeMap<String, u64>,
    path: String,
}

impl Stats {
    /// The total counted under a dotted path, if any fold counted it.
    pub fn get(&self, path: &str) -> Option<u64> {
        self.values.get(path).copied()
    }
}

impl Fold for Stats {
    fn write_bytes(&mut self, _bytes: &[u8]) -> &mut Self {
        self
    }

    fn count(&mut self, name: &str, v: u64) -> &mut Self {
        self.scope(name, |s| *s.values.entry(s.path.clone()).or_default() += v)
    }

    fn scope(&mut self, name: &str, body: impl FnOnce(&mut Self)) -> &mut Self {
        let len = self.path.len();
        if len > 0 {
            self.path.push('.');
        }
        self.path.push_str(name);
        body(self);
        self.path.truncate(len);
        self
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.values.iter().try_for_each(|(name, v)| writeln!(out, "{name} {v}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_accepts_lexicographic_order() {
        let mut m = EventOrderMonitor::new();
        m.observe(SimTime::from_nanos(5), 0);
        m.observe(SimTime::from_nanos(5), 3);
        m.observe(SimTime::from_nanos(9), 1); // seq may reset across instants
        m.observe(SimTime::from_nanos(9), 2);
        assert_eq!(m.last, Some((SimTime::from_nanos(9), 2)));
    }

    // The monitor's checks are `debug_assert!`s: no panic to expect without them.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "back in time")]
    fn monitor_catches_time_regression() {
        let mut m = EventOrderMonitor::new();
        m.observe(SimTime::from_nanos(9), 0);
        m.observe(SimTime::from_nanos(5), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "FIFO tie-break")]
    fn monitor_catches_fifo_violation() {
        let mut m = EventOrderMonitor::new();
        m.observe(SimTime::from_nanos(5), 7);
        m.observe(SimTime::from_nanos(5), 3);
    }

    #[test]
    fn digest_is_deterministic_and_sensitive() {
        let mut a = Digest::new();
        a.write_u64(1).write_str("ok").write_f64(0.25);
        let mut b = Digest::new();
        b.write_u64(1).write_str("ok").write_f64(0.25);
        assert_eq!(a.value(), b.value());

        let mut c = Digest::new();
        c.write_u64(1).write_str("ok").write_f64(0.250000001);
        assert_ne!(a.value(), c.value(), "float noise must change the digest");

        // Names and scopes write no bytes: a named fold is its raw writes.
        let mut named = Digest::new();
        named.count("one", 1).scope("status", |f| {
            f.write_str("ok").scope("ratio", |f| {
                f.write_f64(0.25);
            });
        });
        assert_eq!(named.value(), a.value());
    }

    #[test]
    fn stats_nest_scopes_sum_repeated_names_and_dump_sorted() {
        let mut s = Stats::default();
        s.count("top", 1).write_u64(99);
        for ring in [3, 4] {
            s.scope("rings", |f| {
                f.count("evicted", ring).scope("inner", |f| {
                    f.count("b", 1).count("a", 2);
                });
            });
        }
        assert_eq!(s.get("rings.evicted"), Some(7));
        assert_eq!(s.get("rings.inner.a"), Some(4));
        assert_eq!(s.get("evicted"), None, "a scope's names stay under it");
        assert_eq!(s.to_string(), "rings.evicted 7\nrings.inner.a 4\nrings.inner.b 2\ntop 1\n");
    }

    #[test]
    fn digest_length_prefix_prevents_boundary_shifts() {
        let mut a = Digest::new();
        a.write_str("ab").write_str("c");
        let mut b = Digest::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.value(), b.value());
    }
}
