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
//! * [`Digest`] — a tiny FNV-1a fold for metrics and outcomes. Two runs of
//!   the same seeded scenario must produce *bit-identical* digests; the
//!   root-crate `tests/determinism.rs` double-run harness relies on this.

use crate::time::SimTime;

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
    pub(crate) fn fold_digest(&self, d: &mut Digest) {
        let Self { last } = self;
        match *last {
            Some((t, seq)) => d.write_u64(1).write_u64(t.as_nanos()).write_u64(seq),
            None => d.write_u64(0),
        };
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a fold over whatever a scenario considers observable:
/// statuses, chosen backends, counters, histogram buckets. Deterministic
/// runs produce bit-identical digests; any divergence — including float
/// noise, since floats are folded by bit pattern — changes the value.
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

    /// Fold raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Fold one `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Fold one `f64` by exact bit pattern — no epsilon, bit-identical or
    /// different.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Fold a string (length-prefixed so concatenations can't collide with
    /// shifted boundaries).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes())
    }

    /// The current digest value.
    pub fn value(&self) -> u64 {
        self.state
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
