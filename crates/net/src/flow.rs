//! Capacity-bounded session tables.
//!
//! A gateway replica's connection state lives in SmartNIC-backed memory with
//! a hard session budget (§3.2 Issue #4): once the table fills, new flows are
//! refused even though the CPU may be nearly idle — the imbalance session
//! aggregation (§4.4) exists to fix. [`SessionTable`] models exactly that:
//! bounded capacity, idle-timeout aging, and occupancy accounting. Like the
//! SLB and vSwitch tables it stands for, it is a hash table
//! ([`FlatTable`]): one probe per packet, keyed by the [`FlowHash`] the
//! packet already carries.

use crate::ecmp::FlowHash;
use crate::flat::FlatTable;
use crate::packet::FiveTuple;
use canal_sim::{SimDuration, SimTime};

/// Key identifying a session (the five-tuple).
pub(crate) type SessionKey = FiveTuple;

/// Why an insertion failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// The table is at capacity (SmartNIC session memory exhausted).
    Full,
}

#[derive(Debug, Clone)]
struct SessionEntry {
    last_seen: SimTime,
    established_at: SimTime,
}

/// A bounded session table with idle-timeout aging. The slot array grows
/// with the sessions actually held, never with `capacity`: the budget is
/// 100,000 per replica and a gateway has dozens of replicas.
#[derive(Debug)]
pub struct SessionTable {
    capacity: usize,
    idle_timeout: SimDuration,
    entries: FlatTable<SessionKey, SessionEntry>,
    /// Total sessions ever accepted.
    accepted: u64,
    /// Insertions refused because the table was full.
    rejected: u64,
    /// Sessions removed by aging.
    expired: u64,
}

impl SessionTable {
    /// New table with a session budget and idle timeout.
    pub fn new(capacity: usize, idle_timeout: SimDuration) -> Self {
        assert!(capacity > 0);
        SessionTable {
            capacity,
            idle_timeout,
            entries: FlatTable::new(),
            accepted: 0,
            rejected: 0,
            expired: 0,
        }
    }

    /// Current live session count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Occupancy fraction in [0, 1].
    pub fn occupancy(&self) -> f64 {
        self.entries.len() as f64 / self.capacity as f64
    }

    /// Whether a session exists for `key`, whose hash the caller already
    /// holds (`hash` must be `FlowHash::of(key)`).
    pub fn contains_hashed(&self, hash: FlowHash, key: &SessionKey) -> bool {
        self.entries.contains(hash.value(), key)
    }

    /// Record a new session. Errors if at capacity (after opportunistically
    /// expiring idle sessions). Re-establishing a live session refreshes
    /// its idle timer.
    pub fn establish(&mut self, key: SessionKey, now: SimTime) -> Result<(), SessionError> {
        self.touch_or_establish(FlowHash::of(&key), key, now)
    }

    /// The per-packet operation, one probe when the session exists: refresh
    /// its idle timer, or else establish it as [`SessionTable::establish`]
    /// does (`hash` must be `FlowHash::of(&key)`).
    pub fn touch_or_establish(
        &mut self,
        hash: FlowHash,
        key: SessionKey,
        now: SimTime,
    ) -> Result<(), SessionError> {
        if let Some(e) = self.entries.get_mut(hash.value(), &key) {
            e.last_seen = now;
            return Ok(());
        }
        if self.entries.len() >= self.capacity {
            self.expire_idle(now);
        }
        if self.entries.len() >= self.capacity {
            self.rejected += 1;
            return Err(SessionError::Full);
        }
        self.entries.insert_new(
            hash.value(),
            key,
            SessionEntry {
                last_seen: now,
                established_at: now,
            },
        );
        self.accepted += 1;
        Ok(())
    }

    /// Explicitly close a session. Returns session age if it existed.
    pub fn close(&mut self, key: &SessionKey, now: SimTime) -> Option<SimDuration> {
        self.entries
            .remove(FlowHash::of(key).value(), key)
            .map(|e| now.since(e.established_at))
    }

    /// Drop every session idle past the timeout. Returns how many expired.
    pub fn expire_idle(&mut self, now: SimTime) -> usize {
        let timeout = self.idle_timeout;
        let removed = self.entries.retain(|_, e| now.since(e.last_seen) < timeout);
        self.expired += removed as u64;
        removed
    }

    /// Lifetime counters: (accepted, rejected, expired).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.accepted, self.rejected, self.expired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Endpoint, VpcAddr};
    use crate::ids::VpcId;

    fn key(sport: u16) -> SessionKey {
        FiveTuple::tcp(
            Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 0, 1), sport),
            Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 0, 2), 443),
        )
    }

    const T: fn(u64) -> SimTime = SimTime::from_secs;

    #[test]
    fn establish_and_close() {
        let mut t = SessionTable::new(10, SimDuration::from_secs(60));
        assert!(t.establish(key(1), T(0)).is_ok());
        assert!(t.contains_hashed(FlowHash::of(&key(1)), &key(1)));
        assert_eq!(t.len(), 1);
        let age = t.close(&key(1), T(5)).unwrap();
        assert_eq!(age, SimDuration::from_secs(5));
        assert!(t.is_empty());
    }

    /// The flat table's home tag rides in the padding beside the
    /// five-tuple: a session slot is 48 bytes with it as without it.
    #[test]
    fn a_session_slot_is_48_bytes() {
        assert_eq!(FlatTable::<SessionKey, SessionEntry>::slot_bytes(), 48);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut t = SessionTable::new(3, SimDuration::from_secs(60));
        for i in 0..3 {
            assert!(t.establish(key(i), T(0)).is_ok());
        }
        assert_eq!(t.establish(key(99), T(1)), Err(SessionError::Full));
        let (acc, rej, _) = t.stats();
        assert_eq!((acc, rej), (3, 1));
        assert!((t.occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_table_admits_after_idle_expiry() {
        let mut t = SessionTable::new(2, SimDuration::from_secs(10));
        t.establish(key(1), T(0)).unwrap();
        t.establish(key(2), T(0)).unwrap();
        // 15s later the old sessions are idle-expired, making room.
        assert!(t.establish(key(3), T(15)).is_ok());
        assert_eq!(t.len(), 1);
        let (_, _, expired) = t.stats();
        assert_eq!(expired, 2);
    }

    /// Seeded differential test against the `BTreeMap` implementation this
    /// table replaced: random establish / `touch_or_establish` / close /
    /// `expire_idle` sequences over a small key space and a small budget, so
    /// the table is full most of the time, keys are deleted and re-inserted,
    /// and the slot array doubles and shrinks.
    #[test]
    fn matches_the_btreemap_model_under_random_operations() {
        use canal_sim::SimRng;
        use std::collections::BTreeMap;

        struct Model {
            capacity: usize,
            timeout: SimDuration,
            entries: BTreeMap<SessionKey, (SimTime, SimTime)>,
            stats: (u64, u64, u64),
        }
        impl Model {
            fn expire_idle(&mut self, now: SimTime) -> usize {
                let before = self.entries.len();
                let timeout = self.timeout;
                self.entries.retain(|_, e| now.since(e.0) < timeout);
                let removed = before - self.entries.len();
                self.stats.2 += removed as u64;
                removed
            }
            fn establish(&mut self, key: SessionKey, now: SimTime) -> Result<(), SessionError> {
                if let Some(e) = self.entries.get_mut(&key) {
                    e.0 = now;
                    return Ok(());
                }
                if self.entries.len() >= self.capacity {
                    self.expire_idle(now);
                }
                if self.entries.len() >= self.capacity {
                    self.stats.1 += 1;
                    return Err(SessionError::Full);
                }
                self.entries.insert(key, (now, now));
                self.stats.0 += 1;
                Ok(())
            }
        }

        let mut rng = SimRng::seed(0x5E55_0001);
        for case in 0..30 {
            let capacity = [5usize, 40, 700][case % 3];
            let space = capacity * 2;
            let timeout = SimDuration::from_millis(50);
            let mut table = SessionTable::new(capacity, timeout);
            let mut model = Model { capacity, timeout, entries: BTreeMap::new(), stats: (0, 0, 0) };
            let mut now = SimTime::ZERO;
            for _ in 0..3000 {
                now += SimDuration::from_micros(rng.int_range(0, 400));
                let k = key(rng.index(space) as u16);
                match rng.index(8) {
                    0..=2 => assert_eq!(table.establish(k, now), model.establish(k, now)),
                    3..=4 => {
                        let h = FlowHash::of(&k);
                        assert_eq!(table.touch_or_establish(h, k, now), model.establish(k, now));
                    }
                    5 => {
                        let age = model.entries.remove(&k).map(|e| now.since(e.1));
                        assert_eq!(table.close(&k, now), age);
                    }
                    6 => assert_eq!(table.contains_hashed(FlowHash::of(&k), &k), model.entries.contains_key(&k)),
                    _ => {
                        if rng.chance(0.1) {
                            assert_eq!(table.expire_idle(now), model.expire_idle(now));
                        }
                    }
                }
                assert_eq!(table.len(), model.entries.len());
            }
            assert_eq!(table.stats(), model.stats);
            for i in 0..space {
                let k = key(i as u16);
                assert_eq!(table.contains_hashed(FlowHash::of(&k), &k), model.entries.contains_key(&k));
            }
        }
    }

    #[test]
    fn reestablish_is_idempotent() {
        let mut t = SessionTable::new(2, SimDuration::from_secs(10));
        t.establish(key(1), T(0)).unwrap();
        t.establish(key(1), T(5)).unwrap();
        assert_eq!(t.len(), 1);
        let (acc, _, _) = t.stats();
        assert_eq!(acc, 1);
        // The re-establish refreshed last_seen to t=5.
        assert_eq!(t.expire_idle(T(12)), 0);
    }
}
