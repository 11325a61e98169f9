//! A deterministic open-addressed hash table for the per-packet path.
//!
//! The session tables the paper builds on (SLB, vSwitch) are hash tables:
//! one probe into contiguous memory per packet, not a walk down an ordered
//! tree whose every level is a dependent cache miss. [`FlatTable`] is that
//! structure under this workspace's determinism contract:
//!
//! * the hash is **fixed** ([`FlatKey::flat_hash`], no per-process random
//!   state) and the caller passes it in, so a packet's five-tuple is hashed
//!   once and the same value serves ECMP, bucket choice, the session table
//!   and tunnel choice ([`crate::ecmp::FlowHash`]);
//! * collisions resolve by linear probing and deletes by backward shift, so
//!   the layout is a pure function of the insert / remove history and there
//!   are no tombstones to accumulate;
//! * nothing observable depends on the layout: lookups are by key, and
//!   [`FlatTable::fold_digest`] visits entries in ascending key order,
//!   exactly what the `BTreeMap`s it replaces gave.
//!
//! The slot array starts empty, doubles when three quarters full, and
//! [`FlatTable::retain`] rebuilds it at the size the survivors need, so a
//! table sized by a large `capacity` budget costs memory only for the
//! entries it has held.

use crate::ecmp::fmix64;
use crate::ids::GlobalServiceId;
use canal_sim::Digest;

/// A key that supplies its own fixed 64-bit hash.
pub trait FlatKey: Copy + Ord {
    /// The hash every [`FlatTable`] call for this key must be given. It
    /// must be a pure function of the key with well-mixed bits.
    fn flat_hash(&self) -> u64;
}

impl FlatKey for GlobalServiceId {
    fn flat_hash(&self) -> u64 {
        fmix64(self.0)
    }
}

/// Smallest non-empty slot array.
const MIN_SLOTS: usize = 8;

/// Fibonacci multiplier: the slot index is the top bits of `hash * PHI`,
/// so residue classes of the hash (ECMP takes `hash % n` first, and every
/// flow on one backend shares that residue) still spread over all slots.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Open-addressed map from `K` to `V`; see the module docs.
#[derive(Debug, Clone)]
pub struct FlatTable<K, V> {
    /// Empty, or a power-of-two number of slots.
    // lint:allow(bounded-state) reason=under twice what the owner's entries need; the owner bounds the entries (a field of this type is itself policed) and retain() rebuilds at the survivors' size
    slots: Vec<Option<(K, V)>>,
    len: usize,
}

impl<K, V> Default for FlatTable<K, V> {
    fn default() -> Self {
        FlatTable { slots: Vec::new(), len: 0 }
    }
}

/// Slots needed to hold `n` entries under the 3/4 load limit.
fn slots_for(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        (n + n / 3 + 1).next_power_of_two().max(MIN_SLOTS)
    }
}

impl<K: FlatKey, V> FlatTable<K, V> {
    /// An empty table; allocates nothing until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Home slot of a hash. Only called on a non-empty slot array.
    fn home(&self, hash: u64) -> usize {
        let shift = 64 - self.slots.len().trailing_zeros();
        (hash.wrapping_mul(PHI) >> shift) as usize
    }

    /// Slot holding `key`, if present.
    fn find(&self, hash: u64, key: &K) -> Option<usize> {
        debug_assert_eq!(hash, key.flat_hash(), "hash does not belong to key");
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        // The load limit keeps at least a quarter of the slots empty, so
        // the probe always terminates.
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, _)) if k == key => return Some(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, hash: u64, key: &K) -> bool {
        self.find(hash, key).is_some()
    }

    /// The value stored for `key`.
    pub fn get(&self, hash: u64, key: &K) -> Option<&V> {
        let i = self.find(hash, key)?;
        self.slots[i].as_ref().map(|(_, v)| v)
    }

    /// Mutable access to the value stored for `key`.
    pub fn get_mut(&mut self, hash: u64, key: &K) -> Option<&mut V> {
        let i = self.find(hash, key)?;
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// Insert a key the caller has just looked up and not found (every
    /// user decides something between the lookup and the insert: a capacity
    /// check, a counter, whether to build the value at all).
    pub fn insert_new(&mut self, hash: u64, key: K, value: V) {
        debug_assert!(!self.contains(hash, &key), "insert_new of a present key");
        // Double once three quarters full.
        if self.len >= self.slots.len() / 4 * 3 {
            self.rebuild(slots_for(self.len + 1).max(self.slots.len() * 2));
        }
        self.place(hash, key, value);
        self.len += 1;
    }

    /// Put an absent key into the first free slot of its probe sequence.
    fn place(&mut self, hash: u64, key: K, value: V) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        while self.slots[i].is_some() {
            i = (i + 1) & mask;
        }
        self.slots[i] = Some((key, value));
    }

    /// Move every entry into a fresh slot array of `n_slots`.
    fn rebuild(&mut self, n_slots: usize) {
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(n_slots, || None);
        for (k, v) in old.into_iter().flatten() {
            self.place(k.flat_hash(), k, v);
        }
    }

    /// Remove `key`; returns its value. Later entries of the same probe run
    /// shift back over the hole, so no tombstone is left.
    pub fn remove(&mut self, hash: u64, key: &K) -> Option<V> {
        let mut hole = self.find(hash, key)?;
        let (_, value) = self.slots[hole].take()?;
        self.len -= 1;
        let mask = self.slots.len() - 1;
        let mut i = (hole + 1) & mask;
        while let Some((k, _)) = &self.slots[i] {
            // An entry may move back to the hole only if that does not put
            // it before its home slot (cyclically).
            let home = self.home(k.flat_hash());
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots.swap(hole, i);
                hole = i;
            }
            i = (i + 1) & mask;
        }
        Some(value)
    }

    /// Keep only the entries `keep` approves; returns how many were
    /// removed. When any were, the slot array is rebuilt at the size the
    /// survivors need, which is also how a table shrinks.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) -> usize {
        let mut removed = 0;
        for slot in &mut self.slots {
            if let Some((k, v)) = slot {
                if !keep(k, v) {
                    *slot = None;
                    removed += 1;
                }
            }
        }
        if removed > 0 {
            self.len -= removed;
            self.rebuild(slots_for(self.len));
        }
        removed
    }

    /// Every entry, in slot order (a function of the insert / remove
    /// history: use it for order-insensitive work only).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots.iter().flatten().map(|(k, v)| (k, v))
    }

    /// Every entry with mutable values, in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.slots.iter_mut().flatten().map(|(k, v)| (&*k, v))
    }

    /// Every entry in ascending key order: what iterating the `BTreeMap`
    /// this table replaces would give.
    fn sorted(&self) -> Vec<(&K, &V)> {
        let mut all: Vec<(&K, &V)> = self.iter().collect();
        all.sort_unstable_by_key(|(k, _)| **k);
        all
    }

    /// Fold the entries in ascending key order (so the digest does not
    /// depend on the slot layout): the count, then `entry` per entry.
    pub fn fold_digest(&self, d: &mut Digest, mut entry: impl FnMut(&mut Digest, &K, &V)) {
        d.write_u64(self.len as u64);
        for (k, v) in self.sorted() {
            entry(d, k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_sim::SimRng;
    use std::collections::BTreeMap;

    /// A key whose hash the test controls, to force collisions and
    /// wrap-around probe runs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Key {
        id: u32,
        hash: u64,
    }

    impl FlatKey for Key {
        fn flat_hash(&self) -> u64 {
            self.hash
        }
    }

    fn key(id: u32) -> Key {
        Key { id, hash: crate::ecmp::fmix64(id as u64) }
    }

    /// Keys that all share one home slot in any table size.
    fn colliding(id: u32) -> Key {
        Key { id, hash: 0 }
    }

    /// Keys homed in the last slot of an 8-slot table, so probe runs wrap.
    fn wrapping(id: u32) -> Key {
        let hash = (0u64..).find(|h| h.wrapping_mul(PHI) >> 61 == 7).unwrap_or(0);
        Key { id, hash }
    }

    /// Insert or overwrite, as `BTreeMap::insert` does.
    fn upsert(t: &mut FlatTable<Key, u64>, k: Key, v: u64) -> Option<u64> {
        match t.get_mut(k.hash, &k) {
            Some(old) => Some(std::mem::replace(old, v)),
            None => {
                t.insert_new(k.hash, k, v);
                None
            }
        }
    }

    fn check_against(table: &FlatTable<Key, u64>, model: &BTreeMap<Key, u64>) {
        assert_eq!(table.len(), model.len());
        let sorted: Vec<(Key, u64)> = table.sorted().into_iter().map(|(k, v)| (*k, *v)).collect();
        let expect: Vec<(Key, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(sorted, expect);
        for (k, v) in model {
            assert_eq!(table.get(k.hash, k), Some(v));
        }
    }

    #[test]
    fn empty_table_allocates_nothing_and_answers() {
        let t: FlatTable<Key, u64> = FlatTable::new();
        assert!(t.is_empty());
        assert_eq!(t.slots.capacity(), 0);
        assert_eq!(t.get(key(1).hash, &key(1)), None);
    }

    #[test]
    fn insert_get_overwrite_remove() {
        let mut t = FlatTable::new();
        assert_eq!(upsert(&mut t, key(1), 10), None);
        assert_eq!(upsert(&mut t, key(1), 11), Some(10));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(key(1).hash, &key(1)), Some(&11));
        assert_eq!(t.remove(key(1).hash, &key(1)), Some(11));
        assert_eq!(t.remove(key(1).hash, &key(1)), None);
        assert!(t.is_empty());
    }

    #[test]
    fn grows_by_doubling_and_keeps_every_entry() {
        let mut t = FlatTable::new();
        let mut sizes = Vec::new();
        for i in 0..1000u32 {
            t.insert_new(key(i).hash, key(i), i as u64);
            if sizes.last() != Some(&t.slots.len()) {
                sizes.push(t.slots.len());
            }
        }
        assert_eq!(sizes, vec![8, 16, 32, 64, 128, 256, 512, 1024, 2048]);
        for i in 0..1000u32 {
            assert_eq!(t.get(key(i).hash, &key(i)), Some(&(i as u64)));
        }
    }

    #[test]
    fn backward_shift_keeps_colliding_runs_reachable() {
        for make in [colliding as fn(u32) -> Key, wrapping] {
            let mut t = FlatTable::new();
            for i in 0..5 {
                t.insert_new(make(i).hash, make(i), i as u64);
            }
            // Remove from the middle, the head and the tail of the run.
            for gone in [2u32, 0, 4] {
                assert_eq!(t.remove(make(gone).hash, &make(gone)), Some(gone as u64));
                for i in 0..5u32 {
                    let present = t.get(make(i).hash, &make(i)).is_some();
                    assert_eq!(present, t.iter().any(|(k, _)| k.id == i), "key {i}");
                }
            }
            assert_eq!(t.len(), 2);
            // Delete-then-reinsert lands in the freed space.
            t.insert_new(make(2).hash, make(2), 22);
            assert_eq!(t.get(make(2).hash, &make(2)), Some(&22));
        }
    }

    #[test]
    fn retain_shrinks_to_the_survivors() {
        let mut t = FlatTable::new();
        for i in 0..1000u32 {
            t.insert_new(key(i).hash, key(i), i as u64);
        }
        assert_eq!(t.retain(|_, _| true), 0);
        assert_eq!(t.slots.len(), 2048, "nothing removed, nothing rebuilt");
        assert_eq!(t.retain(|k, _| k.id < 10), 990);
        assert_eq!(t.len(), 10);
        assert_eq!(t.slots.len(), 16);
        assert_eq!(t.retain(|_, _| false), 10);
        assert!(t.slots.is_empty());
    }

    /// Seeded differential test against a `BTreeMap` model: random
    /// insert / overwrite / remove / retain / lookup sequences over a key
    /// space small enough to collide and large enough to double.
    #[test]
    fn matches_a_btreemap_model_under_random_operations() {
        let mut rng = SimRng::seed(0xF1A7_0001);
        for case in 0..40 {
            let mut t: FlatTable<Key, u64> = FlatTable::new();
            let mut model: BTreeMap<Key, u64> = BTreeMap::new();
            let space = [16usize, 200, 3000][case % 3];
            // A third of the cases use a degenerate hash (four home slots).
            let mk = |id: u32| if case % 3 == 0 { Key { id, hash: (id % 4) as u64 } } else { key(id) };
            for step in 0..4000 {
                let k = mk(rng.index(space) as u32);
                match rng.index(10) {
                    0..=4 => {
                        assert_eq!(upsert(&mut t, k, step), model.insert(k, step));
                    }
                    5..=7 => {
                        assert_eq!(t.remove(k.hash, &k), model.remove(&k));
                    }
                    8 => {
                        assert_eq!(t.get(k.hash, &k), model.get(&k));
                        if let Some(v) = t.get_mut(k.hash, &k) {
                            *v += 1;
                        }
                        if let Some(v) = model.get_mut(&k) {
                            *v += 1;
                        }
                    }
                    _ => {
                        if rng.chance(0.05) {
                            let cut = rng.index(space) as u32;
                            let before = model.len();
                            model.retain(|k, _| k.id >= cut);
                            assert_eq!(t.retain(|k, _| k.id >= cut), before - model.len());
                        }
                    }
                }
                if step % 500 == 0 {
                    check_against(&t, &model);
                }
            }
            check_against(&t, &model);
        }
    }

    #[test]
    fn digest_is_layout_independent() {
        let mut a = FlatTable::new();
        let mut b = FlatTable::new();
        for i in 0..100u32 {
            upsert(&mut a, key(i), i as u64);
        }
        for i in (0..100u32).rev() {
            upsert(&mut b, key(i), i as u64);
        }
        // Same contents, different histories (and a different slot count).
        upsert(&mut b, key(500), 0);
        b.remove(key(500).hash, &key(500));
        let fold = |t: &FlatTable<Key, u64>| {
            let mut d = Digest::new();
            t.fold_digest(&mut d, |d, k, v| {
                d.write_u64(k.id as u64).write_u64(*v);
            });
            d.value()
        };
        assert_eq!(fold(&a), fold(&b));
        upsert(&mut b, key(3), 99);
        assert_ne!(fold(&a), fold(&b));
    }
}
