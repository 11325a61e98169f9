//! The Beamer-style redirector behind LB disaggregation (§4.4, App. C,
//! Fig. 26).
//!
//! The router's ECMP hash breaks session consistency whenever the replica
//! list changes. The fix: every replica runs a *redirector* holding a
//! fixed-size per-service bucket table. A flow's bucket never changes
//! (fixed bucket count); each bucket stores a priority-ordered *replica
//! chain*:
//!
//! * a SYN (new flow) is served by the chain head — the newest/preferred
//!   replica;
//! * a non-SYN packet walks the chain until it finds the replica that owns
//!   the flow (session state), redirecting hop by hop.
//!
//! The paper's modifications to Beamer: chains longer than 2 (consecutive
//! scale events), per-service tables indexed by the global service id (the
//! gateway keeps each service's tables in that service's slot, see
//! [`crate::gateway`]), and eBPF execution (a cost constant, not a logic
//! change).

use canal_net::{FiveTuple, FlowHash};
use canal_sim::Fold;
use std::num::NonZeroUsize;
use std::sync::Arc;

/// Where a packet ended up and how many chain redirections it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchDecision {
    /// Replica index chosen.
    pub replica: usize,
    /// Chain hops beyond the first lookup (0 = served where it landed).
    pub redirect_hops: usize,
}

/// Marks the unused tail of a bucket's chain slots.
const NO_REPLICA: usize = usize::MAX;

/// A per-service bucket table: one flat array of `max_chain` slots per
/// bucket (chain entries first, head = highest priority), so a dispatch
/// touches one contiguous run of memory whatever the bucket count.
///
/// The array is copy-on-write: a clone shares it until either side's
/// chains change. A gateway installs thousands of tables that start out
/// identical (every service on every backend it is placed on) and differ
/// only after a scale or offline event on their backend, so until then
/// they are one array that stays in cache, not megabytes of copies that
/// each packet misses into.
#[derive(Debug, Clone)]
pub struct BucketTable {
    slots: Arc<[usize]>,
    n_buckets: NonZeroUsize,
    max_chain: usize,
}

impl BucketTable {
    /// Table with `n_buckets` buckets spread over `replicas`, allowing
    /// chains up to `max_chain` long (paper: > 2).
    pub fn new(n_buckets: usize, replicas: &[usize], max_chain: usize) -> Self {
        assert!(n_buckets > 0 && !replicas.is_empty() && max_chain >= 2);
        assert!(!replicas.contains(&NO_REPLICA));
        let mut slots = vec![NO_REPLICA; n_buckets * max_chain];
        for (b, chain) in slots.chunks_exact_mut(max_chain).enumerate() {
            chain[0] = replicas[b % replicas.len()];
        }
        BucketTable {
            slots: slots.into(),
            n_buckets: NonZeroUsize::new(n_buckets).unwrap_or(NonZeroUsize::MIN),
            max_chain,
        }
    }

    /// Number of buckets (fixed for the table's lifetime).
    pub fn len(&self) -> usize {
        self.n_buckets.get()
    }

    /// Whether the table has no buckets (never true after construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The live prefix of one bucket's slots.
    fn live(slots: &[usize]) -> &[usize] {
        let len = slots.iter().position(|&r| r == NO_REPLICA).unwrap_or(slots.len());
        &slots[..len]
    }

    /// Every bucket's chain, in bucket order.
    fn chains(&self) -> impl Iterator<Item = &[usize]> {
        self.slots.chunks_exact(self.max_chain).map(Self::live)
    }

    /// The chain of a bucket (head = highest priority).
    pub fn chain(&self, bucket: usize) -> &[usize] {
        Self::live(&self.slots[bucket * self.max_chain..(bucket + 1) * self.max_chain])
    }

    /// Put `replica` at the head of a bucket's slots; the entry past
    /// `max_chain` falls off the tail.
    fn prepend(slots: &mut [usize], replica: usize) {
        slots.rotate_right(1);
        slots[0] = replica;
    }

    /// Prepend `replacement` in every bucket whose head is `leaving` — the
    /// Beamer take-offline step: new flows go to the replacement while
    /// established flows chain back to `leaving` until they age out.
    pub fn replica_going_offline(&mut self, leaving: usize, replacement: usize) {
        assert_ne!(leaving, replacement);
        assert_ne!(replacement, NO_REPLICA);
        let max_chain = self.max_chain;
        for chain in Arc::make_mut(&mut self.slots).chunks_exact_mut(max_chain) {
            if chain[0] == leaving {
                Self::prepend(chain, replacement);
            }
        }
    }

    /// Finish an offline: drop `leaving` from all chains (its flows have
    /// aged out; see [`crate::sandbox`] for the drain timing).
    pub fn replica_removed(&mut self, leaving: usize) {
        let max_chain = self.max_chain;
        for chain in Arc::make_mut(&mut self.slots).chunks_exact_mut(max_chain) {
            let mut kept = 0;
            for i in 0..chain.len() {
                if chain[i] != leaving && chain[i] != NO_REPLICA {
                    chain[kept] = chain[i];
                    kept += 1;
                }
            }
            chain[kept..].fill(NO_REPLICA);
        }
        // A bucket must never end up empty; that would be a config error the
        // controller prevents by sequencing replacement before removal.
        debug_assert!(self.chains().all(|c| !c.is_empty()));
    }

    /// Scale-out: the new replica takes over ~1/(n+1) of buckets by
    /// prepending itself, shifting old heads down the chain.
    pub fn replica_added(&mut self, new_replica: usize, take_every: usize) {
        assert!(take_every > 0);
        assert_ne!(new_replica, NO_REPLICA);
        let max_chain = self.max_chain;
        for (i, chain) in Arc::make_mut(&mut self.slots).chunks_exact_mut(max_chain).enumerate() {
            if i % take_every == 0 && chain[0] != new_replica {
                Self::prepend(chain, new_replica);
            }
        }
    }

    /// Dispatch one packet. `has_flow(replica, tuple)` is the session-state
    /// oracle (the replica's kernel/session table).
    pub fn dispatch<F: Fn(usize, &FiveTuple) -> bool>(
        &self,
        tuple: &FiveTuple,
        syn: bool,
        has_flow: F,
    ) -> DispatchDecision {
        self.dispatch_hashed(FlowHash::of(tuple), syn, |replica| has_flow(replica, tuple))
    }

    /// [`BucketTable::dispatch`] for a packet whose flow hash is already
    /// known; the oracle closes over the tuple itself.
    pub(crate) fn dispatch_hashed<F: Fn(usize) -> bool>(
        &self,
        hash: FlowHash,
        syn: bool,
        has_flow: F,
    ) -> DispatchDecision {
        let chain = self.chain(hash.bucket(self.n_buckets));
        let head = chain.first().copied().unwrap_or(NO_REPLICA);
        if syn {
            // New flows insert at the head (highest priority).
            return DispatchDecision {
                replica: head,
                redirect_hops: 0,
            };
        }
        // Established flows walk the chain to their owner.
        for (hops, &replica) in chain.iter().enumerate() {
            if has_flow(replica) {
                return DispatchDecision {
                    replica,
                    redirect_hops: hops,
                };
            }
        }
        // No owner anywhere (e.g. state aged out): treat like a new flow at
        // the head; the replica will RST/re-establish.
        DispatchDecision {
            replica: head,
            redirect_hops: chain.len().saturating_sub(1),
        }
    }

    /// Fold every bucket's chain (`slots`, as chain length then entries)
    /// and the `max_chain` cap into a digest.
    pub(crate) fn fold(&self, f: &mut impl Fold) {
        let Self {
            n_buckets, max_chain,
            slots: _, // folded through `chains`, one chain per bucket
        } = self;
        f.write_u64(n_buckets.get() as u64);
        for chain in self.chains() {
            f.write_u64(chain.len() as u64);
            for &r in chain {
                f.write_u64(r as u64);
            }
        }
        f.write_u64(*max_chain as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_sim::Digest;
    use canal_net::{Endpoint, VpcAddr, VpcId};
    use std::collections::HashSet;

    fn tuple(sport: u16) -> FiveTuple {
        FiveTuple::tcp(
            Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 0, 1), sport),
            Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 9, 9), 443),
        )
    }

    #[test]
    fn syn_goes_to_chain_head() {
        let t = BucketTable::new(64, &[0, 1, 2], 4);
        let d = t.dispatch(&tuple(1000), true, |_, _| false);
        let bucket = FlowHash::of(&tuple(1000)).bucket(NonZeroUsize::new(64).unwrap());
        let head = t.chain(bucket)[0];
        assert_eq!(d.replica, head);
        assert_eq!(d.redirect_hops, 0);
    }

    #[test]
    fn established_flow_found_via_chain_walk() {
        // The Fig. 26 case: IP2 going offline, IP3 prepended. An established
        // flow owned by IP2 must still reach IP2 with one redirect hop.
        let mut t = BucketTable::new(64, &[2], 4); // all buckets head = 2
        t.replica_going_offline(2, 3);
        let tup = tuple(4242);
        let d = t.dispatch(&tup, false, |replica, _| replica == 2);
        assert_eq!(d.replica, 2);
        assert_eq!(d.redirect_hops, 1);
        // A new flow (SYN) lands on the replacement.
        let d_new = t.dispatch(&tup, true, |_, _| false);
        assert_eq!(d_new.replica, 3);
    }

    #[test]
    fn drained_replica_can_be_removed() {
        let mut t = BucketTable::new(32, &[2], 4);
        t.replica_going_offline(2, 3);
        // Flows aged out: nothing owns them at 2 anymore.
        t.replica_removed(2);
        for b in 0..t.len() {
            assert!(!t.chain(b).contains(&2));
            assert!(!t.chain(b).is_empty());
        }
        let d = t.dispatch(&tuple(777), false, |_, _| false);
        assert_eq!(d.replica, 3);
    }

    #[test]
    fn consecutive_offline_events_need_long_chains() {
        // The paper's modification: chains > 2 to survive consecutive
        // crashes ("query of death"). Two replicas die back-to-back.
        let mut t = BucketTable::new(16, &[1], 4);
        t.replica_going_offline(1, 2); // chain: [2, 1]
        t.replica_going_offline(2, 3); // chain: [3, 2, 1]
        assert_eq!(t.chains().map(<[usize]>::len).max(), Some(3));
        // A flow still owned by the original replica 1 is reachable.
        let d = t.dispatch(&tuple(5), false, |r, _| r == 1);
        assert_eq!(d.replica, 1);
        assert_eq!(d.redirect_hops, 2);
        // Chains never exceed the cap.
        t.replica_going_offline(3, 4);
        t.replica_going_offline(4, 5);
        assert!(t.chains().all(|c| c.len() <= 4));
    }

    #[test]
    fn scale_out_splits_new_flows_but_keeps_old_ones() {
        let mut t = BucketTable::new(64, &[0, 1], 4);
        t.replica_added(9, 2); // replica 9 takes ~half the buckets
        let mut new_on_9 = 0;
        let mut old_kept = 0;
        for sport in 0..512u16 {
            let tup = tuple(40_000 + sport);
            let new_flow = t.dispatch(&tup, true, |_, _| false);
            if new_flow.replica == 9 {
                new_on_9 += 1;
            }
            // An established flow on replica 0 stays on replica 0.
            let old = t.dispatch(&tup, false, |r, _| r == 0);
            if old.replica == 0 {
                old_kept += 1;
            }
        }
        assert!(new_on_9 > 128, "new replica got {new_on_9}/512 new flows");
        // Every old flow owned by 0 still reaches 0 (if 0 is in its chain).
        assert!(old_kept > 0);
    }

    #[test]
    fn session_consistency_property_across_replica_change() {
        // Property: for any set of established flows pinned to their
        // original owners, a going-offline event never reroutes them.
        let mut t = BucketTable::new(128, &[0, 1, 2], 4);
        // Establish: each flow owned by its original SYN target.
        let owners: Vec<(FiveTuple, usize)> = (0..256u16)
            .map(|i| {
                let tup = tuple(1000 + i);
                let d = t.dispatch(&tup, true, |_, _| false);
                (tup, d.replica)
            })
            .collect();
        t.replica_going_offline(1, 2);
        for (tup, owner) in &owners {
            let d = t.dispatch(tup, false, |r, tpl| {
                // The oracle: only the recorded owner has the flow.
                owners.iter().any(|(t2, o2)| t2 == tpl && *o2 == r)
            });
            assert_eq!(d.replica, *owner, "flow rerouted by scale event");
        }
    }

    #[test]
    fn clones_share_slots_until_one_side_changes() {
        let fresh = BucketTable::new(64, &[0, 1, 2], 4);
        let mut a = fresh.clone();
        let mut b = fresh.clone();
        assert!(Arc::ptr_eq(&a.slots, &fresh.slots) && Arc::ptr_eq(&b.slots, &fresh.slots));
        // An event gives that table an array of its own and leaves the
        // others as they were.
        a.replica_going_offline(1, 3);
        b.replica_added(9, 2);
        assert!(!Arc::ptr_eq(&a.slots, &fresh.slots) && !Arc::ptr_eq(&b.slots, &fresh.slots));
        for bucket in 0..64 {
            assert_eq!(fresh.chain(bucket), &[bucket % 3]);
            let want_a: &[usize] = if bucket % 3 == 1 { &[3, 1] } else { &[bucket % 3] };
            assert_eq!(a.chain(bucket), want_a);
            assert_eq!(b.chain(bucket)[0], if bucket % 2 == 0 { 9 } else { bucket % 3 });
        }
        let digest = |t: &BucketTable| {
            Digest::of(|f| t.fold(f)).value()
        };
        assert_eq!(digest(&fresh), digest(&BucketTable::new(64, &[0, 1, 2], 4)));
        assert_ne!(digest(&a), digest(&fresh));
    }

    #[test]
    fn buckets_cover_all_replicas() {
        let t = BucketTable::new(256, &[0, 1, 2, 3], 4);
        let heads: HashSet<usize> = (0..256).map(|b| t.chain(b)[0]).collect();
        assert_eq!(heads.len(), 4);
    }
}
