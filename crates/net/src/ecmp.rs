//! Flow hashing: ECMP replica selection and fixed-size bucket indexing.
//!
//! Two hash-based mappings drive the disaggregated load balancer (§4.4):
//!
//! * **ECMP** — the router in front of the replicas hashes the five-tuple
//!   modulo the *current replica count*. Packets of one flow always take the
//!   same path **while the replica list is stable**; a list change rehashes
//!   almost everything — exactly the inconsistency the Beamer-style
//!   redirector exists to absorb.
//! * **Bucket index** — the redirector hashes the five-tuple modulo a *fixed*
//!   bucket count, so a flow's bucket never changes regardless of scaling
//!   events. Consistency is then maintained per bucket via replica chains
//!   (see `canal-gateway::redirector`).
//!
//! The hash is FNV-1a over the canonical tuple encoding — stable across runs
//! and platforms (no `DefaultHasher`, whose output is randomized). A packet
//! is hashed **once**: [`FlowHash::of`] runs the 21-byte pass and every
//! consumer (ECMP, bucket choice, the session table's slot, the tunnel
//! choice) derives its index from that one value.

use crate::flat::FlatKey;
use crate::packet::FiveTuple;
use std::num::NonZeroUsize;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over arbitrary bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Murmur3-style 64-bit finalizer. FNV-1a alone is parity-preserving
/// (multiplication by an odd prime keeps the low bit a linear function of
/// the input bytes), which biases `hash % n` for even `n` when tuple fields
/// are correlated; the finalizer's shifts break that linearity.
#[inline]
pub(crate) fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// Deterministic 64-bit hash of a five-tuple (VPC-aware).
pub fn hash_five_tuple(t: &FiveTuple) -> u64 {
    let mut buf = [0u8; 21];
    buf[0..4].copy_from_slice(&t.src.addr.vpc.raw().to_be_bytes());
    buf[4..8].copy_from_slice(&t.src.addr.ip.to_be_bytes());
    buf[8..10].copy_from_slice(&t.src.port.to_be_bytes());
    buf[10..14].copy_from_slice(&t.dst.addr.vpc.raw().to_be_bytes());
    buf[14..18].copy_from_slice(&t.dst.addr.ip.to_be_bytes());
    buf[18..20].copy_from_slice(&t.dst.port.to_be_bytes());
    buf[20] = t.proto.number();
    fmix64(fnv1a(&buf))
}

/// The hash of one packet's five-tuple, computed once and handed to every
/// table on the packet's path. The counts are [`NonZeroUsize`]: an empty
/// next-hop pool or bucket table is rejected where the pool or table is
/// built, not by a panic per packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowHash(u64);

impl FlowHash {
    /// Hash a five-tuple (the only place the 21-byte pass runs).
    pub fn of(t: &FiveTuple) -> Self {
        FlowHash(hash_five_tuple(t))
    }

    /// The raw value, as [`hash_five_tuple`] returns it.
    pub fn value(self) -> u64 {
        self.0
    }

    /// ECMP selection: which of `n` next hops (live replicas, backends,
    /// tunnels) the router sends this flow to.
    pub fn select(self, n: NonZeroUsize) -> usize {
        (self.0 % n.get() as u64) as usize
    }

    /// Fixed-size bucket index for the redirector's bucket table.
    pub fn bucket(self, n_buckets: NonZeroUsize) -> usize {
        // A different mix than ECMP so the two mappings are independent.
        let h = self.0.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15;
        (h % n_buckets.get() as u64) as usize
    }
}

impl FlatKey for FiveTuple {
    fn flat_hash(&self) -> u64 {
        hash_five_tuple(self)
    }
}

/// Hash an outer tunnel source port to a vSwitch RSS core (§4.4 session
/// aggregation: tunnels are spread over cores by outer SPort).
pub fn rss_core_for_sport(sport: u16, cores: NonZeroUsize) -> usize {
    (fnv1a(&sport.to_be_bytes()) % cores.get() as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    const PINNED_HASH: u64 = 3_742_825_464_139_286_700;
    const PINNED_ECMP_BUCKET: (usize, usize) = (0, 3063);
    use crate::addr::{Endpoint, VpcAddr};
    use crate::ids::VpcId;
    use crate::packet::FiveTuple;

    fn ecmp_select(t: &FiveTuple, n: usize) -> usize {
        FlowHash::of(t).select(NonZeroUsize::new(n).unwrap())
    }

    fn bucket_of(t: &FiveTuple, n: usize) -> usize {
        FlowHash::of(t).bucket(NonZeroUsize::new(n).unwrap())
    }

    fn tuple(vpc: u32, src_last: u8, sport: u16, dport: u16) -> FiveTuple {
        FiveTuple::tcp(
            Endpoint::new(VpcAddr::new(VpcId(vpc), 10, 0, 0, src_last), sport),
            Endpoint::new(VpcAddr::new(VpcId(vpc), 10, 0, 1, 1), dport),
        )
    }

    #[test]
    fn hashing_is_deterministic() {
        let t = tuple(1, 5, 1234, 80);
        assert_eq!(hash_five_tuple(&t), hash_five_tuple(&t));
        assert_eq!(ecmp_select(&t, 7), ecmp_select(&t, 7));
    }

    #[test]
    fn overlapping_tenant_addresses_hash_differently() {
        // Same inner 5-tuple in two VPCs must not collide systematically.
        let a = tuple(1, 5, 1234, 80);
        let b = tuple(2, 5, 1234, 80);
        assert_ne!(hash_five_tuple(&a), hash_five_tuple(&b));
    }

    #[test]
    fn ecmp_spreads_flows_roughly_evenly() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for sport in 1000..5000u16 {
            let t = tuple(1, (sport % 200) as u8, sport, 80);
            counts[ecmp_select(&t, n)] += 1;
        }
        let total: usize = counts.iter().sum();
        let expect = total / n;
        for &c in &counts {
            assert!(
                (c as i64 - expect as i64).unsigned_abs() < (expect / 2) as u64,
                "imbalanced: {counts:?}"
            );
        }
    }

    #[test]
    fn replica_list_change_rehashes_flows() {
        // The motivating defect: changing n moves most flows.
        let moved = (1000..2000u16)
            .filter(|&sport| {
                let t = tuple(1, 1, sport, 80);
                ecmp_select(&t, 8) != ecmp_select(&t, 7)
            })
            .count();
        assert!(moved > 500, "only {moved} flows moved");
    }

    #[test]
    fn bucket_index_is_stable_under_replica_changes() {
        // Bucket count is fixed; replica churn cannot move a flow's bucket.
        let t = tuple(1, 9, 4321, 443);
        let before = bucket_of(&t, 4096);
        // ... replicas scale out/in; bucket table size unchanged ...
        let after = bucket_of(&t, 4096);
        assert_eq!(before, after);
    }

    #[test]
    fn bucket_and_ecmp_are_independent_mappings() {
        // If they were the same hash mod different n, correlations would
        // concentrate redirect load. Check they disagree on plenty of flows.
        let differing = (0..4096u16)
            .filter(|&sport| {
                let t = tuple(1, 1, sport.wrapping_add(1024), 80);
                ecmp_select(&t, 64) != bucket_of(&t, 64)
            })
            .count();
        assert!(differing > 3000);
    }

    #[test]
    fn rss_spreads_tunnel_sports() {
        let cores = NonZeroUsize::new(8).unwrap();
        let mut counts = vec![0usize; cores.get()];
        for sport in 40000..40080u16 {
            counts[rss_core_for_sport(sport, cores)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn flow_hash_is_the_published_five_tuple_hash() {
        // Digests fold `hash_five_tuple`; the once-per-packet hash must be
        // that same value, and these two pins keep it from drifting.
        let t = tuple(1, 5, 1234, 80);
        assert_eq!(FlowHash::of(&t).value(), hash_five_tuple(&t));
        assert_eq!(hash_five_tuple(&t), PINNED_HASH);
        assert_eq!((ecmp_select(&t, 7), bucket_of(&t, 4096)), PINNED_ECMP_BUCKET);
    }

    #[test]
    fn no_parity_bias_with_correlated_fields() {
        // Tuples whose source IP embeds the source port (as NAT-ish setups
        // produce) must still cover every residue of an even modulus.
        let mut hit = vec![false; 6];
        for sport in 0..256u16 {
            let t = FiveTuple::tcp(
                Endpoint::new(
                    VpcAddr::new(VpcId(1), 10, 0, (sport >> 8) as u8, sport as u8),
                    sport,
                ),
                Endpoint::new(VpcAddr::new(VpcId(1), 10, 9, 9, 9), 8000),
            );
            hit[ecmp_select(&t, 6)] = true;
        }
        assert!(hit.iter().all(|&h| h), "{hit:?}");
    }
}
