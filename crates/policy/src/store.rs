//! The bounded policy-version archive.
//!
//! The rollout controller's rollback targets must be materializable: when
//! a canary NACKs version *v*, the controller rolls the fleet back to the
//! last *converged* version, and the gateway needs that spec's compiled
//! form again. [`PolicyStore`] keeps the most recent
//! [`POLICY_RETAIN_CAP`] specs keyed by version, evicting the oldest and
//! counting evictions, so memory stays flat no matter how many pushes a
//! region sees. What it retains is documents that share their tenants
//! ([`TenantList`](crate::spec::TenantList)): a version costs the archive
//! the tenants its edit touched, and a push is a clone of [`PolicyStore::get`],
//! so the gateways of a wave share the archived tenants too, and with them
//! the tables compiled from each: a rollback to a retained version compiles
//! nothing, and those tables are dropped with the last document holding them.

use crate::spec::PolicySpec;
use canal_sim::Digest;
use std::collections::BTreeMap;

/// How many policy versions the archive retains; older entries are
/// evicted oldest-first.
pub const POLICY_RETAIN_CAP: usize = 16;

/// Bounded archive of pushed policy specs, keyed by version.
#[derive(Debug, Default)]
pub struct PolicyStore {
    by_version: BTreeMap<u64, PolicySpec>,
    evicted: u64,
}

impl PolicyStore {
    /// An empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a pushed spec under its version, evicting the oldest entry
    /// once [`POLICY_RETAIN_CAP`] is exceeded.
    pub fn record(&mut self, spec: PolicySpec) {
        self.by_version.insert(spec.version, spec);
        while self.by_version.len() > POLICY_RETAIN_CAP {
            if self.by_version.pop_first().is_none() {
                break;
            }
            self.evicted += 1;
        }
    }

    /// The spec pushed under `version`, if still retained.
    pub fn get(&self, version: u64) -> Option<&PolicySpec> {
        self.by_version.get(&version)
    }

    /// Number of retained specs.
    pub fn len(&self) -> usize {
        self.by_version.len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.by_version.is_empty()
    }

    /// How many specs have been evicted since construction.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Fold the archive into a digest.
    pub fn fold_digest(&self, d: &mut Digest) {
        d.write_u64(self.by_version.len() as u64).write_u64(self.evicted);
        for spec in self.by_version.values() {
            spec.fold_digest(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PolicyRule, PortRange, TenantNode, TenantPolicy};
    use canal_net::{TenantId, VpcId};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn spec(v: u64) -> PolicySpec {
        PolicySpec { version: v, ..PolicySpec::default() }
    }

    #[test]
    fn retains_at_most_the_cap_and_counts_evictions() {
        let mut store = PolicyStore::new();
        for v in 1..=(POLICY_RETAIN_CAP as u64 + 4) {
            store.record(spec(v));
        }
        assert_eq!(store.len(), POLICY_RETAIN_CAP);
        assert_eq!(store.evicted(), 4);
        assert!(store.get(1).is_none(), "oldest evicted");
        assert!(store.get(POLICY_RETAIN_CAP as u64 + 4).is_some());
    }

    /// Each version edits one tenant of the one before and is archived as a
    /// clone: a full archive of a 64-tenant document holds the first
    /// version's 64 tenants and one more per later version, not 16 x 64.
    #[test]
    fn a_full_archive_of_one_tenant_edits_holds_each_tenant_once() {
        const TENANTS: usize = 64;
        let mut spec = PolicySpec {
            version: 0,
            tenants: (1..=TENANTS as u32)
                .map(|t| TenantPolicy {
                    rules: vec![PolicyRule::allow().with_ports(80, 80)],
                    ..TenantPolicy::default_deny(TenantId(t), VpcId(t))
                })
                .collect(),
        };
        let mut store = PolicyStore::new();
        for v in 1..=POLICY_RETAIN_CAP as u64 + 3 {
            spec.version = v;
            spec.tenants[v as usize % TENANTS].rules[0].dest_ports = Some(PortRange { lo: 80, hi: 80 + v as u16 });
            store.record(spec.clone());
        }
        assert_eq!(store.len(), POLICY_RETAIN_CAP);
        let retained: Vec<&PolicySpec> = store.by_version.values().collect();
        for pair in retained.windows(2) {
            assert_eq!(pair[1].tenants.shared_tenants(&pair[0].tenants), TENANTS - 1);
            assert_ne!(pair[0], pair[1]);
        }
        let oldest_and_newest = retained[0].tenants.shared_tenants(&retained[POLICY_RETAIN_CAP - 1].tenants);
        assert_eq!(oldest_and_newest, TENANTS - (POLICY_RETAIN_CAP - 1));
        let allocations: BTreeSet<*const TenantNode> =
            retained.iter().flat_map(|s| s.tenants.shared()).map(Arc::as_ptr).collect();
        assert_eq!(allocations.len(), TENANTS + POLICY_RETAIN_CAP - 1, "64 + 15, not 1,024");
        // The operator's copy shares the newest entry whole and can be edited on.
        assert_eq!(spec.tenants.shared_tenants(&retained[POLICY_RETAIN_CAP - 1].tenants), TENANTS);
    }

    #[test]
    fn digest_tracks_content() {
        let mut a = PolicyStore::new();
        a.record(spec(1));
        let mut b = PolicyStore::new();
        b.record(spec(1));
        let mut da = Digest::new();
        a.fold_digest(&mut da);
        let mut db = Digest::new();
        b.fold_digest(&mut db);
        assert_eq!(da.value(), db.value());
        b.record(spec(2));
        let mut dc = Digest::new();
        b.fold_digest(&mut dc);
        assert_ne!(da.value(), dc.value());
    }
}
