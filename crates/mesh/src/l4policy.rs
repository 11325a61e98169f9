//! The node-side L4 policy enforcement point.
//!
//! The paper's sidecar-free bet is that the *node* keeps only the thin L4
//! layer (vSwitch, labeling) while rich L7 work centralizes at the
//! gateway. Policy enforcement splits the same way: [`L4Filter`] holds the
//! compiled policy set and admits or rejects flows on L4 context alone
//! (source address, destination port, verified identity). Flows
//! whose first candidate rule carries L7 predicates come back
//! [`L4Verdict::NeedsL7`] — the node forwards them and the gateway's
//! `ActivePolicy` (the second and final enforcement point) decides on full
//! request context. Both points hold the same tables, not a copy each:
//! cloning a [`CompiledPolicySet`] costs two reference counts (its tenant
//! index and its sources) whatever the number of tenants, and shares every
//! tenant's immutable tables, so what a node installs is the gateway's set,
//! and it keeps the version it enforces alive however many versions the
//! gateway commits meanwhile.
//! All three architecture arms share this filter; what differs per arm is
//! only *where* it runs (sidecar pod, ambient node proxy, canal vSwitch).

use canal_policy::{CompiledPolicySet, L4Ctx, L4Verdict};
use canal_sim::Fold;

/// Per-node L4 policy filter plus admission counters.
#[derive(Debug)]
pub struct L4Filter {
    set: CompiledPolicySet,
    allowed: u64,
    denied: u64,
    deferred: u64,
}

impl Default for L4Filter {
    fn default() -> Self {
        L4Filter::new()
    }
}

impl L4Filter {
    /// A filter with no installed policy: every flow of every tenant is
    /// denied (zero trust) until [`L4Filter::install`] runs.
    pub fn new() -> Self {
        L4Filter {
            set: CompiledPolicySet::empty(),
            allowed: 0,
            denied: 0,
            deferred: 0,
        }
    }

    /// Swap in a newly compiled policy set: a clone of what the gateway
    /// committed, which shares its tables. Counters survive the swap.
    pub fn install(&mut self, set: CompiledPolicySet) {
        self.set = set;
    }

    /// The policy version currently enforced.
    pub fn version(&self) -> u64 {
        self.set.version()
    }

    /// Evaluate one flow; counts the outcome.
    pub fn admit(&mut self, ctx: &L4Ctx) -> L4Verdict {
        let v = self.set.l4_verdict(ctx);
        match v {
            L4Verdict::Allow => self.allowed += 1,
            L4Verdict::Deny => self.denied += 1,
            L4Verdict::NeedsL7 => self.deferred += 1,
        }
        v
    }

    /// Fold the installed set and the `allowed`, `denied` and
    /// `deferred` (to L7) counts since construction.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self { set, allowed, denied, deferred } = self;
        f.scope("set", |f| set.fold(f));
        f.count("allowed", *allowed).count("denied", *denied).count("deferred", *deferred);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_net::{TenantId, VpcId};
    use canal_policy::{Cidr, PolicyRule, PolicySpec, PolicyVerdict, TenantPolicy};

    fn ctx(tenant: u32, src_ip: u32, dst_port: u16) -> L4Ctx {
        L4Ctx { tenant: TenantId(tenant), vpc: VpcId(tenant), src_ip, dst_port, identity: 0 }
    }

    fn spec() -> PolicySpec {
        PolicySpec {
            version: 1,
            tenants: [TenantPolicy {
                tenant: TenantId(1),
                vpc: VpcId(1),
                rules: vec![
                    PolicyRule::deny().with_source_cidr(Cidr::new(0x0A00_C800, 24)),
                    PolicyRule::deny().with_method("DELETE").with_path_prefix("/admin"),
                    PolicyRule::allow(),
                ],
                default_action: PolicyVerdict::Deny,
            }]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn uninstalled_filter_denies_everything() {
        let mut f = L4Filter::new();
        assert_eq!(f.admit(&ctx(1, 1, 80)), L4Verdict::Deny);
        assert_eq!((f.allowed, f.denied, f.deferred), (0, 1, 0));
    }

    #[test]
    fn counts_allow_deny_and_deferral() {
        let mut f = L4Filter::new();
        f.install(CompiledPolicySet::compile(&spec()).unwrap());
        assert_eq!(f.version(), 1);
        // Blocked CIDR: fast L4 deny, no L7 involvement.
        assert_eq!(f.admit(&ctx(1, 0x0A00_C805, 80)), L4Verdict::Deny);
        // Everything else hits the DELETE /admin rule first → defer.
        assert_eq!(f.admit(&ctx(1, 0x0A00_0105, 80)), L4Verdict::NeedsL7);
        // Unknown tenant: deny.
        assert_eq!(f.admit(&ctx(9, 1, 80)), L4Verdict::Deny);
        assert_eq!((f.allowed, f.denied, f.deferred), (0, 2, 1));
    }

    /// The filter holds the gateway's tables, not a copy, and later versions
    /// are compiled on top of the tenants they share with it: none of that
    /// may move what a node still on the old version enforces.
    #[test]
    fn a_filter_keeps_its_version_while_later_ones_share_its_tables() {
        let mut v1 = spec();
        v1.tenants.push(TenantPolicy { tenant: TenantId(2), vpc: VpcId(2), ..v1.tenants[0].clone() });
        let set1 = CompiledPolicySet::compile(&v1).unwrap();
        let mut f = L4Filter::new();
        f.install(set1.clone());
        assert_eq!(set1.shared_tenants(&f.set), 2);

        // Version 2 lifts tenant 1's CIDR block, version 3 denies it everything.
        let mut v2 = PolicySpec { version: 2, ..v1.clone() };
        v2.tenants[0].rules.remove(0);
        let set2 = CompiledPolicySet::compile_against(&v2, Some(&set1)).unwrap();
        let mut v3 = PolicySpec { version: 3, ..v2.clone() };
        v3.tenants[0].rules = vec![PolicyRule::deny()];
        let set3 = CompiledPolicySet::compile_against(&v3, Some(&set2)).unwrap();
        drop((set1, set2));

        assert_eq!(set3.shared_tenants(&f.set), 1, "tenant 2 is one copy across all three");
        assert_eq!(set3.l4_verdict(&ctx(1, 0x0A00_0105, 80)), L4Verdict::Deny);
        assert_eq!(f.version(), 1);
        for tenant in [1, 2] {
            assert_eq!(f.admit(&ctx(tenant, 0x0A00_C805, 80)), L4Verdict::Deny, "version 1's block");
            assert_eq!(f.admit(&ctx(tenant, 0x0A00_0105, 80)), L4Verdict::NeedsL7);
        }
    }
}
