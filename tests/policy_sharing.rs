//! A policy version is shared whole at every layer that holds it.
//!
//! The operator's 64-tenant document is pushed to 24 gateways: each stages a
//! clone, commits it, and installs the compiled set on its node's L4 filter.
//! A clone of a version, at any of those layers (the staged and running
//! spec, the compiled set's sources, the filter's set), counts one reference
//! on the version's list and none on its tenants. So a tenant's node is held
//! by as many lists as there are distinct versions that hold it, never by as
//! many as the fleet has copies. What the sharing must leave as it was:
//! which tables two sets share, and that a later edit of the operator's copy
//! reaches nothing staged or running.

use canal::gateway::ActivePolicy;
use canal::mesh::L4Filter;
use canal::net::{TenantId, VpcId};
use canal::policy::{
    CompiledPolicySet, L4Ctx, L4Verdict, PolicyRule, PolicySpec, PolicyVerdict, TenantPolicy,
};
use canal::sim::{Digest, Fold, SimTime};
use std::sync::Arc;

const FLEET: usize = 24;
const TENANTS: usize = 64;

/// Tenant `t` denies port 22 and admits ports 80 to 1000.
fn tenant(t: u32) -> TenantPolicy {
    TenantPolicy {
        tenant: TenantId(t),
        vpc: VpcId(t),
        rules: vec![PolicyRule::deny().with_ports(22, 22), PolicyRule::allow().with_ports(80, 1000)],
        default_action: PolicyVerdict::Deny,
    }
}

fn probe(t: u32, dst_port: u16) -> L4Ctx {
    L4Ctx { tenant: TenantId(t), vpc: VpcId(t), src_ip: 1, dst_port, identity: 0 }
}

/// A gateway's policy slot and the filter of the node behind it.
struct Member {
    slot: ActivePolicy,
    filter: L4Filter,
}

impl Member {
    fn push(&mut self, document: &PolicySpec, commit: bool) {
        self.slot.stage(document.clone());
        if commit {
            let now = SimTime::from_secs(document.version);
            assert_eq!(self.slot.commit_staged(now), Ok(document.version));
            self.filter.install(self.compiled());
        }
    }

    /// A clone of the set running: two counts, none per tenant.
    fn compiled(&self) -> CompiledPolicySet {
        self.slot.compiled().cloned().unwrap_or_else(CompiledPolicySet::empty)
    }

    /// A clone of the spec running: one count, none per tenant.
    fn running(&self) -> PolicySpec {
        self.slot.running().map(|(spec, _)| spec.clone()).unwrap_or_default()
    }
}

/// Every tenant of `spec` but those at `edited` is held by at most
/// `versions` lists: one per distinct version, whatever the fleet size.
fn assert_held_once_per_version(spec: &PolicySpec, edited: &[usize], versions: usize) {
    for (i, node) in spec.tenants.shared().iter().enumerate() {
        if !edited.contains(&i) {
            let count = Arc::strong_count(node);
            assert!(count <= versions, "tenant {}: {count} holders, {versions} versions", i + 1);
        }
    }
}

#[test]
fn a_fleet_holds_a_version_once_and_an_operator_edit_reaches_none_of_it() {
    let mut operator = PolicySpec { version: 1, tenants: (1..=TENANTS as u32).map(tenant).collect() };
    let mut fleet: Vec<Member> =
        (0..FLEET).map(|_| Member { slot: ActivePolicy::new(), filter: L4Filter::new() }).collect();

    // Version 1 everywhere: 24 staged-then-running specs, 24 compiled sets
    // and 24 filters, and one list holding each tenant.
    for member in &mut fleet {
        member.push(&operator, true);
    }
    assert_held_once_per_version(&operator, &[], 1);
    let first = fleet[0].compiled();
    for member in &mut fleet {
        assert_eq!(member.compiled().shared_tenants(&first), TENANTS);
        assert_eq!(member.running().tenants.shared_tenants(&operator.tenants), TENANTS);
        assert_eq!(member.filter.version(), 1);
        assert_eq!(member.filter.admit(&probe(6, 22)), L4Verdict::Deny);
        assert_eq!(member.filter.admit(&probe(6, 1001)), L4Verdict::Deny);
    }

    // Version 2 opens tenant 6 to port 1001. Half the fleet commits it; the
    // other half stages it and keeps running version 1.
    operator.version = 2;
    operator.tenants[5].rules[1] = PolicyRule::allow().with_ports(80, 1001);
    for (i, member) in fleet.iter_mut().enumerate() {
        member.push(&operator, i < FLEET / 2);
    }
    assert_held_once_per_version(&operator, &[5], 2);
    let (ran_v2, ran_v1) = (fleet[0].compiled(), fleet[FLEET - 1].compiled());
    assert_eq!(ran_v2.version(), 2);
    assert_eq!(ran_v2.shared_tenants(&first), TENANTS - 1, "tenant 6 alone is new");
    assert_eq!(ran_v1.shared_tenants(&first), TENANTS);
    for (i, member) in fleet.iter_mut().enumerate() {
        let (ran, version, opened) =
            if i < FLEET / 2 { (&ran_v2, 2, L4Verdict::Allow) } else { (&ran_v1, 1, L4Verdict::Deny) };
        assert_eq!(member.compiled().shared_tenants(ran), TENANTS, "gateway {i}");
        assert_eq!(member.filter.version(), version, "gateway {i}");
        assert_eq!(member.filter.admit(&probe(6, 1001)), opened, "gateway {i}");
        assert_eq!(member.slot.staged().map(|spec| spec.version), (i >= FLEET / 2).then_some(2));
    }

    // The operator goes on editing its copy towards version 3, with every
    // kind of edit. None of it reaches a staged or running spec, a compiled
    // set or a filter, by value, by digest or by allocation.
    let seen = |fleet: &[Member]| -> Vec<(Option<PolicySpec>, PolicySpec, u64, u64)> {
        fleet
            .iter()
            .map(|member| {
                let slot = Digest::of(|d| member.slot.fold(d)).value();
                let filter = Digest::of(|d| member.filter.fold(d)).value();
                (member.slot.staged().cloned(), member.running(), slot, filter)
            })
            .collect()
    };
    let deep = |spec: &PolicySpec| PolicySpec {
        version: spec.version,
        tenants: spec.tenants.iter().cloned().collect(),
    };
    let was = seen(&fleet);
    let was_deep: Vec<(Option<PolicySpec>, PolicySpec)> =
        was.iter().map(|(staged, running, _, _)| (staged.as_ref().map(deep), deep(running))).collect();

    operator.version = 3;
    operator.tenants[7].rules[0].action = PolicyVerdict::Allow;
    operator.tenants.push(tenant(TENANTS as u32 + 1));
    operator.tenants.swap(1, 2);
    operator.tenants.rotate_left(3);
    drop(operator.tenants.remove(0));
    operator.tenants.insert(0, tenant(TENANTS as u32 + 2));

    let now = seen(&fleet);
    assert_eq!(now, was);
    for ((staged, running, _, _), (staged_deep, running_deep)) in now.iter().zip(&was_deep) {
        assert_eq!((staged.as_ref(), running), (staged_deep.as_ref(), running_deep));
    }
    for ((staged, running, _, _), (staged_was, running_was, _, _)) in now.iter().zip(&was) {
        assert_eq!(running.tenants.shared_tenants(&running_was.tenants), running.tenants.shared().len());
        if let (Some(staged), Some(staged_was)) = (staged, staged_was) {
            assert_eq!(staged.tenants.shared_tenants(&staged_was.tenants), TENANTS);
        }
    }
    // Three versions are held now: 1 (half the fleet's running specs, sets
    // and filters), 2 (the other half's, and the staged copies) and the
    // operator's draft of 3. The clones `seen` took count on the lists
    // alone.
    let edited: Vec<usize> = operator
        .tenants
        .iter()
        .enumerate()
        .filter(|(_, tp)| [6, 8].contains(&tp.tenant.0) || tp.tenant.0 > TENANTS as u32)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(edited.len(), 4);
    assert_held_once_per_version(&operator, &edited, 3);
}
