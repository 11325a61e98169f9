//! The expressions `benchmark/` applies to a [`PolicySpec`], spelled as
//! `benchmark/src/gen.rs` and `benchmark/src/workloads/rollout.rs` spell
//! them. The benchmark is a package outside the workspace and may not be
//! edited by a change that claims a gain, so a break in the spec's list type
//! would otherwise surface only when `benchmark/run.sh` builds; here it
//! fails tier-1, and the comments say which file to read when it does.

use canal_net::{TenantId, VpcId};
use canal_policy::{
    reference_l7_verdict, Cidr, CompiledPolicySet, L4Ctx, L7Ctx, PolicyRule, PolicySpec,
    PolicyVerdict, TenantPolicy,
};

const RULES_PER_TENANT: usize = 3;

/// `gen.rs`, `policy_spec`: the list is whatever `collect()` infers from the
/// field it is moved into.
fn policy_spec(version: u64, tenants: u32, toggled: Option<u32>) -> PolicySpec {
    let specs = (0..tenants)
        .map(|t| {
            let mut rules = Vec::with_capacity(RULES_PER_TENANT);
            let base = if toggled == Some(t) { 0xAC10_0000 } else { 0xC0A8_0000 };
            rules.push(PolicyRule::deny().with_source_cidr(Cidr::new(base, 24)));
            rules.push(
                PolicyRule::deny().with_ports(80, 80).with_method("DELETE").with_path_prefix("/admin"),
            );
            rules.push(PolicyRule::allow().with_ports(1, u16::MAX));
            TenantPolicy {
                tenant: TenantId(t + 1),
                vpc: VpcId(t + 1),
                rules,
                default_action: PolicyVerdict::Deny,
            }
        })
        .collect();
    PolicySpec {
        version,
        tenants: specs,
    }
}

/// `rollout.rs`, `Fleet`: the operator's document lives in a field and each
/// rollout takes it out, edits one rule in place, pushes clones, puts it back.
struct Fleet {
    spec: PolicySpec,
}

#[test]
fn the_benchmarks_expressions_on_a_spec_compile_and_mean_what_they_meant() {
    let mut fleet = Fleet { spec: policy_spec(0, 4, None) };

    // `rollout.rs`, `Fleet::rollout`.
    let (tenant, rule) = (2, 0);
    let mut spec = std::mem::take(&mut fleet.spec);
    spec.version = 1;
    spec.tenants[tenant].rules[rule].source_cidr = Some(Cidr::new(0xAC10_0000, 24));
    assert!(CompiledPolicySet::compile(&spec).is_ok());
    let pushed = spec.clone();
    fleet.spec = spec;

    // `rollout.rs`, `edited_spec_equals_the_generated_one`.
    assert_eq!(fleet.spec, policy_spec(1, 4, Some(2)));
    assert_eq!(pushed, fleet.spec);

    // `rollout.rs`, `expected_verdicts_agree_with_the_reference_matcher`.
    let spec = policy_spec(1, 4, Some(2));
    let l4 = L4Ctx { tenant: TenantId(3), vpc: VpcId(3), src_ip: 0xAC10_0007, dst_port: 80, identity: 1 };
    let tp = &spec.tenants[l4.tenant.raw() as usize - 1];
    assert_eq!(reference_l7_verdict(tp, &l4, &L7Ctx::new("GET", "/api/items")), PolicyVerdict::Deny);

    // `gen.rs`, `consecutive_policy_versions_differ_in_one_rule`.
    let a = policy_spec(1, 4, None);
    let b = policy_spec(2, 4, Some(2));
    let differing: usize = a
        .tenants
        .iter()
        .zip(&b.tenants)
        .map(|(x, y)| x.rules.iter().zip(&y.rules).filter(|(r, s)| r != s).count())
        .sum();
    assert_eq!(differing, 1);
    assert!(a.tenants.iter().all(|t| t.rules.len() == RULES_PER_TENANT));
}
