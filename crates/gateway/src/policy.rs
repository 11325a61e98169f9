//! The tenant-policy plane: what a gateway's [`ActivePolicy`] slot admits.
//!
//! A pushed [`PolicySpec`] goes through the fail-static contract of
//! [`crate::failstatic`] (fence, version, content, swap). Here the content
//! check *is* compilation, and a commit compiles *against what is running*:
//! [`CompiledPolicySet::compile_against`] takes a tenant's tables from the
//! running set if the policy it compiled them from equals the pushed one,
//! else from the pushed document's own node if somebody compiled that node
//! before (the controller's validation, another gateway handed a clone of
//! the same document), else it validates and compiles the tenant and leaves
//! the tables in the node. A one-tenant edit costs a fleet one tenant's
//! compile. The result is the set a compile from scratch builds (same
//! verdicts, same digest, same rejection: a refusal is never remembered),
//! so the enforced spec and its compiled form can never diverge, and a spec
//! that fails is refused with the [`PolicyRejection`] the compiler gave. A
//! rollback is admitted with no running state to compare against; its
//! tables come from the target document's nodes, all of them if the target
//! is the archived document that ran before ([`canal_policy::PolicyStore`]),
//! none if it was generated anew. A poisoned policy push can therefore never
//! widen or narrow enforcement beyond the canary that NACKed it.
//!
//! The document is shared the way the tables are. A [`PolicySpec`] holds its
//! tenants copy on write ([`canal_policy::TenantList`]), so what the slot
//! stages and runs is the pushed clone at the price of a reference per
//! tenant, the comparison above is a pointer check for every tenant the
//! operator did not touch, and no later edit of the operator's copy can
//! reach a staged or running spec or the tables in its nodes: the edit
//! copies its tenant first, into a node without tables.
//! Nothing here does any of that; the slot only moves the spec it is given.

use crate::failstatic::{FailStatic, Plane, Rejection};
use canal_policy::{CompiledPolicySet, PolicyRejection, PolicySpec};
use canal_sim::{Digest, SimTime};

/// The tenant-policy [`Plane`]: a spec is served together with the tables
/// compiled from it; a commit needs nothing besides the spec.
#[derive(Debug, Clone, Copy)]
pub struct PolicyPlane;

impl Plane for PolicyPlane {
    type Spec = PolicySpec;
    type Served = (PolicySpec, CompiledPolicySet);
    type Ctx<'a> = ();
    type Reject = PolicyRejection;

    fn version(spec: &PolicySpec) -> u64 {
        spec.version
    }

    fn spec(served: &Self::Served) -> &PolicySpec {
        &served.0
    }

    fn admit(
        spec: PolicySpec,
        _now: SimTime,
        (): (),
        running: Option<&Self::Served>,
    ) -> Result<Self::Served, PolicyRejection> {
        let compiled = CompiledPolicySet::compile_against(&spec, running.map(|(_, c)| c))?;
        Ok((spec, compiled))
    }

    fn fold_spec(spec: &PolicySpec, d: &mut Digest) {
        spec.fold_digest(d);
    }

    fn fold_served((spec, compiled): &Self::Served, d: &mut Digest) {
        spec.fold_digest(d);
        compiled.fold_digest(d);
    }
}

/// The `{running, staged}` policy pair a gateway enforces from. With no
/// committed policy there are no compiled tables, which denies every tenant
/// (zero trust); gate enforcement on `running_version().is_some()` if
/// open-until-first-policy is wanted.
pub type ActivePolicy = FailStatic<PolicyPlane>;

impl ActivePolicy {
    /// [`FailStatic::commit`]; the policy plane has no commit context.
    pub fn commit_staged(&mut self, now: SimTime) -> Result<u64, Rejection<PolicyRejection>> {
        self.commit(now, ())
    }

    /// The compiled tables the datapath evaluates, if any policy has ever
    /// committed.
    pub fn compiled(&self) -> Option<&CompiledPolicySet> {
        self.running().map(|(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_net::{TenantId, VpcId};
    use canal_policy::{L4Ctx, L4Verdict, PolicyRule, SniMatch, TenantPolicy};

    fn spec(version: u64, rules: Vec<PolicyRule>) -> PolicySpec {
        PolicySpec {
            version,
            tenants: [TenantPolicy {
                tenant: TenantId(1),
                vpc: VpcId(1),
                rules,
                default_action: canal_policy::PolicyVerdict::Deny,
            }]
            .into_iter()
            .collect(),
        }
    }

    fn ctx() -> L4Ctx {
        L4Ctx { tenant: TenantId(1), vpc: VpcId(1), src_ip: 1, dst_port: 80, identity: 0 }
    }

    #[test]
    fn compile_failure_rejected_fail_static() {
        let mut ap = ActivePolicy::new();
        ap.stage(spec(1, vec![PolicyRule::allow()]));
        ap.commit_staged(SimTime::ZERO).ok();
        // Inverted port range: semantically invalid → NACK, keep enforcing v1.
        ap.stage(spec(2, vec![PolicyRule::deny().with_ports(443, 80)]));
        let r = ap.commit_staged(SimTime::from_secs(5));
        assert!(matches!(r, Err(Rejection::Content(PolicyRejection::InvertedPortRange { .. }))));
        assert_eq!(ap.running_version(), Some(1), "fail-static: v1 still enforced");
        assert_eq!(ap.compiled().map(|c| c.l4_verdict(&ctx())), Some(L4Verdict::Allow));
        assert!(ap.staged().is_none(), "poisoned staged spec discarded");
        assert_eq!(ap.rejections(), 1);
        assert_eq!(ap.commits(), 1);
    }

    /// The scan-all oracle would match `example.com` inside `evilexample.com`
    /// and the tables nowhere, so a suffix without its dot never commits.
    #[test]
    fn dotless_sni_suffix_is_nacked_with_its_own_rejection() {
        let mut ap = ActivePolicy::new();
        ap.stage(spec(1, vec![PolicyRule::allow()]));
        ap.commit_staged(SimTime::ZERO).ok();
        let suffix = SniMatch::Suffix("example.com".to_string());
        ap.stage(spec(2, vec![PolicyRule::deny(), PolicyRule::allow().with_sni(suffix)]));
        assert_eq!(
            ap.commit_staged(SimTime::from_secs(5)),
            Err(Rejection::Content(PolicyRejection::SniSuffixWithoutDot {
                tenant: TenantId(1),
                rule: 1
            }))
        );
        assert_eq!(ap.running_version(), Some(1));
    }
}
