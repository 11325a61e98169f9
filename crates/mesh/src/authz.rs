//! Zero-trust authorization policies (§4.1.1).
//!
//! Authorization is the one zero-trust feature the paper *can* deploy
//! remotely: "input and processing logic being information carried by
//! packets and traffic admission rules". Rules match on verified source
//! identity, path and method; first match wins with a configurable default.
//!
//! Since the policy plane landed (DESIGN.md §14) there is exactly one
//! enforcement point: [`AuthzPolicy`] keeps its small rule-builder API but
//! compiles every rule into a [`canal_policy::CompiledTenant`] and
//! evaluates requests through its flat match tables — the same bitmask
//! intersection the gateway's `ActivePolicy` and the node L4 filter use.
//! There is no per-rule scan left in the mesh.

use canal_http::Request;
use canal_net::{TenantId, VpcId};
use canal_policy::{CompiledTenant, L4Ctx, L7Ctx, PolicyRule, PolicyVerdict, TenantPolicy};

/// Allow or deny.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthzAction {
    /// Admit the request.
    Allow,
    /// Reject with 403.
    Deny,
}

/// One authorization rule.
#[derive(Debug, Clone)]
pub struct AuthzRule {
    /// Source workload identities this rule applies to (empty = any).
    pub source_identities: Vec<u64>,
    /// Path prefix constraint (empty = any).
    pub path_prefix: String,
    /// Method constraint (None = any).
    pub method: Option<String>,
    /// Verdict when matched.
    pub action: AuthzAction,
}

impl AuthzRule {
    /// Allow `identities` to call paths under `prefix`.
    pub fn allow(identities: &[u64], prefix: &str) -> Self {
        AuthzRule {
            source_identities: identities.to_vec(),
            path_prefix: prefix.to_string(),
            method: None,
            action: AuthzAction::Allow,
        }
    }

    /// Deny `identities` on paths under `prefix`.
    pub fn deny(identities: &[u64], prefix: &str) -> Self {
        AuthzRule {
            action: AuthzAction::Deny,
            ..Self::allow(identities, prefix)
        }
    }

    /// Lower the rule into the policy plane's rule model.
    fn to_policy_rule(&self) -> PolicyRule {
        let mut r = match self.action {
            AuthzAction::Allow => PolicyRule::allow(),
            AuthzAction::Deny => PolicyRule::deny(),
        };
        r = r.with_identities(&self.source_identities).with_path_prefix(&self.path_prefix);
        if let Some(m) = &self.method {
            r = r.with_method(m);
        }
        r
    }
}

/// The placeholder tenant an engine-local authz policy compiles under;
/// the engine is already tenant-scoped, so the id never discriminates.
const LOCAL_TENANT: TenantId = TenantId(0);

/// An ordered authorization policy with a default verdict, evaluated
/// through the compiled policy tables.
#[derive(Debug, Clone)]
pub struct AuthzPolicy {
    rules: Vec<AuthzRule>,
    /// The rules and the default compiled together: a check's verdict comes
    /// out of the tables, never out of `rules`.
    compiled: CompiledTenant,
    /// Verdict when no rule matches. Zero-trust default is deny.
    default_action: AuthzAction,
}

fn verdict(action: AuthzAction) -> PolicyVerdict {
    match action {
        AuthzAction::Allow => PolicyVerdict::Allow,
        AuthzAction::Deny => PolicyVerdict::Deny,
    }
}

impl AuthzPolicy {
    fn empty(default_action: AuthzAction) -> Self {
        AuthzPolicy {
            rules: Vec::new(),
            compiled: CompiledTenant::empty(verdict(default_action)),
            default_action,
        }
    }

    /// Zero-trust policy: default deny.
    pub fn default_deny() -> Self {
        Self::empty(AuthzAction::Deny)
    }

    /// Permissive policy: default allow (tenants without L7 security).
    pub fn default_allow() -> Self {
        Self::empty(AuthzAction::Allow)
    }

    /// Append a rule (evaluated in insertion order; first match wins) and
    /// recompile the match tables. A rule set that exceeds the policy
    /// plane's caps (`canal_policy::MAX_RULES_PER_TENANT`,
    /// `MAX_PATH_PREFIX_BYTES`) is refused fail-static: the offending rule
    /// is dropped and the previous tables keep enforcing.
    pub fn push(&mut self, rule: AuthzRule) -> &mut Self {
        self.rules.push(rule);
        let tp = TenantPolicy {
            tenant: LOCAL_TENANT,
            vpc: VpcId(0),
            rules: self.rules.iter().map(AuthzRule::to_policy_rule).collect(),
            default_action: verdict(self.default_action),
        };
        match CompiledTenant::compile(&tp) {
            Ok(c) => self.compiled = c,
            Err(_) => {
                self.rules.pop();
            }
        }
        self
    }

    /// Evaluate a request from a *verified* source identity (the mTLS layer
    /// established it; see `canal_crypto::mtls`) through the compiled
    /// tables: one bitmask intersection, first set bit wins, and the
    /// verdict is the tables' own.
    pub(crate) fn check(&self, source_identity: u64, req: &Request) -> AuthzAction {
        let l4 = L4Ctx {
            tenant: LOCAL_TENANT,
            vpc: VpcId(0),
            src_ip: 0,
            dst_port: 0,
            identity: source_identity,
        };
        let l7 = L7Ctx::new(req.method.as_str(), req.path_only());
        match self.compiled.l7_verdict(&l4, &l7) {
            PolicyVerdict::Allow => AuthzAction::Allow,
            PolicyVerdict::Deny => AuthzAction::Deny,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_http::Request;

    #[test]
    fn default_deny_blocks_everything() {
        let p = AuthzPolicy::default_deny();
        assert_eq!(p.check(1, &Request::get("/")), AuthzAction::Deny);
    }

    #[test]
    fn allow_rule_admits_matching_identity() {
        let mut p = AuthzPolicy::default_deny();
        p.push(AuthzRule::allow(&[100, 101], "/api"));
        assert_eq!(p.check(100, &Request::get("/api/x")), AuthzAction::Allow);
        assert_eq!(p.check(101, &Request::get("/api")), AuthzAction::Allow);
        // Wrong identity or path: default deny.
        assert_eq!(p.check(999, &Request::get("/api/x")), AuthzAction::Deny);
        assert_eq!(p.check(100, &Request::get("/admin")), AuthzAction::Deny);
    }

    #[test]
    fn first_match_wins_over_later_rules() {
        let mut p = AuthzPolicy::default_allow();
        p.push(AuthzRule::deny(&[666], ""));
        p.push(AuthzRule::allow(&[666], "/public"));
        // The deny comes first, so even /public is blocked for 666.
        assert_eq!(p.check(666, &Request::get("/public")), AuthzAction::Deny);
        assert_eq!(p.check(1, &Request::get("/public")), AuthzAction::Allow);
    }

    #[test]
    fn method_constraint() {
        let mut p = AuthzPolicy::default_deny();
        let mut rule = AuthzRule::allow(&[], "/data");
        rule.method = Some("GET".into());
        p.push(rule);
        assert_eq!(p.check(5, &Request::get("/data/1")), AuthzAction::Allow);
        assert_eq!(
            p.check(5, &Request::post("/data/1", &b""[..])),
            AuthzAction::Deny
        );
    }

    #[test]
    fn empty_identity_list_matches_anyone() {
        let mut p = AuthzPolicy::default_deny();
        p.push(AuthzRule::allow(&[], "/healthz"));
        assert_eq!(p.check(42, &Request::get("/healthz")), AuthzAction::Allow);
        assert_eq!(p.check(43, &Request::get("/healthz")), AuthzAction::Allow);
    }

    #[test]
    fn query_string_does_not_defeat_prefix() {
        let mut p = AuthzPolicy::default_deny();
        p.push(AuthzRule::allow(&[1], "/api"));
        assert_eq!(
            p.check(1, &Request::get("/api/items?id=2")),
            AuthzAction::Allow
        );
        // Path traversal outside the prefix stays denied.
        assert_eq!(p.check(1, &Request::get("/secrets?x=/api")), AuthzAction::Deny);
    }

    #[test]
    fn compiled_check_agrees_with_a_reference_scan() {
        // Regression: routing authz through the compiled policy tables
        // must preserve the pre-policy-plane scan semantics exactly.
        let rules = [
            AuthzRule::deny(&[666], ""),
            AuthzRule::allow(&[100, 101], "/api"),
            AuthzRule::allow(&[], "/healthz"),
            {
                let mut r = AuthzRule::allow(&[], "/data");
                r.method = Some("GET".into());
                r
            },
        ];
        let mut p = AuthzPolicy::default_deny();
        for r in &rules {
            p.push(r.clone());
        }
        let scan = |identity: u64, req: &Request| -> AuthzAction {
            rules
                .iter()
                .find(|r| {
                    (r.source_identities.is_empty()
                        || r.source_identities.contains(&identity))
                        && (r.path_prefix.is_empty()
                            || req.path_only().starts_with(&r.path_prefix))
                        && r.method.as_ref().is_none_or(|m| req.method.as_str() == m)
                })
                .map(|r| r.action)
                .unwrap_or(AuthzAction::Deny)
        };
        let idents = [1u64, 100, 101, 666, 999];
        let reqs = [
            Request::get("/"),
            Request::get("/api/x"),
            Request::get("/api/items?id=2"),
            Request::get("/healthz"),
            Request::get("/data/1"),
            Request::post("/data/1", &b""[..]),
            Request::get("/secrets?x=/api"),
        ];
        for &id in &idents {
            for req in &reqs {
                assert_eq!(p.check(id, req), scan(id, req), "id={id} path={}", req.path);
            }
        }
    }
}
