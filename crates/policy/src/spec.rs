//! The declarative policy model and its semantic validation.
//!
//! A [`PolicySpec`] is the unit the control plane versions and distributes:
//! one [`TenantPolicy`] per tenant, each an ordered list of [`PolicyRule`]s
//! with a default verdict (first match wins, mirroring the mesh's authz
//! semantics). [`validate`] is the semantic gate the gateway's
//! `ActivePolicy` runs before committing — a spec that fails it is NACKed
//! upstream, never applied (fail-static).
//!
//! The tenant is the unit of sharing in the document as it is in the
//! compiled tables: a spec's [`TenantList`] holds each tenant by [`Arc`], in
//! a [`SharedList`](canal_sim::SharedList) that is itself held by one, so a
//! clone of a spec (a push, a staged copy, an archive entry) is one
//! reference count however many tenants it has, two versions share every
//! tenant the edit between them left alone, and an edit in place copies the
//! list of pointers once and the one tenant it touches, and each only while
//! someone else still holds it.
//!
//! What the list shares is a [`TenantNode`]: the tenant's policy and a
//! write-once slot for the tables compiled from it. The tables are a pure
//! function of the policy and the policy behind a shared node never changes,
//! so whoever compiles the node first (the controller validating a document,
//! a gateway committing it) leaves the tables where every other holder of
//! the node finds them, and a fleet compiles a tenant once. The slot is not
//! part of the document: `==`, `Debug` and `fold` see the policy alone
//! and a cloned node starts empty. The one way to change a node's policy is
//! [`IndexMut`] on the list, and it empties the slot: [`Arc::make_mut`] edits
//! a node nobody else holds where it is, and tables kept across that edit
//! would enforce the policy as it was before it.

use crate::compile::CompiledTenant;
use canal_net::{TenantId, VpcId};
use canal_sim::{Fold, SharedList};
use std::fmt;
use std::ops::{Deref, Index, IndexMut};
use std::sync::{Arc, OnceLock};

/// Hard cap on rules per tenant: bounds compiled-table memory and is a
/// semantic-rejection trigger, not a silent truncation.
pub(crate) const MAX_RULES_PER_TENANT: usize = 4096;
/// Hard cap on a path-prefix predicate, bytes. Together with
/// [`MAX_RULES_PER_TENANT`] this bounds the compiled path trie.
pub(crate) const MAX_PATH_PREFIX_BYTES: usize = 128;
/// Hard cap on header predicates per rule (the compiled form gives each
/// predicate a fixed slot).
pub(crate) const MAX_HEADER_PREDICATES: usize = 4;

/// Allow or deny a flow/request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyVerdict {
    /// Admit.
    Allow,
    /// Reject.
    Deny,
}

/// A source-address CIDR block over the tenant's (possibly overlapping)
/// VPC address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cidr {
    /// Network base address (host bits must be zero).
    pub base: u32,
    /// Prefix length, `0..=32`.
    pub prefix_len: u8,
}

impl Cidr {
    /// Construct (not validated; see [`Cidr::is_canonical`]).
    pub const fn new(base: u32, prefix_len: u8) -> Self {
        Cidr { base, prefix_len }
    }

    /// The network mask.
    pub const fn mask(self) -> u32 {
        if self.prefix_len == 0 {
            0
        } else if self.prefix_len >= 32 {
            u32::MAX
        } else {
            u32::MAX << (32 - self.prefix_len)
        }
    }

    /// Whether the prefix length is in range and no host bit is set.
    pub(crate) const fn is_canonical(self) -> bool {
        self.prefix_len <= 32 && (self.base & !self.mask()) == 0
    }

    /// Inclusive address range `[first, last]` the block covers.
    pub(crate) const fn range(self) -> (u32, u32) {
        (self.base, self.base | !self.mask())
    }

    /// Whether `ip` falls inside the block.
    pub(crate) const fn contains(self, ip: u32) -> bool {
        (ip & self.mask()) == self.base
    }
}

/// An inclusive destination-port range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortRange {
    /// First port.
    pub lo: u16,
    /// Last port (inclusive). `lo > hi` is semantically invalid.
    pub hi: u16,
}

/// An SNI predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SniMatch {
    /// Exact server-name match.
    Exact(String),
    /// Wildcard suffix match: `Suffix(".example.com")` matches
    /// `a.example.com` but not `example.com` itself. The leading dot is
    /// part of the pattern; [`validate`] rejects a suffix without it.
    Suffix(String),
}

/// One header predicate: some request header with this name must be
/// present, and when `value` is set, at least one of that header's values
/// must equal it exactly. Names compare case-insensitively (compiled to
/// lowercase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderPredicate {
    /// Header name.
    pub name: String,
    /// Required value (`None` = presence alone suffices).
    pub value: Option<String>,
}

/// One policy rule. Every predicate left empty/`None` matches anything;
/// a rule with only L4 predicates can be decided entirely on the node L4
/// path, while L7 predicates defer the verdict to the gateway.
#[derive(Debug, Clone, Eq)]
pub struct PolicyRule {
    /// Source-address constraint.
    pub source_cidr: Option<Cidr>,
    /// Destination-port constraint.
    pub dest_ports: Option<PortRange>,
    /// Verified workload identities this rule applies to (empty = any).
    pub source_identities: Vec<u64>,
    /// HTTP method constraints (empty = any; tokens match exactly).
    pub methods: Vec<String>,
    /// Path-prefix constraint (empty = any).
    pub path_prefix: String,
    /// SNI constraint.
    pub sni: Option<SniMatch>,
    /// Header predicates (all must hold).
    pub headers: Vec<HeaderPredicate>,
    /// Verdict when the rule matches.
    pub action: PolicyVerdict,
}

/// `a == b` for a slice whose comparison is one `bcmp` call. Most rules leave
/// most predicates empty, and the zero-length call on two dangling pointers
/// is the slow one (DESIGN.md §16: ~125 ns against 1-2 ns non-empty), so
/// lengths go first and the empty case never makes it.
fn flat_eq<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    a.len() == b.len() && (a.is_empty() || a == b)
}

/// Field-wise equality, and the one the compiler decides table reuse by
/// ([`CompiledPolicySet::compile_against`]): the destructuring is exhaustive,
/// so a field added to the rule does not compile until it is compared here.
///
/// [`CompiledPolicySet::compile_against`]: crate::compile::CompiledPolicySet::compile_against
impl PartialEq for PolicyRule {
    fn eq(&self, other: &PolicyRule) -> bool {
        let PolicyRule {
            source_cidr,
            dest_ports,
            source_identities,
            methods,
            path_prefix,
            sni,
            headers,
            action,
        } = self;
        *source_cidr == other.source_cidr
            && *dest_ports == other.dest_ports
            && *action == other.action
            && flat_eq(source_identities, &other.source_identities)
            && flat_eq(path_prefix.as_bytes(), other.path_prefix.as_bytes())
            && *methods == other.methods
            && *sni == other.sni
            && *headers == other.headers
    }
}

impl PolicyRule {
    /// A match-everything rule with the given verdict.
    pub(crate) fn any(action: PolicyVerdict) -> Self {
        PolicyRule {
            source_cidr: None,
            dest_ports: None,
            source_identities: Vec::new(),
            methods: Vec::new(),
            path_prefix: String::new(),
            sni: None,
            headers: Vec::new(),
            action,
        }
    }

    /// A match-everything allow rule.
    pub fn allow() -> Self {
        Self::any(PolicyVerdict::Allow)
    }

    /// A match-everything deny rule.
    pub fn deny() -> Self {
        Self::any(PolicyVerdict::Deny)
    }

    /// Builder: constrain the source CIDR.
    pub fn with_source_cidr(mut self, cidr: Cidr) -> Self {
        self.source_cidr = Some(cidr);
        self
    }

    /// Builder: constrain the destination-port range (inclusive).
    pub fn with_ports(mut self, lo: u16, hi: u16) -> Self {
        self.dest_ports = Some(PortRange { lo, hi });
        self
    }

    /// Builder: constrain the verified source identities.
    pub fn with_identities(mut self, ids: &[u64]) -> Self {
        self.source_identities = ids.to_vec();
        self
    }

    /// Builder: add a method constraint.
    pub fn with_method(mut self, method: &str) -> Self {
        self.methods.push(method.to_string());
        self
    }

    /// Builder: constrain the path prefix.
    pub fn with_path_prefix(mut self, prefix: &str) -> Self {
        self.path_prefix = prefix.to_string();
        self
    }

    /// Builder: constrain the SNI.
    pub fn with_sni(mut self, sni: SniMatch) -> Self {
        self.sni = Some(sni);
        self
    }

    /// Builder: add a header predicate.
    pub fn with_header(mut self, name: &str, value: Option<&str>) -> Self {
        self.headers.push(HeaderPredicate {
            name: name.to_string(),
            value: value.map(str::to_string),
        });
        self
    }

    /// Whether the rule carries any L7 predicate (method/path/SNI/header) —
    /// such a rule cannot be decided on the node L4 path.
    pub(crate) fn has_l7_predicates(&self) -> bool {
        !self.methods.is_empty()
            || !self.path_prefix.is_empty()
            || self.sni.is_some()
            || !self.headers.is_empty()
    }

    /// Fold the rule content into a digest.
    pub(crate) fn fold(&self, f: &mut impl Fold) {
        let Self { source_cidr, dest_ports, source_identities, methods, path_prefix, sni, headers, action } =
            self;
        match source_cidr {
            None => {
                f.write_u64(0);
            }
            Some(c) => {
                f.write_u64(1).write_u64(c.base as u64).write_u64(c.prefix_len as u64);
            }
        }
        match dest_ports {
            None => {
                f.write_u64(0);
            }
            Some(p) => {
                f.write_u64(1).write_u64(p.lo as u64).write_u64(p.hi as u64);
            }
        }
        f.write_u64(source_identities.len() as u64);
        for &id in source_identities {
            f.write_u64(id);
        }
        f.write_u64(methods.len() as u64);
        for m in methods {
            f.write_str(m);
        }
        f.write_str(path_prefix);
        match sni {
            None => {
                f.write_u64(0);
            }
            Some(SniMatch::Exact(s)) => {
                f.write_u64(1).write_str(s);
            }
            Some(SniMatch::Suffix(s)) => {
                f.write_u64(2).write_str(s);
            }
        }
        f.write_u64(headers.len() as u64);
        for h in headers {
            f.write_str(&h.name);
            match &h.value {
                None => {
                    f.write_u64(0);
                }
                Some(v) => {
                    f.write_u64(1).write_str(v);
                }
            }
        }
        f.write_u64(verdict_tag(*action));
    }
}

/// Digest tag for a verdict.
pub(crate) fn verdict_tag(v: PolicyVerdict) -> u64 {
    match v {
        PolicyVerdict::Allow => 1,
        PolicyVerdict::Deny => 2,
    }
}

/// One tenant's ordered rule list plus default verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Owning tenant.
    pub tenant: TenantId,
    /// The tenant's VPC (address spaces of different VPCs may overlap —
    /// carried for bookkeeping; matching is keyed by `tenant`).
    pub vpc: VpcId,
    /// Ordered rules, first match wins.
    pub rules: Vec<PolicyRule>,
    /// Verdict when no rule matches (zero-trust default is deny).
    pub default_action: PolicyVerdict,
}

impl TenantPolicy {
    /// Fold the tenant policy into a digest.
    pub(crate) fn fold(&self, f: &mut impl Fold) {
        let Self { tenant, vpc, rules, default_action } = self;
        f.write_u64(tenant.0 as u64).write_u64(vpc.0 as u64).write_u64(rules.len() as u64);
        for r in rules {
            r.fold(f);
        }
        f.write_u64(verdict_tag(*default_action));
    }
}

/// What a [`TenantList`] holds by [`Arc`]: one tenant's policy, and the
/// tables compiled from it once somebody has compiled them. It derefs to the
/// policy and is the policy to `==` and `Debug`; a clone has the policy and
/// an empty slot.
pub struct TenantNode {
    policy: TenantPolicy,
    /// Written at most once per policy: [`IndexMut`] empties it before it
    /// hands the policy out for an edit.
    tables: OnceLock<Arc<CompiledTenant>>,
}

impl TenantNode {
    fn new(policy: TenantPolicy) -> Arc<TenantNode> {
        Arc::new(TenantNode { policy, tables: OnceLock::new() })
    }

    /// The tables an earlier compile of this node left here.
    pub(crate) fn tables(&self) -> Option<&Arc<CompiledTenant>> {
        self.tables.get()
    }

    /// Leave `built`, compiled from this node's policy, for the node's other
    /// holders. Returns the tables the node holds from now on: `built`, or
    /// those of a compile on another thread that got here first.
    pub(crate) fn remember(&self, built: CompiledTenant) -> Arc<CompiledTenant> {
        Arc::clone(self.tables.get_or_init(|| Arc::new(built)))
    }
}

impl Deref for TenantNode {
    type Target = TenantPolicy;

    fn deref(&self) -> &TenantPolicy {
        &self.policy
    }
}

impl Clone for TenantNode {
    fn clone(&self) -> TenantNode {
        TenantNode { policy: self.policy.clone(), tables: OnceLock::new() }
    }
}

impl PartialEq for TenantNode {
    fn eq(&self, other: &TenantNode) -> bool {
        self.policy == other.policy
    }
}

impl Eq for TenantNode {}

impl fmt::Debug for TenantNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.policy.fmt(f)
    }
}

/// The tenants of a [`PolicySpec`], in the operator's order: a
/// [`SharedList`] of [`TenantNode`]s, each held by [`Arc`]. `clone()` is one
/// reference count, whatever the number of tenants; no rule, and no
/// per-tenant count, is copied. Every mutator makes the list this list's own
/// first (copying the pointers if the list is shared), and the only way to a
/// `&mut TenantPolicy` is [`IndexMut`], which then copies the one tenant if
/// any other list still holds it, so a document that was cloned
/// (staged, running, archived, in flight to another gateway) cannot be
/// altered by a later edit of the copy it was cloned from. `==` is
/// [`TenantPolicy`]'s field-wise `==`; two lists holding the same allocation
/// (the list, or a tenant) skip the walk ([`Arc`]'s own shortcut for `Eq`
/// types), and that is all identity decides.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantList(SharedList<Arc<TenantNode>>);

impl TenantList {
    /// Number of tenants.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The tenants in order.
    pub fn iter(&self) -> <&TenantList as IntoIterator>::IntoIter {
        self.into_iter()
    }

    /// The tenants in order as the list holds them: what the compiler keeps
    /// beside a tenant's tables to compare the next version against.
    pub fn shared(&self) -> &[Arc<TenantNode>] {
        &self.0
    }

    /// How many of this list's tenants `other` holds too: the same
    /// allocation, not merely equal content.
    pub fn shared_tenants(&self, other: &TenantList) -> usize {
        self.0.iter().filter(|tp| other.0.iter().any(|o| Arc::ptr_eq(tp, o))).count()
    }

    /// The same tenants in ascending [`TenantId`] order, which the caller
    /// has checked holds each tenant once: this list itself, for one count,
    /// if it is ascending already (the generator's and every experiment's
    /// are), else a sorted list sharing its nodes.
    pub(crate) fn ascending(&self) -> TenantList {
        let nodes = &self.0;
        if nodes.windows(2).all(|w| w[0].tenant < w[1].tenant) {
            return self.clone();
        }
        let mut sorted = nodes.to_vec();
        sorted.sort_by_key(|node| node.tenant);
        TenantList(SharedList::from(sorted))
    }

    /// Append a tenant.
    pub fn push(&mut self, tp: TenantPolicy) {
        self.0.push(TenantNode::new(tp));
    }

    /// Insert a tenant at position `i`, shifting the rest right.
    pub fn insert(&mut self, i: usize, tp: TenantPolicy) {
        self.0.insert(i, TenantNode::new(tp));
    }

    /// Remove and return the tenant at position `i`, shifting the rest left.
    pub fn remove(&mut self, i: usize) -> Arc<TenantNode> {
        self.0.remove(i)
    }

    /// Swap the tenants at positions `a` and `b`; no tenant is copied.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.0.swap(a, b);
    }

    /// Rotate the list so that position `mid` comes first; no tenant is
    /// copied.
    pub fn rotate_left(&mut self, mid: usize) {
        self.0.rotate_left(mid);
    }
}

impl FromIterator<TenantPolicy> for TenantList {
    fn from_iter<I: IntoIterator<Item = TenantPolicy>>(iter: I) -> Self {
        TenantList(iter.into_iter().map(TenantNode::new).collect())
    }
}

impl<'a> IntoIterator for &'a TenantList {
    type Item = &'a TenantPolicy;
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, Arc<TenantNode>>,
        fn(&'a Arc<TenantNode>) -> &'a TenantPolicy,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|node| &node.policy)
    }
}

impl Index<usize> for TenantList {
    type Output = TenantPolicy;

    fn index(&self, i: usize) -> &TenantPolicy {
        &self.0[i]
    }
}

impl IndexMut<usize> for TenantList {
    /// The tenant to edit: this list's own copy of it, made now if another
    /// list shares the one it holds, and without the tables compiled from
    /// what it says now.
    fn index_mut(&mut self, i: usize) -> &mut TenantPolicy {
        let node = Arc::make_mut(self.0.make_mut(i));
        node.tables = OnceLock::new();
        &mut node.policy
    }
}

/// A versioned multi-tenant policy push: the unit the control plane
/// distributes and the rollout controller canaries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PolicySpec {
    /// Monotone version from `VersionedConfigStore`.
    pub version: u64,
    /// Per-tenant policies.
    pub tenants: TenantList,
}

impl PolicySpec {
    /// Fold the spec into a digest (content- and order-sensitive).
    pub fn fold(&self, f: &mut impl Fold) {
        let Self { version, tenants } = self;
        f.write_u64(*version).write_u64(tenants.len() as u64);
        for t in tenants {
            t.fold(f);
        }
    }
}

/// Why a pushed spec was rejected instead of compiled — each variant is a
/// NACK the data plane reports upstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyRejection {
    /// Two tenant policies name the same tenant.
    DuplicateTenant(TenantId),
    /// A tenant exceeds [`MAX_RULES_PER_TENANT`].
    TooManyRules {
        /// Offending tenant.
        tenant: TenantId,
        /// Rule count.
        count: usize,
    },
    /// A port range with `lo > hi` can never match — an operator error,
    /// not an empty set by intent.
    InvertedPortRange {
        /// Offending tenant.
        tenant: TenantId,
        /// Rule index.
        rule: usize,
    },
    /// A CIDR with host bits set below the mask, or a prefix over 32.
    BadCidr {
        /// Offending tenant.
        tenant: TenantId,
        /// Rule index.
        rule: usize,
    },
    /// A path prefix over [`MAX_PATH_PREFIX_BYTES`].
    PathPrefixTooLong {
        /// Offending tenant.
        tenant: TenantId,
        /// Rule index.
        rule: usize,
    },
    /// More than [`MAX_HEADER_PREDICATES`] header predicates on one rule.
    TooManyHeaderPredicates {
        /// Offending tenant.
        tenant: TenantId,
        /// Rule index.
        rule: usize,
    },
    /// A header predicate with an empty name.
    EmptyHeaderName {
        /// Offending tenant.
        tenant: TenantId,
        /// Rule index.
        rule: usize,
    },
    /// An empty method token.
    EmptyMethod {
        /// Offending tenant.
        tenant: TenantId,
        /// Rule index.
        rule: usize,
    },
    /// An empty SNI pattern.
    EmptySni {
        /// Offending tenant.
        tenant: TenantId,
        /// Rule index.
        rule: usize,
    },
    /// An SNI suffix without its leading dot: it could only match inside a
    /// label (`example.com` in `evilexample.com`), never on a boundary.
    SniSuffixWithoutDot {
        /// Offending tenant.
        tenant: TenantId,
        /// Rule index.
        rule: usize,
    },
}

impl fmt::Display for PolicyRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyRejection::DuplicateTenant(t) => write!(f, "duplicate tenant policy for {t}"),
            PolicyRejection::TooManyRules { tenant, count } => {
                write!(f, "{tenant}: {count} rules over the {MAX_RULES_PER_TENANT} cap")
            }
            PolicyRejection::InvertedPortRange { tenant, rule } => {
                write!(f, "{tenant} rule {rule}: inverted port range")
            }
            PolicyRejection::BadCidr { tenant, rule } => {
                write!(f, "{tenant} rule {rule}: non-canonical CIDR")
            }
            PolicyRejection::PathPrefixTooLong { tenant, rule } => {
                write!(f, "{tenant} rule {rule}: path prefix over {MAX_PATH_PREFIX_BYTES} bytes")
            }
            PolicyRejection::TooManyHeaderPredicates { tenant, rule } => {
                write!(f, "{tenant} rule {rule}: over {MAX_HEADER_PREDICATES} header predicates")
            }
            PolicyRejection::EmptyHeaderName { tenant, rule } => {
                write!(f, "{tenant} rule {rule}: empty header name")
            }
            PolicyRejection::EmptyMethod { tenant, rule } => {
                write!(f, "{tenant} rule {rule}: empty method token")
            }
            PolicyRejection::EmptySni { tenant, rule } => {
                write!(f, "{tenant} rule {rule}: empty SNI pattern")
            }
            PolicyRejection::SniSuffixWithoutDot { tenant, rule } => {
                write!(f, "{tenant} rule {rule}: SNI suffix without its leading dot")
            }
        }
    }
}

/// Validate one tenant's rules (shared by [`validate`] and the per-tenant
/// compiler).
pub(crate) fn validate_tenant(tp: &TenantPolicy) -> Result<(), PolicyRejection> {
    if tp.rules.len() > MAX_RULES_PER_TENANT {
        return Err(PolicyRejection::TooManyRules {
            tenant: tp.tenant,
            count: tp.rules.len(),
        });
    }
    for (i, r) in tp.rules.iter().enumerate() {
        if let Some(c) = r.source_cidr {
            if !c.is_canonical() {
                return Err(PolicyRejection::BadCidr { tenant: tp.tenant, rule: i });
            }
        }
        if let Some(p) = r.dest_ports {
            if p.lo > p.hi {
                return Err(PolicyRejection::InvertedPortRange { tenant: tp.tenant, rule: i });
            }
        }
        if r.path_prefix.len() > MAX_PATH_PREFIX_BYTES {
            return Err(PolicyRejection::PathPrefixTooLong { tenant: tp.tenant, rule: i });
        }
        if r.headers.len() > MAX_HEADER_PREDICATES {
            return Err(PolicyRejection::TooManyHeaderPredicates { tenant: tp.tenant, rule: i });
        }
        if r.headers.iter().any(|h| h.name.is_empty()) {
            return Err(PolicyRejection::EmptyHeaderName { tenant: tp.tenant, rule: i });
        }
        if r.methods.iter().any(|m| m.is_empty()) {
            return Err(PolicyRejection::EmptyMethod { tenant: tp.tenant, rule: i });
        }
        match &r.sni {
            Some(SniMatch::Exact(s)) | Some(SniMatch::Suffix(s)) if s.is_empty() => {
                return Err(PolicyRejection::EmptySni { tenant: tp.tenant, rule: i });
            }
            Some(SniMatch::Suffix(s)) if !s.starts_with('.') => {
                return Err(PolicyRejection::SniSuffixWithoutDot { tenant: tp.tenant, rule: i });
            }
            _ => {}
        }
    }
    Ok(())
}

/// Semantic validation of a whole spec: the gate `ActivePolicy` runs
/// before committing. Pure — rejection means NACK, never partial apply.
pub fn validate(spec: &PolicySpec) -> Result<(), PolicyRejection> {
    let mut seen = std::collections::BTreeSet::new();
    for tp in &spec.tenants {
        if !seen.insert(tp.tenant) {
            return Err(PolicyRejection::DuplicateTenant(tp.tenant));
        }
        validate_tenant(tp)?;
    }
    Ok(())
}

/// The L4 flow context both datapaths evaluate: who is sending what where,
/// as established by the vSwitch (tenant/VPC) and the mTLS layer
/// (identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L4Ctx {
    /// Tenant the flow belongs to (from the VXLAN VNI).
    pub tenant: TenantId,
    /// The tenant VPC the source address is scoped to.
    pub vpc: VpcId,
    /// Source IPv4 address (big-endian u32, VPC-scoped).
    pub src_ip: u32,
    /// Destination port.
    pub dst_port: u16,
    /// Verified workload identity (0 = unverified).
    pub identity: u64,
}

/// The L7 request context the gateway evaluates on top of [`L4Ctx`].
#[derive(Debug, Clone, Copy)]
pub struct L7Ctx<'a> {
    /// HTTP method token.
    pub method: &'a str,
    /// Request path (query already stripped by the caller).
    pub path: &'a str,
    /// TLS SNI, when the connection carried one.
    pub sni: Option<&'a str>,
    /// Request headers as `(name, value)` pairs.
    pub headers: &'a [(&'a str, &'a str)],
}

impl<'a> L7Ctx<'a> {
    /// A minimal context: method and path only.
    pub fn new(method: &'a str, path: &'a str) -> Self {
        L7Ctx {
            method,
            path,
            sni: None,
            headers: &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_sim::Digest;

    fn t1() -> TenantId {
        TenantId(1)
    }

    /// An empty default-deny policy for a tenant.
    fn default_deny(tenant: TenantId, vpc: VpcId) -> TenantPolicy {
        TenantPolicy { tenant, vpc, rules: Vec::new(), default_action: PolicyVerdict::Deny }
    }

    #[test]
    fn cidr_canonical_and_range() {
        let c = Cidr::new(0x0A00_0000, 16); // 10.0.0.0/16
        assert!(c.is_canonical());
        assert_eq!(c.range(), (0x0A00_0000, 0x0A00_FFFF));
        assert!(c.contains(0x0A00_1234));
        assert!(!c.contains(0x0A01_0000));
        assert!(!Cidr::new(0x0A00_0001, 16).is_canonical(), "host bits set");
        assert!(!Cidr::new(0, 33).is_canonical());
        assert!(Cidr::new(0, 0).is_canonical(), "whole space");
        assert_eq!(Cidr::new(0, 0).range(), (0, u32::MAX));
    }

    #[test]
    fn validation_rejects_semantic_poison() {
        let mut tp = default_deny(t1(), VpcId(1));
        tp.rules.push(PolicyRule::allow().with_ports(443, 80));
        let spec = PolicySpec { version: 1, tenants: [tp].into_iter().collect() };
        assert_eq!(
            validate(&spec),
            Err(PolicyRejection::InvertedPortRange { tenant: t1(), rule: 0 })
        );
    }

    #[test]
    fn validation_rejects_duplicate_tenant_and_bad_cidr() {
        let a = default_deny(t1(), VpcId(1));
        let b = default_deny(t1(), VpcId(2));
        let spec = PolicySpec { version: 1, tenants: [a.clone(), b].into_iter().collect() };
        assert_eq!(validate(&spec), Err(PolicyRejection::DuplicateTenant(t1())));

        let mut bad = a;
        bad.rules.push(PolicyRule::allow().with_source_cidr(Cidr::new(0x0A00_0001, 24)));
        let spec = PolicySpec { version: 1, tenants: [bad].into_iter().collect() };
        assert_eq!(validate(&spec), Err(PolicyRejection::BadCidr { tenant: t1(), rule: 0 }));
    }

    #[test]
    fn validation_rejects_sni_suffix_without_its_dot() {
        let suffix = |s: &str| {
            let mut tp = default_deny(t1(), VpcId(1));
            tp.rules.push(PolicyRule::deny());
            tp.rules.push(PolicyRule::allow().with_sni(SniMatch::Suffix(s.to_string())));
            validate(&PolicySpec { version: 1, tenants: [tp].into_iter().collect() })
        };
        // `ends_with("example.com")` would also admit `evilexample.com`.
        assert_eq!(
            suffix("example.com"),
            Err(PolicyRejection::SniSuffixWithoutDot { tenant: t1(), rule: 1 })
        );
        assert_eq!(suffix(""), Err(PolicyRejection::EmptySni { tenant: t1(), rule: 1 }));
        assert_eq!(suffix(".example.com"), Ok(()));
    }

    /// The two fields `flat_eq` compares, across its empty shortcut.
    #[test]
    fn rule_equality_crosses_the_empty_case_both_ways() {
        let bare = PolicyRule::allow();
        let ids = |ids: &[u64]| PolicyRule::allow().with_identities(ids);
        let path = |p: &str| PolicyRule::allow().with_path_prefix(p);
        assert_eq!(bare, PolicyRule::allow());
        assert_eq!(ids(&[1, 2]), ids(&[1, 2]));
        assert_eq!(path("/api"), path("/api"));
        for other in [ids(&[1]), path("/")] {
            assert_ne!(bare, other);
            assert_ne!(other, bare);
        }
        assert_ne!(ids(&[1, 2]), ids(&[1, 3]));
        assert_ne!(ids(&[1, 2]), ids(&[1]));
        assert_ne!(path("/api"), path("/app"));
        assert_ne!(path("/api"), path("/api/v1"));
    }

    #[test]
    fn validation_enforces_caps() {
        let mut tp = default_deny(t1(), VpcId(1));
        let mut r = PolicyRule::allow();
        for i in 0..=MAX_HEADER_PREDICATES {
            r = r.with_header(&format!("x-h{i}"), None);
        }
        tp.rules.push(r);
        assert_eq!(
            validate_tenant(&tp),
            Err(PolicyRejection::TooManyHeaderPredicates { tenant: t1(), rule: 0 })
        );

        let mut long = default_deny(t1(), VpcId(1));
        long.rules
            .push(PolicyRule::allow().with_path_prefix(&"a".repeat(MAX_PATH_PREFIX_BYTES + 1)));
        assert_eq!(
            validate_tenant(&long),
            Err(PolicyRejection::PathPrefixTooLong { tenant: t1(), rule: 0 })
        );
    }

    /// Copy on write, tenant by tenant: a clone shares every tenant, an edit
    /// through `IndexMut` copies the one it touches if the clone still holds
    /// it and edits in place if nobody does, and `==` never asks who holds
    /// what.
    #[test]
    fn an_edit_copies_the_tenant_it_touches_only_while_it_is_shared() {
        let mut spec = PolicySpec {
            version: 1,
            tenants: (1..=3).map(|t| default_deny(TenantId(t), VpcId(t))).collect(),
        };
        let held = spec.clone();
        assert_eq!(spec.tenants.shared_tenants(&held.tenants), 3);

        spec.tenants[1].rules.push(PolicyRule::allow());
        assert_eq!(spec.tenants.shared_tenants(&held.tenants), 2);
        assert!(held.tenants[1].rules.is_empty(), "the holder's copy did not move");
        assert_ne!(spec, held);

        // Tenant 2 is this list's alone now: a second edit stays where it is.
        let own = Arc::as_ptr(&spec.tenants.shared()[1]);
        spec.tenants[1].rules.clear();
        assert_eq!(Arc::as_ptr(&spec.tenants.shared()[1]), own);
        assert_eq!(spec, held, "equal again by value, one tenant apart by allocation");
        assert_eq!(spec.tenants.shared_tenants(&held.tenants), 2);
    }

    /// Every mutator of a list that a clone shares makes the list its own
    /// first: the clone keeps its tenants by value and by allocation, and
    /// only `IndexMut` copies a tenant (the one it hands out).
    #[test]
    fn every_mutator_leaves_a_clone_as_it_was() {
        type Edit = fn(&mut TenantList);
        let edits: [(&str, Edit); 6] = [
            ("push", |l| l.push(default_deny(TenantId(9), VpcId(9)))),
            ("insert", |l| l.insert(1, default_deny(TenantId(9), VpcId(9)))),
            ("remove", |l| drop(l.remove(1))),
            ("swap", |l| l.swap(0, 2)),
            ("rotate_left", |l| l.rotate_left(1)),
            ("index_mut", |l| l[1].rules.push(PolicyRule::allow())),
        ];
        let seen = |list: &TenantList| -> Vec<(TenantPolicy, *const TenantNode)> {
            list.shared().iter().map(|node| (node.policy.clone(), Arc::as_ptr(node))).collect()
        };
        for (name, edit) in edits {
            let mut list: TenantList = (1..=3).map(|t| default_deny(TenantId(t), VpcId(t))).collect();
            let held = list.clone();
            let was = seen(&held);
            assert!(list.shared().iter().all(|node| Arc::strong_count(node) == 1), "{name}: one list");

            edit(&mut list);
            assert_eq!(seen(&held), was, "{name}");
            assert_ne!(list, held, "{name}: the edit is the list's own");
            let copied = usize::from(name == "index_mut");
            let kept = held.shared_tenants(&list);
            assert_eq!(kept, 3 - usize::from(name == "remove") - copied, "{name}");
        }
    }

    /// The stale-tables hazard. A document nobody else holds is compiled (as
    /// the controller's validation does, keeping nothing) and edited where
    /// it is: the node that was edited must not still carry the tables of
    /// the policy before the edit. A node that is shared is copied by the
    /// edit, the copy starts without tables, and the holder's keep theirs.
    #[test]
    fn an_edit_forgets_the_tables_compiled_before_it() {
        use crate::compile::{CompiledPolicySet, L4Verdict};
        let ctx = L4Ctx { tenant: t1(), vpc: VpcId(1), src_ip: 1, dst_port: 80, identity: 0 };
        let compile = |spec: &PolicySpec| {
            let set = CompiledPolicySet::compile(spec).unwrap_or_else(|e| panic!("{e}"));
            let d = Digest::of(|f| set.fold(f));
            (set.l4_verdict(&ctx), d.value())
        };
        let rebuilt = |spec: &PolicySpec| PolicySpec {
            version: spec.version,
            tenants: spec.tenants.iter().cloned().collect(),
        };
        let mut tp = default_deny(t1(), VpcId(1));
        tp.rules.push(PolicyRule::allow().with_ports(80, 80));
        let mut spec = PolicySpec { version: 1, tenants: [tp].into_iter().collect() };
        assert_eq!(format!("{:?}", spec.tenants.shared()[0]), format!("{:?}", spec.tenants[0]));

        assert_eq!(compile(&spec).0, L4Verdict::Allow);
        let own = Arc::as_ptr(&spec.tenants.shared()[0]);
        assert!(spec.tenants.shared()[0].tables().is_some(), "the compile left its tables");
        spec.tenants[0].rules[0].action = PolicyVerdict::Deny;
        assert_eq!(Arc::as_ptr(&spec.tenants.shared()[0]), own, "edited where it is");
        assert!(spec.tenants.shared()[0].tables().is_none());
        assert_eq!(compile(&spec), compile(&rebuilt(&spec)));
        assert_eq!(compile(&spec).0, L4Verdict::Deny);

        let held = spec.clone();
        spec.tenants[0].rules[0].action = PolicyVerdict::Allow;
        assert_eq!(spec.tenants.shared_tenants(&held.tenants), 0, "copied, being shared");
        assert!(spec.tenants.shared()[0].tables().is_none());
        assert!(held.tenants.shared()[0].tables().is_some());
        assert_eq!(compile(&spec), compile(&rebuilt(&spec)));
        assert_eq!((compile(&spec).0, compile(&held).0), (L4Verdict::Allow, L4Verdict::Deny));
    }

    #[test]
    fn digest_is_content_sensitive() {
        let mut a = PolicySpec { version: 1, ..PolicySpec::default() };
        let mut tp = default_deny(t1(), VpcId(1));
        tp.rules.push(PolicyRule::allow().with_path_prefix("/api"));
        a.tenants.push(tp);
        let mut b = a.clone();
        let da = Digest::of(|f| a.fold(f));
        let db = Digest::of(|f| b.fold(f));
        assert_eq!(da.value(), db.value());
        b.tenants[0].rules[0].action = PolicyVerdict::Deny;
        let dc = Digest::of(|f| b.fold(f));
        assert_ne!(da.value(), dc.value());
    }
}
