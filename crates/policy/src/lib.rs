//! # canal-policy
//!
//! The multi-tenant network-policy plane (DESIGN.md §14): tenant-scoped
//! L4–L7 policy specs compiled into a flat match structure the datapath can
//! evaluate in O(log n) per lookup, with no per-rule scan.
//!
//! * [`spec`] — the declarative model: [`PolicyRule`]s over source CIDR,
//!   destination-port range, verified workload identity, HTTP method, path
//!   prefix, SNI and header predicates, grouped per tenant into a versioned
//!   [`PolicySpec`] whose versions and copies share every tenant they did
//!   not change ([`TenantList`]), plus semantic validation ([`validate`])
//!   whose rejections the gateway NACKs instead of applying.
//! * [`compile`] — the compiled form: per-dimension disjoint-interval
//!   tables (binary search over segment boundaries), a path-prefix byte
//!   trie and exact-match maps, each yielding a per-rule bitmask; a verdict
//!   is the AND of the dimension masks and the first set bit
//!   (first-match-wins). The top level is keyed by [`TenantId`], so a
//!   packet can never reach another tenant's rules — isolation is
//!   structural, not filtered.
//! * [`reference`] — the naive scan-all-rules matcher the differential
//!   property tests compare against bit for bit.
//! * [`store`] — the bounded version archive pushes are cloned from and the
//!   rollout controller's rollback targets are materialized from.
//!
//! Everything is deterministic: no wall clocks, no ambient randomness, and
//! every stateful struct folds into a [`canal_sim::Digest`].
//!
//! [`TenantId`]: canal_net::TenantId
//! [`validate`]: spec::validate

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod reference;
pub mod spec;
pub mod store;

pub use compile::{CompiledPolicySet, CompiledTenant, L4Verdict};
pub use reference::{reference_l4_verdict, reference_l7_match, reference_l7_verdict};
pub use spec::{
    validate, Cidr, HeaderPredicate, L4Ctx, L7Ctx, PolicyRejection, PolicyRule, PolicySpec,
    PolicyVerdict, PortRange, SniMatch, TenantList, TenantNode, TenantPolicy, MAX_HEADER_PREDICATES,
    MAX_PATH_PREFIX_BYTES, MAX_RULES_PER_TENANT,
};
pub use store::{PolicyStore, POLICY_RETAIN_CAP};
