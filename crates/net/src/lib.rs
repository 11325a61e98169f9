//! # canal-net
//!
//! Network substrate for the Canal Mesh reproduction: identifiers and
//! addressing (with the deliberate cross-tenant VPC address overlap the paper
//! highlights), five-tuples, a byte-accurate VXLAN encapsulation codec with
//! the vSwitch VNI→service-ID mapping of §4.2, ECMP and bucket hashing used
//! by the disaggregated load balancer, the Nagle small-packet aggregation
//! buffer of §4.1.2, and capacity-bounded session tables modeling
//! SmartNIC-backed session memory (§3.2 Issue #4).
//!
//! Everything here is real data-path code operating on real bytes; only
//! *time* comes from `canal-sim`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

#![warn(missing_docs)]

pub mod addr;
pub mod ecmp;
pub mod flat;
pub mod flow;
pub mod ids;
pub mod nagle;
pub mod packet;
pub mod priority;
pub mod ratelimit;
pub mod trace;
pub mod vxlan;

pub use addr::{Endpoint, VpcAddr};
pub use ecmp::{hash_five_tuple, FlowHash};
pub use flat::{FlatKey, FlatTable};
pub use flow::SessionTable;
pub use ids::{AzId, GlobalServiceId, NodeId, PodId, ServiceId, TenantId, VpcId};
pub use priority::Priority;
pub use ratelimit::TokenBucket;
pub use trace::TraceContext;
pub use packet::{FiveTuple, Packet};
pub use vxlan::{VxlanFrame, VXLAN_OVERHEAD};
