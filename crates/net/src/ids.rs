//! Strongly-typed identifiers shared across the workspace.
//!
//! A multi-tenant mesh juggles many integer id spaces (tenants, VPCs, AZs,
//! nodes, pods, per-tenant services and the *globally unique* service id the
//! vSwitch attaches per §4.2). Newtypes keep them from being confused.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Raw integer value.
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// A cloud tenant (customer account).
    TenantId,
    "tenant"
);
id_type!(
    /// A virtual private cloud; address spaces of different VPCs may overlap.
    VpcId,
    "vpc"
);
id_type!(
    /// An availability zone.
    AzId,
    "az"
);
id_type!(
    /// A worker node (VM or physical host) in a tenant cluster.
    NodeId,
    "node"
);
id_type!(
    /// A pod running one replica of a tenant service.
    PodId,
    "pod"
);
id_type!(
    /// A service *within one tenant's namespace* (not globally unique).
    ServiceId,
    "svc"
);

/// The globally unique service identifier the vSwitch derives from
/// `(tenant VNI, per-tenant service)` and attaches to the inner header so the
/// gateway can differentiate tenants after the outer VXLAN header is
/// stripped (§4.2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GlobalServiceId(pub u64);

impl GlobalServiceId {
    /// Compose from a tenant and its per-tenant service id.
    pub const fn compose(tenant: TenantId, service: ServiceId) -> Self {
        GlobalServiceId(((tenant.0 as u64) << 32) | service.0 as u64)
    }

    /// The tenant component.
    pub const fn tenant(self) -> TenantId {
        TenantId((self.0 >> 32) as u32)
    }

    /// The per-tenant service component.
    pub(crate) const fn service(self) -> ServiceId {
        ServiceId(self.0 as u32)
    }
}

impl std::fmt::Debug for GlobalServiceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gsvc({}/{})", self.tenant(), self.service())
    }
}

impl std::fmt::Display for GlobalServiceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.tenant(), self.service())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(format!("{}", TenantId(3)), "tenant3");
        assert_eq!(format!("{}", ServiceId(9)), "svc9");
        assert_eq!(format!("{:?}", NodeId(1)), "node1");
    }

    #[test]
    fn global_service_id_round_trips() {
        let g = GlobalServiceId::compose(TenantId(7), ServiceId(42));
        assert_eq!(g.tenant(), TenantId(7));
        assert_eq!(g.service(), ServiceId(42));
    }

    #[test]
    fn same_service_id_different_tenants_is_distinct() {
        // The whole point of the global id: svc5 of tenant1 != svc5 of tenant2.
        let a = GlobalServiceId::compose(TenantId(1), ServiceId(5));
        let b = GlobalServiceId::compose(TenantId(2), ServiceId(5));
        assert_ne!(a, b);
        assert_eq!(a.service(), b.service());
    }
}
