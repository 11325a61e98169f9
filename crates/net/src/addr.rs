//! VPC-scoped addressing.
//!
//! Inside a VPC, addresses are plain IPv4. Across VPCs the *same* IPv4
//! address can appear in two tenants' clusters — the overlap that makes
//! header fields alone insufficient for multi-tenant service differentiation
//! (§4.2). [`VpcAddr`] therefore pairs the VPC id with the IPv4 address; the
//! pair is unique cloud-wide, while the `ip` alone is not.

use crate::ids::VpcId;
use std::fmt;

/// An IPv4 address scoped to a VPC.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VpcAddr {
    /// Owning VPC.
    pub vpc: VpcId,
    /// IPv4 address as a big-endian u32 (e.g. 10.0.1.7 = 0x0A000107).
    pub ip: u32,
}

impl VpcAddr {
    /// Construct from a VPC and dotted-quad octets.
    pub const fn new(vpc: VpcId, a: u8, b: u8, c: u8, d: u8) -> Self {
        VpcAddr {
            vpc,
            ip: ((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32,
        }
    }

    /// Construct from a raw u32 IPv4 value.
    pub const fn from_ip(vpc: VpcId, ip: u32) -> Self {
        VpcAddr { vpc, ip }
    }

    /// Dotted-quad octets.
    pub(crate) const fn octets(self) -> [u8; 4] {
        [
            (self.ip >> 24) as u8,
            (self.ip >> 16) as u8,
            (self.ip >> 8) as u8,
            self.ip as u8,
        ]
    }
}

impl fmt::Debug for VpcAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{}:{}.{}.{}.{}", self.vpc, a, b, c, d)
    }
}

impl fmt::Display for VpcAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A transport endpoint: VPC-scoped address plus port.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Endpoint {
    /// The address.
    pub addr: VpcAddr,
    /// TCP/UDP port.
    pub port: u16,
}

impl Endpoint {
    /// Construct an endpoint.
    pub const fn new(addr: VpcAddr, port: u16) -> Self {
        Endpoint { addr, port }
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octet_round_trip() {
        let a = VpcAddr::new(VpcId(1), 10, 0, 1, 7);
        assert_eq!(a.ip, 0x0A00_0107);
        assert_eq!(a.octets(), [10, 0, 1, 7]);
        assert_eq!(format!("{a}"), "vpc1:10.0.1.7");
    }

    #[test]
    fn overlapping_ip_across_vpcs_is_distinct() {
        // Two tenants both use 10.0.0.1 — distinct cloud-wide addresses.
        let t1 = VpcAddr::new(VpcId(1), 10, 0, 0, 1);
        let t2 = VpcAddr::new(VpcId(2), 10, 0, 0, 1);
        assert_ne!(t1, t2);
        assert_eq!(t1.ip, t2.ip);
    }

    #[test]
    fn endpoints_order_and_hash() {
        use std::collections::HashSet;
        let a = Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 0, 1), 80);
        let b = Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 0, 1), 81);
        let mut set = HashSet::new();
        set.insert(a);
        set.insert(b);
        set.insert(a);
        assert_eq!(set.len(), 2);
        assert!(a < b);
    }
}
