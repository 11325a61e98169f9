//! Packets and five-tuples.
//!
//! A [`Packet`] is what flows through the simulated data path: a five-tuple
//! (VPC-scoped, so overlapping tenant addresses stay distinguishable until
//! the vSwitch strips the tenant context), an optional global service tag
//! (attached by the vSwitch, §4.2), and a real byte payload.

use crate::addr::Endpoint;
use crate::ids::GlobalServiceId;
use bytes::Bytes;
use std::fmt;

/// Transport protocol of a flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Proto {
    /// TCP (all mesh traffic in the paper is TCP/HTTP(S)).
    Tcp,
    /// UDP (VXLAN outer encapsulation, probes).
    Udp,
}

impl Proto {
    /// IANA protocol number.
    pub const fn number(self) -> u8 {
        match self {
            Proto::Tcp => 6,
            Proto::Udp => 17,
        }
    }
}

/// The classic 5-tuple identifying a flow (addresses are VPC-scoped).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FiveTuple {
    /// Source endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Transport protocol.
    pub proto: Proto,
}

impl FiveTuple {
    /// Construct a TCP five-tuple.
    pub const fn tcp(src: Endpoint, dst: Endpoint) -> Self {
        FiveTuple {
            src,
            dst,
            proto: Proto::Tcp,
        }
    }

    /// The reverse direction of this flow.
    pub const fn reversed(self) -> Self {
        FiveTuple {
            src: self.dst,
            dst: self.src,
            proto: self.proto,
        }
    }
}

impl fmt::Debug for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}/{:?}", self.src, self.dst, self.proto)
    }
}

/// A unit of traffic on the simulated wire.
#[derive(Clone, Debug)]
pub struct Packet {
    /// The flow this packet belongs to.
    pub tuple: FiveTuple,
    /// TCP SYN flag — the redirector treats the first packet of a new flow
    /// specially (App. C, Fig. 26).
    pub syn: bool,
    /// Global service id tag attached by the vSwitch (§4.2); `None` until the
    /// packet has crossed the vSwitch.
    pub service_tag: Option<GlobalServiceId>,
    /// Application payload bytes.
    pub payload: Bytes,
}

impl Packet {
    /// A data packet on an established flow.
    pub fn data(tuple: FiveTuple, payload: impl Into<Bytes>) -> Self {
        Packet {
            tuple,
            syn: false,
            service_tag: None,
            payload: payload.into(),
        }
    }

    /// The SYN packet opening a new flow.
    pub fn syn(tuple: FiveTuple) -> Self {
        Packet {
            tuple,
            syn: true,
            service_tag: None,
            payload: Bytes::new(),
        }
    }

    /// Total bytes on the wire: payload plus a nominal 54-byte
    /// Ethernet+IP+TCP header (used for bandwidth accounting).
    pub fn wire_len(&self) -> usize {
        self.payload.len() + 54
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VpcAddr;
    use crate::ids::VpcId;

    fn ep(vpc: u32, last: u8, port: u16) -> Endpoint {
        Endpoint::new(VpcAddr::new(VpcId(vpc), 10, 0, 0, last), port)
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let t = FiveTuple::tcp(ep(1, 1, 1000), ep(1, 2, 80));
        let r = t.reversed();
        assert_eq!(r.src, t.dst);
        assert_eq!(r.dst, t.src);
        assert_eq!(r.reversed(), t);
    }

    #[test]
    fn proto_numbers() {
        assert_eq!(Proto::Tcp.number(), 6);
        assert_eq!(Proto::Udp.number(), 17);
    }

    #[test]
    fn packet_constructors() {
        let t = FiveTuple::tcp(ep(1, 1, 1000), ep(1, 2, 80));
        let syn = Packet::syn(t);
        assert!(syn.syn && syn.payload.is_empty() && syn.service_tag.is_none());
        let data = Packet::data(t, &b"hello"[..]);
        assert!(!data.syn);
        assert_eq!(data.payload.as_ref(), b"hello");
        assert_eq!(data.wire_len(), 5 + 54);
    }
}
