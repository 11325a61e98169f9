//! Byte-accurate VXLAN (RFC 7348) encapsulation and the vSwitch
//! VNI→service-ID mapping of §4.2.
//!
//! The mesh gateway runs in VMs *above* the vSwitch, which strips the outer
//! VXLAN header before packets reach the VM — so the VNI (the only tenant
//! discriminator) would be lost. Canal's fix: before stripping, the vSwitch
//! maps the VNI plus inner destination to a globally unique service id and
//! attaches it to the inner packet ([`VSwitch::deliver_to_vm`]).
//!
//! The same codec implements session aggregation (§4.4): many inner sessions
//! ride a few outer tunnels whose outer source port selects the RSS core.

use crate::ids::{GlobalServiceId, ServiceId, TenantId};
use crate::packet::Packet;
use bytes::{Buf, Bytes};
use canal_sim::Fold;
use std::collections::BTreeMap;

/// UDP destination port assigned to VXLAN.
pub(crate) const VXLAN_PORT: u16 = 4789;
/// Encapsulation overhead: outer IPv4 (20) + UDP (8) + VXLAN (8).
pub const VXLAN_OVERHEAD: usize = 20 + 8 + 8;

/// Errors from frame decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VxlanError {
    /// Frame shorter than the fixed headers.
    Truncated,
    /// Outer IPv4 header fields malformed (version/IHL/protocol).
    BadIpHeader,
    /// Outer IPv4 checksum mismatch.
    BadChecksum,
    /// UDP destination port is not the VXLAN port.
    NotVxlan,
    /// VXLAN flags field missing the valid-VNI bit.
    BadFlags,
    /// UDP length disagrees with the actual frame length.
    LengthMismatch,
    /// The vSwitch has no mapping for this VNI.
    UnknownVni,
    /// A header field the frame does not keep (DSCP, identification,
    /// fragment bits, TTL, UDP checksum, the VXLAN reserved bits) differs
    /// from what the encoder writes. RFC 7348 has a receiver ignore the
    /// reserved bits; refusing them instead keeps decode the exact inverse
    /// of encode, so a frame passed on is byte for byte the one received.
    NotCanonical,
}

impl std::fmt::Display for VxlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for VxlanError {}

/// A decoded VXLAN frame: outer IPv4/UDP endpoints, the 24-bit VNI, and the
/// opaque inner bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VxlanFrame {
    /// Outer IPv4 source (the tunnel aggregator / router).
    pub(crate) outer_src_ip: u32,
    /// Outer IPv4 destination (the replica VM).
    pub outer_dst_ip: u32,
    /// Outer UDP source port — chosen per-tunnel to spread across RSS cores.
    pub outer_sport: u16,
    /// 24-bit VXLAN network identifier (tenant discriminator).
    pub vni: u32,
    /// Encapsulated inner packet bytes.
    pub inner: Bytes,
}

/// RFC 1071 ones-complement checksum over a header.
fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = header.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let Some(&b) = chunks.remainder().first() {
        sum += u32::from(b) << 8;
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

impl VxlanFrame {
    /// Construct a frame; the VNI is masked to 24 bits.
    pub fn new(
        outer_src_ip: u32,
        outer_dst_ip: u32,
        outer_sport: u16,
        vni: u32,
        inner: impl Into<Bytes>,
    ) -> Self {
        VxlanFrame {
            outer_src_ip,
            outer_dst_ip,
            outer_sport,
            vni: vni & 0x00FF_FFFF,
            inner: inner.into(),
        }
    }

    /// Length of the encoded frame in bytes.
    pub fn encoded_len(&self) -> usize {
        VXLAN_OVERHEAD + self.inner.len()
    }

    /// The outer IPv4 + UDP + VXLAN header, built on the stack. Every byte
    /// not named below is zero.
    fn header(&self) -> [u8; VXLAN_OVERHEAD] {
        let mut h = [0u8; VXLAN_OVERHEAD];
        // --- Outer IPv4 header (20 bytes, no options) ---
        h[0] = 0x45; // version 4, IHL 5
        h[2..4].copy_from_slice(&(self.encoded_len() as u16).to_be_bytes()); // total length
        h[6..8].copy_from_slice(&0x4000u16.to_be_bytes()); // flags: DF
        h[8] = 64; // TTL
        h[9] = 17; // protocol: UDP
        h[12..16].copy_from_slice(&self.outer_src_ip.to_be_bytes());
        h[16..20].copy_from_slice(&self.outer_dst_ip.to_be_bytes());
        let csum = ipv4_checksum(&h[0..20]);
        h[10..12].copy_from_slice(&csum.to_be_bytes());

        // --- Outer UDP header (8 bytes; the checksum is optional over IPv4) ---
        let udp_len = (8 + 8 + self.inner.len()) as u16;
        h[20..22].copy_from_slice(&self.outer_sport.to_be_bytes());
        h[22..24].copy_from_slice(&VXLAN_PORT.to_be_bytes());
        h[24..26].copy_from_slice(&udp_len.to_be_bytes());

        // --- VXLAN header (8 bytes) ---
        h[28] = 0x08; // flags: I (valid VNI)
        h[32..36].copy_from_slice(&(self.vni << 8).to_be_bytes()); // VNI in the top 24 bits
        h
    }

    /// Serialize to wire bytes: outer IPv4 (with real checksum) + UDP + VXLAN
    /// header + inner payload, in one allocation.
    pub fn encode(&self) -> Bytes {
        Bytes::concat(&self.header(), &self.inner)
    }

    /// Parse wire bytes back into a frame: the fields it keeps are read, and
    /// the frame is accepted only if its header is byte for byte the one
    /// [`VxlanFrame::encode`] writes for them. Anything else is refused with
    /// the first check it fails.
    pub fn decode(mut bytes: Bytes) -> Result<VxlanFrame, VxlanError> {
        let mut wire = [0u8; VXLAN_OVERHEAD];
        match bytes.get(..VXLAN_OVERHEAD) {
            Some(h) => wire.copy_from_slice(h),
            None => return Err(VxlanError::Truncated),
        }
        let len = bytes.len();
        // The payload keeps the caller's buffer: no reference count moves.
        bytes.advance(VXLAN_OVERHEAD);
        let be32 = |at: usize| u32::from_be_bytes([wire[at], wire[at + 1], wire[at + 2], wire[at + 3]]);
        let frame = VxlanFrame {
            outer_src_ip: be32(12),
            outer_dst_ip: be32(16),
            outer_sport: u16::from_be_bytes([wire[20], wire[21]]),
            vni: be32(32) >> 8,
            inner: bytes,
        };
        if frame.header() == wire {
            return Ok(frame);
        }
        Err(refusal(&wire, len))
    }
}

/// Why a frame of `len` bytes with header `wire` is not one the encoder
/// wrote: version / IHL and protocol, the IPv4 checksum, the total length,
/// the VXLAN port, the UDP length and the valid-VNI flag, in that order,
/// and [`VxlanError::NotCanonical`] if all of those hold.
fn refusal(wire: &[u8; VXLAN_OVERHEAD], len: usize) -> VxlanError {
    let be16 = |at: usize| usize::from(u16::from_be_bytes([wire[at], wire[at + 1]]));
    if wire[0] != 0x45 || wire[9] != 17 {
        VxlanError::BadIpHeader
    } else if ipv4_checksum(&wire[0..20]) != 0 {
        VxlanError::BadChecksum
    } else if be16(2) != len {
        VxlanError::LengthMismatch
    } else if be16(22) != usize::from(VXLAN_PORT) {
        VxlanError::NotVxlan
    } else if be16(24) != len - 20 {
        VxlanError::LengthMismatch
    } else if wire[28] & 0x08 == 0 {
        VxlanError::BadFlags
    } else {
        VxlanError::NotCanonical
    }
}

/// The vSwitch under a gateway VM: owns the VNI→tenant mapping and the
/// (tenant, inner destination port)→service registry used to derive the
/// globally unique service id attached to the inner packet (§4.2).
#[derive(Debug, Default)]
pub struct VSwitch {
    // lint:allow(bounded-state) reason=one entry per tenant VNI bound at setup; the 24-bit VNI space bounds it
    vni_to_tenant: BTreeMap<u32, TenantId>,
    /// (tenant, inner dst port) → per-tenant service.
    // lint:allow(bounded-state) reason=one entry per registered tenant service port; registration is a control-plane setup operation, not a data-path event
    service_by_port: BTreeMap<(TenantId, u16), ServiceId>,
}

impl VSwitch {
    /// Empty vSwitch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a VNI to a tenant.
    pub fn map_vni(&mut self, vni: u32, tenant: TenantId) {
        self.vni_to_tenant.insert(vni & 0x00FF_FFFF, tenant);
    }

    /// Register a tenant service reachable on an inner destination port.
    pub fn register_service(&mut self, tenant: TenantId, dst_port: u16, service: ServiceId) {
        self.service_by_port.insert((tenant, dst_port), service);
    }

    /// Fold both registries, `vni_to_tenant` and `service_by_port`, into a
    /// digest.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self { vni_to_tenant, service_by_port } = self;
        f.write_u64(vni_to_tenant.len() as u64);
        for (&vni, tenant) in vni_to_tenant {
            f.write_u64(vni as u64).write_u64(tenant.raw() as u64);
        }
        f.write_u64(service_by_port.len() as u64);
        for (&(tenant, port), service) in service_by_port {
            f.write_u64(tenant.raw() as u64)
                .write_u64(port as u64)
                .write_u64(service.raw() as u64);
        }
    }

    /// Tenant owning a VNI, if mapped.
    pub(crate) fn tenant_of(&self, vni: u32) -> Option<TenantId> {
        self.vni_to_tenant.get(&(vni & 0x00FF_FFFF)).copied()
    }

    /// The §4.2 delivery step: strip the outer VXLAN header and attach the
    /// globally unique service id to the inner packet so the gateway VM can
    /// still differentiate tenants. `inner` is the already-parsed inner
    /// packet whose bytes were carried by `frame`.
    pub fn deliver_to_vm(
        &self,
        frame: &VxlanFrame,
        mut inner: Packet,
    ) -> Result<Packet, VxlanError> {
        let tenant = self.tenant_of(frame.vni).ok_or(VxlanError::UnknownVni)?;
        let service = self
            .service_by_port
            .get(&(tenant, inner.tuple.dst.port))
            .copied()
            // Unregistered ports still get a tenant-scoped tag (service 0);
            // the gateway's policy layer will reject them.
            .unwrap_or(ServiceId(0));
        inner.service_tag = Some(GlobalServiceId::compose(tenant, service));
        Ok(inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Endpoint, VpcAddr};
    use crate::ids::VpcId;
    use crate::packet::FiveTuple;

    fn sample_frame(payload: &[u8]) -> VxlanFrame {
        VxlanFrame::new(0x0A00_0001, 0x0A00_0002, 41000, 0x123456, payload.to_vec())
    }

    #[test]
    fn encode_decode_round_trip() {
        let f = sample_frame(b"inner-bytes");
        let wire = f.encode();
        assert_eq!(wire.len(), VXLAN_OVERHEAD + 11);
        let back = VxlanFrame::decode(wire).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn vni_masked_to_24_bits() {
        let f = VxlanFrame::new(1, 2, 3, 0xFF12_3456, Bytes::new());
        assert_eq!(f.vni, 0x0012_3456);
        let back = VxlanFrame::decode(f.encode()).unwrap();
        assert_eq!(back.vni, 0x0012_3456);
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let wire = sample_frame(b"x").encode();
        let mut bad = wire.to_vec();
        bad[14] ^= 0xFF; // flip a bit in the source IP
        assert_eq!(
            VxlanFrame::decode(Bytes::from(bad)),
            Err(VxlanError::BadChecksum)
        );
    }

    #[test]
    fn truncated_rejected() {
        let wire = sample_frame(b"payload").encode();
        let cut = wire.slice(0..VXLAN_OVERHEAD - 1);
        assert_eq!(VxlanFrame::decode(cut), Err(VxlanError::Truncated));
        // Cutting payload bytes trips the length check instead.
        let short = {
            let mut v = sample_frame(b"payload").encode().to_vec();
            v.truncate(v.len() - 2);
            Bytes::from(v)
        };
        assert_eq!(VxlanFrame::decode(short), Err(VxlanError::LengthMismatch));
    }

    #[test]
    fn wrong_port_rejected() {
        let f = sample_frame(b"x");
        let mut bad = f.encode().to_vec();
        // UDP dst port lives at offset 22..24.
        bad[22..24].copy_from_slice(&80u16.to_be_bytes());
        assert_eq!(
            VxlanFrame::decode(Bytes::from(bad)),
            Err(VxlanError::NotVxlan)
        );
    }

    #[test]
    fn missing_vni_flag_rejected() {
        let f = sample_frame(b"x");
        let mut bad = f.encode().to_vec();
        bad[28] = 0; // VXLAN flags byte
        assert_eq!(
            VxlanFrame::decode(Bytes::from(bad)),
            Err(VxlanError::BadFlags)
        );
    }

    #[test]
    fn fields_decode_drops_must_be_what_encode_writes() {
        let wire = sample_frame(b"x").encode().to_vec();
        // The UDP checksum, a reserved flag bit, a reserved byte before the
        // VNI and the one after it.
        for at in [26, 28, 30, 35] {
            let mut bad = wire.clone();
            bad[at] ^= 0x01;
            assert_eq!(
                VxlanFrame::decode(Bytes::from(bad)),
                Err(VxlanError::NotCanonical),
                "byte {at}"
            );
        }
        // Another TTL under a valid checksum.
        let mut bad = wire;
        bad[8] = 63;
        bad[10..12].fill(0);
        let csum = ipv4_checksum(&bad[0..20]);
        bad[10..12].copy_from_slice(&csum.to_be_bytes());
        assert_eq!(
            VxlanFrame::decode(Bytes::from(bad)),
            Err(VxlanError::NotCanonical)
        );
    }

    fn inner_packet(vpc: u32, dport: u16) -> Packet {
        Packet::data(
            FiveTuple::tcp(
                Endpoint::new(VpcAddr::new(VpcId(vpc), 10, 0, 0, 1), 5555),
                Endpoint::new(VpcAddr::new(VpcId(vpc), 10, 0, 0, 2), dport),
            ),
            &b"req"[..],
        )
    }

    #[test]
    fn vswitch_attaches_global_service_id() {
        let mut vs = VSwitch::new();
        vs.map_vni(100, TenantId(1));
        vs.map_vni(200, TenantId(2));
        vs.register_service(TenantId(1), 80, ServiceId(7));
        vs.register_service(TenantId(2), 80, ServiceId(7));

        let f1 = VxlanFrame::new(1, 2, 3, 100, Bytes::new());
        let f2 = VxlanFrame::new(1, 2, 3, 200, Bytes::new());
        // Identical inner packets from two tenants get distinct global ids.
        let p1 = vs.deliver_to_vm(&f1, inner_packet(1, 80)).unwrap();
        let p2 = vs.deliver_to_vm(&f2, inner_packet(1, 80)).unwrap();
        let g1 = p1.service_tag.unwrap();
        let g2 = p2.service_tag.unwrap();
        assert_ne!(g1, g2);
        assert_eq!(g1.tenant(), TenantId(1));
        assert_eq!(g2.tenant(), TenantId(2));
        assert_eq!(g1.service(), ServiceId(7));
    }

    #[test]
    fn vswitch_unknown_vni_fails() {
        let vs = VSwitch::new();
        let f = VxlanFrame::new(1, 2, 3, 999, Bytes::new());
        assert!(matches!(
            vs.deliver_to_vm(&f, inner_packet(1, 80)),
            Err(VxlanError::UnknownVni)
        ));
    }

    #[test]
    fn vswitch_unregistered_port_tags_service_zero() {
        let mut vs = VSwitch::new();
        vs.map_vni(100, TenantId(1));
        let f = VxlanFrame::new(1, 2, 3, 100, Bytes::new());
        let p = vs.deliver_to_vm(&f, inner_packet(1, 9999)).unwrap();
        assert_eq!(p.service_tag.unwrap().service(), ServiceId(0));
    }
}
