//! Certificate lifecycle: per-tenant CAs, workload certs with expiry,
//! revocation, and session-ticket resumption.
//!
//! The paper's region terminates mTLS for every pod (§4.1.3), which makes
//! certificate *churn* — issuance, expiry-driven rotation, revocation after
//! a CA compromise, and the full-handshake storms a synchronized restart
//! triggers — a first-class control-plane behaviour, not an afterthought.
//! This module is the functional substrate:
//!
//! * [`Cert`] — a workload certificate: identity bound to a tenant, a
//!   monotone serial stamped with the issuing CA generation, and a hard
//!   `not_after` expiry instant.
//! * [`TenantCa`] — the per-tenant issuing authority. Rotation bumps the
//!   CA *generation*; a compromise revokes every serial of the current
//!   generation at once (the revocation floor), while individual revocations
//!   go into a bounded list.
//! * [`TrustBundle`] — the distributable validation view a data plane
//!   (gateway) holds: tenant, CA generation, revocation floor, and the
//!   bounded individual-revocation set. This is what the rotation
//!   controller versions and the rollout controller canaries.
//! * [`SessionTicket`] / [`TicketCache`] — seeded session resumption: a
//!   completed full handshake mints a ticket; redeeming it re-derives the
//!   same session cipher *without* the asymmetric step, so the accelerator
//!   batch model and key-server RTT are only charged on cache miss or
//!   rotation. Tickets never outlive the certificate they were minted
//!   under.
//!
//! Everything here is deterministic: no wall clocks (callers pass
//! [`SimTime`]), no ambient randomness (ticket ids are derived FNV-style
//! from issuance state), and every mutable struct folds into a [`Digest`]
//! so double-run harnesses can demand bit-identical lifecycle state.

use crate::dh::SharedSecret;
use crate::mtls::MtlsError;
use canal_sim::{Fold, SimDuration, SimTime};
use std::collections::BTreeMap;

/// A workload certificate: what a [`crate::mtls::Hello`] carries instead of
/// a bare integer identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cert {
    /// Workload identity (pod/workload identity in the mesh).
    pub identity: u64,
    /// Owning tenant.
    pub tenant: u64,
    /// Issuance serial. The high 32 bits carry the issuing CA generation,
    /// the low 32 bits the per-generation issuance counter, so serials are
    /// strictly monotone across rotations and a generation-wide revocation
    /// is a single floor comparison.
    pub(crate) serial: u64,
    /// Hard expiry instant: the cert is invalid at and after this time.
    pub not_after: SimTime,
}

impl Cert {
    /// A never-expiring cert for tenant 0 — the compatibility identity used
    /// by endpoints that predate the lifecycle layer (tests, examples).
    pub(crate) fn eternal(identity: u64) -> Self {
        Cert {
            identity,
            tenant: 0,
            serial: 0,
            not_after: SimTime::MAX,
        }
    }

    /// Expiry check against a caller-supplied clock.
    pub(crate) fn valid_at(&self, now: SimTime) -> bool {
        now < self.not_after
    }
}

/// Per-tenant certificate authority: issues [`Cert`]s, rotates generations,
/// and tracks revocation.
#[derive(Debug, Clone)]
pub struct TenantCa {
    tenant: u64,
    /// Current issuing generation (starts at 1; 0 is never valid).
    generation: u64,
    /// Per-generation issuance counter (low serial bits).
    issued_in_generation: u64,
    /// Total certs ever issued.
    issued_total: u64,
    /// Serials strictly below this floor are revoked wholesale (set by
    /// [`Self::revoke_generation`] — the CA-compromise response).
    revocation_floor: u64,
    /// Individually revoked serials at/above the floor, bounded.
    revoked: BTreeMap<u64, SimTime>,
    /// Individual revocations dropped because the list was full. The floor
    /// mechanism keeps mass revocation O(1), so eviction here only loses
    /// the *oldest* targeted revocations, and only past the cap.
    revocations_evicted: u64,
}

impl TenantCa {
    /// Individually tracked revocations (oldest evicted past this).
    #[cfg(test)]
    const REVOKED_CAP: usize = 1024;

    /// A fresh CA for a tenant, at generation 1.
    pub fn new(tenant: u64) -> Self {
        TenantCa {
            tenant,
            generation: 1,
            issued_in_generation: 0,
            issued_total: 0,
            revocation_floor: 0,
            revoked: BTreeMap::new(),
            revocations_evicted: 0,
        }
    }

    /// Issue a cert for `identity`, valid for `ttl` from `now`.
    pub fn issue(&mut self, identity: u64, now: SimTime, ttl: SimDuration) -> Cert {
        let serial = (self.generation << 32) | (self.issued_in_generation & 0xFFFF_FFFF);
        self.issued_in_generation += 1;
        self.issued_total += 1;
        Cert {
            identity,
            tenant: self.tenant,
            serial,
            not_after: now + ttl,
        }
    }

    /// Rotate to the next generation. Previously issued certs stay valid
    /// until they expire (planned rotation overlaps old and new), unless
    /// [`Self::revoke_generation`] is also called (compromise response).
    pub fn rotate(&mut self) {
        self.generation += 1;
        self.issued_in_generation = 0;
    }

    /// Revoke every cert of every generation before the *current* one in a
    /// single floor move — the CA-compromise response: rotate first, then
    /// revoke everything the compromised generations signed.
    pub fn revoke_generation(&mut self) {
        self.revocation_floor = self.generation << 32;
    }

    /// Revoke one serial individually. Bounded: past [`Self::REVOKED_CAP`]
    /// the oldest entry is evicted (and counted). Only tests revoke one
    /// serial; the list stays in the CA's digest and trust bundle.
    #[cfg(test)]
    pub(crate) fn revoke(&mut self, serial: u64, now: SimTime) {
        if serial < self.revocation_floor {
            return; // already covered by the floor
        }
        self.revoked.insert(serial, now);
        while self.revoked.len() > Self::REVOKED_CAP {
            self.revoked.pop_first();
            self.revocations_evicted += 1;
        }
    }

    /// Snapshot the distributable validation view at `version`.
    pub fn trust_bundle(&self, version: u64) -> TrustBundle {
        TrustBundle {
            version,
            tenant: self.tenant,
            generation: self.generation,
            revocation_floor: self.revocation_floor,
            revoked: self.revoked.keys().copied().collect(),
        }
    }

    /// Fold the CA state into a digest.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self {
            tenant, generation, issued_in_generation, issued_total, revocation_floor, revoked,
            revocations_evicted,
        } = self;
        f.write_u64(*tenant)
            .write_u64(*generation)
            .write_u64(*issued_in_generation)
            .count("issued_total", *issued_total)
            .write_u64(*revocation_floor)
            .count("revocations_evicted", *revocations_evicted)
            .write_u64(revoked.len() as u64);
        for (&s, &at) in revoked {
            f.write_u64(s).write_u64(at.as_nanos());
        }
    }
}

/// The validation view a data plane holds: everything needed to decide
/// whether a presented [`Cert`] is acceptable *right now*, without talking
/// to the CA. Distributed as a versioned artifact through the rollout
/// controller (see `canal_gateway::certs` / `canal_control::certrotation`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrustBundle {
    /// Distribution version (monotone, from the rotation controller).
    pub version: u64,
    /// Tenant this bundle validates for.
    pub tenant: u64,
    /// CA generation the bundle was cut from.
    pub generation: u64,
    /// Serials below this are revoked wholesale.
    pub revocation_floor: u64,
    /// Individually revoked serials (bounded at the CA, so bounded here).
    pub revoked: Vec<u64>,
}

impl TrustBundle {
    /// Validate a presented cert against this bundle at `now`.
    pub(crate) fn permits(&self, cert: &Cert, now: SimTime) -> Result<(), MtlsError> {
        if cert.tenant != self.tenant {
            return Err(MtlsError::AuthenticationFailed);
        }
        if !cert.valid_at(now) {
            return Err(MtlsError::CertificateExpired);
        }
        if cert.serial < self.revocation_floor || self.revoked.binary_search(&cert.serial).is_ok()
        {
            return Err(MtlsError::CertificateRevoked);
        }
        Ok(())
    }

    /// Fold the bundle into a digest.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self { version, tenant, generation, revocation_floor, revoked } = self;
        f.write_u64(*version)
            .write_u64(*tenant)
            .write_u64(*generation)
            .write_u64(*revocation_floor)
            .write_u64(revoked.len() as u64);
        for &s in revoked {
            f.write_u64(s);
        }
    }
}

/// A resumption ticket minted after a completed full handshake. Redeeming
/// it re-installs the same session secret without the asymmetric step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTicket {
    /// Opaque ticket id (deterministically derived at mint time).
    pub id: u64,
    /// The session secret the ticket resumes.
    pub secret: SharedSecret,
    /// Identity of the peer the original session authenticated.
    pub peer_identity: u64,
    /// Tenant the session belonged to.
    pub tenant: u64,
    /// Serial of the cert the session was established under. A bundle that
    /// revokes this serial also kills the ticket.
    pub(crate) cert_serial: u64,
    /// Expiry: `min(minted + ticket_lifetime, cert.not_after)` — a ticket
    /// never outlives the certificate it was minted under.
    pub expires: SimTime,
}

impl SessionTicket {
    /// Fold the ticket into a digest.
    pub(crate) fn fold(&self, f: &mut impl Fold) {
        let Self { id, secret, peer_identity, tenant, cert_serial, expires } = self;
        f.write_u64(*id)
            .write_u64(secret.0)
            .write_u64(*peer_identity)
            .write_u64(*tenant)
            .write_u64(*cert_serial)
            .write_u64(expires.as_nanos());
    }
}

/// Why a ticket could not be redeemed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketMiss {
    /// No ticket under that id (never minted, evicted, or already used).
    Unknown,
    /// The ticket (or the cert it was minted under) expired.
    Expired,
}

/// Bounded cache of resumption tickets, keyed by ticket id.
///
/// Capacity-bounded with oldest-first eviction (BTreeMap order over the
/// monotone mint counter embedded in the id), an eviction counter, and an
/// expiry sweep — the three bounded-state disciplines.
#[derive(Debug, Clone)]
pub struct TicketCache {
    tickets: BTreeMap<u64, SessionTicket>,
    minted: u64,
    redeemed: u64,
    misses: u64,
    evicted: u64,
    expired_swept: u64,
}

impl Default for TicketCache {
    fn default() -> Self {
        Self::new()
    }
}

impl TicketCache {
    /// Maximum live tickets; oldest are evicted past this.
    pub(crate) const CAP: usize = 4096;

    /// An empty cache.
    pub fn new() -> Self {
        TicketCache {
            tickets: BTreeMap::new(),
            minted: 0,
            redeemed: 0,
            misses: 0,
            evicted: 0,
            expired_swept: 0,
        }
    }

    /// Mint a ticket for a session established under `cert` with `secret`,
    /// talking to `peer_identity`. The ticket id is derived FNV-style from
    /// the mint counter and session parameters (deterministic, no ambient
    /// randomness); its expiry is clamped to `cert.not_after`.
    pub fn mint(
        &mut self,
        cert: &Cert,
        peer_identity: u64,
        secret: SharedSecret,
        now: SimTime,
        lifetime: SimDuration,
    ) -> SessionTicket {
        // High bits: monotone mint counter (gives BTreeMap oldest-first
        // order); low bits: an FNV mix of the session parameters.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in [cert.identity, cert.tenant, cert.serial, peer_identity, secret.0] {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let id = (self.minted << 32) | (h & 0xFFFF_FFFF);
        self.minted += 1;
        let expires = (now + lifetime).min(cert.not_after);
        let ticket = SessionTicket {
            id,
            secret,
            peer_identity,
            tenant: cert.tenant,
            cert_serial: cert.serial,
            expires,
        };
        self.tickets.insert(id, ticket);
        while self.tickets.len() > Self::CAP {
            self.tickets.pop_first();
            self.evicted += 1;
        }
        ticket
    }

    /// Redeem (and consume) a ticket at `now`. Single-use: a redeemed id is
    /// gone, so a replayed resumption attempt misses.
    pub fn redeem(&mut self, id: u64, now: SimTime) -> Result<SessionTicket, TicketMiss> {
        match self.tickets.remove(&id) {
            None => {
                self.misses += 1;
                Err(TicketMiss::Unknown)
            }
            Some(t) if now >= t.expires => {
                self.misses += 1;
                self.expired_swept += 1;
                Err(TicketMiss::Expired)
            }
            Some(t) => {
                self.redeemed += 1;
                Ok(t)
            }
        }
    }

    /// Drop every ticket that has expired by `now`, or whose cert serial a
    /// new trust bundle revokes. Returns how many were dropped. Called on
    /// bundle commit: rotation + revocation invalidate resumption state.
    pub fn sweep(&mut self, now: SimTime, bundle: Option<&TrustBundle>) -> usize {
        let before = self.tickets.len();
        self.tickets.retain(|_, t| {
            if now >= t.expires {
                return false;
            }
            if let Some(b) = bundle {
                if t.tenant == b.tenant
                    && (t.cert_serial < b.revocation_floor
                        || b.revoked.binary_search(&t.cert_serial).is_ok())
                {
                    return false;
                }
            }
            true
        });
        let dropped = before - self.tickets.len();
        self.expired_swept += dropped as u64;
        dropped
    }

    /// Fold the cache state into a digest.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self { tickets, minted, redeemed, misses, evicted, expired_swept } = self;
        f.count("minted", *minted)
            .count("redeemed", *redeemed)
            .count("misses", *misses)
            .count("evicted", *evicted)
            .count("expired_swept", *expired_swept)
            .write_u64(tickets.len() as u64);
        for t in tickets.values() {
            t.fold(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_sim::Digest;

    /// Whether a serial is revoked (floor or individually).
    fn is_revoked(ca: &TenantCa, serial: u64) -> bool {
        serial < ca.revocation_floor || ca.revoked.contains_key(&serial)
    }

    #[test]
    fn issue_rotate_and_floor_revocation() {
        let mut ca = TenantCa::new(7);
        let now = SimTime::from_secs(10);
        let ttl = SimDuration::from_secs(3600);
        let a = ca.issue(100, now, ttl);
        let b = ca.issue(101, now, ttl);
        assert_eq!(a.tenant, 7);
        assert_eq!(a.serial >> 32, 1);
        assert!(b.serial > a.serial, "serials are monotone");
        assert!(!is_revoked(&ca, a.serial));

        ca.rotate();
        let c = ca.issue(100, now, ttl);
        assert_eq!(c.serial >> 32, 2);
        assert!(c.serial > b.serial, "monotone across rotation");
        // Planned rotation leaves the old generation valid...
        assert!(!is_revoked(&ca, a.serial));
        // ...compromise response revokes it wholesale.
        ca.revoke_generation();
        assert!(is_revoked(&ca, a.serial));
        assert!(is_revoked(&ca, b.serial));
        assert!(!is_revoked(&ca, c.serial));
    }

    #[test]
    fn individual_revocation_is_bounded() {
        let mut ca = TenantCa::new(1);
        let now = SimTime::from_secs(1);
        let floor_probe = 1u64 << 32; // first serial of generation 1
        for i in 0..(TenantCa::REVOKED_CAP as u64 + 10) {
            ca.revoke((1 << 32) | (i + 1), now);
        }
        assert_eq!(ca.revocations_evicted, 10);
        assert!(!is_revoked(&ca, floor_probe));
        // Below-floor serials are never stored individually.
        ca.revoke_generation(); // floor still 1<<32 (generation 1)
        ca.rotate();
        ca.revoke_generation(); // now floor = 2<<32
        ca.revoke(5, now);
        assert!(is_revoked(&ca, 5), "covered by the floor");
    }

    #[test]
    fn trust_bundle_validates_expiry_and_revocation() {
        let mut ca = TenantCa::new(3);
        let now = SimTime::from_secs(100);
        let cert = ca.issue(42, now, SimDuration::from_secs(60));
        let bundle = ca.trust_bundle(1);
        assert_eq!(bundle.permits(&cert, now), Ok(()));
        assert_eq!(
            bundle.permits(&cert, now + SimDuration::from_secs(60)),
            Err(MtlsError::CertificateExpired)
        );
        let mut other = cert;
        other.tenant = 9;
        assert_eq!(bundle.permits(&other, now), Err(MtlsError::AuthenticationFailed));
        ca.revoke(cert.serial, now);
        let bundle2 = ca.trust_bundle(2);
        assert_eq!(bundle2.permits(&cert, now), Err(MtlsError::CertificateRevoked));
    }

    #[test]
    fn tickets_never_outlive_the_cert() {
        let mut ca = TenantCa::new(2);
        let now = SimTime::from_secs(50);
        let cert = ca.issue(7, now, SimDuration::from_secs(30));
        let mut cache = TicketCache::new();
        let t = cache.mint(&cert, 99, SharedSecret(0xAB), now, SimDuration::from_secs(3600));
        assert_eq!(t.expires, cert.not_after, "clamped to cert expiry");
        assert!(cache.redeem(t.id, cert.not_after).is_err());
        assert_eq!(cache.misses, 1);
    }

    #[test]
    fn tickets_are_single_use_and_bounded() {
        let mut cache = TicketCache::new();
        let cert = Cert::eternal(1);
        let now = SimTime::from_secs(1);
        let t = cache.mint(&cert, 2, SharedSecret(7), now, SimDuration::from_secs(10));
        assert!(cache.redeem(t.id, now).is_ok());
        assert_eq!(cache.redeem(t.id, now), Err(TicketMiss::Unknown), "single use");
        for _ in 0..(TicketCache::CAP + 5) {
            cache.mint(&cert, 2, SharedSecret(7), now, SimDuration::from_secs(10));
        }
        assert_eq!(cache.tickets.len(), TicketCache::CAP);
        assert_eq!(cache.evicted, 5);
    }

    #[test]
    fn sweep_drops_revoked_and_expired() {
        let mut ca = TenantCa::new(4);
        let now = SimTime::from_secs(10);
        let cert = ca.issue(1, now, SimDuration::from_secs(100));
        let mut cache = TicketCache::new();
        cache.mint(&cert, 2, SharedSecret(1), now, SimDuration::from_secs(50));
        ca.rotate();
        ca.revoke_generation();
        let bundle = ca.trust_bundle(2);
        assert_eq!(cache.sweep(now, Some(&bundle)), 1, "revoked serial swept");
        let cert2 = ca.issue(1, now, SimDuration::from_secs(100));
        cache.mint(&cert2, 2, SharedSecret(2), now, SimDuration::from_secs(5));
        assert_eq!(cache.sweep(now + SimDuration::from_secs(6), None), 1, "expired swept");
        assert!(cache.tickets.is_empty());
    }

    #[test]
    fn digests_are_deterministic() {
        let build = || {
            let mut ca = TenantCa::new(5);
            let now = SimTime::from_secs(1);
            let cert = ca.issue(9, now, SimDuration::from_secs(10));
            let mut cache = TicketCache::new();
            cache.mint(&cert, 3, SharedSecret(0xC0FFEE), now, SimDuration::from_secs(5));
            let mut d = Digest::new();
            ca.fold(&mut d);
            cache.fold(&mut d);
            ca.trust_bundle(1).fold(&mut d);
            d.value()
        };
        assert_eq!(build(), build());
    }
}
