//! Property tests for the certificate-lifecycle machinery: seeded random
//! exploration of the invariants the unit tests only spot-check.
//!
//! * A resumed session is *the same session*: records sealed after a
//!   ticket resumption are bit-identical to records sealed over the full
//!   handshake the ticket came from.
//! * A session ticket never outlives the certificate it was minted under,
//!   no matter how cert TTL and ticket lifetime interleave.
//! * CA + ticket-cache state is deterministic under random interleavings
//!   of rotation, compromise revocation, issuance, minting, redemption,
//!   and restart-style sweeps: equal seeds fold to equal digests, and the
//!   lifecycle invariants hold at every step.

use canal_crypto::mtls::MtlsEndpoint;
use canal_crypto::{SharedSecret, TenantCa, TicketCache};
use canal_sim::{Digest, Fold, SimDuration, SimRng, SimTime};

/// Full handshake then resumption: every record the resumed session seals
/// must be identical to the full session's records — the ticket carries
/// the *same* secret, not an equivalent one.
#[test]
fn resumed_sessions_seal_identical_records() {
    let mut rng = SimRng::seed(0x5EA1);
    for round in 0..32 {
        let now = SimTime::from_secs(rng.int_range(1, 1000));
        let ttl = SimDuration::from_secs(rng.int_range(60, 86_400));
        let mut ca = TenantCa::new(7);
        let client_cert = ca.issue(100 + round, now, ttl);
        let server_cert = ca.issue(200 + round, now, ttl);
        let bundle = ca.trust_bundle(1);

        // Full handshake.
        let mut client = MtlsEndpoint::with_cert(client_cert, rng.int_range(1, 1 << 30))
            .with_trust(bundle.clone());
        let mut server = MtlsEndpoint::with_cert(server_cert, rng.int_range(1, 1 << 30))
            .with_trust(bundle);
        let hello_c = client.client_hello(now).expect("client hello");
        let (hello_s, outcome_s) = server.server_respond(&hello_c, now).expect("server respond");
        let outcome_c = client.client_finish(&hello_s, now).expect("client finish");
        assert_eq!(outcome_c.secret, outcome_s.secret, "DH must agree");

        let payloads: Vec<Vec<u8>> = (0..rng.int_range(1, 5))
            .map(|i| format!("record {round}/{i}").into_bytes())
            .collect();
        let full_records: Vec<_> = payloads
            .iter()
            .map(|p| client.seal(p).expect("seal full"))
            .collect();

        // Ticket resumption on fresh endpoints.
        let mut cache = TicketCache::new();
        let ticket = cache.mint(&client_cert, outcome_c.peer_identity, outcome_c.secret, now, ttl);
        let later = now + SimDuration::from_secs(1);
        let mut resumed_client = MtlsEndpoint::with_cert(client_cert, 1);
        let redeemed = cache.redeem(ticket.id, later).expect("redeem live ticket");
        resumed_client.resume(&redeemed, later).expect("resume");
        assert!(resumed_client.resumed(), "resumption must be marked");

        for (p, full) in payloads.iter().zip(&full_records) {
            let resumed = resumed_client.seal(p).expect("seal resumed");
            assert_eq!(
                &resumed, full,
                "resumed session must seal bit-identical records"
            );
        }
    }
}

/// However TTLs interleave, `ticket.expires <= cert.not_after`, and a
/// redeem at or past expiry always fails.
#[test]
fn tickets_never_outlive_the_cert() {
    let mut rng = SimRng::seed(0x71C3);
    let mut cache = TicketCache::new();
    let mut ca = TenantCa::new(3);
    for i in 0..256u64 {
        let now = SimTime::from_secs(rng.int_range(0, 10_000));
        let cert_ttl = SimDuration::from_secs(rng.int_range(1, 7_200));
        let ticket_lifetime = SimDuration::from_secs(rng.int_range(1, 14_400));
        let cert = ca.issue(i, now, cert_ttl);
        let ticket = cache.mint(&cert, 9, SharedSecret(i), now, ticket_lifetime);
        assert!(
            ticket.expires <= cert.not_after,
            "ticket expiry {:?} outlives cert not_after {:?}",
            ticket.expires,
            cert.not_after
        );
        assert!(
            ticket.expires <= now + ticket_lifetime,
            "ticket expiry must also respect its own lifetime"
        );
        // At (or past) expiry the ticket is dead even if still cached.
        if rng.chance(0.5) {
            let at = ticket.expires + SimDuration::from_nanos(rng.int_range(0, 1 << 30));
            assert!(
                cache.redeem(ticket.id, at).is_err(),
                "redeem at/after expiry must miss"
            );
        }
    }
}

/// One random lifecycle schedule: issuance, planned rotation, compromise
/// revocation, minting, redemption, and restart-style sweeps, all drawn
/// from the seeded rng. Returns the folded state digest.
fn lifecycle_interleaving(seed: u64) -> u64 {
    let mut rng = SimRng::seed(seed);
    let mut ca = TenantCa::new(11);
    let mut cache = TicketCache::new();
    let mut live_ids: Vec<u64> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut bundle_version = 1u64;

    for step in 0..400u64 {
        now += SimDuration::from_secs(rng.int_range(1, 60));
        match rng.int_range(0, 6) {
            0 | 1 => {
                // Issue + mint: the common path.
                let ttl = SimDuration::from_secs(rng.int_range(300, 7_200));
                let cert = ca.issue(step, now, ttl);
                let ticket = cache.mint(&cert, step ^ 0xF00, SharedSecret(step), now, ttl);
                live_ids.push(ticket.id);
            }
            2 => {
                // Planned rotation: old generation stays valid.
                ca.rotate();
                bundle_version += 1;
            }
            3 => {
                // Compromise: rotate, then floor-revoke everything prior.
                ca.rotate();
                ca.revoke_generation();
                bundle_version += 1;
                // Every ticket minted under a floored serial must die on
                // the next sweep and never resume.
                let bundle = ca.trust_bundle(bundle_version);
                cache.sweep(now, Some(&bundle));
                for id in live_ids.drain(..) {
                    assert!(
                        cache.redeem(id, now).is_err(),
                        "ticket under a revoked generation must not resume"
                    );
                }
            }
            4 => {
                // Restart-style sweep: expiry-only.
                cache.sweep(now, None);
            }
            _ => {
                // Redeem something (single-use: drop it from our view).
                if !live_ids.is_empty() {
                    let idx = rng.index(live_ids.len());
                    let id = live_ids.swap_remove(idx);
                    // Either outcome is legal (may have expired/evicted);
                    // determinism is what the digest checks.
                    let _ = cache.redeem(id, now);
                }
            }
        }
    }

    let mut d = Digest::new();
    ca.fold(&mut d);
    cache.fold(&mut d);
    d.write_u64(now.as_nanos()).write_u64(bundle_version);
    d.value()
}

/// Equal seeds fold to equal digests; different seeds diverge.
#[test]
fn random_interleavings_are_bit_deterministic() {
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        assert_eq!(
            lifecycle_interleaving(seed),
            lifecycle_interleaving(seed),
            "double run diverged for seed {seed}"
        );
    }
    assert_ne!(
        lifecycle_interleaving(1),
        lifecycle_interleaving(2),
        "different seeds should explore different schedules"
    );
}
