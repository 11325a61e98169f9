//! The cert-bundle plane: what a gateway's [`ActiveCertBundle`] slot admits.
//!
//! A gateway terminates mTLS for every pod behind it (§4.1.3), so the
//! trust state it validates peer certs against (CA generation, revocation
//! floor, expiry horizon) is distributed control-plane state with the same
//! outage potential as a route table (§2.2). A pushed [`CertBundleSpec`]
//! therefore goes through the fail-static contract of [`crate::failstatic`]
//! (fence, version, content, swap), one slot per served tenant. This module
//! supplies the content check: a bundle for another tenant, a CA generation
//! of zero or one that regressed below the running bundle's, or a
//! clock-skewed `not_after` (already expired on arrival, or not after its
//! own issuance instant) is refused with a [`BundleRejection`], and
//! handshakes keep validating against the last committed bundle. A rollback
//! re-runs the previous generation on purpose, so it skips the regression
//! check and nothing else.
//!
//! [`CertFault`] is the typed bridge from [`MtlsError`] into the
//! resilience layer: expiry is retryable-after-refresh, revocation is
//! terminal (not retry fuel for the retry budget).

use crate::failstatic::{FailStatic, Plane};
use canal_crypto::mtls::MtlsError;
use canal_sim::{Fold, SimTime};

// Re-exported so upstream crates (the rotation controller in
// `canal_control`) can build bundles through the gateway's cert surface
// without taking a direct `canal_crypto` dependency — the layering DAG
// keeps crypto below the gateway only.
pub use canal_crypto::lifecycle::TrustBundle;

/// A versioned, distributable cert bundle: the trust view gateways should
/// validate a tenant's handshakes against, plus the issuance metadata the
/// commit-time sanity checks need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertBundleSpec {
    /// The validation view (carries `version`, tenant, generation,
    /// revocation floor, individual revocations).
    pub trust: TrustBundle,
    /// When the controller cut the bundle.
    pub issued_at: SimTime,
    /// Expiry horizon of certs issued under this bundle; the commit check
    /// rejects horizons at or before `issued_at` (and at or before the
    /// committing gateway's clock) as issuance-clock skew.
    pub not_after: SimTime,
}

impl CertBundleSpec {
    /// Distribution version (from the rotation controller's store).
    pub(crate) fn version(&self) -> u64 {
        self.trust.version
    }

    /// Fold the spec into a digest (content-sensitive).
    pub fn fold(&self, f: &mut impl Fold) {
        let Self { trust, issued_at, not_after } = self;
        f.scope("trust", |f| trust.fold(f));
        f.write_u64(issued_at.as_nanos()).write_u64(not_after.as_nanos());
    }
}

/// Why the content check refused a cert bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BundleRejection {
    /// The bundle is for a different tenant than this serving slot.
    MismatchedTenant {
        /// Tenant named in the bundle.
        bundle: u64,
        /// Tenant this slot serves.
        serving: u64,
    },
    /// The CA generation is zero (never valid) or regressed below the
    /// running bundle's: committing it would resurrect revoked certs.
    BadCaGeneration {
        /// Generation in the staged bundle.
        staged: u64,
        /// Generation currently running (0 when nothing runs yet).
        running: u64,
    },
    /// The bundle's validity horizon is behind its own issuance instant or
    /// behind the committing gateway's clock: the issuance clock is
    /// skewed, and committing would instantly expire the tenant's fleet.
    ClockSkewedNotAfter,
}

impl std::fmt::Display for BundleRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleRejection::MismatchedTenant { bundle, serving } => {
                write!(f, "bundle for tenant {bundle} pushed to tenant {serving}")
            }
            BundleRejection::BadCaGeneration { staged, running } => {
                write!(f, "bad CA generation {staged} (running {running})")
            }
            BundleRejection::ClockSkewedNotAfter => write!(f, "clock-skewed not_after"),
        }
    }
}

/// The cert-bundle [`Plane`]: bundles are served as pushed, checked against
/// the tenant the slot serves and the running bundle's CA generation.
#[derive(Debug, Clone, Copy)]
pub struct CertPlane;

impl Plane for CertPlane {
    type Spec = CertBundleSpec;
    type Served = CertBundleSpec;
    type Ctx<'a> = u64;
    type Reject = BundleRejection;

    fn version(spec: &CertBundleSpec) -> u64 {
        spec.version()
    }

    fn spec(served: &CertBundleSpec) -> &CertBundleSpec {
        served
    }

    fn admit(
        spec: CertBundleSpec,
        now: SimTime,
        serving_tenant: u64,
        running: Option<&CertBundleSpec>,
    ) -> Result<CertBundleSpec, BundleRejection> {
        let running_generation = running.map_or(0, |r| r.trust.generation);
        ActiveCertBundle::validate(&spec, now, serving_tenant, running_generation)?;
        Ok(spec)
    }

    fn fold_spec(spec: &CertBundleSpec, f: &mut impl Fold) {
        spec.fold(f);
    }
}

/// The `{running, staged}` cert-bundle pair a gateway validates one
/// tenant's handshakes from.
pub type ActiveCertBundle = FailStatic<CertPlane>;

impl ActiveCertBundle {
    /// Content validation, independent of the running pair. Pure: used by
    /// the commit and by controllers pre-validating before a push.
    /// `running_generation` is 0 when nothing runs yet.
    pub fn validate(
        spec: &CertBundleSpec,
        now: SimTime,
        serving_tenant: u64,
        running_generation: u64,
    ) -> Result<(), BundleRejection> {
        if spec.trust.tenant != serving_tenant {
            return Err(BundleRejection::MismatchedTenant {
                bundle: spec.trust.tenant,
                serving: serving_tenant,
            });
        }
        if spec.trust.generation == 0 || spec.trust.generation < running_generation {
            return Err(BundleRejection::BadCaGeneration {
                staged: spec.trust.generation,
                running: running_generation,
            });
        }
        if spec.not_after <= spec.issued_at || spec.not_after <= now {
            return Err(BundleRejection::ClockSkewedNotAfter);
        }
        Ok(())
    }
}

/// A certificate-lifecycle handshake failure, typed for the resilience
/// layer: the two [`MtlsError`] variants whose retry semantics differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertFault {
    /// The presented cert was past `not_after`. Retryable-after-refresh:
    /// one retry is allowed, representing the workload fetching a
    /// re-issued cert; if that also expires, the CA is broken and the
    /// request fails.
    Expired,
    /// The presented serial is revoked. Terminal: retrying cannot succeed
    /// until re-issuance, so the failure is not retry fuel.
    Revoked,
}

impl TryFrom<MtlsError> for CertFault {
    type Error = MtlsError;

    /// Typed conversion from the handshake layer: lifecycle failures map
    /// to a [`CertFault`]; every other [`MtlsError`] passes through as the
    /// error (callers treat those as ordinary backend failures).
    fn try_from(e: MtlsError) -> Result<Self, MtlsError> {
        match e {
            MtlsError::CertificateExpired => Ok(CertFault::Expired),
            MtlsError::CertificateRevoked => Ok(CertFault::Revoked),
            other => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failstatic::Rejection;

    fn bundle(version: u64, tenant: u64, generation: u64, issued: u64, ttl: u64) -> CertBundleSpec {
        CertBundleSpec {
            trust: TrustBundle {
                version,
                tenant,
                generation,
                revocation_floor: generation << 32,
                revoked: Vec::new(),
            },
            issued_at: SimTime::from_secs(issued),
            not_after: SimTime::from_secs(issued + ttl),
        }
    }

    #[test]
    fn poisoned_bundles_rejected_fail_static() {
        let now = SimTime::from_secs(10);
        let mut ac = ActiveCertBundle::new();
        ac.stage(bundle(1, 7, 1, 0, 3600));
        ac.commit(now, 7).ok();

        // Mismatched tenant.
        ac.stage(bundle(2, 9, 2, 10, 3600));
        assert_eq!(
            ac.commit(now, 7),
            Err(Rejection::Content(BundleRejection::MismatchedTenant { bundle: 9, serving: 7 }))
        );
        // Clock-skewed not_after: already expired on arrival.
        let mut skewed = bundle(3, 7, 2, 10, 3600);
        skewed.not_after = SimTime::from_secs(5);
        ac.stage(skewed);
        assert_eq!(ac.commit(now, 7), Err(Rejection::Content(BundleRejection::ClockSkewedNotAfter)));
        // Bad CA generation: zero, then regression.
        ac.stage(bundle(4, 7, 0, 10, 3600));
        assert_eq!(
            ac.commit(now, 7),
            Err(Rejection::Content(BundleRejection::BadCaGeneration { staged: 0, running: 1 }))
        );
        ac.stage(bundle(5, 7, 5, 10, 3600));
        assert_eq!(ac.commit(now, 7), Ok(5));
        ac.stage(bundle(6, 7, 4, 10, 3600));
        assert_eq!(
            ac.commit(now, 7),
            Err(Rejection::Content(BundleRejection::BadCaGeneration { staged: 4, running: 5 }))
        );
        // Fail-static throughout: the last good bundle kept serving.
        assert_eq!(ac.running_version(), Some(5));
        assert_eq!(ac.rejections(), 4);
    }

    #[test]
    fn cert_fault_conversion_is_typed() {
        assert_eq!(CertFault::try_from(MtlsError::CertificateExpired), Ok(CertFault::Expired));
        assert_eq!(CertFault::try_from(MtlsError::CertificateRevoked), Ok(CertFault::Revoked));
        assert_eq!(CertFault::try_from(MtlsError::BadRecord), Err(MtlsError::BadRecord));
        assert_eq!(CertFault::try_from(MtlsError::BadState), Err(MtlsError::BadState));
    }
}
