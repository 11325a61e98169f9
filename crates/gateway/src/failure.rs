//! Hierarchical failure recovery (§4.2, Fig. 8).
//!
//! Three nested failure domains: replica ⊂ backend ⊂ AZ. A service placed
//! on multiple backends in multiple AZs stays available while *any* of its
//! backends has a live replica in a live AZ. [`PlacementView`] tracks
//! domain failures and answers availability queries — the mechanism the
//! Fig. 8 walkthrough and the DNS failover (see `canal_cluster::dns`)
//! build on.

use canal_net::{AzId, GlobalServiceId};
use canal_sim::Digest;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of a gateway backend (a group of replica VMs). Keys are small
/// dense integers (the gateway numbers its backends from 0), so per-backend
/// state is a vector indexed by key.
pub type BackendKey = u32;

/// A fault plan referenced a domain the topology does not contain —
/// unknown backend key, replica index out of range, or an AZ with no
/// registered backend. Surfaced as an error (rather than a silent no-op)
/// so fault plans cannot drift from the topology unnoticed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownDomain(pub FailureDomain);

impl fmt::Display for UnknownDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown failure domain {:?}", self.0)
    }
}

impl std::error::Error for UnknownDomain {}

/// A failure (or recovery) target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureDomain {
    /// One replica VM of a backend.
    Replica(BackendKey, usize),
    /// A whole backend (all its replicas).
    Backend(BackendKey),
    /// A whole AZ (power outage scenario).
    Az(AzId),
}

#[derive(Debug, Clone)]
struct BackendState {
    az: AzId,
    /// Per-replica failure flag; the length is the replica count.
    replica_failed: Vec<bool>,
    /// How many flags are set.
    failed_count: usize,
    backend_failed: bool,
}

impl BackendState {
    fn replica_live(&self, r: usize) -> bool {
        self.replica_failed.get(r) == Some(&false)
    }
}

/// Placement plus failure state, with availability queries. The
/// per-request queries ([`PlacementView::backend_available`],
/// [`PlacementView::serving_replica`]) are an index into `backends` and a
/// scan of one backend's flags; nothing is collected.
#[derive(Debug, Default)]
pub struct PlacementView {
    /// Indexed by [`BackendKey`]; `None` for keys never registered.
    // lint:allow(bounded-state) reason=the registered topology; backends are added at setup or by explicit scale operations
    backends: Vec<Option<BackendState>>,
    failed_azs: BTreeSet<AzId>,
    // lint:allow(bounded-state) reason=one entry per placed service; placements happen at registration and scale time, never per request
    placements: BTreeMap<GlobalServiceId, Vec<BackendKey>>,
}

impl PlacementView {
    /// Empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a backend with its AZ and replica count.
    pub fn add_backend(&mut self, key: BackendKey, az: AzId, replicas: usize) {
        assert!(replicas > 0);
        let idx = key as usize;
        if idx >= self.backends.len() {
            self.backends.resize_with(idx + 1, || None);
        }
        self.backends[idx] = Some(BackendState {
            az,
            replica_failed: vec![false; replicas],
            failed_count: 0,
            backend_failed: false,
        });
    }

    fn backend(&self, key: BackendKey) -> Option<&BackendState> {
        self.backends.get(key as usize)?.as_ref()
    }

    fn backend_mut(&mut self, key: BackendKey) -> Option<&mut BackendState> {
        self.backends.get_mut(key as usize)?.as_mut()
    }

    /// Registered backends with their keys, ascending.
    fn registered(&self) -> impl Iterator<Item = (BackendKey, &BackendState)> {
        self.backends
            .iter()
            .enumerate()
            .filter_map(|(k, be)| Some((k as BackendKey, be.as_ref()?)))
    }

    /// Place a service's configuration on a backend (Fig. 8: a service's
    /// config is installed on multiple backends across AZs).
    pub fn place(&mut self, service: GlobalServiceId, backend: BackendKey) {
        assert!(self.backend(backend).is_some(), "unknown backend");
        let list = self.placements.entry(service).or_default();
        if !list.contains(&backend) {
            list.push(backend);
        }
    }

    /// The backends hosting a service.
    pub fn backends_of(&self, service: GlobalServiceId) -> &[BackendKey] {
        self.placements.get(&service).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether the domain exists in the registered topology.
    fn check_domain(&self, domain: FailureDomain) -> Result<(), UnknownDomain> {
        let known = match domain {
            FailureDomain::Replica(b, r) => {
                self.backend(b).is_some_and(|be| r < be.replica_failed.len())
            }
            FailureDomain::Backend(b) => self.backend(b).is_some(),
            FailureDomain::Az(az) => self.registered().any(|(_, be)| be.az == az),
        };
        if known {
            Ok(())
        } else {
            Err(UnknownDomain(domain))
        }
    }

    /// Mark a domain failed. Failing an already-failed domain is an
    /// idempotent `Ok`; targeting a domain outside the topology is an
    /// [`UnknownDomain`] error.
    pub fn fail(&mut self, domain: FailureDomain) -> Result<(), UnknownDomain> {
        self.check_domain(domain)?;
        match domain {
            FailureDomain::Replica(b, r) => {
                if let Some(be) = self.backend_mut(b) {
                    if be.replica_live(r) {
                        be.replica_failed[r] = true;
                        be.failed_count += 1;
                    }
                }
            }
            FailureDomain::Backend(b) => {
                if let Some(be) = self.backend_mut(b) {
                    be.backend_failed = true;
                }
            }
            FailureDomain::Az(az) => {
                self.failed_azs.insert(az);
            }
        }
        Ok(())
    }

    /// Mark a domain recovered. Recovering a healthy domain is an
    /// idempotent `Ok`; targeting a domain outside the topology is an
    /// [`UnknownDomain`] error. Backend recovery clears replica failures
    /// too (the whole group is redeployed).
    pub fn recover(&mut self, domain: FailureDomain) -> Result<(), UnknownDomain> {
        self.check_domain(domain)?;
        match domain {
            FailureDomain::Replica(b, r) => {
                if let Some(be) = self.backend_mut(b) {
                    if be.replica_failed.get(r) == Some(&true) {
                        be.replica_failed[r] = false;
                        be.failed_count -= 1;
                    }
                }
            }
            FailureDomain::Backend(b) => {
                if let Some(be) = self.backend_mut(b) {
                    be.backend_failed = false;
                    be.replica_failed.fill(false);
                    be.failed_count = 0;
                }
            }
            FailureDomain::Az(az) => {
                self.failed_azs.remove(&az);
            }
        }
        Ok(())
    }

    /// Whether a backend can serve: its AZ is up, it isn't failed, and at
    /// least one replica lives.
    pub fn backend_available(&self, key: BackendKey) -> bool {
        self.backend(key).is_some_and(|be| {
            self.group_up(be) && be.failed_count < be.replica_failed.len()
        })
    }

    /// Whether the backend's AZ is up and the backend itself is not failed
    /// (its replicas may still all be down).
    fn group_up(&self, be: &BackendState) -> bool {
        !be.backend_failed && !self.failed_azs.contains(&be.az)
    }

    /// The replica that serves a flow dispatched to `preferred`: that
    /// replica when it lives, else the first live one (the short disruption
    /// and reconstruction of §4.2); `None` when the backend is unavailable.
    pub fn serving_replica(&self, key: BackendKey, preferred: usize) -> Option<usize> {
        let be = self.backend(key).filter(|be| self.group_up(be))?;
        if be.replica_live(preferred) {
            Some(preferred)
        } else {
            be.replica_failed.iter().position(|&failed| !failed)
        }
    }

    /// Whether a service has any available backend.
    pub fn service_available(&self, service: GlobalServiceId) -> bool {
        self.backends_of(service)
            .iter()
            .any(|&b| self.backend_available(b))
    }

    /// Whether a service has an available backend in a specific AZ.
    pub fn service_available_in_az(&self, service: GlobalServiceId, az: AzId) -> bool {
        self.backends_of(service)
            .iter()
            .any(|&b| self.backend_available(b) && self.az_of(b) == Some(az))
    }

    /// The AZ of a backend.
    pub fn az_of(&self, key: BackendKey) -> Option<AzId> {
        self.backend(key).map(|b| b.az)
    }

    /// Fold the whole placement + failure state into a digest: `backends`
    /// with their per-replica failure sets, `failed_azs`, and the
    /// service-to-backend `placements`.
    pub fn fold_digest(&self, d: &mut Digest) {
        d.write_u64(self.registered().count() as u64);
        for (key, be) in self.registered() {
            d.write_u64(key as u64)
                .write_u64(be.az.0 as u64)
                .write_u64(be.replica_failed.len() as u64)
                .write_u64(be.failed_count as u64);
            for (r, _) in be.replica_failed.iter().enumerate().filter(|(_, &failed)| failed) {
                d.write_u64(r as u64);
            }
            d.write_u64(be.backend_failed as u64);
        }
        d.write_u64(self.failed_azs.len() as u64);
        for az in &self.failed_azs {
            d.write_u64(az.0 as u64);
        }
        d.write_u64(self.placements.len() as u64);
        for (svc, backends) in &self.placements {
            d.write_u64(svc.0).write_u64(backends.len() as u64);
            for &b in backends {
                d.write_u64(b as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_net::{ServiceId, TenantId};

    fn svc_a() -> GlobalServiceId {
        GlobalServiceId::compose(TenantId(1), ServiceId(0xA))
    }
    fn svc_b() -> GlobalServiceId {
        GlobalServiceId::compose(TenantId(2), ServiceId(0xB))
    }

    /// The exact Fig. 8 topology: service A on Backend1/2 (AZ1) and
    /// Backend3 (AZ2); service B includes Backend4.
    fn fig8() -> PlacementView {
        let mut v = PlacementView::new();
        v.add_backend(1, AzId(1), 3);
        v.add_backend(2, AzId(1), 3);
        v.add_backend(3, AzId(2), 3);
        v.add_backend(4, AzId(1), 3);
        v.place(svc_a(), 1);
        v.place(svc_a(), 2);
        v.place(svc_a(), 3);
        v.place(svc_b(), 2);
        v.place(svc_b(), 4);
        v
    }

    #[test]
    fn replica_failure_does_not_take_backend_down() {
        let mut v = fig8();
        v.fail(FailureDomain::Replica(1, 0)).unwrap();
        v.fail(FailureDomain::Replica(1, 1)).unwrap();
        assert!(v.backend_available(1));
        assert_eq!(v.serving_replica(1, 0), Some(2), "dead replica falls over");
        assert_eq!(v.serving_replica(1, 2), Some(2));
        // Last replica gone: backend down.
        v.fail(FailureDomain::Replica(1, 2)).unwrap();
        assert!(!v.backend_available(1));
        assert_eq!(v.serving_replica(1, 2), None);
        assert!(v.service_available(svc_a()), "backend2/3 still carry A");
    }

    #[test]
    fn backend_failure_falls_back_within_az_then_cross_az() {
        let mut v = fig8();
        v.fail(FailureDomain::Backend(1)).unwrap();
        assert!(v.service_available_in_az(svc_a(), AzId(1)), "backend2 holds");
        v.fail(FailureDomain::Backend(2)).unwrap();
        assert!(!v.service_available_in_az(svc_a(), AzId(1)));
        assert!(v.service_available(svc_a()), "AZ2's backend3 holds");
        assert!(v.service_available_in_az(svc_a(), AzId(2)));
    }

    #[test]
    fn az_failure_is_survivable_with_cross_az_placement() {
        let mut v = fig8();
        v.fail(FailureDomain::Az(AzId(1))).unwrap();
        assert!(!v.backend_available(1));
        assert!(!v.backend_available(2));
        assert!(v.service_available(svc_a()), "cross-AZ replica saves A");
        // Service B is AZ1-only: gone.
        assert!(!v.service_available(svc_b()));
        v.recover(FailureDomain::Az(AzId(1))).unwrap();
        assert!(v.service_available(svc_b()));
    }

    #[test]
    fn shuffle_sharding_scenario_a_dies_b_survives() {
        // "query of death" kills every backend of A; B's combination is not
        // a subset, so B keeps Backend4.
        let mut v = fig8();
        for b in [1, 2, 3] {
            v.fail(FailureDomain::Backend(b)).unwrap();
        }
        assert!(!v.service_available(svc_a()));
        assert!(v.service_available(svc_b()));
    }

    #[test]
    fn recovery_clears_replica_failures() {
        let mut v = fig8();
        v.fail(FailureDomain::Replica(1, 0)).unwrap();
        v.fail(FailureDomain::Backend(1)).unwrap();
        assert!(!v.backend_available(1));
        v.recover(FailureDomain::Backend(1)).unwrap();
        assert!(v.backend_available(1));
        assert_eq!(v.serving_replica(1, 0), Some(0), "replica failures cleared too");
    }

    #[test]
    fn unknown_entities_answer_safely() {
        let v = fig8();
        assert!(!v.backend_available(99));
        assert_eq!(v.serving_replica(99, 0), None);
        let ghost = GlobalServiceId::compose(TenantId(9), ServiceId(9));
        assert!(!v.service_available(ghost));
        assert!(v.backends_of(ghost).is_empty());
    }

    #[test]
    fn unknown_domains_are_errors_not_silent_noops() {
        let mut v = fig8();
        assert_eq!(
            v.fail(FailureDomain::Backend(99)),
            Err(UnknownDomain(FailureDomain::Backend(99)))
        );
        assert_eq!(
            v.fail(FailureDomain::Replica(1, 3)),
            Err(UnknownDomain(FailureDomain::Replica(1, 3))),
            "replica index out of range"
        );
        assert_eq!(
            v.recover(FailureDomain::Az(AzId(7))),
            Err(UnknownDomain(FailureDomain::Az(AzId(7)))),
            "AZ with no registered backend"
        );
        // Idempotence: re-failing / re-recovering known domains stays Ok.
        v.fail(FailureDomain::Backend(1)).unwrap();
        v.fail(FailureDomain::Backend(1)).unwrap();
        v.recover(FailureDomain::Backend(1)).unwrap();
        v.recover(FailureDomain::Backend(1)).unwrap();
        assert!(v.backend_available(1));
    }

    #[test]
    fn duplicate_placement_is_idempotent() {
        let mut v = fig8();
        v.place(svc_a(), 1);
        assert_eq!(v.backends_of(svc_a()).len(), 3);
    }
}
