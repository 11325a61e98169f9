//! The route-config plane: what a gateway's [`ActiveConfig`] slot admits.
//!
//! A pushed [`ConfigSpec`] goes through the fail-static contract of
//! [`crate::failstatic`] (fence, version, content, swap). This module
//! supplies the content check: a route referencing a service this gateway
//! has never had placed, an empty backend set, or two routes naming the
//! same service is refused with a [`ConfigRejection`] and never served.

use crate::failstatic::{FailStatic, Plane, Rejection};
use crate::gateway::BackendId;
use canal_net::GlobalServiceId;
use canal_sim::{Digest, SimTime};
use std::collections::BTreeSet;

/// One route entry in a pushed config: a service and the backend set its
/// traffic may use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteSpec {
    /// The routed service.
    pub service: GlobalServiceId,
    /// Backends the route may send to. Empty is semantically invalid.
    pub backends: Vec<BackendId>,
}

/// A versioned config push: the unit the control plane distributes and the
/// rollout controller canaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigSpec {
    /// Monotone version from `VersionedConfigStore`.
    pub version: u64,
    /// Route table content.
    pub routes: Vec<RouteSpec>,
}

/// Why the content check refused a config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigRejection {
    /// A route references a service this gateway has never had placed.
    UnknownService(GlobalServiceId),
    /// A route carries an empty backend set: committing it would blackhole
    /// the service.
    EmptyBackendSet(GlobalServiceId),
    /// Two routes name the same service; which one wins would be ambiguous.
    DuplicateRoute(GlobalServiceId),
}

impl std::fmt::Display for ConfigRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigRejection::UnknownService(s) => write!(f, "route to unknown service {s}"),
            ConfigRejection::EmptyBackendSet(s) => write!(f, "empty backend set for {s}"),
            ConfigRejection::DuplicateRoute(s) => write!(f, "duplicate route for {s}"),
        }
    }
}

/// The route-config [`Plane`]: specs are served as pushed, checked against
/// the set of services the gateway knows.
#[derive(Debug, Clone, Copy)]
pub struct RoutePlane;

impl Plane for RoutePlane {
    type Spec = ConfigSpec;
    type Served = ConfigSpec;
    type Ctx<'a> = &'a BTreeSet<GlobalServiceId>;
    type Reject = ConfigRejection;

    fn version(spec: &ConfigSpec) -> u64 {
        spec.version
    }

    fn spec(served: &ConfigSpec) -> &ConfigSpec {
        served
    }

    fn admit(
        spec: ConfigSpec,
        _now: SimTime,
        known_services: &BTreeSet<GlobalServiceId>,
        _running: Option<&ConfigSpec>,
    ) -> Result<ConfigSpec, ConfigRejection> {
        let mut seen = BTreeSet::new();
        for r in &spec.routes {
            if !seen.insert(r.service) {
                return Err(ConfigRejection::DuplicateRoute(r.service));
            }
            if !known_services.contains(&r.service) {
                return Err(ConfigRejection::UnknownService(r.service));
            }
            if r.backends.is_empty() {
                return Err(ConfigRejection::EmptyBackendSet(r.service));
            }
        }
        Ok(spec)
    }

    /// Content-sensitive and order-sensitive.
    fn fold_spec(spec: &ConfigSpec, d: &mut Digest) {
        d.write_u64(spec.version);
        d.write_u64(spec.routes.len() as u64);
        for r in &spec.routes {
            d.write_u64(r.service.0);
            d.write_u64(r.backends.len() as u64);
            for &b in &r.backends {
                d.write_u64(b as u64);
            }
        }
    }
}

/// The `{running, staged}` config pair a gateway routes from.
pub type ActiveConfig = FailStatic<RoutePlane>;

impl ActiveConfig {
    /// [`FailStatic::commit`] against the services this gateway knows.
    pub fn commit_staged(
        &mut self,
        now: SimTime,
        known_services: &BTreeSet<GlobalServiceId>,
    ) -> Result<u64, Rejection<ConfigRejection>> {
        self.commit(now, known_services)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn known(ids: &[u64]) -> BTreeSet<GlobalServiceId> {
        ids.iter().map(|&i| GlobalServiceId(i)).collect()
    }

    fn spec(version: u64, routes: &[(u64, &[BackendId])]) -> ConfigSpec {
        ConfigSpec {
            version,
            routes: routes
                .iter()
                .map(|&(s, b)| RouteSpec {
                    service: GlobalServiceId(s),
                    backends: b.to_vec(),
                })
                .collect(),
        }
    }

    #[test]
    fn poisoned_config_rejected_fail_static() {
        let mut ac = ActiveConfig::new();
        ac.stage(spec(1, &[(7, &[0])]));
        ac.commit_staged(SimTime::ZERO, &known(&[7])).ok();
        // Route to unknown service 9: NACK, keep serving v1.
        ac.stage(spec(2, &[(9, &[0])]));
        let r = ac.commit_staged(SimTime::from_secs(5), &known(&[7]));
        assert_eq!(r, Err(Rejection::Content(ConfigRejection::UnknownService(GlobalServiceId(9)))));
        assert_eq!(ac.running_version(), Some(1), "fail-static: v1 still serving");
        assert!(ac.staged().is_none(), "poisoned staged config discarded");
        // Empty backend set likewise.
        ac.stage(spec(3, &[(7, &[])]));
        let r = ac.commit_staged(SimTime::from_secs(6), &known(&[7]));
        assert_eq!(r, Err(Rejection::Content(ConfigRejection::EmptyBackendSet(GlobalServiceId(7)))));
        assert_eq!(ac.running_version(), Some(1));
        // Two routes for one service likewise.
        ac.stage(spec(6, &[(7, &[0]), (7, &[1])]));
        let r = ac.commit_staged(SimTime::from_secs(7), &known(&[7]));
        assert_eq!(r, Err(Rejection::Content(ConfigRejection::DuplicateRoute(GlobalServiceId(7)))));
        assert_eq!(ac.rejections(), 3);
        assert_eq!(ac.commits(), 1);
    }
}
