//! High-level testbed: the whole Canal data path behind one handle.
//!
//! Wires a multi-tenant gateway, per-service L7 engines, mTLS identities on
//! the key server, and both observability collectors into a single object a
//! downstream user can drive with real HTTP requests:
//!
//! ```
//! use canal::testbed::{Testbed, TestbedConfig};
//! use canal::http::Request;
//! use canal::sim::SimRng;
//!
//! let mut tb = Testbed::new(TestbedConfig::default(), SimRng::seed(42));
//! let svc = tb.add_service(1, "orders", &[("/orders", "v1", 100)]);
//! tb.allow(svc, 100); // identity 100 may call the service
//! let out = tb.send(100, svc, Request::get("/orders/1")).unwrap();
//! assert!(out.status.is_success());
//! ```

use canal_gateway::gateway::{Gateway, GatewayConfig, GatewayError};
use canal_http::{Request, RoutePredicate, RouteRule, RouteTable, StatusCode, WeightedTarget};
use canal_mesh::authz::{AuthzPolicy, AuthzRule};
use canal_mesh::l7::{L7Engine, L7Outcome};
use canal_mesh::observability::{GatewayObservability, NodeObservability};
use canal_net::{
    Endpoint, FiveTuple, GlobalServiceId, PodId, ServiceId, TenantId, TraceContext, VpcAddr, VpcId,
};
use canal_sim::{SimDuration, SimRng, SimTime};
use canal_telemetry::{Collector, HopSite, SegmentKind, Span};
use std::collections::BTreeMap;

/// Testbed parameters.
#[derive(Debug, Clone, Copy)]
pub struct TestbedConfig {
    /// Gateway deployment shape.
    pub gateway: GatewayConfig,
    /// Modeled gateway L7 processing latency per request.
    pub l7_latency: SimDuration,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            gateway: GatewayConfig::default(),
            l7_latency: SimDuration::from_micros(120),
        }
    }
}

/// The outcome of one request through the testbed.
#[derive(Debug, Clone)]
pub struct TestbedResponse {
    /// HTTP status the caller sees.
    pub status: StatusCode,
    /// Route target version chosen (e.g. "v1"), when forwarded.
    pub target: Option<String>,
    /// Gateway backend/replica that served it, when forwarded.
    pub served_by: Option<(u32, usize)>,
}

/// Errors surfaced by [`Testbed::send`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestbedError {
    /// The service id was never registered.
    UnknownService,
    /// The request bytes failed to parse.
    BadRequest,
}

struct ServiceState {
    l7: L7Engine,
    allowed: Vec<u64>,
    next_sport: u16,
}

/// The assembled mesh under one handle.
pub struct Testbed {
    cfg: TestbedConfig,
    gateway: Gateway,
    services: BTreeMap<GlobalServiceId, ServiceState>,
    rng: SimRng,
    now: SimTime,
    trace_counter: u64,
    /// On-node L4 observability (client side).
    pub node_obs: NodeObservability,
    /// Gateway L7 observability.
    pub gateway_obs: GatewayObservability,
    /// Trace collector (canal-telemetry): node + gateway spans assemble here.
    pub collector: Collector,
}

impl Testbed {
    /// Build an empty testbed. The caller supplies the seeded `rng` that
    /// drives placement and traffic splitting, so the whole run is
    /// reproducible from wherever that seed came from (`seed-dataflow`).
    pub fn new(cfg: TestbedConfig, rng: SimRng) -> Self {
        Testbed {
            gateway: Gateway::new(cfg.gateway),
            services: BTreeMap::new(),
            rng,
            now: SimTime::ZERO,
            trace_counter: 0,
            node_obs: NodeObservability::new(),
            gateway_obs: GatewayObservability::new(),
            collector: Collector::new(),
            cfg,
        }
    }

    /// Register a tenant service with path-prefix routes:
    /// `(prefix, target_name, weight)`. Multiple entries with the same
    /// prefix form a weighted split. Zero-trust default-deny applies until
    /// [`Self::allow`] grants identities.
    pub fn add_service(
        &mut self,
        tenant: u32,
        _name: &str,
        routes: &[(&str, &str, u32)],
    ) -> GlobalServiceId {
        let service_idx = self
            .services
            .keys()
            .filter(|g| g.tenant() == TenantId(tenant))
            .count() as u32;
        let gid = GlobalServiceId::compose(TenantId(tenant), ServiceId(service_idx));
        self.gateway.register_service(gid, &mut self.rng);

        // Group weighted targets per prefix, preserving first-seen order.
        let mut table = RouteTable::new();
        let mut order: Vec<&str> = Vec::new();
        let mut grouped: BTreeMap<&str, Vec<WeightedTarget>> = BTreeMap::new();
        for &(prefix, target, weight) in routes {
            if !grouped.contains_key(prefix) {
                order.push(prefix);
            }
            grouped
                .entry(prefix)
                .or_default()
                .push(WeightedTarget::new(target, weight));
        }
        for prefix in order {
            if let Some(targets) = grouped.remove(prefix) {
                table.push(RouteRule::new(
                    prefix,
                    RoutePredicate::prefix(prefix),
                    targets,
                ));
            }
        }
        self.services.insert(
            gid,
            ServiceState {
                l7: L7Engine::new(table, AuthzPolicy::default_deny()),
                allowed: Vec::new(),
                next_sport: 1,
            },
        );
        gid
    }

    /// Grant an identity access to every path of a service.
    pub fn allow(&mut self, service: GlobalServiceId, identity: u64) {
        if let Some(state) = self.services.get_mut(&service) {
            // Rebuild authz additively: engines expose policy only via
            // processing, so keep a permissive rule per identity.
            state.l7_authz_push(identity);
        }
    }

    /// Advance the testbed clock.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Current testbed time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The underlying gateway (failure injection, water levels...).
    pub fn gateway_mut(&mut self) -> &mut Gateway {
        &mut self.gateway
    }

    /// Send one HTTP request from `identity` to `service` through the full
    /// path: on-node L4 span → gateway dispatch → L7 engine → response.
    pub fn send(
        &mut self,
        identity: u64,
        service: GlobalServiceId,
        req: Request,
    ) -> Result<TestbedResponse, TestbedError> {
        let state = self
            .services
            .get_mut(&service)
            .ok_or(TestbedError::UnknownService)?;
        // Serialize + reparse: the wire really carries bytes.
        let wire = req.encode();
        let draw = self.rng.f64();
        let outcome = state
            .l7
            .process_bytes(self.now, identity, &wire, draw)
            .map_err(|_| TestbedError::BadRequest)?;

        self.trace_counter += 1;
        let trace = self.trace_counter;
        // Per-pod L4 labeling at the on-node proxy.
        let pod = PodId((identity % 64) as u32);
        self.node_obs.record_transfer(pod, wire.len() as u64, 0, true);

        let (status, target, served_by) = match outcome {
            L7Outcome::Forward { target, .. } => {
                state.next_sport = state.next_sport.wrapping_add(1).max(1);
                let sport = state.next_sport;
                let tuple = FiveTuple::tcp(
                    Endpoint::new(
                        VpcAddr::new(
                            VpcId(service.tenant().raw()),
                            10,
                            0,
                            (sport >> 8) as u8,
                            sport as u8,
                        ),
                        sport,
                    ),
                    Endpoint::new(VpcAddr::new(VpcId(service.tenant().raw()), 10, 9, 9, 9), 8443),
                );
                match self.gateway.handle_request(self.now, service, &tuple, true) {
                    Ok(served) => (
                        StatusCode::OK,
                        Some(target),
                        Some((served.backend, served.replica)),
                    ),
                    Err(GatewayError::Throttled) => (StatusCode::TOO_MANY_REQUESTS, None, None),
                    Err(_) => (StatusCode::SERVICE_UNAVAILABLE, None, None),
                }
            }
            L7Outcome::Reject(code) => (code, None, None),
        };
        self.gateway_obs.record_request(
            self.now,
            service,
            req.method.as_str(),
            req.path_only(),
            status,
            self.cfg.l7_latency,
        );
        // Trace the request end to end: a root span at the client node proxy
        // wrapping a gateway child span (canal-telemetry assembles them).
        let tc = TraceContext::root(trace, true);
        let mut client_span = Span::from_ctx(tc, 0, HopSite::ClientNodeProxy, self.now);
        client_span.push_segment(SegmentKind::L4Forward, SimDuration::from_micros(20));
        let mut gw_span = Span::from_ctx(
            tc.child_of(0),
            1,
            HopSite::Gateway,
            self.now + SimDuration::from_micros(10),
        );
        gw_span.push_segment(SegmentKind::L7Parse, self.cfg.l7_latency);
        gw_span.error = status.is_error();
        client_span.end = gw_span.end + SimDuration::from_micros(10);
        self.collector.ingest(client_span);
        self.collector.ingest(gw_span);
        Ok(TestbedResponse {
            status,
            target,
            served_by,
        })
    }
}

impl ServiceState {
    /// Rebuild the engine's zero-trust policy with one more allowed
    /// identity (the engine treats its policy as config, swapped whole —
    /// the same shape as a controller push).
    fn l7_authz_push(&mut self, identity: u64) {
        if !self.allowed.contains(&identity) {
            self.allowed.push(identity);
        }
        let routes = self.l7.routes().clone();
        let mut policy = AuthzPolicy::default_deny();
        policy.push(AuthzRule::allow(&self.allowed, ""));
        self.l7 = L7Engine::new(routes, policy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_flow() {
        let mut tb = Testbed::new(TestbedConfig::default(), SimRng::seed(42));
        let svc = tb.add_service(1, "orders", &[("/orders", "v1", 90), ("/orders", "v2", 10)]);
        tb.allow(svc, 100);
        let out = tb.send(100, svc, Request::get("/orders/1")).unwrap();
        assert!(out.status.is_success());
        assert!(out.target.is_some());
        assert!(out.served_by.is_some());
    }

    #[test]
    fn zero_trust_denies_unknown_identities() {
        let mut tb = Testbed::new(TestbedConfig::default(), SimRng::seed(42));
        let svc = tb.add_service(1, "orders", &[("/orders", "v1", 100)]);
        tb.allow(svc, 100);
        let denied = tb.send(31337, svc, Request::get("/orders/1")).unwrap();
        assert_eq!(denied.status, StatusCode::FORBIDDEN);
        // Multiple identities can be granted.
        tb.allow(svc, 31337);
        let ok = tb.send(31337, svc, Request::get("/orders/1")).unwrap();
        assert!(ok.status.is_success());
        let still_ok = tb.send(100, svc, Request::get("/orders/1")).unwrap();
        assert!(still_ok.status.is_success());
    }

    #[test]
    fn unrouted_path_is_404_and_unknown_service_errors() {
        let mut tb = Testbed::new(TestbedConfig::default(), SimRng::seed(42));
        let svc = tb.add_service(1, "orders", &[("/orders", "v1", 100)]);
        tb.allow(svc, 1);
        let out = tb.send(1, svc, Request::get("/nowhere")).unwrap();
        assert_eq!(out.status, StatusCode::NOT_FOUND);
        let ghost = GlobalServiceId::compose(TenantId(9), ServiceId(9));
        assert_eq!(
            tb.send(1, ghost, Request::get("/x")).unwrap_err(),
            TestbedError::UnknownService
        );
    }

    #[test]
    fn observability_collects_both_sides() {
        let mut tb = Testbed::new(TestbedConfig::default(), SimRng::seed(42));
        let svc = tb.add_service(2, "api", &[("/", "v1", 1)]);
        tb.allow(svc, 5);
        for _ in 0..10 {
            tb.advance(SimDuration::from_millis(10));
            tb.send(5, svc, Request::get("/x")).unwrap();
        }
        let (requests, errors, _mean) = tb.gateway_obs.service_summary(svc);
        assert_eq!((requests, errors), (10, 0));
        assert_eq!(tb.node_obs.labeling_ops(), 10);
        // Spans pair up per trace and nest gateway-inside-client.
        let traces = tb.collector.assemble_all();
        assert_eq!(traces.len(), 10);
        assert!(traces.iter().all(|t| t.spans.len() == 2));
        assert!(traces.iter().all(|t| t.well_nested()));
        assert!(traces
            .iter()
            .all(|t| t.critical_path().last().map(|s| s.site) == Some(HopSite::Gateway)));
    }

    #[test]
    fn canary_split_holds_through_the_facade() {
        let mut tb = Testbed::new(TestbedConfig::default(), SimRng::seed(42));
        let svc = tb.add_service(1, "shop", &[("/", "v1", 90), ("/", "v2", 10)]);
        tb.allow(svc, 1);
        let mut v2 = 0;
        let n = 2000;
        for _ in 0..n {
            tb.advance(SimDuration::from_millis(1));
            let out = tb.send(1, svc, Request::get("/item")).unwrap();
            if out.target.as_deref() == Some("v2") {
                v2 += 1;
            }
        }
        let frac = v2 as f64 / n as f64;
        assert!((0.07..0.13).contains(&frac), "{frac}");
    }
}
