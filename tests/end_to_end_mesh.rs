//! Cross-crate integration: a multi-tenant request travels the whole stack —
//! tenant cluster → vSwitch VXLAN delivery → gateway dispatch → L7 engine →
//! mTLS via the key server — and the failure machinery reroutes around
//! injected faults.

use canal::crypto::dh::{DhKeyPair, DhParams};
use canal::crypto::keyserver::{KeyServer, RequesterId};
use canal::crypto::mtls::MtlsEndpoint;
use canal::gateway::failure::FailureDomain;
use canal::gateway::gateway::{Gateway, GatewayConfig, GatewayError};
use canal::http::{Request, RoutePredicate, RouteRule, RouteTable, WeightedTarget};
use canal::mesh::authz::{AuthzPolicy, AuthzRule};
use canal::mesh::l7::{L7Engine, L7Outcome};
use canal::net::vxlan::{VSwitch, VxlanFrame};
use canal::net::{
    Endpoint, FiveTuple, GlobalServiceId, Packet, ServiceId, TenantId, VpcAddr, VpcId,
};
use canal::sim::{SimRng, SimTime};

/// Two tenants with *identical* pod IPs stay distinguishable end to end:
/// the vSwitch attaches the global service id before the gateway sees the
/// packet, and the gateway dispatches each tenant to its own backends.
#[test]
fn overlapping_tenant_addresses_flow_end_to_end() {
    let mut rng = SimRng::seed(1);
    let mut vs = VSwitch::new();
    vs.map_vni(100, TenantId(1));
    vs.map_vni(200, TenantId(2));
    vs.register_service(TenantId(1), 8000, ServiceId(0));
    vs.register_service(TenantId(2), 8000, ServiceId(0));

    let mut gw = Gateway::new(GatewayConfig::default());
    let s1 = GlobalServiceId::compose(TenantId(1), ServiceId(0));
    let s2 = GlobalServiceId::compose(TenantId(2), ServiceId(0));
    gw.register_service(s1, &mut rng);
    gw.register_service(s2, &mut rng);

    // Identical inner packets from both tenants (overlapping addressing).
    for (vni, svc) in [(100u32, s1), (200u32, s2)] {
        let inner_tuple = FiveTuple::tcp(
            Endpoint::new(VpcAddr::new(VpcId(vni / 100), 10, 0, 0, 1), 5555),
            Endpoint::new(VpcAddr::new(VpcId(vni / 100), 10, 0, 0, 2), 8000),
        );
        let inner = Packet::syn(inner_tuple);
        let frame = VxlanFrame::new(0x0A00_0001, 0x0A00_0002, 41_000, vni, inner.payload.clone());
        // Real bytes over the wire.
        let decoded = VxlanFrame::decode(frame.encode()).expect("valid frame");
        let tagged = vs.deliver_to_vm(&decoded, inner).expect("mapped vni");
        let gid = tagged.service_tag.expect("tagged");
        assert_eq!(gid, svc);
        let served = gw
            .handle_request(SimTime::ZERO, gid, &tagged.tuple, true)
            .expect("dispatched");
        assert!(gw.backends_of(svc).contains(&served.backend));
    }
    // Shuffle sharding gave the two tenants different backend sets.
    assert_ne!(gw.backends_of(s1), gw.backends_of(s2));
}

/// A full L7 + gateway round trip: parse real HTTP bytes, authorize,
/// canary-split, dispatch; unauthorized traffic is stopped before the app.
#[test]
fn l7_pipeline_with_gateway_dispatch() {
    let mut rng = SimRng::seed(2);
    let mut routes = RouteTable::new();
    routes.push(RouteRule::new(
        "api",
        RoutePredicate::prefix("/api"),
        vec![WeightedTarget::new("v1", 50), WeightedTarget::new("v2", 50)],
    ));
    let mut authz = AuthzPolicy::default_deny();
    authz.push(AuthzRule::allow(&[7], "/api"));
    let mut l7 = L7Engine::new(routes, authz);

    let mut gw = Gateway::new(GatewayConfig::default());
    let svc = GlobalServiceId::compose(TenantId(1), ServiceId(3));
    gw.register_service(svc, &mut rng);

    let mut forwarded = 0;
    for i in 0..100u16 {
        let wire = Request::get("/api/items").with_header("Host", "x").encode();
        let out = l7
            .process_bytes(SimTime::from_millis(i as u64), 7, &wire, rng.f64())
            .unwrap();
        if matches!(out, L7Outcome::Forward { .. }) {
            let t = FiveTuple::tcp(
                Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 0, 9), 1000 + i),
                Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 1, 1), 8003),
            );
            gw.handle_request(SimTime::from_millis(i as u64), svc, &t, true)
                .unwrap();
            forwarded += 1;
        }
    }
    assert_eq!(forwarded, 100);
    let (served, errors) = gw.stats();
    assert_eq!((served, errors), (100, 0));

    // Unauthorized identity: rejected at L7, never reaches the gateway.
    let wire = Request::get("/api/items").encode();
    let out = l7.process_bytes(SimTime::ZERO, 666, &wire, 0.5).unwrap();
    assert!(matches!(out, L7Outcome::Reject(code) if code.0 == 403));
}

/// mTLS via the key server integrates with the record layer: the node-side
/// endpoint installs the key-server-derived secret and talks to the
/// gateway-side endpoint.
#[test]
fn key_server_mtls_end_to_end() {
    let mut ks = KeyServer::new(0xABCD);
    ks.store_tenant_key(TenantId(5), 0x1111_2222_3333_4444);
    ks.register_requester(RequesterId(1), 0xAAAA);
    ks.register_requester(RequesterId(2), 0xBBBB);

    // Both sides are requesters of the same key server (on-node proxy and
    // gateway backend, per Fig. 6); each completes a DH with the tenant key.
    let client = DhKeyPair::generate(DhParams::DEFAULT, 0x9999);
    let sealed_node = ks.handle_request(RequesterId(1), TenantId(5), client.public).unwrap();
    let node_secret = sealed_node.unseal(0xAAAA).unwrap();
    let gw_secret = client.agree(ks.tenant_public(TenantId(5)).unwrap());
    assert_eq!(node_secret, gw_secret);

    let mut node = MtlsEndpoint::new(10, 0);
    let mut gateway = MtlsEndpoint::new(20, 0);
    node.install_secret(node_secret, 20).unwrap();
    gateway.install_secret(gw_secret, 10).unwrap();
    let req_bytes = Request::get("/secure").encode();
    let record = node.seal(&req_bytes).unwrap();
    let opened = gateway.open(&record).unwrap();
    assert_eq!(opened, req_bytes.as_ref());
}

/// Failure injection: sessions survive replica loss via in-backend
/// failover; whole-backend loss fails over to the service's other backends;
/// recovery restores the original placement's capacity.
#[test]
fn hierarchical_failover_keeps_service_up() {
    let mut rng = SimRng::seed(3);
    let mut gw = Gateway::new(GatewayConfig::default());
    let svc = GlobalServiceId::compose(TenantId(9), ServiceId(1));
    gw.register_service(svc, &mut rng);
    let backends = gw.backends_of(svc);

    let t = FiveTuple::tcp(
        Endpoint::new(VpcAddr::new(VpcId(9), 10, 0, 0, 1), 7777),
        Endpoint::new(VpcAddr::new(VpcId(9), 10, 0, 1, 1), 8001),
    );
    let first = gw.handle_request(SimTime::ZERO, svc, &t, true).unwrap();

    // Kill the serving replica: the flow reconstructs on a sibling.
    gw.fail(FailureDomain::Replica(first.backend, first.replica)).unwrap();
    let second = gw.handle_request(SimTime::from_secs(1), svc, &t, false).unwrap();
    assert_eq!(second.backend, first.backend);
    assert_ne!(second.replica, first.replica);

    // Kill the whole backend: traffic moves to the other shard members.
    gw.fail(FailureDomain::Backend(first.backend)).unwrap();
    let third = gw.handle_request(SimTime::from_secs(2), svc, &t, true).unwrap();
    assert_ne!(third.backend, first.backend);
    assert!(backends.contains(&third.backend));

    // Kill everything: unavailable...
    for &b in &backends {
        gw.fail(FailureDomain::Backend(b)).unwrap();
    }
    assert_eq!(
        gw.handle_request(SimTime::from_secs(3), svc, &t, true),
        Err(GatewayError::Unavailable)
    );
    // ...until recovery.
    gw.recover(FailureDomain::Backend(backends[0])).unwrap();
    assert!(gw.handle_request(SimTime::from_secs(4), svc, &t, true).is_ok());
}
