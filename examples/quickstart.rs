//! Quickstart: stand up a two-tenant Canal Mesh, route real HTTP requests
//! through the centralized gateway, and compare the three architectures'
//! per-request latency.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

// Examples, like tests, assert the scenario works via unwrap.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use canal::gateway::gateway::{Gateway, GatewayConfig};
use canal::http::{Request, RoutePredicate, RouteRule, RouteTable, WeightedTarget};
use canal::mesh::arch::{build, Architecture, ClusterShape, RequestCtx};
use canal::mesh::authz::{AuthzPolicy, AuthzRule};
use canal::mesh::l7::{L7Engine, L7Outcome};
use canal::mesh::path::PathExecutor;
use canal::mesh::CostModel;
use canal::net::{Endpoint, FiveTuple, GlobalServiceId, ServiceId, TenantId, VpcAddr, VpcId};
use canal::sim::{SimRng, SimTime};

fn main() {
    let mut rng = SimRng::seed(7);

    // --- 1. Two tenants on the paper's testbed shape, every service
    // registered on the shared mesh gateway. ---
    let shape = ClusterShape::paper_testbed();
    let mut gw = Gateway::new(GatewayConfig::default());
    for tenant in [TenantId(1), TenantId(2)] {
        println!(
            "{tenant}: {} nodes, {} pods, {} services",
            shape.nodes, shape.pods, shape.services
        );
        for svc in 0..shape.services {
            let gid = GlobalServiceId::compose(tenant, ServiceId(svc as u32));
            let backends = gw.register_service(gid, &mut rng);
            println!("registered {gid} on gateway backends {backends:?}");
        }
    }

    // --- 2. An L7 config for tenant1/svc0: canary split + zero trust. ---
    let mut routes = RouteTable::new();
    routes.push(RouteRule::new(
        "orders",
        RoutePredicate::prefix("/orders"),
        vec![WeightedTarget::new("v1", 90), WeightedTarget::new("v2", 10)],
    ));
    let mut authz = AuthzPolicy::default_deny();
    authz.push(AuthzRule::allow(&[100, 101], "/orders"));
    let mut l7 = L7Engine::new(routes, authz);

    // --- 3. Send real HTTP bytes through the L7 engine + gateway. ---
    let service = GlobalServiceId::compose(TenantId(1), ServiceId(0));
    let mut v2_hits = 0;
    for i in 0..20u16 {
        let wire = Request::get("/orders/123")
            .with_header("Host", "orders.tenant1")
            .encode();
        let outcome = l7
            .process_bytes(SimTime::from_millis(i as u64), 100, &wire, rng.f64())
            .expect("valid http");
        let tuple = FiveTuple::tcp(
            Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 0, 1), 40_000 + i),
            Endpoint::new(VpcAddr::new(VpcId(1), 10, 0, 1, 1), 8000),
        );
        match outcome {
            L7Outcome::Forward { target, .. } => {
                if target == "v2" {
                    v2_hits += 1;
                }
                let served = gw
                    .handle_request(SimTime::from_millis(i as u64), service, &tuple, true)
                    .expect("gateway dispatch");
                println!(
                    "req {i:>2} -> {target} via backend {} replica {}",
                    served.backend, served.replica
                );
            }
            L7Outcome::Reject(code) => println!("req {i:>2} rejected: {code}"),
        }
    }
    println!("canary took {v2_hits}/20 requests (~10% expected)\n");

    // An unauthorized identity is stopped by the zero-trust policy.
    let wire = Request::get("/orders/123").encode();
    let denied = l7
        .process_bytes(SimTime::from_secs(1), 31337, &wire, 0.5)
        .unwrap();
    println!("unauthorized identity -> {:?}\n", denied.status());

    // --- 4. Architecture latency comparison (the Fig. 10 shape). ---
    println!("light-load request latency by architecture:");
    let ctx = RequestCtx::light();
    for kind in Architecture::ALL {
        let arch = build(kind, CostModel::default());
        let us = PathExecutor::unloaded_latency(&arch.request_steps(&ctx)).as_micros_f64();
        println!("  {:<14} {:>8.0} µs", arch.name(), us);
    }
}
