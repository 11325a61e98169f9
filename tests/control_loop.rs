//! Integration of the control loop: gateway water levels → monitor →
//! pinpoint (the alerting backend's top service) → precise scaling; plus
//! cross-architecture control-plane invariants.

use canal::control::configure::ConfigPlane;
use canal::control::monitor::{Classification, MonitorDecision, WaterLevelMonitor};
use canal::control::scaling::{ScalingEngine, ScalingKind};
use canal::gateway::gateway::{Gateway, GatewayConfig};
use canal::mesh::arch::{Architecture, ClusterShape};
use canal::net::{Endpoint, FiveTuple, GlobalServiceId, ServiceId, TenantId, VpcAddr, VpcId};
use canal::sim::{SimDuration, SimRng, SimTime};

fn svc(i: u32) -> GlobalServiceId {
    GlobalServiceId::compose(TenantId(1), ServiceId(i))
}

fn tup(sport: u16, salt: u8) -> FiveTuple {
    FiveTuple::tcp(
        Endpoint::new(VpcAddr::new(VpcId(1), 10, salt, (sport >> 8) as u8, sport as u8), sport),
        Endpoint::new(VpcAddr::new(VpcId(1), 10, 99, 9, 9), 8443),
    )
}

/// The full loop: a surge trips the monitor, the decision is Scale, the
/// engine extends the service, the water level falls below the threshold.
/// Three quiet services of other tenants share the hot service's backends
/// at a low fixed rate: every Scale names the surging service, and no quiet
/// service gains a backend.
#[test]
fn surge_detect_scale_recover() {
    let mut rng = SimRng::seed(10);
    let cfg = GatewayConfig {
        cpu_per_request: SimDuration::from_millis(8),
        backends_per_az: 6,
        sessions_per_replica: 2_000_000,
        ..GatewayConfig::default()
    };
    let mut gw = Gateway::new(cfg);
    let hot = svc(1);
    let hot_backends = gw.register_service(hot, &mut rng);
    let quiet: Vec<GlobalServiceId> = (2..=4)
        .map(|t| GlobalServiceId::compose(TenantId(t), ServiceId(0)))
        .collect();
    for &q in &quiet {
        for &b in &hot_backends {
            assert!(gw.extend_service(q, b));
        }
    }
    let mut monitor = WaterLevelMonitor::new();
    let mut engine = ScalingEngine::new();

    let mut sport = 1u16;
    let mut scaled = false;
    let mut final_hot_util = 1.0;
    for s in 0..60u64 {
        let rps = if s >= 20 { 2400 } else { 100 };
        for i in 0..rps {
            sport = sport.wrapping_add(1).max(1);
            let t = SimTime::from_millis(s * 1000 + (i * 1000 / rps).min(999));
            let _ = gw.handle_request(t, hot, &tup(sport, 1), true);
        }
        for (k, &q) in quiet.iter().enumerate() {
            for i in 0..40u64 {
                sport = sport.wrapping_add(1).max(1);
                let t = SimTime::from_millis(s * 1000 + i * 25);
                let _ = gw.handle_request(t, q, &tup(sport, 2 + k as u8), true);
            }
        }
        if s % 5 == 4 {
            let now = SimTime::from_secs(s + 1);
            let levels = gw.water_levels(now);
            let utils: Vec<(u32, f64)> = levels.iter().map(|w| (w.backend, w.utilization)).collect();
            final_hot_util = levels.iter().map(|w| w.utilization).fold(0.0, f64::max);
            for (backend, class, decision) in monitor.ingest(now, &levels, 0.7) {
                assert_eq!(class, Classification::NormalGrowth);
                assert_eq!(decision, MonitorDecision::Scale(hot), "backend {backend}");
                let az = gw.placement().az_of(backend).unwrap();
                for _ in 0..3 {
                    let r = engine.scale(now, &mut gw, hot, az, &utils, &mut rng);
                    assert_eq!(r.kind, ScalingKind::Reuse);
                }
                scaled = true;
            }
        }
    }
    assert!(scaled, "monitor never triggered scaling");
    assert!(
        final_hot_util < 0.5,
        "water level should fall after scaling: {final_hot_util}"
    );
    for &q in &quiet {
        assert_eq!(gw.backends_of(q), hot_backends, "quiet {q} must not gain a backend");
    }
    let (_, errors) = gw.stats();
    assert_eq!(errors, 0);
}

/// The two cluster shapes every experiment is priced on hold the paper's
/// counts: the §5.1 testbed, and §2.2's production ratios (pods:nodes ≈
/// 15:1, pods:services ≈ 2:1).
#[test]
fn cluster_shapes_hold_the_paper_counts() {
    let testbed = ClusterShape::paper_testbed();
    assert_eq!((testbed.pods, testbed.nodes, testbed.services), (30, 2, 3));
    let production = ClusterShape::production(15_000);
    assert_eq!((production.pods, production.nodes, production.services), (15_000, 1_000, 7_500));
}

/// Control-plane invariants across architectures, any cluster size:
/// southbound bytes and target counts are totally ordered Canal < Ambient
/// < Istio, and Canal's bytes grow linearly while Istio's grow
/// quadratically.
#[test]
fn config_plane_orderings_hold_across_sizes() {
    for pods in [150usize, 600, 2400] {
        let shape = ClusterShape::production(pods);
        let istio = ConfigPlane::new(Architecture::Sidecar).push_update(&shape);
        let ambient = ConfigPlane::new(Architecture::Ambient).push_update(&shape);
        let canal = ConfigPlane::new(Architecture::Canal).push_update(&shape);
        assert!(canal.southbound_bytes < ambient.southbound_bytes);
        assert!(ambient.southbound_bytes < istio.southbound_bytes);
        // Canal configures exactly one target regardless of scale;
        // (Ambient's *proxy* count is below Istio's pod count, but its
        // replicated waypoints can exceed it as push targets at 2:1
        // pods:services, so no strict target ordering is asserted there.)
        assert_eq!(canal.targets, 1);
        assert_eq!(istio.targets, shape.pods);
        assert!(canal.total_time < istio.total_time);
    }
    // Growth orders.
    let small = ConfigPlane::new(Architecture::Sidecar)
        .push_update(&ClusterShape::production(300))
        .southbound_bytes as f64;
    let big = ConfigPlane::new(Architecture::Sidecar)
        .push_update(&ClusterShape::production(3_000))
        .southbound_bytes as f64;
    assert!(big / small > 50.0, "istio should be ~quadratic: {}", big / small);
    let small_c = ConfigPlane::new(Architecture::Canal)
        .push_update(&ClusterShape::production(300))
        .southbound_bytes as f64;
    let big_c = ConfigPlane::new(Architecture::Canal)
        .push_update(&ClusterShape::production(3_000))
        .southbound_bytes as f64;
    let growth = big_c / small_c;
    assert!((8.0..12.0).contains(&growth), "canal should be ~linear: {growth}");
}

/// Session-flood anomaly: the monitor classifies the §6.2 Case #1 signature
/// and decides on a lossy migration; the sandbox executes it in seconds and
/// then releases the service.
#[test]
fn session_flood_triggers_lossy_migration() {
    let mut rng = SimRng::seed(11);
    let cfg = GatewayConfig {
        sessions_per_replica: 3_000, // small so occupancy moves
        azs: 1,
        backends_per_az: 1,
        shard_size: 1,
        replicas_per_backend: 1,
        ..GatewayConfig::default()
    };
    let mut gw = Gateway::new(cfg);
    let victim = svc(4);
    gw.register_service(victim, &mut rng);
    let mut monitor = WaterLevelMonitor::new();

    // Window 1: normal traffic — 2500 requests over 50 long-lived flows.
    for i in 0..2_500u16 {
        let _ = gw.handle_request(
            SimTime::from_millis(i as u64),
            victim,
            &tup(i % 50, 2),
            i < 50,
        );
    }
    monitor.ingest(SimTime::from_secs(1), &gw.water_levels(SimTime::from_secs(1)), 0.7);
    // Window 2: session flood — the same request rate, but every request
    // opens a fresh TCP session (the §6.2 Case #1 signature).
    for i in 0..2_500u16 {
        let _ = gw.handle_request(
            SimTime::from_millis(1000 + i as u64),
            victim,
            &tup(10_000 + i, 3),
            true,
        );
    }
    let decisions = monitor.ingest(SimTime::from_secs(2), &gw.water_levels(SimTime::from_secs(2)), 0.7);
    let (_, class, decision) = decisions.first().expect("alert fired");
    assert_eq!(*class, Classification::SessionAttack);
    let MonitorDecision::MigrateLossy(service) = decision else {
        panic!("expected lossy migration, got {decision:?}");
    };
    let report = gw
        .sandbox
        .migrate_lossy(SimTime::from_secs(2), *service, gw.backend_sessions(0));
    assert!(report.completed_at.since(SimTime::from_secs(2)) <= SimDuration::from_secs(5));
    assert!(report.sessions_reset > 2_000);
    // Once cut over, the service leaves the sandbox, and only once.
    assert!(gw.sandbox.release(*service));
    assert!(!gw.sandbox.release(*service));
}
