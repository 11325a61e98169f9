//! Integration of the control loop: gateway water levels → monitor →
//! root-cause analysis → precise scaling; plus the in-phase migration
//! planner against generated diurnal workloads and cross-architecture
//! control-plane invariants.

use canal::control::configure::ConfigPlane;
use canal::control::inphase::{self, BackendProfile, ServiceProfile};
use canal::control::monitor::{Classification, MonitorDecision, WaterLevelMonitor};
use canal::control::scaling::{ScalingEngine, ScalingKind};
use canal::gateway::gateway::{Gateway, GatewayConfig};
use canal::mesh::arch::{Architecture, ClusterShape};
use canal::net::{AzId, Endpoint, FiveTuple, GlobalServiceId, ServiceId, TenantId, VpcAddr, VpcId};
use canal::sim::{SimDuration, SimRng, SimTime};
use canal::workload::rps::RpsProcess;

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
    gw.register_service(hot, &mut rng);
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
        if s % 5 == 4 {
            let now = SimTime::from_secs(s + 1);
            let levels = gw.water_levels(now);
            let utils: Vec<(u32, f64)> = levels.iter().map(|w| (w.backend, w.utilization)).collect();
            final_hot_util = levels.iter().map(|w| w.utilization).fold(0.0, f64::max);
            for (backend, class, decision) in monitor.ingest(now, &levels, 0.7) {
                assert_eq!(class, Classification::NormalGrowth);
                if let MonitorDecision::Scale(service) = decision {
                    assert_eq!(service, hot);
                    let az = gw.placement().az_of(backend).unwrap();
                    for _ in 0..3 {
                        let r = engine.scale(now, &mut gw, service, az, &utils, &mut rng);
                        assert_eq!(r.kind, ScalingKind::Reuse);
                    }
                    scaled = true;
                }
            }
        }
    }
    assert!(scaled, "monitor never triggered scaling");
    assert!(
        final_hot_util < 0.5,
        "water level should fall after scaling: {final_hot_util}"
    );
    let (_, errors) = gw.stats();
    assert_eq!(errors, 0);
}

/// In-phase detection + migration planning over generated diurnal curves:
/// the planner picks the big in-phase service and lands it on the
/// complementary backend in the same AZ.
#[test]
fn inphase_planner_on_generated_curves() {
    let horizon = SimTime::from_secs(86_400);
    let curve = |phase: f64, amp: f64| {
        RpsProcess::Diurnal {
            base: 20.0,
            amplitude: amp,
            period: 86_400.0,
            phase,
        }
        .sample_curve(horizon, 96)
    };
    let services = vec![
        ServiceProfile {
            service: svc(1),
            series: curve(40_000.0, 900.0),
            long_sessions: 3,
            https_fraction: 0.5,
        },
        ServiceProfile {
            service: svc(2),
            series: curve(41_000.0, 600.0),
            long_sessions: 900,
            https_fraction: 0.0,
        },
        ServiceProfile {
            service: svc(3),
            series: curve(83_000.0, 700.0), // out of phase
            long_sessions: 0,
            https_fraction: 0.0,
        },
    ];
    let pairs = inphase::detect_in_phase(&services);
    assert_eq!(pairs.len(), 1, "only svc1/svc2 are in phase: {pairs:?}");

    let candidates = vec![
        BackendProfile {
            backend: 50,
            az: AzId(0),
            series: curve(40_500.0, 5_000.0), // in-phase target: bad
        },
        BackendProfile {
            backend: 51,
            az: AzId(0),
            series: curve(84_000.0, 5_000.0), // complementary: good
        },
        BackendProfile {
            backend: 52,
            az: AzId(1),
            series: vec![0.0; 96], // colder but wrong AZ
        },
    ];
    let group: Vec<&ServiceProfile> = services[..2].iter().collect();
    let plan = inphase::plan(&group, AzId(0), &candidates, 1);
    assert_eq!(plan.moves.len(), 1);
    // svc1 has the higher weighted RPS (HTTPS-weighted) → moves first.
    assert_eq!(plan.moves[0], (svc(1), 51));
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
