//! Noisy-neighbor isolation (the Fig. 16 incident, §4.3 / §5.5).
//!
//! One tenant's service suddenly multiplies its traffic 20×; the shared
//! backend's water level crosses the safety threshold. Watch the monitor
//! raise a backend-level alert and name the culprit (the alerting backend's
//! top service), and precise scaling (`Reuse`) extend the hot service onto
//! low-water backends — while the other tenants' services never notice.
//!
//! ```sh
//! cargo run --release --example noisy_neighbor
//! ```

use canal::control::monitor::{MonitorDecision, WaterLevelMonitor};
use canal::control::scaling::ScalingEngine;
use canal::gateway::gateway::{Gateway, GatewayConfig};
use canal::net::{AzId, Endpoint, FiveTuple, GlobalServiceId, ServiceId, TenantId, VpcAddr, VpcId};
use canal::sim::{SimDuration, SimRng, SimTime};

fn tuple(vpc: u32, sport: u16) -> FiveTuple {
    FiveTuple::tcp(
        Endpoint::new(VpcAddr::new(VpcId(vpc), 10, 1, (sport >> 8) as u8, sport as u8), sport),
        Endpoint::new(VpcAddr::new(VpcId(vpc), 10, 9, 9, 9), 8443),
    )
}

fn main() {
    let mut rng = SimRng::seed(2024);
    let cfg = GatewayConfig {
        cpu_per_request: SimDuration::from_millis(8),
        backends_per_az: 6,
        sessions_per_replica: 4_000_000,
        ..GatewayConfig::default()
    };
    let mut gw = Gateway::new(cfg);

    let noisy = GlobalServiceId::compose(TenantId(1), ServiceId(0));
    let victims: Vec<GlobalServiceId> = (2..=5)
        .map(|t| GlobalServiceId::compose(TenantId(t), ServiceId(0)))
        .collect();
    gw.register_service(noisy, &mut rng);
    for &v in &victims {
        gw.register_service(v, &mut rng);
    }
    println!("noisy service on backends {:?}", gw.backends_of(noisy));

    let mut monitor = WaterLevelMonitor::new();
    let mut engine = ScalingEngine::new();
    let mut sport = 1u16;

    for s in 0..90u64 {
        let noisy_rps = if s >= 30 { 2400 } else { 120 };
        for i in 0..noisy_rps {
            let t = SimTime::from_millis(s * 1000 + (i * 1000 / noisy_rps).min(999));
            sport = sport.wrapping_add(1).max(1);
            let _ = gw.handle_request(t, noisy, &tuple(1, sport), true);
        }
        for (vi, &v) in victims.iter().enumerate() {
            for i in 0..40u64 {
                sport = sport.wrapping_add(1).max(1);
                let t = SimTime::from_millis(s * 1000 + i * 25);
                let _ = gw.handle_request(t, v, &tuple(2 + vi as u32, sport), true);
            }
        }

        if s % 5 == 4 {
            let now = SimTime::from_secs(s + 1);
            let levels = gw.water_levels(now);
            let utils: Vec<(u32, f64)> = levels.iter().map(|w| (w.backend, w.utilization)).collect();
            let hot = levels.iter().map(|w| w.utilization).fold(0.0f64, f64::max);
            println!("t={:>3}s hottest backend {:>5.1}%", s + 1, hot * 100.0);

            for (backend, class, decision) in monitor.ingest(now, &levels, 0.70) {
                println!("  ALERT backend {backend}: {class:?}");
                if let MonitorDecision::Scale(service) = decision {
                    let az = gw.placement().az_of(backend).unwrap_or(AzId(0));
                    let record = engine.scale(now, &mut gw, service, az, &utils, &mut rng);
                    println!(
                        "  precise scaling: {:?} onto backend {} (completes in {})",
                        record.kind,
                        record.backend,
                        record.duration()
                    );
                }
            }
        }
    }
    let (served, errors) = gw.stats();
    let (reuse, new) = engine.counts();
    println!("\nserved {served} requests, {errors} errors; scaling ops: {reuse} Reuse, {new} New");
    println!("noisy service now spans backends {:?}", gw.backends_of(noisy));
}
