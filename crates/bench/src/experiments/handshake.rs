//! Certificate-rotation handshake-storm experiment: synchronized rotation
//! of ~100k workload certs, three architectures, one region.
//!
//! §4.1.3 moves every tenant's asymmetric handshake work to the shared key
//! server, which makes certificate rotation a *control-plane* event with a
//! *data-plane* blast wave: when a tenant's CA generation advances, every
//! workload under it must re-handshake, and a synchronized rotation (or an
//! AZ mass restart, which wipes client-held session tickets) turns the
//! steady trickle of full handshakes into a storm. This experiment scripts
//! one such region timeline with the shared fault DSL —
//!
//! ```text
//! at 22s  fail az-mass-restart 0       # ⅓ of all pods restart mid-storm
//! at 24s  recover az-mass-restart 0
//! at 50s  fail cert-expiry-skew        # issuance clock breaks
//! at 60s  recover cert-expiry-skew
//! at 75s  fail ca-compromise-revoke 2  # tenant 2's CA key leaks
//! ```
//!
//! — and drives three arms under the same demand:
//!
//! * **canal** — the full machinery: a [`CertRotationController`] cuts
//!   next-generation bundles on the expiry schedule and distributes them
//!   through the PR-5 rollout controller (canary → NACK-gated waves →
//!   converged, automatic rollback); every gateway holds a fail-static
//!   [`ActiveCertBundle`]; full handshakes ride the shared key server,
//!   whose [`BatchAccelerator`] the experiment models exactly (Fig. 25
//!   occupancy); session resumption keeps re-connects of *unrotated*
//!   workloads off the asymmetric path entirely. The key server serves
//!   non-rotating tenants with strict priority, so the rotating tenant's
//!   storm queues behind itself, not behind everyone else.
//! * **istio-sidecar** — software crypto at both sidecars, certs rotated by
//!   blind fleet-wide push: no storm queue (the work is distributed), but
//!   every full handshake burns ≈4 ms of node CPU, and a poisoned bundle
//!   reaches the whole fleet.
//! * **ambient** — ztunnel software crypto with node-tunnel reuse soaking
//!   most of the re-handshake demand; rotation is a per-node push halted
//!   only by an operator.
//!
//! Scenario beats, all on the canal arm: the tenant-0 rotation converges
//! and triggers the 100k-cert storm; the AZ-0 mass restart piles ticket
//! losses from every tenant on top; tenant 1 rotates *inside* the
//! clock-skew window, so its bundle passes the controller-side check but
//! arrives expired at the canary gateways — NACK, automatic rollback,
//! blast radius 0 committed, and a clean retry after the backoff once the
//! clock recovers; tenant 2's compromise forces an off-schedule rotation
//! whose bundle raises the revocation floor over every prior generation,
//! after which swept session tickets can never resume.
//!
//! Everything is seeded and tick-driven; double runs are bit-identical
//! ([`HandshakeOutcome::digest`], gated by `experiments handshake`).
//!
//! [`CertRotationController`]: canal_control::CertRotationController
//! [`ActiveCertBundle`]: canal_gateway::ActiveCertBundle
//! [`BatchAccelerator`]: canal_crypto::accel::BatchAccelerator

use crate::experiments::southbound::{deliver, DelayLine, RateCarry, TickClock};
use crate::harness::{Check, ExperimentReport};
use crate::scenario::{fields, violated, Json, Scenario};
use canal_control::{
    CertRotationController, Delivery, RolloutConfig, RolloutResult, RotationConfig,
};
use canal_crypto::accel::{AccelConfig, AsymmetricBackend, BatchAccelerator};
use canal_crypto::keyserver::{KeyServerPlacement, RemoteKeyServerBackend};
use canal_crypto::{SharedSecret, TenantCa, TicketCache};
use canal_gateway::certs::ActiveCertBundle;
use canal_gateway::certs::CertBundleSpec;
use canal_gateway::certs::TrustBundle;
use canal_mesh::arch::{build, Architecture, RequestCtx};
use canal_mesh::costs::CostModel;
use canal_mesh::path::PathExecutor;
use canal_sim::faults::{FaultKind, FaultPlan, FaultState, FaultTarget, FaultTopology};
use canal_sim::output::{num, Table};
use canal_sim::{Digest, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

/// The rotating tenant whose whole cert fleet turns over at once.
const ROTATING_TENANT: u64 = 0;
/// The tenant whose rotation lands inside the clock-skew window.
const SKEWED_TENANT: u64 = 1;
/// The tenant whose CA the script compromises.
const COMPROMISED_TENANT: u64 = 2;
/// AZs in the region (the mass restart takes out one of them).
const AZS: u64 = 3;
/// Fraction of steady churn reconnects that hold a valid session ticket.
const RESUME_FRACTION: f64 = 0.95;
/// The rotating tenant's workloads re-handshake over this window after the
/// new bundle converges (client-side jitter), scaled seconds.
const REHANDSHAKE_SECS: f64 = 20.0;
/// Restarted workloads reconnect over this window, scaled seconds.
const RECONNECT_SECS: f64 = 10.0;
/// Client handshake deadline: a full handshake queued longer than this is
/// shed (and may retry), scaled seconds.
const CLIENT_TIMEOUT_SECS: f64 = 2.0;
/// Node CPU for a resumed (symmetric-only) handshake, any architecture.
const RESUMED_NODE_CPU: SimDuration = SimDuration::from_micros(100);
/// Fraction of ambient re-handshake demand surviving node-tunnel reuse.
const AMBIENT_TUNNEL_REUSE: f64 = 0.3;
/// Sampled tenant-2 session tickets used to prove the revocation sweep.
const TICKET_SAMPLE: u64 = 64;

/// Handshake-storm run parameters.
#[derive(Debug, Clone, Copy)]
pub struct HandshakeParams {
    /// Time compression: every scripted time and window scales by this.
    pub time_scale: f64,
    /// Gateways in the region (rollout targets).
    pub fleet: usize,
    /// Workload certs under the rotating tenant (the storm size).
    pub rotating_workloads: u64,
    /// Non-rotating tenants.
    pub other_tenants: u64,
    /// Workloads per non-rotating tenant.
    pub workloads_per_other: u64,
    /// Key-server asymmetric capacity (ops/s); the batch accelerator's
    /// 8-wide × 1 ms batches cap out at 8 k/s, so stay under that.
    pub ks_capacity_per_s: f64,
    /// Steady reconnect churn across all tenants (connections/s).
    pub churn_per_s: f64,
}

impl HandshakeParams {
    /// The full run: 110 s region timeline, 100 k rotating certs.
    pub fn full() -> Self {
        HandshakeParams {
            time_scale: 1.0,
            fleet: 12,
            rotating_workloads: 100_000,
            other_tenants: 5,
            workloads_per_other: 2_000,
            ks_capacity_per_s: 7_500.0,
            churn_per_s: 200.0,
        }
    }

    /// CI smoke mode: 4× compressed, 10 k rotating certs.
    pub fn fast() -> Self {
        HandshakeParams {
            time_scale: 0.25,
            fleet: 8,
            rotating_workloads: 10_000,
            other_tenants: 5,
            workloads_per_other: 500,
            ks_capacity_per_s: 3_500.0,
            churn_per_s: 200.0,
        }
    }

    /// The scaled clock: a 110 s timeline in 100 ms ticks.
    fn clock(&self) -> TickClock {
        TickClock::new(self.time_scale, SimDuration::from_millis(100), SimDuration::from_secs(110))
    }

    fn total_workloads(&self) -> u64 {
        self.rotating_workloads + self.other_tenants * self.workloads_per_other
    }

    fn rotation_cfg(&self) -> RotationConfig {
        RotationConfig {
            cert_ttl: SimDuration::from_secs(150).scale(self.time_scale),
            lead_time: SimDuration::from_secs(20).scale(self.time_scale),
            retry_backoff: SimDuration::from_secs(8).scale(self.time_scale),
        }
    }

    fn rollout_cfg(&self) -> RolloutConfig {
        RolloutConfig {
            canary_size: 2,
            wave_growth: 4,
            bake_time: SimDuration::from_secs_f64(1.5 * self.time_scale),
            ack_timeout: SimDuration::from_secs(3).scale(self.time_scale),
            max_error_delta: 0.05,
            max_p99_inflation: 10.0,
            ..RolloutConfig::default()
        }
    }
}

/// The scripted region timeline.
fn scripted_plan(clock: &TickClock) -> FaultPlan {
    clock.script(&[
        (22.0, "fail az-mass-restart 0"),
        (24.0, "recover az-mass-restart 0"),
        (50.0, "fail cert-expiry-skew"),
        (60.0, "recover cert-expiry-skew"),
        (75.0, "fail ca-compromise-revoke 2"),
    ])
}

/// A weighted latency histogram with exact weighted percentiles.
#[derive(Debug, Clone, Default)]
struct LatencyHist {
    samples: Vec<(u64, u64)>, // (latency µs, count)
    total: u64,
}

impl LatencyHist {
    fn add(&mut self, us: u64, count: u64) {
        if count > 0 {
            self.samples.push((us, count));
            self.total += count;
        }
    }

    fn p99_us(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let want = ((self.total as f64) * 0.99).ceil() as u64;
        let mut seen = 0u64;
        for (us, count) in sorted {
            seen += count;
            if seen >= want {
                return us as f64;
            }
        }
        0.0
    }

    fn fold_digest(&self, d: &mut Digest) {
        d.write_u64(self.total);
        for (us, count) in &self.samples {
            d.write_u64(*us).write_u64(*count);
        }
    }
}

/// An optional key-server degradation window (satellite regression knob).
#[derive(Debug, Clone, Copy)]
pub struct KsDegrade {
    /// Window start, scaled seconds.
    pub from_s: f64,
    /// Window end, scaled seconds.
    pub to_s: f64,
    /// Capacity multiplier inside the window (e.g. 0.05).
    pub factor: f64,
}

/// Everything the canal arm measures.
#[derive(Debug, Clone)]
pub struct CanalHandshakeRun {
    /// Certs issued under the rotating tenant's new generation.
    pub rotated_certs: u64,
    /// Full (asymmetric) handshakes completed.
    pub full_handshakes: u64,
    /// Resumed (symmetric-only) handshakes completed.
    pub resumed_handshakes: u64,
    /// Steady-phase resumed share of all handshakes.
    pub steady_resumed_fraction: f64,
    /// Accelerator occupancy (ops per batch-slot) in the steady phase —
    /// the Fig. 25 bubble regime.
    pub steady_occupancy: f64,
    /// Accelerator occupancy during the storm phase.
    pub storm_occupancy: f64,
    /// Rotating-tenant full-handshake p99 by phase (µs).
    pub steady_full_p99_us: f64,
    /// Storm-phase rotating-tenant full-handshake p99 (µs).
    pub storm_full_p99_us: f64,
    /// Non-rotating tenants' full-handshake p99 over the whole run (µs) —
    /// strict priority at the key server keeps this near steady state.
    pub nonrotating_full_p99_us: f64,
    /// Resumed-handshake p99 over the whole run (µs).
    pub resumed_p99_us: f64,
    /// Peak rotating-tenant queue sojourn at the key server (seconds).
    pub peak_sojourn_s: f64,
    /// Key-server backlog still queued at the horizon (ops).
    pub backlog_end: u64,
    /// Handshakes offered by non-rotating tenants.
    pub nonrotating_offered: u64,
    /// Non-rotating handshakes that failed (shed past retries, or bundle
    /// validation failures). The zero-availability-loss gate.
    pub nonrotating_errors: u64,
    /// Full handshakes shed past the client deadline (0 unless degraded).
    pub sheds: u64,
    /// Handshake attempts / unique handshake demands (retry amplification).
    pub amplification: f64,
    /// Targets the poisoned (clock-skewed) bundle was pushed to.
    pub poison_exposed: usize,
    /// Gateways that ever *committed* the poisoned bundle (must be 0).
    pub poison_committed: usize,
    /// The poisoned rotation ended in an automatic NACK rollback.
    pub poison_rolled_back: bool,
    /// The skewed tenant's retry (after backoff + clock recovery) converged.
    pub poison_retry_converged: bool,
    /// Bundle NACKs the gateways sent.
    pub nacks: u64,
    /// The compromise rotation raised the revocation floor fleet-wide.
    pub compromise_floor_raised: bool,
    /// Sampled tenant-2 tickets dropped by the post-compromise sweep.
    pub tickets_swept: u64,
    /// After the sweep, no swept ticket could resume.
    pub revoked_resumes_blocked: bool,
    /// Rotations converged / rolled back.
    pub rotations_converged: u64,
    /// Rotations rolled back or refused.
    pub rotations_rolled_back: u64,
    /// Node CPU burned on handshakes (seconds).
    pub cpu_s: f64,
    /// Full controller + gateway + histogram state digest.
    pub state_digest: u64,
}

/// One coarse analytic arm (sidecar / ambient).
#[derive(Debug, Clone)]
pub struct AnalyticArm {
    /// Arm name.
    pub name: &'static str,
    /// Full handshakes performed.
    pub full_handshakes: u64,
    /// Handshake p99 (µs) — software crypto is flat.
    pub p99_us: f64,
    /// Node CPU burned on handshakes (seconds).
    pub cpu_s: f64,
    /// Proxies a poisoned bundle reaches under this arm's push model.
    pub poison_exposed: usize,
    /// Fleet size for the exposure denominator.
    pub fleet: usize,
}

/// The whole experiment's outcome.
#[derive(Debug, Clone)]
pub struct HandshakeOutcome {
    /// The canal arm (the machinery under test).
    pub canal: CanalHandshakeRun,
    /// The sidecar and ambient comparison arms.
    pub arms: Vec<AnalyticArm>,
    /// Canary wave size (poison blast-radius bound).
    pub canary_size: usize,
    /// Total handshake demand (all arms share it).
    pub demand: u64,
}

impl HandshakeOutcome {
    /// Fold the complete outcome into one value: equal seeds must produce
    /// equal digests, bit for bit.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        let c = &self.canal;
        d.write_u64(c.rotated_certs)
            .write_u64(c.full_handshakes)
            .write_u64(c.resumed_handshakes)
            .write_f64(c.steady_resumed_fraction)
            .write_f64(c.steady_occupancy)
            .write_f64(c.storm_occupancy)
            .write_f64(c.steady_full_p99_us)
            .write_f64(c.storm_full_p99_us)
            .write_f64(c.nonrotating_full_p99_us)
            .write_f64(c.resumed_p99_us)
            .write_f64(c.peak_sojourn_s)
            .write_u64(c.backlog_end)
            .write_u64(c.nonrotating_offered)
            .write_u64(c.nonrotating_errors)
            .write_u64(c.sheds)
            .write_f64(c.amplification)
            .write_u64(c.poison_exposed as u64)
            .write_u64(c.poison_committed as u64)
            .write_u64(u64::from(c.poison_rolled_back))
            .write_u64(u64::from(c.poison_retry_converged))
            .write_u64(c.nacks)
            .write_u64(u64::from(c.compromise_floor_raised))
            .write_u64(c.tickets_swept)
            .write_u64(u64::from(c.revoked_resumes_blocked))
            .write_u64(c.rotations_converged)
            .write_u64(c.rotations_rolled_back)
            .write_f64(c.cpu_s)
            .write_u64(c.state_digest);
        for a in &self.arms {
            d.write_str(a.name)
                .write_u64(a.full_handshakes)
                .write_f64(a.p99_us)
                .write_f64(a.cpu_s)
                .write_u64(a.poison_exposed as u64)
                .write_u64(a.fleet as u64);
        }
        d.write_u64(self.canary_size as u64).write_u64(self.demand);
        d.value()
    }

    /// The cert-lifecycle invariant `experiments handshake` gates on: the
    /// whole rotating fleet re-keys, non-rotating tenants lose zero
    /// availability, the poisoned bundle is NACKed at the canary (0
    /// committed) and automatically rolled back with a clean later retry,
    /// the compromise revocation sticks, resumption keeps the steady state
    /// in the Fig. 25 bubble regime while the storm fills batches, and the
    /// key-server backlog fully drains.
    pub fn rotation_ok(&self) -> bool {
        self.failures().is_empty()
    }
}

/// Demand a tick feeds the key-server queue, split by class.
#[derive(Debug, Clone, Copy, Default)]
struct TickDemand {
    rotating_full: u64,
    other_full: u64,
    resumed: u64,
}

/// Run the canal arm. `degrade` and `retry_budget` are the satellite
/// regression knobs; the main run uses `None` / `true`.
pub fn run_canal(
    seed: u64,
    params: &HandshakeParams,
    degrade: Option<KsDegrade>,
    retry_budget: bool,
) -> CanalHandshakeRun {
    let ts = params.time_scale;
    let clock = params.clock();
    let tick = clock.tick();
    let tick_s = tick.as_secs_f64();
    let plan = scripted_plan(&clock);
    let rotation_cfg = params.rotation_cfg();
    let mut rng = SimRng::seed(seed ^ 0x0CE7_11FE_C7C1_E0A5);

    // Control plane: the rotation controller over the gateway fleet.
    let mut ctl = CertRotationController::new(rotation_cfg, params.rollout_cfg(), SimDuration::ZERO);
    for t in 0..params.fleet as u32 {
        ctl.add_target(t);
    }
    // Tenant 0 rotates at 10 s (expiry 30 s − 20 s lead); tenant 1 becomes
    // due inside the skew window; tenant 2 waits for the compromise; the
    // rest never rotate inside the horizon.
    let tenant_ids: Vec<u64> = (0..=params.other_tenants).collect();
    ctl.register_tenant(ROTATING_TENANT, 1, clock.at(30.0));
    ctl.register_tenant(SKEWED_TENANT, 1, clock.at(72.0));
    ctl.register_tenant(COMPROMISED_TENANT, 1, clock.at(400.0));
    for &t in tenant_ids.iter().skip(3) {
        ctl.register_tenant(t, 1, clock.at(500.0 + t as f64));
    }

    // Data plane: per-gateway, per-tenant fail-static bundle pairs,
    // bootstrapped with a generation-1 bundle each (version 0).
    let bootstrap = |tenant: u64| CertBundleSpec {
        trust: TrustBundle {
            version: 0,
            tenant,
            generation: 1,
            revocation_floor: 1 << 32,
            revoked: Vec::new(),
        },
        issued_at: SimTime::ZERO,
        not_after: SimTime::ZERO + rotation_cfg.cert_ttl,
    };
    let mut gws: Vec<BTreeMap<u64, ActiveCertBundle>> = (0..params.fleet)
        .map(|_| {
            tenant_ids
                .iter()
                .map(|&t| {
                    let mut slot = ActiveCertBundle::new();
                    slot.stage(bootstrap(t));
                    slot.commit(SimTime::ZERO, t).ok();
                    (t, slot)
                })
                .collect()
        })
        .collect();

    // CAs: the rotating tenant's is what the storm re-keys; tenant 2's
    // feeds the sampled ticket cohort.
    let mut rotating_ca = TenantCa::new(ROTATING_TENANT);
    let mut sample_ca = TenantCa::new(COMPROMISED_TENANT);
    let mut sample_cache = TicketCache::new();
    let mut sample_ids: Vec<u64> = Vec::new();
    let ticket_secret = rng.fork(0xA5).f64().to_bits();

    // Key server: explicit queue in front of the exact batch-accelerator
    // model. Non-rotating demand is served with strict priority.
    let mut accel = BatchAccelerator::new(AccelConfig::default());
    let ks_backend = RemoteKeyServerBackend::new(KeyServerPlacement::LocalAz);
    let rtt_us = KeyServerPlacement::LocalAz.rtt().as_micros_f64();
    let mut backlog_rot: u64 = 0;
    let mut backlog_other: u64 = 0;
    let mut serve_carry = RateCarry::default();

    // Fault ground truth.
    let mut state = FaultState::new(&FaultTopology { backends: Vec::new() });
    let mut pending_faults = plan.events();

    // Demand carries.
    let mut churn_full_carry = RateCarry::default();
    let mut churn_resumed_carry = RateCarry::default();
    let mut storm_carry = RateCarry::default();
    let mut reconnect_carry = RateCarry::default();
    let mut storm_pool: u64 = 0;
    let mut reconnect_pool: u64 = 0;
    let storm_rate = params.rotating_workloads as f64 / (REHANDSHAKE_SECS * ts);
    let reconnect_total = params.total_workloads() / AZS;
    let reconnect_rate = reconnect_total as f64 / (RECONNECT_SECS * ts);
    // The restarted slice is proportionally split between classes.
    let rot_share = params.rotating_workloads as f64 / params.total_workloads() as f64;

    // Phase windows.
    let steady_from = clock.at(2.0);
    let steady_to = clock.at(9.0);
    let mut storm_from = SimTime::MAX;
    let mut storm_to = SimTime::MAX;

    // Metrics.
    let mut hist_steady_full = LatencyHist::default();
    let mut hist_storm_full = LatencyHist::default();
    let mut hist_other_full = LatencyHist::default();
    let mut hist_resumed = LatencyHist::default();
    let mut steady_ops = 0u64;
    let mut steady_batches = 0u64;
    let mut storm_ops = 0u64;
    let mut storm_batches = 0u64;
    let mut steady_resumed = 0u64;
    let mut steady_total = 0u64;
    let mut full_handshakes = 0u64;
    let mut resumed_handshakes = 0u64;
    let mut nonrotating_offered = 0u64;
    let mut nonrotating_errors = 0u64;
    let mut sheds = 0u64;
    let mut unique_demand = 0u64;
    let mut attempts = 0u64;
    let mut peak_sojourn_s = 0.0f64;
    let mut cpu_s = 0.0f64;
    let mut nacks = 0u64;

    // Scenario trackers.
    let mut rotated_certs = 0u64;
    let mut poison_versions: Vec<u64> = Vec::new();
    let mut poison_exposed = 0usize;
    let mut poison_committed = 0usize;
    let mut skew_convergences = 0u64;
    let mut compromise_converged_version: Option<u64> = None;
    let mut tickets_swept = 0u64;
    let mut revoked_resume_hits = 0u64;
    let mut revoked_resume_attempts = 0u64;
    let mut observed_records = 0usize;

    // Pushes land after a propagation delay, so a bundle whose horizon
    // collapsed to "just after now" is expired by commit time.
    let push_delay = tick + tick.scale(0.5);
    let mut southbound: DelayLine<Delivery> = DelayLine::default();

    let resumed_us = RESUMED_NODE_CPU.as_micros_f64() as u64;
    let full_node_cpu_s = ks_backend.node_cpu_cost().as_secs_f64();
    let resumed_node_cpu_s = RESUMED_NODE_CPU.as_secs_f64();

    for now in clock.ticks() {
        let in_steady = now >= steady_from && now < steady_to;
        let in_storm = now >= storm_from && now < storm_to;

        // 1. Scripted ground truth. A restart wave and a CA compromise are
        //    instants: the model reacts when the event fires.
        for ev in state.apply_due(&mut pending_faults, now) {
            match (ev.target, ev.kind) {
                (FaultTarget::AzMassRestart(0), FaultKind::Crash) => reconnect_pool += reconnect_total,
                (FaultTarget::CaCompromiseRevoke(t), FaultKind::Crash)
                    if u64::from(t) == COMPROMISED_TENANT =>
                {
                    ctl.flag_compromise(COMPROMISED_TENANT);
                }
                _ => {}
            }
        }

        // 2. Control plane tick: rotation schedule + rollout state machine.
        //    A hard clock-skew fault (magnitude 0) collapses the horizon.
        let skew = if state.active(FaultTarget::CertExpirySkew) {
            let magnitude = state.extra(FaultTarget::CertExpirySkew);
            Some(if magnitude == SimDuration::ZERO {
                rotation_cfg.cert_ttl
            } else {
                magnitude
            })
        } else {
            None
        };
        let skew_cutting = skew.is_some();
        for action in ctl.tick(now, None, skew, &mut rng) {
            let wave: Vec<Delivery> = action.deliveries().collect();
            let head = wave[0];
            if head.rollback && head.version == 0 {
                continue; // nothing converged yet: fail-static holds
            }
            if !head.rollback {
                if skew_cutting && !poison_versions.contains(&head.version) {
                    poison_versions.push(head.version);
                }
                if poison_versions.contains(&head.version) {
                    poison_exposed = poison_exposed.max(wave.len());
                }
            }
            for d in wave {
                southbound.send(now + push_delay, d);
            }
        }

        // 3. Deliver what the propagation delay has released: the due
        //    pushes first, then the due rollbacks.
        let (pushes, rollbacks): (Vec<_>, Vec<_>) =
            southbound.arrived(now).into_iter().partition(|d| !d.rollback);
        for d in pushes.into_iter().chain(rollbacks) {
            let Some(spec) = ctl.bundle(d.version).cloned() else {
                continue;
            };
            let tenant = spec.trust.tenant;
            let Some(slot) = gws[d.target as usize].get_mut(&tenant) else {
                continue;
            };
            if d.rollback {
                slot.roll_back_to(now, spec, tenant).ok();
                continue;
            }
            match deliver(slot, spec, now, tenant, &mut ctl, d.target) {
                Ok(v) if poison_versions.contains(&v) => poison_committed += 1,
                Ok(_) => {}
                Err(_rejection) => nacks += 1,
            }
        }

        // 4. Observe freshly-terminal rotations.
        let records: Vec<_> = ctl.history().cloned().collect();
        while observed_records < records.len() {
            let r = records[observed_records];
            observed_records += 1;
            match (r.tenant, r.result) {
                (ROTATING_TENANT, RolloutResult::Converged) => {
                    // The storm: the whole tenant re-keys and re-handshakes.
                    rotating_ca.rotate();
                    for w in 0..params.rotating_workloads {
                        rotating_ca.issue(w, now, rotation_cfg.cert_ttl);
                        rotated_certs += 1;
                    }
                    storm_pool += params.rotating_workloads;
                    storm_from = now;
                    storm_to = now + SimDuration::from_secs_f64((REHANDSHAKE_SECS + 5.0) * ts);
                }
                (SKEWED_TENANT, RolloutResult::Converged) => {
                    skew_convergences += 1;
                }
                (COMPROMISED_TENANT, RolloutResult::Converged) => {
                    compromise_converged_version = ctl.converged_version(COMPROMISED_TENANT);
                    // Every client sweeps its ticket cache against the new
                    // trust bundle: generation-floored tickets die.
                    if let Some(v) = compromise_converged_version {
                        if let Some(spec) = ctl.bundle(v) {
                            tickets_swept += sample_cache.sweep(now, Some(&spec.trust)) as u64;
                            for &id in &sample_ids {
                                revoked_resume_attempts += 1;
                                if sample_cache.redeem(id, now).is_ok() {
                                    revoked_resume_hits += 1;
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }

        // 5. Sampled ticket cohort: minted once, early in the steady phase.
        if sample_ids.is_empty() && now >= steady_from {
            for w in 0..TICKET_SAMPLE {
                let cert = sample_ca.issue(w, now, rotation_cfg.cert_ttl);
                let ticket = sample_cache.mint(
                    &cert,
                    COMPROMISED_TENANT,
                    SharedSecret(ticket_secret ^ w),
                    now,
                    rotation_cfg.cert_ttl,
                );
                sample_ids.push(ticket.id);
            }
        }

        // 6. Handshake demand for this tick.
        let mut demand = TickDemand::default();
        let churn = params.churn_per_s * tick_s;
        demand.resumed = churn_resumed_carry.take(churn * RESUME_FRACTION);
        demand.other_full = churn_full_carry.take(churn * (1.0 - RESUME_FRACTION));
        if storm_pool > 0 {
            let drain = storm_carry.take(storm_rate * tick_s).min(storm_pool);
            storm_pool -= drain;
            demand.rotating_full += drain;
        }
        if reconnect_pool > 0 {
            let drain = reconnect_carry.take(reconnect_rate * tick_s).min(reconnect_pool);
            reconnect_pool -= drain;
            let rot = (drain as f64 * rot_share) as u64;
            demand.rotating_full += rot;
            demand.other_full += drain - rot;
        }
        unique_demand += demand.rotating_full + demand.other_full;
        attempts += demand.rotating_full + demand.other_full;
        nonrotating_offered += demand.other_full + demand.resumed;

        // 7. Resumed handshakes never touch the key server.
        resumed_handshakes += demand.resumed;
        cpu_s += demand.resumed as f64 * resumed_node_cpu_s;
        hist_resumed.add(resumed_us, demand.resumed);
        if in_steady {
            steady_resumed += demand.resumed;
            steady_total += demand.resumed + demand.rotating_full + demand.other_full;
        }

        // 8. Key-server queue: non-rotating first, then the storm class.
        backlog_rot += demand.rotating_full;
        backlog_other += demand.other_full;
        let capacity = match degrade {
            Some(kd) if now >= clock.at(kd.from_s) && now < clock.at(kd.to_s) => {
                params.ks_capacity_per_s * kd.factor
            }
            _ => params.ks_capacity_per_s,
        };
        let mut budget = serve_carry.take(capacity * tick_s);
        let serve_other = budget.min(backlog_other);
        budget -= serve_other;
        // Shed rotating ops that cannot meet the client deadline; a capped
        // share retries (PR-3 style retry budget), the rest re-queue via
        // their workloads' own later reconnects.
        let wait_after = |backlog: u64| backlog as f64 / capacity.max(1.0);
        let serve_rot = budget.min(backlog_rot);
        let rot_wait_s = wait_after(backlog_rot.saturating_sub(serve_rot));
        if rot_wait_s > CLIENT_TIMEOUT_SECS * ts {
            let excess =
                (backlog_rot - serve_rot) - ((CLIENT_TIMEOUT_SECS * ts) * capacity) as u64;
            let shed = excess.min(backlog_rot - serve_rot);
            backlog_rot -= shed;
            sheds += shed;
            let retried = if retry_budget {
                (shed as f64 * 0.1) as u64
            } else {
                shed
            };
            backlog_rot += retried;
            attempts += retried;
        }
        let other_wait_s = wait_after(backlog_other.saturating_sub(serve_other));
        backlog_other -= serve_other;
        backlog_rot -= serve_rot.min(backlog_rot);
        let sojourn_s = wait_after(backlog_rot);
        peak_sojourn_s = peak_sojourn_s.max(sojourn_s);

        // 9. Served ops go through the batch accelerator (the Fig. 25
        //    occupancy model); completions price the handshake latencies.
        let served = serve_other + serve_rot;
        if served > 0 {
            let ops_before = served;
            let batches_before = accel.batches_processed();
            for _ in 0..served {
                accel.submit(now);
            }
            accel.poll(now + tick);
            let done = accel.drain_completed();
            let mean_batch_us = if done.is_empty() {
                0.0
            } else {
                done.iter().map(|op| op.latency().as_micros_f64()).sum::<f64>()
                    / done.len() as f64
            };
            let batches = accel.batches_processed() - batches_before;
            if in_steady {
                steady_ops += ops_before;
                steady_batches += batches;
            }
            if in_storm {
                storm_ops += ops_before;
                storm_batches += batches;
            }
            let other_lat =
                (rtt_us + other_wait_s * 1e6 + mean_batch_us) as u64;
            let rot_lat = (rtt_us + rot_wait_s * 1e6 + mean_batch_us) as u64;
            hist_other_full.add(other_lat, serve_other);
            if in_storm {
                hist_storm_full.add(rot_lat, serve_rot);
            } else {
                hist_steady_full.add(rot_lat, serve_rot);
            }
            full_handshakes += served;
            cpu_s += served as f64 * full_node_cpu_s;
        }
        // Steady-phase churn fulls count toward the steady histogram even
        // when the rotating class is idle (they ride the other queue).
        let _ = in_steady;
    }

    // Post-run: unserved non-rotating demand at the horizon is lost
    // availability; the rotating backlog is the storm's own tail.
    nonrotating_errors += backlog_other;
    // Validation failures for non-rotating tenants would surface as NACKs
    // on their converged rotations; the poisoned tenant's NACKs are
    // expected, so only count handshake-path errors here (none are modeled
    // as failing validation: fail-static keeps the running bundle serving).

    let poison_rolled_back = ctl.history().any(|r| {
        r.tenant == SKEWED_TENANT
            && poison_versions.contains(&r.version)
            && matches!(r.result, RolloutResult::RolledBack(_))
    });
    let compromise_floor_raised = compromise_converged_version
        .and_then(|v| ctl.bundle(v))
        .is_some_and(|spec| spec.trust.revocation_floor >= 2 << 32);

    let mut d = Digest::new();
    ctl.fold_digest(&mut d);
    for gw in &gws {
        for slot in gw.values() {
            slot.fold_digest(&mut d);
        }
    }
    sample_cache.fold_digest(&mut d);
    state.fold_digest(&mut d);
    hist_steady_full.fold_digest(&mut d);
    hist_storm_full.fold_digest(&mut d);
    hist_other_full.fold_digest(&mut d);
    hist_resumed.fold_digest(&mut d);
    d.write_u64(nacks).write_u64(sheds).write_u64(backlog_rot);

    CanalHandshakeRun {
        rotated_certs,
        full_handshakes,
        resumed_handshakes,
        steady_resumed_fraction: if steady_total == 0 {
            0.0
        } else {
            steady_resumed as f64 / steady_total as f64
        },
        steady_occupancy: occupancy(steady_ops, steady_batches),
        storm_occupancy: occupancy(storm_ops, storm_batches),
        steady_full_p99_us: hist_steady_full.p99_us(),
        storm_full_p99_us: hist_storm_full.p99_us(),
        nonrotating_full_p99_us: hist_other_full.p99_us(),
        resumed_p99_us: hist_resumed.p99_us(),
        peak_sojourn_s,
        backlog_end: backlog_rot + backlog_other,
        nonrotating_offered,
        nonrotating_errors,
        sheds,
        amplification: if unique_demand == 0 {
            1.0
        } else {
            attempts as f64 / unique_demand as f64
        },
        poison_exposed,
        poison_committed,
        poison_rolled_back,
        poison_retry_converged: skew_convergences >= 1,
        nacks,
        compromise_floor_raised,
        tickets_swept,
        revoked_resumes_blocked: revoked_resume_attempts > 0 && revoked_resume_hits == 0,
        rotations_converged: ctl.rotations_converged(),
        rotations_rolled_back: ctl.rotations_rolled_back(),
        cpu_s,
        state_digest: d.value(),
    }
}

fn occupancy(ops: u64, batches: u64) -> f64 {
    if batches == 0 {
        return 0.0;
    }
    ops as f64 / (batches * AccelConfig::default().batch_width as u64) as f64
}

/// The sidecar / ambient comparison arms, priced analytically from the same
/// demand: software asymmetric crypto is distributed (no storm queue) but
/// burns millisecond-scale node CPU per handshake, and certs rotate by
/// blind push (the poisoned bundle reaches the fleet).
fn analytic_arms(params: &HandshakeParams, canal_demand: u64) -> Vec<AnalyticArm> {
    let software = canal_crypto::accel::SoftwareBackend::default();
    let op_us = software.completion(1).as_micros_f64();
    let op_s = software.node_cpu_cost().as_secs_f64();
    // Both handshake ends burn an asymmetric op.
    let sidecar_full = canal_demand;
    let ambient_full = (canal_demand as f64 * AMBIENT_TUNNEL_REUSE) as u64;
    vec![
        AnalyticArm {
            name: "istio-sidecar",
            full_handshakes: sidecar_full,
            p99_us: op_us,
            cpu_s: sidecar_full as f64 * op_s * 2.0,
            poison_exposed: params.fleet,
            fleet: params.fleet,
        },
        AnalyticArm {
            name: "ambient",
            full_handshakes: ambient_full,
            p99_us: op_us,
            cpu_s: ambient_full as f64 * op_s * 2.0,
            poison_exposed: params.fleet / 2,
            fleet: params.fleet,
        },
    ]
}

/// Run the whole rotation-storm scenario. Fully deterministic in `seed`.
pub fn run_handshake(seed: u64, params: &HandshakeParams) -> HandshakeOutcome {
    let canal = run_canal(seed, params, None, true);
    let demand = canal.full_handshakes + canal.resumed_handshakes;
    let arms = analytic_arms(params, canal.full_handshakes);
    HandshakeOutcome {
        canal,
        arms,
        canary_size: params.rollout_cfg().canary_size,
        demand,
    }
}

/// The certificate-rotation handshake storm.
impl Scenario for HandshakeOutcome {
    const ID: &'static str = "handshake";
    const INVARIANT: &'static str =
        "cert rotation: the tenant re-keys with no loss elsewhere, a clock-skewed bundle is NACKed and rolled back, revocation sticks";
    const OK_KEY: &'static str = "rotation_ok";
    type Params = HandshakeParams;

    fn params(fast: bool) -> HandshakeParams {
        if fast { HandshakeParams::fast() } else { HandshakeParams::full() }
    }

    fn run(seed: u64, params: &HandshakeParams) -> Self {
        run_handshake(seed, params)
    }

    fn outcome_digest(&self) -> u64 {
        self.digest()
    }

    fn failures(&self) -> Vec<String> {
        let c = &self.canal;
        violated("cert-lifecycle", &[
            ("the rotating fleet re-keys", c.rotated_certs > 0),
            ("non-rotating tenants handshake", c.nonrotating_offered > 0),
            ("non-rotating tenants lose no handshake", c.nonrotating_errors == 0),
            ("the poisoned bundle is never committed", c.poison_committed == 0),
            (
                "the poisoned bundle reaches the canary wave and no further",
                (1..=self.canary_size).contains(&c.poison_exposed),
            ),
            ("the canary NACKs the poisoned bundle", c.nacks > 0),
            ("the poisoned rotation rolls back automatically", c.poison_rolled_back),
            ("the skewed tenant's retry converges", c.poison_retry_converged),
            ("the compromise raises the revocation floor", c.compromise_floor_raised),
            ("the post-compromise sweep drops tickets", c.tickets_swept > 0),
            ("no swept ticket resumes", c.revoked_resumes_blocked),
            ("the storm fills accelerator batches", c.storm_occupancy > c.steady_occupancy + 0.25),
            ("steady state stays in the bubble regime", c.steady_occupancy < 0.5),
            ("steady state is mostly resumption", c.steady_resumed_fraction > 0.8),
            ("the key-server backlog drains", c.backlog_end == 0),
            ("no handshake is shed", c.sheds == 0),
        ])
    }

    fn json(&self) -> Vec<(&'static str, Json)> {
        let c = &self.canal;
        vec![("canal", fields!(c => rotated_certs, full_handshakes, resumed_handshakes,
            steady_occupancy: format_args!("{:.4}", c.steady_occupancy),
            storm_occupancy: format_args!("{:.4}", c.storm_occupancy),
            storm_full_p99_ms: format_args!("{:.3}", c.storm_full_p99_us / 1000.0),
            peak_sojourn_s: format_args!("{:.3}", c.peak_sojourn_s),
            nonrotating_errors, poison_exposed, poison_committed, poison_rolled_back,
            tickets_swept, rotations_converged, rotations_rolled_back))]
    }

    fn report(&self, _seed: u64, params: &HandshakeParams) -> ExperimentReport {
        report(self, params)
    }
}

fn report(outcome: &HandshakeOutcome, params: &HandshakeParams) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "handshake",
        "cert lifecycle at region scale: rotation waves, handshake storms, rollback-safe bundles",
    );
    let c = &outcome.canal;

    let mut arms = Table::new(
        "handshake storm by architecture",
        &["arm", "full handshakes", "resumed", "p99 storm", "node cpu s", "poison exposure"],
    );
    arms.row(&[
        "canal".to_string(),
        c.full_handshakes.to_string(),
        c.resumed_handshakes.to_string(),
        format!("{} ms", num(c.storm_full_p99_us / 1000.0)),
        num(c.cpu_s),
        format!("{} committed of {}", c.poison_committed, params.fleet),
    ]);
    for a in &outcome.arms {
        arms.row(&[
            a.name.to_string(),
            a.full_handshakes.to_string(),
            "-".to_string(),
            format!("{} ms", num(a.p99_us / 1000.0)),
            num(a.cpu_s),
            format!("{} exposed of {}", a.poison_exposed, a.fleet),
        ]);
    }
    report.tables.push(arms);

    let mut canal_detail = Table::new(
        "canal rotation detail",
        &["metric", "steady", "storm"],
    );
    canal_detail.row(&[
        "accelerator occupancy".to_string(),
        num(c.steady_occupancy),
        num(c.storm_occupancy),
    ]);
    canal_detail.row(&[
        "rotating-tenant full p99".to_string(),
        format!("{} ms", num(c.steady_full_p99_us / 1000.0)),
        format!("{} ms", num(c.storm_full_p99_us / 1000.0)),
    ]);
    canal_detail.row(&[
        "resumed p99".to_string(),
        format!("{} ms", num(c.resumed_p99_us / 1000.0)),
        format!("{} ms", num(c.resumed_p99_us / 1000.0)),
    ]);
    canal_detail.row(&[
        "peak key-server sojourn".to_string(),
        "-".to_string(),
        format!("{} s", num(c.peak_sojourn_s)),
    ]);
    report.tables.push(canal_detail);

    // The per-request presets carry the same resumption story.
    let mut presets = Table::new(
        "handshake latency from the arch presets (unloaded)",
        &["arch", "established", "full handshake", "resumed"],
    );
    for kind in [Architecture::Sidecar, Architecture::Ambient, Architecture::Canal] {
        let arch = build(kind, CostModel::default());
        let lat = |ctx: &RequestCtx| {
            PathExecutor::unloaded_latency(&arch.request_steps(ctx)).as_micros_f64()
        };
        presets.row(&[
            arch.name().to_string(),
            format!("{} us", num(lat(&RequestCtx::light()))),
            format!("{} us", num(lat(&RequestCtx::new_https(8)))),
            format!("{} us", num(lat(&RequestCtx::resumed_https(8)))),
        ]);
    }
    report.tables.push(presets);

    report.checks.push(Check::cond(
        "the whole rotating tenant re-keys",
        "one synchronized wave re-issues every workload cert",
        &format!("{} certs issued in generation 2", c.rotated_certs),
        c.rotated_certs == params.rotating_workloads,
    ));
    report.checks.push(Check::cond(
        "non-rotating tenants lose zero availability",
        "strict key-server priority + fail-static bundles",
        &format!("{} errors over {} handshakes", c.nonrotating_errors, c.nonrotating_offered),
        c.nonrotating_errors == 0 && c.nonrotating_offered > 0,
    ));
    report.checks.push(Check::cond(
        "storm fills accelerator batches; steady state stays in the bubble regime",
        "Fig. 25: occupancy is the offload story",
        &format!("steady {} vs storm {}", num(c.steady_occupancy), num(c.storm_occupancy)),
        c.storm_occupancy > c.steady_occupancy + 0.25 && c.steady_occupancy < 0.5,
    ));
    report.checks.push(Check::band(
        "steady-state resumed share",
        "session tickets keep reconnects off the asymmetric path",
        c.steady_resumed_fraction,
        0.8,
        1.0,
    ));
    report.checks.push(Check::cond(
        "poisoned bundle: NACKed at the canary, zero commits, auto-rollback",
        "clock-skewed not_after passes the cutter, dies at the gateway clock",
        &format!(
            "{} pushed / {} committed / rolled back: {}",
            c.poison_exposed, c.poison_committed, c.poison_rolled_back
        ),
        c.poison_committed == 0
            && c.poison_exposed > 0
            && c.poison_exposed <= outcome.canary_size
            && c.poison_rolled_back
            && c.nacks > 0,
    ));
    report.checks.push(Check::cond(
        "skewed tenant retries clean after clock recovery",
        "rollback backoff, then a converged rotation",
        &format!("retry converged: {}", c.poison_retry_converged),
        c.poison_retry_converged,
    ));
    report.checks.push(Check::cond(
        "compromise rotation revokes prior generations",
        "revocation floor over every old serial; swept tickets never resume",
        &format!(
            "floor raised: {}, {} tickets swept, resumes blocked: {}",
            c.compromise_floor_raised, c.tickets_swept, c.revoked_resumes_blocked
        ),
        c.compromise_floor_raised && c.tickets_swept > 0 && c.revoked_resumes_blocked,
    ));
    report.checks.push(Check::cond(
        "key-server backlog fully drains",
        "the storm is a transient, not a collapse",
        &format!("{} ops queued at horizon", c.backlog_end),
        c.backlog_end == 0 && c.sheds == 0,
    ));
    report.checks.push(Check::band(
        "storm p99 stays bounded (s)",
        "queue sojourn, not timeout collapse",
        c.storm_full_p99_us / 1e6,
        0.0,
        3.0,
    ));
    if let Some(sidecar) = outcome.arms.iter().find(|a| a.name == "istio-sidecar") {
        report.checks.push(Check::band(
            "sidecar storm CPU vs canal (ratio)",
            "software asym at both ends vs marshalling + shared accelerator",
            sidecar.cpu_s / c.cpu_s.max(1e-9),
            10.0,
            f64::INFINITY,
        ));
        report.checks.push(Check::cond(
            "blind cert pushes expose the fleet",
            "no canary, no NACK: the poisoned bundle lands everywhere",
            &format!(
                "sidecar {} vs canal {} committed",
                sidecar.poison_exposed, c.poison_committed
            ),
            sidecar.poison_exposed == params.fleet && c.poison_committed == 0,
        ));
    }
    report.checks.push(Check::cond(
        "non-rotating full-handshake p99 unaffected by the storm (ms)",
        "strict priority at the key server",
        &num(c.nonrotating_full_p99_us / 1000.0),
        c.nonrotating_full_p99_us < c.storm_full_p99_us.max(5_000.0),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite regression: a degraded key server during the storm sheds
    /// full handshakes first while resumed sessions keep working, and
    /// recovery drains the backlog without a retry storm (amplification
    /// gated like fig8's retry-budget coda).
    #[test]
    fn key_server_degradation_sheds_full_handshakes_not_resumed() {
        let params = HandshakeParams::fast();
        let window = KsDegrade {
            from_s: 20.0,
            to_s: 32.0,
            factor: 0.05,
        };
        let budgeted = run_canal(42, &params, Some(window), true);
        // Full handshakes shed under degradation...
        assert!(budgeted.sheds > 0, "degraded key server must shed: {budgeted:#?}");
        // ...while resumed sessions never see the key server at all.
        assert!(budgeted.resumed_handshakes > 0);
        assert!(
            budgeted.resumed_p99_us <= RESUMED_NODE_CPU.as_micros_f64(),
            "resumed p99 {} must stay at node cost",
            budgeted.resumed_p99_us
        );
        // Recovery drains the backlog before the horizon.
        assert_eq!(budgeted.backlog_end, 0, "backlog must drain after recovery");
        // The retry budget keeps shed retries from amplifying the storm.
        let unbudgeted = run_canal(42, &params, Some(window), false);
        assert!(
            budgeted.amplification < unbudgeted.amplification - 0.01,
            "budgeted {} vs unbudgeted {}",
            budgeted.amplification,
            unbudgeted.amplification
        );
        assert!(
            budgeted.amplification < 1.5,
            "retry amplification {} must stay bounded",
            budgeted.amplification
        );
    }

    #[test]
    fn healthy_run_never_sheds() {
        let c = run_canal(42, &HandshakeParams::fast(), None, true);
        assert_eq!(c.sheds, 0);
        assert!((c.amplification - 1.0).abs() < 1e-9);
    }
}
