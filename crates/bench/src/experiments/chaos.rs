//! Fig. 8 chaos experiment: a deterministic fault plan driven through the
//! event simulation for all three architectures.
//!
//! The scripted scenario walks the paper's failure hierarchy — a replica
//! crash, a backend crash (overlapping a config-push stall), an AZ power
//! loss, a key-server brownout and an inter-AZ link degradation — while a
//! Poisson client stream keeps offering requests. Each architecture runs
//! the *same* plan and the *same* arrival stream; what differs is its
//! resilience policy ([`ResilienceConfig`]) and how fast its control plane
//! detects faults (probe interval + `ConfigPlane::push_update` time, the
//! Fig. 15 cost — O(10 s) for per-pod sidecar pushes, O(100 ms) for
//! Canal's single-target push).
//!
//! The recovery timeline is the paper's §4.2 claim in measurable form:
//! Canal's datapath (retries, hedging, outlier ejection, DNS degradation)
//! masks faults in O(retry) time while detection lags; a sidecar
//! architecture without datapath retries is down for the whole
//! detection window. Reported per architecture: availability
//! (successful/offered), calm vs fault-window p99/p999, retry
//! amplification, and time-to-recovery per failure domain.
//!
//! Everything is seeded: double runs with equal seeds produce bit-identical
//! [`ChaosOutcome::digest`] values (held by `crate::scenario::drive`).

use crate::experiments::southbound::{ms, script};
use crate::harness::{Check, ExperimentReport};
use crate::scenario::{fields, violated, Json, Scenario};
use canal_cluster::DnsView;
use canal_control::configure::ConfigPlane;
use canal_crypto::accel::AsymmetricBackend;
use canal_crypto::keyserver::{KeyServerPlacement, RemoteKeyServerBackend};
use canal_gateway::failure::FailureDomain;
use canal_gateway::gateway::{BackendId, Gateway, GatewayConfig, GatewayError, GatewayServed};
use canal_gateway::overload::{AttemptKind, RetryBudget};
use canal_gateway::resilience::{AttemptError, ResilienceConfig, ResilientDispatcher};
use canal_mesh::arch::{Architecture, ClusterShape};
use canal_net::{AzId, Endpoint, FiveTuple, GlobalServiceId, ServiceId, TenantId, VpcAddr, VpcId};
use canal_sim::faults::{
    BackendSpec, FaultEvent, FaultKind, FaultPlan, FaultState, FaultTarget, FaultTopology,
};
use canal_sim::output::{num, pct, Table};
use canal_sim::{stats, Digest, Model, Scheduler, SimDuration, SimRng, SimTime, Simulation};
use std::collections::BTreeMap;

/// Availability-timeline bin width.
const BIN: SimDuration = SimDuration::from_millis(200);
/// Fraction of arrivals that are new connections (pay a handshake).
const NEW_CONN_FRACTION: f64 = 0.10;
/// Client AZ for the whole experiment.
const CLIENT_AZ: u32 = 0;
/// The AZ the scripted power loss hits.
const FAULT_AZ: u32 = 1;
/// Beats of the scripted Fig. 8 timeline ([`beats`]).
const FIG8_BEATS: usize = 12;
/// DNS name the service publishes health under.
const DNS_NAME: &str = "svc.mesh";
/// The arrival stream models one client population, so the retry budget
/// keys every attempt under a single client id.
const BUDGET_CLIENT: u64 = 1;

/// Chaos run parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChaosParams {
    /// Time compression: scripted fault times, probe intervals and
    /// detection (push) times are all multiplied by this.
    pub time_scale: f64,
    /// Offered load (requests/s).
    pub rps: f64,
    /// Append a total-outage retry-storm window to the scripted plan:
    /// every placed backend goes down at ~106 s and recovers at ~114 s.
    /// With no live replica anywhere, failures in the window cannot
    /// violate the availability invariant — every attempt beyond the first
    /// is pure retry amplification, which is what the retry budget kills.
    pub storm: bool,
    /// Per-client retry-budget admission `(ratio, cap)` enforced on the
    /// attempt path ([`GatewayError::RetryBudgetExhausted`] is terminal in
    /// the dispatcher). `None` disables the budget.
    pub retry_budget: Option<(f64, f64)>,
}

impl ChaosParams {
    /// The full Fig. 8 run: a 120 s timeline at 200 rps.
    pub fn full() -> Self {
        ChaosParams {
            time_scale: 1.0,
            rps: 200.0,
            storm: false,
            retry_budget: None,
        }
    }

    /// CI smoke mode: the same scenario compressed 4× at lower load.
    pub fn fast() -> Self {
        ChaosParams {
            time_scale: 0.25,
            rps: 80.0,
            storm: false,
            retry_budget: None,
        }
    }

    /// Scenario horizon (scaled).
    pub fn horizon(&self) -> SimDuration {
        SimDuration::from_secs(120).scale(self.time_scale)
    }
}

/// One failure incident's recovery measurement.
#[derive(Debug, Clone)]
pub struct IncidentOutcome {
    /// Failure domain label ("replica" / "backend" / "az").
    pub domain: String,
    /// When the fault hit (seconds).
    pub fault_s: f64,
    /// When the fault's scripted recovery landed (seconds).
    pub recover_s: f64,
    /// Availability over the fault window.
    pub window_availability: f64,
    /// Time from fault onset to the first fully-available bin (ms).
    pub ttr_ms: f64,
}

/// One architecture's chaos-run outcome.
#[derive(Debug, Clone)]
pub struct ArchOutcome {
    /// Architecture name.
    pub name: &'static str,
    /// Requests offered.
    pub offered: u64,
    /// Requests served.
    pub succeeded: u64,
    /// Attempts made (succeeded + retries + failures).
    pub attempts: u64,
    /// Requests that failed while ground truth had a live replica in a
    /// live AZ — the availability invariant's violation count.
    pub invariant_violations: u64,
    /// `Gateway::fail`/`recover` calls the detection path got wrong
    /// (unknown domain) — must be zero or the plan drifted from topology.
    pub placement_drift: u64,
    /// Requests salvaged by the fail-open last resort (detected view said
    /// "all down", ground truth disagreed).
    pub fail_open: u64,
    /// Outlier-ejection trips.
    pub ejections: u64,
    /// DNS health flips published by the breaker.
    pub dns_flips: u64,
    /// Requests that died on their deadline.
    pub deadline_exceeded: u64,
    /// Retry/hedge attempts refused by the retry budget (0 unless
    /// [`ChaosParams::retry_budget`] is set).
    pub budget_rejected: u64,
    /// p99 latency outside fault windows (ms).
    pub calm_p99_ms: f64,
    /// p99 latency inside fault windows (ms).
    pub fault_p99_ms: f64,
    /// p999 latency inside fault windows (ms).
    pub fault_p999_ms: f64,
    /// Per-domain recovery measurements.
    pub incidents: Vec<IncidentOutcome>,
}

impl ArchOutcome {
    /// Overall availability (successful / offered).
    pub fn availability(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.succeeded as f64 / self.offered as f64
    }

    /// Retry amplification (attempts / offered).
    pub fn retry_amplification(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.attempts as f64 / self.offered as f64
    }

    fn fold_digest(&self, d: &mut Digest) {
        d.write_str(self.name)
            .write_u64(self.offered)
            .write_u64(self.succeeded)
            .write_u64(self.attempts)
            .write_u64(self.invariant_violations)
            .write_u64(self.placement_drift)
            .write_u64(self.fail_open)
            .write_u64(self.ejections)
            .write_u64(self.dns_flips)
            .write_u64(self.deadline_exceeded)
            .write_u64(self.budget_rejected)
            .write_f64(self.calm_p99_ms)
            .write_f64(self.fault_p99_ms)
            .write_f64(self.fault_p999_ms);
        for inc in &self.incidents {
            d.write_str(&inc.domain)
                .write_f64(inc.fault_s)
                .write_f64(inc.recover_s)
                .write_f64(inc.window_availability)
                .write_f64(inc.ttr_ms);
        }
    }
}

/// The whole experiment's outcome (all three architectures).
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Per-architecture results, in sidecar/ambient/canal order.
    pub archs: Vec<ArchOutcome>,
    /// Fault-plan events executed (identical across architectures).
    pub plan_events: usize,
}

impl ChaosOutcome {
    /// Fold the complete outcome into one value: equal seeds must produce
    /// equal digests, bit for bit.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_u64(self.plan_events as u64);
        for a in &self.archs {
            a.fold_digest(&mut d);
        }
        d.value()
    }

    /// The outcome for one architecture, by [`Architecture::name`].
    pub fn arch(&self, name: &str) -> Option<&ArchOutcome> {
        self.archs.iter().find(|a| a.name == name)
    }
}

fn svc() -> GlobalServiceId {
    GlobalServiceId::compose(TenantId(1), ServiceId(8))
}

fn tuple(sport: u16) -> FiveTuple {
    FiveTuple::tcp(
        Endpoint::new(
            VpcAddr::new(VpcId(1), 10, 0, (sport >> 8) as u8, sport as u8),
            sport.max(1),
        ),
        Endpoint::new(VpcAddr::new(VpcId(1), 10, 9, 9, 9), 443),
    )
}

fn addr_of_backend(b: BackendId) -> VpcAddr {
    VpcAddr::new(VpcId(1), 10, 200, (b >> 8) as u8, b as u8)
}

/// Per-architecture chaos profile: resilience policy + detection speed.
struct ArchProfile {
    arch: Architecture,
    resilience: ResilienceConfig,
    /// Health-probe interval before the control plane even notices.
    probe_interval: SimDuration,
    /// Whether the datapath may fail open onto ground-truth-live backends
    /// when the detected view claims total outage (needs retries).
    fail_open: bool,
}

fn canal_profile(scale: f64) -> ArchProfile {
    // Compress the breaker's control-loop timescale along with the fault
    // timeline, or a --fast ejection outlives whole fault windows.
    let mut canal = ResilienceConfig::paper_canal();
    canal.ejection_duration = canal.ejection_duration.scale(scale);
    ArchProfile {
        arch: Architecture::Canal,
        resilience: canal,
        probe_interval: SimDuration::from_millis(500).scale(scale),
        fail_open: true,
    }
}

fn profiles(scale: f64) -> Vec<ArchProfile> {
    vec![
        ArchProfile {
            arch: Architecture::Sidecar,
            resilience: ResilienceConfig::sidecar_baseline(),
            probe_interval: SimDuration::from_secs(4).scale(scale),
            fail_open: false,
        },
        ArchProfile {
            arch: Architecture::Ambient,
            resilience: ResilienceConfig::ambient_baseline(),
            probe_interval: SimDuration::from_secs(2).scale(scale),
            fail_open: true,
        },
        canal_profile(scale),
    ]
}

/// The beats of the Fig. 8 recovery timeline against the *actual*
/// placement, so every target exists in the topology (unknown domains are
/// hard errors downstream). Times are nominal seconds on the 120 s
/// timeline.
fn beats(local_backend: BackendId, scale: f64) -> [(f64, String); FIG8_BEATS] {
    let (b, az, caz) = (local_backend, FAULT_AZ, CLIENT_AZ);
    [
        (10.0, format!("fail replica {b}/0")), // replica VM crash
        (18.0, format!("recover replica {b}/0")),
        (28.0, format!("degrade config-push extra {}", ms(scale, 5.0))), // controller brownout
        (30.0, format!("fail backend {b}")), // whole backend, mid-stall
        (44.0, format!("recover backend {b}")),
        (46.0, "recover config-push".to_string()),
        (60.0, format!("fail az {az}")), // AZ power loss
        (70.0, "degrade key-server extra 15ms".to_string()),
        (80.0, "recover key-server".to_string()),
        (84.0, format!("recover az {az}")),
        (95.0, format!("degrade link {caz}-{az} loss 10% extra 2ms")),
        (103.0, format!("recover link {caz}-{az}")),
    ]
}

/// The scripted plan: the Fig. 8 timeline, then the retry-storm appendix
/// over `storm_backends` (none: no appendix). With every placed backend
/// down at once there is no live replica anywhere, the availability
/// invariant is vacuous, and each attempt past the first is pure retry
/// amplification.
fn scripted_plan(local_backend: BackendId, storm_backends: &[BackendId], scale: f64) -> FaultPlan {
    let mut beats = beats(local_backend, scale).to_vec();
    beats.extend(storm_backends.iter().map(|b| (106.0, format!("fail backend {b}"))));
    beats.extend(storm_backends.iter().map(|b| (114.0, format!("recover backend {b}"))));
    script(scale, &beats)
}

fn to_domain(target: FaultTarget) -> Option<FailureDomain> {
    match target {
        FaultTarget::Replica { backend, index } => Some(FailureDomain::Replica(backend, index)),
        FaultTarget::Backend(b) => Some(FailureDomain::Backend(b)),
        FaultTarget::Az(a) => Some(FailureDomain::Az(AzId(a))),
        _ => None,
    }
}

/// One precomputed client arrival.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: SimTime,
    sport: u16,
    syn: bool,
}

enum Ev {
    Fault(usize),
    Detect(usize),
    Arrive(usize),
}

/// Per-bin availability counters.
#[derive(Debug, Clone, Copy, Default)]
struct BinStat {
    offered: u64,
    succeeded: u64,
}

struct ChaosModel {
    gw: Gateway,
    truth: FaultState,
    dispatcher: ResilientDispatcher,
    budget: Option<RetryBudget>,
    plan: Vec<FaultEvent>,
    arrivals: Vec<Arrival>,
    service: GlobalServiceId,
    placed: Vec<BackendId>,
    backend_az: BTreeMap<BackendId, u32>,
    replicas_per_backend: usize,
    detection: ConfigPlane,
    shape: ClusterShape,
    probe_interval: SimDuration,
    fail_open: bool,
    scale: f64,
    loss_rng: SimRng,
    dns: DnsView,
    dns_addrs: BTreeMap<BackendId, VpcAddr>,
    // measurements
    bins: Vec<BinStat>,
    latencies_calm: Vec<f64>,
    latencies_fault: Vec<f64>,
    offered: u64,
    succeeded: u64,
    attempts: u64,
    invariant_violations: u64,
    placement_drift: u64,
    fail_open_served: u64,
}

impl ChaosModel {
    fn bin_of(&mut self, at: SimTime) -> &mut BinStat {
        let idx = (at.as_nanos() / BIN.as_nanos()) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, BinStat::default());
        }
        &mut self.bins[idx]
    }

    /// Handshake cost for a new connection under current ground truth.
    /// Canal offloads to the key server (inheriting its injected timeouts,
    /// and falling back to local software crypto when it is hard down);
    /// the baselines always do local software asymmetric crypto.
    fn handshake_cost(&self) -> SimDuration {
        match self.detection.arch {
            Architecture::Canal => {
                if self.truth.crashed(FaultTarget::KeyServer) {
                    SimDuration::from_millis(2)
                } else {
                    let mut ks = RemoteKeyServerBackend::new(KeyServerPlacement::LocalAz);
                    let extra = self.truth.extra(FaultTarget::KeyServer);
                    if extra > SimDuration::ZERO {
                        ks.inject_timeout(Some(extra));
                    }
                    ks.completion(8)
                }
            }
            _ => SimDuration::from_millis(2),
        }
    }
}

impl Model for ChaosModel {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Fault(i) => {
                let Some(&ev) = self.plan.get(i) else { return };
                self.truth.apply(&ev);
                // Compute-domain faults reach the detected view only after
                // the probe interval plus a config push — stretched by any
                // config-push stall active *now* (the overlap is the point:
                // a fault during a controller brownout stays masked longer).
                if to_domain(ev.target).is_some() {
                    let push = self
                        .detection
                        .push_update_delayed(&self.shape, self.truth.extra(FaultTarget::ConfigPush))
                        .total_time
                        .scale(self.scale);
                    sched.after(self.probe_interval + push, Ev::Detect(i));
                }
            }
            Ev::Detect(i) => {
                let Some(&ev) = self.plan.get(i) else { return };
                let Some(domain) = to_domain(ev.target) else {
                    return;
                };
                let result = match ev.kind {
                    FaultKind::Crash => self.gw.fail(domain),
                    FaultKind::Recover => self.gw.recover(domain),
                    FaultKind::Degrade { .. } => Ok(()),
                };
                if result.is_err() {
                    self.placement_drift += 1;
                }
            }
            Ev::Arrive(i) => {
                let Some(&arrival) = self.arrivals.get(i) else {
                    return;
                };
                self.offered += 1;
                let tup = tuple(arrival.sport);
                let service = self.service;
                let fault_window = self.truth.any_active();
                let rpb = self.replicas_per_backend;
                let ChaosModel {
                    gw,
                    truth,
                    dispatcher,
                    budget,
                    placed,
                    backend_az,
                    loss_rng,
                    fail_open,
                    fail_open_served,
                    ..
                } = self;
                let mut link_extra = SimDuration::ZERO;
                let mut attempt_no = 0u32;
                let outcome = dispatcher.dispatch(now, |t, avoid| {
                    // Retry-budget admission: the first attempt earns
                    // tokens, every further attempt (retry or hedge) spends
                    // one; an exhausted budget is terminal downstream.
                    attempt_no += 1;
                    if let Some(budget) = budget.as_mut() {
                        let kind = if attempt_no == 1 {
                            AttemptKind::First
                        } else {
                            AttemptKind::Retry
                        };
                        if !budget.admit(BUDGET_CLIENT, kind) {
                            return Err(AttemptError::Rejected(
                                GatewayError::RetryBudgetExhausted,
                            ));
                        }
                    }
                    let avoid_list: Vec<BackendId> = avoid.iter().copied().collect();
                    match gw.handle_request_avoiding(t, service, &tup, arrival.syn, &avoid_list) {
                        Ok(served) => {
                            // Overlay ground truth on the detected view:
                            // a replica the placement still believes in may
                            // actually be down, and cross-AZ packets may be
                            // eaten by a degraded link.
                            if !truth.replica_up(served.backend, served.replica) {
                                return Err(AttemptError::BackendFailure(served.backend));
                            }
                            let az = backend_az.get(&served.backend).copied().unwrap_or(CLIENT_AZ);
                            if az != CLIENT_AZ {
                                let link = FaultTarget::Link { a: CLIENT_AZ, b: az };
                                let loss = truth.loss(link);
                                if loss > 0.0 && loss_rng.chance(loss) {
                                    return Err(AttemptError::BackendFailure(served.backend));
                                }
                                link_extra = truth.extra(link);
                            }
                            Ok(served)
                        }
                        Err(GatewayError::Unavailable) if *fail_open => {
                            // Detected view says total outage; probe the
                            // cached endpoints directly. If ground truth has
                            // a live replica the request still lands (stale
                            // views must not refuse live capacity).
                            for &b in placed.iter() {
                                if avoid.contains(&b) || !truth.backend_up(b) {
                                    continue;
                                }
                                let Some(r) = (0..rpb).find(|&r| truth.replica_up(b, r)) else {
                                    continue;
                                };
                                *fail_open_served += 1;
                                return Ok(GatewayServed {
                                    backend: b,
                                    replica: r,
                                    finish: t,
                                    redirect_hops: 0,
                                });
                            }
                            Err(AttemptError::Rejected(GatewayError::Unavailable))
                        }
                        Err(e) => Err(AttemptError::Rejected(e)),
                    }
                });
                // Publish breaker state onto the DNS failover path.
                self.dispatcher
                    .sync_dns(now, &mut self.dns, DNS_NAME, &self.dns_addrs);
                self.attempts += u64::from(outcome.attempts);
                let bin = self.bin_of(arrival.at);
                bin.offered += 1;
                if let Some(served) = outcome.served {
                    bin.succeeded += 1;
                    self.succeeded += 1;
                    let retry_delay = outcome.completed_at.since(arrival.at);
                    let base = SimDuration::from_micros(300);
                    let handshake = if arrival.syn {
                        self.handshake_cost()
                    } else {
                        SimDuration::ZERO
                    };
                    let service_time = served.finish.since(outcome.completed_at);
                    let total = retry_delay + base + handshake + link_extra + service_time;
                    let ms = total.as_millis_f64();
                    if fault_window {
                        self.latencies_fault.push(ms);
                    } else {
                        self.latencies_calm.push(ms);
                    }
                } else {
                    // The invariant: if ground truth still had a live
                    // replica in a live AZ, this failure was avoidable.
                    let live_somewhere = self.placed.iter().any(|&b| self.truth.backend_up(b));
                    if live_somewhere {
                        self.invariant_violations += 1;
                        if std::env::var("CHAOS_DEBUG").is_ok() {
                            eprintln!(
                                "VIOLATION arch={:?} at={:?} attempts={} deadline={} ejected={:?}",
                                self.detection.arch,
                                arrival.at,
                                outcome.attempts,
                                outcome.deadline_exceeded,
                                self.dispatcher.ejected_backends(now),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Run the chaos scenario for every architecture under identical fault
/// plans and arrival streams. Fully deterministic in `seed`.
pub fn run_chaos(seed: u64, params: &ChaosParams) -> ChaosOutcome {
    let shape = ClusterShape::production(300);
    let mut archs = Vec::new();
    let mut plan_events = 0;
    for profile in profiles(params.time_scale) {
        let (outcome, events) = run_arch(seed, params, &profile, shape);
        plan_events = events;
        archs.push(outcome);
    }
    ChaosOutcome { archs, plan_events }
}

/// One architecture's chaos run; returns the outcome and the number of
/// fault-plan events executed.
fn run_arch(
    seed: u64,
    params: &ChaosParams,
    profile: &ArchProfile,
    shape: ClusterShape,
) -> (ArchOutcome, usize) {
    let scale = params.time_scale;
    let horizon = params.horizon();
    {
        // Identical topology and placement per architecture: same seed.
        let mut topo_rng = SimRng::seed(seed ^ 0x7070_1A2B_3C4D_5E6F);
        let mut gw = Gateway::new(GatewayConfig::default());
        let service = svc();
        gw.register_service(service, &mut topo_rng);
        let backend_az: BTreeMap<BackendId, u32> =
            gw.backends().into_iter().map(|(b, a)| (b, a.0)).collect();
        // Guarantee cross-AZ placement (Fig. 8's precondition): the service
        // needs at least one backend in the client AZ and one in the fault
        // AZ for AZ failover to be possible at all.
        for az in [CLIENT_AZ, FAULT_AZ] {
            let has = gw
                .backends_of(service)
                .iter()
                .any(|b| backend_az.get(b) == Some(&az));
            if !has {
                let candidate = backend_az.iter().find(|&(_, a)| *a == az).map(|(&b, _)| b);
                if let Some(b) = candidate {
                    gw.extend_service(service, b);
                }
            }
        }
        let placed = gw.backends_of(service);
        let local_backend = placed
            .iter()
            .copied()
            .find(|b| backend_az.get(b) == Some(&CLIENT_AZ))
            .or_else(|| placed.first().copied())
            .unwrap_or(0);

        let storm_backends = if params.storm { placed.clone() } else { Vec::new() };
        let plan = scripted_plan(local_backend, &storm_backends, scale);
        let plan_events = plan.len();
        let replicas_per_backend = gw.config().replicas_per_backend;
        let topo = FaultTopology {
            backends: backend_az
                .iter()
                .map(|(&b, &a)| BackendSpec {
                    id: b,
                    az: a,
                    replicas: replicas_per_backend,
                })
                .collect(),
        };

        // Identical arrival stream per architecture: its own seeded fork.
        let mut arr_rng = SimRng::seed(seed ^ 0xA881_7A1C_57B3_11E9);
        let mut arrivals = Vec::new();
        let mut t = 0.0;
        let horizon_s = horizon.as_secs_f64();
        let mut sport = 1u16;
        loop {
            t += arr_rng.exponential(1.0 / params.rps);
            if t > horizon_s {
                break;
            }
            sport = sport.wrapping_add(1).max(1);
            arrivals.push(Arrival {
                at: SimTime::from_nanos((t * 1e9) as u64),
                sport,
                syn: arr_rng.chance(NEW_CONN_FRACTION),
            });
        }

        let mut sim: Simulation<Ev> = Simulation::new();
        plan.schedule_into(&mut sim, |i, _| Ev::Fault(i));
        for (i, a) in arrivals.iter().enumerate() {
            sim.schedule(a.at, Ev::Arrive(i));
        }

        // The service's DNS records: one target per placed backend.
        let mut dns = DnsView::new();
        let mut dns_addrs = BTreeMap::new();
        for &b in &placed {
            let az = backend_az.get(&b).copied().unwrap_or(CLIENT_AZ);
            let addr = addr_of_backend(b);
            dns.add(DNS_NAME, AzId(az), addr);
            dns_addrs.insert(b, addr);
        }

        let mut model = ChaosModel {
            gw,
            truth: FaultState::new(&topo),
            dispatcher: ResilientDispatcher::new(
                profile.resilience,
                SimRng::seed(seed ^ 0xD15B_A7C4_E125_1113),
            ),
            budget: params
                .retry_budget
                .map(|(ratio, cap)| RetryBudget::new(ratio, cap)),
            plan: plan.events().to_vec(),
            arrivals,
            service,
            placed,
            backend_az,
            replicas_per_backend,
            detection: ConfigPlane::new(profile.arch),
            shape,
            probe_interval: profile.probe_interval,
            fail_open: profile.fail_open,
            scale,
            loss_rng: SimRng::seed(seed ^ 0x1055_CAFE_0000_0001),
            dns,
            dns_addrs,
            bins: Vec::new(),
            latencies_calm: Vec::new(),
            latencies_fault: Vec::new(),
            offered: 0,
            succeeded: 0,
            attempts: 0,
            invariant_violations: 0,
            placement_drift: 0,
            fail_open_served: 0,
        };
        sim.run(&mut model);

        let incidents = measure_incidents(&model.plan, &model.bins);
        let counters = model.dispatcher.counters();
        let outcome = ArchOutcome {
            name: profile.arch.name(),
            offered: model.offered,
            succeeded: model.succeeded,
            attempts: model.attempts,
            invariant_violations: model.invariant_violations,
            placement_drift: model.placement_drift,
            fail_open: model.fail_open_served,
            ejections: counters.ejections,
            dns_flips: counters.dns_flips,
            deadline_exceeded: counters.deadline_misses,
            budget_rejected: counters.budget_rejected,
            calm_p99_ms: stats::percentile(&model.latencies_calm, 0.99),
            fault_p99_ms: stats::percentile(&model.latencies_fault, 0.99),
            fault_p999_ms: stats::percentile(&model.latencies_fault, 0.999),
            incidents,
        };
        (outcome, plan_events)
    }
}

/// Retry-budget A/B under the retry-storm plan, canal profile only: same
/// seed, same arrivals, same faults — the budget is the only difference, so
/// the attempt delta is purely what admission refused to amplify.
pub fn run_retry_storm(seed: u64, params: &ChaosParams) -> (ArchOutcome, ArchOutcome) {
    let shape = ClusterShape::production(300);
    let profile = canal_profile(params.time_scale);
    let off = ChaosParams {
        storm: true,
        retry_budget: None,
        ..*params
    };
    // Default to a 100% retry budget (every first attempt earns one retry
    // credit, burst-capped): steady-state amplification is bounded at 2x,
    // the storm's ~6-attempts-per-request demand is clamped hard, and the
    // post-recovery re-steer retries are self-funding — the budget never
    // starves a retry that a freshly recovered replica needed.
    let on = ChaosParams {
        storm: true,
        retry_budget: Some(params.retry_budget.unwrap_or((1.0, 100.0))),
        ..*params
    };
    (
        run_arch(seed, &off, &profile, shape).0,
        run_arch(seed, &on, &profile, shape).0,
    )
}

fn domain_label(target: FaultTarget) -> Option<&'static str> {
    match target {
        FaultTarget::Replica { .. } => Some("replica"),
        FaultTarget::Backend(_) => Some("backend"),
        FaultTarget::Az(_) => Some("az"),
        _ => None,
    }
}

/// For every compute-domain crash in the plan: availability over its fault
/// window and time from onset to the first bin that offered traffic, served
/// all of it, and stays fully served through the rest of the window (plus a
/// short grace region past the scripted recovery).
fn measure_incidents(plan: &[FaultEvent], bins: &[BinStat]) -> Vec<IncidentOutcome> {
    let mut out = Vec::new();
    for (i, ev) in plan.iter().enumerate() {
        if ev.kind != FaultKind::Crash {
            continue;
        }
        let Some(domain) = domain_label(ev.target) else {
            continue;
        };
        let recover_at = plan[i..]
            .iter()
            .find(|e| e.target == ev.target && e.kind == FaultKind::Recover)
            .map(|e| e.at)
            .unwrap_or(SimTime::MAX);
        let start_bin = (ev.at.as_nanos() / BIN.as_nanos()) as usize;
        let end_bin = if recover_at == SimTime::MAX {
            bins.len()
        } else {
            ((recover_at.as_nanos() / BIN.as_nanos()) as usize + 1).min(bins.len())
        };
        let (mut offered, mut succeeded) = (0u64, 0u64);
        for b in bins.iter().take(end_bin).skip(start_bin) {
            offered += b.offered;
            succeeded += b.succeeded;
        }
        let window_availability = if offered == 0 {
            1.0
        } else {
            succeeded as f64 / offered as f64
        };
        let grace_end = (end_bin + 16).min(bins.len());
        let mut ttr_ms =
            ((grace_end as u64 * BIN.as_nanos()).saturating_sub(ev.at.as_nanos())) as f64 / 1e6;
        for first in start_bin..grace_end {
            let healthy = (first..grace_end)
                .all(|b| bins.get(b).map(|s| s.succeeded == s.offered).unwrap_or(true));
            if healthy && bins.get(first).map(|s| s.offered > 0).unwrap_or(false) {
                let recovered_at = (first as u64 + 1) * BIN.as_nanos();
                ttr_ms = recovered_at.saturating_sub(ev.at.as_nanos()) as f64 / 1e6;
                break;
            }
        }
        out.push(IncidentOutcome {
            domain: domain.to_string(),
            fault_s: ev.at.as_secs_f64(),
            recover_s: if recover_at == SimTime::MAX {
                f64::NAN
            } else {
                recover_at.as_secs_f64()
            },
            window_availability,
            ttr_ms,
        });
    }
    out
}

/// Fig. 8, the chaos recovery timeline. Only canal is held to the
/// availability invariant: the sidecar and ambient arms are the baselines
/// that lose avoidable requests.
impl Scenario for ChaosOutcome {
    const ID: &'static str = "fig8";
    const INVARIANT: &'static str =
        "availability: a service with a live replica in a live AZ serves 100% under fault injection";
    const OK_KEY: &'static str = "availability_ok";
    type Params = ChaosParams;

    fn params(fast: bool) -> ChaosParams {
        if fast { ChaosParams::fast() } else { ChaosParams::full() }
    }

    fn run(seed: u64, params: &ChaosParams) -> Self {
        run_chaos(seed, params)
    }

    fn outcome_digest(&self) -> u64 {
        self.digest()
    }

    fn failures(&self) -> Vec<String> {
        let violations = self.arch("canal").map_or(u64::MAX, |a| a.invariant_violations);
        let clause = format!("{violations} requests failed with a live replica reachable");
        // A beat the fault DSL rejects empties the plan, and a fault-free
        // run is trivially available (these params append no storm).
        let scripted = format!("the plan has {} events for {FIG8_BEATS} beats", self.plan_events);
        violated(
            "canal availability",
            &[(&clause, violations == 0), (&scripted, self.plan_events == FIG8_BEATS)],
        )
    }

    fn json(&self) -> Vec<(&'static str, Json)> {
        let section = |c: &ArchOutcome| {
            fields!(c => offered, succeeded, attempts, invariant_violations, fail_open,
                ejections, dns_flips, deadline_exceeded)
        };
        self.arch("canal").map(|c| ("canal", section(c))).into_iter().collect()
    }

    fn report(&self, seed: u64, params: &ChaosParams) -> ExperimentReport {
        report(self, seed, params)
    }
}

fn report(outcome: &ChaosOutcome, seed: u64, params: &ChaosParams) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig8",
        "chaos recovery timeline: deterministic faults vs the resilient datapath",
    );

    let mut summary = Table::new(
        "fig8 availability & resilience summary",
        &[
            "arch",
            "offered",
            "availability",
            "retry-amp",
            "fault p99 ms",
            "fault p999 ms",
            "calm p99 ms",
            "ejections",
            "dns flips",
            "fail-open",
            "deadline-exceeded",
        ],
    );
    for a in &outcome.archs {
        summary.row(&[
            a.name.to_string(),
            a.offered.to_string(),
            pct(a.availability()),
            num(a.retry_amplification()),
            num(a.fault_p99_ms),
            num(a.fault_p999_ms),
            num(a.calm_p99_ms),
            a.ejections.to_string(),
            a.dns_flips.to_string(),
            a.fail_open.to_string(),
            a.deadline_exceeded.to_string(),
        ]);
    }
    report.tables.push(summary);

    let mut ttr = Table::new(
        "fig8 per-domain time to recovery",
        &[
            "arch",
            "domain",
            "fault at s",
            "recover at s",
            "window availability",
            "ttr ms",
        ],
    );
    for a in &outcome.archs {
        for inc in &a.incidents {
            ttr.row(&[
                a.name.to_string(),
                inc.domain.clone(),
                num(inc.fault_s),
                num(inc.recover_s),
                pct(inc.window_availability),
                num(inc.ttr_ms),
            ]);
        }
    }
    report.tables.push(ttr);

    let canal = outcome.arch("canal");
    let sidecar = outcome.arch("istio-sidecar");
    if let (Some(canal), Some(sidecar)) = (canal, sidecar) {
        report.checks.push(Check::cond(
            "canal availability invariant",
            "0 failures while a live replica existed in a live AZ",
            &canal.invariant_violations.to_string(),
            canal.invariant_violations == 0,
        ));
        report.checks.push(Check::band(
            "canal availability under the full fault plan",
            "100% (>=1 live replica in a live AZ => served)",
            canal.availability() * 100.0,
            99.999,
            100.0,
        ));
        report.checks.push(Check::band(
            "sidecar availability (no datapath retries)",
            "dips during detection windows",
            sidecar.availability() * 100.0,
            50.0,
            99.9,
        ));
        let domains = ["replica", "backend", "az"];
        let rows = outcome
            .archs
            .iter()
            .map(|a| {
                domains
                    .iter()
                    .filter(|d| a.incidents.iter().any(|i| i.domain == **d))
                    .count()
            })
            .min()
            .unwrap_or(0);
        report.checks.push(Check::cond(
            "per-domain TTR emitted for all three architectures",
            "3 domains x 3 architectures",
            &format!("{} domains each across {} archs", rows, outcome.archs.len()),
            rows == 3 && outcome.archs.len() == 3,
        ));
        let ttr_of = |a: &ArchOutcome, d: &str| {
            a.incidents
                .iter()
                .find(|i| i.domain == d)
                .map(|i| i.ttr_ms)
                .unwrap_or(f64::NAN)
        };
        let canal_az = ttr_of(canal, "az");
        let sidecar_az = ttr_of(sidecar, "az");
        report.checks.push(Check::cond(
            "canal AZ-fault recovery beats sidecar",
            "O(retry) vs O(detection) — Fig. 8",
            &format!("canal {} ms vs sidecar {} ms", num(canal_az), num(sidecar_az)),
            canal_az < sidecar_az,
        ));
        report.checks.push(Check::band(
            "canal retry amplification",
            "slightly above 1 (retries only during faults)",
            canal.retry_amplification(),
            1.0001,
            1.5,
        ));
        report.checks.push(Check::band(
            "sidecar retry amplification",
            "exactly 1 (single attempt, no datapath retries)",
            sidecar.retry_amplification(),
            1.0,
            1.0,
        ));
        report.checks.push(Check::cond(
            "canal outlier ejection engaged",
            "breaker trips and publishes DNS health during faults",
            &format!("{} ejections, {} dns flips", canal.ejections, canal.dns_flips),
            canal.ejections > 0 && canal.dns_flips > 0,
        ));
        let drift: u64 = outcome.archs.iter().map(|a| a.placement_drift).sum();
        report.checks.push(Check::cond(
            "fault plan targets stay inside the topology",
            "0 unknown-domain errors",
            &drift.to_string(),
            drift == 0,
        ));
    }

    // Retry-budget A/B: append a total-outage storm window to the same plan
    // and run the canal profile with the budget off and on. Nothing else
    // differs, so the amplification delta is exactly what admission refused.
    let (no_budget, budgeted) = run_retry_storm(seed, params);
    let mut storm = Table::new(
        "retry-budget admission under a total-outage retry storm (canal)",
        &[
            "retry budget",
            "offered",
            "attempts",
            "retry-amp",
            "budget-rejected",
            "invariant violations",
        ],
    );
    for (label, a) in [("off", &no_budget), ("on", &budgeted)] {
        storm.row(&[
            label.to_string(),
            a.offered.to_string(),
            a.attempts.to_string(),
            num(a.retry_amplification()),
            a.budget_rejected.to_string(),
            a.invariant_violations.to_string(),
        ]);
    }
    report.tables.push(storm);
    report.checks.push(Check::cond(
        "retry budget cuts storm retry amplification",
        "amp with budget measurably below amp without",
        &format!(
            "off {} vs on {}",
            num(no_budget.retry_amplification()),
            num(budgeted.retry_amplification())
        ),
        budgeted.retry_amplification() < no_budget.retry_amplification() - 0.01,
    ));
    report.checks.push(Check::cond(
        "retry budget engages without costing availability",
        "rejections > 0, invariant still clean in both runs",
        &format!(
            "{} rejected, violations off={} on={}",
            budgeted.budget_rejected, no_budget.invariant_violations, budgeted.invariant_violations
        ),
        budgeted.budget_rejected > 0
            && budgeted.invariant_violations == 0
            && no_budget.invariant_violations == 0,
    ));
    report
}
