//! Gateway overload control under a single-tenant surge.
//!
//! One tenant suddenly offers 20× its usual load while three well-behaved
//! tenants keep their steady streams. The same arrival process is driven
//! through three ingress placements:
//!
//! * **canal** — the shared gateway with the full overload pipeline
//!   ([`OverloadControl`]): per-(tenant, priority) deficit-weighted fair
//!   queues, CoDel shedding on queue sojourn, brownout of optional L7 work.
//! * **ambient** — a shared node proxy: same cores, but one tail-drop FIFO
//!   for everyone and no shedding (an [`OverloadConfig`] with every stage
//!   off).
//! * **istio-sidecar** — per-tenant sidecars: the same total cores
//!   statically split one per tenant. Perfect isolation, no work
//!   conservation.
//!
//! Each placement runs twice — without and with the surge — and the
//! isolation invariant compares the two: *well-behaved tenants must hold
//! their no-surge P99 within a bounded factor, while the surging tenant's
//! goodput degrades gracefully instead of collapsing*. `experiments overload`
//! exits non-zero when the invariant does not hold for canal.
//!
//! Overload signals are also published to the control plane's
//! [`WaterLevelMonitor`] the way `canal-control` would consume them: the
//! monitor must stay calm in the baseline pass and raise overload alerts
//! during the surge.
//!
//! Everything is seeded; double runs produce bit-identical
//! [`SurgeOutcome::digest`] values (held by `crate::scenario::drive`).

use crate::harness::{poisson_arrivals, ExperimentReport};
use crate::scenario::{checks, fields, violated, Claim, Json, Scenario};
use canal_control::{OverloadAssessment, WaterLevelMonitor};
use canal_gateway::overload::{AttemptKind, OverloadConfig, OverloadControl};
use canal_net::{GlobalServiceId, Priority, ServiceId, TenantId};
use canal_sim::output::{num, pct, Table};
use canal_sim::{stats, Digest, Fold, SimDuration, SimRng, SimTime, Stats};

/// Well-behaved tenants offer this rate each (requests/s).
const BASE_RPS: f64 = 100.0;
/// The surging tenant multiplies its rate by this.
const SURGE_FACTOR: f64 = 20.0;
/// Tenants 1..=N; tenant 1 is the one that surges.
const TENANTS: u32 = 4;
const SURGER: u32 = 1;
/// Fraction of each tenant's traffic that is interactive (the rest is bulk).
const INTERACTIVE_FRACTION: f64 = 0.75;
/// Request payload size offered to the byte caps.
const REQUEST_BYTES: u64 = 8 << 10;
/// Telemetry sampling period for the control-plane monitor.
const SAMPLE_EVERY: SimDuration = SimDuration::from_millis(250);

/// Surge run parameters.
#[derive(Debug, Clone, Copy)]
pub struct SurgeParams {
    /// Time compression: the measurement horizon is multiplied by this.
    pub(crate) time_scale: f64,
}

impl SurgeParams {
    /// The full run: 30 s per pass.
    pub fn full() -> Self {
        SurgeParams { time_scale: 1.0 }
    }

    /// CI smoke mode: the same scenario compressed 4×.
    pub(crate) fn fast() -> Self {
        SurgeParams { time_scale: 0.25 }
    }

    /// Measurement horizon (scaled).
    pub(crate) fn horizon(&self) -> SimDuration {
        SimDuration::from_secs(30).scale(self.time_scale)
    }
}

/// The shared-gateway ingress: 4 cores of 2 ms requests → ~2000 rps of
/// capacity. Baseline load is 4 × 100 rps (20% utilization); the surge
/// pushes the total to ~2300 rps, past saturation.
fn canal_cfg() -> OverloadConfig {
    OverloadConfig {
        ingress_cores: 4,
        quantum: SimDuration::from_millis(2),
        base_cpu: SimDuration::from_millis(2),
        codel_target: SimDuration::from_millis(15),
        codel_interval: SimDuration::from_millis(60),
        brownout_observability: SimDuration::from_millis(8),
        brownout_canary: SimDuration::from_millis(20),
        brownout_exit: SimDuration::from_millis(4),
        ..OverloadConfig::default()
    }
}

/// Same dimensions, none of the defenses: one shared tail-drop FIFO.
fn ambient_cfg() -> OverloadConfig {
    OverloadConfig {
        per_tenant: false,
        codel: false,
        retry_budget: false,
        brownout: false,
        ..canal_cfg()
    }
}

/// One tenant's statically-partitioned sidecar: a quarter of the cores,
/// plain FIFO (a sidecar queues, it does not run fair scheduling).
fn sidecar_cfg() -> OverloadConfig {
    OverloadConfig {
        ingress_cores: 1,
        ..ambient_cfg()
    }
}

fn svc(tenant: u32) -> GlobalServiceId {
    GlobalServiceId::compose(TenantId(tenant), ServiceId(8))
}

/// One precomputed client arrival.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: SimTime,
    tenant: u32,
    priority: Priority,
    sport: u16,
}

/// Merge per-tenant Poisson streams into one deterministic timeline.
fn arrivals(seed: u64, params: &SurgeParams, surge: bool) -> Vec<Arrival> {
    let horizon_s = params.horizon().as_secs_f64();
    let mut all = Vec::new();
    for tenant in 1..=TENANTS {
        let rate = if surge && tenant == SURGER {
            BASE_RPS * SURGE_FACTOR
        } else {
            BASE_RPS
        };
        let mut rng = SimRng::seed(seed ^ 0x5c1e_0b5e_55ed_0000 ^ u64::from(tenant) << 48);
        let mut sport = 1u16;
        all.extend(poisson_arrivals(&mut rng, rate, horizon_s, |rng, at| {
            sport = sport.wrapping_add(1).max(1);
            Arrival {
                at,
                tenant,
                priority: if rng.chance(INTERACTIVE_FRACTION) {
                    Priority::Interactive
                } else {
                    Priority::Bulk
                },
                sport,
            }
        }));
    }
    all.sort_by_key(|a| (a.at, a.tenant, a.sport));
    all
}

/// One tenant's measurements over one pass.
#[derive(Debug, Clone, Default)]
pub struct TenantOutcome {
    /// Requests offered.
    pub offered: u64,
    /// Requests granted ingress CPU (goodput).
    pub started: u64,
    /// Requests shed (queue caps or CoDel).
    pub(crate) shed: u64,
    /// P99 ingress latency (queue sojourn + service), ms.
    pub(crate) p99_ms: f64,
    /// P99 over interactive requests only, ms.
    pub(crate) interactive_p99_ms: f64,
    /// P99 over bulk requests only, ms.
    pub(crate) bulk_p99_ms: f64,
}

impl TenantOutcome {
    /// Started / offered.
    pub(crate) fn goodput_ratio(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.started as f64 / self.offered as f64
    }
}

/// One pass (baseline or surge) over one placement.
#[derive(Debug, Clone, Default)]
pub struct PassOutcome {
    /// Per-tenant measurements, indexed `tenant - 1`.
    pub tenants: Vec<TenantOutcome>,
    /// Whether brownout ever left [`canal_gateway::BrownoutLevel::Normal`].
    pub(crate) brownout_engaged: bool,
    /// Requests shed in total.
    pub(crate) total_shed: u64,
    /// Control-plane monitor samples that assessed pressure or shedding.
    pub(crate) overload_alerts: u64,
}

/// One placement's baseline + surge passes.
#[derive(Debug, Clone)]
pub struct PlacementOutcome {
    /// Placement name (`canal`, `ambient`, `istio-sidecar`).
    pub name: &'static str,
    /// The no-surge pass.
    pub baseline: PassOutcome,
    /// The surge pass.
    pub surge: PassOutcome,
}

impl PlacementOutcome {
    /// Worst victim-tenant P99 inflation: max over well-behaved tenants of
    /// surge-pass P99 over baseline-pass P99.
    pub(crate) fn victim_p99_ratio(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for t in 0..TENANTS as usize {
            if t as u32 + 1 == SURGER {
                continue;
            }
            let base = self.baseline.tenants[t].p99_ms.max(1e-6);
            worst = worst.max(self.surge.tenants[t].p99_ms / base);
        }
        worst
    }

    /// Worst victim-tenant goodput ratio during the surge.
    pub(crate) fn victim_goodput_ratio(&self) -> f64 {
        (0..TENANTS as usize)
            .filter(|&t| t as u32 + 1 != SURGER)
            .map(|t| self.surge.tenants[t].goodput_ratio())
            .fold(1.0, f64::min)
    }

    /// The surging tenant's measurements during the surge.
    pub(crate) fn surger(&self) -> &TenantOutcome {
        &self.surge.tenants[(SURGER - 1) as usize]
    }

    fn fold(&self, f: &mut impl Fold) {
        let Self { name, baseline, surge } = self;
        f.write_str(name);
        for pass in [baseline, surge] {
            f.write_u64(u64::from(pass.brownout_engaged))
                .write_u64(pass.total_shed)
                .write_u64(pass.overload_alerts);
            for t in &pass.tenants {
                f.write_u64(t.offered)
                    .write_u64(t.started)
                    .write_u64(t.shed)
                    .write_f64(t.p99_ms)
                    .write_f64(t.interactive_p99_ms)
                    .write_f64(t.bulk_p99_ms);
            }
        }
    }
}

/// The whole experiment's outcome.
#[derive(Debug, Clone)]
pub struct SurgeOutcome {
    /// Per-placement results, in canal/ambient/sidecar order.
    pub placements: Vec<PlacementOutcome>,
}

/// Victim P99 may inflate at most this much under canal.
pub(crate) const VICTIM_P99_BOUND: f64 = 5.0;
/// The surging tenant must keep at least this goodput ratio under canal.
pub(crate) const SURGER_GOODPUT_FLOOR: f64 = 0.5;

impl SurgeOutcome {
    /// Fold the complete outcome into one value: equal seeds must produce
    /// equal digests, bit for bit.
    pub fn digest(&self) -> u64 {
        Digest::of(|d| self.placements.iter().for_each(|p| p.fold(d))).value()
    }

    /// The outcome for one placement.
    pub(crate) fn placement(&self, name: &str) -> Option<&PlacementOutcome> {
        self.placements.iter().find(|p| p.name == name)
    }

    /// Whether the isolation invariant `experiments overload` gates on
    /// holds: every clause of the surge's claims.
    pub fn isolation_ok(&self) -> bool {
        self.failures().is_empty()
    }

    /// The overload report's checks, each with the clauses it rests on.
    fn claims(&self) -> Vec<Claim> {
        let placements = (self.placement("canal"), self.placement("ambient"), self.placement("istio-sidecar"));
        let (Some(canal), Some(ambient), Some(sidecar)) = placements else {
            return vec![Claim::unreported(&[("all three placements ran", false)])];
        };
        let surger = canal.surger();
        vec![
            Claim::new(
                "canal victim p99 inflation under a 20x surge",
                &format!("bounded (≤ {VICTIM_P99_BOUND}x of no-surge p99)"),
                &num(canal.victim_p99_ratio()),
                &[("victims hold their no-surge P99", canal.victim_p99_ratio() <= VICTIM_P99_BOUND)],
            ),
            Claim::new(
                "canal victims keep their goodput",
                "fair queues never shed a well-behaved tenant",
                &pct(canal.victim_goodput_ratio()),
                &[("victims keep their goodput", canal.victim_goodput_ratio() >= 0.99)],
            ),
            Claim::new(
                "canal surger degrades gracefully",
                &format!("goodput ≥ {:.0}% with CoDel shedding the excess", SURGER_GOODPUT_FLOOR * 100.0),
                &format!("{} goodput, {} shed", pct(surger.goodput_ratio()), surger.shed),
                &[
                    ("the surger keeps its goodput floor", surger.goodput_ratio() >= SURGER_GOODPUT_FLOOR),
                    ("the surger is shed", surger.shed > 0),
                ],
            ),
            Claim::new(
                "shared FIFO melts without fair queues",
                "ambient victim p99 inflates far past the canal bound",
                &num(ambient.victim_p99_ratio()),
                &[(
                    "a shared FIFO inflates victim P99 past 4x canal's bound",
                    ambient.victim_p99_ratio() > 4.0 * VICTIM_P99_BOUND,
                )],
            ),
            Claim::new(
                "static sidecar split isolates but wastes capacity",
                "sidecar victims isolated; canal surger goodput beats sidecar's",
                &format!(
                    "sidecar victim inflation {}, surger goodput canal {} vs sidecar {}",
                    num(sidecar.victim_p99_ratio()),
                    pct(surger.goodput_ratio()),
                    pct(sidecar.surger().goodput_ratio())
                ),
                &[
                    ("static sidecar cores isolate victims", sidecar.victim_p99_ratio() <= 2.0),
                    (
                        "canal serves more of the surge than a static core split",
                        surger.goodput_ratio() > sidecar.surger().goodput_ratio(),
                    ),
                ],
            ),
            Claim::new(
                "interactive class outranks bulk for the surging tenant",
                "weighted classes: interactive p99 < bulk p99 under canal",
                &format!("interactive {} ms vs bulk {} ms", num(surger.interactive_p99_ms), num(surger.bulk_p99_ms)),
                &[("the surger's interactive p99 beats its bulk p99", surger.interactive_p99_ms < surger.bulk_p99_ms)],
            ),
            Claim::new(
                "brownout sheds optional work before requests",
                "brownout engages during the surge, never at baseline",
                &format!("surge {} / baseline {}", canal.surge.brownout_engaged, canal.baseline.brownout_engaged),
                &[
                    ("brownout engages under the surge", canal.surge.brownout_engaged),
                    ("brownout stays off at baseline", !canal.baseline.brownout_engaged),
                ],
            ),
            Claim::new(
                "overload signals reach the control plane",
                "monitor alerts during the surge, calm at baseline",
                &format!("surge {} alerts / baseline {}", canal.surge.overload_alerts, canal.baseline.overload_alerts),
                &[
                    ("the monitor alerts under the surge", canal.surge.overload_alerts > 0),
                    ("the monitor stays calm at baseline", canal.baseline.overload_alerts == 0),
                ],
            ),
        ]
    }
}

struct Placement {
    name: &'static str,
    /// One control for shared placements; one per tenant for sidecars.
    controls: Vec<OverloadControl>,
}

impl Placement {
    fn route(&self, tenant: u32) -> usize {
        if self.controls.len() == 1 {
            0
        } else {
            (tenant as usize - 1).min(self.controls.len() - 1)
        }
    }
}

fn placements() -> Vec<Placement> {
    vec![
        Placement {
            name: "canal",
            controls: vec![OverloadControl::new(canal_cfg())],
        },
        Placement {
            name: "ambient",
            controls: vec![OverloadControl::new(ambient_cfg())],
        },
        Placement {
            name: "istio-sidecar",
            controls: (0..TENANTS)
                .map(|_| OverloadControl::new(sidecar_cfg()))
                .collect(),
        },
    ]
}

/// Latency samples per tenant, split by priority.
#[derive(Default)]
struct TenantSamples {
    all: Vec<f64>,
    interactive: Vec<f64>,
    bulk: Vec<f64>,
}

fn run_pass(placement: &mut Placement, arrivals: &[Arrival], horizon: SimDuration) -> PassOutcome {
    let mut out = PassOutcome {
        tenants: vec![TenantOutcome::default(); TENANTS as usize],
        ..PassOutcome::default()
    };
    let mut samples: Vec<TenantSamples> = (0..TENANTS).map(|_| TenantSamples::default()).collect();
    let mut monitor = WaterLevelMonitor::new();
    let slo = canal_cfg().codel_target;
    let mut next_sample = SAMPLE_EVERY;

    // One grant buffer for the whole pass: every pump appends, `absorb` empties.
    let mut started = Vec::new();
    let absorb = |out: &mut PassOutcome,
                      samples: &mut Vec<TenantSamples>,
                      started: &mut Vec<canal_gateway::overload::StartedRequest>| {
        for s in started.drain(..) {
            let t = (s.pending.service.tenant().0 - 1) as usize;
            if s.shed {
                out.tenants[t].shed += 1;
                continue;
            }
            out.tenants[t].started += 1;
            let ms = (s.sojourn + s.finish.since(s.start)).as_millis_f64();
            samples[t].all.push(ms);
            match s.pending.priority {
                Priority::Interactive => samples[t].interactive.push(ms),
                Priority::Bulk => samples[t].bulk.push(ms),
            }
        }
    };

    // An arrival pumps only the control it is routed to: pumping a control
    // to t1 and then t2 with no offer between is one pump to t2, and each
    // sidecar control serves one tenant, so every tenant's samples come out
    // in the same order. Every control is pumped before a telemetry sample
    // reads its window, and at the drain.
    for a in arrivals {
        // Publish the telemetry window to the control plane at a fixed
        // cadence, the way canal-control's monitor would consume it.
        if a.at >= SimTime::ZERO + next_sample {
            next_sample += SAMPLE_EVERY;
            for ctrl in placement.controls.iter_mut() {
                ctrl.pump(a.at, &mut started);
                absorb(&mut out, &mut samples, &mut started);
                let sig = ctrl.signals();
                if monitor.ingest_overload(a.at, &sig, slo) != OverloadAssessment::Calm {
                    out.overload_alerts += 1;
                }
            }
        }
        let idx = placement.route(a.tenant);
        let ctrl = &mut placement.controls[idx];
        ctrl.pump(a.at, &mut started);
        absorb(&mut out, &mut samples, &mut started);
        let ti = (a.tenant - 1) as usize;
        out.tenants[ti].offered += 1;
        let result = ctrl.offer(
            a.at,
            svc(a.tenant),
            a.priority,
            u64::from(a.tenant),
            AttemptKind::First,
            REQUEST_BYTES,
        );
        if result.is_err() {
            out.tenants[ti].shed += 1;
        }
        if ctrl.brownout_level() > canal_gateway::BrownoutLevel::Normal {
            out.brownout_engaged = true;
        }
    }
    // Drain: grant everything still queued.
    let drain = SimTime::ZERO + horizon + SimDuration::from_secs(30);
    for ctrl in placement.controls.iter_mut() {
        ctrl.pump(drain, &mut started);
        absorb(&mut out, &mut samples, &mut started);
        out.total_shed += Stats::of(|s| ctrl.fold(s)).get("total_shed").unwrap_or(0);
        if ctrl.brownout_level() > canal_gateway::BrownoutLevel::Normal {
            out.brownout_engaged = true;
        }
    }
    for (t, s) in samples.iter().enumerate() {
        out.tenants[t].p99_ms = stats::percentile(&s.all, 0.99);
        out.tenants[t].interactive_p99_ms = stats::percentile(&s.interactive, 0.99);
        out.tenants[t].bulk_p99_ms = stats::percentile(&s.bulk, 0.99);
    }
    out
}

/// Run the surge scenario for every placement under identical arrival
/// streams. Fully deterministic in `seed`.
pub fn run_surge(seed: u64, params: &SurgeParams) -> SurgeOutcome {
    let calm = arrivals(seed, params, false);
    let surging = arrivals(seed, params, true);
    let horizon = params.horizon();
    let mut out = Vec::new();
    // Fresh controls per pass: the surge pass never inherits queue state.
    for (mut base, mut surged) in placements().into_iter().zip(placements()) {
        let baseline = run_pass(&mut base, &calm, horizon);
        let surge = run_pass(&mut surged, &surging, horizon);
        out.push(PlacementOutcome {
            name: base.name,
            baseline,
            surge,
        });
    }
    SurgeOutcome { placements: out }
}

/// The gateway overload-control surge.
impl Scenario for SurgeOutcome {
    const ID: &'static str = "overload";
    const INVARIANT: &'static str =
        "tenant isolation: well-behaved tenants hold their no-surge P99 while the surging tenant degrades gracefully";
    const OK_KEY: &'static str = "isolation_ok";
    type Params = SurgeParams;

    fn params(fast: bool) -> SurgeParams {
        if fast { SurgeParams::fast() } else { SurgeParams::full() }
    }

    fn run(seed: u64, params: &SurgeParams) -> Self {
        run_surge(seed, params)
    }

    fn outcome_digest(&self) -> u64 {
        self.digest()
    }

    fn failures(&self) -> Vec<String> {
        violated("tenant-isolation", &self.claims())
    }

    fn json(&self) -> Vec<(&'static str, Json)> {
        let section = |c: &PlacementOutcome| {
            fields!(c =>
                victim_p99_ratio: format_args!("{:.4}", c.victim_p99_ratio()),
                victim_goodput_ratio: format_args!("{:.4}", c.victim_goodput_ratio()),
                surger_goodput_ratio: format_args!("{:.4}", c.surger().goodput_ratio()),
                surger_shed: c.surger().shed,
                total_shed: c.surge.total_shed,
                brownout_engaged: c.surge.brownout_engaged,
                overload_alerts: c.surge.overload_alerts,
            )
        };
        self.placement("canal").map(|c| ("canal", section(c))).into_iter().collect()
    }

    fn report(&self, _seed: u64, _params: &SurgeParams) -> ExperimentReport {
        report(self)
    }
}

fn report(outcome: &SurgeOutcome) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "overload",
        "gateway overload control: per-tenant fairness under a 20x single-tenant surge",
    );

    let mut summary = Table::new(
        "per-tenant outcome during the surge pass",
        &[
            "placement",
            "tenant",
            "offered",
            "goodput",
            "shed",
            "p99 ms",
            "baseline p99 ms",
        ],
    );
    for p in &outcome.placements {
        for (i, t) in p.surge.tenants.iter().enumerate() {
            let label = if i as u32 + 1 == SURGER {
                format!("{} (surging)", i as u32 + 1)
            } else {
                (i as u32 + 1).to_string()
            };
            summary.row(&[
                p.name.to_string(),
                label,
                t.offered.to_string(),
                pct(t.goodput_ratio()),
                t.shed.to_string(),
                num(t.p99_ms),
                num(p.baseline.tenants[i].p99_ms),
            ]);
        }
    }
    report.tables.push(summary);

    let mut isolation = Table::new(
        "isolation vs work conservation",
        &[
            "placement",
            "victim p99 inflation",
            "victim goodput",
            "surger goodput",
            "shed total",
            "brownout",
            "overload alerts",
        ],
    );
    for p in &outcome.placements {
        isolation.row(&[
            p.name.to_string(),
            num(p.victim_p99_ratio()),
            pct(p.victim_goodput_ratio()),
            pct(p.surger().goodput_ratio()),
            p.surge.total_shed.to_string(),
            p.surge.brownout_engaged.to_string(),
            p.surge.overload_alerts.to_string(),
        ]);
    }
    report.tables.push(isolation);

    report.checks.extend(checks(outcome.claims()));
    report
}
