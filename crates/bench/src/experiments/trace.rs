//! Mesh-wide tracing experiment: cost-charged sampling, trace assembly and
//! span-evidence RCA over a scripted fault timeline.
//!
//! All three architectures run the *same* Poisson arrival stream against the
//! *same* fault plan (a fig8-style hierarchy: replica crash, backend crash,
//! AZ power loss, key-server brownout, inter-AZ link degradation). Every
//! request produces a nested span chain at its architecture's hop sites;
//! every recorded span charges CPU and bytes into a [`TelemetryMeter`] at
//! that site's L4/L7 price, which is how the §4.1.1 telemetry-overhead
//! comparison becomes measurable: a sidecar pays two L7 records per request
//! while Canal (and ambient) pay mostly L4 node-proxy records plus one L7
//! gateway record.
//!
//! Sampling is two-staged. A salted [`HeadSampler`] exports ~2% of traces
//! unconditionally; a [`TailPolicy`] retains every error trace and the
//! slowest percentile, retrieving their spans from bounded per-site
//! [`SpanRing`]s with a small decision lag (the rings overwrite long before
//! they would matter — eviction counts are reported). The invariants
//! `experiments trace` gates on: ≥99% of error and global-P999 traces
//! retained at a ≤2% head rate, telemetry cost within per-architecture
//! budget with canal strictly below sidecar, and the span-evidence RCA
//! localizing faults at least as accurately as trend correlation with
//! strictly fewer windows to detection.
//!
//! Everything is seeded: double runs with equal seeds produce bit-identical
//! [`TraceOutcome::digest`] values.

use crate::experiments::southbound::script;
use crate::harness::{poisson_arrivals, ExperimentReport};
use crate::scenario::{checks, fields, violated, Claim, Json, Scenario};
use canal_control::rca::{HopWindowStats, SpanEvidenceRca, SpanRcaVerdict, TrendHopRca};
use canal_mesh::costs::CostModel;
use canal_sim::faults::{BackendSpec, FaultPlan, FaultState, FaultTarget, FaultTopology};
use canal_sim::output::{num, pct, Table};
use canal_sim::{stats, Digest, Fold, Histogram, SimDuration, SimRng, SimTime, Stats};
use canal_telemetry::{
    Collector, HeadSampler, HopSite, SegmentKind, Span, SpanRing, TailPolicy, TelemetryCostModel,
    TelemetryMeter,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Head-sampling rate (the ≤2% budget the invariant enforces).
const HEAD_RATE: f64 = 0.02;
/// Tail policy keeps traces at or above this running latency quantile.
const SLOW_QUANTILE: f64 = 0.99;
/// Tail policy keeps everything until this many traces have completed.
const TAIL_WARMUP: u64 = 100;
/// Per-site span ring capacity (bounded buffering between record & tail).
const RING_CAP: usize = 1024;
/// Tail decisions run this many completions behind recording, so retrieval
/// actually exercises the ring buffering rather than an immediate handoff.
const TAIL_LAG: usize = 64;
/// Fraction of arrivals that are new connections (pay a handshake).
const NEW_CONN_FRACTION: f64 = 0.10;
/// Client AZ; backends 2..4 live in AZ 1 across the degraded link.
const CLIENT_AZ: u32 = 0;
/// Calm baseline window for RCA: everything before the first fault.
const CALM_END_S: f64 = 10.0;
/// RCA windows per episode (one pre-onset, three post-onset).
const RCA_WINDOWS: usize = 4;
/// Service fan-out: backends 0/1 in AZ 0, backends 2/3 in AZ 1.
const BACKENDS: u32 = 4;
/// Replicas per backend.
const REPLICAS: usize = 2;

/// Trace run parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceParams {
    /// Time compression applied to the scripted fault timeline.
    pub(crate) time_scale: f64,
    /// Offered load (requests/s).
    pub(crate) rps: f64,
}

impl TraceParams {
    /// The full run: the 120 s timeline at 200 rps.
    pub(crate) fn full() -> Self {
        TraceParams {
            time_scale: 1.0,
            rps: 200.0,
        }
    }

    /// CI smoke mode: the same scenario compressed 4× at lower load.
    pub(crate) fn fast() -> Self {
        TraceParams {
            time_scale: 0.25,
            rps: 80.0,
        }
    }

    /// Scenario horizon (scaled).
    pub(crate) fn horizon(&self) -> SimDuration {
        SimDuration::from_secs(120).scale(self.time_scale)
    }
}

/// One precomputed client arrival — identical across architectures, so the
/// only thing that differs per arch is its hop chain and telemetry pricing.
#[derive(Debug, Clone, Copy)]
struct TraceArrival {
    at: SimTime,
    new_conn: bool,
    backend: u32,
    replica: usize,
    /// Client-side queue jitter (µs).
    q0_us: f64,
    /// Mid-chain (waypoint/gateway) queue jitter (µs).
    q1_us: f64,
    /// Roll deciding whether a crash-rerouted request also errors.
    err_roll: f64,
    /// Severity roll spreading fault penalties across histogram buckets.
    sev: f64,
    /// Per-transmission loss rolls on the degraded link.
    loss_rolls: [f64; 3],
}

fn gen_arrivals(seed: u64, params: &TraceParams) -> Vec<TraceArrival> {
    let mut rng = SimRng::seed(seed ^ 0x7261_7263_655F_A001);
    poisson_arrivals(&mut rng, params.rps, params.horizon().as_secs_f64(), |rng, at| TraceArrival {
        at,
        new_conn: rng.chance(NEW_CONN_FRACTION),
        backend: rng.index(BACKENDS as usize) as u32,
        replica: rng.index(REPLICAS),
        q0_us: rng.exponential(20.0),
        q1_us: rng.exponential(20.0),
        err_roll: rng.f64(),
        sev: rng.f64(),
        loss_rolls: [rng.f64(), rng.f64(), rng.f64()],
    })
}

fn topology() -> FaultTopology {
    FaultTopology {
        backends: (0..BACKENDS)
            .map(|b| BackendSpec {
                id: b,
                az: b / 2,
                replicas: REPLICAS,
            })
            .collect(),
    }
}

/// The scripted fault timeline: non-overlapping fig8-style episodes so the
/// RCA windows around each onset stay clean. Times are nominal seconds on
/// the 120 s timeline.
const BEATS: [(f64, &str); 10] = [
    (10.0, "fail replica 0/0"), // replica VM crash
    (18.0, "recover replica 0/0"),
    (30.0, "fail backend 1"), // whole backend down
    (44.0, "recover backend 1"),
    (50.0, "fail az 1"), // AZ power loss
    (58.0, "recover az 1"),
    (66.0, "degrade key-server extra 15ms"),
    (78.0, "recover key-server"),
    (88.0, "degrade link 0-1 loss 10% extra 2ms"),
    (100.0, "recover link 0-1"),
];

/// Ground-truth fault effects on one arrival, shared across architectures
/// (the key-server extra only binds for canal, which offloads handshakes).
#[derive(Debug, Clone, Copy)]
struct Effects {
    /// Datapath reroute penalty when the chosen placement is crashed.
    app_penalty: SimDuration,
    /// Server-side network inflation (link degradation + retransmits).
    link_extra: SimDuration,
    /// Key-server handshake inflation (canal handshakes only).
    ks_extra: SimDuration,
    /// Whether the request surfaces as an error trace.
    error: bool,
}

fn effects(truth: &FaultState, a: &TraceArrival) -> Effects {
    let az = a.backend / 2;
    let mut app_penalty = SimDuration::ZERO;
    let mut error = false;
    // A crash on the chosen placement forces a datapath reroute: one retry
    // round of penalty, severity-spread so the retained tail never collapses
    // into a single histogram bucket; a slice of reroutes still errors.
    if !truth.replica_up(a.backend, a.replica) {
        app_penalty = SimDuration::from_millis_f64(4.0 + 8.0 * a.sev);
        error = a.err_roll < 0.15;
    }
    let mut link_extra = SimDuration::ZERO;
    if az != CLIENT_AZ {
        let link = FaultTarget::Link { a: CLIENT_AZ, b: az };
        let base = truth.extra(link);
        if base > SimDuration::ZERO {
            link_extra = base.scale(1.0 + a.sev);
        }
        let loss = truth.loss(link);
        if loss > 0.0 {
            let lost = a.loss_rolls.iter().filter(|&&r| r < loss).count();
            link_extra += SimDuration::from_millis(2).times(lost as u64);
            if lost == a.loss_rolls.len() {
                error = true; // every transmission eaten: surfaced failure
            }
        }
    }
    let ks_extra = if a.new_conn {
        truth.extra(FaultTarget::KeyServer).scale(0.6 + 1.2 * a.sev)
    } else {
        SimDuration::ZERO
    };
    Effects {
        app_penalty,
        link_extra,
        ks_extra,
        error,
    }
}

/// Build one request's nested span chain for `arch`: each hop's segments are
/// its *exclusive* time, children sit strictly inside their parents, and the
/// root duration is the end-to-end latency.
fn chain_spans(
    arch: &'static str,
    costs: &CostModel,
    a: &TraceArrival,
    fx: &Effects,
    trace_id: u64,
) -> Vec<Span> {
    use HopSite::*;
    use SegmentKind::*;
    let q0 = SimDuration::from_micros_f64(a.q0_us);
    let q1 = SimDuration::from_micros_f64(a.q1_us);
    let hop = costs.hop_one_way;
    // Baselines do local software asymmetric crypto; canal offloads to the
    // key server (a fast local RTT — which is exactly what the scripted
    // key-server brownout inflates).
    let local_hs = if a.new_conn {
        SimDuration::from_millis(2)
    } else {
        SimDuration::ZERO
    };
    let canal_hs = if a.new_conn {
        SimDuration::from_micros(100) + fx.ks_extra
    } else {
        SimDuration::ZERO
    };
    let app = costs.app_service + fx.app_penalty;
    let hops: Vec<(HopSite, Vec<(SegmentKind, SimDuration)>)> = match arch {
        "istio-sidecar" => vec![
            (
                ClientSidecar,
                vec![
                    (Queue, q0),
                    (Crypto, local_hs),
                    (L7Parse, costs.sidecar_cpu_request),
                    (Network, hop),
                ],
            ),
            (
                ServerSidecar,
                vec![
                    (L7Parse, costs.sidecar_cpu_response),
                    (L4Forward, costs.iptables_redirect()),
                    (Network, fx.link_extra),
                ],
            ),
            (App, vec![(Backend, app)]),
        ],
        "ambient" => vec![
            (
                ClientZtunnel,
                vec![
                    (Queue, q0),
                    (Crypto, local_hs),
                    (L4Forward, costs.ztunnel_cpu_per_pass + costs.ebpf_redirect),
                    (Network, hop),
                ],
            ),
            (
                Waypoint,
                vec![
                    (Queue, q1),
                    (
                        L7Parse,
                        costs.waypoint_cpu_request
                            + costs.waypoint_cpu_response
                            + costs.waypoint_pass_overhead,
                    ),
                    (Network, hop),
                ],
            ),
            (
                ServerZtunnel,
                vec![
                    (L4Forward, costs.ztunnel_cpu_per_pass),
                    (Network, fx.link_extra),
                ],
            ),
            (App, vec![(Backend, app)]),
        ],
        _ => vec![
            (
                ClientNodeProxy,
                vec![
                    (Queue, q0),
                    (Crypto, canal_hs),
                    (
                        L4Forward,
                        costs.node_proxy_cpu_per_pass + costs.ebpf_redirect,
                    ),
                    (Network, hop),
                ],
            ),
            (
                Gateway,
                vec![
                    (Queue, q1),
                    (
                        L7Parse,
                        costs.gateway_cpu_request
                            + costs.gateway_cpu_response
                            + costs.gateway_pass_overhead,
                    ),
                    (Network, hop),
                ],
            ),
            (
                ServerNodeProxy,
                vec![
                    (L4Forward, costs.node_proxy_cpu_per_pass),
                    (Network, fx.link_extra),
                ],
            ),
            (App, vec![(Backend, app)]),
        ],
    };

    // Nest the chain: span k's exclusive time runs before its child opens,
    // children close on their parent's end, and the root spans end to end.
    let ex: Vec<SimDuration> = hops
        .iter()
        .map(|(_, segs)| {
            segs.iter()
                .map(|&(_, d)| d)
                .fold(SimDuration::ZERO, |acc, d| acc + d)
        })
        .collect();
    let mut dur = ex.clone();
    for i in (0..dur.len().saturating_sub(1)).rev() {
        dur[i] = ex[i] + dur[i + 1];
    }
    let mut spans = Vec::with_capacity(hops.len());
    let mut start = a.at;
    for (i, (site, segments)) in hops.into_iter().enumerate() {
        spans.push(Span {
            trace_id,
            span_id: i as u32,
            parent: if i == 0 { None } else { Some(i as u32 - 1) },
            site,
            start,
            end: start + dur[i],
            error: site == App && fx.error,
            segments,
        });
        start += ex[i];
    }
    spans
}

/// One architecture's tracing outcome.
#[derive(Debug, Clone)]
pub(crate) struct TraceArchOutcome {
    /// Architecture name.
    pub(crate) name: &'static str,
    /// Requests offered (== traces produced).
    pub(crate) offered: u64,
    /// Error traces in ground truth.
    pub(crate) errors: u64,
    /// Error traces the sampling pipeline retained.
    pub(crate) error_retained: u64,
    /// Traces at or above the global P999 latency (ground truth).
    pub(crate) p999_traces: u64,
    /// Of those, how many the pipeline retained.
    pub(crate) p999_retained: u64,
    /// Achieved head-sampling rate.
    pub(crate) head_rate: f64,
    /// Distinct traces exported to the collector.
    pub(crate) retained_traces: u64,
    /// Spans recorded into site rings (always-on, pre-sampling).
    pub(crate) spans_recorded: u64,
    /// Spans overwritten in rings before any retrieval wanted them.
    pub(crate) spans_evicted: u64,
    /// Spans exported to the collector (head + tail retrievals).
    pub(crate) spans_exported: u64,
    /// Telemetry CPU per request (µs) — record + export charges.
    pub(crate) telemetry_cpu_us_per_req: f64,
    /// Telemetry export bytes per request.
    pub(crate) telemetry_bytes_per_req: f64,
    /// End-to-end P999 latency (ms).
    pub(crate) p999_ms: f64,
    /// Whether the P999 histogram cell's exemplar links to a retained trace.
    pub(crate) exemplar_retained: bool,
    /// Mean per-request latency decomposition (µs) by segment kind.
    pub(crate) decomposition: Vec<(SegmentKind, f64)>,
}

impl TraceArchOutcome {
    /// Fraction of error traces retained (1 if there were none).
    pub(crate) fn error_retention(&self) -> f64 {
        if self.errors == 0 {
            return 1.0;
        }
        self.error_retained as f64 / self.errors as f64
    }

    /// Fraction of global-P999 traces retained (1 if there were none).
    pub(crate) fn p999_retention(&self) -> f64 {
        if self.p999_traces == 0 {
            return 1.0;
        }
        self.p999_retained as f64 / self.p999_traces as f64
    }

    fn fold(&self, f: &mut impl Fold) {
        let Self {
            name, offered, errors, error_retained, p999_traces, p999_retained, head_rate,
            retained_traces, spans_recorded, spans_evicted, spans_exported,
            telemetry_cpu_us_per_req, telemetry_bytes_per_req, p999_ms, exemplar_retained,
            decomposition,
        } = self;
        f.write_str(name)
            .write_u64(*offered)
            .write_u64(*errors)
            .write_u64(*error_retained)
            .write_u64(*p999_traces)
            .write_u64(*p999_retained)
            .write_f64(*head_rate)
            .write_u64(*retained_traces)
            .write_u64(*spans_recorded)
            .write_u64(*spans_evicted)
            .write_u64(*spans_exported)
            .write_f64(*telemetry_cpu_us_per_req)
            .write_f64(*telemetry_bytes_per_req)
            .write_f64(*p999_ms)
            .write_u64(*exemplar_retained as u64);
        for &(k, us) in decomposition {
            f.write_str(k.name()).write_f64(us);
        }
    }
}

/// One fault episode's RCA head-to-head result (canal evidence).
#[derive(Debug, Clone)]
pub(crate) struct EpisodeRca {
    /// Episode label.
    pub(crate) label: &'static str,
    /// The hop the injected fault actually inflated.
    pub(crate) truth: HopSite,
    /// Hop the span-evidence localizer named (None = inconclusive).
    pub(crate) span_hop: Option<HopSite>,
    /// Whether the span-evidence localizer named the truth hop.
    pub(crate) span_correct: bool,
    /// Windows the span-evidence localizer consumed (miss ⇒ penalty).
    pub(crate) span_windows: usize,
    /// Hop the trend correlator named (None = inconclusive).
    pub(crate) trend_hop: Option<HopSite>,
    /// Whether the trend correlator named the truth hop.
    pub(crate) trend_correct: bool,
    /// Windows the trend correlator consumed (miss ⇒ penalty).
    pub(crate) trend_windows: usize,
}

/// The whole experiment's outcome.
#[derive(Debug, Clone)]
pub(crate) struct TraceOutcome {
    /// Per-architecture results, in sidecar/ambient/canal order.
    pub(crate) archs: Vec<TraceArchOutcome>,
    /// Per-episode RCA comparison on the canal trace evidence.
    pub(crate) episodes: Vec<EpisodeRca>,
    /// Fault-plan events executed (identical across architectures).
    pub(crate) plan_events: usize,
}

impl TraceOutcome {
    /// Fold the complete outcome into one value: equal seeds must produce
    /// equal digests, bit for bit.
    pub(crate) fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_u64(self.plan_events as u64);
        for a in &self.archs {
            a.fold(&mut d);
        }
        for e in &self.episodes {
            d.write_str(e.label)
                .write_str(e.truth.name())
                .write_str(e.span_hop.map(|h| h.name()).unwrap_or("-"))
                .write_u64(e.span_correct as u64)
                .write_u64(e.span_windows as u64)
                .write_str(e.trend_hop.map(|h| h.name()).unwrap_or("-"))
                .write_u64(e.trend_correct as u64)
                .write_u64(e.trend_windows as u64);
        }
        d.value()
    }

    /// The outcome for one architecture, by name.
    pub(crate) fn arch(&self, name: &str) -> Option<&TraceArchOutcome> {
        self.archs.iter().find(|a| a.name == name)
    }

    /// Episodes the span-evidence localizer got right.
    pub(crate) fn span_correct(&self) -> usize {
        self.episodes.iter().filter(|e| e.span_correct).count()
    }

    /// Episodes the trend correlator got right.
    pub(crate) fn trend_correct(&self) -> usize {
        self.episodes.iter().filter(|e| e.trend_correct).count()
    }

    /// Total windows-to-detection for the span-evidence localizer.
    pub(crate) fn span_windows_total(&self) -> usize {
        self.episodes.iter().map(|e| e.span_windows).sum()
    }

    /// Total windows-to-detection for the trend correlator.
    pub(crate) fn trend_windows_total(&self) -> usize {
        self.episodes.iter().map(|e| e.trend_windows).sum()
    }

    /// The trace report's checks, each with the clauses it rests on.
    fn claims(&self) -> Vec<Claim> {
        let arms = (self.arch("canal"), self.arch("ambient"), self.arch("istio-sidecar"));
        let (Some(canal), Some(ambient), Some(sidecar)) = arms else {
            return vec![Claim::unreported(&[("all three arms ran", false)])];
        };
        let worst = |rate: fn(&TraceArchOutcome) -> f64| self.archs.iter().map(rate).fold(f64::INFINITY, f64::min);
        let (cpu, sidecar_cpu) = (canal.telemetry_cpu_us_per_req, sidecar.telemetry_cpu_us_per_req);
        let (span, trend) = (self.span_correct(), self.trend_correct());
        let (span_windows, trend_windows) = (self.span_windows_total(), self.trend_windows_total());
        let (episodes, beats) = (self.episodes.len(), BEATS.len());
        let mut claims = vec![
            Claim::band(
                "tail sampling keeps error traces (worst arch)",
                ">=99% of error traces retained",
                worst(TraceArchOutcome::error_retention) * 100.0,
                99.0,
                100.0,
            ),
            Claim::band(
                "tail sampling keeps P999 traces (worst arch)",
                ">=99% of global-P999 traces retained",
                worst(TraceArchOutcome::p999_retention) * 100.0,
                99.0,
                100.0,
            ),
            Claim::band("head sampling rate (canal)", "~2% configured, <=2.5% achieved", canal.head_rate * 100.0, 1.5, 2.5),
            Claim::band(
                "canal telemetry cpu per request (us)",
                "mostly L4 node-proxy records + one L7 gateway record",
                cpu,
                3.5,
                6.5,
            ),
            Claim::band(
                "ambient telemetry cpu per request (us)",
                "two L4 ztunnel records + one L7 waypoint record",
                ambient.telemetry_cpu_us_per_req,
                3.5,
                6.5,
            ),
            Claim::band("sidecar telemetry cpu per request (us)", "two full L7 records per request", sidecar_cpu, 7.0, 10.0),
            Claim::new(
                "canal telemetry overhead below sidecar",
                "L4-priced node spans beat per-pod L7 spans (sec 4.1.1)",
                &format!("canal {} vs sidecar {} us/req", num(cpu), num(sidecar_cpu)),
                &[(
                    format!("canal telemetry cpu {}us/req is below sidecar's {}us/req", num(cpu), num(sidecar_cpu)),
                    cpu < sidecar_cpu,
                )],
            ),
            Claim::new(
                "span-evidence RCA localizes every episode",
                "3 episodes, 3 distinct truth hops",
                &format!("{span}/{episodes}"),
                &[(format!("span RCA localizes every episode ({span}/{episodes})"), span == episodes)],
            ),
            Claim::new(
                "span RCA beats trend RCA on windows to detection",
                "standing baseline vs >=3-window correlation",
                &format!("span {span_windows} vs trend {trend_windows} windows (correct {span} vs {trend})"),
                &[
                    (format!("span RCA is right at least as often as trend's ({span} vs {trend})"), span >= trend),
                    (
                        format!("span RCA needs fewer windows than trend's ({span_windows} vs {trend_windows})"),
                        span_windows < trend_windows,
                    ),
                ],
            ),
            // A beat the fault DSL rejects empties the plan: nothing to trace.
            Claim::new(
                "fault plan parsed and executed fully",
                "10 scripted events",
                &self.plan_events.to_string(),
                &[(format!("the plan has {} events for {beats} beats", self.plan_events), self.plan_events == beats)],
            ),
        ];
        let mut clauses = Vec::new();
        for a in &self.archs {
            let (errors, p999) = (a.error_retention(), a.p999_retention());
            clauses.extend([
                (format!("{}: error retention {} reaches 99%", a.name, pct(errors)), errors >= 0.99),
                (format!("{}: P999 retention {} reaches 99%", a.name, pct(p999)), p999 >= 0.99),
                (format!("{}: head rate {} stays in the 2% budget", a.name, pct(a.head_rate)), a.head_rate <= 0.025),
                (format!("{}: the P999 exemplar trace is retained", a.name), a.exemplar_retained),
            ]);
        }
        clauses.extend([
            (format!("the fault plan produces error traces ({} under canal)", canal.errors), canal.errors > 0),
            (format!("canal span rings evict ({} spans)", canal.spans_evicted), canal.spans_evicted > 0),
            (format!("the RCA scores three episodes ({episodes})"), episodes == 3),
        ]);
        claims.push(Claim::unreported(&clauses));
        claims
    }
}

fn tail_decide(
    done: (u64, SimDuration, bool),
    tail: &mut TailPolicy,
    rings: &BTreeMap<HopSite, SpanRing>,
    collector: &mut Collector,
    retained: &mut BTreeSet<u64>,
    meter: &mut TelemetryMeter,
    tcost: &TelemetryCostModel,
) {
    let (trace_id, total, error) = done;
    let keep = tail.keep(total, error);
    if !keep || retained.contains(&trace_id) {
        return;
    }
    let mut spans: Vec<Span> = rings.values().flat_map(|r| r.retrieve(trace_id)).collect();
    if spans.is_empty() {
        return; // already evicted — counted against retention
    }
    spans.sort_by_key(|s| s.span_id);
    for s in &spans {
        meter.charge_export(s.site.is_l7(), tcost);
    }
    collector.ingest_all(spans);
    retained.insert(trace_id);
}

/// Run the full tracing pipeline for one architecture. Returns the outcome
/// plus the collector (the canal collector feeds the RCA head-to-head).
fn run_arch_trace(
    seed: u64,
    arch: &'static str,
    arrivals: &[TraceArrival],
    plan: &FaultPlan,
    topo: &FaultTopology,
) -> (TraceArchOutcome, Collector) {
    let costs = CostModel::default();
    let tcost = TelemetryCostModel::default();
    let mut meter = TelemetryMeter::new();
    // Same salt for every architecture: identical head decisions, so the
    // cost comparison isolates per-hop pricing, not sampling luck.
    let mut head_rng = SimRng::seed(seed ^ 0x7E1E_5A17_0000_0001);
    let mut sampler = HeadSampler::new(HEAD_RATE, &mut head_rng);
    let mut tail = TailPolicy::new(SLOW_QUANTILE, TAIL_WARMUP);
    let mut rings: BTreeMap<HopSite, SpanRing> = BTreeMap::new();
    let mut collector = Collector::new();
    let mut retained: BTreeSet<u64> = BTreeSet::new();
    let mut truth = FaultState::new(topo);
    let mut pending_faults = plan.events();
    let mut hist = Histogram::new();
    let mut totals: Vec<(u64, f64, bool)> = Vec::with_capacity(arrivals.len());
    let mut seg_sum: BTreeMap<SegmentKind, f64> = BTreeMap::new();
    let mut pending: VecDeque<(u64, SimDuration, bool)> = VecDeque::new();
    let mut errors = 0u64;

    for (i, a) in arrivals.iter().enumerate() {
        let trace_id = i as u64 + 1;
        truth.apply_due(&mut pending_faults, a.at);
        let fx = effects(&truth, a);
        let spans = chain_spans(arch, &costs, a, &fx, trace_id);
        let total = spans[0].end.since(spans[0].start);
        // Always-on recording: every span charges its site's L4/L7 record
        // price and lands in that site's bounded ring — this is what makes
        // the tail stage possible at all.
        for s in &spans {
            meter.charge_record(s.site.is_l7(), &tcost);
            for &(k, d) in &s.segments {
                *seg_sum.entry(k).or_insert(0.0) += d.as_micros_f64();
            }
            rings
                .entry(s.site)
                .or_insert_with(|| SpanRing::new(RING_CAP))
                .record(s.clone());
        }
        let ms = total.as_millis_f64();
        hist.record_with_exemplar(ms, Some(trace_id));
        if fx.error {
            errors += 1;
        }
        // Head sampling exports immediately (the spans are in hand).
        if sampler.decide(trace_id) {
            for s in &spans {
                meter.charge_export(s.site.is_l7(), &tcost);
            }
            collector.ingest_all(spans);
            retained.insert(trace_id);
        }
        totals.push((trace_id, ms, fx.error));
        pending.push_back((trace_id, total, fx.error));
        while pending.len() > TAIL_LAG {
            if let Some(done) = pending.pop_front() {
                tail_decide(
                    done,
                    &mut tail,
                    &rings,
                    &mut collector,
                    &mut retained,
                    &mut meter,
                    &tcost,
                );
            }
        }
    }
    while let Some(done) = pending.pop_front() {
        tail_decide(
            done,
            &mut tail,
            &rings,
            &mut collector,
            &mut retained,
            &mut meter,
            &tcost,
        );
    }

    let offered = arrivals.len() as u64;
    let all_ms: Vec<f64> = totals.iter().map(|t| t.1).collect();
    let p999_cut = stats::percentile(&all_ms, 0.999);
    let p999_ids: Vec<u64> = totals
        .iter()
        .filter(|t| t.1 >= p999_cut)
        .map(|t| t.0)
        .collect();
    let p999_retained = p999_ids.iter().filter(|id| retained.contains(id)).count() as u64;
    let error_retained = totals
        .iter()
        .filter(|t| t.2 && retained.contains(&t.0))
        .count() as u64;
    let exemplar_retained = hist
        .exemplar_at(0.999)
        .map(|e| retained.contains(&e.trace_id))
        .unwrap_or(false);
    let per_req = |v: f64| if offered == 0 { 0.0 } else { v / offered as f64 };
    let decomposition = SegmentKind::ALL
        .iter()
        .map(|&k| (k, per_req(seg_sum.get(&k).copied().unwrap_or(0.0))))
        .collect();
    let ring_stats = Stats::of(|s| rings.values().for_each(|r| r.fold(s)));
    let outcome = TraceArchOutcome {
        name: arch,
        offered,
        errors,
        error_retained,
        p999_traces: p999_ids.len() as u64,
        p999_retained,
        head_rate: sampler.achieved_rate(),
        retained_traces: retained.len() as u64,
        spans_recorded: meter.spans_recorded(),
        spans_evicted: ring_stats.get("evicted").unwrap_or(0),
        spans_exported: meter.spans_exported(),
        telemetry_cpu_us_per_req: per_req(meter.cpu().as_micros_f64()),
        telemetry_bytes_per_req: per_req(meter.bytes() as f64),
        p999_ms: stats::percentile(&all_ms, 0.999),
        exemplar_retained,
        decomposition,
    };
    (outcome, collector)
}

/// Per-retained-trace RCA evidence extracted from the assembled collector.
struct TraceEvidence {
    at_s: f64,
    total_ms: f64,
    hops: Vec<(HopSite, f64)>,
}

fn evidence(collector: &Collector) -> Vec<TraceEvidence> {
    collector
        .assemble_all()
        .iter()
        .map(|tr| {
            let at_s = tr.root().map(|r| r.start.as_secs_f64()).unwrap_or(0.0);
            let hops = tr
                .spans
                .iter()
                .map(|s| (s.site, tr.exclusive(s.span_id).as_millis_f64()))
                .collect();
            TraceEvidence {
                at_s,
                total_ms: tr.total().as_millis_f64(),
                hops,
            }
        })
        .collect()
}

fn hop_means(traces: &[&TraceEvidence]) -> BTreeMap<HopSite, f64> {
    let mut sum: BTreeMap<HopSite, (f64, u64)> = BTreeMap::new();
    for t in traces {
        for &(h, ms) in &t.hops {
            let e = sum.entry(h).or_insert((0.0, 0));
            e.0 += ms;
            e.1 += 1;
        }
    }
    sum.into_iter()
        .map(|(h, (s, c))| (h, s / (c.max(1)) as f64))
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn episode_rca(
    ev: &[TraceEvidence],
    baseline: &BTreeMap<HopSite, f64>,
    baseline_total: f64,
    label: &'static str,
    truth: HopSite,
    onset_s: f64,
    recover_s: f64,
) -> EpisodeRca {
    // One pre-onset window, then the episode split across the rest — the
    // pre-onset window gives the trend correlator its contrast (and lets a
    // false-positive span verdict show up as an early wrong window).
    let win = (recover_s - onset_s) / (RCA_WINDOWS as f64 - 1.0);
    let start = onset_s - win;
    let mut windows = Vec::with_capacity(RCA_WINDOWS);
    let mut totals = Vec::with_capacity(RCA_WINDOWS);
    for w in 0..RCA_WINDOWS {
        let lo = start + w as f64 * win;
        let hi = lo + win;
        let in_w: Vec<&TraceEvidence> =
            ev.iter().filter(|t| t.at_s >= lo && t.at_s < hi).collect();
        // A window with no retained evidence for a hop reads as calm:
        // absence of spans is absence of inflation, not a zero latency.
        let mut means = hop_means(&in_w);
        for (&h, &b) in baseline {
            means.entry(h).or_insert(b);
        }
        totals.push(if in_w.is_empty() {
            baseline_total
        } else {
            in_w.iter().map(|t| t.total_ms).sum::<f64>() / in_w.len() as f64
        });
        windows.push(HopWindowStats { hops: means });
    }
    let score = |v: SpanRcaVerdict| match v {
        SpanRcaVerdict::Localized { hop, windows, .. } => {
            let ok = hop == truth;
            (
                Some(hop),
                ok,
                if ok { windows } else { RCA_WINDOWS + 1 },
            )
        }
        SpanRcaVerdict::Inconclusive => (None, false, RCA_WINDOWS + 1),
    };
    let (span_hop, span_correct, span_windows) =
        score(SpanEvidenceRca::default().detect(baseline, &windows));
    let (trend_hop, trend_correct, trend_windows) =
        score(TrendHopRca::default().detect(&windows, &totals));
    EpisodeRca {
        label,
        truth,
        span_hop,
        span_correct,
        span_windows,
        trend_hop,
        trend_correct,
        trend_windows,
    }
}

/// Run the tracing scenario for every architecture under identical fault
/// plans and arrival streams. Fully deterministic in `seed`.
pub(crate) fn run_trace(seed: u64, params: &TraceParams) -> TraceOutcome {
    let scale = params.time_scale;
    let arrivals = gen_arrivals(seed, params);
    let plan = script(scale, &BEATS);
    let topo = topology();
    let mut archs = Vec::new();
    let mut canal_collector = Collector::new();
    for arch in ["istio-sidecar", "ambient", "canal"] {
        let (outcome, collector) = run_arch_trace(seed, arch, &arrivals, &plan, &topo);
        if arch == "canal" {
            canal_collector = collector;
        }
        archs.push(outcome);
    }

    // RCA head-to-head on the canal evidence: three episodes whose ground
    // truth inflates three *different* hops.
    let ev = evidence(&canal_collector);
    let calm: Vec<&TraceEvidence> = ev.iter().filter(|t| t.at_s < CALM_END_S * scale).collect();
    let baseline = hop_means(&calm);
    let baseline_total = if calm.is_empty() {
        0.0
    } else {
        calm.iter().map(|t| t.total_ms).sum::<f64>() / calm.len() as f64
    };
    let episodes = vec![
        episode_rca(
            &ev,
            &baseline,
            baseline_total,
            "backend crash",
            HopSite::App,
            30.0 * scale,
            44.0 * scale,
        ),
        episode_rca(
            &ev,
            &baseline,
            baseline_total,
            "key-server brownout",
            HopSite::ClientNodeProxy,
            66.0 * scale,
            78.0 * scale,
        ),
        episode_rca(
            &ev,
            &baseline,
            baseline_total,
            "link degradation",
            HopSite::ServerNodeProxy,
            88.0 * scale,
            100.0 * scale,
        ),
    ];

    TraceOutcome {
        archs,
        episodes,
        plan_events: plan.len(),
    }
}

/// Mesh-wide tracing under the fault timeline.
impl Scenario for TraceOutcome {
    const ID: &'static str = "trace";
    const INVARIANT: &'static str =
        "tracing: tail sampling keeps the error/P999 traces at a <=2% head rate, span-evidence RCA beats trend correlation";
    const OK_KEY: &'static str = "invariants_ok";
    type Params = TraceParams;

    fn params(fast: bool) -> TraceParams {
        if fast { TraceParams::fast() } else { TraceParams::full() }
    }

    fn run(seed: u64, params: &TraceParams) -> Self {
        run_trace(seed, params)
    }

    fn outcome_digest(&self) -> u64 {
        self.digest()
    }

    fn failures(&self) -> Vec<String> {
        violated("tracing", &self.claims())
    }

    fn json(&self) -> Vec<(&'static str, Json)> {
        let section = |c: &TraceArchOutcome| {
            fields!(c => offered, errors, error_retained, p999_traces, p999_retained,
                head_rate: format_args!("{:.4}", c.head_rate),
                retained_traces, spans_recorded, spans_evicted, spans_exported, exemplar_retained)
        };
        let canal = self.arch("canal").map(|c| ("canal", section(c)));
        let mut sections: Vec<_> = canal.into_iter().collect();
        sections.push(("rca", fields!(self =>
            episodes: self.episodes.len(),
            span_correct: self.span_correct(),
            trend_correct: self.trend_correct(),
            span_windows: self.span_windows_total(),
            trend_windows: self.trend_windows_total(),
        )));
        sections
    }

    fn report(&self, _seed: u64, _params: &TraceParams) -> ExperimentReport {
        report(self)
    }
}

fn report(outcome: &TraceOutcome) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "trace",
        "mesh-wide tracing: cost-charged sampling, assembly and span-evidence RCA",
    );

    let mut sampling = Table::new(
        "sampling & retention per architecture",
        &[
            "arch",
            "traces",
            "retained",
            "head rate",
            "errors",
            "err kept",
            "p999 set",
            "p999 kept",
            "exemplar kept",
        ],
    );
    for a in &outcome.archs {
        sampling.row(&[
            a.name.to_string(),
            a.offered.to_string(),
            a.retained_traces.to_string(),
            pct(a.head_rate),
            a.errors.to_string(),
            pct(a.error_retention()),
            a.p999_traces.to_string(),
            pct(a.p999_retention()),
            a.exemplar_retained.to_string(),
        ]);
    }
    report.tables.push(sampling);

    let mut cost = Table::new(
        "telemetry cost per architecture",
        &[
            "arch",
            "spans recorded",
            "spans exported",
            "ring evictions",
            "cpu us/req",
            "bytes/req",
            "p999 ms",
        ],
    );
    for a in &outcome.archs {
        cost.row(&[
            a.name.to_string(),
            a.spans_recorded.to_string(),
            a.spans_exported.to_string(),
            a.spans_evicted.to_string(),
            num(a.telemetry_cpu_us_per_req),
            num(a.telemetry_bytes_per_req),
            num(a.p999_ms),
        ]);
    }
    report.tables.push(cost);

    let mut decomp = Table::new(
        "mean per-request latency decomposition (us)",
        &["segment", "istio-sidecar", "ambient", "canal"],
    );
    for (i, &(k, _)) in outcome.archs[0].decomposition.iter().enumerate() {
        decomp.row(&[
            k.name().to_string(),
            num(outcome.archs[0].decomposition[i].1),
            num(outcome.archs[1].decomposition[i].1),
            num(outcome.archs[2].decomposition[i].1),
        ]);
    }
    report.tables.push(decomp);

    let mut rca = Table::new(
        "span-evidence vs trend-correlation RCA (canal evidence)",
        &[
            "episode",
            "truth hop",
            "span verdict",
            "span windows",
            "trend verdict",
            "trend windows",
        ],
    );
    for e in &outcome.episodes {
        rca.row(&[
            e.label.to_string(),
            e.truth.name().to_string(),
            e.span_hop.map(|h| h.name()).unwrap_or("inconclusive").to_string(),
            e.span_windows.to_string(),
            e.trend_hop.map(|h| h.name()).unwrap_or("inconclusive").to_string(),
            e.trend_windows.to_string(),
        ]);
    }
    report.tables.push(rca);

    report.checks.extend(checks(outcome.claims()));
    report
}
