//! Gateway overload control: the proactive layer in front of
//! `handle_request`.
//!
//! Canal's shared multi-tenant gateway makes overload the architecture's
//! biggest blast-radius risk: one surging tenant can starve every other
//! tenant on the same replica, and the sandbox (§6.2 / Fig. 16) only reacts
//! *after* a noisy neighbor is detected. This module is the proactive
//! defense, a pipeline of five stages:
//!
//! ```text
//! request ──▶ retry budget ──▶ bounded per-tenant queue ──▶ DRR scheduler
//!                 │                   │ (slot/byte caps)          │
//!                 ▼                   ▼                           ▼
//!           reject retries      tail-drop excess        CoDel shedder keyed
//!           when exhausted                              on queue sojourn
//!                                                             │
//!                                               brownout: drop optional L7
//!                                               work before dropping requests
//! ```
//!
//! * **Retry budget** ([`RetryBudget`]) — per-client token accrual: first
//!   attempts earn a fraction of a token, retries and hedges spend a whole
//!   one. When the budget is dry, retries are rejected *terminally*
//!   ([`GatewayError::RetryBudgetExhausted`]) — `resilience.rs` treats the
//!   rejection as a stop sign, not a retryable error, so retry storms die at
//!   the door instead of amplifying.
//! * **Fair queues** — one bounded FIFO per (tenant, [`Priority`]) class on
//!   a [`FairCpuServer`], drained by deficit-weighted round-robin. A tenant
//!   surging 20× fills only its own queue; its overflow is tail-dropped at
//!   the caps while other tenants keep their weight share of the cores.
//! * **CoDel shedder** ([`CoDel`]) — adaptive shedding keyed on queue
//!   *sojourn* time (Nichols & Jacobson): when the minimum sojourn stays
//!   above target for an interval, drop at increasing frequency until the
//!   standing queue drains. Sojourn — not queue length — is what tracks
//!   user-visible delay across service-time changes.
//! * **Brownout** ([`BrownoutController`]) — under sustained pressure the
//!   gateway first stops doing *optional* work (observability sampling,
//!   then canary evaluation), shrinking per-request CPU demand, before any
//!   request is dropped.
//!
//! Signals ([`OverloadSignals`]: queue depth, shed rate, sojourn p99) feed
//! `canal-control`'s monitor so precise scaling sees pressure before
//! saturation. A parked request lives in its class queue, as the payload of
//! its job on the [`FairCpuServer`], until the pump hands it back with its
//! grant: the pipeline keeps no table keyed by ticket. Everything runs on
//! simulated time with no internal RNG — runs are digest-deterministic.

use crate::gateway::GatewayError;
use canal_net::{GlobalServiceId, Priority};
use canal_sim::stats::percentile;
use canal_sim::{ClassConfig, ClassId, FairCpuServer, Fold, QueueReject, SimDuration, SimTime};
use canal_telemetry::{HeadSampler, TelemetryCostModel, TelemetryMeter};
use std::collections::BTreeMap;

/// The gateway's hook into the mesh tracing pipeline: a head sampler plus
/// the cost meter its decisions charge into. Attached to an
/// [`OverloadControl`] it closes the brownout loop — when the controller
/// reaches [`BrownoutLevel::NoObservability`] the sampler is shed, sampled
/// jobs stop being charged, and already-provisioned span cost is refunded.
#[derive(Debug, Clone)]
pub(crate) struct TelemetrySink {
    /// Shared head-sampling decision (consistent with the node proxies).
    pub sampler: HeadSampler,
    /// Per-span CPU/byte prices.
    pub cost: TelemetryCostModel,
    /// Accumulated telemetry spend (and refunds) at this gateway.
    pub meter: TelemetryMeter,
}

impl TelemetrySink {
    /// Fold the head `sampler`.
    fn fold(&self, f: &mut impl Fold) {
        let Self {
            sampler,
            cost: _,  // config: fixed at attachment
            meter: _, // gap: the spend and refunds are not folded
        } = self;
        f.scope("sampler", |f| sampler.fold(f));
    }
}

/// Identifier of a requesting client (the retry-budget scope: one upstream
/// caller / connection pool, not one TCP flow).
pub(crate) type ClientId = u64;

/// What kind of dispatch attempt is knocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptKind {
    /// The first attempt of a request: always budget-admissible, earns
    /// budget for the client.
    First,
    /// A retry after a failure: spends budget.
    Retry,
    /// A hedge (speculative duplicate): spends budget like a retry.
    Hedge,
}

/// Per-client retry-budget accounting (the "retry budgets" defense from the
/// Google SRE book, ch. 22): first attempts earn `ratio` tokens, retries and
/// hedges spend one. A client retrying more than `ratio` of its traffic
/// exhausts its budget and further retries are rejected.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    ratio: f64,
    cap: f64,
    tokens: BTreeMap<ClientId, f64>,
    rejections: u64,
}

impl RetryBudget {
    /// A budget earning `ratio` tokens per first attempt, holding at most
    /// `cap` tokens per client.
    pub fn new(ratio: f64, cap: f64) -> Self {
        assert!(ratio >= 0.0 && cap >= 0.0, "budget parameters must be nonnegative");
        RetryBudget {
            ratio,
            cap,
            tokens: BTreeMap::new(),
            rejections: 0,
        }
    }

    /// Admit or reject one attempt. First attempts always pass (and earn);
    /// retries and hedges pass only if the client has a whole token to spend.
    pub fn admit(&mut self, client: ClientId, kind: AttemptKind) -> bool {
        let tokens = self.tokens.entry(client).or_insert(0.0);
        match kind {
            AttemptKind::First => {
                *tokens = (*tokens + self.ratio).min(self.cap);
                true
            }
            AttemptKind::Retry | AttemptKind::Hedge => {
                if *tokens >= 1.0 {
                    *tokens -= 1.0;
                    true
                } else {
                    self.rejections += 1;
                    false
                }
            }
        }
    }
}

/// CoDel (Controlled Delay) shedding state for one queue class.
///
/// The classic control law: once the per-job sojourn has stayed at or above
/// `target` for a full `interval`, enter the dropping state and shed at
/// `interval / sqrt(count)` spacing — drop frequency rises until the
/// standing queue dissolves. Exits the moment a job's sojourn dips below
/// target.
#[derive(Debug, Clone)]
pub(crate) struct CoDel {
    target: SimDuration,
    interval: SimDuration,
    first_above: Option<SimTime>,
    dropping: bool,
    drop_next: SimTime,
    count: u32,
    sheds: u64,
}

impl CoDel {
    /// A shedder with the given sojourn target and control interval.
    pub(crate) fn new(target: SimDuration, interval: SimDuration) -> Self {
        CoDel {
            target,
            interval,
            first_above: None,
            dropping: false,
            drop_next: SimTime::ZERO,
            count: 0,
            sheds: 0,
        }
    }

    fn control_gap(&self) -> SimDuration {
        self.interval.scale(1.0 / (self.count.max(1) as f64).sqrt())
    }

    /// Observe one dequeued job's sojourn; returns `true` when the job
    /// should be shed instead of served.
    pub(crate) fn should_shed(&mut self, now: SimTime, sojourn: SimDuration) -> bool {
        if sojourn < self.target {
            // Below target: leave dropping state, restart the clock.
            self.first_above = None;
            self.dropping = false;
            return false;
        }
        if self.dropping {
            if now >= self.drop_next {
                self.count += 1;
                self.sheds += 1;
                self.drop_next = now + self.control_gap();
                return true;
            }
            return false;
        }
        match self.first_above {
            None => {
                self.first_above = Some(now + self.interval);
                false
            }
            Some(at) if now >= at => {
                // Sojourn has been above target for a whole interval:
                // start dropping. Resume near the previous drop rate if we
                // were dropping recently (the standard fast-restart).
                self.dropping = true;
                self.count = (self.count / 2).max(1);
                self.sheds += 1;
                self.drop_next = now + self.control_gap();
                true
            }
            Some(_) => false,
        }
    }
}

/// How much optional L7 work the gateway is currently skipping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum BrownoutLevel {
    /// Full service: observability sampling and canary evaluation run.
    #[default]
    Normal,
    /// Observability sampling dropped (cheap, invisible to callers).
    NoObservability,
    /// Canary evaluation dropped too — the last step before requests are.
    NoCanary,
}

/// Drives [`BrownoutLevel`] from a smoothed sojourn signal with hysteresis:
/// escalate when the EWMA crosses a stage threshold, de-escalate only when
/// it falls back below the exit threshold (so the level doesn't flap).
#[derive(Debug, Clone)]
pub(crate) struct BrownoutController {
    enter_observability: f64,
    enter_canary: f64,
    exit: f64,
    ewma_ms: f64,
    level: BrownoutLevel,
}

impl BrownoutController {
    /// Thresholds are sojourn EWMAs; `exit` must sit below both entries.
    pub(crate) fn new(enter_observability: SimDuration, enter_canary: SimDuration, exit: SimDuration) -> Self {
        assert!(exit <= enter_observability && enter_observability <= enter_canary);
        BrownoutController {
            enter_observability: enter_observability.as_millis_f64(),
            enter_canary: enter_canary.as_millis_f64(),
            exit: exit.as_millis_f64(),
            ewma_ms: 0.0,
            level: BrownoutLevel::Normal,
        }
    }

    /// Fold one sojourn observation into the EWMA and update the level.
    pub(crate) fn observe(&mut self, sojourn: SimDuration) -> BrownoutLevel {
        const ALPHA: f64 = 0.1;
        self.ewma_ms = ALPHA * sojourn.as_millis_f64() + (1.0 - ALPHA) * self.ewma_ms;
        self.level = if self.ewma_ms >= self.enter_canary {
            BrownoutLevel::NoCanary
        } else if self.ewma_ms >= self.enter_observability {
            self.level.max(BrownoutLevel::NoObservability)
        } else if self.ewma_ms <= self.exit {
            BrownoutLevel::Normal
        } else {
            self.level
        };
        self.level
    }

    /// The current level.
    pub(crate) fn level(&self) -> BrownoutLevel {
        self.level
    }
}

/// Overload-control policy. Every stage has an enable flag so baseline
/// architectures (plain FIFO, no shedding) run through the same code path.
#[derive(Debug, Clone, Copy)]
pub struct OverloadConfig {
    /// Cores of the gateway ingress stage the fair scheduler manages.
    pub ingress_cores: usize,
    /// DRR quantum (≈ one typical request's CPU demand).
    pub quantum: SimDuration,
    /// Base per-request CPU demand at the ingress stage.
    pub base_cpu: SimDuration,
    /// Whether queues are per (tenant, priority). When false, all traffic
    /// shares a single FIFO class — the ambient/sidecar baseline shape.
    pub per_tenant: bool,
    /// Per-class queue slot cap.
    pub max_slots: usize,
    /// Per-class queue byte cap.
    pub max_bytes: u64,
    /// Whether CoDel shedding runs.
    pub codel: bool,
    /// CoDel sojourn target.
    pub codel_target: SimDuration,
    /// CoDel control interval.
    pub codel_interval: SimDuration,
    /// Whether retry-budget admission runs.
    pub retry_budget: bool,
    /// Whether brownout runs.
    pub brownout: bool,
    /// Sojourn EWMA that sheds observability sampling.
    pub brownout_observability: SimDuration,
    /// Sojourn EWMA that sheds canary evaluation too.
    pub brownout_canary: SimDuration,
    /// Sojourn EWMA below which full service resumes.
    pub brownout_exit: SimDuration,
    /// Fraction of `base_cpu` spent on observability sampling.
    pub observability_cpu_frac: f64,
    /// Fraction of `base_cpu` spent on canary evaluation.
    pub canary_cpu_frac: f64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            ingress_cores: 8,
            quantum: SimDuration::from_micros(50),
            base_cpu: SimDuration::from_micros(34),
            per_tenant: true,
            max_slots: 512,
            max_bytes: 8 << 20,
            codel: true,
            codel_target: SimDuration::from_millis(2),
            codel_interval: SimDuration::from_millis(20),
            retry_budget: true,
            brownout: true,
            brownout_observability: SimDuration::from_micros(800),
            brownout_canary: SimDuration::from_millis(2),
            brownout_exit: SimDuration::from_micros(400),
            observability_cpu_frac: 0.10,
            canary_cpu_frac: 0.15,
        }
    }
}

/// A request parked in an overload queue, waiting for its CPU grant.
#[derive(Debug, Clone, Copy)]
pub struct PendingRequest {
    /// The destination service.
    pub service: GlobalServiceId,
    /// Scheduling class metadata.
    pub priority: Priority,
}

/// One queue decision the scheduler made during a pump: either the request
/// got its CPU grant (dispatch it) or CoDel shed it at dequeue.
#[derive(Debug, Clone, Copy)]
pub struct StartedRequest {
    /// Ticket returned by [`OverloadControl::offer`].
    pub ticket: u64,
    /// The parked request.
    pub pending: PendingRequest,
    /// When the scheduler granted (or shed) it.
    pub start: SimTime,
    /// When its CPU grant completes (start + granted demand).
    pub finish: SimTime,
    /// Queue sojourn time.
    pub sojourn: SimDuration,
    /// Whether CoDel shed it instead of serving.
    pub shed: bool,
}

/// Windowed overload telemetry for the control plane.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverloadSignals {
    /// Requests offered this window.
    pub offered: u64,
    /// Requests granted CPU this window.
    pub started: u64,
    /// Tail-drops at the queue caps this window.
    pub shed_caps: u64,
    /// CoDel sheds this window.
    pub shed_codel: u64,
    /// Retry-budget rejections this window.
    pub budget_rejected: u64,
    /// Instantaneous total queue depth.
    pub queue_depth: usize,
    /// Instantaneous total queued bytes.
    pub queued_bytes: u64,
    /// Shed fraction of offered load this window (caps + CoDel).
    pub shed_rate: f64,
    /// P99 queue sojourn this window.
    pub sojourn_p99: SimDuration,
    /// Current brownout level.
    pub brownout: BrownoutLevel,
}

/// Per-class weight of a [`Priority::Bulk`] class.
const TENANT_WEIGHT: u32 = 1;
/// Weight multiplier for [`Priority::Interactive`] classes.
const INTERACTIVE_BOOST: u32 = 4;
/// Retry budget earned per first attempt.
const RETRY_BUDGET_RATIO: f64 = 0.1;
/// Retry budget cap per client.
const RETRY_BUDGET_CAP: f64 = 10.0;

/// The assembled overload-control pipeline. It stands in front of a
/// `Gateway`, composed by its driver: what it grants goes on to
/// `Gateway::handle_request_avoiding`.
pub struct OverloadControl {
    cfg: OverloadConfig,
    /// Per-request CPU demand at each [`BrownoutLevel`], indexed by level.
    demands: [SimDuration; 3],
    /// Parked requests ride here, as their jobs' payloads.
    fair: FairCpuServer<PendingRequest>,
    codel: BTreeMap<ClassId, CoDel>,
    budget: RetryBudget,
    brownout: BrownoutController,
    telemetry: Option<TelemetrySink>,
    // Window counters, reset by `signals`.
    win_offered: u64,
    win_started: u64,
    win_shed_caps: u64,
    win_shed_codel: u64,
    win_budget_rejected: u64,
    win_sojourns_ms: Vec<f64>,
    // Lifetime counters.
    total_shed: u64,
}

impl OverloadControl {
    /// Build the pipeline from a policy.
    pub fn new(cfg: OverloadConfig) -> Self {
        // Brownout shrinks demand *before* anything is dropped: each level
        // skips one more optional L7 stage.
        let no_observability = 1.0 - cfg.observability_cpu_frac;
        OverloadControl {
            cfg,
            demands: [
                cfg.base_cpu.scale(1.0),
                cfg.base_cpu.scale(no_observability),
                cfg.base_cpu.scale(no_observability - cfg.canary_cpu_frac),
            ],
            fair: FairCpuServer::new(cfg.ingress_cores, cfg.quantum),
            codel: BTreeMap::new(),
            budget: RetryBudget::new(RETRY_BUDGET_RATIO, RETRY_BUDGET_CAP),
            brownout: BrownoutController::new(
                cfg.brownout_observability,
                cfg.brownout_canary,
                cfg.brownout_exit,
            ),
            telemetry: None,
            win_offered: 0,
            win_started: 0,
            win_shed_caps: 0,
            win_shed_codel: 0,
            win_budget_rejected: 0,
            win_sojourns_ms: Vec::new(),
            total_shed: 0,
        }
    }

    fn class_config(&self, priority: Priority) -> ClassConfig {
        let weight = match priority {
            Priority::Interactive => TENANT_WEIGHT * INTERACTIVE_BOOST,
            Priority::Bulk => TENANT_WEIGHT,
        };
        ClassConfig {
            weight,
            max_slots: self.cfg.max_slots,
            max_bytes: self.cfg.max_bytes,
        }
    }

    /// The scheduler class a request maps to.
    pub(crate) fn class_of(&self, service: GlobalServiceId, priority: Priority) -> ClassId {
        if self.cfg.per_tenant {
            (u64::from(service.tenant().0) << 1) | priority.bit()
        } else {
            0
        }
    }

    fn ensure_class(&mut self, service: GlobalServiceId, priority: Priority) -> ClassId {
        let class = self.class_of(service, priority);
        if !self.codel.contains_key(&class) {
            let cc = if self.cfg.per_tenant {
                self.class_config(priority)
            } else {
                ClassConfig {
                    weight: 1,
                    max_slots: self.cfg.max_slots,
                    max_bytes: self.cfg.max_bytes,
                }
            };
            self.fair.add_class(class, cc);
            self.codel
                .insert(class, CoDel::new(self.cfg.codel_target, self.cfg.codel_interval));
        }
        class
    }

    /// Stand-alone budget admission (the chaos experiment calls this per
    /// attempt without going through the queues). Always admits when the
    /// budget stage is disabled.
    pub(crate) fn admit_attempt(&mut self, client: ClientId, kind: AttemptKind) -> bool {
        if !self.cfg.retry_budget {
            return true;
        }
        let ok = self.budget.admit(client, kind);
        if !ok {
            self.win_budget_rejected += 1;
        }
        ok
    }

    /// Offer one request to the pipeline: budget check → class queue with
    /// caps. On success the request is parked and the ticket is returned;
    /// the grant (or CoDel shed) arrives from [`OverloadControl::pump`].
    pub fn offer(
        &mut self,
        now: SimTime,
        service: GlobalServiceId,
        priority: Priority,
        client: ClientId,
        kind: AttemptKind,
        bytes: u64,
    ) -> Result<u64, GatewayError> {
        self.win_offered += 1;
        if !self.admit_attempt(client, kind) {
            return Err(GatewayError::RetryBudgetExhausted);
        }
        let class = self.ensure_class(service, priority);
        let demand = self.demands[self.brownout_level() as usize];
        let pending = PendingRequest { service, priority };
        match self.fair.offer(now, class, demand, bytes, pending) {
            Ok(ticket) => {
                // Provisional span recording: charged unconditionally so the
                // tail sampler can still retrieve slow/error traces later.
                if let Some(sink) = self.telemetry.as_mut() {
                    sink.meter.charge_record(true, &sink.cost);
                }
                Ok(ticket)
            }
            Err(QueueReject::SlotsFull | QueueReject::BytesFull) => {
                self.win_shed_caps += 1;
                self.total_shed += 1;
                Err(GatewayError::OverloadShed)
            }
            Err(QueueReject::UnknownClass) => Err(GatewayError::UnknownService),
        }
    }

    /// Drain the scheduler up to `now` and classify each granted job:
    /// served, or shed by CoDel at dequeue, appending the decisions to `out`
    /// in start order. The caller dispatches the non-shed ones (normally
    /// through `Gateway::handle_request_avoiding` at each job's `start`
    /// time) and reuses `out` across pumps, so a pump allocates nothing.
    pub fn pump(&mut self, now: SimTime, out: &mut Vec<StartedRequest>) {
        self.fair.advance(now);
        for job in self.fair.drain_started() {
            self.win_sojourns_ms.push(job.sojourn.as_millis_f64());
            if self.cfg.brownout {
                self.brownout.observe(job.sojourn);
            }
            // Close the brownout→telemetry loop: the "drop observability
            // sampling" stage actually stops span export and refunds the
            // provisional record charge, shrinking telemetry CPU *before*
            // any request is dropped.
            if let Some(sink) = self.telemetry.as_mut() {
                sink.sampler
                    .set_shed(self.cfg.brownout && self.brownout.level() >= BrownoutLevel::NoObservability);
                if sink.sampler.is_shed() {
                    sink.sampler.decide(job.ticket);
                    sink.meter.refund_record(true, &sink.cost);
                } else if sink.sampler.decide(job.ticket) {
                    sink.meter.charge_export(true, &sink.cost);
                }
            }
            let shed = if self.cfg.codel {
                self.codel
                    .get_mut(&job.class)
                    .is_some_and(|c| c.should_shed(job.start, job.sojourn))
            } else {
                false
            };
            if shed {
                self.win_shed_codel += 1;
                self.total_shed += 1;
            } else {
                self.win_started += 1;
            }
            out.push(StartedRequest {
                ticket: job.ticket,
                pending: job.payload,
                start: job.start,
                finish: job.finish,
                sojourn: job.sojourn,
                shed,
            });
        }
    }

    /// Instantaneous total queue depth.
    pub fn queue_depth(&self) -> usize {
        self.fair.total_depth()
    }

    /// Current brownout level.
    pub fn brownout_level(&self) -> BrownoutLevel {
        if self.cfg.brownout {
            self.brownout.level()
        } else {
            BrownoutLevel::Normal
        }
    }

    /// Read and reset the telemetry window.
    pub fn signals(&mut self) -> OverloadSignals {
        let shed = self.win_shed_caps + self.win_shed_codel;
        let sojourn_p99 = if self.win_sojourns_ms.is_empty() {
            SimDuration::ZERO
        } else {
            SimDuration::from_millis_f64(percentile(&self.win_sojourns_ms, 0.99))
        };
        let queued_bytes = self
            .codel
            .keys()
            .map(|&c| self.fair.queued_bytes(c))
            .sum();
        let out = OverloadSignals {
            offered: self.win_offered,
            started: self.win_started,
            shed_caps: self.win_shed_caps,
            shed_codel: self.win_shed_codel,
            budget_rejected: self.win_budget_rejected,
            queue_depth: self.fair.total_depth(),
            queued_bytes,
            shed_rate: if self.win_offered == 0 {
                0.0
            } else {
                shed as f64 / self.win_offered as f64
            },
            sojourn_p99,
            brownout: self.brownout_level(),
        };
        self.win_offered = 0;
        self.win_started = 0;
        self.win_shed_caps = 0;
        self.win_shed_codel = 0;
        self.win_budget_rejected = 0;
        self.win_sojourns_ms.clear();
        out
    }

    /// Fold the whole pipeline into a digest: the `fair` scheduler, every
    /// class's `codel` shedder, the retry `budget` ledger, the `brownout`
    /// controller, the parked requests (every job `fair` holds, queued or
    /// started but not yet pumped: its ticket and service, in ticket
    /// order), the `telemetry` attachment and its head sampler, the window
    /// counters and `total_shed`.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self {
            fair, codel, budget, brownout, telemetry, win_offered, win_started, win_shed_caps,
            win_shed_codel, win_budget_rejected, win_sojourns_ms, total_shed,
            cfg: _,     // config: fixed at construction
            demands: _, // derived: priced once from `cfg`
        } = self;
        f.scope("fair", |f| fair.fold(f));
        f.write_u64(codel.len() as u64);
        for (&class, c) in codel {
            f.write_u64(class)
                .write_u64(c.target.as_nanos())
                .write_u64(c.interval.as_nanos())
                .write_u64(c.first_above.map_or(u64::MAX, |t| t.as_nanos()))
                .write_u64(c.dropping as u64)
                .write_u64(c.drop_next.as_nanos())
                .write_u64(c.count as u64)
                .count("codel_sheds", c.sheds);
        }
        f.write_f64(budget.ratio)
            .write_f64(budget.cap)
            .write_u64(budget.tokens.len() as u64);
        for (&client, &tokens) in &budget.tokens {
            f.write_u64(client).write_f64(tokens);
        }
        f.count("budget_rejections", budget.rejections);
        f.write_f64(brownout.enter_observability)
            .write_f64(brownout.enter_canary)
            .write_f64(brownout.exit)
            .write_f64(brownout.ewma_ms)
            .write_u64(match brownout.level {
                BrownoutLevel::Normal => 0,
                BrownoutLevel::NoObservability => 1,
                BrownoutLevel::NoCanary => 2,
            });
        let mut parked: Vec<(u64, &PendingRequest)> = fair.held().collect();
        parked.sort_unstable_by_key(|&(ticket, _)| ticket);
        f.write_u64(parked.len() as u64);
        for (ticket, p) in parked {
            f.write_u64(ticket).write_u64(p.service.0);
        }
        f.write_u64(telemetry.is_some() as u64);
        if let Some(sink) = telemetry {
            f.scope("telemetry", |f| sink.fold(f));
        }
        f.write_u64(*win_offered)
            .write_u64(*win_started)
            .write_u64(*win_shed_caps)
            .write_u64(*win_shed_codel)
            .write_u64(*win_budget_rejected)
            .write_u64(win_sojourns_ms.len() as u64);
        for &s in win_sojourns_ms {
            f.write_f64(s);
        }
        f.count("total_shed", *total_shed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_net::{ServiceId, TenantId};

    fn svc(tenant: u32) -> GlobalServiceId {
        GlobalServiceId::compose(TenantId(tenant), ServiceId(1))
    }

    const MS: fn(u64) -> SimDuration = SimDuration::from_millis;

    #[test]
    fn retry_budget_earns_and_spends() {
        let mut b = RetryBudget::new(0.5, 4.0);
        // No budget yet: a retry is rejected.
        assert!(!b.admit(1, AttemptKind::Retry));
        // Two first attempts earn one token.
        assert!(b.admit(1, AttemptKind::First));
        assert!(b.admit(1, AttemptKind::First));
        assert!(b.admit(1, AttemptKind::Retry));
        assert!(!b.admit(1, AttemptKind::Hedge), "budget spent");
        assert_eq!(b.rejections, 2);
        // Budget is per client.
        assert!(b.admit(2, AttemptKind::First));
        assert!(!b.admit(2, AttemptKind::Retry));
    }

    #[test]
    fn retry_budget_caps_accrual() {
        let mut b = RetryBudget::new(1.0, 2.0);
        for _ in 0..100 {
            b.admit(1, AttemptKind::First);
        }
        assert!(b.tokens[&1] <= 2.0 + 1e-9);
    }

    #[test]
    fn codel_stays_quiet_below_target() {
        let mut c = CoDel::new(MS(2), MS(20));
        for i in 0..100 {
            assert!(!c.should_shed(SimTime::from_millis(i), SimDuration::from_micros(500)));
        }
        assert_eq!(c.sheds, 0);
    }

    #[test]
    fn codel_sheds_after_sustained_excess_then_recovers() {
        let mut c = CoDel::new(MS(2), MS(20));
        let mut shed = 0;
        for i in 0..200u64 {
            if c.should_shed(SimTime::from_millis(i), MS(5)) {
                shed += 1;
            }
        }
        assert!(shed > 0, "sustained excess sojourn must shed");
        assert!(c.dropping);
        // A single below-target observation exits dropping.
        assert!(!c.should_shed(SimTime::from_millis(201), SimDuration::from_micros(100)));
        assert!(!c.dropping);
    }

    #[test]
    fn codel_drop_rate_accelerates() {
        let mut c = CoDel::new(MS(2), MS(20));
        let mut drops = Vec::new();
        for i in 0..2000u64 {
            if c.should_shed(SimTime::from_millis(i), MS(10)) {
                drops.push(i);
            }
        }
        assert!(drops.len() >= 4);
        let first_gap = drops[1] - drops[0];
        let late_gap = drops[drops.len() - 1] - drops[drops.len() - 2];
        assert!(late_gap < first_gap, "inverse-sqrt law: gaps shrink");
    }

    #[test]
    fn brownout_escalates_and_recovers_with_hysteresis() {
        let mut b = BrownoutController::new(MS(1), MS(3), SimDuration::from_micros(500));
        for _ in 0..100 {
            b.observe(MS(2));
        }
        assert_eq!(b.level(), BrownoutLevel::NoObservability);
        for _ in 0..100 {
            b.observe(MS(6));
        }
        assert_eq!(b.level(), BrownoutLevel::NoCanary);
        // Between exit and entry: level holds (hysteresis).
        for _ in 0..100 {
            b.observe(SimDuration::from_micros(700));
        }
        assert_eq!(b.level(), BrownoutLevel::NoCanary);
        for _ in 0..200 {
            b.observe(SimDuration::ZERO);
        }
        assert_eq!(b.level(), BrownoutLevel::Normal);
    }

    fn offer_first(
        ov: &mut OverloadControl,
        now: SimTime,
        tenant: u32,
    ) -> Result<u64, GatewayError> {
        ov.offer(
            now,
            svc(tenant),
            Priority::Interactive,
            u64::from(tenant),
            AttemptKind::First,
            256,
        )
    }

    #[test]
    fn surge_fills_own_queue_not_the_peer() {
        let cfg = OverloadConfig {
            ingress_cores: 1,
            base_cpu: SimDuration::from_micros(100),
            codel: false,
            brownout: false,
            ..OverloadConfig::default()
        };
        let mut ov = OverloadControl::new(cfg);
        // Tenant 1 floods; tenant 2 sends one request afterwards.
        for _ in 0..400 {
            let _ = offer_first(&mut ov, SimTime::ZERO, 1);
        }
        offer_first(&mut ov, SimTime::from_micros(150), 2).unwrap();
        let surger = ov.class_of(svc(1), Priority::Interactive);
        let victim = ov.class_of(svc(2), Priority::Interactive);
        assert!(ov.fair.depth(surger) > 100);
        // The victim's request is granted promptly despite the flood.
        let mut started = Vec::new();
        ov.pump(SimTime::from_millis(1), &mut started);
        let v = started.iter().find(|s| s.pending.service == svc(2)).unwrap();
        assert!(
            v.sojourn <= SimDuration::from_micros(300),
            "victim sojourn {:?}",
            v.sojourn
        );
        assert_eq!(ov.fair.depth(victim), 0);
    }

    #[test]
    fn caps_tail_drop_the_surge() {
        let cfg = OverloadConfig {
            ingress_cores: 1,
            max_slots: 16,
            base_cpu: SimDuration::from_micros(100),
            ..OverloadConfig::default()
        };
        let mut ov = OverloadControl::new(cfg);
        let mut shed = 0;
        for _ in 0..100 {
            if offer_first(&mut ov, SimTime::ZERO, 1) == Err(GatewayError::OverloadShed) {
                shed += 1;
            }
        }
        assert!(shed > 50, "{shed} tail-dropped at the caps");
        let sig = ov.signals();
        assert_eq!(sig.shed_caps, shed);
        assert!(sig.shed_rate > 0.5);
    }

    #[test]
    fn budget_exhaustion_rejects_retries_not_first_attempts() {
        let mut ov = OverloadControl::new(OverloadConfig::default());
        // Fresh client: a retry with no accrued budget is rejected...
        assert_eq!(
            ov.offer(
                SimTime::ZERO,
                svc(1),
                Priority::Interactive,
                7,
                AttemptKind::Retry,
                256,
            ),
            Err(GatewayError::RetryBudgetExhausted)
        );
        // ...while a first attempt sails through.
        assert!(offer_first(&mut ov, SimTime::ZERO, 1).is_ok());
        assert_eq!(ov.budget.rejections, 1);
    }

    #[test]
    fn brownout_reduces_demand_before_shedding() {
        let cfg = OverloadConfig {
            ingress_cores: 1,
            base_cpu: SimDuration::from_micros(100),
            codel: false,
            brownout: true,
            brownout_observability: SimDuration::from_micros(200),
            brownout_canary: SimDuration::from_micros(800),
            brownout_exit: SimDuration::from_micros(100),
            ..OverloadConfig::default()
        };
        let mut ov = OverloadControl::new(cfg);
        // Build pressure: a sustained backlog raises sojourns.
        for i in 0..200u64 {
            let _ = offer_first(&mut ov, SimTime::from_micros(i * 50), 1);
        }
        ov.pump(SimTime::from_millis(20), &mut Vec::new());
        assert!(ov.brownout_level() > BrownoutLevel::Normal);
        // Demand of new offers shrinks: an offered job's demand is base *
        // (1 - fracs). Verify indirectly: granted CPU per started job drops.
        let before = ov.fair.granted(ov.class_of(svc(1), Priority::Interactive));
        let served0 = ov.fair.served_count(ov.class_of(svc(1), Priority::Interactive));
        for i in 0..50u64 {
            let _ = offer_first(&mut ov, SimTime::from_millis(21) + SimDuration::from_micros(i), 1);
        }
        ov.pump(SimTime::from_millis(40), &mut Vec::new());
        let class = ov.class_of(svc(1), Priority::Interactive);
        let per_job = (ov.fair.granted(class) - before).as_nanos() as f64
            / (ov.fair.served_count(class) - served0) as f64;
        assert!(
            per_job < 100_000.0 * 0.95,
            "browned-out jobs demand less CPU: {per_job}ns"
        );
    }

    #[test]
    fn brownout_sheds_telemetry_before_any_request() {
        use canal_sim::{SimRng, Stats};
        let cfg = OverloadConfig {
            ingress_cores: 1,
            base_cpu: SimDuration::from_micros(100),
            codel: true,
            codel_target: SimDuration::from_secs(1), // effectively never sheds
            brownout: true,
            brownout_observability: SimDuration::from_micros(200),
            brownout_canary: SimDuration::from_millis(50),
            brownout_exit: SimDuration::from_micros(100),
            ..OverloadConfig::default()
        };
        let mut ov = OverloadControl::new(cfg);
        let mut rng = SimRng::seed(7);
        ov.telemetry = Some(TelemetrySink {
            sampler: HeadSampler::new(0.5, &mut rng),
            cost: TelemetryCostModel::default(),
            meter: TelemetryMeter::default(),
        });
        // Calm phase: spans charge, nothing is refunded.
        for i in 0..4u16 {
            offer_first(&mut ov, SimTime::from_micros(u64::from(i) * 200), 1).unwrap();
        }
        ov.pump(SimTime::from_millis(1), &mut Vec::new());
        let m = &ov.telemetry.as_ref().unwrap().meter;
        assert_eq!(m.refunded_spans(), 0);
        assert_eq!(m.spans_recorded(), 4);
        // Pressure phase: the backlog drives the sojourn EWMA past the
        // observability threshold. Telemetry cost must come back as refunds
        // while not a single request has been dropped — the brownout ladder
        // sheds optional work strictly before requests.
        for _ in 0..200 {
            offer_first(&mut ov, SimTime::from_millis(2), 1).unwrap();
        }
        ov.pump(SimTime::from_millis(40), &mut Vec::new());
        let m = &ov.telemetry.as_ref().unwrap().meter;
        assert!(m.refunded_spans() > 0, "brownout must refund span cost");
        assert!(m.refunded_cpu() > SimDuration::ZERO);
        assert_eq!(ov.total_shed, 0, "telemetry sheds strictly before requests");
        let sampler = &ov.telemetry.as_ref().unwrap().sampler;
        assert!(sampler.is_shed());
        let refused = Stats::of(|s| ov.fold(s)).get("telemetry.sampler.shed_refused");
        assert!(refused > Some(0), "{refused:?}");
    }

    #[test]
    fn interactive_outranks_bulk_under_load() {
        let cfg = OverloadConfig {
            ingress_cores: 1,
            base_cpu: SimDuration::from_micros(100),
            codel: false,
            brownout: false,
            ..OverloadConfig::default()
        };
        let mut ov = OverloadControl::new(cfg);
        for _ in 0..100 {
            ov.offer(
                SimTime::ZERO,
                svc(1),
                Priority::Bulk,
                1,
                AttemptKind::First,
                256,
            )
            .unwrap();
            ov.offer(
                SimTime::ZERO,
                svc(1),
                Priority::Interactive,
                1,
                AttemptKind::First,
                256,
            )
            .unwrap();
        }
        ov.pump(SimTime::from_millis(5), &mut Vec::new());
        let inter = ov.fair.granted(ov.class_of(svc(1), Priority::Interactive));
        let bulk = ov.fair.granted(ov.class_of(svc(1), Priority::Bulk));
        let ratio = inter.as_nanos() as f64 / bulk.as_nanos() as f64;
        assert!(ratio > 2.0, "interactive boost shapes the split: {ratio}");
    }

    #[test]
    fn fifo_baseline_shares_one_class() {
        let mut ov = OverloadControl::new(OverloadConfig {
            per_tenant: false,
            ..OverloadConfig::default()
        });
        assert_eq!(
            ov.class_of(svc(1), Priority::Interactive),
            ov.class_of(svc(9), Priority::Bulk)
        );
        offer_first(&mut ov, SimTime::ZERO, 1).unwrap();
        offer_first(&mut ov, SimTime::ZERO, 9).unwrap();
        let mut started = Vec::new();
        ov.pump(SimTime::from_millis(1), &mut started);
        assert_eq!(started.len(), 2);
    }

    #[test]
    fn signals_window_resets_on_read() {
        let mut ov = OverloadControl::new(OverloadConfig::default());
        offer_first(&mut ov, SimTime::ZERO, 1).unwrap();
        ov.pump(SimTime::from_millis(1), &mut Vec::new());
        let s1 = ov.signals();
        assert_eq!((s1.offered, s1.started), (1, 1));
        let s2 = ov.signals();
        assert_eq!((s2.offered, s2.started), (0, 0));
    }
}
