//! Safe config rollout: canary waves, NACK-gated promotion, automatic
//! rollback.
//!
//! §2.2 names configuration as the mesh's primary outage vector; nothing a
//! health check can say after the fact un-ships a bad config that already
//! reached the fleet. This module is the control-plane half of the defense
//! (the data-plane half is `canal_gateway::config`'s fail-static
//! [`ActiveConfig`](../../canal_gateway/config/struct.ActiveConfig.html)):
//! a [`RolloutController`] drives each config version through
//!
//! ```text
//! validate ──→ canary wave ──→ health-gated promotion waves ──→ converged
//!     │             │                    │
//!     └─(invalid)   └──(NACK / health regression / ack timeout)──→ rollback
//!                                                          to last-known-good
//! ```
//!
//! * **Validate** — a version that fails controller-side validation is
//!   never pushed anywhere (blast radius 0).
//! * **Canary** — the first wave reaches a deliberately small slice of the
//!   fleet, chosen by a caller-supplied [`SimRng`] shuffle (the
//!   `seed-dataflow` lint rule polices how that generator is seeded).
//! * **Promotion** — waves grow exponentially, and each wave must (a) fully
//!   ack within `ack_timeout`, then (b) bake for `bake_time` with the
//!   health signal (error-rate / P99 deltas vs the pre-rollout baseline)
//!   inside bounds, before the next wave is pushed.
//! * **Rollback** — any NACK, health regression, or ack timeout rolls every
//!   exposed target back to the last-known-good version, automatically.
//!   Last-known-good is the last version the fleet *converged* on — it
//!   advances only when a rollout reaches `Converged`, so a version that
//!   was NACKed, rolled back, or never fully acked can never become a
//!   rollback target.
//! * **Partition awareness** — a target the control plane cannot reach
//!   ([`RolloutController::set_reachable`]) is *not* a NACK and never
//!   triggers an ack-timeout rollback: waves ack on their reachable
//!   members, promotion additionally requires a quorum fraction of pushed
//!   targets to be reachable (below quorum the wave **holds**), a
//!   partitioned gateway serves fail-static under a config lease
//!   ([`RolloutController::lease_valid`]), and when the partition heals a
//!   monotone catch-up push reconciles the stale target forward — never
//!   backward — so at most one converged active version exists fleet-wide.
//!
//! Every southbound action leaves through one of two write-ahead emitters,
//! which append the journal record first and hand out the action second:
//! `emit_cut` (a `WaveCut`, then the push of the rollout's version) and
//! `emit_rollback` (a `Rollback`, then the push of last-known-good). Each
//! transition kind therefore has exactly one crash point between append
//! and hand-off, the one [`RolloutController::recover`] is written against.
//! The only push that bypasses them is a catch-up of last-known-good,
//! which exposes nothing the journal does not already record as converged.
//!
//! The controller is payload-agnostic: it decides *who* gets *which
//! version when*; the harness carries the actual `ConfigSpec` bytes and the
//! gateways' `ActiveConfig` performs the semantic validation whose verdict
//! comes back here as an ack or NACK through the owned
//! [`VersionedConfigStore`] ack ledger. Everything runs on simulated time
//! and folds into a [`Digest`], so double runs are bit-identical.

use crate::journal::{Journal, JournalRecord, ReplayState, RolloutKind};
use crate::versioned::{TargetId, VersionedConfigStore};
use canal_sim::{Fold, SimDuration, SimRng, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Audit-log retention: terminal [`RolloutOutcome`]s kept in memory. A
/// region controller drives rollouts for months; the log is a ring with
/// an eviction counter, not an unbounded `Vec`.
pub(crate) const ROLLOUT_OUTCOMES_RETAIN_CAP: usize = 256;

/// Wave sizing, bake times, and health-gate thresholds.
#[derive(Debug, Clone, Copy)]
pub struct RolloutConfig {
    /// Targets in the canary wave (clamped to ≥ 1).
    pub canary_size: usize,
    /// Each promotion wave is this many times larger than the previous one.
    pub wave_growth: usize,
    /// How long a fully-acked wave bakes before the next wave is pushed.
    pub bake_time: SimDuration,
    /// A wave that has not fully acked within this window rolls back.
    pub ack_timeout: SimDuration,
    /// Health gate: max tolerated error-rate increase over baseline
    /// (absolute, e.g. 0.01 = one extra point of errors).
    pub max_error_delta: f64,
    /// Health gate: max tolerated P99 inflation over baseline (ratio).
    pub max_p99_inflation: f64,
    /// Partition gate: the fraction of *pushed* targets that must be
    /// reachable for the wave to ack and promote. Unreachable targets are
    /// not NACKs — below quorum the rollout *holds* instead of rolling back
    /// or promoting blind.
    pub reachable_quorum: f64,
    /// Config lease: how long a partitioned gateway's last-committed config
    /// is considered fresh while it serves fail-static
    /// ([`RolloutController::lease_valid`]).
    pub lease_duration: SimDuration,
}

impl Default for RolloutConfig {
    fn default() -> Self {
        RolloutConfig {
            canary_size: 2,
            wave_growth: 4,
            bake_time: SimDuration::from_secs(30),
            ack_timeout: SimDuration::from_secs(10),
            max_error_delta: 0.01,
            max_p99_inflation: 1.5,
            reachable_quorum: 0.5,
            lease_duration: SimDuration::from_secs(60),
        }
    }
}

/// One observation of the health signal the promotion gate consumes
/// (sourced from `canal_telemetry` hop stats / `OverloadSignals`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSample {
    /// Fraction of requests erroring.
    pub error_rate: f64,
    /// Tail latency.
    pub p99: SimDuration,
}

impl HealthSample {
    /// A perfectly healthy sample (no errors, zero latency) — a neutral
    /// baseline. With a zero-p99 baseline the controller applies only the
    /// error-rate gate (there is no latency signal to measure inflation
    /// against), so real observed tail latencies do not trip a rollback.
    pub const HEALTHY: HealthSample = HealthSample {
        error_rate: 0.0,
        p99: SimDuration::ZERO,
    };
}

/// Where a rollout currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutPhase {
    /// No rollout in flight.
    Idle,
    /// Canary wave pushed; waiting for acks + bake.
    Canary,
    /// Promotion wave `wave` (1-based) pushed; waiting for acks + bake.
    Promoting {
        /// Which promotion wave is in flight.
        wave: usize,
    },
    /// Every target acked the new version.
    Converged,
    /// Rolled back to last-known-good; terminal for this version.
    RolledBack,
}

/// Why a rollout was rolled back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollbackReason {
    /// A target rejected the version (data-plane semantic validation).
    Nack {
        /// The rejecting target.
        target: TargetId,
    },
    /// The health signal regressed past the configured gate during bake.
    HealthRegression,
    /// The in-flight wave did not fully ack within `ack_timeout`.
    AckTimeout,
}

/// Terminal result of one driven version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutResult {
    /// Every target acked the version.
    Converged,
    /// Controller-side validation refused the version; nothing was pushed.
    FailedValidation,
    /// Exposed targets were rolled back to last-known-good.
    RolledBack(RollbackReason),
}

/// Audit-log entry for one driven version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolloutOutcome {
    /// The version driven.
    pub version: u64,
    /// The last-known-good version a rollback would (or did) restore.
    pub(crate) rolled_back_to: u64,
    /// When the rollout began.
    pub started_at: SimTime,
    /// When it reached a terminal phase.
    pub ended_at: SimTime,
    /// How it ended.
    pub result: RolloutResult,
    /// Waves pushed before the terminal phase (canary counts as one).
    pub waves_pushed: usize,
    /// Targets the version was ever pushed to — the blast-radius numerator.
    pub exposed_targets: usize,
}

/// What the caller must do to the data plane after a driving call.
///
/// Every action carries the fencing `epoch` of the controller incarnation
/// that emitted it; gateways NACK pushes whose epoch is below the highest
/// they have observed, so a zombie incarnation can never move the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RolloutAction {
    /// Push `version` to `targets` (stage + commit on each gateway).
    Push {
        /// The version to push.
        version: u64,
        /// Receiving targets.
        targets: Vec<TargetId>,
        /// Fencing epoch of the emitting controller incarnation.
        epoch: u64,
    },
    /// Roll `targets` back to version `to` (last-known-good).
    Rollback {
        /// The version to restore.
        to: u64,
        /// Every target the bad version was pushed to.
        targets: Vec<TargetId>,
        /// Fencing epoch of the emitting controller incarnation.
        epoch: u64,
    },
}

/// One target's share of a [`RolloutAction`]: what travels south to a single
/// gateway. A consumer walks [`RolloutAction::deliveries`] and never needs
/// to know which variant an action is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The receiving target.
    pub target: TargetId,
    /// The version to stage and commit, or to restore when `rollback`.
    pub version: u64,
    /// Fencing epoch of the emitting controller incarnation.
    pub epoch: u64,
    /// Whether this restores last-known-good: a rollback bypasses the
    /// gateway's version monotonicity and is never acknowledged.
    pub rollback: bool,
}

impl RolloutAction {
    /// The action as per-target deliveries, in the action's target order.
    /// The controller never emits an action without a target, so the first
    /// delivery also says what the whole action is.
    pub fn deliveries(&self) -> impl Iterator<Item = Delivery> + '_ {
        let (version, targets, epoch, rollback) = match self {
            RolloutAction::Push { version, targets, epoch } => (*version, targets, *epoch, false),
            RolloutAction::Rollback { to, targets, epoch } => (*to, targets, *epoch, true),
        };
        targets.iter().map(move |&target| Delivery { target, version, epoch, rollback })
    }
}

/// In-flight state of the version being driven.
#[derive(Debug)]
struct ActiveRollout {
    version: u64,
    last_known_good: u64,
    started_at: SimTime,
    baseline: HealthSample,
    /// Shuffled push order; `pushed` is how many of these have been pushed.
    order: Vec<TargetId>,
    pushed: usize,
    /// 0 = canary.
    wave: usize,
    wave_pushed_at: SimTime,
    /// Set when the current wave fully acked (bake starts).
    wave_acked_at: Option<SimTime>,
}

impl ActiveRollout {
    /// The audit entry for this rollout ending at `now` with `result`.
    fn outcome(&self, now: SimTime, result: RolloutResult) -> RolloutOutcome {
        RolloutOutcome {
            version: self.version,
            rolled_back_to: self.last_known_good,
            started_at: self.started_at,
            ended_at: now,
            result,
            waves_pushed: self.wave + 1,
            exposed_targets: self.pushed,
        }
    }
}

/// Drives config versions through validate → canary → health-gated
/// promotion → converged, with automatic rollback. Owns the
/// [`VersionedConfigStore`] whose ack/NACK state gates every transition.
#[derive(Debug)]
pub struct RolloutController {
    cfg: RolloutConfig,
    store: VersionedConfigStore,
    /// The fleet roster, registered at setup; `add_target` deduplicates.
    targets: Vec<TargetId>,
    /// How the last rollout ended (`Idle` before any). While one is in
    /// flight the phase is its wave, so this holds only terminal phases.
    settled: RolloutPhase,
    active: Option<ActiveRollout>,
    /// Ring of terminal outcomes, newest at the back; bounded by
    /// [`ROLLOUT_OUTCOMES_RETAIN_CAP`] with evictions counted in
    /// `outcomes_evicted`.
    outcomes: VecDeque<RolloutOutcome>,
    /// Outcomes evicted from the ring (lifetime total).
    outcomes_evicted: u64,
    rollbacks: u64,
    /// The last version the whole fleet converged on (0 = nothing yet).
    /// Advances only in the `Converged` branch of [`Self::tick`]; this is
    /// what a rollback restores, so a NACKed / rolled-back / half-pushed
    /// version can never become the rollback target.
    last_good: u64,
    /// Targets currently partitioned from the control plane, each with
    /// when it was last reachable — the lease anchor. Unreachable ≠ NACK:
    /// membership gates quorum and leases, never rollback. Removed again
    /// on heal.
    unreachable: BTreeMap<TargetId, SimTime>,
    /// Ticks an acked-but-quorum-starved wave spent holding instead of
    /// promoting or rolling back.
    partition_holds: u64,
    /// Monotone catch-up pushes emitted when partitions healed.
    catch_up_pushes: u64,
    /// Which distribution plane this controller drives (journal metadata).
    kind: RolloutKind,
    /// Write-ahead journal: every begin / wave-cut / ack / nack /
    /// rollback / converge is appended *before* the matching southbound
    /// action is returned, so [`Self::recover`] can reconstruct the
    /// in-flight wave after a crash.
    journal: Journal,
    /// Fencing epoch of this incarnation; stamped on every action.
    epoch: u64,
}

impl RolloutController {
    /// A new incarnation over an empty fleet that continues `journal`: its
    /// fencing epoch is one past anything journaled, and is journaled.
    fn incarnation(cfg: RolloutConfig, mut journal: Journal, now: SimTime) -> Self {
        let epoch = journal.begin_incarnation(now);
        RolloutController {
            cfg,
            store: VersionedConfigStore::default(),
            targets: Vec::new(),
            settled: RolloutPhase::Idle,
            active: None,
            outcomes: VecDeque::new(),
            outcomes_evicted: 0,
            rollbacks: 0,
            last_good: 0,
            unreachable: BTreeMap::new(),
            partition_holds: 0,
            catch_up_pushes: 0,
            kind: RolloutKind::Config,
            journal,
            epoch,
        }
    }

    /// Controller over an empty fleet. The first incarnation runs at
    /// epoch 1 (journaled); crash recovery via [`Self::recover`] bumps it.
    ///
    /// `_debounce` is ignored. Every [`Self::begin`] allocates a version
    /// and pushes it at once, and a second begin is refused until the
    /// first ends, so there is never a pending change a window could
    /// coalesce with.
    pub fn new(cfg: RolloutConfig, _debounce: SimDuration) -> Self {
        Self::incarnation(cfg, Journal::new(), SimTime::ZERO)
    }

    /// Tag the journal records this controller writes with a distribution
    /// plane (config / cert / policy). Builder-style, for construction.
    pub fn with_kind(mut self, kind: RolloutKind) -> Self {
        self.kind = kind;
        self
    }

    /// A replacement incarnation recovered from `journal` (the durable
    /// copy the crashed incarnation wrote ahead of every push) plus an
    /// anti-entropy pass over the fleet: `fleet_running` maps every
    /// live target to the config version it reports running (its keys are
    /// the roster). The new incarnation runs at a fenced epoch one past
    /// anything journaled. `_debounce` is ignored, as in [`Self::new`].
    /// Returns the controller and the reconciliation actions to apply:
    ///
    /// * journal ends mid-rollback → re-emit the rollback for every
    ///   recorded target not yet running the rollback version;
    /// * journal ends mid-wave, version un-NACKed → resume the wave with
    ///   a fresh ack clock, idempotently re-pushing only exposed targets
    ///   whose *reported* version is behind (a target that committed but
    ///   whose ack died with the old controller is not re-pushed — the
    ///   fleet report wins over the journal's ack set);
    /// * journal ends mid-wave but records a NACK of the version → abort:
    ///   roll every exposed target back to the rollout's last-known-good;
    /// * journal is terminal → idle, catch up any target behind
    ///   last-known-good.
    pub fn recover(
        cfg: RolloutConfig,
        _debounce: SimDuration,
        journal: &Journal,
        fleet_running: &BTreeMap<TargetId, u64>,
        now: SimTime,
    ) -> (Self, Vec<RolloutAction>) {
        let state = journal.replay();
        let mut ctl = Self::incarnation(cfg, journal.clone(), now);
        ctl.last_good = state.last_good;
        let max_version = state
            .in_flight
            .as_ref()
            .map_or(0, |fl| fl.version)
            .max(state.last_good)
            .max(state.pending_rollback.as_ref().map_or(0, |p| p.version))
            .max(fleet_running.values().copied().max().unwrap_or(0));
        ctl.store.restore_version(max_version);
        // The fleet report is the roster of record. The journaled push
        // order may name targets that vanished, but it comes first for
        // the targets that still exist.
        let journaled = state.in_flight.iter().flat_map(|fl| &fl.order);
        for &t in journaled.chain(fleet_running.keys()) {
            if fleet_running.contains_key(&t) {
                ctl.add_target(t);
            }
        }
        // Anti-entropy: the fleet's reported running versions seed the
        // ack state — the journal's ack set may be stale (an ack that
        // died with the old incarnation) or ahead (an ack recorded for a
        // commit the gateway lost before flushing).
        for (&t, &v) in fleet_running {
            if v > 0 {
                ctl.store.ack(t, v);
            }
        }
        let actions = ctl.reconcile(&state, fleet_running, now);
        (ctl, actions)
    }

    /// The recovery decision procedure (see [`Self::recover`]).
    fn reconcile(
        &mut self,
        state: &ReplayState,
        fleet_running: &BTreeMap<TargetId, u64>,
        now: SimTime,
    ) -> Vec<RolloutAction> {
        // Mid-rollback crash: the old incarnation journaled the rollback
        // intent but may have died before every push left. Finish it.
        if let Some(p) = &state.pending_rollback {
            self.settled = RolloutPhase::RolledBack;
            let behind: Vec<TargetId> = p
                .targets
                .iter()
                .copied()
                .filter(|t| fleet_running.get(t).is_some_and(|&v| v != p.to))
                .collect();
            if behind.is_empty() {
                return Vec::new();
            }
            return self.emit_rollback(p.version, p.to, behind, now);
        }
        let Some(fl) = &state.in_flight else {
            // Terminal journal: idle at last_good; catch up stragglers.
            if state.last_good > 0 {
                self.settled = RolloutPhase::Converged;
            }
            let behind: Vec<TargetId> = fleet_running
                .iter()
                .filter(|(_, &v)| v < state.last_good)
                .map(|(&t, _)| t)
                .collect();
            return self.catch_up_to_last_good(behind);
        };
        // Mid-wave crash of a NACKed version: abort to last-known-good.
        if let Some((&target, _)) = state.nacked.iter().find(|(_, &v)| v >= fl.version) {
            let exposed: Vec<TargetId> = self
                .targets
                .iter()
                .copied()
                .filter(|t| fl.exposed.contains(t))
                .collect();
            let outcome = RolloutOutcome {
                version: fl.version,
                rolled_back_to: fl.last_known_good,
                started_at: fl.started_at,
                ended_at: now,
                result: RolloutResult::RolledBack(RollbackReason::Nack { target }),
                waves_pushed: fl.wave + 1,
                exposed_targets: exposed.len(),
            };
            return self.abort(outcome, exposed);
        }
        // Mid-wave crash of a healthy rollout: resume the wave. The
        // journal's wave cuts are write-ahead, so `exposed` is a superset
        // of what actually left the wire — re-push every exposed target
        // whose reported version is behind (idempotent for the rest).
        let pushed = self
            .targets
            .iter()
            .take_while(|t| fl.exposed.contains(t))
            .count()
            .max(1)
            .min(self.targets.len());
        self.active = Some(ActiveRollout {
            version: fl.version,
            last_known_good: fl.last_known_good,
            started_at: fl.started_at,
            baseline: HealthSample::HEALTHY,
            order: self.targets.clone(),
            pushed,
            wave: fl.wave,
            wave_pushed_at: now,
            wave_acked_at: None,
        });
        let behind: Vec<TargetId> = self.targets[..pushed]
            .iter()
            .copied()
            .filter(|t| fleet_running.get(t).is_none_or(|&v| v < fl.version))
            .collect();
        if behind.is_empty() {
            return Vec::new();
        }
        self.emit_cut(fl.version, fl.wave, behind, now)
    }

    /// Register a data-plane target (a gateway backend / proxy).
    pub fn add_target(&mut self, target: TargetId) {
        if !self.targets.contains(&target) {
            self.targets.push(target);
            self.store.add_target(target);
        }
    }

    /// Begin driving a new version. `valid` is the controller-side
    /// validation verdict (an invalid version is never pushed — blast
    /// radius 0). `baseline` anchors the health gate; `rng` shuffles the
    /// push order so the canary slice is unbiased but reproducible.
    /// Returns the actions to apply (the canary push, or nothing).
    ///
    /// One rollout at a time: while a rollout is in flight
    /// ([`Self::in_flight`]), the call is refused — no version is
    /// allocated, no state changes, and no actions are returned. The
    /// alternative (silently abandoning the in-flight version) would leave
    /// exposed targets running it with no `Rollback` ever emitted and no
    /// [`RolloutOutcome`] recorded.
    pub fn begin(
        &mut self,
        now: SimTime,
        valid: bool,
        baseline: HealthSample,
        rng: &mut SimRng,
    ) -> Vec<RolloutAction> {
        if self.active.is_some() {
            return Vec::new();
        }
        let last_known_good = self.last_good;
        let version = self.store.next_version();
        if !valid {
            self.settled = RolloutPhase::RolledBack;
            self.push_outcome(RolloutOutcome {
                version,
                rolled_back_to: last_known_good,
                started_at: now,
                ended_at: now,
                result: RolloutResult::FailedValidation,
                waves_pushed: 0,
                exposed_targets: 0,
            });
            return Vec::new();
        }
        let mut order = self.targets.clone();
        rng.shuffle(&mut order);
        let canary = self.cfg.canary_size.max(1).min(order.len());
        let wave_targets: Vec<TargetId> = order[..canary].to_vec();
        // The intent is journaled ahead of the canary cut.
        self.journal.append(JournalRecord::Begin {
            epoch: self.epoch,
            kind: self.kind,
            version,
            last_known_good,
            order: order.clone(),
            at: now,
        });
        self.active = Some(ActiveRollout {
            version,
            last_known_good,
            started_at: now,
            baseline,
            order,
            pushed: canary,
            wave: 0,
            wave_pushed_at: now,
            wave_acked_at: None,
        });
        self.emit_cut(version, 0, wave_targets, now)
    }

    /// An exposed target acknowledged `version`.
    pub fn ack(&mut self, target: TargetId, version: u64, now: SimTime) -> bool {
        let accepted = self.store.ack(target, version);
        if accepted {
            self.journal.append(JournalRecord::Ack {
                epoch: self.epoch,
                target,
                version,
                at: now,
            });
        }
        accepted
    }

    /// An exposed target rejected `version` (its `ActiveConfig` refused to
    /// commit). The next [`Self::tick`] rolls back. An unknown target or a
    /// version never issued is refused: false, and nothing is journaled.
    pub fn nack(&mut self, target: TargetId, version: u64) -> bool {
        let accepted = self.store.nack(target, version);
        if accepted {
            // NACKs arrive without a timestamp (the signature predates the
            // journal); replay keys on epoch/target/version only.
            self.journal.append(JournalRecord::Nack {
                epoch: self.epoch,
                target,
                version,
                at: SimTime::ZERO,
            });
        }
        accepted
    }

    /// Record a reachability transition for `target` — the state of the
    /// control-plane link, not of the target itself. Marking a target
    /// unreachable starts its config lease and takes it out of quorum;
    /// marking it reachable again ends the partition and emits the monotone
    /// catch-up that reconciles it: the in-flight version if the target's
    /// wave came and went while it was partitioned (with a fresh ack
    /// clock), else the fleet's last-known-good when the target's acked
    /// version is older. Catch-up only ever pushes *forward* — a healed
    /// target is never downgraded — so once every partition heals at most
    /// one converged active version exists fleet-wide.
    pub fn set_reachable(
        &mut self,
        target: TargetId,
        reachable: bool,
        now: SimTime,
    ) -> Vec<RolloutAction> {
        if !reachable {
            self.unreachable.entry(target).or_insert(now);
            return Vec::new();
        }
        if self.unreachable.remove(&target).is_none() {
            return Vec::new();
        }
        let acked = self.store.ack_state(target).map_or(0, |s| s.acked);
        let missed_wave = self
            .active
            .as_mut()
            .filter(|a| a.order[..a.pushed].contains(&target) && acked < a.version);
        if let Some(active) = missed_wave {
            active.wave_pushed_at = now;
            let (version, wave) = (active.version, active.wave);
            self.catch_up_pushes += 1;
            return self.emit_cut(version, wave, vec![target], now);
        }
        if acked < self.last_good {
            return self.catch_up_to_last_good(vec![target]);
        }
        Vec::new()
    }

    /// Whether `target`'s fail-static config lease is still fresh at `now`:
    /// a reachable target always holds a valid lease; a partitioned
    /// target's lease expires `lease_duration` after it was last reachable.
    /// An expired lease does not stop fail-static serving — it marks the
    /// served config as stale for operators and the drill gate.
    pub fn lease_valid(&self, target: TargetId, now: SimTime) -> bool {
        match self.unreachable.get(&target) {
            None => true,
            Some(&since) => now.since(since) < self.cfg.lease_duration,
        }
    }

    /// Advance the state machine at `now` with the latest health
    /// observation (if one is available this tick). Returns the actions the
    /// caller must apply to the data plane.
    pub fn tick(&mut self, now: SimTime, health: Option<HealthSample>) -> Vec<RolloutAction> {
        let Some(active) = &mut self.active else {
            return Vec::new();
        };
        // 1. A NACK of the in-flight version anywhere ends the rollout
        //    immediately. Stale NACKs from an earlier, already-rolled-back
        //    version must not poison later rollouts.
        if let Some(target) = self.store.nacking(active.version) {
            return self.roll_back(now, RollbackReason::Nack { target });
        }
        // 2. Wave ack progress. Unreachable targets neither ack nor NACK:
        //    the wave acks once every *reachable* pushed target acked, and
        //    promotion additionally requires the reachable fraction of
        //    pushed targets to meet quorum. A quorum-starved wave holds —
        //    the ack timeout fires only when a reachable target failed to
        //    ack (a real fault, not a partition).
        if active.wave_acked_at.is_none() {
            let pushed_slice = &active.order[..active.pushed];
            let reachable = || pushed_slice.iter().filter(|t| !self.unreachable.contains_key(t));
            let reachable_acked = reachable().all(|&t| {
                self.store
                    .ack_state(t)
                    .is_some_and(|s| s.acked >= active.version)
            });
            let quorum_met = reachable().count() as f64
                >= self.cfg.reachable_quorum * pushed_slice.len() as f64;
            if reachable_acked && quorum_met {
                active.wave_acked_at = Some(now);
            } else if now.since(active.wave_pushed_at) >= self.cfg.ack_timeout {
                if !reachable_acked {
                    return self.roll_back(now, RollbackReason::AckTimeout);
                }
                self.partition_holds += 1;
            }
        }
        // 3. Health gate: any regression past the thresholds while exposed.
        //    A zero baseline p99 means the caller had no latency signal to
        //    anchor the gate (e.g. no traffic yet), so only the error-rate
        //    gate applies — otherwise any real tail latency would read as
        //    infinite inflation and roll back a healthy rollout.
        if let Some(h) = health {
            let err_breach = h.error_rate > active.baseline.error_rate + self.cfg.max_error_delta;
            let p99_breach = active.baseline.p99 > SimDuration::ZERO
                && h.p99.as_nanos() as f64
                    > active.baseline.p99.as_nanos() as f64 * self.cfg.max_p99_inflation;
            if err_breach || p99_breach {
                return self.roll_back(now, RollbackReason::HealthRegression);
            }
        }
        // 4. Fully-acked wave that finished baking promotes the next wave.
        if let Some(acked_at) = active.wave_acked_at {
            if now.since(acked_at) >= self.cfg.bake_time {
                if active.pushed == active.order.len() {
                    // Nothing left to push: converged. This version is now
                    // the fleet's last-known-good.
                    self.last_good = active.version;
                    let outcome = active.outcome(now, RolloutResult::Converged);
                    self.journal.append(JournalRecord::Converge {
                        epoch: self.epoch,
                        version: outcome.version,
                        at: now,
                    });
                    self.push_outcome(outcome);
                    self.active = None;
                    self.settled = RolloutPhase::Converged;
                    return Vec::new();
                }
                let prev = active.pushed;
                let next_size = (prev * self.cfg.wave_growth.max(2))
                    .min(active.order.len())
                    - prev;
                let next_size = next_size.max(1);
                let end = (prev + next_size).min(active.order.len());
                let targets: Vec<TargetId> = active.order[prev..end].to_vec();
                active.pushed = end;
                active.wave += 1;
                active.wave_pushed_at = now;
                active.wave_acked_at = None;
                let (version, wave) = (active.version, active.wave);
                return self.emit_cut(version, wave, targets, now);
            }
        }
        Vec::new()
    }

    fn roll_back(&mut self, now: SimTime, reason: RollbackReason) -> Vec<RolloutAction> {
        let Some(active) = self.active.take() else {
            return Vec::new();
        };
        let targets = active.order[..active.pushed].to_vec();
        self.abort(active.outcome(now, RolloutResult::RolledBack(reason)), targets)
    }

    /// End the rollout `outcome` describes as rolled back, and roll its
    /// exposed `targets` back to the outcome's last-known-good.
    fn abort(&mut self, outcome: RolloutOutcome, targets: Vec<TargetId>) -> Vec<RolloutAction> {
        self.settled = RolloutPhase::RolledBack;
        self.push_outcome(outcome);
        self.emit_rollback(outcome.version, outcome.rolled_back_to, targets, outcome.ended_at)
    }

    /// The journaled cut: append the `WaveCut` of `targets`, then hand out
    /// their push of `version`. Every push of a rollout's own version
    /// leaves here, so a crash in between can only over-report exposure.
    fn emit_cut(
        &mut self,
        version: u64,
        wave: usize,
        targets: Vec<TargetId>,
        now: SimTime,
    ) -> Vec<RolloutAction> {
        self.journal.append(JournalRecord::WaveCut {
            epoch: self.epoch,
            version,
            wave,
            targets: targets.clone(),
            at: now,
        });
        vec![RolloutAction::Push { version, targets, epoch: self.epoch }]
    }

    /// The journaled rollback: count it, append the `Rollback` intent of
    /// `targets` from `version` to `to`, then hand out their push. Every
    /// rollback leaves here, so a crash in between is finished by the next
    /// incarnation ([`Self::recover`]).
    fn emit_rollback(
        &mut self,
        version: u64,
        to: u64,
        targets: Vec<TargetId>,
        now: SimTime,
    ) -> Vec<RolloutAction> {
        self.rollbacks += 1;
        self.journal.append(JournalRecord::Rollback {
            epoch: self.epoch,
            version,
            to,
            targets: targets.clone(),
            at: now,
        });
        vec![RolloutAction::Rollback { to, targets, epoch: self.epoch }]
    }

    /// Catch `targets` up to last-known-good. This is the one push that is
    /// not journaled: the journal already records that version as
    /// converged, so the push exposes nothing recovery could miss.
    fn catch_up_to_last_good(&mut self, targets: Vec<TargetId>) -> Vec<RolloutAction> {
        if targets.is_empty() {
            return Vec::new();
        }
        self.catch_up_pushes += targets.len() as u64;
        vec![RolloutAction::Push { version: self.last_good, targets, epoch: self.epoch }]
    }

    /// Append to the bounded outcome ring, evicting the oldest past
    /// [`ROLLOUT_OUTCOMES_RETAIN_CAP`].
    fn push_outcome(&mut self, outcome: RolloutOutcome) {
        self.outcomes.push_back(outcome);
        while self.outcomes.len() > ROLLOUT_OUTCOMES_RETAIN_CAP {
            self.outcomes.pop_front();
            self.outcomes_evicted += 1;
        }
    }

    /// Current phase: the in-flight rollout's wave, else how the last one
    /// ended.
    pub fn phase(&self) -> RolloutPhase {
        match &self.active {
            Some(a) if a.wave == 0 => RolloutPhase::Canary,
            Some(a) => RolloutPhase::Promoting { wave: a.wave },
            None => self.settled,
        }
    }

    /// Whether a config change is in flight (pushed somewhere, not yet
    /// terminal) — the "suspect dimension" the monitor/RCA consume.
    pub fn in_flight(&self) -> bool {
        self.active.is_some()
    }

    /// Lifetime automatic rollbacks.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// The last version the whole fleet converged on — what a rollback
    /// restores (0 until any rollout converges).
    pub fn last_known_good(&self) -> u64 {
        self.last_good
    }

    /// The retained per-version audit log, oldest first (a bounded ring;
    /// the fold counts entries aged out as `outcomes_evicted`).
    pub fn outcomes(&self) -> &VecDeque<RolloutOutcome> {
        &self.outcomes
    }

    /// Audit-log entries evicted from the bounded ring (lifetime total).
    pub(crate) fn outcomes_evicted(&self) -> u64 {
        self.outcomes_evicted
    }

    /// This incarnation's fencing epoch (stamped on every action).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The write-ahead journal. A harness models durable storage by
    /// cloning this at crash time and handing it to [`Self::recover`].
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The owned ack ledger (read-only).
    pub fn store(&self) -> &VersionedConfigStore {
        &self.store
    }

    /// Fold phase, fleet roster, in-flight rollout, counters, and the
    /// audit log into `d` — the experiment's double-run bit-identity
    /// covers the whole state machine.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self {
            store, targets, active, outcomes, outcomes_evicted, rollbacks, last_good, unreachable,
            partition_holds, catch_up_pushes, kind, journal, epoch,
            cfg: _, // config: fixed at construction
            settled: _, // folded through `phase`, which it is while no rollout is active
        } = self;
        let phase_tag = match self.phase() {
            RolloutPhase::Idle => 0,
            RolloutPhase::Canary => 1,
            RolloutPhase::Promoting { wave } => 100 + wave as u64,
            RolloutPhase::Converged => 2,
            RolloutPhase::RolledBack => 3,
        };
        f.write_u64(phase_tag);
        f.write_u64(store.version());
        f.write_u64(targets.len() as u64);
        for &t in targets {
            f.write_u64(t as u64);
        }
        match active {
            None => {
                f.write_u64(0);
            }
            Some(a) => {
                f.write_u64(1)
                    .write_u64(a.version)
                    .write_u64(a.last_known_good)
                    .write_u64(a.started_at.as_nanos())
                    .write_f64(a.baseline.error_rate)
                    .write_u64(a.baseline.p99.as_nanos())
                    .write_u64(a.order.len() as u64);
                for &t in &a.order {
                    f.write_u64(t as u64);
                }
                f.write_u64(a.pushed as u64)
                    .write_u64(a.wave as u64)
                    .write_u64(a.wave_pushed_at.as_nanos())
                    .write_u64(a.wave_acked_at.map_or(u64::MAX, |t| t.as_nanos()));
            }
        }
        f.write_u64(*last_good);
        // The partitioned targets, then each with its lease anchor.
        f.write_u64(unreachable.len() as u64);
        for &t in unreachable.keys() {
            f.write_u64(t as u64);
        }
        for (&t, &since) in unreachable {
            f.write_u64(t as u64).write_u64(since.as_nanos());
        }
        f.count("partition_holds", *partition_holds)
            .count("catch_up_pushes", *catch_up_pushes)
            .count("rollbacks", *rollbacks);
        f.write_u64(*epoch);
        f.write_u64(kind.tag());
        f.scope("journal", |f| journal.fold(f));
        f.count("outcomes_evicted", *outcomes_evicted);
        f.write_u64(outcomes.len() as u64);
        for o in outcomes {
            f.write_u64(o.version);
            f.write_u64(o.rolled_back_to);
            f.write_u64(o.started_at.as_nanos());
            f.write_u64(o.ended_at.as_nanos());
            f.write_u64(match o.result {
                RolloutResult::Converged => 1,
                RolloutResult::FailedValidation => 2,
                RolloutResult::RolledBack(RollbackReason::Nack { target }) => {
                    1000 + target as u64
                }
                RolloutResult::RolledBack(RollbackReason::HealthRegression) => 3,
                RolloutResult::RolledBack(RollbackReason::AckTimeout) => 4,
            });
            f.write_u64(o.waves_pushed as u64);
            f.write_u64(o.exposed_targets as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canal_sim::Digest;

    const T: fn(u64) -> SimTime = SimTime::from_secs;

    fn controller(n: u32) -> RolloutController {
        let mut c = RolloutController::new(RolloutConfig::default(), SimDuration::ZERO);
        for t in 0..n {
            c.add_target(t);
        }
        c
    }

    /// Apply Push actions as instant acks (a healthy fleet).
    fn ack_all(c: &mut RolloutController, actions: &[RolloutAction], now: SimTime) {
        for a in actions {
            if let RolloutAction::Push { version, targets, .. } = a {
                for &t in targets {
                    assert!(c.ack(t, *version, now));
                }
            }
        }
    }

    /// The canary push `begin` returned: its version and targets.
    fn canary(actions: &[RolloutAction]) -> (u64, Vec<TargetId>) {
        match actions.first() {
            Some(RolloutAction::Push { version, targets, .. }) => (*version, targets.clone()),
            other => panic!("expected canary push, got {other:?}"),
        }
    }

    /// Begin a rollout at `now` and ack/bake it through to convergence,
    /// collecting pushed wave sizes; `partitioned` never acks. Returns the
    /// time convergence landed.
    fn drive_to_converged(
        c: &mut RolloutController,
        rng: &mut SimRng,
        mut now: SimTime,
        wave_sizes: &mut Vec<usize>,
        partitioned: Option<TargetId>,
    ) -> SimTime {
        let mut actions = c.begin(now, true, HealthSample::HEALTHY, rng);
        let mut guard = 0;
        while c.phase() != RolloutPhase::Converged {
            for a in &mut actions {
                if let RolloutAction::Push { targets, .. } = a {
                    wave_sizes.push(targets.len());
                    targets.retain(|&t| Some(t) != partitioned);
                }
            }
            ack_all(c, &actions, now);
            now += SimDuration::from_secs(1);
            // One tick to latch acks, then jump past the bake window.
            actions = c.tick(now, Some(HealthSample::HEALTHY));
            if actions.is_empty() && c.phase() != RolloutPhase::Converged {
                now += RolloutConfig::default().bake_time;
                actions = c.tick(now, Some(HealthSample::HEALTHY));
            }
            guard += 1;
            assert!(guard < 50, "rollout did not converge");
        }
        now
    }

    #[test]
    fn healthy_rollout_converges_in_exponential_waves() {
        let mut c = controller(16);
        let mut rng = SimRng::seed(7);
        let mut wave_sizes = Vec::new();
        drive_to_converged(&mut c, &mut rng, T(0), &mut wave_sizes, None);
        // canary 2, then 6 (to reach 8 = 2*4), then 8 (to reach 16... capped)
        assert_eq!(wave_sizes.iter().sum::<usize>(), 16);
        assert_eq!(wave_sizes[0], 2, "canary wave is small");
        assert!(wave_sizes.windows(2).all(|w| w[1] >= w[0]), "waves grow");
        assert!(c.store().converged());
        let o = c.outcomes().back().unwrap();
        assert_eq!(o.result, RolloutResult::Converged);
        assert_eq!(o.exposed_targets, 16);
    }

    #[test]
    fn nack_rolls_back_and_poison_never_reaches_second_wave() {
        let mut c = controller(12);
        let mut rng = SimRng::seed(42);
        let actions = c.begin(T(0), true, HealthSample::HEALTHY, &mut rng);
        let (version, targets) = canary(&actions);
        assert_eq!(targets.len(), 2);
        // The first canary target's ActiveConfig rejects the config.
        c.nack(targets[0], version);
        c.ack(targets[1], version, T(1));
        let out = c.tick(T(1), None);
        // Rollback covers exactly the exposed canary targets.
        assert_eq!(out.len(), 1);
        let RolloutAction::Rollback { to, targets: rb, .. } = &out[0] else {
            panic!("expected rollback");
        };
        assert_eq!(*to, 0, "back to last-known-good");
        assert_eq!(rb.len(), 2, "blast radius capped at the canary wave");
        assert_eq!(c.phase(), RolloutPhase::RolledBack);
        // No second wave is ever pushed for this version.
        for later in 1..20u64 {
            assert!(c.tick(T(1 + later), None).is_empty());
        }
        let o = c.outcomes().back().unwrap();
        assert_eq!(o.waves_pushed, 1);
        assert_eq!(o.exposed_targets, 2);
        assert!(matches!(o.result, RolloutResult::RolledBack(RollbackReason::Nack { .. })));
        assert_eq!(c.rollbacks(), 1);
    }

    #[test]
    fn last_known_good_is_last_converged_version_not_last_allocated() {
        let mut c = controller(8);
        let mut rng = SimRng::seed(17);
        // v1 converges fleet-wide: it becomes last-known-good.
        let now = drive_to_converged(&mut c, &mut rng, T(0), &mut Vec::new(), None);
        assert_eq!(c.last_known_good(), 1);
        // v2 is poisoned: the canary NACKs it and it rolls back.
        let a = c.begin(now, true, HealthSample::HEALTHY, &mut rng);
        let (version, targets) = canary(&a);
        assert_eq!(version, 2);
        c.nack(targets[0], version);
        let out = c.tick(now + SimDuration::from_secs(1), None);
        let Some(RolloutAction::Rollback { to, .. }) = out.first() else {
            panic!("expected rollback");
        };
        assert_eq!(*to, 1, "rollback restores the converged v1");
        assert_eq!(c.last_known_good(), 1, "a rolled-back v2 is not good");
        // v3 begins after the failed v2 and dies to an ack timeout. Its
        // rollback must also restore v1 — never the rejected v2.
        let t3 = now + SimDuration::from_secs(5);
        let a3 = c.begin(t3, true, HealthSample::HEALTHY, &mut rng);
        assert!(matches!(a3.first(), Some(RolloutAction::Push { version, .. }) if *version == 3));
        let out3 = c.tick(t3 + RolloutConfig::default().ack_timeout, None);
        let Some(RolloutAction::Rollback { to, .. }) = out3.first() else {
            panic!("expected ack-timeout rollback");
        };
        assert_eq!(*to, 1, "never roll 'back' to the poisoned v2");
        let o = c.outcomes().back().unwrap();
        assert_eq!(o.rolled_back_to, 1);
    }

    #[test]
    fn begin_is_refused_while_a_rollout_is_in_flight() {
        let mut c = controller(8);
        let mut rng = SimRng::seed(23);
        let first = c.begin(T(0), true, HealthSample::HEALTHY, &mut rng);
        assert_eq!(first.len(), 1);
        let version = c.store().version();
        assert_eq!(c.phase(), RolloutPhase::Canary);
        // A second begin mid-flight is refused outright: no actions, no new
        // version, and the in-flight rollout is untouched.
        let second = c.begin(T(1), true, HealthSample::HEALTHY, &mut rng);
        assert!(second.is_empty(), "overlapping begin must be refused");
        assert_eq!(c.store().version(), version, "no version allocated");
        assert_eq!(c.phase(), RolloutPhase::Canary);
        assert!(c.in_flight());
        // The original rollout still completes normally.
        ack_all(&mut c, &first, T(1));
        c.tick(T(2), None);
        assert!(c.outcomes().is_empty(), "in-flight rollout was not abandoned");
    }

    #[test]
    fn nack_of_an_unissued_version_is_refused() {
        let mut c = controller(8);
        let mut rng = SimRng::seed(47);
        let actions = c.begin(T(0), true, HealthSample::HEALTHY, &mut rng);
        let (version, targets) = canary(&actions);
        let appended = c.journal().appended();
        // Only the in-flight version was ever issued; a NACK of a later one
        // must not read as a NACK of it.
        assert!(!c.nack(targets[0], version + 1), "v{} was never issued", version + 1);
        assert_eq!(c.journal().appended(), appended, "a refused NACK journals nothing");
        assert!(c.tick(T(1), None).is_empty(), "the in-flight rollout is not rolled back");
        assert!(c.in_flight());
        assert_eq!(c.rollbacks(), 0);
    }

    #[test]
    fn zero_p99_baseline_skips_the_inflation_gate() {
        let mut c = controller(8);
        let mut rng = SimRng::seed(29);
        // HEALTHY baseline has p99 = 0: no latency signal to gate on.
        let a = c.begin(T(0), true, HealthSample::HEALTHY, &mut rng);
        ack_all(&mut c, &a, T(1));
        // Real observed tail latency must not read as infinite inflation.
        let observed = HealthSample {
            error_rate: 0.0,
            p99: SimDuration::from_millis(20),
        };
        let out = c.tick(T(1), Some(observed));
        assert!(
            !matches!(out.first(), Some(RolloutAction::Rollback { .. })),
            "a zero baseline must disable the p99 gate, not weaponize it"
        );
        assert_ne!(c.phase(), RolloutPhase::RolledBack);
        // The error-rate gate still applies with a zero baseline.
        let erroring = HealthSample {
            error_rate: 0.5,
            p99: SimDuration::ZERO,
        };
        let out = c.tick(T(2), Some(erroring));
        assert!(matches!(out.first(), Some(RolloutAction::Rollback { .. })));
    }

    #[test]
    fn stale_nack_does_not_poison_the_next_rollout() {
        let mut c = controller(8);
        let mut rng = SimRng::seed(11);
        // First rollout dies to a canary NACK.
        let actions = c.begin(T(0), true, HealthSample::HEALTHY, &mut rng);
        let (version, targets) = canary(&actions);
        c.nack(targets[0], version);
        assert!(matches!(
            c.tick(T(1), None).first(),
            Some(RolloutAction::Rollback { .. })
        ));
        // The rejecting target never acks anything newer, so its NACK is
        // still recorded in the store — but it is for the dead version and
        // must not shoot down the next, healthy rollout.
        let actions = c.begin(T(10), true, HealthSample::HEALTHY, &mut rng);
        assert_eq!(c.phase(), RolloutPhase::Canary);
        ack_all(&mut c, &actions, T(11));
        let out = c.tick(T(11), Some(HealthSample::HEALTHY));
        assert!(
            !matches!(out.first(), Some(RolloutAction::Rollback { .. })),
            "a stale NACK from the rolled-back version must be ignored"
        );
        assert_ne!(c.phase(), RolloutPhase::RolledBack);
    }

    #[test]
    fn health_regression_during_bake_rolls_back() {
        let mut c = controller(12);
        let mut rng = SimRng::seed(3);
        let baseline = HealthSample {
            error_rate: 0.001,
            p99: SimDuration::from_millis(10),
        };
        let actions = c.begin(T(0), true, baseline, &mut rng);
        ack_all(&mut c, &actions, T(1));
        assert!(c.tick(T(1), Some(baseline)).is_empty(), "baking");
        // Mid-bake the canary's error rate spikes past the gate.
        let sick = HealthSample {
            error_rate: 0.05,
            p99: SimDuration::from_millis(10),
        };
        let out = c.tick(T(5), Some(sick));
        assert!(matches!(out.first(), Some(RolloutAction::Rollback { .. })));
        let o = c.outcomes().back().unwrap();
        assert_eq!(o.result, RolloutResult::RolledBack(RollbackReason::HealthRegression));
        assert_eq!(o.exposed_targets, 2, "only the canary ever saw it");
        // P99 inflation alone also trips the gate.
        let mut c2 = controller(12);
        let a2 = c2.begin(T(0), true, baseline, &mut rng);
        ack_all(&mut c2, &a2, T(1));
        let slow = HealthSample {
            error_rate: 0.001,
            p99: SimDuration::from_millis(30),
        };
        let out2 = c2.tick(T(2), Some(slow));
        assert!(matches!(out2.first(), Some(RolloutAction::Rollback { .. })));
    }

    #[test]
    fn ack_timeout_rolls_back() {
        let mut c = controller(8);
        let mut rng = SimRng::seed(9);
        let _ = c.begin(T(0), true, HealthSample::HEALTHY, &mut rng);
        // Nobody acks (pushes blocked): past ack_timeout the wave aborts.
        assert!(c.tick(T(5), None).is_empty(), "still inside the window");
        let out = c.tick(T(11), None);
        assert!(matches!(out.first(), Some(RolloutAction::Rollback { .. })));
        let o = c.outcomes().back().unwrap();
        assert_eq!(o.result, RolloutResult::RolledBack(RollbackReason::AckTimeout));
    }

    #[test]
    fn invalid_version_is_never_pushed() {
        let mut c = controller(8);
        let mut rng = SimRng::seed(1);
        let actions = c.begin(T(0), false, HealthSample::HEALTHY, &mut rng);
        assert!(actions.is_empty());
        assert_eq!(c.phase(), RolloutPhase::RolledBack);
        let o = c.outcomes().back().unwrap();
        assert_eq!(o.result, RolloutResult::FailedValidation);
        assert_eq!(o.exposed_targets, 0, "blast radius zero");
    }

    #[test]
    fn unreachable_target_is_not_a_nack() {
        let mut c = controller(8);
        let mut rng = SimRng::seed(31);
        let actions = c.begin(T(0), true, HealthSample::HEALTHY, &mut rng);
        let (version, targets) = canary(&actions);
        // One canary target partitions before it can ack; the other acks.
        // Quorum (0.5 of 2) is met by the reachable half, so the wave acks
        // and nothing ever rolls back — a partition is not a NACK.
        assert!(c.set_reachable(targets[0], false, T(0)).is_empty());
        c.ack(targets[1], version, T(1));
        let out = c.tick(T(11), None); // well past ack_timeout
        assert!(!matches!(out.first(), Some(RolloutAction::Rollback { .. })));
        assert_ne!(c.phase(), RolloutPhase::RolledBack);
        assert_eq!(c.rollbacks(), 0);
        assert_eq!(c.unreachable.len(), 1);
        assert!(c.unreachable.contains_key(&targets[0]));
    }

    #[test]
    fn reachable_ack_failure_still_times_out() {
        let mut c = controller(8);
        let mut rng = SimRng::seed(33);
        let actions = c.begin(T(0), true, HealthSample::HEALTHY, &mut rng);
        let (_, targets) = canary(&actions);
        // One target is partitioned, but the *reachable* one also fails to
        // ack — that is a real fault and must still roll back on timeout.
        c.set_reachable(targets[0], false, T(0));
        let out = c.tick(T(11), None);
        assert!(matches!(out.first(), Some(RolloutAction::Rollback { .. })));
        let o = c.outcomes().back().unwrap();
        assert_eq!(o.result, RolloutResult::RolledBack(RollbackReason::AckTimeout));
    }

    #[test]
    fn quorum_starved_wave_holds_instead_of_rolling_back() {
        let mut c = controller(8);
        let mut rng = SimRng::seed(37);
        let actions = c.begin(T(0), true, HealthSample::HEALTHY, &mut rng);
        let (_, targets) = canary(&actions);
        // The whole canary wave partitions: every reachable target (none)
        // has acked, but quorum is starved. The rollout holds — no rollback,
        // no blind promotion — until the partition resolves.
        for t in targets {
            c.set_reachable(t, false, T(0));
        }
        for s in 1..30 {
            assert!(c.tick(T(s), None).is_empty());
        }
        assert!(c.in_flight(), "held, not rolled back or promoted");
        assert!(c.partition_holds > 0);
        assert_eq!(c.rollbacks(), 0);
    }

    #[test]
    fn mid_flight_heal_repushes_the_inflight_version() {
        let mut c = controller(8);
        let mut rng = SimRng::seed(43);
        let actions = c.begin(T(0), true, HealthSample::HEALTHY, &mut rng);
        let (version, targets) = canary(&actions);
        let (lost, ok) = (targets[0], targets[1]);
        c.set_reachable(lost, false, T(0));
        c.ack(ok, version, T(1));
        assert!(c.tick(T(2), None).is_empty(), "wave acks on the reachable half");
        // The partition heals mid-flight: the in-flight version is re-pushed
        // to the healed target with a fresh ack clock (a catch-up push).
        let heal = c.set_reachable(lost, true, T(3));
        assert_eq!(
            heal,
            vec![RolloutAction::Push { version, targets: vec![lost], epoch: c.epoch() }]
        );
        assert_eq!(c.catch_up_pushes, 1);
        assert!(!c.unreachable.contains_key(&lost));
    }

    #[test]
    fn heal_catch_up_converges_to_exactly_one_version() {
        let mut c = controller(8);
        let mut rng = SimRng::seed(41);
        // v1 converges fleet-wide, then target 3 partitions.
        let now = drive_to_converged(&mut c, &mut rng, T(0), &mut Vec::new(), None);
        assert_eq!(c.last_known_good(), 1);
        let skip = 3u32;
        c.set_reachable(skip, false, now);
        // v2 rolls out and converges on the reachable fleet; the
        // partitioned target silently misses every push.
        let t = drive_to_converged(&mut c, &mut rng, now, &mut Vec::new(), Some(skip));
        assert_eq!(c.last_known_good(), 2);
        // Heal: exactly one monotone catch-up push of last-known-good.
        let heal = c.set_reachable(skip, true, t);
        assert_eq!(heal, vec![RolloutAction::Push { version: 2, targets: vec![skip], epoch: c.epoch() }]);
        assert_eq!(c.catch_up_pushes, 1);
        c.ack(skip, 2, t);
        assert!(c.store().converged(), "one converged version fleet-wide");
        // Healing an already-reachable target is a no-op.
        assert!(c.set_reachable(skip, true, t).is_empty());
        assert_eq!(c.catch_up_pushes, 1);
    }

    #[test]
    fn config_lease_expires_after_lease_duration() {
        let mut c = controller(4);
        assert!(c.lease_valid(0, T(0)), "reachable targets always hold a lease");
        c.set_reachable(0, false, T(10));
        assert!(c.lease_valid(0, T(30)), "fresh within the lease window");
        assert!(!c.lease_valid(0, T(90)), "stale past lease_duration");
        c.set_reachable(0, true, T(95));
        assert!(c.lease_valid(0, T(95)), "heal restores the lease");
    }

    #[test]
    fn partition_state_reaches_the_digest() {
        let fold = |c: &RolloutController| {
            Digest::of(|f| c.fold(f)).value()
        };
        let mut c = controller(4);
        let before = fold(&c);
        c.set_reachable(2, false, T(5));
        assert_ne!(before, fold(&c), "partition membership is digested");
    }

    /// Crash mid-wave of a healthy rollout: the replacement incarnation
    /// resumes the wave at a fenced epoch, re-pushing only targets whose
    /// reported version is behind.
    #[test]
    fn recover_resumes_in_flight_wave() {
        let mut rng = SimRng::seed(11);
        let mut c = controller(8);
        let actions = c.begin(T(0), true, HealthSample::HEALTHY, &mut rng);
        let RolloutAction::Push { version, targets, epoch } = &actions[0] else {
            panic!("expected canary push");
        };
        assert_eq!(*epoch, 1, "first incarnation runs at epoch 1");
        let version = *version;
        // One canary target committed and acked before the crash; the
        // second committed but its ack died with the controller.
        c.ack(targets[0], version, T(1));
        let durable = c.journal().clone();
        // Anti-entropy fleet report: both canary targets run `version`.
        let mut fleet: BTreeMap<TargetId, u64> = (0..8u32).map(|t| (t, 0)).collect();
        fleet.insert(targets[0], version);
        fleet.insert(targets[1], version);
        drop(c);
        let (mut c2, actions) =
            RolloutController::recover(RolloutConfig::default(), SimDuration::ZERO, &durable, &fleet, T(10));
        assert_eq!(c2.epoch(), 2, "recovered incarnation is fenced one past");
        assert!(c2.in_flight(), "healthy un-NACKed wave resumes");
        assert_eq!(c2.phase(), RolloutPhase::Canary);
        assert!(
            actions.is_empty(),
            "both canary targets already report the version: no re-push, got {actions:?}"
        );
        // The resumed rollout promotes and converges normally.
        let mut now = T(10);
        let mut guard = 0;
        let mut acts = Vec::new();
        while c2.phase() != RolloutPhase::Converged {
            ack_all(&mut c2, &acts, now);
            now += SimDuration::from_secs(31);
            acts = c2.tick(now, None);
            for a in &acts {
                let RolloutAction::Push { epoch, .. } = a else {
                    panic!("healthy resume must not roll back: {a:?}");
                };
                assert_eq!(*epoch, 2, "resumed pushes carry the new epoch");
            }
            guard += 1;
            assert!(guard < 50, "resumed rollout did not converge");
        }
        assert_eq!(c2.last_known_good(), version);
    }

    /// Crash mid-wave with an ack lost *and* the push lost: the journal
    /// over-reports exposure (write-ahead), so recovery re-pushes the
    /// unacked target idempotently.
    #[test]
    fn recover_repushes_unacked_targets() {
        let mut rng = SimRng::seed(12);
        let mut c = controller(6);
        let actions = c.begin(T(0), true, HealthSample::HEALTHY, &mut rng);
        let (version, canary) = canary(&actions);
        let durable = c.journal().clone();
        // The crash ate both canary pushes: the fleet reports version 0.
        let fleet: BTreeMap<TargetId, u64> = (0..6u32).map(|t| (t, 0)).collect();
        drop(c);
        let (c2, actions) =
            RolloutController::recover(RolloutConfig::default(), SimDuration::ZERO, &durable, &fleet, T(5));
        assert_eq!(actions.len(), 1);
        let RolloutAction::Push { version: v, targets: re, epoch } = &actions[0] else {
            panic!("expected re-push, got {actions:?}");
        };
        assert_eq!((*v, *epoch), (version, 2));
        let mut re = re.clone();
        re.sort_unstable();
        let mut want = canary.clone();
        want.sort_unstable();
        assert_eq!(re, want, "exactly the journaled-but-unacked canary targets");
        assert!(c2.in_flight());
    }

    /// Crash mid-rollback: the journaled rollback intent is completed by
    /// the next incarnation for every target not yet back on the target
    /// version.
    #[test]
    fn recover_completes_mid_rollback() {
        let mut rng = SimRng::seed(13);
        let mut c = controller(6);
        // Converge v1 first so there is a last-known-good.
        let mut sizes = Vec::new();
        let t_conv = drive_to_converged(&mut c, &mut rng, T(0), &mut sizes, None);
        // Begin v2; canary NACKs; the rollback push is journaled but the
        // controller dies before it reaches the fleet.
        let actions = c.begin(t_conv, true, HealthSample::HEALTHY, &mut rng);
        let (v2, canary) = canary(&actions);
        c.nack(canary[0], v2);
        let rb = c.tick(t_conv + SimDuration::from_secs(1), None);
        assert!(matches!(rb[0], RolloutAction::Rollback { .. }));
        let durable = c.journal().clone();
        // The canary targets still report the poisoned v2.
        let mut fleet: BTreeMap<TargetId, u64> = (0..6u32).map(|t| (t, 1)).collect();
        for &t in &canary {
            fleet.insert(t, v2);
        }
        drop(c);
        let (c2, actions) = RolloutController::recover(
            RolloutConfig::default(),
            SimDuration::ZERO,
            &durable,
            &fleet,
            t_conv + SimDuration::from_secs(30),
        );
        assert_eq!(c2.phase(), RolloutPhase::RolledBack);
        assert!(!c2.in_flight());
        assert_eq!(actions.len(), 1);
        let RolloutAction::Rollback { to, targets: rb_t, epoch } = &actions[0] else {
            panic!("expected rollback completion, got {actions:?}");
        };
        assert_eq!((*to, *epoch), (1, 2));
        let mut rb_t = rb_t.clone();
        rb_t.sort_unstable();
        let mut want = canary.clone();
        want.sort_unstable();
        assert_eq!(rb_t, want, "exactly the still-poisoned targets roll back");
    }

    /// Crash mid-wave of a version the journal shows NACKed: recovery
    /// aborts to last-known-good instead of resuming.
    #[test]
    fn recover_aborts_nacked_version() {
        let mut rng = SimRng::seed(14);
        let mut c = controller(4);
        let mut sizes = Vec::new();
        let t_conv = drive_to_converged(&mut c, &mut rng, T(0), &mut sizes, None);
        let actions = c.begin(t_conv, true, HealthSample::HEALTHY, &mut rng);
        let (v2, canary) = canary(&actions);
        // NACK journaled, but the controller dies before its tick could
        // emit the rollback.
        c.nack(canary[0], v2);
        let durable = c.journal().clone();
        let mut fleet: BTreeMap<TargetId, u64> = (0..4u32).map(|t| (t, 1)).collect();
        fleet.insert(canary[1], v2);
        drop(c);
        let (c2, actions) = RolloutController::recover(
            RolloutConfig::default(),
            SimDuration::ZERO,
            &durable,
            &fleet,
            t_conv + SimDuration::from_secs(5),
        );
        assert_eq!(c2.phase(), RolloutPhase::RolledBack);
        assert_eq!(c2.rollbacks(), 1);
        let RolloutAction::Rollback { to, .. } = &actions[0] else {
            panic!("expected abort rollback, got {actions:?}");
        };
        assert_eq!(*to, 1, "aborts to the journaled last-known-good");
        let o = c2.outcomes().back().unwrap();
        assert_eq!(o.version, v2);
        assert!(matches!(o.result, RolloutResult::RolledBack(RollbackReason::Nack { .. })));
    }

    /// Terminal journal: recovery is idle and only catches up stragglers.
    #[test]
    fn recover_terminal_journal_catches_up_stragglers() {
        let mut rng = SimRng::seed(15);
        let mut c = controller(4);
        let mut sizes = Vec::new();
        drive_to_converged(&mut c, &mut rng, T(0), &mut sizes, None);
        let durable = c.journal().clone();
        let mut fleet: BTreeMap<TargetId, u64> = (0..4u32).map(|t| (t, 1)).collect();
        fleet.insert(3, 0); // one gateway restarted empty
        drop(c);
        let (c2, actions) =
            RolloutController::recover(RolloutConfig::default(), SimDuration::ZERO, &durable, &fleet, T(99));
        assert!(!c2.in_flight());
        assert_eq!(c2.last_known_good(), 1);
        assert_eq!(
            actions,
            vec![RolloutAction::Push { version: 1, targets: vec![3], epoch: 2 }]
        );
        assert_eq!(c2.catch_up_pushes, 1);
    }

    /// The outcome ring evicts past the cap, counts evictions, and stays
    /// digest-stable: two identically-driven controllers agree bit for bit
    /// even after eviction.
    #[test]
    fn outcome_eviction_is_bounded_and_digest_stable() {
        let fold = |c: &RolloutController| {
            Digest::of(|f| c.fold(f)).value()
        };
        let drive = |seed: u64| {
            let mut rng = SimRng::seed(seed);
            let mut c = controller(1);
            let mut now = T(0);
            // Each failed-validation begin records one outcome cheaply.
            for _ in 0..(ROLLOUT_OUTCOMES_RETAIN_CAP + 10) {
                c.begin(now, false, HealthSample::HEALTHY, &mut rng);
                now += SimDuration::from_secs(1);
            }
            c
        };
        let a = drive(21);
        let b = drive(21);
        assert_eq!(a.outcomes().len(), ROLLOUT_OUTCOMES_RETAIN_CAP);
        assert_eq!(a.outcomes_evicted(), 10);
        assert_eq!(fold(&a), fold(&b), "eviction preserves digest stability");
        let c = drive(22);
        assert_eq!(fold(&a), fold(&c), "seed does not leak into outcome ring");
    }
}

