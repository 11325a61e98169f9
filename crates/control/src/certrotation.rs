//! Certificate rotation waves: expiry-driven bundle cutting, distributed
//! through the [`crate::rollout`] machinery.
//!
//! §4.1.3 terminates every tenant's mTLS at the gateway, which turns trust
//! state — CA generation, revocation floor, cert expiry horizon — into
//! distributed control-plane state with the §2.2 outage potential of a
//! route table. A region rotates on the order of 100k workload certs per
//! tenant wave; pushing a bad bundle to the whole fleet at once is the
//! cert-shaped version of the bad-config outage. The
//! [`CertRotationController`] therefore never pushes a bundle directly:
//!
//! 1. **Schedule** — each registered tenant carries an expiry horizon; when
//!    `now + lead_time` crosses it (or the tenant's CA is flagged
//!    compromised), the controller cuts the next-generation bundle.
//! 2. **Validate** — the cut bundle runs the same content validation the
//!    gateways apply ([`ActiveCertBundle::validate`]); a bundle that fails
//!    here is never pushed anywhere (blast radius 0).
//! 3. **Distribute** — the bundle rides a [`RolloutController`] rollout:
//!    canary wave, NACK-gated exponential promotion, automatic rollback to
//!    the last *converged* bundle. A gateway that rejects the bundle
//!    (mismatched tenant, clock-skewed `not_after`, regressed generation)
//!    NACKs, and the fleet rolls back while every gateway keeps serving
//!    its running bundle (fail-static).
//! 4. **Observe** — a converged rotation advances the tenant's generation
//!    and expiry horizon; a rolled-back one leaves the tenant on its old
//!    bundle and retries after a backoff, so a persistently bad CA cannot
//!    melt the fleet by retrying in a tight loop.
//!
//! Compromise response ([`Self::flag_compromise`]) is the same wave with
//! two differences: it ignores the expiry schedule (rotates now) and the
//! cut bundle raises the revocation floor over every prior generation, so
//! stolen certs die fleet-wide the moment the wave converges.
//!
//! Everything runs on simulated time and folds into a [`Digest`]; double
//! runs are bit-identical.

use crate::rollout::{
    HealthSample, RolloutAction, RolloutConfig, RolloutController, RolloutOutcome, RolloutResult,
};
use crate::versioned::TargetId;
use canal_gateway::certs::{ActiveCertBundle, CertBundleSpec, TrustBundle};
use canal_sim::{Fold, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Most tenants a controller will track; registration beyond the cap is
/// refused (the roster is control-plane state, not request state).
pub(crate) const MAX_TENANTS: usize = 4096;

/// Most cut bundles retained for staging/rollback lookups; older bundles
/// that are no one's rollback target are evicted oldest-first.
pub(crate) const BUNDLE_CAP: usize = 256;

/// Rotation audit records kept (a bounded ring; older records evict).
pub(crate) const HISTORY_CAP: usize = 128;

/// Scheduling knobs for rotation waves.
#[derive(Debug, Clone, Copy)]
pub struct RotationConfig {
    /// Validity horizon of certs issued under a freshly cut bundle.
    pub cert_ttl: SimDuration,
    /// Rotation starts this long before the tenant's bundle expires.
    pub lead_time: SimDuration,
    /// A tenant whose rotation rolled back waits this long before the
    /// controller cuts another bundle for it.
    pub retry_backoff: SimDuration,
}

impl Default for RotationConfig {
    fn default() -> Self {
        RotationConfig {
            cert_ttl: SimDuration::from_secs(24 * 3600),
            lead_time: SimDuration::from_secs(3600),
            retry_backoff: SimDuration::from_secs(300),
        }
    }
}

/// Per-tenant certificate state the scheduler works from.
#[derive(Debug, Clone, Copy)]
struct TenantCertState {
    /// CA generation currently converged on the fleet.
    generation: u64,
    /// Revocation floor currently converged (serials below it are dead).
    revocation_floor: u64,
    /// When the converged bundle's certs expire.
    expiry: SimTime,
    /// Next rotation for this tenant must revoke all prior generations.
    compromised: bool,
    /// Earliest instant a new rotation may be cut (rollback backoff).
    retry_after: SimTime,
    /// Converged rotations for this tenant.
    rotations: u64,
    /// Version of the last *converged* bundle — the rollback target;
    /// protected from bundle eviction.
    converged_version: Option<u64>,
}

/// Audit record for one driven rotation wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationRecord {
    /// The rotating tenant.
    pub tenant: u64,
    /// Distribution version the bundle rode (0 if validation refused it).
    pub version: u64,
    /// CA generation the bundle carried.
    pub generation: u64,
    /// Whether the bundle revoked all prior generations (compromise).
    pub(crate) revoked_prior: bool,
    /// When the wave began.
    pub started_at: SimTime,
    /// When it reached a terminal phase.
    pub ended_at: SimTime,
    /// How the underlying rollout ended.
    pub result: RolloutResult,
}

/// The in-flight rotation (at most one; the rollout controller is serial,
/// so its version is the rollout's head until it settles).
#[derive(Debug, Clone, Copy)]
struct InFlightRotation {
    tenant: u64,
    generation: u64,
    revoked_prior: bool,
    expiry: SimTime,
    revocation_floor: u64,
}

/// Drives expiry-scheduled (and compromise-forced) cert rotation waves
/// through an owned [`RolloutController`]; see the module docs for the
/// full lifecycle.
#[derive(Debug)]
pub struct CertRotationController {
    cfg: RotationConfig,
    rollout: RolloutController,
    tenants: BTreeMap<u64, TenantCertState>,
    /// Cut bundles by distribution version — what the harness stages on a
    /// gateway when applying a `Push`/`Rollback` action.
    bundles: BTreeMap<u64, CertBundleSpec>,
    bundles_evicted: u64,
    in_flight: Option<InFlightRotation>,
    history: VecDeque<RotationRecord>,
    history_evicted: u64,
    rotations_converged: u64,
    rotations_rolled_back: u64,
}

impl CertRotationController {
    /// Controller over an empty fleet and tenant roster.
    pub fn new(cfg: RotationConfig, rollout_cfg: RolloutConfig) -> Self {
        CertRotationController {
            cfg,
            rollout: RolloutController::new(rollout_cfg, SimDuration::ZERO)
                .with_kind(crate::journal::RolloutKind::Cert),
            tenants: BTreeMap::new(),
            bundles: BTreeMap::new(),
            bundles_evicted: 0,
            in_flight: None,
            history: VecDeque::new(),
            history_evicted: 0,
            rotations_converged: 0,
            rotations_rolled_back: 0,
        }
    }

    /// Register a data-plane target (a gateway) with the owned rollout
    /// controller.
    pub fn add_target(&mut self, target: TargetId) {
        self.rollout.add_target(target);
    }

    /// Register a tenant with its currently-converged CA generation and
    /// cert expiry horizon. Returns false (and registers nothing) past
    /// [`MAX_TENANTS`] or if the generation is zero. Re-registering keeps
    /// the tenant's last converged bundle as its rollback target.
    pub fn register_tenant(&mut self, tenant: u64, generation: u64, expiry: SimTime) -> bool {
        if self.tenants.len() >= MAX_TENANTS && !self.tenants.contains_key(&tenant) {
            return false;
        }
        if generation == 0 {
            return false;
        }
        let converged_version = self.tenants.get(&tenant).and_then(|st| st.converged_version);
        self.tenants.insert(
            tenant,
            TenantCertState {
                generation,
                revocation_floor: generation << 32,
                expiry,
                compromised: false,
                retry_after: SimTime::ZERO,
                rotations: 0,
                converged_version,
            },
        );
        true
    }

    /// Flag a tenant's CA as compromised: the next tick cuts a rotation
    /// regardless of the expiry schedule, and the cut bundle raises the
    /// revocation floor over every prior generation.
    pub fn flag_compromise(&mut self, tenant: u64) -> bool {
        match self.tenants.get_mut(&tenant) {
            Some(st) => {
                st.compromised = true;
                true
            }
            None => false,
        }
    }

    /// An exposed gateway committed `version` for the in-flight bundle.
    pub fn ack(&mut self, target: TargetId, version: u64, now: SimTime) -> bool {
        self.rollout.ack(target, version, now)
    }

    /// An exposed gateway rejected `version` (its [`ActiveCertBundle`]
    /// refused to commit). The next tick rolls the wave back.
    pub fn nack(&mut self, target: TargetId, version: u64) -> bool {
        self.rollout.nack(target, version)
    }

    /// Advance the controller at `now`.
    ///
    /// * `health` feeds the rollout promotion gate (and anchors the
    ///   baseline of a wave begun this tick).
    /// * `clock_skew` models a skewed issuance clock at the controller
    ///   (the `cert-expiry-skew` fault): a cut bundle's horizon shrinks by
    ///   the skew, to a floor just above `now` — it passes the
    ///   controller-side check but is expired by the time a gateway's
    ///   clock sees it, so the canary NACKs and the wave rolls back.
    /// * `rng` shuffles the rollout push order (canary selection).
    ///
    /// Returns the data-plane actions to apply; resolve each action's
    /// version to its bundle via [`Self::bundle`].
    pub fn tick(
        &mut self,
        now: SimTime,
        health: Option<HealthSample>,
        clock_skew: Option<SimDuration>,
        rng: &mut SimRng,
    ) -> Vec<RolloutAction> {
        let mut actions = self.rollout.tick(now, health);
        if let Some(fl) = self.in_flight {
            // The rollout controller's last-known-good is global across
            // driven versions, but cert bundles are per-tenant: a rollback
            // must restore the *rotating tenant's* last converged bundle (0
            // when it never converged one — gateways then just keep their
            // running bundle, fail-static).
            let restore = self.converged_version(fl.tenant).unwrap_or(0);
            for a in &mut actions {
                if let RolloutAction::Rollback { to, .. } = a {
                    *to = restore;
                }
            }
            // The rotation ends when its rollout does, with its outcome.
            if !self.rollout.in_flight() {
                if let Some(&outcome) = self.rollout.outcomes().back() {
                    self.settle(fl, outcome);
                }
            }
        }
        if self.in_flight.is_none() {
            if let Some(tenant) = self.next_due(now) {
                actions.extend(self.cut_and_begin(tenant, now, health, clock_skew, rng));
            }
        }
        actions
    }

    /// The earliest-expiring tenant due for rotation: inside its lead
    /// window or compromised, and past its rollback backoff.
    fn next_due(&self, now: SimTime) -> Option<u64> {
        let mut due: Option<(SimTime, u64)> = None;
        for (&tenant, st) in &self.tenants {
            if now < st.retry_after {
                continue;
            }
            let horizon = now + self.cfg.lead_time;
            if !st.compromised && horizon < st.expiry {
                continue;
            }
            // Compromised tenants sort ahead of schedule-driven ones.
            let key = if st.compromised { SimTime::ZERO } else { st.expiry };
            if due.is_none_or(|(best, _)| key < best) {
                due = Some((key, tenant));
            }
        }
        due.map(|(_, t)| t)
    }

    /// Cut the next-generation bundle for `tenant` and begin its rollout.
    fn cut_and_begin(
        &mut self,
        tenant: u64,
        now: SimTime,
        health: Option<HealthSample>,
        clock_skew: Option<SimDuration>,
        rng: &mut SimRng,
    ) -> Vec<RolloutAction> {
        let st = self.tenants[&tenant];
        let generation = st.generation + 1;
        let revoked_prior = st.compromised;
        let revocation_floor = if revoked_prior {
            generation << 32
        } else {
            st.revocation_floor
        };
        let ttl = match clock_skew {
            Some(skew) => {
                let shrunk = self.cfg.cert_ttl.saturating_sub(skew);
                if shrunk == SimDuration::ZERO {
                    SimDuration::from_nanos(1)
                } else {
                    shrunk
                }
            }
            None => self.cfg.cert_ttl,
        };
        let mut spec = CertBundleSpec {
            trust: TrustBundle {
                version: 0, // patched once the rollout allocates one
                tenant,
                generation,
                revocation_floor,
                revoked: Vec::new(),
            },
            issued_at: now,
            not_after: now + ttl,
        };
        let valid = ActiveCertBundle::validate(&spec, now, tenant, st.generation).is_ok();
        let baseline = health.unwrap_or(HealthSample::HEALTHY);
        let actions = self.rollout.begin(now, valid, baseline, rng);
        match actions.first() {
            Some(RolloutAction::Push { version, .. }) => {
                spec.trust.version = *version;
                self.in_flight = Some(InFlightRotation {
                    tenant,
                    generation,
                    revoked_prior,
                    expiry: spec.not_after,
                    revocation_floor,
                });
                self.retain_bundle(*version, spec);
            }
            _ => {
                // Refused controller-side (FailedValidation, blast radius
                // 0): no flight, no bundle. Record it and back the tenant
                // off so the controller does not re-cut the same bad bundle
                // every tick.
                self.push_record(RotationRecord {
                    tenant,
                    version: self.rollout.store().version(),
                    generation,
                    revoked_prior,
                    started_at: now,
                    ended_at: now,
                    result: RolloutResult::FailedValidation,
                });
                self.back_off(tenant, now);
            }
        }
        actions
    }

    /// Retain a cut bundle for staging/rollback lookups, evicting the
    /// oldest unprotected bundle past [`BUNDLE_CAP`].
    fn retain_bundle(&mut self, version: u64, spec: CertBundleSpec) {
        self.bundles.insert(version, spec);
        while self.bundles.len() > BUNDLE_CAP {
            let victim = self
                .bundles
                .keys()
                .find(|&&v| !self.tenants.values().any(|st| st.converged_version == Some(v)))
                .copied();
            match victim {
                Some(v) => {
                    self.bundles.remove(&v);
                    self.bundles_evicted += 1;
                }
                None => break,
            }
        }
    }

    /// Map the outcome of the in-flight rotation's rollout back into its
    /// tenant's state.
    fn settle(&mut self, fl: InFlightRotation, outcome: RolloutOutcome) {
        self.in_flight = None;
        self.push_record(RotationRecord {
            tenant: fl.tenant,
            version: outcome.version,
            generation: fl.generation,
            revoked_prior: fl.revoked_prior,
            started_at: outcome.started_at,
            ended_at: outcome.ended_at,
            result: outcome.result,
        });
        if outcome.result != RolloutResult::Converged {
            self.back_off(fl.tenant, outcome.ended_at);
            return;
        }
        if let Some(st) = self.tenants.get_mut(&fl.tenant) {
            st.generation = fl.generation;
            st.revocation_floor = fl.revocation_floor;
            st.expiry = fl.expiry;
            st.compromised = false;
            st.rotations += 1;
            st.converged_version = Some(outcome.version);
            self.rotations_converged += 1;
        }
    }

    /// A rotation of `tenant` that ended at `ended_at` without converging:
    /// the tenant keeps its bundle and waits out the retry backoff.
    fn back_off(&mut self, tenant: u64, ended_at: SimTime) {
        if let Some(st) = self.tenants.get_mut(&tenant) {
            st.retry_after = ended_at + self.cfg.retry_backoff;
            self.rotations_rolled_back += 1;
        }
    }

    fn push_record(&mut self, record: RotationRecord) {
        self.history.push_back(record);
        while self.history.len() > HISTORY_CAP {
            self.history.pop_front();
            self.history_evicted += 1;
        }
    }

    /// The bundle cut for `version`, if still retained — what the harness
    /// stages on a gateway for a `Push` or `Rollback` action.
    pub fn bundle(&self, version: u64) -> Option<&CertBundleSpec> {
        self.bundles.get(&version)
    }

    /// The last converged bundle version for `tenant` (its rollback
    /// target), if any rotation has converged.
    pub fn converged_version(&self, tenant: u64) -> Option<u64> {
        self.tenants.get(&tenant).and_then(|st| st.converged_version)
    }

    /// Rotation waves begun (including controller-side refusals): each
    /// has converged, been rolled back or refused, or is in flight.
    pub fn rotations_started(&self) -> u64 {
        self.rotations_converged + self.rotations_rolled_back + self.in_flight.is_some() as u64
    }

    /// The rotation audit ring (newest last).
    pub fn history(&self) -> impl Iterator<Item = &RotationRecord> {
        self.history.iter()
    }

    /// Fold the full controller state into a digest.
    pub fn fold(&self, f: &mut impl Fold) {
        let Self {
            rollout, tenants, bundles, bundles_evicted, in_flight, history, history_evicted,
            rotations_converged, rotations_rolled_back,
            cfg: _, // config: fixed at construction
        } = self;
        f.scope("rollout", |f| rollout.fold(f));
        f.write_u64(tenants.len() as u64);
        for (tenant, st) in tenants {
            f.write_u64(*tenant)
                .write_u64(st.generation)
                .write_u64(st.revocation_floor)
                .write_u64(st.expiry.as_nanos())
                .write_u64(st.compromised as u64)
                .write_u64(st.retry_after.as_nanos())
                .count("rotations", st.rotations);
        }
        f.write_u64(bundles.len() as u64);
        for (version, spec) in bundles {
            f.write_u64(*version);
            spec.fold(f);
        }
        f.count("bundles_evicted", *bundles_evicted);
        for (tenant, st) in tenants {
            if let Some(version) = st.converged_version {
                f.write_u64(*tenant).write_u64(version);
            }
        }
        match in_flight {
            None => {
                f.write_u64(0);
            }
            Some(fl) => {
                f.write_u64(1)
                    .write_u64(fl.tenant)
                    .write_u64(rollout.store().version())
                    .write_u64(fl.generation)
                    .write_u64(fl.revoked_prior as u64)
                    .write_u64(fl.expiry.as_nanos())
                    .write_u64(fl.revocation_floor);
            }
        }
        f.write_u64(history.len() as u64);
        for r in history {
            f.write_u64(r.tenant)
                .write_u64(r.version)
                .write_u64(r.generation)
                .write_u64(r.started_at.as_nanos())
                .write_u64(r.ended_at.as_nanos());
        }
        // Every rollout outcome is settled by the tick that produced it.
        let observed_outcomes = rollout.outcomes_evicted() + rollout.outcomes().len() as u64;
        f.count("history_evicted", *history_evicted)
            .count("observed_outcomes", observed_outcomes)
            .count("rotations_started", self.rotations_started())
            .count("rotations_converged", *rotations_converged)
            .count("rotations_rolled_back", *rotations_rolled_back);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rollout::RolloutPhase;

    fn quick_rollout() -> RolloutConfig {
        RolloutConfig {
            canary_size: 2,
            wave_growth: 4,
            bake_time: SimDuration::from_secs(5),
            ack_timeout: SimDuration::from_secs(5),
            ..RolloutConfig::default()
        }
    }

    fn controller(targets: u32) -> CertRotationController {
        let mut c = CertRotationController::new(
            RotationConfig {
                cert_ttl: SimDuration::from_secs(3600),
                lead_time: SimDuration::from_secs(600),
                retry_backoff: SimDuration::from_secs(120),
            },
            quick_rollout(),
        );
        for t in 0..targets {
            c.add_target(t);
        }
        c
    }

    /// Ack every push in `actions` at `now`.
    fn ack_pushes(c: &mut CertRotationController, actions: &[RolloutAction], now: SimTime) {
        for a in actions {
            if let RolloutAction::Push { version, targets, .. } = a {
                assert!(c.bundle(*version).is_some(), "push resolves to a bundle");
                for t in targets {
                    c.ack(*t, *version, now);
                }
            }
        }
    }

    /// Drive a wave to convergence by acking every push immediately.
    fn drive_to_converged(c: &mut CertRotationController, start: SimTime, rng: &mut SimRng) {
        let mut now = start;
        for _ in 0..64 {
            let actions = c.tick(now, None, None, rng);
            ack_pushes(c, &actions, now);
            if c.rollout.phase() == RolloutPhase::Converged {
                return;
            }
            now += SimDuration::from_secs(1);
        }
        panic!("rotation did not converge");
    }

    #[test]
    fn expiry_schedules_rotation_inside_lead_window() {
        let mut c = controller(8);
        let mut rng = SimRng::seed(7);
        c.register_tenant(1, 1, SimTime::from_secs(10_000));
        // Outside the lead window: nothing happens.
        let actions = c.tick(SimTime::from_secs(100), None, None, &mut rng);
        assert!(actions.is_empty());
        assert_eq!(c.rotations_started(), 0);
        // Inside the lead window (expiry - lead = 9400s): a wave begins.
        let actions = c.tick(SimTime::from_secs(9_500), None, None, &mut rng);
        assert_eq!(actions.len(), 1);
        assert_eq!(c.in_flight.map(|f| f.tenant), Some(1));
        ack_pushes(&mut c, &actions, SimTime::from_secs(9_500));
        drive_to_converged(&mut c, SimTime::from_secs(9_501), &mut rng);
        assert_eq!(c.tenants[&1].generation, 2);
        assert_eq!(c.rotations_converged, 1);
        // Expiry advanced: a fresh tick schedules nothing.
        let again = c.tick(SimTime::from_secs(9_560), None, None, &mut rng);
        assert!(again.is_empty());
    }

    #[test]
    fn nacked_bundle_rolls_back_and_backs_off() {
        let mut c = controller(8);
        let mut rng = SimRng::seed(7);
        c.register_tenant(1, 1, SimTime::from_secs(1_000));
        // First rotation converges so there is a last-known-good.
        let t0 = SimTime::from_secs(500);
        let first = c.tick(t0, None, None, &mut rng);
        assert_eq!(first.len(), 1);
        ack_pushes(&mut c, &first, t0);
        drive_to_converged(&mut c, t0 + SimDuration::from_secs(1), &mut rng);
        let good = c.converged_version(1).unwrap();
        // Second rotation: the canary NACKs.
        let t1 = c.tenants[&1].expiry;
        let actions = c.tick(t1, None, None, &mut rng);
        let (version, canary) = match &actions[..] {
            [RolloutAction::Push { version, targets, .. }] => (*version, targets.clone()),
            other => panic!("expected one push, got {other:?}"),
        };
        c.nack(canary[0], version);
        let rb = c.tick(t1 + SimDuration::from_secs(1), None, None, &mut rng);
        assert!(
            rb.iter().any(|a| matches!(a, RolloutAction::Rollback { to, .. } if *to == good)),
            "rollback targets the last converged bundle: {rb:?}"
        );
        // Tenant state unchanged; retry is backed off.
        assert_eq!(c.tenants[&1].generation, 2);
        assert_eq!(c.rotations_rolled_back, 1);
        let quiet = c.tick(t1 + SimDuration::from_secs(2), None, None, &mut rng);
        assert!(quiet.is_empty(), "backoff holds: {quiet:?}");
        let retry = c.tick(t1 + SimDuration::from_secs(122), None, None, &mut rng);
        assert_eq!(retry.len(), 1, "rotation retries after backoff");
    }

    #[test]
    fn compromise_rotates_immediately_and_raises_floor() {
        let mut c = controller(4);
        let mut rng = SimRng::seed(3);
        c.register_tenant(9, 3, SimTime::from_secs(1_000_000));
        c.flag_compromise(9);
        let t0 = SimTime::from_secs(10);
        let actions = c.tick(t0, None, None, &mut rng);
        assert_eq!(actions.len(), 1, "compromise ignores the expiry schedule");
        let version = match &actions[0] {
            RolloutAction::Push { version, .. } => *version,
            other => panic!("expected push, got {other:?}"),
        };
        let spec = c.bundle(version).unwrap();
        assert_eq!(spec.trust.generation, 4);
        assert_eq!(spec.trust.revocation_floor, 4 << 32, "prior generations revoked");
        ack_pushes(&mut c, &actions, t0);
        drive_to_converged(&mut c, t0 + SimDuration::from_secs(1), &mut rng);
        assert_eq!(c.tenants[&9].generation, 4);
    }

    #[test]
    fn clock_skew_poisons_the_cut_bundle_but_not_the_controller() {
        let mut c = controller(4);
        let mut rng = SimRng::seed(11);
        c.register_tenant(1, 1, SimTime::from_secs(100));
        let t0 = SimTime::from_secs(50);
        // Skew ≥ ttl: the bundle's horizon collapses to just above `now` —
        // it passes controller-side validation (and was pushed), but any
        // later gateway clock sees it expired.
        let actions = c.tick(t0, None, Some(SimDuration::from_secs(7200)), &mut rng);
        assert_eq!(actions.len(), 1, "poisoned bundle still passes the cut check");
        let version = match &actions[0] {
            RolloutAction::Push { version, .. } => *version,
            other => panic!("expected push, got {other:?}"),
        };
        let spec = c.bundle(version).unwrap();
        let later = t0 + SimDuration::from_secs(1);
        assert!(
            ActiveCertBundle::validate(spec, later, 1, 1).is_err(),
            "a gateway clock one second later rejects the bundle"
        );
    }

    #[test]
    fn tenant_roster_is_capped() {
        let mut c = controller(1);
        assert!(!c.register_tenant(1, 0, SimTime::ZERO), "generation 0 refused");
        for t in 0..MAX_TENANTS as u64 {
            assert!(c.register_tenant(t, 1, SimTime::MAX));
        }
        assert!(!c.register_tenant(u64::MAX, 1, SimTime::MAX), "roster capped");
        assert!(c.register_tenant(3, 2, SimTime::MAX), "re-registration allowed");
    }
}
