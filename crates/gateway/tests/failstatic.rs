//! The fail-static contract (DESIGN.md §11), tested once against
//! [`FailStatic`] and instantiated for the route, policy and cert planes.
//!
//! * `golden_*`: a fixed script per plane whose per-step results and
//!   digests were captured from the commit *before* the three hand-written
//!   slots became one generic (PR 13); any change to an outcome or to the
//!   byte sequence `fold_digest` emits moves them.
//! * `contract_*`: seeded random sequences of every operation with valid,
//!   stale and poisoned specs, checked step by step against a small model
//!   and against the invariants stated on [`FailStatic`].

use canal_gateway::certs::{CertBundleSpec, CertPlane, TrustBundle};
use canal_gateway::config::{ConfigSpec, RoutePlane, RouteSpec};
use canal_gateway::policy::PolicyPlane;
use canal_gateway::{FailStatic, Plane, Rejection};
use canal_net::{GlobalServiceId, TenantId, VpcId};
use canal_policy::{PolicyRule, PolicySpec, PolicyVerdict, TenantPolicy};
use canal_sim::{Digest, SimRng, SimTime};
use std::collections::BTreeSet;
use std::fmt::Debug;

const CASES: u64 = 64;
const STEPS: usize = 200;

/// A plane plus what the tests need to drive it: specs of any version that
/// pass or fail its content check, and a commit context.
trait Fixture: Plane {
    fn make(version: u64, poisoned: bool) -> Self::Spec;
    fn ctx(known: &BTreeSet<GlobalServiceId>) -> Self::Ctx<'_>;
}

/// The one service the route fixture's gateway knows.
fn known() -> BTreeSet<GlobalServiceId> {
    BTreeSet::from([GlobalServiceId(7)])
}

impl Fixture for RoutePlane {
    /// Poison: a route to a service the gateway does not know.
    fn make(version: u64, poisoned: bool) -> ConfigSpec {
        ConfigSpec {
            version,
            routes: vec![RouteSpec {
                service: GlobalServiceId(if poisoned { 9 } else { 7 }),
                backends: (0..=(version % 3) as u32).collect(),
            }],
        }
    }

    fn ctx(known: &BTreeSet<GlobalServiceId>) -> &BTreeSet<GlobalServiceId> {
        known
    }
}

impl Fixture for PolicyPlane {
    /// Poison: an inverted port range, which does not compile.
    fn make(version: u64, poisoned: bool) -> PolicySpec {
        let port = 1000 + version as u16;
        let rule = if poisoned {
            PolicyRule::deny().with_ports(port, 80)
        } else {
            PolicyRule::allow().with_ports(80, port)
        };
        PolicySpec {
            version,
            tenants: vec![TenantPolicy {
                tenant: TenantId(1),
                vpc: VpcId(1),
                rules: vec![rule],
                default_action: PolicyVerdict::Deny,
            }],
        }
    }

    fn ctx(_: &BTreeSet<GlobalServiceId>) {}
}

impl Fixture for CertPlane {
    /// Poison: a validity horizon not after the issuance instant. The CA
    /// generation follows the version, so every rollback to an older
    /// version is also a generation regression, which only a rollback may
    /// do (and version 0 is generation 0, which nothing may).
    fn make(version: u64, poisoned: bool) -> CertBundleSpec {
        CertBundleSpec {
            trust: TrustBundle {
                version,
                tenant: 7,
                generation: version,
                revocation_floor: version << 32,
                revoked: vec![version],
            },
            issued_at: SimTime::ZERO,
            not_after: SimTime::from_secs(if poisoned { 0 } else { 3600 }),
        }
    }

    fn ctx(_: &BTreeSet<GlobalServiceId>) -> u64 {
        7
    }
}

/// One call on a slot. Specs are `(version, poisoned)`; the last field of a
/// fenced call and of `Observe` is the controller epoch.
#[derive(Debug, Clone, Copy)]
enum Op {
    Stage(u64, bool),
    StageFenced(u64, bool, u64),
    Commit,
    RollBack(u64, bool),
    RollBackFenced(u64, bool, u64),
    Observe(u64),
}

type Outcome<C> = Result<u64, Rejection<C>>;

/// Run `op` at `now`. Calls that return no version report 0, `Observe`
/// whether the floor advanced.
fn apply<P: Fixture>(
    slot: &mut FailStatic<P>,
    op: Op,
    now: SimTime,
    known: &BTreeSet<GlobalServiceId>,
) -> Outcome<P::Reject> {
    match op {
        Op::Stage(v, p) => {
            slot.stage(P::make(v, p));
            Ok(0)
        }
        Op::StageFenced(v, p, epoch) => slot.stage_fenced(P::make(v, p), epoch).map(|()| 0),
        Op::Commit => slot.commit(now, P::ctx(known)),
        Op::RollBack(v, p) => slot.roll_back_to(now, P::make(v, p), P::ctx(known)),
        Op::RollBackFenced(v, p, epoch) => {
            slot.roll_back_to_fenced(now, P::make(v, p), P::ctx(known), epoch)
        }
        Op::Observe(epoch) => Ok(slot.observe_epoch(epoch) as u64),
    }
}

fn digest_of<P: Plane>(slot: &FailStatic<P>) -> u64 {
    let mut d = Digest::new();
    slot.fold_digest(&mut d);
    d.value()
}

/// Empty commit, first commit, replay, poison, fenced push, epoch
/// announcements, a zombie's push and rollback, the live controller's
/// rollback to an older version, a poisoned rollback target, and a spec
/// left staged; step `i` runs at second `i + 1`.
const SCRIPT: [Op; 16] = [
    Op::Commit,
    Op::Stage(1, false),
    Op::Commit,
    Op::Stage(1, false),
    Op::Commit,
    Op::Stage(2, true),
    Op::Commit,
    Op::StageFenced(2, false, 3),
    Op::Commit,
    Op::Observe(5),
    Op::Observe(4),
    Op::StageFenced(3, false, 4),
    Op::RollBackFenced(1, false, 4),
    Op::RollBackFenced(1, false, 5),
    Op::RollBack(0, true),
    Op::Stage(7, false),
];

/// Run [`SCRIPT`]. `results` spells each step's outcome (`+v` a version or
/// count, `N` nothing staged, `Vs/r` stale version, `Ep/f` fenced, `C:..`
/// the content check), `trace` folds the slot after every step, `last` is
/// the slot at the end.
fn golden<P: Fixture>(results: &str, trace: u64, last: u64)
where
    P::Reject: Debug,
{
    let mut slot = FailStatic::<P>::new();
    let mut folded = Digest::new();
    let mut out = Vec::new();
    for (i, &op) in SCRIPT.iter().enumerate() {
        out.push(match apply(&mut slot, op, SimTime::from_secs(i as u64 + 1), &known()) {
            Ok(v) => format!("+{v}"),
            Err(Rejection::NothingStaged) => "N".into(),
            Err(Rejection::StaleVersion { staged, running }) => format!("V{staged}/{running}"),
            Err(Rejection::StaleEpoch { pushed, floor }) => format!("E{pushed}/{floor}"),
            Err(Rejection::Content(c)) => format!("C:{c:?}"),
        });
        slot.fold_digest(&mut folded);
    }
    assert_eq!(out.join(" "), results);
    assert_eq!(folded.value(), trace, "digest after each step");
    assert_eq!(digest_of(&slot), last, "final digest");
}

#[test]
fn golden_routes() {
    golden::<RoutePlane>(
        "N +0 +1 +0 V1/1 +0 C:UnknownService(gsvc(tenant0/svc9)) +0 +2 +1 +0 E4/5 E4/5 +1 \
         C:UnknownService(gsvc(tenant0/svc9)) +0",
        0x8cac_450a_c824_df11,
        0x7e53_32d4_8247_4d4f,
    );
}

#[test]
fn golden_policy() {
    golden::<PolicyPlane>(
        "N +0 +1 +0 V1/1 +0 C:InvertedPortRange { tenant: tenant1, rule: 0 } +0 +2 +1 +0 E4/5 E4/5 +1 \
         C:InvertedPortRange { tenant: tenant1, rule: 0 } +0",
        0x6323_7d37_c04b_068b,
        0x4dc7_7900_aeaf_7566,
    );
}

#[test]
fn golden_certs() {
    golden::<CertPlane>(
        "N +0 +1 +0 V1/1 +0 C:ClockSkewedNotAfter +0 +2 +1 +0 E4/5 E4/5 +1 \
         C:BadCaGeneration { staged: 0, running: 0 } +0",
        0x062d_0075_0d81_dd23,
        0x1d37_8a3d_a0bf_8d11,
    );
}

/// What the contract says a slot holds, over versions alone. `staged`
/// remembers whether the staged spec is poisoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Model {
    running: Option<u64>,
    staged: Option<(u64, bool)>,
    committed_at: Option<SimTime>,
    commits: u64,
    rejections: u64,
    floor: u64,
    fenced: u64,
}

impl Model {
    fn apply(&mut self, op: Op, now: SimTime) -> Outcome<()> {
        match op {
            Op::Stage(v, p) => {
                self.staged = Some((v, p));
                Ok(0)
            }
            Op::StageFenced(v, p, epoch) => {
                self.fence(epoch)?;
                self.apply(Op::Stage(v, p), now)
            }
            // Version before content; every refusal counts and clears `staged`.
            Op::Commit => {
                let (staged, poisoned) = self.staged.take().ok_or(Rejection::NothingStaged)?;
                let verdict = match self.running {
                    Some(running) if staged <= running => Err(Rejection::StaleVersion { staged, running }),
                    _ => self.admit(staged, poisoned, now),
                };
                self.rejections += verdict.is_err() as u64;
                verdict
            }
            // No version check; a refused rollback is not a counted
            // rejection and leaves `staged` alone.
            Op::RollBack(v, p) => {
                let version = self.admit(v, p, now)?;
                self.staged = None;
                Ok(version)
            }
            Op::RollBackFenced(v, p, epoch) => {
                self.fence(epoch)?;
                self.apply(Op::RollBack(v, p), now)
            }
            Op::Observe(epoch) => {
                let advanced = epoch > self.floor;
                self.floor = self.floor.max(epoch);
                Ok(advanced as u64)
            }
        }
    }

    /// A stale epoch changes nothing but `fenced`.
    fn fence(&mut self, epoch: u64) -> Result<(), Rejection<()>> {
        if epoch < self.floor {
            self.fenced += 1;
            return Err(Rejection::StaleEpoch { pushed: epoch, floor: self.floor });
        }
        self.floor = epoch;
        Ok(())
    }

    fn admit(&mut self, version: u64, poisoned: bool, now: SimTime) -> Outcome<()> {
        if poisoned {
            return Err(Rejection::Content(()));
        }
        self.running = Some(version);
        self.committed_at = Some(now);
        self.commits += 1;
        Ok(version)
    }

    fn of<P: Plane>(slot: &FailStatic<P>, poisoned: bool) -> Model {
        Model {
            running: slot.running_version(),
            staged: slot.staged().map(|s| (P::version(s), poisoned)),
            committed_at: slot.committed_at(),
            commits: slot.commits(),
            rejections: slot.rejections(),
            floor: slot.epoch_floor(),
            fenced: slot.fenced_pushes(),
        }
    }
}

fn served_digest<P: Plane>(served: &P::Served) -> u64 {
    let mut d = Digest::new();
    P::fold_served(served, &mut d);
    d.value()
}

fn contract<P: Fixture>() {
    let known = &known();
    for case in 0..CASES {
        let mut rng = SimRng::seed(0xFA11_57A7 ^ case);
        let mut slot = FailStatic::<P>::new();
        let mut model = Model::default();
        for step in 0..STEPS {
            let (was, digest_was) = (model, digest_of(&slot));
            let served_was = slot.running().map(served_digest::<P>);
            // Versions straddle the running one; version 0 stays out because
            // the cert fixture's generation follows it.
            let v = rng.int_range(1, model.running.unwrap_or(0) + 3);
            let p = rng.chance(0.25);
            let epoch = rng.int_range(model.floor.saturating_sub(2), model.floor + 3);
            let op = [
                Op::Stage(v, p),
                Op::StageFenced(v, p, epoch),
                Op::Commit,
                Op::RollBack(v, p),
                Op::RollBackFenced(v, p, epoch),
                Op::Observe(epoch),
            ][rng.index(6)];
            let now = SimTime::from_secs(step as u64);
            let at = format!("case {case} step {step} {op:?}");

            let got = apply(&mut slot, op, now, known).map_err(|r| match r {
                Rejection::Content(_) => Rejection::Content(()),
                Rejection::StaleVersion { staged, running } => Rejection::StaleVersion { staged, running },
                Rejection::NothingStaged => Rejection::NothingStaged,
                Rejection::StaleEpoch { pushed, floor } => Rejection::StaleEpoch { pushed, floor },
            });
            assert_eq!(got, model.apply(op, now), "{at}");
            let staged_poisoned = model.staged.is_some_and(|(_, p)| p);
            assert_eq!(Model::of(&slot, staged_poisoned), model, "{at}");

            assert!(model.floor >= was.floor, "{at}: the epoch floor is monotone");
            if let Err(rejection) = got {
                let served = slot.running().map(served_digest::<P>);
                assert_eq!(served, served_was, "{at}: a refusal leaves what is served untouched");
                if matches!(rejection, Rejection::StaleEpoch { .. }) {
                    let fenced = Model { fenced: was.fenced + 1, ..was };
                    assert_eq!(model, fenced, "{at}: a fenced call counts, nothing else");
                } else if matches!(op, Op::Commit) {
                    assert!(slot.staged().is_none(), "{at}: a refused commit clears staged");
                } else {
                    // (Its fence, passed first, may still have raised the floor.)
                    let unfenced = Model { floor: was.floor, ..model };
                    assert_eq!(unfenced, was, "{at}: a refused rollback moves nothing");
                }
            } else if matches!(op, Op::Commit) {
                assert!(model.running > was.running, "{at}: commits strictly increase the version");
            }
            let moved = digest_of(&slot) != digest_was;
            assert_eq!(moved, model != was, "{at}: the digest moves with the state");
            if let (Some(served), Some(at_commit)) = (slot.running(), slot.committed_at()) {
                // Admitting the served spec again, as a rollback would, rebuilds the served form.
                let spec = P::spec(served).clone();
                let again = P::admit(spec, at_commit, P::ctx(known), None).ok();
                assert_eq!(
                    again.as_ref().map(served_digest::<P>),
                    Some(served_digest::<P>(served)),
                    "{at}: what is served is what its spec admits to"
                );
            }
        }
        let exercised = model.commits > 0 && model.rejections > 0 && model.fenced > 0;
        assert!(exercised, "case {case} exercised too little");
    }
}

#[test]
fn contract_routes() {
    contract::<RoutePlane>();
}

#[test]
fn contract_policy() {
    contract::<PolicyPlane>();
}

#[test]
fn contract_certs() {
    contract::<CertPlane>();
}
