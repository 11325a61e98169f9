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
//! * `sharing_*`: the policy plane compiles a commit against what is
//!   running and shares the tables of the tenants the push left alone, so
//!   the same histories run over many-tenant specs: what is served is
//!   always what a compile of its spec from scratch builds, a refusal
//!   leaves every tenant's tables where they were, and a holder of an older
//!   version keeps that version. The documents share their tenants the same
//!   way: an edit of the operator's copy in place moves nothing a gateway
//!   has staged or runs and nothing the archive holds. And the shared
//!   document carries the tables compiled from it: a fleet that is pushed
//!   clones of one document compiles each tenant once, and a rollback to a
//!   document the archive still holds compiles nothing.

use canal_gateway::certs::{CertBundleSpec, CertPlane, TrustBundle};
use canal_gateway::config::{ConfigSpec, RoutePlane, RouteSpec};
use canal_gateway::policy::PolicyPlane;
use canal_gateway::{ActivePolicy, FailStatic, Plane, Rejection};
use canal_net::{GlobalServiceId, TenantId, VpcId};
use canal_policy::{
    CompiledPolicySet, L4Ctx, L4Verdict, PolicyRule, PolicySpec, PolicyStore, PolicyVerdict,
    PortRange, TenantPolicy,
};
use canal_sim::{Digest, SimRng, SimTime};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::sync::Arc;

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
            tenants: [TenantPolicy {
                tenant: TenantId(1),
                vpc: VpcId(1),
                rules: vec![rule],
                default_action: PolicyVerdict::Deny,
            }]
            .into_iter()
            .collect(),
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

/// Run `op` at `now` with the fixture's specs.
fn apply<P: Fixture>(
    slot: &mut FailStatic<P>,
    op: Op,
    now: SimTime,
    known: &BTreeSet<GlobalServiceId>,
) -> Outcome<P::Reject> {
    apply_with(slot, op, now, P::ctx(known), P::make)
}

/// Run `op` at `now`, its spec built by `make`. Calls that return no version
/// report 0, `Observe` whether the floor advanced.
fn apply_with<P: Plane>(
    slot: &mut FailStatic<P>,
    op: Op,
    now: SimTime,
    ctx: P::Ctx<'_>,
    make: fn(u64, bool) -> P::Spec,
) -> Outcome<P::Reject> {
    match op {
        Op::Stage(v, p) => {
            slot.stage(make(v, p));
            Ok(0)
        }
        Op::StageFenced(v, p, epoch) => slot.stage_fenced(make(v, p), epoch).map(|()| 0),
        Op::Commit => slot.commit(now, ctx),
        Op::RollBack(v, p) => slot.roll_back_to(now, make(v, p), ctx),
        Op::RollBackFenced(v, p, epoch) => slot.roll_back_to_fenced(now, make(v, p), ctx, epoch),
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

/// A random call on a slot running `running` under epoch floor `floor`: a
/// quarter of the specs poisoned, versions straddling the running one
/// (version 0 stays out because the cert fixture's generation follows it),
/// epochs straddling the floor.
fn random_op(rng: &mut SimRng, running: Option<u64>, floor: u64) -> Op {
    let v = rng.int_range(1, running.unwrap_or(0) + 3);
    let p = rng.chance(0.25);
    let epoch = rng.int_range(floor.saturating_sub(2), floor + 3);
    [
        Op::Stage(v, p),
        Op::StageFenced(v, p, epoch),
        Op::Commit,
        Op::RollBack(v, p),
        Op::RollBackFenced(v, p, epoch),
        Op::Observe(epoch),
    ][rng.index(6)]
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
            let op = random_op(&mut rng, model.running, model.floor);
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

/// Tenants of the sharing tests' specs.
const SHARED_TENANTS: u32 = 6;

/// Version `v` of a [`SHARED_TENANTS`]-tenant policy: every tenant allows
/// ports 80 to 1000 except tenant `1 + v % SHARED_TENANTS`, which allows up
/// to `1000 + v` (poisoned: an inverted range instead). Two versions differ
/// in at most those two tenants.
fn tenants_spec(version: u64, poisoned: bool) -> PolicySpec {
    let edited = 1 + (version % u64::from(SHARED_TENANTS)) as u32;
    let tenants = (1..=SHARED_TENANTS)
        .map(|t| {
            let rule = match (t == edited, poisoned) {
                (false, _) => PolicyRule::allow().with_ports(80, 1000),
                (true, false) => PolicyRule::allow().with_ports(80, 1000 + version as u16),
                (true, true) => PolicyRule::allow().with_ports(1000 + version as u16, 80),
            };
            TenantPolicy {
                tenant: TenantId(t),
                vpc: VpcId(t),
                rules: vec![PolicyRule::deny().with_ports(22, 22), rule],
                default_action: PolicyVerdict::Deny,
            }
        })
        .collect();
    PolicySpec { version, tenants }
}

fn set_digest(set: &CompiledPolicySet) -> u64 {
    let mut d = Digest::new();
    set.fold_digest(&mut d);
    d.value()
}

/// The contract's random histories over many-tenant policy specs. After
/// every step the tables served are the ones a compile of the running spec
/// from scratch builds; a refusal of any kind leaves all of them where they
/// were; a commit keeps the tables of every tenant the two versions agree
/// on; a rollback, admitted with nothing running to compare against, keeps
/// none.
#[test]
fn sharing_policy_histories_serve_what_a_compile_from_scratch_builds() {
    let n = SHARED_TENANTS as usize;
    let (mut refused_commits, mut commits, mut rollbacks) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = SimRng::seed(0x5AA2_ED00 ^ case);
        let mut slot = ActivePolicy::new();
        for step in 0..STEPS {
            let was = slot.compiled().cloned();
            let op = random_op(&mut rng, slot.running_version(), slot.epoch_floor());
            let at = format!("case {case} step {step} {op:?}");
            let got = apply_with(&mut slot, op, SimTime::from_secs(step as u64), (), tenants_spec);

            let Some((spec, compiled)) = slot.running() else {
                continue;
            };
            let scratch = CompiledPolicySet::compile(spec).ok();
            assert_eq!(Some(set_digest(compiled)), scratch.as_ref().map(set_digest), "{at}");
            let Some(was) = was else {
                continue;
            };
            let kept = compiled.shared_tenants(&was);
            match (got, op) {
                (Ok(_), Op::Commit) => {
                    commits += 1;
                    assert!(kept >= n - 2, "{at}: kept {kept} of {n}");
                }
                (Ok(_), Op::RollBack(..) | Op::RollBackFenced(..)) => {
                    rollbacks += 1;
                    assert_eq!(kept, 0, "{at}: a rollback compiles in full");
                }
                (got, op) => {
                    let poisoned_commit = matches!((got, op), (Err(Rejection::Content(_)), Op::Commit));
                    refused_commits += poisoned_commit as u32;
                    assert_eq!(kept, n, "{at}: nothing served may move");
                    assert_eq!(set_digest(compiled), set_digest(&was), "{at}");
                }
            }
        }
    }
    assert!(commits > 100 && rollbacks > 100 && refused_commits > 100, "exercised too little");
}

/// A node's filter holds a clone of the set its gateway committed, which
/// shares that set's tables (`canal_mesh::L4Filter::install` takes exactly
/// this clone; the gateway crate sits below the mesh and cannot name it).
/// While the gateway commits the next two versions on top of the tenants
/// they share, the node goes on giving the verdicts of the version it has.
#[test]
fn sharing_leaves_a_node_on_the_version_it_installed() {
    let ctx = |tenant: u32, dst_port: u16| L4Ctx {
        tenant: TenantId(tenant),
        vpc: VpcId(tenant),
        src_ip: 1,
        dst_port,
        identity: 0,
    };
    // Each version's widened port, one past it, and a port every version
    // treats alike, for every tenant.
    let probes: Vec<L4Ctx> = (1..=SHARED_TENANTS)
        .flat_map(|t| [22, 80, 1000, 1001, 1002, 1003, 1004].map(|port| ctx(t, port)))
        .collect();
    let verdicts = |set: &CompiledPolicySet| -> Vec<L4Verdict> {
        probes.iter().map(|p| set.l4_verdict(p)).collect()
    };

    let mut gateway = ActivePolicy::new();
    gateway.stage(tenants_spec(1, false));
    assert_eq!(gateway.commit_staged(SimTime::ZERO), Ok(1));
    let node = gateway.compiled().cloned().unwrap_or_else(CompiledPolicySet::empty);
    assert_eq!(gateway.compiled().map(|c| c.shared_tenants(&node)), Some(SHARED_TENANTS as usize));
    let (digest_v1, verdicts_v1) = (set_digest(&node), verdicts(&node));
    assert_eq!(node.l4_verdict(&ctx(2, 1001)), L4Verdict::Allow, "version 1 widens tenant 2");

    for v in [2, 3] {
        gateway.stage(tenants_spec(v, false));
        assert_eq!(gateway.commit_staged(SimTime::from_secs(v)), Ok(v));
    }
    let served = gateway.compiled().cloned().unwrap_or_else(CompiledPolicySet::empty);
    assert_eq!(served.version(), 3);
    assert_eq!(served.l4_verdict(&ctx(2, 1001)), L4Verdict::Deny, "version 3 does not");
    assert_eq!(served.l4_verdict(&ctx(4, 1003)), L4Verdict::Allow, "it widens tenant 4");
    assert_ne!(verdicts(&served), verdicts_v1);

    assert_eq!(node.version(), 1);
    assert_eq!(verdicts(&node), verdicts_v1);
    assert_eq!(set_digest(&node), digest_v1);
    // Tenants 2, 3 and 4 were compiled again on the way (3 twice: widened by
    // version 2, narrowed back into new tables by version 3); tenants 1, 5
    // and 6 are still the one copy version 1 built.
    assert_eq!(served.shared_tenants(&node), SHARED_TENANTS as usize - 3);
}

/// What the shared document promises the slot and the archive. The operator
/// pushes clones of one document and goes on editing it in place
/// (`spec.tenants[i].rules[j]`): version 1 runs, version 2 sits staged, both
/// are archived, and the edit towards version 3 moves none of them, by value
/// or by digest. It copies the tenant it touches, and only that one.
#[test]
fn sharing_an_edit_in_place_moves_nothing_staged_running_or_archived() {
    let n = SHARED_TENANTS as usize;
    // Equal to `spec`, sharing nothing with it.
    let unshared = |spec: &PolicySpec| PolicySpec {
        version: spec.version,
        tenants: spec.tenants.iter().cloned().collect(),
    };
    let probes: Vec<L4Ctx> = (1..=SHARED_TENANTS)
        .flat_map(|t| {
            [22, 80, 1001, 1002].map(|dst_port| L4Ctx {
                tenant: TenantId(t),
                vpc: VpcId(t),
                src_ip: 1,
                dst_port,
                identity: 0,
            })
        })
        .collect();
    let verdicts = |gateway: &ActivePolicy| -> Vec<Option<L4Verdict>> {
        probes.iter().map(|p| gateway.compiled().map(|c| c.l4_verdict(p))).collect()
    };
    let archive_digest = |store: &PolicyStore| {
        let mut d = Digest::new();
        store.fold_digest(&mut d);
        d.value()
    };

    let mut operator = tenants_spec(1, false);
    let mut gateway = ActivePolicy::new();
    let mut store = PolicyStore::new();
    gateway.stage(operator.clone());
    assert_eq!(gateway.commit_staged(SimTime::ZERO), Ok(1));
    store.record(operator.clone());
    let v1 = unshared(&operator);

    operator.version = 2;
    operator.tenants[2].rules[1].dest_ports = Some(PortRange { lo: 80, hi: 1002 });
    gateway.stage(operator.clone());
    store.record(operator.clone());
    let v2 = unshared(&operator);
    assert_eq!(operator.tenants.shared_tenants(&v2.tenants), 0);
    let (slot_was, verdicts_were) = (digest_of(&gateway), verdicts(&gateway));
    let archive_was = archive_digest(&store);

    // Tenant 5 opens port 22.
    operator.version = 3;
    operator.tenants[4].rules[0].action = PolicyVerdict::Allow;
    assert_ne!(operator.tenants[4], v2.tenants[4]);

    let running = gateway.running().map(|(spec, _)| spec);
    assert_eq!(running, Some(&v1));
    assert_eq!(gateway.staged(), Some(&v2));
    assert_eq!((store.get(1), store.get(2)), (Some(&v1), Some(&v2)));
    assert_eq!(digest_of(&gateway), slot_was);
    assert_eq!(verdicts(&gateway), verdicts_were);
    assert_eq!(archive_digest(&store), archive_was);

    // The staged and the archived version 2 are one document, of which the
    // operator's copy now shares every tenant but the edited one; version 1
    // lost tenant 3 to the edit before.
    for held in [gateway.staged(), store.get(2)].into_iter().flatten() {
        for (i, (ours, theirs)) in operator.tenants.shared().iter().zip(held.tenants.shared()).enumerate() {
            assert_eq!(Arc::ptr_eq(ours, theirs), i != 4, "tenant {}", i + 1);
        }
    }
    assert_eq!(running.map(|spec| operator.tenants.shared_tenants(&spec.tenants)), Some(n - 2));

    // And the push of version 3 compiles tenant 5 alone.
    let was = gateway.compiled().cloned().unwrap_or_else(CompiledPolicySet::empty);
    assert_eq!(gateway.commit_staged(SimTime::from_secs(2)), Ok(2));
    gateway.stage(operator.clone());
    assert_eq!(gateway.commit_staged(SimTime::from_secs(3)), Ok(3));
    assert_eq!(gateway.compiled().map(|c| c.shared_tenants(&was)), Some(n - 2));
    assert_eq!(gateway.compiled().map(|c| c.l4_verdict(&probes[16])), Some(L4Verdict::Allow));
}

/// A fleet compiles a tenant once. The controller compiles the operator's
/// document to validate it, archives a clone and pushes a clone to each of 24
/// gateways: whoever compiles a tenant first leaves its tables in the
/// document's node, so every two gateways serve the same copy of every
/// tenant's tables, the edited one included. A rollback to the archived
/// previous document finds every tenant built too, although it is admitted
/// with nothing running to compare against. (A rollback to a document
/// generated anew keeps none: `sharing_policy_histories_...` above.)
#[test]
fn sharing_a_fleet_compiles_a_tenant_once_and_a_rollback_to_the_archive_nothing() {
    const FLEET: usize = 24;
    let n = SHARED_TENANTS as usize;
    let mut fleet: Vec<ActivePolicy> = (0..FLEET).map(|_| ActivePolicy::new()).collect();
    let mut store = PolicyStore::new();
    let mut roll_out = |document: &PolicySpec, fleet: &mut [ActivePolicy]| {
        assert!(CompiledPolicySet::compile(document).is_ok(), "controller-side validation");
        store.record(document.clone());
        for gateway in fleet {
            gateway.stage(document.clone());
            assert_eq!(gateway.commit_staged(SimTime::from_secs(document.version)), Ok(document.version));
        }
    };
    let sets = |fleet: &[ActivePolicy]| -> Vec<CompiledPolicySet> {
        fleet.iter().map(|gateway| gateway.compiled().cloned().unwrap_or_else(CompiledPolicySet::empty)).collect()
    };

    let mut operator = tenants_spec(1, false);
    roll_out(&operator, &mut fleet);
    let ran_v1 = sets(&fleet);
    operator.version = 2;
    operator.tenants[2].rules[1].dest_ports = Some(PortRange { lo: 80, hi: 1002 });
    roll_out(&operator, &mut fleet);

    let run_v2 = sets(&fleet);
    for (a, ours) in run_v2.iter().enumerate() {
        assert_eq!(ours.version(), 2);
        for (b, theirs) in run_v2.iter().enumerate() {
            assert_eq!(ours.shared_tenants(theirs), n, "gateways {a} and {b}");
        }
        assert_eq!(ours.shared_tenants(&ran_v1[a]), n - 1, "gateway {a}: the edited tenant is new");
    }

    let archived_v1 = store.get(1).cloned().unwrap_or_default();
    assert_eq!(archived_v1.version, 1);
    for (a, gateway) in fleet.iter_mut().enumerate() {
        assert_eq!(gateway.roll_back_to(SimTime::from_secs(3), archived_v1.clone(), ()), Ok(1));
        let back = gateway.compiled().map(|c| (c.shared_tenants(&ran_v1[a]), set_digest(c)));
        assert_eq!(back, Some((n, set_digest(&ran_v1[a]))), "gateway {a}");
    }
}
