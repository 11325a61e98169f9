//! The fail-static slot: the one `{running, staged}` state machine every
//! distributed plane (routes, tenant policy, cert bundles) commits through.
//!
//! §2.2 names configuration as the mesh's primary outage vector: a proxy
//! that *applies* a bad push is an instant fleet-wide incident. A gateway
//! therefore never applies a push directly. It **stages** it, and a commit
//! checks it in a fixed order before anything is served from it:
//!
//! 1. **Fence.** A push carrying a controller epoch below the highest this
//!    gateway has observed came from a zombie incarnation and is refused
//!    before anything else is looked at: a zombie's rollback is
//!    version-legal and content-valid, and must still die here.
//! 2. **Version.** A commit must be strictly newer than what is running;
//!    anything else is a replay. A rollback skips this check on purpose.
//! 3. **Content.** The plane's own [`Plane::admit`] validates the spec and
//!    builds the form the data path serves from.
//! 4. **Swap.** Only then is `running` replaced, atomically.
//!
//! Any refusal leaves `running` untouched (**fail-static**: a blocked or
//! poisoned push never degrades the data plane below its last good state)
//! and is reported upstream as a NACK; the rollout controller
//! (`canal_control::rollout`) rolls the fleet back to the last converged
//! version when a canary NACKs or its health regresses.

use canal_sim::{Digest, SimTime};

/// What differs between the planes a gateway receives pushes on.
pub trait Plane {
    /// The pushed, versioned unit.
    type Spec: Clone + std::fmt::Debug;
    /// What the gateway serves from once a spec is admitted: the spec
    /// itself, or the spec together with its compiled form.
    type Served: Clone + std::fmt::Debug;
    /// What a commit is checked against besides the spec and the clock.
    type Ctx<'a>;
    /// Why this plane's content check refuses a spec.
    type Reject;

    /// The spec's distribution version.
    fn version(spec: &Self::Spec) -> u64;

    /// The spec a served form was admitted from.
    fn spec(served: &Self::Served) -> &Self::Spec;

    /// Content check and construction of the served form, in one step so
    /// the two can never diverge. `running` is what a commit would replace;
    /// a rollback passes `None`, which is how it escapes every check that
    /// compares against the running state.
    fn admit(
        spec: Self::Spec,
        now: SimTime,
        ctx: Self::Ctx<'_>,
        running: Option<&Self::Served>,
    ) -> Result<Self::Served, Self::Reject>;

    /// Fold a spec into a digest.
    fn fold_spec(spec: &Self::Spec, d: &mut Digest);

    /// Fold a served form into a digest.
    fn fold_served(served: &Self::Served, d: &mut Digest) {
        Self::fold_spec(Self::spec(served), d);
    }
}

/// Why a push was refused instead of committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection<C> {
    /// The plane's content check refused the spec.
    Content(C),
    /// The staged version is not newer than the running one. Re-pushes of
    /// the current version are idempotent no-ops upstream; anything older
    /// is a replay and must not regress the data plane.
    StaleVersion {
        /// Version of the staged spec.
        staged: u64,
        /// Version currently running.
        running: u64,
    },
    /// Nothing is staged.
    NothingStaged,
    /// The push carries a controller epoch below the highest this gateway
    /// has observed: it came from a zombie incarnation that lost the fleet.
    StaleEpoch {
        /// Epoch the push carried.
        pushed: u64,
        /// Highest controller epoch this gateway has observed.
        floor: u64,
    },
}

impl<C: std::fmt::Display> std::fmt::Display for Rejection<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::Content(c) => c.fmt(f),
            Rejection::StaleVersion { staged, running } => {
                write!(f, "stale version {staged} (running {running})")
            }
            Rejection::NothingStaged => write!(f, "nothing staged"),
            Rejection::StaleEpoch { pushed, floor } => {
                write!(f, "fenced push from stale controller epoch {pushed} (floor {floor})")
            }
        }
    }
}

/// The `{running, staged}` pair a gateway serves one plane from.
///
/// Invariants (DESIGN.md §11), property-tested for every plane in
/// `tests/failstatic.rs`:
/// * `running` only ever advances to an admitted spec, atomically, and the
///   served form is always the one [`Plane::admit`] built from that spec.
/// * A refusal leaves `running` untouched; a refused commit also clears
///   `staged`.
/// * The running version is strictly increasing except through a rollback.
/// * A fenced push changes nothing but `fenced_pushes`; the epoch floor is
///   monotone.
#[derive(Debug, Clone)]
pub struct FailStatic<P: Plane> {
    running: Option<P::Served>,
    staged: Option<P::Spec>,
    committed_at: Option<SimTime>,
    commits: u64,
    rejections: u64,
    epoch_floor: u64,
    fenced_pushes: u64,
}

impl<P: Plane> Default for FailStatic<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Plane> FailStatic<P> {
    /// Empty pair: nothing running, nothing staged.
    pub fn new() -> Self {
        FailStatic {
            running: None,
            staged: None,
            committed_at: None,
            commits: 0,
            rejections: 0,
            epoch_floor: 0,
            fenced_pushes: 0,
        }
    }

    /// Stage a pushed spec without applying it. Serving is unaffected until
    /// [`Self::commit`]. Staging twice replaces the previous staged spec
    /// (last push wins).
    pub fn stage(&mut self, spec: P::Spec) {
        self.staged = Some(spec);
    }

    /// Observe a controller incarnation's epoch (carried on probes and
    /// pushes). The floor is monotone; returns true if it advanced. A new
    /// controller announces itself this way, fencing any zombie
    /// predecessor's in-flight pushes.
    pub fn observe_epoch(&mut self, epoch: u64) -> bool {
        if epoch > self.epoch_floor {
            self.epoch_floor = epoch;
            return true;
        }
        false
    }

    /// The fence: refuse an epoch below the observed floor, else raise the
    /// floor to it.
    fn fence(&mut self, epoch: u64) -> Result<(), Rejection<P::Reject>> {
        if epoch < self.epoch_floor {
            self.fenced_pushes += 1;
            return Err(Rejection::StaleEpoch { pushed: epoch, floor: self.epoch_floor });
        }
        self.observe_epoch(epoch);
        Ok(())
    }

    /// Epoch-fenced [`Self::stage`].
    pub fn stage_fenced(&mut self, spec: P::Spec, epoch: u64) -> Result<(), Rejection<P::Reject>> {
        self.fence(epoch)?;
        self.stage(spec);
        Ok(())
    }

    /// Epoch-fenced [`Self::roll_back_to`]: a rollback deliberately
    /// bypasses version monotonicity, which is exactly why it must not
    /// bypass the fence. This is the push a zombie would use to roll the
    /// fleet backward.
    pub fn roll_back_to_fenced(
        &mut self,
        now: SimTime,
        spec: P::Spec,
        ctx: P::Ctx<'_>,
        epoch: u64,
    ) -> Result<u64, Rejection<P::Reject>> {
        self.fence(epoch)?;
        self.roll_back_to(now, spec, ctx)
    }

    /// Atomically commit the staged spec if it is newer than the running
    /// one and the plane admits it, else refuse it and keep serving.
    /// Either way `staged` is cleared. Returns the committed version, or
    /// the rejection the data plane should NACK with.
    pub fn commit(&mut self, now: SimTime, ctx: P::Ctx<'_>) -> Result<u64, Rejection<P::Reject>> {
        let Some(spec) = self.staged.take() else {
            return Err(Rejection::NothingStaged);
        };
        let staged = P::version(&spec);
        if let Some(running) = self.running_version() {
            if staged <= running {
                self.rejections += 1;
                return Err(Rejection::StaleVersion { staged, running });
            }
        }
        match P::admit(spec, now, ctx, self.running.as_ref()) {
            Ok(served) => Ok(self.swap(now, served)),
            Err(reject) => {
                self.rejections += 1;
                Err(Rejection::Content(reject))
            }
        }
    }

    /// Roll back to an explicit last-known-good spec, bypassing the version
    /// check and whatever the plane compares against the running state (a
    /// rollback deliberately re-runs something older). The rest of the
    /// content check still applies: a target that no longer validates is
    /// refused, and then neither `staged` nor any counter moves.
    pub fn roll_back_to(
        &mut self,
        now: SimTime,
        spec: P::Spec,
        ctx: P::Ctx<'_>,
    ) -> Result<u64, Rejection<P::Reject>> {
        let served = P::admit(spec, now, ctx, None).map_err(Rejection::Content)?;
        self.staged = None;
        Ok(self.swap(now, served))
    }

    fn swap(&mut self, now: SimTime, served: P::Served) -> u64 {
        let version = P::version(P::spec(&served));
        self.running = Some(served);
        self.committed_at = Some(now);
        self.commits += 1;
        version
    }

    /// What is being served (last committed), if anything.
    pub fn running(&self) -> Option<&P::Served> {
        self.running.as_ref()
    }

    /// The staged-but-uncommitted spec, if any.
    pub fn staged(&self) -> Option<&P::Spec> {
        self.staged.as_ref()
    }

    /// Version being served, if anything has ever committed.
    pub fn running_version(&self) -> Option<u64> {
        self.running.as_ref().map(|r| P::version(P::spec(r)))
    }

    /// When the running spec committed.
    pub fn committed_at(&self) -> Option<SimTime> {
        self.committed_at
    }

    /// Successful commits (including rollbacks).
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Refused *commits*: stale versions and content rejections, each one a
    /// NACK upstream. A refused rollback and a fenced push are not counted
    /// here; the first is reported only through its `Result`, the second
    /// in [`Self::fenced_pushes`].
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Highest controller epoch this gateway has observed.
    pub fn epoch_floor(&self) -> u64 {
        self.epoch_floor
    }

    /// Pushes fenced for carrying a stale controller epoch.
    pub fn fenced_pushes(&self) -> u64 {
        self.fenced_pushes
    }

    /// Fold the whole pair into a digest: the running version and served
    /// form, the uncommitted `staged` spec, `committed_at`, the counters and
    /// the fencing state. A gateway with a different staged spec (or a
    /// different commit instant) is in a different state even while serving
    /// the same running version.
    pub fn fold_digest(&self, d: &mut Digest) {
        d.write_u64(self.running_version().unwrap_or(0));
        d.write_u64(self.commits);
        d.write_u64(self.rejections);
        if let Some(r) = &self.running {
            P::fold_served(r, d);
        }
        match &self.staged {
            None => {
                d.write_u64(0);
            }
            Some(s) => {
                d.write_u64(1);
                P::fold_spec(s, d);
            }
        }
        d.write_u64(self.committed_at.map_or(u64::MAX, |t| t.as_nanos()));
        d.write_u64(self.epoch_floor);
        d.write_u64(self.fenced_pushes);
    }
}
