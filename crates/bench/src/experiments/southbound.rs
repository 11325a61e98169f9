//! What the rollout-family experiments (`rollout`, `policy`, `handshake`)
//! share: delivering one southbound push to a gateway's fail-static slot,
//! and the two analytic blind-push baselines a bad change is compared
//! against; and, for the tick-driven ones (`handshake`, `drill`), the
//! fractional-rate accumulator.

use crate::experiments::rollout::ArmOutcome;
use canal_control::versioned::TargetId;
use canal_control::{CertRotationController, ConfigPlane, RolloutController};
use canal_gateway::{FailStatic, Plane, Rejection};
use canal_mesh::arch::{Architecture, ClusterShape};
use canal_sim::{SimDuration, SimTime};

/// Operator detection delay for the blind-push arms (monitoring pipeline +
/// a human noticing), scaled by `time_scale`.
const DETECT_SECS: f64 = 15.0;
/// Ambient's per-waypoint push pacing (a policy constant, deliberately not
/// time-compressed so fast mode still shows partial exposure).
const AMBIENT_GAP_SECS: f64 = 1.0;

/// Accumulates integral demand from a fractional per-tick rate.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RateCarry {
    carry: f64,
}

impl RateCarry {
    pub(crate) fn take(&mut self, amount: f64) -> u64 {
        self.carry += amount;
        let whole = self.carry.floor();
        self.carry -= whole;
        whole as u64
    }
}

/// The controller side of a delivery: where a gateway's verdict goes.
pub trait Verdicts {
    /// `target` committed `version`.
    fn ack(&mut self, target: TargetId, version: u64, now: SimTime) -> bool;
    /// `target` refused `version`.
    fn nack(&mut self, target: TargetId, version: u64) -> bool;
}

impl Verdicts for RolloutController {
    fn ack(&mut self, target: TargetId, version: u64, now: SimTime) -> bool {
        RolloutController::ack(self, target, version, now)
    }

    fn nack(&mut self, target: TargetId, version: u64) -> bool {
        RolloutController::nack(self, target, version)
    }
}

impl Verdicts for CertRotationController {
    fn ack(&mut self, target: TargetId, version: u64, now: SimTime) -> bool {
        CertRotationController::ack(self, target, version, now)
    }

    fn nack(&mut self, target: TargetId, version: u64) -> bool {
        CertRotationController::nack(self, target, version)
    }
}

/// One southbound delivery: stage `spec` on the target's slot, commit it or
/// not, and tell the controller which. The ack carries the version the
/// gateway says it committed, the nack the version that was pushed.
pub fn deliver<P: Plane>(
    slot: &mut FailStatic<P>,
    spec: P::Spec,
    now: SimTime,
    ctx: P::Ctx<'_>,
    ctl: &mut impl Verdicts,
    target: TargetId,
) -> Result<u64, Rejection<P::Reject>> {
    let pushed = P::version(&spec);
    slot.stage(spec);
    let verdict = slot.commit(now, ctx);
    match verdict {
        Ok(committed) => ctl.ack(target, committed, now),
        Err(_) => ctl.nack(target, pushed),
    };
    verdict
}

/// The istio arm: one full southbound push at `t_bad`, blind apply,
/// operator-scale detection, one full restore push. `at_risk` yields the
/// arrival instant of every request that errors if its proxy runs the bad
/// change when it arrives.
pub(crate) fn istio_arm(
    fleet: usize,
    time_scale: f64,
    t_bad: SimTime,
    offered: u64,
    at_risk: impl Iterator<Item = (SimTime, usize)>,
) -> ArmOutcome {
    let push = ConfigPlane::new(Architecture::Sidecar)
        .push_update(&ClusterShape::production(fleet))
        .push_time
        .scale(time_scale);
    let detect = SimDuration::from_secs_f64(DETECT_SECS).scale(time_scale);
    let applied = t_bad + push;
    let restored = t_bad + detect + push;
    ArmOutcome {
        name: "istio-full-push",
        fleet,
        exposed: fleet,
        offered,
        errors: at_risk.filter(|&(at, _)| at >= applied && at < restored).count() as u64,
        ttr_s: (detect + push).as_secs_f64(),
    }
}

/// The ambient arm: per-waypoint sequential blind pushes from `t_bad`,
/// halted mid-flight at operator detection, sequential restore at the same
/// pace. `at_risk` as for [`istio_arm`], with the waypoint each request
/// lands on.
pub(crate) fn ambient_arm(
    fleet: usize,
    time_scale: f64,
    t_bad: SimTime,
    offered: u64,
    at_risk: impl Iterator<Item = (SimTime, usize)>,
) -> ArmOutcome {
    let gap = SimDuration::from_secs_f64(AMBIENT_GAP_SECS);
    let detect = SimDuration::from_secs_f64(DETECT_SECS).scale(time_scale);
    let exposed = ((detect.as_nanos() / gap.as_nanos()) as usize + 1).min(fleet);
    let halt = t_bad + detect;
    let errors = at_risk
        .filter(|&(at, gw)| {
            gw < exposed && at >= t_bad + gap.times(gw as u64) && at < halt + gap.times(gw as u64 + 1)
        })
        .count() as u64;
    ArmOutcome {
        name: "ambient-waypoint",
        fleet,
        exposed,
        offered,
        errors,
        ttr_s: (detect + gap.times(exposed as u64)).as_secs_f64(),
    }
}
