//! CLI driver for the config-rollout blast-radius experiment.
//!
//! ```text
//! rollout              # full 90 s timeline, 24-proxy fleet
//! rollout --fast       # compressed smoke run (scripts/check.sh)
//! rollout --seed 7     # different seed
//! ```
//!
//! Exit code is non-zero unless the safe-rollout invariant holds: under
//! canal the poisoned version is never committed anywhere (blast radius 0,
//! availability 100% via fail-static serving), rollback is automatic and
//! far faster than the operator-detection arms, and a valid-but-degrading
//! change is contained to the canary wave. At full scale every report
//! check gates too.

use canal_bench::cli::{gate, gate_checks, take_flag, take_value};
use canal_bench::experiments::rollout::{report_for, run_rollout, RolloutParams};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let seed = take_value(&mut args, "--seed", "a u64").unwrap_or(42u64);
    let fast = take_flag(&mut args, "--fast");
    let params = if fast {
        RolloutParams::fast()
    } else {
        RolloutParams::full()
    };

    let report = report_for(seed, &params);
    println!("{}", report.render());

    let outcome = run_rollout(seed, &params);
    println!("digest: {:#018x}", outcome.digest());
    gate(outcome.rollout_ok(), "safe-rollout invariant violated (blast radius / rollback / fail-static)");
    gate_checks(fast, &report, "rollout");
}
