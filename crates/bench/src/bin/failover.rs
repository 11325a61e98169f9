//! CLI driver for the controller-failover drill.
//!
//! ```text
//! failover                              # full 30 s-per-arm timeline
//! failover --fast                       # 2x compressed smoke run (scripts/check.sh)
//! failover --seed 7                     # different seed
//! failover --json target/failover.json  # also write a machine-readable report
//! ```
//!
//! Exit code is non-zero unless the failover invariant holds: a crash
//! mid-wave of a healthy rollout is resumed from the write-ahead journal
//! with only the orphaned pushes re-sent (zero duplicate canary exposure)
//! and the fleet converges on exactly one version; a crash mid-rollback of
//! a poisoned rollout is completed by the next incarnation (zero gateways
//! left on the bad version); and a zombie incarnation racing the recovered
//! controller has every one of its stale-epoch pushes fenced by the data
//! plane with zero divergence. Double runs must be bit-identical. At full
//! scale every report check gates too.

use canal_bench::cli::{gate, gate_checks, report_json, take_flag, take_value, write_report};
use canal_bench::experiments::failover::{report_for, run_failover, FailoverParams};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let seed = take_value(&mut args, "--seed", "a u64").unwrap_or(42u64);
    let json_path: Option<String> = take_value(&mut args, "--json", "a path");
    let fast = take_flag(&mut args, "--fast");
    let params = if fast { FailoverParams::fast() } else { FailoverParams::full() };

    let report = report_for(seed, &params);
    println!("{}", report.render());

    let outcome = run_failover(seed, &params);
    let rerun = run_failover(seed, &params);
    println!("digest: {:#018x}", outcome.digest());

    if let Some(path) = json_path {
        write_report(&path, render_json(seed, fast, &outcome, &report));
    }

    gate(outcome.digest() == rerun.digest(), "double run diverged (determinism broken)");
    gate(outcome.failover_ok(), "failover invariant violated (resume / rollback / fencing)");
    gate_checks(fast, &report, "failover");
}

/// The CI-archived report: this bin's section inside the shared envelope.
fn render_json(
    seed: u64,
    fast: bool,
    outcome: &canal_bench::experiments::failover::FailoverOutcome,
    report: &canal_bench::ExperimentReport,
) -> String {
    let mut s = String::new();
    s.push_str("  \"arms\": {\n");
    let arms = [&outcome.healthy, &outcome.rollback, &outcome.zombie];
    for (i, a) in arms.iter().enumerate() {
        let comma = if i + 1 == arms.len() { "" } else { "," };
        s.push_str(&format!("    \"{}\": {{\n", a.name));
        s.push_str(&format!("      \"pushes_delivered\": {},\n", a.pushes_delivered));
        s.push_str(&format!("      \"commits\": {},\n", a.commits));
        s.push_str(&format!("      \"nacks\": {},\n", a.nacks));
        s.push_str(&format!("      \"duplicate_exposures\": {},\n", a.duplicate_exposures));
        s.push_str(&format!("      \"dropped_in_flight\": {},\n", a.dropped_in_flight));
        s.push_str(&format!("      \"recovery_pushes\": {},\n", a.recovery_pushes));
        s.push_str(&format!("      \"rollback_repushes\": {},\n", a.rollback_repushes));
        s.push_str(&format!("      \"zombie_pushes\": {},\n", a.zombie_pushes));
        s.push_str(&format!("      \"zombie_fenced\": {},\n", a.zombie_fenced));
        s.push_str(&format!("      \"epoch_before\": {},\n", a.epoch_before));
        s.push_str(&format!("      \"epoch_after\": {},\n", a.epoch_after));
        s.push_str(&format!("      \"resumed_in_flight\": {},\n", a.resumed_in_flight));
        s.push_str(&format!("      \"rollbacks\": {},\n", a.rollbacks));
        s.push_str(&format!("      \"converged_version\": {},\n", a.converged_version));
        s.push_str(&format!("      \"divergent\": {},\n", a.divergent));
        s.push_str(&format!("      \"on_bad_version\": {},\n", a.on_bad_version));
        s.push_str(&format!("      \"journal_appended\": {},\n", a.journal_appended));
        s.push_str(&format!("      \"journal_evicted\": {}\n", a.journal_evicted));
        s.push_str(&format!("    }}{comma}\n"));
    }
    s.push_str("  },\n");
    report_json("failover", seed, fast, outcome.digest(), ("failover_ok", outcome.failover_ok()), &s, report)
}
