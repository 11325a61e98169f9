//! CLI driver for the disaster-drill experiment.
//!
//! ```text
//! drill                              # full 90 s timeline
//! drill --fast                       # 4x compressed smoke run (scripts/check.sh)
//! drill --seed 7                     # different seed
//! drill --json target/drill.json     # also write a machine-readable report
//! ```
//!
//! Exit code is non-zero unless the drill invariant holds: the planned
//! gateway drain loses zero established sessions (with real daisy-chained
//! hand-offs observed), the gray gateway is quarantined within a bounded
//! number of evidence windows with zero false-positive quarantines and
//! clears after the heal, the in-flight config rollout survives the
//! asymmetric control-plane partition without a rollback (unreachable is
//! not a NACK), partitioned gateways serve fail-static under a valid
//! config lease, and after the heal monotone catch-up converges the whole
//! fleet on exactly one config version. Double runs must be bit-identical.
//! At full scale every report check gates too.

use canal_bench::cli::{gate, gate_checks, report_json, take_flag, take_value, write_report};
use canal_bench::experiments::drill::{report_for, run_drill, DrillParams};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let seed = take_value(&mut args, "--seed", "a u64").unwrap_or(42u64);
    let json_path: Option<String> = take_value(&mut args, "--json", "a path");
    let fast = take_flag(&mut args, "--fast");
    let params = if fast { DrillParams::fast() } else { DrillParams::full() };

    let report = report_for(seed, &params);
    println!("{}", report.render());

    let outcome = run_drill(seed, &params);
    let rerun = run_drill(seed, &params);
    println!("digest: {:#018x}", outcome.digest());

    if let Some(path) = json_path {
        write_report(&path, render_json(seed, fast, &outcome, &report));
    }

    gate(outcome.digest() == rerun.digest(), "double run diverged (determinism broken)");
    gate(outcome.drill_ok(), "drill invariant violated (drain / gray / partition / convergence)");
    gate_checks(fast, &report, "drill");
}

/// The CI-archived report: this bin's section inside the shared envelope.
fn render_json(
    seed: u64,
    fast: bool,
    outcome: &canal_bench::experiments::drill::DrillOutcome,
    report: &canal_bench::ExperimentReport,
) -> String {
    let c = &outcome.canal;
    let mut s = String::new();
    s.push_str("  \"canal\": {\n");
    s.push_str(&format!("    \"requests\": {},\n", c.requests));
    s.push_str(&format!("    \"errors\": {},\n", c.errors));
    s.push_str(&format!("    \"gray_errors\": {},\n", c.gray_errors));
    s.push_str(&format!("    \"detect_windows\": {},\n", c.detect_windows));
    s.push_str(&format!("    \"quarantines\": {},\n", c.quarantines));
    s.push_str(&format!(
        "    \"false_positive_quarantines\": {},\n",
        c.false_positive_quarantines
    ));
    s.push_str(&format!("    \"quarantine_cleared\": {},\n", c.quarantine_cleared));
    s.push_str(&format!("    \"sessions_opened\": {},\n", c.sessions_opened));
    s.push_str(&format!("    \"sessions_at_drain\": {},\n", c.sessions_at_drain));
    s.push_str(&format!("    \"handed_off\": {},\n", c.handed_off));
    s.push_str(&format!("    \"force_closed\": {},\n", c.force_closed));
    s.push_str(&format!("    \"rollbacks\": {},\n", c.rollbacks));
    s.push_str(&format!("    \"dropped_pushes\": {},\n", c.dropped_pushes));
    s.push_str(&format!("    \"catch_up_pushes\": {},\n", c.catch_up_pushes));
    s.push_str(&format!("    \"fail_static_served\": {},\n", c.fail_static_served));
    s.push_str(&format!("    \"lease_violations\": {},\n", c.lease_violations));
    s.push_str(&format!("    \"one_converged_version\": {},\n", c.one_converged_version));
    s.push_str(&format!("    \"last_good\": {}\n", c.last_good));
    s.push_str("  },\n");
    report_json("drill", seed, fast, outcome.digest(), ("drill_ok", outcome.drill_ok()), &s, report)
}
