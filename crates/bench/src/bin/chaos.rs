//! CLI driver for the Fig. 8 chaos experiment.
//!
//! ```text
//! chaos                              # full 120 s recovery timeline
//! chaos --fast                       # compressed smoke run (scripts/check.sh)
//! chaos --seed 7                     # different seed
//! ```
//!
//! Exit code is non-zero if the availability invariant is violated (a
//! request failed while ground truth had a live replica in a live AZ) or
//! any paper-vs-measured check missed.

use canal_bench::cli::{gate, gate_checks, take_flag, take_value};
use canal_bench::experiments::chaos::{report_for, run_chaos, ChaosParams};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let seed = take_value(&mut args, "--seed", "a u64").unwrap_or(42u64);
    let fast = take_flag(&mut args, "--fast");
    let params = if fast {
        ChaosParams::fast()
    } else {
        ChaosParams::full()
    };

    let report = report_for(seed, &params);
    println!("{}", report.render());

    // The hard invariant, independent of the report's bands: with the fault
    // plan active and retries on, a service with >=1 live replica in a live
    // AZ serves every request.
    let outcome = run_chaos(seed, &params);
    let canal_violations = outcome
        .arch("canal")
        .map(|a| a.invariant_violations)
        .unwrap_or(u64::MAX);
    println!("digest: {:#018x}", outcome.digest());
    gate(
        canal_violations == 0,
        &format!("canal availability invariant violated ({canal_violations} requests)"),
    );
    gate_checks(fast, &report, "fig8");
}
