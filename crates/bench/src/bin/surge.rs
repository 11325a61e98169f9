//! CLI driver for the gateway overload-control surge experiment.
//!
//! ```text
//! surge                              # full 30 s-per-pass run
//! surge --fast                       # compressed smoke run (scripts/check.sh)
//! surge --seed 7                     # different seed
//! ```
//!
//! Exit code is non-zero unless the isolation invariant holds: under the
//! canal placement, well-behaved tenants keep their no-surge P99 within a
//! bounded factor and their goodput intact, while the surging tenant's
//! goodput degrades gracefully (shed engages, goodput stays above the
//! floor). At full scale every report check gates too.

use canal_bench::cli::{gate, gate_checks, take_flag, take_value};
use canal_bench::experiments::overload::{report_for, run_surge, SurgeParams};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let seed = take_value(&mut args, "--seed", "a u64").unwrap_or(42u64);
    let fast = take_flag(&mut args, "--fast");
    let params = if fast {
        SurgeParams::fast()
    } else {
        SurgeParams::full()
    };

    let report = report_for(seed, &params);
    println!("{}", report.render());

    let outcome = run_surge(seed, &params);
    println!("digest: {:#018x}", outcome.digest());

    gate(outcome.isolation_ok(), "tenant-isolation invariant violated under surge");
    gate_checks(fast, &report, "overload");
}
