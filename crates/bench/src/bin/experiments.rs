//! The `canal-bench` runner: every table, figure and robustness scenario.
//!
//! ```text
//! experiments                     # run everything at full scale
//! experiments fig11 tab7          # run selected experiments
//! experiments --seed 7 all        # different seed
//! experiments --list              # list ids; scenarios carry their invariant
//! experiments --markdown          # emit the EXPERIMENTS.md check tables
//! experiments --fast --json target/smoke fig8 drill
//!                                 # scenarios only: the compressed smoke
//!                                 # run, and <dir>/<id>.json for each
//! experiments --fast              # no ids: every scenario of the table
//! ```
//!
//! A scenario (`canal_bench::scenario`) is run twice at the seed and prints
//! the digest both runs must share. Exit code 1 if a scenario's invariant
//! fails or its two runs differ (each a `FAIL:` line), or if a
//! paper-vs-measured check missed its band at full scale (`--fast` runs
//! gate on the invariant alone: the bands are tuned for the full scale);
//! 2 on a usage error.

use canal_bench::cli::{take_flag, take_value};
use canal_bench::scenario::ScenarioRun;
use canal_bench::{experiment, Experiment, ExperimentReport, EXPERIMENTS};

/// Usage and I/O errors: say `what` and exit with status 2.
fn usage(what: &str) -> ! {
    eprintln!("{what}");
    std::process::exit(2);
}

/// What one table row gave: a report, or a judged scenario with its report.
enum Ran {
    Figure(ExperimentReport),
    Scenario(ScenarioRun),
}

/// Run experiments concurrently (they are independent and seeded), keeping
/// the output in presentation order.
fn run_all(rows: &[&'static Experiment], seed: u64, fast: bool) -> Vec<Ran> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = rows
            .iter()
            .map(|row| {
                scope.spawn(move || match row.scenario {
                    Some(scenario) => Ran::Scenario((scenario.drive)(seed, fast)),
                    None => Ran::Figure((row.report)(seed)),
                })
            })
            .collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined.map(|r| r.unwrap_or_else(|_| usage("experiment thread panicked"))).collect()
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let seed = take_value(&mut args, "--seed", "a u64").unwrap_or(42u64);
    if take_flag(&mut args, "--list") {
        for row in EXPERIMENTS {
            match row.scenario {
                Some(scenario) => println!("{:<12} scenario: {}", row.id, scenario.invariant),
                None => println!("{}", row.id),
            }
        }
        return;
    }
    let markdown = take_flag(&mut args, "--markdown");
    let fast = take_flag(&mut args, "--fast");
    let json_dir: Option<String> = take_value(&mut args, "--json", "a directory");

    let scenarios_only = fast || json_dir.is_some();
    let rows: Vec<&'static Experiment> = if args.is_empty() {
        // No ids: everything, or every scenario under a scenarios-only flag.
        EXPERIMENTS.iter().filter(|row| !scenarios_only || row.scenario.is_some()).collect()
    } else if args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().collect()
    } else {
        let row = |id: &String| {
            experiment(id).unwrap_or_else(|| usage(&format!("unknown experiment id: {id} (use --list)")))
        };
        args.iter().map(row).collect()
    };
    if scenarios_only {
        if let Some(row) = rows.iter().find(|row| row.scenario.is_none()) {
            usage(&format!("--fast and --json take scenario ids only; {} is not one (use --list)", row.id));
        }
    }

    let mut missed = 0usize;
    let mut total_checks = 0usize;
    let mut violations = 0usize;
    for ran in run_all(&rows, seed, fast) {
        let report = match &ran {
            Ran::Figure(report) => report,
            Ran::Scenario(run) => &run.report,
        };
        if markdown {
            println!("### {} — {}\n", report.id, report.title);
            println!("| check | paper | measured | verdict |");
            println!("|---|---|---|---|");
            for c in &report.checks {
                println!(
                    "| {} | {} | {} | {} |",
                    c.name,
                    c.paper,
                    c.measured,
                    if c.pass { "PASS" } else { "MISS" }
                );
            }
            println!();
        } else {
            println!("{}", report.render());
        }
        total_checks += report.checks.len();
        missed += report.checks.iter().filter(|c| !c.pass).count();
        let Ran::Scenario(run) = &ran else { continue };
        if !markdown {
            println!("digest: {:#018x}", run.digest);
        }
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/{}.json", report.id);
            match std::fs::write(&path, &run.json) {
                Ok(()) => println!("report written to {path}"),
                Err(e) => usage(&format!("could not write {path}: {e}")),
            }
        }
        for failure in &run.failures {
            eprintln!("FAIL: {}: {failure}", report.id);
        }
        violations += run.failures.len();
    }
    if markdown {
        println!(
            "**Summary: {} experiments, {} checks, {} missed.**",
            rows.len(),
            total_checks,
            missed
        );
    } else {
        println!(
            "\n===== SUMMARY: {} experiments, {} checks, {} missed =====",
            rows.len(),
            total_checks,
            missed
        );
    }
    if violations > 0 || (missed > 0 && !fast) {
        std::process::exit(1);
    }
}
