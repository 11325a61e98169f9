//! CLI driver regenerating the paper's tables and figures.
//!
//! ```text
//! experiments              # run everything
//! experiments fig11 tab7   # run selected experiments
//! experiments --seed 7 all # different seed
//! experiments --list       # list ids
//! experiments --markdown   # emit the EXPERIMENTS.md check tables
//! ```
//!
//! Exit code is non-zero if any paper-vs-measured check missed its band.

use canal_bench::cli::{take_flag, take_value};
use canal_bench::{run_experiment, ExperimentReport, ALL_EXPERIMENTS};

/// Run experiments concurrently (they are independent and seeded), keeping
/// the output in presentation order.
fn run_all(ids: &[String], seed: u64) -> Vec<(String, Option<ExperimentReport>)> {
    let mut results: Vec<(String, Option<ExperimentReport>)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .iter()
            .map(|id| {
                let id = id.clone();
                scope.spawn(move || {
                    let report = run_experiment(&id, seed);
                    (id, report)
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(r) => results.push(r),
                Err(_) => {
                    eprintln!("experiment thread panicked");
                    std::process::exit(2);
                }
            }
        }
    });
    results
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let seed = take_value(&mut args, "--seed", "a u64").unwrap_or(42u64);
    if take_flag(&mut args, "--list") {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    let markdown = take_flag(&mut args, "--markdown");
    let ids: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };

    let mut failed = 0usize;
    let mut total_checks = 0usize;
    for (id, outcome) in run_all(&ids, seed) {
        match outcome {
            Some(report) => {
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
                failed += report.checks.iter().filter(|c| !c.pass).count();
            }
            None => {
                eprintln!("unknown experiment id: {id} (use --list)");
                std::process::exit(2);
            }
        }
    }
    if markdown {
        println!(
            "**Summary: {} experiments, {} checks, {} missed.**",
            ids.len(),
            total_checks,
            failed
        );
    } else {
        println!(
            "\n===== SUMMARY: {} experiments, {} checks, {} missed =====",
            ids.len(),
            total_checks,
            failed
        );
    }
    if failed > 0 {
        std::process::exit(1);
    }
}
