//! Command line.
//!
//! ```text
//! canal-benchmark --workload W [--seed N] [--seconds S] [--trace [0|1]]
//!                 [--ops N | --reps N | --smoke]
//! canal-benchmark [--seed N] [--seconds S] [--trace] [--smoke] [--out FILE]
//!                                               every workload, one process each
//! canal-benchmark --compare A.json B.json
//! ```

use crate::compare::bound;
use crate::json;
use crate::report::{repeats_exactly, tables, RunResult, Tables};
use crate::stats;
use crate::workloads::{datapath, rollout, sim, Budget};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

const USAGE: &str = "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--ops N] [--reps N] [--smoke] [--out FILE] | --compare A.json B.json";

/// Segments per untraced run, each with a set-up of its own; `setup_s` is
/// taken over them.
const SEGMENTS: usize = 5;

/// Untraced runs per workload when running them all; the spread between
/// them is what `--compare` calls unresolved. One under `--smoke`.
const REPEATS: usize = 3;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fixed work instead of a duration: requests or packets.
    pub ops: Option<u64>,
    /// Fixed work instead of a duration: replications or rollouts.
    pub reps: Option<u64>,
    /// 1% of the nominal work in one segment.
    pub smoke: bool,
    pub out: Option<PathBuf>,
    pub compare: Option<(PathBuf, PathBuf)>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workload: None,
            seed: 42,
            seconds: 15.0,
            trace: false,
            ops: None,
            reps: None,
            smoke: false,
            out: None,
            compare: None,
        }
    }
}

/// Parse the arguments after the program name.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    fn value<T: std::str::FromStr>(args: &[String], i: &mut usize) -> Result<T, String> {
        let flag = &args[*i];
        *i += 1;
        args.get(*i)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
    }
    let mut o = Options::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => o.workload = Some(value(args, &mut i)?),
            "--seed" => o.seed = value(args, &mut i)?,
            "--seconds" => o.seconds = value(args, &mut i)?,
            "--ops" => o.ops = Some(value(args, &mut i)?),
            "--reps" => o.reps = Some(value(args, &mut i)?),
            "--out" => o.out = Some(value(args, &mut i)?),
            "--smoke" => o.smoke = true,
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    o.trace = false;
                    i += 1;
                }
                Some("1") => {
                    o.trace = true;
                    i += 1;
                }
                _ => o.trace = true,
            },
            "--compare" => {
                let a = value(args, &mut i)?;
                let b = value(args, &mut i)?;
                o.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
        i += 1;
    }
    if let Some(w) = &o.workload {
        let workloads = &tables().workloads;
        if !workloads.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = workloads.iter().map(|w| w.0.as_str()).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    if !o.seconds.is_finite() || o.seconds <= 0.0 {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    Ok(o)
}

/// Where build products and span files go: `$CARGO_TARGET_DIR`, else
/// `target`, relative to the working directory.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// `(nominal ops, traced ops)` of a workload: requests or packets for the
/// data-path workloads, replications and rollouts for the others. A traced
/// run always does the same fixed work, whatever `--seconds` says, so that
/// its counts repeat exactly.
fn scale(workload: &str) -> (u64, u64) {
    match workload {
        "l7_small" => (2_000_000, 100_000),
        "l7_bulk" => (100_000, 10_000),
        "l4_fastpath" => (8_000_000, 200_000),
        "sim_scenarios" => (100, 10),
        _ => (600, 60),
    }
}

/// Run one workload in this process.
pub fn run_workload(workload: &str, o: &Options) -> RunResult {
    let (nominal, traced) = scale(workload);
    let fixed = match workload {
        "l7_small" | "l7_bulk" | "l4_fastpath" => o.ops,
        _ => o.reps,
    }
    .or(o.smoke.then_some((nominal / 100).max(1)));
    let segments = if o.smoke { 1 } else { SEGMENTS };
    let budget = fixed.map_or(Budget::Seconds(o.seconds), Budget::Ops);
    let traced_ops = fixed.unwrap_or(traced);
    let spans = target_dir()
        .join("benchmark")
        .join(format!("{workload}.spans.csv"));
    let params = match workload {
        "l7_small" => Some(datapath::L7_SMALL),
        "l7_bulk" => Some(datapath::L7_BULK),
        "l4_fastpath" => Some(datapath::L4_FASTPATH),
        _ => None,
    };
    match (params, workload, o.trace) {
        (Some(p), _, false) => datapath::run_untraced(&p, o.seed, budget, segments),
        (Some(p), _, true) => datapath::run_traced(&p, o.seed, traced_ops, &spans),
        (None, "sim_scenarios", false) => sim::run_untraced(o.seed, budget, segments),
        (None, "sim_scenarios", true) => sim::run_traced(o.seed, traced_ops, &spans, !o.smoke),
        (None, _, false) => rollout::run_untraced(o.seed, budget, segments),
        (None, _, true) => rollout::run_traced(o.seed, traced_ops, &spans),
    }
}

fn print_single(workload: &str, o: &Options, r: &RunResult) {
    let defs = if o.trace {
        &tables().per_layer
    } else {
        &tables().end_to_end
    };
    println!(
        "workload {workload} seed {} {}: {} attempted, {} failed",
        o.seed,
        if o.trace { "traced" } else { "untraced" },
        r.attempted,
        r.failed
    );
    print!("{}", r.to_table(defs));
    for def in defs.iter().filter(|d| repeats_exactly(&d.name)) {
        println!("# exact {} {}", def.name, r.get(&def.name).unwrap_or(0.0));
    }
    for (name, value) in &r.exact {
        println!("# exact {name} {value}");
    }
    if o.trace {
        if let Some(noise) = r.get("host.noise_ratio").filter(|&n| n > 1.25) {
            println!("# noisy: chunk p90 / p50 = {noise:.3}");
        }
    }
    println!("{}", r.to_json_line(defs));
}

/// One child run, as the parent reads it back.
struct ChildRun {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    exact: Vec<(String, String)>,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

fn run_child(workload: &str, o: &Options, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &o.seed.to_string()]);
    cmd.args([
        "--seconds",
        &o.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    if let Some(n) = o.ops {
        cmd.args(["--ops", &n.to_string()]);
    }
    if let Some(n) = o.reps {
        cmd.args(["--reps", &n.to_string()]);
    }
    // `output` waits for the child to end; its stderr passes through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no output"))?;
    let v = json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let num = |key: &str| v.get(key).and_then(json::Value::as_f64).unwrap_or(0.0) as u64;
    let metrics = v
        .get("metrics")
        .map(|m| {
            m.members()
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default();
    let exact = text
        .lines()
        .filter_map(|l| l.strip_prefix("# exact "))
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok(ChildRun {
        attempted: num("attempted"),
        failed: num("failed"),
        metrics,
        exact,
    })
}

fn host_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}}}",
        json::quote(&cpu),
        json::quote(&rustc)
    )
}

/// Run every workload, each run in a process of its own, print every metric
/// and write one JSON document. Returns the number of failed ops.
pub fn run_all(o: &Options) -> Result<u64, String> {
    let mut failed_total = 0;
    let repeats = if o.smoke { 1 } else { REPEATS };
    let Tables {
        workloads,
        end_to_end,
        per_layer,
    } = tables();
    let mut doc = format!(
        "{{\n\"schema\": 1,\n\"seed\": {},\n\"seconds\": {},\n\"repeats\": {},\n\"smoke\": {},\n\"host\": {},\n\"workloads\": {{\n",
        o.seed,
        o.seconds,
        repeats,
        o.smoke,
        host_json()
    );
    for (w, (workload, why)) in workloads.iter().enumerate() {
        println!("== {workload}: {why}");
        let mut runs = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            runs.push(run_child(workload, o, false)?);
        }
        let mut exact: Vec<(String, String)> = Vec::new();
        let attempted: Vec<String> = runs.iter().map(|r| r.attempted.to_string()).collect();
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        let _ = write!(
            doc,
            "{}: {{\n  \"attempted\": [{}],\n  \"failed\": {failed},\n  \"end_to_end\": {{\n",
            json::quote(workload),
            attempted.join(", ")
        );
        for (i, def) in end_to_end.iter().enumerate() {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.metric(&def.name)).collect();
            let median = stats::median(&values);
            let spread = if median > 0.0 {
                (values.iter().copied().fold(f64::MIN, f64::max)
                    - values.iter().copied().fold(f64::MAX, f64::min))
                    / median
            } else {
                0.0
            };
            println!(
                "  {:<38} {:>18.4} {:<6} spread {:>5.2}% of {} runs (bound {:.0}%)",
                def.name,
                median,
                def.unit,
                100.0 * spread,
                values.len(),
                100.0 * bound(workload, &def.name)
            );
            let list: Vec<String> = values.iter().map(f64::to_string).collect();
            let _ = writeln!(
                doc,
                "    {}: {{\"unit\": {}, \"median\": {median}, \"spread\": {spread}, \"runs\": [{}]}}{}",
                json::quote(&def.name),
                json::quote(&def.unit),
                list.join(", "),
                if i + 1 < end_to_end.len() { "," } else { "" }
            );
        }
        doc.push_str("  },\n  \"per_layer\": {\n");
        // Digests must agree between the repeats, too.
        for run in &runs {
            for (k, v) in &run.exact {
                match exact.iter().find(|(name, _)| name == k) {
                    None => exact.push((k.clone(), v.clone())),
                    Some((_, first)) if first != v => {
                        println!("FAIL {workload}: {k} was {first}, then {v}");
                        failed_total += 1;
                    }
                    Some(_) => {}
                }
            }
        }
        let mut traced_failed = 0;
        if o.trace {
            let traced = run_child(workload, o, true)?;
            traced_failed = traced.failed;
            for (i, def) in per_layer.iter().enumerate() {
                let value = traced.metric(&def.name).unwrap_or(0.0);
                println!("  {:<38} {:>18.4} {}", def.name, value, def.unit);
                let _ = writeln!(
                    doc,
                    "    {}: {{\"value\": {value}, \"unit\": {}}}{}",
                    json::quote(&def.name),
                    json::quote(&def.unit),
                    if i + 1 < per_layer.len() { "," } else { "" }
                );
            }
            if let Some(noise) = traced.metric("host.noise_ratio").filter(|&n| n > 1.25) {
                println!("  noisy: chunk p90 / p50 = {noise:.3}");
            }
            for (k, v) in traced.exact {
                if !exact.iter().any(|(name, _)| *name == k) {
                    exact.push((k, v));
                }
            }
        }
        doc.push_str("  },\n  \"exact\": {\n");
        for (i, (k, v)) in exact.iter().enumerate() {
            let _ = writeln!(
                doc,
                "    {}: {}{}",
                json::quote(k),
                json::quote(v),
                if i + 1 < exact.len() { "," } else { "" }
            );
        }
        let _ = write!(
            doc,
            "  }}\n}}{}\n",
            if w + 1 < workloads.len() { "," } else { "" }
        );
        failed_total += failed + traced_failed;
    }
    doc.push_str("}\n}\n");
    let out = o
        .out
        .clone()
        .unwrap_or_else(|| target_dir().join("benchmark").join("result.json"));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(failed_total)
}

/// The whole program: returns the exit code.
pub fn main_with_args(args: &[String]) -> i32 {
    let o = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if let Some((a, b)) = &o.compare {
        return match crate::compare::compare_files(a, b) {
            Ok(report) => {
                print!("{}", report.text);
                i32::from(report.worse > 0)
            }
            Err(e) => {
                eprintln!("{e}");
                2
            }
        };
    }
    match &o.workload {
        Some(w) => {
            let r = run_workload(w, &o);
            print_single(w, &o, &r);
            i32::from(r.failed > 0)
        }
        None => match run_all(&o) {
            Ok(0) => 0,
            Ok(failed) => {
                eprintln!("FAIL: {failed} ops or exact values did not come out as expected");
                1
            }
            Err(e) => {
                eprintln!("{e}");
                2
            }
        },
    }
}
