//! `--compare A.json B.json`: apply each end-to-end metric's bound,
//! workload by workload, to two result documents written by a run of every
//! workload (A the parent, B the change).

use crate::json::{self, Value};
use crate::report::tables;
use std::fmt::Write as _;
use std::path::Path;

/// Slack on `setup_s` in seconds: its bound is 25% or this, whichever is
/// larger, since some set-ups last only tens of milliseconds.
const SETUP_SLACK_S: f64 = 0.05;

/// Share of A's median a metric of a workload may get worse by before the
/// row reads `worse`. Both documents come from the same seed, back to back,
/// with a spread between repeats of their own, so this is tighter than the
/// bound `BENCHMARK.json` gives the driver, which has to hold over ten seeds
/// on all five workloads whatever the host is doing; when it is doing too
/// much for 10%, the row reads `unresolved`.
pub fn bound(workload: &str, metric: &str) -> f64 {
    match (workload, metric) {
        (_, "setup_s") => 0.25,
        // A commit is a compile, bound by memory latency: back-to-back runs
        // of one binary differ by 5-10% here, on a host where those of the
        // other four workloads differ by 1-5%.
        ("policy_rollout", "ops_per_s" | "op_ns_p50" | "op_ns_p90") => 0.15,
        _ => 0.10,
    }
}

/// The rows, and how many of them gate.
pub struct Report {
    pub text: String,
    /// Rows reading `worse` or `differs`.
    pub worse: usize,
    pub unresolved: usize,
}

/// `same`, `worse`, `better` or `unresolved` for one metric of one
/// workload. `spread` is the larger of the two documents' spreads between
/// repeats, as a share of the median.
pub fn verdict(name: &str, better: &str, bound: f64, a: f64, b: f64, spread: f64) -> &'static str {
    let worsening = if better == "higher" { a - b } else { b - a };
    let mut allowed = bound * a.abs();
    if name == "setup_s" {
        allowed = allowed.max(SETUP_SLACK_S);
    }
    if spread > bound {
        "unresolved"
    } else if worsening > allowed {
        "worse"
    } else if -worsening > allowed {
        "better"
    } else {
        "same"
    }
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Member `key` of member `outer` of `v`.
fn at<'a>(v: &'a Value, outer: &str, key: &str) -> Option<&'a Value> {
    v.get(outer)?.get(key)
}

/// The keys of object `key` in `a`, then those only `b` has.
fn union_keys<'a>(a: &'a Value, b: &'a Value, key: &str) -> Vec<&'a str> {
    let members = |v: &'a Value| v.get(key).map_or(&[][..], Value::members);
    let mut keys: Vec<&str> = members(a).iter().map(|(k, _)| k.as_str()).collect();
    for (k, _) in members(b) {
        if !keys.contains(&k.as_str()) {
            keys.push(k);
        }
    }
    keys
}

/// Compare two parsed documents. Whatever only one of them has (a
/// workload, a metric, a digest) reads `differs` and gates.
pub fn compare(a: &Value, b: &Value) -> Report {
    let mut r = Report {
        text: String::new(),
        worse: 0,
        unresolved: 0,
    };
    let _ = writeln!(
        r.text,
        "{:<15} {:<14} {:>16} {:>16} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let side = |v: Option<&Value>| if v.is_some() { "B" } else { "A" };
    for workload in union_keys(a, b, "workloads") {
        let (wa, wb) = (at(a, "workloads", workload), at(b, "workloads", workload));
        let (Some(wa), Some(wb)) = (wa, wb) else {
            let _ = writeln!(r.text, "{workload:<15} missing from {}  differs", side(wa));
            r.worse += 1;
            continue;
        };
        for metric in union_keys(wa, wb, "end_to_end") {
            let (ma, mb) = (at(wa, "end_to_end", metric), at(wb, "end_to_end", metric));
            let def = tables().end_to_end.iter().find(|m| m.name == metric);
            let (Some(ma), Some(mb), Some(def)) = (ma, mb, def) else {
                let _ = writeln!(
                    r.text,
                    "{workload:<15} {metric:<14} undeclared, or missing from {}  differs",
                    side(ma)
                );
                r.worse += 1;
                continue;
            };
            let (va, vb) = (num(ma, "median"), num(mb, "median"));
            let spread = num(ma, "spread").max(num(mb, "spread"));
            let bound = bound(workload, metric);
            let what = verdict(metric, &def.better, bound, va, vb, spread);
            r.worse += usize::from(what == "worse");
            r.unresolved += usize::from(what == "unresolved");
            let change = if va != 0.0 {
                100.0 * (vb - va) / va
            } else {
                0.0
            };
            let _ = writeln!(
                r.text,
                "{workload:<15} {metric:<14} {va:>16.4} {vb:>16.4} {change:>+7.2}% {:>6.0}%  {what}",
                100.0 * bound
            );
        }
        // Failures, digests, event counts and allocation counts are exact.
        let (fa, fb) = (num(wa, "failed"), num(wb, "failed"));
        let what = if fa == fb { "same" } else { "differs" };
        r.worse += usize::from(fa != fb);
        let _ = writeln!(
            r.text,
            "{workload:<15} {:<14} {fa:>16} {fb:>16} {:>8} {:>7}  {what}",
            "failed", "", "exact"
        );
        for key in union_keys(wa, wb, "exact") {
            let text = |w| at(w, "exact", key).and_then(Value::as_str);
            let (ea, eb) = (text(wa), text(wb));
            if ea != eb {
                r.worse += 1;
                let _ = writeln!(
                    r.text,
                    "{workload:<15} {key} {} -> {}  differs",
                    ea.unwrap_or("missing"),
                    eb.unwrap_or("missing")
                );
            }
        }
    }
    let _ = writeln!(
        r.text,
        "{} worse or differing, {} unresolved",
        r.worse, r.unresolved
    );
    r
}

/// Compare two result files.
pub fn compare_files(a: &Path, b: &Path) -> Result<Report, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    Ok(compare(&load(a)?, &load(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        assert_eq!(
            verdict("ops_per_s", "higher", 0.1, 100.0, 95.0, 0.01),
            "same"
        );
        assert_eq!(
            verdict("ops_per_s", "higher", 0.1, 100.0, 85.0, 0.01),
            "worse"
        );
        assert_eq!(
            verdict("ops_per_s", "higher", 0.1, 100.0, 115.0, 0.01),
            "better"
        );
        assert_eq!(
            verdict("op_ns_p50", "lower", 0.1, 100.0, 115.0, 0.01),
            "worse"
        );
        assert_eq!(
            verdict("op_ns_p50", "lower", 0.1, 100.0, 115.0, 0.2),
            "unresolved"
        );
        // 25% of 40 ms is 10 ms, but the slack is 50 ms.
        assert_eq!(verdict("setup_s", "lower", 0.25, 0.040, 0.080, 0.0), "same");
        assert_eq!(
            verdict("setup_s", "lower", 0.25, 0.040, 0.100, 0.0),
            "worse"
        );
    }

    /// A document of one workload `w`: `metrics` as `(name, median)`,
    /// `exact` as `(key, value)`.
    fn doc(metrics: &[(&str, f64)], exact: &[(&str, &str)]) -> Value {
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(name, v)| format!(r#""{name}": {{"median": {v}, "spread": 0.01}}"#))
            .collect();
        let exact: Vec<String> = exact
            .iter()
            .map(|(k, v)| format!(r#""{k}": "{v}""#))
            .collect();
        json::parse(&format!(
            r#"{{"workloads": {{"w": {{"failed": 0, "end_to_end": {{{}}}, "exact": {{{}}}}}}}}}"#,
            metrics.join(", "),
            exact.join(", ")
        ))
        .unwrap()
    }

    const DIGEST: (&str, &str) = ("digest.surge.seed1", "0x1");

    #[test]
    fn a_slower_or_differing_run_gates() {
        let a = doc(&[("ops_per_s", 100.0)], &[DIGEST]);
        let worse = |b: &Value| compare(&a, b).worse;
        assert_eq!(worse(&doc(&[("ops_per_s", 99.0)], &[DIGEST])), 0);
        assert_eq!(worse(&doc(&[("ops_per_s", 89.0)], &[DIGEST])), 1);
        let other = [("digest.surge.seed1", "0x2")];
        assert_eq!(worse(&doc(&[("ops_per_s", 100.0)], &other)), 1);
    }

    #[test]
    fn what_only_one_side_has_gates() {
        let a = doc(&[("ops_per_s", 100.0), ("op_ns_p50", 5.0)], &[DIGEST]);
        // Each direction: a metric, an exact key, a workload.
        let fewer_metrics = doc(&[("ops_per_s", 100.0)], &[DIGEST]);
        assert_eq!(compare(&a, &fewer_metrics).worse, 1);
        assert_eq!(compare(&fewer_metrics, &a).worse, 1);
        let no_digest = doc(&[("ops_per_s", 100.0), ("op_ns_p50", 5.0)], &[]);
        assert_eq!(compare(&a, &no_digest).worse, 1);
        assert_eq!(compare(&no_digest, &a).worse, 1);
        let empty = json::parse(r#"{"workloads": {}}"#).unwrap();
        assert_eq!(compare(&a, &empty).worse, 1);
        assert_eq!(compare(&empty, &a).worse, 1);
        // And a metric BENCHMARK.json does not declare.
        let undeclared = doc(&[("ops_per_s", 100.0), ("made_up", 1.0)], &[DIGEST]);
        assert_eq!(compare(&undeclared, &undeclared).worse, 1);
    }
}
