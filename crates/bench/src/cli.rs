//! What the `canal-bench` binaries share (std-only): flag parsing, the
//! `FAIL:` exit gates, and the envelope of the JSON report CI archives.

use crate::ExperimentReport;

/// Remove the first `flag` from `args`; true if it was there.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let pos = args.iter().position(|a| a == flag);
    pos.map(|p| args.remove(p)).is_some()
}

/// Remove the first `flag` and the value after it from `args`; `None` if
/// the flag is absent. A missing or unparsable value is a usage error:
/// prints `"{flag} takes {what}"` and exits with status 2.
pub fn take_value<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str, what: &str) -> Option<T> {
    let pos = args.iter().position(|a| a == flag)?;
    args.remove(pos);
    let value = (pos < args.len()).then(|| args.remove(pos));
    let parsed = value.and_then(|v| v.parse().ok());
    if parsed.is_none() {
        eprintln!("{flag} takes {what}");
        std::process::exit(2);
    }
    parsed
}

/// Exit with status 1 and `FAIL: {what}` unless `ok`.
pub fn gate(ok: bool, what: &str) {
    if !ok {
        eprintln!("FAIL: {what}");
        std::process::exit(1);
    }
}

/// Gate on the report's tuned bands, at full scale only: in `--fast` smoke
/// mode a bin gates on its invariant alone, and the experiments driver
/// asserts the bands.
pub fn gate_checks(fast: bool, report: &ExperimentReport, name: &str) {
    let missed = report.checks.iter().filter(|c| !c.pass).count();
    gate(fast || missed == 0, &format!("{missed} {name} checks missed"));
}

/// Write a bin's JSON report to `path`, or fail the run.
pub fn write_report(path: &str, json: String) {
    match std::fs::write(path, json) {
        Ok(()) => println!("report written to {path}"),
        Err(e) => gate(false, &format!("could not write {path}: {e}")),
    }
}

/// The JSON report of one smoke run: its identity, the invariant's verdict
/// (`ok` is the key and the value), the bin's own `body` (whole
/// `"key": value,` lines at two-space indent) and every check of `report`.
/// Hand-rolled: no serde in the workspace.
pub fn report_json(
    experiment: &str,
    seed: u64,
    fast: bool,
    digest: u64,
    ok: (&str, bool),
    body: &str,
    report: &ExperimentReport,
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"experiment\": \"{experiment}\",\n"));
    s.push_str(&format!("  \"seed\": {seed},\n"));
    s.push_str(&format!("  \"mode\": \"{}\",\n", if fast { "fast" } else { "full" }));
    s.push_str(&format!("  \"digest\": \"{digest:#018x}\",\n"));
    s.push_str(&format!("  \"{}\": {},\n", ok.0, ok.1));
    s.push_str(body);
    s.push_str("  \"checks\": [\n");
    for (i, check) in report.checks.iter().enumerate() {
        let comma = if i + 1 == report.checks.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": {:?}, \"pass\": {}}}{comma}\n",
            check.name, check.pass
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_and_values_are_removed_where_found() {
        let mut a = args(&["fig11", "--seed", "7", "--fast", "--json", "out.json"]);
        assert_eq!(take_value::<u64>(&mut a, "--seed", "a u64"), Some(7));
        assert_eq!(take_value::<String>(&mut a, "--json", "a path"), Some("out.json".into()));
        assert!(take_flag(&mut a, "--fast"));
        assert!(!take_flag(&mut a, "--fast"));
        assert_eq!(take_value::<u64>(&mut a, "--seed", "a u64"), None);
        assert_eq!(a, args(&["fig11"]));
    }
}
