//! The contract of the eight robustness scenarios, stated once: a scenario
//! says what differs ([`Scenario`]), and [`drive`] runs it twice at one
//! seed, holds the two digests equal and the invariant true, and builds the
//! report and the JSON document CI archives from the first outcome.

use crate::harness::Check;
use crate::ExperimentReport;

/// A robustness scenario, implemented by its outcome type.
pub trait Scenario: Sized {
    /// Experiment id, also the stem of the JSON file name.
    const ID: &'static str;
    /// What [`Scenario::failures`] holds, in one line (`experiments --list`).
    const INVARIANT: &'static str;
    /// Key of the invariant's verdict in the JSON document.
    const OK_KEY: &'static str;
    /// What scales the run.
    type Params;

    /// The full-scale parameters, or the compressed smoke ones.
    fn params(fast: bool) -> Self::Params;
    /// One run. Fully deterministic in `seed`.
    fn run(seed: u64, params: &Self::Params) -> Self;
    /// The whole outcome folded into one value (the outcome types' own
    /// `digest()`, which `benchmark/` calls without this trait in scope).
    fn outcome_digest(&self) -> u64;
    /// Every way the invariant is violated, one line per broken clause.
    ///
    /// A scenario's claims (`Claim`: a report check and the clauses it
    /// rests on) are the one place its properties are stated. `violated`
    /// flattens them into these lines and `checks` into the report's checks,
    /// so a check passes exactly when its clauses hold, and the golden
    /// double-run test holds every clause at every pinned run: a property
    /// needs no test of its own. Each clause holds at any scale, unlike the
    /// report's bands, which are tuned for the full one.
    fn failures(&self) -> Vec<String>;
    /// The scenario's sections of the JSON document, in order.
    fn json(&self) -> Vec<(&'static str, Json)>;
    /// The paper-shaped tables and checks of this outcome.
    fn report(&self, seed: u64, params: &Self::Params) -> ExperimentReport;
}

/// What [`drive`] hands the runner.
#[derive(Debug)]
pub struct ScenarioRun {
    /// Report of the first run.
    pub report: ExperimentReport,
    /// Digest of the first run.
    pub digest: u64,
    /// Invariant violations, and the divergence of the two runs if any:
    /// empty means the scenario's claim stands.
    pub failures: Vec<String>,
    /// The machine-readable report.
    pub json: String,
}

/// A scenario as the experiment table holds it.
#[derive(Debug, Clone, Copy)]
pub struct Driver {
    /// [`Scenario::INVARIANT`].
    pub invariant: &'static str,
    /// [`drive`], as `(seed, fast)`.
    pub drive: fn(u64, bool) -> ScenarioRun,
}

/// One scenario property: a report check and the invariant clauses, `(clause,
/// holds)`, that its pass bit is the conjunction of.
pub(crate) struct Claim {
    /// `None` for clauses the report shows no check for.
    check: Option<Check>,
    clauses: Vec<(String, bool)>,
}

impl Claim {
    /// A check that passes when every one of `clauses` holds.
    pub(crate) fn new<S: AsRef<str>>(name: &str, paper: &str, measured: &str, clauses: &[(S, bool)]) -> Claim {
        let claim = Claim::unreported(clauses);
        let pass = claim.clauses.iter().all(|(_, holds)| *holds);
        Claim { check: Some(Check::cond(name, paper, measured, pass)), ..claim }
    }

    /// Clauses of the invariant that no report check shows.
    pub(crate) fn unreported<S: AsRef<str>>(clauses: &[(S, bool)]) -> Claim {
        let clauses = clauses.iter().map(|(clause, holds)| (clause.as_ref().to_string(), *holds)).collect();
        Claim { check: None, clauses }
    }

    /// A report check on `measured` against an inclusive band. Bands are
    /// tuned for the full scale, so a band adds no clause.
    pub(crate) fn band(name: &str, paper: &str, measured: f64, lo: f64, hi: f64) -> Claim {
        Claim { check: Some(Check::band(name, paper, measured, lo, hi)), clauses: Vec::new() }
    }
}

/// One failure line per clause of the `what` invariant that does not hold;
/// a clause two checks rest on gives one line.
pub(crate) fn violated(what: &str, claims: &[Claim]) -> Vec<String> {
    let mut lines = Vec::new();
    for (clause, _) in claims.iter().flat_map(|c| &c.clauses).filter(|(_, holds)| !holds) {
        let line = format!("{what} invariant violated: {clause}");
        if !lines.contains(&line) {
            lines.push(line);
        }
    }
    lines
}

/// The report checks of `claims`, in order.
pub(crate) fn checks(claims: impl IntoIterator<Item = Claim>) -> impl Iterator<Item = Check> {
    claims.into_iter().filter_map(|c| c.check)
}

/// One full-scale run's report.
pub(crate) fn report<S: Scenario>(seed: u64) -> ExperimentReport {
    let params = S::params(false);
    S::run(seed, &params).report(seed, &params)
}

/// Run `S` twice at `seed` and judge it.
pub(crate) fn drive<S: Scenario>(seed: u64, fast: bool) -> ScenarioRun {
    let params = S::params(fast);
    let outcome = S::run(seed, &params);
    let (digest, again) = (outcome.outcome_digest(), S::run(seed, &params).outcome_digest());
    let mut failures = outcome.failures();
    let invariant_ok = failures.is_empty();
    if digest != again {
        failures.push(format!("double run diverged ({digest:#018x} vs {again:#018x})"));
    }
    let report = outcome.report(seed, &params);

    let mut doc = vec![
        ("experiment", Json::lit(format_args!("{:?}", S::ID))),
        ("seed", Json::lit(seed)),
        ("mode", Json::lit(if fast { "\"fast\"" } else { "\"full\"" })),
        ("digest", Json::lit(format_args!("\"{digest:#018x}\""))),
        (S::OK_KEY, Json::lit(invariant_ok)),
    ];
    doc.extend(outcome.json());
    let checks = report.checks.iter();
    doc.push((
        "checks",
        Json::Arr(checks.map(|c| format!("{{\"name\": {:?}, \"pass\": {}}}", c.name, c.pass)).collect()),
    ));
    let mut json = String::from("{\n");
    let last = doc.len() - 1;
    for (i, (key, value)) in doc.iter().enumerate() {
        value.write(key, 1, i == last, &mut json);
    }
    json.push_str("}\n");
    ScenarioRun { report, digest, failures, json }
}

/// A JSON value whose leaves are rendered already. Hand-rolled: no serde in
/// the workspace.
#[derive(Debug)]
pub enum Json {
    /// A number, boolean or quoted string, as it is to appear.
    Lit(String),
    /// An object, fields in the order given.
    Obj(Vec<(&'static str, Json)>),
    /// An array of rendered values, one per line.
    Arr(Vec<String>),
}

impl Json {
    /// A leaf.
    pub(crate) fn lit(value: impl std::fmt::Display) -> Json {
        Json::Lit(value.to_string())
    }

    fn write(&self, key: &str, depth: usize, last: bool, out: &mut String) {
        let pad = "  ".repeat(depth);
        let comma = |last: bool| if last { "" } else { "," };
        match self {
            Json::Lit(value) => out.push_str(&format!("{pad}\"{key}\": {value}{}\n", comma(last))),
            Json::Obj(fields) => {
                out.push_str(&format!("{pad}\"{key}\": {{\n"));
                for (i, (k, v)) in fields.iter().enumerate() {
                    v.write(k, depth + 1, i + 1 == fields.len(), out);
                }
                out.push_str(&format!("{pad}}}{}\n", comma(last)));
            }
            Json::Arr(items) => {
                out.push_str(&format!("{pad}\"{key}\": [\n"));
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&format!("{pad}  {item}{}\n", comma(i + 1 == items.len())));
                }
                out.push_str(&format!("{pad}]{}\n", comma(last)));
            }
        }
    }
}

/// A [`Json::Obj`] of `$src`'s fields: `name` reads `$src.name`, `name:
/// expr` renders `expr` under that key.
macro_rules! fields {
    ($src:expr => $($name:ident $(: $value:expr)?),+ $(,)?) => {
        $crate::scenario::Json::Obj(vec![
            $((stringify!($name), $crate::scenario::fields!(@leaf $src, $name $(, $value)?))),+
        ])
    };
    (@leaf $src:expr, $name:ident) => { $crate::scenario::Json::lit(&$src.$name) };
    (@leaf $src:expr, $name:ident, $value:expr) => { $crate::scenario::Json::lit($value) };
}
pub(crate) use fields;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_check_passes_exactly_when_its_clauses_hold() {
        let broken = || Claim::new("broken", "paper", "measured", &[("holds", true), ("breaks", false)]);
        let whole = Claim::new("whole", "paper", "measured", &[("holds", true), ("holds too", true)]);
        let pass = |claim: Claim| checks(vec![claim]).map(|c| c.pass).collect::<Vec<_>>();

        assert_eq!(violated("toy", &[broken()]), ["toy invariant violated: breaks"]);
        assert_eq!(pass(broken()), [false]);
        assert!(violated("toy", std::slice::from_ref(&whole)).is_empty());
        assert_eq!(pass(whole), [true]);
        // Two checks resting on one broken clause give one line.
        assert_eq!(violated("toy", &[broken(), broken()]), ["toy invariant violated: breaks"]);
    }
}
