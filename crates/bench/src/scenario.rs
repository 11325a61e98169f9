//! The contract of the eight robustness scenarios, stated once: a scenario
//! says what differs ([`Scenario`]), and [`drive`] runs it twice at one
//! seed, holds the two digests equal and the invariant true, and builds the
//! report and the JSON document CI archives from the first outcome.

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
    /// Every way the invariant is violated; it holds at any scale, unlike
    /// the report's bands, which are tuned for the full one.
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

/// One failure line per clause of the `what` invariant that does not hold.
pub fn violated(what: &str, clauses: &[(&str, bool)]) -> Vec<String> {
    let broken = clauses.iter().filter(|(_, holds)| !holds);
    broken.map(|(clause, _)| format!("{what} invariant violated: {clause}")).collect()
}

/// One full-scale run's report.
pub fn report<S: Scenario>(seed: u64) -> ExperimentReport {
    let params = S::params(false);
    S::run(seed, &params).report(seed, &params)
}

/// Run `S` twice at `seed` and judge it.
pub fn drive<S: Scenario>(seed: u64, fast: bool) -> ScenarioRun {
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
    pub fn lit(value: impl std::fmt::Display) -> Json {
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
