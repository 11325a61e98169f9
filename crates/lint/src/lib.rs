//! canal-lint: workspace determinism & invariant static analysis.
//!
//! A std-only, dependency-free analyzer over every `.rs` file in the
//! workspace (plus each crate's `Cargo.toml`), enforcing the determinism
//! contract described in DESIGN.md. Two stages:
//!
//! **Line stage** (lexer + patterns over masked code):
//!
//! * **determinism** — simulation-facing crates may not read wall clocks
//!   (`Instant::now`, `SystemTime::now`), draw ambient randomness
//!   (`thread_rng`, `rand::random`, `OsRng`, ...), use hash-ordered
//!   collections (`HashMap`/`HashSet`) outside tests, or hold ambient
//!   global state (`static mut`, `thread_local!`, a `static` `OnceLock`, ...).
//! * **stdout / panic policy** — only `canal-bench` and binaries print;
//!   no `unwrap()`/`expect()`/`panic!` in library code outside
//!   `#[cfg(test)]`.
//!
//! **Graph stage** ([`parser`] items folded into a [`graph::SymbolGraph`]):
//!
//! * **layering** — crate references from the parsed `use` graph (aliases
//!   resolved, multi-line groups handled) and manifest dependencies must
//!   follow the DAG declared in [`rules::LAYERING_DAG`].
//! * **digest-coverage** — mutable-state structs in digest-participating
//!   crates must be reachable from a `fold_digest` impl, and every field a
//!   struct mutates must appear in its own fold.
//! * **bounded-state** — growable collection fields on long-lived structs
//!   must carry a cap const, an eviction counter, or a shrink path.
//! * **seed-dataflow** — fns seeding a `SimRng` must take one from their
//!   callers (directly or through the in-file call graph).
//!
//! Deliberate exceptions are annotated in the source as
//! `// lint:allow(<rule>) reason=<why>` on the offending line or the line
//! above (digest-coverage reasons are typed: `reason=derived: ...` or
//! `reason=transient: ...`). A suppression with no reason, an unknown rule
//! id, or one that suppresses nothing is itself a violation, so the
//! annotations cannot rot.
//!
//! Entry points: `cargo run -p canal-lint` (human report, nonzero exit on
//! violations; `--json` for the machine-readable report, `--explain` for
//! per-rule rationale) and the root-crate integration test `tests/lint.rs`
//! (so `cargo test` fails on violations too). [`scan_fixture_dir`] runs the
//! same rules over `crates/lint/fixtures/` — known-bad snippets acting as a
//! self-test that every rule still fires.

#![forbid(unsafe_code)]

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;

use graph::FileRecord;
use lexer::LexedFile;
use rules::{Pattern, TargetKind};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation at a concrete source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (one of [`rules::RULE_IDS`]).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human explanation of what was matched and why it is forbidden.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A suppressed (annotated) would-be violation, kept for reporting.
#[derive(Debug, Clone)]
pub struct Suppressed {
    /// Rule that would have fired.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The justification given in the annotation.
    pub reason: String,
}

/// Outcome of a scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations, sorted by (file, line).
    pub violations: Vec<Violation>,
    /// Annotated exceptions that were honoured.
    pub suppressed: Vec<Suppressed>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of manifests checked against the layering DAG.
    pub manifests_checked: usize,
}

impl Report {
    /// True when no rule fired.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Distinct rule ids that fired (for the fixture self-test).
    pub fn rules_fired(&self) -> Vec<&'static str> {
        let mut ids: Vec<&'static str> = self.violations.iter().map(|v| v.rule).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Render the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!("error: {v}\n"));
        }
        out.push_str(&format!(
            "canal-lint: {} file(s), {} manifest(s) scanned; {} violation(s), {} suppressed exception(s)\n",
            self.files_scanned,
            self.manifests_checked,
            self.violations.len(),
            self.suppressed.len(),
        ));
        if !self.suppressed.is_empty() {
            out.push_str("suppressed exceptions:\n");
            for s in &self.suppressed {
                out.push_str(&format!(
                    "  {}:{}: [{}] {}\n",
                    s.file, s.line, s.rule, s.reason
                ));
            }
        }
        out
    }

    /// Render the machine-readable report (`canal-lint --json`), for CI
    /// artifacts and tooling. Hand-rolled: the linter stays dependency-free.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"clean\": {},\n", self.clean()));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!(
            "  \"manifests_checked\": {},\n",
            self.manifests_checked
        ));
        let fired: Vec<String> = self
            .rules_fired()
            .iter()
            .map(|r| format!("\"{r}\""))
            .collect();
        out.push_str(&format!("  \"rules_fired\": [{}],\n", fired.join(", ")));
        out.push_str("  \"violations\": [\n");
        let vs: Vec<String> = self
            .violations
            .iter()
            .map(|v| {
                format!(
                    "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                    v.rule,
                    esc(&v.file),
                    v.line,
                    esc(&v.message)
                )
            })
            .collect();
        out.push_str(&vs.join(",\n"));
        out.push_str(if vs.is_empty() { "  ],\n" } else { "\n  ],\n" });
        out.push_str("  \"suppressed\": [\n");
        let ss: Vec<String> = self
            .suppressed
            .iter()
            .map(|s| {
                format!(
                    "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
                    s.rule,
                    esc(&s.file),
                    s.line,
                    esc(&s.reason)
                )
            })
            .collect();
        out.push_str(&ss.join(",\n"));
        out.push_str(if ss.is_empty() { "  ]\n" } else { "\n  ]\n" });
        out.push_str("}\n");
        out
    }

    fn sort(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.suppressed
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    }
}

/// A candidate violation before suppression matching.
#[derive(Debug)]
pub(crate) struct Finding {
    pub(crate) rule: &'static str,
    pub(crate) line: usize,
    pub(crate) message: String,
}

fn deps_of(ident: &str) -> Option<&'static [&'static str]> {
    rules::LAYERING_DAG
        .iter()
        .find(|(n, _)| *n == ident)
        .map(|(_, d)| *d)
}

fn test_only_deps_of(ident: &str) -> &'static [&'static str] {
    rules::TEST_ONLY_DEPS
        .iter()
        .find(|(n, _)| *n == ident)
        .map(|(_, d)| *d)
        .unwrap_or(&[])
}

fn is_determinism_crate(ident: &str) -> bool {
    rules::DETERMINISM_CRATES.contains(&ident)
}

/// Run the line-stage rules plus the parsed-use-graph layering check over
/// one lexed+parsed source file.
fn findings_for(record: &FileRecord, lexed: &LexedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let crate_ident = record.crate_ident.as_str();
    let kind = record.kind;
    let determinism = is_determinism_crate(crate_ident);

    fn push_patterns(
        findings: &mut Vec<Finding>,
        rule: &'static str,
        patterns: &[Pattern],
        lineno: usize,
        line: &str,
        why: &str,
    ) {
        for pat in patterns {
            for _ in rules::find_pattern(line, pat) {
                findings.push(Finding {
                    rule,
                    line: lineno,
                    message: format!("`{}` {}", pat.needle.trim_end_matches('('), why),
                });
            }
        }
    }

    for (idx, line) in lexed.code_lines.iter().enumerate() {
        let lineno = idx + 1;
        let in_test = lexed.in_test.get(idx).copied().unwrap_or(false);

        // Determinism family: simulation-facing crates everywhere (tests
        // included — reproducibility of the suites is the point), plus
        // library code of every other crate.
        if determinism || kind == TargetKind::Lib {
            push_patterns(
                &mut findings,
                "wallclock",
                rules::WALLCLOCK_PATTERNS,
                lineno,
                line,
                "reads the wall clock; use canal_sim::SimTime virtual time",
            );
            push_patterns(
                &mut findings,
                "ambient-rng",
                rules::AMBIENT_RNG_PATTERNS,
                lineno,
                line,
                "draws ambient randomness; thread all randomness through a seeded canal_sim::SimRng",
            );
        }

        // Global state: process-lifetime mutable state escapes the digest
        // fold and leaks across back-to-back seeded runs.
        if determinism || kind == TargetKind::Lib {
            // A write-once cell is that only as a `static`; a field is owned.
            let cells = rules::declares_static(line).then_some(rules::STATIC_CELL_PATTERNS);
            for patterns in std::iter::once(rules::GLOBAL_STATE_PATTERNS).chain(cells) {
                push_patterns(
                    &mut findings,
                    "global-state",
                    patterns,
                    lineno,
                    line,
                    "holds ambient global state; thread state through explicit structs so it is owned, digested and reset per run",
                );
            }
        }

        // Unordered maps: deterministic library/binary code only. Tests may
        // use them (e.g. to check Hash impls) since they do not feed
        // simulation state.
        if determinism
            && !in_test
            && matches!(
                kind,
                TargetKind::Lib | TargetKind::Bin | TargetKind::Example
            )
        {
            push_patterns(
                &mut findings,
                "unordered-map",
                rules::UNORDERED_MAP_PATTERNS,
                lineno,
                line,
                "iterates in hasher order; use BTreeMap/BTreeSet for deterministic iteration",
            );
        }

        // Stdout: only canal-bench library code and binary-like targets may
        // print; everything else returns values or records metrics.
        if kind == TargetKind::Lib && crate_ident != "canal_bench" && !in_test {
            push_patterns(
                &mut findings,
                "stdout",
                rules::STDOUT_PATTERNS,
                lineno,
                line,
                "writes to stdout from library code; only canal-bench and binaries may print",
            );
        }

        // Panic policy: library code returns errors.
        if kind == TargetKind::Lib && !in_test {
            push_patterns(
                &mut findings,
                "panic",
                rules::PANIC_PATTERNS,
                lineno,
                line,
                "can panic in library code; return a Result or restructure so the invariant is type-enforced",
            );
        }
    }

    // Layering: every reference in the parsed use-graph (use declarations,
    // qualified path roots, `use x as y` aliases resolved) must be an edge
    // in the declared DAG; test code additionally gets TEST_ONLY_DEPS.
    for r in &record.syntax.crate_refs {
        if r.name == crate_ident {
            continue;
        }
        let in_test = lexed.in_test.get(r.line.wrapping_sub(1)).copied().unwrap_or(false);
        let test_scope = in_test
            || matches!(
                kind,
                TargetKind::Test | TargetKind::Example | TargetKind::Bench
            );
        let ok = deps_of(crate_ident).is_some_and(|deps| {
            deps.contains(&r.name.as_str())
                || (test_scope && test_only_deps_of(crate_ident).contains(&r.name.as_str()))
        });
        if !ok {
            findings.push(Finding {
                rule: "layering",
                line: r.line,
                message: format!(
                    "`{crate_ident}` must not depend on `{}` (not an edge in the declared DAG; see canal_lint::rules::LAYERING_DAG)",
                    r.name
                ),
            });
        }
    }
    findings
}

/// Apply `lint:allow` suppressions to raw findings and enforce suppression
/// hygiene (reason present, rule id known, annotation actually used).
fn apply_suppressions(lexed: &LexedFile, findings: Vec<Finding>, file: &str, report: &mut Report) {
    let mut used = vec![false; lexed.suppressions.len()];
    for f in findings {
        let hit = lexed
            .suppressions
            .iter()
            .position(|s| s.rule == f.rule && (s.line == f.line || s.line + 1 == f.line));
        match hit {
            Some(i) => {
                used[i] = true;
                report.suppressed.push(Suppressed {
                    rule: f.rule,
                    file: file.to_string(),
                    line: f.line,
                    reason: lexed.suppressions[i].reason.clone(),
                });
            }
            None => report.violations.push(Violation {
                rule: f.rule,
                file: file.to_string(),
                line: f.line,
                message: f.message,
            }),
        }
    }
    for (i, s) in lexed.suppressions.iter().enumerate() {
        if !rules::RULE_IDS.contains(&s.rule.as_str()) {
            report.violations.push(Violation {
                rule: "suppression",
                file: file.to_string(),
                line: s.line,
                message: format!("unknown rule `{}` in lint:allow", s.rule),
            });
        } else if s.reason.is_empty() {
            report.violations.push(Violation {
                rule: "suppression",
                file: file.to_string(),
                line: s.line,
                message: "lint:allow without reason=... — every exception needs a justification"
                    .to_string(),
            });
        } else if !used[i] {
            report.violations.push(Violation {
                rule: "suppression",
                file: file.to_string(),
                line: s.line,
                message: format!(
                    "unused lint:allow({}) — nothing on this or the next line trips the rule; delete it",
                    s.rule
                ),
            });
        } else if s.rule == "digest-coverage"
            && !(s.reason.starts_with("derived:") || s.reason.starts_with("transient:"))
        {
            report.violations.push(Violation {
                rule: "suppression",
                file: file.to_string(),
                line: s.line,
                message: "digest-coverage exceptions are typed: reason=derived: <why> for state recomputable from folded state, reason=transient: <why> for per-step scratch state".to_string(),
            });
        }
    }
}

/// One source file queued for a scan.
struct ScanFile {
    file: String,
    source: String,
    crate_ident: String,
    kind: TargetKind,
}

/// Scan a set of source files as one unit: line rules per file, then the
/// symbol graph (struct containment, methods, call edges) across all of
/// them, then suppression matching per file.
fn scan_files(files: &[ScanFile], report: &mut Report) {
    let mut lexed_files = Vec::with_capacity(files.len());
    let mut records = Vec::with_capacity(files.len());
    for f in files {
        let lexed = lexer::lex(&f.source);
        records.push(FileRecord::new(&f.file, &f.crate_ident, f.kind, &lexed));
        lexed_files.push(lexed);
    }
    let mut per_file: Vec<Vec<Finding>> = records
        .iter()
        .zip(&lexed_files)
        .map(|(r, l)| findings_for(r, l))
        .collect();
    for (idx, finding) in graph::graph_findings(&records) {
        per_file[idx].push(finding);
    }
    for ((f, lexed), findings) in files.iter().zip(&lexed_files).zip(per_file) {
        apply_suppressions(lexed, findings, &f.file, report);
        report.files_scanned += 1;
    }
}

/// Scan one in-memory source file as `crate_ident`/`kind` (its own
/// single-file symbol graph; cross-file containment needs a workspace scan).
pub fn scan_source(
    file: &str,
    source: &str,
    crate_ident: &str,
    kind: TargetKind,
    report: &mut Report,
) {
    scan_files(
        &[ScanFile {
            file: file.to_string(),
            source: source.to_string(),
            crate_ident: crate_ident.to_string(),
            kind,
        }],
        report,
    );
}

/// Classify a workspace-relative path into (crate ident, target kind).
/// Returns `None` for files the linter does not police (fixtures, docs).
fn classify(rel: &Path) -> Option<(String, TargetKind)> {
    let comps: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    let (ident, rest): (String, &[&str]) = if comps.first() == Some(&"crates") {
        let dir = comps.get(1)?;
        let ident = match *dir {
            "bytes" => "bytes".to_string(),
            other => format!("canal_{}", other.replace('-', "_")),
        };
        (ident, comps.get(2..)?)
    } else {
        ("canal".to_string(), &comps[..])
    };
    let kind = match *rest.first()? {
        "src" => {
            if rest.get(1) == Some(&"bin") || rest.last() == Some(&"main.rs") {
                TargetKind::Bin
            } else {
                TargetKind::Lib
            }
        }
        "tests" => TargetKind::Test,
        "examples" => TargetKind::Example,
        "benches" => TargetKind::Bench,
        _ => return None, // fixtures/, docs, ...
    };
    Some((ident, kind))
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if matches!(name, "target" | ".git" | "fixtures") {
                continue;
            }
            walk_rs(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Normalize a dependency name from a manifest line (`canal-sim` →
/// `canal_sim`).
fn manifest_dep_name(line: &str) -> Option<String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('[') {
        return None;
    }
    let key = trimmed
        .split(['=', '.', ' '])
        .next()
        .unwrap_or("")
        .trim()
        .trim_matches('"');
    if key.is_empty() {
        return None;
    }
    Some(key.replace('-', "_"))
}

/// Check one crate manifest's `[dependencies]`/`[dev-dependencies]` against
/// the layering DAG. Only internal crates (`canal_*`, `bytes`) are policed;
/// there are no external dependencies in this workspace by design.
fn check_manifest(
    path: &Path,
    rel: &str,
    crate_ident: &str,
    report: &mut Report,
) -> io::Result<()> {
    let text = fs::read_to_string(path)?;
    let mut section = "";
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            section = match trimmed {
                "[dependencies]" => "deps",
                "[dev-dependencies]" => "dev",
                _ => "",
            };
            continue;
        }
        if section.is_empty() {
            continue;
        }
        let Some(dep) = manifest_dep_name(line) else {
            continue;
        };
        if dep != "bytes" && !dep.starts_with("canal_") {
            continue;
        }
        if dep == crate_ident {
            continue;
        }
        let allowed = deps_of(crate_ident).is_some_and(|deps| {
            deps.contains(&dep.as_str())
                || (section == "dev" && test_only_deps_of(crate_ident).contains(&dep.as_str()))
        });
        if !allowed {
            report.violations.push(Violation {
                rule: "layering",
                file: rel.to_string(),
                line: idx + 1,
                message: format!(
                    "manifest dependency `{dep}` is not allowed for `{crate_ident}` by the declared DAG"
                ),
            });
        }
    }
    report.manifests_checked += 1;
    Ok(())
}

/// Scan the whole workspace rooted at `root`: every `.rs` file under `src/`,
/// `tests/`, `examples/`, `crates/*/{src,tests,examples,benches}`, plus
/// every crate manifest.
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let mut files = Vec::new();
    for sub in ["src", "tests", "examples", "crates"] {
        walk_rs(&root.join(sub), &mut files)?;
    }
    let mut queue = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let Some((ident, kind)) = classify(rel) else {
            continue;
        };
        queue.push(ScanFile {
            file: rel.display().to_string(),
            source: fs::read_to_string(path)?,
            crate_ident: ident,
            kind,
        });
    }
    scan_files(&queue, &mut report);
    // Manifests: the root package plus every crate.
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        check_manifest(&root_manifest, "Cargo.toml", "canal", &mut report)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let manifest = dir.join("Cargo.toml");
            if !manifest.is_file() {
                continue;
            }
            let Some(name) = dir.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let ident = match name {
                "bytes" => "bytes".to_string(),
                other => format!("canal_{}", other.replace('-', "_")),
            };
            let rel = format!("crates/{name}/Cargo.toml");
            check_manifest(&manifest, &rel, &ident, &mut report)?;
        }
    }
    report.sort();
    Ok(report)
}

/// Scan a directory of fixture snippets. Each `.rs` file is treated as
/// library code of a simulation-facing crate (`canal_sim`), the strictest
/// configuration, so every rule family can fire.
pub fn scan_fixture_dir(dir: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let mut files = Vec::new();
    walk_fixtures(dir, &mut files)?;
    let mut queue = Vec::new();
    for path in &files {
        queue.push(ScanFile {
            file: path.strip_prefix(dir).unwrap_or(path).display().to_string(),
            source: fs::read_to_string(path)?,
            crate_ident: "canal_sim".to_string(),
            kind: TargetKind::Lib,
        });
    }
    scan_files(&queue, &mut report);
    report.sort();
    Ok(report)
}

fn walk_fixtures(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_fixtures(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locate the workspace root from this crate's build-time manifest dir.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .components()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_one(src: &str, ident: &str, kind: TargetKind) -> Report {
        let mut r = Report::default();
        scan_source("mem.rs", src, ident, kind, &mut r);
        r.sort();
        r
    }

    #[test]
    fn wallclock_fires_in_sim_crates_and_lib_code() {
        let r = scan_one("let t = Instant::now();", "canal_net", TargetKind::Lib);
        assert_eq!(r.rules_fired(), vec!["wallclock"]);
        // Also in tests of determinism crates...
        let r = scan_one("let t = Instant::now();", "canal_net", TargetKind::Test);
        assert_eq!(r.rules_fired(), vec!["wallclock"]);
        // ...but not in bench targets of non-determinism crates.
        let r = scan_one("let t = Instant::now();", "canal_bench", TargetKind::Bench);
        assert!(r.clean(), "{}", r.render());
    }

    #[test]
    fn unordered_map_exempts_tests() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        let r = scan_one(src, "canal_net", TargetKind::Lib);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].line, 1);
    }

    #[test]
    fn layering_rejects_undeclared_edges() {
        let r = scan_one("use canal_gateway::Gateway;", "canal_net", TargetKind::Lib);
        assert_eq!(r.rules_fired(), vec!["layering"]);
        let r = scan_one("use canal_sim::SimRng;", "canal_net", TargetKind::Lib);
        assert!(r.clean(), "{}", r.render());
        // bytes:: path references count as crate references.
        let r = scan_one(
            "let b = bytes::Bytes::new();",
            "canal_workload",
            TargetKind::Lib,
        );
        assert_eq!(r.rules_fired(), vec!["layering"]);
        // Local variables that merely start with `canal_` are not crate
        // references, and neither are fields accessed as `x.bytes`.
        let r = scan_one(
            "let canal_bps = rate * 8; let b = pkt.bytes;",
            "canal_net",
            TargetKind::Lib,
        );
        assert!(r.clean(), "{}", r.render());
        // Re-exports without `::` still count.
        let r = scan_one(
            "pub use canal_gateway as gateway;",
            "canal_net",
            TargetKind::Lib,
        );
        assert_eq!(r.rules_fired(), vec!["layering"]);
    }

    #[test]
    fn test_only_deps_are_allowed_in_tests_only() {
        let r = scan_one("use canal_lint::Report;", "canal", TargetKind::Test);
        assert!(r.clean(), "{}", r.render());
        let r = scan_one("use canal_lint::Report;", "canal", TargetKind::Lib);
        assert_eq!(r.rules_fired(), vec!["layering"]);
    }

    #[test]
    fn stdout_is_bench_and_binaries_only() {
        let r = scan_one("println!(\"x\");", "canal_net", TargetKind::Lib);
        assert_eq!(r.rules_fired(), vec!["stdout"]);
        assert!(scan_one("println!(\"x\");", "canal_bench", TargetKind::Lib).clean());
        assert!(scan_one("println!(\"x\");", "canal_net", TargetKind::Bin).clean());
        // eprintln is fine anywhere.
        assert!(scan_one("eprintln!(\"x\");", "canal_net", TargetKind::Lib).clean());
    }

    #[test]
    fn panic_policy_spares_tests_and_non_lib_targets() {
        let r = scan_one("x.unwrap();", "canal_net", TargetKind::Lib);
        assert_eq!(r.rules_fired(), vec!["panic"]);
        assert!(scan_one("x.unwrap();", "canal_net", TargetKind::Test).clean());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\n";
        assert!(scan_one(in_test, "canal_net", TargetKind::Lib).clean());
    }

    #[test]
    fn suppressions_silence_and_are_audited() {
        let ok = "// lint:allow(panic) reason=checked two lines above\nx.unwrap();";
        let r = scan_one(ok, "canal_net", TargetKind::Lib);
        assert!(r.clean(), "{}", r.render());
        assert_eq!(r.suppressed.len(), 1);

        let no_reason = "x.unwrap(); // lint:allow(panic)";
        let r = scan_one(no_reason, "canal_net", TargetKind::Lib);
        assert_eq!(r.rules_fired(), vec!["suppression"]);

        let unused = "let y = 1; // lint:allow(panic) reason=nothing here panics";
        let r = scan_one(unused, "canal_net", TargetKind::Lib);
        assert_eq!(r.rules_fired(), vec!["suppression"]);

        let unknown = "x.unwrap(); // lint:allow(bogus-rule) reason=whatever";
        let r = scan_one(unknown, "canal_net", TargetKind::Lib);
        assert_eq!(r.rules_fired(), vec!["panic", "suppression"]);
    }

    #[test]
    fn seed_dataflow_replaces_the_filename_glob_heuristic() {
        // Any lib fn in a determinism crate — file name no longer matters.
        let bad = "pub fn make_plan() -> u64 {\n    let mut rng = SimRng::seed(42);\n    rng.next()\n}\n";
        let r = scan_one(bad, "canal_sim", TargetKind::Lib);
        assert_eq!(r.rules_fired(), vec!["seed-dataflow"]);
        assert_eq!(r.violations[0].line, 2);
        // A caller-supplied SimRng in the signature makes forking legal.
        let ok = "pub fn make_plan(rng: &mut SimRng) -> u64 {\n    let mut sub = SimRng::seed(rng.next());\n    sub.next()\n}\n";
        assert!(scan_one(ok, "canal_sim", TargetKind::Lib).clean());
        // Tests, binaries and non-determinism crates seed freely.
        assert!(scan_one(bad, "canal_sim", TargetKind::Test).clean());
        assert!(scan_one(bad, "canal_sim", TargetKind::Bin).clean());
        assert!(scan_one(bad, "canal_bench", TargetKind::Lib).clean());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f() -> u64 { let mut r = SimRng::seed(7); r.next() }\n}\n";
        assert!(scan_one(in_test, "canal_sim", TargetKind::Lib).clean());
    }

    #[test]
    fn global_state_fires_in_lib_code() {
        let r = scan_one(
            "static mut COUNT: u64 = 0;\n",
            "canal_net",
            TargetKind::Lib,
        );
        assert_eq!(r.rules_fired(), vec!["global-state"]);
        let r = scan_one(
            "fn f() { thread_local!(static X: u64 = 0); }\n",
            "canal_sim",
            TargetKind::Lib,
        );
        assert_eq!(r.rules_fired(), vec!["global-state"]);
        // A write-once cell is global state as a `static`, not as a field.
        let r = scan_one(
            "fn salt() -> u64 {\n    static SALT: OnceLock<u64> = OnceLock::new();\n    *SALT.get_or_init(|| 7)\n}\n",
            "canal_policy",
            TargetKind::Lib,
        );
        assert_eq!(r.rules_fired(), vec!["global-state"]);
        assert!(r.violations.iter().all(|v| v.line == 2), "{}", r.render());
        let owned = "pub struct Memo {\n    slot: OnceLock<u64>,\n}\nfn get(slot: &'static OnceLock<u64>) -> Option<&'static u64> { slot.get() }\n";
        assert!(scan_one(owned, "canal_policy", TargetKind::Lib).clean());
    }

    #[test]
    fn digest_coverage_suppressions_must_be_typed() {
        let src = "// lint:allow(digest-coverage) reason=transient: scratch map rebuilt each step\npub struct Scratch { v: u64 }\nimpl Scratch { pub fn set(&mut self, v: u64) { self.v = v; } }\n";
        let r = scan_one(src, "canal_sim", TargetKind::Lib);
        assert!(r.clean(), "{}", r.render());
        assert_eq!(r.suppressed.len(), 1);

        let untyped = "// lint:allow(digest-coverage) reason=not important\npub struct Scratch { v: u64 }\nimpl Scratch { pub fn set(&mut self, v: u64) { self.v = v; } }\n";
        let r = scan_one(untyped, "canal_sim", TargetKind::Lib);
        assert_eq!(r.rules_fired(), vec!["suppression"]);
    }

    #[test]
    fn json_report_is_well_formed() {
        let r = scan_one("x.unwrap();", "canal_net", TargetKind::Lib);
        let json = r.to_json();
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"rule\": \"panic\""));
        assert!(json.contains("\"rules_fired\": [\"panic\"]"));
        // Escaping: backticks fine, quotes escaped.
        let r2 = scan_one("let s = 1;", "canal_net", TargetKind::Lib);
        assert!(r2.to_json().contains("\"clean\": true"));
    }

    #[test]
    fn classify_maps_paths_to_targets() {
        let c = |p: &str| classify(Path::new(p));
        assert_eq!(
            c("crates/net/src/flow.rs"),
            Some(("canal_net".to_string(), TargetKind::Lib))
        );
        assert_eq!(
            c("crates/bench/src/bin/experiments.rs"),
            Some(("canal_bench".to_string(), TargetKind::Bin))
        );
        assert_eq!(
            c("crates/bench/benches/codecs.rs"),
            Some(("canal_bench".to_string(), TargetKind::Bench))
        );
        assert_eq!(
            c("tests/determinism.rs"),
            Some(("canal".to_string(), TargetKind::Test))
        );
        assert_eq!(c("src/lib.rs"), Some(("canal".to_string(), TargetKind::Lib)));
        assert_eq!(
            c("crates/bytes/src/lib.rs"),
            Some(("bytes".to_string(), TargetKind::Lib))
        );
        assert_eq!(c("crates/lint/fixtures/bad.rs"), None);
    }

    #[test]
    fn manifest_dep_names_normalize() {
        assert_eq!(
            manifest_dep_name("canal-sim.workspace = true"),
            Some("canal_sim".to_string())
        );
        assert_eq!(
            manifest_dep_name("bytes = { path = \"crates/bytes\" }"),
            Some("bytes".to_string())
        );
        assert_eq!(manifest_dep_name("# comment"), None);
        assert_eq!(manifest_dep_name("[dependencies]"), None);
    }
}
